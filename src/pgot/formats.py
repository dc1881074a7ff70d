"""The parts every on-disk format shares: the binary container (magic, u32 version, body, no trailing bytes), its
little-endian float32 row-major payload codec, JSON-object reading, and the check of every outside value against a
bounds table. The sample body lives in ``data``, the checkpoint body in ``model``."""

from __future__ import annotations

import json
import math
import os
import struct
from contextlib import contextmanager, suppress

import numpy as np

from .errors import BadMagicError, DataError, TruncatedError, VersionError

# a bounds table maps name -> (kind, low[, high]): [low, high), no high is unbounded. A seed is a 128-bit Philox key
SEED_BOUNDS = (int, 0, 2**128)


@contextmanager
def create_record(path, magic: bytes, version: int):
    """Write magic, version and the caller's body to a temporary file beside
    ``path``, then rename it over ``path``: a failed write leaves ``path`` as it was."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(magic)
            write_u32(fh, version)
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.remove(tmp)
        raise


@contextmanager
def open_record(path, magic: bytes, version: int):
    """Check the magic and version, yield the file for the caller to read the
    body, then refuse trailing bytes."""
    with open(path, "rb") as fh:
        found = read_exact(fh, 4, "magic")
        if found != magic:
            raise BadMagicError(f"bad magic {found!r}, expected {magic!r}")
        (found_version,) = read_u32(fh, 1, "version")
        if found_version != version:
            raise VersionError(f"unsupported {magic.decode()} version {found_version}")
        yield fh
        if fh.read(1):
            raise DataError(f"unexpected trailing bytes after {magic.decode()} payload")


def write_u32(fh, *values: int) -> None:
    fh.write(struct.pack(f"<{len(values)}I", *values))


def read_exact(fh, n: int, what: str) -> bytes:
    # checked against the bytes left before reading: a corrupt size field can
    # ask for more than fits in memory or in an index
    offset = fh.tell()
    left = os.fstat(fh.fileno()).st_size - offset
    if n > left:
        raise TruncatedError(f"truncated payload reading {what} at byte {offset}: expected {n} bytes, got {left}")
    return fh.read(n)


def read_u32(fh, count: int, what: str) -> tuple[int, ...]:
    return struct.unpack(f"<{count}I", read_exact(fh, 4 * count, what))


def write_f32(fh, arr: np.ndarray) -> None:
    """``arr``'s values as little-endian float32, row-major, with no header."""
    fh.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def read_f32(fh, shape: tuple[int, ...], what: str) -> np.ndarray:
    """A read-only ``shape`` array of the little-endian float32 values ``write_f32`` wrote."""
    return np.frombuffer(read_exact(fh, 4 * math.prod(shape), what), dtype="<f4").reshape(shape)


def read_json_object(raw: bytes, what: str, error: type[Exception] = DataError) -> dict:
    """Parse UTF-8 JSON text that must hold one object; any fault raises ``error``."""
    try:
        value = json.loads(raw.decode("utf-8"))
    except ValueError as exc:  # bad UTF-8, bad JSON, or an integer past Python's 4300-digit limit
        raise error(f"{what} is not UTF-8 JSON: {exc}") from None
    except RecursionError:  # json's decoder recurses once per nested array or object
        raise error(f"{what} is nested too deeply") from None
    return require_object(value, what, error)


def require_object(value, what: str, error: type[Exception] = DataError) -> dict:
    if not isinstance(value, dict):
        raise error(f"{what} must be a JSON object, got {value!r:.40}")
    return value


def check_value(name: str, value, kind: type, low=-math.inf, high=math.inf, error: type[Exception] = DataError):
    """Return ``value`` if it is a ``kind`` (int, float or bool; an int passes for a float, a bool only for a
    bool) that is finite as a float and lies in [low, high), compared exactly; else raise ``error`` naming it."""
    inside = isinstance(value, (int, float) if kind is float else kind)
    inside = inside and (kind is bool or not isinstance(value, bool))
    got = None
    try:
        inside = inside and math.isfinite(value) and low <= value < high
    except OverflowError:  # an integer beyond the float range; repr refuses one past 4300 digits
        inside, got = False, f"an integer of {value.bit_length()} bits"
    if not inside:
        bounds = "" if kind is bool else f" in [{low}, {high})"
        raise error(f"{name} must be {kind.__name__}{bounds}, got {got or repr(value)[:40]}")
    return value


def check_values(values: dict, bounds: dict, what: str = "", error: type[Exception] = DataError) -> None:
    """``check_value(what + name, value, *bounds[name], error=error)`` per item; a name not in ``bounds`` raises."""
    for name, value in values.items():
        if name not in bounds:
            raise error(f"unknown {what}field {name!r:.40}")
        check_value(what + name, value, *bounds[name], error=error)

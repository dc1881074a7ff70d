"""Check float32 GELU bit for bit over every float32 bit pattern.

    PYTHONPATH=src python3 tools/gelu_bits.py              # all 2^32 patterns
    PYTHONPATH=src python3 tools/gelu_bits.py --stride 4099

Each pattern is run through ``engine._gelu_block``, output and derivative,
and through ``_unblocked_gelu`` of ``tests/test_engine.py``, the formula the
tier-1 tests hold GELU to: ``1 + erf`` halved, with the sign of the erf copied
by ``np.copysign``. Outputs are compared as bits, so NaN payloads and signed
zeros count. ``--stride k`` checks every k-th pattern from 0 instead. The tool
prints how many patterns differ and exits 1 if any does. Checking all 2^32
takes about three minutes on one core of a 2-vCPU x86 VM.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

from pgot import engine  # noqa: E402
from test_engine import _unblocked_gelu  # noqa: E402

PATTERNS = 1 << 32
CHUNK = 1 << 20


def differing(bits: np.ndarray) -> np.ndarray:
    """The patterns among ``bits`` whose GELU output or derivative differs from the reference."""
    x = bits.view(np.float32)
    out, d = np.empty_like(x), np.empty_like(x)
    engine._gelu_block(x, out, d)
    want_out, want_d = _unblocked_gelu(x)
    bad = out.view(np.uint32) != want_out.view(np.uint32)
    bad |= d.view(np.uint32) != want_d.view(np.uint32)
    return bits[bad]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--stride", type=int, default=1, help="check every k-th bit pattern (default 1: all)")
    args = parser.parse_args(argv)
    if args.stride < 1:
        parser.error("--stride must be at least 1")
    count = -(-PATTERNS // args.stride)
    bad, first = 0, []
    with np.errstate(all="ignore"):
        for start in range(0, count, CHUNK):
            index = np.arange(start, min(start + CHUNK, count), dtype=np.uint64)
            found = differing((index * np.uint64(args.stride)).astype(np.uint32))
            bad += found.size
            first.extend(found[: 8 - len(first)].tolist())
    print(f"{count} float32 patterns checked (stride {args.stride}), {bad} differ")
    for pattern in first:
        print(f"  0x{pattern:08x}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

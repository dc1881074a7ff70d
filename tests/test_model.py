import dataclasses
import hashlib
import re

import numpy as np
import pytest

from pgot import engine
from pgot.engine import Rng, Tape, Tensor
from pgot.errors import ConfigError, NumericalError
from pgot.model import (
    FIELD_BOUNDS,
    ModelConfig,
    PgotModel,
    load_checkpoint,
    save_checkpoint,
)
from pgot.training import AdamW, relative_l2_loss

from gradcheck import check_module_grads

TINY = ModelConfig(layers=1, width=8, slices=3, scales=2, heads=2, d=2, d_a=1, d_u=1, seed=3)


def random_sample(rng, n=12, d=2, d_a=1):
    return rng.uniform(-1, 1, (n, d_a)).astype(np.float32), rng.random((n, d)).astype(np.float32)


class TestConfig:
    def test_defaults_valid(self):
        ModelConfig().validate()

    @pytest.mark.parametrize(
        "field,value",
        [
            ("layers", 0), ("slices", 1), ("scales", 0), ("heads", 3), ("dropout", 1.0), ("gate_force", "no"),
            ("layers", "1"), ("layers", 1.0), ("disable_sga", 1), ("heads", 0), ("width", 0),
            ("seed", -1), ("seed", 2**128), ("dropout", "0"), ("pe_frequencies", 0), ("pe_frequencies", 25),
        ],
    )
    def test_invalid_rejected(self, field, value):
        with pytest.raises(ConfigError):
            ModelConfig(**{field: value}).validate()

    @pytest.mark.parametrize("field,value", [("dropout", 0), ("seed", 2**128 - 1), ("gate_force", "half")])
    def test_edge_values_accepted(self, field, value):
        ModelConfig(**{field: value}).validate()

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError):
            ModelConfig.from_dict({"widht": 32})

    def test_bounds_name_every_field_but_gate_force(self):
        # gate_force, a string or None, is checked against GATE_FORCE_MODES instead
        assert set(FIELD_BOUNDS) == {f.name for f in dataclasses.fields(ModelConfig)} - {"gate_force"}

    def test_hash_stable(self):
        assert ModelConfig().hash() == ModelConfig().hash()
        assert ModelConfig().hash() != ModelConfig(seed=1).hash()


class TestPredict:
    def test_output_shape(self):
        model = PgotModel(ModelConfig())
        a, g = random_sample(Rng(1), n=20)
        out = model.predict(a, g)
        assert out.shape == (20, 1)

    def test_wrong_d_a_rejected(self):
        model = PgotModel(ModelConfig(d_a=1))
        with pytest.raises(ConfigError):
            model.predict(np.zeros((5, 3), dtype=np.float32), Rng(2).random((5, 2)))
        # coordinates must be 2-D with the field's rows (at least one) and d columns
        field = np.zeros((10, 1), dtype=np.float32)
        for a, coords in [
            (field, Rng(2).random((11, 2))),
            (field, Rng(2).random((10, 3))),
            (field, Rng(2).random((10,))),
            (field[:0], np.zeros((0, 2))),
        ]:
            with pytest.raises(ConfigError, match=rf"{re.escape(str(coords.shape))}.*{re.escape(str(a.shape))}"):
                model.predict(a, coords)

    def test_non_finite_decoder_output_raises(self):
        model = PgotModel(ModelConfig())
        for layer in (model.decoder.fc1, model.decoder.fc2):
            layer.w.data *= 1e20  # finite weights; the hidden units near 1e20 times them overflow float32
        a, g = random_sample(Rng(3))
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericalError, match="decoder") as exc:
            model.predict(a, g)
        assert exc.value.layer == len(model.blocks)

    def test_determinism(self):
        a, g = random_sample(Rng(3))
        out1 = PgotModel(ModelConfig(seed=9)).predict(a, g).data
        out2 = PgotModel(ModelConfig(seed=9)).predict(a, g).data
        assert np.array_equal(out1, out2)

    def test_finite_over_random_inits(self):
        rng = Rng(4)
        for seed in range(100):
            model = PgotModel(ModelConfig(layers=1, width=8, slices=2, heads=2, seed=seed))
            a, g = random_sample(rng, n=8)
            out = model.predict(a, g)
            assert np.all(np.isfinite(out.data))

    def test_identical_points_identical_rows(self):
        model = PgotModel(ModelConfig())
        a = np.zeros((6, 1), dtype=np.float32)
        g = np.tile(np.array([[0.3, 0.7]], dtype=np.float32), (6, 1))
        g[0] = [0.1, 0.1]  # non-degenerate bounding box
        out = model.predict(a, g).data
        assert np.array_equal(out[1], out[2])

    def test_permutation_equivariance(self):
        model = PgotModel(ModelConfig(seed=5))
        rng = Rng(6)
        a, g = random_sample(rng, n=40)
        perm = np.argsort(rng.random((40,)))
        out = model.predict(a, g).data
        out_perm = model.predict(a[perm], g[perm]).data
        assert np.array_equal(out_perm, out[perm])

    @pytest.mark.parametrize("n", [257, 1023])
    @pytest.mark.parametrize(
        "config",
        [
            ModelConfig(layers=2, width=32, slices=8, scales=2, heads=2, seed=11),
            # decoder and slice-logit products only 3 and 5 columns wide: the
            # shapes where a float32 BLAS gemm gives rows position-dependent bits
            ModelConfig(d_a=2, d_u=3, slices=5, seed=12),
        ],
        ids=["desk", "narrow"],
    )
    def test_permutation_equivariance_odd_meshes(self, config, n):
        model = PgotModel(config)
        rng = Rng(n)
        a, g = random_sample(rng, n=n, d_a=config.d_a)
        out = model.predict(a, g).data
        for perm in (np.argsort(rng.random((n,))), np.arange(n)[::-1]):
            assert np.array_equal(model.predict(a[perm], g[perm]).data, out[perm])

    def test_no_quadratic_intermediate(self, tensor_bytes):
        model = PgotModel(ModelConfig())
        n = 1024
        rng = Rng(7)
        a, g = random_sample(rng, n=n)
        model.predict(a, g)
        assert tensor_bytes["largest"] < n * n * 4


# the configs whose stacked predict must give every field the bits of its own predict
STACK_CONFIGS = {
    "desk": ModelConfig(seed=13),
    "deep": ModelConfig(layers=4, width=36, heads=4, slices=5, seed=14),
    "half_gate": ModelConfig(gate_force="half", seed=15),
    "no_sga_no_tdf": ModelConfig(disable_sga=True, disable_tdf=True, seed=16),
}


class TestStackedPredict:
    @pytest.mark.parametrize("n", [37, 256])
    @pytest.mark.parametrize("name", sorted(STACK_CONFIGS))
    def test_stacked_rows_keep_their_bits(self, name, n):
        model = PgotModel(STACK_CONFIGS[name])
        rng = Rng(n)
        coords = rng.random((n, 2)).astype(np.float32)
        stack = rng.uniform(-1.0, 1.0, (5, n, 1))
        out = model.predict(stack, coords).data
        assert out.shape == (5, n, 1)
        for field, row in zip(stack, out):
            assert np.array_equal(row, model.predict(field, coords).data)

    @pytest.mark.parametrize(
        "shape", [(2, 2, 10, 1), (0, 10, 1), (2, 11, 1), (2, 10, 2)], ids=["4-D", "empty", "other_n", "other_d_a"]
    )
    def test_bad_stack_rejected(self, shape):
        with pytest.raises(ConfigError, match=re.escape(str(shape))):
            PgotModel(TINY).predict(np.zeros(shape, dtype=np.float32), Rng(2).random((10, 2)))



def held(model):
    """Each inspectable layer's switch, and whether it holds an array."""
    return [
        (layer.cache_enabled, getattr(layer, attr) is not None)
        for block in model.blocks
        for layer, attr in ((block.attn, "last_assignment"), (block.ffn, "last_gate"))
    ]


class TestInspect:
    def test_keys_in_block_order_and_nothing_kept(self):
        model = PgotModel(ModelConfig(seed=19))
        a, g = random_sample(Rng(20))
        dumps = model.inspect(a, g)
        assert list(dumps) == ["layer0_assignment", "layer0_gate", "layer1_assignment", "layer1_gate"]
        assert dumps["layer1_assignment"].shape == (12, 8) and dumps["layer1_gate"].shape == (12, 32)
        assert np.allclose(dumps["layer0_assignment"].sum(axis=1), 1.0, atol=1e-5)
        assert held(model) == [(False, False)] * 4
        model.predict(a, g)
        assert held(model) == [(False, False)] * 4

    def test_nothing_kept_after_a_failed_predict(self):
        model = PgotModel(ModelConfig(seed=19))
        dict(model.parameters())["lift.fc1.w"].data[...] = 3e38
        with np.errstate(all="ignore"), pytest.raises(NumericalError):
            model.inspect(*random_sample(Rng(20)))
        assert held(model) == [(False, False)] * 4

    @pytest.mark.parametrize("switch,kind", [("disable_tdf", "assignment"), ("dense_attention", "gate")])
    def test_ablation_gives_only_existing_keys(self, switch, kind):
        dumps = PgotModel(ModelConfig(**{switch: True})).inspect(*random_sample(Rng(20)))
        assert list(dumps) == [f"layer0_{kind}", f"layer1_{kind}"]

    def test_dropout_draws_only_in_training(self):
        model = PgotModel(ModelConfig(dropout=0.3, seed=19))
        a, g = random_sample(Rng(20))
        state = str(model._dropout_rng._gen.bit_generator.state)
        model.predict(a, g)
        assert str(model._dropout_rng._gen.bit_generator.state) == state
        model.predict(a, g, training=True)
        assert str(model._dropout_rng._gen.bit_generator.state) != state


class TestBlocks:
    def test_zero_nonresidual_weights_is_identity(self):
        model = PgotModel(ModelConfig(layers=1, seed=8))
        block = model.blocks[0]
        for name, p in block.parameters("b"):
            if ".ln1.gain" in name or ".ln2.gain" in name:
                continue  # layer norm gains stay, outputs are killed downstream
            if name.endswith((".wx.w", ".prototypes", ".tau_raw")):
                continue  # only affect the assignment, not the value path
            if ".bank." in name or ".gate." in name:
                continue
            p.data = np.zeros_like(p.data)
        x = Tensor(Rng(9).uniform(-1, 1, (10, 32)))
        coords = Rng(10).random((10, 2))
        feats = Tensor(model.embed(coords))
        out = block(x, coords, feats, Rng(11), False)
        assert np.allclose(out.data, x.data, atol=1e-6)

    def test_double_ablation_is_plain_block(self):
        config = ModelConfig(disable_sga=True, disable_tdf=True, seed=12)
        model = PgotModel(config)
        block = model.blocks[0]
        from pgot.attention import SpecGeoAttention
        from pgot.ffn import PlainFFN

        assert isinstance(block.ffn, PlainFFN)
        assert isinstance(block.attn, SpecGeoAttention)
        assert block.attn.bank is None


def count_params(config: ModelConfig) -> int:
    return sum(p.size for _, p in PgotModel(config).parameters())


class TestCountParams:
    def test_quadratic_in_width(self):
        small = count_params(ModelConfig(width=32))
        big = count_params(ModelConfig(width=64))
        assert 3.0 < big / small < 4.5

    def test_layer_additivity(self):
        with pytest.raises(ConfigError):
            count_params(ModelConfig(layers=0))
        one = count_params(ModelConfig(layers=1))
        two = count_params(ModelConfig(layers=2))
        three = count_params(ModelConfig(layers=3))
        assert two - one == three - two

    def test_slices_enter_via_prototypes_only(self):
        base = count_params(ModelConfig(slices=8))
        more = count_params(ModelConfig(slices=16))
        # 8 extra prototype rows of width 32 per layer, 2 layers
        assert more - base == 8 * 32 * 2


class TestGradients:
    def test_end_to_end_tiny_model(self):
        with engine.float64_mode():
            model = PgotModel(ModelConfig(layers=1, width=8, slices=3, heads=2, seed=13))
            rng = Rng(14)
            a = rng.uniform(-1, 1, (6, 1)).astype(np.float64)
            g = rng.random((6, 2)).astype(np.float64)
            check_module_grads(lambda: model.predict(a, g), model.parameters())

    def test_every_parameter_receives_gradient(self):
        model = PgotModel(ModelConfig(seed=15))
        rng = Rng(16)
        a, g = random_sample(rng, n=16)
        with Tape() as tape:
            pred = model.predict(a, g)
            loss = relative_l2_loss(pred, rng.uniform(-1, 1, (16, 1)).astype(np.float32))
            tape.backward(loss)
        for name, p in model.parameters():
            assert p.grad is not None, name
            assert np.max(np.abs(p.grad)) > 0, name


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        model = PgotModel(ModelConfig(seed=17))
        path = tmp_path / "model.pgck"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert loaded.config == model.config
        for (n1, p1), (n2, p2) in zip(model.parameters(), loaded.parameters()):
            assert n1 == n2
            assert p1.data.tobytes() == p2.data.tobytes()

    def test_loaded_model_trains(self, tmp_path):
        model = PgotModel(ModelConfig(seed=21))
        save_checkpoint(model, tmp_path / "m.pgck")
        loaded = load_checkpoint(tmp_path / "m.pgck")
        AdamW(loaded.parameters(), weight_decay=1e-4).step(1e-3)
        save_checkpoint(loaded, tmp_path / "stepped.pgck")
        reloaded = load_checkpoint(tmp_path / "stepped.pgck")
        # weight decay moves every nonzero parameter in place
        pairs = zip(loaded.parameters(), model.parameters())
        assert any(not np.array_equal(p1.data, p0.data) for (_, p1), (_, p0) in pairs)
        for (name, p1), (_, p2) in zip(loaded.parameters(), reloaded.parameters()):
            assert p1.data.tobytes() == p2.data.tobytes(), name

    def test_round_trip_predictions_identical(self, tmp_path):
        model = PgotModel(ModelConfig(seed=18))
        a, g = random_sample(Rng(19))
        before = model.predict(a, g).data
        save_checkpoint(model, tmp_path / "m.pgck")
        after = load_checkpoint(tmp_path / "m.pgck").predict(a, g).data
        assert np.array_equal(before, after)

    def test_bad_magic(self, tmp_path):
        from pgot.errors import BadMagicError

        path = tmp_path / "junk.pgck"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(BadMagicError):
            load_checkpoint(path)

    def test_truncated(self, tmp_path):
        from pgot.errors import TruncatedError

        model = PgotModel(ModelConfig(seed=20))
        path = tmp_path / "m.pgck"
        save_checkpoint(model, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(TruncatedError):
            load_checkpoint(path)

    def test_failed_save_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        path = tmp_path / "m.pgck"
        save_checkpoint(PgotModel(ModelConfig(seed=21)), path)
        before = path.read_bytes()
        model = PgotModel(ModelConfig(seed=22))
        # the second tensor's conversion fails after the header and one tensor are written
        convert = np.ascontiguousarray
        calls = []

        def failing(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise OSError("disk full")
            return convert(*args, **kwargs)

        monkeypatch.setattr(np, "ascontiguousarray", failing)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(model, path)
        monkeypatch.undo()
        assert len(calls) == 2
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["m.pgck"]


# sha256 of the newline-joined parameter names and of the checkpoint file of a
# seed-0 model; any change to naming, ordering, init or the format shows here
GOLDEN = {
    "desk": (
        {},
        "95d88f7c6c8f75dae955d86b06e555c8f84b258431ecf4295b3e6d3ef1c788a4",
        "e0d63832707ae13dba3727e0f4dbb609d9c880ce1502dc1323406a4573b72433",
    ),
    "disable_sga": (
        {"disable_sga": True},
        "dd290ebb42624cd20c57b27dce179eae33a690212fad4922298623abb04e3fca",
        "497afefb24bbdf116a86d28e29faf6dfaa12335c0e1e758a815a4ea5f38e218a",
    ),
    "disable_tdf": (
        {"disable_tdf": True},
        "62e17083ee41fa22e7d937890045fb11e5a18f14abc12c03dfccdda4d0641708",
        "d6576677ba7acec5d37aff18291e2bc97ab68dea4c4b3a753e8f8bb0fc893ec1",
    ),
    "dense_attention": (
        {"dense_attention": True},
        "62b195ee1d6216fde3dbed04fffb353d740713e9a80e0122159cfffa54ee9dc1",
        "38c1c802a47bbbd1e09c51a96658a99fbb74aa4173fcd815a760343cd41b6b2d",
    ),
    "deep": (
        {"layers": 3, "scales": 3, "d_a": 2, "d_u": 3, "slices": 5},
        "4ad22d9496dc9864f38b517d23184d8964be3f9e5a9d493c7bf3b49682ceef43",
        "4d3c4d4cf7478764d83b1ef8d41fb6bfbca9d7212616632f09502d81fe7477e4",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_names_and_checkpoint_bytes(tmp_path, name):
    overrides, names_sha, checkpoint_sha = GOLDEN[name]
    model = PgotModel(ModelConfig(seed=0, **overrides))
    names = "\n".join(n for n, _ in model.parameters()).encode()
    assert hashlib.sha256(names).hexdigest() == names_sha
    path = tmp_path / "m.pgck"
    save_checkpoint(model, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == checkpoint_sha

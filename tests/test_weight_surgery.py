"""First-layer widening, initialisation and weight file tests."""

import numpy as np
import pytest

import oracles
from motionstack.errors import DataValidationError
from motionstack.weight_surgery import (
    ConvLayerWeights,
    expand_first_layer,
    load_conv_layer,
    save_conv_layer,
)


def _layer(c_out=4, c_in=3, kh=3, kw=3, seed=0, with_bias=True):
    rng = np.random.default_rng(seed)
    weight = rng.normal(0, 0.4, size=(c_out, c_in, kh, kw)).astype(np.float32)
    bias = rng.normal(0, 0.1, size=c_out).astype(np.float32) if with_bias else None
    return ConvLayerWeights(weight=weight, bias=bias)


class TestConvLayerWeights:
    def test_shape_and_dtype_validation(self):
        with pytest.raises(ValueError, match="c_out, c_in, kh, kw"):
            ConvLayerWeights(weight=np.zeros((3, 3, 3), np.float32))
        with pytest.raises(ValueError, match=r"each >= 1, got shape \(4, 0, 3, 3\)"):
            ConvLayerWeights(weight=np.zeros((4, 0, 3, 3), np.float32))
        with pytest.raises(ValueError, match="float32"):
            ConvLayerWeights(weight=np.zeros((1, 1, 1, 1), np.float64))
        with pytest.raises(ValueError, match="bias must be float32"):
            ConvLayerWeights(weight=np.zeros((2, 1, 1, 1), np.float32), bias=np.zeros(2))
        with pytest.raises(ValueError, match=r"bias must have shape \(2,\)"):
            ConvLayerWeights(
                weight=np.zeros((2, 1, 1, 1), np.float32), bias=np.zeros(3, np.float32)
            )

    def test_accessors(self):
        layer = _layer(c_out=5, c_in=6, kh=1, kw=3)
        assert (layer.c_out, layer.c_in, layer.kernel) == (5, 6, (1, 3))


class TestReplicateInit:
    def test_n1_is_byte_identical_copy(self):
        layer = _layer()
        out = expand_first_layer(layer, 1, "replicate")
        assert out.weight.tobytes() == layer.weight.tobytes()
        assert out.bias.tobytes() == layer.bias.tobytes()
        assert out.weight is not layer.weight

    def test_tiles_and_scales(self):
        layer = _layer()
        n = 4
        out = expand_first_layer(layer, n, "replicate")
        assert out.weight.shape == (layer.c_out, n * layer.c_in, *layer.kernel)
        scaled = layer.weight / np.float32(n)
        for k in range(n):
            block = out.weight[:, k * layer.c_in : (k + 1) * layer.c_in]
            assert np.array_equal(block, scaled)

    def test_bias_carries_over_unchanged(self):
        layer = _layer()
        out = expand_first_layer(layer, 3, "replicate")
        assert np.array_equal(out.bias, layer.bias)
        assert expand_first_layer(_layer(with_bias=False), 3, "replicate").bias is None

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError, match=">= 1"):
            expand_first_layer(_layer(), 0, "replicate")

    def test_static_stack_response_matches_original(self):
        # The whole point of the 1/n scaling: n copies of one image through
        # the widened layer reproduce the original single-image response.
        rng = np.random.default_rng(3)
        layer = _layer(seed=3)
        image = rng.random((3, 10, 12)).astype(np.float32)
        stack = np.concatenate([image] * 4, axis=0)
        base = oracles.conv2d_loops(image, layer.weight, layer.bias)
        wide = expand_first_layer(layer, 4, "replicate")
        widened = oracles.conv2d_loops(stack, wide.weight, wide.bias)
        assert np.allclose(widened, base, rtol=1e-5, atol=1e-5)


class TestRandomInit:
    def test_bounds_and_zero_bias(self):
        out = expand_first_layer(_layer(c_out=8, c_in=3), 3, "random", seed=1)
        bound = 1.0 / np.sqrt(9 * 3 * 3)
        assert out.weight.shape == (8, 9, 3, 3)
        assert np.all(np.abs(out.weight) <= bound)
        assert np.all(out.bias == 0.0)

    def test_seeded(self):
        layer = _layer(c_in=2)
        a = expand_first_layer(layer, 3, "random", seed=7)
        b = expand_first_layer(layer, 3, "random", seed=7)
        c = expand_first_layer(layer, 3, "random", seed=8)
        assert a.weight.tobytes() == b.weight.tobytes()
        assert a.weight.tobytes() != c.weight.tobytes()


class TestExpandFirstLayer:
    def test_modes(self):
        layer = _layer()
        rep = expand_first_layer(layer, 3, "replicate")
        assert rep.weight.tobytes() == (np.tile(layer.weight, (1, 3, 1, 1)) / np.float32(3)).tobytes()
        rand = expand_first_layer(layer, 3, "random", seed=5)
        assert rand.weight.shape == (4, 9, 3, 3)
        # The random draw depends on the layer's shape alone, not its values.
        other = expand_first_layer(_layer(seed=9, with_bias=False), 3, "random", seed=5)
        assert rand.weight.tobytes() == other.weight.tobytes()

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown surgery mode"):
            expand_first_layer(_layer(), 2, "xavier")


class TestSaveLoad:
    def test_round_trip_with_bias(self, tmp_path):
        layer = _layer(seed=11)
        path = tmp_path / "first.mten"
        save_conv_layer(layer, path)
        assert (tmp_path / "first.json").exists()
        assert (tmp_path / "first.bias.mten").exists()
        back = load_conv_layer(path)
        assert back.weight.tobytes() == layer.weight.tobytes()
        assert back.bias.tobytes() == layer.bias.tobytes()

    def test_round_trip_without_bias(self, tmp_path):
        layer = _layer(with_bias=False)
        path = tmp_path / "first.mten"
        save_conv_layer(layer, path)
        back = load_conv_layer(path)
        assert back.bias is None
        assert back.weight.tobytes() == layer.weight.tobytes()

    def test_load_without_sidecar(self, tmp_path):
        layer = _layer(seed=2)
        path = tmp_path / "w.mten"
        save_conv_layer(layer, path)
        (tmp_path / "w.json").unlink()
        back = load_conv_layer(path)
        assert back.bias is None  # sidecar gone, so no bias is looked for

    def test_sidecar_shape_mismatch(self, tmp_path):
        layer = _layer()
        path = tmp_path / "w.mten"
        save_conv_layer(layer, path)
        sidecar = tmp_path / "w.json"
        sidecar.write_text(sidecar.read_text().replace('"c_out": 4', '"c_out": 5'))
        with pytest.raises(DataValidationError, match="declares shape"):
            load_conv_layer(path)

    def test_missing_declared_bias(self, tmp_path):
        layer = _layer()
        path = tmp_path / "w.mten"
        save_conv_layer(layer, path)
        (tmp_path / "w.bias.mten").unlink()
        with pytest.raises(DataValidationError, match="bias"):
            load_conv_layer(path)

    @pytest.mark.parametrize(
        "before, after, message",
        [
            ('"bias": true', '"bias": "false"', 'bias must be true or false, got "false"'),
            ('"c_out": 4', '"c_out": 4.0', "c_out must be an integer, got 4.0"),
            ('"kh": 3', '"kh": true', "kh must be an integer, got true"),
        ],
    )
    def test_sidecar_value_types(self, tmp_path, before, after, message):
        path = tmp_path / "w.mten"
        save_conv_layer(_layer(), path)
        sidecar = tmp_path / "w.json"
        sidecar.write_text(sidecar.read_text().replace(before, after))
        with pytest.raises(DataValidationError, match=f"w.json: {message}"):
            load_conv_layer(path)

    def test_wrong_rank_tensor_rejected(self, tmp_path):
        from motionstack.tensor_io import write_tensor

        path = tmp_path / "w.mten"
        write_tensor(np.zeros((3, 3), np.float32), path)
        with pytest.raises(DataValidationError, match="c_out, c_in, kh, kw"):
            load_conv_layer(path)

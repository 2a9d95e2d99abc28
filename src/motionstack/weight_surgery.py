"""First-layer weight surgery for stacked multi-frame inputs.

A detector pretrained on single RGB images has a first conv layer shaped
[c_out, 3, kh, kw]. Feeding it an N-frame stack needs [c_out, 3N, kh, kw],
and there are two ways to get there:

* replication: tile the pretrained filters N times along the input-channel
  axis and scale each copy by 1/N. Convolving the result with a stack
  holding N copies of one image reproduces the original layer's response,
  so the surgery is drop-in on static content. The bias is untouched.
* random: re-draw the widened layer from scratch, uniform on [-b, b] with
  b = 1/sqrt(fan_in), zero bias.

Weights are float32 and interchange as an MTENSOR file plus a JSON sidecar
``{"c_out","c_in","kh","kw","bias"}`` (bias, when present, in a second
MTENSOR next to the weight file).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataValidationError
from .jsonio import _echo, expect, read_json, write_json
from .tensor_io import read_tensor, write_tensor

MODES = ("replicate", "random")


@dataclass(eq=False)
class ConvLayerWeights:
    """A conv layer's float32 weight [c_out, c_in, kh, kw] and optional bias [c_out]."""

    weight: np.ndarray = field(repr=False)
    bias: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        self.weight = np.asarray(self.weight)
        if self.weight.ndim != 4 or 0 in self.weight.shape:
            raise ValueError(
                f"conv weight must be [c_out, c_in, kh, kw], each >= 1, got shape {self.weight.shape}"
            )
        if self.weight.dtype != np.float32:
            raise ValueError(f"conv weight must be float32, got {self.weight.dtype}")
        if self.bias is not None:
            self.bias = np.asarray(self.bias)
            if self.bias.dtype != np.float32:
                raise ValueError(f"conv bias must be float32, got {self.bias.dtype}")
            if self.bias.shape != (self.weight.shape[0],):
                raise ValueError(
                    f"conv bias must have shape ({self.weight.shape[0]},), got {self.bias.shape}"
                )

    @property
    def c_out(self) -> int:
        return self.weight.shape[0]

    @property
    def c_in(self) -> int:
        return self.weight.shape[1]

    @property
    def kernel(self) -> tuple[int, int]:
        return (self.weight.shape[2], self.weight.shape[3])


def expand_first_layer(layer: ConvLayerWeights, n: int, mode: str, seed: int = 0) -> ConvLayerWeights:
    """Widen a layer from [c_out, c_in, kh, kw] to [c_out, n*c_in, kh, kw].

    ``replicate`` tiles the filters ``n`` times along c_in and scales each
    copy by 1/n; the bias carries over unchanged, and with n=1 the weights
    come back byte-identical. ``random`` draws fresh weights from ``seed``,
    uniform on [-b, b] with b = 1/sqrt(n*c_in*kh*kw), and a zero bias.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if mode == "replicate":
        bias = None if layer.bias is None else layer.bias.copy()
        if n == 1:
            return ConvLayerWeights(weight=layer.weight.copy(), bias=bias)
        tiled = np.tile(layer.weight, (1, n, 1, 1))
        return ConvLayerWeights(weight=np.ascontiguousarray(tiled / np.float32(n)), bias=bias)
    if mode == "random":
        c_in = n * layer.c_in
        kh, kw = layer.kernel
        bound = 1.0 / np.sqrt(c_in * kh * kw)
        rng = np.random.default_rng(seed)
        weight = rng.uniform(-bound, bound, size=(layer.c_out, c_in, kh, kw)).astype(np.float32)
        return ConvLayerWeights(weight=weight, bias=np.zeros(layer.c_out, dtype=np.float32))
    raise ValueError(f"unknown surgery mode {mode!r}; expected one of {', '.join(MODES)}")


def _sidecar_path(weight_path: Path) -> Path:
    return weight_path.with_suffix(".json")


def _bias_path(weight_path: Path) -> Path:
    return weight_path.with_suffix(".bias.mten")


def save_conv_layer(layer: ConvLayerWeights, path: str | Path) -> None:
    """Write the weight tensor, its JSON sidecar, and the bias tensor if any."""
    path = Path(path)
    write_tensor(layer.weight, path)
    kh, kw = layer.kernel
    meta = {
        "c_out": layer.c_out,
        "c_in": layer.c_in,
        "kh": kh,
        "kw": kw,
        "bias": layer.bias is not None,
    }
    write_json(meta, _sidecar_path(path))
    if layer.bias is not None:
        write_tensor(layer.bias, _bias_path(path))


def load_conv_layer(path: str | Path) -> ConvLayerWeights:
    """Read a weight file back, honoring the sidecar when present.

    Without a sidecar the shape alone describes the layer and no bias is
    looked for.
    """
    path = Path(path)
    weight = read_tensor(path)
    sidecar = _sidecar_path(path)
    bias = None
    if sidecar.exists():
        meta = expect(read_json(sidecar), dict, str(sidecar))
        declared = tuple(expect(meta.get(k), int, f"{sidecar}: {k}") for k in ("c_out", "c_in", "kh", "kw"))
        if tuple(weight.shape) != declared:
            raise DataValidationError(
                f"{sidecar}: declares shape {_echo(declared)}, tensor has {list(weight.shape)}"
            )
        if expect(meta.get("bias", False), bool, f"{sidecar}: bias"):
            bias_file = _bias_path(path)
            if not bias_file.exists():
                raise DataValidationError(f"{sidecar}: declares a bias but {bias_file} is missing")
            bias = read_tensor(bias_file)
    try:
        return ConvLayerWeights(weight=weight, bias=bias)
    except ValueError as exc:
        raise DataValidationError(f"{path}: {exc}") from exc

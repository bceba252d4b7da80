"""Small encoder-decoder network with skip connections.

Three resolution levels: a stem convolution, two stride-2 downsampling
convolutions, and two transposed-convolution upsampling stages each followed
by a skip concatenation and a 3x3 convolution. All activations are leaky
ReLU except the last layer, which stays linear; dropout follows every
encoder/decoder block. The head is chosen by the output channel count:
3 for the softmax head, 2 for the quadratic evidence head.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from evgrid.errors import ConfigError, EvgridError, is_int, is_number, write_atomic
from evgrid.grid import f32_values, pack_f32, unpack_f32
from evgrid.net import tensor as T
from evgrid.net.tensor import Tensor

_DOWN_FACTOR = 4  # two stride-2 stages


@dataclass(frozen=True)
class UNetSpec:
    in_channels: int = 2
    out_channels: int = 2  # 2 = evidence head, 3 = softmax head
    base_channels: int = 8
    leaky_slope: float = 0.1
    dropout: float = 0.2

    def __post_init__(self) -> None:
        if not all(is_int(v) and v >= 1 for v in (self.in_channels, self.out_channels, self.base_channels)):
            raise ConfigError("in_channels, out_channels and base_channels must be positive integers")
        if self.out_channels not in (2, 3):
            raise ConfigError("out_channels must be 2 (evidence) or 3 (softmax)")
        if not is_number(self.leaky_slope):
            raise ConfigError(f"leaky_slope must be a number, got {self.leaky_slope!r}")
        if not (is_number(self.dropout) and 0.0 <= self.dropout < 1.0):
            raise ConfigError("dropout rate must be in [0, 1)")


def _layer_shapes(spec: UNetSpec) -> dict[str, tuple[int, ...]]:
    c0 = spec.base_channels
    c1, c2 = 2 * c0, 4 * c0
    return {
        "stem_w": (c0, spec.in_channels, 3, 3), "stem_b": (c0,),
        "down1_w": (c1, c0, 3, 3), "down1_b": (c1,),
        "down2_w": (c2, c1, 3, 3), "down2_b": (c2,),
        "up1_w": (c2, c1, 2, 2), "up1_b": (c1,),
        "dec1_w": (c1, 2 * c1, 3, 3), "dec1_b": (c1,),
        "up2_w": (c1, c0, 2, 2), "up2_b": (c0,),
        "dec2_w": (spec.out_channels, 2 * c0, 3, 3), "dec2_b": (spec.out_channels,),
    }


def init_params(spec: UNetSpec, rng: np.random.Generator, dtype=np.float32) -> dict[str, np.ndarray]:
    """He-style initialization; biases start at zero."""
    params = {}
    for name, shape in _layer_shapes(spec).items():
        if name.endswith("_b"):
            params[name] = np.zeros(shape, dtype=dtype)
        else:
            fan_in = int(np.prod(shape[1:]))
            params[name] = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape).astype(dtype)
    return params


def forward(params: dict[str, np.ndarray], spec: UNetSpec, x: np.ndarray,
            dropout_rng: np.random.Generator | None = None) -> tuple[Tensor, dict[str, Tensor]]:
    """Run the network, building the tape.

    ``dropout_rng`` draws fresh dropout masks for this call; None disables
    dropout. Returns the pre-head output tensor and the parameter tensors
    (the leaves whose .grad a subsequent backward() fills).
    """
    if x.ndim != 4 or x.shape[1] != spec.in_channels:
        raise ConfigError(f"input shape {x.shape} incompatible with {spec.in_channels} channels")
    if x.shape[2] % _DOWN_FACTOR or x.shape[3] % _DOWN_FACTOR:
        raise ConfigError(f"input side must be divisible by {_DOWN_FACTOR}, got {x.shape[2:]}")
    p = {name: Tensor(arr) for name, arr in params.items()}
    slope = spec.leaky_slope

    def drop(t: Tensor) -> Tensor:
        if dropout_rng is None:
            return t
        mask = T.make_dropout_mask(t.shape, spec.dropout, dropout_rng, dtype=t.data.dtype)
        return T.dropout(t, mask)

    xt = Tensor(x)
    h0 = drop(T.leaky_relu(T.conv2d(xt, p["stem_w"], p["stem_b"], stride=1, pad=1), slope))
    h1 = drop(T.leaky_relu(T.conv2d(h0, p["down1_w"], p["down1_b"], stride=2, pad=1), slope))
    h2 = drop(T.leaky_relu(T.conv2d(h1, p["down2_w"], p["down2_b"], stride=2, pad=1), slope))
    u1 = T.leaky_relu(T.conv_transpose2d(h2, p["up1_w"], p["up1_b"], stride=2), slope)
    d1 = drop(T.leaky_relu(T.conv2d(T.concat(u1, h1), p["dec1_w"], p["dec1_b"], stride=1, pad=1), slope))
    u2 = T.leaky_relu(T.conv_transpose2d(d1, p["up2_w"], p["up2_b"], stride=2), slope)
    out = T.conv2d(T.concat(u2, h0), p["dec2_w"], p["dec2_b"], stride=1, pad=1)
    return out, p


# ---------------------------------------------------------------------------
# checkpoint format: JSON header line + little-endian float32 payload
# ---------------------------------------------------------------------------

def save_checkpoint(path, params: dict[str, np.ndarray], spec: UNetSpec,
                    seed: int = 0, epoch: int = 0) -> None:
    header = {
        "arch": asdict(spec),
        "seed": seed,
        "epoch": epoch,
        "params": [{"name": k, "shape": list(params[k].shape)} for k in sorted(params)],
    }
    write_atomic(path, pack_f32(header, [params[k] for k in sorted(params)]), "checkpoint")


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], UNetSpec, dict]:
    """Read a checkpoint; a malformed or truncated file raises EvgridError naming it."""
    try:
        with open(path, "rb") as f:
            blob = f.read()
    except OSError as exc:
        raise EvgridError(f"cannot read checkpoint {path}: {exc}") from exc
    try:
        header, payload = unpack_f32(blob)
        try:
            spec = UNetSpec(**header["arch"])
            shapes = {entry["name"]: tuple(map(int, entry["shape"])) for entry in header["params"]}
        except (KeyError, TypeError, ValueError) as exc:  # ValueError covers ConfigError
            raise EvgridError(f"malformed header: {exc!r}") from exc
        if shapes != _layer_shapes(spec):
            raise EvgridError("parameter shapes do not match its architecture")
        sizes = [int(np.prod(shape)) for shape in shapes.values()]
        values = f32_values(payload, sum(sizes)).astype(np.float32)
    except EvgridError as exc:
        raise EvgridError(f"checkpoint {path}: {exc}") from exc
    parts = np.split(values, np.cumsum(sizes)[:-1])
    params = {name: part.reshape(shape) for (name, shape), part in zip(shapes.items(), parts)}
    return params, spec, header

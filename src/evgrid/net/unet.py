"""Small encoder-decoder network with skip connections.

Three resolution levels: a stem convolution, two stride-2 downsampling
convolutions, and two transposed-convolution upsampling stages each followed
by a 3x3 convolution that takes the upsampled map and the skip as two
parts. All activations are leaky ReLU except the last layer, which stays
linear; dropout follows every encoder/decoder block, and both are the
epilogue of the convolution that feeds them. The head is
chosen by the output channel count: 3 for the softmax head, 2 for the
quadratic evidence head. ``forward`` builds the autodiff tape for
training, or with ``record=False`` runs the same array kernels untaped for
inference. The leaky slope must lie in [0, 1].
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from evgrid.errors import ConfigError, EvgridError, is_int, is_number, read_input, write_atomic
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
        if not (is_number(self.leaky_slope) and 0.0 <= self.leaky_slope <= 1.0):
            # leaky ReLU is computed as max(x, slope*x), which needs the slope in [0, 1]
            raise ConfigError(f"leaky_slope must be a number in [0, 1], got {self.leaky_slope!r}")
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


def init_params(spec: UNetSpec, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """He-style float32 initialization; biases start at zero."""
    params = {}
    for name, shape in _layer_shapes(spec).items():
        if name.endswith("_b"):
            params[name] = np.zeros(shape, dtype=np.float32)
        else:
            fan_in = int(np.prod(shape[1:]))
            params[name] = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape).astype(np.float32)
    return params


def _check_sides(sides: tuple[int, ...]) -> None:
    """The two stride-2 stages need every input side divisible by their product."""
    if any(side % _DOWN_FACTOR for side in sides):
        raise ConfigError(f"input side must be divisible by {_DOWN_FACTOR}, got {sides}")


def forward(params: dict[str, np.ndarray], spec: UNetSpec, x: np.ndarray,
            dropout_rng: np.random.Generator | None = None,
            record: bool = True) -> tuple[Tensor | np.ndarray, dict]:
    """Run the network; returns the pre-head output and the parameters.

    ``dropout_rng`` draws fresh dropout masks for this call, in block order;
    None, or a dropout rate of 0, disables dropout and draws nothing. With
    ``record`` (training) the ops build the tape: the output is a Tensor, and
    the parameter Tensors are the leaves whose .grad a later backward()
    fills. Each convolution's output is its block's activation, so the tape
    holds each activation once, plus a boolean keep mask per block. Without
    ``record`` (inference) the same array kernels run with no tape, each
    activation is released after its last reader, and the output is an
    ndarray bit-identical to the taped one for the same masks.
    """
    if x.ndim != 4 or x.shape[1] != spec.in_channels:
        raise ConfigError(f"input shape {x.shape} incompatible with {spec.in_channels} channels")
    _check_sides(x.shape[2:])
    slope, rate = spec.leaky_slope, spec.dropout
    if record:
        p, h = {name: Tensor(arr) for name, arr in params.items()}, Tensor(x)
        conv, up = T.conv2d, T.conv_transpose2d
    else:
        p, h, conv, up = params, x, T.conv2d_array, T.conv_transpose2d_array
    # the keep masks of the four blocks' outputs, drawn in block order before any
    # activation exists, so that the draws' float64 temporaries meet none
    n, _, rows, cols = x.shape
    keep = [None] * 4 if dropout_rng is None or rate == 0.0 else [
        T.dropout_keep((n, params[f"{layer}_w"].shape[0], rows // down, cols // down), rate, dropout_rng)
        for layer, down in (("stem", 1), ("down1", 2), ("down2", 4), ("dec1", 2))]
    # each activation stays bound only until its last reader, so the untaped
    # forward frees it there (the tape keeps what its backwards read)
    h0 = conv(h, p["stem_w"], p["stem_b"], 1, slope, keep[0], rate)
    h1 = conv(h0, p["down1_w"], p["down1_b"], 2, slope, keep[1], rate)
    h = conv(h1, p["down2_w"], p["down2_b"], 2, slope, keep[2], rate)
    h = up(h, p["up1_w"], p["up1_b"], slope)
    h = conv((h, h1), p["dec1_w"], p["dec1_b"], 1, slope, keep[3], rate)
    del h1
    h = up(h, p["up2_w"], p["up2_b"], slope)
    return conv((h, h0), p["dec2_w"], p["dec2_b"], 1), p


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
    return read_input(path, "checkpoint", _checkpoint_from_bytes)


def _checkpoint_from_bytes(blob: bytes) -> tuple[dict[str, np.ndarray], UNetSpec, dict]:
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
    parts = np.split(values, np.cumsum(sizes)[:-1])
    params = {name: part.reshape(shape) for (name, shape), part in zip(shapes.items(), parts)}
    return params, spec, header

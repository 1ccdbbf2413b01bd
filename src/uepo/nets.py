"""Small multilayer perceptrons with hand-written backpropagation.

Everything operates on float64 numpy arrays. Hidden layers use tanh,
the output layer is linear. A net stores its parameters in one flat
vector in one canonical order -- layer by layer, weight matrix
(row-major) before bias vector -- with weights and biases as views into
it; optimizers update it in place, and checkpoint files hold it as is.

In a training loop the net's passes and its Adam steps make no new
arrays. The loop passes one :class:`Workspace` to
:func:`forward_activations` and :func:`backward`, which write each
step's activations, deltas, tanh derivatives and gradient into its
buffers. The next call that uses the workspace
overwrites them, so a workspace's arrays never leave their training
loop; a call without one makes a fresh workspace, so what it returns is
the caller's to keep. Adam (:func:`optimizer_step`) runs in place: it
updates the parameters and both moments through two scratch vectors that
its state holds.

Checkpoint layout (little-endian): magic ``b"UEPO"``, format version
u32, width count u32, the widths as u32 each, then the flat parameter
vector as raw f64. Round-trips are bit-exact.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NonFiniteError, ShapeError

CHECKPOINT_MAGIC = b"UEPO"
CHECKPOINT_VERSION = 1


@dataclass
class Mlp:
    """Fully-connected net; ``weights[l]`` has shape (widths[l+1], widths[l]).

    ``weights`` and ``biases`` are views into ``params``: write into it in
    place and copy a net through it, since ``deepcopy`` detaches views."""

    layer_widths: list[int]
    params: np.ndarray
    weights: list[np.ndarray] = field(init=False, repr=False)
    biases: list[np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        p = self.params
        if p.shape != (_n_params(self.layer_widths),) or p.dtype != float or not p.flags.c_contiguous:
            raise ShapeError(f"{p.dtype} {p.shape} parameters do not fit widths {self.layer_widths}")
        self.weights, self.biases = _layer_views(self.layer_widths, p)

    @property
    def in_width(self) -> int:
        return self.layer_widths[0]

    @property
    def out_width(self) -> int:
        return self.layer_widths[-1]


def _n_params(widths) -> int:
    return sum(i * o + o for i, o in zip(widths[:-1], widths[1:]))


def _layer_views(widths, flat: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per-layer weight and bias views into ``flat``, in canonical order."""
    weights, biases, pos = [], [], 0
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        weights.append(flat[pos : pos + fan_in * fan_out].reshape(fan_out, fan_in))
        pos += fan_in * fan_out
        biases.append(flat[pos : pos + fan_out])
        pos += fan_out
    return weights, biases


def mlp_init(layer_widths, rng: np.random.Generator) -> Mlp:
    """Build an MLP with uniform +-sqrt(6/(fan_in+fan_out)) weights, zero biases.

    ``layer_widths`` runs input -> hidden... -> output and needs at
    least two entries, all positive.
    """
    widths = [int(w) for w in layer_widths]
    if len(widths) < 2 or any(w <= 0 for w in widths):
        raise ConfigError(f"layer widths must be >= 2 positive entries, got {widths}")
    m = Mlp(widths, np.zeros(_n_params(widths)))
    for w in m.weights:
        bound = np.sqrt(6.0 / sum(w.shape))
        w[...] = rng.uniform(-bound, bound, size=w.shape)
    return m


def param_count(m: Mlp) -> int:
    return m.params.size


def get_params(m: Mlp) -> np.ndarray:
    """A copy of the flat parameter vector (canonical order)."""
    return m.params.copy()


def set_params(m: Mlp, flat: np.ndarray) -> None:
    """Inverse of :func:`get_params`; writes into the model's parameter vector."""
    if np.shape(flat) != m.params.shape:
        raise ShapeError(f"expected {m.params.size} parameters, got shape {np.shape(flat)}")
    m.params[...] = flat


class Workspace:
    """Buffers that :func:`forward_activations` and :func:`backward` write
    into, for batches of up to ``rows`` rows of one net: every layer's
    activations; the deltas and tanh derivatives of the hidden layers and
    one gradient vector. Each set is made by the first call that needs it.

    Each call that uses a workspace overwrites what the previous one left
    there, so its arrays never leave the training loop that owns it.
    """

    def __init__(self, m: Mlp, rows: int):
        if rows < 1:
            raise ConfigError(f"a workspace needs at least one row, got {rows}")
        self.rows = rows
        self.layer_widths = list(m.layer_widths)
        self.acts = self.deltas = self.derivs = None
        self.grad = self.grads_w = self.grads_b = None

    def _fit(self, m: Mlp, n: int) -> None:
        if self.layer_widths != m.layer_widths:
            raise ShapeError(f"workspace for widths {self.layer_widths} used with a "
                             f"{m.layer_widths} net")
        if n > self.rows:
            raise ShapeError(f"batch of {n} rows exceeds a {self.rows}-row workspace")

    def forward_buffers(self, m: Mlp, n: int) -> list[np.ndarray]:
        """Each layer's (n, width) output buffer."""
        self._fit(m, n)
        if self.acts is None:
            self.acts = [np.empty((self.rows, w)) for w in self.layer_widths[1:]]
        return [a[:n] for a in self.acts]

    def backward_buffers(self, m: Mlp, n: int) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Each hidden layer's (n, width) delta and derivative buffers; the
        gradient goes into ``grad`` through its views ``grads_w`` and ``grads_b``."""
        self._fit(m, n)
        if self.grad is None:
            hidden = self.layer_widths[1:-1]
            self.deltas = [np.empty((self.rows, w)) for w in hidden]
            self.derivs = [np.empty((self.rows, w)) for w in hidden]
            self.grad = np.empty_like(m.params)
            self.grads_w, self.grads_b = _layer_views(self.layer_widths, self.grad)
        return [d[:n] for d in self.deltas], [d[:n] for d in self.derivs]


def forward_activations(m: Mlp, x: np.ndarray, ws: Workspace | None = None) -> list[np.ndarray]:
    """Forward pass keeping every layer's post-activation values.

    ``x`` is one input vector or a (batch, in) matrix; the returned list
    always holds (batch, width) matrices, input first and net output
    last. It is what :func:`backward` consumes. Without ``ws`` the layers
    go into a fresh workspace, so the arrays are the caller's to keep.
    """
    x = np.asarray(x, dtype=float)
    h = x[None, :] if x.ndim == 1 else x
    if h.ndim != 2 or h.shape[1] != m.in_width:
        raise ShapeError(f"input width {x.shape} incompatible with net input {m.in_width}")
    if ws is None:
        ws = Workspace(m, h.shape[0])
    outs = ws.forward_buffers(m, h.shape[0])
    acts = [h]
    n_layers = len(m.weights)
    for l, (w, b) in enumerate(zip(m.weights, m.biases)):
        h = np.matmul(h, w.T, out=outs[l])
        h += b
        if l < n_layers - 1:
            np.tanh(h, out=h)
        acts.append(h)
    return acts


def forward(m: Mlp, x: np.ndarray, ws: Workspace | None = None) -> np.ndarray:
    """Evaluate the net. ``x`` is one input vector or a (batch, in) matrix.
    The output lives in ``ws`` when one is given, else in a fresh array."""
    out = forward_activations(m, x, ws)[-1]
    return out[0] if np.ndim(x) == 1 else out


def backward(m: Mlp, acts: list[np.ndarray], upstream: np.ndarray,
             ws: Workspace | None = None) -> np.ndarray:
    """Gradient of ``sum(upstream * output)`` with respect to the parameters.

    ``acts`` comes from :func:`forward_activations` at the current
    parameters, so the forward pass is not repeated. ``upstream`` matches
    its output, (batch, out), or is one vector for a batch of one; batch
    contributions are summed. Returns a flat vector in canonical
    parameter order: ``ws.grad`` when a workspace is given, else a fresh
    vector.
    """
    upstream = np.asarray(upstream, dtype=float)
    if upstream.ndim == 1:
        upstream = upstream[None, :]
    if upstream.shape != acts[-1].shape:
        raise ShapeError(
            f"upstream shape {upstream.shape} incompatible with net output {acts[-1].shape}"
        )
    if ws is None:
        ws = Workspace(m, upstream.shape[0])
    deltas, derivs = ws.backward_buffers(m, upstream.shape[0])
    delta = upstream
    for l in range(len(m.weights) - 1, -1, -1):
        np.matmul(delta.T, acts[l], out=ws.grads_w[l])
        delta.sum(axis=0, out=ws.grads_b[l])
        if l > 0:
            # acts[l] already holds tanh(z_l) for hidden layers
            deriv = np.square(acts[l], out=derivs[l - 1])
            np.subtract(1.0, deriv, out=deriv)
            delta = np.matmul(delta, m.weights[l], out=deltas[l - 1])
            delta *= deriv
    return ws.grad


@dataclass
class AdamState:
    """Bias-corrected adaptive-moment optimizer state for one parameter
    vector, with two scratch vectors of its size for the update."""

    first_moment: np.ndarray
    second_moment: np.ndarray
    step_count: int = 0
    step_size: float = 1e-3
    moment_decay_1: float = 0.9
    moment_decay_2: float = 0.999
    epsilon_stability: float = 1e-8
    scratch: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        self.scratch = (np.empty_like(self.first_moment), np.empty_like(self.first_moment))


def adam_init(n_params: int, step_size: float = 1e-3, moment_decay_1: float = 0.9,
              moment_decay_2: float = 0.999, epsilon_stability: float = 1e-8) -> AdamState:
    if step_size <= 0 or epsilon_stability <= 0:
        raise ConfigError("step_size and epsilon_stability must be positive")
    if not (0 <= moment_decay_1 < 1 and 0 <= moment_decay_2 < 1):
        raise ConfigError("moment decays must lie in [0, 1)")
    return AdamState(np.zeros(n_params), np.zeros(n_params), 0, step_size,
                     moment_decay_1, moment_decay_2, epsilon_stability)


def optimizer_step(state: AdamState, params: np.ndarray, grads: np.ndarray) -> np.ndarray:
    """One Adam update, applied in place on ``params`` (also returned).

    It evaluates the textbook expressions ``m = b1 m + (1 - b1) g``,
    ``v = b2 v + (1 - b2) g**2`` and ``params -= step_size * m_hat /
    (sqrt(v_hat) + eps)`` operation by operation in their order, but
    through the state's scratch vectors instead of fresh temporaries.
    """
    grads = np.asarray(grads, dtype=float)
    if params.shape != grads.shape or params.shape != state.first_moment.shape:
        raise ShapeError(
            f"params {params.shape}, grads {grads.shape} and moments "
            f"{state.first_moment.shape} must agree"
        )
    if not np.isfinite(grads).all():
        raise NonFiniteError("gradient contains non-finite components")
    state.step_count += 1
    b1, b2 = state.moment_decay_1, state.moment_decay_2
    m, v = state.first_moment, state.second_moment
    s1, s2 = state.scratch
    m *= b1
    np.multiply(1 - b1, grads, out=s1)
    m += s1
    v *= b2
    np.square(grads, out=s1)
    np.multiply(1 - b2, s1, out=s1)
    v += s1
    np.divide(m, 1 - b1**state.step_count, out=s1)
    np.multiply(state.step_size, s1, out=s1)
    np.divide(v, 1 - b2**state.step_count, out=s2)
    np.sqrt(s2, out=s2)
    s2 += state.epsilon_stability
    s1 /= s2
    params -= s1
    return params


def time_embedding(t: int, k: int, dim: int) -> np.ndarray:
    """Sinusoidal embedding of a diffusion-step index.

    Entry 2i is sin(t * w_i) and entry 2i+1 is cos(t * w_i) with
    w_i = 10000**(-2i/dim), so every entry lies in [-1, 1] and t = 0
    maps to alternating zeros and ones. ``k`` only bounds the valid
    range 0 <= t <= k.
    """
    if dim <= 0 or dim % 2 != 0:
        raise ConfigError(f"embedding dim must be even and positive, got {dim}")
    if not 0 <= t <= k:
        raise ConfigError(f"step index {t} outside [0, {k}]")
    half = dim // 2
    freqs = 10000.0 ** (-2.0 * np.arange(half) / dim)
    emb = np.empty(dim)
    emb[0::2] = np.sin(t * freqs)
    emb[1::2] = np.cos(t * freqs)
    return emb


# --- checkpoint i/o ---------------------------------------------------------


def atomic_write_bytes(path: str, data: bytes) -> None:
    """Write to a temp file in the target directory, then rename over ``path``."""
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "wb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def mlp_block_bytes(m: Mlp) -> bytes:
    n = len(m.layer_widths)
    return struct.pack(f"<{n + 1}I", n, *m.layer_widths) + m.params.astype("<f8").tobytes()


def read_mlp_block(buf: bytes, offset: int = 0) -> tuple[Mlp, int]:
    """Parse one MLP block from ``buf`` at ``offset``; returns (net, next offset)."""
    (n_widths,) = struct.unpack_from("<I", buf, offset)
    offset += 4
    widths = list(struct.unpack_from(f"<{n_widths}I", buf, offset))
    offset += 4 * n_widths
    n = _n_params(widths)
    flat = np.frombuffer(buf, dtype="<f8", count=n, offset=offset).astype(float)
    return Mlp(widths, flat), offset + 8 * n


def file_header() -> bytes:
    return CHECKPOINT_MAGIC + struct.pack("<I", CHECKPOINT_VERSION)


def check_file_header(buf: bytes) -> int:
    """Validate magic and version; returns the offset just past the header."""
    if buf[:4] != CHECKPOINT_MAGIC:
        raise ConfigError("not a UEPO checkpoint (bad magic)")
    (version,) = struct.unpack_from("<I", buf, 4)
    if version != CHECKPOINT_VERSION:
        raise ConfigError(f"unsupported checkpoint version {version}")
    return 8


def save_mlp(m: Mlp, path: str) -> None:
    atomic_write_bytes(path, file_header() + mlp_block_bytes(m))


def read_checkpoint(path: str) -> tuple[Mlp, int, bytes]:
    """(net, offset past it, file bytes) of a checkpoint file, header checked.
    A bad header or a file cut short raises ConfigError naming the path."""
    with open(path, "rb") as fh:
        buf = fh.read()
    try:
        return (*read_mlp_block(buf, check_file_header(buf)), buf)
    except (struct.error, ValueError) as exc:  # ValueError includes ConfigError
        raise ConfigError(f"{path}: {exc}") from exc


def load_mlp(path: str) -> Mlp:
    m, offset, buf = read_checkpoint(path)
    if offset != len(buf):
        raise ConfigError(f"{path}: {len(buf) - offset} trailing bytes")
    return m

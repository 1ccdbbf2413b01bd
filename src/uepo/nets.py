"""Small multilayer perceptrons with hand-written backpropagation.

Everything operates on float64 numpy arrays. Hidden layers use tanh,
the output layer is linear. A net stores its parameters in one flat
vector in one canonical order -- layer by layer, weight matrix
(row-major) before bias vector -- with weights and biases as views into
it; optimizers update it in place, and checkpoint files hold it as is.

In a training loop the net's passes and its Adam steps make no new
arrays once the loop's largest batch has been seen. The loop passes one
:class:`Workspace` to :func:`forward_activations` and :func:`backward`,
which write each step's activations, deltas, tanh derivatives and
gradient into its buffers; the workspace sizes them from the batches it
is handed. The next call that uses the workspace overwrites them, so a
workspace's arrays never leave their training loop; a call without one
makes a fresh workspace, so what it returns is the caller's to keep.
Adam (:func:`optimizer_step`) runs in place: it updates the parameters
and both moments through two scratch vectors that its state holds.

Checkpoints are written by :func:`save_checkpoint` and read by
:func:`load_checkpoint` alone. The layout (little-endian): magic
``b"UEPO"``, format version u32, width count u32, the widths as u32
each, the flat parameter vector as raw f64, then the owner's fields in
order, each integer as one u32 and each vector as raw f64:

- a bare net: no fields;
- policy (``diffusion.save_policy``): k, beta (k values), T, d_a, d_s;
- dynamics (``dynamics.save_dynamics``): d_s, d_a;
- head (``finetune.save_head``): d_a, log_std, action_low and
  action_high (d_a values each).

Round-trips are bit-exact, and a load refuses a NaN or infinity.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NonFiniteError, ShapeError, require

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
        if len(self.layer_widths) < 2 or any(w <= 0 for w in self.layer_widths):
            raise ConfigError(f"layer widths must be >= 2 positive entries, "
                              f"got {self.layer_widths}")
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
    # Mlp checks the widths; a negative one must not fail first in np.zeros
    m = Mlp(widths, np.zeros(max(_n_params(widths), 0)))
    for w in m.weights:
        bound = np.sqrt(6.0 / sum(w.shape))
        w[...] = rng.uniform(-bound, bound, size=w.shape)
    return m


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
    into, for batches of one net: every layer's activations; the deltas and
    tanh derivatives of the hidden layers and one gradient vector. Each set
    is made by the first call that needs it, with as many rows as the
    largest batch handed in so far, and made again for a larger batch.

    Each call that uses a workspace overwrites what the previous one left
    there, so its arrays never leave the training loop that owns it.
    """

    def __init__(self, m: Mlp):
        self.rows = 0
        self.layer_widths = list(m.layer_widths)
        self.acts = self.deltas = self.derivs = None
        self.grad = self.grads_w = self.grads_b = None

    def _fit(self, m: Mlp, n: int) -> None:
        if self.layer_widths != m.layer_widths:
            raise ShapeError(f"workspace for widths {self.layer_widths} used with a "
                             f"{m.layer_widths} net")
        if n > self.rows:
            self.rows, self.acts, self.grad = n, None, None

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
    outs = (ws or Workspace(m)).forward_buffers(m, h.shape[0])
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
    ws = ws or Workspace(m)
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


# Adam's moment decays and the stability term added to sqrt(v_hat)
MOMENT_DECAY_1 = 0.9
MOMENT_DECAY_2 = 0.999
EPSILON_STABILITY = 1e-8


@dataclass
class AdamState:
    """Bias-corrected adaptive-moment optimizer state for one parameter
    vector, with two scratch vectors of its size for the update."""

    first_moment: np.ndarray
    second_moment: np.ndarray
    step_count: int
    step_size: float
    scratch: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        self.scratch = (np.empty_like(self.first_moment), np.empty_like(self.first_moment))


def adam_init(n_params: int, step_size: float = 1e-3) -> AdamState:
    require("step_size", step_size, "> 0")
    return AdamState(np.zeros(n_params), np.zeros(n_params), 0, step_size)


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
    b1, b2 = MOMENT_DECAY_1, MOMENT_DECAY_2
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
    s2 += EPSILON_STABILITY
    s1 /= s2
    params -= s1
    return params


def train_epochs(params: np.ndarray, x: np.ndarray, y: np.ndarray, grad, epochs: int,
                 batch_size: int, step_size: float, rng: np.random.Generator):
    """Shuffled-minibatch Adam on ``params``, in place: each epoch gathers the rows of
    ``x`` and ``y`` in one ``rng.permutation``'s order into two buffers and steps with
    ``grad(x_slice, y_slice)`` once per ``batch_size`` slice. The counts and the pairing
    of the rows are checked at the call; the returned iterator yields each epoch's number
    (1 to ``epochs``) after it."""
    require("epochs", epochs, "> 0")
    require("batch_size", batch_size, "> 0")
    if len(x) != len(y):
        raise ShapeError(f"{len(x)} input rows for {len(y)} target rows")
    opt, x_shuf, y_shuf = adam_init(params.size, step_size), np.empty_like(x), np.empty_like(y)

    def run():
        for epoch in range(1, epochs + 1):
            order = rng.permutation(len(x))
            np.take(x, order, axis=0, out=x_shuf)
            np.take(y, order, axis=0, out=y_shuf)
            for lo in range(0, len(x), batch_size):
                optimizer_step(opt, params, grad(x_shuf[lo:lo + batch_size],
                                                 y_shuf[lo:lo + batch_size]))
            yield epoch
    return run()


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


def save_checkpoint(path: str, net: Mlp, *fields) -> None:
    """Write the header, ``net``'s block, then each field in order: an
    array as its f64 values, anything else as one u32."""
    w = net.layer_widths
    parts = [CHECKPOINT_MAGIC, struct.pack(f"<{len(w) + 2}I", CHECKPOINT_VERSION, len(w), *w),
             net.params.astype("<f8").tobytes()]
    for f in fields:
        parts.append(f.astype("<f8").tobytes() if isinstance(f, np.ndarray)
                     else struct.pack("<I", f))
    atomic_write_bytes(path, b"".join(parts))


def load_checkpoint(path: str, parse):
    """Read the header and net of a checkpoint and return ``parse(net, ints,
    floats)``, where ``ints(n)`` reads the owner's next n u32 fields as a
    list and ``floats(n)`` its next n f64 values as a vector.

    A bad header, a file cut short anywhere, a NaN or infinity among the
    f64 values, bytes left after ``parse`` and any ValueError that
    ``parse`` raises become a ConfigError naming the path.
    """
    with open(path, "rb") as fh:
        buf = fh.read()
    pos = len(CHECKPOINT_MAGIC)

    def take(n: int, dtype: str) -> np.ndarray:
        nonlocal pos
        end = pos + n * np.dtype(dtype).itemsize
        if end > len(buf):
            raise ConfigError(f"cut short: {end - pos} bytes wanted at byte {pos} "
                              f"of {len(buf)}")
        out, pos = np.frombuffer(buf, dtype, n, pos), end
        return out

    def ints(n: int) -> list[int]:
        return take(n, "<u4").tolist()

    def floats(n: int) -> np.ndarray:
        out = take(n, "<f8").astype(float)
        if not np.isfinite(out).all():
            raise ConfigError("a non-finite number (NaN or infinity)")
        return out

    try:
        if buf[:4] != CHECKPOINT_MAGIC:
            raise ConfigError("not a UEPO checkpoint (bad magic)")
        (version,) = ints(1)
        if version != CHECKPOINT_VERSION:
            raise ConfigError(f"unsupported checkpoint version {version}")
        widths = ints(ints(1)[0])
        out = parse(Mlp(widths, floats(_n_params(widths))), ints, floats)
        if pos != len(buf):
            raise ConfigError(f"{len(buf) - pos} trailing bytes")
    except ValueError as exc:  # includes ConfigError and ShapeError
        raise ConfigError(f"{path}: {exc}") from exc
    return out

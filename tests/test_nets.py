import ast
import os
import struct
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest

import oracles
from uepo import diffusion, dynamics, finetune, nets
from uepo.errors import ConfigError, NonFiniteError, ShapeError


def fd_gradient(f, params, h=1e-6):
    """Central finite differences of a scalar function of a flat vector."""
    g = np.zeros_like(params)
    for i in range(params.size):
        p = params.copy()
        p[i] += h
        up = f(p)
        p[i] -= 2 * h
        down = f(p)
        g[i] = (up - down) / (2 * h)
    return g


def test_forward_shapes_and_single_vs_batch():
    rng = np.random.default_rng(0)
    m = nets.mlp_init([3, 5, 2], rng)
    x = rng.standard_normal(3)
    single = nets.forward(m, x)
    batch = nets.forward(m, np.stack([x, x]))
    assert single.shape == (2,)
    assert batch.shape == (2, 2)
    # matmul kernels differ between batch shapes, so only near-equality holds
    assert np.allclose(batch[0], single, atol=1e-14)
    assert np.allclose(batch[1], single, atol=1e-14)


def test_forward_rejects_wrong_width():
    m = nets.mlp_init([3, 4, 2], np.random.default_rng(0))
    with pytest.raises(ShapeError):
        nets.forward(m, np.zeros(5))


def test_param_round_trip_and_copy():
    rng = np.random.default_rng(1)
    m = nets.mlp_init([4, 6, 3], rng)
    flat = nets.get_params(m)
    assert flat.size == m.params.size
    flat[0] += 100.0
    # get_params hands back a copy, so the net must be untouched
    assert nets.get_params(m)[0] != flat[0]
    nets.set_params(m, flat)
    assert nets.get_params(m)[0] == flat[0]


def test_adam_step_on_params_updates_the_net(tmp_path):
    # the weight and bias arrays are views into params, so an in-place
    # update of params is what forward sees, with no copy back
    rng = np.random.default_rng(8)
    built = nets.mlp_init([3, 5, 2], rng)
    path = str(tmp_path / "net.bin")
    nets.save_checkpoint(path, built)
    x = rng.standard_normal((4, 3))
    for m in (built, nets.load_checkpoint(path, _bare_net)):
        before = nets.forward(m, x)
        g = rng.standard_normal(m.params.size)
        nets.optimizer_step(nets.adam_init(g.size, step_size=0.1), m.params, g)
        assert not np.array_equal(nets.forward(m, x), before)
        fresh = nets.mlp_init([3, 5, 2], np.random.default_rng(0))
        nets.set_params(fresh, m.params)
        assert np.array_equal(nets.forward(m, x), nets.forward(fresh, x))


def test_mlp_rejects_a_buffer_it_cannot_view():
    # [2, 3] holds 9 parameters; a strided vector would detach the views
    for bad in (np.zeros(8), np.zeros(9, dtype=np.float32), np.zeros(18)[::2]):
        with pytest.raises(ShapeError):
            nets.Mlp([2, 3], bad)


def test_set_params_rejects_wrong_size():
    m = nets.mlp_init([2, 3, 1], np.random.default_rng(2))
    with pytest.raises(ShapeError):
        nets.set_params(m, np.zeros(m.params.size + 1))


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(3)
    m = nets.mlp_init([3, 5, 4, 2], rng)
    x = rng.standard_normal((6, 3))
    upstream = rng.standard_normal((6, 2))
    analytic = nets.backward(m, nets.forward_activations(m, x), upstream)

    base = nets.get_params(m)

    def loss(p):
        nets.set_params(m, p)
        out = nets.forward(m, x)
        return float(np.sum(upstream * out))

    numeric = fd_gradient(loss, base)
    nets.set_params(m, base)
    denom = np.maximum(np.abs(numeric), 1e-8)
    assert np.max(np.abs(analytic - numeric) / denom) < 1e-5


def test_backward_sums_batch_contributions():
    rng = np.random.default_rng(4)
    m = nets.mlp_init([2, 4, 1], rng)
    xs = rng.standard_normal((3, 2))
    ups = rng.standard_normal((3, 1))
    whole = nets.backward(m, nets.forward_activations(m, xs), ups)
    parts = sum(nets.backward(m, nets.forward_activations(m, xs[i]), ups[i])
                for i in range(3))
    assert np.allclose(whole, parts, atol=1e-12)


def test_forward_activations_end_in_forward_output():
    rng = np.random.default_rng(4)
    m = nets.mlp_init([2, 4, 3, 1], rng)
    xs = rng.standard_normal((5, 2))
    acts = nets.forward_activations(m, xs)
    assert [a.shape for a in acts] == [(5, 2), (5, 4), (5, 3), (5, 1)]
    assert np.array_equal(acts[-1], nets.forward(m, xs))
    single = nets.forward_activations(m, xs[0])
    assert single[0].shape == (1, 2)
    assert np.array_equal(single[-1][0], nets.forward(m, xs[0]))


def test_backward_rejects_mismatched_upstream():
    rng = np.random.default_rng(4)
    m = nets.mlp_init([2, 4, 1], rng)
    acts = nets.forward_activations(m, rng.standard_normal((3, 2)))
    with pytest.raises(ShapeError):
        nets.backward(m, acts, np.zeros((2, 1)))


def test_adam_first_step_oracle():
    # after one step: m_hat = g, v_hat = g^2, so the update is
    # step_size * g / (|g| + eps) regardless of the gradient scale
    g = np.array([0.5, -2.0, 1e-3])
    params = np.zeros(3)
    state = nets.adam_init(3, step_size=0.1)
    nets.optimizer_step(state, params, g)
    expected = -0.1 * g / (np.abs(g) + 1e-8)
    assert np.allclose(params, expected, rtol=0, atol=1e-15)
    assert state.step_count == 1


def test_adam_matches_textbook_oracle_over_many_steps():
    # gradients of changing scale and sign, with exact zeros, so the
    # moments and the bias corrections are exercised over 60 steps
    rng = np.random.default_rng(12)
    n = 200
    start = rng.standard_normal(n)
    grads = [rng.standard_normal(n) * 10.0 ** rng.uniform(-6, 3, size=n)
             * (rng.random(n) > 0.1) for _ in range(60)]
    params = start.copy()
    state = nets.adam_init(n, step_size=3e-3)
    for g in grads:
        nets.optimizer_step(state, params, g)
    want, m, v = oracles.adam(start, grads, step_size=3e-3)
    assert np.array_equal(params, want)
    assert np.array_equal(state.first_moment, m)
    assert np.array_equal(state.second_moment, v)
    assert state.step_count == 60


def test_train_epochs_shuffles_slices_and_steps_adam():
    # 7 rows in slices of 3: each epoch is one permutation gathered into
    # minibatches of 3, 3 and 1 rows, one Adam step per minibatch
    rng = np.random.default_rng(3)
    x, y = rng.standard_normal((7, 2)), rng.standard_normal((7, 1))
    start = rng.standard_normal(3)
    params, seen, grads = start.copy(), [], []

    def grad(xb, yb):
        seen.append(np.hstack([xb, yb]))
        grads.append(np.array([xb.sum(), yb.sum(), len(xb) + params[0]]))
        return grads[-1]
    with pytest.raises(ConfigError, match="^epochs must be > 0, got 0$"):
        nets.train_epochs(params, x, y, grad, 0, 3, 1e-2, rng)
    with pytest.raises(ConfigError, match="^batch_size must be > 0, got 0$"):
        nets.train_epochs(params, x, y, grad, 3, 0, 1e-2, rng)
    shuffle, twin = np.random.default_rng(9), np.random.default_rng(9)
    run = nets.train_epochs(params, x, y, grad, 3, 3, 1e-2, shuffle)
    # nothing is drawn or stepped before the first epoch is asked for
    assert np.array_equal(params, start) and not seen
    assert list(run) == [1, 2, 3]
    assert [len(b) for b in seen] == [3, 3, 1] * 3
    for epoch in range(3):
        order = twin.permutation(7)
        assert np.array_equal(np.vstack(seen[3 * epoch: 3 * epoch + 3]),
                              np.hstack([x, y])[order])
    want, _, _ = oracles.adam(start, grads, step_size=1e-2)
    assert np.array_equal(params, want)


def test_train_epochs_refuses_unpaired_rows():
    # once a numpy error from np.take on the first epoch
    rng = np.random.default_rng(4)
    params = np.zeros(3)
    state = rng.bit_generator.state
    with pytest.raises(ShapeError, match="^7 input rows for 6 target rows$"):
        nets.train_epochs(params, np.zeros((7, 2)), np.zeros((6, 1)), None, 3, 3, 1e-2, rng)
    assert rng.bit_generator.state == state and not params.any()


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_warm_adam_step_allocates_less_than_one_parameter_vector():
    rng = np.random.default_rng(13)
    params, grads = rng.standard_normal(50_000), rng.standard_normal(50_000)
    state = nets.adam_init(params.size)
    nets.optimizer_step(state, params, grads)
    assert _peak_bytes(lambda: nets.optimizer_step(state, params, grads)) < params.nbytes


def test_warm_workspace_pass_allocates_less_than_one_parameter_vector():
    rng = np.random.default_rng(14)
    m = nets.mlp_init([16, 128, 128, 16], rng)
    assert m.params.size >= 20_000
    x, up = rng.standard_normal((256, 16)), rng.standard_normal((256, 16))
    ws = nets.Workspace(m)

    def step():
        nets.backward(m, nets.forward_activations(m, x, ws), up, ws)

    step()
    assert _peak_bytes(step) < m.params.nbytes


def test_workspace_gives_fresh_call_results_and_short_batches():
    # an epoch's short last minibatch uses the first rows of the buffers;
    # a growing sequence makes them again at each larger batch
    rng = np.random.default_rng(15)
    m = nets.mlp_init([3, 7, 5, 2], rng)
    for sizes in ((8, 5, 1, 8), (1, 2, 5, 3, 8)):
        ws = nets.Workspace(m)
        for n in sizes:
            x, up = rng.standard_normal((n, 3)), rng.standard_normal((n, 2))
            fresh = nets.forward_activations(m, x)
            acts = nets.forward_activations(m, x, ws)
            assert all(np.array_equal(a, b) for a, b in zip(acts, fresh))
            assert np.array_equal(nets.forward(m, x, ws), nets.forward(m, x))
            grad = nets.backward(m, acts, up, ws)
            assert grad is ws.grad
            assert np.array_equal(grad, nets.backward(m, fresh, up))


def test_workspace_grows_for_a_larger_batch_and_rejects_another_net():
    rng = np.random.default_rng(16)
    m = nets.mlp_init([3, 4, 2], rng)
    ws = nets.Workspace(m)
    acts = nets.forward_activations(m, rng.standard_normal((4, 3)), ws)
    assert [a.shape for a in ws.acts] == [(4, 4), (4, 2)]
    big = nets.forward_activations(m, rng.standard_normal((5, 3)), ws)
    assert [a.shape for a in ws.acts] == [(5, 4), (5, 2)]
    # the smaller batch's arrays are left as they were
    assert acts[-1].shape == (4, 2) and not np.shares_memory(acts[-1], big[-1])
    nets.backward(m, big, np.zeros((5, 2)), ws)
    assert [d.shape for d in ws.deltas] == [(5, 4)]
    held = ws.acts
    nets.backward(m, nets.forward_activations(m, big[0][:3], ws), np.zeros((3, 2)), ws)
    assert ws.acts is held and ws.rows == 5
    with pytest.raises(ShapeError):
        nets.forward_activations(nets.mlp_init([3, 5, 2], rng), acts[0], ws)


def test_forward_without_workspace_returns_arrays_no_later_call_overwrites():
    rng = np.random.default_rng(17)
    m = nets.mlp_init([3, 6, 2], rng)
    ws = nets.Workspace(m)
    x = rng.standard_normal((4, 3))
    out, acts = nets.forward(m, x), nets.forward_activations(m, x)
    kept = [out.copy()] + [a.copy() for a in acts]
    for y in (rng.standard_normal((4, 3)), rng.standard_normal((1, 3))):
        nets.forward(m, y)
        nets.backward(m, nets.forward_activations(m, y, ws), np.ones((len(y), 2)), ws)
    assert all(np.array_equal(a, b) for a, b in zip(kept, [out] + acts))


def test_adam_rejects_non_finite_gradient():
    state = nets.adam_init(2)
    with pytest.raises(NonFiniteError):
        nets.optimizer_step(state, np.zeros(2), np.array([1.0, np.nan]))


def test_adam_step_is_in_place():
    params = np.ones(2)
    out = nets.optimizer_step(nets.adam_init(2), params, np.ones(2))
    assert out is params


def test_time_embedding_at_zero_and_range():
    emb = nets.time_embedding(0, 10, 8)
    assert np.array_equal(emb[0::2], np.zeros(4))
    assert np.array_equal(emb[1::2], np.ones(4))
    for t in range(11):
        e = nets.time_embedding(t, 10, 8)
        assert np.all(np.abs(e) <= 1.0)


def test_time_embedding_validation():
    with pytest.raises(ConfigError):
        nets.time_embedding(0, 10, 7)
    with pytest.raises(ConfigError):
        nets.time_embedding(11, 10, 8)


def _bare_net(net, ints, floats):
    return net


def test_mlp_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    m = nets.mlp_init([3, 7, 2], rng)
    path = str(tmp_path / "net.bin")
    nets.save_checkpoint(path, m)
    back = nets.load_checkpoint(path, _bare_net)
    assert back.layer_widths == m.layer_widths
    assert np.array_equal(nets.get_params(back), nets.get_params(m))


@dataclass(frozen=True)
class Kind:
    """How to build, save and load one kind of checkpoint, and its bytes as
    the oracle packs them."""

    build: object
    save: object
    load: object
    net: object
    oracle: object


KINDS = {
    "net": Kind(lambda rng: nets.mlp_init([3, 5, 2], rng),
                lambda net, path: nets.save_checkpoint(path, net),
                lambda path: nets.load_checkpoint(path, _bare_net),
                lambda net: net, oracles.net_checkpoint),
    "policy": Kind(lambda rng: diffusion.make_policy(
                       3, 2, 2, [6], rng, schedule=diffusion.make_linear_schedule(4, 1e-4, 0.2),
                       action_low=-1.0, action_high=1.0),
                   diffusion.save_policy, lambda path: diffusion.load_policy(path, -1.0, 1.0),
                   lambda policy: policy.denoiser, oracles.policy_checkpoint),
    "dynamics": Kind(lambda rng: dynamics.make_dynamics(3, 2, [7], rng),
                     dynamics.save_dynamics, dynamics.load_dynamics,
                     lambda model: model.net, oracles.dynamics_checkpoint),
    "head": Kind(lambda rng: finetune.make_head(3, 2, [6], rng, -1.5, 0.5),
                 lambda head, path: finetune.save_head(path, head), finetune.load_head,
                 lambda head: head.net, oracles.head_checkpoint),
}


def _saved(kind, tmp_path):
    """(object, its checkpoint path, the file's bytes, the offset past its net)."""
    obj = KINDS[kind].build(np.random.default_rng(7))
    path = tmp_path / f"{kind}.bin"
    KINDS[kind].save(obj, str(path))
    return obj, path, path.read_bytes(), len(oracles.net_checkpoint(KINDS[kind].net(obj)))


@pytest.mark.parametrize("kind", KINDS)
def test_checkpoint_bytes_follow_the_documented_layout(tmp_path, kind):
    obj, _, buf, _ = _saved(kind, tmp_path)
    assert buf == KINDS[kind].oracle(obj)


def _u32_at(offset, delta):
    def spoil(buf, net_end):
        pos = offset(buf, net_end)
        (value,) = struct.unpack_from("<I", buf, pos)
        return buf[:pos] + struct.pack("<I", value + delta) + buf[pos + 4:]
    return spoil


def _u32_set(pos, value):
    def spoil(buf, net_end):
        return buf[:pos] + struct.pack("<I", value) + buf[pos + 4:]
    return spoil


SPOILS = {
    "bad-magic": (lambda buf, net_end: b"XXXX" + buf[4:], "bad magic"),
    "bad-version": (_u32_at(lambda buf, net_end: 4, 1), "unsupported checkpoint version 2"),
    "cut-header": (lambda buf, net_end: buf[:6], "cut short"),
    "cut-net": (lambda buf, net_end: buf[:net_end - 3], "cut short"),
    "cut-fields": (lambda buf, net_end: buf[:-4], "cut short"),
    "extra-byte": (lambda buf, net_end: buf + b"\x00", "1 trailing bytes"),
    # the width count sits at byte 8 and the first hidden width at byte 16
    "no-widths": (_u32_set(8, 0), "layer widths must be >= 2 positive entries, got []"),
    "one-width": (_u32_set(8, 1), "layer widths must be >= 2 positive entries"),
    "zero-hidden-width": (_u32_set(16, 0), "layer widths must be >= 2 positive entries"),
}
# a trailer field that contradicts the net it follows
CONTRADICTIONS = {
    "policy": (_u32_at(lambda buf, net_end: len(buf) - 12, 1), "T=4"),
    "dynamics": (_u32_at(lambda buf, net_end: len(buf) - 8, -1), "d_s=2"),
    "head": (_u32_at(lambda buf, net_end: net_end, 1), "stored d_a 3"),
}


@pytest.mark.parametrize("kind, spoil, detail", [
    *[pytest.param(kind, *SPOILS[name], id=f"{kind}-{name}") for kind in KINDS
      for name in SPOILS if not (kind == "net" and name == "cut-fields")],
    *[pytest.param(kind, *CONTRADICTIONS[kind], id=f"{kind}-contradiction")
      for kind in CONTRADICTIONS],
])
def test_malformed_checkpoint_is_config_error_naming_it(tmp_path, kind, spoil, detail):
    _, path, buf, net_end = _saved(kind, tmp_path)
    path.write_bytes(spoil(buf, net_end))
    with pytest.raises(ConfigError) as info:
        KINDS[kind].load(str(path))
    assert str(path) in str(info.value) and detail in str(info.value), info.value


def test_only_nets_knows_the_checkpoint_layout():
    # every other module reads and writes checkpoints through nets alone
    src = os.path.dirname(nets.__file__)
    importers = []
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as fh:
                tree = ast.parse(fh.read())
            for node in ast.walk(tree):
                if (isinstance(node, ast.Import) and any(a.name == "struct" for a in node.names)
                        or isinstance(node, ast.ImportFrom) and node.module == "struct"):
                    importers.append(name)
    assert importers == ["nets.py"]


def test_atomic_write_leaves_no_temp_files(tmp_path):
    path = tmp_path / "data.bin"
    nets.atomic_write_bytes(str(path), b"hello")
    assert path.read_bytes() == b"hello"
    assert [p.name for p in tmp_path.iterdir()] == ["data.bin"]


def test_mlp_init_validation():
    rng = np.random.default_rng(7)
    with pytest.raises(ConfigError):
        nets.mlp_init([3], rng)
    with pytest.raises(ConfigError):
        nets.mlp_init([3, 0, 2], rng)
    with pytest.raises(ConfigError):
        nets.mlp_init([2, -3], rng)
    with pytest.raises(ConfigError):
        nets.Mlp([3], np.zeros(0))

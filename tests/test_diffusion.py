import re

import numpy as np
import pytest

import oracles
from uepo import diffusion, divergence, nets
from uepo.datasets import Trajectory, TrajectoryDataset
from uepo.errors import ConfigError, EmptyBatchError, ShapeError


def tiny_policy(rng, T=3, d_a=1, d_s=1, k=4, hidden=(8,)):
    sched = diffusion.make_linear_schedule(k, 1e-4, 0.2)
    return diffusion.make_policy(T, d_a, d_s, hidden, rng, schedule=sched,
                                 action_low=-1.0, action_high=1.0)


def chain_dataset(rng, lengths, d_s=2, d_a=1):
    """Trajectories with consistent state chains and recognizable actions."""
    trajs = []
    for li, length in enumerate(lengths):
        states = rng.standard_normal((length + 1, d_s))
        actions = np.full((length, d_a), float(li)) + 0.01 * np.arange(length)[:, None]
        trajs.append(Trajectory(states[:-1], actions, states[1:], None, seed=li))
    return TrajectoryDataset(trajs, {"env": "test", "d_s": d_s, "d_a": d_a})


def test_linear_schedule_oracle():
    sched = diffusion.make_linear_schedule(5, 1e-4, 0.02)
    assert sched.k == 5
    assert np.allclose(sched.beta, np.linspace(1e-4, 0.02, 5), atol=1e-15)
    assert np.array_equal(sched.alpha, 1.0 - sched.beta)
    # cumulative product recomputed with an explicit loop
    prod = 1.0
    for t in range(5):
        prod *= 1.0 - sched.beta[t]
        assert sched.alpha_bar[t] == pytest.approx(prod, rel=1e-14)


def test_schedule_validation():
    with pytest.raises(ConfigError):
        diffusion.make_linear_schedule(0)
    with pytest.raises(ConfigError):
        diffusion.make_linear_schedule(5, 0.02, 1e-4)
    with pytest.raises(ConfigError):
        diffusion.make_linear_schedule(5, 0.0, 0.02)
    with pytest.raises(ConfigError):
        diffusion.make_linear_schedule(5, 1e-4, 1.0)


def test_linear_schedule_wants_beta_min_below_beta_max():
    with pytest.raises(ConfigError, match=re.escape("beta_min must lie in (0, beta_max = 0.1)")):
        diffusion.make_linear_schedule(5, 0.1, 0.1)


def _seen_rows(monkeypatch, name):
    # every input row the denoiser is given through nets.<name>
    seen = []
    real = getattr(nets, name)
    monkeypatch.setattr(nets, name, lambda m, x, *rest: seen.append(x.copy()) or real(m, x, *rest))
    return seen


def _rows(policy, a_t, anchors, t):
    # each row is [flattened actions | anchor tiled T times | embedding],
    # built row by row with np.tile, independently of the library
    emb = nets.time_embedding(t, policy.schedule.k, diffusion.EMB_DIM)
    return np.stack([np.concatenate([a.ravel(), np.tile(s0, policy.T), emb])
                     for a, s0 in zip(a_t, anchors)])


def test_reverse_step_input_layout(monkeypatch):
    rng = np.random.default_rng(1)
    policy = tiny_policy(rng, T=3, d_a=2, d_s=2)
    a_t = rng.standard_normal((2, 3, 2))
    anchors = rng.standard_normal((2, 2))
    t = 2
    seen = _seen_rows(monkeypatch, "forward")
    diffusion.reverse_step(policy, a_t, anchors, t, np.zeros_like(a_t))
    assert len(seen) == 1 and np.allclose(seen[0], _rows(policy, a_t, anchors, t), atol=1e-14)
    # the embedding table would wrap a negative index silently
    for bad in (-1, policy.schedule.k):
        with pytest.raises(ConfigError):
            diffusion.reverse_step(policy, a_t, anchors, bad, np.zeros_like(a_t))


def test_denoising_loss_feeds_the_reverse_step_row(monkeypatch):
    # training and sampling give the denoiser the same row for the same
    # (noisy actions, anchor, t)
    rng = np.random.default_rng(18)
    policy = tiny_policy(rng, T=3, d_a=2, d_s=2)
    anchors = rng.standard_normal((4, 2))
    actions = rng.standard_normal((4, 3, 2))
    trained = _seen_rows(monkeypatch, "forward_activations")
    diffusion.denoising_loss(policy, anchors, actions, np.random.default_rng(5))
    sampled = _seen_rows(monkeypatch, "forward")
    draws = np.random.default_rng(5)
    t_idx = draws.integers(0, policy.schedule.k, size=4)
    eps = draws.standard_normal(actions.shape)
    for b, t in enumerate(t_idx):
        noisy = oracles.q_sample(actions[b], t, eps[b], policy.schedule)
        diffusion.reverse_step(policy, noisy[None], anchors[b:b + 1], t, np.zeros((1, 3, 2)))
        assert np.array_equal(sampled[-1][0], trained[0][b])


@pytest.mark.parametrize("fn", ["reverse_step", "denoising_loss"])
def test_window_stack_is_not_an_anchor_stack(fn):
    policy = tiny_policy(np.random.default_rng(19), T=3, d_a=1, d_s=2)
    a = np.zeros((4, 3, 1))
    windows = np.zeros((4, 3, 2))
    calls = {
        "reverse_step": lambda: diffusion.reverse_step(policy, a, windows, 1, a),
        "denoising_loss": lambda: diffusion.denoising_loss(policy, windows, a,
                                                           np.random.default_rng(0)),
    }
    with pytest.raises(ShapeError):
        calls[fn]()
    # a sequence stack that does not match its anchors is refused too
    with pytest.raises(ShapeError):
        diffusion.reverse_step(policy, a[:3], windows[:, 0], 1, a[:3])


def test_reverse_step_formula():
    rng = np.random.default_rng(2)
    policy = tiny_policy(rng)
    a_t = rng.standard_normal((2, 3, 1))
    s = rng.standard_normal((2, 1))
    for t in range(policy.schedule.k):
        eps = nets.forward(policy.denoiser, _rows(policy, a_t, s, t)).reshape(a_t.shape)
        beta = policy.schedule.beta[t]
        want = (a_t - beta / np.sqrt(1.0 - policy.schedule.alpha_bar[t]) * eps)
        want /= np.sqrt(policy.schedule.alpha[t])
        assert np.allclose(diffusion.reverse_step(policy, a_t, s, t, np.zeros_like(a_t)),
                           want, atol=1e-13)


def test_reverse_step_noise_injection():
    rng = np.random.default_rng(3)
    policy = tiny_policy(rng)
    a_t = rng.standard_normal((2, 3, 1))
    s = rng.standard_normal((2, 1))
    mean = diffusion.reverse_step(policy, a_t, s, 2, np.zeros_like(a_t))
    z = np.random.default_rng(11).standard_normal((2, 3, 1))
    want = mean + np.sqrt(policy.schedule.beta[2]) * z
    got = diffusion.reverse_step(policy, a_t, s, 2, z)
    assert np.allclose(got, want, atol=1e-14)
    with pytest.raises(ShapeError):
        diffusion.reverse_step(policy, a_t, s, 2, z[:, :2])
    # the last step is the posterior mean and takes no noise
    got0 = diffusion.reverse_step(policy, a_t, s, 0, None)
    assert np.array_equal(got0, diffusion.reverse_step(policy, a_t, s, 0, z))


def test_denoising_loss_gradient_matches_fd():
    rng = np.random.default_rng(4)
    policy = tiny_policy(rng, T=3, d_a=1, d_s=1, k=4, hidden=(6,))
    anchors = rng.standard_normal((5, 1))
    actions = rng.standard_normal((5, 3, 1))
    base = nets.get_params(policy.denoiser)
    _, analytic = diffusion.denoising_loss(policy, anchors, actions,
                                           np.random.default_rng(99))

    def loss_at(p):
        nets.set_params(policy.denoiser, p)
        val, _ = diffusion.denoising_loss(policy, anchors, actions,
                                          np.random.default_rng(99))
        return val

    h = 1e-6
    numeric = np.zeros_like(base)
    for i in range(base.size):
        p = base.copy()
        p[i] += h
        up = loss_at(p)
        p[i] -= 2 * h
        numeric[i] = (up - loss_at(p)) / (2 * h)
    nets.set_params(policy.denoiser, base)
    denom = np.maximum(np.abs(numeric), 1e-8)
    assert np.max(np.abs(analytic - numeric) / denom) < 1e-5


def test_train_denoiser_reduces_loss():
    rng = np.random.default_rng(5)
    policy = tiny_policy(rng, T=3, d_a=1, d_s=1, hidden=(16,))
    anchors = np.zeros((64, 1))
    actions = np.full((64, 3, 1), 0.7)
    losses = diffusion.train_denoiser(policy, anchors, actions, 200, 32, 1e-2,
                                      np.random.default_rng(6))
    assert np.mean(losses[-20:]) < np.mean(losses[:20])


@pytest.mark.parametrize("windows", [4, 20])
def test_train_denoiser_pairs_each_anchor_with_one_window(windows):
    # 4 windows for 10 anchors once failed indexing, and 20 trained on half of them
    policy = tiny_policy(np.random.default_rng(1), d_s=2)
    before = nets.get_params(policy.denoiser).copy()
    rng = np.random.default_rng(2)
    state = rng.bit_generator.state
    with pytest.raises(ShapeError, match=r"sequence stack shape \(%d, 3, 1\)" % windows):
        diffusion.train_denoiser(policy, np.zeros((10, 2)), np.zeros((windows, 3, 1)), 5, 4,
                                 1e-2, rng)
    assert np.array_equal(nets.get_params(policy.denoiser), before)
    assert rng.bit_generator.state == state


def test_train_denoiser_matches_reference_loop():
    # oracle: the plain loop over the public API, with the parameters
    # copied out of the net and back in at every step, must give the same
    # parameters and losses bit for bit
    rng = np.random.default_rng(9)
    anchors = rng.standard_normal((20, 2))
    actions = rng.uniform(-1.0, 1.0, size=(20, 3, 1))
    policy = tiny_policy(np.random.default_rng(1), d_s=2, hidden=(8, 8))
    ref = tiny_policy(np.random.default_rng(1), d_s=2, hidden=(8, 8))
    losses = diffusion.train_denoiser(policy, anchors, actions, 25, 8, 1e-2,
                                      np.random.default_rng(2))

    draws = np.random.default_rng(2)
    params = nets.get_params(ref.denoiser)
    opt = nets.adam_init(params.size, step_size=1e-2)
    ref_losses = []
    for _ in range(25):
        idx = draws.integers(0, 20, size=8)
        loss, grad = diffusion.denoising_loss(ref, anchors[idx], actions[idx], draws)
        nets.optimizer_step(opt, params, grad)
        nets.set_params(ref.denoiser, params)
        ref_losses.append(loss)

    assert losses == ref_losses
    assert np.array_equal(nets.get_params(policy.denoiser), nets.get_params(ref.denoiser))


def test_sample_determinism_and_clip():
    rng = np.random.default_rng(7)
    policy = tiny_policy(rng, T=4, d_a=2, d_s=1)
    a1 = diffusion.sample(policy, np.zeros((1, 1)), [42])
    a2 = diffusion.sample(policy, np.zeros((1, 1)), [42])
    assert np.array_equal(a1, a2)
    assert a1.shape == (1, 4, 2)
    assert np.all(a1 >= policy.action_low) and np.all(a1 <= policy.action_high)
    a3 = diffusion.sample(policy, np.zeros((1, 1)), [43])
    assert not np.array_equal(a1, a3)


def test_windows_at_a_horizon_stride_anchor_at_start():
    rng = np.random.default_rng(8)
    ds = chain_dataset(rng, [5, 3, 4])
    # a stride of at least every trajectory's length leaves each its t = 0 anchor
    S, A = diffusion.sliding_windows(ds, T=4, stride=5)
    # only trajectories 0 (len 5) and 2 (len 4) are long enough
    assert S.shape == (2, 2) and A.shape == (2, 4, 1)
    assert np.array_equal(S[0], ds.trajectories[0].states[0])
    assert np.array_equal(S[1], ds.trajectories[2].states[0])
    assert np.array_equal(A[0], ds.trajectories[0].actions[:4])
    assert np.array_equal(A[1], ds.trajectories[2].actions[:4])


def test_sliding_windows_every_stride():
    rng = np.random.default_rng(9)
    ds = chain_dataset(rng, [6])
    S, A = diffusion.sliding_windows(ds, T=4, stride=2)
    # anchors 0 and 2 fit a length-4 window in a length-6 trajectory
    assert S.shape == (2, 2)
    tr = ds.trajectories[0]
    assert np.array_equal(S[1], tr.states[2])
    assert np.array_equal(A[1], tr.actions[2:6])


def test_windows_validation():
    rng = np.random.default_rng(10)
    ds = chain_dataset(rng, [3])
    with pytest.raises(EmptyBatchError):
        diffusion.sliding_windows(ds, T=10)
    with pytest.raises(ConfigError):
        diffusion.sliding_windows(ds, T=3, stride=0)


def test_derive_seed_deterministic_and_distinct():
    seeds = [diffusion.derive_seed(17, i) for i in range(8)]
    again = [diffusion.derive_seed(17, i) for i in range(8)]
    assert seeds == again
    assert len(set(seeds)) == 8
    assert diffusion.derive_seed(18, 0) != seeds[0]


def test_member_seeds_validation():
    with pytest.raises(ConfigError):
        diffusion.member_seeds(0, 5)
    seeds = diffusion.member_seeds(3, 5)
    assert seeds == tuple(diffusion.derive_seed(5, i) for i in range(3))


def _anchors(rng, n, d_s=1):
    return rng.standard_normal((n, d_s))


def test_sample_stack_matches_scalar_chain():
    rng = np.random.default_rng(15)
    policy = tiny_policy(rng, T=4, d_a=2, d_s=1, k=6)
    # above the chunk size, with repeated and negative seeds
    n = diffusion.SAMPLE_CHUNK + 5
    anchors = _anchors(rng, n)
    seeds = [int(x) for x in rng.integers(-50, 50, size=n)]
    got = diffusion.sample(policy, anchors, seeds)
    assert got.shape == (n, 4, 2)
    assert np.array_equal(diffusion.sample(policy, anchors, seeds), got)
    for b in range(n):
        want = oracles.reverse_chain(policy, anchors[b], seeds[b])
        assert np.max(np.abs(got[b] - want)) <= 1e-12
    # a stack of one
    one = diffusion.sample(policy, anchors[:1], seeds[:1])[0]
    assert np.max(np.abs(one - got[0])) <= 1e-12
    assert np.max(np.abs(one - oracles.reverse_chain(policy, anchors[0], seeds[0]))) <= 1e-12
    # one anchor and seed twice in a batch gives the same row
    twice = diffusion.sample(policy, anchors[[3, 3]], [seeds[3], seeds[3]])
    assert np.array_equal(twice[0], twice[1])
    with pytest.raises(ShapeError):
        diffusion.sample(policy, anchors, seeds[:-1])
    with pytest.raises(ShapeError):
        diffusion.sample(policy, np.zeros((n, 2)), seeds)
    # a stack of tiled windows is not a stack of anchors
    with pytest.raises(ShapeError):
        diffusion.sample(policy, np.repeat(anchors[:, None], 4, axis=1), seeds)


def test_sample_chunking_is_fixed(monkeypatch):
    # rows are computed chunk by chunk, so the bytes depend on the chunk
    # constant alone: the same call gives the same bytes
    rng = np.random.default_rng(16)
    policy = tiny_policy(rng, T=4, d_a=1, d_s=1)
    anchors = _anchors(rng, 10)
    seeds = list(range(10))
    monkeypatch.setattr(diffusion, "SAMPLE_CHUNK", 4)
    a = diffusion.sample(policy, anchors, seeds)
    assert np.array_equal(a, diffusion.sample(policy, anchors, seeds))
    for b in range(10):
        assert np.max(np.abs(a[b] - oracles.reverse_chain(policy, anchors[b], b))) <= 1e-12


def test_ensemble_unguided_matches_sample_bitwise():
    rng = np.random.default_rng(11)
    policy = tiny_policy(rng, T=4, d_a=1, d_s=1)
    anchors = _anchors(rng, 5)
    cfg = divergence.DivergenceConfig(tau=0.5, eta=0.0, guided_steps=10)
    seeds = diffusion.member_seeds(3, 21)
    outs = diffusion.sample_ensemble(policy, anchors, seeds, cfg)
    assert outs.shape == (5, 3, 4, 1)
    # each member runs sample's chain over the anchors, in sample's chunks
    for i, seed in enumerate(seeds):
        assert np.array_equal(outs[:, i], diffusion.sample(policy, anchors, [seed] * 5))
        for w in range(5):
            want = diffusion.sample(policy, anchors[w:w + 1], [seed])[0]
            assert np.max(np.abs(outs[w, i] - want)) <= 1e-12
    # guided_steps < k, more anchors than one chunk, the pipeline's denoiser
    # shape: the steps before the guided ones run in the same chunks too
    policy = diffusion.make_policy(12, 2, 4, (128, 128), rng, diffusion.make_linear_schedule(50),
                                   action_low=-1.0, action_high=1.0)
    n = diffusion.SAMPLE_CHUNK + 6
    anchors = _anchors(rng, n, d_s=4)
    seeds = diffusion.member_seeds(4, 7)
    outs = diffusion.sample_ensemble(policy, anchors, seeds, cfg)
    for i, seed in enumerate(seeds):
        assert np.array_equal(outs[:, i], diffusion.sample(policy, anchors, [seed] * n))


def test_ensemble_guidance_changes_later_members():
    rng = np.random.default_rng(12)
    policy = tiny_policy(rng, T=4, d_a=1, d_s=1)
    anchors = _anchors(rng, 3)
    # an enormous tau keeps the gate open at every guided step
    cfg = divergence.DivergenceConfig(tau=1e6, eta=0.5, guided_steps=4)
    seeds = diffusion.member_seeds(3, 21)
    guided = diffusion.sample_ensemble(policy, anchors, seeds, cfg)
    first = diffusion.sample(policy, anchors, [seeds[0]] * 3)
    assert np.array_equal(guided[:, 0], first)
    for w in range(3):
        want = diffusion.sample(policy, anchors[w:w + 1], seeds[:1])[0]
        assert np.max(np.abs(guided[w, 0] - want)) <= 1e-12
    for i in (1, 2):
        plain = diffusion.sample(policy, anchors, [seeds[i]] * 3)
        assert not np.any(np.all(guided[:, i] == plain, axis=(1, 2)))


@pytest.mark.parametrize("guided_steps", [3, 10])
def test_ensemble_matches_scalar_guided_loop(monkeypatch, guided_steps):
    rng = np.random.default_rng(17)
    policy = tiny_policy(rng, T=4, d_a=2, d_s=1, k=6)
    anchors = _anchors(rng, 7)
    # tau large enough that guidance fires on every member > 0
    cfg = divergence.DivergenceConfig(tau=50.0, eta=0.3, guided_steps=guided_steps)
    seeds = diffusion.member_seeds(4, 5)
    monkeypatch.setattr(diffusion, "SAMPLE_CHUNK", 3)
    got = diffusion.sample_ensemble(policy, anchors, seeds, cfg)
    for w in range(7):
        want = oracles.ensemble(policy, anchors[w], seeds, cfg)
        assert np.max(np.abs(got[w] - np.stack(want))) <= 1e-12
    # a stack of one
    single = diffusion.sample_ensemble(policy, anchors[2:3], seeds, cfg)
    assert single.shape == (1, 4, 4, 2)
    assert np.max(np.abs(single[0] - got[2])) <= 1e-12
    # at eta = 0 guidance is off, and every member agrees with the plain chain
    off = divergence.DivergenceConfig(tau=50.0, eta=0.0, guided_steps=guided_steps)
    plain = diffusion.sample_ensemble(policy, anchors, seeds, off)
    for w in range(7):
        for i, seed in enumerate(seeds):
            want = oracles.reverse_chain(policy, anchors[w], seed)
            assert np.max(np.abs(plain[w, i] - want)) <= 1e-12


def test_policy_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(13)
    policy = tiny_policy(rng, T=3, d_a=2, d_s=2)
    path = str(tmp_path / "policy.bin")
    diffusion.save_policy(policy, path)
    back = diffusion.load_policy(path, policy.action_low, policy.action_high)
    assert np.array_equal(nets.get_params(back.denoiser),
                          nets.get_params(policy.denoiser))
    assert np.array_equal(back.schedule.beta, policy.schedule.beta)
    assert (back.T, back.d_a, back.d_s) == (policy.T, policy.d_a, policy.d_s)
    assert np.array_equal(diffusion.sample(back, np.zeros((1, 2)), [5]),
                          diffusion.sample(policy, np.zeros((1, 2)), [5]))


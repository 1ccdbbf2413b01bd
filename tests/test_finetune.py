import warnings

import numpy as np
import pytest

import oracles
from uepo import diffusion, dynamics, envs, finetune, nets
from uepo.errors import (ConfigError, DistillationQualityWarning, EmptyBatchError, ShapeError,
                         TrainingDivergenceError)
from functools import partial


def small_head(seed=0, d_s=2, d_a=1, low=-2.0, high=2.0, hidden=(8,)):
    return finetune.make_head(d_s, d_a, hidden, np.random.default_rng(seed),
                              low, high)


def small_policy(seed=0, T=4, d_a=2, d_s=4):
    sched = diffusion.make_linear_schedule(6, 1e-4, 0.2)
    return diffusion.make_policy(T, d_a, d_s, [12], np.random.default_rng(seed),
                                 schedule=sched, action_low=-1.0, action_high=1.0)


def test_head_validation_and_geometry():
    head = small_head(low=-2.0, high=4.0)
    assert np.array_equal(head.center, np.array([1.0]))
    assert np.array_equal(head.half, np.array([3.0]))
    with pytest.raises(ConfigError):
        finetune.make_head(2, 1, [4], np.random.default_rng(0), 1.0, -1.0)


def test_clamp_log_std():
    head = small_head()
    head.log_std[:] = 9.0
    finetune.clamp_log_std(head)
    assert head.log_std[0] == 1.0
    head.log_std[:] = -9.0
    finetune.clamp_log_std(head)
    assert head.log_std[0] == -5.0


def test_sample_action_in_box_and_seeded():
    head = small_head()
    s = np.array([0.3, -0.7])
    a1, u1 = finetune.sample_action(head, s, np.random.default_rng(5).standard_normal(1))
    a2, u2 = finetune.sample_action(head, s, np.random.default_rng(5).standard_normal(1))
    assert np.array_equal(a1, a2) and np.array_equal(u1, u2)
    z = np.random.default_rng(6).standard_normal((30, 1))
    a, u = finetune.sample_action(head, np.tile(s, (30, 1)), z)
    assert np.all(a > head.action_low) and np.all(a < head.action_high)
    assert np.allclose(u, nets.forward(head.net, s) + np.exp(head.log_std) * z, rtol=0,
                       atol=1e-15)
    with pytest.raises(ShapeError):
        finetune.sample_action(head, s, z)


def test_u_log_prob_gaussian_oracle():
    head = small_head()
    s = np.array([[0.1, 0.2]])
    u = np.array([[0.4]])
    m = nets.forward(head.net, s[0])
    std = np.exp(head.log_std[0])
    want = -0.5 * ((u[0, 0] - m[0]) ** 2 / std**2) - np.log(std) \
        - 0.5 * np.log(2 * np.pi)
    got = finetune._u_log_prob(head, s, u)[0]
    assert got == pytest.approx(float(want), rel=1e-12)


def test_best_index_tie_breaks_low():
    assert finetune.best_index([1.0, 3.0, 3.0]) == 1
    assert finetune.best_index([5.0]) == 0
    with pytest.raises(EmptyBatchError):
        finetune.best_index([])


def test_select_policy_deterministic_and_consistent():
    env = envs.make_env("point_mass", sigma_env=0.05)
    policy = small_policy()
    model = dynamics.make_dynamics(4, 2, [8], np.random.default_rng(1))
    seeds = diffusion.member_seeds(3, 13)
    pool = np.zeros((5, 4))
    best1, scores1 = finetune.select_policy(policy, seeds, model, env, 4,
                                            pool, np.random.default_rng(2))
    best2, scores2 = finetune.select_policy(policy, seeds, model, env, 4,
                                            pool, np.random.default_rng(2))
    assert best1 == best2
    assert np.array_equal(scores1, scores2)
    assert best1 == finetune.best_index(scores1)
    assert scores1.shape == (3,)


def test_select_policy_matches_one_plan_at_a_time():
    env = envs.make_env("point_mass", sigma_env=0.05)
    policy = small_policy()
    model = dynamics.make_dynamics(4, 2, [8], np.random.default_rng(1))
    seeds = diffusion.member_seeds(5, 13)
    pool = np.random.default_rng(3).standard_normal((6, 4))
    best, scores = finetune.select_policy(policy, seeds, model, env, 7, pool,
                                          np.random.default_rng(2))
    want = oracles.select_scores(policy, seeds, model, partial(envs.reward, env), 7, pool,
                                 np.random.default_rng(2))
    assert np.max(np.abs(scores - want)) <= 1e-12
    assert best == finetune.best_index(want)


@pytest.mark.parametrize("cut", [lambda p: p[:, :-1], lambda p: np.concatenate([p, p], axis=1),
                                 lambda p: p[..., :1]], ids=["short", "long", "narrow"])
def test_select_policy_executes_plans_through_the_open_loop_check(monkeypatch, cut):
    # plans one step short once failed indexing, and plans too long were cut without a word
    env = envs.make_env("point_mass", sigma_env=0.05)
    model = dynamics.make_dynamics(4, 2, [8], np.random.default_rng(1))
    sample = diffusion.sample
    monkeypatch.setattr(diffusion, "sample", lambda *args: cut(sample(*args)))
    with pytest.raises(ShapeError, match="plans of shape|actions must be"):
        finetune.select_policy(small_policy(), diffusion.member_seeds(3, 13), model, env, 2,
                               np.zeros((5, 4)), np.random.default_rng(2))


def test_distill_fits_a_coherent_target():
    # constant-output targets are trivially representable, so the head
    # must reach the early-stop threshold quickly
    policy = small_policy(seed=3, T=4, d_a=1, d_s=2)
    # overwrite sampling with a fixed-seed sub-policy over a tight pool
    states = np.random.default_rng(4).uniform(-0.3, 0.3, size=(60, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error", DistillationQualityWarning)
        try:
            head, mse = finetune.distill(policy, 17, states,
                                         np.random.default_rng(5),
                                         hidden=(32, 32), epochs=300)
        except DistillationQualityWarning:
            pytest.fail("distillation warned on a representable target")
    assert mse < finetune.DISTILL_MSE_TARGET
    assert head.d_s == 2 and head.d_a == 1


def test_distill_warns_when_out_of_budget():
    policy = small_policy(seed=6, T=4, d_a=1, d_s=2)
    states = np.random.default_rng(7).uniform(-1, 1, size=(40, 2))
    with pytest.warns(DistillationQualityWarning):
        finetune.distill(policy, 17, states, np.random.default_rng(8),
                         hidden=(4,), epochs=1)


def test_distill_matches_reference_loop():
    # oracle: the plain loop over the public API, copying the parameters
    # out of the head and back in at every step, must give the same head
    # and MSE bit for bit
    policy = small_policy(seed=3, T=4, d_a=1, d_s=2)
    states = np.random.default_rng(4).uniform(-1, 1, size=(30, 2))
    kw = dict(hidden=(8,), epochs=3, batch_size=8, step_size=1e-2, mse_target=0.0)
    with pytest.warns(DistillationQualityWarning):
        head, mse = finetune.distill(policy, 17, states, np.random.default_rng(5), **kw)

    targets = diffusion.sample(policy, states, [17] * 30)[:, 0]
    # the batched targets agree with one-at-a-time sampling to 1e-12
    for s, target in zip(states, targets):
        want = oracles.reverse_chain(policy, s, 17)[0]
        assert np.max(np.abs(target - want)) <= 1e-12
    ref, ref_mse = oracles.distill(policy, 17, states, np.random.default_rng(5), **kw)

    assert mse == ref_mse
    assert np.array_equal(nets.get_params(head.net), nets.get_params(ref.net))


@pytest.mark.parametrize("hidden, batch_size, epochs, mse_target", [
    ((8, 8), 7, 6, 0.0),        # a partial last minibatch; every epoch runs
    ((16,), 64, 5, 0.0),        # one minibatch larger than the pool
    ((16, 16), 8, 400, 0.005),  # stops early, after dozens of epochs
])
def test_distill_matches_the_per_minibatch_gather_loop(hidden, batch_size, epochs,
                                                       mse_target):
    # distill gathers each epoch's shuffled pool once and slices it; the
    # oracle gathers states[idx] and targets[idx] per minibatch. This adds
    # a deeper head, a minibatch wider than the pool and an early stop to
    # the single case above
    policy = small_policy(seed=3, T=4, d_a=1, d_s=2)
    states = np.random.default_rng(4).uniform(-1, 1, size=(30, 2))
    kw = dict(hidden=hidden, epochs=epochs, batch_size=batch_size, step_size=1e-2,
              mse_target=mse_target)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DistillationQualityWarning)
        head, mse = finetune.distill(policy, 17, states, np.random.default_rng(5), **kw)
    ref, ref_mse = oracles.distill(policy, 17, states, np.random.default_rng(5), **kw)
    assert mse == ref_mse
    assert np.array_equal(head.net.params, ref.net.params)
    assert (mse < mse_target) == (mse_target > 0)


@pytest.mark.parametrize("epochs, mse_target, stops_early", [
    (400, 0.005, True),   # stops after dozens of epochs
    (4, 0.0, False),      # runs every epoch and warns
])
def test_distill_is_its_target_call_then_fit_head(epochs, mse_target, stops_early):
    policy = small_policy(seed=3, T=4, d_a=1, d_s=2)
    states = np.random.default_rng(4).uniform(-1, 1, size=(30, 2))
    kw = dict(hidden=(16, 16), epochs=epochs, batch_size=8, step_size=1e-2,
              mse_target=mse_target)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", DistillationQualityWarning)
        head, mse = finetune.distill(policy, 17, states, np.random.default_rng(5), **kw)
        targets = diffusion.sample(policy, states, [17] * len(states))[:, 0]
        part, part_mse = finetune.fit_head(states, targets, policy.action_low,
                                           policy.action_high, np.random.default_rng(5), **kw)
    assert np.array_equal(head.net.params, part.net.params)
    assert np.array_equal(head.log_std, part.log_std)
    assert mse == part_mse
    assert (mse < mse_target) == stops_early
    assert len(caught) == (0 if stops_early else 2)


def test_an_empty_pool_is_refused_before_any_draw():
    policy = small_policy(seed=3, T=4, d_a=1, d_s=2)
    rng = np.random.default_rng(5)
    before = rng.bit_generator.state
    with pytest.raises(EmptyBatchError, match="non-empty"):
        finetune.distill(policy, 17, np.zeros((0, 2)), rng)
    with pytest.raises(EmptyBatchError, match="non-empty"):
        finetune.fit_head(np.zeros((0, 2)), np.zeros((0, 1)), -1.0, 1.0, rng)
    assert rng.bit_generator.state == before


@pytest.mark.parametrize("shape", [(5,), (4, 1), (6, 1), (5, 1, 1)],
                         ids=["1-d", "fewer-rows", "more-rows", "3-d"])
def test_fit_head_wants_one_target_row_per_state(shape):
    rng = np.random.default_rng(5)
    before = rng.bit_generator.state
    with pytest.raises(ShapeError, match="need \\(N, d_a\\)"):
        finetune.fit_head(np.zeros((5, 2)), np.zeros(shape), -1.0, 1.0, rng)
    assert rng.bit_generator.state == before


@pytest.mark.parametrize("low, high", [(np.array([-1.0, -1.0]), np.array([1.0, 1.0])),
                                       (-1.0, np.ones(3)), (np.full((1, 1), -1.0), 1.0)],
                         ids=["both-too-wide", "high-too-wide", "2-d"])
def test_fit_head_checks_the_action_box_before_any_draw(low, high):
    rng = np.random.default_rng(5)
    before = rng.bit_generator.state
    with pytest.raises(ShapeError, match=r"action box of shapes .* for d_a = 1"):
        finetune.fit_head(np.zeros((5, 2)), np.zeros((5, 1)), low, high, rng)
    assert rng.bit_generator.state == before


def test_gae_hand_oracle():
    rewards = np.array([1.0, 0.0, 2.0])
    values = np.array([0.5, 0.2, 0.1, 0.0])
    discount, lam = 0.9, 0.8
    adv, targets = finetune.gae(rewards, values, discount, lam)
    deltas = [1.0 + 0.9 * 0.2 - 0.5,
              0.0 + 0.9 * 0.1 - 0.2,
              2.0 + 0.9 * 0.0 - 0.1]
    a2 = deltas[2]
    a1 = deltas[1] + 0.9 * 0.8 * a2
    a0 = deltas[0] + 0.9 * 0.8 * a1
    assert np.allclose(adv, [a0, a1, a2], atol=1e-15)
    assert np.allclose(targets, adv + values[:-1], atol=1e-15)


def test_gae_validates_lengths():
    with pytest.raises(ShapeError):
        finetune.gae(np.zeros(3), np.zeros(3), 0.9, 0.9)
    with pytest.raises(ShapeError):
        finetune.gae(np.zeros((2, 3)), np.zeros((3, 4)), 0.9, 0.9)


def test_gae_on_stacks_is_one_sweep_per_row():
    rng = np.random.default_rng(25)
    rewards = rng.standard_normal((7, 40))
    values = np.pad(rng.standard_normal((7, 40)), ((0, 0), (0, 1)))
    values[3, -1] = 0.7  # a bootstrap other than 0
    adv, targets = finetune.gae(rewards, values, 0.99, 0.95)
    for e in range(7):
        want_adv, want_targets = oracles.gae(rewards[e], values[e], 0.99, 0.95)
        assert np.array_equal(adv[e], want_adv) and np.array_equal(targets[e], want_targets)
        one_adv, _ = finetune.gae(rewards[e], values[e], 0.99, 0.95)
        assert np.array_equal(one_adv, want_adv)


def test_ppo_surrogate_gradients_match_fd():
    rng = np.random.default_rng(9)
    head = small_head(seed=10, hidden=(6,))
    n = 12
    states = rng.standard_normal((n, 2))
    us = rng.standard_normal((n, 1)) * 0.5
    adv = rng.standard_normal(n)
    # start at ratio exactly 1 so the batch sits inside the clip region
    logp_old = finetune._u_log_prob(head, states, us)
    _, net_g, std_g = finetune.ppo_surrogate(head, states, us, logp_old, adv, 0.2)

    base = nets.get_params(head.net)

    def loss_net(p):
        nets.set_params(head.net, p)
        loss, _, _ = finetune.ppo_surrogate(head, states, us, logp_old, adv, 0.2)
        return loss

    h = 1e-6
    numeric = np.zeros_like(base)
    for i in range(base.size):
        p = base.copy()
        p[i] += h
        up = loss_net(p)
        p[i] -= 2 * h
        numeric[i] = (up - loss_net(p)) / (2 * h)
    nets.set_params(head.net, base)
    denom = np.maximum(np.abs(numeric), 1e-8)
    assert np.max(np.abs(net_g - numeric) / denom) < 1e-5

    def loss_std(v):
        old = head.log_std.copy()
        head.log_std[:] = v
        loss, _, _ = finetune.ppo_surrogate(head, states, us, logp_old, adv, 0.2)
        head.log_std[:] = old
        return loss

    v0 = head.log_std.copy()
    fd = (loss_std(v0 + h) - loss_std(v0 - h)) / (2 * h)
    assert std_g[0] == pytest.approx(fd, rel=1e-5)


def test_ppo_surrogate_clipped_branch_has_zero_gradient():
    head = small_head(seed=11, hidden=(6,))
    rng = np.random.default_rng(12)
    states = rng.standard_normal((6, 2))
    us = rng.standard_normal((6, 1)) * 0.3
    # make every ratio huge with positive advantage: min picks the
    # clipped constant branch, so both gradients vanish
    logp_old = finetune._u_log_prob(head, states, us) - 5.0
    adv = np.ones(6)
    loss, net_g, std_g = finetune.ppo_surrogate(head, states, us, logp_old,
                                                adv, 0.2)
    assert loss == pytest.approx(-1.2, rel=1e-12)  # -mean(1.2 * 1)
    assert np.array_equal(net_g, np.zeros_like(net_g))
    assert np.array_equal(std_g, np.zeros_like(std_g))


def test_collect_episodes_shapes():
    env = envs.make_env("point_mass", sigma_env=0.05, horizon=6)
    head = small_head(seed=13, d_s=4, d_a=2, low=-1.0, high=1.0)
    s, u, r, ep = finetune.collect_episodes(head, env, 3,
                                            np.random.default_rng(14))
    assert s.shape == (18, 4) and u.shape == (18, 2) and r.shape == (18,)
    assert ep.shape == (3,)
    assert ep[0] == pytest.approx(r[:6].sum())


@pytest.mark.parametrize("name", ["point_mass", "pendulum"])
@pytest.mark.parametrize("n_episodes", [1, 3, 16])
def test_lockstep_episodes_equal_one_at_a_time(name, n_episodes):
    env = envs.make_env(name, sigma_env=0.05, horizon=11)
    head = small_head(seed=26, d_s=env.d_s, d_a=env.d_a, low=env.action_low,
                      high=env.action_high, hidden=(16, 16))
    rng, ref_rng = np.random.default_rng(27), np.random.default_rng(27)
    got = finetune.collect_episodes(head, env, n_episodes, rng)
    want = oracles.collect_episodes(head, env, n_episodes, ref_rng)
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert np.allclose(g, w, rtol=1e-12, atol=0.0)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    # returns add each episode's rewards in step order, as a running sum does
    rewards = got[2].reshape(n_episodes, env.horizon)
    assert [float(x) for x in got[3]] == [sum(row) for row in rewards]


def test_ppo_finetune_runs_and_reports_curve():
    env = envs.make_env("point_mass", sigma_env=0.05, horizon=8)
    head = small_head(seed=15, d_s=4, d_a=2, low=-1.0, high=1.0, hidden=(16,))
    cfg = finetune.PpoConfig(batch_episodes=4, epochs_per_batch=3)
    out, curve = finetune.ppo_finetune(head, env, cfg, 2,
                                       np.random.default_rng(16))
    assert out is head
    assert len(curve) == 2
    assert all(np.isfinite(m) and np.isfinite(s) for m, s in curve)
    assert np.all(np.isfinite(nets.get_params(head.net)))


def test_ppo_finetune_matches_reference_loop():
    # oracle: the loop with a fresh forward pass for every surrogate and
    # every ratio guard; reusing the guard's activations must change no bit
    env = envs.make_env("point_mass", sigma_env=0.05, horizon=8)
    cfg = finetune.PpoConfig(batch_episodes=4, epochs_per_batch=6, step_size=0.01)
    head = small_head(seed=23, d_s=4, d_a=2, low=-1.0, high=1.0, hidden=(16,))
    _, curve = finetune.ppo_finetune(head, env, cfg, 4, np.random.default_rng(24))

    ref = small_head(seed=23, d_s=4, d_a=2, low=-1.0, high=1.0, hidden=(16,))
    rng = np.random.default_rng(24)
    value_net = nets.mlp_init([4, 64, 64, 1], rng)
    opt_net = nets.adam_init(ref.net.params.size, step_size=cfg.step_size)
    opt_std = nets.adam_init(2, step_size=cfg.step_size)
    opt_val = nets.adam_init(value_net.params.size, step_size=cfg.value_step_size)
    ref_curve, epochs_kept, rollbacks = [], 0, 0
    for _ in range(4):
        states, us, rewards, ep_returns = finetune.collect_episodes(ref, env, 4, rng)
        ref_curve.append((float(ep_returns.mean()), float(ep_returns.std())))
        logp_old = finetune._u_log_prob(ref, states, us)
        values = nets.forward(value_net, states)[:, 0]
        advantages = np.empty_like(rewards)
        value_targets = np.empty_like(rewards)
        for e in range(4):
            sl = slice(e * 8, (e + 1) * 8)
            advantages[sl], value_targets[sl] = finetune.gae(
                rewards[sl], np.append(values[sl], 0.0), cfg.discount, cfg.gae_lambda)
        advantages = (advantages - advantages.mean()) / (advantages.std() + 1e-8)
        for _ in range(cfg.epochs_per_batch):
            pre = (nets.get_params(ref.net), ref.log_std.copy(), nets.get_params(value_net))
            _, g_net, g_std = finetune.ppo_surrogate(ref, states, us, logp_old,
                                                     advantages, cfg.clip_ratio)
            params = nets.get_params(ref.net)
            nets.optimizer_step(opt_net, params, g_net)
            nets.set_params(ref.net, params)
            nets.optimizer_step(opt_std, ref.log_std, g_std)
            finetune.clamp_log_std(ref)
            v_acts = nets.forward_activations(value_net, states)
            v = v_acts[-1][:, 0]
            v_grad = nets.backward(value_net, v_acts, (2.0 * (v - value_targets) / v.size)[:, None])
            v_params = nets.get_params(value_net)
            nets.optimizer_step(opt_val, v_params, v_grad)
            nets.set_params(value_net, v_params)
            ratio = np.exp(finetune._u_log_prob(ref, states, us) - logp_old)
            if np.max(np.abs(ratio - 1.0)) > finetune.RATIO_GUARD * cfg.clip_ratio:
                nets.set_params(ref.net, pre[0])
                ref.log_std[:] = pre[1]
                nets.set_params(value_net, pre[2])
                rollbacks += 1
                break
            epochs_kept += 1

    # both branches of the guard ran
    assert rollbacks > 0 and epochs_kept > 0
    assert curve == ref_curve
    assert np.array_equal(nets.get_params(head.net), nets.get_params(ref.net))
    assert np.array_equal(head.log_std, ref.log_std)


def test_ppo_ratio_guard_rolls_back_oversized_steps():
    env = envs.make_env("point_mass", sigma_env=0.05, horizon=8)
    head = small_head(seed=17, d_s=4, d_a=2, low=-1.0, high=1.0, hidden=(16,))
    before = nets.get_params(head.net).copy()
    log_std_before = head.log_std.copy()
    cfg = finetune.PpoConfig(batch_episodes=4, epochs_per_batch=5, step_size=0.5)
    finetune.ppo_finetune(head, env, cfg, 3, np.random.default_rng(18))
    # a half-unit Adam step blows past the ratio guard on the first epoch
    # of every iteration, so each one rolls back completely
    assert np.array_equal(nets.get_params(head.net), before)
    assert np.array_equal(head.log_std, log_std_before)


def test_ppo_non_finite_loss_rolls_back_the_iteration_and_raises(monkeypatch):
    # a NaN loss on the second epoch of iteration 2 restores the parameters
    # that iteration 1 left, which a one-iteration run from the same seed ends with
    env = envs.make_env("point_mass", sigma_env=0.05, horizon=8)
    cfg = finetune.PpoConfig(batch_episodes=4, epochs_per_batch=3)
    once = small_head(seed=21, d_s=4, d_a=2, low=-1.0, high=1.0, hidden=(16,))
    finetune.ppo_finetune(once, env, cfg, 1, np.random.default_rng(22))

    batches, surrogate = [], finetune.ppo_surrogate

    def poisoned(head, states, us, logp_old, *args):
        if not batches or batches[-1][0] is not logp_old:
            batches.append([logp_old, 0])
        batches[-1][1] += 1
        loss, g_net, g_std = surrogate(head, states, us, logp_old, *args)
        return (np.nan if (len(batches), batches[-1][1]) == (2, 2) else loss), g_net, g_std
    monkeypatch.setattr(finetune, "ppo_surrogate", poisoned)
    head = small_head(seed=21, d_s=4, d_a=2, low=-1.0, high=1.0, hidden=(16,))
    with pytest.raises(TrainingDivergenceError, match="rolled back"):
        finetune.ppo_finetune(head, env, cfg, 3, np.random.default_rng(22))
    assert [calls for _, calls in batches] == [3, 2]
    assert np.array_equal(head.net.params, once.net.params)
    assert np.array_equal(head.log_std, once.log_std)


def test_evaluate_head_is_seeded():
    env = envs.make_env("point_mass", sigma_env=0.05, horizon=6)
    head = small_head(seed=19, d_s=4, d_a=2, low=-1.0, high=1.0)
    r1 = oracles.evaluate_head(head, env, 5, np.random.default_rng(20))
    r2 = oracles.evaluate_head(head, env, 5, np.random.default_rng(20))
    assert r1 == r2
    episodes = finetune.collect_episodes(head, env, 5, np.random.default_rng(20))
    assert r1 == episodes[3].mean()


def test_head_checkpoint_round_trip(tmp_path):
    head = small_head(seed=22, d_s=3, d_a=2, low=-1.5, high=0.5)
    head.log_std[:] = np.array([-0.3, -1.2])
    path = str(tmp_path / "head.bin")
    finetune.save_head(path, head)
    back = finetune.load_head(path)
    assert np.array_equal(nets.get_params(back.net), nets.get_params(head.net))
    assert np.array_equal(back.log_std, head.log_std)
    assert np.array_equal(back.action_low, head.action_low)
    assert np.array_equal(back.action_high, head.action_high)
    s = np.array([0.1, -0.4, 0.8])
    z = np.random.default_rng(3).standard_normal(2)
    a1, u1 = finetune.sample_action(head, s, z)
    a2, u2 = finetune.sample_action(back, s, z)
    assert np.array_equal(a1, a2) and np.array_equal(u1, u2)

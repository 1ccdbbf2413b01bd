"""Acceptance suite: nine end-to-end checks of the pipeline's claims,
numbered 01-10 without 08.

Each test prints a single PASS/FAIL line (visible under ``pytest -s``
or in the failure report) and enforces its runtime budget. Training
recipes are fully seeded, so a rerun on one machine is deterministic.
"""

import hashlib
import os
import time

import numpy as np

import oracles
from uepo import cli, diffusion, divergence, dynamics, envs, finetune, nets
from uepo.augmentation import FilterConfig, build_augmented, rollout_virtual
from uepo.config import load_config
from uepo.datasets import Trajectory, TrajectoryDataset, initial_states, transitions
from uepo.divergence import DivergenceConfig, min_pairwise_div
from uepo.errors import StarvationError


def _verdict(num, label, ok, detail, t0, limit):
    elapsed = time.perf_counter() - t0
    in_time = elapsed < limit
    status = "PASS" if (ok and in_time) else "FAIL"
    line = f"[acceptance {num:2d}] {label}: {status} ({detail}; {elapsed:.1f}s / {limit:.0f}s)"
    print(line)
    assert ok, line
    assert in_time, line


def _batch_of(ds):
    s, a, s_next = transitions(ds)
    return dynamics.TransitionBatch(s, a, s_next)


def _staged_train(model, batch, shuffle_rng,
                  stages=((250, 1e-3), (250, 3e-4), (200, 1e-4), (100, 3e-5)),
                  synthetic=None):
    for epochs, lr in stages:
        dynamics.train_joint(model, batch, synthetic, epochs, shuffle_rng,
                             step_size=lr, curve=False)


# the float64 central-difference optimum is near eps**(1/3), about 6e-6; a
# smaller step lets rounding error dominate the check
def _fd_grad(loss_at, base, h=1e-5):
    numeric = np.zeros_like(base)
    for i in range(base.size):
        p = base.copy()
        p[i] += h
        up = loss_at(p)
        p[i] -= 2 * h
        numeric[i] = (up - loss_at(p)) / (2 * h)
    return numeric


def _max_rel(analytic, numeric):
    denom = np.maximum(np.abs(numeric), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / denom))


def _brute_force_div(a_i, a_j):
    # written index-by-index, independently of the vectorized library code
    T = a_i.shape[0]
    total = 0.0
    for t in range(1, T):
        v_i = a_i[t] - a_i[t - 1]
        v_j = a_j[t] - a_j[t - 1]
        total += float(np.sqrt(np.sum((v_i - v_j) ** 2)))
    for t in range(2, T):
        acc_i = a_i[t] - 2 * a_i[t - 1] + a_i[t - 2]
        acc_j = a_j[t] - 2 * a_j[t - 1] + a_j[t - 2]
        ni = float(np.sqrt(np.sum(acc_i ** 2)))
        nj = float(np.sqrt(np.sum(acc_j ** 2)))
        cos = 1.0 if ni == 0.0 or nj == 0.0 else float(np.dot(acc_i, acc_j) / (ni * nj))
        total += 1.0 - cos
    return total / T


def test_01_divergence_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    worst = 0.0
    self_zero = True
    for _ in range(1000):
        T = int(rng.integers(3, 13))
        d_a = int(rng.integers(1, 5))
        a_i = rng.standard_normal((T, d_a))
        a_j = rng.standard_normal((T, d_a))
        worst = max(worst, abs(divergence.div(a_i, a_j) - _brute_force_div(a_i, a_j)))
        self_zero = self_zero and divergence.div(a_i, a_i) == 0.0
    _verdict(1, "divergence oracle equivalence", worst < 1e-9 and self_zero,
             f"max abs delta {worst:.2e}, div(a,a)=0 {'exact' if self_zero else 'violated'}",
             t0, 5.0)


def test_02_perturbation_law():
    t0 = time.perf_counter()
    cfg = DivergenceConfig(0.5, 0.1, 10)
    endpoints = (divergence.sigma_div(0.0, cfg) == cfg.eta
                 and divergence.sigma_div(cfg.tau, cfg) == 0.0
                 and divergence.sigma_div(0.9, cfg) == 0.0)
    draws = divergence.perturb(np.zeros(100_000), 0.05, np.random.default_rng(2))
    var = float(np.var(draws))
    var_ok = abs(var - 0.0025) < 0.05 * 0.0025
    _verdict(2, "perturbation law", endpoints and var_ok,
             f"endpoints exact: {endpoints}, empirical var {var:.6f} vs 0.0025",
             t0, 5.0)


def test_03_gradient_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)

    pol = diffusion.make_policy(3, 1, 1, [6], rng,
                                schedule=diffusion.make_linear_schedule(4, 1e-4, 0.2),
                                action_low=-1.0, action_high=1.0)
    anchors = rng.standard_normal((5, 3, 1))[:, 0]
    actions = rng.standard_normal((5, 3, 1))
    _, g = diffusion.denoising_loss(pol, anchors, actions, np.random.default_rng(99))

    def denoiser_loss(p):
        nets.set_params(pol.denoiser, p)
        val, _ = diffusion.denoising_loss(pol, anchors, actions, np.random.default_rng(99))
        return val

    base = nets.get_params(pol.denoiser)
    rel_denoiser = _max_rel(g, _fd_grad(denoiser_loss, base))
    nets.set_params(pol.denoiser, base)

    model = dynamics.make_dynamics(2, 1, [5], rng)
    tb = dynamics.TransitionBatch(rng.standard_normal((6, 2)),
                                  rng.standard_normal((6, 1)),
                                  rng.standard_normal((6, 2)))
    _, g = dynamics.nll(model, tb)

    def nll_loss(p):
        nets.set_params(model.net, p)
        val, _ = dynamics.nll(model, tb)
        return val

    base = nets.get_params(model.net)
    rel_nll = _max_rel(g, _fd_grad(nll_loss, base))
    nets.set_params(model.net, base)

    head = finetune.make_head(2, 1, [6], np.random.default_rng(10), -2.0, 2.0)
    hs = rng.standard_normal((12, 2))
    us = rng.standard_normal((12, 1)) * 0.5
    adv = rng.standard_normal(12)
    logp_old = finetune._u_log_prob(head, hs, us)
    _, net_g, _ = finetune.ppo_surrogate(head, hs, us, logp_old, adv, 0.2)

    def ppo_loss(p):
        nets.set_params(head.net, p)
        loss, _, _ = finetune.ppo_surrogate(head, hs, us, logp_old, adv, 0.2)
        return loss

    base = nets.get_params(head.net)
    rel_ppo = _max_rel(net_g, _fd_grad(ppo_loss, base))
    nets.set_params(head.net, base)

    ok = max(rel_denoiser, rel_nll, rel_ppo) < 1e-5
    _verdict(3, "gradient suite vs central differences", ok,
             f"rel err denoiser {rel_denoiser:.1e}, nll {rel_nll:.1e}, ppo {rel_ppo:.1e}",
             t0, 30.0)


def test_04_multimodality_capture():
    t0 = time.perf_counter()
    env = envs.PointMass2D()
    ds = envs.make_offline_dataset(env, 300, 0.5, np.random.default_rng(11))
    anchors, demo_actions = diffusion.sliding_windows(ds, 40, env.horizon)
    rng = np.random.default_rng(5)
    pol = diffusion.make_policy(40, 2, 4, [256, 256], rng,
                                schedule=diffusion.make_linear_schedule(50, 1e-4, 0.2),
                                action_low=env.action_low, action_high=env.action_high)
    diffusion.train_denoiser(pol, anchors, demo_actions, 1200, 192, 1e-3, rng)
    diffusion.train_denoiser(pol, anchors, demo_actions, 800, 192, 3e-4, rng)
    n_plus = n_minus = 0
    origin = np.zeros((1, 4))
    for seed in range(500):
        actions = diffusion.sample(pol, origin, [seed])
        (d_plus,), (d_minus,) = envs.goal_distances(env, origin, actions)
        n_plus += d_plus < 0.3
        n_minus += d_minus < 0.3
    ok = n_plus >= 100 and n_minus >= 100
    _verdict(4, "multimodality capture", ok,
             f"of 500 samples: {n_plus} reach goal+, {n_minus} reach goal-, need >= 100 each",
             t0, 180.0)


def test_05_guidance_effect():
    t0 = time.perf_counter()
    rng = np.random.default_rng(4)
    pol = diffusion.make_policy(4, 1, 1, [64, 64], rng,
                                schedule=diffusion.make_linear_schedule(50, 1e-4, 0.2),
                                action_low=-1.0, action_high=1.0)
    actions = np.concatenate([np.full((100, 4, 1), 0.8), np.full((100, 4, 1), -0.8)])
    anchors = np.zeros((200, 1))
    diffusion.train_denoiser(pol, anchors, actions, 3000, 128, 1e-3, rng)
    anchor = np.zeros((1, 1))
    guided_cfg = DivergenceConfig(0.5, 0.1, 10)
    plain_cfg = DivergenceConfig(0.5, 0.0, 10)
    guided, plain = [], []
    for base_seed in range(20):
        seeds = diffusion.member_seeds(4, base_seed)
        guided.append(min_pairwise_div(diffusion.sample_ensemble(
            pol, anchor, seeds, guided_cfg)[0]))
        plain.append(min_pairwise_div(diffusion.sample_ensemble(
            pol, anchor, seeds, plain_cfg)[0]))
    guided = np.array(guided)
    plain = np.array(plain)
    pooled = np.sqrt((guided.var(ddof=1) + plain.var(ddof=1)) / 2)
    effect = (guided.mean() - plain.mean()) / pooled
    ok = guided.mean() > plain.mean()
    _verdict(5, "guidance raises ensemble diversity", ok,
             f"mean min-pairwise div {guided.mean():.4f} guided vs {plain.mean():.4f} "
             f"at eta=0, Cohen's d {effect:.2f}", t0, 180.0)


def test_06_filter_correctness():
    t0 = time.perf_counter()
    env = envs.PointMass2D(sigma_env=0.05)
    ds = envs.make_offline_dataset(env, 25, 0.5, np.random.default_rng(41))
    windows_s, windows_a = diffusion.sliding_windows(ds, 10, env.horizon)
    rng = np.random.default_rng(42)
    pol = diffusion.make_policy(10, 2, 4, [64, 64], rng,
                                schedule=diffusion.make_linear_schedule(50, 1e-4, 0.2),
                                action_low=env.action_low, action_high=env.action_high)
    diffusion.train_denoiser(pol, windows_s, windows_a, 1500, 128, 1e-3, rng)

    # a model is well fit where it will be scored: train it on the real
    # data plus rollouts of the very policy the filter will replay
    pool = initial_states(ds)
    cover_rng = np.random.default_rng(99)
    trajs = list(ds.trajectories)
    for _ in range(120):
        s0 = pool[int(cover_rng.integers(0, len(pool)))]
        states, actions, nexts, _, _ = rollout_virtual(env, pol, s0[None],
                                                       [int(cover_rng.integers(0, 2 ** 63))])
        trajs.append(Trajectory(states[0], actions[0], nexts[0]))
    covered = _batch_of(TrajectoryDataset(trajs, dict(ds.meta)))
    model = dynamics.make_dynamics(4, 2, [64, 64], np.random.default_rng(100))
    _staged_train(model, covered, np.random.default_rng(200))
    _, report = build_augmented(env, pol, model, ds, FilterConfig(0.3, 2.0),
                                np.random.default_rng(300))
    well_fit_ok = (report.acceptance_rate > 0.9
                   and report.target_transitions <= report.achieved_transitions
                   < report.target_transitions + pol.T)

    env_hard = envs.PointMass2D(sigma_env=1.0)
    ds_hard = envs.make_offline_dataset(env_hard, 6, 0.5, np.random.default_rng(43))

    class OffsetModel:
        """True law shifted by 1.0 in the first dim: per-transition KL = 0.5."""

        def predict(self, s, a):
            mean, var = envs.true_dist(env_hard, s, a)
            shifted = mean.copy()
            shifted[..., 0] += 1.0
            return shifted, np.ones_like(var)

    starved = False
    kl_exact = False
    try:
        build_augmented(env_hard, pol, OffsetModel(), ds_hard,
                        FilterConfig(0.3, 2.0, 30), np.random.default_rng(301))
    except StarvationError as exc:
        starved = True
        kl = np.asarray(exc.kl_values)
        kl_exact = len(kl) == 30 and float(np.max(np.abs(kl - 0.5))) < 1e-9
    ok = well_fit_ok and starved and kl_exact
    _verdict(6, "KL filter correctness", ok,
             f"well-fit acceptance {report.acceptance_rate:.3f}, achieved "
             f"{report.achieved_transitions}/{report.target_transitions}; offset model "
             f"starved={starved} with KL=0.5 closed form exact={kl_exact}", t0, 60.0)


def test_07_generalization_effect():
    t0 = time.perf_counter()
    env = envs.PointMass2D(sigma_env=0.05, horizon=16)
    ds = envs.make_offline_dataset(env, 100, 0.5, np.random.default_rng(21))
    kept, gap = oracles.apply_coverage_gap(ds)
    windows_s, windows_a = diffusion.sliding_windows(kept, 12, env.horizon)
    rng = np.random.default_rng(5)
    pol = diffusion.make_policy(12, 2, 4, [128, 128], rng,
                                schedule=diffusion.make_linear_schedule(50, 1e-4, 0.2),
                                action_low=env.action_low, action_high=env.action_high)
    diffusion.train_denoiser(pol, windows_s, windows_a, 3000, 128, 1e-3, rng)
    real = _batch_of(kept)
    gap_batch = _batch_of(gap)
    wins = 0
    margins = []
    for i in range(10):
        real_only = dynamics.make_dynamics(4, 2, [64, 64], np.random.default_rng(1000 + i))
        _staged_train(real_only, real, np.random.default_rng(2000 + i))
        synthetic, _ = build_augmented(env, pol, real_only, kept,
                                       FilterConfig(0.15, 2.0),
                                       np.random.default_rng(3000 + i))
        joint = dynamics.make_dynamics(4, 2, [64, 64], np.random.default_rng(1000 + i))
        _staged_train(joint, real, np.random.default_rng(2000 + i),
                      synthetic=_batch_of(synthetic))
        margin = dynamics.pool_nll(real_only, gap_batch) - dynamics.pool_nll(joint, gap_batch)
        wins += margin > 0
        margins.append(margin)
    ok = wins >= 8
    _verdict(7, "augmentation improves gap-region generalization", ok,
             f"joint beats real-only in {wins}/10 paired seeds, "
             f"median margin {np.median(margins):.3f} nats", t0, 300.0)


def test_09_offline_to_online_smoke():
    t0 = time.perf_counter()
    env = envs.PointMass2D(sigma_env=0.05)
    ds = envs.make_offline_dataset(env, 60, 0.5, np.random.default_rng(31))
    anchors, windows_a = diffusion.sliding_windows(ds, 12, stride=4)
    rng = np.random.default_rng(7)
    pol = diffusion.make_policy(12, 2, 4, [128, 128], rng,
                                schedule=diffusion.make_linear_schedule(50, 1e-4, 0.2),
                                action_low=env.action_low, action_high=env.action_high)
    diffusion.train_denoiser(pol, anchors, windows_a, 3000, 128, 1e-3, rng)
    real = _batch_of(ds)
    model = dynamics.make_dynamics(4, 2, [64, 64], np.random.default_rng(100))
    _staged_train(model, real, np.random.default_rng(200),
                  stages=((250, 1e-3), (250, 3e-4), (200, 1e-4)))
    synthetic, _ = build_augmented(env, pol, model, ds, FilterConfig(0.15, 2.0),
                                   np.random.default_rng(300))
    joint = oracles.clone_dynamics(model)
    dynamics.train_joint(joint, real, _batch_of(synthetic), 200,
                         np.random.default_rng(201), step_size=1e-4, curve=False)
    seeds = diffusion.member_seeds(4, 17)
    wins = 0
    pairs = []
    for i in range(5):
        run_rng = np.random.default_rng(7000 + i)
        best, _ = finetune.select_policy(pol, seeds, joint, env,
                                         8, initial_states(ds), run_rng)
        pool = anchors[run_rng.permutation(len(anchors))[:400]]
        head, _ = finetune.distill(pol, seeds[best], pool, run_rng)
        pre = oracles.evaluate_head(head, env, 20, np.random.default_rng(8000 + i))
        head, _ = finetune.ppo_finetune(head, env, finetune.PpoConfig(), 12, run_rng)
        post = oracles.evaluate_head(head, env, 20, np.random.default_rng(8000 + i))
        wins += post >= pre
        pairs.append((pre, post))
    ok = wins >= 4
    detail = ", ".join(f"{pre:.2f}->{post:.2f}" for pre, post in pairs)
    _verdict(9, "offline-to-online improves the distilled head", ok,
             f"{wins}/5 seeds with post >= pre: {detail}", t0, 600.0)


# the small reproducibility config, which the demo and CI also run
_REPRO_CFG = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "demos", "small.cfg")


def test_10_reproducibility(tmp_path):
    t0 = time.perf_counter()
    outs = [tmp_path / "first", tmp_path / "second"]
    for out in outs:
        cfg = load_config(_REPRO_CFG, out=str(out))
        for stage in cli.STAGES:
            cli.run_stage(stage, cfg)

    def digests(root):
        table = {}
        for name in sorted(os.listdir(root)):
            if name.endswith(".time.txt"):
                continue  # wall time is the one intentionally run-local file
            with open(os.path.join(root, name), "rb") as fh:
                table[name] = hashlib.sha256(fh.read()).hexdigest()
        return table

    first, second = digests(outs[0]), digests(outs[1])
    same_names = set(first) == set(second)
    diffs = [n for n in first if first.get(n) != second.get(n)] if same_names else []
    ok = same_names and not diffs
    _verdict(10, "bit-identical reruns", ok,
             f"{len(first)} artifacts compared, mismatches: {diffs if diffs else 'none'}",
             t0, 1200.0)

"""Scalar reference implementations of the batched sampling and scoring
paths.

Each one runs a single row at a time, one reverse step or transition at
a time, with noise drawn step by step, the way the library worked before
it batched. Tests compare the batched paths against them to 1e-12: the
arithmetic is the same, but the networks' matrix products round
differently at other batch sizes.
"""

import numpy as np

from uepo import augmentation, diffusion, divergence, dynamics, envs
from uepo.datasets import Trajectory, initial_states, n_transitions

_U64 = 0xFFFFFFFFFFFFFFFF


def reverse_chain(policy, s, seed, predecessors=(), cfg=None):
    """One sequence from the seeded ancestral chain. With predecessors,
    each of the last cfg.guided_steps steps is first guided away from them."""
    rng = np.random.default_rng(int(seed) & _U64)
    a = rng.standard_normal((policy.T, policy.d_a))
    for t in range(policy.schedule.k - 1, -1, -1):
        if predecessors and t < cfg.guided_steps:
            a = divergence.guide(a, predecessors, cfg, rng)
        z = rng.standard_normal(a.shape) if t > 0 else None
        a = diffusion.reverse_step(policy, a, s, t, z)
    return np.clip(a, policy.action_low, policy.action_high)


def ensemble(policy, s, spec):
    """The per-window guided ensemble: members in seed order, each guided
    away from the finished earlier members."""
    outs = []
    for seed in spec.seeds:
        preds = list(outs) if spec.divergence_config is not None else ()
        outs.append(reverse_chain(policy, s, seed, preds, spec.divergence_config))
    return outs


def trajectory_kl(traj, env, model):
    """Mean per-transition KL(true law || model), one transition at a time."""
    total = 0.0
    for s, a in zip(traj.states, traj.actions):
        true_mean, true_var = envs.true_dist(env, s, a)
        pred_mean, pred_var = augmentation._model_dist(model, s, a)
        total += dynamics.gaussian_kl(true_mean, true_var, pred_mean, pred_var)
    return total / len(traj)


def build_augmented(env, policy, model, real, cfg, rng):
    """The attempt-by-attempt filter loop; returns (accepted, kl_values,
    attempts, achieved transitions)."""
    pool = initial_states(real)
    n_real = n_transitions(real)
    target = int(np.ceil(cfg.ratio * n_real))
    cap = int(augmentation.MAX_RATIO * n_real)
    accepted, kl_values, count, attempts = [], [], 0, 0
    while count < target and attempts < cfg.max_attempts:
        s0 = pool[int(rng.integers(0, len(pool)))]
        seed = int(rng.integers(0, 2**63))
        samp_c, env_c = np.random.SeedSequence(seed & _U64).spawn(2)
        actions = reverse_chain(policy, diffusion.state_window(s0, policy.T),
                                int(samp_c.generate_state(1, np.uint64)[0]))
        traj = envs.rollout_open_loop(env, s0, actions, np.random.default_rng(env_c),
                                      seed=seed)
        attempts += 1
        score = trajectory_kl(traj, env, model)
        kl_values.append(score)
        if score >= cfg.epsilon:
            continue
        if count + len(traj) > cap:
            keep = cap - count
            if keep <= 0:
                break
            traj = Trajectory(traj.states[:keep], traj.actions[:keep],
                              traj.next_states[:keep],
                              None if traj.rewards is None else traj.rewards[:keep],
                              seed=traj.seed)
        accepted.append(traj)
        count += len(traj)
    return accepted, kl_values, attempts, count


def select_scores(policy, spec, model, reward_fn, n_rollouts, initial_states, rng):
    """Per-sub-policy mean model-based returns, one plan at a time."""
    scores = np.zeros(len(spec.seeds))
    for _ in range(n_rollouts):
        s0 = initial_states[rng.integers(len(initial_states))]
        noise = rng.standard_normal((policy.T, policy.d_s))
        window = diffusion.state_window(s0, policy.T)
        for i, seed in enumerate(spec.seeds):
            seq = reverse_chain(policy, window, seed)
            s, total = s0, 0.0
            for t in range(policy.T):
                mean, var = dynamics.predict(model, s, seq[t])
                s_next = mean + np.sqrt(var) * noise[t]
                total += reward_fn(s, seq[t], s_next)
                s = s_next
            scores[i] += total / n_rollouts
    return scores

"""Scalar reference implementations of the batched noising, sampling,
scoring and rollout paths, the checkpoint bytes packed field by field,
and the small helpers several tests share.

Each path runs a single row at a time, one reverse step or transition at
a time, with noise drawn step by step, the way the library worked before
it batched. Tests compare the batched paths against them to 1e-12: the
arithmetic is the same, but the networks' matrix products round
differently at other batch sizes. Paths without a network must match
bit for bit.
"""

import struct

import numpy as np

from uepo import augmentation, diffusion, divergence, dynamics, envs, finetune, nets
from uepo.datasets import Trajectory, TrajectoryDataset, initial_states, n_transitions
from uepo.errors import ConfigError, ShapeError

_U64 = 0xFFFFFFFFFFFFFFFF


def guide(a, predecessors, cfg, rng):
    """One guided step of one (T, d) sequence: perturb it away from the
    closest of its predecessors at the adaptive strength."""
    d_min = min(divergence.div(a, p) for p in predecessors)
    return divergence.perturb(a, divergence.sigma_div(d_min, cfg), rng)


def q_sample(a0: np.ndarray, t: int, eps: np.ndarray,
             sched: diffusion.NoiseSchedule) -> np.ndarray:
    """Forward-noise a clean sequence to level t:
    sqrt(alpha_bar[t]) * a0 + sqrt(1 - alpha_bar[t]) * eps."""
    a0 = np.asarray(a0, dtype=float)
    eps = np.asarray(eps, dtype=float)
    if a0.shape != eps.shape:
        raise ShapeError(f"noise shape {eps.shape} != sequence shape {a0.shape}")
    if not 0 <= t < sched.k:
        raise ConfigError(f"step index {t} outside [0, {sched.k})")
    ab = sched.alpha_bar[t]
    return np.sqrt(ab) * a0 + np.sqrt(1.0 - ab) * eps


def reverse_chain(policy, s0, seed, predecessors=(), cfg=None):
    """One sequence from the seeded ancestral chain at anchor state s0,
    each reverse step a stack of one. With predecessors, each of the last
    cfg.guided_steps steps is first guided away from them."""
    s = np.asarray(s0, dtype=float)[None]
    rng = np.random.default_rng(int(seed) & _U64)
    a = rng.standard_normal((policy.T, policy.d_a))
    for t in range(policy.schedule.k - 1, -1, -1):
        if predecessors and t < cfg.guided_steps:
            a = guide(a, predecessors, cfg, rng)
        z = rng.standard_normal((1,) + a.shape) if t > 0 else None
        a = diffusion.reverse_step(policy, a[None], s, t, z)[0]
    return np.clip(a, policy.action_low, policy.action_high)


def ensemble(policy, s0, seeds, cfg):
    """The per-anchor guided ensemble: members in seed order, each guided
    away from the finished earlier members."""
    outs = []
    for seed in seeds:
        outs.append(reverse_chain(policy, s0, seed, list(outs), cfg))
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
        actions = reverse_chain(policy, s0, int(samp_c.generate_state(1, np.uint64)[0]))
        traj = rollout_open_loop(env, s0, actions, np.random.default_rng(env_c), seed=seed)
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


def select_scores(policy, seeds, model, reward_fn, n_rollouts, initial_states, rng):
    """Per-sub-policy mean model-based returns, one plan at a time."""
    scores = np.zeros(len(seeds))
    for _ in range(n_rollouts):
        s0 = initial_states[rng.integers(len(initial_states))]
        noise = rng.standard_normal((policy.T, policy.d_s))
        for i, seed in enumerate(seeds):
            seq = reverse_chain(policy, s0, seed)
            s, total = s0, 0.0
            for t in range(policy.T):
                mean, var = dynamics.predict(model, s, seq[t])
                s_next = mean + np.sqrt(var) * noise[t]
                total += reward_fn(s, seq[t], s_next)
                s = s_next
            scores[i] += total / n_rollouts
    return scores


def step(env, s, a, rng):
    """One transition of one row, its noise drawn from rng."""
    return envs.step(env, s, a, rng.standard_normal(env.d_s))


def rollout_open_loop(env, s0, actions, rng, seed=0):
    """One open-loop rollout, stepped and drawn one transition at a time."""
    s = np.asarray(s0, dtype=float)
    states, nexts = [], []
    for a in actions:
        states.append(s)
        s = step(env, s, a, rng)
        nexts.append(s)
    states, nexts = np.stack(states), np.stack(nexts)
    return Trajectory(states, actions.copy(), nexts, envs.reward(env, states, actions, nexts),
                      seed=seed)


def collect_episodes(head, env, n_episodes, rng):
    """Episodes one after another, each stepped one transition at a time."""
    all_s, all_u, all_r = [], [], []
    ep_returns = np.empty(n_episodes)
    for e in range(n_episodes):
        s = envs.reset(env, rng.standard_normal(envs.RESET_DRAWS))
        for _ in range(env.horizon):
            a, u = finetune.sample_action(head, s, rng.standard_normal(env.d_a))
            s_next = step(env, s, a, rng)
            all_s.append(s)
            all_u.append(u)
            all_r.append(envs.reward(env, s, a, s_next))
            s = s_next
        ep_returns[e] = sum(all_r[-env.horizon:])
    return np.asarray(all_s), np.asarray(all_u), np.asarray(all_r), ep_returns


def gae(rewards, values, discount, lam):
    """Advantages of one episode, a scalar accumulator swept back over t."""
    deltas = rewards + discount * values[1:] - values[:-1]
    adv = np.empty_like(deltas)
    acc = 0.0
    for t in range(deltas.size - 1, -1, -1):
        acc = deltas[t] + discount * lam * acc
        adv[t] = acc
    return adv, adv + values[:-1]


def scripted_action(env, s, mode):
    """The demonstrators on one state, with the scalar branches."""
    if env.name == "point_mass":
        goal = env.goal_plus if mode == 0 else env.goal_minus
        act = 4.0 * (goal - s[:2]) - 3.5 * s[2:]
    else:
        theta, omega = s
        direction = 1.0 if mode == 0 else -1.0
        if np.cos(theta) > 0.9:
            act = np.array([-8.0 * theta - 2.0 * omega])
        else:
            energy = 0.5 * omega**2 + env.gravity * np.cos(theta)
            gap = env.gravity - energy
            sign = np.sign(omega) if abs(omega) > 0.2 else direction
            act = np.array([1.5 * gap * sign])
    return np.clip(act, env.action_low, env.action_high)


def make_offline_dataset(env, n_traj, mode_mix, rng, action_noise=envs.ACTION_NOISE,
                         horizon=None):
    """Demonstrations one trajectory and one step at a time."""
    horizon = env.horizon if horizon is None else horizon
    trajs = []
    for _ in range(n_traj):
        seed = int(rng.integers(0, 2**63))
        mode = 0 if rng.random() < mode_mix else 1
        init_rng, act_rng, env_rng = envs._traj_rngs(seed)
        s = envs.reset(env, init_rng.standard_normal(envs.RESET_DRAWS))
        states, actions, nexts = [], [], []
        for _ in range(horizon):
            a = scripted_action(env, s, mode)
            if action_noise > 0:
                a = np.clip(a + action_noise * act_rng.standard_normal(env.d_a),
                            env.action_low, env.action_high)
            states.append(s)
            actions.append(a)
            s = step(env, s, a, env_rng)
            nexts.append(s)
        states, actions, nexts = np.stack(states), np.stack(actions), np.stack(nexts)
        trajs.append(Trajectory(states, actions, nexts,
                                envs.reward(env, states, actions, nexts),
                                seed=seed, mode=mode))
    meta = {"env": env.name, "d_s": env.d_s, "d_a": env.d_a, "horizon": horizon,
            "sigma_env": env.sigma_env, "action_noise": action_noise,
            "mode_mix": [mode_mix, 1.0 - mode_mix], "n_traj": n_traj}
    return TrajectoryDataset(trajs, meta)


COVERAGE_GAP_Y = 0.5  # apply_coverage_gap withholds the point mass's y > this


def apply_coverage_gap(ds):
    """Split a point-mass dataset at the undersampled region y > COVERAGE_GAP_Y.

    Every trajectory is cut at its first transition touching the region;
    the prefixes form the training dataset, the withheld suffixes the
    held-out gap set. Both sides keep chain consistency and seeds.
    """
    if ds.meta["env"] != "point_mass":
        raise ConfigError("coverage gap is defined for the point-mass environment")
    kept, gap = [], []
    for tr in ds.trajectories:
        in_gap = (tr.states[:, 1] > COVERAGE_GAP_Y) | (tr.next_states[:, 1] > COVERAGE_GAP_Y)
        cut = int(np.argmax(in_gap)) if in_gap.any() else len(tr)
        if cut > 0:
            kept.append(Trajectory(tr.states[:cut], tr.actions[:cut], tr.next_states[:cut],
                                   None if tr.rewards is None else tr.rewards[:cut],
                                   seed=tr.seed, mode=tr.mode))
        if cut < len(tr):
            gap.append(Trajectory(tr.states[cut:], tr.actions[cut:], tr.next_states[cut:],
                                  None if tr.rewards is None else tr.rewards[cut:],
                                  seed=tr.seed, mode=tr.mode))
    kept_meta = dict(ds.meta, coverage_gap_y=COVERAGE_GAP_Y)
    gap_meta = dict(ds.meta, coverage_gap_heldout_y=COVERAGE_GAP_Y)
    return TrajectoryDataset(kept, kept_meta), TrajectoryDataset(gap, gap_meta)


def adam(params, grads, step_size=1e-3, b1=0.9, b2=0.999, eps=1e-8):
    """Adam's textbook expressions, each step building fresh arrays; returns
    the parameters and both moments after one step per gradient."""
    params = np.array(params, dtype=float)
    m = np.zeros_like(params)
    v = np.zeros_like(params)
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g**2
        m_hat = m / (1 - b1**t)
        v_hat = v / (1 - b2**t)
        params = params - step_size * m_hat / (np.sqrt(v_hat) + eps)
    return params, m, v


def distill(policy, seed, states, rng, hidden, epochs, batch_size, step_size, mse_target):
    """finetune.distill's loop with a fresh ``states[idx]``/``targets[idx]``
    gather per minibatch and fresh arrays at every step; returns the head
    and its last full-pool MSE, without the warning."""
    targets = diffusion.sample(policy, states, [seed] * len(states))[:, 0]
    head = finetune.make_head(policy.d_s, policy.d_a, hidden, rng,
                              policy.action_low, policy.action_high)
    params = nets.get_params(head.net)
    opt = nets.adam_init(params.size, step_size=step_size)
    mse = np.inf
    for _ in range(epochs):
        order = rng.permutation(len(states))
        for lo in range(0, len(states), batch_size):
            idx = order[lo:lo + batch_size]
            acts = nets.forward_activations(head.net, states[idx])
            squashed = np.tanh(acts[-1])
            err = head.center + head.half * squashed - targets[idx]
            upstream = 2.0 * err * head.half * (1.0 - squashed ** 2) / err.size
            nets.optimizer_step(opt, params, nets.backward(head.net, acts, upstream))
            nets.set_params(head.net, params)
        full = head.center + head.half * np.tanh(nets.forward(head.net, states))
        mse = float(np.mean((full - targets) ** 2))
        if mse < mse_target:
            break
    return head, mse


def replay_consistent(env, traj):
    """Re-step every recorded (s_t, a_t) with the trajectory's transition
    draws and demand bit-equal next states."""
    z = envs._traj_rngs(traj.seed)[2].standard_normal((len(traj), env.d_s))
    return bool(np.array_equal(envs.step(env, traj.states, traj.actions, z), traj.next_states))


def net_checkpoint(net):
    """A bare net's checkpoint, as the ``uepo.nets`` docstring lays it out:
    magic, version, width count, widths, then the parameters."""
    w = net.layer_widths
    return (b"UEPO" + struct.pack("<II", 1, len(w)) + struct.pack(f"<{len(w)}I", *w)
            + struct.pack(f"<{net.params.size}d", *net.params))


def policy_checkpoint(policy):
    k = policy.schedule.k
    return (net_checkpoint(policy.denoiser) + struct.pack("<I", k)
            + struct.pack(f"<{k}d", *policy.schedule.beta)
            + struct.pack("<III", policy.T, policy.d_a, policy.d_s))


def dynamics_checkpoint(model):
    return net_checkpoint(model.net) + struct.pack("<II", model.d_s, model.d_a)


def head_checkpoint(head):
    d_a = head.d_a
    return (net_checkpoint(head.net) + struct.pack("<I", d_a)
            + struct.pack(f"<{3 * d_a}d", *head.log_std, *head.action_low, *head.action_high))


def check_chain(traj):
    """True when each step's next state equals the following step's state."""
    return bool(np.array_equal(traj.next_states[:-1], traj.states[1:]))


def mode_counts(ds):
    """Trajectories per mode label, unlabelled ones left out."""
    counts = {}
    for tr in ds.trajectories:
        if tr.mode is not None:
            counts[tr.mode] = counts.get(tr.mode, 0) + 1
    return counts


def evaluate_head(head, env, n_episodes, rng):
    """Mean return of ``finetune.collect_episodes``' fresh stochastic episodes."""
    return float(finetune.collect_episodes(head, env, n_episodes, rng)[3].mean())


def clone_dynamics(m):
    """A dynamics model with a copy of ``m``'s parameters."""
    return dynamics.GaussianDynamics(nets.Mlp(list(m.net.layer_widths), m.net.params.copy()),
                                     m.d_s, m.d_a)

"""Output checks computed apart from the program.

Nothing here imports ``uepo``. The transition laws, the checkpoint
layout, the tanh-MLP forward pass, the Gaussian KL, the dynamics NLL and
the sequence divergence are written out again from their documented
definitions, so a fault in the program cannot cancel out in its own
check. Every check raises :class:`CheckFailed` with a reason, or returns.
"""

import hashlib
import json
import math
import os
import struct

import numpy as np

# Largest residual, in units of sigma_env, that a transition may show. A
# Gaussian draw lies beyond 6.5 sigma with probability 8e-11.
MAX_RESIDUAL_SIGMAS = 6.5
# Agreement demanded between a value the program wrote and the same value
# recomputed here with another summation order.
RECOMPUTE_TOL = 1e-9
LOG_VAR_MIN, LOG_VAR_MAX = -10.0, 2.0


class CheckFailed(Exception):
    """A program output disagrees with its independent recomputation."""


def require(cond, message):
    if not cond:
        raise CheckFailed(message)


# --- transition laws --------------------------------------------------------

# point_mass: v' = (1 - damping) v + dt a, p' = p + dt v, actions in [-1, 1]
# pendulum: w' = w + dt (g sin th + u), th' = wrap(th + dt w), torque in [-2, 2]
ACTION_BOX = {"point_mass": (-1.0, 1.0), "pendulum": (-2.0, 2.0)}


def wrap_angle(x):
    return np.pi - np.mod(np.pi - x, 2.0 * np.pi)


def law_mean(env, s, a):
    """Noise-free next states of the (N, d_s) states under the (N, d_a) actions."""
    low, high = ACTION_BOX[env]
    a = np.clip(a, low, high)
    if env == "point_mass":
        p, v = s[:, :2], s[:, 2:]
        return np.concatenate([p + 0.1 * v, (1.0 - 0.05) * v + 0.1 * a], axis=1)
    theta, omega = s[:, 0], s[:, 1]
    omega_next = omega + 0.05 * (9.8 * np.sin(theta) + a[:, 0])
    return np.stack([wrap_angle(theta + 0.05 * omega), omega_next], axis=1)


def law_residual(env, s, a, s_next):
    r = s_next - law_mean(env, s, a)
    if env == "pendulum":
        r[:, 0] = wrap_angle(r[:, 0])
    return r


# --- file readers -----------------------------------------------------------


def sha256_file(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def read_dataset(path):
    """(header, [(states, actions, next_states), ...]) from a dataset file."""
    with open(path, "r", encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    require(records, f"{path}: empty dataset file")
    header = records[0]
    d_s, d_a = int(header["d_s"]), int(header["d_a"])
    trajs = [(np.asarray(r["states"], float).reshape(-1, d_s),
              np.asarray(r["actions"], float).reshape(-1, d_a),
              np.asarray(r["next_states"], float).reshape(-1, d_s))
             for r in records[1:]]
    return header, trajs


def stack(trajs):
    """All (s, a, s') rows of a trajectory list, in order."""
    return tuple(np.concatenate([t[i] for t in trajs]) for i in range(3))


def n_rows(trajs):
    return sum(len(t[0]) for t in trajs)


def read_checkpoint(path, trailer_fmt):
    """Layers [(W, b), ...] and the trailer tuple of a UEPO checkpoint.

    Layout: b"UEPO", version u32 = 1, width count u32, widths u32 each,
    then per layer W (fan_out x fan_in, row-major) and b as f64, then the
    trailer. The file must end exactly there.
    """
    with open(path, "rb") as fh:
        buf = fh.read()
    require(buf[:4] == b"UEPO", f"{path}: bad magic")
    require(struct.unpack_from("<I", buf, 4)[0] == 1, f"{path}: unknown version")
    (n,) = struct.unpack_from("<I", buf, 8)
    widths = struct.unpack_from(f"<{n}I", buf, 12)
    off = 12 + 4 * n
    layers = []
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        w = np.frombuffer(buf, "<f8", fan_in * fan_out, off).reshape(fan_out, fan_in)
        off += 8 * fan_in * fan_out
        b = np.frombuffer(buf, "<f8", fan_out, off)
        off += 8 * fan_out
        layers.append((w.astype(float), b.astype(float)))
    trailer = struct.unpack_from(trailer_fmt, buf, off)
    off += struct.calcsize(trailer_fmt)
    require(off == len(buf), f"{path}: {len(buf) - off} trailing bytes")
    return layers, trailer


def read_dynamics(path):
    layers, (d_s, d_a) = read_checkpoint(path, "<II")
    return layers, d_s


def mlp_forward(layers, x):
    """tanh hidden layers, linear output."""
    h = x
    for i, (w, b) in enumerate(layers):
        h = h @ w.T + b
        if i < len(layers) - 1:
            h = np.tanh(h)
    return h


def model_dist(layers, d_s, s, a):
    out = mlp_forward(layers, np.concatenate([s, a], axis=1))
    log_var = np.clip(out[:, d_s:], LOG_VAR_MIN, LOG_VAR_MAX)
    return out[:, :d_s], np.exp(log_var)


def gaussian_kl_rows(p_mean, p_var, q_mean, q_var):
    """KL(N(p) || N(q)) per row, summed over the diagonal."""
    return 0.5 * np.sum(np.log(q_var / p_var) + p_var / q_var
                        + (p_mean - q_mean) ** 2 / q_var - 1.0, axis=1)


def mean_nll(layers, d_s, s, a, s_next):
    mean, var = model_dist(layers, d_s, s, a)
    per_row = 0.5 * np.sum(np.log(2.0 * np.pi) + np.log(var) + (s_next - mean) ** 2 / var,
                           axis=1)
    return float(np.mean(per_row))


def read_csv(path):
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def read_key_values(path):
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if "=" in line:
                key, _, val = line.partition("=")
                values[key.strip()] = val.strip()
    return values


def as_float(text, where):
    try:
        return float(text)
    except ValueError:
        raise CheckFailed(f"{where}: {text!r} does not parse as a number") from None


# --- checks -----------------------------------------------------------------


def check_manifests(out, stages):
    """Every sha256 a manifest names equals the hash of that file now."""
    for stage in stages:
        path = os.path.join(out, f"{stage}.manifest")
        require(os.path.isfile(path), f"no manifest for {stage}")
        entries = read_key_values(path)
        require(entries.get("stage") == stage, f"{path}: names stage {entries.get('stage')!r}")
        named = {k.partition(".")[2]: v for k, v in entries.items()
                 if k.startswith(("input.", "output."))}
        require(named, f"{path}: lists no files")
        for name, digest in named.items():
            target = os.path.join(out, name)
            require(os.path.isfile(target), f"{stage}: {name} is missing")
            require(sha256_file(target) == digest, f"{stage}: sha256 of {name} differs")


def manifest_digest(out, stages):
    return {stage: sha256_file(os.path.join(out, f"{stage}.manifest")) for stage in stages
            if os.path.isfile(os.path.join(out, f"{stage}.manifest"))}


def check_transition_law(env, sigma, trajs, what):
    """Chained trajectories whose residuals are N(0, sigma^2) draws.

    The residual rms must lie within five standard errors of sigma
    (a relative error of 5 / sqrt(2n) for n residuals), and no single
    residual may exceed MAX_RESIDUAL_SIGMAS.
    """
    require(trajs, f"{what}: no trajectories")
    low, high = ACTION_BOX[env]
    for i, (s, a, s_next) in enumerate(trajs):
        require(np.array_equal(s_next[:-1], s[1:]),
                f"{what}: trajectory {i} breaks next_states[t] == states[t+1]")
        require(np.all((a >= low) & (a <= high)), f"{what}: trajectory {i} leaves the action box")
    z = law_residual(env, *stack(trajs)) / sigma
    worst = float(np.max(np.abs(z)))
    require(worst < MAX_RESIDUAL_SIGMAS,
            f"{what}: a residual lies {worst:.1f} sigma off the transition law")
    rms = math.sqrt(float(np.mean(z * z)))
    tol = 5.0 / math.sqrt(2.0 * z.size)
    require(abs(rms - 1.0) <= tol,
            f"{what}: residual std is {rms:.4f} sigma_env (allowed 1 +- {tol:.4f})")


def check_filter_kl(env, sigma, layers, d_s, trajs, epsilon, n_accepted):
    """Every accepted trajectory's mean KL(true law || model) is below epsilon."""
    require(len(trajs) == n_accepted,
            f"{len(trajs)} synthetic trajectories, the report says {n_accepted} accepted")
    for i, (s, a, _) in enumerate(trajs):
        q_mean, q_var = model_dist(layers, d_s, s, a)
        p_mean = law_mean(env, s, a)
        score = float(np.mean(gaussian_kl_rows(p_mean, np.full_like(p_mean, sigma ** 2),
                                               q_mean, q_var)))
        require(score < epsilon + RECOMPUTE_TOL,
                f"synthetic trajectory {i} scores KL {score:.4f} >= epsilon {epsilon}")


def check_curve(curve, own_final, what):
    """Finite curve whose last point is the recomputed NLL and lies below its first."""
    require(len(curve) >= 2 and all(math.isfinite(v) for v in curve), f"{what}: bad curve")
    require(abs(curve[-1] - own_final) <= RECOMPUTE_TOL,
            f"{what}: final NLL {curve[-1]!r} but recomputed {own_final!r}")
    require(curve[-1] < curve[0], f"{what}: curve ends at {curve[-1]:.4f} above its start "
                                  f"{curve[0]:.4f}")


def read_curve(path):
    _, rows = read_csv(path)
    return [as_float(r[1], path) for r in rows]


def check_denoiser_loss(losses):
    require(losses and all(math.isfinite(v) for v in losses), "denoiser loss is not finite")
    tenth = max(1, len(losses) // 10)
    first, last = float(np.mean(losses[:tenth])), float(np.mean(losses[-tenth:]))
    require(last < first, f"denoiser loss: last tenth {last:.4f} >= first tenth {first:.4f}")


def own_div(a_i, a_j):
    """Velocity L2 plus (1 - cosine) of acceleration rows, over T, index by index."""
    horizon, dim = a_i.shape
    vel_i = [[a_i[t + 1][k] - a_i[t][k] for k in range(dim)] for t in range(horizon - 1)]
    vel_j = [[a_j[t + 1][k] - a_j[t][k] for k in range(dim)] for t in range(horizon - 1)]
    total = 0.0
    for t in range(horizon - 1):
        total += math.sqrt(sum((vel_i[t][k] - vel_j[t][k]) ** 2 for k in range(dim)))
    for t in range(horizon - 2):
        x = [vel_i[t + 1][k] - vel_i[t][k] for k in range(dim)]
        y = [vel_j[t + 1][k] - vel_j[t][k] for k in range(dim)]
        nx = math.sqrt(sum(v * v for v in x))
        ny = math.sqrt(sum(v * v for v in y))
        if x == y or nx == 0.0 or ny == 0.0:
            cos = 1.0
        else:
            cos = min(1.0, max(-1.0, sum(p * q for p, q in zip(x, y)) / (nx * ny)))
        total += 1.0 - cos
    return float(total / horizon)


def check_ensemble(actions_csv, div_csv, env, n_members, n_states):
    """Divergences recomputed from the sampled actions; actions inside the box."""
    _, rows = read_csv(actions_csv)
    seqs = {}
    for r in rows:
        si, m, t = int(r[0]), int(r[1]), int(r[2])
        seqs.setdefault(si, {}).setdefault(m, {})[t] = [float(v) for v in r[3:]]
    require(len(seqs) == n_states, f"{len(seqs)} ensemble states, expected {n_states}")
    low, high = ACTION_BOX[env]
    _, div_rows = read_csv(div_csv)
    require(len(div_rows) == n_states, f"{len(div_rows)} divergence rows for {n_states} states")
    for r in div_rows:
        members = seqs.get(int(r[0]))
        require(members is not None and len(members) == n_members,
                f"state {r[0]}: expected {n_members} members")
        arrs = [np.array([members[m][t] for t in sorted(members[m])]) for m in sorted(members)]
        for arr in arrs:
            require(np.all((arr >= low) & (arr <= high)),
                    f"state {r[0]}: a sampled action leaves [{low}, {high}]")
        own = min(own_div(arrs[i], arrs[j])
                  for i in range(len(arrs)) for j in range(i + 1, len(arrs)))
        value = as_float(r[1], div_csv)
        require(abs(own - value) <= RECOMPUTE_TOL,
                f"state {r[0]}: divergence {value!r} but recomputed {own!r}")


def check_eval(eval_csv, eval_txt):
    _, rows = read_csv(eval_csv)
    returns = [as_float(r[1], eval_csv) for r in rows]
    require(returns, "no eval episodes")
    require(all(v <= 0.0 for v in returns), "an eval return is positive")
    stated = as_float(read_key_values(eval_txt).get("mean_return", "missing"), eval_txt)
    own = math.fsum(returns) / len(returns)
    require(abs(own - stated) <= 1e-12 * max(1.0, abs(own)),
            f"eval.txt mean {stated!r} but the returns average {own!r}")


def check_div_status(path):
    status = read_key_values(path).get("status")
    require(status == "ok", f"div-check reports status {status!r}")


def check_select_argmax(selection_txt, scores_csv):
    """best_index is the first maximum of the recorded scores."""
    best = int(read_key_values(selection_txt)["best_index"])
    _, rows = read_csv(scores_csv)
    scores = [as_float(r[2], scores_csv) for r in rows]
    argmax = max(range(len(scores)), key=lambda i: (scores[i], -i))
    require(best == argmax, f"best_index {best} but the scores peak at {argmax}")

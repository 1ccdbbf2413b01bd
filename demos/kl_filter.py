"""The trajectory filter at work: a well-fit dynamics model lets synthetic
rollouts through, a biased one starves the augmentation loop.

Every candidate rollout is scored by the mean per-transition KL between
the environment's true transition law and the model's prediction, and
kept only when that score is strictly below epsilon. The demo builds
both endings: first a model trained on data that covers the policy's
own rollouts, then a hand-made model whose mean is off by 1.0 in one
state dimension, which puts every score at exactly 0.5.

Run:  python3 demos/kl_filter.py
"""

import numpy as np

from uepo import diffusion, dynamics, envs
from uepo.augmentation import (FilterConfig, build_augmented, kl_histogram,
                               report_items, rollout_virtual)
from uepo.config import format_value
from uepo.datasets import Trajectory, TrajectoryDataset, initial_states, transitions
from uepo.errors import StarvationError

env = envs.PointMass2D(sigma_env=0.05)
ds = envs.make_offline_dataset(env, 15, 0.5, np.random.default_rng(41))
print(f"real dataset: {len(ds.trajectories)} trajectories")

rng = np.random.default_rng(42)
policy = diffusion.make_policy(8, 2, 4, [48, 48], rng,
                               schedule=diffusion.make_linear_schedule(50, 1e-4, 0.2),
                               action_low=env.action_low,
                               action_high=env.action_high)
anchors, windows_a = diffusion.sliding_windows(ds, 8, env.horizon)
diffusion.train_denoiser(policy, anchors, windows_a, 800, 128, 1e-3, rng)

# fit the model on the demonstrations plus rollouts of this same policy,
# so it is accurate exactly where the filter will score it
pool = initial_states(ds)
cover_rng = np.random.default_rng(99)
trajs = list(ds.trajectories)
for _ in range(60):
    s0 = pool[int(cover_rng.integers(0, len(pool)))]
    states, actions, nexts, _, _ = rollout_virtual(env, policy, s0[None],
                                                   [int(cover_rng.integers(0, 2 ** 63))])
    trajs.append(Trajectory(states[0], actions[0], nexts[0]))
s, a, s_next = transitions(TrajectoryDataset(trajs, dict(ds.meta)))
covered = dynamics.TransitionBatch(s, a, s_next)

model = dynamics.make_dynamics(4, 2, [64, 64], np.random.default_rng(100))
shuffle = np.random.default_rng(200)
print("training the dynamics model on demonstrations + policy rollouts")
for epochs, lr in ((200, 1e-3), (150, 3e-4), (100, 1e-4)):
    curve = dynamics.train_joint(model, covered, None, epochs, shuffle,
                                 batch_size=256, step_size=lr)
print(f"  pool NLL after training: {curve[-1][1]:.3f}")

synthetic, report = build_augmented(env, policy, model, ds,
                                    FilterConfig(epsilon=0.5, ratio=2.0),
                                    np.random.default_rng(300))
print("\nfilter report (well-fit model):")
for key, value in report_items(report):
    print(f"  {key} = {format_value(value)}")

print("\nKL score histogram:")
for lo, hi, count in kl_histogram(report.kl_values, n_bins=10):
    bar = "#" * count
    print(f"  [{lo:6.3f}, {hi:6.3f})  {bar}")

print("\nnow a model whose predicted mean is wrong by 1.0 in dim 0")
env_hard = envs.PointMass2D(sigma_env=1.0)
ds_hard = envs.make_offline_dataset(env_hard, 5, 0.5, np.random.default_rng(43))


class OffsetModel:
    def predict(self, s, a):
        mean, var = envs.true_dist(env_hard, s, a)
        shifted = mean.copy()
        shifted[..., 0] += 1.0
        return shifted, np.ones_like(var)


try:
    build_augmented(env_hard, policy, OffsetModel(), ds_hard,
                    FilterConfig(epsilon=0.3, ratio=2.0, max_attempts=25),
                    np.random.default_rng(301))
except StarvationError as exc:
    scores = np.asarray(exc.kl_values)
    print(f"  starved as expected: {exc}")
    print(f"  every score within {np.abs(scores - 0.5).max():.2e} of the "
          "closed-form 0.5")

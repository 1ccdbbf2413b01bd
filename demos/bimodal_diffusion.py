"""Train a diffusion policy on two-goal demonstrations and watch it keep
both modes, then see divergence guidance push an ensemble apart.

The point-mass dataset mixes trajectories that steer to g+ = (1, 1) and
g- = (1, -1). A unimodal regressor trained on this data would average
the two behaviors and reach neither goal; the diffusion policy samples
whole action sequences and lands near one goal or the other. Everything
is seeded, so two runs print identical numbers.

Run:  python3 demos/bimodal_diffusion.py
"""

import numpy as np

from uepo import diffusion, envs
from uepo.divergence import DivergenceConfig, min_pairwise_div

env = envs.PointMass2D()
print("collecting 200 scripted demonstrations (half per goal)")
ds = envs.make_offline_dataset(env, 200, 0.5, np.random.default_rng(11))

anchors, windows_a = diffusion.sliding_windows(ds, 40, env.horizon)
rng = np.random.default_rng(5)
policy = diffusion.make_policy(40, 2, 4, [256, 256], rng,
                               schedule=diffusion.make_linear_schedule(50, 1e-4, 0.2),
                               action_low=env.action_low,
                               action_high=env.action_high)

print("training the denoiser (2000 steps, two step-size stages)")
losses = diffusion.train_denoiser(policy, anchors, windows_a, 1200, 192, 1e-3, rng)
losses += diffusion.train_denoiser(policy, anchors, windows_a, 800, 192, 3e-4, rng)
print(f"  denoising loss {losses[0]:.3f} -> {losses[-1]:.3f}")

n_plus = n_minus = n_neither = 0
origin = np.zeros((1, 4))
for seed in range(200):
    actions = diffusion.sample(policy, origin, [seed])
    (d_plus,), (d_minus,) = envs.goal_distances(env, origin, actions)
    if d_plus < 0.3:
        n_plus += 1
    elif d_minus < 0.3:
        n_minus += 1
    else:
        n_neither += 1
print("\n200 sampled rollouts from the origin:")
print(f"  within 0.3 of g+ : {n_plus}")
print(f"  within 0.3 of g- : {n_minus}")
print(f"  neither          : {n_neither}")

print("\nsecond act: a policy whose samples are nearly identical, so the")
print("divergence guidance actually has something to do. The data is 200")
print("constant sequences at +0.8 or -0.8; members of an unguided ensemble")
print("often collapse onto the same constant.")
rng2 = np.random.default_rng(4)
flat = diffusion.make_policy(4, 1, 1, [64, 64], rng2,
                             schedule=diffusion.make_linear_schedule(50, 1e-4, 0.2),
                             action_low=-1.0, action_high=1.0)
const_a = np.concatenate([np.full((100, 4, 1), 0.8), np.full((100, 4, 1), -0.8)])
diffusion.train_denoiser(flat, np.zeros((200, 1)), const_a, 3000, 128, 1e-3, rng2)

print("\n  min pairwise divergence of 4-member ensembles")
print("  base_seed   eta=0.1   eta=0")
guided_cfg = DivergenceConfig(tau=0.5, eta=0.1, guided_steps=10)
plain_cfg = DivergenceConfig(tau=0.5, eta=0.0, guided_steps=10)
flat_anchor = np.zeros((1, 1))
guided, plain = [], []
for base_seed in range(8):
    seeds = diffusion.member_seeds(4, base_seed)
    g = min_pairwise_div(diffusion.sample_ensemble(flat, flat_anchor, seeds, guided_cfg)[0])
    p = min_pairwise_div(diffusion.sample_ensemble(flat, flat_anchor, seeds, plain_cfg)[0])
    guided.append(g)
    plain.append(p)
    print(f"  {base_seed:9d}   {g:7.4f}   {p:7.4f}")
print(f"  mean        {np.mean(guided):7.4f}   {np.mean(plain):7.4f}")
print("\nguidance is itself random, so single rows can go either way; the")
print("mean is the claim, and it rises because perturbation only ever fires")
print("on members that sit within tau of an earlier one.")

"""Desk-scale offline-to-online RL with diffusion action-sequence policies.

The pipeline: learn a conditional diffusion policy from demonstrations,
spread a seed ensemble of sub-policies apart with dynamics-level
divergence guidance, filter synthetic policy rollouts through a learned
Gaussian dynamics model by KL score, pick the best sub-policy against
the refit model, distill it into a Gaussian head, and fine-tune that
head with clipped policy gradients in the real environment.
"""

from . import (augmentation, cli, config, datasets, diffusion, divergence,
               dynamics, envs, errors, finetune, nets)

__version__ = "0.1.0"

"""Desk-scale offline-to-online RL with diffusion action-sequence policies.

The pipeline: learn a conditional diffusion policy from demonstrations,
spread a seed ensemble of sub-policies apart with dynamics-level
divergence guidance, filter synthetic policy rollouts through a learned
Gaussian dynamics model by KL score, pick the best sub-policy against
the refit model, distill it into a Gaussian head, and fine-tune that
head with clipped policy gradients in the real environment.
"""

from . import (augmentation, cli, config, datasets, diffusion, divergence,
               dynamics, envs, errors, finetune, nets, objective)
from .augmentation import FilterConfig, build_augmented, trajectory_kl
from .config import RunConfig, load_config, parse_config
from .datasets import Trajectory, TrajectoryDataset, load_dataset, save_dataset
from .diffusion import (DiffusionPolicy, EnsembleSpec, make_ensemble_spec,
                        make_linear_schedule, make_policy, sample, sample_ensemble,
                        train_denoiser)
from .divergence import DivergenceConfig, div, guide, sigma_div
from .dynamics import (GaussianDynamics, TransitionBatch, gaussian_kl,
                       make_dynamics, train_joint)
from .envs import make_env, make_offline_dataset
from .finetune import GaussianPolicy, PpoConfig, distill, ppo_finetune, select_policy
from .objective import ObjectiveConfig, ensemble_objective

__version__ = "0.1.0"

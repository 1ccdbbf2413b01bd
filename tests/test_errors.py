import math

import numpy as np
import pytest

from uepo import augmentation, diffusion, divergence, dynamics, envs, finetune, nets
from uepo.errors import RULES, ConfigError, require

# each rule with (admitted, refused) pairs: a boundary value and the value next to it
_EDGES = {
    "> 0": [(1, 0), (math.ulp(0.0), 0.0)],
    ">= 0": [(0, -1), (0.0, -math.ulp(0.0))],
    ">= 3": [(3, 2), (3.0, math.nextafter(3.0, 0.0))],
    "in [0, 1]": [(0.0, -math.ulp(0.0)), (1.0, math.nextafter(1.0, 2.0))],
    "positive": [((1,), (0,)), ((64, 1), (64, 0))],
    "non-empty": [("x", "")],
}


def test_every_rule_has_edges():
    assert set(_EDGES) == set(RULES)


@pytest.mark.parametrize("rule", sorted(RULES))
def test_rule_admits_its_boundary_and_refuses_the_next_value(rule):
    for admitted, refused in _EDGES[rule]:
        require("x", admitted, rule)
        with pytest.raises(ConfigError):
            require("x", refused, rule)


@pytest.mark.parametrize("rule,value", [("> 0", math.nan), (">= 0", math.nan),
                                        (">= 3", math.nan), ("in [0, 1]", math.nan),
                                        ("positive", (32, math.nan))])
def test_numeric_rules_refuse_nan(rule, value):
    with pytest.raises(ConfigError, match=r"^x must be .*nan\)?$"):
        require("x", value, rule)


def test_message_starts_with_the_name():
    with pytest.raises(ConfigError) as exc:
        require("ensemble.tau", -1.0, "> 0")
    assert str(exc.value) == "ensemble.tau must be > 0, got -1.0"
    with pytest.raises(ConfigError) as exc:
        require("out", "", "non-empty")
    assert str(exc.value) == "out must be non-empty, got ''"


_ENV = envs.make_env("point_mass")

# every library check of a RULES entry, with the message it raises
_LIBRARY_CHECKS = [
    (lambda: augmentation.FilterConfig(epsilon=0.0), "epsilon must be > 0, got 0.0"),
    (lambda: augmentation.FilterConfig(max_attempts=0), "max_attempts must be > 0, got 0"),
    (lambda: augmentation.filter_trajectory(math.nan, augmentation.FilterConfig()),
     "score must be >= 0, got nan"),
    (lambda: diffusion.make_linear_schedule(0), "k must be > 0, got 0"),
    (lambda: diffusion.sliding_windows(None, 3, 0), "stride must be > 0, got 0"),
    (lambda: diffusion.member_seeds(0, 17), "n must be > 0, got 0"),
    (lambda: divergence.DivergenceConfig(math.nan, 0.1), "tau must be > 0, got nan"),
    (lambda: divergence.DivergenceConfig(0.5, -0.1), "eta must be >= 0, got -0.1"),
    (lambda: divergence.DivergenceConfig(0.5, 0.1, 0), "guided_steps must be > 0, got 0"),
    (lambda: divergence.sigma_div(-1.0, divergence.DivergenceConfig(0.5, 0.1)),
     "d must be >= 0, got -1.0"),
    (lambda: divergence.perturb(np.zeros(2), -1.0, None), "sigma must be >= 0, got -1.0"),
    (lambda: dynamics.train_joint(None, None, None, 0, None), "epochs must be > 0, got 0"),
    (lambda: envs.make_env("pendulum", sigma_env=math.nan), "sigma_env must be > 0, got nan"),
    (lambda: envs.make_env("point_mass", horizon=0), "horizon must be > 0, got 0"),
    (lambda: envs.make_offline_dataset(_ENV, 0, 0.5, None), "n_traj must be > 0, got 0"),
    (lambda: envs.make_offline_dataset(_ENV, 1, 1.5, None),
     "mode_mix must be in [0, 1], got 1.5"),
    (lambda: finetune.select_policy(None, (1,), None, None, 0, np.zeros((1, 4)), None),
     "n_rollouts must be > 0, got 0"),
    (lambda: finetune.PpoConfig(epochs_per_batch=0), "epochs_per_batch must be > 0, got 0"),
    (lambda: finetune.PpoConfig(batch_episodes=0), "batch_episodes must be > 0, got 0"),
    (lambda: finetune.collect_episodes(None, _ENV, 0, None), "n_episodes must be > 0, got 0"),
    (lambda: nets.adam_init(3, 0.0), "step_size must be > 0, got 0.0"),
]

_POLICY = diffusion.make_policy(4, 1, 2, [8], np.random.default_rng(0),
                                schedule=diffusion.make_linear_schedule(4, 1e-4, 0.2),
                                action_low=-1.0, action_high=1.0)
_STATES = np.random.default_rng(1).uniform(-1, 1, size=(6, 2))
_MODEL = dynamics.make_dynamics(2, 1, [8], np.random.default_rng(2))
_REAL = dynamics.TransitionBatch(np.ones((5, 2)), np.zeros((5, 1)), np.ones((5, 2)))
_HEAD = finetune.make_head(4, 2, (8,), np.random.default_rng(8), _ENV.action_low,
                           _ENV.action_high)


def _distill(**kw):
    return finetune.distill(_POLICY, 17, _STATES, np.random.default_rng(4), **kw)


def _train_joint(**kw):
    return dynamics.train_joint(_MODEL, _REAL, None, 3, np.random.default_rng(5), **kw)


def _train_denoiser(steps=5, batch_size=4):
    return diffusion.train_denoiser(_POLICY, _STATES, np.zeros((6, 4, 1)), steps, batch_size,
                                    1e-3, np.random.default_rng(6))


# the training counts, checked before the first optimizer step: each case once
# trained nothing without an error, or failed naming another argument
_COUNT_CHECKS = [
    ("distill-epochs=0", lambda: _distill(epochs=0), "epochs must be > 0, got 0"),
    ("distill-epochs=-3", lambda: _distill(epochs=-3), "epochs must be > 0, got -3"),
    ("distill-batch_size=0", lambda: _distill(batch_size=0), "batch_size must be > 0, got 0"),
    ("distill-batch_size=-1", lambda: _distill(batch_size=-1),
     "batch_size must be > 0, got -1"),
    ("train_joint-batch_size=0", lambda: _train_joint(batch_size=0),
     "batch_size must be > 0, got 0"),
    ("train_joint-batch_size=-2", lambda: _train_joint(batch_size=-2),
     "batch_size must be > 0, got -2"),
    ("train_joint-batch_size=-2-no-curve", lambda: _train_joint(batch_size=-2, curve=False),
     "batch_size must be > 0, got -2"),
    ("train_denoiser-steps=0", lambda: _train_denoiser(steps=0), "steps must be > 0, got 0"),
    ("train_denoiser-steps=-1", lambda: _train_denoiser(steps=-1), "steps must be > 0, got -1"),
    ("train_denoiser-batch_size=0", lambda: _train_denoiser(batch_size=0),
     "batch_size must be > 0, got 0"),
    ("ppo_finetune-iterations=0",
     lambda: finetune.ppo_finetune(_HEAD, _ENV, finetune.PpoConfig(), 0, np.random.default_rng(7)),
     "iterations must be > 0, got 0"),
]


@pytest.mark.parametrize(
    "call,message", _LIBRARY_CHECKS + [(call, message) for _, call, message in _COUNT_CHECKS],
    ids=[message.split()[0] for _, message in _LIBRARY_CHECKS] + [i for i, _, _ in _COUNT_CHECKS])
def test_library_checks_use_the_table(call, message):
    with pytest.raises(ConfigError) as exc:
        call()
    assert str(exc.value) == message

"""Run configuration: flat key=value files with dotted keys.

A config file is plain text, one `key = value` assignment per line, with
`#` comments and blank lines ignored. Every key has a typed default below;
unknown keys are rejected so a typo fails loudly instead of silently running
with defaults.
"""

import dataclasses
import hashlib

import numpy as np

from . import augmentation, diffusion, envs, finetune
from .errors import ConfigError

_PPO = finetune.PpoConfig()  # the library's PPO defaults


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_int_list(text: str) -> tuple:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise ValueError("empty list")
    return tuple(int(p) for p in parts)


def format_value(value) -> str:
    """The text of one value in a config or artifact file: any float,
    numpy's included, as its shortest round-tripping repr."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return repr(float(value)) if isinstance(value, (float, np.floating)) else str(value)


@dataclasses.dataclass(frozen=True)
class _Field:
    parse: object
    default: object
    check: object
    doc: str


def _positive(name):
    return lambda v: v > 0 or _fail(f"{name} must be > 0, got {v}")


def _non_negative(name):
    return lambda v: v >= 0 or _fail(f"{name} must be >= 0, got {v}")


def _unit_interval(name):
    return lambda v: 0.0 <= v <= 1.0 or _fail(f"{name} must be in [0, 1], got {v}")


def _fail(msg):
    raise ConfigError(msg)


# One flat schema for the whole pipeline. Stage code reads only the keys it
# needs; validation always covers every key so a bad value fails at load time
# rather than three stages in.
SCHEMA = {
    "env.name": _Field(str, "point_mass",
                       lambda v: v in envs.ENVS or _fail(
                           f"env.name must be one of {tuple(envs.ENVS)}, got {v!r}"),
                       "environment to instantiate"),
    "env.sigma_env": _Field(float, 0.05, _non_negative("env.sigma_env"),
                            "transition noise std"),
    "env.n_traj": _Field(int, 60, _positive("env.n_traj"),
                         "trajectories generated by gen-data"),
    "env.mode_mix": _Field(float, 0.5, _unit_interval("env.mode_mix"),
                           "probability of the first scripted mode"),
    "diffusion.k": _Field(int, diffusion.DEFAULT_K, _positive("diffusion.k"), "denoising steps"),
    "diffusion.beta_min": _Field(float, diffusion.DEFAULT_BETA_MIN, _positive("diffusion.beta_min"),
                                 "noise schedule start"),
    "diffusion.beta_max": _Field(float, diffusion.DEFAULT_BETA_MAX, _positive("diffusion.beta_max"),
                                 "noise schedule end"),
    "diffusion.T": _Field(int, 12, lambda v: v >= 3 or _fail(
        "diffusion.T must be >= 3"), "action sequence length"),
    "diffusion.widths": _Field(_parse_int_list, (128, 128),
                               lambda v: all(w > 0 for w in v) or _fail(
                                   "diffusion.widths must be positive"),
                               "denoiser hidden widths"),
    "diffusion.train_steps": _Field(int, 2000, _positive("diffusion.train_steps"),
                                    "denoiser gradient steps"),
    "diffusion.batch_size": _Field(int, 128, _positive("diffusion.batch_size"),
                                   "denoiser batch size"),
    "diffusion.window_stride": _Field(int, 4, _positive("diffusion.window_stride"),
                                      "sliding-window stride"),
    "ensemble.n": _Field(int, 4, lambda v: v >= 1 or _fail(
        "ensemble.n must be >= 1"), "sub-policy count"),
    "ensemble.tau": _Field(float, 0.5, _positive("ensemble.tau"),
                           "divergence threshold"),
    "ensemble.eta": _Field(float, 0.1, _non_negative("ensemble.eta"),
                           "guidance noise scale"),
    "ensemble.guided_steps": _Field(int, 10, _positive("ensemble.guided_steps"),
                                    "denoising steps with guidance active"),
    "ensemble.n_states": _Field(int, 5, _positive("ensemble.n_states"),
                                "initial states sampled by sample-ensemble"),
    "filter.epsilon": _Field(float, augmentation.DEFAULT_EPSILON, _positive("filter.epsilon"),
                             "KL acceptance threshold"),
    "filter.ratio": _Field(float, augmentation.DEFAULT_RATIO,
                           lambda v: augmentation.FilterConfig(ratio=v),
                           "synthetic-to-real transition ratio"),
    "filter.max_attempts": _Field(int, 0, _non_negative("filter.max_attempts"),
                                  "rollout budget; 0 uses the library default"),
    "dynamics.widths": _Field(_parse_int_list, (64, 64),
                              lambda v: all(w > 0 for w in v) or _fail(
                                  "dynamics.widths must be positive"),
                              "dynamics model hidden widths"),
    "dynamics.epochs": _Field(int, 400, _positive("dynamics.epochs"),
                              "dynamics training epochs"),
    "dynamics.use_augmented": _Field(_parse_bool, True, lambda v: True,
                                     "train-dynamics consumes the synthetic set"),
    "select.n_rollouts": _Field(int, 8, _positive("select.n_rollouts"),
                                "model rollouts per sub-policy"),
    "distill.pool": _Field(int, 400, _positive("distill.pool"),
                           "states distilled over"),
    "distill.epochs": _Field(int, 400, _positive("distill.epochs"),
                             "distillation epochs"),
    "ppo.clip_ratio": _Field(float, _PPO.clip_ratio, lambda v: 0.0 < v < 1.0 or _fail(
        f"ppo.clip_ratio must lie in (0, 1), got {v}"), "PPO clip range"),
    "ppo.discount": _Field(float, _PPO.discount, lambda v: 0.0 < v <= 1.0 or _fail(
        f"ppo.discount must lie in (0, 1], got {v}"), "return discount"),
    "ppo.epochs_per_batch": _Field(int, _PPO.epochs_per_batch, _positive("ppo.epochs_per_batch"),
                                   "gradient epochs per batch"),
    "ppo.batch_episodes": _Field(int, _PPO.batch_episodes, _positive("ppo.batch_episodes"),
                                 "episodes collected per iteration"),
    "ppo.iterations": _Field(int, 10, _positive("ppo.iterations"),
                             "fine-tuning iterations"),
    "eval.episodes": _Field(int, 20, _positive("eval.episodes"),
                            "episodes evaluated"),
    "seed": _Field(int, 0, _non_negative("seed"), "global run seed"),
    "out": _Field(str, "run_out", lambda v: bool(v) or _fail(
        "out must be non-empty"), "output directory"),
}


class RunConfig:
    """Validated, immutable view over the flat key space."""

    def __init__(self, values: dict):
        unknown = sorted(set(values) - set(SCHEMA))
        if unknown:
            raise ConfigError(f"unknown config key: {unknown[0]}")
        merged = {}
        for key, field in SCHEMA.items():
            merged[key] = values.get(key, field.default)
            field.check(merged[key])
        horizon = envs.make_env(merged["env.name"]).horizon
        if merged["diffusion.T"] > horizon:
            raise ConfigError(f"diffusion.T = {merged['diffusion.T']} exceeds the "
                              f"{merged['env.name']} horizon of {horizon}")
        if merged["diffusion.beta_min"] >= merged["diffusion.beta_max"]:
            raise ConfigError("diffusion.beta_min must be < diffusion.beta_max")
        # train-diffusion's schedule holds the other bounds, such as beta_max < 1
        diffusion.make_linear_schedule(merged["diffusion.k"], merged["diffusion.beta_min"],
                                       merged["diffusion.beta_max"])
        object.__setattr__(self, "_values", merged)

    def __setattr__(self, name, value):
        raise AttributeError("RunConfig is immutable")

    def __getitem__(self, key: str):
        try:
            return self._values[key]
        except KeyError:
            raise ConfigError(f"unknown config key: {key}") from None

    def replaced(self, **overrides) -> "RunConfig":
        """New config with `seed` and/or `out` swapped (CLI flag overrides)."""
        values = dict(self._values)
        for name, value in overrides.items():
            if name not in ("seed", "out"):
                raise ConfigError(f"only seed and out may be overridden, not {name}")
            values[name] = value
        return RunConfig(values)

    def canonical_text(self) -> str:
        lines = [f"{k} = {format_value(v)}" for k, v in sorted(self._values.items())
                 if k != "out"]
        return "\n".join(lines) + "\n"

    def config_hash(self) -> str:
        # The out directory is a location, not an input: excluding it keeps
        # two runs of the same config hash-identical wherever they land.
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()


def parse_config(text: str) -> RunConfig:
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, _, value_text = line.partition("=")
        key = key.strip()
        value_text = value_text.strip()
        if key not in SCHEMA:
            raise ConfigError(f"line {lineno}: unknown config key: {key}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key: {key}")
        try:
            values[key] = SCHEMA[key].parse(value_text)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {exc}") from exc
    return RunConfig(values)


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)

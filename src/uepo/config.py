"""Run configuration, and the `key = value` text of configs and artifacts.

That text holds one `key = value` line per key; a `#` at the start of a line
or after whitespace starts a comment, and blank lines are ignored.
:func:`format_pairs` writes it and :func:`parse_pairs` reads it. A config
enters only as that text: :func:`parse_config` parses each line by the type
of its key's default, refuses unknown keys so a typo fails loudly instead of
silently running with defaults, and takes the CLI's `--seed` and `--out` as
the text of two more lines. Loading builds the environment, noise schedule,
guidance, filter and PPO settings and the ensemble's member seeds that the
stages use, and each of those builders checks its own arguments.
"""

import dataclasses
import hashlib
import math
import re

import numpy as np

from . import augmentation, diffusion, divergence, envs, finetune
from .errors import ConfigError, require

ENSEMBLE_BASE_SEED = 17  # the ensemble's member seeds derive from it


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


def format_pairs(pairs) -> str:
    """One `key = value` line per (key, value) pair, in order."""
    return "".join(f"{key} = {format_value(value)}\n" for key, value in pairs)


_COMMENT = re.compile(r"(^|\s)#.*")  # so a value such as `runs/a#1` keeps its `#`


def parse_pairs(text: str):
    """(line number, key, value text) of each `key = value` line of text, past
    `#` comments and blank lines; a line without `=` or a repeated key is refused."""
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _COMMENT.sub("", raw, count=1).strip()
        if not line:
            continue
        key, eq, value_text = (part.strip() for part in line.partition("="))
        if not eq:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        if key in seen:
            raise ConfigError(f"line {lineno}: duplicate key: {key}")
        seen.add(key)
        yield lineno, key, value_text


@dataclasses.dataclass(frozen=True)
class _Field:
    default: object  # its type is the key's type, and picks the key's parser
    doc: str
    rule: str = ""  # an errors.RULES key; "" where a built object owns the rule, or none applies


_PARSERS = {bool: _parse_bool, tuple: _parse_int_list}  # any other type parses as itself

# One flat schema for the whole pipeline. Validation always covers every
# key, so a bad value fails at load time rather than three stages in.
SCHEMA = {
    "env.name": _Field("point_mass", "environment to instantiate"),
    "env.sigma_env": _Field(0.05, "transition noise std"),
    "env.n_traj": _Field(60, "trajectories generated by gen-data", "> 0"),
    "env.mode_mix": _Field(0.5, "probability of the first scripted mode", "in [0, 1]"),
    "diffusion.k": _Field(diffusion.DEFAULT_K, "denoising steps"),
    "diffusion.beta_min": _Field(diffusion.DEFAULT_BETA_MIN, "noise schedule start"),
    "diffusion.beta_max": _Field(diffusion.DEFAULT_BETA_MAX, "noise schedule end"),
    "diffusion.T": _Field(12, "action sequence length", ">= 3"),
    "diffusion.widths": _Field((128, 128), "denoiser hidden widths", "positive"),
    "diffusion.train_steps": _Field(2000, "denoiser gradient steps", "> 0"),
    "diffusion.batch_size": _Field(128, "denoiser batch size", "> 0"),
    "diffusion.window_stride": _Field(4, "sliding-window stride", "> 0"),
    "ensemble.n": _Field(4, "sub-policy count"),
    "ensemble.tau": _Field(0.5, "divergence threshold"),
    "ensemble.eta": _Field(0.1, "guidance noise scale"),
    "ensemble.guided_steps": _Field(divergence.DivergenceConfig.guided_steps,
                                    "denoising steps with guidance active"),
    "ensemble.n_states": _Field(5, "initial states sampled by sample-ensemble", "> 0"),
    "filter.epsilon": _Field(augmentation.DEFAULT_EPSILON, "KL acceptance threshold"),
    "filter.ratio": _Field(augmentation.DEFAULT_RATIO, "synthetic-to-real transition ratio"),
    "filter.max_attempts": _Field(0, "rollout budget; 0 uses the library default"),
    "dynamics.widths": _Field((64, 64), "dynamics model hidden widths", "positive"),
    "dynamics.epochs": _Field(400, "dynamics training epochs", "> 0"),
    "dynamics.use_augmented": _Field(True, "train-dynamics consumes the synthetic set"),
    "select.n_rollouts": _Field(8, "model rollouts per sub-policy", "> 0"),
    "distill.pool": _Field(400, "states distilled over", "> 0"),
    "distill.epochs": _Field(400, "distillation epochs", "> 0"),
    "ppo.clip_ratio": _Field(finetune.PpoConfig.clip_ratio, "PPO clip range"),
    "ppo.discount": _Field(finetune.PpoConfig.discount, "return discount"),
    "ppo.epochs_per_batch": _Field(finetune.PpoConfig.epochs_per_batch,
                                   "gradient epochs per batch"),
    "ppo.batch_episodes": _Field(finetune.PpoConfig.batch_episodes,
                                 "episodes collected per iteration"),
    "ppo.iterations": _Field(10, "fine-tuning iterations", "> 0"),
    "eval.episodes": _Field(20, "episodes evaluated", "> 0"),
    "seed": _Field(0, "global run seed", ">= 0"),
    "out": _Field("run_out", "output directory", "non-empty"),
}


def _build(make, values: dict, section: str, *names, **given):
    """``make`` called with each of ``names`` read from the key
    ``<section>.<name>``, and with ``given``. A library message names its
    argument first, as ``errors.require`` writes it, and is raised again
    naming the key."""
    args = {name: values[f"{section}.{name}"] for name in names} | given
    try:
        return make(**args)
    except ConfigError as exc:
        name, _, rest = str(exc).partition(" ")
        if name not in args:
            raise
        raise ConfigError(f"{section}.{name} {rest}") from None


class RunConfig:
    """Validated, immutable view over the flat key space, with the
    library objects the stages take from it: ``env``, ``schedule``,
    ``guidance``, ``filter``, ``ppo`` and the member ``seeds``. Built by
    :func:`parse_config`; a key it was not given takes its default."""

    def __init__(self, values: dict):
        v = {key: values.get(key, field.default) for key, field in SCHEMA.items()}
        for key, field in SCHEMA.items():
            if field.rule:
                require(key, v[key], field.rule)
        env = _build(envs.make_env, v, "env", "name", "sigma_env")
        if v["diffusion.T"] > env.horizon:
            raise ConfigError(f"diffusion.T = {v['diffusion.T']} exceeds the "
                              f"{env.name} horizon of {env.horizon}")
        vars(self).update(
            _values=v, env=env,
            schedule=_build(diffusion.make_linear_schedule, v, "diffusion",
                            "k", "beta_min", "beta_max"),
            guidance=_build(divergence.DivergenceConfig, v, "ensemble",
                            "tau", "eta", "guided_steps"),
            # 0 leaves the rollout budget to the library
            filter=_build(augmentation.FilterConfig, v, "filter", "epsilon", "ratio",
                          max_attempts=v["filter.max_attempts"] or None),
            ppo=_build(finetune.PpoConfig, v, "ppo", "clip_ratio", "discount",
                       "epochs_per_batch", "batch_episodes"),
            seeds=_build(diffusion.member_seeds, v, "ensemble", "n",
                         base_seed=ENSEMBLE_BASE_SEED))

    def __setattr__(self, name, value):
        raise AttributeError("RunConfig is immutable")

    def __getitem__(self, key: str):
        try:
            return self._values[key]
        except KeyError:
            raise ConfigError(f"unknown config key: {key}") from None

    def canonical_text(self) -> str:
        return format_pairs((k, v) for k, v in sorted(self._values.items()) if k != "out")

    def config_hash(self) -> str:
        # The out directory is a location, not an input: excluding it keeps
        # two runs of the same config hash-identical wherever they land.
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()


def parse_config(text: str, seed: str | None = None, out: str | None = None) -> RunConfig:
    """The config that ``text`` states. ``seed`` and ``out``, the text of the
    CLI's `--seed` and `--out`, each replace the line of their key and are
    parsed and checked as it would be; their errors name the flag."""
    flags = {key: value for key, value in (("seed", seed), ("out", out)) if value is not None}
    entries = [(f"line {lineno}", key, value) for lineno, key, value in parse_pairs(text)
               if key not in flags] + [(f"--{key}", key, value) for key, value in flags.items()]
    values = {}
    for where, key, value_text in entries:
        if key not in SCHEMA:
            raise ConfigError(f"{where}: unknown config key: {key}")
        try:
            kind = type(SCHEMA[key].default)
            values[key] = _PARSERS.get(kind, kind)(value_text)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"{where}: bad value for {key}: {exc}") from exc
        if kind is float and not math.isfinite(values[key]):
            raise ConfigError(f"{key} must be finite, got {values[key]!r}")
    return RunConfig(values)


def load_config(path: str, **flags) -> RunConfig:
    """:func:`parse_config` of the file at ``path``, with the same flags."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text, **flags)

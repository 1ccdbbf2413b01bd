"""Exception and warning types shared across the package."""


class ShapeError(ValueError):
    """Array dimensions do not match what the operation requires."""


class ConfigError(ValueError):
    """A configuration value violates its documented constraints."""


# The range rules, each by the text its error quotes. Each is written as the
# values it admits, so a NaN keeps none of the numeric ones.
RULES = {"> 0": lambda v: v > 0, ">= 0": lambda v: v >= 0, ">= 3": lambda v: v >= 3,
         "in [0, 1]": lambda v: 0 <= v <= 1, "positive": lambda v: all(w > 0 for w in v),
         "non-empty": bool}


def require(name: str, value, rule: str) -> None:
    """Raise ``<name> must be <rule>, got <value!r>`` unless ``value`` keeps the
    ``RULES`` entry ``rule``; the message starts with the name it checks."""
    if not RULES[rule](value):
        raise ConfigError(f"{name} must be {rule}, got {value!r}")


class NonFiniteError(ValueError):
    """A numeric input contains NaN or infinity."""


class DegenerateHorizonError(ValueError):
    """Sequence too short for the requested difference order."""


class EmptyBatchError(ValueError):
    """An operation that needs at least one example received none."""


class StarvationError(RuntimeError):
    """Trajectory augmentation accepted nothing within the attempt budget.

    Carries the divergence scores of every rejected rollout in
    ``kl_values`` so the caller can diagnose how far off the initial
    dynamics model is.
    """

    def __init__(self, message, kl_values):
        super().__init__(message)
        self.kl_values = list(kl_values)


class TrainingDivergenceError(RuntimeError):
    """A training loss became non-finite; the last stable parameters
    are kept on the model object."""


class MissingArtifactError(FileNotFoundError):
    """A pipeline stage input is absent; names the stage that makes it."""


class DistillationQualityWarning(UserWarning):
    """Distillation stopped at its epoch cap above the target MSE."""

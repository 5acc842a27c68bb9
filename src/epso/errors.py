"""Exception types shared across the package, and the configs' field-type check."""

import dataclasses
import math
import numbers


class ContractError(ValueError):
    """An operation was called with arguments that violate its contract."""


class ConfigError(ValueError):
    """A configuration object failed validation."""


# what a field of each annotated type accepts, and how an error names it;
# bool is an int to Python, so it is accepted only where the type is bool
_FIELD_TYPES = {
    "str": (str, "a string"),
    "str | None": ((str, type(None)), "a string"),
    "int": (numbers.Integral, "an integer"),
    "int | None": ((numbers.Integral, type(None)), "an integer"),
    "float": (numbers.Real, "a finite number"),
    "bool": (bool, "true or false"),
    "dict": (dict, "an object"),
}


def check_field_types(config) -> None:
    """ConfigError naming the first field of a config dataclass (annotations
    read as strings) whose value is not of its type; a float must be finite.
    np.ndarray fields are left to the class to convert."""
    for f in dataclasses.fields(config):
        if f.type == "np.ndarray":
            continue
        kind, noun = _FIELD_TYPES[f.type]
        value = getattr(config, f.name)
        if (not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool)
                or (kind is numbers.Real and not math.isfinite(value))):
            raise ConfigError(f"{f.name} must be {noun}, got {value!r}")


class DataError(ValueError):
    """A dataset could not be loaded or is structurally invalid."""


class EvaluationError(RuntimeError):
    """An objective function raised during a swarm evaluation."""

    def __init__(self, particle_index: int, cause: Exception):
        super().__init__(
            f"objective evaluation failed for particle {particle_index}: {cause!r}"
        )
        self.particle_index = particle_index
        self.cause = cause


class UnknownFunctionError(KeyError):
    """A benchmark function name is not in the registry."""

    __str__ = Exception.__str__  # KeyError's own would print the message in quotes

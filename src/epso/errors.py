"""Exception types shared across the package."""


class ContractError(ValueError):
    """An operation was called with arguments that violate its contract."""


class ConfigError(ValueError):
    """A configuration object failed validation."""


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

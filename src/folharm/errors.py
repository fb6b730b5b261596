"""Exception hierarchy for folharm."""

from contextlib import contextmanager


class FolharmError(Exception):
    """Base class for all folharm errors."""


class ConfigurationError(FolharmError, ValueError):
    """Invalid construction parameters or experiment configuration."""


class DomainError(FolharmError, ValueError):
    """A point lies outside the valid chart domain of a geometry."""


class StepTooLargeError(FolharmError, ValueError):
    """An exponential-map step exceeds the injectivity cap; shrink dt."""


class InvalidMapError(FolharmError, ValueError):
    """A map field violates its structural invariants."""


class CompositionError(FolharmError, ValueError):
    """Source/target charts of composed maps do not match."""


class UnsupportedDomainError(FolharmError, ValueError):
    """An operation requires a closed (fully periodic) chart."""


class PreconditionError(FolharmError, ValueError):
    """An operation was called with its mathematical precondition violated."""


class FlowDivergedError(FolharmError, RuntimeError):
    """The heat flow energy blew up past the divergence guard."""


@contextmanager
def parameter_errors(name: str):
    """Raise a TypeError or ValueError of the block as a ConfigurationError
    that names ``name``; a FolharmError passes unchanged."""
    try:
        yield
    except FolharmError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"invalid parameters for {name}: {exc}") from exc

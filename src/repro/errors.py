"""Exception hierarchy for the CHRYSALIS reproduction.

Every error raised by the library derives from :class:`ChrysalisError`
so that callers can catch library failures with a single except clause
while still distinguishing the failure family when they need to.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, TypeVar

_T = TypeVar("_T")


class ChrysalisError(Exception):
    """Base class for all library errors."""


class ConfigurationError(ChrysalisError):
    """A component was constructed with physically meaningless parameters
    (negative capacitance, zero PEs, off-threshold above on-threshold, ...)."""


class DesignSpaceError(ChrysalisError):
    """A design-space definition or a sampled point is malformed."""


class MappingError(ChrysalisError):
    """A dataflow mapping is invalid for the layer or hardware it targets
    (tile does not divide the iteration space, buffer overflow, ...)."""


class SimulationError(ChrysalisError):
    """The step-based simulator reached an impossible state."""


class InfeasibleDesignError(ChrysalisError):
    """A candidate architecture can never complete the workload — for
    example the largest admissible tile still needs more energy than one
    full energy cycle can deliver (violates Eq. 8 of the paper)."""


class EvaluationTimeout(ChrysalisError):
    """A candidate evaluation exhausted its step or wall-clock budget.

    Raised by the step simulator when a run exceeds ``max_steps`` /
    ``time_budget_s``; the hardened explorer converts it into a fitness
    penalty instead of letting one runaway candidate stall the search."""


class FaultInjectionError(ChrysalisError):
    """A fault-injection configuration is malformed (negative rate,
    probability above one, non-positive correlation window, ...)."""


class SearchError(ChrysalisError):
    """The explorer could not produce a feasible solution (empty design
    space, every candidate infeasible, budget exhausted with no result)."""


class StoreError(ChrysalisError):
    """A campaign result store is unusable (corrupt SQLite file, schema
    version from a different library release, filesystem failure)."""


class ServeError(ChrysalisError):
    """Base class for evaluation-service failures (see repro.serve)."""


class ServiceOverloadError(ServeError):
    """The service's admission queue is full; the request was shed
    without being enqueued.  Clients should back off and retry."""


class ServiceClosedError(ServeError):
    """The service is not running (never started, draining, or
    stopped); the request was not accepted."""


_REQUIRED = object()


def _config_field(record: str, data: Any, name: str,
                  convert: Optional[Callable[[Any], _T]] = None,
                  default: Any = _REQUIRED,
                  missing: Optional[str] = None) -> _T:
    """``convert(data[name])`` for one field of a JSON input record.

    The one conversion path of the JSON boundaries (designs, campaign
    specs, environment specs).  It raises :class:`ConfigurationError`
    naming ``record`` and ``name`` when ``data`` is not an object, when
    the field is absent and has no ``default`` (with the ``missing``
    message, if given), or when ``convert`` rejects the value with
    ``TypeError``, ``ValueError`` or ``OverflowError``.  A
    :class:`ChrysalisError` from ``convert`` passes through unchanged,
    and ``convert=None`` returns the value as it is.
    """
    try:
        value = data[name]
    except KeyError:
        if default is _REQUIRED:
            raise ConfigurationError(
                missing or f"{record} is missing field {name!r}") from None
        value = default
    except TypeError:  # an array, a string, a number or null
        raise ConfigurationError(
            f"{record} must be an object, got {type(data).__name__}"
        ) from None
    if convert is None:
        return value
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as error:
        raise ConfigurationError(
            f"{record} field {name!r} is invalid: {error}") from None


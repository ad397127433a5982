"""The unified environment/scenario registry.

Before this module, environments were resolved three different ways:
preset classmethods on :class:`~repro.energy.environment.
LightEnvironment`, ``scenario_by_name`` in :mod:`repro.core.scenarios`,
and the private ``_resolve_environments`` in :mod:`repro.api` — and
campaign specs / served requests could only name the four presets.  This
module is now the single resolution path (mirroring
``workload_by_name`` in the zoo): every environment label used by
:func:`repro.api.evaluate`, :func:`repro.api.evaluate_batch`, the serve
layer, :class:`~repro.campaign.spec.CampaignSpec` and the CLI goes
through :func:`environment_by_name`.  As the zoo builds each network
once, the registry builds each label's environments once, when the
label is registered, and every lookup returns that same tuple.

A label resolves, in order, to:

1. a registered :class:`EnvironmentSpec` (the builtin presets
   ``paper`` / ``brighter`` / ``darker`` / ``indoor`` plus anything
   :func:`register_environment` added — e.g. generated traces);
2. ``scenario:<name>`` — a SWaP scenario's environment set;
3. a bare scenario name (back-compat with ``evaluate(scenario=...)``).

:class:`EnvironmentSpec` is the durable description: content-hashable,
JSON-round-trippable, and buildable into concrete environment objects.
:class:`ScenarioGenerator` expands a compact seeded spec into hundreds
of content-addressed trace scenarios — the labels flow through the
existing campaign grid (``expand_grid`` / ``RunKey``) unchanged, and
because the labels embed a content hash of their parameters, every
process that loads the same spec registers byte-identical scenarios.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, Mapping, Optional, Tuple, Union

from repro.core.scenarios import SCENARIOS, scenario_by_name
from repro.energy.environment import LightEnvironment
from repro.energy.traces import (
    TraceEnvironment,
    cloud_trace,
    diurnal_trace,
    schedule_trace,
    trickle_trace,
)
from repro.errors import ConfigurationError, _config_field

#: Prefix marking an environment label that names a SWaP scenario preset
#: (the scenario supplies both the environments and the objective).
SCENARIO_PREFIX = "scenario:"

#: Any concrete environment an evaluation can run in.
Environment = Union[LightEnvironment, TraceEnvironment]


def _canonical_hash(payload: Any, digits: int = 12) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:digits]


# ---------------------------------------------------------------------------
# environment specs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EnvironmentSpec:
    """A durable, registrable description of one environment set.

    ``kind`` selects the builder; ``params`` are its keyword arguments,
    stored as a sorted item tuple so specs stay hashable.  Use
    :meth:`create` rather than the raw constructor.
    """

    name: str
    kind: str
    params: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("environment spec needs a name")
        if self.kind not in _BUILDERS:
            raise ConfigurationError(
                f"unknown environment kind {self.kind!r}; "
                f"expected one of {sorted(_BUILDERS)}")
        object.__setattr__(self, "params",
                           tuple(sorted(tuple(self.params))))

    @classmethod
    def create(cls, name: str, kind: str, **params: Any) -> "EnvironmentSpec":
        return cls(name=name, kind=kind, params=tuple(sorted(params.items())))

    def param_dict(self) -> Dict[str, Any]:
        return dict(self.params)

    def build(self) -> Tuple[Environment, ...]:
        """The concrete environment set this spec describes."""
        return _BUILDERS[self.kind](self)

    # -- (de)serialization ---------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "kind": self.kind,
                "params": self.param_dict()}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "EnvironmentSpec":
        record = "environment spec"
        name = _config_field(record, data, "name", str)
        kind = _config_field(record, data, "kind", str)
        params = data.get("params", {})
        if not isinstance(params, Mapping):
            raise ConfigurationError(
                "environment spec 'params' must be an object")
        return cls.create(name, kind, **dict(params))

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "EnvironmentSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise ConfigurationError(
                f"invalid environment-spec JSON: {error}") from None
        return cls.from_dict(data)

    @property
    def content_hash(self) -> str:
        """Deterministic 12-hex-digit hash of the spec content."""
        return _canonical_hash(self.to_dict())


# ---------------------------------------------------------------------------
# builders, one per spec kind
# ---------------------------------------------------------------------------


_PRESETS = {
    "paper": LightEnvironment.paper_environments,
    "brighter": lambda: (LightEnvironment.brighter(),),
    "darker": lambda: (LightEnvironment.darker(),),
    "indoor": lambda: (LightEnvironment.indoor(),),
}


def _param(spec: EnvironmentSpec, name: str, convert: Callable[[Any], Any],
           **options: Any) -> Any:
    """One builder parameter of ``spec``, converted by
    :func:`repro.errors._config_field` (``default=``, ``missing=``)."""
    return _config_field(f"{spec.kind} environment {spec.name!r}",
                         spec.param_dict(), name, convert, **options)


def _base_light(spec: EnvironmentSpec) -> LightEnvironment:
    return LightEnvironment(
        cloudiness=_param(spec, "cloudiness", float, default=0.15),
        panel_efficiency=_param(spec, "panel_efficiency", float,
                                default=0.18),
        peak_elevation_deg=_param(spec, "peak_elevation_deg", float,
                                  default=70.0),
        deployment_factor=_param(spec, "deployment_factor", float,
                                 default=0.10),
        name=spec.name,
    )


def _build_preset(spec: EnvironmentSpec) -> Tuple[Environment, ...]:
    preset = _param(spec, "preset", str, default=spec.name)
    try:
        return tuple(_PRESETS[preset]())
    except KeyError:
        raise ConfigurationError(
            f"unknown preset {preset!r}; expected one of {sorted(_PRESETS)}"
        ) from None


def _build_diurnal(spec: EnvironmentSpec) -> Tuple[Environment, ...]:
    base = _base_light(spec)
    return (diurnal_trace(base,
                          step_s=_param(spec, "step_s", float, default=3600.0),
                          name=spec.name),)


def _build_cloudy(spec: EnvironmentSpec) -> Tuple[Environment, ...]:
    base = _base_light(spec)
    return (cloud_trace(base,
                        sigma=_param(spec, "sigma", float, default=0.4),
                        floor=_param(spec, "floor", float, default=0.05),
                        seed=_param(spec, "seed", int, default=0),
                        step_s=_param(spec, "step_s", float, default=600.0),
                        name=spec.name),)


def _build_schedule(spec: EnvironmentSpec) -> Tuple[Environment, ...]:
    k_on = _param(spec, "k_on", float, missing=(
        f"schedule environment {spec.name!r} needs 'k_on'"))
    return (schedule_trace(
        k_on,
        k_off=_param(spec, "k_off", float, default=0.0),
        on_hour=_param(spec, "on_hour", float, default=8.0),
        off_hour=_param(spec, "off_hour", float, default=18.0),
        name=spec.name),)


def _build_trickle(spec: EnvironmentSpec) -> Tuple[Environment, ...]:
    k_eh = _param(spec, "k_eh", float, missing=(
        f"trickle environment {spec.name!r} needs 'k_eh'"))
    return (trickle_trace(k_eh, name=spec.name),)


_BUILDERS = {
    "preset": _build_preset,
    "diurnal": _build_diurnal,
    "cloudy": _build_cloudy,
    "schedule": _build_schedule,
    "trickle": _build_trickle,
}

#: Kinds :class:`ScenarioGenerator` can draw from.
GENERATED_KINDS = ("diurnal", "cloudy", "schedule", "trickle")

#: Most scenarios one generator expands into.  Expansion registers
#: every scenario eagerly (about 0.25 ms each), and the registry keeps
#: each one's environments (about 4 KB), so an unbounded count read
#: from a campaign spec would hang the process that loads it.
_MAX_GENERATED = 10_000


# ---------------------------------------------------------------------------
# the registry
# ---------------------------------------------------------------------------


_REGISTRY: Dict[str, EnvironmentSpec] = {}
#: Each registered label's environments, built once at registration.
_BUILT: Dict[str, Tuple[Environment, ...]] = {}


def register_environment(spec: EnvironmentSpec) -> EnvironmentSpec:
    """Register a spec under its name; returns the registered spec.

    The spec is built once, here, which also validates it: a registered
    label must resolve.  Registration is idempotent for identical
    content and builds nothing then, but re-using a name for
    *different* content is an error: the registry keeps each label's
    built environments, so a silently rebound label would resolve to
    stale ones.  Generated labels embed a content hash of their
    parameters, making collisions impossible by construction.
    """
    existing = _REGISTRY.get(spec.name)
    if existing is not None:
        if existing == spec:
            return existing
        raise ConfigurationError(
            f"environment {spec.name!r} is already registered with "
            f"different content")
    _BUILT[spec.name] = spec.build()
    _REGISTRY[spec.name] = spec
    return spec


def environment_spec(label: str) -> Optional[EnvironmentSpec]:
    """The registered spec behind a label, or ``None``."""
    return _REGISTRY.get(label)


def registered_environments() -> Tuple[str, ...]:
    """All registered labels, sorted."""
    return tuple(sorted(_REGISTRY))


def environment_by_name(label: str) -> Tuple[Environment, ...]:
    """Resolve an environment label into concrete environments.

    The single resolution path of the library (mirrors
    ``zoo.workload_by_name``): registered specs first, then
    ``scenario:<name>`` scenario sets, then bare scenario names.  A
    label returns the same tuple on every call; every environment is a
    frozen dataclass, so callers share it.  Raises
    :class:`~repro.errors.ConfigurationError` for unknown labels,
    listing what is available.
    """
    environments = _BUILT.get(label)
    if environments is not None:
        return environments
    if label.startswith(SCENARIO_PREFIX):
        return tuple(scenario_by_name(label[len(SCENARIO_PREFIX):])
                     .environments)
    if label in SCENARIOS:
        return tuple(SCENARIOS[label].environments)
    raise ConfigurationError(
        f"unknown environment {label!r}; expected one of "
        f"{sorted(_REGISTRY)}, '{SCENARIO_PREFIX}<name>' or a scenario "
        f"from {sorted(SCENARIOS)}")


# The builtin presets are ordinary registry entries; "paper" is the
# brighter/darker pair every search in the paper averages over.
for _preset in _PRESETS:
    register_environment(EnvironmentSpec.create(_preset, "preset",
                                                preset=_preset))
del _preset


# ---------------------------------------------------------------------------
# the scenario generator
# ---------------------------------------------------------------------------


def _draw_params(family: str, rng: random.Random) -> Dict[str, Any]:
    """One seeded parameter draw for a generated trace family.

    Values are rounded to fixed precision so the JSON form (and hence
    the content-addressed label) is stable and readable.
    """
    if family == "diurnal":
        return {
            "cloudiness": round(rng.uniform(0.0, 0.9), 4),
            "peak_elevation_deg": round(rng.uniform(30.0, 75.0), 2),
            "deployment_factor": round(rng.uniform(0.05, 0.15), 4),
        }
    if family == "cloudy":
        return {
            "cloudiness": round(rng.uniform(0.0, 0.6), 4),
            "peak_elevation_deg": round(rng.uniform(30.0, 75.0), 2),
            "deployment_factor": round(rng.uniform(0.05, 0.15), 4),
            "sigma": round(rng.uniform(0.2, 0.6), 4),
            "seed": rng.randrange(1 << 16),
        }
    if family == "schedule":
        return {
            "k_on": round(rng.uniform(1e-5, 8e-5), 9),
            "k_off": round(rng.uniform(0.0, 5e-6), 9),
            "on_hour": float(rng.randrange(6, 10)),
            "off_hour": float(rng.randrange(17, 23)),
        }
    if family == "trickle":
        return {"k_eh": round(rng.uniform(5e-6, 5e-5), 9)}
    raise ConfigurationError(
        f"unknown trace family {family!r}; "
        f"expected one of {GENERATED_KINDS}")


@dataclass(frozen=True)
class ScenarioGenerator:
    """Seeded expansion of a compact spec into many trace scenarios.

    ``count`` scenarios are drawn round-robin over ``families`` from
    one ``random.Random(seed)`` stream.  Each scenario becomes an
    :class:`EnvironmentSpec` whose label is content-addressed
    (``trace:<family>-<hash>``), so expanding the same generator in any
    process registers byte-identical scenarios and yields byte-identical
    campaign run hashes.
    """

    name: str
    seed: int = 0
    count: int = 100
    families: Tuple[str, ...] = GENERATED_KINDS

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("scenario generator needs a name")
        if self.count < 1:
            raise ConfigurationError(
                f"generator count must be at least 1, got {self.count}")
        if self.count > _MAX_GENERATED:
            raise ConfigurationError(
                f"generator count must be at most {_MAX_GENERATED}, "
                f"got {self.count}")
        object.__setattr__(self, "families", tuple(self.families))
        if not self.families:
            raise ConfigurationError(
                "scenario generator needs at least one family")
        for family in self.families:
            if family not in GENERATED_KINDS:
                raise ConfigurationError(
                    f"unknown trace family {family!r}; "
                    f"expected one of {GENERATED_KINDS}")

    def specs(self) -> Tuple[EnvironmentSpec, ...]:
        """The generated environment specs, in draw order."""
        rng = random.Random(self.seed)
        specs = []
        for index in range(self.count):
            family = self.families[index % len(self.families)]
            params = _draw_params(family, rng)
            digest = _canonical_hash({"kind": family, "params": params})
            specs.append(EnvironmentSpec.create(
                f"trace:{family}-{digest}", family, **params))
        return tuple(specs)

    def expand(self) -> Tuple[str, ...]:
        """Register every generated spec; returns the labels in order."""
        return tuple(register_environment(spec).name
                     for spec in self.specs())

    # -- (de)serialization ---------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "seed": self.seed, "count": self.count,
                "families": list(self.families)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioGenerator":
        record = "scenario generator"
        return cls(
            name=_config_field(record, data, "name", str,
                               missing="scenario generator is missing 'name'"),
            seed=_config_field(record, data, "seed", int, default=0),
            count=_config_field(record, data, "count", int, default=100),
            families=_config_field(
                record, data, "families",
                lambda families: tuple(str(f) for f in families),
                default=GENERATED_KINDS),
        )


__all__ = [
    "SCENARIO_PREFIX",
    "GENERATED_KINDS",
    "Environment",
    "EnvironmentSpec",
    "ScenarioGenerator",
    "environment_by_name",
    "environment_spec",
    "register_environment",
    "registered_environments",
]

"""Declarative campaign specifications and deterministic run keys.

The paper's headline tables are *fleets* of CHRYSALIS searches — every
cell of Tables IV/V is one (workload x environment x objective x
design-space) combination — so reproducing them needs a first-class
description of the whole grid, not a shell loop.  A
:class:`CampaignSpec` declares that grid once (and loads from JSON);
:meth:`CampaignSpec.expand` turns it into a deterministic list of
:class:`RunKey` cells, each with a content hash that names the run
forever.  The hash is what makes campaigns durable: the result store
keys rows by it, so re-expanding the same spec finds the same rows and
a re-invoked campaign resumes instead of re-running.

Hashes cover exactly the inputs that can change a search's *result*
(workload, setup, environments, objective, GA budget, seed, candidate
time budget).  Execution details that are guaranteed result-neutral —
retry cap, store path, which fleet worker ran it — stay out, so the same
run lands on the same row whoever computes it.
"""

from __future__ import annotations

import hashlib
import json
import math
import pathlib
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.scenarios import scenario_by_name
from repro.environments import (
    SCENARIO_PREFIX,
    ScenarioGenerator,
    environment_by_name,
)
from repro.errors import ConfigurationError, _config_field
from repro.explore.objectives import Objective, ObjectiveKind

_SPEC_SCHEMA_VERSION = 1

_SETUPS = ("existing", "future")

#: Every key :meth:`CampaignSpec.from_dict` reads; anything else is a typo
#: or a removed option and is rejected rather than silently dropped.
_SPEC_KEYS = frozenset({
    "schema_version", "name", "workloads", "objectives", "scenarios",
    "setups", "environments", "seeds", "ga", "candidate_time_budget_s",
    "max_attempts", "generator",
})
_GA_KEYS = frozenset({"population", "generations"})


def expand_grid(axes: Mapping[str, Sequence[Any]]) -> List[Dict[str, Any]]:
    """Deterministic cartesian product of named axes.

    The library's single grid-expansion code path: campaign specs and
    the structured sweep helpers (:mod:`repro.explore.sweeps`) both
    expand through it.  Cells come out in row-major order (last axis
    fastest), each as a ``{axis: value}`` dict.
    """
    cells: List[Dict[str, Any]] = [{}]
    for name, values in axes.items():
        values = list(values)
        if not values:
            raise ConfigurationError(f"grid axis {name!r} has no values")
        cells = [dict(cell, **{name: value})
                 for cell in cells for value in values]
    return cells


# ---------------------------------------------------------------------------
# objectives
# ---------------------------------------------------------------------------


#: Campaign-level objective kind that is not a scalar
#: :class:`ObjectiveKind`: the run executes the NSGA-II explorer and
#: persists the whole (panel, latency) Pareto front next to a
#: representative scalar solution.
PARETO_KIND = "pareto"


@dataclass(frozen=True)
class ObjectiveSpec:
    """A serializable description of one run objective.

    The three scalar kinds mirror the paper's objectives; the extra
    ``"pareto"`` kind requests a multi-objective NSGA-II search whose
    result is a front, not a point (see
    :func:`repro.campaign.runner.execute_search`).
    """

    kind: str  # "lat" | "sp" | "lat*sp" | "pareto"
    sp_cap_cm2: Optional[float] = None
    lat_cap_s: Optional[float] = None

    def __post_init__(self) -> None:
        kinds = tuple(k.value for k in ObjectiveKind) + (PARETO_KIND,)
        if self.kind not in kinds:
            raise ConfigurationError(
                f"unknown objective kind {self.kind!r}; expected one of {kinds}"
            )
        if self.kind == "lat" and self.sp_cap_cm2 is None:
            raise ConfigurationError("objective 'lat' needs sp_cap_cm2")
        if self.kind == "sp" and self.lat_cap_s is None:
            raise ConfigurationError("objective 'sp' needs lat_cap_s")

    @classmethod
    def from_objective(cls, objective: Objective) -> "ObjectiveSpec":
        return cls(kind=objective.kind.value,
                   sp_cap_cm2=objective.sp_constraint_cm2,
                   lat_cap_s=objective.latency_constraint_s)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ObjectiveSpec":
        record = "objective entry"
        return cls(
            kind=_config_field(record, data, "kind", str,
                               missing="objective entry is missing 'kind'"),
            sp_cap_cm2=_config_field(record, data, "sp_cap_cm2",
                                     _optional_float, default=None),
            lat_cap_s=_config_field(record, data, "lat_cap_s",
                                    _optional_float, default=None))

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {"kind": self.kind}
        if self.sp_cap_cm2 is not None:
            data["sp_cap_cm2"] = self.sp_cap_cm2
        if self.lat_cap_s is not None:
            data["lat_cap_s"] = self.lat_cap_s
        return data

    def to_objective(self) -> Objective:
        if self.kind == "lat":
            return Objective.lat(self.sp_cap_cm2)
        if self.kind == "sp":
            return Objective.sp(self.lat_cap_s)
        return Objective.lat_sp()

    def label(self) -> str:
        """Compact rendering for tables (``lat(sp<=4)``, ``lat*sp``)."""
        if self.kind == "lat":
            return f"lat(sp<={self.sp_cap_cm2:g})"
        if self.kind == "sp":
            return f"sp(lat<={self.lat_cap_s:g})"
        return self.kind


# ---------------------------------------------------------------------------
# run keys
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunKey:
    """One fully-determined search of a campaign grid.

    A run key is pure content: every field either changes the search
    result or names what is being searched.  :attr:`run_hash` is the
    SHA-256 of the canonical JSON form and is the run's identity in the
    result store across processes, machines, and re-invocations.
    """

    workload: str
    setup: str
    environment: str  # environment-set label or "scenario:<name>"
    objective: ObjectiveSpec
    seed: int = 0
    population: int = 12
    generations: int = 8
    candidate_time_budget_s: Optional[float] = None

    def as_dict(self) -> Dict[str, Any]:
        return {
            "workload": self.workload,
            "setup": self.setup,
            "environment": self.environment,
            "objective": self.objective.to_dict(),
            "seed": self.seed,
            "population": self.population,
            "generations": self.generations,
            "candidate_time_budget_s": self.candidate_time_budget_s,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunKey":
        record = "run-key record"
        return cls(
            workload=_config_field(record, data, "workload", str),
            setup=_config_field(record, data, "setup", str),
            environment=_config_field(record, data, "environment", str),
            objective=_config_field(record, data, "objective",
                                    ObjectiveSpec.from_dict),
            seed=_config_field(record, data, "seed", int),
            population=_config_field(record, data, "population", int),
            generations=_config_field(record, data, "generations", int),
            candidate_time_budget_s=_config_field(
                record, data, "candidate_time_budget_s", _optional_number,
                default=None),
        )

    @property
    def run_hash(self) -> str:
        """Deterministic 16-hex-digit content hash of this run."""
        canonical = json.dumps(self.as_dict(), sort_keys=True,
                               separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]

    @property
    def scenario_label(self) -> str:
        """The grouping cell for per-scenario reports (seed excluded)."""
        return (f"{self.workload}/{self.setup}/{self.environment}/"
                f"{self.objective.label()}")

    def describe(self) -> str:
        return f"{self.scenario_label} seed={self.seed} [{self.run_hash}]"

    def to_objective(self) -> Objective:
        return self.objective.to_objective()


# ---------------------------------------------------------------------------
# campaign specs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CampaignSpec:
    """A declarative grid of CHRYSALIS runs.

    The grid is ``workloads x setups x conditions x seeds`` where a
    *condition* is either an explicit (environment, objective) pair from
    the cartesian product of :attr:`environments` and :attr:`objectives`,
    or a named SWaP scenario preset (which supplies both).  An optional
    :attr:`generator` contributes seeded trace-scenario labels to the
    environment axis: expanding the same spec in any process registers
    byte-identical content-addressed scenarios, so run hashes stay
    stable across workers and machines.
    """

    name: str
    workloads: Tuple[str, ...]
    objectives: Tuple[ObjectiveSpec, ...] = ()
    scenarios: Tuple[str, ...] = ()
    setups: Tuple[str, ...] = ("existing",)
    environments: Tuple[str, ...] = ("paper",)
    seeds: Tuple[int, ...] = (0,)
    population: int = 12
    generations: int = 8
    candidate_time_budget_s: Optional[float] = None
    #: Execution policy, not run identity: how many times a failing run
    #: is attempted (by any runner or fleet worker) before it becomes
    #: ``exhausted``.  Result-neutral — a retry of a deterministic run
    #: recomputes the same result — so it stays out of the run hash.
    max_attempts: int = 3
    #: Optional seeded trace-scenario generator whose labels join the
    #: environment axis (crossed with :attr:`objectives` like any other
    #: environment label).
    generator: Optional[ScenarioGenerator] = None

    def __post_init__(self) -> None:
        from repro.workloads import zoo

        if not self.name:
            raise ConfigurationError("campaign needs a non-empty name")
        if not self.workloads:
            raise ConfigurationError("campaign needs at least one workload")
        if not self.objectives and not self.scenarios:
            raise ConfigurationError(
                "campaign needs at least one objective or scenario")
        if not self.seeds:
            raise ConfigurationError("campaign needs at least one seed")
        if self.population < 2:
            raise ConfigurationError("population must be at least 2")
        if self.generations < 1:
            raise ConfigurationError("generations must be at least 1")
        _check_attempts(self.max_attempts)
        _check_seconds("candidate_time_budget_s",
                       self.candidate_time_budget_s)
        for setup in self.setups:
            if setup not in _SETUPS:
                raise ConfigurationError(
                    f"unknown setup {setup!r}; expected one of {_SETUPS}")
        for workload in self.workloads:
            zoo.workload_by_name(workload)  # raises with the full list
        for scenario in self.scenarios:
            scenario_by_name(scenario)
        for environment in self.environments:
            environment_by_name(environment)
        if self.generator is not None:
            # Register the generated scenarios eagerly so every process
            # that loads this spec (runner, fleet worker, reporter) can
            # resolve the labels its run keys carry.
            self.generator.expand()

    # -- expansion -----------------------------------------------------------

    def conditions(self) -> List[Tuple[str, ObjectiveSpec]]:
        """All (environment label, objective) cells of this campaign."""
        conditions: List[Tuple[str, ObjectiveSpec]] = []
        env_labels = list(self.environments)
        if self.generator is not None:
            env_labels.extend(self.generator.expand())
        if self.objectives:
            for cell in expand_grid({"environment": env_labels,
                                     "objective": self.objectives}):
                conditions.append((cell["environment"], cell["objective"]))
        for scenario in self.scenarios:
            preset = scenario_by_name(scenario)
            conditions.append((SCENARIO_PREFIX + scenario,
                               ObjectiveSpec.from_objective(preset.objective())))
        return conditions

    def expand(self) -> List[RunKey]:
        """The deterministic, duplicate-free run list of this campaign."""
        keys: List[RunKey] = []
        seen: set = set()
        for cell in expand_grid({"workload": self.workloads,
                                 "setup": self.setups,
                                 "condition": self.conditions(),
                                 "seed": self.seeds}):
            environment, objective = cell["condition"]
            key = RunKey(
                workload=cell["workload"],
                setup=cell["setup"],
                environment=environment,
                objective=objective,
                seed=cell["seed"],
                population=self.population,
                generations=self.generations,
                candidate_time_budget_s=self.candidate_time_budget_s,
            )
            if key.run_hash not in seen:
                seen.add(key.run_hash)
                keys.append(key)
        return keys

    # -- (de)serialization ---------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "schema_version": _SPEC_SCHEMA_VERSION,
            "name": self.name,
            "workloads": list(self.workloads),
            "setups": list(self.setups),
            "environments": list(self.environments),
            "objectives": [o.to_dict() for o in self.objectives],
            "scenarios": list(self.scenarios),
            "seeds": list(self.seeds),
            "ga": {"population": self.population,
                   "generations": self.generations},
            "max_attempts": self.max_attempts,
        }
        if self.candidate_time_budget_s is not None:
            data["candidate_time_budget_s"] = self.candidate_time_budget_s
        if self.generator is not None:
            data["generator"] = self.generator.to_dict()
        return data

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CampaignSpec":
        record = "campaign spec"
        version = _config_field(record, data, "schema_version",
                                default=_SPEC_SCHEMA_VERSION)
        if version != _SPEC_SCHEMA_VERSION:
            raise ConfigurationError(
                f"unsupported campaign-spec schema version {version!r} "
                f"(expected {_SPEC_SCHEMA_VERSION})"
            )
        _reject_unknown_keys(data, _SPEC_KEYS)
        name = _config_field(record, data, "name", str)
        workloads = _config_field(record, data, "workloads", _strings)
        ga = data.get("ga", {})
        if not isinstance(ga, Mapping):
            raise ConfigurationError("campaign-spec 'ga' must be an object")
        _reject_unknown_keys(ga, _GA_KEYS, prefix="ga.")
        return cls(
            name=name,
            workloads=workloads,
            objectives=_config_field(
                record, data, "objectives",
                lambda entries: tuple(ObjectiveSpec.from_dict(o)
                                      for o in entries), default=()),
            scenarios=_config_field(record, data, "scenarios", _strings,
                                    default=()),
            setups=_config_field(record, data, "setups", _strings,
                                 default=("existing",)),
            environments=_config_field(record, data, "environments",
                                       _strings, default=("paper",)),
            seeds=_config_field(record, data, "seeds",
                                lambda seeds: tuple(int(s) for s in seeds),
                                default=(0,)),
            population=_config_field("campaign-spec 'ga'", ga, "population",
                                     int, default=12),
            generations=_config_field("campaign-spec 'ga'", ga,
                                      "generations", int, default=8),
            candidate_time_budget_s=_config_field(
                record, data, "candidate_time_budget_s", _optional_float,
                default=None),
            max_attempts=_config_field(record, data, "max_attempts", int,
                                       default=3),
            generator=_config_field(
                record, data, "generator",
                lambda generator: (None if generator is None else
                                   ScenarioGenerator.from_dict(generator)),
                default=None),
        )

    @classmethod
    def from_json(cls, text: str) -> "CampaignSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise ConfigurationError(
                f"invalid campaign-spec JSON: {error}") from None
        if not isinstance(data, dict):
            raise ConfigurationError("campaign-spec JSON must be an object")
        return cls.from_dict(data)

    @classmethod
    def from_path(cls, path) -> "CampaignSpec":
        path = pathlib.Path(path)
        try:
            text = path.read_text()
        except OSError as error:
            raise ConfigurationError(
                f"cannot read campaign spec {path}: {error}") from None
        return cls.from_json(text)


def _strings(values: Any) -> Tuple[str, ...]:
    return tuple(str(value) for value in values)


def _optional_float(value: Any) -> Optional[float]:
    return None if value is None else float(value)


def _check_attempts(max_attempts: Optional[int]) -> None:
    """A retry cap, the spec's own or a runner's or fleet's override,
    must allow at least one attempt."""
    if max_attempts is not None and max_attempts < 1:
        raise ConfigurationError(
            f"max_attempts must be at least 1, got {max_attempts}")


def _check_seconds(name: str, value: Optional[float]) -> None:
    """A duration, when given, must be a positive, finite number of
    seconds: a NaN lease TTL, say, would store a NULL lease deadline,
    which any other worker may claim at once."""
    if value is not None and not 0.0 < value < math.inf:
        raise ConfigurationError(f"{name} must be a positive, finite "
                                 f"number of seconds, got {value}")


def _optional_number(value: Any) -> Optional[float]:
    """``value`` itself if it is ``None`` or a JSON number: a stored run
    key must hash as it was written, so ``5`` must not become ``5.0``."""
    if value is None or type(value) in (int, float):
        return value
    raise TypeError(f"expected a number or null, got {value!r}")


def _reject_unknown_keys(data: Mapping[str, Any], known: frozenset,
                         prefix: str = "") -> None:
    """Raise :class:`ConfigurationError` naming every key not in ``known``."""
    unknown = sorted(str(key) for key in data if key not in known)
    if not unknown:
        return
    message = (
        f"unknown campaign-spec key(s) "
        f"{', '.join(repr(prefix + key) for key in unknown)}; expected "
        f"{', '.join(repr(prefix + key) for key in sorted(known))}")
    if not prefix and _GA_KEYS.intersection(unknown):
        message += " (population and generations go under 'ga')"
    raise ConfigurationError(message)

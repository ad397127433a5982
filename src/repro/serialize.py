"""JSON (de)serialization of designs and solutions.

A design-space exploration is only useful if its output survives the
process: these helpers round-trip :class:`~repro.design.AuTDesign` and
:class:`~repro.core.result.AuTSolution` through plain JSON-compatible
dictionaries, so searches can be persisted, diffed and re-evaluated
later (e.g. ``python -m repro search ... > design.json`` pipelines).

Only data is serialized — never code: deserialization reconstructs the
dataclasses through their validating constructors, so a tampered or
stale file fails loudly instead of producing an impossible design.
"""

from __future__ import annotations

import json
from typing import Any, Dict

from repro.dataflow.directives import DataflowStyle
from repro.dataflow.mapping import LayerMapping
from repro.design import AuTDesign, EnergyDesign, InferenceDesign
from repro.energy.pmic import PowerManagementIC
from repro.errors import ConfigurationError, _config_field
from repro.hardware.accelerators import AcceleratorFamily
from repro.sim.metrics import EnergyBreakdown, InferenceMetrics

_SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# to dict
# ---------------------------------------------------------------------------


def mapping_to_dict(mapping: LayerMapping) -> Dict[str, Any]:
    return {
        "style": mapping.style.value,
        "n_tiles": mapping.n_tiles,
        "tile_dim": mapping.tile_dim,
        "spatial_dim": mapping.spatial_dim,
        "secondary_dim": mapping.secondary_dim,
        "n_tiles_2": mapping.n_tiles_2,
    }


def design_to_dict(design: AuTDesign) -> Dict[str, Any]:
    """A JSON-compatible description of a complete design point."""
    pmic = design.energy.pmic
    return {
        "schema_version": _SCHEMA_VERSION,
        "energy": {
            "panel_area_cm2": design.energy.panel_area_cm2,
            "capacitance_f": design.energy.capacitance_f,
            "k_cap": design.energy.k_cap,
            "pmic": {
                "v_on": pmic.v_on,
                "v_off": pmic.v_off,
                "boost_efficiency": pmic.boost_efficiency,
                "buck_efficiency": pmic.buck_efficiency,
                "quiescent_power": pmic.quiescent_power,
                "v_cold_start": pmic.v_cold_start,
            },
        },
        "inference": {
            "family": design.inference.family.value,
            "n_pes": design.inference.n_pes,
            "cache_bytes_per_pe": design.inference.cache_bytes_per_pe,
            "clock_scale": design.inference.clock_scale,
        },
        "mappings": [mapping_to_dict(m) for m in design.mappings],
    }


def design_to_json(design: AuTDesign, indent: int = 2) -> str:
    return json.dumps(design_to_dict(design), indent=indent)


# ---------------------------------------------------------------------------
# from dict
# ---------------------------------------------------------------------------


def _dataflow_style(value: Any) -> DataflowStyle:
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {type(value).__name__}")
    return DataflowStyle.from_string(value)


def mapping_from_dict(data: Dict[str, Any]) -> LayerMapping:
    record = "mapping record"
    return LayerMapping(
        style=_config_field(record, data, "style", _dataflow_style),
        n_tiles=_config_field(record, data, "n_tiles", int),
        tile_dim=_config_field(record, data, "tile_dim"),
        spatial_dim=_config_field(record, data, "spatial_dim"),
        secondary_dim=_config_field(record, data, "secondary_dim",
                                    default=None),
        n_tiles_2=_config_field(record, data, "n_tiles_2", int, default=1),
    )


def design_from_dict(data: Dict[str, Any]) -> AuTDesign:
    """Reconstruct (and re-validate) a design from its dictionary form."""
    version = _config_field("design record", data, "schema_version",
                            default=None)
    if version != _SCHEMA_VERSION:
        raise ConfigurationError(
            f"unsupported design schema version {version!r} "
            f"(expected {_SCHEMA_VERSION})"
        )
    energy, inference = "design energy", "design inference"
    energy_data = _config_field(
        "design record", data, "energy",
        missing="design record is missing section 'energy'")
    inference_data = _config_field(
        "design record", data, "inference",
        missing="design record is missing section 'inference'")
    return AuTDesign(
        energy=EnergyDesign(
            panel_area_cm2=_config_field(energy, energy_data,
                                         "panel_area_cm2", float),
            capacitance_f=_config_field(energy, energy_data,
                                        "capacitance_f", float),
            k_cap=_config_field(energy, energy_data, "k_cap", float,
                                default=EnergyDesign.k_cap),
            pmic=_config_field(
                energy, energy_data, "pmic",
                lambda pmic: PowerManagementIC(**pmic),
                missing="design record is missing section 'pmic'"),
        ),
        inference=InferenceDesign(
            family=_config_field(inference, inference_data, "family",
                                 AcceleratorFamily),
            n_pes=_config_field(inference, inference_data, "n_pes", int),
            cache_bytes_per_pe=_config_field(
                inference, inference_data, "cache_bytes_per_pe", int),
            clock_scale=_config_field(inference, inference_data,
                                      "clock_scale", float, default=1.0),
        ),
        mappings=_config_field(
            "design record", data, "mappings",
            lambda mappings: tuple(mapping_from_dict(m) for m in mappings),
            missing="design record is missing section 'mappings'"),
    )


def design_from_json(text: str) -> AuTDesign:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as error:
        raise ConfigurationError(f"invalid design JSON: {error}") from None
    if not isinstance(data, dict):
        raise ConfigurationError("design JSON must be an object")
    return design_from_dict(data)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def breakdown_to_dict(breakdown: EnergyBreakdown) -> Dict[str, float]:
    return {
        "compute": breakdown.compute,
        "vm": breakdown.vm,
        "nvm": breakdown.nvm,
        "static": breakdown.static,
        "checkpoint": breakdown.checkpoint,
        "cap_leakage": breakdown.cap_leakage,
        "conversion": breakdown.conversion,
    }


def breakdown_from_dict(data: Dict[str, Any]) -> EnergyBreakdown:
    return EnergyBreakdown(**{
        name: _config_field("energy-breakdown record", data, name, float)
        for name in breakdown_to_dict(EnergyBreakdown())})


def metrics_to_dict(metrics: InferenceMetrics) -> Dict[str, Any]:
    """Full, invertible form of one :class:`InferenceMetrics`."""
    return {
        "e2e_latency": metrics.e2e_latency,
        "busy_time": metrics.busy_time,
        "charge_time": metrics.charge_time,
        "energy": breakdown_to_dict(metrics.energy),
        "harvested_energy": metrics.harvested_energy,
        "power_cycles": metrics.power_cycles,
        "exceptions": metrics.exceptions,
        "feasible": metrics.feasible,
        "infeasible_reason": metrics.infeasible_reason,
        "sustained_period": metrics.sustained_period,
    }


def metrics_from_dict(data: Dict[str, Any]) -> InferenceMetrics:
    record = "metrics record"
    return InferenceMetrics(
        e2e_latency=_config_field(record, data, "e2e_latency", float),
        busy_time=_config_field(record, data, "busy_time", float),
        charge_time=_config_field(record, data, "charge_time", float),
        energy=_config_field(record, data, "energy", breakdown_from_dict),
        harvested_energy=_config_field(record, data, "harvested_energy",
                                       float),
        power_cycles=_config_field(record, data, "power_cycles", int),
        exceptions=_config_field(record, data, "exceptions", int),
        feasible=_config_field(record, data, "feasible", bool),
        infeasible_reason=_config_field(record, data, "infeasible_reason",
                                        str),
        sustained_period=_config_field(record, data, "sustained_period",
                                       float),
    )


def _metrics_by_env(data: Any) -> Dict[str, InferenceMetrics]:
    """``{environment: metrics}`` from its JSON object form."""
    if not isinstance(data, dict):
        raise TypeError(f"expected an object, got {type(data).__name__}")
    return {name: metrics_from_dict(metrics)
            for name, metrics in data.items()}


# ---------------------------------------------------------------------------
# solutions
# ---------------------------------------------------------------------------


def solution_to_dict(solution) -> Dict[str, Any]:
    """Serialise an :class:`~repro.core.result.AuTSolution`.

    The ``metrics`` block is the historical human-oriented summary; the
    ``average_metrics`` / ``metrics_by_env`` blocks are the full,
    invertible forms that :func:`solution_from_dict` round-trips.
    """
    metrics = solution.average_metrics
    return {
        "schema_version": _SCHEMA_VERSION,
        "design": design_to_dict(solution.design),
        "objective": solution.objective_label,
        "score": solution.score,
        "evaluations": solution.evaluations,
        "absorbed_failures": solution.absorbed_failures,
        "metrics": {
            "e2e_latency_s": metrics.e2e_latency,
            "sustained_period_s": metrics.sustained_period,
            "total_energy_j": metrics.total_energy,
            "system_efficiency": metrics.system_efficiency,
        },
        "average_metrics": metrics_to_dict(metrics),
        "metrics_by_env": {
            name: metrics_to_dict(env_metrics)
            for name, env_metrics in solution.metrics_by_env.items()
        },
        "layer_plan": [
            {
                "layer": row.layer,
                "dataflow": row.dataflow,
                "n_tiles": row.n_tiles,
                "tile_dim": row.tile_dim,
                "spatial_dim": row.spatial_dim,
            }
            for row in solution.layer_plan
        ],
    }


def solution_from_dict(data: Dict[str, Any]):
    """Reconstruct an :class:`~repro.core.result.AuTSolution`.

    The inverse of :func:`solution_to_dict` (which long predates it —
    this closes a standing API asymmetry): the design is rebuilt through
    its validating constructors and the full metrics blocks are
    restored, so a campaign store can hand back exactly the solution the
    search produced.  An attached resilience report is *not* serialized;
    re-attach one with ``dataclasses.replace(solution, resilience=...)``
    after a fault-injected rerun.
    """
    from repro.core.result import AuTSolution, LayerPlanRow

    record = "solution record"
    version = _config_field(record, data, "schema_version", default=None)
    if version != _SCHEMA_VERSION:
        raise ConfigurationError(
            f"unsupported solution schema version {version!r} "
            f"(expected {_SCHEMA_VERSION})"
        )

    def plan_row(row: Any) -> LayerPlanRow:
        return LayerPlanRow(**{
            name: _config_field("layer-plan row", row, name, convert)
            for name, convert in (("layer", str), ("dataflow", str),
                                  ("n_tiles", int), ("tile_dim", str),
                                  ("spatial_dim", str))})

    # The average metrics first: a record without them predates the
    # campaign store, whatever else it holds.
    average_metrics = _config_field(
        record, data, "average_metrics", metrics_from_dict,
        missing="solution record has no 'average_metrics' block (written "
                "by a pre-campaign release?); re-evaluate the embedded "
                "design instead")
    return AuTSolution(
        design=_config_field(record, data, "design", design_from_dict),
        average_metrics=average_metrics,
        metrics_by_env=_config_field(record, data, "metrics_by_env",
                                     _metrics_by_env),
        layer_plan=_config_field(record, data, "layer_plan",
                                 lambda rows: [plan_row(row) for row in rows]),
        objective_label=_config_field(record, data, "objective", str),
        score=_config_field(record, data, "score", float),
        evaluations=_config_field(record, data, "evaluations", int),
        absorbed_failures=_config_field(record, data, "absorbed_failures",
                                        int, default=0),
    )


def solution_to_json(solution, indent: int = 2) -> str:
    return json.dumps(solution_to_dict(solution), indent=indent)


def solution_from_json(text: str):
    try:
        data = json.loads(text)
    except json.JSONDecodeError as error:
        raise ConfigurationError(f"invalid solution JSON: {error}") from None
    if not isinstance(data, dict):
        raise ConfigurationError("solution JSON must be an object")
    return solution_from_dict(data)

"""The tool's output — Table II's "Output" rows made concrete.

An :class:`AuTSolution` carries the EH hardware sizing (``C``,
``A_eh``), the inference hardware sizing (``N_PE``, per-PE memory), and
the per-layer dataflow plan (``N_tile``, preferred dataflow style).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.design import AuTDesign
from repro.explore.bilevel import SearchResult
from repro.faults.report import ResilienceReport
from repro.sim.metrics import InferenceMetrics
from repro.workloads.network import Network


@dataclass(frozen=True)
class LayerPlanRow:
    """Per-layer slice of the solution (Table II: N_tile + dataflow)."""

    layer: str
    dataflow: str
    n_tiles: int
    tile_dim: str
    spatial_dim: str


@dataclass(frozen=True)
class AuTSolution:
    """The generated ideal AuT architecture."""

    design: AuTDesign
    average_metrics: InferenceMetrics
    metrics_by_env: Dict[str, InferenceMetrics]
    layer_plan: List[LayerPlanRow]
    objective_label: str
    score: float
    evaluations: int
    #: Candidate failures the search absorbed instead of crashing.
    absorbed_failures: int = 0
    #: Resilience of the winning design under fault injection, when a
    #: fault-injected run has been attached with
    #: ``dataclasses.replace(solution, resilience=report)``.
    resilience: Optional[ResilienceReport] = None

    # -- Table II output accessors ------------------------------------------

    @property
    def capacitor_size_f(self) -> float:
        """``C`` — capacitor size, farads."""
        return self.design.energy.capacitance_f

    @property
    def solar_panel_cm2(self) -> float:
        """``A_eh`` — solar-panel size, cm^2."""
        return self.design.energy.panel_area_cm2

    @property
    def n_pes(self) -> int:
        """``N_PE`` — processing-element count."""
        return self.design.inference.n_pes

    @property
    def vm_per_pe_bytes(self) -> int:
        """``N_mem`` — volatile memory per PE, bytes."""
        return self.design.inference.cache_bytes_per_pe

    @classmethod
    def from_search(cls, result: SearchResult, network: Network,
                    objective_label: str) -> "AuTSolution":
        plan = [
            LayerPlanRow(
                layer=layer.name,
                dataflow=mapping.style.value,
                n_tiles=mapping.effective_n_tiles(layer),
                tile_dim=mapping.tile_dim,
                spatial_dim=mapping.spatial_dim,
            )
            for layer, mapping in zip(network, result.design.mappings)
        ]
        return cls(
            design=result.design,
            average_metrics=result.average,
            metrics_by_env=result.metrics_by_env,
            layer_plan=plan,
            objective_label=objective_label,
            score=result.score,
            evaluations=result.history.evaluations,
            absorbed_failures=len(result.failures),
        )

    def report(self) -> str:
        """Human-readable solution report."""
        m = self.average_metrics
        lines = [
            f"objective      : {self.objective_label}",
            f"score          : {self.score:.4g}",
            f"solar panel    : {self.solar_panel_cm2:.2f} cm^2",
            f"capacitor      : {self.capacitor_size_f * 1e6:.1f} uF",
            f"inference HW   : {self.design.inference.family.value}, "
            f"{self.n_pes} PEs, {self.vm_per_pe_bytes} B/PE",
            f"avg latency    : {m.e2e_latency:.4g} s "
            f"(busy {m.busy_time:.4g} s, charge {m.charge_time:.4g} s)",
            f"avg energy     : {m.total_energy * 1e3:.4g} mJ "
            f"(ckpt {m.energy.checkpoint * 1e3:.3g} mJ, "
            f"leak {m.energy.cap_leakage * 1e3:.3g} mJ)",
            f"system eff.    : {m.system_efficiency:.3f}",
            f"HW evaluations : {self.evaluations} "
            f"({self.absorbed_failures} failure(s) absorbed)",
        ]
        if self.resilience is not None:
            r = self.resilience
            lines += [
                f"resilience     : "
                f"{'completed' if r.completed else 'did not complete'}, "
                f"fwd progress {r.forward_progress_ratio:.1%}, "
                f"re-exec {r.reexecution_overhead:.1%}, "
                f"ckpt loss {r.checkpoint_loss_rate:.1%}",
            ]
        lines += [
            "",
            f"{'layer':<16}{'dataflow':<10}{'N_tile':>8}  tile/spatial dims",
        ]
        for row in self.layer_plan:
            lines.append(
                f"{row.layer:<16}{row.dataflow:<10}{row.n_tiles:>8}  "
                f"{row.tile_dim}/{row.spatial_dim}"
            )
        return "\n".join(lines)

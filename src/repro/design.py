"""Design-point descriptions — what CHRYSALIS searches over.

An AuT design point (the tool's *output*, Table II) bundles:

* the energy-subsystem sizing (solar panel area, capacitor size);
* the inference-subsystem sizing (architecture family, PE count,
  per-PE cache) — fixed to the MSP430 for the existing-AuT setup;
* the per-layer intermittent mappings (dataflow + ``N_tile``).

These dataclasses are deliberately free of behaviour: the evaluator
lowers them onto the component models, and the explorer mutates them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Tuple

from repro.dataflow.mapping import LayerMapping
from repro.energy.capacitor import DEFAULT_K_CAP, Capacitor
from repro.energy.pmic import PowerManagementIC
from repro.energy.solar_panel import SolarPanel
from repro.errors import ConfigurationError
from repro.hardware.accelerators import (
    AcceleratorConfig,
    AcceleratorFamily,
    build_accelerator,
)
from repro.hardware.msp430 import MSP430Platform
from repro.workloads.network import Network


@dataclass(frozen=True)
class EnergyDesign:
    """Sizing of the energy subsystem (the EA half of the co-design)."""

    panel_area_cm2: float
    capacitance_f: float
    k_cap: float = DEFAULT_K_CAP
    pmic: PowerManagementIC = field(default_factory=PowerManagementIC)

    def __post_init__(self) -> None:
        # Chained comparisons reject NaN and infinities at the price of
        # the sign checks alone: serving parses one design per request.
        if not 0.0 < self.panel_area_cm2 < math.inf:
            raise ConfigurationError(
                f"panel_area_cm2 must be positive and finite, "
                f"got {self.panel_area_cm2}"
            )
        if not 0.0 < self.capacitance_f < math.inf:
            raise ConfigurationError(
                f"capacitance_f must be positive and finite, "
                f"got {self.capacitance_f}"
            )
        if not 0.0 <= self.k_cap < math.inf:
            raise ConfigurationError(
                f"k_cap must be non-negative and finite, got {self.k_cap}"
            )

    def build_panel(self) -> SolarPanel:
        return SolarPanel(area_cm2=self.panel_area_cm2)

    def build_capacitor(self, initial_voltage: float = 0.0) -> Capacitor:
        return Capacitor(
            capacitance=self.capacitance_f,
            rated_voltage=max(5.0, self.pmic.v_on + 1.0),
            k_cap=self.k_cap,
            voltage=initial_voltage,
        )


@dataclass(frozen=True)
class InferenceDesign:
    """Sizing of the inference subsystem (the IA half of the co-design).

    For the existing-AuT setup use :meth:`msp430`, which ignores the PE
    knobs (the LEA is what it is); for the future-AuT setup pick a
    family plus PE count / cache size from the Table V space.
    ``clock_scale`` is the optional DVFS knob (1.0 = nominal): slower
    clocks cost quadratically less energy per MAC.
    """

    family: AcceleratorFamily
    n_pes: int = 1
    cache_bytes_per_pe: int = 512
    clock_scale: float = 1.0

    def __post_init__(self) -> None:
        if not 0 < self.n_pes < math.inf:
            raise ConfigurationError(
                f"n_pes must be positive and finite, got {self.n_pes}")
        if not 0 < self.cache_bytes_per_pe < math.inf:
            raise ConfigurationError(
                f"cache_bytes_per_pe must be positive and finite, "
                f"got {self.cache_bytes_per_pe}"
            )
        if not 0.0 < self.clock_scale < math.inf:
            raise ConfigurationError(
                f"clock_scale must be positive and finite, "
                f"got {self.clock_scale}"
            )

    @classmethod
    def msp430(cls) -> "InferenceDesign":
        return cls(family=AcceleratorFamily.MSP430, n_pes=1,
                   cache_bytes_per_pe=MSP430Platform().sram_bytes // 2)

    def build(self) -> AcceleratorConfig:
        if self.family is AcceleratorFamily.MSP430:
            return MSP430Platform().as_accelerator()
        return build_accelerator(self.family, self.n_pes,
                                 self.cache_bytes_per_pe,
                                 clock_scale=self.clock_scale)


@dataclass(frozen=True)
class AuTDesign:
    """A complete candidate architecture: EA + IA + mapping.

    ``mappings`` holds one :class:`LayerMapping` per network layer, in
    network order.  Use :meth:`with_default_mappings` to seed one.
    """

    energy: EnergyDesign
    inference: InferenceDesign
    mappings: Tuple[LayerMapping, ...]

    @classmethod
    def with_default_mappings(cls, energy: EnergyDesign,
                              inference: InferenceDesign,
                              network: Network,
                              n_tiles: int = 1) -> "AuTDesign":
        mappings = tuple(
            LayerMapping.default(layer, n_tiles=n_tiles) for layer in network
        )
        return cls(energy=energy, inference=inference, mappings=mappings)

    def validate_against(self, network: Network) -> None:
        if len(self.mappings) != len(network):
            raise ConfigurationError(
                f"design has {len(self.mappings)} mappings but the network "
                f"has {len(network)} layers"
            )

    @property
    def footprint_cm2(self) -> float:
        """SWaP size proxy: the harvester dominates AuT volume (§III-B-3)."""
        return self.energy.panel_area_cm2

    def describe(self) -> str:
        """One-line human-readable summary for reports."""
        return (
            f"SP={self.energy.panel_area_cm2:.1f}cm2 "
            f"C={self.energy.capacitance_f * 1e6:.0f}uF "
            f"{self.inference.family.value} "
            f"PEs={self.inference.n_pes} "
            f"cache={self.inference.cache_bytes_per_pe}B"
        )


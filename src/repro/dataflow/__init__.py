"""Data-centric dataflow description and cost modelling.

This package re-implements, in pure Python, the slice of MAESTRO's
data-centric mapping methodology that CHRYSALIS builds on (§III-B-2 and
Fig. 4 of the paper), extended with the paper's contribution: the
``InterTempMap`` directive that partitions a layer across *energy
cycles*, forcing all inter-tile data back through NVM.

* :mod:`repro.dataflow.directives` — TemporalMap / SpatialMap /
  InterTempMap and the dataflow-style taxonomy (WS / OS / IS).
* :mod:`repro.dataflow.tiling` — chunk counts and input halos of a tile.
* :mod:`repro.dataflow.loopnest` — loop-nest rendering & trip counts.
* :mod:`repro.dataflow.mapping` — a complete per-layer mapping scheme.
* :mod:`repro.dataflow.cost_model` — the analytical reuse/energy/latency
  model that the CHRYSALIS evaluator consumes.
"""

from repro.dataflow.cost_model import DataflowCostModel, LayerCost, TileCost
from repro.dataflow.directives import (
    DataflowStyle,
    Directive,
    InterTempMap,
    MappingDirectives,
    SpatialMap,
    TemporalMap,
)
from repro.dataflow.loopnest import LoopNest
from repro.dataflow.mapping import LayerMapping

__all__ = [
    "DataflowCostModel",
    "DataflowStyle",
    "Directive",
    "InterTempMap",
    "LayerCost",
    "LayerMapping",
    "LoopNest",
    "MappingDirectives",
    "SpatialMap",
    "TemporalMap",
    "TileCost",
]

"""Pricing pinned against frozen outputs of the equations.

``tests/golden/pricing.json`` holds the outputs of the closed-form
pricing (Eqs. 1-9) for a fixed grid of inputs, written by
``tests/golden/make_pricing.py``.  Every pricing entry point must
reproduce them exactly:

* ``tile_costs`` — the :class:`TileCost` of every rung the SW-level
  mapper (``mapper_search._ladder``) enumerates, for every layer of five zoo
  networks covering each layer kind the cost model prices, on four
  accelerators; priced through both ``layer_cost`` and
  ``layer_cost_batch`` from a cold cache, and through ``layer_cost``
  with the cache cleared once per network, where three accelerators
  price from the tile geometry the first one built;
* ``metrics`` — analytical :func:`repro.evaluate` and
  :func:`repro.evaluate_batch` results per environment, for seeded
  designs from both design spaces plus the infeasible zoo of
  ``test_batch_eval``;
* ``searches`` — the score and lowered design of one small serial and
  one small batched search.

Values are compared as ``float.hex(float(x))``: exact, and blind to
whether a byte count is carried as an ``int`` or a ``float``.  The
per-rung records are too many to check in, so each layer is stored as
a SHA-256 over its rung records, and each tile-cost field as a SHA-256
over its values across a whole (accelerator, network) pair; a mismatch
names the layer and the field that moved.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib
import random
from typing import Any, Dict, List

import pytest

from repro import evaluate, evaluate_batch
from repro.dataflow.cost_model import (DataflowCostModel, TileCost,
                                       clear_layer_cost_cache)
from repro.design import AuTDesign, InferenceDesign
from repro.energy.environment import LightEnvironment
from repro.environments import ScenarioGenerator, environment_by_name
from repro.errors import MappingError
from repro.explore.bilevel import BilevelExplorer
from repro.explore.ga import GAConfig
from repro.explore.mapper_search import MappingOptimizer, _ladder
from repro.explore.objectives import Objective
from repro.explore.space import DesignSpace
from repro.hardware.accelerators import AcceleratorFamily
from repro.hardware.checkpoint import CheckpointModel
from repro.serialize import design_to_dict
from repro.workloads import zoo
from tests.test_batch_eval import _designs_for

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden" / "pricing.json"

#: Between them these price every layer kind: conv, dense, pool,
#: depthwise conv, matmul and embedding.
TILE_NETWORKS = ("har_cnn", "kws_mlp", "cifar10_cnn", "mobilenet_tiny",
                 "bert_tiny")
METRIC_NETWORKS = ("har_cnn", "cifar10_cnn")
TILE_FIELDS = tuple(field.name for field in dataclasses.fields(TileCost))


def _hex(value: Any) -> str:
    return float.hex(float(value))


def _digest(lines: List[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def accelerators() -> Dict[str, InferenceDesign]:
    """MSP430, one TPU, one Eyeriss and one seeded future-AuT point."""
    space = DesignSpace.future_aut()
    seeded = space.to_design(space.sample(random.Random(5)), ()).inference
    return {
        "msp430": InferenceDesign.msp430(),
        "tpu64": InferenceDesign(family=AcceleratorFamily.TPU, n_pes=64,
                                 cache_bytes_per_pe=512),
        "eyeriss64": InferenceDesign(family=AcceleratorFamily.EYERISS,
                                     n_pes=64, cache_bytes_per_pe=512),
        "future_seed5": seeded,
    }


def _ladders(network):
    """``(layer, ladder)`` for every combo the rung-table mapper prices."""
    mapper = MappingOptimizer(network)
    for layer in network:
        dims = layer.dims()
        for style in mapper.styles:
            for tile_dim, spatial_dim in mapper._dim_pairs(layer):
                yield layer, _ladder(mapper, dims, style, tile_dim,
                                     spatial_dim)


def _tile_record(mapping, cost) -> List[str]:
    if cost is None:
        return [repr(mapping), "MappingError"]
    return ([repr(mapping), cost.layer_name, str(cost.n_tiles)]
            + [_hex(getattr(cost.tile, name)) for name in TILE_FIELDS])


def tile_costs(path: str, clear_per_network: bool = False
               ) -> Dict[str, Any]:
    """Digests of every rung's cost, priced via ``path`` from cold.

    The cache is cleared before each (accelerator, network) pair, or,
    with ``clear_per_network``, once per network, so that every
    accelerator after the first prices from the tile geometry another
    accelerator built.
    """
    out: Dict[str, Any] = {}
    hardwares = {name: inference.build()
                 for name, inference in accelerators().items()}
    for net_name in TILE_NETWORKS:
        if clear_per_network:
            clear_layer_cost_cache()
        for acc_name, hardware in hardwares.items():
            if not clear_per_network:
                clear_layer_cost_cache()
            model = DataflowCostModel(
                hardware, CheckpointModel(nvm=hardware.nvm.technology))
            layers: Dict[str, List[str]] = {}
            columns: Dict[str, List[str]] = {name: [] for name in TILE_FIELDS}
            for layer, ladder in _ladders(getattr(zoo, net_name)()):
                if path == "layer_cost":
                    costs = []
                    for mapping in ladder:
                        try:
                            costs.append(model.layer_cost(layer, mapping))
                        except MappingError:
                            costs.append(None)
                else:
                    try:
                        costs = model.layer_cost_batch(layer, ladder)
                    except MappingError:
                        costs = [None] * len(ladder)
                lines = layers.setdefault(layer.name, [])
                for mapping, cost in zip(ladder, costs):
                    lines.append(" ".join(_tile_record(mapping, cost)))
                    if cost is not None:
                        for name in TILE_FIELDS:
                            columns[name].append(_hex(getattr(cost.tile,
                                                              name)))
            out[f"{acc_name}/{net_name}"] = {
                "rungs": sum(len(lines) for lines in layers.values()),
                "layers": {name: _digest(lines)
                           for name, lines in layers.items()},
                "fields": {name: _digest(values)
                           for name, values in columns.items()},
            }
    clear_layer_cost_cache()
    return out


def environments() -> Dict[str, LightEnvironment]:
    label = ScenarioGenerator(name="golden", seed=3, count=1).expand()[0]
    return {
        "brighter": LightEnvironment.brighter(),
        "darker": LightEnvironment.darker(),
        "indoor": LightEnvironment.indoor(),
        "trace": environment_by_name(label)[0],
    }


def designs(network) -> List[AuTDesign]:
    """The infeasible zoo plus seeded, mapper-lowered points of both
    design spaces (default two-tile mappings when the mapper finds
    none)."""
    points = list(_designs_for(network))
    mapper = MappingOptimizer(network)
    for space, seed in ((DesignSpace.existing_aut(), 1),
                        (DesignSpace.future_aut(), 2)):
        rng = random.Random(seed)
        for _ in range(4):
            genome = space.sample(rng)
            seeded = space.to_design(genome, ())
            mappings = mapper.optimize(seeded.energy, seeded.inference)
            if mappings is None:
                points.append(AuTDesign.with_default_mappings(
                    seeded.energy, seeded.inference, network, n_tiles=2))
            else:
                points.append(space.to_design(genome, mappings))
    return points


def metrics_record(metrics) -> Dict[str, Any]:
    energy = metrics.energy
    return {
        "feasible": metrics.feasible,
        "reason": metrics.infeasible_reason,
        "power_cycles": metrics.power_cycles,
        "exceptions": metrics.exceptions,
        "values": [_hex(value) for value in (
            metrics.e2e_latency, metrics.busy_time, metrics.charge_time,
            metrics.harvested_energy, metrics.sustained_period,
            energy.compute, energy.vm, energy.nvm, energy.static,
            energy.checkpoint, energy.cap_leakage, energy.conversion)],
    }


def metrics(path: str) -> Dict[str, Any]:
    """Per-(network, environment) metric records, one per design.

    ``"paper"`` is the default brighter/darker pair, averaged.
    """
    out: Dict[str, Any] = {}
    envs = environments()
    for net_name in METRIC_NETWORKS:
        network = getattr(zoo, net_name)()
        points = designs(network)
        cases = [(name, [env]) for name, env in envs.items()]
        cases.append(("paper", None))
        for env_name, env_list in cases:
            if path == "evaluate":
                reports = [evaluate(design, network, fidelity="analytical",
                                    environments=env_list)
                           for design in points]
            else:
                reports = evaluate_batch(points, network,
                                         environments=env_list)
            out[f"{net_name}/{env_name}"] = [
                metrics_record(report.metrics) for report in reports]
    return out


SEARCHES = {
    "serial": dict(network="har_cnn", space="existing_aut",
                   ga=dict(population_size=6, generations=3, seed=11)),
    "batched": dict(network="har_cnn", space="future_aut",
                    ga=dict(population_size=6, generations=2, seed=7,
                            batched=True)),
}


def search(mode: str) -> Dict[str, Any]:
    case = SEARCHES[mode]
    result = BilevelExplorer(
        network=getattr(zoo, case["network"])(),
        space=getattr(DesignSpace, case["space"])(),
        objective=Objective.lat_sp(),
        ga_config=GAConfig(**case["ga"]),
    ).run()
    return {"score": _hex(result.score),
            "design": design_to_dict(result.design)}


def collect() -> Dict[str, Any]:
    """Everything the fixture stores (the generator's entry point)."""
    return {
        "tile_costs": tile_costs("layer_cost"),
        "metrics": metrics("evaluate"),
        "searches": {mode: search(mode) for mode in SEARCHES},
    }


@pytest.fixture(scope="module")
def golden() -> Dict[str, Any]:
    return json.loads(GOLDEN_PATH.read_text())


def _assert_tile_costs_match(golden, got):
    moved = [f"{pair} {part}:{name}"
             for pair, entry in golden["tile_costs"].items()
             for part in ("layers", "fields")
             for name, digest in entry[part].items()
             if got.get(pair, {}).get(part, {}).get(name) != digest]
    assert not moved, "tile costs moved: " + ", ".join(moved)
    assert got == golden["tile_costs"]


@pytest.mark.parametrize("path", ["layer_cost", "layer_cost_batch"])
def test_tile_costs_match_golden(golden, path):
    _assert_tile_costs_match(golden, tile_costs(path))


def test_tile_costs_match_golden_from_shared_geometry(golden):
    """Three of the four accelerators price every rung from tile
    geometry built on another one."""
    _assert_tile_costs_match(
        golden, tile_costs("layer_cost", clear_per_network=True))


@pytest.mark.parametrize("path", ["evaluate", "evaluate_batch"])
def test_metrics_match_golden(golden, path):
    assert metrics(path) == golden["metrics"]


@pytest.mark.parametrize("mode", sorted(SEARCHES))
def test_search_matches_golden(golden, mode):
    assert search(mode) == golden["searches"][mode]


def test_golden_covers_every_layer_kind():
    kinds = {layer.kind.value for name in TILE_NETWORKS
             for layer in getattr(zoo, name)()}
    assert kinds == {"conv", "depthwise_conv", "pool", "dense", "matmul",
                     "embedding"}

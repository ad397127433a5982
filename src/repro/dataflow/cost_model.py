"""Analytical dataflow cost model ("MAESTRO-lite").

Given a layer, a :class:`~repro.dataflow.mapping.LayerMapping` and an
:class:`~repro.hardware.accelerators.AcceleratorConfig`, this module
computes the per-energy-cycle-tile quantities the paper's Eqs. 4-6 need:

* **compute** — MAC count, active-PE utilisation, compute time;
* **NVM traffic** — every tile reads its inputs/weights from NVM and
  writes its outputs back (steps 1 and 5 of Fig. 4); a reduction split
  (``tile_dim == 'C'``) additionally round-trips partial sums;
* **VM <-> PE traffic** — reuse analysis in the MAESTRO data-centric
  spirit: the dataflow style pins one operand in the PE caches, and the
  number of passes the *streaming* operands make equals the number of
  resident sub-blocks the cache capacity forces;
* **energy** — datapath + cache + NoC/VM + NVM + static retention
  (Eq. 4: ``E_tile = E_read + E_infer + E_write + E_static``);
* **checkpoint volume** — the live VM working set, priced by the
  checkpoint model (the ``N_ckpt (e_r + e_w)`` term of Eq. 5).

The model is intentionally analytical (no cycle simulation): CHRYSALIS
calls it millions of times inside the bi-level search.  Its fidelity
target is faithful *ordering* of design points, which the step-based
simulator cross-checks.
"""

from __future__ import annotations

import math
import time as _time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.dataflow.directives import DataflowStyle
from repro.dataflow.mapping import LayerMapping
from repro.dataflow.tiling import halo_extent
from repro.errors import ConfigurationError, MappingError
from repro.hardware.accelerators import AcceleratorConfig
from repro.hardware.checkpoint import CheckpointModel
from repro.obs.state import OBS
from repro.workloads.layers import Layer, LayerKind

#: Fraction of each PE cache reserved for the resident operand; the rest
#: stages the streaming operands.
_RESIDENT_CACHE_SHARE = 0.7

#: Energy of one pooling operation relative to a full MAC.  A pooling
#: datapath performs a comparison/accumulate without the multiplier,
#: which dominates MAC energy; 0.3 is the ballpark of published
#: comparator-vs-MAC breakdowns at int8.  Pooling *time* is unchanged
#: (a compare still occupies an issue slot), only the datapath energy
#: is discounted.
_POOL_OP_ENERGY_SCALE = 0.3


class _LayerCostCache:
    """Process-local cache of :class:`LayerCost` results.

    The bi-level explorer re-prices identical ``(hardware, checkpoint,
    layer, mapping)`` combinations millions of times: the SW-level
    mapping scan queries one model per environment (tile costs are
    environment-independent), and every genome sharing an inference
    configuration repeats the whole scan.  :class:`LayerCost` is frozen,
    so cached instances are safe to share.

    The hit path must cost single-digit microseconds or it eats its own
    savings, so the structure is two-level: each
    :class:`DataflowCostModel` resolves its ``(hardware, checkpoint)``
    prefix to a per-prefix dict once at construction, and every lookup
    is then a single probe keyed by the raw ``(layer, mapping)`` pair.
    The bound is enforced by flushing everything when the entry count
    exceeds ``maxsize`` (at the default bound a realistic search never
    gets there), which keeps per-hit bookkeeping at zero.
    """

    def __init__(self, maxsize: int = 65536) -> None:
        self.maxsize = maxsize
        self.enabled = True
        self.hits = 0
        self.misses = 0
        self._size = 0
        self._maps: Dict[tuple, Dict[tuple, LayerCost]] = {}

    def map_for(self, prefix: tuple) -> Dict[tuple, "LayerCost"]:
        """The per-prefix entry dict (created on first use)."""
        entries = self._maps.get(prefix)
        if entries is None:
            entries = self._maps[prefix] = {}
        return entries

    def insert(self, entries: Dict[tuple, "LayerCost"], key: tuple,
               cost: "LayerCost") -> None:
        """Insert one entry; flush if the bound is exceeded."""
        entries[key] = cost
        self._size += 1
        if self._size > self.maxsize:
            self._flush()

    def _flush(self) -> None:
        # Clear the per-prefix dicts in place so models holding a
        # reference see the flush too.
        for entries in self._maps.values():
            entries.clear()
        self._size = 0

    def clear(self) -> None:
        self._flush()
        self._maps.clear()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return self._size


_LAYER_COST_CACHE = _LayerCostCache()


def configure_layer_cost_cache(enabled: Optional[bool] = None,
                               maxsize: Optional[int] = None) -> None:
    """Tune the process-wide layer-cost cache (bench/testing hook)."""
    if maxsize is not None:
        if maxsize < 1:
            raise ConfigurationError(
                f"layer-cost cache maxsize must be positive, got {maxsize}"
            )
        _LAYER_COST_CACHE.maxsize = maxsize
    if enabled is not None:
        _LAYER_COST_CACHE.enabled = enabled


def clear_layer_cost_cache() -> None:
    """Drop all entries and reset the hit/miss counters."""
    _LAYER_COST_CACHE.clear()


def layer_cost_cache_stats() -> Tuple[int, int]:
    """``(hits, misses)`` of the process-wide layer-cost cache."""
    return _LAYER_COST_CACHE.hits, _LAYER_COST_CACHE.misses


@dataclass(frozen=True)
class TileCost:
    """Costs of one energy-cycle tile (the unit Eq. 8 constrains)."""

    macs: int
    active_pes: int
    compute_time: float  # s, on the active PEs
    io_time: float  # s, NVM + VM transfer time
    latency: float  # s, after overlap policy
    compute_energy: float  # J, datapath + PE caches
    vm_energy: float  # J, NoC + shared-buffer accesses
    nvm_read_bytes: float
    nvm_write_bytes: float
    nvm_energy: float  # J
    static_energy: float  # J, rail-on static draw x latency
    working_set_bytes: float  # VM occupancy of the tile
    checkpoint_bytes: float  # N_ckpt
    checkpoint_energy: float  # J, expected (1 + r_exc) x (save + resume)
    checkpoint_time: float  # s, expected save + resume time
    fits_vm: bool

    @property
    def energy(self) -> float:
        """Total expected energy of the tile (Eq. 4 plus checkpointing)."""
        return (self.compute_energy + self.vm_energy + self.nvm_energy
                + self.static_energy + self.checkpoint_energy)

    @property
    def energy_without_checkpoint(self) -> float:
        return self.energy - self.checkpoint_energy

    @property
    def total_time(self) -> float:
        return self.latency + self.checkpoint_time


@dataclass(frozen=True)
class LayerCost:
    """Aggregate of one layer: ``n_tiles`` identical tiles (Eq. 5)."""

    layer_name: str
    n_tiles: int
    tile: TileCost

    @property
    def macs(self) -> int:
        return self.n_tiles * self.tile.macs

    @property
    def energy(self) -> float:
        return self.n_tiles * self.tile.energy

    @property
    def checkpoint_energy(self) -> float:
        return self.n_tiles * self.tile.checkpoint_energy

    @property
    def compute_energy(self) -> float:
        return self.n_tiles * self.tile.compute_energy

    @property
    def memory_energy(self) -> float:
        return self.n_tiles * (self.tile.vm_energy + self.tile.nvm_energy)

    @property
    def static_energy(self) -> float:
        return self.n_tiles * self.tile.static_energy

    @property
    def busy_time(self) -> float:
        """Rail-on time to execute all tiles, s (excludes recharging)."""
        return self.n_tiles * self.tile.total_time

    @property
    def fits_vm(self) -> bool:
        return self.tile.fits_vm


class DataflowCostModel:
    """Evaluates mappings against an accelerator configuration."""

    def __init__(self, hardware: AcceleratorConfig,
                 checkpoint: CheckpointModel) -> None:
        self.hardware = hardware
        self.checkpoint = checkpoint
        #: The cache bucket of the hardware/checkpoint pair every model
        #: built on it shares — resolved once, here, so the per-call hit
        #: path never hashes the hardware config again.  Tile costs do
        #: not depend on the light environment, so the prefix
        #: deliberately omits it: models for different environments
        #: share entries.
        self._cache_map = _LAYER_COST_CACHE.map_for(
            (hardware.cache_key(), checkpoint))

    # -- public API -----------------------------------------------------------

    def layer_cost(self, layer: Layer, mapping: LayerMapping) -> LayerCost:
        """Cost of executing ``layer`` under ``mapping`` (memoized).

        Entries are keyed by the *raw* mapping; clamping is
        deterministic, so two raw mappings that clamp to the same
        effective mapping simply occupy two entries with equal values.
        """
        if OBS.profile:
            return self._layer_cost_profiled(layer, mapping)
        cache = _LAYER_COST_CACHE
        if not cache.enabled:
            return self._layer_cost_uncached(layer, mapping.clamped(layer))
        key = (layer, mapping)
        cost = self._cache_map.get(key)
        if cost is not None:
            cache.hits += 1
            return cost
        cache.misses += 1
        cost = self._layer_cost_uncached(layer, mapping.clamped(layer))
        cache.insert(self._cache_map, key, cost)
        return cost

    def _layer_cost_profiled(self, layer: Layer,
                             mapping: LayerMapping) -> LayerCost:
        """The profiling twin of :meth:`layer_cost`.

        Same logic, plus a latency histogram per outcome — cache hit,
        cache miss, or cache-disabled — so the report can show the
        hit/miss latency split.  Kept out of the default path: the hit
        path is microseconds and two ``perf_counter`` calls would be a
        measurable tax.
        """
        registry = OBS.registry
        cache = _LAYER_COST_CACHE
        start = _time.perf_counter()
        if not cache.enabled:
            cost = self._layer_cost_uncached(layer, mapping.clamped(layer))
            registry.histogram("cost.layer_cost.uncached_seconds").observe(
                _time.perf_counter() - start)
            return cost
        key = (layer, mapping)
        cost = self._cache_map.get(key)
        if cost is not None:
            cache.hits += 1
            registry.histogram("cost.layer_cost.hit_seconds").observe(
                _time.perf_counter() - start)
            return cost
        cache.misses += 1
        cost = self._layer_cost_uncached(layer, mapping.clamped(layer))
        cache.insert(self._cache_map, key, cost)
        registry.histogram("cost.layer_cost.miss_seconds").observe(
            _time.perf_counter() - start)
        return cost

    def _layer_cost_uncached(self, layer: Layer,
                             mapping: LayerMapping) -> LayerCost:
        n_tiles = mapping.effective_n_tiles(layer)
        tile = self._tile_cost(layer, mapping, n_tiles)
        return LayerCost(layer_name=layer.name, n_tiles=n_tiles, tile=tile)

    def single_pe_time(self, layer: Layer) -> float:
        """``T_df`` of Eq. 6: whole-layer compute time on one PE, s."""
        return layer.macs / self.hardware.pes.macs_per_second_per_pe

    def layer_cost_batch(self, layer: Layer,
                         mappings: Sequence[LayerMapping]) -> List[LayerCost]:
        """Price many mappings of ``layer``, in order.

        Exactly ``[self.layer_cost(layer, m) for m in mappings]``: the
        same cache probes and hit/miss counts, and the same float chain
        (:meth:`_tile_cost` is the only implementation of Eqs. 4-6).
        """
        return [self.layer_cost(layer, mapping) for mapping in mappings]

    # -- internals ----------------------------------------------------------------

    def _tile_cost(self, layer: Layer, mapping: LayerMapping,
                   n_tiles: int) -> TileCost:
        hw = self.hardware
        tile_dims = mapping.tile_dims(layer)
        macs = math.prod(tile_dims.values())
        if layer.kind is LayerKind.EMBEDDING:
            # Table lookups: no datapath ops at all.
            macs = 0

        in_bytes, w_bytes, out_bytes = self._tile_tensor_bytes(layer, mapping,
                                                               tile_dims)

        spatial_extent = tile_dims[mapping.spatial_dim]
        active_pes = max(1, min(hw.pes.n_pes, spatial_extent))

        # --- VM <-> PE reuse analysis -------------------------------------
        resident_bytes, streaming = self._split_operands(
            mapping.style, in_bytes, w_bytes, out_bytes
        )
        streaming_bytes = sum(size for _, size in streaming)
        cache_budget = _RESIDENT_CACHE_SHARE * active_pes * hw.pes.cache_bytes_per_pe
        n_sub = max(1, math.ceil(resident_bytes / max(cache_budget, 1.0)))
        penalty = hw.traffic_penalty(mapping.style)
        vm_traffic = (resident_bytes + n_sub * streaming_bytes) * penalty

        # --- NVM traffic (Fig. 4 steps 1 and 5) ----------------------------
        nvm_read = in_bytes + w_bytes
        nvm_write = out_bytes
        if mapping.tile_dim == "C" and n_tiles > 1:
            # Reduction split: partial outputs round-trip through NVM.
            nvm_read += out_bytes
        vm_capacity = hw.vm.size_bytes
        for name, size in streaming:
            if size <= vm_capacity or n_sub <= 1:
                continue
            # The operand cannot be cached in VM across sub-block passes,
            # so every extra pass re-touches backing NVM.
            if name == "out":
                # Partial sums: each extra pass is a read-modify-write.
                nvm_read += size * (n_sub - 1)
                nvm_write += size * (n_sub - 1)
            else:
                nvm_read += size * (n_sub - 1)
        # Partial sums spill to VM whenever outputs are not the resident
        # operand and the resident set had to be sub-blocked.
        if mapping.style is not DataflowStyle.OUTPUT_STATIONARY:
            vm_traffic += out_bytes * max(0, n_sub - 1) * 2.0

        # --- times -----------------------------------------------------------
        compute_time = hw.pes.compute_time(macs, active_pes) if macs else 0.0
        vm_tech = hw.vm.technology
        io_time = (
            hw.nvm.read_time(nvm_read)
            + hw.nvm.write_time(nvm_write)
            + vm_traffic / vm_tech.read_bandwidth
        )
        if hw.overlapped_io:
            latency = max(compute_time, io_time)
        else:
            latency = compute_time + io_time

        # --- energies -----------------------------------------------------------
        bpe = layer.bytes_per_element
        compute_energy = hw.pes.compute_energy(macs)
        if layer.kind is LayerKind.POOL:
            # Pooling ops are comparisons/accumulates, not full MACs.
            compute_energy *= _POOL_OP_ENERGY_SCALE
        compute_energy += 3.0 * macs * bpe * hw.pes.cache_access_energy_per_byte
        vm_energy = vm_traffic * (
            vm_tech.read_energy_per_byte + hw.noc_energy_per_byte
        )
        nvm_energy = (hw.nvm.read_energy(nvm_read)
                      + hw.nvm.write_energy(nvm_write))
        static_energy = hw.static_power * latency

        # --- checkpointing ----------------------------------------------------------
        working_set = min(in_bytes + w_bytes + out_bytes, hw.vm.size_bytes)
        if n_tiles > 1:
            ckpt_bytes = self.checkpoint.checkpoint_bytes(working_set)
            ckpt_energy = self.checkpoint.expected_tile_overhead_energy(
                working_set
            )
            ckpt_time = (1.0 + self.checkpoint.exception_rate) * (
                self.checkpoint.save_time(working_set)
                + self.checkpoint.resume_time(working_set)
            )
        else:
            ckpt_bytes = 0.0
            ckpt_energy = 0.0
            ckpt_time = 0.0

        return TileCost(
            macs=macs,
            active_pes=active_pes,
            compute_time=compute_time,
            io_time=io_time,
            latency=latency,
            compute_energy=compute_energy,
            vm_energy=vm_energy,
            nvm_read_bytes=nvm_read,
            nvm_write_bytes=nvm_write,
            nvm_energy=nvm_energy,
            static_energy=static_energy,
            working_set_bytes=working_set,
            checkpoint_bytes=ckpt_bytes,
            checkpoint_energy=ckpt_energy,
            checkpoint_time=ckpt_time,
            fits_vm=in_bytes + w_bytes + out_bytes <= hw.vm.size_bytes,
        )

    @staticmethod
    def _split_operands(
        style: DataflowStyle, in_bytes: float, w_bytes: float,
        out_bytes: float,
    ) -> Tuple[float, Tuple[Tuple[str, float], ...]]:
        """Resident volume and named streaming volumes for a style."""
        if style is DataflowStyle.WEIGHT_STATIONARY:
            return w_bytes, (("in", in_bytes), ("out", out_bytes))
        if style is DataflowStyle.OUTPUT_STATIONARY:
            return out_bytes, (("in", in_bytes), ("w", w_bytes))
        if style is DataflowStyle.INPUT_STATIONARY:
            return in_bytes, (("w", w_bytes), ("out", out_bytes))
        raise MappingError(f"unknown dataflow style {style!r}")

    @staticmethod
    def _tile_tensor_bytes(layer: Layer, mapping: LayerMapping,
                           tile_dims: Dict[str, int]) -> Tuple[float, float, float]:
        """(input, weight, output) bytes of one energy-cycle tile."""
        bpe = layer.bytes_per_element
        d = tile_dims
        out_elems = d["K"] * d["Y"] * d["X"]

        if layer.kind in (LayerKind.CONV, LayerKind.DEPTHWISE_CONV,
                          LayerKind.POOL):
            stride = getattr(layer, "stride", 1)
            in_h = halo_extent(d["Y"], d["R"], stride)
            in_w = halo_extent(d["X"], d["S"], stride)
            if layer.kind is LayerKind.CONV:
                in_ch = d["C"]
                w_elems = d["K"] * d["C"] * d["R"] * d["S"]
            else:
                # Depthwise / pooling: channels come from K, no contraction.
                in_ch = d["K"]
                has_weights = layer.params > 0
                w_elems = d["K"] * d["R"] * d["S"] if has_weights else 0
            in_elems = in_ch * in_h * in_w
        elif layer.kind is LayerKind.DENSE:
            in_elems = d["Y"] * d["C"]
            w_elems = d["K"] * d["C"]
        elif layer.kind is LayerKind.MATMUL:
            in_elems = d["Y"] * d["C"] + d["C"] * d["K"]
            w_elems = 0
        elif layer.kind is LayerKind.EMBEDDING:
            in_elems = d["Y"]
            w_elems = d["Y"] * math.prod(layer.output_shape) // max(
                layer.output_shape[0], 1
            )
            out_elems = w_elems
        else:
            raise MappingError(f"unsupported layer kind {layer.kind!r}")

        return in_elems * bpe, w_elems * bpe, out_elems * bpe

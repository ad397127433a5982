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

Each price comes in two halves.  :meth:`_TileGeometry.of` is the half
the layer and the mapping fix (loop bounds, operand bytes, the style's
resident/streaming split, the base NVM traffic), all integer
arithmetic; :meth:`DataflowCostModel._tile_cost` prices one geometry on
one accelerator.  A future-AuT search sizes a new accelerator for every
genome, so the layer-cost cache keeps the geometry of each raw
``(layer, mapping)`` pair next to its :class:`LayerCost` entries, and a
miss on a new accelerator redoes only the hardware's float chain.
"""

from __future__ import annotations

import math
import time as _time
import weakref
from dataclasses import dataclass
from typing import Any, Dict, List, NamedTuple, Sequence, Tuple

from repro.dataflow.directives import DataflowStyle
from repro.dataflow.mapping import LayerMapping
from repro.dataflow.tiling import halo_extent
from repro.errors import MappingError
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


class _Entries(dict):
    """One prefix's entries: a dict :class:`_TwoLevelMemo` can track
    weakly."""

    __slots__ = ("__weakref__",)


class _TwoLevelMemo:
    """Bounded process-wide memo probed through per-prefix dicts.

    It backs two caches: the layer-cost cache below and the mapper
    memo in :mod:`repro.explore.mapper_search`.  The hit path must cost
    single-digit microseconds or it eats its own savings, so the
    structure is two-level: each client resolves its hashable *prefix*
    (for the layer-cost cache, ``(hardware, checkpoint)``) to a
    per-prefix dict once, with :meth:`map_for`, and every lookup is then
    a single probe of that dict; the client counts its own ``hits`` and
    ``misses``.  The bound is enforced by flushing everything when the
    entry count exceeds ``maxsize`` (at the default bounds a realistic
    search never gets there), which keeps per-hit bookkeeping at zero.

    A flush (or :meth:`clear`) empties, in place, every per-prefix dict
    still alive, including those an earlier flush dropped from the
    prefix index but a client still holds, so an entry a long-lived
    client adds after a flush is dropped by the next one.  The index
    holds its dicts strongly until the next flush, which drops it too,
    so it stays as bounded as the entries; the set of live dicts holds
    them weakly (by ``id``: a dict is not hashable), so a dropped dict
    dies with its last client.
    """

    def __init__(self, maxsize: int, *dependents: dict) -> None:
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self._size = 0
        self._dependents = dependents  # emptied by every flush too
        self._maps: Dict[tuple, _Entries] = {}
        self._live: "weakref.WeakValueDictionary[int, _Entries]" = (
            weakref.WeakValueDictionary())

    def map_for(self, prefix: tuple) -> Dict[tuple, Any]:
        """The per-prefix entry dict (created on first use)."""
        entries = self._maps.get(prefix)
        if entries is None:
            entries = self._maps[prefix] = _Entries()
            self._live[id(entries)] = entries
        return entries

    def insert(self, entries: Dict[tuple, Any], key: tuple,
               value: Any) -> None:
        """Insert one entry; flush if the bound is exceeded."""
        entries[key] = value
        self._size += 1
        if self._size > self.maxsize:
            self._flush()

    def _flush(self) -> None:
        # In place, so clients holding a dict see the flush too.
        for entries in self._live.values():
            entries.clear()
        for dependent in self._dependents:
            dependent.clear()
        self._maps.clear()
        self._size = 0

    def clear(self) -> None:
        self._flush()
        self.hits = 0
        self.misses = 0


#: The accelerator registry: ``(InferenceDesign, checkpoint)`` -> the
#: :class:`DataflowCostModel` :func:`repro.sim.analytical._cost_model`
#: built for it, shared by every caller (a model keeps no per-call
#: state).  Emptied with the layer-cost cache, by a clear or an overflow
#: flush, so a kept model's bucket is the one ``map_for`` returns; unused
#: while the cache is off.  At most 4,096 models of about 1.9 KB each,
#: bucket included (tracemalloc): about 8 MB.
_COST_MODELS: Dict[tuple, "DataflowCostModel"] = {}
_COST_MODELS_MAXSIZE = 4096

#: Process-local cache of :class:`LayerCost` results.  The bi-level
#: explorer re-prices identical ``(hardware, checkpoint, layer,
#: mapping)`` combinations many times: pricing reads the mappings the
#: SW-level scan already priced (once per design, as tile costs are
#: environment-independent), and repeat searches and fresh explorers
#: revisit the same accelerators.  :class:`LayerCost` is frozen, so cached
#: instances are safe to share.
_LAYER_COST_CACHE = _TwoLevelMemo(65536, _COST_MODELS)
_layer_cost_cache_enabled = True

#: The :class:`_TileGeometry` of every raw ``(layer, mapping)`` pair the
#: cache has missed on, keyed like its entries but shared by every
#: accelerator.  It lives and dies with the layer-cost cache: emptied
#: by :func:`clear_layer_cost_cache`, flushed at the same bound (serve
#: requests may carry arbitrary mappings), and neither read nor filled
#: while the cache is off.
_TILE_GEOMETRY: Dict[tuple, "_TileGeometry"] = {}


def configure_layer_cost_cache(enabled: bool) -> None:
    """Turn the process-wide layer-cost cache on or off (bench/testing
    hook).  The accelerator registry follows it: while the cache is
    off, every pricing call builds its accelerator afresh."""
    global _layer_cost_cache_enabled
    _layer_cost_cache_enabled = enabled


def clear_layer_cost_cache() -> None:
    """Drop all entries, the tile geometries they were priced from, the
    accelerator registry and the hit/miss counters: the next search
    starts as a fresh process would."""
    _LAYER_COST_CACHE.clear()
    _TILE_GEOMETRY.clear()


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
    def static_energy(self) -> float:
        return self.n_tiles * self.tile.static_energy

    @property
    def busy_time(self) -> float:
        """Rail-on time to execute all tiles, s (excludes recharging)."""
        return self.n_tiles * self.tile.total_time


class _TileGeometry(NamedTuple):
    """The half of one tile's Eqs. 4-6 that the layer and the mapping
    fix, before any accelerator is read.

    Its counts and byte volumes are integer arithmetic over the clamped
    mapping's loop bounds, so one geometry prices exactly on every
    accelerator.
    """

    n_tiles: int  # N_tile of the clamped mapping
    style: DataflowStyle
    macs: int  # 0 for embeddings (table lookups)
    out_bytes: int
    spatial_extent: int  # iterations of the spatial dimension
    resident_bytes: int  # the operand the style pins in the PE caches
    streaming: Tuple[Tuple[str, int], ...]  # the others, named
    streaming_bytes: int
    nvm_read: int  # Fig. 4 step 1, plus the C-split partial-sum round trip
    nvm_write: int  # Fig. 4 step 5
    total_bytes: int  # in + w + out

    @classmethod
    def of(cls, layer: Layer, mapping: LayerMapping) -> "_TileGeometry":
        """The geometry of ``layer`` under ``mapping`` (clamped here)."""
        mapping = mapping.clamped(layer)
        n_tiles = mapping.effective_n_tiles(layer)
        tile_dims = mapping.tile_dims(layer)
        macs = math.prod(tile_dims.values())
        if layer.kind is LayerKind.EMBEDDING:
            # Table lookups: no datapath ops at all.
            macs = 0
        in_bytes, w_bytes, out_bytes = _tile_tensor_bytes(layer, tile_dims)
        resident_bytes, streaming = _split_operands(
            mapping.style, in_bytes, w_bytes, out_bytes)
        nvm_read = in_bytes + w_bytes
        if mapping.tile_dim == "C" and n_tiles > 1:
            # Reduction split: partial outputs round-trip through NVM.
            nvm_read += out_bytes
        return cls(n_tiles, mapping.style, macs, out_bytes,
                   tile_dims[mapping.spatial_dim], resident_bytes, streaming,
                   sum(size for _, size in streaming), nvm_read, out_bytes,
                   in_bytes + w_bytes + out_bytes)


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
        #: The accelerator's rail-on static draw, summed once for every
        #: miss that prices a tile on it.
        self._static_power = hardware.static_power

    # -- public API -----------------------------------------------------------

    def layer_cost(self, layer: Layer, mapping: LayerMapping) -> LayerCost:
        """Cost of executing ``layer`` under ``mapping`` (memoized).

        Entries are keyed by the *raw* mapping; clamping is
        deterministic, so two raw mappings that clamp to the same
        effective mapping simply occupy two entries with equal values.
        A miss prices the pair's :class:`_TileGeometry`, built once per
        pair for every accelerator; with the cache off, the geometry is
        built afresh on every call.  In profile mode each call is timed
        into one histogram per outcome — cache hit, cache miss, or cache
        disabled — so the report can show the hit/miss latency split;
        otherwise the clock is never read (the hit path is
        microseconds).
        """
        profile = OBS.profile
        start = _time.perf_counter() if profile else 0.0
        cache = _LAYER_COST_CACHE
        if not _layer_cost_cache_enabled:
            cost = self._priced(layer, _TileGeometry.of(layer, mapping))
            outcome = "cost.layer_cost.uncached_seconds"
        else:
            key = (layer, mapping)
            cost = self._cache_map.get(key)
            if cost is not None:
                cache.hits += 1
                outcome = "cost.layer_cost.hit_seconds"
            else:
                cache.misses += 1
                geometry = _TILE_GEOMETRY.get(key)
                if geometry is None:
                    geometry = _TileGeometry.of(layer, mapping)
                    if len(_TILE_GEOMETRY) >= cache.maxsize:
                        _TILE_GEOMETRY.clear()
                    _TILE_GEOMETRY[key] = geometry
                cost = self._priced(layer, geometry)
                cache.insert(self._cache_map, key, cost)
                outcome = "cost.layer_cost.miss_seconds"
        if profile:
            OBS.registry.histogram(outcome).observe(
                _time.perf_counter() - start)
        return cost

    def single_pe_time(self, layer: Layer) -> float:
        """``T_df`` of Eq. 6: whole-layer compute time on one PE, s."""
        return layer.macs / self.hardware.pes.macs_per_second_per_pe

    def layer_cost_batch(self, layer: Layer,
                         mappings: Sequence[LayerMapping]) -> List[LayerCost]:
        """Price many mappings of ``layer``, in order.

        Exactly ``[self.layer_cost(layer, m) for m in mappings]``: the
        same cache probes and hit/miss counts, and the same float chain
        (:meth:`_TileGeometry.of` and :meth:`_tile_cost` are the only
        implementation of Eqs. 4-6).
        """
        return [self.layer_cost(layer, mapping) for mapping in mappings]

    # -- internals ----------------------------------------------------------------

    def _priced(self, layer: Layer, geometry: _TileGeometry) -> LayerCost:
        return LayerCost(layer_name=layer.name, n_tiles=geometry.n_tiles,
                         tile=self._tile_cost(layer, geometry))

    def _tile_cost(self, layer: Layer, geometry: _TileGeometry) -> TileCost:
        """Price one tile's geometry on this accelerator (Eqs. 4-6)."""
        (n_tiles, style, macs, out_bytes, spatial_extent, resident_bytes,
         streaming, streaming_bytes, nvm_read, nvm_write,
         total_bytes) = geometry
        hw = self.hardware
        active_pes = max(1, min(hw.pes.n_pes, spatial_extent))

        # --- VM <-> PE reuse analysis -------------------------------------
        cache_budget = _RESIDENT_CACHE_SHARE * active_pes * hw.pes.cache_bytes_per_pe
        n_sub = max(1, math.ceil(resident_bytes / max(cache_budget, 1.0)))
        penalty = hw.traffic_penalty(style)
        vm_traffic = (resident_bytes + n_sub * streaming_bytes) * penalty

        # --- NVM traffic (Fig. 4 steps 1 and 5) ----------------------------
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
        if style is not DataflowStyle.OUTPUT_STATIONARY:
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
        static_energy = self._static_power * latency

        # --- checkpointing ----------------------------------------------------------
        working_set = min(total_bytes, hw.vm.size_bytes)
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
            fits_vm=total_bytes <= hw.vm.size_bytes,
        )


def _split_operands(
    style: DataflowStyle, in_bytes: int, w_bytes: int, out_bytes: int,
) -> Tuple[int, Tuple[Tuple[str, int], ...]]:
    """Resident volume and named streaming volumes for a style."""
    if style is DataflowStyle.WEIGHT_STATIONARY:
        return w_bytes, (("in", in_bytes), ("out", out_bytes))
    if style is DataflowStyle.OUTPUT_STATIONARY:
        return out_bytes, (("in", in_bytes), ("w", w_bytes))
    if style is DataflowStyle.INPUT_STATIONARY:
        return in_bytes, (("w", w_bytes), ("out", out_bytes))
    raise MappingError(f"unknown dataflow style {style!r}")


def _tile_tensor_bytes(layer: Layer,
                       tile_dims: Dict[str, int]) -> Tuple[int, int, int]:
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

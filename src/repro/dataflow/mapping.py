"""A complete per-layer mapping scheme.

:class:`LayerMapping` is what the SW-level optimizer searches over for
each layer (§III-C): the dataflow style, the dimension split across PEs,
and — the intermittent-specific part — which dimension ``InterTempMap``
partitions and into how many energy-cycle tiles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict

from repro.dataflow.directives import (
    DataflowStyle,
    InterTempMap,
    MappingDirectives,
    SpatialMap,
    TemporalMap,
)
from repro.dataflow.tiling import chunk_count, pick_intermittent_dim
from repro.errors import MappingError
from repro.workloads.layers import DIM_NAMES, Layer


@dataclass(frozen=True)
class LayerMapping:
    """Mapping of one layer onto intermittent inference hardware.

    Parameters
    ----------
    style:
        Dataflow taxonomy entry (WS / OS / IS).
    n_tiles:
        Number of energy-cycle chunks along ``tile_dim`` (the primary
        ``InterTempMap``).  1 means no split along that dimension.
    tile_dim:
        Which loop dimension the primary ``InterTempMap`` splits.
    spatial_dim:
        Which loop dimension is spread across PEs.
    secondary_dim / n_tiles_2:
        Optional second ``InterTempMap``: when even single-iteration
        chunks of ``tile_dim`` exceed one energy cycle, the cpkt tile
        must shrink along another dimension too (the paper's loop nest
        permits multi-dimensional checkpoint tiles).  The effective
        ``N_tile`` of Eq. 5 is the product of both chunk counts.
    """

    style: DataflowStyle
    n_tiles: int
    tile_dim: str
    spatial_dim: str = "K"
    secondary_dim: str | None = None
    n_tiles_2: int = 1

    def __post_init__(self) -> None:
        if self.n_tiles <= 0:
            raise MappingError(f"n_tiles must be positive, got {self.n_tiles}")
        if self.n_tiles_2 <= 0:
            raise MappingError(
                f"n_tiles_2 must be positive, got {self.n_tiles_2}"
            )
        for attr in ("tile_dim", "spatial_dim"):
            value = getattr(self, attr)
            if value not in DIM_NAMES:
                raise MappingError(
                    f"{attr}={value!r} is not one of {DIM_NAMES}"
                )
        if self.tile_dim == self.spatial_dim:
            raise MappingError(
                "tile_dim and spatial_dim must differ: the energy-cycle "
                "partition is temporal by definition"
            )
        if self.secondary_dim is not None:
            if self.secondary_dim not in DIM_NAMES:
                raise MappingError(
                    f"secondary_dim={self.secondary_dim!r} is not one of "
                    f"{DIM_NAMES}"
                )
            if self.secondary_dim in (self.tile_dim, self.spatial_dim):
                raise MappingError(
                    "secondary_dim must differ from tile_dim and "
                    "spatial_dim"
                )
        elif self.n_tiles_2 != 1:
            raise MappingError("n_tiles_2 > 1 requires a secondary_dim")

    # -- constructors ---------------------------------------------------------

    @classmethod
    def default(cls, layer: Layer,
                style: DataflowStyle = DataflowStyle.WEIGHT_STATIONARY,
                n_tiles: int = 1) -> "LayerMapping":
        """A sensible starting mapping for ``layer``.

        The spatial dimension is the widest remaining loop so that the
        PE array actually parallelises (a Dense layer with batch 1 must
        spread its reduction or neuron dimension, not the unit batch).
        """
        dims = layer.dims()
        tile_dim = pick_intermittent_dim(dims)
        candidates = [name for name in ("K", "C", "Y", "X", "R", "S")
                      if name != tile_dim]
        spatial_dim = max(candidates, key=lambda name: dims[name])
        return cls(style=style, n_tiles=n_tiles, tile_dim=tile_dim,
                   spatial_dim=spatial_dim)

    def clamped(self, layer: Layer) -> "LayerMapping":
        """The same mapping with tile counts clamped to dimension sizes.

        A dimension of size 8 cannot be split into 20 energy-cycle
        chunks; searches may propose such points and the evaluator
        silently clamps rather than rejecting them.
        """
        dims = layer.dims()
        clamped = self
        if self.n_tiles > dims[self.tile_dim]:
            clamped = replace(clamped, n_tiles=dims[self.tile_dim])
        if (self.secondary_dim is not None
                and self.n_tiles_2 > dims[self.secondary_dim]):
            clamped = replace(clamped, n_tiles_2=dims[self.secondary_dim])
        return clamped

    # -- derived geometry ----------------------------------------------------------

    def tile_chunk(self, layer: Layer) -> int:
        """Iterations of ``tile_dim`` covered by one energy-cycle tile."""
        dims = layer.dims()
        return math.ceil(dims[self.tile_dim] / min(self.n_tiles,
                                                   dims[self.tile_dim]))

    def secondary_chunk(self, layer: Layer) -> int:
        """Iterations of ``secondary_dim`` per tile (its full extent when
        no secondary split is configured)."""
        dims = layer.dims()
        if self.secondary_dim is None:
            return 0
        return math.ceil(dims[self.secondary_dim]
                         / min(self.n_tiles_2, dims[self.secondary_dim]))

    def effective_n_tiles(self, layer: Layer) -> int:
        """Actual number of tiles after clamping and ceil-division."""
        dims = layer.dims()
        total = chunk_count(dims[self.tile_dim], self.tile_chunk(layer))
        if self.secondary_dim is not None:
            total *= chunk_count(dims[self.secondary_dim],
                                 self.secondary_chunk(layer))
        return total

    def tile_dims(self, layer: Layer) -> Dict[str, int]:
        """Loop bounds of one energy-cycle tile (largest chunk)."""
        dims = dict(layer.dims())
        dims[self.tile_dim] = self.tile_chunk(layer)
        if self.secondary_dim is not None:
            dims[self.secondary_dim] = self.secondary_chunk(layer)
        return dims

    def to_directives(self, layer: Layer, n_pes: int) -> MappingDirectives:
        """Expand into the ordered directive list of Fig. 4.

        Outermost the ``InterTempMap`` (checkpoint tile), then the
        ``SpatialMap`` across PEs, then ``TemporalMap`` for every
        remaining dimension in canonical order.
        """
        if n_pes <= 0:
            raise MappingError(f"n_pes must be positive, got {n_pes}")
        dims = layer.dims()
        directives = []
        mapped = set()
        if self.effective_n_tiles(layer) > 1:
            if min(self.n_tiles, dims[self.tile_dim]) > 1:
                directives.append(
                    InterTempMap(self.tile_dim, self.tile_chunk(layer)))
                mapped.add(self.tile_dim)
            if (self.secondary_dim is not None
                    and min(self.n_tiles_2, dims[self.secondary_dim]) > 1):
                directives.append(
                    InterTempMap(self.secondary_dim,
                                 self.secondary_chunk(layer)))
                mapped.add(self.secondary_dim)
        spatial_size = math.ceil(dims[self.spatial_dim] / n_pes)
        directives.append(SpatialMap(self.spatial_dim, spatial_size))
        mapped.add(self.spatial_dim)
        for name in DIM_NAMES:
            if name in mapped or dims[name] == 1:
                continue
            directives.append(TemporalMap(name, 1))
        return MappingDirectives(tuple(directives))

"""Tile geometry helpers for the intermittent partition.

Chunk counts, input halos and the default ``InterTempMap`` dimension.
The tile counts themselves are enumerated by the mapper's doubling
ladder (:func:`repro.explore.mapper_search._ladder`), which walks
``N_tile`` from 1 up to the tile dimension's extent.
"""

from __future__ import annotations

import math
from typing import Mapping

from repro.errors import MappingError


def chunk_count(total: int, chunk: int) -> int:
    """Number of chunks of size ``chunk`` covering ``total`` iterations."""
    if chunk <= 0:
        raise MappingError(f"chunk must be positive, got {chunk}")
    return math.ceil(total / chunk)


def halo_extent(out_tile: int, kernel: int, stride: int) -> int:
    """Input extent needed to produce ``out_tile`` outputs of a sliding
    window with the given kernel and stride (the classic halo formula)."""
    if out_tile <= 0 or kernel <= 0 or stride <= 0:
        raise MappingError("halo_extent arguments must be positive")
    return (out_tile - 1) * stride + kernel


def pick_intermittent_dim(dims: Mapping[str, int]) -> str:
    """Heuristic default for which dimension InterTempMap splits.

    Prefer the output spatial height ``Y`` (slicing rows keeps input
    halos small), then output channels ``K``, then whatever is largest.
    """
    for preferred in ("Y", "K", "X", "C"):
        if dims.get(preferred, 1) > 1:
            return preferred
    return max(dims, key=lambda name: dims[name])

"""Tile-size enumeration helpers.

The paper's Table IV design space defines tiling as "factors of each
dimension"; these helpers enumerate those factors and split iteration
spaces into (near-)even chunks for the intermittent partition.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Mapping

from repro.errors import MappingError


def divisors(n: int) -> List[int]:
    """All positive divisors of ``n``, ascending."""
    if n <= 0:
        raise MappingError(f"divisors() needs a positive integer, got {n}")
    small, large = [], []
    for d in range(1, int(math.isqrt(n)) + 1):
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
    return small + large[::-1]


def even_split(total: int, parts: int) -> List[int]:
    """Split ``total`` iterations into ``parts`` near-even chunks.

    Chunk sizes differ by at most one; the larger chunks come first.
    ``parts`` may exceed ``total``, in which case the excess chunks are
    dropped (a dimension of 3 cannot be split 5 ways).
    """
    if total <= 0:
        raise MappingError(f"even_split total must be positive, got {total}")
    if parts <= 0:
        raise MappingError(f"even_split parts must be positive, got {parts}")
    parts = min(parts, total)
    base, extra = divmod(total, parts)
    return [base + 1] * extra + [base] * (parts - extra)


def tile_candidates(dim_size: int, max_candidates: int = 12) -> List[int]:
    """Representative tile sizes for one dimension.

    All divisors when there are few; otherwise a geometric subsample so
    that search spaces stay tractable while still spanning the full
    range (the smallest and largest divisors are always kept).
    """
    divs = divisors(dim_size)
    if len(divs) <= max_candidates:
        return divs
    picked = {divs[0], divs[-1]}
    for i in range(1, max_candidates - 1):
        idx = round(i * (len(divs) - 1) / (max_candidates - 1))
        picked.add(divs[idx])
    return sorted(picked)


def tile_space(dims: Dict[str, int],
               dims_to_tile: Iterable[str]) -> Dict[str, List[int]]:
    """Candidate tile sizes per requested dimension."""
    space: Dict[str, List[int]] = {}
    for name in dims_to_tile:
        if name not in dims:
            raise MappingError(f"unknown dimension {name!r} in tile_space")
        space[name] = tile_candidates(dims[name])
    return space


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

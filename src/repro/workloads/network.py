"""Network container: an ordered chain of layers with shape validation."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, List, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.workloads.layers import Layer


@dataclass(frozen=True)
class Network:
    """A feed-forward DNN described as an ordered list of layers.

    Residual connections (ResNet) are flattened into the chain: the add
    itself is negligible next to the convolutions, which is the standard
    simplification analytical accelerator models make.  Shape chaining is
    validated by element count rather than exact shape so that implicit
    flattens (conv → dense) need no dedicated layer.
    """

    name: str
    layers: Tuple[Layer, ...]
    input_shape: Tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.layers:
            raise ConfigurationError(f"network {self.name!r} has no layers")
        expected = math.prod(self.input_shape)
        for layer in self.layers:
            got = math.prod(layer.input_shape)
            if got != expected:
                raise ConfigurationError(
                    f"{self.name!r}: layer {layer.name!r} expects "
                    f"{got} input elements but the previous layer "
                    f"produces {expected}"
                )
            expected = math.prod(layer.output_shape)

    @classmethod
    def chain(cls, name: str, input_shape: Sequence[int],
              layers: Sequence[Layer]) -> "Network":
        return cls(name=name, layers=tuple(layers),
                   input_shape=tuple(input_shape))

    # -- iteration ------------------------------------------------------------

    def __iter__(self) -> Iterator[Layer]:
        return iter(self.layers)

    def __len__(self) -> int:
        return len(self.layers)

    # -- aggregates ------------------------------------------------------------

    @property
    def weight_layers(self) -> List[Layer]:
        """Layers that carry parameters (what the paper counts as layers)."""
        return [layer for layer in self.layers if layer.params > 0]

    @property
    def num_weight_layers(self) -> int:
        return len(self.weight_layers)

    @property
    def params(self) -> int:
        return sum(layer.params for layer in self.layers)

    @property
    def macs(self) -> int:
        return sum(layer.macs for layer in self.layers)

    @property
    def flops(self) -> int:
        return sum(layer.flops for layer in self.layers)

    @property
    def total_data_bytes(self) -> int:
        """Bytes touched once over a whole inference (N_data in Eq. 5)."""
        return sum(layer.total_data_bytes for layer in self.layers)

    def summary(self) -> str:
        """Human-readable per-layer table (name, kind, MACs, params)."""
        lines = [f"{self.name}  (input {self.input_shape})"]
        header = f"{'layer':<22}{'kind':<16}{'MACs':>14}{'params':>12}"
        lines.append(header)
        lines.append("-" * len(header))
        for layer in self.layers:
            lines.append(
                f"{layer.name:<22}{layer.kind.value:<16}"
                f"{layer.macs:>14,}{layer.params:>12,}"
            )
        lines.append("-" * len(header))
        lines.append(
            f"{'total':<22}{'':<16}{self.macs:>14,}{self.params:>12,}"
        )
        return "\n".join(lines)

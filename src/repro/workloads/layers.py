"""Layer-level intermediate representation for DNN workloads.

Every layer exposes the six-dimensional iteration space used by
data-centric mapping descriptions (MAESTRO convention, which the paper
builds its dataflow describer on):

====  =======================================
dim   meaning
====  =======================================
K     output channels / neurons
C     input channels
R, S  filter height / width
Y, X  *output* spatial height / width
====  =======================================

so that ``MACs = K * C * R * S * Y * X`` for a standard convolution.
Dense layers degenerate to ``R = S = Y = X = 1``; depthwise convolutions
have a unit ``C`` contraction per output channel; pooling layers carry no
weights and perform comparisons instead of MACs.

Data volumes are reported in bytes for a configurable element width
(int8 by default — the precision intermittent-inference systems such as
HAWAII and iNAS deploy).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from types import MappingProxyType
from typing import Dict, Mapping, Tuple

from repro.errors import ConfigurationError

#: Loop-dimension names in canonical order.
DIM_NAMES: Tuple[str, ...] = ("K", "C", "R", "S", "Y", "X")


class LayerKind(Enum):
    """Families a layer can belong to; the mapper specialises on these."""

    CONV = "conv"
    DEPTHWISE_CONV = "depthwise_conv"
    DENSE = "dense"
    POOL = "pool"
    MATMUL = "matmul"
    EMBEDDING = "embedding"


def _conv_out(size: int, kernel: int, stride: int, padding: int) -> int:
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ConfigurationError(
            f"kernel {kernel} / stride {stride} / padding {padding} "
            f"produce empty output for input size {size}"
        )
    return out


@dataclass(frozen=True)
class Layer:
    """Base class for all layers.

    Subclasses populate the iteration-space bounds via
    :meth:`_loop_bounds` and the shape bookkeeping below.
    ``bytes_per_element`` is the datatype width shared by activations
    and weights.
    """

    name: str
    bytes_per_element: int = field(default=1, kw_only=True)

    def __post_init__(self) -> None:
        if self.bytes_per_element <= 0:
            raise ConfigurationError(
                f"bytes_per_element must be positive, got {self.bytes_per_element}"
            )

    # -- to be provided by subclasses -------------------------------------

    @property
    def kind(self) -> LayerKind:
        raise NotImplementedError

    def _loop_bounds(self) -> Dict[str, int]:
        """The six loop bounds of the iteration space (see :meth:`dims`)."""
        raise NotImplementedError

    @property
    def input_shape(self) -> Tuple[int, ...]:
        raise NotImplementedError

    @property
    def output_shape(self) -> Tuple[int, ...]:
        raise NotImplementedError

    @property
    def params(self) -> int:
        """Trainable parameter count (weights + biases)."""
        raise NotImplementedError

    # -- derived quantities --------------------------------------------------

    def dims(self) -> Mapping[str, int]:
        """The six loop bounds of the iteration space, as a read-only view.

        The bounds are computed once per layer and shared by every call;
        copy them (``dict(layer.dims())``) to change them.
        """
        try:
            bounds = self._bounds
        except AttributeError:
            bounds = self._loop_bounds()
            # Not a dataclass field, so equality, hashing and
            # serialization stay defined by the fields alone.  Set like
            # a field rather than through ``__dict__``: a materialized
            # instance dict slows every attribute read, and so the hash
            # of each layer-cost cache key, about twofold.
            object.__setattr__(self, "_bounds", bounds)
        return MappingProxyType(bounds)

    @property
    def macs(self) -> int:
        """Multiply-accumulate count of one inference of this layer."""
        d = self.dims()
        return d["K"] * d["C"] * d["R"] * d["S"] * d["Y"] * d["X"]

    @property
    def flops(self) -> int:
        """Floating-point (or int) operations: 2 per MAC."""
        return 2 * self.macs

    @property
    def input_bytes(self) -> int:
        return math.prod(self.input_shape) * self.bytes_per_element

    @property
    def output_bytes(self) -> int:
        return math.prod(self.output_shape) * self.bytes_per_element

    @property
    def weight_bytes(self) -> int:
        return self.params * self.bytes_per_element

    @property
    def total_data_bytes(self) -> int:
        """All data touched once: inputs + weights + outputs."""
        return self.input_bytes + self.weight_bytes + self.output_bytes


@dataclass(frozen=True)
class Conv2D(Layer):
    """Standard 2D convolution over an NCHW activation.

    ``kernel``/``padding`` apply to the height axis; ``kernel_w`` /
    ``padding_w`` default to the same values, so square convolutions need
    only the short spelling while 1-D-style kernels (e.g. 3x1 filters
    over time-series data) set ``kernel_w=1, padding_w=0``.
    """

    in_channels: int = 1
    out_channels: int = 1
    in_height: int = 1
    in_width: int = 1
    kernel: int = 3
    stride: int = 1
    padding: int = 0
    bias: bool = True
    kernel_w: int | None = None
    padding_w: int | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        for attr in ("in_channels", "out_channels", "in_height", "in_width",
                     "kernel", "stride"):
            if getattr(self, attr) <= 0:
                raise ConfigurationError(f"{attr} must be positive on {self.name}")
        if self.padding < 0:
            raise ConfigurationError(f"padding must be non-negative on {self.name}")
        if self.kernel_w is not None and self.kernel_w <= 0:
            raise ConfigurationError(f"kernel_w must be positive on {self.name}")
        if self.padding_w is not None and self.padding_w < 0:
            raise ConfigurationError(
                f"padding_w must be non-negative on {self.name}"
            )

    @property
    def kind(self) -> LayerKind:
        return LayerKind.CONV

    @property
    def _kernel_w(self) -> int:
        return self.kernel if self.kernel_w is None else self.kernel_w

    @property
    def _padding_w(self) -> int:
        return self.padding if self.padding_w is None else self.padding_w

    @property
    def out_height(self) -> int:
        return _conv_out(self.in_height, self.kernel, self.stride, self.padding)

    @property
    def out_width(self) -> int:
        return _conv_out(self.in_width, self._kernel_w, self.stride, self._padding_w)

    def _loop_bounds(self) -> Dict[str, int]:
        return {
            "K": self.out_channels,
            "C": self.in_channels,
            "R": self.kernel,
            "S": self._kernel_w,
            "Y": self.out_height,
            "X": self.out_width,
        }

    @property
    def input_shape(self) -> Tuple[int, ...]:
        return (self.in_channels, self.in_height, self.in_width)

    @property
    def output_shape(self) -> Tuple[int, ...]:
        return (self.out_channels, self.out_height, self.out_width)

    @property
    def params(self) -> int:
        weights = (
            self.out_channels * self.in_channels * self.kernel * self._kernel_w
        )
        return weights + (self.out_channels if self.bias else 0)


@dataclass(frozen=True)
class DepthwiseConv2D(Layer):
    """Depthwise convolution: each channel is filtered independently."""

    channels: int = 1
    in_height: int = 1
    in_width: int = 1
    kernel: int = 3
    stride: int = 1
    padding: int = 0
    bias: bool = True

    def __post_init__(self) -> None:
        super().__post_init__()
        for attr in ("channels", "in_height", "in_width", "kernel", "stride"):
            if getattr(self, attr) <= 0:
                raise ConfigurationError(f"{attr} must be positive on {self.name}")

    @property
    def kind(self) -> LayerKind:
        return LayerKind.DEPTHWISE_CONV

    @property
    def out_height(self) -> int:
        return _conv_out(self.in_height, self.kernel, self.stride, self.padding)

    @property
    def out_width(self) -> int:
        return _conv_out(self.in_width, self.kernel, self.stride, self.padding)

    def _loop_bounds(self) -> Dict[str, int]:
        # No channel contraction: C = 1 in the MAC product, K spans channels.
        return {
            "K": self.channels,
            "C": 1,
            "R": self.kernel,
            "S": self.kernel,
            "Y": self.out_height,
            "X": self.out_width,
        }

    @property
    def input_shape(self) -> Tuple[int, ...]:
        return (self.channels, self.in_height, self.in_width)

    @property
    def output_shape(self) -> Tuple[int, ...]:
        return (self.channels, self.out_height, self.out_width)

    @property
    def params(self) -> int:
        weights = self.channels * self.kernel * self.kernel
        return weights + (self.channels if self.bias else 0)


@dataclass(frozen=True)
class Dense(Layer):
    """Fully-connected layer (also used for transformer GEMMs).

    ``batch`` models a sequence dimension: a transformer projection over
    ``L`` tokens is a Dense with ``batch = L``, which lands in the ``Y``
    loop dimension so mappers can tile it.
    """

    in_features: int = 1
    out_features: int = 1
    batch: int = 1
    bias: bool = True

    def __post_init__(self) -> None:
        super().__post_init__()
        for attr in ("in_features", "out_features", "batch"):
            if getattr(self, attr) <= 0:
                raise ConfigurationError(f"{attr} must be positive on {self.name}")

    @property
    def kind(self) -> LayerKind:
        return LayerKind.DENSE

    def _loop_bounds(self) -> Dict[str, int]:
        return {
            "K": self.out_features,
            "C": self.in_features,
            "R": 1,
            "S": 1,
            "Y": self.batch,
            "X": 1,
        }

    @property
    def input_shape(self) -> Tuple[int, ...]:
        return (self.batch, self.in_features)

    @property
    def output_shape(self) -> Tuple[int, ...]:
        return (self.batch, self.out_features)

    @property
    def params(self) -> int:
        weights = self.in_features * self.out_features
        return weights + (self.out_features if self.bias else 0)


@dataclass(frozen=True)
class Pool2D(Layer):
    """Max/average pooling: no weights, one comparison/add per window item."""

    channels: int = 1
    in_height: int = 1
    in_width: int = 1
    kernel: int = 2
    stride: int = 2

    def __post_init__(self) -> None:
        super().__post_init__()
        for attr in ("channels", "in_height", "in_width", "kernel", "stride"):
            if getattr(self, attr) <= 0:
                raise ConfigurationError(f"{attr} must be positive on {self.name}")

    @property
    def kind(self) -> LayerKind:
        return LayerKind.POOL

    @property
    def out_height(self) -> int:
        return _conv_out(self.in_height, self.kernel, self.stride, 0)

    @property
    def out_width(self) -> int:
        return _conv_out(self.in_width, self.kernel, self.stride, 0)

    def _loop_bounds(self) -> Dict[str, int]:
        return {
            "K": self.channels,
            "C": 1,
            "R": self.kernel,
            "S": self.kernel,
            "Y": self.out_height,
            "X": self.out_width,
        }

    @property
    def input_shape(self) -> Tuple[int, ...]:
        return (self.channels, self.in_height, self.in_width)

    @property
    def output_shape(self) -> Tuple[int, ...]:
        return (self.channels, self.out_height, self.out_width)

    @property
    def params(self) -> int:
        return 0

    @property
    def flops(self) -> int:
        # One comparison (or add) per window element, not a MAC pair.
        return self.macs


@dataclass(frozen=True)
class MatMul(Layer):
    """Weight-free matrix multiply: ``(batch x contract) @ (contract x out)``.

    Used for the data-dependent products inside attention (QK^T and
    attention-weights x V), which perform MACs but carry no trainable
    parameters — both operands are activations.
    """

    contract: int = 1
    out_features: int = 1
    batch: int = 1

    def __post_init__(self) -> None:
        super().__post_init__()
        for attr in ("contract", "out_features", "batch"):
            if getattr(self, attr) <= 0:
                raise ConfigurationError(f"{attr} must be positive on {self.name}")

    @property
    def kind(self) -> LayerKind:
        return LayerKind.MATMUL

    def _loop_bounds(self) -> Dict[str, int]:
        return {
            "K": self.out_features,
            "C": self.contract,
            "R": 1,
            "S": 1,
            "Y": self.batch,
            "X": 1,
        }

    @property
    def input_shape(self) -> Tuple[int, ...]:
        return (self.batch, self.contract)

    @property
    def output_shape(self) -> Tuple[int, ...]:
        return (self.batch, self.out_features)

    @property
    def params(self) -> int:
        return 0

    @property
    def input_bytes(self) -> int:
        # Both operands are live inputs: the (batch x contract) left-hand
        # side and the (contract x out) right-hand side.
        lhs = self.batch * self.contract
        rhs = self.contract * self.out_features
        return (lhs + rhs) * self.bytes_per_element


@dataclass(frozen=True)
class Embedding(Layer):
    """Table lookup: large parameter footprint, no MACs.

    Matters for intermittent inference because the table lives in NVM and
    dominates the model's storage, even though each token only reads one
    row.  ``tokens`` rows are fetched per inference.
    """

    vocab_size: int = 1
    hidden: int = 1
    tokens: int = 1

    def __post_init__(self) -> None:
        super().__post_init__()
        for attr in ("vocab_size", "hidden", "tokens"):
            if getattr(self, attr) <= 0:
                raise ConfigurationError(f"{attr} must be positive on {self.name}")

    @property
    def kind(self) -> LayerKind:
        return LayerKind.EMBEDDING

    def _loop_bounds(self) -> Dict[str, int]:
        # No compute: a degenerate iteration space.
        return {"K": 1, "C": 1, "R": 1, "S": 1, "Y": self.tokens, "X": 1}

    @property
    def input_shape(self) -> Tuple[int, ...]:
        return (self.tokens, 1)

    @property
    def output_shape(self) -> Tuple[int, ...]:
        return (self.tokens, self.hidden)

    @property
    def params(self) -> int:
        return self.vocab_size * self.hidden

    @property
    def macs(self) -> int:
        return 0

    @property
    def weight_bytes(self) -> int:
        # Only the fetched rows are moved at inference time; the table
        # itself stays in NVM.  Storage accounting uses ``params``.
        return self.tokens * self.hidden * self.bytes_per_element

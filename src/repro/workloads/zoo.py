"""Builders for every network the paper evaluates.

Table IV (existing-AuT setup): Simple Conv, CIFAR-10, HAR, KWS — plus the
MNIST-CNN used in the Fig. 2(a) platform-gap comparison.

Table V (future-AuT setup): AlexNet, VGG16, ResNet18, BERT.

Where the paper's tabulated parameter/FLOP counts are mutually
inconsistent with the stated input shapes (e.g. Simple Conv: 1.2 k params
*and* 13.8 kFLOPs cannot both hold for a (3,32,32) input), we match the
quantity that drives the energy model — operation count — and record the
deviation in EXPERIMENTS.md.  Residual-shortcut 1x1 convolutions in
ResNet18 are folded out of the flattened chain (<4 % of params/FLOPs);
the HAR input is interpreted as the UCI 9-channel x 128-sample window.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.errors import ConfigurationError
from repro.workloads.layers import (
    Conv2D,
    Dense,
    DepthwiseConv2D,
    Embedding,
    Layer,
    MatMul,
    Pool2D,
)
from repro.workloads.network import Network


def simple_conv() -> Network:
    """Table IV "Simple Conv": one convolution on a (3,32,32) input.

    13.8 kFLOPs, matching the paper's operation count exactly.
    """
    return Network.chain(
        "simple_conv",
        (3, 32, 32),
        [
            Conv2D(
                "conv",
                in_channels=3,
                out_channels=4,
                in_height=32,
                in_width=32,
                kernel=3,
                stride=4,
                padding=1,
            )
        ],
    )


def cifar10_cnn() -> Network:
    """Table IV CIFAR-10: a 7-weight-layer CNN, ~77 k params."""
    return Network.chain(
        "cifar10_cnn",
        (3, 32, 32),
        [
            Conv2D("conv1", in_channels=3, out_channels=8,
                   in_height=32, in_width=32, kernel=3, padding=1),
            Conv2D("conv2", in_channels=8, out_channels=16,
                   in_height=32, in_width=32, kernel=3, padding=1),
            Pool2D("pool1", channels=16, in_height=32, in_width=32),
            Conv2D("conv3", in_channels=16, out_channels=16,
                   in_height=16, in_width=16, kernel=3, padding=1),
            Conv2D("conv4", in_channels=16, out_channels=32,
                   in_height=16, in_width=16, kernel=3, padding=1),
            Pool2D("pool2", channels=32, in_height=16, in_width=16),
            Conv2D("conv5", in_channels=32, out_channels=32,
                   in_height=8, in_width=8, kernel=3, padding=1),
            Pool2D("pool3", channels=32, in_height=8, in_width=8),
            Dense("fc1", in_features=512, out_features=112),
            Dense("fc2", in_features=112, out_features=10),
        ],
    )


def har_cnn() -> Network:
    """Table IV HAR: 1-D CNN over a (9, 128) accelerometer window.

    Five weight layers, ~9.7 k params — the UCI HAR workload [58].
    """
    return Network.chain(
        "har_cnn",
        (9, 128, 1),
        [
            Conv2D("conv1", in_channels=9, out_channels=8,
                   in_height=128, in_width=1, kernel=3, stride=1,
                   padding=1, kernel_w=1, padding_w=0),
            Conv2D("conv2", in_channels=8, out_channels=16,
                   in_height=128, in_width=1, kernel=3, stride=2,
                   padding=1, kernel_w=1, padding_w=0),
            Conv2D("conv3", in_channels=16, out_channels=16,
                   in_height=64, in_width=1, kernel=3, stride=2,
                   padding=1, kernel_w=1, padding_w=0),
            Dense("fc1", in_features=512, out_features=16),
            Dense("fc2", in_features=16, out_features=6),
        ],
    )


def kws_mlp() -> Network:
    """Table IV KWS: 5-layer MLP on a 250-dim MFCC feature vector.

    ~50 k params; keyword spotting over the Speech Commands set [69].
    """
    return Network.chain(
        "kws_mlp",
        (1, 250),
        [
            Dense("fc1", in_features=250, out_features=144),
            Dense("fc2", in_features=144, out_features=64),
            Dense("fc3", in_features=64, out_features=48),
            Dense("fc4", in_features=48, out_features=32),
            Dense("fc5", in_features=32, out_features=12),
        ],
    )


def mnist_cnn() -> Network:
    """The MNIST-CNN of Fig. 2(a): LeNet-style net on a 28x28 input."""
    return Network.chain(
        "mnist_cnn",
        (1, 28, 28),
        [
            Conv2D("conv1", in_channels=1, out_channels=16,
                   in_height=28, in_width=28, kernel=5),
            Pool2D("pool1", channels=16, in_height=24, in_width=24),
            Conv2D("conv2", in_channels=16, out_channels=16,
                   in_height=12, in_width=12, kernel=5),
            Pool2D("pool2", channels=16, in_height=8, in_width=8),
            Dense("fc1", in_features=256, out_features=64),
            Dense("fc2", in_features=64, out_features=10),
        ],
    )


# ---------------------------------------------------------------------------
# Table V — future-AuT workloads
# ---------------------------------------------------------------------------


def alexnet() -> Network:
    """Table V AlexNet: the classic 227x227 network, 7 weight layers.

    The paper counts 7 layers / 58.7 M params; that matches AlexNet's
    five convolutions plus the first two fully-connected layers, so the
    1000-way classifier head is folded out.
    """
    return Network.chain(
        "alexnet",
        (3, 227, 227),
        [
            Conv2D("conv1", in_channels=3, out_channels=64,
                   in_height=227, in_width=227, kernel=11, stride=4),
            Pool2D("pool1", channels=64, in_height=55, in_width=55,
                   kernel=3, stride=2),
            Conv2D("conv2", in_channels=64, out_channels=192,
                   in_height=27, in_width=27, kernel=5, padding=2),
            Pool2D("pool2", channels=192, in_height=27, in_width=27,
                   kernel=3, stride=2),
            Conv2D("conv3", in_channels=192, out_channels=384,
                   in_height=13, in_width=13, kernel=3, padding=1),
            Conv2D("conv4", in_channels=384, out_channels=256,
                   in_height=13, in_width=13, kernel=3, padding=1),
            Conv2D("conv5", in_channels=256, out_channels=256,
                   in_height=13, in_width=13, kernel=3, padding=1),
            Pool2D("pool3", channels=256, in_height=13, in_width=13,
                   kernel=3, stride=2),
            Dense("fc6", in_features=9216, out_features=4096),
            Dense("fc7", in_features=4096, out_features=4096),
        ],
    )


def _vgg_block(index: int, in_ch: int, out_ch: int, size: int,
               convs: int) -> List[Layer]:
    layers: List[Layer] = []
    ch = in_ch
    for i in range(convs):
        layers.append(
            Conv2D(f"conv{index}_{i + 1}", in_channels=ch, out_channels=out_ch,
                   in_height=size, in_width=size, kernel=3, padding=1)
        )
        ch = out_ch
    layers.append(Pool2D(f"pool{index}", channels=out_ch,
                         in_height=size, in_width=size))
    return layers


def vgg16() -> Network:
    """Table V VGG16: 13 convolutions + 3 FC, 138 M params, 15.5 GFLOPs."""
    layers: List[Layer] = []
    layers += _vgg_block(1, 3, 64, 224, convs=2)
    layers += _vgg_block(2, 64, 128, 112, convs=2)
    layers += _vgg_block(3, 128, 256, 56, convs=3)
    layers += _vgg_block(4, 256, 512, 28, convs=3)
    layers += _vgg_block(5, 512, 512, 14, convs=3)
    layers += [
        Dense("fc1", in_features=25088, out_features=4096),
        Dense("fc2", in_features=4096, out_features=4096),
        Dense("fc3", in_features=4096, out_features=1000),
    ]
    return Network.chain("vgg16", (3, 224, 224), layers)


def _resnet_stage(index: int, in_ch: int, out_ch: int, in_size: int,
                  downsample: bool) -> List[Layer]:
    """Two basic blocks (four 3x3 convolutions) of ResNet18's main path."""
    stride = 2 if downsample else 1
    out_size = in_size // stride
    return [
        Conv2D(f"s{index}_b1_conv1", in_channels=in_ch, out_channels=out_ch,
               in_height=in_size, in_width=in_size, kernel=3,
               stride=stride, padding=1),
        Conv2D(f"s{index}_b1_conv2", in_channels=out_ch, out_channels=out_ch,
               in_height=out_size, in_width=out_size, kernel=3, padding=1),
        Conv2D(f"s{index}_b2_conv1", in_channels=out_ch, out_channels=out_ch,
               in_height=out_size, in_width=out_size, kernel=3, padding=1),
        Conv2D(f"s{index}_b2_conv2", in_channels=out_ch, out_channels=out_ch,
               in_height=out_size, in_width=out_size, kernel=3, padding=1),
    ]


def resnet18() -> Network:
    """Table V ResNet18: the main path flattened into a chain.

    conv1 + 16 stage convolutions + the classifier = 18 weight layers;
    the three 1x1 shortcut-projection convolutions (<4 % of params and
    FLOPs) are folded out because a pure chain cannot branch.
    """
    layers: List[Layer] = [
        Conv2D("conv1", in_channels=3, out_channels=64,
               in_height=224, in_width=224, kernel=7, stride=2, padding=3),
        Pool2D("pool1", channels=64, in_height=112, in_width=112,
               kernel=2, stride=2),
    ]
    layers += _resnet_stage(1, 64, 64, 56, downsample=False)
    layers += _resnet_stage(2, 64, 128, 56, downsample=True)
    layers += _resnet_stage(3, 128, 256, 28, downsample=True)
    layers += _resnet_stage(4, 256, 512, 14, downsample=True)
    layers += [
        Pool2D("gap", channels=512, in_height=7, in_width=7,
               kernel=7, stride=7),
        Dense("fc", in_features=512, out_features=1000),
    ]
    return Network.chain("resnet18", (3, 224, 224), layers)


def _bert_block(index: int, hidden: int, seq_len: int, ffn: int) -> List[Layer]:
    """One transformer encoder block flattened into a chain.

    Q/K/V projections all read the block input; flattening them in
    sequence preserves both the MAC count and the data volumes, which is
    what the analytical cost model consumes.
    """
    p = f"enc{index}"
    return [
        Dense(f"{p}_q", in_features=hidden, out_features=hidden, batch=seq_len),
        Dense(f"{p}_k", in_features=hidden, out_features=hidden, batch=seq_len),
        Dense(f"{p}_v", in_features=hidden, out_features=hidden, batch=seq_len),
        MatMul(f"{p}_qk", contract=hidden, out_features=seq_len, batch=seq_len),
        MatMul(f"{p}_av", contract=seq_len, out_features=hidden, batch=seq_len),
        Dense(f"{p}_o", in_features=hidden, out_features=hidden, batch=seq_len),
        Dense(f"{p}_ffn1", in_features=hidden, out_features=ffn, batch=seq_len),
        Dense(f"{p}_ffn2", in_features=ffn, out_features=hidden, batch=seq_len),
    ]


def bert_tiny(seq_len: int = 16) -> Network:
    """Table V BERT: 5 encoder blocks, hidden 768, plus the embedding.

    ~59 M params (35 M encoder + 23 M embedding table) and ~1 GFLOP at
    the default 16-token sequence — the edge-sized BERT of the paper.
    """
    hidden = 768
    layers: List[Layer] = [
        Embedding("embedding", vocab_size=30522, hidden=hidden, tokens=seq_len)
    ]
    for i in range(5):
        layers += _bert_block(i + 1, hidden, seq_len, ffn=4 * hidden)
    return Network.chain("bert", (seq_len, 1), layers)


def _dw_block(index: int, channels: int, out_channels: int, size: int,
              stride: int) -> List[Layer]:
    """Depthwise-separable block: depthwise 3x3 + pointwise 1x1."""
    out_size = (size + 2 - 3) // stride + 1
    return [
        DepthwiseConv2D(f"dw{index}", channels=channels, in_height=size,
                        in_width=size, kernel=3, stride=stride, padding=1),
        Conv2D(f"pw{index}", in_channels=channels,
               out_channels=out_channels, in_height=out_size,
               in_width=out_size, kernel=1),
    ]


def mobilenet_tiny() -> Network:
    """A MobileNet-style depthwise-separable CNN (extension workload).

    Not in the paper's tables; included because depthwise-separable
    networks are the natural next workload class for AuT devices and
    they exercise the :class:`DepthwiseConv2D` path of the cost model.
    ~20 k params, ~4.5 MMACs on a 96x96 input.
    """
    layers: List[Layer] = [
        Conv2D("conv1", in_channels=3, out_channels=8, in_height=96,
               in_width=96, kernel=3, stride=2, padding=1),
    ]
    layers += _dw_block(1, 8, 16, 48, stride=1)
    layers += _dw_block(2, 16, 32, 48, stride=2)
    layers += _dw_block(3, 32, 32, 24, stride=1)
    layers += _dw_block(4, 32, 64, 24, stride=2)
    layers += [
        Pool2D("gap", channels=64, in_height=12, in_width=12,
               kernel=12, stride=12),
        Dense("fc", in_features=64, out_features=10),
    ]
    return Network.chain("mobilenet_tiny", (3, 96, 96), layers)


# ---------------------------------------------------------------------------
# Registries
# ---------------------------------------------------------------------------

#: The four Table IV applications, in the paper's order.
EXISTING_AUT_WORKLOADS: Dict[str, Callable[[], Network]] = {
    "simple_conv": simple_conv,
    "cifar10": cifar10_cnn,
    "har": har_cnn,
    "kws": kws_mlp,
}

#: The four Table V applications, in the paper's order.
FUTURE_AUT_WORKLOADS: Dict[str, Callable[[], Network]] = {
    "bert": bert_tiny,
    "alexnet": alexnet,
    "vgg16": vgg16,
    "resnet18": resnet18,
}

def cifar10_early_exit() -> Network:
    """Early-exit head for :func:`cifar10_cnn` (extension workload).

    The first four layers of the CIFAR-10 CNN plus a small classifier:
    easy inputs leave here at ~40 % of the full network's MACs.  Use
    with :func:`repro.sim.mix.early_exit_mix` to model input-dependent
    ("input correlation") energy demand.
    """
    full = cifar10_cnn()
    prefix = list(full.layers[:3])  # conv1, conv2, pool1
    prefix += [
        Pool2D("exit_pool", channels=16, in_height=16, in_width=16,
               kernel=4, stride=4),
        Dense("exit_fc", in_features=16 * 4 * 4, out_features=10),
    ]
    return Network.chain("cifar10_early_exit", (3, 32, 32), prefix)


#: Extension workloads beyond the paper's tables.
EXTENSION_WORKLOADS: Dict[str, Callable[[], Network]] = {
    "mnist": mnist_cnn,
    "mobilenet": mobilenet_tiny,
    "cifar10_early_exit": cifar10_early_exit,
}

_ALL = {**EXISTING_AUT_WORKLOADS, **FUTURE_AUT_WORKLOADS,
        **EXTENSION_WORKLOADS}

#: Networks built so far, by registry name.
_BUILT: Dict[str, Network] = {}


def workload_by_name(name: str) -> Network:
    """A paper workload by its registry name.

    Each name is built once: a :class:`Network` is frozen, so every call
    returns the same instance (and the layer-cost cache then finds its
    layers by identity).  Raises
    :class:`~repro.errors.ConfigurationError` for unknown names, listing
    what is available.
    """
    network = _BUILT.get(name)
    if network is None:
        try:
            builder = _ALL[name]
        except KeyError:
            raise ConfigurationError(
                f"unknown workload {name!r}; available: {sorted(_ALL)}"
            ) from None
        network = _BUILT[name] = builder()
    return network

"""Declarative network descriptions shared by the secure and plaintext engines.

A NetworkSpec is an ordered list of layer specs with enough shape
information to derive every parameter and activation shape up front.
Configs serialize to JSON; both engines must agree on the layout, so all
shape arithmetic lives here.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field

import numpy as np


@dataclass(frozen=True)
class LayerSpec:
    kind: str  # fc | conv | relu | maxpool | bn
    in_dim: int = 0
    out_dim: int = 0
    in_ch: int = 0
    out_ch: int = 0
    kernel: int = 0
    stride: int = 1
    pad: int = 0
    window: int = 0

    def __post_init__(self):
        if self.kind not in ("fc", "conv", "relu", "maxpool", "bn"):
            raise ValueError(f"unknown layer kind {self.kind!r}")
        for name, v in asdict(self).items():
            if name != "kind" and v < 0:
                raise ValueError(f"{name} must be nonnegative")
        if self.stride < 1:
            raise ValueError("stride must be at least 1")


@dataclass
class NetworkSpec:
    name: str
    input_shape: tuple  # (C, H, W) for conv nets, (D,) for flat inputs
    classes: int
    layers: list = field(default_factory=list)

    def activation_shapes(self) -> list:
        """Per-layer output shapes (excluding the batch axis); validates dims."""
        shape = tuple(self.input_shape)
        out = []
        for i, layer in enumerate(self.layers):
            shape = _propagate(layer, shape, i)
            out.append(shape)
        flat = shape[0] if len(shape) == 1 else int(np.prod(shape))
        if flat != self.classes:
            raise ValueError(
                f"{self.name}: final layer produces {flat} values, expected {self.classes} classes"
            )
        return out

    def param_layout(self):
        """Yield every learnable parameter as ("<layer>.<param>", shape), in
        layer then parameter order: the order weights are drawn and shared."""
        in_shapes = [tuple(self.input_shape)] + self.activation_shapes()
        for i, layer in enumerate(self.layers):
            for name, pshape in param_shapes(layer, in_shapes[i]).items():
                yield f"{i}.{name}", pshape

    def to_json(self) -> str:
        return json.dumps(
            {
                "name": self.name,
                "input_shape": list(self.input_shape),
                "classes": self.classes,
                "layers": [asdict(l) for l in self.layers],
            },
            indent=2,
        )

    @staticmethod
    def from_json(text: str | bytes) -> "NetworkSpec":
        doc = json.loads(text)
        return NetworkSpec(
            name=doc["name"],
            input_shape=tuple(doc["input_shape"]),
            classes=doc["classes"],
            layers=[LayerSpec(**l) for l in doc["layers"]],
        )

    def config_hash(self) -> bytes:
        return hashlib.blake2b(self.to_json().encode(), digest_size=16).digest()

    def swap_relu_maxpool(self) -> "NetworkSpec":
        """ReLU directly before maxpool commutes with it; pooling first is
        cheaper (fewer ReLU instances)."""
        layers = list(self.layers)
        i = 0
        while i + 1 < len(layers):
            if layers[i].kind == "relu" and layers[i + 1].kind == "maxpool":
                layers[i], layers[i + 1] = layers[i + 1], layers[i]
                i += 2
            else:
                i += 1
        return NetworkSpec(self.name, self.input_shape, self.classes, layers)


def _propagate(layer: LayerSpec, shape: tuple, idx: int) -> tuple:
    if layer.kind == "fc":
        flat = shape[0] if len(shape) == 1 else int(np.prod(shape))
        if flat != layer.in_dim:
            raise ValueError(f"layer {idx}: fc expects {layer.in_dim} inputs, got {flat}")
        return (layer.out_dim,)
    if layer.kind == "conv":
        C, H, W = shape
        if C != layer.in_ch:
            raise ValueError(f"layer {idx}: conv expects {layer.in_ch} channels, got {C}")
        Ho = (H - layer.kernel + 2 * layer.pad) // layer.stride + 1
        Wo = (W - layer.kernel + 2 * layer.pad) // layer.stride + 1
        if Ho <= 0 or Wo <= 0:
            raise ValueError(f"layer {idx}: conv kernel exceeds the padded input")
        return (layer.out_ch, Ho, Wo)
    if layer.kind == "maxpool":
        C, H, W = shape
        Ho = (H - layer.window) // layer.stride + 1
        Wo = (W - layer.window) // layer.stride + 1
        if Ho <= 0 or Wo <= 0:
            raise ValueError(f"layer {idx}: pool window exceeds the input")
        return (C, Ho, Wo)
    return shape  # relu, bn


def param_shapes(layer: LayerSpec, act_shape: tuple) -> dict:
    """Learnable parameter shapes for a layer given its input shape."""
    if layer.kind == "fc":
        return {"w": (layer.in_dim, layer.out_dim), "b": (layer.out_dim,)}
    if layer.kind == "conv":
        return {
            "w": (layer.out_ch, layer.in_ch, layer.kernel, layer.kernel),
            "b": (layer.out_ch,),
        }
    if layer.kind == "bn":
        ch = act_shape[0]
        return {"gamma": (ch,), "beta": (ch,)}
    return {}


def init_float_params(net: NetworkSpec, seed: int = 0) -> dict:
    """He-style float initialization, deterministic under the seed."""
    rng = np.random.default_rng(seed)
    params: dict = {}
    for key, pshape in net.param_layout():
        name = key.split(".")[1]
        if name == "w":  # fc (in, out) or conv (out, in, F, F)
            fan_in = pshape[0] if len(pshape) == 2 else int(np.prod(pshape[1:]))
            params[key] = rng.normal(0.0, np.sqrt(2.0 / fan_in), pshape)
        elif name == "gamma":
            params[key] = np.ones(pshape)
        else:
            params[key] = np.zeros(pshape)
    return params

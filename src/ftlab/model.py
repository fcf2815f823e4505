"""Staged model definition, checkpoint serialization, and transfer init.

A model is an ordered list of named stages (conv1..conv5 plus a dense
head by default). Checkpoints use a fixed little-endian binary format
(magic "FTLB") so weights round-trip byte-identically; the architecture
digest covers stage names, layer kinds, and shapes but excludes the head
output size so heads can be swapped across label counts.
"""

from __future__ import annotations

import copy
import hashlib
import json
import struct
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import binio
from .nn_core import (Conv2d, Dense, GlobalAvgPool, MaxPool, Relu,
                      ResidualBlock, Stage, backward, forward, param_count,
                      run_stages)

CHECKPOINT_MAGIC = b"FTLB"
CHECKPOINT_VERSION = 1

PARAM_KINDS = ("dense", "conv2d")
VALID_KINDS = ("dense", "conv2d", "relu", "max-pool", "global-average-pool",
               "residual-add")


class CheckpointError(Exception):
    """Raised when a checkpoint cannot be read or does not fit a model."""


@dataclass(frozen=True)
class LayerSpec:
    """One layer inside a stage; size fields depend on kind."""

    kind: str
    out_channels: int | None = None   # conv2d
    kernel_size: int = 3              # conv2d
    out_features: int | None = None   # dense
    inner: tuple["LayerSpec", ...] | None = None  # residual-add

    def __post_init__(self):
        if self.kind not in VALID_KINDS:
            raise ValueError(f"unknown layer kind {self.kind!r}")
        for name in ("out_channels", "kernel_size", "out_features"):
            size = getattr(self, name)
            if size is not None and (isinstance(size, bool) or
                                     not isinstance(size, (int, np.integer))
                                     or size <= 0):
                raise ValueError(f"{name} must be a positive integer, "
                                 f"got {size!r}")
        if self.kind == "conv2d" and not self.out_channels:
            raise ValueError("conv2d layer needs out_channels")
        if self.kind == "residual-add" and not self.inner:
            raise ValueError("residual-add layer needs inner layers")

    def to_dict(self) -> dict:
        d: dict = {"kind": self.kind}
        if self.kind == "conv2d":
            d["out_channels"] = self.out_channels
            d["kernel_size"] = self.kernel_size
        elif self.kind == "dense":
            d["out_features"] = self.out_features
        elif self.kind == "residual-add":
            d["inner"] = [s.to_dict() for s in self.inner]
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "LayerSpec":
        d = dict(d)
        if "inner" in d and d["inner"] is not None:
            d["inner"] = tuple(cls.from_dict(s) for s in d["inner"])
        return cls(**d)


@dataclass(frozen=True)
class StageSpec:
    name: str
    layers: tuple[LayerSpec, ...]

    def to_dict(self) -> dict:
        return {"name": self.name, "layers": [s.to_dict() for s in self.layers]}

    @classmethod
    def from_dict(cls, d: dict) -> "StageSpec":
        return cls(name=d["name"],
                   layers=tuple(LayerSpec.from_dict(s) for s in d["layers"]))


def conv_stage(name: str, out_channels: int, kernel_size: int = 3,
               residual: bool = False, pool: bool = False,
               global_pool: bool = False) -> StageSpec:
    """Convenience constructor for one convolutional stage group."""
    layers = [LayerSpec("conv2d", out_channels=out_channels, kernel_size=kernel_size),
              LayerSpec("relu")]
    if residual:
        inner = (LayerSpec("conv2d", out_channels=out_channels, kernel_size=kernel_size),
                 LayerSpec("relu"))
        layers.append(LayerSpec("residual-add", inner=inner))
    if pool:
        layers.append(LayerSpec("max-pool"))
    if global_pool:
        layers.append(LayerSpec("global-average-pool"))
    return StageSpec(name, tuple(layers))


def mini_staged_spec(widths: Sequence[int] = (4, 4, 8, 8, 8),
                     input_shape: Sequence[int] = (1, 16, 16),
                     kernel_size: int = 3,
                     residual: bool = False,
                     head_name: str = "fc",
                     pools: Sequence[bool] | None = None) -> tuple[StageSpec, ...]:
    """Desk-scale staged net: len(widths) conv stage groups plus a dense head.

    Pooling defaults to halving the spatial dims while they stay even and
    at least 4; the last stage always ends with global average pooling so
    the head sees a flat feature vector.
    """
    if len(input_shape) != 3:
        raise ValueError(f"input_shape must be (channels, H, W), got {input_shape}")
    h = input_shape[1]
    if pools is None:
        auto = []
        for _ in widths:
            do_pool = h >= 4 and h % 2 == 0
            auto.append(do_pool)
            if do_pool:
                h //= 2
        pools = auto
    if len(pools) != len(widths):
        raise ValueError("pools and widths must have the same length")
    stages = []
    for i, w in enumerate(widths):
        last = i == len(widths) - 1
        stages.append(conv_stage(f"conv{i + 1}", w, kernel_size=kernel_size,
                                 residual=residual, pool=pools[i] and not last,
                                 global_pool=last))
    stages.append(StageSpec(head_name, (LayerSpec("dense"),)))
    return tuple(stages)


def _walk_shapes(spec: Sequence[StageSpec], input_shape: Sequence[int]):
    """Infer every layer's parameter shapes; reject incompatible stages.

    Returns ([(stage_name, layer_path, kind, param_shapes), ...], out_shape).
    """
    shape = tuple(input_shape)
    prev_stage = "<input>"
    records = []
    for stage in spec:
        for li, layer in enumerate(stage.layers):
            recs, shape = _walk_layer(layer, f"{li}", shape, stage.name, prev_stage)
            records.extend((stage.name,) + r for r in recs)
        prev_stage = stage.name
    if len(shape) != 1:
        raise ValueError(f"stage '{spec[-1].name}' must end with a flat feature "
                         f"vector, got shape {shape}")
    return records, shape


def _walk_layer(layer: LayerSpec, path: str, shape: tuple, stage_name: str,
                prev_stage: str):
    def fail(msg):
        raise ValueError(f"incompatible shapes between stages '{prev_stage}' and "
                         f"'{stage_name}': {msg}")

    if layer.kind == "conv2d":
        if len(shape) != 3:
            fail(f"conv2d needs (C, H, W) input, got {shape}")
        k = layer.kernel_size
        pshapes = ((layer.out_channels, shape[0], k, k), (layer.out_channels,))
        return [(path, "conv2d", pshapes)], (layer.out_channels, shape[1], shape[2])
    if layer.kind == "dense":
        if len(shape) != 1:
            fail(f"dense needs a flat input, got {shape}")
        out = layer.out_features
        return [(path, "dense", ((shape[0], out), (out,)))], (out,)
    if layer.kind == "relu":
        return [(path, "relu", ())], shape
    if layer.kind == "max-pool":
        if len(shape) != 3:
            fail(f"max-pool needs (C, H, W) input, got {shape}")
        if shape[1] % 2 or shape[2] % 2:
            fail(f"max-pool needs even spatial dims, got {shape}")
        return [(path, "max-pool", ())], (shape[0], shape[1] // 2, shape[2] // 2)
    if layer.kind == "global-average-pool":
        if len(shape) != 3:
            fail(f"global-average-pool needs (C, H, W) input, got {shape}")
        return [(path, "global-average-pool", ())], (shape[0],)
    if layer.kind == "residual-add":
        records = [(path, "residual-add", ())]
        inner_shape = shape
        for ii, ispec in enumerate(layer.inner):
            recs, inner_shape = _walk_layer(ispec, f"{path}/{ii}", inner_shape,
                                            stage_name, prev_stage)
            records.extend(recs)
        if inner_shape != shape:
            fail(f"residual-add inner chain changed shape {shape} -> {inner_shape}")
        return records, shape
    raise ValueError(f"unknown layer kind {layer.kind!r}")


def arch_digest(spec: Sequence[StageSpec], input_shape: Sequence[int]) -> str:
    """Hash of ordered (stage name, layer kind, shape) triples.

    The head output size (last dense layer) is masked so checkpoints
    transfer across label counts.
    """
    records, _ = _walk_shapes(spec, input_shape)
    triples = []
    for stage_name, path, kind, pshapes in records:
        triples.append([stage_name, path, kind, [list(s) for s in pshapes]])
    # mask the head dense output size
    for rec in reversed(triples):
        if rec[2] == "dense":
            rec[3][0][1] = None
            rec[3][1][0] = None
            break
    payload = json.dumps({"input_shape": list(input_shape), "layers": triples},
                         sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class StagedModel:
    """A built network: stages with live parameters plus build metadata."""

    def __init__(self, spec: tuple[StageSpec, ...], stages: list[Stage],
                 input_shape: tuple[int, ...], num_labels: int, seed: int,
                 trained_iterations: int = 0):
        self.spec = spec
        self.stages = stages
        self.input_shape = tuple(input_shape)
        self.num_labels = num_labels
        self.seed = seed
        self.trained_iterations = trained_iterations

    @property
    def stage_names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.stages)

    @property
    def head_name(self) -> str:
        return self.stages[-1].name

    @property
    def inner_stage_names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.stages[:-1])

    def named_parameters(self):
        for stage in self.stages:
            yield from stage.named_params()

    def param_count(self) -> int:
        return param_count(self.stages)

    def digest(self) -> str:
        return arch_digest(self.spec, self.input_shape)

    def check_input(self, batch) -> np.ndarray:
        """The batch as float64, rejected unless it has the model input shape."""
        x = np.asarray(batch, dtype=np.float64)
        if tuple(x.shape[1:]) != self.input_shape:
            raise ValueError(f"batch shape {tuple(x.shape[1:])} does not match "
                             f"model input shape {self.input_shape}")
        return x

    def forward(self, batch, labels):
        return forward(self.stages, self.check_input(batch), labels)

    def backward(self, cache, labels):
        return backward(self.stages, cache, labels)

    def predict(self, batch) -> np.ndarray:
        """Class scores without loss; accepts any batch of model input shape."""
        return run_stages(self.stages, self.check_input(batch))

    def clone(self) -> "StagedModel":
        return StagedModel(self.spec, copy.deepcopy(self.stages), self.input_shape,
                           self.num_labels, self.seed, self.trained_iterations)


def _init_layer(layer_spec: LayerSpec, in_shape: tuple, rng: np.random.Generator):
    if layer_spec.kind == "conv2d":
        k = layer_spec.kernel_size
        fan_in = in_shape[0] * k * k
        limit = 1.0 / np.sqrt(fan_in)
        w = rng.uniform(-limit, limit, size=(layer_spec.out_channels, in_shape[0], k, k))
        b = rng.uniform(-limit, limit, size=layer_spec.out_channels)
        return Conv2d(w, b), (layer_spec.out_channels, in_shape[1], in_shape[2])
    if layer_spec.kind == "dense":
        fan_in = in_shape[0]
        limit = 1.0 / np.sqrt(fan_in)
        w = rng.uniform(-limit, limit, size=(fan_in, layer_spec.out_features))
        b = rng.uniform(-limit, limit, size=layer_spec.out_features)
        return Dense(w, b), (layer_spec.out_features,)
    if layer_spec.kind == "relu":
        return Relu(), in_shape
    if layer_spec.kind == "max-pool":
        return MaxPool(), (in_shape[0], in_shape[1] // 2, in_shape[2] // 2)
    if layer_spec.kind == "global-average-pool":
        return GlobalAvgPool(), (in_shape[0],)
    if layer_spec.kind == "residual-add":
        inner = []
        shape = in_shape
        for ispec in layer_spec.inner:
            l, shape = _init_layer(ispec, shape, rng)
            inner.append(l)
        return ResidualBlock(inner), in_shape
    raise ValueError(f"unknown layer kind {layer_spec.kind!r}")


def build_staged_network(spec: Sequence[StageSpec], input_shape: Sequence[int],
                         num_labels: int, seed: int) -> StagedModel:
    """Build and deterministically initialize a staged model.

    Weights use scaled uniform fan-in initialization U(-1/sqrt(fan_in),
    1/sqrt(fan_in)); biases start at zero. The last stage must be a dense
    head; its out_features may be left unset to take num_labels.
    """
    spec = tuple(spec)
    if not spec:
        raise ValueError("model spec must contain at least one stage")
    if num_labels < 2:
        raise ValueError(f"num_labels must be at least 2, got {num_labels}")
    names = [s.name for s in spec]
    if len(set(names)) != len(names):
        raise ValueError(f"stage names must be unique, got {names}")
    head = spec[-1]
    if len(head.layers) != 1 or head.layers[0].kind != "dense":
        raise ValueError(f"last stage '{head.name}' must be a single dense head")
    head_out = head.layers[0].out_features
    if head_out is not None and head_out != num_labels:
        raise ValueError(f"head outputs {head_out} but num_labels is {num_labels}")
    if head_out is None:
        head = StageSpec(head.name,
                         (replace(head.layers[0], out_features=num_labels),))
        spec = spec[:-1] + (head,)
    # validates all adjacent shapes before any allocation
    _walk_shapes(spec, input_shape)

    rng = np.random.default_rng(seed)
    stages = []
    shape = tuple(input_shape)
    for stage_spec in spec:
        layers = []
        for layer_spec in stage_spec.layers:
            layer, shape = _init_layer(layer_spec, shape, rng)
            layers.append(layer)
        stages.append(Stage(stage_spec.name, layers))
    return StagedModel(spec, stages, tuple(input_shape), num_labels, seed)


# --- checkpoint format -----------------------------------------------------

def _metadata_bytes(meta: dict) -> bytes:
    return json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")


@dataclass
class Checkpoint:
    """Parsed checkpoint: float32 tensors in file order plus metadata."""

    tensors: dict[str, np.ndarray]
    metadata: dict

    @property
    def digest(self) -> str:
        return self.metadata["digest"]

    @property
    def num_labels(self) -> int:
        return self.metadata["num_labels"]

    def arch_spec(self) -> tuple[StageSpec, ...]:
        """The stored architecture, rejected unless the stored digest matches it."""
        try:
            spec = tuple(StageSpec.from_dict(d) for d in self.metadata["arch"])
        except (KeyError, TypeError, ValueError) as e:
            raise CheckpointError(f"metadata field 'arch' is malformed: {e}") from None
        if not spec or not all(isinstance(s.name, str) for s in spec):
            raise CheckpointError("metadata field 'arch' must be a non-empty list "
                                  "of named stages")
        try:
            digest = arch_digest(spec, self.input_shape())
        except ValueError as e:
            raise CheckpointError(f"metadata field 'arch' is malformed: {e}") from None
        if digest != self.digest:
            raise CheckpointError("metadata digest does not match the stored "
                                  "architecture")
        return spec

    def input_shape(self) -> tuple[int, ...]:
        return tuple(self.metadata["input_shape"])


def checkpoint_from_model(model: StagedModel,
                          extra_metadata: dict | None = None) -> Checkpoint:
    meta = {
        "arch": [s.to_dict() for s in model.spec],
        "digest": model.digest(),
        "input_shape": list(model.input_shape),
        "iterations": model.trained_iterations,
        "num_labels": model.num_labels,
        "seed": model.seed,
    }
    if extra_metadata:
        meta.update(extra_metadata)
    tensors = {name: np.asarray(arr, dtype=np.float32)
               for name, arr in model.named_parameters()}
    return Checkpoint(tensors, meta)


def save_checkpoint(model_or_ckpt, path) -> None:
    """Write a checkpoint file (magic FTLB, version, metadata, tensors)."""
    ckpt = (model_or_ckpt if isinstance(model_or_ckpt, Checkpoint)
            else checkpoint_from_model(model_or_ckpt))
    meta = _metadata_bytes(ckpt.metadata)
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<I", CHECKPOINT_VERSION))
        f.write(struct.pack("<I", len(meta)))
        f.write(meta)
        f.write(struct.pack("<I", len(ckpt.tensors)))
        for name, arr in ckpt.tensors.items():
            binio.write_named_tensor(f, name, arr)


def load_checkpoint(path) -> Checkpoint:
    """Read and validate a checkpoint file, its digest included."""
    try:
        with open(path, "rb") as f:
            magic = binio._read_exact(f, 4, "magic")
            if magic != CHECKPOINT_MAGIC:
                raise CheckpointError(f"bad magic {magic!r}, expected "
                                      f"{CHECKPOINT_MAGIC!r}")
            (version,) = struct.unpack("<I", binio._read_exact(f, 4, "version"))
            if version != CHECKPOINT_VERSION:
                raise CheckpointError(f"unsupported checkpoint version {version}")
            (meta_len,) = struct.unpack(
                "<I", binio._read_exact(f, 4, "metadata length"))
            try:
                meta = json.loads(binio._read_exact(f, meta_len, "metadata"))
            except ValueError as e:
                raise CheckpointError(f"corrupt metadata block: {e}") from None
            (count,) = struct.unpack("<I", binio._read_exact(f, 4, "tensor count"))
            tensors: dict[str, np.ndarray] = {}
            for i in range(count):
                name, arr = binio.read_named_tensor(f, f"tensor {i + 1}/{count}")
                tensors[name] = arr
    except binio.FormatError as e:
        raise CheckpointError(str(e)) from None
    _check_metadata(meta)
    ckpt = Checkpoint(tensors, meta)
    ckpt.arch_spec()
    return ckpt


_METADATA_TYPES = {"arch": list, "digest": str, "input_shape": list,
                   "num_labels": int, "seed": int, "iterations": int}


def _check_metadata(meta) -> None:
    """Reject metadata whose required fields are missing or mistyped."""
    if not isinstance(meta, dict):
        raise CheckpointError(f"metadata must be a JSON object, "
                              f"got {type(meta).__name__}")
    for key, kind in _METADATA_TYPES.items():
        if key not in meta:
            raise CheckpointError(f"metadata missing field {key!r}")
        if not isinstance(meta[key], kind) or isinstance(meta[key], bool):
            raise CheckpointError(f"metadata field {key!r} must be of type "
                                  f"{kind.__name__}, got "
                                  f"{type(meta[key]).__name__}")
    if not all(isinstance(d, int) and not isinstance(d, bool)
               for d in meta["input_shape"]):
        raise CheckpointError(f"metadata field 'input_shape' must hold integers, "
                              f"got {meta['input_shape']!r}")


def model_from_checkpoint(ckpt: Checkpoint) -> StagedModel:
    """Rebuild the saved model, restoring all parameters."""
    model = build_staged_network(ckpt.arch_spec(), ckpt.input_shape(),
                                 ckpt.num_labels, ckpt.metadata["seed"])
    model.trained_iterations = ckpt.metadata["iterations"]
    _assign_tensors(model, ckpt, skip_head=False)
    return model


def _assign_tensors(model: StagedModel, ckpt: Checkpoint, skip_head: bool) -> None:
    head = model.head_name
    expected = dict(model.named_parameters())
    for name in expected:
        if skip_head and name.startswith(head + "/"):
            continue
        if name not in ckpt.tensors:
            raise CheckpointError(f"checkpoint missing tensor {name!r}")
    for name, arr in ckpt.tensors.items():
        if name not in expected:
            raise CheckpointError(f"checkpoint has unexpected tensor {name!r}")
        if skip_head and name.startswith(head + "/"):
            continue
        target = expected[name]
        if tuple(arr.shape) != tuple(target.shape):
            raise CheckpointError(f"tensor {name!r} has shape {arr.shape}, "
                                  f"model expects {target.shape}")
        # float32 -> float64 is exact, so saved weights survive bit-identically
        target[...] = arr.astype(np.float64)


def transfer_init(source: Checkpoint, target_num_labels: int,
                  head_seed: int) -> StagedModel:
    """Head replacement: copy all inner-stage weights, re-init the head.

    The target model shares the source architecture except for the head
    output size; both head weight and bias are re-initialized from
    head_seed.
    """
    spec = source.arch_spec()
    head = spec[-1]
    new_head = StageSpec(head.name, (replace(head.layers[0],
                                             out_features=target_num_labels),))
    new_spec = spec[:-1] + (new_head,)
    model = build_staged_network(new_spec, source.input_shape(),
                                 target_num_labels, head_seed)
    _assign_tensors(model, _drop_head_tensors(source, head.name), skip_head=True)
    return model


def _drop_head_tensors(ckpt: Checkpoint, head_name: str) -> Checkpoint:
    tensors = {n: a for n, a in ckpt.tensors.items()
               if not n.startswith(head_name + "/")}
    return Checkpoint(tensors, ckpt.metadata)

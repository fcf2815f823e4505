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
import io
import json
import math
import struct
from dataclasses import dataclass, field, fields, replace
from typing import NamedTuple, Sequence

import numpy as np

from . import binio
from .codec import check, decode, encode
from .nn_core import (Conv2d, Dense, GlobalAvgPool, MaxPool, Relu,
                      ResidualBlock, Stage, param_layout)

CHECKPOINT_MAGIC = b"FTLB"
CHECKPOINT_VERSION = 1

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
    inner: tuple[LayerSpec, ...] | None = None  # residual-add

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


@dataclass(frozen=True)
class StageSpec:
    name: str
    layers: tuple[LayerSpec, ...]

    def to_dict(self) -> dict:
        return {"name": self.name, "layers": [s.to_dict() for s in self.layers]}


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


class LayerShape(NamedTuple):
    """One layer as the walker sees it; path is "i", or "i/j" in a residual."""

    stage: str
    path: str
    kind: str
    in_shape: tuple
    out_shape: tuple
    param_shapes: tuple       # (w, b) shapes for dense and conv2d, else ()


def layer_shapes(spec: Sequence[StageSpec],
                 input_shape: Sequence[int]) -> list[LayerShape]:
    """Every layer of spec in build order, residual inner layers included.

    This holds every shape rule of the model; a spec that breaks one
    raises ValueError. The head's out_features may be left unset; its
    shapes then hold None.
    """
    spec = tuple(spec)
    if not spec:
        raise ValueError("model spec must contain at least one stage")
    names = [s.name for s in spec]
    if len(set(names)) != len(names):
        raise ValueError(f"stage names must be unique, got {names}")
    head = spec[-1]
    if len(head.layers) != 1 or head.layers[0].kind != "dense":
        raise ValueError(f"last stage '{head.name}' must be a single dense head")
    shape = tuple(input_shape)
    if not shape or min(shape) < 1:
        raise ValueError(f"input shape must hold positive sizes, got {shape}")
    records: list[LayerShape] = []
    prev_stage = "<input>"
    for stage in spec:
        for li, layer in enumerate(stage.layers):
            shape = _walk_layer(stage.name, prev_stage, str(li), layer, shape,
                                records)
        prev_stage = stage.name
    if any(None in r.out_shape for r in records[:-1]):
        raise ValueError("every dense layer below the head needs out_features")
    return records


def _walk_layer(stage: str, prev_stage: str, path: str, layer: LayerSpec,
                shape: tuple, records: list) -> tuple:
    """Append the records of one layer to records; return its output shape."""
    def fail(msg):
        raise ValueError(f"incompatible shapes between stages '{prev_stage}' "
                         f"and '{stage}': {msg}")

    kind = layer.kind
    if kind in ("conv2d", "max-pool", "global-average-pool") and len(shape) != 3:
        fail(f"{kind} needs (C, H, W) input, got {shape}")
    params: tuple = ()
    out = shape                                  # relu, residual-add
    if kind == "conv2d":
        k = layer.kernel_size
        if k % 2 == 0:
            raise ValueError(f"stage '{stage}': conv2d kernel size must be odd, "
                             f"got {k}")
        params = ((layer.out_channels, shape[0], k, k), (layer.out_channels,))
        out = (layer.out_channels,) + shape[1:]
    elif kind == "dense":
        if len(shape) != 1:
            fail(f"dense needs a flat input, got {shape}")
        params = ((shape[0], layer.out_features), (layer.out_features,))
        out = (layer.out_features,)
    elif kind == "max-pool":
        if shape[1] % 2 or shape[2] % 2:
            fail(f"max-pool needs even spatial dims, got {shape}")
        out = (shape[0], shape[1] // 2, shape[2] // 2)
    elif kind == "global-average-pool":
        out = shape[:1]
    records.append(LayerShape(stage, path, kind, shape, out, params))
    if kind == "residual-add":
        inner = shape
        for ii, sub in enumerate(layer.inner):
            inner = _walk_layer(stage, prev_stage, f"{path}/{ii}", sub, inner,
                                records)
        if inner != shape:
            fail(f"residual-add inner chain changed shape {shape} -> {inner}")
    return out


def arch_digest(spec: Sequence[StageSpec], input_shape: Sequence[int]) -> str:
    """Hash of ordered (stage name, layer kind, shape) triples.

    The head output size (last dense layer) is masked so checkpoints
    transfer across label counts.
    """
    triples = [[r.stage, r.path, r.kind, [list(s) for s in r.param_shapes]]
               for r in layer_shapes(spec, input_shape)]
    head_w, head_b = triples[-1][3]     # the last layer is the dense head
    head_w[1] = head_b[0] = None
    payload = json.dumps({"input_shape": list(input_shape), "layers": triples},
                         sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


_LAYER_TYPES = {"conv2d": Conv2d, "dense": Dense, "relu": Relu,
                "max-pool": MaxPool, "global-average-pool": GlobalAvgPool,
                "residual-add": lambda: ResidualBlock([])}


class StagedModel:
    """A built network: stages with live parameters plus build metadata.

    The layers are built from layout, spec's layer_shapes() records. Each
    parameter is a view of params, one float64 vector in named_parameters()
    order, so each stage is one contiguous slice of it; slices maps each
    parameter name to its slice."""

    def __init__(self, spec: tuple[StageSpec, ...], layout: list,
                 input_shape: tuple[int, ...], num_labels: int, seed: int,
                 params: np.ndarray, trained_iterations: int = 0):
        self.spec = spec
        self.layout = layout
        self.input_shape = tuple(input_shape)
        self.num_labels = num_labels
        self.seed = seed
        self.trained_iterations = trained_iterations
        self.params = params
        self.stages = [Stage(s.name, []) for s in spec]
        # the layer list that takes the layers at (stage, parent path)
        members = {(s.name, ""): s.layers for s in self.stages}
        offset = 0
        for rec in layout:
            views = []
            for shape in rec.param_shapes:
                views.append(params[offset:offset + math.prod(shape)].reshape(shape))
                offset += math.prod(shape)
            layer = _LAYER_TYPES[rec.kind](*views)
            members[rec.stage, rec.path.rpartition("/")[0]].append(layer)
            if rec.kind == "residual-add":
                members[rec.stage, rec.path] = layer.inner
        self.slices = param_layout(self.stages)

    @property
    def stage_names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.stages)

    @property
    def head_name(self) -> str:
        return self.stages[-1].name

    def named_parameters(self):
        for stage in self.stages:
            yield from stage.named_params()

    def param_count(self) -> int:
        return self.params.size

    def digest(self) -> str:
        return arch_digest(self.spec, self.input_shape)

    def check_input(self, batch) -> np.ndarray:
        """The batch as float64, rejected unless it has the model input shape."""
        x = np.asarray(batch, dtype=np.float64)
        if tuple(x.shape[1:]) != self.input_shape:
            raise ValueError(f"batch shape {tuple(x.shape[1:])} does not match "
                             f"model input shape {self.input_shape}")
        return x

    def clone(self) -> "StagedModel":
        """A copy of params with fresh layers built on views of the copy."""
        return StagedModel(self.spec, self.layout, self.input_shape,
                           self.num_labels, self.seed, self.params.copy(),
                           self.trained_iterations)


def build_staged_network(spec: Sequence[StageSpec], input_shape: Sequence[int],
                         num_labels: int, seed: int) -> StagedModel:
    """Build and deterministically initialize a staged model.

    Weights and biases alike are drawn from the scaled uniform fan-in
    initialization U(-1/sqrt(fan_in), 1/sqrt(fan_in)), layer by layer in
    build order, into the model's parameter vector. The last stage must be
    a dense head; its out_features may be left unset to take num_labels.
    """
    if num_labels < 2:
        raise ValueError(f"num_labels must be at least 2, got {num_labels}")
    spec = tuple(spec)
    layer_shapes(spec, input_shape)    # every rule, before the head is read
    head = spec[-1]
    head_out = head.layers[0].out_features
    if head_out is not None and head_out != num_labels:
        raise ValueError(f"head outputs {head_out} but num_labels is {num_labels}")
    spec = spec[:-1] + (StageSpec(head.name, (replace(head.layers[0],
                                                      out_features=num_labels),)),)
    layout = layer_shapes(spec, input_shape)
    rng = np.random.default_rng(seed)
    draws = []
    for rec in layout:
        if rec.param_shapes:                    # fan_in = w.size / b.size
            w_shape, b_shape = rec.param_shapes
            limit = 1.0 / np.sqrt(math.prod(w_shape) // b_shape[0])
            draws += [rng.uniform(-limit, limit, size=s).ravel()
                      for s in rec.param_shapes]
    return StagedModel(spec, layout, input_shape, num_labels, seed,
                       np.concatenate(draws))


# --- checkpoint format -----------------------------------------------------

def _metadata_bytes(meta: dict) -> bytes:
    return json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")


@dataclass(frozen=True)
class CheckpointHeader:
    """The metadata fields every checkpoint holds; load_checkpoint decodes
    them once, and checks the digest and the head size against them."""

    arch: tuple[StageSpec, ...]
    digest: str
    input_shape: tuple[int, ...]
    iterations: int = field(metadata=check(lambda n: n >= 0,
                                           "must be a non-negative integer"))
    num_labels: int = field(metadata=check(lambda n: n >= 2,
                                           "must be at least 2"))
    seed: int = field(metadata=check(lambda n: n >= 0,
                                     "must be a non-negative integer"))


_HEADER_FIELDS = tuple(f.name for f in fields(CheckpointHeader))


@dataclass
class Checkpoint:
    """Float32 tensors in file order, the header, and extra: the free-form
    metadata fields, such as domain."""

    tensors: dict[str, np.ndarray]
    header: CheckpointHeader
    extra: dict = field(default_factory=dict)

    @property
    def stage_names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.header.arch)

    @property
    def metadata(self) -> dict:
        """The metadata block as save_checkpoint writes it, as a new dict:
        editing it changes nothing in the checkpoint."""
        # LayerSpec.to_dict leaves out the fields a layer kind does not use
        return (encode(self.header)
                | {"arch": [s.to_dict() for s in self.header.arch]}
                | copy.deepcopy(self.extra))


def checkpoint_from_model(model: StagedModel,
                          extra_metadata: dict | None = None) -> Checkpoint:
    """The model's checkpoint; extra_metadata adds free-form fields, and may
    not replace a field that the model gives."""
    extra = extra_metadata or {}
    derived = sorted(extra.keys() & set(_HEADER_FIELDS))
    if derived:
        raise ValueError(f"extra_metadata may not replace the fields the "
                         f"model gives: {derived}")
    header = CheckpointHeader(model.spec, model.digest(), model.input_shape,
                              model.trained_iterations, model.num_labels,
                              model.seed)
    tensors = {}
    for name, arr in model.named_parameters():
        try:
            tensors[name] = binio.finite_float32(arr)
        except binio.FormatError:
            raise ValueError(f"checkpoint: parameter {name!r} is not finite "
                             f"as float32") from None
    return Checkpoint(tensors, header, dict(extra))


def save_checkpoint(model_or_ckpt, path) -> None:
    """Write a checkpoint file (magic FTLB, version, metadata, tensors).

    The file's bytes are built before it is opened, so a tensor the format
    refuses (not finite as float32, say) leaves no file."""
    ckpt = (model_or_ckpt if isinstance(model_or_ckpt, Checkpoint)
            else checkpoint_from_model(model_or_ckpt))
    meta = _metadata_bytes(ckpt.metadata)
    f = io.BytesIO()
    f.write(CHECKPOINT_MAGIC)
    f.write(struct.pack("<I", CHECKPOINT_VERSION))
    f.write(struct.pack("<I", len(meta)))
    f.write(meta)
    f.write(struct.pack("<I", len(ckpt.tensors)))
    for name, arr in ckpt.tensors.items():
        binio.write_named_tensor(f, name, arr)
    with open(path, "wb") as out:
        out.write(f.getvalue())


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
            except (ValueError, RecursionError) as e:
                raise CheckpointError(f"corrupt metadata block: {e}") from None
            (count,) = struct.unpack("<I", binio._read_exact(f, 4, "tensor count"))
            tensors: dict[str, np.ndarray] = {}
            for i in range(count):
                name, arr = binio.read_named_tensor(f, f"tensor {i + 1}/{count}")
                if name in tensors:
                    raise CheckpointError(f"tensor {i + 1}/{count}: name "
                                          f"{name!r} repeats")
                tensors[name] = arr
            if f.read(1):
                raise CheckpointError("trailing bytes after the last tensor")
    except binio.FormatError as e:
        raise CheckpointError(str(e)) from None
    header = _read_header(meta)
    return Checkpoint(tensors, header, {k: v for k, v in meta.items()
                                        if k not in _HEADER_FIELDS})


def _read_header(meta) -> CheckpointHeader:
    """meta's header fields, decoded; rejected unless the stored digest is
    the architecture's and a head size it gives is num_labels."""
    if not isinstance(meta, dict):
        raise CheckpointError(f"metadata must be a JSON object, "
                              f"got {type(meta).__name__}")
    try:
        header = decode(CheckpointHeader,
                        {k: meta[k] for k in _HEADER_FIELDS if k in meta})
    except (ValueError, RecursionError) as e:  # DecodeError included
        raise CheckpointError(f"metadata: {e}") from None
    try:
        digest = arch_digest(header.arch, header.input_shape)
    except (ValueError, RecursionError) as e:
        raise CheckpointError(f"metadata field 'arch' is malformed: {e}") from None
    if digest != header.digest:
        raise CheckpointError("metadata digest does not match the stored "
                              "architecture")
    # the digest masks the head's size, so it is checked on its own
    head_out = header.arch[-1].layers[0].out_features
    if head_out is not None and head_out != header.num_labels:
        raise CheckpointError(f"head outputs {head_out} but num_labels is "
                              f"{header.num_labels}")
    return header


def model_from_checkpoint(ckpt: Checkpoint) -> StagedModel:
    """Rebuild the saved model, restoring all parameters."""
    h = ckpt.header
    model = build_staged_network(h.arch, h.input_shape, h.num_labels, h.seed)
    model.trained_iterations = h.iterations
    _assign_tensors(model, ckpt, skip_head=False)
    return model


def _assign_tensors(model: StagedModel, ckpt: Checkpoint, skip_head: bool) -> None:
    """Copy ckpt's tensors into model's parameters, the head's unless skip_head."""
    skip = model.head_name + "/" if skip_head else None
    expected = dict(model.named_parameters())
    for name in expected:
        if name not in ckpt.tensors and not (skip and name.startswith(skip)):
            raise CheckpointError(f"checkpoint missing tensor {name!r}")
    for name, arr in ckpt.tensors.items():
        if name not in expected:
            raise CheckpointError(f"checkpoint has unexpected tensor {name!r}")
        if skip and name.startswith(skip):
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
    *inner, head = source.header.arch
    new_head = StageSpec(head.name, (replace(head.layers[0],
                                             out_features=target_num_labels),))
    model = build_staged_network((*inner, new_head), source.header.input_shape,
                                 target_num_labels, head_seed)
    _assign_tensors(model, source, skip_head=True)
    return model

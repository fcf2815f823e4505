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
import math
import struct
from dataclasses import dataclass, field, fields, replace
from types import MappingProxyType
from typing import NamedTuple, Sequence

import numpy as np

from . import binio
from .codec import check, decode, encode
from .nn_core import (Conv2d, Dense, GlobalAvgPool, MaxPool, Relu,
                      ResidualBlock, Stage)

CHECKPOINT_MAGIC = b"FTLB"
CHECKPOINT_VERSION = 1

# every layer class by the kind a LayerSpec names it with
_LAYER_CLASSES = {cls.kind: cls for cls in (Conv2d, Dense, Relu, MaxPool,
                                           GlobalAvgPool, ResidualBlock)}


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
        if self.kind not in _LAYER_CLASSES:
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


@dataclass(frozen=True)
class MiniNet:
    """Desk-scale staged net: len(widths) conv stage groups plus a dense head.

    Pooling defaults to halving the spatial dims while they stay even and
    at least 4; the last stage always ends with global average pooling so
    the head sees a flat feature vector. Settings that do not give a valid
    net are rejected when it is made; a config's model section is one.
    """

    widths: tuple[int, ...] = (4, 4, 8, 8, 8)
    input_shape: tuple[int, ...] = (1, 16, 16)
    kernel_size: int = 3
    residual: bool = False
    head_name: str = "fc"
    pools: tuple[bool, ...] | None = None

    def __post_init__(self):
        layer_shapes(self.stages(), self.input_shape)

    def stages(self) -> tuple[StageSpec, ...]:
        widths, input_shape, pools = self.widths, self.input_shape, self.pools
        if len(input_shape) != 3:
            raise ValueError(f"input_shape must be (channels, H, W), got {input_shape}")
        h, w = input_shape[1:]
        if pools is None:
            auto = []
            for _ in widths:
                do_pool = min(h, w) >= 4 and h % 2 == 0 and w % 2 == 0
                auto.append(do_pool)
                if do_pool:
                    h, w = h // 2, w // 2
            pools = auto
        if len(pools) != len(widths):
            raise ValueError("pools and widths must have the same length")
        stages = []
        for i, w in enumerate(widths):
            last = i == len(widths) - 1
            stages.append(conv_stage(f"conv{i + 1}", w, kernel_size=self.kernel_size,
                                     residual=self.residual, pool=pools[i] and not last,
                                     global_pool=last))
        stages.append(StageSpec(self.head_name, (LayerSpec("dense"),)))
        return tuple(stages)


def mini_staged_spec(*args, **kwargs) -> tuple[StageSpec, ...]:
    """The stages of MiniNet(*args, **kwargs)."""
    return MiniNet(*args, **kwargs).stages()


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
    return _layout_digest(layer_shapes(spec, input_shape), input_shape)


def _layout_digest(layout: Sequence[LayerShape], input_shape) -> str:
    """arch_digest() of the spec whose layer_shapes() are layout."""
    triples = [[r.stage, r.path, r.kind, [list(s) for s in r.param_shapes]]
               for r in layout]
    head_w, head_b = triples[-1][3]     # the last layer is the dense head
    head_w[1] = head_b[0] = None
    payload = _json({"input_shape": list(input_shape), "layers": triples})
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _json(value) -> str:
    """value as a checkpoint's metadata block spells it."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


class Architecture:
    """One architecture at one head size, and all that depends on it alone.

    It is shared by reference and never changed. build_staged_network
    builds one per call, and a checkpoint header one per head size it is
    read at (CheckpointHeader.architecture); the models built on it hold
    it, and so do their clones and checkpoints. So the jobs of one source
    neither decode, walk, hash nor encode the spec again. It holds:

    - spec, with the head resized to num_labels, its layer_shapes() layout,
      and stage_names;
    - slices, each parameter's slice of a parameter vector laid out in
      named_parameters() order, which is also the checkpoint's tensor order,
      and tensor_headers, each parameter's shape and the bytes a checkpoint
      writes before its data (binio.named_tensor_header);
    - digest: the one given (a transfer target's is its source's), else
      arch_digest() of spec;
    - stage_starts[d], where stage d's parameters start (the last entry is
      size, the parameter count);
    - builders, what StagedModel builds each layer of layout from.
    """

    def __init__(self, spec: Sequence[StageSpec], input_shape: Sequence[int],
                 num_labels: int, digest: str | None = None):
        self.input_shape = tuple(input_shape)
        self.spec, layout = _with_head(tuple(spec), self.input_shape, num_labels)
        self.layout = tuple(layout)
        self.num_labels = num_labels
        self.stage_names = tuple(s.name for s in self.spec)
        self.digest = (_layout_digest(self.layout, self.input_shape)
                       if digest is None else digest)
        self.slices: dict[str, slice] = {}
        self.tensor_headers: dict[str, tuple] = {}
        builders, starts = [], {}
        offset = 0
        for rec in self.layout:
            starts.setdefault(rec.stage, offset)
            views = []
            for pname, shape in zip(("w", "b"), rec.param_shapes):
                name = f"{rec.stage}/{rec.path}/{pname}"
                self.slices[name] = slice(offset, offset + math.prod(shape))
                self.tensor_headers[name] = (shape,
                                             binio.named_tensor_header(name, shape))
                views.append((self.slices[name], shape))
                offset += math.prod(shape)
            builders.append((_LAYER_CLASSES[rec.kind], tuple(views),
                             (rec.stage, rec.path.rpartition("/")[0]),
                             (rec.stage, rec.path)))
        # per layer: its type, its parameters' (slice, shape), the (stage,
        # path) of the layer list it joins, and its own
        self.builders = tuple(builders)
        self.size = offset
        self.stage_starts = tuple(starts[n] for n in self.stage_names) + (offset,)

    def __reduce__(self):
        return Architecture, (self.spec, self.input_shape, self.num_labels,
                              self.digest)


class StagedModel:
    """A built network: stages with live parameters on an Architecture.

    The layers are built from arch.builders. Each parameter is a view of
    params, one float32 vector laid out as arch.slices says, in
    named_parameters() order, so each stage is one contiguous slice of it.
    The builder draws into it, and writing a layer's weights writes it. The
    layers compute in params' dtype, float32, the precision of the files.
    """

    def __init__(self, arch: Architecture, params: np.ndarray, seed: int,
                 trained_iterations: int = 0):
        self.arch = arch
        self.params = params
        self.seed = seed
        self.trained_iterations = trained_iterations
        self.stages = [Stage(name, []) for name in arch.stage_names]
        # the layer list that takes the layers at (stage, parent path)
        members = {(s.name, ""): s.layers for s in self.stages}
        for make, views, parent, path in arch.builders:
            layer = make(*[params[s].reshape(shape) for s, shape in views])
            members[parent].append(layer)
            if isinstance(layer, ResidualBlock):
                members[path] = layer.inner

    spec = property(lambda self: self.arch.spec)
    layout = property(lambda self: self.arch.layout)
    input_shape = property(lambda self: self.arch.input_shape)
    num_labels = property(lambda self: self.arch.num_labels)
    slices = property(lambda self: self.arch.slices)
    stage_names = property(lambda self: self.arch.stage_names)

    @property
    def head_name(self) -> str:
        return self.stages[-1].name

    def named_parameters(self):
        for stage in self.stages:
            yield from stage.named_params()

    def param_count(self) -> int:
        return self.params.size

    def digest(self) -> str:
        return self.arch.digest

    def check_input(self, batch) -> np.ndarray:
        """The batch in params' dtype, rejected unless it has the model input
        shape."""
        x = np.asarray(batch, dtype=self.params.dtype)
        if tuple(x.shape[1:]) != self.input_shape:
            raise ValueError(f"batch shape {tuple(x.shape[1:])} does not match "
                             f"model input shape {self.input_shape}")
        return x

    def clone(self) -> "StagedModel":
        """A copy of params with fresh layers built on views of the copy; the
        architecture is shared."""
        return StagedModel(self.arch, self.params.copy(), self.seed,
                           self.trained_iterations)


def build_staged_network(spec: Sequence[StageSpec], input_shape: Sequence[int],
                         num_labels: int, seed: int) -> StagedModel:
    """Build and deterministically initialize a staged model.

    Weights and biases alike are drawn from the scaled uniform fan-in
    initialization U(-1/sqrt(fan_in), 1/sqrt(fan_in)), layer by layer in
    build order, into the model's parameter vector. The last stage must be
    a dense head; its out_features may be left unset to take num_labels.
    """
    spec = tuple(spec)
    layer_shapes(spec, input_shape)    # every rule, before the head is read
    _check_head(spec, num_labels)
    arch = Architecture(spec, input_shape, num_labels)
    return StagedModel(arch, _draws(arch.layout, np.random.default_rng(seed)),
                       seed)


def _check_head(spec: tuple, num_labels: int) -> None:
    head_out = spec[-1].layers[0].out_features
    if head_out is not None and head_out != num_labels:
        raise ValueError(f"head outputs {head_out} but num_labels is {num_labels}")


def _with_head(spec: tuple, input_shape, num_labels: int) -> tuple:
    """(spec with its head resized to num_labels outputs, its layer_shapes());
    spec itself if its head has that size."""
    if num_labels < 2:
        raise ValueError(f"num_labels must be at least 2, got {num_labels}")
    head = spec[-1]
    dense = replace(head.layers[0], out_features=num_labels)  # checks the size
    if dense != head.layers[0]:
        spec = spec[:-1] + (StageSpec(head.name, (dense,)),)
    return spec, layer_shapes(spec, input_shape)


def _draws(layout: Sequence[LayerShape], rng: np.random.Generator) -> np.ndarray:
    """The initial parameters of layout's layers, drawn in order from rng in
    float64 and rounded once to float32."""
    draws = []
    for rec in layout:
        if rec.param_shapes:                    # fan_in = w.size / b.size
            w_shape, b_shape = rec.param_shapes
            limit = 1.0 / np.sqrt(math.prod(w_shape) // b_shape[0])
            draws += [rng.uniform(-limit, limit, size=s).ravel()
                      for s in rec.param_shapes]
    return np.concatenate(draws).astype(np.float32)


# --- checkpoint format -----------------------------------------------------

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

    def __post_init__(self):
        # not a field: what the fields fix, built on demand and kept
        object.__setattr__(self, "_architectures", {})

    def architecture(self, num_labels: int | None = None) -> Architecture:
        """The Architecture of arch with its head resized to num_labels
        (default: this header's), carrying this header's digest. It is
        built at the first call for each head size and kept, so every
        transfer target of one checkpoint at one head size shares it."""
        n = self.num_labels if num_labels is None else num_labels
        key = (type(n), n)          # 3.0 equals 3, but is no head size
        arch = self._architectures.get(key)
        if arch is None:
            arch = self._architectures[key] = Architecture(
                self.arch, self.input_shape, n, self.digest)
        return arch


_HEADER_FIELDS = tuple(f.name for f in fields(CheckpointHeader))


@dataclass
class Checkpoint:
    """params, the header's six required fields, and extra, the free-form
    metadata fields, such as domain. params is one float32 vector laid out
    as header.architecture() lays out a model's (arch.slices, file order).
    load_checkpoint checks the header and every tensor once, so its readers
    copy slices of params unchecked, and an edit in place reaches them."""

    params: np.ndarray
    header: CheckpointHeader
    extra: dict = field(default_factory=dict)

    @property
    def tensors(self) -> MappingProxyType:
        """A read-only map of each tensor name, in file order, to its view of
        params, shaped as the architecture gives it."""
        arch = self.header.architecture()
        return MappingProxyType({
            name: self.params[s].reshape(arch.tensor_headers[name][0])
            for name, s in arch.slices.items()})

    @property
    def stage_names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.header.arch)

    @property
    def metadata(self) -> dict:
        """A deep copy of the block that save_checkpoint writes: editing it
        changes nothing in the checkpoint."""
        return copy.deepcopy(self._block())

    def _block(self) -> dict:
        """The metadata block that save_checkpoint writes: the header's
        fields, then extra. arch is the header's own, an unset head size
        included, as StageSpec.to_dict spells it."""
        h = self.header
        return ({"arch": [s.to_dict() for s in h.arch]}
                | {f: encode(getattr(h, f)) for f in _HEADER_FIELDS
                   if f != "arch"} | self.extra)


def checkpoint_from_model(model: StagedModel,
                          extra_metadata: dict | None = None) -> Checkpoint:
    """The model's checkpoint; extra_metadata adds free-form fields, and may
    not replace a field that the model gives. Its params are one float32
    copy of model.params; a ValueError names the first parameter that is
    not finite as float32."""
    extra = extra_metadata or {}
    derived = sorted(extra.keys() & set(_HEADER_FIELDS))
    if derived:
        raise ValueError(f"extra_metadata may not replace the fields the "
                         f"model gives: {derived}")
    arch = model.arch
    with np.errstate(over="ignore"):     # the check below reports it
        image = model.params.astype(np.float32)
    if not np.isfinite(image).all():
        name = next(n for n, s in arch.slices.items()
                    if not np.isfinite(image[s]).all())
        raise ValueError(f"checkpoint: parameter {name!r} is not finite "
                         f"as float32")
    header = CheckpointHeader(arch.spec, arch.digest, arch.input_shape,
                              model.trained_iterations, arch.num_labels,
                              model.seed)
    header._architectures[type(arch.num_labels), arch.num_labels] = arch
    return Checkpoint(image, header, dict(extra))


def save_checkpoint(model_or_ckpt, path) -> None:
    """Write a checkpoint file (magic FTLB, version, metadata, tensors).

    Each tensor is the header's architecture's record header for it, then
    its slice of params, in architecture order. The file's bytes are built
    before it is opened, so params the format refuses (not finite as
    float32, say) leave no file."""
    ckpt = (model_or_ckpt if isinstance(model_or_ckpt, Checkpoint)
            else checkpoint_from_model(model_or_ckpt))
    arch = ckpt.header.architecture()
    params = binio.finite_float32(ckpt.params).reshape(arch.size)
    meta = _json(ckpt._block()).encode("utf-8")
    parts = [CHECKPOINT_MAGIC,
             struct.pack("<II", CHECKPOINT_VERSION, len(meta)), meta,
             struct.pack("<I", len(arch.slices))]
    for name, s in arch.slices.items():
        parts += (arch.tensor_headers[name][1], params[s])
    blob = b"".join(parts)
    with open(path, "wb") as out:
        out.write(blob)


def load_checkpoint(path) -> Checkpoint:
    """Read and validate a checkpoint file: the whole stream, then the
    header, its digest included, then each tensor, placed into params by
    name. Tensors may come in any order, but each must fit the header's
    architecture: a known name, the expected shape, exactly once."""
    with open(path, "rb") as f:
        r = binio.Reader(f.read())
    try:
        magic = r.take(4, "magic")
        if magic != CHECKPOINT_MAGIC:
            raise CheckpointError(f"bad magic {magic!r}, expected "
                                  f"{CHECKPOINT_MAGIC!r}")
        (version,) = r.unpack("<I", "version")
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(f"unsupported checkpoint version {version}")
        (meta_len,) = r.unpack("<I", "metadata length")
        try:
            meta = json.loads(r.take(meta_len, "metadata"))
        except (ValueError, RecursionError) as e:
            raise CheckpointError(f"corrupt metadata block: {e}") from None
        (count,) = r.unpack("<I", "tensor count")
        records = [binio.read_named_tensor(r, f"tensor {i + 1}/{count}")
                   for i in range(count)]
        r.end("the last tensor")
    except binio.FormatError as e:
        raise CheckpointError(str(e)) from None
    header = _read_header(meta)
    arch = header.architecture()
    params = np.empty(arch.size, np.float32)
    left = dict(arch.slices)            # the slices no tensor has filled yet
    for i, (name, arr) in enumerate(records):
        if name not in left:
            raise CheckpointError(
                f"tensor {i + 1}/{count}: name {name!r} repeats"
                if name in arch.slices else
                f"checkpoint has unexpected tensor {name!r}")
        shape = arch.tensor_headers[name][0]
        if arr.shape != shape:
            raise CheckpointError(f"tensor {name!r} has shape {arr.shape}, "
                                  f"model expects {shape}")
        params[left.pop(name)] = arr.reshape(-1)
    if left:
        raise CheckpointError(f"checkpoint missing tensor {next(iter(left))!r}")
    return Checkpoint(params, header, {k: v for k, v in meta.items()
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
    try:
        _check_head(header.arch, header.num_labels)
    except ValueError as e:
        raise CheckpointError(str(e)) from None
    return header


def model_from_checkpoint(ckpt: Checkpoint) -> StagedModel:
    """Rebuild the saved model on a copy of the checkpoint's float32
    parameters: a saved model loads back bit-exact."""
    h = ckpt.header
    _check_head(h.arch, h.num_labels)       # a header built by hand may differ
    return StagedModel(h.architecture(), ckpt.params.astype(np.float32),
                       h.seed, h.iterations)


def transfer_init(source: Checkpoint, target_num_labels: int,
                  head_seed: int) -> StagedModel:
    """Head replacement: copy all inner-stage weights, re-init the head.

    The target model is built on source.header.architecture(
    target_num_labels), shared by every target of the source at that head
    size: the source architecture, and so its digest, except for the head
    output size. The inner stages are one copy of the leading slice of
    source.params. Both head weight and bias are re-initialized from
    head_seed, with the bytes that build_staged_network(..., head_seed)
    gives the head: the generator skips the draws of the inner
    parameters, one 64-bit step each.
    """
    arch = source.header.architecture(target_num_labels)
    inner = arch.stage_starts[-2]              # the head stage's start
    rng = np.random.default_rng(head_seed)
    rng.bit_generator.advance(inner)
    params = np.empty(arch.size, np.float32)
    params[:inner] = source.params[:inner]
    params[inner:] = _draws(arch.layout[-1:], rng)   # the last layer is the head
    return StagedModel(arch, params, head_seed)

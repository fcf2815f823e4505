"""Dataset ingestion, partitioning, and synthetic domain generation.

The partitioning protocol splits a domain into four near-equal stratified
partitions (source training, two validation sets, and a transfer pool)
plus a one-tenth transfer target drawn from the pool. Synthetic domains
give desk-scale source/target pairs whose low-level feature statistics
can be made more or less shared via a relatedness knob.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from . import binio

MANIFEST_NAME = "manifest.tsv"


@dataclass
class LabeledDataset:
    """Stacked feature tensors with dense integer labels. Features that are
    not finite as float32 are a ValueError."""

    features: np.ndarray          # (N, ...) float32, as the files hold them
    labels: np.ndarray            # (N,) int64
    label_names: tuple[str, ...]
    domain_name: str = ""

    def __post_init__(self):
        try:
            self.features = binio.finite_float32(self.features)
        except binio.FormatError:
            raise ValueError("dataset features are not finite as "
                             "float32") from None
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.shape[0] != self.labels.shape[0]:
            raise ValueError(f"{self.features.shape[0]} feature rows but "
                             f"{self.labels.shape[0]} labels")
        present = np.unique(self.labels)
        if len(present) == 0:
            raise ValueError("dataset has no examples")
        if present[0] < 0 or present[-1] >= len(self.label_names):
            raise ValueError(f"label ids must lie in [0, {len(self.label_names)})")
        # subsets (partitions, tiny targets) may legitimately miss labels;
        # load_dataset and gen_synthetic_domain produce every label

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def num_labels(self) -> int:
        return len(self.label_names)

    @property
    def example_shape(self) -> tuple[int, ...]:
        return tuple(self.features.shape[1:])

    def subset(self, indices, domain_name: str | None = None) -> "LabeledDataset":
        idx = np.asarray(indices, dtype=np.int64)
        return LabeledDataset(self.features[idx], self.labels[idx],
                              self.label_names,
                              domain_name if domain_name is not None
                              else self.domain_name)

    def label_indices(self) -> list[np.ndarray]:
        """Example indices grouped by label id, each in dataset order."""
        return [np.flatnonzero(self.labels == l) for l in range(self.num_labels)]


@dataclass
class PartitionedDomain:
    """The four-way stratified split plus the one-tenth transfer target."""

    source_train: LabeledDataset
    val_source: LabeledDataset
    val_target: LabeledDataset
    transfer_pool: LabeledDataset
    target: LabeledDataset


def images_per_label(dataset: LabeledDataset) -> float:
    """Examples divided by number of labels."""
    if len(dataset) == 0:
        raise ValueError("dataset is empty")
    return len(dataset) / dataset.num_labels


def _deal_extras(sizes: list[int], count: int) -> list[int]:
    """Indices of the `count` currently-smallest bins (ties by index)."""
    order = sorted(range(len(sizes)), key=lambda i: (sizes[i], i))
    return order[:count]


def partition_domain(dataset: LabeledDataset, seed: int) -> PartitionedDomain:
    """Stratified split into 4 near-equal partitions plus a transfer target.

    Per-label counts across partitions differ by at most 1, and so do the
    overall partition sizes. The target is a stratified tenth of the
    transfer pool (at least one example overall).
    """
    counts = np.bincount(dataset.labels, minlength=dataset.num_labels)
    for label_id, c in enumerate(counts):
        if c < 4:
            raise ValueError(f"label '{dataset.label_names[label_id]}' has only "
                             f"{c} examples; need at least 4 to partition")
    rng = np.random.default_rng(seed)
    parts: list[list[np.ndarray]] = [[] for _ in range(4)]
    sizes = [0, 0, 0, 0]
    for idx in dataset.label_indices():
        shuffled = idx[rng.permutation(len(idx))]
        q, r = divmod(len(shuffled), 4)
        take = [q] * 4
        for p in _deal_extras(sizes, r):
            take[p] += 1
        pos = 0
        for p in range(4):
            parts[p].append(shuffled[pos:pos + take[p]])
            pos += take[p]
            sizes[p] += take[p]
    part_indices = [np.sort(np.concatenate(chunks)) for chunks in parts]
    pool_idx = part_indices[3]
    target_idx = _stratified_tenth(dataset.labels[pool_idx], rng)
    name = dataset.domain_name
    return PartitionedDomain(
        source_train=dataset.subset(part_indices[0], f"{name}/source_train"),
        val_source=dataset.subset(part_indices[1], f"{name}/val_source"),
        val_target=dataset.subset(part_indices[2], f"{name}/val_target"),
        transfer_pool=dataset.subset(pool_idx, f"{name}/transfer_pool"),
        target=dataset.subset(pool_idx[target_idx], f"{name}/target"),
    )


def _stratified_tenth(pool_labels: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Pick floor(|pool|/10) examples (minimum 1) stratified by label.

    Quotas follow largest-remainder apportionment of each label's share;
    when the budget covers every label, each label keeps at least one
    example.
    """
    total = max(1, len(pool_labels) // 10)
    labels = np.unique(pool_labels)
    shares = {l: total * int((pool_labels == l).sum()) / len(pool_labels)
              for l in labels}
    quotas = {l: int(shares[l]) for l in labels}
    remainder = total - sum(quotas.values())
    by_frac = sorted(labels, key=lambda l: (-(shares[l] - quotas[l]), l))
    for l in by_frac[:remainder]:
        quotas[l] += 1
    if total >= len(labels):
        # minimum-one rule: move budget from the largest quotas
        for l in labels:
            while quotas[l] == 0:
                donor = max(labels, key=lambda d: (quotas[d], -d))
                quotas[donor] -= 1
                quotas[l] += 1
    picked = []
    for l in labels:
        idx = np.flatnonzero(pool_labels == l)
        chosen = idx[rng.permutation(len(idx))[:quotas[l]]]
        picked.append(chosen)
    return np.sort(np.concatenate(picked))


def split_train_val(dataset: LabeledDataset, train_fraction: float,
                    seed: int) -> tuple[LabeledDataset, LabeledDataset]:
    """Stratified train/validation split.

    Each label contributes round(train_fraction * count) examples to the
    training side; a label whose split would leave either side empty is
    rejected.
    """
    if not 0 < train_fraction < 1:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
    rng = np.random.default_rng(seed)
    train_parts, val_parts = [], []
    for label_id, idx in enumerate(dataset.label_indices()):
        n_train = int(np.floor(train_fraction * len(idx) + 0.5))
        if n_train == 0 or n_train == len(idx):
            raise ValueError(
                f"train_fraction {train_fraction} leaves an empty side for label "
                f"'{dataset.label_names[label_id]}' ({len(idx)} examples)")
        shuffled = idx[rng.permutation(len(idx))]
        train_parts.append(shuffled[:n_train])
        val_parts.append(shuffled[n_train:])
    name = dataset.domain_name
    return (dataset.subset(np.sort(np.concatenate(train_parts)), f"{name}/train"),
            dataset.subset(np.sort(np.concatenate(val_parts)), f"{name}/val"))


# --- synthetic domains -------------------------------------------------------

@dataclass(frozen=True)
class SyntheticDomainSpec:
    """Generator settings for one synthetic image-classification domain.

    Domains built from the same family_seed share generative parameters
    to the degree set by relatedness: 1.0 duplicates the family's motif
    bank and label compositions exactly, 0.0 draws fully independent ones.
    """

    name: str
    num_labels: int
    examples_per_label: int
    image_size: int = 16
    motif_size: int = 4
    num_motifs: int = 6
    relatedness: float = 1.0
    noise: float = 0.25
    seed: int = 0
    family_seed: int = 0

    def __post_init__(self):
        # gen-data writes the domain to <out>/<name>, one entry of <out>
        if (self.name in ("", ".", "..")
                or any(c and c in self.name for c in ("/", os.sep, os.altsep,
                                                      "\0"))):
            raise ValueError(f"name must be one plain path component, "
                             f"got {self.name!r}")
        for name, least in (("num_labels", 2), ("examples_per_label", 4),
                            ("motif_size", 1), ("num_motifs", 1), ("seed", 0),
                            ("family_seed", 0)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be >= {least}, "
                                 f"got {getattr(self, name)}")
        if not 0 <= self.relatedness <= 1:
            raise ValueError(f"relatedness must be in [0, 1], "
                             f"got {self.relatedness}")
        if self.image_size < self.motif_size:
            raise ValueError(f"image_size must be >= motif_size "
                             f"{self.motif_size}, got {self.image_size}")
        if self.image_size % self.motif_size:
            raise ValueError(f"image_size {self.image_size} must be a multiple "
                             f"of motif_size {self.motif_size}")


@dataclass
class DomainParameters:
    """Blended generative parameters actually used by gen_synthetic_domain."""

    motifs: np.ndarray        # (num_motifs, motif_size, motif_size)
    compositions: np.ndarray  # (num_labels, cells, num_motifs)


# fixed stream tags so family/own/example draws never alias
_TAG_FAMILY_MOTIFS = 101
_TAG_OWN_MOTIFS = 102
_TAG_FAMILY_BASE = 103
_TAG_OWN_BASE = 104
_TAG_FAMILY_DETAIL = 106
_TAG_OWN_DETAIL = 107
_TAG_EXAMPLES = 105

# per-cell variation relative to the label's global motif signature
_CELL_DETAIL_WEIGHT = 0.5


def _rng(*entropy) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(list(entropy)))


def domain_parameters(spec: SyntheticDomainSpec) -> DomainParameters:
    """Motif bank and per-label compositions, blended by relatedness.

    Each label composes the motif bank with a global usage signature plus
    weaker per-cell detail, so labels are texture classes whose statistics
    survive spatial pooling.
    """
    k = spec.num_motifs
    m = spec.motif_size
    cells = (spec.image_size // m) ** 2
    rho = spec.relatedness
    mix = np.sqrt(1.0 - rho * rho)

    def blend(fam_tag, own_tag, shape, label=None):
        fam_key = (spec.family_seed, fam_tag) + (() if label is None else (label,))
        own_key = (spec.seed, own_tag) + (() if label is None else (label,))
        return (rho * _rng(*fam_key).standard_normal(shape)
                + mix * _rng(*own_key).standard_normal(shape))

    motifs = blend(_TAG_FAMILY_MOTIFS, _TAG_OWN_MOTIFS, (k, m, m))
    comps = np.empty((spec.num_labels, cells, k))
    for label in range(spec.num_labels):
        # per-label streams keep shared labels stable across label counts
        base = blend(_TAG_FAMILY_BASE, _TAG_OWN_BASE, (k,), label)
        detail = blend(_TAG_FAMILY_DETAIL, _TAG_OWN_DETAIL, (cells, k), label)
        comps[label] = base[None, :] + _CELL_DETAIL_WEIGHT * detail
    comps /= np.sqrt(k * (1.0 + _CELL_DETAIL_WEIGHT ** 2))
    return DomainParameters(motifs, comps)


def gen_synthetic_domain(spec: SyntheticDomainSpec) -> LabeledDataset:
    """Deterministically generate a labeled image dataset.

    Every example is its label's motif composition plus seeded pixel noise
    and a small amplitude jitter.
    """
    params = domain_parameters(spec)
    m = spec.motif_size
    side = spec.image_size // m
    cells = side * side
    # templates: (labels, image_size, image_size)
    patches = params.compositions @ params.motifs.reshape(spec.num_motifs, m * m)
    templates = (patches.reshape(spec.num_labels, side, side, m, m)
                        .transpose(0, 1, 3, 2, 4)
                        .reshape(spec.num_labels, spec.image_size, spec.image_size))
    ex_rng = _rng(spec.seed, _TAG_EXAMPLES)
    n = spec.num_labels * spec.examples_per_label
    features = np.empty((n, 1, spec.image_size, spec.image_size))
    labels = np.empty(n, dtype=np.int64)
    i = 0
    for label in range(spec.num_labels):
        for _ in range(spec.examples_per_label):
            gain = 1.0 + 0.1 * ex_rng.standard_normal()
            noise = spec.noise * ex_rng.standard_normal(
                (spec.image_size, spec.image_size))
            features[i, 0] = gain * templates[label] + noise
            labels[i] = label
            i += 1
    label_names = tuple(f"{spec.name}_{l}" for l in range(spec.num_labels))
    return LabeledDataset(features, labels, label_names, spec.name)


# --- on-disk dataset format --------------------------------------------------

def save_dataset(dataset: LabeledDataset, directory) -> None:
    """Write per-label subdirectories of tensor files plus a manifest.

    Every example is checked before any file is written, so an example the
    tensor format refuses (not finite as float32) leaves no file."""
    features = binio.finite_float32(dataset.features)
    os.makedirs(directory, exist_ok=True)
    lines = []
    for i in range(len(dataset)):
        label_name = dataset.label_names[dataset.labels[i]]
        rel = f"{label_name}/{i:06d}.ftt"
        path = os.path.join(directory, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        binio.save_tensor_file(path, features[i])
        lines.append(f"{rel}\t{label_name}\n")
    with open(os.path.join(directory, MANIFEST_NAME), "w", encoding="utf-8") as f:
        f.writelines(lines)


def load_dataset(directory) -> LabeledDataset:
    """Load a dataset directory, its domain named after it; label ids follow
    first appearance order.

    A line that is not UTF-8 or not `<path>\\t<label>`, or whose tensor file
    cannot be opened or read (it is missing or a directory, or its path holds
    a NUL byte), is corrupt or not finite, or has a shape unlike the first
    example's, is a ValueError that names `<manifest>:<line>`. Of several bad
    lines, the first in manifest order is the one reported.

    A sound directory is read by binio.stack_tensor_files; any other is read
    file by file with binio.load_tensor_file, to find its first fault.
    """
    manifest = os.path.join(directory, MANIFEST_NAME)
    if not os.path.exists(manifest):
        raise FileNotFoundError(f"no {MANIFEST_NAME} in {directory}")
    with open(manifest, "rb") as f:
        # bytes.splitlines ends lines where text mode's universal newlines do
        raw_lines = f.read().splitlines()
    label_ids: dict[str, int] = {}
    labels = []
    examples = []               # (lineno, rel) of each example, in order
    bad_line = None             # the error of the first malformed line
    for lineno, raw in enumerate(raw_lines, 1):
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError:
            text = raw.decode("utf-8", "backslashreplace")
            bad_line = ValueError(f"{manifest}:{lineno}: {text}: not valid UTF-8")
            break
        if not line:
            continue
        try:
            rel, label_name = line.split("\t")
        except ValueError:
            bad_line = ValueError(f"{manifest}:{lineno}: expected "
                                  f"'<path>\\t<label>'")
            break
        labels.append(label_ids.setdefault(label_name, len(label_ids)))
        examples.append((lineno, rel))
    if bad_line is None and not examples:
        bad_line = ValueError(f"{manifest} lists no examples")
    features = None if bad_line else binio.stack_tensor_files(
        [os.path.join(directory, rel) for _, rel in examples])
    if features is None:
        arrays = []
        for lineno, rel in examples:
            try:
                arr = binio.load_tensor_file(os.path.join(directory, rel))
            except (OSError, ValueError, binio.FormatError) as e:
                # a NUL byte in the path is a ValueError of open()
                raise ValueError(f"{manifest}:{lineno}: {rel}: {e}") from None
            if arrays and arr.shape != arrays[0].shape:
                raise ValueError(f"{manifest}:{lineno}: {rel}: mixed shapes: "
                                 f"{arr.shape}, the first example has "
                                 f"{arrays[0].shape}")
            arrays.append(arr)
        if bad_line is not None:
            raise bad_line
        features = np.stack(arrays)
    return LabeledDataset(features, np.array(labels), tuple(label_ids),
                          os.path.basename(os.path.normpath(directory)))

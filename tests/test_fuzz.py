"""Property tests over the readers of configs, ledgers, checkpoints, tensor
files and dataset manifests.

Each test mutates one valid input, as parsed JSON or as raw bytes, and
requires the reader to take it or to end in its own typed error (for the
ledger: a skipped line; for a manifest: a ValueError naming the manifest),
never in any other exception. The runs are derandomized, so they are the
same on every run. One more test, with no random draws, cuts a tensor file
and a checkpoint at every byte offset. Another writes whole dataset
directories with one or two faults and requires load_dataset to do what
the per-file reference loader does.
"""

import json
import os
import re
import shutil
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (FAST_POLICY, TINY_MODEL, load_as_reference_does,
                      tensor_records)
from ftlab import binio
from ftlab.cli import ConfigError, RunConfig, load_config
from ftlab.codec import decode, encode
from ftlab.data import (SyntheticDomainSpec, gen_synthetic_domain,
                        load_dataset, save_dataset)
from ftlab.experiment import RunRecord, scan_ledger
from ftlab.model import (CheckpointError, build_staged_network,
                         checkpoint_from_model, load_checkpoint,
                         mini_staged_spec, model_from_checkpoint,
                         save_checkpoint, transfer_init)

FUZZ = settings(derandomize=True, database=None, max_examples=60,
                deadline=None)

# an explicit alphabet: drawing from all of Unicode first builds a table of
# its categories, which takes seconds and is written to disk
ALPHABET = "az_./-\u00e9\u2603\x00 \"\\"

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 20) | st.floats()
    | st.text(ALPHABET, max_size=4),
    lambda kids: (st.lists(kids, max_size=3)
                  | st.dictionaries(st.text(ALPHABET, max_size=4), kids,
                                    max_size=3)),
    max_leaves=6)

CONFIG = {
    "policy": FAST_POLICY,
    "model": dict(TINY_MODEL, kernel_size=3, residual=True, pools=None,
                  head_name="fc"),
    "batch_size": 4, "momentum": 0.5, "seed": 11, "workers": 2,
    "data": {"dataset": "x", "partition_seed": 1},
    "schedule": {"ll": 0.01, "il": 0.0},
    "grid": {"ll_values": [0.01, 0.1], "min_il": 0.0001},
    "graduated": {"inner_multipliers": [0, 1], "head_multiplier": 16,
                  "scales": [0.25, 1.0], "layout": "per_stage"},
    "baseline_ll_multiplier": 10.0,
    "source_checkpoint": "src.ftlb",
    "domains": [{"name": "d", "num_labels": 3, "examples_per_label": 4,
                 "image_size": 8, "motif_size": 4}],
}

CHECKPOINT = checkpoint_from_model(build_staged_network(
    mini_staged_spec((2, 3), (1, 8, 8), residual=True), (1, 8, 8), 3, seed=0))


TENSOR_BYTES = (struct.pack("<I", len(CHECKPOINT.tensors))
                + tensor_records(CHECKPOINT.tensors.items()))
METADATA_BYTES = json.dumps(CHECKPOINT.metadata).encode()

# magic, rank 3, dims (1, 2, 3), and six little-endian float32 values
TENSOR_FILE = (binio.TENSOR_FILE_MAGIC + struct.pack("<B3I", 3, 1, 2, 3)
               + np.arange(6, dtype="<f4").tobytes())

RECORD = RunRecord(kind="ll", task="t", source="s", seed=0,
                   final_accuracy=0.5, best_accuracy=0.75, ll=0.1, il=0.0,
                   checkpoint="c.ftlb")


def _paths(value, path=()):
    yield path
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        yield from _paths(item, path + (key,))


def _mutate(value, path, action, new, key, splice) -> bytes:
    holder = {"": json.loads(json.dumps(value))}     # a deep copy
    parent, last = holder, ""
    for k in path:
        parent, last = parent[last], k
    if action == "add" and isinstance(parent[last], dict):
        parent[last][key] = new
    elif action == "drop" and parent is not holder:
        del parent[last]
    else:
        parent[last] = new
    blob = json.dumps(holder[""]).encode()
    return blob if splice is None else _splice(blob, splice)


# (start, length, new bytes) of one byte range to replace
SPLICES = st.tuples(st.integers(0, 400), st.integers(0, 8),
                    st.binary(max_size=8))


def _splice(blob: bytes, splice) -> bytes:
    i, n, insert = splice
    return blob[:i] + insert + blob[i + n:]


def encoded(value):
    """JSON bytes of value with one node replaced or dropped, or a key added
    to one object; some with a byte range replaced too."""
    return st.builds(_mutate, st.just(value),
                     st.sampled_from(list(_paths(value))),
                     st.sampled_from(["replace", "drop", "add"]), JSON_VALUES,
                     st.text(ALPHABET, max_size=6), st.none() | SPLICES)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@FUZZ
@given(blob=encoded(CONFIG))
def test_config_loads_or_is_config_error(scratch, blob):
    path = scratch / "config.json"
    path.write_bytes(blob)
    try:
        cfg = load_config(path)
    except ConfigError:
        return
    assert decode(RunConfig, encode(cfg)) == cfg


@FUZZ
@given(line=encoded(RECORD.to_dict()))
def test_ledger_line_is_a_record_or_skipped(scratch, line):
    path = scratch / "ledger.jsonl"
    path.write_bytes(json.dumps(RECORD.to_dict()).encode() + b"\n" + line
                     + b"\n")
    records, bad_lines = scan_ledger(path)
    assert records[0] == RECORD and 1 not in bad_lines
    assert all(decode(RunRecord, r.to_dict()) == r for r in records)


@FUZZ
@given(meta=encoded(CHECKPOINT.metadata))
def test_checkpoint_metadata_loads_or_is_checkpoint_error(scratch, meta):
    path = scratch / "mutated.ftlb"
    path.write_bytes(b"FTLB" + struct.pack("<II", 1, len(meta)) + meta
                     + TENSOR_BYTES)
    try:
        ckpt = load_checkpoint(path)
    except CheckpointError:
        return
    transfer_init(ckpt, 4, head_seed=0)     # what finetune and sweep do next


@FUZZ
@given(splice=SPLICES)
def test_checkpoint_tensors_load_or_are_checkpoint_error(scratch, splice):
    path = scratch / "mutated.ftlb"
    path.write_bytes(b"FTLB" + struct.pack("<II", 1, len(METADATA_BYTES))
                     + METADATA_BYTES + _splice(TENSOR_BYTES, splice))
    # load_checkpoint checks the tensors once; both readers then take them
    for rebuild in (model_from_checkpoint,
                    lambda ckpt: transfer_init(ckpt, 4, head_seed=0)):
        try:
            rebuild(load_checkpoint(path))
        except CheckpointError:
            pass


@FUZZ
@given(splice=SPLICES)
def test_tensor_file_loads_or_is_format_error(scratch, splice):
    blob = _splice(TENSOR_FILE, splice)
    path = scratch / "mutated.ftt"
    path.write_bytes(blob)
    try:
        arr = binio.load_tensor_file(path)
    except binio.FormatError:
        return
    # magic, rank and dims, then every float32 of the data
    assert len(blob) == 4 + 1 + 4 * arr.ndim + 4 * arr.size
    assert arr.dtype == np.float32


@pytest.mark.parametrize("kind", ["tensor file", "checkpoint"])
def test_every_cut_and_an_extra_byte_is_the_readers_error(scratch, kind):
    """The file cut at each byte offset is truncated, and the file with one
    byte more has trailing bytes: each is the reader's own typed error."""
    path = scratch / "cut"
    if kind == "tensor file":
        blob, load, error = TENSOR_FILE, binio.load_tensor_file, binio.FormatError
    else:
        save_checkpoint(CHECKPOINT, path)
        blob, load, error = path.read_bytes(), load_checkpoint, CheckpointError
    cases = [(blob[:n], "^truncated ") for n in range(len(blob))]
    for cut, message in cases + [(blob + b"\0", "^trailing bytes ")]:
        path.write_bytes(cut)
        with pytest.raises(error, match=message):
            load(path)


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    """A saved dataset's directory and the bytes of its manifest."""
    directory = tmp_path_factory.mktemp("fuzzds")
    save_dataset(gen_synthetic_domain(SyntheticDomainSpec(
        "d", num_labels=2, examples_per_label=4, image_size=4, motif_size=4,
        num_motifs=2)), directory)
    return directory, (directory / "manifest.tsv").read_bytes()


@FUZZ
@given(splice=SPLICES)
def test_manifest_loads_or_names_its_line(dataset, splice):
    directory, original = dataset
    manifest = directory / "manifest.tsv"
    manifest.write_bytes(_splice(original, splice))
    try:
        load_dataset(directory)
    except ValueError as e:
        assert type(e) is ValueError
        assert re.match(re.escape(str(manifest)) + "(:[0-9]+: | lists no)",
                        str(e)), str(e)


# every way one example of a dataset directory can be broken; each one is
# drawn with an example index and a number that picks a byte offset or a
# bad rank, and a flag that picks the first value or the last
DATASET_FAULTS = ("cut", "extra_byte", "bad_magic", "rank", "dims", "nan",
                  "inf", "-inf", "missing", "directory", "nul_in_path",
                  "mixed_shape", "not_utf8", "no_tab")

# no tab, line break or NUL: bytes.splitlines breaks only at \n and \r
LABEL_ALPHABET = "ab_ -\u00e9\u2603\U0001f33c"


@st.composite
def faulty_datasets(draw):
    """(shape, values, label names, indices of examples preceded by a blank
    line, faults): 1-30 examples of rank 1-3, each fault (example, kind,
    number, flag) on its own example."""
    shape = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)))
    n = draw(st.integers(1, 30))
    values = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(
        size=(n,) + shape).astype("<f4")
    labels = draw(st.lists(st.text(LABEL_ALPHABET, min_size=1, max_size=3),
                           min_size=n, max_size=n))
    blanks = draw(st.sets(st.integers(0, n), max_size=3))
    count = draw(st.integers(1, min(2, n)))
    faults = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.sampled_from(DATASET_FAULTS),
                  st.integers(0, 2**16), st.booleans()),
        min_size=count, max_size=count, unique_by=lambda f: f[0]))
    return shape, values, labels, blanks, faults


def _nan_then(kind):
    """Five (2, 3) examples: the second ends in NaN, the fourth has kind."""
    values = np.arange(30, dtype="<f4").reshape(5, 2, 3)
    return ((2, 3), values, ["a", "b"] * 2 + ["a"], {0},
            [(1, "nan", 0, True), (3, kind, 7, False)])


def _write_faulty_dataset(directory, case) -> dict:
    """Write case's dataset; returns each example's manifest line number."""
    shape, values, labels, blanks, faults = case
    os.mkdir(os.path.join(directory, "x"))
    fault = {i: (kind, k, last) for i, kind, k, last in faults}
    lines, linenos = [], {}
    for i, arr in enumerate(values):
        rel = f"x/{i}.ftt"
        kind, k, last = fault.get(i, (None, 0, False))
        if kind in ("nan", "inf", "-inf"):
            arr = arr.copy()
            arr.flat[-1 if last else 0] = float(kind)
        elif kind == "mixed_shape":
            arr = np.zeros(shape[:-1] + (shape[-1] + 1,), "<f4")
        blob = binio.tensor_file_header(arr.shape) + arr.tobytes()
        if kind == "cut":
            blob = blob[:k % len(blob)]
        elif kind == "extra_byte":
            blob += b"\0"
        elif kind == "bad_magic":
            blob = b"FTT1" + blob[4:]
        elif kind == "rank":
            blob = blob[:4] + bytes([binio.MAX_RANK + 1 + k % 200]) + blob[5:]
        elif kind == "dims":
            blob = blob[:5] + struct.pack("<I", shape[0] + 1 + k % 3) + blob[9:]
        path = os.path.join(directory, rel)
        if kind == "directory":
            os.mkdir(path)
        elif kind != "missing":
            with open(path, "wb") as f:
                f.write(blob)
        line = f"{rel}\t{labels[i]}\n".encode()
        if kind == "nul_in_path":
            line = line.replace(b"\t", b"\0\t")
        elif kind == "not_utf8":
            line = line.replace(b"\t", b"\t\xff")
        elif kind == "no_tab":
            line = line.replace(b"\t", b" ")
        lines += [b"\n"] * (i in blanks) + [line]
        linenos[i] = len(lines)
    lines += [b"\n"] * (len(values) in blanks)
    with open(os.path.join(directory, "manifest.tsv"), "wb") as f:
        f.write(b"".join(lines))
    return linenos


@settings(FUZZ, max_examples=150)
@given(case=faulty_datasets())
@example(case=_nan_then("-inf"))
@example(case=_nan_then("cut"))
@example(case=_nan_then("directory"))
@example(case=_nan_then("mixed_shape"))
@example(case=_nan_then("no_tab"))
def test_dataset_loads_as_the_per_file_reference_does(scratch, case):
    """The same dataset, byte for byte, or the same error, which names the
    first broken line in manifest order; a first example of another shape
    than the rest makes the second example's line the broken one."""
    directory = tempfile.mkdtemp(dir=scratch)
    try:
        linenos = _write_faulty_dataset(directory, case)
        error = load_as_reference_does(directory)
    finally:
        shutil.rmtree(directory)
    first, kind, _, _ = min(case[4])
    if kind == "mixed_shape" and first == 0:
        return
    assert error is not None
    assert f"manifest.tsv:{linenos[first]}: " in error, error


def test_deep_nesting_is_each_readers_error(scratch):
    deep = b"[" * 100_000
    (scratch / "deep.json").write_bytes(deep)
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(scratch / "deep.json")
    (scratch / "deep.jsonl").write_bytes(deep + b"\n")
    assert scan_ledger(scratch / "deep.jsonl") == ([], [1])
    (scratch / "deep.ftlb").write_bytes(
        b"FTLB" + struct.pack("<II", 1, len(deep)) + deep)
    with pytest.raises(CheckpointError, match="metadata"):
        load_checkpoint(scratch / "deep.ftlb")

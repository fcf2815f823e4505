"""Shared fixtures: generated dataset directories and a trained source model."""

import hashlib
import json
import os
import struct
import subprocess
import sys
import time

import numpy as np
import pytest

from ftlab import binio, cli, experiment
from ftlab.cli import main
from ftlab.data import MANIFEST_NAME, LabeledDataset, load_dataset


def write_config(path, cfg: dict) -> str:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(cfg, f, indent=2)
    return str(path)


# each one breaks line 2 of a three-line manifest; the fault its error names
BROKEN_DATASET_CASES = {
    "missing_tensor": "No such file or directory",
    "corrupt_tensor": "bad magic b'FTT1'",
    "mixed_shape": "mixed shapes: (1, 4, 5)",
    "nul_in_path": "embedded null byte",
    "not_utf8": "not valid UTF-8",
    "nan_pixel": "data holds NaN or infinity",
    "truncated_tensor": "truncated stream while reading data",
    "trailing_byte": "trailing bytes after tensor data"}


def write_broken_dataset(directory, case: str) -> None:
    """A dataset directory whose second example is broken as case says."""
    (directory / "a").mkdir(parents=True)
    for i in range(3):
        shape = (1, 4, 5) if case == "mixed_shape" and i == 1 else (1, 4, 4)
        binio.save_tensor_file(directory / "a" / f"{i}.ftt",
                               np.zeros(shape, np.float32))
    path = directory / "a" / "1.ftt"
    if case == "missing_tensor":
        path.unlink()
    elif case == "corrupt_tensor":
        path.write_bytes(b"FTT1\x03\x01")
    elif case == "nan_pixel":       # the last of its 16 float32 values
        path.write_bytes(path.read_bytes()[:-4] + struct.pack("<f", np.nan))
    elif case == "truncated_tensor":        # cut inside its last value
        path.write_bytes(path.read_bytes()[:-2])
    elif case == "trailing_byte":
        path.write_bytes(path.read_bytes() + b"\0")
    lines = [f"a/{i}.ftt\ta\n".encode() for i in range(3)]
    if case == "nul_in_path":
        lines[1] = b"a/1.ftt\x00\ta\n"
    elif case == "not_utf8":
        lines[1] = b"a/1.ftt\ta\xff\n"
    (directory / "manifest.tsv").write_bytes(b"".join(lines))


def reference_load_dataset(directory) -> LabeledDataset:
    """The per-file loader that load_dataset replaced, kept as its
    reference: binio.load_tensor_file for each manifest line, then np.stack."""
    manifest = os.path.join(directory, MANIFEST_NAME)
    label_ids: dict[str, int] = {}
    features, labels = [], []
    with open(manifest, "rb") as f:
        raw_lines = f.read().splitlines()
    for lineno, raw in enumerate(raw_lines, 1):
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError:
            raise ValueError(f"{manifest}:{lineno}: "
                             f"{raw.decode('utf-8', 'backslashreplace')}: "
                             f"not valid UTF-8") from None
        if not line:
            continue
        try:
            rel, label_name = line.split("\t")
        except ValueError:
            raise ValueError(f"{manifest}:{lineno}: expected "
                             f"'<path>\\t<label>'") from None
        if label_name not in label_ids:
            label_ids[label_name] = len(label_ids)
        try:
            arr = binio.load_tensor_file(os.path.join(directory, rel))
        except (OSError, ValueError, binio.FormatError) as e:
            raise ValueError(f"{manifest}:{lineno}: {rel}: {e}") from None
        if features and arr.shape != features[0].shape:
            raise ValueError(f"{manifest}:{lineno}: {rel}: mixed shapes: "
                             f"{arr.shape}, the first example has "
                             f"{features[0].shape}")
        features.append(arr)
        labels.append(label_ids[label_name])
    if not features:
        raise ValueError(f"{manifest} lists no examples")
    return LabeledDataset(np.stack(features), np.array(labels),
                          tuple(label_ids),
                          os.path.basename(os.path.normpath(directory)))


def load_as_reference_does(directory) -> str | None:
    """Load directory with load_dataset and with reference_load_dataset, and
    require the same dataset, byte for byte, or the same ValueError text.
    Returns that text, or None when both loaded."""
    def outcome(load):
        try:
            ds = load(directory)
        except ValueError as e:
            return type(e), str(e)
        return (ds.features.dtype, ds.features.shape, ds.features.tobytes(),
                ds.labels.tobytes(), ds.label_names, ds.domain_name)

    got = outcome(load_dataset)
    assert got == outcome(reference_load_dataset)
    return got[1] if got[0] is ValueError else None


def run_python(*args: str) -> subprocess.CompletedProcess:
    """Run a fresh interpreter on args with this checkout's ftlab on its
    path; its output is returned as text, and a non-zero exit raises."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, check=True)


def tensor_records(items) -> bytes:
    """(name, array) pairs as a checkpoint's tensor records, in order: each
    one's named_tensor_header, then its data as little-endian float32."""
    return b"".join(binio.named_tensor_header(name, np.shape(arr))
                    + np.asarray(arr, "<f4").tobytes() for name, arr in items)


def die_in_worker(monkeypatch, job_name: str, checkpoint_dir=None,
                  others: int = 0) -> None:
    """Make the job named job_name end its worker process with os._exit(3).

    Forked pool workers inherit the patched runner; never run it serially.
    With checkpoint_dir set, the job first waits until that directory holds
    the checkpoints of `others` other jobs, and then a little longer, so
    that every other job has finished and sent its record back.
    """
    run_job = experiment.run_job

    def dying(inputs, spec):
        if spec.name != job_name:
            return run_job(inputs, spec)
        if checkpoint_dir is not None:
            deadline = time.monotonic() + 60
            while (len(os.listdir(checkpoint_dir)) < others
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            time.sleep(0.5)
        os._exit(3)

    monkeypatch.setattr(experiment, "run_job", dying)


def one_conv_metadata(kernel_size: int) -> dict:
    """Tensor-free checkpoint metadata of a conv-relu-pool net on 1x8x8 input.

    The digest is computed here by the documented formula, not by
    arch_digest, so it matches the arch even where the model rejects it.
    """
    arch = [{"name": "conv1", "layers": [
                {"kind": "conv2d", "out_channels": 2, "kernel_size": kernel_size},
                {"kind": "relu"}, {"kind": "global-average-pool"}]},
            {"name": "fc", "layers": [{"kind": "dense", "out_features": 3}]}]
    layers = [["conv1", "0", "conv2d", [[2, 1, kernel_size, kernel_size], [2]]],
              ["conv1", "1", "relu", []],
              ["conv1", "2", "global-average-pool", []],
              ["fc", "0", "dense", [[2, None], [None]]]]
    payload = json.dumps({"input_shape": [1, 8, 8], "layers": layers},
                         sort_keys=True, separators=(",", ":"))
    return {"arch": arch, "digest": hashlib.sha256(payload.encode()).hexdigest(),
            "input_shape": [1, 8, 8], "iterations": 0, "num_labels": 3,
            "seed": 0}


FAST_POLICY = {"base_lr": 0.01, "step_size": 20, "total_iterations": 40,
               "gamma": 0.1}
TINY_MODEL = {"input_shape": [1, 8, 8], "widths": [2, 3]}


@pytest.fixture(scope="session")
def data_root(tmp_path_factory):
    """Three synthetic domains on disk: a source pool and two targets."""
    root = tmp_path_factory.mktemp("data")
    cfg = {
        "policy": FAST_POLICY,
        "domains": [
            {"name": "srcdom", "num_labels": 3, "examples_per_label": 24,
             "image_size": 8, "motif_size": 4, "num_motifs": 4,
             "relatedness": 1.0, "seed": 1, "family_seed": 5},
            {"name": "near", "num_labels": 3, "examples_per_label": 12,
             "image_size": 8, "motif_size": 4, "num_motifs": 4,
             "relatedness": 0.9, "seed": 2, "family_seed": 5},
            {"name": "far", "num_labels": 3, "examples_per_label": 12,
             "image_size": 8, "motif_size": 4, "num_motifs": 4,
             "relatedness": 0.1, "seed": 3, "family_seed": 5},
        ],
    }
    config = write_config(root / "gen.json", cfg)
    assert main(["gen-data", config, "--out", str(root / "domains")]) == 0
    return root / "domains"


@pytest.fixture(scope="session")
def source_run(tmp_path_factory, data_root):
    """A trained source checkpoint over the srcdom partition protocol."""
    out = tmp_path_factory.mktemp("source")
    cfg = {
        "policy": FAST_POLICY,
        "model": TINY_MODEL,
        "batch_size": 6,
        "seed": 3,
        "data": {"dataset": str(data_root / "srcdom"), "partition_seed": 4},
    }
    config = write_config(out / "train.json", cfg)
    assert main(["train-source", config, "--out", str(out)]) == 0
    return out

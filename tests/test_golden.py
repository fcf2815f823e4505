"""Fixed-seed result bytes, checked against the sha256 digests in golden.json.

The source fixture's checkpoint and ledger, and every file of a small grid
sweep and a small graduated sweep but config.json, are hashed; each sweep
runs at --workers 1 and 2 and must give the same digests at both. Files
hold float32 tensors, which round away a change in the last bits of
training's float64 arithmetic, so the float64 parameters of a small
from-scratch train() are hashed too. A change that alters result bytes on
purpose updates golden.json with the digests that the failure message
prints.
"""

import hashlib
import json
import pathlib

import pytest

from conftest import FAST_POLICY, write_config
from ftlab.cli import CONFIG_COPY_NAME, main
from ftlab.data import load_dataset, split_train_val
from ftlab.model import build_staged_network, mini_staged_spec
from ftlab.optim import LrPolicy, train, uniform_schedule

GOLDEN = pathlib.Path(__file__).with_name("golden.json")


def sweep_cfgs(data_root, source_run) -> dict:
    split = {"train_fraction": 2 / 3, "seed": 5}
    common = {"policy": FAST_POLICY, "batch_size": 6, "seed": 8,
              "source_checkpoint": str(source_run / "source.ftlb")}
    return {
        "grid": dict(common, data={"dataset": str(data_root / "near"),
                                   "split": split},
                     grid={"ll_values": [0.1], "min_il": 0.01}),
        "graduated": dict(common, data={"tasks": [
            {"id": task, "dataset": str(data_root / task), "split": split}
            for task in ("near", "far")]},
            graduated={"inner_multipliers": [0, 2], "head_multiplier": 4,
                       "scales": [0.25, 4.0]}),
    }


def sha256(path: pathlib.Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def sweep_digests(out: pathlib.Path, kind: str) -> dict:
    """kind/<relative path> -> digest of every file of a sweep's output
    directory but its config copy."""
    return {f"{kind}/{p.relative_to(out).as_posix()}": sha256(p)
            for p in sorted(out.rglob("*"))
            if p.is_file() and p.name != CONFIG_COPY_NAME}


def trained_params_digest(data_root) -> str:
    """Digest of the float64 final and best parameters of a small net
    trained from scratch, every stage live, on a split of srcdom. Its
    widths and rate are ones at which the net learns and the last bits
    of every conv's gradients move its result: at TINY_MODEL's widths and
    the fixtures' base_lr of 0.01 it stays at chance."""
    train_set, val_set = split_train_val(load_dataset(data_root / "srcdom"),
                                         2 / 3, 5)
    shape = (1, 8, 8)
    model = build_staged_network(mini_staged_spec((4, 8), shape), shape, 3,
                                 seed=3)
    schedule = uniform_schedule(model.stage_names, model.head_name, 1.0, 1.0)
    result = train(model, train_set, val_set, schedule,
                   LrPolicy(**dict(FAST_POLICY, base_lr=0.05)), 6, seed=3)
    return hashlib.sha256(result.model.params.tobytes()
                          + result.best_model.params.tobytes()).hexdigest()


def test_result_bytes_match_golden(tmp_path, data_root, source_run):
    got = {f"source/{name}": sha256(source_run / name)
           for name in ("source.ftlb", "ledger.jsonl")}
    got["train/params.float64"] = trained_params_digest(data_root)
    mismatches = []
    for kind, cfg in sweep_cfgs(data_root, source_run).items():
        config = write_config(tmp_path / f"{kind}.json", cfg)
        runs = {}
        for workers in (1, 2):
            out = tmp_path / f"{kind}-w{workers}"
            assert main(["sweep", config, "--out", str(out),
                         "--workers", str(workers)]) == 0
            runs[workers] = sweep_digests(out, kind)
        got.update(runs[1])
        mismatches += [f"{name} differs between --workers 1 and 2"
                       for name in sorted(set(runs[1]) | set(runs[2]))
                       if runs[1].get(name) != runs[2].get(name)]
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    mismatches += [f"{name}: new digest {got.get(name, '(missing)')}"
                   for name in sorted(set(want) | set(got))
                   if want.get(name) != got.get(name)]
    if mismatches:
        pytest.fail("\n".join(mismatches) + "\nall digests now:\n"
                    + json.dumps(got, indent=2, sort_keys=True))

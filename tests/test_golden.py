"""Fixed-seed result bytes, checked against the sha256 digests in golden.json.

The source fixture's checkpoint and ledger, and every file of a small grid
sweep and a small graduated sweep but config.json, are hashed; each sweep
runs at --workers 1, 2 and 3 and must give the same digests at each.
Training computes in float32, the precision the files hold. The final and
best float32 parameters of a small from-scratch train() are hashed too, and
those of a head-only and a conv1-frozen train() transferred from it; so are
those of the same net with a residual block in each conv stage, trained
from scratch and transferred with conv1 frozen, the one net that runs
ResidualBlock's backward. A change that alters result bytes on purpose
updates golden.json with the digests that the failure message prints.
"""

import hashlib
import json
import pathlib

import pytest

from conftest import FAST_POLICY, write_config
from ftlab.cli import CONFIG_COPY_NAME, main
from ftlab.data import load_dataset, split_train_val
from ftlab.model import (build_staged_network, checkpoint_from_model,
                         mini_staged_spec, transfer_init)
from ftlab.optim import LrPolicy, MultiplierSchedule, train, uniform_schedule

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


def params_digest(result) -> str:
    """Digest of the float32 final and best parameters of a train() result."""
    return hashlib.sha256(result.model.params.tobytes()
                          + result.best_model.params.tobytes()).hexdigest()


FINETUNE_MULTIPLIERS = {"head_only": {"conv1": 0.0, "conv2": 0.0, "fc": 1.0},
                        "conv1_frozen": {"conv1": 0.0, "conv2": 1.0, "fc": 1.0}}


def trained_params_digests(data_root, residual: bool, finetunes) -> dict:
    """Digests of the float32 parameters of a small net trained from scratch,
    every stage live, on a split of srcdom, and of the nets transferred from
    its checkpoint to a split of near and finetuned with each of finetunes,
    FINETUNE_MULTIPLIERS names; keyed under residual/ for a residual net.
    Its widths and rate are ones at which the net learns and the last bits
    of every conv's gradients move its result: at TINY_MODEL's widths and
    the fixtures' base_lr of 0.01 it stays at chance."""
    train_set, val_set = split_train_val(load_dataset(data_root / "srcdom"),
                                         2 / 3, 5)
    shape = (1, 8, 8)
    model = build_staged_network(mini_staged_spec((4, 8), shape,
                                                  residual=residual),
                                 shape, 3, seed=3)
    key = "residual/" if residual else ""
    schedule = uniform_schedule(model.stage_names, model.head_name, 1.0, 1.0)
    policy = LrPolicy(**dict(FAST_POLICY, base_lr=0.05))
    result = train(model, train_set, val_set, schedule, policy, 6, seed=3)
    digests = {f"{key}train/params.float32": params_digest(result)}
    source = checkpoint_from_model(result.model)
    train_set, val_set = split_train_val(load_dataset(data_root / "near"),
                                         2 / 3, 5)
    for name in finetunes:
        target = transfer_init(source, train_set.num_labels, head_seed=4)
        result = train(target, train_set, val_set,
                       MultiplierSchedule(FINETUNE_MULTIPLIERS[name]),
                       policy, 6, seed=4)
        digests[f"{key}finetune/{name}.params.float32"] = params_digest(result)
    return digests


def test_result_bytes_match_golden(tmp_path, data_root, source_run):
    got = {f"source/{name}": sha256(source_run / name)
           for name in ("source.ftlb", "ledger.jsonl")}
    got.update(trained_params_digests(data_root, False, FINETUNE_MULTIPLIERS))
    got.update(trained_params_digests(data_root, True, ["conv1_frozen"]))
    mismatches = []
    for kind, cfg in sweep_cfgs(data_root, source_run).items():
        config = write_config(tmp_path / f"{kind}.json", cfg)
        runs = {}
        for workers in (1, 2, 3):
            out = tmp_path / f"{kind}-w{workers}"
            assert main(["sweep", config, "--out", str(out),
                         "--workers", str(workers)]) == 0
            runs[workers] = sweep_digests(out, kind)
        got.update(runs[1])
        mismatches += [f"{name} differs between --workers 1 and {workers}"
                       for workers in (2, 3)
                       for name in sorted(set(runs[1]) | set(runs[workers]))
                       if runs[1].get(name) != runs[workers].get(name)]
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    mismatches += [f"{name}: new digest {got.get(name, '(missing)')}"
                   for name in sorted(set(want) | set(got))
                   if want.get(name) != got.get(name)]
    if mismatches:
        pytest.fail("\n".join(mismatches) + "\nall digests now:\n"
                    + json.dumps(got, indent=2, sort_keys=True))

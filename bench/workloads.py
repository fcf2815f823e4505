"""The benchmark's workloads: inputs made from a seed, one round of work, checks.

Each workload has three parts:

- ``setup(seed, directory)`` generates the domains, writes the datasets and,
  where the workload needs one, trains and saves the source checkpoint.
  run.py times it.
- ``load(seed, directory)`` reads those files back in the measuring process
  and returns the workload's context.
- ``run_round(ctx, directory, timed)`` does one fixed unit of work through
  ftlab's public functions or its CLI entry point and returns a ``Round``.
  It makes each call it times through ``timed(fn, *args, **kwargs)``, which
  returns ``(result, wall seconds, reference seconds)``: see measure.py.
  Every round of one run repeats the same inputs, so every round must give
  the same digest.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from dataclasses import dataclass, field

import numpy as np

from ftlab import cli, data, experiment, model, optim

SHAPE = (1, 16, 16)
BATCH = 8


@dataclass
class Round:
    """What one round did, how long its timed parts took, and what it made."""

    units: list[tuple]      # (SGD steps, jobs, wall s, reference s) per timed call
    attempted: int                        # jobs attempted
    failed: int                           # jobs that raised or lost their output
    best_accuracies: list[float]
    digest: str
    errors: list[str] = field(default_factory=list)


def derive(seed: int, *tags) -> int:
    """A 31-bit seed for one input, stable across runs and platforms."""
    digest = hashlib.sha256(repr((seed,) + tags).encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "little") >> 1


def _hash_params(h, m: model.StagedModel) -> None:
    for name, arr in m.named_parameters():
        h.update(name.encode("utf-8"))
        h.update(np.ascontiguousarray(arr).tobytes())


def _hash_files(h, root: str) -> None:
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, root).encode("utf-8"))
            with open(path, "rb") as f:
                h.update(f.read())


# --- the source network -------------------------------------------------------
#
# head_only and sweep finetune from one source checkpoint, as the paper
# finetunes from one pretrained network. It is trained in set-up from a fixed
# domain and fixed seeds, so it is the same for every workload seed: the
# seed draws the target tasks. Training this net from scratch stalls on an
# accuracy plateau for some initial weights and batch orders (measured:
# anywhere from 0.25 to 1.0 over six seeds), which would make every
# finetuning accuracy depend on the seed's luck rather than on the code.

SOURCE_DOMAIN = data.SyntheticDomainSpec(
    "source", num_labels=4, examples_per_label=96, noise=0.1, seed=11,
    family_seed=7)
SOURCE_POLICY = optim.LrPolicy(base_lr=0.02, step_size=300, total_iterations=300)


def _train_source() -> model.Checkpoint:
    ds = data.gen_synthetic_domain(SOURCE_DOMAIN)
    train_set, val_set = data.split_train_val(ds, 0.5, seed=11)
    net = model.build_staged_network(model.mini_staged_spec(), SHAPE,
                                     ds.num_labels, seed=1)
    schedule = optim.uniform_schedule(net.stage_names, net.head_name, 1.0, 1.0)
    result = optim.train(net, train_set, val_set, schedule, SOURCE_POLICY,
                         BATCH, seed=5, eval_every=100)
    return model.checkpoint_from_model(result.best_model,
                                       {"domain": SOURCE_DOMAIN.name})


def _target_domain(seed: int, name: str, examples_per_label: int):
    """A 4-label target with the source family's labels; the seed draws the examples.

    At relatedness 0.9 a few seeds gave targets on which finetuning stalls at
    0.75 accuracy, and the mean best accuracy of a sweep spread by 23% over
    five seeds; at 1.0 it spread by 2.5% over six.
    """
    return data.gen_synthetic_domain(data.SyntheticDomainSpec(
        name, num_labels=4, examples_per_label=examples_per_label, noise=0.25,
        relatedness=1.0, seed=derive(seed, name), family_seed=7))


# --- source_train ---------------------------------------------------------------
#
# From-scratch training of the default 5-stage 16x16 net at batch 8 with every
# multiplier non-zero and evaluation sparse: conv forward and backward at the
# training batch carry the time. No stage is frozen and no job runner is used.
# The task's label structure and the initial weights are fixed for the reason
# given above the source network; the seed draws the examples, the split and
# the batch order.

SOURCE_TRAIN_POLICY = optim.LrPolicy(base_lr=0.02, step_size=300,
                                     total_iterations=300)
SOURCE_TRAIN_EVAL_EVERY = 100


def _scratch_task(seed: int):
    ds = data.gen_synthetic_domain(data.SyntheticDomainSpec(
        "scratch", num_labels=2, examples_per_label=96, noise=0.1,
        seed=derive(seed, "scratch"), family_seed=7))
    return data.split_train_val(ds, 0.5, derive(seed, "split"))


def setup_source_train(seed: int, directory: str) -> None:
    # Generation only. Writing these 192 examples would make set-up time
    # mostly file creation, which varied fourfold from minute to minute here.
    _scratch_task(seed)


def load_source_train(seed: int, directory: str) -> dict:
    train_set, val_set = _scratch_task(seed)
    return {"seed": seed, "train": train_set, "val": val_set}


def round_source_train(ctx: dict, directory: str, timed) -> Round:
    net = model.build_staged_network(model.mini_staged_spec(), SHAPE,
                                     ctx["train"].num_labels, seed=1)
    schedule = optim.uniform_schedule(net.stage_names, net.head_name, 1.0, 1.0)
    result, seconds, ref = timed(
        optim.train, net, ctx["train"], ctx["val"], schedule, SOURCE_TRAIN_POLICY,
        BATCH, derive(ctx["seed"], "order"), eval_every=SOURCE_TRAIN_EVAL_EVERY)
    h = hashlib.sha256()
    _hash_params(h, result.model)
    _hash_params(h, result.best_model)
    h.update(repr((result.trace, result.best_iteration)).encode("utf-8"))
    return Round(units=[(SOURCE_TRAIN_POLICY.total_iterations, 1, seconds, ref)],
                 attempted=1, failed=0, best_accuracies=[result.best_accuracy],
                 digest=h.hexdigest())


# --- head_only ------------------------------------------------------------------
#
# The paper's gain table: head-only finetuning (inner stages frozen) at a few
# last-layer rates, each saving its best checkpoint. The validation set is
# large and evaluated often, so evaluate() at chunk 256 carries a large share
# of each job. Frozen-prefix elision and prefix caching act here, and so does
# any conv change that favours one batch size over the other.

HEAD_ONLY_LLS = (0.03, 0.06, 0.1)
HEAD_ONLY_POLICY = optim.LrPolicy(base_lr=0.01, step_size=50, total_iterations=100)


def setup_head_only(seed: int, directory: str) -> None:
    model.save_checkpoint(_train_source(), os.path.join(directory, "source.ftlb"))
    ds = _target_domain(seed, "target", examples_per_label=160)
    train_set, val_set = data.split_train_val(ds, 0.2, derive(seed, "split"))
    data.save_dataset(train_set, os.path.join(directory, "train"))
    data.save_dataset(val_set, os.path.join(directory, "val"))


def load_head_only(seed: int, directory: str) -> dict:
    task = experiment.FinetuneTask(
        "target", data.load_dataset(os.path.join(directory, "train")),
        data.load_dataset(os.path.join(directory, "val")))
    return {"seed": seed, "task": task,
            "source": model.load_checkpoint(os.path.join(directory, "source.ftlb"))}


def frozen_tensor_errors(source: model.Checkpoint, path: str) -> list[str]:
    """Names of inner-stage tensors in ``path`` that differ from the source's."""
    saved = model.load_checkpoint(path)
    head = source.metadata["arch"][-1]["name"]
    errors = []
    for name, arr in source.tensors.items():
        if name.startswith(head + "/"):
            continue
        got = saved.tensors.get(name)
        if got is None or got.shape != arr.shape or got.tobytes() != arr.tobytes():
            errors.append(f"{os.path.basename(path)}: frozen tensor {name} changed")
    return errors


def round_head_only(ctx: dict, directory: str, timed) -> Round:
    out = os.path.join(directory, "jobs")
    os.makedirs(out, exist_ok=True)
    h = hashlib.sha256()
    units, accs, errors = [], [], []
    failed = 0
    for ll in HEAD_ONLY_LLS:
        path = os.path.join(out, f"ll{ll:g}.ftlb")
        try:
            rec, seconds, ref = timed(
                experiment.run_ll_experiment, ctx["source"], ctx["task"], ll,
                HEAD_ONLY_POLICY, BATCH, derive(ctx["seed"], "job"),
                save_path=path, checkpoint_ref=os.path.basename(path))
        except Exception as e:  # noqa: BLE001 - a failed job is counted, not fatal
            failed += 1
            errors.append(f"ll={ll:g}: {type(e).__name__}: {e}")
            continue
        units.append((HEAD_ONLY_POLICY.total_iterations, 1, seconds, ref))
        accs.append(rec.best_accuracy)
        problems = frozen_tensor_errors(ctx["source"], path)
        if problems:
            failed += 1
            errors.extend(problems)
        h.update(json.dumps(rec.to_dict(), sort_keys=True).encode("utf-8"))
        with open(path, "rb") as f:
            h.update(f.read())
    shutil.rmtree(out)
    return Round(units=units, attempted=len(HEAD_ONLY_LLS), failed=failed,
                 best_accuracies=accs, digest=h.hexdigest(), errors=errors)


# --- sweep ----------------------------------------------------------------------
#
# The only workload that goes through the job runner, its thread pool, the
# per-job checkpoint writes, the ledger and the report: `ftlab sweep` at
# --workers 2, once over a small IL x LL grid and once over a small graduated
# sweep (2 tasks x 3 scales plus one baseline per task). It reads the
# datasets and the source checkpoint from disk on every call.

SWEEP_WORKERS = 2
SWEEP_POLICY = {"base_lr": 0.005, "step_size": 30, "total_iterations": 30,
                "gamma": 0.1}
SWEEP_GRID = {"ll_values": [0.01, 0.1], "min_il": 0.01}
SWEEP_GRADUATED = {"inner_multipliers": [0.0, 1.0, 2.0, 4.0, 8.0],
                   "head_multiplier": 16.0, "scales": [0.5, 1.0, 2.0]}
SWEEP_TASKS = ("t1", "t2")


# Jobs each sweep must record. The grid runs IL = 0 and every power of 10
# from min_il up to LL: {0, 0.01} at LL 0.01 and {0, 0.01, 0.1} at LL 0.1.
# The graduated sweep runs every task at every scale plus one baseline each.
EXPECTED_SWEEP_JOBS = {"grid": 5, "graduated": 2 * (3 + 1)}


def setup_sweep(seed: int, directory: str) -> None:
    source_path = os.path.join(directory, "source.ftlb")
    model.save_checkpoint(_train_source(), source_path)
    tasks = []
    for task_id in SWEEP_TASKS:
        dest = os.path.join(directory, "datasets", task_id)
        data.save_dataset(_target_domain(seed, task_id, examples_per_label=100), dest)
        tasks.append({"id": task_id, "dataset": dest,
                      "partition_seed": derive(seed, task_id, "partition")})
    common = {"policy": SWEEP_POLICY, "batch_size": BATCH,
              "seed": derive(seed, "sweep"), "workers": SWEEP_WORKERS,
              "source_checkpoint": source_path}
    configs = {
        "grid": dict(common, grid=SWEEP_GRID,
                     data={k: v for k, v in tasks[0].items() if k != "id"}),
        "graduated": dict(common, graduated=SWEEP_GRADUATED,
                          data={"tasks": tasks}),
    }
    for name, cfg in configs.items():
        with open(os.path.join(directory, f"{name}.json"), "w",
                  encoding="utf-8") as f:
            json.dump(cfg, f, indent=2, sort_keys=True)


def load_sweep(seed: int, directory: str) -> dict:
    return {"inputs": directory}


def _check_sweep_output(out: str, expected: int) -> tuple[list[float], list[str]]:
    errors = []
    try:
        records, skipped = experiment.read_ledger(os.path.join(out, cli.LEDGER_NAME))
    except OSError as e:
        return [], [f"{out}: ledger: {e}"]
    if skipped or len(records) != expected:
        errors.append(f"{out}: ledger holds {len(records)} records "
                      f"({skipped} unreadable), expected {expected}")
    try:
        with open(os.path.join(out, "report.json"), encoding="utf-8") as f:
            json.load(f)
    except (OSError, ValueError) as e:
        errors.append(f"{out}: report.json: {e}")
    return [r.best_accuracy for r in records], errors


def round_sweep(ctx: dict, directory: str, timed) -> Round:
    # The ledger is append-only, so each round writes into a fresh directory.
    out_root = os.path.join(directory, "sweep")
    h = hashlib.sha256()
    units, accs, errors = [], [], []
    failed = 0
    for name, expected in EXPECTED_SWEEP_JOBS.items():
        out = os.path.join(out_root, name)
        argv = ["sweep", os.path.join(ctx["inputs"], f"{name}.json"), "--out", out,
                "--workers", str(SWEEP_WORKERS)]
        code, seconds, ref = timed(cli.main, argv)
        got, problems = _check_sweep_output(out, expected)
        if code != 0:
            problems.append(f"ftlab sweep {name}.json exited {code}")
        failed += max(0, expected - len(got))
        units.append((len(got) * SWEEP_POLICY["total_iterations"], len(got),
                      seconds, ref))
        accs.extend(got)
        errors.extend(problems)
        _hash_files(h, out)
    shutil.rmtree(out_root)
    return Round(units=units, attempted=sum(EXPECTED_SWEEP_JOBS.values()),
                 failed=failed, best_accuracies=accs, digest=h.hexdigest(),
                 errors=errors)


# Threads each workload computes on; the rest use one.
THREADS = {"sweep": SWEEP_WORKERS}

WORKLOADS = {
    "source_train": (setup_source_train, load_source_train, round_source_train),
    "head_only": (setup_head_only, load_head_only, round_head_only),
    "sweep": (setup_sweep, load_sweep, round_sweep),
}

"""Command-line front end: reproducible runs driven by JSON config files.

Subcommands: gen-data, train-source, finetune, sweep, report, grad-check.
Every run writes its effective config next to the results ledger so any
number in a report can be traced back to the exact inputs. Exit codes:
0 success, 1 validation error, 2 partial sweep failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from .codec import DecodeError, check, decode, encode
from .data import (SyntheticDomainSpec, gen_synthetic_domain, load_dataset,
                   partition_domain, save_dataset, split_train_val)
from .experiment import (FinetuneTask, GraduatedSpec, GridSpec, JobInputs,
                         JobSpec, RunRecord, append_records,
                         derive_seed, graduated_schedule, grid_jobs,
                         rate_schedule, render_report, report_from_records,
                         run_job, run_jobs, scale_jobs, scan_ledger)
from .model import (Checkpoint, CheckpointError, build_staged_network,
                    checkpoint_from_model, layer_shapes, load_checkpoint,
                    mini_staged_spec, save_checkpoint)
from .nn_core import grad_check
from .optim import (LrPolicy, MultiplierSchedule, train, uniform_schedule)

LEDGER_NAME = "ledger.jsonl"
CONFIG_COPY_NAME = "config.json"


# every problem found in a config, each prefixed with its path
ConfigError = DecodeError


@dataclass(frozen=True)
class ModelConfig:
    """Mini staged-net settings (stage widths plus head).

    Settings that do not give a valid net are rejected when it is made.
    """

    input_shape: tuple[int, ...] = (1, 16, 16)
    widths: tuple[int, ...] = (4, 4, 8, 8, 8)
    kernel_size: int = 3
    residual: bool = False
    pools: tuple[bool, ...] | None = None
    head_name: str = "fc"

    def __post_init__(self):
        layer_shapes(self.build_spec(), self.input_shape)

    def build_spec(self):
        return mini_staged_spec(widths=self.widths, input_shape=self.input_shape,
                                kernel_size=self.kernel_size,
                                residual=self.residual, head_name=self.head_name,
                                pools=self.pools)


# the net that grad-check checks when it is given no config
GRAD_CHECK_MODEL = ModelConfig(input_shape=(1, 8, 8), widths=(2, 3))


def _positive(n) -> bool:
    return n is None or n >= 1


def _non_negative(n) -> bool:
    return n >= 0


SEED_RULE = "must be a non-negative integer"    # the seed of every command


@dataclass(frozen=True)
class SplitConfig:
    train_fraction: float
    seed: int


@dataclass(frozen=True)
class TaskData:
    """One task's data, in one of the TASK_FORMS."""

    dataset: str | None = None
    partition_seed: int | None = None
    split: SplitConfig | None = None
    train_dir: str | None = None
    val_dir: str | None = None


TASK_FORMS = ({"dataset", "partition_seed"}, {"dataset", "split"},
              {"train_dir", "val_dir"})


@dataclass(frozen=True)
class TaskEntry(TaskData):
    id: str | None = None           # the task id; default: its domain name


@dataclass(frozen=True)
class DataConfig(TaskData):
    tasks: tuple[TaskEntry, ...] | None = None    # a graduated sweep's tasks


@dataclass(frozen=True)
class ScheduleConfig:
    """A finetune schedule in one of the SCHEDULE_FORMS."""

    stage_multipliers: dict[str, float] | None = None
    ll: float | None = None         # rates: the multipliers are derived
    il: float | None = None
    graduated_scale: float | None = None    # uses the graduated section
    scale: float | None = None


# each schedule form, and the fields that may go with it
SCHEDULE_FORMS = {"stage_multipliers": {"scale"}, "ll": {"il", "scale"},
                  "graduated_scale": set()}


def _set_fields(section) -> set[str]:
    return {name for name, value in vars(section).items() if value is not None}


@dataclass(frozen=True)
class RunConfig:
    """Everything that determines a run; serialized next to every ledger.

    Read with codec.decode and written with codec.encode, so config.json
    holds every field, defaults and nulls included, with the values as given.
    """

    policy: LrPolicy
    model: ModelConfig = ModelConfig()
    # no default batch size: the training method never states one, so
    # commands that train require it explicitly
    batch_size: int | None = field(
        default=None, metadata=check(_positive, "must be a positive integer"))
    momentum: float = field(
        default=0.9, metadata=check(lambda m: 0 <= m < 1, "must be in [0, 1)"))
    seed: int = field(default=0, metadata=check(_non_negative, SEED_RULE))
    workers: int = field(
        default=1, metadata=check(_positive, "must be a positive integer"))
    data: DataConfig = DataConfig()
    schedule: ScheduleConfig | None = None
    grid: GridSpec | None = None
    graduated: GraduatedSpec | None = None
    baseline_ll_multiplier: float = 10.0
    source_checkpoint: str | None = None
    domains: tuple[SyntheticDomainSpec, ...] | None = None


def load_config(path, seed_override=None, workers_override=None) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as f:
            raw = json.load(f)
    except OSError as e:
        raise ConfigError([f"cannot read config: {e}"]) from None
    except (ValueError, RecursionError) as e:
        raise ConfigError([f"config is not valid JSON: {e}"]) from None
    if not isinstance(raw, dict):
        raise ConfigError([f"config must be a JSON object, got "
                           f"{type(raw).__name__}"])
    # overrides go through the same validation as the fields they replace
    if seed_override is not None:
        raw["seed"] = seed_override
    if workers_override is not None:
        raw["workers"] = workers_override
    return decode(RunConfig, raw)


def _write_config_copy(cfg: RunConfig, out_dir) -> None:
    path = os.path.join(out_dir, CONFIG_COPY_NAME)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(encode(cfg), f, indent=2, sort_keys=True)
        f.write("\n")


def _resolve_task(entry: TaskData, role: str, errors: list[str],
                  task_id: str | None = None) -> FinetuneTask | None:
    """Build a task from one data entry.

    Three forms: dataset+partition_seed (the role's partitions: the source
    or the transfer target, each with its validation partition),
    dataset+split (stratified train/val split), or train_dir+val_dir.
    """
    given = _set_fields(entry) - {"id"}
    if given not in TASK_FORMS:
        errors.append(f"data entry needs dataset+partition_seed, dataset+split, "
                      f"or train_dir+val_dir; got fields {sorted(given)}")
        return None
    try:
        if entry.train_dir is not None:
            train_ds = load_dataset(entry.train_dir)
            return FinetuneTask(task_id or train_ds.domain_name, train_ds,
                                load_dataset(entry.val_dir))
        ds = load_dataset(entry.dataset)
        if entry.split is not None:
            sets = split_train_val(ds, entry.split.train_fraction,
                                   entry.split.seed)
        else:
            part = partition_domain(ds, entry.partition_seed)
            sets = ((part.source_train, part.val_source) if role == "source"
                    else (part.target, part.val_target))
        return FinetuneTask(task_id or ds.domain_name, *sets)
    except (OSError, ValueError) as e:
        errors.append(f"data ({role}): {e}")
        return None


def _resolve_schedule(cfg: RunConfig, stage_names,
                      errors: list[str]) -> dict | None:
    """The schedule section for a net of these stages, the last one its head:
    the finetune job's schedule, and the kind, ll, il and scale it records."""
    s = cfg.schedule
    given = _set_fields(s) if s else set()
    if not any(form in given and given <= {form} | extra
               for form, extra in SCHEDULE_FORMS.items()):
        errors.append(f"schedule needs one of stage_multipliers (+scale), ll "
                      f"(+il, +scale) or graduated_scale; got {sorted(given)}")
        return None
    scale = 1.0 if s.scale is None else s.scale
    *inner, head = stage_names
    try:
        if s.ll is not None:
            il = 0.0 if s.il is None else s.il
            job = dict(kind="grid" if il else "ll", ll=s.ll, il=il, scale=s.scale,
                       schedule=rate_schedule(stage_names, cfg.policy, s.ll,
                                              il, scale))
        elif s.stage_multipliers is not None:
            job = dict(kind="custom", scale=s.scale, schedule=MultiplierSchedule(
                dict(s.stage_multipliers), scale))
        elif cfg.graduated is None:
            raise ValueError("graduated_scale needs a 'graduated' section")
        else:
            job = dict(kind="graduated", scale=s.graduated_scale, schedule=(
                graduated_schedule(cfg.graduated, s.graduated_scale, inner, head)))
        job["schedule"].check_covers(stage_names)
    except ValueError as e:
        errors.append(f"schedule: {e}")
        return None
    return job


def _check_tasks(tasks, input_shape, batch_size, errors: list[str]) -> None:
    """Add an error for each task whose examples do not fit the model input,
    or whose training set is smaller than one batch."""
    for task in tasks:
        found = ({task.train.example_shape, task.val.example_shape}
                 - {input_shape})
        if found:
            errors.append(f"data ({task.task_id}): examples of shape "
                          f"{sorted(found)[0]} do not fit the model input "
                          f"shape {input_shape}")
        if batch_size is not None and batch_size > len(task.train):
            errors.append(f"data ({task.task_id}): batch_size {batch_size} "
                          f"exceeds the {len(task.train)} training examples")


def _load_source(cfg: RunConfig, errors: list[str]) -> Checkpoint | None:
    """The config's source checkpoint, digest checked; None, with the problem
    added to errors, if it cannot be used."""
    if not cfg.source_checkpoint:
        errors.append("config needs 'source_checkpoint'")
        return None
    try:
        return load_checkpoint(cfg.source_checkpoint)
    except (OSError, CheckpointError) as e:
        errors.append(f"source checkpoint: {e}")
        return None


def _fail(errors) -> int:
    for e in errors:
        print(f"error: {e}", file=sys.stderr)
    return 1


# --- commands ------------------------------------------------------------------

def cmd_gen_data(cfg: RunConfig, out_dir) -> int:
    if not cfg.domains:
        return _fail(["config needs a 'domains' list"])
    os.makedirs(out_dir, exist_ok=True)
    _write_config_copy(cfg, out_dir)
    for spec in cfg.domains:
        ds = gen_synthetic_domain(spec)
        dest = os.path.join(out_dir, spec.name)
        save_dataset(ds, dest)
        print(f"wrote {len(ds)} examples ({ds.num_labels} labels) to {dest}")
    return 0


def cmd_train_source(cfg: RunConfig, out_dir) -> int:
    errors: list[str] = []
    if cfg.batch_size is None:
        errors.append("batch_size is required")
    task = _resolve_task(cfg.data, "source", errors)
    if task:
        _check_tasks([task], cfg.model.input_shape, cfg.batch_size, errors)
    if errors:
        return _fail(errors)
    os.makedirs(out_dir, exist_ok=True)
    _write_config_copy(cfg, out_dir)
    model = build_staged_network(cfg.model.build_spec(), cfg.model.input_shape,
                                 task.train.num_labels, cfg.seed)
    schedule = uniform_schedule(model.stage_names, model.head_name,
                                inner=1.0, head=1.0)
    result = train(model, task.train, task.val, schedule, cfg.policy,
                   cfg.batch_size, seed=derive_seed(cfg.seed, "source-data"),
                   momentum=cfg.momentum)
    ckpt = checkpoint_from_model(result.best_model, {"domain": task.task_id})
    ckpt_rel = "source.ftlb"
    save_checkpoint(ckpt, os.path.join(out_dir, ckpt_rel))
    record = RunRecord(kind="source", task=task.task_id, source="random-init",
                       seed=cfg.seed, final_accuracy=result.final_accuracy,
                       best_accuracy=result.best_accuracy, checkpoint=ckpt_rel)
    append_records(os.path.join(out_dir, LEDGER_NAME), [record])
    print(f"source checkpoint: {os.path.join(out_dir, ckpt_rel)}")
    print(f"best val accuracy: {result.best_accuracy:.4f} "
          f"(iteration {result.best_iteration})")
    return 0


def cmd_finetune(cfg: RunConfig, out_dir) -> int:
    errors: list[str] = []
    if cfg.batch_size is None:
        errors.append("batch_size is required")
    source = _load_source(cfg, errors)
    task = _resolve_task(cfg.data, "target", errors)
    if source:
        job = _resolve_schedule(cfg, source.stage_names, errors)
        if task:
            _check_tasks([task], source.header.input_shape, cfg.batch_size,
                         errors)
    if errors:
        return _fail(errors)
    os.makedirs(out_dir, exist_ok=True)
    _write_config_copy(cfg, out_dir)
    ckpt_rel = f"finetuned_{task.task_id}.ftlb"
    ckpt_path = os.path.join(out_dir, ckpt_rel)
    try:
        record = run_job(JobInputs(source, {task.task_id: task}, cfg.policy,
                                   cfg.batch_size, cfg.momentum), JobSpec(
            name=task.task_id, task_id=task.task_id, seed=cfg.seed,
            seed_parts=(cfg.seed,), save_path=ckpt_path, checkpoint=ckpt_rel,
            **job))
    except (ValueError, CheckpointError) as e:
        return _fail([str(e)])
    append_records(os.path.join(out_dir, LEDGER_NAME), [record])
    print(f"finetuned checkpoint: {ckpt_path}")
    # the saved best model's iteration count is the iteration it was taken at
    print(f"best val accuracy: {record.best_accuracy:.4f} "
          f"(iteration {load_checkpoint(ckpt_path).header.iterations})")
    return 0


def cmd_sweep(cfg: RunConfig, out_dir) -> int:
    errors: list[str] = []
    ledger = os.path.join(out_dir, LEDGER_NAME)
    if os.path.exists(ledger):
        errors.append(f"{ledger} already exists: sweep into a new directory")
    if cfg.batch_size is None:
        errors.append("batch_size is required")
    if (cfg.grid is None) == (cfg.graduated is None):
        errors.append("sweep config needs exactly one of 'grid' or 'graduated'")
    source = _load_source(cfg, errors)
    tasks: list = []
    if cfg.grid is not None:
        tasks = [_resolve_task(cfg.data, "target", errors)]
    elif cfg.graduated is not None:
        if not cfg.data.tasks or _set_fields(cfg.data) != {"tasks"}:
            errors.append(f"graduated sweep needs data.tasks and no other data "
                          f"field; got fields {sorted(_set_fields(cfg.data))}")
        else:
            tasks = [_resolve_task(entry, "target", errors, entry.id)
                     for entry in cfg.data.tasks]
    tasks = [t for t in tasks if t]
    if source and tasks:
        _check_tasks(tasks, source.header.input_shape, cfg.batch_size, errors)
        # every job, and so every schedule, is built before anything is written
        try:
            specs = (grid_jobs(source, tasks[0].task_id, cfg.grid, cfg.policy,
                               cfg.seed) if cfg.grid is not None else
                     scale_jobs(source, [t.task_id for t in tasks],
                                cfg.graduated, cfg.seed,
                                cfg.baseline_ll_multiplier, out_dir))
        except ValueError as e:
            errors.append(f"sweep: {e}")
    if errors:
        return _fail(errors)

    os.makedirs(out_dir, exist_ok=True)
    _write_config_copy(cfg, out_dir)
    if cfg.graduated is not None:
        os.makedirs(os.path.join(out_dir, "checkpoints"), exist_ok=True)
    records, failures = run_jobs(
        JobInputs(source, {t.task_id: t for t in tasks}, cfg.policy,
                  cfg.batch_size, cfg.momentum), specs, cfg.workers)
    append_records(ledger, records)
    _write_report(report_from_records(records), "partial" if failures
                  else "complete", out_dir)
    print(f"{len(records)} jobs recorded in {ledger}")
    if failures:
        for f_ in failures:
            print(f"failed job {f_.job}: {f_.error}", file=sys.stderr)
        print(f"sweep partial: {len(failures)} job(s) failed", file=sys.stderr)
        return 2
    return 0


def _write_report(report: dict, status: str, out_dir) -> None:
    with open(os.path.join(out_dir, "report.txt"), "w", encoding="utf-8") as f:
        f.write(render_report(report, status=status))
    with open(os.path.join(out_dir, "report.json"), "w", encoding="utf-8") as f:
        json.dump(report, f, indent=2, sort_keys=True)
        f.write("\n")


def cmd_report(ledger_path, out_dir=None) -> int:
    try:
        records, bad_lines = scan_ledger(ledger_path)
    except OSError as e:
        return _fail([f"cannot read ledger: {e}"])
    skipped = len(bad_lines)
    if skipped:
        print(f"warning: {ledger_path}: skipped {skipped} corrupt record(s) "
              f"at line(s) {', '.join(map(str, bad_lines))}", file=sys.stderr)
    report = report_from_records(records)
    status = ("complete" if not skipped
              else f"complete ({skipped} records skipped)")
    print(render_report(report, status=status), end="")
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        _write_report(report, status, out_dir)
    return 0


def cmd_grad_check(model_cfg: ModelConfig, seed: int, epsilon: float,
                   out_dir=None) -> int:
    model = build_staged_network(model_cfg.build_spec(), model_cfg.input_shape,
                                 num_labels=3, seed=seed)
    rng = np.random.default_rng(derive_seed(seed, "grad-check"))
    batch = rng.uniform(-1.0, 1.0, size=(4,) + model_cfg.input_shape)
    labels = np.arange(4) % 3
    err = grad_check(model.stages, batch, labels, epsilon=epsilon)
    lines = [f"parameters: {model.param_count()}",
             f"max relative gradient error: {err:.3e} (epsilon {epsilon:g})"]
    ok = err < 1e-4
    lines.append("gradient check passed (< 1e-4)" if ok
                 else "gradient check FAILED (>= 1e-4)")
    print("\n".join(lines))
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "grad_check.txt"), "w",
                  encoding="utf-8") as f:
            f.write("\n".join(lines) + "\n")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ftlab",
        description="Layer-wise learning-rate finetuning experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, out_required=True):
        p.add_argument("--out", required=out_required,
                       default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--workers", type=int, default=None,
                       help="override the config worker count: processes "
                            "that run sweep jobs (other commands ignore it)")

    for name, help_text in (("gen-data", "generate synthetic domains"),
                            ("train-source", "train a source model"),
                            ("finetune", "finetune from a checkpoint"),
                            ("sweep", "run a grid or scale sweep")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("config", help="JSON config file")
        add_common(p)

    p_report = sub.add_parser("report", help="render tables from a ledger")
    p_report.add_argument("ledger", help="ledger.jsonl path")
    add_common(p_report, out_required=False)

    p_gc = sub.add_parser("grad-check", help="finite-difference gradient check")
    p_gc.add_argument("config", nargs="?", default=None)
    p_gc.add_argument("--epsilon", type=float, default=1e-5)
    add_common(p_gc, out_required=False)

    args = parser.parse_args(argv)

    try:
        if args.command == "report":
            return cmd_report(args.ledger, args.out)
        if args.command == "grad-check":
            if args.config:
                cfg = load_config(args.config, seed_override=args.seed)
                return cmd_grad_check(cfg.model, cfg.seed, args.epsilon,
                                      args.out)
            if args.seed is not None and not _non_negative(args.seed):
                return _fail([f"seed {SEED_RULE}, got {args.seed}"])
            return cmd_grad_check(GRAD_CHECK_MODEL, args.seed or 0,
                                  args.epsilon, args.out)
        cfg = load_config(args.config, seed_override=args.seed,
                          workers_override=args.workers)
        if args.command == "gen-data":
            return cmd_gen_data(cfg, args.out)
        if args.command == "train-source":
            return cmd_train_source(cfg, args.out)
        if args.command == "finetune":
            return cmd_finetune(cfg, args.out)
        if args.command == "sweep":
            return cmd_sweep(cfg, args.out)
    except ConfigError as e:
        return _fail(e.errors)
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())

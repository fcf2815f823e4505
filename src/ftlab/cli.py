"""Command-line front end: reproducible runs driven by JSON config files.

Subcommands: gen-data, train-source, finetune, sweep, report, grad-check.
The three training commands each build a job list and end in one tail: it
writes the effective config, runs the jobs with run_jobs and records them
in the ledger, so any number in a report traces back to the exact inputs.
Exit codes: 0 success, 1 validation error, diverged training or an output
file that cannot be written, 2 partial sweep failure or a usage error (an
unknown command or flag).
main also sets the process's malloc policy (keep_freed_heap); importing
the package sets nothing.
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
                         JobSpec, append_records, derive_seed,
                         graduated_schedule, grid_jobs, rate_schedule,
                         render_report, report_from_records, run_jobs,
                         scale_jobs, scan_ledger, transfer_seeds)
from .model import (Checkpoint, CheckpointError, build_staged_network,
                    layer_shapes, load_checkpoint, mini_staged_spec)
from .nn_core import grad_check
from .optim import LrPolicy, MultiplierSchedule, uniform_schedule

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
    return n is None or n >= 0


SEED_RULE = "must be a non-negative integer"    # every seed a config gives


@dataclass(frozen=True)
class SplitConfig:
    train_fraction: float
    seed: int = field(metadata=check(_non_negative, SEED_RULE))


@dataclass(frozen=True)
class TaskData:
    """One task's data, in one of the TASK_FORMS."""

    dataset: str | None = None
    partition_seed: int | None = field(
        default=None, metadata=check(_non_negative, SEED_RULE))
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

    # no default policy or batch size: the training method never states
    # one, so the commands that train require them explicitly
    policy: LrPolicy | None = None
    model: ModelConfig = ModelConfig()
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
            if cfg.policy is None:      # _training_errors reports it
                return None
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


def _training_errors(cfg: RunConfig) -> list[str]:
    """A training command's error list, begun with the rules they all keep."""
    return [f"{name} is required" for name in ("policy", "batch_size")
            if getattr(cfg, name) is None]


def _fail(errors) -> int:
    for e in errors:
        print(f"error: {e}", file=sys.stderr)
    return 1


def _make_dirs(*dirs) -> None:
    """Make each output directory; one it cannot make is an input error."""
    try:
        for d in dirs:
            os.makedirs(d, exist_ok=True)
    except OSError as e:
        raise ConfigError([f"cannot create output directory: {e}"]) from None


def _run_and_record(cfg: RunConfig, out_dir, source, tasks, specs,
                    sweep: bool = False) -> int:
    """The tail of every training command: make the run directories, write
    config.json, run the jobs, append their records to the ledger and, for a
    sweep, write its report. A sweep with a failed job exits 2; a one-job
    command whose job fails (a diverged run, say) exits 1 and saves and
    records nothing."""
    _make_dirs(out_dir, *dict.fromkeys(os.path.dirname(s.save_path)
                                       for s in specs if s.save_path))
    _write_config_copy(cfg, out_dir)
    records, failures = run_jobs(
        JobInputs(source, {t.task_id: t for t in tasks}, cfg.policy,
                  cfg.batch_size, cfg.momentum), specs, cfg.workers)
    if failures and not sweep:
        return _fail([failures[0].message or failures[0].error])
    ledger = os.path.join(out_dir, LEDGER_NAME)
    append_records(ledger, records)
    if not sweep:
        kind = "source" if records[0].kind == "source" else "finetuned"
        print(f"{kind} checkpoint: {specs[0].save_path}")
        print(f"best val accuracy: {records[0].best_accuracy:.4f}")
        return 0
    _write_report(report_from_records(records), "partial" if failures
                  else "complete", out_dir)
    print(f"{len(records)} jobs recorded in {ledger}")
    for f_ in failures:
        print(f"failed job {f_.job}: {f_.error}", file=sys.stderr)
    if failures:
        print(f"sweep partial: {len(failures)} job(s) failed", file=sys.stderr)
    return 2 if failures else 0


# --- commands ------------------------------------------------------------------

def cmd_gen_data(cfg: RunConfig, out_dir) -> int:
    if not cfg.domains:
        return _fail(["config needs a 'domains' list"])
    names = [spec.name for spec in cfg.domains]
    errors = [f"domains[{j}]: name {name!r} is already the name of "
              f"domains[{names.index(name)}]"
              for j, name in enumerate(names) if names.index(name) < j]
    # save_dataset would merge a domain into the files already there
    errors += [f"gen-data: {dest} already exists: gen-data into a new "
               f"directory" for dest in dict.fromkeys(
                   os.path.join(out_dir, name) for name in names)
               if os.path.exists(dest)]
    if errors:
        return _fail(errors)
    _make_dirs(out_dir)
    _write_config_copy(cfg, out_dir)
    for spec in cfg.domains:
        ds = gen_synthetic_domain(spec)
        dest = os.path.join(out_dir, spec.name)
        save_dataset(ds, dest)
        print(f"wrote {len(ds)} examples ({ds.num_labels} labels) to {dest}")
    return 0


def cmd_train_source(cfg: RunConfig, out_dir) -> int:
    errors = _training_errors(cfg)
    task = _resolve_task(cfg.data, "source", errors)
    if task:
        _check_tasks([task], cfg.model.input_shape, cfg.batch_size, errors)
    if errors:
        return _fail(errors)
    # a random init drawn from the seed, every stage trained at the base rate
    spec = cfg.model.build_spec()
    names = [stage.name for stage in spec]
    job = JobSpec("source", task.task_id, task.task_id,
                  uniform_schedule(names, names[-1], 1.0, 1.0), cfg.seed,
                  derive_seed(cfg.seed, "source-data"), cfg.seed,
                  save_path=os.path.join(out_dir, "source.ftlb"),
                  checkpoint="source.ftlb")
    return _run_and_record(cfg, out_dir, (spec, cfg.model.input_shape), [task],
                           [job])


def cmd_finetune(cfg: RunConfig, out_dir) -> int:
    errors = _training_errors(cfg)
    source = _load_source(cfg, errors)
    task = _resolve_task(cfg.data, "target", errors)
    if source:
        job = _resolve_schedule(cfg, source.stage_names, errors)
        if task:
            _check_tasks([task], source.header.input_shape, cfg.batch_size,
                         errors)
    if errors:
        return _fail(errors)
    ckpt_rel = f"finetuned_{task.task_id}.ftlb"
    return _run_and_record(cfg, out_dir, source, [task], [JobSpec(
        name=task.task_id, task_id=task.task_id, seed=cfg.seed,
        **transfer_seeds(cfg.seed), save_path=os.path.join(out_dir, ckpt_rel),
        checkpoint=ckpt_rel, **job)])


def cmd_sweep(cfg: RunConfig, out_dir) -> int:
    errors = _training_errors(cfg)
    ledger = os.path.join(out_dir, LEDGER_NAME)
    if os.path.exists(ledger):
        errors.append(f"{ledger} already exists: sweep into a new directory")
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
    # every job, and so every schedule, is built before anything is written;
    # a grid's rates need the policy, which _training_errors reports missing
    if source and tasks and (cfg.grid is None or cfg.policy is not None):
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
    return _run_and_record(cfg, out_dir, source, tasks, specs, sweep=True)


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
    # files first, so an --out that cannot be a directory prints nothing
    if out_dir:
        _make_dirs(out_dir)
        _write_report(report, status, out_dir)
    print(render_report(report, status=status), end="")
    return 0


def cmd_grad_check(model_cfg: ModelConfig, seed: int, epsilon: float,
                   out_dir=None) -> int:
    model = build_staged_network(model_cfg.build_spec(), model_cfg.input_shape,
                                 num_labels=3, seed=seed)
    rng = np.random.default_rng(derive_seed(seed, "grad-check"))
    batch = rng.uniform(-1.0, 1.0, size=(4,) + model_cfg.input_shape)
    labels = np.arange(4) % 3
    try:
        err = grad_check(model.stages, batch, labels, epsilon=epsilon)
    except ValueError as e:     # a bad epsilon, or a net too large to check
        return _fail([f"grad-check: {e}"])
    lines = [f"parameters: {model.param_count()}",
             f"max relative gradient error: {err:.3e} (epsilon {epsilon:g})"]
    ok = err < 1e-4
    lines.append("gradient check passed (< 1e-4)" if ok
                 else "gradient check FAILED (>= 1e-4)")
    if out_dir:     # first, as in cmd_report
        _make_dirs(out_dir)
        with open(os.path.join(out_dir, "grad_check.txt"), "w",
                  encoding="utf-8") as f:
            f.write("\n".join(lines) + "\n")
    print("\n".join(lines))
    return 0 if ok else 1


# glibc's mallopt parameters (malloc.h)
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3


def _libc():
    """The C library, as ctypes loads the process's own symbols."""
    import ctypes
    return ctypes.CDLL(None)


def keep_freed_heap() -> None:
    """Keep freed memory in the heap for reuse, where libc is glibc.

    Evaluation frees multi-MB temporaries every call; by default glibc
    returns them to the kernel and page-faults them back in on the next
    call. With this policy, allocations up to 32 MiB come from the heap,
    and the heap is trimmed only above 1 GiB free, so RSS stays at its
    peak until the process exits. The trim threshold is set only if the
    mmap one was: alone it turns off glibc's dynamic mmap threshold, and
    every large temporary is mmapped afresh. No arithmetic changes.
    Without mallopt (not glibc, or no ctypes) this does nothing.
    """
    try:
        mallopt = _libc().mallopt
    except (ImportError, OSError, TypeError, AttributeError):
        return
    if mallopt(M_MMAP_THRESHOLD, 32 << 20) == 1:
        mallopt(M_TRIM_THRESHOLD, 1 << 30)


def main(argv=None) -> int:
    # first, so the sweep workers, which fork from this process, inherit it
    keep_freed_heap()
    parser = argparse.ArgumentParser(
        prog="ftlab",
        description="Layer-wise learning-rate finetuning experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    # each command takes only the flags it reads
    def add_common(p, out_required=True, seed=True):
        p.add_argument("--out", required=out_required,
                       default=None, help="output directory")
        if seed:
            p.add_argument("--seed", type=int, default=None,
                           help="override the config seed")

    for name, help_text in (("gen-data", "generate synthetic domains"),
                            ("train-source", "train a source model"),
                            ("finetune", "finetune from a checkpoint"),
                            ("sweep", "run a grid or scale sweep")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("config", help="JSON config file")
        add_common(p)
        if name == "sweep":
            p.add_argument("--workers", type=int, default=None,
                           help="override the config worker count: processes "
                                "that run the sweep's jobs")

    p_report = sub.add_parser("report", help="render tables from a ledger")
    p_report.add_argument("ledger", help="ledger.jsonl path")
    add_common(p_report, out_required=False, seed=False)

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
        command = {"gen-data": cmd_gen_data, "train-source": cmd_train_source,
                   "finetune": cmd_finetune, "sweep": cmd_sweep}[args.command]
        return command(load_config(args.config, seed_override=args.seed,
                                   workers_override=vars(args).get("workers")),
                       args.out)
    except ConfigError as e:
        return _fail(e.errors)
    except OSError as e:        # an output file that cannot be written
        return _fail([f"{args.command}: {e}"])


if __name__ == "__main__":
    sys.exit(main())

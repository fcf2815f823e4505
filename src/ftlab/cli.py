"""Command-line front end: reproducible runs driven by JSON config files.

Subcommands: gen-data, train-source, finetune, sweep, report, grad-check.
Every run writes its effective config next to the results ledger so any
number in a report can be traced back to the exact inputs. Exit codes:
0 success, 1 validation error, 2 partial sweep failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from .data import (SyntheticDomainSpec, gen_synthetic_domain, load_dataset,
                   partition_domain, save_dataset, split_train_val)
from .experiment import (FinetuneTask, GraduatedSpec, GridSpec,
                         RecommenderConfig, RunRecord, append_records,
                         derive_seed, graduated_schedule, render_report,
                         report_from_records, run_il_ll_grid, scale_sweep,
                         scan_ledger)
from .model import (Checkpoint, CheckpointError, build_staged_network,
                    checkpoint_from_model, load_checkpoint, mini_staged_spec,
                    save_checkpoint, transfer_init)
from .nn_core import grad_check
from .optim import (LrPolicy, MultiplierSchedule, train, uniform_schedule)

LEDGER_NAME = "ledger.jsonl"
CONFIG_COPY_NAME = "config.json"


class ConfigError(Exception):
    """Carries every validation problem found in a config."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


@dataclass(frozen=True)
class ModelConfig:
    """Mini staged-net settings (stage widths plus head)."""

    input_shape: tuple[int, ...] = (1, 16, 16)
    widths: tuple[int, ...] = (4, 4, 8, 8, 8)
    kernel_size: int = 3
    residual: bool = False
    pools: tuple[bool, ...] | None = None
    head_name: str = "fc"

    def build_spec(self):
        return mini_staged_spec(widths=self.widths, input_shape=self.input_shape,
                                kernel_size=self.kernel_size,
                                residual=self.residual, head_name=self.head_name,
                                pools=self.pools)

    def to_dict(self) -> dict:
        return {"input_shape": list(self.input_shape),
                "widths": list(self.widths),
                "kernel_size": self.kernel_size, "residual": self.residual,
                "pools": None if self.pools is None else list(self.pools),
                "head_name": self.head_name}

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        d = dict(d)
        if "input_shape" in d:
            d["input_shape"] = tuple(d["input_shape"])
        if "widths" in d:
            d["widths"] = tuple(d["widths"])
        if d.get("pools") is not None:
            d["pools"] = tuple(bool(p) for p in d["pools"])
        return cls(**d)


@dataclass(frozen=True)
class RunConfig:
    """Everything that determines a run; serialized next to every ledger."""

    policy: LrPolicy
    model: ModelConfig = ModelConfig()
    # no default batch size: the training method never states one, so
    # commands that train require it explicitly
    batch_size: int | None = None
    momentum: float = 0.9
    seed: int = 0
    workers: int = 1
    data: dict = field(default_factory=dict)
    schedule: dict | None = None
    grid: GridSpec | None = None
    graduated: GraduatedSpec | None = None
    baseline_ll_multiplier: float = 10.0
    source_checkpoint: str | None = None
    recommender: RecommenderConfig | None = None
    domains: tuple[SyntheticDomainSpec, ...] | None = None

    def to_dict(self) -> dict:
        d = {
            "policy": {"base_lr": self.policy.base_lr,
                       "step_size": self.policy.step_size,
                       "total_iterations": self.policy.total_iterations,
                       "gamma": self.policy.gamma},
            "model": self.model.to_dict(),
            "batch_size": self.batch_size,
            "momentum": self.momentum,
            "seed": self.seed,
            "workers": self.workers,
            "data": self.data,
            "schedule": self.schedule,
            "baseline_ll_multiplier": self.baseline_ll_multiplier,
            "source_checkpoint": self.source_checkpoint,
            "grid": None if self.grid is None else
                {"ll_values": list(self.grid.ll_values),
                 "min_il": self.grid.min_il},
            "graduated": None if self.graduated is None else
                {"inner_multipliers": list(self.graduated.inner_multipliers),
                 "head_multiplier": self.graduated.head_multiplier,
                 "scales": list(self.graduated.scales),
                 "layout": self.graduated.layout},
            "recommender": None if self.recommender is None else
                {"breakpoints": [list(b) for b in self.recommender.breakpoints]},
            "domains": None if self.domains is None else
                [dataclasses.asdict(s) for s in self.domains],
        }
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        errors = []
        known = {"policy", "model", "batch_size", "momentum", "seed", "workers",
                 "data", "schedule", "grid", "graduated",
                 "baseline_ll_multiplier", "source_checkpoint", "recommender",
                 "domains"}
        for key in d:
            if key not in known:
                errors.append(f"unknown config field {key!r}")

        def parse(name, fn, default):
            try:
                return fn()
            except (TypeError, ValueError, KeyError) as e:
                errors.append(f"{name}: {e}")
                return default

        policy = parse("policy", lambda: LrPolicy(**d["policy"]) if "policy" in d
                       else _missing("policy"), None)
        model = parse("model", lambda: ModelConfig.from_dict(d.get("model", {})),
                      ModelConfig())
        grid = parse("grid", lambda: None if d.get("grid") is None else
                     GridSpec(ll_values=tuple(d["grid"].get("ll_values", (0.01, 0.1))),
                              min_il=d["grid"].get("min_il", 1e-4)), None)
        graduated = parse(
            "graduated", lambda: None if d.get("graduated") is None else
            GraduatedSpec(
                inner_multipliers=tuple(d["graduated"].get(
                    "inner_multipliers", (0.0, 1.0, 2.0, 4.0, 8.0))),
                head_multiplier=d["graduated"].get("head_multiplier", 16.0),
                scales=tuple(d["graduated"].get(
                    "scales", GraduatedSpec().scales)),
                layout=d["graduated"].get("layout", "per_stage")), None)
        recommender = parse(
            "recommender", lambda: None if d.get("recommender") is None else
            RecommenderConfig(breakpoints=tuple(
                (float(t), float(r))
                for t, r in d["recommender"]["breakpoints"])), None)
        domains = parse(
            "domains", lambda: None if d.get("domains") is None else
            tuple(SyntheticDomainSpec(**spec) for spec in d["domains"]), None)

        batch_size = d.get("batch_size")
        momentum = d.get("momentum", 0.9)
        seed = d.get("seed", 0)
        workers = d.get("workers", 1)
        if batch_size is not None and (not isinstance(batch_size, int)
                                       or batch_size < 1):
            errors.append(f"batch_size must be a positive integer, got {batch_size!r}")
        if not 0 <= momentum < 1:
            errors.append(f"momentum must be in [0, 1), got {momentum!r}")
        if not isinstance(seed, int):
            errors.append(f"seed must be an integer, got {seed!r}")
        if not isinstance(workers, int) or workers < 1:
            errors.append(f"workers must be a positive integer, got {workers!r}")
        if errors:
            raise ConfigError(errors)
        return cls(policy=policy, model=model, batch_size=batch_size,
                   momentum=momentum, seed=seed, workers=workers,
                   data=d.get("data", {}), schedule=d.get("schedule"),
                   grid=grid, graduated=graduated,
                   baseline_ll_multiplier=d.get("baseline_ll_multiplier", 10.0),
                   source_checkpoint=d.get("source_checkpoint"),
                   recommender=recommender, domains=domains)


def _missing(name):
    raise KeyError(f"required section {name!r} missing")


def load_config(path, seed_override=None, workers_override=None) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as f:
            raw = json.load(f)
    except OSError as e:
        raise ConfigError([f"cannot read config: {e}"]) from None
    except ValueError as e:
        raise ConfigError([f"config is not valid JSON: {e}"]) from None
    if not isinstance(raw, dict):
        raise ConfigError([f"config must be a JSON object, got "
                           f"{type(raw).__name__}"])
    # overrides go through the same validation as the fields they replace
    if seed_override is not None:
        raw["seed"] = seed_override
    if workers_override is not None:
        raw["workers"] = workers_override
    return RunConfig.from_dict(raw)


def _write_config_copy(cfg: RunConfig, out_dir) -> None:
    path = os.path.join(out_dir, CONFIG_COPY_NAME)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(cfg.to_dict(), f, indent=2, sort_keys=True)
        f.write("\n")


def _resolve_task(data_cfg: dict, role: str, errors: list[str],
                  task_id: str | None = None) -> FinetuneTask | None:
    """Build a task from one data entry.

    Three forms: dataset+partition_seed (uses the transfer target and its
    validation partition), dataset+split (stratified train/val split), or
    explicit train_dir/val_dir.
    """
    try:
        if "dataset" in data_cfg and "partition_seed" in data_cfg:
            ds = load_dataset(data_cfg["dataset"])
            part = partition_domain(ds, data_cfg["partition_seed"])
            if role == "source":
                train_ds, val_ds = part.source_train, part.val_source
            else:
                train_ds, val_ds = part.target, part.val_target
            return FinetuneTask(task_id or ds.domain_name, train_ds, val_ds)
        if "dataset" in data_cfg and "split" in data_cfg:
            ds = load_dataset(data_cfg["dataset"])
            split = data_cfg["split"]
            train_ds, val_ds = split_train_val(ds, split["train_fraction"],
                                               split["seed"])
            return FinetuneTask(task_id or ds.domain_name, train_ds, val_ds)
        if "train_dir" in data_cfg and "val_dir" in data_cfg:
            train_ds = load_dataset(data_cfg["train_dir"])
            val_ds = load_dataset(data_cfg["val_dir"])
            return FinetuneTask(task_id or train_ds.domain_name, train_ds, val_ds)
        errors.append(f"data entry needs dataset+partition_seed, dataset+split, "
                      f"or train_dir+val_dir; got keys {sorted(data_cfg)}")
    except (OSError, ValueError, KeyError) as e:
        errors.append(f"data ({role}): {e}")
    return None


def _resolve_schedule(cfg: RunConfig, model_stage_names, head_name,
                      errors: list[str]) -> MultiplierSchedule | None:
    s = cfg.schedule
    if s is None:
        errors.append("config needs a 'schedule' section")
        return None
    try:
        if "stage_multipliers" in s:
            return MultiplierSchedule(dict(s["stage_multipliers"]),
                                      s.get("scale", 1.0))
        if "ll" in s:
            ll = float(s["ll"])
            il = float(s.get("il", 0.0))
            return uniform_schedule(model_stage_names, head_name,
                                    inner=il / cfg.policy.base_lr,
                                    head=ll / cfg.policy.base_lr,
                                    scale=s.get("scale", 1.0))
        if "graduated_scale" in s:
            if cfg.graduated is None:
                errors.append("schedule uses graduated_scale but config has no "
                              "'graduated' section")
                return None
            return graduated_schedule(cfg.graduated, s["graduated_scale"],
                                      inner_stage_names=model_stage_names[:-1],
                                      head_name=head_name)
        errors.append(f"schedule needs stage_multipliers, ll/il, or "
                      f"graduated_scale; got keys {sorted(s)}")
    except (TypeError, ValueError) as e:
        errors.append(f"schedule: {e}")
    return None


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
    stage_names = (tuple(s["name"] for s in source.metadata["arch"])
                   if source else ())
    schedule = (None if source is None else
                _resolve_schedule(cfg, stage_names, stage_names[-1], errors))
    if errors:
        return _fail(errors)
    os.makedirs(out_dir, exist_ok=True)
    _write_config_copy(cfg, out_dir)
    try:
        model = transfer_init(source, task.train.num_labels,
                              head_seed=derive_seed(cfg.seed, "head"))
        result = train(model, task.train, task.val, schedule, cfg.policy,
                       cfg.batch_size, seed=derive_seed(cfg.seed, "data"),
                       momentum=cfg.momentum)
    except (ValueError, CheckpointError) as e:
        return _fail([str(e)])
    ckpt_rel = f"finetuned_{task.task_id}.ftlb"
    save_checkpoint(checkpoint_from_model(result.best_model,
                                          {"domain": task.train.domain_name}),
                    os.path.join(out_dir, ckpt_rel))
    s = cfg.schedule
    record = RunRecord(
        kind="ll" if s.get("ll") is not None and s.get("il", 0.0) == 0.0
        else ("graduated" if "graduated_scale" in s else
              ("grid" if "ll" in s else "custom")),
        task=task.task_id, source=str(source.metadata.get("domain", "source")),
        ll=s.get("ll"), il=s.get("il", 0.0 if "ll" in s else None),
        scale=s.get("graduated_scale", s.get("scale")),
        seed=cfg.seed, final_accuracy=result.final_accuracy,
        best_accuracy=result.best_accuracy, checkpoint=ckpt_rel)
    append_records(os.path.join(out_dir, LEDGER_NAME), [record])
    print(f"finetuned checkpoint: {os.path.join(out_dir, ckpt_rel)}")
    print(f"best val accuracy: {result.best_accuracy:.4f} "
          f"(iteration {result.best_iteration})")
    return 0


def cmd_sweep(cfg: RunConfig, out_dir) -> int:
    errors: list[str] = []
    if cfg.batch_size is None:
        errors.append("batch_size is required")
    if (cfg.grid is None) == (cfg.graduated is None):
        errors.append("sweep config needs exactly one of 'grid' or 'graduated'")
    source = _load_source(cfg, errors)
    if source is not None and cfg.graduated is not None:
        # every job's schedule is built before the first job starts
        stages = tuple(s["name"] for s in source.metadata["arch"])
        try:
            graduated_schedule(cfg.graduated, 1.0, stages[:-1], stages[-1])
            MultiplierSchedule({stages[-1]: cfg.baseline_ll_multiplier})
        except (TypeError, ValueError) as e:
            errors.append(f"graduated: {e}")

    tasks: list[FinetuneTask] = []
    if cfg.grid is not None:
        task = _resolve_task(cfg.data, "target", errors)
        if task:
            tasks = [task]
    elif cfg.graduated is not None:
        entries = cfg.data.get("tasks")
        if not entries:
            errors.append("graduated sweep needs data.tasks")
        else:
            for entry in entries:
                t = _resolve_task(entry, "target", errors,
                                  task_id=entry.get("id"))
                if t:
                    tasks.append(t)
    if errors:
        return _fail(errors)

    os.makedirs(out_dir, exist_ok=True)
    _write_config_copy(cfg, out_dir)
    records: list[RunRecord] = []
    failures = []
    sweep_summary = None

    if cfg.grid is not None:
        grid_result = run_il_ll_grid(source, tasks[0], cfg.grid, cfg.policy,
                                     cfg.batch_size, cfg.seed,
                                     momentum=cfg.momentum, workers=cfg.workers,
                                     collect_failures=True)
        records = grid_result.records
        failures = grid_result.failures
    else:
        result = scale_sweep(source, tasks, cfg.graduated, cfg.policy,
                             cfg.batch_size, cfg.seed,
                             baseline_ll_multiplier=cfg.baseline_ll_multiplier,
                             momentum=cfg.momentum, workers=cfg.workers,
                             save_dir=os.path.join(out_dir, "checkpoints"),
                             save_rel="checkpoints", collect_failures=True)
        records = result.records + result.baseline_records
        failures = result.failures
        sweep_summary = {
            "jobs_executed": result.jobs_executed,
            "scales": list(result.scales),
            "task_ids": list(result.task_ids),
            "best_per_task": {t: {"scale": s, "accuracy": a}
                              for t, (s, a) in sorted(result.best_per_task.items())},
            "best_per_task_mean": result.best_per_task_mean,
            "fixed_scale_means": {f"{s:g}": m for s, m in
                                  sorted(result.fixed_scale_means.items())},
            "most_frequent_best_scale": result.most_frequent_best_scale,
            "most_frequent_scale_mean": result.most_frequent_scale_mean,
            "baseline_mean": result.baseline_mean,
        }

    append_records(os.path.join(out_dir, LEDGER_NAME), records)
    status = "partial" if failures else "complete"
    _emit_report(records, out_dir, status, sweep_summary)
    print(f"{len(records)} jobs recorded in "
          f"{os.path.join(out_dir, LEDGER_NAME)}")
    if failures:
        for f_ in failures:
            print(f"failed job {f_.job}: {f_.error}", file=sys.stderr)
        print(f"sweep partial: {len(failures)} job(s) failed", file=sys.stderr)
        return 2
    return 0


def _emit_report(records, out_dir, status, sweep_summary=None) -> None:
    report = report_from_records(records)
    if sweep_summary is not None:
        report["scale_sweep"] = sweep_summary
    text = render_report(report, status=status)
    if sweep_summary is not None:
        text += "\n## Scale sweep analysis\n"
        text += json.dumps(sweep_summary, indent=2, sort_keys=True) + "\n"
    with open(os.path.join(out_dir, "report.txt"), "w", encoding="utf-8") as f:
        f.write(text)
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
    text = render_report(report, status="complete" if not skipped
                         else f"complete ({skipped} records skipped)")
    print(text, end="")
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        _emit_report(records, out_dir, "complete")
    return 0


def cmd_grad_check(cfg: RunConfig | None, epsilon: float,
                   seed: int | None = None, out_dir=None) -> int:
    if cfg is not None:
        spec = cfg.model.build_spec()
        input_shape = cfg.model.input_shape
        model_seed = cfg.seed if seed is None else seed
    else:
        spec = mini_staged_spec(widths=(2, 3), input_shape=(1, 8, 8))
        input_shape = (1, 8, 8)
        model_seed = 0 if seed is None else seed
    model = build_staged_network(spec, input_shape, num_labels=3,
                                 seed=model_seed)
    rng = np.random.default_rng(derive_seed(model_seed, "grad-check"))
    batch = rng.uniform(-1.0, 1.0, size=(4,) + tuple(input_shape))
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
            cfg = (load_config(args.config) if args.config else None)
            return cmd_grad_check(cfg, args.epsilon, seed=args.seed,
                                  out_dir=args.out)
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

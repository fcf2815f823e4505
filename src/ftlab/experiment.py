"""Transfer-finetuning experiment families, accuracy metrics, and reports.

Three families: head-only finetuning at chosen last-layer rates, inner x
last-layer rate grids with spread/argmax metrics, and graduated-multiplier
schedules swept over a set of global scales. Results land in an
append-only JSONL ledger from which all report numbers are recomputable.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
from collections import Counter
from concurrent.futures import BrokenExecutor
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .data import LabeledDataset
from .model import Checkpoint, save_checkpoint, transfer_init
from .optim import LrPolicy, MultiplierSchedule, train, uniform_schedule


def derive_seed(*parts) -> int:
    """Stable 63-bit seed from a tuple of ints/strings/floats."""
    digest = hashlib.sha256(repr(parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little") >> 1


# --- metrics -----------------------------------------------------------------

def percent_gain(best: float, other: float) -> float:
    """Relative improvement of best over other, in percent."""
    if not other > 0:
        raise ValueError(f"reference accuracy must be positive, got {other}")
    return (best - other) / other * 100.0


def beta(accuracies: Sequence[float]) -> float:
    """Percentage spread (max - min) / min * 100 over a set of accuracies."""
    accs = list(accuracies)
    if not accs:
        raise ValueError("beta needs at least one accuracy")
    lo, hi = min(accs), max(accs)
    if not lo > 0:
        raise ValueError(f"minimum accuracy must be positive, got {lo}")
    return (hi - lo) / lo * 100.0


def alpha(accuracy_by_il: Mapping[float, float]) -> float:
    """Inner rate achieving the best accuracy; ties go to the smallest rate."""
    if not accuracy_by_il:
        raise ValueError("alpha needs at least one (il, accuracy) entry")
    return min(accuracy_by_il, key=lambda il: (-accuracy_by_il[il], il))


# --- experiment specs --------------------------------------------------------

@dataclass(frozen=True)
class GridSpec:
    """Inner-rate grids per last-layer rate: {0} plus powers of 10 up to LL."""

    ll_values: tuple[float, ...] = (0.01, 0.1)
    min_il: float = 1e-4

    def __post_init__(self):
        if not self.ll_values:
            raise ValueError("grid needs at least one last-layer rate")
        for ll in self.ll_values:
            if not ll > 0:
                raise ValueError(f"last-layer rate must be positive, got {ll}")
        if not 0 < self.min_il <= min(self.ll_values):
            raise ValueError(f"min_il {self.min_il} must be in "
                             f"(0, {min(self.ll_values)}]")

    def il_values(self, ll: float) -> tuple[float, ...]:
        """0 plus every power of 10 from min_il up to LL (inclusive)."""
        values = [0.0]
        k = round(math.log10(self.min_il))
        while 10.0 ** k <= ll * (1 + 1e-9):
            values.append(10.0 ** k)
            k += 1
        return tuple(values)


@dataclass(frozen=True)
class GraduatedSpec:
    """Graduated per-stage multipliers with a sweep over global scales.

    layout "per_stage" assigns one multiplier per inner stage in order;
    "shared_first" gives the first multiplier to the first two stages and
    the remaining ones to the later stages (any leftover values unused).
    """

    inner_multipliers: tuple[float, ...] = (0.0, 1.0, 2.0, 4.0, 8.0)
    head_multiplier: float = 16.0
    scales: tuple[float, ...] = (0.25, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0,
                                 5.0, 7.0, 10.0)
    layout: str = "per_stage"

    def __post_init__(self):
        if any(b < a for a, b in zip(self.inner_multipliers,
                                     self.inner_multipliers[1:])):
            raise ValueError(f"inner multipliers must be non-decreasing, "
                             f"got {self.inner_multipliers}")
        if any(m < 0 for m in self.inner_multipliers):
            raise ValueError("multipliers must be >= 0")
        if list(self.scales) != sorted(self.scales) or len(set(self.scales)) != len(self.scales):
            raise ValueError(f"scales must be strictly ascending, got {self.scales}")
        if any(s <= 0 for s in self.scales):
            raise ValueError("scales must be positive")
        if self.layout not in ("per_stage", "shared_first"):
            raise ValueError(f"unknown layout {self.layout!r}")


DEFAULT_INNER_STAGES = ("conv1", "conv2", "conv3", "conv4", "conv5")


def graduated_schedule(spec: GraduatedSpec, scale: float,
                       inner_stage_names: Sequence[str] = DEFAULT_INNER_STAGES,
                       head_name: str = "fc") -> MultiplierSchedule:
    """Multiplier schedule for one scale of a graduated sweep."""
    if not scale > 0:
        raise ValueError(f"scale must be positive, got {scale}")
    names = list(inner_stage_names)
    values = spec.inner_multipliers
    if spec.layout == "per_stage":
        if len(values) != len(names):
            raise ValueError(f"{len(names)} inner stages but "
                             f"{len(values)} multipliers")
    else:  # shared_first: first two stages share the smallest multiplier
        if len(names) < 2:
            raise ValueError("shared_first layout needs at least two inner stages")
        if len(values) < len(names) - 1:
            raise ValueError(f"{len(names)} inner stages need at least "
                             f"{len(names) - 1} multipliers for shared_first")
        values = values[:1] + values
    mults = dict(zip(names, values))
    mults[head_name] = spec.head_multiplier
    return MultiplierSchedule(mults, scale)


# --- run records and the ledger ----------------------------------------------

@dataclass(frozen=True)
class RunRecord:
    """One executed training job, as stored in the results ledger."""

    kind: str                 # "source" | "ll" | "grid" | "graduated" | "baseline"
    task: str
    source: str
    seed: int
    final_accuracy: float
    best_accuracy: float
    ll: float | None = None       # last-layer rate (ll/grid) or multiplier (baseline)
    il: float | None = None       # inner rate (ll/grid) or multiplier (baseline)
    scale: float | None = None    # graduated sweep scale
    checkpoint: str | None = None

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "RunRecord":
        """Parse one ledger object; a missing or mistyped field raises."""
        rec = cls(**{f.name: d.get(f.name) if f.default is None else d[f.name]
                     for f in dataclasses.fields(cls)})
        for name, kinds in _RECORD_TYPES.items():
            value = getattr(rec, name)
            if not isinstance(value, kinds) or isinstance(value, bool):
                raise TypeError(f"record field {name!r} has type "
                                f"{type(value).__name__}")
        return rec


_NUMBER = (int, float)
_RECORD_TYPES = {
    "kind": str, "task": str, "source": str, "seed": int,
    "final_accuracy": _NUMBER, "best_accuracy": _NUMBER,
    "ll": _NUMBER + (type(None),), "il": _NUMBER + (type(None),),
    "scale": _NUMBER + (type(None),), "checkpoint": (str, type(None)),
}


def append_records(path, records: Sequence[RunRecord]) -> None:
    with open(path, "a", encoding="utf-8") as f:
        for rec in records:
            f.write(json.dumps(rec.to_dict(), sort_keys=True) + "\n")


def scan_ledger(path) -> tuple[list[RunRecord], list[int]]:
    """Parse a ledger: its records, and the 1-based numbers of corrupt lines.

    A line is corrupt if it is not UTF-8, not JSON, or not a well-typed
    record; it is skipped. Blank lines are ignored.
    """
    records, bad_lines = [], []
    with open(path, "rb") as f:
        for lineno, raw in enumerate(f, start=1):
            try:
                line = raw.decode("utf-8").strip()
                if line:
                    records.append(RunRecord.from_dict(json.loads(line)))
            except (ValueError, KeyError, TypeError):
                bad_lines.append(lineno)
    return records, bad_lines


def read_ledger(path) -> tuple[list[RunRecord], int]:
    """Parse a ledger; corrupt lines are skipped and counted."""
    records, bad_lines = scan_ledger(path)
    return records, len(bad_lines)


# --- experiment runners --------------------------------------------------------

@dataclass
class FinetuneTask:
    """A target learning task: id plus its train/validation datasets."""

    task_id: str
    train: LabeledDataset
    val: LabeledDataset


@dataclass
class JobFailure:
    job: str
    error: str


class WorkerDiedError(RuntimeError):
    """A job's worker process died before the job finished."""


@dataclass(frozen=True)
class JobInputs:
    """What the jobs of one call share. Pool workers inherit it by fork."""

    source: Checkpoint
    tasks: Mapping[str, FinetuneTask]
    policy: LrPolicy
    batch_size: int
    momentum: float


@dataclass(frozen=True)
class JobSpec:
    """One job: all that a pool worker is sent for it."""

    kind: str                     # "ll" | "grid" | "graduated" | "baseline"
    name: str                     # names the job in a JobFailure
    task_id: str
    schedule: MultiplierSchedule
    seed: int                     # the seed recorded in the ledger
    seed_parts: tuple             # the data and head seeds derive from these
    ll: float | None = None
    il: float | None = None
    scale: float | None = None
    save_path: str | os.PathLike | None = None
    checkpoint: str | None = None  # save_path as the ledger refers to it


def run_job(inputs: JobInputs, spec: JobSpec) -> RunRecord:
    """transfer_init -> train -> save the best model -> its RunRecord."""
    task = inputs.tasks[spec.task_id]
    model = transfer_init(inputs.source, task.train.num_labels,
                          derive_seed(*spec.seed_parts, "head"))
    result = train(model, task.train, task.val, spec.schedule, inputs.policy,
                   inputs.batch_size, derive_seed(*spec.seed_parts, "data"),
                   momentum=inputs.momentum)
    if spec.save_path is not None:
        save_checkpoint(result.best_model, spec.save_path)
    meta = inputs.source.metadata
    return RunRecord(kind=spec.kind, task=spec.task_id,
                     source=str(meta.get("domain", meta.get("seed", "source"))),
                     seed=spec.seed, final_accuracy=result.final_accuracy,
                     best_accuracy=result.best_accuracy, ll=spec.ll,
                     il=spec.il, scale=spec.scale, checkpoint=spec.checkpoint)


def _rate_job(source: Checkpoint, policy: LrPolicy, task_id: str, kind: str,
              ll: float, il: float, seed: int, **save) -> JobSpec:
    """A job training the head at rate ll and every inner stage at rate il."""
    stages = tuple(s["name"] for s in source.metadata["arch"])
    schedule = uniform_schedule(stages, stages[-1], inner=il / policy.base_lr,
                                head=ll / policy.base_lr)
    return JobSpec(kind, f"ll={ll:g} il={il:g}", task_id, schedule, seed,
                   (seed,), ll=ll, il=il, **save)


def run_ll_experiment(source: Checkpoint, task: FinetuneTask, ll: float,
                      policy: LrPolicy, batch_size: int, seed: int,
                      momentum: float = 0.9,
                      save_path=None, checkpoint_ref: str | None = None) -> RunRecord:
    """Head-only finetuning: inner stages frozen, head trained at rate ll.

    The head multiplier is chosen so the effective head learning rate at
    iteration 0 equals ll.
    """
    if not ll > 0:
        raise ValueError(f"last-layer rate must be positive, got {ll}")
    inputs = JobInputs(source, {task.task_id: task}, policy, batch_size, momentum)
    return run_job(inputs, _rate_job(source, policy, task.task_id, "ll", ll, 0.0,
                                     seed, save_path=save_path,
                                     checkpoint=checkpoint_ref))


@dataclass
class LlSummary:
    """Per-LL derived metrics for a grid."""

    ll: float
    accuracy_by_il: dict[float, float]
    beta: float
    alpha: float
    max_accuracy: float
    min_accuracy: float


@dataclass
class GridResult:
    records: list[RunRecord]
    summaries: dict[float, LlSummary]
    max_diff: float | None       # max_{largest LL} - max_{smallest LL}
    failures: list[JobFailure] = field(default_factory=list)

    @property
    def runs_executed(self) -> int:
        return len(self.records)


def run_il_ll_grid(source: Checkpoint, task: FinetuneTask, grid: GridSpec,
                   policy: LrPolicy, batch_size: int, seed: int,
                   momentum: float = 0.9, workers: int = 1,
                   collect_failures: bool = False) -> GridResult:
    """One finetuning run per (LL, IL) cell plus derived per-LL metrics.

    Every cell uses the same data/head seeds (fixed-seed methodology), so
    an IL=0 cell reproduces run_ll_experiment for the same LL bit-exactly.
    """
    inputs = JobInputs(source, {task.task_id: task}, policy, batch_size, momentum)
    specs = [_rate_job(source, policy, task.task_id, "grid", ll, il, seed)
             for ll in grid.ll_values for il in grid.il_values(ll)]
    records, failures = _run_jobs(inputs, specs, workers, collect_failures)
    summaries = {}
    for ll in grid.ll_values:
        by_il = {r.il: r.best_accuracy for r in records if r.ll == ll}
        if not by_il:
            continue
        accs = list(by_il.values())
        summaries[ll] = LlSummary(ll=ll, accuracy_by_il=by_il, beta=beta(accs),
                                  alpha=alpha(by_il), max_accuracy=max(accs),
                                  min_accuracy=min(accs))
    max_diff = (summaries[max(summaries)].max_accuracy
                - summaries[min(summaries)].max_accuracy
                if len(summaries) >= 2 else None)
    return GridResult(records, summaries, max_diff, failures)


@dataclass
class ScaleSweepResult:
    """All graduated-sweep jobs for a task set plus the derived analyses."""

    records: list[RunRecord]
    baseline_records: list[RunRecord]
    scales: tuple[float, ...]
    task_ids: tuple[str, ...]
    best_per_task: dict[str, tuple[float, float]]   # task -> (scale, accuracy)
    best_per_task_mean: float | None
    fixed_scale_means: dict[float, float]
    most_frequent_best_scale: float | None
    most_frequent_scale_mean: float | None
    baseline_mean: float | None
    failures: list[JobFailure] = field(default_factory=list)

    @property
    def jobs_executed(self) -> int:
        return len(self.records)


def _accuracy_table(records: Sequence[RunRecord]) -> dict[str, dict[float, float]]:
    table: dict[str, dict[float, float]] = {}
    for r in records:
        table.setdefault(r.task, {})[r.scale] = r.best_accuracy
    return table


def most_frequent_best_scale(records: Sequence[RunRecord],
                             scales: Sequence[float] | None = None) -> float:
    """Mode of the per-task best scales; ties break toward the smaller scale."""
    table = _accuracy_table(records)
    if not table:
        raise ValueError("no graduated records to analyze")
    if scales is None:
        scales = sorted({s for by in table.values() for s in by})
    for task, by_scale in table.items():
        missing = [s for s in scales if s not in by_scale]
        if missing:
            raise ValueError(f"task '{task}' missing records for scales {missing}")
    votes = Counter(min(scales, key=lambda s: (-by_scale[s], s))
                    for by_scale in table.values())
    return min(votes, key=lambda s: (-votes[s], s))


def scale_sweep(source: Checkpoint, tasks: Sequence[FinetuneTask],
                spec: GraduatedSpec, policy: LrPolicy, batch_size: int,
                master_seed: int, baseline_ll_multiplier: float = 10.0,
                momentum: float = 0.9, workers: int = 1,
                inner_stage_names: Sequence[str] | None = None,
                head_name: str | None = None,
                save_dir=None, save_rel: str | None = None,
                collect_failures: bool = False) -> ScaleSweepResult:
    """Run |tasks| x |scales| graduated jobs plus one head-only baseline each.

    Reports the mean accuracy with the per-task best scale, the mean at the
    single most frequently optimal scale, and the frozen-inner baseline
    mean. Each job is seeded from (master_seed, task id, scale). A schedule
    that does not fit the stages raises ValueError before any job runs.
    """
    if not tasks:
        raise ValueError("scale sweep needs at least one task")
    arch_stages = tuple(s["name"] for s in source.metadata["arch"])
    inner = tuple(inner_stage_names) if inner_stage_names else arch_stages[:-1]
    head = head_name if head_name else arch_stages[-1]
    by_id = {t.task_id: t for t in tasks}
    if len(by_id) != len(tasks):
        raise ValueError("task ids must be unique")

    baseline = MultiplierSchedule(
        {name: 0.0 for name in inner} | {head: baseline_ll_multiplier})
    specs = [_sweep_job("graduated", f"{t.task_id} scale={s:g}", t.task_id,
                        graduated_schedule(spec, s, inner, head),
                        (master_seed, t.task_id, s), save_dir, save_rel,
                        f"{t.task_id}_scale{s:g}.ftlb", scale=s)
             for t in tasks for s in spec.scales]
    specs += [_sweep_job("baseline", f"{t.task_id} baseline", t.task_id,
                         baseline, (master_seed, t.task_id, "baseline"),
                         save_dir, save_rel, f"{t.task_id}_baseline.ftlb",
                         ll=baseline_ll_multiplier, il=0.0)
              for t in tasks]
    if save_dir is not None:
        os.makedirs(save_dir, exist_ok=True)
    inputs = JobInputs(source, by_id, policy, batch_size, momentum)
    records, failures = _run_jobs(inputs, specs, workers, collect_failures)
    return _analyze_sweep([r for r in records if r.kind == "graduated"],
                          [r for r in records if r.kind == "baseline"],
                          spec.scales, tuple(by_id), failures)


def _sweep_job(kind, name, task_id, schedule, seed_parts, save_dir, save_rel,
               filename, **fields) -> JobSpec:
    """A job seeded from seed_parts; it saves to save_dir/filename if set."""
    if save_dir is not None:
        fields.update(save_path=os.path.join(save_dir, filename),
                      checkpoint=f"{save_rel}/{filename}" if save_rel else filename)
    return JobSpec(kind, name, task_id, schedule,
                   derive_seed(*seed_parts, "data"), seed_parts, **fields)


def _analyze_sweep(records, baseline_records, scales, task_ids,
                   failures) -> ScaleSweepResult:
    table = _accuracy_table(records)
    complete = [t for t in task_ids
                if all(s in table.get(t, {}) for s in scales)]
    best_per_task = {}
    for t in complete:
        s = min(scales, key=lambda sc: (-table[t][sc], sc))
        best_per_task[t] = (s, table[t][s])
    best_mean = (sum(a for _, a in best_per_task.values()) / len(best_per_task)
                 if best_per_task else None)
    fixed_means = ({s: sum(table[t][s] for t in complete) / len(complete)
                    for s in scales} if complete else {})
    mfbs = (most_frequent_best_scale([r for r in records if r.task in complete],
                                     scales) if complete else None)
    base_mean = (sum(r.best_accuracy for r in baseline_records)
                 / len(baseline_records) if baseline_records else None)
    return ScaleSweepResult(records=records, baseline_records=baseline_records,
                            scales=tuple(scales), task_ids=tuple(task_ids),
                            best_per_task=best_per_task,
                            best_per_task_mean=best_mean,
                            fixed_scale_means=fixed_means,
                            most_frequent_best_scale=mfbs,
                            most_frequent_scale_mean=fixed_means.get(mfbs),
                            baseline_mean=base_mean, failures=failures)


def _run_jobs(inputs: JobInputs, specs: Sequence[JobSpec], workers: int,
              collect_failures: bool) -> tuple[list[RunRecord], list[JobFailure]]:
    """Run every job; records and failures come back in submission order.

    With workers > 1 the jobs run in up to that many forked processes; only
    the specs and the outcomes are pickled. With collect_failures set, a job
    that raises, or whose worker process dies, becomes a JobFailure;
    otherwise the first error propagates, a dead worker as WorkerDiedError.
    """
    if workers > 1 and len(specs) > 1:
        outcomes = _pool_outcomes(inputs, specs, workers, collect_failures)
    else:
        outcomes = [_outcome(spec, inputs, collect_failures) for spec in specs]
    return ([r for r, _ in outcomes if r is not None],
            [f for _, f in outcomes if f is not None])


def _outcome(spec: JobSpec, inputs: JobInputs, collect_failures: bool):
    try:
        return run_job(inputs, spec), None
    except Exception as e:  # noqa: BLE001 - partial-failure policy
        if not collect_failures:
            raise
        return None, JobFailure(spec.name, f"{type(e).__name__}: {e}")


_worker_args = ()   # (inputs, collect_failures) in a pool worker


def _enter_worker(*args) -> None:
    global _worker_args
    _worker_args = args


def _worker_outcome(spec: JobSpec):
    return _outcome(spec, *_worker_args)


def _pool_outcomes(inputs, specs, workers, collect_failures):
    # Imported here: runs without a pool need not load multiprocessing (about
    # 1 MB). Fork hands inputs to the workers unpickled. It is spelled out
    # because Python 3.14 no longer makes it the default start method.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(min(workers, len(specs)),
                             mp_context=multiprocessing.get_context("fork"),
                             initializer=_enter_worker,
                             initargs=(inputs, collect_failures)) as pool:
        futures = [pool.submit(_worker_outcome, spec) for spec in specs]
        try:
            return [_pool_outcome(f, spec, collect_failures)
                    for f, spec in zip(futures, specs)]
        finally:
            pool.shutdown(cancel_futures=True)


def _pool_outcome(future, spec: JobSpec, collect_failures: bool):
    try:
        return future.result()
    except BrokenExecutor:   # the pool lost a worker process
        if not collect_failures:
            raise WorkerDiedError(f"a worker process died before job "
                                  f"{spec.name!r} finished") from None
        return None, JobFailure(spec.name, "worker process died")


# --- learning-rate recommendation ---------------------------------------------

@dataclass(frozen=True)
class RecommenderConfig:
    """Step thresholds mapping images/label to an inner rate.

    breakpoints are (minimum images/label, inner rate) pairs with strictly
    increasing thresholds (first one 0) and non-decreasing rates; the
    recommendation is additionally capped at the last-layer rate.
    """

    breakpoints: tuple[tuple[float, float], ...] = (
        (0.0, 1e-4), (25.0, 1e-3), (250.0, 1e-2), (2500.0, 0.1))

    def __post_init__(self):
        if not self.breakpoints:
            raise ValueError("recommender needs at least one breakpoint")
        thresholds = [t for t, _ in self.breakpoints]
        rates = [r for _, r in self.breakpoints]
        if thresholds[0] != 0.0:
            raise ValueError("first breakpoint threshold must be 0")
        if any(b <= a for a, b in zip(thresholds, thresholds[1:])):
            raise ValueError(f"thresholds must be strictly increasing, "
                             f"got {thresholds}")
        if any(b < a for a, b in zip(rates, rates[1:])):
            raise ValueError(f"rates must be non-decreasing, got {rates}")


def recommend_multipliers(images_per_label: float, ll: float,
                          config: RecommenderConfig | None = None) -> float:
    """Heuristic inner rate for a target dataset, from its images/label.

    Monotone non-decreasing in images/label and never above the
    last-layer rate.
    """
    if not images_per_label > 0:
        raise ValueError(f"images/label must be positive, got {images_per_label}")
    if not ll > 0:
        raise ValueError(f"last-layer rate must be positive, got {ll}")
    cfg = config if config is not None else RecommenderConfig()
    rate = cfg.breakpoints[0][1]
    for threshold, r in cfg.breakpoints:
        if images_per_label >= threshold:
            rate = r
    return min(rate, ll)


# --- reports -------------------------------------------------------------------

ACCURACY_NOTE = "accuracy = best top-1 over evaluation points"


def report_from_records(records: Sequence[RunRecord]) -> dict:
    """Recompute every reported number from raw ledger records.

    Returns a machine-readable dict with a gain table (accuracy per
    last-layer rate with inner stages frozen, plus % gain) and a
    best-rate table (alpha, beta, and max accuracy per last-layer rate
    plus the difference between the extremes' maxima).
    """
    rate_records = [r for r in records if r.kind in ("ll", "grid")
                    and r.ll is not None and r.il is not None]
    pairs = sorted({(r.task, r.source) for r in rate_records})

    gain_table = []
    for task, source in pairs:
        by_ll: dict[float, float] = {}
        for r in rate_records:
            if r.task == task and r.source == source and r.il == 0.0:
                by_ll[r.ll] = r.best_accuracy   # last record wins
        if len(by_ll) < 2:
            continue
        best_ll = min(by_ll, key=lambda ll: (-by_ll[ll], ll))
        others = [a for ll, a in by_ll.items() if ll != best_ll]
        gain = percent_gain(by_ll[best_ll], min(others)) if min(others) > 0 else None
        gain_table.append({"target": task, "source": source,
                           "accuracy_by_ll": {f"{ll:g}": a
                                              for ll, a in sorted(by_ll.items())},
                           "best_ll": best_ll, "percent_gain": gain})

    best_rate_table = []
    for task, source in pairs:
        by_ll_il: dict[float, dict[float, float]] = {}
        for r in rate_records:
            if r.task == task and r.source == source:
                by_ll_il.setdefault(r.ll, {})[r.il] = r.best_accuracy
        complete = {ll: ils for ll, ils in by_ll_il.items() if len(ils) >= 2}
        if not complete:
            continue
        items = sorted(complete.items())
        lo, hi = min(complete), max(complete)
        best_rate_table.append({
            "target": task, "source": source,
            "alpha": {f"{ll:g}": alpha(ils) for ll, ils in items},
            "beta": {f"{ll:g}": beta(list(ils.values())) for ll, ils in items},
            "max_accuracy": {f"{ll:g}": max(ils.values()) for ll, ils in items},
            "max_diff": (max(complete[hi].values()) - max(complete[lo].values())
                         if len(complete) >= 2 else None)})

    return {"note": ACCURACY_NOTE, "gain_table": gain_table,
            "best_rate_table": best_rate_table}


def _fmt_pct(x) -> str:
    return "-" if x is None else f"{100.0 * x:.2f}%"


def _render_rows(header: list[str], rows: list[list[str]]) -> str:
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
              for i, h in enumerate(header)]
    def line(cells):
        return "  ".join(c.rjust(w) for c, w in zip(cells, widths))
    return "\n".join([line(header), line(["-" * w for w in widths])]
                     + [line(r) for r in rows])


def render_report(report: dict, status: str = "complete") -> str:
    """Aligned text rendering of report_from_records output."""
    parts = [f"# status: {status}", f"# {report['note']}"]

    lls1 = sorted({ll for row in report["gain_table"]
                   for ll in row["accuracy_by_ll"]}, key=float)
    header = ["Target", "Source"] + [f"LL-{ll}" for ll in lls1] + ["% Gain"]
    rows = [[row["target"], row["source"]]
            + [_fmt_pct(row["accuracy_by_ll"].get(ll)) for ll in lls1]
            + ["-" if row["percent_gain"] is None else f"{row['percent_gain']:.2f}%"]
            for row in report["gain_table"]]
    parts.append("## Accuracy by last-layer rate (inner stages frozen)")
    parts.append(_render_rows(header, rows) if rows else "(no records)")

    lls2 = sorted({ll for row in report["best_rate_table"]
                   for ll in row["alpha"]}, key=float)
    header2 = (["Target", "Source"]
               + [f"alpha_{ll}" for ll in lls2]
               + [f"beta_{ll}" for ll in lls2]
               + ["max_hi-max_lo"])
    rows2 = [[row["target"], row["source"]]
             + [("-" if row["alpha"].get(ll) is None
                 else f"{row['alpha'][ll]:g}") for ll in lls2]
             + [("-" if row["beta"].get(ll) is None
                 else f"{row['beta'][ll]:.2f}%") for ll in lls2]
             + [_fmt_pct(row["max_diff"])]
             for row in report["best_rate_table"]]
    parts.append("## Best inner rate and accuracy spread per last-layer rate")
    parts.append(_render_rows(header2, rows2) if rows2 else "(no records)")
    return "\n\n".join(parts) + "\n"

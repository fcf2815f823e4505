"""Transfer-finetuning experiment families, accuracy metrics, and reports.

Three families: head-only finetuning at chosen last-layer rates, inner x
last-layer rate grids with spread/argmax metrics, and graduated-multiplier
schedules swept over a set of global scales. Results land in an
append-only JSONL ledger from which all report numbers are recomputable.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .data import LabeledDataset
from .model import Checkpoint, StagedModel, save_checkpoint, transfer_init
from .optim import (LrPolicy, MultiplierSchedule, TrainResult, train,
                    uniform_schedule)


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
        while True:
            v = 10.0 ** k
            if v > ll * (1 + 1e-9):
                break
            values.append(v)
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
    mults = {}
    if spec.layout == "per_stage":
        if len(spec.inner_multipliers) != len(names):
            raise ValueError(f"{len(names)} inner stages but "
                             f"{len(spec.inner_multipliers)} multipliers")
        for name, m in zip(names, spec.inner_multipliers):
            mults[name] = m
    else:  # shared_first: first two stages share the smallest multiplier
        if len(names) < 2:
            raise ValueError("shared_first layout needs at least two inner stages")
        if len(spec.inner_multipliers) < len(names) - 1:
            raise ValueError(f"{len(names)} inner stages need at least "
                             f"{len(names) - 1} multipliers for shared_first")
        mults[names[0]] = spec.inner_multipliers[0]
        mults[names[1]] = spec.inner_multipliers[0]
        for i, name in enumerate(names[2:], start=1):
            mults[name] = spec.inner_multipliers[i]
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
        return {"kind": self.kind, "task": self.task, "source": self.source,
                "ll": self.ll, "il": self.il, "scale": self.scale,
                "seed": self.seed, "final_accuracy": self.final_accuracy,
                "best_accuracy": self.best_accuracy,
                "checkpoint": self.checkpoint}

    @classmethod
    def from_dict(cls, d: dict) -> "RunRecord":
        """Parse one ledger object; a missing or mistyped field raises."""
        rec = cls(kind=d["kind"], task=d["task"], source=d["source"],
                  seed=d["seed"], final_accuracy=d["final_accuracy"],
                  best_accuracy=d["best_accuracy"], ll=d.get("ll"),
                  il=d.get("il"), scale=d.get("scale"),
                  checkpoint=d.get("checkpoint"))
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
    records = []
    bad_lines = []
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


def _finetune_job(source: Checkpoint, task: FinetuneTask,
                  schedule: MultiplierSchedule, policy: LrPolicy,
                  batch_size: int, data_seed: int, head_seed: int,
                  momentum: float) -> tuple[StagedModel, TrainResult]:
    model = transfer_init(source, task.train.num_labels, head_seed)
    result = train(model, task.train, task.val, schedule, policy, batch_size,
                   data_seed, momentum=momentum)
    return model, result


def _source_name(source: Checkpoint) -> str:
    return str(source.metadata.get("domain", source.metadata.get("seed", "source")))


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
    return _run_rate_job(source, task, ll=ll, il=0.0, kind="ll", policy=policy,
                         batch_size=batch_size, seed=seed, momentum=momentum,
                         save_path=save_path, checkpoint_ref=checkpoint_ref)


def _run_rate_job(source, task, ll, il, kind, policy, batch_size, seed,
                  momentum, save_path=None, checkpoint_ref=None) -> RunRecord:
    spec_stages = tuple(s["name"] for s in source.metadata["arch"])
    head = spec_stages[-1]
    schedule = uniform_schedule(spec_stages, head, inner=il / policy.base_lr,
                                head=ll / policy.base_lr)
    _, result = _finetune_job(source, task, schedule, policy, batch_size,
                              data_seed=derive_seed(seed, "data"),
                              head_seed=derive_seed(seed, "head"),
                              momentum=momentum)
    if save_path is not None:
        save_checkpoint(result.best_model, save_path)
    return RunRecord(kind=kind, task=task.task_id, source=_source_name(source),
                     ll=ll, il=il, seed=seed,
                     final_accuracy=result.final_accuracy,
                     best_accuracy=result.best_accuracy,
                     checkpoint=checkpoint_ref)


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
    jobs = [(ll, il) for ll in grid.ll_values for il in grid.il_values(ll)]

    def run_cell(cell):
        ll, il = cell
        return _run_rate_job(source, task, ll=ll, il=il, kind="grid",
                             policy=policy, batch_size=batch_size, seed=seed,
                             momentum=momentum)

    results, failures = _run_jobs(jobs, run_cell, workers, collect_failures,
                                  job_name=lambda c: f"ll={c[0]:g} il={c[1]:g}")
    records = [r for r in results if r is not None]
    summaries = {}
    for ll in grid.ll_values:
        by_il = {r.il: r.best_accuracy for r in records if r.ll == ll}
        if not by_il:
            continue
        accs = list(by_il.values())
        summaries[ll] = LlSummary(ll=ll, accuracy_by_il=by_il, beta=beta(accs),
                                  alpha=alpha(by_il), max_accuracy=max(accs),
                                  min_accuracy=min(accs))
    max_diff = None
    if len(summaries) >= 2:
        lo, hi = min(summaries), max(summaries)
        max_diff = summaries[hi].max_accuracy - summaries[lo].max_accuracy
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
    votes: dict[float, int] = {}
    for by_scale in table.values():
        best = min(scales, key=lambda s: (-by_scale[s], s))
        votes[best] = votes.get(best, 0) + 1
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
    mean. Each job is seeded independently from (master_seed, task id,
    scale).
    """
    if not tasks:
        raise ValueError("scale sweep needs at least one task")
    arch_stages = tuple(s["name"] for s in source.metadata["arch"])
    inner = tuple(inner_stage_names) if inner_stage_names else arch_stages[:-1]
    head = head_name if head_name else arch_stages[-1]
    by_id = {t.task_id: t for t in tasks}
    if len(by_id) != len(tasks):
        raise ValueError("task ids must be unique")

    def ckpt_args(filename):
        if save_dir is None:
            return None, None
        rel = f"{save_rel}/{filename}" if save_rel else filename
        return os.path.join(save_dir, filename), rel

    def run_one(job):
        task_id, scale = job
        task = by_id[task_id]
        path, ref = ckpt_args(f"{task_id}_scale{scale:g}.ftlb")
        schedule = graduated_schedule(spec, scale, inner, head)
        _, result = _finetune_job(
            source, task, schedule, policy, batch_size,
            data_seed=derive_seed(master_seed, task_id, scale, "data"),
            head_seed=derive_seed(master_seed, task_id, scale, "head"),
            momentum=momentum)
        if path is not None:
            save_checkpoint(result.best_model, path)
        return RunRecord(kind="graduated", task=task_id,
                         source=_source_name(source), scale=scale,
                         seed=derive_seed(master_seed, task_id, scale, "data"),
                         final_accuracy=result.final_accuracy,
                         best_accuracy=result.best_accuracy, checkpoint=ref)

    def run_baseline(task_id):
        task = by_id[task_id]
        path, ref = ckpt_args(f"{task_id}_baseline.ftlb")
        schedule = MultiplierSchedule(
            {name: 0.0 for name in inner} | {head: baseline_ll_multiplier})
        _, result = _finetune_job(
            source, task, schedule, policy, batch_size,
            data_seed=derive_seed(master_seed, task_id, "baseline", "data"),
            head_seed=derive_seed(master_seed, task_id, "baseline", "head"),
            momentum=momentum)
        if path is not None:
            save_checkpoint(result.best_model, path)
        return RunRecord(kind="baseline", task=task_id,
                         source=_source_name(source),
                         ll=baseline_ll_multiplier, il=0.0,
                         seed=derive_seed(master_seed, task_id, "baseline", "data"),
                         final_accuracy=result.final_accuracy,
                         best_accuracy=result.best_accuracy, checkpoint=ref)

    if save_dir is not None:
        os.makedirs(save_dir, exist_ok=True)
    jobs = [(t.task_id, s) for t in tasks for s in spec.scales]
    results, failures = _run_jobs(jobs, run_one, workers, collect_failures,
                                  job_name=lambda j: f"{j[0]} scale={j[1]:g}")
    base_results, base_failures = _run_jobs(
        [t.task_id for t in tasks], run_baseline, workers, collect_failures,
        job_name=lambda t: f"{t} baseline")
    failures += base_failures
    records = [r for r in results if r is not None]
    baseline_records = [r for r in base_results if r is not None]
    return _analyze_sweep(records, baseline_records, spec.scales,
                          tuple(t.task_id for t in tasks), failures)


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
    fixed_means = {}
    if complete:
        for s in scales:
            fixed_means[s] = sum(table[t][s] for t in complete) / len(complete)
    mfbs = None
    mfbs_mean = None
    if complete:
        mfbs = most_frequent_best_scale(
            [r for r in records if r.task in complete], scales)
        mfbs_mean = fixed_means[mfbs]
    base_mean = (sum(r.best_accuracy for r in baseline_records)
                 / len(baseline_records) if baseline_records else None)
    return ScaleSweepResult(records=records, baseline_records=baseline_records,
                            scales=tuple(scales), task_ids=tuple(task_ids),
                            best_per_task=best_per_task,
                            best_per_task_mean=best_mean,
                            fixed_scale_means=fixed_means,
                            most_frequent_best_scale=mfbs,
                            most_frequent_scale_mean=mfbs_mean,
                            baseline_mean=base_mean, failures=failures)


def _run_jobs(jobs, fn, workers, collect_failures, job_name):
    """Run jobs in submission order, optionally in a thread pool.

    Returns (results, failures); failed jobs yield None in results when
    collect_failures is set, otherwise the first error propagates.
    """
    def guarded(job):
        try:
            return fn(job), None
        except Exception as e:  # noqa: BLE001 - partial-failure policy
            if not collect_failures:
                raise
            return None, JobFailure(job_name(job), f"{type(e).__name__}: {e}")

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(guarded, jobs))
    else:
        outcomes = [guarded(j) for j in jobs]
    results = [r for r, _ in outcomes]
    failures = [f for _, f in outcomes if f is not None]
    return results, failures


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
        row = {"target": task, "source": source,
               "alpha": {f"{ll:g}": alpha(ils) for ll, ils in sorted(complete.items())},
               "beta": {f"{ll:g}": beta(list(ils.values()))
                        for ll, ils in sorted(complete.items())},
               "max_accuracy": {f"{ll:g}": max(ils.values())
                                for ll, ils in sorted(complete.items())}}
        if len(complete) >= 2:
            lo, hi = min(complete), max(complete)
            row["max_diff"] = (max(complete[hi].values())
                               - max(complete[lo].values()))
        else:
            row["max_diff"] = None
        best_rate_table.append(row)

    return {"note": ACCURACY_NOTE, "gain_table": gain_table,
            "best_rate_table": best_rate_table}


def _fmt_pct(x) -> str:
    return "-" if x is None else f"{100.0 * x:.2f}%"


def _fmt_gain(x) -> str:
    return "-" if x is None else f"{x:.2f}%"


def _render_rows(header: list[str], rows: list[list[str]]) -> str:
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
              for i, h in enumerate(header)]
    def line(cells):
        return "  ".join(c.rjust(w) for c, w in zip(cells, widths))
    out = [line(header), line(["-" * w for w in widths])]
    out.extend(line(r) for r in rows)
    return "\n".join(out)


def render_report(report: dict, status: str = "complete") -> str:
    """Aligned text rendering of report_from_records output."""
    parts = [f"# status: {status}", f"# {report['note']}"]

    lls1 = sorted({ll for row in report["gain_table"]
                   for ll in row["accuracy_by_ll"]}, key=float)
    header = ["Target", "Source"] + [f"LL-{ll}" for ll in lls1] + ["% Gain"]
    rows = []
    for row in report["gain_table"]:
        cells = [row["target"], row["source"]]
        cells += [_fmt_pct(row["accuracy_by_ll"].get(ll)) for ll in lls1]
        cells.append(_fmt_gain(row["percent_gain"]))
        rows.append(cells)
    parts.append("## Accuracy by last-layer rate (inner stages frozen)")
    parts.append(_render_rows(header, rows) if rows else "(no records)")

    lls2 = sorted({ll for row in report["best_rate_table"]
                   for ll in row["alpha"]}, key=float)
    header2 = (["Target", "Source"]
               + [f"alpha_{ll}" for ll in lls2]
               + [f"beta_{ll}" for ll in lls2]
               + ["max_hi-max_lo"])
    rows2 = []
    for row in report["best_rate_table"]:
        cells = [row["target"], row["source"]]
        cells += [("-" if row["alpha"].get(ll) is None
                   else f"{row['alpha'][ll]:g}") for ll in lls2]
        cells += [("-" if row["beta"].get(ll) is None
                   else f"{row['beta'][ll]:.2f}%") for ll in lls2]
        cells.append(_fmt_pct(row["max_diff"]) if row["max_diff"] is not None
                     else "-")
        rows2.append(cells)
    parts.append("## Best inner rate and accuracy spread per last-layer rate")
    parts.append(_render_rows(header2, rows2) if rows2 else "(no records)")
    return "\n\n".join(parts) + "\n"

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
import sys
from collections import Counter
from concurrent.futures import BrokenExecutor
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .codec import decode, encode
from .data import LabeledDataset
from .model import (Checkpoint, build_staged_network, checkpoint_from_model,
                    save_checkpoint, transfer_init)
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
    """Inner rate achieving the best accuracy; ties go to the smallest rate.
    Reports pick the best LL, best scale and most voted scale by it too."""
    if not accuracy_by_il:
        raise ValueError("alpha needs at least one (il, accuracy) entry")
    return min(accuracy_by_il, key=lambda il: (-accuracy_by_il[il], il))


def spell_rate(x: float) -> str:
    """The one spelling of a rate or scale in names, paths and report keys:
    f"{x:g}" when that reads back as x, else repr(x), so that no two rates
    share a spelling."""
    short = f"{x:g}"
    return short if float(short) == x else repr(x)


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
            if not 0 < ll < math.inf:
                raise ValueError(f"last-layer rate must be positive and "
                                 f"finite, got {ll}")
        if len(set(self.ll_values)) != len(self.ll_values):
            raise ValueError(f"last-layer rates must not repeat, "
                             f"got {self.ll_values}")
        if not 0 < self.min_il <= min(self.ll_values):
            raise ValueError(f"min_il {self.min_il} must be in "
                             f"(0, {min(self.ll_values)}]")

    def il_values(self, ll: float) -> tuple[float, ...]:
        """0 plus every power of 10 from min_il up to LL (inclusive), both
        ends within a relative 1e-9, and up to 1e308, the largest power of
        10 a float holds."""
        values = [0.0]
        k = math.ceil(math.log10(self.min_il * (1 - 1e-9)))
        while k <= sys.float_info.max_10_exp and 10.0 ** k <= ll * (1 + 1e-9):
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
        for m in (*self.inner_multipliers, self.head_multiplier):
            if not 0 <= m < math.inf:
                raise ValueError(f"multipliers must be >= 0 and finite, got {m}")
        if any(b < a for a, b in zip(self.inner_multipliers,
                                     self.inner_multipliers[1:])):
            raise ValueError(f"inner multipliers must be non-decreasing, "
                             f"got {self.inner_multipliers}")
        if not self.scales:
            raise ValueError("graduated sweep needs at least one scale")
        for s in self.scales:
            if not 0 < s < math.inf:
                raise ValueError(f"scales must be positive and finite, got {s}")
        if list(self.scales) != sorted(self.scales) or len(set(self.scales)) != len(self.scales):
            raise ValueError(f"scales must be strictly ascending, got {self.scales}")
        if self.layout not in ("per_stage", "shared_first"):
            raise ValueError(f"unknown layout {self.layout!r}")


def graduated_schedule(spec: GraduatedSpec, scale: float,
                       inner_stage_names: Sequence[str],
                       head_name: str) -> MultiplierSchedule:
    """Multiplier schedule for one scale of a graduated sweep."""
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

    kind: str     # "source" | "ll" | "grid" | "graduated" | "baseline" | "custom"
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
        return encode(self)

    @classmethod
    def from_dict(cls, d) -> "RunRecord":
        """Parse one ledger object; a missing, unknown or mistyped field
        raises DecodeError."""
        return decode(cls, d)


def append_records(path, records: Sequence[RunRecord]) -> None:
    with open(path, "a", encoding="utf-8") as f:
        for rec in records:
            f.write(json.dumps(rec.to_dict(), sort_keys=True) + "\n")


def scan_ledger(path) -> tuple[list[RunRecord], list[int]]:
    """Parse a ledger: its records, and the 1-based numbers of corrupt lines.

    A line is corrupt if it is not UTF-8, not JSON, or not a record with
    every field present, known and well typed; it is skipped. Blank lines
    are ignored.
    """
    records, bad_lines = [], []
    with open(path, "rb") as f:
        for lineno, raw in enumerate(f, start=1):
            try:
                line = raw.decode("utf-8").strip()
                if line:
                    records.append(RunRecord.from_dict(json.loads(line)))
            except (ValueError, RecursionError):   # DecodeError included
                bad_lines.append(lineno)
    return records, bad_lines


def read_ledger(path) -> tuple[list[RunRecord], int]:
    """Parse a ledger; corrupt lines are skipped and counted."""
    records, bad_lines = scan_ledger(path)
    return records, len(bad_lines)


# --- experiment runners --------------------------------------------------------

@dataclass
class FinetuneTask:
    """A target learning task: id plus its train/validation datasets.

    prefixes memoizes the frozen-stage output over the two sets by
    optim.prefix_key, so every job that freezes the same stages with the
    same weights computes it once; run_job hands it to train, which fills it.
    """

    task_id: str
    train: LabeledDataset
    val: LabeledDataset
    prefixes: dict = field(default_factory=dict, compare=False, repr=False)


@dataclass
class JobFailure:
    job: str
    error: str          # "<exception type>: <message>", or why the worker died
    message: str = field(default="", compare=False)    # <message> alone


@dataclass(frozen=True)
class JobInputs:
    """What the jobs of one call share. Pool workers inherit it by fork, and
    each worker fills its own copy of the tasks' prefix memos."""

    source: Checkpoint | tuple    # or (stage specs, input_shape): random init
    tasks: Mapping[str, FinetuneTask]
    policy: LrPolicy
    batch_size: int
    momentum: float


@dataclass(frozen=True)
class JobSpec:
    """One job: all that a pool worker is sent for it."""

    kind: str     # "source" | "ll" | "grid" | "graduated" | "baseline" | "custom"
    name: str                     # names the job in a JobFailure
    task_id: str
    schedule: MultiplierSchedule
    seed: int                     # the seed recorded in the ledger
    data_seed: int                # shuffles the training set
    init_seed: int                # the new head's draws, or a random init's
    ll: float | None = None
    il: float | None = None
    scale: float | None = None
    save_path: str | os.PathLike | None = None
    checkpoint: str | None = None  # save_path as the ledger refers to it


def run_job(inputs: JobInputs, spec: JobSpec) -> RunRecord:
    """init -> train -> save the best model -> its RunRecord.

    From a checkpoint the model is transfer_init's, and its saved checkpoint
    names the training set's domain; a random init's names the task id. The
    frozen prefix comes from the task's memo, computed on a miss.
    """
    task = inputs.tasks[spec.task_id]
    src, labels = inputs.source, task.train.num_labels
    if isinstance(src, Checkpoint):
        model = transfer_init(src, labels, spec.init_seed)
        source = str(src.extra.get("domain", src.header.seed))
        domain = task.train.domain_name
    else:
        model = build_staged_network(*src, labels, spec.init_seed)
        source, domain = "random-init", spec.task_id
    result = train(model, task.train, task.val, spec.schedule, inputs.policy,
                   inputs.batch_size, spec.data_seed, momentum=inputs.momentum,
                   prefixes=task.prefixes)
    if spec.save_path is not None:
        ckpt = checkpoint_from_model(result.best_model, {"domain": domain})
        save_checkpoint(ckpt, spec.save_path)
    return RunRecord(kind=spec.kind, task=spec.task_id, source=source,
                     seed=spec.seed, final_accuracy=result.final_accuracy,
                     best_accuracy=result.best_accuracy, ll=spec.ll,
                     il=spec.il, scale=spec.scale, checkpoint=spec.checkpoint)


def rate_schedule(stage_names: Sequence[str], policy: LrPolicy, ll: float,
                  il: float, scale: float = 1.0) -> MultiplierSchedule:
    """The last stage at rate ll and every other at rate il: the multipliers
    that give those rates at iteration 0 of policy."""
    return uniform_schedule(stage_names, stage_names[-1], il / policy.base_lr,
                            ll / policy.base_lr, scale)


def transfer_seeds(*parts) -> dict:
    """A transfer job's data_seed and init_seed, each derived from parts."""
    return dict(data_seed=derive_seed(*parts, "data"),
                init_seed=derive_seed(*parts, "head"))


def _rate_job(source: Checkpoint, policy: LrPolicy, task_id: str, kind: str,
              ll: float, il: float, seed: int, **save) -> JobSpec:
    """A job training the head at rate ll and every inner stage at rate il."""
    return JobSpec(kind, f"ll={spell_rate(ll)} il={spell_rate(il)}", task_id,
                   rate_schedule(source.stage_names, policy, ll, il), seed,
                   **transfer_seeds(seed), ll=ll, il=il, **save)


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


def grid_jobs(source: Checkpoint, task_id: str, grid: GridSpec,
              policy: LrPolicy, seed: int) -> list[JobSpec]:
    """One job per (LL, IL) cell of the grid, all with the same seeds."""
    return [_rate_job(source, policy, task_id, "grid", ll, il, seed)
            for ll in grid.ll_values for il in grid.il_values(ll)]


def scale_jobs(source: Checkpoint, task_ids: Sequence[str],
               spec: GraduatedSpec, master_seed: int,
               baseline_ll_multiplier: float = 10.0,
               out_dir=None) -> list[JobSpec]:
    """|task_ids| x |scales| graduated jobs, then one head-only baseline each.

    Each job is seeded from (master_seed, task id, scale). With out_dir set,
    each saves its best model to out_dir/checkpoints/. Empty or repeated
    task ids, or a schedule that does not fit the stages, raise ValueError.
    """
    if not task_ids:
        raise ValueError("scale sweep needs at least one task")
    if len(set(task_ids)) != len(task_ids):
        raise ValueError(f"task ids must be unique, got {list(task_ids)}")
    *inner, head = source.stage_names
    schedules = {s: graduated_schedule(spec, s, inner, head)
                 for s in spec.scales}
    baseline = MultiplierSchedule(
        {name: 0.0 for name in inner} | {head: baseline_ll_multiplier})
    specs = [_sweep_job("graduated", f"{t} scale={spell_rate(s)}", t, schedule,
                        (master_seed, t, s), out_dir,
                        f"{t}_scale{spell_rate(s)}.ftlb", scale=s)
             for t in task_ids for s, schedule in schedules.items()]
    return specs + [_sweep_job("baseline", f"{t} baseline", t, baseline,
                               (master_seed, t, "baseline"), out_dir,
                               f"{t}_baseline.ftlb",
                               ll=baseline_ll_multiplier, il=0.0)
                    for t in task_ids]


def _sweep_job(kind, name, task_id, schedule, parts, out_dir, filename,
               **fields) -> JobSpec:
    """A job seeded from parts; it saves to out_dir/checkpoints if set."""
    if out_dir is not None:
        fields.update(save_path=os.path.join(out_dir, "checkpoints", filename),
                      checkpoint=f"checkpoints/{filename}")
    return JobSpec(kind, name, task_id, schedule, derive_seed(*parts, "data"),
                   **transfer_seeds(*parts), **fields)


def run_jobs(inputs: JobInputs, specs: Sequence[JobSpec],
             workers: int = 1) -> tuple[list[RunRecord], list[JobFailure]]:
    """Run every job; records and failures come back in submission order.

    With workers > 1 the jobs run in up to that many forked processes; only
    the specs and the outcomes are pickled. A job that raises, or whose
    worker process dies, becomes a JobFailure.
    """
    if workers > 1 and len(specs) > 1:
        outcomes = _pool_outcomes(inputs, specs, workers)
    else:
        outcomes = [_outcome(inputs, spec) for spec in specs]
    return ([r for r, _ in outcomes if r is not None],
            [f for _, f in outcomes if f is not None])


def _outcome(inputs: JobInputs, spec: JobSpec):
    try:
        return run_job(inputs, spec), None
    except Exception as e:  # noqa: BLE001 - partial-failure policy
        return None, JobFailure(spec.name, f"{type(e).__name__}: {e}", str(e))


_worker_inputs = None   # the JobInputs, in a pool worker


def _enter_worker(inputs: JobInputs) -> None:
    global _worker_inputs
    _worker_inputs = inputs


def _worker_outcome(spec: JobSpec):
    return _outcome(_worker_inputs, spec)


def _pool_outcomes(inputs, specs, workers):
    # Imported here: runs without a pool need not load multiprocessing (about
    # 1 MB). Fork hands inputs to the workers unpickled. It is spelled out
    # because Python 3.14 no longer makes it the default start method.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(min(workers, len(specs)),
                             mp_context=multiprocessing.get_context("fork"),
                             initializer=_enter_worker,
                             initargs=(inputs,)) as pool:
        futures = [pool.submit(_worker_outcome, spec) for spec in specs]
        try:
            return [_pool_outcome(f, spec) for f, spec in zip(futures, specs)]
        finally:
            pool.shutdown(cancel_futures=True)


def _pool_outcome(future, spec: JobSpec):
    try:
        return future.result()
    except BrokenExecutor:   # the pool lost a worker process
        return None, JobFailure(spec.name, "worker process died")


@dataclass
class LlSummary:
    """Per-LL derived metrics for a grid; beta is None if an accuracy is 0."""

    ll: float
    accuracy_by_il: dict[float, float]
    beta: float | None
    alpha: float
    max_accuracy: float


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
                   momentum: float = 0.9, workers: int = 1) -> GridResult:
    """One finetuning run per (LL, IL) cell plus derived per-LL metrics.

    Every cell uses the same data/head seeds (fixed-seed methodology), so
    an IL=0 cell reproduces run_ll_experiment for the same LL bit-exactly.
    """
    inputs = JobInputs(source, {task.task_id: task}, policy, batch_size, momentum)
    records, failures = run_jobs(
        inputs, grid_jobs(source, task.task_id, grid, policy, seed), workers)
    # every record has the task's id and the source's name: one table or none
    by_ll_il = next(iter(_rate_table(records).values()), {})
    return GridResult(records, *_ll_summaries(by_ll_il), failures)


def _rate_table(records: Sequence[RunRecord]) -> dict:
    """(task, source) -> LL -> IL -> accuracy; a cell's last record wins."""
    table: dict = {}
    for r in records:
        if r.kind in ("ll", "grid") and r.ll is not None and r.il is not None:
            table.setdefault((r.task, r.source), {}).setdefault(
                r.ll, {})[r.il] = r.best_accuracy
    return table


def _ll_summaries(by_ll_il: Mapping[float, dict]) -> tuple[dict, float | None]:
    """Each LL's LlSummary, in ascending LL, and GridResult's max_diff."""
    summaries = {}
    for ll, by_il in sorted(by_ll_il.items()):
        accs = list(by_il.values())
        summaries[ll] = LlSummary(ll, by_il, beta(accs) if min(accs) > 0
                                  else None, alpha(by_il), max(accs))
    maxima = [s.max_accuracy for s in summaries.values()]
    return summaries, maxima[-1] - maxima[0] if len(maxima) >= 2 else None


# --- learning-rate recommendation ---------------------------------------------

# (minimum images/label, inner rate) steps: thresholds strictly increasing
# from 0, rates non-decreasing, so the recommendation is monotone
RECOMMENDER_BREAKPOINTS = ((0.0, 1e-4), (25.0, 1e-3), (250.0, 1e-2),
                           (2500.0, 0.1))


def recommend_multipliers(images_per_label: float, ll: float) -> float:
    """Heuristic inner rate for a target dataset, from its images/label: the
    rate of the last breakpoint it reaches, capped at the last-layer rate.

    Monotone non-decreasing in images/label and never above the
    last-layer rate.
    """
    if not images_per_label > 0:
        raise ValueError(f"images/label must be positive, got {images_per_label}")
    if not ll > 0:
        raise ValueError(f"last-layer rate must be positive, got {ll}")
    rate = [r for threshold, r in RECOMMENDER_BREAKPOINTS
            if images_per_label >= threshold][-1]
    return min(rate, ll)


# --- reports -------------------------------------------------------------------

ACCURACY_NOTE = "accuracy = best top-1 over evaluation points"


def report_from_records(records: Sequence[RunRecord]) -> dict:
    """Recompute every reported number from raw ledger records: a gain table
    (accuracy per LL with inner stages frozen, and % gain) and a best-rate
    table (alpha, beta, max accuracy per LL, and max_diff), both read from
    one rate table, and a scale_sweep section if any record is graduated."""
    gain_table, best_rate_table = [], []
    for (task, source), by_ll_il in sorted(_rate_table(records).items()):
        by_ll = {ll: ils[0.0] for ll, ils in by_ll_il.items() if 0.0 in ils}
        if len(by_ll) >= 2:
            best_ll = alpha(by_ll)
            other = min(a for ll, a in by_ll.items() if ll != best_ll)
            gain = percent_gain(by_ll[best_ll], other) if other > 0 else None
            gain_table.append({
                "target": task, "source": source, "best_ll": best_ll,
                "percent_gain": gain, "accuracy_by_ll": {
                    spell_rate(ll): a for ll, a in sorted(by_ll.items())}})
        summaries, max_diff = _ll_summaries(
            {ll: ils for ll, ils in by_ll_il.items() if len(ils) >= 2})
        if summaries:
            best_rate_table.append({
                "target": task, "source": source, "max_diff": max_diff} | {
                    name: {spell_rate(ll): getattr(s, name)
                           for ll, s in summaries.items()}
                    for name in ("alpha", "beta", "max_accuracy")})

    report = {"note": ACCURACY_NOTE, "gain_table": gain_table,
              "best_rate_table": best_rate_table}
    graduated = [r for r in records if r.kind == "graduated"
                 and r.scale is not None]
    if graduated:
        report["scale_sweep"] = _scale_sweep_analysis(
            graduated, [r for r in records if r.kind == "baseline"])
    return report


def _scale_sweep_analysis(graduated: Sequence[RunRecord],
                          baselines: Sequence[RunRecord]) -> dict:
    """Mean accuracy with each task at its best scale, at each fixed scale
    and at the most frequent best scale, over the tasks that have a record
    at every scale; and the mean of the frozen-inner baselines."""
    table: dict[str, dict[float, float]] = {}
    for r in graduated:
        table.setdefault(r.task, {})[r.scale] = r.best_accuracy
    scales = sorted({r.scale for r in graduated})
    complete = {t: by for t, by in table.items() if len(by) == len(scales)}
    best = {t: alpha(by) for t, by in complete.items()}
    fixed = ({s: sum(by[s] for by in complete.values()) / len(complete)
              for s in scales} if complete else {})
    mfbs = alpha(Counter(best.values())) if best else None
    return {
        "jobs_executed": len(graduated),
        "scales": scales,
        "task_ids": list(dict.fromkeys(r.task for r in [*graduated, *baselines])),
        "best_per_task": {t: {"scale": s, "accuracy": complete[t][s]}
                          for t, s in sorted(best.items())},
        "best_per_task_mean": (sum(complete[t][s] for t, s in best.items())
                               / len(best) if best else None),
        "fixed_scale_means": {spell_rate(s): m for s, m in fixed.items()},
        "most_frequent_best_scale": mfbs,
        "most_frequent_scale_mean": fixed.get(mfbs),
        "baseline_mean": (sum(r.best_accuracy for r in baselines) / len(baselines)
                          if baselines else None),
    }


def _fmt(x, spell=lambda v: f"{v:.2f}%") -> str:
    """A report cell: "-" for a missing or undefined number."""
    return "-" if x is None else spell(x)


def _fmt_pct(x) -> str:
    return _fmt(None if x is None else 100.0 * x)


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
            + [_fmt(row["percent_gain"])]
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
             + [_fmt(row["alpha"].get(ll), spell_rate) for ll in lls2]
             + [_fmt(row["beta"].get(ll)) for ll in lls2]
             + [_fmt_pct(row["max_diff"])]
             for row in report["best_rate_table"]]
    parts.append("## Best inner rate and accuracy spread per last-layer rate")
    parts.append(_render_rows(header2, rows2) if rows2 else "(no records)")
    if "scale_sweep" in report:
        parts.append("## Scale sweep analysis\n" + json.dumps(
            report["scale_sweep"], indent=2, sort_keys=True))
    return "\n\n".join(parts) + "\n"

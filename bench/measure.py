"""Measuring process: loads one workload's inputs and runs it for a fixed time.

run.py starts this script in a fresh process, with one JSON argument
describing the job, so that the peak RSS it reports belongs to the measured
workload alone and not to set-up. It writes its findings to the result path
named in the job and prints nothing on standard output.

With tracing off it runs rounds back to back until the time is up. With
tracing on it alternates an untraced and a traced round, so the traced run
can be compared with the untraced one for both digest and wall time.

Times are reported in reference seconds. This machine's per-core speed
drifts by up to a third within a minute, in phases of a few seconds, and the
drift moves CPU-bound numpy code alike. So every timed call is bracketed by
a fixed calibration kernel (numpy only, no ftlab code), and its wall time is
rescaled by ``REFERENCE_S / kernel time``: a reference second is a wall
second at the speed where the kernel takes ``REFERENCE_S``. Raw wall times
stay in the run record. DESIGN.md gives the measurements behind this.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import threading
import time

import numpy as np

# The kernel runs long enough to take a sixth or so of each run: sampled
# more briefly, between two-second calls, it missed speed phases that began
# or ended inside the call, and the 20-second spread of normalized training
# throughput was 8% instead of 5%.
KERNEL_ITERATIONS = 480
REFERENCE_S = 0.32


def _kernel_loop(iterations: int) -> None:
    rng = np.random.default_rng(0)
    x = rng.random((8, 4, 18, 18))
    w = rng.random((4, 4))
    for _ in range(iterations):
        for di in range(3):
            for dj in range(3):
                y = np.einsum("fc,nchw->nfhw", w, x[:, :, di:di + 16, dj:dj + 16],
                              optimize=True)
        np.maximum(y, 0.0)


def reference_kernel(threads: int) -> float:
    """Wall seconds of a fixed small-array numpy loop, like ftlab's conv kernel,
    split over ``threads`` threads running at the same time."""
    iterations = KERNEL_ITERATIONS // threads
    if threads == 1:
        t0 = time.perf_counter()
        _kernel_loop(iterations)
        return time.perf_counter() - t0
    workers = [threading.Thread(target=_kernel_loop, args=(iterations,))
               for _ in range(threads)]
    t0 = time.perf_counter()
    for t in workers:
        t.start()
    for t in workers:
        t.join()
    return time.perf_counter() - t0


class Clock:
    """Times calls, each between two runs of the reference kernel.

    The kernel runs on as many threads as the workload does, so that it
    meets the same interpreter-lock contention and samples both cores.
    """

    def __init__(self, threads: int):
        self.threads = threads
        self._last = reference_kernel(threads)

    def timed(self, fn, *args, **kwargs):
        before = self._last
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        seconds = time.perf_counter() - t0
        self._last = reference_kernel(self.threads)
        return result, seconds, REFERENCE_S * seconds / ((before + self._last) / 2)


def _threads() -> int:
    with open("/proc/self/status", encoding="ascii") as f:
        for line in f:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return 0


def _rate(r, field: int) -> float:
    """Steps (field 0) or jobs (field 1) of one round per reference second."""
    ref_s = sum(u[3] for u in r.units)
    return sum(u[field] for u in r.units) / ref_s if ref_s else 0.0


def main(job: dict) -> dict:
    sys.path.insert(0, os.path.join(job["root"], "src"))
    import spans
    import workloads

    _, load, run_round = workloads.WORKLOADS[job["workload"]]
    ctx = load(job["seed"], job["inputs"])
    recorder = spans.Recorder() if job["trace"] else None
    rounds = []        # (traced, Round, wall s, cpu s)
    threads = workloads.THREADS.get(job["workload"], 1)
    clock = Clock(threads)
    start = time.perf_counter()
    while True:
        traced = recorder is not None and len(rounds) % 2 == 1
        if traced:
            recorder.install()
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            r = run_round(ctx, job["scratch"], clock.timed)
        finally:
            if traced:
                recorder.restore()
        rounds.append((traced, r, time.perf_counter() - w0,
                       time.process_time() - c0))
        elapsed = time.perf_counter() - start
        if elapsed >= job["seconds"] and (recorder is None or len(rounds) >= 2):
            break

    errors = [e for _, r, _, _ in rounds for e in r.errors]
    plain = [r for traced, r, _, _ in rounds if not traced]
    if len({r.digest for r in plain}) != 1:
        errors.append("untraced rounds of one run gave different result digests")
    if any(r.digest != plain[0].digest for traced, r, _, _ in rounds if traced):
        errors.append("traced round digest differs from the untraced one")
    accs = [a for _, r, _, _ in rounds for a in r.best_accuracies]
    result = {
        "rounds": [{"traced": t, "wall_s": w, "cpu_s": c, "units": r.units,
                    "digest": r.digest} for t, r, w, c in rounds],
        "train_steps_per_ref_s": [_rate(r, 0) for r in plain],
        "jobs_per_ref_s": [_rate(r, 1) for r in plain],
        "best_acc_mean": statistics.fmean(accs) if accs else 0.0,
        "attempted": sum(r.attempted for _, r, _, _ in rounds),
        "failed": sum(r.failed for _, r, _, _ in rounds),
        "errors": errors,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "threads": _threads(),
    }
    if recorder is not None:
        traced = [(r, w, c) for t, r, w, c in rounds if t]
        layer = spans.layer_metrics(
            recorder.spans, len(traced), workers=threads,
            cpu_s=sum(c for _, _, c in traced), wall_s=sum(w for _, w, _ in traced))
        ref_s = lambda rs: statistics.median(sum(u[3] for u in r.units) for r in rs)
        layer["trace.overhead_frac"] = ref_s([r for r, _, _ in traced]) / ref_s(plain) - 1
        result["layer"] = layer
        result["spans"] = len(recorder.spans)
        recorder.dump(job["spans_path"])
    return result


if __name__ == "__main__":
    job = json.loads(sys.argv[1])
    result = main(job)
    with open(job["result_path"], "w", encoding="utf-8") as f:
        json.dump(result, f)

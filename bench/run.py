"""Benchmark of ftlab, driven from outside through its public API and CLI.

Usage, from the root of an ftlab checkout:

    python3 bench/run.py --workload {source_train,head_only,sweep} \\
        --seed N --seconds S --trace {0,1}

The run generates the workload's inputs from the seed and times that set-up
several times, reporting the median in reference seconds (see measure.py).
It then starts bench/measure.py in a fresh process, which runs the workload
in a closed loop for S seconds and checks every output. The last line on standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones of BENCHMARK.json; with ``--trace 1`` they
are the per-layer ones, taken from spans recorded around ftlab's functions.

A full record of each run (machine, steal ticks, set-up times, every round,
every metric) is written to ``.bench_out/<workload>-seed<N>-trace<T>.json``
and the spans of a traced run to ``.bench_out/spans-<workload>.jsonl.gz``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_MIN_REPEATS = 3     # set-up runs at least this often, and more, up to
SETUP_MAX_REPEATS = 10    # this often, until it has taken this long in total
SETUP_MIN_S = 1.0
DEADLINE_S = 170          # the whole run, set-up included, ends before this
THREAD_ENV = ("THREAD", "OMP_", "OPENBLAS", "MKL_", "BLIS", "GOTO")


def read_cpu_ticks() -> dict:
    """Aggregate CPU ticks from /proc/stat (read only): steal and total."""
    with open("/proc/stat", encoding="ascii") as f:
        fields = [int(x) for x in f.readline().split()[1:9]]
    return {"steal": fields[7], "total": sum(fields)}


def machine_record() -> dict:
    import numpy as np

    cpu = ""
    with open("/proc/cpuinfo", encoding="utf-8") as f:
        for line in f:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if any(t in k for t in THREAD_ENV)},
    }


def parse_args(argv):
    p = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    t_start = time.perf_counter()
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "ftlab", "__init__.py")):
        print("error: no ftlab source at src/ftlab; run from the root of an "
              "ftlab checkout", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    sys.path.insert(0, os.path.join(root, "src"))
    import workloads
    from measure import Clock

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    setup = workloads.WORKLOADS[args.workload][0]
    out_dir = os.path.join(root, ".bench_out")
    work = os.path.join(out_dir, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    ticks0 = read_cpu_ticks()
    try:
        # Set-up is timed several times and reported as the median, in
        # reference seconds like every other time (see measure.py). A traced
        # run reports no set-up time, so it sets up once.
        clock = Clock(threads=1)
        setup_s = []       # (wall s, reference s) per set-up
        inputs = None
        while not setup_s or not args.trace and (
                len(setup_s) < SETUP_MIN_REPEATS
                or len(setup_s) < SETUP_MAX_REPEATS
                and sum(wall for wall, _ in setup_s) < SETUP_MIN_S):
            if inputs:
                shutil.rmtree(inputs)
            inputs = os.path.join(work, f"inputs{len(setup_s)}")
            os.makedirs(inputs)
            _, wall, ref = clock.timed(setup, args.seed, inputs)
            setup_s.append((wall, ref))
        scratch = os.path.join(work, "scratch")
        os.makedirs(scratch)
        job = {"root": root, "workload": args.workload, "seed": args.seed,
               "seconds": args.seconds, "trace": args.trace, "inputs": inputs,
               "scratch": scratch, "result_path": os.path.join(work, "result.json"),
               "spans_path": os.path.join(out_dir, f"spans-{args.workload}.jsonl.gz")}
        budget = DEADLINE_S - (time.perf_counter() - t_start)
        child = subprocess.run(
            [sys.executable, os.path.join(HERE, "measure.py"), json.dumps(job)],
            cwd=root, stdout=sys.stderr, timeout=budget, check=False)
        if child.returncode != 0:
            print(f"error: measuring process exited {child.returncode}",
                  file=sys.stderr)
            return 1
        with open(job["result_path"], encoding="utf-8") as f:
            res = json.load(f)
    except subprocess.TimeoutExpired:
        print("error: measuring process overran the time limit", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    ticks1 = read_cpu_ticks()

    if args.trace:
        values = res["layer"]
    else:
        values = {
            "setup_s": statistics.median(ref for _, ref in setup_s),
            "train_steps_per_ref_s": statistics.median(res["train_steps_per_ref_s"]),
            "jobs_per_ref_s": statistics.median(res["jobs_per_ref_s"]),
            "peak_rss_mb": res["peak_rss_mb"],
            "best_acc_mean": res["best_acc_mean"],
            "job_success_frac": (res["attempted"] - res["failed"]) / res["attempted"],
        }
    listed = spec["per_layer" if args.trace else "end_to_end"]
    if {m["name"] for m in listed} != set(values):
        print("error: measured metrics do not match BENCHMARK.json: "
              f"{sorted({m['name'] for m in listed} ^ set(values))}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in listed}
    steal = ticks1["steal"] - ticks0["steal"]
    total = ticks1["total"] - ticks0["total"]
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "machine": dict(machine_record(), threads_in_measuring_process=res["threads"]),
              "steal_ticks": steal, "total_ticks": total,
              "steal_frac": steal / total if total else 0.0,
              "setup_s": setup_s, "rounds": res["rounds"], "errors": res["errors"],
              "metrics": metrics}
    with open(os.path.join(out_dir, f"{tag}.json"), "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1)
    for e in res["errors"]:
        print(f"check failed: {e}", file=sys.stderr)
    print(f"# {tag}: steal {100 * record['steal_frac']:.2f}% of CPU ticks, "
          f"{len(res['rounds'])} rounds, record in .bench_out/{tag}.json")
    print(json.dumps({"correct": not res["errors"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

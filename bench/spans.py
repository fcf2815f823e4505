"""Span recorder that traces ftlab from outside, and the per-layer metrics.

``Recorder.install()`` replaces ftlab's public functions and layer methods
with timing wrappers. A function is replaced under every name that an ftlab
module holds for it: ``ftlab.model`` binds ``nn_core.forward`` and
``nn_core.backward``, ``ftlab.experiment`` binds ``train``, ``transfer_init``
and ``save_checkpoint``, so patching only the defining module would miss
those calls. ``ThreadPoolExecutor.submit`` is wrapped too, so a pool job is a
span on its worker thread whose parent is the span that submitted it.
``restore()`` puts every original back.

A span is ``(id, parent id, thread id, name, start, end, attrs)``. Spans stay
in memory until ``dump``. A span's self time is its duration minus the part
of its interval that its child spans cover, merged, so children running on
two pool threads at once are not counted twice.
"""

from __future__ import annotations

import concurrent.futures
import functools
import gzip
import inspect
import itertools
import json
import math
import os
import statistics
import sys
import threading
from collections import defaultdict
from time import perf_counter

from ftlab import binio, cli, data, experiment, model, nn_core, optim

LAYER_KINDS = {
    nn_core.Conv2d: "conv2d", nn_core.MaxPool: "max-pool", nn_core.Relu: "relu",
    nn_core.GlobalAvgPool: "global-average-pool", nn_core.Dense: "dense",
}
FLOAT_BYTES = 8   # ftlab computes in float64


class Recorder:
    """Collects spans from the wrapped ftlab calls on every thread."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._next_id = itertools.count(1).__next__
        self._local = threading.local()
        self._undo: list[tuple] = []

    # --- recording -------------------------------------------------------------

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.frozen_stages = frozenset()
            local.frozen_layers = frozenset()
        return local

    def _call(self, name, fn, args, kwargs, attrs=None, parent=None):
        stack = self._state().stack
        if parent is None:
            parent = stack[-1] if stack else 0
        sid = self._next_id()
        stack.append(sid)
        done = False
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
            done = True
            return result
        finally:
            t1 = perf_counter()
            stack.pop()
            extra = attrs(args, kwargs, result) if attrs and done else None
            self.spans.append((sid, parent, threading.get_ident(), name, t0, t1,
                               extra))

    def _wrap(self, fn, name, attrs=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(name, fn, args, kwargs, attrs)
        return traced

    def _replace(self, owner, attr, make):
        """Swap ``owner.attr`` under every ftlab name that holds it."""
        original = vars(owner).get(attr)
        if original is None:
            return          # gone from this version of ftlab: its metrics read 0
        replacement = make(original)
        holders = [owner] + [m for n, m in sys.modules.items()
                             if n == "ftlab" or n.startswith("ftlab.")]
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, key, replacement)
                    self._undo.append((holder, key, original))

    def patch(self, owner, attr, name, attrs=None):
        self._replace(owner, attr, lambda fn: self._wrap(fn, name, attrs))

    def restore(self):
        for holder, key, original in reversed(self._undo):
            setattr(holder, key, original)
        self._undo.clear()

    # --- what gets wrapped -------------------------------------------------------

    def install(self):
        local = self._state

        def frozen_flag(args, kwargs, result):
            return {"frozen": id(args[0]) in local().frozen_layers}

        def shapes_fwd(args, kwargs, result):
            return {"x": args[1].shape, "w": args[0].w.shape}

        def shapes_bwd(args, kwargs, result):
            return {"x": result[0].shape, "w": args[0].w.shape,
                    "frozen": id(args[0]) in local().frozen_layers}

        for cls, kind in LAYER_KINDS.items():
            fwd = shapes_fwd if kind in KERNEL_WORK else None
            bwd = shapes_bwd if kind in KERNEL_WORK else frozen_flag
            self.patch(cls, "forward", f"nn_core.{kind}.fwd", fwd)
            self.patch(cls, "backward", f"nn_core.{kind}.bwd", bwd)
        self.patch(nn_core, "softmax_cross_entropy", "nn_core.softmax_xent")
        self.patch(nn_core, "forward", "nn_core.forward")

        def grad_sizes(args, kwargs, result):
            frozen = local().frozen_stages
            total = sum(g.size for g in result.values())
            dead = sum(g.size for k, g in result.items()
                       if k.split("/", 1)[0] in frozen)
            return {"grad": total, "frozen_grad": dead}

        self.patch(nn_core, "backward", "nn_core.backward", grad_sizes)
        self.patch(optim, "sgd_step", "optim.sgd_step")
        self.patch(optim, "evaluate", "optim.evaluate",
                   lambda a, k, r: {"examples": len(a[1] if len(a) > 1
                                                    else k["dataset"])})
        self._replace(optim, "train", self._traced_train)
        self.patch(model.StagedModel, "clone", "model.clone")
        self.patch(model, "transfer_init", "model.transfer_init")
        self.patch(model, "save_checkpoint", "model.save_checkpoint",
                   lambda a, k, r: {"bytes": os.path.getsize(
                       a[1] if len(a) > 1 else k["path"])})
        self.patch(model, "load_checkpoint", "model.load_checkpoint",
                   lambda a, k, r: {"bytes": os.path.getsize(
                       a[0] if a else k["path"])})
        self.patch(data, "load_dataset", "data.load_dataset",
                   lambda a, k, r: {"examples": len(r)})
        self.patch(data, "partition_domain", "data.partition_domain")
        # magic + rank byte + u32 dims + float32 data, as binio writes them
        self.patch(binio, "load_tensor_file", "binio.load_tensor_file",
                   lambda a, k, r: {"bytes": 5 + 4 * r.ndim + 4 * r.size})
        for fn in ("run_ll_experiment", "run_il_ll_grid", "scale_sweep",
                   "append_records", "report_from_records", "render_report"):
            self.patch(experiment, fn, f"experiment.{fn}")
        self.patch(cli, "main", "cli.main")
        self._replace(concurrent.futures.ThreadPoolExecutor, "submit",
                      self._traced_submit)

    def _traced_train(self, original):
        """train(): marks the stages its schedule freezes for backward spans."""
        signature = inspect.signature(original)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            bound = signature.bind(*args, **kwargs).arguments
            schedule, net = bound["schedule"], bound["model"]
            frozen = frozenset(n for n, m in schedule.stage_multipliers.items()
                               if m * schedule.scale == 0.0)
            local = self._state()
            local.frozen_stages = frozen
            local.frozen_layers = frozenset(
                id(layer) for stage in net.stages if stage.name in frozen
                for layer in _layers(stage.layers))
            steps = bound["policy"].total_iterations
            try:
                return self._call("optim.train", original, args, kwargs,
                                  lambda a, k, r: {"steps": steps})
            finally:
                local.frozen_stages = local.frozen_layers = frozenset()
        return traced

    def _traced_submit(self, original):
        recorder = self

        @functools.wraps(original)
        def submit(executor, fn, /, *args, **kwargs):
            stack = recorder._state().stack
            parent = stack[-1] if stack else 0
            queued = perf_counter()

            def job(*a, **k):
                wait = perf_counter() - queued
                return recorder._call("experiment.job", fn, a, k,
                                      lambda *_: {"wait_s": wait}, parent)
            return original(executor, job, *args, **kwargs)
        return submit

    def dump(self, path):
        """Write every span as one JSON line, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8") as f:
            for sid, parent, thread, name, t0, t1, attrs in self.spans:
                f.write(json.dumps({"id": sid, "parent": parent, "thread": thread,
                                    "name": name, "start": t0, "end": t1,
                                    "attrs": attrs}) + "\n")


def _layers(layers):
    for layer in layers:
        yield layer
        yield from _layers(getattr(layer, "inner", ()))


# --- per-layer metrics ------------------------------------------------------------

def _self_times(spans):
    """Map span id -> duration minus the merged cover of its children."""
    children = defaultdict(list)
    for s in spans:
        children[s[1]].append((s[4], s[5]))
    out = {}
    for sid, _, _, _, t0, t1, _ in spans:
        covered = 0.0
        run_start = run_end = None
        for a, b in sorted(children.get(sid, ())):
            a, b = max(a, t0), min(b, t1)
            if b <= a:
                continue
            if run_end is None or a > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = a, b
            else:
                run_end = max(run_end, b)
        if run_end is not None:
            covered += run_end - run_start
        out[sid] = (t1 - t0) - covered
    return out


def _under_evaluate(spans):
    """Span ids whose ancestors include optim.evaluate."""
    by_id = {s[0]: s for s in spans}
    memo = {0: False}

    def walk(sid):
        chain = []
        while sid not in memo:
            s = by_id.get(sid)
            if s is None:
                memo[sid] = False
                break
            if s[3] == "optim.evaluate":
                memo[sid] = True
                break
            chain.append(sid)
            sid = s[1]
        result = memo[sid]
        for c in chain:
            memo[c] = result
        return result

    return {s[0] for s in spans if walk(s[1])}


def _conv_work(x, w):
    """Computed FLOPs and compulsory bytes of one stride-1 same-size conv forward."""
    n, c, h, wd = x
    f, _, k, _ = w
    flops = 2 * n * f * c * k * k * h * wd
    moved = FLOAT_BYTES * (n * c * h * wd + f * c * k * k + n * f * h * wd)
    return flops, moved


def _dense_work(x, w):
    n, i = x
    o = w[1]
    return 2 * n * i * o, FLOAT_BYTES * (n * i + i * o + n * o)


KERNEL_WORK = {"conv2d": _conv_work, "dense": _dense_work}


def layer_metrics(spans, traced_rounds, workers, cpu_s, wall_s):
    """Every per-layer metric from one traced run's spans.

    Metrics of a layer that the workload never calls read 0. Kernel FLOPs and
    bytes are computed from the recorded shapes, not counted by hardware: a
    forward pass does 2*N*F*C*k*k*H*W FLOPs and moves its input, weights and
    output once; a backward pass does twice the forward FLOPs (dW and dX) and
    moves dY, X, W, dX and dW once.
    """
    self_t = _self_times(spans)
    in_eval = _under_evaluate(spans)
    groups = defaultdict(list)
    for s in spans:
        name = s[3]
        if name.endswith(".fwd"):
            name += "_eval" if s[0] in in_eval else "_train"
        groups[name].append(s)

    def total(name, self_time=False):
        return sum(self_t[s[0]] if self_time else s[5] - s[4] for s in groups[name])

    def mean_us(name, self_time=True):
        g = groups[name]
        return 1e6 * total(name, self_time) / len(g) if g else 0.0

    def attr_sum(name, key):
        return sum(s[6][key] for s in groups[name] if s[6])

    def ratio(a, b):
        return a / b if b else 0.0

    steps = attr_sum("optim.train", "steps")
    jobs = len(groups["optim.train"])
    train_s = total("optim.train")
    m = {}
    for kind in LAYER_KINDS.values():
        for phase in ("fwd_train", "fwd_eval", "bwd"):
            m[f"nn_core.{kind}.{phase}.us"] = mean_us(f"nn_core.{kind}.{phase}")
    for phase in ("fwd_train", "fwd_eval", "bwd"):
        m[f"nn_core.conv2d.{phase}.calls_per_step"] = ratio(
            len(groups[f"nn_core.conv2d.{phase}"]), steps)
    m["nn_core.softmax_xent.us"] = mean_us("nn_core.softmax_xent")

    for kind, work in KERNEL_WORK.items():
        flops = {p: 0 for p in ("fwd_train", "fwd_eval", "bwd")}
        moved = dict(flops)
        for phase in flops:
            for s in groups[f"nn_core.{kind}.{phase}"]:
                f, b = work(s[6]["x"], s[6]["w"])
                if phase == "bwd":
                    f, b = 2 * f, b + FLOAT_BYTES * (math.prod(s[6]["x"])
                                                     + math.prod(s[6]["w"]))
                flops[phase] += f
                moved[phase] += b
        train_flops = flops["fwd_train"] + flops["bwd"]
        m[f"nn_core.{kind}.gflop_per_step"] = ratio(train_flops, steps) / 1e9
        m[f"nn_core.{kind}.mbytes_per_step"] = ratio(
            moved["fwd_train"] + moved["bwd"], steps) / 1e6
        busy = sum(total(f"nn_core.{kind}.{p}", True) for p in flops)
        m[f"nn_core.{kind}.gflop_per_s"] = ratio(sum(flops.values()), busy) / 1e9
        m[f"nn_core.{kind}.time_frac"] = ratio(busy, train_s)

    backward_s = total("nn_core.backward")
    frozen_s = sum(s[5] - s[4] for name, g in groups.items()
                   if name.startswith("nn_core.") and name.endswith(".bwd")
                   for s in g if s[6] and s[6]["frozen"])
    m["nn_core.backward.frozen_grad_frac"] = ratio(
        attr_sum("nn_core.backward", "frozen_grad"), attr_sum("nn_core.backward", "grad"))
    m["nn_core.backward.frozen_time_frac"] = ratio(frozen_s, backward_s)

    m["optim.sgd_step.us"] = mean_us("optim.sgd_step")
    m["optim.evaluate.examples_per_s"] = ratio(
        attr_sum("optim.evaluate", "examples"), total("optim.evaluate"))
    m["optim.evaluate.time_frac"] = ratio(total("optim.evaluate"), train_s)
    m["optim.train.self_frac"] = ratio(total("optim.train", True), train_s)

    m["model.clone.us"] = mean_us("model.clone", False)
    m["model.clone.calls_per_job"] = ratio(len(groups["model.clone"]), jobs)
    m["model.transfer_init.us"] = mean_us("model.transfer_init", False)
    m["model.save_checkpoint.us"] = mean_us("model.save_checkpoint", False)
    m["model.load_checkpoint.us"] = mean_us("model.load_checkpoint", False)
    m["model.checkpoint.bytes"] = ratio(attr_sum("model.save_checkpoint", "bytes"),
                                        len(groups["model.save_checkpoint"]))

    m["data.load_dataset.ms_per_1k"] = ratio(
        1e6 * total("data.load_dataset"), attr_sum("data.load_dataset", "examples"))
    m["data.partition_domain.ms"] = mean_us("data.partition_domain", False) / 1e3
    m["binio.load_tensor_file.us"] = mean_us("binio.load_tensor_file", False)
    m["binio.bytes_read"] = ratio(attr_sum("binio.load_tensor_file", "bytes")
                                  + attr_sum("model.load_checkpoint", "bytes"),
                                  traced_rounds)

    jobs_s = sorted(s[5] - s[4] for s in groups["experiment.job"])
    sweeps = groups["cli.main"]
    m["experiment.job_s.p50"] = statistics.median(jobs_s) if jobs_s else 0.0
    m["experiment.job_s.max"] = jobs_s[-1] if jobs_s else 0.0
    m["experiment.job_wait_s.mean"] = (
        statistics.fmean(s[6]["wait_s"] for s in groups["experiment.job"])
        if jobs_s else 0.0)
    m["experiment.pool_util"] = ratio(sum(jobs_s),
                                      total("cli.main") * workers)
    m["experiment.cpu_util"] = ratio(cpu_s, wall_s)
    m["experiment.ledger_report.ms"] = ratio(
        1e3 * sum(total(n) for n in ("experiment.append_records",
                                     "experiment.report_from_records",
                                     "experiment.render_report")), len(sweeps))
    m["cli.sweep.self_s"] = ratio(total("cli.main", True), len(sweeps))
    return m

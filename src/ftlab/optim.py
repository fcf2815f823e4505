"""SGD with a step-decay base schedule and per-stage effective learning rates.

Each stage's effective rate is base_lr(iteration) * stage_multiplier *
scale. A multiplier of 0 freezes the stage completely: neither its
parameters nor its velocities are touched, so frozen stages stay
byte-identical through any number of steps.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .data import LabeledDataset
from .model import StagedModel
from .nn_core import (ForwardCache, Gradients, _head_scores, backward,
                      check_output, run_stages, softmax_cross_entropy)


@dataclass(frozen=True)
class LrPolicy:
    """Step-decay schedule: base_lr * gamma^(iteration // step_size)."""

    base_lr: float
    step_size: int
    total_iterations: int
    gamma: float = 0.1

    def __post_init__(self):
        if not 0 < self.base_lr < math.inf:
            raise ValueError(f"base_lr must be positive and finite, "
                             f"got {self.base_lr}")
        if self.step_size <= 0:
            raise ValueError(f"step_size must be positive, got {self.step_size}")
        if self.total_iterations <= 0:
            raise ValueError(f"total_iterations must be positive, "
                             f"got {self.total_iterations}")
        if not 0 < self.gamma <= 1:
            raise ValueError(f"gamma must be in (0, 1], got {self.gamma}")

    def scaled(self, divisor: int = 10) -> "LrPolicy":
        """Derived target policy: iterations and step size divided down."""
        return LrPolicy(self.base_lr, max(1, self.step_size // divisor),
                        max(1, self.total_iterations // divisor), self.gamma)


def lr_at(policy: LrPolicy, iteration: int) -> float:
    """Base learning rate at a 0-indexed iteration."""
    if not 0 <= iteration < policy.total_iterations:
        raise ValueError(f"iteration {iteration} outside "
                         f"[0, {policy.total_iterations})")
    return policy.base_lr * policy.gamma ** (iteration // policy.step_size)


def effective_lr(policy: LrPolicy, iteration: int, stage_multiplier: float,
                 scale: float) -> float:
    """base schedule x stage multiplier x sweep scale."""
    _check_factors({"stage": stage_multiplier}, scale)
    return lr_at(policy, iteration) * stage_multiplier * scale


def _check_factors(multipliers: dict, scale: float) -> None:
    """Reject a multiplier that is not finite and >= 0, or a scale that is
    not finite and positive; multipliers maps each one's label to it."""
    for label, m in multipliers.items():
        if not 0 <= m < math.inf:
            raise ValueError(f"{label} multiplier must be >= 0 and finite, "
                             f"got {m}")
    if not 0 < scale < math.inf:
        raise ValueError(f"scale must be positive and finite, got {scale}")


@dataclass(frozen=True)
class MultiplierSchedule:
    """Per-stage learning-rate multipliers plus a global sweep scale."""

    stage_multipliers: dict[str, float]
    scale: float = 1.0

    def __post_init__(self):
        _check_factors({f"stage '{name}'": m for name, m
                        in self.stage_multipliers.items()}, self.scale)

    def check_covers(self, stage_names) -> None:
        have = set(self.stage_multipliers)
        want = set(stage_names)
        if have != want:
            missing = sorted(want - have)
            extra = sorted(have - want)
            raise ValueError(f"schedule/model stage mismatch: missing {missing}, "
                             f"unknown {extra}")


def uniform_schedule(model_stage_names, head_name: str, inner: float,
                     head: float, scale: float = 1.0) -> MultiplierSchedule:
    """Same multiplier for every inner stage, a separate one for the head."""
    mults = {name: (head if name == head_name else inner)
             for name in model_stage_names}
    return MultiplierSchedule(mults, scale)


@dataclass
class SgdState:
    """Momentum coefficient and one velocity vector laid out like the model's
    parameters (model.slices). plan holds sgd_step's last (model, schedule,
    gradients, runs)."""

    momentum: float
    velocity: np.ndarray
    plan: tuple = (None, None, None, ())

    @classmethod
    def for_model(cls, model: StagedModel, momentum: float = 0.9) -> "SgdState":
        if not 0 <= momentum < 1:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        return cls(momentum, np.zeros_like(model.params))


def lowest_trainable_stage(stage_names, schedule: MultiplierSchedule) -> int:
    """Index of the first stage with a non-zero rate, len(stage_names) if none.

    Every stage below it is frozen, so frozen_prefix() runs them once
    and backward can stop there. The scale is positive, so a multiplier
    of 0 is exactly an effective rate of 0.
    """
    return next((i for i, name in enumerate(stage_names)
                 if schedule.stage_multipliers[name] != 0), len(stage_names))


def _runs(model: StagedModel, schedule: MultiplierSchedule, grads: Gradients,
          velocity: np.ndarray) -> list[tuple]:
    """(velocity view, gradient view, parameter view, multiplier) of each run:
    a maximal group of adjacent stages with one non-zero multiplier. Rejects
    a schedule that does not cover the stages, and gradients that leave out
    a run or were not built from the model's own stages from one on."""
    schedule.check_covers(model.stage_names)
    first = len(model.stages) - len(grads.stages)
    if first < 0 or any(a is not b for a, b in zip(grads.stages,
                                                   model.stages[first:])):
        raise ValueError("gradients are not laid out like the model's "
                         "parameters from a stage on")
    starts = model.arch.stage_starts
    offset = starts[first]
    runs: list[list] = []
    for name, start, stop in zip(model.stage_names, starts, starts[1:]):
        m = schedule.stage_multipliers[name]
        if m == 0 or start == stop:
            continue
        if start < offset:
            raise ValueError(f"no gradient for stage {name!r}, whose "
                             f"multiplier is {m}")
        if runs and runs[-1][1] == start and runs[-1][2] == m:
            runs[-1][1] = stop
        else:
            runs.append([start, stop, m])
    return [(velocity[a:b], grads.vector[a - offset:b - offset],
             model.params[a:b], m) for a, b, m in runs]


def sgd_step(model: StagedModel, grads: Gradients, state: SgdState,
             schedule: MultiplierSchedule, policy: LrPolicy,
             iteration: int) -> None:
    """One momentum-SGD update: v <- mu*v - eff_lr*g; w <- w + v.

    grads are backward()'s. Three vector ops per run of _runs(); a stage at
    multiplier 0 is never touched, and a run whose rate underflows to
    exactly 0.0 is skipped at that step. The runs are found and bound to
    views of the vectors, and the gradients checked, once per model,
    schedule and Gradients object, so once per train() call.
    """
    plan = state.plan
    if plan[0] is not model or plan[1] is not schedule or plan[2] is not grads:
        state.plan = plan = (model, schedule, grads,
                             _runs(model, schedule, grads, state.velocity))
    lr = lr_at(policy, iteration)
    for v, g, p, m in plan[3]:
        eff = lr * m * schedule.scale    # effective_lr's product, in its order
        if eff == 0.0:
            continue
        v *= state.momentum
        v -= eff * g
        p += v


# evaluate() scores this many rows per batch; frozen_prefix() runs the
# frozen stages in batches of the same size
EVAL_CHUNK = 256


def _chunks(features: np.ndarray,
            labels: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """(features, labels) views cut every EVAL_CHUNK rows."""
    return [(features[i:i + EVAL_CHUNK], labels[i:i + EVAL_CHUNK])
            for i in range(0, len(labels), EVAL_CHUNK)]


def _accuracy(stages, batches) -> float:
    """Top-1 accuracy of a stage list over (features, labels) batches."""
    correct = total = 0
    for x, y in batches:
        correct += int(np.count_nonzero(run_stages(stages, x).argmax(axis=1) == y))
        total += len(y)
    return correct / total


def evaluate(model: StagedModel, dataset: LabeledDataset) -> float:
    """Top-1 accuracy over a dataset, in batches of EVAL_CHUNK rows."""
    if len(dataset) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    features = model.check_input(dataset.features)
    return _accuracy(model.stages, _chunks(features, dataset.labels))


def prefix_key(model: StagedModel, schedule: MultiplierSchedule) -> tuple:
    """All that the frozen prefix of model under schedule depends on, besides
    the data: the architecture's digest, which fixes the input shape and
    every stage's layers and parameter shapes but the head's size; the
    frozen depth; and a sha256 of the frozen stages' slice of the parameter
    vector, which covers the head's size too when the head is frozen."""
    schedule.check_covers(model.stage_names)
    depth = lowest_trainable_stage(model.stage_names, schedule)
    arch = model.arch
    return (arch.digest, depth,
            hashlib.sha256(model.params[:arch.stage_starts[depth]]).hexdigest())


@dataclass(frozen=True, eq=False)
class FrozenPrefix:
    """The output of a model's frozen stages over a training and a
    validation set. Every array is read-only."""

    rows: np.ndarray                 # the training rows
    val_batches: tuple               # (features, labels), cut every EVAL_CHUNK


def _read_only(a: np.ndarray) -> np.ndarray:
    """A read-only view of a; a itself stays writeable."""
    view = a.view()
    view.flags.writeable = False
    return view


def frozen_prefix(model: StagedModel, schedule: MultiplierSchedule,
                  train_set: LabeledDataset,
                  val_set: LabeledDataset) -> FrozenPrefix:
    """Run the stages below the lowest trainable one over both sets.

    Both sets go through in evaluate()'s batches; a non-finite training
    activation is rejected with its stage named, and so is a schedule that
    does not cover the stages. With no stage frozen the rows are the sets'
    own features.
    """
    schedule.check_covers(model.stage_names)
    frozen = model.stages[:lowest_trainable_stage(model.stage_names, schedule)]
    rows = model.check_input(train_set.features)
    val_batches = _chunks(model.check_input(val_set.features), val_set.labels)
    if frozen:
        rows = check_output(frozen, rows, np.concatenate(
            [run_stages(frozen, x) for x, _ in _chunks(rows, train_set.labels)]))
        val_batches = [(run_stages(frozen, x), y) for x, y in val_batches]
    return FrozenPrefix(_read_only(rows),
                        tuple((_read_only(x), _read_only(y))
                              for x, y in val_batches))


@dataclass
class TrainResult:
    """Outcome of one training run.

    model is the final (mutated) model; best_model is a snapshot at the
    evaluation point with the highest validation accuracy (earliest wins
    ties).
    """

    model: StagedModel
    best_model: StagedModel
    trace: list[tuple[int, float]]
    best_accuracy: float
    best_iteration: int
    final_accuracy: float


def train(model: StagedModel, train_set: LabeledDataset,
          val_set: LabeledDataset, schedule: MultiplierSchedule,
          policy: LrPolicy, batch_size: int, seed: int,
          momentum: float = 0.9, eval_every: int | None = None,
          prefixes: dict | None = None) -> TrainResult:
    """Run policy.total_iterations SGD steps with seeded shuffling.

    Validation accuracy is recorded every eval_every iterations (default
    step_size // 10, minimum 1) and at the final iteration. The model is
    updated in place.

    The stages below the lowest trainable one never change, so their
    output over both sets is computed before the first step, and every step
    and evaluation runs only the stages above. prefixes, if given, memoizes
    that output by prefix_key for calls on these two sets: a hit skips the
    computation, a miss fills it. Validation keeps evaluate()'s batches, so
    each recorded accuracy is exactly evaluate() of the model at that point.

    The training labels are checked against the head's model.num_labels
    classes once, before the first step, and every step's backward()
    writes into one Gradients of the trainable stages, so each step does
    only per-batch work. Each time a permutation of the training set is
    drawn, its rows and their labels' one-hot rows are gathered once in
    that order, so a step's batch and targets are contiguous slices: the
    price is one copy of the training rows per epoch. The step's functions
    (softmax_cross_entropy, backward, sgd_step) are looked up once per
    call, so a wrapper installed on one of them before the call sees every
    step. numpy's overflow and invalid-value warnings are silenced for the
    call: a diverging run is reported by check_output's, backward's and
    the checkpoint writer's errors instead.
    """
    if len(train_set) == 0:
        raise ValueError("training set is empty")
    if len(val_set) == 0:
        raise ValueError("validation set is empty")
    if not 0 < batch_size <= len(train_set):
        raise ValueError(f"batch_size must be in [1, {len(train_set)}], "
                         f"got {batch_size}")
    labels = train_set.labels
    if labels.min() < 0 or labels.max() >= model.num_labels:
        raise ValueError(f"training labels out of range for "
                         f"{model.num_labels} classes")
    onehot = np.eye(model.num_labels)[labels]
    prefixes = {} if prefixes is None else prefixes
    key = prefix_key(model, schedule)
    live = model.stages[lowest_trainable_stage(model.stage_names, schedule):]
    cadence = eval_every if eval_every else max(1, policy.step_size // 10)
    total = policy.total_iterations
    xent, back, step = softmax_cross_entropy, backward, sgd_step

    rng = np.random.default_rng(seed)
    size = len(train_set)
    cursor = size              # so the first step draws the first permutation
    start_iterations = model.trained_iterations
    state = SgdState.for_model(model, momentum)
    trace: list[tuple[int, float]] = []
    best_acc = -1.0
    best_iter = -1

    with np.errstate(over="ignore", invalid="ignore"):
        if key not in prefixes:
            prefixes[key] = frozen_prefix(model, schedule, train_set, val_set)
        rows, val_batches = prefixes[key].rows, prefixes[key].val_batches
        grads = Gradients(live)
        for it in range(total):
            if cursor + batch_size > size:
                order = rng.permutation(size)
                epoch_rows, epoch_targets = rows[order], onehot[order]
                cursor = 0
            stop = cursor + batch_size
            caches: list = []
            scores = _head_scores(live, epoch_rows[cursor:stop], caches)
            dlogits = xent(scores, epoch_targets[cursor:stop])
            back(live, ForwardCache(caches, dlogits), out=grads)
            step(model, grads, state, schedule, policy, it)
            cursor = stop
            done = it + 1
            if done % cadence == 0 or done == total:
                acc = _accuracy(live, val_batches)
                trace.append((done, acc))
                if acc > best_acc:
                    best_acc = acc
                    best_iter = done
                    best_params = model.params.copy()

    model.trained_iterations = start_iterations + total
    # every run evaluates at its last step, so best_params is always set
    best_model = model.clone()
    best_model.params[...] = best_params
    best_model.trained_iterations = start_iterations + best_iter
    return TrainResult(model, best_model, trace, best_acc, best_iter,
                       trace[-1][1])

"""Schedule math, SGD semantics, freeze invariance, and training loop tests."""

import math

import numpy as np
import pytest

from conftest import float64_model
from ftlab import nn_core, optim
from ftlab.data import LabeledDataset
from ftlab.model import (LayerSpec, StageSpec, build_staged_network,
                         mini_staged_spec)
from ftlab.nn_core import (Conv2d, Gradients, Stage, backward, forward,
                           run_stages)
from ftlab.optim import (LrPolicy, MultiplierSchedule, SgdState, _accuracy,
                         effective_lr, evaluate, frozen_prefix,
                         lowest_trainable_stage, lr_at, sgd_step, train,
                         uniform_schedule)

REFERENCE_POLICY = LrPolicy(base_lr=0.01, step_size=300_000,
                        total_iterations=900_000, gamma=0.1)


def dense_model(seed=0, in_dim=4, hidden=6, labels=3):
    spec = (StageSpec("hidden", (LayerSpec("dense", out_features=hidden),
                                 LayerSpec("relu"))),
            StageSpec("fc", (LayerSpec("dense"),)))
    return build_staged_network(spec, (in_dim,), labels, seed=seed)


def toy_dataset(n_per_label=8, labels=3, in_dim=4, seed=0, spread=2.0):
    rng = np.random.default_rng(seed)
    centers = rng.normal(scale=spread, size=(labels, in_dim))
    feats, ys = [], []
    for l in range(labels):
        feats.append(centers[l] + 0.3 * rng.standard_normal((n_per_label, in_dim)))
        ys.extend([l] * n_per_label)
    return LabeledDataset(np.concatenate(feats), np.array(ys),
                          tuple(f"l{i}" for i in range(labels)), "toy")


def snapshot(model):
    return {name: arr.copy() for name, arr in model.named_parameters()}


def filled_gradients(model, value):
    """Gradients laid out as backward() lays out model's, every entry value."""
    grads = Gradients(model.stages)
    grads.vector[...] = value
    return grads


class TestLrPolicy:
    def test_reference_step_decay_values(self):
        assert lr_at(REFERENCE_POLICY, 0) == 0.01
        assert lr_at(REFERENCE_POLICY, 299_999) == 0.01
        assert lr_at(REFERENCE_POLICY, 300_000) == pytest.approx(0.001, rel=1e-12)
        assert lr_at(REFERENCE_POLICY, 600_000) == pytest.approx(0.0001, rel=1e-12)

    def test_iteration_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="iteration"):
            lr_at(REFERENCE_POLICY, -1)
        with pytest.raises(ValueError, match="iteration"):
            lr_at(REFERENCE_POLICY, 900_000)

    def test_monotone_non_increasing(self):
        policy = LrPolicy(0.5, step_size=7, total_iterations=100, gamma=0.5)
        rates = [lr_at(policy, i) for i in range(100)]
        assert all(b <= a for a, b in zip(rates, rates[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            LrPolicy(0.0, 1, 1)
        with pytest.raises(ValueError):
            LrPolicy(0.1, 0, 1)
        with pytest.raises(ValueError):
            LrPolicy(0.1, 1, 1, gamma=0.0)
        with pytest.raises(ValueError):
            LrPolicy(0.1, 1, 1, gamma=1.5)

    @pytest.mark.parametrize("base_lr", [math.inf, math.nan])
    def test_non_finite_base_lr_rejected(self, base_lr):
        with pytest.raises(ValueError, match="base_lr must be positive and "
                                             "finite"):
            LrPolicy(base_lr, 1, 1)

    @pytest.mark.parametrize("total", [0, -3])
    def test_total_iterations_must_be_positive(self, total):
        with pytest.raises(ValueError, match="^total_iterations must be "
                                             f"positive, got {total}$"):
            LrPolicy(0.1, 1, total)

    def test_scaled_policy_divides_iterations_and_step(self):
        target = REFERENCE_POLICY.scaled(10)
        assert target.step_size == 30_000
        assert target.total_iterations == 90_000
        assert target.base_lr == REFERENCE_POLICY.base_lr


class TestEffectiveLr:
    def test_worked_example_exact(self):
        policy = LrPolicy(0.001, step_size=10, total_iterations=100)
        assert effective_lr(policy, 0, 2.0, 0.5) == 0.001

    def test_frozen_stage_is_zero(self):
        policy = LrPolicy(0.001, 10, 100)
        assert effective_lr(policy, 0, 0.0, 10.0) == 0.0

    def test_multiplier_8_scale_10(self):
        policy = LrPolicy(0.001, 10, 100)
        assert effective_lr(policy, 0, 8.0, 10.0) == pytest.approx(0.08, rel=1e-12)

    def test_negative_multiplier_rejected(self):
        policy = LrPolicy(0.001, 10, 100)
        with pytest.raises(ValueError, match="multiplier"):
            effective_lr(policy, 0, -1.0, 1.0)
        with pytest.raises(ValueError, match="scale"):
            effective_lr(policy, 0, 1.0, 0.0)

    @pytest.mark.parametrize("multiplier, scale, message", [
        (math.nan, 1.0, "multiplier must be >= 0 and finite, got nan"),
        (math.inf, 1.0, "multiplier must be >= 0 and finite, got inf"),
        (1.0, math.inf, "scale must be positive and finite, got inf"),
        (1.0, math.nan, "scale must be positive and finite, got nan")])
    def test_non_finite_factors_rejected(self, multiplier, scale, message):
        policy = LrPolicy(0.001, 10, 100)
        with pytest.raises(ValueError, match=message):
            effective_lr(policy, 0, multiplier, scale)
        with pytest.raises(ValueError, match=f"stage 'conv2' {message}"
                           if scale == 1.0 else message):
            MultiplierSchedule({"conv1": 1.0, "conv2": multiplier,
                                "fc": 1.0}, scale)

    def test_scale_linearity(self):
        policy = LrPolicy(0.003, 7, 50, gamma=0.5)
        for it in (0, 7, 21, 49):
            for mult in (0.0, 0.5, 2.0):
                a = effective_lr(policy, it, mult, 2.0)
                b = effective_lr(policy, it, mult, 1.0)
                assert a == pytest.approx(2.0 * b, rel=1e-12)


class TestSgdStep:
    @pytest.mark.parametrize("momentum", [1.0, -0.1, 1.5, math.nan])
    def test_momentum_outside_0_1_rejected(self, momentum):
        with pytest.raises(ValueError, match=r"^momentum must be in \[0, 1\), "
                                             f"got {momentum}$"):
            SgdState.for_model(dense_model(), momentum=momentum)

    def test_plain_gradient_step(self):
        m = dense_model(seed=1)
        policy = LrPolicy(0.1, 10, 100, gamma=1.0)
        schedule = uniform_schedule(m.stage_names, m.head_name, 1.0, 1.0)
        state = SgdState.for_model(m, momentum=0.0)
        before = snapshot(m)
        grads = filled_gradients(m, 1.0)
        sgd_step(m, grads, state, schedule, policy, 0)
        for name, arr in m.named_parameters():
            assert np.allclose(arr, before[name] - 0.1, rtol=1e-12)

    def test_two_momentum_steps_match_hand_unroll(self):
        # v1 = -eta*g ; w1 = w - eta*g
        # v2 = mu*v1 - eta*g ; w2 = w - eta*g - (mu*eta*g + eta*g)
        m = float64_model(dense_model(seed=2))    # float64 sums, as below
        policy = LrPolicy(0.05, 10, 100, gamma=1.0)
        schedule = uniform_schedule(m.stage_names, m.head_name, 1.0, 1.0)
        state = SgdState.for_model(m, momentum=0.9)
        before = snapshot(m)
        grads = filled_gradients(m, 2.0)
        sgd_step(m, grads, state, schedule, policy, 0)
        sgd_step(m, grads, state, schedule, policy, 1)
        eta_g = 0.05 * 2.0
        expected_delta = -eta_g - (0.9 * eta_g + eta_g)
        for name, arr in m.named_parameters():
            assert np.allclose(arr, before[name] + expected_delta, rtol=1e-12)

    def test_frozen_stages_untouched(self):
        # the frozen stage, below (hidden) or above (fc) the trainable one,
        # gets a real non-zero gradient, and sgd_step skips it
        ds = toy_dataset(n_per_label=2, seed=7)
        x, y = ds.features, ds.labels
        policy = LrPolicy(0.1, 10, 1000, gamma=1.0)
        for frozen, live in (("hidden", "fc"), ("fc", "hidden")):
            m = dense_model(seed=3)
            schedule = MultiplierSchedule({frozen: 0.0, live: 1.0})
            state = SgdState.for_model(m, momentum=0.9)
            before = snapshot(m)
            for it in range(50):
                _, _, cache = forward(m.stages, x, y)
                grads = backward(m.stages, cache)
                assert grads[f"{frozen}/0/w"].any()
                sgd_step(m, grads, state, schedule, policy, it)
            after = snapshot(m)
            assert np.array_equal(before[f"{frozen}/0/w"], after[f"{frozen}/0/w"])
            assert np.array_equal(before[f"{frozen}/0/b"], after[f"{frozen}/0/b"])
            assert not np.array_equal(before[f"{live}/0/w"], after[f"{live}/0/w"])
            # frozen velocities never allocated energy
            assert not state.velocity[m.slices[f"{frozen}/0/w"]].any()

    def test_all_multipliers_zero_keeps_model_bit_identical(self):
        m = dense_model(seed=4)
        policy = LrPolicy(0.1, 10, 10_000, gamma=1.0)
        schedule = uniform_schedule(m.stage_names, m.head_name, 0.0, 0.0)
        state = SgdState.for_model(m)
        before = snapshot(m)
        grads = filled_gradients(m, 1.0)
        for it in range(1000):
            sgd_step(m, grads, state, schedule, policy, it)
        for name, arr in m.named_parameters():
            assert arr.tobytes() == before[name].tobytes()

    def test_schedule_must_cover_stages_exactly(self):
        m = dense_model()
        policy = LrPolicy(0.1, 10, 100)
        state = SgdState.for_model(m)
        grads = filled_gradients(m, 0.0)
        with pytest.raises(ValueError, match="missing"):
            sgd_step(m, grads, state, MultiplierSchedule({"fc": 1.0}), policy, 0)
        full = MultiplierSchedule({"hidden": 1.0, "fc": 1.0, "ghost": 1.0})
        with pytest.raises(ValueError, match="unknown"):
            sgd_step(m, grads, state, full, policy, 0)

    def test_gradient_shape_mismatch_rejected(self):
        # gradients of another architecture, of stages renamed, and of the
        # model's stages but not from a stage on to the head
        m = dense_model()
        policy = LrPolicy(0.1, 10, 100)
        schedule = uniform_schedule(m.stage_names, m.head_name, 1.0, 1.0)
        state = SgdState.for_model(m)
        renamed = [Stage("hidden2", m.stages[0].layers), m.stages[1]]
        for grads in (filled_gradients(dense_model(hidden=5), 0.0),
                      filled_gradients(dense_model(in_dim=5), 0.0),
                      Gradients(renamed), Gradients(m.stages[:1])):
            with pytest.raises(ValueError, match="gradients are not laid out "
                                                 "like the model's parameters"):
                sgd_step(m, grads, state, schedule, policy, 0)

    def test_gradients_fit_a_model_by_its_own_stages(self):
        # the gradients of the model's stages from any one on are accepted;
        # a clone's stages have the same layout but are other objects
        m = conv_model()
        policy = LrPolicy(0.1, 10, 100)
        for d in range(len(m.stages) + 1):
            schedule = MultiplierSchedule({name: float(i >= d) for i, name
                                           in enumerate(m.stage_names)})
            grads = Gradients(m.stages[d:])
            grads.vector[...] = 1.0
            before = m.params.copy()
            sgd_step(m, grads, SgdState.for_model(m), schedule, policy, 0)
            changed = m.params != before
            start = m.arch.stage_starts[d]
            assert changed[start:].all() and not changed[:start].any(), d
        grads = filled_gradients(m.clone(), 1.0)
        with pytest.raises(ValueError, match="gradients are not laid out "
                                             "like the model's parameters"):
            sgd_step(m, grads, SgdState.for_model(m),
                     MultiplierSchedule(ALL_LIVE), policy, 0)

    def test_missing_gradient_of_a_trainable_stage_rejected(self):
        m = dense_model()
        policy = LrPolicy(0.1, 10, 100)
        state = SgdState.for_model(m)
        grads = Gradients(m.stages[1:])
        grads.vector[...] = 0.0
        # a frozen stage needs no gradient
        sgd_step(m, grads, state, MultiplierSchedule({"hidden": 0.0, "fc": 1.0}),
                 policy, 0)
        with pytest.raises(ValueError, match="no gradient for stage 'hidden'"):
            sgd_step(m, grads, state, uniform_schedule(m.stage_names, m.head_name,
                                                       1.0, 1.0), policy, 0)

    def test_gradients_are_read_only(self):
        # the vector is a gradient's one home: an entry can be neither
        # replaced, which sgd_step would not see, nor deleted
        m = dense_model()
        policy = LrPolicy(0.1, 10, 100)
        schedule = uniform_schedule(m.stage_names, m.head_name, 1.0, 1.0)
        state = SgdState.for_model(m)
        grads = filled_gradients(m, 0.0)
        view = grads["fc/0/w"]
        with pytest.raises(TypeError):
            grads["fc/0/w"] = np.ones_like(view)
        with pytest.raises(TypeError):
            del grads["hidden/0/b"]
        assert grads["fc/0/w"] is view and len(grads) == 4
        before = m.params.copy()
        sgd_step(m, grads, state, schedule, policy, 0)
        assert m.params.tobytes() == before.tobytes()
        grads["fc/0/w"][...] = 1.0        # a write into the view is seen
        sgd_step(m, grads, state, schedule, policy, 1)
        changed = m.params != before
        assert changed[m.slices["fc/0/w"]].all() and changed.sum() == view.size


class TestTrain:
    def test_fixed_seed_reproduces_bit_identical_parameters(self):
        ds = toy_dataset(seed=1)
        val = toy_dataset(seed=2)
        results = []
        for _ in range(2):
            m = dense_model(seed=5)
            schedule = uniform_schedule(m.stage_names, m.head_name, 1.0, 1.0)
            policy = LrPolicy(0.05, step_size=20, total_iterations=60)
            train(m, ds, val, schedule, policy, batch_size=6, seed=99)
            results.append(snapshot(m))
        for name in results[0]:
            assert results[0][name].tobytes() == results[1][name].tobytes()

    def test_all_frozen_training_is_a_no_op(self):
        ds = toy_dataset(seed=3)
        m = dense_model(seed=6)
        initial_acc = evaluate(m, ds)
        schedule = uniform_schedule(m.stage_names, m.head_name, 0.0, 0.0)
        policy = LrPolicy(0.05, step_size=10, total_iterations=30)
        result = train(m, ds, ds, schedule, policy, batch_size=4, seed=0)
        assert result.final_accuracy == initial_acc
        assert result.best_accuracy == initial_acc

    def test_trace_length_scales_with_one_tenth_policy(self):
        ds = toy_dataset(seed=4)
        source_policy = LrPolicy(0.05, step_size=100, total_iterations=300)
        target_policy = source_policy.scaled(10)
        m1 = dense_model(seed=7)
        schedule = uniform_schedule(m1.stage_names, m1.head_name, 1.0, 1.0)
        r1 = train(m1, ds, ds, schedule, source_policy, batch_size=6, seed=1)
        m2 = dense_model(seed=7)
        r2 = train(m2, ds, ds, schedule, target_policy, batch_size=6, seed=1)
        # same evaluation density: step_size/10 cadence in both runs
        assert len(r1.trace) == len(r2.trace)
        assert r1.trace[-1][0] == 300
        assert r2.trace[-1][0] == 30

    def test_training_improves_over_init_on_separable_data(self):
        ds = toy_dataset(seed=5, n_per_label=12)
        m = dense_model(seed=8)
        before = evaluate(m, ds)
        schedule = uniform_schedule(m.stage_names, m.head_name, 1.0, 1.0)
        policy = LrPolicy(0.1, step_size=100, total_iterations=200)
        result = train(m, ds, ds, schedule, policy, batch_size=6, seed=2)
        assert result.best_accuracy >= before
        assert result.best_accuracy > 0.8

    def test_best_model_snapshot_matches_best_accuracy(self):
        ds = toy_dataset(seed=6)
        val = toy_dataset(seed=7)
        m = dense_model(seed=9)
        schedule = uniform_schedule(m.stage_names, m.head_name, 1.0, 1.0)
        policy = LrPolicy(0.05, step_size=20, total_iterations=60)
        result = train(m, ds, val, schedule, policy, batch_size=6, seed=3)
        assert evaluate(result.best_model, val) == result.best_accuracy
        assert result.best_accuracy == max(acc for _, acc in result.trace)
        assert result.best_iteration == min(
            it for it, acc in result.trace if acc == result.best_accuracy)

    def test_accuracies_are_python_floats(self):
        # a numpy scalar would print as np.float64(...) in a repr of the trace
        ds = toy_dataset(seed=6)
        m = dense_model(seed=9)
        schedule = uniform_schedule(m.stage_names, m.head_name, 1.0, 1.0)
        result = train(m, ds, ds, schedule, LrPolicy(0.05, 20, 20),
                       batch_size=6, seed=3)
        accuracies = [acc for _, acc in result.trace] + [
            result.best_accuracy, result.final_accuracy, evaluate(m, ds)]
        assert all(type(acc) is float for acc in accuracies)

    def test_empty_validation_rejected(self):
        ds = toy_dataset()
        m = dense_model()
        schedule = uniform_schedule(m.stage_names, m.head_name, 1.0, 1.0)
        policy = LrPolicy(0.05, 10, 20)

        class EmptySet:
            features = np.zeros((0, 4))
            labels = np.zeros(0, dtype=np.int64)

            def __len__(self):
                return 0

        # a LabeledDataset cannot even be constructed empty
        with pytest.raises(ValueError, match="no examples"):
            ds.subset([])
        with pytest.raises(ValueError, match="empty"):
            train(m, ds, EmptySet(), schedule, policy, 4, 0)

    def test_empty_training_set_and_evaluation_rejected(self):
        ds = toy_dataset()
        m = dense_model()
        schedule = uniform_schedule(m.stage_names, m.head_name, 1.0, 1.0)

        class EmptySet:
            features = np.zeros((0, 4))
            labels = np.zeros(0, dtype=np.int64)

            def __len__(self):
                return 0

        with pytest.raises(ValueError, match="^training set is empty$"):
            train(m, EmptySet(), ds, schedule, LrPolicy(0.05, 10, 20), 4, 0)
        with pytest.raises(ValueError, match="^cannot evaluate on an empty "
                                             "dataset$"):
            evaluate(m, EmptySet())

    def test_batch_size_validation(self):
        ds = toy_dataset(n_per_label=2)
        m = dense_model()
        schedule = uniform_schedule(m.stage_names, m.head_name, 1.0, 1.0)
        policy = LrPolicy(0.05, 10, 20)
        with pytest.raises(ValueError, match="batch_size"):
            train(m, ds, ds, schedule, policy, batch_size=7, seed=0)

    @pytest.mark.parametrize("inner", [1.0, 0.0])
    def test_label_beyond_the_head_rejected_before_the_first_step(self, inner):
        # a label-3 example for a 3-label head, last in the batch order, so
        # the one step of batch 2 never draws it
        ds = toy_dataset(n_per_label=3, labels=4)
        seed = 5
        labels = np.zeros(len(ds), dtype=np.int64)
        labels[np.random.default_rng(seed).permutation(len(ds))[-1]] = 3
        ds = LabeledDataset(ds.features, labels, ds.label_names)
        m = dense_model()
        before = m.params.copy()
        schedule = uniform_schedule(m.stage_names, m.head_name, inner, 1.0)
        with pytest.raises(ValueError, match="^training labels out of range "
                                             "for 3 classes$"):
            train(m, ds, ds, schedule, LrPolicy(0.05, 10, 1), batch_size=2,
                  seed=seed)
        assert m.params.tobytes() == before.tobytes()

    def test_base_lr_multiplier_equivalence(self):
        # multipliers m at base b == multipliers m/c at base c*b (mu = 0)
        ds = toy_dataset(seed=8)
        c = 4.0
        final = []
        for mult, base in ((1.0, 0.05), (1.0 / c, 0.05 * c)):
            m = dense_model(seed=10)
            schedule = uniform_schedule(m.stage_names, m.head_name, mult, mult)
            policy = LrPolicy(base, step_size=20, total_iterations=40)
            train(m, ds, ds, schedule, policy, batch_size=6, seed=4,
                  momentum=0.0)
            final.append(snapshot(m))
        for name in final[0]:
            assert np.allclose(final[0][name], final[1][name], rtol=1e-9)


class TestEpochGather:
    """Each step sees the rows of the next batch_size entries of the current
    permutation, in order, and their one-hot labels; a new permutation is
    drawn when too few entries are left for a batch."""

    # 10 distinct rows: row i holds i in every feature
    train_set = LabeledDataset(np.repeat(np.arange(10.0), 4).reshape(10, 4),
                               np.arange(10) % 3, ("a", "b", "c"))
    val_set = toy_dataset(n_per_label=2, seed=3)    # 6 rows

    @staticmethod
    def batch_orders(n, batch_size, steps, seed):
        """The row indices of each step's batch, drawn as train() has drawn
        them: a permutation up front, and a fresh one whenever the rest of
        the current one is shorter than a batch."""
        rng = np.random.default_rng(seed)
        order = rng.permutation(n)
        cursor = 0
        batches = []
        for _ in range(steps):
            if cursor + batch_size > n:
                order = rng.permutation(n)
                cursor = 0
            batches.append(order[cursor:cursor + batch_size])
            cursor += batch_size
        return batches

    @pytest.mark.parametrize("batch_size", [8, 5, 3, 1])
    @pytest.mark.parametrize("inner", [1.0, 0.0], ids=["all_live", "head_only"])
    def test_each_step_sees_the_next_rows_of_its_permutation(
            self, monkeypatch, batch_size, inner):
        m = dense_model(seed=3)
        schedule = uniform_schedule(m.stage_names, m.head_name, inner, 1.0)
        first = m.stages[0 if inner else 1].layers[0]
        rows = (self.train_set.features if inner else frozen_prefix(
            m, schedule, self.train_set, self.val_set).rows)
        seen, targets = [], []
        forward_of = nn_core.Dense.forward
        xent = optim.softmax_cross_entropy

        def spy(layer, x):
            if layer is first and len(x) == batch_size:    # not validation
                seen.append(x.copy())
            return forward_of(layer, x)

        def spy_xent(logits, labels):
            targets.append(labels.copy())
            return xent(logits, labels)

        monkeypatch.setattr(nn_core.Dense, "forward", spy)
        monkeypatch.setattr(optim, "softmax_cross_entropy", spy_xent)
        steps = 9
        train(m, self.train_set, self.val_set, schedule,
              LrPolicy(0.05, step_size=10, total_iterations=steps),
              batch_size=batch_size, seed=17, eval_every=100)
        want = self.batch_orders(10, batch_size, steps, seed=17)
        assert len(seen) == len(targets) == steps
        for x, t, idx in zip(seen, targets, want):
            assert x.tobytes() == rows[idx].tobytes()
            assert t.tobytes() == np.eye(3, dtype=np.float32)[
                self.train_set.labels[idx]].tobytes()

    def test_a_batch_of_8_from_10_rows_draws_a_permutation_every_step(self):
        batches = self.batch_orders(10, 8, 4, seed=17)
        rng = np.random.default_rng(17)
        assert [b.tolist() for b in batches] == \
            [rng.permutation(10)[:8].tolist() for _ in range(4)]


def conv_model(seed=12, widths=(2, 3)):
    """conv1 -> conv2 -> fc on 1x8x8 inputs."""
    return build_staged_network(mini_staged_spec(widths, (1, 8, 8)), (1, 8, 8),
                                3, seed=seed)


def conv_dataset(n, seed):
    """Noise images whose mean brightness, -1, 0 or +1, is the label."""
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 3, n)
    x = rng.standard_normal((n, 1, 8, 8)) + (y - 1.0)[:, None, None, None]
    return LabeledDataset(x, y, ("a", "b", "c"), "conv")


def reference_train(model, train_set, val_set, schedule, policy, batch_size,
                    seed, momentum=0.9, eval_every=None):
    """Every step and evaluation runs the whole model on the batch."""
    cadence = eval_every if eval_every else max(1, policy.step_size // 10)
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(train_set))
    cursor = 0
    state = SgdState.for_model(model, momentum)
    trace = []
    for it in range(policy.total_iterations):
        if cursor + batch_size > len(order):
            order = rng.permutation(len(train_set))
            cursor = 0
        idx = order[cursor:cursor + batch_size]
        cursor += batch_size
        _, _, cache = forward(model.stages, train_set.features[idx],
                              train_set.labels[idx])
        grads = backward(model.stages, cache)
        sgd_step(model, grads, state, schedule, policy, it)
        done = it + 1
        if done % cadence == 0 or done == policy.total_iterations:
            trace.append((done, evaluate(model, val_set)))
    return trace


HEAD_ONLY = {"conv1": 0.0, "conv2": 0.0, "fc": 1.0}
CONV1_FROZEN = {"conv1": 0.0, "conv2": 1.0, "fc": 1.0}
ALL_LIVE = {"conv1": 1.0, "conv2": 1.0, "fc": 1.0}


class TestFrozenPrefixCache:
    """train() runs the frozen stages once per call, in evaluate()'s batches."""

    # more than one 256-row batch on both sides, the last one partial
    train_set = conv_dataset(300, seed=20)
    val_set = conv_dataset(270, seed=21)
    policy = LrPolicy(0.3, step_size=20, total_iterations=40)

    @pytest.mark.parametrize("total_iterations", [1, 40])
    def test_frozen_convs_run_once_per_batch_of_each_set(self, monkeypatch,
                                                         total_iterations):
        calls = {}
        original = Conv2d.forward

        def counting(layer, x):
            calls[id(layer)] = calls.get(id(layer), 0) + 1
            return original(layer, x)

        monkeypatch.setattr(Conv2d, "forward", counting)
        m = conv_model()
        policy = LrPolicy(0.05, step_size=20, total_iterations=total_iterations)
        train(m, self.train_set, self.val_set, MultiplierSchedule(HEAD_ONLY),
              policy, batch_size=8, seed=1, eval_every=5)
        convs = [layer for stage in m.stages for layer in stage.layers
                 if isinstance(layer, Conv2d)]
        expected = math.ceil(300 / 256) + math.ceil(270 / 256)
        assert [calls.get(id(c), 0) for c in convs] == [expected] * len(convs)

    @pytest.mark.parametrize("mults", [HEAD_ONLY, CONV1_FROZEN],
                             ids=["head_only", "conv1_frozen"])
    def test_matches_the_whole_model_loop(self, mults):
        schedule = MultiplierSchedule(mults)
        ref = conv_model()
        ref_trace = reference_train(ref, self.train_set, self.val_set, schedule,
                                    self.policy, batch_size=8, seed=2,
                                    eval_every=5)
        m = conv_model()
        result = train(m, self.train_set, self.val_set, schedule, self.policy,
                       batch_size=8, seed=2, eval_every=5)
        assert result.trace == ref_trace
        for (name, arr), (_, ref_arr) in zip(m.named_parameters(),
                                             ref.named_parameters()):
            assert np.max(np.abs(arr - ref_arr)) <= 1e-12, name
        assert evaluate(result.best_model, self.val_set) == result.best_accuracy

    @pytest.mark.parametrize("mults", [HEAD_ONLY, CONV1_FROZEN],
                             ids=["head_only", "conv1_frozen"])
    def test_frozen_tensors_bitwise_unchanged(self, mults):
        m = conv_model()
        before = snapshot(m)
        result = train(m, self.train_set, self.val_set,
                       MultiplierSchedule(mults), self.policy, batch_size=8,
                       seed=3)
        for net in (m, result.best_model):
            for name, arr in net.named_parameters():
                stage = name.split("/", 1)[0]
                assert (arr.tobytes() == before[name].tobytes()) == (
                    mults[stage] == 0.0), name

    def test_non_finite_frozen_activation_names_its_stage(self):
        m = conv_model()
        m.stages[1].layers[0].b[0] = np.inf      # conv2, frozen
        with pytest.raises(ValueError,
                           match="stage 'conv2': non-finite activation"):
            train(m, self.train_set, self.val_set,
                  MultiplierSchedule(HEAD_ONLY), self.policy, batch_size=8,
                  seed=4)

    def test_non_finite_row_past_the_first_batch_names_its_stage(self):
        rows = LabeledDataset(self.train_set.features.copy(),
                              self.train_set.labels, ("a", "b", "c"))
        # in the second 256-row batch; a dataset refuses a NaN it is given
        rows.features[280, 0, 3, 3] = np.nan
        with pytest.raises(ValueError,
                           match="^stage 'conv1': non-finite activation$"):
            frozen_prefix(conv_model(), MultiplierSchedule(HEAD_ONLY), rows,
                          self.val_set)

    def test_input_shape_checked_up_front(self):
        m = conv_model()
        flat = LabeledDataset(self.train_set.features.reshape(300, 64),
                              self.train_set.labels, ("a", "b", "c"))
        with pytest.raises(ValueError, match="model input shape"):
            train(m, flat, self.val_set, MultiplierSchedule(HEAD_ONLY),
                  self.policy, batch_size=8, seed=5)

    @staticmethod
    def outcome(result):
        """A train() result: trace, best iteration, final and best weights."""
        return (result.trace, result.best_iteration,
                [arr.tobytes() for net in (result.model, result.best_model)
                 for _, arr in net.named_parameters()])

    def test_shared_memo_holds_one_prefix_per_model(self):
        cases = [(conv_model, HEAD_ONLY),
                 (lambda: conv_model(seed=13), HEAD_ONLY),      # other weights
                 (lambda: conv_model(widths=(2, 4)), HEAD_ONLY),  # other widths
                 (conv_model, CONV1_FROZEN),                     # other depth
                 (conv_model, HEAD_ONLY)]                        # a hit
        prefixes, sizes = {}, []
        for make, mults in cases:
            schedule = MultiplierSchedule(mults)
            shared = train(make(), self.train_set, self.val_set, schedule,
                           self.policy, batch_size=8, seed=6,
                           prefixes=prefixes)
            alone = train(make(), self.train_set, self.val_set, schedule,
                          self.policy, batch_size=8, seed=6)
            assert self.outcome(shared) == self.outcome(alone)
            sizes.append(len(prefixes))
        assert sizes == [1, 2, 3, 4, 4]

    def test_frozen_prefix_rejects_a_schedule_of_other_stages(self):
        with pytest.raises(ValueError, match="stage mismatch"):
            frozen_prefix(conv_model(),
                          MultiplierSchedule({"conv1": 0.0, "fc": 1.0}),
                          self.train_set, self.val_set)

    @pytest.mark.parametrize("mults", [HEAD_ONLY, ALL_LIVE],
                             ids=["head_only", "all_live"])
    def test_prefix_arrays_are_read_only(self, mults):
        prefixes = {}
        train(conv_model(), self.train_set, self.val_set,
              MultiplierSchedule(mults), LrPolicy(0.05, 20, 1), batch_size=8,
              seed=6, prefixes=prefixes)
        (prefix,) = prefixes.values()
        for arr in [prefix.rows, *(a for batch in prefix.val_batches
                                   for a in batch)]:
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0
        # with no stage frozen the rows are views of the sets' own arrays,
        # which stay writeable
        for arr in (self.train_set.features, self.val_set.features,
                    self.val_set.labels):
            assert arr.flags.writeable

    def test_run_stages_equals_the_per_layer_loop(self):
        m = conv_model()
        x = self.val_set.features
        for stage in m.stages:
            for layer in stage.layers:
                x, _ = layer.forward(x)
        assert run_stages(m.stages, self.val_set.features).tobytes() == x.tobytes()


def per_tensor_sgd_step(model, grads, velocities, momentum, schedule, policy,
                        iteration):
    """Momentum SGD one tensor at a time, each stage at its own
    effective_lr, a stage at rate exactly 0.0 skipped."""
    schedule.check_covers(model.stage_names)
    for stage in model.stages:
        eff = effective_lr(policy, iteration,
                           schedule.stage_multipliers[stage.name], schedule.scale)
        if eff == 0.0:
            continue
        for name, param in stage.named_params():
            v = velocities[name]
            v *= momentum
            v -= eff * grads[name]
            param += v


def oracle_train(model, train_set, val_set, schedule, policy, batch_size, seed,
                 eval_every, momentum=0.9):
    """train()'s loop with per_tensor_sgd_step: (trace, best iteration, final
    weights, best weights), the weights as bytes per tensor."""
    prefix = frozen_prefix(model, schedule, train_set, val_set)
    live = model.stages[lowest_trainable_stage(model.stage_names, schedule):]
    velocities = {name: np.zeros_like(arr) for name, arr in model.named_parameters()}
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(train_set))
    cursor = 0
    trace, best_acc, best_iter, best = [], -1.0, -1, None
    for it in range(policy.total_iterations):
        if cursor + batch_size > len(order):
            order = rng.permutation(len(train_set))
            cursor = 0
        idx = order[cursor:cursor + batch_size]
        cursor += batch_size
        _, _, cache = forward(live, prefix.rows[idx], train_set.labels[idx])
        per_tensor_sgd_step(model, backward(live, cache), velocities, momentum,
                            schedule, policy, it)
        done = it + 1
        if done % eval_every == 0 or done == policy.total_iterations:
            acc = _accuracy(live, prefix.val_batches)
            trace.append((done, acc))
            if acc > best_acc:
                best_acc, best_iter = acc, done
                best = [arr.tobytes() for _, arr in model.named_parameters()]
    return (trace, best_iter,
            [arr.tobytes() for _, arr in model.named_parameters()], best)


class TestFloat32Training:
    """train() computes in float32 from end to end, the precision the files
    hold: at every step, the logits' gradient, the gradient vector, the
    velocity and the parameters."""

    train_set = conv_dataset(40, seed=32)
    val_set = conv_dataset(20, seed=33)

    @pytest.mark.parametrize("mults", [HEAD_ONLY, CONV1_FROZEN, ALL_LIVE],
                             ids=["head_only", "conv1_frozen", "all_live"])
    def test_every_step_is_float32(self, monkeypatch, mults):
        dtypes = []
        xent, step = optim.softmax_cross_entropy, optim.sgd_step

        def spy_xent(logits, labels):
            dlogits = xent(logits, labels)
            dtypes.append((logits.dtype, labels.dtype, dlogits.dtype))
            return dlogits

        def spy_step(model, grads, state, *args):
            dtypes.append((grads.vector.dtype, state.velocity.dtype,
                           model.params.dtype))
            return step(model, grads, state, *args)
        monkeypatch.setattr(optim, "softmax_cross_entropy", spy_xent)
        monkeypatch.setattr(optim, "sgd_step", spy_step)
        train(conv_model(), self.train_set, self.val_set,
              MultiplierSchedule(mults), LrPolicy(0.05, 10, 7), batch_size=8,
              seed=3)
        assert len(dtypes) == 2 * 7
        assert set(dt for triple in dtypes for dt in triple) == {
            np.dtype(np.float32)}


class TestArenaSgdOracle:
    """train()'s vector SGD equals per-tensor SGD byte for byte."""

    train_set = conv_dataset(120, seed=30)
    val_set = conv_dataset(60, seed=31)

    @pytest.mark.parametrize("make, mults", [
        (conv_model, HEAD_ONLY),
        (conv_model, CONV1_FROZEN),
        (conv_model, ALL_LIVE),
        # the trainable stages are not adjacent
        (conv_model, {"conv1": 1.0, "conv2": 0.0, "fc": 1.0}),
        (lambda: build_staged_network(
            mini_staged_spec((2, 3), (1, 8, 8), residual=True), (1, 8, 8), 3,
            seed=12), {"conv1": 0.5, "conv2": 1.0, "fc": 1.0}),
        # three runs, then two equal neighbours that make one run
        (conv_model, {"conv1": 0.25, "conv2": 2.0, "fc": 1.0}),
        (conv_model, {"conv1": 3.0, "conv2": 3.0, "fc": 0.5}),
    ], ids=["head_only", "conv1_frozen", "all_live", "mid_stage_frozen",
            "residual", "unequal", "equal_neighbours"])
    def test_matches_per_tensor_sgd(self, make, mults):
        schedule = MultiplierSchedule(mults, scale=1.5)
        policy = LrPolicy(0.05, step_size=15, total_iterations=40, gamma=0.5)
        want = oracle_train(make(), self.train_set, self.val_set, schedule,
                            policy, batch_size=8, seed=7, eval_every=5)
        result = train(make(), self.train_set, self.val_set, schedule, policy,
                       batch_size=8, seed=7, eval_every=5)
        assert TestFrozenPrefixCache.outcome(result) == (
            want[0], want[1], want[2] + want[3])

    def test_updates_stop_where_the_rate_underflows(self):
        # lr_at is 0.05, 0.05e-200, then exactly 0.0 from iteration 2 on
        schedule = MultiplierSchedule(ALL_LIVE)
        policy = LrPolicy(0.05, step_size=1, total_iterations=40, gamma=1e-200)
        assert lr_at(policy, 2) == 0.0 < lr_at(policy, 1)
        want = oracle_train(conv_model(), self.train_set, self.val_set,
                            schedule, policy, batch_size=8, seed=7,
                            eval_every=5)
        m = conv_model()
        result = train(m, self.train_set, self.val_set, schedule, policy,
                       batch_size=8, seed=7, eval_every=5)
        assert TestFrozenPrefixCache.outcome(result) == (
            want[0], want[1], want[2] + want[3])
        two = conv_model()
        train(two, self.train_set, self.val_set, schedule,
              LrPolicy(0.05, step_size=1, total_iterations=2, gamma=1e-200),
              batch_size=8, seed=7)
        assert m.params.tobytes() == two.params.tobytes()
        assert m.params.tobytes() != conv_model().params.tobytes()


class TestBoundGradients:
    """train() builds one Gradients object per call, which every step's
    backward() writes into and sgd_step() binds its runs to; nothing leaks
    through it into another call or into direct backward() calls."""

    train_set = conv_dataset(60, seed=40)
    val_set = conv_dataset(30, seed=41)
    policy = LrPolicy(0.05, step_size=10, total_iterations=12)

    def test_no_state_leaks_through_the_bound_gradients(self, monkeypatch):
        schedule = MultiplierSchedule(ALL_LIVE)
        x, y = self.val_set.features[:5], self.val_set.labels[:5]
        other_head = conv_model(seed=13).stages[-1].layers[0]
        outs, direct = [], []

        def direct_call(stages):
            """A direct backward() on stages at another batch size, checked
            against the same layers in a stage list of their own."""
            grads = nn_core.backward(stages, forward(stages, x, y)[2])
            fresh = [Stage(s.name, list(s.layers)) for s in stages]
            want = nn_core.backward(fresh, forward(fresh, x, y)[2])
            assert {k: g.tobytes() for k, g in grads.items()} == \
                {k: g.tobytes() for k, g in want.items()}
            direct.append(grads)

        def spying(stages, cache, out=None):
            got = nn_core.backward(stages, cache, out=out)
            outs.append(out)
            direct_call(stages)
            if len(outs) == 5:       # once, on a layer list changed in place
                head = stages[-1].layers
                head[0], own = other_head, head[0]
                direct_call(stages)
                head[0] = own
            return got

        model = conv_model()
        monkeypatch.setattr(optim, "backward", spying)
        results = [train(model.clone(), self.train_set, self.val_set, schedule,
                         self.policy, batch_size=8, seed=8) for _ in range(2)]
        monkeypatch.undo()
        want = train(conv_model(), self.train_set, self.val_set, schedule,
                     self.policy, batch_size=8, seed=8)
        for result in results:
            assert TestFrozenPrefixCache.outcome(result) == \
                TestFrozenPrefixCache.outcome(want)
        steps = self.policy.total_iterations
        assert len(outs) == 2 * steps
        for call in (outs[:steps], outs[steps:]):
            assert isinstance(call[0], Gradients)
            assert all(out is call[0] for out in call)
        assert outs[0] is not outs[-1]
        assert len(direct) == 2 * steps + 1
        assert len({id(g) for g in direct + [outs[0], outs[-1]]}) == len(direct) + 2
        assert not np.shares_memory(direct[0].vector, direct[1].vector)
        assert direct[5].keys() == direct[4].keys()
        assert direct[5]["fc/0/w"].tobytes() != direct[4]["fc/0/w"].tobytes()


def test_evaluate_on_known_predictions():
    ds = toy_dataset(seed=9, n_per_label=5)
    m = dense_model(seed=11)
    scores = run_stages(m.stages, ds.features)
    expected = float((scores.argmax(axis=1) == ds.labels).mean())
    assert evaluate(m, ds) == expected

"""Kernel-level tests: forward oracle, gradient checks, engine contracts."""

import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from conftest import float64_model
from ftlab import nn_core
from ftlab.data import LabeledDataset
from ftlab.model import (LayerSpec, StageSpec, build_staged_network,
                         mini_staged_spec)
from ftlab.nn_core import (Conv2d, Dense, MaxPool, ResidualBlock, Stage,
                           backward, forward, grad_check, param_count,
                           run_stages, softmax_cross_entropy)
from ftlab.optim import (MultiplierSchedule, _accuracy, _chunks, frozen_prefix,
                         lowest_trainable_stage)


def two_layer_model(seed=123):
    spec = (StageSpec("hidden", (LayerSpec("dense", out_features=5),
                                 LayerSpec("relu"))),
            StageSpec("fc", (LayerSpec("dense"),)))
    return build_staged_network(spec, (4,), num_labels=3, seed=seed)


def small_conv_model(seed=0, residual=False):
    layers = [LayerSpec("conv2d", out_channels=3), LayerSpec("relu")]
    if residual:
        layers.append(LayerSpec("residual-add",
                                inner=(LayerSpec("conv2d", out_channels=3),
                                       LayerSpec("relu"))))
    layers.append(LayerSpec("max-pool"))
    spec = (StageSpec("conv1", tuple(layers)),
            StageSpec("conv2", (LayerSpec("conv2d", out_channels=4),
                                LayerSpec("relu"),
                                LayerSpec("global-average-pool"))),
            StageSpec("fc", (LayerSpec("dense"),)))
    return build_staged_network(spec, (1, 8, 8), num_labels=3, seed=seed)


def scalar_loss_oracle(w1, b1, w2, b2, xs, ys):
    """Hand-rolled dense->relu->dense->softmax-CE loss with scalar loops."""
    total = 0.0
    for i in range(len(xs)):
        h = []
        for j in range(len(b1)):
            acc = b1[j]
            for k in range(len(xs[i])):
                acc += xs[i][k] * w1[k][j]
            h.append(acc if acc > 0.0 else 0.0)
        z = []
        for j in range(len(b2)):
            acc = b2[j]
            for k in range(len(h)):
                acc += h[k] * w2[k][j]
            z.append(acc)
        mx = max(z)
        exps = [math.exp(v - mx) for v in z]
        s = sum(exps)
        total += -math.log(exps[ys[i]] / s)
    return total / len(xs)


def naive_conv2d(x, w, b):
    """Same-size stride-1 zero-padded convolution by loops over pixels and taps."""
    n, c, h, wd = x.shape
    f, _, k, _ = w.shape
    p = k // 2
    y = np.empty((n, f, h, wd))
    for i in range(h):
        for j in range(wd):
            acc = np.tile(b, (n, 1))
            for a in range(k):
                for bb in range(k):
                    u, v = i + a - p, j + bb - p
                    if 0 <= u < h and 0 <= v < wd:
                        acc = acc + x[:, :, u, v] @ w[:, :, a, bb].T
            y[:, :, i, j] = acc
    return y


def reference_conv(layer, x, dy):
    """(y, dx, grads) by the earlier kernel, in the layer's dtype: one
    tensordot over a sliding_window_view per product, y in the same batch
    chunks. dW and db sum over a channel-major copy of dy: dW is its
    product with the transposed (c*k*k, n*h*w) column matrix of x."""
    w, k = layer.w, layer.kernel_size
    n, c, h, wd = x.shape
    f = w.shape[0]
    xp = np.pad(x, ((0, 0), (0, 0), (k // 2,) * 2, (k // 2,) * 2))
    windows = sliding_window_view(xp, (k, k), axis=(2, 3))
    step = max(1, nn_core._FORWARD_CHUNK_BYTES
               // (c * k * k * h * wd * w.itemsize))
    y = np.empty((f, n, h, wd), w.dtype)
    for i in range(0, n, step):
        y[:, i:i + step] = np.tensordot(w, windows[i:i + step],
                                        axes=([1, 2, 3], [1, 4, 5]))
    y += layer.b[:, None, None, None]
    dyc = np.ascontiguousarray(dy.transpose(1, 0, 2, 3)).reshape(f, -1)
    cols = np.ascontiguousarray(windows.transpose(1, 4, 5, 0, 2, 3))
    dw = dyc @ cols.reshape(c * k * k, -1).T
    dyp = np.pad(dy, ((0, 0), (0, 0), (k // 2,) * 2, (k // 2,) * 2))
    dx = np.tensordot(w[:, :, ::-1, ::-1],
                      sliding_window_view(dyp, (k, k), axis=(2, 3)),
                      axes=([0, 2, 3], [1, 4, 5]))
    return (y.transpose(1, 0, 2, 3), dx.transpose(1, 0, 2, 3),
            {"w": dw.reshape(w.shape), "b": dyc.sum(axis=1)})


def reference_max_pool(x, dy):
    """(y, dx) by the earlier kernel over the four window-position views:
    y groups as max(max(x00, x01), max(x10, x11)), and dx is a fresh
    C-ordered array that each view fills in the order (0,0), (0,1), (1,0),
    (1,1), dy going to the first view holding its window's max."""
    y = np.maximum(np.maximum(x[:, :, 0::2, 0::2], x[:, :, 0::2, 1::2]),
                   np.maximum(x[:, :, 1::2, 0::2], x[:, :, 1::2, 1::2]))
    dx = np.empty(x.shape)
    free = np.ones(y.shape, dtype=bool)  # windows whose max is not yet found
    for di in (0, 1):
        for dj in (0, 1):
            hit = free & (x[:, :, di::2, dj::2] == y)
            dx[:, :, di::2, dj::2] = np.where(hit, dy, 0.0)
            free &= ~hit
    return y, dx


def grad_views(layer):
    """Fresh arrays for a layer's parameter gradients, keyed as its
    named_params(): the out that backward and param_grads write into."""
    return {name: np.empty_like(arr) for name, arr in layer.named_params()}


def conv_layers_with_inputs(k, batch, seed, dtype):
    """Every Conv2d of mini_staged_spec(kernel_size=k) on parameters of
    dtype, with a batch of its input."""
    net = build_staged_network(mini_staged_spec(kernel_size=k), (1, 16, 16),
                               num_labels=4, seed=seed)
    if dtype == np.float64:
        net = float64_model(net)
    x = np.random.default_rng(seed).uniform(
        -1, 1, size=(batch, 1, 16, 16)).astype(dtype)
    found = []
    for stage in net.stages:
        for layer in stage.layers:
            if isinstance(layer, Conv2d):
                found.append((layer, x))
            x, _ = layer.forward(x)
    return found


# value computed once with scalar_loss_oracle on the seed-123 model below,
# its float32 parameters widened to float64
TWO_LAYER_ORACLE_LOSS = 1.1651607691813977


class TestForward:
    def test_uniform_logits_loss_is_log_c(self):
        for c in (2, 5, 11):
            loss, probs, _ = forward([], np.zeros((3, c)),
                                     np.array([0, 1, 0])[:3] % c)
            assert loss == pytest.approx(math.log(c), rel=1e-12)
            assert np.allclose(probs, 1.0 / c)

    def test_perfect_logits_loss_near_zero(self):
        logits = np.full((4, 3), -50.0)
        y = np.array([0, 1, 2, 1])
        logits[np.arange(4), y] = 50.0
        loss, _, _ = forward([], logits, y)
        assert loss < 1e-8

    def test_cross_entropy_is_neg_log_true_score(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(6, 4))
        y = np.array([0, 1, 2, 3, 1, 2])
        loss, probs, _ = forward([], logits, y)
        expected = -np.log(probs[np.arange(6), y]).mean()
        assert loss == pytest.approx(expected, abs=1e-9)

    def test_fixed_two_layer_net_matches_scalar_oracle(self):
        m = float64_model(two_layer_model(seed=123))
        rng = np.random.default_rng(321)
        x = rng.uniform(-1.0, 1.0, size=(3, 4))
        y = [0, 2, 1]
        p = dict(m.named_parameters())
        oracle = scalar_loss_oracle(p["hidden/0/w"].tolist(),
                                    p["hidden/0/b"].tolist(),
                                    p["fc/0/w"].tolist(),
                                    p["fc/0/b"].tolist(), x.tolist(), y)
        assert oracle == pytest.approx(TWO_LAYER_ORACLE_LOSS, rel=1e-12)
        loss, _, _ = forward(m.stages, x, y)
        assert loss == pytest.approx(TWO_LAYER_ORACLE_LOSS, rel=1e-12)

    def test_score_rows_sum_to_one(self):
        m = small_conv_model(seed=3)
        x = np.random.default_rng(5).uniform(-1, 1, size=(6, 1, 8, 8))
        _, probs, _ = forward(m.stages, x, np.arange(6) % 3)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-6)

    def test_forward_is_deterministic(self):
        m = small_conv_model(seed=9)
        x = np.random.default_rng(2).uniform(-1, 1, size=(4, 1, 8, 8))
        y = np.array([0, 1, 2, 0])
        loss1, probs1, _ = forward(m.stages, x, y)
        loss2, probs2, _ = forward(m.stages, x, y)
        assert loss1 == loss2
        assert np.array_equal(probs1, probs2)

    def test_shape_mismatch_names_stage(self):
        m = two_layer_model()
        with pytest.raises(ValueError, match="hidden"):
            forward(m.stages, np.zeros((2, 7)), [0, 1])

    def test_run_stages_names_the_stage_of_a_shape_error(self):
        m = small_conv_model()
        x = np.zeros((2, 1, 8, 8))          # shaped for conv1, not conv2
        with pytest.raises(ValueError, match="stage 'conv2': conv2d expected"):
            run_stages(m.stages[1:], x)

    def test_batch_label_length_mismatch_rejected(self):
        m = two_layer_model()
        with pytest.raises(ValueError, match="labels"):
            forward(m.stages, np.zeros((3, 4)), [0, 1])

    @pytest.mark.filterwarnings("error")     # the error, and no numpy warning
    def test_nonfinite_activation_names_stage(self):
        m = two_layer_model()
        dict(m.named_parameters())["hidden/0/w"][0, 0] = np.inf
        with pytest.raises(ValueError, match="hidden.*non-finite"):
            forward(m.stages, np.ones((2, 4)), [0, 1])

    @pytest.mark.filterwarnings("error")     # the error, and no numpy warning
    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_nonfinite_logits_of_no_stage_rejected(self, bad):
        with pytest.raises(ValueError, match="^non-finite logits$"):
            forward([], np.array([[bad, 0.0], [1.0, 2.0]]), [0, 1])

    def test_finite_forward_runs_each_layer_once(self, monkeypatch):
        m = small_conv_model(seed=4, residual=True)
        layers = [layer for stage in m.stages for layer in stage.layers]
        calls = []
        for layer in layers:
            monkeypatch.setattr(layer, "forward", lambda x, layer=layer,
                                f=layer.forward: calls.append(layer) or f(x))
        x = np.random.default_rng(6).uniform(-1, 1, size=(4, 1, 8, 8))
        forward(m.stages, x, np.arange(4) % 3)
        assert calls == layers

    @pytest.mark.parametrize("bad, named", [(("conv2", "fc"), "conv2"),
                                            (("conv1", "conv2"), "conv1"),
                                            (("fc",), "fc")])
    def test_first_non_finite_stage_named(self, bad, named):
        m = small_conv_model(seed=4)
        for stage in m.stages:
            if stage.name in bad:
                stage.layers[0].b[0] = np.nan
        x = np.random.default_rng(6).uniform(-1, 1, size=(4, 1, 8, 8))
        with pytest.raises(ValueError,
                           match=f"^stage '{named}': non-finite activation$"):
            forward(m.stages, x, np.arange(4) % 3)

    def test_label_out_of_range_rejected(self):
        m = two_layer_model()
        with pytest.raises(ValueError, match="range"):
            forward(m.stages, np.zeros((2, 4)), [0, 3])


    def test_head_of_scores_other_than_2d_rejected(self):
        stages = [Stage("head", [nn_core.Relu()])]
        with pytest.raises(ValueError, match=r"^head stage 'head' must produce "
                                             r"\(batch, labels\) scores, got "
                                             r"shape \(2, 1, 4, 4\)$"):
            forward(stages, np.ones((2, 1, 4, 4)), [0, 1])


class TestBackward:
    def test_backward_requires_forward_cache(self):
        m = two_layer_model()
        with pytest.raises(ValueError, match="forward"):
            backward(m.stages, None)

    def test_cache_of_another_stage_list_rejected(self):
        m = two_layer_model()
        _, _, cache = forward(m.stages, np.ones((2, 4)), [0, 1])
        for stages in (m.stages[1:], small_conv_model().stages):
            with pytest.raises(ValueError, match="^cache does not match this "
                                                 "stage list$"):
                backward(stages, cache)

    def test_gradient_shapes_mirror_parameters(self):
        m = small_conv_model(seed=1, residual=True)
        x = np.random.default_rng(1).uniform(-1, 1, size=(4, 1, 8, 8))
        y = np.array([0, 1, 2, 0])
        _, _, cache = forward(m.stages, x, y)
        grads = backward(m.stages, cache)
        params = dict(m.named_parameters())
        assert set(grads) == set(params)
        for name in params:
            assert grads[name].shape == params[name].shape

    def test_duplicated_batch_keeps_mean_gradients(self):
        m = float64_model(small_conv_model(seed=4))
        rng = np.random.default_rng(7)
        x = rng.uniform(-1, 1, size=(3, 1, 8, 8))
        y = np.array([0, 1, 2])
        _, _, cache = forward(m.stages, x, y)
        g1 = backward(m.stages, cache)
        x2 = np.concatenate([x, x])
        y2 = np.concatenate([y, y])
        _, _, cache2 = forward(m.stages, x2, y2)
        g2 = backward(m.stages, cache2)
        for name in g1:
            assert np.allclose(g1[name], g2[name], rtol=1e-12, atol=1e-15)

    def test_zero_loss_batch_has_vanishing_gradients(self):
        # drive the head to produce huge-margin correct logits
        m = two_layer_model(seed=6)
        params = dict(m.named_parameters())
        params["hidden/0/w"][...] = 0.0
        params["hidden/0/b"][...] = 1.0        # constant positive hidden units
        params["fc/0/w"][...] = 0.0
        params["fc/0/b"][...] = -200.0
        params["fc/0/b"][0] = 200.0            # class 0 wins with a huge margin
        x = np.zeros((3, 4))
        loss, _, cache = forward(m.stages, x, np.zeros(3, dtype=int))
        assert loss < 1e-12
        grads = backward(m.stages, cache)
        total = sum(float(np.abs(g).sum()) for g in grads.values())
        assert total < 1e-8

    def test_gradients_are_views_of_one_fresh_vector(self):
        m = small_conv_model(seed=1, residual=True)
        x = np.random.default_rng(1).uniform(-1, 1, size=(4, 1, 8, 8))
        y = np.array([0, 1, 2, 0])
        _, _, cache = forward(m.stages, x, y)
        grads = backward(m.stages, cache)
        _, _, cache = forward(m.stages, x, y)
        again = backward(m.stages, cache)
        assert not np.shares_memory(grads.vector, again.vector)
        for name, g in grads.items():
            assert np.shares_memory(g, grads.vector)
            assert g.tobytes() == again[name].tobytes()
        assert grads.vector.size == sum(a.size for _, a in m.named_parameters())

    def test_kept_plan_follows_the_stage_list(self):
        # backward keeps its plan on the first stage of the list: another
        # list from the same stage, or a layer list changed in place, must
        # not run on it
        m, other = two_layer_model(seed=3), two_layer_model(seed=4)
        x = np.random.default_rng(5).uniform(-1, 1, size=(6, 4))
        y = np.arange(6) % 3

        def grads_of(stages):
            got = backward(stages, forward(stages, x, y)[2])
            fresh = [Stage(s.name, list(s.layers)) for s in stages]
            want = backward(fresh, forward(fresh, x, y)[2])
            assert {k: g.tobytes() for k, g in got.items()} == \
                {k: g.tobytes() for k, g in want.items()}
            return got

        grads_of([m.stages[0], other.stages[1]])
        grads_of(m.stages[:1] + [Stage("head", other.stages[1].layers)])
        before = grads_of(m.stages)
        m.stages[1].layers[0] = other.stages[1].layers[0]
        after = grads_of(m.stages)
        assert after["fc/0/w"].tobytes() != before["fc/0/w"].tobytes()


def non_finite_grads(layer, monkeypatch, *pnames):
    """Make layer's param_grads, which its backward calls too, put inf into
    the gradients named pnames."""
    original = layer.param_grads

    def patched(dy, cache, out):
        grads = original(dy, cache, out)
        for pname in pnames:
            grads[pname].flat[0] = np.inf
        return grads
    monkeypatch.setattr(layer, "param_grads", patched)


class TestBackwardGradientCheck:
    """backward() checks all gradients at once and names the first one that
    is not finite, in the order it computes them: top layer first, w before
    b."""

    def setup_method(self):
        self.m = build_staged_network(mini_staged_spec(), (1, 16, 16), 4, seed=2)
        x = np.random.default_rng(3).uniform(-1, 1, size=(8, 1, 16, 16))
        _, _, self.cache = forward(self.m.stages, x, np.arange(8) % 4)

    def conv(self, stage):
        return self.m.stages[self.m.stage_names.index(stage)].layers[0]

    @pytest.mark.parametrize("stage, pname", [("conv3", "w"), ("conv4", "b"),
                                              ("conv1", "w")])
    def test_names_the_non_finite_tensor(self, monkeypatch, stage, pname):
        non_finite_grads(self.conv(stage), monkeypatch, pname)
        with pytest.raises(ValueError, match=f"non-finite values produced in "
                                             f"gradient of {stage}/0/{pname}$"):
            backward(self.m.stages, self.cache)

    @pytest.mark.parametrize("patches, first", [
        ((("conv2", "w"), ("conv4", "b")), "conv4/0/b"),
        ((("conv2", "b"), ("conv2", "w")), "conv2/0/w"),
        ((("fc", "b"), ("conv1", "w")), "fc/0/b"),
    ])
    def test_names_the_first_of_two(self, monkeypatch, patches, first):
        for stage, pname in patches:
            non_finite_grads(self.conv(stage), monkeypatch, pname)
        with pytest.raises(ValueError, match=f"gradient of {first}$"):
            backward(self.m.stages, self.cache)

    def test_keys_in_the_order_they_are_computed(self):
        grads = backward(self.m.stages, self.cache)
        paths = [f"{s.name}/{li}" for s in self.m.stages
                 for li, layer in enumerate(s.layers) if layer.kind in
                 ("conv2d", "dense")]
        assert list(grads) == [f"{p}/{n}" for p in reversed(paths)
                               for n in ("w", "b")]
        assert all(isinstance(g, np.ndarray) for g in grads.values())


class TestHugeFiniteValues:
    """The finiteness checks of forward() and backward() count finite
    entries and sum nothing: logits and gradients near 1e308, whose float64
    sums overflow, pass without a numpy warning, and an inf or a NaN among
    them still ends in the typed error that names its stage or tensor."""

    def stages(self):
        # x = 1e308 times tiny hidden weights gives small hidden units; the
        # head's bias lifts every logit to about 1e308. With both labels
        # 0, each hidden unit's gradient is +0.5, so every entry of
        # hidden/0/w's gradient is 1e308.
        hidden = Dense(np.full((4, 2), 1e-310), np.zeros(2))
        head = Dense(np.array([[-1.0, 1.0], [-1.0, 1.0]]),
                     np.full(2, 1e308))
        return [Stage("hidden", [hidden]), Stage("fc", [head])]

    x = np.full((2, 4), 1e308)
    y = np.array([0, 0])

    @pytest.mark.filterwarnings("error")
    def test_sums_that_overflow_are_not_errors(self):
        stages = self.stages()
        loss, probs, cache = forward(stages, self.x, self.y)
        grads = backward(stages, cache)
        logits = run_stages(stages, self.x)
        with np.errstate(over="ignore"):
            assert np.add.reduce(logits, axis=None) == np.inf
            assert np.add.reduce(grads.vector) == np.inf
        assert np.isfinite(logits).all() and np.isfinite(grads.vector).all()
        assert np.all(grads["hidden/0/w"] == 1e308)
        assert loss == pytest.approx(math.log(2))
        assert np.all(probs == 0.5)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_logit_still_names_its_stage(self, bad):
        stages = self.stages()
        stages[1].layers[0].b[1] = bad
        with pytest.raises(ValueError,
                           match="^stage 'fc': non-finite activation$"):
            forward(stages, self.x, self.y)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_gradient_still_named(self, monkeypatch, bad):
        stages = self.stages()
        layer = stages[0].layers[0]
        original = layer.param_grads

        def planted(dy, cache, out):
            original(dy, cache, out)
            out["w"][3, 1] = bad
            return out
        monkeypatch.setattr(layer, "param_grads", planted)
        _, _, cache = forward(stages, self.x, self.y)
        with pytest.raises(ValueError, match="^non-finite values produced in "
                                             "gradient of hidden/0/w$"):
            backward(stages, cache)


class TestConv2d:
    """Conv2d against naive_conv2d: values, and gradients by central differences.

    The loss sum(naive_conv2d(x, w, b) * r) is linear in every input, so its
    central differences are exact up to roundoff and give dW, db and dX.
    """

    # the default net's 2x2 and 4x4 maps, a non-square 2x4 and an odd 5x7
    @pytest.mark.parametrize("hw", [(5, 7), (2, 2), (4, 4), (2, 4)],
                             ids=lambda hw: "x".join(map(str, hw)))
    @pytest.mark.parametrize("batch", [1, 256])
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_matches_naive_reference(self, k, batch, hw):
        rng = np.random.default_rng(10 * k + batch)
        x = rng.uniform(-1, 1, size=(batch, 2) + hw)
        w = rng.uniform(-1, 1, size=(3, 2, k, k))
        b = rng.uniform(-1, 1, size=3)
        r = rng.uniform(-1, 1, size=(batch, 3) + hw)
        layer = Conv2d(w, b)
        y, cache = layer.forward(x)
        assert y.shape == r.shape
        assert np.allclose(y, naive_conv2d(x, w, b), rtol=1e-12, atol=1e-12)
        dx, grads = layer.backward(r, cache, grad_views(layer))

        def central(xs, rs, arr, idx, eps=1e-3):
            """The central difference in arr[idx] of the loss on xs and rs."""
            orig = arr[idx]
            arr[idx] = orig + eps
            lp = float((naive_conv2d(xs, w, b) * rs).sum())
            arr[idx] = orig - eps
            lm = float((naive_conv2d(xs, w, b) * rs).sum())
            arr[idx] = orig
            return (lp - lm) / (2 * eps)

        for arr, g in ((w, grads["w"]), (b, grads["b"])):
            assert g.shape == arr.shape
            for idx in np.ndindex(arr.shape):
                assert g[idx] == pytest.approx(central(x, r, arr, idx),
                                               rel=1e-7, abs=1e-7)
        assert dx.shape == x.shape
        # every pixel of the first and last example: corners, edges, interior.
        # A pixel of example ex moves only that example's output, so the
        # differences run on it alone: xs is a view, perturbed with x.
        for ex in {0, batch - 1}:
            xs, rs = x[ex:ex + 1], r[ex:ex + 1]
            for idx in np.ndindex(x.shape[1:]):
                assert dx[(ex,) + idx] == pytest.approx(
                    central(xs, rs, xs, (0,) + idx), rel=1e-7, abs=1e-7)

    def test_empty_batch_has_zero_parameter_gradients(self):
        rng = np.random.default_rng(3)
        layer = Conv2d(rng.uniform(-1, 1, size=(5, 3, 3, 3)),
                       rng.uniform(-1, 1, size=5))
        y, cache = layer.forward(np.zeros((0, 3, 4, 4)))
        assert y.shape == (0, 5, 4, 4)
        dy = np.zeros(y.shape)
        for grads in (layer.param_grads(dy, cache, grad_views(layer)),
                      layer.backward(dy, cache, grad_views(layer))[1]):
            assert not grads["w"].any() and not grads["b"].any()
        dx, _ = layer.backward(dy, cache, grad_views(layer))
        assert dx.shape == (0, 3, 4, 4)


class TestConvKernel:
    """The column-matrix kernel against the earlier tensordot kernel, bitwise."""

    # batch 256 takes several forward chunks at every layer
    @pytest.mark.parametrize("batch", [8, 256])
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_bitwise_equal_to_tensordot_kernel(self, k, batch):
        rng = np.random.default_rng(k * batch)
        for dtype in (np.float32, np.float64):
            layers = conv_layers_with_inputs(k, batch, k + batch, dtype)
            assert len(layers) == 5
            for layer, x in layers:
                y, cache = layer.forward(x)
                assert y.dtype == dtype
                n, f, h, wd = y.shape
                # dy C-contiguous, and channel-major as the kernel makes y
                for dy in (rng.uniform(-1, 1, y.shape).astype(dtype),
                           rng.uniform(-1, 1, (f, n, h, wd)).astype(dtype)
                           .transpose(1, 0, 2, 3)):
                    want_y, want_dx, want = reference_conv(layer, x, dy)
                    dx, grads = layer.backward(dy, cache, grad_views(layer))
                    assert y.tobytes() == want_y.tobytes()
                    assert dx.tobytes() == want_dx.tobytes()
                    for name in ("w", "b"):
                        assert grads[name].tobytes() == want[name].tobytes()

    @pytest.mark.parametrize("layer, x", [
        (Conv2d(*(np.random.default_rng(1).uniform(-1, 1, size=s)
                  for s in ((4, 3, 3, 3), (4,)))),
         np.random.default_rng(2).uniform(-1, 1, size=(8, 3, 6, 6))),
        (Dense(*(np.random.default_rng(3).uniform(-1, 1, size=s)
                 for s in ((5, 4), (4,)))),
         np.random.default_rng(4).uniform(-1, 1, size=(8, 5))),
    ], ids=["conv2d", "dense"])
    def test_param_grads_equal_backward_grads(self, layer, x):
        y, cache = layer.forward(x)
        dy = np.random.default_rng(5).uniform(-1, 1, size=y.shape)
        _, full = layer.backward(dy, cache, grad_views(layer))
        alone = layer.param_grads(dy, cache, grad_views(layer))
        assert set(alone) == set(full) == {"w", "b"}
        for name in full:
            assert alone[name].tobytes() == full[name].tobytes()


class TestLayersWriteIntoOut:
    """backward and param_grads write a layer's gradients into the arrays
    of out and return out itself; a residual block hands each inner layer
    views of its own out."""

    @pytest.mark.parametrize("method", ["backward", "param_grads"])
    @pytest.mark.parametrize("index", [0, 2, 7], ids=["conv2d", "residual",
                                                       "dense"])
    def test_gradients_land_in_out(self, method, index):
        m = small_conv_model(seed=2, residual=True)
        layers = [layer for stage in m.stages for layer in stage.layers]
        x = np.random.default_rng(3).uniform(-1, 1, size=(4, 1, 8, 8))
        for layer in layers[:index]:
            x, _ = layer.forward(x)
        layer = layers[index]
        y, cache = layer.forward(x)
        dy = np.random.default_rng(4).uniform(-1, 1, size=y.shape)
        want = layer.param_grads(dy, cache, grad_views(layer))
        out = grad_views(layer)
        arrays = dict(out)
        for arr in out.values():
            arr[...] = np.nan
        got = getattr(layer, method)(dy, cache, out)
        assert (got[1] if method == "backward" else got) is out
        assert all(out[n] is a for n, a in arrays.items())
        assert {n: a.tobytes() for n, a in out.items()} == \
            {n: a.tobytes() for n, a in want.items()}


def conv_inputs(layers, x, found):
    """Append (Conv2d, its input) for every conv in layers, residual inner
    layers included; return the layers' output."""
    for layer in layers:
        if isinstance(layer, ResidualBlock):
            conv_inputs(layer.inner, x, found)
        elif isinstance(layer, Conv2d):
            found.append((layer, x))
        x, _ = layer.forward(x)
    return x


class TestConvPlan:
    """Conv2d reuses its buffers across calls at one input shape; no result
    may alias them, and a cache whose buffers were reused is rejected."""

    @pytest.mark.parametrize("batch", [8, 256])
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_reused_plan_bitwise_equal_to_tensordot_kernel(self, k, batch):
        net = build_staged_network(mini_staged_spec(kernel_size=k, residual=True),
                                   (1, 16, 16), num_labels=4, seed=k)
        rng = np.random.default_rng(k * batch)
        layers = []
        x = rng.uniform(-1, 1, size=(batch, 1, 16, 16)).astype(np.float32)
        for stage in net.stages:
            x = conv_inputs(stage.layers, x, layers)
        assert len(layers) == 10
        for layer, x in layers:
            # a step on other data first, so the next one reuses its plan
            y, cache = layer.forward(rng.uniform(-1, 1, size=x.shape))
            layer.backward(rng.uniform(-1, 1, size=y.shape), cache,
                           grad_views(layer))
            y, cache = layer.forward(x)
            dy = rng.uniform(-1, 1, size=y.shape).astype(np.float32)
            dx, grads = layer.backward(dy, cache, grad_views(layer))
            want_y, want_dx, want = reference_conv(layer, x, dy)
            assert y.tobytes() == want_y.tobytes()
            assert dx.tobytes() == want_dx.tobytes()
            for name in ("w", "b"):
                assert grads[name].tobytes() == want[name].tobytes()
                alone = layer.param_grads(dy, cache, grad_views(layer))
                assert alone[name].tobytes() == want[name].tobytes()

    def test_results_do_not_alias_buffers(self):
        # conv1 ends its stage, so the frozen prefix rows are conv outputs
        spec = (StageSpec("conv1", (LayerSpec("conv2d", out_channels=3),)),
                StageSpec("conv2", (LayerSpec("relu"),
                                    LayerSpec("conv2d", out_channels=4),
                                    LayerSpec("relu"),
                                    LayerSpec("global-average-pool"))),
                StageSpec("fc", (LayerSpec("dense"),)))
        m = build_staged_network(spec, (1, 8, 8), num_labels=3, seed=5)
        fresh = m.clone()
        rng = np.random.default_rng(6)
        x1, x2, x3 = (rng.uniform(-1, 1, size=(8, 1, 8, 8)) for _ in range(3))
        y = np.arange(8) % 3
        train_set, val_set = (LabeledDataset(x, y, ("a", "b", "c"))
                              for x in (x1, x2))
        schedule = MultiplierSchedule({"conv1": 0.0, "conv2": 1.0, "fc": 1.0})
        # a training step at this shape, so every conv keeps its plan
        _, _, cache = forward(m.stages, x3, y)
        backward(m.stages, cache)

        conv1 = m.stages[0].layers[0]
        out, _ = conv1.forward(x1)
        scores = run_stages(m.stages, x1)
        prefix = frozen_prefix(m, schedule, train_set, val_set)
        acc = _accuracy(m.stages, _chunks(x2, y))
        # the second calls at the same shape
        conv1.forward(x2)
        run_stages(m.stages, x2)
        frozen_prefix(m, schedule, val_set, train_set)
        _, _, cache = forward(m.stages, x3, y)
        backward(m.stages, cache)

        assert out.tobytes() == fresh.stages[0].layers[0].forward(x1)[0].tobytes()
        assert scores.tobytes() == run_stages(fresh.stages, x1).tobytes()
        want = frozen_prefix(fresh, schedule, train_set, val_set)
        assert prefix.rows.tobytes() == want.rows.tobytes()
        assert prefix.val_batches[0][0].tobytes() == want.val_batches[0][0].tobytes()
        assert acc == _accuracy(fresh.stages, _chunks(x2, y))

    def test_stale_cache_rejected(self):
        layer = Conv2d(*(np.random.default_rng(1).uniform(-1, 1, size=s)
                         for s in ((4, 3, 3, 3), (4,))))
        x = np.random.default_rng(2).uniform(-1, 1, size=(8, 3, 6, 6))
        dy = np.random.default_rng(3).uniform(-1, 1, size=(8, 4, 6, 6))
        _, cache = layer.forward(x)
        layer.backward(dy, cache, grad_views(layer))
        _, other = layer.forward(x[:4])       # another shape: cache stays valid
        layer.backward(dy, cache, grad_views(layer))
        layer.forward(x)                      # this shape again: cache is stale
        for method in (layer.backward, layer.param_grads):
            with pytest.raises(ValueError, match="stale"):
                method(dy, cache, grad_views(layer))

    def test_dy_of_another_shape_rejected(self):
        layer = Conv2d(np.ones((2, 1, 3, 3)), np.zeros(2))
        _, cache = layer.forward(np.ones((4, 1, 5, 5)))
        with pytest.raises(ValueError, match="dy shape"):
            layer.backward(np.ones((1, 2, 5, 5)), cache, grad_views(layer))

    def test_pickle_leaves_out_the_plan(self):
        layer = Conv2d(np.ones((2, 1, 3, 3)), np.zeros(2))
        before = len(pickle.dumps(layer))
        y, cache = layer.forward(np.ones((64, 1, 16, 16)))
        layer.backward(np.ones(y.shape), cache, grad_views(layer))
        assert len(pickle.dumps(layer)) == before
        copy = pickle.loads(pickle.dumps(layer))
        assert copy.forward(np.ones((2, 1, 5, 5)))[0].tobytes() == \
            layer.forward(np.ones((2, 1, 5, 5)))[0].tobytes()


LAYOUTS = ["C", "channel-major", "Fortran", "sliced"]


def relaid(a, layout, rng):
    """A copy of the (n, c, h, w) array a laid out C-ordered, channel-major,
    Fortran-ordered, or as a slice of a larger array of other values from
    rng, offset on every axis and taking every other column."""
    n, c, h, w = a.shape
    if layout == "channel-major":
        return np.ascontiguousarray(a.transpose(1, 0, 2, 3)).transpose(1, 0, 2, 3)
    if layout == "Fortran":
        return np.asfortranarray(a)
    if layout == "sliced":
        view = rng.uniform(-1, 1, (n + 1, c + 1, h + 2, 2 * w)).astype(
            a.dtype)[1:, 1:, 1:-1, ::2]
        view[...] = a
        return view
    return np.array(a, order="C")


def laid_out(rng, shape, layout, dtype=np.float64):
    """An (n, c, h, w) array of uniform values of dtype, a third of them
    swapped for -0.0 or 0.0, laid out as relaid() says."""
    a = rng.uniform(-1, 1, shape).astype(dtype)
    zeros = rng.random(shape) < 1 / 3
    a[zeros] = rng.choice([-0.0, 0.0], zeros.sum())
    return relaid(a, layout, rng)


def padded_windows(a, k):
    """A plain copy of _windows over a zero-padded copy of a."""
    p = k // 2
    n, c, h, w = a.shape
    ap = np.zeros((n, c, h + 2 * p, w + 2 * p), a.dtype)
    ap[:, :, p:p + h, p:p + w] = a
    return nn_core._windows(ap, k).copy()


class TestColumnFill:
    """Every column matrix a plan fills, copying whole window rows, is a
    bitwise copy of the padded tensor's windows, whatever x's and dy's
    layout."""

    # chunks * step + extra images: a few, exactly one chunk, or one image
    # (or up to 8) into the next chunk; sides of at most 4 drawn more often
    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(h=st.integers(1, 4) | st.integers(1, 8),
           w=st.integers(1, 4) | st.integers(1, 8), k=st.sampled_from([1, 3, 5]),
           c=st.integers(1, 4), f=st.integers(1, 3),
           chunks=st.integers(0, 2), extra=st.integers(0, 8),
           seed=st.integers(0, 2**32 - 1),
           x_layout=st.sampled_from(LAYOUTS), dy_layout=st.sampled_from(LAYOUTS),
           dtype=st.sampled_from([np.float32, np.float64]))
    def test_matrices_copy_the_windows(self, h, w, k, c, f, chunks, extra,
                                       seed, x_layout, dy_layout, dtype):
        step = max(1, nn_core._FORWARD_CHUNK_BYTES
                   // (c * k * k * h * w * np.dtype(dtype).itemsize))
        n = max(1, chunks * step + extra)
        rng = np.random.default_rng(seed)
        x = laid_out(rng, (n, c, h, w), x_layout, dtype)
        dy = laid_out(rng, (n, f, h, w), dy_layout, dtype)
        plan = nn_core._ConvPlan(x.shape, np.zeros((f, c, k, k), dtype))
        assert plan.step == step and len(plan.chunks) == -(-n // step)
        want = padded_windows(x, k)
        # other data first, so nothing a fill leaves behind can pass
        for a in (rng.uniform(-1, 1, x.shape), x):
            plan.x[...] = a
            for i, cols in zip(range(0, n, step), plan.chunks):
                got = cols.fill()
                assert got.shape == (c * k * k, min(step, n - i) * h * w)
                if a is x:
                    assert got.tobytes() == want[:, :, :, i:i + step].tobytes()
        plan.dy_columns(rng.uniform(-1, 1, dy.shape))
        got = plan.dy_columns(dy)
        assert got.shape == (f * k * k, n * h * w)
        assert got.tobytes() == padded_windows(dy, k).tobytes()

    def test_chunks_share_one_column_buffer(self):
        # 8 channels, k = 3 at 2x2 in float64: 227 images a chunk, so batch
        # 500 takes 3
        plan = nn_core._ConvPlan((500, 8, 2, 2), np.zeros((1, 8, 3, 3)))
        assert plan.windows.base is plan.xp and not plan.windows.flags.writeable
        assert len(plan.chunks) == 3
        buf = plan.chunks[0].matrix.base
        assert buf.size == plan.chunks[0].matrix.size
        assert all(cols.matrix.base is buf for cols in plan.chunks)


class TestConvGradientLayout:
    """Conv2d's dx, dW and db are the same bytes whatever dy's memory
    layout: param_grads sums each channel over a channel-major copy of dy,
    and backward copies dy into its padded buffer."""

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(n=st.integers(1, 12), c=st.integers(1, 4), f=st.integers(1, 4),
           h=st.integers(1, 6), w=st.integers(1, 6),
           k=st.sampled_from([1, 3, 5]), seed=st.integers(0, 2**32 - 1),
           dtype=st.sampled_from([np.float32, np.float64]))
    def test_gradients_do_not_depend_on_dy_layout(self, n, c, f, h, w, k, seed,
                                                  dtype):
        rng = np.random.default_rng(seed)
        layer = Conv2d(rng.uniform(-1, 1, (f, c, k, k)).astype(dtype),
                       rng.uniform(-1, 1, f).astype(dtype))
        _, cache = layer.forward(rng.uniform(-1, 1, (n, c, h, w)).astype(dtype))
        dy = rng.uniform(-1, 1, (n, f, h, w)).astype(dtype)
        got = set()
        for layout in LAYOUTS:
            d = relaid(dy, layout, rng)
            dx, grads = layer.backward(d, cache, grad_views(layer))
            alone = layer.param_grads(d, cache, grad_views(layer))
            assert {g.dtype for g in (dx, *grads.values())} == {np.dtype(dtype)}
            assert alone["w"].tobytes() + alone["b"].tobytes() == \
                grads["w"].tobytes() + grads["b"].tobytes()
            got.add((dx.tobytes(), grads["w"].tobytes(), grads["b"].tobytes()))
        assert len(got) == 1


def spy_on_backward(monkeypatch, stages):
    """Record, per layer path, each call of backward ("dx") and of
    param_grads ("params"); a layer's backward calls its param_grads too."""
    calls = {}
    for stage in stages:
        for li, layer in enumerate(stage.layers):
            path = f"{stage.name}/{li}"
            for method, kind in (("backward", "dx"), ("param_grads", "params")):
                if hasattr(layer, method):
                    def spy(*a, _f=getattr(layer, method), _p=path, _k=kind):
                        calls.setdefault(_p, []).append(_k)
                        return _f(*a)
                    monkeypatch.setattr(layer, method, spy)
    return calls


class TestLowestLayerInputGradient:
    """backward() never computes the input gradient of the lowest parameter layer."""

    def test_from_scratch_model(self, monkeypatch):
        m = build_staged_network(mini_staged_spec(), (1, 16, 16), 4, seed=2)
        x = np.random.default_rng(3).uniform(-1, 1, size=(8, 1, 16, 16))
        y = np.arange(8) % 4
        _, _, cache = forward(m.stages, x, y)
        calls = spy_on_backward(monkeypatch, m.stages)
        grads = backward(m.stages, cache)
        assert calls["conv1/0"] == ["params"]
        for path in ("conv1/1", "conv2/0", "conv5/0", "fc/0"):
            assert calls[path].count("dx") == 1
        assert set(grads) == {name for name, _ in m.named_parameters()}

    @pytest.mark.parametrize("first, lowest", [(2, "conv3/0"), (5, "fc/0")])
    def test_live_stage_list(self, monkeypatch, first, lowest):
        m = build_staged_network(mini_staged_spec(), (1, 16, 16), 4, seed=2)
        x = np.random.default_rng(3).uniform(-1, 1, size=(8, 1, 16, 16))
        y = np.arange(8) % 4
        live = m.stages[first:]
        _, _, cache = forward(live, run_stages(m.stages[:first], x), y)
        calls = spy_on_backward(monkeypatch, m.stages)
        grads = backward(live, cache)
        assert calls[lowest] == ["params"]
        assert all(kinds.count("dx") == 1 for path, kinds in calls.items()
                   if path != lowest)
        assert not any(path.split("/")[0] in m.stage_names[:first]
                       for path in calls)
        assert {n.split("/")[0] for n in grads} == set(m.stage_names[first:])


class TestLayerShapeChecks:
    @pytest.mark.parametrize("w,b", [((3,), (3,)), ((2, 3), (2,)),
                                     ((2, 3), (3, 1))])
    def test_dense_parameters_must_fit(self, w, b):
        with pytest.raises(ValueError, match="^dense parameter shapes "
                                             "inconsistent: "):
            Dense(np.zeros(w), np.zeros(b))

    @pytest.mark.parametrize("w,b,message", [
        ((2, 1, 3), (2,), r"weight must be \(out, in, k, k\), got \(2, 1, 3\)"),
        ((2, 1, 3, 5), (2,), r"weight must be \(out, in, k, k\), got "
                             r"\(2, 1, 3, 5\)"),
        ((2, 1, 3, 3), (3,), r"bias shape \(3,\) does not match 2 output "
                             r"channels"),
        ((2, 1, 2, 2), (2,), "kernel size must be odd, got 2")])
    def test_conv2d_parameters_must_fit(self, w, b, message):
        with pytest.raises(ValueError, match=f"^conv2d {message}$"):
            Conv2d(np.zeros(w), np.zeros(b))

    @pytest.mark.parametrize("shape,message", [
        ((2, 4, 4), r"expected \(batch, C, H, W\), got \(2, 4, 4\)"),
        ((1, 1, 3, 4), "needs even spatial dims, got 3x4"),
        ((1, 1, 4, 5), "needs even spatial dims, got 4x5")])
    def test_max_pool_input_must_fit(self, shape, message):
        with pytest.raises(ValueError, match=f"^max-pool {message}$"):
            MaxPool().forward(np.zeros(shape))

    def test_global_average_pool_needs_4d_input(self):
        with pytest.raises(ValueError, match=r"^global-average-pool expected "
                                             r"\(batch, C, H, W\), got "
                                             r"\(2, 3\)$"):
            nn_core.GlobalAvgPool().forward(np.zeros((2, 3)))

    def test_residual_chain_must_keep_its_shape(self):
        block = ResidualBlock([Conv2d(np.zeros((2, 1, 3, 3)), np.zeros(2))])
        with pytest.raises(ValueError, match=r"^residual-add inner chain "
                                             r"changed shape \(1, 1, 4, 4\) "
                                             r"-> \(1, 2, 4, 4\)$"):
            block.forward(np.zeros((1, 1, 4, 4)))


class TestMaxPool:
    def test_ties_route_gradient_to_first_max(self):
        # small integers, so most 2x2 windows hold a tie for the max
        rng = np.random.default_rng(13)
        x = rng.integers(-1, 2, size=(3, 2, 4, 6)).astype(float)
        dy = rng.uniform(1, 2, size=(3, 2, 2, 3))
        layer = MaxPool()
        y, cache = layer.forward(x)
        dx, _ = layer.backward(dy, cache, {})
        want_y = np.empty_like(dy)
        want_dx = np.zeros_like(x)
        for n, c, i, j in np.ndindex(dy.shape):
            window = x[n, c, 2 * i:2 * i + 2, 2 * j:2 * j + 2]
            a, b = divmod(int(window.argmax()), 2)  # first max, row-major
            want_y[n, c, i, j] = window[a, b]
            want_dx[n, c, 2 * i + a, 2 * j + b] = dy[n, c, i, j]
        assert np.array_equal(y, want_y)
        assert np.array_equal(dx, want_dx)

    # values drawn from five, so most windows tie, often 0.0 with -0.0
    @settings(derandomize=True, database=None, max_examples=80, deadline=None)
    @given(n=st.sampled_from([1, 8, 100]), c=st.integers(1, 8),
           h=st.integers(1, 8), w=st.integers(1, 8),
           seed=st.integers(0, 2**32 - 1),
           x_layout=st.sampled_from(["C", "channel-major", "Fortran", "sliced"]),
           dy_layout=st.sampled_from(["C", "channel-major"]))
    def test_bitwise_equal_to_four_view_kernel(self, n, c, h, w, seed,
                                               x_layout, dy_layout):
        rng = np.random.default_rng(seed)
        values = np.array([-1.0, -0.0, 0.0, 1.0, 2.0])
        shape = (n, c, 2 * h, 2 * w)
        if x_layout == "channel-major":
            x = rng.choice(values, (c, n) + shape[2:]).transpose(1, 0, 2, 3)
        elif x_layout == "sliced":     # offset on every axis, every other column
            x = rng.choice(values, (n + 1, c + 1, 2 * h + 2, 4 * w))
            x = x[1:, 1:, 1:-1, ::2]
        else:
            x = rng.choice(values, shape)
            if x_layout == "Fortran":
                x = np.asfortranarray(x)
        dy = rng.uniform(-1, 1, (c, n, h, w)).transpose(1, 0, 2, 3) \
            if dy_layout == "channel-major" else rng.uniform(-1, 1, (n, c, h, w))
        layer = MaxPool()
        y, cache = layer.forward(x)
        dx, _ = layer.backward(dy, cache, {})
        want_y, want_dx = reference_max_pool(x, dy)
        assert y.tobytes() == want_y.tobytes()
        assert same_bytes(dx, want_dx)


def reference_softmax_cross_entropy(logits, labels):
    """(loss, probs, dlogits) of the mean softmax cross-entropy, computed
    through the ndarray method wrappers."""
    n = logits.shape[0]
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    denom = exp.sum(axis=1, keepdims=True)
    probs = exp / denom
    log_probs = shifted - np.log(denom)
    loss = -log_probs[np.arange(n), labels].mean()
    dlogits = probs.copy()
    dlogits[np.arange(n), labels] -= 1.0
    dlogits /= n
    return loss, probs, dlogits


def reference_global_avg_pool(x, dy):
    """GlobalAvgPool's forward output and backward dx through mean and a
    copied broadcast."""
    n, c, h, w = x.shape
    return (x.mean(axis=(2, 3)),
            np.broadcast_to(dy[:, :, None, None] / (h * w), x.shape).copy())


def same_bytes(a, b):
    """Equal values, bit for bit, in the same memory order."""
    a, b = np.asarray(a), np.asarray(b)
    return (a.dtype == b.dtype and a.shape == b.shape
            and a.strides == b.strides and a.tobytes() == b.tobytes())


SOFTMAX_SHAPES = [(n, c) for c in (5, 2, 4) for n in (1, 6, 8, 256)]


class TestLeanKernelsMatchReferences:
    """The loss kernel, forward's loss and the global-average pool give the
    reference formulas' bytes, so no result of training changes."""

    # (batch, labels): batch 6 is not a power of 2, so dividing by it
    # rounds; an id names the labels where they are not 5
    @pytest.mark.parametrize("n, c", SOFTMAX_SHAPES, ids=[
        f"{n}" if c == 5 else f"{n}x{c}" for n, c in SOFTMAX_SHAPES])
    @pytest.mark.parametrize("layout", ["row-major", "channel-major"])
    @pytest.mark.parametrize("kind", ["uniform", "large", "tied"])
    def test_softmax_cross_entropy(self, n, c, layout, kind):
        rng = np.random.default_rng(n)
        logits = rng.standard_normal((c, n) if layout == "channel-major"
                                     else (n, c))
        if kind == "large":
            logits = logits * 1e3 + 1e6
        elif kind == "tied":
            logits = np.round(logits)      # most rows hold a tied max
            logits[0] = 7.0                # a row or column of one value
        if layout == "channel-major":
            logits = logits.T
        labels = rng.integers(0, c, size=n)
        want_loss, want_probs, want_dlogits = reference_softmax_cross_entropy(
            logits, labels)
        assert same_bytes(softmax_cross_entropy(logits, labels), want_dlogits)
        loss, probs, cache = forward([], logits, labels)
        assert type(loss) is float
        assert same_bytes(np.float64(loss), want_loss)
        assert same_bytes(probs, want_probs)
        assert same_bytes(cache.dlogits, want_dlogits)

    @settings(derandomize=True, database=None, max_examples=80, deadline=None)
    @given(n=st.sampled_from([1, 8, 256]), c=st.integers(2, 6),
           seed=st.integers(0, 2**32 - 1),
           kind=st.sampled_from(["normal", "tied", "signed-zero", "underflow"]))
    def test_one_hot_rows_subtract_as_the_fancy_index(self, n, c, seed, kind):
        # the loss kernel subtracts one-hot rows where training once did
        # dlogits[np.arange(n), labels] -= 1.0: p - 0.0 is p, -0.0 included,
        # and p - 1.0 is the same operation, so the bytes are the same
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, c, size=n)
        if n >= c:                     # every label, at random rows
            labels[rng.permutation(n)[:c]] = np.arange(c)
        logits = rng.standard_normal((n, c))
        if kind == "tied":
            logits = np.round(logits)
        elif kind == "signed-zero":    # every row tied at 0.0 and -0.0
            logits = np.where(rng.random((n, c)) < 0.5, -0.0, 0.0)
        elif kind == "underflow":      # most probabilities round to 0.0
            logits = logits * 2000.0
        want = np.ascontiguousarray(nn_core._softmax(logits)[0])
        want[np.arange(n), labels] -= 1.0
        want /= n
        onehot = np.eye(c)[labels]
        assert same_bytes(softmax_cross_entropy(logits, labels), want)
        assert same_bytes(softmax_cross_entropy(logits, onehot), want)
        # the subtraction alone, on rows that hold -0.0, 0.0 and the
        # smallest subnormal as well as probabilities
        p = rng.random((n, c))
        p[rng.random((n, c)) < 0.3] = -0.0
        p[rng.random((n, c)) < 0.3] = 0.0
        p[rng.random((n, c)) < 0.1] = 5e-324
        fancy = p.copy()
        fancy[np.arange(n), labels] -= 1.0
        assert same_bytes(p - onehot, fancy)

    @pytest.mark.parametrize("labels", [np.zeros(3, dtype=np.int64),
                                        np.zeros((4, 2)), np.zeros((4, 3, 1))],
                             ids=["short", "narrow", "3-d"])
    def test_labels_that_do_not_fit_the_logits_rejected(self, labels):
        with pytest.raises(ValueError, match="do not fit logits of shape"):
            softmax_cross_entropy(np.zeros((4, 3)), labels)

    @pytest.mark.parametrize("n", [1, 8, 256])
    @pytest.mark.parametrize("layout", ["row-major", "channel-major"])
    def test_global_avg_pool(self, n, layout):
        rng = np.random.default_rng(n)
        c, h, w = 8, 4, 6
        if layout == "channel-major":    # as a conv's output is laid out
            x = rng.standard_normal((c, n, h, w)).transpose(1, 0, 2, 3)
            dy = rng.standard_normal((c, n)).T
        else:
            x = rng.standard_normal((n, c, h, w))
            dy = rng.standard_normal((n, c))
        layer = nn_core.GlobalAvgPool()
        y, cache = layer.forward(x)
        dx, grads = layer.backward(dy, cache, {})
        want_y, want_dx = reference_global_avg_pool(x, dy)
        assert same_bytes(y, want_y)
        assert same_bytes(dx, want_dx)
        assert grads == {}


class TestFrozenPrefixElision:
    """Backward over a live stage list gives the full backward's gradients."""

    def four_stage_model(self):
        return build_staged_network(mini_staged_spec(widths=(2, 3, 3),
                                                     input_shape=(1, 8, 8)),
                                    (1, 8, 8), num_labels=3, seed=11)

    @pytest.mark.parametrize("mults, start", [
        ((0.0, 0.0, 0.0, 1.0), 3),     # head only
        ((0.0, 0.0, 1.0, 2.0), 2),     # frozen prefix of 2 stages
        ((0.0, 0.0, 0.0, 0.0), 4),     # all frozen
    ])
    def test_elided_gradients_bitwise_equal_full(self, mults, start):
        m = self.four_stage_model()
        schedule = MultiplierSchedule(dict(zip(m.stage_names, mults)))
        assert lowest_trainable_stage(m.stage_names, schedule) == start
        x = np.random.default_rng(12).uniform(-1, 1, size=(5, 1, 8, 8))
        y = np.array([0, 1, 2, 0, 1])
        _, _, cache = forward(m.stages, x, y)
        full = backward(m.stages, cache)
        live = m.stages[start:]
        _, _, live_cache = forward(live, run_stages(m.stages[:start], x), y)
        elided = backward(live, live_cache)
        kept = {s.name for s in live}
        assert set(elided) == {n for n in full if n.split("/")[0] in kept}
        for name, g in elided.items():
            assert g.tobytes() == full[name].tobytes()
        if start == len(m.stages):
            assert elided == {}


class TestGradCheck:
    def test_linear_model_error_at_roundoff(self):
        # all-live gradients, so the relative error sits at FD roundoff
        spec = (StageSpec("fc", (LayerSpec("dense"),)),)
        m = build_staged_network(spec, (3,), num_labels=3, seed=0)
        x = np.random.default_rng(50).uniform(-1, 1, size=(4, 3))
        y = np.array([0, 1, 2, 0])
        assert grad_check(m.stages, x, y, epsilon=1e-5) < 1e-8

    # seeds verified to keep relu inputs away from 0 and all paths live;
    # exact kinks or dead paths make finite differences legitimately noisy
    @pytest.mark.parametrize("seed", [0, 2, 4, 7])
    def test_conv_relu_pool_model_under_1e4(self, seed):
        m = small_conv_model(seed=seed)
        x = np.random.default_rng(300 + seed).uniform(-1, 1, size=(4, 1, 8, 8))
        y = np.array([0, 1, 2, 0])
        assert grad_check(m.stages, x, y, epsilon=1e-5) < 1e-4

    @pytest.mark.parametrize("seed", [0, 4, 7])
    def test_residual_model_under_1e4(self, seed):
        m = small_conv_model(seed=seed, residual=True)
        x = np.random.default_rng(300 + seed).uniform(-1, 1, size=(4, 1, 8, 8))
        y = np.array([0, 1, 2, 0])
        assert grad_check(m.stages, x, y, epsilon=1e-5) < 1e-4

    def test_residual_lowest_layer_under_1e4(self):
        # the lowest parameter layer is a residual block: its param_grads
        spec = (StageSpec("res", (LayerSpec("residual-add", inner=(
                    LayerSpec("conv2d", out_channels=1), LayerSpec("relu"))),
                                  LayerSpec("global-average-pool"))),
                StageSpec("fc", (LayerSpec("dense"),)))
        m = build_staged_network(spec, (1, 4, 4), num_labels=3, seed=0)
        x = np.random.default_rng(300).uniform(-1, 1, size=(4, 1, 4, 4))
        assert grad_check(m.stages, x, np.array([0, 1, 2, 0]), epsilon=1e-5) < 1e-4

    def test_reports_a_planted_error_on_a_tiny_gradient(self, monkeypatch):
        # input feature 0 is scaled by 1e-4, so its weights' gradients are
        # about 1e-5; one of them gets a relative error of 1e-3, which a
        # relative error with a floor near that size would hide
        spec = (StageSpec("fc", (LayerSpec("dense"),)),)
        m = build_staged_network(spec, (3,), num_labels=3, seed=0)
        x = np.random.default_rng(51).uniform(-1, 1, size=(4, 3))
        x[:, 0] *= 1e-4
        y = np.array([0, 1, 2, 0])
        layer = m.stages[0].layers[0]
        _, _, cache = forward(m.stages, x, y)
        assert 1e-6 < abs(backward(m.stages, cache)["fc/0/w"][0, 1]) < 1e-4
        original = layer.param_grads

        def planted(dy, cache, out):
            original(dy, cache, out)
            out["w"][0, 1] *= 1 + 1e-3
            return out
        monkeypatch.setattr(layer, "param_grads", planted)
        assert grad_check(m.stages, x, y, epsilon=1e-5) >= 1e-4

    def test_epsilon_must_be_positive(self):
        m = two_layer_model()
        x = np.zeros((2, 4))
        with pytest.raises(ValueError, match="epsilon"):
            grad_check(m.stages, x, [0, 1], epsilon=0.0)
        with pytest.raises(ValueError, match="epsilon"):
            grad_check(m.stages, x, [0, 1], epsilon=-1e-5)

    def test_param_budget_enforced(self):
        spec = (StageSpec("big", (LayerSpec("dense", out_features=200),
                                  LayerSpec("relu"))),
                StageSpec("fc", (LayerSpec("dense"),)))
        m = build_staged_network(spec, (100,), num_labels=3, seed=0)
        assert m.param_count() > 10_000
        with pytest.raises(ValueError, match="parameters"):
            grad_check(m.stages, np.zeros((2, 100)), [0, 1])

    def test_matches_independent_finite_differences(self):
        # spot-check grad_check's numeric side against a hand-rolled FD loop
        m = float64_model(two_layer_model(seed=8))
        rng = np.random.default_rng(8)
        x = rng.uniform(-1, 1, size=(4, 4))
        y = np.array([0, 1, 2, 0])
        _, _, cache = forward(m.stages, x, y)
        analytic = backward(m.stages, cache)
        w = dict(m.named_parameters())["hidden/0/w"]
        eps = 1e-6
        for idx in [(0, 0), (1, 3), (3, 2)]:
            orig = w[idx]
            w[idx] = orig + eps
            lp, _, _ = forward(m.stages, x, y)
            w[idx] = orig - eps
            lm, _, _ = forward(m.stages, x, y)
            w[idx] = orig
            fd = (lp - lm) / (2 * eps)
            assert analytic["hidden/0/w"][idx] == pytest.approx(fd, abs=1e-7)

    def test_param_count(self):
        m = two_layer_model()
        # dense 4x5 + 5 bias + dense 5x3 + 3 bias
        assert param_count(m.stages) == 4 * 5 + 5 + 5 * 3 + 3

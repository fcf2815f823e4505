"""Dense/convolutional network kernels with exact reverse-mode gradients.

Layers operate on float64 numpy arrays. Feature maps are laid out NCHW;
dense layers take (batch, features). Each layer implements a pure
forward(x) -> (y, cache) and backward(dy, cache) -> (dx, param_grads)
pair, so the engine-level ops stay stateless and deterministic. A layer
with parameters also has param_grads(dy, cache): backward's parameter
gradients, computed without dx where the layer can.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np
from numpy.lib.stride_tricks import as_strided

DTYPE = np.float64


def _check_finite(arr: np.ndarray, context: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"non-finite values produced in {context}")


class Dense:
    """Fully connected layer: y = x @ w + b."""

    kind = "dense"

    def __init__(self, w: np.ndarray, b: np.ndarray):
        self.w = np.asarray(w, dtype=DTYPE)
        self.b = np.asarray(b, dtype=DTYPE)
        if self.w.ndim != 2 or self.b.shape != (self.w.shape[1],):
            raise ValueError(f"dense parameter shapes inconsistent: "
                             f"w {self.w.shape}, b {self.b.shape}")

    def forward(self, x):
        if x.ndim != 2 or x.shape[1] != self.w.shape[0]:
            raise ValueError(f"dense expected input (batch, {self.w.shape[0]}), "
                             f"got {x.shape}")
        return x @ self.w + self.b, x

    def backward(self, dy, cache):
        return dy @ self.w.T, self.param_grads(dy, cache)

    def param_grads(self, dy, cache):
        """The parameter half of backward: no input gradient."""
        x = cache
        return {"w": x.T @ dy, "b": dy.sum(axis=0)}

    def named_params(self) -> Iterator[tuple[str, np.ndarray]]:
        yield "w", self.w
        yield "b", self.b


def _pad(x: np.ndarray, p: int) -> np.ndarray:
    """Zero-pad the two spatial dims of an NCHW map by p on each side."""
    n, c, h, w = x.shape
    xp = np.zeros((n, c, h + 2 * p, w + 2 * p), dtype=DTYPE)
    xp[:, :, p:p + h, p:p + w] = x
    return xp


def _columns(xp: np.ndarray, k: int) -> np.ndarray:
    """(c*k*k, n*h*w) matrix of every k x k window of a padded NCHW map.

    Row (ci, a, b) and column (m, i, j) hold xp[m, ci, i + a, j + b]. The
    matrix is one copy of a read-only strided view of xp.
    """
    n, c, hp, wp = xp.shape
    h, w = hp - k + 1, wp - k + 1
    sn, sc, sh, sw = xp.strides
    view = as_strided(xp, (c, k, k, n, h, w), (sc, sh, sw, sn, sh, sw),
                      writeable=False)
    return view.reshape(c * k * k, n * h * w)


# Conv2d.forward builds the column matrix of at most about this many bytes
# at a time. A training batch fits in one chunk. At evaluation batches of 96
# and 256, one whole-batch copy was 35-60% slower per example than chunks
# of this size (2-core VM, OpenBLAS), mostly from page faults on the large
# temporaries.
_FORWARD_CHUNK_BYTES = 1 << 19


class Conv2d:
    """3x3-style convolution, stride 1, zero padding k//2 (shape preserving).

    Each of y, dW and dX is one matrix product with the column matrix of a
    zero-padded tensor (the lowering to matrix products of Chellapilla et
    al. 2006), y in batch chunks of bounded size; only the padded input is
    kept for backward.
    """

    kind = "conv2d"

    def __init__(self, w: np.ndarray, b: np.ndarray):
        self.w = np.asarray(w, dtype=DTYPE)  # (out_c, in_c, k, k)
        self.b = np.asarray(b, dtype=DTYPE)
        if self.w.ndim != 4 or self.w.shape[2] != self.w.shape[3]:
            raise ValueError(f"conv2d weight must be (out, in, k, k), got {self.w.shape}")
        if self.b.shape != (self.w.shape[0],):
            raise ValueError(f"conv2d bias shape {self.b.shape} does not match "
                             f"{self.w.shape[0]} output channels")
        if self.w.shape[2] % 2 == 0:
            raise ValueError(f"conv2d kernel size must be odd, got {self.w.shape[2]}")

    @property
    def kernel_size(self) -> int:
        return self.w.shape[2]

    def forward(self, x):
        if x.ndim != 4 or x.shape[1] != self.w.shape[1]:
            raise ValueError(f"conv2d expected input (batch, {self.w.shape[1]}, H, W), "
                             f"got {x.shape}")
        k = self.kernel_size
        xp = _pad(x, k // 2)
        n, c, h, wd = x.shape
        f = self.w.shape[0]
        w = self.w.reshape(f, c * k * k)
        step = max(1, _FORWARD_CHUNK_BYTES // (c * k * k * h * wd * xp.itemsize))
        out = np.empty((f, n, h, wd), dtype=DTYPE)
        for i in range(0, n, step):
            out[:, i:i + step] = (w @ _columns(xp[i:i + step], k)).reshape(f, -1, h, wd)
        out += self.b[:, None, None, None]
        return out.transpose(1, 0, 2, 3), xp

    def backward(self, dy, cache):
        k = self.kernel_size
        n, f, h, wd = dy.shape
        # full correlation of dy with the flipped kernel
        w = self.w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(-1, f * k * k)
        dx = w @ _columns(_pad(dy, k // 2), k)
        return (dx.reshape(-1, n, h, wd).transpose(1, 0, 2, 3),
                self.param_grads(dy, cache))

    def param_grads(self, dy, cache):
        """The parameter half of backward: no input gradient."""
        xp = cache
        k = self.kernel_size
        f = dy.shape[1]
        dw = _columns(xp, k) @ dy.transpose(0, 2, 3, 1).reshape(-1, f)
        db = dy.sum(axis=(0, 2, 3))
        return {"w": dw.reshape(-1, k, k, f).transpose(3, 0, 1, 2), "b": db}

    def named_params(self):
        yield "w", self.w
        yield "b", self.b


class Relu:
    """Elementwise max(x, 0); subgradient at 0 is 0."""

    kind = "relu"

    def forward(self, x):
        return np.maximum(x, 0.0), x

    def backward(self, dy, cache):
        return dy * (cache > 0.0), {}

    def named_params(self):
        return iter(())


class MaxPool:
    """2x2 max pooling with stride 2; ties route the gradient to the first max."""

    kind = "max-pool"
    size = 2

    def forward(self, x):
        if x.ndim != 4:
            raise ValueError(f"max-pool expected (batch, C, H, W), got {x.shape}")
        h, w = x.shape[2:]
        if h % 2 or w % 2:
            raise ValueError(f"max-pool needs even spatial dims, got {h}x{w}")
        out = np.maximum(np.maximum(x[:, :, 0::2, 0::2], x[:, :, 0::2, 1::2]),
                         np.maximum(x[:, :, 1::2, 0::2], x[:, :, 1::2, 1::2]))
        return out, (x, out)

    def backward(self, dy, cache):
        x, out = cache
        dx = np.empty(x.shape, dtype=DTYPE)
        free = np.ones(out.shape, dtype=bool)  # windows whose max is not yet found
        for di in (0, 1):
            for dj in (0, 1):
                hit = free & (x[:, :, di::2, dj::2] == out)
                dx[:, :, di::2, dj::2] = np.where(hit, dy, 0.0)
                free &= ~hit
        return dx, {}

    def named_params(self):
        return iter(())


class GlobalAvgPool:
    """Mean over spatial dims: (N, C, H, W) -> (N, C)."""

    kind = "global-average-pool"

    def forward(self, x):
        if x.ndim != 4:
            raise ValueError(f"global-average-pool expected (batch, C, H, W), got {x.shape}")
        return x.mean(axis=(2, 3)), x.shape

    def backward(self, dy, cache):
        n, c, h, w = cache
        dx = np.broadcast_to(dy[:, :, None, None] / (h * w), (n, c, h, w)).copy()
        return dx, {}

    def named_params(self):
        return iter(())


class ResidualBlock:
    """Skip connection: y = x + f(x), f a shape-preserving layer chain."""

    kind = "residual-add"

    def __init__(self, inner: list):
        self.inner = list(inner)

    def forward(self, x):
        y = x
        caches = []
        for layer in self.inner:
            y, c = layer.forward(y)
            caches.append(c)
        if y.shape != x.shape:
            raise ValueError(f"residual-add inner chain changed shape "
                             f"{x.shape} -> {y.shape}")
        return x + y, caches

    def backward(self, dy, cache):
        grads = {}
        d = dy
        for i in reversed(range(len(self.inner))):
            d, g = self.inner[i].backward(d, cache[i])
            for pname, garr in g.items():
                grads[f"{i}/{pname}"] = garr
        return dy + d, grads

    def param_grads(self, dy, cache):
        return self.backward(dy, cache)[1]

    def named_params(self):
        for i, layer in enumerate(self.inner):
            for pname, arr in layer.named_params():
                yield f"{i}/{pname}", arr


@dataclass
class Stage:
    """Named group of layers; the unit that learning-rate multipliers index."""

    name: str
    layers: list = field(default_factory=list)

    def named_params(self) -> Iterator[tuple[str, np.ndarray]]:
        for i, layer in enumerate(self.layers):
            for pname, arr in layer.named_params():
                yield f"{self.name}/{i}/{pname}", arr


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy over the batch.

    Returns (loss, probs, dlogits) where dlogits is the gradient of the
    mean loss with respect to the logits.
    """
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


@dataclass
class ForwardCache:
    """Activations saved by forward() for the matching backward() call."""

    stage_caches: list
    dlogits: np.ndarray


def run_stages(stages: list[Stage], x: np.ndarray, check_finite: bool = False,
               caches: list | None = None) -> np.ndarray:
    """The one stage loop: run a batch through a stage list, with no loss.

    A layer's shape error, and with check_finite a non-finite activation, is
    re-raised with its stage named. caches gets each stage's layer caches."""
    for stage in stages:
        layer_caches = []
        for layer in stage.layers:
            try:
                x, c = layer.forward(x)
            except ValueError as e:
                raise ValueError(f"stage '{stage.name}': {e}") from None
            if caches is not None:   # else each cache is freed at once
                layer_caches.append(c)
        if check_finite and not np.all(np.isfinite(x)):
            raise ValueError(f"stage '{stage.name}': non-finite activation")
        if caches is not None:
            caches.append(layer_caches)
    return x


def forward(stages: list[Stage], batch: np.ndarray, labels) -> tuple[float, np.ndarray, ForwardCache]:
    """Run the stage list on a batch and apply softmax cross-entropy.

    Returns (loss, per-label probabilities, cache for backward).
    Shape problems and non-finite activations are rejected with the
    offending stage named.
    """
    x = np.asarray(batch, dtype=DTYPE)
    y = np.asarray(labels)
    if y.ndim != 1 or y.shape[0] != x.shape[0]:
        raise ValueError(f"labels must be a length-{x.shape[0]} vector, "
                         f"got shape {y.shape}")
    y = y.astype(np.int64)
    stage_caches: list = []
    x = run_stages(stages, x, check_finite=True, caches=stage_caches)
    if x.ndim != 2:
        raise ValueError(f"head stage '{stages[-1].name}' must produce "
                         f"(batch, labels) scores, got shape {x.shape}")
    if np.any(y < 0) or np.any(y >= x.shape[1]):
        raise ValueError(f"labels out of range for {x.shape[1]} classes")
    loss, probs, dlogits = softmax_cross_entropy(x, y)
    _check_finite(probs, "softmax")
    return float(loss), probs, ForwardCache(stage_caches, dlogits)


def backward(stages: list[Stage], cache: ForwardCache) -> dict[str, np.ndarray]:
    """Gradients of the mean loss for every parameter, keyed stage/layer/param.

    Requires the cache produced by forward() on the batch and labels.
    The input gradient of the lowest layer with parameters is never needed,
    so that layer runs only param_grads, and the layers below it run no
    backward at all.
    """
    if not isinstance(cache, ForwardCache):
        raise ValueError("backward called without a forward cache; run forward first")
    if len(cache.stage_caches) != len(stages):
        raise ValueError("cache does not match this stage list")
    layers = [(f"{stage.name}/{li}", layer, c)
              for stage, caches in zip(stages, cache.stage_caches)
              for li, (layer, c) in enumerate(zip(stage.layers, caches))]
    lowest = next((i for i, (_, layer, _) in enumerate(layers)
                   if any(True for _ in layer.named_params())), len(layers))
    grads: dict[str, np.ndarray] = {}
    d = cache.dlogits
    for i in reversed(range(lowest, len(layers))):
        path, layer, c = layers[i]
        if i == lowest:
            layer_grads = layer.param_grads(d, c)
        else:
            d, layer_grads = layer.backward(d, c)
        for pname, g in layer_grads.items():
            grads[f"{path}/{pname}"] = g
    for name, g in grads.items():
        _check_finite(g, f"gradient of {name}")
    return grads


def param_count(stages: list[Stage]) -> int:
    return sum(arr.size for stage in stages for _, arr in stage.named_params())


MAX_GRAD_CHECK_PARAMS = 10_000


def grad_check(stages: list[Stage], batch: np.ndarray, labels,
               epsilon: float = 1e-5) -> float:
    """Compare analytic gradients to central finite differences.

    Perturbs every parameter scalar by +-epsilon and returns the maximum
    relative error max |analytic - numeric| / max(|analytic|, |numeric|, 1e-12).
    Only intended for models with at most 10^4 parameters.
    """
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    total = param_count(stages)
    if total > MAX_GRAD_CHECK_PARAMS:
        raise ValueError(f"model has {total} parameters; grad_check supports "
                         f"at most {MAX_GRAD_CHECK_PARAMS}")
    _, _, cache = forward(stages, batch, labels)
    analytic = backward(stages, cache)
    worst = 0.0
    for stage in stages:
        for name, arr in stage.named_params():
            a = analytic[name]
            flat = arr.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + epsilon
                loss_p, _, _ = forward(stages, batch, labels)
                flat[i] = orig - epsilon
                loss_m, _, _ = forward(stages, batch, labels)
                flat[i] = orig
                numeric = (loss_p - loss_m) / (2.0 * epsilon)
                ana = a.reshape(-1)[i]
                err = abs(ana - numeric) / max(abs(ana), abs(numeric), 1e-12)
                worst = max(worst, err)
    return worst

"""Dense/convolutional network kernels with exact reverse-mode gradients.

A layer computes in its parameters' float dtype: float32 for every model
ftlab builds, the precision its files hold; float64 for a layer built on
float64 arrays. Feature maps are laid out NCHW; dense layers take (batch,
features). Each layer implements a forward(x) -> (y, cache) and
backward(dy, cache, out) -> (dx, out) pair whose results depend only on the
inputs and the parameters; the only other state is Conv2d's scratch
buffers, which no result aliases. out, required, maps each parameter name
to the array its gradient is written into, and is empty for a layer with
none. A layer with parameters also has param_grads(dy, cache, out) -> out:
backward's parameter gradients, computed without dx where the layer can.

backward() over a stage list is the one place that allocates gradients: one
flat vector, laid out like the list's parameters, whose views it hands each
layer as out. It returns them in a Gradients object, a read-only mapping of
each name to its view, that is fresh at each call unless passed as out, as
optim.train() passes one at every step of a call.
"""

from __future__ import annotations

import copy
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np


def _float_array(a) -> np.ndarray:
    """a as an array of its own float dtype; other numbers become float64.
    An array of a float dtype is itself, so a view stays a view."""
    a = np.asarray(a)
    return a if a.dtype.kind == "f" else a.astype(np.float64)


class Dense:
    """Fully connected layer: y = x @ w + b."""

    kind = "dense"

    def __init__(self, w: np.ndarray, b: np.ndarray):
        self.w = _float_array(w)
        self.b = np.asarray(b, dtype=self.w.dtype)
        if self.w.ndim != 2 or self.b.shape != (self.w.shape[1],):
            raise ValueError(f"dense parameter shapes inconsistent: "
                             f"w {self.w.shape}, b {self.b.shape}")

    def forward(self, x):
        if x.ndim != 2 or x.shape[1] != self.w.shape[0]:
            raise ValueError(f"dense expected input (batch, {self.w.shape[0]}), "
                             f"got {x.shape}")
        y = x @ self.w
        y += self.b         # in place: the same sums, one array fewer
        return y, x

    def backward(self, dy, cache, out):
        return dy @ self.w.T, self.param_grads(dy, cache, out)

    def param_grads(self, dy, cache, out):
        """The parameter half of backward: no input gradient."""
        np.matmul(cache.T, dy, out=out["w"])     # cache is the input x
        np.add.reduce(dy, axis=0, out=out["b"])
        return out

    def named_params(self) -> Iterator[tuple[str, np.ndarray]]:
        yield "w", self.w
        yield "b", self.b


def _windows(xp: np.ndarray, k: int) -> np.ndarray:
    """Read-only (c, k, k, n, h, w) view of every k x k window of a padded
    NCHW map: [ci, a, b, m, i, j] is xp[m, ci, i + a, j + b]. xp must be
    C-contiguous. Built on xp's buffer directly: as_strided costs several
    microseconds more, and evaluation makes a view at every conv call."""
    n, c, hp, wp = xp.shape
    sn, sc, sh, sw = xp.strides
    view = np.ndarray((c, k, k, n, hp - k + 1, wp - k + 1), xp.dtype, xp, 0,
                      (sc, sh, sw, sn, sh, sw))
    view.flags.writeable = False
    return view


class _Columns:
    """The (c*k*k, n*h*w) column matrix of a window view, row (ci, a, b) and
    column (m, i, j), kept in the front of the flat buffer buf.

    fill copies each window row, the w pixels at [ci, a, b, m, i, :], as
    one raw item, so numpy's copy loop takes a step per row, not per pixel
    of a row that may be only 2 or 4 wide. The matrix is a bitwise copy of
    the windows, as an element-wise copy gives it, so how fill copies is not
    part of the bitwise contract. Isolated fills, k = 3, pixel by pixel
    against row by row, on a 2-core Haswell VM (numpy 2.4): 139 -> 48 us at
    2x2 with 8 channels and batch 100, 123 -> 75 us at 4x4 with 4 channels,
    55 -> 43 us at 8x8 with 4 and batch 28, 44 -> 34 us at 16x16 with 1 and
    batch 28.
    """

    def __init__(self, windows: np.ndarray, buf: np.ndarray):
        dest = buf[:windows.size].reshape(windows.shape)
        c, k, _, n, h, w = windows.shape
        self.matrix = dest.reshape(c * k * k, n * h * w)
        # a row's w contiguous values as one raw item; "V<bytes>" makes the
        # dtype in a third of the time np.dtype((np.void, bytes)) takes
        row = f"V{w * windows.itemsize}"
        self.dest, self.source = dest.view(row), windows.view(row)

    def fill(self) -> np.ndarray:
        """Copy the windows in; the matrix is valid until the next fill."""
        self.dest[...] = self.source
        return self.matrix


# Conv2d.forward builds the column matrix of at most about this many bytes
# at a time. A training batch fits in one chunk. The size stays because it
# is part of the bitwise contract, like optim.EVAL_CHUNK: it sets the width
# of each forward matrix product, and so the bytes of y (a column matrix
# padded to a wider row changed them at batch 256).
_FORWARD_CHUNK_BYTES = 1 << 19


class _ConvPlan:
    """The buffers of one Conv2d at one input shape, for reuse across calls,
    in the dtype of the layer's weights w.

    xp is the zero-padded input, its borders zeroed once; forward writes x
    into its interior and fills the column matrix of each batch chunk in
    turn, all chunks sharing one buffer. dyp and dy_cols do the same for dy
    in backward, made at the first backward. Each fill copies whole window
    rows (see _Columns): the same matrices as a copy pixel by pixel, so
    unlike _FORWARD_CHUNK_BYTES the way they are copied is not part of the
    bitwise contract. generation counts forwards: a cache is valid while its
    generation is the plan's.
    """

    def __init__(self, x_shape: tuple, w: np.ndarray):
        n, c, h, wd = x_shape
        k = w.shape[2]
        p = k // 2
        self.xp = np.zeros((n, c, h + 2 * p, wd + 2 * p), dtype=w.dtype)
        self.x = self.xp[:, :, p:p + h, p:p + wd]
        self.windows = _windows(self.xp, k)
        self.step = max(1, _FORWARD_CHUNK_BYTES
                        // (c * k * k * h * wd * self.xp.itemsize))
        buf = np.empty(c * k * k * min(n, self.step) * h * wd, dtype=w.dtype)
        self.chunks = [_Columns(self.windows[:, :, :, i:i + self.step], buf)
                       for i in range(0, n, self.step)]
        self.dyp = None
        self.generation = 0

    def dy_columns(self, dy: np.ndarray) -> np.ndarray:
        """The column matrix of zero-padded dy, in the plan's dy buffers."""
        if self.dyp is None:
            n, _, hp, wp = self.xp.shape
            k = self.windows.shape[1]
            self.dyp = np.zeros((n, dy.shape[1], hp, wp), dtype=self.xp.dtype)
            self.dy = self.dyp[:, :, k // 2:hp - k // 2, k // 2:wp - k // 2]
            windows = _windows(self.dyp, k)
            self.dy_cols = _Columns(windows, np.empty(windows.size,
                                                      dtype=self.xp.dtype))
        self.dy[...] = dy
        return self.dy_cols.fill()


class Conv2d:
    """3x3-style convolution, stride 1, zero padding k//2 (shape preserving).

    Each of y, dW and dX is one matrix product with the column matrix of a
    zero-padded tensor (the lowering to matrix products of Chellapilla et
    al. 2006), y in batch chunks of bounded size. The padded tensors and
    column matrices live in a plan for the input shape (static buffer
    planning, as in MXNet, Chen et al. 2015). The layer keeps the plan of
    the last shape it ran backward on and reuses it at that shape, so
    training steps allocate none of it and evaluation shapes leave nothing
    behind. When the batch is one chunk, dW reads forward's column matrix.

    A cache is valid until the layer's next forward at the same input
    shape; backward on a cache whose buffers were reused raises ValueError.
    No output or gradient aliases a plan buffer. The plan makes a layer
    unsafe to share between threads.
    """

    kind = "conv2d"

    def __init__(self, w: np.ndarray, b: np.ndarray):
        self.w = _float_array(w)  # (out_c, in_c, k, k)
        self.b = np.asarray(b, dtype=self.w.dtype)
        if self.w.ndim != 4 or self.w.shape[2] != self.w.shape[3]:
            raise ValueError(f"conv2d weight must be (out, in, k, k), got {self.w.shape}")
        if self.b.shape != (self.w.shape[0],):
            raise ValueError(f"conv2d bias shape {self.b.shape} does not match "
                             f"{self.w.shape[0]} output channels")
        if self.w.shape[2] % 2 == 0:
            raise ValueError(f"conv2d kernel size must be odd, got {self.w.shape[2]}")
        self._plan: _ConvPlan | None = None

    def __getstate__(self):
        return {"w": self.w, "b": self.b}    # the plan is scratch, not state

    def __setstate__(self, state):
        self.__dict__.update(state, _plan=None)

    @property
    def kernel_size(self) -> int:
        return self.w.shape[2]

    def forward(self, x):
        if x.ndim != 4 or x.shape[1] != self.w.shape[1]:
            raise ValueError(f"conv2d expected input (batch, {self.w.shape[1]}, H, W), "
                             f"got {x.shape}")
        plan = self._plan
        if plan is None or plan.x.shape != x.shape:
            plan = _ConvPlan(x.shape, self.w)
        plan.generation += 1
        plan.x[...] = x
        n, _, h, wd = x.shape
        f = self.w.shape[0]
        w = self.w.reshape(f, -1)
        out = np.empty((f, n, h, wd), dtype=self.w.dtype)
        # each chunk's product goes straight into its columns of out: the
        # same BLAS call as into a fresh array, with a wider row stride
        flat = out.reshape(f, -1)
        for i, cols in zip(range(0, n * h * wd, plan.step * h * wd), plan.chunks):
            matrix = cols.fill()
            np.matmul(w, matrix, out=flat[:, i:i + matrix.shape[1]])
        out += self.b[:, None, None, None]
        return out.transpose(1, 0, 2, 3), (plan, plan.generation)

    def _live_plan(self, dy, cache) -> _ConvPlan:
        plan, generation = cache
        if generation != plan.generation:
            raise ValueError("stale conv2d cache: the layer has run forward "
                             "again at this input shape")
        n, _, h, wd = plan.x.shape
        if dy.shape != (n, self.w.shape[0], h, wd):
            raise ValueError(f"conv2d dy shape {dy.shape} does not match the "
                             f"output of its forward")
        self._plan = plan
        return plan

    def backward(self, dy, cache, out):
        plan = self._live_plan(dy, cache)
        k = self.kernel_size
        n, f, h, wd = dy.shape
        # full correlation of dy with the flipped kernel
        w = self.w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(-1, f * k * k)
        dx = w @ plan.dy_columns(dy)
        return (dx.reshape(self.w.shape[1], n, h, wd).transpose(1, 0, 2, 3),
                self.param_grads(dy, cache, out))

    def param_grads(self, dy, cache, out):
        """The parameter half of backward: no input gradient."""
        plan = self._live_plan(dy, cache)
        f, c, k, _ = self.w.shape
        # forward's column matrix if the batch was one chunk, else a copy
        cols = (plan.chunks[0].matrix if len(plan.chunks) == 1
                else plan.windows.reshape(c * k * k, -1))
        # dy channel-major, a copy unless it is laid out so already: each
        # channel's sums then run in one order, whatever dy's layout
        dyc = np.ascontiguousarray(dy.transpose(1, 0, 2, 3)).reshape(f, -1)
        np.matmul(dyc, cols.T, out=out["w"].reshape(f, -1))
        np.add.reduce(dyc, axis=1, out=out["b"])
        return out

    def named_params(self):
        yield "w", self.w
        yield "b", self.b


class Relu:
    """Elementwise max(x, 0); subgradient at 0 is 0."""

    kind = "relu"

    def forward(self, x):
        return np.maximum(x, 0.0), x

    def backward(self, dy, cache, out):
        return dy * (cache > 0.0), out

    def named_params(self):
        return iter(())


class MaxPool:
    """2x2 max pooling with stride 2; ties route the gradient to the first max.

    Two pairwise levels: forward takes the column-pair maxima
    c = max(x[..., 0::2], x[..., 1::2]), then y = max(c's row pairs), the
    grouping max(max(x00, x01), max(x10, x11)), so a tie of 0.0 and -0.0
    keeps its sign. Backward routes dy to the top row where that row's max
    equals y, else to the bottom row, then within the row to the left
    column where it equals the row's max, else to the right one. A row
    holds the window's max exactly when its own max equals it, so this is
    the first max in the order (0,0), (0,1), (1,0), (1,1); forward's caller
    refuses a NaN output before any backward runs. dx is a fresh C-ordered
    array whatever x's layout.
    """

    kind = "max-pool"
    size = 2

    def forward(self, x):
        if x.ndim != 4:
            raise ValueError(f"max-pool expected (batch, C, H, W), got {x.shape}")
        h, w = x.shape[2:]
        if h % 2 or w % 2:
            raise ValueError(f"max-pool needs even spatial dims, got {h}x{w}")
        c = np.maximum(x[..., 0::2], x[..., 1::2])
        out = np.maximum(c[:, :, 0::2], c[:, :, 1::2])
        return out, (x, c, out)

    def backward(self, dy, cache, out):
        # each level in numpy calls over whole rows: about 10 calls, not 25
        x, c, y = cache
        top = c[:, :, 0::2] == y
        rows = np.empty(c.shape, dtype=dy.dtype)  # dy in the window's max row
        rows[:, :, 0::2] = np.where(top, dy, 0.0)
        rows[:, :, 1::2] = np.where(top, 0.0, dy)
        left = x[..., 0::2] == c
        dx = np.empty(x.shape, dtype=dy.dtype)
        dx[..., 0::2] = np.where(left, rows, 0.0)
        dx[..., 1::2] = np.where(left, 0.0, rows)
        return dx, out

    def named_params(self):
        return iter(())


class GlobalAvgPool:
    """Mean over spatial dims: (N, C, H, W) -> (N, C)."""

    kind = "global-average-pool"

    def forward(self, x):
        if x.ndim != 4:
            raise ValueError(f"global-average-pool expected (batch, C, H, W), got {x.shape}")
        h, w = x.shape[2:]
        return np.add.reduce(x, axis=(2, 3)) / (h * w), x.shape

    def backward(self, dy, cache, out):
        h, w = cache[2:]
        dx = np.empty(cache, dtype=dy.dtype)
        dx[...] = (dy / (h * w))[:, :, None, None]
        return dx, out

    def named_params(self):
        return iter(())


class ResidualBlock:
    """Skip connection: y = x + f(x), f a shape-preserving layer chain."""

    kind = "residual-add"

    def __init__(self, inner=()):
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

    def backward(self, dy, cache, out):
        d = dy
        for i in reversed(range(len(self.inner))):
            # inner layer i writes into the views of out named i/<name>
            layer = self.inner[i]
            d, _ = layer.backward(d, cache[i], {p: out[f"{i}/{p}"] for p, _
                                                in layer.named_params()})
        return dy + d, out

    def param_grads(self, dy, cache, out):
        return self.backward(dy, cache, out)[1]

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


def _softmax(logits: np.ndarray):
    """(probs, top, denom): the row softmax of (batch, labels) logits,
    computed in place in one fresh array laid out as numpy lays out
    logits - top, with the row maxima top and the row sums denom of the
    shifted exponentials, both (batch, 1)."""
    # the ufunc reductions, as in GlobalAvgPool: the ndarray methods' bytes
    top = np.maximum.reduce(logits, axis=1, keepdims=True)
    probs = logits - top
    np.exp(probs, out=probs)
    denom = np.add.reduce(probs, axis=1, keepdims=True)
    probs /= denom
    return probs, top, denom


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """The gradient of the mean cross-entropy over the batch with respect to
    the logits, as a fresh C-ordered array: the softmax, computed in place,
    less the one-hot rows of the labels, divided by the batch size. labels
    are a (batch,) integer vector, as forward() passes them, or their
    (batch, labels) one-hot rows, as optim.train() does; other shapes are a
    ValueError. Subtracting a row's 0.0 entries leaves its probabilities'
    bits as they are, and its 1.0 is a fancy-indexed -= 1.0. It is
    training's loss kernel: no loss, no log, no kept probabilities."""
    dlogits = np.ascontiguousarray(_softmax(logits)[0])
    targets = np.asarray(labels)
    if targets.ndim == 1:
        targets = np.eye(dlogits.shape[1], dtype=dlogits.dtype)[targets]
    if targets.shape != dlogits.shape:
        raise ValueError(f"labels of shape {np.shape(labels)} do not fit "
                         f"logits of shape {dlogits.shape}")
    dlogits -= targets
    dlogits /= float(len(dlogits))
    return dlogits


@dataclass
class ForwardCache:
    """Activations saved by forward() for the matching backward() call."""

    layer_caches: list    # every layer's cache in run order, read by index
    dlogits: np.ndarray   # the loss's gradient with respect to the logits


def run_stages(stages: list[Stage], x: np.ndarray,
               caches: list | None = None) -> np.ndarray:
    """The one stage loop: run a batch through a stage list, with no loss,
    for forward(), evaluation and training's frozen-prefix pass alike.

    A layer's shape error is re-raised with its stage named. caches, which
    forward() passes, gets each layer's cache, in run order."""
    for stage in stages:
        for layer in stage.layers:
            try:
                x, c = layer.forward(x)
            except ValueError as e:
                raise ValueError(f"stage '{stage.name}': {e}") from None
            if caches is not None:
                caches.append(c)
            del c     # else it would live through the next layer's forward
    return x


def _all_finite(a: np.ndarray) -> bool:
    """Whether every entry of a is finite: each pass checks its output once,
    forward() the logits, optim.frozen_prefix the training rows, backward()
    the gradients. Counting the finite entries skips ndarray.all()'s Python
    wrapper, which costs more than the count on a training step's small
    arrays; nothing is summed, so no value overflows."""
    return np.count_nonzero(np.isfinite(a)) == a.size


def check_output(stages: list[Stage], x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """y, the output of stages on x, if it is finite; else a ValueError naming
    the first stage whose output is not, found by running them again on x,
    or, with no stage to name, the logits. A non-finite value that a later
    stage maps back to finite ones (-inf into a ReLU) is no error."""
    if not _all_finite(y):
        for stage in stages:
            x = run_stages([stage], x)     # y is the last stage's output
            if stage is stages[-1] or not np.isfinite(x).all():
                raise ValueError(f"stage '{stage.name}': non-finite activation")
        raise ValueError("non-finite logits")
    return y


def _head_scores(stages: list[Stage], x: np.ndarray, caches: list) -> np.ndarray:
    """The (batch, labels) scores of stages on the batch x, their
    caches appended to caches: forward()'s pass without the label checks
    and the loss, also run by optim.train(), which checks its labels once."""
    y = check_output(stages, x, run_stages(stages, x, caches))
    if y.ndim != 2:
        raise ValueError(f"head stage '{stages[-1].name}' must produce "
                         f"(batch, labels) scores, got shape {y.shape}")
    return y


def forward(stages: list[Stage], batch: np.ndarray, labels) -> tuple[float, np.ndarray, ForwardCache]:
    """Run the stage list on a batch and apply softmax cross-entropy.

    Returns (loss, per-label probabilities, cache for backward): the first
    two from _softmax, the cache's gradient from softmax_cross_entropy. The
    batch is cast to the dtype of the stage list's parameters, and the
    labels' shape and range are checked at every call. Shape problems and
    non-finite logits are rejected with the offending stage named; finite
    logits give finite probabilities, which go unchecked. As in
    optim.train(), numpy's overflow and invalid-value warnings are silenced
    for the stage pass, whose typed error reports a non-finite activation.
    """
    x = np.asarray(batch, dtype=_param_dtype(stages))
    y = np.asarray(labels)
    if y.ndim != 1 or y.shape[0] != x.shape[0]:
        raise ValueError(f"labels must be a length-{x.shape[0]} vector, "
                         f"got shape {y.shape}")
    y = y.astype(np.int64)
    layer_caches: list = []
    with np.errstate(over="ignore", invalid="ignore"):
        x = _head_scores(stages, x, layer_caches)
    if np.any(y < 0) or np.any(y >= x.shape[1]):
        raise ValueError(f"labels out of range for {x.shape[1]} classes")
    probs, top, denom = _softmax(x)
    loss = -(np.add.reduce(x[np.arange(len(y)), y] - top[:, 0]
                           - np.log(denom[:, 0])) / len(y))
    return (float(loss), probs,
            ForwardCache(layer_caches, softmax_cross_entropy(x, y)))


class Gradients(Mapping):
    """backward()'s result and plan for one stage list: a read-only mapping
    (no item assignment) of each parameter's name to its gradient, a view
    of vector, its one home, keyed top layer first, as backward computes
    them. vector is laid out like the list's parameters in named_params()
    order. stages is the list it was built from, which it fits with its
    layer lists then, keeping nothing on them; layers pairs each layer with
    the views it writes into; lowest indexes the lowest parameter layer."""

    def __init__(self, stages: list[Stage]):
        self.stages = tuple(stages)
        paths = [(f"{s.name}/{li}", layer) for s in self.stages
                 for li, layer in enumerate(s.layers)]
        self.vector = np.empty(param_count(stages), dtype=_param_dtype(stages))
        self.layers, at = [], 0
        for path, layer in paths:
            views = {}
            for p, a in layer.named_params():
                views[p] = self.vector[at:at + a.size].reshape(a.shape)
                at += a.size
            self.layers.append((layer, views))
        # a residual block computes its inner layers top first
        self._views = {f"{path}/{p}": views[p] for (path, _), (_, views)
                       in zip(paths[::-1], self.layers[::-1])
                       for p in sorted(views, key=lambda n: [
                           -int(i) for i in n.split("/")[:-1]])}
        self.lowest = next((i for i, (_, views) in enumerate(self.layers)
                            if views), len(self.layers))

    def __getitem__(self, name: str) -> np.ndarray:
        return self._views[name]

    def __iter__(self):
        return iter(self._views)

    def __len__(self) -> int:
        return len(self._views)


def backward(stages: list[Stage], cache: ForwardCache,
             out: Gradients | None = None) -> Gradients:
    """Gradients of the mean loss for every parameter, keyed stage/layer/param.

    Requires the cache produced by forward() on the batch and labels.
    The input gradient of the lowest layer with parameters is never needed,
    so that layer runs only param_grads, and the layers below it run no
    backward at all. Each layer writes its gradients in place into out, a
    Gradients(stages) of this list, or else a fresh one, whose vector is
    checked for non-finite values at once; on a failure the error names the
    first non-finite gradient in the order backward computes them, top first.
    """
    if not isinstance(cache, ForwardCache):
        raise ValueError("backward called without a forward cache; run forward first")
    grads = Gradients(stages) if out is None else out
    if len(cache.layer_caches) != len(grads.layers):
        raise ValueError("cache does not match this stage list")
    d = cache.dlogits
    for i in reversed(range(grads.lowest, len(grads.layers))):
        layer, views = grads.layers[i]
        if i == grads.lowest:
            layer.param_grads(d, cache.layer_caches[i], views)
        else:
            d, _ = layer.backward(d, cache.layer_caches[i], views)
    if not _all_finite(grads.vector):
        name = next(n for n, g in grads.items() if not np.isfinite(g).all())
        raise ValueError(f"non-finite values produced in gradient of {name}")
    return grads


def param_count(stages: list[Stage]) -> int:
    return sum(arr.size for stage in stages for _, arr in stage.named_params())


def _param_dtype(stages: list[Stage]) -> np.dtype:
    """The dtype of a stage list's first parameter; float64 with none."""
    return next((arr.dtype for stage in stages
                 for _, arr in stage.named_params()), np.dtype(np.float64))


MAX_GRAD_CHECK_PARAMS = 10_000


def grad_check(stages: list[Stage], batch: np.ndarray, labels,
               epsilon: float = 1e-5) -> float:
    """Compare analytic gradients to central finite differences.

    Perturbs every parameter scalar by +-epsilon and returns the maximum
    relative error max |analytic - numeric| / max(|analytic|, |numeric|, 1e-12).
    Both sides run on a copy of the stage list whose parameters are float64,
    so a float32 model's check has float64 differences, and the stages'
    own parameters are never written.
    Only intended for models with at most 10^4 parameters.
    """
    if not 0 < epsilon < np.inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    total = param_count(stages)
    if total > MAX_GRAD_CHECK_PARAMS:
        raise ValueError(f"model has {total} parameters; grad_check supports "
                         f"at most {MAX_GRAD_CHECK_PARAMS}")
    # deepcopy takes each parameter's float64 copy from its memo
    stages = copy.deepcopy(stages, {id(arr): arr.astype(np.float64)
                                    for stage in stages
                                    for _, arr in stage.named_params()})
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

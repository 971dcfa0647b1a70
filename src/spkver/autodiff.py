"""Reverse-mode automatic differentiation over the op set the extractors need.

A ``Tensor`` is two parts: its value, a float numpy array in ``.data``,
and a graph ``Node`` that holds its gradient, whether it keeps one
(``requires_grad``), its parents' nodes and the backward closure of the op
that produced it.  The graph links nodes, never values, so an activation
lives only while Python code or a backward closure holds it: holding the
scalar loss holds the graph, not the forward's outputs.  Only the layouts
the networks use are supported: frame sequences are (T, C) matrices,
segment activations are (B, D) matrices, pooled statistics are 1-D
vectors.  There is no general broadcasting.

Every op computes in its input's float dtype and allocates its output and
its gradients in that dtype; nothing widens.  The extractors run in
float32, the dtype their builders give the parameters; the finite-difference
gradcheck runs the same ops in float64 on float64 inputs.

A backward closure takes the node's gradient and returns one gradient per
parent, in parent order, or None for a parent that needs none.  It
captures only the arrays it reads:
- ``affine``, ``time_delay`` (one kernel; ``affine`` is context 1): the
  input's and weight's ``.data``; the K * C_in-wide splice is rebuilt in
  backward for the weight gradient instead of kept;
- ``max_pool_2x2``, ``max_pool_time``, ``mfm`` (one pairwise max, in two
  stages or one): a bool mask and an input shape per stage;
- ``prelu``: the input's and slope's ``.data``;
- ``stats_pool``: the input's ``.data`` and its C-entry mean and std; the
  centered input is recomputed in backward;
- ``add``, ``stack_rows``: nothing; ``slice_time``: its input's shape.

``backward`` walks the graph once and frees it as it goes: each node drops
its closure, its parents and its ``.grad`` as soon as its own backward has
run, so only nodes with ``requires_grad`` (parameters, marked inputs) keep
a gradient.  A second ``backward`` on the same graph raises.

Gradient ownership: a closure returns arrays, in the dtype of the parent
they go to, that no other node holds, and a node adopts the first gradient
it receives as it is, neither copied nor converted; later ones are added
into it.  Every op builds fresh gradient arrays; ``stack_rows`` returns
disjoint views of its own gradient, which is dropped once its backward has
run.  ``add`` is the only op that passes one array to two parents, so its
second parent gets a copy.

Selections (max pooling, max-feature-map, PReLU) are written as comparisons
plus ``np.maximum``/``np.minimum`` and mask multiplies rather than
``np.where``/``argmax``: on random masks ``np.where`` takes a branch per
element and runs several times slower than the SIMD min/max loops.
"""

from __future__ import annotations

import numpy as np

GRAD_CHECK_EPS = 1e-5      # the central-difference step of ``grad_check``

# (first, second) index pairs for ``_pair_max``: even and odd frames, even and odd channels
_FRAME_PAIR, _CHANNEL_PAIR = (np.s_[0::2], np.s_[1::2]), (np.s_[:, 0::2], np.s_[:, 1::2])


class Node:
    """Graph side of a tensor: gradient, parents' nodes and backward closure."""

    __slots__ = ("grad", "requires_grad", "parents", "backward")

    def __init__(self, requires_grad, parents, backward):
        self.grad = None
        self.requires_grad = requires_grad
        self.parents = parents
        self.backward = backward

    def accumulate(self, g):
        """Add ``g`` to ``.grad``; the first array is adopted, not copied
        (see the ownership rule in the module docstring)."""
        if self.grad is None:
            self.grad = g
        else:
            self.grad += g


class Tensor:
    """A float array and the graph node of the op that produced it.  A float
    array is kept in its dtype; anything else becomes float64."""

    __slots__ = ("data", "node", "name")

    def __init__(self, data, requires_grad=False, parents=(), backward=None, name=None):
        data = np.asarray(data)
        self.data = data if data.dtype.kind == "f" else data.astype(np.float64)
        self.node = Node(requires_grad, tuple(p.node for p in parents), backward)
        self.name = name

    @property
    def shape(self):
        return self.data.shape

    @property
    def grad(self):
        return self.node.grad

    @grad.setter
    def grad(self, g):
        self.node.grad = g

    @property
    def _backward(self):
        """The node's backward closure; assigning replaces it."""
        return self.node.backward

    @_backward.setter
    def _backward(self, fn):
        self.node.backward = fn

    def backward(self):
        """Backpropagate from a scalar output to every reachable node.

        Each closure's gradients go to its parents in parent order.  Frees
        the graph on the way: after a node's backward has run, its closure
        and parents are dropped, and so is its ``.grad`` unless it has
        ``requires_grad``.  Runs once per graph; calling it again on the
        same graph raises a RuntimeError.
        """
        if self.data.size != 1:
            raise ValueError("loss must be scalar")
        order = topo_order(self.node)
        self.node.grad = np.ones_like(self.data)
        while order:
            node = order.pop()
            if node.backward is not None:
                grads = node.backward(node.grad)
                for parent, g in zip(node.parents, grads, strict=True):
                    if g is not None:
                        parent.accumulate(g)
                grads = g = None            # a gradient added into another is freed now
                node.backward = _released
                node.parents = ()
            if not node.requires_grad:
                node.grad = None

    def __repr__(self):
        tag = self.name or "tensor"
        return f"Tensor({tag}, shape={self.data.shape})"


def _released(g):
    """Stands in for the closure of a node whose graph backward has freed."""
    raise RuntimeError("graph already released by backward(); rebuild it to "
                       "backpropagate again")


def topo_order(root: Node) -> list[Node]:
    """Topological order of the graph below ``root`` (iterative, acyclic)."""
    order: list[Node] = []
    visited: set[int] = set()
    stack: list[tuple[Node, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node.parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    return order


def _as2d(x: Tensor, op: str) -> np.ndarray:
    if x.data.ndim != 2:
        raise ValueError(f"dimension error: {op} expects a 2-D input, got shape {x.data.shape}")
    return x.data


def _spliced_affine(x: Tensor, w: Tensor, b: Tensor, context: int, op: str) -> Tensor:
    """The matrix-product kernel of ``affine`` and ``time_delay``: frame t is
    ``b`` plus ``w`` applied to frames t, ..., t+K-1 side by side (K = ``context``).
    The splice is rebuilt in backward; a leaf that needs no gradient (the feature
    matrix) skips ``g @ w.T``, which is scattered onto the frames only for K > 1."""
    xv = _as2d(x, op)
    t_in, c_in = xv.shape
    if t_in < context:
        raise ValueError(f"segment too short: {t_in} frames < receptive span {context}")
    t_out = t_in - context + 1
    wv, bv = w.data, b.data
    if wv.ndim != 2 or wv.shape[0] != context * c_in or bv.shape != wv.shape[1:]:
        raise ValueError(f"dimension error: {op} input width {context * c_in} vs weight "
                         f"{wv.shape} and bias {bv.shape}")

    def splice():
        if context == 1:
            return xv
        return np.concatenate([xv[k : k + t_out] for k in range(context)], axis=1)

    out = splice() @ wv
    out += bv
    need_gx = x.node.requires_grad or bool(x.node.parents)

    def backward(g):
        gx = g @ wv.T if need_gx else None
        if need_gx and context > 1:         # scatter the spliced columns onto their frames
            gs, gx = gx, np.zeros_like(xv)
            for k in range(context):
                gx[k : k + t_out] += gs[:, k * c_in : (k + 1) * c_in]
            del gs
        return gx, splice().T @ g, g.sum(axis=0)

    return Tensor(out, parents=(x, w, b), backward=backward)


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Row-wise x @ w + b."""
    return _spliced_affine(x, w, b, 1, "affine")


def time_delay(x: Tensor, w: Tensor, b: Tensor, context: int) -> Tensor:
    """Valid 1-D convolution along frames, expressed as splice + affine.

    Output frame t is ``b`` plus an affine map ``w`` of the concatenation of
    input frames t, t+1, ..., t+K-1 (K = ``context``), so the affine input
    width is K * C_in and T_in - K + 1 frames come out.
    """
    return _spliced_affine(x, w, b, context, "time_delay")


def _pair_max(x: Tensor, rows: int, stages) -> Tensor:
    """The pairwise max of the selections, stage after stage, as one node.

    Each stage is a (first, second) pair of indices into the leading ``rows``
    rows of the previous stage's output (``x`` for the first).  Ties take
    ``first``, as ``np.maximum`` returns its second argument on equal inputs
    (+0 against -0 included); a NaN in either slot gives NaN.  Each stage keeps
    its input's shape and the mask ``first >= second`` that routes the gradient.
    Backward runs the stages in reverse into ``np.empty`` arrays and zeroes only
    the rows past ``rows``, which no pair reads (a dropped odd frame).
    """
    out, dtype, saved = x.data, x.data.dtype, []
    for first, second in stages:
        shape, a, b = out.shape, out[:rows][first], out[:rows][second]
        saved.append((first, second, a >= b, shape))
        out = np.maximum(b, a)

    def backward(g):
        for first, second, mask, shape in reversed(saved):
            g_in = np.empty(shape, dtype)
            g_in[rows:] = 0.0
            np.multiply(g, mask, out=g_in[:rows][first])
            np.multiply(g, ~mask, out=g_in[:rows][second])
            g = g_in
        return (g,)

    return Tensor(out, parents=(x,), backward=backward)


def max_pool_2x2(x: Tensor) -> Tensor:
    """Max over 2x2 blocks (frame pair x channel pair), stride 2 on both axes.

    A trailing odd frame is dropped.  The gradient is routed to the argmax of
    each block; ties go to the first entry in (frame, channel) scan order.
    """
    t_in, c_in = _as2d(x, "max_pool_2x2").shape
    if c_in % 2 != 0:
        raise ValueError("channel count must be even")
    if t_in < 2:
        raise ValueError("segment too short: max pooling needs at least 2 frames")
    # channel pair, then frame pair: the first maximum in (frame, channel) order wins ties
    return _pair_max(x, t_in - t_in % 2, (_CHANNEL_PAIR, _FRAME_PAIR))


def max_pool_time(x: Tensor) -> Tensor:
    """Max over frame pairs with stride 2; channels are kept.

    Used where a stack needs time decimation without channel halving.  Ties
    route the gradient to the earlier frame.
    """
    t_in = _as2d(x, "max_pool_time").shape[0]
    if t_in < 2:
        raise ValueError("segment too short: max pooling needs at least 2 frames")
    return _pair_max(x, t_in - t_in % 2, (_FRAME_PAIR,))


def prelu(x: Tensor, slope: Tensor) -> Tensor:
    """x where x >= 0, slope * x otherwise; one learnable slope per channel.

    For a slope a <= 1 this is max(a x, x) and for a > 1 it is min(a x, x),
    recomputed on just the channels with a > 1 (usually none).  Ties return
    x, so the sign of a zero input is kept.
    """
    xv = _as2d(x, "prelu")
    av = slope.data
    if av.shape != (xv.shape[1],):
        raise ValueError("dimension error: slope vector length must equal channel dim")
    out = xv * av
    np.maximum(out, xv, out=out)
    steep = np.flatnonzero(av > 1)
    x_steep = xv[:, steep]
    out[:, steep] = np.minimum(x_steep * av[steep], x_steep)

    def backward(g):
        pos = xv >= 0
        gx = np.multiply(~pos, av)          # a where x < 0 (or NaN), else 0
        gx += pos                           # 1 where x >= 0
        gx *= g
        gslope = np.minimum(xv, 0.0)        # x where x < 0, else +0
        gslope *= g
        return gx, gslope.sum(axis=0)

    return Tensor(out, parents=(x, slope), backward=backward)


def mfm(x: Tensor) -> Tensor:
    """Max-feature-map: elementwise max of the two channel halves.

    (., 2C) -> (., C); the gradient goes to the winning half only, ties to
    the first half.
    """
    rows, n = _as2d(x, "mfm").shape
    if n % 2 != 0:
        raise ValueError("channel count must be even")
    return _pair_max(x, rows, ((np.s_[:, : n // 2], np.s_[:, n // 2 :]),))


def stats_pool(x: Tensor) -> Tensor:
    """Concatenate per-channel mean and standard deviation over frames.

    (T, C) -> (2C,).  The epsilon 1e-8 inside sqrt keeps the std branch
    differentiable on constant channels.
    """
    xv = _as2d(x, "stats_pool")
    t_in, c = xv.shape
    mean = xv.mean(axis=0)
    centered = xv - mean
    var = (centered ** 2).mean(axis=0)
    std = np.sqrt(var + 1e-8)
    out = np.concatenate([mean, std])

    def backward(g):
        gm, gs = g[:c], g[c:]
        # gm / T + (xv - mean) * gs / (T * std), evaluated in that order in place
        gx = np.subtract(xv, mean)
        gx *= gs
        gx /= t_in * std
        gx += gm / t_in
        return (gx,)

    return Tensor(out, parents=(x,), backward=backward)


def add(x: Tensor, y: Tensor) -> Tensor:
    """Elementwise sum of two same-shape tensors (residual skip)."""
    if x.data.shape != y.data.shape:
        raise ValueError(f"dimension error: add {x.data.shape} vs {y.data.shape}")

    def backward(g):
        return g, g.copy()                  # ``g`` goes to x, so y gets a copy

    return Tensor(x.data + y.data, parents=(x, y), backward=backward)


def slice_time(x: Tensor, start: int, length: int) -> Tensor:
    """Contiguous frame slice; the backward pass zero-pads."""
    xv = _as2d(x, "slice_time")
    if start < 0 or start + length > xv.shape[0]:
        raise ValueError("dimension error: slice outside frame range")
    x_shape, dtype = xv.shape, xv.dtype

    def backward(g):
        gx = np.zeros(x_shape, dtype)
        gx[start : start + length] = g
        return (gx,)

    return Tensor(xv[start : start + length], parents=(x,), backward=backward)


def stack_rows(rows: list[Tensor]) -> Tensor:
    """Stack 1-D tensors into a (B, D) matrix; the backward pass splits rows."""
    if not rows:
        raise ValueError("dimension error: nothing to stack")
    for r in rows:
        if r.data.ndim != 1:
            raise ValueError("dimension error: stack_rows expects 1-D tensors")
    out = np.stack([r.data for r in rows])

    def backward(g):
        return tuple(g)                     # one row view per parent

    return Tensor(out, parents=tuple(rows), backward=backward)


def grad_check(loss_fn, params, n_samples: int | None = None, rng=None) -> float:
    """Compare reverse-mode gradients against central finite differences.

    ``loss_fn`` rebuilds the graph from scratch and returns the scalar loss
    tensor.  Every tensor of ``params``, a dict from name to tensor, is
    probed; ``n_samples`` bounds the number of entries per tensor that the
    generator ``rng`` draws (None probes all entries).  Returns the worst
    relative error across probes.  Differences at step ``GRAD_CHECK_EPS``
    are taken in the loss's dtype, which float32 rounding swamps: probe
    float64 tensors, or wider.
    """
    for t in params.values():
        t.grad = None
    loss_fn().backward()               # the probes below run forward only: .grad stays

    worst = 0.0
    for t in params.values():
        analytic = (np.zeros_like(t.data) if t.grad is None else t.grad).reshape(-1)
        size = t.data.size
        if n_samples is None or n_samples >= size:
            indices = np.arange(size)
        else:
            indices = rng.choice(size, size=n_samples, replace=False)
        flat = t.data.reshape(-1)
        for i in indices:
            orig = flat[i]
            flat[i] = orig + GRAD_CHECK_EPS
            f_plus = loss_fn().data
            flat[i] = orig - GRAD_CHECK_EPS
            f_minus = loss_fn().data
            flat[i] = orig
            fd = (f_plus - f_minus) / (2.0 * GRAD_CHECK_EPS)
            an = analytic[i]
            rel = abs(an - fd) / max(abs(an), abs(fd), 1e-6)
            worst = max(worst, rel)
    return float(worst)

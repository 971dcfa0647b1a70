"""Primitive-op contracts: exact small cases, independent oracles,
finite-difference gradients, and routing properties.

The selection ops (max_pool_2x2, max_pool_time, prelu, mfm) are also held
bit-for-bit to reference versions kept below (argmax / np.where forms):
outputs, sign bits of outputs and gradients on inputs with planted ties,
and checkpoint bytes of a short training run of each stack.

``Tensor.backward`` frees the graph as it walks it; that is held to a
keep-graph reference loop bit for bit, and its memory peak is bounded.  What
each backward closure keeps is audited against the tensors' values, what the
graph holds after forward against what its closures reach, and gradients
handed over without a copy are checked never to alias."""

import inspect
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spkver import autodiff as ad
from spkver import models as md
from spkver import training as tr
from spkver.autodiff import Tensor, grad_check
from spkver.corpus import SyntheticCorpusSpec, generate_synthetic_corpus
from spkver.formats import ExperimentConfig
from spkver.gradcheck_suite import op_checks


def quadratic(out):
    """Deterministic scalar head for gradient checks, in the dtype of ``out``."""
    flat = out.data.reshape(-1)
    coeffs = np.linspace(0.5, 1.5, flat.size, dtype=flat.dtype)
    shape = out.data.shape

    def backward(g):
        return (g * (coeffs * flat).reshape(shape),)

    return Tensor(0.5 * (coeffs @ (flat ** 2)), parents=(out,), backward=backward)


# ---------------------------------------------------------------------------
# affine


def test_affine_identity():
    x = Tensor(np.random.default_rng(0).standard_normal((4, 3)))
    w = Tensor(np.eye(3))
    b = Tensor(np.zeros(3))
    assert np.array_equal(ad.affine(x, w, b).data, x.data)


def test_affine_hand_case():
    x = Tensor([[1.0, 2.0]])
    w = Tensor([[1.0, 0.0], [0.0, 1.0]])
    b = Tensor([3.0, 3.0])
    assert np.array_equal(ad.affine(x, w, b).data, [[4.0, 5.0]])


def test_affine_shape_mismatch():
    with pytest.raises(ValueError, match="dimension error"):
        ad.affine(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))), Tensor(np.zeros(2)))


def test_affine_gradient():
    rng = np.random.default_rng(1)
    x = Tensor(rng.standard_normal((5, 7)), requires_grad=True)
    w = Tensor(rng.standard_normal((7, 3)), requires_grad=True)
    b = Tensor(rng.standard_normal(3), requires_grad=True)
    err = grad_check(lambda: quadratic(ad.affine(x, w, b)), {"x": x, "w": w, "b": b})
    assert err < 1e-4


# ---------------------------------------------------------------------------
# time_delay


def test_time_delay_context1_equals_affine():
    # output and every gradient bit for bit, on an input that needs a gradient
    rng = np.random.default_rng(2)
    xv, wv, bv = rng.standard_normal((6, 4)), rng.standard_normal((4, 5)), rng.standard_normal(5)
    g = rng.standard_normal((6, 5))
    runs = []
    for op in (lambda x, w, b: ad.time_delay(x, w, b, context=1), ad.affine):
        out = op(Tensor(xv, requires_grad=True), Tensor(wv, requires_grad=True),
                 Tensor(bv, requires_grad=True))
        runs.append([out.data] + list(out._backward(g)))
    assert len(runs[0]) == 4
    for got, want in zip(*runs):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("c_in,context,width", [(23, 7, 161), (128, 5, 640)])
def test_time_delay_spliced_width(c_in, context, width):
    rng = np.random.default_rng(3)
    x = Tensor(rng.standard_normal((context + 3, c_in)))
    w = Tensor(rng.standard_normal((width, 2)) * 0.1)
    b = Tensor(np.zeros(2))
    out = ad.time_delay(x, w, b, context=context)
    assert out.data.shape == (4, 2)
    with pytest.raises(ValueError, match="dimension error"):
        ad.time_delay(x, Tensor(np.zeros((width - 1, 2))), b, context=context)
    with pytest.raises(ValueError, match="dimension error"):
        ad.time_delay(x, w, Tensor(np.zeros(3)), context=context)


def test_time_delay_matches_manual_splice():
    rng = np.random.default_rng(4)
    xv = rng.standard_normal((9, 3))
    w = rng.standard_normal((9, 2))
    b = rng.standard_normal(2)
    out = ad.time_delay(Tensor(xv), Tensor(w), Tensor(b), context=3).data
    expected = np.stack([
        np.concatenate([xv[t], xv[t + 1], xv[t + 2]]) @ w + b for t in range(7)
    ])
    assert np.allclose(out, expected)


def test_time_delay_too_short():
    with pytest.raises(ValueError, match="segment too short"):
        ad.time_delay(Tensor(np.zeros((2, 2))), Tensor(np.zeros((6, 2))),
                      Tensor(np.zeros(2)), context=3)


def test_time_delay_gradient():
    rng = np.random.default_rng(5)
    x = Tensor(rng.standard_normal((11, 3)), requires_grad=True)
    w = Tensor(rng.standard_normal((9, 4)), requires_grad=True)
    b = Tensor(rng.standard_normal(4), requires_grad=True)
    err = grad_check(lambda: quadratic(ad.time_delay(x, w, b, context=3)),
                     {"x": x, "w": w, "b": b})
    assert err < 1e-4


def test_time_delay_skips_input_gradient_of_plain_leaf():
    # the feature matrix is a leaf without requires_grad: no g @ w.T for it,
    # and the weight and bias gradients are those of the full backward
    rng = np.random.default_rng(6)
    xv, wv, bv = rng.standard_normal((11, 3)), rng.standard_normal((9, 4)), rng.standard_normal(4)
    grads = {}
    for needs in (False, True):
        x = Tensor(xv, requires_grad=needs)
        w, b = Tensor(wv, requires_grad=True), Tensor(bv, requires_grad=True)
        quadratic(ad.time_delay(x, w, b, context=3)).backward()
        assert (x.grad is not None) == needs
        grads[needs] = (w.grad, b.grad)
    assert np.array_equal(grads[False][0], grads[True][0])
    assert np.array_equal(grads[False][1], grads[True][1])


# ---------------------------------------------------------------------------
# pooling


def test_max_pool_hand_case():
    out = ad.max_pool_2x2(Tensor([[1.0, 2.0], [3.0, 4.0]]))
    assert np.array_equal(out.data, [[4.0]])


def test_max_pool_channel_halving():
    x = Tensor(np.random.default_rng(6).standard_normal((10, 256)))
    assert ad.max_pool_2x2(x).data.shape == (5, 128)


def test_max_pool_odd_channels_rejected():
    with pytest.raises(ValueError, match="channel count must be even"):
        ad.max_pool_2x2(Tensor(np.zeros((4, 3))))


def test_max_pool_matches_block_oracle():
    rng = np.random.default_rng(7)
    xv = rng.standard_normal((11, 8))          # odd frame count: last row dropped
    out = ad.max_pool_2x2(Tensor(xv)).data
    expect = np.empty((5, 4))
    for t in range(5):
        for c in range(4):
            expect[t, c] = max(xv[2 * t, 2 * c], xv[2 * t, 2 * c + 1],
                               xv[2 * t + 1, 2 * c], xv[2 * t + 1, 2 * c + 1])
    assert np.array_equal(out, expect)


def test_max_pool_gradient_and_routing():
    rng = np.random.default_rng(8)
    x = Tensor(rng.standard_normal((10, 8)), requires_grad=True)
    err = grad_check(lambda: quadratic(ad.max_pool_2x2(x)), {"x": x})
    assert err < 1e-4
    # each upstream unit lands on exactly one input entry
    out = ad.max_pool_2x2(x)
    (gx,) = out._backward(np.ones_like(out.data))
    assert np.count_nonzero(gx) == out.data.size
    assert gx.sum() == pytest.approx(out.data.size)


def test_max_pool_tie_first_in_scan_order():
    xv = np.zeros((2, 2))
    x = Tensor(xv, requires_grad=True)
    out = ad.max_pool_2x2(x)
    (gx,) = out._backward(np.ones_like(out.data))
    assert gx[0, 0] == 1.0 and gx.sum() == 1.0


def test_max_pool_time_keeps_channels():
    rng = np.random.default_rng(9)
    xv = rng.standard_normal((9, 5))
    out = ad.max_pool_time(Tensor(xv)).data
    assert out.shape == (4, 5)
    assert np.array_equal(out, np.maximum(xv[0:8:2], xv[1:8:2]))


# ---------------------------------------------------------------------------
# activations


def test_prelu_degenerate_slopes():
    rng = np.random.default_rng(10)
    xv = rng.standard_normal((5, 4))
    x = Tensor(xv)
    assert np.array_equal(ad.prelu(x, Tensor(np.ones(4))).data, xv)
    assert np.array_equal(ad.prelu(x, Tensor(np.zeros(4))).data, np.maximum(xv, 0))


def test_prelu_gradient():
    rng = np.random.default_rng(11)
    x = Tensor(rng.standard_normal((6, 5)), requires_grad=True)
    a = Tensor(np.full(5, 0.25), requires_grad=True)
    err = grad_check(lambda: quadratic(ad.prelu(x, a)), {"x": x, "a": a})
    assert err < 1e-4


def test_mfm_hand_case():
    out = ad.mfm(Tensor([[1.0, 5.0, 3.0, 2.0]]))
    assert np.array_equal(out.data, [[3.0, 5.0]])


def test_mfm_equal_halves_and_tie_gradient():
    xv = np.tile(np.arange(3.0), (2, 2))
    x = Tensor(xv, requires_grad=True)
    out = ad.mfm(x)
    assert np.array_equal(out.data, xv[:, :3])
    (gx,) = out._backward(np.ones_like(out.data))
    assert np.all(gx[:, :3] == 1.0) and np.all(gx[:, 3:] == 0.0)


def test_mfm_matches_elementwise_oracle_and_gradient():
    rng = np.random.default_rng(12)
    xv = rng.standard_normal((6, 8))
    assert np.array_equal(ad.mfm(Tensor(xv)).data, np.maximum(xv[:, :4], xv[:, 4:]))
    x = Tensor(xv, requires_grad=True)
    assert grad_check(lambda: quadratic(ad.mfm(x)), {"x": x}) < 1e-4


def test_mfm_odd_channels_rejected():
    with pytest.raises(ValueError, match="channel count must be even"):
        ad.mfm(Tensor(np.zeros((2, 5))))


def test_mfm_routing_one_winner():
    rng = np.random.default_rng(13)
    x = Tensor(rng.standard_normal((4, 6)), requires_grad=True)
    out = ad.mfm(x)
    (gx,) = out._backward(np.ones_like(out.data))
    assert np.count_nonzero(gx) == out.data.size


# ---------------------------------------------------------------------------
# stats pooling


def test_stats_pool_shape_and_constant_input():
    x = Tensor(np.random.default_rng(14).standard_normal((5, 1024)))
    assert ad.stats_pool(x).data.shape == (2048,)
    const = Tensor(np.full((7, 3), 2.5))
    out = ad.stats_pool(const).data
    assert np.allclose(out[:3], 2.5)
    assert np.allclose(out[3:], np.sqrt(1e-8))


def test_stats_pool_matches_direct_oracle():
    rng = np.random.default_rng(15)
    xv = rng.standard_normal((7, 4))
    out = ad.stats_pool(Tensor(xv)).data
    assert np.allclose(out[:4], xv.mean(axis=0))
    assert np.allclose(out[4:], np.sqrt(xv.var(axis=0) + 1e-8))


def test_stats_pool_gradient():
    rng = np.random.default_rng(16)
    x = Tensor(rng.standard_normal((7, 4)), requires_grad=True)
    assert grad_check(lambda: quadratic(ad.stats_pool(x)), {"x": x}) < 1e-4


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_stats_pool_permutation_invariant(seed):
    rng = np.random.default_rng(seed)
    xv = rng.standard_normal((8, 3))
    perm = rng.permutation(8)
    a = ad.stats_pool(Tensor(xv)).data
    b = ad.stats_pool(Tensor(xv[perm])).data
    assert np.allclose(a, b, atol=1e-12)


# ---------------------------------------------------------------------------
# structural ops and the checker itself


def test_stack_slice_roundtrip_gradients():
    rng = np.random.default_rng(17)
    x = Tensor(rng.standard_normal((6, 3)), requires_grad=True)
    err = grad_check(lambda: quadratic(ad.slice_time(x, 1, 4)), {"x": x})
    assert err < 1e-4
    rows = [Tensor(rng.standard_normal(4), requires_grad=True) for _ in range(3)]
    err = grad_check(lambda: quadratic(ad.stack_rows(rows)),
                     {f"r{i}": r for i, r in enumerate(rows)})
    assert err < 1e-4


def test_fan_out_gradients_do_not_alias():
    # x reaches the loss twice through add: its first gradient must be a copy,
    # not the array y also receives
    rng = np.random.default_rng(19)
    x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    y = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    err = grad_check(lambda: quadratic(ad.add(ad.add(x, y), x)), {"x": x, "y": y})
    assert err < 1e-4


def test_forward_deterministic():
    rng = np.random.default_rng(18)
    xv = rng.standard_normal((6, 4))
    w = rng.standard_normal((4, 4))
    a = ad.affine(Tensor(xv), Tensor(w), Tensor(np.zeros(4))).data
    b = ad.affine(Tensor(xv), Tensor(w), Tensor(np.zeros(4))).data
    assert np.array_equal(a, b)


def test_grad_check_quadratic_is_tight():
    x = Tensor(np.array([[1.0, -2.0, 0.5]]), requires_grad=True)
    assert grad_check(lambda: quadratic(x), {"x": x}) < 1e-8


def test_grad_check_detects_corrupt_backward():
    x = Tensor(np.array([[1.0, 2.0]]), requires_grad=True)

    def broken_double():
        out_data = x.data * 2.0

        def backward(g):
            return (g * 3.0,)               # deliberately wrong rule
        return Tensor(out_data, parents=(x,), backward=backward)

    err = grad_check(lambda: quadratic(broken_double()), {"x": x})
    assert err > 1e-2


def test_grad_check_rejects_nonscalar_loss():
    x = Tensor(np.zeros((2, 2)), requires_grad=True)
    with pytest.raises(ValueError, match="loss must be scalar"):
        grad_check(lambda: ad.affine(x, Tensor(np.eye(2)), Tensor(np.zeros(2))), {"x": x})


def public_ops():
    """Names of ``autodiff``'s public functions annotated to return a Tensor."""
    return sorted(name for name, fn in vars(ad).items()
                  if inspect.isfunction(fn) and fn.__module__ == ad.__name__
                  and not name.startswith("_") and fn.__annotations__.get("return") == "Tensor")


def test_every_public_op_has_its_own_gradcheck(monkeypatch):
    # ``spkver gradcheck`` probes every entry of each op on its own; the full
    # nets reach an op only through a few sampled entries per tensor
    ops = public_ops()
    assert {"affine", "time_delay", "mfm", "add", "stack_rows"} <= set(ops)
    assert "grad_check" not in ops and "topo_order" not in ops
    checks = {name: loss_fn for name, loss_fn, _ in op_checks(0)}
    assert not set(ops) - checks.keys(), sorted(set(ops) - checks.keys())
    called = []

    def recorded(name, op):
        def wrapper(*args, **kwargs):
            called.append(name)
            return op(*args, **kwargs)
        return wrapper
    for name in ops:
        monkeypatch.setattr(ad, name, recorded(name, getattr(ad, name)))
    for name in ops:
        called.clear()
        checks[name]()
        assert name in called, f"the {name} check does not call {name}"


def test_second_backward_on_one_graph_raises():
    rng = np.random.default_rng(20)
    x = Tensor(rng.standard_normal((5, 3)), requires_grad=True)
    w = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
    loss = quadratic(ad.affine(x, w, Tensor(np.zeros(2))))
    loss.backward()
    first = w.grad.copy()
    with pytest.raises(RuntimeError, match="already released by backward"):
        loss.backward()
    assert np.array_equal(w.grad, first)


# ---------------------------------------------------------------------------
# graph release in Tensor.backward


def step_setup(arch, loss, n_segments, frames):
    cfg = ExperimentConfig(arch=arch, resnet_blocks=3, loss=loss, width_scale=0.125, seed=5)
    model = tr.build_model(cfg, 12)
    rng = np.random.default_rng(21)
    segments = [rng.standard_normal((frames, model.in_dim)) for _ in range(n_segments)]
    labels = rng.integers(0, 12, size=n_segments)
    return lambda: tr.batch_loss(model, segments, labels, cfg, 0.5), model.params


def keep_graph_backward(loss):
    """Backward without release: every node keeps its closure and .grad."""
    loss.grad = np.ones_like(loss.data)
    for node in reversed(ad.topo_order(loss.node)):
        if node.backward is not None:
            for parent, g in zip(node.parents, node.backward(node.grad), strict=True):
                if g is not None:
                    parent.accumulate(g)


@pytest.mark.parametrize("arch,loss", [("maxpool", "asoftmax"), ("resnet", "softmax")])
def test_released_graph_gives_keep_graph_gradients(arch, loss):
    build, params = step_setup(arch, loss, n_segments=4, frames=120)
    for t in params.values():
        t.grad = None
    keep_graph_backward(build())
    expected = {name: t.grad for name, t in params.items()}

    for t in params.values():
        t.grad = None
    out = build()
    inner = [node for node in ad.topo_order(out.node) if node.parents]
    out.backward()
    for name, t in params.items():
        assert np.array_equal(t.grad, expected[name]), name
    for node in inner:
        assert node.grad is None and node.parents == ()
        assert getattr(node.backward, "__closure__", None) is None


@pytest.mark.parametrize("arch,loss", [("maxpool", "asoftmax"), ("resnet", "softmax")])
def test_backward_memory_peak_stays_near_forward_level(arch, loss):
    # tracemalloc counts numpy buffers exactly; with the graph freed as it is
    # walked, backward adds the parameter gradients it produces plus a small
    # share of what forward left held
    build, params = step_setup(arch, loss, n_segments=8, frames=300)
    tracemalloc.start()
    try:
        out = build()
        level = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out.backward()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    grad_bytes = sum(t.grad.nbytes for _, t in params.items())
    assert (peak - level - grad_bytes) / level < 0.2


def buffer_root(a):
    """The array that owns the memory of ``a``."""
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def closure_arrays(fn):
    """Every ndarray a closure reaches: its cells, tuples and lists in them,
    and the closures of functions it holds."""
    seen, stack, found = set(), [fn], []
    while stack:
        v = stack.pop()
        if id(v) in seen:
            continue
        seen.add(id(v))
        if isinstance(v, np.ndarray):
            found.append(v)
        elif isinstance(v, (tuple, list)):
            stack.extend(v)
        elif callable(v) and getattr(v, "__closure__", None):
            stack.extend(cell.cell_contents for cell in v.__closure__)
    return found


@pytest.mark.parametrize("arch,loss", [("maxpool", "asoftmax"), ("resnet", "softmax")])
def test_graph_keeps_only_what_backward_reads(arch, loss, monkeypatch):
    # The graph links nodes, not values.  Below the objective, a backward
    # closure may hold the value of a tensor (or a view of it), a bool mask,
    # or a vector of at most 2C entries for an input of C channels; nothing
    # frame-sized of its own.  The objective's closure keeps its (B, N)
    # logits.  The array buffers tracemalloc sees held after forward (numpy
    # traces them in its own domain, apart from the graph's Python objects)
    # are the arrays the closures reach plus the loss value, and nothing else.
    build, params = step_setup(arch, loss, n_segments=8, frames=300)
    tracemalloc.start()
    try:
        out = build()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    numpy_buffers = tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)
    held = sum(t.size for t in snapshot.filter_traces([numpy_buffers]).traces)
    earlier = {id(buffer_root(a)) for a in closure_arrays(build)}       # the segments
    earlier |= {id(buffer_root(t.data)) for _, t in params.items()}
    reached = {id(buffer_root(out.data)): buffer_root(out.data).nbytes}
    for node in ad.topo_order(out.node):
        for a in closure_arrays(node.backward) if node.backward is not None else ():
            root = buffer_root(a)
            if id(root) not in earlier:
                reached[id(root)] = root.nbytes
    assert held == sum(reached.values())

    # a second graph, built with every tensor's value recorded by its node
    values = {id(t.node): t.data for _, t in params.items()}
    init = ad.Tensor.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        values[id(self.node)] = self.data
    monkeypatch.setattr(ad.Tensor, "__init__", recording_init)
    out = build()
    value_roots = {id(buffer_root(v)) for v in values.values()}
    for node in ad.topo_order(out.node):
        if node.backward is None:
            continue
        width = max(values[id(p)].shape[-1] for p in node.parents)
        for a in closure_arrays(node.backward):
            if id(buffer_root(a)) in value_roots:
                continue
            assert (node is out.node or a.dtype == bool
                    or (a.ndim == 1 and a.size <= 2 * width)), \
                f"{node.backward.__qualname__} keeps a {a.dtype} array of shape {a.shape}"


@pytest.mark.parametrize("arch,loss", [("maxpool", "asoftmax"), ("resnet", "softmax")])
def test_float32_step_and_extraction_make_no_float64_array(arch, loss, monkeypatch):
    # One float64 array below the objective would turn every product after it
    # into a float64 GEMM.  A training step on float64 features (cast once, at
    # the graph's entry) and an extraction make only float32 tensors, bar the
    # scalar loss; before backward, every float array a closure below the
    # objective keeps is float32; so is every gradient backward hands on and,
    # after the step, every parameter and momentum buffer.
    cfg = ExperimentConfig(arch=arch, resnet_blocks=3, loss=loss, width_scale=0.125, seed=5)
    model = tr.build_model(cfg, 12)
    rng = np.random.default_rng(21)
    segments = [rng.standard_normal((120, model.in_dim)) for _ in range(4)]
    made = []
    init = ad.Tensor.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append((self.data.dtype, self.data.shape))
    monkeypatch.setattr(ad.Tensor, "__init__", recording_init)
    handed = []
    accumulate = ad.Node.accumulate

    def recording_accumulate(self, g):
        handed.append(g.dtype)
        accumulate(self, g)
    monkeypatch.setattr(ad.Node, "accumulate", recording_accumulate)

    loss_t = tr.batch_loss(model, segments, rng.integers(0, 12, size=4), cfg, 0.5)
    assert made.pop() == (np.float64, ())              # the loss
    assert made and all(dtype == np.float32 for dtype, _ in made), made
    for node in ad.topo_order(loss_t.node)[:-1]:       # the objective's closure is last
        for a in closure_arrays(node.backward) if node.backward is not None else ():
            assert a.dtype in (np.float32, bool), (node.backward.__qualname__, a.dtype)
    loss_t.backward()
    assert handed and set(handed) == {np.dtype(np.float32)}
    tr.clip_gradients(model.params, cfg.grad_clip)
    for name, t in model.params.items():
        assert t.grad.dtype == np.float32, name
    tr.sgd_step(model.params, model.velocity, 0.01, 0.9)
    for name, t in model.params.items():
        assert t.data.dtype == model.velocity[name].dtype == np.float32, name

    made.clear()
    emb = md.embed_batch(model, segments)
    assert emb.dtype == np.float32
    assert made and all(dtype == np.float32 for dtype, _ in made), made


@pytest.mark.parametrize("arch,loss,bound_mib", [("maxpool", "asoftmax", 50),
                                                 ("resnet", "softmax", 96)])
def test_full_width_graph_holds_no_activations(arch, loss, bound_mib):
    # B = 16 segments x 400 frames at width 1.0: what the graph holds after
    # forward is masks, the inputs of the affine, time-delay, PReLU and
    # statistics ops, and the objective's arrays; not the PReLU outputs that
    # feed a pool, nor the time-delay outputs that feed a residual add
    cfg = ExperimentConfig(arch=arch, loss=loss, width_scale=1.0, seed=5)
    model = tr.build_model(cfg, 100)
    rng = np.random.default_rng(21)
    segments = [rng.standard_normal((400, model.in_dim)) for _ in range(16)]
    labels = rng.integers(0, 100, size=16)
    tracemalloc.start()
    try:
        out = tr.batch_loss(model, segments, labels, cfg, 0.5)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held <= bound_mib * 2 ** 20, held / 2 ** 20
    out.backward()


def watch_gradient_ownership(loss, monkeypatch):
    """Make every gradient a node adopts during ``loss.backward()`` check
    that no other live node's .grad shares its memory.  The node whose
    backward is running hands its own gradient on and is exempt."""
    nodes = ad.topo_order(loss.node)
    running = [None]

    def watched(node, fn):
        def run(g):
            running[0] = node
            return fn(g)
        return run

    for node in nodes:
        if node.backward is not None:
            node.backward = watched(node, node.backward)
    adopt = ad.Node.accumulate

    def accumulate(self, g):
        if self.grad is None:
            for t in nodes:
                if t is not self and t is not running[0] and t.grad is not None:
                    assert not np.shares_memory(t.grad, g), (self, t)
        adopt(self, g)

    monkeypatch.setattr(ad.Node, "accumulate", accumulate)


def residual_block_setup():
    rng = np.random.default_rng(23)
    x = Tensor(rng.standard_normal((30, 6)), requires_grad=True, name="x")
    p = {"x": x}
    for name, shape in [("w1", (18, 6)), ("b1", (6,)), ("a1", (6,)),
                        ("w2", (18, 6)), ("b2", (6,)), ("a2", (6,))]:
        p[name] = Tensor(0.3 * rng.standard_normal(shape), requires_grad=True, name=name)

    def build():
        h = ad.prelu(ad.time_delay(x, p["w1"], p["b1"], 3), p["a1"])
        h = ad.time_delay(h, p["w2"], p["b2"], 3)
        return quadratic(ad.prelu(ad.add(h, ad.slice_time(x, 2, 26)), p["a2"]))
    return build, p


def add_same_setup():
    x = Tensor(np.random.default_rng(24).standard_normal((5, 3)), requires_grad=True, name="x")
    return lambda: quadratic(ad.add(x, x)), {"x": x}


def stack_setup(arch, loss):
    build, params = step_setup(arch, loss, n_segments=4, frames=120)
    return build, dict(params.items())


@pytest.mark.parametrize("setup", [
    lambda: stack_setup("maxpool", "asoftmax"), lambda: stack_setup("resnet", "softmax"),
    add_same_setup, residual_block_setup], ids=["maxpool", "resnet", "add_same", "residual"])
def test_backward_hands_over_gradients_without_aliasing(setup, monkeypatch):
    build, params = setup()
    with monkeypatch.context() as patch:
        patch.setattr(ad.Node, "accumulate", ref_accumulate)
        for t in params.values():
            t.grad = None
        build().backward()
        expected = {name: t.grad for name, t in params.items()}

    for t in params.values():
        t.grad = None
    loss = build()
    watch_gradient_ownership(loss, monkeypatch)
    loss.backward()
    names = list(params)
    for i, name in enumerate(names):
        grad = params[name].grad
        assert grad.tobytes() == expected[name].tobytes(), name
        for other in names[i + 1:]:
            assert not np.shares_memory(grad, params[other].grad), (name, other)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
@example(seed=12347)
def test_primitive_gradients_random_trials(seed):
    """Every primitive op passes finite differences on random inputs.

    Inputs near max/PReLU kinks are nudged away so the comparison is
    well defined.  The ops run in ``np.longdouble``: a loss near 100 has a
    float64 rounding of about 1.4e-9 in a central difference at step 1e-5,
    above 1e-4 of the 1e-6 floor; seed 12347 (``time_delay``'s ``w[8]``,
    gradient -7.16e-7) failed that way in float64.
    """
    rng = np.random.default_rng(seed)

    def draw(shape):
        return rng.standard_normal(shape).astype(np.longdouble)

    def away_from_kinks(shape):
        v = draw(shape)
        v[np.abs(v) < 1e-3] += 1e-2
        return v

    x = Tensor(away_from_kinks((4, 4)), requires_grad=True)
    w = Tensor(draw((12, 3)), requires_grad=True)
    b = Tensor(draw(3), requires_grad=True)
    a = Tensor(np.abs(draw(4)) + 0.1, requires_grad=True)
    ops = {
        "time_delay": lambda: quadratic(ad.time_delay(x, w, b, context=3)),
        "max_pool": lambda: quadratic(ad.max_pool_2x2(x)),
        "prelu": lambda: quadratic(ad.prelu(x, a)),
        "mfm": lambda: quadratic(ad.mfm(x)),
        "stats": lambda: quadratic(ad.stats_pool(x)),
    }
    for name, fn in ops.items():
        params = {"x": x} if name != "prelu" else {"x": x, "a": a}
        if name == "time_delay":
            params.update(w=w, b=b)
        assert grad_check(fn, params) < 1e-4, name


# ---------------------------------------------------------------------------
# bit-exact agreement with the reference selection ops


def ref_accumulate(self, g):
    if self.grad is None:
        self.grad = np.zeros_like(g)
    self.grad += g


def ref_max_pool_2x2(x):
    xv = x.data
    t_in, c_in = xv.shape
    t2, c2 = t_in // 2, c_in // 2
    blocks = xv[: 2 * t2].reshape(t2, 2, c2, 2).transpose(0, 2, 1, 3).reshape(t2, c2, 4)
    idx = blocks.argmax(axis=2)
    out = np.take_along_axis(blocks, idx[..., None], axis=2)[..., 0]

    def backward(g):
        gb = np.zeros((t2, c2, 4), xv.dtype)
        np.put_along_axis(gb, idx[..., None], g[..., None], axis=2)
        gx = np.zeros_like(xv)
        gx[: 2 * t2] = gb.reshape(t2, c2, 2, 2).transpose(0, 2, 1, 3).reshape(2 * t2, c_in)
        return (gx,)

    return Tensor(out, parents=(x,), backward=backward)


def ref_max_pool_time(x):
    xv = x.data
    t2 = xv.shape[0] // 2
    first = xv[0 : 2 * t2 : 2]
    second = xv[1 : 2 * t2 : 2]
    take_first = first >= second
    out = np.where(take_first, first, second)

    def backward(g):
        gx = np.zeros_like(xv)
        gx[0 : 2 * t2 : 2] = np.where(take_first, g, 0.0)
        gx[1 : 2 * t2 : 2] = np.where(take_first, 0.0, g)
        return (gx,)

    return Tensor(out, parents=(x,), backward=backward)


def ref_prelu(x, slope):
    xv, av = x.data, slope.data
    pos = xv >= 0
    out = np.where(pos, xv, xv * av[None, :])

    def backward(g):
        return (g * np.where(pos, 1.0, av[None, :]),
                (g * np.where(pos, 0.0, xv)).sum(axis=0))

    return Tensor(out, parents=(x, slope), backward=backward)


def ref_mfm(x):
    xv = x.data
    c = xv.shape[1] // 2
    first, second = xv[:, :c], xv[:, c:]
    take_first = first >= second
    out = np.where(take_first, first, second)

    def backward(g):
        gx = np.zeros_like(xv)
        gx[:, :c] = np.where(take_first, g, 0.0)
        gx[:, c:] = np.where(take_first, 0.0, g)
        return (gx,)

    return Tensor(out, parents=(x,), backward=backward)


REFERENCE_OPS = {"max_pool_2x2": ref_max_pool_2x2, "max_pool_time": ref_max_pool_time,
                 "prelu": ref_prelu, "mfm": ref_mfm}
PRELU_SLOPES = (-0.5, 0.0, 0.25, 1.0, 1.5)


def tied_input(rng, shape):
    """Normals with planted ties: repeated small grid values and zeros of both signs."""
    v = rng.standard_normal(shape)
    grid = rng.random(shape) < 0.5
    v[grid] = rng.integers(-2, 3, size=int(grid.sum())) * 0.5
    zeros = v == 0.0
    v[zeros] = np.where(rng.random(int(zeros.sum())) < 0.5, 0.0, -0.0)
    return v


def run_op(op, xv, slope, seed):
    """Output and gradients (input, then slope for prelu) of one op call
    under a seeded random upstream gradient."""
    x = Tensor(xv.copy(), requires_grad=True)
    args = (x,) if slope is None else (x, Tensor(slope.copy(), requires_grad=True))
    out = op(*args)
    grads = out._backward(np.random.default_rng(seed).standard_normal(out.shape))
    return out.data, list(grads)


def assert_same_as_reference(name, xv, slope=None, seed=0):
    out, grads = run_op(getattr(ad, name), xv, slope, seed)
    ref_out, ref_grads = run_op(REFERENCE_OPS[name], xv, slope, seed)
    assert np.array_equal(out, ref_out), "output"
    assert np.array_equal(np.signbit(out), np.signbit(ref_out)), "output sign bits"
    for g, ref_g in zip(grads, ref_grads):
        assert np.array_equal(g, ref_g), "gradient"


@pytest.mark.parametrize("name", ["max_pool_2x2", "max_pool_time", "mfm"])
@pytest.mark.parametrize("frames", [2, 7, 10, 33])
@pytest.mark.parametrize("seed", range(4))
def test_pair_ops_match_reference_bitwise(name, frames, seed):
    rng = np.random.default_rng(100 + seed)
    assert_same_as_reference(name, tied_input(rng, (frames, 12)), seed=seed)


@pytest.mark.parametrize("slopes", [(s,) for s in PRELU_SLOPES] + [PRELU_SLOPES])
@pytest.mark.parametrize("seed", range(4))
def test_prelu_matches_reference_bitwise(slopes, seed):
    rng = np.random.default_rng(200 + seed)
    xv = tied_input(rng, (9, 10))
    slope = np.array(slopes)[rng.integers(0, len(slopes), size=10)]
    assert_same_as_reference("prelu", xv, slope=slope, seed=seed)


def test_pair_ops_all_tied_route_to_first_in_scan_order():
    xv = np.array([[0.0, -0.0, -0.0, 0.0], [-0.0, 0.0, 0.0, -0.0]])
    for name in ("max_pool_2x2", "max_pool_time", "mfm"):
        assert_same_as_reference(name, xv)
        assert_same_as_reference(name, -xv)


@pytest.mark.parametrize("name", ["max_pool_2x2", "max_pool_time", "mfm"])
def test_pair_ops_propagate_nan_from_either_slot(name):
    # a NaN in any slot (either channel half for mfm, either frame or channel
    # of a block for the pools) shows exactly where +inf in its place would win
    for row, col in [(0, 0), (0, 1), (1, 0), (1, 1), (0, 2), (1, 2)]:
        xv = np.arange(8.0).reshape(2, 4)
        xv[row, col] = np.nan
        out = getattr(ad, name)(Tensor(xv)).data
        expect = REFERENCE_OPS[name](Tensor(np.where(np.isnan(xv), np.inf, xv))).data
        assert np.array_equal(np.isnan(out), np.isinf(expect)), (row, col)


@pytest.mark.parametrize("arch,loss", [("maxpool", "asoftmax"), ("resnet", "softmax")])
def test_training_checkpoint_bytes_match_reference_ops(arch, loss, tmp_path, monkeypatch):
    spec = SyntheticCorpusSpec(n_speakers=3, utts_per_speaker=4, utterance_s=2.0,
                               separation=1.5, seed=3)
    features, utt2spk = generate_synthetic_corpus(spec)
    cfg = ExperimentConfig(arch=arch, resnet_blocks=2, width_scale=0.125, loss=loss,
                           learning_rate=0.1, batch_size=4, epochs=2, steps_per_epoch=2,
                           segment_min_s=0.9, segment_max_s=1.4, val_fraction=0.0, seed=5)

    def checkpoint_bytes(tag):
        path = tmp_path / f"{tag}.ckpt"
        result = tr.train_extractor(features, utt2spk, cfg)
        tr.save_train_checkpoint(path, result, cfg)
        return path.read_bytes()

    new = checkpoint_bytes("new")
    for name, op in REFERENCE_OPS.items():
        monkeypatch.setattr(ad, name, op)
    monkeypatch.setattr(ad.Node, "accumulate", ref_accumulate)
    assert checkpoint_bytes("reference") == new

"""Finite-difference gradient checks for every primitive op and both
full extractor architectures.

Each check rebuilds a small graph ending in a scalar loss and compares the
reverse-mode gradients of the listed parameters against central
differences.  The full nets, as ``training.build_model`` builds them, go
through the softmax training loss, ``training.batch_loss``, on a segment of
``receptive_field + 8`` frames of ``in_dim`` features that the model sizes,
so the contract covers what training builds and steps: every parameter.
Inputs are drawn away from activation kinks so the comparison is well
defined.  Every check runs in float64: the op checks' inputs are float64,
and the two models' float32 parameters are widened before they are probed,
since a central difference at step 1e-5 needs more digits than float32 holds.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from . import models as md
from . import training
from .autodiff import Tensor, grad_check
from .formats import ExperimentConfig
from .objectives import asoftmax_loss, softmax_ce

TOLERANCE = 1e-4


def _quadratic(out: Tensor) -> Tensor:
    flat = out.data.reshape(-1)
    coeffs = np.linspace(0.3, 1.1, flat.size)
    shape = out.data.shape

    def backward(g):
        return (float(g) * (coeffs * flat).reshape(shape),)

    return Tensor(0.5 * float(coeffs @ (flat ** 2)), parents=(out,), backward=backward)


def op_checks(seed: int):
    """(name, loss_fn, params) triples, one per public op of ``autodiff`` and
    ``objectives``, named after it; ``params`` maps each probed tensor's name to it."""
    rng = np.random.default_rng(seed)
    checks = []

    x = Tensor(rng.standard_normal((5, 7)), requires_grad=True, name="x")
    w = Tensor(rng.standard_normal((7, 4)) * 0.5, requires_grad=True, name="w")
    b = Tensor(rng.standard_normal(4) * 0.1, requires_grad=True, name="b")
    checks.append(("affine", lambda: _quadratic(ad.affine(x, w, b)), {"x": x, "w": w, "b": b}))

    xt = Tensor(rng.standard_normal((12, 3)), requires_grad=True, name="xt")
    wt = Tensor(rng.standard_normal((9, 5)) * 0.4, requires_grad=True, name="wt")
    bt = Tensor(rng.standard_normal(5) * 0.1, requires_grad=True, name="bt")
    checks.append(("time_delay",
                   lambda: _quadratic(ad.time_delay(xt, wt, bt, context=3)),
                   {"xt": xt, "wt": wt, "bt": bt}))

    xp = Tensor(rng.standard_normal((10, 8)), requires_grad=True, name="xp")
    checks.append(("max_pool_2x2", lambda: _quadratic(ad.max_pool_2x2(xp)), {"xp": xp}))
    checks.append(("max_pool_time", lambda: _quadratic(ad.max_pool_time(xp)), {"xp": xp}))

    xr = Tensor(rng.standard_normal((6, 5)), requires_grad=True, name="xr")
    # negative, (0, 1) and > 1 slopes: both the max and the min branch of prelu
    slope = Tensor(np.array([-0.5, 0.25, 0.75, 1.5, 2.0]), requires_grad=True, name="slope")
    checks.append(("prelu", lambda: _quadratic(ad.prelu(xr, slope)), {"xr": xr, "slope": slope}))

    xm = Tensor(rng.standard_normal((6, 8)), requires_grad=True, name="xm")
    checks.append(("mfm", lambda: _quadratic(ad.mfm(xm)), {"xm": xm}))

    xs = Tensor(rng.standard_normal((7, 4)), requires_grad=True, name="xs")
    checks.append(("stats_pool", lambda: _quadratic(ad.stats_pool(xs)), {"xs": xs}))

    logits = Tensor(rng.standard_normal((4, 6)), requires_grad=True, name="logits")
    labels = rng.integers(0, 6, size=4)
    checks.append(("softmax_ce", lambda: softmax_ce(logits, labels), {"logits": logits}))

    feats = Tensor(rng.standard_normal((5, 8)), requires_grad=True, name="feats")
    weights = Tensor(rng.standard_normal((8, 4)), requires_grad=True, name="weights")
    alabels = rng.integers(0, 4, size=5)
    checks.append(("asoftmax", lambda: asoftmax_loss(feats, weights, alabels, m=2, lam=0.5),
                   {"feats": feats, "weights": weights}))

    xa, ya = (Tensor(rng.standard_normal((4, 3)), requires_grad=True, name=n) for n in ("xa", "ya"))
    checks.append(("add", lambda: _quadratic(ad.add(xa, ya)), {"xa": xa, "ya": ya}))
    checks.append(("slice_time", lambda: _quadratic(ad.slice_time(xa, 1, 2)), {"xa": xa}))
    rows = {n: Tensor(rng.standard_normal(3), requires_grad=True, name=n) for n in ("r0", "r1")}
    checks.append(("stack_rows", lambda: _quadratic(ad.stack_rows(list(rows.values()))), rows))
    return checks


def full_net_checks(seed: int):
    """Both architectures, their parameters widened to float64, driven to the
    softmax training loss on one segment."""
    rng = np.random.default_rng(seed)
    checks = []
    for arch_name, arch in (("maxpool_net", "maxpool"), ("res_net", "resnet")):
        cfg = ExperimentConfig(arch=arch, loss="softmax", seed=seed)
        model = training.build_model(cfg, 4)
        for tensor in model.params.values():      # never stepped: momenta stay float32
            tensor.data = tensor.data.astype(np.float64)
        feats = rng.standard_normal((md.receptive_field(model) + 8, model.in_dim))
        labels = np.array([1])

        def loss_fn(model=model, feats=feats, labels=labels, cfg=cfg):
            return training.batch_loss(model, [feats], labels, cfg, 0.0)

        checks.append((arch_name, loss_fn, model.params))
    return checks


def run_suite(samples: int, seed: int, log=None) -> int:
    """Run every check, the op checks on every entry and the full nets on
    ``samples`` entries per tensor; returns the number of failures."""
    failures = 0
    rng = np.random.default_rng(seed + 1)
    checks = [(check, None) for check in op_checks(seed)]
    checks += [(check, samples) for check in full_net_checks(seed)]
    for (name, loss_fn, params), n_samples in checks:
        err = grad_check(loss_fn, params, n_samples=n_samples, rng=rng)
        ok = err < TOLERANCE
        failures += not ok
        if log is not None:
            log(f"{'PASS' if ok else 'FAIL'} {name}: max relative error {err:.3e}")
    return failures

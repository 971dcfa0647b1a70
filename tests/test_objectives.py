"""Loss contracts: direct-summation oracles, the margin profile's exact
values, margin-free degeneracy, and finite-difference gradients."""

import numpy as np
import pytest

from spkver.autodiff import Tensor, grad_check
from spkver.objectives import _COS_MULTIPLE, asoftmax_loss, psi_of_cos, softmax_ce


def unit_columns(w):
    return w / np.linalg.norm(w, axis=0, keepdims=True)


# ---------------------------------------------------------------------------
# softmax cross-entropy


def test_softmax_uniform_logits():
    k = 6
    loss = softmax_ce(Tensor(np.zeros((3, k))), [0, 3, 5])
    assert loss.data == pytest.approx(np.log(k), abs=1e-12)


def test_softmax_saturated():
    logits = np.zeros((1, 4))
    logits[0, 2] = 80.0
    assert float(softmax_ce(Tensor(logits), [2]).data) < 1e-12


def test_softmax_matches_direct_oracle():
    rng = np.random.default_rng(0)
    z = rng.standard_normal((4, 6)) * 3
    labels = rng.integers(0, 6, size=4)
    loss = float(softmax_ce(Tensor(z), labels).data)
    direct = 0.0
    for i in range(4):
        p = np.exp(z[i]) / np.exp(z[i]).sum()
        direct -= np.log(p[labels[i]])
    assert loss == pytest.approx(direct / 4, abs=1e-12)


def test_softmax_label_out_of_range():
    with pytest.raises(ValueError, match="invalid label"):
        softmax_ce(Tensor(np.zeros((2, 3))), [0, 3])


def test_softmax_gradient():
    rng = np.random.default_rng(1)
    logits = Tensor(rng.standard_normal((5, 4)), requires_grad=True)
    labels = rng.integers(0, 4, size=5)
    assert grad_check(lambda: softmax_ce(logits, labels), {"z": logits}) < 1e-4


# ---------------------------------------------------------------------------
# margin profile


def test_psi_m2_quarter_pi():
    assert psi_of_cos(np.cos(np.pi / 4), 2)[0] == pytest.approx(0.0, abs=1e-12)
    assert psi_of_cos(1.0, 2)[0] == pytest.approx(1.0)


def loop_interval_index(c, m):
    """k with arccos(c) in [k pi/m, (k+1) pi/m], counted bound by bound."""
    k = np.zeros_like(c)
    for i in range(1, m):
        k += (c < np.cos(i * np.pi / m))
    return k


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_psi_matches_piecewise_formula_on_grid(m):
    theta = np.linspace(0, np.pi, 10_000)
    k = np.minimum(np.floor(theta * m / np.pi), m - 1)
    direct = (-1.0) ** k * np.cos(m * theta) - 2.0 * k
    ours = psi_of_cos(np.cos(theta), m)[0]
    assert np.allclose(ours, direct, atol=1e-9)

    # bit for bit against the bound-by-bound count, on the grid, the exact
    # bounds cos(i pi/m) and their neighbours, +-1 and +-0
    bounds = np.array([np.cos(i * np.pi / m) for i in range(1, m)])
    c = np.concatenate([np.cos(theta), bounds, np.nextafter(bounds, 2), np.nextafter(bounds, -2),
                        [1.0, -1.0, 0.0, -0.0]])
    k = loop_interval_index(c, m)
    sign = np.where(k % 2 == 0, 1.0, -1.0)
    cos_m, dcos_m = _COS_MULTIPLE[m]
    psi, dpsi = psi_of_cos(c, m)
    assert psi.tobytes() == (sign * cos_m(c) - 2.0 * k).tobytes()
    assert dpsi.tobytes() == (sign * dcos_m(c)).tobytes()


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_psi_continuous_and_nonincreasing(m):
    theta = np.linspace(0, np.pi, 10_000)
    values = psi_of_cos(np.cos(theta), m)[0]
    diffs = np.diff(values)
    assert np.all(diffs <= 1e-12)                       # non-increasing in theta
    assert np.max(np.abs(diffs)) < 5e-3                 # no jumps on a fine grid


# ---------------------------------------------------------------------------
# angular-margin loss


def test_margin_free_equals_cosine_softmax():
    rng = np.random.default_rng(2)
    for _ in range(20):
        b, d, n = 5, 8, 4
        x = rng.standard_normal((b, d)) * 2
        w = rng.standard_normal((d, n))
        labels = rng.integers(0, n, size=b)
        ours = float(asoftmax_loss(Tensor(x), Tensor(w), labels, m=1, lam=0.0).data)
        ref = float(softmax_ce(Tensor(x @ unit_columns(w)), labels).data)
        assert abs(ours - ref) < 1e-10


def test_asoftmax_matches_arccos_oracle():
    """Brute force: angles via arccos, margin profile on the target class,
    plain cosine terms elsewhere, summed straight from the definition."""
    rng = np.random.default_rng(3)
    b, d, n = 3, 6, 2
    x = rng.standard_normal((b, d)) * 1.5
    w = rng.standard_normal((d, n))
    labels = rng.integers(0, n, size=b)
    m = 3

    w_hat = unit_columns(w)
    direct = 0.0
    for i in range(b):
        xn = np.linalg.norm(x[i])
        cos = x[i] @ w_hat / xn
        theta = np.arccos(np.clip(cos, -1, 1))
        k = min(int(np.floor(theta[labels[i]] * m / np.pi)), m - 1)
        psi = (-1.0) ** k * np.cos(m * theta[labels[i]]) - 2 * k
        logits = xn * cos
        logits[labels[i]] = xn * psi
        direct += -np.log(np.exp(logits[labels[i]]) / np.exp(logits).sum())
    direct /= b

    ours = float(asoftmax_loss(Tensor(x), Tensor(w), labels, m=m, lam=0.0).data)
    assert ours == pytest.approx(direct, abs=1e-10)


def test_asoftmax_annealed_target_logit():
    rng = np.random.default_rng(4)
    b, d, n = 4, 5, 3
    x = rng.standard_normal((b, d))
    w = rng.standard_normal((d, n))
    labels = rng.integers(0, n, size=b)
    lam = 7.0
    w_hat = unit_columns(w)
    direct = 0.0
    for i in range(b):
        xn = np.linalg.norm(x[i])
        cos = x[i] @ w_hat / xn
        psi = psi_of_cos(cos[labels[i]], 2)[0]
        logits = xn * cos
        logits[labels[i]] = xn * (psi + lam * cos[labels[i]]) / (1 + lam)
        direct += -np.log(np.exp(logits[labels[i]]) / np.exp(logits).sum())
    ours = float(asoftmax_loss(Tensor(x), Tensor(w), labels, m=2, lam=lam).data)
    assert ours == pytest.approx(direct / b, abs=1e-10)


def test_asoftmax_invariant_to_column_rescaling():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((6, 8))
    w = rng.standard_normal((8, 5))
    labels = rng.integers(0, 5, size=6)
    base = float(asoftmax_loss(Tensor(x), Tensor(w), labels, m=2, lam=0.0).data)
    scaled = w * rng.uniform(0.1, 10.0, size=5)[None, :]
    rescaled = float(asoftmax_loss(Tensor(x), Tensor(scaled), labels, m=2, lam=0.0).data)
    assert abs(base - rescaled) < 1e-10


def test_margin_two_never_easier_than_margin_one():
    """With every target angle inside (0, pi/2), the m=2 loss dominates."""
    rng = np.random.default_rng(6)
    checked = 0
    while checked < 50:
        x = rng.standard_normal((3, 5))
        w = rng.standard_normal((5, 4))
        labels = rng.integers(0, 4, size=3)
        w_hat = unit_columns(w)
        cos_t = np.array([x[i] @ w_hat[:, labels[i]] / np.linalg.norm(x[i])
                          for i in range(3)])
        if not np.all((cos_t > 1e-6) & (cos_t < 1 - 1e-6)):
            continue
        l1 = float(asoftmax_loss(Tensor(x), Tensor(w), labels, m=1, lam=0.0).data)
        l2 = float(asoftmax_loss(Tensor(x), Tensor(w), labels, m=2, lam=0.0).data)
        assert l2 >= l1 - 1e-12
        checked += 1


def two_phase_asoftmax_gradients(x, w, labels, m, lam):
    """The A-softmax gradients by two phases: the plain-logit rule on every
    entry, then the target entries' share swapped for the margin rule."""
    rows, b = np.arange(len(x)), len(x)
    w_norms, x_norms = np.linalg.norm(w, axis=0), np.linalg.norm(x, axis=1)
    w_hat = w / w_norms
    plain = x @ w_hat
    ct = np.clip(plain[rows, labels] / x_norms, -1.0, 1.0)
    psi, dpsi = psi_of_cos(ct, m)
    logits = plain.copy()
    logits[rows, labels] = x_norms * (psi + lam * ct) / (1.0 + lam)
    p = np.exp(logits - logits.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    p[rows, labels] -= 1.0
    grad_logits = p / b

    gx, g_what = grad_logits @ w_hat.T, x.T @ grad_logits
    gt, w_y, x_hat = grad_logits[rows, labels], w_hat[:, labels].T, x / x_norms[:, None]
    gx -= gt[:, None] * w_y
    np.add.at(g_what.T, labels, -gt[:, None] * x)
    q = (dpsi + lam) / (1.0 + lam)
    r = (psi + lam * ct) / (1.0 + lam) - ct * q
    gx += gt[:, None] * (q[:, None] * w_y + r[:, None] * x_hat)
    np.add.at(g_what.T, labels, (gt * q)[:, None] * x)
    proj = (w_hat * g_what).sum(axis=0)
    return gx, (g_what - w_hat * proj[None, :]) / w_norms[None, :]


@pytest.mark.parametrize("m,lam,b", [(1, 0.0, 4), (2, 0.0, 4), (3, 0.5, 4), (4, 2.0, 4),
                                     (2, 1000.0, 16)],
                         ids=["1-0.0", "2-0.0", "3-0.5", "4-2.0", "2-1000.0-16rows"])
def test_asoftmax_gradient_away_from_boundaries(m, lam, b):
    """Against finite differences and, within 1e-12 relative to the largest
    entry, the two-phase formula; 16 rows of 3 classes repeat labels."""
    rng = np.random.default_rng(7 + m)
    d, n = 6, 3
    while True:
        x = rng.standard_normal((b, d))
        w = rng.standard_normal((d, n))
        labels = rng.integers(0, n, size=b)
        cos_t = np.array([x[i] @ unit_columns(w)[:, labels[i]] / np.linalg.norm(x[i])
                          for i in range(b)])
        theta = np.arccos(np.clip(cos_t, -1, 1))
        bounds = np.arange(m + 1) * np.pi / m
        if np.min(np.abs(theta[:, None] - bounds[None, :])) > 1e-3:
            break
    xt = Tensor(x, requires_grad=True)
    wt = Tensor(w, requires_grad=True)
    err = grad_check(lambda: asoftmax_loss(xt, wt, labels, m, lam), {"x": xt, "w": wt})
    assert err < 1e-4

    xt.grad = wt.grad = None
    asoftmax_loss(xt, wt, labels, m, lam).backward()
    for got, want in zip((xt.grad, wt.grad), two_phase_asoftmax_gradients(x, w, labels, m, lam)):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_asoftmax_degenerate_inputs():
    x = np.ones((2, 3))
    x[1] = 0.0
    with pytest.raises(ValueError, match="degenerate feature vector"):
        asoftmax_loss(Tensor(x), Tensor(np.ones((3, 2))), [0, 1], m=2, lam=0.0)
    w = np.ones((3, 2))
    w[:, 1] = 0.0
    with pytest.raises(ValueError, match="degenerate classifier column"):
        asoftmax_loss(Tensor(np.ones((2, 3))), Tensor(w), [0, 1], m=2, lam=0.0)


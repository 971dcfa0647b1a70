"""Training objectives: softmax cross-entropy and angular-margin softmax.

The angular-margin loss replaces the target class logit ||x|| cos(theta)
with ||x|| psi(theta), where psi is the monotone piecewise extension of
cos(m * theta):

    psi(theta) = (-1)^k cos(m theta) - 2k   for theta in [k pi/m, (k+1) pi/m]

Non-target logits stay ||x|| cos(theta_j) against unit-norm classifier
columns.  An annealing weight lambda mixes the margined target logit with
the plain cosine logit as (psi + lambda cos) / (1 + lambda), which
stabilizes early training when lambda is large.  The margin m (one of
``MARGINS``) and lambda are plain arguments of ``asoftmax_loss``; their
range checks live in ``formats.ExperimentConfig``, and lambda's per-step
decay in ``training.train_extractor``.

The A-softmax backward is one chain rule.  For a row's target cosine c, let
q = (dpsi/dc + lambda) / (1 + lambda) and r = (psi + lambda c) / (1 + lambda) - c q.
The cross-entropy gradient with each row's target entry g_t scaled by q is
G = d loss / d(||x|| cos theta_j); then d loss / dx = G W^T + (g_t r / ||x||) x and
d loss / dW = x^T G for the unit columns W, which the column normalisation
takes back to the raw weights.

Both losses compute in float64 on their small (B, N) and (B, D) arrays,
whatever the dtype of their inputs, and hand each input's gradient back in
that input's dtype.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor

# (cos(m theta), d cos(m theta) / dc) as polynomials in c = cos(theta), by margin m.
_COS_MULTIPLE = {
    1: (lambda c: c, np.ones_like),
    2: (lambda c: 2.0 * c * c - 1.0, lambda c: 4.0 * c),
    3: (lambda c: (4.0 * c * c - 3.0) * c, lambda c: 12.0 * c * c - 3.0),
    4: (lambda c: 8.0 * (c * c) * (c * c) - 8.0 * (c * c) + 1.0,
        lambda c: (32.0 * c * c - 16.0) * c),
}
MARGINS = tuple(_COS_MULTIPLE)


def psi_of_cos(c, m: int):
    """Margin profile psi and its derivative dpsi/dc, both evaluated from
    c = cos(theta); psi is continuous and non-increasing in theta on [0, pi]."""
    c = np.clip(np.asarray(c, dtype=np.float64), -1.0, 1.0)
    # theta lies in [k pi/m, (k+1) pi/m] for k, the number of bounds cos(i pi/m) above c
    k = np.searchsorted(-np.cos(np.arange(1, m) * np.pi / m), -c)
    sign = np.where(k % 2 == 0, 1.0, -1.0)
    cos_m, dcos_m = _COS_MULTIPLE[m]
    return sign * cos_m(c) - 2.0 * k, sign * dcos_m(c)


def _check_labels(labels: np.ndarray, n_classes: int):
    if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
        raise ValueError("invalid label: out of range")


def _cross_entropy(z: np.ndarray, labels: np.ndarray):
    """Mean negative log softmax probability of ``labels`` under the rows of
    ``z``, and the function of the upstream gradient that gives d loss / d z;
    computed in float64, the gradient in ``z``'s dtype."""
    dtype, z = z.dtype, z.astype(np.float64, copy=False)
    b = z.shape[0]
    rows = np.arange(b)
    zmax = z.max(axis=1, keepdims=True)
    lse = zmax[:, 0] + np.log(np.exp(z - zmax).sum(axis=1))
    loss = float(np.mean(lse - z[rows, labels]))

    def grad(g):
        p = np.exp(z - lse[:, None])
        p[rows, labels] -= 1.0
        return (float(g) * p / b).astype(dtype, copy=False)

    return loss, grad


def softmax_ce(logits: Tensor, labels) -> Tensor:
    """Mean negative log softmax probability of the true class."""
    z = logits.data
    labels = np.asarray(labels, dtype=np.intp)
    if z.ndim != 2 or labels.shape != (z.shape[0],):
        raise ValueError("dimension error: logits (B, N) and one label per row")
    _check_labels(labels, z.shape[1])
    loss, grad = _cross_entropy(z, labels)
    return Tensor(loss, parents=(logits,), backward=lambda g: (grad(g),))


def asoftmax_loss(x: Tensor, w: Tensor, labels, m: int, lam: float) -> Tensor:
    """Angular-margin softmax cross-entropy over a feature batch.

    ``x`` holds pre-classifier features (B, D); ``w`` the raw classifier
    weights (D, N), whose columns are renormalized to unit length inside
    the graph, so the loss is invariant to positive column rescaling.
    The margin ``m`` (one of ``MARGINS``) applies to the target class logit
    only, mixed with its plain cosine logit by the annealing weight ``lam``.
    """
    labels = np.asarray(labels, dtype=np.intp)
    xv, wv = x.data.astype(np.float64, copy=False), w.data.astype(np.float64, copy=False)
    x_dtype, w_dtype = x.data.dtype, w.data.dtype
    if xv.ndim != 2 or wv.ndim != 2 or xv.shape[1] != wv.shape[0]:
        raise ValueError("dimension error: features (B, D) and weights (D, N)")
    if labels.shape != (xv.shape[0],):
        raise ValueError("dimension error: one label per feature row")
    _check_labels(labels, wv.shape[1])

    rows = np.arange(xv.shape[0])
    w_norms = np.linalg.norm(wv, axis=0)
    if np.any(w_norms < 1e-12):
        raise ValueError("degenerate classifier column: zero norm")
    w_hat = wv / w_norms[None, :]
    x_norms = np.linalg.norm(xv, axis=1)
    if np.any(x_norms < 1e-12):
        raise ValueError("degenerate feature vector: zero norm")

    plain = xv @ w_hat                       # ||x|| cos(theta), all classes
    ct = np.clip(plain[rows, labels] / x_norms, -1.0, 1.0)
    psi, dpsi = psi_of_cos(ct, m)
    q = (dpsi + lam) / (1.0 + lam)           # d target logit / d (||x|| cos)
    r = (psi + lam * ct) / (1.0 + lam) - ct * q
    plain[rows, labels] = x_norms * (psi + lam * ct) / (1.0 + lam)
    loss, ce_grad = _cross_entropy(plain, labels)

    def backward(g):
        grad = ce_grad(g)                    # G, once its target entries are scaled by q
        gt = grad[rows, labels]
        grad[rows, labels] = gt * q
        gx = grad @ w_hat.T + (gt * r / x_norms)[:, None] * xv
        g_what = xv.T @ grad
        proj = (w_hat * g_what).sum(axis=0)
        gw = (g_what - w_hat * proj[None, :]) / w_norms[None, :]
        return gx.astype(x_dtype, copy=False), gw.astype(w_dtype, copy=False)

    return Tensor(loss, parents=(x, w), backward=backward)

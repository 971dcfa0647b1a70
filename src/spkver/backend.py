"""Embedding scoring backends.

Cosine scoring, a learnable upper-triangular cosine transform trained with
a triplet ranking loss over hard-mined negatives, LDA, and a two-covariance
PLDA with closed-form likelihood-ratio scoring.

One scoring path serves trial lists and the validation pairs of
``all_pairs_eer``: ``scoring_rows`` preprocesses each utterance once (unit
rows for cosine, model ``None``; transformed unit rows for CSML; for PLDA,
length-norm, LDA and the basis that diagonalises both covariances), and
``score_pairs`` scores index pairs of those rows, one dot product each,
``SCORE_BLOCK`` trials at a time (O(block * d) memory).  One trial (x1, x2)
is ``score_pairs(model, scoring_rows(model, [x1, x2]), [0], [1])[0]``.  A
zero-norm embedding raises "degenerate embedding: zero norm".

CSML fitting builds each transform's rows (``_csml_rows``: the unit rows U and their
Gram matrix S = U Uᵀ) once: mining and the step's loss and gradient read them, and a
line-search probe that ``train_csml`` accepts hands its rows on to the next step.

Rows are grouped by speaker once, in ``_groups``.  ``held_out_split`` is the one
per-speaker held-out split: ``train_csml`` and ``training.train_extractor`` choose
what they return by the EER of its held-out rows.

``_sample_positions`` is the one sampler: the pairs of ``all_pairs_eer`` and the
triplets of ``mine_triplets`` are positions in rows of given lengths, all kept or a
sorted random choice of them, and only the kept ones are built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import formats as fm
from .metrics import ScoreSet, compute_eer

# Trials per block of ``score_pairs``: a block's two gathers (1 MB each at d = 512) stay in
# cache and reuse heap pages; at 4096 trials they were 16 MB, mapped and faulted in afresh.
SCORE_BLOCK = 256
CSML_VAL_TRIALS = 5000     # validation pairs per held-out EER of ``train_csml``
CSML_VAL_FRACTION = 0.25   # share of each speaker's rows ``train_csml`` holds out
CSML_STEPS = 4             # descent steps per mining epoch of ``train_csml``
CSML_DIAG_FLOOR = 1e-4     # smallest diagonal entry of a CSML descent step
MINE_BLOCK = 256           # anchors per block of ``mine_triplets``' hard-negative search
TRI_BLOCK = 64             # ``_tri_inv`` hands triangles of at most this many rows to LAPACK
NORM_FLOOR = 1e-12         # an embedding of a smaller norm is degenerate: it has no direction
SPREAD_FLOOR = 1e-10       # embeddings of a smaller ``spread`` are collapsed: all about equal


# ---------------------------------------------------------------------------
# speaker grouping and the held-out split


def _groups(labels):
    """Each row's speaker index (speakers in ``np.unique`` order), the speaker
    sizes, the rows in speaker order (a stable sort, so each speaker's rows keep
    index order) and each speaker's start in that order."""
    _, index, sizes = np.unique(labels, return_inverse=True, return_counts=True)
    return index, sizes, np.argsort(index, kind="stable"), np.cumsum(sizes) - sizes


def has_both_trial_kinds(labels) -> bool:
    """Whether the rows' pairs hold target and non-target trials: at least two
    speakers, one of them with two rows or more."""
    sizes = _groups(labels)[1]
    return sizes.size >= 2 and sizes.max() >= 2


def held_out_split(labels, fraction: float, rng=None):
    """Per-speaker held-out split: each speaker with n >= 2 rows holds out
    ``max(1, round(fraction * n))`` (none if ``fraction <= 0``), its first rows in
    index order or, with ``rng``, in the order of an ``rng.permutation(n)`` drawn for
    every speaker, in ``np.unique`` order.  Returns (training rows in index order,
    held-out rows speaker by speaker)."""
    _, sizes, order, starts = _groups(labels)
    held = [np.empty(0, dtype=np.intp)]
    for start, n in zip(starts, sizes):
        rows = order[start:start + n]
        if rng is not None:
            rows = rows[rng.permutation(n)]
        if n > 1 and fraction > 0:
            held.append(rows[:max(1, int(round(fraction * n)))])
    held = np.concatenate(held)
    return np.setdiff1d(np.arange(order.size), held), held


def _sample_positions(counts, limit: int, rng):
    """(row, offset in row) of the positions that rows of ``counts`` entries enumerate:
    all of them or, past ``limit``, a sorted ``rng.choice(total, limit, replace=False)``."""
    ends = np.cumsum(counts)
    total = int(ends[-1]) if ends.size else 0
    kept = (np.sort(rng.choice(total, size=limit, replace=False)) if total > limit
            else np.arange(total))
    row = np.searchsorted(ends, kept, side="right")
    return row, kept - (ends - counts)[row]


# ---------------------------------------------------------------------------
# learned-cosine scoring


@dataclass
class CsmlTransform:
    """Upper-triangular square transform with a strictly positive diagonal,
    which keeps A^T A positive-definite."""

    matrix: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.matrix, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("transform must be square")
        if np.any(np.tril(a, -1) != 0.0):
            raise ValueError("transform must be upper triangular")
        if np.any(np.diag(a) <= 0.0):
            raise ValueError("transform diagonal must be positive")
        self.matrix = a

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _transformed_unit_rows(a, embeddings):
    """(embeddings, norms, unit rows) of the embeddings under the matrix ``a``."""
    e = np.asarray(embeddings, dtype=np.float64)
    u = e @ a.T
    norms = np.linalg.norm(u, axis=1)
    if np.any(norms < NORM_FLOOR):
        raise ValueError("degenerate embedding: zero norm after transform")
    return e, norms, u / norms[:, None]


def _csml_rows(a, embeddings):
    """(embeddings, norms, unit rows U, Gram matrix S = U Uᵀ) under the matrix ``a``."""
    e, norms, u_hat = _transformed_unit_rows(a, embeddings)
    return e, norms, u_hat, u_hat @ u_hat.T


def triplet_loss_and_grad(rows, triplets, need_grad: bool = True):
    """Triplet ranking loss, the sum over triplets of log(1 + exp(-(s_ap - s_an)))
    under CSML scores, and its gradient w.r.t. the transform (None unless
    ``need_grad``).

    ``rows`` are one transform's ``_csml_rows``.  Every score a triplet reads is
    an entry of their Gram matrix S = U Uᵀ (the N x N matrix ``mine_triplets``
    reads too): the margin is d = S[a, p] - S[a, n].  The gradient sums dL/dd
    into G (+w at (a, p), -w at (a, n)) with one ``np.bincount``; dL/dU is
    (G + Gᵀ) U, each row projected onto its unit sphere's tangent space and
    divided by its norm before the product with the embeddings.  The gradient
    is masked to the upper triangle, matching the transform's free parameters.
    """
    trip = np.asarray(triplets, dtype=np.intp)
    if trip.size == 0:
        raise ValueError("no triplets")
    e, norms, u_hat, gram = rows
    n = len(u_hat)
    ai, pi, ni = trip[:, 0], trip[:, 1], trip[:, 2]
    d = gram[ai, pi] - gram[ai, ni]
    loss = float(np.logaddexp(0.0, -d).sum())
    if not need_grad:
        return loss, None

    # dL/dd per triplet; d is a difference of two cosines, so it lies in [-2, 2]
    # and exp(d) is finite
    w = -1.0 / (1.0 + np.exp(d))
    g = np.bincount(np.concatenate([ai * n + pi, ai * n + ni]), np.concatenate([w, -w]),
                    minlength=n * n).reshape(n, n)
    g += g.T
    gu = g @ u_hat
    gu = (gu - (gu * u_hat).sum(axis=1, keepdims=True) * u_hat) / norms[:, None]
    return loss, np.triu(gu.T @ e)


def mine_triplets(rows, labels, n_hard: int, max_triplets: int, rng) -> np.ndarray:
    """Build (anchor, positive, negative) index triplets as an (n, 3) array.

    ``rows`` are the current transform's ``_csml_rows``.  Every embedding with
    at least one same-label partner serves as an anchor; all its positives are
    used, and its negatives are the n_hard highest-scoring different-label
    embeddings under the transform (ties broken by index).  Rows run anchor by
    anchor, positive-major, with each positive's negatives in score order.

    With more rows than ``max_triplets``, ``_sample_positions`` draws the rows
    to keep from ``rng``, and only those are built, in row order.
    """
    group, sizes, members, starts = _groups(labels)
    n = group.size
    n_pos = sizes[group] - 1
    n_neg = np.minimum(n - sizes[group], n_hard)
    counts = n_pos * n_neg
    if not n_pos.any():
        raise ValueError("insufficient positives: no speaker has two embeddings")
    if not counts.any():
        raise ValueError("insufficient positives: need at least two speakers")
    anchors, offset = _sample_positions(counts, max_triplets, rng)

    # Each anchor's k hardest negatives in score order, ties to the lower index:
    # the entries at or above the row's k-th largest impostor score, sorted stably.
    k = int(n_neg.max())
    hard = np.empty((n, k), dtype=np.intp)
    for lo in range(0, n, MINE_BLOCK):
        neg = -rows[3][lo:lo + MINE_BLOCK]
        neg[group[lo:lo + MINE_BLOCK, None] == group] = np.inf    # same speaker: last
        r, c = np.nonzero(neg <= np.partition(neg, k - 1, axis=1)[:, k - 1:k])
        c = c[np.lexsort((neg[r, c], r))]                 # r stays sorted, ties keep c order
        hard[lo:lo + len(neg)] = c[np.arange(r.size) - np.searchsorted(r, r) < k].reshape(-1, k)

    positive, negative = np.divmod(offset, n_neg[anchors])
    start = starts[group[anchors]]                           # the anchor's speaker in members
    positive += positive >= np.argsort(members)[anchors] - start   # skip the anchor itself
    return np.column_stack([anchors, members[start + positive], hard[anchors, negative]])


def _project_upper(matrix: np.ndarray) -> np.ndarray:
    out = np.triu(matrix)
    np.fill_diagonal(out, np.maximum(np.diag(out), CSML_DIAG_FLOOR))
    return out


def train_csml(embeddings, labels, *, epochs: int, n_hard: int, max_triplets: int,
               seed: int) -> CsmlTransform:
    """Fit the upper-triangular cosine transform by triplet-loss descent.

    Starts from the identity; each of ``epochs`` epochs mines at most ``max_triplets``
    triplets with ``n_hard`` negatives each, then takes up to ``CSML_STEPS``
    backtracking full-batch gradient steps with the diagonal floored.  Returns the
    candidate (the identity start included) with the best EER on the rows that
    ``held_out_split`` draws from ``seed``'s generator, ``CSML_VAL_FRACTION`` of each
    speaker's; held-out or training rows that lack a trial kind fall back to all rows.
    """
    for name, value, least in (("epochs", epochs, 0), ("n_hard", n_hard, 1),
                               ("max_triplets", max_triplets, 1)):
        if value < least:
            raise ValueError(f"{name} must be at least {least}, got {value}")
    embeddings = np.asarray(embeddings, dtype=np.float64)
    labels = np.asarray(labels)
    rng = np.random.default_rng(seed)
    train_idx, val_idx = held_out_split(labels, CSML_VAL_FRACTION, rng)
    val_idx = np.sort(val_idx) if has_both_trial_kinds(labels[val_idx]) \
        else np.arange(len(labels))
    if not has_both_trial_kinds(labels[train_idx]):
        train_idx = np.arange(len(labels))

    def held_out_eer(a):
        return all_pairs_eer(CsmlTransform(a), embeddings[val_idx], labels[val_idx],
                             np.random.default_rng(seed + 1), CSML_VAL_TRIALS)

    a = np.eye(embeddings.shape[1])
    best = CsmlTransform(a.copy())
    best_eer = held_out_eer(a)

    train_emb, train_lab = embeddings[train_idx], labels[train_idx]
    n_hard = min(n_hard, train_idx.size - int(_groups(train_lab)[1].max()))
    rows = None                            # ``_csml_rows`` of ``a``, built once per transform
    for _ in range(epochs):
        rows = rows or _csml_rows(a, train_emb)
        triplets = mine_triplets(rows, train_lab, n_hard, max_triplets, rng)
        for _ in range(CSML_STEPS):
            loss, grad = triplet_loss_and_grad(rows, triplets)
            gnorm2 = float((grad ** 2).sum())
            if gnorm2 < 1e-18:
                break
            step = 1.0 / max(1.0, np.sqrt(gnorm2))
            for _ in range(30):
                cand = _project_upper(a - step * grad)
                cand_rows = _csml_rows(cand, train_emb)
                cand_loss, _ = triplet_loss_and_grad(cand_rows, triplets, need_grad=False)
                if cand_loss <= loss - 1e-4 * step * gnorm2:
                    a, rows = cand, cand_rows
                    break
                step *= 0.5
            else:
                break
        eer = held_out_eer(a)
        if eer <= best_eer:                # ties keep the most-trained candidate
            best_eer, best = eer, CsmlTransform(a.copy())
    return best


# ---------------------------------------------------------------------------
# LDA, PLDA


def length_normalize(embeddings) -> np.ndarray:
    e = np.asarray(embeddings, dtype=np.float64)
    norms = np.linalg.norm(e, axis=-1, keepdims=True)
    if np.any(norms < NORM_FLOOR):
        raise ValueError("degenerate embedding: zero norm")
    return e / norms


def spread(embeddings) -> float:
    """Mean squared distance of the length-normalised rows u_i from their
    mean: 0 when every row points the same way (a zero row counts as the
    origin).  Taken as mean |u_i|^2 - |mean u|^2 without forming u, so it is
    exact to about 1e-15, far below ``SPREAD_FLOOR``."""
    e = np.asarray(embeddings, dtype=np.float64)
    sq = np.einsum("ij,ij->i", e, e)
    w = 1.0 / np.maximum(np.sqrt(sq), NORM_FLOOR)
    mean = (w @ e) / len(e)
    return max(0.0, float(np.mean(sq * w * w) - mean @ mean))


def _scatter_matrices(embeddings, labels):
    """Within- and between-class scatter divided by the row count, the global
    mean, the class sizes and the class means (classes in ``np.unique`` order;
    the means from one ``np.add.reduceat`` over the rows sorted by class)."""
    e = np.asarray(embeddings, dtype=np.float64)
    index, counts, order, starts = _groups(labels)
    means = np.add.reduceat(e[order], starts, axis=0) / counts[:, None]
    n = e.shape[0]
    mean = e.mean(axis=0)
    centered = e - means[index]
    diff = means - mean
    return centered.T @ centered / n, (counts[:, None] * diff).T @ diff / n, mean, counts, means


def _ridge(matrix: np.ndarray, rel: float = 1e-6) -> np.ndarray:
    d = matrix.shape[0]
    return matrix + (rel * np.trace(matrix) / d + 1e-12) * np.eye(d)


def _tri_inv(lower: np.ndarray) -> np.ndarray:
    """Inverse of a lower-triangular matrix by 2x2 block recursion,
    [[A, 0], [B, C]]^-1 = [[A^-1, 0], [-C^-1 B A^-1, C^-1]]: one pair of GEMMs
    per level, ``np.linalg.inv`` on blocks of at most ``TRI_BLOCK`` rows."""
    n = lower.shape[0]
    if n <= TRI_BLOCK:
        return np.tril(np.linalg.inv(lower))
    h = n // 2
    a_inv, c_inv = _tri_inv(lower[:h, :h]), _tri_inv(lower[h:, h:])
    out = np.zeros_like(lower)
    out[:h, :h], out[h:, h:] = a_inv, c_inv
    out[h:, :h] = -c_inv @ (lower[h:, :h] @ a_inv)
    return out


def _generalized_eigh(a: np.ndarray, chol_b: np.ndarray, top: int | None = None):
    """Ascending eigenvalues w and eigenvectors V of a v = w b v, given the
    Cholesky factor L of b (b = L L^T): with (w, U) the eigenpairs of
    L^-1 a L^-T, V = L^-T U, so that V^T b V = I and V^T a V = diag(w).
    ``top``: only the pairs of the ``top`` largest eigenvalues, descending."""
    l_inv = _tri_inv(chol_b)
    w, u = np.linalg.eigh(l_inv @ a @ l_inv.T)
    if top is not None:
        w, u = w[::-1][:top], u[:, ::-1][:, :top]
    return w, l_inv.T @ u


@dataclass
class LdaProjection:
    """Rows are generalized eigenvectors ordered by decreasing eigenvalue."""

    matrix: np.ndarray
    eigenvalues: np.ndarray

    @property
    def out_dim(self) -> int:
        return self.matrix.shape[0]


def lda_fit(embeddings, labels, out_dim: int) -> LdaProjection:
    """Projection maximizing between-class over within-class scatter."""
    s_w, s_b, _, counts, _ = _scatter_matrices(embeddings, labels)
    if counts.size < 2:
        raise ValueError("need at least 2 classes")
    d = s_w.shape[0]
    if not 0 < out_dim <= d:
        raise ValueError(f"out_dim must be in [1, {d}]")
    try:
        chol = np.linalg.cholesky(s_w)
    except np.linalg.LinAlgError:
        chol = np.linalg.cholesky(_ridge(s_w))
    vals, vecs = _generalized_eigh(s_b, chol, top=out_dim)
    return LdaProjection(vecs.T.copy(), vals.copy())


def lda_project(projection: LdaProjection, x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64) @ projection.matrix.T


@dataclass
class PldaModel:
    """Two-covariance generative model with optional preprocessing.

    A speaker's latent mean is Gaussian around ``mean`` with covariance
    ``between``; observations scatter around it with covariance ``within``.
    """

    mean: np.ndarray
    between: np.ndarray
    within: np.ndarray
    lda: LdaProjection | None = None
    length_norm: bool = True


def plda_preprocess(model: PldaModel, x) -> np.ndarray:
    e = np.asarray(x, dtype=np.float64)
    if model.length_norm:
        e = length_normalize(e)
    if model.lda is not None:
        e = lda_project(model.lda, e)
    return e


def plda_fit(embeddings, labels, n_iter: int, lda_dim: int | None = None,
             length_norm: bool = True) -> PldaModel:
    """Fit the two-covariance model by EM over per-speaker latent means.

    The E-step puts every speaker's posterior mean in one row of a (K, d)
    matrix.  A speaker's posterior covariance depends only on its number of
    samples, so it is inverted once per distinct class size.  The M-step sums
    are matrix products over those rows plus the within-class scatter of the
    data, which EM leaves unchanged.
    """
    if n_iter < 0:
        raise ValueError(f"n_iter must be at least 0, got {n_iter}")
    e = np.asarray(embeddings, dtype=np.float64)
    labels = np.asarray(labels)
    if not has_both_trial_kinds(labels):
        raise ValueError("need at least 2 classes with 2 samples each")

    lda = None
    if length_norm:
        e = length_normalize(e)
    if lda_dim is not None:
        lda = lda_fit(e, labels, lda_dim)
        e = lda_project(lda, e)

    n_total, d = e.shape
    s_w, s_b, mean, counts, means = _scatter_matrices(e, labels)
    scatter = n_total * s_w                        # sum of the per-class scatters
    size_index, n_of_size, by_size, size_starts = _groups(counts)
    sizes = counts[by_size[size_starts]]           # the distinct class sizes, ascending
    between = _ridge(s_b)
    within = _ridge(s_w)

    for _ in range(n_iter):
        b_inv = np.linalg.inv(between)
        w_inv = np.linalg.inv(within)
        rhs = b_inv @ mean + counts[:, None] * (means @ w_inv.T)
        y = np.empty_like(means)
        cov_b = np.zeros((d, d))                   # sum over speakers of cov_k
        cov_w = np.zeros((d, d))                   # sum over speakers of n_k cov_k
        for j, n_k in enumerate(sizes):
            cov = np.linalg.inv(b_inv + n_k * w_inv)
            rows = size_index == j
            y[rows] = rhs[rows] @ cov.T
            cov_b += n_of_size[j] * cov
            cov_w += n_of_size[j] * n_k * cov
        mean = y.mean(axis=0)
        diff = y - mean
        resid = means - y
        sum_b = cov_b + diff.T @ diff
        sum_w = scatter + cov_w + (counts[:, None] * resid).T @ resid
        between = _ridge((sum_b + sum_b.T) / (2 * counts.size), rel=1e-10)
        within = _ridge((sum_w + sum_w.T) / (2 * n_total), rel=1e-10)

    return PldaModel(mean, between, within, lda=lda, length_norm=length_norm)


def _gaussian_logpdf(x_centered: np.ndarray, chol_lower: np.ndarray) -> np.ndarray:
    solved = np.linalg.solve(chol_lower, x_centered.T)
    logdet = 2.0 * np.log(np.diag(chol_lower)).sum()
    k = chol_lower.shape[0]
    return -0.5 * ((solved ** 2).sum(axis=0) + logdet + k * np.log(2.0 * np.pi))


def plda_score_many(model: PldaModel, enroll, test) -> np.ndarray:
    """LLR log p(pair | same) - log p(pair | different) of the preprocessed pairs,
    the reference for ``score_pairs``."""
    u1, u2 = (plda_preprocess(model, np.atleast_2d(e)) - model.mean for e in (enroll, test))
    total = model.between + model.within
    joint = np.block([[total, model.between], [model.between, total]])
    chol_total = np.linalg.cholesky(total)
    chol_joint = np.linalg.cholesky(joint)
    ll_same = _gaussian_logpdf(np.hstack([u1, u2]), chol_joint)
    ll_diff = _gaussian_logpdf(u1, chol_total) + _gaussian_logpdf(u2, chol_total)
    return ll_same - ll_diff


# ---------------------------------------------------------------------------
# the one scoring path


def scoring_rows(model, embeddings) -> np.ndarray:
    """Rows for ``score_pairs``; ``model``: None (cosine), CSML transform or PLDA.
    PLDA rows are u sqrt(psi / (2 psi + 1)) and a last column, the utterance's own
    LLR term, where u = (x - mean) V, V^T within V = I, V^T between V = diag(psi)."""
    e = np.atleast_2d(np.asarray(embeddings, dtype=np.float64))
    if model is None:
        return length_normalize(e)
    if isinstance(model, CsmlTransform):
        width = model.dim
    elif isinstance(model, PldaModel):
        width = model.mean.size if model.lda is None else model.lda.matrix.shape[1]
    else:
        raise TypeError(f"scoring model must be None, a CsmlTransform or a PldaModel, "
                        f"not {type(model).__name__}")
    if e.shape[1] != width:
        raise ValueError(f"model input width {width} differs from embedding width {e.shape[1]}")
    if isinstance(model, CsmlTransform):
        return _transformed_unit_rows(model.matrix, e)[2]
    psi, v = _generalized_eigh(model.between, np.linalg.cholesky(model.within))
    if np.any(psi < 0):
        raise ValueError("PLDA between covariance has a negative generalized eigenvalue")
    u = (plda_preprocess(model, e) - model.mean) @ v
    q = (-0.5 * psi ** 2 / ((psi + 1) * (2 * psi + 1)) * u ** 2).sum(axis=1) \
        + 0.25 * np.log((psi + 1) ** 2 / (2 * psi + 1)).sum()
    return np.column_stack([u * np.sqrt(psi / (2 * psi + 1)), q])


def score_pairs(model, rows, enroll_idx, test_idx) -> np.ndarray:
    """Scores of the trials (rows[enroll_idx[k]], rows[test_idx[k]]) of ``scoring_rows``:
    row-wise dots, for PLDA of all but the last column plus both last columns."""
    enroll_idx, test_idx = np.asarray(enroll_idx), np.asarray(test_idx)
    out = np.empty(enroll_idx.size)
    for lo in range(0, out.size, SCORE_BLOCK):
        block = slice(lo, lo + SCORE_BLOCK)
        r1, r2 = rows[enroll_idx[block]], rows[test_idx[block]]
        out[block] = ((r1[:, :-1] * r2[:, :-1]).sum(axis=1) + (r1[:, -1] + r2[:, -1])
                      if isinstance(model, PldaModel) else (r1 * r2).sum(axis=1))
    return out


def all_pairs_eer(model, embeddings, labels, rng, max_trials: int) -> float:
    """EER over the row pairs i < j (row-major), at most ``max_trials`` of them
    kept by ``_sample_positions``: row i holds the pairs (i, i + 1), ..., so only
    the kept pairs are ever built."""
    labels = np.asarray(labels)
    i, offset = _sample_positions(np.arange(labels.size - 1, 0, -1), max_trials, rng)
    j = i + 1 + offset
    scores = score_pairs(model, scoring_rows(model, embeddings), i, j)
    return compute_eer(ScoreSet(labels[i] == labels[j], scores))


def save_backend(path, model) -> None:
    """Write a CSML transform or a ``PldaModel`` as a float64 archive."""
    if isinstance(model, CsmlTransform):
        arrays, meta = {"transform": model.matrix}, {"kind": "csml"}
    else:
        arrays = {"mean": model.mean, "between": model.between, "within": model.within}
        if model.lda is not None:
            arrays.update(lda=model.lda.matrix, lda_eigenvalues=model.lda.eigenvalues)
        meta = {"kind": "plda", "length_norm": model.length_norm,
                "lda_dim": model.lda.out_dim if model.lda else None}
    fm.write_archive(path, arrays, meta, dtype="f8")


def load_backend(path, kind: str):
    """Read the ``save_backend`` file of ``kind`` "csml" or "plda".

    Raises ValueError naming the file when its kind differs or an array or
    metadata key the kind needs is missing, the key too when a PLDA file's
    ``length_norm`` is not a bool, and the array too when a PLDA array is
    mis-shaped, not finite, not symmetric or not (semi)definite.
    """
    arrays, meta = fm.read_archive(path, dtype=np.float64)
    what = "cosine transform" if kind == "csml" else "PLDA model"
    if meta is None or meta.get("kind") != kind:
        raise ValueError(f"{path}: not a {what} file")
    need = ["transform"] if kind == "csml" else ["mean", "between", "within"]
    if "lda" in arrays:
        need.append("lda_eigenvalues")
    missing = [name for name in need if name not in arrays]
    if missing:
        raise ValueError(f"{path}: {what} file lacks array(s) {', '.join(missing)}")
    if kind == "csml":
        if not np.isfinite(arrays["transform"]).all():
            raise ValueError(f"{path}: array transform must be finite")
        try:
            return CsmlTransform(arrays["transform"])
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc
    if "length_norm" not in meta:
        raise ValueError(f"{path}: {what} file lacks metadata key length_norm")
    if not isinstance(meta["length_norm"], bool):
        raise ValueError(f"{path}: metadata key length_norm holds {meta['length_norm']!r}, "
                         f"not true or false")
    d = (arrays["within"].shape or (0,))[0]
    shapes = {"mean": (d,), "between": (d, d), "within": (d, d)}
    if "lda" in arrays:
        shapes.update(lda=(d, *arrays["lda"].shape[-1:]), lda_eigenvalues=(d,))
    for name, shape in shapes.items():
        if arrays[name].shape != shape or not np.all(np.isfinite(arrays[name])):
            raise ValueError(f"{path}: array {name} must be finite, of shape {shape}")
    for name, a in (("within", arrays["within"]), ("between", arrays["between"])):
        if np.abs(a - a.T).max(initial=0.0) > 1e-10 * np.abs(a).max(initial=0.0):
            raise ValueError(f"{path}: array {name} is not symmetric")
        try:
            np.linalg.cholesky(a)
        except np.linalg.LinAlgError:   # a singular between is allowed, an indefinite one not
            if name == "within" or np.linalg.eigvalsh(a)[0] < 0:
                raise ValueError(f"{path}: array {name} is not positive "
                                 f"{'' if name == 'within' else 'semi-'}definite") from None
    lda = LdaProjection(arrays["lda"], arrays["lda_eigenvalues"]) if "lda" in arrays else None
    return PldaModel(arrays["mean"], arrays["between"], arrays["within"],
                     lda=lda, length_norm=meta["length_norm"])

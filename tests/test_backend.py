"""Backend contracts: scoring identities, triplet-loss oracles and
gradients, mining against a full-sort oracle, the shared validation pair
sampler, LDA/PLDA oracles, LDA against scipy's generalized ``eigh`` on each
of its decompositions, the array scatter and PLDA EM against
per-speaker loop oracles, PLDA scoring in diagonal form against the
joint-Gaussian reference ``plda_score_many``, and the numpy linear algebra
(generalized eigenproblem, triangular inverse) against scipy."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh
from scipy.stats import multivariate_normal

from spkver import backend as bk
from spkver.backend import (CsmlTransform, LdaProjection, PldaModel, lda_fit, lda_project,
                            mine_triplets, plda_fit, train_csml, triplet_loss_and_grad)
from spkver.metrics import ScoreSet, Trial, compute_eer


def score(model, x1, x2):
    """One trial's score through the path ``spkver score`` takes."""
    return float(bk.score_pairs(model, bk.scoring_rows(model, [x1, x2]), [0], [1])[0])


# ---------------------------------------------------------------------------
# cosine


def test_cosine_basics():
    x = np.array([3.0, -1.0, 2.0])
    assert score(None, x, x) == pytest.approx(1.0)
    assert score(None, x, -x) == pytest.approx(-1.0)
    assert score(None, [1.0, 0.0], [1.0, 1.0]) == pytest.approx(1 / np.sqrt(2))
    with pytest.raises(ValueError, match="degenerate embedding"):
        score(None, np.zeros(3), x)


# ---------------------------------------------------------------------------
# csml


def test_csml_transform_validation():
    with pytest.raises(ValueError, match="upper triangular"):
        CsmlTransform(np.array([[1.0, 0.0], [0.5, 1.0]]))
    with pytest.raises(ValueError, match="diagonal must be positive"):
        CsmlTransform(np.array([[1.0, 2.0], [0.0, 0.0]]))
    t = CsmlTransform(np.eye(4))
    assert t.dim == 4


def test_csml_identity_and_scale_equal_cosine():
    rng = np.random.default_rng(0)
    x1, x2 = rng.standard_normal(6), rng.standard_normal(6)
    eye = CsmlTransform(np.eye(6))
    assert score(eye, x1, x2) == score(None, x1, x2)
    doubled = CsmlTransform(2.0 * np.eye(6))
    assert score(doubled, x1, x2) == pytest.approx(score(None, x1, x2), abs=1e-12)


def test_csml_matches_direct_formula_oracle():
    rng = np.random.default_rng(1)
    a = np.triu(rng.standard_normal((5, 5)))
    np.fill_diagonal(a, np.abs(np.diag(a)) + 0.5)
    x1, x2 = rng.standard_normal(5), rng.standard_normal(5)
    u, v = a @ x1, a @ x2
    direct = (u @ v) / (np.linalg.norm(u) * np.linalg.norm(v))
    assert score(CsmlTransform(a), x1, x2) == pytest.approx(direct, abs=1e-12)


def test_csml_symmetric():
    rng = np.random.default_rng(2)
    a = CsmlTransform(np.triu(rng.standard_normal((4, 4))) + 3 * np.eye(4))
    x1, x2 = rng.standard_normal(4), rng.standard_normal(4)
    assert score(a, x1, x2) == pytest.approx(score(a, x2, x1), abs=1e-15)


@settings(max_examples=40, deadline=None)
@given(st.floats(1e-3, 1e3), st.integers(0, 2 ** 32 - 1))
def test_csml_positive_scale_invariance(c, seed):
    rng = np.random.default_rng(seed)
    a = np.triu(rng.standard_normal((4, 4)))
    np.fill_diagonal(a, np.abs(np.diag(a)) + 0.1)
    x1, x2 = rng.standard_normal(4), rng.standard_normal(4)
    assert score(CsmlTransform(a), x1, x2) == pytest.approx(
        score(CsmlTransform(c * a), x1, x2), abs=1e-9)


# ---------------------------------------------------------------------------
# triplet loss


def test_triplet_loss_symmetric_case():
    rng = np.random.default_rng(3)
    emb = rng.standard_normal((4, 5))
    emb[3] = emb[2]                      # negative equals the positive: d = 0
    triplets = [(0, 2, 3), (1, 2, 3)]
    loss = triplet_loss_and_grad(bk._csml_rows(np.eye(5), emb), triplets, need_grad=False)[0]
    assert loss == pytest.approx(len(triplets) * np.log(2.0), abs=1e-12)


def test_triplet_loss_saturates_to_zero():
    emb = np.array([[1.0, 0.0], [1.0, 1e-3], [-1.0, 0.0]])
    scale_up = np.eye(2)
    loss = triplet_loss_and_grad(bk._csml_rows(scale_up, 1e3 * emb), [(0, 1, 2)],
                                 need_grad=False)[0]
    assert loss < np.log(1 + np.exp(-1.9))


def test_triplet_loss_matches_direct_summation_oracle():
    rng = np.random.default_rng(4)
    emb = rng.standard_normal((8, 6))
    a = np.triu(rng.standard_normal((6, 6)))
    np.fill_diagonal(a, np.abs(np.diag(a)) + 0.5)
    transform = CsmlTransform(a)
    triplets = [(0, 1, 2), (3, 4, 5), (6, 7, 0), (2, 3, 4), (5, 6, 7)]
    direct = 0.0
    for anc, pos, neg in triplets:
        d = (score(transform, emb[anc], emb[pos])
             - score(transform, emb[anc], emb[neg]))
        direct += np.log(1 + np.exp(-d))
    loss = triplet_loss_and_grad(bk._csml_rows(a, emb), triplets, need_grad=False)[0]
    assert loss == pytest.approx(direct, abs=1e-12)


def test_triplet_loss_gradient_matches_finite_differences():
    rng = np.random.default_rng(5)
    emb = rng.standard_normal((8, 5))
    a = np.triu(rng.standard_normal((5, 5)))
    np.fill_diagonal(a, np.abs(np.diag(a)) + 0.8)
    triplets = [(0, 1, 2), (3, 4, 5), (6, 7, 1), (2, 0, 6), (4, 3, 7)]
    _, grad = triplet_loss_and_grad(bk._csml_rows(a, emb), triplets)
    assert np.all(np.tril(grad, -1) == 0.0)
    eps = 1e-6
    for i in range(5):
        for j in range(i, 5):
            probe = a.copy()
            probe[i, j] += eps
            up = triplet_loss_and_grad(bk._csml_rows(probe, emb), triplets, need_grad=False)[0]
            probe[i, j] -= 2 * eps
            down = triplet_loss_and_grad(bk._csml_rows(probe, emb), triplets, need_grad=False)[0]
            fd = (up - down) / (2 * eps)
            assert abs(fd - grad[i, j]) / max(abs(fd), abs(grad[i, j]), 1e-6) < 1e-4


def gathered_loss_and_grad(a, emb, triplets):
    """Per-triplet reference: gather the anchor, positive and negative unit
    rows, score each pair by a row-wise dot and scatter each pair's gradient
    back to both rows with ``np.add.at``."""
    e = np.asarray(emb, dtype=np.float64)
    u = e @ a.T
    norms = np.linalg.norm(u, axis=1)
    u_hat = u / norms[:, None]
    ai, pi, ni = np.asarray(triplets).T
    s_ap = (u_hat[ai] * u_hat[pi]).sum(axis=1)
    s_an = (u_hat[ai] * u_hat[ni]).sum(axis=1)
    d = s_ap - s_an
    w = -1.0 / (1.0 + np.exp(d))
    gu = np.zeros_like(u)

    def pair_grad(i, j, coef, s):
        # d s(u_i, u_j) / d u_i = (u_hat_j - s * u_hat_i) / ||u_i||
        np.add.at(gu, i, coef[:, None] * (u_hat[j] - s[:, None] * u_hat[i]) / norms[i][:, None])
        np.add.at(gu, j, coef[:, None] * (u_hat[i] - s[:, None] * u_hat[j]) / norms[j][:, None])

    pair_grad(ai, pi, w, s_ap)
    pair_grad(ai, ni, -w, s_an)
    return float(np.logaddexp(0.0, -d).sum()), np.triu(gu.T @ e)


@pytest.mark.parametrize("seed", range(4))
def test_triplet_loss_and_grad_match_gathered_reference(seed):
    """The Gram-form loss and gradient equal the per-triplet gather/scatter
    form to 1e-12 relative, with duplicate triplets, repeated anchors and
    rows where p == n, a == p or a == n."""
    rng = np.random.default_rng(seed)
    n, dim = 12, 7
    emb = rng.standard_normal((n, dim))
    a = np.triu(rng.standard_normal((dim, dim)))
    np.fill_diagonal(a, np.abs(np.diag(a)) + 0.3)
    triplets = rng.integers(0, n, size=(60, 3))
    triplets[:8, 0] = 3                                  # repeated anchor
    special = [(1, 2, 2), (4, 4, 5), (6, 7, 6), (8, 8, 8), (0, 1, 2), (0, 1, 2)]
    triplets = np.concatenate([triplets, special, triplets[:10]])   # duplicates
    loss, grad = triplet_loss_and_grad(bk._csml_rows(a, emb), triplets)
    ref_loss, ref_grad = gathered_loss_and_grad(a, emb, triplets)
    assert loss == pytest.approx(ref_loss, rel=1e-12, abs=0.0)
    assert np.abs(grad - ref_grad).max() <= 1e-12 * np.abs(ref_grad).max()
    assert triplet_loss_and_grad(bk._csml_rows(a, emb), triplets, need_grad=False)[0] == loss


def test_triplet_loss_strictly_decreasing_in_margin():
    emb = np.array([[1.0, 0.0], [0.9, 0.1], [0.0, 1.0], [0.3, 0.9]])
    eye = np.eye(2)
    closer_neg = triplet_loss_and_grad(bk._csml_rows(eye, emb), [(0, 1, 3)], need_grad=False)[0]
    farther_neg = triplet_loss_and_grad(bk._csml_rows(eye, emb), [(0, 1, 2)], need_grad=False)[0]
    assert farther_neg < closer_neg


def test_triplet_loss_empty_rejected():
    with pytest.raises(ValueError, match="no triplets"):
        triplet_loss_and_grad(bk._csml_rows(np.eye(2), np.ones((2, 2))), [], need_grad=False)


# ---------------------------------------------------------------------------
# mining


def mine(emb, labels, a, n_hard, max_triplets=None, rng=None):
    """``mine_triplets`` on the rows of transform ``a``; ``max_triplets`` None
    passes a cap of 10**9, above every row count here, so every row is kept."""
    return mine_triplets(bk._csml_rows(a, emb), labels, n_hard,
                         10**9 if max_triplets is None else max_triplets, rng)


def loop_mine_triplets(embeddings, labels, a, n_hard, max_triplets=None, rng=None):
    """Anchor-by-anchor reference: each anchor's impostors by a stable argsort
    of its negated score row, its positives by a label comparison."""
    labels = np.asarray(labels)
    u_hat = bk._transformed_unit_rows(a, embeddings)[2]
    scores = u_hat @ u_hat.T
    n = len(labels)
    _, group, sizes = np.unique(labels, return_inverse=True, return_counts=True)
    counts = (sizes[group] - 1) * np.minimum(n - sizes[group], n_hard)
    total = int(counts.sum())
    if max_triplets is not None and total > max_triplets:
        rows = np.sort(rng.choice(total, size=max_triplets, replace=False))
    else:
        rows = np.arange(total)
    ends = np.cumsum(counts)
    anchors = np.searchsorted(ends, rows, side="right")
    local = rows - (ends - counts)[anchors]
    bounds = np.searchsorted(anchors, np.arange(n + 1))
    triplets = np.empty((rows.size, 3), dtype=np.intp)
    triplets[:, 0] = anchors
    for i in np.flatnonzero(np.diff(bounds)):
        same = labels == labels[i]
        positives = np.flatnonzero(same & (np.arange(n) != i))
        negatives = np.flatnonzero(~same)
        hard = negatives[np.argsort(-scores[i, negatives], kind="stable")][:n_hard]
        kept = slice(bounds[i], bounds[i + 1])
        triplets[kept, 1] = positives[local[kept] // hard.size]
        triplets[kept, 2] = hard[local[kept] % hard.size]
    return triplets


def quantised_embeddings(seed, n=40, dim=3):
    """Embeddings on a coarse grid, so that many impostor scores tie exactly,
    and uneven speakers: 12, 9, 7, 5, 4 and 2 rows, plus one without a partner."""
    rng = np.random.default_rng(seed)
    emb = rng.integers(-1, 2, size=(n, dim)).astype(np.float64)
    emb[np.all(emb == 0, axis=1)] = 1.0
    labels = np.repeat(np.arange(7), [12, 9, 7, 5, 4, 2, 1])[rng.permutation(n)]
    return emb, labels


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("n_hard", [1, 3, 28, 35, 39, 500],
                         ids=["1", "3", "28-fewest", "35-some", "39-most", "500-above"])
@pytest.mark.parametrize("max_triplets", [None, 1, 300, 10**6])
def test_mine_triplets_equals_per_anchor_loop_on_ties(seed, n_hard, max_triplets):
    """Bit-exact against the per-anchor loop on tie-heavy scores, with n_hard
    below, at and above the impostor counts (28 for the largest speaker, 39 for
    the one without a partner) and with and without a drawn subsample."""
    emb, labels = quantised_embeddings(seed)
    transform = np.triu(np.random.default_rng(seed).integers(0, 2, (3, 3))) + np.eye(3)
    u_hat = bk._transformed_unit_rows(transform, emb)[2]
    assert np.unique(u_hat @ u_hat.T).size < 100     # of 1,600 scores: exact ties galore
    reference, drawing = np.random.default_rng(seed), np.random.default_rng(seed)
    expected = loop_mine_triplets(emb, labels, transform, n_hard, max_triplets, reference)
    got = mine(emb, labels, transform, n_hard=n_hard, max_triplets=max_triplets, rng=drawing)
    assert got.dtype == expected.dtype and got.flags.c_contiguous
    assert np.array_equal(got, expected)
    assert drawing.bit_generator.state == reference.bit_generator.state


def test_mine_triplets_in_blocks_equals_one_block(monkeypatch):
    emb, labels = quantised_embeddings(3)
    eye = np.eye(3)
    whole = mine(emb, labels, eye, n_hard=6)
    monkeypatch.setattr(bk, "MINE_BLOCK", 7)          # 40 anchors: 5 full blocks and 5
    assert np.array_equal(mine(emb, labels, eye, n_hard=6), whole)


def test_mine_triplets_small_exhaustive():
    emb = np.array([[1.0, 0.0], [0.9, 0.1], [0.0, 1.0], [0.1, 0.9]])
    labels = np.array(["a", "a", "b", "b"])
    got = set(map(tuple, mine(emb, labels, np.eye(2), n_hard=2).tolist()))
    expected = set()
    for i in range(4):
        for p in range(4):
            for n in range(4):
                if p != i and labels[p] == labels[i] and labels[n] != labels[i]:
                    expected.add((i, p, n))
    assert got == expected
    assert len(expected) == 8            # 4 per speaker


def test_mine_triplets_hardest_is_argmax():
    rng = np.random.default_rng(6)
    emb = rng.standard_normal((10, 4))
    labels = np.array([0] * 5 + [1] * 5)
    eye = np.eye(4)
    triplets = mine(emb, labels, eye, n_hard=1)
    u = emb / np.linalg.norm(emb, axis=1, keepdims=True)
    s = u @ u.T
    for anchor in range(10):
        negs = {n for a, _, n in triplets if a == anchor}
        impostors = [j for j in range(10) if labels[j] != labels[anchor]]
        assert negs == {max(impostors, key=lambda j: s[anchor, j])}


def test_mine_triplets_matches_full_sort_oracle():
    rng = np.random.default_rng(7)
    emb = rng.standard_normal((30, 6))
    labels = rng.integers(0, 5, size=30)
    while np.unique(labels).size < 2 or not np.any(np.bincount(labels) >= 2):
        labels = rng.integers(0, 5, size=30)
    a = np.triu(rng.standard_normal((6, 6)))
    np.fill_diagonal(a, np.abs(np.diag(a)) + 0.5)
    transform = CsmlTransform(a)
    n_hard = 7
    triplets = mine(emb, labels, a, n_hard=n_hard)
    for anchor in range(30):
        mined = sorted({n for aa, _, n in triplets if aa == anchor})
        if not mined:
            continue
        scores = np.array([score(transform, emb[anchor], emb[j])
                           for j in range(30)])
        impostors = [j for j in range(30) if labels[j] != labels[anchor]]
        ranked = sorted(impostors, key=lambda j: (-scores[j], j))[:n_hard]
        assert mined == sorted(ranked)


def test_mine_triplets_permutation_invariant_as_set():
    rng = np.random.default_rng(8)
    emb = rng.standard_normal((8, 3))
    labels = np.array([0, 0, 0, 1, 1, 2, 2, 2])
    eye = np.eye(3)
    base = {(tuple(emb[a]), tuple(emb[p]), tuple(emb[n]))
            for a, p, n in mine(emb, labels, eye, n_hard=4)}
    perm = rng.permutation(8)
    emb2, labels2 = emb[perm], labels[perm]
    other = {(tuple(emb2[a]), tuple(emb2[p]), tuple(emb2[n]))
             for a, p, n in mine(emb2, labels2, eye, n_hard=4)}
    assert base == other


def test_mine_triplets_rows_in_loop_order():
    """Anchor by anchor, positive-major, negatives in score order: the order
    ``train_csml`` subsamples from."""
    rng = np.random.default_rng(24)
    emb = rng.standard_normal((14, 3))
    labels = np.array([2, 0, 1, 0, 2, 3, 0, 1, 4, 2, 0, 1, 3, 0])   # speaker 4 has no partner
    got = mine(emb, labels, np.eye(3), n_hard=4)
    u = emb / np.linalg.norm(emb, axis=1, keepdims=True)
    expected = []
    for i in range(14):
        positives = [p for p in range(14) if p != i and labels[p] == labels[i]]
        negatives = sorted((n for n in range(14) if labels[n] != labels[i]),
                           key=lambda n: (-(u[i] @ u[n]), n))[:4]
        expected += [(i, p, n) for p in positives for n in negatives]
    assert got.shape == (len(expected), 3) and got.dtype.kind == "i"
    assert got.tolist() == [list(t) for t in expected]


@pytest.mark.parametrize("max_triplets", [1, 37, 250, 10_000])
def test_mine_triplets_subsample_builds_only_the_drawn_rows(max_triplets):
    """With ``max_triplets`` the rows are exactly ``full[np.sort(keep)]`` for
    the draw ``train_csml`` made over the full array, and the generator is
    left in the same state; no draw is made when every row fits."""
    rng = np.random.default_rng(25)
    emb = rng.standard_normal((23, 4))
    # uneven speakers, one without a partner, and n_hard above some anchors'
    # impostor counts, so the per-anchor row counts differ
    labels = np.array([0] * 9 + [1] * 6 + [2] * 4 + [3] * 3 + [4])
    a = np.triu(rng.standard_normal((4, 4)))
    np.fill_diagonal(a, np.abs(np.diag(a)) + 0.5)
    n_hard = 15
    full = mine(emb, labels, a, n_hard=n_hard)
    reference, drawing = np.random.default_rng(9), np.random.default_rng(9)
    if len(full) > max_triplets:
        expected = full[np.sort(reference.choice(len(full), size=max_triplets, replace=False))]
    else:
        expected = full
    got = mine(emb, labels, a, n_hard=n_hard, max_triplets=max_triplets, rng=drawing)
    assert got.dtype == full.dtype
    assert np.array_equal(got, expected)
    assert drawing.bit_generator.state == reference.bit_generator.state


def test_mine_triplets_insufficient_positives():
    emb = np.eye(3)
    with pytest.raises(ValueError, match="insufficient positives"):
        mine(emb, np.array([0, 1, 2]), np.eye(3), n_hard=1)


# ---------------------------------------------------------------------------
# csml training


def clustered_embeddings(rng, n_spk, per_spk, dim, spread=0.15, scale=2.0):
    centers = scale * rng.standard_normal((n_spk, dim))
    emb, labels = [], []
    for s in range(n_spk):
        emb.append(centers[s] + spread * rng.standard_normal((per_spk, dim)))
        labels += [s] * per_spk
    return np.concatenate(emb), np.array(labels)


def test_train_csml_zero_epochs_returns_identity():
    rng = np.random.default_rng(9)
    emb, labels = clustered_embeddings(rng, 4, 4, 5)
    out = train_csml(emb, labels, epochs=0, n_hard=1500, max_triplets=100_000, seed=1)
    assert np.array_equal(out.matrix, np.eye(5))


def test_train_csml_descends_on_separable_data():
    rng = np.random.default_rng(10)
    emb, labels = clustered_embeddings(rng, 2, 6, 4, spread=0.6, scale=1.0)
    trained = train_csml(emb, labels, epochs=5, n_hard=10, max_triplets=100_000, seed=2)
    triplets = mine(emb, labels, np.eye(4), n_hard=10)
    before = triplet_loss_and_grad(bk._csml_rows(np.eye(4), emb), triplets, need_grad=False)[0]
    after = triplet_loss_and_grad(bk._csml_rows(trained.matrix, emb), triplets, need_grad=False)[0]
    assert after < before
    assert np.all(np.diag(trained.matrix) >= 1e-4)
    assert np.all(np.tril(trained.matrix, -1) == 0.0)


def test_train_csml_validation_eer_never_worse_than_identity():
    rng = np.random.default_rng(11)
    emb, labels = clustered_embeddings(rng, 10, 6, 8, spread=0.8, scale=1.0)
    for seed in (0, 1, 2):
        trained = train_csml(emb, labels, epochs=4, n_hard=30, max_triplets=100_000, seed=seed)
        eer_eye, eer_fit = (bk.all_pairs_eer(model, emb, labels, np.random.default_rng(seed),
                                             bk.CSML_VAL_TRIALS)
                            for model in (CsmlTransform(np.eye(8)), trained))
        assert eer_fit <= eer_eye + 1e-9


def loop_train_csml(embeddings, labels, *, epochs, n_hard, max_triplets, seed):
    """``train_csml`` as a step loop that rebuilds the rows for every call and
    mines anchor by anchor; returns the transform and the rejected probes."""
    labels = np.asarray(labels)
    rng = np.random.default_rng(seed)
    train_idx, val_idx = [], []
    for spk in np.unique(labels):
        members = np.flatnonzero(labels == spk)
        members = members[rng.permutation(members.size)]
        n_val = (max(1, int(round(bk.CSML_VAL_FRACTION * members.size)))
                 if members.size > 1 else 0)
        val_idx.extend(members[:n_val])
        train_idx.extend(members[n_val:])
    train_idx, val_idx = np.sort(train_idx), np.sort(val_idx)
    for idx in (val_idx, train_idx):
        counts = np.unique(labels[idx], return_counts=True)[1]
        assert counts.size >= 2 and counts.max() >= 2     # no fallback to all rows

    def held_out_eer(a):
        return bk.all_pairs_eer(CsmlTransform(a), embeddings[val_idx], labels[val_idx],
                                np.random.default_rng(seed + 1), bk.CSML_VAL_TRIALS)
    a = np.eye(embeddings.shape[1])
    best = a.copy()
    best_eer = held_out_eer(a)
    train_emb, train_lab = embeddings[train_idx], labels[train_idx]
    n_hard = min(n_hard, min((train_lab != spk).sum() for spk in np.unique(train_lab)))
    rejected = 0
    for _ in range(epochs):
        triplets = loop_mine_triplets(train_emb, train_lab, a, n_hard, max_triplets, rng)
        for _ in range(bk.CSML_STEPS):
            loss, grad = triplet_loss_and_grad(bk._csml_rows(a, train_emb), triplets)
            gnorm2 = float((grad ** 2).sum())
            if gnorm2 < 1e-18:
                break
            step = 1.0 / max(1.0, np.sqrt(gnorm2))
            for _ in range(30):
                cand = bk._project_upper(a - step * grad)
                cand_loss, _ = triplet_loss_and_grad(bk._csml_rows(cand, train_emb), triplets,
                                                     need_grad=False)
                if cand_loss <= loss - 1e-4 * step * gnorm2:
                    a = cand
                    break
                rejected += 1
                step *= 0.5
            else:
                break
        eer = held_out_eer(a)
        if eer <= best_eer:
            best_eer, best = eer, a.copy()
    return best, rejected


@pytest.mark.parametrize("seed", range(4))
def test_train_csml_equals_step_loop_oracle(seed):
    """The fitted transform equals, bit for bit, that of a loop rebuilding the
    transform's rows for every mining, gradient and probe, over several
    epochs with rejected probes."""
    rng = np.random.default_rng(30 + seed)
    emb, labels = clustered_embeddings(rng, 8, 8, 3, spread=0.5, scale=1.0)
    emb = np.hstack([emb, 2.0 * rng.standard_normal((len(emb), 3))])   # nuisance dims
    options = dict(epochs=3, n_hard=6, max_triplets=150, seed=seed)
    expected, rejected = loop_train_csml(emb, labels, **options)
    assert rejected >= 1 and not np.array_equal(expected, np.eye(6))
    assert np.array_equal(train_csml(emb, labels, **options).matrix, expected)


# ---------------------------------------------------------------------------
# the shared validation pair sampler


def test_all_pairs_eer_scores_sorted_choice_of_row_major_pairs(monkeypatch):
    rng = np.random.default_rng(12)
    emb, labels = clustered_embeddings(rng, 3, 5, 4, spread=0.8, scale=1.0)
    pairs = [(i, j) for i in range(15) for j in range(i + 1, 15)]
    keep = sorted(np.random.default_rng(4).choice(len(pairs), size=40, replace=False))
    drawn = [pairs[k] for k in keep]
    seen = []
    original = bk.score_pairs

    def spy(model, rows, enroll_idx, test_idx):
        seen.append(list(zip(np.asarray(enroll_idx).tolist(), np.asarray(test_idx).tolist())))
        return original(model, rows, enroll_idx, test_idx)
    monkeypatch.setattr(bk, "score_pairs", spy)

    eer = bk.all_pairs_eer(None, emb, labels, np.random.default_rng(4), max_trials=40)
    assert seen == [drawn]
    oracle = ScoreSet.from_trials(
        [Trial(str(i), str(j), bool(labels[i] == labels[j])) for i, j in drawn],
        [emb[i] @ emb[j] / (np.linalg.norm(emb[i]) * np.linalg.norm(emb[j])) for i, j in drawn])
    assert eer == compute_eer(oracle)

    bk.all_pairs_eer(None, emb, labels, np.random.default_rng(4), max_trials=len(pairs))
    assert seen[1] == pairs


@pytest.mark.parametrize("n_rows", [9, 10, 11, 40], ids=["below", "at", "above", "far-above"])
def test_all_pairs_eer_pairs_equal_triu_indices_oracle(monkeypatch, n_rows):
    """The kept pairs and the generator state are those of indexing
    ``np.triu_indices`` with the sorted draw; 10 rows have max_trials = 45 pairs."""
    emb, labels = clustered_embeddings(np.random.default_rng(14), 5, 8, 3)
    emb, labels = emb[:n_rows], labels[:n_rows]
    seen = []
    original = bk.score_pairs

    def spy(model, rows, enroll_idx, test_idx):
        seen.append((np.asarray(enroll_idx), np.asarray(test_idx)))
        return original(model, rows, enroll_idx, test_idx)
    monkeypatch.setattr(bk, "score_pairs", spy)
    reference, drawing = np.random.default_rng(5), np.random.default_rng(5)
    i, j = np.triu_indices(n_rows, k=1)
    if i.size > 45:
        keep = np.sort(reference.choice(i.size, size=45, replace=False))
        i, j = i[keep], j[keep]
    bk.all_pairs_eer(None, emb, labels, drawing, max_trials=45)
    assert np.array_equal(seen[0][0], i) and np.array_equal(seen[0][1], j)
    assert drawing.bit_generator.state == reference.bit_generator.state


@pytest.mark.parametrize("model", [None, CsmlTransform(np.eye(4)),
                                   PldaModel(np.zeros(4), np.eye(4), np.eye(4))],
                         ids=["cosine", "csml", "plda"])
def test_all_pairs_eer_rejects_zero_norm_row(model):
    emb, labels = clustered_embeddings(np.random.default_rng(13), 2, 3, 4)
    emb[4] = 0.0
    with pytest.raises(ValueError, match="degenerate embedding: zero norm"):
        bk.all_pairs_eer(model, emb, labels, np.random.default_rng(0), max_trials=100)


# ---------------------------------------------------------------------------
# LDA


def test_lda_two_point_classes_aligns_with_mean_difference():
    mu = np.array([2.0, 1.0])
    emb = np.array([mu + [0.0, 0.0], mu + [0.0, 0.0], -mu, -mu])
    proj = lda_fit(emb, np.array([0, 0, 1, 1]), out_dim=1)
    direction = proj.matrix[0] / np.linalg.norm(proj.matrix[0])
    target = mu / np.linalg.norm(mu)      # ridge within-scatter is isotropic
    assert abs(abs(direction @ target) - 1.0) < 1e-6


def test_lda_identity_within_scatter_gives_between_eigvecs():
    rng = np.random.default_rng(14)
    d, sigma = 4, 0.7
    centers = rng.standard_normal((3, d)) * 2
    emb, labels = [], []
    for c, mu in enumerate(centers):
        for i in range(d):
            e = np.zeros(d)
            e[i] = sigma
            emb += [mu + e, mu - e]
            labels += [c, c]
    emb, labels = np.asarray(emb), np.asarray(labels)
    s_w = sum(np.outer(x - centers[l], x - centers[l]) for x, l in zip(emb, labels))
    s_w /= len(emb)
    assert np.allclose(s_w, (sigma ** 2 / d) * np.eye(d), atol=1e-12)

    proj = lda_fit(emb, labels, out_dim=2)
    mean = emb.mean(axis=0)
    s_b = sum(2 * d * np.outer(mu - mean, mu - mean) for mu in centers) / len(emb)
    vals, vecs = np.linalg.eigh(s_b)
    top = vecs[:, np.argsort(vals)[::-1][:2]]
    for row in proj.matrix:
        r = row / np.linalg.norm(row)
        assert np.linalg.norm(top @ (top.T @ r) - r) < 1e-6


def test_lda_beats_random_projections():
    rng = np.random.default_rng(15)
    emb, labels = clustered_embeddings(rng, 4, 20, 6, spread=1.0, scale=1.5)
    proj = lda_fit(emb, labels, out_dim=2)

    def ratio(p):
        """Between/within ratio of the projected data, trace of
        (P S_w P^T)^-1 (P S_b P^T)."""
        z = emb @ p.T
        s_w, s_b = bk._scatter_matrices(z, labels)[:2]
        return np.trace(np.linalg.solve(s_w, s_b))

    ours = ratio(proj.matrix)
    for _ in range(1000):
        p = rng.standard_normal((2, 6))
        assert ratio(p) <= ours + 1e-9


def test_lda_errors():
    rng = np.random.default_rng(16)
    emb = rng.standard_normal((4, 3))
    with pytest.raises(ValueError, match="2 classes"):
        lda_fit(emb, np.zeros(4), 1)
    with pytest.raises(ValueError, match="out_dim"):
        lda_fit(emb, np.array([0, 0, 1, 1]), 9)


def test_lda_ridge_handles_singular_within_scatter():
    emb = np.array([[1.0, 1.0], [1.0, 1.0], [-1.0, -1.0], [-1.0, -1.0]])
    proj = lda_fit(emb, np.array([0, 0, 1, 1]), out_dim=1)
    assert np.all(np.isfinite(proj.matrix))


def lda_data(rng, n_spk, per_spk, d):
    """Class centres with anisotropic within-class noise: n_spk (per_spk - 1) >= d
    keeps the within-class scatter full rank."""
    mix = rng.standard_normal((d, d)) / np.sqrt(d) + np.eye(d)
    emb, labels = clustered_embeddings(rng, n_spk, per_spk, d, spread=1.0)
    centers = np.repeat(emb.reshape(n_spk, per_spk, d).mean(axis=1), per_spk, axis=0)
    return centers + (emb - centers) @ mix, labels


@pytest.mark.parametrize("n_spk, d, out_dim", [(12, 20, 5), (15, 8, 4), (5, 12, 8)],
                         ids=["out_dim<K<d", "K>=d", "out_dim>=K<d"])
def test_lda_fit_matches_scipy_generalized_eigh(n_spk, d, out_dim):
    """Against ``scipy.linalg.eigh(s_b, s_w)`` on a thin SVD wider than out_dim,
    ``eigh(M Mᵀ)`` at K >= d, and a full SVD whose pairs past rank K are null.
    Pairs of a repeated (null) eigenvalue are defined only up to a rotation, so
    rows are compared up to sign where the eigenvalue is simple."""
    emb, labels = lda_data(np.random.default_rng(30 + d), n_spk, 6, d)
    proj = lda_fit(emb, labels, out_dim)

    s_w, s_b, _ = loop_scatter_matrices(emb, labels)
    vals, vecs = eigh(s_b, s_w)
    vals, vecs = vals[::-1][:out_dim], vecs[:, ::-1][:, :out_dim]
    scale = vals.max()
    v = proj.matrix.T
    assert proj.matrix.shape == (out_dim, d)
    assert np.all(np.diff(proj.eigenvalues) <= 0)
    assert np.abs(proj.eigenvalues - vals).max() <= 1e-10 * scale
    assert np.abs(v.T @ s_w @ v - np.eye(out_dim)).max() <= 1e-10
    assert np.abs(v.T @ s_b @ v - np.diag(proj.eigenvalues)).max() <= 1e-10 * scale
    simple = np.flatnonzero(vals > 1e-8 * scale)
    assert simple.size == min(out_dim, n_spk - 1)
    signs = np.sign((v[:, simple] * vecs[:, simple]).sum(axis=0))
    assert np.abs(v[:, simple] - signs * vecs[:, simple]).max() <= 1e-8 * np.abs(vecs).max()


def test_lda_fit_coincident_class_means_stay_finite():
    """Two of six classes share their mean, so S_b has rank 4 and the fifth pair
    (out_dim 5 < K 6 < d 10) has a zero singular value."""
    rng = np.random.default_rng(40)
    emb, labels = lda_data(rng, 6, 5, 10)
    emb[labels == 1] += emb[labels == 0].mean(axis=0) - emb[labels == 1].mean(axis=0)
    proj = lda_fit(emb, labels, out_dim=5)
    assert np.all(np.isfinite(proj.matrix)) and np.all(np.isfinite(proj.eigenvalues))
    assert proj.eigenvalues[-1] <= 1e-12 * proj.eigenvalues[0]
    s_w = loop_scatter_matrices(emb, labels)[0]
    v = proj.matrix.T
    assert np.abs(v.T @ s_w @ v - np.eye(5)).max() <= 1e-10


# ---------------------------------------------------------------------------
# PLDA


def test_plda_one_dimensional_closed_form_oracle():
    mu, b, w = 0.7, 2.0, 0.5
    model = PldaModel(np.array([mu]), np.array([[b]]), np.array([[w]]),
                      length_norm=False)
    e1, e2 = np.array([1.3]), np.array([-0.4])
    joint_same = multivariate_normal(mean=[mu, mu],
                                     cov=[[b + w, b], [b, b + w]])
    marginal = multivariate_normal(mean=[mu], cov=[[b + w]])
    expected = (joint_same.logpdf([e1[0], e2[0]])
                - marginal.logpdf([e1[0]]) - marginal.logpdf([e2[0]]))
    assert score(model, e1, e2) == pytest.approx(expected, abs=1e-10)


def test_plda_vanishing_between_covariance_flattens_scores():
    rng = np.random.default_rng(17)
    model = PldaModel(np.zeros(3), 1e-14 * np.eye(3), np.eye(3), length_norm=False)
    scores = [score(model, rng.standard_normal(3), rng.standard_normal(3))
              for _ in range(10)]
    assert np.max(np.abs(np.diff(scores))) < 1e-9


def sample_two_cov(rng, n_spk, per_spk, mu, between, within):
    lb = np.linalg.cholesky(between)
    lw = np.linalg.cholesky(within)
    emb, labels = [], []
    for s in range(n_spk):
        y = mu + lb @ rng.standard_normal(len(mu))
        emb.append(y + rng.standard_normal((per_spk, len(mu))) @ lw.T)
        labels += [s] * per_spk
    return np.concatenate(emb), np.array(labels)


def test_plda_fit_recovers_generative_score_ordering():
    rng = np.random.default_rng(18)
    d = 6
    q = np.linalg.qr(rng.standard_normal((d, d)))[0]
    between = q @ np.diag(rng.uniform(0.5, 2.0, d)) @ q.T
    within = 0.4 * np.eye(d)
    mu = rng.standard_normal(d)
    emb, labels = sample_two_cov(rng, 30, 12, mu, between, within)

    fitted = plda_fit(emb, labels, n_iter=20, length_norm=False)
    truth = PldaModel(mu, between, within, length_norm=False)

    probe, probe_labels = sample_two_cov(rng, 12, 4, mu, between, within)
    n = len(probe)
    pair_idx = rng.integers(0, n, size=(2000, 2))
    f = bk.plda_score_many(fitted, probe[pair_idx[:, 0]], probe[pair_idx[:, 1]])
    t = bk.plda_score_many(truth, probe[pair_idx[:, 0]], probe[pair_idx[:, 1]])
    comp = rng.integers(0, 2000, size=(4000, 2))
    agree = np.sign(f[comp[:, 0]] - f[comp[:, 1]]) == np.sign(t[comp[:, 0]] - t[comp[:, 1]])
    assert agree.mean() >= 0.95


def test_plda_fit_reaches_the_true_llr_eer_on_two_covariance_data():
    """Known answer: on two-covariance data the LLR with the true covariances
    is the Bayes-optimal score.  PLDA fitted on 300 speakers x 8 utterances
    (d = 24) must come within KA_MARGIN of its EER on 300 held-out speakers
    x 4, and neither cosine nor CSML may beat it by more than sampling noise.

    Sampling noise at this size (30 fresh training and probe draws from the
    same model): the true LLR's EER has a standard deviation of 0.0046 and
    the paired difference fitted - true one of 0.0020 (mean +0.0042), so
    KA_MARGIN = 0.015 is 3.2 standard errors of the EER and 7 of the
    difference.  Cosine and CSML score about 0.06 above the true LLR."""
    ka_margin, noise = 0.015, 3 * 0.0046
    d = 24
    rng = np.random.default_rng(1234)
    q_b, q_w = (np.linalg.qr(rng.standard_normal((d, d)))[0] for _ in range(2))
    between = q_b @ np.diag(rng.uniform(0.05, 1.0, d)) @ q_b.T
    within = q_w @ np.diag(rng.uniform(0.2, 2.0, d)) @ q_w.T
    mu = 0.5 * rng.standard_normal(d)
    emb, labels = sample_two_cov(rng, 300, 8, mu, between, within)
    probe, probe_labels = sample_two_cov(rng, 300, 4, mu, between, within)

    i, j = np.triu_indices(probe_labels.size, 1)
    same = probe_labels[i] == probe_labels[j]
    non = rng.integers(0, probe_labels.size, size=(60_000, 2))
    non = non[probe_labels[non[:, 0]] != probe_labels[non[:, 1]]][:20_000]
    enroll, test = np.concatenate([i[same], non[:, 0]]), np.concatenate([j[same], non[:, 1]])
    is_target = np.arange(enroll.size) < same.sum()

    def eer(model, x):
        return compute_eer(ScoreSet(is_target, bk.score_pairs(
            model, bk.scoring_rows(model, x), enroll, test)))

    dev_mean = emb.mean(axis=0)
    csml = train_csml(emb - dev_mean, labels, epochs=2, n_hard=20, max_triplets=2000, seed=1)
    truth = eer(PldaModel(mu, between, within, length_norm=False), probe)
    fitted = eer(plda_fit(emb, labels, n_iter=10, length_norm=False), probe)
    cosine = eer(None, probe - dev_mean)
    csml_eer = eer(csml, probe - dev_mean)
    assert abs(fitted - truth) <= ka_margin, (fitted, truth)
    assert cosine >= truth - noise and csml_eer >= truth - noise, (cosine, csml_eer, truth)


def test_plda_same_speaker_scores_higher_statistically():
    rng = np.random.default_rng(19)
    emb, labels = clustered_embeddings(rng, 8, 10, 5, spread=0.4, scale=2.0)
    model = plda_fit(emb, labels, n_iter=10)
    wins = trials = 0
    for i in range(0, 80, 3):
        same = [j for j in range(80) if labels[j] == labels[i] and j != i]
        diff = [j for j in range(80) if labels[j] != labels[i]]
        s_same = score(model, emb[i], emb[same[0]])
        s_diff = score(model, emb[i], emb[diff[0]])
        wins += s_same > s_diff
        trials += 1
    assert wins / trials >= 0.9


def test_plda_length_norm_flag_scale_invariance():
    rng = np.random.default_rng(20)
    emb, labels = clustered_embeddings(rng, 4, 8, 5)
    model = plda_fit(emb, labels, n_iter=5, length_norm=True)
    e1, e2 = emb[0], emb[9]
    assert score(model, e1, e2) == pytest.approx(
        score(model, 3.7 * e1, 0.2 * e2), abs=1e-9)


def test_plda_fit_requires_multisample_classes():
    rng = np.random.default_rng(21)
    emb = rng.standard_normal((3, 4))
    with pytest.raises(ValueError, match="2 classes"):
        plda_fit(emb, np.array([0, 1, 2]), n_iter=15)


def loop_scatter_matrices(e, labels):
    """Per-speaker loop oracle for ``_scatter_matrices``: (s_w, s_b, mean)."""
    n, d = e.shape
    mean = e.mean(axis=0)
    s_w, s_b = np.zeros((d, d)), np.zeros((d, d))
    for c in np.unique(labels):
        members = e[labels == c]
        mu_c = members.mean(axis=0)
        s_w += (members - mu_c).T @ (members - mu_c)
        s_b += len(members) * np.outer(mu_c - mean, mu_c - mean)
    return s_w / n, s_b / n, mean


def loop_plda_fit(e, labels, n_iter, lda_dim=None):
    """Per-speaker EM oracle for ``plda_fit`` with length norm: one posterior
    covariance inverted per speaker.  Returns (mean, between, within, lda)."""
    e = e / np.linalg.norm(e, axis=1, keepdims=True)
    lda = None
    if lda_dim is not None:
        s_w, s_b, _ = loop_scatter_matrices(e, labels)
        vals, vecs = eigh(s_b, s_w)
        lda = vecs[:, np.argsort(vals)[::-1][:lda_dim]].T
        e = e @ lda.T
    groups = []
    for c in np.unique(labels):
        members = e[labels == c]
        mu_c = members.mean(axis=0)
        groups.append((len(members), mu_c, (members - mu_c).T @ (members - mu_c)))
    s_w, s_b, mean = loop_scatter_matrices(e, labels)
    between, within = bk._ridge(s_b), bk._ridge(s_w)
    for _ in range(n_iter):
        b_inv, w_inv = np.linalg.inv(between), np.linalg.inv(within)
        post = []
        for n_k, mu_k, s_k in groups:
            cov = np.linalg.inv(b_inv + n_k * w_inv)
            post.append((n_k, mu_k, s_k, cov @ (b_inv @ mean + n_k * (w_inv @ mu_k)), cov))
        mean = sum(y for _, _, _, y, _ in post) / len(groups)
        sum_b = sum(cov + np.outer(y - mean, y - mean) for _, _, _, y, cov in post)
        sum_w = sum(s_k + n_k * (np.outer(mu_k - y, mu_k - y) + cov)
                    for n_k, mu_k, s_k, y, cov in post)
        between = bk._ridge((sum_b + sum_b.T) / (2 * len(groups)), rel=1e-10)
        within = bk._ridge((sum_w + sum_w.T) / (2 * len(e)), rel=1e-10)
    return mean, between, within, lda


def assert_rel_close(got, expected, rel=1e-10):
    assert np.abs(got - expected).max() <= rel * np.abs(expected).max()


@pytest.mark.parametrize("lda_dim", [None, 4])
def test_scatter_and_plda_fit_match_per_speaker_loop_oracle(lda_dim):
    rng = np.random.default_rng(23)
    sizes = np.tile(np.arange(1, 7), 5)                 # 30 speakers of 1 to 6 samples
    labels = rng.permutation(np.repeat([f"spk{k:02d}" for k in range(sizes.size)], sizes))
    centers = 2.0 * rng.standard_normal((sizes.size, 8))
    codes = np.unique(labels, return_inverse=True)[1]
    emb = centers[codes] + 0.5 * rng.standard_normal((labels.size, 8))

    s_w, s_b, mean, counts, _ = bk._scatter_matrices(emb, labels)
    for got, expected in zip((s_w, s_b, mean), loop_scatter_matrices(emb, labels)):
        assert_rel_close(got, expected)
    assert np.array_equal(counts, np.unique(labels, return_counts=True)[1])

    model = plda_fit(emb, labels, n_iter=6, lda_dim=lda_dim)
    mean, between, within, lda = loop_plda_fit(emb, labels, 6, lda_dim)
    assert_rel_close(model.mean, mean)
    assert_rel_close(model.between, between)
    assert_rel_close(model.within, within)
    assert (model.lda is None) == (lda is None)
    if lda is not None:
        assert_rel_close(model.lda.matrix, lda)


def test_plda_fit_with_lda_below_class_count_matches_loop_oracle_llrs():
    """K = 10 speakers in d = 24 with lda_dim 6: LDA's SVD rows may differ from
    the oracle's ``eigh`` rows in sign; LLRs do not."""
    rng = np.random.default_rng(24)
    emb, labels = lda_data(rng, 10, 6, 24)
    model = plda_fit(emb, labels, n_iter=6, lda_dim=6)
    mean, between, within, lda = loop_plda_fit(emb, labels, 6, lda_dim=6)
    oracle = PldaModel(mean, between, within, lda=LdaProjection(lda, np.ones(6)))
    pairs = rng.integers(0, labels.size, size=(300, 2))
    got = bk.plda_score_many(model, emb[pairs[:, 0]], emb[pairs[:, 1]])
    expected = bk.plda_score_many(oracle, emb[pairs[:, 0]], emb[pairs[:, 1]])
    assert np.all(np.abs(got - expected) <= 1e-9 * np.maximum(1.0, np.abs(expected)))


def test_plda_with_lda_preprocessing():
    rng = np.random.default_rng(22)
    emb, labels = clustered_embeddings(rng, 6, 8, 8, spread=0.5)
    model = plda_fit(emb, labels, n_iter=8, lda_dim=4)
    assert model.lda is not None and model.lda.out_dim == 4
    assert np.isfinite(score(model, emb[0], emb[1]))


# ---------------------------------------------------------------------------
# PLDA scoring in diagonal form against the joint-Gaussian reference


def random_plda_model(rng, d, lda_in=None, length_norm=False):
    """Random non-isotropic between/within covariances; with ``lda_in``, an
    LDA projection from ``lda_in`` dimensions down to d."""
    def spd(scale):
        a = rng.standard_normal((d, d + 2))
        return scale * (a @ a.T) / d + np.diag(rng.uniform(0.05, 0.5, d))
    lda = None
    if lda_in is not None:
        lda = LdaProjection(rng.standard_normal((d, lda_in)), np.sort(rng.uniform(0, 5, d))[::-1])
    return PldaModel(rng.standard_normal(d), spd(rng.uniform(0.2, 3.0)), spd(1.0),
                     lda=lda, length_norm=length_norm)


def assert_matches_reference_and_symmetric(model, emb, enroll_idx, test_idx):
    """``score_pairs`` on ``scoring_rows`` agrees with ``plda_score_many`` to 1e-9
    relative (scaled by max(1, |ref|)) and is exactly symmetric in the pair."""
    rows = bk.scoring_rows(model, emb)
    got = bk.score_pairs(model, rows, enroll_idx, test_idx)
    ref = bk.plda_score_many(model, emb[enroll_idx], emb[test_idx])
    assert np.all(np.abs(got - ref) / np.maximum(1.0, np.abs(ref)) <= 1e-9)
    assert np.array_equal(got, bk.score_pairs(model, rows, test_idx, enroll_idx))


@pytest.mark.parametrize("d", [1, 2, 3, 7, 12, 20])
@pytest.mark.parametrize("length_norm", [False, True])
@pytest.mark.parametrize("with_lda", [False, True])
def test_plda_diagonal_form_matches_joint_gaussian_reference(d, length_norm, with_lda):
    rng = np.random.default_rng(100 + d)
    in_dim = d + 4 if with_lda else d
    model = random_plda_model(rng, d, lda_in=in_dim if with_lda else None,
                              length_norm=length_norm)
    emb = 1.5 * rng.standard_normal((30, in_dim))
    assert_matches_reference_and_symmetric(model, emb, *rng.integers(0, 30, size=(2, 200)))


def test_plda_diagonal_form_across_score_blocks(monkeypatch):
    monkeypatch.setattr(bk, "SCORE_BLOCK", 16)     # 250 trials: 15 full blocks and 10
    rng = np.random.default_rng(120)
    model = random_plda_model(rng, 9, lda_in=12, length_norm=True)
    emb = rng.standard_normal((40, 12))
    assert_matches_reference_and_symmetric(model, emb, *rng.integers(0, 40, size=(2, 250)))


def test_indefinite_between_rejected_at_load_and_at_scoring(tmp_path):
    """With ``within`` positive definite, a negative eigenvalue of ``between`` is a
    negative generalized eigenvalue (Sylvester's law of inertia)."""
    path = tmp_path / "plda.bin"
    model = PldaModel(np.zeros(3), np.diag([1.0, -0.2, 2.0]), 2.0 + np.eye(3),
                      length_norm=False)
    assert eigh(model.between, model.within, eigvals_only=True)[0] < 0
    with pytest.raises(ValueError, match="between covariance has a negative generalized"):
        bk.scoring_rows(model, np.ones((2, 3)))
    bk.save_backend(path, model)
    with pytest.raises(ValueError, match="plda.bin: array between is not positive semi-definite"):
        bk.load_backend(path, "plda")
    model.between[1, 1] = 0.0                      # semi-definite is allowed
    bk.save_backend(path, model)
    assert np.array_equal(bk.load_backend(path, "plda").between, model.between)


def test_score_pairs_never_calls_the_reference(monkeypatch):
    rng = np.random.default_rng(121)
    model = random_plda_model(rng, 5)
    rows = bk.scoring_rows(model, rng.standard_normal((6, 5)))

    def fail(*args, **kwargs):
        raise AssertionError("plda_score_many on the scoring path")
    monkeypatch.setattr(bk, "plda_score_many", fail)
    monkeypatch.setattr(bk, "_gaussian_logpdf", fail)
    assert np.all(np.isfinite(bk.score_pairs(model, rows, [0, 1, 2], [3, 4, 5])))


# ---------------------------------------------------------------------------
# numpy generalized eigenproblem and triangular inverse against scipy


def generalized_pair(rng, d, cond_b=None):
    """Symmetric positive-definite (a, b); with ``cond_b``, b is a random rotation
    of a spectrum spread log-uniformly over ``cond_b``."""
    x = rng.standard_normal((d, d + 3))
    a = x @ x.T / d
    if cond_b is None:
        y = rng.standard_normal((d, d + 3))
        return a, y @ y.T / d + 0.1 * np.eye(d)
    q = np.linalg.qr(rng.standard_normal((d, d)))[0]
    return a, (q * np.logspace(0.0, -np.log10(cond_b), d)) @ q.T


def residuals(a, b, w, v):
    """max |V^T b V - I| and max |V^T a V - diag(w)| / max |w|."""
    return (np.abs(v.T @ b @ v - np.eye(w.size)).max(),
            np.abs(v.T @ a @ v - np.diag(w)).max() / np.abs(w).max())


@pytest.mark.parametrize("d", [1, 2, 7, 48, 150, 512])
def test_generalized_eigh_matches_scipy(d):
    rng = np.random.default_rng(200 + d)
    a, b = generalized_pair(rng, d)
    w, v = bk._generalized_eigh(a, np.linalg.cholesky(b))
    expected = eigh(a, b, eigvals_only=True)
    assert np.abs(w - expected).max() <= 1e-12 * np.abs(expected).max()
    assert max(residuals(a, b, w, v)) <= 1e-10


def test_generalized_eigh_ill_conditioned_b():
    """With cond(b) = 1e8 the answer itself is only defined to about cond(b) * eps:
    scipy's own |V^T b V - I| is near 1e-9 on such pairs, and two backward-stable
    solvers' eigenvalues differ by up to about 1e-9 relative.  So every check is
    held to cond(b) * 1e-16."""
    cond_b = 1e8
    a, b = generalized_pair(np.random.default_rng(207), 48, cond_b=cond_b)
    assert np.linalg.cond(b) >= cond_b
    w, v = bk._generalized_eigh(a, np.linalg.cholesky(b))
    expected = eigh(a, b, eigvals_only=True)
    tol = cond_b * 1e-16
    assert np.abs(w - expected).max() <= tol * np.abs(expected).max()
    assert max(residuals(a, b, w, v)) <= tol


@pytest.mark.parametrize("offset", [-1, 0, 1, bk.TRI_BLOCK + 3])
def test_triangular_inverse_at_block_boundaries(offset):
    n = bk.TRI_BLOCK + offset
    x = np.random.default_rng(n).standard_normal((n, n + 5))
    lower = np.linalg.cholesky(x @ x.T / n)
    inv = bk._tri_inv(lower)
    assert np.array_equal(inv, np.tril(inv))
    assert np.abs(lower @ inv - np.eye(n)).max() <= 1e-12

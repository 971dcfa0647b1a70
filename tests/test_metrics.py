"""Metric contracts against an exhaustive-threshold oracle, plus
invariance properties and file round-trips."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spkver.metrics import (DcfParams, ScoreSet, Trial, compute_eer,
                            compute_min_dcf, detection_points, parse_scores,
                            parse_trials, write_scores, write_trials)


def make_set(target_scores, nontarget_scores):
    trials = [Trial(f"e{i}", f"t{i}", True) for i in range(len(target_scores))]
    trials += [Trial(f"e{i}", f"u{i}", False) for i in range(len(nontarget_scores))]
    return ScoreSet(trials, np.concatenate([target_scores, nontarget_scores]))


# ---------------------------------------------------------------------------
# exhaustive-threshold oracle


def oracle_operating_points(tgt, non):
    """Every distinct score as a threshold, counted by full scans."""
    points = [(0.0, 1.0)]
    for th in sorted(set(np.concatenate([tgt, non])), reverse=True):
        p_fa = float(np.mean(non >= th))
        p_miss = 1.0 - float(np.mean(tgt >= th))
        points.append((p_fa, p_miss))
    return points


def oracle_eer(tgt, non):
    points = oracle_operating_points(tgt, non)
    for (f0, m0), (f1, m1) in zip(points, points[1:]):
        d0, d1 = m0 - f0, m1 - f1
        if d1 <= 0:
            if d1 == 0:
                return m1
            t = d0 / (d0 - d1)
            return m0 + t * (m1 - m0)
    raise AssertionError("no crossing found")


def oracle_min_dcf(tgt, non, p_target, c_miss=1.0, c_fa=1.0):
    points = oracle_operating_points(tgt, non)
    best = min(c_miss * m * p_target + c_fa * f * (1 - p_target) for f, m in points)
    return best / min(c_miss * p_target, c_fa * (1 - p_target))


# ---------------------------------------------------------------------------
# EER


def test_eer_perfect_separation():
    s = make_set(np.array([0.9, 0.8]), np.array([0.1, 0.2]))
    assert compute_eer(s) == 0.0


def test_eer_identical_distributions():
    scores = np.array([0.1, 0.4, 0.7])
    s = make_set(scores, scores.copy())
    assert compute_eer(s) == pytest.approx(0.5, abs=1e-12)


def test_eer_interpolated_case_matches_oracle():
    tgt = np.array([0.7, 0.5, 0.4])
    non = np.array([0.6, 0.3, 0.2])
    s = make_set(tgt, non)
    assert compute_eer(s) == pytest.approx(oracle_eer(tgt, non), abs=1e-12)


def test_eer_and_dcf_match_oracle_random_sets():
    rng = np.random.default_rng(0)
    for _ in range(60):
        n_t = int(rng.integers(1, 200))
        n_n = int(rng.integers(1, 200))
        tgt = rng.normal(1.0, 1.0, size=n_t)
        non = rng.normal(0.0, 1.0, size=n_n)
        if rng.random() < 0.3:                     # force ties, +0 and -0 among them
            tgt = np.round(tgt, 1)
            non = np.round(non, 1)
            tgt[::3] = -0.0
            non[::3] = 0.0
            non[1::5] = -0.0
        p_fa, p_miss = detection_points(tgt, non)
        assert list(zip(p_fa.tolist(), p_miss.tolist())) == oracle_operating_points(tgt, non)
        s = make_set(tgt, non)
        assert compute_eer(s) == pytest.approx(oracle_eer(tgt, non), abs=1e-12)
        for p in (0.01, 0.001):
            assert compute_min_dcf(s, DcfParams(p_target=p)) == pytest.approx(
                oracle_min_dcf(tgt, non, p), abs=1e-12)


def test_degenerate_trial_set():
    trials = [Trial("a", "b", True)]
    with pytest.raises(ValueError, match="degenerate trial set"):
        compute_eer(ScoreSet(trials, np.array([0.5])))


# ---------------------------------------------------------------------------
# minDCF


def test_min_dcf_perfect_and_useless():
    perfect = make_set(np.array([2.0, 3.0]), np.array([-1.0, 0.0]))
    assert compute_min_dcf(perfect) == 0.0
    useless = make_set(np.full(5, 1.0), np.full(7, 1.0))
    assert compute_min_dcf(useless) == pytest.approx(1.0, abs=1e-12)
    assert compute_min_dcf(useless, DcfParams(p_target=0.001)) == pytest.approx(1.0, abs=1e-12)


def test_min_dcf_normalized_bound_and_eer_threshold_bound():
    rng = np.random.default_rng(1)
    for _ in range(20):
        tgt = rng.normal(0.5, 1, size=rng.integers(2, 50))
        non = rng.normal(0.0, 1, size=rng.integers(2, 50))
        s = make_set(tgt, non)
        mdcf = compute_min_dcf(s)
        assert mdcf <= 1.0 + 1e-12
        eer = compute_eer(s)
        params = DcfParams()
        dcf_at_eer = (params.c_miss * eer * params.p_target
                      + params.c_fa * eer * (1 - params.p_target)) / min(
            params.c_miss * params.p_target, params.c_fa * (1 - params.p_target))
        assert dcf_at_eer >= mdcf - 1e-12


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2 ** 32 - 1),
       st.floats(0.05, 20.0), st.floats(-5.0, 5.0))
def test_metrics_invariant_under_increasing_transforms(seed, scale_f, shift):
    rng = np.random.default_rng(seed)
    tgt = rng.normal(0.8, 1, size=rng.integers(2, 40))
    non = rng.normal(0.0, 1, size=rng.integers(2, 40))
    s = make_set(tgt, non)
    transformed = make_set(np.tanh(tgt) * scale_f + shift,
                           np.tanh(non) * scale_f + shift)
    assert compute_eer(s) == pytest.approx(compute_eer(transformed), abs=1e-12)
    assert compute_min_dcf(s) == pytest.approx(compute_min_dcf(transformed), abs=1e-12)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_eer_bounded_and_halved_under_dominance(seed):
    """EER is a probability for any input; when the target scores are an
    upward-shifted copy of the nontargets (exact stochastic dominance) it
    cannot exceed chance."""
    rng = np.random.default_rng(seed)
    non = rng.normal(0.0, 1, size=rng.integers(1, 30))
    tgt = rng.normal(rng.uniform(-2, 2), 1, size=rng.integers(1, 30))
    eer = compute_eer(make_set(tgt, non))
    assert -1e-12 <= eer <= 1.0 + 1e-12

    shifted = non + rng.uniform(0.0, 3.0)
    assert compute_eer(make_set(shifted, non)) <= 0.5 + 1e-9


# ---------------------------------------------------------------------------
# file formats


def test_parse_trials_basics():
    trials = parse_trials("e1 t1 target\n")
    assert trials == [Trial("e1", "t1", True)]
    with pytest.raises(ValueError, match="no trials"):
        parse_trials("")
    with pytest.raises(ValueError, match="line 2"):
        parse_trials("e1 t1 target\ne2 t2 maybe\n")


def test_trials_roundtrip():
    rng = np.random.default_rng(2)
    trials = [Trial(f"e{i}", f"t{rng.integers(100)}", bool(rng.random() < 0.5))
              for i in range(50)]
    assert parse_trials(write_trials(trials)) == trials


def test_scores_roundtrip_exact():
    rng = np.random.default_rng(3)
    trials = [Trial(f"e{i}", f"t{i}", bool(i % 3 == 0)) for i in range(1000)]
    scores = rng.standard_normal(1000) * 1e3
    s = ScoreSet(trials, scores)
    text = write_scores(s)
    back = parse_scores(text)
    assert back.trials == trials
    assert np.array_equal(back.scores, scores)
    assert write_scores(back) == text


def test_parse_scores_errors():
    with pytest.raises(ValueError, match="line 1"):
        parse_scores("e t target not_a_number\n")


def test_nonfinite_scores_rejected():
    with pytest.raises(ValueError, match="finite"):
        ScoreSet([Trial("a", "b", True)], np.array([np.inf]))

"""Metric contracts against an exhaustive-threshold oracle, plus
invariance properties and file round-trips."""

import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spkver import metrics as mt
from spkver.metrics import (DcfParams, ScoreSet, Trial, compute_eer,
                            compute_min_dcf, detection_points, parse_scores,
                            parse_trials, summarize, write_scores)


def make_set(target_scores, nontarget_scores):
    trials = [Trial(f"e{i}", f"t{i}", True) for i in range(len(target_scores))]
    trials += [Trial(f"e{i}", f"u{i}", False) for i in range(len(nontarget_scores))]
    return ScoreSet.from_trials(trials, np.concatenate([target_scores, nontarget_scores]))


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


def oracle_min_dcf(tgt, non, p_target):
    points = oracle_operating_points(tgt, non)
    best = min(m * p_target + f * (1 - p_target) for f, m in points)
    return best / min(p_target, 1 - p_target)


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
        compute_eer(ScoreSet.from_trials(trials, np.array([0.5])))


# ---------------------------------------------------------------------------
# minDCF


def test_min_dcf_perfect_and_useless():
    perfect = make_set(np.array([2.0, 3.0]), np.array([-1.0, 0.0]))
    assert compute_min_dcf(perfect, DcfParams(p_target=0.01)) == 0.0
    useless = make_set(np.full(5, 1.0), np.full(7, 1.0))
    assert compute_min_dcf(useless, DcfParams(p_target=0.01)) == pytest.approx(1.0, abs=1e-12)
    assert compute_min_dcf(useless, DcfParams(p_target=0.001)) == pytest.approx(1.0, abs=1e-12)


def test_summarize_sweeps_once_and_equals_the_metric_functions(monkeypatch):
    """One ``detection_points`` call for the EER and every minDCF, each value
    bit-identical to ``compute_eer`` / ``compute_min_dcf`` (tied scores included)."""
    rng = np.random.default_rng(6)
    s = make_set(np.round(rng.normal(1.0, 1, 400), 1), np.round(rng.normal(0.0, 1, 900), 1))
    p_targets = (0.5, 0.01, 0.001)
    expected = {"eer": compute_eer(s)}
    expected.update({f"min_dcf_p{p:g}": compute_min_dcf(s, DcfParams(p_target=p))
                     for p in p_targets})
    calls = []
    monkeypatch.setattr(mt, "detection_points",
                        lambda *args: calls.append(args) or detection_points(*args))
    assert summarize(s, p_targets) == expected
    assert len(calls) == 1


def test_min_dcf_normalized_bound_and_eer_threshold_bound():
    rng = np.random.default_rng(1)
    for _ in range(20):
        tgt = rng.normal(0.5, 1, size=rng.integers(2, 50))
        non = rng.normal(0.0, 1, size=rng.integers(2, 50))
        s = make_set(tgt, non)
        p = 0.01
        mdcf = compute_min_dcf(s, DcfParams(p_target=p))
        assert mdcf <= 1.0 + 1e-12
        eer = compute_eer(s)
        dcf_at_eer = (eer * p + eer * (1 - p)) / min(p, 1 - p)
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
    params = DcfParams(p_target=0.01)
    assert compute_min_dcf(s, params) == pytest.approx(compute_min_dcf(transformed, params),
                                                       abs=1e-12)


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
    text = "".join(f"{t.enroll} {t.test} {LABEL_TEXT[t.is_target]}\n" for t in trials)
    assert parse_trials(text) == trials


def test_scores_roundtrip_exact():
    rng = np.random.default_rng(3)
    trials = [Trial(f"e{i}", f"t{i}", bool(i % 3 == 0)) for i in range(1000)]
    scores = rng.standard_normal(1000) * 1e3
    s = ScoreSet.from_trials(trials, scores)
    text = write_scores(s)
    back = parse_scores(text)
    assert back.trials == trials
    assert np.array_equal(back.scores, scores)
    assert write_scores(back) == text


def test_parse_scores_errors():
    with pytest.raises(ValueError, match="line 1"):
        parse_scores("e t target not_a_number\n")
    with pytest.raises(ValueError, match="line 2: score 'nan' is not finite"):
        parse_scores("a b target 1\nc d nontarget nan\n")


def test_nonfinite_scores_rejected():
    with pytest.raises(ValueError, match="finite"):
        ScoreSet.from_trials([Trial("a", "b", True)], np.array([np.inf]))


@pytest.mark.parametrize("columns", [
    ([True, False], [[0.1, 0.2]]),
    ([True, False], [0.1]),
    ([[True, False]], [0.1, 0.2]),
    ([True, False], [0.1, 0.2], ["a"], ["b", "c"]),
    ([True, False], [0.1, 0.2], ["a", "b"], ["c"]),
], ids=["2-D-scores", "short-scores", "2-D-mask", "short-enroll", "short-test"])
def test_score_set_rejects_columns_of_other_shapes(columns):
    with pytest.raises(ValueError, match="1-D, of one length"):
        ScoreSet(*columns)


def test_column_built_set_scores_like_trial_rows():
    rng = np.random.default_rng(4)
    is_target = rng.random(300) < 0.3
    scores = np.round(rng.normal(is_target.astype(float), 1.0), 1)   # ties included
    rows = [Trial(f"e{k}", f"t{k}", bool(y)) for k, y in enumerate(is_target)]
    by_columns, by_rows = ScoreSet(is_target, scores), ScoreSet.from_trials(rows, scores)
    assert compute_eer(by_columns) == compute_eer(by_rows)
    for p in (0.01, 0.001):
        params = DcfParams(p_target=p)
        assert compute_min_dcf(by_columns, params) == compute_min_dcf(by_rows, params)
    assert by_rows.trials == rows and by_columns.trials[0] == Trial("", "", bool(is_target[0]))


# ---------------------------------------------------------------------------
# line-by-line reference parser, writer and split: the oracles of the tokenizer

LABELS = {"target": True, "nontarget": False}
LABEL_TEXT = {True: "target", False: "nontarget"}


def loop_parse_trials(text):
    trials = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3 or parts[2] not in LABELS:
            raise ValueError(f"line {lineno}: expected 'enroll test target|nontarget', got {raw!r}")
        trials.append(Trial(parts[0], parts[1], LABELS[parts[2]]))
    if not trials:
        raise ValueError("no trials")
    return trials


def loop_parse_scores(text):
    """Trials, scores (non-finite ones included) and each trial's line number."""
    trials, scores, linenos = [], [], []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 4 or parts[2] not in LABELS:
            raise ValueError(
                f"line {lineno}: expected 'enroll test target|nontarget score', got {raw!r}")
        try:
            scores.append(float(parts[3]))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: bad score {parts[3]!r}") from exc
        trials.append(Trial(parts[0], parts[1], LABELS[parts[2]]))
        linenos.append(lineno)
    if not trials:
        raise ValueError("no trials")
    return trials, np.asarray(scores), linenos


def loop_write_scores(trials, scores):
    lines = []
    for trial, score in zip(trials, scores):
        lines.append(f"{trial.enroll} {trial.test} {LABEL_TEXT[trial.is_target]} {float(score)!r}\n")
    return "".join(lines)


def loop_split(trials, scores):
    is_target = np.fromiter((t.is_target for t in trials), dtype=bool, count=len(trials))
    return scores[is_target], scores[~is_target]


FIELD_TEXT = {
    "id": ["a", "spk_01-u2", "é", "x.y", "target", "1.5"],
    "label": ["target", "nontarget"],
    "score": ["0.25", "1e3", "-0.0", "+.5", "1_0", "1e999", "٣", "inf", "nan"],
}
BAD_FIELD_TEXT = {"id": [], "label": ["Target", "maybe"], "score": ["1__0", "0x1", "abc"]}
LINE_ENDS = ["\n", "\n", "\r\n", "\r", "\x0b", "\x1c", "\x85", "\u2028"]
GAPS = [" ", " ", "  ", "\t", " \t", "\xa0", "\u3000"]


@st.composite
def trial_file_texts(draw, n_fields):
    """Trial (3 fields) or score (4 fields) file texts; in about half of them
    some lines have a field too few or too many, in about half a bad label or score."""
    bad_lines, bad_fields = draw(st.booleans()), draw(st.booleans())
    text = ""
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["line"] * 6 + ["blank"] + ["short", "long"] * bad_lines))
        if kind == "blank":
            line = draw(st.sampled_from(["", " ", "\t ", "\xa0", "\u2028"]))
        else:
            n = n_fields + {"line": 0, "short": -1, "long": 1}[kind]
            kinds = ["id", "id", "label", "score", "id"][:n]
            fields = [draw(st.sampled_from(FIELD_TEXT[k] + BAD_FIELD_TEXT[k] * bad_fields))
                      for k in kinds]
            if "score" in kinds and draw(st.booleans()):
                fields[3] = repr(draw(st.floats(allow_nan=False, allow_infinity=False)))
            line = draw(st.sampled_from(["", " ", "\t"]))
            for field in fields:
                line += field + draw(st.sampled_from(GAPS))
        text += line + draw(st.sampled_from(LINE_ENDS))
    return text


def outcome(parse, text):
    try:
        return parse(text), None
    except ValueError as exc:
        return None, str(exc)


# The oracle tests parse each text twice: as one chunk, and with every line feed
# ending a chunk.  The patch is inside the test body because a @given test runs
# its body once per example, and a function-scoped fixture only once per test.
CHUNK_SIZES = (mt._CHUNK_CHARS, 1)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(trial_file_texts(3))
@example("e1 t1\ntarget e2 t2 nontarget\n")   # 2 + 4 fields: two good rows by token count
@example("a b target\nc d\n")                  # a malformed line after the first seam
@example("a b target\r\nc d nontarget\r\n")    # CR LF pairs are never split
@example("\n \n\t\na b target\n\n\n")           # chunks holding only blank lines
@example(" \n\n")                              # only blank chunks: no trials
def test_trial_parser_matches_line_by_line_parser(text):
    expected = outcome(loop_parse_trials, text)
    for chunk_chars in CHUNK_SIZES:
        with patch.object(mt, "_CHUNK_CHARS", chunk_chars):
            assert outcome(parse_trials, text) == expected, chunk_chars


def assert_score_parse_matches_loop(text):
    got, error = outcome(parse_scores, text)
    expected, expected_error = outcome(loop_parse_scores, text)
    if expected_error is not None:
        assert error == expected_error
        return
    trials, scores, linenos = expected
    not_finite = np.flatnonzero(~np.isfinite(scores))
    if not_finite.size:
        k = not_finite[0]
        score_text = text.splitlines()[linenos[k] - 1].split()[3]
        assert error == f"line {linenos[k]}: score {score_text!r} is not finite"
        return
    assert error is None
    assert got.enroll == [t.enroll for t in trials] and got.test == [t.test for t in trials]
    assert got.trials == trials
    assert got.scores.tobytes() == scores.tobytes()             # -0.0 keeps its sign
    assert np.array_equal(got.is_target, [t.is_target for t in trials])
    if 0 < got.is_target.sum() < len(trials):
        for a, b in zip(got.split(), loop_split(trials, scores)):
            assert a.tobytes() == b.tobytes()
    assert write_scores(got) == loop_write_scores(trials, scores)


def assert_id_less_parse_matches(text):
    """``parse_scores(ids=False)`` checks every line as the full parse does and
    keeps its mask and scores, but no ids."""
    got, error = outcome(parse_scores, text)
    bare, bare_error = outcome(lambda t: parse_scores(t, ids=False), text)
    assert bare_error == error
    if error is None:
        assert bare.enroll is None and bare.test is None
        assert bare.scores.tobytes() == got.scores.tobytes()
        assert np.array_equal(bare.is_target, got.is_target)
        assert bare.trials == [Trial("", "", y) for y in got.is_target.tolist()]


@settings(max_examples=300, derandomize=True, deadline=None)
@given(trial_file_texts(4))
@example("a b target\n0.5 c d nontarget 0.7\n")     # 3 + 5 fields: two good rows by count
@example("a b target nan\nc d target\n")             # the malformed line is named first
@example("a b target 0.5\nc d nontarget\n")          # a malformed line after the first seam
@example("a b target 0.5\nc d nontarget 0.5.1\n")    # a bad score after the first seam
@example("a b target 0.5\nc d nontarget inf\n")      # a non-finite score after the first seam
@example("a b target nan\nc d nontarget 1\ne f\n")   # ... named only if no line is malformed
@example("a b target 0.5\r\nc d nontarget -0.0\r\n")  # CR LF pairs are never split
@example("\n \n\t\na b target 1\n\n\nc d nontarget 2\n\n")  # chunks of only blank lines
def test_score_parser_matches_line_by_line_parser(text):
    for chunk_chars in CHUNK_SIZES:
        with patch.object(mt, "_CHUNK_CHARS", chunk_chars):
            assert_score_parse_matches_loop(text)
            assert_id_less_parse_matches(text)


def test_every_chunk_size_cuts_after_a_line_feed():
    """Chunks of any size, so that a chunk's nominal end falls on every character
    (inside an id, on a CR of a CR LF pair, on a blank line), parse alike."""
    text = "e1 t1 target 0.5\r\n\n  \r\ne2 t2 nontarget -1e3\re3 t3 target 2\n\ne4 t4 target 7"
    expected = parse_scores(text)
    for chunk_chars in range(1, len(text) + 2):
        with patch.object(mt, "_CHUNK_CHARS", chunk_chars):
            got = parse_scores(text)
        assert (got.enroll, got.test) == (expected.enroll, expected.test), chunk_chars
        assert got.scores.tobytes() == expected.scores.tobytes(), chunk_chars
        assert np.array_equal(got.is_target, expected.is_target), chunk_chars


def test_parse_scores_transient_memory_is_a_fraction_of_what_it_keeps():
    """Parsing 50k lines with unique ids holds, beyond the returned ``ScoreSet``,
    under a quarter of what that set keeps: the label and score strings of one
    chunk, not of every line."""
    text = "".join(f"enr{i:06d} tst{i:06d} {LABEL_TEXT[i % 10 == 0]} {i % 997 / 7:.2f}\n"
                   for i in range(50_000))
    tracemalloc.start()
    try:
        score_set = parse_scores(text)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(score_set.enroll) == 50_000
    assert peak - held < held / 4, (peak - held, held)

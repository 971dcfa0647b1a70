"""Verification-trial evaluation: EER and normalized minimum detection cost.

Both metrics sweep thresholds over the distinct score values, treating tied
scores atomically.  The miss / false-alarm curve is a polyline over those
operating points; the EER is the crossing of P_miss = P_fa found by linear
interpolation between adjacent vertices, which makes the result invariant
under any strictly increasing transform of the scores.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


class Trial(NamedTuple):
    enroll: str
    test: str
    is_target: bool


@dataclass
class ScoreSet:
    """Trials paired with one finite score each."""

    trials: list[Trial]
    scores: np.ndarray

    def __post_init__(self):
        self.scores = np.asarray(self.scores, dtype=np.float64)
        if len(self.trials) != self.scores.shape[0]:
            raise ValueError("one score per trial required")
        if self.scores.size and not np.all(np.isfinite(self.scores)):
            raise ValueError("scores must be finite")

    def split(self):
        is_target = np.fromiter((t.is_target for t in self.trials), dtype=bool,
                                count=len(self.trials))
        return self.scores[is_target], self.scores[~is_target]


@dataclass
class DcfParams:
    """Detection-cost prior and per-error costs."""

    p_target: float = 0.01
    c_miss: float = 1.0
    c_fa: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.p_target < 1.0:
            raise ValueError("p_target must be in (0, 1)")
        if self.c_miss <= 0 or self.c_fa <= 0:
            raise ValueError("costs must be positive")


def detection_points(target_scores, nontarget_scores):
    """Operating points (P_fa, P_miss) for thresholds sweeping high to low.

    A trial is accepted when its score is >= the threshold.  The list starts
    at (0, 1) (reject everything) and ends at (1, 0) (accept everything),
    with one vertex per distinct score value.
    """
    tgt = np.sort(np.asarray(target_scores, dtype=np.float64))
    non = np.sort(np.asarray(nontarget_scores, dtype=np.float64))
    thresholds = np.unique(np.concatenate([tgt, non]))[::-1]
    n_tgt_ge = tgt.size - np.searchsorted(tgt, thresholds, side="left")
    n_non_ge = non.size - np.searchsorted(non, thresholds, side="left")
    return (np.concatenate([[0.0], n_non_ge / non.size]),
            np.concatenate([[1.0], 1.0 - n_tgt_ge / tgt.size]))


def _validated_split(score_set: ScoreSet):
    tgt, non = score_set.split()
    if tgt.size == 0 or non.size == 0:
        raise ValueError("degenerate trial set: need at least one target and one nontarget")
    return tgt, non


def compute_eer(score_set: ScoreSet) -> float:
    """Equal error rate as a fraction in [0, 0.5]."""
    tgt, non = _validated_split(score_set)
    p_fa, p_miss = detection_points(tgt, non)
    diff = p_miss - p_fa
    k = int(np.argmax(diff <= 0))          # first vertex at or below the crossing
    if diff[k] == 0.0:
        return float(p_miss[k])
    # Interpolate on the segment between vertices k-1 and k.
    t = diff[k - 1] / (diff[k - 1] - diff[k])
    return float(p_miss[k - 1] + t * (p_miss[k] - p_miss[k - 1]))


def compute_min_dcf(score_set: ScoreSet, params: DcfParams | None = None) -> float:
    """Minimum detection cost, normalized by the best trivial decision.

    DCF(th) = c_miss * P_miss(th) * p_target + c_fa * P_fa(th) * (1 - p_target),
    minimized over the operating points and divided by
    min(c_miss * p_target, c_fa * (1 - p_target)).
    """
    if params is None:
        params = DcfParams()
    tgt, non = _validated_split(score_set)
    p_fa, p_miss = detection_points(tgt, non)
    dcf = (params.c_miss * p_miss * params.p_target
           + params.c_fa * p_fa * (1.0 - params.p_target))
    norm = min(params.c_miss * params.p_target, params.c_fa * (1.0 - params.p_target))
    return float(dcf.min() / norm)


# ---------------------------------------------------------------------------
# trial and score files

_LABELS = {"target": True, "nontarget": False}
_LABEL_TEXT = {True: "target", False: "nontarget"}


def parse_trials(text: str) -> list[Trial]:
    """Parse "enroll test target|nontarget" lines."""
    trials: list[Trial] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3 or parts[2] not in _LABELS:
            raise ValueError(f"line {lineno}: expected 'enroll test target|nontarget', got {raw!r}")
        trials.append(Trial(parts[0], parts[1], _LABELS[parts[2]]))
    if not trials:
        raise ValueError("no trials")
    return trials


def write_trials(trials: list[Trial]) -> str:
    return "".join(f"{t.enroll} {t.test} {_LABEL_TEXT[t.is_target]}\n" for t in trials)


def write_scores(score_set: ScoreSet) -> str:
    """Trial lines with an appended score column; round-trip exact."""
    lines = []
    for trial, score in zip(score_set.trials, score_set.scores):
        lines.append(f"{trial.enroll} {trial.test} {_LABEL_TEXT[trial.is_target]} {float(score)!r}\n")
    return "".join(lines)


def parse_scores(text: str) -> ScoreSet:
    trials: list[Trial] = []
    scores: list[float] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 4 or parts[2] not in _LABELS:
            raise ValueError(
                f"line {lineno}: expected 'enroll test target|nontarget score', got {raw!r}")
        try:
            scores.append(float(parts[3]))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: bad score {parts[3]!r}") from exc
        trials.append(Trial(parts[0], parts[1], _LABELS[parts[2]]))
    if not trials:
        raise ValueError("no trials")
    return ScoreSet(trials, np.asarray(scores))


def summarize(score_set: ScoreSet, p_targets=(0.01, 0.001)) -> dict[str, float]:
    """Metric name -> value record for reporting."""
    out = {"eer": compute_eer(score_set)}
    for p in p_targets:
        out[f"min_dcf_p{p:g}"] = compute_min_dcf(score_set, DcfParams(p_target=p))
    return out

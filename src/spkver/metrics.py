"""Verification-trial evaluation: EER and normalized minimum detection cost.

A ``ScoreSet`` holds trials as columns: a target mask and a score array for
the metrics and, when the caller needs them for file I/O, the enroll and test
ids.  Both metrics sweep thresholds over the distinct score values, treating
tied scores atomically; the EER is the crossing of P_miss = P_fa, interpolated
linearly between adjacent operating points, which makes it invariant under any
strictly increasing transform of the scores.

Trial and score files are tokenized in line-aligned chunks of about
``_CHUNK_CHARS`` characters, so a parse holds the token strings of one chunk
besides the columns it returns.  On a 200k-line score file with unique ids,
the ids are 27 MiB of the returned ``ScoreSet``; a parse without ids keeps
9 bytes per trial (1.7 MiB) and drops each chunk's id tokens with the chunk.
A bad line is named by one line-by-line walk over the whole text.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple, NoReturn

import numpy as np


class Trial(NamedTuple):
    enroll: str
    test: str
    is_target: bool


class ScoreSet:
    """Trials as columns: target mask, finite scores, and ids (None if not given)."""

    def __init__(self, is_target, scores, enroll: list[str] | None = None,
                 test: list[str] | None = None):
        self.is_target = np.asarray(is_target, dtype=bool)
        self.scores = np.asarray(scores, dtype=np.float64)
        self.enroll, self.test = enroll, test
        n = self.scores.size
        shapes = {self.is_target.shape, self.scores.shape,
                  *((len(ids),) for ids in (enroll, test) if ids is not None)}
        if shapes != {(n,)}:
            raise ValueError("target mask, scores and ids must be 1-D, of one length")
        if not np.isfinite(self.scores).all():
            raise ValueError("scores must be finite")

    @classmethod
    def from_trials(cls, trials: list[Trial], scores) -> ScoreSet:
        return cls([t.is_target for t in trials], scores,
                   [t.enroll for t in trials], [t.test for t in trials])

    @property
    def trials(self) -> list[Trial]:
        blank = repeat("")            # ids not given read blank; map stops with the mask
        return list(map(Trial, self.enroll or blank, self.test or blank,
                        self.is_target.tolist()))

    def split(self):
        """Target and nontarget scores; there must be at least one of each."""
        if self.is_target.all() or not self.is_target.any():
            raise ValueError("degenerate trial set: need at least one target and one nontarget")
        return self.scores[self.is_target], self.scores[~self.is_target]


@dataclass
class DcfParams:
    """Detection-cost prior; a miss and a false alarm both cost 1."""

    p_target: float

    def __post_init__(self):
        if not 0.0 < self.p_target < 1.0:
            raise ValueError("p_target must be in (0, 1)")


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


def compute_eer(score_set: ScoreSet) -> float:
    """Equal error rate as a fraction in [0, 0.5]."""
    return _eer(*detection_points(*score_set.split()))


def _eer(p_fa, p_miss) -> float:
    diff = p_miss - p_fa
    k = int(np.argmax(diff <= 0))          # first vertex at or below the crossing
    if diff[k] == 0.0:
        return float(p_miss[k])
    # Interpolate on the segment between vertices k-1 and k.
    t = diff[k - 1] / (diff[k - 1] - diff[k])
    return float(p_miss[k - 1] + t * (p_miss[k] - p_miss[k - 1]))


def compute_min_dcf(score_set: ScoreSet, params: DcfParams) -> float:
    """Minimum detection cost, normalized by the best trivial decision.

    DCF(th) = P_miss(th) * p_target + P_fa(th) * (1 - p_target), minimized
    over the operating points and divided by min(p_target, 1 - p_target).
    """
    return _min_dcf(*detection_points(*score_set.split()), params)


def _min_dcf(p_fa, p_miss, params: DcfParams) -> float:
    p = params.p_target
    return float((p_miss * p + p_fa * (1.0 - p)).min() / min(p, 1.0 - p))


# ---------------------------------------------------------------------------
# trial and score files

_LABELS = {"target": True, "nontarget": False}
_LABEL_TEXT = {True: "target", False: "nontarget"}
_FORMATS = {3: "enroll test target|nontarget", 4: "enroll test target|nontarget score"}


# Characters per chunk of ``_columns``: small enough that one chunk's transient
# token strings stay near 1 MiB, large enough (a 4k-line score file is about
# 240 KB) that small trial and score files parse in one chunk at no extra cost.
_CHUNK_CHARS = 1 << 18


def _columns(text: str, n_fields: int, ids: bool = True) -> list:
    """Enroll ids, test ids, target mask and, in a score file (4 fields), scores of the
    non-blank lines; without ``ids`` the two id columns are None.  Each chunk but the
    last holds at least ``_CHUNK_CHARS`` characters and ends just after a line feed, so
    no line and no CR LF pair is split; a chunk is tokenized by one ``split()``, so only
    its label and score strings (and, without ``ids``, its id strings) are transient,
    and the per-chunk masks and scores are joined once.  A bad chunk sends the whole
    text to ``_raise_bad_line``, so an error names the line's number in the file."""
    enroll, test, arrays = ([], [], []) if ids else (None, None, [])
    start = 0
    while start < len(text):
        end = text.find("\n", start + _CHUNK_CHARS - 1) + 1 or len(text)
        columns = _chunk_columns(text[start:end], n_fields, ids)
        if columns is None:
            _raise_bad_line(text, n_fields)
        if ids:
            enroll += columns[0]
            test += columns[1]
        arrays.append(columns[2:])
        start = end
    if not sum(chunk[0].size for chunk in arrays):
        raise ValueError("no trials")
    return [enroll, test, *map(np.concatenate, zip(*arrays))]


def _chunk_columns(chunk: str, n_fields: int, ids: bool) -> list | None:
    """``_columns`` of whole lines from one ``chunk.split()``; None if a line is bad."""
    if set(map(len, map(str.split, chunk.splitlines()))) <= {0, n_fields}:
        tokens = chunk.split()
        n = len(tokens) // n_fields
        with contextlib.suppress(KeyError, ValueError):   # a bad label, a score float() rejects
            is_target = np.fromiter(map(_LABELS.__getitem__, tokens[2::n_fields]), bool, n)
            scores = [np.fromiter(map(float, tokens[k::n_fields]), np.float64, n)
                      for k in range(3, n_fields)]
            if all(np.isfinite(column).all() for column in scores):
                id_columns = [tokens[0::n_fields], tokens[1::n_fields]] if ids else [None, None]
                return [*id_columns, is_target, *scores]
    return None


def _raise_bad_line(text: str, n_fields: int) -> NoReturn:
    """Name the first malformed line or bad score of ``text`` or, failing those, the
    first non-finite score."""
    not_finite = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if parts and (len(parts) != n_fields or parts[2] not in _LABELS):
            raise ValueError(f"line {lineno}: expected {_FORMATS[n_fields]!r}, got {raw!r}")
        for score in parts[3:]:
            try:
                if not np.isfinite(float(score)):
                    not_finite.append(f"line {lineno}: score {score!r} is not finite")
            except ValueError:
                raise ValueError(f"line {lineno}: bad score {score!r}") from None
    raise ValueError(not_finite[0])


def parse_trials(text: str) -> list[Trial]:
    """Parse "enroll test target|nontarget" lines."""
    enroll, test, is_target = _columns(text, 3)
    return list(map(Trial, enroll, test, is_target.tolist()))


def write_scores(score_set: ScoreSet) -> str:
    """Trial lines with an appended score column; round-trip exact."""
    return "".join(f"{e} {t} {_LABEL_TEXT[y]} {s!r}\n" for e, t, y, s in zip(
        score_set.enroll, score_set.test, score_set.is_target.tolist(), score_set.scores.tolist()))


def parse_scores(text: str, ids: bool = True) -> ScoreSet:
    """Parse trial lines with an appended score column.  Every line is checked alike
    either way; with ``ids`` False the set keeps only the target mask and the scores
    (9 bytes a trial), as the metrics need no ids."""
    enroll, test, is_target, scores = _columns(text, 4, ids)
    return ScoreSet(is_target, scores, enroll, test)


def summarize(score_set: ScoreSet, p_targets) -> dict[str, float]:
    """Metric name -> value record for reporting, from one ``detection_points`` sweep."""
    points = detection_points(*score_set.split())
    out = {"eer": _eer(*points)}
    for p in p_targets:
        out[f"min_dcf_p{p:g}"] = _min_dcf(*points, DcfParams(p_target=p))
    return out

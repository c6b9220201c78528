"""Alignment scores for bag pairs and ranking/correlation metrics.

The directional score aligns every vector of the entailed bag to its best
cosine match in the entailing bag and averages; the symmetric similarity is
the harmonic mean of the two directions, clamped to 0 when either direction
is non-positive (cosines can be negative and the harmonic mean is undefined
there).  The pair file and scores file formats are read and written here.
"""

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .encoding import finite_float, text_lines
from .errors import BoveError, DimensionMismatch

ENTAILMENT_LABELS = ("entailment", "neutral", "contradiction")


@dataclass(frozen=True)
class ScoredPair:
    """One scored sentence pair; gold is a float (STS), or a label or bool (SNLI)."""

    id: str
    score: float
    gold: object
    subset: str = "all"


def cosine(u, v):
    """Cosine of two vectors; 0 when either operand has zero norm."""
    if np.shape(u) != np.shape(v):
        raise DimensionMismatch("cosine operands %s vs %s" % (np.shape(u), np.shape(v)))
    unit_u, unit_v = _unit_rows([u, v])
    return float(unit_u @ unit_v)


def _unit_rows(bag):
    bag = np.asarray(bag, dtype=np.float64)
    norms = np.sqrt(np.add.reduce(bag * bag, axis=1, keepdims=True))  # as np.linalg.norm
    return np.divide(bag, norms, out=np.zeros_like(bag), where=norms != 0.0)


def _cosines(s1, s2):
    """Cosine matrix of two bags: entry (i, j) is the cosine of s1[i] and s2[j]."""
    s1 = np.asarray(s1, dtype=np.float64)
    s2 = np.asarray(s2, dtype=np.float64)
    if s1.ndim != 2 or s2.ndim != 2:
        raise DimensionMismatch("bags must be 2-d (n x r)")
    if len(s1) == 0 or len(s2) == 0:
        raise BoveError("cannot score an empty bag")
    if s1.shape[1] != s2.shape[1]:
        raise DimensionMismatch(
            "bags have different vector sizes: %d vs %d" % (s1.shape[1], s2.shape[1])
        )
    return _unit_rows(s1) @ _unit_rows(s2).T


def score_entailment(s1, s2):
    """Directional alignment score: mean over s2 rows of the best cosine in s1.

    Asymmetric; s1 is the entailing bag, s2 the entailed one.
    """
    best = _cosines(s1, s2).max(axis=0)
    return float(np.add.reduce(best) / len(best))  # np.mean's sum and division


def score_similarity(s1, s2):
    """Harmonic mean of both directional scores; 0 unless both are positive.

    One cosine matrix gives both: its column maxima align s2, its row maxima s1.
    """
    sims = _cosines(s1, s2)
    a = float(np.add.reduce(sims.max(axis=0)) / sims.shape[1])  # np.mean's sum and division
    b = float(np.add.reduce(sims.max(axis=1)) / sims.shape[0])
    if a <= 0.0 or b <= 0.0:
        return 0.0
    return 2.0 * a * b / (a + b)


def pearson(gold, pred):
    """Sample Pearson correlation; errors on zero variance or short input."""
    gold = np.asarray(gold, dtype=np.float64)
    pred = np.asarray(pred, dtype=np.float64)
    if gold.shape != pred.shape or gold.ndim != 1:
        raise DimensionMismatch("pearson needs two equal-length 1-d sequences")
    if len(gold) < 2:
        raise BoveError("pearson needs at least 2 points")
    gc = gold - gold.mean()
    pc = pred - pred.mean()
    vg = float(gc @ gc)
    vp = float(pc @ pc)
    if vg == 0.0 or vp == 0.0:
        raise BoveError("pearson undefined: zero variance operand")
    return float(gc @ pc) / np.sqrt(vg * vp)


def average_precision(scores, positives):
    """Average precision of the ranking by descending score, positives
    marked true.  Each distinct score is one threshold, so tied pairs count
    as one block and their order does not matter: AP = sum over thresholds
    of (recall_i - recall_{i-1}) precision_i.  With no ties this is the mean
    precision at the rank of each positive.
    """
    pairs_at = Counter(scores)
    positives_at = Counter(score for score, positive in zip(scores, positives) if positive)
    if not positives_at:
        raise BoveError("average precision undefined with no positives")
    ap, seen, found = 0.0, 0, 0
    for score in sorted(pairs_at, reverse=True):
        seen += pairs_at[score]
        found += positives_at[score]
        ap += positives_at[score] * (found / seen)
    return ap / found


def evaluate_sts(pairs):
    """Per-subset Pearson between gold and predicted scores, plus the
    unweighted mean across subsets.  Returns (dict subset -> (r, n), mean)."""
    if not pairs:
        raise BoveError("no pairs to evaluate")
    by_subset = {}
    for pair in pairs:
        by_subset.setdefault(pair.subset, []).append(pair)
    report = {}
    for subset in sorted(by_subset):
        members = by_subset[subset]
        r = pearson([p.gold for p in members], [p.score for p in members])
        report[subset] = (r, len(members))
    mean = sum(r for r, _ in report.values()) / len(report)
    return report, mean


def evaluate_snli(pairs):
    """Average precision of the score-descending ranking, entailment
    positive, with tied scores as one threshold (average_precision).

    Gold may be a 3-way label string (neutral and contradiction both count
    as non-entailment) or a boolean.
    """
    positives = []
    for pair in pairs:
        if isinstance(pair.gold, str):
            if pair.gold not in ENTAILMENT_LABELS:
                raise BoveError("unknown entailment label %r" % pair.gold)
            positives.append(pair.gold == "entailment")
        else:
            positives.append(bool(pair.gold))
    return average_precision([pair.score for pair in pairs], positives)


def _read_rows(path, what, columns, numbers):
    """Columns of each tab-separated row, skipping blank and '#' lines.

    A row needs (least, most) = columns columns, and a finite number, returned
    as a float, at each index of `numbers` (index -> name); else BoveError
    names the file and the line.
    """
    least, most = columns
    for line_no, line in text_lines(path):
        line = line.rstrip("\n")
        if not line or line.startswith("#"):
            continue
        cols = line.split("\t")
        if not least <= len(cols) <= most:
            raise BoveError("%s: %s line %d: expected %s tab-separated columns, got %d"
                            % (path, what, line_no, least if least == most
                               else "at least %d" % least, len(cols)))
        for index, name in numbers.items():
            try:
                cols[index] = finite_float(cols[index])
            except ValueError:
                raise BoveError("%s: %s line %d: %s must be a finite number, got %r"
                                % (path, what, line_no, name, cols[index])) from None
        yield cols


def read_pairs(path, mode):
    """Read the tab-separated pair file: id, sid1, sid2, gold [, subset].

    mode "sts" parses gold as a finite float; "snli" keeps the label string.
    Returns a list of (id, sid1, sid2, gold, subset).
    """
    numbers = {3: "STS gold"} if mode == "sts" else {}
    return [(cols[0], cols[1], cols[2], cols[3], cols[4] if len(cols) > 4 else "all")
            for cols in _read_rows(path, "pair file", (4, math.inf), numbers)]


def write_scores(path, pairs):
    """Write ScoredPairs as `id score gold subset` lines, scores to 10 digits."""
    with open(path, "w", encoding="utf-8") as f:
        for pair in pairs:
            f.write("%s\t%.10g\t%s\t%s\n" % (pair.id, pair.score, pair.gold, pair.subset))


def read_scores(path, mode):
    """ScoredPairs from write_scores' format; STS golds are floats, SNLI labels."""
    numbers = {1: "score", 2: "STS gold"} if mode == "sts" else {1: "score"}
    return [ScoredPair(*cols) for cols in _read_rows(path, "scores file", (4, 4), numbers)]


def format_report(report, mean, metric):
    """Evaluation report lines: subset=<name> metric=<m> value=<v> n=<pairs>."""
    lines = [
        "subset=%s metric=%s value=%.6f n=%d" % (subset, metric, value, n)
        for subset, (value, n) in sorted(report.items())
    ]
    lines.append("subset=mean metric=%s value=%.6f n=%d"
                 % (metric, mean, sum(n for _, n in report.values())))
    return "\n".join(lines) + "\n"

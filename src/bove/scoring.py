"""Alignment scores for bag pairs and ranking/correlation metrics.

The directional score aligns every vector of the entailed bag to its best
cosine match in the entailing bag and averages; the symmetric similarity is
the harmonic mean of the two directions, clamped to 0 when either direction
is non-positive (cosines can be negative and the harmonic mean is undefined
there).
"""

from dataclasses import dataclass

import numpy as np

from .errors import BoveError, DimensionMismatch

ENTAILMENT_LABELS = ("entailment", "neutral", "contradiction")


@dataclass(frozen=True)
class ScoredPair:
    """One scored sentence pair; gold is a float (STS) or bool (SNLI)."""

    id: str
    score: float
    gold: object
    subset: str = "all"


def cosine(u, v):
    """Cosine of two vectors; 0 when either operand has zero norm."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise DimensionMismatch("cosine operands %s vs %s" % (u.shape, v.shape))
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float(u @ v) / (nu * nv)


def _unit_rows(bag):
    bag = np.asarray(bag, dtype=np.float64)
    norms = np.linalg.norm(bag, axis=1, keepdims=True)
    safe = np.where(norms == 0.0, 1.0, norms)
    return np.where(norms == 0.0, 0.0, bag / safe)


def score_entailment(s1, s2):
    """Directional alignment score: mean over s2 rows of the best cosine in s1.

    Asymmetric; s1 is the entailing bag, s2 the entailed one.
    """
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
    sims = _unit_rows(s1) @ _unit_rows(s2).T
    return float(np.mean(sims.max(axis=0)))


def score_similarity(s1, s2):
    """Harmonic mean of both directional scores; 0 unless both are positive."""
    a = score_entailment(s1, s2)
    b = score_entailment(s2, s1)
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


def average_precision(ranked_labels):
    """Mean precision at the rank of each positive in a ranked boolean list.

    Input must already be in descending score order; score ties keep the
    caller's stable input order (AP is tie-sensitive).
    """
    ranked = [bool(x) for x in ranked_labels]
    if not any(ranked):
        raise BoveError("average precision undefined with no positives")
    hits = 0
    total = 0.0
    for rank, label in enumerate(ranked, start=1):
        if label:
            hits += 1
            total += hits / rank
    return total / hits


def rank_descending(pairs):
    """Pairs sorted by score descending, stable in input order on ties."""
    return sorted(pairs, key=lambda p: -p.score)


def evaluate_sts(pairs):
    """Per-subset Pearson between gold and predicted scores, plus the
    unweighted mean across subsets.  Returns (dict subset -> (r, n), mean)."""
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
    """Average precision of the score-descending ranking, entailment positive.

    Gold may be a 3-way label string (neutral and contradiction both count
    as non-entailment) or a boolean.
    """
    ranked = rank_descending(pairs)
    labels = []
    for pair in ranked:
        if isinstance(pair.gold, str):
            if pair.gold not in ENTAILMENT_LABELS:
                raise BoveError("unknown entailment label %r" % pair.gold)
            labels.append(pair.gold == "entailment")
        else:
            labels.append(bool(pair.gold))
    return average_precision(labels)


def read_pairs(path, mode):
    """Read the tab-separated pair file: id, sid1, sid2, gold [, subset].

    mode "sts" parses gold as a float; "snli" keeps the label string.
    Returns a list of (id, sid1, sid2, gold, subset).
    """
    out = []
    with open(path, encoding="utf-8") as f:
        for line_no, line in enumerate(f, start=1):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            cols = line.split("\t")
            if len(cols) < 4:
                raise BoveError(
                    "pair file line %d: expected >= 4 tab-separated columns" % line_no
                )
            gold = cols[3]
            if mode == "sts":
                try:
                    gold = float(gold)
                except ValueError:
                    raise BoveError(
                        "pair file line %d: STS gold must be a number, got %r"
                        % (line_no, gold)
                    ) from None
            subset = cols[4] if len(cols) > 4 else "all"
            out.append((cols[0], cols[1], cols[2], gold, subset))
    return out


def format_report(report, mean, metric):
    """Evaluation report lines: subset=<name> metric=<m> value=<v> n=<pairs>."""
    lines = [
        "subset=%s metric=%s value=%.6f n=%d" % (subset, metric, value, n)
        for subset, (value, n) in sorted(report.items())
    ]
    lines.append("subset=mean metric=%s value=%.6f n=%d"
                 % (metric, mean, sum(n for _, n in report.values())))
    return "\n".join(lines) + "\n"

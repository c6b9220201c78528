import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bove.errors import BoveError, DimensionMismatch
from bove.scoring import (
    ScoredPair,
    average_precision,
    cosine,
    evaluate_snli,
    evaluate_sts,
    format_report,
    pearson,
    read_pairs,
    read_scores,
    score_entailment,
    score_similarity,
    write_scores,
)
from oracles import entailment_by_enumeration, similarity_by_two_directions


@st.composite
def bag_pairs(draw):
    """Two bags of one width r, with zero rows and sign-flipped copies."""
    r = draw(st.sampled_from([1, 2, 3, 20]))
    value = st.one_of(st.just(0.0), st.floats(-4, 4, allow_subnormal=False))

    def bag():
        n = draw(st.integers(1, 5))
        rows = np.array(draw(st.lists(st.lists(value, min_size=r, max_size=r),
                                      min_size=n, max_size=n)))
        if draw(st.booleans()):
            rows[draw(st.integers(0, n - 1))] = 0.0
        return rows

    s1 = bag()
    s2 = -s1 if draw(st.booleans()) else bag()
    return s1, s2


class TestCosine:
    def test_parallel(self):
        assert cosine([1, 0], [2, 0]) == pytest.approx(1.0)

    def test_antiparallel(self):
        assert cosine([1, 0], [-3, 0]) == pytest.approx(-1.0)

    def test_orthogonal(self):
        assert cosine([1, 0], [0, 5]) == pytest.approx(0.0)

    def test_zero_norm(self):
        assert cosine([0, 0], [1, 1]) == 0.0
        assert cosine([1, 1], [0, 0]) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            cosine([1, 0], [1, 0, 0])


class TestEntailment:
    def test_identical_bags(self):
        bag = np.array([[1.0, 0.0], [0.0, 2.0]])
        assert score_entailment(bag, bag) == pytest.approx(1.0)

    def test_orthogonal_bags(self):
        s1 = np.array([[1.0, 0.0]])
        s2 = np.array([[0.0, 1.0]])
        assert score_entailment(s1, s2) == pytest.approx(0.0)

    def test_diagonal_alignment(self):
        # best match of [1, 1] against axis vectors is cos 45 degrees
        s1 = np.array([[1.0, 0.0], [0.0, 1.0]])
        s2 = np.array([[1.0, 1.0]])
        assert score_entailment(s1, s2) == pytest.approx(1.0 / math.sqrt(2))

    def test_asymmetry(self):
        s1 = np.array([[1.0, 0.0], [0.0, 1.0]])
        s2 = np.array([[1.0, 0.0]])
        assert score_entailment(s1, s2) == pytest.approx(1.0)
        assert score_entailment(s2, s1) == pytest.approx(0.5)

    def test_scale_invariance(self):
        rng = np.random.default_rng(0)
        s1 = rng.normal(size=(4, 3))
        s2 = rng.normal(size=(3, 3))
        scaled = score_entailment(s1 * 7.5, s2 * 0.01)
        assert scaled == pytest.approx(score_entailment(s1, s2))

    def test_empty_bag(self):
        with pytest.raises(BoveError):
            score_entailment(np.zeros((0, 3)), np.ones((2, 3)))
        with pytest.raises(BoveError):
            score_entailment(np.ones((2, 3)), np.zeros((0, 3)))

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            score_entailment(np.ones((2, 3)), np.ones((2, 4)))

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            s1 = rng.normal(size=(rng.integers(1, 5), 3))
            s2 = rng.normal(size=(rng.integers(1, 5), 3))
            assert score_entailment(s1, s2) == pytest.approx(
                entailment_by_enumeration(s1, s2)
            )

    def test_superset_monotonicity(self):
        # adding vectors to the entailing bag can only help each alignment
        rng = np.random.default_rng(2)
        for _ in range(20):
            s1 = rng.normal(size=(3, 4))
            extra = rng.normal(size=(2, 4))
            s2 = rng.normal(size=(3, 4))
            assert (score_entailment(np.vstack([s1, extra]), s2)
                    >= score_entailment(s1, s2) - 1e-12)


class TestSimilarity:
    def test_symmetry(self):
        rng = np.random.default_rng(3)
        s1 = rng.normal(size=(4, 3))
        s2 = rng.normal(size=(2, 3))
        assert score_similarity(s1, s2) == pytest.approx(score_similarity(s2, s1))

    def test_identity(self):
        bag = np.random.default_rng(4).normal(size=(3, 3))
        assert score_similarity(bag, bag) == pytest.approx(1.0)

    def test_harmonic_mean_value(self):
        s1 = np.array([[1.0, 0.0], [0.0, 1.0]])
        s2 = np.array([[1.0, 0.0]])
        # directions are 1.0 and 0.5; harmonic mean 2/3
        assert score_similarity(s1, s2) == pytest.approx(2.0 / 3.0)

    def test_clamped_to_zero(self):
        s1 = np.array([[1.0, 0.0]])
        s2 = np.array([[-1.0, 0.0]])
        assert score_similarity(s1, s2) == 0.0
        s3 = np.array([[0.0, 1.0]])
        assert score_similarity(s1, s3) == 0.0


    @settings(max_examples=300, deadline=None)
    @given(bag_pairs())
    def test_equals_two_directional_calls(self, bags):
        s1, s2 = bags
        # bit for bit, clamped pairs included
        assert score_similarity(s1, s2) == similarity_by_two_directions(s1, s2)

    @pytest.mark.parametrize("s1, s2", [
        ([[1.0]], [[-2.0]]),                   # n = 1, r = 1, both directions -1
        ([[1.0, 0.0]], [[0.0, 0.0]]),          # a zero row scores 0 both ways
        ([[1.0, 0.0], [0.0, 1.0]], [[1.0, -1.0]]),  # one direction 0
    ])
    def test_clamped_cases_equal_two_directional_calls(self, s1, s2):
        assert score_similarity(s1, s2) == similarity_by_two_directions(s1, s2) == 0.0


@st.composite
def seeded_bags(draw):
    """Two normal bags of one width r; a row of either may be zero.  The
    values are normal draws, so no row is near the underflow that makes a
    norm of tiny values inexact."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    r = draw(st.sampled_from([1, 2, 3, 20]))
    bags = [rng.normal(size=(draw(st.integers(1, 6)), r)) for _ in range(2)]
    for bag in bags:
        if draw(st.booleans()):
            bag[rng.integers(len(bag))] = 0.0
    return rng, bags[0], bags[1]


def assert_scores_equal(s1, s2, t1, t2):
    for score in (score_entailment, score_similarity):
        assert score(t1, t2) == pytest.approx(score(s1, s2), rel=1e-12)


class TestInvariance:
    """A bag is a set of vectors, and the scores read only cosines."""

    @settings(max_examples=200, deadline=None)
    @given(seeded_bags())
    def test_row_order_of_either_bag(self, bags):
        rng, s1, s2 = bags
        assert_scores_equal(s1, s2, rng.permutation(s1), s2)
        assert_scores_equal(s1, s2, s1, rng.permutation(s2))

    @settings(max_examples=200, deadline=None)
    @given(seeded_bags())
    def test_common_orthogonal_rotation(self, bags):
        rng, s1, s2 = bags
        q, _ = np.linalg.qr(rng.normal(size=(s1.shape[1],) * 2))
        assert_scores_equal(s1, s2, s1 @ q, s2 @ q)


def scores_by_norm_and_mean(s1, s2):
    """score_entailment and score_similarity through np.linalg.norm and np.mean."""
    def unit_rows(bag):
        norms = np.linalg.norm(bag, axis=1, keepdims=True)
        return np.where(norms == 0.0, 0.0, bag / np.where(norms == 0.0, 1.0, norms))

    sims = unit_rows(np.asarray(s1, dtype=np.float64)) @ unit_rows(
        np.asarray(s2, dtype=np.float64)).T
    a, b = float(np.mean(sims.max(axis=0))), float(np.mean(sims.max(axis=1)))
    return a, 0.0 if a <= 0.0 or b <= 0.0 else 2.0 * a * b / (a + b)


@st.composite
def wide_bag_pairs(draw):
    """Two bags of width 1, 20 or 50 and 1-12 rows from a drawn seed; each row
    is zero or scaled by 1, 1e-170 (its squares underflow) or 1e150."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    r = draw(st.sampled_from([1, 20, 50]))
    scale = st.sampled_from([0.0, 1.0, 1e-170, 1e150])
    bags = []
    for _ in range(2):
        n = draw(st.integers(1, 12))  # 8 or more: np.add.reduce sums pairwise
        scales = draw(st.lists(scale, min_size=n, max_size=n))
        bags.append(rng.normal(size=(n, r)) * np.array(scales)[:, None])
    return bags


class TestPerPairKernel:
    """The scores equal their np.linalg.norm / np.mean form bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(bag_pairs(), wide_bag_pairs()))
    def test_scores_equal_the_norm_and_mean_form(self, bags):
        s1, s2 = bags
        got = np.array([score_entailment(s1, s2), score_similarity(s1, s2)])
        assert got.tobytes() == np.array(scores_by_norm_and_mean(s1, s2)).tobytes()

    @pytest.mark.parametrize("r", [1, 20, 50])
    def test_zero_rows_and_single_rows(self, r):
        rng = np.random.default_rng(r)
        s1, s2 = rng.normal(size=(3, r)), rng.normal(size=(1, r))
        s1[1] = 0.0
        for pair in ((s1, s2), (s2, s1), (s2, s2), (s1, np.zeros((1, r)))):
            got = np.array([score_entailment(*pair), score_similarity(*pair)])
            assert got.tobytes() == np.array(scores_by_norm_and_mean(*pair)).tobytes()


class TestPearson:
    def test_perfect_positive(self):
        assert pearson([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0)

    def test_perfect_negative(self):
        assert pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_half(self):
        assert pearson([1, 2, 3], [1, 3, 2]) == pytest.approx(0.5)

    def test_zero_variance(self):
        with pytest.raises(BoveError):
            pearson([1, 1, 1], [1, 2, 3])

    def test_too_short(self):
        with pytest.raises(BoveError):
            pearson([1], [1])

    @given(st.floats(0.1, 10), st.floats(-5, 5))
    @settings(max_examples=30, deadline=None)
    def test_affine_invariance(self, scale, shift):
        gold = [1.0, 3.0, 2.0, 5.0, 4.0]
        pred = [0.5, 2.5, 2.0, 4.0, 5.0]
        moved = [scale * v + shift for v in pred]
        assert pearson(gold, moved) == pytest.approx(pearson(gold, pred))


class TestAveragePrecision:
    def test_perfect_ranking(self):
        assert average_precision([4, 3, 2, 1], [True, True, False, False]) == pytest.approx(1.0)

    def test_interleaved(self):
        # precisions at positive ranks 1 and 3: (1 + 2/3) / 2
        assert average_precision([3, 2, 1], [True, False, True]) == pytest.approx(5.0 / 6.0)

    def test_single_positive_last(self):
        assert average_precision([4, 3, 2, 1], [False, False, True, False]) == pytest.approx(1 / 3)

    def test_no_positives(self):
        with pytest.raises(BoveError):
            average_precision([2, 1], [False, False])

    def test_monotone_transform_invariance(self):
        pairs = [ScoredPair(str(i), s, g) for i, (s, g) in enumerate(
            [(0.9, True), (0.4, False), (0.7, True), (0.1, False)]
        )]
        squashed = [ScoredPair(p.id, math.tanh(3 * p.score), p.gold)
                    for p in pairs]
        assert evaluate_snli(pairs) == pytest.approx(evaluate_snli(squashed))

    def test_a_tie_block_is_one_threshold(self):
        # thresholds 0.9 (1 of 1 positive) and 0.5 (2 of 4 positive):
        # recall 1/3 at precision 1, then 2/3 more at precision 3/5
        scores = [0.9, 0.5, 0.5, 0.5, 0.5]
        positives = [True, False, True, False, True]
        assert average_precision(scores, positives) == pytest.approx(1 / 3 + 2 / 3 * 3 / 5)

    @given(st.lists(st.tuples(st.sampled_from([0.1, 0.5, 0.9]), st.booleans()),
                    min_size=1, max_size=12).filter(lambda drawn: any(p for _, p in drawn)),
           st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_permuting_tied_pairs_leaves_ap_unchanged(self, drawn, rnd):
        # few distinct scores, so most pairs tie; evaluate_snli reads the
        # pairs in the order given, and any order gives the same AP
        pairs = [ScoredPair(str(i), score, positive)
                 for i, (score, positive) in enumerate(drawn)]
        shuffled = list(pairs)
        rnd.shuffle(shuffled)
        assert evaluate_snli(shuffled) == evaluate_snli(pairs)


class TestEvaluate:
    def test_sts_subsets_and_mean(self):
        pairs = [
            ScoredPair("1", 0.1, 1.0, "news"),
            ScoredPair("2", 0.2, 2.0, "news"),
            ScoredPair("3", 0.3, 3.0, "news"),
            ScoredPair("4", 0.9, 1.0, "forum"),
            ScoredPair("5", 0.5, 2.0, "forum"),
            ScoredPair("6", 0.1, 3.0, "forum"),
        ]
        report, mean = evaluate_sts(pairs)
        assert report["news"][0] == pytest.approx(1.0)
        assert report["forum"][0] == pytest.approx(-1.0)
        assert report["news"][1] == 3 and report["forum"][1] == 3
        assert mean == pytest.approx(0.0)

    def test_sts_permutation_invariance(self):
        rng = np.random.default_rng(5)
        pairs = [ScoredPair(str(i), float(rng.normal()),
                            float(rng.normal()), "all") for i in range(10)]
        report, mean = evaluate_sts(pairs)
        shuffled = list(pairs)
        rng.shuffle(shuffled)
        report2, mean2 = evaluate_sts(shuffled)
        assert mean == pytest.approx(mean2)
        assert report["all"][0] == pytest.approx(report2["all"][0])

    def test_snli_all_entailment_top(self):
        pairs = [
            ScoredPair("1", 0.9, "entailment"),
            ScoredPair("2", 0.8, "entailment"),
            ScoredPair("3", 0.2, "neutral"),
            ScoredPair("4", 0.1, "contradiction"),
        ]
        assert evaluate_snli(pairs) == pytest.approx(1.0)

    def test_snli_inverted(self):
        pairs = [
            ScoredPair("1", 0.9, "neutral"),
            ScoredPair("2", 0.1, "entailment"),
        ]
        assert evaluate_snli(pairs) == pytest.approx(0.5)

    def test_snli_boolean_gold(self):
        pairs = [ScoredPair("1", 0.9, True), ScoredPair("2", 0.1, False)]
        assert evaluate_snli(pairs) == pytest.approx(1.0)

    def test_snli_unknown_label(self):
        with pytest.raises(BoveError):
            evaluate_snli([ScoredPair("1", 0.9, "maybe")])


class TestPairFile:
    def test_read_sts_with_subset(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text("# comment\np1\ts1\ts2\t3.5\tnews\np2\ts3\ts4\t1.0\n")
        pairs = read_pairs(path, "sts")
        assert pairs == [("p1", "s1", "s2", 3.5, "news"),
                         ("p2", "s3", "s4", 1.0, "all")]

    def test_read_snli_keeps_label(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text("p1\ts1\ts2\tentailment\n")
        assert read_pairs(path, "snli")[0][3] == "entailment"

    def test_short_line_rejected(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text("p1\ts1\ts2\n")
        with pytest.raises(BoveError):
            read_pairs(path, "sts")

    def test_pair_file_rejects_non_finite_gold(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text("p1\ts1\ts2\t1.0\n\np2\ts3\ts4\tnan\n")
        with pytest.raises(BoveError, match=r"pairs.tsv: pair file line 3: STS gold"):
            read_pairs(path, "sts")
        assert read_pairs(path, "snli")[1][3] == "nan"

    @pytest.mark.parametrize("mode, gold", [("sts", 4.25), ("snli", "neutral")])
    def test_scores_round_trip(self, tmp_path, mode, gold):
        path = tmp_path / "scores.tsv"
        pairs = [ScoredPair("p1", 0.123456789012345, gold, "news"),
                 ScoredPair("p2", -1.0, gold, "all")]
        write_scores(path, pairs)
        assert path.read_text() == ("p1\t0.123456789\t%s\tnews\n"
                                    "p2\t-1\t%s\tall\n" % (gold, gold))
        assert read_scores(path, mode) == [ScoredPair("p1", 0.123456789, gold, "news"),
                                           ScoredPair("p2", -1.0, gold, "all")]

    @pytest.mark.parametrize("line, what", [
        ("p1\t0.5\t4.0\n", "expected 4 tab-separated columns, got 3"),
        ("p1\t0.5\t4.0\tall\textra\n", "expected 4 tab-separated columns, got 5"),
        ("p1\tinf\t4.0\tall\n", "score must be a finite number, got 'inf'"),
        ("p1\t0.5\t-nan\tall\n", "STS gold must be a finite number, got '-nan'"),
        ("p1\thigh\t4.0\tall\n", "score must be a finite number, got 'high'"),
    ])
    def test_scores_file_errors_name_file_and_line(self, tmp_path, line, what):
        path = tmp_path / "scores.tsv"
        path.write_text("# comment\np0\t0.1\t1.0\tall\n" + line)
        with pytest.raises(BoveError, match="scores.tsv: scores file line 3: " + what):
            read_scores(path, "sts")

    def test_report_format(self):
        text = format_report({"all": (0.25, 4)}, 0.25, "pearson")
        assert text == ("subset=all metric=pearson value=0.250000 n=4\n"
                        "subset=mean metric=pearson value=0.250000 n=4\n")

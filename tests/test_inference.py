import numpy as np
import pytest

from bove import als, encoding, inference, synth
from bove.als import update_E_sentence
from bove.encoding import (
    SparsePropertyMatrix,
    SparseRelationTensor,
    entry_scatter,
    from_dense,
    quartic_minimizer,
    reconstruction_loss,
)
from bove.errors import DimensionMismatch
from bove.inference import infer_bove, infer_corpus
from bove.model import Hyperparams

from oracles import model_of, with_hyper
from test_metamorphic import sentence_tensors


def relation_free(n):
    """An X with no edges at all."""
    return SparseRelationTensor(d=1, n=n, rels=np.array([], dtype=np.int64),
                                heads=np.array([], dtype=np.int64),
                                deps=np.array([], dtype=np.int64))


def record_solves(monkeypatch):
    """The (E in, E out) pair of each solve made from now on through
    bove.inference's update_E_sentence."""
    solves = []

    def recorded(w, x, model, e_prev):
        e_new, gram = update_E_sentence(w, x, model, e_prev)
        solves.append((e_prev, e_new))
        return e_new, gram
    monkeypatch.setattr(inference, "update_E_sentence", recorded)
    return solves


def drawn_sentence(rng):
    """(W, X, model) drawn from rng as tests/test_metamorphic.py's
    instances() draws them: c <= 5, d <= 3, n <= 6 tokens and r <= 5, 1-12 W
    cells, at most n - 1 edges and no self-loop, each may repeat a cell,
    entries in [0.5, 1.5), P and R at synth's scale and lambda_e = 0.1."""
    c, d, n, r = (int(rng.integers(1, top + 1)) for top in (5, 3, 6, 5))
    w_cells = [(rng.integers(c), rng.integers(n)) for _ in range(rng.integers(1, 13))]
    x_cells = [(rng.integers(d), head, (head + rng.integers(1, max(n - 1, 1) + 1)) % n)
               for head in rng.integers(n, size=rng.integers(n))]
    for cells in (w_cells, x_cells):
        if cells and rng.random() < 0.5:
            cells.append(cells[0])
    w, x = sentence_tensors(c, d, n, w_cells, x_cells, rng)
    model = model_of(rng.uniform(-1.0, 1.0, size=(c, r)) / np.sqrt(r),
                     rng.uniform(-1.0, 1.0, size=(d, r, r)) / r,
                     alpha=rng.uniform(0.5, 1.5), lambda_e=0.1)
    return w, x, model


class TestInferBove:
    def test_relation_free_closed_form(self):
        # with no relations and R = 0 every refresh returns the ridge
        # solution, so every solve cap gives it
        rng = np.random.default_rng(0)
        p = rng.normal(size=(5, 3))
        w, _ = from_dense(rng.normal(size=(5, 4)), np.zeros((1, 4, 4)))
        x = relation_free(4)
        model = model_of(p, np.zeros((1, 3, 3)), lambda_e=0.2)
        expect = w.to_dense().T @ p @ np.linalg.inv(p.T @ p + 0.2 * np.eye(3))
        for iters in (1, 2, 7, 30):
            got = infer_bove(w, x, with_hyper(model, inference_iters=iters))
            np.testing.assert_allclose(got, expect, atol=1e-12)

    def test_one_solve_is_the_raw_refresh(self):
        data = synth.generate(4, n_sentences=3, n_tokens=4, c=6, d=2, hyper=Hyperparams(r=3))
        model = data.model
        for _, w, x in data.sentences:
            raw = update_E_sentence(w, x, model, np.zeros((w.n, 3)))[0]
            np.testing.assert_array_equal(
                infer_bove(w, x, with_hyper(model, inference_iters=1)), raw)

    @pytest.mark.parametrize("iters", [1, 2, 30])
    def test_solves_never_exceed_the_cap(self, monkeypatch, iters):
        data = synth.generate(4, n_sentences=3, n_tokens=4, c=6, d=2, hyper=Hyperparams(r=3))
        solves = record_solves(monkeypatch)
        for _, w, x in data.sentences:
            solves.clear()
            infer_bove(w, x, with_hyper(data.model, inference_iters=iters))
            assert 1 <= len(solves) <= iters
            assert not solves[0][0].any()  # the first solve refreshes zeros

    def test_each_solve_scatters_once(self, monkeypatch):
        # the line search reads the system its refresh solved, so Y F^T is
        # scattered once per solve, by the solve, whichever module calls it
        solves, scatters = record_solves(monkeypatch), []

        def counted(*args):
            scatters.append(args)
            return entry_scatter(*args)
        for module in (als, encoding):
            monkeypatch.setattr(module, "entry_scatter", counted)
        rng = np.random.default_rng(31)
        searched = 0
        for _ in range(20):
            w, x, model = drawn_sentence(rng)
            solves.clear()
            scatters.clear()
            infer_bove(w, x, model)
            assert len(scatters) == len(solves)
            searched += len(solves) > 2  # a solve past the second follows a search
        assert searched

    def test_stops_below_the_cap_at_a_fixed_point(self, monkeypatch):
        # the run returns its last refresh, which moved E by at most TOL of
        # its norm; 500 solves of the 0.5-damped iteration stand in for the
        # fixed point
        data = synth.generate(5, n_sentences=4, n_tokens=6, c=12, d=3, hyper=Hyperparams(r=4))
        model, hyper = data.model, data.model.hyper
        solves = record_solves(monkeypatch)
        for _, w, x in data.sentences:
            solves.clear()
            e = infer_bove(w, x, model)
            assert len(solves) < hyper.inference_iters
            e_in, e_out = solves[-1]
            np.testing.assert_array_equal(e, e_out)
            assert np.linalg.norm(e_out - e_in) <= inference.TOL * np.linalg.norm(e_out)
            want = np.zeros((w.n, hyper.r))
            for step in range(500):
                refreshed = update_E_sentence(w, x, model, want)[0]
                want = refreshed if step == 0 else 0.5 * (want + refreshed)
            assert np.linalg.norm(e - want) <= 1e-7 * np.linalg.norm(want)

    def test_sentence_without_entries_stops_at_zero(self, monkeypatch):
        # zero refreshes zero: the step and its bound are both 0, and no
        # ratio of norms is taken (pytest turns warnings into errors)
        empty = SparsePropertyMatrix(c=5, n=3, rows=[], cols=[])
        rng = np.random.default_rng(5)
        model = model_of(rng.normal(size=(5, 2)), rng.normal(size=(1, 2, 2)), lambda_e=0.1)
        solves = record_solves(monkeypatch)
        e = infer_bove(empty, relation_free(3), model)
        np.testing.assert_array_equal(e, np.zeros((3, 2)))
        assert len(solves) == 2

    @pytest.mark.parametrize("iters", [0, -3])
    def test_fewer_than_one_solve_is_refused(self, iters):
        # the cap is the model's inference_iters, which is at least 1
        with pytest.raises(ValueError, match="^inference_iters must be >= 1$"):
            Hyperparams(r=3, inference_iters=iters)

    def test_orthonormal_p_no_ridge(self):
        # orthonormal columns and lambda_e=0: E = W^T P exactly
        q, _ = np.linalg.qr(np.random.default_rng(1).normal(size=(6, 3)))
        w, _ = from_dense(np.random.default_rng(2).normal(size=(6, 4)),
                          np.zeros((1, 4, 4)))
        model = model_of(q, np.zeros((1, 3, 3)), lambda_e=0.0, inference_iters=1)
        got = infer_bove(w, relation_free(4), model)
        np.testing.assert_allclose(got, w.to_dense().T @ q, atol=1e-12)

    def test_token_exchangeability(self):
        # tokens with identical rows/edges get bit-identical embeddings
        w_dense = np.zeros((4, 3))
        w_dense[1, 0] = w_dense[1, 2] = 1.0  # tokens 0 and 2 identical
        w_dense[2, 1] = 1.0
        x_dense = np.zeros((2, 3, 3))
        x_dense[0, 0, 1] = x_dense[0, 2, 1] = 1.0
        w, x = from_dense(w_dense, x_dense)
        rng = np.random.default_rng(3)
        model = model_of(rng.normal(size=(4, 2)), rng.normal(size=(2, 2, 2)) * 0.3)
        e = infer_bove(w, x, model)
        np.testing.assert_array_equal(e[0], e[2])

    def test_context_sensitivity(self):
        # same token row, different incident edges: embeddings must differ
        w_dense = np.zeros((3, 2))
        w_dense[0, 0] = w_dense[0, 1] = 1.0
        x_a = np.zeros((1, 2, 2))
        x_b = x_a.copy()
        x_b[0, 0, 1] = 1.0
        w, xa = from_dense(w_dense, x_a)
        _, xb = from_dense(w_dense, x_b)
        rng = np.random.default_rng(4)
        model = model_of(rng.normal(size=(3, 2)), rng.normal(size=(1, 2, 2)))
        ea = infer_bove(w, xa, model)
        eb = infer_bove(w, xb, model)
        assert np.max(np.abs(ea - eb)) > 1e-6

    def test_objective_monotone_after_first_average(self):
        data = synth.generate(6, n_sentences=100, n_tokens=5, c=10, d=3, hyper=Hyperparams(r=4),
                              mode="discrete")
        model = data.model
        hyper = model.hyper
        worst = 0.0
        for _, w, x in data.sentences:
            losses = []
            for iters in range(2, 12):
                e = infer_bove(w, x, with_hyper(model, inference_iters=iters))
                losses.append(reconstruction_loss(w, x, model, e)
                              + hyper.lambda_e * float(np.sum(e ** 2)))
            worst = max(worst, max(np.diff(losses)))
        assert worst <= 1e-9

    def test_drawn_sentences_stop_at_a_fixed_point(self, monkeypatch):
        # a step rule that compares two computed losses cannot see a change
        # below their rounding, so it leaves with a step above TOL or crawls
        # to the cap: the halving rule on that comparison did so on 40 of
        # these 500 draws
        rng = np.random.default_rng(28)
        solves = record_solves(monkeypatch)
        other = 0
        for _ in range(500):
            w, x, model = drawn_sentence(rng)
            solves.clear()
            e = infer_bove(w, x, with_hyper(model, inference_iters=1000))
            other += not (len(solves) < 1000 and e is solves[-1][1])
        assert other < 5

    @pytest.mark.parametrize("seed", [2, 3, 4])
    def test_synth_sentences_stop_at_a_fixed_point_under_the_default_cap(self, monkeypatch,
                                                                          seed):
        # r = 20 and noisy targets: every sentence reaches its fixed point
        # within the default cap of 30 solves, where a direction
        # extrapolated from the last five steps left 1 or 2 of these 12
        data = synth.generate(seed, n_sentences=12, n_tokens=8, c=12, d=4, noise=0.1,
                              hyper=Hyperparams(r=20))
        solves = record_solves(monkeypatch)
        for _, w, x in data.sentences:
            solves.clear()
            e = infer_bove(w, x, data.model)
            assert e is solves[-1][1]

    @pytest.mark.parametrize("perm", [[0, 1], [1, 0]])
    def test_a_valley_is_crossed_in_few_solves(self, monkeypatch, perm):
        # an instances() draw (n = 2, r = 4, one W and one X entry) whose
        # E objective is a narrow curved valley: descent along the refresh's
        # step alone does not cross it in 1,000 solves, and the conjugate
        # direction without Powell's restart took 238; with the restart it
        # takes 64 in either token order
        perm = np.array(perm)
        w = SparsePropertyMatrix(c=1, n=2, rows=np.array([0]), cols=perm[[0]],
                                 values=np.array([12.865529470588072]))
        x = SparseRelationTensor(d=2, n=2, rels=np.array([0]), heads=perm[[0]],
                                 deps=perm[[1]], values=np.array([1.3899892489201555]))
        p = np.array([[0.3202638168251756, -0.49737415297512133, -0.15432476913201565,
                       -0.11753976710475167]])
        r_tensor = np.array([
            [[0.14695561219790576, -0.1755711500070838, -0.17870694832536788,
              -0.11970868307376648],
             [-0.016500983101955136, -0.20883128496416598, -0.12890350039069876,
              0.12727469303046018],
             [0.003302845480971983, -0.06520928767848622, 0.23532524527262477,
              -0.05691732373850916],
             [-0.023688957154114565, 0.0162167179090677, -0.21109217246319845,
              0.07740089225980451]],
            [[-0.07462793751518643, 0.18710515322551408, 0.20727128757148222,
              0.13551267625082947],
             [0.1279680321691828, -0.20681325873580308, -0.07097261672494043,
              -0.034450039326415716],
             [-0.07360238252205253, 0.09470293021795012, 0.10095262502905727,
              0.1369470550829267],
             [0.12050415058165936, -0.2053455785071539, -0.07293784009527887,
              0.16435734993238554]]])
        model = model_of(p, r_tensor, alpha=1.3744610556003165, lambda_e=0.1)
        solves = record_solves(monkeypatch)
        e = infer_bove(w, x, with_hyper(model, inference_iters=1000))
        assert len(solves) < 100 and e is solves[-1][1]

    def test_dimension_mismatch(self):
        data = synth.generate(7, n_sentences=1, n_tokens=3, c=6, d=2, hyper=Hyperparams(r=3))
        _, w, x = data.sentences[0]
        bad_w = SparsePropertyMatrix(c=w.c + 1, n=w.n, rows=w.rows, cols=w.cols,
                                     values=w.values)
        with pytest.raises(DimensionMismatch):
            infer_bove(bad_w, x, data.model)


class TestQuarticMinimizer:
    def test_no_descent_is_no_step(self):
        for a1 in (0.0, 1.0):
            assert quartic_minimizer((a1, -1.0, 0.0, 1.0)) == 0.0
        # a slope np.roots cannot divide by: the vertex would be at 5e-321
        assert quartic_minimizer((-1e-320, 1.0, 0.0, 0.0)) == 0.0

    def test_non_finite_coefficients_are_no_step(self):
        # np.roots raises LinAlgError on a NaN coefficient
        for bad in (np.nan, np.inf):
            assert quartic_minimizer((-1.0, bad, 0.0, 1.0)) == 0.0
            assert quartic_minimizer((bad, 1.0, 0.0, 1.0)) == 0.0

    def test_pure_quadratic_steps_to_its_vertex(self):
        assert quartic_minimizer((-3.0, 2.0, 0.0, 0.0)) == pytest.approx(0.75, rel=1e-15)

    @pytest.mark.parametrize("a", [
        (-1.843077493059708e-4, 9.21538746529854e-5, -2.7654513296261995e-203,
         7.585469338954674e-206),
        (-0.002468555738271875, 0.0012342778691359375, 5e-324, 0.0),
    ], ids=["tiny-cubic-and-quartic", "subnormal-cubic"])
    def test_terms_of_rounding_keep_the_quadratic_vertex(self, a):
        # two ALS E steps' quartics with R near 1e-99: quadratics to double
        # precision, vertex at t = 1.  Rooting the derivative in t placed that
        # root at 0 beside a complex pair of modulus 2e100 (real part 137), or
        # overflowed dividing by the subnormal a3
        with np.errstate(over="raise", invalid="raise"):
            assert quartic_minimizer(a) == pytest.approx(-a[0] / (2 * a[1]), rel=1e-12)

    def test_the_lower_of_two_minima(self):
        # the derivative of t^4 - 8 t^3 + 22 t^2 - 24 t is 4 (t - 1)(t - 2)(t - 3):
        # equal minima at 1 and 3, and a slope of -0.1 more makes 3's the lower
        assert 3.0 < quartic_minimizer((-24.1, 22.0, -8.0, 1.0)) < 3.1
        assert quartic_minimizer((-23.9, 22.0, -8.0, 1.0)) < 1.0


class TestInferCorpus:
    def test_empty(self):
        data = synth.generate(8, n_sentences=1, n_tokens=3, c=6, d=2, hyper=Hyperparams(r=3))
        results, failures = infer_corpus([], data.model)
        assert results == [] and failures == []

    def test_identical_sentences_identical_bags(self):
        data = synth.generate(9, n_sentences=1, n_tokens=4, c=6, d=2, hyper=Hyperparams(r=3),
                              mode="discrete")
        sid, w, x = data.sentences[0]
        results, failures = infer_corpus([("a", w, x), ("b", w, x)], data.model)
        assert failures == []
        np.testing.assert_array_equal(results[0][1], results[1][1])

    def test_order_preserved_under_permutation(self):
        data = synth.generate(10, n_sentences=5, n_tokens=4, c=8, d=2, hyper=Hyperparams(r=3),
                              mode="discrete")
        forward, _ = infer_corpus(data.sentences, data.model)
        backward, _ = infer_corpus(data.sentences[::-1], data.model)
        assert [sid for sid, _ in forward] == [s for s, _, _ in data.sentences]
        lookup = {sid: e for sid, e in backward}
        for sid, e in forward:
            np.testing.assert_array_equal(e, lookup[sid])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_permuted_sentences_give_permuted_bags(self, seed):
        data = synth.generate(13, n_sentences=6, n_tokens=4, c=8, d=2, hyper=Hyperparams(r=3),
                              mode="discrete")
        forward, _ = infer_corpus(data.sentences, data.model)
        order = np.random.default_rng(seed).permutation(len(data.sentences))
        permuted, failures = infer_corpus([data.sentences[i] for i in order], data.model)
        assert failures == []
        assert [sid for sid, _ in permuted] == [data.sentences[i][0] for i in order]
        for (_, e), i in zip(permuted, order, strict=True):
            np.testing.assert_array_equal(e, forward[i][1])

    def test_failures_collected_per_sentence(self):
        data = synth.generate(11, n_sentences=2, n_tokens=3, c=6, d=2, hyper=Hyperparams(r=3),
                              mode="discrete")
        sid, w, x = data.sentences[0]
        bad = SparsePropertyMatrix(c=w.c + 2, n=w.n, rows=w.rows, cols=w.cols,
                                   values=w.values)
        triples = [("good", w, x), ("bad", bad, x), ("good2", w, x)]
        results, failures = infer_corpus(triples, data.model)
        assert [sid for sid, _ in results] == ["good", "bad", "good2"]
        assert results[1][1] is None
        assert results[0][1] is not None and results[2][1] is not None
        assert len(failures) == 1 and failures[0][0] == "bad"
        assert isinstance(failures[0][1], DimensionMismatch)

    def test_fail_fast_raises(self):
        data = synth.generate(12, n_sentences=1, n_tokens=3, c=6, d=2, hyper=Hyperparams(r=3))
        sid, w, x = data.sentences[0]
        bad = SparsePropertyMatrix(c=w.c + 2, n=w.n, rows=w.rows, cols=w.cols,
                                   values=w.values)
        with pytest.raises(DimensionMismatch):
            infer_corpus([(sid, bad, x)], data.model, fail_fast=True)

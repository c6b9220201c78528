import numpy as np
import pytest

from bove import inference, synth
from bove.als import update_E_sentence
from bove.encoding import (
    SparsePropertyMatrix,
    SparseRelationTensor,
    from_dense,
    reconstruction_loss,
)
from bove.errors import DimensionMismatch
from bove.inference import infer_bove, infer_corpus
from bove.model import Hyperparams, TypeEmbeddings


def relation_free(n):
    """An X with no edges at all."""
    return SparseRelationTensor(d=1, n=n, rels=np.array([], dtype=np.int64),
                                heads=np.array([], dtype=np.int64),
                                deps=np.array([], dtype=np.int64))


def record_solves(monkeypatch):
    """The (E in, E out) pair of each solve made from now on through
    bove.inference's update_E_sentence."""
    solves = []

    def recorded(w, x, p, r_tensor, e_prev, alpha, lambda_e):
        e_new = update_E_sentence(w, x, p, r_tensor, e_prev, alpha, lambda_e)
        solves.append((e_prev, e_new))
        return e_new
    monkeypatch.setattr(inference, "update_E_sentence", recorded)
    return solves


def make_model(p, r_tensor, hyper):
    p = np.asarray(p, dtype=np.float64)
    r_tensor = np.asarray(r_tensor, dtype=np.float64)
    return TypeEmbeddings(
        P=p,
        R=r_tensor,
        frozen_p_rows=np.zeros(len(p), dtype=bool),
        hyper=hyper,
    )


class TestInferBove:
    def test_relation_free_closed_form(self):
        # with no relations and R = 0 every refresh returns the ridge
        # solution, so every solve cap gives it
        rng = np.random.default_rng(0)
        p = rng.normal(size=(5, 3))
        w, _ = from_dense(rng.normal(size=(5, 4)), np.zeros((1, 4, 4)))
        x = relation_free(4)
        hyper = Hyperparams(r=3, lambda_e=0.2)
        model = make_model(p, np.zeros((1, 3, 3)), hyper)
        expect = w.to_dense().T @ p @ np.linalg.inv(p.T @ p + 0.2 * np.eye(3))
        for iters in (1, 2, 7, 30):
            got = infer_bove(w, x, model, iters=iters)
            np.testing.assert_allclose(got, expect, atol=1e-12)

    def test_one_solve_is_the_raw_refresh(self):
        data = synth.generate(4, n_sentences=3, n_tokens=4, c=6, d=2, r=3)
        model, hyper = data.model, data.model.hyper
        for _, w, x in data.sentences:
            raw = update_E_sentence(w, x, model.P, model.R, np.zeros((w.n, 3)),
                                    hyper.alpha, hyper.lambda_e)
            np.testing.assert_array_equal(infer_bove(w, x, model, iters=1), raw)

    @pytest.mark.parametrize("iters", [1, 2, 30])
    def test_solves_never_exceed_the_cap(self, monkeypatch, iters):
        data = synth.generate(4, n_sentences=3, n_tokens=4, c=6, d=2, r=3)
        solves = record_solves(monkeypatch)
        for _, w, x in data.sentences:
            solves.clear()
            infer_bove(w, x, data.model, iters=iters)
            assert 1 <= len(solves) <= iters
            assert not solves[0][0].any()  # the first solve refreshes zeros

    def test_stops_below_the_cap_at_a_fixed_point(self, monkeypatch):
        # the run returns its last refresh, which moved E by at most TOL of
        # its norm; 500 solves of the 0.5-damped iteration stand in for the
        # fixed point
        data = synth.generate(5, n_sentences=4, n_tokens=6, c=12, d=3, r=4)
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
                refreshed = update_E_sentence(w, x, model.P, model.R, want,
                                              hyper.alpha, hyper.lambda_e)
                want = refreshed if step == 0 else 0.5 * (want + refreshed)
            assert np.linalg.norm(e - want) <= 1e-7 * np.linalg.norm(want)

    def test_sentence_without_entries_stops_at_zero(self, monkeypatch):
        # zero refreshes zero: the step and its bound are both 0, and no
        # ratio of norms is taken (pytest turns warnings into errors)
        empty = SparsePropertyMatrix(c=5, n=3, rows=[], cols=[])
        hyper = Hyperparams(r=2, lambda_e=0.1)
        rng = np.random.default_rng(5)
        model = make_model(rng.normal(size=(5, 2)), rng.normal(size=(1, 2, 2)), hyper)
        solves = record_solves(monkeypatch)
        e = infer_bove(empty, relation_free(3), model)
        np.testing.assert_array_equal(e, np.zeros((3, 2)))
        assert len(solves) == 2

    @pytest.mark.parametrize("iters", [0, -3])
    def test_fewer_than_one_solve_is_refused(self, iters):
        data = synth.generate(4, n_sentences=1, n_tokens=4, c=6, d=2, r=3)
        _, w, x = data.sentences[0]
        with pytest.raises(ValueError, match="^iters must be >= 1, got %d$" % iters):
            infer_bove(w, x, data.model, iters=iters)

    def test_orthonormal_p_no_ridge(self):
        # orthonormal columns and lambda_e=0: E = W^T P exactly
        q, _ = np.linalg.qr(np.random.default_rng(1).normal(size=(6, 3)))
        w, _ = from_dense(np.random.default_rng(2).normal(size=(6, 4)),
                          np.zeros((1, 4, 4)))
        hyper = Hyperparams(r=3, lambda_e=0.0)
        model = make_model(q, np.zeros((1, 3, 3)), hyper)
        got = infer_bove(w, relation_free(4), model, iters=1)
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
        hyper = Hyperparams(r=2)
        model = make_model(rng.normal(size=(4, 2)),
                           rng.normal(size=(2, 2, 2)) * 0.3, hyper)
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
        hyper = Hyperparams(r=2)
        model = make_model(rng.normal(size=(3, 2)),
                           rng.normal(size=(1, 2, 2)), hyper)
        ea = infer_bove(w, xa, model)
        eb = infer_bove(w, xb, model)
        assert np.max(np.abs(ea - eb)) > 1e-6

    def test_objective_monotone_after_first_average(self):
        data = synth.generate(6, n_sentences=100, n_tokens=5, c=10, d=3, r=4,
                              mode="discrete")
        model = data.model
        hyper = model.hyper
        worst = 0.0
        for _, w, x in data.sentences:
            losses = []
            for iters in range(2, 12):
                e = infer_bove(w, x, model, iters=iters)
                losses.append(
                    reconstruction_loss(w, x, model.P, model.R, e, alpha=hyper.alpha)
                    + hyper.lambda_e * float(np.sum(e ** 2))
                )
            worst = max(worst, max(np.diff(losses)))
        assert worst <= 1e-9

    def test_dimension_mismatch(self):
        data = synth.generate(7, n_sentences=1, n_tokens=3, c=6, d=2, r=3)
        _, w, x = data.sentences[0]
        bad_w = SparsePropertyMatrix(c=w.c + 1, n=w.n, rows=w.rows, cols=w.cols,
                                     values=w.values)
        with pytest.raises(DimensionMismatch):
            infer_bove(bad_w, x, data.model)


class TestInferCorpus:
    def test_empty(self):
        data = synth.generate(8, n_sentences=1, n_tokens=3, c=6, d=2, r=3)
        results, failures = infer_corpus([], data.model)
        assert results == [] and failures == []

    def test_identical_sentences_identical_bags(self):
        data = synth.generate(9, n_sentences=1, n_tokens=4, c=6, d=2, r=3,
                              mode="discrete")
        sid, w, x = data.sentences[0]
        results, failures = infer_corpus([("a", w, x), ("b", w, x)], data.model)
        assert failures == []
        np.testing.assert_array_equal(results[0][1], results[1][1])

    def test_order_preserved_under_permutation(self):
        data = synth.generate(10, n_sentences=5, n_tokens=4, c=8, d=2, r=3,
                              mode="discrete")
        forward, _ = infer_corpus(data.sentences, data.model)
        backward, _ = infer_corpus(data.sentences[::-1], data.model)
        assert [sid for sid, _ in forward] == [s for s, _, _ in data.sentences]
        lookup = {sid: e for sid, e in backward}
        for sid, e in forward:
            np.testing.assert_array_equal(e, lookup[sid])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_permuted_sentences_give_permuted_bags(self, seed):
        data = synth.generate(13, n_sentences=6, n_tokens=4, c=8, d=2, r=3,
                              mode="discrete")
        forward, _ = infer_corpus(data.sentences, data.model)
        order = np.random.default_rng(seed).permutation(len(data.sentences))
        permuted, failures = infer_corpus([data.sentences[i] for i in order], data.model)
        assert failures == []
        assert [sid for sid, _ in permuted] == [data.sentences[i][0] for i in order]
        for (_, e), i in zip(permuted, order, strict=True):
            np.testing.assert_array_equal(e, forward[i][1])

    def test_failures_collected_per_sentence(self):
        data = synth.generate(11, n_sentences=2, n_tokens=3, c=6, d=2, r=3,
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
        data = synth.generate(12, n_sentences=1, n_tokens=3, c=6, d=2, r=3)
        sid, w, x = data.sentences[0]
        bad = SparsePropertyMatrix(c=w.c + 2, n=w.n, rows=w.rows, cols=w.cols,
                                   values=w.values)
        with pytest.raises(DimensionMismatch):
            infer_corpus([(sid, bad, x)], data.model, fail_fast=True)

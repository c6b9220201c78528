import re
from dataclasses import replace

import numpy as np
import pytest

from bove import als, synth
from bove.als import (
    averaged_E_step,
    corpus_objective,
    train,
    update_E_sentence,
    update_P,
    update_R,
)
from bove.encoding import from_dense, loss_along, quartic_minimizer, reconstruction_loss
from bove.errors import BoveError, DimensionMismatch, DivergenceError, SingularSystemError
from bove.model import Hyperparams, TypeEmbeddings, init_for_training

from oracles import loss_gradient_E_dense, minimize_e_quadratic, model_of


def sparse_sentence(wd, xd):
    return from_dense(np.asarray(wd, float), np.asarray(xd, float))


def random_instance(rng, n_sentences=3, n=4, r=3, c=5, d=2, realizable=False):
    if realizable:
        p = rng.normal(size=(c, r))
        r_tensor = rng.normal(size=(d, r, r))
        es = [rng.normal(size=(n, r)) for _ in range(n_sentences)]
        pairs = [
            sparse_sentence(p @ e.T, np.einsum("ia,kab,jb->kij", e, r_tensor, e))
            for e in es
        ]
    else:
        pairs = [
            sparse_sentence(rng.normal(size=(c, n)), rng.normal(size=(d, n, n)))
            for _ in range(n_sentences)
        ]
        es = [rng.normal(size=(n, r)) for _ in range(n_sentences)]
    ws = [w for w, _ in pairs]
    xs = [x for _, x in pairs]
    return ws, xs, es


def zero_model(c, d, r, **weights):
    """A model of zero P (c x r) and R (d x r x r) under the given weights."""
    return model_of(np.zeros((c, r)), np.zeros((d, r, r)), **weights)


def raises_exactly(error, message):
    return pytest.raises(error, match="^%s$" % re.escape(message))


class TestSolves:
    """The P and E solves go through als._spd_solve_right; every solve's
    result is C-contiguous."""

    def test_results_are_c_contiguous(self):
        rng = np.random.default_rng(8)
        ws, xs, es = random_instance(rng)
        model = model_of(rng.normal(size=(5, 3)), 0.5 * rng.normal(size=(2, 3, 3)))
        for result in (update_P(ws, es, model), update_R(xs, es, model),
                       update_E_sentence(ws[0], xs[0], model, es[0])[0]):
            assert result.flags.c_contiguous

    @pytest.mark.parametrize("gram, rhs, ridge, error, message", [
        ([[1.0, np.nan], [np.nan, 1.0]], np.ones((3, 2)), 0.1, DivergenceError,
         "Z system has a non-finite entry"),
        (np.eye(2), [[1.0, np.inf], [0.0, 1.0]], 0.1, DivergenceError,
         "Z system has a non-finite entry"),
        (np.diag([1.0, -1.0]), np.ones((3, 2)), 0.1, DivergenceError,
         "Z system is not positive definite"),
        (np.diag([1.0, 0.0]), np.ones((3, 2)), 0.0, SingularSystemError,
         "Z system is singular; set its regularizer > 0"),
    ], ids=["non-finite-gram", "non-finite-rhs", "indefinite", "singular"])
    def test_error_branches(self, gram, rhs, ridge, error, message):
        with raises_exactly(error, message):
            # _spd_solve_right overwrites its gram: each case gets its own
            als._spd_solve_right(np.array(gram), np.array(rhs), ridge, "Z")


class TestUpdateP:
    def test_scalar_no_ridge(self):
        w, _ = sparse_sentence([[1.0]], np.zeros((1, 1, 1)))
        p = update_P([w], [np.array([[2.0]])], zero_model(1, 1, 1, lambda_p=0.0))
        assert p[0, 0] == pytest.approx(0.5)

    def test_scalar_with_ridge(self):
        w, _ = sparse_sentence([[1.0]], np.zeros((1, 1, 1)))
        p = update_P([w], [np.array([[2.0]])], zero_model(1, 1, 1, lambda_p=1.0))
        assert p[0, 0] == pytest.approx(0.4)

    def test_zero_design_matrix(self):
        w, _ = sparse_sentence(np.ones((2, 3)), np.zeros((1, 3, 3)))
        p = update_P([w], [np.zeros((3, 2))], zero_model(2, 1, 2, lambda_p=0.5))
        np.testing.assert_array_equal(p, np.zeros((2, 2)))

    def test_singular_without_ridge(self):
        w, _ = sparse_sentence(np.ones((2, 3)), np.zeros((1, 3, 3)))
        with pytest.raises(SingularSystemError, match="regularizer"):
            update_P([w], [np.zeros((3, 2))], zero_model(2, 1, 2, lambda_p=0.0))

    def test_frozen_rows_held(self):
        rng = np.random.default_rng(0)
        ws, xs, es = random_instance(rng)
        frozen = np.array([True, False, False, True, False])
        p_current = rng.normal(size=(5, 3))
        p_new = update_P(ws, es, model_of(p_current, np.zeros((2, 3, 3)), frozen, lambda_p=0.1))
        np.testing.assert_array_equal(p_new[frozen], p_current[frozen])
        assert not np.allclose(p_new[~frozen], p_current[~frozen])

    def test_gram_path_equals_concatenation(self):
        rng = np.random.default_rng(1)
        for trial in range(5):
            ws, xs, es = random_instance(rng, n_sentences=rng.integers(1, 6))
            lam = 0.2
            p_gram = update_P(ws, es, zero_model(5, 2, 3, lambda_p=lam))
            w_cat = np.hstack([w.to_dense() for w in ws])
            e_cat = np.vstack(es)
            p_direct = (
                w_cat @ e_cat @ np.linalg.inv(e_cat.T @ e_cat + lam * np.eye(3))
            )
            np.testing.assert_allclose(p_gram, p_direct, rtol=1e-9)


class TestUpdateR:
    def test_zero_target(self):
        _, x = sparse_sentence(np.zeros((1, 3)), np.zeros((2, 3, 3)))
        r_new = update_R([x], [np.random.default_rng(0).normal(size=(3, 2))],
                         zero_model(1, 2, 2, lambda_r=0.5))
        np.testing.assert_allclose(r_new, np.zeros((2, 2, 2)), atol=1e-12)

    def test_identity_design(self):
        rng = np.random.default_rng(2)
        xd = rng.normal(size=(2, 3, 3))
        _, x = sparse_sentence(np.zeros((1, 3)), xd)
        r_new = update_R([x], [np.eye(3)], zero_model(1, 2, 3, lambda_r=0.0, alpha=1.0))
        np.testing.assert_allclose(r_new, xd, atol=1e-10)

    def test_scalar_least_squares(self):
        # minimize (1 - 2*R*2)^2: the fit is R = 1/4
        _, x = sparse_sentence(np.zeros((1, 1)), [[[1.0]]])
        r_new = update_R([x], [np.array([[2.0]])], zero_model(1, 1, 1, lambda_r=0.0))
        assert r_new[0, 0, 0] == pytest.approx(0.25)

    def test_singular_without_ridge(self):
        _, x = sparse_sentence(np.zeros((1, 3)), np.ones((2, 3, 3)))
        with raises_exactly(SingularSystemError,
                            "R update system is singular; set its regularizer > 0"):
            update_R([x], [np.zeros((3, 2))], zero_model(1, 2, 2, lambda_r=0.0))

    def test_shared_null_direction_without_ridge(self):
        # no sentence spans the second axis, so the mean Gram is singular
        _, x = sparse_sentence(np.zeros((1, 2)), np.ones((2, 2, 2)))
        with raises_exactly(SingularSystemError,
                            "R update system is singular; set its regularizer > 0"):
            update_R([x], [np.array([[1.0, 0.0], [2.0, 0.0]])],
                     zero_model(1, 2, 2, lambda_r=0.0))

    def test_sentence_specific_null_directions_give_the_least_norm_minimizer(self):
        # E_1 = [[1, 0]] and E_2 = [[0, 1]]: the mean Gram is I / 2, but the
        # summed Kronecker Gram is singular.  Each sentence fixes one diagonal
        # entry of every R_k; the off-diagonals are free, and the minimizer of
        # least norm, the one documented, leaves them at zero.
        x1, x2 = [[[2.0]], [[-1.0]]], [[[0.5]], [[3.0]]]
        xs = [sparse_sentence(np.zeros((1, 1)), xd)[1] for xd in (x1, x2)]
        r_new = update_R(xs, [np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])],
                         zero_model(1, 2, 2, lambda_r=0.0, alpha=0.7))
        np.testing.assert_allclose(r_new, [np.diag([2.0, 0.5]), np.diag([-1.0, 3.0])],
                                   rtol=0, atol=1e-14)

    @pytest.mark.parametrize("e_bad, x_bad", [(np.nan, 1.0), (1.0, np.nan)],
                             ids=["in-E", "in-X"])
    def test_non_finite_system(self, e_bad, x_bad):
        _, x = sparse_sentence(np.zeros((1, 2)), [[[1.0, x_bad], [1.0, 1.0]]])
        with raises_exactly(DivergenceError, "R update system has a non-finite entry"):
            update_R([x], [np.array([[1.0, e_bad], [3.0, 4.0]])],
                     zero_model(1, 1, 2, lambda_r=0.1))

    def test_unconverged_iteration_is_a_divergence(self, monkeypatch):
        # stopping after the first step, whose residual is not yet small
        monkeypatch.setattr(als, "_CG_PATIENCE", 0)
        rng = np.random.default_rng(4)
        _, xs, es = random_instance(rng)
        with pytest.raises(DivergenceError, match="^R update did not converge: residual"):
            update_R(xs, es, zero_model(5, 2, 3, lambda_r=0.1))

    def test_kronecker_vec_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = rng.integers(1, 6)
            r = rng.integers(1, 5)
            a = rng.normal(size=(n, r))
            b = rng.normal(size=(r, r))
            lhs = (a @ b @ a.T).ravel()  # row-major vec
            rhs = np.kron(a, a) @ b.ravel()
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)


class TestUpdateE:
    def test_identity_property_design(self):
        rng = np.random.default_rng(4)
        wd = rng.normal(size=(3, 4))
        w, x = sparse_sentence(wd, np.zeros((1, 4, 4)))
        model = model_of(np.eye(3), np.zeros((1, 3, 3)), alpha=0.7, lambda_e=0.0)
        e_new = update_E_sentence(w, x, model, np.zeros((4, 3)))[0]
        np.testing.assert_allclose(e_new, wd.T, atol=1e-10)

    def test_zero_previous_ignores_relations(self):
        rng = np.random.default_rng(5)
        wd = rng.normal(size=(5, 4))
        xd = rng.normal(size=(2, 4, 4))
        p = rng.normal(size=(5, 3))
        r_tensor = rng.normal(size=(2, 3, 3))
        w, x = sparse_sentence(wd, xd)
        lam = 0.2
        e_new = update_E_sentence(w, x, model_of(p, r_tensor, alpha=1.0, lambda_e=lam),
                                  np.zeros((4, 3)))[0]
        expected = wd.T @ p @ np.linalg.inv(p.T @ p + lam * np.eye(3))
        np.testing.assert_allclose(e_new, expected, rtol=1e-9)

    def test_matches_quadratic_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            n, r, c, d = 4, 3, 5, 2
            wd = rng.normal(size=(c, n))
            xd = rng.normal(size=(d, n, n))
            p = rng.normal(size=(c, r))
            r_tensor = rng.normal(size=(d, r, r)) * 0.5
            e_prev = rng.normal(size=(n, r))
            w, x = sparse_sentence(wd, xd)
            alpha, lam = 0.8, 0.3
            model = model_of(p, r_tensor, alpha=alpha, lambda_e=lam)
            closed = update_E_sentence(w, x, model, e_prev)[0]
            oracle = minimize_e_quadratic(wd, xd, p, r_tensor, e_prev, alpha, lam)
            np.testing.assert_allclose(closed, oracle, rtol=1e-4, atol=1e-6)

    def test_singular_without_ridge(self):
        w, x = sparse_sentence(np.ones((2, 3)), np.ones((1, 3, 3)))
        with raises_exactly(SingularSystemError,
                            "E update system is singular; set its regularizer > 0"):
            update_E_sentence(w, x, zero_model(2, 1, 2, lambda_e=0.0), np.zeros((3, 2)))

    def test_dimension_mismatch(self):
        w, x = sparse_sentence(np.zeros((2, 3)), np.zeros((1, 3, 3)))
        with pytest.raises(DimensionMismatch):
            update_E_sentence(w, x, zero_model(2, 1, 2, lambda_e=0.0), np.zeros((4, 2)))

    def test_token_count_mismatch(self):
        w, _ = sparse_sentence(np.ones((2, 3)), np.zeros((1, 3, 3)))
        _, x = sparse_sentence(np.ones((2, 4)), np.ones((1, 4, 4)))
        with pytest.raises(DimensionMismatch, match="token counts of W, X and E disagree"):
            update_E_sentence(w, x, model_of(np.ones((2, 2)), np.ones((1, 2, 2)), lambda_e=0.0),
                              np.ones((3, 2)))

    def test_rank_mismatch_names_both_ranks(self):
        w, x = sparse_sentence(np.ones((2, 3)), np.zeros((1, 3, 3)))
        with pytest.raises(DimensionMismatch, match="^E has rank 3 but P has rank 2$"):
            update_E_sentence(w, x, model_of(np.ones((2, 2)), np.ones((1, 2, 2)), lambda_e=0.0),
                              np.ones((3, 3)))

    def test_loss_gradient_oracle_matches_finite_differences(self):
        rng = np.random.default_rng(15)
        w, x = sparse_sentence(rng.normal(size=(5, 4)), rng.normal(size=(2, 4, 4)))
        p, r_tensor = rng.normal(size=(5, 3)), rng.normal(size=(2, 3, 3))
        e, step = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
        alpha, lam, h = 0.7, 0.2, 1e-6

        def f(e):
            return reconstruction_loss(w, x, model_of(p, r_tensor, alpha=alpha), e) \
                + lam * np.sum(e ** 2)

        fd = (f(e + h * step) - f(e - h * step)) / (2 * h)
        g = loss_gradient_E_dense(w, x, p, r_tensor, e, alpha, lam)
        assert np.sum(g * step) == pytest.approx(fd, rel=1e-6)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_fixed_point_is_stationary_for_the_loss(self, alpha):
        # The solve weights each relation residual by alpha, as the loss does,
        # so its fixed point zeroes the loss's E gradient at every alpha.
        data = synth.generate(3, n_sentences=1, n_tokens=5, c=10, d=2, hyper=Hyperparams(r=4))
        _, w, x = data.sentences[0]
        p, r_tensor, lam = data.model.P, data.model.R, 0.1
        model = model_of(p, r_tensor, alpha=alpha, lambda_e=lam)
        e = np.zeros((5, 4))
        for _ in range(1000):
            e_next = e + 0.3 * (update_E_sentence(w, x, model, e)[0] - e)
            step = np.linalg.norm(e_next - e) / np.linalg.norm(e_next)
            e = e_next
            if step < 1e-13:
                break
        assert step < 1e-13
        g = loss_gradient_E_dense(w, x, p, r_tensor, e, alpha, lam)
        assert np.linalg.norm(g) < 1e-9 * np.linalg.norm(e)


class TestAveragedStep:
    def test_fixed_point_preserved(self):
        # relation-free system: the property-only solution is a fixed point
        rng = np.random.default_rng(7)
        wd = rng.normal(size=(4, 3))
        w, x = sparse_sentence(wd, np.zeros((1, 3, 3)))
        p = rng.normal(size=(4, 2))
        r_tensor = np.zeros((1, 2, 2))
        model = model_of(p, r_tensor, alpha=1.0, lambda_e=0.1)
        e_star = update_E_sentence(w, x, model, np.zeros((3, 2)))[0]
        stepped = averaged_E_step(w, x, model, e_star)
        np.testing.assert_allclose(stepped, e_star, rtol=1e-12)

    def test_relation_free_equals_property_solution(self):
        rng = np.random.default_rng(8)
        wd = rng.normal(size=(4, 3))
        w, x = sparse_sentence(wd, np.zeros((2, 3, 3)))
        p = rng.normal(size=(4, 2))
        lam = 0.5
        stepped = averaged_E_step(w, x, model_of(p, np.zeros((2, 2, 2)), alpha=1.0, lambda_e=lam),
                                  np.zeros((3, 2)))
        expected = wd.T @ p @ np.linalg.inv(p.T @ p + lam * np.eye(2))
        np.testing.assert_allclose(stepped, expected, rtol=1e-10)

    def test_equals_one_refresh_and_its_exact_line_search(self):
        rng = np.random.default_rng(15)
        ws, xs, es = random_instance(rng)
        model = model_of(rng.normal(size=(5, 3)), rng.normal(size=(2, 3, 3)),
                         alpha=0.5, lambda_e=0.2)
        for w, x, e in zip(ws, xs, es):
            z, h = update_E_sentence(w, x, model, e)
            t = quartic_minimizer(loss_along(x, model, e, h, z - e, z - e))
            assert 0 < t
            np.testing.assert_array_equal(averaged_E_step(w, x, model, e), e + t * (z - e))

    def test_oscillator_midpoint(self):
        # scalar instance where the raw refresh alternates +/- e; the
        # averaged step lands at the midpoint (zero), which is the minimizer
        w, x = sparse_sentence([[0.0]], [[[-1.5]]])
        model = model_of(np.array([[0.0]]), np.array([[[1.0]]]), alpha=1.0, lambda_e=1.0)
        e0 = np.array([[1.0]])
        raw1 = update_E_sentence(w, x, model, e0)[0]
        raw2 = update_E_sentence(w, x, model, raw1)[0]
        assert raw1[0, 0] == pytest.approx(-1.0)
        assert raw2[0, 0] == pytest.approx(1.0)
        avg = averaged_E_step(w, x, model, e0)
        assert avg[0, 0] == pytest.approx(0.0, abs=1e-12)


class TestTrain:
    def make_corpus(self, seed=0):
        data = synth.generate(seed, n_sentences=6, n_tokens=4, c=8, d=2, hyper=Hyperparams(r=3))
        ws = [w for _, w, _ in data.sentences]
        xs = [x for _, _, x in data.sentences]
        return ws, xs

    def test_zero_rounds_noop(self):
        ws, xs = self.make_corpus()
        hyper = Hyperparams(r=3, max_rounds=0)
        model = init_for_training(8, 2, hyper, seed=0)
        result = train(ws, xs, model)
        assert len(result.trace) == 1
        np.testing.assert_array_equal(result.model.P, model.P)
        np.testing.assert_array_equal(result.model.R, model.R)

    def test_keeps_the_model_hyperparameters(self):
        ws, xs = self.make_corpus()
        hyper = Hyperparams(r=3, alpha=3.0, lambda_e=0.5, inference_iters=7, max_rounds=1)
        model = init_for_training(8, 2, hyper, seed=0)
        assert train(ws, xs, model).model.hyper is hyper
        assert model.hyper is hyper

    @pytest.mark.parametrize("n_w, n_x, message", [
        (0, 0, "no sentences to train on"),
        (4, 2, "corpus has 4 W tensors but 2 X tensors"),
        (0, 2, "corpus has 0 W tensors but 2 X tensors"),
    ], ids=["empty", "more-W", "no-W"])
    def test_corpus_is_checked_before_any_sweep(self, monkeypatch, n_w, n_x, message):
        ws, xs = self.make_corpus()
        hyper = Hyperparams(r=3)
        monkeypatch.setattr(als, "averaged_E_step", None)  # a sweep would fail here
        with raises_exactly(BoveError, message):
            train(ws[:n_w], xs[:n_x], init_for_training(8, 2, hyper, seed=0))

    def test_trained_P_and_R_are_c_contiguous(self):
        ws, xs = self.make_corpus()
        hyper = Hyperparams(r=3, max_rounds=2)
        model = train(ws, xs, init_for_training(8, 2, hyper, seed=0)).model
        assert model.P.flags.c_contiguous and model.R.flags.c_contiguous

    def test_exact_recovery(self):
        ws, xs = self.make_corpus()
        hyper = Hyperparams(
            r=3, lambda_p=1e-6, lambda_r=1e-6, lambda_e=1e-6,
            max_rounds=200, rel_improvement_stop=0.0,
        )
        model = init_for_training(8, 2, hyper, seed=1)
        result = train(ws, xs, model)
        assert result.data_fit_trace[-1] <= 1e-6 * result.data_fit_trace[0]

    def test_stopping_rule(self):
        ws, xs = self.make_corpus()
        hyper = Hyperparams(r=3, max_rounds=500)
        model = init_for_training(8, 2, hyper, seed=1)
        result = train(ws, xs, model)
        assert result.stopped_by_rule
        assert len(result.trace) - 1 < 500
        rel = (result.trace[-2] - result.trace[-1]) / result.trace[-2]
        assert rel <= hyper.rel_improvement_stop

    def test_frozen_rows_bit_exact(self):
        ws, xs = self.make_corpus()
        hyper = Hyperparams(r=3, max_rounds=10)
        model = init_for_training(8, 2, hyper, seed=2)
        model.frozen_p_rows[:3] = True
        frozen_before = model.P[:3].copy()
        result = train(ws, xs, model)
        np.testing.assert_array_equal(result.model.P[:3], frozen_before)

    def test_five_round_window_non_increasing(self):
        ws, xs = self.make_corpus()
        hyper = Hyperparams(r=3, max_rounds=30, rel_improvement_stop=0.0)
        model = init_for_training(8, 2, hyper, seed=3)
        result = train(ws, xs, model)
        trace = result.trace
        for i in range(len(trace) - 5):
            assert trace[i + 5] <= trace[i] * (1 + 1e-9)

    def test_exchangeability(self):
        ws, xs = self.make_corpus()
        rng = np.random.default_rng(13)
        perms = [rng.permutation(w.n) for w in ws]
        ws_p, xs_p = [], []
        for w, x, perm in zip(ws, xs, perms):
            wd = w.to_dense()[:, perm]
            xd = x.to_dense()[:, perm][:, :, perm]
            wp, xp = from_dense(wd, xd)
            ws_p.append(wp)
            xs_p.append(xp)
        hyper = Hyperparams(r=3, max_rounds=8, rel_improvement_stop=0.0)
        model = init_for_training(8, 2, hyper, seed=4)
        base = train(ws, xs, model)
        permuted = train(ws_p, xs_p, model)
        np.testing.assert_allclose(base.trace, permuted.trace, rtol=1e-8)

    def test_training_log_format(self):
        ws, xs = self.make_corpus()
        hyper = Hyperparams(r=3, max_rounds=3, rel_improvement_stop=0.0)
        model = init_for_training(8, 2, hyper, seed=5)
        lines = []
        train(ws, xs, model, log=lines.append)
        assert len(lines) == 3
        for line in lines:
            parts = dict(kv.split("=") for kv in line.split())
            assert set(parts) == {"round", "objective", "rel_improvement", "seconds"}
            float(parts["objective"])

    def test_one_objective_pass_per_round(self, monkeypatch):
        ws, xs = self.make_corpus()
        hyper = Hyperparams(r=3, max_rounds=4, rel_improvement_stop=0.0)
        model = init_for_training(8, 2, hyper, seed=7)
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return corpus_objective(*args, **kwargs)

        monkeypatch.setattr(als, "corpus_objective", counted)
        result = train(ws, xs, model)
        assert len(calls) == hyper.max_rounds + 1
        assert len(result.trace) == hyper.max_rounds + 1
        fit, full = corpus_objective(ws, xs, result.e_store, result.model)
        assert result.trace[-1] == pytest.approx(full, rel=1e-12)
        assert result.data_fit_trace[-1] == pytest.approx(fit, rel=1e-12)

    def test_one_E_solve_per_sentence_per_sweep(self, monkeypatch):
        # every round sweeps once, one solve per sentence
        ws, xs = self.make_corpus()
        hyper = Hyperparams(r=3, max_rounds=4, rel_improvement_stop=-1.0)
        solves, per_round = [], []

        def counted_solve(*args):
            solves.append(1)
            return update_E_sentence(*args)

        def counted_p(*args):
            per_round.append(len(solves) - sum(per_round))
            return update_P(*args)

        monkeypatch.setattr(als, "update_E_sentence", counted_solve)
        monkeypatch.setattr(als, "update_P", counted_p)
        train(ws, xs, init_for_training(8, 2, hyper, seed=7))
        s = len(ws)
        assert per_round == [s] * hyper.max_rounds

    @pytest.mark.parametrize("rise", [2e-12, 0.5e-12])
    def test_a_round_that_raises_the_objective_diverges(self, monkeypatch, rise):
        # every step of a round runs; the objective it reads is scripted, and
        # a rise within the rounding tolerance of 1e-12 relative passes
        ws, xs = self.make_corpus()
        script = iter([10.0, 9.0, 9.0 * (1 + rise), 8.0])
        monkeypatch.setattr(als, "corpus_objective", lambda *args: (0.0, next(script)))
        hyper = Hyperparams(r=3, max_rounds=3, rel_improvement_stop=-1.0)
        lines = []

        def run():
            return train(ws, xs, init_for_training(8, 2, hyper, seed=7), log=lines.append)

        if rise > 1e-12:
            with pytest.raises(DivergenceError, match="^objective rose by 2e-12 relative at "
                                                      "round 2, to 9$"):
                run()
            assert [line.split()[0] for line in lines] == ["round=1", "round=2"]
        else:
            assert run().trace == [10.0, 9.0, 9.0 * (1 + rise), 8.0]

    @pytest.mark.parametrize("value", [1e100, 1e140, 1e200, np.inf])
    def test_overflowing_corpus_diverges(self, value):
        # no errstate set here: train itself turns overflow, a non-finite
        # system and a failed factorization despite a ridge into divergence
        ws, xs = self.make_corpus()
        values = ws[0].values.copy()
        values[0] = value
        ws[0] = replace(ws[0], values=values)
        hyper = Hyperparams(r=3, lambda_p=0.1, max_rounds=5)
        with pytest.raises(DivergenceError):
            train(ws, xs, init_for_training(8, 2, hyper, seed=0))


def test_corpus_objective_matches_loss_parts():
    rng = np.random.default_rng(14)
    ws, xs, es = random_instance(rng)
    hyper = Hyperparams(r=3, alpha=0.5, lambda_p=0.1, lambda_r=0.2, lambda_e=0.3)
    model = TypeEmbeddings(
        P=rng.normal(size=(5, 3)), R=rng.normal(size=(2, 3, 3)),
        frozen_p_rows=np.zeros(5, dtype=bool), hyper=hyper,
    )
    fit, full = corpus_objective(ws, xs, es, model)
    assert fit == pytest.approx(sum(reconstruction_loss(w, x, model, e)
                                    for w, x, e in zip(ws, xs, es)), rel=1e-12)
    reg = (0.1 * np.sum(model.P ** 2) + 0.2 * np.sum(model.R ** 2)
           + 0.3 * sum(np.sum(e ** 2) for e in es))
    assert full == pytest.approx(fit + reg, rel=1e-12)

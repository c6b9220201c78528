"""The coordinate-form training kernels (update_P, update_R, the objective,
its quartic along a direction, the E solve, and the X entry rows and the
entry scatter they share) against their dense forms, a guard that they
never densify W or X, and a contract that their memory grows linearly with
the entries."""

import dataclasses
import inspect
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import bove.encoding
from bove.als import (averaged_E_step, corpus_objective, train, update_E_sentence, update_P,
                      update_R)
from bove.encoding import (
    SparsePropertyMatrix,
    SparseRelationTensor,
    _CoordinateTensor,
    entry_rows,
    entry_scatter,
    loss_along,
    reconstruction_loss,
    relation_gram,
)
from bove.inference import infer_bove
from bove.model import Hyperparams, TypeEmbeddings, init_for_training
from bove.sgd import sampled_loss_and_grads, sgd_step
from bove.synth import generate

from oracles import (
    loss_gradient_E_dense,
    model_of,
    reconstruction_loss_dense,
    update_E_sentence_dense,
    update_P_dense,
    update_R_dense,
)
from test_metamorphic import instances


def sentence(c, d, n, w_cells, w_values, x_cells, x_values):
    rows, cols = ([cell[axis] for cell in w_cells] for axis in range(2))
    rels, heads, deps = ([cell[axis] for cell in x_cells] for axis in range(3))
    return (SparsePropertyMatrix(c=c, n=n, rows=rows, cols=cols, values=w_values),
            SparseRelationTensor(d=d, n=n, rels=rels, heads=heads, deps=deps,
                                 values=x_values))


@st.composite
def corpora(draw):
    """1-3 sentences on shared c, d and r, with n = 1 included.  Entries may
    repeat a coordinate or store a zero.  A sentence may hold no X entry, an
    entry in every W row or every relation, or one in every cell of W or X,
    so the loss meets tensors with and without an unlisted cell.  E, P, R,
    the frozen rows and the strengths (lambda_e is 0.1) come from a drawn
    seed."""
    c, d, r = draw(st.integers(1, 5)), draw(st.integers(1, 4)), draw(st.integers(1, 3))
    value = st.one_of(st.just(0.0), st.floats(-4, 4, allow_nan=False))
    ws, xs = [], []
    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.integers(1, 4))
        token = st.integers(0, n - 1)
        w_cells = draw(st.lists(st.tuples(st.integers(0, c - 1), token), max_size=8))
        x_cells = draw(st.lists(st.tuples(st.integers(0, d - 1), token, token),
                                max_size=8))
        cover = st.sampled_from(["some", "every slice", "every cell"])  # W row, X relation
        w_cover, x_cover = draw(cover), draw(cover)
        if w_cover == "every slice":
            w_cells += [(i, draw(token)) for i in range(c)]
        elif w_cover == "every cell":
            w_cells += list(itertools.product(range(c), range(n)))
        if x_cover == "every slice":
            x_cells += [(k, draw(token), draw(token)) for k in range(d)]
        elif x_cover == "every cell":
            x_cells += list(itertools.product(range(d), range(n), range(n)))
        for cells in (w_cells, x_cells):
            if cells and draw(st.booleans()):
                cells.append(cells[0])
        w_values = draw(st.lists(value, min_size=len(w_cells), max_size=len(w_cells)))
        x_values = draw(st.lists(value, min_size=len(x_cells), max_size=len(x_cells)))
        w, x = sentence(c, d, n, w_cells, w_values, x_cells, x_values)
        ws.append(w)
        xs.append(x)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    es = [rng.normal(size=(w.n, r)) for w in ws]
    model = TypeEmbeddings(
        P=rng.normal(size=(c, r)), R=rng.normal(size=(d, r, r)),
        frozen_p_rows=rng.random(c) < 0.3,
        hyper=Hyperparams(r=r, alpha=rng.uniform(0.1, 2), lambda_p=rng.uniform(0.1, 1),
                          lambda_r=rng.uniform(0.1, 1)),
    )
    return ws, xs, es, model


def assert_matches(got, want):
    """Equal to 1e-10 relative to the largest entry of the reference, or to
    1e-10 absolute where that entry is below 1: repeated coordinates may
    cancel, and a cancelled sum is 0 only up to rounding."""
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-10 * np.abs(want).max(initial=1.0))


def check_against_dense(ws, xs, es, model):
    hyper = model.hyper
    assert_matches(update_P(ws, es, model),
                   update_P_dense(ws, es, hyper.lambda_p, model.P, model.frozen_p_rows))
    assert_matches(update_R(xs, es, model), update_R_dense(xs, es, hyper.lambda_r, hyper.alpha))
    for w, x, e in zip(ws, xs, es):
        assert reconstruction_loss(w, x, model, e) == \
            pytest.approx(reconstruction_loss_dense(w, x, model.P, model.R, e, hyper.alpha),
                          rel=1e-10)
        assert_matches(
            update_E_sentence(w, x, model, e)[0],
            update_E_sentence_dense(w, x, model.P, model.R, e, hyper.alpha, hyper.lambda_e))


@settings(max_examples=150, deadline=None)
@given(corpora())
def test_kernels_match_dense_forms(corpus):
    check_against_dense(*corpus)


@settings(max_examples=150, deadline=None)
@given(instance=instances(), seed=st.integers(0, 2 ** 32 - 1))
def test_loss_along_is_the_loss_on_the_line(instance, seed):
    """f(E) + a1 t + a2 t^2 + a3 t^3 + a4 t^4 is the dense E objective f =
    loss + lambda_e ||E||^2 (lambda_e = 0.1) at E + t D to 1e-10 of the larger
    value, and a1 is <grad f(E), D>, read from one refresh at E, on sentences
    drawn as the E solve's metamorphic relations draw them: n = 1, no edge
    and repeated cells included."""
    w, x, model, e, _, _, _ = instance
    direction = np.random.default_rng(seed).normal(size=e.shape)
    p, r_tensor, alpha, lambda_e = model.P, model.R, model.hyper.alpha, model.hyper.lambda_e
    assert lambda_e > 0

    def objective(e):
        return reconstruction_loss_dense(w, x, p, r_tensor, e, alpha) + lambda_e * np.sum(e ** 2)
    refreshed, gram = update_E_sentence(w, x, model, e)
    a = loss_along(x, model, e, gram, refreshed - e, direction)
    at_e = objective(e)
    for t in (-1.0, 0.5, 1.0, 2.0):
        along = objective(e + t * direction)
        assert at_e + np.polyval([*a[::-1], 0.0], t) == \
            pytest.approx(along, rel=0, abs=1e-10 * max(at_e, along))
    gradient = loss_gradient_E_dense(w, x, p, r_tensor, e, alpha, lambda_e)
    assert a[0] == pytest.approx(np.sum(gradient * direction), rel=0,
                                 abs=1e-10 * np.linalg.norm(gradient) * np.linalg.norm(direction))


def fixed_corpus(w_cells, w_values, x_cells, x_values, n=3, c=3, d=2, r=2, sentences=1,
                 alpha=0.7, zero_e=False):
    """One sentence, or `sentences` copies of it, each with its own E (all
    zeros with zero_e)."""
    rng = np.random.default_rng(7)
    w, x = sentence(c, d, n, w_cells, w_values, x_cells, x_values)
    model = TypeEmbeddings(P=rng.normal(size=(c, r)), R=rng.normal(size=(d, r, r)),
                           frozen_p_rows=np.array([True] + [False] * (c - 1)),
                           hyper=Hyperparams(r=r, alpha=alpha))
    es = [rng.normal(size=(n, r)) for _ in range(sentences)]
    return [w] * sentences, [x] * sentences, [np.zeros_like(e) if zero_e else e for e in es], model


@pytest.mark.parametrize("corpus", [
    fixed_corpus([(0, 1), (0, 1)], [1.0, 2.5], [(1, 0, 2), (1, 0, 2)], [1.0, -1.0]),
    fixed_corpus([(2, 0)], [0.0], [(0, 1, 1)], [0.0]),
    fixed_corpus([(0, 0), (1, 0)], [1.0, 1.0], [], [], n=1),
    fixed_corpus([(1, 2)], [1.0], [], []),
    fixed_corpus([(0, 0), (1, 1), (2, 2)], [1.0, 1.0, 1.0],
                 [(0, 0, 1), (1, 1, 2)], [1.0, 0.5]),
    fixed_corpus(list(itertools.product(range(3), range(3))), np.linspace(-1, 1, 9),
                 list(itertools.product(range(2), range(3), range(3))),
                 np.linspace(2, 0, 18)),
    fixed_corpus([(0, 0), (1, 1), (2, 2)], [1.0, 1.0, 1.0],
                 [(0, 0, 1), (1, 1, 2)], [1.0, 0.5], r=3, sentences=12),
    fixed_corpus(list(itertools.product(range(3), range(3))), np.linspace(-1, 1, 9),
                 list(itertools.product(range(2), range(3), range(3))),
                 np.linspace(2, 0, 18), zero_e=True),
    fixed_corpus(list(itertools.product(range(3), range(3))), np.linspace(-1, 1, 9),
                 list(itertools.product(range(2), range(3), range(3))),
                 np.linspace(2, 0, 18), alpha=0.0),
], ids=["repeated-coordinates", "stored-zeros", "n=1", "no-relations",
        "every-row-and-relation", "every-cell", "12-sentences-at-r=3", "E=0", "alpha=0"])
def test_edge_cases_match_dense_forms(corpus):
    # E = 0 and alpha = 0 are the two cases where the E solve forms no
    # relation Gram
    check_against_dense(*corpus)


def entry_rows_by_entry(x, r_tensor, e):
    """entry_rows one entry at a time: (e_h R_k, e_t R_k^T) for each (k, h, t)
    in X's entry order."""
    forward, backward = np.zeros((2, x.nnz, e.shape[1]))
    for j, (k, h, t) in enumerate(zip(*x.coords)):
        forward[j], backward[j] = e[h] @ r_tensor[k], e[t] @ r_tensor[k].T
    return forward, backward


# drawn and pinned: n = 1, no X entry, a repeated cell (one entry holding the
# summed value) and stored zeros, which keep their rows
entry_examples = (
    fixed_corpus([(0, 0)], [1.0], [(1, 0, 0), (0, 0, 0)], [1.0, 2.0], n=1),
    fixed_corpus([(1, 2)], [1.0], [], []),
    fixed_corpus([(0, 1)], [1.0], [(1, 0, 2), (1, 0, 2), (0, 2, 1)], [1.0, -1.0, 0.5]),
    fixed_corpus([(2, 0)], [0.0], [(0, 1, 1), (1, 2, 0)], [0.0, 3.0]),
)


def pinned_entry_examples(test):
    for corpus in entry_examples:
        test = example(corpus=corpus)(test)
    return test


@settings(max_examples=150, deadline=None)
@given(corpus=corpora())
@pinned_entry_examples
def test_entry_rows_match_a_loop_over_the_entries(corpus):
    # each orientation is one call: E[heads] with R, and E[deps] with R
    # transposed
    _, xs, es, model = corpus
    for x, e in zip(xs, es):
        got = (entry_rows(x, model.R, e[x.heads]),
               entry_rows(x, model.R.transpose(0, 2, 1), e[x.deps]))
        for rows, want in zip(got, entry_rows_by_entry(x, model.R, e)):
            assert rows.shape == (x.nnz, e.shape[1])
            assert_matches(rows, want)


def entry_scatter_dense(w, x, p, r_tensor, e, alpha):
    """W^T P + alpha sum_k (X_k E R_k^T + X_k^T E R_k) from the dense W and X."""
    xd = x.to_dense()
    return w.to_dense().T @ p + alpha * sum(xd[k] @ e @ r_tensor[k].T + xd[k].T @ e @ r_tensor[k]
                                            for k in range(x.d))


@settings(max_examples=150, deadline=None)
@given(corpus=corpora())
@pinned_entry_examples
def test_entry_scatter_is_its_dense_form(corpus):
    ws, xs, es, model = corpus
    for w, x, e in zip(ws, xs, es):
        args = (w, x, model.P, model.R, e, model.hyper.alpha)
        assert_matches(entry_scatter(*args), entry_scatter_dense(*args))


def refreshes(corpus):
    """(W, X, E, refresh of E, its H, model) for each sentence of corpus."""
    ws, xs, es, model = corpus
    for w, x, e in zip(ws, xs, es):
        yield (w, x, e, *update_E_sentence(w, x, model, e), model)


@settings(max_examples=150, deadline=None)
@given(corpus=corpora())
@pinned_entry_examples
def test_refresh_returns_its_system_and_the_gradient(corpus):
    # H = P^T P + alpha G(E^T E) + lambda_e I, and the E objective's gradient
    # at E is -2 (refresh - E) H
    for w, x, e, refreshed, gram, model in refreshes(corpus):
        p, r_tensor, hyper = model.P, model.R, model.hyper
        assert hyper.lambda_e > 0
        assert_matches(gram, p.T @ p + hyper.alpha * relation_gram(r_tensor, e.T @ e)
                       + hyper.lambda_e * np.eye(hyper.r))
        assert_matches(-2.0 * (refreshed - e) @ gram,
                       loss_gradient_E_dense(w, x, p, r_tensor, e, hyper.alpha, hyper.lambda_e))


@settings(max_examples=150, deadline=None)
@given(corpus=corpora())
@pinned_entry_examples
def test_the_refresh_step_descends(corpus):
    # along step = refresh - E the slope is a1 = -2 <step H, step>, negative
    # unless the step is 0, since H is positive definite
    for _, x, e, refreshed, gram, model in refreshes(corpus):
        step = refreshed - e
        a1 = loss_along(x, model, e, gram, step, step)[0]
        assert a1 < 0 if step.any() else a1 == 0


def e_objective(w, x, model, e):
    return reconstruction_loss(w, x, model, e) + model.hyper.lambda_e * float(np.sum(e ** 2))


# criterion 06's oscillator: the raw refresh flips E between 1 and -1 forever
oscillator = (
    [SparsePropertyMatrix(c=1, n=1, rows=[], cols=[])],
    [SparseRelationTensor(d=1, n=1, rels=[0], heads=[0], deps=[0], values=[-1.5])],
    [np.array([[1.0]])],
    model_of(np.zeros((1, 1)), np.ones((1, 1, 1)), alpha=1.0, lambda_e=1.0),
)


@settings(max_examples=150, deadline=None)
@given(corpus=corpora())
@pinned_entry_examples
@example(corpus=oscillator)
def test_the_averaged_step_never_raises_the_E_objective(corpus):
    # the pinned examples hold n = 1, sentences with no X entry and a frozen P row
    ws, xs, es, model = corpus
    for w, x, e in zip(ws, xs, es):
        before = e_objective(w, x, model, e)
        assert e_objective(w, x, model, averaged_E_step(w, x, model, e)) <= before * (1 + 1e-12)


def discrete_corpus():
    """The corpus on which the deleted l1 R step raised the objective
    (278.02, 135.50, 112.01, 125.86), with the model it trained from."""
    data = generate(9, n_sentences=6, n_tokens=5, c=10, d=2, hyper=Hyperparams(r=4),
                    mode="discrete")
    return ([w for _, w, _ in data.sentences], [x for _, _, x in data.sentences], None,
            init_for_training(10, 2, Hyperparams(r=4), seed=0))


# R near 1e-99 makes the E line search's a3 and a4 rounding-sized beside a2:
# rooting its derivative in t moved E to t = 137 and raised the objective
# 0.476 -> 2.17 in round 2 (encoding.quartic_minimizer now roots in 1 / t)
tiny_relation = (
    [SparsePropertyMatrix(c=2, n=3, rows=[0], cols=[0], values=[1.0])],
    [SparseRelationTensor(d=1, n=3, rels=[0], heads=[0], deps=[0], values=[3.29247867e-99])],
    None,
    TypeEmbeddings(P=np.array([[-0.56776961], [-0.45264929]]), R=np.array([[[-0.21559716]]]),
                   frozen_p_rows=np.array([False, True]),
                   hyper=Hyperparams(r=1, alpha=1.4956965876775077, lambda_p=0.2023048179292631,
                                     lambda_r=0.4521053714460959)),
)


@settings(max_examples=150, deadline=None)
@given(corpus=corpora())
@pinned_entry_examples
@example(corpus=discrete_corpus())
@example(corpus=tiny_relation)
def test_no_als_round_raises_the_objective(corpus):
    # each block step (the E line search, P, R) minimizes the objective over
    # its block, so train never raises DivergenceError for a rise; the
    # pinned examples hold n = 1, a sentence with no X entry and a frozen P row
    ws, xs, _, model = corpus
    hyper = dataclasses.replace(model.hyper, max_rounds=6, rel_improvement_stop=-1.0)
    trace = train(ws, xs, dataclasses.replace(model, hyper=hyper)).trace
    assert len(trace) == 7
    assert all(b <= a * (1 + 1e-12) for a, b in zip(trace, trace[1:]))


def relation_gram_by_einsum(r_tensor, m):
    """sum_k R_k M R_k^T + R_k^T M R_k as update_E_sentence's Gram reads it."""
    return (np.einsum("kab,bc,kdc->ad", r_tensor, m, r_tensor)
            + np.einsum("kba,bc,kcd->ad", r_tensor, m, r_tensor))


def gram_operands(d, r, zero, seed):
    """R (d x r x r, all zero if zero) and three r x r matrices from seed."""
    rng = np.random.default_rng(seed)
    r_tensor = np.zeros((d, r, r)) if zero else rng.normal(size=(d, r, r))
    return r_tensor, rng.normal(size=(3, r, r))


gram_sizes = given(d=st.integers(1, 4), r=st.integers(1, 6), zero=st.booleans(),
                   seed=st.integers(0, 2 ** 32 - 1))


@settings(max_examples=150, deadline=None)
@gram_sizes
@example(d=1, r=1, zero=False, seed=0)
@example(d=1, r=1, zero=True, seed=1)
@example(d=1, r=4, zero=False, seed=2)
@example(d=3, r=1, zero=False, seed=3)
@example(d=3, r=4, zero=True, seed=4)
def test_relation_gram_is_its_einsum_definition(d, r, zero, seed):
    r_tensor, (a, _, _) = gram_operands(d, r, zero, seed)
    for m in (a, a + a.T):  # non-symmetric and symmetric
        assert_matches(relation_gram(r_tensor, m), relation_gram_by_einsum(r_tensor, m))


@settings(max_examples=150, deadline=None)
@gram_sizes
@example(d=1, r=1, zero=False, seed=0)
@example(d=2, r=3, zero=True, seed=1)
def test_relation_gram_pairs_as_documented(d, r, zero, seed):
    # <G(A), B> = sum_k <R_k, A R_k B> + <R_k, B R_k A> for symmetric A and
    # B, so 2 sum_k <R_k, A R_k A> at B = A (the objective's X total), each
    # to 1e-12 of its bound 2 sum_k ||R_k||^2 ||A|| ||B||
    r_tensor, (a, b, _) = gram_operands(d, r, zero, seed)
    a, b = a + a.T, b + b.T
    bound = 2e-12 * np.sum(r_tensor ** 2) * np.linalg.norm(a)
    assert np.sum(relation_gram(r_tensor, a) * b) == pytest.approx(
        np.sum(r_tensor * (a @ r_tensor @ b)) + np.sum(r_tensor * (b @ r_tensor @ a)),
        rel=0, abs=bound * np.linalg.norm(b))
    assert np.sum(relation_gram(r_tensor, a) * a) == pytest.approx(
        2.0 * np.sum(r_tensor * (a @ r_tensor @ a)), rel=0, abs=bound * np.linalg.norm(a))


@settings(max_examples=150, deadline=None)
@gram_sizes
@example(d=1, r=1, zero=False, seed=0)
@example(d=1, r=1, zero=True, seed=1)
@example(d=1, r=3, zero=False, seed=2)
def test_relation_gram_is_self_adjoint(d, r, zero, seed):
    # <G(A), B> = <A, G(B)> for non-symmetric A and B, to 1e-12 of the bound
    # 2 sum_k ||R_k||^2 ||A|| ||B|| on either side
    r_tensor, (a, b, _) = gram_operands(d, r, zero, seed)
    bound = 2e-12 * np.sum(r_tensor ** 2) * np.linalg.norm(a) * np.linalg.norm(b)
    assert np.sum(relation_gram(r_tensor, a) * b) == pytest.approx(
        np.sum(a * relation_gram(r_tensor, b)), rel=0, abs=bound)


def test_loss_along_builds_two_relation_grams(monkeypatch):
    # <G(M), N> is read from the refresh's H, so one call builds G(S) and
    # G(N) only
    built = []

    def counted(r_tensor, m):
        built.append(m)
        return relation_gram(r_tensor, m)

    (w,), (x,), (e,), model = sentence_of_length(12)
    refreshed, gram = update_E_sentence(w, x, model, e)
    monkeypatch.setattr(bove.encoding, "relation_gram", counted)
    loss_along(x, model, e, gram, refreshed - e, e[::-1])
    assert len(built) == 2


@settings(max_examples=100, deadline=None)
@given(corpora())
def test_fortran_ordered_operands_give_the_same_results(corpus):
    # the kernels' row scatters need C-ordered targets, whatever the
    # order of the P, R and E they are given
    ws, xs, es, model = corpus
    f_model = dataclasses.replace(model, P=np.asfortranarray(model.P),
                                  R=np.asfortranarray(model.R))
    f_es = [np.asfortranarray(e) for e in es]
    assert_matches(update_P(ws, f_es, f_model), update_P(ws, es, model))
    for w, x, e, f_e in zip(ws, xs, es, f_es):
        c_ordered, f_ordered = (w, x, model, e), (w, x, f_model, f_e)
        (f_new, f_gram), (c_new, c_gram) = (
            update_E_sentence(*operands) for operands in (f_ordered, c_ordered))
        assert_matches(f_new, c_new)
        assert_matches(f_gram, c_gram)
        assert reconstruction_loss(*f_ordered) == pytest.approx(
            reconstruction_loss(*c_ordered), rel=1e-10)
        direction = e[::-1] + 1.0
        assert_matches(
            np.array(loss_along(x, f_model, f_e, np.asfortranarray(f_gram),
                                np.asfortranarray(f_new - f_e), np.asfortranarray(direction))),
            np.array(loss_along(x, model, e, c_gram, c_new - e, direction)))


def sentence_of_length(n, c=300, d=40, r=10):
    """One sentence of n tokens with a word and a PoS entry per token, and
    two labeled edges into each token but the first: one from a random
    earlier token and one from its left neighbour.  At n=200 one dense X
    is 12.8 MB."""
    rng = np.random.default_rng(0)
    w_cells = [(int(rng.integers(c)), t) for t in range(n) for _ in range(2)]
    x_cells = [(int(rng.integers(d)), head, t) for t in range(1, n)
               for head in (int(rng.integers(t)), t - 1)]
    w, x = sentence(c, d, n, w_cells, None, x_cells, None)
    model = TypeEmbeddings(P=rng.normal(size=(c, r)), R=rng.normal(size=(d, r, r)),
                           frozen_p_rows=np.zeros(c, dtype=bool), hyper=Hyperparams(r=r))
    return [w], [x], [rng.normal(size=(n, r))], model


@pytest.fixture
def long_sentence():
    return sentence_of_length(200)


KERNELS = {
    "update_P": lambda ws, xs, es, model: update_P(ws, es, model),
    "update_R": lambda ws, xs, es, model: update_R(xs, es, model),
    "corpus_objective": lambda ws, xs, es, model: corpus_objective(ws, xs, es, model),
    "update_E_sentence": lambda ws, xs, es, model: update_E_sentence(
        ws[0], xs[0], model, es[0]),
    # any r x r H and n x r step do: the kernel's memory is its direction's
    "loss_along": lambda ws, xs, es, model: loss_along(
        xs[0], model, es[0], model.P.T @ model.P, es[0], es[0][::-1]),
    "entry_rows": lambda ws, xs, es, model: entry_rows(xs[0], model.R, es[0][xs[0].heads]),
    "entry_scatter": lambda ws, xs, es, model: entry_scatter(
        ws[0], xs[0], model.P, model.R, es[0], model.hyper.alpha),
}


def test_kernels_never_densify(monkeypatch, long_sentence):
    def refuse(tensor):
        raise AssertionError("%s densified" % type(tensor).__name__)

    monkeypatch.setattr(_CoordinateTensor, "to_dense", refuse)
    for kernel in KERNELS.values():
        kernel(*long_sentence)


def traced_peak(kernel, corpus):
    """tracemalloc peak, in bytes, of one kernel call on corpus."""
    tracemalloc.start()
    try:
        kernel(*corpus)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_kernel_memory_stays_small(name, long_sentence):
    assert traced_peak(KERNELS[name], long_sentence) < 2e6


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_kernel_peak_grows_at_most_linearly_with_the_entries(name):
    # n -> 8n tokens with entries proportional to n: a kernel linear in its
    # entries grows its peak about 8x, one quadratic in n about 64x
    small, large = (traced_peak(KERNELS[name], sentence_of_length(n)) for n in (200, 1600))
    assert large <= 10 * small


def test_objective_memory_stays_small_on_a_long_sentence():
    # 3,200 tokens: one n x n slice product alone would be 82 MB
    assert traced_peak(KERNELS["corpus_objective"], sentence_of_length(3200)) < 5e6


def r_weights(r, d, lambda_r, alpha):
    """A model carrying update_R's weights; its P and R (zeros) go unread."""
    return model_of(np.zeros((1, r)), np.zeros((d, r, r)), lambda_r=lambda_r, alpha=alpha)


def r_step_corpus(r, d, n_sentences, n_tokens=12, seed=1):
    """n_sentences generated sentences of n_tokens tokens and d relations,
    each with its own E drawn from seed."""
    data = generate(3, n_sentences=n_sentences, n_tokens=n_tokens, c=20, d=d,
                    hyper=Hyperparams(r=r))
    rng = np.random.default_rng(seed)
    xs = [x for _, _, x in data.sentences]
    return xs, [rng.normal(size=(n_tokens, r)) for _ in xs]


def normal_equation_residual(xs, es, lambda_r, alpha, r_tensor):
    """||alpha sum_s G_s R_k G_s + lambda_r R_k - B|| / ||B||, with G_s = E_s^T E_s
    and B_k = alpha sum_s E_s^T X_sk E_s from the dense X."""
    lhs = lambda_r * r_tensor
    rhs = np.zeros_like(r_tensor)
    for x, e in zip(xs, es):
        g = e.T @ e
        lhs += alpha * g @ r_tensor @ g
        rhs += alpha * np.einsum("ia,kij,jb->kab", e, x.to_dense(), e)
    return np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs)


def test_update_R_peak_is_linear_in_d_and_S():
    # O((d + S) r^2): the iterate and its few companions are d x r x r, the
    # stacked sentence Grams S x r x r.  One r^2 x r^2 array alone would be
    # r^4 x 8 bytes, 6.5 MB at r = 30.
    r = 30
    for d, n_sentences in ((3, 8), (20, 2)):
        xs, es = r_step_corpus(r, d, n_sentences)
        model = r_weights(r, d, 0.1, 0.7)
        assert traced_peak(update_R, (xs, es, model)) < 8 * (d + n_sentences) * r ** 2 * 8


def test_update_R_runs_above_the_old_rank_cap():
    # r = 101, one past the retired ALS cap: the dense Kronecker system and
    # its factor would take 2 x 101^4 x 8 bytes, 1.7 GB
    r, d = 101, 2
    xs, es = r_step_corpus(r, d, 4)
    model = r_weights(r, d, 0.1, 0.7)
    got = traced_peak(update_R, (xs, es, model))
    assert got < 8 * (d + len(xs)) * r ** 2 * 8
    assert normal_equation_residual(xs, es, 0.1, 0.7, update_R(xs, es, model)) < 1e-12


MAGNITUDES = (1e-148, 1.0, 1e100)


@st.composite
def r_systems(draw):
    """update_R's inputs at r <= 30: 1-3 sentences of 1-4 tokens, each with
    up to 8 X entries or none, the entries' magnitudes drawn from
    MAGNITUDES, and E, alpha and lambda_r from a drawn seed.  With
    lambda_r = 0 one more sentence of 2r tokens makes the system
    nonsingular."""
    r, d = draw(st.integers(1, 30)), draw(st.integers(1, 3))
    ridge = draw(st.booleans())
    lengths = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    if not ridge:
        lengths.append(2 * r)
    xs = []
    for n in lengths:
        token = st.integers(0, n - 1)
        cells = draw(st.lists(st.tuples(st.integers(0, d - 1), token, token), max_size=8))
        values = [draw(st.floats(-4, 4, allow_nan=False)) * draw(st.sampled_from(MAGNITUDES))
                  for _ in cells]
        xs.append(sentence(1, d, n, [], [], cells, values)[1])
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    es = [rng.normal(size=(n, r)) for n in lengths]
    return xs, es, rng.uniform(0.1, 1) if ridge else 0.0, rng.uniform(0.1, 2)


@settings(max_examples=150, deadline=None)
@given(r_systems())
def test_update_R_matches_the_dense_solve(system):
    xs, es, lambda_r, alpha = system
    assert_matches(update_R(xs, es, r_weights(es[0].shape[1], xs[0].d, lambda_r, alpha)),
                   update_R_dense(*system))


# model.hyper is the one source of the weights, the inference cap and the
# objective's mode, the model the one source of P and R, and an SGD batch
# and its E store the one source of the batch's share of the corpus
DUPLICATES = ("alpha", "lambda_p", "lambda_r", "lambda_e", "iters", "p", "r_tensor",
              "p_current", "frozen", "data_fit_only", "reg_scale")


@pytest.mark.parametrize("kernel", [
    update_E_sentence, averaged_E_step, update_P, update_R, reconstruction_loss, loss_along,
    infer_bove, corpus_objective, sampled_loss_and_grads, sgd_step,
], ids=lambda kernel: kernel.__name__)
def test_kernels_take_the_model_and_no_weight_of_their_own(kernel):
    parameters = inspect.signature(kernel).parameters
    assert "model" in parameters
    assert not [name for name in parameters
                if name in DUPLICATES or name.startswith("lambda_")]
    assert all(p.default is inspect.Parameter.empty for p in parameters.values())

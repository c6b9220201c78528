"""Metamorphic relations of the E solve.

Each relation changes a sentence and the model in a way whose effect on the
solved token embeddings is known, so infer_bove, averaged_E_step and one
update_E_sentence solve are checked without a reference solver:
- token relabeling: renaming the tokens permutes the rows of E;
- edge reversal: swapping heads and dependents and transposing every R_k
  leaves E unchanged;
- orthogonal gauge: P -> PQ and R_k -> Q^T R_k Q give E -> EQ;
- predicate relabeling: permuting P's rows and W's row ids leaves E
  unchanged.
One solve and the averaged step follow each relation to rounding (1e-12);
infer_bove to INFER_BOUND, since it stops near the fixed point, not at it.
The P and R steps follow the gauge and the relabelings too, and ALS
training the gauge; ALS training on the sentences in another order
permutes only the E store; and SGD's batch gradients are the sum of its
sentences' own.
See Chen et al., "Metamorphic Testing: A Review of Challenges and
Opportunities" (ACM Computing Surveys 2018).
"""

import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bove import synth
from bove.als import averaged_E_step, train, update_E_sentence, update_P, update_R
from bove.encoding import SparsePropertyMatrix, SparseRelationTensor
from bove.inference import TOL, infer_bove
from bove.model import Hyperparams, TypeEmbeddings, init_for_training
from bove.sgd import sample_cells, sampled_loss_and_grads


def sentence_cells(draw, c, d, n):
    """The W cells and X cells of one sentence of n tokens.  As in a parsed
    sentence, X holds at most n - 1 edges besides a repeat and no self-loop;
    W or X may repeat a cell."""
    token = st.integers(0, n - 1)
    w_cells = draw(st.lists(st.tuples(st.integers(0, c - 1), token), min_size=1, max_size=12))
    # a dependent is its head plus a nonzero offset, modulo n
    x_cells = [(k, head, (head + offset) % n) for k, head, offset in draw(st.lists(
        st.tuples(st.integers(0, d - 1), token, st.integers(1, max(n - 1, 1))),
        max_size=n - 1))]
    for cells in (w_cells, x_cells):
        if cells and draw(st.booleans()):
            cells.append(cells[0])
    return w_cells, x_cells


def sentence_tensors(c, d, n, w_cells, x_cells, rng):
    """(W, X) of one sentence's cells, each entry valued in [0.5, 1.5)."""
    rows, cols = np.array(w_cells, dtype=np.int64).reshape(-1, 2).T
    rels, heads, deps = np.array(x_cells, dtype=np.int64).reshape(-1, 3).T
    w = SparsePropertyMatrix(c=c, n=n, rows=rows, cols=cols,
                             values=rng.uniform(0.5, 1.5, size=len(rows)))
    x = SparseRelationTensor(d=d, n=n, rels=rels, heads=heads, deps=deps,
                             values=rng.uniform(0.5, 1.5, size=len(rels)))
    return w, x


@st.composite
def instances(draw):
    """(W, X, model, start E, token permutation, predicate permutation,
    orthogonal r x r Q).

    n = 1 is included, X may hold no edge and W or X may repeat a
    coordinate; lambda_e is 0.1.  The arrays come from a drawn seed.  The
    cells are drawn as sentence_cells draws them, and P and R as synth draws
    its ground truth.  On stronger relation blocks (self-loops, or R of unit
    scale) the averaged step need not contract, and then amplifies rounding
    past 1e-12.
    """
    c, d = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    n, r = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    cells = sentence_cells(draw, c, d, n)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    w, x = sentence_tensors(c, d, n, *cells, rng)
    model = TypeEmbeddings(
        P=rng.uniform(-1.0, 1.0, size=(c, r)) / np.sqrt(r),
        R=rng.uniform(-1.0, 1.0, size=(d, r, r)) / r,
        frozen_p_rows=np.zeros(c, dtype=bool),
        hyper=Hyperparams(r=r, alpha=rng.uniform(0.5, 1.5), lambda_e=0.1))
    q, _ = np.linalg.qr(rng.normal(size=(r, r)))
    return w, x, model, rng.normal(size=(n, r)), rng.permutation(n), rng.permutation(c), q


@st.composite
def corpora(draw):
    """One to three sentences on shared c, d and r, each drawn as
    sentence_cells draws it, with E and a current P drawn as synth draws its
    ground truth, some P rows frozen, alpha, a predicate and a relation
    permutation and an orthogonal r x r Q.  The arrays come from a drawn seed."""
    c, d, r = draw(st.integers(1, 5)), draw(st.integers(1, 3)), draw(st.integers(1, 5))
    lengths = draw(st.lists(st.integers(1, 6), min_size=1, max_size=3))
    cells = [sentence_cells(draw, c, d, n) for n in lengths]
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    ws, xs = zip(*(sentence_tensors(c, d, n, *sentence, rng)
                   for n, sentence in zip(lengths, cells)))
    q, _ = np.linalg.qr(rng.normal(size=(r, r)))
    return types.SimpleNamespace(
        ws=list(ws), xs=list(xs), es=[rng.uniform(-1.0, 1.0, size=(n, r)) for n in lengths],
        p=rng.uniform(-1.0, 1.0, size=(c, r)) / np.sqrt(r), frozen=rng.random(c) < 0.3,
        alpha=rng.uniform(0.5, 1.5), predicates=rng.permutation(c),
        relations=rng.permutation(d), q=q)


def with_parameters(model, p, r_tensor):
    return TypeEmbeddings(P=p, R=r_tensor, frozen_p_rows=model.frozen_p_rows,
                          hyper=model.hyper)


# infer_bove returns E once a refresh moves it by at most TOL of its norm.
# Such an E lies about |(I - J)^-1| TOL |E| from the fixed point, J the
# refresh's Jacobian there, and two runs of one problem, whose rounding
# differs, need not stop at the same solve.  On 2,000 drawn instances |E|
# stayed below 2.8 times E's largest entry and |(I - J)^-1| had a median of
# 2.2 and a 99th percentile of 74, so the infer relations are held to 1e3
# TOL of the largest entry; over 20,000 draws of each the worst was 1.7e-6.
# The cap lets nearly every draw converge (1 in 20,000 needed more solves).
INFER_BOUND = 1e3 * TOL
INFER_CAP = 1000


def infer(w, x, model, e_start):
    return infer_bove(w, x, model, iters=INFER_CAP)


def averaged_step(w, x, model, e_start):
    hyper = model.hyper
    return averaged_E_step(w, x, model.P, model.R, e_start, hyper.alpha, hyper.lambda_e)


def one_solve(w, x, model, e_start):
    hyper = model.hyper
    return update_E_sentence(w, x, model.P, model.R, e_start, hyper.alpha, hyper.lambda_e)


SOLVERS = pytest.mark.parametrize("solve", [infer, averaged_step, one_solve])


def assert_close(got, want, solve=None):
    """Equal to 1e-12 (to INFER_BOUND for infer) relative to the largest
    entry of the reference."""
    bound = INFER_BOUND if solve is infer else 1e-12
    np.testing.assert_allclose(got, want, rtol=0, atol=bound * np.abs(want).max())


@SOLVERS
@settings(max_examples=100, deadline=None)
@given(instance=instances())
def test_token_relabeling_permutes_the_rows_of_E(solve, instance):
    w, x, model, e_start, perm, _, _ = instance
    renamed_w = SparsePropertyMatrix(c=w.c, n=w.n, rows=w.rows, cols=perm[w.cols],
                                     values=w.values)
    renamed_x = SparseRelationTensor(d=x.d, n=x.n, rels=x.rels, heads=perm[x.heads],
                                     deps=perm[x.deps], values=x.values)
    renamed_start = np.empty_like(e_start)
    renamed_start[perm] = e_start
    got = solve(renamed_w, renamed_x, model, renamed_start)
    assert_close(got[perm], solve(w, x, model, e_start), solve)


@SOLVERS
@settings(max_examples=100, deadline=None)
@given(instance=instances())
def test_edge_reversal_leaves_E_unchanged(solve, instance):
    w, x, model, e_start, _, _, _ = instance
    reversed_x = SparseRelationTensor(d=x.d, n=x.n, rels=x.rels, heads=x.deps,
                                      deps=x.heads, values=x.values)
    transposed = with_parameters(model, model.P, model.R.transpose(0, 2, 1))
    assert_close(solve(w, reversed_x, transposed, e_start), solve(w, x, model, e_start),
                 solve)


@SOLVERS
@settings(max_examples=100, deadline=None)
@given(instance=instances())
def test_orthogonal_gauge_rotates_E(solve, instance):
    w, x, model, e_start, _, _, q = instance
    rotated = with_parameters(model, model.P @ q, q.T @ model.R @ q)
    assert_close(solve(w, x, rotated, e_start @ q), solve(w, x, model, e_start) @ q, solve)


@SOLVERS
@settings(max_examples=100, deadline=None)
@given(instance=instances())
def test_predicate_relabeling_leaves_E_unchanged(solve, instance):
    w, x, model, e_start, _, perm, _ = instance
    renamed_w = SparsePropertyMatrix(c=w.c, n=w.n, rows=perm[w.rows], cols=w.cols,
                                     values=w.values)
    renamed_p = np.empty_like(model.P)
    renamed_p[perm] = model.P
    renamed = with_parameters(model, renamed_p, model.R)
    assert_close(solve(renamed_w, x, renamed, e_start), solve(w, x, model, e_start), solve)


# The P and R steps: each ridge is invariant under the gauge and the
# relabelings, so the exact minimizers follow them.
LAMBDA = 0.1


@settings(max_examples=100, deadline=None)
@given(corpus=corpora())
def test_orthogonal_gauge_rotates_P(corpus):
    rotated_es = [e @ corpus.q for e in corpus.es]
    got = update_P(corpus.ws, rotated_es, LAMBDA, corpus.p @ corpus.q, corpus.frozen)
    want = update_P(corpus.ws, corpus.es, LAMBDA, corpus.p, corpus.frozen)
    assert_close(got, want @ corpus.q)


@settings(max_examples=100, deadline=None)
@given(corpus=corpora())
def test_predicate_relabeling_permutes_the_rows_of_P(corpus):
    perm = corpus.predicates
    renamed_ws = [SparsePropertyMatrix(c=w.c, n=w.n, rows=perm[w.rows], cols=w.cols,
                                       values=w.values) for w in corpus.ws]
    renamed_p, renamed_frozen = np.empty_like(corpus.p), np.empty_like(corpus.frozen)
    renamed_p[perm], renamed_frozen[perm] = corpus.p, corpus.frozen
    got = update_P(renamed_ws, corpus.es, LAMBDA, renamed_p, renamed_frozen)
    assert_close(got[perm], update_P(corpus.ws, corpus.es, LAMBDA, corpus.p, corpus.frozen))


@settings(max_examples=100, deadline=None)
@given(corpus=corpora())
def test_orthogonal_gauge_rotates_R(corpus):
    q = corpus.q
    got = update_R(corpus.xs, [e @ q for e in corpus.es], LAMBDA, corpus.alpha)
    assert_close(got, q.T @ update_R(corpus.xs, corpus.es, LAMBDA, corpus.alpha) @ q)


@settings(max_examples=100, deadline=None)
@given(corpus=corpora())
def test_relation_relabeling_permutes_the_slices_of_R(corpus):
    perm = corpus.relations
    renamed_xs = [SparseRelationTensor(d=x.d, n=x.n, rels=perm[x.rels], heads=x.heads,
                                       deps=x.deps, values=x.values) for x in corpus.xs]
    got = update_R(renamed_xs, corpus.es, LAMBDA, corpus.alpha)
    assert_close(got[perm], update_R(corpus.xs, corpus.es, LAMBDA, corpus.alpha))


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_als_train_from_a_rotated_start_rotates_P_and_R(seed):
    """Five ALS rounds from P Q and Q^T R_k Q end at P Q and Q^T R_k Q of the
    rounds from P and R, with the same objective trace, to 1e-10."""
    data = synth.generate(9, n_sentences=6, n_tokens=5, c=10, d=2, r=4)
    ws = [w for _, w, _ in data.sentences]
    xs = [x for _, _, x in data.sentences]
    hyper = Hyperparams(r=4, max_rounds=5, rel_improvement_stop=0.0)
    start = init_for_training(types.SimpleNamespace(c=10, d=2), hyper, seed=0)
    rng = np.random.default_rng(seed)
    start.R = rng.uniform(-1.0, 1.0, size=start.R.shape) / hyper.r
    q, _ = np.linalg.qr(rng.normal(size=(hyper.r, hyper.r)))
    base = train(ws, xs, start, hyper)
    rotated = train(ws, xs, with_parameters(start, start.P @ q, q.T @ start.R @ q), hyper)
    for got, want in ((rotated.model.P, base.model.P @ q),
                      (rotated.model.R, q.T @ base.model.R @ q)):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-10 * np.abs(want).max())
    np.testing.assert_allclose(rotated.trace, base.trace, rtol=1e-10)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), perm=st.permutations(range(6)))
def test_als_train_on_a_permuted_corpus_permutes_the_E_store(seed, perm):
    """Five ALS rounds on the sentences in another order give the same P, R
    and objective trace, and the E store in that order, to 1e-10."""
    data = synth.generate(seed, n_sentences=6, n_tokens=5, c=10, d=2, r=4,
                          mode="discrete")
    hyper = Hyperparams(r=4, max_rounds=5, rel_improvement_stop=0.0)
    start = init_for_training(types.SimpleNamespace(c=10, d=2), hyper, seed=0)
    base, permuted = (train([data.sentences[s][1] for s in sentences],
                            [data.sentences[s][2] for s in sentences], start, hyper)
                      for sentences in (range(6), perm))
    pairs = [(permuted.model.P, base.model.P), (permuted.model.R, base.model.R)]
    pairs += [(e, base.e_store[s]) for e, s in zip(permuted.e_store, perm, strict=True)]
    for got, want in pairs:
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-10 * np.abs(want).max())
    np.testing.assert_allclose(permuted.trace, base.trace, rtol=1e-10)


@settings(max_examples=200, deadline=None)
@given(corpus=corpora(), k=st.integers(0, 3), seed=st.integers(0, 2 ** 32 - 1))
def test_sgd_batch_gradients_are_the_sum_of_one_sentence_gradients(corpus, k, seed):
    """With lambda_p = lambda_r = 0, sampled_loss_and_grads on a batch is the
    sum of its one-sentence calls on the same samples: the loss, g_p and g_r
    add up and each sentence's g_e is its own call's.  A sentence whose E
    rows are read at another sentence's offset breaks it."""
    rng = np.random.default_rng(seed)
    d, r = corpus.xs[0].d, corpus.p.shape[1]
    model = TypeEmbeddings(
        P=corpus.p, R=rng.uniform(-1.0, 1.0, size=(d, r, r)) / r, frozen_p_rows=corpus.frozen,
        hyper=Hyperparams(r=r, alpha=corpus.alpha, lambda_p=0.0, lambda_r=0.0, lambda_e=0.1))
    batch = [int(s) for s in rng.permutation(len(corpus.ws))]
    samples = {s: sample_cells(corpus.ws[s], corpus.xs[s], k, rng) for s in batch}
    loss, g_p, g_r, g_e = sampled_loss_and_grads(batch, samples, model, corpus.es,
                                                 model.hyper, 1.0)
    alone = [sampled_loss_and_grads([s], samples, model, corpus.es, model.hyper, 1.0)
             for s in batch]
    assert loss == pytest.approx(sum(one[0] for one in alone), rel=1e-12, abs=0)
    # the sentences' gradients can cancel, so the sum is held to 1e-12 of
    # the largest term
    for got, parts in ((g_p, [one[1] for one in alone]), (g_r, [one[2] for one in alone])):
        scale = max(np.abs(part).max() for part in parts)
        np.testing.assert_allclose(got, sum(parts), rtol=0, atol=1e-12 * scale)
    for s, one in zip(batch, alone):
        assert_close(g_e[s], one[3][s])


def test_infer_bove_returns_a_fixed_point():
    """One token with ten W entries and no edge, P and R at the scale of
    instances().  A fixed point exists (a 0.3-damped iteration reaches it to
    1e-16), but there the raw refresh's Jacobian has an eigenvalue of -4.77,
    -1.89 after a 0.5 damping, so neither the raw nor the midpoint iteration
    converges: the midpoint's relative step is 0.76 at solve 30 and 0.80 at
    solve 400.  infer_bove's objective check reaches it within its cap."""
    w = SparsePropertyMatrix(c=3, n=1, rows=[0, 1, 0, 0, 2, 1, 1, 2, 0, 2], cols=[0] * 10,
                             values=[0.76, 0.92, 0.95, 1.46, 1.39, 0.78, 0.78, 0.92, 0.5, 0.81])
    x = SparseRelationTensor(d=2, n=1, rels=[], heads=[], deps=[])
    model = TypeEmbeddings(
        P=np.array([[0.52, 0.39, 0.04], [-0.02, 0.51, 0.11], [0.51, 0.57, -0.54]]),
        R=np.array([[[-0.25, 0.17, -0.25], [-0.11, -0.13, 0.03], [-0.3, -0.03, 0.04]],
                    [[-0.25, -0.11, 0.0], [-0.13, -0.05, -0.06], [-0.27, 0.06, -0.28]]]),
        frozen_p_rows=np.zeros(3, dtype=bool), hyper=Hyperparams(r=3, alpha=1.08, lambda_e=0.1))
    e = infer_bove(w, x, model)
    step = one_solve(w, x, model, e) - e
    assert np.linalg.norm(step) / np.linalg.norm(e) < 1e-6

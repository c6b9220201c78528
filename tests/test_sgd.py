import itertools
import math
import tracemalloc
import types
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bove import encoding, sgd, synth
from bove.als import corpus_objective
from bove.encoding import SparsePropertyMatrix, SparseRelationTensor, from_dense
from bove.errors import BoveError, DivergenceError
from bove.model import Hyperparams, init_for_training
from bove.sgd import (
    SgdConfig,
    SgdState,
    sample_cells,
    sampled_loss_and_grads,
    sgd_step,
    train_sgd,
)
from oracles import adagrad_step, sampled_loss_and_grads_by_cell


def micro_corpus(seed=0, n_sentences=2, n=3, c=4, d=2, r=2, mode="discrete"):
    data = synth.generate(seed, n_sentences=n_sentences, n_tokens=n, c=c, d=d,
                          hyper=Hyperparams(r=r), mode=mode)
    ws = [w for _, w, _ in data.sentences]
    xs = [x for _, _, x in data.sentences]
    return ws, xs


def finite_difference_check(batch, samples, model, e_store, h=1e-5):
    """Max relative error between analytic and central-difference gradients."""
    _, g_p, g_r, g_e = sampled_loss_and_grads(batch, samples, model, e_store)

    def loss():
        return sampled_loss_and_grads(batch, samples, model, e_store)[0]

    worst = 0.0
    arrays = [(model.P, g_p), (model.R, g_r)]
    arrays += [(e_store[s], g_e[s]) for s in batch]
    for arr, grad in arrays:
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            if arr is model.P and model.frozen_p_rows[idx[0]]:
                continue
            orig = arr[idx]
            arr[idx] = orig + h
            up = loss()
            arr[idx] = orig - h
            down = loss()
            arr[idx] = orig
            fd = (up - down) / (2 * h)
            denom = max(abs(fd), abs(grad[idx]), 1e-6)
            worst = max(worst, abs(fd - grad[idx]) / denom)
    return worst


class TestGradients:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        ws, xs = micro_corpus()
        hyper = Hyperparams(r=2, alpha=0.7, lambda_p=0.3, lambda_r=0.2,
                            lambda_e=0.15)
        model = init_for_training(4, 2, hyper, seed=1)
        model.R = rng.normal(size=model.R.shape) * 0.3
        e_store = [rng.normal(size=(3, 2)) for _ in ws]
        batch = [0, 1]
        samples = {s: sample_cells(ws[s], xs[s], 3, rng) for s in batch}
        worst = finite_difference_check(batch, samples, model, e_store)
        assert worst < 1e-4

    def test_zero_gradient_at_exact_fit(self):
        # positive-only sampling (k=0), no regularizers, ground-truth model
        hyper = Hyperparams(r=2, alpha=1.0, lambda_p=0.0, lambda_r=0.0,
                            lambda_e=0.0)
        data = synth.generate(3, n_sentences=1, n_tokens=3, c=4, d=2, hyper=hyper)
        sid, w, x = data.sentences[0]
        model = data.model.copy()
        e_store = [data.e_true[0]]
        rng = np.random.default_rng(0)
        samples = {0: sample_cells(w, x, 0, rng)}
        loss, g_p, g_r, g_e = sampled_loss_and_grads([0], samples, model, e_store)
        assert loss == pytest.approx(0.0, abs=1e-18)
        np.testing.assert_allclose(g_p, 0, atol=1e-12)
        np.testing.assert_allclose(g_r, 0, atol=1e-12)
        np.testing.assert_allclose(g_e[0], 0, atol=1e-12)

    def test_repeated_coordinates_fit_the_summed_cell(self):
        # a cell listed more than once is one cell holding the entries' sum,
        # as to_dense sums them: k=0 loss and gradients equal the dense
        # entry-cell values, those of the duplicate-free tensors
        w = SparsePropertyMatrix(c=3, n=2, rows=[0, 0, 2, 0], cols=[1, 1, 0, 1],
                                 values=[0.5, 0.25, 2.0, 0.25])
        x = SparseRelationTensor(d=2, n=2, rels=[1, 1, 0], heads=[0, 0, 1], deps=[1, 1, 1],
                                 values=[0.3, 0.7, -1.0])
        hyper = Hyperparams(r=2, alpha=0.7, lambda_p=0.0, lambda_r=0.0, lambda_e=0.0)
        rng = np.random.default_rng(5)
        model = init_for_training(3, 2, hyper, seed=6)
        model.R = rng.normal(size=model.R.shape)
        e_store = [rng.normal(size=(2, 2))]

        def at_k0(w, x):
            samples = {0: sample_cells(w, x, 0, np.random.default_rng(0))}
            return sampled_loss_and_grads([0], samples, model, e_store)

        loss, g_p, g_r, g_e = at_k0(w, x)
        w_dense, x_dense = w.to_dense(), x.to_dense()
        e = e_store[0]
        expected = sum((model.P[i] @ e[t] - w_dense[i, t]) ** 2 for i, t in {(0, 1), (2, 0)})
        expected += hyper.alpha * sum((e[h] @ model.R[k] @ e[t] - x_dense[k, h, t]) ** 2
                                      for k, h, t in {(1, 0, 1), (0, 1, 1)})
        assert loss == pytest.approx(expected, rel=1e-12)
        ref_loss, ref_p, ref_r, ref_e = at_k0(*from_dense(w_dense, x_dense))
        assert loss == pytest.approx(ref_loss, rel=1e-12)
        for grad, ref in ((g_p, ref_p), (g_r, ref_r), (g_e[0], ref_e[0])):
            np.testing.assert_allclose(grad, ref, rtol=1e-12, atol=1e-14)

    def test_frozen_rows_receive_no_gradient(self):
        rng = np.random.default_rng(1)
        ws, xs = micro_corpus()
        hyper = Hyperparams(r=2)
        model = init_for_training(4, 2, hyper, seed=2)
        model.frozen_p_rows[0] = True
        e_store = [rng.normal(size=(3, 2)) for _ in ws]
        samples = {s: sample_cells(ws[s], xs[s], 2, rng) for s in (0, 1)}
        _, g_p, _, _ = sampled_loss_and_grads([0, 1], samples, model, e_store)
        np.testing.assert_array_equal(g_p[0], 0.0)


def assert_close(actual, expected):
    """Equal to 1e-10 relative to the largest entry of expected."""
    scale = np.max(np.abs(expected), initial=0.0)
    np.testing.assert_allclose(actual, expected, rtol=1e-10, atol=1e-10 * scale)


def random_tensor(cls, sizes, entries, data):
    """Coordinate tensor of `entries` cells drawn with replacement, so
    coordinates repeat."""
    coords = [data.integers(sizes[size], size=entries) for _, size, _ in cls.AXES]
    return cls._build(sizes, (*coords, data.normal(size=entries)))


class TestAgainstCellLoop:
    @settings(max_examples=150, deadline=None)
    @given(c=st.integers(1, 5), d=st.integers(1, 3), r=st.integers(1, 3),
           sentences=st.lists(st.tuples(st.integers(1, 5), st.integers(0, 8),
                                        st.integers(0, 8)), min_size=1, max_size=4),
           k=st.integers(0, 3), frozen=st.lists(st.booleans(), min_size=5, max_size=5),
           seed=st.integers(0, 2 ** 32))
    def test_matches_per_cell_loop(self, c, d, r, sentences, k, frozen, seed):
        # sentences: (tokens, W entries, X entries); 0 X entries is a
        # sentence without relation edges, and entries repeat coordinates
        data = np.random.default_rng(seed)
        ws = [random_tensor(SparsePropertyMatrix, {"c": c, "n": n}, w_nnz, data)
              for n, w_nnz, _ in sentences]
        xs = [random_tensor(SparseRelationTensor, {"d": d, "n": n}, x_nnz, data)
              for n, _, x_nnz in sentences]
        hyper = Hyperparams(r=r, alpha=data.uniform(0, 2),
                            lambda_p=data.uniform(0, 1), lambda_r=data.uniform(0, 1),
                            lambda_e=data.uniform(0, 1))
        model = init_for_training(c, d, hyper, seed=seed)
        model.R = data.normal(size=model.R.shape)
        model.frozen_p_rows[:] = frozen[:c]
        e_store = [data.normal(size=(n, r)) for n, _, _ in sentences]
        # a shuffled batch of some or all of the sentences, so the P and R
        # terms are scaled by the batch's share of the store, below 1 or at 1
        size = data.integers(1, len(sentences) + 1)
        batch = [int(s) for s in data.permutation(len(sentences))[:size]]
        samples = {s: sample_cells(ws[s], xs[s], k, data) for s in batch}
        loss, g_p, g_r, g_e = sampled_loss_and_grads(batch, samples, model, e_store)
        ref_loss, ref_p, ref_r, ref_e = sampled_loss_and_grads_by_cell(
            batch, samples, model, e_store, size / len(e_store))
        assert loss == pytest.approx(ref_loss, rel=1e-10)
        assert_close(g_p, ref_p)
        assert_close(g_r, ref_r)
        assert sorted(g_e) == sorted(ref_e)
        for s in batch:
            assert_close(g_e[s], ref_e[s])

    def test_batch_memory_stays_bounded(self):
        # 8 sentences of 200 tokens, d=40, r=50: one dense d x n x n array
        # is 12.8 MB, and one E row per X cell of the batch about 7.7 MB
        assert batch_peak(200) < 8e6


def batch_instance(n, c=300, d=40, r=50, sentences=8, seed=0):
    """Sentences of n tokens with 2 W entries and 2 X entries per token (a
    dependency edge into every token, and an adjacency edge), a model at
    rank r, E rows and the rng that draws the rest: (ws, xs, model,
    e_store, rng)."""
    rng = np.random.default_rng(seed)
    tokens = np.arange(n)
    ws = [SparsePropertyMatrix(c=c, n=n, rows=rng.integers(c, size=2 * n),
                               cols=np.repeat(tokens, 2)) for _ in range(sentences)]
    xs = [SparseRelationTensor(
        d=d, n=n, rels=np.r_[rng.integers(d - 1, size=n), np.full(n - 1, d - 1)],
        heads=np.r_[rng.integers(n, size=n), tokens[:-1]],
        deps=np.r_[tokens, tokens[1:]]) for _ in range(sentences)]
    model = init_for_training(c, d, Hyperparams(r=r), seed=seed)
    model.R = rng.normal(size=model.R.shape) / r
    e_store = [rng.normal(size=(n, r)) for _ in range(sentences)]
    return ws, xs, model, e_store, rng


def sampled_batch(n, **sizes):
    """batch_instance(n, **sizes) with one sampled batch of all its
    sentences: (batch, samples, model, e_store)."""
    ws, xs, model, e_store, rng = batch_instance(n, **sizes)
    batch = list(range(len(ws)))
    samples = {s: sample_cells(ws[s], xs[s], 5, rng) for s in batch}
    return batch, samples, model, e_store


def traced_peak(call):
    """tracemalloc peak of call()."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def batch_peak(n):
    """tracemalloc peak of one sampled_loss_and_grads call on
    sampled_batch(n)."""
    args = sampled_batch(n)
    return traced_peak(lambda: sampled_loss_and_grads(*args))


def step_peak(n):
    """tracemalloc peak of one sgd_step on batch_instance(n)'s fresh
    tensors: it samples every sentence, builds each tensor's positive cells
    and updates P, R, E and the accumulators in place."""
    ws, xs, model, e_store, rng = batch_instance(n)
    state = SgdState(np.zeros_like(model.P), np.zeros_like(model.R),
                     [np.zeros_like(e) for e in e_store])
    batch = list(range(len(ws)))
    return traced_peak(lambda: sgd_step(batch, ws, xs, model, e_store, SgdConfig(),
                                        state, rng))


class TestBatchScaling:
    def test_peak_grows_at_most_linearly_with_the_entries(self):
        # n -> 8n tokens per sentence with entries proportional to n: a
        # linear batch grows its peak about 8x, a quadratic one 64x
        assert batch_peak(200) <= 10 * batch_peak(25)

    def test_whole_step_peak_grows_at_most_linearly_with_the_entries(self):
        # the same contract for sampling, the cached positive cells and the
        # in-place update around the loss and gradients
        assert step_peak(200) <= 10 * step_peak(25)


class TestAdaptiveStep:
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_matches_the_out_of_place_reference(self, order):
        # P and R in either memory order, two frozen P rows, accumulators
        # that already hold squared gradients, and a batch of two of three
        # sentences in shuffled order
        ws, xs, model, e_store, rng = batch_instance(6, c=7, d=3, r=4, sentences=3)
        model.frozen_p_rows[[0, 3]] = True
        model.P, model.R = (np.array(a, order=order) for a in (model.P, model.R))
        state = SgdState(np.array(rng.random(model.P.shape), order=order),
                         np.array(rng.random(model.R.shape), order=order),
                         [rng.random(e.shape) for e in e_store])
        batch, config = [2, 0], SgdConfig(learning_rate=0.3)
        ref_rng = np.random.default_rng()
        ref_rng.bit_generator.state = rng.bit_generator.state
        samples = {s: sample_cells(ws[s], xs[s], config.negatives_per_positive, ref_rng)
                   for s in batch}
        _, g_p, g_r, g_e = sampled_loss_and_grads(batch, samples, model, e_store)
        pairs = [(model.P, state.acc_p, g_p), (model.R, state.acc_r, g_r)]
        pairs += [(e_store[s], state.acc_e[s], g_e[s]) for s in batch]
        expected = [adagrad_step(param, acc, grad, config.learning_rate, sgd.ADAPT_EPS)
                    for param, acc, grad in pairs]
        untouched = e_store[1].copy(), state.acc_e[1].copy()
        sgd_step(batch, ws, xs, model, e_store, config, state, rng)
        pairs = [(model.P, state.acc_p), (model.R, state.acc_r)]
        pairs += [(e_store[s], state.acc_e[s]) for s in batch]
        for (param, acc), (ref_param, ref_acc) in zip(pairs, expected, strict=True):
            assert param.tobytes() == ref_param.tobytes()
            assert acc.tobytes() == ref_acc.tobytes()
        assert (e_store[1].tobytes(), state.acc_e[1].tobytes()) == tuple(
            a.tobytes() for a in untouched)


class TestAddRows:
    @settings(max_examples=200, deadline=None)
    @given(height=st.integers(1, 6), width=st.integers(1, 5), m=st.integers(0, 12),
           seed=st.integers(0, 2 ** 32))
    @example(height=2, width=3, m=0, seed=0)
    @example(height=2, width=3, m=1, seed=1)
    @example(height=3, width=1, m=9, seed=2)
    def test_matches_add_at_bit_for_bit(self, height, width, m, seed):
        # indices drawn with replacement from few rows, so they repeat and
        # come unsorted; the target starts non-zero, so rounding of each sum
        # depends on the order its terms are added in
        rng = np.random.default_rng(seed)
        out = rng.normal(size=(height, width)) * 10.0 ** rng.integers(-8, 9, size=(height, 1))
        index = rng.integers(height, size=m)
        rows = rng.normal(size=(m, width)) * 10.0 ** rng.integers(-8, 9, size=(m, 1))
        expected = out.copy()
        np.add.at(expected, index, rows)
        encoding.add_rows(out, index, rows)
        assert out.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("target", [np.zeros((3, 4)).T, np.zeros((4, 6))[:, ::2]],
                             ids=["transposed", "strided"])
    def test_non_contiguous_target_raises(self, target):
        with pytest.raises(ValueError, match="C-contiguous"):
            encoding.add_rows(target, np.array([0, 1]), np.ones((2, target.shape[1])))
        assert not target.any()

    @pytest.mark.parametrize("seed", [1, 2])
    def test_trainer_matches_the_add_at_reference(self, monkeypatch, seed):
        data = synth.generate(seed, n_sentences=6, n_tokens=5, c=8, d=3,
                              hyper=Hyperparams(r=3), mode="discrete")
        ws = [w for _, w, _ in data.sentences]
        xs = [x for _, _, x in data.sentences]
        hyper = Hyperparams(r=4)
        model = init_for_training(8, 3, hyper, seed=seed)
        model.frozen_p_rows[0] = True
        config = SgdConfig(epochs=4, seed=seed, batch_size=3)
        runs = [train_sgd(ws, xs, model, config)]
        monkeypatch.setattr(sgd, "add_rows", np.add.at)
        runs.append(train_sgd(ws, xs, model, config))
        (out, e_store, trace), (ref, ref_e, ref_trace) = runs
        np.testing.assert_array_equal(out.P, ref.P)
        np.testing.assert_array_equal(out.R, ref.R)
        for e, expected in zip(e_store, ref_e, strict=True):
            np.testing.assert_array_equal(e, expected)
        np.testing.assert_array_equal(trace, ref_trace)

    @pytest.mark.parametrize("batch", [[1], [1, 0]])
    def test_fortran_ordered_operands_give_the_same_gradients(self, batch):
        # one F-ordered E block stacks to an F-ordered array, yet the
        # gradient targets the rows scatter into are C-ordered
        _, samples, model, e_store = sampled_batch(6, c=7, d=3, r=4, sentences=2)
        loss, g_p, g_r, g_e = sampled_loss_and_grads(batch, samples, model, e_store)
        model.P, model.R = np.asfortranarray(model.P), np.asfortranarray(model.R)
        f_loss, f_p, f_r, f_e = sampled_loss_and_grads(
            batch, samples, model, [np.asfortranarray(e) for e in e_store])
        assert f_loss == pytest.approx(loss, rel=1e-12)
        assert_close(f_p, g_p)
        assert_close(f_r, g_r)
        for s in batch:
            assert_close(f_e[s], g_e[s])


class TestSampling:
    def test_negatives_avoid_positives(self):
        rng = np.random.default_rng(2)
        ws, xs = micro_corpus()
        w_cells, x_cells = sample_cells(ws[0], xs[0], 10, rng)
        pos_w = set(zip(ws[0].rows.tolist(), ws[0].cols.tolist()))
        for i, t, target, weight in w_cells:
            if weight != 1.0:
                assert (i, t) not in pos_w
                assert target == 0.0
        pos_x = set(zip(xs[0].rels.tolist(), xs[0].heads.tolist(),
                        xs[0].deps.tolist()))
        for k, h, t, target, weight in x_cells:
            if weight != 1.0:
                assert (k, h, t) not in pos_x

    def test_expected_sampled_loss_matches_full_zero_loss(self):
        # n <= 3, d <= 2: the importance weights make the expected sampled
        # zero-cell loss equal the full zero-cell loss exactly
        rng = np.random.default_rng(3)
        ws, xs = micro_corpus(n=3, d=2)
        hyper = Hyperparams(r=2, alpha=1.0, lambda_p=0.0, lambda_r=0.0,
                            lambda_e=0.0)
        model = init_for_training(4, 2, hyper, seed=4)
        model.R = rng.normal(size=model.R.shape) * 0.2
        e = rng.normal(size=(3, 2))
        w, x = ws[0], xs[0]
        k = 4
        pos_w = set(zip(w.rows.tolist(), w.cols.tolist()))
        pos_x = set(zip(x.rels.tolist(), x.heads.tolist(), x.deps.tolist()))
        # expected sampled zero loss by enumerating the uniform distribution
        zero_w = [(i, t) for i in range(w.c) for t in range(w.n)
                  if (i, t) not in pos_w]
        zero_x = [(kk, h, t) for kk in range(x.d) for h in range(x.n)
                  for t in range(x.n) if (kk, h, t) not in pos_x]
        weight_w = len(zero_w) / (k * w.nnz)
        weight_x = len(zero_x) / (k * x.nnz)
        draws_w = k * w.nnz
        draws_x = k * x.nnz
        expected = 0.0
        for i, t in zero_w:
            cell_loss = float(model.P[i] @ e[t]) ** 2
            expected += draws_w * (1.0 / len(zero_w)) * weight_w * cell_loss
        for kk, h, t in zero_x:
            cell_loss = hyper.alpha * float(e[h] @ model.R[kk] @ e[t]) ** 2
            expected += draws_x * (1.0 / len(zero_x)) * weight_x * cell_loss
        full = 0.0
        for i, t in zero_w:
            full += float(model.P[i] @ e[t]) ** 2
        for kk, h, t in zero_x:
            full += hyper.alpha * float(e[h] @ model.R[kk] @ e[t]) ** 2
        assert expected == pytest.approx(full, rel=1e-12)


def rows(cells):
    """A sampled cell array as a list of row tuples."""
    return [tuple(row) for row in cells.tolist()]


@st.composite
def sampler_tensors(draw):
    """(W, X) on small shapes, n = 1 included.  Each tensor lists no cell,
    every cell or up to 8 drawn cells, and may list a cell twice; a value
    may be 0, so an entry can hold a stored 0."""
    c, d, n = draw(st.integers(1, 4)), draw(st.integers(1, 3)), draw(st.integers(1, 3))

    def entries(shape):
        every = list(itertools.product(*map(range, shape)))
        cell = st.tuples(*(st.integers(0, size - 1) for size in shape))
        cells = draw(st.one_of(st.just([]), st.just(every), st.lists(cell, max_size=8)))
        if cells:
            cells = cells + draw(st.lists(st.sampled_from(cells), max_size=2))
        values = draw(st.lists(st.sampled_from([0.0, 0.5, -1.0, 2.0]),
                               min_size=len(cells), max_size=len(cells)))
        return np.array(cells, dtype=np.int64).reshape(-1, len(shape)).T, values

    (pred, tok), w_values = entries((c, n))
    (rel, head, dep), x_values = entries((d, n, n))
    return (SparsePropertyMatrix(c=c, n=n, rows=pred, cols=tok, values=w_values),
            SparseRelationTensor(d=d, n=n, rels=rel, heads=head, deps=dep,
                                 values=x_values))


def draws_by_rank(tensor, k, rng):
    """Reference sampler that never reads `cells`: the entries (weight 1),
    then the unlisted cells, listed in row-major order by itertools.product,
    at the ranks that one rng.integers(n_zero, size=k * nnz) call draws
    (target 0, weight n_zero / (k * nnz)); nothing is drawn when no cell
    is unlisted."""
    listed = list(zip(*(index.tolist() for index in tensor.coords)))
    cells = [cell + (value, 1.0) for cell, value in zip(listed, tensor.values.tolist())]
    zero = [cell for cell in itertools.product(*map(range, tensor.shape))
            if cell not in listed]
    wanted = k * tensor.nnz if zero else 0
    ranks = rng.integers(len(zero), size=wanted).tolist()
    return cells + [zero[q] + (0.0, len(zero) / wanted) for q in ranks]


class CountingRng:
    """A Generator stand-in that records each integers(high, size) call."""

    def __init__(self, seed):
        self.rng, self.calls = np.random.default_rng(seed), []

    def integers(self, high, size):
        self.calls.append((high, size))
        return self.rng.integers(high, size=size)


class TestSamplingStream:
    def test_golden_draws(self):
        # W's zero cells in row-major order are (0, 1), (1, 0) and (1, 2),
        # X's are the 15 cells other than (0, 0, 1), (0, 2, 0) and (1, 1, 2);
        # a same-seeded rng draws W's ranks [2 1 2 2 1 2], then X's
        # [12 3 0 4 4 13]
        w, x = from_dense(
            np.array([[1.0, 0.0, 0.5], [0.0, 2.0, 0.0]]),
            np.array([[[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]],
                      [[0.0, 0.0, 0.0], [0.0, 0.0, 1.5], [0.0, 0.0, 0.0]]]))
        rng = np.random.default_rng(7)
        w_cells, x_cells = map(rows, sample_cells(w, x, 2, rng))
        assert w_cells == [
            (0, 0, 1.0, 1.0), (0, 2, 0.5, 1.0), (1, 1, 2.0, 1.0),
            (1, 2, 0.0, 0.5), (1, 0, 0.0, 0.5), (1, 2, 0.0, 0.5),
            (1, 2, 0.0, 0.5), (1, 0, 0.0, 0.5), (1, 2, 0.0, 0.5)]
        assert x_cells == [
            (0, 0, 1, 1.0, 1.0), (0, 2, 0, 1.0, 1.0), (1, 1, 2, 1.5, 1.0),
            (1, 2, 0, 0.0, 2.5), (0, 1, 1, 0.0, 2.5), (0, 0, 0, 0.0, 2.5),
            (0, 1, 2, 0.0, 2.5), (0, 1, 2, 0.0, 2.5), (1, 2, 1, 0.0, 2.5)]
        assert rng.integers(1000) == 912

    @settings(max_examples=150, deadline=None)
    @given(tensors=sampler_tensors(), k=st.integers(0, 4), seed=st.integers(0, 2 ** 32))
    @example(tensors=from_dense(np.ones((2, 3)), np.zeros((2, 3, 3))), k=2, seed=0)
    @example(tensors=from_dense(np.eye(2), np.ones((1, 2, 2))), k=3, seed=1)
    @example(tensors=from_dense(np.eye(2), np.eye(2)[None]), k=0, seed=2)
    @example(tensors=(SparsePropertyMatrix(c=2, n=2, rows=[0, 1, 0], cols=[1, 0, 1],
                                           values=[0.5, 0.0, -0.5]),
                      SparseRelationTensor(d=1, n=2, rels=[], heads=[], deps=[])),
             k=2, seed=3)
    def test_draws_the_zero_cells_of_uniform_ranks(self, tensors, k, seed):
        w, x = tensors
        rng, ref = CountingRng(seed), np.random.default_rng(seed)
        w_cells, x_cells = sample_cells(w, x, k, rng)
        assert rows(w_cells) == draws_by_rank(w, k, ref)
        assert rows(x_cells) == draws_by_rank(x, k, ref)
        assert rng.rng.bit_generator.state == ref.bit_generator.state
        # no redraw: each tensor takes its k * nnz ranks in one call, and
        # one with no zero cell or no entry an empty draw
        n_zero = [math.prod(t.shape) - t.nnz for t in tensors]
        assert rng.calls == [(z, k * t.nnz if z else 0) for z, t in zip(n_zero, tensors)]


class TestTrainSgd:
    def test_zero_epochs_noop(self):
        ws, xs = micro_corpus()
        hyper = Hyperparams(r=2)
        model = init_for_training(4, 2, hyper, seed=5)
        cfg = SgdConfig(epochs=0)
        out, _, trace = train_sgd(ws, xs, model, cfg)
        np.testing.assert_array_equal(out.P, model.P)
        np.testing.assert_array_equal(out.R, model.R)
        assert trace == []

    @pytest.mark.parametrize("n_w, n_x, message", [
        (0, 0, "no sentences to train on"),
        (4, 2, "corpus has 4 W tensors but 2 X tensors"),
        (0, 2, "corpus has 0 W tensors but 2 X tensors"),
    ], ids=["empty", "more-W", "no-W"])
    def test_corpus_is_checked_before_any_step(self, monkeypatch, n_w, n_x, message):
        ws, xs = micro_corpus(n_sentences=4)
        hyper = Hyperparams(r=2)
        monkeypatch.setattr(sgd, "sgd_step", None)  # a step would fail here
        with pytest.raises(BoveError, match="^%s$" % message):
            train_sgd(ws[:n_w], xs[:n_x], init_for_training(4, 2, hyper, seed=5),
                      SgdConfig(epochs=1))

    def test_keeps_the_model_hyperparameters(self):
        ws, xs = micro_corpus()
        hyper = Hyperparams(r=2, alpha=3.0, lambda_e=0.5, inference_iters=7)
        model = init_for_training(4, 2, hyper, seed=5)
        out, _, _ = train_sgd(ws, xs, model, SgdConfig(epochs=1))
        assert out.hyper is hyper
        assert model.hyper is hyper

    def test_seed_determinism(self):
        ws, xs = micro_corpus()
        hyper = Hyperparams(r=2)
        cfg = SgdConfig(epochs=5, seed=11)
        model = init_for_training(4, 2, hyper, seed=6)
        a, _, _ = train_sgd(ws, xs, model, cfg)
        b, _, _ = train_sgd(ws, xs, model, cfg)
        np.testing.assert_array_equal(a.P, b.P)
        np.testing.assert_array_equal(a.R, b.R)

    def test_frozen_rows_unchanged_after_steps(self):
        ws, xs = micro_corpus()
        hyper = Hyperparams(r=2)
        model = init_for_training(4, 2, hyper, seed=7)
        model.frozen_p_rows[1] = True
        frozen_before = model.P[1].copy()
        cfg = SgdConfig(epochs=50, seed=3, batch_size=2)
        out, _, _ = train_sgd(ws, xs, model, cfg)
        np.testing.assert_array_equal(out.P[1], frozen_before)

    def test_objective_decreases(self):
        ws, xs = micro_corpus(seed=9, n_sentences=4)
        hyper = Hyperparams(r=2)
        model = init_for_training(4, 2, hyper, seed=8)
        cfg = SgdConfig(epochs=100, seed=1, learning_rate=0.1)
        out, e_store, trace = train_sgd(ws, xs, model, cfg)
        _, start = corpus_objective(ws, xs, [np.zeros((3, 2))] * 4, model)
        _, end = corpus_objective(ws, xs, e_store, out)
        assert end < start

    def test_reproduces_recorded_trace(self):
        # recorded with the per-cell gradient loop (oracles'
        # sampled_loss_and_grads_by_cell) and the rank draw: pins the
        # sampling stream and the arithmetic; sentences of 3 and of 5
        # tokens share batches
        ws, xs = micro_corpus(seed=4, n_sentences=3, n=3, c=5, d=3, r=3)
        ws2, xs2 = micro_corpus(seed=5, n_sentences=2, n=5, c=5, d=3, r=3)
        hyper = Hyperparams(r=3, alpha=0.8)
        model = init_for_training(5, 3, hyper, seed=2)
        cfg = SgdConfig(epochs=6, seed=13, batch_size=2, negatives_per_positive=3)
        out, e_store, trace = train_sgd(ws + ws2, xs + xs2, model, cfg)
        assert trace == pytest.approx([
            152.80582795473924, 152.4513438578552, 150.5554678741661,
            146.0604267005805, 139.1160644463311, 130.12793166525165], rel=1e-9)
        assert float(np.sum(out.P ** 2)) == pytest.approx(1.480474798962715, rel=1e-9)
        assert float(np.sum(out.R ** 2)) == pytest.approx(2.423739776415294, rel=1e-9)
        assert sum(float(np.sum(e ** 2)) for e in e_store) == pytest.approx(
            2.6089478556659182, rel=1e-9)

    @pytest.mark.parametrize("value", [1e200, np.inf])
    def test_overflowing_corpus_diverges(self, value):
        # no errstate set here: train_sgd itself turns overflow into divergence
        ws, xs = micro_corpus()
        values = ws[0].values.copy()
        values[0] = value
        ws[0] = replace(ws[0], values=values)
        hyper = Hyperparams(r=2)
        model = init_for_training(4, 2, hyper, seed=5)
        with pytest.raises(DivergenceError):
            train_sgd(ws, xs, model, SgdConfig(epochs=3))

    def test_log_marks_sampled(self):
        ws, xs = micro_corpus()
        hyper = Hyperparams(r=2)
        model = init_for_training(4, 2, hyper, seed=9)
        lines = []
        train_sgd(ws, xs, model, SgdConfig(epochs=2), log=lines.append)
        assert len(lines) == 2
        assert all("sampled=true" in line for line in lines)

    def test_log_records_epoch_wall_time(self, monkeypatch):
        ws, xs = micro_corpus()
        hyper = Hyperparams(r=2)
        model = init_for_training(4, 2, hyper, seed=9)
        ticks = iter([10.0, 11.5, 20.0, 20.25])
        monkeypatch.setattr(sgd, "time", types.SimpleNamespace(
            perf_counter=lambda: next(ticks)))
        lines = []
        train_sgd(ws, xs, model, SgdConfig(epochs=2), log=lines.append)
        seconds = [dict(kv.split("=") for kv in line.split())["seconds"]
                   for line in lines]
        assert seconds == ["1.500", "0.250"]


CONFIG_ERRORS = [
    ("batch_size", 0, "batch_size must be >= 1"),
    ("negatives_per_positive", 0, "negatives_per_positive must be >= 1"),
    ("epochs", -1, "epochs must be >= 0"),
    ("learning_rate", 0.0, "learning_rate must be >= 5e-324"),
    ("seed", -1, "seed must be >= 0"),
]


@pytest.mark.parametrize("field, value, message", CONFIG_ERRORS,
                         ids=[case[0] for case in CONFIG_ERRORS])
def test_config_validation(field, value, message):
    with pytest.raises(ValueError, match="^%s$" % message):
        SgdConfig(**{field: value})

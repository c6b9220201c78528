import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bove.conll import SentenceGraph
from bove.encoding import (
    SparsePropertyMatrix,
    SparseRelationTensor,
    check_operands,
    encode,
    from_dense,
    read_tensor_file,
    reconstruction_loss,
    write_tensor_file,
)
from bove.errors import BoveError, DimensionMismatch
from bove.sgd import sample_cells

from oracles import reconstruction_loss_dense


def graph(tokens, relations):
    return SentenceGraph(tokens=tuple(tokens), relations=tuple(relations))


class TestEncode:
    def test_single_token(self):
        w, x = encode(graph([(5, 9)], []), c=10, d=2)
        assert set(zip(w.rows, w.cols)) == {(5, 0), (9, 0)}
        assert x.nnz == 0

    def test_relation_coordinates(self):
        w, x = encode(graph([(0, 1), (2, 3)], [(1, 0, 1)]), c=4, d=2)
        assert list(zip(x.rels, x.heads, x.deps)) == [(1, 0, 1)]

    def test_two_entries_per_token(self):
        g = graph([(0, 1), (2, 3), (0, 3)], [(0, 0, 1), (0, 1, 2)])
        w, _ = encode(g, c=4, d=1)
        assert w.nnz == 2 * len(g)

    def test_out_of_range_rejected(self):
        with pytest.raises(DimensionMismatch):
            SparsePropertyMatrix(c=2, n=1, rows=np.array([5]), cols=np.array([0]))
        with pytest.raises(DimensionMismatch):
            SparseRelationTensor(d=1, n=2, rels=np.array([0]),
                                 heads=np.array([0]), deps=np.array([3]))


class TestReconstructionLoss:
    def test_all_zero(self):
        w, x = from_dense(np.zeros((2, 2)), np.zeros((1, 2, 2)))
        loss = reconstruction_loss(w, x, np.zeros((2, 3)), np.zeros((1, 3, 3)),
                                   np.zeros((2, 3)))
        assert loss == 0.0

    def test_scalar_exact_fit(self):
        # c=1, n=1, r=1: W=[[1]], P=[[0.5]], E=[[2]] reconstructs exactly
        w, x = from_dense(np.array([[1.0]]), np.zeros((1, 1, 1)))
        loss = reconstruction_loss(w, x, np.array([[0.5]]),
                                   np.zeros((1, 1, 1)), np.array([[2.0]]))
        assert loss == pytest.approx(0.0, abs=1e-15)

    def test_dimension_mismatch(self):
        w, x = from_dense(np.zeros((2, 2)), np.zeros((1, 2, 2)))
        with pytest.raises(DimensionMismatch):
            reconstruction_loss(w, x, np.zeros((3, 3)), np.zeros((1, 3, 3)),
                                np.zeros((2, 3)))

    def test_check_operands_returns_float64(self):
        w, x = from_dense(np.ones((2, 3)), np.ones((1, 3, 3)))
        p, r_tensor, e = check_operands(w, x, np.ones((2, 2), dtype=np.int64),
                                        [[[1, 0], [0, 1]]], np.ones((3, 2), dtype=np.int32))
        for operand, shape in ((p, (2, 2)), (r_tensor, (1, 2, 2)), (e, (3, 2))):
            assert operand.dtype == np.float64 and operand.shape == shape
        np.testing.assert_array_equal(r_tensor, [np.eye(2)])

    def test_matches_dense_naive(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = rng.integers(1, 7)
            r = rng.integers(1, 5)
            c = rng.integers(1, 6)
            d = rng.integers(1, 4)
            wd = rng.normal(size=(c, n)) * (rng.random(size=(c, n)) < 0.5)
            xd = rng.normal(size=(d, n, n)) * (rng.random(size=(d, n, n)) < 0.5)
            p = rng.normal(size=(c, r))
            r_tensor = rng.normal(size=(d, r, r))
            e = rng.normal(size=(n, r))
            w, x = from_dense(wd, xd)
            alpha = float(rng.random() * 2)
            naive = reconstruction_loss_dense(w, x, p, r_tensor, e, alpha=alpha)
            sparse = reconstruction_loss(w, x, p, r_tensor, e, alpha=alpha)
            assert sparse == pytest.approx(naive, rel=1e-10)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(1)
        n, r, c, d = 5, 3, 4, 2
        wd = (rng.random(size=(c, n)) < 0.5).astype(float)
        xd = (rng.random(size=(d, n, n)) < 0.3).astype(float)
        p = rng.normal(size=(c, r))
        r_tensor = rng.normal(size=(d, r, r))
        e = rng.normal(size=(n, r))
        perm = rng.permutation(n)
        w, x = from_dense(wd, xd)
        wp, xp = from_dense(wd[:, perm], xd[:, perm][:, :, perm])
        base = reconstruction_loss(w, x, p, r_tensor, e)
        permuted = reconstruction_loss(wp, xp, p, r_tensor, e[perm])
        assert permuted == pytest.approx(base, rel=1e-12)

    def test_zero_iff_exact(self):
        rng = np.random.default_rng(2)
        e = rng.normal(size=(3, 2))
        p = rng.normal(size=(4, 2))
        r_tensor = rng.normal(size=(2, 2, 2))
        w, x = from_dense(p @ e.T, np.einsum("ia,kab,jb->kij", e, r_tensor, e))
        assert reconstruction_loss(w, x, p, r_tensor, e) == pytest.approx(0, abs=1e-18)
        assert reconstruction_loss(w, x, p, r_tensor, e + 0.01) > 1e-6


class TestCoordinateText:
    def test_dump_format(self, tmp_path):
        w, x = from_dense(np.array([[1.0, 0.0]]), np.array([[[0.0, 0.25], [0.0, 0.0]]]))
        path = tmp_path / "tensors.txt"
        write_tensor_file(path, [("s0", w, x)], c=1, d=1)
        assert path.read_text() == "dims 1 1\nsentence s0 2\nW 0 0 1\nX 0 0 1 0.25\n"

    def test_tensor_file_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        wd = rng.normal(size=(3, 2))
        xd = rng.normal(size=(2, 2, 2))
        w, x = from_dense(wd, xd)
        path = tmp_path / "tensors.txt"
        write_tensor_file(path, [("s0", w, x)], c=3, d=2)
        c, d, sentences = read_tensor_file(path)
        assert (c, d) == (3, 2)
        sid, w2, x2 = sentences[0]
        assert sid == "s0"
        np.testing.assert_array_equal(w2.to_dense(), wd)
        np.testing.assert_array_equal(x2.to_dense(), xd)

    def test_ids_round_trip(self, tmp_path):
        w, x = from_dense(np.array([[1.0, 0.0]]), np.array([[[0.0, 0.25], [0.0, 0.0]]]))
        path = tmp_path / "tensors.txt"
        ids = ["0", "s-1_é", "a|b"]
        write_tensor_file(path, [(sid, w, x) for sid in ids], c=1, d=1)
        assert [sid for sid, _, _ in read_tensor_file(path)[2]] == ids

    @pytest.mark.parametrize("sid", ["", "a b", "a\tb", "a\n", "\u2028"])
    def test_id_the_reader_would_split_is_refused_before_writing(self, tmp_path, sid):
        w, x = from_dense(np.array([[1.0]]), np.zeros((1, 1, 1)))
        path = tmp_path / "tensors.txt"
        with pytest.raises(BoveError, match="sentence id %s is empty or holds whitespace"
                           % re.escape(repr(sid))):
            write_tensor_file(path, [("s0", w, x), (sid, w, x)], c=1, d=1)
        assert not path.exists()

    def test_a_cell_listed_twice_reads_back_as_one_entry(self, tmp_path):
        path = tmp_path / "tensors.txt"
        path.write_text("dims 2 1\nsentence s0 2\nW 1 0 0.5\nW 0 1\nW 1 0 2\n"
                        "X 0 1 0 0.25\nX 0 1 0\n")
        _, _, [(_, w, x)] = read_tensor_file(path)
        assert w.nnz == 2 and entries_of(w) == {(0, 1): 1.0, (1, 0): 2.5}
        assert x.nnz == 1 and entries_of(x) == {(0, 1, 0): 1.25}

    @pytest.mark.parametrize("text, where", [
        ("dims 3 2 99\nsentence s0 1\nW 2 0 1\n", "line 1: malformed 'dims' line"),
        ("dims 3 2\nsentence s0 1 junk\nW 2 0 1\n", "line 2: malformed 'sentence' line"),
    ], ids=["dims", "sentence"])
    def test_header_line_with_an_extra_field_is_refused(self, tmp_path, text, where):
        path = tmp_path / "tensors.txt"
        path.write_text(text)
        with pytest.raises(BoveError, match=where):
            read_tensor_file(path)

    def test_second_dims_line_is_refused(self, tmp_path):
        # s0 would otherwise be built with the second line's sizes
        path = tmp_path / "tensors.txt"
        path.write_text("dims 3 2\nsentence s0 1\nW 2 0 1\ndims 5 4\n"
                        "sentence s1 1\nW 4 0 1\n")
        with pytest.raises(BoveError, match="line 4: a second 'dims' line"):
            read_tensor_file(path)


@st.composite
def entry_lists(draw):
    """The drawn entries of a (W, X) pair on random shapes, n = 1 included:
    per tensor its shape and its list of (cell, value) entries, possibly
    empty and possibly repeating a cell."""
    c, d, n = draw(st.integers(1, 4)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    value = st.floats(-4, 4, allow_nan=False)

    def entries(shape):
        cell = st.tuples(*(st.integers(0, size - 1) for size in shape))
        return shape, draw(st.lists(st.tuples(cell, value), max_size=8))

    return entries((c, n)), entries((d, n, n))


def build(drawn):
    """The (W, X) pair of entry_lists' entries."""
    (w_shape, w_listed), (x_shape, x_listed) = drawn

    def columns(listed, arity):
        coords = [[cell[axis] for cell, _ in listed] for axis in range(arity)]
        return coords, [v for _, v in listed]

    (rows, cols), w_values = columns(w_listed, 2)
    (rels, heads, deps), x_values = columns(x_listed, 3)
    return (SparsePropertyMatrix(c=w_shape[0], n=w_shape[1], rows=rows, cols=cols,
                                 values=w_values),
            SparseRelationTensor(d=x_shape[0], n=x_shape[1], rels=rels, heads=heads,
                                 deps=deps, values=x_values))


def coordinate_tensors():
    """A (W, X) pair built from entry_lists."""
    return entry_lists().map(build)


def summed_dense(shape, listed):
    """Dense oracle: a Python loop adding every drawn entry into its cell."""
    dense = np.zeros(shape)
    for cell, value in listed:
        dense[cell] += value
    return dense


def entries_of(tensor):
    """A tensor's entries as a {cell: value} dict, in entry order."""
    return {tuple(int(index[i]) for index in tensor.coords): float(tensor.values[i])
            for i in range(tensor.nnz)}


class TestCoordinateCore:
    @settings(max_examples=60, deadline=None)
    @given(entry_lists())
    def test_to_dense_sums_duplicates(self, drawn):
        for tensor, (shape, listed) in zip(build(drawn), drawn):
            np.testing.assert_array_equal(tensor.to_dense(), summed_dense(shape, listed))

    @settings(max_examples=60, deadline=None)
    @given(coordinate_tensors())
    def test_from_dense_round_trip(self, pair):
        for tensor in pair:
            dense = tensor.to_dense()
            again = type(tensor).from_dense(dense)
            assert again.shape == tensor.shape
            np.testing.assert_array_equal(again.to_dense(), dense)
        w, x = pair
        w2, x2 = from_dense(w.to_dense(), x.to_dense())
        np.testing.assert_array_equal(w2.to_dense(), w.to_dense())
        np.testing.assert_array_equal(x2.to_dense(), x.to_dense())

    @settings(max_examples=60, deadline=None)
    @given(coordinate_tensors())
    def test_tensor_file_round_trip(self, tmp_path_factory, pair):
        w, x = pair
        path = tmp_path_factory.mktemp("dump") / "tensors.txt"
        write_tensor_file(path, [("s0", w, x), ("s1", w, x)], c=w.c, d=x.d)
        c, d, sentences = read_tensor_file(path)
        assert (c, d) == (w.c, x.d)
        assert [sid for sid, _, _ in sentences] == ["s0", "s1"]
        for _, w2, x2 in sentences:
            assert (w2.shape, x2.shape) == (w.shape, x.shape)
            np.testing.assert_array_equal(w2.to_dense(), w.to_dense())
            np.testing.assert_array_equal(x2.to_dense(), x.to_dense())

    @settings(max_examples=60, deadline=None)
    @given(coordinate_tensors())
    def test_tensor_file_rewrite_is_byte_identical(self, tmp_path_factory, pair):
        w, x = pair
        folder = tmp_path_factory.mktemp("dump")
        first, second = folder / "first.txt", folder / "second.txt"
        write_tensor_file(first, [("s0", w, x)], c=w.c, d=x.d)
        c, d, sentences = read_tensor_file(first)
        write_tensor_file(second, sentences, c, d)
        assert second.read_bytes() == first.read_bytes()

    def test_shape_and_coords(self):
        x = SparseRelationTensor(d=2, n=3, rels=[1], heads=[2], deps=[0])
        assert x.shape == (2, 3, 3) and x.nnz == 1
        assert [index.tolist() for index in x.coords] == [[1], [2], [0]]
        assert x.values.tolist() == [1.0]

    @pytest.mark.parametrize("build, message", [
        (lambda: SparsePropertyMatrix(c=2, n=2, rows=[0, 1], cols=[0]),
         "coordinate arrays must have equal length"),
        (lambda: SparsePropertyMatrix(c=2, n=2, rows=[2], cols=[0]),
         "predicate index out of range"),
        (lambda: SparsePropertyMatrix(c=2, n=2, rows=[0], cols=[-1]),
         "token index out of range"),
        (lambda: SparseRelationTensor(d=1, n=2, rels=[1], heads=[0], deps=[0]),
         "relation index out of range"),
        (lambda: SparseRelationTensor(d=1, n=2, rels=[0], heads=[2], deps=[0]),
         "token index out of range"),
        (lambda: SparseRelationTensor(d=1, n=2, rels=[0], heads=[0], deps=[0],
                                      values=[1.0, 2.0]),
         "coordinate arrays must have equal length"),
    ])
    def test_validation_messages(self, build, message):
        with pytest.raises(DimensionMismatch, match=message):
            build()

    def test_from_dense_needs_the_axis_count(self):
        with pytest.raises(DimensionMismatch):
            SparsePropertyMatrix.from_dense(np.zeros((2, 2, 2)))


class TestCanonicalForm:
    @settings(max_examples=60, deadline=None)
    @given(entry_lists())
    def test_copies_are_summed(self, drawn):
        for tensor, (_, listed) in zip(build(drawn), drawn):
            sums = {}
            for cell, value in listed:
                sums[cell] = sums.get(cell, 0.0) + value
            assert tensor.nnz == len(sums)
            assert entries_of(tensor) == sums

    @settings(max_examples=60, deadline=None)
    @given(coordinate_tensors())
    def test_cells_are_the_ravelled_coords_in_increasing_order(self, pair):
        for tensor in pair:
            np.testing.assert_array_equal(
                tensor.cells, np.ravel_multi_index(tensor.coords, tensor.shape))
            assert np.all(np.diff(tensor.cells) > 0)

    def test_entries_are_sorted_in_cell_order(self):
        x = SparseRelationTensor(d=2, n=3, rels=[1, 0, 1, 0], heads=[0, 2, 0, 1],
                                 deps=[1, 0, 1, 2], values=[1.0, 2.0, 3.0, 4.0])
        assert [index.tolist() for index in x.coords] == [[0, 0, 1], [1, 2, 0], [2, 0, 1]]
        assert x.values.tolist() == [4.0, 2.0, 4.0]
        assert x.cells.tolist() == [5, 6, 10]

    def test_a_stored_zero_stays_an_entry(self):
        w = SparsePropertyMatrix(c=2, n=2, rows=[1, 0, 1], cols=[0, 1, 0],
                                 values=[1.5, 0.0, -1.5])
        assert entries_of(w) == {(0, 1): 0.0, (1, 0): 0.0}
        assert w.nnz == 2 and w.cells.tolist() == [1, 2]

    @staticmethod
    def equal_pair(seed=4):
        """A fresh (W, X) pair, equal for equal seeds, with repeated cells."""
        data = np.random.default_rng(seed)
        w = SparsePropertyMatrix(c=3, n=3, rows=data.integers(3, size=7),
                                 cols=data.integers(3, size=7), values=data.normal(size=7))
        x = SparseRelationTensor(d=2, n=3, rels=data.integers(2, size=6),
                                 heads=data.integers(3, size=6), deps=data.integers(3, size=6),
                                 values=data.normal(size=6))
        return w, x

    def test_same_seed_draws_match_on_fresh_equal_tensors(self):
        # two calls on one pair against one call on each of two fresh equal pairs
        w, x = self.equal_pair()
        assert w.nnz < 7 and x.nnz < 6  # the draws repeat a cell of each
        rng, fresh = np.random.default_rng(9), np.random.default_rng(9)
        reused = [sample_cells(w, x, 3, rng) for _ in range(2)]
        built = [sample_cells(*self.equal_pair(), 3, fresh) for _ in range(2)]
        for pair, expected in zip(reused, built, strict=True):
            for cells, ref in zip(pair, expected, strict=True):
                assert cells.tobytes() == ref.tobytes()
        assert rng.bit_generator.state == fresh.bit_generator.state

    def test_tensor_arrays_are_read_only(self):
        w, x = self.equal_pair()
        for array in (*w.coords, w.values, w.cells, *x.coords, x.values, x.cells):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0

    def test_callers_arrays_stay_writable(self):
        rows, values = np.array([0, 2, 0], dtype=np.int64), np.array([0.5, 1.0, 2.0])
        w = SparsePropertyMatrix(c=3, n=2, rows=rows, cols=[1, 0, 1], values=values)
        rows[0], values[0] = 1, 4.0
        assert entries_of(w) == {(0, 1): 2.5, (2, 0): 1.0}

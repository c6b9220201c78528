"""Sparse indicator tensors for sentence graphs and the reconstruction loss.

A sentence graph becomes a property matrix W (c x n, one column per token,
two unit entries per column: word and PoS predicate) and a relation tensor
X (d x n x n, one unit entry per labeled directed edge).  Both are stored
in canonical coordinate form, one entry per cell in cell order; real-valued
entries are allowed so the loss evaluator also works on synthetic tensors.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BoveError, DimensionMismatch


class _CoordinateTensor:
    """Coordinate form shared by W and X: one index array per axis and one
    value per entry; unlisted cells are 0.

    Each subclass is a frozen dataclass that declares AXES, one
    (index field, size field, what the index counts) triple per axis.  A
    tensor is built in canonical form: the copies of a cell listed more than
    once are summed, in the order given, into one entry, and the entries are
    sorted in row-major cell order, so X's are grouped by relation.  An entry
    holding 0 stays an entry.  `cells` holds each entry's ravelled index,
    strictly increasing.  Every array is a read-only copy, and the caller's
    arrays stay writable.
    """

    AXES = ()

    def __post_init__(self):
        coords = [np.array(getattr(self, name), dtype=np.int64)
                  for name, _, _ in self.AXES]
        values = np.ones(len(coords[0])) if self.values is None else self.values
        values = np.array(values, dtype=np.float64)
        if any(len(index) != len(values) for index in coords):
            raise DimensionMismatch("coordinate arrays must have equal length")
        for index, size, (_, _, counts) in zip(coords, self.shape, self.AXES):
            if len(index) and (index.min() < 0 or index.max() >= size):
                raise DimensionMismatch("%s index out of range" % counts)
        listed = np.ravel_multi_index(coords, self.shape)
        order = np.argsort(listed, kind="stable")  # a cell's copies keep their order
        listed = listed[order]
        first = np.diff(listed, prepend=-1) > 0  # the first copy of each cell
        kept = order[first]
        named = {name: index[kept] for (name, _, _), index in zip(self.AXES, coords)}
        named.update(values=np.bincount(np.cumsum(first) - 1, values[order]),
                     cells=listed[first])
        for name, array in named.items():
            array.flags.writeable = False
            object.__setattr__(self, name, array)

    @classmethod
    def _build(cls, sizes, columns):
        """Instance from a {size field: size} map and one index column per
        axis followed by the values column."""
        *coords, values = columns
        kwargs = {size: sizes[size] for _, size, _ in cls.AXES}
        kwargs.update((name, index) for (name, _, _), index in zip(cls.AXES, coords))
        return cls(values=values, **kwargs)

    @classmethod
    def from_dense(cls, dense):
        """Coordinate form of the nonzero cells of a dense array."""
        dense = np.asarray(dense, dtype=np.float64)
        if dense.ndim != len(cls.AXES):
            raise DimensionMismatch("%s needs a %d-axis array, got shape %s"
                                    % (cls.__name__, len(cls.AXES), dense.shape))
        sizes = {}
        for (_, size, _), dim in zip(cls.AXES, dense.shape):
            sizes.setdefault(size, dim)
        coords = np.nonzero(dense)
        return cls._build(sizes, (*coords, dense[coords]))

    @property
    def shape(self):
        return tuple(getattr(self, size) for _, size, _ in self.AXES)

    @property
    def coords(self):
        return tuple(getattr(self, name) for name, _, _ in self.AXES)

    @property
    def nnz(self):
        return len(self.values)

    def to_dense(self):
        dense = np.zeros(self.shape)
        dense[self.coords] = self.values
        return dense


@dataclass(frozen=True)
class SparsePropertyMatrix(_CoordinateTensor):
    """Coordinate-form property matrix, shape c x n, unlisted cells are 0."""

    AXES = (("rows", "c", "predicate"), ("cols", "n", "token"))

    c: int
    n: int
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray = field(default=None)


@dataclass(frozen=True)
class SparseRelationTensor(_CoordinateTensor):
    """Coordinate-form relation tensor, shape d x n x n, unlisted cells are 0."""

    AXES = (("rels", "d", "relation"), ("heads", "n", "token"), ("deps", "n", "token"))

    d: int
    n: int
    rels: np.ndarray
    heads: np.ndarray
    deps: np.ndarray
    values: np.ndarray = field(default=None)

    def relation_slices(self):
        """(relation, entry slice, heads, deps, values) of each relation with an entry."""
        for k, at in runs(self.rels, self.d):
            yield k, at, self.heads[at], self.deps[at], self.values[at]


def runs(keys, count):
    """(key, slice) of each nonempty run of each key in range(count) in the
    sorted keys: one np.searchsorted gives every run's bounds."""
    bounds = np.searchsorted(keys, np.arange(count + 1))
    for k in np.flatnonzero(bounds[1:] > bounds[:-1]):
        yield int(k), slice(bounds[k], bounds[k + 1])


def from_dense(w_dense, x_dense):
    """Coordinate forms of dense W (c x n) and X (d x n x n) arrays."""
    return (SparsePropertyMatrix.from_dense(w_dense),
            SparseRelationTensor.from_dense(x_dense))


def encode(graph, c, d):
    """Encode a SentenceGraph into (SparsePropertyMatrix, SparseRelationTensor)."""
    n = len(graph)
    rows, cols = [], []
    for t, (word_id, pos_id) in enumerate(graph.tokens):
        rows.extend((word_id, pos_id))
        cols.extend((t, t))
    rels = [triple[0] for triple in graph.relations]
    heads = [triple[1] for triple in graph.relations]
    deps = [triple[2] for triple in graph.relations]
    return (
        SparsePropertyMatrix(c=c, n=n, rows=np.array(rows, dtype=np.int64),
                             cols=np.array(cols, dtype=np.int64)),
        SparseRelationTensor(d=d, n=n, rels=np.array(rels, dtype=np.int64),
                             heads=np.array(heads, dtype=np.int64),
                             deps=np.array(deps, dtype=np.int64)),
    )


def check_operands(w, x, p, r_tensor, e):
    """Check one sentence's kernel operands and return P, R and E as float64
    arrays.  P must be c x r, R d x r x r and E n x r for W (c x n) and X
    (d x n x n), with r the column count of P; else DimensionMismatch."""
    p, r_tensor, e = (np.asarray(a, dtype=np.float64) for a in (p, r_tensor, e))
    r = p.shape[-1]
    if p.shape != (w.c, r):
        raise DimensionMismatch("P shape %s incompatible with c=%d, r=%d" % (p.shape, w.c, r))
    if r_tensor.shape != (x.d, r, r):
        raise DimensionMismatch("R shape %s incompatible with d=%d, r=%d"
                                % (r_tensor.shape, x.d, r))
    if e.shape != (w.n, r) or x.n != w.n:
        raise DimensionMismatch("token counts of W, X and E disagree: W n=%d, X n=%d, "
                                "E shape %s for r=%d" % (w.n, x.n, e.shape, r))
    return p, r_tensor, e


def _fit(tensor, total, predicted):
    """||T - prediction||^2 over every cell of T, from total (all cells' squared
    predictions) and predicted (each entry's): the error at each entry, plus
    total less the entries' squared predictions only if a cell holds no entry,
    so an exact fit is 0."""
    error = predicted - tensor.values
    fit = float(error @ error)
    if tensor.nnz < math.prod(tensor.shape):
        fit += total - float(predicted @ predicted)
    return fit


def reconstruction_loss(w, x, p, r_tensor, e, alpha=1.0):
    """||W - P E^T||^2 + alpha ||X - E R E^T||^2 over every cell, read from the
    entries: with M = E^T E, the squared predictions sum to <P^T P, M> over W
    and sum_k <R_k, M R_k M> over X; W entry (i, t) is predicted p_i . e_t and
    X entry (k, h, t) e_h R_k e_t.  Memory is O(nnz r + d r^2)."""
    p, r_tensor, e = check_operands(w, x, p, r_tensor, e)
    m = e.T @ e
    w_fit = _fit(w, float(np.sum((p.T @ p) * m)),
                 np.einsum("ja,ja->j", p[w.rows], e[w.cols]))
    x_predicted = np.empty(x.nnz)
    for k, at, heads, deps, _ in x.relation_slices():
        x_predicted[at] = np.einsum("ja,ja->j", e[heads] @ r_tensor[k], e[deps])
    x_fit = _fit(x, float(np.sum(r_tensor * (m @ r_tensor @ m))), x_predicted)
    return w_fit + alpha * x_fit


# Tensor dump: "dims c d", then per sentence "sentence <id> <n>" followed by
# one "<tag> <index per axis> <value>" line per entry of W and of X.
_TAGS = {"W": SparsePropertyMatrix, "X": SparseRelationTensor}


def check_sentence_id(sid):
    """Raise BoveError unless sid is one run of non-whitespace characters,
    as the tensor dump and bag file readers split their lines."""
    text = str(sid)
    if text.split() != [text]:
        raise BoveError("sentence id %r is empty or holds whitespace" % (sid,))


def write_tensor_file(path, sentences, c, d):
    """Write a corpus of (id, W, X) triples as coordinate text with values.
    Every id is checked (check_sentence_id) before the file is opened."""
    for sid, _, _ in sentences:
        check_sentence_id(sid)
    with open(path, "w", encoding="utf-8") as f:
        f.write("dims %d %d\n" % (c, d))
        for sid, w, x in sentences:
            f.write("sentence %s %d\n" % (sid, w.n))
            for tag, tensor in zip(_TAGS, (w, x)):
                line = tag + " %d" * len(tensor.AXES) + " %.17g\n"
                for entry in zip(*tensor.coords, tensor.values):
                    f.write(line % entry)


def _size(raw):
    size = int(raw)
    if size < 0:
        raise ValueError("negative size %d" % size)
    return size


def finite_float(raw):
    """float(raw); a non-number or a non-finite value raises ValueError.
    The one parse of the real numbers in text inputs: tensor dumps, pair and
    scores files and word vectors."""
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError("non-finite value %r" % raw)
    return value


def read_tensor_file(path):
    """Read a coordinate text corpus back; returns (c, d, [(id, W, X), ...])."""
    sentences = []
    c = d = None
    current = None  # (id, n, line number, {tag: one index list per axis, then the values})

    def flush():
        if current is not None:
            sid, n, line_no, columns = current
            sizes = {"c": c, "d": d, "n": n}
            try:
                sentences.append((sid, *(cls._build(sizes, columns[tag])
                                         for tag, cls in _TAGS.items())))
            except DimensionMismatch as exc:
                raise DimensionMismatch("%s line %d: sentence %s: %s"
                                        % (path, line_no, sid, exc)) from None

    with open(path, encoding="utf-8") as f:
        for line_no, line in enumerate(f, start=1):
            parts = line.split()
            if not parts:
                continue
            tag = parts[0]
            if tag != "dims" and c is None:
                raise BoveError("%s line %d: %r before the 'dims c d' header"
                                % (path, line_no, tag))
            if tag in _TAGS and current is None:
                raise BoveError("%s line %d: %s entry before the first 'sentence' line"
                                % (path, line_no, tag))
            try:
                if tag in ("dims", "sentence") and len(parts) > 3:
                    raise ValueError("too many fields")
                if tag == "dims":
                    if c is not None:
                        raise BoveError("%s line %d: a second 'dims' line"
                                        % (path, line_no))
                    c, d = _size(parts[1]), _size(parts[2])
                elif tag == "sentence":
                    flush()
                    current = (parts[1], _size(parts[2]), line_no,
                               {t: [[] for _ in range(len(cls.AXES) + 1)]
                                for t, cls in _TAGS.items()})
                elif tag in _TAGS:
                    *indices, values = current[3][tag]
                    value_at = len(indices) + 1
                    if len(parts) > value_at + 1:
                        raise ValueError("too many fields")
                    for axis, index in enumerate(indices, start=1):
                        index.append(int(parts[axis]))
                    values.append(finite_float(parts[value_at]) if len(parts) > value_at else 1.0)
                else:
                    raise BoveError("%s line %d: unknown line tag %r"
                                    % (path, line_no, tag))
            except (IndexError, ValueError):
                raise BoveError("%s line %d: malformed %r line"
                                % (path, line_no, tag)) from None
    if c is None:
        raise BoveError("%s: missing the 'dims c d' header" % path)
    flush()
    return c, d, sentences

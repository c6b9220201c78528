"""Sparse indicator tensors for sentence graphs and the reconstruction loss.

A sentence graph becomes a property matrix W (c x n, one column per token,
two unit entries per column: word and PoS predicate) and a relation tensor
X (d x n x n, one unit entry per labeled directed edge).  Both are stored
in coordinate form; real-valued entries are allowed so the loss evaluator
also works on synthetic tensors.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BoveError, DimensionMismatch


class _CoordinateTensor:
    """Coordinate form shared by W and X: one index array per axis and one
    value per entry; unlisted cells are 0 and duplicate coordinates add up.

    Each subclass is a frozen dataclass that declares AXES, one
    (index field, size field, what the index counts) triple per axis.
    """

    AXES = ()

    def __post_init__(self):
        coords = [np.asarray(getattr(self, name), dtype=np.int64)
                  for name, _, _ in self.AXES]
        values = np.ones(len(coords[0])) if self.values is None else self.values
        values = np.asarray(values, dtype=np.float64)
        if any(len(index) != len(values) for index in coords):
            raise DimensionMismatch("coordinate arrays must have equal length")
        for index, size, (name, _, counts) in zip(coords, self.shape, self.AXES):
            if len(index) and (index.min() < 0 or index.max() >= size):
                raise DimensionMismatch("%s index out of range" % counts)
            object.__setattr__(self, name, index)
        object.__setattr__(self, "values", values)

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
        np.add.at(dense, self.coords, self.values)
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


def reconstruct_x(e, r_tensor):
    """Dense reconstruction E . R . E^T, shape d x n x n."""
    return np.einsum("ia,kab,jb->kij", e, r_tensor, e)


def reconstruction_loss(w, x, p, r_tensor, e, alpha=1.0):
    """Full squared reconstruction loss over every cell of W and X.

    ||W - P E^T||^2 + alpha ||X - E R E^T||^2.  All n^2 d relation cells
    participate, zeros included.
    """
    p = np.asarray(p, dtype=np.float64)
    r_tensor = np.asarray(r_tensor, dtype=np.float64)
    e = np.asarray(e, dtype=np.float64)
    if p.shape != (w.c, e.shape[1]):
        raise DimensionMismatch(
            "P shape %s incompatible with c=%d, r=%d" % (p.shape, w.c, e.shape[1])
        )
    if r_tensor.shape != (x.d, e.shape[1], e.shape[1]):
        raise DimensionMismatch(
            "R shape %s incompatible with d=%d, r=%d"
            % (r_tensor.shape, x.d, e.shape[1])
        )
    if e.shape[0] != w.n or w.n != x.n:
        raise DimensionMismatch("token counts of W, X and E disagree")
    loss = float(np.sum((w.to_dense() - p @ e.T) ** 2))
    loss += alpha * float(np.sum((x.to_dense() - reconstruct_x(e, r_tensor)) ** 2))
    return loss


# Tensor dump: "dims c d", then per sentence "sentence <id> <n>" followed by
# one "<tag> <index per axis> <value>" line per entry of W and of X.
_TAGS = {"W": SparsePropertyMatrix, "X": SparseRelationTensor}


def write_tensor_file(path, sentences, c, d):
    """Write a corpus of (id, W, X) triples as coordinate text with values."""
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


def _value(raw):
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError("non-finite value %r" % raw)
    return value


def read_tensor_file(path):
    """Read a coordinate text corpus back; returns (c, d, [(id, W, X), ...])."""
    sentences = []
    c = d = None
    current = None  # (id, n, {tag: one index list per axis, then the values})

    def flush():
        if current is not None:
            sid, n, columns = current
            sizes = {"c": c, "d": d, "n": n}
            sentences.append((sid, *(cls._build(sizes, columns[tag])
                                     for tag, cls in _TAGS.items())))

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
                if tag == "dims":
                    c, d = _size(parts[1]), _size(parts[2])
                elif tag == "sentence":
                    flush()
                    current = (parts[1], _size(parts[2]),
                               {t: [[] for _ in range(len(cls.AXES) + 1)]
                                for t, cls in _TAGS.items()})
                elif tag in _TAGS:
                    *indices, values = current[2][tag]
                    value_at = len(indices) + 1
                    if len(parts) > value_at + 1:
                        raise ValueError("too many fields")
                    for axis, index in enumerate(indices, start=1):
                        index.append(int(parts[axis]))
                    values.append(_value(parts[value_at]) if len(parts) > value_at else 1.0)
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

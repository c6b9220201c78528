"""Sparse indicator tensors for sentence graphs and the reconstruction loss.

A sentence graph becomes a property matrix W (c x n, one column per token,
two unit entries per column: word and PoS predicate) and a relation tensor
X (d x n x n, one unit entry per labeled directed edge).  Both are stored
in coordinate form; real-valued entries are allowed so the loss evaluator
also works on synthetic tensors.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import BoveError, DimensionMismatch


@dataclass(frozen=True)
class SparsePropertyMatrix:
    """Coordinate-form property matrix, shape c x n, unlisted cells are 0."""

    c: int
    n: int
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray = field(default=None)

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=np.int64)
        cols = np.asarray(self.cols, dtype=np.int64)
        values = self.values
        if values is None:
            values = np.ones(len(rows), dtype=np.float64)
        values = np.asarray(values, dtype=np.float64)
        if not (len(rows) == len(cols) == len(values)):
            raise DimensionMismatch("coordinate arrays must have equal length")
        if len(rows) and (rows.min() < 0 or rows.max() >= self.c):
            raise DimensionMismatch("predicate index out of range")
        if len(cols) and (cols.min() < 0 or cols.max() >= self.n):
            raise DimensionMismatch("token index out of range")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "values", values)

    @property
    def nnz(self):
        return len(self.rows)

    def to_dense(self):
        dense = np.zeros((self.c, self.n))
        np.add.at(dense, (self.rows, self.cols), self.values)
        return dense


@dataclass(frozen=True)
class SparseRelationTensor:
    """Coordinate-form relation tensor, shape d x n x n, unlisted cells are 0."""

    d: int
    n: int
    rels: np.ndarray
    heads: np.ndarray
    deps: np.ndarray
    values: np.ndarray = field(default=None)

    def __post_init__(self):
        rels = np.asarray(self.rels, dtype=np.int64)
        heads = np.asarray(self.heads, dtype=np.int64)
        deps = np.asarray(self.deps, dtype=np.int64)
        values = self.values
        if values is None:
            values = np.ones(len(rels), dtype=np.float64)
        values = np.asarray(values, dtype=np.float64)
        if not (len(rels) == len(heads) == len(deps) == len(values)):
            raise DimensionMismatch("coordinate arrays must have equal length")
        if len(rels) and (rels.min() < 0 or rels.max() >= self.d):
            raise DimensionMismatch("relation index out of range")
        for arr in (heads, deps):
            if len(arr) and (arr.min() < 0 or arr.max() >= self.n):
                raise DimensionMismatch("token index out of range")
        object.__setattr__(self, "rels", rels)
        object.__setattr__(self, "heads", heads)
        object.__setattr__(self, "deps", deps)
        object.__setattr__(self, "values", values)

    @property
    def nnz(self):
        return len(self.rels)

    def to_dense(self):
        dense = np.zeros((self.d, self.n, self.n))
        np.add.at(dense, (self.rels, self.heads, self.deps), self.values)
        return dense


def from_dense(w_dense, x_dense):
    """Coordinate forms of dense W (c x n) and X (d x n x n) arrays."""
    w_dense = np.asarray(w_dense, dtype=np.float64)
    x_dense = np.asarray(x_dense, dtype=np.float64)
    wr, wc = np.nonzero(w_dense)
    xr, xh, xd = np.nonzero(x_dense)
    w = SparsePropertyMatrix(
        c=w_dense.shape[0], n=w_dense.shape[1], rows=wr, cols=wc,
        values=w_dense[wr, wc],
    )
    x = SparseRelationTensor(
        d=x_dense.shape[0], n=x_dense.shape[1], rels=xr, heads=xh, deps=xd,
        values=x_dense[xr, xh, xd],
    )
    return w, x


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


def reconstruction_loss(w, x, p, r_tensor, e, alpha=1.0,
                        lambda_p=0.0, lambda_r=0.0, lambda_e=0.0,
                        include_regularizers=False):
    """Full squared reconstruction loss over every cell of W and X.

    ||W - P E^T||^2 + alpha ||X - E R E^T||^2, optionally plus the L2
    regularizer terms.  All n^2 d relation cells participate, zeros included.
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
    if include_regularizers:
        loss += lambda_p * float(np.sum(p ** 2))
        loss += lambda_r * float(np.sum(r_tensor ** 2))
        loss += lambda_e * float(np.sum(e ** 2))
    return loss


def dump_coordinates(w, x, stream, sentence_id=None, with_values=False):
    """Write W/X as coordinate text lines ("W <pred> <tok>", "X <rel> <h> <d>")."""
    if sentence_id is not None:
        stream.write("sentence %s %d\n" % (sentence_id, w.n))
    for i in range(w.nnz):
        if with_values:
            stream.write("W %d %d %.17g\n" % (w.rows[i], w.cols[i], w.values[i]))
        else:
            stream.write("W %d %d\n" % (w.rows[i], w.cols[i]))
    for i in range(x.nnz):
        if with_values:
            stream.write("X %d %d %d %.17g\n"
                         % (x.rels[i], x.heads[i], x.deps[i], x.values[i]))
        else:
            stream.write("X %d %d %d\n" % (x.rels[i], x.heads[i], x.deps[i]))


def write_tensor_file(path, sentences, c, d):
    """Write a corpus of (id, W, X) triples as coordinate text with values."""
    with open(path, "w", encoding="utf-8") as f:
        f.write("dims %d %d\n" % (c, d))
        for sid, w, x in sentences:
            dump_coordinates(w, x, f, sentence_id=sid, with_values=True)


def read_tensor_file(path):
    """Read a coordinate text corpus back; returns (c, d, [(id, W, X), ...])."""
    sentences = []
    c = d = None
    current = None

    def flush():
        if current is None:
            return
        sid, n, wrows, wcols, wvals, xr, xh, xd, xv = current
        w = SparsePropertyMatrix(c=c, n=n, rows=np.array(wrows, dtype=np.int64),
                                 cols=np.array(wcols, dtype=np.int64),
                                 values=np.array(wvals))
        x = SparseRelationTensor(d=d, n=n, rels=np.array(xr, dtype=np.int64),
                                 heads=np.array(xh, dtype=np.int64),
                                 deps=np.array(xd, dtype=np.int64),
                                 values=np.array(xv))
        sentences.append((sid, w, x))

    with open(path, encoding="utf-8") as f:
        for line_no, line in enumerate(f, start=1):
            parts = line.split()
            if not parts:
                continue
            if parts[0] != "dims" and c is None:
                raise BoveError("%s line %d: %r before the 'dims c d' header"
                                % (path, line_no, parts[0]))
            if parts[0] in ("W", "X") and current is None:
                raise BoveError("%s line %d: %s entry before the first 'sentence' line"
                                % (path, line_no, parts[0]))
            try:
                if parts[0] == "dims":
                    c, d = int(parts[1]), int(parts[2])
                elif parts[0] == "sentence":
                    flush()
                    current = (parts[1], int(parts[2]), [], [], [], [], [], [], [])
                elif parts[0] == "W":
                    current[2].append(int(parts[1]))
                    current[3].append(int(parts[2]))
                    current[4].append(float(parts[3]) if len(parts) > 3 else 1.0)
                elif parts[0] == "X":
                    current[5].append(int(parts[1]))
                    current[6].append(int(parts[2]))
                    current[7].append(int(parts[3]))
                    current[8].append(float(parts[4]) if len(parts) > 4 else 1.0)
            except (IndexError, ValueError):
                raise BoveError("%s line %d: malformed %r line"
                                % (path, line_no, parts[0])) from None
    if c is None:
        raise BoveError("%s: missing the 'dims c d' header" % path)
    flush()
    return c, d, sentences

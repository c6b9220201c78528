"""Sparse indicator tensors for sentence graphs and the reconstruction loss.

A sentence graph becomes a property matrix W (c x n, one column per token,
two unit entries per column: word and PoS predicate) and a relation tensor
X (d x n x n, one unit entry per labeled directed edge).  Both are stored
in canonical coordinate form, one entry per cell in cell order; real-valued
entries are allowed so the loss evaluator also works on synthetic tensors.
Every text input of the package is read through text_lines, and its real
numbers are parsed by finite_float.
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
        if math.prod(self.shape) > np.iinfo(np.int64).max:
            raise DimensionMismatch("shape %s has more cells than an int64 index counts"
                                    % (self.shape,))
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


def runs(keys, count):
    """(key, slice) of each nonempty run of each key in range(count) in the
    sorted keys: one np.searchsorted gives every run's bounds."""
    bounds = np.searchsorted(keys, np.arange(count + 1))
    for k in np.flatnonzero(bounds[1:] > bounds[:-1]):
        yield int(k), slice(bounds[k], bounds[k + 1])


def entry_rows(x, r_tensor, rows):
    """rows[j] R_k (nnz x r) for X's entry j of relation k, one product per
    relation: rows E[heads] with R give each entry's e_h R_k, and rows
    E[deps] with R.transpose(0, 2, 1) its e_t R_k^T."""
    out = np.empty(rows.shape)
    for k, at in runs(x.rels, x.d):
        out[at] = rows[at] @ r_tensor[k]
    return out


def add_rows(out, index, rows):
    """out[index] += rows, summing repeated indices, as np.add.at(out,
    index, rows) does and bit for bit: one 1-D add.at over out's flat view,
    which numpy runs much faster than the 2-D form, with each element still
    taking its terms in index order.  A target that is not C-contiguous has
    no flat view (reshape would copy it and drop the sums), so it raises."""
    if not out.flags.c_contiguous:
        raise ValueError("add_rows needs a C-contiguous target")
    width = out.shape[1]
    flat = index[:, None] * width + np.arange(width)
    np.add.at(out.reshape(-1), flat.reshape(-1), rows.reshape(-1))


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
    if e.ndim == 2 and e.shape[1] != r:
        raise DimensionMismatch("E has rank %d but P has rank %d" % (e.shape[1], r))
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


def reconstruction_loss(w, x, model, e):
    """||W - P E^T||^2 + alpha ||X - E R E^T||^2 over every cell, with P, R and
    alpha from model, read from the entries: with M = E^T E, the squared
    predictions sum to <P^T P, M> over W and <relation_gram(R, M), M> / 2
    over X; W entry (i, t) is predicted p_i . e_t and X entry (k, h, t)
    e_h R_k e_t.  Memory is O(nnz r + d r^2)."""
    p, r_tensor, e = check_operands(w, x, model.P, model.R, e)
    m = e.T @ e
    w_fit = _fit(w, float(np.sum((p.T @ p) * m)),
                 np.einsum("ja,ja->j", p[w.rows], e[w.cols]))
    x_fit = _fit(x, 0.5 * float(np.sum(relation_gram(r_tensor, m) * m)),
                 np.einsum("ja,ja->j", entry_rows(x, r_tensor, e[x.heads]), e[x.deps]))
    return w_fit + model.hyper.alpha * x_fit


def relation_gram(r_tensor, m):
    """G(M) = sum_k R_k M R_k^T + R_k^T M R_k (r x r), self-adjoint: <G(A), B> =
    <A, G(B)>; for symmetric A, B both are sum_k <R_k, A R_k B> + <R_k, B R_k A>."""
    return (np.tensordot(r_tensor @ m, r_tensor, axes=([0, 2], [0, 2]))
            + np.tensordot(r_tensor, m @ r_tensor, axes=([0, 1], [0, 1])))


def entry_scatter(w, x, p, r_tensor, e, alpha):
    """Y F^T at E (n x r), the E solve's right-hand side, from the entries: one
    of value v adds v p_i to row t for W's (i, t), and alpha v e_t R_k^T to
    row h and alpha v e_h R_k to row t for X's (k, h, t)."""
    out = np.zeros(e.shape)  # C-ordered whatever e's order, as add_rows needs
    add_rows(out, w.cols, w.values[:, None] * p[w.rows])
    weights = alpha * x.values[:, None]
    add_rows(out, x.heads, weights * entry_rows(x, r_tensor.transpose(0, 2, 1), e[x.deps]))
    add_rows(out, x.deps, weights * entry_rows(x, r_tensor, e[x.heads]))
    return out


def loss_along(x, model, e, gram, step, direction):
    """(a1, a2, a3, a4) with f(E + t D) - f(E) = a1 t + a2 t^2 + a3 t^3 + a4 t^4
    for the E objective f = reconstruction_loss + lambda_e ||E||^2 under
    model and the direction D, read from one refresh at E: (E_new, H) =
    update_E_sentence(w, x, model, E), gram = H and step = E_new - E.  f's
    gradient at E is -2 step H, so a1 = -2 <step H, D>.  E + t D has Gram
    M + t S + t^2 N (S = E^T D + D^T E, N = D^T D), and G = relation_gram is
    self-adjoint, so a2 = <H, N> + alpha (<G(S), S> / 2 - 2 sum v d_h R_k d_t)
    over X's entries (k, h, t) of value v, a3 = alpha <G(S), N> and a4 =
    alpha <G(N), N> / 2.  The coefficients are not a difference of two
    losses, so a1 keeps its sign for steps far below the rounding of the
    loss."""
    r_tensor, alpha = model.R, model.hyper.alpha
    c, n = e.T @ direction, direction.T @ direction
    s = c + c.T
    g_s, g_n = relation_gram(r_tensor, s), relation_gram(r_tensor, n)
    x_square = np.einsum("j,ja,ja->", x.values, entry_rows(x, r_tensor, direction[x.heads]),
                         direction[x.deps])
    a1 = -2.0 * np.sum((step @ gram) * direction)
    a2 = np.sum(gram * n) + alpha * (0.5 * np.sum(g_s * s) - 2.0 * x_square)
    a3, a4 = alpha * np.sum(g_s * n), 0.5 * alpha * np.sum(g_n * n)
    return float(a1), float(a2), float(a3), float(a4)


def quartic_minimizer(a):
    """The t > 0 that minimizes a1 t + a2 t^2 + a3 t^3 + a4 t^4 for a = (a1,
    a2, a3, a4), taken among the real parts of the roots of its derivative;
    0 where it does not descend: a1 >= 0, a coefficient is not finite
    (np.roots refuses a NaN), or a1 is too small for np.roots to divide by.
    np.roots places roots to about eps times the largest, so the derivative
    is rooted in u = 1 / t, a1 u^3 + 2 a2 u^2 + 3 a3 u + 4 a4: the roots
    nearest t = 0, where the first minimum lies, stay accurate beside a far
    one (a3 and a4 of rounding beside a2), and a u below 1e-12 of the
    largest, a root too far to place, is dropped."""
    if not (np.isfinite(a).all() and a[0] < 0):
        return 0.0
    derivative = [a[0], 2.0 * a[1], 3.0 * a[2], 4.0 * a[3]]  # in u = 1 / t
    if -a[0] < max(map(abs, derivative)) / np.finfo(float).max:
        return 0.0
    u = np.roots(derivative)
    u = u[np.abs(u) > 1e-12 * np.abs(u).max()].real
    t = 1.0 / u[u > 0]
    if not len(t):
        return 0.0
    return float(t[np.argmin(np.polyval([a[3], a[2], a[1], a[0], 0.0], t))])


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


def text_lines(path):
    """(number, line) for each line of the UTF-8 text file at path, numbered
    from 1, newlines translated as text mode does.  The one reader of text
    inputs: a line holding a byte that is not UTF-8 raises BoveError naming
    the file and that line.  Decoding with surrogateescape keeps each bad
    byte, as a lone surrogate, in the line that holds it, and only a line
    that is not ASCII can hold one."""
    with open(path, encoding="utf-8", errors="surrogateescape") as f:
        for number, line in enumerate(f, start=1):
            if not line.isascii():
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError:
                    raise BoveError("%s line %d: not UTF-8 text" % (path, number)) from None
            yield number, line


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

    for line_no, line in text_lines(path):
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
                    raise BoveError("%s line %d: a second 'dims' line" % (path, line_no))
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
                raise BoveError("%s line %d: unknown line tag %r" % (path, line_no, tag))
        except (IndexError, ValueError):
            raise BoveError("%s line %d: malformed %r line"
                            % (path, line_no, tag)) from None
    if c is None:
        raise BoveError("%s: missing the 'dims c d' header" % path)
    flush()
    return c, d, sentences

"""Mini-batch SGD trainer with adaptive per-parameter learning rates.

The alternative to ALS: a step solves no system and touches only its
batch's sampled cells, so its cost follows the batch, not the corpus.
Positive cells of each sentence's tensors are always visited; zero cells
are subsampled (k uniform draws per positive, each a rank in the zero
cells' row-major order) and importance-weighted so the sampled loss is an
unbiased estimate of the full-tensor objective.
"""

import math
import time
from dataclasses import dataclass

import numpy as np

from .als import check_corpus, log_round, numeric_errors_as
from .encoding import add_rows, runs
from .errors import DivergenceError
from .model import check_bounds

# keeps the adaptive step finite for a parameter with no gradient yet
ADAPT_EPS = 1e-8


@dataclass(frozen=True)
class SgdConfig:
    batch_size: int = 8
    learning_rate: float = 0.05
    negatives_per_positive: int = 5
    epochs: int = 100
    seed: int = 0

    # learning_rate > 0: its bound is the least positive float
    _BOUNDS = (("batch_size", 1), ("learning_rate", math.ulp(0.0)),
               ("negatives_per_positive", 1), ("epochs", 0), ("seed", 0))

    def __post_init__(self):
        check_bounds(self, self._BOUNDS)


@dataclass
class SgdState:
    """Accumulated squared gradients for the adaptive step-size divisor."""

    acc_p: np.ndarray
    acc_r: np.ndarray
    acc_e: list


def _sample(tensor, k, rng):
    """Cells of one coordinate tensor: a copy of its entries (target the
    entry's value, weight 1), then k * nnz uniform draws over its zero cells
    (target 0).  Only the draws are new at each call.

    The draws are ranks in the zero cells' row-major order, from one
    rng.integers call.  Since `cells` is strictly increasing, cells[j] - j
    zero cells precede entry j, so the zero cell of rank q is q plus the
    count of entries j with cells[j] - j <= q.  A tensor with no zero cell
    or no entry draws nothing.
    """
    shape, nnz = tensor.shape, tensor.nnz
    n_zero = math.prod(shape) - nnz
    wanted = k * nnz if n_zero else 0
    rank = rng.integers(n_zero, size=wanted)
    rank += np.searchsorted(tensor.cells - np.arange(nnz), rank, side="right")
    cells = np.zeros((nnz + wanted, len(shape) + 2))
    cells[:nnz] = np.column_stack((*tensor.coords, tensor.values, np.ones(nnz)))
    cells[nnz:, :-2] = np.column_stack(np.unravel_index(rank, shape))
    cells[nnz:, -1] = n_zero / wanted if wanted else 0.0
    return cells


def sample_cells(w, x, k, rng):
    """Sampled cells of one sentence: positives plus weighted negatives.

    Returns (w_cells, x_cells), float arrays with one row per cell; w_cells
    rows are (pred, tok, target, weight), x_cells rows are (rel, head, dep,
    target, weight).  Negatives are uniform over zero cells, each the zero
    cell of a uniform rank in row-major cell order (W's draws, then X's),
    with weight n_zero / (k * n_pos) so the expected sampled zero-cell loss
    equals the full zero-cell loss.
    """
    return _sample(w, k, rng), _sample(x, k, rng)


def sampled_loss_and_grads(batch, samples, model, e_store):
    """Loss and analytic gradients of the sampled objective on one batch.

    The objective's weights are model.hyper's.  batch is a list of sentence
    indices into e_store, the whole corpus's E; samples[s] the fixed cell
    draws for sentence s.  Regularizer terms for P and R are scaled by the
    batch's share of the corpus, len(batch) / len(e_store), so one epoch
    applies them once; the E terms of batch sentences enter at full strength.
    The per-cell gradient rows scatter through the flat view of each target
    (`encoding.add_rows`), which matches np.add.at bit for bit.
    """
    p, r_tensor, hyper = model.P, model.R, model.hyper
    reg_scale = len(batch) / len(e_store)
    # the batch sentences' E rows stacked: sentence s owns rows a..b
    e_all = np.concatenate([e_store[s] for s in batch])
    # the regularizer terms; each cell's terms are added to them
    loss = (reg_scale * (hyper.lambda_p * float(np.sum(p ** 2))
                         + hyper.lambda_r * float(np.sum(r_tensor ** 2)))
            + hyper.lambda_e * float(np.sum(e_all ** 2)))
    # g_p and g_all in C order, whatever the model's and e_store's, as add_rows needs
    g_p = np.multiply(2.0 * reg_scale * hyper.lambda_p, p, order="C")
    g_r = 2.0 * reg_scale * hyper.lambda_r * r_tensor
    g_all = np.multiply(2.0 * hyper.lambda_e, e_all, order="C")
    offsets = np.cumsum([0] + [len(e_store[s]) for s in batch])
    g_e = {s: g_all[a:b] for s, a, b in zip(batch, offsets, offsets[1:])}
    for s, a in zip(batch, offsets):
        i, t, target, weight = samples[s][0].T
        i, t = i.astype(np.intp), t.astype(np.intp) + a
        rows = p[i]
        resid = np.einsum("ij,ij->i", rows, e_all[t]) - target
        loss += float(weight @ resid ** 2)
        coef = (2.0 * weight * resid)[:, None]
        # each row block is scaled in place and scattered, and the next
        # replaces it, so at most one is alive beside add_rows' index
        rows *= coef
        add_rows(g_all, t, rows)
        rows = e_all[t]
        rows *= coef
        add_rows(g_p, i, rows)
    del rows  # nor does the last stay alive through the X cells
    # X cells of the whole batch with head and dep as rows of e_all, taken
    # one relation at a time so no temporary holds a row per batch cell
    x_cells = np.concatenate([samples[s][1] + [0, a, a, 0, 0]
                              for s, a in zip(batch, offsets)])
    x_cells = x_cells[np.argsort(x_cells[:, 0], kind="stable")]
    index = x_cells[:, :3].astype(np.intp)
    for k, at in runs(index[:, 0], len(r_tensor)):
        h, t = index[at, 1], index[at, 2]
        target, weight = x_cells[at, 3], x_cells[at, 4]
        rows, e_t = e_all[h] @ r_tensor[k], e_all[t]  # rows: e_h R_k
        resid = np.einsum("ij,ij->i", rows, e_t) - target
        loss += hyper.alpha * float(weight @ resid ** 2)
        coef = (2.0 * hyper.alpha * weight * resid)[:, None]
        rows *= coef
        add_rows(g_all, t, rows)
        e_t *= coef
        g_r[k] += e_all[h].T @ e_t
        rows = e_t @ r_tensor[k].T
        add_rows(g_all, h, rows)
    g_p[model.frozen_p_rows] = 0.0
    return loss, g_p, g_r, g_e


def sgd_step(batch, ws, xs, model, e_store, config, state, rng):
    """Sample cells for each batch sentence, then one adaptive gradient step.

    The step updates model.P, model.R, the batch's e_store rows and state in
    place, and consumes the gradient arrays as its scratch: per parameter,
    acc += grad**2 and param -= lr * grad / (sqrt(acc) + ADAPT_EPS), in
    that order of operations, with one temporary.
    """
    samples = {
        s: sample_cells(ws[s], xs[s], config.negatives_per_positive, rng)
        for s in batch
    }
    loss, g_p, g_r, g_e = sampled_loss_and_grads(batch, samples, model, e_store)
    if not np.isfinite(loss):
        raise DivergenceError("non-finite sampled loss in SGD step")
    steps = [(model.P, state.acc_p, g_p), (model.R, state.acc_r, g_r)]
    steps += [(e_store[s], state.acc_e[s], g_e[s]) for s in batch]
    for param, acc, grad in steps:
        scratch = np.square(grad)
        acc += scratch
        np.sqrt(acc, out=scratch)
        scratch += ADAPT_EPS
        grad *= config.learning_rate
        grad /= scratch
        param -= grad
    if not (np.all(np.isfinite(model.P)) and np.all(np.isfinite(model.R))):
        raise DivergenceError("non-finite parameters after SGD step")
    return loss


@numeric_errors_as(DivergenceError, "training diverged")
def train_sgd(ws, xs, model, config, log=None):
    """Epoch loop over shuffled sentences; returns (model, e_store, trace).

    Single-threaded and fully deterministic given config.seed.  The trace
    records the summed sampled batch losses per epoch, under model.hyper;
    diverges on overflow.  The returned model is a trained copy of model; an
    empty or uneven corpus is refused.
    """
    check_corpus(ws, xs)
    model = model.copy()
    rng = np.random.default_rng(config.seed)
    e_store = [np.zeros((w.n, model.hyper.r)) for w in ws]
    state = SgdState(np.zeros_like(model.P), np.zeros_like(model.R),
                     [np.zeros_like(e) for e in e_store])
    n = len(ws)
    trace = []
    for epoch in range(config.epochs):
        t0 = time.perf_counter()
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, config.batch_size):
            batch = [int(s) for s in order[start:start + config.batch_size]]
            epoch_loss += sgd_step(batch, ws, xs, model, e_store, config, state, rng)
        trace.append(epoch_loss)
        log_round(log, epoch + 1, trace, time.perf_counter() - t0, " sampled=true")
    return model, e_store, trace

"""Mini-batch SGD trainer with adaptive per-parameter learning rates.

The alternative trainer for embedding sizes where the ALS r^2 x r^2 solve
is too expensive.  Positive cells of each sentence's tensors are always
visited; zero cells are subsampled (k uniform draws per positive) and
importance-weighted so the sampled loss is an unbiased estimate of the
full-tensor objective.
"""

import math
import time
from dataclasses import dataclass

import numpy as np

from .als import log_round, numeric_errors_as
from .errors import DivergenceError

# keeps the adaptive step finite for a parameter with no gradient yet
ADAPT_EPS = 1e-8


@dataclass(frozen=True)
class SgdConfig:
    batch_size: int = 8
    learning_rate: float = 0.05
    negatives_per_positive: int = 5
    epochs: int = 100
    seed: int = 0

    def __post_init__(self):
        if min(self.batch_size, self.epochs + 1, self.negatives_per_positive) < 1:
            raise ValueError("batch_size, negatives_per_positive must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")


@dataclass
class SgdState:
    """Accumulated squared gradients for the adaptive step-size divisor."""

    acc_p: np.ndarray
    acc_r: np.ndarray
    acc_e: list


def _sample(tensor, k, rng):
    """Cells of one coordinate tensor: each entry (target its value, weight
    1), then k * nnz uniform draws over its zero cells (target 0).

    A cell takes one rng.integers draw per axis, in axis order.  Cells are
    drawn in batches that read the same random stream as one-at-a-time
    draws, and a batch never holds more cells than are still wanted, so
    rejecting a positive cell leaves the stream where a draw-until-accepted
    loop would.
    """
    shape = tensor.shape
    coords = list(zip(*(index.tolist() for index in tensor.coords)))
    cells = [cell + (value, 1.0) for cell, value in zip(coords, tensor.values.tolist())]
    positives = set(coords)
    n_zero = math.prod(shape) - len(positives)
    wanted = k * tensor.nnz if n_zero else 0
    weight = n_zero / wanted if wanted else 0.0
    while wanted > 0:
        batch = rng.integers(np.tile(shape, wanted)).reshape(wanted, len(shape))
        for cell in map(tuple, batch.tolist()):
            if cell not in positives:
                cells.append(cell + (0.0, weight))
                wanted -= 1
    return cells


def sample_cells(w, x, k, rng):
    """Sampled cells of one sentence: positives plus weighted negatives.

    Returns (w_cells, x_cells); w_cells rows are (pred, tok, target, weight),
    x_cells rows are (rel, head, dep, target, weight).  Negatives are
    uniform over zero cells, with weight n_zero / (k * n_pos) so the
    expected sampled zero-cell loss equals the full zero-cell loss.
    """
    return _sample(w, k, rng), _sample(x, k, rng)


def sampled_loss_and_grads(batch, ws, xs, samples, model, e_store, hyper, reg_scale):
    """Loss and analytic gradients of the sampled objective on one batch.

    batch is a list of sentence indices; samples[s] the fixed cell draws for
    sentence s.  Regularizer terms for P and R are scaled by reg_scale
    (batch fraction of the corpus) so one epoch applies them once; the E
    terms of batch sentences enter at full strength.
    """
    p, r_tensor = model.P, model.R
    alpha = hyper.alpha
    loss = 0.0
    g_p = np.zeros_like(p)
    g_r = np.zeros_like(r_tensor)
    g_e = {s: np.zeros_like(e_store[s]) for s in batch}
    for s in batch:
        e = e_store[s]
        w_cells, x_cells = samples[s]
        for i, t, target, weight in w_cells:
            resid = float(p[i] @ e[t]) - target
            loss += weight * resid * resid
            coef = 2.0 * weight * resid
            g_p[i] += coef * e[t]
            g_e[s][t] += coef * p[i]
        for k, h, t, target, weight in x_cells:
            resid = float(e[h] @ r_tensor[k] @ e[t]) - target
            loss += alpha * weight * resid * resid
            coef = 2.0 * alpha * weight * resid
            g_r[k] += coef * np.outer(e[h], e[t])
            g_e[s][h] += coef * (r_tensor[k] @ e[t])
            g_e[s][t] += coef * (r_tensor[k].T @ e[h])
    loss += reg_scale * hyper.lambda_p * float(np.sum(p ** 2))
    loss += reg_scale * hyper.lambda_r * float(np.sum(r_tensor ** 2))
    g_p += 2.0 * reg_scale * hyper.lambda_p * p
    g_r += 2.0 * reg_scale * hyper.lambda_r * r_tensor
    for s in batch:
        loss += hyper.lambda_e * float(np.sum(e_store[s] ** 2))
        g_e[s] += 2.0 * hyper.lambda_e * e_store[s]
    g_p[model.frozen_p_rows] = 0.0
    return loss, g_p, g_r, g_e


def sgd_step(batch, ws, xs, model, e_store, hyper, config, state, rng, reg_scale):
    """Sample cells for each batch sentence, then one adaptive gradient step."""
    samples = {
        s: sample_cells(ws[s], xs[s], config.negatives_per_positive, rng)
        for s in batch
    }
    loss, g_p, g_r, g_e = sampled_loss_and_grads(
        batch, ws, xs, samples, model, e_store, hyper, reg_scale
    )
    if not np.isfinite(loss):
        raise DivergenceError("non-finite sampled loss in SGD step")
    # += and -= act in place, so each step updates the model, state and e_store
    steps = [(model.P, state.acc_p, g_p), (model.R, state.acc_r, g_r)]
    steps += [(e_store[s], state.acc_e[s], g_e[s]) for s in batch]
    for param, acc, grad in steps:
        acc += grad ** 2
        param -= config.learning_rate * grad / (np.sqrt(acc) + ADAPT_EPS)
    if not (np.all(np.isfinite(model.P)) and np.all(np.isfinite(model.R))):
        raise DivergenceError("non-finite parameters after SGD step")
    return loss


@numeric_errors_as(DivergenceError, "training diverged")
def train_sgd(ws, xs, model, hyper, config, log=None):
    """Epoch loop over shuffled sentences; returns (model, e_store, trace).

    Single-threaded and fully deterministic given config.seed.  The trace
    records the summed sampled batch losses per epoch; diverges on overflow.
    """
    model = model.copy()
    rng = np.random.default_rng(config.seed)
    e_store = [np.zeros((w.n, hyper.r)) for w in ws]
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
            reg_scale = len(batch) / n
            epoch_loss += sgd_step(
                batch, ws, xs, model, e_store, hyper, config, state, rng, reg_scale
            )
        trace.append(epoch_loss)
        log_round(log, epoch + 1, trace, time.perf_counter() - t0, " sampled=true")
    return model, e_store, trace

"""Transductive inference: token embeddings for new sentences, model frozen.

A sentence's bag is a fixed point of the least-squares refresh
(update_E_sentence), which is a stationary point of the sentence's E
objective, the reconstruction loss plus lambda_e ||E||^2.  The refresh alone
need not contract there, so infer_bove accelerates it by Anderson mixing
(Walker & Ni, SIAM J. Numer. Anal. 2011) and moves E by an exact line
search: along any direction the objective is a quartic in the step, so each
move goes to that quartic's minimum (the "enhanced line search" of tensor
ALS; Rajih, Comon & Harshman, SIAM J. Matrix Anal. Appl. 2008).  The
quartic's coefficients come from the system the refresh solved, not from a
difference of two losses, so a step far below the loss's rounding is seen.
"""

from collections import deque

import numpy as np

from .als import numeric_errors_as, update_E_sentence
from .encoding import loss_along, quartic_minimizer
from .errors import DivergenceError

TOL = 1e-8  # converged: the refresh moves E by at most TOL of its norm
DEPTH = 5  # Anderson history: step differences kept
MIXING = 0.5  # Anderson mixing; with no history the candidate is the midpoint
# Anderson fit: directions of the step differences below RCOND of the
# largest are rounding, and fitting them scales it by up to 1 / RCOND
RCOND = 1e-10


def _anderson(history):
    """Extrapolated E from (iterate, step) pairs, oldest first: the last
    iterate plus MIXING times the combination of steps of least norm."""
    es, steps = (np.array(column) for column in zip(*history))
    e, step = es[-1], steps[-1]
    if len(history) == 1:
        return e + MIXING * step
    d_e, d_step = np.diff(es, axis=0), np.diff(steps, axis=0)
    gamma = np.linalg.lstsq(d_step.reshape(len(d_step), -1).T, step.ravel(), rcond=RCOND)[0]
    return e + MIXING * step - np.tensordot(gamma, d_e + MIXING * d_step, axes=1)


def infer_bove(w, x, model):
    """Token embeddings (n x r) for one sentence under model, P and R fixed.

    The first solve is the raw refresh of zeros.  Each later solve refreshes
    the current E; the refresh is returned once it moves E by at most TOL
    of its norm.  Otherwise E moves along the line to the Anderson candidate,
    to the minimum of the E objective on that line, a quartic in the step
    (encoding.loss_along on the refresh's system).  If the objective does not
    fall along that line, the history is cut to its newest pair and E moves
    the same way along step = refresh - E, which descends wherever E is not
    a fixed point: its slope is -2 <step H, step> < 0, H positive definite.
    The kept pair lets the next candidate extrapolate across that move;
    emptying the history instead can alternate the two searches in a zigzag
    of hundreds of solves.  The solve count model.hyper.inference_iters (at
    least 1) is a cap, at which E is returned.
    """
    e = update_E_sentence(w, x, model, np.zeros((w.n, model.hyper.r)))[0]
    history = deque(maxlen=DEPTH + 1)
    for _ in range(model.hyper.inference_iters - 1):
        refreshed, gram = update_E_sentence(w, x, model, e)
        step = refreshed - e
        if np.linalg.norm(step) <= TOL * np.linalg.norm(refreshed):
            return refreshed
        history.append((e, step))
        direction = _anderson(history) - e
        t = quartic_minimizer(loss_along(x, model, e, gram, step, direction))
        if not t:
            while len(history) > 1:
                history.popleft()
            direction = step
            t = quartic_minimizer(loss_along(x, model, e, gram, step, step))
        e = e + t * direction
    return e


def infer_corpus(sentences, model, fail_fast=False):
    """Infer embeddings for (sentence_id, W, X) triples, order preserved.

    Returns (results, failures): results is a list of (sentence_id, E or
    None) aligned with the input; failures lists (sentence_id, exception).
    A numpy overflow or invalid operation is that sentence's
    DivergenceError, not a warning.  With fail_fast the first error is
    raised instead.
    """
    results = []
    failures = []
    for sid, w, x in sentences:
        try:
            with numeric_errors_as(DivergenceError, "inference diverged"):
                results.append((sid, infer_bove(w, x, model)))
        except Exception as exc:  # noqa: BLE001 - reported per sentence
            if fail_fast:
                raise
            results.append((sid, None))
            failures.append((sid, exc))
    return results, failures

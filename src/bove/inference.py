"""Transductive inference: token embeddings for new sentences, model frozen.

A sentence's bag is a fixed point of the least-squares refresh
(update_E_sentence), a stationary point of the sentence's E objective, the
reconstruction loss plus lambda_e ||E||^2.  The refresh alone need not
contract there, so infer_bove runs nonlinear conjugate gradients with the
refresh as preconditioner (De Sterck & Winlaw, Numer. Linear Algebra Appl.
2015), each move an exact line search: along any direction the objective is
a quartic in the step (the "enhanced line search" of tensor ALS; Rajih,
Comon & Harshman, SIAM J. Matrix Anal. Appl. 2008), read from the system
the refresh solved, so a step far below the loss's rounding is seen.
"""

import numpy as np

from .als import numeric_errors_as, update_E_sentence
from .encoding import loss_along, quartic_minimizer
from .errors import DivergenceError

TOL = 1e-8  # converged: the refresh moves E by at most TOL of its norm
# Powell's restart: the direction drops its history when two successive
# steps are this far from conjugate
RESTART = 0.2


def infer_bove(w, x, model):
    """Token embeddings (n x r) for one sentence under model, P and R fixed.

    The first solve is the raw refresh of zeros.  Each later solve k
    refreshes the current E; the refresh is returned once it moves E by at
    most TOL of its norm.  Otherwise, with S_k = refresh - E and H_k the
    system the refresh solved (the E objective's gradient is -2 S_k H_k),
    E moves along D_k = S_k + beta_k D_(k-1), where
        beta_k = max(0, <S_k H_k, S_k - S_(k-1)> / <S_(k-1) H_(k-1), S_(k-1)>)
    (Polak-Ribiere+), and beta_k = 0 at the first move and wherever
    |<S_k H_k, S_(k-1)>| >= RESTART <S_k H_k, S_k> (Powell's restart).  E
    goes to the minimum of the E objective on that line, a quartic in the
    step (encoding.loss_along on the refresh's system).  If the objective
    does not fall along D_k, E moves the same way along S_k, which descends
    wherever E is not a fixed point: its slope is -2 <S_k H_k, S_k> < 0, H_k
    positive definite; D_k = S_k then, so the recurrence restarts.  The
    solve count model.hyper.inference_iters (at least 1) is a cap, at which
    E is returned.
    """
    e = update_E_sentence(w, x, model, np.zeros((w.n, model.hyper.r)))[0]
    previous = None  # (S, <S H, S>, D) of the last move
    for _ in range(model.hyper.inference_iters - 1):
        refreshed, gram = update_E_sentence(w, x, model, e)
        step = refreshed - e
        if np.linalg.norm(step) <= TOL * np.linalg.norm(refreshed):
            return refreshed
        descent = step @ gram  # minus half the E objective's gradient
        norm_h = np.vdot(descent, step)  # <S H, S> > 0
        beta = 0.0
        if previous is not None:
            prev_step, prev_norm_h, prev_direction = previous
            cross = np.vdot(descent, prev_step)
            if abs(cross) < RESTART * norm_h:
                beta = max(0.0, (norm_h - cross) / prev_norm_h)
        direction = step + beta * prev_direction if beta else step
        t = quartic_minimizer(loss_along(x, model, e, gram, step, direction))
        if not t and beta:
            direction = step
            t = quartic_minimizer(loss_along(x, model, e, gram, step, step))
        previous = step, norm_h, direction
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

"""Transductive inference: token embeddings for new sentences, model frozen.

A sentence's bag is a fixed point of the least-squares refresh
(update_E_sentence), which is a stationary point of the sentence's E
objective, the reconstruction loss plus lambda_e ||E||^2.  The refresh alone
need not contract there, so infer_bove accelerates it by Anderson mixing
(Walker & Ni, SIAM J. Numer. Anal. 2011) and keeps a move only if the
objective falls.
"""

from collections import deque

import numpy as np

from .als import update_E_sentence
from .encoding import reconstruction_loss

TOL = 1e-8  # converged: the refresh moves E by at most TOL of its norm
DEPTH = 5  # Anderson history: step differences kept
MIXING = 0.5  # Anderson mixing; with no history the candidate is the midpoint


def _anderson(history):
    """Extrapolated E from (iterate, step) pairs, oldest first: the last
    iterate plus MIXING times the combination of steps of least norm."""
    es, steps = (np.array(column) for column in zip(*history))
    e, step = es[-1], steps[-1]
    if len(history) == 1:
        return e + MIXING * step
    d_e, d_step = np.diff(es, axis=0), np.diff(steps, axis=0)
    gamma = np.linalg.lstsq(d_step.reshape(len(d_step), -1).T, step.ravel(), rcond=None)[0]
    return e + MIXING * step - np.tensordot(gamma, d_e + MIXING * d_step, axes=1)


def infer_bove(w, x, model, iters=None):
    """Token embeddings (n x r) for one sentence under model.hyper, P and R fixed.

    The first solve is the raw refresh of zeros.  Each later solve refreshes
    the current E; the refresh is returned once it moves E by at most TOL
    of its norm.  Otherwise E moves to the Anderson candidate if that lowers
    the E objective, or else to the first of E + t (refresh - E), t = 1,
    1/2, ..., that does; E is returned when none does before the step falls
    below TOL.  The solve count (hyper.inference_iters unless iters is
    given) is a cap, at which E is returned; a count below 1 raises
    ValueError.
    """
    hyper = model.hyper
    total = iters if iters is not None else hyper.inference_iters
    if total < 1:
        raise ValueError("iters must be >= 1, got %d" % total)

    def refresh(e):
        return update_E_sentence(w, x, model.P, model.R, e, hyper.alpha, hyper.lambda_e)

    def objective(e):
        return (reconstruction_loss(w, x, model.P, model.R, e, hyper.alpha)
                + hyper.lambda_e * float(np.sum(e ** 2)))

    e = refresh(np.zeros((w.n, hyper.r)))
    loss = objective(e)
    history = deque(maxlen=DEPTH + 1)
    for _ in range(total - 1):
        refreshed = refresh(e)
        step = refreshed - e
        size, floor = np.linalg.norm(step), TOL * np.linalg.norm(refreshed)
        if size <= floor:
            return refreshed
        history.append((e, step))
        candidate = _anderson(history)
        candidate_loss = objective(candidate)
        if not candidate_loss < loss:  # a NaN objective does not fall either
            history.clear()
            t = 1.0
            while not candidate_loss < loss:
                if t * size <= floor:
                    return e
                candidate = e + t * step
                candidate_loss = objective(candidate)
                t *= 0.5
        e, loss = candidate, candidate_loss
    return e


def infer_corpus(sentences, model, fail_fast=False):
    """Infer embeddings for (sentence_id, W, X) triples, order preserved.

    Returns (results, failures): results is a list of (sentence_id, E or
    None) aligned with the input; failures lists (sentence_id, exception).
    With fail_fast the first error is raised instead.
    """
    results = []
    failures = []
    for sid, w, x in sentences:
        try:
            results.append((sid, infer_bove(w, x, model)))
        except Exception as exc:  # noqa: BLE001 - reported per sentence
            if fail_fast:
                raise
            results.append((sid, None))
            failures.append((sid, exc))
    return results, failures

"""Transductive inference: token embeddings for new sentences, model frozen.

Starting from zeros, the first least-squares refresh draws features only
from the property matrix; every later refresh is blended with the running
average, so features propagate one graph step further per iteration without
oscillating.
"""

import numpy as np

from .als import damped_refreshes, update_E_sentence


def infer_bove(w, x, model, hyper=None, iters=None):
    """Token embeddings (n x r) for one encoded sentence, P and R fixed.

    The first refresh is never averaged; afterwards each iteration solves
    once from the running average and keeps the midpoint.  The iteration
    count (hyper.inference_iters unless iters is given) counts raw solves;
    a count below 1 raises ValueError.
    """
    if hyper is None:
        hyper = model.hyper
    total = iters if iters is not None else hyper.inference_iters
    if total < 1:
        raise ValueError("iters must be >= 1, got %d" % total)

    def refresh(e):
        return update_E_sentence(w, x, model.P, model.R, e, hyper.alpha, hyper.lambda_e)

    return damped_refreshes(refresh, np.zeros((w.n, hyper.r)), total - 1)


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

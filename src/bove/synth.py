"""Synthetic corpora with known ground truth, for oracles and benchmarks.

Exact mode emits real-valued tensors that are exact products of the sampled
ground-truth parameters, so the ground truth achieves zero reconstruction
loss by construction.  Discrete mode min-max-normalizes the products to
[0, 1] and thresholds them into indicator tensors.
"""

from dataclasses import dataclass

import numpy as np

from .encoding import from_dense, reconstruct_x
from .model import Hyperparams, TypeEmbeddings


MODES = ("exact", "discrete")


@dataclass
class SynthData:
    model: TypeEmbeddings
    e_true: list
    sentences: list  # (sentence_id, W, X)


def _sample_truth(rng, n_tokens, c, d, r, n_sentences):
    p = rng.uniform(-1.0, 1.0, size=(c, r)) / np.sqrt(r)
    r_tensor = rng.uniform(-1.0, 1.0, size=(d, r, r)) / r
    es = [rng.uniform(-1.0, 1.0, size=(n_tokens, r)) for _ in range(n_sentences)]
    return p, r_tensor, es


def generate(seed, n_sentences=10, n_tokens=6, c=12, d=3, r=6,
             mode="exact", threshold=0.5, noise=0.0, hyper=None):
    """Sample ground truth P*, R*, E*_s and emit per-sentence tensors.

    mode "exact": W_s = P* E*^T and X_s = E* R* E*^T verbatim (optionally
    with additive uniform noise of half-width `noise`).  mode "discrete":
    products min-max-scaled to [0, 1] and thresholded to indicators.
    """
    rng = np.random.default_rng(seed)
    p, r_tensor, es = _sample_truth(rng, n_tokens, c, d, r, n_sentences)
    if hyper is None:
        hyper = Hyperparams(r=r)
    model = TypeEmbeddings(
        P=p, R=r_tensor, frozen_p_rows=np.zeros(c, dtype=bool), hyper=hyper
    )
    sentences = []
    for idx, e in enumerate(es):
        w_dense = p @ e.T
        x_dense = reconstruct_x(e, r_tensor)
        if noise > 0.0:
            w_dense = w_dense + rng.uniform(-noise, noise, size=w_dense.shape)
            x_dense = x_dense + rng.uniform(-noise, noise, size=x_dense.shape)
        if mode == "discrete":
            w_dense = _binarize(w_dense, threshold)
            x_dense = _binarize(x_dense, threshold)
        elif mode != "exact":
            raise ValueError("mode must be one of %s" % (MODES,))
        w, x = from_dense(w_dense, x_dense)
        sentences.append((str(idx), w, x))
    return SynthData(model=model, e_true=es, sentences=sentences)


def _binarize(dense, threshold):
    lo, hi = dense.min(), dense.max()
    span = hi - lo if hi > lo else 1.0
    return ((dense - lo) / span >= threshold).astype(np.float64)


def make_pair_benchmark(seed, n_matched=50, n_mismatched=50,
                        n_tokens=6, c=12, d=3, r=6, noise=0.05, hyper=None):
    """Paraphrase-style benchmark: pairs sharing ground-truth E* vs not.

    Every pair is two synthetic sentences; matched pairs reuse one E* (each
    side gets independent tensor noise), mismatched pairs draw two unrelated
    E*.  Returns (model, pairs) where pairs are
    (pair_id, (W1, X1), (W2, X2), is_matched).
    """
    rng = np.random.default_rng(seed)
    p, r_tensor, _ = _sample_truth(rng, n_tokens, c, d, r, 1)
    if hyper is None:
        hyper = Hyperparams(r=r)
    model = TypeEmbeddings(
        P=p, R=r_tensor, frozen_p_rows=np.zeros(c, dtype=bool), hyper=hyper
    )

    def tensors(e):
        w_dense = p @ e.T + rng.uniform(-noise, noise, size=(c, n_tokens))
        x_dense = reconstruct_x(e, r_tensor) + rng.uniform(
            -noise, noise, size=(d, n_tokens, n_tokens)
        )
        return from_dense(w_dense, x_dense)

    pairs = []
    for i in range(n_matched):
        e = rng.uniform(-1.0, 1.0, size=(n_tokens, r))
        pairs.append(("match%d" % i, tensors(e), tensors(e), True))
    for i in range(n_mismatched):
        e1 = rng.uniform(-1.0, 1.0, size=(n_tokens, r))
        e2 = rng.uniform(-1.0, 1.0, size=(n_tokens, r))
        pairs.append(("mismatch%d" % i, tensors(e1), tensors(e2), False))
    return model, pairs

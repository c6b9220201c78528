"""Synthetic corpora with known ground truth, for oracles and benchmarks.

Exact mode emits real-valued tensors that are exact products of the sampled
ground-truth parameters, so the ground truth achieves zero reconstruction
loss by construction.  Discrete mode min-max-normalizes the products to
[0, 1] and thresholds them into indicator tensors.
"""

from dataclasses import dataclass

import numpy as np

from .encoding import from_dense
from .model import Hyperparams, TypeEmbeddings


MODES = ("exact", "discrete")


@dataclass
class SynthData:
    model: TypeEmbeddings
    e_true: list
    sentences: list  # (sentence_id, W, X)


def _truth(rng, n_tokens, c, d, n_sentences, hyper):
    """Ground-truth model (P*, R*, nothing frozen, rank hyper.r, carrying
    hyper) and n_sentences draws of E*."""
    r = hyper.r
    p = rng.uniform(-1.0, 1.0, size=(c, r)) / np.sqrt(r)
    r_tensor = rng.uniform(-1.0, 1.0, size=(d, r, r)) / r
    es = [rng.uniform(-1.0, 1.0, size=(n_tokens, r)) for _ in range(n_sentences)]
    model = TypeEmbeddings(P=p, R=r_tensor, frozen_p_rows=np.zeros(c, dtype=bool), hyper=hyper)
    return model, es


def _products(rng, model, e, noise):
    """Dense W = P* E^T and X = E R* E^T; with noise > 0, each plus uniform
    noise of half-width noise, drawn for W and then for X."""
    w_dense = model.P @ e.T
    x_dense = np.einsum("ia,kab,jb->kij", e, model.R, e)
    if noise > 0.0:
        w_dense = w_dense + rng.uniform(-noise, noise, size=w_dense.shape)
        x_dense = x_dense + rng.uniform(-noise, noise, size=x_dense.shape)
    return w_dense, x_dense


def generate(seed, n_sentences=10, n_tokens=6, c=12, d=3,
             mode="exact", threshold=0.5, noise=0.0, hyper=Hyperparams(r=6)):
    """Sample ground truth P*, R*, E*_s (rank hyper.r) and emit per-sentence tensors.

    mode "exact": W_s = P* E*^T and X_s = E* R* E*^T verbatim (optionally
    with additive uniform noise of half-width `noise`).  mode "discrete":
    products min-max-scaled to [0, 1] and thresholded to indicators.
    """
    rng = np.random.default_rng(seed)
    model, es = _truth(rng, n_tokens, c, d, n_sentences, hyper)
    sentences = []
    for idx, e in enumerate(es):
        w_dense, x_dense = _products(rng, model, e, noise)
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
                        n_tokens=6, c=12, d=3, noise=0.05, hyper=Hyperparams(r=6)):
    """Paraphrase-style benchmark: pairs sharing ground-truth E* vs not.

    Every pair is two synthetic sentences of rank hyper.r; matched pairs
    reuse one E* (each side gets independent tensor noise), mismatched pairs
    draw two unrelated E*.  Returns (model, pairs) where pairs are
    (pair_id, (W1, X1), (W2, X2), is_matched).
    """
    rng = np.random.default_rng(seed)
    model, _ = _truth(rng, n_tokens, c, d, 1, hyper)  # the unused E* keeps the stream

    def tensors(e):
        return from_dense(*_products(rng, model, e, noise))

    pairs = []
    for i in range(n_matched):
        e = rng.uniform(-1.0, 1.0, size=(n_tokens, hyper.r))
        pairs.append(("match%d" % i, tensors(e), tensors(e), True))
    for i in range(n_mismatched):
        e1 = rng.uniform(-1.0, 1.0, size=(n_tokens, hyper.r))
        e2 = rng.uniform(-1.0, 1.0, size=(n_tokens, hyper.r))
        pairs.append(("mismatch%d" % i, tensors(e1), tensors(e2), False))
    return model, pairs

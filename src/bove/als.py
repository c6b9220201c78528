"""Alternating least squares training of the factorization model.

P and R have closed-form block updates built from streamed Gram sums; each
sentence's E is refreshed by a damped (averaged) pair of least-squares
solves.  Vectorization convention throughout: vec stacks matrix rows
left-to-right (row-major), token pairs are enumerated row-major over
(head, dependent), so vec(A.B.A^T) = (A kron A) . vec(B).
"""

import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .encoding import check_operands, reconstruction_loss
from .errors import BoveError, DimensionMismatch, DivergenceError, SingularSystemError

ALS_R_CAP = 100


@contextmanager
def numeric_errors_as(error, what):
    """Raise error("<what>: ...") at the first numpy overflow or invalid
    operation (inf - inf).  In a trainer this is a divergence, stopped
    before an inf reaches a solver."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError as exc:
        raise error("%s: %s" % (what, exc)) from None


def _spd_solve_right(gram, rhs, ridge, what):
    """Solve Z (gram + ridge I) = rhs for Z, returned C-contiguous.

    gram must be symmetric PSD; with ridge == 0 a singular gram is an error
    (deterministic behavior, no pseudo-inverse).  A Cholesky factorization
    checks positive definiteness; numpy has no triangular solve, so LU solves.
    """
    a = gram.copy()
    a.flat[::len(a) + 1] += ridge
    if not (np.isfinite(a).all() and np.isfinite(rhs).all()):
        raise DivergenceError("%s system has a non-finite entry" % what)
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        if ridge > 0:
            raise DivergenceError("%s system is not positive definite" % what) from None
        raise SingularSystemError(
            "%s system is singular; set its regularizer > 0" % what
        ) from None
    return np.ascontiguousarray(np.linalg.solve(a, rhs.T).T)


def update_P(ws, es, lambda_p, p_current=None, frozen=None):
    """Exact minimizer of sum ||W_s - P E_s^T||^2 + lambda_p ||P||^2.

    Frozen rows of p_current are carried over unchanged; each P row is an
    independent least-squares problem, so this is exact, not projected.
    Gram sums are streamed; the corpus-wide concatenation never exists.
    """
    r = es[0].shape[1]
    c = ws[0].c
    ete = np.zeros((r, r))
    we = np.zeros((c, r))
    for w, e in zip(ws, es):
        ete += e.T @ e
        np.add.at(we, w.rows, w.values[:, None] * e[w.cols])
    p_new = _spd_solve_right(ete, we, lambda_p, "P update")
    if frozen is not None and frozen.any():
        if p_current is None:
            raise ValueError("frozen rows require the current P")
        p_new[frozen] = p_current[frozen]
    return p_new


def _check_rank(r):
    """Refuse r above ALS_R_CAP, where update_R's r^2 x r^2 solve is too large."""
    if r > ALS_R_CAP:
        raise DimensionMismatch("r=%d exceeds the ALS cap of %d (r^2 x r^2 solve); "
                                "use the SGD trainer, trainer=sgd" % (r, ALS_R_CAP))


def check_corpus(ws, xs):
    """Refuse a corpus with no sentence, or with unequal W and X counts."""
    if len(ws) != len(xs):
        raise BoveError("corpus has %d W tensors but %d X tensors" % (len(ws), len(xs)))
    if not ws:
        raise BoveError("no sentences to train on")


def update_R(xs, es, lambda_r, alpha=1.0):
    """Exact minimizer of sum alpha ||X_s - E_s R E_s^T||^2 + lambda_r ||R||^2.

    Solved through the Kronecker reformulation: each relation slice is the
    row-major matricization of one row of R' = alpha X'E' (alpha E'^T E' +
    lambda_r I)^-1 with E'_s = E_s kron E_s.  Requires an r^2 x r^2 solve,
    hence the cap ALS_R_CAP on r.  Normal equations: ktk = sum G_s kron G_s
    (r^2 x r^2, G_s = E_s^T E_s) is one contraction of the stacked Grams, and
    xk = sum X'_s (E_s kron E_s) (d x r^2), row k summing v vec(e_h e_t^T)
    over X's entries (k, h, t, v).
    """
    r = es[0].shape[1]
    _check_rank(r)
    d = xs[0].d
    grams = np.stack([e.T @ e for e in es])
    ktk = np.einsum("sac,sbd->abcd", grams, grams, optimize=True).reshape(r * r, r * r)
    xk = np.zeros((d, r * r))
    for x, e in zip(xs, es):
        for k, _, heads, deps, values in x.relation_slices():
            xk[k] += (e[heads].T @ (values[:, None] * e[deps])).ravel()
    r_flat = _spd_solve_right(alpha * ktk, alpha * xk, lambda_r, "R update")
    return r_flat.reshape(d, r, r)


def update_E_sentence(w, x, p, r_tensor, e_prev, alpha=1.0, lambda_e=0.0):
    """One linearized least-squares refresh of a sentence's token embeddings.

    Solves the three stacked systems (properties, relations with the old E
    on the right, transposed relations likewise), with sqrt(alpha) applied
    to both the targets and the design blocks of the relation systems, so
    each relation residual carries the loss's weight alpha:
        E_new = Y F^T (F F^T + lambda_e I)^-1
    realized without materializing Y or F: Y F^T is scattered from the
    entries of W and X, as update_P and update_R read them.
    """
    p, r_tensor, e_prev = check_operands(w, x, p, r_tensor, e_prev)
    m = e_prev.T @ e_prev
    # F F^T
    gram = p.T @ p
    gram += alpha * np.einsum("kab,bc,kdc->ad", r_tensor, m, r_tensor)
    gram += alpha * np.einsum("kba,bc,kcd->ad", r_tensor, m, r_tensor)
    # Y F^T
    rhs = np.zeros_like(e_prev)
    np.add.at(rhs, w.cols, w.values[:, None] * p[w.rows])
    for k, _, heads, deps, values in x.relation_slices():
        np.add.at(rhs, heads, alpha * values[:, None] * (e_prev[deps] @ r_tensor[k].T))
        np.add.at(rhs, deps, alpha * values[:, None] * (e_prev[heads] @ r_tensor[k]))
    return _spd_solve_right(gram, rhs, lambda_e, "E update")


def averaged_E_step(w, x, p, r_tensor, e_current, alpha=1.0, lambda_e=0.0):
    """Two consecutive E refreshes with P, R fixed, then their average, which
    damps the raw iteration's overcompensation."""
    e = update_E_sentence(w, x, p, r_tensor, e_current, alpha, lambda_e)
    return 0.5 * (e + update_E_sentence(w, x, p, r_tensor, e, alpha, lambda_e))


def regularize_R_l1(r_tensor, tau):
    """Entrywise soft-thresholding of R (proximal step for the L1 penalty)."""
    if tau < 0:
        raise ValueError("tau must be >= 0")
    return np.sign(r_tensor) * np.maximum(np.abs(r_tensor) - tau, 0.0)


def regularize_R_nuclear(r_tensor, tau):
    """Singular-value soft-thresholding of every relation slice.

    Each slice becomes U soft(S, tau) V^T; shrinking singular values toward
    zero regularizes the rank of each relation matrix.
    """
    u, s, vt = np.linalg.svd(r_tensor, full_matrices=False)
    return (u * regularize_R_l1(s, tau)[:, None, :]) @ vt


# Each R regularizer by name: (pen, shrink).  The objective adds
# lambda_r * pen(R); after its ridge R solve, train sets R to
# shrink(R, lambda_r), unless shrink is None.
R_REGULARIZERS = {
    "l2": (lambda r_tensor: float(np.sum(r_tensor ** 2)), None),
    "l1": (lambda r_tensor: float(np.sum(np.abs(r_tensor))), regularize_R_l1),
    "nuclear": (lambda r_tensor: float(np.sum(np.linalg.svd(r_tensor, compute_uv=False))),
                regularize_R_nuclear),
}


def _regularizers(model, es, hyper):
    """Sum of the P, R and E regularizer terms of the training objective."""
    penalty, _ = R_REGULARIZERS[hyper.r_regularizer]
    return (
        hyper.lambda_p * float(np.sum(model.P ** 2))
        + hyper.lambda_r * penalty(model.R)
        + hyper.lambda_e * sum(float(np.sum(e ** 2)) for e in es)
    )


def corpus_objective(ws, xs, es, model, hyper, data_fit_only=False):
    """Regularized (or pure data-fit) objective over the whole corpus."""
    data_fit = 0.0
    for w, x, e in zip(ws, xs, es):
        data_fit += reconstruction_loss(w, x, model.P, model.R, e, hyper.alpha)
    if data_fit_only:
        return data_fit
    return data_fit + _regularizers(model, es, hyper)


def log_round(log, round_no, trace, seconds, suffix=""):
    """Log one round's line unless log is None; return the trace's relative
    improvement, (previous - last) / previous, or 0 without a positive
    previous entry."""
    prev = trace[-2] if len(trace) > 1 else 0.0
    rel = (prev - trace[-1]) / prev if prev > 0 else 0.0
    if log is not None:
        log("round=%d objective=%.10g rel_improvement=%.6g seconds=%.3f%s"
            % (round_no, trace[-1], rel, seconds, suffix))
    return rel


@dataclass
class TrainResult:
    model: "TypeEmbeddings"
    e_store: list
    trace: list
    data_fit_trace: list
    stopped_by_rule: bool


@numeric_errors_as(DivergenceError, "training diverged")
def train(ws, xs, model, hyper, log=None):
    """Full ALS loop: E sweeps, closed-form P and R updates, stopping rule.

    E starts at zero (matching the test-time setting).  Every e_reinit_period
    rounds E is reset to zeros and e_reinit_burst E-only averaged sweeps run
    instead of that round's single sweep.  Training stops when the relative
    objective improvement over one round drops to rel_improvement_stop, or at
    max_rounds; it diverges on overflow.  The returned model carries hyper.
    An empty or uneven corpus, and r > ALS_R_CAP, are refused before any work.
    """
    check_corpus(ws, xs)
    _check_rank(hyper.r)
    _, shrink = R_REGULARIZERS[hyper.r_regularizer]
    model = model.copy()
    model.hyper = hyper
    es = [np.zeros((w.n, hyper.r)) for w in ws]
    data_fit_trace = [corpus_objective(ws, xs, es, model, hyper, data_fit_only=True)]
    trace = [data_fit_trace[0] + _regularizers(model, es, hyper)]
    stopped = False
    for round_no in range(1, hyper.max_rounds + 1):
        t0 = time.perf_counter()
        reinit = hyper.e_reinit_period > 0 and round_no % hyper.e_reinit_period == 0
        if reinit:
            es = [np.zeros_like(e) for e in es]
            sweeps = hyper.e_reinit_burst
        else:
            sweeps = 1
        for _ in range(sweeps):
            es = [
                averaged_E_step(w, x, model.P, model.R, e, hyper.alpha, hyper.lambda_e)
                for w, x, e in zip(ws, xs, es)
            ]
        model.P = update_P(ws, es, hyper.lambda_p, model.P, model.frozen_p_rows)
        model.R = update_R(xs, es, hyper.lambda_r, hyper.alpha)
        if shrink is not None:
            model.R = shrink(model.R, hyper.lambda_r)
        data_fit = corpus_objective(ws, xs, es, model, hyper, data_fit_only=True)
        obj = data_fit + _regularizers(model, es, hyper)
        if not np.isfinite(obj):
            raise DivergenceError("non-finite objective at round %d" % round_no)
        trace.append(obj)
        data_fit_trace.append(data_fit)
        rel = log_round(log, round_no, trace, time.perf_counter() - t0)
        if rel <= hyper.rel_improvement_stop:
            stopped = True
            break
    return TrainResult(
        model=model, e_store=es, trace=trace,
        data_fit_trace=data_fit_trace, stopped_by_rule=stopped,
    )

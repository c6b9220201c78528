"""Alternating least squares training of the factorization model.

P's closed-form update streams Gram sums over the sentences; R's normal
equations are solved for every relation slice at once by preconditioned
conjugate gradients; each sentence's E takes one least-squares refresh,
then an exact line search along it (averaged_E_step).  Each block step
minimizes the objective over its block, so no round raises it (train).
"""

import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .encoding import (add_rows, check_operands, entry_scatter, loss_along, quartic_minimizer,
                       reconstruction_loss, runs)
from .errors import BoveError, DivergenceError, SingularSystemError

# update_R's conjugate gradients stop at a residual this small relative to
# the right-hand side's, or after this many iterations without a new lowest
# residual; ending above the last bound is a divergence.
_CG_TOL = 1e-15
_CG_PATIENCE = 100
_CG_ACCEPT = 1e-8
# an ALS round may raise the objective by rounding alone: by at most this
# much relative to the round before
_RISE_TOL = 1e-12


@contextmanager
def numeric_errors_as(error, what):
    """Raise error("<what>: ...") at the first numpy overflow or invalid
    operation (inf - inf).  In training or inference this is a divergence,
    stopped before an inf reaches a solver."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError as exc:
        raise error("%s: %s" % (what, exc)) from None


def _spd_solve_right(gram, rhs, ridge, what):
    """Solve Z (gram + ridge I) = rhs for Z, returned C-contiguous; the ridge
    is added to gram in place, so gram is overwritten.  gram must be symmetric
    PSD; with ridge == 0 a singular gram is an error (no pseudo-inverse).  A
    Cholesky factorization checks positive definiteness; numpy has no
    triangular solve, so LU solves.
    """
    gram.flat[::len(gram) + 1] += ridge
    if not (np.isfinite(gram).all() and np.isfinite(rhs).all()):
        raise DivergenceError("%s system has a non-finite entry" % what)
    try:
        np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        if ridge > 0:
            raise DivergenceError("%s system is not positive definite" % what) from None
        raise SingularSystemError(
            "%s system is singular; set its regularizer > 0" % what
        ) from None
    return np.ascontiguousarray(np.linalg.solve(gram, rhs.T).T)


def update_P(ws, es, model):
    """Exact minimizer of sum ||W_s - P E_s^T||^2 + lambda_p ||P||^2 under
    model.hyper.

    The rows of model.P marked in model.frozen_p_rows are carried over
    unchanged; each P row is an independent least-squares problem, so this
    is exact, not projected.  Gram sums are streamed; the corpus-wide
    concatenation never exists.
    """
    r = es[0].shape[1]
    c = ws[0].c
    ete = np.zeros((r, r))
    we = np.zeros((c, r))
    for w, e in zip(ws, es):
        ete += e.T @ e
        add_rows(we, w.rows, w.values[:, None] * e[w.cols])
    p_new = _spd_solve_right(ete, we, model.hyper.lambda_p, "P update")
    frozen = model.frozen_p_rows
    p_new[frozen] = model.P[frozen]
    return p_new


def check_corpus(ws, xs):
    """Refuse a corpus with no sentence, or with unequal W and X counts."""
    if len(ws) != len(xs):
        raise BoveError("corpus has %d W tensors but %d X tensors" % (len(ws), len(xs)))
    if not ws:
        raise BoveError("no sentences to train on")


def _sandwich(a, z, b, left, out):
    """Write a Z_k b into out for every relation slice Z_k of z, where z and
    out are (r, d, r) arrays holding slice k at [:, k, :]: two plain GEMMs
    over all d slices, the first into left, an (r, d r) buffer.  out may be
    z.  Written into buffers the caller keeps, since a fresh output array
    per product costs as much as the product."""
    r, d, _ = z.shape
    np.matmul(a, z.reshape(r, -1), out=left)
    np.matmul(left.reshape(r * d, r), b, out=out.reshape(r * d, r))
    return out


def update_R(xs, es, model):
    """Minimizer of sum alpha ||X_s - E_s R E_s^T||^2 + lambda_r ||R||^2, with
    alpha and lambda_r from model.hyper.

    Its normal equations, one per relation slice k,
        sum_s G_s R_k G_s + (lambda_r / alpha) R_k = B_k,
    with G_s = E_s^T E_s and B_k = sum_s E_s^T X_sk E_s (one product
    E[heads]^T (v E[deps]) per relation of each sentence), are solved for
    every k at once by preconditioned conjugate gradients, in O((d + S) r^2)
    memory: no r^2 x r^2 array is formed.  The iteration runs in the
    eigenbasis of the mean Gram, Q diag(g) Q^T, where the preconditioner
    (S mean Gram kron mean Gram + lambda_r / alpha)^-1 is an elementwise
    divide by S g_a g_b + lambda_r / alpha.  B is scaled to a largest entry
    of 1, so tiny or huge X entries neither underflow nor overflow.  The
    iteration stops at a residual of _CG_TOL relative to B's, or once the
    residual has not fallen for _CG_PATIENCE iterations; ending above
    _CG_ACCEPT relative is a DivergenceError.

    With lambda_r = 0, a mean Gram singular to working precision (smallest
    eigenvalue at most r eps times the largest) is a SingularSystemError.
    A system singular only through directions that some sentences span and
    others lack (E_1 = [[1, 0]], E_2 = [[0, 1]]) has many minimizers; the
    one returned is the one conjugate gradients reach from R = 0, of least
    preconditioner-weighted norm.  Where the mean Gram is a multiple of the
    identity, as in that example, it is the minimizer of least Frobenius
    norm, with R_k zero off the diagonal.
    """
    lambda_r, alpha = model.hyper.lambda_r, model.hyper.alpha
    r = es[0].shape[1]
    d = xs[0].d
    grams = np.stack([e.T @ e for e in es])
    b = np.zeros((r, d, r))
    for x, e in zip(xs, es):
        for k, at in runs(x.rels, d):
            b[:, k] += e[x.heads[at]].T @ (x.values[at, None] * e[x.deps[at]])
    if not (np.isfinite(grams).all() and np.isfinite(b).all()):
        raise DivergenceError("R update system has a non-finite entry")
    g, q = np.linalg.eigh(grams.mean(axis=0))
    if lambda_r == 0 and not (alpha > 0 and g[0] > r * np.finfo(float).eps * g[-1]):
        raise SingularSystemError("R update system is singular; set its regularizer > 0")
    scale = np.abs(b).max()
    if alpha == 0 or scale == 0:
        return np.zeros((d, r, r))
    ridge = lambda_r / alpha
    grams = q.T @ grams @ q
    g = np.maximum(g, 0.0)
    precond = 1.0 / (len(es) * g[:, None, None] * g + ridge)
    left, product = np.empty((r, d * r)), np.empty_like(b)
    b /= scale
    res = _sandwich(q.T, b, q, left, b)
    rhs_norm = np.linalg.norm(res)

    def normal_operator(z, out):
        np.multiply(z, ridge, out=out)
        for h in grams:
            out += _sandwich(h, z, h, left, product)
        return out

    z = np.zeros_like(res)
    y = res * precond
    p = y.copy()
    ap = np.empty_like(res)
    ry = np.vdot(res, y)
    best, stalled = np.inf, 0
    while True:
        step = ry / np.vdot(p, normal_operator(p, ap))
        z += step * p
        res -= step * ap
        norm = np.linalg.norm(res)
        best, stalled = (norm, 0) if norm < best else (best, stalled + 1)
        if norm <= _CG_TOL * rhs_norm or stalled == _CG_PATIENCE:
            break
        np.multiply(res, precond, out=y)
        ry, ry_prev = np.vdot(res, y), ry
        p *= ry / ry_prev
        p += y
    if not norm <= _CG_ACCEPT * rhs_norm:
        raise DivergenceError("R update did not converge: residual %.3g relative to "
                              "the right-hand side" % (norm / rhs_norm))
    z = _sandwich(q, z, q.T, left, z)
    z *= scale
    return z.transpose(1, 0, 2).copy()


def update_E_sentence(w, x, model, e_prev):
    """One linearized least-squares refresh of a sentence's token embeddings
    under model's P, R and hyper, and the system it solved: (E_new, H).

    Solves the three stacked systems (properties, relations with the old E
    on the right, transposed relations likewise), with sqrt(alpha) applied
    to both the targets and the design blocks of the relation systems, so
    each relation residual carries the loss's weight alpha:
        E_new = Y F^T H^-1,  H = F F^T + lambda_e I
    realized without materializing Y or F, Y F^T by encoding.entry_scatter.
    The E objective's gradient at E_prev is -2 (E_new - E_prev) H.

    F F^T is P^T P + alpha sum_k (R_k M R_k^T + R_k^T M R_k), M = E_prev^T
    E_prev.  The relation term is formed only where alpha > 0 and M is not
    zero: from E_prev = 0 (ALS's first round, inference's first solve) or
    at alpha = 0 it is exactly zero, and H = P^T P + lambda_e I.
    """
    alpha = model.hyper.alpha
    p, r_tensor, e_prev = check_operands(w, x, model.P, model.R, e_prev)
    m = e_prev.T @ e_prev
    # F F^T
    gram = p.T @ p
    if alpha > 0 and m.any():
        gram += alpha * np.einsum("kab,bc,kdc->ad", r_tensor, m, r_tensor)
        gram += alpha * np.einsum("kba,bc,kcd->ad", r_tensor, m, r_tensor)
    rhs = entry_scatter(w, x, p, r_tensor, e_prev, alpha)
    return _spd_solve_right(gram, rhs, model.hyper.lambda_e, "E update"), gram


def averaged_E_step(w, x, model, e_current):
    """One E refresh (Z, H) = update_E_sentence(w, x, model, E) with model
    fixed, then the exactly weighted average (1 - t) E + t Z: t minimizes the
    sentence's E objective on the line E + t (Z - E), a quartic in t whose
    coefficients loss_along reads from (H, Z - E), as infer_bove's fallback
    step does.  The weight damps the raw refresh's overcompensation, and the
    step never raises the E objective: along Z - E its slope is
    -2 <(Z - E) H, Z - E> < 0 wherever E is not a fixed point (t = 0 there)."""
    refreshed, gram = update_E_sentence(w, x, model, e_current)
    step = refreshed - e_current
    t = quartic_minimizer(loss_along(x, model, e_current, gram, step, step))
    return e_current + t * step


def corpus_objective(ws, xs, es, model):
    """(data fit, objective) over the corpus under model.hyper: the summed
    reconstruction losses, and that plus the P, R and E regularizers."""
    hyper = model.hyper
    data_fit = 0.0
    for w, x, e in zip(ws, xs, es):
        data_fit += reconstruction_loss(w, x, model, e)
    return data_fit, data_fit + (
        hyper.lambda_p * float(np.sum(model.P ** 2))
        + hyper.lambda_r * float(np.sum(model.R ** 2))
        + hyper.lambda_e * sum(float(np.sum(e ** 2)) for e in es)
    )


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
def train(ws, xs, model, log=None):
    """Full ALS loop under model.hyper: E sweeps, P and R updates, stopping rule.

    E starts at zero (matching the test-time setting).  A round moves every
    sentence's E by one averaged_E_step (one solve each), then solves P and
    R.  Each of these block steps minimizes the objective over its block
    (the E line search exactly, P exactly, R to update_R's tolerance), so no
    round raises it: a round whose objective rises by more than _RISE_TOL
    relative raises DivergenceError, as overflow does.  Training stops when
    the relative objective improvement over one round drops to
    rel_improvement_stop, or at max_rounds.  It returns a trained copy of
    model.  An empty or uneven corpus is refused before any work.
    """
    check_corpus(ws, xs)
    hyper = model.hyper
    model = model.copy()
    es = [np.zeros((w.n, hyper.r)) for w in ws]
    data_fit, obj = corpus_objective(ws, xs, es, model)
    data_fit_trace, trace = [data_fit], [obj]
    stopped = False
    for round_no in range(1, hyper.max_rounds + 1):
        t0 = time.perf_counter()
        es = [averaged_E_step(w, x, model, e) for w, x, e in zip(ws, xs, es)]
        model.P = update_P(ws, es, model)
        model.R = update_R(xs, es, model)
        data_fit, obj = corpus_objective(ws, xs, es, model)
        if not np.isfinite(obj):
            raise DivergenceError("non-finite objective at round %d" % round_no)
        trace.append(obj)
        data_fit_trace.append(data_fit)
        rel = log_round(log, round_no, trace, time.perf_counter() - t0)
        if rel < -_RISE_TOL:
            raise DivergenceError("objective rose by %.3g relative at round %d, to %.10g"
                                  % (-rel, round_no, obj))
        if rel <= hyper.rel_improvement_stop:
            stopped = True
            break
    return TrainResult(
        model=model, e_store=es, trace=trace,
        data_fit_trace=data_fit_trace, stopped_by_rule=stopped,
    )

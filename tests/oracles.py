"""Independent oracles shared by the test suite.

Everything here deliberately avoids the library's closed-form solvers:
block objectives are minimized by plain gradient descent with a parabolic
line search, alignment scores by exhaustive enumeration of mappings, the
sampled SGD loss and gradients by a loop over single cells, and the
adaptive SGD update out of place.  The dense forms of the training kernels
densify W and X and solve their normal equations with np.linalg.solve.
The symmetric similarity is also kept in its two-call form, one
directional score per direction.
"""

import dataclasses
import itertools

import numpy as np

from bove.model import Hyperparams, TypeEmbeddings
from bove.scoring import score_entailment


def model_of(p, r_tensor, frozen=None, **weights):
    """A TypeEmbeddings holding P and R as given (no copy), the frozen rows
    (none if not given) and Hyperparams(r=P's column count, **weights): a
    weight not given takes its Hyperparams default, so lambda_e is 0.1."""
    if frozen is None:
        frozen = np.zeros(len(p), dtype=bool)
    return TypeEmbeddings(P=p, R=r_tensor, frozen_p_rows=frozen,
                          hyper=Hyperparams(r=p.shape[1], **weights))


def with_hyper(model, **changes):
    """model's arrays under its hyperparameters with the named ones changed."""
    return dataclasses.replace(model, hyper=dataclasses.replace(model.hyper, **changes))


def gradient_descent(f, grad, x0, max_iters=200_000, tol=1e-15):
    """Steepest descent with exact (parabolic) line search on a quadratic."""
    x = x0.copy()
    fx = f(x)
    for _ in range(max_iters):
        g = grad(x)
        gnorm = np.linalg.norm(g)
        if gnorm < 1e-13:
            break
        d = g / gnorm
        f0 = fx
        f1 = f(x - d)
        f2 = f(x - 2.0 * d)
        a = 0.5 * (f2 - 2.0 * f1 + f0)
        b = f1 - f0 - a
        if a <= 0:
            step = 1.0
        else:
            step = -b / (2.0 * a)
        x_new = x - step * d
        f_new = f(x_new)
        if f_new >= fx - tol * max(1.0, abs(fx)):
            break
        x, fx = x_new, f_new
    return x


def p_block_objective(p, ws_dense, es, lambda_p):
    total = lambda_p * np.sum(p ** 2)
    for wd, e in zip(ws_dense, es):
        total += np.sum((wd - p @ e.T) ** 2)
    return total


def p_block_gradient(p, ws_dense, es, lambda_p):
    g = 2.0 * lambda_p * p
    for wd, e in zip(ws_dense, es):
        g += 2.0 * (p @ e.T - wd) @ e
    return g


def minimize_p_block(ws_dense, es, lambda_p, c, r):
    x = gradient_descent(
        lambda v: p_block_objective(v.reshape(c, r), ws_dense, es, lambda_p),
        lambda v: p_block_gradient(v.reshape(c, r), ws_dense, es, lambda_p).ravel(),
        np.zeros(c * r),
    )
    return x.reshape(c, r)


def update_P_dense(ws, es, lambda_p, p_current=None, frozen=None):
    """als.update_P from dense W: (sum W_s E_s)(sum E_s^T E_s + lambda_p I)^-1."""
    r = es[0].shape[1]
    gram = lambda_p * np.eye(r) + sum(e.T @ e for e in es)
    we = sum(w.to_dense() @ e for w, e in zip(ws, es))
    p = np.linalg.solve(gram, we.T).T
    if frozen is not None:
        p[frozen] = p_current[frozen]
    return p


def update_R_dense(xs, es, lambda_r, alpha=1.0):
    """als.update_R as one exact solve of the Kronecker normal equations from
    dense X: (alpha sum_s G_s kron G_s + lambda_r I) vec(R_k) = alpha sum_s
    vec(E_s^T X_sk E_s), with G_s = E_s^T E_s and vec stacking rows, so that
    vec(A B A^T) = (A kron A) vec(B).  It holds r^2 x r^2 arrays: 1.7 GB
    with its solve's copy at r = 101."""
    r, d = es[0].shape[1], xs[0].d
    ktk = lambda_r * np.eye(r * r)
    xk = np.zeros((d, r * r))
    for x, e in zip(xs, es):
        ktk += alpha * np.kron(e.T @ e, e.T @ e)
        xk += alpha * np.einsum("ia,kij,jb->kab", e, x.to_dense(), e).reshape(d, r * r)
    return np.linalg.solve(ktk, xk.T).T.reshape(d, r, r)


def update_E_sentence_dense(w, x, p, r_tensor, e_prev, alpha=1.0, lambda_e=0.0):
    """als.update_E_sentence from dense W and X: E_new = Y F^T (F F^T +
    lambda_e I)^-1, with Y F^T contracted from the dense arrays."""
    m = e_prev.T @ e_prev
    xd = x.to_dense()
    gram = lambda_e * np.eye(p.shape[1]) + p.T @ p
    gram += alpha * np.einsum("kab,bc,kdc->ad", r_tensor, m, r_tensor)
    gram += alpha * np.einsum("kba,bc,kcd->ad", r_tensor, m, r_tensor)
    rhs = w.to_dense().T @ p
    rhs += alpha * np.einsum("kij,ja,kba->ib", xd, e_prev, r_tensor)
    rhs += alpha * np.einsum("kji,ja,kab->ib", xd, e_prev, r_tensor)
    return np.linalg.solve(gram, rhs.T).T


def reconstruction_loss_dense(w, x, p, r_tensor, e, alpha=1.0):
    """||W - P E^T||^2 + alpha ||X - E R E^T||^2 over the dense W and X."""
    loss = np.sum((w.to_dense() - p @ e.T) ** 2)
    rec = np.einsum("ia,kab,jb->kij", e, r_tensor, e)
    return float(loss + alpha * np.sum((x.to_dense() - rec) ** 2))


def loss_gradient_E_dense(w, x, p, r_tensor, e, alpha=1.0, lambda_e=0.0):
    """Gradient in E of reconstruction_loss + lambda_e ||E||^2 over the dense
    W and X: -2 (W - P E^T)^T P - 2 alpha sum_k (Res_k E R_k^T + Res_k^T E R_k)
    + 2 lambda_e E, with Res_k = X_k - E R_k E^T."""
    g = -2.0 * (w.to_dense() - p @ e.T).T @ p + 2.0 * lambda_e * e
    for xk, rk in zip(x.to_dense(), r_tensor):
        res = xk - e @ rk @ e.T
        g -= 2.0 * alpha * (res @ e @ rk.T + res.T @ e @ rk)
    return g


def r_block_objective(r_tensor, xs_dense, es, lambda_r, alpha):
    total = lambda_r * np.sum(r_tensor ** 2)
    for xd, e in zip(xs_dense, es):
        rec = np.einsum("ia,kab,jb->kij", e, r_tensor, e)
        total += alpha * np.sum((xd - rec) ** 2)
    return total


def r_block_gradient(r_tensor, xs_dense, es, lambda_r, alpha):
    g = 2.0 * lambda_r * r_tensor
    for xd, e in zip(xs_dense, es):
        rec = np.einsum("ia,kab,jb->kij", e, r_tensor, e)
        g += 2.0 * alpha * np.einsum("kij,ia,jb->kab", rec - xd, e, e)
    return g


def minimize_r_block(xs_dense, es, lambda_r, alpha, d, r):
    x = gradient_descent(
        lambda v: r_block_objective(v.reshape(d, r, r), xs_dense, es, lambda_r, alpha),
        lambda v: r_block_gradient(
            v.reshape(d, r, r), xs_dense, es, lambda_r, alpha
        ).ravel(),
        np.zeros(d * r * r),
    )
    return x.reshape(d, r, r)


def e_quadratic_objective(e, wd, xd, p, r_tensor, e_prev, alpha, lambda_e):
    """The fixed-E_prev linearized quadratic the per-sentence solve minimizes."""
    total = np.sum((wd.T - e @ p.T) ** 2)
    for k in range(r_tensor.shape[0]):
        total += alpha * np.sum((xd[k] - e @ (r_tensor[k] @ e_prev.T)) ** 2)
        total += alpha * np.sum((xd[k].T - e @ (r_tensor[k].T @ e_prev.T)) ** 2)
    total += lambda_e * np.sum(e ** 2)
    return total


def minimize_e_quadratic(wd, xd, p, r_tensor, e_prev, alpha, lambda_e):
    n, r = e_prev.shape

    def f(v):
        return e_quadratic_objective(
            v.reshape(n, r), wd, xd, p, r_tensor, e_prev, alpha, lambda_e
        )

    def grad(v):
        e = v.reshape(n, r)
        g = 2.0 * (e @ p.T - wd.T) @ p + 2.0 * lambda_e * e
        for k in range(r_tensor.shape[0]):
            fk = r_tensor[k] @ e_prev.T
            g += 2.0 * alpha * (e @ fk - xd[k]) @ fk.T
            fkt = r_tensor[k].T @ e_prev.T
            g += 2.0 * alpha * (e @ fkt - xd[k].T) @ fkt.T
        return g.ravel()

    return gradient_descent(f, grad, np.zeros(n * r)).reshape(n, r)


def entailment_by_enumeration(s1, s2):
    """Max over all alignment mappings of the mean pairwise cosine."""

    def cos(u, v):
        nu, nv = np.linalg.norm(u), np.linalg.norm(v)
        if nu == 0 or nv == 0:
            return 0.0
        return float(u @ v) / (nu * nv)

    best = -np.inf
    for mapping in itertools.product(range(len(s1)), repeat=len(s2)):
        score = np.mean([cos(s1[i], s2[j]) for j, i in enumerate(mapping)])
        best = max(best, score)
    return best


def similarity_by_two_directions(s1, s2):
    """Harmonic mean of score_entailment both ways, 0 unless both are positive."""
    a = score_entailment(s1, s2)
    b = score_entailment(s2, s1)
    if a <= 0.0 or b <= 0.0:
        return 0.0
    return 2.0 * a * b / (a + b)


def sampled_loss_and_grads_by_cell(batch, samples, model, e_store, reg_scale):
    """The sampled SGD objective and its gradients under model.hyper, one
    cell at a time.

    Reads the same array rows as sgd.sampled_loss_and_grads: W rows
    (pred, tok, target, weight), X rows (rel, head, dep, target, weight).
    """
    p, r_tensor, hyper = model.P, model.R, model.hyper
    alpha = hyper.alpha
    loss = 0.0
    g_p = np.zeros_like(p)
    g_r = np.zeros_like(r_tensor)
    g_e = {s: np.zeros_like(e_store[s]) for s in batch}
    for s in batch:
        e = e_store[s]
        w_cells, x_cells = samples[s]
        for i, t, target, weight in w_cells.tolist():
            i, t = int(i), int(t)
            resid = float(p[i] @ e[t]) - target
            loss += weight * resid * resid
            coef = 2.0 * weight * resid
            g_p[i] += coef * e[t]
            g_e[s][t] += coef * p[i]
        for k, h, t, target, weight in x_cells.tolist():
            k, h, t = int(k), int(h), int(t)
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


def adagrad_step(param, acc, grad, learning_rate, eps):
    """One adaptive-gradient step (Duchi, Hazan & Singer, JMLR 2011), out of
    place: returns the new (param, acc) and leaves its arguments as they were."""
    acc = acc + grad ** 2
    return param - learning_rate * grad / (np.sqrt(acc) + eps), acc

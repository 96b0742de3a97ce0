"""Sparse attention weights for hyperedge construction.

Given a center sample x and the matrix P whose columns are the center's
nearest neighbors, the attention weights solve the lasso problem

    min_z  ||x - P z||^2 + 2 eps ||z||_1

with the alternating direction method of multipliers. The splitting
introduces a twin variable q for z; each iteration solves a damped
normal-equation system for z (the inverse of P^T P + RHO I is computed
once per problem and cached), soft-thresholds the dual-shifted copy of z
into q, and takes a dual ascent step on the multiplier m. q is the
canonical solution because the threshold step gives it exact zeros.

The problem only enters through P^T P and P^T x, so a whole stack of
equally sized problems is solved in one call: numpy inverts the damped
Gram matrices, and the iterations run in hgdl_admm, a compiled kernel
(_kernels.c, built on first use, so a solve needs a C compiler). Each
problem runs alone there and stops on its own residuals, keeping the
iterates it had when it stopped; nothing is kept per iteration, so the
t-th iterate of a solve is the result of the same solve capped at
max_iter = t. solve_attention, a batch of one, adds the objective of
its final q.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._native import kernels
from .errors import InputError, NumericalError, ParameterError, _integer

# augmented-Lagrangian penalty, also the dual step size
RHO = 1.0
# a problem stops once both residuals are within this
TOL = 1e-6
# the problems that hgdl_admm steps side by side (LANES in _kernels.c)
LANES = 4


@dataclass
class AdmmParams:
    """Knobs for the attention solver.

    epsilon is the l1 weight. Iteration stops once both the split
    residual max|z - q| and the dual residual max|q - q_prev| are within
    TOL, or after max_iter rounds; max_iter must be an integer.
    """

    epsilon: float
    max_iter: int = 200

    def __post_init__(self):
        if not (np.isfinite(self.epsilon) and self.epsilon > 0):
            raise ParameterError("epsilon (--epsilon) must be a positive real")
        self.max_iter = _integer(self.max_iter, "max_iter")
        if self.max_iter < 1:
            raise ParameterError("max_iter must be at least 1")


@dataclass
class AttentionSolution:
    """Result of one attention solve; q carries the exact zeros."""

    z: np.ndarray
    q: np.ndarray
    m: np.ndarray
    iterations: int
    converged: bool
    objective: float


@dataclass
class AttentionBatch:
    """Result of a batch of attention solves, one row per problem."""

    z: np.ndarray
    q: np.ndarray
    m: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray


def soft_threshold(v, t):
    """Entrywise shrinkage v - clip(v, -t, t).

    This is the proximal map of t*||.||_1, i.e. the unique minimizer of
    t*||u||_1 + 0.5*||u - v||^2. It is computed in one fresh array and
    equals max(v - t, 0) + min(v + t, 0) bit for bit, signed zeros,
    infinities and NaNs included.
    """
    if not t >= 0:
        raise ParameterError("threshold must be nonnegative")
    t = abs(t)  # a threshold of -0.0 would leave -0.0 where v is -0.0
    v = np.asarray(v, dtype=float)
    out = np.minimum(v, t, out=np.empty(v.shape))
    np.maximum(out, -t, out=out)
    np.subtract(v, out, out=out)
    return out if out.ndim else out[()]


def attention_objective(x, P, q, epsilon):
    """Value of ||x - P q||^2 + 2 eps ||q||_1."""
    r = x - P @ q
    return float(r @ r + 2.0 * epsilon * np.sum(np.abs(q)))


def solve_attention_batch(gram, ptx, params: AdmmParams) -> AttentionBatch:
    """Solve a stack of attention problems given their normal equations.

    gram is the (n, k, k) stack of P^T P and ptx the (n, k) stack of
    P^T x. z, q and m start at zero. The z step applies a cached inverse
    of P^T P + RHO I; the q step is a soft threshold at eps/RHO; the m
    step adds RHO*(z - q). A problem converges once both residuals are
    small: max|z - q| <= TOL and max|q - q_prev| <= TOL. The split
    residual alone can hit exact zero while the iterates are still far
    from optimal (the threshold step is affine wherever no entry sits
    inside the dead zone), so the dual residual must vanish too. A
    converged problem stops, and a problem that reaches max_iter keeps
    its last iterate and reports converged False. A non-finite z or m
    raises NumericalError naming the first iteration at which any
    problem has one. Identical inputs produce bit-identical outputs,
    whatever the batch around them.
    """
    gram = np.asarray(gram, dtype=float)
    ptx = np.asarray(ptx, dtype=float)
    if ptx.ndim != 2 or ptx.shape[1] < 1:
        raise ParameterError("ptx must be 2-d (problems x neighbors)")
    n, k = ptx.shape
    if gram.shape != (n, k, k):
        raise ParameterError(
            f"gram has shape {gram.shape}, expected {(n, k, k)}"
        )
    if not (np.all(np.isfinite(gram)) and np.all(np.isfinite(ptx))):
        raise InputError("non-finite entries in attention problem")

    inverse = np.linalg.inv(gram + RHO * np.eye(k))
    z, q, m = np.empty((n, k)), np.empty((n, k)), np.empty((n, k))
    iterations = np.zeros(n, dtype=np.int64)
    converged = np.zeros(n, dtype=bool)
    diverged = kernels().hgdl_admm(
        n, k, inverse, np.ascontiguousarray(ptx), RHO, params.epsilon, TOL,
        params.max_iter, z, q, m, iterations, converged,
        np.empty(LANES * (k * k + 5 * k)),
    )
    if diverged:
        raise NumericalError(
            f"attention solver diverged at iteration {diverged}"
        )
    return AttentionBatch(z=z, q=q, m=m, iterations=iterations,
                          converged=converged)


def solve_attention(x, P, params: AdmmParams) -> AttentionSolution:
    """Solve min_z ||x - P z||^2 + 2 eps ||z||_1 for the given center.

    A batch of one for solve_attention_batch, plus the objective of the
    final q. Identical inputs produce bit-identical outputs.
    """
    x = np.asarray(x, dtype=float).ravel()
    P = np.asarray(P, dtype=float)
    if P.ndim != 2:
        raise ParameterError("P must be 2-d (features x neighbors)")
    dim, n_cols = P.shape
    if n_cols < 1:
        raise ParameterError("P needs at least one column")
    if x.shape[0] != dim:
        raise ParameterError(f"x has {x.shape[0]} features, P has {dim}")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(P))):
        raise InputError("non-finite entries in attention problem")

    batch = solve_attention_batch((P.T @ P)[None], (P.T @ x)[None], params)
    return AttentionSolution(
        z=batch.z[0],
        q=batch.q[0],
        m=batch.m[0],
        iterations=int(batch.iterations[0]),
        converged=bool(batch.converged[0]),
        objective=attention_objective(x, P, batch.q[0], params.epsilon),
    )

"""Independent reference implementations used only by the tests.

Everything here is deliberately written the slow, obvious way and shares
no code with the library: cyclic coordinate descent for the lasso, the
attention ADMM one problem at a time, brute-force neighbor search,
pure-Python degree sums, a graph-Laplacian reference, the dense
hypergraph-Laplacian formula, the literal pairwise expansion of the
manifold penalty and a golden-section scalar minimizer. The
row-by-row beta = 0 code sweep and dictionary sweep are kept as the
library first wrote them, one fresh array per arithmetic step, so that
a compiled kernel that sums in another order can be held to them within
a stated tolerance. The code sweeps, the held-out lasso coding and the
dictionary sweep are kept in Python floats, in their compiled kernels'
operation order, so those kernels can be held to their bits. The
sparse-attention incidence is kept the same way, as two loops over
neighbor ranks, and so is the vectorized numpy ADMM over a batch of
attention problems, and the dense neighbor search the compiled one
replaced: scipy's cdist, then a stable argsort of every row, and the
degrees and Laplacian as the library first computed them, with
scipy.sparse products. The CSV loader is kept as it was before the
compiled parser, csv.reader and float() and int() per cell, so the
parser can be held to its arrays and messages.

The float oracles form the numpy products they share with the library
(D^T D, D^T X, D^T Y, the beta = 0 fields, X S^T, S S^T) with numpy's BLAS on
one thread, through the library's one_blas_thread, as the library forms
them: OpenBLAS splits a large product over its threads, and the split
can move its bits.
"""

import csv
import math
import warnings

import numpy as np
import scipy.sparse as sp
from scipy.spatial.distance import cdist

from hgdl._native import one_blas_thread
from hgdl.errors import FormatError


def cd_lasso(x, P, eps, tol=1e-10, max_sweeps=20000):
    """Cyclic coordinate descent for min_z ||x - P z||^2 + 2 eps ||z||_1."""
    x = np.asarray(x, dtype=float)
    P = np.asarray(P, dtype=float)
    n = P.shape[1]
    z = np.zeros(n)
    col_norms = np.array([P[:, i] @ P[:, i] for i in range(n)])
    residual = x - P @ z
    for _ in range(max_sweeps):
        biggest = 0.0
        for i in range(n):
            if col_norms[i] == 0.0:
                continue
            old = z[i]
            rho = P[:, i] @ residual + col_norms[i] * old
            if rho > eps:
                new = (rho - eps) / col_norms[i]
            elif rho < -eps:
                new = (rho + eps) / col_norms[i]
            else:
                new = 0.0
            if new != old:
                residual += P[:, i] * (old - new)
                z[i] = new
                biggest = max(biggest, abs(new - old))
        if biggest < tol:
            break
    return z


def admm_lasso(x, P, eps, rho=1.0, max_iter=200, tol=1e-6):
    """The attention ADMM for one problem, with a Cholesky z step.

    Same splitting, start and stopping rule as the library: z solves
    (P^T P + rho I) z = P^T x + rho q - m, q = shrink(z + m/rho, eps/rho),
    m += rho (z - q), until max|z - q| and max|q - q_prev| are both at
    most tol. Returns (q, iterations, converged).
    """
    from scipy.linalg import cho_factor, cho_solve

    x = np.asarray(x, dtype=float)
    P = np.asarray(P, dtype=float)
    k = P.shape[1]
    factor = cho_factor(P.T @ P + rho * np.eye(k))
    z = q = m = np.zeros(k)
    for iteration in range(1, max_iter + 1):
        z = cho_solve(factor, P.T @ x + rho * q - m)
        q_prev = q
        v = z + m / rho
        q = np.sign(v) * np.maximum(np.abs(v) - eps / rho, 0.0)
        m = m + rho * (z - q)
        if (np.max(np.abs(z - q)) <= tol
                and np.max(np.abs(q - q_prev)) <= tol):
            return q, iteration, True
    return q, max_iter, False


def _soft_threshold(v, t):
    """v - clip(v, -t, t) in one fresh array, as the batch ADMM took it."""
    t = abs(t)
    v = np.asarray(v, dtype=float)
    out = np.minimum(v, t, out=np.empty(v.shape))
    np.maximum(out, -t, out=out)
    np.subtract(v, out, out=out)
    return out


def admm_batch(gram, ptx, eps, max_iter=200, on_iterate=None):
    """The attention ADMM over a stack of problems, as numpy ran it.

    gram is the (n, k, k) stack of P^T P and ptx the (n, k) stack of
    P^T x. Each problem stops on its own residuals and keeps the iterates
    of the iteration at which it stopped. on_iterate, if given, gets the
    (running, k) q rows after every iteration. A non-finite z or m in a
    running problem raises ArithmeticError naming the iteration. Returns
    (z, q, m, iterations, converged).
    """
    RHO, TOL = 1.0, 1e-6
    n, k = ptx.shape
    z_out = np.zeros((n, k))
    q_out = np.zeros((n, k))
    m_out = np.zeros((n, k))
    iterations = np.zeros(n, dtype=int)
    converged = np.zeros(n, dtype=bool)

    rows = np.arange(n)
    inverse = np.ascontiguousarray(
        np.linalg.inv(gram + RHO * np.eye(k)).transpose(2, 1, 0)
    )
    rhs = np.ascontiguousarray(ptx.T)
    q = np.zeros((k, n))
    m = np.zeros((k, n))
    for iteration in range(1, max_iter + 1):
        z = np.sum(inverse * (rhs + RHO * q - m)[:, None, :], axis=0)
        q_prev = q
        q = _soft_threshold(z + m / RHO, eps / RHO)
        m = m + RHO * (z - q)
        if not (np.all(np.isfinite(z)) and np.all(np.isfinite(m))):
            raise ArithmeticError(
                f"attention solver diverged at iteration {iteration}"
            )
        if on_iterate is not None:
            on_iterate(q.T)
        done = ((np.max(np.abs(z - q), axis=0) <= TOL)
                & (np.max(np.abs(q - q_prev), axis=0) <= TOL))
        if iteration == max_iter:
            stop = np.ones(rows.size, dtype=bool)
        elif done.any():
            stop = done
        else:
            continue
        stopped = rows[stop]
        z_out[stopped] = z[:, stop].T
        q_out[stopped] = q[:, stop].T
        m_out[stopped] = m[:, stop].T
        iterations[stopped] = iteration
        converged[stopped] = done[stop]
        keep = ~stop
        if not keep.any():
            break
        rows, inverse, rhs = rows[keep], inverse[:, :, keep], rhs[:, keep]
        q, m = q[:, keep], m[:, keep]

    return z_out, q_out, m_out, iterations, converged


def lasso_objective(x, P, z, eps):
    r = x - P @ z
    return float(r @ r + 2.0 * eps * np.sum(np.abs(z)))


def brute_force_knn(X, k):
    """Per-column k nearest others via explicit loops; ties by index."""
    X = np.asarray(X, dtype=float)
    n = X.shape[1]
    out = []
    for j in range(n):
        scored = []
        for i in range(n):
            if i == j:
                continue
            diff = X[:, i] - X[:, j]
            scored.append((float(np.sqrt(np.sum(diff * diff))), i))
        scored.sort(key=lambda t: (t[0], t[1]))
        out.append([i for _, i in scored[:k]])
    return out


def cdist_knn(X, k):
    """Per-column k nearest others as the library first found them: the
    full N x N cdist matrix with +inf on its diagonal, each row stably
    argsorted, so ties keep ascending index. Where distances overflow to
    +inf the diagonal ties with them, and a column can rank itself."""
    X = np.asarray(X, dtype=float)
    dist = cdist(X.T, X.T)
    np.fill_diagonal(dist, np.inf)
    return np.argsort(dist, axis=1, kind="stable")[:, :k]


def python_degrees(H, W):
    """Degree sums as plain ascending-order Python loops."""
    n, m = H.shape
    edge = []
    for e in range(m):
        total = 0.0
        for v in range(n):
            total += H[v, e]
        edge.append(total)
    vertex = []
    for v in range(n):
        total = 0.0
        for e in range(m):
            total += W[e] * H[v, e]
        vertex.append(total)
    return np.asarray(vertex), np.asarray(edge)


def scipy_incidence(matrix):
    """An incidence as the scipy-based Hypergraph kept it: a float64
    scipy.sparse.csc_array copy with duplicates summed, rows sorted."""
    H = sp.csc_array(matrix, dtype=float, copy=True)
    H.sum_duplicates()  # in place, on the copy
    return H


def scipy_degrees(H, W):
    """degrees() as the library wrote it on scipy.sparse, for a canonical
    csc_array H and edge weights W: the matvecs H^T 1 and H w, which add
    each column and each row in ascending index order. Zero-degree edges
    are dropped. Returns (H, W, vertex degrees, edge degrees)."""
    edge_deg = H.T @ np.ones(H.shape[0])
    dead = edge_deg == 0.0
    if dead.any():
        keep = ~dead
        H, W = H[:, keep], W[keep]
        edge_deg = edge_deg[keep]
    vertex_deg = H @ W
    return H, W, vertex_deg, edge_deg


def scipy_laplacian(H, W, vertex_deg, edge_deg):
    """laplacian() as the library wrote it on scipy.sparse: one sparse
    product G diag(W/De) G^T with G = Dv^{-1/2} H, symmetrized as
    (L + L^T)/2 and made dense once."""
    n = H.shape[0]
    G = sp.diags_array(1.0 / np.sqrt(vertex_deg)) @ H
    theta = G @ sp.diags_array(W / edge_deg) @ G.T
    lap = sp.diags_array(np.ones(n)) - theta
    return ((lap + lap.T) / 2.0).toarray()


def normalized_graph_laplacian(n, edges):
    """(I - D^{-1/2} A D^{-1/2}) for a multigraph given as (u, v) pairs."""
    A = np.zeros((n, n))
    for u, v in edges:
        A[u, v] += 1.0
        A[v, u] += 1.0
    deg = A.sum(axis=1)
    root = 1.0 / np.sqrt(deg)
    return np.eye(n) - root[:, None] * A * root[None, :]


def hypergraph_laplacian(H, W):
    """I - Dv^{-1/2} H W De^{-1} H^T Dv^{-1/2} from a dense incidence,
    one outer product per edge. An edge with zero degree adds nothing.
    Exactly symmetric, since every term is."""
    H = np.asarray(H, dtype=float)
    W = np.asarray(W, dtype=float)
    n, m = H.shape
    vertex_deg, edge_deg = python_degrees(H, W)
    root = 1.0 / np.sqrt(vertex_deg)
    theta = np.zeros((n, n))
    for e in range(m):
        if edge_deg[e] == 0.0:
            continue
        g = H[:, e] * root
        theta += (W[e] / edge_deg[e]) * np.outer(g, g)
    return np.eye(n) - theta


def literal_manifold_penalty(H, W, S):
    """Pairwise double-sum form of tr(L S^T S), evaluated with loops.

    0.5 * sum_c sum_e sum_{u,v} W(e) H(u,e) H(v,e) / delta(e)
        * (S(c,u)/sqrt(d(u)) - S(c,v)/sqrt(d(v)))^2
    """
    H = np.asarray(H, dtype=float)
    W = np.asarray(W, dtype=float)
    S = np.asarray(S, dtype=float)
    n, m = H.shape
    vertex_deg, edge_deg = python_degrees(H, W)
    total = 0.0
    for c in range(S.shape[0]):
        for e in range(m):
            for u in range(n):
                for v in range(n):
                    if H[u, e] == 0.0 or H[v, e] == 0.0:
                        continue
                    a = S[c, u] / np.sqrt(vertex_deg[u])
                    b = S[c, v] / np.sqrt(vertex_deg[v])
                    total += 0.5 * W[e] * H[u, e] * H[v, e] / edge_deg[e] * (a - b) ** 2
    return total


def golden_section(fn, lo, hi, iterations=200):
    """Scalar minimizer of a unimodal function on [lo, hi]."""
    phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(iterations):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = fn(d)
    return (a + b) / 2.0


def random_hypergraph(rng, n, m, density=0.5):
    """Random nonnegative incidence with no zero rows or columns."""
    H = rng.random((n, m)) * (rng.random((n, m)) < density)
    for e in range(m):
        if not H[:, e].any():
            H[rng.integers(n), e] = rng.random() + 0.1
    for v in range(n):
        if not H[v, :].any():
            H[v, rng.integers(m)] = rng.random() + 0.1
    W = rng.random(m) + 0.5
    return H, W


def shrink(v, t):
    """Soft threshold as max(v - t, 0) + min(v + t, 0)."""
    v = np.asarray(v, dtype=float)
    return np.maximum(v - t, 0.0) + np.minimum(v + t, 0.0)


def row_sweep_beta0(X, D, S, alpha):
    """One beta = 0 code sweep, atom row by atom row, in place.

    Row k is set to shrink(j, alpha) / (D^T D)_kk with
    j = (D^T X)_k - (D^T D)_k S + (D^T D)_kk S_k; a curvature at or below
    1e-12 parks the row at zero. A non-finite j raises ArithmeticError
    naming the row.
    """
    gram = D.T @ D
    target = D.T @ X
    gdiag = np.ascontiguousarray(np.diag(gram))
    for k in range(S.shape[0]):
        j_row = target[k] - gram[k] @ S + gdiag[k] * S[k]
        if not np.all(np.isfinite(j_row)):
            raise ArithmeticError(f"non-finite code update in atom row {k}")
        if gdiag[k] <= 1e-12:
            S[k] = 0.0
        else:
            S[k] = shrink(j_row, alpha) / gdiag[k]
    return S


@one_blas_thread
def sweep_floats(X, D, S, L, alpha, beta):
    """One beta > 0 code sweep in Python floats, so with no fused
    multiply-add, and with no code skipped. Returns the (K, n) codes and
    leaves S as given.

    D^T D and D^T X are numpy's, D.T @ D and D.T @ X, and G_off is D^T D
    with its diagonal read as 0. L is read as a canonical CSR (sorted,
    duplicates summed), stored zeros included. Samples are visited in
    order, each seeing the codes of the samples before it as this sweep
    left them. Sample i's field f_k sums G_off[k][j] * s_j from 0 over
    every j in ascending order, zero codes included, and its coupling c_k
    sums L_ir * S_kr from 0 over row i's stored entries in order, except
    r = i, whose entry is L_ii (0 where none is stored); then
    f_k = ((D^T X)_ki - beta * c_k) - f_k. Atom k's step: the code becomes
    shrink(f_k, alpha) / (G_kk + beta * L_ii), or 0 where that curvature
    is at or below 1e-12, and a change by step = old - new adds
    step * G_off[m][k] to every f_m. A non-finite f_k or new code raises
    ArithmeticError naming the atom and sample.
    """
    gram = (np.asarray(D).T @ np.asarray(D)).tolist()
    target = (np.asarray(D).T @ np.asarray(X)).T.tolist()
    n_atoms = len(gram)
    curvature = [gram[k][k] for k in range(n_atoms)]
    for k in range(n_atoms):
        gram[k][k] = 0.0
    L = sp.csr_array(L, dtype=float).copy()
    L.sum_duplicates()
    indptr, indices = L.indptr.tolist(), L.indices.tolist()
    values = L.data.tolist()
    codes = np.asarray(S, dtype=float).T.tolist()
    for i, s in enumerate(codes):
        field = [0.0] * n_atoms
        for j in range(n_atoms):
            for k in range(n_atoms):
                field[k] += gram[k][j] * s[j]
        coupling = [0.0] * n_atoms
        lii = 0.0
        for p in range(indptr[i], indptr[i + 1]):
            if indices[p] == i:
                lii = values[p]
                continue
            other = codes[indices[p]]
            for k in range(n_atoms):
                coupling[k] += values[p] * other[k]
        for k in range(n_atoms):
            field[k] = (target[i][k] - beta * coupling[k]) - field[k]
        for k in range(n_atoms):
            linear = field[k]
            if not math.isfinite(linear):
                raise ArithmeticError(
                    f"non-finite code update at atom {k}, sample {i}")
            total = curvature[k] + beta * lii
            if total <= 1e-12:
                new = 0.0
            elif linear > alpha:
                new = (linear - alpha) / total
            elif linear < -alpha:
                new = (linear + alpha) / total
            else:
                new = 0.0
            if not math.isfinite(new):
                raise ArithmeticError(
                    f"non-finite code update at atom {k}, sample {i}")
            if new != s[k]:
                step = s[k] - new
                for m in range(n_atoms):
                    field[m] += step * gram[m][k]
                s[k] = new
    return np.asarray(codes, dtype=float).reshape(len(codes), n_atoms).T


@one_blas_thread
def lasso_sweep_floats(X, D, S, alpha):
    """One beta = 0 code sweep with its steps in Python floats, so with no
    fused multiply-add. Returns the (K, n) codes and leaves S as given.

    D^T D, D^T X and the starting fields are numpy's products, as the
    library forms them: G = D.T @ D, whose diagonal is the curvature and
    is then set to 0, giving G_off, and the fields
    (D.T @ X).T - C.T @ G_off, C being a C-ordered copy of S; row i is
    sample i's field. Each column is swept on its own, atoms in order:
    code k becomes shrink(f_k, alpha) / G_kk, or 0 where G_kk <= 1e-12,
    and a change by step = old - new adds step * G_off[k][m] to every
    f_m. A non-finite f_k or new code raises ArithmeticError naming the
    atom and sample, the first in sample-major order.
    """
    D = np.asarray(D, dtype=float)
    gram = D.T @ D
    curvature = np.diag(gram).tolist()
    np.fill_diagonal(gram, 0.0)
    codes = np.ascontiguousarray(S, dtype=float)
    fields = ((D.T @ np.asarray(X, dtype=float)).T - codes.T @ gram).tolist()
    rows = gram.tolist()
    columns = codes.T.tolist()
    for i, (s, f) in enumerate(zip(columns, fields)):
        for k, total in enumerate(curvature):
            linear = f[k]
            if not math.isfinite(linear):
                raise ArithmeticError(
                    f"non-finite code update at atom {k}, sample {i}")
            if total <= 1e-12:
                new = 0.0
            elif linear > alpha:
                new = (linear - alpha) / total
            elif linear < -alpha:
                new = (linear + alpha) / total
            else:
                new = 0.0
            if not math.isfinite(new):
                raise ArithmeticError(
                    f"non-finite code update at atom {k}, sample {i}")
            if new != s[k]:
                step = s[k] - new
                f[:] = [fm + step * gm for fm, gm in zip(f, rows[k])]
                s[k] = new
    return np.asarray(columns, dtype=float).reshape(codes.shape[::-1]).T


@one_blas_thread
def encode_sweeps(Y, D, gamma, t):
    """The codes after t lockstep sweeps of the held-out lasso coding, in
    Python floats, so with no fused multiply-add.

    D^T D and D^T Y are numpy's products, as the library forms them from
    C-ordered copies of D and Y: G = D.T @ D, whose diagonal is the
    curvature and is then set to 0, and column i's field starts as
    (D.T @ Y)[:, i] with all codes at zero. A sweep visits column 0,
    1, ... in turn and, in each, atom 0, 1, ...: code k becomes
    shrink(f_k, gamma) / G_kk, or 0 where G_kk <= 1e-12, and a change by
    step = old - new adds step * G_km to every f_m, with G_kk read as 0.
    A non-finite f_k or new code raises ArithmeticError naming the atom
    and sample. Returns the (K, n) codes.
    """
    D = np.ascontiguousarray(D, dtype=float)
    Y = np.ascontiguousarray(Y, dtype=float)
    n_atoms = D.shape[1]
    gram = D.T @ D
    curvature = np.diag(gram).tolist()
    np.fill_diagonal(gram, 0.0)
    gram = gram.tolist()
    fields = (D.T @ Y).T.tolist()
    codes = [[0.0] * n_atoms for _ in fields]
    for _ in range(t):
        for i, (s, f) in enumerate(zip(codes, fields)):
            for k in range(n_atoms):
                linear = f[k]
                if not math.isfinite(linear):
                    raise ArithmeticError(
                        f"non-finite code update at atom {k}, sample {i}")
                if curvature[k] <= 1e-12:
                    new = 0.0
                elif linear > gamma:
                    new = (linear - gamma) / curvature[k]
                elif linear < -gamma:
                    new = (linear + gamma) / curvature[k]
                else:
                    new = 0.0
                if not math.isfinite(new):
                    raise ArithmeticError(
                        f"non-finite code update at atom {k}, sample {i}")
                if new != s[k]:
                    step = s[k] - new
                    for m in range(n_atoms):
                        f[m] += step * gram[k][m]
                    s[k] = new
    return np.asarray(codes).T


def atom_sweep(X, S, D, rng):
    """One blockwise dictionary sweep, atom by atom, in place.

    Atom k becomes u / ||u|| with u = (X S^T)_k - D (S S^T)_k +
    D_k (S S^T)_kk. A norm at or below 1e-12 warns and redraws the atom
    from a random data column (or, if that column is zero too, a normal
    draw) taken from rng.
    """
    data_corr = X @ S.T
    code_gram = S @ S.T
    for k in range(D.shape[1]):
        u = data_corr[:, k] - D @ code_gram[:, k] + D[:, k] * code_gram[k, k]
        norm = float(np.linalg.norm(u))
        if not np.isfinite(norm):
            raise ArithmeticError(f"non-finite dictionary update at atom {k}")
        if norm <= 1e-12:
            D[:, k] = _redrawn_atom(X, k, rng)
        else:
            D[:, k] = u / norm
    return D


@one_blas_thread
def atom_sweep_floats(X, S, D, rng):
    """One blockwise dictionary sweep in Python floats, in place, so with
    no fused multiply-add.

    X S^T and S S^T are the library's numpy products, X @ S.T and
    S @ S.T. Atom k becomes u / ||u|| with
    u_d = (corr_dk - t_d) + D_dk g_kk, where t_d sums D_dm g_mk from 0
    over ascending m, reading the atoms before k as this sweep left them,
    and ||u||^2 is summed from 0 over ascending d. A norm at or below
    1e-12 warns and redraws the atom from rng as atom_sweep does; a
    non-finite norm raises ArithmeticError naming the atom.
    """
    corr = (X @ S.T).tolist()
    gram = (S @ S.T).tolist()
    dim, n_atoms = D.shape
    atoms = np.asarray(D, dtype=float).T.tolist()
    for k in range(n_atoms):
        u = []
        for d in range(dim):
            total = 0.0
            for m in range(n_atoms):
                total += atoms[m][d] * gram[m][k]
            u.append((corr[d][k] - total) + atoms[k][d] * gram[k][k])
        squares = 0.0
        for value in u:
            squares += value * value
        norm = math.sqrt(squares)
        if not math.isfinite(norm):
            raise ArithmeticError(f"non-finite dictionary update at atom {k}")
        if norm <= 1e-12:
            atoms[k] = _redrawn_atom(X, k, rng).tolist()
        else:
            atoms[k] = [value / norm for value in u]
        D[:, k] = atoms[k]
    return D


def _redrawn_atom(X, k, rng):
    """The dead-atom warning, then a random data column of X drawn from
    rng divided by its norm, or, if that norm is at or below 1e-12, a
    normal draw divided by its own."""
    warnings.warn(
        f"atom {k} went dead; reinitializing from a data column",
        RuntimeWarning,
    )
    col = X[:, int(rng.integers(X.shape[1]))]
    col_norm = float(np.linalg.norm(col))
    if col_norm <= 1e-12:
        col = rng.standard_normal(X.shape[0])
        col_norm = float(np.linalg.norm(col))
    return col / col_norm


def saf_incidence_two_loops(X, neighbors, solve=None):
    """The sparse-attention incidence as the library first built it.

    One loop over neighbor ranks gives the distances; a second, over
    rank pairs, gives P^T P and P^T x, P holding center x's neighbor
    columns. neighbors is the (n, k) knn index array; solve(gram, ptx)
    returns the (n, k) attention weights, and None fixes them at 1.
    Returns the dense (n, n) incidence, column c holding center c's
    edge with its own entry 1.
    """
    X = np.asarray(X, dtype=float)
    n, k = neighbors.shape
    Xt = np.ascontiguousarray(X.T)
    dist = np.empty((n, k))
    for j in range(k):
        diffs = Xt[neighbors[:, j]] - Xt
        dist[:, j] = np.sqrt(np.sum(diffs * diffs, axis=1))
    sigma = np.mean(dist, axis=1)
    sigma[sigma == 0.0] = 1.0
    entries = np.exp(-((dist / sigma[:, None]) ** 2))
    if solve is not None:
        gram = np.empty((n, k, k))
        ptx = np.empty((n, k))
        for a in range(k):
            pa = Xt[neighbors[:, a]]
            ptx[:, a] = np.sum(pa * Xt, axis=1)
            for b in range(a, k):
                pb = Xt[neighbors[:, b]]
                gram[:, a, b] = gram[:, b, a] = np.sum(pa * pb, axis=1)
        entries *= np.maximum(solve(gram, ptx), 0.0)
    H = np.eye(n)
    for c in range(n):
        H[neighbors[c], c] = entries[c]
    return H


def _csv_label(token, line_num):
    try:
        return int(token)
    except ValueError:
        raise FormatError(
            f"line {line_num}: label {token.strip()!r} is not an integer")


def load_csv_rows(path):
    """hgdl.data.load_csv as it was before the compiled CSV reader:
    csv.reader over the text file, then float() and int() per cell."""
    def _numeric(cell):
        try:
            float(cell)
            return True
        except ValueError:
            return False

    # float() and int() accept the whitespace around a cell
    width = None
    features = []
    labels = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for row in reader:
            if not any(cell.strip() for cell in row):
                continue
            if width is None:
                width = len(row)
                has_labels = row[-1].strip() == "label"
                if not all(_numeric(c) for c in row):
                    continue
            if len(row) != width:
                raise FormatError(f"line {reader.line_num}: expected {width} "
                                  f"fields, got {len(row)}")
            feature_cells = row[:-1] if has_labels else row
            try:
                features.append([float(c) for c in feature_cells])
            except ValueError:
                bad = next(c for c in feature_cells if not _numeric(c))
                raise FormatError(f"line {reader.line_num}: non-numeric "
                                  f"value {bad.strip()!r}")
            if has_labels:
                labels.append(_csv_label(row[-1], reader.line_num))
    if not features:
        empty = "no data rows" if width is None else "header but no data rows"
        raise FormatError(f"{path}: {empty}")
    X = np.asarray(features, dtype=float).T
    if X.shape[0] < 1:
        raise FormatError(f"{path}: rows carry no feature columns")
    return X, (np.asarray(labels, dtype=int) if has_labels else None)

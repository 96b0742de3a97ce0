"""Two-modal hypergraph over sample columns and its normalized Laplacian.

The feature modal places one hyperedge on every sample's knn
neighborhood; the entry of neighbor v in center c's edge is a Gaussian
of the bandwidth-scaled distance times a nonnegative sparse attention
weight, and the center's own entry is pinned to 1. The label modal adds
one 0/1 hyperedge per class over the labeled samples. From the fused
incidence matrix H with edge weights W the degrees are

    delta(e) = sum_v H(v, e)        (hyperedge degree)
    d(v)     = sum_e W(e) H(v, e)   (vertex degree)

and the normalized Laplacian is

    L = I - Dv^{-1/2} H W De^{-1} H^T Dv^{-1/2}

symmetrized as (L + L^T)/2. Its quadratic form penalizes disagreement of
degree-scaled values inside each hyperedge, so positive semidefiniteness
holds up to rounding.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from ._native import kernels
from .attention import AdmmParams, solve_attention_batch
from .errors import InputError, InternalError, ParameterError, _integer

SAF = "saf"  # sparse-attention feature modal
LB = "lb"  # label modal
UNLABELED = -1


class Incidence:
    """A vertices x edges matrix in canonical compressed-column form, and
    hgdl's one compressed-sparse type: training holds L as the Incidence
    of L^T, whose arrays are L's canonical CSR.

    Column e's entries are data[indptr[e]:indptr[e + 1]], in the rows
    indices[indptr[e]:indptr[e + 1]], which ascend strictly. Stored zeros
    stay stored. indptr and indices are int64, data float64, as the
    compiled kernels read them. Treat all arrays as read-only.
    """

    __slots__ = ("indptr", "indices", "data", "shape")
    ndim = 2

    def __init__(self, indptr, indices, data, shape):
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self.indices = np.ascontiguousarray(indices, dtype=np.int64)
        self.data = np.ascontiguousarray(data, dtype=np.float64)
        self.shape = tuple(shape)

    @classmethod
    def of(cls, matrix) -> Incidence:
        """A copy of matrix, which is 2-d: an Incidence, an object with
        tocsc() (a scipy sparse array or matrix, whose own tocsc and
        sum_duplicates sort its rows and add up duplicate entries), or
        anything np.asarray takes, whose nonzeros are stored."""
        if isinstance(matrix, Incidence):
            return cls(matrix.indptr.copy(), matrix.indices.copy(),
                       matrix.data.copy(), matrix.shape)
        if hasattr(matrix, "tocsc"):
            try:
                copy = matrix.copy()
                # scipy's constructor leaves a csr or csc's indices
                # unchecked, and its own tocsc() indexes with them
                if hasattr(copy, "check_format"):
                    copy.check_format(full_check=True)
            except ValueError:
                raise ParameterError(
                    "incidence has indices outside its shape") from None
            csc = copy.tocsc()
            csc.sum_duplicates()  # in place, on the copy
            H = cls(csc.indptr, csc.indices, csc.data, csc.shape)
            # the compiled kernels index with these arrays, and a scipy
            # matrix can hold a row index past its shape
            n, m = H.shape
            if (H.indptr.shape != (m + 1,) or H.indptr[0] != 0
                    or H.indptr[-1] != H.nnz or H.indices.size != H.nnz
                    or (np.diff(H.indptr) < 0).any()
                    or (H.nnz and not 0 <= H.indices.min()
                        <= H.indices.max() < n)):
                raise ParameterError(
                    "incidence has indices outside its shape")
            return H
        dense = np.asarray(matrix, dtype=float)
        cols, rows = np.nonzero(dense.T)
        return cls(_indptr(np.bincount(cols, minlength=dense.shape[1])),
                   rows, dense[rows, cols], dense.shape)

    @property
    def nnz(self) -> int:
        return self.data.size

    def edge_of_entries(self) -> np.ndarray:
        """The column of each stored entry, in storage order."""
        return np.repeat(np.arange(self.shape[1]), np.diff(self.indptr))

    def columns(self, keep) -> Incidence:
        """The columns where the boolean mask keep is True, in order."""
        lengths = np.diff(self.indptr)
        entries = np.repeat(keep, lengths)
        return Incidence(_indptr(lengths[keep]), self.indices[entries],
                         self.data[entries],
                         (self.shape[0], int(np.count_nonzero(keep))))

    def toarray(self) -> np.ndarray:
        dense = np.zeros(self.shape)
        dense[self.indices, self.edge_of_entries()] = self.data
        return dense


def _indptr(lengths):
    """The int64 indptr of columns with these numbers of entries."""
    return np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)


@dataclass(frozen=True)
class Hypergraph:
    """Incidence matrix (vertices x edges) with per-edge weights and tags.

    The incidence, given dense, sparse or as an Incidence, is kept as a
    canonical Incidence of its own, so degrees() and laplacian() add in
    ascending index order. Stored entries are nonnegative and finite;
    weights are positive; tags mark which modal each edge belongs to.
    Treat all arrays as read-only.
    """

    incidence: Incidence
    edge_weights: np.ndarray
    modal_tags: np.ndarray

    def __post_init__(self):
        if np.ndim(self.incidence) != 2:
            raise ParameterError("incidence must be 2-d")
        H = Incidence.of(self.incidence)
        w = np.asarray(self.edge_weights, dtype=float)
        tags = np.asarray(self.modal_tags)
        object.__setattr__(self, "incidence", H)
        object.__setattr__(self, "edge_weights", w)
        object.__setattr__(self, "modal_tags", tags)
        if H.shape[0] < 1:
            raise ParameterError("hypergraph needs at least one vertex")
        if w.shape != (H.shape[1],) or tags.shape != (H.shape[1],):
            raise ParameterError("one weight and one tag per hyperedge")
        if not np.all(np.isfinite(H.data)) or np.any(H.data < 0):
            raise InputError("incidence entries must be finite and >= 0")
        if not np.all(np.isfinite(w)) or np.any(w <= 0):
            raise InputError("edge weights must be finite and positive")

    @property
    def n_vertices(self) -> int:
        return self.incidence.shape[0]

    @property
    def n_edges(self) -> int:
        return self.incidence.shape[1]


@dataclass(frozen=True)
class DegreePair:
    """Vertex degrees d(v) and hyperedge degrees delta(e) of a hypergraph."""

    vertex_degrees: np.ndarray
    edge_degrees: np.ndarray


@dataclass
class HypergraphConfig:
    """How to build the fused hypergraph for a feature matrix.

    use_attention=False fixes every attention weight to 1 (the plain
    similarity hypergraph); use_labels=False drops the label modal.
    """

    admm: AdmmParams
    k_nn: int = 10
    use_attention: bool = True
    use_labels: bool = True

    def __post_init__(self):
        self.k_nn = _integer(self.k_nn, "k_nn (--knn)")
        if self.k_nn < 1:
            raise ParameterError("k_nn (--knn) must be at least 1")


def knn_neighbors(X, k):
    """Indices of each column's k nearest other columns.

    Euclidean distance between columns; neighbors are sorted by ascending
    distance with ties broken by ascending column index. One call of the
    compiled kernel hgdl_knn (_kernels.c, built on first use) computes
    each pair's distance once, summed as scipy's cdist sums it, and keeps
    only each column's k best, so memory stays O(N k) beside the (N, dim)
    copy of X^T. A distance that overflows is +inf and ranks by index
    among the others that do; a column is never its own neighbor.
    Returns an (N, k) int64 array that owns its data.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ParameterError("feature matrix must be 2-d (features x samples)")
    if not np.all(np.isfinite(X)):
        raise InputError("feature matrix contains non-finite entries")
    dim, n = X.shape
    k = _integer(k, "k_nn (--knn)")
    if not 1 <= k < n:
        raise ParameterError(
            f"k_nn (--knn) must be at least 1 and below the number of "
            f"hypergraph vertices ({n}), got {k}"
        )
    neighbors = np.empty((n, k), dtype=np.int64)
    kernels().hgdl_knn(n, dim, k, np.ascontiguousarray(X.T), neighbors,
                       np.empty((n, k)))
    return neighbors


def build_saf_hypergraph(X, k, attention_params: AdmmParams,
                         use_attention: bool = True) -> Hypergraph:
    """One hyperedge per sample over its knn neighborhood.

    Neighbor v of center c gets entry exp(-(d(v,c)/sigma_c)^2) * w_v
    where sigma_c is the mean distance from c to its k neighbors (1.0
    when all neighbors coincide with c) and w_v is the attention weight
    of v clamped at zero. The center's own entry is 1, so every vertex
    has positive degree. All centers' attention problems are solved as
    one batch on P^T P and P^T x, P holding center x's neighbor columns.
    One call of the compiled kernel hgdl_saf forms the distances, and
    with attention on P^T x and P^T P, each entry summed as numpy's
    np.sum(..., axis=1) sums a row of the neighbors' products. A solve
    that hits max_iter keeps its last iterate; one warning per call
    counts them.
    """
    X = np.asarray(X, dtype=float)
    neighbors = knn_neighbors(X, k)
    dim, n = X.shape
    # one C-ordered copy, so that results do not depend on X's layout
    Xt = np.ascontiguousarray(X.T)
    dist = np.empty((n, k))
    gram = np.empty((n, k, k) if use_attention else 0)
    ptx = np.empty((n, k) if use_attention else 0)
    kernels().hgdl_saf(n, dim, k, Xt, neighbors, int(use_attention), dist,
                       ptx, gram)
    sigma = np.mean(dist, axis=1)
    sigma[sigma == 0.0] = 1.0
    entries = np.exp(-((dist / sigma[:, None]) ** 2))
    if use_attention:
        sol = solve_attention_batch(gram, ptx, attention_params)
        capped = int(np.count_nonzero(~sol.converged))
        if capped:
            warnings.warn(
                f"{capped} of {n} attention solves hit max_iter "
                f"({attention_params.max_iter}); they keep their last iterate",
                RuntimeWarning,
            )
        entries *= np.maximum(sol.q, 0.0)
    # column c holds center c's k neighbors and c itself, rows ascending:
    # n (k + 1) entries
    rows = np.column_stack([neighbors, np.arange(n)])
    order = np.argsort(rows, axis=1)
    data = np.column_stack([entries, np.ones(n)])
    H = Incidence(_indptr(np.full(n, k + 1)),
                  np.take_along_axis(rows, order, axis=1).ravel(),
                  np.take_along_axis(data, order, axis=1).ravel(), (n, n))
    return Hypergraph(H, np.ones(n), np.asarray([SAF] * n))


def build_lb_hypergraph(labels) -> Hypergraph:
    """One 0/1 hyperedge per class over the labeled vertices.

    Unlabeled vertices (label UNLABELED) get zero rows; classes with no
    labeled vertex yield no column, so the result can have zero edges.
    """
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.size < 1:
        raise ParameterError("labels must be a non-empty 1-d array")
    if not np.issubdtype(labels.dtype, np.integer):
        raise InputError("labels must be integers")
    labeled = np.flatnonzero(labels != UNLABELED)
    if np.any(labels[labeled] < 0):
        raise InputError("negative labels other than the UNLABELED sentinel")
    # the present classes, ascending, numbered 0.. as edges
    classes, edge = np.unique(labels[labeled], return_inverse=True)
    n_edges = classes.size
    order = np.argsort(edge, kind="stable")  # rows stay ascending
    H = Incidence(_indptr(np.bincount(edge, minlength=n_edges)),
                  labeled[order], np.ones(labeled.size),
                  (labels.size, n_edges))
    return Hypergraph(H, np.ones(n_edges), np.asarray([LB] * n_edges))


def fuse(first: Hypergraph, second: Hypergraph) -> Hypergraph:
    """Concatenate two hypergraphs over the same vertex set, columns of
    the first hypergraph coming first."""
    if first.n_vertices != second.n_vertices:
        raise ParameterError(
            f"vertex counts differ: {first.n_vertices} vs {second.n_vertices}"
        )
    a, b = first.incidence, second.incidence
    H = Incidence(np.concatenate([a.indptr, b.indptr[1:] + a.nnz]),
                  np.concatenate([a.indices, b.indices]),
                  np.concatenate([a.data, b.data]),
                  (a.shape[0], a.shape[1] + b.shape[1]))
    return Hypergraph(
        H,
        np.concatenate([first.edge_weights, second.edge_weights]),
        np.concatenate([np.asarray(first.modal_tags), np.asarray(second.modal_tags)]),
    )


def degrees(hg: Hypergraph):
    """Degrees of a hypergraph; zero-degree edges are dropped with a warning.

    Returns (hypergraph, DegreePair) where the hypergraph is the input
    unless edges were dropped. np.add.at adds the stored entries in
    storage order, so each column and each row is summed from 0 in
    ascending index order (where .sum(axis=...) would add pairwise), and
    the degrees agree bit for bit with plain loops. A zero vertex degree
    cannot arise from the constructors in this module and raises
    InternalError.
    """
    H = hg.incidence
    edge_deg = np.zeros(hg.n_edges)
    np.add.at(edge_deg, H.edge_of_entries(), H.data)
    dead = edge_deg == 0.0
    if dead.any():
        warnings.warn(
            f"dropping {int(dead.sum())} hyperedge(s) with zero degree",
            RuntimeWarning,
        )
        keep = ~dead
        H = H.columns(keep)
        hg = Hypergraph(H, hg.edge_weights[keep],
                        np.asarray(hg.modal_tags)[keep])
        edge_deg = edge_deg[keep]
    vertex_deg = np.zeros(hg.n_vertices)
    np.add.at(vertex_deg, H.indices,
              H.data * hg.edge_weights[H.edge_of_entries()])
    if np.any(vertex_deg <= 0.0):
        bad = int(np.flatnonzero(vertex_deg <= 0.0)[0])
        raise InternalError(
            f"vertex {bad} has zero degree; construction should prevent this"
        )
    return hg, DegreePair(vertex_degrees=vertex_deg, edge_degrees=edge_deg)


def laplacian(hg: Hypergraph, deg: DegreePair) -> np.ndarray:
    """Normalized hypergraph Laplacian I - Dv^{-1/2} H W De^{-1} H^T Dv^{-1/2}.

    One call of the compiled kernel hgdl_laplacian (_kernels.c, built on
    first use): Theta = G diag(W/De) G^T with G = Dv^{-1/2} H, each entry
    summed from 0 over ascending edges, then L = I - Theta symmetrized as
    (L + L^T)/2, all dense: a float64 ndarray with L == L^T exactly.
    """
    n = hg.n_vertices
    dv = np.asarray(deg.vertex_degrees, dtype=float)
    de = np.asarray(deg.edge_degrees, dtype=float)
    if dv.shape != (n,) or de.shape != (hg.n_edges,):
        raise ParameterError("degree shapes do not match the hypergraph")
    if np.any(dv <= 0) or np.any(de <= 0):
        raise InternalError("nonpositive degree reached laplacian()")
    H = hg.incidence
    lap = np.empty((n, n))
    scratch = np.empty((2, int(np.diff(H.indptr).max(initial=0))))
    kernels().hgdl_laplacian(n, hg.n_edges, H.indptr, H.indices, H.data,
                             1.0 / np.sqrt(dv), hg.edge_weights / de, lap,
                             scratch[0], scratch[1])
    return lap


def build_laplacian(X, labels, config: HypergraphConfig) -> np.ndarray:
    """Fused knn + label hypergraph for X, reduced to its Laplacian.

    labels may be None (or all-UNLABELED) when config.use_labels is
    False or no label modal is wanted.
    """
    saf = build_saf_hypergraph(
        X, config.k_nn, config.admm, use_attention=config.use_attention
    )
    if config.use_labels and labels is not None:
        hg = fuse(saf, build_lb_hypergraph(labels))
    else:
        hg = saf
    hg, deg = degrees(hg)
    return laplacian(hg, deg)

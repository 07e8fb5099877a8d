"""P1 finite-element matrices and the nonconstant Neumann eigenbasis."""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import ConvergenceError, MeshError, ResonanceError


@dataclass(eq=False)
class SpectralBasis:
    mass: sp.csr_matrix
    eigenvalues: np.ndarray      # nondecreasing, strictly positive
    eigenvectors: np.ndarray     # (V, M) columns, mass-orthonormal, zero-mean

    def __len__(self):
        return len(self.eigenvalues)


def ordered_pattern(rows, cols, order):
    """The CSC pattern (indptr, indices) of A[order][:, order], for A with
    distinct entries at (rows, cols), and which entry each of its entries
    is, from scipy's COO to CSC conversion (rank inverts `order`).  A
    symmetric pattern's CSC arrays are also its CSR ones."""
    n = len(order)
    rank = np.empty(n, dtype=np.intp)
    rank[order] = np.arange(n)
    P = sp.csc_matrix((np.arange(len(rows)), (rank[rows], rank[cols])),
                      shape=(n, n))
    return P.indptr, P.indices, P.data


def assemble(mesh):
    """Stiffness (Dirichlet form) and consistent mass matrix for P1 elements
    as a `MeshOperators`.

    The P1 pattern holds each vertex's diagonal and both entries of each
    census edge; its source map names the value each entry holds, i for
    vertex i's diagonal and n + k for edge k's.  Side s_k = p_{k+1} - p_{k+2}
    of T, turned by a right angle over 2|T|, is hat gradient k, so
    K_T[j, k] = s_j . s_k / (4|T|); M_T = |T| / 12 (1 + delta_jk).
    """
    t, areas = mesh.triangles, mesh.triangle_areas
    if np.any(areas <= 0):
        raise MeshError("degenerate triangle")
    n, lo, hi = mesh.num_vertices, *mesh.edges.T
    vertices, edges = np.arange(n), n + np.arange(len(lo))
    indptr, indices, entry = ordered_pattern(
        np.concatenate([vertices, lo, hi]), np.concatenate([vertices, hi, lo]),
        vertices)
    # K, M and every A0 on the pattern share its index arrays, and no
    # caller may alter them; the source map is kept in their dtype.
    indptr.flags.writeable = indices.flags.writeable = False
    source = np.concatenate([vertices, edges, edges])[entry].astype(
        indices.dtype)

    p = mesh.vertices[t]
    s = p[:, [1, 2, 0]] - p[:, [2, 0, 1]]
    four_areas = 4.0 * areas[:, None]
    twelfth = np.repeat(areas / 12.0, 3)

    def gathered(on_vertices, on_edges):
        values = np.concatenate([
            np.bincount(t.ravel(), weights=on_vertices.ravel(), minlength=n),
            np.bincount(mesh.triangle_edges.ravel(), weights=on_edges.ravel(),
                        minlength=len(lo))])
        return sp.csr_matrix((values[source], indices, indptr), shape=(n, n))

    K = gathered(np.einsum("tkf,tkf->tk", s, s) / four_areas,
                 np.einsum("tkf,tkf->tk", s, s[:, [1, 2, 0]]) / four_areas)
    M = gathered(2.0 * twelfth, twelfth)
    return MeshOperators(K, M, source)


# SuperLU's supernode relaxation and panel width for every factorization
# on the mesh (M, K + M and each bordered Hessian).  The default relaxation
# pads relaxed supernodes with explicit zeros that every solve and
# factorization multiplies through (disk128: +64% in M's LU, +45% in the
# bordered Hessian's); 1 relaxes none, so a factor stores only its
# nonzeros.  The mesh order does not depend on it: it is taken from a
# factor that keeps no fill at all (`MeshOperators.order`).
SUPERNODE_RELAX = 1
# SuperLU's supernode-panel LU updates w columns at a time through dense
# n x w work arrays (Demmel, Eisenstat, Gilbert, Li and Liu, SIAM J. Matrix
# Anal. Appl. 20(3), 1999); the width changes no stored entry and no pivot.
# Sweep of w in {1, 2, 4, 8, 20} (one BLAS thread, interleaved runs): each
# narrower w factored M, K + M and the bordered Hessian faster on disk128,
# annulus64 and square48 (disk128's Hessian: 2.55 ms at w = 2, 3.02 ms at
# the default 20); on square256's Hessian w <= 4 took 0.33-0.38 s against
# 0.36-0.41 s, w = 1 the slowest of the three in each of three runs, and
# w <= 12 lowered the peak resident memory by 6 MiB.
PANEL_SIZE = 2

# Mass solves without a factorization.  On every P1 triangle mesh the
# eigenvalues of D^-1 M, D = diag(M), lie in [1/2, 2] (Wathen, "Realistic
# eigenvalue bounds for the Galerkin mass matrix", IMA J. Numer. Anal. 7,
# 1987).  Chebyshev iteration on that interval (Saad, Iterative Methods for
# Sparse Linear Systems, sec. 12.3) reduces the error by 1 / T_k(5/3) =
# 2 / (3^k + 3^-k) < 2 * 3^-k in k steps, and 2 * 3^-34 < 2^-52, so 34
# steps solve with M to rounding, with no inner product and no test.
CHEBYSHEV_STEPS = 34
# A mesh rents before it buys: it factors M only once its Chebyshev solves
# have cost about one factorization.  On square256 (V = 66049) the LU takes
# 0.41-0.49 s, 16 Chebyshev solves at 28.7 ms each (LU solves 14.9 ms).
# The Newton-only runs (4 mass solves on square256) never factor M; the
# flow-heavy search (thousands of solves on disk128, V = 1409: Chebyshev
# 0.79 ms, LU solve 0.11 ms, factorization 3.4-5.4 ms) pays about 13 ms a
# mesh for the 16 solves before its LU.
MASS_SOLVES_BEFORE_LU = 16


@dataclass(eq=False)
class MeshOperators:
    """What every sparse computation on one mesh shares: K and M, the
    source map of their P1 pattern (see `assemble`), the fill-reducing
    vertex order, the bordered Hessian's pattern in that order and the
    solve with M.

    K and M are assembled at once.  The order is read on first use from an
    incomplete factor of M that keeps no fill.  The first
    MASS_SOLVES_BEFORE_LU mass solves are Chebyshev iterations for D^-1 M,
    D = diag(M), on [1/2, 2], which holds its spectrum on every P1 triangle
    mesh (Wathen, IMA J. Numer. Anal. 7, 1987; see CHEBYSHEV_STEPS), so a
    mesh that solves with M only a few times never factors it.  Later
    solves, and all of them once `mass_lu` has been read, use the LU of M,
    which is then kept with the mesh.
    """
    stiffness: sp.csr_matrix
    mass: sp.csr_matrix
    source: np.ndarray
    _chebyshev_solves: int = field(default=0, init=False, repr=False)

    @cached_property
    def mass_lu(self):
        """M factored with a symmetric minimum-degree order on M + M^T,
        unrelaxed (`SUPERNODE_RELAX`), so its factors store only nonzeros,
        in panels of `PANEL_SIZE` columns."""
        return spla.splu(self.mass.tocsc(), permc_spec="MMD_AT_PLUS_A",
                         relax=SUPERNODE_RELAX, panel_size=PANEL_SIZE)

    @cached_property
    def order(self):
        """SuperLU's postordered symmetric minimum-degree column order of
        M: A[order][:, order] is A in elimination order.

        The order and its elimination-tree postorder depend on M's pattern
        alone, so an incomplete factor that drops every fill entry chooses
        the same one as `mass_lu`, at a fraction of its cost (square256:
        0.1 s against 0.4-0.5 s), and is discarded at once.  It is kept in
        the pattern's index dtype (int32), like the source map.
        """
        # SuperLU factors Pr A Pc with column perm_c[i] of Pc holding A's
        # column i, so A's columns in elimination order are argsort(perm_c).
        return np.argsort(spla.spilu(
            self.mass.tocsc(), drop_tol=np.inf, fill_factor=1,
            permc_spec="MMD_AT_PLUS_A").perm_c).astype(self.mass.indices.dtype)

    @cached_property
    def bordered_pattern(self):
        """The order and CSC pattern of B[order][:, order] for the doubly
        bordered B = [[A, m, v], [m^T, 0, 0], [v^T, 0, d]] and A on M's
        pattern, built on first use; the order is the mesh's, then the m
        border, then the v border.  The pattern's data are each entry's
        position in concat([A's data, m, v, [d]]), in the pattern's index
        dtype.  The borders come last, so they are written in place of a
        COO conversion (which kept 27 MiB more resident on square256):
        each of A's columns ends in rows n and n + 1."""
        M = self.mass
        n, nnz = M.shape[0], M.nnz
        # The two kept arrays are allocated before the transients, which
        # are then freed from the top of the heap.
        rows, source = np.empty((2, nnz + 4 * n + 1), dtype=M.indices.dtype)
        mesh_order = self.order
        indptr, indices, entry = ordered_pattern(
            np.repeat(np.arange(n), np.diff(M.indptr)), M.indices, mesh_order)
        at, vertices, tail = np.repeat(indptr[1:], 2), np.arange(n), nnz + 2 * n
        m, v = nnz + mesh_order, tail - n + mesh_order
        np.concatenate([np.insert(indices, at, np.tile([n, n + 1], n)),
                        vertices, vertices, [n + 1]], out=rows)
        np.concatenate([np.insert(entry, at, np.column_stack([m, v]).ravel()),
                        m, v, [tail]], out=source, casting="same_kind")
        indptr = np.append(indptr + 2 * np.arange(n + 1),
                           [tail + n, tail + 2 * n + 1])
        order = np.concatenate([mesh_order, [n, n + 1]], dtype=rows.dtype)
        return order, sp.csc_matrix((source, rows, indptr),
                                    shape=(n + 2, n + 2))

    def mass_solve(self, b):
        """The solve of M x = b: Chebyshev iteration for the first
        MASS_SOLVES_BEFORE_LU solves while `mass_lu` is unread, then the
        LU of M."""
        if ("mass_lu" not in self.__dict__
                and self._chebyshev_solves < MASS_SOLVES_BEFORE_LU):
            self._chebyshev_solves += 1
            return self._chebyshev_solve(b)
        return self.mass_lu.solve(b)

    def _chebyshev_solve(self, b):
        """CHEBYSHEV_STEPS steps of Chebyshev iteration for D^-1 M x =
        D^-1 b on [1/2, 2] from x = 0 (Saad, Algorithm 12.1)."""
        M = self.mass
        inv_d = 1.0 / M.diagonal()
        theta, delta = 1.25, 0.75       # centre and half-width of [1/2, 2]
        sigma = theta / delta
        rho = 1.0 / sigma
        r = np.array(b, dtype=float)
        step = inv_d * r / theta
        x = step.copy()
        for _ in range(CHEBYSHEV_STEPS - 1):
            r -= M @ step
            rho_next = 1.0 / (2.0 * sigma - rho)
            step = ((rho_next * rho) * step
                    + (2.0 * rho_next / delta) * (inv_d * r))
            rho = rho_next
            x += step
        return x


def operators(mesh):
    """The `MeshOperators` of `mesh`, built once and kept on the mesh itself,
    so that they are freed with it.

    Every matrix on the P1 pattern (K + M, each bordered Hessian) is
    permuted by the mesh's order and factored in natural order, so no
    later factorization orders its columns again.
    """
    ops = getattr(mesh, "_operators", None)
    if ops is None:
        ops = mesh._operators = assemble(mesh)
    return ops


def ordered_solve(lu, order, dtype=np.float64):
    """The float64 solve of A x = b given `lu`, the LU of A[order][:, order]
    with values of `dtype`, to which b is rounded."""
    def solve(b):
        x = np.empty_like(b, dtype=float)
        x[order] = lu.solve(b[order].astype(dtype, copy=False))
        return x
    return solve


def _fix_signs(vecs):
    for j in range(vecs.shape[1]):
        c = vecs[:, j]
        nz = np.flatnonzero(np.abs(c) > 1e-8 * np.abs(c).max())
        if len(nz) and c[nz[0]] < 0:
            vecs[:, j] = -c
    return vecs


def eigenpairs(mesh, count):
    """Lowest `count` nonconstant Neumann eigenpairs, mass-orthonormal.

    Shift-invert Lanczos about -1, below the spectrum, at every mesh size:
    K and M stay sparse, and K + M is factored in the mesh's order.  A fixed
    start vector makes the result repeat exactly; it is not projected to
    zero mean, since the constant mode must be found.  The constant mode is
    removed by projection against the mass-weighted constant, not by
    pinning a vertex.
    """
    n = mesh.num_vertices
    if not 1 <= count < n - 1:
        raise MeshError(f"eigenpair count {count} must be at least 1 and "
                        f"below {n - 1}")
    ops = operators(mesh)
    K, M, q = ops.stiffness, ops.mass, ops.order

    rows = np.repeat(np.arange(n), np.diff(M.indptr))
    indptr, indices, entry = ordered_pattern(rows, M.indices, q)
    lu = spla.splu(sp.csc_matrix(((K.data + M.data)[entry], indices, indptr),
                                 shape=(n, n)),
                   permc_spec="NATURAL", relax=SUPERNODE_RELAX,
                   panel_size=PANEL_SIZE)
    OPinv = spla.LinearOperator((n, n), matvec=ordered_solve(lu, q),
                                dtype=float)
    v0 = np.random.default_rng(0).standard_normal(n)
    try:
        vals, vecs = spla.eigsh(K, k=count + 1, M=M, sigma=-1.0, which="LM",
                                OPinv=OPinv, v0=v0)
    except spla.ArpackError as exc:     # ArpackNoConvergence included
        raise ConvergenceError(f"eigensolver failed: {exc}") from exc
    order = np.argsort(vals)
    vals, vecs = vals[order], vecs[:, order]

    if abs(vals[0]) > 1e-6 * (1.0 + abs(vals[1])):
        raise ConvergenceError("constant mode not resolved by eigensolver")
    vals, vecs = vals[1:], vecs[:, 1:]

    # Deflate the constant and re-orthonormalize in the mass inner product
    # (modified Gram-Schmidt keeps degenerate clusters clean).
    vecs = vecs - (mesh.lumped_masses() @ vecs) / mesh.area
    for j in range(vecs.shape[1]):
        w = M @ vecs[:, j]
        for i in range(j):
            vecs[:, j] -= (vecs[:, i] @ w) * vecs[:, i]
            w = M @ vecs[:, j]
        vecs[:, j] /= np.sqrt(vecs[:, j] @ w)
    _fix_signs(vecs)
    return SpectralBasis(mass=M, eigenvalues=np.asarray(vals),
                         eigenvectors=vecs)


def resonance_tol(threshold):
    """The distance from -threshold within which an eigenvalue resonates."""
    return 1e-6 * (1.0 + abs(threshold))


def bracket_index(eigenvalues, threshold):
    """Number of eigenvalues strictly below -threshold.

    With the convention lambda_0 = 0 this is the unique n with
    -lambda_{n+1} < threshold < -lambda_n; thresholds at or above -lambda_1
    give 0.  Raises ResonanceError when threshold is within
    `resonance_tol` of some -lambda_i.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    if np.any(np.abs(threshold + lam) < resonance_tol(threshold)):
        raise ResonanceError(
            f"threshold {threshold} resonates with an eigenvalue")
    return int(np.sum(lam < -threshold))

"""Spectral harness over the full graded cochain space.

All degrees are stacked into one basis, degree blocks in order, and the
differential plus its adjoint assemble into a single symmetric operator D
whose square is the block-diagonal Laplacian.  Shifting by the rank-one
projection P onto the base-vertex line closes the spectral gap from below:
(D + P)^2 = D^2 + P is at least the identity, which makes every identity
here quantitative.

The Laplacian is diagonal, d delta + delta d = diag(q + p(C)), and so is
its weighted form in the t-frame: P + D^2 is a diagonal Lambda, and no
identity here needs a spectrum.  Per t, ``spectral_frame`` forms A = D + P
and G = A^T A with one product; G is P + D^2 when D is symmetric with a
zero base row and column.  The frame keeps Lambda = diag(G), the
Gershgorin radii of G, and r = Lambda^(-1/2).  From these come the bounded
transform F = D r with its Fredholm identity F^2 = I - P Lambda^(-1), the
normalized differential d' = tril(D) r with d'^T d' + d' d'^T equal to
the same target, and upper bounds on the resolvent norms of D + P.  The
targets are diagonal, but the defects are computed in floating point:
off-diagonal mass in G, or a D that fails to commute with Lambda, shows in
them.  Residuals are reported as the upper bound sqrt(|R|_1 |R|_inf) on
the spectral norm |R|_2, which can only make a threshold stricter.  The
integral formula (2/pi) int (lambda^2 + T)^(-1) d lambda is kept
alongside as a verified quadrature of T^(-1/2); on a diagonal T it runs
entry by entry.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple

import numpy as np

from .core import CubeComplex
from .deformation import basepoint_commutator_norm, deformation_weights
from .differential import Weights, d_matrix, delta_matrix

__all__ = [
    "SpectralFrame",
    "assemble_D",
    "base_neighbor",
    "base_projection",
    "basepoint_decay_sweep",
    "format_t",
    "graded_offsets",
    "homotopy_residual",
    "inv_sqrt_integral",
    "inv_sqrt_spectral",
    "norm2_bound",
    "normalized_d",
    "resolvent_bounds",
    "spectral_frame",
]


def graded_offsets(cplx: CubeComplex) -> tuple[int, ...]:
    offs = [0]
    for q in range(cplx.dimension + 1):
        offs.append(offs[-1] + len(cplx.cubes(q)))
    return tuple(offs)


def assemble_D(cplx: CubeComplex, weights: Weights = None) -> np.ndarray:
    """The symmetric operator d + delta over the graded basis.

    Integer for unit weights, float otherwise; degree q occupies
    ``graded_offsets(cplx)[q:q + 2]``.  Both triangles are assembled from
    their own formulas; the symmetry of the result is a theorem about the
    two, not a construction.  The degree-raising half d is the strictly
    lower triangle.
    """
    offs = graded_offsets(cplx)
    out = np.zeros((offs[-1], offs[-1]), dtype=np.int64 if weights is None else np.float64)
    for q in range(cplx.dimension):
        lo, mid, hi = offs[q:q + 3]
        out[mid:hi, lo:mid] = d_matrix(cplx, q, weights)
        out[lo:mid, mid:hi] = delta_matrix(cplx, q + 1, weights)
    return out


def base_projection(cplx: CubeComplex) -> np.ndarray:
    """Rank-one projection onto the base-vertex line in degree zero."""
    n = graded_offsets(cplx)[-1]
    out = np.zeros((n, n), dtype=np.int64)
    i = cplx.vertex_index(cplx.base_vertex)
    out[i, i] = 1
    return out


def base_neighbor(cplx: CubeComplex) -> int | None:
    """The base vertex's neighbour across the lowest hyperplane, if any."""
    for h in range(cplx.n_hyperplanes):
        v = cplx.base_vertex ^ cplx.mask(h)
        if cplx.contains_vertex(v):
            return v
    return None


def _singular_guard(z: complex, smallest: float, largest: float) -> None:
    if not smallest > 1e-13 * largest:
        raise ValueError(
            "matrix + %r is singular to working precision "
            "(smallest singular value %.3e)" % (z, float(smallest)))


def norm2_bound(matrix: np.ndarray) -> float:
    """The upper bound sqrt(|M|_1 |M|_inf) on the spectral norm |M|_2."""
    if not matrix.size:
        return 0.0
    a = np.abs(matrix)
    return math.sqrt(float(a.sum(axis=0).max()) * float(a.sum(axis=1).max()))


def inv_sqrt_spectral(matrix: np.ndarray) -> np.ndarray:
    """Inverse square root of a symmetric positive definite matrix."""
    vals, vecs = np.linalg.eigh(np.asarray(matrix, dtype=np.float64))
    if vals[0] <= 0:
        raise ValueError(
            "matrix is not positive definite (smallest eigenvalue %.3e)"
            % float(vals[0]))
    return (vecs * (vals ** -0.5)) @ vecs.T


def inv_sqrt_integral(matrix: np.ndarray, nodes: int = 200) -> np.ndarray:
    """Inverse square root by the integral (2/pi) int (s^2 + T)^(-1) ds.

    The half-line is mapped to (0,1) by s = u/(1-u) and the integral
    evaluated by Gauss-Legendre quadrature.  Requires the spectrum to be
    bounded below by 1, which keeps the integrand tame and the node count
    modest.  A matrix with no nonzero off-diagonal entry is integrated
    entry by entry on its diagonal: LU of a diagonal matrix is exact
    division, so the result is bit for bit that of the dense solves.
    """
    t = np.asarray(matrix, dtype=np.float64)
    diag = np.diag(t)
    diagonal = np.count_nonzero(t) == np.count_nonzero(diag)
    low = float(diag.min()) if diagonal else float(np.linalg.eigvalsh(t)[0])
    if low < 1.0 - 1e-9:
        raise ValueError(
            "spectrum must be bounded below by 1 (smallest eigenvalue %.6f)"
            % low)
    xs, ws = np.polynomial.legendre.leggauss(nodes)
    eye = np.eye(t.shape[0])
    acc = np.zeros_like(diag) if diagonal else np.zeros_like(t)
    for x, w in zip(xs, ws):
        u = (x + 1.0) / 2.0
        s = u / (1.0 - u)
        jac = 1.0 / (1.0 - u) ** 2
        if diagonal:
            acc += (w / 2.0) * jac * (1.0 / (s * s + diag))
        else:
            acc += (w / 2.0) * jac * np.linalg.solve(s * s * eye + t, eye)
    return (2.0 / math.pi) * (np.diag(acc) if diagonal else acc)


def normalized_d(cplx: CubeComplex, weights: Weights = None) -> np.ndarray:
    """The normalized differential d (I + Laplacian)^(-1/2), graded.

    The Laplacian D^2 is diagonal, so this is tril(D) scaled by column.
    """
    full = assemble_D(cplx, weights).astype(np.float64)
    return np.tril(full) * (1.0 + np.einsum("ij,ji->i", full, full)) ** -0.5


class SpectralFrame(NamedTuple):
    """One t's graded operator S = D_w and the diagonal of P + S^2.

    ``lam`` is the diagonal of G = A^T A for A = S + P, where P projects
    onto the base vertex at graded index ``base``; ``rho`` holds the
    off-diagonal absolute row sums of G, and ``root`` is ``lam ** -0.5``.
    The degree-raising half of S is its strictly lower triangle.
    """

    s: np.ndarray
    base: int
    lam: np.ndarray
    rho: np.ndarray
    root: np.ndarray

    @classmethod
    def of(cls, s: np.ndarray, base: int) -> "SpectralFrame":
        """The frame of any square S: one product A^T A."""
        a = s.copy()
        a[base, base] += 1.0
        g = a.T @ a
        lam = np.diag(g).copy()
        np.fill_diagonal(g, 0.0)
        return cls(s, base, lam, np.abs(g).sum(axis=1), lam ** -0.5)

    def target(self) -> np.ndarray:
        """The diagonal of I - P Lambda^(-1): 1 but for the base entry."""
        out = np.ones(len(self.lam))
        out[self.base] -= 1.0 / self.lam[self.base]
        return out

    def _less_target(self, m: np.ndarray) -> np.ndarray:
        m[np.diag_indices_from(m)] -= self.target()
        return m

    def fredholm_defect(self) -> np.ndarray:
        """F^2 - (I - P Lambda^(-1)) for F = S Lambda^(-1/2)."""
        f = self.s * self.root
        return self._less_target(f @ f)

    def homotopy_defect(self) -> np.ndarray:
        """h d' + d' h - (I - P Lambda^(-1)), d' = tril(S) Lambda^(-1/2), h = d'^T."""
        dprime = np.tril(self.s) * self.root
        out = dprime.T @ dprime
        out += dprime @ dprime.T
        return self._less_target(out)

    def resolvent_bounds(self, lambdas: Iterable[float]) -> list[dict]:
        """Upper bounds on |(A + i lambda)^(-1)|_2 against |1 + i lambda|^(-1).

        (A + i lambda)^* (A + i lambda) = G + lambda^2 + i lambda (A^T - A),
        so by Gershgorin the squared singular values of A + i lambda lie
        within rho_j + |lambda| sum_k |A - A^T|_jk of lam_j + lambda^2.  The
        smallest lower end bounds sigma_min^2 from below for any A.
        """
        skew = np.abs(self.s - self.s.T).sum(axis=1)
        out = []
        for mu in lambdas:
            radius = self.rho + abs(mu) * skew
            low = float((self.lam - radius).min()) + mu * mu
            high = float((self.lam + radius).max()) + mu * mu
            _singular_guard(1j * mu, math.sqrt(max(low, 0.0)), math.sqrt(high))
            out.append({
                "lambda": mu,
                "norm": 1.0 / math.sqrt(low),
                "bound": 1.0 / abs(1 + 1j * mu),
            })
        return out


def spectral_frame(cplx: CubeComplex, t: float, weighted: bool = False) -> SpectralFrame:
    """The frame at t: D with deformation weights if ``weighted``."""
    w = deformation_weights(cplx, t) if weighted else None
    s = assemble_D(cplx, w).astype(np.float64)
    return SpectralFrame.of(s, cplx.vertex_index(cplx.base_vertex))


def homotopy_residual(cplx: CubeComplex, t: float, weighted: bool = False) -> float:
    """Upper bound ``norm2_bound`` on |h d' + d' h - (I - P (P + D^2)^(-1))|_2.

    d' is the degree-raising block normalized by (P + D^2)^(-1/2) and h is
    its adjoint; in this frame adjoint means plain transpose.
    """
    return norm2_bound(spectral_frame(cplx, t, weighted).homotopy_defect())


def resolvent_bounds(cplx: CubeComplex, t: float, lambdas: Iterable[float],
                     weighted: bool = False) -> list[dict]:
    """Resolvent norms of the shifted operator against the exact bound.

    The bound |1 + i lambda|^(-1) holds because (D + P)^2 is at least the
    identity once the projection closes the kernel.  The norms reported
    are Gershgorin upper bounds (see ``SpectralFrame.resolvent_bounds``).
    """
    return spectral_frame(cplx, t, weighted).resolvent_bounds(lambdas)


def basepoint_decay_sweep(cplx: CubeComplex, p_vertex: int, q_vertex: int,
                          t_grid: Iterable[float]) -> dict:
    """Base-change commutator norms over a t grid, with a fitted slope.

    Equal base points give identically zero norms.  Every norm must be
    finite; the slope bounds norm/t over the sub-unit grid points.
    """
    norms = []
    for t in t_grid:
        if p_vertex == q_vertex:
            norms.append((t, 0.0))
            continue
        norms.append((t, basepoint_commutator_norm(cplx, p_vertex, q_vertex, t)))
    for t, value in norms:
        if not math.isfinite(value):
            raise AssertionError("commutator norm at t=%r is not finite" % t)
    slope = max(
        (value / t for t, value in norms if t <= 1.0 and t > 0),
        default=0.0)
    return {"norms": norms, "slope_bound": slope}


def format_t(t: float) -> str:
    """Canonical text form of a deformation parameter."""
    if t == math.inf:
        return "inf"
    return repr(float(t))

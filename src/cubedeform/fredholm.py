"""Spectral harness over the full graded cochain space.

All degrees are stacked into one basis, degree blocks in order, and the
differential plus its adjoint assemble into a single symmetric operator D
whose square is the block-diagonal Laplacian.  Shifting by the rank-one
projection P onto the base-vertex line closes the spectral gap from below:
(D + P)^2 = D^2 + P is at least the identity, which makes every identity
here quantitative.

The Laplacian is diagonal, d delta + delta d = diag(q + p(C)), and so is
its weighted form in the t-frame: P + D^2 is a diagonal Lambda, and no
identity here needs a spectrum or a dense operator.  ``graded_terms``
lists S = D_w from the cached term tables, and every product is a join of
that listing summed by matrix entry (``differential.term_product``).  Per
t, ``spectral_frame`` joins A = S + P into G = A^T A and keeps Lambda =
diag(G), the Gershgorin radii of G, and r = Lambda^(-1/2).  From these
come the bounded transform F = S r with its Fredholm identity F^2 = I -
P Lambda^(-1), the normalized differential d' = tril(S) r with d'^T d' +
d' d'^T equal to the same target, and upper bounds on the resolvent norms
of S + P.  The defects keep every term pair of the dense products, so
off-diagonal mass in G, or an S that fails to commute with Lambda, shows
in them; they are reported as the bound sqrt(|R|_1 |R|_inf) >= |R|_2.
The integral (2/pi) int (s^2 + T)^(-1) ds is kept alongside as a verified
quadrature of T^(-1/2); on a diagonal T it runs on the diagonal's vector,
and the dense ``inv_sqrt_integral`` runs only when P + D^2 has
off-diagonal mass.  Its rule is closed-form: 200 midpoint nodes in theta
for s = c tan(theta), c = (low high)^(1/4) from the ends of T's spectrum,
which integrates each eigenvalue as a smooth periodic function of theta.
It is within 5e-15 relative of T^(-1/2) for spectra [1, L] up to
L = 1e5; without the scale c it is 3.4e-8 off at L = 2,001.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple

import numpy as np

from .core import CubeComplex
from .deformation import deformation_weights
from .differential import (
    Weights,
    grouped_sum,
    term_product,
    term_table,
    weight_vector,
)

__all__ = [
    "SpectralFrame",
    "base_neighbor",
    "format_t",
    "graded_offsets",
    "graded_terms",
    "homotopy_sums",
    "inv_sqrt_diagonal",
    "inv_sqrt_integral",
    "spectral_frame",
]


def graded_offsets(cplx: CubeComplex) -> tuple[int, ...]:
    offs = [0]
    for q in range(cplx.dimension + 1):
        offs.append(offs[-1] + len(cplx.cube_arrays(q).keys))
    return tuple(offs)


def base_neighbor(cplx: CubeComplex) -> int | None:
    """The base vertex's neighbour across the lowest hyperplane, if any."""
    for h in range(cplx.n_hyperplanes):
        v = cplx.base_vertex ^ cplx.mask(h)
        if cplx.contains_vertex(v):
            return v
    return None


def _singular_guard(z: complex, smallest: float, largest: float) -> None:
    if not smallest > 1e-13 * largest:
        raise np.linalg.LinAlgError(
            "matrix + %r is singular to working precision "
            "(smallest singular value %.3e)" % (z, float(smallest)))


def _rule(low: float, high: float, nodes: int) -> tuple[list, list]:
    """``_integral``'s nodes s^2 and weights, as floats: the midpoint rule
    in theta, s = c tan(theta), c = (low high)^(1/4)."""
    c = (low * high) ** 0.25
    theta = (np.arange(nodes) + 0.5) * (math.pi / (2 * nodes))
    weights = (math.pi / (2 * nodes)) * c / np.cos(theta) ** 2
    return ((c * np.tan(theta)) ** 2).tolist(), weights.tolist()


def _integral(low: float, high: float, nodes: int, resolvent):
    """(2/pi) int (s^2 + T)^(-1) ds, given ``resolvent(s^2)`` and the ends
    ``low`` and ``high`` of T's spectrum: the midpoint rule on
    s = c tan(theta), theta in (0, pi/2), c = (low high)^(1/4).

    There an eigenvalue lambda integrates c / (c^2 sin^2 + lambda cos^2),
    smooth and periodic in theta, so the rule converges geometrically, at
    a rate set by sqrt(lambda) / c.  The scale c centres that ratio on the
    spectrum: with c = 1 a spectrum [1, 1e4] is off by 6.7e-4, with c it
    is within 5e-15 up to [1, 1e5] (2e-11 at [1, 1e6]).  T's spectrum
    bounded below by 1 keeps the integrand tame."""
    if low < 1.0 - 1e-9:
        raise np.linalg.LinAlgError(
            "spectrum must be bounded below by 1 (smallest eigenvalue %.6f)"
            % low)
    acc = 0.0
    for s2, w in zip(*_rule(low, high, nodes)):
        acc += w * resolvent(s2)
    return (2.0 / math.pi) * acc


def inv_sqrt_diagonal(diag: np.ndarray, nodes: int = 200) -> np.ndarray:
    """``inv_sqrt_integral`` of diag(diag), as the vector of its diagonal."""
    diag = np.asarray(diag, dtype=np.float64)
    return _integral(float(diag.min()), float(diag.max()), nodes,
                     lambda s2: 1.0 / (s2 + diag))


def inv_sqrt_integral(matrix: np.ndarray, nodes: int = 200) -> np.ndarray:
    """Inverse square root by the integral (2/pi) int (s^2 + T)^(-1) ds.

    One dense solve per node; a matrix with no nonzero off-diagonal entry
    is integrated by ``inv_sqrt_diagonal`` on its diagonal instead: LU of
    a diagonal matrix is exact division, so that is bit for bit the same.
    """
    t = np.asarray(matrix, dtype=np.float64)
    diag = np.diag(t)
    if np.count_nonzero(t) == np.count_nonzero(diag):
        return np.diag(inv_sqrt_diagonal(diag, nodes))
    eye = np.eye(t.shape[0])
    spectrum = np.linalg.eigvalsh(t)
    return _integral(float(spectrum[0]), float(spectrum[-1]), nodes,
                     lambda s2: np.linalg.solve(s2 * eye + t, eye))


def graded_terms(cplx: CubeComplex, weights: Weights = None) -> tuple[np.ndarray, np.ndarray]:
    """S = D_w as int64 rows (target, source, term id, sign) in graded
    indices by ascending source, and each term's value sign * w(h), integer
    for unit weights, by term id.  Raising terms have target > source."""
    offs = graded_offsets(cplx)
    terms = np.concatenate([
        term_table(cplx, q, raising) + (offs[q + 1 if raising else q - 1], offs[q], 0, 0)
        for q in range(cplx.dimension + 1) for raising in (True, False)])
    terms = terms[np.argsort(terms[:, 1], kind="stable")]
    w = np.asarray(weight_vector(cplx, weights), dtype=np.int64 if weights is None else float)
    values = terms[:, 3] * w[terms[:, 2]]
    terms[:, 2] = np.arange(len(terms))
    return terms, values


def _transposed(terms: np.ndarray) -> np.ndarray:
    """The listing of the transpose, by ascending source."""
    return terms[np.argsort(terms[:, 0], kind="stable")][:, [1, 0, 2, 3]]


def _pairs(a: np.ndarray, b: np.ndarray, values: np.ndarray, n: int) -> tuple[np.ndarray, ...]:
    """Keys and values of the term pairs of A @ B, values by term id."""
    keys, _, i, j = term_product(a, b, n)
    return keys, values[i] * values[j]


def homotopy_sums(terms: np.ndarray, values: np.ndarray, scale: np.ndarray,
                  target: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """d'^T d' + d' d'^T - diag(target) as ``grouped_sum`` keys and sums,
    d' the raising terms of a ``graded_terms`` listing scaled by column."""
    n = len(target)
    up = terms[terms[:, 0] > terms[:, 1]]
    down = _transposed(up)
    scaled = values * scale[terms[:, 1]]
    return grouped_sum(_pairs(down, up, scaled, n), _pairs(up, down, scaled, n),
                       (np.arange(n) * (n + 1), -target))


class SpectralFrame(NamedTuple):
    """One t's graded operator S = D_w, listed as by ``graded_terms``.

    ``lam`` is the diagonal of G = A^T A for A = S + P, where P projects
    onto the base vertex at graded index ``base``; ``rho`` and ``skew``
    hold the off-diagonal absolute row sums of G and of S - S^T, and
    ``root`` is ``lam ** -0.5``.  Defects are ``grouped_sum`` keys and sums.
    """

    terms: np.ndarray
    values: np.ndarray
    base: int
    lam: np.ndarray
    rho: np.ndarray
    skew: np.ndarray
    root: np.ndarray

    @classmethod
    def of(cls, terms: np.ndarray, values: np.ndarray, n: int, base: int) -> "SpectralFrame":
        """The frame of any n x n listing: one join A^T A."""
        a = np.vstack([terms, (base, base, len(terms), 1)])
        keys, g = grouped_sum(_pairs(_transposed(a), a, np.append(values, 1.0), n))
        row, col = np.divmod(keys, n)
        lam = np.bincount(row[row == col], g[row == col], n)
        rho = np.bincount(row[row != col], np.abs(g[row != col]), n)
        rows, cols = terms[:, 0], terms[:, 1]
        keys, skew = grouped_sum((rows * n + cols, values), (cols * n + rows, -values))
        skew = np.bincount(keys // n, np.abs(skew), n)
        return cls(terms, values, base, lam, rho, skew, lam ** -0.5)

    def target(self) -> np.ndarray:
        """The diagonal of I - P Lambda^(-1): 1 but for the base entry."""
        out = np.ones(len(self.lam))
        out[self.base] -= 1.0 / self.lam[self.base]
        return out

    def fredholm_defect(self) -> tuple[np.ndarray, np.ndarray]:
        """F^2 - (I - P Lambda^(-1)) for F = S Lambda^(-1/2)."""
        n = len(self.lam)
        f = self.values * self.root[self.terms[:, 1]]
        return grouped_sum(_pairs(self.terms, self.terms, f, n),
                           (np.arange(n) * (n + 1), -self.target()))

    def homotopy_defect(self) -> tuple[np.ndarray, np.ndarray]:
        """h d' + d' h - (I - P Lambda^(-1)), d' = tril(S) Lambda^(-1/2), h = d'^T."""
        return homotopy_sums(self.terms, self.values, self.root, self.target())

    def resolvent_bounds(self, lambdas: Iterable[float]) -> list[dict]:
        """Upper bounds on |(A + i lambda)^(-1)|_2 against |1 + i lambda|^(-1).

        (A + i lambda)^* (A + i lambda) = G + lambda^2 + i lambda (A^T - A),
        so by Gershgorin the squared singular values of A + i lambda lie
        within rho_j + |lambda| sum_k |A - A^T|_jk of lam_j + lambda^2.  The
        smallest lower end bounds sigma_min^2 from below for any A.
        """
        out = []
        for mu in lambdas:
            radius = self.rho + abs(mu) * self.skew
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
    return SpectralFrame.of(*graded_terms(cplx, w), graded_offsets(cplx)[-1],
                            cplx.vertex_index(cplx.base_vertex))


def format_t(t: float) -> str:
    """Canonical text form of a deformation parameter."""
    if t == math.inf:
        return "inf"
    return repr(float(t))

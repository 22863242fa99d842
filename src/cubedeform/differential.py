"""Signed cube calculus: the term tables of d and delta, and the
diagonal-Laplacian complex they form.

Orientations are kept in a fixed canonical gauge: every cube is its
canonical presentation (anchor vertex, cutting hyperplanes in ascending id
order, sign +), and a reversed cube is a negated coefficient, never a key
of its own.

The two basic operators move between neighbouring degrees.  ``wedge(H, C)``
raises into the (q+1)-cube spanned across H when C sits on the far side of
H from the base vertex, and is zero otherwise.  ``hook(H, C)`` lowers onto
the codimension-one face of C on the far side of H when H cuts C.  Summing
over hyperplanes (with optional positive weights) gives the differential
``d`` and its formal adjoint ``delta``; their anticommutator is diagonal
with entry q_w(C) + p_w(C) on each cube, which pins the spectral gap and
makes each cohomology dimension a count of zeros on that diagonal.

Both operators are kept as ``term_table``: per complex, degree and base
vertex, the wedge and hook terms unweighted as int64 rows (target, source,
hyperplane, sign).  d and delta read one incidence table,
``CubeComplex.facets``, each with its own selection: a cube (a, C) and its
i-th cutting hyperplane h give one term, sign (-1)^(i + b_h), between the
cube and its facet on the far side of h from the base vertex b.  d gathers
from the (q+1)-cubes, delta from the q-cubes; as both read one table, the
independent evidence for delta = d^T is the tests' per-term cochain
oracle.  The check suites form no operator: ``term_product`` lists the
term pairs of a product of two tables, and ``grouped_sum`` sums them by
matrix entry.  Only ``cohomology_ranks``, the SVD fallback that runs when
an identity fails, scatters a dense d, each sign times its weight.
"""

from __future__ import annotations

import math
from typing import Mapping, NamedTuple, Sequence, Union

import numpy as np

from .core import Cube, CubeComplex, bit_rows

__all__ = [
    "OrientedCube",
    "cohomology_ranks",
    "d_matrix",
    "grouped_sum",
    "laplacian_diagonal",
    "max_sum",
    "norm2_bound_sums",
    "numerical_rank",
    "term_product",
    "term_table",
    "weight_vector",
]

Weights = Union[None, Mapping[int, float], Sequence[float]]


class OrientedCube(NamedTuple):
    """A cube together with a sign relative to its canonical presentation."""

    cube: Cube
    sign: int


def weight_vector(cplx: CubeComplex, weights: Weights) -> list:
    """Normalize a weight specification to a per-hyperplane list.

    None means unit weights, kept as exact integers so that structural
    identities hold in integer arithmetic.
    """
    n = cplx.n_hyperplanes
    if weights is None:
        return [1] * n
    if isinstance(weights, Mapping):
        vec = [weights[h] for h in range(n)]
    else:
        vec = list(weights)
        if len(vec) != n:
            raise ValueError(
                "expected %d weights, got %d" % (n, len(vec)))
    if any(not w > 0 for w in vec):
        raise ValueError("weights must be strictly positive")
    return vec


def term_table(cplx: CubeComplex, q: int, raising: bool = True) -> np.ndarray:
    """The cached terms of d (raising) or delta on degree q.

    One read-only int64 row (target index, source index, hyperplane, sign)
    per nonzero term, unweighted, by ascending source, then hyperplane.
    Terms move with the base vertex, and copies of the complex with
    another base vertex may share ``_shared``, so the base vertex is part
    of the key.  A source and a
    target fix the hyperplane between them, so each matrix entry receives
    at most one term.  Both gather from ``cplx.facets(top)``, top = q + 1
    for d and q for delta.
    """
    def build():
        top = q + 1 if raising else q
        facets = cplx.facets(top)
        base = bit_rows(cplx.n_hyperplanes, (cplx.base_vertex,))[0].astype(np.intp)
        cube, h = np.nonzero(cplx.cube_arrays(top).cutting)
        i = np.arange(len(h)) - top * cube
        # the far-side facet (a + h, C - h) when b_h = 0, else (a, C - h)
        facet = facets[cube, i + top * (1 - base[h])]
        sign = 1 - 2 * ((i + base[h]) & 1)
        if raising:
            out = np.stack([cube, facet, h, sign], axis=1)[np.lexsort((h, facet))]
        else:
            out = np.stack([facet, cube, h, sign], axis=1)
        out = out.astype(np.int64)
        out.flags.writeable = False
        return out

    return cplx.cached(("terms", raising, q, cplx.base_vertex), build)


def term_product(a: np.ndarray, b: np.ndarray, n: int) -> tuple[np.ndarray, ...]:
    """The term pairs of A @ B, a's source being b's target: their entry
    keys ``target * n + source``, values and the two terms' labels.
    Tables list terms by ascending source, so each entry meets its terms
    in a dense product's order."""
    order = np.argsort(b[:, 0], kind="stable")
    targets = b[order, 0]
    start = np.searchsorted(targets, a[:, 1])
    count = np.searchsorted(targets, a[:, 1], "right") - start
    i = np.repeat(np.arange(len(a)), count)
    a, b = a[i], b[order[np.arange(len(i)) + np.repeat(start - np.cumsum(count) + count, count)]]
    return a[:, 0] * n + b[:, 1], a[:, 3] * b[:, 3], a[:, 2], b[:, 2]


def grouped_sum(*parts: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """The distinct integer keys and the sum of the terms that share each.

    Each part, a (keys, values) pair, is summed in term order on its own,
    and the parts are then added key by key: the order in which a dense
    ``A @ B + C @ D - E`` rounds.
    """
    uniq, inverse = np.unique(np.concatenate([k for k, _ in parts]), return_inverse=True)
    total = np.zeros(len(uniq))
    for part, (_, values) in zip(np.split(inverse, np.cumsum([len(k) for k, _ in parts])), parts):
        total += np.bincount(part, values, len(uniq))
    return uniq, total


def max_sum(*parts: tuple[np.ndarray, np.ndarray]) -> float:
    """The largest |sum| of ``grouped_sum``, 0.0 when there is no term."""
    total = grouped_sum(*parts)[1]
    return float(np.abs(total).max()) if total.size else 0.0


def norm2_bound_sums(n: int, keys: np.ndarray, sums: np.ndarray) -> float:
    """The upper bound sqrt(|R|_1 |R|_inf) on the spectral norm |R|_2 of
    the n x n matrix R whose entry ``keys // n, keys % n`` is ``sums``."""
    a = np.abs(sums)
    return math.sqrt(float(np.bincount(keys % n, a, n).max())
                     * float(np.bincount(keys // n, a, n).max()))


def _matrix(cplx: CubeComplex, q: int, raising: bool, weights: Weights) -> np.ndarray:
    """Dense d (raising) or delta on degree q: a scatter of ``term_table``,
    each sign times its weight."""
    rows_q = q + 1 if raising else q - 1
    terms = term_table(cplx, q, raising)
    values = terms[:, 3]
    if weights is not None:
        w = np.asarray(weight_vector(cplx, weights), dtype=np.float64)
        values = values * w[terms[:, 2]]
    out = np.zeros((len(cplx.cube_arrays(rows_q).keys), len(cplx.cube_arrays(q).keys)),
                   dtype=values.dtype)
    out[terms[:, 0], terms[:, 1]] = values
    return out


def d_matrix(cplx: CubeComplex, q: int, weights: Weights = None) -> np.ndarray:
    """Matrix of the weighted differential from degree q to q+1.

    Columns follow the canonical cube order of degree q, rows of degree q+1.
    Integer dtype for unit weights.
    """
    return _matrix(cplx, q, True, weights)


def laplacian_diagonal(cplx: CubeComplex, q: int, weights: Weights = None) -> np.ndarray:
    """The diagonal that d delta + delta d must have on degree q: per cube,
    q_w + p_w, where q_w sums the squared weights of the hyperplanes
    cutting it and p_w those of its raising terms in ``term_table``, each
    in ascending h (integer q + p for unit weights)."""
    w = np.asarray(weight_vector(cplx, weights), dtype=np.int64 if weights is None else None)
    w2 = w * w
    cutting = cplx.cube_arrays(q).cutting.astype(w2.dtype)
    raised = np.zeros_like(cutting)
    terms = term_table(cplx, q, True)
    raised[terms[:, 1], terms[:, 2]] = 1
    q_w = p_w = np.zeros(len(cutting), dtype=w2.dtype)
    for h in range(cplx.n_hyperplanes):
        q_w = q_w + cutting[:, h] * w2[h]
        p_w = p_w + raised[:, h] * w2[h]
    return q_w + p_w


def numerical_rank(matrix: np.ndarray, rtol: float = 1e-8) -> int:
    """Rank by singular values above rtol times the largest."""
    if matrix.size == 0:
        return 0
    s = np.linalg.svd(np.asarray(matrix, dtype=np.float64), compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > rtol * s[0]))


def cohomology_ranks(cplx: CubeComplex, weights: Weights = None) -> tuple[int, ...]:
    """Cohomology dimension per degree of the weighted complex."""
    dim = cplx.dimension
    ranks = [numerical_rank(d_matrix(cplx, q, weights)) for q in range(-1, dim + 1)]
    return tuple(
        len(cplx.cube_arrays(q).keys) - ranks[q + 1] - ranks[q]
        for q in range(dim + 1))

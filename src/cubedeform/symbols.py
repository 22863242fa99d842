"""Oriented symbols: cube pairs up to parallelism, and their complex.

A symbol [h | k | R] records a cube pair by the complementary hyperplanes
h (an unordered set), the cutting hyperplanes k of the inner face (an
ordered list), and a vertex R presenting the face's orientation.  Two raw
symbols name the same oriented symbol when the h sets agree, the k lists
agree up to a permutation, and the permutation parity matches the parity
of the number of listed hyperplanes separating the two vertices.  For
q = 0 the list is empty and an explicit vertex sign stands in its place.

The canonical representative fixes k ascending and R as the smallest
vertex adjacent to every listed hyperplane; every raw form folds onto it
with a sign.  In that gauge the differential (which trades one h for the
front of k, moving R across it) and its adjoint (which trades signed k
entries back) have integer matrices, the Laplacian is the scalar p + q on
each type block, and scaled versions of the adjoint give an exact algebraic
homotopy from the identity to the projection onto the single type-(0,0)
line.  Nothing here depends on the base vertex of the complex.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .core import Cube, CubeComplex
from .differential import OrientedCube, _sort_parity, numerical_rank
from .parallelism import class_of, enumerate_classes

__all__ = [
    "CubePair",
    "PSSymbol",
    "canonical_symbol_vertex",
    "ps_basis",
    "ps_cohomology_ranks",
    "ps_d_matrix",
    "ps_d_symbol",
    "ps_delta_matrix",
    "ps_delta_symbol",
    "ps_dimension",
    "ps_laplacian",
    "ps_term_table",
    "ps_type_of_index",
    "symbol_from_raw",
    "symbol_inner",
    "symbol_key",
    "symbol_of_pair",
]


class CubePair(NamedTuple):
    """A cube and one of its faces."""

    c: Cube
    d: Cube

    @property
    def complementary(self) -> tuple[int, ...]:
        return tuple(h for h in self.c.cutting if h not in self.d.cutting)


class PSSymbol(NamedTuple):
    """Canonical oriented symbol.

    h_set and k_list are ascending; r_canonical is the smallest vertex
    adjacent to all of them; sign carries everything the raw presentation
    contributed.
    """

    h_set: tuple[int, ...]
    k_list: tuple[int, ...]
    r_canonical: int
    sign: int

    @property
    def p(self) -> int:
        return len(self.h_set)

    @property
    def q(self) -> int:
        return len(self.k_list)

    @property
    def key(self) -> tuple:
        return (self.h_set, self.k_list)

    def reversed(self) -> "PSSymbol":
        return PSSymbol(self.h_set, self.k_list, self.r_canonical, -self.sign)


def cube_pair(cplx: CubeComplex, c: Cube, d: Cube) -> CubePair:
    """Validated cube pair; ValueError unless ``d`` is a face of ``c``."""
    if not set(d.cutting) <= set(c.cutting):
        raise ValueError("face cutting set %s not contained in %s"
                         % (list(d.cutting), list(c.cutting)))
    spare = cplx.mask_of(h for h in c.cutting if h not in d.cutting)
    if (c.anchor ^ d.anchor) & ~spare:
        raise ValueError("cube %r does not contain %r as a face" % (c, d))
    return CubePair(c, d)


def canonical_symbol_vertex(cplx: CubeComplex, hyperplanes: Iterable[int]) -> int:
    """Smallest vertex adjacent to every one of the given hyperplanes.

    For a realized pairwise-crossing set this is the smallest anchor in
    its parallelism class, every vertex of which spans the full cube.
    """
    key = tuple(sorted(hyperplanes))
    cache = cplx._shared.setdefault("symbol_vertex", {})
    got = cache.get(key)
    if got is None:
        got = min(member.anchor for member in class_of(cplx, key).members)
        cache[key] = got
    return got


def symbol_from_raw(
    cplx: CubeComplex,
    h_set: Iterable[int],
    k_list: Sequence[int] = (),
    r: int = 0,
    sign: int = 1,
) -> PSSymbol:
    """Fold a raw symbol presentation onto the canonical representative.

    ``sign`` is the vertex orientation sign when ``k_list`` is empty, and
    an overall prefactor otherwise.  Raises ValueError when the data is
    not a symbol: repeated hyperplanes, a non-crossing pair, or a vertex
    not adjacent to one of them.
    """
    h = tuple(sorted(h_set))
    k, perm_sign = _sort_parity(tuple(k_list))
    listed = h + k
    if len(set(listed)) != len(listed):
        raise ValueError("repeated hyperplane in symbol %s | %s"
                         % (list(h), list(k_list)))
    cross = cplx.crossing_matrix()
    for i, a in enumerate(listed):
        for b in listed[i + 1:]:
            if not cross[a, b]:
                raise ValueError(
                    "hyperplanes %d and %d do not cross" % (a, b))
    for t in listed:
        if not cplx.adjacent_vertex(r, t):
            raise ValueError(
                "vertex %s is not adjacent to hyperplane %d"
                % (cplx.vertex_bits(r), t))
    if not cplx.spans_cube(r, listed):
        raise AssertionError(
            "adjacent vertex %s fails to span the cube over %s"
            % (cplx.vertex_bits(r), list(listed)))
    r_can = canonical_symbol_vertex(cplx, listed)
    moved = ((r ^ r_can) & cplx.mask_of(listed)).bit_count()
    if moved & 1:
        sign = -sign
    return PSSymbol(h, k, r_can, sign * perm_sign)


def symbol_of_pair(cplx: CubeComplex, pair: CubePair, orientation: OrientedCube) -> PSSymbol:
    """The symbol of a cube pair carrying an orientation of its face."""
    if orientation.cube != pair.d:
        raise ValueError("orientation is not an orientation of the face")
    return symbol_from_raw(
        cplx, pair.complementary, pair.d.cutting, pair.d.anchor,
        orientation.sign)


def ps_basis(cplx: CubeComplex, q: int) -> tuple[PSSymbol, ...]:
    """Canonical degree-q symbols, type-p blocks contiguous and ascending."""
    if q < 0:
        return ()

    def build():
        syms = []
        for klass in enumerate_classes(cplx):
            t = klass.determining
            if len(t) < q:
                continue
            r = canonical_symbol_vertex(cplx, t)
            for k in combinations(t, q):
                h = tuple(x for x in t if x not in k)
                syms.append(PSSymbol(h, k, r, 1))
        return tuple(sorted(syms, key=lambda s: (len(s.h_set), s.h_set, s.k_list)))

    return cplx.cached(("ps_basis", q), build)


def ps_dimension(cplx: CubeComplex, q: int) -> int:
    return len(ps_basis(cplx, q))


def ps_index(cplx: CubeComplex, q: int) -> dict[tuple, int]:
    """Index of unsigned symbol keys into the degree-q basis."""
    return cplx.cached(("ps_index", q),
                       lambda: {sym.key: i for i, sym in enumerate(ps_basis(cplx, q))})


def ps_type_of_index(cplx: CubeComplex, q: int) -> np.ndarray:
    """Type p of each basis position, as an integer vector."""
    return np.array([sym.p for sym in ps_basis(cplx, q)], dtype=np.int64)


def ps_d_symbol(cplx: CubeComplex, sym: PSSymbol) -> dict[tuple, int]:
    """Differential of one symbol, as unsigned-key -> coefficient."""
    out: dict[tuple, int] = {}
    for h in sym.h_set:
        rest = tuple(x for x in sym.h_set if x != h)
        term = symbol_from_raw(
            cplx, rest, (h, *sym.k_list), sym.r_canonical ^ cplx.mask(h),
            sym.sign)
        out[term.key] = out.get(term.key, 0) + term.sign
        if not out[term.key]:
            del out[term.key]
    return out


def ps_delta_symbol(cplx: CubeComplex, sym: PSSymbol) -> dict[tuple, int]:
    """Adjoint differential of one symbol, unsigned-key -> coefficient."""
    out: dict[tuple, int] = {}
    for j, k in enumerate(sym.k_list):
        rest = tuple(x for x in sym.k_list if x != k)
        term = symbol_from_raw(
            cplx, sym.h_set + (k,), rest, sym.r_canonical, sym.sign)
        coeff = term.sign if j & 1 else -term.sign  # (-1)^j, j counted from 1
        out[term.key] = out.get(term.key, 0) + coeff
        if not out[term.key]:
            del out[term.key]
    return out


def ps_term_table(cplx: CubeComplex, q: int, raising: bool = True) -> np.ndarray:
    """The cached terms of the symbol d (raising) or delta on degree q.

    The layout of ``differential.term_table`` with the source's p + q as
    the label, which both operators keep.  Read-only, by ascending source.
    """
    rows_q = q + 1 if raising else q - 1

    def build():
        rows = ps_index(cplx, rows_q)
        image_fn = ps_d_symbol if raising else ps_delta_symbol
        out = np.array(
            [(rows[k], j, sym.p + q, coeff)
             for j, sym in enumerate(ps_basis(cplx, q))
             for k, coeff in image_fn(cplx, sym).items()],
            dtype=np.int64).reshape(-1, 4)
        out.flags.writeable = False
        return out

    return cplx.cached(("ps_terms", raising, q), build)


def _symbol_matrix(cplx: CubeComplex, q: int, raising: bool) -> np.ndarray:
    """Dense symbol d (raising) or delta on degree q: one scatter of
    ``ps_term_table``."""
    rows_q = q + 1 if raising else q - 1
    terms = ps_term_table(cplx, q, raising)
    out = np.zeros((ps_dimension(cplx, rows_q), ps_dimension(cplx, q)), dtype=np.int64)
    out[terms[:, 0], terms[:, 1]] = terms[:, 3]
    return out


def ps_d_matrix(cplx: CubeComplex, q: int) -> np.ndarray:
    """Integer matrix of the symbol differential from degree q to q+1."""
    return _symbol_matrix(cplx, q, True)


def ps_delta_matrix(cplx: CubeComplex, q: int) -> np.ndarray:
    """Integer matrix of the adjoint from degree q to q-1, built from its
    own formula rather than by transposition."""
    return _symbol_matrix(cplx, q, False)


def ps_laplacian(cplx: CubeComplex, q: int) -> np.ndarray:
    """Matrix of d delta + delta d on degree-q symbols."""
    down = ps_delta_matrix(cplx, q + 1) @ ps_d_matrix(cplx, q)
    up = ps_d_matrix(cplx, q - 1) @ ps_delta_matrix(cplx, q)
    return down + up


def ps_cohomology_ranks(cplx: CubeComplex) -> tuple[int, ...]:
    """Cohomology dimension of the symbol complex per degree."""
    dim = cplx.dimension
    ranks = [numerical_rank(ps_d_matrix(cplx, q)) for q in range(-1, dim + 1)]
    return tuple(
        ps_dimension(cplx, q) - ranks[q + 1] - ranks[q]
        for q in range(dim + 1))


def symbol_inner(s1: PSSymbol, s2: PSSymbol) -> int:
    """Inner product of canonical signed symbols: 0, 1, or -1."""
    if s1.key != s2.key:
        return 0
    return s1.sign * s2.sign


def symbol_key(sym: PSSymbol, cplx: CubeComplex) -> str:
    """Stable text key, e.g. ``[h0,h1|h2|r=0110]``; ``+`` marks an empty list."""
    h_part = ",".join("h%d" % h for h in sym.h_set) if sym.h_set else "+"
    k_part = ",".join("h%d" % k for k in sym.k_list) if sym.k_list else "+"
    return "[%s|%s|r=%s]" % (h_part, k_part, cplx.vertex_bits(sym.r_canonical))

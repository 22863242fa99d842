"""Oriented symbols: cube pairs up to parallelism, and their complex.

A symbol [h | k | R] records a cube pair by the complementary hyperplanes
h (an unordered set), the cutting hyperplanes k of the inner face (an
ordered list), and a vertex R presenting the face's orientation.  Two raw
symbols name the same oriented symbol when the h sets agree, the k lists
agree up to a permutation, and the permutation parity matches the parity
of the number of listed hyperplanes separating the two vertices.  For
q = 0 the list is empty and an explicit vertex sign stands in its place.

The canonical representative fixes k ascending and R as the smallest
vertex adjacent to every listed hyperplane, which is the smallest anchor
of the parallelism class they determine: the anchor of that class's first
cube in ``class_rows``.  Every raw form folds onto it with a sign.  In
that gauge the differential (which trades one h for the front of k,
moving R across it) and its adjoint (which trades signed k entries back)
have integer matrices, the Laplacian is the scalar p + q on each type
block, and scaled versions of the adjoint give an exact algebraic
homotopy from the identity to the projection onto the single type-(0,0)
line.  Nothing here depends on the base vertex of the complex.

On each parallelism class with determining set T the complex is the
exterior (Koszul) complex of T, so every term has a closed form.  The
term tables of both operators, ``ps_term_table``, come from each
degree's ``symbol_arrays`` (every split of every T into h and k, as bit
rows in basis order) by bit arithmetic, every term at once: d moves each
x of h to k and delta each x of k to h, both with coefficient
-(-1)^#{y in k, y < x}.  Only ``ps_cohomology_ranks``, the SVD fallback
that runs when an identity fails, scatters a dense d.  The canonical
vertices of a degree (``symbol_vertices``) are one class lookup of all
its rows, and ``basis_keys`` writes every ``symbol_key`` of a degree from
the rows.  ``select_symbols`` goes the other way for a few keys: it reads
their rows from the keys, writes them back to check the bytes, and looks
up only their classes, never the rest of the basis.
"""

from __future__ import annotations

import re
from itertools import combinations
from math import comb
from typing import Iterable, NamedTuple

import numpy as np

from .core import Cube, CubeComplex, column_bits, row_ints, row_keys, row_positions
from .differential import numerical_rank
from .parallelism import class_anchors, class_lookup, class_rows

__all__ = [
    "CubePair",
    "PSSymbol",
    "SymbolArrays",
    "basis_keys",
    "canonical_symbol_vertex",
    "ps_basis",
    "ps_cohomology_ranks",
    "ps_d_matrix",
    "ps_dimension",
    "ps_term_table",
    "ps_type_of_index",
    "select_symbols",
    "symbol_arrays",
    "symbol_key",
    "symbol_vertices",
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


class SymbolArrays(NamedTuple):
    """The degree-q symbols in basis order: type p, and 0/1 rows of the h
    set and the k list, one uint8 column per hyperplane, with ascending
    ``row_keys`` of p's eight bits and the complements of the two rows
    (ascending tuples of one size order as their masks descend)."""

    p: np.ndarray
    h: np.ndarray
    k: np.ndarray
    keys: np.ndarray


def _symbol_keys(h: np.ndarray, k: np.ndarray) -> np.ndarray:
    # p = |h| <= dimension < 256: a complex of dimension 256 has 2^256 vertices
    p = h.sum(axis=1, dtype=np.uint8)
    return row_keys(np.unpackbits(p[:, None], axis=1), h ^ 1, k ^ 1)


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
    its parallelism class, every vertex of which spans the full cube;
    KeyError when no class has the set.
    """
    key = tuple(sorted(hyperplanes))
    cache = cplx._shared.setdefault("symbol_vertex", {})
    got = cache.get(key)
    if got is None:
        sets = column_bits(np.array([key], dtype=np.intp).reshape(1, len(key)),
                           cplx.n_hyperplanes)
        if sets.sum() != len(key):
            raise KeyError(key)
        got = cache[key] = row_ints(class_anchors(cplx, sets))[0]
    return got


def symbol_vertices(cplx: CubeComplex, q: int) -> np.ndarray:
    """The cached canonical vertex of each degree-q symbol, as 0/1 rows in
    basis order: one ``class_anchors`` lookup of the rows h + k."""
    def build():
        rows = symbol_arrays(cplx, q)
        return class_anchors(cplx, rows.h | rows.k)

    return cplx.cached(("symbol_vertices", q), build)


def _lists(rows: np.ndarray, labels: np.ndarray) -> list[list]:
    """The ``labels`` of the columns of each 0/1 row's ones, in column order."""
    flat = labels[np.nonzero(rows)[1]].tolist()
    ends = np.cumsum(rows.sum(axis=1, dtype=np.int64)).tolist()
    return [flat[start:end] for start, end in zip([0] + ends, ends)]


def ps_basis(cplx: CubeComplex, q: int) -> tuple[PSSymbol, ...]:
    """Canonical degree-q symbols, type-p blocks contiguous and ascending:
    a view of ``symbol_arrays(q)`` and ``symbol_vertices(q)``, made on
    first use and cached."""
    def build():
        rows, labels = symbol_arrays(cplx, q), np.arange(cplx.n_hyperplanes)
        r = row_ints(symbol_vertices(cplx, q))
        return tuple(map(PSSymbol, map(tuple, _lists(rows.h, labels)),
                         map(tuple, _lists(rows.k, labels)), r, [1] * len(r)))

    return cplx.cached(("ps_basis", q), build)


def _write_keys(h: np.ndarray, k: np.ndarray, r: np.ndarray) -> list[str]:
    """``symbol_key`` of each symbol given as 0/1 rows of its h set, k list
    and vertex: the vertex strings are the rows' ``'0'``/``'1'`` bytes."""
    n = h.shape[1]
    labels = np.array(["h%d" % x for x in range(n)], dtype=object)
    text = (r + ord("0")).tobytes().decode("ascii")
    return ["[%s|%s|r=%s]" % (",".join(hs) or "+", ",".join(ks) or "+", text[i * n:i * n + n])
            for i, (hs, ks) in enumerate(zip(_lists(h, labels), _lists(k, labels)))]


def basis_keys(cplx: CubeComplex, q: int) -> list[str]:
    """``symbol_key`` of every degree-q symbol in basis order, written from
    the rows of ``symbol_arrays(q)`` and ``symbol_vertices(q)``."""
    rows = symbol_arrays(cplx, q)
    return _write_keys(rows.h, rows.k, symbol_vertices(cplx, q))


# a symbol key's shape; compiled on first use, so no other command pays for it
_KEY = r"\[(\+|h[0-9]{1,9}(?:,h[0-9]{1,9})*)\|(\+|h[0-9]{1,9}(?:,h[0-9]{1,9})*)\|r=([01]*)\]"


def select_symbols(cplx: CubeComplex, keys: Iterable[str]
                   ) -> tuple[list[str], np.ndarray, np.ndarray, np.ndarray]:
    """The distinct symbols named by ``keys``, as their keys and their 0/1
    rows of h, k and vertex in basis order (degree |k|, then
    ``_symbol_keys``), read from the keys alone; KeyError names the first
    key that names no symbol.

    A key names a symbol when ``_write_keys`` writes its parsed rows back
    to the same bytes (which rules out unsorted or repeated hyperplanes,
    other spellings of a number and vertices of the wrong width), h and k
    are disjoint, and the class of h + k exists with the vertex as its
    ``class_lookup`` anchor.
    """
    keys, n = list(dict.fromkeys(keys)), cplx.n_hyperplanes
    h, k, r = np.zeros((3, len(keys), n), dtype=np.uint8)
    ok = np.zeros(len(keys), dtype=bool)
    for i, key in enumerate(keys):
        m = re.fullmatch(_KEY, key)
        if m is None or len(m[3]) != n:
            continue
        hs, ks = ([int(x) for x in re.findall("[0-9]+", part)] for part in m.groups()[:2])
        if max(hs + ks, default=-1) < n:
            h[i, hs] = k[i, ks] = 1
            r[i] = np.frombuffer(m[3].encode("ascii"), dtype=np.uint8) - ord("0")
            ok[i] = True
    ok &= np.array([a == b for a, b in zip(_write_keys(h, k, r), keys)], dtype=bool)
    anchor, found = class_lookup(cplx, h | k)
    ok &= found & ~(h & k).any(axis=1) & (anchor == r).all(axis=1)
    if not ok.all():
        raise KeyError(keys[np.argmin(ok)])
    order = np.argsort(_symbol_keys(h, k), kind="stable")
    order = order[np.argsort(k.sum(axis=1)[order], kind="stable")]
    return [keys[i] for i in order.tolist()], h[order], k[order], r[order]


def ps_dimension(cplx: CubeComplex, q: int) -> int:
    return len(symbol_arrays(cplx, q).keys)


def symbol_arrays(cplx: CubeComplex, q: int) -> SymbolArrays:
    """The cached ``SymbolArrays`` of degree q: for each determining set T
    of t >= q hyperplanes, every q-subset k of T with h = T minus k."""
    def build():
        n = cplx.n_hyperplanes
        empty = np.zeros((0, n), dtype=np.uint8)
        h, k = [empty], [empty]
        for t in range(q, cplx.dimension + 1) if q >= 0 else ():
            sets = class_rows(cplx, t).sets
            members = np.nonzero(sets)[1].reshape(len(sets), t)
            combos = np.array(list(combinations(range(t), q)), dtype=np.intp)
            combos = combos.reshape(comb(t, q), q)
            # one row per set and q-subset of it, set by set
            part = column_bits(members[:, combos].reshape(len(sets) * len(combos), q), n)
            h.append(np.repeat(sets, len(combos), axis=0) ^ part)
            k.append(part)
        h, k = np.concatenate(h), np.concatenate(k)
        keys = _symbol_keys(h, k)
        order = np.argsort(keys)
        h, k = h[order], k[order]
        return SymbolArrays(h.sum(axis=1, dtype=np.int64), h, k, keys[order])

    return cplx.cached(("symbol_arrays", q), build)


def ps_type_of_index(cplx: CubeComplex, q: int) -> np.ndarray:
    """Type p of each basis position, as an integer vector."""
    return symbol_arrays(cplx, q).p.copy()


def ps_term_table(cplx: CubeComplex, q: int, raising: bool = True) -> np.ndarray:
    """The cached terms of the symbol d (raising) or delta on degree q.

    The layout of ``differential.term_table`` with the source's p + q as
    the label, which both operators keep.  Read-only, by ascending source,
    then moved hyperplane.  d moves each x of h into k, delta each x of k
    into h, with coefficient -(-1)^#{y in k, y < x} either way; targets
    are found in the neighbouring degree's ``symbol_arrays``, and one
    that is missing raises ValueError.
    """
    def build():
        src = symbol_arrays(cplx, q)
        j, x = np.nonzero(src.h if raising else src.k)
        i = np.arange(len(j))
        h, k = src.h[j], src.k[j]
        h[i, x], k[i, x] = (0, 1) if raising else (1, 0)
        rows, found = row_positions(symbol_arrays(cplx, q + 1 if raising else q - 1).keys,
                                    _symbol_keys(h, k))
        if not found.all():
            miss = np.flatnonzero(~found)[0]
            raise ValueError("the symbol moved across %d from %s is not in the basis"
                             % (x[miss], ps_basis(cplx, q)[j[miss]][:2]))
        before = np.cumsum(src.k, axis=1, dtype=np.int64) - src.k
        out = np.stack([rows, j, src.p[j] + q, 2 * (before[j, x] & 1) - 1],
                       axis=1).astype(np.int64)
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


def ps_cohomology_ranks(cplx: CubeComplex) -> tuple[int, ...]:
    """Cohomology dimension of the symbol complex per degree."""
    dim = cplx.dimension
    ranks = [numerical_rank(ps_d_matrix(cplx, q)) for q in range(-1, dim + 1)]
    return tuple(
        ps_dimension(cplx, q) - ranks[q + 1] - ranks[q]
        for q in range(dim + 1))


def symbol_key(sym: PSSymbol, cplx: CubeComplex) -> str:
    """Stable text key, e.g. ``[h0,h1|h2|r=0110]``; ``+`` marks an empty list."""
    h_part = ",".join("h%d" % h for h in sym.h_set) if sym.h_set else "+"
    k_part = ",".join("h%d" % k for k in sym.k_list) if sym.k_list else "+"
    return "[%s|%s|r=%s]" % (h_part, k_part, cplx.vertex_bits(sym.r_canonical))

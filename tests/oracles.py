"""Second implementations that no command runs, kept as test oracles.

The tuple view of a complex (``Cube`` lookups, rebasing, cube predicates)
is plain functions of the complex; the cochain calculus folds one
presentation at a time through ``canonicalize``; the symbol calculus
folds raw symbols through ``symbol_from_raw``; and the operators of the
deformation and the spectral harness are dense matrices scattered from
the same blocks and term tables the commands read.  The commands check
the paper's identities without any of it, and the tests compare the two.
``tests/test_reach.py`` keeps code that no command reaches out of
``src/cubedeform``: it belongs here.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import Iterable, Iterator, NamedTuple, Sequence

import mpmath as mp
import numpy as np

from cubedeform.core import Cube, CubeComplex, InvalidComplex
from cubedeform.deformation import (
    INF,
    _check_t,
    _geodesics,
    _gram_powers,
    _groups,
    _is_exact,
    _moves_blocks,
    _resolve_ab,
    _root_paths,
    _rotate,
    _separations,
    basic_cochain,
    class_blocks,
    deformation_weights,
    pairing_value,
    w_hat_blocks,
)
from cubedeform.differential import (
    OrientedCube,
    Weights,
    _matrix,
    d_matrix,
    term_table,
    weight_vector,
)
from cubedeform.fredholm import graded_offsets
from cubedeform.symbols import (
    CubePair,
    PSSymbol,
    _symbol_matrix,
    canonical_symbol_vertex,
    ps_d_matrix,
)

# -- the tuple view of a complex -----------------------------------------------------


def rebased(cplx: CubeComplex, base_vertex: int) -> CubeComplex:
    """Same complex with a different base vertex; caches are shared, and
    every base-dependent cache entry is keyed by the base vertex."""
    base_vertex = int(base_vertex)
    if base_vertex == cplx.base_vertex:
        return cplx
    if not cplx.contains_vertex(base_vertex):
        raise InvalidComplex(
            "base vertex %s not in vertex set" % cplx.vertex_bits(base_vertex))
    other = object.__new__(CubeComplex)
    for slot in CubeComplex.__slots__:
        setattr(other, slot, getattr(cplx, slot))
    other.base_vertex = base_vertex
    return other


def reversed_sign(signed):
    """An ``OrientedCube`` or a ``PSSymbol`` with the opposite sign."""
    return signed._replace(sign=-signed.sign)


def distance(cplx: CubeComplex, u: int, v: int) -> int:
    """Edge-path distance; equals Hamming distance on valid complexes."""
    return (u ^ v).bit_count()


def hyperplane_of_mask(cplx: CubeComplex, m: int) -> int:
    """The hyperplane of a single-bit mask: ``cplx.mask`` inverted."""
    return cplx.n_hyperplanes - m.bit_length()


def adjacent_vertex(cplx: CubeComplex, v: int, h: int) -> bool:
    """Is some edge at ``v`` cut by hyperplane ``h``?"""
    return cplx.contains_vertex(v ^ cplx.mask(h))


def vertices_adjacent_to(cplx: CubeComplex, h: int) -> tuple[int, ...]:
    """The vertices at an edge cut by hyperplane ``h``, ascending."""
    return tuple(v for v in cplx.vertices if adjacent_vertex(cplx, v, h))


def dist_hyperplane_to_base(cplx: CubeComplex, h: int) -> int:
    """min over vertices adjacent to ``h`` of the distance to the base."""
    return min(distance(cplx, v, cplx.base_vertex) for v in vertices_adjacent_to(cplx, h))


def cube_index(cplx: CubeComplex, q: int) -> dict[Cube, int]:
    """Position of each q-cube in ``cplx.cubes(q)``, cached."""
    got = cplx._shared.get(("cube_index", q))
    return got if got is not None else cplx.cached(
        ("cube_index", q), lambda: {c: i for i, c in enumerate(cplx.cubes(q))})


def is_cube(cplx: CubeComplex, anchor: int, cutting: tuple[int, ...]) -> bool:
    return Cube(anchor, cutting) in cube_index(cplx, len(cutting))


def spans_cube(cplx: CubeComplex, vertex: int, hyperplanes: Iterable[int]) -> bool:
    """Do the flips of ``vertex`` across all subsets of ``hyperplanes`` exist?"""
    hs = tuple(sorted(set(hyperplanes)))
    anchor = vertex & ~cplx.mask_of(hs)
    if not cplx.contains_vertex(anchor):
        return False
    return is_cube(cplx, anchor, hs) if hs else True


def crossing(cplx: CubeComplex, h: int, k: int) -> bool:
    """Do hyperplanes ``h`` and ``k`` cut a common square?"""
    return bool(cplx.crossing_matrix()[h, k])


def adjacent_cube(cplx: CubeComplex, cube: Cube, h: int) -> bool:
    """Is ``cube`` a face of a (q+1)-cube cut by hyperplane ``h``?"""
    if h in cube.cutting:
        return False
    anchor = cube.anchor & ~cplx.mask(h)
    return is_cube(cplx, anchor, tuple(sorted(cube.cutting + (h,))))


def cube_distance_to_vertex(cplx: CubeComplex, cube: Cube, v: int) -> int:
    """Distance from ``v`` to the nearest vertex of ``cube``."""
    return ((cube.anchor ^ v) & ~cplx.mask_of(cube.cutting)).bit_count()


def nearest_cube_vertex(cplx: CubeComplex, cube: Cube, v: int) -> int:
    """The vertex of ``cube`` nearest to ``v`` (match ``v`` on cutting bits)."""
    cut = cplx.mask_of(cube.cutting)
    return (cube.anchor & ~cut) | (v & cut)


# -- the cochain calculus ------------------------------------------------------------
#
# A cochain is a sparse mapping from canonical ``Cube`` keys to coefficients.
# An arbitrary presentation (vertex P, ordered hyperplane list L) is folded
# into the canonical gauge by ``canonicalize``, picking up the sign
# (-1) ** Hamming(P, anchor) * sgn(permutation sorting L).

Cochain = dict


def _sort_parity(hyperplanes: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """Sorted tuple and the sign of the sorting permutation."""
    items = list(hyperplanes)
    sign = 1
    # insertion sort; lists here have at most a handful of entries
    for i in range(1, len(items)):
        j = i
        while j > 0 and items[j - 1] > items[j]:
            items[j - 1], items[j] = items[j], items[j - 1]
            sign = -sign
            j -= 1
    return tuple(items), sign


def canonicalize(
    cplx: CubeComplex,
    vertex: int,
    hyperplanes: Sequence[int] = (),
    sign: int = 1,
) -> OrientedCube:
    """Fold an arbitrary presentation into the canonical gauge.

    ``vertex`` is the presenting vertex, ``hyperplanes`` the ordered list of
    cutting hyperplanes (empty for a plain vertex, whose orientation is just
    ``sign``).  Raises ValueError if the data does not span a cube of the
    complex.
    """
    ordered, perm_sign = _sort_parity(hyperplanes)
    if len(set(ordered)) != len(ordered):
        raise ValueError("duplicate hyperplane in presentation")
    if not spans_cube(cplx, vertex, ordered):
        raise ValueError(
            "presentation (%s, %s) does not span a cube"
            % (cplx.vertex_bits(vertex), list(ordered)))
    anchor = vertex & ~cplx.mask_of(ordered)
    if (vertex ^ anchor).bit_count() & 1:
        sign = -sign
    return OrientedCube(Cube(anchor, ordered), sign * perm_sign)


def _wedge_term(cplx: CubeComplex, h: int, cube: Cube) -> OrientedCube | None:
    """wedge(h, +cube) as a single signed cube, or None when zero."""
    if h in cube.cutting or not adjacent_cube(cplx, cube, h):
        return None
    m = cplx.mask(h)
    if (cube.anchor ^ cplx.base_vertex) & m == 0:
        return None  # same side of h as the base vertex
    # raised cube presented by the vertex separated from the anchor by h
    # alone, listing h first
    return canonicalize(cplx, cube.anchor ^ m, (h, *cube.cutting))


def _hook_term(cplx: CubeComplex, h: int, cube: Cube) -> OrientedCube | None:
    """hook(h, +cube) as a single signed face, or None when zero."""
    if h not in cube.cutting:
        return None
    idx = cube.cutting.index(h)
    sign = -1 if idx & 1 else 1  # move h to the front of the listing
    m = cplx.mask(h)
    p = cube.anchor
    if cplx.base_vertex & m:
        # re-present at the vertex on the base side of h
        p ^= m
        sign = -sign
    rest = tuple(k for k in cube.cutting if k != h)
    # the face on the far side of h, at the vertex separated from p by h
    return canonicalize(cplx, p ^ m, rest, sign)


def _as_cochain(f) -> Cochain:
    if isinstance(f, OrientedCube):
        return {f.cube: f.sign}
    if isinstance(f, Cube):
        return {f: 1}
    return f


def cochain_degree(f: Cochain) -> int | None:
    """Common dimension of the support, None for the zero cochain."""
    degrees = {len(c.cutting) for c in f}
    if len(degrees) > 1:
        raise ValueError("mixed-degree cochain: dimensions %s" % sorted(degrees))
    return degrees.pop() if degrees else None


def _add(out: Cochain, cube: Cube, coeff) -> None:
    acc = out.get(cube, 0) + coeff
    if acc:
        out[cube] = acc
    else:
        out.pop(cube, None)


def wedge(cplx: CubeComplex, h: int, f) -> Cochain:
    """Apply the raising operator of hyperplane ``h`` linearly to ``f``."""
    out: Cochain = {}
    for cube, coeff in _as_cochain(f).items():
        term = _wedge_term(cplx, h, cube)
        if term is not None:
            _add(out, term.cube, coeff * term.sign)
    return out


def hook(cplx: CubeComplex, h: int, f) -> Cochain:
    """Apply the lowering operator of hyperplane ``h`` linearly to ``f``."""
    out: Cochain = {}
    for cube, coeff in _as_cochain(f).items():
        term = _hook_term(cplx, h, cube)
        if term is not None:
            _add(out, term.cube, coeff * term.sign)
    return out


def d_cochain(cplx: CubeComplex, f, weights: Weights = None) -> Cochain:
    """Weighted differential: sum of w(H) * wedge(H, .) over hyperplanes."""
    f = _as_cochain(f)
    cochain_degree(f)
    w = weight_vector(cplx, weights)
    out: Cochain = {}
    for cube, coeff in f.items():
        for h in range(cplx.n_hyperplanes):
            term = _wedge_term(cplx, h, cube)
            if term is not None:
                _add(out, term.cube, coeff * term.sign * w[h])
    return out


def delta_cochain(cplx: CubeComplex, f, weights: Weights = None) -> Cochain:
    """Weighted codifferential: sum of w(H) * hook(H, .) over hyperplanes."""
    f = _as_cochain(f)
    cochain_degree(f)
    w = weight_vector(cplx, weights)
    out: Cochain = {}
    for cube, coeff in f.items():
        for h in cube.cutting:
            term = _hook_term(cplx, h, cube)
            if term is not None:
                _add(out, term.cube, coeff * term.sign * w[h])
    return out


def delta_matrix(cplx: CubeComplex, q: int, weights: Weights = None) -> np.ndarray:
    """Matrix of the weighted codifferential from degree q to q-1.

    Assembled from hook terms directly, not by transposing ``d_matrix``;
    the transpose identity is a checkable theorem, not a definition.
    """
    return _matrix(cplx, q, False, weights)


def laplacian_matrix(cplx: CubeComplex, q: int, weights: Weights = None) -> np.ndarray:
    """Matrix of d delta + delta d on degree q, by honest matrix products."""
    down = delta_matrix(cplx, q + 1, weights) @ d_matrix(cplx, q, weights)
    up = d_matrix(cplx, q - 1, weights) @ delta_matrix(cplx, q, weights)
    return down + up


# -- the symbol calculus one raw symbol at a time --------------------------------------


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
        if not adjacent_vertex(cplx, r, t):
            raise ValueError(
                "vertex %s is not adjacent to hyperplane %d"
                % (cplx.vertex_bits(r), t))
    if not spans_cube(cplx, r, listed):
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


def ps_d_symbol(cplx: CubeComplex, sym: PSSymbol) -> dict[tuple, int]:
    """Differential of one symbol, as unsigned-key -> coefficient."""
    out: dict[tuple, int] = {}
    for h in sym.h_set:
        rest = tuple(x for x in sym.h_set if x != h)
        term = symbol_from_raw(
            cplx, rest, (h, *sym.k_list), sym.r_canonical ^ cplx.mask(h),
            sym.sign)
        key = term[:2]
        out[key] = out.get(key, 0) + term.sign
        if not out[key]:
            del out[key]
    return out


def ps_delta_matrix(cplx: CubeComplex, q: int) -> np.ndarray:
    """Integer matrix of the adjoint from degree q to q-1, built from its
    own formula rather than by transposition."""
    return _symbol_matrix(cplx, q, False)


def ps_laplacian(cplx: CubeComplex, q: int) -> np.ndarray:
    """Matrix of d delta + delta d on degree-q symbols."""
    down = ps_delta_matrix(cplx, q + 1) @ ps_d_matrix(cplx, q)
    up = ps_d_matrix(cplx, q - 1) @ ps_delta_matrix(cplx, q)
    return down + up


def symbol_inner(s1: PSSymbol, s2: PSSymbol) -> int:
    """Inner product of canonical signed symbols: 0, 1, or -1."""
    if s1[:2] != s2[:2]:
        return 0
    return s1.sign * s2.sign


# -- the deformation's dense operators and extended-precision pairings -----------------


def _labels(blocks) -> np.ndarray:
    """Per cube of the degree: its stack of ``blocks`` (``_groups`` or
    ``class_blocks``), its class there, its member position."""
    out = np.empty((3, sum(blks.cols.size for blks in blocks)), dtype=np.intp)
    for s, blks in enumerate(blocks):
        out[0, blks.cols] = s
        out[1, blks.cols] = np.arange(len(blks.cols))[:, None]
        out[2, blks.cols] = np.arange(blks.cols.shape[1])
    return out


def _step_coefficients_mp(t: float) -> tuple:
    """``step_coefficients`` in mpmath at the working precision."""
    _check_t(t)
    if t == INF:
        return mp.mpf(0), mp.mpf(1)
    tt = mp.mpf(t)
    return mp.e ** (-tt * tt / 2), mp.sqrt(1 - mp.e ** (-tt * tt))


def _scatter(out: np.ndarray, pieces) -> np.ndarray:
    """Write each block, or stack of blocks, onto its rows and columns."""
    for cols, block in pieces:
        out[cols[..., :, None], cols[..., None, :]] = block
    return out


def w_path_matrix(cplx: CubeComplex, target: Cube, source: Cube,
                  t: float | None = None, ab: tuple | None = None) -> np.ndarray:
    """Composite crossing move from ``source`` to ``target``.

    Follows the ``_geodesics`` path between the two members, the path of
    the breadth-first tree rooted at ``target``; the identity when they
    coincide.
    """
    if target.cutting != source.cutting:
        raise ValueError("cubes %r and %r are not parallel" % (target, source))
    q = len(target.cutting)
    groups, index = _groups(cplx, q), cube_index(cplx, q)
    (g, c, i), (_, _, j) = _labels(groups)[:, [index[target], index[source]]].T.tolist()
    keys = _geodesics(groups[g], [c], [i], [j])
    return _moves_blocks(groups[g], keys, _resolve_ab(t, ab), _is_exact(ab))[0]


def u_t_matrix(cplx: CubeComplex, q: int, t: float,
               class_bases: dict | None = None) -> np.ndarray:
    """Change of basis carrying degree-q cochains into the t-frame.

    Block per parallelism class; the column of a member is the composite
    crossing move from it to the class member nearest the base vertex,
    applied to the member itself.  ``class_bases`` optionally overrides
    that root cube per determining set.
    """
    n = len(cplx.cube_arrays(q).keys)
    return _scatter(np.zeros((n, n)), (
        (blks.cols, blks.frame[0]) for blks in class_blocks(cplx, q, (t,), class_bases)))


def u_t_apply(cplx: CubeComplex, cochain: dict, t: float | None = None,
              ab: tuple | None = None, class_bases: dict | None = None) -> dict:
    """Apply the t-frame change of basis to a sparse cochain.

    Scalars follow the inputs: with ``ab`` supplied the walk runs in that
    arithmetic, so extended-precision or exact coefficients pass through
    untouched.
    """
    a, b = _resolve_ab(t, ab)
    zero = a * 0
    out: dict[Cube, object] = {}
    for cube, coeff in cochain.items():
        q = len(cube.cutting)
        groups = _groups(cplx, q)
        g, c, i = _labels(groups)[:, cube_index(cplx, q)[cube]].tolist()
        m = groups[g].cols.shape[1]
        vec = np.full((1, m), zero, dtype=object)
        vec[0, i] = coeff + zero
        keys = _root_paths(cplx, q, class_bases)[g][None, c * m + i]
        _rotate(vec, *groups[g].moves, (a, b), keys)
        for col, value in zip(groups[g].cols[c].tolist(), vec[0]):
            if value:
                member = cplx.cubes(q)[col]
                acc = out.get(member, zero) + value
                if acc:
                    out[member] = acc
                else:
                    out.pop(member, None)
    return out


def gram_matrix(cplx: CubeComplex, q: int, t: float) -> np.ndarray:
    """Deformed Gram matrix on canonical degree-q cochains.

    Entry exp(-t^2 d / 2) between parallel members at separation d, zero
    across classes; the identity at t = infinity.
    """
    powers = _gram_powers(cplx, t)
    n = len(cplx.cube_arrays(q).keys)
    return _scatter(np.zeros((n, n)), (
        (group.cols, powers[_separations(group.bits, np.intp)]) for group in _groups(cplx, q)))


def w_hat_matrix(cplx: CubeComplex, q: int, target_vertex: int, source_vertex: int,
                 t: float | None = None, ab: tuple | None = None) -> np.ndarray:
    """Base-point-change operator on degree-q cochains.

    Block diagonal over parallelism classes; each block is the composite
    crossing move from the member nearest ``source_vertex`` to the member
    nearest ``target_vertex``.
    """
    n = len(cplx.cube_arrays(q).keys)
    out = np.identity(n, dtype=object if _is_exact(ab) else np.float64)
    return _scatter(out, w_hat_blocks(cplx, q, target_vertex, source_vertex, t, ab))


def basepoint_commutator_norm(cplx: CubeComplex, p_vertex: int, q_vertex: int,
                              t: float) -> float:
    """Largest 2-norm over degrees of the base-change commutator with d.

    Both differentials carry their own base's distance-graded weights;
    the two base vertices must be adjacent.
    """
    _check_t(t)
    if (p_vertex ^ q_vertex).bit_count() != 1:
        raise ValueError("base points must be adjacent vertices")
    at_p = rebased(cplx, p_vertex)
    at_q = rebased(cplx, q_vertex)
    w_p = deformation_weights(at_p, t)
    w_q = deformation_weights(at_q, t)
    worst = 0.0
    for q in range(cplx.dimension):
        d_p = d_matrix(at_p, q, w_p)
        d_q = d_matrix(at_q, q, w_q)
        hat_hi = w_hat_matrix(cplx, q + 1, q_vertex, p_vertex, t)
        hat_lo = w_hat_matrix(cplx, q, q_vertex, p_vertex, t)
        gap = hat_hi.dot(d_p) - d_q.dot(hat_lo)
        if gap.size:
            worst = max(worst, float(np.linalg.norm(gap, 2)))
    return worst


def basic_section_frame(cplx: CubeComplex, q: int) -> tuple:
    """Every degree-q cube pair with its canonical face orientation.

    The type-0 entries alone already span the degree-q cochains, so the
    family is a frame for every positive t.
    """
    entries = []
    for p in range(cplx.dimension - q + 1):
        for c in cplx.cubes(q + p):
            for d_cut in combinations(c.cutting, q):
                spare = [h for h in c.cutting if h not in d_cut]
                for bits in range(1 << p):
                    anchor = c.anchor
                    for i, h in enumerate(spare):
                        if bits >> i & 1:
                            anchor ^= cplx.mask(h)
                    d = Cube(anchor, d_cut)
                    entries.append((CubePair(c, d), OrientedCube(d, 1)))
    return tuple(entries)


def _pair_symbol(cplx: CubeComplex, pair: CubePair,
                 orientation: OrientedCube) -> PSSymbol:
    """``symbol_of_pair``, cached per complex."""
    cache = cplx._shared.setdefault("pair_symbol", {})
    key = (pair, orientation)
    got = cache.get(key)
    if got is None:
        got = cache[key] = symbol_of_pair(cplx, pair, orientation)
    return got


def pairing_limit(cplx: CubeComplex, pair1: CubePair, o1: OrientedCube,
                  pair2: CubePair, o2: OrientedCube) -> int:
    """The declared small-t limit: the inner product of the two symbols."""
    return symbol_inner(_pair_symbol(cplx, pair1, o1), _pair_symbol(cplx, pair2, o2))


def pairing_sweep(cplx: CubeComplex, pair1: CubePair, o1: OrientedCube,
                  pair2: CubePair, o2: OrientedCube,
                  t_grid: Iterable[float]) -> tuple[list[tuple[float, float]], int]:
    """Pairing values over a t grid, plus the declared limit value."""
    values = [
        (t, pairing_value(cplx, pair1, o1, pair2, o2, t))
        for t in t_grid
    ]
    return values, pairing_limit(cplx, pair1, o1, pair2, o2)


def d_t_pairing(cplx: CubeComplex, pair1: CubePair, o1: OrientedCube,
                pair2: CubePair, o2: OrientedCube, t: float,
                weighted: bool = False) -> float:
    """Pairing of d_t on one scaled basic section against another.

    Uses the frame identity <d_t f, g>_t = <d U f, U g>, so no inverse is
    ever formed and the whole pipeline runs in extended precision.
    """
    _check_t(t)
    power = len(pair1.complementary) + len(pair2.complementary)
    if t == INF:
        w = deformation_weights(cplx, t) if weighted else None
        f1 = d_cochain(cplx, basic_cochain(cplx, pair1, o1), w)
        f2 = basic_cochain(cplx, pair2, o2)
        total = sum(c * f2.get(cube, 0) for cube, c in f1.items())
        return float(total) if power == 0 else 0.0
    with mp.workdps(50):
        ab = _step_coefficients_mp(t)
        w = deformation_weights(cplx, mp.mpf(t)) if weighted else None
        uf1 = u_t_apply(cplx, basic_cochain(cplx, pair1, o1), ab=ab)
        duf1 = d_cochain(cplx, uf1, w)
        uf2 = u_t_apply(cplx, basic_cochain(cplx, pair2, o2), ab=ab)
        total = mp.mpf(0)
        for cube, c in duf1.items():
            other = uf2.get(cube)
            if other is not None:
                total += c * other
        return float(total * mp.mpf(t) ** (-power))


def d_t_pairing_limit(cplx: CubeComplex, pair1: CubePair, o1: OrientedCube,
                      pair2: CubePair, o2: OrientedCube) -> int:
    """The declared limit of ``d_t_pairing``: pair the symbol differential."""
    s1 = _pair_symbol(cplx, pair1, o1)
    s2 = _pair_symbol(cplx, pair2, o2)
    image = ps_d_symbol(cplx, s1)
    return image.get(s2[:2], 0) * s2.sign


# -- conjugated differentials by class-pair blocks and LU solves ------------------------
#
# The oracle of ``frame_terms``: U^-1 B U formed on the class pairs that B
# links, from gathered frame rows and one batched solve per stack pair.


class PairBlocks(NamedTuple):
    """A conjugated operator on the class pairs of one pair of stacks.

    ``stacks`` names a target and a source stack of ``class_blocks``;
    ``hi`` and ``lo`` (P,) the classes, in those stacks, of each pair the
    operator links, ascending; ``block`` (T, P, m_hi, m_lo) the blocks at
    each t of the frames.
    """

    stacks: tuple[int, int]
    hi: np.ndarray
    lo: np.ndarray
    block: np.ndarray


def _class_pairs(terms: np.ndarray, hi, lo) -> tuple:
    """The class pairs that a ``term_table``'s terms link, between the
    stacks ``hi`` and ``lo`` (``_groups`` or ``class_blocks``): each
    distinct key (stack pair, then class pair, 21 bits each), ascending,
    each term's key index, and the terms' member positions in both."""
    (hs, hc, row), (ls, lc, col) = _labels(hi)[:, terms[:, 0]], _labels(lo)[:, terms[:, 1]]
    pairs, pair = np.unique((((hs * len(lo) + ls) << 21 | hc) << 21) | lc, return_inverse=True)
    return pairs, pair, row, lc, col


def segment_add(out: np.ndarray, at: np.ndarray, parts: np.ndarray) -> None:
    """out[:, at[i]] += parts[:, i] for every i, in the order ``np.add.at``
    adds them, from one stable sort: the parts of each slot are a segment,
    and the k-th part of every segment is added at once."""
    order = np.argsort(at, kind="stable")
    at = at[order]
    head = np.ones(len(at), dtype=bool)
    np.not_equal(at[1:], at[:-1], out=head[1:])
    if head.all():  # one part per slot
        out[:, at] += parts[:, order]
        return
    place = np.arange(len(at))
    rank = place - np.maximum.accumulate(np.where(head, place, 0))
    for k in range(int(rank.max()) + 1):
        take = rank == k
        out[:, at[take]] += parts[:, order[take]]


def pair_blocks(terms: np.ndarray, hi: tuple[ClassBlocks, ...],
                lo: tuple[ClassBlocks, ...], ts: tuple[float, ...]) -> Iterator[PairBlocks]:
    """U_hi^(-1) B U_lo, B the operator of a ``term_table``, by class pair,
    at each t of ``ts``, the t's of the frames ``hi`` and ``lo``.

    Both frames are block diagonal by class, so the blocks on the class
    pairs that B links are all of it; they come stack pair by stack pair,
    by target stack.  Row a of B_IJ U_J is the signed row b of U_J for B's
    term (a, b), gathered for every t at once, not multiplied, and the
    terms that meet in one entry are summed by ``segment_add``.  U_I^(-1)
    is one batched solve per stack pair against the blocks of every finite
    t, not an inverse, which near the t floor is too inaccurate.  At
    t = infinity the block is B.
    """
    pairs, pair, row, lc, col = _class_pairs(terms, hi, lo)
    order = np.argsort(pair, kind="stable")
    pair, row, lc, col, sign = pair[order], row[order], lc[order], col[order], terms[order, 3]
    stacks, first = np.unique(pairs >> 42, return_index=True)
    first = [*first.tolist(), len(pairs)]
    cut = np.searchsorted(pair, first).tolist()  # each stack pair's first term
    pair_hi, pair_lo = pairs >> 21 & (1 << 21) - 1, pairs & (1 << 21) - 1
    finite = np.flatnonzero(np.array(ts) != INF)
    for k, (s, u) in enumerate(divmod(stack, len(lo)) for stack in stacks.tolist()):
        (start, end), (a, b) = first[k:k + 2], cut[k:k + 2]
        m_hi, m_lo = hi[s].cols.shape[1], lo[u].cols.shape[1]
        block = np.zeros((len(ts), end - start, m_hi, m_lo))
        rows = lo[u].frame[:, lc[a:b], col[a:b]]
        rows *= sign[a:b, None]
        segment_add(block.reshape(len(ts), -1, m_lo), (pair[a:b] - start) * m_hi + row[a:b], rows)
        rows = None
        if len(finite) == len(ts):
            block = np.linalg.solve(hi[s].frame[:, pair_hi[start:end]], block)
        elif len(finite):
            block[finite] = np.linalg.solve(
                hi[s].frame[finite[:, None], pair_hi[start:end]], block[finite])
        yield PairBlocks((s, u), pair_hi[start:end], pair_lo[start:end], block)


# -- the spectral harness's dense operators ---------------------------------------------


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


def inv_sqrt_spectral(matrix: np.ndarray) -> np.ndarray:
    """Inverse square root of a symmetric positive definite matrix."""
    vals, vecs = np.linalg.eigh(np.asarray(matrix, dtype=np.float64))
    if vals[0] <= 0:
        raise ValueError(
            "matrix is not positive definite (smallest eigenvalue %.3e)"
            % float(vals[0]))
    return (vecs * (vals ** -0.5)) @ vecs.T


def normalized_d(cplx: CubeComplex, weights: Weights = None) -> np.ndarray:
    """The normalized differential d (I + Laplacian)^(-1/2), graded.

    The Laplacian D^2 is diagonal, so this is tril(D) scaled by column.
    """
    full = assemble_D(cplx, weights).astype(np.float64)
    return np.tril(full) * (1.0 + np.einsum("ij,ji->i", full, full)) ** -0.5


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

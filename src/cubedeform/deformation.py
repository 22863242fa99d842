"""The t-parametrized deformation between the two complexes.

For each t in (0, infinity] the cochain spaces carry a rescaled inner
product: parallel, compatibly oriented cubes at separation d overlap by
exp(-t^2 d / 2), so t = infinity recovers the orthonormal basis and small
t lets distant cubes correlate.  Everything here is built from one
elementary move.  Crossing a hyperplane H sends each member cube of a
parallelism class to its opposite face across H, and the crossing operator
mixes such a pair by the rotation-like block

    W e_u = b e_u + a e_v,   W e_v = -a e_u + b e_v,

with a = exp(-t^2/2), b = (1 - exp(-t^2))^(1/2), u on the source side.
Products of these moves along paths in the class are path independent, and
composing the moves from each member to the member nearest the base vertex
gives the change-of-basis U_t whose columns realize the deformed Gram
matrix as transpose(U_t) U_t.

On top of that sit the basic cochains (alternating sums over the parallel
copies of a face inside an ambient cube), their t-scaled pairings with
exact small-t limits given by symbol inner products, the conjugated
differentials d_t and delta_t with distance-graded weights, and the
base-point-change operator built from nearest-cube moves per class.

Scalars are pluggable: the default is float64, while tests drive the same
code with exact rationals, and pairing values are always evaluated in
extended precision because t^(-p) amplifies round-off near t = 0.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import Iterable

import mpmath as mp
import numpy as np

from .core import Cube, CubeComplex
from .differential import OrientedCube, d_cochain, d_matrix, delta_matrix
from .parallelism import (
    ParallelClass,
    class_of,
    enumerate_classes,
    nearest_in_class,
)
from .symbols import (
    CubePair,
    PSSymbol,
    cube_pair,
    ps_d_symbol,
    symbol_inner,
    symbol_of_pair,
)

__all__ = [
    "basepoint_commutator_norm",
    "basic_cochain",
    "basic_cochain_vector",
    "basic_section_frame",
    "d_t_matrix",
    "d_t_pairing",
    "d_t_pairing_limit",
    "deformation_weights",
    "delta_t_matrix",
    "gram_matrix",
    "oriented_pair_distance",
    "pairing_limit",
    "pairing_polynomial",
    "pairing_sweep",
    "pairing_value",
    "step_coefficients",
    "symbol_representative",
    "u_t_apply",
    "u_t_matrix",
    "w_hat_matrix",
    "w_path_matrix",
    "w_step_matrix",
]

INF = math.inf


def _check_t(t: float) -> None:
    if not t > 0:
        raise ValueError("deformation parameter must be positive (got %r)" % t)


def step_coefficients(t: float) -> tuple[float, float]:
    """The (a, b) mixing pair at parameter t; (0, 1) at infinity."""
    _check_t(t)
    if t == INF:
        return 0.0, 1.0
    return math.exp(-t * t / 2.0), math.sqrt(1.0 - math.exp(-t * t))


def _step_coefficients_mp(t: float) -> tuple:
    _check_t(t)
    if t == INF:
        return mp.mpf(0), mp.mpf(1)
    tt = mp.mpf(t)
    return mp.e ** (-tt * tt / 2), mp.sqrt(1 - mp.e ** (-tt * tt))


def deformation_weights(cplx: CubeComplex, t: float) -> list[float]:
    """Hyperplane weights 1 + min(t, 1) * distance-to-base."""
    _check_t(t)
    slope = min(t, 1.0)
    return [
        1.0 + slope * cplx.dist_hyperplane_to_base(h)
        for h in range(cplx.n_hyperplanes)
    ]


def oriented_pair_distance(d1: OrientedCube, d2: OrientedCube) -> int | float:
    """Separating-hyperplane count for compatibly oriented parallel cubes.

    Canonical representatives of parallel cubes are always compatibly
    oriented, so compatibility reduces to the signs agreeing; anything
    else is infinitely far apart.
    """
    if d1.cube.cutting != d2.cube.cutting or d1.sign != d2.sign:
        return INF
    return (d1.cube.anchor ^ d2.cube.anchor).bit_count()


# -- parallelism-class geometry ------------------------------------------------------


class _ClassGeom:
    """Adjacency structure of one parallelism class.

    Members are indexed in canonical (anchor) order.  Two members are
    adjacent across H when they are opposite faces of a cube cut by H
    together with the determining set; distance one is checked to imply
    that, never assumed.
    """

    __slots__ = ("members", "index", "adj", "pairs_by_h", "_trees")

    def __init__(self, cplx: CubeComplex, klass: ParallelClass):
        self.members = klass.members
        self.index = {m.anchor: i for i, m in enumerate(self.members)}
        self.adj: list[list[tuple[int, int]]] = [[] for _ in self.members]
        self.pairs_by_h: dict[int, list[tuple[int, int]]] = {}
        for i, member in enumerate(self.members):
            for h in range(cplx.n_hyperplanes):
                if h in member.cutting:
                    continue
                m = cplx.mask(h)
                if member.anchor & m:
                    continue  # handle each pair from its 0-side
                j = self.index.get(member.anchor ^ m)
                if j is None:
                    continue
                if not cplx.adjacent_cube(member, h):
                    raise AssertionError(
                        "class members at distance one across %d span no cube" % h)
                self.pairs_by_h.setdefault(h, []).append((i, j))
                self.adj[i].append((j, h))
                self.adj[j].append((i, h))
        for lst in self.adj:
            lst.sort(key=lambda e: self.members[e[0]].anchor)
        self._trees: dict[int, list] = {}

    def tree(self, root: int) -> list:
        """Breadth-first parent table rooted at ``root``.

        Entry i is (parent index, crossing hyperplane, side of member i
        under that hyperplane) or None at the root.  Neighbors are taken
        first-in-first-out in ascending anchor order, so the table and
        every path drawn from it are deterministic.
        """
        got = self._trees.get(root)
        if got is None:
            got = [None] * len(self.members)
            seen = {root}
            queue = [root]
            for i in queue:
                for j, h in self.adj[i]:
                    if j not in seen:
                        seen.add(j)
                        diff = self.members[i].anchor ^ self.members[j].anchor
                        side = 1 if self.members[j].anchor & diff else 0
                        got[j] = (i, h, side)
                        queue.append(j)
            if len(seen) != len(self.members):
                raise AssertionError("parallelism class is not connected")
            self._trees[root] = got
        return got


def _class_geom(cplx: CubeComplex, klass: ParallelClass) -> _ClassGeom:
    key = ("class_geom", klass.determining)
    got = cplx._shared.get(key)
    if got is None:
        got = _ClassGeom(cplx, klass)
        cplx._shared[key] = got
    return got


def _apply_step(vec, pairs, src_side: int, a, b) -> None:
    """One crossing move on a coefficient vector; pairs are (0-side, 1-side)."""
    for i0, i1 in pairs:
        u, v = (i0, i1) if src_side == 0 else (i1, i0)
        xu, xv = vec[u], vec[v]
        vec[u] = b * xu - a * xv
        vec[v] = a * xu + b * xv


def _apply_step_rows(mat: np.ndarray, pairs, src_side: int, a, b) -> None:
    """Left-multiply a matrix by one crossing move, row combinations in place."""
    for i0, i1 in pairs:
        u, v = (i0, i1) if src_side == 0 else (i1, i0)
        ru = b * mat[u] - a * mat[v]
        rv = a * mat[u] + b * mat[v]
        mat[u] = ru
        mat[v] = rv


def _path_to_root(geom: _ClassGeom, root: int, start: int):
    """Yield (hyperplane, source side) moves walking from start up to root."""
    parents = geom.tree(root)
    i = start
    while i != root:
        j, h, side = parents[i]
        yield h, side
        i = j


def _resolve_ab(t: float | None, ab: tuple | None) -> tuple:
    if ab is not None:
        return ab
    return step_coefficients(t)


def _is_exact(ab: tuple | None) -> bool:
    return ab is not None and not isinstance(ab[0], float)


def w_step_matrix(cplx: CubeComplex, cube: Cube, h: int, t: float | None = None,
                  ab: tuple | None = None) -> np.ndarray:
    """The crossing move of hyperplane ``h`` away from ``cube``.

    A square matrix over the members of the cube's parallelism class in
    canonical member order: the stated 2x2 block on every pair adjacent
    across ``h``, the identity elsewhere.  ``ab`` overrides the mixing
    coefficients (exact scalars allowed); otherwise they come from ``t``.
    """
    if not cplx.adjacent_cube(cube, h):
        raise ValueError("cube %r is not adjacent to hyperplane %d" % (cube, h))
    a, b = _resolve_ab(t, ab)
    geom = _class_geom(cplx, class_of(cplx, cube.cutting))
    src_side = 1 if cube.anchor & cplx.mask(h) else 0
    m = len(geom.members)
    out = np.identity(m, dtype=object if _is_exact(ab) else np.float64)
    for i0, i1 in geom.pairs_by_h.get(h, ()):
        u, v = (i0, i1) if src_side == 0 else (i1, i0)
        out[u, u] = b
        out[v, u] = a
        out[u, v] = -a
        out[v, v] = b
    return out


def w_path_matrix(cplx: CubeComplex, target: Cube, source: Cube,
                  t: float | None = None, ab: tuple | None = None) -> np.ndarray:
    """Composite crossing move from ``source`` to ``target``.

    Follows the deterministic breadth-first path between the two members;
    the identity when they coincide.
    """
    if target.cutting != source.cutting:
        raise ValueError("cubes %r and %r are not parallel" % (target, source))
    a, b = _resolve_ab(t, ab)
    geom = _class_geom(cplx, class_of(cplx, target.cutting))
    m = len(geom.members)
    out = np.identity(m, dtype=object if _is_exact(ab) else np.float64)
    root = geom.index[target.anchor]
    for h, side in _path_to_root(geom, root, geom.index[source.anchor]):
        _apply_step_rows(out, geom.pairs_by_h.get(h, ()), side, a, b)
    return out


def _class_root(cplx: CubeComplex, klass: ParallelClass,
                class_bases: dict | None) -> int:
    geom = _class_geom(cplx, klass)
    if class_bases is not None and klass.determining in class_bases:
        home = class_bases[klass.determining]
        if home.cutting != klass.determining or home.anchor not in geom.index:
            raise ValueError("override cube %r is not a class member" % (home,))
    else:
        home = nearest_in_class(cplx, cplx.base_vertex, klass)
    return geom.index[home.anchor]


def u_t_matrix(cplx: CubeComplex, q: int, t: float,
               class_bases: dict | None = None) -> np.ndarray:
    """Change of basis carrying degree-q cochains into the t-frame.

    Block per parallelism class; the column of a member is the composite
    crossing move from it to the class member nearest the base vertex,
    applied to the member itself.  ``class_bases`` optionally overrides
    that root cube per determining set.
    """
    a, b = step_coefficients(t)
    index = cplx.cube_index(q)
    out = np.zeros((len(index), len(index)), dtype=np.float64)
    for klass in enumerate_classes(cplx):
        if klass.dim != q:
            continue
        geom = _class_geom(cplx, klass)
        root = _class_root(cplx, klass, class_bases)
        cols = [index[member] for member in geom.members]
        for i in range(len(geom.members)):
            vec = [0.0] * len(geom.members)
            vec[i] = 1.0
            for h, side in _path_to_root(geom, root, i):
                _apply_step(vec, geom.pairs_by_h.get(h, ()), side, a, b)
            for j, value in enumerate(vec):
                if value:
                    out[cols[j], cols[i]] = value
    return out


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
        klass = class_of(cplx, cube.cutting)
        geom = _class_geom(cplx, klass)
        root = _class_root(cplx, klass, class_bases)
        start = geom.index[cube.anchor]
        vec = [zero] * len(geom.members)
        vec[start] = coeff + zero
        for h, side in _path_to_root(geom, root, start):
            _apply_step(vec, geom.pairs_by_h.get(h, ()), side, a, b)
        for j, value in enumerate(vec):
            if value:
                member = geom.members[j]
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
    _check_t(t)
    x = math.exp(-t * t / 2.0)
    index = cplx.cube_index(q)
    out = np.zeros((len(index), len(index)), dtype=np.float64)
    for klass in enumerate_classes(cplx):
        if klass.dim != q:
            continue
        cols = [index[m] for m in klass.members]
        for i, m1 in enumerate(klass.members):
            for j, m2 in enumerate(klass.members):
                out[cols[i], cols[j]] = x ** (m1.anchor ^ m2.anchor).bit_count()
    return out


# -- basic cochains and their pairings -----------------------------------------------


def basic_cochain(cplx: CubeComplex, pair: CubePair,
                  orientation: OrientedCube) -> dict:
    """Alternating sum over the copies of the face inside the ambient cube.

    The copy shifted across a set S of complementary hyperplanes enters
    with sign (-1)^|S|; all copies carry the compatible (canonical)
    orientation.
    """
    if orientation.cube != pair.d:
        raise ValueError("orientation is not an orientation of the face")
    comp = pair.complementary
    out: dict[Cube, int] = {}
    for bits in range(1 << len(comp)):
        anchor = pair.d.anchor
        flips = 0
        for i, h in enumerate(comp):
            if bits >> i & 1:
                anchor ^= cplx.mask(h)
                flips += 1
        coeff = orientation.sign if flips % 2 == 0 else -orientation.sign
        out[Cube(anchor, pair.d.cutting)] = coeff
    return out


def basic_cochain_vector(cplx: CubeComplex, pair: CubePair,
                         orientation: OrientedCube) -> np.ndarray:
    index = cplx.cube_index(pair.d.dim)
    out = np.zeros(len(index), dtype=np.int64)
    for cube, coeff in basic_cochain(cplx, pair, orientation).items():
        out[index[cube]] = coeff
    return out


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


def symbol_representative(cplx: CubeComplex, sym: PSSymbol) -> tuple[CubePair, OrientedCube]:
    """A cube pair whose symbol is the canonical one with sign +1."""
    listed = tuple(sorted(sym.h_set + sym.k_list))
    r = sym.r_canonical
    c = Cube(r & ~cplx.mask_of(listed), listed)
    d = Cube(r & ~cplx.mask_of(sym.k_list), sym.k_list)
    sgn = -1 if (r & cplx.mask_of(sym.k_list)).bit_count() & 1 else 1
    return cube_pair(cplx, c, d), OrientedCube(d, sgn)


def _basic_section(cplx: CubeComplex, pair: CubePair,
                   orientation: OrientedCube) -> tuple:
    """Cached (face cutting, terms, type |S|) of one basic cochain.

    Terms are the (anchor, coefficient) items of ``basic_cochain`` in its
    order.  Nothing here depends on the base vertex, so rebased copies
    may share the entries.
    """
    cache = cplx._shared.setdefault("basic_section", {})
    key = (pair, orientation)
    got = cache.get(key)
    if got is None:
        terms = tuple((c.anchor, a) for c, a in
                      basic_cochain(cplx, pair, orientation).items())
        got = cache[key] = (pair.d.cutting, terms, len(pair.complementary))
    return got


def _pair_symbol(cplx: CubeComplex, pair: CubePair,
                 orientation: OrientedCube) -> PSSymbol:
    """``symbol_of_pair``, cached per complex like ``_basic_section``."""
    cache = cplx._shared.setdefault("pair_symbol", {})
    key = (pair, orientation)
    got = cache.get(key)
    if got is None:
        got = cache[key] = symbol_of_pair(cplx, pair, orientation)
    return got


def pairing_polynomial(cplx: CubeComplex, pair1: CubePair, o1: OrientedCube,
                       pair2: CubePair, o2: OrientedCube) -> tuple[int, dict[int, int]]:
    """Exact form of the scaled pairing of two basic cochains.

    Returns (P, coeffs) encoding t^(-P) * sum_d coeffs[d] * x^d with
    x = exp(-t^2/2); P is the sum of the two types.  The coefficients are
    accumulated term by term, so their order (which fixes the summation
    order of ``pairing_value``) is that of the two cochains.
    """
    cut1, terms1, type1 = _basic_section(cplx, pair1, o1)
    cut2, terms2, type2 = _basic_section(cplx, pair2, o2)
    coeffs: dict[int, int] = {}
    if cut1 == cut2:
        for anchor1, a1 in terms1:
            for anchor2, a2 in terms2:
                d = (anchor1 ^ anchor2).bit_count()
                total = coeffs.get(d, 0) + a1 * a2
                if total:
                    coeffs[d] = total
                else:
                    coeffs.pop(d, None)
    return type1 + type2, coeffs


# Working precision of the pairing sum, and the significant digits that
# must survive its cancellation before a value is accepted.
PAIRING_DPS = 50
_MIN_DIGITS = 8
_LOG2_10 = math.log2(10)
# Per-t constants kept per complex, oldest evicted first.
_T_CACHE_SIZE = 16


def _t_constants(cplx: CubeComplex, t: float, dps: int) -> tuple:
    """(t, x = e^(-t^2/2), {d: (x^d, float)}, {P: t^-P}) at ``dps`` digits.

    Call inside ``mp.workdps(dps)``; the powers fill in as they are used.
    """
    cache = cplx._shared.setdefault("pairing_t", {})
    key = (t, dps)
    got = cache.get(key)
    if got is None:
        if len(cache) >= _T_CACHE_SIZE:
            del cache[next(iter(cache))]
        tt = mp.mpf(t)
        got = cache[key] = (tt, mp.e ** (-tt * tt / 2), {}, {})
    return got


def _pairing_at(cplx: CubeComplex, coeffs: dict[int, int], power: int,
                t: float, dps: int) -> tuple[float, float]:
    """The scaled pairing at ``dps`` digits, and the digits it lost.

    The loss is that of sum c x^d against sum |c| x^d; a sum that cancels
    to zero lost every digit.
    """
    with mp.workdps(dps):
        tt, x, x_pow, t_pow = _t_constants(cplx, t, dps)
        total = mp.mpf(0)
        size = 0.0
        for d, c in coeffs.items():
            xd = x_pow.get(d)
            if xd is None:
                xd = x ** d
                xd = x_pow[d] = (xd, float(xd))
            total += c * xd[0]
            size += abs(c) * xd[1]
        scale = t_pow.get(power)
        if scale is None:
            scale = t_pow[power] = tt ** (-power)
        value = float(total * scale)
    if not total:
        return value, math.inf
    if not size:
        return value, 0.0  # every x^d underflows a double: nothing cancels
    return value, (math.log2(size) - mp.mag(total)) / _LOG2_10


def pairing_value(cplx: CubeComplex, pair1: CubePair, o1: OrientedCube,
                  pair2: CubePair, o2: OrientedCube, t: float) -> float:
    """The scaled pairing at one t, evaluated in extended precision.

    The sum runs at ``PAIRING_DPS`` digits.  When fewer than
    ``_MIN_DIGITS`` significant digits survive its cancellation (small t,
    where every x^d is close to 1), the same sum is redone with the
    precision raised by the digits lost, until enough survive.  Raised
    precisions are ``PAIRING_DPS`` times a power of two, so the per-t
    constants at each one are reused across pairs.
    """
    _check_t(t)
    power, coeffs = pairing_polynomial(cplx, pair1, o1, pair2, o2)
    if t == INF:
        return float(coeffs.get(0, 0)) if power == 0 else 0.0
    if not coeffs:
        return 0.0  # exactly zero; a zero sum would otherwise never be accepted
    dps = PAIRING_DPS
    while True:
        value, lost = _pairing_at(cplx, coeffs, power, t, dps)
        if dps - lost >= _MIN_DIGITS:
            return value
        need = dps + min(lost, dps)  # a sum cancelled to zero doubles dps
        while dps < need:
            dps *= 2


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


# -- conjugated differentials --------------------------------------------------------


def d_t_matrix(cplx: CubeComplex, q: int, t: float, weighted: bool = False) -> np.ndarray:
    """The differential seen through the t-frame on degree q.

    At t = infinity this is exactly the (weighted) differential matrix;
    otherwise U^(-1) d U, with the distance-graded weights when
    ``weighted``.
    """
    _check_t(t)
    w = deformation_weights(cplx, t) if weighted else None
    if t == INF:
        return d_matrix(cplx, q, w)
    hi = u_t_matrix(cplx, q + 1, t)
    lo = u_t_matrix(cplx, q, t)
    img = d_matrix(cplx, q, w).astype(np.float64)
    return np.linalg.solve(hi, img.dot(lo))


def delta_t_matrix(cplx: CubeComplex, q: int, t: float, weighted: bool = False) -> np.ndarray:
    """The adjoint differential through the t-frame on degree q."""
    _check_t(t)
    w = deformation_weights(cplx, t) if weighted else None
    if t == INF:
        return delta_matrix(cplx, q, w)
    hi = u_t_matrix(cplx, q, t)
    lo = u_t_matrix(cplx, q - 1, t)
    img = delta_matrix(cplx, q, w).astype(np.float64)
    return np.linalg.solve(lo, img.dot(hi))


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
        w = None
        if weighted:
            slope = min(mp.mpf(t), mp.mpf(1))
            w = [1 + slope * cplx.dist_hyperplane_to_base(h)
                 for h in range(cplx.n_hyperplanes)]
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
    return image.get(s2.key, 0) * s2.sign


# -- base-point change ----------------------------------------------------------------


def w_hat_matrix(cplx: CubeComplex, q: int, target_vertex: int, source_vertex: int,
                 t: float | None = None, ab: tuple | None = None) -> np.ndarray:
    """Base-point-change operator on degree-q cochains.

    Block diagonal over parallelism classes; each block is the composite
    crossing move from the member nearest ``source_vertex`` to the member
    nearest ``target_vertex``.
    """
    a, b = _resolve_ab(t, ab)
    index = cplx.cube_index(q)
    out = np.identity(len(index), dtype=object if _is_exact(ab) else np.float64)
    for klass in enumerate_classes(cplx):
        if klass.dim != q:
            continue
        near_t = nearest_in_class(cplx, target_vertex, klass)
        near_s = nearest_in_class(cplx, source_vertex, klass)
        if near_t == near_s:
            continue
        block = w_path_matrix(cplx, near_t, near_s, ab=(a, b))
        cols = [index[m] for m in klass.members]
        for i, gi in enumerate(cols):
            for j, gj in enumerate(cols):
                out[gi, gj] = block[i, j]
    return out


def basepoint_commutator_norm(cplx: CubeComplex, p_vertex: int, q_vertex: int,
                              t: float) -> float:
    """Largest 2-norm over degrees of the base-change commutator with d.

    Both differentials carry their own base's distance-graded weights;
    the two base vertices must be adjacent.
    """
    _check_t(t)
    if (p_vertex ^ q_vertex).bit_count() != 1:
        raise ValueError("base points must be adjacent vertices")
    at_p = cplx.rebased(p_vertex)
    at_q = cplx.rebased(q_vertex)
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

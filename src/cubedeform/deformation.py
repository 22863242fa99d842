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

Every move stays inside one class, so U_t, the Gram matrix, the
base-point change and every loop product are block diagonal by class,
and nothing here builds a matrix over all cubes of a degree.  The block
store is one record per (degree, class size), built from the bit rows in
array passes, that stacks those classes' members and bits and caches
each crossing move as a row permutation and a sign vector per (class, H,
source side): the move is X -> B X + A X[perm], B = b on paired rows and
1 elsewhere, A = a * sign, which in IEEE arithmetic is the 2x2 block
form exactly.  A class spans a CAT(0) cube complex, whose square complex
is simply connected (Sageev 1995; Chepoi 2000 for median graphs), so
every closed walk is a product of backtracks and squares, and the moves
compose to the identity around every closed walk when they do forth and
back across every edge and around every square.  ``path_residual``
checks exactly that, without sampling a walk: those products are blocks
of two and four members, found through the move tables' own partners,
and a block depends only on the signs of its moves and on (a, b), so the
distinct ones are decomposed once per t.  Paths are geodesics read off
the move tables and the members' bits alone (``_geodesics``), a batch of
(class, root, start) triples of one record at once.  One gather runs a
move step for all of a record's classes and for every t of a tuple at
once, each t with its own copy of the move tables scaled by its (a, b):
``class_blocks`` gives the Gram blocks (powers of x indexed by member
separations, kept per degree in one flat listing of the classes) and the
U_t blocks per stack, with a leading t axis.

The conjugated differentials need no frame: d_t = U^-1 d U and delta_t =
U^-1 delta U are b D(x) and b^-1 Delta(x) for integer tables of monomials
(``frame_terms``), the closed form that the Pytlik-Szwarc frame has on a
tree, so their identities are integer polynomials in x, checked by
grouping coefficients (``adjoint_terms``) with no block and no solve.

On top of that sit the basic cochains (alternating sums over the parallel
copies of a face inside an ambient cube) and their t-scaled pairings,
whose small-t limits are symbol inner products, and the blocks of the
base-point change, built from nearest-cube moves per class.

Scalars are pluggable: the default is float64, while tests drive the same
code with exact rationals, and pairing values are always evaluated in
extended precision because t^(-p) amplifies round-off near t = 0.  A
pairing is a polynomial t^(-P) sum_d c_d x^d, x = exp(-t^2/2), and its
value depends on nothing else, so ``pairing_table`` serves whole bases
from the symbol rows: sections whose faces have different cutting sets
pair to zero at every t and in the limit and are left out, and the
remaining pairs are built in array passes over their term pairs (d the
popcount of the anchors' XOR through a byte table, coefficients in
``pairing_polynomial``'s dict order) and share one entry per distinct
polynomial (on the 3x3x2 grid, 3,971 pairs and 190 polynomials), so a
sweep sums each polynomial once per t with ``polynomial_value``.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, NamedTuple

import mpmath as mp
import numpy as np

from .core import Cube, CubeComplex, bit_rows, row_keys, row_positions
from .differential import OrientedCube, term_table
from .parallelism import class_rows, nearest_rows
from .symbols import CubePair, PSSymbol, cube_pair

__all__ = [
    "ClassBlocks",
    "PairingTable",
    "adjoint_terms",
    "basic_cochain",
    "class_blocks",
    "deformation_weights",
    "frame_terms",
    "pairing_polynomial",
    "pairing_table",
    "pairing_value",
    "path_residual",
    "polynomial_value",
    "step_coefficients",
    "symbol_representative",
    "w_hat_blocks",
]

INF = math.inf


def _check_t(t: float) -> None:
    if not t > 0:
        raise ValueError("deformation parameter must be positive (got %r)" % t)


def step_coefficients(t: float) -> tuple[float, float]:
    """The (a, b) mixing pair at parameter t; (0, 1) at infinity.  b is
    sqrt(-expm1(-t^2)), accurate where 1 - exp(-t^2) would cancel."""
    _check_t(t)
    if t == INF:
        return 0.0, 1.0
    return math.exp(-t * t / 2.0), math.sqrt(-math.expm1(-t * t))


def deformation_weights(cplx: CubeComplex, t: float) -> list[float]:
    """Hyperplane weights 1 + min(t, 1) * distance-to-base, h's distance
    the least over its edges (a, {h}) of the nearer end's, |a ^ base| less
    the base's bit h."""
    _check_t(t)
    n, edges = cplx.n_hyperplanes, cplx.cube_arrays(1)
    base = bit_rows(n, (cplx.base_vertex,))[0]
    h = np.nonzero(edges.cutting)[1]
    dist = np.full(n, n, dtype=np.intp)
    np.minimum.at(dist, h, (edges.anchor != base).sum(axis=1) - base[h])
    slope = min(t, 1.0)
    return [1.0 + slope * d for d in dist.tolist()]


# -- parallelism-class geometry ------------------------------------------------------


class _Group(NamedTuple):
    """The k degree-q parallelism classes of one size m, stacked.

    ``sets`` (k, q) holds the determining sets, in determining-set order.
    ``cols`` (k, m) holds each class's members in anchor order, as
    positions among the degree's cubes; ``bits`` (k, m, n) their anchor
    bits as float64, zero on the determining hyperplanes as an anchor is
    its cube's smallest vertex.

    Members at distance one across H are checked to span a cube.  A
    class's crossing move per (H, source side) is a row of ``perm`` and
    ``sign`` (k, r, m), X -> B X + A X[perm] with B = b where ``sign`` is
    nonzero and 1 elsewhere, A = a sign: the moves across the class's j-th
    hyperplane, ascending, are rows 2j + 1 (from the 0-side) and 2j + 2,
    ``planes`` (k, r) holds the hyperplane each row crosses (0 on the
    others), and ``sign`` is -1 on each move's source side.  Row 0 and
    padding rows are the identity.  A move's key is its row in the
    flattened tables ``moves``, so key 0 pads any path.
    """

    sets: np.ndarray
    cols: np.ndarray
    bits: np.ndarray
    perm: np.ndarray
    sign: np.ndarray
    planes: np.ndarray

    @property
    def moves(self) -> tuple[np.ndarray, np.ndarray]:
        """``perm`` and ``sign`` as the (k r, m) tables that keys index."""
        m = self.perm.shape[2]
        return self.perm.reshape(-1, m), self.sign.reshape(-1, m)


def _groups(cplx: CubeComplex, q: int) -> tuple[_Group, ...]:
    """The cached degree-q ``_Group``s, sizes in the first-seen order of the
    classes, built from the cube rows of degrees q and q + 1."""
    def build():
        n, level, rows = cplx.n_hyperplanes, cplx.cube_arrays(q), class_rows(cplx, q)
        keys, width = level.keys, level.keys.dtype.itemsize
        upper = cplx.cube_arrays(q + 1).keys
        # members across H: the 0-side one sets key bit H to find the 1-side
        # one, and the cube they span has cutting bit H set as well
        found = [np.zeros((3, 0), dtype=np.intp)]
        free = (level.anchor | level.cutting) == 0
        for h in np.flatnonzero(free.any(axis=0)).tolist():
            lo = np.flatnonzero(free[:, h])
            raw = keys[lo].view(np.uint8).reshape(-1, width)
            raw[:, h >> 3] |= 128 >> (h & 7)
            hi, hit = row_positions(keys, raw.view(keys.dtype).ravel())
            raw = raw[hit]
            raw[:, h >> 3] ^= 128 >> (h & 7)
            raw[:, (n + h) >> 3] ^= 128 >> ((n + h) & 7)
            if not row_positions(upper, raw.view(keys.dtype).ravel())[1].all():
                raise AssertionError("class members at distance one across %d span no cube" % h)
            found.append(np.stack((np.full(len(raw), h), lo[hit], hi[hit])))
        h, lo, hi = np.concatenate(found, axis=1)
        # each cube's rank in its class, members in cube (so anchor) order
        order = np.argsort(rows.of, kind="stable")
        start = np.cumsum(rows.sizes) - rows.sizes
        rank = np.empty(len(order), dtype=np.intp)
        rank[order] = np.arange(len(order)) - np.repeat(start, rows.sizes)
        # the moves across a class's j-th hyperplane in rows 2j + 1 (from the 0-side), 2j + 2
        cls = rows.of[lo]
        pairs, which = np.unique(cls * n + h, return_inverse=True)
        up = 2 * (np.arange(len(pairs)) - np.searchsorted(pairs // n, pairs // n))[which] + 1
        hyperplanes = np.bincount(pairs // n, minlength=len(rows.sizes))
        sizes, seen = np.unique(rows.sizes, return_index=True)
        out = []
        for m in sizes[np.argsort(seen)].tolist():
            ids = np.flatnonzero(rows.sizes == m)
            k, r = len(ids), 2 * int(hyperplanes[ids].max()) + 1
            slot = np.full(len(rows.sizes), -1)
            slot[ids] = np.arange(k)
            mine = slot[cls] >= 0
            row = slot[cls[mine]] * r + up[mine]
            u, v = rank[lo[mine]], rank[hi[mine]]
            perm = np.tile(np.arange(m), (k * r, 1))
            sign = np.zeros(perm.shape, dtype=np.int8)
            perm[row, u] = perm[row + 1, u] = v
            perm[row, v] = perm[row + 1, v] = u
            sign[row, u] = sign[row + 1, v] = -1
            sign[row, v] = sign[row + 1, u] = 1
            planes = np.zeros(k * r, dtype=np.intp)
            planes[row] = planes[row + 1] = h[mine]
            cols = order[start[ids, None] + np.arange(m)]
            out.append(_Group(np.nonzero(rows.sets[ids])[1].reshape(k, q), cols,
                              level.anchor[cols].astype(np.float64),
                              perm.reshape(k, r, m), sign.reshape(k, r, m), planes.reshape(k, r)))
        return tuple(out)

    return cplx.cached(("groups", q), build)


def _separations(bits: np.ndarray, dtype) -> np.ndarray:
    """The Hamming distances between the members of each class of a stack
    of 0/1 bits (k, m, n) in float64, as a (k, m, m) array of ``dtype``:
    |u| + |v| - 2 u.v, exact in float64, an eighth of the rows at a time,
    so the float products never outgrow a byte per entry of the result."""
    k, m = bits.shape[:2]
    ones, step = bits.sum(axis=2), -(-m // 8)
    out, buf = np.empty((k, m, m), dtype=dtype), np.empty((k, step, m))
    for lo in range(0, m, step):
        part = buf[:, :min(step, m - lo)]
        np.matmul(bits[:, lo:lo + step], bits.transpose(0, 2, 1), out=part)
        part *= -2.0
        part += ones[:, lo:lo + step, None]
        part += ones[:, None, :]
        out[:, lo:lo + step] = part
    return out


class _Listing(NamedTuple):
    """The degree-q classes of ``_groups`` listed one after another.

    ``cubes`` holds every cube, class by class and members in anchor
    order; ``dist`` every class's ``_separations``, flattened in the same
    order, and ``blocks`` each group's (k, m, m) view of it.  Per cube,
    ``head`` is where its class starts in ``cubes``, ``size`` its class
    size, ``pos`` its member position and ``row`` where its row of
    separations starts in ``dist``: member j of cube C's class is
    ``cubes[head[C] + j]``, at distance ``dist[row[C] + j]`` from C.
    """

    cubes: np.ndarray
    head: np.ndarray
    size: np.ndarray
    pos: np.ndarray
    row: np.ndarray
    dist: np.ndarray
    blocks: tuple


def _listing(cplx: CubeComplex, q: int) -> _Listing:
    """The cached ``_Listing`` of degree q, independent of the base vertex;
    separations in the smallest unsigned dtype that holds the hyperplane
    count."""
    def build():
        groups = _groups(cplx, q)
        n = sum(g.cols.size for g in groups)
        head, size, pos, row = np.empty((4, n), dtype=np.intp)
        dist = np.empty(sum(g.cols.size * g.cols.shape[1] for g in groups),
                        dtype=np.min_scalar_type(cplx.n_hyperplanes))
        blocks, at, flat = [], 0, 0
        for g in groups:
            (k, m), local, cols = g.cols.shape, np.arange(g.cols.size), g.cols.ravel()
            head[cols], size[cols], pos[cols] = at + local // m * m, m, local % m
            row[cols] = flat + local * m
            blocks.append(dist[flat:flat + k * m * m].reshape(k, m, m))
            blocks[-1][...] = _separations(g.bits, dist.dtype)
            at, flat = at + k * m, flat + k * m * m
        cubes = np.concatenate([g.cols.ravel() for g in groups])
        return _Listing(cubes, head, size, pos, row, dist, tuple(blocks))

    return cplx.cached(("listing", q), build)


def _expand(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Item i repeated counts[i] times, and the place 0, 1, ... of each copy."""
    i = np.repeat(np.arange(len(counts)), counts)
    return i, np.arange(len(i)) - np.repeat(np.cumsum(counts) - counts, counts)


def _geodesics(group: _Group, cls, roots, starts) -> np.ndarray:
    """Row i: the move keys of a geodesic from member ``starts[i]`` of
    class ``cls[i]`` of ``group`` to member ``roots[i]``, padded with the
    identity key 0.

    Walked from the root, each step to the partner of least position
    across a hyperplane between the walk and the start, the keys are those
    of the moves back, last step first.  That is the least geodesic in
    member order, the path of the first-in-first-out tree with neighbors
    ascending.  A walk with no such partner is cut off: AssertionError.
    """
    perm, sign, planes, bits = group.perm, group.sign, group.planes, group.bits
    r, m = perm.shape[1:]
    cls, start, node = np.asarray(cls), np.asarray(starts), np.array(roots)
    left = (bits[cls, node] != bits[cls, start]).sum(axis=1)
    out = np.zeros((len(node), int(left.max(initial=0))), dtype=np.intp)
    for s in range(out.shape[1]):
        live = np.flatnonzero(left > s)
        c, at = cls[live], node[live]
        near, h = perm[c, :, at], planes[c]
        # the moves from a partner back to ``at`` across a hyperplane between it and the start
        back = (sign[c, :, at] == 1) & (bits[c[:, None], at[:, None], h]
                                        != bits[c[:, None], start[live, None], h])
        if not back.any(axis=1).all():
            raise AssertionError("parallelism class is not connected")
        row = np.where(back, near, m).argmin(axis=1)
        out[live, left[live] - 1 - s] = c * r + row
        node[live] = near[np.arange(len(live)), row]
    return out


def _rotate(stack: np.ndarray, perm: np.ndarray, sign: np.ndarray, ab: tuple,
            keys: np.ndarray | None = None) -> None:
    """Run each slice of ``stack`` through its own crossing moves, in place.

    At step s slice l takes the move (perm[l, s], sign[l, s]), or with
    ``keys`` the table rows (perm[k], sign[k]) for k = keys[l, s]; one
    step of every slice is one gather and two scalings.  Row u of a slice
    becomes b X[u] - a X[v] and its partner v becomes a X[u] + b X[v],
    each product rounded once as in the 2x2 block form; rows outside the
    move's pairs are kept.  ``ab`` holds two scalars, or two float arrays
    with one (a, b) per row of the move tables: per slice without ``keys``.
    """
    a, b = ab
    moving = sign.any(axis=-1)
    if not isinstance(a, (float, np.ndarray)):  # exact scalars
        sign = sign.astype(object)
    if isinstance(a, np.ndarray):
        per_row = (...,) + (None,) * (sign.ndim - 1)
        a, b = a[per_row], b[per_row]
    scale_b, scale_a = np.where(sign != 0, b, 1), a * sign
    if keys is None:
        def at(table, s, end):
            return table[:end, s]
    else:
        moving = moving[keys]

        def at(table, s, end):
            return table[keys[:end, s]]
    # at each step, slices past the last one still moving are left alone
    ends = len(moving) - np.argmax(moving[::-1], axis=0)
    ends[~moving.any(axis=0)] = 0
    rows = np.arange(len(stack))[:, None]
    tail = (...,) + (None,) * (stack.ndim - 2)
    for s, end in enumerate(ends):
        part = stack[:end]
        moved = part[rows[:end], at(perm, s, end)]
        part *= at(scale_b, s, end)[tail]
        moved *= at(scale_a, s, end)[tail]
        part += moved


def _resolve_ab(t: float | None, ab: tuple | None) -> tuple:
    if ab is not None:
        return ab
    return step_coefficients(t)


def _is_exact(ab: tuple | None) -> bool:
    return ab is not None and not isinstance(ab[0], float)


def _moves_blocks(group: _Group, keys: np.ndarray, ab: tuple, exact: bool) -> np.ndarray:
    """Block l: the moves ``keys[l]`` of one class of ``group``, in order,
    applied to the identity."""
    out = np.identity(group.cols.shape[1], dtype=object if exact else np.float64)
    out = np.tile(out, (len(keys), 1, 1))
    _rotate(out, *group.moves, ab, keys)
    return out


# The local moves of the two relations, row s holding each member's partner
# at step s: an edge (u, v) crossed forth and back, and a square
# (u00, u10, u01, u11) crossed across H1, across H2, back across H1 and back
# across H2.
_EDGE = np.array([[1, 0]] * 2)
_SQUARE = np.array([[1, 0, 3, 2], [2, 3, 0, 1]] * 2)


def _distinct(codes: np.ndarray) -> np.ndarray:
    """The distinct values of non-negative ``codes``, ascending."""
    codes = np.sort(codes)
    return codes[np.diff(codes, prepend=-1) != 0]


def _signs(sign: np.ndarray, c, rows, members) -> np.ndarray:
    """The ``_distinct`` patterns of signs ``sign[c, rows[s], members[i]]``
    of the relations over their steps s and members i, two bits each (the
    sign plus 1) packed into one integer per relation."""
    code = np.zeros(len(c), dtype=np.int64)
    for s, row in enumerate(rows):
        for i, member in enumerate(members):
            code |= (sign[c, row, member] + 1).astype(np.int64) << 2 * (s * len(members) + i)
    return _distinct(code)


def _relations(group: _Group) -> tuple[np.ndarray, np.ndarray]:
    """The ``_signs`` of the edges and of the squares of ``group``'s
    classes.

    Partners are read from the move tables alone: the moves across a
    class's j-th hyperplane, rows 2j + 1 and 2j + 2, must swap the same
    pairs of members.  An edge is such a pair (u, v), u < v as the 0-side
    anchor is the smaller; its steps are rows 2j + 1 then 2j + 2.  A square
    has its corner u00 at the smaller end of pairs across j1 < j2, with
    partners u10 and u01: where either has a partner across the other
    hyperplane, the two must share it, u11, else AssertionError.  Its steps
    are rows 2 j1 + 1, 2 j2 + 1, 2 j1 + 2 and 2 j2 + 2.
    """
    perm, sign = group.perm, group.sign
    fwd, member = perm[:, 1::2], np.arange(perm.shape[2])
    if not (np.array_equal(fwd, perm[:, 2::2])
            and (np.take_along_axis(fwd, fwd, axis=2) == member).all()):
        raise AssertionError("crossing moves do not swap pairs of class members")
    c, u, j = np.nonzero((fwd > member).transpose(0, 2, 1))  # by (class, member, j)
    v = fwd[c, j, u]
    edges = _signs(sign, c, (2 * j + 1, 2 * j + 2), (u, v))
    # corners: every two pairs from one member, the first across the smaller j
    node = c * len(member) + u
    first, second = _expand(np.searchsorted(node, node, side="right") - 1 - np.arange(len(node)))
    second += first + 1
    c, j1, j2, u00, u10, u01 = c[first], j[first], j[second], u[first], v[first], v[second]
    u11, other = fwd[c, j2, u10], fwd[c, j1, u01]
    square = (u11 != u10) | (other != u01)
    if (u11 != other)[square].any():
        raise AssertionError("crossing moves across two hyperplanes do not close a square")
    c, j1, j2, u00, u10, u01, u11 = (a[square] for a in (c, j1, j2, u00, u10, u01, u11))
    squares = _signs(sign, c, (2 * j1 + 1, 2 * j2 + 1, 2 * j1 + 2, 2 * j2 + 2),
                     (u00, u10, u01, u11))
    return edges, squares


def _relation_residual(codes: np.ndarray, perm: np.ndarray, ab: np.ndarray) -> float:
    """The largest singular value of P - I over the relations of the local
    moves ``perm`` with the packed signs ``codes``, at each (a, b) of
    ``ab``: each distinct one moved and decomposed once."""
    codes = _distinct(codes)
    steps, c = perm.shape
    sign = ((codes[:, None] >> 2 * np.arange(steps * c)) & 3).astype(np.int8) - 1
    n = len(codes) * ab.shape[1]
    if not n:
        return 0.0
    stack = np.tile(np.identity(c), (n, 1, 1))
    _rotate(stack, np.broadcast_to(perm, (n, steps, c)),
            np.tile(sign.reshape(-1, steps, c), (ab.shape[1], 1, 1)),
            tuple(np.repeat(ab, len(codes), axis=1)))
    stack[:, np.arange(c), np.arange(c)] -= 1.0
    return float(np.linalg.svd(stack, compute_uv=False).max())


def path_residual(cplx: CubeComplex, ts: Iterable[float]) -> float:
    """Worst deviation from the identity of a closed walk of crossing moves
    in a parallelism class, over the t's of ``ts``.

    Each class spans a CAT(0) cube complex, whose square complex is simply
    connected (Sageev 1995; Chepoi 2000 for median graphs), so every closed
    walk is a product of backtracks and squares.  Its moves compose to the
    identity when every move forth then back does and the four moves
    around every square do (``_relations``).  Those products are block
    diagonal, on an edge's two members and on a square's four, and a block
    depends only on the signs of its moves and on (a, b): the distinct
    ones, over every class, are decomposed once per t.
    """
    ab = np.array([step_coefficients(t) for t in ts]).reshape(-1, 2).T
    found = [], []
    for q in range(cplx.dimension + 1):
        for group in _groups(cplx, q):
            for codes, got in zip(found, _relations(group)):
                codes.append(got)
    return max(_relation_residual(np.concatenate(codes), perm, ab)
               for codes, perm in zip(found, (_EDGE, _SQUARE)))


def _nearest(cplx: CubeComplex, group: _Group, vertices) -> tuple[np.ndarray, np.ndarray]:
    """Each class's member nearest each of ``vertices``, (k, V), and whether
    the minimum is tied (``nearest_rows``)."""
    vbits = bit_rows(cplx.n_hyperplanes, vertices).astype(np.float64)
    return nearest_rows(group.bits, vbits)[:2]


def _class_roots(cplx: CubeComplex, group: _Group, class_bases: dict | None) -> np.ndarray:
    """The root member of each class of ``group``.

    A class's root is its ``class_bases`` cube when it has one, else its
    member nearest the base vertex; a tie raises AssertionError, naming
    the first class with one.
    """
    roots, tied = (a[:, 0] for a in _nearest(cplx, group, (cplx.base_vertex,)))
    for c, det in enumerate(map(tuple, group.sets.tolist()) if class_bases else ()):
        home = class_bases.get(det)
        if home is not None:
            hit = (group.bits[c] == bit_rows(cplx.n_hyperplanes, (home.anchor,))).all(axis=1)
            if home.cutting != det or not hit.any():
                raise ValueError("override cube %r is not a class member" % (home,))
            roots[c], tied[c] = hit.argmax(), False
    if tied.any():
        raise AssertionError("nearest cube in class %s to %s is not unique"
                             % (group.sets[tied.argmax()].tolist(),
                                cplx.vertex_bits(cplx.base_vertex)))
    return roots


def _root_paths(cplx: CubeComplex, q: int, class_bases: dict | None = None) -> list:
    """Per degree-q group, the keys (k m, steps) of each member's
    ``_geodesics`` path to its class root, rows class by class; kept per
    base vertex unless rerooted."""
    def build():
        out = []
        for group in _groups(cplx, q):
            k, m = group.cols.shape
            roots = _class_roots(cplx, group, class_bases)
            out.append(_geodesics(group, np.repeat(np.arange(k), m), np.repeat(roots, m),
                                  np.tile(np.arange(m), k)))
        return out

    return build() if class_bases else cplx.cached(("root_paths", q, cplx.base_vertex), build)


class ClassBlocks(NamedTuple):
    """The deformed frame on the degree-q classes of one size m, at T values
    of t.

    Stacked over those k classes: ``cols`` (k, m) holds each class's member
    positions among the degree-q cubes, ``gram`` and ``frame`` (T, k, m, m)
    its blocks of the Gram matrix and of U_t at each t.
    """

    cols: np.ndarray
    gram: np.ndarray
    frame: np.ndarray


def _gram_powers(cplx: CubeComplex, t: float) -> np.ndarray:
    _check_t(t)
    x = math.exp(-t * t / 2.0)
    return np.array([x ** d for d in range(cplx.n_hyperplanes + 1)])


def class_blocks(cplx: CubeComplex, q: int, ts: tuple[float, ...],
                 class_bases: dict | None = None) -> tuple[ClassBlocks, ...]:
    """The Gram and U_t blocks of every degree-q parallelism class at each
    t of ``ts``.

    Both matrices are block diagonal by class, so this is all of them.
    ``class_bases`` maps a determining set to the cube that roots its
    class in place of the member nearest the base vertex.  A frame column
    is the move from its member to the root: the columns are rotated as
    the rows of the transpose, each along its own path and with its own
    t, all at once.
    """
    n = len(ts)
    powers = np.array([_gram_powers(cplx, t) for t in ts])
    a, b = np.array([step_coefficients(t) for t in ts]).reshape(-1, 2).T
    out = []
    for group, keys, dist in zip(_groups(cplx, q), _root_paths(cplx, q, class_bases),
                                 _listing(cplx, q).blocks):
        k, m = group.cols.shape
        # the move tables once per t, each copy with its own (a, b)
        perm, sign = group.moves
        r = len(perm)
        columns = np.tile(np.identity(m), (n * k, 1))
        _rotate(columns, np.tile(perm, (n, 1)), np.tile(sign, (n, 1)),
                (np.repeat(a, r), np.repeat(b, r)),
                (keys + r * np.arange(n)[:, None, None]).reshape(n * len(keys), keys.shape[1]))
        out.append(ClassBlocks(group.cols, np.take(powers, dist, axis=1),
                               columns.reshape(n, k, m, m).transpose(0, 1, 3, 2)))
    return tuple(out)


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
    order.  Nothing here depends on the base vertex, so copies of the
    complex with another base vertex may share the entries.
    """
    cache = cplx._shared.setdefault("basic_section", {})
    key = (pair, orientation)
    got = cache.get(key)
    if got is None:
        terms = tuple((c.anchor, a) for c, a in
                      basic_cochain(cplx, pair, orientation).items())
        got = cache[key] = (pair.d.cutting, terms, len(pair.complementary))
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
    """The scaled pairing at one t, evaluated in extended precision."""
    return polynomial_value(cplx, *pairing_polynomial(cplx, pair1, o1, pair2, o2), t)


def polynomial_value(cplx: CubeComplex, power: int, coeffs: dict[int, int],
                     t: float) -> float:
    """t^(-power) sum_d coeffs[d] x^d, x = e^(-t^2/2), rounded to a double.

    The sum runs at ``PAIRING_DPS`` digits.  When fewer than
    ``_MIN_DIGITS`` significant digits survive its cancellation (small t,
    where every x^d is close to 1), the same sum is redone with the
    precision raised by the digits lost, until enough survive.  Raised
    precisions are ``PAIRING_DPS`` times a power of two, so the per-t
    constants at each one are reused across polynomials.
    """
    _check_t(t)
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


class PairingTable(NamedTuple):
    """The same-degree pairings of the representatives of distinct canonical
    symbols (``symbol_representative``), by polynomial.

    ``polynomials[k]`` is the k-th distinct ``pairing_polynomial``, distinct
    meaning (P, ordered coefficient items), numbered by first appearance
    along the rows: a value is a function of that and t alone.  Row i lists
    in ``cols[start[i]:start[i + 1]]`` each section j whose face has the
    cutting set of section i's face, ascending, and in ``ids`` the id of the
    pair's polynomial.  Every other pair is zero at every t and in the limit.
    The limit of a listed pair, the inner product of two distinct canonical
    symbols with sign +1, is 1 when i == j and 0 otherwise.
    """

    polynomials: tuple
    start: np.ndarray
    cols: np.ndarray
    ids: np.ndarray


# Set bits of each byte value, and the term pairs one pass of pairing_table holds.
_BYTE_BITS = np.array([x.bit_count() for x in range(256)], dtype=np.uint16)
_TERM_PAIR_CHUNK = 1 << 12


def _basic_terms(h: np.ndarray, r: np.ndarray) -> tuple:
    """The terms of each representative's ``basic_cochain``, in its order:
    packed anchors (one row per byte, one column per term), +-1
    coefficients and each section's first term.

    A canonical vertex r is a cube's smallest vertex, clear on h and k, so
    the representative of [h | k | r] has the face at r with sign +1; the
    copy across a set S of h comes at position sum 2^i over the i-th
    hyperplane of h in S, with sign (-1)^|S|.
    """
    face = np.packbits(r, axis=1)
    flips = np.packbits(np.eye(h.shape[1], dtype=np.uint8), axis=1)
    p = h.sum(axis=1, dtype=np.int64)
    start = np.zeros(len(p) + 1, dtype=np.int64)
    np.cumsum(1 << p, out=start[1:])
    anchors = np.empty((start[-1], face.shape[1]), dtype=np.uint8)
    coeffs = np.empty(start[-1], dtype=np.int8)
    for size in range(int(p.max(initial=-1)) + 1):
        rows = np.flatnonzero(p == size)
        cols = np.nonzero(h[rows])[1].reshape(len(rows), size)
        a, c = face[rows, None], np.ones(1, dtype=np.int8)
        for x in range(size):
            a = np.concatenate([a, a ^ flips[cols[:, x]][:, None]], axis=1)
            c = np.concatenate([c, -c])
        at = start[rows, None] + np.arange(1 << size)
        anchors[at], coeffs[at] = a, c
    return np.ascontiguousarray(anchors.T), coeffs, start


def _pair_polynomials(n: int, anchors, coeffs, tstart, p, ii, jj) -> np.ndarray:
    """One row per pair (ii, jj) encoding its ``pairing_polynomial``:
    P, the item count, then (d, c) per item in dict order, zero padded.

    Section i has 2^p[i] terms from ``tstart[i]``.  The term pairs run i's
    terms outer and j's inner, as the dict is filled; d is the popcount of
    the two anchors' XOR and v the product of the coefficients.  A degree
    whose running sum cancels is popped and enters again at the end, so
    items order by the last term pair at which their running sum left zero.
    """
    pair, t = _expand(1 << (p[ii] + p[jj]))
    shift = p[jj][pair]
    a = tstart[ii][pair] + (t >> shift)
    b = tstart[jj][pair] + (t & ((1 << shift) - 1))
    d = np.zeros(len(t), dtype=np.uint16)
    for byte in anchors:
        d += _BYTE_BITS[byte[a] ^ byte[b]]
    v = coeffs[a] * coeffs[b]
    # running sums per (pair, d), each in term order
    key = pair * (n + 1) + d
    order = np.argsort(key, kind="stable")
    key, v, t = key[order], v[order], t[order]
    seg = np.flatnonzero(np.concatenate([[True], key[1:] != key[:-1]]))
    before = np.cumsum(v, dtype=np.int64) - v
    before -= np.repeat(before[seg], np.diff(np.append(seg, len(key))))
    last = np.append(seg[1:], len(key)) - 1
    total = before[last] + v[last]
    entered = np.maximum.reduceat(np.where(before == 0, t, -1), seg)
    keep = np.flatnonzero(total)
    key, total, entered = key[seg[keep]], total[keep], entered[keep]
    # items by pair, then by entry
    order = np.lexsort((entered, key // (n + 1)))
    key, total = key[order], total[order]
    pair = key // (n + 1)
    count = np.bincount(pair, minlength=len(ii))
    rank = np.arange(len(pair)) - np.repeat(np.cumsum(count) - count, count)
    out = np.zeros((len(ii), 2 + 2 * int(count.max(initial=0))), dtype=np.int64)
    out[:, 0], out[:, 1] = p[ii] + p[jj], count
    out[pair, 2 + 2 * rank], out[pair, 3 + 2 * rank] = key % (n + 1), total
    return out


def _intern(encoded: np.ndarray, known: dict, polynomials: list) -> np.ndarray:
    """The id of each ``_pair_polynomials`` row's polynomial: its index in
    ``polynomials``, which ``known`` maps each encoding to and which takes
    the new ones in order of first appearance."""
    rows = encoded.view("V%d" % (8 * encoded.shape[1])).ravel()
    distinct, first, inverse = np.unique(rows, return_index=True, return_inverse=True)
    raws, items = distinct.tolist(), encoded[first, 1].tolist()
    found = [0] * len(raws)
    for u in np.argsort(first).tolist():
        raw = raws[u][:16 + 16 * items[u]]  # the padding depends on the pass
        got = known.get(raw)
        if got is None:
            got = known[raw] = len(polynomials)
            row = np.frombuffer(raw, dtype=np.int64).tolist()
            polynomials.append((row[0], dict(zip(row[2::2], row[3::2]))))
        found[u] = got
    return np.array(found, dtype=np.int64)[inverse.ravel()]


def _spans(work: np.ndarray, limit: int):
    """Consecutive slices (lo, hi) of ``work`` holding at most ``limit``
    in all; a larger item goes alone."""
    done = np.concatenate([[0], np.cumsum(work)])
    lo = 0
    while lo < len(work):
        hi = max(lo + 1, int(np.searchsorted(done, done[lo] + limit, "right")) - 1)
        yield lo, hi
        lo = hi


def pairing_table(h: np.ndarray, k: np.ndarray, r: np.ndarray) -> PairingTable:
    """The ``PairingTable`` of the representatives of distinct canonical
    symbols given as 0/1 rows: h sets, k lists and vertices.

    Pairs whose faces have different cutting sets are left out:
    ``pairing_polynomial`` gives them no coefficient, and their symbols
    differ in the key, which holds the face cutting set, so their limit,
    the symbols' inner product, is 0.  Equal cutting sets mean equal degrees.  The
    vertices are those of ``symbol_vertices``.  The pairs are made row by
    row, in passes of at most ``_TERM_PAIR_CHUNK`` term pairs (or one pair,
    if it has more).
    """
    n = h.shape[1]
    anchors, coeffs, tstart = _basic_terms(h, r)
    p = h.sum(axis=1, dtype=np.int64)
    # the sections by face cutting set, each set's ascending
    _, group, sizes = np.unique(row_keys(k), return_inverse=True, return_counts=True)
    group = group.ravel()
    order = np.argsort(group, kind="stable")
    heads = np.cumsum(sizes) - sizes
    width = sizes[group]
    start = np.concatenate([[0], np.cumsum(width)])
    cols = np.empty(start[-1], dtype=np.int64)
    ids = np.empty(start[-1], dtype=np.int64)
    known: dict[bytes, int] = {}
    polynomials: list = []
    # blocks of rows with at most _TERM_PAIR_CHUNK pairs, then passes of
    # at most as many term pairs
    for lo, hi in _spans(width, _TERM_PAIR_CHUNK):
        ii, off = _expand(width[lo:hi])
        ii += lo
        jj = cols[start[lo]:start[hi]] = order[heads[group[ii]] + off]
        for a, b in _spans(1 << (p[ii] + p[jj]), _TERM_PAIR_CHUNK):
            encoded = _pair_polynomials(n, anchors, coeffs, tstart, p, ii[a:b], jj[a:b])
            ids[start[lo] + a:start[lo] + b] = _intern(encoded, known, polynomials)
    return PairingTable(tuple(polynomials), start, cols, ids)


# -- conjugated differentials --------------------------------------------------------

# (term, member) candidates of one pass of ``frame_terms``
_CANDIDATES = 1 << 16


def _d_t_rows(cplx: CubeComplex, q: int) -> np.ndarray:
    """The rows of ``frame_terms`` for d_t on degree q, the terms' members
    tried a pass at a time."""
    terms, ls = term_table(cplx, q, True), _listing(cplx, q)
    anchor = cplx.cube_arrays(q).anchor
    root = np.empty(len(ls.cubes), dtype=np.intp)  # each cube's class root
    for group in _groups(cplx, q):
        root[group.cols] = np.take_along_axis(
            group.cols, _class_roots(cplx, group, None)[:, None], axis=1)
    cross, across = np.nonzero(cplx.crossing_matrix())  # each h's crossing hyperplanes
    first = np.searchsorted(cross, np.arange(cplx.n_hyperplanes + 1))
    out = [np.zeros((0, 4), dtype=np.int64)]
    for a, b in _spans(ls.size[terms[:, 1]], _CANDIDATES):
        i, j = _expand(ls.size[terms[a:b, 1]])
        i += a
        f = terms[i, 1]
        c, d_f, r = ls.cubes[ls.head[f] + j], ls.dist[ls.row[f] + j], root[f]
        # f on a geodesic from the root r to c: d(r, f) + d(f, c) = d(r, c)
        keep = ls.dist[ls.row[r] + ls.pos[f]].astype(np.intp) + d_f == ls.dist[ls.row[r] + j]
        i, f, c, d_f = i[keep], f[keep], c[keep], d_f[keep]
        # and no hyperplane that separates f from c crosses h
        h = terms[i, 2]
        count = first[h + 1] - first[h]
        keep = np.ones(len(i), dtype=bool)
        for k in range(int(count.max(initial=0))):
            live = np.flatnonzero(count > k)
            g = across[first[h[live]] + k]
            keep[live] &= anchor[f[live], g] == anchor[c[live], g]
        i = i[keep]
        out.append(np.stack([terms[i, 0], c[keep], d_f[keep], terms[i, 3]], axis=1))
    return np.concatenate(out).astype(np.int64, copy=False)


def frame_terms(cplx: CubeComplex, q: int, raising: bool = True) -> np.ndarray:
    """The cached terms of d_t (raising) or delta_t on degree q, in closed form.

    Read-only int64 rows (target, source, exponent, sign) in the layout of
    ``term_table``, so that ``term_product`` joins them.  With x =
    e^(-t^2/2) and b = (1 - x^2)^(1/2), a row is the entry sign b x^exponent
    of d_t = U_t^-1 d U_t, or sign b^-1 x^exponent of delta_t, and an entry
    no row names is 0.  Distances are between members of one class, and a
    class's root is its member nearest the base vertex.

    * d_t: for each term (C, f, h, s) of d and each member c of f's class,
      root r, the row (C, c, d(f, c), s) when f lies on a geodesic from r
      to c, d(r, f) + d(f, c) = d(r, c), and no hyperplane that separates
      f from c crosses h (only h's ``crossing_matrix`` row is tried, so a
      tree pays nothing for it).
    * delta_t: for each term (f, C, h, s) of delta, the rows (f, C, 0, s)
      and (f', C, 1, -s), f' the other facet of C across h (``facets``).

    Neither table is derived from the other or from the Gram matrix:
    ``check field`` tests d_t^T G = G delta_t between them.
    """
    def build():
        if raising:
            out = _d_t_rows(cplx, q)
        else:
            terms = term_table(cplx, q, False)
            facets = cplx.facets(q)[terms[:, 1]]
            j = (facets == terms[:, :1]).argmax(axis=1)
            other = facets[np.arange(len(j)), (j + q) % (2 * q)]
            near = np.stack([other, terms[:, 1], np.ones(len(j), dtype=np.int64), -terms[:, 3]],
                            axis=1)
            out = np.concatenate([terms * [1, 1, 0, 1], near])
        out.flags.writeable = False
        return out

    return cplx.cached(("frame_terms", raising, q, cplx.base_vertex), build)


def adjoint_terms(cplx: CubeComplex, q: int, limit: int) -> Iterator[list]:
    """The term pairs of (1 - x^2) G_hi D(x) - (G_lo Delta(x))^T, where
    d_t = b D(x) on degree q and delta_t = b^-1 Delta(x) on q + 1
    (``frame_terms``), and the Gram blocks G[u, v] = x^d(u, v): that is
    b (G_hi d_t - (G_lo delta_t)^T), zero when d_t^T G_hi = G_lo delta_t.

    Row C' of the product takes each d_t row whose target is in the class
    of C', its exponent raised by their separation, and each delta_t row
    (w, C', e, s) expanded over the members of w's class.  The rows C' go
    in blocks, class by class, that hold at most ``limit`` term pairs (or
    one row), each block as a list of (entry keys ``C' N_q + c``,
    exponents, coefficients).
    """
    d, delta = frame_terms(cplx, q, True), frame_terms(cplx, q + 1, False)
    n, hi, lo = len(cplx.cube_arrays(q).keys), _listing(cplx, q + 1), _listing(cplx, q)
    # d_t rows by the class of their target, delta_t rows by their source in
    # the listing, so a block's rows are one range of each
    d = d[np.argsort(hi.head[d[:, 0]], kind="stable")]
    first, last = (np.searchsorted(hi.head[d[:, 0]], hi.head, side) for side in ("left", "right"))
    place = (hi.head + hi.pos)[delta[:, 1]]
    order = np.argsort(place, kind="stable")
    delta, place = delta[order], place[order]
    work = 2 * (last - first)[hi.cubes] + np.bincount(place, lo.size[delta[:, 0]], len(hi.cubes))
    for a, b in _spans(work, limit):
        y = hi.cubes[a:b]
        i, j = _expand(last[y] - first[y])
        mine, y = d[first[y][i] + j], y[i]
        keys, power = y * n + mine[:, 1], mine[:, 2] + hi.dist[hi.row[y] + hi.pos[mine[:, 0]]]
        theirs = delta[np.searchsorted(place, a):np.searchsorted(place, b)]
        i, j = _expand(lo.size[theirs[:, 0]])
        theirs, w = theirs[i], theirs[i, 0]
        yield [(keys, power, mine[:, 3]), (keys, power + 2, -mine[:, 3]),
               (theirs[:, 1] * n + lo.cubes[lo.head[w] + j],
                theirs[:, 2] + lo.dist[lo.row[w] + j], -theirs[:, 3])]


# -- base-point change ----------------------------------------------------------------


def w_hat_blocks(cplx: CubeComplex, q: int, target_vertex: int, source_vertex: int,
                 t: float | None = None, ab: tuple | None = None) -> list:
    """The blocks of the base-point change on degree-q cochains that
    differ from the identity: it is block diagonal by class.

    One (cols, block) per degree-q class whose member nearest
    ``source_vertex`` is not the one nearest ``target_vertex``; the block
    is the composite crossing move from the first to the second.
    """
    exact = _is_exact(ab)
    ab = _resolve_ab(t, ab)
    out = []
    for group in _groups(cplx, q):
        near, tied = _nearest(cplx, group, (target_vertex, source_vertex))
        if tied.any():
            raise AssertionError("nearest cube in class %s to an endpoint is not unique"
                                 % (group.sets[tied.any(axis=1).argmax()].tolist(),))
        moved = np.flatnonzero(near[:, 0] != near[:, 1])
        if len(moved):
            keys = _geodesics(group, moved, *near[moved].T)
            out.extend(zip(group.cols[moved], _moves_blocks(group, keys, ab, exact)))
    return out

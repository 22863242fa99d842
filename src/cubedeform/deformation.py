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
base-point change and every loop product are block diagonal by class, and
nothing here builds a matrix over all cubes of a degree.  The block store
is one record per (degree, class size), built from the bit rows in array
passes, that stacks those classes' members, bits, separations and
neighbor tables, and caches each crossing move as a row permutation and
a sign vector per (class, H, source side): the move is
X -> B X + A X[perm], B = b on paired rows and 1 elsewhere, A = a * sign,
which in IEEE arithmetic is the 2x2 block form exactly.  Paths follow
breadth-first trees, grown as arrays a level at a time for a batch of
(class, root) pairs of one record, and equal to the trees of a
first-in-first-out search.  One gather runs a move step for all of a
record's classes and for every t of a tuple at once, each t with its own
copy of the move tables scaled by its (a, b): ``class_blocks`` gives the
Gram blocks (powers of x indexed by member separations) and the U_t
blocks per stack, with a leading t axis, and ``pair_blocks`` U^-1 d U on
the class pairs d links, from one class-pair index, one gather of frame
rows, one sorted segment sum (``segment_add``) and one batched solve over
all finite t per stack pair.  ``path_residual`` checks that the moves are
path independent without sampling a walk.  A class spans a CAT(0) cube
complex, whose square complex is simply connected (Sageev 1995; Chepoi
2000 for median graphs), so every closed walk is a product of backtracks
and squares, and the moves compose to the identity around every closed
walk when they do forth and back across every edge and around every
square.  Those products are blocks of two and four members, found through
the move tables' own partners; a block depends only on the signs of its
moves and on (a, b), so the distinct ones are decomposed once per t.

On top of that sit the basic cochains (alternating sums over the parallel
copies of a face inside an ambient cube) and their t-scaled pairings,
whose small-t limits are symbol inner products; the conjugated
differentials d_t and delta_t on class pairs; and the blocks of the
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
    "PairBlocks",
    "PairingTable",
    "basic_cochain",
    "block_floats",
    "class_blocks",
    "deformation_weights",
    "pair_blocks",
    "pairing_polynomial",
    "pairing_table",
    "pairing_value",
    "path_residual",
    "polynomial_value",
    "segment_add",
    "step_coefficients",
    "symbol_representative",
    "w_hat_blocks",
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


def deformation_weights(cplx: CubeComplex, t: float) -> list[float]:
    """Hyperplane weights 1 + min(t, 1) * distance-to-base."""
    _check_t(t)
    slope = min(t, 1.0)
    return [
        1.0 + slope * cplx.dist_hyperplane_to_base(h)
        for h in range(cplx.n_hyperplanes)
    ]


# -- parallelism-class geometry ------------------------------------------------------


class _Group(NamedTuple):
    """The k degree-q parallelism classes of one size m, stacked.

    ``ids`` (their ``class_rows`` ids) and ``sets`` (k, q, the determining
    sets) are in determining-set order.  ``cols`` (k, m) holds each class's
    members in anchor order, as positions among the degree's cubes;
    ``bits`` (k, m, n) their anchor bits as float64, zero on the
    determining hyperplanes as an anchor is its cube's smallest vertex;
    ``dist`` (k, m, m) their separations.

    Members at distance one across H are checked to span a cube.  A
    class's crossing move per (H, source side) is a row of ``perm`` and
    ``sign`` (k, r, m), X -> B X + A X[perm] with B = b where ``sign`` is
    nonzero and 1 elsewhere, A = a sign; row 0 and padding rows are the
    identity.  A move's key is its row in the flattened tables ``moves``,
    so key 0 pads any path.  ``nbr`` (k, m, w) lists each member's
    neighbors ascending, padded with m, and ``back`` the keys of the moves
    from them back, padded with 0.
    """

    ids: np.ndarray
    sets: np.ndarray
    cols: np.ndarray
    bits: np.ndarray
    dist: np.ndarray
    nbr: np.ndarray
    back: np.ndarray
    perm: np.ndarray
    sign: np.ndarray

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
        # both ways of each pair: (class, member, neighbor, move there, move back),
        # the moves across a class's j-th hyperplane in rows 2j + 1 (from the 0-side), 2j + 2
        cls = rows.of[lo]
        pairs, which = np.unique(cls * n + h, return_inverse=True)
        up = 2 * (np.arange(len(pairs)) - np.searchsorted(pairs // n, pairs // n))[which] + 1
        edges = np.concatenate([np.stack((cls, rank[lo], rank[hi], up, up + 1)),
                                np.stack((cls, rank[hi], rank[lo], up + 1, up))], axis=1)
        edges = edges[:, np.lexsort(edges[2::-1])]
        hyperplanes = np.bincount(pairs // n, minlength=len(rows.sizes))
        sizes, seen = np.unique(rows.sizes, return_index=True)
        out = []
        for m in sizes[np.argsort(seen)].tolist():
            ids = np.flatnonzero(rows.sizes == m)
            k, r = len(ids), 2 * int(hyperplanes[ids].max()) + 1
            slot = np.full(len(rows.sizes), -1)
            slot[ids] = np.arange(k)
            c, u, v, fwd, back = edges[:, slot[edges[0]] >= 0]
            c = slot[c]
            fwd, back = fwd + c * r, back + c * r
            perm = np.tile(np.arange(m), (k * r, 1))
            sign = np.zeros(perm.shape, dtype=np.int8)
            perm[fwd, u] = perm[back, u] = v
            sign[fwd, u], sign[back, u] = -1, 1
            node = c * m + u
            degree = np.bincount(node, minlength=k * m)
            at = np.arange(len(node)) - np.repeat(np.cumsum(degree) - degree, degree)
            tables = np.zeros((2, k * m, max(degree, default=0)), dtype=np.intp)
            tables[0], tables[:, node, at] = m, (v, back)
            cols = order[start[ids, None] + np.arange(m)]
            bits = level.anchor[cols].astype(np.float64)
            out.append(_Group(ids, np.nonzero(rows.sets[ids])[1].reshape(k, q), cols, bits,
                              _separations(bits, np.min_scalar_type(n)),
                              *tables.reshape(2, k, m, tables.shape[2]),
                              perm.reshape(k, r, m), sign.reshape(k, r, m)))
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


def _labels(blocks) -> np.ndarray:
    """Per cube of the degree: its stack of ``blocks`` (``_groups`` or
    ``class_blocks``), its class there, its member position."""
    out = np.empty((3, sum(blks.cols.size for blks in blocks)), dtype=np.intp)
    for s, blks in enumerate(blocks):
        out[0, blks.cols] = s
        out[1, blks.cols] = np.arange(len(blks.cols))[:, None]
        out[2, blks.cols] = np.arange(blks.cols.shape[1])
    return out


def _bfs_tables(group: _Group, cls: np.ndarray, roots: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Breadth-first trees in ``group``, one per (class, root) pair.

    Row t of the (R, m) tables is the tree of class ``cls[t]`` rooted at
    member ``roots[t]``: each member's parent and the key of the move from
    it to its parent (the root is its own parent, key 0).  All trees grow
    one level per step, each level in queue order: the neighbors of every
    member of the last level, in its order and each member's in ascending
    order, keep their first appearance.  That is the tree of a
    first-in-first-out search.
    """
    nbr, back = group.nbr, group.back
    m, width = nbr.shape[1:]
    n = len(roots)
    parent = np.tile(np.arange(m), (n, 1))
    key = np.zeros((n, m), dtype=np.intp)
    seen = np.zeros((n, m + 1), dtype=bool)
    seen[:, m] = True
    level = (np.arange(n), np.asarray(roots))  # (tree, member), in queue order
    seen[level] = True
    while len(level[0]):
        tree, member = level
        near = nbr[cls[tree], member]
        tree = np.repeat(tree, width)
        fresh = ~seen[tree, near.ravel()]
        tree, up = tree[fresh], np.repeat(member, width)[fresh]
        slot = np.flatnonzero(fresh)
        member, moved = near.ravel()[slot], back[cls[tree], up, slot % width]
        first = np.sort(np.unique(tree * m + member, return_index=True)[1])
        level = tree[first], member[first]
        parent[level], key[level] = up[first], moved[first]
        seen[level] = True
    if not seen.all():
        raise AssertionError("parallelism class is not connected")
    return parent, key


def _tree_paths(group: _Group, cls, roots, starts) -> np.ndarray:
    """Row i: the move keys of the breadth-first tree path from member
    ``starts[i]`` of class ``cls[i]`` of ``group`` up to member
    ``roots[i]``, padded with the identity key 0.  Each (class, root) pair
    grows one tree."""
    m = group.cols.shape[1]
    trees, tree = np.unique(np.asarray(cls) * m + roots, return_inverse=True)
    parent, key = _bfs_tables(group, trees // m, trees % m)
    node, out = np.asarray(starts), []
    while True:
        step = key[tree, node]
        if not step.any():
            return np.stack(out, axis=1) if out else np.zeros((len(node), 0), dtype=np.intp)
        out.append(step)
        node = parent[tree, node]


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
    later = np.searchsorted(node, node, side="right") - 1 - np.arange(len(node))
    first = np.repeat(np.arange(len(node)), later)
    second = first + 1 + np.arange(len(first)) - np.repeat(np.cumsum(later) - later, later)
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
    """Per degree-q group, the keys (k m, steps) of each member's tree path
    to its class root, rows class by class; kept per base vertex unless
    rerooted."""
    def build():
        out = []
        for group in _groups(cplx, q):
            k, m = group.cols.shape
            roots = _class_roots(cplx, group, class_bases)
            out.append(_tree_paths(group, np.repeat(np.arange(k), m), np.repeat(roots, m),
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
    for group, keys in zip(_groups(cplx, q), _root_paths(cplx, q, class_bases)):
        k, m = group.cols.shape
        # the move tables once per t, each copy with its own (a, b)
        perm, sign = group.moves
        r = len(perm)
        columns = np.tile(np.identity(m), (n * k, 1))
        _rotate(columns, np.tile(perm, (n, 1)), np.tile(sign, (n, 1)),
                (np.repeat(a, r), np.repeat(b, r)),
                (keys + r * np.arange(n)[:, None, None]).reshape(n * len(keys), keys.shape[1]))
        out.append(ClassBlocks(group.cols, np.take(powers, group.dist, axis=1),
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
    tp = 1 << (p[ii] + p[jj])
    pair = np.repeat(np.arange(len(ii)), tp)
    t = np.arange(len(pair)) - np.repeat(np.cumsum(tp) - tp, tp)
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


def _spans(work: np.ndarray):
    """Consecutive slices (lo, hi) of ``work`` holding at most
    ``_TERM_PAIR_CHUNK`` in all; a larger item goes alone."""
    done = np.concatenate([[0], np.cumsum(work)])
    lo = 0
    while lo < len(work):
        hi = max(lo + 1, int(np.searchsorted(done, done[lo] + _TERM_PAIR_CHUNK, "right")) - 1)
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
    for lo, hi in _spans(width):
        span = width[lo:hi]
        ii = np.repeat(np.arange(lo, hi), span)
        off = np.arange(len(ii)) - np.repeat(np.cumsum(span) - span, span)
        jj = cols[start[lo]:start[hi]] = order[heads[group[ii]] + off]
        for a, b in _spans(1 << (p[ii] + p[jj])):
            encoded = _pair_polynomials(n, anchors, coeffs, tstart, p, ii[a:b], jj[a:b])
            ids[start[lo] + a:start[lo] + b] = _intern(encoded, known, polynomials)
    return PairingTable(tuple(polynomials), start, cols, ids)


# -- conjugated differentials --------------------------------------------------------


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


def block_floats(cplx: CubeComplex, q: int) -> int:
    """Floats per t of the largest array that ``class_blocks`` of degree q
    or ``pair_blocks`` of d_q (and so of delta on q + 1) holds: a stack's
    frames, k m^2, or a stack pair's blocks, P m_hi m_lo."""
    groups = _groups(cplx, q)
    most = max(group.cols.size * group.cols.shape[1] for group in groups)
    if q < cplx.dimension:
        upper = _groups(cplx, q + 1)
        pairs = _class_pairs(term_table(cplx, q, True), upper, groups)[0]
        stacks, count = np.unique(pairs >> 42, return_counts=True)
        hs, ls = np.divmod(stacks, len(groups))
        m_hi, m_lo = (np.array([g.cols.shape[1] for g in gs]) for gs in (upper, groups))
        most = max(most, int((count * m_hi[hs] * m_lo[ls]).max(initial=0)))
    return most


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
            keys = _tree_paths(group, moved, *near[moved].T)
            out.extend(zip(group.cols[moved], _moves_blocks(group, keys, ab, exact)))
    return out

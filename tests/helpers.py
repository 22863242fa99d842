"""Shared fixtures and independent oracles for the test suite.

Oracles here recompute facts from first principles (breadth-first search,
exhaustive subset scans) so the tests never trust the code paths they are
checking.
"""

from __future__ import annotations

import csv
import io
import math
import re
from collections import deque
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Iterator, NamedTuple

import mpmath as mp
import numpy as np
import pytest

from cubedeform import (
    CubeComplex,
    cli,
    deformation,
    differential,
    fredholm,
    grid_complex,
    hypercube,
    random_median_complex,
    star_tree,
)
from cubedeform.core import (
    Cube,
    CubeArrays,
    InvalidComplex,
    bit_rows,
    project_bits,
)
from cubedeform.deformation import (
    basic_cochain,
    class_blocks,
    deformation_weights,
    step_coefficients,
    symbol_representative,
    w_hat_blocks,
)
from cubedeform.differential import d_matrix, norm2_bound_sums, weight_vector
from cubedeform.fredholm import base_neighbor, format_t
from cubedeform.parallelism import class_rows
from cubedeform.symbols import (
    PSSymbol,
    basis_keys,
    ps_basis,
    symbol_arrays,
    symbol_key,
    symbol_vertices,
)
from oracles import (
    _hook_term,
    _wedge_term,
    adjacent_cube,
    adjacent_vertex,
    assemble_D,
    base_projection,
    cube_distance_to_vertex,
    cube_index,
    delta_matrix,
    hyperplane_of_mask,
    inv_sqrt_spectral,
    is_cube,
    nearest_cube_vertex,
    pair_blocks,
    ps_d_symbol,
    symbol_from_raw,
    symbol_inner,
    symbol_of_pair,
    u_t_matrix,
    w_path_matrix,
)

FIXTURE_NAMES = ("point", "square", "tripod", "cube3", "grid12")
MORE_FIXTURE_NAMES = ("grid22", "path3", "path4")
# more than 62 hyperplanes: keys wider than one int64
WIDE_FIXTURE_NAMES = ("star70", "path70")
TEST_T_GRID = (0.1, 0.5, 1.0, 2.0, float("inf"))


@lru_cache(maxsize=None)
def fixture(name: str) -> CubeComplex:
    if name == "point":
        return CubeComplex(0, [0], 0)
    if name == "square":
        return CubeComplex(2, [0b00, 0b01, 0b10, 0b11], 0b00)
    if name == "tripod":
        return star_tree(3)
    if name == "cube3":
        return hypercube(3)
    if name == "grid12":
        return grid_complex([1, 2])
    if name == "grid22":
        return grid_complex([2, 2])
    if name == "path3":
        return grid_complex([3])
    if name == "path4":
        return grid_complex([4])
    if name == "star70":
        return star_tree(70)
    if name == "path70":
        return grid_complex([70])
    if name == "star200":
        return star_tree(200)
    raise KeyError(name)


# the complexes every term table is checked on against its per-term oracle
TABLE_CASES = (FIXTURE_NAMES + MORE_FIXTURE_NAMES + WIDE_FIXTURE_NAMES
               + tuple("random%d" % s for s in range(4)))


# the complexes the cube levels and the symbol basis are checked on against
# their construction oracles: the widest keys come from the 200-leaf star
BASIS_CASES = TABLE_CASES + ("star200",)


def table_case(name: str) -> CubeComplex:
    if name.startswith("random"):
        return random_complex(int(name[len("random"):]))
    return fixture(name)


def all_fixtures() -> list[CubeComplex]:
    return [fixture(name) for name in FIXTURE_NAMES]


@lru_cache(maxsize=None)
def random_complex(seed: int, n: int = 7, k: int = 5) -> CubeComplex:
    return random_median_complex(n, k, seed)


def random_complexes(count: int) -> list[CubeComplex]:
    return [random_complex(seed) for seed in range(count)]


# -- independent oracles ---------------------------------------------------------


def oracle_levels(cplx: CubeComplex) -> tuple[tuple[Cube, ...], ...]:
    """Every degree's cubes by a walk over sets of (anchor, cutting) tuples:
    (a, C + (h,)) for each q-cube (a, C) and each h > max C on the 0 side
    of a whose translate (a + h, C) is a q-cube, sorted per degree."""
    levels = [tuple(Cube(v, ()) for v in cplx.vertices)]
    cur = {(v, ()) for v in cplx.vertices}
    while cur:
        nxt = set()
        for anchor, cutting in cur:
            lo = cutting[-1] + 1 if cutting else 0
            for h in range(lo, cplx.n_hyperplanes):
                m = cplx.mask(h)
                if not anchor & m and (anchor ^ m, cutting) in cur:
                    nxt.add((anchor, cutting + (h,)))
        if nxt:
            levels.append(tuple(Cube(a, c) for a, c in sorted(nxt)))
        cur = nxt
    return tuple(levels)


def oracle_cube_arrays(cplx: CubeComplex, cubes: tuple[Cube, ...]) -> CubeArrays:
    """``CubeArrays`` of ``cubes`` one cube at a time: bits from the
    bitstrings, keys the integer anchor-then-complement packed into bytes,
    at least 8 of them, and read as one big-endian uint64 when 8."""
    n, count = cplx.n_hyperplanes, len(cubes)
    width = max(8, (2 * n + 7) // 8)
    anchor = [[int(b) for b in cplx.vertex_bits(c.anchor)] for c in cubes]
    cutting = [[int(h in c.cutting) for h in range(n)] for c in cubes]
    full = (1 << n) - 1
    keys = [((c.anchor << n | full ^ cplx.mask_of(c.cutting)) << (8 * width - 2 * n))
            .to_bytes(width, "big") for c in cubes]
    keys = np.array(keys, dtype="V%d" % width)
    return CubeArrays(np.array(anchor, dtype=np.uint8).reshape(count, n),
                      np.array(cutting, dtype=np.uint8).reshape(count, n),
                      keys.view(">u8") if width == 8 else keys)


def oracle_facets(cplx: CubeComplex, q: int) -> np.ndarray:
    """Per q-cube (a, C), the indices among the (q-1)-cubes of (a, C - h),
    then (a + h, C - h), h in C ascending, each ``Cube`` looked up in
    ``cube_index``."""
    index, rows = cube_index(cplx, q - 1), []
    for cube in cplx.cubes(q):
        rest = [tuple(k for k in cube.cutting if k != h) for h in cube.cutting]
        rows.append([index[Cube(cube.anchor, r)] for r in rest]
                    + [index[Cube(cube.anchor | cplx.mask(h), r)]
                       for h, r in zip(cube.cutting, rest)])
    return np.array(rows, dtype=np.intp).reshape(len(rows), 2 * max(q, 0))


def oracle_crossing(cplx: CubeComplex, levels: tuple[tuple[Cube, ...], ...]) -> np.ndarray:
    """Hyperplane pairs cutting a common square, one square at a time."""
    out = np.zeros((cplx.n_hyperplanes,) * 2, dtype=bool)
    for square in levels[2] if len(levels) > 2 else ():
        a, b = square.cutting
        out[a, b] = out[b, a] = True
    return out


def oracle_ps_basis(cplx: CubeComplex, q: int) -> tuple[PSSymbol, ...]:
    """Canonical degree-q symbols one class and one q-subset at a time,
    sorted by (p, h, k), each at its class's smallest member anchor."""
    syms = []
    for klass in enumerate_classes(cplx) if q >= 0 else ():
        t = klass.determining
        r = min(member.anchor for member in klass.members)
        for k in combinations(t, q):
            syms.append(PSSymbol(tuple(x for x in t if x not in k), k, r, 1))
    return tuple(sorted(syms, key=lambda s: (len(s.h_set), s.h_set, s.k_list)))


class SpectralProfile(NamedTuple):
    """Laplacian data of a single cube.

    q is the dimension, p the number of hyperplanes adjacent to the cube
    that separate it from the base vertex; q_w and p_w are the same counts
    with each hyperplane contributing its squared weight.
    """

    q: int
    p: int
    q_w: float
    p_w: float


def spectral_profile(cplx: CubeComplex, cube: Cube, weights=None) -> SpectralProfile:
    """Dimension and separating-hyperplane counts of a cube, weighted forms
    included, one hyperplane at a time."""
    w = weight_vector(cplx, weights)
    base = cplx.base_vertex
    q_w = sum(w[h] * w[h] for h in cube.cutting)
    p_hs = [
        h for h in range(cplx.n_hyperplanes)
        if h not in cube.cutting
        and adjacent_cube(cplx, cube, h)
        and (cube.anchor ^ base) & cplx.mask(h)
    ]
    p_w = sum(w[h] * w[h] for h in p_hs)
    return SpectralProfile(len(cube.cutting), len(p_hs), q_w, p_w)


def oracle_term_table(cplx: CubeComplex, q: int, raising: bool = True) -> np.ndarray:
    """``term_table`` one cube and one hyperplane at a time, through the
    cochain calculus's ``_wedge_term`` and ``_hook_term``."""
    rows = cube_index(cplx, q + 1 if raising else q - 1)
    term_fn = _wedge_term if raising else _hook_term
    found = []
    for j, cube in enumerate(cplx.cubes(q)):
        for k in range(cplx.n_hyperplanes) if raising else cube.cutting:
            term = term_fn(cplx, k, cube)
            if term is not None:
                found.append((rows[term.cube], j, k, term.sign))
    return np.array(found, dtype=np.int64).reshape(-1, 4)


def ps_delta_symbol(cplx: CubeComplex, sym: PSSymbol) -> dict[tuple, int]:
    """Adjoint differential of one symbol, unsigned-key -> coefficient."""
    out: dict[tuple, int] = {}
    for j, k in enumerate(sym.k_list):
        rest = tuple(x for x in sym.k_list if x != k)
        term = symbol_from_raw(
            cplx, sym.h_set + (k,), rest, sym.r_canonical, sym.sign)
        coeff = term.sign if j & 1 else -term.sign  # (-1)^j, j counted from 1
        key = term[:2]
        out[key] = out.get(key, 0) + coeff
        if not out[key]:
            del out[key]
    return out


def oracle_ps_term_table(cplx: CubeComplex, q: int, raising: bool = True) -> np.ndarray:
    """``ps_term_table`` one symbol at a time, through ``ps_d_symbol`` and
    ``ps_delta_symbol`` over ``ps_basis``."""
    rows = {sym[:2]: i for i, sym in enumerate(ps_basis(cplx, q + 1 if raising else q - 1))}
    image_fn = ps_d_symbol if raising else ps_delta_symbol
    return np.array(
        [(rows[k], j, len(sym.h_set) + q, coeff)
         for j, sym in enumerate(ps_basis(cplx, q))
         for k, coeff in image_fn(cplx, sym).items()],
        dtype=np.int64).reshape(-1, 4)


def bfs_distance(cplx: CubeComplex, source: int, target: int) -> int:
    """Edge-path distance recomputed by plain breadth-first search."""
    if source == target:
        return 0
    seen = {source}
    queue = deque([(source, 0)])
    while queue:
        v, d = queue.popleft()
        for h in range(cplx.n_hyperplanes):
            u = v ^ cplx.mask(h)
            if not cplx.contains_vertex(u) or u in seen:
                continue
            if u == target:
                return d + 1
            seen.add(u)
            queue.append((u, d + 1))
    raise AssertionError("no path between vertices")


def cube_vertices(cplx: CubeComplex, cube: Cube) -> Iterator[int]:
    """The corners of ``cube`` in ascending order."""
    m = cplx.mask_of(cube.cutting)
    sub = 0
    while True:
        yield cube.anchor | sub
        sub = (sub - m) & m  # next submask of m
        if not sub:
            return


def brute_force_cubes(cplx: CubeComplex, q: int) -> set[Cube]:
    """All q-cubes found by scanning every hyperplane subset and vertex."""
    found = set()
    for cutting in combinations(range(cplx.n_hyperplanes), q):
        mask = cplx.mask_of(cutting)
        for v in cplx.vertices:
            anchor = v & ~mask
            corners = [anchor]
            for h in cutting:
                corners = [c | bit for c in corners for bit in (0, cplx.mask(h))]
            if all(cplx.contains_vertex(c) for c in corners):
                found.add(Cube(anchor, cutting))
    return found


def brute_cube_vertex_distance(cplx: CubeComplex, cube: Cube, vertex: int) -> int:
    return min(bfs_distance(cplx, corner, vertex)
               for corner in cube_vertices(cplx, cube))


def oracle_nearest_member(cplx: CubeComplex, vertex: int, klass: ParallelClass,
                          verify: bool = False) -> tuple[Cube, bool]:
    """The first member of ``klass`` closest to ``vertex``, member by member,
    and whether the pair fails: the minimum is not unique or, with ``verify``,
    distances do not add up through that member or a hyperplane separating
    the vertex from it crosses every determining hyperplane."""
    best = None
    best_d = -1
    ties = 0
    for member in klass.members:
        d = cube_distance_to_vertex(cplx, member, vertex)
        if best is None or d < best_d:
            best, best_d, ties = member, d, 1
        elif d == best_d:
            ties += 1
    if best is None:
        raise ValueError("empty parallelism class")
    failed = ties != 1
    if verify:
        for member in klass.members:
            d = cube_distance_to_vertex(cplx, member, vertex)
            if d != best_d + (best.anchor ^ member.anchor).bit_count():
                failed = True
        gate = nearest_cube_vertex(cplx, best, vertex)
        cross = cplx.crossing_matrix()
        sep = vertex ^ gate
        for h in range(cplx.n_hyperplanes):
            if sep & cplx.mask(h):
                if klass.determining and all(cross[h, k] for k in klass.determining):
                    failed = True
    return best, failed


def oracle_unique_nearest(cplx: CubeComplex, vertex: int, klass: ParallelClass) -> Cube:
    best, failed = oracle_nearest_member(cplx, vertex, klass)
    assert not failed
    return best


class GroupClass(NamedTuple):
    """Class ``c`` of a ``deformation._groups`` record, its members, and
    the key of each of its moves by (hyperplane, source side), read off
    its ``perm`` and ``sign`` rows: a move starts on the side of the
    members whose sign is -1."""

    group: object
    c: int
    members: tuple
    move_key: dict


def group_class(cplx: CubeComplex, klass: ParallelClass) -> GroupClass:
    """The ``GroupClass`` of ``klass``: its group found by determining set."""
    want = np.array(klass.determining, dtype=np.intp)
    for group in deformation._groups(cplx, klass.dim):
        hit = np.flatnonzero((group.sets == want).all(axis=1))
        if len(hit):
            c = int(hit[0])
            r = group.perm.shape[1]
            move_key = {}
            for row, (perm, sign) in enumerate(zip(group.perm[c].tolist(),
                                                   group.sign[c].tolist())):
                for i, (j, s) in enumerate(zip(perm, sign)):
                    if s == -1:
                        a = klass.members[i].anchor
                        h = hyperplane_of_mask(cplx, a ^ klass.members[j].anchor)
                        move_key[h, 1 if a & cplx.mask(h) else 0] = c * r + row
            return GroupClass(group, c, klass.members, move_key)
    raise KeyError(klass.determining)


class OracleGeom(NamedTuple):
    """One class's crossing structure, built member by member: member
    positions among the degree's cubes, each move's (perm, sign) rows by
    (hyperplane, source side), and per member the (neighbor, hyperplane,
    side) of its moves, ascending in the neighbor."""

    cols: list
    moves: dict
    steps: list


def oracle_class_geom(cplx: CubeComplex, klass: ParallelClass) -> OracleGeom:
    """The per-class loop over members and hyperplanes that the stacked
    groups replaced: two members are adjacent across H when their anchors
    differ in H alone, and ``adjacent_cube`` must confirm the cube they span."""
    m = len(klass.members)
    index = {c.anchor: i for i, c in enumerate(klass.members)}
    moves: dict = {}
    steps: list = [[] for _ in range(m)]
    for i, member in enumerate(klass.members):
        for h in range(cplx.n_hyperplanes):
            mask = cplx.mask(h)
            if h in member.cutting or member.anchor & mask:
                continue  # handle each pair from its 0-side
            j = index.get(member.anchor ^ mask)
            if j is None:
                continue
            if not adjacent_cube(cplx, member, h):
                raise AssertionError("class members at distance one across %d span no cube" % h)
            for side, u, v in ((0, i, j), (1, j, i)):
                perm, sign = moves.setdefault((h, side), (list(range(m)), [0] * m))
                perm[u], perm[v], sign[u], sign[v] = v, u, -1, 1
                steps[u].append((v, h, side))
    index = cube_index(cplx, klass.dim)
    return OracleGeom([index[c] for c in klass.members], moves, [sorted(s) for s in steps])


def oracle_classes(cplx: CubeComplex) -> tuple[ParallelClass, ...]:
    """Every class from a dict of cube tuples per cutting set, sorted by
    (dimension, determining set), members sorted."""
    groups: dict = {}
    for q in range(cplx.dimension + 1):
        for cube in cplx.cubes(q):
            groups.setdefault(cube.cutting, []).append(cube)
    return tuple(ParallelClass(key, tuple(sorted(groups[key])))
                 for key in sorted(groups, key=lambda k: (len(k), k)))


def _oracle_steps(cplx: CubeComplex, view: GroupClass) -> list[list[tuple[int, int]]]:
    """Per member: (neighbor, key of the move to it), ascending in the
    neighbor, from the anchors (members at distance one) and ``move_key``."""
    anchors = [m.anchor for m in view.members]
    out = []
    for a in anchors:
        row = []
        for j, b in enumerate(anchors):
            if (a ^ b).bit_count() == 1:
                h = hyperplane_of_mask(cplx, a ^ b)
                row.append((j, view.move_key[h, 1 if a & cplx.mask(h) else 0]))
        out.append(row)
    return out


def oracle_tree(cplx: CubeComplex, view: GroupClass, root: int) -> list:
    """The breadth-first tree of a class rooted at ``root``, one member at
    a time off a first-in-first-out queue, neighbors in ascending order.

    Entry i is (parent index, key of the move from member i to its
    parent), or None at the root.
    """
    steps = _oracle_steps(cplx, view)
    out: list = [None] * len(steps)
    seen = {root}
    queue = deque([root])
    while queue:
        i = queue.popleft()
        for j, _ in steps[i]:
            if j not in seen:
                seen.add(j)
                back = dict(steps[j])[i]
                out[j] = (i, back)
                queue.append(j)
    assert len(seen) == len(steps)
    return out


def oracle_path_keys(tree: list, start: int) -> list[int]:
    """Move keys of the ``oracle_tree`` path from ``start`` up to the root."""
    keys = []
    while tree[start] is not None:
        start, key = tree[start]
        keys.append(key)
    return keys


def random_loop_residual(cplx: CubeComplex, rng, t: float,
                         loops: int = 20, walk_length: int = 8) -> float:
    """Worst deviation from the identity over random closed member walks.

    Each loop walks randomly through a parallelism class and returns to the
    start along the deterministic tree path, so the two halves are genuinely
    different paths whenever the class has cycles.
    """
    worst = 0.0
    for klass in enumerate_classes(cplx):
        members = klass.members
        if len(members) < 2:
            continue
        for _ in range(loops):
            start = members[int(rng.integers(len(members)))]
            cur = start
            prod = np.eye(len(members))
            for _step in range(walk_length):
                nbrs = [m for m in members
                        if (m.anchor ^ cur.anchor).bit_count() == 1]
                if not nbrs:
                    break
                nxt = nbrs[int(rng.integers(len(nbrs)))]
                h = hyperplane_of_mask(cplx, cur.anchor ^ nxt.anchor)
                prod = oracle_w_step_matrix(cplx, cur, h, t) @ prod
                cur = nxt
            prod = w_path_matrix(cplx, start, cur, t) @ prod
            worst = max(worst,
                        float(np.linalg.norm(prod - np.eye(len(members)), 2)))
    return worst


def adjacent_vertex_pairs(cplx: CubeComplex) -> list[tuple[int, int]]:
    out = []
    for v in cplx.vertices:
        for h in range(cplx.n_hyperplanes):
            u = v ^ cplx.mask(h)
            if cplx.contains_vertex(u) and v < u:
                out.append((v, u))
    return out


# -- dense frame operators: the deformation's blocks handed out whole ----------


def w_step_matrix(cplx: CubeComplex, cube: Cube, h: int, t: float | None = None,
                  ab: tuple | None = None) -> np.ndarray:
    """The crossing move of hyperplane ``h`` away from ``cube``.

    A square matrix over the members of the cube's parallelism class in
    canonical member order: the cached move of ``h`` from the cube's side,
    applied to the identity.  ``ab`` overrides the mixing coefficients
    (exact scalars allowed); otherwise they come from ``t``.
    """
    if not adjacent_cube(cplx, cube, h):
        raise ValueError("cube %r is not adjacent to hyperplane %d" % (cube, h))
    view = group_class(cplx, class_of(cplx, cube.cutting))
    key = view.move_key[h, 1 if cube.anchor & cplx.mask(h) else 0]
    return deformation._moves_blocks(view.group, np.array([[key]]), deformation._resolve_ab(t, ab),
                                      deformation._is_exact(ab))[0]


def d_t_matrix(cplx: CubeComplex, q: int, t: float, weighted: bool = False) -> np.ndarray:
    """The differential seen through the t-frame on degree q, U^(-1) d U by
    one dense solve, with the distance-graded weights when ``weighted``:
    the oracle of ``pair_blocks``.  At t = infinity U is the identity."""
    w = deformation_weights(cplx, t) if weighted else None
    return np.linalg.solve(u_t_matrix(cplx, q + 1, t),
                           d_matrix(cplx, q, w) @ u_t_matrix(cplx, q, t))


def delta_t_matrix(cplx: CubeComplex, q: int, t: float, weighted: bool = False) -> np.ndarray:
    """The adjoint differential through the t-frame on degree q, densely."""
    w = deformation_weights(cplx, t) if weighted else None
    return np.linalg.solve(u_t_matrix(cplx, q - 1, t),
                           delta_matrix(cplx, q, w) @ u_t_matrix(cplx, q, t))


def negate_one_term(monkeypatch, module, name, q, raising, row):
    """Every path, dense and joined, reads the table with one term negated."""
    table = getattr(module, name)

    def sabotaged(cplx, degree, up=True):
        out = table(cplx, degree, up)
        if (degree, up) == (q, raising):
            out = out.copy()
            out[row, 3] *= -1
        return out

    monkeypatch.setattr(module, name, sabotaged)
    for reader in (cli, deformation, fredholm):
        if hasattr(reader, name):
            monkeypatch.setattr(reader, name, sabotaged)


def one_t(blocks) -> list:
    """``class_blocks`` or ``pair_blocks`` at a one-element t tuple, their
    t axis dropped."""
    return [b._replace(**{f: getattr(b, f)[0] for f in ("gram", "frame", "block")
                          if f in b._fields}) for b in blocks]


def pair_blocks_matrix(cplx: CubeComplex, q: int, t: float, raising: bool = True) -> np.ndarray:
    """``pair_blocks`` of d (raising) or delta on degree q, scattered dense:
    each class pair's block on its members' rows and columns.  Each class
    pair must come once, ascending within its stack pair."""
    hi, lo = class_blocks(cplx, q + 1 if raising else q - 1, (t,)), class_blocks(cplx, q, (t,))
    out = np.zeros((sum(b.cols.size for b in hi), sum(b.cols.size for b in lo)))
    seen = set()
    for part in one_t(pair_blocks(differential.term_table(cplx, q, raising), hi, lo, (t,))):
        assert part.stacks not in seen
        seen.add(part.stacks)
        keys = (part.hi << 32) + part.lo
        assert (np.diff(keys) > 0).all()
        rows, cols = hi[part.stacks[0]].cols[part.hi], lo[part.stacks[1]].cols[part.lo]
        out[rows[:, :, None], cols[:, None, :]] = part.block
    return out


# -- the field suite one t at a time: the oracle of cli._suite_field ------------


def oracle_field_frames(cplx: CubeComplex, t_grid: tuple | None) -> dict:
    """``gram_psd`` and ``unitarity_bridge`` of ``check field``, one t of its
    grid at a time, the class blocks built for that t alone."""
    psd = bridge = 0.0
    for t in t_grid or (0.1, 0.5, 1.0, 2.0, float("inf")):
        for q in range(cplx.dimension + 1):
            for blks in one_t(class_blocks(cplx, q, (t,))):
                psd = max(psd, -float(np.linalg.eigvalsh(blks.gram)[:, 0].min()))
                bridge = max(bridge, float(np.abs(
                    blks.frame.transpose(0, 2, 1) @ blks.frame - blks.gram).max()))
    return {"gram_psd": psd, "unitarity_bridge": bridge}


def oracle_path_residual(cplx: CubeComplex, ts) -> float:
    """``path_residual`` from whole-class matrices written by
    ``oracle_w_step_matrix``: per class and t, back after forth across each
    of its hyperplanes, and W2^-1 W1^-1 W2 W1 for each two of them that
    cross in the class, that is, cut a cube two degrees up together with
    its determining set."""
    worst = 0.0
    for klass in enumerate_classes(cplx):
        det, members = klass.determining, klass.members
        hyperplanes = sorted({hyperplane_of_mask(cplx, u.anchor ^ v.anchor)
                              for u, v in combinations(members, 2)
                              if (u.anchor ^ v.anchor).bit_count() == 1})
        up = len(det) + 2
        above = {c.cutting for c in cplx.cubes(up)} if up <= cplx.dimension else ()
        crossing = [(h1, h2) for h1, h2 in combinations(hyperplanes, 2)
                    if tuple(sorted(det + (h1, h2))) in above]
        eye = np.identity(len(members))
        for t in ts:
            forth = {h: oracle_w_step_matrix(cplx, Cube(0, det), h, t) for h in hyperplanes}
            back = {h: oracle_w_step_matrix(cplx, Cube(cplx.mask(h), det), h, t)
                    for h in hyperplanes}
            products = [back[h] @ forth[h] for h in hyperplanes]
            products += [back[h2] @ back[h1] @ forth[h2] @ forth[h1] for h1, h2 in crossing]
            for product in products:
                worst = max(worst, float(np.linalg.norm(product - eye, 2)))
    return worst


def oracle_field_residuals(cplx: CubeComplex, t_grid: tuple | None) -> dict:
    """Every float residual of ``check field``: ``oracle_field_frames``,
    ``oracle_path_residual`` over the finite t's of the loop grid and the
    base-point change; not the exact ``d_t_squared`` and ``d_t_adjoint``."""
    loop_grid = [t for t in t_grid or (0.3, 1.0) if t != float("inf")]
    unitary = 0.0
    neighbor = base_neighbor(cplx)
    if neighbor is not None:
        for q in range(cplx.dimension + 1):
            for _, block in w_hat_blocks(cplx, q, neighbor, cplx.base_vertex, t=1.0):
                unitary = max(unitary, float(np.abs(block.T @ block - np.eye(len(block))).max()))
    return {**oracle_field_frames(cplx, t_grid),
            "path_independence": oracle_path_residual(cplx, loop_grid),
            "w_hat_unitary": unitary}


def _term_matrix(cplx: CubeComplex, q: int, raising: bool, h: int) -> np.ndarray:
    """Hyperplane h's terms of d (raising) or delta, read through the module
    so that a patched ``term_table`` shows."""
    terms = differential.term_table(cplx, q, raising)
    terms = terms[terms[:, 2] == h]
    out = np.zeros((len(cplx.cubes(q + 1 if raising else q - 1)), len(cplx.cubes(q))),
                   dtype=np.int64)
    out[terms[:, 0], terms[:, 1]] = terms[:, 3]
    return out


def wedge_matrix(cplx: CubeComplex, h: int, q: int) -> np.ndarray:
    """Matrix of wedge(h, .) from degree q to q+1: the hyperplane-h terms of d."""
    return _term_matrix(cplx, q, True, h)


def hook_matrix(cplx: CubeComplex, h: int, q: int) -> np.ndarray:
    """Matrix of hook(h, .) from degree q to q-1: the hyperplane-h terms of delta."""
    return _term_matrix(cplx, q, False, h)


# -- theorem checks and dense views that reach no command ------------------------


def class_count_theorem(cplx: CubeComplex) -> tuple[int, int]:
    """(vertex count, class count); the two are asserted equal."""
    n_vertices = cplx.n_vertices
    n_classes = len(enumerate_classes(cplx))
    if n_vertices != n_classes:
        raise AssertionError(
            "vertex/class count mismatch: %d vertices, %d classes"
            % (n_vertices, n_classes))
    return n_vertices, n_classes


def nearest_moves_across_edge(
    cplx: CubeComplex,
    p: int,
    q: int,
    klass: ParallelClass,
) -> int | None:
    """How the nearest member changes across the edge from ``p`` to ``q``.

    Returns None when both endpoints share a nearest cube, otherwise the
    id of the hyperplane separating ``p`` from ``q``, across which the two
    nearest cubes are opposite faces of a common higher cube.  Any other
    configuration raises.
    """
    diff = p ^ q
    if diff.bit_count() != 1:
        raise ValueError("vertices %s and %s are not adjacent"
                         % (cplx.vertex_bits(p), cplx.vertex_bits(q)))
    near_p = nearest_in_class(cplx, p, klass)
    near_q = nearest_in_class(cplx, q, klass)
    if near_p == near_q:
        return None
    h = hyperplane_of_mask(cplx, diff)
    if near_p.anchor ^ near_q.anchor != diff:
        raise AssertionError(
            "nearest cubes differ other than across the edge hyperplane")
    anchor = near_p.anchor & ~diff
    cutting = tuple(sorted(near_p.cutting + (h,)))
    if not is_cube(cplx, anchor, cutting):
        raise AssertionError(
            "nearest cubes are not opposite faces of a cube cut by %d" % h)
    return h


def pair_distance(cplx: CubeComplex, d1: Cube, d2: Cube) -> int | float:
    """Number of hyperplanes separating two parallel cubes; inf otherwise."""
    if d1.cutting != d2.cutting:
        return math.inf
    return (d1.anchor ^ d2.anchor).bit_count()


def basic_cochain_vector(cplx: CubeComplex, pair, orientation) -> np.ndarray:
    """``basic_cochain`` as a dense vector over the degree's cubes."""
    index = cube_index(cplx, len(pair.d.cutting))
    out = np.zeros(len(index), dtype=np.int64)
    for cube, coeff in basic_cochain(cplx, pair, orientation).items():
        out[index[cube]] = coeff
    return out


# -- frame oracles: per-entry assembly and row-pair moves, nothing cached -------


def oracle_w_step_matrix(cplx: CubeComplex, cube: Cube, h: int,
                         t: float | None = None, ab: tuple | None = None) -> np.ndarray:
    """The crossing move of ``h`` away from ``cube``, written entry by entry.

    The 2x2 block on every pair of class members across ``h``, with u on
    the cube's side: W e_u = b e_u + a e_v, W e_v = -a e_u + b e_v.
    """
    a, b = ab if ab is not None else step_coefficients(t)
    exact = ab is not None and not isinstance(a, float)
    members = class_of(cplx, cube.cutting).members
    index = {m.anchor: i for i, m in enumerate(members)}
    mask = cplx.mask(h)
    out = np.identity(len(members), dtype=object if exact else np.float64)
    for u, member in enumerate(members):
        v = index.get(member.anchor ^ mask)
        if v is None or member.anchor & mask != cube.anchor & mask:
            continue
        out[u, u] = b
        out[v, u] = a
        out[u, v] = -a
        out[v, v] = b
    return out


def oracle_gram_matrix(cplx: CubeComplex, q: int, t: float) -> np.ndarray:
    """exp(-t^2 d / 2) written entry by entry, d the popcount of the anchors' xor."""
    x = math.exp(-t * t / 2.0)
    index = cube_index(cplx, q)
    out = np.zeros((len(index), len(index)))
    for klass in enumerate_classes(cplx):
        if klass.dim != q:
            continue
        cols = [index[m] for m in klass.members]
        for i, m1 in enumerate(klass.members):
            for j, m2 in enumerate(klass.members):
                out[cols[i], cols[j]] = x ** (m1.anchor ^ m2.anchor).bit_count()
    return out


def oracle_u_t_matrix(cplx: CubeComplex, q: int, t: float,
                      class_bases: dict | None = None) -> np.ndarray:
    """U_t entry by entry: column c is the row-pair move from c to its root."""
    index = cube_index(cplx, q)
    out = np.zeros((len(index), len(index)))
    for klass in enumerate_classes(cplx):
        if klass.dim != q:
            continue
        root = (class_bases or {}).get(klass.determining) or \
            oracle_unique_nearest(cplx, cplx.base_vertex, klass)
        for j, member in enumerate(klass.members):
            column = oracle_w_path_matrix(cplx, root, member, t)[:, j]
            for i, other in enumerate(klass.members):
                if column[i]:
                    out[index[other], index[member]] = column[i]
    return out


def _oracle_tree_path(cplx: CubeComplex, members, root: int, start: int) -> list:
    """(hyperplane, side of the moving member) steps from start up to root.

    The breadth-first tree takes neighbors (members at distance one)
    first-in-first-out in ascending anchor order.
    """
    anchors = [m.anchor for m in members]
    parent = {root: None}
    queue = deque([root])
    while queue:
        i = queue.popleft()
        for j, anchor in enumerate(anchors):
            if j not in parent and (anchors[i] ^ anchor).bit_count() == 1:
                parent[j] = i
                queue.append(j)
    steps = []
    i = start
    while i != root:
        j = parent[i]
        h = hyperplane_of_mask(cplx, anchors[i] ^ anchors[j])
        steps.append((h, 1 if anchors[i] & cplx.mask(h) else 0))
        i = j
    return steps


def oracle_w_path_matrix(cplx: CubeComplex, target: Cube, source: Cube,
                         t: float | None = None, ab: tuple | None = None) -> np.ndarray:
    """The composite move applied one row pair at a time, in the 2x2 block form."""
    a, b = ab if ab is not None else step_coefficients(t)
    exact = ab is not None and not isinstance(a, float)
    members = class_of(cplx, target.cutting).members
    index = {m.anchor: i for i, m in enumerate(members)}
    out = np.identity(len(members), dtype=object if exact else np.float64)
    for h, side in _oracle_tree_path(cplx, members, index[target.anchor],
                                     index[source.anchor]):
        mask = cplx.mask(h)
        for u, member in enumerate(members):
            v = index.get(member.anchor ^ mask)
            if v is None or (1 if member.anchor & mask else 0) != side:
                continue
            ru = b * out[u] - a * out[v]
            rv = a * out[u] + b * out[v]
            out[u] = ru
            out[v] = rv
    return out


def oracle_w_hat_matrix(cplx: CubeComplex, q: int, target_vertex: int,
                        source_vertex: int, t: float | None = None,
                        ab: tuple | None = None) -> np.ndarray:
    """Base-point change with each class block copied entry by entry."""
    exact = ab is not None and not isinstance(ab[0], float)
    index = cube_index(cplx, q)
    out = np.identity(len(index), dtype=object if exact else np.float64)
    for klass in enumerate_classes(cplx):
        if klass.dim != q:
            continue
        near_t = oracle_unique_nearest(cplx, target_vertex, klass)
        near_s = oracle_unique_nearest(cplx, source_vertex, klass)
        if near_t == near_s:
            continue
        block = oracle_w_path_matrix(cplx, near_t, near_s, t, ab)
        cols = [index[m] for m in klass.members]
        for i, gi in enumerate(cols):
            for j, gj in enumerate(cols):
                out[gi, gj] = block[i, j]
    return out


# -- ingest oracles: the cubic scans that validation used before the hull ------


def oracle_median_violation(vertices) -> tuple[int, int, int] | None:
    """First triple, in scan order, whose majority is not in ``vertices``.

    Scans u <= v <= w over the sorted vertices, so it names the same triple
    as the int64 scan in ``CubeComplex._median_violation`` at any width.
    """
    verts = sorted(vertices)
    vset = set(verts)
    for i, u in enumerate(verts):
        for j in range(i, len(verts)):
            v = verts[j]
            uv_and, uv_xor = u & v, u ^ v
            for w in verts[j:]:
                if (uv_and | (w & uv_xor)) not in vset:
                    return u, v, w
    return None


def oracle_median_closure(seeds) -> frozenset[int]:
    """Semi-naive fixpoint: each round forms majorities with a fresh vertex."""
    closed = set(seeds)
    frontier = list(closed)
    while frontier:
        current = list(closed)
        fresh = set()
        for a in frontier:
            for i, b in enumerate(current):
                ab_and = a & b
                ab_xor = a ^ b
                for c in current[i:]:
                    m = ab_and | (c & ab_xor)
                    if m not in closed:
                        fresh.add(m)
        closed |= fresh
        frontier = list(fresh)
    return frozenset(closed)


def oracle_bounded_geometry(cplx: CubeComplex) -> int:
    """Largest number of cubes meeting one cube, by unions of incidence sets."""
    incident: dict[int, list[tuple[int, int]]] = {v: [] for v in cplx.vertices}
    levels = [cplx.cubes(q) for q in range(cplx.dimension + 1)]
    for q, level in enumerate(levels):
        for i, cube in enumerate(level):
            for v in cube_vertices(cplx, cube):
                incident[v].append((q, i))
    best = 0
    for level in levels:
        for cube in level:
            met: set[tuple[int, int]] = set()
            for v in cube_vertices(cplx, cube):
                met.update(incident[v])
            best = max(best, len(met))
    return best


# -- pairing oracles: nothing cached, every constant recomputed per call ---------


def oracle_pairing_polynomial(cplx, pair1, o1, pair2, o2):
    """(P, coeffs) of the scaled pairing, rebuilt from both cochains."""
    f1 = basic_cochain(cplx, pair1, o1)
    f2 = basic_cochain(cplx, pair2, o2)
    coeffs = {}
    for c1, a1 in f1.items():
        for c2, a2 in f2.items():
            if c1.cutting != c2.cutting:
                continue
            d = (c1.anchor ^ c2.anchor).bit_count()
            total = coeffs.get(d, 0) + a1 * a2
            if total:
                coeffs[d] = total
            else:
                coeffs.pop(d, None)
    power = len(pair1.complementary) + len(pair2.complementary)
    return power, coeffs


def oracle_pairing_value(cplx, pair1, o1, pair2, o2, t):
    """t^(-P) sum_d coeffs[d] x^d at 50 digits, x = e^(-t^2/2) made afresh."""
    power, coeffs = oracle_pairing_polynomial(cplx, pair1, o1, pair2, o2)
    if t == math.inf:
        return float(coeffs.get(0, 0)) if power == 0 else 0.0
    with mp.workdps(50):
        tt = mp.mpf(t)
        x = mp.e ** (-tt * tt / 2)
        total = mp.mpf(0)
        for d, c in coeffs.items():
            total += c * x ** d
        return float(total * tt ** (-power))


def oracle_pairing_limit(cplx, pair1, o1, pair2, o2):
    return symbol_inner(symbol_of_pair(cplx, pair1, o1), symbol_of_pair(cplx, pair2, o2))


def symbol_pairs(cplx):
    """Every same-degree pair of symbol representatives, as two (key, pair, o)."""
    out = []
    for q in range(cplx.dimension + 1):
        reps = [(symbol_key(sym, cplx),) + symbol_representative(cplx, sym)
                for sym in ps_basis(cplx, q)]
        out.extend((r1, r2) for r1 in reps for r2 in reps)
    return out


def oracle_select_symbols(cplx, keys):
    """``symbols.select_symbols`` from the whole basis: every degree's
    ``basis_keys`` written and its rows stacked, then the named symbols
    kept in basis order.  KeyError names the first of ``keys`` that is not
    a basis key."""
    degrees = range(cplx.dimension + 1)
    every = [key for q in degrees for key in basis_keys(cplx, q)]
    rows = [symbol_arrays(cplx, q) for q in degrees]
    h, k = np.concatenate([a.h for a in rows]), np.concatenate([a.k for a in rows])
    r = np.concatenate([symbol_vertices(cplx, q) for q in degrees])
    known = set(every)
    for key in keys:
        if key not in known:
            raise KeyError(key)
    keep = set(keys)
    index = [i for i, key in enumerate(every) if key in keep]
    return [every[i] for i in index], h[index], k[index], r[index]


def oracle_sweep_csv(cplx, t_grid):
    """The ``sweep`` CSV built from the oracles: limit rows, then each t."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["t", "row_key", "col_key", "value"])
    pairs = symbol_pairs(cplx)
    for (key1, p1, o1), (key2, p2, o2) in pairs:
        value = float(oracle_pairing_limit(cplx, p1, o1, p2, o2))
        writer.writerow([format_t(0.0), key1, key2, repr(value)])
    for t in sorted(set(t_grid)):
        for (key1, p1, o1), (key2, p2, o2) in pairs:
            value = oracle_pairing_value(cplx, p1, o1, p2, o2, t)
            writer.writerow([format_t(t), key1, key2, repr(value)])
    return buf.getvalue()


# -- spectral oracles: dense solves, SVDs and exact 2-norms per call ------------


def oracle_raising(cplx, weights=None):
    """The graded d, its blocks ``d_matrix`` below the diagonal, as floats."""
    offs = np.cumsum([0] + [len(cplx.cubes(q)) for q in range(cplx.dimension + 1)])
    out = np.zeros((offs[-1], offs[-1]))
    for q in range(cplx.dimension):
        out[offs[q + 1]:offs[q + 2], offs[q]:offs[q + 1]] = d_matrix(cplx, q, weights)
    return out


def scatter(n: int, keys: np.ndarray, sums: np.ndarray) -> np.ndarray:
    """The n x n matrix whose entry ``keys // n, keys % n`` is ``sums``:
    a grouped sum of the joins as a dense array."""
    out = np.zeros((n, n))
    out[keys // n, keys % n] = sums
    return out


def norm2_bound(matrix: np.ndarray) -> float:
    """The upper bound sqrt(|M|_1 |M|_inf) on the spectral norm |M|_2."""
    if not matrix.size:
        return 0.0
    a = np.abs(matrix)
    return math.sqrt(float(a.sum(axis=0).max()) * float(a.sum(axis=1).max()))


class DenseFrame(NamedTuple):
    """The spectral frame of ``fredholm.SpectralFrame`` from dense products.

    ``s`` is the graded S = D_w as an N x N array; ``lam`` the diagonal of
    G = A^T A for A = S + P, P the projection onto graded index ``base``;
    ``rho`` the off-diagonal absolute row sums of G; ``root`` is
    ``lam ** -0.5``.  The degree-raising half of S is its strictly lower
    triangle.  Defects are dense N x N arrays.
    """

    s: np.ndarray
    base: int
    lam: np.ndarray
    rho: np.ndarray
    root: np.ndarray

    @classmethod
    def of(cls, s: np.ndarray, base: int) -> "DenseFrame":
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
        dprime = np.tril(self.s, -1) * self.root
        out = dprime.T @ dprime
        out += dprime @ dprime.T
        return self._less_target(out)

    def resolvent_bounds(self, lambdas: Iterable[float]) -> list[dict]:
        """Gershgorin upper bounds on |(A + i lambda)^(-1)|_2."""
        skew = np.abs(self.s - self.s.T).sum(axis=1)
        out = []
        for mu in lambdas:
            radius = self.rho + abs(mu) * skew
            low = float((self.lam - radius).min()) + mu * mu
            high = float((self.lam + radius).max()) + mu * mu
            smallest = math.sqrt(max(low, 0.0))
            if not smallest > 1e-13 * math.sqrt(high):
                raise np.linalg.LinAlgError(
                    "matrix + %r is singular to working precision "
                    "(smallest singular value %.3e)" % (1j * mu, smallest))
            out.append({"lambda": mu, "norm": 1.0 / math.sqrt(low),
                        "bound": 1.0 / abs(1 + 1j * mu)})
        return out


def assert_frames_agree(frame, dense: DenseFrame, lambdas=(0.0, 1.0, 10.0)) -> None:
    """A joined ``fredholm.SpectralFrame`` against the dense frame of the
    same S: lam, rho, root and skew, both defects entry by entry and their
    bounds, and the resolvent norms or the same refusal, within 1e-14
    (relative to the largest entry, which may exceed 1, for the vectors)."""
    n = len(dense.lam)
    for got, want in ((frame.lam, dense.lam), (frame.rho, dense.rho), (frame.root, dense.root),
                      (frame.skew, np.abs(dense.s - dense.s.T).sum(axis=1))):
        assert np.abs(got - want).max() <= 1e-14 * max(1.0, want.max())
    for got, want in ((frame.fredholm_defect(), dense.fredholm_defect()),
                      (frame.homotopy_defect(), dense.homotopy_defect())):
        assert np.abs(scatter(n, *got) - want).max() <= 1e-14
        assert abs(norm2_bound_sums(n, *got) - norm2_bound(want)) <= 1e-14
    for mu in lambdas:
        try:
            (want,) = dense.resolvent_bounds((mu,))
        except ValueError as exc:
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                frame.resolvent_bounds((mu,))
            continue
        (got,) = frame.resolvent_bounds((mu,))
        assert got["lambda"] == want["lambda"] and got["bound"] == want["bound"]
        assert abs(got["norm"] - want["norm"]) <= 1e-14


def dense_frame(cplx, t, weighted=False) -> DenseFrame:
    """The frame at t from ``assemble_D``, with deformation weights if ``weighted``."""
    w = deformation_weights(cplx, t) if weighted else None
    return DenseFrame.of(assemble_D(cplx, w).astype(np.float64),
                         cplx.vertex_index(cplx.base_vertex))


def _oracle_shifted_square(cplx, t, weighted):
    w = deformation_weights(cplx, t) if weighted else None
    s = assemble_D(cplx, w).astype(np.float64)
    p = base_projection(cplx).astype(np.float64)
    return w, s, p, p + s @ s


def oracle_fredholm_residual(cplx, t, weighted=False):
    """|F^2 - (I - P (P + D^2)^(-1))|_2 exactly, the inverse by a solve."""
    _, s, p, shifted = _oracle_shifted_square(cplx, t, weighted)
    f = s @ inv_sqrt_spectral(shifted)
    eye = np.eye(s.shape[0])
    target = eye - p @ np.linalg.solve(shifted, eye)
    return float(np.linalg.norm(f @ f - target, 2))


def oracle_homotopy_residual(cplx, t, weighted=False):
    """|h d' + d' h - (I - P (P + D^2)^(-1))|_2 exactly, d' from the blocks ``d_matrix``."""
    w, s, p, shifted = _oracle_shifted_square(cplx, t, weighted)
    raising = oracle_raising(cplx, w)
    dprime = raising @ inv_sqrt_spectral(shifted)
    h = dprime.T
    eye = np.eye(s.shape[0])
    target = eye - p @ np.linalg.solve(shifted, eye)
    return float(np.linalg.norm(h @ dprime + dprime @ h - target, 2))


def resolvent(matrix, z):
    """Dense inverse of matrix + z, guarding against near-singularity."""
    a = np.asarray(matrix, dtype=np.complex128) + z * np.eye(matrix.shape[0])
    sv = np.linalg.svd(a, compute_uv=False)
    if sv[-1] <= 1e-13 * sv[0]:
        raise ValueError(
            "matrix + %r is singular to working precision "
            "(smallest singular value %.3e)" % (z, float(sv[-1])))
    return np.linalg.solve(a, np.eye(matrix.shape[0], dtype=np.complex128))


def oracle_resolvent_bounds(cplx, t, lambdas, weighted=False):
    """Resolvent norms by a dense SVD-guarded solve and an SVD 2-norm."""
    _, s, p, _ = _oracle_shifted_square(cplx, t, weighted)
    return [{
        "lambda": lam,
        "norm": float(np.linalg.norm(resolvent(s + p, 1j * lam), 2)),
        "bound": 1.0 / abs(1 + 1j * lam),
    } for lam in lambdas]


def oracle_inv_sqrt_integral(matrix, nodes=200):
    """The quadrature (2/pi) int (s^2 + T)^(-1) ds by one dense solve per node:
    the midpoint rule on s = c tan(theta), c = (low high)^(1/4) from the
    ends of T's spectrum."""
    t = np.asarray(matrix, dtype=np.float64)
    spectrum = np.linalg.eigvalsh(t)
    eye = np.eye(t.shape[0])
    acc = np.zeros_like(t)
    for s2, w in zip(*fredholm._rule(float(spectrum[0]), float(spectrum[-1]), nodes)):
        acc += w * np.linalg.solve(s2 * eye + t, eye)
    return (2.0 / math.pi) * acc


# -- the tuple class model: the oracle of cli._suite_parallel --------------------
#
# Classes as tuples of ``Cube`` members, with per-class member bits, nearest
# members, derived complexes and the vertex bijection along normal cube
# paths; ``suite_parallel`` is the parallel suite built on them.


class NormalCubePath(NamedTuple):
    """Greedy cube path from a vertex toward a target vertex.

    ``waypoints`` has one more entry than ``cubes``; waypoint ``i`` is the
    vertex the path occupies before crossing ``cubes[i]``.
    """

    cubes: tuple[Cube, ...]
    waypoints: tuple[int, ...]


def normal_cube_path(cplx: CubeComplex, source: int, target: int) -> NormalCubePath:
    """Greedy cube path: cross every crossable separating hyperplane at once."""
    if not cplx.contains_vertex(source) or not cplx.contains_vertex(target):
        raise InvalidComplex("normal cube path endpoints must be vertices")
    cubes: list[Cube] = []
    waypoints = [source]
    r = source
    crossed = 0
    while r != target:
        step = [h for h in range(cplx.n_hyperplanes)
                if (r ^ target) & cplx.mask(h) and adjacent_vertex(cplx, r, h)]
        smask = cplx.mask_of(step)
        if not step or smask & crossed:
            raise InvalidComplex("normal cube path failed to progress")
        anchor = r & ~smask
        cube = Cube(anchor, tuple(step))
        if not is_cube(cplx, anchor, cube.cutting):
            raise InvalidComplex("normal cube path step does not span a cube")
        cubes.append(cube)
        crossed |= smask
        r ^= smask
        waypoints.append(r)
    if crossed != source ^ target:
        raise InvalidComplex("normal cube path did not cross the separating set")
    return NormalCubePath(tuple(cubes), tuple(waypoints))


class ParallelClass(NamedTuple):
    """All cubes sharing one cutting set (the determining hyperplanes)."""

    determining: tuple[int, ...]
    members: tuple[Cube, ...]

    @property
    def dim(self) -> int:
        return len(self.determining)


class ClassComplex(NamedTuple):
    """A parallelism class rebuilt as a cube complex of its own.

    ``frame`` lists the hyperplanes crossing every determining hyperplane;
    member cubes become vertices of ``complex`` by reading off their
    half-space bits over the frame.  ``to_vertex`` and ``from_vertex`` give
    the correspondence in both directions.
    """

    complex: CubeComplex
    frame: tuple[int, ...]
    members: tuple[Cube, ...]
    to_vertex: dict
    from_vertex: dict


def enumerate_classes(cplx: CubeComplex) -> tuple[ParallelClass, ...]:
    """All parallelism classes, sorted by (dimension, determining set): a
    view of ``class_rows``, made on first use and cached."""
    def build():
        out = []
        for q in range(cplx.dimension + 1):
            rows, cubes = class_rows(cplx, q), cplx.cubes(q)
            # members in cube order, which within a class is anchor order
            members = [cubes[i] for i in np.argsort(rows.of, kind="stable").tolist()]
            ends = np.cumsum(rows.sizes).tolist()
            sets = np.nonzero(rows.sets)[1].reshape(len(ends), q).tolist()
            out.extend(ParallelClass(tuple(det), tuple(members[end - size:end]))
                       for det, size, end in zip(sets, rows.sizes.tolist(), ends))
        return tuple(out)

    return cplx.cached("parallel_classes", build)


def class_of(cplx: CubeComplex, determining: Iterable[int]) -> ParallelClass:
    """The class with the given determining set; KeyError if unrealized."""
    index = cplx.cached("parallel_class_index",
                        lambda: {k.determining: k for k in enumerate_classes(cplx)})
    return index[tuple(sorted(determining))]


class MemberBits(NamedTuple):
    """A class's members as 0/1 rows, one float64 column per hyperplane.

    The columns of the determining hyperplanes are zero, so products of
    rows count only the hyperplanes that cut no member; ``ones`` holds the
    row sums.
    """

    bits: np.ndarray
    ones: np.ndarray

    def separations(self, rows=slice(None)) -> np.ndarray:
        """Hyperplanes separating members ``rows`` from every member,
        s_i + s_j - 2 B_i B_j^T: exact in float64 at any width."""
        return (self.ones[rows, None] + self.ones[None, :]
                - 2.0 * (self.bits[rows] @ self.bits.T))


def _frame(cplx: CubeComplex, determining: tuple[int, ...]) -> np.ndarray:
    """The hyperplanes outside ``determining`` that cross every one in it."""
    inside = list(determining)
    keep = cplx.crossing_matrix()[:, inside].all(axis=1)
    keep[inside] = False
    return np.flatnonzero(keep)


def member_bits(cplx: CubeComplex, klass: ParallelClass) -> MemberBits:
    """The cached ``MemberBits`` of ``klass``."""
    def build():
        bits = bit_rows(cplx.n_hyperplanes, (c.anchor for c in klass.members)).astype(np.float64)
        bits[:, list(klass.determining)] = 0.0
        return MemberBits(bits, bits.sum(axis=1))

    # keyed by the whole class, so a hand-made class never reads another's bits
    return cplx.cached(("member_bits", klass), build)


def nearest_members(
    cplx: CubeComplex,
    klass: ParallelClass,
    vertices: Iterable[int],
    verify: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Index of the member of ``klass`` nearest each vertex, and whether the pair fails.

    Distances from the vertices V to the members M come from one matrix
    product over the hyperplanes that cut no member, |M| + |V| - 2 V M^T,
    exact in float64.  The row constant |V| is left out: it moves neither
    a row's minimum nor any difference the checks compare.  A pair fails
    when its minimum is not unique.  With ``verify`` it also fails when the
    nearest member is not a gate (some member's distance is not the nearest
    one's plus their separation) or when the vertex and the nearest member
    differ on a frame hyperplane of ``klass``.
    """
    if not klass.members:
        raise ValueError("empty parallelism class")
    mb = member_bits(cplx, klass)
    vbits = bit_rows(cplx.n_hyperplanes, vertices).astype(np.float64)
    dist = mb.ones - 2.0 * (vbits @ mb.bits.T)
    best = dist.argmin(axis=1)
    # the first and the last minimum coincide exactly when it is unique
    failed = best != len(mb.ones) - 1 - dist[:, ::-1].argmin(axis=1)
    if verify:
        best_d = dist[np.arange(len(best)), best][:, None]
        failed |= (dist != best_d + mb.separations(best)).any(axis=1)
        if klass.determining:  # the vertex class is exempt: each vertex is its own gate
            frame = _frame(cplx, klass.determining)
            failed |= (vbits[:, frame] != mb.bits[best][:, frame]).any(axis=1)
    return best, failed


def nearest_in_class(
    cplx: CubeComplex,
    vertex: int,
    klass: ParallelClass,
    verify: bool = False,
) -> Cube:
    """The unique member of ``klass`` closest to ``vertex``.

    The one-vertex view of ``nearest_members``: raises AssertionError when
    the pair fails its checks (uniqueness always, the gate facts with
    ``verify``) and ValueError on an empty class.
    """
    (best,), (failed,) = nearest_members(cplx, klass, (vertex,), verify)
    if failed:
        raise AssertionError(
            "nearest cube in class %s to %s is not unique%s"
            % (list(klass.determining), cplx.vertex_bits(vertex),
               " or not a gate" if verify else ""))
    return klass.members[best]


def class_complex(cplx: CubeComplex, klass: ParallelClass) -> ClassComplex:
    """Rebuild a parallelism class as a cube complex over its frame."""
    frame = tuple(_frame(cplx, klass.determining).tolist())
    masks = [cplx.mask(h) for h in frame]
    to_vertex = {member: project_bits(member.anchor, masks) for member in klass.members}
    if len(set(to_vertex.values())) != len(to_vertex):
        raise InvalidComplex(
            "frame coordinates do not separate the members of class %s"
            % (list(klass.determining),))
    home = nearest_in_class(cplx, cplx.base_vertex, klass)
    derived = CubeComplex(len(frame), to_vertex.values(), to_vertex[home])
    from_vertex = {v: member for member, v in to_vertex.items()}
    return ClassComplex(derived, frame, klass.members, to_vertex, from_vertex)


def vertex_to_class_bijection(cplx: CubeComplex) -> dict[int, ParallelClass]:
    """Map each vertex to the class of the first cube on its path home.

    The base vertex itself maps to the vertex class, matching the empty
    normal cube path.  The resulting map is asserted bijective onto the
    set of all parallelism classes.
    """
    base = cplx.base_vertex
    out: dict[int, ParallelClass] = {}
    for v in cplx.vertices:
        if v == base:
            out[v] = class_of(cplx, ())
        else:
            first = normal_cube_path(cplx, v, base).cubes[0]
            out[v] = class_of(cplx, first.cutting)
    keys = {k.determining for k in out.values()}
    if len(keys) != len(out) or len(out) != len(enumerate_classes(cplx)):
        raise AssertionError("vertex to class map is not a bijection")
    return out


def suite_parallel(cplx, args):
    classes = enumerate_classes(cplx)
    try:
        mapping = vertex_to_class_bijection(cplx)
        bad = 0 if len(set(mapping.values())) == cplx.n_vertices else 1
    except AssertionError:
        bad = 1

    # Every stride-th (vertex, class) pair in vertex-major order, the stride
    # the smallest s >= max(1, V*C // 4096) prime to C, so the sample meets
    # every class; each class's sampled vertices are checked in one call
    n_pairs = cplx.n_vertices * len(classes)
    stride = max(1, n_pairs // 4096)
    while math.gcd(stride, len(classes)) != 1:
        stride += 1
    sampled: dict[int, list[int]] = {}
    for i in range(0, n_pairs, stride):
        v, c = divmod(i, len(classes))
        sampled.setdefault(c, []).append(cplx.vertices[v])
    failures = sum(int(nearest_members(cplx, classes[c], vs, verify=True)[1].sum())
                   for c, vs in sampled.items())

    invalid = 0
    for klass in classes:
        try:
            class_complex(cplx, klass)
        except InvalidComplex:
            invalid += 1
    return {
        "class_count": abs(len(classes) - cplx.n_vertices),
        "vertex_class_bijection": bad,
        "nearest_verified": failures,
        "class_complex_valid": invalid,
    }, {"vertices": cplx.n_vertices, "classes": len(classes)}

"""Parallelism classes of cubes and the geometry they carry.

Two cubes are parallel when the same hyperplanes cut both, so a parallelism
class is keyed by a cutting set and holds every cube realizing it.  Classes
inherit a surprising amount of structure: each vertex picks out a unique
nearest member, distances between members add along the way to that member,
and the members themselves form a smaller median complex over the
hyperplanes that cross the whole cutting set.  The classes of each degree
are one grouping of the cube rows by their cutting bits (``class_rows``),
and ``enumerate_classes`` is its tuple view.  Cube rows ascend by anchor,
so a class's first cube there has its smallest anchor, the canonical
vertex of a symbol over the class (``class_anchors``).  Nearest members
and their checks come from one 0/1 matrix product per class over the
members' bits, for any number of vertices at once.  The number of classes always
equals the number of vertices; the explicit bijection sends a vertex to the
class of the first cube on its normal cube path toward the base vertex.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

import numpy as np

from .core import (
    Cube,
    CubeComplex,
    InvalidComplex,
    bit_rows,
    project_bits,
    row_keys,
    row_positions,
)

__all__ = [
    "ClassComplex",
    "ClassRows",
    "MemberBits",
    "ParallelClass",
    "class_anchors",
    "class_complex",
    "class_of",
    "class_rows",
    "enumerate_classes",
    "member_bits",
    "nearest_in_class",
    "nearest_members",
    "vertex_to_class_bijection",
]


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


class ClassRows(NamedTuple):
    """The degree-q cubes by parallelism class: each class's cutting bits as
    a 0/1 row (``sets``, determining sets ascending), the class of each
    q-cube (``of``), each class's member count (``sizes``), its ascending
    key (``keys``, ``row_keys`` of the complemented row) and the index of
    its first cube (``first``), the member with the smallest anchor."""

    sets: np.ndarray
    of: np.ndarray
    sizes: np.ndarray
    keys: np.ndarray
    first: np.ndarray


def class_rows(cplx: CubeComplex, q: int) -> ClassRows:
    """The cached ``ClassRows`` of degree q, one ``np.unique`` over the
    cutting keys of ``cube_arrays(q)`` (complemented, so the keys ascend
    with the determining sets)."""
    def build():
        cutting = cplx.cube_arrays(q).cutting
        keys, first, of, sizes = np.unique(row_keys(cutting ^ 1), return_index=True,
                                           return_inverse=True, return_counts=True)
        return ClassRows(cutting[first], of.ravel(), sizes, keys, first)

    return cplx.cached(("class_rows", q), build)


def class_anchors(cplx: CubeComplex, sets: np.ndarray) -> np.ndarray:
    """The smallest member anchor, as a 0/1 row, of the class with each 0/1
    cutting row of ``sets``: the anchor of its first cube in ``class_rows``,
    found with ``row_positions``.  KeyError names the first unrealized set."""
    out, size = np.zeros_like(sets), sets.sum(axis=1, dtype=np.int64)
    for q in range(int(size.max(initial=-1)) + 1):
        rows = np.flatnonzero(size == q)
        if not len(rows):
            continue
        classes = class_rows(cplx, q)
        pos, found = row_positions(classes.keys, row_keys(sets[rows] ^ 1))
        if not found.all():
            raise KeyError(tuple(np.flatnonzero(sets[rows[~found][0]]).tolist()))
        out[rows] = cplx.cube_arrays(q).anchor[classes.first[pos]]
    return out


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
            first = cplx.normal_cube_path(v, base).cubes[0]
            out[v] = class_of(cplx, first.cutting)
    keys = {k.determining for k in out.values()}
    if len(keys) != len(out) or len(out) != len(enumerate_classes(cplx)):
        raise AssertionError("vertex to class map is not a bijection")
    return out

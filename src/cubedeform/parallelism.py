"""Parallelism classes of cubes and the geometry they carry.

Two cubes are parallel when the same hyperplanes cut both, so a parallelism
class is keyed by a cutting set and holds every cube realizing it.  Classes
inherit a surprising amount of structure: each vertex picks out a unique
nearest member, distances between members add along the way to that member,
and the members themselves form a smaller median complex over the
hyperplanes that cross the whole cutting set.  The number of classes always
equals the number of vertices; the explicit bijection sends a vertex to the
class of the first cube on its normal cube path toward the base vertex.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple

from .core import Cube, CubeComplex, InvalidComplex, project_bits

__all__ = [
    "ClassComplex",
    "ParallelClass",
    "class_complex",
    "class_count_theorem",
    "class_of",
    "enumerate_classes",
    "nearest_in_class",
    "nearest_moves_across_edge",
    "pair_distance",
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


def enumerate_classes(cplx: CubeComplex) -> tuple[ParallelClass, ...]:
    """All parallelism classes, sorted by (dimension, determining set)."""
    def build():
        groups: dict[tuple[int, ...], list[Cube]] = {}
        for q in range(cplx.dimension + 1):
            for cube in cplx.cubes(q):
                groups.setdefault(cube.cutting, []).append(cube)
        return tuple(
            ParallelClass(key, tuple(sorted(groups[key])))
            for key in sorted(groups, key=lambda k: (len(k), k)))

    return cplx.cached("parallel_classes", build)


def class_of(cplx: CubeComplex, determining: Iterable[int]) -> ParallelClass:
    """The class with the given determining set; KeyError if unrealized."""
    index = cplx.cached("parallel_class_index",
                        lambda: {k.determining: k for k in enumerate_classes(cplx)})
    return index[tuple(sorted(determining))]


def class_count_theorem(cplx: CubeComplex) -> tuple[int, int]:
    """(vertex count, class count); the two are asserted equal."""
    n_vertices = cplx.n_vertices
    n_classes = len(enumerate_classes(cplx))
    if n_vertices != n_classes:
        raise AssertionError(
            "vertex/class count mismatch: %d vertices, %d classes"
            % (n_vertices, n_classes))
    return n_vertices, n_classes


def nearest_in_class(
    cplx: CubeComplex,
    vertex: int,
    klass: ParallelClass,
    verify: bool = False,
) -> Cube:
    """The unique member of ``klass`` closest to ``vertex``.

    Uniqueness of the minimizer is always checked.  With ``verify`` the
    two supporting facts are checked too: distances to the other members
    add up through the nearest one, and every hyperplane separating
    ``vertex`` from the nearest cube fails to cross at least one
    determining hyperplane.
    """
    best = None
    best_d = -1
    ties = 0
    for member in klass.members:
        d = cplx.cube_distance_to_vertex(member, vertex)
        if best is None or d < best_d:
            best, best_d, ties = member, d, 1
        elif d == best_d:
            ties += 1
    if best is None:
        raise ValueError("empty parallelism class")
    if ties != 1:
        raise AssertionError(
            "nearest cube in class %s to %s is not unique"
            % (list(klass.determining), cplx.vertex_bits(vertex)))
    if verify:
        for member in klass.members:
            d = cplx.cube_distance_to_vertex(member, vertex)
            if d != best_d + pair_distance(cplx, best, member):
                raise AssertionError(
                    "distance additivity fails for member %r" % (member,))
        gate = cplx.nearest_cube_vertex(best, vertex)
        cross = cplx.crossing_matrix()
        sep = vertex ^ gate
        for h in range(cplx.n_hyperplanes):
            if sep & cplx.mask(h):
                if klass.determining and all(
                        cross[h, k] for k in klass.determining):
                    raise AssertionError(
                        "hyperplane %d separates the nearest cube but "
                        "crosses every determining hyperplane" % h)
    return best


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
    h = cplx.hyperplane_of_mask(diff)
    if near_p.anchor ^ near_q.anchor != diff:
        raise AssertionError(
            "nearest cubes differ other than across the edge hyperplane")
    anchor = near_p.anchor & ~diff
    cutting = tuple(sorted(near_p.cutting + (h,)))
    if not cplx.is_cube(anchor, cutting):
        raise AssertionError(
            "nearest cubes are not opposite faces of a cube cut by %d" % h)
    return h


def pair_distance(cplx: CubeComplex, d1: Cube, d2: Cube) -> int | float:
    """Number of hyperplanes separating two parallel cubes; inf otherwise."""
    if d1.cutting != d2.cutting:
        return math.inf
    return (d1.anchor ^ d2.anchor).bit_count()


def class_complex(cplx: CubeComplex, klass: ParallelClass) -> ClassComplex:
    """Rebuild a parallelism class as a cube complex over its frame."""
    cross = cplx.crossing_matrix()
    frame = tuple(
        h for h in range(cplx.n_hyperplanes)
        if h not in klass.determining
        and all(cross[h, k] for k in klass.determining))
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

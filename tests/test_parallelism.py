"""Parallelism classes: the class rows, the nearest-member rule, and the
tuple model of classes that is the oracle of ``check parallel``: counting,
nearest members, derived complexes, the vertex bijection."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from helpers import (
    ParallelClass,
    class_complex,
    class_count_theorem,
    class_of,
    enumerate_classes,
    member_bits,
    nearest_in_class,
    nearest_members,
    nearest_moves_across_edge,
    normal_cube_path,
    pair_distance,
    vertex_to_class_bijection,
)
from cubedeform import deformation
from cubedeform.core import Cube, bit_rows, column_bits, row_keys
from cubedeform.generate import random_median_complex
from cubedeform.parallelism import class_anchors, class_rows, first_minimum, nearest_rows
from oracles import (
    cube_distance_to_vertex,
    distance,
    rebased,
)

FIXED = ("square", "tripod", "cube3", "grid12")


# -- enumeration and counting -----------------------------------------------------


@pytest.mark.parametrize("name", FIXED)
def test_classes_partition_the_cubes(name):
    cplx = helpers.fixture(name)
    classes = enumerate_classes(cplx)
    seen = set()
    for klass in classes:
        assert klass.members == tuple(sorted(klass.members))
        for member in klass.members:
            assert member.cutting == klass.determining
            assert member not in seen
            seen.add(member)
    assert len(seen) == cplx.n_cubes()
    keys = [(k.dim, k.determining) for k in classes]
    assert keys == sorted(keys)


def _assert_classes_are_the_dict_grouping(cplx):
    """``enumerate_classes`` and ``class_rows`` against the grouping of cube
    tuples by cutting set in a dict."""
    want = helpers.oracle_classes(cplx)
    assert enumerate_classes(cplx) == want
    for q in range(-1, cplx.dimension + 2):
        rows, cubes = class_rows(cplx, q), cplx.cubes(q)
        mine = [klass for klass in want if klass.dim == q]
        assert np.array_equal(
            rows.sets, column_bits(np.array([k.determining for k in mine], dtype=np.intp)
                                   .reshape(len(mine), max(q, 0)), cplx.n_hyperplanes))
        assert rows.sizes.tolist() == [len(k.members) for k in mine]
        assert [mine[c].determining for c in rows.of.tolist()] == [c.cutting for c in cubes]
        assert np.array_equal(rows.keys, row_keys(rows.sets ^ 1))
        # each class's first cube is its member with the smallest anchor
        assert [cubes[i] for i in rows.first.tolist()] == \
            [min(k.members, key=lambda c: c.anchor) for k in mine]
        assert np.array_equal(class_anchors(cplx, rows.sets), bit_rows(
            cplx.n_hyperplanes, [min(c.anchor for c in k.members) for k in mine]))


def test_class_anchors_of_an_unrealized_set_raise(grid12):
    # hyperplanes 1 and 2 of the 1x2 grid do not cross
    sets = column_bits(np.array([[2], [0], [1]]), grid12.n_hyperplanes)
    assert class_anchors(grid12, sets).tolist() == [[0, 1, 0], [0, 0, 0], [0, 0, 0]]
    with pytest.raises(KeyError, match=r"\(1, 2\)"):
        class_anchors(grid12, np.vstack([sets, [[0, 1, 1]]]).astype(np.uint8))


@pytest.mark.parametrize("name", helpers.BASIS_CASES)
def test_classes_are_the_dict_grouping(name):
    _assert_classes_are_the_dict_grouping(helpers.table_case(name))


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 8), k=st.integers(1, 6), seed=st.integers(0, 1 << 16))
def test_classes_are_the_dict_grouping_hypothesis(n, k, seed):
    _assert_classes_are_the_dict_grouping(random_median_complex(n, k, seed))


def test_square_class_sizes(square):
    sizes = {k.determining: len(k.members) for k in enumerate_classes(square)}
    assert sizes == {(): 4, (0,): 2, (1,): 2, (0, 1): 1}


def test_class_of_lookup(square, tripod):
    klass = class_of(square, [0])
    assert klass.members == (Cube(0b00, (0,)), Cube(0b01, (0,)))
    assert class_of(square, (1, 0)).determining == (0, 1)
    with pytest.raises(KeyError):
        class_of(tripod, (0, 1))


@pytest.mark.parametrize("name", FIXED + ("grid22", "path4", "point"))
def test_class_count_equals_vertex_count(name):
    cplx = helpers.fixture(name)
    n, k = class_count_theorem(cplx)
    assert n == k == cplx.n_vertices


@pytest.mark.parametrize("seed", range(10))
def test_class_count_equals_vertex_count_random(seed):
    cplx = helpers.random_complex(seed)
    assert class_count_theorem(cplx) == (cplx.n_vertices, cplx.n_vertices)


# -- nearest member ------------------------------------------------------------------


@pytest.mark.parametrize("name", FIXED)
def test_nearest_is_the_brute_force_minimizer(name):
    cplx = helpers.fixture(name)
    for klass in enumerate_classes(cplx):
        for v in cplx.vertices:
            near = nearest_in_class(cplx, v, klass, verify=True)
            dists = [helpers.brute_cube_vertex_distance(cplx, m, v)
                     for m in klass.members]
            best = min(dists)
            assert helpers.brute_cube_vertex_distance(cplx, near, v) == best
            assert dists.count(best) == 1


@pytest.mark.parametrize("seed", range(6))
def test_nearest_verifies_on_random_complexes(seed):
    cplx = helpers.random_complex(seed)
    for klass in enumerate_classes(cplx):
        for v in cplx.vertices:
            nearest_in_class(cplx, v, klass, verify=True)


def test_nearest_distance_additivity_hand_case(grid12):
    # far edge of the long axis, seen from the origin corner
    klass = class_of(grid12, (2,))
    near = nearest_in_class(grid12, 0b000, klass, verify=True)
    assert near == Cube(0b010, (2,))
    for member in klass.members:
        d0 = cube_distance_to_vertex(grid12, near, 0b000)
        assert (cube_distance_to_vertex(grid12, member, 0b000)
                == d0 + pair_distance(grid12, near, member))


def assert_nearest_members_match_the_loop(cplx, klass, verify):
    """``nearest_members`` on every vertex at once against the per-member
    loop, pair by pair: the same member and the same failed flag."""
    best, failed = nearest_members(cplx, klass, cplx.vertices, verify)
    assert len(best) == len(failed) == cplx.n_vertices
    for v, i, flag in zip(cplx.vertices, best, failed):
        member, want = helpers.oracle_nearest_member(cplx, v, klass, verify)
        assert klass.members[i] == member
        assert flag == want
    return failed


@pytest.mark.parametrize("verify", (False, True))
@pytest.mark.parametrize("name", helpers.FIXTURE_NAMES + helpers.MORE_FIXTURE_NAMES)
def test_nearest_members_match_the_per_member_loop(name, verify):
    cplx = helpers.fixture(name)
    for klass in enumerate_classes(cplx):
        assert not assert_nearest_members_match_the_loop(cplx, klass, verify).any()


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 7), k=st.integers(1, 6), seed=st.integers(0, 1 << 16))
def test_nearest_members_match_the_per_member_loop_hypothesis(n, k, seed):
    cplx = random_median_complex(n, k, seed)
    for klass in enumerate_classes(cplx):
        for verify in (False, True):
            assert not assert_nearest_members_match_the_loop(cplx, klass, verify).any()


@pytest.mark.parametrize("name", helpers.FIXTURE_NAMES + helpers.MORE_FIXTURE_NAMES)
def test_nearest_rows_is_the_per_class_rule(name):
    # one class's member bits, or a stack of them, give the nearest members
    # and the ties of the tuple model, vertex by vertex
    cplx = helpers.fixture(name)
    vbits = bit_rows(cplx.n_hyperplanes, cplx.vertices).astype(np.float64)
    for klass in enumerate_classes(cplx):
        bits = member_bits(cplx, klass).bits
        near, tied, dist = nearest_rows(bits, vbits)
        best, failed = nearest_members(cplx, klass, cplx.vertices)
        assert near.tolist() == best.tolist() and tied.tolist() == failed.tolist()
        assert dist.shape == (cplx.n_vertices, len(klass.members))
        stacked = nearest_rows(np.stack([bits, bits[::-1]]), vbits)
        assert stacked[0].tolist() == [best.tolist(), (len(bits) - 1 - best).tolist()]


@settings(max_examples=60, deadline=None)
@given(segments=st.lists(st.lists(st.integers(0, 4), min_size=1, max_size=6),
                         min_size=1, max_size=8))
def test_first_minimum_of_ragged_rows_padded_with_inf(segments):
    # ragged rows padded with inf, as check parallel stacks its classes
    width = max(map(len, segments))
    dist = np.array([segment + [np.inf] * (width - len(segment)) for segment in segments])
    near, tied = first_minimum(dist)
    assert near.tolist() == [segment.index(min(segment)) for segment in segments]
    assert tied.tolist() == [segment.count(min(segment)) > 1 for segment in segments]


def sabotaged(members):
    """Member lists no class has: (kind, members) with one member dropped,
    one listed twice, or only the first and the last kept."""
    if len(members) > 1:
        for drop in range(len(members)):
            yield "dropped", members[:drop] + members[drop + 1:]
    yield "doubled", members + members[-1:]
    if len(members) > 2:
        yield "ends", (members[0], members[-1])


def test_nearest_members_flag_sabotaged_classes_like_the_loop():
    flagged = dict.fromkeys(("dropped", "doubled", "ends", "gate only"), 0)
    for name in ("tripod", "cube3", "grid12", "grid22", "path4"):
        cplx = helpers.fixture(name)
        for klass in enumerate_classes(cplx):
            for kind, members in sabotaged(klass.members):
                bad = klass._replace(members=members)
                unique = assert_nearest_members_match_the_loop(cplx, bad, False)
                gate = assert_nearest_members_match_the_loop(cplx, bad, True)
                flagged[kind] += gate.sum()
                flagged["gate only"] += (gate & ~unique).sum()
    assert all(flagged.values()), flagged


def test_nearest_in_class_is_the_one_vertex_view(grid12):
    klass = class_of(grid12, (2,))
    with pytest.raises(AssertionError, match="not unique"):
        nearest_in_class(grid12, 0b000, klass._replace(members=klass.members * 2))
    with pytest.raises(ValueError, match="empty parallelism class"):
        nearest_in_class(grid12, 0b000, ParallelClass((2,), ()))
    with pytest.raises(ValueError, match="empty parallelism class"):
        nearest_members(grid12, ParallelClass((2,), ()), grid12.vertices)


def _assert_stacked_nearest_is_per_class(cplx):
    """Per group of classes of one degree and size: the stacked roots of
    ``deformation._class_roots`` against ``nearest_in_class`` class by
    class, with every vertex as the base vertex."""
    for q in range(cplx.dimension + 1):
        for group in deformation._groups(cplx, q):
            classes = [class_of(cplx, det) for det in group.sets.tolist()]
            for v in cplx.vertices:
                got = deformation._class_roots(rebased(cplx, v), group, None)
                want = [klass.members.index(nearest_in_class(cplx, v, klass))
                        for klass in classes]
                assert got.tolist() == want


@pytest.mark.parametrize("name", helpers.FIXTURE_NAMES + helpers.MORE_FIXTURE_NAMES)
def test_stacked_nearest_is_the_per_class_view(name):
    _assert_stacked_nearest_is_per_class(helpers.fixture(name))


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 7), k=st.integers(1, 6), seed=st.integers(0, 1 << 16))
def test_stacked_nearest_is_the_per_class_view_hypothesis(n, k, seed):
    _assert_stacked_nearest_is_per_class(random_median_complex(n, k, seed))


def test_stacked_nearest_raises_like_the_per_class_view(grid12):
    # a tie in one class of the group (every member given its first
    # member's bits) is nearest_in_class's failure on that class
    cplx = rebased(grid12, 0b000)
    klass = class_of(cplx, (2,))
    view = helpers.group_class(cplx, klass)
    assert len(view.group.cols) > 1  # the tie sits among untouched classes
    bits = view.group.bits.copy()
    bits[view.c] = bits[view.c, :1]
    with pytest.raises(AssertionError) as per_class:
        nearest_in_class(cplx, 0b000, klass._replace(members=klass.members[:1] * 3))
    with pytest.raises(AssertionError) as stacked:
        deformation._class_roots(cplx, view.group._replace(bits=bits), None)
    assert str(stacked.value) == str(per_class.value)
    # an override names the root instead, so its class has no tie to find,
    # and must be a member of its class
    doctored = deformation._class_roots(cplx, view.group._replace(bits=bits),
                                        {(2,): klass.members[0]})
    assert doctored[view.c] == 0
    bases = {(2,): klass.members[-1]}
    assert deformation._class_roots(cplx, view.group, bases)[view.c] == len(klass.members) - 1
    for wrong in (Cube(klass.members[-1].anchor, (1,)), Cube(0b111, (2,))):
        with pytest.raises(ValueError, match="not a class member"):
            deformation._class_roots(cplx, view.group, {(2,): wrong})


def test_nearest_moves_across_edge_square(square):
    klass = class_of(square, (1,))
    assert nearest_moves_across_edge(square, 0b00, 0b10, klass) == 0
    assert nearest_moves_across_edge(square, 0b00, 0b01, klass) is None
    top = class_of(square, (0, 1))
    assert nearest_moves_across_edge(square, 0b00, 0b10, top) is None
    with pytest.raises(ValueError, match="not adjacent"):
        nearest_moves_across_edge(square, 0b00, 0b11, klass)


@pytest.mark.parametrize("name", FIXED)
def test_nearest_moves_across_every_edge(name):
    # the move is always either nothing or a flip across the edge hyperplane
    cplx = helpers.fixture(name)
    for klass in enumerate_classes(cplx):
        for v, u in helpers.adjacent_vertex_pairs(cplx):
            moved = nearest_moves_across_edge(cplx, v, u, klass)
            if moved is not None:
                assert cplx.mask(moved) == v ^ u


def test_pair_distance(square, grid12):
    assert pair_distance(square, Cube(0b00, (0,)), Cube(0b01, (0,))) == 1
    assert pair_distance(square, Cube(0b00, (0,)), Cube(0b00, (0,))) == 0
    assert pair_distance(square, Cube(0b00, (0,)), Cube(0b00, (1,))) == math.inf
    far = class_of(grid12, (0,)).members
    assert max(pair_distance(grid12, far[0], m) for m in far) == 2


# -- derived class complexes ------------------------------------------------------------


def test_class_complex_of_cube3_edge_class():
    cube3 = helpers.fixture("cube3")
    derived = class_complex(cube3, class_of(cube3, (0,)))
    assert derived.frame == (1, 2)
    assert len(derived.members) == 4
    assert derived.complex.n_vertices == 4
    assert derived.complex.dimension == 2
    # round trips both ways
    for member in derived.members:
        assert derived.from_vertex[derived.to_vertex[member]] == member
    # base goes to the nearest member
    home = nearest_in_class(cube3, cube3.base_vertex, class_of(cube3, (0,)))
    assert derived.complex.base_vertex == derived.to_vertex[home]


def test_class_complex_of_vertex_class_is_the_whole_complex(grid12):
    derived = class_complex(grid12, class_of(grid12, ()))
    assert derived.frame == tuple(range(grid12.n_hyperplanes))
    assert derived.complex.vertices == grid12.vertices
    assert derived.complex.base_vertex == grid12.base_vertex


def test_class_complex_of_top_class_is_a_point(cube3):
    derived = class_complex(cube3, class_of(cube3, (0, 1, 2)))
    assert derived.frame == ()
    assert derived.complex.n_vertices == 1
    assert derived.complex.n_hyperplanes == 0


def test_class_complex_every_class_is_valid():
    for cplx in helpers.all_fixtures() + helpers.random_complexes(5):
        for klass in enumerate_classes(cplx):
            derived = class_complex(cplx, klass)
            assert derived.complex.n_vertices == len(klass.members)
            for member in klass.members:
                assert derived.from_vertex[derived.to_vertex[member]] == member
            # projected distances agree with separation counts upstairs
            members = klass.members
            for i, a in enumerate(members):
                for b in members[i:]:
                    assert distance(derived.complex, 
                        derived.to_vertex[a], derived.to_vertex[b]
                    ) == pair_distance(cplx, a, b)


# -- the explicit bijection ----------------------------------------------------------------


@pytest.mark.parametrize("name", FIXED + ("point",))
def test_vertex_to_class_bijection(name):
    cplx = helpers.fixture(name)
    mapping = vertex_to_class_bijection(cplx)
    assert set(mapping) == set(cplx.vertices)
    assert mapping[cplx.base_vertex].determining == ()
    keys = {k.determining for k in mapping.values()}
    assert len(keys) == cplx.n_vertices
    for v, klass in mapping.items():
        if v != cplx.base_vertex:
            first = normal_cube_path(cplx, v, cplx.base_vertex).cubes[0]
            assert klass.determining == first.cutting


@pytest.mark.parametrize("seed", range(10))
def test_vertex_to_class_bijection_random(seed):
    cplx = helpers.random_complex(seed)
    mapping = vertex_to_class_bijection(cplx)
    assert len({k.determining for k in mapping.values()}) == cplx.n_vertices

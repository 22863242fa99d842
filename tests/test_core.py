"""Vertex-model geometry: medians, cubes, paths, and the cxc format."""

import collections
import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cubedeform.core as core
import helpers
from helpers import normal_cube_path
from cubedeform import grid_complex, random_median_complex, star_tree
from cubedeform.differential import term_table
from cubedeform.core import (
    Cube,
    CubeComplex,
    CxcParseError,
    InvalidComplex,
    bit_rows,
    median_certificate,
    median_closure,
    median_hull,
    median_of,
    parse_cxc,
    project_bits,
    row_ints,
    write_cxc,
)
from oracles import (
    adjacent_cube,
    adjacent_vertex,
    crossing,
    cube_distance_to_vertex,
    cube_index,
    distance,
    hyperplane_of_mask,
    is_cube,
    nearest_cube_vertex,
    rebased,
    spans_cube,
)

ALL = helpers.FIXTURE_NAMES + ("grid22", "path3", "path4")


# -- medians --------------------------------------------------------------------


def test_median_of_majority_bits():
    assert median_of(0b110, 0b101, 0b011) == 0b111
    assert median_of(0b000, 0b001, 0b010) == 0b000
    assert median_of(0b10, 0b10, 0b01) == 0b10


def test_median_of_is_symmetric_and_absorbing():
    rng = random.Random(7)
    for _ in range(200):
        u, v, w = (rng.getrandbits(16) for _ in range(3))
        vals = {median_of(*p) for p in itertools.permutations((u, v, w))}
        assert len(vals) == 1
        assert median_of(u, u, w) == u
        assert median_of(u, v, v) == v


@settings(max_examples=200, deadline=None)
@given(v=st.integers(0, (1 << 80) - 1),
       positions=st.lists(st.integers(0, 79), max_size=20))
def test_project_bits_matches_a_per_bit_reference(v, positions):
    masks = [1 << i for i in positions]
    want = "".join("1" if v >> i & 1 else "0" for i in positions)
    assert project_bits(v, masks) == int(want or "0", 2)
    assert project_bits(v, iter(masks)) == project_bits(v, masks)


def test_project_bits_hand_values():
    assert project_bits(0b1011, [0b1000, 0b0100, 0b0001]) == 0b101
    assert project_bits(0b1011, [0b0001, 0b1000]) == 0b11
    assert project_bits(0b1011, []) == 0
    # a mask with several bits reads as one: any of them set
    assert project_bits(0b0100, [0b0110, 0b1001]) == 0b10


def test_median_closure_is_closed_and_contains_seeds():
    rng = random.Random(3)
    for _ in range(20):
        seeds = frozenset(rng.getrandbits(6) for _ in range(4))
        closed = median_closure(seeds)
        assert seeds <= closed
        for u, v, w in itertools.combinations(sorted(closed), 3):
            assert median_of(u, v, w) in closed
        # idempotent
        assert median_closure(closed) == closed


def test_median_closure_wide_coordinates():
    # coordinates wider than int64 take the same enumerator as narrow ones
    a, b, c = (1 << 70) | 1, (1 << 70) | 2, 3
    closed = median_closure({a, b, c})
    for u, v, w in itertools.combinations(sorted(closed), 3):
        assert median_of(u, v, w) in closed


def test_median_closure_edge_cases():
    assert median_closure([]) == frozenset()
    assert median_closure([5]) == frozenset({5})
    with pytest.raises(ValueError):
        median_closure([-1])


def _subsets(max_n=7, max_size=24):
    # random subsets of {0,1}^n: most are invalid, some are median-closed
    return st.integers(1, max_n).flatmap(lambda n: st.tuples(
        st.just(n), st.frozensets(st.integers(0, (1 << n) - 1), min_size=1, max_size=max_size)))


@settings(max_examples=300, deadline=None)
@given(case=_subsets())
def test_median_hull_equals_the_oracle_closure(case):
    n, seeds = case
    closed = helpers.oracle_median_closure(seeds)
    hull = median_hull(n, seeds)
    assert hull == sorted(closed)
    assert median_closure(seeds) == closed


def test_median_hull_edge_cases():
    assert median_hull(3, []) == []
    assert median_hull(0, [0]) == [0]
    assert median_hull(4, [0b0110]) == [0b0110]
    assert median_hull(2, [0b00, 0b11]) == [0b00, 0b11]
    assert median_hull(3, [0b110, 0b101, 0b011]) == [0b011, 0b101, 0b110, 0b111]


def _connected_and_closed(n, verts):
    """The certificate's oracle: breadth-first search, then ``median_hull``."""
    verts = sorted(verts)
    vset, seen, stack = set(verts), {verts[0]}, [verts[0]]
    while stack:
        v = stack.pop()
        for h in range(n):
            u = v ^ 1 << h
            if u in vset and u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == len(verts) and median_hull(n, verts) == verts


def _padded(rows, m):
    """``rows`` followed by repeats of its last row, m rows in all."""
    return rows[np.minimum(np.arange(m), len(rows) - 1)]


@pytest.mark.parametrize("words", (None, 1), ids=("one-block", "word-blocks"))
@pytest.mark.parametrize("n", range(4))
def test_median_certificate_on_every_small_vertex_set(n, words, monkeypatch):
    if words:  # the accumulators in blocks of a few rows and columns
        monkeypatch.setattr(core, "_CERTIFICATE_WORDS", words)
    subsets = [[v for v in range(1 << n) if mask >> v & 1] for mask in range(1, 1 << (1 << n))]
    want = [_connected_and_closed(n, verts) for verts in subsets]
    assert [bool(median_certificate(bit_rows(n, verts))) for verts in subsets] == want
    # the same sets as one stack, each padded by repeating its last row
    stack = np.stack([_padded(bit_rows(n, verts), 1 << n) for verts in subsets])
    assert median_certificate(stack).tolist() == want


@st.composite
def _perturbed_hulls(draw):
    # a median hull with one of its vertices dropped or one vertex added
    n = draw(st.integers(1, 8))
    hull = sorted(median_closure(draw(st.lists(st.integers(0, (1 << n) - 1),
                                               min_size=1, max_size=6))))
    edit = draw(st.sampled_from(("none", "drop", "add")))
    if edit == "drop" and len(hull) > 1:
        hull.remove(draw(st.sampled_from(hull)))
    elif edit == "add":
        hull = sorted({*hull, draw(st.integers(0, (1 << n) - 1))})
    return n, hull


@settings(max_examples=300, deadline=None)
@given(case=_perturbed_hulls(), repeats=st.lists(st.integers(1, 3), min_size=300, max_size=300))
def test_median_certificate_agrees_with_the_search_and_the_hull(case, repeats):
    n, verts = case
    want = _connected_and_closed(n, verts)
    rows = bit_rows(n, verts)
    assert bool(median_certificate(rows)) is want
    # repeated rows count once, also in a stack beside the whole cube
    repeated = np.repeat(rows, repeats[:len(rows)], axis=0)
    cube = bit_rows(n, range(1 << n))
    m = max(len(repeated), len(cube))
    assert median_certificate(np.stack([_padded(repeated, m), _padded(cube, m)])).tolist() == \
        [want, True]


@pytest.mark.parametrize("words", (None, 1), ids=("one-block", "word-blocks"))
@pytest.mark.parametrize("cplx", (star_tree(70), star_tree(130), grid_complex([70]),
                                  grid_complex([62, 3])),
                         ids=("star70", "star130", "path70", "grid62x3"))
def test_median_certificate_across_machine_words(cplx, words, monkeypatch):
    # more than 64 rows and columns: patterns and rows span several words;
    # each vertex dropped or with one bit flipped, against the oracle
    if words:
        monkeypatch.setattr(core, "_CERTIFICATE_WORDS", words)
    n, verts = cplx.n_hyperplanes, list(cplx.vertices)
    assert n > 64 and len(verts) > 64
    assert median_certificate(bit_rows(n, verts))
    rng = random.Random(n)
    for v in rng.sample(verts, 3) + verts[:1]:
        dropped = [u for u in verts if u != v]
        flipped = sorted({*verts, v ^ 1 << rng.randrange(n)})
        for case in (dropped, flipped):
            assert bool(median_certificate(bit_rows(n, case))) is _connected_and_closed(n, case)


# -- construction and validation --------------------------------------------------


def test_validation_rejects_disconnected_vertex_set():
    with pytest.raises(InvalidComplex, match="connectivity failure"):
        CubeComplex(2, [0b00, 0b11], 0b00)


def test_validation_rejects_median_violation():
    verts = [0b000, 0b100, 0b010, 0b001, 0b110, 0b101, 0b011]
    with pytest.raises(InvalidComplex) as info:
        CubeComplex(3, verts, 0b000)
    assert str(info.value) == (
        "median-closure failure: majority(011, 101, 110) = 111 is not a vertex")


def _oracle_outcome(n, verts):
    """The validation message the oracles predict for ``verts``, or None."""
    def bits(v):
        return format(v, "0%db" % n)

    if any(len({v >> h & 1 for v in verts}) == 1 for h in range(n)):
        return "constant"
    seen, stack = {min(verts)}, [min(verts)]
    while stack:
        v = stack.pop()
        for h in range(n):
            u = v ^ 1 << h
            if u in verts and u not in seen:
                seen.add(u)
                stack.append(u)
    if len(seen) != len(verts):
        return "connectivity"
    bad = helpers.oracle_median_violation(verts)
    if bad is None:
        return None
    return "median-closure failure: majority(%s, %s, %s) = %s is not a vertex" % (
        *map(bits, bad), bits(median_of(*bad)))


def _validation_outcome(n, verts):
    try:
        CubeComplex(n, verts, min(verts))
    except InvalidComplex as exc:
        message = str(exc)
        if "constant coordinate" in message:
            return "constant"
        if message.startswith("connectivity failure"):
            return "connectivity"
        return message
    return None


@st.composite
def _vertex_sets(draw):
    # raw subsets, median hulls (valid when connected), hulls with a vertex
    # removed, and whole cubes with a few vertices removed
    n, seeds = draw(_subsets(max_n=6, max_size=12))
    kind = draw(st.sampled_from(("subset", "hull", "hull-minus", "cube-minus")))
    if kind == "subset":
        return n, seeds
    if kind == "cube-minus":
        return n, frozenset(range(1 << n)) - seeds or seeds
    hull = median_closure(seeds)
    if kind == "hull-minus":
        hull = hull - {draw(st.sampled_from(sorted(hull)))} or hull
    return n, hull


@settings(max_examples=300, deadline=None)
@given(case=_vertex_sets())
def test_validation_agrees_with_the_oracle_scan(case):
    # a connected set with no constant coordinate is accepted exactly when
    # the triple scan finds no violation, and a rejection names its triple
    n, verts = case
    assert _validation_outcome(n, verts) == _oracle_outcome(n, verts)


@pytest.mark.parametrize("leaves", (59, 60, 61, 64, 120))
def test_wide_median_violation_names_the_oracle_triple(leaves):
    # the 7-vertex example on hyperplanes 0-2, with a star of edges at 000 on
    # the others: 62 hyperplanes and beyond take the pure-Python scan
    n = 3 + leaves
    verts = [v << leaves for v in (0b000, 0b100, 0b010, 0b001, 0b110, 0b101, 0b011)]
    verts += [1 << i for i in range(leaves)]
    expected = _oracle_outcome(n, frozenset(verts))
    assert expected.startswith("median-closure failure: majority(011")
    assert _validation_outcome(n, verts) == expected


@pytest.mark.parametrize("cplx", (star_tree(200), grid_complex([70]), grid_complex([60, 3])),
                         ids=("star200", "path70", "grid60x3"))
def test_wide_valid_complexes_are_their_own_hull(cplx):
    n, verts = cplx.n_hyperplanes, cplx.vertices
    assert n > 62
    assert median_hull(n, verts) == list(verts)
    assert median_closure(verts) == frozenset(verts)
    assert helpers.oracle_median_violation(verts) is None


def test_hull_disagreeing_with_the_scan_is_an_error(monkeypatch):
    # a certificate that contradicts the triple scan never passes as valid
    monkeypatch.setattr(core, "median_certificate", lambda rows: np.zeros(rows.shape[:-2], bool))
    with pytest.raises(AssertionError, match="median hull"):
        CubeComplex(2, [0b00, 0b01, 0b10, 0b11], 0b00)


def test_validation_rejects_constant_coordinate():
    with pytest.raises(InvalidComplex, match="hyperplane 0 has constant"):
        CubeComplex(2, [0b00, 0b01], 0b00)
    with pytest.raises(InvalidComplex, match="hyperplane 1 has constant"):
        CubeComplex(2, [0b00, 0b10], 0b00)


def test_validation_rejects_bad_base_and_range():
    with pytest.raises(InvalidComplex, match="base vertex"):
        CubeComplex(1, [0b0, 0b1], 0b10)
    with pytest.raises(InvalidComplex, match="out of range"):
        CubeComplex(1, [0, 2], 0)
    with pytest.raises(InvalidComplex, match="empty"):
        CubeComplex(1, [], 0)


def test_point_complex_is_valid():
    point = CubeComplex(0, [0], 0)
    assert point.n_vertices == 1
    assert point.dimension == 0
    assert point.vertex_bits(0) == ""


def test_rebased_shares_caches_but_not_base():
    cube3 = helpers.fixture("cube3")
    moved = rebased(cube3, 0b111)
    assert moved.base_vertex == 0b111
    assert moved.vertices is cube3.vertices
    assert moved.cubes(2) is cube3.cubes(2)
    assert rebased(cube3, cube3.base_vertex) is cube3
    with pytest.raises(InvalidComplex):
        rebased(cube3, 0b1000)


# -- vertex-level queries ----------------------------------------------------------


@pytest.mark.parametrize("name", ALL)
def test_bits_round_trip(name):
    cplx = helpers.fixture(name)
    for v in cplx.vertices:
        bits = cplx.vertex_bits(v)
        assert len(bits) == cplx.n_hyperplanes
        assert int(bits or "0", 2) == v


@pytest.mark.parametrize("n", (0, 1, 8, 9, 64, 200))
def test_row_ints_inverts_bit_rows(n):
    rng = random.Random(n)
    values = [0, (1 << n) - 1] + [rng.getrandbits(n) for _ in range(20)]
    assert row_ints(bit_rows(n, values)) == values
    assert row_ints(bit_rows(n, [])) == []


def test_mask_of_and_inverse(cube3):
    for h in range(cube3.n_hyperplanes):
        assert hyperplane_of_mask(cube3, cube3.mask(h)) == h
    assert cube3.mask_of([0, 2]) == cube3.mask(0) | cube3.mask(2)
    assert cube3.mask_of([]) == 0


@pytest.mark.parametrize("name", ALL)
def test_distance_matches_breadth_first_search(name):
    cplx = helpers.fixture(name)
    verts = cplx.vertices
    for u in verts:
        for v in verts:
            assert distance(cplx, u, v) == helpers.bfs_distance(cplx, u, v)


@pytest.mark.parametrize("seed", range(6))
def test_distance_matches_bfs_on_random_complexes(seed):
    cplx = helpers.random_complex(seed)
    rng = random.Random(seed)
    verts = cplx.vertices
    for _ in range(30):
        u, v = rng.choice(verts), rng.choice(verts)
        assert distance(cplx, u, v) == helpers.bfs_distance(cplx, u, v)


def test_separates_counts_geodesic_edges(grid12):
    for u in grid12.vertices:
        for v in grid12.vertices:
            separating = sum(
                1 for h in range(grid12.n_hyperplanes) if (u ^ v) & grid12.mask(h))
            assert separating == helpers.bfs_distance(grid12, u, v)


def test_vertices_adjacent_to(square, tripod):
    assert square.vertices_adjacent_to(0) == (0b00, 0b01, 0b10, 0b11)
    # each tripod hyperplane bounds exactly one edge
    for h in range(3):
        adj = tripod.vertices_adjacent_to(h)
        assert len(adj) == 2
        assert all(adjacent_vertex(tripod, v, h) for v in adj)
        assert adj[0] ^ adj[1] == tripod.mask(h)


# -- cube enumeration ---------------------------------------------------------------


@pytest.mark.parametrize("name", ALL)
def test_cubes_match_exhaustive_scan(name):
    cplx = helpers.fixture(name)
    for q in range(cplx.dimension + 2):
        assert set(cplx.cubes(q)) == helpers.brute_force_cubes(cplx, q)


@pytest.mark.parametrize("seed", range(4))
def test_cubes_match_exhaustive_scan_random(seed):
    cplx = helpers.random_complex(seed)
    for q in range(cplx.dimension + 1):
        assert set(cplx.cubes(q)) == helpers.brute_force_cubes(cplx, q)


def _assert_levels_match(cplx):
    levels = helpers.oracle_levels(cplx)
    assert cplx.dimension == len(levels) - 1
    assert cplx.n_cubes() == sum(map(len, levels))
    for q in range(-1, len(levels) + 1):
        cubes = levels[q] if 0 <= q < len(levels) else ()
        assert cplx.cubes(q) == cubes
        got = cplx.cube_arrays(q)
        for a, b in zip(got, helpers.oracle_cube_arrays(cplx, cubes)):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        keys = got.keys.tolist()
        assert all(a < b for a, b in zip(keys, keys[1:]))
    assert np.array_equal(cplx.crossing_matrix(), helpers.oracle_crossing(cplx, levels))


@pytest.mark.parametrize("name", helpers.BASIS_CASES)
def test_levels_match_the_tuple_walk(name):
    cplx = helpers.table_case(name)
    # built afresh at another base vertex, then that copy rebased back
    fresh = CubeComplex(cplx.n_hyperplanes, cplx.vertices, cplx.vertices[-1])
    _assert_levels_match(fresh)
    _assert_levels_match(rebased(fresh, cplx.base_vertex))


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 7), k=st.integers(1, 6), seed=st.integers(0, 2 ** 16),
       pick=st.integers(0, 2 ** 16))
def test_levels_match_the_tuple_walk_on_drawn_complexes(n, k, seed, pick):
    cplx = random_median_complex(n, k, seed)
    _assert_levels_match(rebased(cplx, cplx.vertices[pick % cplx.n_vertices]))


def test_cube_counts_on_fixtures():
    counts = {
        "square": (4, 4, 1),
        "tripod": (4, 3),
        "cube3": (8, 12, 6, 1),
        "grid12": (6, 7, 2),
    }
    for name, expect in counts.items():
        cplx = helpers.fixture(name)
        assert tuple(len(cplx.cubes(q)) for q in range(cplx.dimension + 1)) == expect
        assert cplx.n_cubes() == sum(expect)
        assert cplx.dimension == len(expect) - 1


def test_cubes_are_sorted_and_anchored(cube3):
    for q in range(cube3.dimension + 1):
        level = cube3.cubes(q)
        assert level == tuple(sorted(level))
        for cube in level:
            assert len(cube.cutting) == q
            assert cube.cutting == tuple(sorted(cube.cutting))
            # anchor sits on the 0 side of every cutting hyperplane
            assert cube.anchor & cube3.mask_of(cube.cutting) == 0
            assert all(cube3.contains_vertex(v) for v in helpers.cube_vertices(cube3, cube))


def test_cube_index_round_trip(grid12):
    for q in range(grid12.dimension + 1):
        index = cube_index(grid12, q)
        for cube, i in index.items():
            assert grid12.cubes(q)[i] == cube


def test_is_cube_and_spans_cube(square, tripod):
    assert is_cube(square, 0b00, (0, 1))
    assert not is_cube(tripod, 0b000, (0, 1))
    for v in square.vertices:
        assert spans_cube(square, v, (0, 1))
        assert spans_cube(square, v, ())
    assert spans_cube(tripod, 0b000, (2,))
    assert not spans_cube(tripod, 0b100, (1,))
    # duplicate hyperplanes collapse to one
    assert spans_cube(square, 0b11, (0, 0, 1))


def test_cube_vertices_enumerates_corners(cube3):
    top = cube3.cubes(3)[0]
    assert sorted(helpers.cube_vertices(cube3, top)) == list(range(8))
    edge = Cube(0b000, (1,))
    assert sorted(helpers.cube_vertices(cube3, edge)) == [0b000, 0b010]


def test_adjacent_cube(square, grid12):
    assert adjacent_cube(square, Cube(0b00, (0,)), 1)
    assert not adjacent_cube(square, Cube(0b00, (0,)), 0)
    # grid12: edge across h0 at 000 extends over h1, not over h2
    assert adjacent_cube(grid12, Cube(0b000, (0,)), 1)
    assert not adjacent_cube(grid12, Cube(0b000, (0,)), 2)


# -- crossing and Helly ----------------------------------------------------------------


def test_crossing_matrix(square, tripod, grid12):
    assert crossing(square, 0, 1) and crossing(square, 1, 0)
    assert not any(crossing(tripod, h, k) for h in range(3) for k in range(3))
    assert crossing(grid12, 0, 1) and crossing(grid12, 0, 2)
    assert not crossing(grid12, 1, 2)
    mat = grid12.crossing_matrix()
    assert mat.dtype == bool and not mat.flags.writeable


def test_crossing_iff_shared_square(cube3):
    squares = {frozenset(sq.cutting) for sq in cube3.cubes(2)}
    for h in range(3):
        for k in range(3):
            assert crossing(cube3, h, k) == (frozenset((h, k)) in squares)


def test_helly_property_holds_everywhere():
    # pairwise-crossing families span a cube on every fixture and random complex
    for cplx in helpers.all_fixtures() + helpers.random_complexes(5):
        n, cross = cplx.n_hyperplanes, cplx.crossing_matrix()
        for r in range(1, min(n, 4) + 1):
            realized = {c.cutting for c in cplx.cubes(r)}
            for hs in itertools.combinations(range(n), r):
                if all(cross[a, b] for a, b in itertools.combinations(hs, 2)):
                    assert hs in realized


# -- cube/vertex distance -------------------------------------------------------------


@pytest.mark.parametrize("name", ("square", "tripod", "cube3", "grid12"))
def test_cube_distance_matches_brute_force(name):
    cplx = helpers.fixture(name)
    for q in range(cplx.dimension + 1):
        for cube in cplx.cubes(q):
            for v in cplx.vertices:
                expect = helpers.brute_cube_vertex_distance(cplx, cube, v)
                assert cube_distance_to_vertex(cplx, cube, v) == expect
                near = nearest_cube_vertex(cplx, cube, v)
                assert near in set(helpers.cube_vertices(cplx, cube))
                assert distance(cplx, near, v) == expect


# -- normal cube paths -----------------------------------------------------------------


def _check_path(cplx, source, target):
    path = normal_cube_path(cplx, source, target)
    assert path.waypoints[0] == source
    assert path.waypoints[-1] == target
    assert len(path.waypoints) == len(path.cubes) + 1
    crossed = 0
    for cube, before, after in zip(path.cubes, path.waypoints, path.waypoints[1:]):
        mask = cplx.mask_of(cube.cutting)
        assert before ^ after == mask
        # every step crosses fresh hyperplanes, all separating source from target
        assert crossed & mask == 0
        crossed |= mask
        assert is_cube(cplx, cube.anchor, cube.cutting)
        assert before in set(helpers.cube_vertices(cplx, cube))
    assert crossed == source ^ target
    return path


@pytest.mark.parametrize("name", ALL)
def test_normal_cube_path_on_all_vertex_pairs(name):
    cplx = helpers.fixture(name)
    for source in cplx.vertices:
        for target in cplx.vertices:
            _check_path(cplx, source, target)


def test_normal_cube_path_greedy_shape(cube3, tripod):
    path = normal_cube_path(cube3, 0b000, 0b111)
    assert len(path.cubes) == 1
    assert path.cubes[0] == Cube(0b000, (0, 1, 2))
    # tripod: leaf to leaf passes through the center, one edge at a time
    path = normal_cube_path(tripod, 0b100, 0b010)
    assert path.waypoints == (0b100, 0b000, 0b010)
    with pytest.raises(InvalidComplex):
        normal_cube_path(tripod, 0b100, 0b111)


@pytest.mark.parametrize("seed", range(4))
def test_normal_cube_path_random(seed):
    cplx = helpers.random_complex(seed)
    rng = random.Random(seed + 100)
    for _ in range(25):
        _check_path(cplx, rng.choice(cplx.vertices), rng.choice(cplx.vertices))


def test_dist_hyperplane_to_base(grid12):
    assert grid12.dist_hyperplane_to_base(0) == 0
    assert grid12.dist_hyperplane_to_base(1) == 0
    assert grid12.dist_hyperplane_to_base(2) == 1
    moved = rebased(grid12, 0b011)
    assert moved.dist_hyperplane_to_base(2) == 0


# -- bounded geometry ----------------------------------------------------------------------


def test_bounded_geometry_statistic_small_cases(square, tripod):
    # square: every cube meets all 9 cubes through shared vertices
    assert square.bounded_geometry_statistic() == 9
    # tripod edge meets its two endpoint vertices and all three edges
    assert tripod.bounded_geometry_statistic() == 5
    assert CubeComplex(0, [0], 0).bounded_geometry_statistic() == 1


# 70 and 200 hyperplanes: cube keys wider than 8 bytes
WIDE = ("star70", "star200", "path70")


@pytest.mark.parametrize("cplx", [helpers.fixture(name) for name in ALL + WIDE]
                         + helpers.random_complexes(8),
                         ids=list(ALL + WIDE) + ["random%d" % s for s in range(8)])
def test_bounded_geometry_matches_the_oracle(cplx):
    assert cplx.bounded_geometry_statistic() == helpers.oracle_bounded_geometry(cplx)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 8), k=st.integers(1, 7), seed=st.integers(0, 2 ** 16))
def test_bounded_geometry_matches_the_oracle_on_drawn_complexes(n, k, seed):
    cplx = random_median_complex(n, k, seed)
    assert cplx.bounded_geometry_statistic() == helpers.oracle_bounded_geometry(cplx)


def _assert_facets_match(cplx):
    for q in range(cplx.dimension + 2):
        got = cplx.facets(q)
        assert got.shape == (len(cplx.cube_arrays(q).keys), 2 * q)
        assert not got.flags.writeable
        assert np.array_equal(got, helpers.oracle_facets(cplx, q))


@pytest.mark.parametrize("name", helpers.TABLE_CASES)
def test_facets_match_the_per_cube_oracle(name):
    cplx = helpers.table_case(name)
    _assert_facets_match(cplx)
    # base-independent: a rebased copy reads the same tables
    moved = rebased(cplx, cplx.vertices[-1])
    _assert_facets_match(moved)
    assert all(moved.facets(q) is cplx.facets(q) for q in range(cplx.dimension + 2))


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 7), k=st.integers(1, 6), seed=st.integers(0, 2 ** 16),
       pick=st.integers(0, 2 ** 16))
def test_facets_match_the_oracle_on_drawn_complexes(n, k, seed, pick):
    cplx = random_median_complex(n, k, seed)
    _assert_facets_match(rebased(cplx, cplx.vertices[pick % cplx.n_vertices]))


def test_facets_shape_outside_the_levels(cube3):
    assert cube3.facets(0).shape == (8, 0)
    assert cube3.facets(4).shape == (0, 8)
    assert cube3.facets(7).shape == (0, 14)


def test_each_facet_table_is_built_once(monkeypatch):
    builds = collections.Counter()
    cached = CubeComplex.cached

    def counting(self, key, build):
        def counted():
            builds[key] += 1
            return build()
        return cached(self, key, counted)

    monkeypatch.setattr(CubeComplex, "cached", counting)
    cplx = CubeComplex(3, helpers.fixture("cube3").vertices, 0)
    cplx.bounded_geometry_statistic()
    for base in cplx.vertices:
        for q in range(-1, cplx.dimension + 2):
            for raising in (True, False):
                term_table(rebased(cplx, base), q, raising)
    facets = {key: count for key, count in builds.items() if key[0] == "facets"}
    assert facets == {("facets", q): 1 for q in range(-1, cplx.dimension + 3)}


@pytest.mark.parametrize("name, q", (("square", 0), ("cube3", 1), ("cube3", 2)))
def test_a_facet_missing_from_the_levels_raises(name, q):
    # a fresh copy, so the doctored levels reach no other test
    cplx = helpers.fixture(name)
    cplx = CubeComplex(cplx.n_hyperplanes, cplx.vertices, cplx.base_vertex)
    levels = [cplx.cube_arrays(p) for p in range(cplx.dimension + 1)]
    levels[q] = type(levels[q])(*(a[:-1] for a in levels[q]))
    cplx._shared["levels"] = tuple(levels)
    with pytest.raises(AssertionError, match="facet of a cube is missing"):
        cplx.bounded_geometry_statistic()


def test_cube_vertices_ascend(cube3, grid12):
    for cplx in (cube3, grid12):
        for q in range(cplx.dimension + 1):
            for cube in cplx.cubes(q):
                corners = list(helpers.cube_vertices(cplx, cube))
                assert corners == sorted(set(corners))
                assert len(corners) == 1 << len(cube.cutting)


# -- cxc serialization -----------------------------------------------------------------------


@pytest.mark.parametrize("name", ALL)
def test_cxc_round_trip(name):
    cplx = helpers.fixture(name)
    if cplx.n_hyperplanes == 0:
        return
    text = write_cxc(cplx)
    back = parse_cxc(text)
    assert back.n_hyperplanes == cplx.n_hyperplanes
    assert back.vertices == cplx.vertices
    assert back.base_vertex == cplx.base_vertex
    # canonical: serializing again is byte-identical
    assert write_cxc(back) == text


def test_write_cxc_shape(square):
    text = write_cxc(square)
    assert text.splitlines() == [
        "cxc 1", "hyperplanes 2", "basepoint 00", "vertices 4",
        "00", "01", "10", "11"]
    assert text.endswith("\n")


def test_write_cxc_rejects_pointlike():
    with pytest.raises(ValueError):
        write_cxc(CubeComplex(0, [0], 0))


def test_parse_cxc_accepts_comments_and_whitespace():
    text = """
    # a square
    cxc 1
    hyperplanes 2   # two hyperplanes
    basepoint 00
    vertices 4
    00 01
    10 11
    """
    cplx = parse_cxc(text)
    assert cplx.n_vertices == 4


@pytest.mark.parametrize("text,fragment,line", [
    ("cxc 2\n", "unsupported format version", 1),
    ("pip 1\n", "expected 'cxc'", 1),
    ("cxc 1\nhyperplanes 2\nbasepoint 00\nvertices 1\n00\n11\n",
     "unexpected trailing token", 6),
    ("cxc 1\nhyperplanes 2\nbasepoint 00\nvertices 2\n00\n00\n",
     "duplicate vertex", 6),
    ("cxc 1\nhyperplanes 2\nbasepoint 00\nvertices 2\n00\n",
     "unexpected end of document", 5),
    ("cxc 1\nhyperplanes 2\nbasepoint 0\nvertices 1\n00\n",
     "expected a 2-character bitstring", 3),
    ("cxc 1\nhyperplanes 2\nbasepoint 00\nvertices 2\n00\n0x\n",
     "expected a 2-character bitstring", 6),
    ("cxc 1\nhyperplanes x\n", "expected hyperplane count", 2),
    # digits outside ASCII: int() refuses the first and reads the others
    ("cxc 1\nhyperplanes \u00b2\n", "expected hyperplane count", 2),
    ("cxc 1\nhyperplanes \u0662\n", "expected hyperplane count", 2),
    ("cxc 1\nhyperplanes 2\nbasepoint 00\nvertices \uff14\n", "expected vertex count", 4),
])
def test_parse_cxc_error_reporting(text, fragment, line):
    with pytest.raises(CxcParseError) as info:
        parse_cxc(text)
    assert fragment in str(info.value)
    assert info.value.line == line


def test_parse_cxc_rejects_zero_hyperplanes():
    with pytest.raises(CxcParseError, match="at least 1"):
        parse_cxc("cxc 1\nhyperplanes 0\nbasepoint \nvertices 1\n\n")


def test_parse_cxc_propagates_validation():
    text = "cxc 1\nhyperplanes 2\nbasepoint 00\nvertices 2\n00\n11\n"
    with pytest.raises(InvalidComplex, match="connectivity failure"):
        parse_cxc(text)

"""Signed cube calculus: orientation gauge, wedge/hook, diagonal Laplacian."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from helpers import hook_matrix, spectral_profile, wedge_matrix
from cubedeform.core import Cube, CubeComplex
from cubedeform.deformation import deformation_weights
from cubedeform.generate import random_median_complex
from cubedeform.differential import (
    OrientedCube,
    cohomology_ranks,
    d_matrix,
    laplacian_diagonal,
    numerical_rank,
    term_table,
    weight_vector,
)
from oracles import (
    canonicalize,
    cochain_degree,
    cube_index,
    d_cochain,
    delta_cochain,
    delta_matrix,
    hook,
    laplacian_matrix,
    rebased,
    reversed_sign,
    wedge,
)

FIXED = ("square", "tripod", "cube3", "grid12")


def _perm_sign(perm):
    sign = 1
    for i, a in enumerate(perm):
        for b in perm[i + 1:]:
            if a > b:
                sign = -sign
    return sign


def _weights(cplx):
    return [0.5 + 0.25 * h for h in range(cplx.n_hyperplanes)]


# -- canonical gauge -----------------------------------------------------------


@pytest.mark.parametrize("name", FIXED)
def test_canonicalize_presentation_independence(name):
    # every presenting vertex and every hyperplane ordering folds to the
    # anchor presentation with the predicted sign
    cplx = helpers.fixture(name)
    for q in range(cplx.dimension + 1):
        for cube in cplx.cubes(q):
            for vertex in helpers.cube_vertices(cplx, cube):
                flips = (vertex ^ cube.anchor).bit_count()
                for perm in itertools.permutations(cube.cutting):
                    got = canonicalize(cplx, vertex, perm)
                    assert got.cube == cube
                    assert got.sign == (-1) ** flips * _perm_sign(perm)


def test_canonicalize_hand_signs(square):
    assert canonicalize(square, 0b11, (1, 0)).sign == -1
    assert canonicalize(square, 0b10, (0, 1)).sign == -1
    assert canonicalize(square, 0b11, (0, 1)).sign == 1
    assert canonicalize(square, 0b01, ()) == OrientedCube(Cube(0b01, ()), 1)
    assert canonicalize(square, 0b01, (), sign=-1).sign == -1


@given(perm=st.permutations(range(3)))
def test_canonicalize_cube3_permutation_parity(perm):
    cplx = helpers.fixture("cube3")
    got = canonicalize(cplx, 0b000, tuple(perm))
    assert got.cube == Cube(0b000, (0, 1, 2))
    assert got.sign == _perm_sign(tuple(perm))


def test_canonicalize_rejects_bad_presentations(square, tripod):
    with pytest.raises(ValueError, match="duplicate"):
        canonicalize(square, 0b00, (0, 0))
    with pytest.raises(ValueError):
        canonicalize(tripod, 0b000, (0, 1))
    with pytest.raises(IndexError):
        canonicalize(square, 0b00, (5,))


def test_oriented_cube_reversed():
    oc = OrientedCube(Cube(0, (0,)), 1)
    assert reversed_sign(oc) == OrientedCube(Cube(0, (0,)), -1)


def test_cochain_degree():
    assert cochain_degree({}) is None
    assert cochain_degree({Cube(0, ()): 2}) == 0
    with pytest.raises(ValueError, match="mixed-degree"):
        cochain_degree({Cube(0, ()): 1, Cube(0, (0,)): 1})


# -- wedge and hook -------------------------------------------------------------


def test_wedge_hand_examples(square, tripod):
    # vertex on the base side of a hyperplane raises to nothing
    assert wedge(square, 0, Cube(0b00, ())) == {}
    assert wedge(square, 0, Cube(0b10, ())) == {Cube(0b00, (0,)): 1}
    # h cutting the cube gives zero, not a sign error
    assert wedge(square, 1, Cube(0b10, (1,))) == {}
    assert wedge(square, 0, Cube(0b10, (1,))) == {Cube(0b00, (0, 1)): 1}
    # no square in the tripod to raise into
    assert wedge(tripod, 1, Cube(0b000, (0,))) == {}


def test_wedge_collects_signs(square):
    # raising E(01, h0) across h1 lists h1 first, one transposition from canon
    assert wedge(square, 1, Cube(0b01, (0,))) == {Cube(0b00, (0, 1)): -1}


def test_hook_hand_examples(square, tripod):
    top = Cube(0b00, (0, 1))
    assert hook(square, 0, top) == {Cube(0b10, (1,)): 1}
    assert hook(square, 1, top) == {Cube(0b01, (0,)): -1}
    # h must cut the cube
    assert hook(square, 0, Cube(0b00, (1,))) == {}
    assert hook(tripod, 0, Cube(0b000, (0,))) == {Cube(0b100, ()): 1}


def test_wedge_hook_are_linear(square):
    f = {Cube(0b10, ()): 2, Cube(0b11, ()): -3}
    out = wedge(square, 0, f)
    assert out == {Cube(0b00, (0,)): 2, Cube(0b01, (0,)): -3}
    assert hook(square, 0, out) == f


@pytest.mark.parametrize("name", FIXED)
def test_wedge_hook_exclusive_support(name):
    # on any one cube, a hyperplane either raises, lowers, or acts as zero,
    # and the raise/lower anticommutator is the 0/1 indicator of acting
    cplx = helpers.fixture(name)
    for q in range(cplx.dimension + 1):
        for cube in cplx.cubes(q):
            profile = spectral_profile(cplx, cube)
            active = 0
            for h in range(cplx.n_hyperplanes):
                up = wedge(cplx, h, cube)
                down = hook(cplx, h, cube)
                assert not (up and down)
                round_trip = hook(cplx, h, up) if up else wedge(cplx, h, down)
                if up or down:
                    active += 1
                    assert round_trip == {cube: 1}
            assert active == profile.q + profile.p


@pytest.mark.parametrize("name", FIXED)
def test_wedge_wedge_and_mixed_anticommutators(name):
    cplx = helpers.fixture(name)
    dim = cplx.dimension
    for h1, h2 in itertools.combinations(range(cplx.n_hyperplanes), 2):
        for q in range(dim + 1):
            if q + 2 <= dim:
                a = wedge_matrix(cplx, h1, q + 1) @ wedge_matrix(cplx, h2, q)
                b = wedge_matrix(cplx, h2, q + 1) @ wedge_matrix(cplx, h1, q)
                assert not (a + b).any()
            if q + 1 <= dim:
                a = hook_matrix(cplx, h1, q + 1) @ wedge_matrix(cplx, h2, q)
                if q >= 1:
                    a = a + wedge_matrix(cplx, h2, q - 1) @ hook_matrix(cplx, h1, q)
                assert not a.any()
            if q >= 2:
                a = hook_matrix(cplx, h1, q - 1) @ hook_matrix(cplx, h2, q)
                b = hook_matrix(cplx, h2, q - 1) @ hook_matrix(cplx, h1, q)
                assert not (a + b).any()


# -- differential and codifferential -------------------------------------------


def test_d_cochain_hand_examples(square, tripod):
    assert d_cochain(tripod, Cube(0b100, ())) == {Cube(0b000, (0,)): 1}
    assert d_cochain(square, Cube(0b11, ())) == {
        Cube(0b01, (0,)): 1, Cube(0b10, (1,)): 1}
    assert delta_cochain(square, Cube(0b00, (0, 1))) == {
        Cube(0b10, (1,)): 1, Cube(0b01, (0,)): -1}
    assert delta_cochain(square, Cube(0b00, ())) == {}


@pytest.mark.parametrize("name", FIXED)
def test_d_squared_is_zero_in_integers(name):
    cplx = helpers.fixture(name)
    for q in range(cplx.dimension):
        a, b = d_matrix(cplx, q + 1), d_matrix(cplx, q)
        assert a.dtype == np.int64 and b.dtype == np.int64
        assert not (a @ b).any()


@pytest.mark.parametrize("seed", range(10))
def test_d_squared_is_zero_random(seed):
    cplx = helpers.random_complex(seed)
    for q in range(cplx.dimension):
        assert not (d_matrix(cplx, q + 1) @ d_matrix(cplx, q)).any()


@pytest.mark.parametrize("name", FIXED)
def test_delta_is_transpose_of_d(name):
    cplx = helpers.fixture(name)
    w = _weights(cplx)
    for q in range(cplx.dimension + 1):
        assert (delta_matrix(cplx, q + 1) == d_matrix(cplx, q).T).all()
        assert np.array_equal(
            delta_matrix(cplx, q + 1, w), d_matrix(cplx, q, w).T)


def _operator_case(name, data):
    if name.startswith("random"):
        return helpers.random_complexes(4)[int(name[len("random"):])]
    if name == "drawn":
        return random_median_complex(
            data.draw(st.integers(1, 7), label="n"),
            data.draw(st.integers(1, 6), label="k"),
            data.draw(st.integers(0, 2 ** 16), label="seed"))
    if name == "rebased":
        # the original's term tables are cached before the rebased copy,
        # which shares them, is built
        cplx = helpers.fixture("grid12")
        for q in range(cplx.dimension + 1):
            d_matrix(cplx, q), delta_matrix(cplx, q)
        flipped = rebased(cplx, max(cplx.vertices))
        assert flipped.base_vertex != cplx.base_vertex
        return flipped
    return helpers.fixture(name)


def _assert_column(matrix, j, image, index):
    col = np.zeros(len(index))
    for c, coeff in image.items():
        col[index[c]] = coeff
    assert np.array_equal(matrix[:, j], col)


@pytest.mark.parametrize(
    "name", FIXED + tuple("random%d" % s for s in range(4)) + ("rebased", "drawn"))
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_cochain_operators_match_matrices(name, data):
    # the cochain functions apply one term at a time: the oracle for the
    # cached term tables behind every matrix
    cplx = _operator_case(name, data)
    w = _weights(cplx)
    hyperplanes = range(cplx.n_hyperplanes)
    for q in range(cplx.dimension + 1):
        up_index = cube_index(cplx, q + 1)
        down_index = cube_index(cplx, q - 1)
        dmat, deltamat = d_matrix(cplx, q), delta_matrix(cplx, q)
        dmat_w, deltamat_w = d_matrix(cplx, q, w), delta_matrix(cplx, q, w)
        wedges = [wedge_matrix(cplx, h, q) for h in hyperplanes]
        hooks = [hook_matrix(cplx, h, q) for h in hyperplanes]
        for m in (dmat, deltamat, *wedges, *hooks):
            assert m.dtype == np.int64
        for j, cube in enumerate(cplx.cubes(q)):
            _assert_column(dmat, j, d_cochain(cplx, cube), up_index)
            _assert_column(deltamat, j, delta_cochain(cplx, cube), down_index)
            _assert_column(dmat_w, j, d_cochain(cplx, cube, w), up_index)
            _assert_column(deltamat_w, j, delta_cochain(cplx, cube, w), down_index)
            for h in hyperplanes:
                _assert_column(wedges[h], j, wedge(cplx, h, cube), up_index)
                _assert_column(hooks[h], j, hook(cplx, h, cube), down_index)


def test_base_vertex_moves_the_operators(square):
    flipped = rebased(square, 0b11)
    # the old base is now the far corner: raised by both hyperplanes, and the
    # raised presentations sit one flip from their anchors, hence the signs
    assert d_cochain(flipped, Cube(0b11, ())) == {}
    assert d_cochain(flipped, Cube(0b00, ())) == {
        Cube(0b00, (0,)): -1, Cube(0b00, (1,)): -1}


# -- term tables against the per-term oracle --------------------------------------

def _bases(cplx):
    # every vertex of the small complexes, a spread of the wide ones
    return cplx.vertices if cplx.n_vertices <= 40 else cplx.vertices[::35]


def _assert_tables_match(cplx):
    for q in range(-1, cplx.dimension + 2):
        for raising in (True, False):
            got = term_table(cplx, q, raising)
            assert got.dtype == np.int64 and not got.flags.writeable
            assert np.array_equal(got, helpers.oracle_term_table(cplx, q, raising))


@pytest.mark.parametrize("name", helpers.TABLE_CASES)
def test_term_tables_match_the_per_term_oracle(name):
    # rebased copies share the base-independent cube arrays, not the terms
    cplx = helpers.table_case(name)
    for base in _bases(cplx):
        _assert_tables_match(rebased(cplx, base))


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 7), k=st.integers(1, 6), seed=st.integers(0, 2 ** 16),
       pick=st.integers(0, 2 ** 16))
def test_term_tables_match_the_oracle_on_drawn_complexes(n, k, seed, pick):
    cplx = random_median_complex(n, k, seed)
    _assert_tables_match(rebased(cplx, cplx.vertices[pick % cplx.n_vertices]))


def test_a_face_missing_from_the_cube_arrays_raises(square):
    # a fresh copy, so the doctored arrays reach no other test
    cplx = CubeComplex(square.n_hyperplanes, square.vertices, square.base_vertex)
    levels = tuple(cplx.cube_arrays(q) for q in range(cplx.dimension + 1))
    # hooks land on the far side from the base 00, so drop the far corner 11
    cplx._shared["levels"] = (type(levels[0])(*(a[:-1] for a in levels[0])),) + levels[1:]
    with pytest.raises(AssertionError, match="facet of a cube is missing"):
        term_table(cplx, 1, False)


@pytest.mark.parametrize("name", helpers.TABLE_CASES)
def test_laplacian_diagonal_is_the_profiles_bit_for_bit(name):
    cplx = helpers.table_case(name)
    for base in (cplx.base_vertex, cplx.vertices[-1]):
        here = rebased(cplx, base)
        weightings = (None, deformation_weights(here, 1.0), _weights(here))
        for weights in weightings if here.n_hyperplanes else (None,):
            for q in range(here.dimension + 1):
                profiles = [spectral_profile(here, c, weights) for c in here.cubes(q)]
                want = np.array([p.q_w + p.p_w for p in profiles])
                got = laplacian_diagonal(here, q, weights)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
                if weights is None:
                    assert np.array_equal(got, [p.q + p.p for p in profiles])


# -- spectral profile and Laplacian ----------------------------------------------


def test_spectral_profile_hand_values(square):
    by_vertex = {v: spectral_profile(square, Cube(v, ())) for v in square.vertices}
    assert [(p.q, p.p) for p in by_vertex.values()] == [
        (0, 0), (0, 1), (0, 1), (0, 2)]
    assert spectral_profile(square, Cube(0b01, (0,))).p == 1
    assert spectral_profile(square, Cube(0b00, (0,))).p == 0
    assert spectral_profile(square, Cube(0b00, (0, 1))) == (2, 0, 2, 0)


def test_spectral_profile_weighted(square):
    w = [2.0, 3.0]
    prof = spectral_profile(square, Cube(0b01, (0,)), w)
    assert prof.q_w == 4.0 and prof.p_w == 9.0


@pytest.mark.parametrize("name", FIXED)
def test_laplacian_is_diagonal_with_profile_entries(name):
    cplx = helpers.fixture(name)
    for q in range(cplx.dimension + 1):
        lap = laplacian_matrix(cplx, q)
        assert lap.dtype == np.int64
        diag = [spectral_profile(cplx, c) for c in cplx.cubes(q)]
        expect = np.diag([p.q + p.p for p in diag]).astype(np.int64)
        assert (lap == expect).all()


@pytest.mark.parametrize("seed", range(6))
def test_laplacian_diagonal_random(seed):
    cplx = helpers.random_complex(seed)
    for q in range(cplx.dimension + 1):
        lap = laplacian_matrix(cplx, q)
        expect = np.diag(
            [p.q + p.p for p in
             (spectral_profile(cplx, c) for c in cplx.cubes(q))])
        assert (lap == expect).all()


@pytest.mark.parametrize("name", FIXED)
def test_weighted_laplacian_diagonal(name):
    cplx = helpers.fixture(name)
    w = _weights(cplx)
    for q in range(cplx.dimension + 1):
        lap = laplacian_matrix(cplx, q, w)
        diag = np.array([
            p.q_w + p.p_w
            for p in (spectral_profile(cplx, c, w) for c in cplx.cubes(q))])
        scale = max(1.0, float(diag.max(initial=0.0)))
        assert np.abs(lap - np.diag(diag)).max() <= 1e-12 * scale


def test_square_laplacian_diag_values(square):
    assert np.diag(laplacian_matrix(square, 0)).tolist() == [0, 1, 1, 2]
    assert np.diag(laplacian_matrix(square, 1)).tolist() == [1, 1, 2, 2]
    assert np.diag(laplacian_matrix(square, 2)).tolist() == [2]
    moved = rebased(square, 0b11)
    assert np.diag(laplacian_matrix(moved, 0)).tolist() == [2, 1, 1, 0]


# -- weights, ranks ---------------------------------------------


def test_weight_vector_forms(square):
    assert weight_vector(square, None) == [1, 1]
    assert weight_vector(square, {0: 2.0, 1: 0.5}) == [2.0, 0.5]
    assert weight_vector(square, [3, 4]) == [3, 4]
    with pytest.raises(ValueError, match="expected 2 weights"):
        weight_vector(square, [1.0])
    with pytest.raises(ValueError):
        weight_vector(square, [1.0, 0.0])
    with pytest.raises(ValueError):
        weight_vector(square, [1.0, -2.0])


def test_numerical_rank():
    assert numerical_rank(np.eye(4)) == 4
    assert numerical_rank(np.zeros((3, 5))) == 0
    assert numerical_rank(np.zeros((0, 5))) == 0
    assert numerical_rank(np.diag([1.0, 1e-12])) == 1
    assert numerical_rank(np.diag([1.0, 1e-12]), rtol=1e-14) == 2
    # scale invariance: thresholds are relative to the top singular value
    assert numerical_rank(1e-30 * np.eye(3)) == 3


@pytest.mark.parametrize("name", FIXED)
def test_cohomology_is_a_point(name):
    cplx = helpers.fixture(name)
    expect = (1,) + (0,) * cplx.dimension
    assert cohomology_ranks(cplx) == expect
    assert cohomology_ranks(cplx, _weights(cplx)) == expect


@pytest.mark.parametrize("seed", range(8))
def test_cohomology_is_a_point_random(seed):
    cplx = helpers.random_complex(seed)
    assert cohomology_ranks(cplx) == (1,) + (0,) * cplx.dimension


def test_point_complex_operators():
    point = helpers.fixture("point")
    assert d_matrix(point, 0).shape == (0, 1)
    assert laplacian_matrix(point, 0).tolist() == [[0]]
    assert cohomology_ranks(point) == (1,)

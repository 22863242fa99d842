"""Symbol complex: canonical folding, differentials, exact homotopy."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from helpers import enumerate_classes, ps_delta_symbol
from cubedeform.core import Cube, CubeComplex
from cubedeform.deformation import symbol_representative
from cubedeform.differential import OrientedCube
from cubedeform.generate import random_median_complex
from cubedeform.symbols import (
    SymbolArrays,
    basis_keys,
    canonical_symbol_vertex,
    cube_pair,
    ps_basis,
    ps_cohomology_ranks,
    ps_d_matrix,
    ps_dimension,
    ps_term_table,
    ps_type_of_index,
    symbol_arrays,
    symbol_key,
)
from oracles import (
    ps_d_symbol,
    ps_delta_matrix,
    ps_laplacian,
    rebased,
    reversed_sign,
    symbol_from_raw,
    symbol_inner,
    symbol_of_pair,
)

FIXED = ("square", "tripod", "cube3", "grid12")


# -- cube pairs -----------------------------------------------------------------


def test_cube_pair_validation(square):
    top = Cube(0b00, (0, 1))
    edge = Cube(0b01, (0,))
    pair = cube_pair(square, top, edge)
    assert pair.complementary == (1,)
    assert cube_pair(square, top, top).complementary == ()
    with pytest.raises(ValueError, match="not contained"):
        cube_pair(square, edge, top)
    with pytest.raises(ValueError, match="as a face"):
        cube_pair(square, Cube(0b00, (0,)), Cube(0b01, ()))


# -- canonical folding -------------------------------------------------------------


def test_canonical_symbol_vertex(square, cube3, grid12):
    assert canonical_symbol_vertex(square, (0,)) == 0b00
    assert canonical_symbol_vertex(square, (0, 1)) == 0b00
    assert canonical_symbol_vertex(cube3, (1, 2)) == 0b000
    assert canonical_symbol_vertex(grid12, (2,)) == 0b010


def test_canonical_symbol_vertex_of_an_unrealized_set_raises(grid12, square):
    # hyperplanes 1 and 2 of the 1x2 grid do not cross; a repeated one is no set
    for cplx, hyperplanes in ((grid12, (1, 2)), (square, (0, 0)), (square, (0, 1, 0))):
        with pytest.raises(KeyError):
            canonical_symbol_vertex(cplx, hyperplanes)


def test_symbol_fold_is_idempotent(square):
    sym = symbol_from_raw(square, (0,), (1,), 0b00)
    again = symbol_from_raw(square, sym.h_set, sym.k_list, sym.r_canonical,
                            sym.sign)
    assert again == sym


@pytest.mark.parametrize("name", FIXED)
def test_symbol_fold_presentation_independence(name):
    # any adjacent vertex and any ordering of the oriented list fold to the
    # canonical symbol, with the parity-of-moves times permutation sign
    cplx = helpers.fixture(name)
    for klass in enumerate_classes(cplx):
        t = klass.determining
        if not t:
            continue
        r_can = canonical_symbol_vertex(cplx, t)
        mask = cplx.mask_of(t)
        for member in klass.members:
            for corner_bits in range(1 << len(t)):
                r = member.anchor
                for i, h in enumerate(t):
                    if corner_bits >> i & 1:
                        r ^= cplx.mask(h)
                moved = ((r ^ r_can) & mask).bit_count()
                for split in range(len(t) + 1):
                    for k_perm in itertools.permutations(t[:split]):
                        sym = symbol_from_raw(cplx, t[split:], k_perm, r)
                        assert sym.h_set == tuple(sorted(t[split:]))
                        assert sym.k_list == t[:split]
                        assert sym.r_canonical == r_can
                        perm_sign = _perm_sign(k_perm)
                        assert sym.sign == (-1) ** moved * perm_sign


def _perm_sign(perm):
    sign = 1
    for i, a in enumerate(perm):
        for b in perm[i + 1:]:
            if a > b:
                sign = -sign
    return sign


def test_symbol_fold_hand_signs(square):
    # oriented-list moves across the canonical vertex pick up one sign per
    # crossed hyperplane, composed with the list permutation parity
    assert symbol_from_raw(square, (), (1, 0), 0b11).sign == -1
    assert symbol_from_raw(square, (), (0, 1), 0b10).sign == -1
    assert symbol_from_raw(square, (), (0, 1), 0b11).sign == 1
    assert symbol_from_raw(square, (), (0, 1), 0b00).sign == 1


def test_symbol_from_raw_rejects_non_symbols(square, tripod, grid12):
    with pytest.raises(ValueError, match="repeated"):
        symbol_from_raw(square, (0,), (0,), 0b00)
    with pytest.raises(ValueError, match="do not cross"):
        symbol_from_raw(tripod, (0, 1), (), 0b000)
    with pytest.raises(ValueError, match="not adjacent"):
        symbol_from_raw(grid12, (2,), (), 0b000)


def test_symbol_reversed_and_inner(square):
    sym = symbol_from_raw(square, (0,), (1,), 0b00)
    assert reversed_sign(sym).sign == -sym.sign
    assert symbol_inner(sym, sym) == 1
    assert symbol_inner(sym, reversed_sign(sym)) == -1
    other = symbol_from_raw(square, (1,), (0,), 0b00)
    assert symbol_inner(sym, other) == 0


def test_symbol_key_format(square):
    assert symbol_key(symbol_from_raw(square, (0, 1), (), 0b00), square) \
        == "[h0,h1|+|r=00]"
    assert symbol_key(symbol_from_raw(square, (), (0, 1), 0b00), square) \
        == "[+|h0,h1|r=00]"
    assert symbol_key(symbol_from_raw(square, (), (), 0b00), square) \
        == "[+|+|r=00]"


# -- the basis ----------------------------------------------------------------------


@pytest.mark.parametrize("name", FIXED + ("point",))
def test_basis_counts(name):
    cplx = helpers.fixture(name)
    classes = enumerate_classes(cplx)
    total = 0
    for q in range(cplx.dimension + 1):
        expect = sum(math.comb(k.dim, q) for k in classes if k.dim >= q)
        assert ps_dimension(cplx, q) == expect
        total += expect
    assert total == sum(2 ** k.dim for k in classes)
    assert ps_basis(cplx, cplx.dimension + 1) == ()
    assert ps_basis(cplx, -1) == ()


def test_basis_dimensions_hand_values():
    dims = {"square": (4, 4, 1), "tripod": (4, 3), "cube3": (8, 12, 6, 1)}
    for name, expect in dims.items():
        cplx = helpers.fixture(name)
        got = tuple(ps_dimension(cplx, q) for q in range(cplx.dimension + 1))
        assert got == expect


@pytest.mark.parametrize("name", FIXED)
def test_basis_sorted_in_type_blocks(name):
    cplx = helpers.fixture(name)
    for q in range(cplx.dimension + 1):
        basis = ps_basis(cplx, q)
        keys = [(len(s.h_set), s.h_set, s.k_list) for s in basis]
        assert keys == sorted(keys)
        assert all(s.sign == 1 for s in basis)
        assert all(len(s.k_list) == q for s in basis)
        types = ps_type_of_index(cplx, q)
        assert types.tolist() == [len(s.h_set) for s in basis]


# -- differentials -------------------------------------------------------------------


def test_d_symbol_hand_examples(square):
    top = symbol_from_raw(square, (0, 1), (), 0b00)
    assert ps_d_symbol(square, top) == {((1,), (0,)): -1, ((0,), (1,)): -1}
    mixed = symbol_from_raw(square, (0,), (1,), 0b00)
    assert ps_d_symbol(square, mixed) == {((), (0, 1)): -1}
    assert ps_delta_symbol(square, mixed) == {((0, 1), ()): -1}
    assert ps_d_symbol(square, symbol_from_raw(square, (), (), 0b00)) == {}
    assert ps_delta_symbol(square, top) == {}


@pytest.mark.parametrize("name", FIXED)
def test_d_squared_and_delta_squared_vanish(name):
    cplx = helpers.fixture(name)
    for q in range(cplx.dimension + 1):
        d_hi, d_lo = ps_d_matrix(cplx, q), ps_d_matrix(cplx, q - 1)
        assert d_hi.dtype == np.int64
        assert not (d_hi @ d_lo).any()
        assert not (ps_delta_matrix(cplx, q) @ ps_delta_matrix(cplx, q + 1)).any()


@pytest.mark.parametrize("name", FIXED)
def test_delta_is_transpose(name):
    cplx = helpers.fixture(name)
    for q in range(cplx.dimension + 1):
        assert (ps_delta_matrix(cplx, q + 1) == ps_d_matrix(cplx, q).T).all()


@pytest.mark.parametrize("name", FIXED + ("grid22",))
def test_laplacian_is_type_plus_degree(name):
    cplx = helpers.fixture(name)
    for q in range(cplx.dimension + 1):
        lap = ps_laplacian(cplx, q)
        expect = np.diag(ps_type_of_index(cplx, q) + q)
        assert (lap == expect).all()


def test_square_symbol_laplacian_values(square):
    assert np.diag(ps_laplacian(square, 0)).tolist() == [0, 1, 1, 2]
    assert np.diag(ps_laplacian(square, 1)).tolist() == [1, 1, 2, 2]
    assert np.diag(ps_laplacian(square, 2)).tolist() == [2]


def _homotopy_block(cplx, q):
    # scale each adjoint column by 1/(p+q); exact rational entries
    delta = ps_delta_matrix(cplx, q)
    out = np.zeros(delta.shape, dtype=object)
    out[:] = Fraction(0)
    for j, p in enumerate(ps_type_of_index(cplx, q)):
        denom = int(p) + q
        if denom:
            out[:, j] = [Fraction(int(x), denom) for x in delta[:, j]]
    return out


@pytest.mark.parametrize("name", FIXED)
def test_contracting_homotopy_is_exact(name):
    # h d + d h = identity minus the projection onto the empty symbol,
    # verified in rational arithmetic with no tolerance at all
    cplx = helpers.fixture(name)
    for q in range(cplx.dimension + 1):
        n = ps_dimension(cplx, q)
        acc = _homotopy_block(cplx, q + 1) @ ps_d_matrix(cplx, q)
        acc = acc + ps_d_matrix(cplx, q - 1) @ _homotopy_block(cplx, q)
        expect = np.identity(n, dtype=object)
        if q == 0:
            empty = [i for i, s in enumerate(ps_basis(cplx, 0)) if len(s.h_set) == 0]
            assert len(empty) == 1
            expect[empty[0], empty[0]] = 0
        assert (acc == expect).all()


@pytest.mark.parametrize("name", FIXED + ("grid22", "path4"))
def test_symbol_cohomology_is_a_point(name):
    cplx = helpers.fixture(name)
    assert ps_cohomology_ranks(cplx) == (1,) + (0,) * cplx.dimension


@pytest.mark.parametrize("seed", range(8))
def test_symbol_cohomology_is_a_point_random(seed):
    cplx = helpers.random_complex(seed)
    assert ps_cohomology_ranks(cplx) == (1,) + (0,) * cplx.dimension


@pytest.mark.parametrize(
    "name", FIXED + ("grid22",) + tuple("random%d" % s for s in range(4)))
def test_symbol_matrices_match_symbol_images(name):
    # every column is the per-symbol image under the unsigned-key index
    if name.startswith("random"):
        cplx = helpers.random_complexes(4)[int(name[len("random"):])]
    else:
        cplx = helpers.fixture(name)
    index = {q: {s[:2]: i for i, s in enumerate(ps_basis(cplx, q))}
             for q in range(-1, cplx.dimension + 2)}
    for q in range(cplx.dimension + 1):
        for matrix, image_fn, rows in (
                (ps_d_matrix(cplx, q), ps_d_symbol, index[q + 1]),
                (ps_delta_matrix(cplx, q), ps_delta_symbol, index[q - 1])):
            assert matrix.dtype == np.int64
            for j, sym in enumerate(ps_basis(cplx, q)):
                col = np.zeros(len(rows), dtype=np.int64)
                for key, coeff in image_fn(cplx, sym).items():
                    col[rows[key]] = coeff
                assert np.array_equal(matrix[:, j], col)


def _assert_symbol_tables_match(cplx):
    for q in range(-1, cplx.dimension + 2):
        arrays, basis = symbol_arrays(cplx, q), ps_basis(cplx, q)
        assert [(tuple(np.flatnonzero(h)), tuple(np.flatnonzero(k)))
                for h, k in zip(arrays.h, arrays.k)] == [s[:2] for s in basis]
        assert np.array_equal(ps_type_of_index(cplx, q), [len(s.h_set) for s in basis])
        for raising in (True, False):
            got = ps_term_table(cplx, q, raising)
            assert got.dtype == np.int64 and not got.flags.writeable
            assert np.array_equal(got, helpers.oracle_ps_term_table(cplx, q, raising))


@pytest.mark.parametrize("name", helpers.TABLE_CASES)
def test_symbol_tables_match_the_per_symbol_oracle(name):
    _assert_symbol_tables_match(helpers.table_case(name))


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 7), k=st.integers(1, 6), seed=st.integers(0, 2 ** 16))
def test_symbol_tables_match_the_oracle_on_drawn_complexes(n, k, seed):
    _assert_symbol_tables_match(random_median_complex(n, k, seed))


def _assert_basis_matches(cplx):
    """``ps_basis`` and ``basis_keys`` against the per-class construction
    and the per-symbol ``symbol_key``, and the canonical vertex of every
    class against its smallest member anchor."""
    for q in range(-1, cplx.dimension + 2):
        want = helpers.oracle_ps_basis(cplx, q)
        assert ps_basis(cplx, q) == want
        assert basis_keys(cplx, q) == [symbol_key(sym, cplx) for sym in want]
    for klass in enumerate_classes(cplx):
        assert canonical_symbol_vertex(cplx, klass.determining) == \
            min(member.anchor for member in klass.members)


@pytest.mark.parametrize("name", helpers.BASIS_CASES)
def test_basis_matches_the_per_class_construction(name):
    cplx = helpers.table_case(name)
    # built afresh at another base vertex, then that copy rebased back
    fresh = CubeComplex(cplx.n_hyperplanes, cplx.vertices, cplx.vertices[-1])
    _assert_basis_matches(fresh)
    _assert_basis_matches(rebased(fresh, cplx.base_vertex))


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 7), k=st.integers(1, 6), seed=st.integers(0, 2 ** 16),
       pick=st.integers(0, 2 ** 16))
def test_basis_matches_the_construction_on_drawn_complexes(n, k, seed, pick):
    cplx = random_median_complex(n, k, seed)
    _assert_basis_matches(rebased(cplx, cplx.vertices[pick % cplx.n_vertices]))


def test_a_symbol_missing_from_the_arrays_raises(square):
    # a fresh copy, so the doctored arrays reach no other test
    cplx = CubeComplex(square.n_hyperplanes, square.vertices, square.base_vertex)
    cplx._shared[("symbol_arrays", 1)] = SymbolArrays(*(a[1:] for a in symbol_arrays(cplx, 1)))
    with pytest.raises(ValueError, match="not in the basis"):
        ps_term_table(cplx, 0, True)


def test_symbol_data_ignores_the_base_vertex(grid12):
    # rebuilt from scratch at another base so no caches are shared
    other = CubeComplex(grid12.n_hyperplanes, grid12.vertices, 0b111)
    assert other.base_vertex != grid12.base_vertex
    for q in range(grid12.dimension + 1):
        assert [s[:2] for s in ps_basis(other, q)] \
            == [s[:2] for s in ps_basis(grid12, q)]
        assert (ps_d_matrix(other, q) == ps_d_matrix(grid12, q)).all()


# -- symbols of cube pairs ---------------------------------------------------------------


def test_symbol_of_pair_requires_matching_orientation(square):
    pair = cube_pair(square, Cube(0b00, (0, 1)), Cube(0b01, (0,)))
    with pytest.raises(ValueError, match="orientation"):
        symbol_of_pair(square, pair, OrientedCube(Cube(0b00, (0,)), 1))


def test_symbol_of_pair_hand_example(square):
    pair = cube_pair(square, Cube(0b00, (0, 1)), Cube(0b01, (0,)))
    sym = symbol_of_pair(square, pair, OrientedCube(pair.d, 1))
    # face anchor is one flip of h1 from the canonical vertex
    assert sym[:2] == ((1,), (0,))
    assert sym.sign == -1


@pytest.mark.parametrize("name", FIXED)
def test_representative_round_trip(name):
    cplx = helpers.fixture(name)
    for q in range(cplx.dimension + 1):
        for sym in ps_basis(cplx, q):
            pair, orientation = symbol_representative(cplx, sym)
            back = symbol_of_pair(cplx, pair, orientation)
            assert back == sym
            assert back.sign == 1

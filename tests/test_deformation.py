"""Deformation frame: crossing moves, Gram pairings, conjugated differentials."""

import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

import helpers
from helpers import basic_cochain_vector, class_of, enumerate_classes, member_bits, pair_distance
from cubedeform import deformation
from cubedeform.core import Cube, bit_rows
from cubedeform.deformation import (
    basic_cochain,
    deformation_weights,
    pairing_polynomial,
    pairing_table,
    pairing_value,
    path_residual,
    step_coefficients,
    symbol_representative,
)
from cubedeform.differential import OrientedCube, d_matrix, term_table
from cubedeform.generate import grid_complex, hypercube, random_median_complex, star_tree
from cubedeform.symbols import (
    canonical_symbol_vertex,
    cube_pair,
    ps_basis,
    symbol_arrays,
    symbol_vertices,
)
from oracles import (
    adjacent_cube,
    basepoint_commutator_norm,
    basic_section_frame,
    cube_index,
    d_t_pairing,
    d_t_pairing_limit,
    delta_matrix,
    dist_hyperplane_to_base,
    gram_matrix,
    pair_blocks,
    pairing_limit,
    pairing_sweep,
    rebased,
    symbol_from_raw,
    u_t_apply,
    u_t_matrix,
    w_hat_matrix,
    w_path_matrix,
)

INF = float("inf")
FIXED = ("square", "tripod", "cube3", "grid12")
GRID = helpers.TEST_T_GRID


def _frame_pairs(cplx, q):
    return basic_section_frame(cplx, q)


def _fit_and_check(limit, value_at, fit_t=0.1, check_ts=(0.01, 0.001)):
    """Linear-rate convergence: fit the constant at fit_t, verify below."""
    slope = abs(value_at(fit_t) - limit) / fit_t
    for t in check_ts:
        assert abs(value_at(t) - limit) <= 2.0 * slope * t + 1e-12


# -- scalars ------------------------------------------------------------------------


def test_step_coefficients_trig_identity():
    for t in (0.01, 0.1, 0.5, 1.0, 2.0, 5.0):
        a, b = step_coefficients(t)
        assert 0.0 < a < 1.0 and 0.0 < b < 1.0
        assert abs(a * a + b * b - 1.0) <= 1e-15
    assert step_coefficients(INF) == (0.0, 1.0)
    # a decreasing, b increasing in t
    pairs = [step_coefficients(t) for t in (0.1, 0.5, 1.0, 3.0)]
    assert all(x[0] > y[0] and x[1] < y[1] for x, y in zip(pairs, pairs[1:]))
    with pytest.raises(ValueError):
        step_coefficients(0.0)
    with pytest.raises(ValueError):
        step_coefficients(-1.0)


@pytest.mark.parametrize("t", (1e-6, 1e-3))
def test_step_coefficients_b_keeps_its_digits_at_small_t(t):
    # 1 - exp(-t^2) cancels to a few digits near t = 0; -expm1(-t^2) does not
    b = step_coefficients(t)[1]
    want = -math.expm1(-t * t)
    assert abs(b * b - want) <= 2 * math.ulp(want)


def test_deformation_weights(grid12):
    assert deformation_weights(grid12, 1.0) == [1.0, 1.0, 2.0]
    assert deformation_weights(grid12, 0.5) == [1.0, 1.0, 1.5]
    # slope saturates at one
    assert deformation_weights(grid12, 7.0) == deformation_weights(grid12, INF)
    with pytest.raises(ValueError):
        deformation_weights(grid12, 0.0)


@pytest.mark.parametrize("name", helpers.TABLE_CASES)
def test_deformation_weights_match_the_per_vertex_oracle(name):
    # the edge-row pass against the minimum over each hyperplane's adjacent
    # vertices, from every base vertex; the point complex has no hyperplane
    cplx = helpers.table_case(name)
    for base in cplx.vertices:
        here = rebased(cplx, base)
        want = [1.0 + 0.5 * dist_hyperplane_to_base(here, h) for h in range(here.n_hyperplanes)]
        assert deformation_weights(here, 0.5) == want


# -- crossing moves ------------------------------------------------------------------


def test_w_step_is_orthogonal():
    for name in ("square", "cube3", "grid22"):
        cplx = helpers.fixture(name)
        for klass in enumerate_classes(cplx):
            member = klass.members[0]
            for h in range(cplx.n_hyperplanes):
                if h in klass.determining or not adjacent_cube(cplx, member, h):
                    continue
                for t in (0.3, 1.0):
                    w = helpers.w_step_matrix(cplx, member, h, t)
                    assert np.abs(w.T @ w - np.eye(len(w))).max() <= 1e-15


def test_w_step_exact_swap(square):
    # in the fully mixed limit the move swaps a member with its opposite
    # face and returns with a sign
    klass = class_of(square, (1,))
    src, far = klass.members
    w = helpers.w_step_matrix(square, src, 0, ab=(1, 0))
    assert w.dtype == object
    e_src, e_far = np.eye(2, dtype=int)
    assert (w @ e_src == e_far).all()
    assert (w @ e_far == -e_src).all()
    # and from the far side the roles flip
    w_back = helpers.w_step_matrix(square, far, 0, ab=(1, 0))
    assert (w_back @ e_far == e_src).all()


def test_w_step_rejects_non_adjacent(square, tripod):
    with pytest.raises(ValueError, match="not adjacent"):
        helpers.w_step_matrix(square, Cube(0b00, (0, 1)), 0, 1.0)
    with pytest.raises(ValueError, match="not adjacent"):
        helpers.w_step_matrix(tripod, Cube(0b000, (0,)), 1, 1.0)


def test_w_path_identity_and_inverse(cube3):
    klass = class_of(cube3, (0,))
    m0, m1 = klass.members[0], klass.members[-1]
    same = w_path_matrix(cube3, m0, m0, 1.0)
    assert (same == np.eye(len(klass.members))).all()
    there = w_path_matrix(cube3, m1, m0, 0.8)
    back = w_path_matrix(cube3, m0, m1, 0.8)
    assert np.abs(back @ there - np.eye(len(klass.members))).max() <= 1e-14
    with pytest.raises(ValueError, match="not parallel"):
        w_path_matrix(cube3, m0, Cube(0b000, (1,)), 1.0)


@pytest.mark.parametrize("t", (0.3, 1.0))
def test_w_loops_close(t):
    # crossing out along a random walk and back along the tree path is the
    # identity, independent of the route taken
    for i, cplx in enumerate(helpers.all_fixtures() + helpers.random_complexes(5)):
        rng = np.random.default_rng(97 + i)
        assert helpers.random_loop_residual(cplx, rng, t) <= 1e-10


# -- the deformed inner product ---------------------------------------------------------


@pytest.mark.parametrize("name", FIXED)
def test_gram_matrix_structure(name):
    cplx = helpers.fixture(name)
    for q in range(cplx.dimension + 1):
        g = gram_matrix(cplx, q, 0.9)
        index = cube_index(cplx, q)
        x = math.exp(-0.9 * 0.9 / 2.0)
        assert np.array_equal(g, g.T)
        for klass in enumerate_classes(cplx):
            if klass.dim != q:
                continue
            for m1 in klass.members:
                for m2 in klass.members:
                    d = pair_distance(cplx, m1, m2)
                    assert g[index[m1], index[m2]] == pytest.approx(x ** d)
        # cross-class entries vanish
        total_in_class = sum(
            len(k.members) ** 2 for k in enumerate_classes(cplx) if k.dim == q)
        assert np.count_nonzero(g) == total_in_class
        assert (gram_matrix(cplx, q, INF) == np.eye(len(index))).all()


def test_gram_is_positive_semidefinite():
    for cplx in helpers.all_fixtures() + helpers.random_complexes(5):
        for q in range(cplx.dimension + 1):
            for t in GRID:
                eigs = np.linalg.eigvalsh(gram_matrix(cplx, q, t))
                assert eigs.min() >= -1e-10


@pytest.mark.parametrize("name", FIXED)
def test_frame_change_squares_to_gram(name):
    # transpose(U) U recovers the Gram matrix: the t-frame is orthonormal
    cplx = helpers.fixture(name)
    for q in range(cplx.dimension + 1):
        for t in GRID:
            u = u_t_matrix(cplx, q, t)
            g = gram_matrix(cplx, q, t)
            assert np.abs(u.T @ u - g).max() <= 1e-9


def test_u_t_apply_matches_matrix_columns(cube3):
    klass = class_of(cube3, (1,))
    index = cube_index(cube3, 1)
    u = u_t_matrix(cube3, 1, 0.7)
    for member in klass.members:
        out = u_t_apply(cube3, {member: 1.0}, t=0.7)
        col = np.zeros(len(index))
        for cube, value in out.items():
            col[index[cube]] = value
        assert np.abs(col - u[:, index[member]]).max() <= 1e-15


def test_u_t_apply_exact_scalars(square):
    out = u_t_apply(square, {Cube(0b01, (0,)): 1}, ab=(Fraction(3, 5), Fraction(4, 5)))
    assert out and all(isinstance(v, Fraction) for v in out.values())
    assert sum(v * v for v in out.values()) == 1


def test_u_t_class_bases_override(square):
    klass = class_of(square, (0,))
    far = klass.members[-1]
    default = u_t_matrix(square, 1, 0.5)
    rerooted = u_t_matrix(square, 1, 0.5, class_bases={(0,): far})
    assert np.abs(default - rerooted).max() > 0.01
    with pytest.raises(ValueError, match="not a class member"):
        u_t_matrix(square, 1, 0.5, class_bases={(0,): Cube(0b00, (1,))})


def test_framed_sections_concentrate_at_small_t():
    # rooting the frame at the face itself sends the scaled section to the
    # indicator of the opposite face, at a linear rate in t
    for name in ("square", "cube3", "grid22"):
        cplx = helpers.fixture(name)
        for q in range(cplx.dimension):
            index = cube_index(cplx, q)
            for pair, orientation in _frame_pairs(cplx, q):
                p = len(pair.complementary)
                if p == 0:
                    continue
                opp = Cube(
                    pair.d.anchor ^ cplx.mask_of(pair.complementary),
                    pair.d.cutting)
                target = np.zeros(len(index))
                target[index[opp]] = 1.0
                vec = basic_cochain_vector(cplx, pair, orientation)

                def gap(t):
                    u = u_t_matrix(cplx, q, t, class_bases={pair.d.cutting: pair.d})
                    return np.abs((u @ vec) / (-t) ** p - target).max()

                _fit_and_check(0.0, gap)


# -- basic cochains and pairings ----------------------------------------------------------


def test_basic_cochain_hand_example(square):
    pair = cube_pair(square, Cube(0b00, (0, 1)), Cube(0b01, (0,)))
    out = basic_cochain(square, pair, OrientedCube(pair.d, 1))
    assert out == {Cube(0b01, (0,)): 1, Cube(0b00, (0,)): -1}
    vec = basic_cochain_vector(square, pair, OrientedCube(pair.d, 1))
    index = cube_index(square, 1)
    assert vec[index[Cube(0b01, (0,))]] == 1
    assert vec[index[Cube(0b00, (0,))]] == -1
    with pytest.raises(ValueError, match="orientation"):
        basic_cochain(square, pair, OrientedCube(Cube(0b00, (0,)), 1))


@pytest.mark.parametrize("name", FIXED)
def test_basic_cochain_shape(name):
    cplx = helpers.fixture(name)
    for q in range(cplx.dimension + 1):
        for pair, orientation in _frame_pairs(cplx, q):
            out = basic_cochain(cplx, pair, orientation)
            p = len(pair.complementary)
            assert len(out) == 1 << p
            assert set(out.values()) <= {1, -1}
            if p:
                assert sum(out.values()) == 0


@pytest.mark.parametrize("name", FIXED)
def test_frame_counts(name):
    cplx = helpers.fixture(name)
    for q in range(cplx.dimension + 1):
        frame = _frame_pairs(cplx, q)
        expect = sum(
            math.comb(len(c.cutting), q) * 2 ** (len(c.cutting) - q)
            for p in range(cplx.dimension - q + 1)
            for c in cplx.cubes(q + p) if len(c.cutting) == q + p)
        assert len(frame) == expect
        type0 = [pair for pair, _ in frame if not pair.complementary]
        assert len(type0) == len(cplx.cubes(q))
        assert all(o.sign == 1 and len(pair.d.cutting) == q for pair, o in frame)


def _mp_same(t):
    with mp.workdps(60):
        tt = mp.mpf(t)
        x = mp.e ** (-tt * tt / 2)
        return float(2 / tt ** 2 * (1 - x))


def _mp_cross(t, d):
    with mp.workdps(60):
        tt = mp.mpf(t)
        x = mp.e ** (-tt * tt / 2)
        return float(-(x ** d) * (1 - x) ** 2 / tt ** 2)


def _edge_section(cplx, h):
    sym = symbol_from_raw(cplx, (h,), (), canonical_symbol_vertex(cplx, (h,)))
    return symbol_representative(cplx, sym)


def test_pairing_polynomial_tree_forms():
    # edge sections on segment complexes: the same-pair polynomial is
    # 2 - 2x and aligned cross pairs give -x^d (1 - x)^2 with d the gap
    path3 = helpers.fixture("path3")
    path4 = helpers.fixture("path4")
    tripod = helpers.fixture("tripod")

    pair0, o0 = _edge_section(path3, 0)
    pair1, o1 = _edge_section(path3, 1)
    pair2, o2 = _edge_section(path3, 2)
    assert pairing_polynomial(path3, pair0, o0, pair0, o0) == (2, {0: 2, 1: -2})
    assert pairing_polynomial(path3, pair0, o0, pair1, o1) == (2, {0: -1, 1: 2, 2: -1})
    assert pairing_polynomial(path3, pair0, o0, pair2, o2) == (2, {1: -1, 2: 2, 3: -1})

    pe0, po0 = _edge_section(path4, 0)
    pe3, po3 = _edge_section(path4, 3)
    assert pairing_polynomial(path4, pe0, po0, pe3, po3) == (2, {2: -1, 3: 2, 4: -1})

    # tripod canonical sections all point at the center, so the cross pair
    # is anti-aligned and comes out positive
    te0, to0 = _edge_section(tripod, 0)
    te1, to1 = _edge_section(tripod, 1)
    assert pairing_polynomial(tripod, te0, to0, te0, to0) == (2, {0: 2, 1: -2})
    assert pairing_polynomial(tripod, te0, to0, te1, to1) == (2, {0: 1, 1: -2, 2: 1})


def test_pairing_value_matches_closed_forms():
    cases = []
    path3 = helpers.fixture("path3")
    path4 = helpers.fixture("path4")
    cases.append((path3, _edge_section(path3, 0), _edge_section(path3, 0), None))
    cases.append((path3, _edge_section(path3, 0), _edge_section(path3, 1), 0))
    cases.append((path3, _edge_section(path3, 0), _edge_section(path3, 2), 1))
    cases.append((path4, _edge_section(path4, 0), _edge_section(path4, 3), 2))
    for cplx, (p1, o1), (p2, o2), gap in cases:
        for t in (0.01, 0.1, 1.0):
            got = pairing_value(cplx, p1, o1, p2, o2, t)
            want = _mp_same(t) if gap is None else _mp_cross(t, gap)
            assert abs(got - want) <= 1e-12
        limit = pairing_limit(cplx, p1, o1, p2, o2)
        assert limit == (1 if gap is None else 0)
        assert pairing_value(cplx, p1, o1, p2, o2, INF) == 0.0


def test_pairing_limits_at_both_ends(square):
    # vertex sections of type zero have constant pairing one
    pair = cube_pair(square, Cube(0b00, ()), Cube(0b00, ()))
    o = OrientedCube(pair.d, 1)
    assert pairing_value(square, pair, o, pair, o, INF) == 1.0
    assert pairing_limit(square, pair, o, pair, o) == 1
    values, limit = pairing_sweep(square, pair, o, pair, o, (0.5, 1.0))
    assert limit == 1
    assert values == [(0.5, 1.0), (1.0, 1.0)]


@pytest.mark.parametrize("name", ("square", "tripod"))
def test_pairing_converges_to_symbol_inner(name):
    # every same-degree pair of basic sections approaches its symbol
    # pairing at a linear rate
    cplx = helpers.fixture(name)
    for q in range(cplx.dimension + 1):
        frame = _frame_pairs(cplx, q)
        for (p1, o1), (p2, o2) in itertools.product(frame, repeat=2):
            limit = pairing_limit(cplx, p1, o1, p2, o2)
            _fit_and_check(
                limit, lambda t: pairing_value(cplx, p1, o1, p2, o2, t))


ORACLE_T = (0.001, 0.1, 1.0, INF)


@pytest.mark.parametrize(
    "name", helpers.FIXTURE_NAMES + helpers.MORE_FIXTURE_NAMES + (0, 1, 2, 3))
def test_pairings_are_bit_identical_to_the_oracle(name):
    # the cached cochains and per-t constants change no bit of any value;
    # integer names are the seeds of random_complexes(4)
    cplx = helpers.random_complex(name) if isinstance(name, int) else helpers.fixture(name)
    for (_, p1, o1), (_, p2, o2) in helpers.symbol_pairs(cplx):
        assert pairing_polynomial(cplx, p1, o1, p2, o2) == \
            helpers.oracle_pairing_polynomial(cplx, p1, o1, p2, o2)
        assert pairing_limit(cplx, p1, o1, p2, o2) == \
            helpers.oracle_pairing_limit(cplx, p1, o1, p2, o2)
        for t in ORACLE_T:
            assert pairing_value(cplx, p1, o1, p2, o2, t) == \
                helpers.oracle_pairing_value(cplx, p1, o1, p2, o2, t)


def test_pairing_caches_stay_with_their_complex(square, cube3):
    # the same pair keys name different cochains under 2 and 3 hyperplanes:
    # the copy of the face across hyperplane 1 is anchored at 01 or at 010
    x = cube_pair(square, Cube(0, (0, 1)), Cube(0, (0,)))
    e = cube_pair(square, Cube(1, (0,)), Cube(1, (0,)))
    ox, oe = OrientedCube(x.d, 1), OrientedCube(e.d, 1)
    want = {square: (1, {1: 1, 0: -1}), cube3: (1, {1: 1, 2: -1})}
    for cplx in (square, cube3, square, rebased(cube3, 0b111)):
        base = cube3 if cplx.n_hyperplanes == 3 else square
        assert pairing_polynomial(cplx, x, ox, e, oe) == want[base]
        assert helpers.oracle_pairing_polynomial(cplx, x, ox, e, oe) == want[base]
        assert pairing_limit(cplx, x, ox, e, oe) == \
            helpers.oracle_pairing_limit(cplx, x, ox, e, oe)
        for t in ORACLE_T:
            assert pairing_value(cplx, x, ox, e, oe, t) == \
                helpers.oracle_pairing_value(cplx, x, ox, e, oe, t)
    # rebased copies share the per-complex cache; nothing in it depends on
    # the base vertex
    assert rebased(cube3, 0b111)._shared is cube3._shared


def _check_cross_cutting_pairs_vanish(cplx):
    # the premise of pairing_table: faces with different cutting sets
    # give no coefficient and symbols of different keys
    for (_, p1, o1), (_, p2, o2) in helpers.symbol_pairs(cplx):
        if p1.d.cutting != p2.d.cutting:
            assert pairing_polynomial(cplx, p1, o1, p2, o2)[1] == {}
            assert pairing_limit(cplx, p1, o1, p2, o2) == 0


def _check_pairing_table(cplx):
    """Every same-cutting-set pair appears once, in order, with the id of
    its own ``pairing_polynomial`` (coefficients in its order) and ids
    numbered by first appearance: for the whole basis and for every other
    symbol, in passes of the default size and of at most 3 term pairs."""
    degrees = range(cplx.dimension + 1)
    rows = [symbol_arrays(cplx, q) for q in degrees]
    h, k = np.concatenate([a.h for a in rows]), np.concatenate([a.k for a in rows])
    r = np.concatenate([symbol_vertices(cplx, q) for q in degrees])
    every = [symbol_representative(cplx, sym) for q in degrees for sym in ps_basis(cplx, q)]
    for step, chunk in ((1, deformation._TERM_PAIR_CHUNK), (2, deformation._TERM_PAIR_CHUNK),
                        (1, 3)):
        sections = every[::step]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(deformation, "_TERM_PAIR_CHUNK", chunk)
            table = pairing_table(h[::step], k[::step], r[::step])
        keys = [(power, tuple(coeffs.items())) for power, coeffs in table.polynomials]
        assert len(set(keys)) == len(keys)
        assert len(table.start) == len(sections) + 1
        seen = 0
        for i, (p1, o1) in enumerate(sections):
            span = slice(table.start[i], table.start[i + 1])
            cols = table.cols[span].tolist()
            assert cols == [
                j for j, (p2, _) in enumerate(sections) if p2.d.cutting == p1.d.cutting]
            for j, kk in zip(cols, table.ids[span].tolist()):
                power, coeffs = pairing_polynomial(cplx, p1, o1, *sections[j])
                assert keys[kk] == (power, tuple(coeffs.items()))
                assert pairing_limit(cplx, p1, o1, *sections[j]) == (i == j)
                assert kk <= seen
                seen = max(seen, kk + 1)
        assert seen == len(keys)


def _dict_polynomial(terms1, terms2) -> dict:
    """``pairing_polynomial``'s loop on two lists of (anchor, coefficient)
    terms: a degree whose sum cancels is popped, and enters again at the end."""
    coeffs = {}
    for anchor1, a1 in terms1:
        for anchor2, a2 in terms2:
            d = (anchor1 ^ anchor2).bit_count()
            total = coeffs.get(d, 0) + a1 * a2
            if total:
                coeffs[d] = total
            else:
                coeffs.pop(d, None)
    return coeffs


@pytest.mark.parametrize("name", helpers.FIXTURE_NAMES + helpers.MORE_FIXTURE_NAMES + (0, 1))
def test_basic_cochain_pairs_never_cancel_a_degree(name):
    # a term pair of faces D apart, shifted across S and S', is |D + S + S'|
    # apart with sign (-1)^(|S| + |S'|) = (-1)^(d + |D|): one sign per degree,
    # so no running sum returns to zero and the dict order is first appearance
    cplx = helpers.random_complex(name) if isinstance(name, int) else helpers.fixture(name)
    sections = [symbol_representative(cplx, sym)
                for q in range(cplx.dimension + 1) for sym in ps_basis(cplx, q)]
    for p1, o1 in sections:
        terms1 = [(c.anchor, a) for c, a in basic_cochain(cplx, p1, o1).items()]
        for p2, o2 in sections:
            if p2.d.cutting != p1.d.cutting:
                continue
            sign = {}
            for c, a in basic_cochain(cplx, p2, o2).items():
                for anchor, a1 in terms1:
                    d = (anchor ^ c.anchor).bit_count()
                    assert sign.setdefault(d, a * a1) == a * a1


def test_pair_polynomials_keep_the_dict_order_of_a_cancelling_degree():
    # random terms, where degrees do cancel and enter again: the encoded
    # items must follow the dict, which differs from first appearance here
    rng = np.random.default_rng(11)
    n, p = 9, rng.integers(0, 4, size=20)
    tstart = np.concatenate([[0], np.cumsum(1 << p)])
    values = rng.integers(0, 1 << n, size=tstart[-1]).tolist()
    coeffs = rng.choice(np.array([-1, 1], dtype=np.int8), size=tstart[-1])
    anchors = np.packbits(bit_rows(n, values), axis=1).T.copy()
    ii, jj = (a.ravel() for a in np.indices((len(p), len(p))))
    encoded = deformation._pair_polynomials(n, anchors, coeffs, tstart, p, ii, jj)
    reordered = 0
    for row, i, j in zip(encoded.tolist(), ii.tolist(), jj.tolist()):
        terms = [list(zip(values, coeffs.tolist()))[tstart[x]:tstart[x + 1]] for x in (i, j)]
        want = _dict_polynomial(*terms)
        assert row[:2] == [p[i] + p[j], len(want)]
        assert row[2:2 + 2 * row[1]] == [x for item in want.items() for x in item]
        assert not any(row[2 + 2 * row[1]:])
        seen = dict.fromkeys((a ^ b).bit_count() for a, _ in terms[0] for b, _ in terms[1])
        reordered += list(want) != [d for d in seen if d in want]
    assert reordered


@pytest.mark.parametrize(
    "name", helpers.FIXTURE_NAMES + helpers.MORE_FIXTURE_NAMES + (0, 1, 2, 3))
def test_pairing_table_against_the_per_pair_path(name):
    cplx = helpers.random_complex(name) if isinstance(name, int) else helpers.fixture(name)
    _check_cross_cutting_pairs_vanish(cplx)
    _check_pairing_table(cplx)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 7), k=st.integers(1, 6), seed=st.integers(0, 1 << 16))
def test_pairing_table_against_the_per_pair_path_hypothesis(n, k, seed):
    cplx = random_median_complex(n, k, seed)
    _check_cross_cutting_pairs_vanish(cplx)
    _check_pairing_table(cplx)


@pytest.mark.parametrize("t", (1e-5, 1e-200))
def test_pairing_survives_cancellation_at_tiny_t(t):
    # at 50 digits the sum keeps no significant digit here; the value is
    # recomputed at a higher precision and lands on its limit
    cube5 = hypercube(5)
    for (_, p1, o1), (_, p2, o2) in helpers.symbol_pairs(cube5):
        limit = pairing_limit(cube5, p1, o1, p2, o2)
        assert abs(pairing_value(cube5, p1, o1, p2, o2, t) - limit) <= 1e-4


# -- conjugated differentials ---------------------------------------------------------------


@pytest.mark.parametrize("weighted", (False, True))
@pytest.mark.parametrize("t", (0.1, 1.0))
def test_d_t_squares_to_zero(t, weighted):
    for name in FIXED:
        cplx = helpers.fixture(name)
        for q in range(cplx.dimension - 1):
            hi = helpers.d_t_matrix(cplx, q + 1, t, weighted)
            lo = helpers.d_t_matrix(cplx, q, t, weighted)
            assert np.abs(hi @ lo).max() <= 1e-10
            dhi = helpers.delta_t_matrix(cplx, q + 1, t, weighted)
            dlo = helpers.delta_t_matrix(cplx, q + 2, t, weighted)
            assert np.abs(dhi @ dlo).max() <= 1e-10


@pytest.mark.parametrize("t", (0.5, 2.0))
def test_d_t_adjoint_under_gram(t):
    # <d_t f, g>_t = <f, delta_t g>_t as a matrix identity
    for name in FIXED:
        cplx = helpers.fixture(name)
        for q in range(cplx.dimension):
            lhs = helpers.d_t_matrix(cplx, q, t).T @ gram_matrix(cplx, q + 1, t)
            rhs = gram_matrix(cplx, q, t) @ helpers.delta_t_matrix(cplx, q + 1, t)
            assert np.abs(lhs - rhs).max() <= 1e-9


@pytest.mark.parametrize("name", FIXED)
def test_d_t_at_infinity_is_the_plain_differential(name):
    cplx = helpers.fixture(name)
    w = deformation_weights(cplx, INF)
    for q in range(cplx.dimension):
        assert np.array_equal(helpers.d_t_matrix(cplx, q, INF), d_matrix(cplx, q))
        assert np.array_equal(
            helpers.d_t_matrix(cplx, q, INF, weighted=True), d_matrix(cplx, q, w))
        assert np.array_equal(
            helpers.delta_t_matrix(cplx, q + 1, INF), delta_matrix(cplx, q + 1))


def test_d_t_pairing_hand_case(square):
    sym_lo = symbol_from_raw(square, (0,), (), 0b00)
    sym_hi = symbol_from_raw(square, (), (0,), 0b00)
    p1, o1 = symbol_representative(square, sym_lo)
    p2, o2 = symbol_representative(square, sym_hi)
    assert d_t_pairing_limit(square, p1, o1, p2, o2) == -1
    value = d_t_pairing(square, p1, o1, p2, o2, 0.1)
    assert abs(value - (-1.0)) < 0.01
    _fit_and_check(-1, lambda t: d_t_pairing(square, p1, o1, p2, o2, t))


@pytest.mark.parametrize("name", ("square", "tripod"))
def test_d_t_pairing_converges_to_symbol_differential(name):
    cplx = helpers.fixture(name)
    for q in range(cplx.dimension):
        lows = _frame_pairs(cplx, q)
        highs = _frame_pairs(cplx, q + 1)
        for (p1, o1), (p2, o2) in itertools.product(lows, highs):
            limit = d_t_pairing_limit(cplx, p1, o1, p2, o2)
            _fit_and_check(
                limit, lambda t: d_t_pairing(cplx, p1, o1, p2, o2, t))


def test_d_t_pairing_weighted_same_limit(square):
    # the distance-graded weights flatten out as t goes to zero, so the
    # weighted pairing has the same limit
    sym_lo = symbol_from_raw(square, (0,), (), 0b00)
    sym_hi = symbol_from_raw(square, (), (0,), 0b00)
    p1, o1 = symbol_representative(square, sym_lo)
    p2, o2 = symbol_representative(square, sym_hi)
    _fit_and_check(
        -1, lambda t: d_t_pairing(square, p1, o1, p2, o2, t, weighted=True))


# -- base-point change ------------------------------------------------------------------------


def test_w_hat_identity_and_inverse(grid12):
    for q in range(grid12.dimension + 1):
        n = len(grid12.cubes(q))
        assert (w_hat_matrix(grid12, q, 0b000, 0b000, 1.0) == np.eye(n)).all()
        fwd = w_hat_matrix(grid12, q, 0b100, 0b000, 1.0)
        rev = w_hat_matrix(grid12, q, 0b000, 0b100, 1.0)
        assert np.abs(rev @ fwd - np.eye(n)).max() <= 1e-13
        assert np.abs(fwd.T @ fwd - np.eye(n)).max() <= 1e-12


def test_w_hat_commutes_with_non_separating_wedges():
    # exact rational check: moving the base point commutes with raising
    # along any hyperplane that does not separate the two base points,
    # and picks up the stated correction along the one that does
    a, b = Fraction(3, 5), Fraction(4, 5)
    for name in ("square", "grid22"):
        cplx = helpers.fixture(name)
        for src in cplx.vertices:
            for h_edge in range(cplx.n_hyperplanes):
                tgt = src ^ cplx.mask(h_edge)
                if not cplx.contains_vertex(tgt):
                    continue
                for q in range(cplx.dimension):
                    w_lo = w_hat_matrix(cplx, q, tgt, src, ab=(a, b))
                    w_hi = w_hat_matrix(cplx, q + 1, tgt, src, ab=(a, b))
                    for h in range(cplx.n_hyperplanes):
                        at_src = helpers.wedge_matrix(
                            rebased(cplx, src), h, q).astype(object)
                        at_tgt = helpers.wedge_matrix(
                            rebased(cplx, tgt), h, q).astype(object)
                        lhs = w_hi @ at_src - at_tgt @ w_lo
                        if h == h_edge:
                            rhs = (1 - a) * at_src - b * at_tgt
                        else:
                            rhs = 0 * at_src
                        assert not (lhs - rhs).any()


def test_basepoint_commutator_decays(square, grid12):
    for cplx, (p, q) in ((square, (0b00, 0b10)), (grid12, (0b000, 0b100))):
        norms = {t: basepoint_commutator_norm(cplx, p, q, t)
                 for t in (1.0, 0.1, 0.01, 0.001)}
        assert norms[1.0] > norms[0.1] > norms[0.01] > norms[0.001]
        assert norms[0.001] <= 0.05 * norms[1.0]
        for t in GRID:
            assert math.isfinite(basepoint_commutator_norm(cplx, p, q, t))
    with pytest.raises(ValueError, match="adjacent"):
        basepoint_commutator_norm(square, 0b00, 0b11, 1.0)


# -- the class-block store ------------------------------------------------------------------


def _block_complexes():
    names = helpers.FIXTURE_NAMES + helpers.MORE_FIXTURE_NAMES
    wide = star_tree(70)
    assert wide.n_hyperplanes > 62  # anchors wider than an int64
    return [helpers.fixture(n) for n in names] + helpers.random_complexes(8) + [wide]


def test_gram_blocks_match_entrywise_oracle():
    for cplx in _block_complexes():
        for q in range(cplx.dimension + 1):
            for t in (0.1, 0.9, INF):
                assert np.array_equal(gram_matrix(cplx, q, t),
                                      helpers.oracle_gram_matrix(cplx, q, t))


def test_class_blocks_partition_each_degree():
    for cplx in _block_complexes():
        for q in range(cplx.dimension + 1):
            blocks = helpers.one_t(deformation.class_blocks(cplx, q, (0.7,)))
            cols = np.concatenate([blks.cols.ravel() for blks in blocks])
            assert sorted(cols) == list(range(len(cplx.cubes(q))))
            for blks in blocks:
                k, m = blks.cols.shape
                assert blks.gram.shape == blks.frame.shape == (k, m, m)


def test_u_t_matrix_matches_columnwise_oracle(square):
    for cplx in _block_complexes()[:-1]:
        for q in range(cplx.dimension + 1):
            for t in (0.3, 1.0, INF):
                assert np.array_equal(u_t_matrix(cplx, q, t),
                                      helpers.oracle_u_t_matrix(cplx, q, t))
    bases = {(0,): class_of(square, (0,)).members[-1]}
    assert np.array_equal(u_t_matrix(square, 1, 0.5, class_bases=bases),
                          helpers.oracle_u_t_matrix(square, 1, 0.5, class_bases=bases))


@pytest.mark.parametrize("ab", (None, (Fraction(3, 5), Fraction(4, 5)), (1, 0)))
def test_w_path_matches_row_pair_oracle(ab):
    # the cached permutation-and-scale move equals the 2x2 block form,
    # exactly in IEEE arithmetic and in exact scalars
    for name in ("square", "tripod", "cube3", "grid12", "grid22", "path4"):
        cplx = helpers.fixture(name)
        for klass in enumerate_classes(cplx):
            for target in klass.members:
                for source in klass.members:
                    got = w_path_matrix(cplx, target, source, 0.7, ab)
                    want = helpers.oracle_w_path_matrix(cplx, target, source, 0.7, ab)
                    assert got.dtype == want.dtype
                    assert np.array_equal(got, want)


def _step_cases(cplx):
    """Every (member, hyperplane) that has a crossing move, over all classes."""
    for klass in enumerate_classes(cplx):
        for member in klass.members:
            for h in range(cplx.n_hyperplanes):
                if h not in member.cutting and adjacent_cube(cplx, member, h):
                    yield member, h


@pytest.mark.parametrize("t, ab", (
    (0.3, None), (1.0, None), (2.5, None), (INF, None),
    (None, (Fraction(3, 5), Fraction(4, 5))), (None, (1, 0))))
def test_w_step_matches_entrywise_oracle(t, ab):
    # the cached move applied to the identity is the 2x2 block form written
    # entry by entry: equal up to the sign of zeros in IEEE arithmetic
    cases = 0
    for cplx in _block_complexes():
        for member, h in _step_cases(cplx):
            got = helpers.w_step_matrix(cplx, member, h, t, ab)
            want = helpers.oracle_w_step_matrix(cplx, member, h, t, ab)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
            cases += 1
    assert cases > 300


def _assert_groups_match_the_per_class_loop(cplx):
    """Every field of every ``_groups`` record against ``oracle_class_geom``
    and ``member_bits``: sets, member columns, bits, and each move's rows
    and hyperplane, found by its source member and partner, with every
    other row the identity."""
    seen = 0
    for klass in enumerate_classes(cplx):
        view = helpers.group_class(cplx, klass)
        group, c, m = view.group, view.c, len(klass.members)
        want = helpers.oracle_class_geom(cplx, klass)
        assert group.sets[c].tolist() == list(klass.determining)
        assert group.cols[c].tolist() == want.cols
        bits = member_bits(cplx, klass)
        assert np.array_equal(group.bits[c], bits.bits)
        assert np.array_equal(deformation._separations(group.bits[c:c + 1], np.intp)[0],
                              bits.separations())
        perm, sign = group.moves
        r = group.perm.shape[1]
        used = set()
        for i, steps in enumerate(want.steps):
            assert (group.sign[c, :, i] == -1).sum() == len(steps)
            for v, h, side in steps:
                (row,) = np.flatnonzero((group.perm[c, :, i] == v) & (group.sign[c, :, i] == -1))
                assert (perm[c * r + row].tolist(), sign[c * r + row].tolist()) == want.moves[h, side]
                assert group.planes[c, row] == h
                used.add(row)
        assert len(used) == len(want.moves)
        for row in set(range(r)) - used:
            assert perm[c * r + row].tolist() == list(range(m)) and not sign[c * r + row].any()
            assert group.planes[c, row] == 0
        seen += 1
    assert seen == cplx.n_vertices
    assert sum(len(g.cols) for q in range(cplx.dimension + 1)
               for g in deformation._groups(cplx, q)) == seen


@pytest.mark.parametrize("name", helpers.FIXTURE_NAMES + helpers.MORE_FIXTURE_NAMES
                         + helpers.WIDE_FIXTURE_NAMES + ("random0", "random1", "random2"))
def test_groups_match_the_per_class_loop(name):
    _assert_groups_match_the_per_class_loop(helpers.table_case(name))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 8), k=st.integers(1, 6), seed=st.integers(0, 1 << 16))
def test_groups_match_the_per_class_loop_hypothesis(n, k, seed):
    _assert_groups_match_the_per_class_loop(random_median_complex(n, k, seed))


def test_groups_separations_stay_near_the_result_size():
    # the 961-member vertex class of the 30x30 grid: its separations are
    # written a block of rows at a time, never as one float product
    (group,) = deformation._groups(grid_complex([30, 30]), 0)
    tracemalloc.start()
    try:
        dist = deformation._separations(group.bits, np.uint8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * dist.nbytes
    bits = group.bits
    ones = bits.sum(axis=2)
    want = ones[:, :, None] + ones[:, None, :] - 2.0 * (bits @ bits.transpose(0, 2, 1))
    assert dist.dtype == np.uint8
    assert np.array_equal(dist, want.astype(np.uint8))


def test_groups_refuse_members_that_span_no_cube():
    # a square dropped from the cached 2-cube rows leaves its two edge pairs
    # at distance one with no cube between them
    cplx = grid_complex([2, 2])
    cplx.cube_arrays(0)
    levels = cplx._shared["levels"]
    upper = levels[2]
    cplx._shared["levels"] = levels[:2] + (type(upper)(*(a[1:] for a in upper)),)
    with pytest.raises(AssertionError, match="span no cube"):
        deformation._groups(cplx, 1)
    with pytest.raises(AssertionError, match="span no cube"):
        helpers.oracle_class_geom(cplx, class_of(cplx, (0,)))


def test_root_paths_rows_are_the_tree_paths():
    # every member's geodesic to every root is the first-in-first-out
    # tree's path, padded with the identity key 0
    for cplx in _block_complexes():
        for klass in enumerate_classes(cplx):
            view = helpers.group_class(cplx, klass)
            m = len(klass.members)
            for root in range(m):
                paths = deformation._geodesics(view.group, np.full(m, view.c),
                                               np.full(m, root), np.arange(m))
                tree = helpers.oracle_tree(cplx, view, root)
                keys = [helpers.oracle_path_keys(tree, i) for i in range(m)]
                assert paths.shape == (len(keys), max(map(len, keys)))
                for row, path in zip(paths, keys):
                    assert list(row[:len(path)]) == path
                    assert not row[len(path):].any()


def _assert_geodesics_walk_to_the_root(cplx, rng):
    """Random (class, root, start) triples of every group, each class at
    least once: a row holds d(start, root) nonzero keys, then padding, and
    the moves' partners along them lead from the start to the root; with
    the moves across one hyperplane of a class taken out, a start on the
    other side of it from the root is cut off.  Each path is the
    first-in-first-out tree's (``oracle_tree``)."""
    views = {}
    for klass in enumerate_classes(cplx):
        view = helpers.group_class(cplx, klass)
        views[id(view.group), view.c] = view
    for group in (g for q in range(cplx.dimension + 1) for g in deformation._groups(cplx, q)):
        k, r, m = group.perm.shape
        cls = np.concatenate([np.arange(k), rng.integers(k, size=5)])
        roots, starts = rng.integers(m, size=(2, len(cls)))
        keys = deformation._geodesics(group, cls, roots, starts)
        perm = group.moves[0]
        for row, c, root, start in zip(keys, cls, roots, starts):
            steps = int((group.bits[c, root] != group.bits[c, start]).sum())
            assert row[:steps].all() and not row[steps:].any()
            assert (row[:steps] // r == c).all()
            node = start
            for key in row[:steps]:
                node = perm[key, node]
            assert node == root
            tree = helpers.oracle_tree(cplx, views[id(group), c], root)
            assert list(row[:steps]) == helpers.oracle_path_keys(tree, start)
        if r == 1:
            continue
        # the class's first hyperplane, rows 1 and 2, cuts it in two
        c = int(rng.integers(k))
        side = group.bits[c, :, group.planes[c, 1]]
        root, start = np.flatnonzero(side == 0)[0], np.flatnonzero(side == 1)[0]
        cut = group._replace(perm=group.perm.copy(), sign=group.sign.copy())
        cut.perm[c, 1:3], cut.sign[c, 1:3] = np.arange(m), 0
        with pytest.raises(AssertionError, match="not connected"):
            deformation._geodesics(cut, [c], [root], [start])
        with pytest.raises(AssertionError, match="not connected"):
            deformation._geodesics(cut, [c], [start], [root])


def test_geodesics_walk_to_the_root():
    rng = np.random.default_rng(11)
    for cplx in _block_complexes() + [helpers.fixture("path70")]:
        _assert_geodesics_walk_to_the_root(cplx, rng)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 8), k=st.integers(1, 6), seed=st.integers(0, 1 << 16))
def test_geodesics_walk_to_the_root_hypothesis(n, k, seed):
    _assert_geodesics_walk_to_the_root(random_median_complex(n, k, seed),
                                       np.random.default_rng(seed))


def test_geodesics_refuse_a_disconnected_class():
    # the square's vertex class without its moves across hyperplane 0:
    # 0b00 and 0b10 lie on two sides of the cut
    (group,) = deformation._groups(hypercube(2), 0)
    perm, sign = group.perm.copy(), group.sign.copy()
    assert (group.planes[0, 1:3] == 0).all()
    perm[0, 1:3], sign[0, 1:3] = np.arange(4), 0
    cut = group._replace(perm=perm, sign=sign)
    assert deformation._geodesics(cut, [0], [0], [1]).shape == (1, 1)  # across hyperplane 1
    with pytest.raises(AssertionError, match="not connected"):
        deformation._geodesics(cut, [0], [0], [2])


@pytest.mark.parametrize("ab", (None, (Fraction(3, 5), Fraction(4, 5))))
def test_w_hat_matches_entrywise_oracle(ab):
    for cplx in _block_complexes()[:-1]:
        far = cplx.vertices[-1]
        pairs = helpers.adjacent_vertex_pairs(cplx) + [(cplx.base_vertex, far)]
        for p, r in pairs:
            for q in range(cplx.dimension + 1):
                got = w_hat_matrix(cplx, q, r, p, 1.0, ab)
                want = helpers.oracle_w_hat_matrix(cplx, q, r, p, 1.0, ab)
                assert got.dtype == want.dtype
                assert np.array_equal(got, want)


def _assert_pair_blocks_match_dense_solve(cplx, t):
    # the scatter of the class-pair blocks is U^(-1) d U (and U^(-1) delta U)
    # from one dense solve; at t = infinity it is the operator itself
    for q in range(cplx.dimension):
        for raising, want in ((True, helpers.d_t_matrix(cplx, q, t)),
                              (False, helpers.delta_t_matrix(cplx, q + 1, t))):
            got = helpers.pair_blocks_matrix(cplx, q if raising else q + 1, t, raising)
            if t == INF:
                assert np.array_equal(got, want)
            else:
                assert np.abs(got - want).max() <= 1e-12


@pytest.mark.parametrize("t", (0.3, 1.0, INF))
def test_conjugated_matches_dense_solve(t):
    for cplx in _block_complexes()[:-1]:
        _assert_pair_blocks_match_dense_solve(cplx, t)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 7), k=st.integers(2, 6), seed=st.integers(0, 1 << 16),
       t=st.sampled_from((0.3, 1.0, INF)))
def test_conjugated_matches_dense_solve_hypothesis(n, k, seed, t):
    _assert_pair_blocks_match_dense_solve(random_median_complex(n, k, seed), t)


def test_pair_blocks_list_only_linked_class_pairs():
    # every listed class pair holds a term, and every term's pair is listed
    for cplx in _block_complexes()[:-1]:
        for q in range(cplx.dimension):
            hi, lo = (deformation.class_blocks(cplx, d, (0.5,)) for d in (q + 1, q))
            terms = term_table(cplx, q, True)
            linked = set(zip(_class_head(hi)[terms[:, 0]].tolist(),
                             _class_head(lo)[terms[:, 1]].tolist()))
            listed = {pair for part in pair_blocks(terms, hi, lo, (0.5,))
                      for pair in zip(hi[part.stacks[0]].cols[part.hi, 0].tolist(),
                                      lo[part.stacks[1]].cols[part.lo, 0].tolist())}
            assert listed == linked


def _class_head(blocks):
    """Each cube's class, named by the position of its first member."""
    out = np.empty(sum(b.cols.size for b in blocks), dtype=np.intp)
    for b in blocks:
        out[b.cols] = b.cols[:, :1]
    return out


# -- conjugated differentials in closed form ------------------------------------------


def _frame_terms_matrix(cplx, q, t, raising):
    """``frame_terms`` of d_t (raising) or delta_t on degree q at one t,
    scattered dense: sign b^(+-1) x^exponent per row, rows added."""
    rows = deformation.frame_terms(cplx, q, raising)
    x, b = step_coefficients(t)
    out = np.zeros((len(cplx.cubes(q + 1 if raising else q - 1)), len(cplx.cubes(q))))
    scale = b if raising else 1 / b
    np.add.at(out, (rows[:, 0], rows[:, 1]), rows[:, 3] * scale * x ** rows[:, 2])
    return out


def _assert_frame_terms_match_pair_blocks(cplx):
    # both tables against U^-1 B U from the class-pair blocks and their
    # solves, entry by entry, relative to the largest entry
    for t in (0.1, 0.7, 2.0, INF):
        for q in range(cplx.dimension):
            for degree, raising in ((q, True), (q + 1, False)):
                want = helpers.pair_blocks_matrix(cplx, degree, t, raising)
                got = _frame_terms_matrix(cplx, degree, t, raising)
                assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), (t, q, raising)


@pytest.mark.parametrize("name", helpers.FIXTURE_NAMES + helpers.MORE_FIXTURE_NAMES)
def test_frame_terms_match_pair_blocks_on_fixtures(name):
    _assert_frame_terms_match_pair_blocks(helpers.fixture(name))


@pytest.mark.parametrize("make", (lambda: hypercube(5), lambda: grid_complex([3, 3, 2]),
                                  lambda: star_tree(70), lambda: random_median_complex(12, 8, 3)),
                         ids=("cube5", "grid332", "star70", "rm12"))
def test_frame_terms_match_pair_blocks(make):
    _assert_frame_terms_match_pair_blocks(make())


@settings(max_examples=25, deadline=None)
@given(n=st.integers(2, 7), k=st.integers(2, 6), seed=st.integers(0, 1 << 16),
       pick=st.integers(0, 1 << 16))
def test_frame_terms_match_pair_blocks_hypothesis(n, k, seed, pick):
    cplx = random_median_complex(n, k, seed)
    _assert_frame_terms_match_pair_blocks(rebased(cplx, cplx.vertices[pick % cplx.n_vertices]))


def test_frame_terms_are_read_only_int64_rows():
    cplx = grid_complex([3, 3, 2])
    for q in range(cplx.dimension):
        for table in (deformation.frame_terms(cplx, q, True),
                      deformation.frame_terms(cplx, q + 1, False)):
            assert table.dtype == np.int64 and table.shape[1] == 4
            assert not table.flags.writeable
    # the delta_t rows: two per term of delta, exponents 0 and 1
    delta = deformation.frame_terms(cplx, 1, False)
    assert len(delta) == 2 * len(term_table(cplx, 1, False))
    assert sorted(set(delta[:, 2].tolist())) == [0, 1]


@pytest.mark.parametrize("determining", ((), (0,), (2,), (0, 1), (1, 2)))
def test_path_residual_sees_a_sabotaged_move(determining):
    # one move of one class rotates the wrong way: whichever class it is, and
    # wherever it sits in the stack of its size; (0, 1) has two members and
    # no square, so only the move forth then back can see it
    cplx = hypercube(3)  # a fresh complex: the cached moves are its own
    assert path_residual(cplx, (1.0,)) <= 1e-10
    view = helpers.group_class(cplx, class_of(cplx, determining))
    k = min(view.move_key.values())
    sign = view.group.moves[1]  # a view of the group's sign table
    sign[k] = -sign[k]
    assert path_residual(cplx, (1.0,)) > 1e-10


@pytest.mark.parametrize("swap", (False, True))
def test_a_wrong_partner_is_a_breakdown(swap):
    # the members of each relation come from the move tables: one member
    # given a wrong partner pairs no members, and two pairs swapping partners
    # in both moves across the hyperplane leave a square open
    cplx = hypercube(3)
    view = helpers.group_class(cplx, class_of(cplx, ()))
    perm = view.group.moves[0]  # a view of the group's perm table
    k = min(view.move_key.values())
    u = np.flatnonzero(perm[k] > np.arange(perm.shape[1]))[:2]
    v = perm[k, u]
    if swap:
        perm[k:k + 2, u] = v[::-1]
        perm[k:k + 2, v] = u[::-1]
    else:
        perm[k, u[0]] = v[1]
    with pytest.raises(AssertionError, match="close a square" if swap else "swap pairs"):
        path_residual(cplx, (1.0,))


@pytest.mark.parametrize("t", (0.3, 1.0))
def test_path_residual_matches_whole_class_products(t):
    for cplx in _block_complexes():
        assert abs(path_residual(cplx, (t,)) - helpers.oracle_path_residual(cplx, (t,))) <= 1e-15


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 7), k=st.integers(2, 6), seed=st.integers(0, 1 << 16),
       t=st.sampled_from((1e-6, 0.3, 1.0, 5.0)), rotation=st.booleans())
def test_path_residual_matches_whole_class_products_hypothesis(n, k, seed, t, rotation):
    # off the unit circle, (a, b) = (0.6, 0.9), a move forth then back scales
    # by 1.17 and a square by 1.17^2, so the blocks are compared whole
    cplx = random_median_complex(n, k, seed)
    with pytest.MonkeyPatch.context() as patch:
        if not rotation:
            for module in (deformation, helpers):
                patch.setattr(module, "step_coefficients", lambda t: (0.6, 0.9))
        got, want = path_residual(cplx, (t,)), helpers.oracle_path_residual(cplx, (t,))
    assert abs(got - want) <= 1e-15
    assert rotation or got >= 0.17 - 1e-15 or cplx.n_vertices == 1


def test_path_residual_of_no_t_is_zero():
    assert path_residual(hypercube(3), ()) == 0.0

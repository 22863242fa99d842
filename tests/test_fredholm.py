"""Graded spectral harness: bounded transform, homotopy, resolvent bounds."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from cubedeform import random_median_complex
from cubedeform.differential import norm2_bound_sums
from cubedeform.fredholm import (
    SpectralFrame,
    format_t,
    graded_offsets,
    inv_sqrt_diagonal,
    inv_sqrt_integral,
    spectral_frame,
)
from cubedeform.deformation import deformation_weights
from oracles import (
    assemble_D,
    base_projection,
    basepoint_decay_sweep,
    inv_sqrt_spectral,
    laplacian_matrix,
    normalized_d,
    rebased,
)

INF = float("inf")
FIXED = ("square", "tripod", "cube3", "grid12")
LAMBDAS = (0.0, 1.0, 10.0)


def oracle_cases():
    """Every named fixture and eight random median complexes."""
    names = helpers.FIXTURE_NAMES + helpers.MORE_FIXTURE_NAMES
    return [helpers.fixture(n) for n in names] + helpers.random_complexes(8)


def dense_s(frame):
    """The frame's S scattered from its term listing."""
    n = len(frame.lam)
    return helpers.scatter(n, frame.terms[:, 0] * n + frame.terms[:, 1], frame.values)


def bound(frame, defect):
    return norm2_bound_sums(len(frame.lam), *defect)


def listing(s):
    """A dense square S as a term listing: (target, source, term id, sign)
    rows by ascending source, and the values."""
    cols, rows = np.nonzero(s.T)
    terms = np.stack([rows, cols, np.arange(len(rows)), np.ones_like(rows)], axis=1)
    return terms, s[rows, cols]


# -- assembly ----------------------------------------------------------------------


@pytest.mark.parametrize("name", FIXED)
def test_graded_offsets(name):
    cplx = helpers.fixture(name)
    offs = graded_offsets(cplx)
    assert offs[0] == 0
    for q in range(cplx.dimension + 1):
        assert offs[q + 1] - offs[q] == len(cplx.cubes(q))


def _square_less_laplacian(cplx, weights=None):
    """D @ D less ``laplacian_matrix`` on each degree block; other blocks kept.

    The Laplacian is block diagonal, so the result vanishes.
    """
    op = assemble_D(cplx, weights)
    gap = op @ op
    offs = graded_offsets(cplx)
    for q in range(cplx.dimension + 1):
        block = slice(offs[q], offs[q + 1])
        gap[block, block] -= laplacian_matrix(cplx, q, weights)
    return op, gap


@pytest.mark.parametrize("name", FIXED)
def test_assemble_D_squares_to_laplacian(name):
    cplx = helpers.fixture(name)
    op, gap = _square_less_laplacian(cplx)
    assert op.dtype == np.int64
    assert (op == op.T).all()
    assert not gap.any()
    # weighted version, to rounding
    op, gap = _square_less_laplacian(cplx, deformation_weights(cplx, 0.7))
    dw = op
    assert np.abs(dw - dw.T).max() == 0
    assert np.abs(gap).max() <= 1e-12 * max(np.abs(dw @ dw).max(), 1.0)


def test_assemble_laplacian_blocks(grid12):
    """The graded Laplacian D @ D is block diagonal, one Delta_q per degree."""
    op = assemble_D(grid12)
    lap = op @ op
    offs = graded_offsets(grid12)
    for q in range(grid12.dimension + 1):
        block = slice(offs[q], offs[q + 1])
        assert (lap[block, block] == laplacian_matrix(grid12, q)).all()
    # off-diagonal blocks vanish
    assert np.count_nonzero(lap) == sum(
        np.count_nonzero(laplacian_matrix(grid12, q))
        for q in range(grid12.dimension + 1))


def test_degree_slices(square):
    offs = graded_offsets(square)
    assert offs == (0, 4, 8, 9)
    op = assemble_D(square)
    assert op.shape == (9, 9)
    sub = op[offs[1]:offs[2], offs[0]:offs[1]]
    assert sub.shape == (4, 4)


@pytest.mark.parametrize("name", FIXED)
def test_assemble_raising_halves(name):
    cplx = helpers.fixture(name)
    full = assemble_D(cplx)
    r = np.tril(full)
    assert np.array_equal(r, helpers.oracle_raising(cplx))
    assert (r @ r == 0).all()
    assert (r + r.T == full).all()
    # strictly block-lower: nothing raises into degree zero
    offs = graded_offsets(cplx)
    assert not r[: offs[1], :].any()


def test_base_projection(cube3):
    p = base_projection(cube3)
    assert p.dtype == np.int64
    assert (p @ p == p).all()
    assert p.trace() == 1
    assert p[cube3.vertex_index(cube3.base_vertex),
             cube3.vertex_index(cube3.base_vertex)] == 1
    moved = base_projection(rebased(cube3, 0b101))
    assert moved.trace() == 1
    assert not (moved == p).all()


# -- dense linear algebra helpers ----------------------------------------------------


def test_resolvent_inverts(square):
    s = assemble_D(square).astype(float) + base_projection(square)
    res = helpers.resolvent(s, 1j)
    eye = np.eye(s.shape[0])
    assert np.abs(res @ (s + 1j * eye) - eye).max() <= 1e-12


def test_resolvent_rejects_singular(square):
    # d + delta alone has the harmonic line in its kernel
    with pytest.raises(ValueError, match="singular to working precision"):
        helpers.resolvent(assemble_D(square).astype(float), 0.0)


def test_inv_sqrt_spectral():
    m = np.diag([1.0, 4.0, 9.0])
    assert np.abs(inv_sqrt_spectral(m) - np.diag([1.0, 0.5, 1 / 3])).max() <= 1e-15
    rng = np.random.default_rng(5)
    a = rng.standard_normal((6, 6))
    spd = a @ a.T + 6 * np.eye(6)
    root = inv_sqrt_spectral(spd)
    assert np.abs(root @ spd @ root - np.eye(6)).max() <= 1e-12
    with pytest.raises(ValueError, match="not positive definite"):
        inv_sqrt_spectral(np.diag([1.0, 0.0]))
    with pytest.raises(ValueError, match="not positive definite"):
        # the degree-0 block Laplacian has the harmonic kernel line
        inv_sqrt_spectral(laplacian_matrix(helpers.fixture("square"), 0))


def test_inv_sqrt_quadrature_basics():
    assert np.abs(inv_sqrt_integral(np.eye(3)) - np.eye(3)).max() <= 1e-6
    got = inv_sqrt_integral(np.diag([1.0, 4.0]))
    assert np.abs(got - np.diag([1.0, 0.5])).max() <= 1e-6
    with pytest.raises(ValueError, match="bounded below by 1"):
        inv_sqrt_integral(0.5 * np.eye(2))


def _no_dense(*args, **kwargs):
    raise AssertionError("dense linear algebra on a structured fast path")


def test_inv_sqrt_integral_diagonal_is_the_dense_loop(monkeypatch):
    # P + D^2 is exactly diagonal for unit weights: the entrywise path must
    # reproduce the 200 dense solves bit for bit, without solving
    cases = []
    for name in helpers.FIXTURE_NAMES + helpers.MORE_FIXTURE_NAMES:
        cplx = helpers.fixture(name)
        d = assemble_D(cplx).astype(float)
        m = base_projection(cplx) + d @ d
        assert np.count_nonzero(m - np.diag(np.diag(m))) == 0
        cases.append((m, 200))
    rng = np.random.default_rng(11)
    cases.append((np.diag(1.0 + 50.0 * rng.random(9)), 37))
    expected = [helpers.oracle_inv_sqrt_integral(m, nodes) for m, nodes in cases]
    monkeypatch.setattr(np.linalg, "solve", _no_dense)
    for (m, nodes), want in zip(cases, expected):
        assert np.array_equal(inv_sqrt_integral(m, nodes), want)
        assert np.array_equal(inv_sqrt_diagonal(np.diag(m), nodes), np.diag(want))
    with pytest.raises(ValueError, match="bounded below by 1"):
        inv_sqrt_diagonal(np.array([1.0, 0.5]))


@pytest.mark.parametrize("top", (2.0, 1e2, 2001.0, 1e4, 1e5))
def test_inv_sqrt_diagonal_is_exact_across_the_spectrum(top):
    # the midpoint rule in theta for s = c tan(theta) converges geometrically
    # at a rate set by sqrt(lambda) / c; with c = (low high)^(1/4) it is at
    # rounding level over [1, 1e5] (unscaled, c = 1, it is 3.4e-8 off at 2,001)
    diag = np.concatenate([np.geomspace(1.0, top, 41), np.linspace(1.0, top, 41)])
    got = inv_sqrt_diagonal(diag)
    assert (np.abs(got * diag ** 0.5 - 1.0) <= 1e-14).all()


def test_inv_sqrt_integral_dense_fallback():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((7, 7))
    m = a @ a.T + np.eye(7)
    got = inv_sqrt_integral(m)
    assert np.array_equal(got, helpers.oracle_inv_sqrt_integral(m))
    spec = inv_sqrt_spectral(m)
    assert np.linalg.norm(got - spec, 2) <= 1e-6 * np.linalg.norm(spec, 2)
    with pytest.raises(ValueError, match="bounded below by 1"):
        inv_sqrt_integral(m - 0.5 * np.eye(7))


@pytest.mark.parametrize("name", FIXED)
def test_inv_sqrt_quadrature_matches_spectral(name):
    # the integral formula reproduces the eigendecomposition answer on the
    # shifted squares that actually arise
    cplx = helpers.fixture(name)
    d = assemble_D(cplx).astype(float)
    m = base_projection(cplx) + d @ d
    quad = inv_sqrt_integral(m, nodes=200)
    spec = inv_sqrt_spectral(m)
    rel = np.linalg.norm(quad - spec, 2) / np.linalg.norm(spec, 2)
    assert rel <= 1e-6


# -- the normalized differential --------------------------------------------------------


@pytest.mark.parametrize("weighted", (False, True))
@pytest.mark.parametrize("name", FIXED)
def test_normalized_d_identities(name, weighted):
    cplx = helpers.fixture(name)
    w = deformation_weights(cplx, 1.0) if weighted else None
    dp = normalized_d(cplx, w)
    assert np.abs(dp @ dp).max() <= 1e-12
    d = assemble_D(cplx, w).astype(float)
    eye = np.eye(d.shape[0])
    target = eye - np.linalg.solve(eye + d @ d, eye)
    residual = np.linalg.norm(dp @ dp.T + dp.T @ dp - target, 2)
    assert residual <= 1e-9


# -- the bounded transform ---------------------------------------------------------------


@pytest.mark.parametrize("t", (0.1, 1.0, INF))
@pytest.mark.parametrize("name", FIXED)
def test_f_t_is_a_contraction(name, t):
    cplx = helpers.fixture(name)
    frame = helpers.dense_frame(cplx, t)
    f = frame.s * frame.root
    assert np.linalg.norm(f, 2) <= 1.0 + 1e-12


@pytest.mark.parametrize("weighted", (False, True))
@pytest.mark.parametrize("t", (0.1, 1.0, INF))
def test_fredholm_identity(t, weighted):
    for name in FIXED:
        cplx = helpers.fixture(name)
        frame = spectral_frame(cplx, t, weighted)
        assert bound(frame, frame.fredholm_defect()) <= 1e-9


@pytest.mark.parametrize("weighted", (False, True))
@pytest.mark.parametrize("t", (0.1, 1.0, INF))
def test_homotopy_identity(t, weighted):
    for name in FIXED:
        frame = spectral_frame(helpers.fixture(name), t, weighted)
        assert bound(frame, frame.homotopy_defect()) <= 1e-8


@pytest.mark.parametrize("t", (0.1, 1.0, INF))
def test_resolvent_bounds_hold(t):
    for name in FIXED:
        cplx = helpers.fixture(name)
        for entry in spectral_frame(cplx, t).resolvent_bounds((0.0, 1.0, 10.0)):
            assert entry["bound"] == 1.0 / abs(1 + 1j * entry["lambda"])
            assert entry["norm"] <= entry["bound"] + 1e-12


# -- one spectral frame per t against the dense oracles ----------------------------------


@pytest.mark.parametrize("weighted", (False, True))
@pytest.mark.parametrize("t", (0.1, 1.0, INF))
def test_spectral_frame_structure(t, weighted):
    for name in FIXED:
        cplx = helpers.fixture(name)
        frame = spectral_frame(cplx, t, weighted)
        w = deformation_weights(cplx, t) if weighted else None
        s = dense_s(frame)
        assert np.array_equal(s, assemble_D(cplx, w))
        # the degree-raising terms of S, target after source, are its
        # strictly lower triangle
        up = frame.terms[:, 0] > frame.terms[:, 1]
        assert np.array_equal(dense_s(frame._replace(values=frame.values * up)),
                              helpers.oracle_raising(cplx, w))
        assert np.array_equal(frame.terms[:, 1], np.sort(frame.terms[:, 1]))
        p = base_projection(cplx)
        shifted = p + s @ s
        eye = np.eye(shifted.shape[0])
        # summed in another order than the dense product: equal to rounding,
        # exactly so for integer entries
        assert np.abs(frame.lam - np.diag(shifted)).max() <= 1e-15 * frame.lam.max()
        if not weighted:
            assert np.array_equal(frame.lam, np.diag(shifted))
        assert frame.rho.shape == frame.lam.shape
        assert not frame.skew.any()
        assert frame.rho.max() <= 1e-15 * frame.lam.max()
        if not weighted:
            # integer entries: P + D^2 is exactly diagonal
            assert not frame.rho.any()
        assert np.array_equal(frame.root, frame.lam ** -0.5)
        target = eye - p @ np.linalg.solve(shifted, eye)
        assert np.abs(np.diag(frame.target()) - target).max() <= 1e-12
        root = np.diag(frame.root)
        assert np.abs(root @ shifted @ root - eye).max() <= 1e-12


@pytest.mark.parametrize("weighted", (False, True))
@pytest.mark.parametrize("t", (0.1, 1.0, INF))
def test_join_frame_is_the_dense_frame(t, weighted):
    for cplx in oracle_cases():
        helpers.assert_frames_agree(spectral_frame(cplx, t, weighted),
                                    helpers.dense_frame(cplx, t, weighted))


@pytest.mark.parametrize("weighted", (False, True))
@pytest.mark.parametrize("t", (0.1, 1.0, INF))
def test_resolvent_norms_match_dense_oracle(t, weighted):
    for cplx in oracle_cases():
        dense = helpers.oracle_resolvent_bounds(cplx, t, LAMBDAS, weighted)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np.linalg, "svd", _no_dense)
            mp.setattr(np.linalg, "solve", _no_dense)
            fast = spectral_frame(cplx, t, weighted).resolvent_bounds(LAMBDAS)
        for got, want in zip(fast, dense):
            assert got["lambda"] == want["lambda"]
            assert got["bound"] == want["bound"]
            assert abs(got["norm"] - want["norm"]) <= 1e-12 * want["norm"]


@pytest.mark.parametrize("weighted", (False, True))
@pytest.mark.parametrize("t", (0.1, 1.0, INF))
def test_bounded_residuals_dominate_exact(t, weighted):
    for cplx in oracle_cases():
        frame = spectral_frame(cplx, t, weighted)
        n = len(frame.lam)
        for defect, bounded, exact in (
                (frame.fredholm_defect(), bound(frame, frame.fredholm_defect()),
                 helpers.oracle_fredholm_residual(cplx, t, weighted)),
                (frame.homotopy_defect(), bound(frame, frame.homotopy_defect()),
                 helpers.oracle_homotopy_residual(cplx, t, weighted))):
            defect = helpers.scatter(n, *defect)
            assert bounded == pytest.approx(helpers.norm2_bound(defect), rel=1e-15, abs=0)
            # sqrt(|R|_1 |R|_inf) >= |R|_2, up to the SVD's own rounding
            assert bounded >= np.linalg.norm(defect, 2) * (1 - 1e-12)
            # the oracle's residual matrix differs from this one by rounding
            assert bounded >= exact - 1e-14


@pytest.mark.parametrize("weighted", (False, True))
@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 7), k=st.integers(1, 7), seed=st.integers(0, 2**16))
def test_diagonal_frame_against_dense_oracles(weighted, n, k, seed):
    cplx = random_median_complex(n, k, seed)
    for t in (0.1, 1.0, INF):
        frame = spectral_frame(cplx, t, weighted)
        helpers.assert_frames_agree(frame, helpers.dense_frame(cplx, t, weighted))
        assert bound(frame, frame.fredholm_defect()) >= (
            helpers.oracle_fredholm_residual(cplx, t, weighted) - 1e-14)
        assert bound(frame, frame.homotopy_defect()) >= (
            helpers.oracle_homotopy_residual(cplx, t, weighted) - 1e-14)
        dense = helpers.oracle_resolvent_bounds(cplx, t, LAMBDAS, weighted)
        for got, want in zip(frame.resolvent_bounds(LAMBDAS), dense):
            assert got["lambda"] == want["lambda"]
            assert got["bound"] == want["bound"]
            # an upper bound, up to the rounding of the two computations
            assert got["norm"] >= want["norm"] * (1 - 1e-14)
            assert got["norm"] - want["norm"] <= 1e-12 * want["norm"]


@pytest.mark.parametrize("weighted", (False, True))
def test_sabotaged_frame_shows_in_the_residuals(weighted, cube3):
    # the targets are diagonal, but the defects are computed: scale one
    # raising term of S and S no longer squares to the frame's Lambda - P
    frame = spectral_frame(cube3, 1.0, weighted)
    assert bound(frame, frame.fredholm_defect()) <= 1e-9
    k = np.flatnonzero(frame.terms[:, 0] > frame.terms[:, 1])[0]
    values = frame.values * 1.0
    values[k] *= 1.5
    broken = frame._replace(values=values)
    assert bound(broken, broken.fredholm_defect()) > 1e-9
    assert bound(broken, broken.homotopy_defect()) > 1e-8


def test_norm2_bound():
    assert helpers.norm2_bound(np.zeros((0, 0))) == 0.0
    assert norm2_bound_sums(2, np.zeros(0, dtype=np.int64), np.zeros(0)) == 0.0
    m = np.array([[1.0, -2.0], [3.0, 0.5]])
    assert helpers.norm2_bound(m) == np.sqrt(4.0 * 3.5)
    assert helpers.norm2_bound(m) >= np.linalg.norm(m, 2)
    assert norm2_bound_sums(2, np.arange(4), m.ravel()) == np.sqrt(4.0 * 3.5)
    # entries off the listing are zeros
    assert norm2_bound_sums(3, np.array([1, 6]), np.array([2.0, -3.0])) == np.sqrt(3.0 * 3.0)


def test_frame_resolvent_bounds_nonsymmetric_s():
    # a non-symmetric S + P is not normal, and its Gram matrix is not
    # diagonal: the Gershgorin norm still bounds the dense one from above,
    # or the guard refuses when the discs reach zero
    rng = np.random.default_rng(17)
    cases = [np.array([[0.0, 5.0], [0.0, 2.0]])]
    cases += [rng.standard_normal((5, 5)) * scale for scale in (0.05, 0.3, 2.0)]
    checked = refused = 0
    for s in cases:
        frame = SpectralFrame.of(*listing(s), len(s), 0)
        helpers.assert_frames_agree(frame, helpers.DenseFrame.of(s, 0), LAMBDAS + (100.0,))
        a = s.copy()
        a[0, 0] += 1.0
        for lam in LAMBDAS + (100.0,):
            try:
                (entry,) = frame.resolvent_bounds((lam,))
            except ValueError as exc:
                assert "singular to working precision" in str(exc)
                refused += 1
                continue
            want = float(np.linalg.norm(helpers.resolvent(a, 1j * lam), 2))
            assert entry["norm"] >= want
            checked += 1
    assert checked and refused


def test_frame_resolvent_singular_guard():
    with np.errstate(divide="ignore"):
        frames = (SpectralFrame.of(*listing(np.zeros((2, 2))), 2, 0),
                  helpers.DenseFrame.of(np.zeros((2, 2)), 0))
    for frame in frames:
        assert list(frame.lam) == [1.0, 0.0]
        with pytest.raises(ValueError, match="singular to working precision"):
            frame.resolvent_bounds((0.0,))
        assert frame.resolvent_bounds((1.0,))[0]["norm"] == 1.0


# -- base-point decay and reporting -------------------------------------------------------


def test_basepoint_decay_sweep(square):
    out = basepoint_decay_sweep(square, 0b00, 0b10, (1.0, 0.1, 0.01, 0.001))
    norms = dict(out["norms"])
    assert set(norms) == {1.0, 0.1, 0.01, 0.001}
    assert norms[1.0] > norms[0.1] > norms[0.01] > norms[0.001] > 0
    assert norms[0.001] <= 0.05 * norms[1.0]
    assert out["slope_bound"] >= norms[0.001] / 0.001 - 1e-12
    trivial = basepoint_decay_sweep(square, 0b00, 0b00, (0.5, 1.0))
    assert trivial["norms"] == [(0.5, 0.0), (1.0, 0.0)]
    assert trivial["slope_bound"] == 0.0


def test_format_t():
    assert format_t(INF) == "inf"
    assert format_t(1) == "1.0"
    assert format_t(0.5) == "0.5"

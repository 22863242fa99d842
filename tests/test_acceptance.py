"""Acceptance gate: one test per release criterion, one verdict line each.

Each test prints ``ACCEPTANCE NN PASS/FAIL: label`` so the suite output
doubles as the acceptance report.  Thresholds are stated inline and match
the defaults shipped with the command line.
"""

import math
from fractions import Fraction

import numpy as np
from mpmath import mp

import helpers
from helpers import enumerate_classes, spectral_profile, vertex_to_class_bijection
from cubedeform.deformation import (
    basic_cochain,
    deformation_weights,
    pairing_value,
    symbol_representative,
)
from cubedeform.differential import cohomology_ranks, d_matrix, norm2_bound_sums
from cubedeform.fredholm import inv_sqrt_integral, spectral_frame
from cubedeform.symbols import (
    canonical_symbol_vertex,
    ps_cohomology_ranks,
    ps_d_matrix,
    ps_dimension,
    ps_type_of_index,
)
from oracles import (
    _step_coefficients_mp,
    assemble_D,
    base_projection,
    basepoint_decay_sweep,
    basic_section_frame,
    d_cochain,
    d_t_pairing,
    d_t_pairing_limit,
    gram_matrix,
    inv_sqrt_spectral,
    laplacian_matrix,
    normalized_d,
    pairing_limit,
    pairing_sweep,
    ps_delta_matrix,
    ps_laplacian,
    symbol_from_raw,
    u_t_apply,
    u_t_matrix,
)

INF = float("inf")
T_GRID = helpers.TEST_T_GRID  # (0.1, 0.5, 1.0, 2.0, inf)


def _report(num, label, failures):
    verdict = "FAIL" if failures else "PASS"
    print("ACCEPTANCE %02d %s: %s" % (num, verdict, label))
    assert not failures, "criterion %d (%s): %s" % (num, label, failures[:5])


def _complexes(randoms):
    return helpers.all_fixtures() + helpers.random_complexes(randoms)


# -- 1 ------------------------------------------------------------------------------


def test_acceptance_01_d_squared_integer():
    failures = []
    for cplx in _complexes(50):
        for q in range(cplx.dimension - 1):
            hi = d_matrix(cplx, q + 1)
            lo = d_matrix(cplx, q)
            if hi.dtype != np.int64 or lo.dtype != np.int64:
                failures.append("non-integer differential at q=%d" % q)
            if (hi @ lo).any():
                failures.append("d^2 != 0 on %d vertices at q=%d"
                                % (cplx.n_vertices, q))
    _report(1, "d squared vanishes in integer arithmetic", failures)


# -- 2 ------------------------------------------------------------------------------


def test_acceptance_02_laplacian_diagonal():
    failures = []
    for cplx in _complexes(10):
        w = deformation_weights(cplx, 1.0)
        for q in range(cplx.dimension + 1):
            cubes = cplx.cubes(q)
            lap = laplacian_matrix(cplx, q)
            expected = np.diag([
                prof.q + prof.p
                for prof in (spectral_profile(cplx, c) for c in cubes)])
            if not np.array_equal(lap, expected):
                failures.append("unweighted diagonal off at q=%d" % q)
            lap_w = laplacian_matrix(cplx, q, w)
            expected_w = np.diag([
                prof.q_w + prof.p_w
                for prof in (spectral_profile(cplx, c, w) for c in cubes)])
            scale = max(1.0, float(np.abs(expected_w).max()))
            if float(np.abs(lap_w - expected_w).max()) > 1e-12 * scale:
                failures.append("weighted diagonal off at q=%d" % q)
    _report(2, "Laplacian is the scalar diagonal q + p(C)", failures)


# -- 3 ------------------------------------------------------------------------------


def test_acceptance_03_cohomology_ranks():
    failures = []
    for cplx in _complexes(50):
        want = (1,) + (0,) * cplx.dimension
        got = cohomology_ranks(cplx)
        if got != want:
            failures.append("chain ranks %r on %d vertices" % (got, cplx.n_vertices))
        got_ps = ps_cohomology_ranks(cplx)
        if got_ps != want:
            failures.append("symbol ranks %r on %d vertices"
                            % (got_ps, cplx.n_vertices))
    _report(3, "cohomology concentrated in degree zero, both models", failures)


# -- 4 ------------------------------------------------------------------------------


def _exact_homotopy_block(cplx, q):
    mat = ps_delta_matrix(cplx, q)
    types = ps_type_of_index(cplx, q)
    out = np.zeros(mat.shape, dtype=object)
    for j in range(mat.shape[1]):
        s = int(types[j]) + q
        if s == 0:
            continue
        for i in range(mat.shape[0]):
            out[i, j] = Fraction(int(mat[i, j]), s)
    return out


def test_acceptance_04_symbol_laplacian_and_homotopy():
    failures = []
    for cplx in _complexes(10):
        dim = cplx.dimension
        for q in range(dim + 1):
            lap = ps_laplacian(cplx, q)
            if lap.size and not np.array_equal(
                    lap, np.diag(ps_type_of_index(cplx, q) + q)):
                failures.append("symbol Laplacian not scalar at q=%d" % q)
            n_q = ps_dimension(cplx, q)
            if n_q == 0:
                continue
            total = np.zeros((n_q, n_q), dtype=object)
            if q < dim:
                total = total + _exact_homotopy_block(cplx, q + 1).astype(object) \
                    @ ps_d_matrix(cplx, q).astype(object)
            if q >= 1:
                total = total + ps_d_matrix(cplx, q - 1).astype(object) \
                    @ _exact_homotopy_block(cplx, q)
            target = np.eye(n_q, dtype=object)
            if q == 0:
                for j in np.flatnonzero(ps_type_of_index(cplx, 0) == 0):
                    target[j, j] = 0
            if not (total == target).all():
                failures.append("homotopy identity not exact at q=%d" % q)
    _report(4, "symbol Laplacian scalar and homotopy identity exact", failures)


# -- 5 ------------------------------------------------------------------------------


def test_acceptance_05_vertex_class_bijection():
    failures = []
    for cplx in _complexes(50):
        classes = enumerate_classes(cplx)
        if len(classes) != cplx.n_vertices:
            failures.append("%d classes vs %d vertices"
                            % (len(classes), cplx.n_vertices))
        mapping = vertex_to_class_bijection(cplx)
        if set(mapping) != set(cplx.vertices):
            failures.append("bijection domain mismatch")
        hit = {k.determining for k in mapping.values()}
        if len(hit) != cplx.n_vertices:
            failures.append("bijection not injective on %d vertices"
                            % cplx.n_vertices)
    _report(5, "parallelism classes biject with vertices", failures)


# -- 6 ------------------------------------------------------------------------------


def test_acceptance_06_gram_psd():
    failures = []
    for cplx in helpers.all_fixtures():
        for q in range(cplx.dimension + 1):
            for t in T_GRID:
                g = gram_matrix(cplx, q, t)
                low = float(np.linalg.eigvalsh(g)[0]) if g.size else 0.0
                if low < -1e-10:
                    failures.append("min eig %.2e at q=%d t=%s" % (low, q, t))
    _report(6, "deformed Gram matrices positive semidefinite", failures)


# -- 7 ------------------------------------------------------------------------------


def test_acceptance_07_path_independence():
    failures = []
    for i, cplx in enumerate(helpers.all_fixtures()):
        for t in (0.3, 1.0):
            rng = np.random.default_rng(1000 + i)
            worst = helpers.random_loop_residual(cplx, rng, t, loops=20)
            if worst > 1e-10:
                failures.append("loop residual %.2e at t=%s" % (worst, t))
    _report(7, "crossing moves are path independent", failures)


# -- 8 ------------------------------------------------------------------------------


def test_acceptance_08_unitarity_bridge():
    failures = []
    for cplx in helpers.all_fixtures():
        for q in range(cplx.dimension + 1):
            for t in T_GRID:
                u = u_t_matrix(cplx, q, t)
                gap = float(np.abs(u.T @ u - gram_matrix(cplx, q, t)).max())
                if gap > 1e-9:
                    failures.append("bridge gap %.2e at q=%d t=%s" % (gap, q, t))
    _report(8, "frame change squares to the Gram matrix", failures)


# -- 9 ------------------------------------------------------------------------------


def _edge_section(cplx, h):
    sym = symbol_from_raw(cplx, (h,), (), canonical_symbol_vertex(cplx, (h,)))
    return symbol_representative(cplx, sym)


def _ref_same(t):
    with mp.workdps(60):
        tt = mp.mpf(t)
        return float(2 / tt ** 2 * (1 - mp.e ** (-tt * tt / 2)))


def _ref_cross(t, d):
    with mp.workdps(60):
        tt = mp.mpf(t)
        x = mp.e ** (-tt * tt / 2)
        return float(-(x ** d) * (1 - x) ** 2 / tt ** 2)


def test_acceptance_09_tree_closed_forms():
    path3 = helpers.fixture("path3")
    path4 = helpers.fixture("path4")
    tripod = helpers.fixture("tripod")
    cases = [
        (path3, _edge_section(path3, 0), _edge_section(path3, 0), None),
        (tripod, _edge_section(tripod, 2), _edge_section(tripod, 2), None),
        (path3, _edge_section(path3, 0), _edge_section(path3, 1), 0),
        (path3, _edge_section(path3, 0), _edge_section(path3, 2), 1),
        (path4, _edge_section(path4, 0), _edge_section(path4, 3), 2),
    ]
    failures = []
    for cplx, (p1, o1), (p2, o2), gap in cases:
        values, limit = pairing_sweep(cplx, p1, o1, p2, o2, (0.01, 0.1, 1.0))
        want_limit = 1 if gap is None else 0
        if limit != want_limit:
            failures.append("limit %r, wanted %r" % (limit, want_limit))
        for t, got in values:
            want = _ref_same(t) if gap is None else _ref_cross(t, gap)
            if abs(got - want) > 1e-12:
                failures.append("sweep off by %.2e at t=%s gap=%r"
                                % (abs(got - want), t, gap))
    _report(9, "tree pairings match the closed forms", failures)


# -- 10 -----------------------------------------------------------------------------


def test_acceptance_10_pairing_continuity():
    failures = []
    for cplx in helpers.all_fixtures():
        for q in range(cplx.dimension + 1):
            frame = basic_section_frame(cplx, q)
            for p1, o1 in frame:
                for p2, o2 in frame:
                    limit = pairing_limit(cplx, p1, o1, p2, o2)
                    err_fit = abs(pairing_value(cplx, p1, o1, p2, o2, 0.1) - limit)
                    slope = err_fit / 0.1
                    for t in (0.01, 0.001):
                        err = abs(pairing_value(cplx, p1, o1, p2, o2, t) - limit)
                        if err > 2.0 * slope * t + 1e-12:
                            failures.append(
                                "err %.2e vs slope %.2e at t=%s q=%d"
                                % (err, slope, t, q))
    _report(10, "pairings approach symbol limits linearly", failures)


# -- 11 -----------------------------------------------------------------------------


def _batched_d_t_values(cplx, t, frames):
    """All frame-pair values of the deformed-differential pairing at one t.

    Identical arithmetic to ``d_t_pairing``: extended-precision crossing
    walks, the plain differential, one dictionary dot product per pair,
    then the t power; hoisting the walks out of the pair loop is the only
    difference.
    """
    values = {}
    with mp.workdps(50):
        ab = _step_coefficients_mp(t)
        u_of, du_of = {}, {}
        for q, entries in frames.items():
            u_of[q] = []
            du_of[q] = []
            for pair, o in entries:
                uf = u_t_apply(cplx, basic_cochain(cplx, pair, o), ab=ab)
                u_of[q].append(uf)
                du_of[q].append(d_cochain(cplx, uf))
        tt = mp.mpf(t)
        for q in range(cplx.dimension):
            for i, (p1, _) in enumerate(frames[q]):
                duf = du_of[q][i]
                for j, (p2, _) in enumerate(frames[q + 1]):
                    uf2 = u_of[q + 1][j]
                    total = mp.mpf(0)
                    for cube, c in duf.items():
                        other = uf2.get(cube)
                        if other is not None:
                            total += c * other
                    power = len(p1.complementary) + len(p2.complementary)
                    values[q, i, j] = float(total * tt ** (-power))
    return values


def test_acceptance_11_d_t_continuity():
    failures = []
    for cplx in helpers.all_fixtures():
        frames = {q: basic_section_frame(cplx, q)
                  for q in range(cplx.dimension + 1)}
        values = {t: _batched_d_t_values(cplx, t, frames)
                  for t in (0.1, 0.01, 0.001)}
        # the batching is checked against the reference entry point
        if cplx.dimension >= 1:
            p1, o1 = frames[0][0]
            p2, o2 = frames[1][0]
            direct = d_t_pairing(cplx, p1, o1, p2, o2, 0.1)
            if abs(values[0.1][0, 0, 0] - direct) > 1e-15:
                failures.append("batch disagrees with direct evaluation")
        for q in range(cplx.dimension):
            for i, (p1, o1) in enumerate(frames[q]):
                for j, (p2, o2) in enumerate(frames[q + 1]):
                    limit = d_t_pairing_limit(cplx, p1, o1, p2, o2)
                    slope = abs(values[0.1][q, i, j] - limit) / 0.1
                    for t in (0.01, 0.001):
                        err = abs(values[t][q, i, j] - limit)
                        if err > 2.0 * slope * t + 1e-12:
                            failures.append(
                                "err %.2e vs slope %.2e at t=%s q=%d"
                                % (err, slope, t, q))
    _report(11, "deformed differential pairings converge linearly", failures)


# -- 12 -----------------------------------------------------------------------------


def test_acceptance_12_fredholm_identity_and_quadrature():
    failures = []
    for cplx in helpers.all_fixtures():
        for w in (None, deformation_weights(cplx, 1.0)):
            dp = normalized_d(cplx, w)
            d = assemble_D(cplx, w).astype(np.float64)
            eye = np.eye(d.shape[0])
            target = eye - np.linalg.solve(eye + d @ d, eye)
            residual = float(np.linalg.norm(dp @ dp.T + dp.T @ dp - target, 2))
            if residual > 1e-9:
                failures.append("identity residual %.2e (weighted=%s)"
                                % (residual, w is not None))
        d = assemble_D(cplx).astype(np.float64)
        shifted = base_projection(cplx) + d @ d
        quad = inv_sqrt_integral(shifted, nodes=200)
        spec = inv_sqrt_spectral(shifted)
        rel = float(np.linalg.norm(quad - spec, 2) / np.linalg.norm(spec, 2))
        if rel > 1e-6:
            failures.append("quadrature error %.2e" % rel)
    _report(12, "normalized differential identity and quadrature", failures)


# -- 13 -----------------------------------------------------------------------------


def test_acceptance_13_f_t_homotopy_and_resolvent():
    failures = []
    for cplx in helpers.all_fixtures():
        for t in (0.1, 1.0, INF):
            for weighted in (False, True):
                frame = spectral_frame(cplx, t, weighted)
                residual = norm2_bound_sums(len(frame.lam), *frame.homotopy_defect())
                if residual > 1e-8:
                    failures.append("homotopy residual %.2e at t=%s" % (residual, t))
            frame = spectral_frame(cplx, t, weighted=True)
            for entry in frame.resolvent_bounds((0.0, 1.0, 10.0)):
                if entry["norm"] > entry["bound"] + 1e-12:
                    failures.append(
                        "resolvent %.15f above bound %.15f at lambda=%s t=%s"
                        % (entry["norm"], entry["bound"], entry["lambda"], t))
    _report(13, "bounded transform homotopy and resolvent bounds", failures)


# -- 14 -----------------------------------------------------------------------------


def test_acceptance_14_basepoint_decay():
    failures = []
    for cplx in helpers.all_fixtures():
        for v, u in helpers.adjacent_vertex_pairs(cplx):
            sweep = basepoint_decay_sweep(cplx, v, u, (1.0, 1e-3) + T_GRID)
            norms = dict(sweep["norms"])
            if norms[1e-3] > 0.05 * norms[1.0]:
                failures.append(
                    "norm %.2e at t=1e-3 vs %.2e at t=1 for pair (%d, %d)"
                    % (norms[1e-3], norms[1.0], v, u))
            if not all(math.isfinite(x) for x in norms.values()):
                failures.append("non-finite norm for pair (%d, %d)" % (v, u))
    _report(14, "base-point commutators decay linearly", failures)

"""Command-line front end: generation, validation, check suites, sweeps.

Commands:

* ``gen``       write a complex document (tree, grid, cube, random-median)
* ``validate``  parse and validate a document, print a summary report
* ``check``     run one named invariant suite, emit a JSON report
* ``sweep``     emit the deformation pairing sweep as CSV

Exit codes: 0 on success, 1 when validation or a check suite fails, 2 on
usage errors (an ``--input`` that cannot be read as UTF-8 text, an
``--out`` that cannot be opened, an option the subcommand does not take
(only ``gen random-median`` takes a ``--seed``), a ``--tol`` name
outside the suite's table or a NaN threshold among them: all are caught
before a suite or a sweep starts; ``--out`` is opened once the input is
read and parsed, so a usage error leaves an existing file as it was), 3
when a check suite breaks down: a matrix singular to working precision
at an extreme t, an allocation the machine cannot meet
(``MemoryError``), or one of the package's own invariant checks failing
(``AssertionError``, such as a parallelism class that is not connected
or crossing moves that do not close a square), or any other exception
inside the suite (``check <suite>: internal error: <Type>: <message>``).
Exit 3 writes one line to stderr and nothing to stdout. ``check field``
takes t >= FIELD_T_FLOOR (1e-6) only, where its float frame checks
(``U_t`` is ill-conditioned at small t) are known to hold; a smaller t
exits 3 before any computation.  Its ``d_t_squared`` and ``d_t_adjoint``
are exact sums of integer coefficients: 0.0 on a valid complex at every
t, whatever the BLAS thread count.
The same command and input give the same bytes for a fixed BLAS
thread count; the thread count can move the last bits of the float
frame residuals of ``check field`` (``gram_psd`` on
``gen random-median --n 14 --k 10 --seed 3``).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import sys
from pathlib import Path

import numpy as np

from .core import (
    CubeComplex,
    CxcParseError,
    InvalidComplex,
    median_certificate,
    parse_cxc,
    row_keys,
    row_positions,
    write_cxc,
)
from .deformation import (
    INF,
    adjoint_terms,
    class_blocks,
    deformation_weights,
    frame_terms,
    pairing_table,
    pairing_value,
    path_residual,
    polynomial_value,
    step_coefficients,
    symbol_representative,
    w_hat_blocks,
)
from .differential import (
    cohomology_ranks,
    grouped_sum,
    laplacian_diagonal,
    max_sum,
    norm2_bound_sums,
    term_product,
    term_table,
)
from .fredholm import (
    base_neighbor,
    format_t,
    graded_offsets,
    graded_terms,
    homotopy_sums,
    inv_sqrt_diagonal,
    inv_sqrt_integral,
    spectral_frame,
)
from .generate import grid_complex, hypercube, random_median_complex, star_tree
from .parallelism import class_rows, first_minimum, nearest_rows
from .symbols import (
    PSSymbol,
    basis_keys,
    canonical_symbol_vertex,
    ps_cohomology_ranks,
    ps_term_table,
    ps_type_of_index,
    select_symbols,
    symbol_arrays,
    symbol_vertices,
)

__all__ = ["DEFAULT_TOLERANCES", "FIELD_T_FLOOR", "build_parser", "main"]

# Smallest t the field suite takes, set when d_t_adjoint came from LU solves
# and failed from 1e-7 down by rounding alone; the exact identities have none.
FIELD_T_FLOOR = 1e-6

# Module-stated thresholds per suite, overridable per name with --tol name=value.
DEFAULT_TOLERANCES: dict[str, dict[str, float]] = {
    "jv": {
        "d_squared": 0.0,
        "delta_transpose": 0.0,
        "laplacian_diagonal": 0.0,
        "laplacian_weighted": 1e-12,
        "wedge_hook_antisymmetry": 0.0,
        "cohomology_ranks": 0.0,
    },
    "ps": {
        "ps_d_squared": 0.0,
        "ps_delta_squared": 0.0,
        "ps_delta_transpose": 0.0,
        "ps_laplacian_scalar": 0.0,
        "ps_homotopy": 1e-12,
        "ps_dimension_count": 0.0,
        "ps_cohomology_ranks": 0.0,
    },
    "parallel": {
        "class_count": 0.0,
        "vertex_class_bijection": 0.0,
        "nearest_verified": 0.0,
        "class_complex_valid": 0.0,
    },
    "field": {
        "gram_psd": 1e-10,
        "unitarity_bridge": 1e-9,
        "path_independence": 1e-10,
        "d_t_squared": 1e-10,
        "d_t_adjoint": 1e-9,
        "w_hat_unitary": 1e-12,
    },
    "fredholm": {
        "d_symmetric": 0.0,
        "projection_commutes": 0.0,
        "fredholm_identity": 1e-9,
        "homotopy_identity": 1e-8,
        "resolvent_bound": 1e-12,
        "inv_sqrt_quadrature": 1e-6,
        "normalized_d_identity": 1e-9,
    },
}


# -- argument handling -----------------------------------------------------------


def _parse_t_grid(text: str, parser: argparse.ArgumentParser) -> tuple[float, ...]:
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        if tok == "inf":
            out.append(INF)
            continue
        try:
            value = float(tok)
        except ValueError:
            parser.error("bad t value %r (comma-separated numbers, 'inf' allowed)" % tok)
        if not value > 0:
            parser.error("t values must be positive; the t=0 limit rows are always included")
        out.append(value)
    if not out:
        parser.error("--t needs at least one value")
    return tuple(out)


def _parse_tols(suite: str, items: list[str],
                parser: argparse.ArgumentParser) -> dict[str, float]:
    """The suite's thresholds with the ``--tol`` overrides applied."""
    out = dict(DEFAULT_TOLERANCES[suite])
    for item in items:
        name, sep, value = item.partition("=")
        if not sep:
            parser.error("--tol expects name=value, got %r" % item)
        if name not in out:
            parser.error("unknown tolerance name %r for suite %s (known: %s)"
                         % (name, suite, ", ".join(out)))
        try:
            out[name] = float(value)
        except ValueError:
            parser.error("bad tolerance value %r" % value)
        if math.isnan(out[name]):
            parser.error("bad tolerance value %r (NaN)" % value)
    return out


def _parse_dims(text: str, parser: argparse.ArgumentParser) -> list[int]:
    try:
        dims = [int(part) for part in text.split("x")]
    except ValueError:
        dims = []
    if not dims or any(d < 1 for d in dims):
        parser.error("--dims expects AxBx... with each entry >= 1, got %r" % text)
    return dims


def _read_input(path: str, parser: argparse.ArgumentParser) -> str:
    """The text of ``--input``; a file that cannot be read, or is not
    UTF-8, is a usage error."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        parser.error(str(exc))
    except UnicodeDecodeError as exc:
        parser.error("%s: not UTF-8 text: %s" % (path, exc))


def _load_complex(path: str, parser: argparse.ArgumentParser) -> CubeComplex:
    text = _read_input(path, parser)
    try:
        return parse_cxc(text)
    except (CxcParseError, InvalidComplex) as exc:
        parser.error("%s: %s" % (path, exc))


def _open_out(path: str | None, parser: argparse.ArgumentParser):
    """The command's output stream: ``--out`` opened for writing, or stdout.
    ``main`` hands each command an opener, which it calls once its input is
    read, parsed and checked, so a usage error leaves an existing file as
    it was."""
    if not path:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(path, "w")
    except OSError as exc:
        parser.error(str(exc))


# -- gen / validate --------------------------------------------------------------


def _cmd_gen(args: argparse.Namespace, parser: argparse.ArgumentParser, open_out) -> int:
    try:
        if args.kind == "tree":
            cplx = star_tree(args.leaves)
        elif args.kind == "grid":
            cplx = grid_complex(_parse_dims(args.dims, parser))
        elif args.kind == "cube":
            cplx = hypercube(args.dim)
        else:
            cplx = random_median_complex(args.n, args.k, args.seed)
    except (ValueError, InvalidComplex) as exc:
        parser.error(str(exc))
    try:
        text = write_cxc(cplx)
    except ValueError:
        parser.error("generated complex has no hyperplanes; increase --n or --k")
    open_out().write(text)
    return 0


def _cmd_validate(args: argparse.Namespace, parser: argparse.ArgumentParser, open_out) -> int:
    text = _read_input(args.input, parser)
    out = open_out()
    try:
        cplx = parse_cxc(text)
    except (CxcParseError, InvalidComplex) as exc:
        out.write("result invalid\nreason %s\n" % exc)
        return 1
    lines = [
        "vertices %d" % cplx.n_vertices,
        "hyperplanes %d" % cplx.n_hyperplanes,
        "dimension %d" % cplx.dimension,
        "cubes %s" % " ".join(
            str(len(cplx.cube_arrays(q).keys)) for q in range(cplx.dimension + 1)),
        "bounded-geometry %d" % cplx.bounded_geometry_statistic(),
        "median ok",
        "connected ok",
        "result valid",
    ]
    out.write("\n".join(lines) + "\n")
    return 0


# -- check suites ----------------------------------------------------------------
#
# Each suite maps (complex, arguments) to its residuals keyed by check name,
# plus counts to report; the names, their order and their thresholds come
# from DEFAULT_TOLERANCES alone.


def _max_abs(m: np.ndarray) -> float:
    return float(np.abs(m).max()) if m.size else 0.0


# The jv and ps suites never form an operator.  Each identity is a grouped
# sum over the term pairs of products of term tables, keyed by matrix entry
# and, for the wedge and hook relations, by the hyperplane pair as well.


def _hodge_ranks(diagonals: list[np.ndarray]) -> tuple[int, ...]:
    """dim H^q as the count of zeros on L_q's diagonal: by Hodge theory
    (Eckmann, 1944), dim H^q = dim ker L_q once d^2 = 0 and delta = d^T."""
    return tuple(int(np.count_nonzero(diag == 0)) for diag in diagonals)


def _complex_checks(cplx, names, table, diagonals, ranks, more) -> dict:
    """Residuals of ``d^2 = 0``, ``delta = d^T``, ``L = diag`` and the
    cohomology ranks ``(1, 0, ..., 0)``, keyed by ``names`` in that order.

    ``table(q, raising)`` is degree q's term table of d or delta,
    ``diagonals[q]`` L_q's expected diagonal, and ``ranks`` the SVD oracle,
    called only when an identity fails.  Per degree q, ``more(q, n, d_d,
    delta_d, d_delta)`` gets the ``term_product`` pairs of d d from q and of
    delta d and d delta on q, and returns further residuals, maxed by name.
    """
    n = max(map(len, diagonals))
    res = dict.fromkeys(names[:3], 0.0)
    for q, diag in enumerate(diagonals):
        d_q, delta_q, up = table(q, True), table(q, False), table(q + 1, False)
        d_d = term_product(table(q + 1, True), d_q, n)
        delta_d, d_delta = term_product(up, d_q, n), term_product(table(q - 1, True), delta_q, n)
        found = {names[0]: max_sum(d_d[:2]),
                 names[1]: max_sum((up[:, 0] * n + up[:, 1], up[:, 3]),
                                   (d_q[:, 1] * n + d_q[:, 0], -d_q[:, 3])),
                 names[2]: max_sum(delta_d[:2], d_delta[:2],
                                   (np.arange(len(diag)) * (n + 1), -diag)),
                 **more(q, n, d_d, delta_d, d_delta)}
        for name, r in found.items():
            res[name] = max(res.get(name, 0.0), r)
    got = ranks(cplx) if any(res[name] for name in names[:3]) else _hodge_ranks(diagonals)
    res[names[3]] = sum(abs(a - b) for a, b in zip(got, (1,) + (0,) * cplx.dimension))
    return res


def _suite_jv(cplx, args):
    dim, n_h = cplx.dimension, cplx.n_hyperplanes
    w = deformation_weights(cplx, 1.0)
    weighted_diagonals = [laplacian_diagonal(cplx, q, w) for q in range(dim + 1)]
    w = np.asarray(w)

    def more(q, n, d_d, delta_d, d_delta):
        # wedge(h1) wedge(h2) + wedge(h2) wedge(h1) for every pair, and for
        # every h1 != h2, hook(h1) wedge(h2) + wedge(h2) hook(h1) below the top
        key, value, h1, h2 = d_d
        pair = np.minimum(h1, h2) * n_h + np.maximum(h1, h2)
        antisymmetry = max_sum((key * n_h * n_h + pair, value))
        if q < dim:
            (k1, v1, hook1, wedge1), (k2, v2, wedge2, hook2) = delta_d, d_delta
            keep1, keep2 = hook1 != wedge1, hook2 != wedge2
            antisymmetry = max(antisymmetry, max_sum(
                (((k1 * n_h + hook1) * n_h + wedge1)[keep1], v1[keep1]),
                (((k2 * n_h + hook2) * n_h + wedge2)[keep2], v2[keep2])))
        # the Laplacian with weights w against diag(q_w + p_w), relative
        expected = weighted_diagonals[q]
        weighted = max_sum(*((k, v * w[h1] * w[h2]) for k, v, h1, h2 in (delta_d, d_delta)),
                           (np.arange(len(expected)) * (n + 1), -expected))
        return {"laplacian_weighted": weighted / max(1.0, _max_abs(expected)),
                "wedge_hook_antisymmetry": antisymmetry}

    return _complex_checks(
        cplx, ("d_squared", "delta_transpose", "laplacian_diagonal", "cohomology_ranks"),
        lambda q, raising: term_table(cplx, q, raising),
        [laplacian_diagonal(cplx, q) for q in range(dim + 1)],
        cohomology_ranks, more), {}


def _suite_ps(cplx, args):
    dim = cplx.dimension
    diagonals = [ps_type_of_index(cplx, q) + q for q in range(dim + 1)]

    def more(q, n, d_d, delta_d, d_delta):
        delta_delta = term_product(ps_term_table(cplx, q - 1, False),
                                   ps_term_table(cplx, q, False), n)
        # h = delta / (p + q), the label of delta's term; p + q is constant along
        # d, so h d + d h telescopes to the identity off the type-(0, 0) line
        (k1, v1, label, _), (k2, v2, _, label2) = delta_d, d_delta
        diag = diagonals[q]
        homotopy = max_sum((k1, v1 / label), (k2, v2 / label2),
                           (np.arange(len(diag)) * (n + 1), -(diag > 0).astype(np.float64)))
        return {"ps_delta_squared": max_sum(delta_delta[:2]), "ps_homotopy": homotopy}

    res = _complex_checks(
        cplx, ("ps_d_squared", "ps_delta_transpose", "ps_laplacian_scalar",
               "ps_cohomology_ranks"),
        lambda q, raising: ps_term_table(cplx, q, raising), diagonals,
        ps_cohomology_ranks, more)

    expected_dim = sum(2 ** q * len(class_rows(cplx, q).sizes) for q in range(dim + 1))
    res["ps_dimension_count"] = abs(sum(map(len, diagonals)) - expected_dim)
    return res, {}


# The parallel suite reads each class as its cutting bits and its members'
# rows in ``cube_arrays``; frames, first steps and nearest members are bit
# passes over those rows.


def _classes(cplx) -> list:
    """Every class in (degree, determining set) order: its cutting bits as
    a 0/1 row and its members' rows in ``cube_arrays``, in anchor order."""
    out = []
    for q in range(cplx.dimension + 1):
        rows = class_rows(cplx, q)
        # cube order, which within a class is anchor order
        members = np.argsort(rows.of, kind="stable")
        out.extend(zip(rows.sets, np.split(members, np.cumsum(rows.sizes)[:-1])))
    return out


def _frame(cplx, det: np.ndarray) -> np.ndarray:
    """The hyperplanes that cross every one of the cutting bits ``det``, as
    a mask, for one row or a stack of rows of one degree q: an AND of the q
    crossing-matrix rows of the bits, O(q n) a row; none of ``det`` is
    among them, as no hyperplane crosses itself."""
    bits = np.nonzero(det)[-1].reshape(det.shape[:-1] + (-1,))
    return cplx.crossing_matrix()[bits].all(axis=-2)


def _first_steps(cplx) -> np.ndarray:
    """Each vertex's first normal-cube step toward the base vertex, as 0/1
    rows: the hyperplanes separating it from the base that cut an edge at
    it, each edge's two ends read from ``facets(1)``."""
    vertices = cplx.cube_arrays(0)
    adjacent = np.zeros_like(vertices.anchor)
    h = np.nonzero(cplx.cube_arrays(1).cutting)[1]  # one per edge, in row order
    adjacent[cplx.facets(1), h[:, None]] = 1
    base = vertices.anchor[cplx.vertex_index(cplx.base_vertex)]
    return (vertices.anchor ^ base) & adjacent


def _step_classes(cplx, steps: np.ndarray) -> np.ndarray:
    """The class of each step, numbered in ``_classes`` order, or -1 where
    the step names no class or spans no cube at its vertex."""
    anchor = cplx.cube_arrays(0).anchor
    out, size, offset = np.full(len(steps), -1), steps.sum(axis=1), 0
    for q in range(cplx.dimension + 1):
        rows, at = class_rows(cplx, q), np.flatnonzero(size == q)
        if len(at):
            free = steps[at] ^ 1  # complemented, as in the keys
            pos, named = row_positions(rows.keys, row_keys(free))
            named &= row_positions(cplx.cube_arrays(q).keys, row_keys(anchor[at] & free, free))[1]
            out[at[named]] = offset + pos[named]
        offset += len(rows.sizes)
    return out


def _nearest_failures(cplx, det: np.ndarray, members: np.ndarray, at) -> np.ndarray:
    """Whether each vertex (indices ``at``) fails against its nearest member
    of the class with cutting bits ``det`` and member rows ``members``: the
    minimum is tied, the nearest member is not a gate (some member's
    distance is not the nearest one's plus their separation), or the
    vertex and the nearest member differ on a frame hyperplane."""
    bits = cplx.cube_arrays(int(det.sum())).anchor[members].astype(np.float64)
    vbits = cplx.cube_arrays(0).anchor[at].astype(np.float64)
    near, failed, dist = nearest_rows(bits, vbits)
    ones = bits.sum(axis=1)
    separation = ones[near, None] + ones - 2.0 * (bits[near] @ bits.T)
    failed |= (dist != np.take_along_axis(dist, near[:, None], axis=1) + separation).any(axis=1)
    if det.any():  # the vertex class is exempt: each vertex is its own gate
        frame = _frame(cplx, det)
        failed |= (vbits[:, frame] != bits[near][:, frame]).any(axis=1)
    return failed


def _invalid_classes(cplx, classes: list) -> np.ndarray:
    """Whether each class, its members' anchors projected onto its frame,
    fails to be a complex rooted at its member nearest the base vertex:
    two members share frame coordinates, a frame coordinate is constant
    over them, or ``median_certificate`` rejects them.  The classes go in
    stacks of one padded size, a power of two and at least 16, each
    class's rows ascending and repeated from its last; a tie for the
    nearest member raises AssertionError, for the first class in order
    whose coordinates do not collide."""
    n = cplx.n_hyperplanes
    det = np.array([d for d, _ in classes], dtype=np.uint8).reshape(len(classes), n)
    sizes = np.array([len(members) for _, members in classes])
    start = np.cumsum(sizes) - sizes
    base = cplx.cube_arrays(0).anchor[cplx.vertex_index(cplx.base_vertex)]
    frames = np.empty(det.shape, dtype=bool)
    anchors = np.empty((int(sizes.sum()), n), dtype=np.uint8)
    dists = np.empty(len(anchors), dtype=np.min_scalar_type(n))  # to the base vertex
    collide, bad = np.zeros((2, len(classes)), dtype=bool)
    # one run of classes of one degree at a time, in order: each class's
    # members' anchors masked to its frame and sorted by frame coordinates
    degree = det.sum(axis=1, dtype=np.int64)
    cut = np.flatnonzero(np.diff(degree, prepend=-1, append=-1)).tolist()
    for a, b in zip(cut, cut[1:]):
        frames[a:b] = _frame(cplx, det[a:b])
        of = np.repeat(np.arange(b - a), sizes[a:b])
        rows = cplx.cube_arrays(int(degree[a])).anchor[
            np.concatenate([members for _, members in classes[a:b]])]
        dist = (rows ^ base).sum(axis=1, dtype=dists.dtype)
        rows &= frames[a:b][of]
        order = np.argsort(row_keys(rows), kind="stable")
        order = order[np.argsort(of[order], kind="stable")]
        rows, first, at = rows[order], start[a:b] - start[a], slice(start[a], start[a] + len(rows))
        repeat = np.flatnonzero((rows[1:] == rows[:-1]).all(axis=1) & (of[1:] == of[:-1]))
        collide[a:b] = np.bincount(of[repeat + 1], minlength=b - a) > 0
        varies = np.bitwise_or.reduceat(rows, first) != np.bitwise_and.reduceat(rows, first)
        bad[a:b] = collide[a:b] | (frames[a:b] & ~varies).any(axis=1)
        anchors[at], dists[at] = rows, dist[order]

    width = frames.sum(axis=1)
    tied = np.zeros(len(classes), dtype=bool)
    # the padded size is 2^log2; small classes share the stack of size 16
    log2 = np.maximum(np.frexp(sizes - 1)[1], 4)
    for e in np.flatnonzero(np.bincount(log2)).tolist():
        stack, size = np.flatnonzero(log2 == e), 1 << e
        # about _CHUNK / 16 member bits a part, and at least one class: the
        # certificate's temporaries take a dozen bytes or so per bit
        parts = -(-len(stack) * size * n // max(1, _CHUNK // 16))
        for part in np.array_split(stack, min(len(stack), max(1, parts))):
            pad = np.arange(size) >= sizes[part, None]
            rows = start[part, None] + np.minimum(np.arange(size), sizes[part, None] - 1)
            tied[part] = first_minimum(np.where(pad, np.inf, dists[rows]))[1]
            # each class's frame columns first, so a part keeps only its widest
            # frame; the columns past a narrower frame are 0 over its members
            cols = np.argsort(~frames[part], axis=1, kind="stable")[:, None, :width[part].max()]
            bad[part] |= ~median_certificate(np.take_along_axis(anchors[rows], cols, axis=2))
    if (tied & ~collide).any():
        c = int(np.flatnonzero(tied & ~collide)[0])
        raise AssertionError("nearest cube in class %s to %s is not unique" % (
            np.flatnonzero(det[c]).tolist(), cplx.vertex_bits(cplx.base_vertex)))
    return bad


def _suite_parallel(cplx, args):
    classes = _classes(cplx)
    # a bijection exactly when the first steps' classes are all the classes once
    ids = _step_classes(cplx, _first_steps(cplx))
    bad = int(not np.array_equal(np.sort(ids), np.arange(len(classes))))

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
        sampled.setdefault(c, []).append(v)
    failures = sum(int(_nearest_failures(cplx, *classes[c], at).sum())
                   for c, at in sampled.items())

    invalid = int(_invalid_classes(cplx, classes).sum())
    return {
        "class_count": abs(len(classes) - cplx.n_vertices),
        "vertex_class_bijection": bad,
        "nearest_verified": failures,
        "class_complex_valid": invalid,
    }, {"vertices": cplx.n_vertices, "classes": len(classes)}


# The field suite forms no operator over all cubes of a degree: the frame
# checks run on class blocks, and d_t and delta_t are term tables whose
# identities are integer polynomials in x = exp(-t^2/2).

_CHUNK = 1 << 22  # floats of a stacked frame array; a join block holds _CHUNK // 64 pairs


def _exact_residual(parts, ts, scale, width: int) -> float:
    """The largest |scale(b) sum_e c_e x^e| over the entries of ``parts``,
    (entry keys, exponents below ``width``, integer coefficients), at each
    t of ``ts``: the coefficients are grouped by (entry, exponent) first,
    and with every one 0 no t is evaluated and the residual is 0.0."""
    keys, total = grouped_sum(*((key * width + power, c) for key, power, c in parts))
    hit = np.flatnonzero(total)
    if not len(hit):
        return 0.0
    entry, power = np.divmod(keys[hit], width)
    entry = np.unique(entry, return_inverse=True)[1].ravel()
    worst = 0.0
    for t in ts:
        x, b = step_coefficients(t)
        worst = max(worst, scale(b) * _max_abs(np.bincount(entry, total[hit] * x ** power)))
    return worst


def _suite_field(cplx, args):
    if args.t_grid and min(args.t_grid) < FIELD_T_FLOOR:
        raise np.linalg.LinAlgError("t=%s below the float64 floor %r"
                                    % (format_t(min(args.t_grid)), FIELD_T_FLOOR))
    dim = cplx.dimension
    grid = args.t_grid or (0.1, 0.5, 1.0, 2.0, INF)
    loop_grid = args.t_grid or (0.3, 1.0)
    dt_grid = args.t_grid or (0.1, 1.0)
    adj_grid = args.t_grid or (0.5, 2.0)

    # the frame checks go in passes of as many t as keep the largest stack's
    # k m^2 floats within _CHUNK, each degree's blocks built once a pass
    sizes = [np.unique(class_rows(cplx, q).sizes, return_counts=True) for q in range(dim + 1)]
    per_pass = max(1, _CHUNK // max(int((count * m * m).max()) for m, count in sizes))
    psd = bridge = 0.0
    for at in range(0, len(grid), per_pass):
        for q in range(dim + 1):
            for blks in class_blocks(cplx, q, grid[at:at + per_pass]):
                psd = max(psd, -float(np.linalg.eigvalsh(blks.gram)[..., 0].min()))
                bridge = max(bridge, _max_abs(
                    blks.frame.swapaxes(-1, -2) @ blks.frame - blks.gram))

    # d_t = b D(x) and delta_t = b^-1 Delta(x): d_t d_t = b^2 D D, and
    # d_t^T G_hi = G_lo delta_t times b is adjoint_terms' identity
    width = 2 * cplx.n_hyperplanes + 3  # past every exponent of a sum
    square = adjoint = 0.0
    for q in range(dim):
        if q + 1 < dim:
            keys, signs, e1, e2 = term_product(frame_terms(cplx, q + 1, True),
                                               frame_terms(cplx, q, True),
                                               len(cplx.cube_arrays(q).keys))
            square = max(square, _exact_residual([(keys, e1 + e2, signs)], dt_grid,
                                                 lambda b: b * b, width))
        for parts in adjoint_terms(cplx, q, _CHUNK // 64):
            adjoint = max(adjoint, _exact_residual(parts, adj_grid, lambda b: 1 / b, width))

    loops = path_residual(cplx, [t for t in loop_grid if t != INF])

    unitary = 0.0
    neighbor = base_neighbor(cplx)
    if neighbor is not None:
        for q in range(dim + 1):
            for _, block in w_hat_blocks(cplx, q, neighbor, cplx.base_vertex, t=1.0):
                unitary = max(unitary, _max_abs(block.T @ block - np.eye(len(block))))

    return {
        "gram_psd": psd,
        "unitarity_bridge": bridge,
        "path_independence": loops,
        "d_t_squared": square,
        "d_t_adjoint": adjoint,
        "w_hat_unitary": unitary,
    }, {}


def _suite_fredholm(cplx, args):
    n, base = graded_offsets(cplx)[-1], cplx.vertex_index(cplx.base_vertex)
    # P + D^2, the suite's one dense array, comes first: a complex too large
    # for it stops before any other work
    shifted = np.zeros((n, n))
    terms, values = graded_terms(cplx)
    rows, cols = terms[:, 0], terms[:, 1]
    res = {"d_symmetric": max_sum((rows * n + cols, values), (cols * n + rows, -values)),
           # D P and P D keep only the base column and row of D; P^2 = P exactly
           "projection_commutes": _max_abs(values[(rows == base) | (cols == base)]),
           "fredholm_identity": 0.0, "homotopy_identity": 0.0, "resolvent_bound": 0.0}
    for t in args.t_grid or (0.1, 1.0, INF):
        frame = spectral_frame(cplx, t, weighted=True)
        for name, defect in (("fredholm_identity", frame.fredholm_defect()),
                             ("homotopy_identity", frame.homotopy_defect())):
            res[name] = max(res[name], norm2_bound_sums(n, *defect))
        for entry in frame.resolvent_bounds((0.0, 1.0, 10.0)):
            res["resolvent_bound"] = max(res["resolvent_bound"], entry["norm"] - entry["bound"])

    # D^2 is diagonal: the quadrature runs on P + D^2's diagonal, or on the
    # whole matrix if it has off-diagonal mass, which then shows against the
    # diagonal's inverse square root
    keys, square = grouped_sum(term_product(terms, terms, n)[:2])  # unit weights: values are signs
    row, col = np.divmod(keys, n)
    shifted[row, col] = square
    lam = np.diag(shifted).copy()
    shifted[base, base] += 1.0
    want = np.diag(shifted) ** -0.5
    if square[row != col].any():
        quad = inv_sqrt_integral(shifted, nodes=200)
        quad[np.diag_indices_from(quad)] -= want
    else:
        quad = inv_sqrt_diagonal(np.diag(shifted), nodes=200) - want
    res["inv_sqrt_quadrature"] = _max_abs(quad) / want.max()

    # the target I - (I + D^2)^(-1) is read from I + D^2 by one LU solve
    # against the ones vector, not from its diagonal: on a diagonal matrix
    # that is exact division, 1 / (1 + lam) bit for bit
    shifted[np.diag_indices_from(shifted)] = 1.0 + lam
    inverse = np.linalg.solve(shifted, np.ones(n))
    res["normalized_d_identity"] = norm2_bound_sums(
        n, *homotopy_sums(terms, values, (1.0 + lam) ** -0.5, 1.0 - inverse))
    return res, {}


_SUITES = {
    "jv": _suite_jv,
    "ps": _suite_ps,
    "parallel": _suite_parallel,
    "field": _suite_field,
    "fredholm": _suite_fredholm,
}


def _cmd_check(args: argparse.Namespace, parser: argparse.ArgumentParser, open_out) -> int:
    cplx = _load_complex(args.input, parser)
    out = open_out()
    try:
        residuals, counts = _SUITES[args.suite](cplx, args)
    except np.linalg.LinAlgError as exc:
        sys.stderr.write("check %s: numerical breakdown: %s\n" % (args.suite, exc))
        return 3
    except MemoryError as exc:
        sys.stderr.write("check %s: out of memory: %s\n"
                         % (args.suite, str(exc) or "allocation failed"))
        return 3
    except AssertionError as exc:
        sys.stderr.write("check %s: internal check failed: %s\n" % (args.suite, exc))
        return 3
    except Exception as exc:
        sys.stderr.write("check %s: internal error: %s: %s\n"
                         % (args.suite, type(exc).__name__, " ".join(str(exc).splitlines())))
        return 3
    if residuals.keys() != args.tolerances.keys():
        raise RuntimeError("check %s computed %s, but its table names %s" % (
            args.suite, ", ".join(sorted(residuals)), ", ".join(args.tolerances)))
    checks = []
    for name, threshold in args.tolerances.items():
        residual = float(residuals[name])
        checks.append({"name": name, "residual": residual, "threshold": threshold,
                       "pass": residual <= threshold})
    report = {
        "schema": 1,
        "suite": args.suite,
        "input": args.input,
        **({"counts": counts} if counts else {}),
        "checks": checks,
        "pass": all(c["pass"] for c in checks),
    }
    out.write(json.dumps(report, indent=2) + "\n")
    return 0 if report["pass"] else 1


# -- sweep -----------------------------------------------------------------------


def _csv_field(text: str) -> str:
    """``text`` as ``csv.writer`` writes one field: symbol keys hold commas, so quoted."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="").writerow([text])
    return buf.getvalue()


def _first_witness(cplx: CubeComplex, h: np.ndarray, k: np.ndarray, cols: np.ndarray) -> list:
    """The representatives of section 0 and of the first section of its row,
    whose pairing is polynomial 0 of the table, as pair, orientation, pair,
    orientation."""
    out = []
    for i in (0, int(cols[0])):
        hs, ks = tuple(np.flatnonzero(h[i]).tolist()), tuple(np.flatnonzero(k[i]).tolist())
        sym = PSSymbol(hs, ks, canonical_symbol_vertex(cplx, hs + ks), 1)
        out.extend(symbol_representative(cplx, sym))
    return out


def _cmd_sweep(args: argparse.Namespace, parser: argparse.ArgumentParser, open_out) -> int:
    cplx = _load_complex(args.input, parser)
    grid = sorted(set(args.t_grid or (0.1, 1.0, INF)))

    if args.select is None:
        # every basis symbol's key and rows, degree by degree
        degrees = range(cplx.dimension + 1)
        keys = [key for q in degrees for key in basis_keys(cplx, q)]
        rows = [symbol_arrays(cplx, q) for q in degrees]
        h, k = np.concatenate([a.h for a in rows]), np.concatenate([a.k for a in rows])
        r = np.concatenate([symbol_vertices(cplx, q) for q in degrees])
    else:
        try:
            keys, h, k, r = select_symbols(cplx, [s for s in args.select if s])
        except KeyError as exc:
            parser.error("unknown symbol key %r" % exc.args[0])
    out = open_out()

    # A pair whose faces have different cutting sets is 0.0 at every t and
    # in the limit; every other pair takes its value from its polynomial,
    # summed once per t, and its limit is 1.0 on the diagonal and 0.0 off
    # it.  Labels, quoted keys and float reprs joined by commas are the
    # bytes csv.writer gives, and the lines of each row key go out as soon
    # as they are made.
    table = pairing_table(h, k, r)
    keys = [_csv_field(key) for key in keys]
    degree = k.sum(axis=1, dtype=np.int64).tolist()
    first, zeros = {}, {}
    for j, q in enumerate(degree):
        first.setdefault(q, j)
        zeros.setdefault(q, []).append(keys[j] + ",0.0")

    out.write("t,row_key,col_key,value\n")
    start = table.start.tolist()
    witness = _first_witness(cplx, h, k, table.cols) if keys else None
    for t in [0.0] + grid:
        label = format_t(t)
        if t:
            # polynomial 0 goes through the per-pair entry point on its witness
            # pair, which keeps that path traced in perfbench; the rest from the table
            values = [polynomial_value(cplx, power, coeffs, t)
                      for power, coeffs in table.polynomials[1:]]
            if witness:
                values.insert(0, pairing_value(cplx, *witness, t))
            values = [repr(v) for v in values]
        for i, (q, key) in enumerate(zip(degree, keys)):
            cells = zeros[q].copy()
            if t:
                span = slice(start[i], start[i + 1])
                for j, kk in zip(table.cols[span].tolist(), table.ids[span].tolist()):
                    cells[j - first[q]] = keys[j] + "," + values[kk]
            else:
                cells[i - first[q]] = key + ",1.0"
            prefix = label + "," + key + ","
            out.write(prefix + ("\n" + prefix).join(cells) + "\n")
    return 0


# -- wiring ----------------------------------------------------------------------


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command, or of ``command`` alone: the other
    subcommands only lengthen the top-level help and choice errors."""
    parser = argparse.ArgumentParser(
        prog="cubedeform",
        description="Cube complex deformation toolkit command line.")
    sub = parser.add_subparsers(dest="command", required=True)
    wanted = _COMMANDS if command is None else (command,)
    made = []

    if "gen" in wanted:
        gen = sub.add_parser("gen", help="generate a complex document")
        gen_sub = gen.add_subparsers(dest="kind", required=True)
        tree = gen_sub.add_parser("tree", help="star tree")
        tree.add_argument("--leaves", type=int, required=True)
        grid = gen_sub.add_parser("grid", help="grid of cells, e.g. --dims 2x1")
        grid.add_argument("--dims", required=True)
        cube = gen_sub.add_parser("cube", help="full hypercube")
        cube.add_argument("--dim", type=int, required=True)
        rmed = gen_sub.add_parser("random-median", help="median closure of random seeds")
        rmed.add_argument("--n", type=int, required=True, help="coordinate count")
        rmed.add_argument("--k", type=int, required=True, help="seed vertex count")
        rmed.add_argument("--seed", type=int, default=0)
        for p in (tree, grid, cube, rmed):
            p.add_argument("--out")
        made += [tree, grid, cube, rmed]

    if "validate" in wanted:
        val = sub.add_parser("validate", help="validate a complex document")
        val.add_argument("--input", required=True)
        val.add_argument("--out")
        made.append(val)

    if "check" in wanted:
        chk = sub.add_parser("check", help="run an invariant suite")
        chk.add_argument("suite", choices=sorted(_SUITES))
        chk.add_argument("--input", required=True)
        chk.add_argument("--out")
        chk.add_argument("--t", dest="t")
        chk.add_argument("--tol", action="append", default=[],
                         help="override a threshold, name=value; repeatable")
        made.append(chk)

    if "sweep" in wanted:
        swp = sub.add_parser("sweep", help="emit the pairing sweep CSV")
        swp.add_argument("--input", required=True)
        swp.add_argument("--out")
        swp.add_argument("--t", dest="t")
        swp.add_argument("--select", action="append",
                         help="restrict to these symbol keys; repeatable")
        made.append(swp)

    # usage errors found after parsing go through the subcommand's own parser
    for p in made:
        p.set_defaults(parser=p)
    return parser


_COMMANDS = {
    "gen": _cmd_gen,
    "validate": _cmd_validate,
    "check": _cmd_check,
    "sweep": _cmd_sweep,
}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # a known command word builds its subparser alone; anything else (no
    # arguments, -h, an unknown word) gets the full parser's help or error
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args, extra = build_parser(command).parse_known_args(argv)
    parser = args.parser
    if extra:
        parser.error("unrecognized arguments: %s" % " ".join(extra))
    t = getattr(args, "t", None)
    args.t_grid = _parse_t_grid(t, parser) if t else None
    if args.command == "check":
        args.tolerances = _parse_tols(args.suite, args.tol, parser)
    with contextlib.ExitStack() as stack:
        return _COMMANDS[args.command](
            args, parser, lambda: stack.enter_context(_open_out(args.out, parser)))


if __name__ == "__main__":
    sys.exit(main())

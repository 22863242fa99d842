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
holds only for t >= FIELD_T_FLOOR (1e-6): below it ``U_t`` is too
ill-conditioned for float64 and its identities fail by rounding alone,
so a smaller t exits 3 before any computation. The floor is not sharp
on every complex: on ``gen random-median --n 14 --k 10 --seed 3``,
``d_t_adjoint`` at t = 1e-6 reads 1.28e-9, over its 1e-9 threshold, so
that check fails (exit 1).
The same command and input give the same bytes for a fixed BLAS
thread count; the thread count can move the last bits of the float
residuals of ``check field``.
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
    block_floats,
    class_blocks,
    deformation_weights,
    pair_blocks,
    pairing_table,
    pairing_value,
    path_residual,
    polynomial_value,
    segment_add,
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

# Smallest t at which the field suite's identities hold in float64 on the
# test complexes; from 1e-7 down, d_t_adjoint fails by rounding alone.
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


# The field suite forms no operator over all cubes of a degree: U_t is block
# diagonal by class, so d_t and delta_t are class-pair blocks (``pair_blocks``)
# and each identity is checked on them, for all t of a pass at once.

_CHUNK = 1 << 22  # floats of one batch of products, and of each stacked array of a pass


def _square_residual(upper: list, lower: list) -> float:
    """The largest entry of d_t(q) d_t(q-1): per class pair (I, J), the sum of
    upper_IK lower_KJ over the classes K between them, one stack pair of
    (I, J) at a time, the products formed in batches and added in by
    ``segment_add``."""
    paths: dict[tuple, list] = {}
    for a in upper:
        for b in lower:
            if a.stacks[1] == b.stacks[0]:
                ia, ib = np.nonzero(a.lo[:, None] == b.hi)  # the paths through K
                paths.setdefault((a.stacks[0], b.stacks[1]), []).append((a, b, ia, ib))
    worst = 0.0
    for joined in paths.values():
        keys, slot = np.unique(np.concatenate([(a.hi[ia] << 32) + b.lo[ib]
                                               for a, b, ia, ib in joined]), return_inverse=True)
        a, b = joined[0][:2]
        sums = np.zeros((len(a.block), len(keys), a.block.shape[2], b.block.shape[3]))
        for a, b, ia, ib in joined:
            mine, slot, step = slot[:len(ia)], slot[len(ia):], max(1, _CHUNK // b.block[:, 0].size)
            for i in range(0, len(ia), step):
                j = slice(i, i + step)
                segment_add(sums, mine[j], a.block[:, ia[j]] @ b.block[:, ib[j]])
        worst = max(worst, _max_abs(sums))
    return worst


def _adjoint_residual(d_t: list, delta_t, hi, lo) -> float:
    """The largest entry of G_hi d_t - (G_lo delta_t)^T over the class pairs
    either side links, d_t^T G_hi = G_lo delta_t; a pair that only one side
    lists is compared against zero.  delta_t is read once."""
    pending = {b.stacks: b for b in d_t}
    worst = 0.0
    for e in delta_t:
        g_e = (lo[e.stacks[0]].gram[:, e.hi] @ e.block).swapaxes(-1, -2)
        b = pending.pop(e.stacks[::-1], None)
        if b is not None:
            g_d = hi[b.stacks[0]].gram[:, b.hi] @ b.block
            # each class pair is listed once a side: the matches are one to one
            _, i, j = np.intersect1d((b.hi << 32) + b.lo, (e.lo << 32) + e.hi,
                                     assume_unique=True, return_indices=True)
            g_d[:, i] -= g_e[:, j]
            g_e[:, j] = 0.0
            worst = max(worst, _max_abs(g_d))
        worst = max(worst, _max_abs(g_e))
    for b in pending.values():
        worst = max(worst, _max_abs(hi[b.stacks[0]].gram[:, b.hi] @ b.block))
    return worst


def _span(ts: list, wanted) -> slice:
    """Where the t's of ``wanted`` sit in ``ts``; the pass order keeps them
    consecutive."""
    at = [i for i, t in enumerate(ts) if t in wanted]
    span = slice(at[0], at[0] + len(at)) if at else slice(0)
    assert at == list(range(len(ts)))[span], "t grids not consecutive in a pass"
    return span


def _take(blocks, span: slice) -> list:
    """``class_blocks`` or ``pair_blocks`` of a pass at its t's ``span``, as views."""
    return [b._replace(**{f: getattr(b, f)[span] for f in ("gram", "frame", "block")
                          if f in b._fields}) for b in blocks]


def _suite_field(cplx, args):
    if args.t_grid and min(args.t_grid) < FIELD_T_FLOOR:
        raise np.linalg.LinAlgError("t=%s below the float64 floor %r"
                                    % (format_t(min(args.t_grid)), FIELD_T_FLOOR))
    dim = cplx.dimension
    grid = args.t_grid or (0.1, 0.5, 1.0, 2.0, INF)
    loop_grid = args.t_grid or (0.3, 1.0)
    dt_grid = args.t_grid or (0.1, 1.0)
    adj_grid = args.t_grid or (0.5, 2.0)

    # The union grid goes in passes, each holding as many t as keep the
    # largest stacked array within _CHUNK floats.  The t's that need delta_t
    # come first, then the rest that need d_t, so every check reads one slice
    # of a pass.  Per pass, each degree's class blocks are built once and
    # live while the degrees next to it need them, and d_t while the next
    # square needs it.
    union = sorted({*grid, *dt_grid, *adj_grid},
                   key=lambda t: (t not in adj_grid, t not in dt_grid, t))
    per_pass = max(1, _CHUNK // max(block_floats(cplx, q) for q in range(dim + 1)))
    psd = bridge = square = adjoint = 0.0
    for at in range(0, len(union), per_pass):
        ts = union[at:at + per_pass]
        frames, ops = _span(ts, grid), _span(ts, {*dt_grid, *adj_grid})
        d_ts = ts[ops]
        adj, sq = _span(d_ts, adj_grid), _span(d_ts, dt_grid)
        upper, below = class_blocks(cplx, 0, ts), None
        for q in range(dim + 1):
            here, upper = upper, class_blocks(cplx, q + 1, ts) if q < dim else ()
            for blks in _take(here, frames) if ts[frames] else ():
                psd = max(psd, -float(np.linalg.eigvalsh(blks.gram)[..., 0].min()))
                bridge = max(bridge, _max_abs(
                    blks.frame.swapaxes(-1, -2) @ blks.frame - blks.gram))
            if q == dim or not d_ts:
                continue
            hi, lo = _take(upper, ops), _take(here, ops)
            d_t = list(pair_blocks(term_table(cplx, q, True), hi, lo, d_ts))
            if d_ts[adj]:
                hi, lo = _take(hi, adj), _take(lo, adj)
                adjoint = max(adjoint, _adjoint_residual(
                    _take(d_t, adj),
                    pair_blocks(term_table(cplx, q + 1, False), lo, hi, d_ts[adj]), hi, lo))
            here = hi = lo = None
            if d_ts[sq]:
                d_t = _take(d_t, sq)
                if below is not None:
                    square = max(square, _square_residual(d_t, below))
                below = d_t
            d_t = None

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

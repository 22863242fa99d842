"""Command line: generation, validation, check suites, sweep CSV."""

import argparse
import ast
import collections
import contextlib
import csv
import hashlib
import io
import itertools
import json
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import helpers
from helpers import (
    class_of,
    enumerate_classes,
    hook_matrix,
    negate_one_term,
    spectral_profile,
    wedge_matrix,
)
from cubedeform import cli, deformation, differential, fredholm, symbols
from cubedeform.cli import DEFAULT_TOLERANCES, FIELD_T_FLOOR, main
from cubedeform.core import Cube, CubeComplex, InvalidComplex, parse_cxc, row_ints, write_cxc
from cubedeform.deformation import deformation_weights, pairing_value
from cubedeform.differential import cohomology_ranks, d_matrix, term_table
from cubedeform.fredholm import format_t, graded_offsets
from cubedeform.generate import (
    grid_complex,
    hypercube,
    random_median_complex,
    star_tree,
)
from cubedeform.parallelism import nearest_rows
from cubedeform.symbols import (
    ps_basis,
    ps_cohomology_ranks,
    ps_d_matrix,
    ps_term_table,
    ps_type_of_index,
    symbol_key,
)
from oracles import (
    assemble_D,
    cube_index,
    delta_matrix,
    laplacian_matrix,
    normalized_d,
    pairing_limit,
    ps_delta_matrix,
    ps_laplacian,
    rebased,
)

DISCONNECTED = "cxc 1\nhyperplanes 2\nbasepoint 00\nvertices 2\n00\n11\n"


def run(argv, capsys):
    code = main(argv)
    return code, capsys.readouterr().out


def usage_error(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


# -- gen ---------------------------------------------------------------------------


def test_gen_matches_library(capsys):
    cases = [
        (["gen", "tree", "--leaves", "3"], star_tree(3)),
        (["gen", "grid", "--dims", "2x1"], grid_complex([2, 1])),
        (["gen", "cube", "--dim", "3"], hypercube(3)),
        (["gen", "random-median", "--n", "6", "--k", "4", "--seed", "3"],
         random_median_complex(6, 4, 3)),
    ]
    for argv, cplx in cases:
        code, out = run(argv, capsys)
        assert code == 0
        assert out == write_cxc(cplx)


def test_gen_deterministic(capsys):
    argv = ["gen", "random-median", "--n", "7", "--k", "5", "--seed", "11"]
    _, first = run(argv, capsys)
    _, second = run(argv, capsys)
    assert first == second
    _, other_seed = run(argv[:-1] + ["12"], capsys)
    assert other_seed != first


def test_gen_out_file(tmp_path, capsys):
    target = tmp_path / "sq.cxc"
    code, out = run(["gen", "cube", "--dim", "2", "--out", str(target)], capsys)
    assert code == 0 and out == ""
    assert target.read_text() == write_cxc(hypercube(2))


def test_gen_usage_errors():
    usage_error(["gen", "grid", "--dims", "2x0"])
    usage_error(["gen", "grid", "--dims", "x"])
    usage_error(["gen", "cube", "--dim", "0"])
    # a degenerate draw has no hyperplanes to serialize
    usage_error(["gen", "random-median", "--n", "1", "--k", "1"])


# -- validate ----------------------------------------------------------------------


def test_validate_valid(tmp_path, capsys):
    path = tmp_path / "g.cxc"
    path.write_text(write_cxc(grid_complex([1, 2])))
    code, out = run(["validate", "--input", str(path)], capsys)
    assert code == 0
    lines = out.splitlines()
    assert "vertices 6" in lines
    assert "hyperplanes 3" in lines
    assert "dimension 2" in lines
    assert "cubes 6 7 2" in lines
    assert "median ok" in lines
    assert "connected ok" in lines
    assert lines[-1] == "result valid"


def test_validate_invalid(tmp_path, capsys):
    path = tmp_path / "bad.cxc"
    path.write_text(DISCONNECTED)
    code, out = run(["validate", "--input", str(path)], capsys)
    assert code == 1
    assert out.startswith("result invalid\n")
    assert "connectivity" in out


def test_validate_parse_error(tmp_path, capsys):
    path = tmp_path / "junk.cxc"
    path.write_text("cxc 99\n")
    code, out = run(["validate", "--input", str(path)], capsys)
    assert code == 1
    assert out.startswith("result invalid\n")


def test_validate_missing_file():
    usage_error(["validate", "--input", "/nonexistent/nope.cxc"])


@pytest.mark.parametrize("cplx", (grid_complex([3, 3, 2]), random_median_complex(9, 6, 5)),
                         ids=("grid332", "random"))
def test_validate_makes_no_cube_tuples(cplx, tmp_path, monkeypatch, capsys):
    # the bounded-geometry count reads only the cube rows
    doc = tmp_path / "doc.cxc"
    doc.write_text(write_cxc(cplx))
    parsed, parse = [], cli.parse_cxc
    monkeypatch.setattr(cli, "parse_cxc", lambda text: parsed.append(parse(text)) or parsed[-1])
    code, out = run(["validate", "--input", str(doc)], capsys)
    assert code == 0
    assert "bounded-geometry %d" % helpers.oracle_bounded_geometry(cplx) in out.splitlines()
    assert not tuple_entries(parsed[0]._shared)


# -- check -------------------------------------------------------------------------


@pytest.fixture(scope="module")
def grid_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "g21.cxc"
    path.write_text(write_cxc(grid_complex([2, 1])))
    return str(path)


@pytest.mark.parametrize("suite", ("jv", "ps", "parallel", "field", "fredholm"))
def test_check_suites_pass(suite, grid_file, capsys):
    code, out = run(["check", suite, "--input", grid_file], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["schema"] == 1
    assert report["suite"] == suite
    assert report["pass"] is True
    # every check of the suite's table, in table order, at its threshold
    table = DEFAULT_TOLERANCES[suite]
    assert [check["name"] for check in report["checks"]] == list(table)
    for check in report["checks"]:
        assert set(check) == {"name", "residual", "threshold", "pass"}
        assert check["pass"] is True
        assert check["residual"] <= check["threshold"] == table[check["name"]]


def test_check_parallel_counts(grid_file, capsys):
    code, out = run(["check", "parallel", "--input", grid_file], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["counts"] == {"vertices": 6, "classes": 6}


def test_check_parallel_samples_every_stride_th_pair(monkeypatch):
    # the suite checks every stride-th (vertex, class) pair, the stride the
    # smallest s >= V*C // 4096 prime to C: on the 9x9 grid V*C // 4096 is
    # 2, which shares a factor with the 100 classes and would sample 50 of
    # them; 3 samples all.  Each class's vertices go in one batched call,
    # with the class's members, and every failed pair is counted.
    cplx = grid_complex([9, 9])
    classes = enumerate_classes(cplx)
    pairs = [(v, klass) for v in cplx.vertices for klass in classes]
    assert len(pairs) // 4096 == 2 and len(classes) == 100
    seen, called, nearest_failures = [], [], cli._nearest_failures

    def every_pair_fails(cplx_, det, members, at):
        determining = tuple(np.flatnonzero(det).tolist())
        called.append(determining)
        cubes = cplx_.cubes(len(determining))
        assert tuple(cubes[i] for i in members) == class_of(cplx_, determining).members
        seen.extend((cplx_.vertices[i], determining) for i in at)
        failed = nearest_failures(cplx_, det, members, at)
        assert not failed.any()
        return ~failed

    monkeypatch.setattr(cli, "_nearest_failures", every_pair_fails)
    residuals, _ = cli._SUITES["parallel"](cplx, None)
    want = {(v, klass.determining) for v, klass in pairs[::3]}
    assert len(seen) == len(want) == residuals["nearest_verified"]
    assert set(seen) == want
    assert len(called) == len(set(called)) == len(classes)


def parallel_residuals(cplx):
    """The parallel suite's residuals and counts, checked against the tuple
    oracle's on the same complex."""
    got = cli._SUITES["parallel"](cplx, None)
    assert got == helpers.suite_parallel(cplx, None)
    return got


@pytest.mark.parametrize("name", helpers.FIXTURE_NAMES + helpers.MORE_FIXTURE_NAMES
                         + helpers.WIDE_FIXTURE_NAMES + ("random0", "random1"))
def test_check_parallel_matches_the_tuple_oracle(name):
    cplx = helpers.table_case(name)
    residuals, counts = parallel_residuals(cplx)
    assert not any(residuals.values())
    assert counts == {"vertices": cplx.n_vertices, "classes": cplx.n_vertices}
    for base in cplx.vertices[1::max(1, cplx.n_vertices // 4)]:
        parallel_residuals(rebased(cplx, base))


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 8), k=st.integers(1, 6), seed=st.integers(0, 1 << 16))
def test_check_parallel_matches_the_tuple_oracle_hypothesis(n, k, seed):
    residuals, _ = parallel_residuals(random_median_complex(n, k, seed))
    assert not any(residuals.values())


def doctor_class(monkeypatch, cplx, determining, members):
    """Give the class ``determining`` of ``cplx`` the cubes ``members``
    instead of its own, in ``cli._classes`` (on any complex loaded after
    this) and in the tuple oracle's cached classes; returns the class."""
    classes = cli._classes

    def doctored(cplx_):
        out = classes(cplx_)
        index = cube_index(cplx_, len(determining))
        c = [tuple(np.flatnonzero(det).tolist()) for det, _ in out].index(determining)
        out[c] = (out[c][0], np.array([index[m] for m in members]))
        return out

    monkeypatch.setattr(cli, "_classes", doctored)
    tuples = list(helpers.enumerate_classes(cplx))
    c = [k.determining for k in tuples].index(determining)
    tuples[c] = helpers.ParallelClass(determining, tuple(members))
    cplx._shared["parallel_classes"] = tuple(tuples)
    cplx._shared.pop("parallel_class_index", None)
    return tuples[c]


def check_parallel(cplx, tmp_path, capsys):
    """``check parallel`` run on ``cplx`` written out: exit code and residuals."""
    doc = tmp_path / "doctored.cxc"
    doc.write_text(write_cxc(cplx))
    code, out = run(["check", "parallel", "--input", str(doc)], capsys)
    return code, {c["name"]: c["residual"] for c in json.loads(out)["checks"]}


def _drop(*anchors):
    return lambda members: tuple(m for m in members if m.anchor not in anchors)


# (complex, class, its doctored members, the failure its class complex
# has, the sampled pairs that then fail against their nearest member)
DOCTORED_CLASSES = {
    # edge 100-110 sits over 000 on the frame {1, 2} of the class (0,)
    "collide": (lambda: hypercube(3), (0,), lambda m: (m[0], Cube(0b100, (1,))) + m[2:],
                "frame coordinates do not separate", 4),
    "disconnected": (lambda: grid_complex([1, 3]), (0,), _drop(0b0100),
                     "connectivity failure", 2),
    # the members left form a hexagon in their frame
    "not median-closed": (lambda: hypercube(4), (0,), _drop(0b0011, 0b0100),
                          "median-closure failure", 4),
    # the vertices 100, 110 and 111 are across the frame {0} from it
    "lone member": (lambda: grid_complex([1, 2]), (1,), lambda m: m[:1],
                    "constant coordinate", 3),
}


@pytest.mark.parametrize("case", DOCTORED_CLASSES)
def test_check_parallel_counts_a_doctored_class(case, tmp_path, monkeypatch, capsys):
    make, determining, doctor, failure, nearest = DOCTORED_CLASSES[case]
    cplx = make()
    members = doctor(helpers.class_of(cplx, determining).members)
    klass = doctor_class(monkeypatch, cplx, determining, members)
    with pytest.raises(InvalidComplex, match=failure):
        helpers.class_complex(cplx, klass)
    residuals, _ = parallel_residuals(cplx)
    assert residuals == {"class_count": 0, "vertex_class_bijection": 0,
                         "nearest_verified": nearest, "class_complex_valid": 1}
    code, reported = check_parallel(cplx, tmp_path, capsys)
    assert code == 1
    assert reported == {name: float(r) for name, r in residuals.items()}


def _extra_step(steps):
    # a leaf of the tripod also steps across a second hyperplane: no
    # square is there, so the step names no class
    v = int(np.flatnonzero(steps.any(axis=1))[0])
    steps[v, np.flatnonzero(steps[v] == 0)[0]] = 1
    return steps


def _swapped_steps(steps):
    # 110 and 111 of the 1x2 grid trade steps {0, 1} and {0, 2}: the classes
    # are still met once each, but {0, 1} spans no square at 111
    steps[[4, 5]] = steps[[5, 4]]
    return steps


@pytest.mark.parametrize("make, doctor", ((lambda: star_tree(3), _extra_step),
                                          (lambda: grid_complex([1, 2]), _swapped_steps)),
                         ids=("no class", "no cube"))
def test_check_parallel_counts_an_unrealized_first_step(make, doctor, tmp_path, monkeypatch,
                                                        capsys):
    first_steps = cli._first_steps
    monkeypatch.setattr(cli, "_first_steps", lambda cplx_: doctor(first_steps(cplx_)))
    code, residuals = check_parallel(make(), tmp_path, capsys)
    assert code == 1
    assert residuals == {"class_count": 0.0, "vertex_class_bijection": 1.0,
                         "nearest_verified": 0.0, "class_complex_valid": 0.0}


def test_check_parallel_tie_at_the_base_vertex_exits_3(tmp_path, monkeypatch, capsys):
    # members 010 and 100 of the doctored class are both one step from the
    # base vertex 000 and apart on its frame {0}
    cplx = grid_complex([1, 2])
    assert cplx.base_vertex == 0
    doctor_class(monkeypatch, cplx, (2,), (Cube(0b010, (2,)), Cube(0b100, (1,))))
    with pytest.raises(AssertionError) as oracle:
        helpers.suite_parallel(cplx, None)
    doc = tmp_path / "g12.cxc"
    doc.write_text(write_cxc(cplx))
    code = main(["check", "parallel", "--input", str(doc)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == "check parallel: internal check failed: %s\n" % oracle.value
    assert str(oracle.value) == "nearest cube in class [2] to 000 is not unique"


def oracle_invalid_classes(cplx, classes):
    """Per class of ``cli._classes``, whether it is invalid, one class at a
    time: its frame coordinates collide, or ``CubeComplex`` rejects them,
    rooted at the member nearest the base vertex; a tie for that member
    raises AssertionError."""
    base = cplx.cube_arrays(0).anchor[[cplx.vertex_index(cplx.base_vertex)]]
    out = []
    for det, members in classes:
        bits = cplx.cube_arrays(int(det.sum())).anchor[members]
        frame = cplx.crossing_matrix()[:, det == 1].all(axis=1)
        coords = row_ints(bits[:, frame])
        if len(set(coords)) != len(coords):
            out.append(True)
            continue
        (home,), (tied,), _ = nearest_rows(bits.astype(np.float64), base.astype(np.float64))
        if tied:
            raise AssertionError("nearest cube in class %s to %s is not unique" % (
                np.flatnonzero(det).tolist(), cplx.vertex_bits(cplx.base_vertex)))
        try:
            CubeComplex(int(frame.sum()), coords, coords[home])
            out.append(False)
        except InvalidComplex:
            out.append(True)
    return out


def assert_invalid_classes_match(cplx, classes):
    """The stacked class validation against the one-class-at-a-time oracle,
    AssertionError messages included."""
    try:
        want = oracle_invalid_classes(cplx, classes)
    except AssertionError as exc:
        with pytest.raises(AssertionError) as got:
            cli._invalid_classes(cplx, classes)
        assert str(got.value) == str(exc)
        return None
    got = cli._invalid_classes(cplx, classes).tolist()
    assert got == want
    return got


@pytest.mark.parametrize("name", helpers.FIXTURE_NAMES + helpers.MORE_FIXTURE_NAMES
                         + helpers.WIDE_FIXTURE_NAMES + ("random0", "random1"))
def test_stacked_class_validation_matches_the_one_class_oracle(name):
    cplx = helpers.table_case(name)
    assert not any(assert_invalid_classes_match(cplx, cli._classes(cplx)))


@pytest.mark.parametrize("chunk", (0, 16, 1 << 10))
@pytest.mark.parametrize("name", helpers.FIXTURE_NAMES + helpers.MORE_FIXTURE_NAMES
                         + ("random0", "random1"))
def test_stacked_class_validation_in_several_parts(name, chunk, monkeypatch):
    # a small _CHUNK splits each stack into parts of one class or more
    monkeypatch.setattr(cli, "_CHUNK", chunk)
    cplx = helpers.table_case(name)
    assert not any(assert_invalid_classes_match(cplx, cli._classes(cplx)))
    assert_invalid_classes_match(cplx, _doctored_classes(cplx, random.Random(chunk)))


def test_check_parallel_on_a_stack_of_several_parts(tmp_path, capsys):
    # the vertex class of a 512-leaf star, 1024 padded members over 512
    # hyperplanes, is past one part's bits at the default _CHUNK
    cplx = star_tree(512)
    assert 1024 * 512 > cli._CHUNK // 16
    assert not any(assert_invalid_classes_match(cplx, cli._classes(cplx)))
    doc = tmp_path / "star512.cxc"
    doc.write_text(write_cxc(cplx))
    code, out = run(["check", "parallel", "--input", str(doc)], capsys)
    assert code == 0 and json.loads(out)["pass"] is True


def _doctored_classes(cplx, rng):
    """``cli._classes`` with some classes edited: a member dropped, a cube
    of another class of the degree added, or all but one member dropped."""
    out = []
    for det, members in cli._classes(cplx):
        q, edit = int(det.sum()), rng.choice(("keep", "keep", "drop", "add", "lone"))
        if edit == "drop" and len(members) > 1:
            members = np.delete(members, rng.randrange(len(members)))
        elif edit == "add":
            members = np.union1d(members, [rng.randrange(len(cplx.cube_arrays(q).keys))])
        elif edit == "lone":
            members = members[:1]
        out.append((det, members))
    return out


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 8), k=st.integers(1, 6), seed=st.integers(0, 1 << 16),
       edits=st.integers(0, 1 << 16))
def test_stacked_class_validation_matches_the_one_class_oracle_hypothesis(n, k, seed, edits):
    cplx = random_median_complex(n, k, seed)
    cplx = rebased(cplx, cplx.vertices[edits % cplx.n_vertices])
    assert_invalid_classes_match(cplx, cli._classes(cplx))
    assert_invalid_classes_match(cplx, _doctored_classes(cplx, random.Random(edits)))


def test_check_deterministic(grid_file, capsys):
    argv = ["check", "field", "--input", grid_file]
    _, first = run(argv, capsys)
    _, second = run(argv, capsys)
    assert first == second


# sha256 of the `check field` reports: every residual but path_independence
# is held to the bytes recorded from the suite run one t at a time
FIELD_REPORTS = {
    ("cube", "--dim", "5"): "18732f07c5da7ac20288676d702fa895d980c4608e5d956208941eb98672a1b0",
    ("grid", "--dims", "2x2x2x1"): "3947d8d269535002d2ef3df34d55d20005de8c73028344acab15924d8209acc0",
}


@pytest.mark.parametrize("gen", FIELD_REPORTS, ids=("cube5", "grid2221"))
def test_check_field_reports_keep_their_bytes(gen, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    name = {"cube": "cube5.cxc", "grid": "grid2221.cxc"}[gen[0]]
    assert run(["gen", *gen, "--out", name], capsys)[0] == 0
    code, out = run(["check", "field", "--input", name], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == FIELD_REPORTS[gen]


def test_check_tol_override_forces_failure(grid_file, capsys):
    code, out = run(
        ["check", "jv", "--input", grid_file, "--tol", "d_squared=-1"], capsys)
    assert code == 1
    report = json.loads(out)
    assert report["pass"] is False
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["d_squared"]["pass"] is False
    assert by_name["d_squared"]["threshold"] == -1.0


def test_check_tol_names_belong_to_the_suite(grid_file, capsys):
    # a name from another suite's table would be accepted and then ignored
    usage_error(["check", "jv", "--input", grid_file, "--tol", "gram_psd=-1"])
    usage_error(["check", "fredholm", "--input", grid_file, "--tol", "d_squared=-1"])
    for suite, table in DEFAULT_TOLERANCES.items():
        for other, names in DEFAULT_TOLERANCES.items():
            if other != suite:
                usage_error(["check", suite, "--input", grid_file,
                             "--tol", "%s=1" % next(iter(names))])
        name = list(table)[-1]
        code, out = run(["check", suite, "--input", grid_file, "--tol", name + "=-1"],
                        capsys)
        assert code == 1
        failed = [c["name"] for c in json.loads(out)["checks"] if not c["pass"]]
        assert failed == [name]


@pytest.mark.parametrize("value", ("nan", "NaN", "-nan"))
def test_check_tol_rejects_nan(grid_file, value):
    usage_error(["check", "jv", "--input", grid_file, "--tol", "d_squared=" + value])


def test_check_tol_accepts_infinity(grid_file, capsys):
    code, out = run(["check", "jv", "--input", grid_file, "--tol", "d_squared=inf"], capsys)
    assert code == 0
    by_name = {c["name"]: c for c in json.loads(out)["checks"]}
    assert by_name["d_squared"]["threshold"] == float("inf")


@pytest.mark.parametrize("seed", ("7", "-1", "abc", "1.5"))
def test_check_takes_no_seed(grid_file, tmp_path, seed):
    # check field draws nothing: a --seed of any value is a usage error,
    # exit 2 with one usage message, before --out is opened or any work starts
    usage_error(["check", "field", "--input", grid_file, "--seed", seed])
    out = tmp_path / "report.json"
    proc = subprocess.run(
        [sys.executable, "-m", "cubedeform.cli", "check", "field", "--input", grid_file,
         "--seed=" + seed, "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert "error:" in proc.stderr.splitlines()[-1]
    assert "--seed" in proc.stderr.splitlines()[-1]
    assert not out.exists()


def test_check_t_grid_override(grid_file, capsys):
    code, out = run(
        ["check", "field", "--input", grid_file, "--t", "0.5,inf"], capsys)
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_check_usage_errors(grid_file):
    usage_error(["check", "jv", "--input", grid_file, "--tol", "nosuch=1"])
    usage_error(["check", "jv", "--input", grid_file, "--tol", "d_squared"])
    usage_error(["check", "jv", "--input", grid_file, "--tol", "d_squared=abc"])
    usage_error(["check", "field", "--input", grid_file, "--t", "0"])
    usage_error(["check", "field", "--input", grid_file, "--t", "abc"])
    usage_error(["check", "nosuchsuite", "--input", grid_file])
    usage_error(["check", "jv", "--input", "/nonexistent/nope.cxc"])


@pytest.mark.parametrize("t", ("1e-10", "1e-200"))
def test_check_numerical_breakdown_exit_code(grid_file, t):
    # U_t is singular to working precision at these t: a clean exit 3
    # with one line on stderr, never a traceback or a half report
    proc = subprocess.run(
        [sys.executable, "-m", "cubedeform.cli", "check", "field",
         "--input", grid_file, "--t", t],
        capture_output=True, text=True)
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("check field: numerical breakdown:")
    assert proc.stderr.count("\n") == 1


def _no_spectrum(*args, **kwargs):
    raise AssertionError("spectral factorisation on the diagonal harness")


def _no_dense(*args, **kwargs):
    raise AssertionError("dense operator or numpy.linalg on a joined path")


def test_check_fredholm_needs_no_spectrum(tmp_path, monkeypatch, capsys):
    # P + D^2 is diagonal: the suite takes no eigendecomposition, SVD or
    # exact 2-norm, and its one solve is against a single vector; it forms
    # no dense operator but P + D^2, which it scatters from the joins
    paths = []
    for name in helpers.FIXTURE_NAMES + helpers.MORE_FIXTURE_NAMES:
        cplx = helpers.fixture(name)
        if cplx.n_hyperplanes:
            paths.append(tmp_path / ("%s.cxc" % name))
            paths[-1].write_text(write_cxc(cplx))
    norm, solve, solves = np.linalg.norm, np.linalg.solve, []

    def norm_no_2(x, ord=None, *args, **kwargs):
        if ord in (2, -2):
            _no_spectrum()
        return norm(x, ord, *args, **kwargs)

    def solve_vector(a, b):
        assert np.ndim(b) == 1
        solves.append(len(b))
        return solve(a, b)

    # the quadrature's rule is closed-form (midpoint nodes in theta for
    # s = c tan(theta)): no Gauss-Legendre rule, whose nodes numpy takes
    # from an eigenproblem
    monkeypatch.setattr(np.polynomial.legendre, "leggauss", _no_spectrum)
    for name in ("eigh", "eigvalsh", "svd"):
        monkeypatch.setattr(np.linalg, name, _no_spectrum)
    for module, name in ((differential, "_matrix"), (differential, "d_matrix")):
        monkeypatch.setattr(module, name, _no_dense)
    monkeypatch.setattr(np.linalg, "norm", norm_no_2)
    monkeypatch.setattr(np.linalg, "solve", solve_vector)
    for path in paths:
        code, out = run(["check", "fredholm", "--input", str(path)], capsys)
        assert code == 0
        assert json.loads(out)["pass"] is True
    assert len(solves) == len(paths)


def test_check_fredholm_on_a_wide_star(tmp_path, capsys):
    # the 1,001 cubes of the 500-leaf star through the whole suite; a
    # tree's D^2 is diag(0, 1, ..., 1), so P + D^2 is the identity and the
    # quadrature reads rounding alone
    path = tmp_path / "star500.cxc"
    path.write_text(write_cxc(star_tree(500)))
    code, out = run(["check", "fredholm", "--input", str(path)], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    quad = {c["name"]: c["residual"] for c in report["checks"]}["inv_sqrt_quadrature"]
    assert quad <= 1e-14


def test_check_memory_error_exit_code(grid_file, monkeypatch, capsys):
    # an allocation the machine cannot meet is a breakdown, not a failed
    # check: exit 3 with one stderr line and no traceback
    zeros = np.zeros
    n = graded_offsets(parse_cxc(Path(grid_file).read_text()))[-1]

    def too_big(shape, *args, **kwargs):
        # the suite's one dense array, P + D^2, over every cube
        if np.ndim(shape) and tuple(shape) == (n, n):
            raise MemoryError("Unable to allocate 36.6 GiB for an array")
        return zeros(shape, *args, **kwargs)

    monkeypatch.setattr(np, "zeros", too_big)
    code = main(["check", "fredholm", "--input", grid_file])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert captured.err == (
        "check fredholm: out of memory: Unable to allocate 36.6 GiB for an array\n")


@pytest.mark.parametrize("grid, low", (
    ("1e-7", "1e-07"), ("0.5,1e-7,inf", "1e-07"), ("1e-300", "1e-300")))
def test_check_field_t_floor(grid_file, grid, low, capsys):
    code = main(["check", "field", "--input", grid_file, "--t", grid])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == (
        "check field: numerical breakdown: t=%s below the float64 floor 1e-06\n" % low)


def test_check_internal_check_failure_exits_3(grid_file, monkeypatch, capsys):
    # a failed invariant check of the package is a breakdown: exit 3, one
    # stderr line, no report and no traceback
    def disconnected(*args):
        raise AssertionError("parallelism class is not connected")

    monkeypatch.setattr(deformation, "_bfs_tables", disconnected)
    code = main(["check", "field", "--input", grid_file])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == "check field: internal check failed: parallelism class is not connected\n"


def test_check_any_other_suite_error_exits_3(grid_file, monkeypatch, capsys):
    # an exception no named handler takes is still a breakdown of the suite:
    # exit 3, one stderr line naming its type, no report and no traceback
    def broken(cplx, args):
        raise ValueError("zero-size array to reduction operation maximum which has no identity")

    monkeypatch.setitem(cli._SUITES, "jv", broken)
    code = main(["check", "jv", "--input", grid_file])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == ("check jv: internal error: ValueError: zero-size array to "
                            "reduction operation maximum which has no identity\n")


def test_check_field_at_the_t_floor(grid_file, capsys):
    assert FIELD_T_FLOOR == 1e-6
    code, out = run(["check", "field", "--input", grid_file, "--t", "1e-6"], capsys)
    assert code == 0
    assert json.loads(out)["pass"] is True


@pytest.mark.parametrize("cplx", (hypercube(5), grid_complex([3, 3, 2])), ids=("cube5", "grid332"))
def test_check_field_at_the_t_floor_on_larger_complexes(cplx, tmp_path, capsys):
    # U_t is ill-conditioned at the floor: d_t must come from solves against
    # its blocks (d_t_adjoint 2e-10 and 4e-10 here); multiplying by inverse
    # frames instead gave 1.3e-9 and 1.1e-9, over the 1e-9 threshold
    path = tmp_path / "c.cxc"
    path.write_text(write_cxc(cplx))
    code, out = run(["check", "field", "--input", str(path), "--t", "1e-6"], capsys)
    assert code == 0
    assert json.loads(out)["pass"] is True


@pytest.mark.parametrize("change", ("drop", "add"))
def test_check_residuals_must_match_the_table(grid_file, monkeypatch, capsys, change):
    # a suite that computes one name too few or one too many is a defect of
    # the suite: no report is written from it
    suite = cli._SUITES["jv"]

    def miscounted(cplx, args):
        residuals, counts = suite(cplx, args)
        if change == "drop":
            del residuals["wedge_hook_antisymmetry"]
        else:
            residuals["gram_psd"] = 0.0
        return residuals, counts

    monkeypatch.setitem(cli._SUITES, "jv", miscounted)
    with pytest.raises(RuntimeError, match="its table names d_squared, delta_transpose"):
        main(["check", "jv", "--input", grid_file])
    assert capsys.readouterr().out == ""


def test_readme_suite_table_is_the_tolerance_table():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = [line for line in readme.splitlines() if line.startswith("| `")]
    table = {}
    for row in rows:
        suite, checks = (cell.strip() for cell in row.strip("|").split("|"))
        table[suite.strip("`")] = [
            (name.strip("` "), float(value))
            for name, value in (entry.strip().rsplit(" ", 1) for entry in checks.split(","))]
    assert list(table) == list(DEFAULT_TOLERANCES)
    for suite, thresholds in DEFAULT_TOLERANCES.items():
        assert table[suite] == list(thresholds.items())


def test_default_tolerances_table():
    assert set(DEFAULT_TOLERANCES) == set(cli._SUITES)
    names = [name for table in DEFAULT_TOLERANCES.values() for name in table]
    assert len(names) == len(set(names)) == 30
    assert all(isinstance(v, float) and v >= 0
               for table in DEFAULT_TOLERANCES.values() for v in table.values())
    for suite, name in (("jv", "d_squared"), ("jv", "cohomology_ranks"),
                        ("ps", "ps_homotopy"), ("parallel", "class_count"),
                        ("field", "gram_psd"), ("field", "unitarity_bridge"),
                        ("field", "path_independence"), ("fredholm", "fredholm_identity"),
                        ("fredholm", "homotopy_identity"), ("fredholm", "resolvent_bound"),
                        ("fredholm", "inv_sqrt_quadrature")):
        assert name in DEFAULT_TOLERANCES[suite]


# -- jv and ps: joins of the term tables against dense products ------------------


def _dense_max(m):
    return float(np.abs(m).max()) if m.size else 0.0


def dense_jv(cplx, hyperplanes=None):
    """The jv residuals from dense products, as the suite once computed them;
    ``hyperplanes`` caps the wedge and hook pairs, as it once did at 6."""
    dim = cplx.dimension
    res = dict.fromkeys(DEFAULT_TOLERANCES["jv"], 0.0)
    for q in range(dim):
        res["d_squared"] = max(res["d_squared"],
                               _dense_max(d_matrix(cplx, q + 1) @ d_matrix(cplx, q)))
        res["delta_transpose"] = max(res["delta_transpose"],
                                     _dense_max(delta_matrix(cplx, q + 1) - d_matrix(cplx, q).T))
    w = deformation_weights(cplx, 1.0)
    for q in range(dim + 1):
        profiles = [spectral_profile(cplx, c, w) for c in cplx.cubes(q)]
        diag = np.diag([prof.q + prof.p for prof in profiles])
        res["laplacian_diagonal"] = max(res["laplacian_diagonal"],
                                        _dense_max(laplacian_matrix(cplx, q) - diag))
        expected = np.diag([prof.q_w + prof.p_w for prof in profiles])
        res["laplacian_weighted"] = max(
            res["laplacian_weighted"],
            _dense_max(laplacian_matrix(cplx, q, w) - expected) / max(1.0, _dense_max(expected)))
    n_h = min(cplx.n_hyperplanes, hyperplanes or cplx.n_hyperplanes)
    for h1, h2 in itertools.permutations(range(n_h), 2):
        for q in range(dim):
            wedges = (wedge_matrix(cplx, h1, q + 1) @ wedge_matrix(cplx, h2, q)
                      + wedge_matrix(cplx, h2, q + 1) @ wedge_matrix(cplx, h1, q))
            hooks = hook_matrix(cplx, h1, q + 1) @ wedge_matrix(cplx, h2, q)
            if q:
                hooks = hooks + wedge_matrix(cplx, h2, q - 1) @ hook_matrix(cplx, h1, q)
            res["wedge_hook_antisymmetry"] = max(
                res["wedge_hook_antisymmetry"], _dense_max(wedges), _dense_max(hooks))
    res["cohomology_ranks"] = sum(
        abs(a - b) for a, b in zip(cohomology_ranks(cplx), (1,) + (0,) * dim))
    return res


def dense_ps(cplx):
    """The ps residuals from dense products, as the suite once computed them."""
    dim = cplx.dimension
    res = dict.fromkeys(DEFAULT_TOLERANCES["ps"], 0.0)

    def hmat(q):
        labels = np.maximum(ps_type_of_index(cplx, q) + q, 1).astype(np.float64)
        return ps_delta_matrix(cplx, q).astype(np.float64) / labels[None, :]

    for q in range(dim + 1):
        d, delta = ps_d_matrix(cplx, q), ps_delta_matrix(cplx, q + 1)
        labels = ps_type_of_index(cplx, q) + q
        for name, m in (("ps_d_squared", ps_d_matrix(cplx, q + 1) @ d),
                        ("ps_delta_squared", ps_delta_matrix(cplx, q) @ delta),
                        ("ps_delta_transpose", delta - d.T),
                        ("ps_laplacian_scalar", ps_laplacian(cplx, q) - np.diag(labels))):
            res[name] = max(res[name], _dense_max(m))
        total = np.zeros((len(labels), len(labels)))
        total += hmat(q + 1) @ d
        total += ps_d_matrix(cplx, q - 1) @ hmat(q)
        res["ps_homotopy"] = max(res["ps_homotopy"],
                                 _dense_max(total - np.diag((labels > 0).astype(np.float64))))
    res["ps_cohomology_ranks"] = sum(
        abs(a - b) for a, b in zip(ps_cohomology_ranks(cplx), (1,) + (0,) * dim))
    res["ps_dimension_count"] = abs(
        sum(len(ps_basis(cplx, q)) for q in range(dim + 1))
        - sum(2 ** len(klass.determining) for klass in enumerate_classes(cplx)))
    return res


DENSE = {"jv": dense_jv, "ps": dense_ps}
SVD_RANKS = {"jv": cohomology_ranks, "ps": ps_cohomology_ranks}
FLOAT_CHECKS = ("laplacian_weighted", "ps_homotopy")


def joined(cplx, suite):
    """The suite's residuals, and the Hodge ranks it took without an SVD."""
    hodge, seen = cli._hodge_ranks, []

    def recorded(diagonals):
        seen.append(hodge(diagonals))
        return seen[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_hodge_ranks", recorded)
        residuals, counts = cli._SUITES[suite](cplx, None)
    assert counts == {}
    return residuals, seen


def assert_joins_match_dense(cplx, suite, **dense_args):
    got, hodge = joined(cplx, suite)
    want = DENSE[suite](cplx, **dense_args)
    assert set(got) == set(want) == set(DEFAULT_TOLERANCES[suite])
    for name, value in want.items():
        if name in FLOAT_CHECKS:
            assert abs(got[name] - value) <= 1e-14, name
        else:
            assert got[name] == value, name
    # with the identities exact, the Hodge zero counts are the SVD ranks
    assert hodge in ([], [SVD_RANKS[suite](cplx)])
    return got, hodge


@pytest.mark.parametrize("suite", ("jv", "ps"))
@pytest.mark.parametrize("name", helpers.FIXTURE_NAMES + helpers.MORE_FIXTURE_NAMES)
def test_joins_match_dense_products(name, suite):
    got, hodge = assert_joins_match_dense(helpers.fixture(name), suite)
    assert not any(got.values())
    assert len(hodge) == 1


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 6), k=st.integers(1, 6), seed=st.integers(0, 1 << 16))
def test_joins_match_dense_products_hypothesis(n, k, seed):
    cplx = random_median_complex(n, k, seed)
    for suite in ("jv", "ps"):
        assert len(assert_joins_match_dense(cplx, suite)[1]) == 1


@pytest.mark.parametrize("q, raising", ((0, True), (1, True), (1, False), (2, False)))
@pytest.mark.parametrize("suite", ("jv", "ps"))
@pytest.mark.parametrize("name", ("cube3", "grid12"))
def test_a_negated_term_shows(name, suite, q, raising, monkeypatch):
    cplx = helpers.fixture(name)
    module, table = (differential, "term_table") if suite == "jv" else (symbols, "ps_term_table")
    size = len(getattr(module, table)(cplx, q, raising))
    assert size
    for row in sorted({0, size // 2, size - 1}):
        with monkeypatch.context() as mp:
            negate_one_term(mp, module, table, q, raising, row)
            got, hodge = assert_joins_match_dense(cplx, suite)
        assert hodge == []  # a broken identity falls back to the SVD
        # delta and d^T now differ in that entry, and the diagonal of L
        # at the source reads one less than q + p
        prefix = "" if suite == "jv" else "ps_"
        assert got[prefix + "delta_transpose"] == 2
        assert got["laplacian_diagonal" if suite == "jv" else "ps_laplacian_scalar"] > 0


@pytest.mark.parametrize("q, raising", ((1, True), (2, False)))
def test_a_negated_term_on_a_late_hyperplane_shows(q, raising, monkeypatch):
    # the dense suite once looked at the wedge and hook pairs of the first
    # six hyperplanes only, and missed a wedge or hook term on the seventh
    cplx = grid_complex([5, 4])
    assert cplx.n_hyperplanes >= 8
    terms = term_table(cplx, q, raising)
    row = int(np.flatnonzero(terms[:, 2] >= 6)[0])
    negate_one_term(monkeypatch, differential, "term_table", q, raising, row)
    got, _ = assert_joins_match_dense(cplx, "jv")
    assert got["wedge_hook_antisymmetry"] == 2
    assert dense_jv(cplx, hyperplanes=6)["wedge_hook_antisymmetry"] == 0


def tuple_entries(shared) -> list:
    """The entries of the tuple model in a ``_shared`` cache: cube tuples
    and their index, class tuples and their index, per-class member bits."""
    return [key for key in shared
            if key in ("parallel_classes", "parallel_class_index")
            or isinstance(key, tuple) and key[0] in ("cubes", "cube_index", "member_bits")]


def test_no_check_suite_makes_cube_tuples_or_class_tuples(grid_file, monkeypatch, capsys):
    # every suite reads only the cube rows and the class rows
    loaded, load = [], cli._load_complex
    monkeypatch.setattr(cli, "_load_complex", lambda *a: loaded.append(load(*a)) or loaded[-1])
    for suite in DEFAULT_TOLERANCES:
        code, _ = run(["check", suite, "--input", grid_file], capsys)
        assert code == 0
        assert not tuple_entries(loaded[-1]._shared)


def test_check_field_and_ps_make_no_cube_tuples_or_class_tuples(grid_file, monkeypatch, capsys):
    # both read the classes as rows (``class_rows`` and the stacked groups)
    loaded, load = [], cli._load_complex
    monkeypatch.setattr(cli, "_load_complex", lambda *a: loaded.append(load(*a)) or loaded[-1])
    for suite in ("field", "ps"):
        code, _ = run(["check", suite, "--input", grid_file], capsys)
        assert code == 0
        shared = loaded[-1]._shared
        assert any(isinstance(key, tuple) and key[0] == "class_rows" for key in shared)
        assert not tuple_entries(shared)


def test_sweep_makes_no_cube_tuples_class_tuples_or_pair_symbols(tmp_path, monkeypatch, capsys):
    # keys, canonical vertices and the pairing table come from the rows
    doc = tmp_path / "g332.cxc"
    doc.write_text(write_cxc(grid_complex([3, 3, 2])))
    loaded, load = [], cli._load_complex
    monkeypatch.setattr(cli, "_load_complex", lambda *a: loaded.append(load(*a)) or loaded[-1])
    keys = [key for q in (0, 1, 2) for key in symbols.basis_keys(grid_complex([3, 3, 2]), q)]
    for select in ([], [arg for key in keys[::7] for arg in ("--select", key)]):
        code, _ = run(["sweep", "--input", str(doc), *select], capsys)
        assert code == 0
        shared = loaded[-1]._shared
        assert not tuple_entries(shared)
        assert "pair_symbol" not in shared


def test_check_jv_and_ps_form_no_dense_operator(tmp_path, monkeypatch, capsys):
    paths = []
    for name in helpers.FIXTURE_NAMES + helpers.MORE_FIXTURE_NAMES:
        cplx = helpers.fixture(name)
        if cplx.n_hyperplanes:
            paths.append(tmp_path / ("%s.cxc" % name))
            paths[-1].write_text(write_cxc(cplx))
    for module, name in ((differential, "_matrix"), (symbols, "_symbol_matrix"),
                         (cli, "cohomology_ranks"), (cli, "ps_cohomology_ranks")):
        monkeypatch.setattr(module, name, _no_dense)
    for name in ("eigh", "eigvalsh", "svd", "solve", "norm", "matrix_rank"):
        monkeypatch.setattr(np.linalg, name, _no_dense)
    for path in paths:
        for suite in ("jv", "ps"):
            code, out = run(["check", suite, "--input", str(path)], capsys)
            assert code == 0
            assert json.loads(out)["pass"] is True


# -- fredholm: joins of the graded listing against the dense suite ---------------


def dense_fredholm(cplx):
    """The fredholm residuals from dense operators, as the suite once computed them."""
    d_full = assemble_D(cplx)
    base = cplx.vertex_index(cplx.base_vertex)
    res = {"d_symmetric": _dense_max(d_full - d_full.T),
           "projection_commutes": max(_dense_max(d_full[:, base]), _dense_max(d_full[base])),
           "fredholm_identity": 0.0, "homotopy_identity": 0.0, "resolvent_bound": 0.0}
    for t in (0.1, 1.0, float("inf")):
        frame = helpers.dense_frame(cplx, t, weighted=True)
        for name, defect in (("fredholm_identity", frame.fredholm_defect()),
                             ("homotopy_identity", frame.homotopy_defect())):
            res[name] = max(res[name], helpers.norm2_bound(defect))
        for entry in frame.resolvent_bounds((0.0, 1.0, 10.0)):
            res["resolvent_bound"] = max(res["resolvent_bound"], entry["norm"] - entry["bound"])
    d_float = d_full.astype(np.float64)
    shifted = d_float @ d_float
    lam = np.diag(shifted).copy()
    shifted[base, base] += 1.0
    want = np.diag(shifted) ** -0.5
    quad = fredholm.inv_sqrt_integral(shifted)
    quad[np.diag_indices_from(quad)] -= want
    res["inv_sqrt_quadrature"] = _dense_max(quad) / want.max()
    shifted[np.diag_indices_from(shifted)] = 1.0 + lam
    inverse = np.linalg.solve(shifted, np.ones(len(lam)))
    dprime = normalized_d(cplx)
    defect = dprime @ dprime.T
    defect += dprime.T @ dprime
    defect[np.diag_indices_from(defect)] -= 1.0 - inverse
    res["normalized_d_identity"] = helpers.norm2_bound(defect)
    return res


def joined_fredholm(cplx):
    """The residuals of ``check fredholm`` at its default t grid."""
    residuals, counts = cli._SUITES["fredholm"](cplx, argparse.Namespace(t_grid=None))
    assert counts == {}
    return residuals


def _outcome(suite, cplx):
    """A suite's residuals, or the error it stops on."""
    try:
        return suite(cplx)
    except ValueError as exc:
        return exc


def assert_fredholm_joins_match_dense(cplx):
    """The joined suite against ``dense_fredholm``: the same seven residuals
    within 1e-14 and the same pass flags, or the same error."""
    got = _outcome(joined_fredholm, cplx)
    want = _outcome(dense_fredholm, cplx)
    if isinstance(want, ValueError):
        assert type(got) is type(want) and str(got) == str(want)
        return got
    assert list(got) == list(want) == list(DEFAULT_TOLERANCES["fredholm"])
    for name, threshold in DEFAULT_TOLERANCES["fredholm"].items():
        assert abs(got[name] - want[name]) <= 1e-14, name
        assert (got[name] <= threshold) == (want[name] <= threshold), name
    # the same integral of the same P + D^2: bit for bit
    assert got["inv_sqrt_quadrature"] == want["inv_sqrt_quadrature"]
    return got


@pytest.mark.parametrize("name", helpers.FIXTURE_NAMES + helpers.MORE_FIXTURE_NAMES)
def test_fredholm_joins_match_the_dense_suite(name):
    got = assert_fredholm_joins_match_dense(helpers.fixture(name))
    assert got["d_symmetric"] == got["projection_commutes"] == got["resolvent_bound"] == 0.0


@settings(max_examples=15, deadline=None)
@given(n=st.integers(1, 6), k=st.integers(1, 6), seed=st.integers(0, 1 << 16))
def test_fredholm_joins_match_the_dense_suite_hypothesis(n, k, seed):
    assert_fredholm_joins_match_dense(random_median_complex(n, k, seed))


@pytest.mark.parametrize("q, raising", ((0, True), (1, True), (1, False), (2, False)))
@pytest.mark.parametrize("name", ("cube3", "grid12"))
def test_a_negated_term_shows_in_fredholm(name, q, raising, monkeypatch):
    # S = d + delta is no longer symmetric.  Its weighted frames match the
    # dense frames, off-diagonal mass in G and every defect entry included.
    # Then the Gershgorin discs of G reach zero, or P + D^2 is no longer at
    # least the identity, and the joined suite stops where the dense one does
    cplx = helpers.fixture(name)
    size = len(term_table(cplx, q, raising))
    for row in sorted({0, size // 2, size - 1}):
        with monkeypatch.context() as mp:
            negate_one_term(mp, differential, "term_table", q, raising, row)
            for t in (0.1, 1.0, float("inf")):
                frame = fredholm.spectral_frame(cplx, t, weighted=True)
                assert frame.skew.max() >= 2.0  # twice a weight, each at least 1
                helpers.assert_frames_agree(frame, helpers.dense_frame(cplx, t, weighted=True))
            with np.errstate(invalid="ignore"):  # P + D^2 has negative entries
                got = assert_fredholm_joins_match_dense(cplx)
        assert isinstance(got, ValueError)


def test_a_negated_term_is_a_numerical_breakdown_of_check_fredholm(tmp_path, monkeypatch,
                                                                    capsys):
    # the resolvent and quadrature guards raise LinAlgError: exit 3 with one
    # stderr line, no traceback and no report
    path = tmp_path / "cube3.cxc"
    path.write_text(write_cxc(helpers.fixture("cube3")))
    negate_one_term(monkeypatch, differential, "term_table", 1, True, 0)
    code = main(["check", "fredholm", "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("check fredholm: numerical breakdown: ")


# -- field: class-pair blocks of the term tables -----------------------------------


def test_check_field_forms_no_dense_operator(tmp_path, monkeypatch, capsys):
    # d_t and delta_t are class-pair blocks sliced from the term tables: no
    # dense d or delta is scattered, and every report passes
    paths = []
    for name in helpers.FIXTURE_NAMES + helpers.MORE_FIXTURE_NAMES:
        cplx = helpers.fixture(name)
        if cplx.n_hyperplanes:
            paths.append(tmp_path / ("%s.cxc" % name))
            paths[-1].write_text(write_cxc(cplx))
    for name in ("_matrix", "d_matrix"):
        monkeypatch.setattr(differential, name, _no_dense)
    assert not hasattr(cli, "d_matrix") and not hasattr(cli, "delta_matrix")
    for path in paths:
        for t in ([], ["--t", "0.5,inf"]):
            code, out = run(["check", "field", "--input", str(path), *t], capsys)
            assert code == 0
            assert json.loads(out)["pass"] is True


@pytest.mark.parametrize("q, raising", ((0, True), (1, True), (1, False), (2, False)))
@pytest.mark.parametrize("name", ("cube3", "grid12"))
def test_a_negated_term_shows_in_field(name, q, raising, tmp_path, monkeypatch, capsys):
    # one sign flipped in a copy of a cached term table: d_t squares to
    # something, or d_t and delta_t stop being adjoint under the Gram blocks
    path = tmp_path / ("%s.cxc" % name)
    path.write_text(write_cxc(helpers.fixture(name)))
    size = len(term_table(helpers.fixture(name), q, raising))
    for row in sorted({0, size // 2, size - 1}):
        with monkeypatch.context() as mp:
            negate_one_term(mp, differential, "term_table", q, raising, row)
            code, out = run(["check", "field", "--input", str(path)], capsys)
        checks = {c["name"]: c for c in json.loads(out)["checks"]}
        assert code == 1
        assert not checks["d_t_squared"]["pass"] or not checks["d_t_adjoint"]["pass"]
        assert checks["d_t_adjoint"]["residual"] > 0.1  # delta is no longer d^T
        if (q, raising) == (1, True):  # every term of d_1 lies on a path of d_1 d_0
            assert checks["d_t_squared"]["residual"] > 0.1
        for other in ("gram_psd", "unitarity_bridge", "path_independence", "w_hat_unitary"):
            assert checks[other]["pass"]


# -- field: the stacked t grid against the suite one t at a time ---------------------


FIELD_GRIDS = (None, (1e-6, 0.3, float("inf")), (0.05, 5.0))


def _assert_field_matches_oracle(cplx):
    # frames and pair blocks stacked over the t's of a pass and the segment
    # sums, bit for bit against the suite built one t at a time; the
    # relations of path_independence within 1e-15 of whole-class products
    for grid in FIELD_GRIDS:
        got, _ = cli._suite_field(cplx, argparse.Namespace(t_grid=grid))
        want = helpers.oracle_field_residuals(cplx, grid)
        assert abs(got.pop("path_independence") - want.pop("path_independence")) <= 1e-15, grid
        assert got == want, grid


@pytest.mark.parametrize("name", [n for n in helpers.FIXTURE_NAMES + helpers.MORE_FIXTURE_NAMES
                                  + helpers.WIDE_FIXTURE_NAMES if n != "point"])
def test_check_field_matches_the_per_t_oracle_on_fixtures(name):
    _assert_field_matches_oracle(helpers.fixture(name))


@pytest.mark.parametrize("make", (lambda: hypercube(5), lambda: grid_complex([3, 3, 2]),
                                  lambda: star_tree(70), lambda: random_median_complex(12, 8, 3)),
                         ids=("cube5", "grid332", "star70", "rm12"))
def test_check_field_matches_the_per_t_oracle(make):
    _assert_field_matches_oracle(make())


@settings(max_examples=15, deadline=None)
@given(n=st.integers(2, 7), k=st.integers(2, 6), seed=st.integers(0, 1 << 16))
def test_check_field_matches_the_per_t_oracle_hypothesis(n, k, seed):
    _assert_field_matches_oracle(random_median_complex(n, k, seed))


@pytest.mark.parametrize("per_pass", (None, 1, 2, 3))
def test_check_field_passes_split_the_grid(per_pass, monkeypatch):
    # a _CHUNK that holds one, two or three t of the largest array per pass
    # (None: one float, so every batch of products holds one product too)
    cplx = grid_complex([3, 3, 2])
    per_t = max(deformation.block_floats(cplx, q) for q in range(cplx.dimension + 1))
    monkeypatch.setattr(cli, "_CHUNK", per_pass * per_t if per_pass else 1)
    _assert_field_matches_oracle(cplx)


# -- sweep -------------------------------------------------------------------------


@pytest.fixture(scope="module")
def square_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli-sweep") / "sq.cxc"
    path.write_text(write_cxc(hypercube(2)))
    return str(path)


def test_sweep_shape(square_file, capsys):
    code, out = run(["sweep", "--input", square_file, "--t", "1.0,0.1"], capsys)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["t", "row_key", "col_key", "value"]
    body = rows[1:]
    # same-degree pairs: 16 + 16 + 1 per t value, limit rows first
    assert len(body) == 33 * 3
    assert all(r[0] == "0.0" for r in body[:33])
    ts = [r[0] for r in body]
    assert ts == ["0.0"] * 33 + ["0.1"] * 33 + ["1.0"] * 33
    for r in body:
        float(r[3])  # every value parses
    # diagonal limit entries are the symbol norms
    diag = [r for r in body[:33] if r[1] == r[2]]
    assert len(diag) == 9
    assert all(r[3] == "1.0" for r in diag)


def test_sweep_inf_rows(square_file, capsys):
    code, out = run(["sweep", "--input", square_file, "--t", "inf"], capsys)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert [r[0] for r in rows] == ["0.0"] * 33 + ["inf"] * 33


def test_sweep_select(square_file, capsys):
    code, out = run(
        ["sweep", "--input", square_file, "--t", "1.0",
         "--select", "[+|+|r=00]", "--select", "[+|h0|r=00]"], capsys)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))[1:]
    # cross-degree pairs are skipped, so each key pairs only with itself
    assert len(rows) == 4
    assert {(r[1], r[2]) for r in rows} == {
        ("[+|+|r=00]", "[+|+|r=00]"), ("[+|h0|r=00]", "[+|h0|r=00]")}


def test_sweep_empty_select(square_file, capsys):
    code, out = run(["sweep", "--input", square_file, "--select", ""], capsys)
    assert code == 0
    assert out == "t,row_key,col_key,value\n"


def test_sweep_unknown_key(square_file):
    usage_error(["sweep", "--input", square_file, "--select", "[h9|+|r=00]"])


# -- sweep --select: the keys read alone, against the whole basis written ------------


def select_sweep(doc, keys, monkeypatch, oracle=False):
    """Exit code, stdout and stderr of ``sweep --select`` with ``keys`` in
    order, the symbols resolved by ``symbols.select_symbols`` or, with
    ``oracle``, by ``helpers.oracle_select_symbols``."""
    argv = ["sweep", "--input", str(doc), "--t", "0.5,inf", *("--select=" + key for key in keys)]
    out, err = io.StringIO(), io.StringIO()
    with monkeypatch.context() as mp, contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        if oracle:
            mp.setattr(cli, "select_symbols", helpers.oracle_select_symbols)
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def assert_select_matches_the_oracle(cplx, keys, directory, monkeypatch):
    """``sweep --select`` with ``keys`` gives the oracle path's exit code,
    stdout and stderr byte for byte; returns them."""
    doc = directory / "in.cxc"
    doc.write_text(write_cxc(cplx))
    got = select_sweep(doc, keys, monkeypatch)
    assert got == select_sweep(doc, keys, monkeypatch, oracle=True)
    return got


def every_key(cplx):
    return [key for q in range(cplx.dimension + 1) for key in symbols.basis_keys(cplx, q)]


def some_keys(cplx, seed):
    """About half the basis keys of ``cplx``, shuffled, drawn with ``seed``."""
    draw = random.Random(seed)
    keys = [key for key in every_key(cplx) if draw.random() < 0.5]
    draw.shuffle(keys)
    return keys


def test_select_order_duplicates_and_empty_keys(tmp_path, monkeypatch):
    cplx = helpers.fixture("grid22")
    keys = every_key(cplx)[::3]
    mixed = keys * 2 + ["", ""]
    random.Random(5).shuffle(mixed)
    code, out, err = assert_select_matches_the_oracle(cplx, mixed, tmp_path, monkeypatch)
    assert code == 0 and not err
    assert (code, out, err) == assert_select_matches_the_oracle(cplx, keys, tmp_path,
                                                                monkeypatch)
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert {row[1] for row in rows} == set(keys)


@pytest.mark.parametrize("name", helpers.FIXTURE_NAMES + helpers.MORE_FIXTURE_NAMES
                         + helpers.WIDE_FIXTURE_NAMES)
def test_select_symbols_matches_the_oracle_rows(name):
    cplx = helpers.fixture(name)
    for seed in range(3):
        keys = some_keys(cplx, seed)
        got, want = symbols.select_symbols(cplx, keys), helpers.oracle_select_symbols(cplx, keys)
        assert got[0] == want[0]
        for a, b in zip(got[1:], want[1:]):
            assert a.dtype == b.dtype and np.array_equal(a, b)


# the point has no document: no hyperplanes to write
@pytest.mark.parametrize("name", [n for n in helpers.FIXTURE_NAMES + helpers.MORE_FIXTURE_NAMES
                                  if n != "point"])
def test_select_matches_the_oracle_on_the_fixtures(name, tmp_path, monkeypatch):
    cplx = helpers.fixture(name)
    keys = some_keys(cplx, name) or every_key(cplx)
    code, out, _ = assert_select_matches_the_oracle(cplx, keys, tmp_path, monkeypatch)
    assert code == 0 and out.count("\n") > 1


def test_select_matches_the_oracle_on_wide_vertices(tmp_path, monkeypatch):
    # 70 hyperplanes: vertex strings and keys wider than 64 bits
    cplx = star_tree(70)
    code, _, _ = assert_select_matches_the_oracle(cplx, some_keys(cplx, 70), tmp_path,
                                                  monkeypatch)
    assert code == 0


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(n=st.integers(1, 7), k=st.integers(2, 6), seed=st.integers(0, 1 << 16),
       pick=st.integers(0, 1 << 16))
def test_select_matches_the_oracle_hypothesis(n, k, seed, pick, tmp_path_factory, monkeypatch):
    cplx = random_median_complex(n, k, seed)
    assume(cplx.n_hyperplanes > 0)
    code, _, _ = assert_select_matches_the_oracle(
        cplx, some_keys(cplx, pick), tmp_path_factory.mktemp("select"), monkeypatch)
    assert code == 0


def _bad_keys():
    """Keys that name no symbol of the 2x2 grid, by kind."""
    cplx, path = helpers.fixture("grid22"), helpers.fixture("path4")
    keys = every_key(cplx)
    pair = next(key for key in keys if key.startswith("[h0,h2|+|"))
    single = next(key for key in keys if key.startswith("[h1|+|"))
    vertex = pair[-5:-1]
    return {
        "unsorted h": pair.replace("h0,h2", "h2,h0"),
        "h and k overlap": pair.replace("|+|", "|h0|"),
        "wrong vertex": pair.replace(vertex, "1111"),
        "vertex too long": pair.replace(vertex, vertex + "0"),
        "vertex too short": pair.replace(vertex, vertex[:-1]),
        "h01": single.replace("h1", "h01"),
        "hyperplane out of range": single.replace("h1", "h4"),
        "another complex": next(key for key in every_key(path) if key not in keys),
        "garbage": "not a key",
        "unclosed": pair[:-1],
        "huge number": "[h%s|+|r=0000]" % ("9" * 5000),
    }


@pytest.mark.parametrize("kind", sorted(_bad_keys()))
def test_select_unknown_key_is_a_usage_error(kind, tmp_path, monkeypatch):
    # the first key in argv order that names no symbol, as the oracle names it
    cplx = helpers.fixture("grid22")
    bad = _bad_keys()[kind]
    assert bad not in every_key(cplx)
    keys = [every_key(cplx)[1], "", bad, "[h9|+|r=0000]", every_key(cplx)[0]]
    code, out, err = assert_select_matches_the_oracle(cplx, keys, tmp_path, monkeypatch)
    assert code == 2 and out == ""
    assert err.startswith("usage: cubedeform sweep")
    assert err.endswith("error: unknown symbol key %r\n" % bad)


def test_select_writes_no_basis_key(tmp_path, monkeypatch):
    # --select resolves its keys without the whole-basis pass
    def refuse(*args):
        raise AssertionError("the basis was written")

    cplx = grid_complex([3, 3, 2])
    keys = some_keys(cplx, 1)
    doc = tmp_path / "g332.cxc"
    doc.write_text(write_cxc(cplx))
    want = select_sweep(doc, keys, monkeypatch, oracle=True)
    for module in (symbols, cli):
        for name in ("basis_keys", "symbol_arrays", "symbol_vertices"):
            monkeypatch.setattr(module, name, refuse)
    assert select_sweep(doc, keys, monkeypatch) == want
    assert want[0] == 0


def test_sweep_deterministic(square_file, capsys):
    argv = ["sweep", "--input", square_file, "--t", "0.5"]
    _, first = run(argv, capsys)
    _, second = run(argv, capsys)
    assert first == second


def test_sweep_matches_the_oracle_csv(tmp_path, capsys):
    # every row is bit for bit the uncached pairing evaluation
    cplx = helpers.fixture("cube3")
    path = tmp_path / "c3.cxc"
    path.write_text(write_cxc(cplx))
    code, out = run(["sweep", "--input", str(path), "--t", "0.001,0.1,1,inf"], capsys)
    assert code == 0
    assert out == helpers.oracle_sweep_csv(cplx, (0.001, 0.1, 1.0, float("inf")))


def test_sweep_out_file(square_file, tmp_path, capsys):
    target = tmp_path / "sweep.csv"
    code, out = run(
        ["sweep", "--input", square_file, "--t", "0.5", "--out", str(target)],
        capsys)
    assert code == 0 and out == ""
    assert target.read_text().startswith("t,row_key,col_key,value\n")


# every row against pairing_value and pairing_limit, one pair at a time

SWEEP_T = (1e-5, 0.001, 0.1, 1.0, float("inf"))


def per_pair_sweep_csv(cplx, t_grid, keys=None):
    """The sweep CSV written row by row with ``csv.writer``, one call per pair."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["t", "row_key", "col_key", "value"])
    pairs = [(r1, r2) for r1, r2 in helpers.symbol_pairs(cplx)
             if keys is None or (r1[0] in keys and r2[0] in keys)]
    for t in [0.0] + sorted(set(t_grid)):
        for (key1, p1, o1), (key2, p2, o2) in pairs:
            if t:
                value = pairing_value(cplx, p1, o1, p2, o2, t)
            else:
                value = pairing_limit(cplx, p1, o1, p2, o2)
            writer.writerow([format_t(t), key1, key2, repr(float(value))])
    return buf.getvalue()


def sweep_stdout_and_file(cplx, directory, argv):
    """The ``sweep`` CSV of ``cplx``, checked equal on stdout and under --out."""
    doc, target = directory / "in.cxc", directory / "out.csv"
    doc.write_text(write_cxc(cplx))
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(["sweep", "--input", str(doc), *argv]) == 0
        assert main(["sweep", "--input", str(doc), *argv, "--out", str(target)]) == 0
    assert target.read_text() == buf.getvalue()
    return buf.getvalue()


def _check_sweep_per_pair(cplx, directory, select):
    grid = ["--t", ",".join(format_t(t) for t in SWEEP_T)]
    keys = None
    if select:
        every = [symbol_key(sym, cplx)
                 for q in range(cplx.dimension + 1) for sym in ps_basis(cplx, q)]
        keys = set(every[::2])
        grid += [arg for key in every[::2] for arg in ("--select", key)]
    assert sweep_stdout_and_file(cplx, directory, grid) == \
        per_pair_sweep_csv(cplx, SWEEP_T, keys)


@pytest.mark.parametrize("select", (False, True))
@pytest.mark.parametrize(
    "name", [n for n in helpers.FIXTURE_NAMES + helpers.MORE_FIXTURE_NAMES if n != "point"])
def test_sweep_matches_the_per_pair_path(name, select, tmp_path):
    _check_sweep_per_pair(helpers.fixture(name), tmp_path, select)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 6), k=st.integers(2, 5), seed=st.integers(0, 1 << 16),
       select=st.booleans())
def test_sweep_matches_the_per_pair_path_hypothesis(n, k, seed, select, tmp_path_factory):
    cplx = random_median_complex(n, k, seed)
    assume(cplx.n_hyperplanes > 0)
    _check_sweep_per_pair(cplx, tmp_path_factory.mktemp("sweep"), select)


def test_sweep_sums_each_distinct_polynomial_once_per_t(tmp_path, monkeypatch):
    # the 3x3x2 grid's 3,971 same-cutting-set pairs have 190 distinct
    # polynomials: one extended-precision sum each per finite t
    sums = collections.Counter()
    inner = deformation._pairing_at

    def counted(cplx, coeffs, power, t, dps):
        sums[power, tuple(coeffs.items()), t] += 1
        return inner(cplx, coeffs, power, t, dps)

    monkeypatch.setattr(deformation, "_pairing_at", counted)
    doc = tmp_path / "g332.cxc"
    doc.write_text(write_cxc(grid_complex([3, 3, 2])))
    code = main(["sweep", "--input", str(doc), "--t", "0.001,0.1,1,inf",
                 "--out", str(tmp_path / "g332.csv")])
    assert code == 0
    assert len(sums) == 190 * 3
    assert set(sums.values()) == {1}


# -- wiring ------------------------------------------------------------------------


@pytest.mark.parametrize("argv", (
    ["gen", "cube", "--dim", "2"],
    ["validate", "--input", "{doc}"],
    ["check", "jv", "--input", "{doc}"],
    ["sweep", "--input", "{doc}"],
))
def test_unwritable_out_is_a_usage_error_before_any_work(argv, tmp_path, capsys, monkeypatch):
    doc = tmp_path / "c2.cxc"
    doc.write_text(write_cxc(hypercube(2)))
    argv = [arg.format(doc=doc) for arg in argv]
    monkeypatch.setitem(cli._SUITES, "jv", lambda *a: pytest.fail("the suite ran"))
    target = tmp_path / "missing" / "out.txt"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(target)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    prog = " ".join(["cubedeform"] + argv[:2 if argv[0] == "gen" else 1])
    assert err.splitlines()[-1] == "%s: error: [Errno 2] No such file or directory: %r" % (
        prog, str(target))
    assert not target.parent.exists()


@pytest.fixture
def usage_docs(tmp_path):
    """Paths for usage-error argv: a document, one not UTF-8, one UTF-8 but
    no cxc document, and an --out whose directory is missing."""
    doc = tmp_path / "c2.cxc"
    doc.write_text(write_cxc(hypercube(2)))
    bad = tmp_path / "bad.cxc"
    bad.write_bytes(b"\xff\xfe\x00garbage")
    broken = tmp_path / "broken.cxc"
    broken.write_text("cxc 2\n")
    return {"doc": doc, "bad": bad, "broken": broken, "missing": tmp_path / "no" / "out.txt"}


@pytest.mark.parametrize("argv, usage", (
    (["check", "jv", "--input", "{doc}", "--tol", "gram_psd=1"], "cubedeform check"),
    (["check", "field", "--input", "{doc}", "--t", "0,1"], "cubedeform check"),
    (["check", "field", "--input", "{doc}", "--seed=1"], "cubedeform check"),
    (["check", "jv", "--input", "{doc}.missing"], "cubedeform check"),
    (["sweep", "--input", "{doc}", "--t", "0,1"], "cubedeform sweep"),
    (["validate", "--input", "{doc}.missing"], "cubedeform validate"),
    (["gen", "grid", "--dims", "2x0"], "cubedeform gen grid"),
    (["gen", "tree", "--leaves", "3", "--seed", "9"], "cubedeform gen tree"),
    (["validate", "--input", "{bad}"], "cubedeform validate"),
    (["check", "jv", "--input", "{bad}"], "cubedeform check"),
    (["sweep", "--input", "{bad}"], "cubedeform sweep"),
))
def test_usage_errors_name_the_subcommand(argv, usage, usage_docs, capsys):
    with pytest.raises(SystemExit) as exc:
        main([arg.format(**usage_docs) for arg in argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith("usage: %s [-h]" % usage)
    assert err[-1].startswith("%s: error: " % usage)


@pytest.mark.parametrize("argv", (
    ["validate", "--input", "{doc}.missing"],
    ["validate", "--input", "{bad}"],
    ["check", "jv", "--input", "{doc}.missing"],
    ["check", "jv", "--input", "{bad}"],
    ["check", "jv", "--input", "{broken}"],
    ["check", "jv", "--input", "{doc}", "--tol", "gram_psd=1"],
    ["sweep", "--input", "{doc}.missing"],
    ["sweep", "--input", "{broken}"],
    ["sweep", "--input", "{doc}", "--select", "[h0|+|r=0]"],
))
def test_usage_errors_leave_an_existing_out_file(argv, usage_docs, tmp_path, capsys):
    # --out is opened only once the input is read, parsed and checked
    out = tmp_path / "out.txt"
    out.write_text("keep\n")
    with pytest.raises(SystemExit) as exc:
        main([arg.format(**usage_docs) for arg in argv] + ["--out", str(out)])
    assert exc.value.code == 2
    assert out.read_text() == "keep\n"


FUZZ_BASE = write_cxc(grid_complex([2, 1])).encode()
FUZZ_EDIT = st.one_of(
    # a byte replaced, inserted or deleted: any byte, so not always UTF-8
    st.tuples(st.sampled_from(("replace", "insert", "delete")),
              st.integers(0, len(FUZZ_BASE)), st.binary(min_size=1, max_size=1)),
    st.tuples(st.just("insert"), st.integers(0, len(FUZZ_BASE)),
              st.text(min_size=1, max_size=3).map(str.encode)),
)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edits=st.lists(FUZZ_EDIT, max_size=4))
def test_mutated_documents_exit_cleanly(edits, tmp_path):
    # every input gives a report, a failure or a clean error: exit 0-3, and
    # nothing but SystemExit leaves main
    data = bytearray(FUZZ_BASE)
    for op, at, part in edits:
        at = min(at, len(data))
        if op == "insert":
            data[at:at] = part
        elif op == "replace":
            data[at:at + 1] = part
        else:
            del data[at:at + 1]
    doc = tmp_path / "fuzz.cxc"
    doc.write_bytes(bytes(data))
    for argv in (["validate", "--input", str(doc)], ["check", "jv", "--input", str(doc)]):
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 1, 2, 3), (argv, bytes(data))


@pytest.fixture(scope="module")
def modules_after_every_command(grid_file, tmp_path_factory):
    """``sys.modules`` of a fresh process after ``main`` ran every command."""
    out = tmp_path_factory.mktemp("modules")
    commands = [["gen", "grid", "--dims", "3x3x2", "--out", str(out / "g.cxc")],
                ["validate", "--input", grid_file],
                *(["check", suite, "--input", grid_file] for suite in DEFAULT_TOLERANCES),
                ["sweep", "--input", grid_file, "--out", str(out / "sweep.csv")]]
    script = (
        "import contextlib, io, sys\n"
        "from cubedeform.cli import main\n"
        "for argv in %r:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(argv) == 0, argv\n"
        "print(sorted(sys.modules))\n" % commands)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout)


def test_no_command_imports_numpy_ma(modules_after_every_command):
    # numpy.ma costs about 10 ms per process to import; plain np.unique loads it
    probe = "import sys, numpy; print('numpy.ma' in sys.modules)"
    if subprocess.run([sys.executable, "-c", probe], capture_output=True,
                      text=True, check=True).stdout.strip() == "True":
        pytest.skip("importing numpy alone loads numpy.ma")
    assert [m for m in modules_after_every_command if m.split(".")[:2] == ["numpy", "ma"]] == []


def test_no_command_imports_numpy_polynomial(modules_after_every_command):
    # numpy.polynomial costs about 2.5 ms per process to import; the
    # quadrature of check fredholm needs no Gauss-Legendre rule from it
    assert [m for m in modules_after_every_command
            if m.split(".")[:2] == ["numpy", "polynomial"]] == []


USAGE_ERRORS = (
    ["gen", "grid", "--dims", "2x0"],
    ["gen", "grid", "--dims", "x"],
    ["gen", "cube", "--dim", "0"],
    ["gen", "random-median", "--n", "1", "--k", "1"],
    ["gen", "tree", "--leaves", "3", "--seed", "9"],
    ["gen", "cube", "--dim", "2", "--out", "{missing}"],
    ["validate", "--input", "/nonexistent/nope.cxc"],
    ["validate", "--input", "{doc}.missing"],
    ["validate", "--input", "{bad}"],
    ["validate", "--input", "{doc}", "--out", "{missing}"],
    *(["check", suite, "--input", "{doc}", "--tol", "%s=1" % next(iter(names))]
      for suite in DEFAULT_TOLERANCES for other, names in DEFAULT_TOLERANCES.items()
      if other != suite),
    *(["check", "jv", "--input", "{doc}", "--tol", "d_squared=" + value]
      for value in ("nan", "NaN", "-nan")),
    *(["check", "field", "--input", "{doc}", "--seed", seed] for seed in ("7", "-1", "abc", "1.5")),
    ["check", "field", "--input", "{doc}", "--seed=1"],
    ["check", "jv", "--input", "{doc}", "--tol", "nosuch=1"],
    ["check", "jv", "--input", "{doc}", "--tol", "d_squared"],
    ["check", "jv", "--input", "{doc}", "--tol", "d_squared=abc"],
    ["check", "field", "--input", "{doc}", "--t", "0"],
    ["check", "field", "--input", "{doc}", "--t", "abc"],
    ["check", "field", "--input", "{doc}", "--t", "0,1"],
    ["check", "nosuchsuite", "--input", "{doc}"],
    ["check", "jv", "--input", "/nonexistent/nope.cxc"],
    ["check", "jv", "--input", "{bad}"],
    ["check", "jv", "--input", "{broken}"],
    ["check", "jv", "--input", "{doc}", "--out", "{missing}"],
    ["sweep", "--input", "{doc}", "--select", "[h9|+|r=00]"],
    ["sweep", "--input", "{doc}", "--select", "[h0|+|r=0]"],
    ["sweep", "--input", "{doc}", "--t", "0,1"],
    ["sweep", "--input", "{doc}.missing"],
    ["sweep", "--input", "{bad}"],
    ["sweep", "--input", "{broken}"],
    ["sweep", "--input", "{doc}", "--out", "{missing}"],
    [],
    ["frobnicate"],
)
HELP = (["-h"], ["gen", "-h"], ["validate", "-h"], ["check", "-h"], ["sweep", "-h"],
        *(["gen", kind, "-h"] for kind in ("tree", "grid", "cube", "random-median")))


@pytest.mark.parametrize("argv", USAGE_ERRORS + HELP, ids=" ".join)
def test_one_subparser_answers_as_the_full_parser(argv, usage_docs, monkeypatch):
    # main builds only the subparser its command word names: every usage
    # error and help text is the full parser's, stdout, stderr and exit code
    argv = [arg.format(**usage_docs) for arg in argv]
    monkeypatch.setitem(cli._SUITES, "jv", lambda *a: pytest.fail("the suite ran"))
    monkeypatch.setitem(cli._SUITES, "field", lambda *a: pytest.fail("the suite ran"))

    def outcome():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with pytest.raises(SystemExit) as exc:
                main(argv)
        return exc.value.code, out.getvalue(), err.getvalue()

    got = outcome()
    full = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command=None: full())
    assert got == outcome()
    assert got[0] == (0 if "-h" in argv else 2)


def test_no_command_is_usage_error():
    usage_error([])
    usage_error(["frobnicate"])


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "cubedeform.cli", "gen", "cube", "--dim", "2"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == write_cxc(hypercube(2))

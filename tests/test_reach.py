"""``src/`` is what the commands run: a call probe over every command.

The probe records every function of the package that a call reaches, with
``sys.setprofile``, while ``main`` runs each command on small documents
from ``gen``: ``validate``, the five check suites, ``sweep``, the usage
errors and the t-floor exit.  Every top-level function and method of
``src/cubedeform`` must be reached, but for two named lists:

* the fallbacks, which only a failing input reaches; the probe drives each
  of them with one, and no passing run may reach them;
* the functions the benchmark's input builder imports
  (``perfbench/workloads.py``), which no command calls.

Code that only the tests call belongs in ``tests/oracles.py``.
"""

import ast
import contextlib
import io
import sys
from pathlib import Path

import numpy as np

import cubedeform
import helpers
from cubedeform import cli, differential, symbols

SRC = Path(cubedeform.__file__).parent

FALLBACKS = {
    "differential.cohomology_ranks": "SVD ranks of d when an identity of check jv fails",
    "differential.numerical_rank": "the SVD rank behind both cohomology fallbacks",
    "differential.d_matrix": "the dense d that cohomology_ranks ranks",
    "differential._matrix": "the scatter behind d_matrix",
    "symbols.ps_cohomology_ranks": "SVD ranks of the symbol d when an identity of check ps fails",
    "symbols.ps_d_matrix": "the dense symbol d that ps_cohomology_ranks ranks",
    "symbols._symbol_matrix": "the scatter behind ps_d_matrix",
    "symbols.ps_dimension": "the degree sizes ps_cohomology_ranks reads",
    "core.CubeComplex._median_violation": "validate names the triple of a non-median document",
    "core.median_of": "the majority that validate reports for that triple",
    "fredholm.inv_sqrt_integral": "check fredholm's dense quadrature when P + D^2 has "
                                  "off-diagonal mass",
}

BENCHMARK_IMPORTS = {
    "core.CubeComplex.cubes": "perfbench/workloads.py counts the cubes of each input",
    "core.CubeComplex.n_cubes": "perfbench/workloads.py checks each drawn input's size",
    "symbols.ps_basis": "perfbench/workloads.py counts the symbols a sweep pairs",
    "symbols.symbol_key": "perfbench/workloads.py writes the --select keys of a sweep",
}


def package_defs() -> dict:
    """Every top-level function and method of the package, keyed
    ``module.name`` or ``module.Class.name``, with the (file, first line)
    of its code object: the first decorator's line, if any."""
    out = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            owner, members = "", [node]
            if isinstance(node, ast.ClassDef):
                owner, members = node.name + ".", node.body
            for fn in members:
                if isinstance(fn, ast.FunctionDef):
                    first = min([fn.lineno] + [d.lineno for d in fn.decorator_list])
                    out["%s.%s%s" % (path.stem, owner, fn.name)] = (str(path), first)
    return out


@contextlib.contextmanager
def probe(reached: set):
    """Add the (file, first line) of every package code object called."""
    src = str(SRC)

    def record(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(src):
            reached.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    old = sys.getprofile()
    sys.setprofile(record)
    try:
        yield
    finally:
        sys.setprofile(old)


def run(argv) -> int:
    """``main(argv)``'s exit code, its output thrown away."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli.main([str(arg) for arg in argv])
        except SystemExit as exc:
            return exc.code


def passing_runs(tmp_path) -> None:
    docs = []
    for i, kind in enumerate((["cube", "--dim", "3"], ["grid", "--dims", "2x2x1"],
                              ["tree", "--leaves", "6"],
                              ["random-median", "--n", "7", "--k", "5", "--seed", "3"],
                              ["random-median", "--n", "8", "--k", "6", "--seed", "1"])):
        docs.append(tmp_path / ("doc%d.cxc" % i))
        assert run(["gen", *kind, "--out", docs[-1]]) == 0
    assert run(["gen", "cube", "--dim", "2"]) == 0
    for doc in docs:
        assert run(["validate", "--input", doc]) == 0
        for suite in sorted(cli.DEFAULT_TOLERANCES):
            assert run(["check", suite, "--input", doc]) == 0
        assert run(["sweep", "--input", doc, "--out", tmp_path / "sweep.csv"]) == 0
    doc = docs[0]
    assert run(["check", "fredholm", "--input", doc, "--t", "0.5,inf",
                "--tol", "d_symmetric=1"]) == 0
    assert run(["sweep", "--input", doc, "--t", "0.5,inf", "--select", "[+|+|r=000]"]) == 0
    assert run(["check", "field", "--input", doc, "--t", "1e-7"]) == 3
    bad = tmp_path / "bad.cxc"
    bad.write_bytes(b"\xff\xfe\x00garbage")
    for argv in (["check", "jv", "--input", doc, "--tol", "gram_psd=1"],
                 ["check", "jv", "--input", doc, "--tol", "d_squared"],
                 ["check", "jv", "--input", doc, "--tol", "d_squared=x"],
                 ["check", "jv", "--input", doc, "--tol", "d_squared=nan"],
                 ["check", "field", "--input", doc, "--t", "0,1"],
                 ["check", "field", "--input", doc, "--t", "x"],
                 ["check", "jv", "--input", tmp_path / "missing.cxc"],
                 ["check", "jv", "--input", bad], ["validate", "--input", bad],
                 ["sweep", "--input", doc, "--select", "[h9|+|r=000]"],
                 ["gen", "grid", "--dims", "2x0"], ["gen", "tree", "--leaves", "0"],
                 ["gen", "random-median", "--n", "1", "--k", "1"],
                 ["validate", "--input", doc, "--out", tmp_path / "no" / "out.txt"],
                 [], ["frobnicate"]):
        assert run(argv) == 2, argv
    for text in ("cxc 2\n", "cxc 1\nhyperplanes 2\nbasepoint 00\nvertices 2\n00\n11\n"):
        bad.write_text(text)  # an unknown version, then a disconnected complex
        assert run(["validate", "--input", bad]) == 1
        assert run(["check", "jv", "--input", bad]) == 2


def failing_runs(tmp_path, monkeypatch) -> None:
    cube3 = tmp_path / "cube3.cxc"
    assert run(["gen", "cube", "--dim", "3", "--out", cube3]) == 0
    # one negated term breaks the identities: jv and ps fall back to SVD ranks
    for module, table, suite in ((differential, "term_table", "jv"),
                                 (symbols, "ps_term_table", "ps")):
        with monkeypatch.context() as mp:
            helpers.negate_one_term(mp, module, table, 1, True, 0)
            assert run(["check", suite, "--input", cube3]) == 1
    # the 3-cube less one corner: connected but not median-closed
    corners = "\n".join(format(v, "03b") for v in range(1, 8))
    holed = tmp_path / "holed.cxc"
    holed.write_text("cxc 1\nhyperplanes 3\nbasepoint 111\nvertices 7\n%s\n" % corners)
    assert run(["validate", "--input", holed]) == 1
    # symmetric off-diagonal mass in D^2 between the two top graded cubes,
    # small enough to keep P + D^2 above the identity
    join = cli.term_product

    def with_mass(a, b, n):
        keys, values, *rest = join(a, b, n)
        return (np.append(keys, [n * n - 2, n * n - n - 1]), np.append(values, [0.25, 0.25]),
                *rest)

    with monkeypatch.context() as mp:
        mp.setattr(cli, "term_product", with_mass)
        assert run(["check", "fredholm", "--input", cube3]) == 1


def test_commands_reach_every_function_of_the_package(tmp_path, monkeypatch):
    defs = package_defs()
    for name in (*FALLBACKS, *BENCHMARK_IMPORTS):
        assert name in defs, "%s is listed but not defined" % name
    passing, failing = set(), set()
    with probe(passing):
        passing_runs(tmp_path)
    with probe(failing):
        failing_runs(tmp_path, monkeypatch)
    reached = {name for name, where in defs.items() if where in passing}
    unreached = sorted(set(defs) - reached - set(FALLBACKS) - set(BENCHMARK_IMPORTS))
    assert not unreached, "no command reaches %s: move it to tests/oracles.py" % unreached
    listed = sorted(reached & {*FALLBACKS, *BENCHMARK_IMPORTS})
    assert not listed, "a passing run reaches %s: take it off its list" % listed
    missed = sorted(name for name in FALLBACKS if defs[name] not in failing)
    assert not missed, "no failing input reaches the fallbacks %s" % missed

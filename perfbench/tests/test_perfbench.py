"""Tests of the benchmark's own machinery: spans, checker and input builder."""

import hashlib
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))
ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}

import checker  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _span(i, name, start, end, parent=-1):
    return {"id": 0, "span": i, "name": name, "start": start, "end": end,
            "parent": parent, "n": 0, "flops": 0, "bytes": 0}


def test_self_times_of_nested_spans():
    s = 1_000_000_000
    tree = [
        _span(0, "cli.main", 0, 100 * s),
        _span(1, "differential.d_matrix", 10 * s, 40 * s, 0),
        _span(2, "linalg.svd", 20 * s, 30 * s, 1),
        _span(3, "fredholm.resolvent_bounds", 50 * s, 90 * s, 0),
        _span(4, "differential.d_matrix", 60 * s, 70 * s, 3),
    ]
    assert spans.self_times(tree) == [30.0, 20.0, 10.0, 30.0, 10.0]
    m = spans.layer_metrics([tree])
    assert m["cli.self_s"] == 30.0
    assert m["differential.self_s"] == 30.0
    assert m["differential.calls"] == 2
    # Inclusive time of the function counts both outermost calls.
    assert m["differential.d_matrix_s"] == 40.0
    assert sum(m[layer + ".self_s"] for layer in spans.LAYERS) == 100.0


def test_self_time_clips_children_to_the_parent():
    tree = [_span(0, "cli.main", 0, 10), _span(1, "core.parse_cxc", 5, 15, 0)]
    assert spans.self_times(tree)[0] == pytest.approx(5e-9)


def test_host_scale_is_the_reference_over_the_median_probe():
    ref = run.PROBE_REF_S
    # A host at half the reference speed for most of the run.
    fake = types.SimpleNamespace(probes=[(0.0, ref), (2.5, 2 * ref), (5.0, 2 * ref), (7.5, 8 * ref)])
    assert run.Run.scale(fake) == 0.5


SWEEP_CSV = "t,row_key,col_key,value\n0.0,[+|+|r=0],[+|+|r=0],1.0\n"
INPUT = {"name": "doc", "sha256": "ab" * 32, "vertices": 2, "hyperplanes": 1,
         "dimension": 1, "cubes": [2, 1], "ps_dims": [1, 0], "selected_per_degree": []}


def test_checker_flags_a_one_byte_change_in_a_sweep_csv():
    argv = ["sweep", "--input", "doc.cxc"]
    refs = {checker.reference_key(INPUT, argv): checker.reference_entry(argv, SWEEP_CSV)}
    assert checker.check_output(INPUT, argv, 0, None, SWEEP_CSV, refs) is None
    changed = SWEEP_CSV.replace("1.0", "1.1")
    assert len(changed) == len(SWEEP_CSV)
    assert checker.check_output(INPUT, argv, 0, None, changed, refs) is not None


def test_checker_flags_a_failing_report():
    argv = ["check", "jv", "--input", "doc.cxc"]
    report = {"schema": 1, "suite": "jv", "input": "doc.cxc", "pass": True,
              "checks": [{"name": "d_squared", "residual": 0.0, "threshold": 0.0,
                          "pass": True}]}
    text = json.dumps(report)
    refs = {checker.reference_key(INPUT, argv): checker.reference_entry(argv, text)}
    assert checker.check_output(INPUT, argv, 0, None, text, refs) is None
    failing = dict(report, **{"pass": False})
    assert checker.check_output(INPUT, argv, 1, None, json.dumps(failing), refs) is not None
    assert checker.check_output(INPUT, argv, 0, None, json.dumps(failing), refs) is not None
    assert checker.check_output(INPUT, argv, 0, "ValueError: x", text, refs) is not None


def test_structural_checks_without_a_reference():
    validate = ("vertices 2\nhyperplanes 1\ndimension 1\ncubes 2 1\nbounded-geometry 3\n"
                "median ok\nconnected ok\nresult valid\n")
    argv = ["validate", "--input", "doc.cxc"]
    assert checker.check_output(INPUT, argv, 0, None, validate, {}) is None
    wrong = validate.replace("cubes 2 1", "cubes 2 2")
    assert checker.check_output(INPUT, argv, 0, None, wrong, {}) is not None
    # Full sweep at the default grid: header plus 1 row at t = 0 and 3 more.
    sweep = ["sweep", "--input", "doc.cxc"]
    body = SWEEP_CSV + "0.1,a,a,1\n1,a,a,1\ninf,a,a,1\n"
    assert checker.check_output(INPUT, sweep, 0, None, body, {}) is None
    assert checker.check_output(INPUT, sweep, 0, None, SWEEP_CSV, {}) is not None


def test_committed_reference_covers_every_suite():
    refs = checker.load_reference()
    suites = {e["suite"] for e in refs.values() if "suite" in e}
    assert suites == {"jv", "ps", "parallel", "field", "fredholm"}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_two_seeds_yield_in_band_inputs(workload, tmp_path):
    sizes = []
    for seed in (1, 2):
        records = workloads.build(workload, seed, tmp_path / str(seed))
        by_name = {r["name"]: r for r in records}
        for spec in workloads.WORKLOADS[workload]:
            if isinstance(spec, workloads.Drawn):
                drawn = [by_name["%s-%d" % (spec.name, i)] for i in range(spec.count)]
                for rec in drawn:
                    size = rec["vertices"] if spec.measure == "vertices" else rec["n_cubes"]
                    assert spec.band[0] <= size <= spec.band[1], (spec.name, seed, size)
                sizes.append(tuple(r["sha256"] for r in drawn))
    assert sizes[: len(sizes) // 2] != sizes[len(sizes) // 2:]


def test_layer_self_times_add_up_to_the_traced_total(tmp_path):
    doc = tmp_path / "cube3.cxc"
    subprocess.run([sys.executable, "-m", "cubedeform.cli", "gen", "cube", "--dim", "3",
                    "--out", str(doc)], check=True, cwd=ROOT,
                   env=ENV)
    trace = tmp_path / "trace.jsonl"
    report = {}
    for cid, argv in enumerate((["check", "jv"], ["check", "fredholm"], ["sweep"])):
        full = workloads.command_argv(tuple(argv), str(doc))
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), "run", "--id", str(cid),
             "--out", str(tmp_path / "out.txt"), "--trace", str(trace), "--", *full],
            check=True, capture_output=True, text=True)
        report[cid] = json.loads(proc.stdout.splitlines()[-1])
        assert report[cid]["rc"] == 0 and report[cid]["error"] is None
    by_id = {}
    for line in trace.read_text().splitlines():
        span = json.loads(line)
        by_id.setdefault(span["id"], []).append(span)
    m = spans.layer_metrics(list(by_id.values()))
    traced_total = sum(r["main_s"] for r in report.values())
    layer_sum = sum(m[layer + ".self_s"] for layer in spans.LAYERS)
    assert layer_sum == pytest.approx(traced_total, rel=0.05)
    assert m["cli.calls"] == 3
    assert m["deformation.pairing_value.calls"] > 0
    assert m["linalg.solve.calls"] > 0 and m["linalg.flops_computed"] > 0
    # Calls inside a module are not wrapped.
    assert not any(s["name"].endswith("canonicalize") for s in sum(by_id.values(), []))


def test_input_documents_are_cubedeform_gen_output(tmp_path):
    records = workloads.build("spectral_sweep", 0, tmp_path)
    for rec in records:
        out = subprocess.run([sys.executable, "-m", "cubedeform.cli", "gen", *rec["gen"]],
                             check=True, capture_output=True, cwd=ROOT,
                             env=ENV).stdout
        assert hashlib.sha256(out).hexdigest() == rec["sha256"]

"""Output checker: is a command's output correct?

A command fails on a non-zero exit, an escaped exception or wrong output.
When the reference file has an entry for the input document (by sha256)
and the command, the comparison is exact:

* ``validate`` output and ``sweep`` CSVs match byte for byte (sha256);
* ``check`` reports parse, say ``pass: true`` and match the reference in
  suite, check names, thresholds and counts.  Residual values are left
  out, because a faster algorithm may round differently within tolerance.

Without an entry (random documents of other seeds) the checks are
structural: exit 0, ``pass: true`` with the suite's reference names and
thresholds, the CSV row count, and a ``validate`` summary that agrees with
the document's sizes.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from workloads import sweep_rows

REFERENCE = Path(__file__).resolve().parent / "reference" / "outputs.json"
VALIDATE_TAIL = ["median ok", "connected ok", "result valid"]


def load_reference(path: Path = REFERENCE) -> dict:
    return json.loads(path.read_text()) if path.exists() else {}


def reference_key(inp: dict, argv: list[str]) -> str:
    """Input document hash plus the command without its ``--input`` path."""
    i = argv.index("--input")
    return "%s %s" % (inp["sha256"], " ".join(argv[:i] + argv[i + 2:]))


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _report_summary(report: dict) -> dict:
    return {"suite": report.get("suite"),
            "checks": [[c.get("name"), c.get("threshold")] for c in report.get("checks", [])],
            "counts": report.get("counts")}


def reference_entry(argv: list[str], text: str) -> dict:
    """What the reference file stores for one correct output."""
    if argv[0] == "check":
        return _report_summary(json.loads(text))
    return {"sha256": _sha(text)}


def check_output(inp: dict, argv: list[str], rc, error, text: str,
                 refs: dict | None) -> str | None:
    """None when the output is correct, else the reason it is not.

    ``refs`` None checks structure only, as when recording the reference.
    """
    if error is not None:
        return "escaped exception: %s" % error
    if rc != 0:
        return "exit code %r" % rc
    expected = refs.get(reference_key(inp, argv)) if refs is not None else None
    if argv[0] == "check":
        return _check_report(inp, argv[1], text, expected, refs)
    if expected is not None:
        return None if _sha(text) == expected["sha256"] else "output differs from the reference"
    if argv[0] == "validate":
        return _check_validate(inp, text)
    return _check_sweep(inp, argv, text)


def _check_report(inp: dict, suite: str, text: str, expected, refs: dict) -> str | None:
    try:
        report = json.loads(text)
    except ValueError:
        return "report is not JSON"
    if not isinstance(report, dict) or report.get("pass") is not True:
        return "report does not say pass: true"
    failed = [c.get("name") for c in report.get("checks", []) if c.get("pass") is not True]
    if failed:
        return "checks failed: %s" % ", ".join(map(str, failed))
    if refs is None:
        return None
    got = _report_summary(report)
    if expected is None:
        same_suite = [e for e in refs.values() if e.get("suite") == suite]
        if not same_suite:
            return "no reference report for suite %s" % suite
        counts = ({"vertices": inp["vertices"], "classes": inp["vertices"]}
                  if suite == "parallel" else None)
        expected = {"suite": suite, "checks": same_suite[0]["checks"], "counts": counts}
    return None if got == expected else "report differs from the reference: %s" % got


def _check_validate(inp: dict, text: str) -> str | None:
    lines = text.splitlines()
    want = ["vertices %d" % inp["vertices"], "hyperplanes %d" % inp["hyperplanes"],
            "dimension %d" % inp["dimension"], "cubes " + " ".join(map(str, inp["cubes"]))]
    if len(lines) != 8 or lines[:4] != want or lines[5:] != VALIDATE_TAIL:
        return "validate summary disagrees with the document"
    word, _, value = lines[4].partition(" ")
    if word != "bounded-geometry" or not value.isdigit() or int(value) < 1:
        return "bad bounded-geometry line"
    return None


def _check_sweep(inp: dict, argv: list[str], text: str) -> str | None:
    if not text.startswith("t,row_key,col_key,value\n"):
        return "sweep CSV has no header"
    rows = text.count("\n")
    want = sweep_rows(argv, inp["ps_dims"], inp["selected_per_degree"])
    return None if rows == want else "sweep CSV has %d lines, expected %d" % (rows, want)

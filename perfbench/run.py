"""Benchmark of the cubedeform command line: one closed-loop client.

    python3 perfbench/run.py --workload ingest_algebra --seed 0 --seconds 55 --trace 0

The runner builds the workload's inputs for the seed (one builder child),
then runs the workload's commands one after another, one child process per
command, cycling through the list until ``--seconds`` is spent.  Each child
imports ``cubedeform`` and calls ``cubedeform.cli.main`` with stdout
captured; the runner checks every output (see ``checker.py``).

Every few seconds, between commands, the runner times a fixed probe
process, and it scales the run's times by the host speed the probes show.
Per command it takes the median time over its runs, so one slow run moves
nothing.  ``total_s`` is the sum of those medians, split into ``large_s``
and ``small_s`` by input tier; ``setup_s`` is the median scaled start-up
over all commands run; ``peak_rss_mb`` the largest child peak RSS.  With
``--trace 1`` untraced and traced rounds alternate and the result holds
the per-layer metrics of ``spans.py`` instead.  The last stdout line is the
JSON result; the full record goes to ``perfbench/.work/<workload>/``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import checker
import spans
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
# Two BLAS threads on a 2-core machine were both slower and noisier.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}
DEADLINE_S = 170.0  # a run must end within 180 s, set-up included
END_TO_END = {"total_s": "s", "large_s": "s", "small_s": "s", "setup_s": "s",
              "peak_rss_mb": "MB"}


class ChildFailed(RuntimeError):
    pass


# The host probe: a fresh Python process that imports numpy and does a
# little fixed interpreter and BLAS work, timed from spawn to exit, like a
# command's start-up without cubedeform.  Only the host's speed moves it.
# On a shared VM that speed drifts by 20% and more within minutes and moves
# every command alike (a run's start-up and its command times correlated at
# 0.94), so each run's times are scaled by PROBE_REF_S over the run's median
# probe (see README.md).  PROBE_REF_S is the probe's median on a 2-core Xeon
# VM, so scaled times read as seconds on that host at that speed.
PROBE = ("import numpy as np\n"
         "a = np.arange(40000.0).reshape(200, 200) % 7\n"
         "for _ in range(5): a = (a @ a) % 7\n"
         "sum(i * i % 7 for i in range(30000))\n")
PROBE_REF_S = 0.174
PROBE_EVERY_S = 2.5  # a probe after each command that ends this long after the last


def probe() -> float:
    """Seconds from spawning the probe process to its exit."""
    started = time.monotonic()
    # No timeout: with one, the wait polls and rounds the time up by up to 50 ms.
    subprocess.run([sys.executable, "-c", PROBE], env={**os.environ, **CHILD_ENV}, check=True)
    return time.monotonic() - started


def loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def spawn(args: list[str], timeout: float) -> tuple[float, dict]:
    """Run a child; return its spawn instant and its JSON report."""
    env = {**os.environ, **CHILD_ENV}
    started = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(CHILD), *args], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        raise ChildFailed("timed out after %.0f s: %s" % (timeout, " ".join(args))) from None
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        raise ChildFailed("child exited %d: %s" % (proc.returncode, tail[0]))
    return started, json.loads(lines[-1])


class Run:
    """One benchmark run: inputs, command records and the trace file."""

    def __init__(self, workload: str, seed: int, work: Path):
        self.work = work
        self.trace_file = work / "trace.jsonl"
        self.t0 = time.monotonic()
        built = spawn(["build", "--workload", workload, "--seed", str(seed),
                       "--dir", str((work / "inputs").relative_to(ROOT))], DEADLINE_S)[1]
        self.inputs, self.env = built["inputs"], built["env"]
        self.commands = [(inp, argv) for inp in self.inputs for argv in inp["commands"]]
        self.refs = checker.load_reference()
        self.records: list[dict] = []
        self.probes: list[tuple[float, float]] = []  # (start, seconds) of each probe

    def remaining(self) -> float:
        return DEADLINE_S - (time.monotonic() - self.t0)

    def command(self, k: int, traced: bool, index: int, keep_output: bool = False) -> float:
        """Run command ``k`` of the workload once; return its wall time, start-up included."""
        inp, argv = self.commands[k]
        cid = len(self.records)
        out = self.work / "out" / ("%d.txt" % cid)
        args = ["run", "--id", str(cid), "--out", str(out.relative_to(ROOT))]
        if traced:
            args += ["--trace", str(self.trace_file.relative_to(ROOT))]
        rec = {"id": cid, "round": index, "traced": traced, "command": k,
               "input": inp["name"], "tier": inp["tier"], "argv": argv}
        self.records.append(rec)
        try:
            started, rep = spawn(args + ["--", *argv], self.remaining())
        except ChildFailed as exc:
            rec["failure"] = str(exc)
            raise
        text = out.read_text()
        rec.update(setup_s=rep["ready"] - started, main_s=rep["main_s"],
                   cpu_s=rep["cpu_s"], rc=rep["rc"], maxrss_mb=rep["maxrss_kb"] / 1024,
                   failure=checker.check_output(inp, argv, rep["rc"], rep["error"],
                                                text, self.refs))
        if keep_output:
            rec["text"] = text
        out.unlink()
        ended = time.monotonic()
        if not self.probes or ended - self.t0 - self.probes[-1][0] >= PROBE_EVERY_S:
            self.probes.append((ended - self.t0, probe()))
        return ended - started

    def measure(self, seconds: float, modes: tuple[bool, ...]) -> None:
        """Cycle through the commands until ``seconds`` are spent.

        The first round always runs whole.  After it, each command runs only
        if its previous duration still fits in the window, so the window is
        used to the end; a command left out of the last round has one
        sample fewer, which its median absorbs.
        """
        schedule = [(k, traced) for traced in modes for k in range(len(self.commands))]
        last: dict[tuple[int, bool], float] = {}
        started = time.monotonic()
        for done in itertools.count():
            step = schedule[done % len(schedule)]
            if done >= len(schedule):
                elapsed = time.monotonic() - started
                if elapsed + last[step] > seconds or self.remaining() < 2 * last[step]:
                    return
            last[step] = self.command(step[0], step[1], done // len(schedule))

    def scale(self) -> float:
        """PROBE_REF_S over the run's median probe: above 1 on a fast host."""
        return PROBE_REF_S / statistics.median(d for _, d in self.probes)

    def timings(self, traced: bool, scaled: bool = True) -> dict[str, float]:
        """Median time per command over the run, summed per tier."""
        by_command = defaultdict(list)
        for r in self.records:
            if r["traced"] == traced and "main_s" in r:
                by_command[r["command"]].append(r["main_s"])
        factor = self.scale() if scaled else 1.0
        med = {k: factor * statistics.median(v) for k, v in by_command.items()}
        tier = {k: inp["tier"] for k, (inp, _) in enumerate(self.commands)}
        return {"total_s": sum(med.values()),
                "large_s": sum(v for k, v in med.items() if tier[k] == "large"),
                "small_s": sum(v for k, v in med.items() if tier[k] == "small")}

    def end_to_end(self) -> dict[str, float]:
        """Scaled times and peak RSS, then the raw times and the median probe."""
        plain = [r for r in self.records if not r["traced"] and "main_s" in r]
        out = {**self.timings(False),
               "setup_s": self.scale() * statistics.median(r["setup_s"] for r in plain),
               "peak_rss_mb": max(r["maxrss_mb"] for r in plain)}
        raw = {**self.timings(False, scaled=False),
               "setup_s": statistics.median(r["setup_s"] for r in plain)}
        out.update({"raw." + name: value for name, value in raw.items()},
                   probe_s=statistics.median(d for _, d in self.probes))
        return out

    def per_layer(self) -> dict[str, float]:
        """Median over traced rounds of each round's per-layer metrics."""
        by_id = defaultdict(list)
        with open(self.trace_file) as fh:
            for line in fh:
                span = json.loads(line)
                by_id[span["id"]].append(span)
        rounds = defaultdict(list)
        for r in self.records:
            if r["traced"] and "main_s" in r:
                rounds[r["round"]].append(by_id[r["id"]])
        per_round = [spans.layer_metrics(cmds) for cmds in rounds.values()
                     if len(cmds) == len(self.commands)]
        out = {name: statistics.median(m[name] for m in per_round) for name in per_round[0]}
        out["trace.overhead_frac"] = (self.timings(True)["total_s"]
                                      / self.timings(False)["total_s"] - 1.0)
        return out


def main() -> int:
    parser = argparse.ArgumentParser(description="cubedeform CLI benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="run one round and store its outputs as the reference")
    args = parser.parse_args()
    if not (ROOT / "src" / "cubedeform" / "cli.py").is_file():
        print("perfbench: no cubedeform source under %s" % (ROOT / "src"), file=sys.stderr)
        return 2

    load_start = loadavg()
    work = HERE / ".work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    (work / "out").mkdir(parents=True)
    try:
        run = Run(args.workload, args.seed, work)
    except ChildFailed as exc:
        print("perfbench: building inputs failed: %s" % exc, file=sys.stderr)
        return 1
    if args.record_reference:
        return record_reference(run)
    try:
        run.measure(args.seconds, (False, True) if args.trace else (False,))
    except ChildFailed as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
    if not any("main_s" in r for r in run.records):
        return 1
    failed = [r for r in run.records if r.get("failure")]
    env = {**run.env, "child_env": CHILD_ENV, "loadavg_start": load_start, "loadavg_end": loadavg()}

    metrics = run.per_layer() if args.trace else run.end_to_end()
    units = spans.metric_units() if args.trace else END_TO_END
    report(args, run, env, metrics, units, failed)
    result = {"correct": not failed, "attempted": len(run.records), "failed": len(failed),
              "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}}
    (work / "results.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
         "trace": args.trace, "env": env, "inputs": run.inputs, "commands": run.records,
         "probes": run.probes, "metrics": metrics, "result": result}, indent=1))
    print(json.dumps(result))
    return 0


def report(args, run: Run, env: dict, metrics: dict, units: dict, failed: list) -> None:
    """Human-readable lines before the JSON result."""
    print("workload %s  seed %d  rounds %d  env %s" % (
        args.workload, args.seed, len({r["round"] for r in run.records}), json.dumps(env)))
    for inp in run.inputs:
        print("  input %-18s %-5s vertices %5d  hyperplanes %4d  dimension %d  cubes %6d" % (
            inp["name"], inp["tier"], inp["vertices"], inp["hyperplanes"],
            inp["dimension"], inp["n_cubes"]))
    for r in failed:
        print("  FAILED %s %s: %s" % (r["input"], " ".join(r["argv"][:2]), r["failure"]))
    for name, unit in units.items():
        print("  %-38s %14.6g %s" % (name, metrics[name], unit))
    for name in sorted(metrics.keys() - units.keys()):
        print("  %-38s %14.6g s" % (name, metrics[name]))
    print("  %-38s %14.6g ratio (of %d attempted)" % (
        "ops_failed_frac", len(failed) / len(run.records), len(run.records)))
    if args.trace:
        print("  traced total_s %.6g s, untraced %.6g s, layer self times sum to %.6g s" % (
            run.timings(True, scaled=False)["total_s"], run.timings(False, scaled=False)["total_s"],
            sum(metrics[layer + ".self_s"] for layer in spans.LAYERS)))


def record_reference(run: Run) -> int:
    """Store one round's outputs, each checked structurally, as the reference."""
    run.refs = None
    for k in range(len(run.commands)):
        run.command(k, False, 0, keep_output=True)
    refs = checker.load_reference()
    bad = 0
    for rec in run.records:
        inp = next(i for i in run.inputs if i["name"] == rec["input"])
        if rec["failure"]:
            bad += 1
            print("not recorded: %s %s: %s" % (rec["input"], rec["argv"][:2], rec["failure"]))
            continue
        refs[checker.reference_key(inp, rec["argv"])] = checker.reference_entry(
            rec["argv"], rec["text"])
    checker.REFERENCE.parent.mkdir(exist_ok=True)
    checker.REFERENCE.write_text("{\n%s\n}\n" % ",\n".join(
        "%s: %s" % (json.dumps(k), json.dumps(refs[k])) for k in sorted(refs)))
    print("recorded %d outputs to %s" % (len(run.records) - bad, checker.REFERENCE))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

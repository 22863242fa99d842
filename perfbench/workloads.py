"""Workload table and the seeded input builder.

A workload is a list of inputs, each with a tier (``large`` or ``small``)
and the CLI commands run on it.  Every input document is written by
``cubedeform gen``.  Fixed inputs do not depend on the workload seed.
Drawn inputs are random-median documents that the workload seed picks from
a pool of ``gen random-median`` arguments; each document is checked
against the spec's size band when it is built.

This module imports nothing from ``cubedeform`` at import time: ``run.py``
reads the table, and only the builder child calls :func:`build`.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Fixed:
    name: str
    tier: str
    gen: tuple[str, ...]
    commands: tuple[tuple[str, ...], ...]


@dataclass(frozen=True)
class Drawn:
    name: str
    tier: str
    count: int
    pool: tuple[tuple[int, int, int], ...]  # (n, k, gen seed) for `gen random-median`
    measure: str  # "vertices" or "cubes"
    band: tuple[int, int]
    commands: tuple[tuple[str, ...], ...]
    select: int = 0  # when > 0, commands get `--select` for this many keys


# Each pool holds the `gen random-median` arguments of documents in the
# spec's size band whose commands cost about the same: the median of three
# fresh processes per candidate, single-threaded BLAS, on a 2-core Xeon VM.
# Documents of equal size differ up to 2x in cost (the bounded-geometry
# statistic and the operators depend on how the cubes meet), and benchmark
# results are compared across seeds, so the pools are chosen by cost:
# unequal load would read as run-to-run spread.  A pool also keeps set-up
# short: free draws at the large size cost 45-55 s per run, because
# validation is O(V^3) and one candidate in five lands far above the band.
#
# Large: among seeds 0-39 of (12, 9) and 0-86 of (13, 8), documents with
# 340-390 vertices and 5,200-6,600 cubes whose `validate` took 1.25-1.36 s.
LARGE_POOL = ((12, 9, 29), (13, 8, 3), (13, 8, 39), (13, 8, 71), (13, 8, 86))
# Among seeds 0-220 of (10, 8): 1,200-1,500 cubes, `validate` 0.054-0.070 s.
INGEST_POOL = tuple((10, 8, s) for s in (10, 14, 36, 52, 54, 65, 78, 88, 102, 118, 122, 125,
                                         161, 168))
# Among seeds 0-40 of (9, 7) and (10, 7): 300-400 cubes, `check jv`, `ps`
# and `parallel` together 0.42-0.46 s.
ALGEBRA_POOL = ((10, 7, 2), (10, 7, 12), (10, 7, 25), (10, 7, 36), (9, 7, 15))
# Among seeds 0-140 of (9, 6) and (10, 6): 170-200 cubes, `check field`
# and `fredholm` together 0.83-0.85 s.
SPECTRAL_POOL = ((10, 6, 5), (10, 6, 78), (9, 6, 5), (9, 6, 78))


VALIDATE = (("validate",),)
ALGEBRA = (("check", "jv"), ("check", "ps"), ("check", "parallel"))
SPECTRAL = (("check", "field"), ("check", "fredholm"))
SWEEP = (("sweep",),)
SWEEP_GRID = "0.001,0.1,1,inf"

# Two workloads, each the union of two of the four command families, so
# that a run can be long enough to average out a shared host's drift.
WORKLOADS: dict[str, tuple] = {
    # Parsing and validation in `core`, each document read cold, so table
    # building moved into parse shows as a cost; then integer operator
    # assembly and the suites' dense residual products, where the cube
    # tables are reused across hundreds of operator builds.
    "ingest_algebra": (
        Drawn("rm-ingest", "large", 3, LARGE_POOL, "vertices", (340, 390), VALIDATE),
        Drawn("rm-ingest-small", "small", 10, INGEST_POOL, "cubes", (1200, 1500), VALIDATE),
        # More than 62 hyperplanes: times the pure-Python fallback in `core`.
        Fixed("tree200", "small", ("tree", "--leaves", "200"), VALIDATE),
        Fixed("cube6", "large", ("cube", "--dim", "6"), ALGEBRA),
        Fixed("cube5", "small", ("cube", "--dim", "5"), ALGEBRA),
        Fixed("grid332", "small", ("grid", "--dims", "3x3x2"), ALGEBRA),
        Drawn("rm-algebra", "small", 4, ALGEBRA_POOL, "cubes", (300, 400), ALGEBRA),
    ),
    # Dense float linear algebra in `fredholm` and the `deformation` frames,
    # on the weighted path with t = inf included; then mpmath pairing
    # evaluation over whole bases, and a `--select` sweep on a large complex
    # where per-complex precomputation shows as a cost.
    "spectral_sweep": (
        Fixed("grid2221", "large", ("grid", "--dims", "2x2x2x1"), SPECTRAL),
        Fixed("cube5", "small", ("cube", "--dim", "5"), SPECTRAL + SWEEP),
        Drawn("rm-spectral", "small", 2, SPECTRAL_POOL, "cubes", (170, 200), SPECTRAL),
        Fixed("grid332", "small", ("grid", "--dims", "3x3x2"), (("sweep", "--t", SWEEP_GRID),)),
        Drawn("rm-sweep", "large", 2, LARGE_POOL, "cubes", (5200, 6600), SWEEP, select=8),
    ),
}

DEFAULT_SWEEP_GRID = 3  # t values in `sweep` without --t: 0.1, 1, inf


def command_argv(cmd: tuple[str, ...], path: str) -> list[str]:
    """Full CLI argv for a command template on one input document."""
    if cmd[0] == "check":
        return ["check", cmd[1], "--input", path, *cmd[2:]]
    return [cmd[0], "--input", path, *cmd[1:]]


def sweep_rows(argv: list[str], ps_dims: list[int], selected: list[int]) -> int:
    """CSV line count of a sweep: header plus the t = 0 rows and each t."""
    grid = len(argv[argv.index("--t") + 1].split(",")) if "--t" in argv else DEFAULT_SWEEP_GRID
    per_degree = selected if selected else ps_dims
    return 1 + (1 + grid) * sum(n * n for n in per_degree)


def _stats(cplx) -> dict:
    return {
        "vertices": cplx.n_vertices,
        "hyperplanes": cplx.n_hyperplanes,
        "dimension": cplx.dimension,
        "cubes": [len(cplx.cubes(q)) for q in range(cplx.dimension + 1)],
        "n_cubes": cplx.n_cubes(),
    }


def build(workload: str, seed: int, out_dir: Path) -> list[dict]:
    """Write the workload's input documents and return one record per input.

    Runs in a child process: it imports ``cubedeform`` and captures the
    complex each ``gen`` call serialises, so sizes cost no second parse.
    """
    import contextlib
    import io

    import cubedeform.cli as cli
    from cubedeform.symbols import ps_basis, symbol_key

    made = []
    originals = {name: getattr(cli, name) for name in
                 ("star_tree", "grid_complex", "hypercube", "random_median_complex")}

    def gen(args: tuple[str, ...], path: Path):
        for name, fn in originals.items():
            setattr(cli, name, lambda *a, _fn=fn: made.append(_fn(*a)) or made[-1])
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(["gen", *args, "--out", str(path)])
        finally:
            for name, fn in originals.items():
                setattr(cli, name, fn)
        if rc != 0:
            raise RuntimeError("gen %s exited %d" % (" ".join(args), rc))
        return made.pop()

    out_dir.mkdir(parents=True, exist_ok=True)
    records = []
    for spec in WORKLOADS[workload]:
        docs = []
        if isinstance(spec, Fixed):
            path = out_dir / ("%s.cxc" % spec.name)
            docs.append((spec.name, spec.gen, path, gen(spec.gen, path)))
        else:
            rng = random.Random("%s/%s/%d" % (workload, spec.name, seed))
            for i, (n, k, gen_seed) in enumerate(rng.sample(spec.pool, spec.count)):
                args = ("random-median", "--n", str(n), "--k", str(k), "--seed", str(gen_seed))
                name, path = "%s-%d" % (spec.name, i), out_dir / ("%s-%d.cxc" % (spec.name, i))
                cplx = gen(args, path)
                size = cplx.n_vertices if spec.measure == "vertices" else cplx.n_cubes()
                if not spec.band[0] <= size <= spec.band[1]:
                    raise RuntimeError("%s: %s has %d %s, outside %s"
                                       % (name, " ".join(args), size, spec.measure, spec.band))
                docs.append((name, args, path, cplx))
        for name, args, path, cplx in docs:
            rec = {"name": name, "tier": spec.tier, "gen": list(args), "path": str(path),
                   "sha256": hashlib.sha256(path.read_bytes()).hexdigest(), **_stats(cplx)}
            extra: list[str] = []
            if any(cmd[0] == "sweep" for cmd in spec.commands):
                bases = [ps_basis(cplx, q) for q in range(cplx.dimension + 1)]
                rec["ps_dims"] = [len(b) for b in bases]
                rec["selected_per_degree"] = []
                if isinstance(spec, Drawn) and spec.select:
                    keys = [(symbol_key(sym, cplx), q) for q, b in enumerate(bases) for sym in b]
                    step = (len(keys) - 1) / (spec.select - 1)
                    picked = [keys[round(i * step)] for i in range(spec.select)]
                    for key, _ in picked:
                        extra += ["--select", key]
                    rec["selected_per_degree"] = [
                        sum(1 for _, q in picked if q == d) for d in range(len(bases))]
            rec["commands"] = [command_argv(cmd, str(path)) + extra for cmd in spec.commands]
            records.append(rec)
    return records

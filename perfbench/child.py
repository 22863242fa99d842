"""One child process of the benchmark.

    python3 perfbench/child.py run --id 7 --out OUT [--trace FILE] -- validate --input DOC
    python3 perfbench/child.py build --workload ingest_algebra --seed 0 --dir DIR

``run`` calls ``cubedeform.cli.main`` once with stdout captured into OUT and
prints one JSON line: the CLOCK_MONOTONIC instant at which ``cubedeform.cli``
was imported and ready (the parent subtracts its spawn instant), the time
inside ``main``, the exit code, any escaped exception and the peak RSS.
With ``--trace`` it wraps the module boundaries first and appends the
command's spans to FILE as JSON lines.

``build`` writes a workload's input documents for a seed and prints their
records together with the numeric environment.
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import cubedeform.cli as cli  # noqa: E402  (start-up ends here)

READY = time.monotonic()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run(args: argparse.Namespace) -> dict:
    main = cli.main
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        main = tracer.wrap("cli.main", cli.main)
    buf = io.StringIO()
    rc, error = None, None
    cpu0, t0 = time.process_time(), time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = main(args.argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    except Exception as exc:  # an escaped exception is a failed command
        error = "%s: %s" % (type(exc).__name__, exc)
    main_s, cpu_s = time.perf_counter() - t0, time.process_time() - cpu0
    Path(args.out).write_text(buf.getvalue())
    if tracer is not None:
        with open(args.trace, "a") as fh:
            tracer.dump(fh, args.id)
    return {"ready": READY, "main_s": main_s, "cpu_s": cpu_s, "rc": rc, "error": error,
            "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}


def build(args: argparse.Namespace) -> dict:
    import numpy as np

    from workloads import build as build_inputs

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "inputs": build_inputs(args.workload, args.seed, Path(args.dir)),
        "env": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": "%s %s" % (blas.get("name"), blas.get("version")),
            "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
            "nproc": len(os.sched_getaffinity(0)),
        },
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    r = sub.add_parser("run")
    r.add_argument("--id", type=int, required=True)
    r.add_argument("--out", required=True)
    r.add_argument("--trace")
    r.add_argument("argv", nargs=argparse.REMAINDER)
    b = sub.add_parser("build")
    b.add_argument("--workload", required=True)
    b.add_argument("--seed", type=int, required=True)
    b.add_argument("--dir", required=True)
    args = parser.parse_args()
    if args.mode == "run":
        if args.argv[:1] == ["--"]:
            args.argv = args.argv[1:]
        print(json.dumps(run(args)))
    else:
        print(json.dumps(build(args)))


if __name__ == "__main__":
    main()

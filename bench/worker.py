"""The measured process of one benchmark run.

It imports quantpred.cli first (timing the import), runs one workload's CLI
steps in a closed loop through quantpred.cli.main for the given number of
seconds, checks every output, and writes a JSON result. With --trace 1 it
wraps quantpred's layers first and also writes the spans.

    PYTHONPATH=src python3 bench/worker.py --workload NAME --seed N \
        --seconds S --trace 0|1 --work DIR --result PATH [--spans PATH]
"""

import time

_t0 = time.perf_counter()
import quantpred.cli  # noqa: E402  (first, so its import time is a cold one)

IMPORT_S = time.perf_counter() - _t0

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402
from quantpred import conformal, kernel, qnn  # noqa: E402

from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MAX_PROBLEMS = 20


def _blas_threads():
    """OpenBLAS's thread count, read from the library numpy loaded."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine_record():
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "ru_maxrss_unit": "KiB" if sys.platform.startswith("linux") else "bytes",
    }


def _digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _call_cli(argv):
    """quantpred.cli.main(argv) -> (exit status, problem or None)."""
    try:
        status = quantpred.cli.main(list(argv))
    except SystemExit as exc:  # argparse rejected the arguments
        status = exc.code
    except Exception:  # a traceback is a failed operation, not a failed run
        return 1, traceback.format_exc(limit=3)
    return status, None if status == 0 else f"exit status {status}"


def run_loop(workload, work, seed, seconds):
    """Repeat the workload's steps until the next repetition would overrun
    `seconds`; at least one repetition runs."""
    steps = workload.steps(work, seed)
    out = os.path.join(work, "out")
    os.makedirs(out, exist_ok=True)
    first = {}
    res = {"rep_s": [], "step_s": {s.command: [] for s in steps},
           "attempted": 0, "failed": 0, "problems": []}
    start = time.perf_counter()
    while True:
        rep_start = time.perf_counter()
        command_s = 0.0
        for step in steps:
            for name in step.outputs:
                if os.path.exists(os.path.join(out, name)):
                    os.remove(os.path.join(out, name))
            t = time.perf_counter()
            status, problem = _call_cli(step.argv)
            dt = time.perf_counter() - t
            command_s += dt
            res["step_s"][step.command].append(dt)
            problems = [problem] if problem else []
            if status == 0:
                problems += step.check(out) if step.check else []
                for name in step.outputs:
                    path = os.path.join(out, name)
                    if not os.path.exists(path):
                        problems.append(f"{name} not written")
                        continue
                    digest = _digest(path)
                    if first.setdefault(name, digest) != digest:
                        problems.append(f"{name} differs from the first repetition's")
            res["attempted"] += 1
            if problems:
                res["failed"] += 1
                if len(res["problems"]) < MAX_PROBLEMS:
                    rep = len(res["rep_s"])
                    res["problems"].append(f"rep {rep} {step.command}: "
                                           + "; ".join(problems))
        res["rep_s"].append(command_s / workload.units_per_rep)
        now = time.perf_counter()
        if now - start + (now - rep_start) > seconds:
            return res


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--work", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--spans", default=None)
    args = p.parse_args(argv)

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install({"cli": quantpred.cli, "qnn": qnn,
                        "kernel": kernel, "conformal": conformal})
    res = run_loop(WORKLOADS[args.workload], args.work, args.seed, args.seconds)
    res["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    res["import_s"] = IMPORT_S
    res["machine"] = machine_record()
    if tracer is not None:
        tracer.restore()
        res["layers"], res["not_reported"] = layer_metrics(tracer, len(res["rep_s"]))
        if args.spans:
            tracer.save(args.spans)
    with open(args.result, "w") as fh:
        json.dump(res, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""quantpred benchmark: run a workload through the real CLI and print its
metrics.

    python3 bench/run.py --workload pipeline-20k --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

Run from anywhere; the repository is the parent of this directory, and
quantpred is imported from its src/ tree. Inputs are generated from --seed
under .bench_run/ and removed afterwards; traced runs leave their spans
there as .bench_run/spans-<workload>-seed<n>.npz.

A run times `import quantpred.cli` in several fresh processes, then starts
one worker process that runs the workload's CLI commands in a closed loop
for --seconds and checks every output. The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics: the
end_to_end metrics of BENCHMARK.json with --trace 0, its per_layer metrics
with --trace 1. `--workload all` runs every workload untraced and traced,
prints the named per-command times and the tracing overhead, and writes
them to .bench_run/BENCH_all-seed<n>.json.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_DIR = ROOT / ".bench_run"
SETUP_PROBES = 5
DEADLINE_S = 170.0  # a single-workload run exits within 180 s

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402

PROBE = ("import time; t = time.perf_counter(); import quantpred.cli; "
         "print(time.perf_counter() - t); print(quantpred.cli.__file__)")


class BenchError(Exception):
    """The benchmark could not produce a result."""


def load_spec():
    if not (ROOT / "src" / "quantpred" / "cli.py").is_file():
        raise BenchError(f"no quantpred source tree at {ROOT / 'src'}")
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def _remaining(t_start):
    left = DEADLINE_S - (time.monotonic() - t_start)
    if left <= 0:
        raise BenchError(f"run exceeded {DEADLINE_S} s")
    return left


def setup_times(n, t_start):
    """Seconds to import quantpred.cli in each of n fresh processes."""
    times = []
    for _ in range(n):
        r = subprocess.run([sys.executable, "-c", PROBE], cwd=ROOT, env=_env(),
                           capture_output=True, text=True, timeout=_remaining(t_start))
        if r.returncode != 0:
            raise BenchError(f"importing quantpred.cli failed:\n{r.stderr}")
        seconds, path = r.stdout.split("\n")[:2]
        if not Path(path).resolve().is_relative_to(ROOT / "src"):
            raise BenchError(f"quantpred imported from {path}, not {ROOT / 'src'}")
        times.append(float(seconds))
    return times


def run_workload(name, seed, seconds, trace, t_start):
    """Generate inputs, time set-up, run the worker; its result dict plus
    the end-to-end metrics."""
    work = RUN_DIR / f"{name}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        WORKLOADS[name].prepare(str(work), seed)
        setup = setup_times(SETUP_PROBES, t_start)
        result = work / "result.json"
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
               "--work", str(work), "--result", str(result)]
        if trace:
            cmd += ["--spans", str(RUN_DIR / f"spans-{name}-seed{seed}.npz")]
        # the worker's stdout goes to stderr: the last stdout line is ours
        r = subprocess.run(cmd, cwd=ROOT, env=_env(), stdout=sys.stderr,
                           timeout=_remaining(t_start))
        if r.returncode != 0:
            raise BenchError(f"worker for {name} exited with {r.returncode}")
        with open(result) as fh:
            res = json.load(fh)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    kib = 1.0 if res["machine"]["ru_maxrss_unit"] == "KiB" else 1.0 / 1024
    res["end_to_end"] = {
        "setup_s": statistics.median(setup + [res["import_s"]]),
        "rep_s": statistics.median(res["rep_s"]),
        "peak_rss_mb": res["peak_rss_kb"] * kib / 1024,
    }
    res["commands"] = {f"{c}_s": statistics.median(v) for c, v in res["step_s"].items()}
    return res


def summary_line(name, trace, res):
    parts = [f"{name} trace={trace} median of {len(res['rep_s'])} reps:"]
    parts += [f"{k} {v:.4f} s" for k, v in res["commands"].items()]
    e2e = res["end_to_end"]
    parts += [f"rep_s {e2e['rep_s']:.4f} s (fastest {min(res['rep_s']):.4f})",
              f"setup_s {e2e['setup_s']:.4f} s",
              f"peak_rss_mb {e2e['peak_rss_mb']:.1f} MB",
              f"attempted {res['attempted']} failed {res['failed']}"]
    return "  ".join(parts)


def result_line(res, metrics_spec, values):
    """The result JSON line; a spec metric the run lacks reads 0."""
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
               for m in metrics_spec}
    return json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                       "failed": res["failed"], "metrics": metrics})


def run_one(spec, name, seed, seconds, trace):
    res = run_workload(name, seed, seconds, trace, time.monotonic())
    print("machine " + json.dumps(res["machine"], sort_keys=True))
    print(summary_line(name, trace, res))
    print("rep_s samples: " + json.dumps(res["rep_s"]))
    print("command samples: " + json.dumps(res["step_s"]))
    for problem in res["problems"]:
        print(f"problem: {problem}")
    if trace:
        values = res["layers"]
        missing = [m["name"] for m in spec["per_layer"] if m["name"] not in values]
        print("absent: " + json.dumps(sorted(missing)))
        print("not_reported (fewer than 1000 calls): "
              + json.dumps(sorted(k for k in res["not_reported"]
                                  if k in {m["name"] for m in spec["per_layer"]})))
        print(result_line(res, spec["per_layer"], values))
    else:
        print(result_line(res, spec["end_to_end"], res["end_to_end"]))


def run_all(seed, seconds):
    """Every workload untraced and traced; named command times and overhead."""
    report = {"seed": seed, "seconds": seconds, "workloads": {}}
    attempted = failed = 0
    named = {}
    for name in WORKLOADS:
        runs = {}
        for trace in (0, 1):
            res = run_workload(name, seed, seconds, trace, time.monotonic())
            print(summary_line(name, trace, res), flush=True)
            for problem in res["problems"]:
                print(f"problem: {problem}")
            attempted += res["attempted"]
            failed += res["failed"]
            report["machine"] = res["machine"]
            runs[trace] = {**res["end_to_end"], **res["commands"]}
            if trace:
                runs["layers"] = res["layers"]
        overhead = {k: runs[1][k] - runs[0][k] for k in runs[0]}
        print(f"{name} tracing overhead (traced - untraced): "
              + "  ".join(f"{k} {v:+.4f}" for k, v in overhead.items()))
        report["workloads"][name] = {"untraced": runs[0], "traced": runs[1],
                                     "tracing_overhead": overhead,
                                     "layers": runs["layers"]}
        for k, v in runs[0].items():
            named[f"{name}.{k}"] = v
    named["cqr-coverage.coverage_rep_s"] = named["cqr-coverage.rep_s"]
    metrics = {k: {"value": v, "unit": "MB" if k.endswith("_mb") else "s"}
               for k, v in named.items()}
    print("machine " + json.dumps(report["machine"], sort_keys=True))
    for k, m in metrics.items():
        print(f"{k} {m['value']:.4f} {m['unit']}")
    RUN_DIR.mkdir(exist_ok=True)
    with open(RUN_DIR / f"BENCH_all-seed{seed}.json", "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    try:
        spec = load_spec()
        if args.workload == "all":
            run_all(args.seed, args.seconds)
        else:
            run_one(spec, args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"bench: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

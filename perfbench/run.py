"""qfedsim benchmark: times whole federated runs through the public API.

    python3 perfbench/run.py --workload gentle --seed 0 --seconds 25 --trace 0

Run from the repository root. The workload's inputs (experiment configs
and, for `ingest`, a CSV) are generated from --seed under .perfbench_out/,
then a separate process (worker.py) loads qfedsim from src/, with BLAS
pinned to one thread, and runs `config_from_mapping` -> `runner.run`
sequentially for --seconds, cycling through the workload's master seeds.
Every run is checked (artifacts, history rows, finite parameters, analytic
evaluation count, identical checksum on re-runs).

--trace 0 reports the end-to-end metrics named in BENCHMARK.json; --trace 1
alternates untraced and traced runs of the same seed and reports the
per-layer metrics, including the tracing overhead. The last line of stdout
is the result object; the full report, with the machine context, goes to
.perfbench_out/<workload>-seed<seed>-trace<t>.json, and traced spans to
.perfbench_out/<workload>-seed<seed>-spans.npz.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
THREAD_PINS = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                      "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                                      "NUMEXPR_NUM_THREADS")}
# Whole invocation, generation included, must end well inside 180 s.
TIME_LIMIT_S = 170.0


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def unit_of(name: str) -> str:
    if name.endswith(".calls"):
        return "count"
    if name.endswith("bytes_computed"):
        return "B"
    if name.endswith("rows_per_call"):
        return "rows"
    return {"evals_per_s": "1/s", "peak_rss_mb": "MB", "final_auroc": "auroc"}.get(name, "s")


def timing_summary(values: list) -> dict:
    """Median and quartiles, plus the highest percentile that has at least
    ten samples beyond it (none below twenty samples)."""
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    summary = {"n": len(values), "median": median, "q1": q1, "q3": q3, "tail": None}
    if len(values) >= 20:
        pct = math.floor(100.0 * (len(values) - 10) / len(values))
        summary["tail"] = {"percentile": pct,
                           "value": statistics.quantiles(values, n=100)[pct - 1]}
    return summary


def end_to_end(samples: list, peak_rss_kb: int) -> tuple:
    """(metric values, report) from the untraced runs that passed."""
    good = [s for s in samples if not s["traced"] and "error" not in s]
    run_s = [s["run_s"] for s in good]
    setup_s = [s["setup_s"] for s in good]
    evals_per_s = [s["evals"] / s["run_s"] for s in good]
    auroc = {}
    for s in good:
        auroc.setdefault(s["master_seed"], s["auroc"])
    values = {
        "run_s": statistics.median(run_s),
        "setup_s": statistics.median(setup_s),
        "evals_per_s": statistics.median(evals_per_s),
        "peak_rss_mb": peak_rss_kb / 1024.0,
        "final_auroc": statistics.median(auroc.values()),
    }
    report = {
        "run_s": timing_summary(run_s),
        "setup_s": timing_summary(setup_s),
        "evals_per_s": timing_summary(evals_per_s),
        "peak_rss_mb": values["peak_rss_mb"],
        "final_auroc": {"median_over_seeds": values["final_auroc"],
                        "per_master_seed": auroc},
    }
    return values, report


def trace_overhead(samples: list) -> dict:
    """Median over seeds of traced minus untraced run_s; the worker runs
    them in pairs, untraced first."""
    diffs = [traced["run_s"] - plain["run_s"]
             for plain, traced in zip(samples[0::2], samples[1::2])
             if "error" not in plain and "error" not in traced]
    return {"trace.overhead_s": statistics.median(diffs)} if diffs else {}


def print_report(report: dict, figures: dict) -> None:
    name = report["workload"]
    machine = report["machine"]
    print(f"{name} seed {report['seed']}: nproc {machine['nproc']}, Python "
          f"{machine['python']}, numpy {machine['numpy']}, {machine['blas']}, "
          f"BLAS threads {machine['thread_pins']['OPENBLAS_NUM_THREADS']}; "
          f"inputs {report['inputs']}")
    timings = report.get("end_to_end", {})
    for metric in sorted(figures):
        line = f"{name:8s} {metric:34s} {figures[metric]:.6g} {unit_of(metric)}"
        if isinstance(timings.get(metric), dict) and "n" in timings[metric]:
            t = timings[metric]
            tail = (f"p{t['tail']['percentile']} {t['tail']['value']:.6g}" if t["tail"]
                    else "no percentile above the median has 10 runs beyond it")
            line += f"  (median of n={t['n']}, q1 {t['q1']:.6g}, q3 {t['q3']:.6g}; {tail})"
        print(line)
    print(f"{name:8s} {'error_rate':34s} {report['error_rate']:.6g} "
          f"({report['failed']}/{report['attempted']} runs failed)")
    for failure in report["failures"]:
        print(f"{name:8s} FAILED {failure}")


def run_worker(spec_path: str, deadline: float) -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    try:
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), spec_path],
            env=env, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:  # run() has killed and reaped the worker
        fail("worker exceeded the time limit")
    if done.returncode != 0:
        fail(f"worker exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    deadline = time.monotonic() + TIME_LIMIT_S
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "qfedsim", "__init__.py")):
        fail(f"qfedsim sources not found under {os.path.join(ROOT, 'src')}")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    wanted = declared["per_layer" if args.trace else "end_to_end"]

    os.environ.update(THREAD_PINS)  # before input generation imports numpy
    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}"
    workdir = os.path.join(OUT, f"work-{tag}-trace{args.trace}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        generation_start = time.monotonic()
        built = workloads.build(args.workload, args.seed, workdir)
        generation_s = time.monotonic() - generation_start
        spec = {**built, "workdir": workdir, "seconds": args.seconds,
                "trace": args.trace,
                "spans_path": os.path.join(OUT, f"{tag}-spans.npz")}
        spec_path = os.path.join(workdir, "spec.json")
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        result = run_worker(spec_path, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    samples = result["samples"]
    failed = [s for s in samples if "error" in s]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "inputs": {**built["inputs"], "generation_s_untimed": generation_s},
        "machine": result["machine"],
        "attempted": len(samples),
        "failed": len(failed),
        "error_rate": len(failed) / len(samples),
        "failures": [f"master seed {s['master_seed']}: {s['error']}" for s in failed],
    }
    figures = {}
    if len(failed) < len(samples):
        if args.trace:
            figures = dict(result["layers"], **trace_overhead(samples))
            report["layers"] = figures
        else:
            figures, report["end_to_end"] = end_to_end(samples, result["peak_rss_kb"])
    with open(os.path.join(OUT, f"{tag}-trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)

    metrics = {m["name"]: {"value": figures[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in figures}
    print_report(report, figures)
    correct = not failed and len(metrics) == len(wanted)
    print(json.dumps({"correct": correct, "attempted": len(samples),
                      "failed": len(failed), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

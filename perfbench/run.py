"""Benchmark of the speechbp `bp` pipeline, end to end and per module.

    python3 perfbench/run.py --workload cohort-pipeline --seed 1 \
        --seconds 10 --trace 0

Run from the root of a checkout; the package is imported from its src/.
Workloads: cohort-pipeline, predict-wav, cohort-1k-select (see
workloads.py and perfbench/README.md).

With --trace 0 the last stdout line is a JSON object whose metrics are the
end-to-end metrics of BENCHMARK.json.  With --trace 1 the run does one
untraced and one traced pass (and set-up) and reports the per-layer metrics
of the traced pass, plus the tracing overhead on every end-to-end metric.
The lines before it give the machine record and the workload's own named
metrics.  The exit code is 0 only when every correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench-work"
TRACE_DIR = ROOT / ".perfbench-out"

WORKER_TIMEOUT_S = 160.0
CONTENDED_LOAD_PER_CORE = 0.5

# end-to-end metric -> +1 when lower is better, -1 when higher is better
END_TO_END = {"setup_s": 1, "latency_p50_ms": 1, "latency_tail_ms": 1,
              "throughput_per_s": -1, "peak_rss_mb": 1, "ok_ratio": -1}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("cohort-pipeline", "predict-wav",
                                 "cohort-1k-select"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: tiny inputs, for testing the benchmark")
    return parser.parse_args(argv)


def blas_threads():
    """OpenBLAS's own thread count, read from the loaded library."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                return int(getattr(handle, symbol)())
    return None


def machine_record():
    import numpy as np
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def run_worker(work: Path, spec: dict):
    """Run worker.py on spec; returns (its output, its peak RSS in MB)."""
    tag = f"{spec['first_pass']}-{spec['trace']}"
    spec = dict(spec, out=str(work / f"worker-{tag}.out.json"))
    spec_path = work / f"worker-{tag}.json"
    spec_path.write_text(json.dumps(spec))
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"),
                             str(spec_path)], stdout=sys.stderr)
    deadline = time.monotonic() + WORKER_TIMEOUT_S
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                raise TimeoutError(f"worker ran past {WORKER_TIMEOUT_S} s")
            time.sleep(0.05)
    finally:
        if not pid:
            proc.kill()
            os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}")
    return json.loads(Path(spec["out"]).read_text()), usage.ru_maxrss / 1024


def end_to_end(a, setup_s, wall_s, rss_mb):
    """The END_TO_END metrics {name: (value, unit)} and the tail's percentile.

    Latency is over completed units; the tail is the highest percentile with
    at least ten samples beyond it, or the maximum when there are fewer than
    eleven samples.
    """
    import workloads
    lat = sorted(a.latencies)
    n = len(lat)
    tail, pct = (lat[n - 11], 100.0 * (n - 10) / n) if n > 10 else (
        (lat[-1], 100.0) if lat else (math.nan, math.nan))
    return {
        "setup_s": (workloads.median(setup_s), "s"),
        "latency_p50_ms": (1e3 * workloads.median(lat), "ms"),
        "latency_tail_ms": (1e3 * tail, "ms"),
        "throughput_per_s": (n / wall_s, "1/s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "ok_ratio": (a.exit_zero / max(a.invocations, 1), "ratio"),
    }, {"latency_samples": n, "tail_percentile": pct,
        "setup_samples": len(setup_s), "units": a.units}


def timed_setup(workload, i, tracer=None) -> float:
    workload.tracer = tracer
    if tracer is not None:
        tracer.install()
    try:
        start = time.perf_counter()
        workload.setup(i)
        return time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.remove()
        workload.tracer = None


def measure(args, work: Path) -> dict:
    import tracer as tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.size, args.seed, work)
    # repeated set-ups, into separate directories; under --trace 1 the last
    # one is traced and kept out of setup_s
    n = workload.setup_repeats
    setup_s = [timed_setup(workload, i) for i in range(n - args.trace)]
    if args.trace:
        setup_tracer = tracing.Tracer()
        traced_setup_s = timed_setup(workload, n - 1, setup_tracer)
    workload.prepare()

    spec = {"workload": args.workload, "size": args.size, "seed": args.seed,
            "work": str(work), "src": str(SRC), "first_pass": 0,
            "min_passes": workload.min_passes, "seconds": args.seconds,
            "trace": 0}
    if not args.trace:
        out, rss = run_worker(work, spec)
        runs = [(out, rss)]
    else:
        one = dict(spec, min_passes=1, seconds=0)
        runs = [run_worker(work, one),
                run_worker(work, dict(one, first_pass=1, trace=1))]
    passes = [p for out, _ in runs for p in out["passes"]]
    checked = workload.assess(passes)
    failures = checked.failures + workload.final_check(passes)

    untraced = workload.assess(runs[0][0]["passes"])
    metrics, detail = end_to_end(untraced, setup_s, runs[0][0]["wall_s"],
                                 runs[0][1])
    named = dict(untraced.named, **{alias: metrics[name] for alias, name
                                    in workload.aliases.items()})
    result = {"metrics": metrics, "detail": detail, "named": named,
              "attempted": checked.invocations, "failures": failures}
    if args.trace:
        traced_out, traced_rss = runs[1]
        traced, _ = end_to_end(workload.assess(traced_out["passes"]),
                               [traced_setup_s], traced_out["wall_s"],
                               traced_rss)
        setup_summary = setup_tracer.summary()
        layers = tracing.layer_metrics(setup_summary, traced_out["summary"])
        # overhead: how much worse the traced pass read, as a share
        for name, sign in END_TO_END.items():
            base, value = metrics[name][0], traced[name][0]
            layers[f"trace_overhead.{name}"] = (
                sign * (value - base) / base + 0.0 if base else 0.0, "ratio")
        missing = tracing.zero_call_spans(args.workload, setup_summary,
                                          traced_out["summary"])
        failures += [f"span {name} recorded no calls" for name in missing]
        result["metrics"] = layers
        TRACE_DIR.mkdir(exist_ok=True)
        (TRACE_DIR / f"{args.workload}-seed{args.seed}-trace.json").write_text(
            json.dumps({"setup": setup_tracer.spans,
                        "timed": traced_out["spans"]}))
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "speechbp" / "__init__.py").is_file():
        print(f"perfbench: no speechbp package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import speechbp
    if Path(speechbp.__file__).resolve().parent != SRC / "speechbp":
        print(f"perfbench: imported speechbp from {speechbp.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2

    record = {"workload": args.workload, "seed": args.seed,
              "size": args.size, "trace": args.trace,
              "machine": machine_record(), "load_before": os.getloadavg()[0]}
    work = WORK_DIR / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK_DIR.exists() and not any(WORK_DIR.iterdir()):
            WORK_DIR.rmdir()
    record["load_after"] = os.getloadavg()[0]
    # the benchmark's own worker adds about one to the load after the run
    limit = CONTENDED_LOAD_PER_CORE * record["machine"]["nproc"]
    record["contended"] = (record["load_before"] > limit
                           or record["load_after"] - 1.0 > limit)
    record.update(result["detail"], failures=result["failures"],
                  named={name: value for name, (value, _)
                         in result["named"].items()})

    for name, (value, unit) in {**result["named"],
                                **result["metrics"]}.items():
        print(f"{name:42s} {value:14.6g} {unit}")
    print(json.dumps({"record": record}))
    failures = result["failures"]
    for failure in failures:
        print(f"perfbench: check failed: {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": max(result["attempted"], 1),
        "failed": min(len(failures), max(result["attempted"], 1)),
        "metrics": {name: {"value": value if math.isfinite(value) else None,
                           "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())

"""sparsekit benchmark: one workload per invocation.

    python3 perfbench/run.py --workload pipeline-default --seed 1 --seconds 40 --trace 0

Run from the root of a sparsekit checkout; the package is imported from its
`src/`. Prints a table of every metric (name, value, unit, direction), writes
the result to perfbench/results/, and prints one JSON object as the last line:
the gated end-to-end metrics with --trace 0, the per-module metrics of one
extra traced pass with --trace 1. `--workload all` runs the three workloads
in turn and prints only the tables. --seconds defaults to BENCHMARK.json's
run_seconds.
"""
from __future__ import annotations

import os

# BLAS threads are pinned before numpy loads. One thread measured faster than
# OpenBLAS's default of two on the wide prune (8.0-8.5 s against 8.5-9.3 s).
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
RESULTS = Path(__file__).resolve().parent / "results"

# Gated end-to-end metrics, as in BENCHMARK.json: name -> (unit, better).
GATED = {"setup_s": ("s", "lower"), "wall_s": ("s", "lower"),
         "peak_rss_mb": ("MB", "lower"), "tokens_per_s": ("1/s", "higher")}

# Every end-to-end metric a workload reports, gated or not.
REPORTED = {
    **GATED,
    "error_rate": ("ratio", "lower"),
    "stage_s.teacher-prep": ("s", "lower"), "stage_s.task-teacher": ("s", "lower"),
    "stage_s.prune": ("s", "lower"), "stage_s.transfer": ("s", "lower"),
    "stage_s.qat": ("s", "lower"), "stage_s.baseline": ("s", "lower"),
    "mlm_val_loss": ("nats", "lower"), "val_loss": ("nats", "lower"),
    "infer_ms.p50": ("ms", "lower"), "infer_ms.p99": ("ms", "lower"),
    "infer_requests": ("count", "higher"),
    "export_load_ms": ("ms", "lower"), "passes": ("count", "higher"),
}


def import_sparsekit():
    """Put the checkout's src/ first on the path; refuse any other sparsekit."""
    src = ROOT / "src"
    if not (src / "sparsekit" / "__init__.py").is_file():
        sys.exit(f"error: no sparsekit sources under {src}; run from a checkout")
    sys.path.insert(0, str(src))
    import sparsekit
    if Path(sparsekit.__file__).resolve().parent != (src / "sparsekit").resolve():
        sys.exit(f"error: imported sparsekit from {sparsekit.__file__}, not {src}")


def git_commit() -> str:
    """HEAD read from .git without running git; 'unknown' outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def openblas_threads():
    """Thread count reported by the OpenBLAS this process loaded, or None."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads_pinned": int(BLAS_THREADS), "blas_threads": openblas_threads(),
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "git_commit": git_commit()}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from tracing import Tracer, per_layer_metrics
    from workloads import run_workload

    tracer = Tracer() if trace else None
    res = run_workload(name, seed, seconds, tracer)
    checks = res.pop("checks")
    samples = res.pop("samples")
    res["peak_rss_mb"] = peak_rss_mb()
    res["error_rate"] = len(checks.failures) / checks.attempted
    result = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "environment": environment(), "attempted": checks.attempted,
              "failures": checks.failures, "samples": samples,
              "end_to_end": {k: {"value": v, "unit": REPORTED[k][0], "better": REPORTED[k][1]}
                             for k, v in res.items() if k in REPORTED}}
    if trace:
        overhead = res["traced_wall_s"] - res["wall_s"]
        result["per_layer"] = {k: {"value": v, "unit": u}
                               for k, (v, u) in per_layer_metrics(tracer, overhead).items()}
    RESULTS.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}{'-trace' if trace else ''}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    if trace:
        tracer.write(RESULTS / f"{stem}-spans.json.gz")
    return result


def print_table(result: dict) -> None:
    env = result["environment"]
    print(f"# {result['workload']} seed={result['seed']} " +
          " ".join(f"{k}={v}" for k, v in env.items()))
    for name, m in result["end_to_end"].items():
        gate = "gated" if name in GATED else ""
        print(f"{name:24s} {m['value']:>16.6g} {m['unit']:6s} {m['better']:7s}{gate}")
    for name, m in result.get("per_layer", {}).items():
        print(f"{name:44s} {m['value']:>16.6g} {m['unit']}")
    for failure in result["failures"]:
        print(f"FAILED CHECK {failure}")


def main(argv=None) -> int:
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    import_sparsekit()

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [run_one(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    for result in results:
        print_table(result)
    if args.workload == "all":
        return 1 if any(r["failures"] for r in results) else 0

    result = results[0]
    if args.trace:
        metrics = result["per_layer"]
    else:
        metrics = {k: {"value": v["value"], "unit": v["unit"]}
                   for k, v in result["end_to_end"].items() if k in GATED}
    print(json.dumps({"correct": not result["failures"], "attempted": result["attempted"],
                      "failed": len(result["failures"]), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

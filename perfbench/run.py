"""The repository benchmark: one run of one workload.

    python3 perfbench/run.py --workload mushrooms-dense --seed 1 --seconds 20 --trace 0

Run from the repository root.  Each run starts fresh child processes
(``workloads.py``) with a pinned environment: several that only set up,
for the ``setup_s`` median, and one that also runs the timed jobs.  With
``--trace 1`` it instead runs one untraced and one traced child and
reports the per-layer metrics.  Metric names and units come from
``BENCHMARK.json``.  Every line but the last is diagnostic; the last line
is the result: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

from harness import MIN_TAIL_SAMPLES, error_rate, interpolated, median, percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Set-up-only children per untraced run; the measuring child adds one more sample.
SETUP_PROBES = 4
#: The whole run must end within this many seconds.
RUN_DEADLINE_S = 170.0

#: The fixed child environment: one worker, one BLAS/OpenMP thread, contracts off.
PINNED_ENV = {
    "REPRO_JOBS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "REPRO_CONTRACTS": "0",
    "PYTHONHASHSEED": "0",
}
#: Variables that would change which code path runs; removed from the child environment.
UNSET_ENV = ("REPRO_LAZY_THRESHOLD", "PYTHONOPTIMIZE")


class ChildFailed(RuntimeError):
    pass


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in UNSET_ENV}
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def spawn(
    args: argparse.Namespace, deadline: float, trace: int, setup_only: bool
) -> dict[str, Any]:
    """Run one child to completion and return its JSON record."""
    command = [
        sys.executable, str(HERE / "workloads.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(trace),
    ]
    if setup_only:
        command.append("--setup-only")
    command += ["--spawned-at", repr(time.monotonic())]
    # A session of its own, so a timeout can stop the child and its server together.
    proc = subprocess.Popen(
        command, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise ChildFailed(f"{args.workload} child passed the run deadline") from None
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{args.workload} child exited with code {proc.returncode}")
    return json.loads(lines[-1])


def provenance(args: argparse.Namespace, child: dict[str, Any]) -> dict[str, Any]:
    """Where and on what the numbers were taken."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    sha = None
    if (ROOT / ".git").exists():  # an exported checkout has no history to name
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": child.get("python"),
        "numpy": child.get("numpy"),
        "env": PINNED_ENV,
        "host_calib_s": child.get("host_calib_s"),
    }


def end_to_end(
    workload: str, probes: list[dict[str, Any]], main: dict[str, Any]
) -> dict[str, float]:
    jobs = main["jobs"]
    job_s = [job["seconds"] for job in jobs]
    metrics = {
        "setup_s": median([p["setup_s"] for p in probes] + [main["setup_s"]]),
        "consensus_s": median(job_s),
        "disagreement_rate": median(statistics.fmean(job["rates"]) for job in jobs if job["rates"]),
    }
    if workload == "serve-stream":
        observes = [ms for job in jobs for ms in job["observe_ms"]]
        metrics.update(
            read_p50_ms=percentile([ms for job in jobs for ms in job["read_ms"]], 50),
            peak_rss_mb=main["server_peak_rss_mb"],
            observe_p50_ms=percentile(observes, 50),
            observe_p90_ms=percentile(observes, 90, min_beyond=MIN_TAIL_SAMPLES),
        )
    else:
        # A batch workload's only request is the job itself; its reads come
        # from the side reader beside the jobs (see README.md).
        job_ms = [1000.0 * s for s in job_s]
        metrics.update(
            read_p50_ms=percentile(main["side_read_ms"], 50),
            peak_rss_mb=main["peak_rss_mb"],
            observe_p50_ms=interpolated(job_ms, 50),
            observe_p90_ms=interpolated(job_ms, 90),
        )
    return metrics


def per_layer(
    names: list[str], plain: dict[str, Any], traced: dict[str, Any], attempted: int, failed: int
) -> dict[str, float]:
    jobs = traced["jobs"]
    first = jobs[0]
    values = {name: 0.0 for name in names}
    for name in names:
        samples = [job["layers"][name] for job in jobs if name in job["layers"]]
        if samples:
            values[name] = median(samples)
        if name in first["counters"]:
            values[name] = first["counters"][name]
    values["trace_overhead_ratio"] = (
        median(j["seconds"] for j in jobs) / median(j["seconds"] for j in plain["jobs"]) - 1.0
    )
    values["bench.span_coverage"] = min(job["coverage"] for job in jobs)
    values["trace.unattributed_spans"] = float(len(unattributed_names(jobs)))
    values["error_rate"] = error_rate(failed, attempted)
    replayed = traced.get("replay")
    if replayed is not None:
        values["stream.observe_ms"] = median(replayed["observe_ms"])
        values["stream.refine_ms"] = median(replayed["refine_ms"])
        values.update(replayed["counters"])  # the HTTP jobs run no library code here
        observes = [ms for job in jobs for ms in job["observe_ms"]]
        reads = [ms for job in jobs for ms in job["read_ms"]]
        values["serve.observe_overhead_ms"] = (
            percentile(observes, 50) - median(replayed["column_ms"])
        )
        values["serve.read_p99_ms"] = percentile(reads, 99, min_beyond=MIN_TAIL_SAMPLES)
        values["serve.reader_late_ms"] = statistics.fmean(
            ms for job in jobs for ms in job["late_ms"]
        )
        values["serve.batch_size_mean"] = traced.get("batch_size_mean", 0.0)
    return values


def unattributed_names(jobs: list[dict[str, Any]]) -> list[str]:
    return sorted({name for job in jobs for name in job.get("unattributed", ())})


def merged_spans(jobs: list[dict[str, Any]]) -> dict[str, dict[str, float]]:
    """Per span name, total and self seconds summed over the traced jobs."""
    merged: dict[str, dict[str, float]] = {}
    for job in jobs:
        for name, entry in job.get("flat", {}).items():
            into = merged.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            for key in into:
                into[key] += entry[key]
    return merged


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_DEADLINE_S

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} holds no repro sources to benchmark", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    children: list[dict[str, Any]] = []
    try:
        if args.trace:
            plain = spawn(args, deadline, trace=0, setup_only=False)
            traced = spawn(args, deadline, trace=1, setup_only=False)
            children = [plain, traced]
        else:
            probes = [spawn(args, deadline, 0, True) for _ in range(SETUP_PROBES)]
            main_child = spawn(args, deadline, trace=0, setup_only=False)
            children = probes + [main_child]
    except ChildFailed as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    attempted = sum(child["attempted"] for child in children)
    failed = sum(child["failed"] for child in children)

    if args.trace:
        declared = spec["per_layer"]
        values = per_layer([m["name"] for m in declared], plain, traced, attempted, failed)
        detail: dict[str, Any] = {
            "untraced_job_s": [j["seconds"] for j in plain["jobs"]],
            "traced_job_s": [j["seconds"] for j in traced["jobs"]],
            "unattributed": unattributed_names(traced["jobs"]),
            "spans": merged_spans(traced["jobs"]),
        }
        record = children[-1]
    else:
        declared = spec["end_to_end"]
        values = end_to_end(args.workload, probes, main_child)
        detail = {
            "setup_s": [child["setup_s"] for child in children],
            "job_s": [j["seconds"] for j in main_child["jobs"]],
            "error_rate": error_rate(failed, attempted),
        }
        record = main_child
    detail["errors"] = [e for child in children for e in child["errors"]]
    print(json.dumps({"provenance": provenance(args, record), "detail": detail}))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run the benchmark on several seeds and print each metric's median and spread.

    python3 perfbench/steady.py --workload serve-stream --seeds 1-10 [--trace 1]

The spread is the interquartile distance over the median, the measure
``BENCHMARK.json`` bounds; each end-to-end metric should stay below a
third of its bound.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

from harness import median, spread

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    first, last = (int(part) for part in args.seeds.split("-"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    values: dict[str, list[float]] = {m["name"]: [] for m in declared}
    failures = 0
    for seed in range(first, last + 1):
        started = time.monotonic()
        completed = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=False,
        )
        if completed.returncode != 0:
            print(f"seed {seed}: exit {completed.returncode}\n{completed.stderr}", file=sys.stderr)
            return 1
        result = json.loads(completed.stdout.strip().splitlines()[-1])
        failures += result["failed"]
        for name, metric in result["metrics"].items():
            values[name].append(metric["value"])
        print(
            f"seed {seed}: correct={result['correct']} wall={time.monotonic() - started:.1f}s",
            flush=True,
        )

    print(f"{'metric':36s} {'median':>14s} {'spread':>8s} {'bound/3':>8s}")
    for metric in declared:
        samples = values[metric["name"]]
        mid = median(samples)
        share = spread(samples) if len(samples) > 1 and mid else 0.0
        third = f"{metric['bound'] / 3:.4f}" if "bound" in metric else ""
        print(f"{metric['name']:36s} {mid:14.6g} {share:8.4f} {third:>8s}  "
              + " ".join(f"{v:.4g}" for v in samples))
    print(f"failed operations: {failures}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

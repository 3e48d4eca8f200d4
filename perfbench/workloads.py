"""One child process of the repository benchmark.

``run.py`` starts this file in a fresh interpreter with a pinned
environment.  The child sets up one workload (imports, inputs, and an
untimed warm-up job on a small input), runs timed jobs for about
``--seconds`` seconds, gates every result, and prints one JSON object as
its last line of standard output.  ``--setup-only`` stops after set-up,
which is how ``run.py`` takes several set-up samples per run.  With
``--trace 1`` every job runs under ``repro.obs`` tracing and metric
collection, and each job record carries its per-layer numbers.

Workload notes, metric units and the layer table are in ``README.md``
next to this file.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections.abc import Callable
from pathlib import Path
from typing import Any

import numpy as np

from harness import (
    FLOAT32_REL_TOL,
    PIVOT_COST_ENVELOPE,
    Ledger,
    close,
    coverage,
    find,
    flatten,
    self_seconds,
    total_named,
    unattributed,
    walk,
    within_envelope,
)

ROOT = Path(__file__).resolve().parent.parent

# The planted inputs of benchmarks/bench_shard.py and bench_backend.py.
PLANTED_N = 100_000
PLANTED_M = 8
PLANTED_K = 10
PLANTED_NOISE = 0.15
LAZY_ROWS = 10_000
SHARDS = 4
REPEATS = 5
#: planted-label-1e5 jobs per run: three, so the median is one whole job
#: and the p90 is not the slower of two.
PLANTED_JOBS = 3

SERVE_N = 3000
SERVE_COLUMNS = 120
READ_RATE = 200.0  # reader requests per second, open loop
#: Serve jobs per run: two give 240 observes, so 24 lie beyond the p90.
SERVE_JOBS = 2
HTTP_TIMEOUT = 60.0

#: Reads per second of the side reader beside the batch jobs, open loop.
SIDE_READ_RATE = 50.0

# Counters read from repro.obs.metrics on each workload's first job.
COUNTERS = (
    "localsearch.moves",
    "localsearch.sweeps",
    "agglomerative.merges",
    "sampling.recursions",
    "pivot.clusters",
    "stream.warm_updates",
    "stream.rebuilds",
)


# -- process helpers -------------------------------------------------------------


def proc_status_mb(field: str, pid: int | str = "self") -> float:
    """A ``VmRSS``/``VmHWM`` line of ``/proc/<pid>/status``, in MiB."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"{field} missing from /proc/{pid}/status")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def host_calibration_s() -> float:
    """A fixed numpy loop, timed once per run; a noise diagnostic only."""
    a = np.random.default_rng(0).random((300, 300))
    start = time.perf_counter()
    for _ in range(40):
        a @ a
    np.sort(np.random.default_rng(1).random(1_000_000))
    return time.perf_counter() - start


def planted_matrix(n: int, m: int, seed: int) -> np.ndarray:
    """Planted clusters: every column is the ground truth plus 15% label noise."""
    rng = np.random.default_rng(seed)
    truth = rng.integers(0, PLANTED_K, size=n)
    matrix = np.repeat(truth[:, None], m, axis=1)
    flips = rng.random((n, m)) < PLANTED_NOISE
    matrix[flips] = rng.integers(0, PLANTED_K, size=int(flips.sum()))
    return matrix.astype(np.int32)


def pair_rate(disagreements: float, n: int, m: int) -> float:
    """D(C) as a share of all m * n(n-1)/2 (input clustering, pair) votes."""
    return disagreements / (m * n * (n - 1) / 2.0)


def is_partition(labels: np.ndarray, n: int, k: int) -> bool:
    return (
        labels.shape == (n,)
        and np.issubdtype(labels.dtype, np.integer)
        and np.array_equal(np.unique(labels), np.arange(k))
    )


def dense_bytes(spans: list[dict[str, Any]]) -> float:
    """Bytes of every (rows, rows) matrix the dense builds wrote.

    ``disagreement_fractions`` stores float64 up to 4096 rows and float32
    beyond, so the count is computed from each ``instance.build`` span's
    ``rows`` attribute.
    """
    total = 0.0
    for node in walk(spans):
        if node["name"] == "instance.build":
            rows = int(node["attrs"]["rows"])
            total += rows * rows * (8 if rows <= 4096 else 4)
    return total


def under(spans: list[dict[str, Any]], parent: str, name: str) -> float:
    """Seconds of spans called ``name`` inside the first span called ``parent``."""
    node = find(spans, parent)
    return 0.0 if node is None else total_named(node["children"], name)


# -- jobs ------------------------------------------------------------------------


class Context:
    """The ledger and trace switch every job of one child shares."""

    def __init__(self, traced: bool) -> None:
        self.ledger = Ledger()
        self.traced = traced

    def call(
        self, label: str, fn: Callable[..., Any], *args: Any, **kwargs: Any
    ) -> tuple[int, Any]:
        """One library call as a ledger operation inside a ``bench.<label>`` span."""
        from repro.obs import span

        op = self.ledger.attempt()
        with span(f"bench.{label}"):
            try:
                return op, fn(*args, **kwargs)
            except Exception as error:  # every exception is a counted failure
                self.ledger.fail(op, f"{label}: {type(error).__name__}: {error}")
                return op, None

    def solve(
        self, label: str, matrix: np.ndarray, fn: Callable[..., Any], *args: Any, **kwargs: Any
    ) -> tuple[int, float | None]:
        """One aggregation call, then D(C) recomputed, as Table 3's E_D column.

        Returns the ledger operation and the recomputed D(C), or None when
        the call failed or its result is not a partition.
        """
        from repro.obs import span

        op, result = self.call(label, fn, *args, **kwargs)
        with span("bench.score"):
            return op, None if result is None else self._score(op, label, matrix, result)

    def _score(
        self, op: int, label: str, matrix: np.ndarray, result: Any
    ) -> float | None:
        from repro.core import total_disagreement

        labels = np.asarray(result.clustering.labels)
        n = matrix.shape[0]
        if not self.ledger.check(
            op, is_partition(labels, n, result.clustering.k), f"{label}: not a partition of {n}"
        ):
            return None
        exact = float(total_disagreement(matrix, result.clustering, p=0.5))
        self.ledger.check(
            op,
            close(float(result.disagreements), exact, FLOAT32_REL_TOL),
            f"{label}: reported D(C)={result.disagreements!r}, recomputed {exact!r}",
        )
        return exact

    def job(self, body: Callable[[], None]) -> dict[str, Any]:
        """Run ``body`` inside ``bench.job``; traced jobs also return spans and counters."""
        from repro.obs import collecting, span, tracing

        if not self.traced:
            with span("bench.job") as job:
                body()
            return {"seconds": job.seconds}
        with tracing() as trace, collecting() as registry:
            registry.reset()
            with span("bench.job") as job:
                body()
            counters = registry.snapshot()["counters"]
        spans = trace.to_dict()["spans"]
        flat = flatten(spans)
        return {
            "seconds": job.seconds,
            "spans": spans,
            "flat": flat,
            "counters": {name: counters.get(name, 0.0) for name in COUNTERS},
            "coverage": coverage(find(spans, "bench.job"), "bench."),
            "unattributed": unattributed(flat),
        }


#: The benchmark's own call spans that are per-layer metrics by themselves.
CALL_METRICS = {
    "bench.balls": "algorithms.balls_s",
    "bench.agglomerative": "algorithms.agglomerative_s",
    "bench.furthest": "algorithms.furthest_s",
    "bench.local-search": "algorithms.local_search_s",
    "bench.lower_bound": "core.lower_bound_s",
    "bench.sampling": "algorithms.sampling_s",
    "bench.pivot": "algorithms.pivot_s",
    "bench.cmsy": "algorithms.cmsy_s",
    "bench.lazy_balls": "core.backend.lazy_balls_s",
}


def finish(record: dict[str, Any], layers: dict[str, float]) -> dict[str, Any]:
    """Turn a traced job's span tree into per-layer values, then drop the tree."""
    spans = record.pop("spans", None)
    if spans is not None:
        merge = find(spans, "shard.merge")
        layers.update(
            {
                "core.instance.build_s": total_named(spans, "instance.build"),
                "core.instance.bytes_written": dense_bytes(spans),
                "sampling.phase1_s": under(spans, "bench.sampling", "sampling.phase1"),
                "sampling.phase2_s": under(spans, "bench.sampling", "sampling.phase2"),
                "sampling.phase3_s": under(spans, "bench.sampling", "sampling.phase3"),
                "pivot.select_s": under(spans, "bench.pivot", "pivot.select"),
                "pivot.sweep_s": under(spans, "bench.pivot", "pivot.sweep"),
                "shard.solve_s": under(spans, "bench.sharded", "shard.solve"),
                "shard.merge_s": under(spans, "bench.sharded", "shard.merge"),
                "shard.merge_self_s": 0.0 if merge is None else self_seconds(merge),
            }
        )
        for node in walk(spans):
            metric = CALL_METRICS.get(node["name"])
            if metric is not None:
                layers[metric] = layers.get(metric, 0.0) + node["seconds"]
    record["layers"] = layers
    return record


def mushrooms_inputs(seed: int) -> np.ndarray:
    """The fixed Mushrooms stand-in (the paper's single table), rows permuted by ``seed``."""
    from repro.datasets import generate_mushrooms

    matrix = generate_mushrooms(rng=0).label_matrix()
    return matrix[np.random.default_rng(seed).permutation(matrix.shape[0])]


def mushrooms_job(ctx: Context, matrix: np.ndarray, seed: int, first: bool) -> dict[str, Any]:
    """Table 3: dense build, BALLS, AGGLOMERATIVE, FURTHEST, LOCALSEARCH, lower bound."""
    from repro.core import CorrelationInstance, aggregate

    n, m = matrix.shape
    layers: dict[str, float] = {}
    solved: dict[str, tuple[int, Any]] = {}
    bound: list[tuple[int, Any]] = []

    def body() -> None:
        _, instance = ctx.call("build", CorrelationInstance.from_label_matrix, matrix, p=0.5)
        layers["core.rss_after_build_mb"] = proc_status_mb("VmRSS")
        if instance is None:
            return
        for method, params in (
            ("balls", {}),
            ("agglomerative", {}),
            ("furthest", {}),
            ("local-search", {"rng": seed}),
        ):
            rss_before = proc_status_mb("VmRSS")
            solved[method] = ctx.solve(
                method, matrix, aggregate, instance, method=method, compute_lower_bound=False,
                **params,
            )
            if method == "local-search" and first:
                # ru_maxrss only rises, so only a child's first job sees the
                # high-water mark local search sets.
                layers["algorithms.local_search_rss_mb"] = peak_rss_mb() - rss_before
        bound.append(ctx.call("lower_bound", instance.lower_bound))

    record = ctx.job(body)
    lb_op, lb = bound[0] if bound else (0, None)
    rates = []
    for method, (op, exact) in solved.items():
        if exact is None:
            continue
        rates.append(pair_rate(exact, n, m))
        if lb is not None:
            ctx.ledger.check(
                lb_op,
                exact >= m * lb * (1.0 - FLOAT32_REL_TOL),
                f"{method}: D(C)={exact!r} is below m*LB={m * lb!r}",
            )
    record["rates"] = rates
    return finish(record, layers)


def planted_job(ctx: Context, matrix: np.ndarray, seed: int, lazy_rows: int) -> dict[str, Any]:
    """The label path: SAMPLING, sharded, PIVOT, CMSY, then lazy BALLS on a prefix."""
    from repro.core import aggregate
    from repro.shard import QUALITY_ENVELOPE

    n, m = matrix.shape
    layers = {"core.rss_after_build_mb": proc_status_mb("VmRSS")}
    prefix = matrix[:lazy_rows]
    solved: dict[str, tuple[int, Any]] = {}

    def body() -> None:
        for method, params in (
            ("sampling", {}),
            ("sharded", {"n_shards": SHARDS}),
            ("pivot", {"repeats": REPEATS}),
            ("cmsy", {"repeats": REPEATS}),
        ):
            solved[method] = ctx.solve(
                method, matrix, aggregate, matrix, method=method, rng=seed,
                compute_lower_bound=False, **params,
            )
        solved["lazy_balls"] = ctx.solve(
            "lazy_balls", prefix, aggregate, prefix, method="balls", backend="lazy",
            compute_lower_bound=False,
        )

    record = ctx.job(body)
    costs: dict[str, float] = {}
    rates = []
    for method, (op, exact) in solved.items():
        if exact is None:
            continue
        costs[method] = exact / m
        rates.append(pair_rate(exact, prefix.shape[0] if method == "lazy_balls" else n, m))
    base = costs.get("sampling")
    if base is not None:
        for method, envelope in (("sharded", QUALITY_ENVELOPE), ("pivot", PIVOT_COST_ENVELOPE)):
            if method in costs:
                ctx.ledger.check(
                    solved[method][0],
                    within_envelope(costs[method], base, envelope),
                    f"{method}: cost {costs[method]:.1f} exceeds {envelope} x "
                    f"SAMPLING's {base:.1f}",
                )
        if "cmsy" in costs:
            layers["algorithms.cmsy_cost_over_sampling"] = costs["cmsy"] / base
    record["rates"] = rates
    return finish(record, layers)


# -- serve-stream ----------------------------------------------------------------


class Server:
    """``python -m repro serve --port 0`` as a subprocess, stderr captured."""

    def __init__(self, env: dict[str, str]) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0", "--json"],
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        self._stderr: list[str] = []
        self._drains = [self._drain(self.proc.stderr, self._stderr)]
        banner = self.proc.stdout.readline()
        if not banner:
            self.stop()
            raise RuntimeError("repro serve exited before its banner: " + "".join(self._stderr))
        self._drains.append(self._drain(self.proc.stdout, []))
        self.port = int(json.loads(banner)["port"])

    @staticmethod
    def _drain(stream: Any, sink: list[str]) -> threading.Thread:
        thread = threading.Thread(target=lambda: sink.extend(stream))
        thread.start()
        return thread

    def status_mb(self, field: str) -> float:
        return proc_status_mb(field, self.proc.pid)

    def stop(self) -> tuple[int, str]:
        """SIGTERM, wait, and return (exit code, captured stderr)."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait()
        for thread in self._drains:
            thread.join()
        return code, "".join(self._stderr)


class Client:
    """One keep-alive connection; every request is a ledger operation."""

    def __init__(self, port: int, ledger: Ledger) -> None:
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=HTTP_TIMEOUT)
        self.ledger = ledger

    def request(self, method: str, path: str, body: bytes | None = None) -> tuple[int, Any]:
        """Returns (ledger op, parsed JSON body, or None when the request failed)."""
        op = self.ledger.attempt()
        try:
            self.conn.request(method, path, body=body)
            response = self.conn.getresponse()
            payload = response.read()
        except (OSError, http.client.HTTPException) as error:
            self.ledger.fail(op, f"{method} {path}: {type(error).__name__}: {error}")
            return op, None
        if not 200 <= response.status < 300:
            self.ledger.fail(op, f"{method} {path}: HTTP {response.status} {payload[:200]!r}")
            return op, None
        return op, json.loads(payload)

    def close(self) -> None:
        self.conn.close()


class Reader(threading.Thread):
    """Open-loop consensus reads at a fixed rate, timed from each request's due time."""

    def __init__(self, client: Client, path: str) -> None:
        super().__init__()
        self.client = client
        self.path = path
        self.go = threading.Event()
        self.halt = threading.Event()
        self.latency_ms: list[float] = []
        self.late_ms: list[float] = []

    def run(self) -> None:
        self.go.wait()
        origin = time.perf_counter()
        index = 0
        while not self.halt.is_set():
            due = origin + index / READ_RATE
            wait = due - time.perf_counter()
            if wait > 0 and self.halt.wait(wait):
                break
            sent = time.perf_counter()
            self.client.request("GET", self.path)
            self.latency_ms.append(1000.0 * (time.perf_counter() - due))
            self.late_ms.append(1000.0 * (sent - due))
            index += 1


def serve_inputs(n: int, columns: int, seed: int) -> tuple[np.ndarray, list[bytes]]:
    """Planted label columns and their pre-encoded ``/observe`` bodies."""
    matrix = planted_matrix(n, columns, seed)
    bodies = [json.dumps({"labels": matrix[:, j].tolist()}).encode() for j in range(columns)]
    return matrix, bodies


def serve_job(
    ctx: Context,
    server: Server,
    clients: tuple[Client, Client],
    inputs: tuple[np.ndarray, list[bytes]],
    name: str,
    seed: int,
) -> dict[str, Any]:
    """Create a session and POST every column (closed loop) beside 200/s reads."""
    from repro.core import Clustering, total_disagreement
    from repro.obs import span

    writer, reader_client = clients
    matrix, bodies = inputs
    n, m = matrix.shape
    reader = Reader(reader_client, f"/sessions/{name}/consensus?labels=false")
    reader.start()
    observe_ms: list[float] = []
    layers: dict[str, float] = {}

    def body() -> None:
        create = json.dumps({"name": name, "n": n, "seed": seed}).encode()
        with span("bench.session_create"):
            writer.request("POST", "/sessions", create)
        layers["core.rss_after_build_mb"] = server.status_mb("VmRSS")
        for index, payload in enumerate(bodies):
            with span("bench.observe") as step:
                writer.request("POST", f"/sessions/{name}/observe", payload)
            observe_ms.append(1000.0 * step.seconds)
            if index == 0:  # a consensus exists from the first observe on
                reader.go.set()

    try:
        record = ctx.job(body)
    finally:
        reader.go.set()
        reader.halt.set()
        reader.join()
    op, final = writer.request("GET", f"/sessions/{name}/consensus")
    writer.request("DELETE", f"/sessions/{name}")
    record.update(
        observe_ms=observe_ms, read_ms=reader.latency_ms, late_ms=reader.late_ms, rates=[]
    )
    if final is not None:
        labels = np.asarray(final["labels"])
        if ctx.ledger.check(op, is_partition(labels, n, final["k"]), f"{name}: not a partition"):
            exact = float(total_disagreement(matrix, Clustering(labels), p=0.5))
            ctx.ledger.check(
                op,
                close(float(final["disagreements"]), exact, FLOAT32_REL_TOL),
                f"{name}: served D(C)={final['disagreements']!r}, recomputed {exact!r}",
            )
            record["rates"] = [pair_rate(exact, n, m)]
        record.update(final_op=op, final_cost=final["cost"])
    return finish(record, layers)


def replay(matrix: np.ndarray, seed: int) -> dict[str, Any]:
    """The same columns through an in-process ``StreamingAggregator``, traced."""
    from repro.obs import collecting, span, tracing
    from repro.stream import StreamingAggregator

    engine = StreamingAggregator(matrix.shape[0], rng=seed)
    column_ms: list[float] = []
    with tracing() as trace, collecting() as registry:
        registry.reset()
        for j in range(matrix.shape[1]):
            with span("bench.replay_observe") as step:
                engine.observe(matrix[:, j])
            column_ms.append(1000.0 * step.seconds)
        counters = registry.snapshot()["counters"]
    nodes = list(walk(trace.to_dict()["spans"]))
    return {
        "cost": engine.cost(),
        "column_ms": column_ms,
        "observe_ms": [1000.0 * s["seconds"] for s in nodes if s["name"] == "stream.observe"],
        "refine_ms": [1000.0 * s["seconds"] for s in nodes if s["name"] == "stream.refine"],
        "counters": {name: counters.get(name, 0.0) for name in COUNTERS},
    }


def check_replay(ledger: Ledger, jobs: list[dict[str, Any]], replayed: dict[str, Any]) -> None:
    """Every job's served cost must equal the in-process replay's, bit for bit."""
    for record in jobs:
        if "final_cost" in record:
            ledger.check(
                record["final_op"],
                record["final_cost"] == replayed["cost"],
                f"served cost {record['final_cost']!r} != replayed {replayed['cost']!r}",
            )


# -- the side reader (batch workloads) ---------------------------------------------


class SideReader:
    """``workloads.py --side-reader`` as a subprocess that reads beside the batch jobs.

    It starts during set-up, waits for ``go``, then reads at a fixed rate
    until ``stop``, so its samples spread over the whole timed part of the
    run rather than a few moments of it.
    """

    def __init__(self, args: argparse.Namespace) -> None:
        self.proc = subprocess.Popen(
            [
                sys.executable, __file__,
                "--workload", args.workload,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--spawned-at", repr(args.spawned_at),
                "--side-reader",
            ],
            cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def ready(self) -> None:
        if self.proc.stdout.readline().strip() != "ready":
            raise RuntimeError("the side reader exited before it was ready")

    def go(self) -> None:
        self.proc.stdin.write("go\n")
        self.proc.stdin.flush()

    def stop(self) -> dict[str, Any]:
        """Stop reading, wait for the process, and return its record."""
        try:
            stdout, _ = self.proc.communicate("stop\n", timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            stdout, _ = self.proc.communicate()
        lines = stdout.strip().splitlines()
        if self.proc.returncode != 0 or not lines:
            message = f"side reader exited with code {self.proc.returncode}"
            return {"attempted": 1, "failed": 1, "errors": [message], "read_ms": []}
        return json.loads(lines[-1])


def side_reader(matrix: np.ndarray, seed: int) -> dict[str, Any]:
    """The side reader's process: one PIVOT consensus, then timed reads of it.

    One read is one input clustering's distance to the consensus, d(C_j, C),
    cycling over the columns at ``SIDE_READ_RATE``, open loop.  The reader
    keeps each input clustering as its own contiguous label vector, so a
    read touches that clustering only.  The reads' reference values are
    taken untimed first; their sum must match the reported D(C), and every
    timed read must return its column's value.
    """
    from repro.core import aggregate
    from repro.core.distance import expected_column_distance

    n, m = matrix.shape
    ledger = Ledger()
    op = ledger.attempt()
    result = aggregate(matrix, method="pivot", rng=job_seed(seed, -2), compute_lower_bound=False)
    consensus = result.clustering
    labels = np.asarray(consensus.labels)
    ledger.check(op, is_partition(labels, n, consensus.k), f"side reader: not a partition of {n}")
    columns = [np.ascontiguousarray(matrix[:, j]) for j in range(m)]
    reference = [expected_column_distance(column, consensus, p=0.5) for column in columns]
    ledger.check(
        op,
        close(float(result.disagreements), float(sum(reference)), FLOAT32_REL_TOL),
        f"side reader: reported D(C)={result.disagreements!r}, read {sum(reference)!r}",
    )
    print("ready", flush=True)

    read_ms: list[float] = []
    if sys.stdin.readline().strip() == "go":
        halt = threading.Event()

        def wait_for_stop() -> None:
            sys.stdin.readline()
            halt.set()

        threading.Thread(target=wait_for_stop, daemon=True).start()
        origin = time.perf_counter()
        index = 0
        while not halt.is_set():
            wait = origin + index / SIDE_READ_RATE - time.perf_counter()
            if wait > 0 and halt.wait(wait):
                break
            j = index % m
            read = ledger.attempt()
            start = time.perf_counter()
            value = expected_column_distance(columns[j], consensus, p=0.5)
            read_ms.append(1000.0 * (time.perf_counter() - start))
            ledger.check(read, value == reference[j], f"side read of column {j}: {value!r}")
            index += 1
    return {**ledger.to_dict(), "read_ms": read_ms}


# -- the child's main --------------------------------------------------------------


def job_seed(seed: int, index: int) -> int:
    """Per-job seed; index -1 is the warm-up job and -2 the side reader's consensus."""
    return 1000 * seed + index + 1


def run_jobs(
    seconds: float, least: int, job: Callable[[int], dict[str, Any]]
) -> list[dict[str, Any]]:
    """Run at least ``least`` jobs, then more while one more, at the median job time, fits."""
    records: list[dict[str, Any]] = []
    start = time.perf_counter()
    while len(records) < least or (
        time.perf_counter() - start + statistics.median(r["seconds"] for r in records) <= seconds
    ):
        records.append(job(len(records)))
    return records


def run_serve(ctx: Context, args: argparse.Namespace, out: dict[str, Any]) -> None:
    """Server start, two keep-alive connections, warm-up, jobs, replay gate, stop."""
    seed = args.seed
    inputs = serve_inputs(SERVE_N, SERVE_COLUMNS, seed)
    warm_inputs = serve_inputs(200, 8, seed)
    server = Server(dict(os.environ))
    clients = (Client(server.port, ctx.ledger), Client(server.port, ctx.ledger))
    try:
        warm = serve_job(ctx, server, clients, warm_inputs, "warmup", seed)
        out["setup_s"] = time.monotonic() - args.spawned_at
        check_replay(ctx.ledger, [warm], replay(warm_inputs[0], seed))
        if not args.setup_only:
            # Every job uses the run's seed, so one replay checks them all.
            jobs = run_jobs(
                args.seconds,
                SERVE_JOBS,
                lambda i: serve_job(ctx, server, clients, inputs, f"job{i}", seed),
            )
            out["replay"] = replay(inputs[0], seed)
            check_replay(ctx.ledger, jobs, out["replay"])
            _, metrics = clients[0].request("GET", "/metrics")
            if metrics is not None:
                batch = metrics["histograms"].get("serve.batch.size", {})
                out["batch_size_mean"] = batch.get("mean") or 0.0
            out["jobs"] = jobs
    finally:
        # Both connections close before SIGTERM: an open keep-alive
        # connection at shutdown makes the server print a traceback.
        for client in clients:
            client.close()
        out["server_peak_rss_mb"] = server.status_mb("VmHWM")
        code, stderr = server.stop()
        op = ctx.ledger.attempt()
        ctx.ledger.check(op, code == 0, f"repro serve exited with code {code}")
        ctx.ledger.check(op, "Traceback" not in stderr, f"repro serve stderr: {stderr[-800:]}")


def batch_inputs(workload: str, seed: int) -> np.ndarray:
    if workload == "mushrooms-dense":
        return mushrooms_inputs(seed)
    if workload == "planted-label-1e5":
        return planted_matrix(PLANTED_N, PLANTED_M, seed)
    raise ValueError(f"unknown workload {workload!r}")


def run_batch(ctx: Context, args: argparse.Namespace, out: dict[str, Any]) -> None:
    """Side reader start, warm-up, then the jobs with the side reader reading beside them."""
    seed = args.seed
    matrix = batch_inputs(args.workload, seed)
    if args.workload == "mushrooms-dense":
        least = 1

        def job(i: int) -> dict[str, Any]:
            return mushrooms_job(ctx, matrix, job_seed(seed, i), i == 0)

        def warm_up() -> None:
            mushrooms_job(ctx, matrix[:600], job_seed(seed, -1), first=False)
    else:
        least = PLANTED_JOBS

        def job(i: int) -> dict[str, Any]:
            return planted_job(ctx, matrix, job_seed(seed, i), LAZY_ROWS)

        def warm_up() -> None:
            planted_job(ctx, matrix[:3000], job_seed(seed, -1), lazy_rows=1000)

    reader = SideReader(args)
    try:
        warm_up()
        reader.ready()
        out["setup_s"] = time.monotonic() - args.spawned_at
        if not args.setup_only:
            reader.go()
            out["jobs"] = run_jobs(args.seconds, least, job)
    finally:
        side = reader.stop()
    ctx.ledger.absorb(side)
    out["side_read_ms"] = side["read_ms"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spawned-at", type=float, required=True, help="parent's time.monotonic()")
    parser.add_argument("--side-reader", action="store_true", help="be a batch run's side reader")
    args = parser.parse_args(argv)

    if args.side_reader:
        print(json.dumps(side_reader(batch_inputs(args.workload, args.seed), args.seed)))
        return 0
    ctx = Context(traced=bool(args.trace))
    out: dict[str, Any] = {}
    if args.workload == "serve-stream":
        run_serve(ctx, args, out)
    else:
        run_batch(ctx, args, out)

    if not args.setup_only:
        out["host_calib_s"] = host_calibration_s()
    out.update(
        ctx.ledger.to_dict(),
        peak_rss_mb=peak_rss_mb(),
        numpy=np.__version__,
        python=platform.python_version(),
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

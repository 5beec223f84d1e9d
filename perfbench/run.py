"""Cold end-to-end benchmark of the repro simulator, one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The program is driven only through
``python -m repro suite ... --store DIR --jobs 1 --json OUT`` and
``python -m repro serve --store DIR --port 0`` plus its HTTP API, each in a
fresh process against an empty store.  ``--trace 0`` prints the end-to-end
metrics, measured untraced; ``--trace 1`` adds traced runs
(``perfbench/tracer.py``) and prints the per-layer split plus the tracing
overhead.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Every correctness
check that fails counts as a failed operation and makes the exit code 1.
See ``perfbench/README.md`` for the metric and workload definitions.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import http.client
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Scratch stores, generated manifests and the digest ledger; never committed.
STATE_DIR = os.path.join(ROOT, ".perfbench")
LEDGER = os.path.join(STATE_DIR, "digests.json")

sys.path.insert(0, HERE)
import workloads  # noqa: E402  (sibling module of this script)

PY = sys.executable
clock = time.perf_counter

SETUP_PER_CYCLE = 2  # fresh-process set-ups per measurement cycle (median reported)
SERVICE_STARTS = 3  # server starts per service run (median reported)
WARM_PASSES = 8  # warm reruns after each untraced cold pass
MIN_COLD = 3  # untraced cold passes per run, even past --seconds
CLIENTS = 2  # closed-loop service clients (the host has 2 cores)
CHILD_TIMEOUT_S = 150.0

END_TO_END = {
    "setup_s": "s",
    "cold_s": "s",
    "warm_s": "s",
    "peak_rss_mb": "MB",
}
#: Service-only end-to-end metrics (printed by the service workload alone).
SERVICE_END_TO_END = {
    "job_latency_p50_s": "s",
    "job_latency_p90_s": "s",
    "jobs_per_s": "1/s",
}

PER_LAYER = {
    "suite.build_s": "s",
    "suite.run_s": "s",
    "suite.assemble_s": "s",
    "runtime.materialize_s": "s",
    "runtime.materialize_calls": "count",
    "topology.sample_s": "s",
    "schedule.prebuild_s": "s",
    "schedule.lazy_s": "s",
    "schedule.rounds_derived": "count",
    "schedule.edges_decided": "count",
    "schedule.useful_ratio": "ratio",
    "schedule.cache_hits": "count",
    "schedule.cache_misses": "count",
    "engine.run_s": "s",
    "engine.self_s": "s",
    "engine.rounds": "count",
    "engine.rounds_per_s": "1/s",
    "engine.lane.kernel-numpy": "count",
    "engine.lane.counters-kernel-numpy": "count",
    "engine.lane.other": "count",
    "engine.lane_fallbacks": "count",
    "drivers.transmit_s": "s",
    "drivers.receive_s": "s",
    "environment.inputs_s": "s",
    "traffic.arrivals_s": "s",
    "traffic.arrivals": "count",
    "metrics.evaluate_s": "s",
    "store.get_s": "s",
    "store.put_s": "s",
    "store.gets": "count",
    "store.puts": "count",
    "store.hit_ratio": "ratio",
    "store.bytes": "bytes",
    "warm.suite.run_s": "s",
    "warm.suite.assemble_s": "s",
    "warm.store.get_s": "s",
    "trace.untraced_cold_s": "s",
    "trace.traced_cold_s": "s",
    "trace.overhead_s": "s",
}
#: Service-only per-layer metrics (the job queue and HTTP layers).
SERVICE_PER_LAYER = {
    "jobs.queue_wait_s": "s",
    "jobs.run_s": "s",
    "jobs.dedup_cached": "count",
    "jobs.dedup_inflight": "count",
    "jobs.rejected": "count",
    "service.http_overhead_s": "s",
}

#: Per-layer metric -> tracer targets it needs (absent target => absent metric).
NEEDS = {
    "suite.build_s": ("suite.build",),
    "suite.run_s": ("suite.run",),
    "suite.assemble_s": ("suite.run",),
    "warm.suite.run_s": ("suite.run",),
    "warm.suite.assemble_s": ("suite.run",),
    "runtime.materialize_s": ("runtime.materialize",),
    "runtime.materialize_calls": ("runtime.materialize",),
    "topology.sample_s": ("topology.sample",),
    "schedule.prebuild_s": ("schedule.prebuild",),
    "schedule.lazy_s": ("schedule.lazy", "engine.run"),
    "schedule.rounds_derived": ("schedule.lazy", "schedule.prebuild_rounds"),
    "schedule.edges_decided": ("schedule.lazy", "schedule.prebuild_rounds"),
    "schedule.useful_ratio": ("schedule.lazy", "schedule.prebuild_rounds", "drivers.transmit"),
    "schedule.cache_hits": ("schedule.cache",),
    "schedule.cache_misses": ("schedule.cache",),
    "engine.run_s": ("engine.run",),
    "engine.self_s": ("engine.run",),
    "engine.rounds": ("engine.run",),
    "engine.rounds_per_s": ("engine.run",),
    "drivers.transmit_s": ("drivers.transmit", "engine.run"),
    "drivers.receive_s": ("drivers.receive", "engine.run"),
    "environment.inputs_s": ("environment.inputs",),
    "traffic.arrivals_s": ("traffic.arrivals",),
    "traffic.arrivals": ("traffic.arrivals",),
    "metrics.evaluate_s": ("metrics.evaluate",),
    "store.get_s": ("store.get",),
    "warm.store.get_s": ("store.get",),
    "store.put_s": ("store.put",),
    "store.gets": ("store.get",),
    "store.puts": ("store.put",),
    "store.hit_ratio": ("store.get",),
}


# ----------------------------------------------------------------------
# small helpers
# ----------------------------------------------------------------------
def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values: List[float], q: int) -> float:
    """The ``q``-th percentile (inclusive interpolation); the median for one value."""
    if len(values) < 2:
        return median(values)
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def dir_bytes(path: str) -> int:
    total = 0
    for folder, _dirs, files in os.walk(path):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(folder, name))
            except OSError:
                continue
    return total


def digest(data: Any) -> str:
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()[:16]


class Checks:
    """Operation and correctness-check accounting for one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def ops(self, attempted: int, failed: int = 0, why: str = "") -> None:
        self.attempted += attempted
        if failed:
            self.failed += failed
            self.failures.append(f"{failed} operation(s) failed: {why}")

    def expect(self, ok: bool, why: str) -> bool:
        if not ok:
            self.failed += 1
            self.failures.append(why)
        return ok


class Child:
    """One spawned program process, timed from spawn and reaped with its rusage."""

    #: Every child not yet reaped, so an aborted run can still stop them all.
    live: List["Child"] = []

    def __init__(self, argv: List[str], work: str, stdout: Any = subprocess.DEVNULL) -> None:
        fd, self.stderr_path = tempfile.mkstemp(prefix="stderr-", dir=work)
        self._stderr = os.fdopen(fd, "wb")
        self.spawned = time.monotonic()
        self.start = clock()
        self.proc = subprocess.Popen(
            argv, cwd=ROOT, env=child_env(), stdout=stdout, stderr=self._stderr
        )
        Child.live.append(self)
        self.wall_s = 0.0
        self.rss_mb = 0.0
        self.returncode: Optional[int] = None

    def wait(self, timeout: float = CHILD_TIMEOUT_S) -> int:
        watchdog = threading.Timer(timeout, self.proc.kill)
        watchdog.start()
        try:
            _pid, status, usage = os.wait4(self.proc.pid, 0)
        finally:
            watchdog.cancel()
        self.wall_s = clock() - self.start
        self.rss_mb = usage.ru_maxrss / 1024.0  # KiB on Linux
        self.returncode = self.proc.returncode = os.waitstatus_to_exitcode(status)
        self._stderr.close()
        Child.live.remove(self)
        return self.returncode

    def stop(self) -> int:
        if self.returncode is None:
            self.proc.send_signal(signal.SIGTERM)
        return self.wait(timeout=30.0)

    def stderr_tail(self) -> str:
        with open(self.stderr_path, "rb") as handle:
            return handle.read()[-2000:].decode("utf-8", "replace")


def load_report(path: str) -> Optional[Dict[str, Any]]:
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return None


def import_program():
    """The program's own report normalization (deterministic-key filter)."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    from repro.scenarios.suite import SuiteSpec, deterministic_report_dict

    return SuiteSpec, deterministic_report_dict


@functools.lru_cache(maxsize=None)
def source_digest() -> str:
    """Content hash of the program source, so the digest ledger compares runs
    of the same code only."""
    sha = hashlib.sha256()
    for folder, dirs, files in sorted(os.walk(os.path.join(SRC, "repro"))):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                sha.update(os.path.relpath(os.path.join(folder, name), SRC).encode())
                with open(os.path.join(folder, name), "rb") as handle:
                    sha.update(handle.read())
    return sha.hexdigest()[:16]


def ledger_check(checks: Checks, key: str, value: str) -> None:
    """The report digest of ``key`` must match every earlier run of the same
    program source in this checkout."""
    key = f"{source_digest()}:{key}"
    ledger: Dict[str, str] = {}
    if os.path.exists(LEDGER):
        with open(LEDGER, encoding="utf-8") as handle:
            ledger = json.load(handle)
    previous = ledger.setdefault(key, value)
    checks.expect(previous == value, f"report digest of {key} is {value}, an earlier run had {previous}")
    tmp = LEDGER + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(ledger, handle, sort_keys=True, indent=1)
    os.replace(tmp, LEDGER)


# ----------------------------------------------------------------------
# traced-run reduction
# ----------------------------------------------------------------------
def layer_metrics(trace: Dict[str, Any], prefix: str = "") -> Dict[str, float]:
    """Per-layer metrics of one traced process (see PER_LAYER / README)."""
    spans, counts = trace["spans"], trace["counts"]

    def total(name: str) -> float:
        return spans.get(name, {}).get("total_s", 0.0)

    def own(name: str) -> float:
        return spans.get(name, {}).get("self_s", 0.0)

    engine_s = total("engine.run")
    rounds = counts.get("engine.rounds", 0)
    decided = counts.get("schedule.edges_decided", 0)
    gets = counts.get("store.gets", 0)
    metrics = {
        "suite.build_s": total("suite.build"),
        "suite.run_s": total("suite.run"),
        "suite.assemble_s": own("suite.run"),
        "runtime.materialize_s": total("runtime.materialize"),
        "runtime.materialize_calls": counts.get("runtime.materialize_calls", 0),
        "topology.sample_s": total("topology.sample"),
        "schedule.prebuild_s": total("schedule.prebuild"),
        # lazy_set calls the id view on a miss: its self time plus every id
        # view call is the union without double counting.
        "schedule.lazy_s": total("schedule.lazy") + own("schedule.lazy_set"),
        "schedule.rounds_derived": counts.get("schedule.rounds_derived", 0),
        "schedule.edges_decided": decided,
        "schedule.useful_ratio": counts.get("schedule.useful_edges", 0) / decided if decided else 0.0,
        "schedule.cache_hits": counts.get("schedule.cache_hits", 0),
        "schedule.cache_misses": counts.get("schedule.cache_misses", 0),
        "engine.run_s": engine_s,
        "engine.self_s": own("engine.run"),
        "engine.rounds": rounds,
        "engine.rounds_per_s": rounds / engine_s if engine_s else 0.0,
        "drivers.transmit_s": total("drivers.transmit"),
        "drivers.receive_s": total("drivers.receive"),
        "environment.inputs_s": total("environment.inputs"),
        "traffic.arrivals_s": total("traffic.arrivals"),
        "traffic.arrivals": counts.get("traffic.arrivals", 0),
        "metrics.evaluate_s": total("metrics.evaluate"),
        "store.get_s": total("store.get"),
        "store.put_s": total("store.put"),
        "store.gets": gets,
        "store.puts": counts.get("store.puts", 0),
        "store.hit_ratio": counts.get("store.hits", 0) / gets if gets else 0.0,
    }
    absent = set(trace["absent"])
    return {
        prefix + name: value
        for name, value in metrics.items()
        if not absent.intersection(NEEDS.get(name, ()))
    }


def median_metrics(samples: List[Dict[str, float]]) -> Dict[str, float]:
    names = set().union(*samples) if samples else set()
    return {name: median([s[name] for s in samples if name in s]) for name in names}


def lane_census(reports: List[Dict[str, Any]]) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """Trials per engine lane (median over reports), plus a record of every
    lane seen and every fallback reason with its trial count."""
    per_report = []
    seen: Dict[str, int] = {}
    reasons: Dict[str, int] = {}
    for report in reports:
        lanes = {"engine.lane.kernel-numpy": 0, "engine.lane.counters-kernel-numpy": 0,
                 "engine.lane.other": 0, "engine.lane_fallbacks": 0}
        for entry in report["entries"]:
            result = entry["result"]
            trials = len(result.get("trials", ()))
            perf = result.get("perf_stats", {})
            seen[str(perf.get("lane"))] = seen.get(str(perf.get("lane")), 0) + trials
            name = "engine.lane." + str(perf.get("lane"))
            lanes[name if name in lanes else "engine.lane.other"] += trials
            fallback = perf.get("lane_fallback")
            if fallback:
                lanes["engine.lane_fallbacks"] += trials
                reasons[f"{perf.get('lane')}: {fallback}"] = reasons.get(
                    f"{perf.get('lane')}: {fallback}", 0) + trials
        per_report.append(lanes)
    backends = sorted({lane.rsplit("-", 1)[-1] for lane in seen if "kernel" in lane})
    return median_metrics(per_report), {
        "lanes": seen, "lane_fallback_reasons": reasons, "kernel_backend": backends,
    }


# ----------------------------------------------------------------------
# suite workloads
# ----------------------------------------------------------------------
SETUP_PROBE = (
    "import sys, time\n"
    "import repro.scenarios.cli\n"  # what `python -m repro` imports
    "from repro.scenarios.suite import SuiteSpec\n"
    "SuiteSpec.load(sys.argv[1]).fingerprint()\n"
    "print(repr(time.monotonic()), flush=True)\n"
)


def setup_probe(manifest: str, work: str) -> float:
    """Seconds from spawn until the suite is built and validated."""
    child = Child([PY, "-c", SETUP_PROBE, manifest], work, stdout=subprocess.PIPE)
    with child.proc.stdout:
        ready = child.proc.stdout.read()
    if child.wait() != 0:
        raise RuntimeError(f"set-up probe failed:\n{child.stderr_tail()}")
    return float(ready) - child.spawned


def suite_command(manifest: str, store: str, out: str) -> List[str]:
    return ["suite", manifest, "--store", store, "--jobs", "1", "--json", out, "--quiet"]


def run_cli(args: List[str], work: str, trace_out: Optional[str] = None) -> Child:
    if trace_out is None:
        argv = [PY, "-m", "repro"] + args
    else:
        argv = [PY, os.path.join(HERE, "tracer.py"), trace_out, "--"] + args
    child = Child(argv, work)
    child.wait()
    return child


class SuiteRun:
    def __init__(self, workload: str, seed: int, work: str, checks: Checks) -> None:
        self.workload = workload
        self.seed = seed
        self.work = work
        self.checks = checks
        self.manifest = os.path.join(work, f"{workload}.json")
        with open(self.manifest, "w", encoding="utf-8") as handle:
            json.dump(workloads.suite_manifest(workload, seed), handle, indent=1, sort_keys=True)
        _, self.normalize = import_program()
        self.reference: Optional[str] = None
        self.cold_reports: List[Dict[str, Any]] = []
        self.cold_s: List[float] = []
        self.rss_mb: List[float] = []
        self.warm_s: List[float] = []
        self.traced_cold_s: List[float] = []
        self.traced_layers: List[Dict[str, float]] = []
        self.setups: List[float] = []

    def _cold(self, store: str, traced: bool) -> Optional[Tuple[Dict[str, Any], Child, Optional[dict]]]:
        out = os.path.join(self.work, "cold.json")
        trace_out = os.path.join(self.work, "cold-trace.json") if traced else None
        child = run_cli(suite_command(self.manifest, store, out), self.work, trace_out)
        report = load_report(out) if child.returncode == 0 else None
        if report is None:
            self.checks.ops(1, 1, f"cold pass exited {child.returncode}:\n{child.stderr_tail()}")
            return None
        tasks = report["store"]["tasks"]
        self.checks.ops(tasks)
        self.checks.expect(report["store"]["misses"] == tasks, "cold pass served trials from an empty store")
        normalized = digest(self.normalize(report))
        if self.reference is None:
            self.reference = normalized
        self.checks.expect(normalized == self.reference, "cold reports differ between passes of one run")
        if self.workload == "sparse-ack":
            self._check_timely_ack(report)
        trace = load_report(trace_out) if trace_out else None
        if traced and trace is None:
            self.checks.expect(False, "traced pass wrote no trace")
        return report, child, trace

    def _check_timely_ack(self, report: Dict[str, Any]) -> None:
        """The paper's timely-ack condition: no ack later than its bound, none pending."""
        for entry in report["entries"]:
            summary = entry["result"]["metric_summaries"]
            violations = summary["ack_delay.bound_violations"]["sum"]
            pending = summary["ack_delay.pending"]["sum"]
            acked, sent = summary["ack_delay.acked"]["sum"], summary["ack_delay.broadcasts"]["sum"]
            self.checks.expect(
                violations == 0 and pending == 0 and acked == sent,
                f"{entry['id']}: timely ack violated ({violations} late, {pending} pending, "
                f"{acked}/{sent} acked)",
            )

    def _warm(self, store: str, cold: Dict[str, Any], trace_out: Optional[str] = None):
        out = os.path.join(self.work, "warm.json")
        child = run_cli(suite_command(self.manifest, store, out), self.work, trace_out)
        report = load_report(out) if child.returncode == 0 else None
        tasks = cold["store"]["tasks"]
        if report is None:
            self.checks.ops(tasks, tasks, f"warm pass exited {child.returncode}:\n{child.stderr_tail()}")
            return None
        self.checks.ops(tasks)
        self.checks.expect(report["store"]["misses"] == 0, f"warm pass missed {report['store']['misses']} trial(s)")
        self.checks.expect(
            json.dumps(self.normalize(report), sort_keys=True)
            == json.dumps(self.normalize(cold), sort_keys=True),
            "warm report differs from the cold report",
        )
        return report

    def cycle(self, traced: bool) -> None:
        # Set-up probes are spread over the run so one burst of host load
        # cannot move all of them.
        self.setups.extend(setup_probe(self.manifest, self.work) for _ in range(SETUP_PER_CYCLE))
        store = tempfile.mkdtemp(prefix="store-", dir=self.work)
        try:
            result = self._cold(store, traced)
            if result is None:
                return
            report, child, trace = result
            if not traced:
                self.cold_s.append(child.wall_s)
                self.rss_mb.append(child.rss_mb)
                self.cold_reports.append(report)
                for _ in range(WARM_PASSES):
                    warm = self._warm(store, report)
                    if warm is not None:
                        self.warm_s.append(warm["elapsed_s"])
                return
            self.traced_cold_s.append(child.wall_s)
            layers = layer_metrics(trace) if trace else {}
            layers["store.bytes"] = dir_bytes(store)
            warm_trace = os.path.join(self.work, "warm-trace.json")
            if self._warm(store, report, warm_trace) is not None:
                warm_layers = load_report(warm_trace)
                if warm_layers is not None:
                    warm = layer_metrics(warm_layers, prefix="warm.")
                    for name in ("warm.suite.run_s", "warm.suite.assemble_s", "warm.store.get_s"):
                        if name in warm:
                            layers[name] = warm[name]
                    if "store.hit_ratio" in layers:
                        # Over both passes the benchmark makes: cold then warm.
                        both = [trace["counts"], warm_layers["counts"]]
                        gets = sum(counts.get("store.gets", 0) for counts in both)
                        hits = sum(counts.get("store.hits", 0) for counts in both)
                        layers["store.hit_ratio"] = hits / gets if gets else 0.0
            self.traced_layers.append(layers)
        finally:
            shutil.rmtree(store, ignore_errors=True)

    def execute(self, seconds: float, trace: bool) -> Tuple[Dict[str, float], Dict[str, Any]]:
        setup_probe(self.manifest, self.work)  # discarded: first touch of files and caches
        deadline = clock() + seconds
        turn = 0
        while True:
            traced = trace and turn % 2 == 1
            started = clock()
            self.cycle(traced)
            turn += 1
            if self.checks.failed:
                break
            enough = len(self.cold_s) >= MIN_COLD and (not trace or len(self.traced_cold_s) >= 2)
            # Stop when the next cycle would end past the deadline, so a run
            # lasts about --seconds whatever the cycle length.
            if enough and clock() + (clock() - started) / 2 >= deadline:
                break
        if self.reference is not None:
            ledger_check(self.checks, f"{self.workload}:{self.seed}", self.reference)
        lanes, record = lane_census(self.cold_reports)
        record.update(
            report_digest=self.reference,
            cold_pass_s=[round(value, 4) for value in self.cold_s],
            warm_pass_s=[round(value, 6) for value in self.warm_s],
            setup_pass_s=[round(value, 5) for value in self.setups],
            warm_passes=len(self.warm_s),
            traced_passes=len(self.traced_cold_s),
        )
        if not trace:
            metrics = {
                "setup_s": median(self.setups),
                "cold_s": median(self.cold_s),
                "warm_s": median(self.warm_s),
                "peak_rss_mb": median(self.rss_mb),
            }
            return metrics, record
        metrics = median_metrics(self.traced_layers)
        metrics.update(lanes)
        untraced, traced_cold = median(self.cold_s), median(self.traced_cold_s)
        metrics["trace.untraced_cold_s"] = untraced
        metrics["trace.traced_cold_s"] = traced_cold
        metrics["trace.overhead_s"] = traced_cold - untraced
        return metrics, record


# ----------------------------------------------------------------------
# service workload
# ----------------------------------------------------------------------
READY_PREFIX = "repro service listening on "


class Server:
    def __init__(self, work: str, trace_out: Optional[str] = None) -> None:
        self.store = tempfile.mkdtemp(prefix="svc-store-", dir=work)
        args = ["serve", "--store", self.store, "--port", "0"]
        if trace_out is None:
            argv = [PY, "-m", "repro"] + args
        else:
            argv = [PY, os.path.join(HERE, "tracer.py"), trace_out, "--"] + args
        self.child = Child(argv, work, stdout=subprocess.PIPE)
        # A server that never gets ready is killed, which ends the readline.
        watchdog = threading.Timer(CHILD_TIMEOUT_S, self.child.proc.kill)
        watchdog.start()
        line = self.child.proc.stdout.readline().decode()
        watchdog.cancel()
        self.setup_s = time.monotonic() - self.child.spawned
        if not line.startswith(READY_PREFIX):
            self.child.stop()
            self.child.proc.stdout.close()
            raise RuntimeError(f"service did not start: {line!r}\n{self.child.stderr_tail()}")
        host_port = line[len(READY_PREFIX):].strip().split("//", 1)[-1]
        self.host, port = host_port.rsplit(":", 1)
        self.port = int(port)
        # Drain the rest of stdout so the server never blocks on a full pipe.
        self._drain = threading.Thread(target=self.child.proc.stdout.read, daemon=True)
        self._drain.start()

    def request(self, method: str, path: str, body: Optional[bytes] = None) -> Tuple[int, bytes]:
        connection = http.client.HTTPConnection(self.host, self.port, timeout=CHILD_TIMEOUT_S)
        try:
            headers = {"Content-Type": "application/json"} if body is not None else {}
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def stop(self) -> float:
        self.child.stop()
        self._drain.join(timeout=10)
        self.child.proc.stdout.close()
        return self.child.rss_mb


class ServiceRun:
    def __init__(self, seed: int, work: str, checks: Checks) -> None:
        self.seed = seed
        self.work = work
        self.checks = checks
        self.plan = workloads.service_plan(seed, 20000)
        self.suites: Dict[int, Dict[str, Any]] = {}
        self.SuiteSpec, self.normalize = import_program()
        self.reports: Dict[str, bytes] = {}  # fingerprint -> first report bytes
        self.suite_of: Dict[str, int] = {}  # fingerprint -> suite index

    def suite(self, index: int) -> Dict[str, Any]:
        if index not in self.suites:
            self.suites[index] = workloads.service_suite(self.seed, index)
        return self.suites[index]

    def load(self, server: Server, seconds: float) -> List[Dict[str, Any]]:
        """Closed loop: each client submits, waits for the report, repeats."""
        bodies: Dict[int, bytes] = {}
        lock = threading.Lock()
        positions = iter(range(len(self.plan)))
        results: List[Dict[str, Any]] = []
        deadline = clock() + seconds

        def client() -> None:
            while clock() < deadline:
                with lock:
                    index, _repeat = self.plan[next(positions)]
                    if index not in bodies:
                        bodies[index] = json.dumps({"suite": self.suite(index)}).encode()
                    body = bodies[index]
                results.append(self.submit(server, index, body))

        threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
        started = clock()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        self.window_s = clock() - started
        return results

    def submit(self, server: Server, index: int, body: bytes) -> Dict[str, Any]:
        """One closed-loop operation: submit, wait for the job, read the report."""
        start = clock()
        outcome: Dict[str, Any] = {"index": index, "ok": False}
        try:
            status, payload = server.request("POST", "/v1/jobs", body)
            if status not in (200, 201):
                outcome["error"] = f"submit answered HTTP {status}: {payload[:200]!r}"
                return outcome
            answer = json.loads(payload)
            job = answer["job"]
            outcome.update(job_id=job["id"], dedup=answer["dedup"], fingerprint=job["fingerprint"])
            if job["state"] != "done":
                status, _events = server.request("GET", f"/v1/jobs/{job['id']}/events")
                if status != 200:
                    outcome["error"] = f"event stream answered HTTP {status}"
                    return outcome
            status, report = server.request("GET", f"/v1/jobs/{job['id']}/report")
            outcome["latency_s"] = clock() - start
            if status != 200:
                outcome["error"] = f"report answered HTTP {status}: {report[:200]!r}"
                return outcome
            outcome["report"] = report
            outcome["ok"] = True
        except (OSError, ValueError, KeyError, http.client.HTTPException) as error:
            outcome["error"] = f"{type(error).__name__}: {error}"
        return outcome

    def account(self, results: List[Dict[str, Any]]) -> None:
        """Count one server's jobs; every client of a fingerprint must get
        the same report bytes from that server."""
        failed = [r for r in results if not r["ok"]]
        self.checks.ops(len(results), len(failed), failed[0]["error"] if failed else "")
        served: Dict[str, bytes] = {}
        for result in results:
            if not result["ok"]:
                continue
            fingerprint = result["fingerprint"]
            first = served.setdefault(fingerprint, result["report"])
            self.reports.setdefault(fingerprint, result["report"])
            self.suite_of[fingerprint] = result["index"]
            self.checks.expect(first == result["report"], f"service served two different reports for {fingerprint}")

    def verify_against_cli(self) -> None:
        """Each distinct service report must equal the cold CLI report of its
        suite.  One fresh ``python -m repro suite`` pass over the union of
        the suites' entries (ids are unique per suite) gives every entry and
        group result; suite identity comes from the submitted manifest."""
        if not self.reports:
            return
        union = {"name": f"perfbench-service-check-s{self.seed}", "version": 1, "entries": []}
        for fingerprint in sorted(self.reports):
            union["entries"].extend(self.suite(self.suite_of[fingerprint])["entries"])
        manifest = os.path.join(self.work, "service-check.json")
        with open(manifest, "w", encoding="utf-8") as handle:
            json.dump(union, handle)
        store = tempfile.mkdtemp(prefix="check-store-", dir=self.work)
        out = os.path.join(self.work, "service-check-report.json")
        child = run_cli(suite_command(manifest, store, out), self.work)
        cli = load_report(out) if child.returncode == 0 else None
        if not self.checks.expect(cli is not None, f"CLI check pass failed:\n{child.stderr_tail()}"):
            return
        cli = self.normalize(cli)
        entries = {entry["id"]: entry for entry in cli["entries"]}
        for fingerprint, data in sorted(self.reports.items()):
            served = self.normalize(json.loads(data))
            spec = self.SuiteSpec.from_dict(self.suite(self.suite_of[fingerprint]))
            expected = {
                "entries": [entries[entry.id] for entry in spec.entries],
                "fingerprint": spec.fingerprint(),
                "groups": {group: cli["groups"][group] for group in spec.groups},
                "suite": self.normalize(spec.to_dict()),
            }
            self.checks.expect(
                json.dumps(served, sort_keys=True) == json.dumps(expected, sort_keys=True),
                f"service report of {fingerprint} differs from the cold CLI report",
            )
            ledger_check(self.checks, f"service:{fingerprint}", digest(served))

    def execute(self, seconds: float, trace: bool) -> Tuple[Dict[str, float], Dict[str, Any]]:
        setups = []
        for _ in range(SERVICE_STARTS - 1):
            server = Server(self.work)
            setups.append(server.setup_s)
            server.stop()
        server = Server(self.work)
        setups.append(server.setup_s)
        window = seconds / 2 if trace else seconds
        results = self.load(server, window)
        rss = server.stop()
        self.account(results)
        record: Dict[str, Any] = {}
        metrics = self.end_to_end(results, setups, rss)
        untraced_cold = metrics["cold_s"]
        record["jobs"] = len(results)
        record["fresh_jobs"] = sum(1 for r in results if r.get("dedup") == "new")
        if trace:
            trace_out = os.path.join(self.work, "server-trace.json")
            server = Server(self.work, trace_out)
            traced = self.load(server, window)
            stats = descriptors = None
            status, body = server.request("GET", "/stats")
            if status == 200:
                stats = json.loads(body)
            status, body = server.request("GET", "/v1/jobs")
            if status == 200:
                descriptors = {job["id"]: job for job in json.loads(body)["jobs"]}
            store_bytes = dir_bytes(server.store)
            server.stop()
            self.account(traced)
            layers = load_report(trace_out)
            self.checks.expect(layers is not None and stats is not None and descriptors is not None,
                               "traced service run lost its trace, /stats or job list")
            traced_metrics = self.end_to_end(traced, [], 0.0)
            metrics = layer_metrics(layers) if layers else {}
            metrics.update(self.job_layers(traced, stats or {}, descriptors or {}))
            metrics["store.bytes"] = store_bytes
            metrics["warm.suite.run_s"] = metrics["warm.suite.assemble_s"] = metrics["warm.store.get_s"] = 0.0
            metrics.update(lane_census([json.loads(r["report"]) for r in traced if r["ok"]])[0])
            metrics["trace.untraced_cold_s"] = untraced_cold
            metrics["trace.traced_cold_s"] = traced_metrics["cold_s"]
            metrics["trace.overhead_s"] = traced_metrics["cold_s"] - untraced_cold
            record["traced_jobs"] = len(traced)
        self.verify_against_cli()
        reports = [json.loads(data) for data in self.reports.values()]
        record.update(lane_census(reports)[1])
        record["distinct_suites"] = len(self.reports)
        return metrics, record

    def end_to_end(self, results: List[Dict[str, Any]], setups: List[float], rss: float) -> Dict[str, float]:
        done = [r for r in results if r["ok"]]
        latencies = [r["latency_s"] for r in done]
        fresh = [r["latency_s"] for r in done if r["dedup"] == "new"]
        cached = [r["latency_s"] for r in done if r["dedup"] == "cached"]
        return {
            "setup_s": median(setups),
            "cold_s": median(fresh),
            "warm_s": median(cached),
            "peak_rss_mb": rss,
            "job_latency_p50_s": percentile(latencies, 50),
            "job_latency_p90_s": percentile(latencies, 90),
            "jobs_per_s": len(done) / self.window_s if self.window_s else 0.0,
        }

    @staticmethod
    def job_layers(results, stats, descriptors) -> Dict[str, float]:
        waits, runs, overheads = [], [], []
        for result in results:
            if not result["ok"]:
                continue
            job = descriptors.get(result["job_id"], {})
            if result["dedup"] == "new" and job.get("started_at") and job.get("finished_at"):
                wait = job["started_at"] - job["created_at"]
                run = job["finished_at"] - job["started_at"]
                waits.append(wait)
                runs.append(run)
                overheads.append(result["latency_s"] - wait - run)
            elif result["dedup"] == "cached":
                overheads.append(result["latency_s"])
        counters = stats.get("counters", {})
        return {
            "jobs.queue_wait_s": median(waits),
            "jobs.run_s": median(runs),
            "jobs.dedup_cached": counters.get("dedup_cached", 0),
            "jobs.dedup_inflight": counters.get("dedup_inflight", 0),
            "jobs.rejected": counters.get("rejected", 0),
            "service.http_overhead_s": median(overheads),
        }


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
def host_record() -> Dict[str, Any]:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "loadavg_start": os.getloadavg(),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program source under {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    # SIGTERM unwinds through the cleanup below, so no child outlives the run.
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(143))
    record = host_record()
    os.makedirs(STATE_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=STATE_DIR)
    checks = Checks()
    try:
        # Byte-compile once so every measured process starts like an
        # installed package does, whatever PYTHONDONTWRITEBYTECODE says.
        subprocess.run([PY, "-m", "compileall", "-q", os.path.join(SRC, "repro")],
                       cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        if args.workload == workloads.SERVICE_WORKLOAD:
            runner: Any = ServiceRun(args.seed, work, checks)
        else:
            runner = SuiteRun(args.workload, args.seed, work, checks)
        metrics, details = runner.execute(args.seconds, bool(args.trace))
    finally:
        for child in list(Child.live):
            child.proc.kill()
            child.wait()
        shutil.rmtree(work, ignore_errors=True)
    record.update(details)
    record["loadavg_end"] = os.getloadavg()
    record["workload"], record["seed"], record["trace"] = args.workload, args.seed, args.trace

    service = args.workload == workloads.SERVICE_WORKLOAD
    if args.trace:
        units = {**PER_LAYER, **SERVICE_PER_LAYER} if service else PER_LAYER
    else:
        units = {**END_TO_END, **SERVICE_END_TO_END} if service else END_TO_END
    error_rate = checks.failed / checks.attempted if checks.attempted else 1.0
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, unit in units.items():
        if name in metrics:
            print(f"  {name:<36} {metrics[name]:>14.6g} {unit}")
        else:
            print(f"  {name:<36} {'absent':>14}")
    print(f"  {'error_rate':<36} {error_rate:>14.6g} ratio  ({checks.failed} of {checks.attempted})")
    for failure in checks.failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    print("record " + json.dumps(record, sort_keys=True))
    result = {
        "correct": checks.failed == 0,
        "attempted": max(checks.attempted, 1),
        "failed": checks.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items() if name in metrics
        },
    }
    print(json.dumps(result, sort_keys=True))
    return 0 if checks.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

"""Per-layer tracing from outside the program.

``python perfbench/tracer.py OUT.json -- <python -m repro arguments>`` imports
the program, wraps a fixed list of its public functions and methods with
timing spans and counters, runs ``repro.scenarios.cli.main`` with the given
arguments in the same process, and writes the aggregated spans to
``OUT.json`` when the command returns (for ``serve``, after SIGTERM).

Spans nest per thread.  A span's self time is its duration minus the time of
the spans directly inside it.  A target re-entered while already open (a
subclass override calling ``super()``, a cohort called by its driver) is
absorbed into the outer span.

Deletion tolerance: a target that no longer exists is skipped and listed
under ``"absent"``; the benchmark then omits the metrics that depend on it
instead of reporting them as zero.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import pkgutil
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional

clock = time.perf_counter


class _ThreadState:
    __slots__ = ("stack", "open", "spans", "counts", "index", "last_round", "round_key", "round_ids")

    def __init__(self) -> None:
        self.stack: List[List[float]] = []  # [child seconds] per open span
        self.open: Dict[str, int] = {}
        self.spans: Dict[str, List[float]] = {}  # name -> [calls, total_s, self_s]
        self.counts: Dict[str, float] = {}
        self.index: Any = None  # TopologyIndex of the simulator being run
        self.last_round: Dict[int, int] = {}  # id(scheduler) -> last round asked
        self.round_key: Any = None
        self.round_ids: set = set()


class Tracer:
    """Span and counter aggregation, one table per thread, merged on dump."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: List[_ThreadState] = []
        self.absent: List[str] = []

    def state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = _ThreadState()
            with self._lock:
                self._states.append(st)
        return st

    def count(self, st: _ThreadState, name: str, amount: float = 1) -> None:
        st.counts[name] = st.counts.get(name, 0) + amount

    def span(
        self,
        name: str,
        fn: Callable,
        within: Optional[str] = None,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` wrapped in a span; ``before(st, args)`` returns a token that
        ``after(st, args, result, token)`` receives.  Hook time is booked as a
        child of the enclosing span, so it never counts as layer self time."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = tracer.state()
            if within is not None and not st.open.get(within):
                return fn(*args, **kwargs)
            nested = st.open.get(name)
            token = before(st, args) if before is not None and not nested else None
            if nested:
                return fn(*args, **kwargs)
            st.open[name] = 1
            frame = [0.0]
            st.stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                st.stack.pop()
                st.open[name] = 0
                record = st.spans.setdefault(name, [0, 0.0, 0.0])
                record[0] += 1
                record[1] += elapsed
                record[2] += elapsed - frame[0]
                if st.stack:
                    st.stack[-1][0] += elapsed
            if after is not None:
                hook_start = clock()
                after(st, args, result, token)
                if st.stack:
                    st.stack[-1][0] += clock() - hook_start
            return result

        return wrapper

    def counter(self, fn: Callable, after: Callable) -> Callable:
        """``fn`` with ``after(st, args, result)`` run on every call (no span)."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            after(tracer.state(), args, result)
            return result

        return wrapper

    def dump(self) -> Dict[str, Any]:
        spans: Dict[str, List[float]] = {}
        counts: Dict[str, float] = {}
        with self._lock:
            states = list(self._states)
        for st in states:
            _flush_round(self, st)
            for name, (calls, total, own) in st.spans.items():
                merged = spans.setdefault(name, [0, 0.0, 0.0])
                merged[0] += calls
                merged[1] += total
                merged[2] += own
            for name, value in st.counts.items():
                counts[name] = counts.get(name, 0) + value
        return {
            "spans": {
                name: {"calls": calls, "total_s": total, "self_s": own}
                for name, (calls, total, own) in spans.items()
            },
            "counts": counts,
            "absent": sorted(set(self.absent)),
        }


# ----------------------------------------------------------------------
# hooks
# ----------------------------------------------------------------------
def _flush_round(tracer: Tracer, st: _ThreadState) -> None:
    if st.round_key is not None:
        tracer.count(st, "schedule.useful_edges", len(st.round_ids))
        st.round_key = None
        st.round_ids = set()


def _hooks(tracer: Tracer) -> Dict[str, Callable]:
    def engine_before(st, args):
        st.index = args[0].graph.topology_index()
        return None

    def engine_after(st, args, result, token):
        _flush_round(tracer, st)
        tracer.count(st, "engine.rounds", args[1] if len(args) > 1 else 0)

    def lazy_before(st, args):
        return st.counts.get("schedule.cache_hits", 0)

    def lazy_after(st, args, result, hits_before):
        # A round is derived unless the scheduler's one-round memo answered
        # (same round asked twice in a row) or the delta cache hit.
        scheduler, round_number = args[0], args[1]
        previous = st.last_round.get(id(scheduler))
        st.last_round[id(scheduler)] = round_number
        if previous == round_number or st.counts.get("schedule.cache_hits", 0) > hits_before:
            return
        tracer.count(st, "schedule.rounds_derived")
        tracer.count(
            st, "schedule.edges_decided", scheduler.graph.topology_index().num_unreliable_edges
        )

    def prebuild_after(st, args, result):
        scheduler, rounds = args[0], args[1]
        tracer.count(st, "schedule.rounds_derived", rounds)
        tracer.count(
            st,
            "schedule.edges_decided",
            rounds * scheduler.graph.topology_index().num_unreliable_edges,
        )

    def cache_after(st, args, result):
        tracer.count(st, "schedule.cache_misses" if result is None else "schedule.cache_hits")

    def transmit_before(st, args):
        return len(args[-1])

    def transmit_after(st, args, result, before):
        # args end with (round_number, out): the transmitters this driver
        # added are the keys the call appended to ``out``.
        round_number, out = args[-2], args[-1]
        if st.round_key != round_number:
            _flush_round(tracer, st)
            st.round_key = round_number
        index = st.index
        if index is None:
            return
        for vertex in itertools.islice(out, before, None):
            position = index.index_of.get(vertex)
            if position is not None:
                st.round_ids.update(index.unreliable_incident_ids[position])

    def arrivals_after(st, args, result, token):
        tracer.count(st, "traffic.arrivals", sum(count for _vertex, count in result))

    def store_get_after(st, args, result, token):
        tracer.count(st, "store.gets")
        if result is not None:
            tracer.count(st, "store.hits")

    def store_put_after(st, args, result, token):
        tracer.count(st, "store.puts")

    def materialize_after(st, args, result, token):
        tracer.count(st, "runtime.materialize_calls")

    return locals()


# ----------------------------------------------------------------------
# installation
# ----------------------------------------------------------------------
def _import_all() -> None:
    """Import every repro module so subclasses and by-name imports exist
    before patching (a module imported later would keep the originals)."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        try:
            importlib.import_module(info.name)
        except ImportError:
            continue


def _resolve(module: str, path: str) -> Optional[Any]:
    try:
        obj: Any = importlib.import_module(module)
    except ImportError:
        return None
    for part in path.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    return obj


def _rebind_function(original: Callable, replacement: Callable) -> None:
    """Point every repro module attribute bound to ``original`` at ``replacement``."""
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _subclasses(cls: type) -> List[type]:
    seen: List[type] = [cls]
    for sub in cls.__subclasses__():
        for item in _subclasses(sub):
            if item not in seen:
                seen.append(item)
    return seen


def _patch_method(tracer: Tracer, cls: type, method: str, make: Callable) -> bool:
    patched = False
    for klass in _subclasses(cls):
        raw = klass.__dict__.get(method)
        if raw is None:
            continue
        if isinstance(raw, classmethod):
            setattr(klass, method, classmethod(make(raw.__func__)))
        else:
            setattr(klass, method, make(raw))
        patched = True
    return patched


def _patch(tracer: Tracer, label: str, module: str, path: str, make: Callable) -> None:
    """Wrap ``module.path`` (a function, or ``Class.method`` on the class and
    every subclass overriding it); record ``label`` as absent when gone."""
    owner_path, _, attr = path.rpartition(".")
    if owner_path:
        cls = _resolve(module, owner_path)
        if isinstance(cls, type) and _patch_method(tracer, cls, attr, make):
            return
        tracer.absent.append(label)
        return
    original = _resolve(module, attr)
    if not callable(original):
        tracer.absent.append(label)
        return
    _rebind_function(original, make(original))


def install(tracer: Tracer) -> None:
    _import_all()
    hooks = _hooks(tracer)

    def span(name, **options):
        return lambda fn: tracer.span(name, fn, **options)

    def counter(after):
        return lambda fn: tracer.counter(fn, after)

    _patch(tracer, "suite.build", "repro.scenarios.suite", "SuiteSpec.from_dict", span("suite.build"))
    _patch(tracer, "suite.run", "repro.scenarios.suite", "run_suite", span("suite.run"))
    _patch(
        tracer,
        "runtime.materialize",
        "repro.scenarios.runtime",
        "materialize",
        span("runtime.materialize", after=hooks["materialize_after"]),
    )
    _patch(
        tracer,
        "schedule.prebuild",
        "repro.scenarios.runtime",
        "prebuild_delta_table",
        span("schedule.prebuild"),
    )
    _patch(
        tracer,
        "schedule.prebuild_rounds",
        "repro.dualgraph.adversary",
        "prebuild_scheduler_deltas",
        counter(hooks["prebuild_after"]),
    )
    _patch(
        tracer,
        "schedule.lazy",
        "repro.dualgraph.adversary",
        "LinkScheduler.unreliable_edge_ids_for_round",
        span(
            "schedule.lazy",
            within="engine.run",
            before=hooks["lazy_before"],
            after=hooks["lazy_after"],
        ),
    )
    # The set view calls the id view on a miss; a separate span name keeps
    # that inner call visible to the derivation counter.
    _patch(
        tracer,
        "schedule.lazy",
        "repro.dualgraph.adversary",
        "LinkScheduler.unreliable_edge_id_set_for_round",
        span("schedule.lazy_set", within="engine.run"),
    )
    for method in ("lookup", "lookup_set"):
        _patch(
            tracer,
            "schedule.cache",
            "repro.dualgraph.adversary",
            f"SchedulerDeltaCache.{method}",
            counter(hooks["cache_after"]),
        )
    _patch(
        tracer,
        "engine.run",
        "repro.simulation.engine",
        "Simulator.run",
        span("engine.run", before=hooks["engine_before"], after=hooks["engine_after"]),
    )
    drivers = [
        cls
        for cls in vars(importlib.import_module("repro.core.seed_groups")).values()
        if isinstance(cls, type) and cls.__module__ == "repro.core.seed_groups"
    ]
    found = {"transmit_round": False, "receive_round": False, "receive_round_counters": False}
    for cls in drivers:
        for method in found:
            if method not in cls.__dict__:
                continue
            if method == "transmit_round":
                make = span(
                    "drivers.transmit", before=hooks["transmit_before"], after=hooks["transmit_after"]
                )
            else:
                make = span("drivers.receive")
            found[method] |= _patch_method(tracer, cls, method, make)
    if not found["transmit_round"]:
        tracer.absent.append("drivers.transmit")
    if not (found["receive_round"] or found["receive_round_counters"]):
        tracer.absent.append("drivers.receive")
    _patch(
        tracer,
        "environment.inputs",
        "repro.simulation.environment",
        "Environment.inputs_for_round",
        span("environment.inputs"),
    )
    _patch(
        tracer,
        "traffic.arrivals",
        "repro.traffic.arrivals",
        "ArrivalProcess.arrivals_for_round",
        span("traffic.arrivals", after=hooks["arrivals_after"]),
    )
    _patch(
        tracer, "metrics.evaluate", "repro.scenarios.metrics", "evaluate_metrics", span("metrics.evaluate")
    )
    _patch(
        tracer,
        "store.get",
        "repro.scenarios.store",
        "ResultStore.get",
        span("store.get", after=hooks["store_get_after"]),
    )
    _patch(
        tracer,
        "store.put",
        "repro.scenarios.store",
        "ResultStore.put",
        span("store.put", after=hooks["store_put_after"]),
    )
    _patch_topology_builders(tracer)


def _patch_topology_builders(tracer: Tracer) -> None:
    """Time the registered topology builders: ``Registry.get`` on the topology
    registry hands out span-wrapped builders."""
    registry_cls = _resolve("repro.scenarios.registry", "Registry")
    topologies = _resolve("repro.scenarios.registry", "TOPOLOGIES")
    get = getattr(registry_cls, "get", None)
    if topologies is None or get is None:
        tracer.absent.append("topology.sample")
        return
    wrapped: Dict[Any, Callable] = {}

    @functools.wraps(get)
    def traced_get(self, name):
        builder = get(self, name)
        if self is not topologies:
            return builder
        if builder not in wrapped:
            wrapped[builder] = tracer.span("topology.sample", builder)
        return wrapped[builder]

    registry_cls.get = traced_get


def main(argv: List[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py OUT.json -- <python -m repro arguments>", file=sys.stderr)
        return 2
    out_path, command = argv[0], argv[2:]
    tracer = Tracer()
    install(tracer)
    from repro.scenarios.cli import main as cli_main

    try:
        return cli_main(command)
    finally:
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(tracer.dump(), handle, sort_keys=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Determinism regression tests for the round engine.

The engine has two lanes: the **reference** lane (generic edge-set resolver,
per-process stepping -- the Section 2 model written down directly) and the
**kernel** lane (cohort drivers plus the python/numpy bitmask resolvers, the
generic resolver for schedulers that need it, and a counters-only loop).
The lane-identity matrix below pins the contract that makes the kernel lane
safe to ship: for a fixed seed, every registered scheduler, both kernel
backends, and both FULL and COUNTERS traces observe exactly the reference
lane's execution -- including across graph mutation mid-run and chunked
``run()`` calls.  The parallel sweep runner must produce exactly the serial
sweep's rows.
"""

from __future__ import annotations

import functools
import random
import sys
import threading

import pytest

from repro import (
    CollisionAdaptiveAdversary,
    DualGraph,
    FullInclusionScheduler,
    IIDScheduler,
    LBParams,
    NoUnreliableScheduler,
    PeriodicScheduler,
    AntiScheduleAdversary,
    Simulator,
    TraceMode,
    TraceScheduler,
    make_lb_processes,
    random_geographic_network,
)
from repro.analysis.sweep import ParallelSweepRunner, derive_point_seed, sweep
from repro.core.local_broadcast import LocalBroadcastProcess
from repro.scenarios import (
    AlgorithmSpec,
    EnvironmentSpec,
    MetricSpec,
    RunPolicy,
    ScenarioSpec,
    SchedulerSpec,
    TopologySpec,
)
from repro.scenarios.registry import SCHEDULERS, TOPOLOGIES
from repro.scenarios.runtime import materialize, run_trial
from repro.scenarios.spec import ArrivalSpec, EngineConfig, TrafficSpec
from repro.simulation.environment import SaturatingEnvironment, SingleShotEnvironment
from repro.simulation.process import ProcessContext, SilentProcess

SCHEDULER_FACTORIES = {
    "none": lambda g: NoUnreliableScheduler(g),
    "full": lambda g: FullInclusionScheduler(g),
    "iid": lambda g: IIDScheduler(g, probability=0.4, seed=13),
    "periodic": lambda g: PeriodicScheduler(g, on_rounds=3, off_rounds=2, stagger=True, seed=5),
    "anti": lambda g: AntiScheduleAdversary(g, [0.5, 0.02, 0.25]),
}


def _have_numpy() -> bool:
    try:
        import numpy  # noqa: F401
    except ImportError:
        return False
    return True


KERNEL_BACKENDS = [
    "python",
    pytest.param(
        "numpy", marks=pytest.mark.skipif(not _have_numpy(), reason="numpy not installed")
    ),
]


@pytest.fixture
def backend(request, monkeypatch):
    """Select the kernel backend the way an install does: the python kernel
    runs when ``import numpy`` fails, so that leg blocks the import.  The
    numpy leg sends every round through the numpy kernel -- the small
    workloads here rarely reach the transmitter count below which numpy
    installs route a round to the python kernel."""
    if request.param == "python":
        monkeypatch.setitem(sys.modules, "numpy", None)
    else:
        monkeypatch.setattr(Simulator, "_NUMPY_MIN_TX", 1)
    return request.param


def _make_network():
    graph, _ = random_geographic_network(22, side=3.2, rng=41, require_connected=True)
    return graph


def _assert_identical_traces(trace_a, trace_b, rounds):
    assert trace_a.num_rounds == trace_b.num_rounds == rounds
    assert trace_a.events == trace_b.events
    for round_number in range(1, rounds + 1):
        assert trace_a.transmissions_in_round(
            round_number
        ) == trace_b.transmissions_in_round(round_number)
        assert trace_a.receptions_in_round(round_number) == trace_b.receptions_in_round(
            round_number
        )


def _assert_counters_match(counters_trace, full_trace):
    """Aggregate-counter parity: all a COUNTERS-mode trace retains."""
    assert counters_trace.events == ()
    assert counters_trace.num_rounds == full_trace.num_rounds
    assert counters_trace.event_counts == full_trace.event_counts
    assert counters_trace.num_transmissions == full_trace.num_transmissions
    assert counters_trace.num_receptions == full_trace.num_receptions


# ----------------------------------------------------------------------
# the lane-identity matrix
# ----------------------------------------------------------------------
#: Workloads the matrix runs every scheduler under: cohort-stepped LBAlg on a
#: geometric graph (seed reuse 1: every cohort bulk-decoded), on a cluster
#: graph with seed reuse 3 (cohorts converge and share seeds mid-body), and
#: a queued traffic workload (an environment that keeps the counters loop
#: off).
LANE_WORKLOADS = {
    "saturating": dict(
        topology=TopologySpec(
            "random_geographic",
            {"n": 22, "side": 3.2, "seed": 41, "require_connected": True},
        ),
        algorithm=AlgorithmSpec("lbalg", {"preset": "small"}),
        environment=EnvironmentSpec(
            "saturating", {"senders": {"select": "first", "count": 5}}
        ),
        run=RunPolicy(rounds=3, rounds_unit="phases", master_seed=71, seed_policy="fixed"),
    ),
    "reuse": dict(
        topology=TopologySpec(
            "cluster", {"clusters": 3, "cluster_size": 7, "cluster_spacing": 1.4, "seed": 31}
        ),
        algorithm=AlgorithmSpec("lbalg", {"preset": "small", "seed_reuse_phases": 3}),
        environment=EnvironmentSpec(
            "saturating", {"senders": {"select": "first", "count": 5}}
        ),
        run=RunPolicy(rounds=3, rounds_unit="phases", master_seed=71, seed_policy="fixed"),
    ),
    "queued": dict(
        topology=TopologySpec("target_degree", {"target_delta": 8, "seed": 11}),
        algorithm=AlgorithmSpec("lbalg", {"preset": "small"}),
        environment=EnvironmentSpec("queued", {}),
        run=RunPolicy(rounds=1, rounds_unit="tack", master_seed=7, seed_policy="fixed"),
        metrics=(MetricSpec("queue"),),
        traffic=TrafficSpec(arrival=ArrivalSpec("poisson", {"rate": 0.05}), sinks=(0,)),
    ),
}

#: Schedulers whose topologies depend on the round's transmitters: the
#: kernel lane resolves them with the generic resolver.
GENERIC_RESOLVER_SCHEDULERS = {"adaptive_collision"}


def _scheduler_spec(name: str, topology: TopologySpec) -> SchedulerSpec:
    if name == "trace":
        # The registry's sample schedule is empty; replay a schedule that
        # actually switches this topology's unreliable edges on and off.
        graph, _ = TOPOLOGIES.get(topology.name)(0, **topology.args)
        edges = sorted(sorted(edge, key=repr) for edge in graph.unreliable_edges)
        return SchedulerSpec("trace", {"schedule": [edges[0::2], edges[1::3], []]})
    return SchedulerSpec(name, SCHEDULERS.sample_args(name))


def _lane_spec(scheduler: str, workload: str, lane: str, trace_mode: TraceMode):
    parts = dict(LANE_WORKLOADS[workload])
    return ScenarioSpec(
        name=f"lanes-{scheduler}-{workload}",
        scheduler=_scheduler_spec(scheduler, parts["topology"]),
        engine=EngineConfig(trace_mode=trace_mode.value, lane=lane),
        **parts,
    )


@functools.lru_cache(maxsize=None)
def _reference_trial(scheduler: str, workload: str):
    trial = run_trial(_lane_spec(scheduler, workload, "reference", TraceMode.FULL), 0)
    assert trial.simulator.lane == "reference"
    return trial


@pytest.mark.parametrize("trace_mode", [TraceMode.FULL, TraceMode.COUNTERS], ids=str)
@pytest.mark.parametrize("backend", KERNEL_BACKENDS, indirect=True)
@pytest.mark.parametrize("workload", sorted(LANE_WORKLOADS))
@pytest.mark.parametrize("scheduler", SCHEDULERS.names())
def test_kernel_lane_matches_reference(scheduler, workload, backend, trace_mode):
    reference = _reference_trial(scheduler, workload)
    trial = run_trial(_lane_spec(scheduler, workload, "kernel", trace_mode), 0)

    resolver = "generic" if scheduler in GENERIC_RESOLVER_SCHEDULERS else backend
    counters = trace_mode is TraceMode.COUNTERS and workload != "queued"
    assert trial.simulator.lane == ("counters-" if counters else "") + f"kernel-{resolver}"
    assert trial.simulator.uses_batch_stepping

    if trace_mode is TraceMode.FULL:
        _assert_identical_traces(trial.trace, reference.trace, reference.rounds)
    else:
        _assert_counters_match(trial.trace, reference.trace)
    assert trial.metric_row == reference.metric_row


class MutatingEnvironment(SaturatingEnvironment):
    """Adds an unreliable edge partway through a single run() call."""

    def __init__(self, graph, senders):
        super().__init__(senders=senders)
        self._graph_ref = graph

    def inputs_for_round(self, round_number):
        if round_number == 5:
            self._graph_ref.add_unreliable_edge(0, 3)
        return super().inputs_for_round(round_number)


class TestLaneIdentityUnderChange:
    """Kernel-lane state that outlives one round -- the index view, cohort
    buffers, deferred stream skips -- must track mutation and run splits."""

    def _mutating_run(self, lane):
        graph = DualGraph(
            [0, 1, 2, 3],
            reliable_edges=[(0, 1), (1, 2)],
            unreliable_edges=[(2, 3)],
        )
        params = LBParams.small_for_testing(delta=4, delta_prime=4)
        simulator = Simulator(
            graph,
            make_lb_processes(graph, params, random.Random(17)),
            scheduler=IIDScheduler(graph, probability=0.6, seed=3),
            environment=MutatingEnvironment(graph, senders=[0, 2]),
            lane=lane,
        )
        return simulator.run(2 * params.phase_length), 2 * params.phase_length

    @pytest.mark.parametrize("backend", KERNEL_BACKENDS, indirect=True)
    def test_graph_mutation_mid_run(self, backend):
        kernel_trace, rounds = self._mutating_run("kernel")
        reference_trace, _ = self._mutating_run("reference")
        _assert_identical_traces(kernel_trace, reference_trace, rounds)

    def test_graph_mutation_between_runs_rebinds_index(self):
        graph = DualGraph([0, 1, 2, 3], reliable_edges=[(0, 1), (1, 2)])
        params = LBParams.small_for_testing(delta=4, delta_prime=4)
        simulator = Simulator(
            graph,
            make_lb_processes(graph, params, random.Random(5)),
            scheduler=FullInclusionScheduler(graph),
            environment=SaturatingEnvironment(senders=[0]),
        )
        simulator.run(3)
        graph.add_unreliable_edge(2, 3)
        simulator.run(3)  # must pick up the new edge without error
        assert simulator.trace.num_rounds == 6

    @pytest.mark.parametrize("trace_mode", [TraceMode.FULL, TraceMode.COUNTERS], ids=str)
    @pytest.mark.parametrize("backend", KERNEL_BACKENDS, indirect=True)
    def test_chunked_runs_resume_identically(self, backend, trace_mode):
        """Split kernel runs (chunks ending mid-body, so cohort buffers and
        deferred skips must flush at every boundary) equal one reference run."""
        built = materialize(_lane_spec("iid", "reuse", "kernel", trace_mode), 0)
        rounds = built.total_rounds
        chunk = built.params.phase_length // 2
        done = 0
        while done < rounds:
            step = min(chunk, rounds - done)
            split_trace = built.simulator.run(step)
            done += step
        reference = _reference_trial("iid", "reuse")
        if trace_mode is TraceMode.FULL:
            _assert_identical_traces(split_trace, reference.trace, rounds)
        else:
            _assert_counters_match(split_trace, reference.trace)


class TestTraceModes:
    def _run(self, trace_mode, lane="kernel"):
        graph = _make_network()
        params = LBParams.small_for_testing(
            delta=graph.max_reliable_degree, delta_prime=graph.max_potential_degree
        )
        simulator = Simulator(
            graph,
            make_lb_processes(graph, params, random.Random(99)),
            scheduler=IIDScheduler(graph, probability=0.4, seed=13),
            environment=SingleShotEnvironment(senders=sorted(graph.vertices)[:3]),
            trace_mode=trace_mode,
            lane=lane,
        )
        return simulator.run(2 * params.phase_length)

    def test_events_mode_keeps_events_drops_frames(self):
        full = self._run(TraceMode.FULL)
        events_only = self._run(TraceMode.EVENTS)
        assert events_only.events == full.events
        assert events_only.transmissions_in_round(1) == {}
        assert events_only.num_transmissions == full.num_transmissions
        assert events_only.num_receptions == full.num_receptions

    def test_counters_mode_keeps_only_counters(self):
        _assert_counters_match(self._run(TraceMode.COUNTERS), self._run(TraceMode.FULL))

    def test_counters_agree_between_lanes(self):
        kernel = self._run(TraceMode.COUNTERS)
        reference = self._run(TraceMode.COUNTERS, lane="reference")
        assert kernel.event_counts == reference.event_counts
        assert kernel.num_transmissions == reference.num_transmissions
        assert kernel.num_receptions == reference.num_receptions


class TestLaneSelection:
    def _build(self, graph, scheduler=None, lane="kernel", trace_mode=TraceMode.FULL):
        params = LBParams.small_for_testing(
            delta=graph.max_reliable_degree, delta_prime=graph.max_potential_degree
        )
        return Simulator(
            graph,
            make_lb_processes(graph, params, random.Random(71)),
            scheduler=scheduler,
            environment=SaturatingEnvironment(senders=sorted(graph.vertices)[:5]),
            trace_mode=trace_mode,
            lane=lane,
        )

    def test_unknown_lane_is_rejected(self):
        with pytest.raises(ValueError, match="lane"):
            self._build(_make_network(), lane="vector")

    def test_reference_lane_steps_every_process(self):
        simulator = self._build(_make_network(), lane="reference")
        assert simulator.lane == "reference"
        assert not simulator.uses_batch_stepping
        assert simulator.kernel_backend is None
        assert simulator.lane_fallback == "lane 'reference' requested"

    @pytest.mark.parametrize("backend", KERNEL_BACKENDS, indirect=True)
    def test_backend_follows_numpy_importability(self, backend):
        simulator = self._build(_make_network())
        assert simulator.kernel_backend == backend
        assert simulator.lane == f"kernel-{backend}"

    def test_adaptive_scheduler_keeps_generic_resolver_and_says_why(self):
        graph = _make_network()
        simulator = self._build(graph, scheduler=CollisionAdaptiveAdversary(graph))
        assert simulator.lane == "kernel-generic"
        assert simulator.kernel_backend is None
        assert simulator.uses_batch_stepping
        assert "CollisionAdaptiveAdversary is adaptive" in simulator.lane_fallback

    def test_resolve_topology_override_keeps_generic_resolver(self):
        class Custom(IIDScheduler):
            def resolve_topology(self, round_number, transmitting):
                return super().resolve_topology(round_number, transmitting)

        graph = _make_network()
        simulator = self._build(graph, scheduler=Custom(graph, probability=0.5, seed=1))
        assert simulator.lane == "kernel-generic"
        assert simulator.lane_fallback == "scheduler Custom overrides resolve_topology"

    def test_counters_lane_engages_only_for_counters_traces(self):
        graph = _make_network()
        counters = self._build(graph, trace_mode=TraceMode.COUNTERS)
        assert counters.uses_counters_lane and counters.lane_fallback is None
        full = self._build(graph, trace_mode=TraceMode.FULL)
        assert not full.uses_counters_lane
        assert full.lane_fallback == "trace mode is 'full' (the counters lane needs 'counters')"


# ----------------------------------------------------------------------
# batched cohort stepping
# ----------------------------------------------------------------------
class TestBatchedStepping:
    def test_cohort_decisions_are_shared(self):
        graph, _ = random_geographic_network(26, side=3.4, rng=23, require_connected=True)
        params = LBParams.small_for_testing(
            delta=graph.max_reliable_degree, delta_prime=graph.max_potential_degree
        )
        simulator = Simulator(
            graph,
            make_lb_processes(graph, params, random.Random(71)),
            scheduler=IIDScheduler(graph, probability=0.5, seed=7),
            environment=SaturatingEnvironment(senders=sorted(graph.vertices)[:5]),
        )
        simulator.run(3 * params.phase_length)
        (driver,) = simulator.batch_drivers
        tracker = driver.tracker
        assert tracker.computed_decisions > 0
        # Saturating senders on a connected network commit overlapping seeds,
        # so at least some body-round decisions must have been cohort-shared.
        assert tracker.shared_decisions > 0

    def test_mixed_population_batches_only_groupable_processes(self):
        graph, _ = random_geographic_network(26, side=3.4, rng=23, require_connected=True)
        params = LBParams.small_for_testing(
            delta=graph.max_reliable_degree, delta_prime=graph.max_potential_degree
        )

        def build(lane, trace_mode=TraceMode.FULL):
            rng = random.Random(5)
            processes = {}
            silent = sorted(graph.vertices)[-3:]
            for vertex in sorted(graph.vertices, key=repr):
                ctx = ProcessContext(
                    vertex=vertex,
                    delta=max(graph.max_reliable_degree, params.delta),
                    delta_prime=max(graph.max_potential_degree, params.delta_prime),
                    rng=random.Random(rng.getrandbits(64)),
                )
                if vertex in silent:
                    processes[vertex] = SilentProcess(ctx)
                else:
                    processes[vertex] = LocalBroadcastProcess(ctx, params)
            return Simulator(
                graph,
                processes,
                scheduler=IIDScheduler(graph, probability=0.5, seed=11),
                environment=SingleShotEnvironment(senders=sorted(graph.vertices)[:3]),
                trace_mode=trace_mode,
                lane=lane,
            )

        batched_sim = build("kernel")
        (driver,) = batched_sim.batch_drivers
        assert len(driver.members) == graph.n - 3
        counters_sim = build("kernel", TraceMode.COUNTERS)
        assert not counters_sim.uses_counters_lane
        assert counters_sim.lane_fallback == "3 process(es) stepped outside batch groups"

        rounds = 3 * params.phase_length
        reference_trace = build("reference").run(rounds)
        _assert_identical_traces(batched_sim.run(rounds), reference_trace, rounds)
        _assert_counters_match(counters_sim.run(rounds), reference_trace)

    def test_subclasses_are_never_batched(self):
        class TweakedLB(LocalBroadcastProcess):
            pass

        ctx = ProcessContext(vertex=0, delta=4, delta_prime=4)
        params = LBParams.small_for_testing(delta=4, delta_prime=4)
        assert TweakedLB(ctx, params).batch_group_key() is None
        assert LocalBroadcastProcess(ctx.child(), params).batch_group_key() is not None


# ----------------------------------------------------------------------
# scheduler delta interface and caches
# ----------------------------------------------------------------------
class TestSchedulerDeltaInterface:
    @pytest.mark.parametrize("scheduler_key", sorted(SCHEDULER_FACTORIES))
    def test_edge_ids_match_edge_sets(self, scheduler_key):
        graph = _make_network()
        scheduler = SCHEDULER_FACTORIES[scheduler_key](graph)
        index = graph.topology_index()
        for round_number in range(1, 25):
            ids = scheduler.unreliable_edge_ids_for_round(round_number)
            via_ids = frozenset(index.unreliable_edge_list[eid] for eid in ids)
            reference = (
                scheduler.unreliable_edges_for_round(round_number) & graph.unreliable_edges
            )
            assert via_ids == reference
            for eid in range(index.num_unreliable_edges):
                assert scheduler.unreliable_edge_included(eid, round_number) == (
                    eid in set(ids)
                )

    def test_trace_scheduler_ids(self):
        graph = DualGraph(
            [0, 1, 2, 3],
            reliable_edges=[(0, 1)],
            unreliable_edges=[(1, 2), (2, 3)],
        )
        scheduler = TraceScheduler(graph, [[(1, 2)], []], cycle=True)
        index = graph.topology_index()
        assert [
            frozenset(index.unreliable_edge_list[eid] for eid in scheduler.unreliable_edge_ids_for_round(t))
            for t in (1, 2, 3)
        ] == [
            scheduler.unreliable_edges_for_round(t) for t in (1, 2, 3)
        ]

    def test_memoization_tracks_graph_mutation(self):
        graph = DualGraph([0, 1, 2], reliable_edges=[(0, 1)], unreliable_edges=[(1, 2)])
        scheduler = FullInclusionScheduler(graph)
        assert len(scheduler.unreliable_edge_ids_for_round(1)) == 1
        graph.add_unreliable_edge(0, 2)
        assert len(scheduler.unreliable_edge_ids_for_round(1)) == 2

    @pytest.mark.parametrize("scheduler_key", sorted(SCHEDULER_FACTORIES))
    def test_id_set_view_matches_id_tuple(self, scheduler_key):
        graph = _make_network()
        scheduler = SCHEDULER_FACTORIES[scheduler_key](graph)
        for round_number in (1, 2, 7, 19):
            assert scheduler.unreliable_edge_id_set_for_round(round_number) == frozenset(
                scheduler.unreliable_edge_ids_for_round(round_number)
            )


def _cache_probe_graph():
    """A fixed small dual graph, rebuilt per call (distinct objects, equal
    structure -- exactly the cross-trial sharing scenario)."""
    return DualGraph(
        [0, 1, 2, 3, 4],
        reliable_edges=[(0, 1), (1, 2), (3, 4)],
        unreliable_edges=[(0, 2), (1, 3), (2, 4), (0, 4)],
    )


def _delta_cache_probe_point(alpha: int) -> dict:
    """Module-level so it is picklable; reports whether the process cache was
    preloaded with the parent's delta for round ``alpha``."""
    from repro.dualgraph.adversary import process_delta_cache

    scheduler = IIDScheduler(_cache_probe_graph(), probability=0.4, seed=21)
    cache = process_delta_cache()
    hits_before = cache.hits
    ids = scheduler.unreliable_edge_ids_for_round(alpha)
    return {"ids": list(ids), "preloaded": cache.hits > hits_before}


class TestSchedulerDeltaCache:
    def _schedulers(self):
        return (
            IIDScheduler(_cache_probe_graph(), probability=0.4, seed=21),
            IIDScheduler(_cache_probe_graph(), probability=0.4, seed=21),
        )

    def test_structurally_equal_trials_share_deltas(self):
        from repro import SchedulerDeltaCache

        first, second = self._schedulers()
        cache = SchedulerDeltaCache()
        first.attach_delta_cache(cache)
        second.attach_delta_cache(cache)
        for round_number in range(1, 11):
            ids = first.unreliable_edge_ids_for_round(round_number)
            assert second.unreliable_edge_ids_for_round(round_number) is ids
        assert cache.hits == 10 and cache.misses == 10

    def test_set_views_are_shared_too(self):
        from repro import SchedulerDeltaCache

        first, second = self._schedulers()
        cache = SchedulerDeltaCache()
        first.attach_delta_cache(cache)
        second.attach_delta_cache(cache)
        view = first.unreliable_edge_id_set_for_round(5)
        assert second.unreliable_edge_id_set_for_round(5) is view

    def test_cache_keys_distinguish_configurations(self):
        graph = _cache_probe_graph()
        base = IIDScheduler(graph, probability=0.4, seed=21)
        assert base.delta_cache_key() is not None
        assert base.delta_cache_key() == IIDScheduler(
            _cache_probe_graph(), probability=0.4, seed=21
        ).delta_cache_key()
        for other in (
            IIDScheduler(graph, probability=0.4, seed=22),
            IIDScheduler(graph, probability=0.5, seed=21),
            PeriodicScheduler(graph, on_rounds=3, off_rounds=2),
        ):
            assert other.delta_cache_key() != base.delta_cache_key()
        # A structurally different topology must not share keys either.
        mutated = _cache_probe_graph()
        mutated.add_unreliable_edge(3, 0)
        assert (
            IIDScheduler(mutated, probability=0.4, seed=21).delta_cache_key()
            != base.delta_cache_key()
        )

    def test_adaptive_and_unknown_schedulers_are_not_cacheable(self):
        graph = _cache_probe_graph()
        assert CollisionAdaptiveAdversary(graph).delta_cache_key() is None
        assert TraceScheduler(graph, [[(0, 2)]]).delta_cache_key() is None
        with pytest.raises(ValueError):
            from repro.dualgraph import prebuild_scheduler_deltas

            prebuild_scheduler_deltas(CollisionAdaptiveAdversary(graph), 5)

    def test_cache_key_tracks_graph_mutation(self):
        graph = _cache_probe_graph()
        scheduler = IIDScheduler(graph, probability=0.4, seed=21)
        before = scheduler.delta_cache_key()
        graph.add_unreliable_edge(3, 0)
        after = scheduler.delta_cache_key()
        assert before != after

    def test_fifo_bound_evicts_but_stays_correct(self):
        from repro import SchedulerDeltaCache

        scheduler, _ = self._schedulers()
        cache = SchedulerDeltaCache(maxsize=4)
        scheduler.attach_delta_cache(cache)
        reference = {
            t: scheduler.unreliable_edge_ids_for_round(t) for t in range(1, 13)
        }
        assert len(cache) <= 4
        # Evicted rounds are recomputed, not wrong.
        fresh = IIDScheduler(_cache_probe_graph(), probability=0.4, seed=21)
        fresh.attach_delta_cache(cache)
        for t, ids in reference.items():
            assert fresh.unreliable_edge_ids_for_round(t) == ids

    def test_concurrent_stores_under_eviction_never_fail(self):
        """Two threads storing into one tiny cache used to race in the FIFO
        eviction: both picked the same oldest key and the loser's pop raised
        KeyError (a failed service job).  Inserts are now lock-guarded."""
        from repro import SchedulerDeltaCache

        cache = SchedulerDeltaCache(maxsize=2)
        errors = []
        workers = 4
        start = threading.Barrier(workers)

        def hammer(worker):
            start.wait()
            try:
                for round_number in range(10000):
                    cache.store(worker, round_number, ())
                    cache.store_set(worker, round_number, frozenset())
            except Exception as error:  # pragma: no cover - the regression
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=hammer, args=(w,)) for w in range(workers)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(cache) <= 2

    def test_detached_cache_disables_sharing(self):
        from repro import SchedulerDeltaCache

        first, second = self._schedulers()
        cache = SchedulerDeltaCache()
        first.attach_delta_cache(cache)
        second.attach_delta_cache(None)
        ids = first.unreliable_edge_ids_for_round(3)
        assert second.unreliable_edge_ids_for_round(3) == ids
        assert cache.hits == 0  # second never consulted the cache

    def test_prebuilt_table_roundtrip(self):
        from repro import SchedulerDeltaCache
        from repro.dualgraph import prebuild_scheduler_deltas

        scheduler, fresh = self._schedulers()
        scheduler.attach_delta_cache(None)
        table = prebuild_scheduler_deltas(scheduler, 8)
        assert len(table) == 8
        fresh.attach_delta_cache(SchedulerDeltaCache(table))
        for t in range(1, 9):
            assert fresh.unreliable_edge_ids_for_round(t) == table[
                (scheduler.delta_cache_key(), t)
            ]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_sweep_workers_consume_prebuilt_delta_table(self, jobs):
        from repro.dualgraph import prebuild_scheduler_deltas

        scheduler = IIDScheduler(_cache_probe_graph(), probability=0.4, seed=21)
        scheduler.attach_delta_cache(None)
        table = prebuild_scheduler_deltas(scheduler, 3)
        result = ParallelSweepRunner(jobs=jobs).run(
            {"alpha": [1, 2, 3]},
            _delta_cache_probe_point,
            common={"scheduler_delta_table": table},
        )
        index = scheduler.graph.topology_index()
        for row in result.rows:
            # The reserved kwarg never reaches the run callable as an
            # argument; instead the worker's process cache answered the
            # scheduler's very first delta query.
            assert row["preloaded"], row
            expected = scheduler._compute_unreliable_edge_ids(row["alpha"], index)
            assert tuple(row["ids"]) == expected


class TestTopologyIndex:
    def test_csr_matches_adjacency(self):
        graph = _make_network()
        index = graph.topology_index()
        assert index.n == graph.n
        for i, vertex in enumerate(index.vertices):
            assert index.index_of[vertex] == i
            row = index.g_indices[index.g_indptr[i] : index.g_indptr[i + 1]]
            assert tuple(row) == index.g_neighbors[i]
            neighbors = frozenset(index.vertices[j] for j in row)
            assert neighbors == graph.reliable_neighbors(vertex)
        seen = set()
        for eid, edge in enumerate(index.unreliable_edge_list):
            assert index.unreliable_id_of[edge] == eid
            endpoints = frozenset(
                (index.vertices[index.unreliable_u[eid]], index.vertices[index.unreliable_v[eid]])
            )
            assert frozenset(endpoints) == edge
            seen.add(edge)
        assert seen == set(graph.unreliable_edges)

    def test_index_is_cached_and_invalidated(self):
        graph = DualGraph([0, 1, 2], reliable_edges=[(0, 1)])
        first = graph.topology_index()
        assert graph.topology_index() is first
        graph.add_reliable_edge(1, 2)
        second = graph.topology_index()
        assert second is not first
        assert second.g_neighbors[1] != first.g_neighbors[1]




class TestRoundHookSkipping:
    class HookCountingProcess(SilentProcess):
        def __init__(self, ctx):
            super().__init__(ctx)
            self.starts = 0
            self.ends = 0

        def on_round_start(self, round_number):
            self.starts += 1

        def on_round_end(self, round_number):
            self.ends += 1

    def _simulator(self, with_hooks):
        graph = DualGraph([0, 1], reliable_edges=[(0, 1)])
        cls = self.HookCountingProcess if with_hooks else SilentProcess
        processes = {
            v: cls(ProcessContext(vertex=v, delta=2, delta_prime=2)) for v in (0, 1)
        }
        return Simulator(graph, processes), processes

    def test_overriding_processes_still_get_hooks(self):
        simulator, processes = self._simulator(with_hooks=True)
        simulator.run(7)
        assert all(p.starts == 7 and p.ends == 7 for p in processes.values())

    def test_hookless_population_skips_the_loops(self):
        simulator, _ = self._simulator(with_hooks=False)
        assert simulator._round_start_hooks == []
        assert simulator._round_end_hooks == []
        simulator.run(3)  # runs without error
        assert simulator.trace.num_rounds == 3


# ----------------------------------------------------------------------
# parallel sweep determinism
# ----------------------------------------------------------------------
def _sweep_point(alpha: int, beta: str) -> dict:
    """Module-level so it is picklable by the process pool."""
    return {"product": alpha * len(beta), "tag": f"{alpha}-{beta}"}


def _seeded_point(alpha: int, seed: int = 0) -> dict:
    return {"value": random.Random(seed).randint(0, 10**9), "alpha2": alpha * 2}


def _configured_point(alpha: int, scale: int = 1) -> dict:
    return {"scaled": alpha * scale}


GRID = {"alpha": [1, 2, 3], "beta": ["x", "yy"]}


class TestParallelSweep:
    def test_parallel_rows_equal_serial_rows(self):
        serial = sweep(GRID, _sweep_point)
        parallel = ParallelSweepRunner(jobs=2).run(GRID, _sweep_point)
        assert parallel.rows == serial.rows

    def test_jobs_one_equals_serial(self):
        serial = sweep(GRID, _sweep_point)
        inline = ParallelSweepRunner(jobs=1).run(GRID, _sweep_point)
        assert inline.rows == serial.rows

    def test_derived_seeds_are_stable_and_distinct(self):
        seeds = [derive_point_seed(123, i) for i in range(50)]
        assert seeds == [derive_point_seed(123, i) for i in range(50)]
        assert len(set(seeds)) == 50
        assert derive_point_seed(124, 0) != derive_point_seed(123, 1)

    def test_seed_injection_identical_serial_and_parallel(self):
        grid = {"alpha": [4, 5, 6, 7]}
        serial = ParallelSweepRunner(jobs=1, base_seed=7).run(grid, _seeded_point)
        parallel = ParallelSweepRunner(jobs=2, base_seed=7).run(grid, _seeded_point)
        assert serial.rows == parallel.rows
        # Different base seeds must give different per-point draws.
        other = ParallelSweepRunner(jobs=1, base_seed=8).run(grid, _seeded_point)
        assert [r["value"] for r in other.rows] != [r["value"] for r in serial.rows]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_common_kwargs_reach_every_point_but_stay_out_of_rows(self, jobs):
        grid = {"alpha": [1, 2, 3]}
        result = ParallelSweepRunner(jobs=jobs).run(
            grid, _configured_point, common={"scale": 10}
        )
        assert [r["scaled"] for r in result.rows] == [10, 20, 30]
        assert all("scale" not in row for row in result.rows)

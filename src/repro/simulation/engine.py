"""The synchronous round simulator.

:class:`Simulator` executes the model of Section 2:

* rounds are numbered 1, 2, 3, ...;
* in round ``t`` the communication topology ``G_t`` consists of all reliable
  edges plus the unreliable edges chosen by the (oblivious) link scheduler;
* a listening node ``u`` receives a frame from ``v`` iff ``v`` is the *only*
  transmitting node among ``u``'s neighbors in ``G_t``; otherwise ``u``
  receives the null indicator (``None``) -- there is no collision detection;
* transmitting nodes receive nothing;
* the environment delivers inputs before transmissions and consumes outputs
  after receptions.

The engine has two lanes, selected by ``Simulator(lane=...)``; for a fixed
seed both produce byte-identical traces.

* The **reference** lane (``lane="reference"``) is the model written down
  directly: every process is stepped individually, and each round asks the
  scheduler for the full topology edge set and scans it
  (:meth:`Simulator._resolve_receptions_generic`).  It is the oracle every
  other configuration is checked against.
* The **kernel** lane (``lane="kernel"``, the default) steps batchable
  populations through shared cohort drivers
  (:meth:`~repro.simulation.process.Process.batch_group_key`): one
  ``transmit_round`` / ``receive_round`` call per driver per round, seed
  cohorts bulk-decoded into array buffers, member streams advanced with one
  bulk ``skip`` per flush.  Receptions are resolved by flat kernels over the
  graph's integer-indexed :class:`~repro.dualgraph.graph.TopologyIndex`:
  big-integer bitmask algebra in pure python, or a ``concatenate`` /
  ``repeat`` / ``bincount`` pipeline when numpy imports (rounds with fewer
  than 16 transmitters take the python kernel either way).  Only unreliable
  edges consult the scheduler, through its per-round delta interface.  When
  the trace keeps counters only and no consumer can observe event objects,
  rounds run through a counters-only loop that skips event materialization.

  Two things the engine can observe keep the generic resolver inside the
  kernel lane: an adaptive scheduler (its edge choice depends on the round's
  transmitters, which the delta interface cannot express) and a scheduler
  that overrides
  :meth:`~repro.dualgraph.adversary.LinkScheduler.resolve_topology`.  Such
  runs report the lane ``kernel-generic`` and name the scheduler in
  :attr:`Simulator.lane_fallback`.

In both lanes the ``on_round_start`` / ``on_round_end`` hook loops only
visit processes whose class actually overrides those hooks (detected once at
construction); for hook-free populations the loops vanish.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, List, Mapping, Optional

from repro.dualgraph.adversary import LinkScheduler, NoUnreliableScheduler
from repro.dualgraph.graph import DualGraph
from repro.fifo import fifo_insert
from repro.simulation.environment import Environment, NullEnvironment
from repro.simulation.process import Process
from repro.simulation.trace import ExecutionTrace, TraceMode

Vertex = Hashable

#: The engine lanes ``Simulator(lane=...)`` accepts.
LANES = ("kernel", "reference")

#: Process-wide memo of per-round scheduled-edge bitmasks, keyed by
#: ``(scheduler delta-cache key, round)``.  The delta cache key's contract
#: (equal keys => identical deltas for every round, across instances and
#: processes) is exactly the license needed to share the masks the same way
#: the :class:`~repro.dualgraph.adversary.SchedulerDeltaCache` shares the id
#: sets.  Bounded FIFO (:func:`~repro.fifo.fifo_insert`).
_SCHED_MASK_CACHE: Dict[Any, int] = {}
_SCHED_MASK_CACHE_MAXSIZE = 8192


class Simulator:
    """Drive a set of processes over a dual graph for a number of rounds.

    Parameters
    ----------
    graph:
        The dual graph network ``(G, G')``.
    processes:
        A mapping from every vertex of the graph to its process automaton.
    scheduler:
        The oblivious link scheduler; defaults to never including unreliable
        edges (topology always equals ``G``).
    environment:
        The input/output environment; defaults to a :class:`NullEnvironment`.
    trace_mode:
        The :class:`TraceMode` of the recorded trace (default
        ``TraceMode.FULL``).
    lane:
        ``"kernel"`` (default) or ``"reference"``; see the module docstring.
        Both lanes produce identical traces.
    """

    def __init__(
        self,
        graph: DualGraph,
        processes: Mapping[Vertex, Process],
        scheduler: Optional[LinkScheduler] = None,
        environment: Optional[Environment] = None,
        trace_mode: Optional[TraceMode] = None,
        lane: str = "kernel",
    ) -> None:
        if lane not in LANES:
            raise ValueError(f"lane must be one of {LANES}, got {lane!r}")
        missing = graph.vertices - set(processes)
        if missing:
            raise ValueError(f"no process supplied for vertices: {sorted(map(repr, missing))}")
        extra = set(processes) - graph.vertices
        if extra:
            raise ValueError(f"processes supplied for unknown vertices: {sorted(map(repr, extra))}")
        self._graph = graph
        self._processes: Dict[Vertex, Process] = dict(processes)
        self._scheduler = scheduler if scheduler is not None else NoUnreliableScheduler(graph)
        self._environment = environment if environment is not None else NullEnvironment()
        self._trace = ExecutionTrace(mode=trace_mode)
        self._current_round = 0
        self._started = False

        self._lane = lane
        kernel = lane == "kernel"
        # Within the kernel lane, the scheduler decides the resolver: the
        # bitmask kernels need the per-round delta interface, which adaptive
        # and resolve_topology-overriding schedulers cannot serve.
        self._generic_reason = self._generic_resolver_reason() if kernel else None
        self._np = None
        backend: Optional[str] = None
        if kernel and self._generic_reason is None:
            try:
                import numpy

                self._np = numpy
                backend = "numpy"
            except ImportError:
                backend = "python"
        self._kernel_backend = backend

        # Round-scoped reusable buffers (kernel lane): allocated once per
        # Simulator, reset at the start of each use.
        self._kr_masks: List[int] = []
        self._kr_receptions: Dict[Vertex, Any] = {}
        self._kr_transmissions: Dict[Vertex, Any] = {}
        self._kr_outputs: List[Any] = []

        if backend is not None:
            self._bind_index()

        # Batch stepping (kernel lane): group processes that expose a cohort
        # key under one driver each; everything else is stepped per-process.
        # Output drain order must match per-process stepping, so keep the
        # full process list in registration order regardless of grouping.
        self._ordered_processes: List[Process] = list(self._processes.values())
        self._batch_drivers: List[Any] = []
        self._ungrouped: Dict[Vertex, Process] = self._processes
        if kernel:
            self._build_batch_groups()

        # Hook-override detection: the on_round_start/on_round_end loops are
        # pure overhead for populations that never override them (two full
        # scans per round); visit only actual overriders.
        self._round_start_hooks: List[Process] = [
            p
            for p in self._ordered_processes
            if type(p).on_round_start is not Process.on_round_start
        ]
        self._round_end_hooks: List[Process] = [
            p
            for p in self._ordered_processes
            if type(p).on_round_end is not Process.on_round_end
        ]

        # Counters-only loop: engages when it is provable that no consumer
        # will ever read event objects (see _counters_blocker).  Surface
        # *why* the fastest configuration did not engage (None when it did):
        # the silent part of lane selection -- e.g. a traffic environment
        # whose ``_on_recv`` hook quietly drops the run off the counters
        # loop -- becomes a recorded, assertable reason instead of a perf
        # mystery.
        blocker = self._counters_blocker(type(self._environment))
        self._counters_lane = blocker is None
        self._lane_fallback = self._generic_reason or blocker

    def _generic_resolver_reason(self) -> Optional[str]:
        """Why the kernel lane must use the generic resolver (None if not)."""
        scheduler = self._scheduler
        name = type(scheduler).__name__
        if scheduler.is_adaptive:
            return (
                f"scheduler {name} is adaptive (the generic resolver serves "
                "transmitter-dependent topologies)"
            )
        if type(scheduler).resolve_topology is not LinkScheduler.resolve_topology:
            return f"scheduler {name} overrides resolve_topology"
        if scheduler.graph is not self._graph:
            return f"scheduler {name} is bound to a different graph object"
        return None

    def _counters_blocker(self, env_type: type) -> Optional[str]:
        """The first condition that keeps the counters-only loop off, or
        None when it engages.

        The loop builds no event objects, so it needs proof that nobody
        could read them: the trace keeps counters only, every process is
        stepped by a driver that can count receptions without materializing
        RecvOutputs, there are no round hooks, and the environment uses the
        base-class observation methods (a subclass hook could inspect recv
        events the loop never builds).
        """
        if self._lane == "reference":
            return "lane 'reference' requested"
        if self._trace.mode is not TraceMode.COUNTERS:
            return (
                f"trace mode is '{self._trace.mode.value}' "
                "(the counters lane needs 'counters')"
            )
        if not self._batch_drivers:
            return "no batch group drivers (processes expose no cohort key)"
        if self._ungrouped:
            return (
                f"{len(self._ungrouped)} process(es) stepped outside "
                "batch groups"
            )
        if not all(
            hasattr(driver, "receive_round_counters")
            for driver in self._batch_drivers
        ):
            return (
                "a batch driver cannot count receptions without "
                "materializing events"
            )
        if self._round_start_hooks or self._round_end_hooks:
            return (
                "process round hooks (on_round_start/on_round_end) need "
                "per-round event stepping"
            )
        if env_type.observe_outputs is not Environment.observe_outputs:
            return f"environment {env_type.__name__} overrides observe_outputs"
        if env_type._on_recv is not Environment._on_recv:
            return f"environment {env_type.__name__} overrides _on_recv"
        return None

    def _build_batch_groups(self) -> None:
        groups: Dict[Any, Any] = {}
        ungrouped: Dict[Vertex, Process] = {}
        for vertex, process in self._processes.items():
            driver = None
            key = process.batch_group_key()
            if key is not None:
                driver = groups.get(key)
                if driver is None:
                    driver = process.make_batch_driver()
                    if driver is not None:
                        groups[key] = driver
            if driver is None:
                ungrouped[vertex] = process
            else:
                driver.add_member(process)
        if groups:
            self._batch_drivers = list(groups.values())
            self._ungrouped = ungrouped

    def _bind_index(self) -> None:
        index = self._graph.topology_index()
        self._index_version = self._graph.topology_version
        self._idx_of = index.index_of
        self._vertex_of = index.vertices
        self._g_neighbors = index.g_neighbors
        n = index.n
        # Per-vertex incident unreliable edge ids and eid -> neighbor maps,
        # both precomputed once per topology by the index.
        self._u_incident = index.unreliable_incident_ids
        self._u_neighbor_of = index.unreliable_neighbor_by_eid
        self._has_unreliable = index.num_unreliable_edges > 0
        # The python kernel runs the whole collision rule as big-integer
        # bitmask algebra, so it needs per-vertex reliable neighborhoods and
        # incident unreliable edge ids as bit masks, plus the single-bit
        # table for assembling per-round masks.  A round's working set is
        # then a few hundred bytes of ints instead of the ~64KB frozenset
        # hash tables the per-round delta sets occupy, which is what makes
        # the mask ops cache-resident.
        bit = self._v_bit = [1 << i for i in range(n)]
        self._g_vmasks = [sum(bit[j] for j in row) for row in index.g_neighbors]
        self._u_mask_bytes = max(1, (index.num_unreliable_edges + 7) >> 3)
        self._u_inc_masks = [
            sum(1 << eid for eid in eids) for eids in self._u_incident
        ]
        # The scheduled-edge bitmask is memoized process-wide under the
        # scheduler's delta cache key (same sharing license as the delta
        # sets themselves); unkeyed schedulers decode it per round.
        self._sched_mask_key = (
            self._scheduler.delta_cache_key() if self._has_unreliable else None
        )
        # Numpy-kernel views: per-vertex neighbor rows as index arrays (for
        # one concatenate per round instead of per-transmitter extends), row
        # lengths (for the matching repeat of sender ids), and a sender
        # scratch buffer.  Rebuilt with the rest of the index on topology
        # changes so the arrays stay in sync with the vertex numbering.
        np = self._np
        if np is not None:
            self._np_rows = [
                np.array(row, dtype=np.intp) for row in index.g_neighbors
            ]
            self._np_row_lens = np.array(
                [len(row) for row in index.g_neighbors], dtype=np.intp
            )
            self._np_sender = np.zeros(n, dtype=np.intp)
            self._np_n = n

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def graph(self) -> DualGraph:
        return self._graph

    @property
    def trace(self) -> ExecutionTrace:
        return self._trace

    @property
    def environment(self) -> Environment:
        return self._environment

    @property
    def scheduler(self) -> LinkScheduler:
        return self._scheduler

    @property
    def current_round(self) -> int:
        """The last completed round (0 before the first round runs)."""
        return self._current_round

    @property
    def uses_batch_stepping(self) -> bool:
        """Whether any processes are stepped through batch group drivers."""
        return bool(self._batch_drivers)

    @property
    def kernel_backend(self) -> Optional[str]:
        """``"numpy"`` or ``"python"`` when a kernel resolver runs, else None
        (reference lane, or the generic resolver inside the kernel lane)."""
        return self._kernel_backend

    @property
    def uses_counters_lane(self) -> bool:
        """Whether rounds run through the counters-only loop."""
        return self._counters_lane

    @property
    def lane(self) -> str:
        """The lane rounds actually run through: ``counters-kernel-<resolver>``,
        ``kernel-<resolver>`` (resolver ``numpy``, ``python`` or
        ``generic``), or ``reference``."""
        if self._lane == "reference":
            return "reference"
        prefix = "counters-" if self._counters_lane else ""
        return f"{prefix}kernel-{self._kernel_backend or 'generic'}"

    @property
    def lane_fallback(self) -> Optional[str]:
        """Why the fastest configuration -- the counters-only loop over a
        kernel resolver -- did not engage (``None`` when it did)."""
        return self._lane_fallback

    @property
    def batch_drivers(self) -> List[Any]:
        """The registered batch group drivers (empty when none apply)."""
        return list(self._batch_drivers)

    def process_at(self, vertex: Vertex) -> Process:
        """The process automaton assigned to ``vertex``."""
        return self._processes[vertex]

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, rounds: int) -> ExecutionTrace:
        """Run ``rounds`` additional rounds and return the trace."""
        if rounds < 0:
            raise ValueError("cannot run a negative number of rounds")
        if not self._started:
            for process in self._processes.values():
                process.on_start()
            self._started = True
        step = (
            self._run_one_round_kernel_counters
            if self._counters_lane
            else self._run_one_round
        )
        for _ in range(rounds):
            self._current_round += 1
            step(self._current_round)
        # Settle deferred driver state (member streams, stats) so callers
        # observe exactly the per-process state at every run boundary;
        # drivers rebuild their cohorts lazily if the run resumes mid-body.
        for driver in self._batch_drivers:
            driver.flush_kernel_state()
        return self._trace

    def run_until(self, predicate, max_rounds: int, check_every: int = 1) -> ExecutionTrace:
        """Run until ``predicate(trace)`` is true or ``max_rounds`` have elapsed.

        The predicate is evaluated every ``check_every`` rounds (and once more
        at the end).  Useful for "run until the flood completes" experiments.
        """
        if max_rounds < 0:
            raise ValueError("max_rounds must be non-negative")
        while self._current_round < max_rounds:
            step = min(check_every, max_rounds - self._current_round)
            self.run(step)
            if predicate(self._trace):
                break
        return self._trace

    # ------------------------------------------------------------------
    # one round of the Section 2 execution model
    # ------------------------------------------------------------------
    def _run_one_round(self, round_number: int) -> None:
        """One round of the Section 2 model, in four steps.

        Grouped processes get no per-round ``transmit`` / ``on_receive``
        dispatch at all; their drivers add transmissions to, and consume
        receptions from, the same round-level dicts the per-process loops
        use, which is what keeps traces byte-identical between the lanes
        (events are drained in registration order either way).  In the
        reference lane there are no drivers and every process is ungrouped.
        """
        trace = self._trace
        trace.note_round(round_number)

        for process in self._round_start_hooks:
            process.on_round_start(round_number)

        # 1. environment inputs
        inputs = self._environment.inputs_for_round(round_number)
        if inputs:
            processes = self._processes
            for vertex, vertex_inputs in inputs.items():
                process = processes[vertex]
                for inp in vertex_inputs:
                    process.on_input(round_number, inp)
                    trace.record_event(_as_bcast_event(vertex, inp, round_number))

        # 2. transmission decisions
        transmissions: Dict[Vertex, Any] = {}
        for driver in self._batch_drivers:
            driver.transmit_round(round_number, transmissions)
        for vertex, process in self._ungrouped.items():
            frame = process.transmit(round_number)
            if frame is not None:
                transmissions[vertex] = frame
        trace.record_transmissions(round_number, transmissions)

        # 3. topology for this round and reception resolution
        receptions = self._resolve_receptions(round_number, transmissions)
        trace.record_receptions(round_number, receptions)
        for driver in self._batch_drivers:
            driver.receive_round(round_number, receptions)
        if self._ungrouped:
            get_reception = receptions.get
            for vertex, process in self._ungrouped.items():
                process.on_receive(round_number, get_reception(vertex))

        # 4. outputs
        for process in self._round_end_hooks:
            process.on_round_end(round_number)
        round_outputs = []
        for process in self._ordered_processes:
            if process._pending_outputs:
                for event in process.drain_outputs():
                    trace.record_event(event)
                    round_outputs.append(event)
        self._environment.observe_outputs(round_number, round_outputs)

    def _run_one_round_kernel_counters(self, round_number: int) -> None:
        """One round of the counters-only kernel lane.

        `_run_one_round` specialized for the configuration the
        constructor proved safe: every process is driven by a batch driver, the trace keeps only counters, and the environment observes
        through the base-class methods.  Receptions are therefore counted by
        the drivers (no ``RecvOutput`` objects, no per-process drain scan --
        drivers hand back the round's materialized outputs, which are acks
        only) and the transmission/output containers are the Simulator's
        round-scoped reusable buffers.  Aggregate counters match the other
        lanes exactly; event *lists* are empty in ``COUNTERS`` mode in every
        lane, so nothing observable is lost.
        """
        trace = self._trace
        trace.note_round(round_number)
        environment = self._environment

        inputs = environment.inputs_for_round(round_number)
        if inputs:
            processes = self._processes
            for vertex, vertex_inputs in inputs.items():
                process = processes[vertex]
                for inp in vertex_inputs:
                    process.on_input(round_number, inp)
                    trace.record_event(_as_bcast_event(vertex, inp, round_number))

        transmissions = self._kr_transmissions
        transmissions.clear()
        for driver in self._batch_drivers:
            driver.transmit_round(round_number, transmissions)
        trace.record_transmissions(round_number, transmissions)

        receptions = self._resolve_receptions(round_number, transmissions)
        if receptions:
            trace.count_receptions(len(receptions))

        emitted = self._kr_outputs
        del emitted[:]
        recvs = 0
        for driver in self._batch_drivers:
            recvs += driver.receive_round_counters(round_number, receptions, emitted)
        if recvs:
            trace.count_recv_outputs(recvs)
        if emitted:
            for event in emitted:
                trace.record_event(event)
        environment.observe_outputs(round_number, emitted)

    # ------------------------------------------------------------------
    # reception resolution
    # ------------------------------------------------------------------
    def _resolve_receptions(
        self, round_number: int, transmissions: Dict[Vertex, Any]
    ) -> Dict[Vertex, Any]:
        """Apply the radio collision rule for one round.

        Returns only the vertices that actually received a frame; silent or
        collided listeners are simply absent (callers use ``.get``).
        """
        if not transmissions:
            return {}
        backend = self._kernel_backend
        if backend is None:
            return self._resolve_receptions_generic(round_number, transmissions)
        if self._index_version != self._graph.topology_version:
            # The graph was mutated mid-run (dynamic-topology experiment):
            # refresh the index view so edge ids stay in sync with the
            # schedulers, which key their own caches on the same version.
            self._bind_index()
        if backend == "numpy":
            return self._resolve_receptions_kernel_numpy(round_number, transmissions)
        return self._resolve_receptions_kernel_python(round_number, transmissions)

    def _resolve_receptions_kernel_python(
        self, round_number: int, transmissions: Dict[Vertex, Any]
    ) -> Dict[Vertex, Any]:
        """The collision rule as big-integer bitmask algebra.

        Computes exactly the receptions of :meth:`_resolve_receptions_generic`
        with every per-candidate container replaced by arbitrary-precision
        ints: each transmitter's reach this round is one mask over vertex
        indices (precomputed reliable neighborhood ORed with the decoded
        scheduled-unreliable bits), candidates reached twice are
        ``collided |= seen & mask``, and the winners are one expression,
        ``seen & ~(collided | transmitters)``.  A single transmitter never
        collides with itself (reliable rows have no duplicates, scheduled
        unreliable edges are disjoint from G's edges, and there are no
        self-loops), so the two-touch collision threshold is exact.  The
        masks live in a few hundred bytes regardless of degree, where the
        per-round frozenset delta views occupy ~64KB hash tables each -- the
        bitmask pass stays cache-resident where set intersection thrashes.

        Winner attribution needs no sender map: a winner was reached by
        exactly one transmitter, so intersecting each transmitter's mask with
        the winner mask partitions the winners.  The receptions dict's
        *insertion order* differs from the generic resolver's (ascending
        index per transmitter), which is observationally irrelevant for the
        same reasons as the numpy resolver: frame maps compare as dicts and
        events are drained in process-registration order.  The returned dict is reused across rounds -- every
        trace-recording path copies what it keeps.
        """
        idx_of = self._idx_of
        vertex_of = self._vertex_of

        tx_indices = [idx_of[vertex] for vertex in transmissions]
        if len(tx_indices) == 1:
            # Lone transmitter: every candidate wins (one transmitter's
            # candidates are duplicate-free, see above).
            i = tx_indices[0]
            frame = transmissions[vertex_of[i]]
            receptions = self._kr_receptions
            receptions.clear()
            for j in self._g_neighbors[i]:
                receptions[vertex_of[j]] = frame
            if self._has_unreliable:
                scheduled = self._scheduler.unreliable_edge_id_set_for_round(
                    round_number
                )
                if scheduled:
                    hit = scheduled & self._u_incident[i]
                    if hit:
                        nbs = self._u_neighbor_of[i]
                        for eid in hit:
                            receptions[vertex_of[nbs[eid]]] = frame
            return receptions

        scheduled_mask = (
            self._scheduled_edge_mask(round_number) if self._has_unreliable else 0
        )

        bit = self._v_bit
        gmasks = self._g_vmasks
        seen = 0
        collided = 0
        txmask = 0
        masks = self._kr_masks
        del masks[:]
        if scheduled_mask:
            inc_masks = self._u_inc_masks
            neighbor_of = self._u_neighbor_of
            for i in tx_indices:
                m = gmasks[i]
                u_hit = scheduled_mask & inc_masks[i]
                if u_hit:
                    nbs = neighbor_of[i]
                    while u_hit:
                        low = u_hit & -u_hit
                        u_hit ^= low
                        m |= bit[nbs[low.bit_length() - 1]]
                collided |= seen & m
                seen |= m
                txmask |= bit[i]
                masks.append(m)
        else:
            for i in tx_indices:
                m = gmasks[i]
                collided |= seen & m
                seen |= m
                txmask |= bit[i]
                masks.append(m)

        receptions = self._kr_receptions
        receptions.clear()
        win = seen & ~(collided | txmask)
        if win:
            for i, m in zip(tx_indices, masks):
                wm = m & win
                if wm:
                    win ^= wm
                    frame = transmissions[vertex_of[i]]
                    while wm:
                        low = wm & -wm
                        wm ^= low
                        receptions[vertex_of[low.bit_length() - 1]] = frame
                    if not win:
                        break
        return receptions

    def _scheduled_edge_mask(self, round_number: int) -> int:
        """The round's scheduled unreliable edges as one edge-id bitmask.

        Bit ``eid`` is set iff edge ``eid`` is scheduled this round, so
        ``mask & incident_mask[i]`` is transmitter ``i``'s scheduled
        unreliable edges in one C-level AND.  Decoded once per ``(delta
        identity, round)`` process-wide (see :data:`_SCHED_MASK_CACHE`);
        schedulers without a delta cache key get a fresh decode per round.
        """
        key = self._sched_mask_key
        if key is not None:
            mask = _SCHED_MASK_CACHE.get((key, round_number))
            if mask is not None:
                return mask
        buf = bytearray(self._u_mask_bytes)
        for eid in self._scheduler.unreliable_edge_ids_for_round(round_number):
            buf[eid >> 3] |= 1 << (eid & 7)
        mask = int.from_bytes(buf, "little")
        if key is not None:
            fifo_insert(
                _SCHED_MASK_CACHE, (key, round_number), mask, _SCHED_MASK_CACHE_MAXSIZE
            )
        return mask

    #: Transmitter count below which the numpy backend routes a round through
    #: the pure-python kernel resolver instead: with only a handful of
    #: transmitters the candidate arrays hold a few dozen elements and the
    #: fixed per-call cost of the numpy ops (array construction, concatenate,
    #: bincount) exceeds the whole python pass.  Both resolvers are
    #: byte-identical, so the routing is invisible in traces.
    _NUMPY_MIN_TX = 16

    def _resolve_receptions_kernel_numpy(
        self, round_number: int, transmissions: Dict[Vertex, Any]
    ) -> Dict[Vertex, Any]:
        """The collision rule as flat numpy kernels.

        Candidate receivers are one ``concatenate`` over the transmitters'
        precomputed neighbor-index arrays, matching sender ids one ``repeat``
        of the transmitter ids by row length, collision counts one
        ``bincount``, and the winners one boolean reduction -- no per-edge
        Python work for reliable edges.  Unreliable edges use a
        per-transmitter frozenset intersection with the round's scheduled
        delta (the sets are tiny and already precomputed; crossing them into
        numpy per round costs more than it saves).

        The receptions *dict insertion order* differs from the generic
        resolver's (ascending vertex index), which is
        observationally irrelevant: frame maps compare as dicts, events are
        drained in process-registration order, and each member handles at
        most one reception per round.  The sender scratch buffer carries
        stale values between rounds by design -- it is only ever read at
        indices whose collision count is exactly 1 this round, and those were
        all just written.  Like the python kernel, the returned dict is
        reused across rounds.
        """
        if len(transmissions) < self._NUMPY_MIN_TX:
            return self._resolve_receptions_kernel_python(round_number, transmissions)
        np = self._np
        idx_of = self._idx_of
        vertex_of = self._vertex_of
        rows = self._np_rows

        tx_indices = [idx_of[vertex] for vertex in transmissions]
        tx_arr = np.array(tx_indices, dtype=np.intp)
        cand = np.concatenate([rows[i] for i in tx_indices])
        senders = np.repeat(tx_arr, self._np_row_lens[tx_arr])

        if self._has_unreliable:
            scheduled = self._scheduler.unreliable_edge_id_set_for_round(round_number)
            if scheduled:
                incident = self._u_incident
                neighbor_of = self._u_neighbor_of
                js_list: List[int] = []
                ks_list: List[int] = []
                for i in tx_indices:
                    hit = scheduled & incident[i]
                    if hit:
                        nbs = neighbor_of[i]
                        for eid in hit:
                            js_list.append(nbs[eid])
                            ks_list.append(i)
                if js_list:
                    cand = np.concatenate(
                        [cand, np.array(js_list, dtype=np.intp)]
                    )
                    senders = np.concatenate(
                        [senders, np.array(ks_list, dtype=np.intp)]
                    )

        receptions = self._kr_receptions
        receptions.clear()
        if cand.size:
            counts = np.bincount(cand, minlength=self._np_n)
            sender_buf = self._np_sender
            sender_buf[cand] = senders
            ok = np.equal(counts, 1)
            ok[tx_arr] = False
            singles = np.flatnonzero(ok)
            if singles.size:
                single_senders = sender_buf[singles].tolist()
                for j, s in zip(singles.tolist(), single_senders):
                    receptions[vertex_of[j]] = transmissions[vertex_of[s]]
        return receptions

    def _resolve_receptions_generic(
        self, round_number: int, transmissions: Dict[Vertex, Any]
    ) -> Dict[Vertex, Any]:
        topology_edges = self._scheduler.resolve_topology(
            round_number, frozenset(transmissions)
        )
        # Build adjacency restricted to edges incident to a transmitter -- the
        # only edges that can possibly carry a frame this round.
        neighbors_of: Dict[Vertex, list] = {}
        for edge in topology_edges:
            a, b = tuple(edge)
            if a in transmissions:
                neighbors_of.setdefault(b, []).append(a)
            if b in transmissions:
                neighbors_of.setdefault(a, []).append(b)

        receptions: Dict[Vertex, Any] = {}
        for vertex, senders in neighbors_of.items():
            if vertex in transmissions:
                # A radio cannot hear while it transmits.
                continue
            if len(senders) == 1:
                receptions[vertex] = transmissions[senders[0]]
        return receptions


def _as_bcast_event(vertex: Vertex, inp: Any, round_number: int):
    """Wrap an environment input as a trace event.

    Environments submit :class:`repro.core.messages.Message` objects; the
    trace records them as :class:`repro.core.events.BcastInput`.  Inputs of
    other types (used by custom environments or upper layers) are recorded
    as-is if they are already events.
    """
    from repro.core.events import BcastInput
    from repro.core.messages import Message

    if isinstance(inp, BcastInput):
        return inp
    if isinstance(inp, Message):
        return BcastInput(vertex=vertex, message=inp, round_number=round_number)
    raise TypeError(
        f"environment inputs must be Message or BcastInput instances, got {type(inp).__name__}"
    )

"""Seeded workload generation for the benchmark.

Every workload is a suite manifest generated from the benchmark's ``--seed``
in the shape of a checked-in manifest under ``examples/suites/``.  The
program under test only ever receives the generated manifest files (or, for
the service, the same manifests as HTTP submission bodies); nothing here
imports the program.

Each topology seed, scheduler seed and master seed is drawn from a
``random.Random`` keyed on ``(workload, seed)``, so two entries of one suite
never share a schedule, the same seed always yields the same manifests, and a
different seed yields different ones.

Default seed: 1.  Held-out seed for checking a claimed gain: 20261017.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Tuple

DEFAULT_SEED = 1
HELD_OUT_SEED = 20261017

SUITE_WORKLOADS = ("dense-sweep", "sparse-ack", "traffic-queued")
SERVICE_WORKLOAD = "service-closed-loop"
WORKLOADS = SUITE_WORKLOADS + (SERVICE_WORKLOAD,)

#: Share of service submissions that repeat an earlier suite.  Kept below one
#: half so the latency median sits inside the fresh-job mode instead of on
#: the boundary between the fresh and the cached modes.
SERVICE_REPEAT_SHARE = 0.4

_TRAFFIC_SCHEDULERS = ("iid", "tasa", "longest_queue")
_TRAFFIC_RATES = (0.005, 0.02, 0.05)


def _rng(*key: Any) -> random.Random:
    # str seeds are hashed with SHA-512 by random.Random, independent of
    # PYTHONHASHSEED, so the stream is stable across processes and hosts.
    return random.Random(":".join(str(part) for part in key))


def _seed(rng: random.Random) -> int:
    return rng.randrange(1, 2**31)


def _entry(entry_id: str, group: str, scenario: Dict[str, Any]) -> Dict[str, Any]:
    scenario = dict(scenario, name=entry_id, version=1)
    return {"id": entry_id, "group": group, "scenario": scenario}


def _dense_sweep(rng: random.Random) -> List[Dict[str, Any]]:
    """``bench_progress`` shape: saturating LBAlg over Delta in {8, 16, 24},
    two topologies per Delta."""
    entries = []
    for delta, copy in ((delta, copy) for delta in (8, 16, 24) for copy in range(2)):
        entries.append(
            _entry(
                f"dense-d{delta}-t{copy}",
                f"delta-{delta}",
                {
                    "algorithm": {"name": "lbalg", "args": {"epsilon": 0.2, "preset": "derived"}},
                    "environment": {
                        "name": "saturating",
                        "args": {"senders": {"divisor": 6, "min": 2, "select": "first"}},
                    },
                    "metrics": [{"name": "params", "args": {}}, {"name": "progress", "args": {}}],
                    "run": {
                        "master_seed": _seed(rng),
                        "rounds": 4,
                        "rounds_unit": "phases",
                        "seed_policy": "fixed",
                        "trials": 1,
                    },
                    "scheduler": {"name": "iid", "args": {"probability": 0.5, "seed": _seed(rng)}},
                    "topology": {
                        "name": "target_degree",
                        "args": {"seed": _seed(rng), "target_delta": delta},
                    },
                },
            )
        )
    return entries


def _sparse_ack(rng: random.Random) -> List[Dict[str, Any]]:
    """``bench_ack`` shape: single-shot senders over one t_ack, Delta in {8, 16}.

    Six topologies per Delta: the round budget follows each sampled graph's
    realized degree, so fewer entries would let the seed alone move the
    suite's cost by more than the benchmark's bounds.
    """
    entries = []
    for delta in (8, 16):
        for trial in range(6):
            entries.append(
                _entry(
                    f"ack-d{delta}-t{trial}",
                    f"delta-{delta}",
                    {
                        "algorithm": {
                            "name": "lbalg",
                            "args": {"epsilon": 0.2, "preset": "derived"},
                        },
                        "environment": {
                            "name": "single_shot",
                            "args": {"senders": {"count": 3, "select": "first"}},
                        },
                        "metrics": [
                            {"name": "params", "args": {}},
                            {"name": "ack_delay", "args": {}},
                            {"name": "delivery", "args": {}},
                        ],
                        "run": {
                            "master_seed": _seed(rng),
                            "rounds": 1,
                            "rounds_unit": "tack",
                            "seed_policy": "fixed",
                            "trials": 1,
                        },
                        "scheduler": {
                            "name": "iid",
                            "args": {"probability": 0.5, "seed": _seed(rng)},
                        },
                        "topology": {
                            "name": "target_degree",
                            "args": {"seed": _seed(rng), "target_delta": delta},
                        },
                    },
                )
            )
    return entries


def _traffic_entry(rng: random.Random, entry_id: str, scheduler: str, rate: float, trials: int):
    # iid draws its schedule from the trial seed (no pinned seed), as in
    # bench_traffic; tasa / longest_queue are slot-frame schedulers.
    scheduler_args = {"probability": 0.5} if scheduler == "iid" else {}
    return _entry(
        entry_id,
        entry_id,
        {
            "algorithm": {"name": "lbalg", "args": {"preset": "small"}},
            "engine": {"trace_mode": "full"},
            "environment": {"name": "queued", "args": {}},
            "metrics": [{"name": "queue", "args": {}}],
            "run": {
                "master_seed": _seed(rng),
                "rounds": 3,
                "rounds_unit": "tack",
                "seed_policy": "derived",
                "trials": trials,
            },
            "scheduler": {"name": scheduler, "args": scheduler_args},
            "topology": {"name": "target_degree", "args": {"seed": _seed(rng), "target_delta": 8}},
            "traffic": {
                "arrival": {"name": "poisson", "args": {"rate": rate}},
                "capacity": 0,
                "sinks": [0],
            },
        },
    )


def _traffic_queued(rng: random.Random) -> List[Dict[str, Any]]:
    """``bench_traffic`` shape: queued poisson load x three link schedulers."""
    return [
        _traffic_entry(rng, f"traffic-{scheduler}-r{rate}", scheduler, rate, trials=5)
        for rate in _TRAFFIC_RATES
        for scheduler in _TRAFFIC_SCHEDULERS
    ]


_BUILDERS = {
    "dense-sweep": _dense_sweep,
    "sparse-ack": _sparse_ack,
    "traffic-queued": _traffic_queued,
}


def suite_manifest(workload: str, seed: int) -> Dict[str, Any]:
    """The inline suite manifest of one suite workload for ``seed``."""
    if workload not in _BUILDERS:
        raise ValueError(f"{workload!r} is not a suite workload; choose from {SUITE_WORKLOADS}")
    rng = _rng(workload, seed)
    return {
        "name": f"perfbench-{workload}-s{seed}",
        "description": f"perfbench {workload} workload, seed {seed}",
        "version": 1,
        "entries": _BUILDERS[workload](rng),
    }


def service_suite(seed: int, index: int) -> Dict[str, Any]:
    """Distinct suite ``index`` of the service workload: one arrival rate,
    the three traffic schedulers, two trials each (``traffic-queued`` shape)."""
    rng = _rng(SERVICE_WORKLOAD, seed, "suite", index)
    rate = rng.choice(_TRAFFIC_RATES)
    return {
        "name": f"perfbench-service-s{seed}-{index}",
        "description": f"perfbench service suite {index}, seed {seed}",
        "version": 1,
        "entries": [
            _traffic_entry(rng, f"svc{index}-{scheduler}", scheduler, rate, trials=2)
            for scheduler in _TRAFFIC_SCHEDULERS
        ],
    }


def service_plan(seed: int, length: int) -> List[Tuple[int, bool]]:
    """The first ``length`` service submissions as ``(suite index, repeat)``.

    Submission ``i`` repeats an earlier distinct suite (chosen by the seed)
    for a fixed share of the submissions; the rest introduce the next fresh
    suite.  Submission 0 is always fresh.
    """
    rng = _rng(SERVICE_WORKLOAD, seed, "plan")
    plan: List[Tuple[int, bool]] = []
    fresh = 0
    for i in range(length):
        # A fixed share: exactly round(i * share) repeats among the first i.
        repeat = i > 0 and int((i + 1) * SERVICE_REPEAT_SHARE) > int(i * SERVICE_REPEAT_SHARE)
        if repeat:
            plan.append((rng.randrange(fresh), True))
        else:
            plan.append((fresh, False))
            fresh += 1
    return plan

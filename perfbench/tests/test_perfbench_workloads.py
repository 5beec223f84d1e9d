"""The benchmark's seeded workload generation.

Same seed -> same suite fingerprints; different seed -> different ones; every
generated manifest validates through the program's ``SuiteSpec``.
"""

from __future__ import annotations

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import workloads  # noqa: E402
from repro.scenarios.suite import SuiteSpec  # noqa: E402


def _fingerprint(manifest):
    return SuiteSpec.from_dict(manifest).fingerprint()


@pytest.mark.parametrize("workload", workloads.SUITE_WORKLOADS)
def test_suite_workloads_are_seeded(workload):
    default = _fingerprint(workloads.suite_manifest(workload, workloads.DEFAULT_SEED))
    assert _fingerprint(workloads.suite_manifest(workload, workloads.DEFAULT_SEED)) == default
    assert _fingerprint(workloads.suite_manifest(workload, workloads.HELD_OUT_SEED)) != default


@pytest.mark.parametrize("workload", workloads.SUITE_WORKLOADS)
def test_entries_never_share_seeds(workload):
    suite = SuiteSpec.from_dict(workloads.suite_manifest(workload, workloads.DEFAULT_SEED))
    topology_seeds = [entry.scenario.topology.args["seed"] for entry in suite.entries]
    master_seeds = [entry.scenario.run.master_seed for entry in suite.entries]
    assert len(set(topology_seeds)) == len(topology_seeds)
    assert len(set(master_seeds)) == len(master_seeds)


def test_service_suites_are_seeded_and_distinct():
    seed = workloads.DEFAULT_SEED
    first = [_fingerprint(workloads.service_suite(seed, index)) for index in range(4)]
    assert [_fingerprint(workloads.service_suite(seed, index)) for index in range(4)] == first
    assert len(set(first)) == len(first)
    assert _fingerprint(workloads.service_suite(workloads.HELD_OUT_SEED, 0)) != first[0]


def test_service_plan_repeats_a_fixed_share_of_earlier_suites():
    plan = workloads.service_plan(workloads.DEFAULT_SEED, 500)
    assert plan == workloads.service_plan(workloads.DEFAULT_SEED, 500)
    assert plan != workloads.service_plan(workloads.HELD_OUT_SEED, 500)
    repeats = [index for index, repeat in plan if repeat]
    assert abs(len(repeats) / len(plan) - workloads.SERVICE_REPEAT_SHARE) < 0.01
    introduced = 0
    for index, repeat in plan:
        if repeat:
            assert index < introduced
        else:
            assert index == introduced
            introduced += 1

"""The README's engine table is rendered from the committed BENCH_engine.json."""

from __future__ import annotations

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "check_docs.py"


def _check_docs():
    spec = importlib.util.spec_from_file_location("check_docs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_readme_engine_table_matches_bench_engine_json():
    assert _check_docs().check_engine_table() is None


def test_table_renders_every_workload_row_in_order():
    check_docs = _check_docs()
    row = {
        "delta": 9,
        "unreliable_edges": 114,
        "reference_rps": 100.0,
        "kernel_rps": 1500.0,
        "kernel_counters_rps": 2000.4,
        "speedup_kernel": 15.0,
        "speedup_kernel_counters": 20.004,
    }
    table = check_docs.render_engine_table(
        {"workloads": [dict(row, n=400), dict(row, n=25)]}
    )
    lines = table.splitlines()
    assert len(lines) == 4
    assert lines[2] == "| 25 | 9 | 114 | 100 | 1500 | 2000 | 15.0× | 20.0× |"
    assert lines[3].startswith("| 400 |")

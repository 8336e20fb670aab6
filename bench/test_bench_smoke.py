"""Smoke test of the benchmark at reduced size.

One ladder seed, 30-region arenas and 100 control steps: every metric named
in ``BENCHMARK.json`` is emitted and every output check passes.
"""

import json
from pathlib import Path

import pytest

from measure import measure
from workloads import Sizes

SMALL = Sizes(ladder_seeds=(24,), ladder_steps=100, coupled_steps=100,
              arena_regions=30, arena_steps=100)
BENCHMARK = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_every_metric_is_emitted_and_every_check_passes(workload):
    untraced = measure(workload, seed=0, seconds=0, trace=False, sizes=SMALL,
                       setup_runs=1)
    traced = measure(workload, seed=0, seconds=0, trace=True, sizes=SMALL,
                     setup_runs=1)
    assert set(untraced.metrics) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert set(traced.metrics) == {m["name"] for m in BENCHMARK["per_layer"]}
    for result in (untraced, traced):
        assert result.checks.attempted > 0
        assert result.checks.failed == 0, result.checks.messages
        assert result.rows

"""The benchmark's workloads read the program through its public API
(`discrepancy.TWO_ROUTE_TOL`, `expected_discrepancy_all`, the `.real` and
`.imag` of `per_transcript_sum`, ...).  Each workload's tiny pass runs here
in-process, so a change under `src/` that breaks one of those reads fails
a test rather than every op of a benchmark run."""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def workloads(monkeypatch):
    # the benchmark's modules import each other by their bare names
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import one_pass
    import workloads

    yield one_pass, workloads.WORKLOADS
    for name in ("one_pass", "workloads", "reference", "tracer"):
        sys.modules.pop(name, None)


@pytest.mark.parametrize("name", ["asymptotic", "desk_exact", "large_instances", "finite_m"])
def test_tiny_workload_pass_has_no_failed_op(workloads, name, tmp_path):
    one_pass, table = workloads
    result = one_pass.run_pass(table[name](1, "tiny", tmp_path), False)
    assert result["failed"] == 0, result["errors"]
    assert result["attempted"] > 0

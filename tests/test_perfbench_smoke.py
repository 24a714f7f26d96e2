"""The benchmark's ops and its traced pass run against the library as it is.

perfbench calls public su3kit names (and a few private ones in its
traced pass).  Running each coverage op once, judging its result, and
tracing the same ops makes a rename of any of them fail here rather
than in a benchmark run.  The set-up probes, which start processes,
are left out.
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench import measure, tracing, workloads  # noqa: E402


@pytest.fixture(scope="module")
def ops(tmp_path_factory):
    return workloads.coverage(1, str(tmp_path_factory.mktemp("docs")))


def test_every_coverage_op_passes_its_judge(ops):
    assert {op.kind for op in ops} >= {"exp_su3", "principal_log", "branch_log", "factorize"}
    for op in ops:
        err = op.judge(op.call())
        assert err <= op.limit, (op.kind, op.family, err)


def test_one_pass_yields_every_metric(ops):
    """One closed-loop pass and one traced pass, through the metrics run.py prints."""
    res = measure.closed_loop(ops, 0.0)
    assert res["calls"] == len(ops) and res["failed"] == 0
    assert set(measure.end_to_end(res, 0.1)) == {name for name, _ in measure.END_TO_END}
    tr, wall = tracing.traced_pass(ops)
    assert len(tr.durations()["op"]) == len(ops)
    values = tracing.per_layer(tr, tr, wall, res)
    assert set(values) == {name for name, _, _ in tracing.METRICS}

"""Every benchmark workload runs once on the program as it stands.

perfbench/workloads.py calls psygat's functions directly (build_graph,
extract_instances, train_scorer and others), so a signature change there
breaks `perfbench/run.py` while the unit tests stay green. Each workload
here sets up from seed 0, runs one operation and then its checks, and
must fail no operation and pass every whole-run check.
"""

import pytest

from perfbench import workloads


class OneOperation:
    """A clock whose loop runs exactly once."""

    def __init__(self):
        self.calls = 0

    def running(self):
        self.calls += 1
        return self.calls == 1


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_runs_one_operation_and_passes_its_checks(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    state = workload.setup(0, tmp_path / "work")
    outcome = workload.run(state, OneOperation())
    if workload.check is not None:
        workload.check(state, outcome)
    assert outcome.attempted >= 1 and outcome.latencies
    assert outcome.failed == 0
    assert all(outcome.checks.values()), outcome.checks

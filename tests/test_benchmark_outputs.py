"""The benchmark's output check on every invocation of its workloads.

Each invocation of ``perfbench/workloads.py`` runs once in process, at one
seed, and its report must pass ``perfbench/check.py`` against the references
in ``perfbench/reference/``: the check behind a benchmark run's verdict on
its outputs.  A changed row id, classification flag or evaluate table fails
here first.
"""

import sys
from pathlib import Path

import pytest

from spraylab import cli

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import check  # noqa: E402
import workloads  # noqa: E402

SEED = 1


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_workload_invocation_passes_the_output_check(name, tmp_path, capsys):
    refs = check.load_reference(name)["runs"]
    invocations = workloads.WORKLOADS[name].invocations
    assert len(refs) == len(invocations)
    for k, (inv, ref) in enumerate(zip(invocations, refs)):
        report = tmp_path / f"{k}.report.json"
        rc = cli.main(inv.argv(SEED, str(report)))
        capsys.readouterr()
        assert check.check_run(inv, rc, report, ref) == [], inv.spray

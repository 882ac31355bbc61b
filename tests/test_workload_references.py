"""The benchmark's workloads, run in-process at each shipped seed, match its references.

``benchmarks/run.py`` counts an operation as failed when its outputs leave
``benchmarks/reference/`` by more than ``REF_RTOL`` of a column's peak, so a
change that moves the Newton iterates is refused there.  This runs the same
check on each workload at the default and the held-out seed, with the
workload's own argv and checker, so such a change fails here first.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from amps.cli import main

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def load_workloads():
    spec = importlib.util.spec_from_file_location("benchmark_workloads",
                                                  BENCHMARKS / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = load_workloads()


@pytest.mark.parametrize("seed", workloads.SHIPPED_SEEDS, ids=lambda seed: f"seed{seed}")
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_shipped_seed_outputs_match_reference(name, seed, tmp_path):
    inputs, out = tmp_path / "inputs", tmp_path / "out"
    inputs.mkdir()
    out.mkdir()
    case = workloads.WORKLOADS[name](seed, inputs)
    assert main(case.argv(out)) == 0
    with np.load(BENCHMARKS / "reference" / f"{name}-seed{case.seed}.npz") as npz:
        ref = {k: npz[k].astype(float) for k in npz.files}
    assert case.failures(case.tables(out), ref) == 0

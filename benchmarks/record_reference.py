"""Record the reference outputs of every workload for the shipped seeds.

Usage, from the root of a checkout: ``python3 benchmarks/record_reference.py``.
Run it only on a commit whose outputs are trusted: later runs of those
seeds must match what it writes to ``reference/``. Values are stored as
float32, well inside the 1e-6-of-peak tolerance they are checked to.
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path

import numpy as np

from run import REFERENCE, WORK, run_once
from workloads import SHIPPED_SEEDS, WORKLOADS


def main() -> int:
    REFERENCE.mkdir(exist_ok=True)
    WORK.mkdir(exist_ok=True)
    for name, workload in sorted(WORKLOADS.items()):
        for seed in SHIPPED_SEEDS:
            scratch = Path(tempfile.mkdtemp(prefix="reference-", dir=WORK))
            try:
                (scratch / "inputs").mkdir()
                case = workload(seed, scratch / "inputs")
                run = run_once(case, scratch / "run", traced=False)
                tables = case.tables(scratch / "run" / "out")
                if run["rc"] != 0 or case.failures(tables, None):
                    raise SystemExit(f"{name} seed {seed}: outputs fail their checks")
                np.savez_compressed(
                    REFERENCE / f"{name}-seed{seed}.npz",
                    **{k: v.astype(np.float32) for k, v in tables.items()},
                )
                print(f"{name} seed {seed}: {case.size}")
            finally:
                shutil.rmtree(scratch)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

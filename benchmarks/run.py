"""The amps benchmark.

Usage, from the root of a checkout::

    python3 benchmarks/run.py --workload bench_grid --seed 1 --seconds 30 --trace 0

Builds the workload's inputs from ``--seed``, then runs ``amps`` on them in
fresh processes, one after another, for about ``--seconds`` of measured
time, after one untimed warm-up process that stops at the first solver
call (it compiles bytecode and warms the file cache). Each
process is one invocation of ``amps.cli.main`` with BLAS threads pinned to
1. Outputs are checked after each run, outside the timed region: against
the acceptance thresholds, for byte-identical repeats, and, for the shipped
seeds, against outputs recorded under ``reference/``.

``--trace 0`` reports the end-to-end metrics (medians over the runs).
``--trace 1`` alternates untraced and traced runs and reports per-layer
metrics from the traced ones, plus the tracing overhead. The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``. The lines before it give provenance, the workload's size and
why it was chosen, and every metric with its unit and spread.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from spans import layer_metrics
from workloads import SHIPPED_SEEDS, SRC, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"  # scratch space inside the checkout, ignored by git
REFERENCE = HERE / "reference"
CONFIG = ROOT / "BENCHMARK.json"  # workloads, metric names and units
# Every run of amps gets one BLAS thread and the same string hashes. Bytecode
# is cached, as in a normal install, so set-up does not recompile amps each run.
CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
# Measured runs, whatever --seconds says: a median of 3, and in traced mode 2
# traced runs to compare counts. A bench_grid run (8 x 3 000 steps) is long,
# so a larger floor would stretch its runs well past --seconds.
MIN_RUNS = {0: 3, 1: 4}
# Untraced mode also starts this many processes that stop at the first solver
# call: set-up is short and noisy, so its median needs more samples than runs give.
SETUP_PROBES = 12
CHILD_TIMEOUT_S = 120

# Counts that repeat exactly between runs of one seed; a difference fails the run.
DETERMINISTIC = (
    "solver.newton_per_point", "solver.assembles_per_point",
    "device.evals_per_point", "solver.useful_newton_ratio",
)


def run_once(case, rundir: Path, traced: bool, setup_only: bool = False) -> dict:
    """One ``amps`` process on the case's inputs; timings from process start."""
    out = rundir / "out"
    out.mkdir(parents=True)
    result = rundir / "child.json"
    cfg = {"src": str(SRC), "argv": case.argv(out), "trace": traced,
           "setup_only": setup_only, "result": str(result)}
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"} | CHILD_ENV
    with open(rundir / "stdout.txt", "w") as so, open(rundir / "stderr.txt", "w") as se:
        started = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), json.dumps(cfg)],
            stdout=so, stderr=se, env=env, cwd=ROOT,
        )
        try:
            rc = proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            rc = None
        wall = time.monotonic() - started
    record = json.loads(result.read_text()) if result.is_file() else {}
    first = record.get("first_solver_call")
    return {
        "rc": rc if rc is not None else "timeout",
        "traced": traced,
        "wall_s": wall,
        "setup_s": None if first is None else first - started,
        "peak_rss_mb": record.get("maxrss_kb", 0) / 1024.0,
        "spans": record.get("spans"),
        "not_found": record.get("not_found", []),
    }


def digest(out: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def check(case, rundir: Path, run: dict, ref) -> int:
    """Failed operations of one run; a non-zero exit fails all of them."""
    if run["rc"] != 0:
        return case.ops
    return case.failures(case.tables(rundir / "out"), ref)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def provenance(case, why: str, started_load) -> dict:
    head = ROOT / ".git" / "HEAD"
    revision = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        ref_file = ROOT / ".git" / ref.removeprefix("ref: ")
        revision = ref_file.read_text().strip() if ref_file.is_file() else ref
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "amps").rglob("*.py")):
        src_hash.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_revision": revision,
        "src_sha256": src_hash.hexdigest()[:16],
        "child_env": CHILD_ENV,
        "loadavg_at_start": started_load,
        "workload": case.name,
        "seed": case.seed,
        "shipped_seed": case.seed in SHIPPED_SEEDS,
        "size": case.size,
        "points_per_run": case.points,
        "ops_per_run": case.ops,
        "why": why,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "amps" / "__init__.py").is_file():
        print(f"no amps source under {SRC}: run from a full checkout", file=sys.stderr)
        return 2
    load = os.getloadavg()
    WORK.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        return measure(args, scratch, load)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def end_to_end(case, plain: list[dict], setups: list[float], ok_frac: float) -> dict[str, list[float]]:
    """Samples of each end-to-end metric, one per untraced run that reached the solver.

    ``setups`` are the set-up times of the probes. Every operation of a
    workload holds the same number of points, so a run's accepted points
    are its share of operations that passed the checks.
    """
    plain = [r for r in plain if r["setup_s"] is not None]
    if not plain:
        raise SystemExit("no untraced run reached the solver")
    return {
        "setup_s": [r["setup_s"] for r in plain] + setups,
        "wall_s": [r["wall_s"] for r in plain],
        "points_per_s": [
            case.points * (case.ops - r["failed"]) / case.ops / (r["wall_s"] - r["setup_s"])
            for r in plain
        ],
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
        "ok_frac": [ok_frac],
    }


def per_layer(case, runs: list[dict], plain: list[dict], problems: list[str]):
    """Samples of each per-layer metric, one per traced run, and the tracing overhead."""
    spans = [r["spans"] for r in runs if r["traced"] and r["spans"]]
    if not spans:
        raise SystemExit("no traced run finished")
    (WORK / f"spans-{case.name}-seed{case.seed}.json").write_text(json.dumps(spans[-1]))
    traced = [layer_metrics(s) for s in spans]
    for name in DETERMINISTIC:
        if len({t[name] for t in traced}) > 1:
            problems.append(f"{name} differs between traced runs of one seed")
    samples = {name: [t[name] for t in traced] for name in traced[0]}
    samples["trace.overhead_s"] = [
        statistics.median(r["wall_s"] for r in runs if r["traced"])
        - statistics.median(r["wall_s"] for r in plain)
    ]
    return samples


def measure(args, scratch: Path, load) -> int:
    inputs = scratch / "inputs"
    inputs.mkdir()
    case = WORKLOADS[args.workload](args.seed, inputs)
    ref = None
    if case.seed in SHIPPED_SEEDS:
        with np.load(REFERENCE / f"{case.name}-seed{case.seed}.npz") as npz:
            ref = {k: npz[k].astype(float) for k in npz.files}

    attempted = failed = 0
    problems: list[str] = []
    runs: list[dict] = []
    first_digest = None
    spent = 0.0
    index = 0
    warmup = run_once(case, scratch / "warmup", traced=False, setup_only=True)
    if warmup["rc"] != 0 or warmup["setup_s"] is None:
        problems.append(f"warm-up: exit {warmup['rc']} before the solver")
    shutil.rmtree(scratch / "warmup")
    while True:
        traced = bool(args.trace) and index % 2 == 1
        rundir = scratch / f"run{index}"
        run = run_once(case, rundir, traced)
        bad = check(case, rundir, run, ref)
        if run["rc"] == 0 and bad < case.ops:
            d = digest(rundir / "out")
            first_digest = first_digest or d
            if d != first_digest:
                problems.append(f"run {index}: outputs differ from the first run's")
                bad = case.ops
        if bad:
            problems.append(f"run {index}: exit {run['rc']}, {bad}/{case.ops} operations failed")
        if run["not_found"]:
            problems.append(f"run {index}: not found to wrap: {', '.join(run['not_found'])}")
        run["failed"] = bad
        attempted += case.ops
        failed += bad
        shutil.rmtree(rundir)
        index += 1
        spent += run["wall_s"]
        runs.append(run)
        typical = statistics.median(r["wall_s"] for r in runs)
        if len(runs) >= MIN_RUNS[args.trace] and spent + typical > args.seconds:
            break

    plain = [r for r in runs if not r["traced"]]
    if args.trace:
        samples = per_layer(case, runs, plain, problems)
    else:
        setups = []
        for probe in range(SETUP_PROBES):
            rundir = scratch / f"probe{probe}"
            run = run_once(case, rundir, traced=False, setup_only=True)
            if run["rc"] != 0 or run["setup_s"] is None:
                problems.append(f"set-up probe {probe}: exit {run['rc']} before the solver")
            else:
                setups.append(run["setup_s"])
            shutil.rmtree(rundir)
        samples = end_to_end(case, plain, setups, 1.0 - failed / attempted)

    config = json.loads(CONFIG.read_text())
    why = next(w["why"] for w in config["workloads"] if w["name"] == case.name)
    units = {m["name"]: m["unit"] for m in config["per_layer" if args.trace else "end_to_end"]}
    print("provenance " + json.dumps(provenance(case, why, load)))
    print(f"workload {case.name} seed {case.seed}: {case.size}; {len(runs)} measured runs "
          f"({len(plain)} untraced) in {spent:.1f} s")
    print(f"why: {why}")
    print(f"failed_frac = {failed / attempted:.6g} frac ({failed} of {attempted} operations)")
    metrics = {}
    for name, unit in units.items():
        q1, med, q3 = quartiles(samples[name])
        metrics[name] = {"value": med, "unit": unit}
        print(f"{name} = {med:.6g} {unit} (q1 {q1:.6g}, q3 {q3:.6g}, n {len(samples[name])})")
    for problem in problems:
        print(f"problem: {problem}")
    correct = failed == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

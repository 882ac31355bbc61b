"""The benchmark's workloads: seeded inputs for ``amps`` and checks on its outputs.

Each workload turns a seed into the argv (and, for ``netlist_run``, the
netlist file) that one ``amps`` invocation receives, states its size, and
checks the files that invocation writes. The program sees only the
generated inputs, never the seed.

Seeded draws are stratified (one draw per band of frequency, temperature)
so that every seed asks for about the same amount of work: the spread
between seeds then measures the program, not the draw.
"""

from __future__ import annotations

import csv
import math
import random
import sys
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"

# Seeds whose outputs are recorded under reference/. Tune a change on the
# default seed; re-check the claim on the held-out one.
DEFAULT_SEED = 1
HELD_OUT_SEED = 2
SHIPPED_SEEDS = (DEFAULT_SEED, HELD_OUT_SEED)

# Outputs must match the recorded reference to this share of each column's
# peak magnitude (the tolerance the roadmap allows the compiled-stamp work).
REF_RTOL = 1e-6

HALF_AMP = 200e-6  # A, half of the bench's default 400 uA peak-to-peak input
BAND = 0.05 * HALF_AMP  # A, acceptance c4/c5 error band
LEAK = 10e-6  # A, acceptance c4 leakage bound and conduction threshold


def read_table(path: Path, names: list[str]) -> np.ndarray | None:
    """Numeric rows of a CSV whose header (after any '#' lines) is ``names``.

    Returns None when the file is missing or its header differs, so the
    caller counts every operation the file holds as failed.
    """
    if not path.is_file():
        return None
    with open(path) as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    if not lines or lines[0].strip().split(",") != names:
        return None
    try:
        return np.loadtxt(lines[1:], delimiter=",", ndmin=2)
    except ValueError:
        return None


def row_mismatch(out: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Rows of ``out`` off ``ref`` by more than REF_RTOL of a column's peak."""
    if out.shape != ref.shape:
        return np.ones(len(out), dtype=bool)
    tol = REF_RTOL * np.max(np.abs(ref), axis=0)
    return ~np.all(np.abs(out - ref) <= tol, axis=1)


def _stratified(rng: random.Random, lo: float, hi: float, bins: int) -> list[float]:
    width = (hi - lo) / bins
    return [rng.uniform(lo + i * width, lo + (i + 1) * width) for i in range(bins)]


def _sig(x: float, digits: int = 4) -> float:
    return float(f"{x:.{digits}g}")


class Workload:
    """One seeded instance of a workload.

    Subclasses take ``(seed, inputs)``, ``inputs`` being a directory where
    they may write input files for ``amps``.
    """

    name = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(f"{self.name}:{seed}")
        self.points = 0  # solution points per invocation, the same number per operation
        self.ops = 0  # operations attempted per invocation
        self.size = ""

    def argv(self, out: Path) -> list[str]:
        raise NotImplementedError

    def tables(self, out: Path) -> dict[str, np.ndarray]:
        """The numeric outputs of one invocation, keyed by file name."""
        raise NotImplementedError

    def failures(self, tables: dict[str, np.ndarray], ref: dict | None) -> int:
        """Operations whose outputs fail a check (``ref`` None: no reference)."""
        raise NotImplementedError


class BenchGrid(Workload):
    name = "bench_grid"
    # The product's step density (amps bench's default), over the fewest
    # periods compare() accepts: 2.25 periods remain after its startup cut.
    PERIODS = 3
    STEPS_PER_PERIOD = 1000
    COLUMNS = ["time", "iin", "out_plus", "out_minus", "i_vdd", "i_vss"]
    REPORT = [
        "freq", "temp", "rms_error_plus", "rms_error_minus", "peak_error_plus",
        "peak_error_minus", "zero_crossing_width", "dc_power", "status",
    ]

    def __init__(self, seed: int, inputs: Path):
        super().__init__(seed)
        # one frequency per 1.25 decades of 1 kHz..100 MHz, one temperature
        # per half of 25..100 degC
        self.freqs = [_sig(10.0**e) for e in _stratified(self.rng, 3.0, 8.0, 4)]
        self.temps = [round(t, 1) for t in _stratified(self.rng, 25.0, 100.0, 2)]
        self.scenarios = [(f, t) for f in self.freqs for t in self.temps]
        self.rows = self.PERIODS * self.STEPS_PER_PERIOD + 1
        self.points = len(self.scenarios) * self.rows
        self.ops = len(self.scenarios)
        self.size = (
            f"{len(self.scenarios)} scenarios x {self.rows - 1} steps = "
            f"{self.points} points"
        )

    def argv(self, out: Path) -> list[str]:
        return [
            "bench",
            "--freq", ",".join(repr(f) for f in self.freqs),
            "--temp", ",".join(repr(t) for t in self.temps),
            "--periods", str(self.PERIODS),
            "--steps-per-period", str(self.STEPS_PER_PERIOD),
            "-o", str(out),
        ]

    @staticmethod
    def csv_name(freq: float, temp: float) -> str:
        return f"bench_f{freq:.0f}_t{temp:g}.csv"

    def tables(self, out: Path) -> dict[str, np.ndarray]:
        found = {}
        report = out / "report.csv"
        if report.is_file():
            with open(report, newline="") as fh:
                rows = list(csv.reader(fh))
            if rows and rows[0] == self.REPORT:
                # status becomes a 0/1 column so the report compares numerically
                try:
                    found["report.csv"] = np.array(
                        [[float(v) for v in r[:-1]] + [float(r[-1] == "ok")] for r in rows[1:]]
                    )
                except ValueError:
                    pass  # unreadable report: every scenario counts as failed
        for f, t in self.scenarios:
            table = read_table(out / self.csv_name(f, t), self.COLUMNS)
            if table is not None:
                found[self.csv_name(f, t)] = table
        return found

    def failures(self, tables, ref) -> int:
        report = tables.get("report.csv")
        if report is None or report.shape != (len(self.scenarios), len(self.REPORT)):
            return self.ops
        if ref is not None:
            report_off = row_mismatch(report, ref["report.csv"])
        failed = 0
        for i, (f, t) in enumerate(self.scenarios):
            name = self.csv_name(f, t)
            data = tables.get(name)
            row = report[i]
            ok = (
                data is not None
                and data.shape == (self.rows, len(self.COLUMNS))
                and np.all(np.isfinite(data))
                and np.all(np.diff(data[:, 0]) > 0)
                and row[0] == f
                and row[1] == t
                and row[-1] == 1.0
                and np.all(np.isfinite(row))
                and self._meets_oracle(f, data)
            )
            if ok and ref is not None:
                ok = not (report_off[i] or row_mismatch(data, ref[name]).any())
            failed += not ok
        return failed

    @staticmethod
    def _meets_oracle(freq: float, data: np.ndarray) -> bool:
        """Acceptance c5 up to 1 MHz (rms error), c6 above (correlation).

        Both are computed from the waveforms, past compare()'s 25 % startup
        cut, against the exact oracle: out_plus = -min(iin, 0) and
        out_minus = min(iin, 0).
        """
        t = data[:, 0]
        keep = t >= t[0] + 0.25 * (t[-1] - t[0]) - 1e-15
        t, iin, plus, minus = data[keep, 0], data[keep, 1], data[keep, 2], data[keep, 3]
        ideal = -np.minimum(iin, 0.0)
        if freq > 1e6:
            return bool(np.corrcoef(plus, ideal)[0, 1] > 0.9)

        def norm_rms(err: np.ndarray) -> float:
            return float(np.sqrt(np.trapezoid(err * err, t) / (t[-1] - t[0]))) / HALF_AMP

        return norm_rms(plus - ideal) < 0.05 and norm_rms(minus + ideal) < 0.05


class NetlistRun(Workload):
    name = "netlist_run"
    STAGES = 20
    FREQ = 10e6  # Hz, input sinusoid
    # One period at the product's 1 000 steps/period. amps' fixed-step
    # transient has no step cut, and at 250 steps/period (4 periods) it
    # aborts on Newton non-convergence mid-transition for about 1 chain in 20.
    PERIODS = 1
    STEPS = 1000

    def __init__(self, seed: int, inputs: Path):
        super().__init__(seed)
        lines = [
            f"cmos inverter chain, seed {seed}",
            "VDD vdd 0 DC 1.5",
            "VSS vss 0 DC -1.5",
            f"VIN in 0 SIN(0 1.5 {self.FREQ!r})",
        ]
        nodes = ["vdd", "vss", "in"]
        prev = "in"
        for k in range(1, self.STAGES + 1):
            wn = _sig(self.rng.uniform(1.0e-6, 3.0e-6))
            wp = _sig(wn * self.rng.uniform(2.0, 3.0))
            cap = _sig(self.rng.uniform(5e-15, 20e-15))
            out = f"s{k}"
            nodes.append(out)
            lines.append(f"MP{k} {out} {prev} vdd vdd CMOSP W={wp!r} L=0.15u")
            lines.append(f"MN{k} {out} {prev} vss vss CMOSN W={wn!r} L=0.15u")
            if k % 2 == 0:  # every second stage drives its load through a wire
                wire = f"w{k}"
                nodes.append(wire)
                lines.append(f"RW{k} {out} {wire} {_sig(self.rng.uniform(500.0, 2000.0))!r}")
                out = wire
            lines.append(f"CL{k} {out} 0 {cap!r}")
            prev = out
        tstop = self.PERIODS / self.FREQ
        lines += [_model_cards(), f".TRAN {tstop / self.STEPS!r} {tstop!r}", ".END"]
        self.netlist = inputs / "chain.cir"
        self.netlist.write_text("\n".join(lines) + "\n")
        self.columns = (
            ["time"] + [f"v({n})" for n in nodes] + ["i(VDD)", "i(VSS)", "i(VIN)"]
        )
        self.points = self.STEPS + 1
        self.ops = 1
        self.size = (
            f"1 circuit ({2 * self.STAGES} MOSFETs) x {self.STEPS} steps = "
            f"{self.points} points, {len(self.columns)} CSV columns"
        )

    def argv(self, out: Path) -> list[str]:
        return ["run", str(self.netlist), "-o", str(out / "chain.csv")]

    def tables(self, out: Path) -> dict[str, np.ndarray]:
        table = read_table(out / "chain.csv", self.columns)
        return {} if table is None else {"chain.csv": table}

    def failures(self, tables, ref) -> int:
        data = tables.get("chain.csv")
        ok = (
            data is not None
            and data.shape == (self.points, len(self.columns))
            and np.all(np.isfinite(data))
        )
        if ok and ref is not None:
            ok = not row_mismatch(data, ref["chain.csv"]).any()
        return int(not ok)


class DcTransfer(Workload):
    name = "dc_transfer"
    START, STOP, STEP = -200e-6, 200e-6, 0.4e-6  # A
    TEMPS = 4
    COLUMNS = ["iin", "out_plus", "out_minus"]

    def __init__(self, seed: int, inputs: Path):
        super().__init__(seed)
        self.temps = [round(t, 1) for t in _stratified(self.rng, 25.0, 100.0, self.TEMPS)]
        count = int(math.floor((self.STOP - self.START) / self.STEP + 1e-9)) + 1
        self.iin = np.linspace(self.START, self.STOP, count)
        self.points = len(self.temps) * count
        self.ops = self.points
        self.size = f"{len(self.temps)} temperatures x {count} points = {self.points} points"

    def argv(self, out: Path) -> list[str]:
        return [
            "dc-sweep", "--from", "-200u", "--to", "200u", "--step", "0.4u",
            "--temp", ",".join(repr(t) for t in self.temps), "-o", str(out),
        ]

    def tables(self, out: Path) -> dict[str, np.ndarray]:
        found = {}
        for t in self.temps:
            name = f"dcsweep_t{t:g}.csv"
            table = read_table(out / name, self.COLUMNS)
            if table is not None:
                found[name] = table
        return found

    def failures(self, tables, ref) -> int:
        failed = 0
        for t in self.temps:
            name = f"dcsweep_t{t:g}.csv"
            data = tables.get(name)
            if data is None or data.shape != (len(self.iin), 3):
                failed += len(self.iin)
                continue
            iin, plus, minus = data.T
            conducting = np.abs(iin) > LEAK
            blocking = iin > LEAK
            bad = ~np.all(np.isfinite(data), axis=1)
            bad |= np.abs(iin - self.iin) > 1e-12
            # acceptance c4: the error band while conducting, leakage while blocking
            bad |= conducting & ~(np.abs(plus - np.maximum(-iin, 0.0)) < BAND)
            bad |= conducting & ~(np.abs(minus - np.minimum(iin, 0.0)) < BAND)
            bad |= blocking & ~((plus < LEAK) & (-minus < LEAK))
            if ref is not None:
                bad |= row_mismatch(data, ref[name])
            failed += int(bad.sum())
        return failed


def _model_cards() -> str:
    """The 0.5 um .MODEL cards that every amps bench netlist uses."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from amps.rectifier import MODEL_CARDS

    return MODEL_CARDS


WORKLOADS = {w.name: w for w in (BenchGrid, NetlistRun, DcTransfer)}

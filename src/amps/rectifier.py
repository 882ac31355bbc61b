"""Dual-phase half-wave current rectifier: bench netlist, oracle, comparison.

The bench injects a sinusoidal current into a CMOS comparator/steering cell
and mirrors the conducted half-cycle to two complementary current outputs
measured through zero-volt ammeter branches.  ``ideal_dual_phase`` is the
exact behavioral contract the simulated bench is compared against: negative
input half-cycles appear mirrored at both outputs, positive half-cycles are
blocked.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, replace
from importlib.resources import files

import numpy as np

from .analysis import PrecisionReport, WaveformError, WaveformSet
from .netlist import DcSweepDirective, TranDirective, check_record, parse_netlist
from .solver import (
    CircuitGraph,
    SolverError,
    SolverOptions,
    build_graph,
    dc_sweep_lockstep,
    solve_dc,
    solve_lockstep,
)

# The 0.5 um CMOS model cards used by every bench variant.
MODEL_CARDS = """\
.MODEL CMOSN NMOS LEVEL = 3 TOX = 1.4E-8 NSUB = 1E17
+ GAMMA = 0.5483559 PHI = 0.7 VTO = 0.7640855 DELTA = 3.0541177
+ UO = 662.6984452 ETA = 3.162045E-6 THETA = 0.1013999
+ KP = 1.259355E-4 VMAX = 1.442228E5 KAPPA = 0.3 RSH = 7.513418E-3
+ NFS = 1E12 TPG = 1 XJ = 3E-7 LD = 1E-13 WD = 2.334779E-7
+ CGDO = 2.15E-10 CGSO = 2.15E-10 CGBO = 1E-10 CJ = 4.258447E-4
+ PB = 0.9140376 MJ = 0.435903 CJSW = 3.147465E-10 MJSW = 0.1977689
.MODEL CMOSP PMOS LEVEL = 3 TOX = 1.4E-8 NSUB = 1E17
+ GAMMA = 0.6243261 PHI = 0.7 VTO = -0.9444911 DELTA = 0.1118368
+ UO = 250 ETA = 0 THETA = 0.1633973 KP = 3.924644E-5 VMAX = 1E6
+ KAPPA = 30.1015109 RSH = 33.9672594 NFS = 1E12 TPG = -1 XJ = 2E-7
+ LD = 5E-13 WD = 4.11531E-7 CGDO = 2.34E-10 CGSO = 2.34E-10
+ CGBO = 1E-10 CJ = 7.285722E-4 PB = 0.96443 MJ = 0.5
+ CJSW = 2.955161E-10 MJSW = 0.3184873"""


# The paper's supplies and the geometry of all nine devices.
VDD = 1.5  # V
VSS = -1.5  # V
W = 1.5e-6  # m
L = 0.15e-6  # m


@dataclass(frozen=True)
class BenchConfig:
    """Bench operating conditions; defaults reproduce the 1 kHz / 25 degC run."""

    amplitude_pp: float = 400e-6  # A peak-to-peak
    frequency: float = 1e3  # Hz
    temp: float = 25.0  # degC
    periods: int = 20
    steps_per_period: int = 1000

    def __post_init__(self):
        if not 0 < self.amplitude_pp < np.inf:  # NaN fails too
            raise ValueError(f"amplitude {self.amplitude_pp:g} A must be > 0 and finite")
        if not 0 < self.frequency < np.inf:
            raise ValueError(f"frequency {self.frequency:g} Hz must be > 0 and finite")
        if not np.isfinite(self.temp):  # its range is derive_params'
            raise ValueError(f"temperature {self.temp:g} degC must be finite")
        if self.periods < 1 or self.steps_per_period < 10:
            raise ValueError("need at least 1 period and 10 steps per period")
        try:
            self.tran()
        except ValueError as exc:  # the step rule is the .TRAN's, named by these values
            raise ValueError(f"{self.periods} periods of {self.steps_per_period} steps: "
                             f".TRAN {exc}") from None

    def tran(self) -> TranDirective:
        """The ``.TRAN`` that ``build_bench_netlist`` writes."""
        f = self.frequency
        return TranDirective(1.0 / (f * self.steps_per_period), self.periods / f)


@dataclass(frozen=True)
class IdealOutputs:
    """Exact rectifier outputs: out_plus >= 0, out_minus <= 0, mirror images."""

    out_plus: float | np.ndarray
    out_minus: float | np.ndarray


def ideal_dual_phase(iin):
    """Exact dual-phase half-wave transfer.

    A negative input current is routed through the conduction path and
    mirrored to both outputs (out_plus = -iin, out_minus = iin); a
    non-negative input leaves both outputs at zero.  Accepts scalars or
    numpy arrays.
    """
    arr = np.asarray(iin, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("input current must be finite")
    neg = arr < 0.0
    out_plus = np.where(neg, -arr, 0.0)
    out_minus = np.where(neg, arr, 0.0)
    if arr.ndim == 0:
        return IdealOutputs(float(out_plus), float(out_minus))
    return IdealOutputs(out_plus, out_minus)


def build_bench_netlist(cfg: BenchConfig) -> str:
    """Emit the nine-transistor bench netlist for one configuration.

    M3/M4 form the input comparator (CMOS inverter), M1/M2 the steering
    followers: M1 conducts the negative input half-cycle, M2 dumps the
    positive one.  The diode M5 turns M1's current into a gate drive that
    M6 copies to the sourcing output and M7 copies toward M8/M9, whose
    mirror sinks the same magnitude at the complementary output.  Both
    outputs terminate in 0 V ammeter branches.
    """
    amp = cfg.amplitude_pp / 2.0
    tran = cfg.tran()
    temp, freq = float(cfg.temp), float(cfg.frequency)
    wl = f"W={W!r} L={L!r}"
    return f"""dual-phase half-wave current rectifier bench
* supplies and input current
VDD vdd 0 DC {VDD!r}
VSS vss 0 DC {VSS!r}
IIN 0 in SIN(0 {amp!r} {freq!r})
* input comparator (CMOS inverter) and steering pair
M3 cmp in vdd vdd CMOSP {wl}
M4 cmp in vss vss CMOSN {wl}
M1 mir cmp in vss CMOSN {wl}
M2 vss cmp in vdd CMOSP {wl}
* mirror diode, sourcing output, and the re-mirrored sinking output
M5 mir mir vdd vdd CMOSP {wl}
M6 outp mir vdd vdd CMOSP {wl}
M7 cpy mir vdd vdd CMOSP {wl}
M8 cpy cpy vss vss CMOSN {wl}
M9 outm cpy vss vss CMOSN {wl}
* zero-volt ammeter branches
VOUTP outp 0 DC 0
VOUTM outm 0 DC 0
{MODEL_CARDS}
.TEMP {temp!r}
.TRAN {tran.tstep!r} {tran.tstop!r}
.END
"""


def bench_netlist_path():
    """Path to the bundled default bench netlist."""
    return files("amps").joinpath("data/rectifier_bench.cir")


_BENCH_RENAMES = {
    "i(IIN)": "iin",
    "i(VOUTP)": "out_plus",
    "i(VOUTM)": "out_minus",
    "i(VDD)": "i_vdd",
    "i(VSS)": "i_vss",
}


def run_bench(
    configs: Sequence[BenchConfig], options: SolverOptions | None = None
) -> list[WaveformSet | SolverError]:
    """Transient-simulate bench configurations, one result per config, in order.

    A result holds the five contract waveforms (iin, out_plus, out_minus,
    i_vdd, i_vss) on a shared time base, with solver statistics in
    ``stats``; a config whose DC operating point or transient fails gets
    that solver error in place of its waveforms.  Every netlist and graph is
    built first, so a bad config raises ValueError before any solve.  One
    ``solve_dc`` call finds every config's operating point; then the configs
    run their transients in one lockstep, each the ``.TRAN`` of its netlist
    with the results it gets alone (a failed start takes no step).
    """
    options = options or SolverOptions()
    graphs = [bench_graph(cfg) for cfg in configs]
    trans = [d for g in graphs for d in g.doc.directives if isinstance(d, TranDirective)]
    # the lockstep record: each step's branch and source currents of every config
    check_record(max((t.steps for t in trans), default=0) + 1,
                 sum(g.m + len(g.isources) for g in graphs))
    runs = solve_lockstep(graphs, trans, options, solve_dc(graphs, options))
    return [raw if isinstance(raw, SolverError) else _contract_waveforms(raw) for raw in runs]


def _contract_waveforms(raw: WaveformSet) -> WaveformSet:
    picked = [replace(raw.get(raw_name), name=name) for raw_name, name in _BENCH_RENAMES.items()]
    return WaveformSet(picked, dict.fromkeys(_BENCH_RENAMES.values(), "A"), dict(raw.stats))


def bench_graph(cfg: BenchConfig) -> CircuitGraph:
    """The compiled bench circuit of one configuration, at its temperature."""
    return build_graph(parse_netlist(build_bench_netlist(cfg)), cfg.temp)


def bench_dc_transfer(
    graphs: Sequence[CircuitGraph], sweep: DcSweepDirective, options: SolverOptions | None = None
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The ``.DC`` analysis ``sweep`` (of the input current IIN, say) on each ``bench_graph``.

    Returns one (swept values, out_plus, out_minus) per graph, in order;
    non-converged points are NaN.  One ``solve_dc`` call finds every graph's
    first point; the graphs then sweep the other values in lockstep, with
    the same results as one at a time.
    """
    options = options or SolverOptions()
    check_record(sweep.steps + 1, sum(graph.size for graph in graphs))  # the sweep's unknowns
    starts = solve_dc([graph.with_source(sweep.source, sweep.start) for graph in graphs], options)
    record = dc_sweep_lockstep(graphs, sweep, options, starts)
    results = []
    for b, graph in enumerate(graphs):
        names = [src.name for src in graph.vsources]
        out_plus, out_minus = (record.x[:, b, graph.n + names.index(name)]
                               for name in ("VOUTP", "VOUTM"))
        results.append((record.values, out_plus, out_minus))
    return results


def retained_window(cfg: BenchConfig, span: tuple[float, float] | None = None):
    """(start, periods) of the window ``compare`` scores: the record, whose
    (first, last) time is ``span`` (by default the configured run's), less its
    first 25% as startup.  Fewer than two periods left is a WaveformError.
    """
    t_lo, t_hi = (0.0, cfg.periods / cfg.frequency) if span is None else span
    t0 = t_lo + 0.25 * (t_hi - t_lo)
    n_periods = (t_hi - t0) * cfg.frequency
    if n_periods < 2.0 - 1e-9:
        raise WaveformError(f"retained window holds {n_periods:.2f} periods; need at least 2")
    return t0, n_periods


def compare(sim: WaveformSet, cfg: BenchConfig) -> PrecisionReport:
    """Quantify a simulated bench run against the exact oracle.

    Over ``retained_window``, RMS and peak errors are normalized to half the
    peak-to-peak input amplitude; ``zero_crossing_width`` is the time per
    period the sourcing output strays more than 5% of half-amplitude from
    ideal; ``dc_power`` is the mean total supply power over the window.
    Every waveform is on ``iin``'s time base, as ``run_bench`` gives them.
    """
    missing = [name for name in ("iin", "out_plus", "out_minus") if name not in sim]
    if missing:
        raise WaveformError(f"missing required waveforms: {', '.join(missing)}")
    w_iin = sim.get("iin")
    t0, n_periods = retained_window(cfg, (float(w_iin.times[0]), float(w_iin.times[-1])))
    half_amp = cfg.amplitude_pp / 2.0

    # the samples from t0 (to 1e-15 s) up to the last one, the window's end
    window = slice(int(np.searchsorted(w_iin.times, t0 - 1e-15)), None)
    t = w_iin.times[window]
    ideal = ideal_dual_phase(w_iin.values[window])
    span = t[-1] - t[0]

    def norm_rms(err: np.ndarray) -> float:
        return float(np.sqrt(np.trapezoid(err * err, t) / span)) / half_amp

    err_p = sim.get("out_plus").values[window] - ideal.out_plus
    err_m = sim.get("out_minus").values[window] - ideal.out_minus

    band = 0.05 * half_amp
    exceeded = (np.abs(err_p) > band).astype(float)
    width_total = float(np.trapezoid(exceeded, t))

    dc_power = 0.0
    if "i_vdd" in sim and "i_vss" in sim:
        inst = (np.abs(VDD * sim.get("i_vdd").values[window])
                + np.abs(VSS * sim.get("i_vss").values[window]))
        dc_power = float(np.trapezoid(inst, t) / span)

    return PrecisionReport(
        rms_error_plus=norm_rms(err_p),
        rms_error_minus=norm_rms(err_m),
        peak_error_plus=float(np.max(np.abs(err_p))) / half_amp,
        peak_error_minus=float(np.max(np.abs(err_m))) / half_amp,
        zero_crossing_width=width_total / n_periods,
        dc_power=dc_power,
        window=(float(t0), float(t[-1])),
    )

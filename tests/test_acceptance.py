"""Acceptance suite: one test per criterion, each printing a PASS line.

Test names carry the criterion number; bench transients are cached in
BENCH_RUNS so later criteria can re-examine earlier runs.  The residual
criterion (3c, "every accepted point of every bench run") is checked last,
over everything the suite simulated.
"""

import math
import time

import numpy as np
import pytest

from amps.cli import main as cli_main
from amps.netlist import DcSweepDirective, TranDirective, parse_netlist
from amps.rectifier import (
    MODEL_CARDS,
    BenchConfig,
    bench_dc_transfer,
    bench_graph,
    compare,
    ideal_dual_phase,
    run_bench,
)
from amps.solver import OperatingPoint, SolverOptions, build_graph, newton_solve, solve_lockstep

HALF_AMP = 200e-6

# value tokens exactly as printed in the source model-card listing
CMOSN_EXPECTED = {
    "LEVEL": "3", "TOX": "1.4E-8", "NSUB": "1E17", "GAMMA": "0.5483559",
    "PHI": "0.7", "VTO": "0.7640855", "DELTA": "3.0541177",
    "UO": "662.6984452", "ETA": "3.162045E-6", "THETA": "0.1013999",
    "KP": "1.259355E-4", "VMAX": "1.442228E5", "KAPPA": "0.3",
    "RSH": "7.513418E-3", "NFS": "1E12", "TPG": "1", "XJ": "3E-7",
    "LD": "1E-13", "WD": "2.334779E-7", "CGDO": "2.15E-10",
    "CGSO": "2.15E-10", "CGBO": "1E-10", "CJ": "4.258447E-4",
    "PB": "0.9140376", "MJ": "0.435903", "CJSW": "3.147465E-10",
    "MJSW": "0.1977689",
}
CMOSP_EXPECTED = {
    "LEVEL": "3", "TOX": "1.4E-8", "NSUB": "1E17", "GAMMA": "0.6243261",
    "PHI": "0.7", "VTO": "-0.9444911", "DELTA": "0.1118368", "UO": "250",
    "ETA": "0", "THETA": "0.1633973", "KP": "3.924644E-5", "VMAX": "1E6",
    "KAPPA": "30.1015109", "RSH": "33.9672594", "NFS": "1E12", "TPG": "-1",
    "XJ": "2E-7", "LD": "5E-13", "WD": "4.11531E-7", "CGDO": "2.34E-10",
    "CGSO": "2.34E-10", "CGBO": "1E-10", "CJ": "7.285722E-4",
    "PB": "0.96443", "MJ": "0.5", "CJSW": "2.955161E-10",
    "MJSW": "0.3184873",
}

BENCH_RUNS: dict[tuple[float, float], tuple] = {}
BENCH_ERRORS: dict[tuple[float, float], Exception] = {}
# every (freq, temp) that criteria 5-7 simulate
BENCH_KEYS = [(f, 25.0) for f in (1e3, 1e4, 1e5, 1e6, 1e7, 1e8)] + [
    (1e7, t) for t in (50.0, 75.0, 100.0)
]


def bench_run(freq: float, temp: float):
    """Full-scale bench transient (20 periods, 1000 steps/period), cached.

    The first call simulates every key in BENCH_KEYS with one lockstep
    run_bench call; a key whose run failed re-raises its solver error.
    """
    if not BENCH_RUNS and not BENCH_ERRORS:
        cfgs = [BenchConfig(frequency=f, temp=t) for f, t in BENCH_KEYS]
        for key, cfg, ws in zip(BENCH_KEYS, cfgs, run_bench(cfgs)):
            if isinstance(ws, Exception):
                BENCH_ERRORS[key] = ws
            else:
                BENCH_RUNS[key] = (cfg, ws, compare(ws, cfg))
    key = (freq, temp)
    if key in BENCH_ERRORS:
        raise BENCH_ERRORS[key]
    return BENCH_RUNS[key]


def retained(ws):
    t = ws.get("iin").times
    sel = t >= t[0] + 0.25 * (t[-1] - t[0])
    return {name: ws.get(name).values[sel] for name in ws.names()}


def test_c1_model_card_fidelity():
    started = time.perf_counter()
    doc = parse_netlist("cards\n" + MODEL_CARDS + "\n.END\n")
    for name, expected in (("CMOSN", CMOSN_EXPECTED), ("CMOSP", CMOSP_EXPECTED)):
        card = doc.models[name]
        entries = dict(card.params)
        entries["LEVEL"] = float(card.level)
        assert len(entries) == 27, f"{name}: {len(entries)} entries, expected 27"
        for key, token in expected.items():
            reference = float(token)
            parsed = entries[key]
            assert parsed == reference, f"{name}.{key}: {parsed!r} != {token}"
            assert f"{parsed:.7g}" == f"{reference:.7g}"
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1 model-card fidelity: PASS (54 entries, {elapsed*1e3:.0f} ms)")


def test_c2_oracle_bitwise_vs_brute_force():
    grid = np.linspace(-200e-6, 200e-6, 10001)
    grid[5000] = 0.0  # force-exercise the boundary
    out = ideal_dual_phase(grid)
    brute_plus = np.empty_like(grid)
    brute_minus = np.empty_like(grid)
    for i, x in enumerate(grid):
        if x < 0.0:
            brute_plus[i] = -x
            brute_minus[i] = x
        else:
            brute_plus[i] = 0.0
            brute_minus[i] = 0.0
    assert np.array_equal(out.out_plus, brute_plus)
    assert np.array_equal(out.out_minus, brute_minus)
    assert np.array_equal(np.signbit(out.out_plus), np.signbit(brute_plus))
    assert np.array_equal(np.signbit(out.out_minus), np.signbit(brute_minus))
    print("\nACCEPTANCE 2 oracle correctness: PASS (10001 points, bitwise)")


def test_c3ab_solver_verification():
    started = time.perf_counter()
    opts = SolverOptions()
    # (a) linear divider in exactly one iteration
    doc = parse_netlist("divider\nV1 top 0 DC 3\nR1 top mid 1k\nR2 mid 0 1k\n.END\n")
    graph = build_graph(doc, 27.0)
    op = newton_solve(graph, None, opts)
    assert op.iterations == 1
    assert abs(op.voltages[doc.nodes["mid"] - 1] - 1.5) < 1e-12

    # (b) RC step response, trapezoidal accuracy and order
    rc_doc = parse_netlist("rc\nV1 in 0 DC 1\nR1 in out 1k\nC1 out 0 1u\n.END\n")
    rc_graph = build_graph(rc_doc, 27.0)

    zero = OperatingPoint(np.zeros(rc_graph.n), np.zeros(rc_graph.m), 0)

    def max_err(h):
        (ws,) = solve_lockstep([rc_graph], [TranDirective(h, 5e-3)], opts, [zero], voltages=True)
        w = ws.get("v(out)")
        return float(np.max(np.abs(w.values - (1.0 - np.exp(-w.times / 1e-3)))))

    e1, e2 = max_err(1e-6), max_err(2e-6)
    order = math.log2(e2 / e1)
    assert e1 < 1e-3, f"RC max error {e1:.2e} exceeds 0.1% of final value"
    assert 1.7 <= order <= 2.3, f"observed order {order:.2f}"
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    print(
        f"\nACCEPTANCE 3ab solver verification: PASS "
        f"(divider 1 iter; RC err {e1:.2e}, order {order:.2f}; {elapsed:.1f} s)"
    )


def test_c4_dc_transfer_fig10():
    started = time.perf_counter()
    ((iin, out_plus, out_minus),) = bench_dc_transfer(
        [bench_graph(BenchConfig(temp=25.0))], DcSweepDirective("IIN", -200e-6, 200e-6, 2e-6)
    )
    assert len(iin) == 201
    assert not np.isnan(out_plus).any()
    ideal = ideal_dual_phase(iin)
    band = 0.05 * HALF_AMP
    conducting = np.abs(iin) > 10e-6
    worst = float(np.max(np.abs(out_plus - ideal.out_plus)[conducting]))
    assert worst < band, f"worst DC error {worst:.3e} A >= {band:.3e} A"
    blocking = iin > 10e-6
    leak = float(np.max(out_plus[blocking]))
    assert leak < 10e-6, f"out_plus leakage {leak:.3e} A"
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    print(
        f"\nACCEPTANCE 4 DC transfer: PASS "
        f"(worst band error {worst:.2e} A, leakage {leak:.2e} A, {elapsed:.1f} s)"
    )


_C5_ELAPSED: list[float] = []


@pytest.mark.parametrize("freq", [1e3, 1e4, 1e5, 1e6])
def test_c5_transient_rectification(freq):
    started = time.perf_counter()
    cfg, ws, report = bench_run(freq, 25.0)
    assert report.rms_error_plus < 0.05, f"rms+ {report.rms_error_plus:.4f}"
    assert report.rms_error_minus < 0.05, f"rms- {report.rms_error_minus:.4f}"
    win = retained(ws)
    symmetry = float(
        np.sqrt(np.mean((win["out_plus"] + win["out_minus"]) ** 2)) / HALF_AMP
    )
    assert symmetry < 0.10, f"dual-phase symmetry {symmetry:.4f}"
    _C5_ELAPSED.append(time.perf_counter() - started)
    assert sum(_C5_ELAPSED) < 300.0  # 5-minute budget over all four frequencies
    print(
        f"\nACCEPTANCE 5 transient {freq:g} Hz: PASS "
        f"(rms+ {report.rms_error_plus:.4f}, rms- {report.rms_error_minus:.4f}, "
        f"symmetry {symmetry:.4f}, {_C5_ELAPSED[-1]:.1f} s, "
        f"{sum(_C5_ELAPSED):.1f} s cumulative)"
    )


@pytest.mark.parametrize("freq", [1e7, 1e8])
def test_c6_high_frequency_operation(freq):
    cfg, ws, report = bench_run(freq, 25.0)  # completing at all is the gate
    win = retained(ws)
    reference = -np.minimum(win["iin"], 0.0)
    corr = float(np.corrcoef(win["out_plus"], reference)[0, 1])
    assert corr > 0.9, f"correlation {corr:.4f}"
    # RMS error is reported, not bounded, at these frequencies
    print(
        f"\nACCEPTANCE 6 high frequency {freq:g} Hz: PASS "
        f"(corr {corr:.4f}; rms+ {report.rms_error_plus:.4f} reported)"
    )


def test_c7_temperature_insensitivity():
    temps = (25.0, 50.0, 75.0, 100.0)
    outs = {}
    for temp in temps:
        _, ws, _ = bench_run(1e7, temp)
        outs[temp] = retained(ws)["out_plus"]
    worst = 0.0
    for i, ta in enumerate(temps):
        for tb in temps[i + 1:]:
            diff = float(np.sqrt(np.mean((outs[ta] - outs[tb]) ** 2)) / HALF_AMP)
            worst = max(worst, diff)
            assert diff < 0.10, f"out_plus differs {diff:.4f} between {ta} and {tb} degC"
    print(f"\nACCEPTANCE 7 temperature insensitivity: PASS (worst pair {worst:.4f})")


def test_c8_power_reporting():
    assert BENCH_RUNS, "bench runs must exist before power reporting"
    lines = []
    for (freq, temp), (_, _, report) in sorted(BENCH_RUNS.items()):
        assert math.isfinite(report.dc_power) and report.dc_power >= 0.0
        lines.append(f"f={freq:g} T={temp:g}: dc_power={report.dc_power:.3e} W")
    print("\nACCEPTANCE 8 power reporting: PASS (no match to 198 pW claimed)")
    for line in lines:
        print("  " + line)


def test_c9_determinism(tmp_path):
    args = ["bench", "--freq", "1k", "--steps-per-period", "200", "--periods", "20"]
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    assert cli_main(args + ["-o", str(dir_a)]) == 0
    assert cli_main(args + ["-o", str(dir_b)]) == 0
    names = sorted(p.name for p in dir_a.iterdir())
    assert names == sorted(p.name for p in dir_b.iterdir())
    for name in names:
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes(), name
    print(f"\nACCEPTANCE 9 determinism: PASS ({len(names)} files byte-identical)")


def test_c3c_kcl_residual_every_bench_run():
    assert BENCH_RUNS, "no bench runs were simulated"
    worst = max(ws.stats["max_kcl_excess"] for _, ws, _ in BENCH_RUNS.values())
    assert worst <= 0.0, f"KCL residual exceeded tolerance by {worst:.3e} A"
    print(
        f"\nACCEPTANCE 3c KCL residuals: PASS "
        f"({len(BENCH_RUNS)} bench runs, worst excess {worst:.2e} A)"
    )

"""Oracle, bench construction and precision-report tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amps.analysis import Waveform, WaveformError, WaveformSet
from amps.netlist import DcSweepDirective, parse_netlist, validate
from amps.rectifier import (
    BenchConfig,
    IdealOutputs,
    bench_dc_transfer,
    bench_graph,
    bench_netlist_path,
    build_bench_netlist,
    compare,
    ideal_dual_phase,
    run_bench,
)
from amps.solver import (
    NonConvergenceError,
    SolverOptions,
    TransientNonConvergence,
)

HALF_AMP = 200e-6


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------


def test_oracle_negative_input_mirrored():
    out = ideal_dual_phase(-200e-6)
    assert out == IdealOutputs(200e-6, -200e-6)


def test_oracle_zero_input():
    assert ideal_dual_phase(0.0) == IdealOutputs(0.0, 0.0)


def test_oracle_positive_input_blocked():
    assert ideal_dual_phase(200e-6) == IdealOutputs(0.0, 0.0)


def test_oracle_vectorized():
    iin = np.array([-1e-6, 0.0, 2e-6])
    out = ideal_dual_phase(iin)
    assert np.array_equal(out.out_plus, [1e-6, 0.0, 0.0])
    assert np.array_equal(out.out_minus, [-1e-6, 0.0, 0.0])


def test_oracle_rejects_nonfinite():
    with pytest.raises(ValueError):
        ideal_dual_phase(float("nan"))


@settings(max_examples=300)
@given(st.floats(min_value=-1e-3, max_value=1e-3, allow_nan=False))
def test_oracle_antisymmetry_of_outputs(iin):
    out = ideal_dual_phase(iin)
    assert out.out_plus == -out.out_minus
    assert out.out_plus >= 0.0 and out.out_minus <= 0.0
    if iin >= 0:
        assert out.out_plus == 0.0
    else:
        assert out.out_plus == abs(iin)


@settings(max_examples=200)
@given(
    iin=st.floats(min_value=-1e-3, max_value=1e-3, allow_nan=False),
    k=st.floats(min_value=1e-6, max_value=1e6, allow_nan=False),
)
def test_oracle_positive_scaling(iin, k):
    base = ideal_dual_phase(iin)
    scaled = ideal_dual_phase(k * iin)
    assert scaled.out_plus == pytest.approx(k * base.out_plus, rel=1e-12)
    assert scaled.out_minus == pytest.approx(k * base.out_minus, rel=1e-12)


# ---------------------------------------------------------------------------
# bench netlist
# ---------------------------------------------------------------------------


def test_bench_netlist_validates_clean():
    doc = parse_netlist(build_bench_netlist(BenchConfig()))
    assert [d for d in validate(doc) if d.severity == "error"] == []


def test_bench_netlist_deterministic():
    assert build_bench_netlist(BenchConfig()) == build_bench_netlist(BenchConfig())


def test_bench_netlist_temp_only_changes_temp_directive():
    base = build_bench_netlist(BenchConfig()).splitlines()
    hot = build_bench_netlist(BenchConfig(temp=100)).splitlines()
    assert len(base) == len(hot)
    diffs = [(a, b) for a, b in zip(base, hot) if a != b]
    assert diffs == [(".TEMP 25.0", ".TEMP 100.0")]


def test_bundled_corpus_matches_builder():
    assert bench_netlist_path().read_text() == build_bench_netlist(BenchConfig())


def test_bench_config_validation():
    with pytest.raises(ValueError):
        BenchConfig(amplitude_pp=0.0)
    with pytest.raises(ValueError):
        BenchConfig(frequency=-1.0)


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


def synthetic_set(cfg: BenchConfig, noise_sigma: float = 0.0, seed: int = 0):
    """Oracle waveforms for a given config, optionally with gaussian error."""
    n = cfg.periods * cfg.steps_per_period
    t = np.arange(n + 1) / (cfg.frequency * cfg.steps_per_period)
    iin = (cfg.amplitude_pp / 2) * np.sin(2 * np.pi * cfg.frequency * t)
    ideal = ideal_dual_phase(iin)
    plus = ideal.out_plus.copy()
    minus = ideal.out_minus.copy()
    if noise_sigma:
        rng = np.random.default_rng(seed)
        plus = plus + rng.normal(0.0, noise_sigma, plus.size)
        minus = minus + rng.normal(0.0, noise_sigma, minus.size)
    ws = WaveformSet()
    for name, vals in (("iin", iin), ("out_plus", plus), ("out_minus", minus)):
        ws.waveforms.append(Waveform(name, t, vals))
        ws.units[name] = "A"
    return ws


def test_compare_identity_is_zero_error():
    cfg = BenchConfig(periods=4, steps_per_period=200)
    rep = compare(synthetic_set(cfg), cfg)
    assert rep.rms_error_plus == 0.0
    assert rep.rms_error_minus == 0.0
    assert rep.peak_error_plus == 0.0
    assert rep.peak_error_minus == 0.0
    assert rep.zero_crossing_width == 0.0
    assert rep.dc_power == 0.0  # no supply waveforms in the synthetic set


def test_compare_one_percent_noise():
    cfg = BenchConfig(periods=8, steps_per_period=500)
    sigma = 0.01 * HALF_AMP
    rep = compare(synthetic_set(cfg, noise_sigma=sigma, seed=3), cfg)
    assert rep.rms_error_plus == pytest.approx(0.01, rel=0.2)
    assert rep.rms_error_minus == pytest.approx(0.01, rel=0.2)


def test_compare_missing_waveforms():
    cfg = BenchConfig(periods=4, steps_per_period=200)
    ws = synthetic_set(cfg)
    ws.waveforms = [w for w in ws.waveforms if w.name != "out_minus"]
    with pytest.raises(WaveformError, match="out_minus"):
        compare(ws, cfg)


def test_compare_needs_two_periods_after_discard():
    cfg = BenchConfig(periods=2, steps_per_period=200)
    with pytest.raises(WaveformError, match="at least 2"):
        compare(synthetic_set(cfg), cfg)


def test_compare_window_is_last_75_percent():
    cfg = BenchConfig(periods=4, steps_per_period=200)
    rep = compare(synthetic_set(cfg), cfg)
    t0, t1 = rep.window
    total = cfg.periods / cfg.frequency
    assert t0 == pytest.approx(0.25 * total, rel=1e-12)
    assert t1 == pytest.approx(total, rel=1e-12)


# ---------------------------------------------------------------------------
# simulated bench behavior (short runs; full-scale runs live in acceptance)
# ---------------------------------------------------------------------------


def test_dc_transfer_monotone_in_conduction():
    cfg = BenchConfig()
    sweep = DcSweepDirective("IIN", -200e-6, 0.0, 10e-6)
    ((iin, out_plus, _),) = bench_dc_transfer([bench_graph(cfg)], sweep)
    sel = iin < -10e-6
    diffs = np.diff(out_plus[sel])
    assert np.all(diffs <= 1e-12)  # non-increasing as iin rises toward zero


def test_short_transient_dual_phase_symmetry():
    cfg = BenchConfig(periods=6, steps_per_period=200)
    (ws,) = run_bench([cfg])
    t = ws.get("out_plus").times
    sel = t >= 0.25 * t[-1]
    p = ws.get("out_plus").values[sel]
    m = ws.get("out_minus").values[sel]
    sym = np.sqrt(np.mean((p + m) ** 2)) / HALF_AMP
    assert sym < 0.10


def test_run_bench_returns_contract_columns():
    cfg = BenchConfig(periods=4, steps_per_period=100)
    (ws,) = run_bench([cfg])
    assert ws.names() == ["iin", "out_plus", "out_minus", "i_vdd", "i_vss"]
    assert ws.stats["max_kcl_excess"] <= 0.0


def test_lockstep_members_match_single_runs():
    cfgs = [
        BenchConfig(frequency=f, temp=t, periods=3, steps_per_period=100)
        for f in (1e3, 1e6, 1e8)
        for t in (25.0, 75.0)
    ]
    for cfg, ws in zip(cfgs, run_bench(cfgs)):
        # every step after the first takes the device evaluation of its start
        assert ws.stats["rescues"] == 0
        assert ws.stats["evaluations"] == ws.stats["assemblies"] - (ws.stats["steps"] - 1)
        (alone,) = run_bench([cfg])
        assert ws.stats == alone.stats
        assert ws.names() == alone.names()
        for a, b in zip(ws.waveforms, alone.waveforms):
            assert np.array_equal(a.times, b.times) and np.array_equal(a.values, b.values)


def test_lockstep_rescue_and_abort_stay_with_their_member(monkeypatch):
    import amps.solver

    rescued = []
    ladder = amps.solver._ladder

    def counted_rescue(graphs, options, xg, src, cap_ieq, stages, alpha=0.0, dev=None,
                       going=None):
        if np.any(alpha):  # a transient step's rescue; DC gmin stepping runs at alpha = 0
            rescued.extend(graphs[b].isources[0].spec.frequency for b in going.nonzero()[0])
        return ladder(graphs, options, xg, src, cap_ieq, stages, alpha, dev, going)

    monkeypatch.setattr(amps.solver, "_ladder", counted_rescue)
    opts = SolverOptions(max_newton_iters=6)
    cfgs = [BenchConfig(frequency=f, periods=3, steps_per_period=100) for f in (3e7, 1e7, 1e8)]
    batch = run_bench(cfgs, opts)
    assert 1e8 in rescued, "the 100 MHz member should need gmin-stepping rescues"
    for cfg, got in zip(cfgs, batch):
        (alone,) = run_bench([cfg], opts)
        if cfg.frequency == 1e7:
            assert isinstance(got, TransientNonConvergence)
            assert isinstance(alone, TransientNonConvergence)
            assert got.time == alone.time == pytest.approx(5.1e-8)
            got, alone = got.partial, alone.partial
        assert got.stats == alone.stats
        for a, b in zip(got.waveforms, alone.waveforms):
            assert np.array_equal(a.values, b.values)


@pytest.mark.parametrize("cap", [100, 6])
def test_lockstep_members_with_mixed_step_counts_match_single_runs(monkeypatch, cap):
    """Members with their own step counts run in one lockstep on one
    ``_Batch`` per integration phase, and each result is its solo run's bit
    for bit.  At a cap of 6 Newton iterations the first two members abort
    and the others need gmin-stepping rescues."""
    import amps.solver

    built = []  # the phase batches: alpha per member at the options' gmin
    init = amps.solver._Batch.__init__

    def counted(self, graphs, options, *, gmin=None, alpha=0.0):
        if gmin is None and np.any(alpha):
            built.append(len(graphs))
        init(self, graphs, options, gmin=gmin, alpha=alpha)

    monkeypatch.setattr(amps.solver._Batch, "__init__", counted)
    opts = SolverOptions(max_newton_iters=cap)
    cfgs = [
        BenchConfig(frequency=1e3, periods=3, steps_per_period=100),
        BenchConfig(frequency=1e7, periods=4, steps_per_period=50),
        BenchConfig(frequency=1e8, periods=2, steps_per_period=120),
        BenchConfig(frequency=3e7, temp=60.0, periods=5, steps_per_period=100),
    ]
    batch = run_bench(cfgs, opts)
    assert built.count(len(cfgs)) == 2
    aborted = [isinstance(got, TransientNonConvergence) for got in batch]
    assert aborted == ([True, True, False, False] if cap == 6 else [False] * 4)
    for cfg, got in zip(cfgs, batch):
        (alone,) = run_bench([cfg], opts)
        assert type(got) is type(alone)
        if isinstance(got, TransientNonConvergence):
            assert got.time == alone.time
            got, alone = got.partial, alone.partial
        else:
            assert got.stats["steps"] == cfg.periods * cfg.steps_per_period
            assert (got.stats["rescues"] > 0) == (cap == 6)
        assert got.stats == alone.stats
        assert got.names() == alone.names()
        for a, b in zip(got.waveforms, alone.waveforms, strict=True):
            assert a.times.tobytes() == b.times.tobytes()
            assert a.values.tobytes() == b.values.tobytes()


# ---------------------------------------------------------------------------
# a config or sweep member whose DC start fails
# ---------------------------------------------------------------------------


def failing_starts(monkeypatch, fails) -> list[NonConvergenceError]:
    """Patch the ``solve_dc`` that ``amps.rectifier`` calls to return an
    error for the graphs ``fails`` picks and to solve the others together;
    the returned list collects the errors returned."""
    import amps.rectifier

    solve_dc, raised = amps.rectifier.solve_dc, []

    def patched(graphs, options):
        solved = iter(solve_dc([g for g in graphs if not fails(g)], options))
        starts = []
        for graph in graphs:
            if fails(graph):
                raised.append(NonConvergenceError(None, float("nan"), ["patched: no start"]))
                starts.append(raised[-1])
            else:
                starts.append(next(solved))
        return starts

    monkeypatch.setattr(amps.rectifier, "solve_dc", patched)
    return raised


def lockstep_going(monkeypatch, size: int) -> list[np.ndarray]:
    """Patch the Newton kernel to record the ``going`` mask of each call on
    ``size`` members."""
    import amps.solver

    kernel, masks = amps.solver._newton_batch, []

    def wrapper(batch, xg, src, cap_ieq, dev=None, going=None):
        if len(xg) == size:
            masks.append(np.ones(size, dtype=bool) if going is None else going.copy())
        return kernel(batch, xg, src, cap_ieq, dev, going)

    monkeypatch.setattr(amps.solver, "_newton_batch", wrapper)
    return masks


def test_run_bench_config_whose_start_fails_takes_no_step(monkeypatch):
    """The config gets the error its ``solve_dc`` returned and is a spent row
    of the lockstep from step 1; the others get their solo runs bit for bit."""
    cfgs = [BenchConfig(frequency=f, periods=3, steps_per_period=100) for f in (1e3, 1e6, 1e8)]
    alone = [run_bench([cfg])[0] for cfg in cfgs]
    raised = failing_starts(monkeypatch, lambda g: g.isources[0].spec.frequency == 1e6)
    masks = lockstep_going(monkeypatch, len(cfgs))
    got = run_bench(cfgs)
    assert len(raised) == 1 and got[1] is raised[0]
    assert masks and not any(going[1] for going in masks)
    for b in (0, 2):
        assert got[b].stats == alone[b].stats
        assert got[b].names() == alone[b].names()
        for x, y in zip(got[b].waveforms, alone[b].waveforms, strict=True):
            assert x.times.tobytes() == y.times.tobytes()
            assert x.values.tobytes() == y.values.tobytes()


def test_run_bench_whose_starts_all_fail_makes_no_newton_solve(monkeypatch):
    import amps.solver

    def newton(*args):
        raise AssertionError("a Newton step ran")

    cfgs = [BenchConfig(frequency=f, periods=3, steps_per_period=100) for f in (1e3, 1e6, 1e8)]
    raised = failing_starts(monkeypatch, lambda g: True)
    monkeypatch.setattr(amps.solver, "_newton_batch", newton)
    got = run_bench(cfgs)
    assert len(raised) == 3 and all(r is e for r, e in zip(got, raised, strict=True))


def test_dc_transfer_member_whose_first_point_fails(monkeypatch):
    """Its first point is not converged (NaN) and its sweep goes on from
    zeros, as one independent solve per point from the last converged one
    (``reference_sweep``); the other members get their solo sweeps bit for
    bit."""
    from tests.test_solver import reference_sweep

    temps = (25.0, 75.0, 100.0)
    graphs = [bench_graph(BenchConfig(temp=t)) for t in temps]
    sweep = DcSweepDirective("IIN", -20e-6, 20e-6, 10e-6)
    values = sweep.values().tolist()
    alone = [bench_dc_transfer([g], sweep)[0] for g in graphs]
    failing_starts(monkeypatch, lambda g: g.doc is graphs[1].doc)
    got = bench_dc_transfer(graphs, sweep)
    for b in (0, 2):
        for x, y in zip(got[b], alone[b], strict=True):
            assert x.tobytes() == y.tobytes()
    iin, out_plus, out_minus = got[1]
    assert iin.tolist() == values
    assert np.isnan(out_plus[0]) and np.isnan(out_minus[0])
    g = graphs[1]
    names = [src.name for src in g.vsources]
    for k, op in enumerate(reference_sweep(g, "IIN", values[1:], SolverOptions()), start=1):
        if op is None:
            assert np.isnan(out_plus[k]) and np.isnan(out_minus[k])
            continue
        assert out_plus[k] == op.branch_currents[names.index("VOUTP")]
        assert out_minus[k] == op.branch_currents[names.index("VOUTM")]

"""Waveform container, metric and CSV round-trip tests."""

import io
import math

import numpy as np
import pytest

from amps.analysis import (
    Waveform,
    WaveformError,
    WaveformSet,
    read_csv,
    resample,
    rms,
    write_csv,
)


def make_sine(freq=5.0, amp=1.0, periods=4, per_period=1000, t0=0.0):
    t = t0 + np.arange(periods * per_period + 1) / (freq * per_period)
    return Waveform("sig", t, amp * np.sin(2 * np.pi * freq * (t - t0)))


# ---------------------------------------------------------------------------
# Waveform invariants
# ---------------------------------------------------------------------------


def test_waveform_needs_two_samples():
    with pytest.raises(WaveformError, match="at least 2"):
        Waveform("x", [0.0], [1.0])


def test_waveform_strictly_increasing():
    with pytest.raises(WaveformError, match="strictly increasing"):
        Waveform("x", [0.0, 0.0, 1.0], [1.0, 2.0, 3.0])


def test_waveform_finite():
    with pytest.raises(WaveformError, match="non-finite"):
        Waveform("x", [0.0, 1.0], [1.0, float("inf")])


# ---------------------------------------------------------------------------
# rms
# ---------------------------------------------------------------------------


def test_rms_constant():
    w = Waveform("c", np.linspace(0, 1, 50), np.full(50, 2.0))
    assert rms(w) == pytest.approx(2.0, rel=1e-12)
    assert rms(w, (0.3, 0.7)) == pytest.approx(2.0, rel=1e-12)


def test_rms_sine_whole_periods():
    w = make_sine(amp=3.0)
    assert rms(w) == pytest.approx(3.0 / math.sqrt(2.0), rel=1e-3)


def test_rms_half_wave_sine():
    w = make_sine(amp=2.0)
    half = Waveform("h", w.times, np.abs(np.minimum(w.values, 0.0)))
    assert rms(half) == pytest.approx(2.0 / 2.0, rel=2e-3)


def test_rms_shift_and_density_invariance():
    a = make_sine()
    b = make_sine(t0=17.0)
    assert rms(b) == pytest.approx(rms(a), rel=1e-3)
    dense = make_sine(per_period=2000)
    assert rms(dense) == pytest.approx(rms(a), rel=1e-3)


def test_rms_empty_window():
    w = make_sine()
    with pytest.raises(WaveformError, match="empty window"):
        rms(w, (0.5, 0.5))


def test_rms_window_outside_span():
    w = make_sine()
    with pytest.raises(WaveformError, match="outside"):
        rms(w, (-1.0, 0.5))


# ---------------------------------------------------------------------------
# resample
# ---------------------------------------------------------------------------


def test_resample_identity():
    w = make_sine()
    r = resample(w, w.times)
    assert np.array_equal(r.values, w.values)


def test_resample_linear_ramp_exact():
    t = np.linspace(0, 1, 11)
    w = Waveform("ramp", t, 3.0 * t + 1.0)
    fine = np.linspace(0, 1, 101)
    r = resample(w, fine)
    assert np.allclose(r.values, 3.0 * fine + 1.0, atol=1e-14)


def test_resample_sine_error_bound():
    f, per_period = 5.0, 100
    w = make_sine(freq=f, per_period=per_period)
    h = 1.0 / (f * per_period)
    dense = np.linspace(w.times[0], w.times[-1], 10 * w.times.size - 9)
    r = resample(w, dense)
    exact = np.sin(2 * np.pi * f * dense)
    bound = (np.pi * f * h) ** 2 / 2.0
    assert np.max(np.abs(r.values - exact)) < bound


def test_resample_extrapolation_rejected():
    w = make_sine()
    with pytest.raises(WaveformError, match="extrapolat"):
        resample(w, [w.times[0] - 1.0, w.times[1]])


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------


def test_csv_two_point_round_trip():
    t = np.array([0.0, 1.0])
    ws = WaveformSet(
        waveforms=[Waveform("a", t, np.array([1.0, -2.0]))], units={"a": "A"}
    )
    buf = io.StringIO()
    write_csv(ws, buf)
    back = read_csv(io.StringIO(buf.getvalue()))
    assert back.names() == ["a"]
    assert np.array_equal(back.get("a").values, ws.get("a").values)
    assert back.units["a"] == "A"


def test_csv_round_trip_precision():
    rng = np.random.default_rng(7)
    t = np.cumsum(rng.uniform(1e-6, 1e-3, 500))
    ws = WaveformSet()
    for name in ("x", "y"):
        ws.waveforms.append(Waveform(name, t, rng.normal(scale=1e-4, size=t.size)))
        ws.units[name] = "V"
    buf = io.StringIO()
    write_csv(ws, buf)
    back = read_csv(io.StringIO(buf.getvalue()))
    for name in ("x", "y"):
        orig = ws.get(name).values
        got = back.get(name).values
        assert np.max(np.abs(got - orig) / np.maximum(np.abs(orig), 1e-30)) < 1e-8


def test_csv_header_format():
    t = np.array([0.0, 1.0])
    ws = WaveformSet(waveforms=[Waveform("sig", t, t)], units={"sig": "V"})
    buf = io.StringIO()
    write_csv(ws, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "# units: sig=V"
    assert lines[1] == "time,sig"
    assert lines[2] == "0.00000000e+00,0.00000000e+00"


def test_csv_row_bytes_pinned():
    """Nine significant digits, signed zeros kept, subnormals and extremes
    in full; non-finite values (which a Waveform rejects) are set after
    construction to pin their spelling too."""
    t = np.array([0.0, 1e-9, 2.5e-3])
    a = Waveform("a", t, np.array([-0.0, 5e-324, -1.7976931348623157e308]))
    b = Waveform("b", t, np.zeros(3))
    object.__setattr__(b, "values", np.array([np.nan, np.inf, -np.inf]))
    ws = WaveformSet(waveforms=[a, b], units={"a": "A"})
    buf = io.StringIO()
    write_csv(ws, buf)
    assert buf.getvalue() == (
        "# units: a=A,b=V\n"
        "time,a,b\n"
        "0.00000000e+00,-0.00000000e+00,nan\n"
        "1.00000000e-09,4.94065646e-324,inf\n"
        "2.50000000e-03,-1.79769313e+308,-inf\n"
    )


def test_csv_header_only_rejected():
    with pytest.raises(WaveformError, match="data rows"):
        read_csv(io.StringIO("time,a\n"))


def test_csv_ragged_rejected():
    with pytest.raises(WaveformError, match="ragged"):
        read_csv(io.StringIO("time,a\n0,1\n1,2,3\n"))


def test_csv_nonmonotone_time_rejected():
    with pytest.raises(WaveformError, match="not strictly increasing"):
        read_csv(io.StringIO("time,a\n0,1\n2,2\n1,3\n"))


def test_csv_requires_shared_time():
    ws = WaveformSet(shared_time=False)
    ws.waveforms.append(Waveform("a", [0, 1], [0, 1]))
    with pytest.raises(WaveformError, match="shared time"):
        write_csv(ws, io.StringIO())


def test_csv_file_path_round_trip(tmp_path):
    t = np.linspace(0, 1, 20)
    ws = WaveformSet(waveforms=[Waveform("v", t, np.cos(t))], units={"v": "V"})
    path = tmp_path / "out.csv"
    write_csv(ws, path)
    back = read_csv(path)
    assert np.allclose(back.get("v").values, np.cos(t), rtol=1e-8)

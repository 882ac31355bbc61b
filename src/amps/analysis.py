"""Waveform containers, RMS/resampling metrics and CSV serialization."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class WaveformError(ValueError):
    pass


@dataclass(frozen=True)
class Waveform:
    """A named time series; times strictly increasing, everything finite."""

    name: str
    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)
        if t.size < 2:
            raise WaveformError(f"waveform {self.name}: need at least 2 samples")
        if t.size != v.size:
            raise WaveformError(f"waveform {self.name}: times/values length mismatch")
        if not np.all(np.diff(t) > 0):
            raise WaveformError(f"waveform {self.name}: times not strictly increasing")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(v))):
            raise WaveformError(f"waveform {self.name}: non-finite data")

    @property
    def span(self) -> tuple[float, float]:
        return (float(self.times[0]), float(self.times[-1]))


@dataclass
class WaveformSet:
    """A collection of waveforms with a unit registry (name -> "V" | "A").

    When ``shared_time`` is true all member waveforms reference an identical
    time array.  ``stats`` carries run metadata (solver residuals, iteration
    counts); it is not serialized.
    """

    waveforms: list[Waveform] = field(default_factory=list)
    units: dict[str, str] = field(default_factory=dict)
    shared_time: bool = True
    stats: dict = field(default_factory=dict)

    def names(self) -> list[str]:
        return [w.name for w in self.waveforms]

    def get(self, name: str) -> Waveform:
        for w in self.waveforms:
            if w.name == name:
                return w
        raise KeyError(f"no waveform named {name!r}")

    def __contains__(self, name: str) -> bool:
        return any(w.name == name for w in self.waveforms)


@dataclass(frozen=True)
class PrecisionReport:
    """Rectifier precision metrics, error fields normalized to half-amplitude."""

    rms_error_plus: float
    rms_error_minus: float
    peak_error_plus: float
    peak_error_minus: float
    zero_crossing_width: float  # s per period above the 5% error band
    dc_power: float  # W
    window: tuple[float, float]


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def _window_slice(w: Waveform, window: tuple[float, float] | None):
    """Times/values restricted to the window, edge samples interpolated."""
    t0, t1 = w.span if window is None else window
    lo, hi = w.span
    if t0 < lo - 1e-15 * max(abs(lo), 1.0) or t1 > hi + 1e-15 * max(abs(hi), 1.0):
        raise WaveformError(f"window ({t0}, {t1}) outside waveform span ({lo}, {hi})")
    if not t1 > t0:
        raise WaveformError("empty window")
    t = w.times
    v = w.values
    inner = (t > t0) & (t < t1)
    ts = np.concatenate(([t0], t[inner], [t1]))
    vs = np.concatenate(([np.interp(t0, t, v)], v[inner], [np.interp(t1, t, v)]))
    return ts, vs


def rms(w: Waveform, window: tuple[float, float] | None = None) -> float:
    """Time-weighted root-mean-square over the window (trapezoidal quadrature)."""
    ts, vs = _window_slice(w, window)
    mean_sq = np.trapezoid(vs * vs, ts) / (ts[-1] - ts[0])
    return float(np.sqrt(mean_sq))


def resample(w: Waveform, times) -> Waveform:
    """Linear interpolation onto new sample times; exact at original samples."""
    times = np.asarray(times, dtype=float)
    lo, hi = w.span
    if times.size and (times[0] < lo or times[-1] > hi):
        raise WaveformError(
            f"resample target [{times[0]}, {times[-1]}] extrapolates beyond ({lo}, {hi})"
        )
    return Waveform(w.name, times, np.interp(times, w.times, w.values))


# ---------------------------------------------------------------------------
# CSV serialization
# ---------------------------------------------------------------------------

_FMT = "%.8e"  # 9 significant digits
_CHUNK = 16  # rows formatted at a time: Python floats take 4x the memory of an array


def write_csv(ws: WaveformSet, sink) -> None:
    """Write a shared-time WaveformSet as CSV.

    Layout: a ``# units:`` comment line, a ``time,<name1>,...`` header, one
    row per sample in scientific notation with 9 significant digits.
    ``sink`` is a path or a text file object.
    """
    if not ws.shared_time:
        raise WaveformError("write_csv requires a shared time base")
    if not ws.waveforms:
        raise WaveformError("empty waveform set")
    close = False
    if isinstance(sink, (str, bytes)) or hasattr(sink, "__fspath__"):
        sink = open(sink, "w", newline="")
        close = True
    try:
        names = ws.names()
        units = ",".join(f"{n}={ws.units.get(n, 'V')}" for n in names)
        sink.write(f"# units: {units}\n")
        sink.write("time," + ",".join(names) + "\n")
        row = ",".join([_FMT] * (len(names) + 1)) + "\n"
        columns = [ws.waveforms[0].times] + [w.values for w in ws.waveforms]
        for start in range(0, columns[0].size, _CHUNK):
            chunk = (c[start : start + _CHUNK].tolist() for c in columns)
            sink.writelines(map(row.__mod__, zip(*chunk)))
    finally:
        if close:
            sink.close()


def read_csv(source) -> WaveformSet:
    """Read a CSV produced by :func:`write_csv` back into a WaveformSet."""
    close = False
    if isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
        source = open(source, "r")
        close = True
    try:
        units: dict[str, str] = {}
        header: list[str] | None = None
        rows: list[list[float]] = []
        for lineno, raw in enumerate(source, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if body.startswith("units:"):
                    for pair in body[len("units:"):].strip().split(","):
                        if "=" in pair:
                            k, _, u = pair.partition("=")
                            units[k.strip()] = u.strip()
                continue
            if header is None:
                header = [c.strip() for c in line.split(",")]
                if not header or header[0] != "time":
                    raise WaveformError(f"line {lineno}: header must start with 'time'")
                continue
            cells = line.split(",")
            if len(cells) != len(header):
                raise WaveformError(
                    f"line {lineno}: ragged row ({len(cells)} cells, expected {len(header)})"
                )
            try:
                rows.append([float(c) for c in cells])
            except ValueError as exc:
                raise WaveformError(f"line {lineno}: {exc}") from None
        if header is None:
            raise WaveformError("no header line")
        if len(rows) < 2:
            raise WaveformError("need at least 2 data rows")
        data = np.asarray(rows, dtype=float)
        times = data[:, 0]
        if not np.all(np.diff(times) > 0):
            raise WaveformError("time column not strictly increasing")
        ws = WaveformSet(units=units, shared_time=True)
        for j, name in enumerate(header[1:], start=1):
            ws.waveforms.append(Waveform(name, times, data[:, j]))
        return ws
    finally:
        if close:
            source.close()

"""Waveform containers, the rectifier precision report and CSV serialization."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

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

    ``stats`` carries run metadata (solver residuals, iteration counts); it
    is not serialized.
    """

    waveforms: list[Waveform] = field(default_factory=list)
    units: dict[str, str] = field(default_factory=dict)
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
# CSV serialization
# ---------------------------------------------------------------------------

_CHUNK = 16  # rows formatted at a time: Python floats take 4x the memory of an array


def write_table(path, header, columns, preamble=()) -> None:
    """Write one CSV file: the ``preamble`` lines, the ``header`` names, then
    one row per entry of the equal-length ``columns``.

    A float column's values are written in scientific notation with 9
    significant digits (``%.8e``), any other column's items as text.  The
    file is written under a temporary name and renamed into place, so a
    failed write leaves no file behind; an OSError names ``path``.
    """
    path = Path(path)
    columns = [np.asarray(c) for c in columns]
    row = ",".join("%.8e" if c.dtype.kind == "f" else "%s" for c in columns) + "\n"
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", newline="") as fh:
            fh.writelines(f"{line}\n" for line in preamble)
            fh.write(",".join(header) + "\n")
            for start in range(0, len(columns[0]), _CHUNK):
                chunk = (c[start : start + _CHUNK].tolist() for c in columns)
                fh.writelines(map(row.__mod__, zip(*chunk)))
        tmp.replace(path)
    except BaseException as exc:
        if tmp.exists():
            tmp.unlink()
        if isinstance(exc, OSError):
            raise OSError(f"cannot write {path}: {exc.strerror or exc}") from None
        raise


def write_csv(ws: WaveformSet, path) -> None:
    """Write a WaveformSet whose waveforms share one time base as CSV.

    Layout: a ``# units:`` comment line, a ``time,<name1>,...`` header, one
    row per sample (``write_table``).
    """
    if not ws.waveforms:
        raise WaveformError("empty waveform set")
    times = ws.waveforms[0].times
    if not all(np.array_equal(w.times, times) for w in ws.waveforms[1:]):
        raise WaveformError("write_csv requires every waveform on the first one's times")
    names = ws.names()
    units = ",".join(f"{n}={ws.units.get(n, 'V')}" for n in names)
    write_table(path, ["time", *names], [times] + [w.values for w in ws.waveforms],
                preamble=[f"# units: {units}"])

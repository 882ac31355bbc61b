"""Transient waveform records, the rectifier precision report and CSV serialization."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


class WaveformError(ValueError):
    pass


@dataclass(frozen=True)
class Waveform:
    """One recorded column of a transient: ``solve_lockstep`` records its times as
    ``np.arange(steps + 1) * tstep``, and only values it accepted as finite."""

    name: str
    times: np.ndarray
    values: np.ndarray


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
    """Write a WaveformSet as CSV, every column on the first waveform's times
    (a ``solve_lockstep`` result shares one time base).

    Layout: a ``# units:`` comment line, a ``time,<name1>,...`` header, one
    row per sample (``write_table``).
    """
    names = ws.names()
    units = ",".join(f"{n}={ws.units.get(n, 'V')}" for n in names)
    columns = [ws.waveforms[0].times] + [w.values for w in ws.waveforms]
    write_table(path, ["time", *names], columns, preamble=[f"# units: {units}"])

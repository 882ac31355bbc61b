"""Waveform container and CSV tests."""

import io
import re

import numpy as np
import pytest

from amps.analysis import Waveform, WaveformSet, write_csv, write_table


def load(text):
    """The header names and the data columns of a ``write_csv`` text."""
    lines = text.splitlines()
    assert lines[0].startswith("# units: ")
    return lines[1].split(","), np.loadtxt(io.StringIO(text), delimiter=",", skiprows=2, ndmin=2).T


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------


def test_csv_two_point_round_trip(tmp_path):
    t = np.array([0.0, 1.0])
    ws = WaveformSet(
        waveforms=[Waveform("a", t, np.array([1.0, -2.0]))], units={"a": "A"}
    )
    write_csv(ws, tmp_path / "out.csv")
    text = (tmp_path / "out.csv").read_text()
    names, (times, a) = load(text)
    assert names == ["time", "a"]
    assert np.array_equal(times, t)
    assert np.array_equal(a, ws.get("a").values)
    assert text.startswith("# units: a=A\n")


def test_csv_round_trip_precision(tmp_path):
    rng = np.random.default_rng(7)
    t = np.cumsum(rng.uniform(1e-6, 1e-3, 500))
    ws = WaveformSet()
    for name in ("x", "y"):
        ws.waveforms.append(Waveform(name, t, rng.normal(scale=1e-4, size=t.size)))
        ws.units[name] = "V"
    write_csv(ws, tmp_path / "out.csv")
    names, columns = load((tmp_path / "out.csv").read_text())
    assert names == ["time", "x", "y"]
    for orig, got in zip([t] + [w.values for w in ws.waveforms], columns):
        assert np.max(np.abs(got - orig) / np.maximum(np.abs(orig), 1e-30)) < 1e-8


def test_csv_header_format(tmp_path):
    t = np.array([0.0, 1.0])
    ws = WaveformSet(waveforms=[Waveform("sig", t, t)], units={"sig": "V"})
    write_csv(ws, tmp_path / "out.csv")
    lines = (tmp_path / "out.csv").read_text().splitlines()
    assert lines[0] == "# units: sig=V"
    assert lines[1] == "time,sig"
    assert lines[2] == "0.00000000e+00,0.00000000e+00"


def test_csv_row_bytes_pinned(tmp_path):
    """Nine significant digits, signed zeros kept, subnormals and extremes
    in full, and the spelling of non-finite values."""
    t = np.array([0.0, 1e-9, 2.5e-3])
    a = Waveform("a", t, np.array([-0.0, 5e-324, -1.7976931348623157e308]))
    b = Waveform("b", t, np.array([np.nan, np.inf, -np.inf]))
    ws = WaveformSet(waveforms=[a, b], units={"a": "A"})
    write_csv(ws, tmp_path / "out.csv")
    assert (tmp_path / "out.csv").read_text() == (
        "# units: a=A,b=V\n"
        "time,a,b\n"
        "0.00000000e+00,-0.00000000e+00,nan\n"
        "1.00000000e-09,4.94065646e-324,inf\n"
        "2.50000000e-03,-1.79769313e+308,-inf\n"
    )


def test_csv_file_path_round_trip(tmp_path):
    t = np.linspace(0, 1, 20)
    ws = WaveformSet(waveforms=[Waveform("v", t, np.cos(t))], units={"v": "V"})
    path = tmp_path / "out.csv"
    write_csv(ws, path)
    names, (_, v) = load(path.read_text())
    assert names == ["time", "v"]
    assert np.allclose(v, np.cos(t), rtol=1e-8)


def test_table_columns_as_numbers_or_text(tmp_path):
    """Float columns in ``%.8e``, text columns as they are, 16-row chunks joined seamlessly."""
    rows = 40
    values = np.arange(rows) * 0.25
    write_table(tmp_path / "t.csv", ("name", "value", "status"),
                [[f"p{k}" for k in range(rows)], values, ["ok"] * rows], preamble=["# a", "# b"])
    assert (tmp_path / "t.csv").read_text() == "# a\n# b\nname,value,status\n" + "".join(
        f"p{k},{v:.8e},ok\n" for k, v in enumerate(values.tolist()))


def test_write_table_leaves_no_file_when_a_write_fails(tmp_path):
    class Unwritable:
        """A text column whose 17th item cannot be formatted: the failure comes mid-file."""

        def __str__(self):
            raise RuntimeError("writer failed")

    column = np.array(["ok"] * 16 + [Unwritable()], dtype=object)
    with pytest.raises(RuntimeError, match="writer failed"):
        write_table(tmp_path / "out.csv", ("status",), [column])
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("parent", ["nodir", "afile"])
def test_write_table_error_names_the_path_and_leaves_no_file(tmp_path, parent):
    (tmp_path / "afile").write_text("keep\n")
    path = tmp_path / parent / "x.csv"
    with pytest.raises(OSError, match=f"^{re.escape(f'cannot write {path}: ')}(No such file|Not a dir)"):
        write_table(path, ("a",), [np.array([1.0])])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["afile"]
    assert (tmp_path / "afile").read_text() == "keep\n"

"""CLI surface tests: exit codes, output files, stream discipline."""

import contextlib
import io
import tempfile
from importlib.resources import files
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import amps.cli
import amps.netlist
import amps.solver
from amps.cli import main
from amps.rectifier import bench_netlist_path
from amps.solver import SolverOptions

DIVIDER = """resistive divider
V1 top 0 DC 3
R1 top mid 1k
R2 mid 0 1k
.OP
.END
"""

BROKEN = """syntax error demo
R1 a 0 1k
Q1 a 0 whatever
.END
"""

DIODE = """diode-connected nmos
V1 d 0 DC 1.5
M1 d d 0 0 NX W=1u L=1u
.MODEL NX NMOS VTO=0.7 KP=1e-4
.OP
.END
"""

# a current source into an island of nodes with no DC path to ground: its
# matrix is exactly singular, so validation rejects it before any solve
PATHOLOGICAL = """non-convergent
Vb b 0 DC 1
Rb b 0 1k
Iin 0 n1 DC 1u
R1 n1 n2 1k
R2 n2 n1 1k
.OP
.END
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def test_run_divider(tmp_path, capsys):
    src = write(tmp_path, "div.cir", DIVIDER)
    out = tmp_path / "op.csv"
    assert main(["run", str(src), "-o", str(out)]) == 0
    captured = capsys.readouterr()
    assert "op:" in captured.out
    assert out.read_text() == (
        "name,value,unit\n"
        "v(top),3.00000000e+00,V\n"
        "v(mid),1.50000000e+00,V\n"
        "i(V1),-1.50000000e-03,A\n"
    )


def test_run_syntax_error_has_line_number(tmp_path, capsys):
    src = write(tmp_path, "broken.cir", BROKEN)
    assert main(["run", str(src)]) == 1
    captured = capsys.readouterr()
    assert "line 3" in captured.err
    assert captured.out == ""


def test_run_name_with_a_comma_writes_nothing(tmp_path, capsys):
    text = "comma\nV1 a,b 0 DC 1\nR1 a,b 0 1k\n.OP\n.TRAN 1n 20n\n.END\n"
    src = write(tmp_path, "comma.cir", text)
    assert main(["run", str(src), "-o", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    assert captured.err == "amps run: error: line 2: 'a,b': a name cannot contain ','\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["comma.cir"]


def test_run_nonconvergent_exits_2(tmp_path, capsys, monkeypatch):
    # no Newton update: every DC strategy fails at its first assembly
    monkeypatch.setattr(amps.cli, "SolverOptions", lambda: SolverOptions(max_newton_iters=0))
    src = write(tmp_path, "div.cir", DIVIDER)
    assert main(["run", str(src)]) == 2
    captured = capsys.readouterr()
    assert "failed" in captured.err and len(captured.err.splitlines()) == 1
    # every DC strategy failed: no residual, and no location but the log's
    assert "no DC operating point; tried: plain: " in captured.err
    assert "nan" not in captured.err and "exhausted" not in captured.err


# a capacitance whose companion conductance overflows to inf at the first step
HUGE_CAP = "huge capacitor\nV1 a 0 SIN(0 1 1k)\nR1 a b 1k\nC1 b 0 1e308\n.TRAN 1u 1m\n.END\n"


def test_run_overflowing_capacitance_is_one_line_exit_2(tmp_path, capsys):
    """No numpy RuntimeWarning (an error under this suite's filter) reaches
    stderr: the step's non-finite assembly is the one diagnostic."""
    path = write(tmp_path, "huge.cir", HUGE_CAP)
    assert main(["run", str(path), "-o", str(tmp_path / "huge.csv")]) == 2
    err = capsys.readouterr().err
    assert err == (f"{path}: tran at 27 degC failed: transient aborted at t=1.000000e-06s: "
                   "Newton did not converge (worst residual inf at non-finite assembly)\n")
    assert sorted(tmp_path.iterdir()) == [path]


def test_run_missing_file(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.cir")]) == 1
    assert "cannot read" in capsys.readouterr().err


def test_run_validation_error(tmp_path, capsys):
    src = write(tmp_path, "noground.cir", "no ground\nV1 a b DC 1\nR1 a b 1k\n.OP\n.END\n")
    assert main(["run", str(src)]) == 1
    assert "no ground node" in capsys.readouterr().err


GROUND_ONLY = "ground only\nI1 0 0 DC 1u\nR1 0 0 1k\n.OP\n.END\n"


def test_run_circuit_without_a_node_is_a_validation_error(tmp_path, capsys):
    src = write(tmp_path, "ground.cir", GROUND_ONLY)
    assert main(["run", str(src), "-o", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"{src}: error: circuit has no node other than ground [ground only]\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ground.cir"]


SHORTED = "shorted source\nV1 c c DC 1\nR1 c 0 1k\nR2 c 0 2k\n.OP\n.END\n"


def test_run_voltage_source_on_one_node_is_a_validation_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(amps.solver, "_newton_batch", no_newton)
    src = write(tmp_path, "shorted.cir", SHORTED)
    assert main(["run", str(src), "-o", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err == f"{src}: error: voltage source with both terminals on node c [V1]\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["shorted.cir"]


LOOP = "source loop\nV1 a 0 DC 1\nV2 b a DC 1\nV3 b 0 DC 2\nR1 a b 1k\n.OP\n.END\n"


def test_run_node_without_dc_path_is_a_validation_error(tmp_path, capsys, monkeypatch):
    """Without the check every DC strategy met a singular matrix (exit 2)."""
    monkeypatch.setattr(amps.solver, "_newton_batch", no_newton)
    src = write(tmp_path, "island.cir", PATHOLOGICAL)
    assert main(["run", str(src), "-o", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err == f"{src}: error: no DC path to ground from nodes n1, n2 [n1]\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["island.cir"]


def test_run_voltage_source_loop_is_a_validation_error(tmp_path, capsys, monkeypatch):
    """Without the check every DC strategy met a singular matrix (exit 2)."""
    monkeypatch.setattr(amps.solver, "_newton_batch", no_newton)
    src = write(tmp_path, "loop.cir", LOOP)
    assert main(["run", str(src), "-o", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err == f"{src}: error: voltage source closes a loop of voltage sources [V3]\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["loop.cir"]


def test_run_bundled_bench_transient(tmp_path):
    out = tmp_path / "bench.csv"
    bench = write(
        tmp_path,
        "bench_short.cir",
        bench_netlist_path().read_text().replace(".TRAN 1e-06 0.02", ".TRAN 5e-05 0.004"),
    )
    assert main(["run", str(bench), "-o", str(out)]) == 0
    header = out.read_text().splitlines()[1]
    assert header.startswith("time,")
    assert "i(VOUTP)" in header


BUNDLED = sorted(p.name for p in files("amps").joinpath("data").iterdir() if p.name.endswith(".cir"))


@pytest.mark.parametrize("name", BUNDLED)
def test_run_bundled_netlist(tmp_path, name):
    # the bench's 20 periods at 1 kHz are acceptance c5's run; 4 periods of 20 steps here
    text = files("amps").joinpath("data", name).read_text()
    src = write(tmp_path, name, text.replace(".TRAN 1e-06 0.02", ".TRAN 5e-05 0.004"))
    out = tmp_path / "out.csv"
    assert main(["run", str(src), "-o", str(out)]) == 0
    if name == "rc_lowpass.cir":  # driven at its corner: a gain of 1/sqrt(2) in the last period
        names = out.read_text().splitlines()[1].split(",")
        data = np.loadtxt(out, delimiter=",", skiprows=2)
        last = data[data[:, 0] >= data[-1, 0] - 1.0 / 159.0]
        v_in, v_out = (np.abs(last[:, names.index(col)]).max() for col in ("v(in)", "v(out)"))
        assert 0.69 < v_out / v_in < 0.72


def test_run_temp_override_multiple(tmp_path):
    src = write(tmp_path, "div.cir", DIVIDER)
    assert main(["run", str(src), "--temp", "25,100", "-o", str(tmp_path)]) == 0
    assert (tmp_path / "div_1_op_t25.csv").exists()
    assert (tmp_path / "div_2_op_t100.csv").exists()


def test_run_dc_sweep_directive(tmp_path):
    src = write(
        tmp_path,
        "sweep.cir",
        "swept divider\nV1 top 0 DC 3\nR1 top mid 1k\nR2 mid 0 1k\n"
        ".DC V1 0 2 0.5\n.END\n",
    )
    out = tmp_path / "sweep.csv"
    assert main(["run", str(src), "-o", str(out)]) == 0
    assert out.read_text() == (
        "V1,v(top),v(mid),i(V1)\n"
        "0.00000000e+00,0.00000000e+00,0.00000000e+00,0.00000000e+00\n"
        "5.00000000e-01,5.00000000e-01,2.50000000e-01,-2.50000000e-04\n"
        "1.00000000e+00,1.00000000e+00,5.00000000e-01,-5.00000000e-04\n"
        "1.50000000e+00,1.50000000e+00,7.50000000e-01,-7.50000000e-04\n"
        "2.00000000e+00,2.00000000e+00,1.00000000e+00,-1.00000000e-03\n"
    )


def test_run_dc_sweep_of_failing_points_writes_nan_rows(tmp_path, capsys, monkeypatch):
    # no Newton update: no point of the sweep converges, yet the sweep is written
    monkeypatch.setattr(amps.cli, "SolverOptions", lambda: SolverOptions(max_newton_iters=0))
    src = write(tmp_path, "sweep.cir", DIVIDER.replace(".OP", ".DC V1 1 2 0.5"))
    out = tmp_path / "sweep.csv"
    assert main(["run", str(src), "-o", str(out)]) == 0
    assert capsys.readouterr().err == "sweep.csv: 3 non-converged points\n"
    assert out.read_text().splitlines() == ["V1,v(top),v(mid),i(V1)"] + [
        f"{v:.8e},nan,nan,nan" for v in (1.0, 1.5, 2.0)
    ]


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


def bench_args(outdir, **kw):
    args = ["bench", "--freq", kw.pop("freq", "1k"), "--steps-per-period",
            kw.pop("spp", "100"), "--periods", kw.pop("periods", "4"),
            "-o", str(outdir)]
    for key, val in kw.items():
        args += [f"--{key}", val]
    return args


def test_bench_default_lists_write_report(tmp_path, capsys):
    assert main(bench_args(tmp_path, freq="1k,10k")) == 0
    report = (tmp_path / "report.csv").read_text().splitlines()
    assert report[0] == (
        "freq,temp,rms_error_plus,rms_error_minus,peak_error_plus,"
        "peak_error_minus,zero_crossing_width,dc_power,status"
    )
    assert len(report) == 3
    assert all(line.endswith(",ok") for line in report[1:])
    assert (tmp_path / "bench_f1000_t25.csv").exists()
    assert (tmp_path / "bench_f10000_t25.csv").exists()
    assert "bench:" in capsys.readouterr().out


def test_bench_temp_list(tmp_path):
    assert main(bench_args(tmp_path, temp="25,50")) == 0
    assert (tmp_path / "bench_f1000_t25.csv").exists()
    assert (tmp_path / "bench_f1000_t50.csv").exists()


def test_bench_zero_freq_usage_error(tmp_path, capsys):
    assert main(["bench", "--freq", "0", "-o", str(tmp_path)]) == 1
    assert "must be > 0" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--reltol", "--abstol", "--vntol", "--gmin"])
def test_bench_negative_tolerance_usage_error(tmp_path, capsys, flag):
    assert main(bench_args(tmp_path, **{flag[2:]: "-1"})) == 1
    err = capsys.readouterr().err
    assert "must be positive" in err
    assert "Traceback" not in err and len(err.splitlines()) == 1


def test_bench_bad_temperature_among_several_runs_nothing(tmp_path, capsys):
    assert main(bench_args(tmp_path, temp="25,400")) == 1
    err = capsys.readouterr().err
    assert "400" in err and len(err.splitlines()) == 1
    assert list(tmp_path.iterdir()) == []


def test_bench_bad_temperature_leaves_no_output_directory(tmp_path, capsys):
    out = tmp_path / "new" / "dir"
    assert main(bench_args(out, temp="400", periods="3")) == 1
    err = capsys.readouterr().err
    assert "400" in err and len(err.splitlines()) == 1
    assert not (tmp_path / "new").exists()


@pytest.mark.parametrize(
    "argv,name",
    [
        (["bench", "--freq", "1000,1000.4", "--temp", "25", "--periods", "3",
          "--steps-per-period", "10"], "bench_f1000_t25.csv"),
        (["bench", "--freq", "1k", "--temp", "25,25", "--periods", "3",
          "--steps-per-period", "10"], "bench_f1000_t25.csv"),
        (["dc-sweep", "--from", "-10u", "--to", "10u", "--step", "10u",
          "--temp", "25,25.0000001"], "dcsweep_t25.csv"),
    ],
    ids=["bench-freq", "bench-temp", "dc-sweep"],
)
def test_colliding_output_names_rejected_before_any_solve(tmp_path, capsys, monkeypatch, argv,
                                                          name):
    """Two points that would write one file are a usage error, not an overwrite."""
    def unreachable(*args, **kwargs):
        raise AssertionError("a solver ran")

    monkeypatch.setattr(amps.cli, "run_bench", unreachable)
    monkeypatch.setattr(amps.rectifier, "bench_dc_transfer", unreachable)
    out = tmp_path / "new" / "dir"
    assert main(argv + ["-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert name in err and len(err.splitlines()) == 1
    assert not (tmp_path / "new").exists()


def test_bench_short_window_rejected_before_any_solve(tmp_path, capsys, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("a solver ran")

    monkeypatch.setattr(amps.rectifier, "solve_dc", unreachable)
    monkeypatch.setattr(amps.rectifier, "solve_lockstep", unreachable)
    assert main(bench_args(tmp_path, freq="1k,1meg", periods="2", spp="10")) == 1
    err = capsys.readouterr().err
    assert "need at least 2" in err and len(err.splitlines()) == 1
    assert list(tmp_path.iterdir()) == []


def test_bench_lockstep_writes_what_single_runs_write(tmp_path):
    freqs, temps = ("1k", "1meg", "100meg"), ("25", "75")
    both = tmp_path / "both"
    assert main(bench_args(both, freq=",".join(freqs), temp=",".join(temps), periods="3")) == 0
    rows = []
    for f in freqs:
        for t in temps:
            one = tmp_path / f"{f}_{t}"
            assert main(bench_args(one, freq=f, temp=t, periods="3")) == 0
            (name,) = [p.name for p in one.iterdir() if p.name != "report.csv"]
            assert (both / name).read_bytes() == (one / name).read_bytes(), name
            rows += (one / "report.csv").read_text().splitlines()[1:]
    assert (both / "report.csv").read_text().splitlines()[1:] == rows


def test_bench_failed_member_reported_others_written(tmp_path, monkeypatch):
    # six Newton updates per step: 100 MHz needs rescues, 10 MHz aborts
    monkeypatch.setattr(amps.cli, "SolverOptions", lambda: SolverOptions(max_newton_iters=6))
    assert main(bench_args(tmp_path, freq="30meg,10meg,100meg", periods="3")) == 0
    report = (tmp_path / "report.csv").read_text().splitlines()[1:]
    assert [row.split(",")[-1] for row in report] == ["ok", "failed: TransientNonConvergence", "ok"]
    # the repr of the point's frequency and temperature, and no metrics
    assert report[1] == "10000000.0,25.0,nan,nan,nan,nan,nan,nan,failed: TransientNonConvergence"
    assert (tmp_path / "bench_f30000000_t25.csv").exists()
    assert (tmp_path / "bench_f100000000_t25.csv").exists()
    assert not (tmp_path / "bench_f10000000_t25.csv").exists()


# tolerances that no bench DC start and few bench sweep points meet
UNMET = {"reltol": "1e-15", "abstol": "1e-30", "vntol": "1e-30"}


def test_bench_failed_points_reach_stderr(tmp_path, capsys):
    """Each failed point is one stderr line carrying its solver's message, and
    its stdout line names no file, since it writes none."""
    assert main(bench_args(tmp_path, freq="1k,1meg", temp="25,75", periods="3", spp="10",
                           **UNMET)) == 2
    captured = capsys.readouterr()
    points = [f"bench f={f} T={t}" for f in ("1000", "1e+06") for t in (25, 75)]
    err = captured.err.splitlines()
    assert [line.split(" failed: ")[0] for line in err] == points
    assert all("failed: no DC operating point; tried: plain: " in line for line in err)
    assert captured.out.splitlines()[:4] == [f"{p}: failed: NonConvergenceError"
                                             for p in points]
    assert [p.name for p in tmp_path.iterdir()] == ["report.csv"]
    report = (tmp_path / "report.csv").read_text().splitlines()[1:]
    assert report[0] == "1000.0,25.0,nan,nan,nan,nan,nan,nan,failed: NonConvergenceError"


def read_report(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return {
        float(row.split(",")[0]): dict(zip(header[2:-1], map(float, row.split(",")[2:-1])))
        for row in lines[1:]
    }


def test_bench_metrics_converged_in_time_step(tmp_path):
    """Doubling the step density leaves the bench metrics where they were.

    The normalized RMS errors may move by 1 % of their value or 1e-4 (500
    times below the 0.05 bound of acceptance criterion 5), the supply power
    by 1e-4 of its value.  Observed from 1000 to 2000 steps per period over
    3 periods: at 1 kHz the RMS errors rise from 2.9e-5 to 5.1e-5 and the
    power moves by 9e-6 of its value; at 100 MHz the RMS errors move by
    0.06 % and 0.10 % of their values and the power by 1e-6.
    """
    coarse, fine = tmp_path / "coarse", tmp_path / "fine"
    assert main(bench_args(coarse, freq="1k,100meg", periods="3", spp="1000")) == 0
    assert main(bench_args(fine, freq="1k,100meg", periods="3", spp="2000")) == 0
    a, b = read_report(coarse / "report.csv"), read_report(fine / "report.csv")
    for freq in (1e3, 1e8):
        for metric in ("rms_error_plus", "rms_error_minus"):
            assert b[freq][metric] == pytest.approx(a[freq][metric], rel=0.01, abs=1e-4)
        assert b[freq]["dc_power"] == pytest.approx(a[freq]["dc_power"], rel=1e-4)


def test_bench_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(bench_args(a)) == 0
    assert main(bench_args(b)) == 0
    for name in ("bench_f1000_t25.csv", "report.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


# ---------------------------------------------------------------------------
# dc-sweep
# ---------------------------------------------------------------------------


def test_dc_sweep_four_temps(tmp_path):
    rc = main(
        ["dc-sweep", "--source", "Iin", "--from", "-20u", "--to", "20u",
         "--step", "2u", "--temp", "25,50,75,100", "-o", str(tmp_path)]
    )
    assert rc == 0
    for t in (25, 50, 75, 100):
        path = tmp_path / f"dcsweep_t{t}.csv"
        lines = path.read_text().splitlines()
        assert lines[0] == "iin,out_plus,out_minus"
        assert len(lines) == 22  # header + 21 points


def test_dc_sweep_names_its_first_column_after_the_source(tmp_path):
    rc = main(["dc-sweep", "--source", "VDD", "--from", "1.4", "--to", "1.6", "--step", "0.1",
               "-o", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "dcsweep_t25.csv").read_text().splitlines()
    assert lines[0] == "vdd,out_plus,out_minus"
    assert [row.split(",")[0] for row in lines[1:]] == [f"{v:.8e}" for v in (1.4, 1.5, 1.6)]
    assert "nan" not in "".join(lines)


def test_dc_sweep_lockstep_writes_what_single_runs_write(tmp_path):
    temps = ("25", "60", "100")
    sweep = ["dc-sweep", "--from", "-200u", "--to", "200u", "--step", "20u"]
    both = tmp_path / "both"
    assert main(sweep + ["--temp", ",".join(temps), "-o", str(both)]) == 0
    for t in temps:
        one = tmp_path / t
        assert main(sweep + ["--temp", t, "-o", str(one)]) == 0
        name = f"dcsweep_t{t}.csv"
        assert [p.name for p in one.iterdir()] == [name]
        assert (both / name).read_bytes() == (one / name).read_bytes(), name
    assert len(list(both.iterdir())) == len(temps)


@pytest.mark.parametrize(
    "flags",
    [["--source", "IWRONG", "--step", "10u"], ["--step", "0"], ["--step", "-10u"],
     ["--step", "10u", "--temp", "25,25.0000001"], ["--step", "10u", "--temp", "25,25"]],
)
def test_dc_sweep_rejected_input_leaves_no_output_directory(tmp_path, capsys, flags):
    out = tmp_path / "new" / "dir"
    argv = ["dc-sweep", "--from", "-10u", "--to", "10u", *flags, "-o", str(out)]
    assert main(argv) == 1
    assert len(capsys.readouterr().err.splitlines()) == 1
    assert not (tmp_path / "new").exists()


def test_dc_sweep_names_its_non_converged_points(tmp_path, capsys):
    """As ``run`` does for a ``.DC``: one stderr line per temperature that
    has non-converged (NaN) points, and exit 0."""
    argv = ["dc-sweep", "--from", "-200u", "--to", "200u", "--step", "100u", "--temp", "25,75"]
    for flag, value in UNMET.items():
        argv += [f"--{flag}", value]
    assert main(argv + ["-o", str(tmp_path)]) == 0
    assert capsys.readouterr().err == (
        "dcsweep_t25.csv: 4 non-converged points\ndcsweep_t75.csv: 4 non-converged points\n")
    rows = (tmp_path / "dcsweep_t25.csv").read_text().splitlines()[1:]
    assert [",nan," in row for row in rows] == [True, False, True, True, True]


def test_dc_sweep_single_point(tmp_path):
    rc = main(["dc-sweep", "--from", "-10u", "--to", "-10u", "--step", "1u",
               "-o", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "dcsweep_t25.csv").read_text().splitlines()
    assert len(lines) == 2


def test_dc_sweep_file_pins_nan_signed_zero_and_subnormal(tmp_path, monkeypatch):
    """Each value is written as '{:.8e}' writes it, byte for byte: a
    non-converged point's NaN, a -0.0 and subnormals included."""
    def transfer(graphs, sweep, options):
        iin = np.array([-1e-5, 0.0, 1e-5])
        return [(iin, np.array([np.nan, -0.0, 5e-324]),
                 np.array([1.5, 2.2250738585072014e-308 / 3, -np.inf]))]

    monkeypatch.setattr(amps.rectifier, "bench_dc_transfer", transfer)
    argv = ["dc-sweep", "--from", "-10u", "--to", "10u", "--step", "10u", "-o", str(tmp_path)]
    assert main(argv) == 0
    text = (tmp_path / "dcsweep_t25.csv").read_text()
    assert text == (
        "iin,out_plus,out_minus\n"
        "-1.00000000e-05,nan,1.50000000e+00\n"
        "0.00000000e+00,-0.00000000e+00,7.41691286e-309\n"
        "1.00000000e-05,4.94065646e-324,-inf\n"
    )
    rows = zip(*transfer(None, None, None)[0])
    assert text.splitlines()[1:] == [",".join(map("{:.8e}".format, row)) for row in rows]


@pytest.mark.parametrize(
    "argv",
    [
        ["dc-sweep", "--from", "-10u", "--to", "10u", "--step", "10u", "--temp", "25,400"],
        ["run", "diode.cir", "--temp", "25,400"],
    ],
)
def test_bad_temperature_among_several_writes_nothing(tmp_path, capsys, argv):
    src = write(tmp_path, "diode.cir", DIODE)
    out = tmp_path / "out"
    out.mkdir()
    argv = [str(src) if a == "diode.cir" else a for a in argv]
    assert main(argv + ["-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert "400" in err and len(err.splitlines()) == 1
    assert list(out.iterdir()) == []


def test_run_sweep_of_unknown_source_writes_nothing(tmp_path, capsys):
    src = write(tmp_path, "sweep.cir", DIVIDER.replace(".END", ".DC VX 0 1 0.5\n.END"))
    assert main(["run", str(src), "-o", str(tmp_path / "out")]) == 1
    assert "no source named VX" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_dc_sweep_unknown_source(tmp_path, capsys):
    rc = main(["dc-sweep", "--source", "IWRONG", "--from", "0", "--to", "1u",
               "--step", "1u", "-o", str(tmp_path)])
    assert rc == 1
    assert "IWRONG" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# device-curves
# ---------------------------------------------------------------------------


def read_csv_columns(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    data = np.array([[float(c) for c in line.split(",")] for line in lines[1:]])
    return header, data


def test_device_curves_monotone(tmp_path):
    out = tmp_path / "curves.csv"
    rc = main(["device-curves", "--model", "CMOSN", "--vgs", "0.5,1.0,1.5",
               "--vds-step", "0.05", "-o", str(out)])
    assert rc == 0
    header, data = read_csv_columns(out)
    assert header == ["vds", "id_vgs0.5", "id_vgs1", "id_vgs1.5"]
    for col in range(1, 4):
        assert np.all(np.diff(data[:, col]) >= -1e-15)
    assert np.all(data[:, 1] == 0.0)  # vgs=0.5 below threshold


def test_device_curves_pmos_mirror(tmp_path):
    cards = tmp_path / "mirror.cir"
    cards.write_text(
        "mirrored pair\n"
        ".MODEL NX NMOS VTO=0.7 KP=1E-4 GAMMA=0.5 PHI=0.7 THETA=0.1\n"
        ".MODEL PX PMOS VTO=-0.7 KP=1E-4 GAMMA=0.5 PHI=0.7 THETA=0.1\n"
        ".END\n"
    )
    out_n, out_p = tmp_path / "n.csv", tmp_path / "p.csv"
    common = ["--cards", str(cards), "--vgs", "1.0,1.5", "--vds-step", "0.25"]
    assert main(["device-curves", "--model", "NX", "-o", str(out_n)] + common) == 0
    assert main(["device-curves", "--model", "PX", "-o", str(out_p)] + common) == 0
    _, dn = read_csv_columns(out_n)
    _, dp = read_csv_columns(out_p)
    assert np.allclose(dp, -dn, atol=1e-30)


def test_device_curves_grid_clamps_last_step_to_endpoint(tmp_path):
    out = tmp_path / "curves.csv"
    assert main(["device-curves", "--model", "CMOSN", "--vds-step", "0.007", "-o", str(out)]) == 0
    _, data = read_csv_columns(out)
    assert len(data) == 216  # 0, 0.007, ..., 1.498, then 1.5
    assert data[-1, 0] == 1.5 and data[-2, 0] == pytest.approx(214 * 0.007)


def test_device_curves_blocks_of_rows_write_one_grid(tmp_path, monkeypatch):
    """The grid is evaluated a block of rows at a time; the blocks join seamlessly."""
    argv = ["device-curves", "--model", "CMOSP", "--vgs", "-1.5,0.5,-1", "--vds-step", "0.007"]
    assert main(argv + ["-o", str(tmp_path / "whole.csv")]) == 0
    monkeypatch.setattr(amps.cli, "_CURVE_ROWS", 7)  # 216 rows: 30 full blocks and 6 rows
    assert main(argv + ["-o", str(tmp_path / "blocks.csv")]) == 0
    assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()


def test_device_curves_pmos_file_bytes_pinned(tmp_path):
    """A PMOS grid is written mirrored: negative vds and currents, signed zeros kept."""
    out = tmp_path / "p.csv"
    argv = ["device-curves", "--model", "CMOSP", "--vgs", "0.5,1.5", "--vds-step", "0.5"]
    assert main(argv + ["-o", str(out)]) == 0
    assert out.read_text() == (
        "vds,id_vgs0.5,id_vgs1.5\n"
        "-0.00000000e+00,-0.00000000e+00,-0.00000000e+00\n"
        "-5.00000000e-01,-0.00000000e+00,-5.49622351e-05\n"
        "-1.00000000e+00,-0.00000000e+00,-5.55165618e-05\n"
        "-1.50000000e+00,-0.00000000e+00,-5.55165618e-05\n"
    )


def test_device_curves_unknown_model(tmp_path, capsys):
    rc = main(["device-curves", "--model", "NOPE", "-o", str(tmp_path / "x.csv")])
    assert rc == 1
    assert "unknown model" in capsys.readouterr().err


def test_device_curves_polarity_check(tmp_path, capsys):
    rc = main(["device-curves", "--model", "CMOSN", "--polarity", "PMOS",
               "-o", str(tmp_path / "x.csv")])
    assert rc == 1
    assert "is NMOS" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# output targets
# ---------------------------------------------------------------------------


def no_newton(*args):
    raise AssertionError("a Newton step ran")


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "div.cir", "-o", "nodir/sub/x.csv"],
        ["device-curves", "--model", "CMOSN", "--vds-step", "0.5", "-o", "nodir/sub/x.csv"],
    ],
    ids=["run", "device-curves"],
)
def test_run_and_device_curves_create_a_missing_parent(tmp_path, capsys, argv):
    write(tmp_path, "div.cir", DIVIDER)
    argv = [str(tmp_path / a) if a.endswith((".cir", ".csv")) else a for a in argv]
    assert main(argv) == 0
    assert (tmp_path / "nodir" / "sub" / "x.csv").read_text().count("\n") > 1
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "argv,target,rule",
    [
        (["bench", "--freq", "1k", "--periods", "3", "--steps-per-period", "10"], "afile",
         "Not a directory"),
        (["dc-sweep", "--from", "-10u", "--to", "10u", "--step", "10u"], "afile",
         "Not a directory"),
        (["run", "div.cir", "--temp", "25,50"], "afile", "Not a directory"),
        (["run", "div.cir"], "afile/x.csv", "{afile} is not a directory"),
        (["bench", "--freq", "1k", "--periods", "3", "--steps-per-period", "10"], "afile/sub/x",
         "{afile} is not a directory"),
        (["device-curves", "--model", "CMOSN"], "adir", "Is a directory"),
        (["device-curves", "--model", "CMOSN"], "afile/x.csv", "{afile} is not a directory"),
    ],
)
def test_unwritable_output_target_rejected_before_any_solve(tmp_path, capsys, monkeypatch, argv,
                                                             target, rule):
    write(tmp_path, "div.cir", DIVIDER)
    write(tmp_path, "afile", "keep\n")
    (tmp_path / "adir").mkdir()
    before = sorted(tmp_path.rglob("*"))
    monkeypatch.setattr(amps.solver, "_newton_batch", no_newton)
    monkeypatch.setattr(amps.cli, "eval_mosfet_into", no_newton)
    argv = [str(tmp_path / a) if a.endswith(".cir") else a for a in argv]
    assert main(argv + ["-o", str(tmp_path / target)]) == 1
    err = capsys.readouterr().err
    rule = rule.format(afile=tmp_path / "afile")
    assert err == f"amps {argv[0]}: error: cannot write {tmp_path / target}: {rule}\n"
    assert sorted(tmp_path.rglob("*")) == before
    assert (tmp_path / "afile").read_text() == "keep\n"


@pytest.mark.parametrize(
    "argv",
    [["run", "in.cir", "-o", "in.cir"],
     ["device-curves", "--model", "NX", "--cards", "in.cir", "-o", "in.cir"]],
    ids=["run", "device-curves"],
)
def test_output_target_that_is_the_input_is_refused(tmp_path, capsys, monkeypatch, argv):
    """``-o`` naming the file the command reads would overwrite its input."""
    write(tmp_path, "in.cir", DIODE)
    before = sorted(tmp_path.rglob("*"))
    monkeypatch.setattr(amps.solver, "_newton_batch", no_newton)
    monkeypatch.setattr(amps.cli, "eval_mosfet_into", no_newton)
    argv = [str(tmp_path / a) if a.endswith(".cir") else a for a in argv]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        f"amps {argv[0]}: error: cannot write {tmp_path / 'in.cir'}: it is the input file\n")
    assert sorted(tmp_path.rglob("*")) == before
    assert (tmp_path / "in.cir").read_text() == DIODE


# ---------------------------------------------------------------------------
# usage errors exit 1
# ---------------------------------------------------------------------------


def test_unknown_subcommand_exits_1(capsys):
    assert main(["frobnicate"]) == 1


def test_bad_number_flag_exits_1(capsys):
    assert main(["bench", "--freq", "1x2"]) == 1


def test_missing_required_flag_exits_1(capsys):
    assert main(["dc-sweep", "--to", "1u", "--step", "1u"]) == 1


SHORT_TRAN = "too short a transient\nV1 a 0 DC 1\nR1 a b 1k\nC1 b 0 1n\n.TRAN 1m 5m\n.END\n"
TINY_STEP = "too fine a transient\nV1 a 0 DC 1\nR1 a b 1k\nC1 b 0 1n\n.TRAN 1e-320 1e-9\n.END\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["bench", "--periods", "0"],
        ["bench", "--steps-per-period", "5"],
        ["bench", "--temp", "400"],
        ["dc-sweep", "--from", "-10u", "--to", "10u", "--step", "10u", "--temp", "400"],
        ["device-curves", "--model", "CMOSN", "--temp", "500"],
        ["device-curves", "--model", "CMOSN", "--vds-step", "0"],
        ["run", "short_tran.cir"],
        ["dc-sweep", "--from", "0", "--to", "1u", "--step", "1u", "--temp", ","],
        # step counts that do not fit in a float
        ["dc-sweep", "--from", "-200u", "--to", "200u", "--step", "1e-320"],
        ["device-curves", "--model", "CMOSN", "--vds-step", "1e-320"],
        ["run", "tiny_step.cir"],
        ["bench", "--freq", "1k", "--periods", "1000", "--steps-per-period", "100000"],
        # two points whose output files share a name
        ["bench", "--freq", "1000,1000.4", "--periods", "3", "--steps-per-period", "10"],
        ["dc-sweep", "--from", "-10u", "--to", "10u", "--step", "10u", "--temp", "25,25.0000001"],
        ["device-curves", "--model", "CMOSN", "--w", "-1u"],
        ["device-curves", "--model", "CMOSN", "--w", "0"],
        # two columns, or two temperatures' files, that share a label
        ["device-curves", "--model", "CMOSN", "--vgs", "1,1.0000001"],
        ["run", "div.cir", "--temp", "25,25"],
        ["run", "div.cir", "--temp", "25,25.0000001"],
        ["run", "temp_twice.cir"],
        ["run", "no_analysis.cir"],
        # one step past MAX_STEPS
        ["bench", "--freq", "100meg", "--periods", "10001", "--steps-per-period", "1000"],
    ],
)
def test_bad_values_are_one_line_usage_errors(tmp_path, capsys, argv):
    write(tmp_path, "no_analysis.cir", DIVIDER.replace(".OP\n", ".TEMP 25\n"))
    write(tmp_path, "short_tran.cir", SHORT_TRAN)
    write(tmp_path, "tiny_step.cir", TINY_STEP)
    write(tmp_path, "div.cir", DIVIDER)
    write(tmp_path, "temp_twice.cir", DIVIDER.replace(".OP", ".TEMP 25 25\n.OP"))
    argv = [str(tmp_path / a) if a.endswith(".cir") else a for a in argv]
    assert main(argv + ["-o", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_bench_step_rule_names_the_flags(capsys):
    """The bench's step rule is its generated ``.TRAN``'s, reported against
    the two flags that set it, not a line of a netlist that the user never
    wrote."""
    assert main(["bench", "--freq", "100meg", "--periods", "10001",
                 "--steps-per-period", "1000"]) == 1
    assert capsys.readouterr().err == (
        "amps bench: error: 10001 periods of 1000 steps: "
        ".TRAN requires tstop <= 10000000*tstep\n")


def test_memory_error_is_one_line_exit_1(tmp_path, capsys, monkeypatch):
    """A record too large to allocate is one stderr line and exit 1, and
    leaves no output behind; the allocation is patched, so nothing is
    allocated."""
    import amps.rectifier

    def no_memory(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr(amps.rectifier, "solve_lockstep", no_memory)
    out = tmp_path / "out"
    argv = ["bench", "--freq", "1k,1meg", "--periods", "3", "--steps-per-period", "10"]
    assert main(argv + ["-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == "amps bench: error: out of memory\n"
    assert not out.exists()


def ladder(*cards):
    """A resistor ladder of 1 024 unknowns (1 023 nodes and one source
    branch), so that 2**19 rows of its record take 2**32 bytes."""
    rungs = "".join(f"R{k} n{k} n{k + 1} 1k\n" for k in range(1, 1023))
    return "\n".join(["ladder", "V1 n1 0 DC 1", rungs + "R1023 n1023 0 1k", *cards, ".END\n"])


TEMPS_16 = ",".join(str(25 + t) for t in range(16))
TEMPS_64 = ",".join(str(25 + t) for t in range(64))
# (argv or netlist cards, the record's rows, its columns): each the largest
# record within MAX_RECORD_BYTES or the smallest over it.  A bench config
# records 5 currents, a bench sweep member 12 unknowns.
RECORDS = {
    "run-tran": ([".TRAN 1 524287"], 2**19, 1024),
    "run-tran-over": ([".TRAN 1 524288"], 2**19 + 1, 1024),
    "run-dc": ([".DC V1 0 524287 1"], 2**19, 1024),
    "run-dc-over": ([".DC V1 0 524288 1"], 2**19 + 1, 1024),
    "run-op-then-tran-over": ([".OP", ".TRAN 1 524288"], 2**19 + 1, 1024),
    "bench": (["bench", "--freq", "1k", "--temp", TEMPS_16, "--periods", "5",
               "--steps-per-period", "1342177"], 6710886, 80),
    "bench-over": (["bench", "--freq", "1k", "--temp", TEMPS_16, "--periods", "3",
                    "--steps-per-period", "2236962"], 6710887, 80),
    "dc-sweep": (["dc-sweep", "--temp", TEMPS_64, "--from", "0", "--to", "699049",
                  "--step", "1"], 699050, 768),
    "dc-sweep-over": (["dc-sweep", "--temp", TEMPS_64, "--from", "0", "--to", "699050",
                       "--step", "1"], 699051, 768),
    "device-curves-over": (["device-curves", "--model", "CMOSN", "--vds-to", "524288",
                            "--vds-step", "1", "--vgs", ",".join(f"{k}m" for k in range(1024))],
                           2**19 + 1, 1024),
}


@pytest.mark.parametrize("case", RECORDS)
def test_record_within_its_limit_runs_and_one_row_over_is_rejected_before_any_solve(
        tmp_path, capsys, monkeypatch, case):
    """Each handler checks its records' size (rows x columns x 8 bytes)
    against ``MAX_RECORD_BYTES`` before its first solve: a record within the
    limit reaches the first Newton solve (patched to stop there, so nothing
    is allocated), and one row over it is one stderr line and exit 1, with
    no solve and no output.  For ``run`` that holds for every job, so an
    ``.OP`` before a transient over the limit is not solved either."""
    argv, rows, columns = RECORDS[case]
    over = case.endswith("-over")
    within = rows - over  # the most rows within the limit
    assert within * columns * 8 <= amps.netlist.MAX_RECORD_BYTES < (within + 1) * columns * 8
    monkeypatch.setattr(amps.solver, "_newton_batch", no_newton)
    monkeypatch.setattr(amps.cli, "eval_mosfet_into", no_newton)
    if case.startswith("run"):
        argv = ["run", str(write(tmp_path, "ladder.cir", ladder(*argv)))]
    out = tmp_path / "out"
    argv = argv + ["-o", str(out / "x.csv" if argv[0] in ("run", "device-curves") else out)]
    if not over:
        with pytest.raises(AssertionError, match="a Newton step ran"):
            main(argv)
    else:
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            f"amps {argv[0]}: error: a record of {rows} x {columns} values takes "
            f"{rows * columns * 8} bytes, over the limit of 4294967296\n")
    assert not out.exists()


def test_device_curves_table_at_the_record_limit_is_written(tmp_path, monkeypatch):
    """``device-curves``' record is its table, rows of vds by columns of vgs;
    the rule is checked at a limit lowered to 3 x 101 values, so that the
    table within it is written and not allocated at 2**32 bytes."""
    monkeypatch.setattr(amps.netlist, "MAX_RECORD_BYTES", 8 * 3 * 101)
    argv = ["device-curves", "--model", "CMOSN", "--vds-step", "0.015", "-o"]
    assert main(argv + [str(tmp_path / "x.csv")]) == 0
    assert len(read_csv_columns(tmp_path / "x.csv")[1]) == 101
    assert main(["device-curves", "--model", "CMOSN", "--vgs", "0.5,1,1.5,2", "--vds-step",
                 "0.015", "-o", str(tmp_path / "y.csv")]) == 1
    assert not (tmp_path / "y.csv").exists()


def test_sweep_grid_is_built_once_after_the_first_solve(tmp_path, monkeypatch):
    """A ``.DC`` job counts its steps (``DcSweepDirective.steps``) before any
    solve and builds its grid (``DcSweepDirective.values``) once, in the
    sweep: a run at the 10^7-step bound builds none before its first Newton
    solve, and a small run and a two-temperature ``dc-sweep`` one each."""
    built = []
    values = amps.netlist.DcSweepDirective.values

    def counted(sweep):
        built.append(sweep)
        return values(sweep)

    monkeypatch.setattr(amps.netlist.DcSweepDirective, "values", counted)
    big = write(tmp_path, "big.cir", DIVIDER.replace(".OP", ".DC V1 0 1e7 1"))
    with monkeypatch.context() as stopped:
        stopped.setattr(amps.solver, "_newton_batch", no_newton)
        with pytest.raises(AssertionError, match="a Newton step ran"):
            main(["run", str(big), "-o", str(tmp_path / "big.csv")])
    assert built == []
    small = write(tmp_path, "small.cir", DIVIDER.replace(".OP", ".DC V1 0 2 0.5"))
    assert main(["run", str(small), "-o", str(tmp_path / "small.csv")]) == 0
    assert len(built) == 1
    assert main(["dc-sweep", "--from", "-20u", "--to", "20u", "--step", "10u",
                 "--temp", "25,75", "-o", str(tmp_path / "dc")]) == 0
    assert len(built) == 2


def test_bench_record_over_the_limit_is_one_line_before_any_solve(tmp_path, capsys,
                                                                   monkeypatch):
    """The default 6 frequencies at 5 temperatures, 9 990 periods of 1 000
    steps, would record 11.2 GiB: refused before the first DC solve."""
    monkeypatch.setattr(amps.solver, "_newton_batch", no_newton)
    out = tmp_path / "out"
    assert main(["bench", "--temp", "25,40,55,70,85", "--periods", "9990",
                 "--steps-per-period", "1000", "-o", str(out)]) == 1
    assert capsys.readouterr().err == (
        "amps bench: error: a record of 9990001 x 150 values takes 11988001200 bytes, "
        "over the limit of 4294967296\n")
    assert not out.exists()


# Each subcommand's flags, each with its good values and then its bad ones.
# Periods and steps per period are always given and tiny, so every draw runs
# in well under a second.
CLI_GRAMMAR = {
    "bench": {
        "--freq": (["1k", "1meg,100meg"], ["0", "-1k", ",", "1x2"]),
        "--temp": (["25", "25,100"], ["400", "-60"]),
        "--amp": (["400u"], ["0", "-1m"]),
        "--reltol": (["1m"], ["-1"]),
    },
    "dc-sweep": {
        "--source": (["IIN"], ["NOPE"]),
        "--temp": (["25", "25,100"], ["400"]),
        "--gmin": (["1p"], ["0"]),
    },
    "device-curves": {
        "--polarity": (["NMOS", "PMOS"], ["BJT"]),
        "--vgs": (["1", "0.5,1.5"], ["x"]),
        "--vds-step": (["0.5"], ["0", "-0.5"]),
        "--temp": (["27"], ["500"]),
        "--w": (["1.5u"], ["0", "-1u"]),
        "--l": (["0.15u"], ["1e-14"]),
    },
    "run": {"--temp": (["27", "25,100"], ["400"]), "--reltol": (["1m"], ["0"])},
}
REQUIRED = {
    "bench": {"--periods": (["3"], ["0", "1", "x"]), "--steps-per-period": (["10", "12"], ["5"])},
    "dc-sweep": {"--from": (["-20u", "20u"], ["abc"]), "--to": (["20u"], []),
                 "--step": (["10u"], ["0", "-10u"])},
    "device-curves": {"--model": (["CMOSN", "CMOSP"], ["NOPE"])},
    "run": {},
}
NETLISTS = {
    "rc.cir": "rc\nV1 a 0 DC 1\nR1 a b 1k\nC1 b 0 1n\n.TRAN 1u 20u\n.END\n",
    "divider.cir": DIVIDER,
    "broken.cir": BROKEN,
    "short.cir": SHORT_TRAN,
    "missing.cir": None,
    "ground.cir": GROUND_ONLY,
    "shorted.cir": SHORTED,
    "loop.cir": LOOP,
    "island.cir": PATHOLOGICAL,
    "huge.cir": HUGE_CAP,
}
GOOD_NETLISTS = ["rc.cir", "divider.cir"]
RUN_NETLISTS = (GOOD_NETLISTS, sorted(NETLISTS.keys() - set(GOOD_NETLISTS)))
BAD_ODDS = 20  # a draw takes one of a flag's bad values about once in this many
# where -o points: a new name, a name under a missing directory, an existing
# regular file or an existing directory
TARGETS = ("new", "missing parent", "file", "directory")


@st.composite
def cli_argv(draw):
    """Mostly good values, so that most draws of ``bench``, ``dc-sweep`` and
    ``run`` reach a solve; each flag's bad values now and then."""

    def value(choices):
        good, bad = choices
        rare = bad and draw(st.integers(1, BAD_ODDS)) == 1
        return draw(st.sampled_from(bad if rare else good))

    command = draw(st.sampled_from(sorted(CLI_GRAMMAR)))
    argv = [command]
    if command == "run":
        argv.append(value(RUN_NETLISTS))
    for flag, choices in REQUIRED[command].items():
        argv += [flag, value(choices)]
    for flag in draw(st.sets(st.sampled_from(sorted(CLI_GRAMMAR[command])), max_size=3)):
        argv += [flag, value(CLI_GRAMMAR[command][flag])]
    return argv


def target_rejected(argv, target):
    """Whether ``-o`` names a directory where a file is needed, or a file
    where a directory is: ``bench`` and ``dc-sweep`` write a directory,
    ``device-curves`` a file, and ``run`` a file for one analysis at one
    temperature (each netlist here holds at most one analysis)."""
    if argv[0] == "device-curves":
        return target == "directory"
    several = argv[0] != "run" or "," in dict(zip(argv, argv[1:])).get("--temp", "")
    return target == "file" and several


@settings(max_examples=40, deadline=None)
@given(cli_argv(), st.sampled_from(TARGETS))
@example(["bench", "--periods", "3", "--steps-per-period", "10"], "file")
@example(["dc-sweep", "--from", "-20u", "--to", "20u", "--step", "10u"], "file")
@example(["run", "divider.cir", "--temp", "25,100"], "file")
@example(["device-curves"], "directory")
@example(["run", "rc.cir"], "missing parent")
@example(["run", "huge.cir"], "new")
def test_cli_contract_holds_for_drawn_argv(argv, target):
    rejected = target_rejected(argv, target)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name, text in NETLISTS.items():
            if text is not None:
                (tmp / name).write_text(text)
        (tmp / "afile").write_text("keep\n")
        (tmp / "adir").mkdir()
        argv = [str(tmp / a) if a.endswith(".cir") else a for a in argv]
        name = "curves.csv" if argv[0] == "device-curves" else "out"
        out = {"new": tmp / name, "missing parent": tmp / "new" / name, "file": tmp / "afile",
               "directory": tmp / "adir"}[target]
        before = sorted(tmp.rglob("*"))
        err = io.StringIO()
        no_solve = (mock.patch.object(amps.solver, "_newton_batch", no_newton) if rejected
                    else contextlib.nullcontext())
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()), no_solve:
            rc = main(argv + ["-o", str(out)])
        if rejected:
            assert rc == 1 and len(err.getvalue().splitlines()) == 1, err.getvalue()
            assert sorted(tmp.rglob("*")) == before
            assert (tmp / "afile").read_text() == "keep\n"
    assert rc in (0, 1, 2)
    assert len(err.getvalue().splitlines()) <= 1, err.getvalue()


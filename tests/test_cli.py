"""CLI surface tests: exit codes, output files, stream discipline."""

import numpy as np
import pytest

from amps.cli import _atomic_write, main
from amps.rectifier import bench_netlist_path

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

# validates cleanly but is exactly singular: current source into an island
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
    text = out.read_text()
    assert "v(mid),1.50000000e+00,V" in text


def test_run_syntax_error_has_line_number(tmp_path, capsys):
    src = write(tmp_path, "broken.cir", BROKEN)
    assert main(["run", str(src)]) == 1
    captured = capsys.readouterr()
    assert "line 3" in captured.err
    assert captured.out == ""


def test_run_nonconvergent_exits_2(tmp_path, capsys):
    src = write(tmp_path, "bad.cir", PATHOLOGICAL)
    assert main(["run", str(src)]) == 2
    captured = capsys.readouterr()
    assert "failed" in captured.err


def test_run_missing_file(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.cir")]) == 1
    assert "cannot read" in capsys.readouterr().err


def test_run_validation_error(tmp_path, capsys):
    src = write(tmp_path, "noground.cir", "no ground\nV1 a b DC 1\nR1 a b 1k\n.OP\n.END\n")
    assert main(["run", str(src)]) == 1
    assert "no ground node" in capsys.readouterr().err


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
    lines = out.read_text().splitlines()
    assert lines[0] == "V1,v(top),v(mid),i(V1)"
    assert len(lines) == 6
    assert lines[1].startswith("0.00000000e+00,")


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


def test_dc_sweep_single_point(tmp_path):
    rc = main(["dc-sweep", "--from", "-10u", "--to", "-10u", "--step", "1u",
               "-o", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "dcsweep_t25.csv").read_text().splitlines()
    assert len(lines) == 2


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
# usage errors exit 1
# ---------------------------------------------------------------------------


def test_unknown_subcommand_exits_1(capsys):
    assert main(["frobnicate"]) == 1


def test_bad_number_flag_exits_1(capsys):
    assert main(["bench", "--freq", "1x2"]) == 1


def test_missing_required_flag_exits_1(capsys):
    assert main(["dc-sweep", "--to", "1u", "--step", "1u"]) == 1


# ---------------------------------------------------------------------------
# output files
# ---------------------------------------------------------------------------


def test_atomic_write_removes_tmp_when_writer_raises(tmp_path):
    def failing(fh):
        fh.write("partial row\n")
        raise RuntimeError("writer failed")

    with pytest.raises(RuntimeError, match="writer failed"):
        _atomic_write(tmp_path / "out.csv", failing)
    assert list(tmp_path.iterdir()) == []

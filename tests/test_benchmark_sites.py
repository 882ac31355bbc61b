"""The benchmark's patch sites still resolve in amps, and its tracer still
reads what they return.

``benchmarks/spans.py`` wraps amps functions by name in the modules that
look them up: the tracer (``run.py --trace 1``) and the set-up probe that
stops at the first solver call.  A refactor that renames or moves one of
them would leave that wrapper out silently.  Here both install with
identity wrappers, which resolve every name exactly as a benchmark run does
and leave the modules unchanged.  The tracer's readers (``spans._INFO``)
count what a traced call returns or takes; they get the real values here.
"""

import importlib.util
from pathlib import Path

import pytest

import amps.cli
import amps.rectifier
import amps.solver
from amps.analysis import write_csv
from amps.netlist import DcSweepDirective
from amps.rectifier import BenchConfig, bench_graph, bench_netlist_path
from amps.solver import SolverOptions, dc_sweep, solve_transient

SPANS = Path(__file__).resolve().parents[1] / "benchmarks" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("benchmark_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_and_eval_mosfet_resolve():
    spans = load_spans()

    class Identity(spans.Tracer):
        def wrap(self, name, fn):
            return fn

        def _wrap_eval(self, fn):
            return fn

    eval_mosfet = amps.solver.eval_mosfet
    assert Identity().install() == []  # names found in none of their modules
    assert amps.solver.eval_mosfet is eval_mosfet


def test_solver_entries_resolve_for_the_setup_probe():
    spans = load_spans()

    class Identity(spans.FirstSolverCall):
        def _wrap(self, name, fn):
            return fn

    assert Identity().install() == []


# the bench netlist's analysis, and the one each ``run`` netlist has instead
DIRECTIVES = {"bench.cir": ".TRAN 1e-06 0.02", "op.cir": ".OP", "dc.cir": ".DC IIN -20u 20u 10u"}


@pytest.mark.parametrize(
    ("argv", "entry"),
    [
        pytest.param(["bench", "--freq", "1k,1meg", "--temp", "25,75", "--periods", "3",
                      "--steps-per-period", "10"], "solve_dc", id="bench"),
        pytest.param(["dc-sweep", "--from", "-20u", "--to", "20u", "--step", "10u",
                      "--temp", "25,75"], "solve_dc", id="dc-sweep"),
        pytest.param(["run", "bench.cir"], "solve_transient", id="run"),
        pytest.param(["run", "op.cir"], "solve_dc", id="run-op"),
        pytest.param(["run", "dc.cir"], "dc_sweep", id="run-dc"),
    ],
)
def test_setup_probe_stops_before_any_lockstep_solve_or_output(argv, entry, tmp_path,
                                                                monkeypatch):
    """The benchmark's set-up probe ends every command at its first solver
    call, which is ``entry``.

    A batched path that reached the solver some other way would run to the
    end here instead of raising SetupDone.
    """
    spans = load_spans()
    for name in spans.SOLVER_ENTRIES:
        for module in (amps.cli, amps.rectifier):
            if hasattr(module, name):  # restored when the test ends
                monkeypatch.setattr(module, name, getattr(module, name))

    def newton(*args):
        raise AssertionError("a Newton step ran before set-up ended")

    reached = []

    class Probe(spans.FirstSolverCall):
        def _wrap(self, name, fn):
            stop = super()._wrap(name, fn)

            def first(*args, **kwargs):
                reached.append(name)
                return stop(*args, **kwargs)

            return first

    monkeypatch.setattr(amps.solver, "_newton_batch", newton)
    assert Probe(stop=True).install() == []
    bench = bench_netlist_path().read_text()
    for name, directive in DIRECTIVES.items():
        (tmp_path / name).write_text(bench.replace(DIRECTIVES["bench.cir"], directive))
    out = tmp_path / "out"
    out.mkdir()
    argv = [str(tmp_path / a) if a.endswith(".cir") else a for a in argv]
    with pytest.raises(spans.SetupDone):
        amps.cli.main(argv + ["-o", str(out)])
    assert reached == [entry]
    assert list(out.iterdir()) == []


def test_span_readers_count_a_bench_transient(tmp_path):
    """Each reader of ``spans._INFO`` counts what its function returns or
    takes: the graph's MOSFETs, the transient's steps, and the rows and
    columns of the CSV that ``write_csv`` writes.  ``--trace 1`` calls them
    on every traced call, so a change to these values breaks the tracer."""
    info = load_spans()._INFO
    cfg = BenchConfig(frequency=1e6, periods=3, steps_per_period=10)
    graph = bench_graph(cfg)
    assert info["build_graph"](graph, (graph.doc, cfg.temp)) == {"mosfets": 9}
    tran = cfg.tran()
    ws = solve_transient(graph, tran, SolverOptions())
    assert info["solve_transient"](ws, (graph, tran)) == {"steps": 30}
    path = tmp_path / "bench.csv"
    write_csv(ws, path)
    header, *rows = path.read_text().splitlines()[1:]  # after the units line
    assert info["write_csv"](None, (ws, path)) == {"rows": len(rows),
                                                   "cols": header.count(",") + 1}


@pytest.mark.xfail(raises=TypeError, strict=True,
                   reason="the dc_sweep reader takes len() of the SweepRecord that "
                          "dc_sweep returns, as if it were a list of points")
def test_span_reader_counts_a_dc_sweep():
    graph = bench_graph(BenchConfig())
    sweep = DcSweepDirective("IIN", -20e-6, 20e-6, 10e-6)
    record = dc_sweep(graph, sweep, SolverOptions())
    assert record.converged.all()
    info = load_spans()._INFO["dc_sweep"](record, (graph, sweep))
    assert info == {"points": 5, "nonconverged": 0}

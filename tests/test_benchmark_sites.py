"""The benchmark's patch sites still resolve in amps.

``benchmarks/spans.py`` wraps amps functions by name in the modules that
look them up: the tracer (``run.py --trace 1``) and the set-up probe that
stops at the first solver call.  A refactor that renames or moves one of
them would leave that wrapper out silently.  Here both install with
identity wrappers, which resolve every name exactly as a benchmark run does
and leave the modules unchanged.
"""

import importlib.util
from pathlib import Path

import amps.solver

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

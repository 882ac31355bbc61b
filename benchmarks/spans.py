"""Spans around calls into amps's layers, and the per-layer metrics they give.

The benchmark does not change amps. A traced run replaces each public
function in the module namespaces that look it up (``from x import f``
copies the name, so every importing module is patched) with a wrapper that
records a span: name, start, end and the enclosing span's id. Spans stay in
memory and are written out when the run ends.

``eval_mosfet`` runs about 400 000 times per bench scenario, so it gets no
span of its own: its calls and time are added to the enclosing span.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

# (function, its layer, modules whose globals name it at run time)
TRACED = (
    ("parse_netlist", "netlist", ("amps.cli", "amps.rectifier")),
    ("build_graph", "solver", ("amps.cli", "amps.rectifier")),
    ("solve_transient", "solver", ("amps.cli", "amps.rectifier")),
    ("dc_sweep", "solver", ("amps.cli", "amps.rectifier")),
    ("solve_dc", "solver", ("amps.cli", "amps.solver")),
    ("newton_solve", "solver", ("amps.solver",)),
    ("run_bench", "rectifier", ("amps.cli",)),
    ("compare", "rectifier", ("amps.cli",)),
    ("bench_dc_transfer", "rectifier", ("amps.rectifier",)),
    ("write_csv", "analysis", ("amps.cli",)),
)
LAYER = {name: layer for name, layer, _ in TRACED} | {"main": "cli"}
LAYERS = ("cli", "netlist", "solver", "device", "rectifier", "analysis")

# The solver entry points that end set-up: the first call to any of them.
SOLVER_ENTRIES = ("solve_transient", "dc_sweep", "solve_dc")

# What each span keeps from its function's result.
_INFO = {
    "build_graph": lambda graph, args: {"mosfets": len(graph.mosfets)},
    "solve_transient": lambda ws, args: {"steps": ws.waveforms[0].times.size - 1},
    "dc_sweep": lambda curve, args: {
        "points": len(curve),
        "nonconverged": sum(not op.converged for _, op in curve),
    },
    "write_csv": lambda _, args: {
        "rows": args[0].waveforms[0].times.size,
        "cols": len(args[0].waveforms) + 1,
    },
}


def patch(sites: dict[str, tuple[str, ...]], make_wrapper) -> list[str]:
    """Wrap each function in every listed module that names it; return those found nowhere.

    Every module must hold the same function object, so one wrapper serves
    all the places it is looked up.
    """
    missing = []
    for name, module_names in sites.items():
        modules = [importlib.import_module(m) for m in module_names]
        modules = [m for m in modules if hasattr(m, name)]
        if not modules:
            missing.append(name)
            continue
        fn = getattr(modules[0], name)
        if any(getattr(m, name) is not fn for m in modules):
            raise RuntimeError(f"{name} differs between {[m.__name__ for m in modules]}")
        wrapper = make_wrapper(name, fn)
        for m in modules:
            setattr(m, name, wrapper)
    return missing


class SetupDone(BaseException):
    """Ends a set-up probe at its first solver call (amps catches no BaseException)."""


class FirstSolverCall:
    """Untraced runs: note when set-up ends, at the first solver call.

    With ``stop``, the run ends there by raising SetupDone.
    """

    def __init__(self, stop: bool = False):
        self.at: float | None = None
        self.stop = stop

    def install(self) -> list[str]:
        return patch({name: ("amps.cli", "amps.rectifier") for name in SOLVER_ENTRIES}, self._wrap)

    def _wrap(self, name, fn):
        def first(*args, **kwargs):
            if self.at is None:
                self.at = time.monotonic()
            if self.stop:
                raise SetupDone
            return fn(*args, **kwargs)

        return first


class Tracer:
    """Spans in memory, with parent ids; device evaluations aggregated."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[dict] = []

    def install(self) -> list[str]:
        import amps.solver

        amps.solver.eval_mosfet = self._wrap_eval(amps.solver.eval_mosfet)
        return patch({name: modules for name, _, modules in TRACED}, self.wrap)

    def wrap(self, name, fn):
        info = _INFO.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = {
                "id": len(spans),
                "parent": stack[-1]["id"] if stack else None,
                "name": name,
                "evals": 0,
                "eval_s": 0.0,
            }
            spans.append(span)
            stack.append(span)
            done = False
            span["t0"] = clock()
            try:
                result = fn(*args, **kwargs)
                done = True
            finally:
                span["t1"] = clock()
                stack.pop()
                span["failed"] = not done
            if info is not None:
                span.update(info(result, args))
            return result

        return traced

    def _wrap_eval(self, fn):
        stack, clock = self._stack, time.perf_counter

        def traced_eval(*args):
            t0 = clock()
            result = fn(*args)
            top = stack[-1]
            top["eval_s"] += clock() - t0
            top["evals"] += 1
            return result

        return traced_eval


def _mean(total: float, count: int) -> float:
    return total / count if count else 0.0


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced invocation.

    Self time is a span's duration minus its child spans and the device
    evaluations made directly inside it. Newton updates are counted from
    device evaluations: every Newton solve assembles once more than it
    updates, and each assembly evaluates every MOSFET once. A transient
    step is one Newton solve (a rescued step's failed first attempt is not
    counted).
    """
    dur = {s["id"]: s["t1"] - s["t0"] for s in spans}
    child_time = defaultdict(float)
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += dur[s["id"]]
            children[s["parent"]].append(s)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)

    def total(name, key=None):
        return sum(dur[s["id"]] if key is None else s.get(key, 0) for s in by_name[name])

    def per_call(name):
        return _mean(total(name), len(by_name[name]))

    self_s = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        self_s[LAYER[s["name"]]] += dur[s["id"]] - child_time[s["id"]] - s["eval_s"]
        self_s["device"] += s["eval_s"]

    evals = sum(s["evals"] for s in spans)
    eval_s = sum(s["eval_s"] for s in spans)
    mosfets = max((s["mosfets"] for s in by_name["build_graph"]), default=0)
    assemblies = evals / mosfets if mosfets else 0.0
    tran = [s for s in by_name["solve_transient"] if not s["failed"]]
    steps = sum(s["steps"] for s in tran)
    dc_points = total("dc_sweep", "points")
    points = steps + len(tran) + dc_points
    newton_solves = len(by_name["newton_solve"]) + steps
    updates = assemblies - newton_solves
    tran_dc = sum(dur[c["id"]] for s in tran for c in children[s["id"]] if c["name"] == "solve_dc")
    rows = total("write_csv", "rows")
    return {
        "device.eval_us": 1e6 * _mean(eval_s, evals),
        "device.evals": evals,
        "device.evals_per_point": _mean(evals, points),
        "solver.newton_per_point": _mean(updates, points),
        "solver.assembles_per_point": _mean(assemblies, points),
        "solver.useful_newton_ratio": _mean(updates, assemblies),
        "solver.step_us": 1e6 * _mean(sum(dur[s["id"]] for s in tran) - tran_dc, steps),
        "solver.transient_self_s": sum(
            dur[s["id"]] - child_time[s["id"]] - s["eval_s"] for s in tran
        ),
        "solver.dc_point_us": 1e6 * _mean(total("dc_sweep"), dc_points),
        "solver.dc_op_ms": 1e3 * per_call("solve_dc"),
        "solver.failed_points": total("dc_sweep", "nonconverged")
        + sum(s["failed"] for s in by_name["solve_transient"]),
        "solver.build_graph_us": 1e6 * per_call("build_graph"),
        "netlist.parse_us": 1e6 * per_call("parse_netlist"),
        "rectifier.run_bench_s": per_call("run_bench"),
        "rectifier.compare_ms": 1e3 * per_call("compare"),
        "rectifier.dc_transfer_s": per_call("bench_dc_transfer"),
        "analysis.write_csv_ms": 1e3 * per_call("write_csv"),
        "analysis.csv_rows_per_s": _mean(rows, total("write_csv")),
        "analysis.csv_bytes": 8 * sum(s["rows"] * s["cols"] for s in by_name["write_csv"]),
        "cli.self_ms": 1e3 * self_s["cli"],
    } | {f"{layer}.self_s": self_s[layer] for layer in LAYERS if layer != "cli"}

"""amps: a compact analog circuit simulator.

SPICE-subset netlists in, waveform CSVs out.  The package bundles a
dual-phase half-wave current rectifier bench whose simulated behavior is
checked against an exact piecewise oracle.
"""

__version__ = "0.1.0"

from .netlist import parse_netlist, parse_model_card, validate, serialize_netlist
from .device import derive_params, eval_mosfet, overlap_caps
from .solver import build_graph, newton_solve, solve_dc, dc_sweep, solve_transient
from .rectifier import BenchConfig, ideal_dual_phase, build_bench_netlist, compare
from .analysis import Waveform, WaveformSet, write_csv

__all__ = [
    "parse_netlist",
    "parse_model_card",
    "validate",
    "serialize_netlist",
    "derive_params",
    "eval_mosfet",
    "overlap_caps",
    "build_graph",
    "newton_solve",
    "solve_dc",
    "dc_sweep",
    "solve_transient",
    "BenchConfig",
    "ideal_dual_phase",
    "build_bench_netlist",
    "compare",
    "Waveform",
    "WaveformSet",
    "write_csv",
]

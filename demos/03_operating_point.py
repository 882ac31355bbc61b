"""DC operating points: plain Newton, and what the homotopies are for.

Run:  python demos/03_operating_point.py
"""

from amps.netlist import parse_netlist
from amps.rectifier import MODEL_CARDS, bench_netlist_path
from amps.solver import SolverOptions, build_graph, newton_solve, solve_dc

opts = SolverOptions()

# A linear circuit converges in exactly one Newton iteration.
divider = parse_netlist("divider\nV1 top 0 DC 3\nR1 top mid 1k\nR2 mid 0 1k\n.END\n")
graph = build_graph(divider, 27.0)
op = newton_solve(graph, None, opts)
print(f"divider: v(mid) = {op.voltages[divider.nodes['mid'] - 1]:.6f} V "
      f"in {op.iterations} Newton iteration(s)")

# A diode-connected transistor is nonlinear: the damped Newton walks there.
diode = parse_netlist(
    "diode-connected nmos\nV1 vdd 0 DC 1.5\nR1 vdd d 10k\n"
    "M1 d d 0 0 CMOSN W=1.5u L=0.15u\n" + MODEL_CARDS + "\n.END\n"
)
graph = build_graph(diode, 27.0)
(op,) = solve_dc([graph], opts)
v = op.voltages[diode.nodes["d"] - 1]
print(f"diode-connected NMOS: v(d) = {v:.4f} V, id = {(1.5 - v) / 10e3 * 1e6:.2f} uA, "
      f"{op.iterations} iterations")

# The rectifier bench at zero input: the steering pair idles at threshold,
# both outputs carry only leakage-scale current.
bench = parse_netlist(bench_netlist_path().read_text())
graph = build_graph(bench, 25.0)
(op,) = solve_dc([graph], opts)
print("\nbench DC operating point (iin = 0):")
for name in ("in", "cmp", "mir", "cpy"):
    print(f"  v({name})  = {op.voltages[bench.nodes[name] - 1]:+.4f} V")
for k, src in enumerate(graph.vsources):
    print(f"  i({src.name}) = {op.branch_currents[k]:+.3e} A")
print(f"converged in {op.iterations} iterations, "
      f"KCL residual within tolerance by {-op.residual_excess:.1e} A")

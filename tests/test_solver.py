"""Solver tests: Newton behavior, homotopies, sweeps, transient accuracy."""

import math
import random
from typing import NamedTuple

import numpy as np
import pytest

from amps.netlist import DcSweepDirective, TranDirective, parse_netlist
from amps.rectifier import MODEL_CARDS
from amps.solver import (
    NonConvergenceError,
    OperatingPoint,
    SingularMatrixError,
    SolverError,
    SolverOptions,
    TransientNonConvergence,
    build_graph,
    dc_sweep,
    dc_sweep_lockstep,
    newton_solve,
    solve_dc,
    solve_lockstep,
    solve_transient,
)

OPTS = SolverOptions()

DIVIDER = """resistive divider
V1 top 0 DC 3
R1 top mid 1k
R2 mid 0 1k
.END
"""

DIODE_NMOS = (
    "diode-connected nmos with series resistor\n"
    "V1 vdd 0 DC 1.5\n"
    "R1 vdd d 10k\n"
    "M1 d d 0 0 CMOSN W=1.5u L=0.15u\n"
    + MODEL_CARDS
    + "\n.END\n"
)

# current source driving a floating resistor island: exactly singular,
# but every node has two terminal references so validation passes
SINGULAR = """floating island
Vb b 0 DC 1
Rb b 0 1k
Iin 0 n1 DC 1u
R1 n1 n2 1k
R2 n2 n1 1k
.END
"""

RC = """rc lowpass
V1 in 0 DC 1
R1 in out 1k
C1 out 0 1u
.END
"""


def graph_of(text, temp=27.0):
    return build_graph(parse_netlist(text), temp)


def node(graph, name):
    return graph.doc.nodes[name] - 1


def zero_start(graph):
    """A transient start with every unknown at zero."""
    return OperatingPoint(np.zeros(graph.n), np.zeros(graph.m), 0)


def tran_of(graph):
    """The ``.TRAN`` analysis of the graph's netlist."""
    (tran,) = [d for d in graph.doc.directives if isinstance(d, TranDirective)]
    return tran


# ---------------------------------------------------------------------------
# build_graph
# ---------------------------------------------------------------------------


def test_build_graph_single_resistor_vsource():
    g = graph_of("one r\nV1 a 0 DC 1\nR1 a 0 1k\n.END\n")
    assert g.n == 1 and g.m == 1


def test_build_graph_bench_has_nine_mosfets():
    from amps.rectifier import bench_netlist_path

    g = graph_of(bench_netlist_path().read_text(), temp=25.0)
    assert len(g.mosfets) == 9


def test_build_graph_deterministic_numbering():
    text = DIODE_NMOS
    g1 = graph_of(text)
    g2 = graph_of(text)
    assert g1.node_names == g2.node_names
    assert g1.doc.nodes == g2.doc.nodes


def test_build_graph_rejects_invalid():
    with pytest.raises(ValueError, match="validation failed"):
        graph_of("bad\nR1 a 0 1k\nR2 a 0 1k\n.END\n")  # no sources


def test_built_graph_arrays_are_read_only():
    """Every array field of a built graph, the bench's and a chain's: the
    circuit's own tables, no index derived from them."""
    import dataclasses

    from amps.rectifier import bench_netlist_path

    for g in (graph_of(bench_netlist_path().read_text(), temp=25.0), graph_of(inverter_chain())):
        arrays = {f.name: getattr(g, f.name) for f in dataclasses.fields(g)
                  if isinstance(getattr(g, f.name), np.ndarray)}
        assert set(arrays) == {"cap_c", "cap_ends", "devices", "mos_terms", "res_ends", "res_g"}
        assert [name for name, a in arrays.items() if a.flags.writeable] == []


def reference_assembly(g, x, alpha, gmin=OPTS.gmin):
    """Residual, Jacobian and tolerance scales stamped element by element, at
    companion factor ``alpha`` (0 at DC) and ``gmin``, with no capacitor
    history."""
    from amps.device import eval_mosfet, overlap_caps
    from amps.netlist import ElementKind

    n, size, nodes = g.n, g.size, g.doc.nodes
    V = np.concatenate(([0.0], x[:n]))
    fe, se = np.zeros(n + 1), np.zeros(n + 1)
    G, C = np.zeros((size, size)), np.zeros((size, size))

    def two_terminal(M, a, b, v):
        for r, c, s in ((a, a, v), (b, b, v), (a, b, -v), (b, a, -v)):
            if r and c:
                M[r - 1, c - 1] += s

    def branch(a, b, cur):
        fe[a] += cur
        fe[b] -= cur
        se[a], se[b] = max(se[a], abs(cur)), max(se[b], abs(cur))

    elements = {kind: [e for e in g.doc.elements if e.kind is kind] for kind in ElementKind}
    # the rows of the nodes a MOSFET touches, which get gmin
    gmin_rows = sorted({nodes[t] - 1 for e in elements[ElementKind.MOSFET] for t in e.nodes
                        if nodes[t]})
    for e in elements[ElementKind.RESISTOR]:
        a, b = (nodes[t] for t in e.nodes)
        two_terminal(G, a, b, 1.0 / e.value)
        branch(a, b, (1.0 / e.value) * (V[a] - V[b]))
    # the capacitors and each MOSFET's gate overlaps, in netlist order
    overlaps = iter(g.mosfets)
    for e in g.doc.elements:
        ends = [nodes[t] for t in e.nodes]
        if e.kind is ElementKind.CAPACITOR:
            caps = [(*ends, e.value)]
        elif e.kind is ElementKind.MOSFET:
            d, gt, s, b = ends
            caps = [(gt, t, c) for t, c in zip((d, s, b), overlap_caps(next(overlaps)))]
        else:
            continue
        for a, b, c in caps:
            if c > 0:
                two_terminal(C, a, b, c)
                branch(a, b, (alpha * c) * (V[a] - V[b]))
    for src in g.isources:
        branch(src.p, src.m, src.spec.value_at(0.0))
    for k, src in enumerate(g.vsources):
        branch(src.p, src.m, x[n + k])
        for node, sign in ((src.p, 1.0), (src.m, -1.0)):
            if node:
                G[node - 1, n + k] += sign
                G[n + k, node - 1] += sign
    J = G + alpha * C
    J[gmin_rows, gmin_rows] += gmin
    for params, e in zip(g.mosfets, elements[ElementKind.MOSFET]):
        d, gt, s, b = (nodes[t] for t in e.nodes)
        ev = eval_mosfet(params, V[gt] - V[s], V[d] - V[s], V[b] - V[s])
        branch(d, s, ev.id)
        gsum = ev.gm + ev.gds + ev.gmbs
        for r, c, val in ((d, d, ev.gds), (d, gt, ev.gm), (d, b, ev.gmbs), (d, s, -gsum),
                          (s, s, gsum), (s, d, -ev.gds), (s, gt, -ev.gm), (s, b, -ev.gmbs)):
            if r and c:
                J[r - 1, c - 1] += val
    fe[1:][gmin_rows] += gmin * x[gmin_rows]
    e = np.array([src.spec.value_at(0.0) for src in g.vsources])
    fb = np.array([V[src.p] - V[src.m] for src in g.vsources]) - e
    return np.concatenate((fe[1:], fb)), J, np.concatenate((se[1:], np.abs(e)))


# two capacitors on one node, whose alpha*(c1 + c2) is not alpha*c1 + alpha*c2
RC_PAIR = """rc pair
V1 in 0 DC 1
R1 in out 1k
C1 out 0 1u
C2 out in 2.2n
.END
"""


@pytest.mark.parametrize("text", ["bench", "chain", DIODE_NMOS, DIVIDER, RC_PAIR])
def test_compiled_dc_assembly_matches_element_stamping(text):
    """Bit for bit, at DC and at a 1 ns trapezoidal step's companion factor
    2/h, for one member and for each of three: near-singular DC Jacobians
    make Newton's path hinge on the last bit.  The chain's 40 MOSFETs tie
    source to bulk, so +gsum and -gmbs sum into one cell in stamp order.
    So is a copy of a batch staged at the other factor, re-staged at this
    one and at each of three gmin, as ``_ladder`` re-stages: it equals a
    batch built and staged there, shares its source's layout and leaves its
    stage."""
    import copy
    import dataclasses

    import amps.solver
    from amps.rectifier import bench_netlist_path

    named = {"bench": bench_netlist_path().read_text(), "chain": inverter_chain(1)}
    doc = parse_netlist(named.get(text, text))
    alphas = (0.0, 2 / 1e-9)
    staged = ("coef", "j_base", "cap_g", "alpha")

    def batch_at(graphs, alpha, gmin=OPTS.gmin):
        batch = amps.solver._Batch(graphs, dataclasses.replace(OPTS, gmin=gmin))
        batch._stage(alpha, gmin)
        return batch

    for alpha, other in zip(alphas, alphas[::-1]):
        for temps in ((27.0,), (25.0, 60.0, 100.0)):
            graphs = [build_graph(doc, temp) for temp in temps]
            batch = batch_at(graphs, alpha)
            x = np.random.default_rng(7).uniform(-1.5, 1.5, (len(graphs), graphs[0].size))
            src = amps.solver._source_values(graphs)
            cap_ieq = np.zeros((len(graphs), graphs[0].cap_c.size))
            xg = np.concatenate((np.zeros((len(graphs), 1)), x), axis=1)
            got = batch.assemble(xg, batch.fixed_currents(src, cap_ieq))
            for b, g in enumerate(graphs):
                for a, want in zip(got, reference_assembly(g, x[b], alpha)):
                    assert np.array_equal(a[b], want)

            source = batch_at(graphs, other)
            before = [getattr(source, name).tobytes() for name in staged]
            stage = copy.copy(source)
            for gmin in (1e-2, 1e-7, OPTS.gmin):
                stage._stage(alpha, gmin)
                built = batch_at(graphs, alpha, gmin)
                for name in staged:
                    assert getattr(stage, name).tobytes() == getattr(built, name).tobytes()
                got = stage.assemble(xg, stage.fixed_currents(src, cap_ieq))
                for b, g in enumerate(graphs):
                    for a, want in zip(got, reference_assembly(g, x[b], alpha, gmin)):
                        assert np.array_equal(a[b], want)
            assert [getattr(source, name).tobytes() for name in staged] == before
            assert all(getattr(stage, name) is getattr(source, name)
                       for name in ("at_jac", "at_sum", "at_ends"))


# ---------------------------------------------------------------------------
# newton_solve / solve_dc
# ---------------------------------------------------------------------------


def test_divider_one_iteration():
    g = graph_of(DIVIDER)
    op = newton_solve(g, None, OPTS)
    assert op.iterations == 1
    assert abs(op.voltages[node(g, "mid")] - 1.5) < 1e-12
    assert op.residual_excess <= 0.0


def test_linear_circuits_converge_in_one_iteration():
    g = graph_of("bridge\nI1 0 a DC 1m\nR1 a b 1k\nR2 b 0 2k\nR3 a 0 4k\n.END\n")
    op = newton_solve(g, None, OPTS)
    assert op.iterations == 1


def test_diode_connected_nmos_self_consistent():
    g = graph_of(DIODE_NMOS)
    (op,) = solve_dc([g], OPTS)
    v = op.voltages[node(g, "d")]
    i_resistor = (1.5 - v) / 10e3
    # independent evaluation of the documented closed form at the solved bias
    from tests.test_device import _reference_id, CMOSN

    i_device = _reference_id(CMOSN, 1.5e-6, 0.15e-6, 27.0, v, v, 0.0)
    # consistency is bounded by the solver's own KCL tolerance
    assert abs(i_resistor - i_device) <= OPTS.abstol_i + OPTS.reltol * abs(i_device)
    assert 0.7 < v < 1.5


def test_singular_matrix_reported():
    """The island's Jacobian is singular: the error names one of its nodes,
    and ``pivot`` is that node's unknown."""
    g = graph_of(SINGULAR)
    with pytest.raises(SingularMatrixError) as err:
        newton_solve(g, None, OPTS)
    pivot = err.value.pivot
    assert isinstance(pivot, int) and pivot < g.n
    named = g.node_names[pivot + 1]
    assert named in ("n1", "n2")
    assert str(err.value) == f"singular MNA matrix at node {named}"
    assert err.value.where == f"node {named}"


def test_every_solver_failure_is_a_solver_error():
    for cls in (SingularMatrixError, NonConvergenceError, TransientNonConvergence):
        assert issubclass(cls, SolverError) and issubclass(cls, RuntimeError)


def test_solve_dc_exhausts_homotopies_on_singular():
    g = graph_of(SINGULAR)
    (err,) = solve_dc([g], OPTS)
    assert isinstance(err, NonConvergenceError)
    assert [entry.split(":")[0] for entry in err.strategy_log] == ["plain", "gmin stepping"]


def test_solve_dc_succeeds_wherever_newton_does():
    for text in (DIVIDER, DIODE_NMOS):
        g = graph_of(text)
        (b,) = solve_dc([g], OPTS)
        a = newton_solve(g, None, OPTS) if text is DIVIDER else b
        assert np.allclose(a.voltages, b.voltages, atol=1e-9)


def test_nonfinite_guess_rejected():
    g = graph_of(DIVIDER)
    with pytest.raises(ValueError, match="non-finite"):
        newton_solve(g, np.array([np.nan, np.nan, 0.0]), OPTS)


@pytest.mark.parametrize("solve", [lambda g, x: newton_solve(g, x, OPTS)],
                         ids=["newton_solve"])
@pytest.mark.parametrize("length", [1, 5])
def test_wrong_length_guess_rejected(solve, length):
    g = graph_of(DIVIDER)
    with pytest.raises(ValueError, match=f"has {length} values for 3 unknowns"):
        solve(g, np.zeros(length))


def test_gmin_stepping_after_plain_newton_fails(monkeypatch):
    """Plain Newton, forced to report a failure, gives way to gmin stepping,
    whose eleven stages run in order, each from the one before, and whose
    point counts the updates of all of them.  Tight tolerances make two
    converged points agree to 1e-9 V."""
    import amps.solver

    opts = SolverOptions(reltol=1e-9, vntol=1e-12)
    g = graph_of(DIODE_NMOS)
    (unforced,) = solve_dc([g], opts)
    kernel, ladder = amps.solver._newton_batch, amps.solver._ladder
    forced = []  # the forced error

    def plain_fails(*args):
        result = kernel(*args)
        if not forced:  # the first call, the plain solve
            forced.append(NonConvergenceError("node d", 1.0))
            result[4][0] = forced[0]
        return result

    monkeypatch.setattr(amps.solver, "_newton_batch", plain_fails)
    ladders = ladder_calls(monkeypatch)
    (op,) = solve_dc([g], opts)
    ((_, stages, going, _, stepped),) = ladders
    assert len(forced) == 1 and going.tolist() == [True]  # the forced member, alone
    assert not stepped[-1]  # gmin stepping found the point
    assert len(stages) == amps.solver.GMIN_STEPS + 1
    assert stages == pytest.approx(np.geomspace(1e-2, opts.gmin, len(stages)), rel=1e-12)
    assert np.allclose(op.voltages, unforced.voltages, rtol=0.0, atol=1e-9)

    # the same stages one at a time: op counts each one's updates
    xg, total = np.zeros((1, g.size + 1)), 0
    src = amps.solver._source_values([g])
    for stage in stages:
        xg, iters, excess, *_ = ladder(amps.solver._Batch([g], opts), xg, src,
                                       np.zeros((1, g.cap_c.size)), [stage])
        total += iters[0]
    assert op.iterations == total == stepped[1][0] > iters[0]
    assert xg[0, 1:].tobytes() == np.concatenate((op.voltages, op.branch_currents)).tobytes()
    assert excess[0] == op.residual_excess


def test_kcl_residual_within_tolerance():
    g = graph_of(DIODE_NMOS)
    (op,) = solve_dc([g], OPTS)
    assert op.residual_excess <= 0.0


def inverter_chain(seed: int = 1, stages: int = 20) -> str:
    """A CMOS inverter chain with seeded widths and loads and a wire
    resistor on every second stage, as in the benchmark's ``netlist_run``."""
    rng = random.Random(seed)
    lines = ["inverter chain", "VDD vdd 0 DC 1.5", "VSS vss 0 DC -1.5", "VIN in 0 SIN(0 1.5 10meg)"]
    prev = "in"
    for k in range(1, stages + 1):
        wn = rng.uniform(1.0e-6, 3.0e-6)
        wp = wn * rng.uniform(2.0, 3.0)
        cap = rng.uniform(5e-15, 20e-15)
        out = f"s{k}"
        lines.append(f"MP{k} {out} {prev} vdd vdd CMOSP W={wp:.4g} L=0.15u")
        lines.append(f"MN{k} {out} {prev} vss vss CMOSN W={wn:.4g} L=0.15u")
        if k % 2 == 0:
            lines.append(f"RW{k} {out} w{k} {rng.uniform(500.0, 2000.0):.4g}")
            out = f"w{k}"
        lines.append(f"CL{k} {out} 0 {cap:.4g}")
        prev = out
    return "\n".join(lines) + "\n" + MODEL_CARDS + "\n.END\n"


def test_inverter_chain_dc_converges_alike_alone_and_in_a_batch(monkeypatch):
    """The chain's DC Jacobian is nearly singular (condition number about
    1e19 at the 1e-4 S gmin stage): plain Newton diverges, gmin stepping
    converges, and the result must not depend on how many circuits share
    the batched kernel, nor on a member that needs more iterations."""
    import amps.solver

    doc = parse_netlist(inverter_chain())
    graphs = [build_graph(doc, temp) for temp in (27.0, -40.0, 150.0)]
    g = graphs[0]
    with pytest.raises(NonConvergenceError):
        newton_solve(g, None, OPTS)
    built = layouts(monkeypatch)
    (op,) = solve_dc([g], OPTS)
    assert len(built) == 1  # for the plain solve and every gmin stage
    assert op.residual_excess <= 0.0 and op.iterations == 31
    solve_transient(g, TranDirective(1e-9, 1e-8), OPTS)
    assert len(built) == 3  # and for its DC start and its march, both integration phases
    alone = np.concatenate((op.voltages, op.branch_currents))

    # solve_dc of the chain as the first of three members
    kernel, updates = amps.solver._newton_batch, []  # each kernel call's updates per member

    def recorded(*args):
        result = kernel(*args)
        updates.append(result[1])
        return result

    monkeypatch.setattr(amps.solver, "_newton_batch", recorded)
    together = solve_dc(graphs, OPTS)
    _, *stages = updates  # the plain solve, then the gmin stages
    assert len(stages) == amps.solver.GMIN_STEPS + 1
    # did another member iterate longer than the chain at 27 degC?
    assert any((iters[1:] > iters[0]).any() for iters in stages)
    assert all(isinstance(other, OperatingPoint) for other in together)
    ours = together[0]
    assert np.concatenate((ours.voltages, ours.branch_currents)).tobytes() == alone.tobytes()
    assert sum(iters[0] for iters in stages) == op.iterations == ours.iterations
    assert ours.residual_excess == op.residual_excess


def test_plain_dc_solve_stops_at_an_exact_cycle(monkeypatch):
    """On the bench at 38.6 degC with IIN = -200 uA, plain Newton's iterate 68
    repeats iterate 60 bit for bit: the solve fails there, after 69
    assemblies, not at the 100-iteration cap."""
    import amps.solver
    from amps.rectifier import BenchConfig, bench_graph

    assembled = []
    assemble = amps.solver._Batch.assemble

    def counted(self, *args):
        assembled.append(args)
        return assemble(self, *args)

    monkeypatch.setattr(amps.solver._Batch, "assemble", counted)
    g = bench_graph(BenchConfig(temp=38.6)).with_source("IIN", -200e-6)
    with pytest.raises(NonConvergenceError):
        newton_solve(g, None, OPTS)
    assert len(assembled) == 69


def test_failed_member_returns_its_start_and_the_evaluation_there():
    """A member that fails, at the iteration cap or on a cycle, returns its
    start and the device evaluation there (where a transient rescue starts),
    while the member beside it converges and returns its point and the
    evaluation there."""
    import amps.solver
    from amps.rectifier import BenchConfig, bench_graph

    g = bench_graph(BenchConfig(temp=38.6))
    src = amps.solver._source_values([g, g])
    src[:, 0] = (-50e-6, -200e-6)  # IIN: converges in 8 updates; cycles from update 60 on
    start = np.zeros((2, g.size + 1))
    cap_ieq = np.zeros((2, g.cap_c.size))
    for cap, failed_at in ((20, 20), (100, 68)):
        batch = amps.solver._Batch([g, g], SolverOptions(max_newton_iters=cap))
        xs, iters, excess, dev, errors = amps.solver._newton_batch(batch, start, src, cap_ieq)
        assert list(errors) == [1] and isinstance(errors[1], NonConvergenceError)
        assert iters.tolist() == [8, failed_at] and excess[0] <= 0.0
        assert xs[1].tobytes() == start[1].tobytes()
        at_start = batch.assemble(start, batch.fixed_currents(src, cap_ieq))[3]
        assert dev[:, 1].tobytes() == at_start[:, 1].tobytes()
        at_end = batch.assemble(xs, batch.fixed_currents(src, cap_ieq))[3]
        assert dev[:, 0].tobytes() == at_end[:, 0].tobytes()


def test_spent_member_does_no_work():
    """A member that ``going`` leaves out adds nothing to its batch's
    ``work``; the other adds its assemblies and evaluations (one more than
    its updates, none given), and a ``_ladder`` call counts a
    gmin-stepping call only for the member it runs."""
    import amps.solver

    g = graph_of(DIODE_NMOS)
    batch = amps.solver._Batch([g, g], OPTS)
    start, src = np.zeros((2, g.size + 1)), amps.solver._source_values([g, g])
    cap_ieq = np.zeros((2, g.cap_c.size))
    _, iters, _, _, errors = amps.solver._newton_batch(batch, start, src, cap_ieq,
                                                       going=np.array([True, False]))
    assert not errors and iters[0] > 0
    assert batch.work.T.tolist() == [[iters[0] + 1] * 2 + [0], [0, 0, 0]]
    amps.solver._ladder(batch, start, src, cap_ieq, [1e-3], going=np.array([False, True]))
    assert batch.work[:, 0].tolist() == [iters[0] + 1] * 2 + [0]
    assert batch.work[2].tolist() == [0, 1] and batch.work[0, 1] > 0


# ---------------------------------------------------------------------------
# dc_sweep
# ---------------------------------------------------------------------------


def test_sweep_single_point_matches_solve_dc():
    g = graph_of(DIVIDER)
    sweep = dc_sweep(g, DcSweepDirective("V1", 3.0, 3.0, 1.0), OPTS)
    assert sweep.values.tolist() == [3.0]
    assert sweep.converged.tolist() == [[True]]
    (ref,) = solve_dc([g], OPTS)
    assert np.allclose(sweep.x[0, 0, : g.n], ref.voltages, atol=1e-12)


def test_sweep_reversed_same_points():
    g = graph_of(DIVIDER)
    fwd = dc_sweep(g, DcSweepDirective("V1", 0.0, 2.0, 0.5), OPTS)
    rev = dc_sweep(g, DcSweepDirective("V1", 2.0, 0.0, -0.5), OPTS)
    assert rev.values.tolist() == fwd.values.tolist()[::-1]
    assert np.allclose(fwd.x[:, 0, : g.n], rev.x[::-1, 0, : g.n], atol=1e-12)


def test_sweep_endpoint_clamped():
    g = graph_of(DIVIDER)
    values = dc_sweep(g, DcSweepDirective("V1", -200e-6, 200e-6, 2e-6), OPTS).values
    assert len(values) == 201
    assert values[0] == -200e-6 and values[-1] == 200e-6


def test_sweep_unknown_source():
    g = graph_of(DIVIDER)
    with pytest.raises(KeyError, match="VX"):
        dc_sweep(g, DcSweepDirective("VX", 0.0, 1.0, 0.1), OPTS)


def reference_sweep(graph, name, values, options):
    """A DC sweep as one independent solve per point: plain Newton from the
    last converged point (zeros before there is one), then gmin stepping from
    zeros.  A non-converged point is None."""
    import amps.solver

    curve, x_prev = [], None
    for value in values:
        held = graph.with_source(name, value)
        try:
            op = newton_solve(held, x_prev, options)
        except SolverError:
            xg, iters, excess, *_, errors = amps.solver._ladder(
                amps.solver._Batch([held], options), np.zeros((1, held.size + 1)),
                amps.solver._source_values([held]), np.zeros((1, held.cap_c.size)),
                amps.solver._gmin_stages(options.gmin))
            op = None if errors else OperatingPoint(xg[0, 1 : held.n + 1], xg[0, held.n + 1:],
                                                    int(iters[0]), float(excess[0]))
        if op is not None:
            x_prev = np.concatenate((op.voltages, op.branch_currents))
        curve.append(op)
    return curve


def test_lockstep_dc_sweeps_match_single_sweeps(monkeypatch):
    """Each member's points are the ones it gets alone, bit for bit.

    Six Newton updates and reltol 1.5e-5 make every member fall back to
    gmin stepping mid-sweep; the 25 and 50 degC members also fail their first
    points (non-converged, NaN), the 75 and 100 degC members none.
    """
    from amps.rectifier import BenchConfig, bench_graph

    fallbacks = ladder_calls(monkeypatch)
    opts = SolverOptions(max_newton_iters=6, reltol=1.5e-5)
    temps = (25.0, 50.0, 75.0, 100.0)
    graphs = [bench_graph(BenchConfig(temp=t)) for t in temps]
    directive = DcSweepDirective("IIN", -100e-6, 100e-6, 20e-6)
    values = directive.values().tolist()
    firsts = solve_dc([g.with_source("IIN", values[0]) for g in graphs], opts)
    fallbacks.clear()
    sweep = dc_sweep_lockstep(graphs, directive, opts, firsts)
    # each falling-back member's temperature and IIN, the only current source
    in_lockstep = [(call.batch.graphs[b].mosfets[0].temp, float(call.src[b, 0]))
                   for call in fallbacks for b in call.going.nonzero()[0]]
    for temp in temps:
        assert any(t == temp and v != values[0] for t, v in in_lockstep), temp

    nan = np.full(graphs[0].size, np.nan)
    for b, g in enumerate(graphs):
        alone = dc_sweep(g, directive, opts)
        assert alone.values.tolist() == values
        for k, ref in enumerate(reference_sweep(g, "IIN", values, opts)):
            got = sweep.x[k, b]
            assert got.tobytes() == alone.x[k, 0].tobytes()
            if ref is None:
                assert got.tobytes() == nan.tobytes() and not sweep.converged[k, b]
            else:
                want = np.concatenate((ref.voltages, ref.branch_currents))
                assert got.tobytes() == want.tobytes()
                assert sweep.iterations[k, b] == ref.iterations
            assert sweep.converged[k, b] == alone.converged[k, 0]
            assert sweep.iterations[k, b] == alone.iterations[k, 0]
    assert (~sweep.converged).any(axis=0).tolist() == [True, True, False, False]


# ---------------------------------------------------------------------------
# transient
# ---------------------------------------------------------------------------


def rc_error(h):
    g = graph_of(RC)
    (ws,) = solve_lockstep([g], [TranDirective(h, 5e-3)], OPTS, [zero_start(g)], voltages=True)
    w = ws.get("v(out)")
    exact = 1.0 - np.exp(-w.times / 1e-3)
    return float(np.max(np.abs(w.values - exact)))


def test_rc_step_response_accuracy():
    assert rc_error(1e-6) < 1e-3  # 0.1% of the 1 V final value


def test_rc_trapezoidal_convergence_order():
    e1, e2 = rc_error(1e-6), rc_error(2e-6)
    order = math.log2(e2 / e1)
    assert 1.7 <= order <= 2.3


def test_constant_sources_hold_dc_point():
    g = graph_of(RC)
    (op,) = solve_dc([g], OPTS)
    ws = solve_transient(g, TranDirective(tstep=1e-5, tstop=1e-3), OPTS)
    for j, name in enumerate(g.node_names[1:]):
        w = ws.get(f"v({name})")
        assert np.max(np.abs(w.values - op.voltages[j])) < 1e-9


def test_transient_stats_report_kcl():
    g = graph_of(RC)
    ws = solve_transient(g, TranDirective(tstep=1e-5, tstop=1e-3), OPTS)
    assert ws.stats["max_kcl_excess"] <= 0.0
    assert ws.stats["steps"] == 100
    # held at its DC point, every step converges on its first assembly
    assert ws.stats["assemblies"] == ws.stats["steps"]
    assert ws.stats["rescues"] == 0


def test_transient_records_all_nodes_and_branches():
    g = graph_of(RC)
    ws = solve_transient(g, TranDirective(tstep=1e-5, tstop=1e-3), OPTS)
    assert sorted(ws.names()) == ["i(V1)", "v(in)", "v(out)"]
    assert ws.units["i(V1)"] == "A"


def test_transient_options_validated():
    with pytest.raises(ValueError, match="10\\*tstep"):
        TranDirective(tstep=1e-3, tstop=5e-3)


@pytest.mark.parametrize(
    "field,value",
    [("reltol", math.nan), ("abstol_i", math.nan), ("vntol", math.inf), ("gmin", -1e-12),
     ("reltol", 0.0), ("max_newton_iters", -1), ("max_newton_iters", 2.5)],
)
def test_solver_options_reject_what_the_solver_cannot_run(field, value):
    with pytest.raises(ValueError, match=field):
        SolverOptions(**{field: value})


def test_periodic_steady_state_on_bench():
    from amps.rectifier import BenchConfig, build_bench_netlist

    cfg = BenchConfig(periods=8, steps_per_period=200)
    g = graph_of(build_bench_netlist(cfg), temp=25.0)
    ws = solve_transient(g, tran_of(g), OPTS)
    out = ws.get("i(VOUTP)")
    spp = cfg.steps_per_period
    second = out.values[4 * spp : 5 * spp]
    last = out.values[7 * spp : 8 * spp]
    scale = np.sqrt(np.mean(second**2))
    assert np.sqrt(np.mean((second - last) ** 2)) < 0.01 * scale


def test_transient_nonconvergence_carries_time_and_cause():
    g = graph_of(SINGULAR)
    (err,) = solve_lockstep([g], [TranDirective(1e-6, 1e-4)], OPTS, [zero_start(g)], voltages=True)
    assert isinstance(err, TransientNonConvergence)
    assert err.time == pytest.approx(1e-6)
    assert isinstance(err.__cause__, SingularMatrixError)  # the step's own failure


def test_every_transient_record_shares_one_increasing_time_base_of_finite_values():
    """What a ``WaveformSet`` from ``solve_lockstep`` guarantees, so that
    ``Waveform`` and ``write_csv`` need not check it: every waveform is on
    the first one's times, which strictly increase, with one finite value
    per time.  Checked on a transient, a lockstep of members with their own
    steps and a member rescued beside one that aborts."""
    from amps.rectifier import BenchConfig, run_bench

    records = [solve_transient(graph_of(RC), TranDirective(1e-5, 1e-3), OPTS)]
    records += run_bench([BenchConfig(frequency=f, periods=3, steps_per_period=spp)
                          for f, spp in ((1e3, 100), (1e6, 200), (1e8, 150))])
    cfgs = [BenchConfig(frequency=f, periods=3, steps_per_period=100) for f in (3e7, 1e7, 1e8)]
    _, _, rescued = run_bench(cfgs, SolverOptions(max_newton_iters=6))
    assert rescued.stats["rescues"] > 0
    records.append(rescued)
    for ws in records:
        times = ws.waveforms[0].times
        assert np.all(np.diff(times) > 0)
        for w in ws.waveforms:
            assert np.array_equal(w.times, times)
            assert len(w.values) == len(times)
            assert np.all(np.isfinite(w.values))


def test_zero_start_reports_a_finite_kcl_excess():
    """A start the caller builds checked no residual, so the transient's
    largest KCL excess is its steps' alone: finite and within tolerance."""
    g = graph_of(RC)
    (ws,) = solve_lockstep([g], [TranDirective(1e-5, 1e-3)], OPTS, [zero_start(g)],
                           voltages=True)
    assert math.isfinite(ws.stats["max_kcl_excess"]) and ws.stats["max_kcl_excess"] <= 0.0


def test_rescued_transient_leaves_graph_unchanged(monkeypatch):
    from amps.rectifier import BenchConfig, build_bench_netlist

    calls = ladder_calls(monkeypatch)
    cfg = BenchConfig(frequency=1e8, periods=3, steps_per_period=100)
    g = graph_of(build_bench_netlist(cfg), temp=cfg.temp)
    opts = SolverOptions(max_newton_iters=6)
    trans = tran_of(g)
    (before,) = solve_dc([g], opts)
    first = solve_transient(g, trans, opts)
    # a transient step's rescue; DC gmin stepping runs at alpha = 0
    rescues = [call for call in calls if np.any(call.batch.alpha)]
    assert rescues, "the transient should need gmin-stepping rescues"
    assert first.stats["rescues"] == len(rescues)
    second = solve_transient(g, trans, opts)
    (after,) = solve_dc([g], opts)
    for a, b in zip(first.waveforms, second.waveforms):
        assert np.array_equal(a.values, b.values)
    assert first.stats == second.stats
    assert np.array_equal(before.voltages, after.voltages)
    assert np.array_equal(before.branch_currents, after.branch_currents)


def test_sinusoid_source_waveform_recorded():
    text = (
        "sine into rc\nI1 0 a SIN(0 1m 1k)\nR1 a 0 1k\nC1 a 0 1n\n.END\n"
    )
    g = graph_of(text)
    ws = solve_transient(g, TranDirective(tstep=1e-5, tstop=2e-3), OPTS)
    w = ws.get("i(I1)")
    expected = 1e-3 * np.sin(2 * np.pi * 1e3 * w.times)
    assert np.allclose(w.values, expected, atol=1e-12)


# ---------------------------------------------------------------------------
# The device evaluation each solve takes from the point it starts at
# ---------------------------------------------------------------------------


def kernel_counted(monkeypatch, carry: bool) -> list[int]:
    """Patch the Newton kernel to pass on (or drop) the evaluation it is
    given; the returned list collects each call's device evaluations, as
    the call adds them to its batch's ``work``."""
    import amps.solver

    kernel, counted = amps.solver._newton_batch, []

    def wrapper(batch, xg, src, cap_ieq, dev=None, going=None):
        before = int(batch.work[1].sum())
        result = kernel(batch, xg, src, cap_ieq, dev if carry else None, going)
        counted.append(int(batch.work[1].sum()) - before)
        return result

    monkeypatch.setattr(amps.solver, "_newton_batch", wrapper)
    return counted


def layouts(monkeypatch) -> list[object]:
    """Patch ``_Batch.__init__`` to record each batch it lays out.  An
    integration phase or a gmin stage re-stages a batch and lays out none."""
    import amps.solver

    init, built = amps.solver._Batch.__init__, []

    def counted(self, graphs, options):
        built.append(self)
        init(self, graphs, options)

    monkeypatch.setattr(amps.solver._Batch, "__init__", counted)
    return built


class LadderCall(NamedTuple):
    batch: object  # the ``_Batch`` whose stages the call runs
    stages: list
    going: np.ndarray
    src: np.ndarray
    result: tuple


def ladder_calls(monkeypatch) -> list[LadderCall]:
    """Patch the gmin ladder to record each call; a transient step's rescue
    is a call with ``np.any(call.batch.alpha)``, DC gmin stepping runs at 0."""
    import amps.solver

    ladder, calls = amps.solver._ladder, []

    def wrapper(batch, xg, src, cap_ieq, stages, dev=None, going=None):
        result = ladder(batch, xg, src, cap_ieq, stages, dev, going)
        calls.append(LadderCall(batch, stages, going, src, result))
        return result

    monkeypatch.setattr(amps.solver, "_ladder", wrapper)
    return calls


def test_dc_points_of_one_topology_share_each_newton_solve(monkeypatch):
    """The bench held at IIN = -200 uA fails plain Newton at each of five
    temperatures and needs gmin stepping: one ``solve_dc`` call makes one
    plain solve and one per gmin stage for all five (12 kernel calls, where
    one call per graph makes 60), and each member's point is its one-graph
    call's bit for bit."""
    import amps.solver
    from amps.rectifier import BenchConfig, bench_graph

    graphs = [bench_graph(BenchConfig(temp=t)).with_source("IIN", -200e-6)
              for t in (25.0, 38.6, 55.7, 71.7, 82.1)]
    counts = kernel_counted(monkeypatch, carry=True)
    together = solve_dc(graphs, OPTS)
    assert len(counts) == 1 + amps.solver.GMIN_STEPS + 1 == 12
    counts.clear()
    alone = [op for g in graphs for op in solve_dc([g], OPTS)]
    assert len(counts) == 5 * 12
    for got, want in zip(together, alone, strict=True):
        assert got.voltages.tobytes() == want.voltages.tobytes()
        assert got.branch_currents.tobytes() == want.branch_currents.tobytes()
        assert (got.iterations, got.residual_excess) == (want.iterations, want.residual_excess)
        assert want.iterations > 0 and want.residual_excess <= 0.0


def test_carried_evaluation_changes_no_rescued_or_aborted_transient(monkeypatch):
    """Carrying each point's device evaluation to the solve that starts
    there changes no bit: the three-member bench whose 100 MHz member needs
    rescues and whose 10 MHz member aborts gives the same waveforms, times
    and stats as with every evaluation dropped, but fewer evaluations."""
    import amps.solver
    from amps.rectifier import BenchConfig, run_bench

    opts = SolverOptions(max_newton_iters=6)
    cfgs = [BenchConfig(frequency=f, periods=3, steps_per_period=100) for f in (3e7, 1e7, 1e8)]
    kernel_counted(monkeypatch, carry=True)
    got = run_bench(cfgs, opts)
    monkeypatch.undo()
    kernel_counted(monkeypatch, carry=False)
    dropped = run_bench(cfgs, opts)
    rescued = got[2].stats
    assert rescued["rescues"] > 0
    assert isinstance(got[1], amps.solver.TransientNonConvergence)
    # every step after the first and every rescue stage took its start's
    skipped = rescued["steps"] - 1 + (amps.solver.GMIN_STEPS + 1) * rescued["rescues"]
    assert rescued["evaluations"] == rescued["assemblies"] - skipped
    for a, b in zip(got, dropped):
        if isinstance(b, amps.solver.TransientNonConvergence):
            assert isinstance(a, amps.solver.TransientNonConvergence) and a.time == b.time
            assert str(a) == str(b)
            continue
        assert a.stats["evaluations"] < b.stats["evaluations"] == b.stats["assemblies"]
        assert {**a.stats, "evaluations": 0} == {**b.stats, "evaluations": 0}
        for wa, wb in zip(a.waveforms, b.waveforms, strict=True):
            assert wa.values.tobytes() == wb.values.tobytes()


def test_carried_evaluation_changes_no_lockstep_sweep(monkeypatch):
    """The same for the 4-temperature sweep whose members fall back to gmin
    stepping: every field of the record is the same bits, and the carry
    saves device evaluations."""
    from amps.rectifier import BenchConfig, bench_graph

    fallbacks = []
    opts = SolverOptions(max_newton_iters=6, reltol=1.5e-5)
    graphs = [bench_graph(BenchConfig(temp=t)) for t in (25.0, 50.0, 75.0, 100.0)]
    directive = DcSweepDirective("IIN", -100e-6, 100e-6, 20e-6)
    first = directive.start

    def sweep(carry: bool):
        counts = kernel_counted(monkeypatch, carry)
        starts = solve_dc([g.with_source("IIN", first) for g in graphs], opts)
        calls = ladder_calls(monkeypatch)  # the sweep's fallbacks only
        record = dc_sweep_lockstep(graphs, directive, opts, starts)
        monkeypatch.undo()
        fallbacks.extend(call.batch.graphs[b].mosfets[0].temp
                         for call in calls for b in call.going.nonzero()[0])
        return record, sum(counts)

    (got, evaluations), (dropped, dropped_evaluations) = sweep(True), sweep(False)
    assert set(fallbacks) == {25.0, 50.0, 75.0, 100.0}
    for field in ("x", "converged", "iterations", "residual_excess"):
        assert getattr(got, field).tobytes() == getattr(dropped, field).tobytes(), field
    assert evaluations < dropped_evaluations


# ---------------------------------------------------------------------------
# Lockstep arguments
# ---------------------------------------------------------------------------

# two circuits with the divider's unknowns, sources and branch counts, wired
# apart: a resistor from mid either to top or to ground
PARALLEL_TOP = "parallel\nV1 top 0 DC 3\nR1 top mid 1k\nR2 top mid 1k\nR3 mid 0 1k\n.END\n"
PARALLEL_LOW = PARALLEL_TOP.replace("R2 top mid", "R2 mid 0")


def no_newton(*args):
    raise AssertionError("a Newton solve ran")


# a MOSFET whose bulk is tied to its gate or to its drain: only the terminal table
# differs (the divider turned round at V1 differs only in its source's terminals)
BULK_GATE = ("bulk\nV1 a 0 DC 1\nR1 a c 1k\nM1 c a 0 a NX W=1u L=1u\n"
             ".MODEL NX NMOS VTO=0.7 KP=1e-4\n.END\n")
BULK_DRAIN = BULK_GATE.replace("M1 c a 0 a", "M1 c a 0 c")


@pytest.mark.parametrize(("first", "other"),
                         [(DIVIDER, RC), (PARALLEL_TOP, PARALLEL_LOW), (BULK_GATE, BULK_DRAIN),
                          (DIVIDER, DIVIDER.replace("V1 top 0", "V1 0 top"))],
                         ids=["counts", "tables", "terminals", "sources"])
def test_lockstep_members_must_share_one_topology(monkeypatch, first, other):
    import amps.solver

    graphs = [graph_of(first), graph_of(other)]
    assert [g.size for g in graphs] == [3, 3]
    starts = [op for g in graphs for op in solve_dc([g], OPTS)]
    monkeypatch.setattr(amps.solver, "_newton_batch", no_newton)
    with pytest.raises(ValueError, match="share one topology"):
        solve_dc(graphs, OPTS)
    trans = [TranDirective(tstep=1e-6, tstop=1e-5)] * 2
    with pytest.raises(ValueError, match="share one topology"):
        solve_lockstep(graphs, trans, OPTS, starts)
    with pytest.raises(ValueError, match="share one topology"):
        dc_sweep_lockstep(graphs, DcSweepDirective("V1", 0.0, 1.0, 1.0), OPTS, starts)


def test_lockstep_arguments_need_one_entry_per_member(monkeypatch):
    import amps.solver

    g = graph_of(DIVIDER)
    (start,), tran = solve_dc([g], OPTS), TranDirective(tstep=1e-6, tstop=1e-5)
    monkeypatch.setattr(amps.solver, "_newton_batch", no_newton)
    for graphs, trans, starts in (([g, g], [tran], [start, start]),
                                  ([g], [tran], [start, start]), ([], [tran], [])):
        with pytest.raises(ValueError, match="one TranDirective and one start per graph"):
            solve_lockstep(graphs, trans, OPTS, starts)
    sweep = DcSweepDirective("V1", 0.0, 1.0, 1.0)
    for graphs, starts in (([g, g], [start]), ([g], [start, start]), ([], [])):
        with pytest.raises(ValueError, match="one first point per graph"):
            dc_sweep_lockstep(graphs, sweep, OPTS, starts)
    assert solve_lockstep([], [], OPTS, []) == [] == solve_dc([], OPTS)


def test_lockstep_with_voltages_gives_each_member_its_solve_transient():
    """With ``voltages`` each member records what ``solve_transient`` records
    alone, bit for bit; without, the same branch currents and no node
    voltages."""
    from amps.rectifier import BenchConfig, bench_graph

    cfgs = [BenchConfig(frequency=1e3, periods=3, steps_per_period=40),
            BenchConfig(frequency=1e7, temp=60.0, periods=2, steps_per_period=75)]
    graphs = [bench_graph(cfg) for cfg in cfgs]
    trans = [tran_of(g) for g in graphs]
    starts = solve_dc(graphs, OPTS)
    together = solve_lockstep(graphs, trans, OPTS, starts, voltages=True)
    currents = solve_lockstep(graphs, trans, OPTS, starts)
    for g, tran, got, branches in zip(graphs, trans, together, currents, strict=True):
        alone = solve_transient(g, tran, OPTS)
        assert got.stats == alone.stats == branches.stats
        assert got.names() == alone.names()
        assert got.units == alone.units
        assert len(got.waveforms) == g.size + len(g.isources)
        for a, b in zip(got.waveforms, alone.waveforms, strict=True):
            assert a.times.tobytes() == b.times.tobytes()
            assert a.values.tobytes() == b.values.tobytes()
        assert branches.names() == [name for name in got.names() if name.startswith("i(")]
        for w in branches.waveforms:
            assert w.values.tobytes() == got.get(w.name).values.tobytes()

"""Modified nodal analysis: DC operating points, DC sweeps, transient runs.

Unknowns are the non-ground node voltages followed by the branch currents of
the voltage sources.  ``build_graph`` compiles a netlist once, at one
temperature, into immutable MNA tables (Ho, Ruehli & Brennan, IEEE TCAS
1975): the gmin rows (nodes a MOSFET touches), one table of currents (the
branches, each voltage source's equation, the gmin loads) whose ordered sums
give every row's residual and tolerance scale, and the MOSFET terminals.  A
solve context (``_Batch``) derives every index into F and J from these
tables (the scatter of device conductances into J from the MOSFET
terminals) and fixes, for each of its circuits, gmin and the companion
factor alpha (0 for DC, 1/h backward Euler, 2/h trapezoidal) once: the
Jacobian's linear part is stamped from the same current columns whose sums
give F, and the source values and the capacitor history currents are
arguments of each Newton solve.

Nonlinear solves are damped Newton-Raphson over dense LU; the members whose
solve fails (a DC point, sweep point or transient step) fall back to gmin
stepping together, one ``_ladder`` call on the solve's own ``_Batch``, whose
alpha each stage keeps (from zeros at DC).  Transient integration is
fixed-step trapezoidal with a backward-Euler first step.  Every Newton
solve, of one circuit or of several that share one topology, runs on one
batched kernel (``_newton_batch``): each iteration is one assembly and one
LU solve for every circuit of the batch, spent ones too.  Each assembly
evaluates the devices, except a solve's first when it is given the
evaluation at its start: a solve returns the evaluation at the point it
returns, which is where the next time step, sweep point or gmin stage
starts.  So circuits that share one topology (``_Batch`` checks it) can be
solved in lockstep, each with the results it gets alone: DC operating
points (``solve_dc``), and from each one's own start (``_start_rows``)
transients (``solve_lockstep``, each with its own ``TranDirective``;
``solve_transient`` is its one-member form from the DC point, with
``voltages``), which take each time step together, and the ``.DC`` sweeps of
one ``DcSweepDirective`` (``dc_sweep_lockstep``; ``dc_sweep`` is its
one-member form), which take each sweep value together.
A transient whose start or step fails, or that is done, stays in its batch
as a spent row, so a lockstep builds one ``_Batch`` per integration phase,
and each finished member's ``WaveformSet`` once, after the march.

A solve that finds no point raises (a member of a batched solve returns) a
``SolverError``: ``NonConvergenceError`` names the unknown (node or source
branch) of the worst residual, ``SingularMatrixError`` the one that a singular
Jacobian's null vector weighs most, ``TransientNonConvergence`` the time.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from .analysis import Waveform, WaveformSet
from .device import (  # noqa: F401  eval_mosfet: the benchmark tracer wraps it here
    MosfetParams,
    derive_params,
    device_table,
    eval_mosfet,
    eval_mosfet_into,
    overlap_caps,
)
from .netlist import (
    DcSpec,
    DcSweepDirective,
    ElementKind,
    NetlistDocument,
    SourceSpec,
    TranDirective,
    validate,
)


class SolverError(RuntimeError):
    """A solve that found no point; the base of every solver failure."""


class SingularMatrixError(SolverError):
    def __init__(self, where: str, pivot: int):
        self.where = where
        self.pivot = pivot  # the index of the unknown ``where`` names
        super().__init__(f"singular MNA matrix at {where}")


class NonConvergenceError(SolverError):
    def __init__(self, where: str | None, residual: float, strategy_log: list[str] | None = None):
        self.where = where
        self.residual = residual
        self.strategy_log = strategy_log or []
        msg = f"Newton did not converge (worst residual {residual:.3e} at {where})"
        if strategy_log:  # every DC strategy failed (``where`` None): the log says where each did
            msg = "no DC operating point; tried: " + " | ".join(strategy_log)
        super().__init__(msg)


class TransientNonConvergence(SolverError):
    """A transient step that failed even after a gmin-stepping rescue, at ``time``."""

    def __init__(self, time: float, cause: Exception):
        self.time = time
        super().__init__(f"transient aborted at t={time:.6e}s: {cause}")
        self.__cause__ = cause


GMIN_STEPS = 10  # gmin stepping: decades from 1e-2 S down to gmin
VSTEP_CLAMP = 0.3  # V, per-update damping on nonlinear-device nodes
CYCLE_FROM = 8  # Newton iteration from which an iterate that repeats an earlier one fails


@dataclass(frozen=True)
class SolverOptions:
    reltol: float = 1e-3
    abstol_i: float = 1e-12  # A
    vntol: float = 1e-6  # V
    gmin: float = 1e-12  # S
    max_newton_iters: int = 100

    def __post_init__(self):
        for name in ("reltol", "abstol_i", "vntol", "gmin"):
            if not 0 < getattr(self, name) < math.inf:  # NaN fails too
                raise ValueError(f"{name} must be positive and finite")
        if not isinstance(self.max_newton_iters, int) or self.max_newton_iters < 0:
            raise ValueError("max_newton_iters must be an integer >= 0")


@dataclass
class OperatingPoint:
    """The node voltages and voltage-source branch currents a DC solve converged
    to, or a transient start that a caller builds (all zeros, say)."""

    voltages: np.ndarray  # length n
    branch_currents: np.ndarray  # length m
    iterations: int
    # max KCL residual minus its tolerance; -inf for a start that no solve checked
    residual_excess: float = float("-inf")


@dataclass(frozen=True)
class _Source:
    name: str
    p: int
    m: int
    spec: SourceSpec


# The Jacobian entries of one MOSFET, one per column: row terminal, column
# terminal, value, sign; terminals d=0, g=1, s=2, b=3, values id=0, gm=1,
# gds=2, gmbs=3, gsum=gm+gds+gmbs=4.  The drain row gets +d(id), the source
# row -d(id) in s, d, g, b order: a source tied to its bulk sums +gsum, -gmbs.
_MOS_STAMP = np.array((
    (0, 0, 2, 1), (0, 1, 1, 1), (0, 3, 3, 1), (0, 2, 4, -1),
    (2, 2, 4, 1), (2, 0, 2, -1), (2, 1, 1, -1), (2, 3, 3, -1),
)).T
_MOS_STAMP.flags.writeable = False


@dataclass(frozen=True, eq=False)
class CircuitGraph:
    """A netlist compiled at one temperature into MNA tables (built by ``build_graph``).

    Node numbering is dense and deterministic (order of first appearance);
    ground is index 0 and never gets a matrix row.  Every array is
    read-only.
    """

    doc: NetlistDocument
    node_names: tuple[str, ...]
    n: int  # node unknowns
    m: int  # voltage-source branch unknowns
    size: int
    vsources: tuple[_Source, ...]
    isources: tuple[_Source, ...]
    mosfets: tuple[MosfetParams, ...]
    gmin_rows: np.ndarray
    res_g: np.ndarray
    cap_c: np.ndarray
    # The Newton kernel's current columns.  Each is a factor
    # (``_Batch.coef``) times the difference of two entries of the
    # unknowns after a ground column, plus a term fixed for the solve
    # (``_Batch.fixed_currents``): a zero current; the branch table's
    # currents in its order, the resistors, the capacitors (companion
    # history), the current sources, the voltage sources (their unknowns) and
    # the MOSFET channels (their id); the gmin loads; and for each voltage
    # source its equation's residual V(p) - V(m) - e and its value e.  Their
    # factors also stamp the Jacobian's linear part (``_Batch.j_base``).
    col_a: np.ndarray
    col_b: np.ndarray
    # The residual of each row sums its entries (column, sign, row) in list
    # order, row ``size`` being discarded: a node adds its zero, then its
    # branch ends in table order, then its gmin current.  Segments of the
    # list starting at ``sum_starts`` give the tolerance scales (largest
    # magnitude): a node's zero and branch ends, a source's value.
    sum_col: np.ndarray
    sum_sign: np.ndarray
    sum_row: np.ndarray
    sum_starts: np.ndarray
    mos_terms: np.ndarray  # (4, MOSFETs): d, g, s, b node indices; J's scatter derives from it
    devices: np.ndarray  # (10, MOSFETs): ``device_table`` of ``mosfets``

    def find_source(self, name: str) -> _Source:
        name = name.upper()
        for src in self.vsources + self.isources:
            if src.name == name:
                return src
        raise KeyError(f"no source named {name}")

    def with_source(self, name: str, value: float) -> CircuitGraph:
        """The same circuit with one source held at a DC value; shares every table."""
        src = self.find_source(name)
        held = replace(src, spec=DcSpec(value))

        def swap(group):
            return tuple(held if s is src else s for s in group)

        return replace(self, vsources=swap(self.vsources), isources=swap(self.isources))


def _readonly(a) -> np.ndarray:
    a = np.asarray(a)
    a.flags.writeable = False
    return a


def build_graph(doc: NetlistDocument, temp: float) -> CircuitGraph:
    """Validate a netlist and compile it at one temperature."""
    errors = [d for d in validate(doc) if d.severity == "error"]
    if errors:
        lines = "; ".join(f"{d.message} [{d.location}]" for d in errors)
        raise ValueError(f"netlist validation failed: {lines}")
    node_names = [""] * len(doc.nodes)
    for name, idx in doc.nodes.items():
        node_names[idx] = name
    n = len(doc.nodes) - 1
    vsources: list[_Source] = []
    isources: list[_Source] = []
    mosfets: list[MosfetParams] = []
    terms: list[tuple[int, int, int, int]] = []  # d, g, s, b of each MOSFET
    res: list[tuple[int, int, float]] = []
    caps: list[tuple[int, int, float]] = []
    nod = doc.nodes
    for e in doc.elements:
        if e.kind is ElementKind.RESISTOR:
            res.append((nod[e.nodes[0]], nod[e.nodes[1]], 1.0 / e.value))
        elif e.kind is ElementKind.CAPACITOR:
            if e.value > 0:
                caps.append((nod[e.nodes[0]], nod[e.nodes[1]], e.value))
        elif e.kind in (ElementKind.VSOURCE, ElementKind.ISOURCE):
            group = vsources if e.kind is ElementKind.VSOURCE else isources
            group.append(_Source(e.name, nod[e.nodes[0]], nod[e.nodes[1]], e.source))
        else:
            params = derive_params(doc.models[e.model], e.w, e.l, temp)
            d, g, s, b = (nod[x] for x in e.nodes)
            mosfets.append(params)
            terms.append((d, g, s, b))
            cgd, cgs, cgb = overlap_caps(params)
            for (na, nb, c) in ((g, d, cgd), (g, s, cgs), (g, b, cgb)):
                if c > 0:
                    caps.append((na, nb, c))
    size = n + len(vsources)

    # the table of two-terminal branches, current flowing from node a to node
    # b: resistors, capacitors, current sources, voltage sources, MOSFET
    # channels (drain to source)
    ends = (
        [(a, b) for a, b, _ in res + caps]
        + [(src.p, src.m) for src in isources + vsources]
        + [(d, s) for d, _, s, _ in terms]
    )
    m = len(vsources)
    gmin_rows = sorted({t - 1 for term in terms for t in term if t})
    # branch j of the table is column 1 + j; a voltage source's column is its current
    columns = (
        [(0, 0)] + [(a, b) for a, b, _ in res + caps] + [(src.p, src.m) for src in isources]
        + [(n + 1 + k, 0) for k in range(m)] + [(d, s) for d, _, s, _ in terms]
        + [(row + 1, 0) for row in gmin_rows] + [(src.p, src.m) for src in vsources]
        + [(0, 0)] * m
    )
    gmin_col = 1 + len(ends)
    residual = gmin_col + len(gmin_rows)  # the first source equation's column
    node_ends: list[list[tuple[int, float]]] = [[(0, 1.0)] for _ in range(n + 1)]
    for j, (a, b) in enumerate(ends, start=1):
        node_ends[a].append((j, 1.0))
        node_ends[b].append((j, -1.0))
    sums = [(residual + k, 1.0, n + k) for k in range(m)]  # outside every segment
    starts = []
    for node in range(1, n + 1):
        starts.append(len(sums))
        sums += [(j, sign, node - 1) for j, sign in node_ends[node]]
    for k in range(m):
        starts.append(len(sums))
        sums.append((residual + m + k, 1.0, size))
    if gmin_rows:
        starts.append(len(sums))  # a last segment, of no row
        sums += [(gmin_col + q, 1.0, row) for q, row in enumerate(gmin_rows)]

    terms = np.array(terms, dtype=int).reshape(-1, 4)
    return CircuitGraph(
        doc=doc,
        node_names=tuple(node_names),
        n=n,
        m=len(vsources),
        size=size,
        vsources=tuple(vsources),
        isources=tuple(isources),
        mosfets=tuple(mosfets),
        gmin_rows=_readonly(np.array(gmin_rows, dtype=int)),
        res_g=_readonly([g for _, _, g in res]),
        cap_c=_readonly([c for _, _, c in caps]),
        col_a=_readonly(np.array([a for a, _ in columns], dtype=int)),
        col_b=_readonly(np.array([b for _, b in columns], dtype=int)),
        sum_col=_readonly(np.array([c for c, _, _ in sums], dtype=int)),
        sum_sign=_readonly([sign for _, sign, _ in sums]),
        sum_row=_readonly(np.array([r for _, _, r in sums], dtype=int)),
        sum_starts=_readonly(np.array(starts, dtype=int)),
        mos_terms=_readonly(terms.T),
        devices=_readonly(device_table(mosfets)),
    )


# ---------------------------------------------------------------------------
# Assembly and the Newton core
# ---------------------------------------------------------------------------


def _unknown(g: CircuitGraph, k: int) -> str:
    """The name of unknown ``k``: its node, or its voltage source's branch."""
    return f"node {g.node_names[k + 1]}" if k < g.n else f"source {g.vsources[k - g.n].name}"


def unknown_columns(g: CircuitGraph) -> list[tuple[str, str]]:
    """Each unknown's output column name and unit: ``v(node)`` in V, then ``i(source)`` in A."""
    return ([(f"v({name})", "V") for name in g.node_names[1:]]
            + [(f"i({s.name})", "A") for s in g.vsources])


def _failure(g: CircuitGraph, F: np.ndarray, J: np.ndarray, over: np.ndarray) -> SolverError:
    """The error of a Newton solve that failed at the assembly (F, J), with
    each row's residual ``over`` its tolerance.  A singular J names the
    unknown that its null vector weighs most (the last right singular
    vector); a non-convergent solve, its worst row."""
    if not (np.isfinite(F).all() and np.isfinite(J).all()):
        return NonConvergenceError("non-finite assembly", float("inf"))
    try:
        np.linalg.solve(J, F)
    except np.linalg.LinAlgError:
        k = int(np.argmax(np.abs(np.linalg.svd(J)[2][-1])))
        return SingularMatrixError(_unknown(g, k), k)
    idx = int(np.argmax(over))
    return NonConvergenceError(_unknown(g, idx), float(over[idx]))


def _same_topology(a: CircuitGraph, b: CircuitGraph) -> bool:
    tables = ("col_a", "col_b", "sum_col", "sum_sign", "sum_row", "gmin_rows", "mos_terms")
    return (
        (a.n, a.size, a.res_g.size, a.cap_c.size, len(a.isources))
        == (b.n, b.size, b.res_g.size, b.cap_c.size, len(b.isources))
        and all(np.array_equal(getattr(a, name), getattr(b, name)) for name in tables)
    )


class _Batch:
    """Solve contexts of circuits that share one topology, stacked for
    batched Newton solves.

    Each member is a graph with gmin (the options' unless given) and a
    companion factor ``alpha`` (one, or one per member) fixed: its column
    factors ``coef``, Jacobian base ``j_base`` (the linear part, stamped from
    the current columns: resistors and source incidence, alpha times the
    capacitances, gmin on the gmin rows) and device constants ``devices``
    are stacked along the member axis.  It keeps its ``graphs``,
    options ``opt``, each member's ``alpha`` and capacitor companion
    conductances ``cap_g`` (alpha times each capacitance): the integration
    phase that ``_ladder`` keeps at each gmin stage and from which a
    transient step takes its history currents.  The members are fixed:
    gathers, row sums and the Jacobian scatter use index tables offset per
    member, built once, so each member's sums keep their element order and
    its values are the ones it gets alone, whatever the batch size.  Each
    index table derives from graph tables (the Jacobian scatter from
    ``mos_terms`` and ``_MOS_STAMP``).  Members whose topologies differ
    raise ValueError.
    """

    __slots__ = ("graphs", "g", "opt", "alpha", "cap_g", "groups", "coef", "j_base", "devices",
                 "tol", "clamp", "neg_clamp", "at_terms", "at_ends", "at_sum", "at_row", "at_jac",
                 "at_value", "jac_sign")

    def __init__(self, graphs: Sequence[CircuitGraph], options: SolverOptions, *,
                 gmin: float | None = None, alpha: float | Sequence[float] = 0.0):
        g = self.g = graphs[0]
        if not all(_same_topology(g, gr) for gr in graphs[1:]):
            raise ValueError("lockstep members must share one topology")
        self.graphs, self.opt = graphs, options
        gmin = options.gmin if gmin is None else gmin
        rows = len(graphs)
        alphas = self.alpha = np.broadcast_to(alpha, rows)
        # the groups of current columns, in ``build_graph``'s order: the zero,
        # resistors, capacitors, current sources, voltage-source currents,
        # MOSFET channels, gmin loads, source equations and source values
        ends = np.cumsum((0, 1, g.res_g.size, g.cap_c.size, len(g.isources), g.m,
                          len(g.mosfets), g.gmin_rows.size, g.m, g.m)).tolist()
        self.groups = [slice(a, b) for a, b in zip(ends, ends[1:])]
        res_g = np.array([gr.res_g for gr in graphs])
        cap_c = np.array([gr.cap_c for gr in graphs])
        self.cap_g = alphas[:, None] * cap_c
        self.coef = self.columns(rows, None, res_g, self.cap_g, None, 1.0, None, gmin, 1.0, None)
        self.devices = tuple(np.stack([gr.devices for gr in graphs], axis=1))
        self.tol = np.concatenate((np.full(g.n, options.abstol_i), np.full(g.m, options.vntol)))
        self.clamp = np.full(g.size, np.inf)  # update damping on nonlinear-device nodes
        self.clamp[g.gmin_rows] = VSTEP_CLAMP
        self.neg_clamp = -self.clamp
        # index tables offset per member: gathers of the MOSFET terminals (g,
        # d, b, s) and the current columns' ends, row sums, Jacobian scatter
        r = np.arange(rows)[:, None]
        width, cols, devices = g.size + 1, g.col_a.size, len(g.mosfets)
        self.at_terms = g.mos_terms[[1, 0, 3, 2], None] + width * r
        self.at_ends = np.stack((g.col_a, g.col_b))[:, None] + width * r
        self.at_sum = g.sum_col + cols * r
        self.at_row = (g.sum_row + width * r).ravel()
        # the MOSFET stamp's entries off ground, device by device in stamp order
        row_t, col_t, value, sign = _MOS_STAMP
        row, col = g.mos_terms[row_t].T, g.mos_terms[col_t].T  # (devices, 8)
        device, entry = np.nonzero((row > 0) & (col > 0))
        cell = (row[device, entry] - 1) * g.size + col[device, entry] - 1
        self.at_jac = (cell + g.size**2 * r).ravel()
        self.at_value = (value[entry] * rows * devices + devices * r + device).ravel()
        self.jac_sign = np.tile(sign[entry].astype(float), rows)
        # the Jacobian's linear part, stamped from the current columns whose
        # sums give F: each sum-list entry adds sign*coef at its column's end
        # a and subtracts it at end b, so every cell sums in element order
        col_ends = np.stack((g.col_a, g.col_b), axis=1)[g.sum_col]
        col_ends[g.sum_row == g.size] = 0  # the discarded row, like ground, gets nothing
        entry, side = np.nonzero(col_ends)  # each entry's two ends adjacent
        at_cell = (g.sum_row[entry] * g.size + col_ends[entry, side] - 1 + g.size**2 * r).ravel()
        at_coef, sign = self.at_sum[:, entry], g.sum_sign[entry] * (1.0 - 2.0 * side)

        def stamp(*values):
            coef = self.columns(rows, *values).take(at_coef) * sign
            return np.bincount(at_cell, coef.ravel(), rows * g.size**2).reshape(rows, -1)

        # alpha times the capacitances' own stamp, as alpha*(c1 + c2) is not alpha*c1 + alpha*c2
        linear = stamp(None, res_g, None, None, 1.0, None, None, 1.0, None)
        capacitance = stamp(None, None, cap_c, None, None, None, None, None, None)
        self.j_base = linear + alphas[:, None] * capacitance
        self.j_base.reshape(rows, g.size, g.size)[:, g.gmin_rows, g.gmin_rows] += gmin

    def columns(self, rows: int, *values) -> np.ndarray:
        """Rows of current columns from each group's value or member rows (None: zeros)."""
        out = np.zeros((rows, self.groups[-1].stop))
        for value, group in zip(values, self.groups, strict=True):
            if value is not None:
                out[:, group] = value
        return out

    def fixed_currents(self, src: np.ndarray, cap_ieq: np.ndarray) -> np.ndarray:
        """The terms of the current columns fixed for a solve, one row per
        member: the capacitor companion history ``cap_ieq``, the sources
        ``src`` (current sources, then voltage sources) and zeros elsewhere
        (``assemble`` fills in the MOSFET channels)."""
        ni = len(self.g.isources)
        e = src[:, ni:]
        return self.columns(len(src), None, None, cap_ieq, src[:, :ni], None, None, None, -e, e)

    def assemble(self, xg, fixed, dev=None):
        """Residual F, Jacobian J, per-row current/voltage scales and device
        evaluation of each member at its row of ``xg`` (unknowns after a
        ground column), given its ``fixed_currents`` (which this fills in)
        and, if known, its device evaluation at ``xg`` (5, members, MOSFETs:
        id, gm, gds, gmbs and gm + gds + gmbs), used then instead of
        evaluating the devices.
        """
        g = self.g
        rows, size = len(xg), g.size
        if dev is None:
            dev = np.empty((5, rows, len(g.mosfets)))
            v = xg.take(self.at_terms)
            eval_mosfet_into(self.devices, v[:3] - v[3], dev)  # vgs, vds, vbs
        fixed[:, self.groups[5]] = dev[0]  # the MOSFET channels' columns
        flow = (self.coef * np.subtract(*xg.take(self.at_ends)) + fixed).take(self.at_sum)
        flow *= g.sum_sign
        F = np.bincount(self.at_row, flow.ravel(), rows * (size + 1)).reshape(rows, -1)[:, :size]
        scale = np.maximum.reduceat(np.abs(flow), g.sum_starts, axis=1)[:, :size]
        J = self.j_base.copy()
        np.add.at(J.reshape(-1), self.at_jac, dev.take(self.at_value) * self.jac_sign)
        return F, J.reshape(rows, size, size), scale, dev


def _source_values(graphs: Sequence[CircuitGraph]) -> np.ndarray:
    """Each graph's source values at t = 0, one row each: the current
    sources, then the voltage sources."""
    rows = [[src.spec.value_at(0.0) for src in (*gr.isources, *gr.vsources)] for gr in graphs]
    return np.array(rows, dtype=float).reshape(len(rows), -1)


def _newton_batch(batch: _Batch, xg: np.ndarray, src: np.ndarray, cap_ieq: np.ndarray,
                  dev: np.ndarray | None = None, going: np.ndarray | None = None):
    """Damped Newton solves of the members of ``batch`` that ``going`` marks
    (all when None) at once; the others are spent rows from the start.

    Member b starts from ``xg[b]`` (its unknowns after a ground column),
    with its own row of source values (ordered as ``_source_values``) and
    capacitor history; ``dev``, if given, is every member's device
    evaluation there (as ``_Batch.assemble`` returns it), and the first
    assembly uses it.  A member has converged when both its KCL residual and
    its proposed (undamped) voltage step are within tolerance; it fails at
    the iteration cap, on a non-finite or singular step, or, from iteration
    ``CYCLE_FROM`` on, at an iterate that repeats one it took since then bit
    for bit (Newton then cycles up to the cap).  Either way its
    result is recorded then, and its row stays in the batch, spent: nothing
    reads it again (it may go non-finite), and the others' iterates are the
    ones they get alone.
    Returns (xg, iterations, residual_excess, dev, evaluations, errors):
    each member's returned point and the device evaluation there (a failed
    or spent member returns its start), its applied updates (it assembled
    once more than that), how many of its assemblies evaluated the devices
    (both meaningless for a spent member), and ``errors``, mapping each
    failed member to the error it fails with.
    """
    g, opt = batch.g, batch.opt
    n, count = g.n, len(xg)
    out = xg.copy()
    evaluated = int(dev is None)  # the first assembly evaluates the devices
    iters = np.zeros(count, dtype=int)
    excess = np.full(count, np.nan)
    errors: dict[int, Exception] = {}
    going = np.ones(count, dtype=bool) if going is None else going.copy()  # still iterating
    x = xg.copy()
    fixed = batch.fixed_currents(src, cap_ieq)
    with np.errstate(all="ignore"):  # the device model overflows in its unused branches
        for iteration in range(opt.max_newton_iters + 1):
            F, J, scale, dev = batch.assemble(x, fixed, dev)
            if not iteration:
                out_dev = dev.copy()
            over = np.abs(F) - (opt.reltol * scale + batch.tol)  # <= 0 within tolerance
            exc = np.maximum.reduce(over, axis=1)
            # Batched LU (LAPACK gesv) through the gufunc np.linalg.solve calls,
            # without its argument checks, which cost more than these small
            # solves; a singular member gets NaN.  The Newton update is -step:
            # the solve is exact under negation.
            step = np.linalg._umath_linalg.solve1(J, F)
            conv = (exc <= 0.0) & going
            if np.count_nonzero(conv):  # the fastest test of any on small arrays
                vmax = np.maximum.reduce(np.abs(x[:, 1 : n + 1]), axis=1, initial=0.0)
                conv &= (np.maximum.reduce(np.abs(step[:, :n]), axis=1, initial=0.0)
                         < opt.vntol + opt.reltol * vmax)
            stop = going.copy() if iteration == opt.max_newton_iters else conv.copy()
            bad = ~np.isfinite(step)  # a non-finite step fails its member
            if np.count_nonzero(bad):
                stop |= going & np.logical_or.reduce(bad, axis=1)
            if iteration >= CYCLE_FROM:
                if iteration == CYCLE_FROM:
                    seen = [set() for _ in range(count)]  # each member's iterates from here
                for j in (going & ~stop).nonzero()[0]:
                    key = x[j].tobytes()
                    stop[j] = key in seen[j]
                    seen[j].add(key)
            if np.count_nonzero(stop):
                np.copyto(out, x, where=conv[:, None])
                np.copyto(excess, exc, where=conv)
                np.copyto(out_dev, dev, where=conv[:, None])
                np.copyto(iters, iteration, where=stop)
                for j in (stop ^ conv).nonzero()[0]:  # failed
                    errors[int(j)] = _failure(g, F[j], J[j], over[j])
                going ^= stop
                if not np.count_nonzero(going):
                    break
            x[:, 1:] -= np.minimum(np.maximum(step, batch.neg_clamp), batch.clamp)
            dev = None
    return out, iters, excess, out_dev, iters + evaluated, errors


def _ladder(batch: _Batch, xg: np.ndarray, src: np.ndarray, cap_ieq: np.ndarray,
            stages: Sequence[float], dev: np.ndarray | None = None,
            going: np.ndarray | None = None):
    """Newton solves of the members of ``batch`` that ``going`` marks (all
    when None) through ``stages`` of gmin at the batch's companion factors,
    each from the one before, the first from ``xg`` (as ``_newton_batch``,
    whose other arguments these are).  A member stops at the first stage it
    fails.  Returns (xg, iterations, residual_excess, dev, assemblies,
    evaluations, errors) as ``_newton_batch`` does, each count summed over a
    member's stages, and ``errors`` its failing stage's error.
    """
    going = np.ones(len(xg), dtype=bool) if going is None else going.copy()
    iterations, assemblies, evaluations = totals = np.zeros((3, len(xg)), dtype=int)
    errors: dict[int, Exception] = {}
    for gmin in stages:
        stage = _Batch(batch.graphs, batch.opt, gmin=gmin, alpha=batch.alpha)
        xg, iters, excess, dev, evals, failed = _newton_batch(stage, xg, src, cap_ieq, dev, going)
        np.add(totals, (iters, iters + 1, evals), out=totals, where=going)
        errors.update(failed)
        going[list(failed)] = False
        if not going.any():
            break
    return xg, iterations, excess, dev, assemblies, evaluations, errors


def _gmin_stages(gmin: float) -> list[float]:
    """gmin stepping: one decade per stage from 1e-2 S down to ``gmin``."""
    return [float(g) for g in np.geomspace(1e-2, gmin, GMIN_STEPS + 1)]


def _start_rows(graphs: Sequence[CircuitGraph], starts: Sequence[OperatingPoint | SolverError]):
    """Kernel rows of lockstep starts: (unknowns after a ground column, is an
    OperatingPoint, iterations, residual_excess); zeros, 0 and NaN for an error."""
    xg = np.zeros((len(starts), graphs[0].size + 1))
    ok = np.array([isinstance(op, OperatingPoint) for op in starts], dtype=bool)
    iters, excess = np.zeros(len(starts), dtype=int), np.full(len(starts), np.nan)
    for b in ok.nonzero()[0]:
        xg[b, 1:] = np.concatenate((starts[b].voltages, starts[b].branch_currents))
        iters[b], excess[b] = starts[b].iterations, starts[b].residual_excess
    return xg, ok, iters, excess


def _operating_point(graph: CircuitGraph, xg: np.ndarray, iterations, excess) -> OperatingPoint:
    """The OperatingPoint of a kernel row ``xg`` (unknowns after a ground column)."""
    return OperatingPoint(xg[1 : graph.n + 1], xg[graph.n + 1:], int(iterations), float(excess))


def _dc_points(batch: _Batch, xg: np.ndarray, src: np.ndarray, dev: np.ndarray | None = None):
    """SPICE2's operating-point procedure (Nagel, UCB/ERL M520, 1975) for the
    members of ``batch`` (alpha 0): a plain Newton solve from ``xg`` (as
    ``_newton_batch``), then gmin stepping from zeros for those that fail it.
    Returns (xg, iterations, residual_excess, dev, errors), ``errors``
    mapping a member that fails both to a NonConvergenceError logging both.
    """
    cap_ieq = np.zeros((len(xg), batch.g.cap_c.size))
    xg, iters, excess, dev, _, plain = _newton_batch(batch, xg, src, cap_ieq, dev)
    if not plain:
        return xg, iters, excess, dev, {}
    failed = np.array([b in plain for b in range(len(xg))])
    sx, si, se, sd, *_, lost = _ladder(batch, np.zeros_like(xg), src, cap_ieq,
                                       _gmin_stages(batch.opt.gmin), going=failed)
    solved = np.array([b in plain and b not in lost for b in range(len(xg))])
    xg[solved], iters[solved], excess[solved], dev[:, solved] = (
        sx[solved], si[solved], se[solved], sd[:, solved])
    return xg, iters, excess, dev, {
        b: NonConvergenceError(None, float("nan"), [f"plain: {plain[b]}", f"gmin stepping: {exc}"])
        for b, exc in lost.items()}


# ---------------------------------------------------------------------------
# Public solve operations
# ---------------------------------------------------------------------------


def newton_solve(
    graph: CircuitGraph,
    initial_guess: np.ndarray | None,
    options: SolverOptions,
) -> OperatingPoint:
    """Single Newton solve of the DC system (sources at their t=0 values)."""
    x0 = np.zeros(graph.size) if initial_guess is None else np.asarray(initial_guess, dtype=float)
    if x0.shape != (graph.size,):
        raise ValueError(f"initial guess has {x0.size} values for {graph.size} unknowns")
    x0 = np.concatenate(([0.0], x0))
    if not np.all(np.isfinite(x0)):
        raise ValueError("non-finite initial guess")
    xg, iters, excess, _, _, errors = _newton_batch(
        _Batch([graph], options), x0[None], _source_values([graph]),
        np.zeros((1, graph.cap_c.size)))
    if errors:  # popped, so that the error's traceback does not keep it alive
        raise errors.pop(0)
    return _operating_point(graph, xg[0], iters[0], excess[0])


def solve_dc(graphs: Sequence[CircuitGraph],
             options: SolverOptions) -> list[OperatingPoint | SolverError]:
    """DC operating points of circuits that share one topology (ValueError
    unless they do), solved together: one per graph, the one it gets alone.

    Each tries a plain Newton solve from zeros, then gmin stepping (one
    decade per stage from 1e-2 S down to gmin) from zeros, each stage from
    the one before; a point found by gmin stepping counts the updates of all
    its stages.  A graph for which both fail gets a NonConvergenceError.
    """
    if not graphs:
        return []
    xg, iters, excess, _, errors = _dc_points(
        _Batch(graphs, options), np.zeros((len(graphs), graphs[0].size + 1)),
        _source_values(graphs))
    return [errors[b] if b in errors else _operating_point(g, xg[b], iters[b], excess[b])
            for b, g in enumerate(graphs)]


def dc_sweep(graph: CircuitGraph, sweep: DcSweepDirective, options: SolverOptions) -> SweepRecord:
    """The ``.DC`` analysis ``sweep``: the one-member ``dc_sweep_lockstep``
    from ``solve_dc`` of the circuit with the source held at ``sweep.start``,
    its first point.  Each point starts from the last converged one; a point
    that does not converge is recorded (not converged, NaN unknowns).
    """
    first = graph.with_source(sweep.source, sweep.start)
    return dc_sweep_lockstep([graph], sweep, options, solve_dc([first], options))


@dataclass(frozen=True)
class SweepRecord:
    """DC sweeps of several circuits through the swept ``values``, indexed [point, member]."""

    values: np.ndarray  # (points,) the swept source's values
    x: np.ndarray  # (points, members, size) unknowns; NaN where not converged
    converged: np.ndarray
    iterations: np.ndarray
    residual_excess: np.ndarray


def dc_sweep_lockstep(
    graphs: Sequence[CircuitGraph],
    sweep: DcSweepDirective,
    options: SolverOptions,
    starts: Sequence[OperatingPoint | SolverError],
) -> SweepRecord:
    """The ``.DC`` analysis ``sweep`` of circuits that share one topology, solved together.

    Member b's first point is ``starts[b]``, its operating point with the
    source held at ``sweep.start``, or not converged if that is a
    SolverError.  Each later value of ``sweep.values()`` is one batched
    Newton solve for every member, from its last converged point (zeros
    before it has one); the members that fail there fall back to gmin
    stepping from zeros together, and a member that fails that too is not
    converged there (NaN unknowns).  Each member's column is ``dc_sweep``'s.
    """
    if not graphs or len(starts) != len(graphs):
        raise ValueError("need one first point per graph, and at least one graph")
    batch = _Batch(graphs, options)  # ValueError unless the members share one topology
    values = sweep.values()
    count, points, size = len(graphs), len(values), graphs[0].size
    src = _source_values(graphs)
    # each member's (row, column) of the swept source in ``src``
    held = (np.arange(count), [(*gr.isources, *gr.vsources).index(gr.find_source(sweep.source))
                               for gr in graphs])
    record = SweepRecord(
        values=values,
        x=np.full((points, count, size), np.nan),
        converged=np.zeros((points, count), dtype=bool),
        iterations=np.zeros((points, count), dtype=int),
        residual_excess=np.full((points, count), np.nan),
    )
    # each member's last converged point (after ground) and point 0's fields
    last, ok, iters, excess = _start_rows(graphs, starts)
    dev = None  # the device evaluation at ``last``, once a solve has made one
    for k in range(points):
        if k:  # the kernel returns a failed member's start and its evaluation
            src[held] = values[k]
            last, iters, excess, dev, errors = _dc_points(batch, last, src, dev)
            ok = np.array([b not in errors for b in range(count)])
        record.x[k, ok] = last[ok, 1:]
        record.converged[k] = ok
        record.iterations[k, ok] = iters[ok]
        record.residual_excess[k, ok] = excess[ok]
    return record


def solve_transient(graph: CircuitGraph, tran: TranDirective, sopts: SolverOptions) -> WaveformSet:
    """The ``.TRAN`` analysis ``tran``: a fixed-step transient from the DC
    operating point (``solve_dc``); raises the SolverError of either.

    Capacitors use the trapezoidal companion (conductance 2C/h plus history
    current); the first accepted step is backward Euler.  The result holds
    every node voltage and every source branch current at each accepted time,
    with solver statistics in ``WaveformSet.stats``: the largest KCL excess,
    Newton updates (those of the DC start included), the steps' Newton
    assemblies (a rescued step's failed try and rescue stages included), the
    ones of those that evaluated the devices (each step's first assembly
    takes the evaluation at the point the step before converged to), the
    steps that needed a gmin-stepping rescue, the step count and the step.
    It is the one-member ``solve_lockstep`` with ``voltages``; a transient
    from another start (all zeros, say) is that call with the start.
    """
    (ws,) = solve_lockstep([graph], [tran], sopts, solve_dc([graph], sopts), voltages=True)
    if isinstance(ws, SolverError):
        raise ws
    return ws


def solve_lockstep(
    graphs: Sequence[CircuitGraph],
    trans: Sequence[TranDirective],
    sopts: SolverOptions,
    starts: Sequence[OperatingPoint | SolverError],
    voltages: bool = False,
) -> list[WaveformSet | SolverError]:
    """Fixed-step transients of circuits that share one topology, stepped together.

    Member b starts from ``starts[b]`` (its t=0 state, whose iterations and
    residual count in its stats; a DC operating point or one the caller
    builds) and takes the steps of its own ``.TRAN`` analysis ``trans[b]``:
    each step evaluates each distinct source waveform once and makes one
    batched Newton solve for every running member, on one ``_Batch`` per
    integration phase (ValueError unless the members share one topology).
    A member whose start is a SolverError (its DC operating point failed)
    gets it as its result and takes no step; one whose step fails even after
    a gmin-stepping rescue (on that phase's ``_Batch``) gets a
    TransientNonConvergence at that step's time; the others go on.  A
    stopped member's row stays, spent.  After the march each finished
    member's waveforms and stats, the ones it gets alone, are built once:
    the current sources' values and every unknown, or with ``voltages``
    false only the voltage-source branch currents, all on one time base
    ``np.arange(steps + 1) * tstep``.
    ``solve_transient`` is the one-member form with ``voltages``.
    """
    if not len(graphs) == len(trans) == len(starts):
        raise ValueError("need one TranDirective and one start per graph")
    if not graphs:
        return []
    # backward Euler for the first step, trapezoidal after it
    batches = [_Batch(graphs, sopts, alpha=[a / t.tstep for t in trans]) for a in (1.0, 2.0)]
    g = graphs[0]
    n, count, ni = g.n, len(graphs), len(g.isources)
    last = np.array([t.steps for t in trans])  # each member's last step
    first = 1 if voltages else n + 1  # the first recorded column of xg
    width = g.size + 1 - first
    # each member's unknowns after a ground column, and the members stepping:
    # a member whose start failed is a spent row from step 1
    xg, going, total_iters, max_excess = _start_rows(graphs, starts)
    assemblies, evaluations, rescues = np.zeros((3, count), dtype=int)
    dev = None  # each member's device evaluation at xg, once a solve has made one
    # DC source values are set once, and each distinct time-varying waveform
    # (spec and step) is evaluated once per step for all the members it drives
    src = _source_values(graphs)
    waves: dict[tuple, int] = {}
    at = [(b, j, waves.setdefault((s.spec, t.tstep), len(waves)))
          for b, (gr, t) in enumerate(zip(graphs, trans))
          for j, s in enumerate((*gr.isources, *gr.vsources)) if not isinstance(s.spec, DcSpec)]
    rows, cols, which = np.array(at, dtype=int).reshape(-1, 3).T
    record = np.empty((last.max() + 1, count, width + ni))
    record[0, :, :width], record[0, :, width:] = xg[:, first:], src[:, :ni]

    cap_ends = batches[0].at_ends[..., batches[0].groups[2]]  # each capacitor's ends in xg
    v_prev = np.subtract(*xg.take(cap_ends))
    i_prev = np.zeros_like(v_prev)
    results: list = list(starts)  # a failed start is its member's result
    for k in range(1, last.max() + 1):
        if not going.any():
            break
        src[rows, cols] = np.array([spec.value_at(k * h) for spec, h in waves])[which]
        batch = batches[min(k, 2) - 1]
        # the backward-Euler step starts from i_prev = 0
        cap_ieq = -batch.cap_g * v_prev - i_prev
        xg, iters, excess, dev, evals, errors = _newton_batch(batch, xg, src, cap_ieq, dev, going)
        np.add(assemblies, iters + 1, out=assemblies, where=going)
        np.add(evaluations, evals, out=evaluations, where=going)
        if errors:  # a gmin-stepping rescue of the members whose step failed
            failed = np.array([b in errors for b in range(count)])
            rescues += failed
            xg, rescue_iters, rescue_excess, dev, used, evaluated, lost = _ladder(
                batch, xg, src, cap_ieq, _gmin_stages(sopts.gmin), dev, failed)
            for b, exc in lost.items():  # a spent row from here
                results[b] = TransientNonConvergence(k * trans[b].tstep, exc)
                going[b] = False
            iters[failed], excess[failed] = rescue_iters[failed], rescue_excess[failed]
            assemblies += used  # zero where no rescue ran
            evaluations += evaluated
        np.add(total_iters, iters, out=total_iters, where=going)
        np.maximum(max_excess, excess, out=max_excess, where=going)
        record[k, :, :width], record[k, :, width:] = xg[:, first:], src[:, :ni]
        v_new = np.subtract(*xg.take(cap_ends))
        i_prev = batch.cap_g * v_new + cap_ieq
        v_prev = v_new
        going &= last != k  # a member that took its last step is done
    for b, (gr, t) in enumerate(zip(graphs, trans)):
        if isinstance(results[b], SolverError):
            continue
        times = _readonly(np.arange(t.steps + 1) * t.tstep)
        columns = (unknown_columns(gr) + [(f"i({s.name})", "A") for s in gr.isources])[first - 1:]
        results[b] = WaveformSet(
            [Waveform(name, times, values)
             for (name, _), values in zip(columns, record[: t.steps + 1, b].T)],
            dict(columns),
            {"max_kcl_excess": float(max_excess[b]), "newton_iterations": int(total_iters[b]),
             "assemblies": int(assemblies[b]), "evaluations": int(evaluations[b]),
             "rescues": int(rescues[b]), "steps": t.steps, "tstep": t.tstep})
    return results

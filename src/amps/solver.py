"""Modified nodal analysis: DC operating points, DC sweeps, transient runs.

Unknowns are the non-ground node voltages followed by the branch currents of
the voltage sources.  ``build_graph`` compiles a netlist once, at one
temperature, into immutable MNA stamps (Ho, Ruehli & Brennan, IEEE TCAS
1975): the linear stamp ``G`` (resistors, voltage-source incidence), the
capacitance stamp ``C`` (capacitors, MOSFET overlaps), the gmin rows (nodes
a MOSFET touches), one two-terminal branch table whose currents give each
node's KCL residual and tolerance scale, and a MOSFET table with the
precomputed scatter of device conductances into the Jacobian.  An assembly
context fixes the source scale, gmin and companion factor alpha (0 for DC,
1/h backward Euler, 2/h trapezoidal) once: its Jacobian is
``G + alpha*C + gmin*D`` plus the device scatter, and the time and the
capacitor history currents are arguments of each assembly.

Nonlinear solves are damped Newton-Raphson over dense LU; DC convergence
falls back to gmin stepping and then source stepping.  Transient integration
is fixed-step trapezoidal with a backward-Euler first step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .analysis import Waveform, WaveformSet
from .device import MosfetParams, derive_params, eval_mosfet, overlap_caps
from .netlist import DcSpec, ElementKind, NetlistDocument, SourceSpec, validate


class SingularMatrixError(RuntimeError):
    def __init__(self, pivot: int):
        self.pivot = pivot
        super().__init__(f"singular MNA matrix (zero pivot at index {pivot})")


class NonConvergenceError(RuntimeError):
    def __init__(self, where: str, residual: float, strategy_log: list[str] | None = None):
        self.where = where
        self.residual = residual
        self.strategy_log = strategy_log or []
        msg = f"Newton did not converge (worst residual {residual:.3e} at {where})"
        if strategy_log:
            msg += "; tried: " + " | ".join(strategy_log)
        super().__init__(msg)


class TransientNonConvergence(RuntimeError):
    def __init__(self, time: float, partial: WaveformSet, cause: Exception):
        self.time = time
        self.partial = partial
        self.cause = cause
        super().__init__(f"transient aborted at t={time:.6e}s: {cause}")


@dataclass(frozen=True)
class SolverOptions:
    reltol: float = 1e-3
    abstol_i: float = 1e-12  # A
    vntol: float = 1e-6  # V
    gmin: float = 1e-12  # S
    max_newton_iters: int = 100
    gmin_steps: int = 10  # decades from 1e-2 down to gmin
    source_steps: int = 10
    vstep_clamp: float = 0.3  # V, per-update damping on nonlinear-device nodes

    def __post_init__(self):
        for name in ("reltol", "abstol_i", "vntol", "gmin", "vstep_clamp"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.gmin_steps < 1 or self.source_steps < 1:
            raise ValueError("gmin_steps and source_steps must be >= 1")


@dataclass
class OperatingPoint:
    """Converged node voltages and voltage-source branch currents."""

    voltages: np.ndarray  # length n
    branch_currents: np.ndarray  # length m
    converged: bool
    iterations: int
    residual_excess: float = float("nan")  # max KCL residual minus its tolerance


@dataclass
class TransientOptions:
    tstep: float
    tstop: float
    ic: str = "from_op"  # "from_op" | "zero_start"

    def __post_init__(self):
        if self.tstep <= 0:
            raise ValueError("tstep must be positive")
        if self.tstop < 10 * self.tstep:
            raise ValueError("tstop must be at least 10*tstep")
        if self.ic not in ("from_op", "zero_start"):
            raise ValueError(f"unknown initial-condition mode {self.ic!r}")


TransferCurve = list[tuple[float, OperatingPoint]]


@dataclass(frozen=True)
class _Source:
    name: str
    p: int
    m: int
    spec: SourceSpec


# Jacobian entries of one MOSFET as (row terminal, column terminal, value,
# sign), with terminals d=0, g=1, s=2, b=3 and values id=0, gm=1, gds=2,
# gmbs=3, gsum=gm+gds+gmbs=4.  The drain row gets +d(id), the source row
# -d(id).
_MOS_STAMP = (
    (0, 0, 2, 1.0), (0, 1, 1, 1.0), (0, 3, 3, 1.0), (0, 2, 4, -1.0),
    (2, 2, 4, 1.0), (2, 0, 2, -1.0), (2, 1, 1, -1.0), (2, 3, 3, -1.0),
)


@dataclass(frozen=True, eq=False)
class CircuitGraph:
    """A netlist compiled at one temperature into MNA stamps (built by ``build_graph``).

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
    G: np.ndarray
    C: np.ndarray
    gmin_rows: np.ndarray
    # two-terminal branches, current flowing from node a to node b, in the
    # order resistors, capacitors, current sources, voltage sources, MOSFET
    # channels (drain to source)
    branch_a: np.ndarray
    branch_b: np.ndarray
    res_g: np.ndarray
    cap_c: np.ndarray
    # branch ends sorted by node, in table order within a node: the node,
    # the index of its flow in (currents, -currents), the first end of each
    # node that has one, and that node
    end_node: np.ndarray
    end_flow: np.ndarray
    end_starts: np.ndarray
    end_nodes: np.ndarray
    mos_terms: np.ndarray  # (4, MOSFETs): d, g, s, b node indices
    # the Jacobian scatter: every flat index once (the base), then one per
    # MOSFET entry; and for each entry its index in the flat (MOSFETs, 5)
    # table of evaluated values, and its sign
    jac_index: np.ndarray
    mos_value: np.ndarray
    mos_sign: np.ndarray

    def find_source(self, name: str) -> _Source:
        name = name.upper()
        for src in self.vsources + self.isources:
            if src.name == name:
                return src
        raise KeyError(f"no source named {name}")

    def with_source(self, name: str, value: float) -> CircuitGraph:
        """The same circuit with one source held at a DC value; shares every stamp."""
        src = self.find_source(name)
        held = replace(src, spec=DcSpec(value))

        def swap(group):
            return tuple(held if s is src else s for s in group)

        return replace(self, vsources=swap(self.vsources), isources=swap(self.isources))


def _readonly(a) -> np.ndarray:
    a = np.asarray(a)
    a.flags.writeable = False
    return a


def _two_terminal_stamp(size: int, branches: list[tuple[int, int, float]]) -> np.ndarray:
    M = np.zeros((size, size))
    for a, b, v in branches:
        for r, c, s in ((a, a, v), (b, b, v), (a, b, -v), (b, a, -v)):
            if r and c:
                M[r - 1, c - 1] += s
    return M


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

    G = _two_terminal_stamp(size, res)
    for k, src in enumerate(vsources):
        for node, sign in ((src.p, 1.0), (src.m, -1.0)):
            if node:
                G[node - 1, n + k] += sign
                G[n + k, node - 1] += sign

    ends = (
        [(a, b) for a, b, _ in res + caps]
        + [(src.p, src.m) for src in isources + vsources]
        + [(d, s) for d, _, s, _ in terms]
    )
    branch_a = np.array([a for a, _ in ends], dtype=int)
    branch_b = np.array([b for _, b in ends], dtype=int)
    nb = branch_a.size
    end_node = np.column_stack((branch_a, branch_b)).ravel()
    end_flow = np.column_stack((np.arange(nb), nb + np.arange(nb))).ravel()
    order = np.argsort(end_node, kind="stable")
    end_node, end_flow = end_node[order], end_flow[order]
    end_starts = np.flatnonzero(np.diff(end_node, prepend=-1))

    entries = [
        ((t[r] - 1) * size + t[c] - 1, 5 * k + value, sign)
        for k, t in enumerate(terms)
        for r, c, value, sign in _MOS_STAMP
        if t[r] and t[c]
    ]
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
        G=_readonly(G),
        C=_readonly(_two_terminal_stamp(size, caps)),
        gmin_rows=_readonly(np.array(sorted({t - 1 for t in terms.flat if t}), dtype=int)),
        branch_a=_readonly(branch_a),
        branch_b=_readonly(branch_b),
        res_g=_readonly([g for _, _, g in res]),
        cap_c=_readonly([c for _, _, c in caps]),
        end_node=_readonly(end_node),
        end_flow=_readonly(end_flow),
        end_starts=_readonly(end_starts),
        end_nodes=_readonly(end_node[end_starts]),
        mos_terms=_readonly(terms.T),
        jac_index=_readonly(np.array([*range(size * size), *(f for f, _, _ in entries)])),
        mos_value=_readonly(np.array([v for _, v, _ in entries], dtype=int)),
        mos_sign=_readonly([s for _, _, s in entries]),
    )


# ---------------------------------------------------------------------------
# Assembly and the Newton core
# ---------------------------------------------------------------------------


def _find_zero_pivot(a: np.ndarray) -> int:
    """Partial-pivoting elimination to locate the failing pivot column."""
    u = a.astype(float).copy()
    size = u.shape[0]
    for k in range(size):
        p = k + int(np.argmax(np.abs(u[k:, k])))
        if abs(u[p, k]) < 1e-300:
            return k
        if p != k:
            u[[k, p]] = u[[p, k]]
        nz = u[k + 1:, k] / u[k, k]
        u[k + 1:, k:] -= np.outer(nz, u[k, k:])
    return size - 1


def _lu_solve(J: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Dense LU with partial pivoting (LAPACK); raises SingularMatrixError."""
    try:
        return np.linalg.solve(J, rhs)
    except np.linalg.LinAlgError:
        raise SingularMatrixError(_find_zero_pivot(J)) from None


class _System:
    """One assembly context: graph, options, source scale, gmin and alpha.

    Everything is fixed here; nothing changes it afterwards.
    """

    __slots__ = ("g", "opt", "scale", "gmin", "alpha", "cap_geq", "coef", "j_base", "vsrc")

    def __init__(
        self,
        graph: CircuitGraph,
        options: SolverOptions,
        *,
        source_scale: float = 1.0,
        gmin: float | None = None,
        alpha: float = 0.0,
    ):
        self.g = graph
        self.opt = options
        self.scale = source_scale
        self.gmin = options.gmin if gmin is None else gmin
        self.alpha = alpha
        self.cap_geq = alpha * graph.cap_c
        rest = graph.branch_a.size - graph.res_g.size - graph.cap_c.size
        self.coef = np.concatenate((graph.res_g, self.cap_geq, np.zeros(rest)))
        base = graph.G + alpha * graph.C
        base[graph.gmin_rows, graph.gmin_rows] += self.gmin
        self.j_base = base
        first = graph.res_g.size + graph.cap_c.size + len(graph.isources)
        self.vsrc = slice(first, first + graph.m)

    def assemble(self, x: np.ndarray, t: float, cap_ieq: np.ndarray):
        """Residual F(x), Jacobian J(x) and per-row current/voltage scales at time t.

        ``cap_ieq`` holds the capacitor companion history currents.
        """
        g = self.g
        n = g.n
        V = np.concatenate(([0.0], x[:n]))
        dv = V[g.branch_a] - V[g.branch_b]
        isrc = [self.scale * src.spec.value_at(t) for src in g.isources]
        e = np.array([self.scale * src.spec.value_at(t) for src in g.vsources])
        vd, vg, vs, vb = V[g.mos_terms]
        evaluate = eval_mosfet
        dev = []  # id, gm, gds, gmbs, gsum of each MOSFET in turn
        for params, vgs, vds, vbs in zip(g.mosfets, (vg - vs).tolist(), (vd - vs).tolist(),
                                         (vb - vs).tolist()):
            ev = evaluate(params, vgs, vds, vbs)
            dev += (ev.id, ev.gm, ev.gds, ev.gmbs, ev.gm + ev.gds + ev.gmbs)
        dev = np.array(dev)

        cur = self.coef * dv
        cur[g.res_g.size:] += np.concatenate((cap_ieq, isrc, x[n:], dev[0::5]))
        flow = np.concatenate((cur, -cur))[g.end_flow]
        fe = np.bincount(g.end_node, weights=flow, minlength=n + 1)  # slot 0 is ground
        se = np.zeros(n + 1)  # largest incident branch current per node
        se[g.end_nodes] = np.maximum.reduceat(np.abs(flow), g.end_starts)
        fe[1:][g.gmin_rows] += self.gmin * x[g.gmin_rows]
        F = np.concatenate((fe[1:], dv[self.vsrc] - e))
        scale = np.concatenate((se[1:], np.abs(e)))

        entries = np.concatenate((self.j_base.ravel(), g.mos_sign * dev[g.mos_value]))
        J = np.bincount(g.jac_index, weights=entries).reshape(g.size, g.size)
        return F, J, scale

    def excess(self, F: np.ndarray, scale: np.ndarray) -> np.ndarray:
        """Each row's residual above its tolerance; <= 0 when within tolerance."""
        n = self.g.n
        opt = self.opt
        tol = np.concatenate(
            (opt.abstol_i + opt.reltol * scale[:n], opt.vntol + opt.reltol * scale[n:])
        )
        return np.abs(F) - tol

    def residual_excess(self, F: np.ndarray, scale: np.ndarray) -> float:
        """Largest residual above its tolerance."""
        excess = self.excess(F, scale)
        return float(excess.max()) if excess.size else 0.0

    def worst_row_name(self, F: np.ndarray, scale: np.ndarray) -> str:
        n = self.g.n
        idx = int(np.argmax(self.excess(F, scale)))
        if idx < n:
            return f"node {self.g.node_names[idx + 1]}"
        return f"source {self.g.vsources[idx - n].name}"


def _newton(sys: _System, x0: np.ndarray, t: float = 0.0, cap_ieq: np.ndarray | None = None):
    """Damped Newton iteration at time t (with capacitor history ``cap_ieq``).

    Counts applied updates; convergence requires both the KCL residual and
    the proposed (undamped) voltage step to be within tolerance.  Returns
    (x, iterations, residual_excess).
    """
    g = sys.g
    n = g.n
    options = sys.opt
    if cap_ieq is None:
        cap_ieq = np.zeros(g.cap_c.size)
    x = np.asarray(x0, dtype=float).copy()
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite initial guess")
    clamp = options.vstep_clamp
    for iterations in range(options.max_newton_iters + 1):
        F, J, scale = sys.assemble(x, t, cap_ieq)
        if not (np.all(np.isfinite(F)) and np.all(np.isfinite(J))):
            raise NonConvergenceError("non-finite assembly", float("inf"))
        excess = sys.residual_excess(F, scale)
        dx = _lu_solve(J, -F)
        vmax = float(np.max(np.abs(x[:n]))) if n else 0.0
        dv = float(np.max(np.abs(dx[:n]))) if n else 0.0
        if excess <= 0.0 and dv < options.vntol + options.reltol * vmax:
            return x, iterations, excess
        if iterations == options.max_newton_iters:
            raise NonConvergenceError(sys.worst_row_name(F, scale), excess)
        step = dx.copy()
        if g.gmin_rows.size:
            step[g.gmin_rows] = np.clip(step[g.gmin_rows], -clamp, clamp)
        x += step


# ---------------------------------------------------------------------------
# Public solve operations
# ---------------------------------------------------------------------------


def newton_solve(
    graph: CircuitGraph,
    initial_guess: np.ndarray | None,
    options: SolverOptions,
    source_scale: float = 1.0,
    gmin_override: float | None = None,
) -> OperatingPoint:
    """Single Newton solve of the DC system (sources at their t=0 values)."""
    x0 = np.zeros(graph.size) if initial_guess is None else initial_guess
    sys = _System(graph, options, source_scale=source_scale, gmin=gmin_override)
    x, iters, excess = _newton(sys, x0)
    return OperatingPoint(
        voltages=x[: graph.n].copy(),
        branch_currents=x[graph.n:].copy(),
        converged=True,
        iterations=iters,
        residual_excess=excess,
    )


def solve_dc(
    graph: CircuitGraph,
    options: SolverOptions,
    initial_guess: np.ndarray | None = None,
) -> OperatingPoint:
    """DC operating point with homotopy fallbacks.

    Tries a plain Newton solve from ``initial_guess`` (zeros when None),
    then gmin stepping (one decade per step from 1e-2 S down to gmin), then
    source stepping; the homotopies start from zeros and each stage
    warm-starts from the previous one.
    """
    log: list[str] = []
    try:
        return newton_solve(graph, initial_guess, options)
    except (NonConvergenceError, SingularMatrixError) as exc:
        log.append(f"plain: {exc}")
    homotopies = {
        "gmin stepping": [
            {"gmin_override": float(gval)}
            for gval in np.geomspace(1e-2, options.gmin, options.gmin_steps + 1)
        ],
        "source stepping": [
            {"source_scale": float(scale)}
            for scale in np.linspace(1.0 / options.source_steps, 1.0, options.source_steps)
        ],
    }
    for label, stages in homotopies.items():
        x = np.zeros(graph.size)
        try:
            for stage in stages:
                op = newton_solve(graph, x, options, **stage)
                x = np.concatenate((op.voltages, op.branch_currents))
            return op
        except (NonConvergenceError, SingularMatrixError) as exc:
            log.append(f"{label}: {exc}")
    raise NonConvergenceError("all homotopies exhausted", float("nan"), log)


def _sweep_values(start: float, stop: float, step: float) -> list[float]:
    if start == stop:
        return [start]
    if step == 0 or (stop - start) * step < 0:
        raise ValueError("sweep step must be nonzero and sign-consistent with stop-start")
    count = int(math.floor((stop - start) / step + 1e-9))
    values = [start + i * step for i in range(count + 1)]
    if abs(values[-1] - stop) <= abs(step) * 1e-9:
        values[-1] = stop
    else:
        values.append(stop)  # clamp the last step to the endpoint
    return values


def dc_sweep(
    graph: CircuitGraph,
    source_name: str,
    start: float,
    stop: float,
    step: float,
    options: SolverOptions,
) -> TransferCurve:
    """Sweep one source's DC value, warm-starting each point from the last.

    Non-convergent points are recorded (``converged=False``, NaN vectors) and
    the sweep continues.
    """
    name = graph.find_source(source_name).name  # KeyError if unknown
    curve: TransferCurve = []
    x_prev: np.ndarray | None = None
    for value in _sweep_values(start, stop, step):
        try:
            op = solve_dc(graph.with_source(name, value), options, x_prev)
            x_prev = np.concatenate((op.voltages, op.branch_currents))
        except (NonConvergenceError, SingularMatrixError):
            op = OperatingPoint(
                voltages=np.full(graph.n, np.nan),
                branch_currents=np.full(graph.m, np.nan),
                converged=False,
                iterations=0,
            )
        curve.append((value, op))
    return curve


def solve_transient(
    graph: CircuitGraph,
    topts: TransientOptions,
    sopts: SolverOptions,
) -> WaveformSet:
    """Fixed-step transient analysis.

    Capacitors use the trapezoidal companion (conductance 2C/h plus history
    current); the first accepted step is backward Euler.  The result holds
    every node voltage and every source branch current at each accepted time,
    with solver statistics in ``WaveformSet.stats``.
    """
    h = topts.tstep
    nsteps = int(math.floor(topts.tstop / h + 1e-9))
    if nsteps < 10:
        raise ValueError("transient needs at least 10 steps")
    n, m = graph.n, graph.m
    if topts.ic == "from_op":
        op0 = solve_dc(graph, sopts)
        x = np.concatenate((op0.voltages, op0.branch_currents))
        max_excess = op0.residual_excess
        total_iters = op0.iterations
    else:
        x = np.zeros(graph.size)
        max_excess = float("-inf")
        total_iters = 0

    volts = np.empty((nsteps + 1, n))
    currents = np.empty((nsteps + 1, m))
    volts[0] = x[:n]
    currents[0] = x[n:]

    caps = slice(graph.res_g.size, graph.res_g.size + graph.cap_c.size)
    cap_a, cap_b = graph.branch_a[caps], graph.branch_b[caps]

    def cap_voltage(x: np.ndarray) -> np.ndarray:
        V = np.concatenate(([0.0], x[:n]))
        return V[cap_a] - V[cap_b]

    v_prev = cap_voltage(x)
    i_prev = np.zeros_like(v_prev)

    sys_be = _System(graph, sopts, alpha=1.0 / h)
    sys_tr = _System(graph, sopts, alpha=2.0 / h)

    def build_ws(upto: int) -> WaveformSet:
        times = np.arange(upto + 1) * h
        ws = WaveformSet(shared_time=True)
        ws.stats["max_kcl_excess"] = max_excess
        ws.stats["newton_iterations"] = total_iters
        ws.stats["steps"] = upto
        ws.stats["tstep"] = h
        if upto < 1:  # failed on the very first step: no valid waveforms yet
            return ws
        for j in range(1, n + 1):
            name = f"v({graph.node_names[j]})"
            ws.waveforms.append(Waveform(name, times, volts[: upto + 1, j - 1]))
            ws.units[name] = "V"
        for k, src in enumerate(graph.vsources):
            name = f"i({src.name})"
            ws.waveforms.append(Waveform(name, times, currents[: upto + 1, k]))
            ws.units[name] = "A"
        for src in graph.isources:
            name = f"i({src.name})"
            vals = np.array([src.spec.value_at(t) for t in times])
            ws.waveforms.append(Waveform(name, times, vals))
            ws.units[name] = "A"
        return ws

    for k in range(1, nsteps + 1):
        t = k * h
        sys = sys_be if k == 1 else sys_tr
        # the backward-Euler step starts from i_prev = 0
        cap_ieq = -sys.cap_geq * v_prev - i_prev
        try:
            try:
                x, iters, excess = _newton(sys, x, t, cap_ieq)
            except (NonConvergenceError, SingularMatrixError):
                x, iters, excess = _rescue_step(sys, x, t, cap_ieq)
        except (NonConvergenceError, SingularMatrixError) as exc:
            raise TransientNonConvergence(t, build_ws(k - 1), exc) from exc
        total_iters += iters
        max_excess = max(max_excess, excess)
        volts[k] = x[:n]
        currents[k] = x[n:]
        v_new = cap_voltage(x)
        i_prev = sys.cap_geq * v_new + cap_ieq
        v_prev = v_new
    return build_ws(nsteps)


def _rescue_step(sys: _System, x0: np.ndarray, t: float, cap_ieq: np.ndarray):
    """gmin-stepping homotopy for a stubborn transient step.

    Each stage solves in a fresh context whose gmin steps one decade from
    1e-2 S down to the step's own gmin.
    """
    x = x0
    iters_total = 0
    for gval in np.geomspace(1e-2, sys.gmin, sys.opt.gmin_steps + 1):
        stage = _System(sys.g, sys.opt, source_scale=sys.scale, gmin=float(gval), alpha=sys.alpha)
        x, iters, excess = _newton(stage, x, t, cap_ieq)
        iters_total += iters
    return x, iters_total, excess

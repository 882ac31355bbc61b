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
``G + alpha*C + gmin*D`` plus the device scatter, and the source values and
the capacitor history currents are arguments of each Newton solve.

Nonlinear solves are damped Newton-Raphson over dense LU; DC convergence
falls back to gmin stepping and then source stepping.  Transient integration
is fixed-step trapezoidal with a backward-Euler first step.  Circuits that
share one topology can be solved in lockstep: transients
(``solve_lockstep``) take each time step, and DC sweeps of one source
(``dc_sweep_lockstep``) each sweep value, as one batched assembly, device
evaluation and LU solve for all of them, and each one's results are the
ones it gets alone.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from .analysis import Waveform, WaveformSet
from .device import (
    MosfetParams,
    derive_params,
    device_table,
    eval_mosfet,
    eval_mosfet_table,
    overlap_caps,
)
from .netlist import (
    TRAN_MIN_STEPS,
    DcSpec,
    ElementKind,
    NetlistDocument,
    SourceSpec,
    check_sweep_step,
    validate,
)


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


GMIN_STEPS = 10  # gmin stepping: decades from 1e-2 S down to gmin
SOURCE_STEPS = 10  # source stepping: equal increments up to full scale
VSTEP_CLAMP = 0.3  # V, per-update damping on nonlinear-device nodes


@dataclass(frozen=True)
class SolverOptions:
    reltol: float = 1e-3
    abstol_i: float = 1e-12  # A
    vntol: float = 1e-6  # V
    gmin: float = 1e-12  # S
    max_newton_iters: int = 100

    def __post_init__(self):
        for name in ("reltol", "abstol_i", "vntol", "gmin"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


@dataclass
class OperatingPoint:
    """Converged node voltages and voltage-source branch currents."""

    voltages: np.ndarray  # length n
    branch_currents: np.ndarray  # length m
    converged: bool
    iterations: int
    residual_excess: float = float("nan")  # max KCL residual minus its tolerance


@dataclass(frozen=True)
class TransientOptions:
    tstep: float
    tstop: float
    ic: str = "from_op"  # "from_op" | "zero_start"

    def __post_init__(self):
        if self.tstep <= 0:
            raise ValueError("tstep must be positive")
        if self.tstop < TRAN_MIN_STEPS * self.tstep:
            raise ValueError(f"tstop must be at least {TRAN_MIN_STEPS}*tstep")
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

    def assemble(self, x: np.ndarray, fixed: np.ndarray, e: np.ndarray):
        """Residual F(x), Jacobian J(x) and per-row current/voltage scales.

        ``fixed`` holds the currents fixed for the solve (capacitor
        companion history, then current sources) and ``e`` the
        voltage-source values.
        """
        g = self.g
        n = g.n
        V = np.concatenate(([0.0], x[:n]))
        dv = V[g.branch_a] - V[g.branch_b]
        vd, vg, vs, vb = V[g.mos_terms]
        evaluate = eval_mosfet
        dev = []  # id, gm, gds, gmbs, gsum of each MOSFET in turn
        for params, vgs, vds, vbs in zip(g.mosfets, (vg - vs).tolist(), (vd - vs).tolist(),
                                         (vb - vs).tolist()):
            ev = evaluate(params, vgs, vds, vbs)
            dev += (ev.id, ev.gm, ev.gds, ev.gmbs, ev.gm + ev.gds + ev.gmbs)
        dev = np.array(dev)

        cur = self.coef * dv
        cur[g.res_g.size:] += np.concatenate((fixed, x[n:], dev[0::5]))
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
        """Each row's residual above its tolerance; <= 0 when within tolerance.

        F and scale may hold one system per row of a leading axis.
        """
        n = self.g.n
        opt = self.opt
        tol = np.concatenate(
            (opt.abstol_i + opt.reltol * scale[..., :n], opt.vntol + opt.reltol * scale[..., n:]),
            axis=-1,
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


def _newton(sys: _System, x0: np.ndarray, src: np.ndarray, cap_ieq: np.ndarray):
    """Damped Newton iteration with source values ``src`` (one row of
    ``_source_values``) and capacitor history ``cap_ieq``.

    Counts applied updates; convergence requires both the KCL residual and
    the proposed (undamped) voltage step to be within tolerance.  Returns
    (x, iterations, residual_excess).
    """
    g = sys.g
    n = g.n
    options = sys.opt
    ni = len(g.isources)
    fixed, e = np.concatenate((cap_ieq, src[:ni])), src[ni:]
    x = np.asarray(x0, dtype=float).copy()
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite initial guess")
    clamp = VSTEP_CLAMP
    for iterations in range(options.max_newton_iters + 1):
        F, J, scale = sys.assemble(x, fixed, e)
        if not (np.all(np.isfinite(F)) and np.all(np.isfinite(J))):
            raise NonConvergenceError("non-finite assembly", float("inf"))
        excess = sys.residual_excess(F, scale)
        dx = _lu_solve(J, -F)
        vmax = float(np.max(np.abs(x[:n]))) if n else 0.0
        dv = float(np.max(np.abs(dx[:n]))) if n else 0.0
        if excess <= 0.0 and dv < options.vntol + options.reltol * vmax:
            return x, iterations, excess
        if iterations == options.max_newton_iters or not np.all(np.isfinite(dx)):
            raise NonConvergenceError(sys.worst_row_name(F, scale), excess)
        step = dx.copy()
        if g.gmin_rows.size:
            step[g.gmin_rows] = np.clip(step[g.gmin_rows], -clamp, clamp)
        x += step


class _Lockstep:
    """Assembly contexts of one topology, stacked for one batched Newton step.

    The members share the graph's index tables; each member's own
    ``_System`` bases (``coef``, ``j_base``) and device constants are
    stacked along the first axis, and the KCL and Jacobian sums use the
    index tables offset per member, so each member's sums keep their
    element order.
    """

    __slots__ = ("systems", "g", "opt", "gmin", "vsrc", "coef", "j_base", "devices",
                 "end_index", "jac_index")

    def __init__(self, systems: Sequence[_System]):
        first = systems[0]
        g = first.g
        self.systems = systems
        self.g, self.opt, self.gmin, self.vsrc = g, first.opt, first.gmin, first.vsrc
        self.coef = np.array([s.coef for s in systems])
        self.j_base = np.array([s.j_base.ravel() for s in systems])
        self.devices = np.array([device_table(s.g.mosfets) for s in systems])
        member = np.arange(len(systems))[:, None]
        self.end_index = (g.end_node + (g.n + 1) * member).ravel()
        self.jac_index = (g.jac_index + g.size * g.size * member).ravel()

    def assemble(self, xg, coef, j_base, devices, fixed, e):
        """``_System.assemble`` for each row of xg, the unknowns after a ground column.

        The other arguments are the per-member rows that go with xg: the
        stack's ``coef``, ``j_base`` and ``devices``, the currents fixed
        for the step (capacitor history, then current sources) and the
        voltage-source values.
        """
        g = self.g
        n, rows = g.n, len(xg)
        V = xg[:, : n + 1]
        dv = V[:, g.branch_a] - V[:, g.branch_b]
        vd, vg, vs, vb = V[:, g.mos_terms].transpose(1, 0, 2)
        dev = eval_mosfet_table(devices.transpose(1, 0, 2), vg - vs, vd - vs, vb - vs)
        dev = dev.reshape(rows, -1)

        cur = coef * dv
        cur[:, g.res_g.size:] += np.concatenate((fixed, xg[:, n + 1:], dev[:, 0::5]), axis=1)
        flow = np.concatenate((cur, -cur), axis=1)[:, g.end_flow]
        fe = np.bincount(self.end_index[: flow.size], weights=flow.ravel(),
                         minlength=rows * (n + 1)).reshape(rows, n + 1)
        se = np.zeros((rows, n + 1))
        se[:, g.end_nodes] = np.maximum.reduceat(np.abs(flow), g.end_starts, axis=1)
        fe[:, g.gmin_rows + 1] += self.gmin * xg[:, g.gmin_rows + 1]
        F = np.concatenate((fe[:, 1:], dv[:, self.vsrc] - e), axis=1)
        scale = np.concatenate((se[:, 1:], np.abs(e)), axis=1)

        entries = np.concatenate((j_base, g.mos_sign * dev[:, g.mos_value]), axis=1)
        J = np.bincount(self.jac_index[: entries.size], weights=entries.ravel())
        return F, J.reshape(rows, g.size, g.size), scale

    def excess(self, F: np.ndarray, scale: np.ndarray) -> np.ndarray:
        """Each member's largest residual above its tolerance."""
        return self.systems[0].excess(F, scale).max(axis=1)


def _source_values(systems: Sequence[_System], t: Sequence[float]) -> np.ndarray:
    """Each system's scaled source values at its own time, one row each:
    the current sources, then the voltage sources."""
    rows = [[src.spec.value_at(tb) for src in (*sys.g.isources, *sys.g.vsources)]
            for sys, tb in zip(systems, np.asarray(t, dtype=float).tolist())]
    scale = np.array([sys.scale for sys in systems])
    return scale[:, None] * np.array(rows).reshape(len(rows), -1)


def _solve_each(J: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Batched dense LU solves; a member whose matrix is singular gets NaN."""
    try:
        return np.linalg.solve(J, rhs[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        dx = np.full_like(rhs, np.nan)
        for k in range(len(J)):
            try:
                dx[k] = np.linalg.solve(J[k], rhs[k])
            except np.linalg.LinAlgError:
                pass
        return dx


def _newton_lockstep(stack: _Lockstep, X: np.ndarray, src: np.ndarray, cap_ieq: np.ndarray):
    """``_newton`` for every member of a stack at once, each with its own
    row of source values and capacitor history.

    Each member's iterates, update count and residual are the ones
    ``_newton`` gives it alone: a member leaves the batch when it converges,
    and one that fails (iteration cap, non-finite assembly, singular or
    non-finite step) is flagged instead of raising.  Returns (x, iterations,
    residual_excess, failed), one row per member.
    """
    g, opt = stack.g, stack.opt
    n, rows, clamp = g.n, g.gmin_rows, VSTEP_CLAMP
    count = len(X)
    out = X.copy()
    iters = np.zeros(count, dtype=int)
    excess = np.full(count, np.nan)
    failed = np.zeros(count, dtype=bool)
    ni = len(g.isources)
    per_member = (stack.coef, stack.j_base, stack.devices,
                  np.concatenate((cap_ieq, src[:, :ni]), axis=1), src[:, ni:])
    members = np.arange(count)  # the ones still iterating, and their state
    xg = np.concatenate((np.zeros((count, 1)), X), axis=1)
    for iteration in range(opt.max_newton_iters + 1):
        F, J, scale = stack.assemble(xg, *per_member)
        finite = np.isfinite(F).all(axis=1) & np.isfinite(J.reshape(len(J), -1)).all(axis=1)
        exc = stack.excess(F, scale)
        dx = _solve_each(J, -F)
        vmax = np.abs(xg[:, 1: n + 1]).max(axis=1, initial=0.0)
        dv = np.abs(dx[:, :n]).max(axis=1, initial=0.0)
        conv = finite & (exc <= 0.0) & (dv < opt.vntol + opt.reltol * vmax)
        fail = ~conv & (~finite | ~np.isfinite(dx).all(axis=1)
                        | (iteration == opt.max_newton_iters))
        if conv.any():
            done = members[conv]
            out[done], iters[done], excess[done] = xg[conv, 1:], iteration, exc[conv]
        failed[members[fail]] = True
        going = ~(conv | fail)
        if not going.all():
            if not going.any():
                break
            members, xg, dx = members[going], xg[going], dx[going]
            per_member = tuple(a[going] for a in per_member)
        dx[:, rows] = np.clip(dx[:, rows], -clamp, clamp)
        xg[:, 1:] += dx
    return out, iters, excess, failed


def _kernel(systems: Sequence[_System]):
    """The (stack, newton) pair that solves ``systems`` together: the scalar
    ``_newton`` for one system, ``_newton_lockstep`` for several (on this
    small system the batched kernel costs twice the scalar one at one
    member)."""
    if len(systems) > 1:
        return _Lockstep(systems), _newton_lockstep
    return list(systems), _newton_each


def _newton_each(systems: Sequence[_System], X: np.ndarray, src: np.ndarray, cap_ieq: np.ndarray):
    """The scalar ``_newton`` member by member, with ``_newton_lockstep``'s result."""
    X = X.copy()
    iters = np.zeros(len(X), dtype=int)
    excess = np.zeros(len(X))
    failed = np.zeros(len(X), dtype=bool)
    for j, sys in enumerate(systems):
        try:
            X[j], iters[j], excess[j] = _newton(sys, X[j], src[j], cap_ieq[j])
        except (NonConvergenceError, SingularMatrixError):
            failed[j] = True
    return X, iters, excess, failed


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
    x, iters, excess = _newton(sys, x0, _source_values([sys], [0.0])[0],
                               np.zeros(graph.cap_c.size))
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
    try:
        return newton_solve(graph, initial_guess, options)
    except (NonConvergenceError, SingularMatrixError) as exc:
        plain = f"plain: {exc}"
    return _homotopies(graph, options, [plain])


def _homotopies(graph: CircuitGraph, options: SolverOptions, log: list[str]) -> OperatingPoint:
    """``solve_dc`` after its plain Newton solve failed (as ``log`` says):
    gmin stepping, then source stepping, each from zeros."""
    homotopies = {
        "gmin stepping": [
            {"gmin_override": float(gval)}
            for gval in np.geomspace(1e-2, options.gmin, GMIN_STEPS + 1)
        ],
        "source stepping": [
            {"source_scale": float(scale)}
            for scale in np.linspace(1.0 / SOURCE_STEPS, 1.0, SOURCE_STEPS)
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


def sweep_values(start: float, stop: float, step: float) -> list[float]:
    """``start``, ``start + step``, ... up to ``stop``, the last step clamped to it."""
    check_sweep_step(start, stop, step)
    if start == stop:
        return [start]
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

    Each point is ``solve_dc`` of the circuit with the source held at that
    value.  Non-convergent points are recorded (``converged=False``, NaN
    vectors) and the sweep continues from the last converged point.
    """
    name = graph.find_source(source_name).name  # KeyError if unknown
    values = sweep_values(start, stop, step)
    try:
        first = solve_dc(graph.with_source(name, values[0]), options)
    except (NonConvergenceError, SingularMatrixError):
        first = None
    sweep = dc_sweep_lockstep([graph], name, values, options, [first])
    n = graph.n
    return [
        (value, OperatingPoint(
            voltages=sweep.x[k, 0, :n],
            branch_currents=sweep.x[k, 0, n:],
            converged=bool(sweep.converged[k, 0]),
            iterations=int(sweep.iterations[k, 0]),
            residual_excess=float(sweep.residual_excess[k, 0]),
        ))
        for k, value in enumerate(values)
    ]


@dataclass(frozen=True)
class SweepRecord:
    """DC sweeps of several circuits, indexed [point, member]."""

    x: np.ndarray  # (points, members, size) unknowns; NaN where not converged
    converged: np.ndarray
    iterations: np.ndarray
    residual_excess: np.ndarray


def dc_sweep_lockstep(
    graphs: Sequence[CircuitGraph],
    source_name: str,
    values: Sequence[float],
    options: SolverOptions,
    firsts: Sequence[OperatingPoint | None],
) -> SweepRecord:
    """DC sweeps of one source through circuits that share one topology, solved together.

    Member b's point at ``values[0]`` is ``firsts[b]`` (None if it did not
    converge).  Each later value is one Newton solve for every member, from
    the member's own last converged point (zeros before it has one), on
    ``_kernel``.
    A member that fails there gets ``solve_dc``'s homotopies; if they fail
    too, its point is not converged.  Each member's points are the ones
    ``dc_sweep`` gives it alone.
    """
    if not graphs or len(firsts) != len(graphs):
        raise ValueError("need one first point per graph, and at least one graph")
    if not all(_same_topology(graphs[0], g) for g in graphs[1:]):
        raise ValueError("lockstep members must share one topology")
    count, points, size = len(graphs), len(values), graphs[0].size
    systems = [_System(gr, options) for gr in graphs]
    src = _source_values(systems, [0.0] * count)
    members = np.arange(count)
    # each member's column of the swept source in ``src``
    held = [(*gr.isources, *gr.vsources).index(gr.find_source(source_name)) for gr in graphs]
    sweep = SweepRecord(
        x=np.full((points, count, size), np.nan),
        converged=np.zeros((points, count), dtype=bool),
        iterations=np.zeros((points, count), dtype=int),
        residual_excess=np.full((points, count), np.nan),
    )
    last = np.zeros((count, size))  # each member's last converged point
    for b, op in enumerate(firsts):
        if op is not None:
            last[b] = np.concatenate((op.voltages, op.branch_currents))
            sweep.x[0, b] = last[b]
            sweep.converged[0, b] = True
            sweep.iterations[0, b], sweep.residual_excess[0, b] = op.iterations, op.residual_excess
    kernel, newton = _kernel(systems)
    cap_ieq = np.zeros((count, graphs[0].cap_c.size))
    for k in range(1, points):
        src[members, held] = values[k]
        xs, iters, excess, failed = newton(kernel, last, src, cap_ieq)
        for b in np.flatnonzero(failed):
            graph = graphs[b].with_source(source_name, values[k])
            try:
                op = _homotopies(graph, options, [])
            except NonConvergenceError:
                continue
            xs[b] = np.concatenate((op.voltages, op.branch_currents))
            iters[b], excess[b], failed[b] = op.iterations, op.residual_excess, False
        ok = ~failed
        last[ok] = xs[ok]
        sweep.x[k, ok] = xs[ok]
        sweep.converged[k] = ok
        sweep.iterations[k, ok] = iters[ok]
        sweep.residual_excess[k, ok] = excess[ok]
    return sweep


def _steps(topts: TransientOptions) -> int:
    return int(math.floor(topts.tstop / topts.tstep + 1e-9))


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
    if topts.ic == "from_op":
        start = solve_dc(graph, sopts)
    else:
        start = OperatingPoint(np.zeros(graph.n), np.zeros(graph.m), converged=True,
                               iterations=0, residual_excess=float("-inf"))
    (ws,) = _march([graph], [topts], sopts, [start], voltages=True)
    if isinstance(ws, TransientNonConvergence):
        raise ws
    return ws


def _same_topology(a: CircuitGraph, b: CircuitGraph) -> bool:
    tables = ("branch_a", "branch_b", "end_node", "end_flow", "gmin_rows", "mos_terms",
              "jac_index", "mos_value", "mos_sign")
    return (
        (a.n, a.size, a.res_g.size, a.cap_c.size, len(a.isources))
        == (b.n, b.size, b.res_g.size, b.cap_c.size, len(b.isources))
        and all(np.array_equal(getattr(a, name), getattr(b, name)) for name in tables)
    )


def solve_lockstep(
    graphs: Sequence[CircuitGraph],
    topts: Sequence[TransientOptions],
    sopts: SolverOptions,
    starts: Sequence[OperatingPoint],
) -> list[WaveformSet | TransientNonConvergence]:
    """Fixed-step transients of circuits that share one topology, stepped together.

    Member b starts from ``starts[b]`` (its t=0 state, whose iterations and
    residual count in its stats) and steps with ``topts[b]``; every member
    takes the same number of steps.  Each member's waveforms and stats are
    the ones ``solve_transient`` gives it alone, except that only the
    voltage-source branch currents (and the current-source waveforms) are
    recorded, not the node voltages.  A member whose step fails even after a
    gmin-stepping rescue gets its TransientNonConvergence, with its partial
    record, in place of its waveforms; the others go on.
    """
    if not len(graphs) == len(topts) == len(starts):
        raise ValueError("need one TransientOptions and one start per graph")
    if not graphs:
        return []
    if not all(_same_topology(graphs[0], g) for g in graphs[1:]):
        raise ValueError("lockstep members must share one topology")
    if len({_steps(o) for o in topts}) > 1:
        raise ValueError("lockstep members must take the same number of steps")
    return _march(graphs, topts, sopts, starts, voltages=False)


def _march(graphs, topts, sopts, starts, voltages: bool) -> list:
    """The time loop of ``solve_transient`` and ``solve_lockstep``.

    Each step makes one Newton solve for every running member, on the
    ``_kernel`` of the running set.  A member that fails gets the scalar
    ``_rescue_step`` from its state at the start of the step, and stops with
    a TransientNonConvergence if that fails too.  Records every unknown, or
    with ``voltages`` false only the branch currents.
    """
    g = graphs[0]
    n, count = g.n, len(graphs)
    h = np.array([o.tstep for o in topts])
    nsteps = _steps(topts[0])
    first = 0 if voltages else n  # the first recorded unknown
    x = np.array([np.concatenate((op.voltages, op.branch_currents)) for op in starts])
    max_excess = np.array([op.residual_excess for op in starts])
    total_iters = np.array([op.iterations for op in starts])
    record = np.empty((nsteps + 1, count, g.size - first))
    record[0] = x[:, first:]

    caps = slice(g.res_g.size, g.res_g.size + g.cap_c.size)
    cap_a, cap_b = g.branch_a[caps], g.branch_b[caps]

    def cap_voltage(x: np.ndarray) -> np.ndarray:
        V = np.concatenate((np.zeros((count, 1)), x[:, :n]), axis=1)
        return V[:, cap_a] - V[:, cap_b]

    v_prev = cap_voltage(x)
    i_prev = np.zeros_like(v_prev)

    # backward Euler for the first step, trapezoidal after it
    phases = [[_System(gr, sopts, alpha=a / o.tstep) for gr, o in zip(graphs, topts)]
              for a in (1.0, 2.0)]
    cap_geq = [np.array([sys.cap_geq for sys in systems]) for systems in phases]
    kernels = {}  # (phase, members still running) -> their ``_kernel``
    running = np.arange(count)
    results: list = [None] * count
    # time bases and source waveforms, built once for the members that share them
    built: dict[tuple, np.ndarray] = {}

    def shared(key: tuple, make) -> np.ndarray:
        if key not in built:
            built[key] = make()
            built[key].flags.writeable = False
        return built[key]

    def waveforms(b: int, upto: int) -> WaveformSet:
        gr, h_b = graphs[b], topts[b].tstep
        ws = WaveformSet(shared_time=True)
        ws.stats["max_kcl_excess"] = float(max_excess[b])
        ws.stats["newton_iterations"] = int(total_iters[b])
        ws.stats["steps"] = upto
        ws.stats["tstep"] = h_b
        if upto < 1:  # failed on the very first step: no valid waveforms yet
            return ws
        times = shared((h_b, upto), lambda: np.arange(upto + 1) * h_b)
        columns = [(f"v({name})", "V") for name in gr.node_names[1:]]
        columns += [(f"i({src.name})", "A") for src in gr.vsources]
        for (name, unit), values in zip(columns[first:], record[: upto + 1, b].T):
            ws.waveforms.append(Waveform(name, times, values))
            ws.units[name] = unit
        for src in gr.isources:
            name = f"i({src.name})"
            vals = shared((src.spec, h_b, upto),
                          lambda: np.array([src.spec.value_at(t) for t in times]))
            ws.waveforms.append(Waveform(name, times, vals))
            ws.units[name] = "A"
        return ws

    for k in range(1, nsteps + 1):
        t = k * h
        phase = min(k, 2) - 1
        systems = phases[phase]
        # the backward-Euler step starts from i_prev = 0
        cap_ieq = -cap_geq[phase] * v_prev - i_prev
        key = (phase, running.size)  # running members only ever leave
        if key not in kernels:
            kernels[key] = _kernel([systems[b] for b in running])
        stack, newton = kernels[key]
        sel = running if running.size < count else slice(None)
        src = _source_values(systems, t)
        xs, iters, excess, failed = newton(stack, x[sel], src[sel], cap_ieq[sel])
        if failed.any():
            for j in np.flatnonzero(failed):
                b = running[j]
                try:
                    xs[j], iters[j], excess[j] = _rescue_step(systems[b], x[b], src[b], cap_ieq[b])
                except (NonConvergenceError, SingularMatrixError) as exc:
                    results[b] = TransientNonConvergence(float(t[b]), waveforms(b, k - 1), exc)
                    results[b].__cause__ = exc
            ok = np.array([results[b] is None for b in running])
            running, xs, iters, excess = running[ok], xs[ok], iters[ok], excess[ok]
            if not running.size:
                break
            sel = running
        x[sel] = xs
        total_iters[sel] += iters
        max_excess[sel] = np.maximum(max_excess[sel], excess)
        record[k] = x[:, first:]
        v_new = cap_voltage(x)
        i_prev = cap_geq[phase] * v_new + cap_ieq
        v_prev = v_new
    for b in running:
        results[b] = waveforms(b, nsteps)
    return results


def _rescue_step(sys: _System, x0: np.ndarray, src: np.ndarray, cap_ieq: np.ndarray):
    """gmin-stepping homotopy for a stubborn transient step (source values
    ``src``, capacitor history ``cap_ieq``).

    Each stage solves in a fresh context whose gmin steps one decade from
    1e-2 S down to the step's own gmin.
    """
    x = x0
    iters_total = 0
    for gval in np.geomspace(1e-2, sys.gmin, GMIN_STEPS + 1):
        stage = _System(sys.g, sys.opt, source_scale=sys.scale, gmin=float(gval), alpha=sys.alpha)
        x, iters, excess = _newton(stage, x, src, cap_ieq)
        iters_total += iters
    return x, iters_total, excess

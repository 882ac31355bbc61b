"""MOSFET compact model: parameter derivation and bias-point evaluation.

The evaluated model is a documented subset of the level-3 card it is fed
from: square-law conduction, body effect (GAMMA/PHI), THETA mobility
degradation, constant overlap capacitances and standard temperature laws
(-2 mV/degC threshold drift, T^-1.5 mobility scaling).  Card parameters
outside this subset (NSUB, DELTA, ETA, VMAX, KAPPA, RSH, NFS, TPG, XJ, WD
and the junction-capacitance group) are parsed and retained but not
evaluated.  There is no channel-length-modulation term: saturation output
conductance comes only from the solver's gmin.  ``eval_mosfet_into``
evaluates the model over arrays of bias points; ``eval_mosfet`` is its
one-point form.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .netlist import ModelCard

# oxide permittivity, F/m
EPS_OX = 3.45313e-11
# nominal temperature for the mobility law (27 degC), kelvin
TNOM_K = 300.15
# threshold drift, V per degC (magnitude shrinks with temperature)
VTH_TC = 2.0e-3
_SWAP_SHIFT = np.array([1.0, 2.0, 1.0])  # (vgs, vds, vbs) shifts, in vds, of a swapped device


@dataclass(frozen=True, slots=True)
class MosfetParams:
    """Geometry- and temperature-resolved device parameters."""

    polarity: str  # "NMOS" | "PMOS"
    vth0: float  # V, signed (negative for PMOS)
    gamma: float  # V^0.5
    phi: float  # V
    kp_eff: float  # A/V^2, temperature-adjusted
    theta: float  # 1/V
    w: float  # m
    leff: float  # m
    cgdo_f: float  # F, absolute gate-drain overlap
    cgso_f: float  # F, absolute gate-source overlap
    cgbo_f: float  # F, absolute gate-bulk overlap
    temp: float  # degC


@dataclass(frozen=True, slots=True)
class DeviceEval:
    """Drain current and its exact partial derivatives at one bias point."""

    id: float  # A, conventional drain->source current
    gm: float  # A/V, d(id)/d(vgs)
    gds: float  # A/V, d(id)/d(vds)
    gmbs: float  # A/V, d(id)/d(vbs)


class MissingModelParameter(ValueError):
    pass


def derive_params(card: ModelCard, w: float, l: float, temp: float) -> MosfetParams:
    """Resolve a model card plus geometry and temperature into device parameters.

    Requires VTO and at least one of KP or (UO with TOX).  UO is taken in the
    SPICE card unit of cm^2/(V*s) and converted to SI before multiplying by
    the oxide capacitance; KP takes precedence when both are present.
    """
    if not -50.0 <= temp <= 150.0:
        raise ValueError(f"temperature {temp} degC outside supported range [-50, 150]")
    p = card.params
    if "VTO" not in p:
        raise MissingModelParameter(f"model {card.name}: VTO is required")
    if not w > 0:
        raise ValueError(f"W must be > 0 (got {w})")
    ld = p.get("LD", 0.0)
    leff = l - 2.0 * ld
    if leff <= 0:
        raise ValueError(f"model {card.name}: L - 2*LD must be > 0 (got {leff})")
    if "KP" in p:
        kp = p["KP"]
    elif "UO" in p and "TOX" in p:
        cox = EPS_OX / p["TOX"]
        kp = p["UO"] * 1e-4 * cox
    else:
        raise MissingModelParameter(
            f"model {card.name}: need KP, or UO together with TOX"
        )
    t_k = temp + 273.15
    kp_eff = kp * (t_k / TNOM_K) ** -1.5
    vto = p["VTO"]
    if card.polarity == "NMOS":
        vth0 = vto - VTH_TC * (temp - 27.0)
    else:
        vth0 = vto + VTH_TC * (temp - 27.0)
    if kp_eff <= 0:
        raise ValueError(f"model {card.name}: non-positive transconductance")
    return MosfetParams(
        polarity=card.polarity,
        vth0=vth0,
        gamma=p.get("GAMMA", 0.0),
        phi=p.get("PHI", 0.7),
        kp_eff=kp_eff,
        theta=p.get("THETA", 0.0),
        w=w,
        leff=leff,
        cgdo_f=p.get("CGDO", 0.0) * w,
        cgso_f=p.get("CGSO", 0.0) * w,
        cgbo_f=p.get("CGBO", 0.0) * leff,
        temp=temp,
    )


def overlap_caps(p: MosfetParams) -> tuple[float, float, float]:
    """Constant (gate-drain, gate-source, gate-bulk) capacitances in farads."""
    return (p.cgdo_f, p.cgso_f, p.cgbo_f)


def device_table(params: Sequence[MosfetParams]) -> np.ndarray:
    """The per-device constants of ``eval_mosfet_into`` as a (10, devices) table.

    Rows: polarity sign (-1 for PMOS), threshold with that sign folded in,
    gamma, phi, the vbs clamp phi - 1e-6, sqrt(phi), beta = kp_eff *
    (w / leff), 0.5 * beta, theta and -theta.
    """
    rows = []
    for p in params:
        sign = -1.0 if p.polarity == "PMOS" else 1.0
        beta = p.kp_eff * (p.w / p.leff)
        rows.append((sign, -p.vth0 if sign < 0 else p.vth0, p.gamma, p.phi,
                     p.phi - 1e-6, math.sqrt(p.phi), beta, 0.5 * beta, p.theta, -p.theta))
    return np.array(rows).reshape(-1, 10).T


def eval_mosfet_into(table, bias: np.ndarray, out: np.ndarray) -> None:
    """Drain current and its exact partials over arrays of bias points, into ``out``.

    ``bias`` stacks vgs, vds and vbs, and each ``device_table`` row in
    ``table`` broadcasts against one of them.  ``out`` is (5,) + the bias
    shape: id, gm, gds, gmbs and gm + gds + gmbs.  A PMOS device runs the
    NMOS equations on negated voltages and negates the current, and a
    negative (effective) vds swaps source and drain; the conductances come
    out positive either way.  Each value is elementwise in its own bias point
    (the only function is the correctly rounded sqrt), so it does not depend
    on the shape it is evaluated in.  Both branches of every condition are
    computed and the unused ones may overflow, so the caller ignores
    floating-point errors.
    """
    sign, vth0, gamma, phi, lim, sqrt_phi, beta, half_beta, theta, neg_theta = table
    b = sign * bias
    rev = b[1] < 0.0  # evaluated with source and drain swapped
    # the swapped device sees (vgs - vds, -vds, vbs - vds); x - 0.0 is x and
    # vds - 2*vds is -vds exactly
    b -= np.multiply.outer(_SWAP_SHIFT, np.where(rev, b[1], 0.0))
    vgs, vds, vbs = b
    sq = np.sqrt(phi - np.minimum(vbs, lim))
    vov = vgs - (vth0 + gamma * (sq - sqrt_phi))
    u = 1.0 / (1.0 + theta * vov)
    du = neg_theta * u * u
    beta_u = beta * u
    core = vov * vds - 0.5 * vds * vds
    fwd = np.zeros((4,) + vov.shape)  # the forward device's id, gm, gds, gmbs: saturated,
    np.multiply(half_beta * u * vov, vov, out=fwd[0])
    np.multiply(half_beta * vov, du * vov + 2.0 * u, out=fwd[1])
    tri = np.empty((3,) + vov.shape)  # and in triode, where vds < vov
    np.multiply(beta_u, core, out=tri[0])
    np.multiply(beta, du * core + u * vds, out=tri[1])
    np.multiply(beta_u, vov - vds, out=tri[2])
    np.copyto(fwd[:3], tri, where=vds < vov)
    # gmbs = -dvth * dvov, dvth = d vth / d vbs = -gamma / (2 sq), and 0.0 past the clamp
    np.multiply(np.where(vbs < lim, gamma / (2.0 * sq), -0.0), fwd[1], out=fwd[3])
    fwd = np.where(vov > 0.0, fwd, 0.0)  # all zero in cutoff
    out[:4] = fwd
    np.negative(fwd, out=out[:4], where=rev)  # the swapped device's id, gm and gmbs,
    np.add(fwd[1] + fwd[2], fwd[3], out=out[2], where=rev)  # and its gds
    out[0] *= sign
    np.add(out[1] + out[2], out[3], out=out[4])


def eval_mosfet(p: MosfetParams, vgs: float, vds: float, vbs: float) -> DeviceEval:
    """``eval_mosfet_into`` at one bias point."""
    if not (math.isfinite(vgs) and math.isfinite(vds) and math.isfinite(vbs)):
        raise ValueError(f"non-finite bias point ({vgs}, {vds}, {vbs})")
    out = np.empty((5, 1))
    with np.errstate(all="ignore"):
        eval_mosfet_into(device_table([p]), np.array([[vgs], [vds], [vbs]], dtype=float), out)
    return DeviceEval(*out[:4, 0].tolist())

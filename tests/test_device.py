"""Device model tests: parameter derivation, bias evaluation, properties.

Golden current values were frozen from an independent straight-line
evaluation of the documented equations (see _reference_id below, which
reimplements them without sharing code with the package).  _scalar_eval is
a second transcription, branch by branch in Python floats, that the array
kernel must match bit for bit.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amps.device import (
    EPS_OX,
    DeviceEval,
    MissingModelParameter,
    derive_params,
    device_table,
    eval_mosfet,
    eval_mosfet_into,
    overlap_caps,
)
from amps.netlist import parse_model_card, parse_netlist
from amps.rectifier import MODEL_CARDS

W, L = 1.5e-6, 0.15e-6

_DOC = parse_netlist("cards\n" + MODEL_CARDS + "\n.END\n")
CMOSN = _DOC.models["CMOSN"]
CMOSP = _DOC.models["CMOSP"]


def _reference_id(card, w, l, temp, vgs, vds, vbs):
    """Independent oracle: literal transcription of the documented equations.

    NMOS only, vds >= 0, conduction assumed checked by the caller.
    """
    p = card.params
    leff = l - 2.0 * p["LD"]
    kp = p["KP"] * ((temp + 273.15) / 300.15) ** -1.5
    vth0 = p["VTO"] - 2.0e-3 * (temp - 27.0)
    vbs_c = min(vbs, p["PHI"] - 1e-6)
    vth = vth0 + p["GAMMA"] * (math.sqrt(p["PHI"] - vbs_c) - math.sqrt(p["PHI"]))
    vov = vgs - vth
    if vov <= 0:
        return 0.0
    u = 1.0 / (1.0 + p["THETA"] * vov)
    if vds < vov:
        return kp * u * (w / leff) * (vov * vds - vds * vds / 2.0)
    return 0.5 * kp * u * (w / leff) * vov * vov


def _scalar_forward(vth0, gamma, phi, beta, theta, vgs, vds, vbs):
    """Normalized NMOS evaluation, vds >= 0: (id, d/dvgs, d/dvds, d/dvbs)."""
    vbs_c = vbs if vbs < phi - 1e-6 else phi - 1e-6
    sq = math.sqrt(phi - vbs_c)
    vth = vth0 + gamma * (sq - math.sqrt(phi))
    # dvth/dvbs, zero past the clamp
    dvth = -gamma / (2.0 * sq) if vbs < phi - 1e-6 else 0.0
    vov = vgs - vth
    if vov <= 0.0:
        return (0.0, 0.0, 0.0, 0.0)
    u = 1.0 / (1.0 + theta * vov)
    du = -theta * u * u  # du/dvov
    if vds < vov:
        core = vov * vds - 0.5 * vds * vds
        cur = beta * u * core
        dvov = beta * (du * core + u * vds)
        gds = beta * u * (vov - vds)
    else:
        cur = 0.5 * beta * u * vov * vov
        dvov = 0.5 * beta * vov * (du * vov + 2.0 * u)
        gds = 0.0
    # vov = vgs - vth(vbs):  d/dvgs = dvov,  d/dvbs = -dvth * dvov
    return (cur, dvov, gds, -dvth * dvov)


def _scalar_eval(p, vgs, vds, vbs):
    """(id, gm, gds, gmbs) of one device at one bias point.

    PMOS runs the NMOS equations on negated voltages and negates the
    current; a negative (effective) vds swaps source and drain.
    """
    pmos = p.polarity == "PMOS"
    if pmos:
        vgs, vds, vbs = -vgs, -vds, -vbs
    vth0 = -p.vth0 if pmos else p.vth0
    beta = p.kp_eff * (p.w / p.leff)
    if vds >= 0.0:
        cur, gm, gds, gmbs = _scalar_forward(vth0, p.gamma, p.phi, beta, p.theta, vgs, vds, vbs)
    else:
        c, g_m, g_ds, g_mbs = _scalar_forward(
            vth0, p.gamma, p.phi, beta, p.theta, vgs - vds, -vds, vbs - vds
        )
        cur, gm, gds, gmbs = -c, -g_m, g_m + g_ds + g_mbs, -g_mbs
    return (-cur if pmos else cur, gm, gds, gmbs)


# ---------------------------------------------------------------------------
# derive_params
# ---------------------------------------------------------------------------


def test_kp_precedence_and_leff():
    p = derive_params(CMOSN, W, L, 27.0)
    assert p.kp_eff == 1.259355e-4  # KP wins over UO*Cox at nominal temp
    assert p.leff == pytest.approx(1.5e-7 - 2e-13, rel=1e-15)
    assert p.vth0 == 0.7640855


def test_vth0_at_100c():
    p = derive_params(CMOSN, W, L, 100.0)
    assert p.vth0 == pytest.approx(0.7640855 - 2.0e-3 * 73.0, abs=1e-15)
    assert p.vth0 == pytest.approx(0.6180855, abs=1e-15)


def test_kp_temperature_scaling():
    p = derive_params(CMOSN, W, L, 100.0)
    assert p.kp_eff == pytest.approx(9.085116974308076e-05, rel=1e-12)


def test_pmos_threshold_shrinks_toward_zero():
    p27 = derive_params(CMOSP, W, L, 27.0)
    p100 = derive_params(CMOSP, W, L, 100.0)
    assert p27.vth0 == -0.9444911
    assert p100.vth0 == pytest.approx(-0.9444911 + 2.0e-3 * 73.0, abs=1e-15)


def test_uo_cox_fallback():
    card = parse_model_card(".MODEL NOKP NMOS VTO=0.7 UO=600 TOX=1.4E-8")
    p = derive_params(card, W, L, 27.0)
    assert p.kp_eff == pytest.approx(600e-4 * EPS_OX / 1.4e-8, rel=1e-12)


def test_missing_required_keys():
    with pytest.raises(MissingModelParameter, match="VTO"):
        derive_params(parse_model_card(".MODEL X NMOS KP=1e-4"), W, L, 27.0)
    with pytest.raises(MissingModelParameter, match="KP"):
        derive_params(parse_model_card(".MODEL X NMOS VTO=0.7"), W, L, 27.0)


def test_nonpositive_leff():
    card = parse_model_card(".MODEL X NMOS VTO=0.7 KP=1e-4 LD=1u")
    with pytest.raises(ValueError, match="L - 2\\*LD"):
        derive_params(card, W, 1e-6, 27.0)


@pytest.mark.parametrize("w", [0.0, -1e-6, -0.0])
def test_nonpositive_width(w):
    with pytest.raises(ValueError, match="W must be > 0"):
        derive_params(CMOSN, w, L, 27.0)


def test_temperature_range():
    with pytest.raises(ValueError, match="temperature"):
        derive_params(CMOSN, W, L, 200.0)


# ---------------------------------------------------------------------------
# overlap caps
# ---------------------------------------------------------------------------


def test_overlap_caps_cmosn():
    cgd, cgs, cgb = overlap_caps(derive_params(CMOSN, W, L, 27.0))
    assert cgd == pytest.approx(2.15e-10 * 1.5e-6, rel=1e-15)
    assert cgd == pytest.approx(3.225e-16, rel=1e-12)
    assert cgs == cgd
    assert cgb == pytest.approx(1e-10 * (1.5e-7 - 2e-13), rel=1e-12)


def test_overlap_caps_cmosp():
    cgd, _, _ = overlap_caps(derive_params(CMOSP, W, L, 27.0))
    assert cgd == pytest.approx(2.34e-10 * 1.5e-6, rel=1e-15)




# ---------------------------------------------------------------------------
# eval_mosfet
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def nmos():
    return derive_params(CMOSN, W, L, 27.0)


@pytest.fixture(scope="module")
def pmos():
    return derive_params(CMOSP, W, L, 27.0)


def test_cutoff(nmos):
    ev = eval_mosfet(nmos, 0.5, 1.0, 0.0)
    assert ev.id == ev.gm == ev.gds == 0.0


def test_vds_zero_gives_zero_current(nmos):
    ev = eval_mosfet(nmos, 1.5, 0.0, 0.0)
    assert ev.id == 0.0
    assert ev.gds > 0.0  # triode


def test_golden_saturation_point(nmos):
    # frozen from the independent evaluation of the closed form
    ev = eval_mosfet(nmos, 1.5, 1.5, 0.0)
    assert ev.id == pytest.approx(3.173349350531519e-04, rel=1e-12)
    assert ev.id == pytest.approx(_reference_id(CMOSN, W, L, 27.0, 1.5, 1.5, 0.0), rel=1e-15)
    assert ev.gds == 0.0  # no channel-length modulation


def test_golden_triode_point(nmos):
    ev = eval_mosfet(nmos, 1.2, 0.2, -0.5)
    assert ev.gds > 0.0  # triode
    assert ev.id == pytest.approx(4.7450484147416034e-05, rel=1e-12)
    assert ev.id == pytest.approx(_reference_id(CMOSN, W, L, 27.0, 1.2, 0.2, -0.5), rel=1e-15)
    assert ev.gds >= 0.0


def test_nonfinite_bias_rejected(nmos):
    with pytest.raises(ValueError, match="non-finite"):
        eval_mosfet(nmos, float("nan"), 0.0, 0.0)


def test_triode_saturation_continuity(nmos):
    eps = 1e-9
    vgs, vbs = 1.5, 0.0
    ev_probe = eval_mosfet(nmos, vgs, 2.0, vbs)
    # recover vov from the device itself: boundary is vds == vov
    vth = 0.7640855
    vov = vgs - vth
    lo = eval_mosfet(nmos, vgs, vov - eps, vbs)
    hi = eval_mosfet(nmos, vgs, vov + eps, vbs)
    assert lo.gds > 0.0 and hi.gds == 0.0  # triode below the boundary, saturation above
    assert abs(lo.id - hi.id) < 1e-12
    assert ev_probe.gds == 0.0  # saturation


def test_reverse_conduction_swaps_roles(nmos):
    fwd = eval_mosfet(nmos, 1.5, 0.8, 0.0)
    # same channel seen from the other side: vgs' = vgs - vds, vbs' = vbs - vds
    rev = eval_mosfet(nmos, 1.5 - 0.8, -0.8, -0.8)
    assert rev.id == pytest.approx(-fwd.id, rel=1e-12)


def _fd_check(params, rng, n_points):
    """Central finite differences vs analytic partials away from boundaries."""
    step = 1e-6
    checked = 0
    while checked < n_points:
        vgs = rng.uniform(-2.0, 2.5)
        vds = rng.uniform(-2.0, 2.5)
        vbs = rng.uniform(-2.0, 0.4)
        # normalized frame for boundary distance checks
        sign = -1.0 if params.polarity == "PMOS" else 1.0
        g, d, b = sign * vgs, sign * vds, sign * vbs
        if d < 0:
            g, d, b = g - d, -d, b - d
        vth0 = abs(params.vth0)
        vbs_c = min(b, params.phi - 1e-6)
        vth = vth0 + params.gamma * (
            math.sqrt(params.phi - vbs_c) - math.sqrt(params.phi)
        )
        vov = g - vth
        margin = 1e-3
        if abs(vov) < margin or abs(d - vov) < margin or abs(d) < margin:
            continue
        if b > params.phi - 1e-6 - margin:
            continue
        ev = eval_mosfet(params, vgs, vds, vbs)
        for axis, analytic in (("vgs", ev.gm), ("vds", ev.gds), ("vbs", ev.gmbs)):
            args = {"vgs": vgs, "vds": vds, "vbs": vbs}
            hi = dict(args)
            lo = dict(args)
            hi[axis] += step
            lo[axis] -= step
            fd = (eval_mosfet(params, **hi).id - eval_mosfet(params, **lo).id) / (2 * step)
            assert analytic == pytest.approx(fd, rel=1e-4, abs=1e-9), (
                f"{params.polarity} d(id)/d({axis}) at {args}"
            )
        checked += 1


def test_derivatives_match_finite_differences_nmos(nmos):
    _fd_check(nmos, np.random.default_rng(42), 100)


def test_derivatives_match_finite_differences_pmos(pmos):
    _fd_check(pmos, np.random.default_rng(43), 100)


def test_polarity_symmetry():
    # identical parameter magnitudes, opposite polarity
    n_card = parse_model_card(
        ".MODEL NN NMOS VTO=0.7640855 GAMMA=0.5483559 PHI=0.7 KP=1.259355E-4 "
        "THETA=0.1013999 LD=1E-13"
    )
    p_card = parse_model_card(
        ".MODEL PP PMOS VTO=-0.7640855 GAMMA=0.5483559 PHI=0.7 KP=1.259355E-4 "
        "THETA=0.1013999 LD=1E-13"
    )
    n = derive_params(n_card, W, L, 27.0)
    p = derive_params(p_card, W, L, 27.0)
    for vgs in np.linspace(-2, 2, 9):
        for vds in np.linspace(-2, 2, 9):
            for vbs in (-1.0, 0.0):
                e_n = eval_mosfet(n, -vgs, -vds, -vbs)
                e_p = eval_mosfet(p, vgs, vds, vbs)
                assert e_p.id == pytest.approx(-e_n.id, rel=1e-12, abs=1e-30)


@settings(max_examples=200)
@given(
    vgs1=st.floats(min_value=-1.0, max_value=3.0),
    dv=st.floats(min_value=0.0, max_value=2.0),
    vds=st.floats(min_value=0.0, max_value=3.0),
)
def test_id_monotone_in_vgs(vgs1, dv, vds):
    p = derive_params(CMOSN, W, L, 27.0)
    lo = eval_mosfet(p, vgs1, vds, 0.0)
    hi = eval_mosfet(p, vgs1 + dv, vds, 0.0)
    assert hi.id >= lo.id


@pytest.mark.parametrize("card", [CMOSN, CMOSP])
def test_temperature_behavior(card):
    cold = derive_params(card, W, L, 25.0)
    hot = derive_params(card, W, L, 100.0)
    assert abs(hot.vth0) < abs(cold.vth0)
    assert hot.kp_eff < cold.kp_eff


def test_dataclass_fields(nmos):
    ev = eval_mosfet(nmos, 1.5, 1.5, 0.0)
    assert isinstance(ev, DeviceEval)
    assert ev.gm > 0 and ev.gmbs > 0


def test_table_evaluation_bit_identical_to_scalar():
    """The kernel matches the scalar transcription bit for bit, in any shape.

    Lockstep transients equal single runs only if a point's bits do not
    depend on the batch it is evaluated in.
    """
    params = [derive_params(card, W, L, temp) for card in (CMOSN, CMOSP) for temp in (25.0, 100.0)]
    rng = np.random.default_rng(20101)
    shape = (3000, len(params))
    vgs, vds, vbs = (rng.uniform(-3.0, 3.0, shape) for _ in range(3))
    # signed zeros, and vbs exactly at the body-effect clamp phi - 1e-6
    for a in (vgs, vds, vbs):
        pick = rng.random(shape) < 0.05
        a[pick] = rng.choice([0.0, -0.0], size=pick.sum())
    lim = np.array([(-1.0 if p.polarity == "PMOS" else 1.0) * (p.phi - 1e-6) for p in params])
    vbs[:50] = lim
    ref = np.empty(shape + (5,))
    for (r, k), _ in np.ndenumerate(vgs):
        ev = _scalar_eval(params[k], float(vgs[r, k]), float(vds[r, k]), float(vbs[r, k]))
        ref[r, k] = (*ev, ev[1] + ev[2] + ev[3])
    table = device_table(params)
    for tab in (table, np.broadcast_to(table[:, None, :], (10,) + shape)):
        out = np.empty((5,) + shape)
        with np.errstate(all="ignore"):
            eval_mosfet_into(tab, np.stack((vgs, vds, vbs)), out)
        out = np.moveaxis(out, 0, -1)
        assert np.array_equal(out, ref)
        assert np.array_equal(np.signbit(out), np.signbit(ref))
    for (r, k), _ in np.ndenumerate(vgs[:100]):  # and the one-point API
        ev = eval_mosfet(params[k], float(vgs[r, k]), float(vds[r, k]), float(vbs[r, k]))
        got, want = np.array([ev.id, ev.gm, ev.gds, ev.gmbs]), ref[r, k, :4]
        assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))
    # the draws reach every branch, for both polarities
    sign = np.where(table[0] < 0, -1.0, 1.0)
    reverse = sign * vds < 0
    for k in range(len(params)):
        ids, gds = ref[:, k, 0], ref[:, k, 2]
        assert (ids == 0.0).any() and (gds > 0.0).any()  # cutoff, triode
        assert ((gds == 0.0) & (ids != 0.0)).any() and reverse[:, k].any()  # saturation
    assert np.signbit(ref[..., 0][ref[..., 0] == 0.0]).any()  # -0.0 currents

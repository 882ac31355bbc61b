"""Parser, validator and serializer tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amps.netlist import (
    MAX_RECORD_BYTES,
    MAX_STEPS,
    DcSpec,
    DcSweepDirective,
    Diagnostic,
    ElementKind,
    NetlistError,
    SinSpec,
    TranDirective,
    check_record,
    parse_model_card,
    parse_netlist,
    parse_number,
    serialize_netlist,
    validate,
)
from amps.rectifier import MODEL_CARDS, bench_netlist_path


def wrap(*cards: str) -> str:
    return "test netlist\n" + "\n".join(cards) + "\n.END\n"


# ---------------------------------------------------------------------------
# numbers
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "token,expected",
    [
        ("1", 1.0),
        ("1.5", 1.5),
        ("-3.3", -3.3),
        ("1e3", 1000.0),
        ("1.4E-8", 1.4e-8),
        ("400u", 400e-6),
        ("400uA", 4.0e-4),
        ("200U", 200e-6),
        ("2k", 2000.0),
        ("2K", 2000.0),
        ("10meg", 1e7),
        ("10MEG", 1e7),
        ("10m", 0.01),
        ("3p", 3e-12),
        ("5f", 5e-15),
        ("7n", 7e-9),
        ("2g", 2e9),
        ("1t", 1e12),
        ("1.5V", 1.5),
        ("4.7kOhm", 4700.0),
    ],
)
def test_parse_number(token, expected):
    assert parse_number(token) == pytest.approx(expected, rel=1e-15)


@pytest.mark.parametrize("token", ["", "abc", "1.2.3", "4u7", "--5", "e5", "1 k"])
def test_parse_number_malformed(token):
    with pytest.raises(ValueError):
        parse_number(token)


@settings(max_examples=300)
@given(st.floats(min_value=-1e12, max_value=1e12, allow_nan=False))
def test_kilo_suffix_scales_by_1000(x):
    plain = parse_number(repr(x))
    kilo = parse_number(f"{x!r}k")
    assert kilo == pytest.approx(1000.0 * plain, rel=1e-15)


# ---------------------------------------------------------------------------
# element cards
# ---------------------------------------------------------------------------


def test_mosfet_card_w_l():
    doc = parse_netlist(wrap("M1 d g s b CMOSN W=1.5u L=0.15u"))
    (m,) = doc.elements
    assert m.kind is ElementKind.MOSFET
    assert m.nodes == ("d", "g", "s", "b")
    assert m.model == "CMOSN"
    assert m.w == pytest.approx(1.5e-6, rel=1e-15)
    assert m.l == pytest.approx(1.5e-7, rel=1e-15)


def test_sin_current_source():
    doc = parse_netlist(wrap("Iin 0 n1 SIN(0 200u 1k)"))
    (i,) = doc.elements
    assert i.kind is ElementKind.ISOURCE
    assert i.source == SinSpec(0.0, 2e-4, 1e3)
    assert i.source.value_at(0.0) == 0.0
    quarter = 1.0 / (4 * 1e3)
    assert i.source.value_at(quarter) == pytest.approx(2e-4, rel=1e-12)


def test_dc_source_forms():
    doc = parse_netlist(wrap("V1 a 0 DC 1.5", "V2 b 0 2.5", "I1 a b DC 1m"))
    assert doc.elements[0].source == DcSpec(1.5)
    assert doc.elements[1].source == DcSpec(2.5)
    assert doc.elements[2].source == DcSpec(1e-3)


def test_title_is_first_line():
    doc = parse_netlist("my circuit title\nR1 a 0 1k\nV1 a 0 DC 1\n.END\n")
    assert doc.title == "my circuit title"


def test_continuation_and_comments():
    text = (
        "continuations\n"
        "* a comment line\n"
        "R1 a 0\n"
        "+ 1k ; trailing comment\n"
        "V1 a 0 DC 1\n"
        ".END\n"
    )
    doc = parse_netlist(text)
    assert doc.elements[0].value == 1000.0


def test_node_names_case_sensitive_keywords_not():
    doc = parse_netlist(wrap("r1 In 0 1k", "v1 in 0 dc 1"))
    assert doc.elements[0].name == "R1"
    assert "In" in doc.nodes and "in" in doc.nodes
    assert doc.nodes["In"] != doc.nodes["in"]


def test_ground_is_index_zero():
    doc = parse_netlist(wrap("R1 a b 1k", "V1 a 0 DC 1", "R2 b 0 1k"))
    assert doc.nodes["0"] == 0
    # dense, deterministic, first-appearance order
    assert doc.nodes["a"] == 1 and doc.nodes["b"] == 2


@pytest.mark.parametrize(
    "card,fragment",
    [
        ("Q1 a b c foo", "unknown card"),
        ("R1 a 0 abc", "malformed number"),
        ("R1 a 0 -5", "must be > 0"),
        ("C1 a 0 -1p", "must be >= 0"),
        ("M1 d g s b", "expected d g s b"),
        ("M1 d g s b CMOSN W=1u", "both W and L"),
        ("V1 a 0 TRI(1 2 3)", "unrecognized source"),
        ("I1 a 0 SIN(1 2)", "exactly 3 arguments"),
        ("I1 a 0 SIN(0 1 0)", "frequency must be > 0"),
        (".TRAN 1u 20u\n.WEIRD", "unknown directive"),
        (".TRAN 2u 1u", "tstop > tstep > 0"),
        (".TRAN 1m 5m", "tstop >= 10*tstep"),
        (".DC V1 0 1 -0.1", "sign inconsistent"),
        (".DC V1 0 1 0", "sign inconsistent"),
        ("R1 a 0 1e999", "out of range"),
        (".MODEL NX NMOS LEVEL=1e999", "value of LEVEL"),
        # the key=value reader that .MODEL and MOSFET cards share
        ("M1 d g s b CMOSN W=abc L=1u", "M1: value of W is not a number: 'abc'"),
        ("M1 d g s b CMOSN W=1u L=1e999", "M1: value of L is not a number: '1e999'"),
        ("M1 d g s b CMOSN X=1u W=1u L=1u", "M1: unknown MOSFET parameter X"),
        ("M1 d g s b CMOSN W L=1u", "M1: expected key=value, got 'W'"),
        ("M1 d g s b CMOSN W=0 L=1u", "M1: W and L must be > 0"),
        (".MODEL NX NMOS TOX=0", "model NX: TOX must be > 0"),
        (".MODEL NX NMOS PHI=-0.7", "model NX: PHI must be > 0"),
        (".TRAN 1u", ".TRAN needs: tstep tstop"),
        (".TEMP", ".TEMP needs at least one temperature"),
    ],
)
def test_syntax_errors_carry_line_numbers(card, fragment):
    with pytest.raises(NetlistError) as err:
        parse_netlist(wrap(card))
    assert fragment in str(err.value)
    assert err.value.line is not None
    assert f"line {err.value.line}" in str(err.value)


def test_duplicate_element_name():
    with pytest.raises(NetlistError, match="duplicate element name R1"):
        parse_netlist(wrap("R1 a 0 1k", "r1 a 0 2k"))


@pytest.mark.parametrize(("card", "name"), [("R1 a,b 0 1k", "a,b"), ("R1,X a 0 1k", "R1,X")],
                         ids=["node", "element"])
def test_name_with_a_comma_rejected(card, name):
    """A name becomes a CSV column (``v(a,b)``), where a comma would split it."""
    with pytest.raises(NetlistError) as err:
        parse_netlist(wrap("V1 a 0 DC 1", card))
    assert str(err.value) == f"line 3: {name!r}: a name cannot contain ','"


def test_duplicate_model_name():
    """The second card is rejected at its line, instead of replacing the first."""
    text = wrap(".MODEL NX NMOS VTO=0.5 KP=1e-4", "V1 d 0 DC 1.5",
                ".model nx NMOS VTO=5", "+ KP=1e-4", "M1 d d 0 0 NX W=1u L=1u", ".OP")
    with pytest.raises(NetlistError, match="duplicate model name NX") as err:
        parse_netlist(text)
    assert err.value.line == 4


def test_empty_netlist_rejected():
    with pytest.raises(NetlistError, match="empty"):
        parse_netlist("   \n  ")


# ---------------------------------------------------------------------------
# model cards
# ---------------------------------------------------------------------------


def test_model_card_cmosn_values():
    doc = parse_netlist("cards\n" + MODEL_CARDS + "\n.END\n")
    n = doc.models["CMOSN"]
    assert n.polarity == "NMOS" and n.level == 3
    assert n.params["VTO"] == 0.7640855
    assert n.params["GAMMA"] == 0.5483559
    assert n.params["KP"] == 1.259355e-4
    assert n.params["TOX"] == 1.4e-8
    assert n.params["NSUB"] == 1e17
    assert len(n.params) == 26


def test_model_card_cmosp_values():
    doc = parse_netlist("cards\n" + MODEL_CARDS + "\n.END\n")
    p = doc.models["CMOSP"]
    assert p.polarity == "PMOS" and p.level == 3
    assert p.params["VTO"] == -0.9444911
    assert p.params["UO"] == 250.0
    assert p.params["KAPPA"] == 30.1015109
    assert len(p.params) == 26


def test_model_card_minimal():
    card = parse_model_card(".MODEL X NMOS LEVEL = 3")
    assert card.name == "X" and card.polarity == "NMOS" and card.level == 3
    assert card.params == {}


def test_model_card_spaces_around_equals():
    a = parse_model_card(".MODEL A NMOS VTO = 0.7 KP=1e-4")
    assert a.params == {"VTO": 0.7, "KP": 1e-4}


def test_model_card_errors():
    with pytest.raises(NetlistError, match="polarity"):
        parse_model_card(".MODEL X RESISTOR VTO=1")
    with pytest.raises(NetlistError, match="not a number"):
        parse_model_card(".MODEL X NMOS VTO=zzz")


def test_unknown_model_keys_retained():
    card = parse_model_card(".MODEL X NMOS VTO=0.7 FROB=42")
    assert card.params["FROB"] == 42.0


def test_repeated_key_keeps_last_value():
    doc = parse_netlist(wrap(".MODEL X NMOS VTO=0.5 KP=1e-4 VTO = 0.7 LEVEL=1 LEVEL=3",
                             "M1 d g 0 0 X W=1u L=1u w=2u"))
    assert doc.models["X"].params == {"VTO": 0.7, "KP": 1e-4}
    assert doc.models["X"].level == 3
    assert (doc.elements[0].w, doc.elements[0].l) == (2e-6, 1e-6)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def errors(diags: list[Diagnostic]) -> list[str]:
    return [d.message for d in diags if d.severity == "error"]


def test_validate_bench_clean():
    doc = parse_netlist(bench_netlist_path().read_text())
    assert errors(validate(doc)) == []


def test_validate_no_ground():
    doc = parse_netlist(wrap("R1 a b 1k", "V1 a b DC 1"))
    assert any("no ground node" in e for e in errors(validate(doc)))


def test_validate_no_node_other_than_ground():
    doc = parse_netlist(wrap("I1 0 0 DC 1u", "R1 0 0 1k", ".OP"))
    assert errors(validate(doc)) == ["circuit has no node other than ground"]


def test_validate_unresolved_model():
    doc = parse_netlist(wrap("M1 d g s b FOO W=1u L=1u", "V1 d 0 DC 1",
                             "V2 g 0 DC 1", "R1 s 0 1k", "R2 b 0 1k"))
    assert any("unresolved model FOO" in e for e in errors(validate(doc)))


def test_validate_dangling_node():
    doc = parse_netlist(wrap("R1 a 0 1k", "R2 b 0 1k", "V1 a 0 DC 1"))
    assert any("dangling node b" in e for e in errors(validate(doc)))


@pytest.mark.parametrize("node", ["c", "0"])
def test_validate_voltage_source_on_one_node(node):
    """Its branch equation reads 0 = e: every DC strategy would meet a singular matrix."""
    doc = parse_netlist(wrap(f"V1 {node} {node} DC 1", "R1 c 0 1k", "R2 c 0 2k", ".OP"))
    assert errors(validate(doc)) == [f"voltage source with both terminals on node {node}"]


@pytest.mark.parametrize(
    ("cards", "closing"),
    [
        pytest.param(("V1 a 0 DC 1", "V2 a 0 DC 2"), "V2", id="parallel"),
        pytest.param(("V1 a 0 DC 1", "V2 b a DC 1", "V3 b 0 DC 2"), "V3", id="three"),
        pytest.param(("V1 a b DC 1", "V2 c 0 DC 1", "V3 a c DC 1", "V4 0 b DC 1"), "V4",
                     id="joined-groups"),
    ],
)
def test_validate_voltage_source_loop(cards, closing):
    """Around a loop of voltage sources KVL fixes a sum of source values, so
    the MNA matrix is singular: the source that closes the loop is named."""
    diags = validate(parse_netlist(wrap(*cards, "R1 a 0 1k", "R2 a 0 2k", ".OP")))
    assert [(d.message, d.location) for d in diags if d.severity == "error"] == [
        ("voltage source closes a loop of voltage sources", closing)
    ]


def test_validate_voltage_source_tree_is_clean():
    doc = parse_netlist(wrap("V1 a 0 DC 1", "V2 b a DC 1", "V3 c a DC 1", "V4 d 0 DC 1",
                             "R1 b c 1k", "R2 c d 1k", "R3 d b 1k", ".OP"))
    assert errors(validate(doc)) == []


@pytest.mark.parametrize(
    ("cards", "want"),
    [
        pytest.param(("I1 0 a DC 1u", "I2 a 0 DC 2u", ".OP"), [("node a", "a")], id="sources"),
        pytest.param(("I1 b a DC 1u", "C1 a 0 1n", "R1 b 0 1k", ".OP"), [("node a", "a")],
                     id="capacitor"),
        pytest.param(("V1 a 0 DC 1", "C1 a b 1n", "R1 b c 1k", "C2 c 0 1n", ".TRAN 1u 1m"),
                     [("nodes b, c", "b")], id="between-capacitors"),
        pytest.param(("V1 a 0 DC 1", "R0 a 0 1k", "I1 0 n1 DC 1u", "R1 n1 n2 1k",
                      "R2 n2 n1 1k", "I2 0 x DC 1u", "C1 x 0 1p", ".DC V1 0 1 0.5"),
                     [("nodes n1, n2", "n1"), ("node x", "x")], id="two-islands"),
        pytest.param(("V1 d 0 DC 1", "M1 d g 0 0 NX W=1u L=1u", "C1 g 0 1p",
                      ".MODEL NX NMOS VTO=0.7 KP=1e-4", ".OP"), [], id="gate-through-gmin"),
        pytest.param(("I1 0 a DC 1u", "I2 a 0 DC 2u", ".TEMP 25"), [], id="no-analysis"),
    ],
)
def test_validate_node_without_dc_path(cards, want):
    """Such an island makes the DC matrix singular; an analysis that needs a
    DC operating point rejects it, naming its nodes in order of appearance."""
    diags = validate(parse_netlist(wrap(*cards)))
    assert [(d.message, d.location) for d in diags if d.severity == "error"] == [
        (f"no DC path to ground from {nodes}", at) for nodes, at in want
    ]


def test_validate_no_ground_skips_the_dc_path_check():
    doc = parse_netlist(wrap("R1 a b 1k", "V1 a b DC 1", "I1 c a DC 1u", "C1 c b 1n", ".OP"))
    assert errors(validate(doc)) == ["no ground node"]


def test_validate_no_sources():
    doc = parse_netlist(wrap("R1 a 0 1k", "R2 a 0 1k"))
    assert any("no sources" in e for e in errors(validate(doc)))


def test_validate_unused_model_warns():
    doc = parse_netlist(wrap(".MODEL SPARE NMOS VTO=1", "V1 a 0 DC 1", "R1 a 0 1k"))
    warnings = [d for d in validate(doc) if d.severity == "warning"]
    assert any("unused model SPARE" in d.message for d in warnings)


# ---------------------------------------------------------------------------
# directives and round-trip
# ---------------------------------------------------------------------------


def test_tran_directive():
    doc = parse_netlist(wrap("V1 a 0 DC 1", "R1 a 0 1k", ".TRAN 1u 1m"))
    assert doc.directives == [TranDirective(1e-6, 1e-3)]


def test_step_counts_are_bounded():
    """A sweep or transient of more than MAX_STEPS steps, or of a count that
    overflows a float, is rejected where the count is defined."""
    DcSweepDirective("V1", 0.0, 1.0, 1.0 / MAX_STEPS)
    TranDirective(tstep=1.0 / MAX_STEPS, tstop=1.0)
    for start, stop, step in ((0.0, 1.0, 1e-8), (-200e-6, 200e-6, 1e-320), (-1e308, 1e308, 1.0)):
        with pytest.raises(ValueError, match="more than 10000000 steps"):
            DcSweepDirective("V1", start, stop, step)
    with pytest.raises(NetlistError, match=r"\.DC sweep step"):
        parse_netlist(wrap("V1 a 0 DC 1", "R1 a 0 1k", ".DC V1 0 1 1e-8"))
    with pytest.raises(NetlistError, match=r"tstop <= 10000000\*tstep"):
        parse_netlist(wrap("V1 a 0 DC 1", "R1 a 0 1k", ".TRAN 1n 1"))
    for tstep in (1e-8, 1e-320):
        with pytest.raises(ValueError, match=r"tstop <= 10000000\*tstep"):
            TranDirective(tstep=tstep, tstop=1.0)


def test_step_bounds_are_the_steps_the_solver_takes():
    """The bounds count the steps a run takes, floor(tstop/tstep + 1e-9) for
    ``.TRAN`` and ``DcSweepDirective.steps`` for a sweep, so a
    card of exactly 10 or 10^7 steps passes whatever the rounding of its
    ratio, and one step past a bound fails."""
    for m in range(1, 1000):
        tstep = parse_number(f"{m / 100}u")
        TranDirective(tstep, parse_number(f"{m / 10}u"))
        with pytest.raises(ValueError, match=r"tstop >= 10\*tstep"):
            TranDirective(tstep, 9 * tstep)
        tstep = parse_number(f"{m / 100}n")
        TranDirective(tstep, parse_number(f"{m * 100}u"))
        with pytest.raises(ValueError, match=r"tstop <= 10000000\*tstep"):
            TranDirective(tstep, (MAX_STEPS + 1) * tstep)
        DcSweepDirective("V1", 0.0, m * 1e-2, m * 1e-9)
        with pytest.raises(ValueError, match="more than 10000000 steps"):
            DcSweepDirective("V1", 0.0, m * 1e-2 + m * 1e-9, m * 1e-9)
    # 10^7 whole steps and a half one to stop: the grid appends stop
    with pytest.raises(ValueError, match="more than 10000000 steps"):
        DcSweepDirective("V1", 0.0, MAX_STEPS + 0.5, 1.0)


def test_tran_steps_are_the_steps_the_solver_takes():
    """``TranDirective.steps`` is the one count of a transient's steps, which
    the solver's last step and the record rule both read: floor(tstop/tstep)
    with the ratio's rounding forgiven (0.7u/0.07u is 9.999999999999998 in
    floats)."""
    for card, steps in ((".TRAN 0.07u 0.7u", 10), (".TRAN 0.01n 100u", MAX_STEPS)):
        doc = parse_netlist(wrap("V1 a 0 DC 1", "R1 a 0 1k", card))
        (tran,) = [d for d in doc.directives if isinstance(d, TranDirective)]
        assert tran.steps == steps


def test_sweep_steps_are_the_steps_the_solver_takes():
    """``DcSweepDirective.steps`` is the one count of a sweep's steps, which
    the record rule reads and ``values()`` builds: the whole steps with the
    ratio's rounding forgiven (0.7/0.07 is 9.999999999999998 in floats), and
    one more to a stop that no whole step lands on.  The grid is float64, of
    ``steps + 1`` points, and ends exactly on stop."""
    cards = ((".DC V1 0 0.7 0.07", 10), (".DC V1 0 70m 7n", MAX_STEPS), (".DC V1 0 1 0.3", 4),
             (".DC V1 1 1 1", 0))
    for card, steps in cards:
        doc = parse_netlist(wrap("V1 a 0 DC 1", "R1 a 0 1k", card))
        (sweep,) = [d for d in doc.directives if isinstance(d, DcSweepDirective)]
        assert sweep.steps == steps
        grid = sweep.values()
        assert grid.dtype == np.float64 and grid.shape == (steps + 1,)
        assert grid[-1:].tobytes() == np.float64(sweep.stop).tobytes()
    assert grid.tolist() == [1.0]
    assert DcSweepDirective("V1", 0.0, 1.0, 0.3).values().tolist() == [
        0.0, 0.3, 0.6, 0.8999999999999999, 1.0]


def listed_grid(start: float, stop: float, step: float) -> list[float]:
    """The sweep grid built as a Python list, one ``start + i * step`` at a
    time: the construction ``DcSweepDirective.values`` replaces."""
    if start == stop:
        return [start]
    count = int(math.floor((stop - start) / step + 1e-9))
    values = [start + i * step for i in range(count + 1)]
    if abs(values[-1] - stop) <= abs(step) * 1e-9 * max(count, 1):
        values[-1] = stop
    else:
        values.append(stop)
    return values


# a sweep's span over its step: near a whole number of steps (within the
# 1e-9 rule or not), or anywhere between two
RATIOS = st.builds(lambda n, frac: n + frac, st.integers(0, 2000),
                   st.floats(-1e-6, 1e-6) | st.floats(0.0, 1.0)).filter(lambda r: r >= 1e-3)


@settings(max_examples=500, deadline=None)
@given(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3), RATIOS)
def test_sweep_grid_is_the_listed_grid(start, span, ratio):
    """``values()`` holds the bits of ``listed_grid`` for every sweep of up
    to about 2 000 steps; a sweep of no width is its one point, stop, which
    equals start (the list gave start, a zero of the other sign at most)."""
    stop = start + span
    step = span / ratio if span else ratio
    try:
        sweep = DcSweepDirective("V1", start, stop, step)
    except ValueError as exc:  # a step that underflows to zero
        assert step == 0 and "is zero" in str(exc)
        return
    expected = listed_grid(start, stop, step)
    if start == stop:
        expected = [stop]
    assert sweep.values().tobytes() == np.array(expected).tobytes()
    assert sweep.steps == len(expected) - 1


def test_record_rule_holds_at_its_limit():
    """An analysis's record may take ``MAX_RECORD_BYTES`` (2**32 B, 8 per
    value), whatever its shape, and not one value more."""
    assert MAX_RECORD_BYTES == 2**32
    check_record(2**29, 1)
    check_record(2**19, 2**10)
    with pytest.raises(ValueError, match="^a record of 536870913 x 1 values takes 4294967304 "
                                         "bytes, over the limit of 4294967296$"):
        check_record(2**29 + 1, 1)
    with pytest.raises(ValueError, match="over the limit"):
        check_record(2**19, 2**10 + 1)


def test_sweep_grid_ends_on_stop_within_its_rounding():
    """The last whole step is replaced by stop when it lands within 1e-9 of
    the steps' span, so a stop that is a whole number of steps away, up to
    rounding, leaves no sliver of a step at the end; one half a step further
    is appended."""
    assert DcSweepDirective("V1", 0.0, 100 + 2e-8, 1.0).values().tolist() == [
        *map(float, range(100)), 100 + 2e-8]
    assert DcSweepDirective("V1", 0.0, 100.5, 1.0).values().tolist() == [
        *map(float, range(101)), 100.5]


# arguments that each card, and the record it builds, rejects
REJECTED = (
    [pytest.param(".TRAN", TranDirective, args, id="-".join(map(repr, args)))
     for args in [(2e-6, 1e-6), (0.0, 1.0), (-1e-6, 1e-3), (1e-3, 5e-3), (1e-9, 1.0),
                  (1e-320, 1e-9)]]
    + [pytest.param(".DC", DcSweepDirective, ("V1", *args), id="dc_" + "-".join(map(repr, args)))
       for args in [(0.0, 1.0, 0.0), (0.0, 1.0, -0.1), (1.0, 0.0, 0.1), (0.0, 1.0, 1e-8),
                    (-1e308, 1e308, 1.0)]]
)


@pytest.mark.parametrize(("card", "record", "args"), REJECTED)
def test_tran_parser_and_options_share_one_rule(card, record, args):
    """A .TRAN or .DC card and the record a library caller builds with its
    values (``TranDirective``, ``DcSweepDirective``) are refused with the
    same words."""
    with pytest.raises(ValueError) as rejected:
        record(*args)
    with pytest.raises(NetlistError) as parse_err:
        parse_netlist(wrap("V1 a 0 DC 1", "R1 a 0 1k", f"{card} {' '.join(map(str, args))}"))
    assert str(parse_err.value).endswith(f"{card} {rejected.value}")


@pytest.mark.parametrize(
    "name", ["rectifier_bench.cir", "rc_lowpass.cir", "divider.cir"]
)
def test_round_trip_corpus(name):
    from importlib.resources import files

    text = files("amps").joinpath(f"data/{name}").read_text()
    doc = parse_netlist(text)
    again = parse_netlist(serialize_netlist(doc))
    assert again == doc


def test_seven_digit_fidelity_spot_checks():
    doc = parse_netlist("cards\n" + MODEL_CARDS + "\n.END\n")
    n = doc.models["CMOSN"].params
    assert f"{n['VTO']:.7g}" == "0.7640855"
    assert f"{n['KP']:.7g}" == "0.0001259355"
    assert float(f"{n['GAMMA']:.7g}") == 0.5483559


# ---------------------------------------------------------------------------
# property tests: arbitrary text, drawn documents
# ---------------------------------------------------------------------------

# One valid card of each kind, each given one fault: the value of a token
# with a digit (after any "=") becomes a number-like string, or any token
# becomes a word ("" deletes).
CARDS = [
    "R1 a 0 1k", "C1 a 0 1p", "V1 a 0 DC 1", "I1 0 a SIN(0 1u 1k)", "M1 d g s b NX W=1u L=1u",
    ".MODEL NX NMOS LEVEL=3 VTO=0.7", "+ KP=1e-4", ".DC V1 0 1 0.1", ".TRAN 1u 20u",
    ".TEMP 25 50", ".OP", "* comment", "R2 a b 1k ; note",
]
WORDS = ["", "Q1", ".MODEL", ".WEIRD", ".", "+", "=", "(", ")", "a", "DC", "SIN(0", "NMOS"]
VALUES = ["1e999", "-5", "abc", "", "0", "4u7"]


@st.composite
def faulty_card(draw):
    tokens = draw(st.sampled_from(CARDS)).split()
    valued = [i for i, token in enumerate(tokens) if any(c.isdigit() for c in token)]
    if valued and draw(st.booleans()):
        at = draw(st.sampled_from(valued))
        key = tokens[at].partition("=")[0] + "=" if "=" in tokens[at] else ""
        tokens[at] = key + draw(st.sampled_from(VALUES))
    else:
        tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(WORDS))
    return " ".join(tokens)


@st.composite
def netlist_text(draw):
    line = st.one_of(st.sampled_from(CARDS), faulty_card(), st.text(max_size=12))
    lines = draw(st.lists(line, max_size=8))
    return "\n".join([draw(st.sampled_from(["title", "", "R1 a 0 1k"]))] + lines)


@settings(max_examples=400, deadline=None)
@given(netlist_text())
def test_any_text_parses_or_raises_netlist_error_with_line(text):
    try:
        doc = parse_netlist(text)
    except NetlistError as err:
        if text.strip():  # every fault but an empty netlist is on a card
            assert err.line is not None and 2 <= err.line <= len(text.splitlines())
            assert f"line {err.line}" in str(err)
    else:
        assert parse_netlist(serialize_netlist(doc)) == doc


NODES = st.sampled_from(["0", "a", "b", "out_1", "N2"])


def numbers(lo, hi):
    """Number tokens in [lo, hi]: plain, or with an engineering suffix."""
    plain = st.floats(lo, hi, allow_nan=False, allow_infinity=False).map(repr)
    suffixed = st.tuples(st.integers(1, 999), st.sampled_from(["p", "n", "u", "m", "k", "meg"]))
    return st.one_of(plain, suffixed.map(lambda t: f"{t[0]}{t[1]}"))


@st.composite
def element(draw, index):
    kind = draw(st.sampled_from("RCVIM"))
    name = f"{kind}{index}"
    if kind == "M":
        nodes = " ".join(draw(st.lists(NODES, min_size=4, max_size=4)))
        model = draw(st.sampled_from(["NX", "PX"]))
        return f"{name} {nodes} {model} W={draw(numbers(1e-7, 1e-4))} L={draw(numbers(1e-7, 1e-4))}"
    nodes = f"{draw(NODES)} {draw(NODES)}"
    if kind in "RC":
        return f"{name} {nodes} {draw(numbers(1e-3 if kind == 'R' else 0.0, 1e6))}"
    if draw(st.booleans()):
        return f"{name} {nodes} DC {draw(numbers(-10, 10))}"
    offset, amplitude, frequency = draw(numbers(-1, 1)), draw(numbers(-1, 1)), draw(numbers(1, 1e9))
    return f"{name} {nodes} SIN({offset} {amplitude} {frequency})"


@st.composite
def directive(draw):
    kind = draw(st.sampled_from([".OP", ".DC", ".TRAN", ".TEMP"]))
    if kind == ".DC":
        start, stop = draw(numbers(-5, 5)), draw(numbers(-5, 5))
        span = parse_number(stop) - parse_number(start)
        # a step of span/k, unless that is zero (start == stop, or underflow)
        step = span / draw(st.integers(1, 50)) or math.copysign(
            parse_number(draw(numbers(1e-3, 1))), span
        )
        return f".DC V0 {start} {stop} {step!r}"
    if kind == ".TRAN":
        tstep = parse_number(draw(numbers(1e-12, 1e-3)))
        return f".TRAN {tstep!r} {tstep * draw(st.floats(10, 1e4))!r}"
    if kind == ".TEMP":
        return ".TEMP " + " ".join(draw(st.lists(numbers(-50, 150), min_size=1, max_size=3)))
    return kind


@st.composite
def netlist_document(draw):
    cards = ["V0 a 0 DC 1"]
    cards += [draw(element(i)) for i in range(1, draw(st.integers(0, 6)) + 1)]
    cards += [".MODEL NX NMOS VTO=0.7 KP=1e-4", ".MODEL PX PMOS LEVEL=1 VTO=-0.7"]
    cards += draw(st.lists(directive(), max_size=4))
    return parse_netlist(wrap(*draw(st.permutations(cards))))


@settings(max_examples=200, deadline=None)
@given(netlist_document())
def test_serialize_parse_round_trips_drawn_documents(doc):
    text = serialize_netlist(doc)
    assert parse_netlist(text) == doc
    assert serialize_netlist(parse_netlist(text)) == text

"""SPICE-subset netlist parsing, validation and serialization.

The accepted grammar is deliberately small: the first line is the title,
``*`` starts a comment line, ``;`` starts an inline comment, ``+`` continues
the previous card.  Element cards are M/R/C/V/I, dot cards are ``.MODEL``,
``.OP``, ``.DC``, ``.TRAN``, ``.TEMP`` and ``.END``.  Keywords and element
names are case-insensitive, node names are case-sensitive.  See
``docs/netlist_format.md`` for the full reference.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Union

import numpy as np


class NetlistError(ValueError):
    """Netlist syntax or semantic error, carrying a 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


# ---------------------------------------------------------------------------
# Engineering-notation numbers
# ---------------------------------------------------------------------------

_NUM_RE = re.compile(
    r"^([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)([a-zA-Z]*)$"
)

# Engineering suffixes (decimal exponents), case-insensitive.
# "meg" must be tested before "m".
_SUFFIX_EXP = {
    "f": -15,
    "p": -12,
    "n": -9,
    "u": -6,
    "m": -3,
    "k": 3,
    "g": 9,
    "t": 12,
}


def parse_number(token: str) -> float:
    """Parse a SPICE number such as ``4.7k``, ``400uA``, ``1.4E-8`` or ``10meg``.

    Trailing unit letters after a recognized suffix are ignored
    (``400uA`` -> 4.0e-4).  When the mantissa has no exponent of its own the
    suffix is folded into the decimal literal before conversion, so e.g.
    ``200u`` parses to exactly 2e-4.  Raises ``ValueError`` on malformed input
    and on a number too large for a float.
    """
    m = _NUM_RE.match(token.strip())
    if m is None:
        raise ValueError(f"malformed number: {token!r}")
    head = m.group(1)
    tail = m.group(2).lower()
    exp = 6 if tail.startswith("meg") else _SUFFIX_EXP.get(tail[:1])
    if exp is None:  # no suffix, or bare unit letters (e.g. "1.5V"): no scaling
        value = float(head)
    elif "e" in head or "E" in head:
        value = float(head) * 10.0**exp
    else:
        value = float(f"{head}e{exp}")
    if not math.isfinite(value):
        raise ValueError(f"number out of range: {token!r}")
    return value


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------


class ElementKind(Enum):
    MOSFET = "M"
    RESISTOR = "R"
    CAPACITOR = "C"
    VSOURCE = "V"
    ISOURCE = "I"


@dataclass(frozen=True)
class DcSpec:
    """Constant source value (volts or amps)."""

    value: float

    def value_at(self, t: float) -> float:
        return self.value


@dataclass(frozen=True)
class SinSpec:
    """Sinusoidal source: offset + amplitude * sin(2*pi*frequency*t)."""

    offset: float
    amplitude: float
    frequency: float

    def value_at(self, t: float) -> float:
        return self.offset + self.amplitude * math.sin(2.0 * math.pi * self.frequency * t)


SourceSpec = Union[DcSpec, SinSpec]


@dataclass(frozen=True)
class ElementCard:
    """One parsed element line.

    ``nodes`` is (n+, n-) for two-terminal elements and
    (drain, gate, source, bulk) for MOSFETs.  ``value`` holds resistance or
    capacitance, ``source`` the V/I source spec, ``model``/``w``/``l`` the
    MOSFET extras.
    """

    kind: ElementKind
    name: str
    nodes: tuple[str, ...]
    value: float | None = None
    source: SourceSpec | None = None
    model: str | None = None
    w: float | None = None
    l: float | None = None


@dataclass(frozen=True)
class ModelCard:
    """A ``.MODEL`` statement: polarity, level and an ordered parameter map.

    Unknown parameter keys are retained verbatim, never dropped; the device
    model decides which ones it evaluates.
    """

    name: str
    polarity: str  # "NMOS" | "PMOS"
    level: int
    params: dict[str, float]


@dataclass(frozen=True)
class OpDirective:
    pass


# A transient covers at least this many steps: tstop >= TRAN_MIN_STEPS * tstep.
TRAN_MIN_STEPS = 10
# A sweep or a transient takes at most this many steps.
MAX_STEPS = 10**7
# An analysis's result record holds at most this many bytes, 8 per value.
MAX_RECORD_BYTES = 2**32


def check_record(rows: int, columns: int) -> None:
    """Reject an analysis whose record of ``rows`` x ``columns`` values is over
    ``MAX_RECORD_BYTES``; checked before the analysis's first solve."""
    if rows * columns * 8 > MAX_RECORD_BYTES:
        raise ValueError(f"a record of {rows} x {columns} values takes {rows * columns * 8} "
                         f"bytes, over the limit of {MAX_RECORD_BYTES}")


@dataclass(frozen=True)
class DcSweepDirective:
    """A ``.DC`` card; a step that is zero, points away from ``stop`` or takes
    more than ``MAX_STEPS`` steps raises ValueError."""

    source: str
    start: float
    stop: float
    step: float

    def __post_init__(self):
        if self.step == 0 or (self.stop - self.start) * self.step < 0:
            raise ValueError(f"sweep step {self.step:g} is zero or sign inconsistent "
                             "with stop - start")
        # the ratio first: ``steps`` floors it, so it must be finite
        if not (self.stop - self.start) / self.step < 2 * MAX_STEPS or self.steps > MAX_STEPS:
            raise ValueError(f"sweep step {self.step:g} takes more than {MAX_STEPS} steps")

    @property
    def steps(self) -> int:
        """The steps the sweep takes: floor((stop - start)/step), forgiving the
        ratio's rounding, and one more to stop unless the last whole step
        lands on it within 1e-9 of the steps' span."""
        whole = math.floor((self.stop - self.start) / self.step + 1e-9)
        miss = abs(self.start + whole * self.step - self.stop)
        return whole if miss <= abs(self.step) * 1e-9 * max(whole, 1) else whole + 1

    def values(self) -> np.ndarray:
        """The swept values: ``start + i * step`` for each of the ``steps``
        steps, then ``stop``."""
        grid = np.arange(self.steps + 1, dtype=float)
        grid *= self.step
        grid += self.start
        grid[-1] = self.stop
        return grid


@dataclass(frozen=True)
class TranDirective:
    """A ``.TRAN`` card; a step that is not positive, or that takes fewer than
    ``TRAN_MIN_STEPS`` or more than ``MAX_STEPS`` steps, raises ValueError."""

    tstep: float
    tstop: float

    def __post_init__(self):
        if not self.tstop > self.tstep > 0:
            raise ValueError("requires tstop > tstep > 0")
        # the ratio first: ``steps`` floors it, so it must be finite
        if not self.tstop / self.tstep < 2 * MAX_STEPS or self.steps > MAX_STEPS:
            raise ValueError(f"requires tstop <= {MAX_STEPS}*tstep")
        if self.steps < TRAN_MIN_STEPS:
            raise ValueError(f"requires tstop >= {TRAN_MIN_STEPS}*tstep")

    @property
    def steps(self) -> int:
        """The steps the run takes: floor(tstop/tstep), forgiving the ratio's rounding."""
        return math.floor(self.tstop / self.tstep + 1e-9)


@dataclass(frozen=True)
class TempDirective:
    temps: tuple[float, ...]


AnalysisDirective = Union[OpDirective, DcSweepDirective, TranDirective, TempDirective]


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "error" | "warning"
    message: str
    location: str


@dataclass
class NetlistDocument:
    """Structured circuit description produced by :func:`parse_netlist`.

    ``nodes`` maps node name to a dense index; ground ``"0"`` is always
    index 0.  Immutable by convention after construction.
    """

    title: str
    elements: list[ElementCard] = field(default_factory=list)
    models: dict[str, ModelCard] = field(default_factory=dict)
    directives: list[AnalysisDirective] = field(default_factory=list)
    nodes: dict[str, int] = field(default_factory=lambda: {"0": 0})


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def _logical_lines(text: str) -> list[tuple[int, str]]:
    """Strip comments, join ``+`` continuations; returns (line_no, card) pairs.

    The first line is always the title and is not returned here.
    """
    out: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if lineno == 1:
            continue  # title handled by caller
        line = raw.split(";", 1)[0].rstrip()
        if not line.strip():
            continue
        stripped = line.strip()
        if stripped.startswith("*"):
            continue
        if stripped.startswith("+"):
            if not out:
                raise NetlistError("continuation line with no preceding card", lineno)
            prev_no, prev = out[-1]
            out[-1] = (prev_no, prev + " " + stripped[1:].strip())
        else:
            out.append((lineno, stripped))
    return out


_EQ_SPACING = re.compile(r"\s*=\s*")


def _at(lineno: int | None, prefix: str, check, *args):
    """``check(*args)``, its ValueError re-raised as a NetlistError at ``lineno``."""
    try:
        return check(*args)
    except ValueError as exc:
        raise NetlistError(f"{prefix}{exc}", lineno) from None


def _num(token: str, lineno: int) -> float:
    return _at(lineno, "", parse_number, token)


def _key_values(owner: str, tokens: list[str], lineno: int | None) -> dict[str, float]:
    """Read ``KEY=value`` tokens into a dict in source order, keys uppercased;
    a repeated key keeps its last value."""
    pairs: dict[str, float] = {}
    for tok in tokens:
        key, eq, val = tok.partition("=")
        if not eq:
            raise NetlistError(f"{owner}: expected key=value, got {tok!r}", lineno)
        key = key.upper()
        try:
            pairs[key] = parse_number(val)
        except ValueError:
            raise NetlistError(
                f"{owner}: value of {key} is not a number: {val!r}", lineno
            ) from None
    return pairs


def parse_model_card(line: str | list[str], lineno: int | None = None) -> ModelCard:
    """Parse a joined ``.MODEL`` line, or its tokens, into a :class:`ModelCard`.

    ``key = value`` pairs tolerate spaces around ``=``.  LEVEL is pulled into
    its own field (default 3); everything else lands in ``params`` in source
    order, keys uppercased.
    """
    tokens = _EQ_SPACING.sub("=", line).split() if isinstance(line, str) else line
    if not tokens or tokens[0].upper() != ".MODEL":
        raise NetlistError("not a .MODEL card", lineno)
    if len(tokens) < 3:
        raise NetlistError(".MODEL needs a name and a polarity keyword", lineno)
    name = tokens[1].upper()
    polarity = tokens[2].upper()
    if polarity not in ("NMOS", "PMOS"):
        raise NetlistError(
            f"model {name}: missing polarity keyword (got {tokens[2]!r})", lineno
        )
    params = _key_values(f"model {name}", tokens[3:], lineno)
    level = int(params.pop("LEVEL", 3))
    for key in ("TOX", "PHI"):
        if params.get(key, 1.0) <= 0:
            raise NetlistError(f"model {name}: {key} must be > 0", lineno)
    return ModelCard(name=name, polarity=polarity, level=level, params=params)


def _parse_source_tokens(tokens: list[str], lineno: int) -> SourceSpec:
    text = " ".join(tokens)
    m = re.match(r"^(?:DC\s+)?([^\s()]+)$", text, re.IGNORECASE)
    if m and not text.upper().startswith("SIN"):
        return DcSpec(_num(m.group(1), lineno))
    m = re.match(r"^SIN\s*\(\s*([^)]*)\)$", text, re.IGNORECASE)
    if m:
        args = m.group(1).split()
        if len(args) != 3:
            raise NetlistError(
                f"SIN takes exactly 3 arguments (offset amplitude frequency), got {len(args)}",
                lineno,
            )
        offset, amplitude, frequency = (_num(a, lineno) for a in args)
        if frequency <= 0:
            raise NetlistError("SIN frequency must be > 0", lineno)
        return SinSpec(offset, amplitude, frequency)
    raise NetlistError(f"unrecognized source specification: {text!r}", lineno)


def parse_netlist(text: str) -> NetlistDocument:
    """Parse full netlist text into a :class:`NetlistDocument`.

    The first line is the title (SPICE convention).  Raises
    :class:`NetlistError` with a line number on any syntax problem.
    """
    if not text.strip():
        raise NetlistError("empty netlist")
    lines = text.splitlines()
    doc = NetlistDocument(title=lines[0].strip())
    seen_names: set[str] = set()

    def node_index(name: str) -> None:
        if name not in doc.nodes:
            doc.nodes[name] = len(doc.nodes)

    for lineno, card in _logical_lines(text):
        tokens = _EQ_SPACING.sub("=", card).split()  # key = value becomes one key=value
        first = card[0].upper()
        if first == ".":
            _parse_directive(tokens, lineno, doc)
            continue
        if first not in "MRCVI":
            raise NetlistError(f"unknown card leading letter {card[0]!r}", lineno)
        name = tokens[0].upper()
        if name in seen_names:
            raise NetlistError(f"duplicate element name {name}", lineno)
        seen_names.add(name)
        kind = ElementKind(first)
        if kind is ElementKind.MOSFET:
            elem = _parse_mosfet(name, tokens, lineno)
        elif kind in (ElementKind.RESISTOR, ElementKind.CAPACITOR):
            elem = _parse_rc(kind, name, tokens, lineno)
        else:
            if len(tokens) < 4:
                raise NetlistError(f"{name}: expected 2 nodes and a source spec", lineno)
            spec = _parse_source_tokens(tokens[3:], lineno)
            elem = ElementCard(kind=kind, name=name, nodes=(tokens[1], tokens[2]), source=spec)
        for n in elem.nodes:
            node_index(n)
        doc.elements.append(elem)
    return doc


def _parse_mosfet(name: str, tokens: list[str], lineno: int) -> ElementCard:
    if len(tokens) < 6:
        raise NetlistError(f"{name}: expected d g s b model W=.. L=..", lineno)
    pairs = _key_values(name, tokens[6:], lineno)
    for key in pairs:
        if key not in ("W", "L"):
            raise NetlistError(f"{name}: unknown MOSFET parameter {key}", lineno)
    if "W" not in pairs or "L" not in pairs:
        raise NetlistError(f"{name}: both W and L are required", lineno)
    if pairs["W"] <= 0 or pairs["L"] <= 0:
        raise NetlistError(f"{name}: W and L must be > 0", lineno)
    return ElementCard(kind=ElementKind.MOSFET, name=name, nodes=tuple(tokens[1:5]),
                       model=tokens[5].upper(), w=pairs["W"], l=pairs["L"])


def _parse_rc(kind: ElementKind, name: str, tokens: list[str], lineno: int) -> ElementCard:
    if len(tokens) != 4:
        raise NetlistError(f"{name}: expected 2 nodes and a value", lineno)
    value = _num(tokens[3], lineno)
    if kind is ElementKind.RESISTOR and value <= 0:
        raise NetlistError(f"{name}: resistance must be > 0", lineno)
    if kind is ElementKind.CAPACITOR and value < 0:
        raise NetlistError(f"{name}: capacitance must be >= 0", lineno)
    return ElementCard(kind=kind, name=name, nodes=(tokens[1], tokens[2]), value=value)


def _parse_directive(tokens: list[str], lineno: int, doc: NetlistDocument) -> None:
    word = tokens[0].upper()
    if word == ".MODEL":
        model = parse_model_card(tokens, lineno)
        if model.name in doc.models:
            raise NetlistError(f"duplicate model name {model.name}", lineno)
        doc.models[model.name] = model
    elif word == ".OP":
        doc.directives.append(OpDirective())
    elif word == ".DC":
        if len(tokens) != 5:
            raise NetlistError(".DC needs: source start stop step", lineno)
        start, stop, step = (_num(t, lineno) for t in tokens[2:5])
        doc.directives.append(_at(lineno, ".DC ", DcSweepDirective, tokens[1].upper(),
                                  start, stop, step))
    elif word == ".TRAN":
        if len(tokens) != 3:
            raise NetlistError(".TRAN needs: tstep tstop", lineno)
        tstep, tstop = _num(tokens[1], lineno), _num(tokens[2], lineno)
        doc.directives.append(_at(lineno, ".TRAN ", TranDirective, tstep, tstop))
    elif word == ".TEMP":
        if len(tokens) < 2:
            raise NetlistError(".TEMP needs at least one temperature", lineno)
        doc.directives.append(TempDirective(tuple(_num(t, lineno) for t in tokens[1:])))
    elif word == ".END":
        pass
    else:
        raise NetlistError(f"unknown directive {tokens[0]}", lineno)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def _root(parent: dict[str, str], node: str) -> str:
    """The root of ``node``'s tree in the union-find ``parent`` (a new node is its own)."""
    while parent.setdefault(node, node) != node:
        node = parent[node]
    return node


def _join(parent: dict[str, str], a: str, b: str) -> bool:
    """Join the trees of nodes ``a`` and ``b``; False if they were one already."""
    ra, rb = _root(parent, a), _root(parent, b)
    parent[rb] = ra
    return ra != rb


def validate(doc: NetlistDocument) -> list[Diagnostic]:
    """Semantic checks on a parsed netlist.

    Errors: dangling node (single terminal reference), no ground node, no
    node other than ground, MOSFET with unresolved model, voltage source that
    closes a loop of voltage sources (the shortest: both terminals on one
    node), no sources, ``.DC`` sweep of a source the circuit lacks, and, when
    an analysis (``.OP``, ``.DC``, ``.TRAN``) needs a DC operating point,
    each island of nodes with no DC path to ground.  Resistors and voltage
    sources make DC paths, and every MOSFET terminal has one (gmin loads
    it); capacitors and current sources make none.
    Warnings: unused models.
    """
    diags: list[Diagnostic] = []
    refcount: dict[str, int] = {}
    used_models: set[str] = set()
    sources: set[str] = set()
    by_sources: dict[str, str] = {}  # union-find of the nodes joined by voltage sources
    by_paths: dict[str, str] = {}  # union-find of the nodes joined by DC paths
    for elem in doc.elements:
        for n in elem.nodes:
            refcount[n] = refcount.get(n, 0) + 1
        if elem.kind is ElementKind.MOSFET:
            used_models.add(elem.model)
            if elem.model not in doc.models:
                diags.append(
                    Diagnostic("error", f"unresolved model {elem.model}", elem.name)
                )
        if elem.kind in (ElementKind.VSOURCE, ElementKind.ISOURCE):
            sources.add(elem.name)
        if elem.kind is ElementKind.VSOURCE and not _join(by_sources, *elem.nodes):
            message = ("voltage source closes a loop of voltage sources"
                       if elem.nodes[0] != elem.nodes[1] else
                       f"voltage source with both terminals on node {elem.nodes[0]}")
            diags.append(Diagnostic("error", message, elem.name))
        if elem.kind in (ElementKind.RESISTOR, ElementKind.VSOURCE):
            _join(by_paths, *elem.nodes)
        elif elem.kind is ElementKind.MOSFET:
            for n in elem.nodes:
                _join(by_paths, "0", n)
    if "0" not in refcount:
        diags.append(Diagnostic("error", "no ground node", "0"))
    elif len(refcount) == 1:
        diags.append(Diagnostic("error", "circuit has no node other than ground", doc.title))
    elif any(isinstance(d, (OpDirective, DcSweepDirective, TranDirective))
             for d in doc.directives):
        islands: dict[str, list[str]] = {}  # by root, in order of first appearance
        for node in refcount:
            islands.setdefault(_root(by_paths, node), []).append(node)
        del islands[_root(by_paths, "0")]
        for nodes in islands.values():
            label = "node" + "s" * (len(nodes) > 1)
            diags.append(Diagnostic(
                "error", f"no DC path to ground from {label} {', '.join(nodes)}", nodes[0]))
    for node, count in refcount.items():
        if count == 1:
            diags.append(Diagnostic("error", f"dangling node {node}", node))
    if not sources:
        diags.append(Diagnostic("error", "circuit has no sources", doc.title))
    for d in doc.directives:
        if isinstance(d, DcSweepDirective) and d.source not in sources:
            diags.append(Diagnostic("error", f"no source named {d.source}", ".DC"))
    for name in doc.models:
        if name not in used_models:
            diags.append(Diagnostic("warning", f"unused model {name}", name))
    return diags


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _fmt(x: float) -> str:
    return repr(float(x))


def serialize_netlist(doc: NetlistDocument) -> str:
    """Emit canonical netlist text that reparses to a structurally equal document."""
    out = [doc.title]
    for model in doc.models.values():
        parts = [f".MODEL {model.name} {model.polarity} LEVEL = {model.level}"]
        parts += [f"{k} = {_fmt(v)}" for k, v in model.params.items()]
        out.append(" ".join(parts))
    for e in doc.elements:
        if e.kind is ElementKind.MOSFET:
            out.append(
                f"{e.name} {' '.join(e.nodes)} {e.model} W={_fmt(e.w)} L={_fmt(e.l)}"
            )
        elif e.kind in (ElementKind.RESISTOR, ElementKind.CAPACITOR):
            out.append(f"{e.name} {' '.join(e.nodes)} {_fmt(e.value)}")
        else:
            if isinstance(e.source, DcSpec):
                spec = f"DC {_fmt(e.source.value)}"
            else:
                spec = (
                    f"SIN({_fmt(e.source.offset)} {_fmt(e.source.amplitude)} "
                    f"{_fmt(e.source.frequency)})"
                )
            out.append(f"{e.name} {' '.join(e.nodes)} {spec}")
    for d in doc.directives:
        if isinstance(d, OpDirective):
            out.append(".OP")
        elif isinstance(d, DcSweepDirective):
            out.append(f".DC {d.source} {_fmt(d.start)} {_fmt(d.stop)} {_fmt(d.step)}")
        elif isinstance(d, TranDirective):
            out.append(f".TRAN {_fmt(d.tstep)} {_fmt(d.tstop)}")
        elif isinstance(d, TempDirective):
            out.append(".TEMP " + " ".join(_fmt(t) for t in d.temps))
    out.append(".END")
    return "\n".join(out) + "\n"

"""Command-line front end.

Subcommands: ``run`` (execute a netlist's analysis directives), ``bench``
(frequency/temperature sweeps of the bundled rectifier bench), ``dc-sweep``
(bench DC transfer curves) and ``device-curves`` (Id-Vds tables from a model
card).  Exit codes: 0 success, 1 parse/validate/usage failure, 2 solver
non-convergence.  Diagnostics go to stderr, summaries to stdout.
"""

from __future__ import annotations

import argparse
import re
import sys
import time
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import rectifier
from .analysis import write_csv, write_table
from .device import derive_params, device_table, eval_mosfet_into
from .netlist import (
    DcSweepDirective,
    NetlistDocument,
    OpDirective,
    TempDirective,
    TranDirective,
    check_record,
    parse_netlist,
    parse_number,
    validate,
)
from .rectifier import BenchConfig, compare, retained_window, run_bench
from .solver import (
    SolverError,
    SolverOptions,
    build_graph,
    dc_sweep,
    solve_dc,
    solve_transient,
    unknown_columns,
)

# device-curves rows per kernel call, which bounds its memory on fine vds grids
_CURVE_ROWS = 4096
# the PrecisionReport fields of a report.csv row, between freq, temp and status
_REPORT = ("rms_error_plus", "rms_error_minus", "peak_error_plus", "peak_error_minus",
           "zero_crossing_width", "dc_power")


class _ArgumentParser(argparse.ArgumentParser):
    """argparse that exits 1 (not 2) on usage errors, with a one-line diagnostic.

    Also treats ``-200u``-style engineering numbers as values, not options.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\d")

    def error(self, message):
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _eng(text: str) -> float:
    try:
        return parse_number(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _eng_list(text: str) -> list[float]:
    values = [_eng(t) for t in text.split(",") if t.strip()]
    if not values:
        raise argparse.ArgumentTypeError(f"no values in {text!r}")
    return values


def _distinct(names: list[str]) -> list[str]:
    """Labels of points' files or columns; a repeat would overwrite a file or repeat a column."""
    for i, name in enumerate(names):
        if name in names[:i]:
            raise ValueError(f"two points would write {name}")
    return names


def _solver_options(args) -> SolverOptions:
    """Solver options from the tolerance flags, each stored under its field's
    name; SolverOptions rejects a bad value."""
    opts = SolverOptions()
    given = {f.name: getattr(args, f.name, None) for f in fields(opts)}
    return replace(opts, **{name: v for name, v in given.items() if v is not None})


def _read_netlist(path: Path) -> NetlistDocument:
    """Parse a netlist file; an unreadable file is an OSError naming it."""
    try:
        text = path.read_text()
    except OSError as exc:
        raise OSError(f"cannot read {path}: {exc.strerror}") from None
    return parse_netlist(text)


def _output_target(out: str, directory: bool, reads: str | Path | None = None) -> Path:
    """The ``-o`` path, checked before any solve: its nearest existing ancestor
    is a directory, and it is not an existing file where a ``directory`` is
    needed, nor an existing directory where a file is, nor the file the
    command ``reads``."""
    path = Path(out)
    if path.exists() and path.is_dir() != directory:
        raise OSError(f"cannot write {path}: {'Not' if directory else 'Is'} a directory")
    if reads and path.exists() and path.samefile(reads):
        raise OSError(f"cannot write {path}: it is the input file")
    ancestor = next((p for p in path.parents if p.exists()), path.parent)
    if not ancestor.is_dir():
        raise OSError(f"cannot write {path}: {ancestor} is not a directory")
    return path


def _made_parent(path: Path) -> Path:
    """``path``, with its missing parent directories created; called after the
    solves, so that a rejected input or a failed solve leaves none behind."""
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--reltol", type=_eng, help="relative tolerance (default 1e-3)")
    p.add_argument("--abstol", dest="abstol_i", metavar="ABSTOL", type=_eng,
                   help="absolute current tolerance (default 1p)")
    p.add_argument("--vntol", type=_eng, help="voltage tolerance (default 1u)")
    p.add_argument("--gmin", type=_eng, help="minimum conductance (default 1p)")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="amps", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="parse a netlist and execute its directives")
    p_run.set_defaults(handler=cmd_run)
    p_run.add_argument("netlist", help="netlist file")
    p_run.add_argument("-o", "--out", help="output CSV path (single analysis) or directory")
    p_run.add_argument("--temp", type=_eng_list, help="temperature override list, degC")
    _add_solver_flags(p_run)

    p_bench = sub.add_parser("bench", help="rectifier bench frequency/temperature sweep")
    p_bench.set_defaults(handler=cmd_bench)
    p_bench.add_argument("--freq", type=_eng_list, default=[1e3, 1e4, 1e5, 1e6, 1e7, 1e8])
    p_bench.add_argument("--temp", type=_eng_list, default=[25.0])
    p_bench.add_argument("--amp", type=_eng, default=400e-6, help="input p-p amplitude (A)")
    p_bench.add_argument("--steps-per-period", type=int, default=1000)
    p_bench.add_argument("--periods", type=int, default=20)
    p_bench.add_argument("-o", "--out", default=".", help="output directory")
    _add_solver_flags(p_bench)

    p_dc = sub.add_parser("dc-sweep", help="bench DC transfer curve per temperature")
    p_dc.set_defaults(handler=cmd_dc_sweep)
    p_dc.add_argument("--source", default="IIN")
    p_dc.add_argument("--from", dest="start", type=_eng, required=True)
    p_dc.add_argument("--to", dest="stop", type=_eng, required=True)
    p_dc.add_argument("--step", type=_eng, required=True)
    p_dc.add_argument("--temp", type=_eng_list, default=[25.0])
    p_dc.add_argument("-o", "--out", default=".", help="output directory")
    _add_solver_flags(p_dc)

    p_dev = sub.add_parser("device-curves", help="Id-Vds CSV from a model card")
    p_dev.set_defaults(handler=cmd_device_curves)
    p_dev.add_argument("--model", required=True)
    p_dev.add_argument("--cards", help="netlist file holding .MODEL cards (default: bundled)")
    p_dev.add_argument("--polarity", choices=["NMOS", "PMOS"], help="sanity check only")
    p_dev.add_argument("--vgs", type=_eng_list, default=[0.5, 1.0, 1.5])
    p_dev.add_argument("--vds-from", type=_eng, default=0.0)
    p_dev.add_argument("--vds-to", type=_eng, default=1.5)
    p_dev.add_argument("--vds-step", type=_eng, default=0.01)
    p_dev.add_argument("--w", type=_eng, default=1.5e-6)
    p_dev.add_argument("--l", type=_eng, default=0.15e-6)
    p_dev.add_argument("--temp", type=_eng, default=27.0)
    p_dev.add_argument("-o", "--out", default="device_curves.csv")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand; the one place where a bad input becomes exit 1.

    The library owns each input rule and raises KeyError, OSError or
    ValueError; handlers build every config and graph before their first
    solve or write, so a rejected input leaves no output behind.
    """
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (KeyError, OSError, ValueError, MemoryError) as exc:  # str() quotes a KeyError
        text = exc.args[0] if isinstance(exc, KeyError) else str(exc) or "out of memory"
        print(f"amps {args.command}: error: {text}", file=sys.stderr)
        return 1


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def cmd_run(args) -> int:
    opts = _solver_options(args)
    path = Path(args.netlist)
    doc = _read_netlist(path)
    diags = validate(doc)
    for d in diags:
        print(f"{path}: {d.severity}: {d.message} [{d.location}]", file=sys.stderr)
    if any(d.severity == "error" for d in diags):
        return 1
    jobs = []  # (directive, temp)
    forced = args.temp is not None
    current = args.temp if forced else [27.0]
    for d in doc.directives:
        if isinstance(d, TempDirective):
            if not forced:
                current = list(d.temps)
            continue
        _distinct([f"*_t{t:g}.csv" for t in current])  # each temperature's file suffix
        for t in current:
            jobs.append((d, t))
    if not jobs:
        raise ValueError(f"{path}: no analysis directives")
    single = len(jobs) == 1 and args.out and not Path(args.out).is_dir()
    out = _output_target(args.out, not single, reads=path) if args.out else path.parent
    # every temperature's graph before the first solve or write
    graphs = {temp: build_graph(doc, temp) for temp in dict.fromkeys(t for _, t in jobs)}
    for d, temp in jobs:  # every job's record within its bound before the first solve
        g = graphs[temp]
        if isinstance(d, TranDirective):  # every unknown and current source, each step
            check_record(d.steps + 1, g.size + len(g.isources))
        elif isinstance(d, DcSweepDirective):
            check_record(d.steps + 1, g.size)
    for idx, (directive, temp) in enumerate(jobs, start=1):
        graph = graphs[temp]
        names, units = zip(*unknown_columns(graph))
        kind = type(directive).__name__.replace("Directive", "").lower()
        suffix = f"_t{temp:g}" if len(graphs) > 1 else ""
        out_path = out if single else out / f"{path.stem}_{idx}_{kind}{suffix}.csv"
        started = time.perf_counter()
        try:
            if isinstance(directive, OpDirective):
                (op,) = solve_dc([graph], opts)
                if isinstance(op, SolverError):
                    raise op
                write_table(_made_parent(out_path), ("name", "value", "unit"),
                            [names, np.concatenate((op.voltages, op.branch_currents)), units])
                points = 1
            elif isinstance(directive, DcSweepDirective):
                sweep = dc_sweep(graph, directive, opts)
                bad = np.count_nonzero(~sweep.converged)
                if bad:
                    print(f"{out_path.name}: {bad} non-converged points", file=sys.stderr)
                write_table(_made_parent(out_path), (directive.source, *names),
                            [sweep.values, *sweep.x[:, 0].T])
                points = len(sweep.values)
            else:
                ws = solve_transient(graph, directive, opts)
                write_csv(ws, _made_parent(out_path))
                points = ws.stats["steps"] + 1
        except SolverError as exc:
            print(f"{path}: {kind} at {temp:g} degC failed: {exc}", file=sys.stderr)
            return 2
        elapsed = time.perf_counter() - started
        print(f"{kind}: {points} points, {elapsed:.2f} s -> {out_path}")
    return 0


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


def cmd_bench(args) -> int:
    outdir = _output_target(args.out, directory=True)
    opts = _solver_options(args)
    configs = [
        BenchConfig(
            amplitude_pp=args.amp,
            frequency=f,
            temp=t,
            periods=args.periods,
            steps_per_period=args.steps_per_period,
        )
        for f in args.freq
        for t in args.temp
    ]
    for cfg in configs:
        retained_window(cfg)  # compare's rule, before any transient runs
    names = _distinct([f"bench_f{cfg.frequency:.0f}_t{cfg.temp:g}.csv" for cfg in configs])
    started = time.perf_counter()
    # every solve before the directory, which a rejected config leaves uncreated
    runs = run_bench(configs, opts)
    outdir.mkdir(parents=True, exist_ok=True)
    results = []
    for cfg, name, ws in zip(configs, names, runs):
        if isinstance(ws, Exception):
            print(f"bench f={cfg.frequency:g} T={cfg.temp:g} failed: {ws}", file=sys.stderr)
            results.append((cfg, name, None, f"failed: {type(ws).__name__}"))
            continue
        report = compare(ws, cfg)
        write_csv(ws, outdir / name)
        results.append((cfg, name, report, "ok"))
    write_table(outdir / "report.csv", ("freq", "temp", *_REPORT, "status"), [
        [repr(cfg.frequency) for cfg, *_ in results],
        [repr(cfg.temp) for cfg, *_ in results],
        *([getattr(r, m) if r else np.nan for _, _, r, _ in results] for m in _REPORT),
        [status for *_, status in results],
    ])
    elapsed = time.perf_counter() - started
    ok = sum(1 for r in results if r[3] == "ok")
    for cfg, name, report, status in results:
        detail = f"rms+={report.rms_error_plus:.4f} -> {name}" if report else status
        print(f"bench f={cfg.frequency:g} T={cfg.temp:g}: {detail}")
    print(f"bench: {ok}/{len(results)} points, {elapsed:.1f} s -> {outdir / 'report.csv'}")
    return 0 if ok else 2


# ---------------------------------------------------------------------------
# dc-sweep
# ---------------------------------------------------------------------------


def cmd_dc_sweep(args) -> int:
    outdir = _output_target(args.out, directory=True)
    opts = _solver_options(args)
    names = _distinct([f"dcsweep_t{temp:g}.csv" for temp in args.temp])
    sweep = DcSweepDirective(args.source, args.start, args.stop, args.step)
    # every graph before the sweep, which rejects an unknown source before it
    # solves, and the sweep before the directory
    graphs = [rectifier.bench_graph(BenchConfig(temp=temp)) for temp in args.temp]
    sweeps = rectifier.bench_dc_transfer(graphs, sweep, opts)
    outdir.mkdir(parents=True, exist_ok=True)
    for temp, name, (values, out_plus, out_minus) in zip(args.temp, names, sweeps):
        bad = np.count_nonzero(np.isnan(out_plus) | np.isnan(out_minus))
        if bad:
            print(f"{name}: {bad} non-converged points", file=sys.stderr)
        write_table(outdir / name, (args.source.lower(), "out_plus", "out_minus"),
                    [values, out_plus, out_minus])
        print(f"dc-sweep T={temp:g}: {len(values)} points -> {outdir / name}")
    return 0


# ---------------------------------------------------------------------------
# device-curves
# ---------------------------------------------------------------------------


def cmd_device_curves(args) -> int:
    if args.cards:
        doc = _read_netlist(Path(args.cards))
    else:
        doc = parse_netlist("bundled model cards\n" + rectifier.MODEL_CARDS + "\n.END\n")
    out = _output_target(args.out, directory=False, reads=args.cards)
    card = doc.models.get(args.model.upper())
    if card is None:
        raise KeyError(f"unknown model {args.model}")
    if args.polarity and args.polarity != card.polarity:
        raise ValueError(f"model {card.name} is {card.polarity}, not {args.polarity}")
    table = device_table([derive_params(card, args.w, args.l, args.temp)])
    sign = 1.0 if card.polarity == "NMOS" else -1.0
    sweep = DcSweepDirective("VDS", args.vds_from, args.vds_to, args.vds_step)
    labels = _distinct([f"id_vgs{v:g}" for v in args.vgs])
    check_record(sweep.steps + 1, len(labels))
    vds = sign * sweep.values()
    id_table = np.empty((len(vds), len(args.vgs)))
    for lo in range(0, len(vds), _CURVE_ROWS):  # one kernel call per block of rows
        vg, vd = np.meshgrid(sign * np.array(args.vgs), vds[lo:lo + _CURVE_ROWS])
        ids = np.empty((5,) + vg.shape)
        with np.errstate(all="ignore"):
            eval_mosfet_into(table, np.stack((vg, vd, np.zeros_like(vg))), ids)
        id_table[lo:lo + _CURVE_ROWS] = ids[0]
    write_table(_made_parent(out), ("vds", *labels), [vds, *id_table.T])
    print(f"device-curves {card.name}: {len(vds)} bias rows -> {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

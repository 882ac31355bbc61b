"""One timed ``amps`` invocation, run in a fresh process by ``run.py``.

Usage: ``python3 child.py '<json>'`` where the JSON holds ``src`` (the
checkout's source directory), ``argv`` (for ``amps.cli.main``), ``trace``
(record spans) and ``result`` (where to write what was measured). Exits with
``main``'s return code. With ``setup_only`` the run ends at the first
solver call, exiting 0.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import spans


def peak_rss_kb() -> int:
    """This process's peak resident set, from VmHWM.

    Not getrusage's ru_maxrss: Linux carries that across exec, so it would
    report the benchmark's own resident set when that is the larger.
    """
    status = Path("/proc/self/status").read_text()
    return int(re.search(r"^VmHWM:\s+(\d+) kB", status, re.MULTILINE).group(1))


def main() -> int:
    cfg = json.loads(sys.argv[1])
    src = Path(cfg["src"]).resolve()
    sys.path.insert(0, str(src))
    import amps.cli

    if src not in Path(amps.__file__).resolve().parents:
        raise SystemExit(f"imported amps from {amps.__file__}, not from {src}")
    if cfg["trace"]:
        hook = spans.Tracer()
        entry = hook.wrap("main", amps.cli.main)
    else:
        hook = spans.FirstSolverCall(stop=cfg["setup_only"])
        entry = amps.cli.main
    missing = hook.install()
    try:
        rc = entry(cfg["argv"])
    except spans.SetupDone:
        rc = 0
    result = {
        "rc": rc,
        "first_solver_call": getattr(hook, "at", None),
        "maxrss_kb": peak_rss_kb(),
        "not_found": missing,
        "spans": getattr(hook, "spans", None),
    }
    Path(cfg["result"]).write_text(json.dumps(result))
    return rc


if __name__ == "__main__":
    raise SystemExit(main())

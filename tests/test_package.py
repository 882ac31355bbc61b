"""The package's public surface."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import amps


def test_every_export_resolves():
    assert len(set(amps.__all__)) == len(amps.__all__)
    missing = [name for name in amps.__all__ if not hasattr(amps, name)]
    assert not missing


# Runs each command in a fresh interpreter and prints the top-level modules
# that it loaded beyond the standard library (those that ``.pth`` files load
# at start-up come before the baseline).
RUN_EVERY_COMMAND = """
import sys
before = set(sys.modules)
from importlib.resources import files
import amps.cli
out = sys.argv[1]
for argv in (["run", str(files("amps").joinpath("data", "divider.cir")), "-o", out + "/op.csv"],
             ["bench", "--freq", "1meg", "--periods", "3", "--steps-per-period", "20",
              "-o", out + "/bench"],
             ["dc-sweep", "--from", "-10u", "--to", "10u", "--step", "10u", "-o", out + "/sweep"],
             ["device-curves", "--model", "CMOSN", "-o", out + "/curves.csv"]):
    assert amps.cli.main(argv) == 0, argv
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
print(sorted(loaded - set(sys.stdlib_module_names)))
"""


def test_numpy_is_the_only_runtime_dependency(tmp_path):
    """scipy may be installed beside amps, but no command may import it."""
    env = {**os.environ, "PYTHONPATH": str(Path(amps.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", RUN_EVERY_COMMAND, str(tmp_path)], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.splitlines()[-1] == "['amps', 'numpy']"


def test_source_lines_fit_100_columns():
    """``wc -l src/amps/*.py`` measures the design only while no line packs
    more code past the 100 columns that every source line keeps to."""
    long = [f"{path.name}:{k}" for path in sorted(Path(amps.__file__).parent.glob("*.py"))
            for k, line in enumerate(path.read_text().splitlines(), 1) if len(line) > 100]
    assert long == []


def test_no_module_imports_a_name_it_never_uses():
    """Every name a module of ``src/amps`` imports is referenced in it,
    exported in its ``__all__`` or imported on a line marked ``# noqa:
    F401`` (a name kept for a tool that patches it there), so that a
    deletion leaves no dead import behind."""
    unused = []
    for path in sorted(Path(amps.__file__).parent.glob("*.py")):
        source = path.read_text()
        tree, lines = ast.parse(source), source.splitlines()
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "__all__":
                used.update(ast.literal_eval(node.value))
        for node in ast.walk(tree):
            if (not isinstance(node, (ast.Import, ast.ImportFrom))
                    or getattr(node, "module", None) == "__future__"
                    or "# noqa: F401" in lines[node.lineno - 1]):
                continue
            unused += [f"{path.name}:{node.lineno} {alias.asname or alias.name}"
                       for alias in node.names
                       if (alias.asname or alias.name).partition(".")[0] not in used]
    assert unused == []

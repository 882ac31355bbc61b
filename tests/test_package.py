"""The package's public surface."""

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

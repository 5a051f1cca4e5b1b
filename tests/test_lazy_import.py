"""Only realization needs numpy: the package, the CLI and the exact commands
load without it, and every sphere name still resolves on first use."""

import json
import os
import subprocess
import sys

import pytest

import rtdensity
from conftest import REPO_ROOT
from rtdensity import cli

PROGRAM = """
import sys
import rtdensity
assert "numpy" not in sys.modules, "import rtdensity"
import rtdensity.cli
assert "numpy" not in sys.modules, "import rtdensity.cli"
rtdensity.cli.main.main(args=["density", "--s", "5", "--t", "11"], prog_name="rtdensity", standalone_mode=False)
assert "numpy" not in sys.modules, "density --s 5 --t 11"
rtdensity.cli.main.main(args=["search", "--n", "3", "--s", "3", "--t", "5", "-d", "3"], prog_name="rtdensity", standalone_mode=False)
assert "numpy" not in sys.modules, "search --n 3 --s 3 --t 5 -d 3"
from rtdensity import RealizedGraph, realize
import rtdensity.sphere
assert realize is rtdensity.sphere.realize and RealizedGraph is rtdensity.sphere.RealizedGraph
assert rtdensity.cli.realize is realize
assert "numpy" in sys.modules
"""


def test_numpy_loads_only_with_the_sphere_layer():
    path = [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run([sys.executable, "-c", PROGRAM], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    decoder = json.JSONDecoder()
    density, end = decoder.raw_decode(proc.stdout)
    search, _ = decoder.raw_decode(proc.stdout[end:].lstrip())
    assert (density["command"], density["s"], density["t"]) == ("density", 5, 11)
    assert (search["command"], search["n"], search["density"]["exact"]) == ("search", 3, "1/36")


@pytest.mark.parametrize("module", [rtdensity, cli])
def test_unknown_names_still_raise_attribute_error(module):
    with pytest.raises(AttributeError, match="no_such_name"):
        module.no_such_name  # noqa: B018
    assert not hasattr(module, "no_such_name")

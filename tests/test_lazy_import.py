"""Only realization needs numpy: the package, the CLI and the exact commands
load without it, and every sphere name still resolves on first use. Each
command loads only the engine layers it runs, and every name the package or
the CLI exports resolves to its layer's object."""

import importlib
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


def run_python(program: str, *args: str) -> subprocess.CompletedProcess:
    path = [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run([sys.executable, "-c", program, *args], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc


def test_numpy_loads_only_with_the_sphere_layer():
    proc = run_python(PROGRAM)
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


# Each command loads the engine layers it runs and no others; every row also
# says whether numpy is loaded afterwards.
LAYERS = ("freeness", "optimize", "partitions", "sphere", "verify")
COMMAND_LAYERS = [
    ([], set(), False),
    (["--help"], set(), False),
    (["density", "--s", "5", "--t", "11"], {"optimize", "partitions"}, False),
    (["audit", "--s", "5", "--t-min", "10", "--t-max", "11"], {"optimize", "partitions"}, False),
    (["search", "--n", "3", "--s", "3", "--t", "5", "-d", "3"], {"verify", "freeness", "partitions"}, False),
    (["coeffs", "--m", "3"], {"verify", "freeness", "partitions"}, False),
    (["structure", "--graph", "{k5}", "--s", "3", "--t", "10"], {"verify", "freeness", "partitions"}, False),
    (["check", "--graph", "{k5}", "--t", "10"], {"freeness"}, False),
    (
        ["realize", "--graph", "{k5}", "--N", "16", "--epsilon", "0.2", "--h", "16", "--out", "{out}"],
        {"sphere", "freeness"},
        True,
    ),
]

LAYERS_PROGRAM = """
import json, sys
import rtdensity.cli
argv = json.loads(sys.argv[1])
if argv:
    try:
        rtdensity.cli.main.main(args=argv, prog_name="rtdensity")
    except SystemExit as exc:
        assert not exc.code, exc.code
layers = [m for m in json.loads(sys.argv[2]) if f"rtdensity.{m}" in sys.modules]
print(json.dumps({"layers": layers, "numpy": "numpy" in sys.modules}), file=sys.stderr)
"""


@pytest.mark.parametrize("argv, layers, numpy", COMMAND_LAYERS, ids=[row[0][0] if row[0] else "import" for row in COMMAND_LAYERS])
def test_each_command_loads_only_its_layers(argv, layers, numpy, tmp_path):
    k5 = tmp_path / "k5.json"
    k5.write_text(rtdensity.dumps_graph(rtdensity.complete_balanced(5)), encoding="utf-8")
    argv = [a.format(k5=k5, out=tmp_path / "edges.txt") for a in argv]
    proc = run_python(LAYERS_PROGRAM, json.dumps(argv), json.dumps(LAYERS))
    report = json.loads(proc.stderr.splitlines()[-1])
    assert (set(report["layers"]), report["numpy"]) == (layers, numpy)


def test_package_table_resolves_every_name():
    for module, names in rtdensity._EXPORTS.items():
        layer = importlib.import_module(f"rtdensity.{module}")
        assert getattr(rtdensity, module) is layer and module in dir(rtdensity)
        for name in names:
            assert getattr(rtdensity, name) is getattr(layer, name), name
            assert name in dir(rtdensity), name
    assert rtdensity.NoFreeGraphError is rtdensity.verify.NoFreeGraphError


def test_cli_names_resolve_to_their_layers():
    for name, layer in cli._LAYER_OF.items():
        assert getattr(cli, name) is getattr(importlib.import_module(f"rtdensity.{layer}"), name), name


def test_submodules_load_on_attribute_access():
    run_python(
        "import sys\n"
        "import rtdensity\n"
        "assert 'rtdensity.optimize' not in sys.modules\n"
        "assert rtdensity.optimize.rho(3, 6).density > 0\n"
        "assert rtdensity.verify.NoFreeGraphError is rtdensity.NoFreeGraphError\n"
        "assert 'numpy' not in sys.modules\n"
    )

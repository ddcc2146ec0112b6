"""The package namespace loads submodules on first use, and each CLI
subcommand imports only the modules it runs, and no slow standard-library
module a bare interpreter does not already have."""

import importlib
import json
import os
import subprocess
import sys

import pytest

import linfgraph
from linfgraph import save_instance, w4_witness
from linfgraph.cli import main


def test_every_public_name_is_its_submodules_object():
    for name in linfgraph.__all__:
        module = importlib.import_module(f"linfgraph.{linfgraph._MODULE_OF[name]}")
        assert getattr(linfgraph, name) is getattr(module, name), name


def test_star_import_binds_all_public_names():
    namespace = {}
    exec("from linfgraph import *", namespace)
    assert set(linfgraph.__all__) <= set(namespace)


def test_dir_lists_all_public_names():
    assert set(linfgraph.__all__) <= set(dir(linfgraph))


def test_public_names():
    # 50 names; the edge-subset feasibility search, the checked
    # perturbation, its error and the next-hop shortest-path table are
    # not among them
    assert len(linfgraph.__all__) == 50
    for name in ("is_feasible_set", "perturb_to_generic", "PerturbationFailed", "shortest_path_table"):
        assert not hasattr(linfgraph, name)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        linfgraph.no_such_name
    assert not hasattr(linfgraph, "minor")
    from linfgraph import minors  # an unknown name falls through to the submodule

    assert minors.classify_dim2 is linfgraph.classify_dim2


_PROBE = """\
import contextlib, io, json, sys
import linfgraph.cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = linfgraph.cli.main(sys.argv[1:])
print(json.dumps([code, sorted(sys.modules)]))
"""

# modules whose import costs a CLI process milliseconds it does not need
_SLOW_STDLIB = ["dataclasses", "inspect"]

_ALWAYS = ["cli", "errors", "graph_core", "serialize"]


# (argv, exit code, submodules beyond _ALWAYS) for the benchmark's subcommands
_SUBCOMMANDS = [
    (["validate", "W4"], 0, []),
    (["generic-check", "W4"], 0, []),
    (["gen", "--family", "random", "--graph", "W4", "-o", "gen.json"], 0, ["instances"]),
    (["realize", "W4", "--dim", "3", "--certificate", "out.json"], 0, ["realizability"]),
    (["verify", "W4", "--certificate", "CERT"], 0, ["realizability"]),
    (["min-dim", "W4"], 0, ["realizability"]),
    (["classify", "W4"], 1, ["instances", "minors"]),
]


def _probe_env():
    src = os.path.dirname(os.path.dirname(linfgraph.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


@pytest.fixture(scope="module")
def bare_modules():
    """The modules a bare `python -c pass` has loaded, in the probe's environment."""
    p = subprocess.run([sys.executable, "-c", "import sys; print(*sys.modules)"],
                       env=_probe_env(), capture_output=True, text=True, timeout=120)
    assert p.returncode == 0, p.stderr
    return set(p.stdout.split())


@pytest.mark.parametrize("argv, code, extra", _SUBCOMMANDS, ids=[c[0][0] for c in _SUBCOMMANDS])
def test_each_subcommand_imports_only_what_it_runs(tmp_path, bare_modules, argv, code, extra):
    w4 = tmp_path / "w4.json"
    save_instance(*w4_witness(), w4)
    cert = tmp_path / "cert.json"
    assert main(["realize", str(w4), "--dim", "3", "--certificate", str(cert)]) == 0
    files = {"W4": str(w4), "CERT": str(cert)}
    p = subprocess.run([sys.executable, "-c", _PROBE, *(files.get(a, a) for a in argv)],
                       cwd=tmp_path, env=_probe_env(), capture_output=True, text=True, timeout=120)
    assert p.returncode == 0, p.stderr
    got_code, modules = json.loads(p.stdout)
    assert got_code == code
    assert [m for m in modules if m.split(".")[0] == "linfgraph"] == [
        "linfgraph"] + [f"linfgraph.{m}" for m in sorted(_ALWAYS + extra)]
    assert set(_SLOW_STDLIB) & (set(modules) - bare_modules) == set()

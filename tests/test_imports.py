"""Which layers each CLI call loads.

A fresh interpreter per case: this process has already imported every
layer, so only a subprocess shows what an import or a verb pulls in.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import confspace
from confspace import braid, identities, morphisms
from confspace.cli import build_parser

SRC = Path(confspace.__file__).resolve().parent.parent

# prints the layers and heavy standard modules loaded after importing the
# CLI and after running argv
_PROBE = """
import io, json, sys
import confspace.cli

HEAVY = ("dataclasses", "decimal", "fractions", "numbers")

def layers():
    return sorted(m.split(".", 1)[1] for m in sys.modules
                  if m.startswith("confspace.") and m != "confspace.cli")

def heavy():
    return [m for m in HEAVY if m in sys.modules]

seen = {"import": [layers(), heavy()]}
out, sys.stdout = sys.stdout, io.StringIO()
status = confspace.cli.run(sys.argv[1:])
sys.stdout = out
seen["run"] = [layers(), heavy()]
seen["status"] = status
print(json.dumps(seen))
"""


def _probe(argv):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", _PROBE, *argv], env=env,
                         capture_output=True, check=True, timeout=120)
    return json.loads(out.stdout)


BRAID = ["braid"]


@pytest.mark.parametrize("argv, layers", [
    pytest.param(["braid-equal", "--n", "4", "--lhs", "1 2 -1 3",
                  "--rhs", "-2 1 2 3"], BRAID, id="braid-equal"),
    pytest.param(["braid-search", "--n", "4", "--k", "3"], BRAID,
                 id="braid-search"),
    pytest.param(["braid-gallery", "--name", "nu6"], BRAID,
                 id="braid-gallery"),
    pytest.param(["disc", "--n", "3"], ["polyring"], id="disc"),
    pytest.param(["gallery-verify", "--name", "cayley", "--trials", "2"],
                 ["morphisms", "polyring"], id="gallery-verify"),
    pytest.param(["gallery-verify", "--name", "covering", "--trials", "2"],
                 ["morphisms", "polyring"], id="gallery-verify-covering"),
    pytest.param(["complex", "--n", "5", "--family", "cr", "--homology"],
                 ["homology", "ratios"], id="complex"),
    pytest.param(["complex", "--n", "5", "--family", "cr", "--orbits", "1"],
                 ["ratios"], id="complex-without-homology"),
    pytest.param(["abc", "--n", "4", "--bound", "1"],
                 ["identities", "polyring"], id="abc"),
])
def test_each_verb_loads_only_its_layers(argv, layers):
    seen = _probe(argv)
    assert seen["import"] == [[], []]
    assert seen["status"] == 0
    assert seen["run"] == [layers, []]


def test_package_import_loads_nothing_else():
    probe = ("import json, sys; before = set(sys.modules); import confspace; "
             "print(json.dumps(sorted(set(sys.modules) - before)))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, check=True, timeout=120)
    assert json.loads(out.stdout) == ["confspace"]


def test_gallery_names_match_the_checks():
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    name = next(a for a in sub.choices["gallery-verify"]._actions
                if a.dest == "name")
    assert list(name.choices) == sorted(morphisms.GALLERY_CHECKS)


def test_one_capacity_error():
    assert identities.CapacityError is braid.CapacityError
    assert braid.CapacityError is confspace.CapacityError

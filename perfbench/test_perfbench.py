"""Tests of the benchmark itself: the output checker, the tracer and the
word generator.  Run with ``python -m pytest perfbench``."""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys

import pytest
from confspace import braid

from perfbench import workloads
from perfbench.__main__ import PER_LAYER, ROOT, SRC, Runner, run_pass
from perfbench.tracer import TRACE_MARK
from perfbench.workloads import Invocation

ENV = dict(os.environ, PYTHONPATH=str(SRC))

# one small invocation of every verb
ONE_PER_VERB = [
    ("complex", "--n", "5", "--family", "cr", "--homology"),
    ("abc", "--n", "4", "--bound", "2"),
    ("disc", "--n", "3", "--projective"),
    ("gallery-verify", "--name", "cayley"),
    ("braid-equal", "--n", "4", "--lhs", "1 2 -1 3", "--rhs", "-2 1 2 3"),
    ("braid-search", "--n", "4", "--k", "4"),
    ("braid-gallery", "--name", "nu6"),
]


def _run(module, argv):
    return subprocess.run([sys.executable, "-m", module, *argv], cwd=ROOT,
                          env=ENV, capture_output=True, check=False)


def _trace(stderr):
    last = stderr.decode().rstrip("\n").rpartition("\n")[2]
    assert last.startswith(TRACE_MARK)
    return json.loads(last[len(TRACE_MARK):])


def test_wrong_expected_value_counts_as_failure():
    argv = ("complex", "--n", "5", "--family", "cr", "--homology")
    right = Invocation(argv, {"status": 0, "betti": [1, 31]})
    wrong = Invocation(argv, {"status": 0, "betti": [1, 30]})
    p = run_pass(Runner(), [right, wrong])
    assert [inv for inv, _ in p.failed] == [wrong]
    assert "betti" in p.failed[0][1]


def test_wrong_braid_verdict_counts_as_failure():
    pair = workloads.word_pairs(0)[0]
    inv = workloads.words(0)[0]
    flipped = Invocation(inv.argv, dict(inv.expect, equal=not pair["equal"]))
    p = run_pass(Runner(), [inv, flipped])
    assert [i for i, _ in p.failed] == [flipped]


@pytest.mark.parametrize("argv", ONE_PER_VERB, ids=lambda a: a[0])
def test_tracer_keeps_stdout(argv):
    plain = _run("confspace", argv)
    traced = _run("perfbench.tracer", argv)
    assert traced.returncode == plain.returncode
    assert traced.stdout == plain.stdout
    spans = {name for name, *_ in _trace(traced.stderr)["spans"]}
    assert "cli.run" in spans and len(spans) > 1


def test_tracer_patches_from_imported_names():
    # cli calls discriminant_monic through its own ``from`` import, and
    # discriminant_of reaches bareiss_det inside polyring
    trace = _trace(_run("perfbench.tracer", ["disc", "--n", "3"]).stderr)
    parents = {name: parent for name, parent, *_ in trace["spans"]}
    assert parents["polyring.discriminant_monic"] == "cli.run"
    assert "polyring.bareiss_det" in parents


def test_word_pairs_are_seeded_and_built_as_recorded():
    assert workloads.word_pairs(3) == workloads.word_pairs(3)
    assert workloads.word_pairs(3) != workloads.word_pairs(4)
    for pair in workloads.word_pairs(3):
        lhs, rhs = pair["lhs"], pair["rhs"]
        gap = (braid.exponent_sum(braid.BraidWord(pair["n"], tuple(rhs)))
               - braid.exponent_sum(braid.BraidWord(pair["n"], tuple(lhs))))
        assert abs(gap) == (0 if pair["equal"] else 2)


@pytest.mark.parametrize("neg_share", [0.0, 0.5])
def test_rewrites_preserve_the_braid(neg_share):
    rng = random.Random(1)
    for n in (3, 4, 6):
        lhs = workloads.random_word(rng, n, 30, neg_share)
        rhs = (workloads.rewrite(rng, lhs, n, 40) if neg_share
               else workloads.positive_rewrite(rng, lhs, 40))
        assert rhs != lhs
        assert braid.words_equal(braid.BraidWord(n, tuple(lhs)),
                                 braid.BraidWord(n, tuple(rhs)))


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} \
        == PER_LAYER


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "-m", "perfbench", "--workload", "homs", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, timeout=60, check=False)
    assert out.returncode != 0 and out.stdout == b""

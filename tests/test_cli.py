import json
import random
import sys

import pytest

from confspace import braid, identities, morphisms, polyring, ratios
from confspace.cli import run
import oracles
from oracles import (
    feler_nine_sampled_expanded,
    verify_covering_fractions,
    verify_ferrari_fractions,
)


def capture(capsys, argv):
    status = run(argv)
    out = capsys.readouterr().out
    return status, out


def test_complex_homology_report(capsys):
    status, out = capture(
        capsys, ["complex", "--n", "5", "--family", "cr", "--homology"])
    assert status == 0
    data = json.loads(out)
    assert data["n"] == 5
    assert data["family"] == "cr"
    assert len(data["vertices"]) == 30
    assert len(data["edges"]) == 60
    assert data["chi"] == -30
    assert data["homology"]["betti"] == [1, 31]
    assert data["homology"]["chi"] == -30


def test_complex_orbit_report(capsys):
    status, out = capture(
        capsys, ["complex", "--n", "5", "--family", "sr", "--orbits", "1"])
    data = json.loads(out)
    assert status == 0
    assert len(data["orbits"]) == 2
    assert sum(o["size"] for o in data["orbits"]) == 120


def test_braid_equal_true(capsys):
    gorin_rhs = "-2 -1 1 -3 2 -1 3 -1 1 -2 1 2"
    status, out = capture(
        capsys,
        ["braid-equal", "--n", "4", "--lhs", "3 -1", "--rhs", gorin_rhs])
    assert status == 0
    assert json.loads(out)["equal"] is True


def test_braid_equal_false_carries_witness(capsys):
    status, out = capture(
        capsys, ["braid-equal", "--n", "3", "--lhs", "1", "--rhs", "2"])
    assert status == 1
    data = json.loads(out)
    assert data["equal"] is False
    assert "witness" in data


def test_braid_equal_capacity(capsys, monkeypatch):
    def no_normal_form(w):
        raise AssertionError("normal-form work before the capacity check")

    monkeypatch.setattr(braid, "canonical_form", no_normal_form)
    long_word = " ".join(["1", "3"] * 1000)
    assert run(["braid-equal", "--n", "4", "--lhs", "1",
                "--rhs", long_word]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "n * L * (n + L) <= 10000000" in captured.err
    assert "L = 2000" in captured.err
    # an empty word counts as one letter: canonical_form would still build
    # permutations of length n
    assert run(["braid-equal", "--n", "1000000000", "--lhs", "",
                "--rhs", ""]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "got n = 1000000000, L = 1" in captured.err


def test_complex_capacity(capsys, monkeypatch):
    def no_build(n, family):
        raise AssertionError("complex built before the capacity check")

    monkeypatch.setattr(ratios, "build_complex", no_build)
    # family l on n marks counts as cr on n + 1
    for family, n in (("cr", "10"), ("sr", "10"), ("l", "9")):
        assert run(["complex", "--n", n, "--family", family,
                    "--homology"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "capped at 9 marks" in captured.err
        assert "got 10" in captured.err


def test_complex_cap_admits_nine_marks(monkeypatch):
    class Built(Exception):
        pass

    def build(n, family):
        raise Built

    monkeypatch.setattr(ratios, "build_complex", build)
    for family, n in (("cr", "9"), ("sr", "9"), ("l", "8")):
        with pytest.raises(Built):
            run(["complex", "--n", n, "--family", family, "--orbits", "3"])


def test_braid_equal_cap_admits_long_words(capsys):
    # 1000 mixed letters on 6 strands, and 600 on 8 (past every benchmark
    # word), stay under the cap
    rng = random.Random(5)
    for n, length in ((6, 1000), (8, 600)):
        text = " ".join(str(rng.choice((1, -1)) * rng.randint(1, n - 1))
                        for _ in range(length))
        status, out = capture(
            capsys, ["braid-equal", "--n", str(n), "--lhs", text,
                     "--rhs", text])
        assert status == 0
        assert json.loads(out) == {"n": n, "equal": True}


@pytest.mark.parametrize("argv", [
    ["braid-search", "--n", "1", "--k", "4"],
    ["braid-search", "--n", "4", "--k", "0"],
    ["braid-search", "--n", "4", "--k", "-1"],
    ["braid-gallery", "--name", "mu", "--n", "1"],
    ["braid-gallery", "--name", "phi1", "--n", "0"],
    ["braid-gallery", "--name", "phixy", "--n", "4", "--r", "0",
     "--x", "1", "--y", "1"],
    ["gallery-verify", "--name", "ferrari", "--trials", "-5"],
    ["gallery-verify", "--name", "eisenstein", "--trials", "0"],
    ["complex", "--n", "5", "--family", "cr", "--orbits", "-1"],
])
def test_degenerate_inputs_refused(capsys, argv):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be at least" in captured.err


def test_braid_search(capsys):
    status, out = capture(capsys, ["braid-search", "--n", "5", "--k", "4"])
    assert status == 0
    data = json.loads(out)
    assert data["classes"] and all(c["cyclic"] for c in data["classes"])


def test_braid_gallery(capsys):
    status, out = capture(capsys, ["braid-gallery", "--name", "nu6"])
    assert status == 0
    data = json.loads(out)
    assert data["image_order"] == 720 and data["surjective"] is True


@pytest.mark.parametrize("argv", [
    ["--name", "nu6", "--n", "5"],
    ["--name", "nu41", "--n", "6"],
    ["--name", "nu43", "--r", "2"],
    ["--name", "mu", "--n", "4", "--r", "2"],
    ["--name", "phi2", "--n", "4", "--x", "1"],
    ["--name", "phi3", "--n", "4", "--y", "0"],
], ids=lambda argv: " ".join(argv[1::2]))
def test_braid_gallery_refuses_flags_the_map_does_not_take(capsys, argv):
    assert run(["braid-gallery", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert argv[1] in captured.err


@pytest.mark.parametrize("argv, n", [
    (["--name", "nu6", "--n", "6"], 6),
    (["--name", "nu42", "--n", "4"], 4),
    (["--name", "phi1", "--n", "3"], 3),
    (["--name", "phixy", "--n", "3", "--r", "2", "--x", "1", "--y", "1"], 3),
])
def test_braid_gallery_takes_its_own_flags(capsys, argv, n):
    status, out = capture(capsys, ["braid-gallery", *argv])
    assert status == 0
    assert json.loads(out)["n"] == n


def test_cayley_mismatch_fails_with_witness(capsys, monkeypatch):
    # the identity in place of the derivative image: no transform makes the
    # Jacobian a constant multiple of it
    monkeypatch.setattr(morphisms, "eisenstein", lambda z: tuple(z))
    status, out = capture(capsys, ["gallery-verify", "--name", "cayley"])
    assert status == 1
    data = json.loads(out)
    assert data["pass"] is False
    assert data["witness"] == {"transforms_tried": [
        "identity", "swap x,y", "y -> -y", "swap and y -> -y"]}


def test_gallery_verify_passes(capsys):
    for name in ("eisenstein", "feler6", "model"):
        status, out = capture(capsys, ["gallery-verify", "--name", name])
        assert status == 0
        data = json.loads(out)
        assert data["pass"] is True
        assert data["mode"] == "symbolic"


def test_gallery_verify_seeded_deterministic(capsys):
    args = ["gallery-verify", "--name", "feler9", "--trials", "5",
            "--seed", "9"]
    s1, o1 = capture(capsys, args)
    s2, o2 = capture(capsys, args)
    assert s1 == s2 == 0
    assert o1 == o2


def test_feler9_symbolic_stdout(capsys):
    status, out = capture(
        capsys, ["gallery-verify", "--name", "feler9", "--symbolic"])
    assert status == 0
    assert out == ('{"name": "feler9", "mode": "symbolic", "trials": 6973, '
                   '"pass": true}\n')


def test_feler9_sampled_stdout_matches_expanded_oracle(capsys):
    status, out = capture(capsys, ["gallery-verify", "--name", "feler9",
                                   "--trials", "2000", "--seed", "1"])
    rep = feler_nine_sampled_expanded(2000, random.Random(1))
    report = morphisms._report(rep["pass"], "sampled", rep["trials"],
                               rep["witness"])
    assert status == 0
    assert out == json.dumps({"name": "feler9", **report}) + "\n"


@pytest.mark.parametrize("trials, seeds", [(20, range(10)), (2000, [3])])
def test_ferrari_stdout_matches_fraction_oracle(capsys, trials, seeds):
    # the int loop makes the oracle's draws and reaches its verdict
    for seed in seeds:
        status, out = capture(capsys, ["gallery-verify", "--name", "ferrari",
                                       "--trials", str(trials),
                                       "--seed", str(seed)])
        oracle_rng = random.Random(seed)
        report = verify_ferrari_fractions(trials, oracle_rng, False)
        assert status == 0
        assert out == json.dumps({"name": "ferrari", **report}) + "\n"
        rng = random.Random(seed)
        morphisms.GALLERY_CHECKS["ferrari"](trials, rng, False)
        assert rng.getstate() == oracle_rng.getstate()


def test_ferrari_failure_witness_matches_fraction_oracle(capsys, monkeypatch):
    # a resolvent that is not symmetric in the points fails on the first
    # draw in both routes, with that draw as the witness
    monkeypatch.setattr(morphisms, "_resolvent_times_4",
                        lambda q1, q2, q3, q4: (q1, q2, q3))
    for seed in range(3):
        status, out = capture(capsys, ["gallery-verify", "--name", "ferrari",
                                       "--seed", str(seed)])
        report = verify_ferrari_fractions(20, random.Random(seed), False)
        assert status == 1 and report["pass"] is False
        assert out == json.dumps({"name": "ferrari", **report}) + "\n"


@pytest.mark.parametrize("trials, seeds", [(20, range(10)), (2000, [3])])
def test_covering_stdout_matches_fraction_oracle(capsys, trials, seeds):
    # the int loop makes the oracle's draws and reaches its verdict
    for seed in seeds:
        status, out = capture(capsys, ["gallery-verify", "--name", "covering",
                                       "--trials", str(trials),
                                       "--seed", str(seed)])
        oracle_rng = random.Random(seed)
        report = verify_covering_fractions(trials, oracle_rng, False)
        assert status == 0
        assert out == json.dumps({"name": "covering", **report}) + "\n"
        rng = random.Random(seed)
        morphisms.GALLERY_CHECKS["covering"](trials, rng, False)
        assert rng.getstate() == oracle_rng.getstate()


def test_covering_failure_witness_matches_fraction_oracle(capsys,
                                                          monkeypatch):
    # a discriminant that ignores scaling, the number of points, breaks the
    # law at the first draw with m > 0 in both routes, with that draw as
    # the witness
    monkeypatch.setattr(morphisms, "discriminant_value", len)
    monkeypatch.setattr(oracles, "discriminant_fractions", len)
    for seed in range(3):
        status, out = capture(capsys, ["gallery-verify", "--name", "covering",
                                       "--seed", str(seed)])
        report = verify_covering_fractions(20, random.Random(seed), False)
        assert status == 1 and report["pass"] is False
        assert out == json.dumps({"name": "covering", **report}) + "\n"


def test_gallery_verify_trials_capacity(capsys, monkeypatch):
    class Checked(Exception):
        pass

    def check(trials, rng, symbolic):
        raise Checked

    monkeypatch.setitem(morphisms.GALLERY_CHECKS, "feler9", check)
    for trials in ("2001", "1000000000"):
        assert run(["gallery-verify", "--name", "feler9",
                    "--trials", trials]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "capped at 2000 trials" in captured.err
        assert "got %s" % trials in captured.err
    with pytest.raises(Checked):
        run(["gallery-verify", "--name", "feler9", "--trials", "2000"])


def test_disc_command(capsys):
    status, out = capture(capsys, ["disc", "--n", "2"])
    assert status == 0
    data = json.loads(out)
    assert data["kind"] == "monic"
    assert [t[0] for t in data["terms"]] == ["-1", "4"]


def test_disc_capacity(capsys, monkeypatch):
    def no_expansion(n):
        raise AssertionError("discriminant expanded before the capacity "
                             "check")

    monkeypatch.setattr(polyring, "discriminant_monic", no_expansion)
    monkeypatch.setattr(polyring, "discriminant_projective", no_expansion)
    for argv in (["disc", "--n", "8"], ["disc", "--n", "9", "--projective"]):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "capped at n = 7" in captured.err


def test_disc_cap_admits_seven(monkeypatch):
    class Expanded(Exception):
        pass

    def expand(n):
        raise Expanded

    monkeypatch.setattr(polyring, "discriminant_monic", expand)
    monkeypatch.setattr(polyring, "discriminant_projective", expand)
    for argv in (["disc", "--n", "7"], ["disc", "--n", "7", "--projective"]):
        with pytest.raises(Expanded):
            run(argv)


def test_braid_search_capacity(capsys):
    assert run(["braid-search", "--n", "4", "--k", "9"]) == 2
    assert "k <= 8" in capsys.readouterr().err


def test_braid_search_strand_capacity(capsys, monkeypatch):
    def no_search(k):
        raise AssertionError("classes searched before the strand check")

    monkeypatch.setattr(braid, "conjugacy_class_reps", no_search)
    for n in (101, 2000):
        assert run(["braid-search", "--n", str(n), "--k", "8"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "capped at n = 100 strands" in captured.err
        assert "got n = %d" % n in captured.err


def test_braid_search_strand_cap_admits_one_hundred(monkeypatch):
    class Searched(Exception):
        pass

    def search(k):
        raise Searched

    monkeypatch.setattr(braid, "conjugacy_class_reps", search)
    with pytest.raises(Searched):
        run(["braid-search", "--n", "100", "--k", "8"])


def _no_gallery_images(monkeypatch, build):
    for name in ("standard_mu", "doubling_hom", "lattice_hom"):
        monkeypatch.setattr(braid, name, build)


def test_braid_gallery_degree_capacity(capsys, monkeypatch):
    def no_images(*args):
        raise AssertionError("images built before the degree check")

    _no_gallery_images(monkeypatch, no_images)
    # mu --n 100000 would build n - 1 tuples of length n, about 80 GB
    for argv, k in ((["mu", "--n", "100000"], 100000),
                    (["mu", "--n", "33"], 33),
                    (["phi1", "--n", "17"], 34),
                    (["phi2", "--n", "17"], 34),
                    (["phi3", "--n", "17"], 34),
                    (["phixy", "--n", "11", "--r", "3", "--x", "1", "--y",
                      "2"], 33),
                    (["phixy", "--n", "2", "--r", "1000", "--x", "0", "--y",
                      "1"], 2000)):
        assert run(["braid-gallery", "--name", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "capped at degree k = 32" in captured.err
        assert "got k = %d" % k in captured.err


def test_braid_gallery_degree_cap_admits_thirty_two(monkeypatch):
    class Built(Exception):
        pass

    def build(*args):
        raise Built

    _no_gallery_images(monkeypatch, build)
    for argv in (["mu", "--n", "32"], ["phi3", "--n", "16"],
                 ["phixy", "--n", "16", "--r", "2", "--x", "1", "--y", "1"]):
        with pytest.raises(Built):
            run(["braid-gallery", "--name", *argv])


def test_abc_command(capsys):
    status, out = capture(capsys, ["abc", "--n", "3", "--bound", "1"])
    assert status == 0
    data = json.loads(out)
    assert data["counts"]["simple"] == 1
    assert data["counts"]["double"] == 0
    assert data["counts"]["other"] == 0


def test_abc_capacity_refuses_before_listing(capsys, monkeypatch):
    class Listed(Exception):
        pass

    def no_listing(pairs, d):
        raise Listed

    monkeypatch.setattr(identities.itertools, "combinations_with_replacement",
                        no_listing)
    # 2054360 triples; 1344904 and 2.9e10 products, far more triples
    for n, bound in ((22, 1), (8, 6), (10, 10)):
        assert run(["abc", "--n", str(n), "--bound", str(bound)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "exceed the supported 2000000" in captured.err
        assert "abc --n 21 --bound 1" in captured.err
    # 1543465 and 1521520 candidate triples are admitted
    for n, bound in ((21, 1), (4, 4)):
        with pytest.raises(Listed):
            run(["abc", "--n", str(n), "--bound", str(bound)])


def test_abc_capacity_refuses_before_pairing(capsys, monkeypatch):
    """The cap is checked on counts alone: not even the base pairs are
    listed, so a huge --n is refused at once."""
    def no_pairs(marks, r):
        raise AssertionError("base pairs listed before the capacity check")

    monkeypatch.setattr(identities.itertools, "combinations", no_pairs)
    assert run(["abc", "--n", "100000", "--bound", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "exceed the supported 2000000" in captured.err


def test_unknown_verb_exits_two(capsys):
    assert run(["definitely-not-a-verb"]) == 2


def test_missing_flag_exits_two(capsys):
    assert run(["complex", "--family", "cr"]) == 2


def test_large_integers_become_strings(capsys):
    status, out = capture(capsys, ["disc", "--n", "6"])
    assert status == 0
    data = json.loads(out)
    assert all(isinstance(t[0], str) for t in data["terms"])


def test_tame_eisenstein_wrong_image_fails_with_witness(capsys, monkeypatch):
    right = morphisms.eisenstein

    def without_sign_pattern(z):
        w = right(z)
        return (w[0], -w[1], w[2], -w[3])

    monkeypatch.setattr(morphisms, "eisenstein", without_sign_pattern)
    status, out = capture(
        capsys, ["gallery-verify", "--name", "tame-eisenstein"])
    assert status == 1
    data = json.loads(out)
    assert data["pass"] is False
    witness = data["witness"]
    assert len(witness) == 4
    assert all(isinstance(v, int) for v in witness)


def test_tame_eisenstein_needs_no_numpy(capsys, monkeypatch):
    monkeypatch.setitem(sys.modules, "numpy", None)
    with pytest.raises(ImportError):
        import numpy  # noqa: F401
    status, out = capture(
        capsys, ["gallery-verify", "--name", "tame-eisenstein"])
    assert status == 0
    assert json.loads(out)["pass"] is True

"""Acceptance suite: every exit criterion as one test with a printed
pass/fail line and the stated time budget."""

import itertools
import random
import time
from math import gcd

from confspace import braid, identities, morphisms, ratios
from confspace.polyring import MultiPoly, discriminant_monic
from confspace.braid import (
    SPHERE,
    check_relations,
    doubling_hom,
    exceptional_four,
    exceptional_six,
    full_twist_word,
    gorin_words,
    is_transitive,
    lattice_hom,
    mu_image,
    search_homs,
    sphere_kernel_word,
    standard_mu,
    word,
    words_equal,
)


def report(num, ok, text):
    print("criterion %02d %s - %s" % (num, "PASS" if ok else "FAIL", text))
    assert ok, text


def test_criterion_01_euler_characteristic():
    elapsed_small = 0.0
    ok = True
    for n in (4, 5, 6, 7, 8):
        t0 = time.time()
        c = ratios.build_complex(n, "cr")
        chi = ratios.euler_characteristic(c)
        dt = time.time() - t0
        if n <= 6:
            elapsed_small += dt
        formula = n * (n - 1) * (n - 2) * (13 - 3 * n) // 4
        ok = ok and chi == formula
        if n == 8:
            ok = ok and dt < 120
    ok = ok and elapsed_small < 1.0
    report(1, ok, "chi of the cross complex equals "
                  "n(n-1)(n-2)(13-3n)/4 for n=4..8")


def test_criterion_02_betti_numbers():
    t0 = time.time()
    rep5 = ratios.homology_report(ratios.build_complex(5, "cr"))
    rep6 = ratios.homology_report(ratios.build_complex(6, "cr"))
    dt = time.time() - t0
    ok = (
        rep5["betti"] == [1, 31]
        and rep6["betti"][1] == 151
        and rep6["betti"][2] == 0
        and dt < 30
    )
    report(2, ok, "betti numbers: n=5 gives [1, 31]; n=6 gives "
                  "rank 151 and trivial top homology")


def test_criterion_03_dimensions():
    ok = all(
        ratios.complex_dimension(ratios.build_complex(n, "sr")) == n - 3
        for n in range(3, 9)
    ) and all(
        ratios.complex_dimension(ratios.build_complex(n, "cr")) == n - 4
        for n in range(4, 9)
    )
    report(3, ok, "simple complexes have dimension n-3 and cross "
                  "complexes n-4, up to n=8")


def test_criterion_04_orbit_decomposition():
    ok = True
    for n in (5, 6, 7):
        c_sr = ratios.build_complex(n, "sr")
        counts_sr = c_sr.simplex_counts()
        for m in range(1, n - 2):
            dec = ratios.orbit_decomposition(n, "sr", m)
            ok = ok and len(dec) == 2
            ok = ok and sum(s for _, s in dec) == counts_sr[m]
        c_cr = ratios.build_complex(n, "cr")
        counts_cr = c_cr.simplex_counts()
        for m in range(1, n - 3):
            dec = ratios.orbit_decomposition(n, "cr", m)
            ok = ok and len(dec) == 1
            ok = ok and sum(s for _, s in dec) == counts_cr[m]
    report(4, ok, "simple m-simplices fall into exactly 2 relabeling "
                  "orbits and cross m-simplices into 1, for n=5,6,7")


def test_criterion_05_divides_rule_equals_oracle():
    ok = True
    for n in range(3, 8):
        cat = ratios.catalogue(n, "l")
        for a, b in itertools.combinations(cat, 2):
            if ratios.divides_rule(a, b) != ratios.divides_oracle(a, b):
                ok = False
                break
        if not ok:
            break
    report(5, ok, "index-replacement rule coincides with the quotient "
                  "oracle on every vertex pair, n <= 7")


def test_criterion_06_abc_search():
    t0 = time.time()
    rep = identities.verify_abc(4, 2)
    dt = time.time() - t0
    ok = (
        rep["pass"]
        and rep["counts"]["simple"] > 0
        and rep["counts"]["double"] > 0
        and rep["counts"]["other"] == 0
        and dt < 60
    )
    report(6, ok, "three-term search at n=4, bound 2 finds exactly the "
                  "one-factor and two-factor families")


def test_criterion_07_symbolic_identities():
    t0 = time.time()
    zs = tuple(MultiPoly.var("z%d" % i) for i in range(4))
    D = morphisms.hesse_cubic_discriminant(zs)
    w = morphisms.eisenstein(zs)
    ww = morphisms.eisenstein(w)
    ok = all(ww[i] == D ** 2 * zs[i] for i in range(4))
    ok = ok and morphisms.hesse_cubic_discriminant(w) == D ** 3

    lhs, rhs = morphisms.feler_sextic_identity()
    ok = ok and lhs == rhs

    zeta = MultiPoly.var("t")
    for n in (3, 4, 5):
        d = discriminant_monic(n)
        subs = {"w1": MultiPoly.zero()}
        subs.update({"w%d" % i: MultiPoly.var("w%d" % i) * zeta ** i
                     for i in range(2, n + 1)})
        balanced = d.substitute({"w1": MultiPoly.zero()})
        ok = ok and d.substitute(subs) == zeta ** (n * (n - 1)) * balanced

    u, v, den2 = morphisms.tame_determinant_identity()
    ok = ok and v.is_zero() and u == den2
    ok = ok and time.time() - t0 < 60
    report(7, ok, "involution, sextic, scaling and unit-determinant "
                  "identities hold as exact polynomial equalities")


def test_criterion_08_degree_nine_identity():
    t0 = time.time()
    sampled = morphisms.feler_nine_sampled(trials=20,
                                           rng=random.Random(2024))
    ok = sampled["pass"] and sampled["trials"] == 20
    symbolic = morphisms.feler_nine_symbolic()
    ok = ok and symbolic["pass"]
    ok = ok and time.time() - t0 < 300
    # the printed source constant is positive; exact evaluation pins the
    # sign to the negative one under the determinant convention used here
    ok = ok and morphisms.FELER_NINE_CONSTANT == -(3 ** 27)
    report(8, ok, "degree-9 discriminant identity (constant 3^27, "
                  "exponent 56, verified sign) passes 20 exact trials "
                  "and the lattice certificate")


def test_criterion_09_homomorphism_classification():
    t0 = time.time()
    res44 = search_homs(4, 4)
    nct = [c for c in res44 if not c["cyclic"] and c["transitive"]]
    gallery = [standard_mu(4)] + [exceptional_four(i) for i in (1, 2, 3)]
    ok = len(nct) == 4 and all(
        sum(1 for c in nct
            if braid.are_conjugate(c["hom"], g) is not None) == 1
        for g in gallery
    )
    ok = ok and time.time() - t0 < 60

    t0 = time.time()
    res55 = search_homs(5, 5)
    nct = [c for c in res55 if not c["cyclic"] and c["transitive"]]
    ok = ok and len(nct) == 1 and braid.are_conjugate(
        nct[0]["hom"], standard_mu(5)) is not None
    ok = ok and time.time() - t0 < 60

    t0 = time.time()
    res66 = search_homs(6, 6)
    nct = [c for c in res66 if not c["cyclic"] and c["transitive"]]
    ok = ok and len(nct) == 2
    ok = ok and sum(1 for c in nct if braid.are_conjugate(
        c["hom"], standard_mu(6)) is not None) == 1
    ok = ok and sum(1 for c in nct if braid.are_conjugate(
        c["hom"], exceptional_six()) is not None) == 1
    ok = ok and time.time() - t0 < 60

    t0 = time.time()
    res54 = search_homs(5, 4)
    ok = ok and bool(res54) and all(c["cyclic"] for c in res54)
    ok = ok and time.time() - t0 < 60
    report(9, ok, "exhaustive search reproduces the classification at "
                  "(4,4), (5,5), (6,6) and (5,4)")


def test_criterion_09_optional_seven_seven():
    t0 = time.time()
    res = search_homs(7, 7)
    nct = [c for c in res if not c["cyclic"] and c["transitive"]]
    ok = len(nct) == 1 and braid.are_conjugate(
        nct[0]["hom"], standard_mu(7)) is not None
    ok = ok and all(c["surjective"] for c in res if not c["cyclic"])
    ok = ok and time.time() - t0 < 1800
    report(9, ok, "(optional) the (7,7) search finds a single "
                  "non-cyclic transitive class, and every non-cyclic "
                  "image is the full symmetric group")


def test_criterion_10_word_problem():
    t0 = time.time()
    ok = words_equal(word(3, 1, 2, 1), word(3, 2, 1, 2))
    ok = ok and words_equal(word(4, 1, 3), word(4, 3, 1))
    for n in (4, 5, 6):
        lhs, rhs = gorin_words(n)
        ok = ok and words_equal(lhs, rhs)
    for n in (3, 4):
        c = full_twist_word(n)
        ok = ok and all(
            words_equal(c * word(n, i), word(n, i) * c)
            for i in range(1, n)
        )
    ok = ok and all(
        mu_image(sphere_kernel_word(n)).is_identity() for n in (3, 4, 5, 6))
    ok = ok and time.time() - t0 < 10
    report(10, ok, "defining relations, the commutator relation, "
                   "centrality of the full twist and the pure kernel "
                   "generator all confirmed")


def test_criterion_11_doubling_and_lattice_homs():
    ok = True
    for n in (5, 6, 7, 8):
        for which, expect in ((1, False), (2, True), (3, False)):
            h = doubling_hom(n, which)
            holds = check_relations(h.images, n, 2 * n, SPHERE) is None
            ok = ok and holds == expect
    for r in range(2, 7):
        for x in range(r):
            for y in range(r):
                h = lattice_hom(5, r, x, y)
                ok = ok and is_transitive(h) == (gcd(gcd(x, y), r) == 1)
    report(11, ok, "only the second doubling map satisfies the sphere "
                   "relation (n=5..8); lattice-map transitivity matches "
                   "coprimality for r <= 6")

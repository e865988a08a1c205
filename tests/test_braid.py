import copy
import itertools
import operator
import pickle
import random

import pytest
from hypothesis import example, given, settings, strategies as st
from sympy.combinatorics import Permutation, PermutationGroup

from confspace import braid
from confspace.braid import (
    SPHERE,
    BraidWord,
    CapacityError,
    Perm,
    SymHom,
    alpha_word,
    are_conjugate,
    canonical_form,
    check_relations,
    conjugacy_class_reps,
    doubling_hom,
    exceptional_four,
    exceptional_six,
    exponent_sum,
    full_twist_word,
    gorin_words,
    hom_from_pair,
    hom_properties,
    is_transitive,
    lattice_hom,
    mu_image,
    search_homs,
    sphere_kernel_word,
    standard_gallery,
    standard_mu,
    verify_sym_hom,
    word,
    words_equal,
    _conjugacy_key,
    _conjugators,
    _cycle_type,
    _orbit_minima,
    _pinv,
    _pmul,
    _tuple,
)
from oracles import (
    _nontrivial_blocks,
    _perm_transitive,
    are_conjugate_dfs,
    canonical_form_sweep,
    cyclic_by_closure,
    passing_homs,
    perm_closure,
    search_homs_full_scan,
    search_homs_pairwise,
)


# -- permutations -----------------------------------------------------------


def test_perm_validation():
    with pytest.raises(ValueError):
        Perm((1, 1, 3))


def test_perm_composition_order():
    # products apply the left factor first
    a = Perm.transposition(3, 1)
    b = Perm.transposition(3, 2)
    assert (a * b)(1) == 3
    assert (a * b).cycle_type() == (3,)


def test_perm_inverse_and_cycles():
    rng = random.Random(1)
    for _ in range(20):
        p = Perm(tuple(rng.sample(range(1, 8), 7)))
        assert (p * p.inverse()).is_identity()
        assert sum(len(c) for c in p.cycles()) == 7


def _perms(k):
    return st.permutations(range(1, k + 1)).map(lambda t: Perm(tuple(t)))


@given(st.integers(1, 9).flatmap(lambda k: st.tuples(_perms(k), _perms(k))))
def test_perm_arithmetic_matches_one_based_formulas(pair):
    p, q = pair
    k = p.degree
    assert (p * q).images == tuple(q.images[i - 1] for i in p.images)
    inv = p.inverse().images
    assert all(inv[p.images[x - 1] - 1] == x for x in range(1, k + 1))
    cycles = p.cycles()
    assert sorted(x for c in cycles for x in c) == list(range(1, k + 1))
    for c in cycles:
        assert all(p(a) == b for a, b in zip(c, c[1:] + c[:1]))
    assert p.cycle_type() == tuple(sorted(map(len, cycles), reverse=True))
    assert p.is_identity() == (p == Perm.identity(k))


def test_perm_is_hashable_and_immutable():
    p = Perm((2, 3, 1))
    assert hash(p) == hash(Perm((2, 3, 1)))
    assert len({p, Perm((2, 3, 1)), Perm((1, 2, 3))}) == 2
    with pytest.raises(AttributeError):
        p.images = (1, 2, 3)
    with pytest.raises(AttributeError):
        p._t = (0, 1, 2)
    assert p.images == (2, 3, 1)


def test_transposition_range():
    assert Perm.transposition(4, 1).images == (2, 1, 3, 4)
    assert Perm.transposition(4, 3).images == (1, 2, 4, 3)
    for i in (0, 4, -1, 5):
        with pytest.raises(ValueError):
            Perm.transposition(4, i)
    with pytest.raises(ValueError):
        Perm.transposition(1, 1)


def test_from_cycles_checks_points():
    assert Perm.from_cycles(4, (1, 2), (3, 4)).images == (2, 1, 4, 3)
    assert Perm.from_cycles(3).images == (1, 2, 3)
    # a point outside 1..k, or one repeated within or across cycles
    for cycles in (((1, 5),), ((0, 1),), ((1, 2, 1),), ((1, 2), (2, 3)),
                   ((1, 2), (2, 1))):
        with pytest.raises(ValueError):
            Perm.from_cycles(3, *cycles)


def test_degenerate_degrees_refused():
    # a homomorphism needs n >= 2 strands and a degree k >= 1
    for make in (lambda: lattice_hom(4, 0, 1, 1),
                 lambda: standard_gallery("mu", n=1),
                 lambda: doubling_hom(1, 1),
                 lambda: SymHom(1, 3, ())):
        with pytest.raises(ValueError, match="n >= 2 strands"):
            make()


# -- words and the canonical form -------------------------------------------


def test_word_validation():
    with pytest.raises(ValueError):
        word(3, 3)
    with pytest.raises(ValueError):
        word(3, 0)
    with pytest.raises(ValueError):
        BraidWord(1, ())


def test_parse_round_trip():
    w = BraidWord.parse(4, "1 2 -1")
    assert w.letters == (1, 2, -1)


def test_braid_relation():
    assert words_equal(word(3, 1, 2, 1), word(3, 2, 1, 2))


def test_far_commutation():
    assert words_equal(word(4, 1, 3), word(4, 3, 1))


def test_distinct_elements_detected():
    assert not words_equal(word(3, 1, 2), word(3, 2, 1))
    assert not words_equal(word(3, 1), word(3, -1))


def test_free_cancellation():
    assert words_equal(word(3, 1, -1), BraidWord(3, ()))
    assert words_equal(word(4, -2, 2, 3, -3), BraidWord(4, ()))


def test_strand_count_mismatch():
    with pytest.raises(ValueError):
        words_equal(word(3, 1), word(4, 1))


def test_gorin_relation():
    for n in (4, 5, 6):
        lhs, rhs = gorin_words(n)
        assert words_equal(lhs, rhs)
        assert exponent_sum(lhs) == exponent_sum(rhs) == 0


def test_full_twist_is_central():
    for n in (3, 4):
        c = full_twist_word(n)
        for i in range(1, n):
            assert words_equal(c * word(n, i), word(n, i) * c)


def test_canonical_form_well_defined():
    # conjugating the half twist by itself and mixed insertions
    w1 = word(4, 1, 2, 3, 1, 2, 1)  # the positive half twist
    w2 = word(4, 3, 2, 1, 3, 2, 3)
    assert words_equal(w1, w2)
    cf = canonical_form(w1)
    assert cf.infimum == 1 and cf.factors == ()


def test_full_twist_canonical_form():
    for n in (3, 4, 5):
        cf = canonical_form(full_twist_word(n))
        assert cf.infimum == 2 and cf.factors == ()


def test_single_negative_generator_canonical_form():
    cf = canonical_form(word(4, -2))
    assert cf.infimum == -1 and len(cf.factors) == 1


def test_random_words_cancel_with_inverses():
    rng = random.Random(77)
    for _ in range(100):
        n = rng.choice((3, 4, 5, 6))
        w = BraidWord(n, tuple(
            rng.choice([g for g in range(-(n - 1), n) if g])
            for _ in range(rng.randint(1, 12))))
        assert words_equal(w * w.inverse(), BraidWord(n, ()))
        assert words_equal(w.inverse() * w, BraidWord(n, ()))


_RELATORS = {
    n: (
        [[i, i + 1, i, -(i + 1), -i, -(i + 1)] for i in range(1, n - 1)]
        + [[i, j, -i, -j] for i in range(1, n) for j in range(1, n)
           if abs(i - j) >= 2]
        + [[i, -i] for i in range(1, n)]
        + [[-i, i] for i in range(1, n)]
    )
    for n in (3, 4, 5, 6)
}


@st.composite
def braid_words(draw, max_len=150):
    """Words on 2..8 strands, all positive, all negative or mixed, of a
    length drawn uniformly up to ``max_len``."""
    n = draw(st.integers(2, 8))
    generator = st.integers(1, n - 1)
    letter = draw(st.sampled_from((
        generator,
        generator.map(operator.neg),
        st.builds(operator.mul, generator, st.sampled_from((1, -1))),
    )))
    length = draw(st.integers(0, max_len))
    return BraidWord(n, tuple(draw(st.lists(
        letter, min_size=length, max_size=length))))


@settings(deadline=None, max_examples=150)
@given(braid_words())
def test_canonical_form_matches_sweep(w):
    assert canonical_form(w) == canonical_form_sweep(w)


def test_two_strand_canonical_form():
    # s_1 is the half twist, so a letter's factor is delta or the identity
    for length in range(9):
        for signs in itertools.product((1, -1), repeat=length):
            w = BraidWord(2, signs)
            cf = canonical_form(w)
            assert cf == canonical_form_sweep(w)
            assert cf.infimum == sum(signs) and cf.factors == ()


def _descents(p):
    return {i for i in range(len(p) - 1) if p[i] > p[i + 1]}


def _inverse(p):
    return tuple(sorted(range(len(p)), key=p.__getitem__))


@settings(deadline=None)
@given(braid_words(max_len=300))
def test_canonical_form_structure(w):
    n = w.n
    cf = canonical_form(w)
    delta = tuple(range(n - 1, -1, -1))
    for f in cf.factors:
        assert sorted(f) == list(range(n))
        assert f != tuple(range(n)) and f != delta
    # left-weighted: every generator b can begin with, a can end with
    for a, b in zip(cf.factors, cf.factors[1:]):
        assert _descents(b) <= _descents(_inverse(a))
    inversions = sum(f[i] > f[j] for f in cf.factors
                     for i, j in itertools.combinations(range(n), 2))
    assert exponent_sum(w) == cf.infimum * n * (n - 1) // 2 + inversions
    image = Perm.identity(n)
    if cf.infimum % 2:
        image = Perm(tuple(range(n, 0, -1)))
    for f in cf.factors:
        image = image * Perm(tuple(v + 1 for v in f))
    assert mu_image(w) == image


def test_relator_insertion_invariance():
    rng = random.Random(99)
    for _ in range(500):
        n = rng.choice((3, 4, 5, 6))
        base = [rng.choice([g for g in range(-(n - 1), n) if g])
                for _ in range(rng.randint(0, 10))]
        relator = rng.choice(_RELATORS[n])
        pos = rng.randint(0, len(base))
        other = base[:pos] + relator + base[pos:]
        w1, w2 = BraidWord(n, tuple(base)), BraidWord(n, tuple(other))
        assert words_equal(w1, w2)
        assert exponent_sum(w1) == exponent_sum(w2)
        assert mu_image(w1) == mu_image(w2)


def test_equality_is_equivalence():
    rng = random.Random(7)
    ws = [BraidWord(4, tuple(rng.choice([1, 2, 3, -1, -2, -3])
                             for _ in range(rng.randint(0, 6))))
          for _ in range(12)]
    for a in ws:
        assert words_equal(a, a)
    for a in ws:
        for b in ws:
            assert words_equal(a, b) == words_equal(b, a)
    for a in ws:
        for b in ws:
            for c in ws:
                if words_equal(a, b) and words_equal(b, c):
                    assert words_equal(a, c)


# -- projections and sums ----------------------------------------------------


def test_mu_image_generator():
    assert mu_image(word(3, 1)) == Perm.from_cycles(3, (1, 2))


def test_mu_kills_sphere_kernel_generator():
    for n in (3, 4, 5, 6, 7):
        assert mu_image(sphere_kernel_word(n)).is_identity()


def test_mu_alpha_is_long_cycle():
    for n in range(3, 8):
        assert mu_image(alpha_word(n)).cycle_type() == (n,)


def test_exponent_sum():
    assert exponent_sum(BraidWord(3, ())) == 0
    assert exponent_sum(full_twist_word(4)) == 4 * 3
    w = word(5, 1, -2, 3, -4, 4)
    assert exponent_sum(w) == 1


# -- homomorphisms -----------------------------------------------------------


def test_mu_satisfies_artin_presentation():
    for n in range(3, 9):
        images = tuple(Perm.transposition(n, i) for i in range(1, n))
        assert verify_sym_hom(images, n, n) is not None


def test_verify_reports_violation():
    bad = (Perm.from_cycles(3, (1, 2)), Perm.identity(3))
    violation = check_relations(bad, 3, 3)
    assert violation is not None and violation[0] == "braid"
    assert verify_sym_hom(bad, 3, 3) is None
    far = (Perm.from_cycles(5, (1, 2)), Perm.identity(5),
           Perm.from_cycles(5, (1, 3)), Perm.identity(5))
    violation = check_relations(far, 5, 5)
    assert violation is not None


def test_verify_wrong_count():
    with pytest.raises(ValueError):
        check_relations((Perm.identity(3),), 4, 3)


def test_hom_from_pair_reconstructs_mu():
    for n in (4, 5, 6):
        mu = standard_mu(n)
        a = mu.apply(alpha_word(n))
        h = hom_from_pair(mu.images[0], a, n, n)
        assert h is not None and h.images == mu.images


def test_hom_from_pair_exceptional_six():
    s = Perm.from_cycles(6, (1, 2), (3, 4), (5, 6))
    a = Perm.from_cycles(6, (1, 2, 3), (4, 5))
    h = hom_from_pair(s, a, 6, 6)
    assert h is not None
    assert h.apply(alpha_word(6)) == a


def test_hom_from_pair_generic_failure():
    s = Perm.from_cycles(5, (1, 2))
    a = Perm.from_cycles(5, (1, 2, 3))
    assert hom_from_pair(s, a, 5, 5) is None


def test_hom_from_pair_output_verifies():
    rng = random.Random(15)
    found = 0
    while found < 5:
        s = Perm(tuple(rng.sample(range(1, 5), 4)))
        a = Perm(tuple(rng.sample(range(1, 5), 4)))
        h = hom_from_pair(s, a, 4, 4)
        if h is not None:
            assert verify_sym_hom(h.images, 4, 4) is not None
            found += 1


def test_sphere_presentation_gallery():
    for n in (5, 6, 7, 8):
        for which, expect in ((1, False), (2, True), (3, False)):
            h = doubling_hom(n, which)
            holds = check_relations(h.images, n, 2 * n, SPHERE) is None
            assert holds == expect


def test_doubling_hom_window_cycle():
    h = doubling_hom(7, 1)
    for i in range(1, 7):
        expected = Perm.from_cycles(
            14, (2 * i - 1, 2 * i + 2, 2 * i, 2 * i + 1))
        assert h.images[i - 1] == expected


def test_exceptional_four_bracket_notes():
    h1, h2, h3 = (exceptional_four(i) for i in (1, 2, 3))
    assert h1.images[2] == h1.images[0]
    assert h2.images[2] == h2.images[0].inverse()
    assert h3.images[2] == h3.images[0]
    assert hom_properties(h3)["image_order"] == 12


def test_lattice_hom_transitivity_matches_coprimality():
    from math import gcd
    for r in range(2, 7):
        for x in range(r):
            for y in range(r):
                h = lattice_hom(5, r, x, y)
                assert is_transitive(h) == (gcd(gcd(x, y), r) == 1)


def test_lattice_hom_never_primitive():
    for r in (2, 3):
        for n in (4, 5):
            h = lattice_hom(n, r, 1, 1)
            blocks = _nontrivial_blocks([_tuple(im) for im in h.images], h.k)
            assert blocks is not None and 1 < len(blocks) < r * n


def test_standard_gallery_dispatch():
    assert standard_gallery("mu", n=5).k == 5
    assert standard_gallery("nu6").k == 6
    assert standard_gallery("nu43").k == 4
    assert standard_gallery("phi2", n=5).k == 10
    assert standard_gallery("phixy", n=4, r=2, x=1, y=0).k == 8
    with pytest.raises(ValueError):
        standard_gallery("mu")
    with pytest.raises(ValueError):
        standard_gallery("unknown")


def test_trivial_hom_properties():
    h = SymHom(4, 4, tuple(Perm.identity(4) for _ in range(3)))
    props = hom_properties(h)
    assert props["cyclic_image"] and not props["transitive"]


def test_mu_properties():
    props = hom_properties(standard_mu(5))
    assert sorted(props) == ["cyclic_image", "image_order", "surjective",
                             "transitive"]
    assert props["transitive"]
    assert props["image_order"] == 120
    assert not props["cyclic_image"]


@pytest.mark.parametrize("n,k", [
    (3, 3), (3, 4), (3, 5), (3, 6), (3, 7), (4, 4), (4, 5), (4, 6), (4, 7),
    (5, 5), (5, 6), (6, 6), (6, 7), (7, 7), (8, 8), (100, 8)])
def test_chain_matches_closure_on_every_class(n, k):
    for c in search_homs(n, k):
        h = c["hom"]
        # search_homs builds its classes without re-checking the relations
        assert check_relations(h.images, n, k) is None
        assert c["image_order"] == len(perm_closure(h.images, k))
        assert c["transitive"] == _perm_transitive(h.images, k)
        assert is_transitive(h) == c["transitive"]


@pytest.mark.parametrize("name, params", [
    ("mu", dict(n=10)),
    ("mu", dict(n=12)),
    ("phi1", dict(n=8)),
    ("phi3", dict(n=8)),
    ("phi2", dict(n=9)),
    ("phixy", dict(n=6, r=5, x=1, y=2)),
])
def test_chain_order_matches_sympy(name, params):
    # orders from 9! to 12!, too large to list in a test
    h = standard_gallery(name, **params)
    group = PermutationGroup([Permutation(list(_tuple(im)))
                              for im in h.images])
    props = hom_properties(h)
    assert props["image_order"] == group.order()
    assert props["transitive"] == group.is_transitive()


# -- conjugacy ---------------------------------------------------------------


def test_conjugate_witness_roundtrip():
    rng = random.Random(21)
    mu = standard_mu(5)
    for _ in range(5):
        t = Perm(tuple(rng.sample(range(1, 6), 5)))
        other = SymHom(5, 5, tuple(t.inverse() * im * t for im in mu.images))
        w = are_conjugate(mu, other)
        assert w is not None
        assert all(w.inverse() * a * w == b
                   for a, b in zip(mu.images, other.images))


def test_nonconjugate_pair():
    assert are_conjugate(standard_mu(6), exceptional_six()) is None


def test_conjugacy_cycle_type_fast_path():
    h1 = standard_mu(4)
    h2 = exceptional_four(1)
    assert h1.images[0].cycle_type() != h2.images[0].cycle_type()
    assert are_conjugate(h1, h2) is None


def test_conjugator_matches_orbits_by_code():
    # most classes at (4, 6) have several orbits; a random relabelling
    # reorders them, so the conjugator must pair orbits by their codes
    rng = random.Random(5)
    classes = [c["hom"] for c in search_homs(4, 6)]
    for i, h in enumerate(classes):
        t = Perm(tuple(rng.sample(range(1, 7), 6)))
        other = _relabel(h, t)
        w = are_conjugate(h, other)
        assert w is not None and _relabel(h, w) == other
        for g in classes[i + 1:]:
            assert are_conjugate(g, other) is None
            assert are_conjugate_dfs(g, other) is None


def test_conjugacy_dimension_guard():
    with pytest.raises(ValueError):
        are_conjugate(standard_mu(4), standard_mu(5))


# -- exhaustive search -------------------------------------------------------


def test_search_capacity_guard():
    with pytest.raises(CapacityError):
        search_homs(4, 9)


@pytest.mark.parametrize("k", [0, -1])
def test_search_refuses_degree_below_one_up_front(monkeypatch, k):
    def no_search(k):
        raise AssertionError("the search ran")

    monkeypatch.setattr(braid, "conjugacy_class_reps", no_search)
    with pytest.raises(ValueError, match="degree k >= 1"):
        search_homs(3, k)


def test_search_four_four():
    classes = search_homs(4, 4)
    nct = [c for c in classes if not c["cyclic"] and c["transitive"]]
    assert len(nct) == 4
    gallery = [standard_mu(4)] + [exceptional_four(i) for i in (1, 2, 3)]
    for target in gallery:
        assert sum(
            1 for c in nct if are_conjugate(c["hom"], target) is not None
        ) == 1


def test_search_five_five():
    classes = search_homs(5, 5)
    nct = [c for c in classes if not c["cyclic"] and c["transitive"]]
    assert len(nct) == 1
    assert are_conjugate(nct[0]["hom"], standard_mu(5)) is not None


def test_search_five_four_all_cyclic():
    classes = search_homs(5, 4)
    assert classes and all(c["cyclic"] for c in classes)


def test_search_six_six():
    classes = search_homs(6, 6)
    nct = [c for c in classes if not c["cyclic"] and c["transitive"]]
    assert len(nct) == 2
    mu, nu = standard_mu(6), exceptional_six()
    assert sum(1 for c in nct
               if are_conjugate(c["hom"], mu) is not None) == 1
    assert sum(1 for c in nct
               if are_conjugate(c["hom"], nu) is not None) == 1


def test_noncyclic_images_surjective_or_alternating():
    for n in (5, 6):
        for c in search_homs(n, n):
            if not c["cyclic"]:
                assert c["surjective"]
    for c in search_homs(4, 4):
        if not c["cyclic"] and c["transitive"]:
            assert c["surjective"] or c["image_order"] == 12


# -- the tuple kernel against the Perm oracle --------------------------------


@pytest.mark.parametrize("n,k", [(4, 4), (5, 4), (5, 5), (6, 6), (7, 6)])
def test_search_matches_pairwise_oracle(n, k):
    expected = search_homs_pairwise(n, k)
    assert search_homs(n, k) == expected
    # cyclicity is a class invariant, so filtering keeps the same
    # representatives
    assert [c for c in search_homs(n, k) if not c["cyclic"]] == [
        c for c in expected if not c["cyclic"]]


@pytest.mark.parametrize(
    "n,k",
    [(n, k) for n in range(3, 9) for k in range(1, 7)]
    + [(n, 7) for n in (3, 4, 6, 7)]
    + [(n, 7) for n in (5, 8)])
def test_search_matches_full_scan(n, k):
    # the listed alpha-images find the same classes, representatives and
    # order as the scan of all of S(k)
    classes = search_homs(n, k)
    for include_cyclic in (True, False):
        assert [c for c in classes if include_cyclic or not c["cyclic"]] == (
            search_homs_full_scan(n, k, include_cyclic))


@pytest.mark.parametrize("k", range(1, 7))
def test_conjugators_are_a_coset_of_the_centraliser(k):
    perms = list(itertools.permutations(range(k)))
    for rep in conjugacy_class_reps(k):
        s = _tuple(rep)
        coset = {}  # t -> every a with a * s * a^-1 == t
        for a in perms:
            coset.setdefault(_pmul(_pmul(a, s), _pinv(a)), set()).add(a)
        assert sorted(coset) == sorted(
            t for t in perms if _cycle_type(t) == _cycle_type(s))
        for t, expected in coset.items():
            listed = _conjugators(s, t)
            assert len(listed) == len(set(listed)) == len(coset[s])
            assert set(listed) == expected


@pytest.mark.parametrize("k", range(1, 7))
def test_partners_kept_one_per_centraliser_orbit(k):
    perms = list(itertools.permutations(range(k)))
    for rep in conjugacy_class_reps(k):
        s = _tuple(rep)
        found = [t for t in perms
                 if t != s and _cycle_type(t) == _cycle_type(s)
                 and _pmul(_pmul(s, t), s) == _pmul(_pmul(t, s), t)]
        centraliser = [c for c in perms if _pmul(_pmul(c, s), _pinv(c)) == s]
        kept = _orbit_minima(
            found, [(c, _pinv(c)) for c in _conjugators(s, s)])
        orbits = [{_pmul(_pmul(c, t), _pinv(c)) for c in centraliser}
                  for t in kept]
        # each kept partner is the least of its orbit, and the orbits are
        # disjoint and cover found
        assert [min(orbit) for orbit in orbits] == kept
        assert sum(map(len, orbits)) == len(found)
        assert set().union(*orbits) == set(found)


def test_artin_eight_eight():
    # Artin: for n = 5 and n > 6 every transitive non-cyclic homomorphism
    # B_n -> S_n is conjugate to the standard one, onto S_n
    classes = search_homs(8, 8)
    assert len(classes) == 23
    nct = [c for c in classes if not c["cyclic"] and c["transitive"]]
    assert len(nct) == 1
    assert are_conjugate(nct[0]["hom"], standard_mu(8)) is not None
    assert nct[0]["image_order"] == 40320


# -- Lin, "Braids and permutations" (arXiv math/0404528) ---------------------


def test_lin_seven_eight_transitive_class_is_cyclic():
    # 6 < n < k < 2n: every transitive homomorphism is cyclic
    classes = search_homs(7, 8)
    assert len(classes) == 23
    transitive = [c for c in classes if c["transitive"]]
    assert len(transitive) == 1 and transitive[0]["cyclic"]


@pytest.mark.parametrize("n,k", [(6, 5), (7, 5), (7, 6), (8, 7)])
def test_lin_below_n_every_class_is_cyclic(n, k):
    # n > 4 and k < n: every homomorphism is cyclic
    classes = search_homs(n, k)
    assert classes and all(c["cyclic"] for c in classes)


@pytest.mark.parametrize("n,k", [(4, 4), (5, 5), (6, 6)])
def test_all_images_equal_iff_closure_cyclic(n, k):
    homs = list(passing_homs(n, k))
    # the kernel, checking only relations of image 1, passes the same
    # homomorphisms as the check of every relation
    kernel = [hom_from_pair(s, Perm(a), n, k)
              for s in conjugacy_class_reps(k)
              for a in itertools.permutations(range(1, k + 1))]
    assert [h for h in kernel if h is not None] == homs
    assert any(not cyclic_by_closure(h.images, k) for h in homs)
    for h in homs:
        equal = all(im == h.images[0] for im in h.images)
        assert equal == cyclic_by_closure(h.images, k)
        assert hom_properties(h)["cyclic_image"] == equal


def _relabel(h, t):
    return SymHom(h.n, h.k, tuple(t.inverse() * im * t for im in h.images),
                  h.presentation)


_GALLERY = (
    [standard_mu(n) for n in range(3, 8)]
    + [exceptional_six()]
    + [exceptional_four(i) for i in (1, 2, 3)]
    + [doubling_hom(3, which) for which in (1, 2, 3)]
    + [lattice_hom(3, 2, x, y) for x in (0, 1) for y in (0, 1)]
)


@st.composite
def relabelled_pairs(draw):
    """Two gallery homomorphisms of one (n, k), each randomly relabelled."""
    h1 = draw(st.sampled_from(_GALLERY))
    h2 = draw(st.sampled_from(
        [h for h in _GALLERY if (h.n, h.k) == (h1.n, h1.k)]))
    pair = []
    for h in (h1, h2):
        t = draw(st.permutations(range(1, h.k + 1)))
        pair.append(_relabel(h, Perm(tuple(t))))
    return tuple(pair)


def _key(h):
    return _conjugacy_key([_tuple(im) for im in h.images], h.k)


@settings(deadline=None)
@given(relabelled_pairs())
@example((standard_mu(6), exceptional_six()))
@example((doubling_hom(3, 1), doubling_hom(3, 3)))
@example((lattice_hom(3, 2, 1, 0), lattice_hom(3, 2, 0, 1)))
def test_conjugacy_key_iff_conjugator(pair):
    h1, h2 = pair
    w = are_conjugate(h1, h2)
    assert (_key(h1) == _key(h2)) == (w is not None)
    assert (are_conjugate_dfs(h1, h2) is not None) == (w is not None)
    if w is not None:
        assert _relabel(h1, w) == h2


# -- value types -------------------------------------------------------------


def _values():
    """Two values of each type whose fields differ, and a copy of each of
    the first built from equal fields."""
    t = Perm.transposition(3, 1)
    return [
        (Perm((2, 3, 1)), Perm((2, 3, 1)), Perm((3, 1, 2))),
        (BraidWord(3, (1, 2)), BraidWord(3, (1, 2)), BraidWord(3, (2, 1))),
        (BraidWord(3, (1, 2)), BraidWord(3, (1, 2)), BraidWord(4, (1, 2))),
        (SymHom(3, 3, (t, t)), SymHom(3, 3, (t, t)),
         SymHom(3, 3, (t, t), SPHERE)),
        (SymHom(3, 3, (t, t)), SymHom(3, 3, (t, t)),
         SymHom(4, 3, (t, t, t))),
    ]


@pytest.mark.parametrize("value, same, other", _values(),
                         ids=lambda v: type(v).__name__)
def test_value_type_equality_and_hash(value, same, other):
    assert value == same and not value != same
    assert hash(value) == hash(same)
    assert value != other and not value == other
    assert len({value, same, other}) == 2


@pytest.mark.parametrize("value", [v for v, _, _ in _values()],
                         ids=lambda v: type(v).__name__)
def test_value_types_are_frozen(value):
    names = {Perm: ("_t", "images", "extra"),
             BraidWord: ("n", "letters", "extra"),
             SymHom: ("n", "k", "images", "presentation", "extra")}
    before = repr(value)
    for name in names[type(value)]:
        with pytest.raises(AttributeError):
            setattr(value, name, 0)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert repr(value) == before


def test_value_types_never_equal_tuples():
    t = Perm.transposition(2, 1)
    assert Perm((2, 1)) != (2, 1) and Perm((2, 1)) != (1, 0)
    assert Perm((2, 1)) != ((1, 0),)
    assert BraidWord(3, (1, 2)) != (3, (1, 2))
    assert SymHom(2, 2, (t,)) != (2, 2, (t,), "artin")


def test_value_type_reprs():
    t = Perm.transposition(2, 1)
    assert repr(Perm((2, 1, 3))) == "Perm(2 1 3)"
    assert repr(BraidWord(3, (1, 2))) == "BraidWord(n=3, letters=(1, 2))"
    assert repr(BraidWord(2, ())) == "BraidWord(n=2, letters=())"
    assert repr(SymHom(3, 2, (t, t))) == (
        "SymHom(n=3, k=2, images=(Perm(2 1), Perm(2 1)), "
        "presentation='artin')")
    assert repr(SymHom(3, 2, (t, t), SPHERE)) == (
        "SymHom(n=3, k=2, images=(Perm(2 1), Perm(2 1)), "
        "presentation='sphere')")


def test_sym_hom_defaults_and_validation():
    t, s = Perm.transposition(3, 1), Perm.transposition(3, 2)
    c = Perm((2, 3, 1))
    h = SymHom(3, 3, (t, t))
    assert h.presentation == "artin" and h == SymHom(3, 3, (t, t), "artin")
    for args, message in (
            ((1, 2, ()), "need n >= 2 strands and degree k >= 1, got n = 1, "
                         "k = 2"),
            ((3, 0, ()), "need n >= 2 strands and degree k >= 1, got n = 3, "
                         "k = 0"),
            ((3, 3, (t, c)), "defining relation violated: ('braid', 1, 2)"),
            ((4, 3, (t, s, s)),
             "defining relation violated: ('commute', 1, 3)"),
            ((3, 3, (c, c), SPHERE),
             "defining relation violated: ('sphere',)"),
            ((3, 3, (t,)), "need 2 generator images"),
            ((3, 2, (t, t)), "images must have degree 2")):
        with pytest.raises(ValueError) as err:
            SymHom(*args)
        assert str(err.value) == message


def test_braid_word_validation_messages():
    for args, message in (((1, ()), "need at least two strands"),
                          ((3, (0,)), "letter 0 out of range for 3 strands"),
                          ((3, (1, -3)),
                           "letter -3 out of range for 3 strands")):
        with pytest.raises(ValueError) as err:
            BraidWord(*args)
        assert str(err.value) == message


def test_value_types_copy_and_pickle():
    for value, _, _ in _values():
        assert copy.copy(value) == value
        assert copy.deepcopy(value) == value
        assert pickle.loads(pickle.dumps(value)) == value


@given(st.integers(1, 6).flatmap(lambda k: st.tuples(_perms(k), _perms(k))))
def test_perm_equality_and_hash_follow_images(pair):
    p, q = pair
    assert (p == q) == (p.images == q.images)
    assert (p != q) == (p.images != q.images)
    assert p == Perm(p.images) and hash(p) == hash(Perm(p.images))

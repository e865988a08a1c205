import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, example, given, settings, strategies as st

from confspace.polyring import (
    MultiPoly,
    bareiss_det,
    cubic_discriminant,
    cubic_resultant,
    discriminant_monic,
    discriminant_of,
    discriminant_projective,
    form_partial,
    form_product,
    resultant,
    sylvester_matrix,
)
from oracles import (
    cofactor_det,
    discriminant_int,
    discriminant_sylvester,
    eval_terms,
    exact_divide_sorting,
    poly_from_json_terms,
    poly_gcd_degree,
    resultant_int,
)

X, Y = MultiPoly.var("x"), MultiPoly.var("y")


def rand_poly(rng, nvars=3, nterms=4, deg=3, coeff=9):
    terms = {}
    for _ in range(nterms):
        mono = tuple(
            sorted(
                (("v%d" % rng.randint(0, nvars - 1)), rng.randint(1, deg))
                for _ in range(rng.randint(0, 2))
            )
        )
        mono = tuple((v, e) for v, e in dict(mono).items())
        terms[mono] = terms.get(mono, 0) + rng.randint(-coeff, coeff)
    return MultiPoly(terms)


def test_eval_zero_polynomial():
    assert MultiPoly.zero().evaluate({"x": 5}) == 0


def test_eval_direct():
    assert (X ** 2 - Y).evaluate({"x": 3, "y": 2}) == 7


def test_eval_unassigned_variable_named():
    with pytest.raises(ValueError) as err:
        (X ** 2 - Y).evaluate({"x": 1})
    assert "y" in str(err.value)


def test_eval_is_ring_homomorphism():
    rng = random.Random(11)
    for _ in range(50):
        f, g = rand_poly(rng), rand_poly(rng)
        point = {"v%d" % i: Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                 for i in range(3)}
        assert (f * g).evaluate(point) == eval_terms(f, point) * eval_terms(
            g, point)
        assert (f + g).evaluate(point) == eval_terms(f, point) + eval_terms(
            g, point)


def test_ring_laws_on_random_triples():
    rng = random.Random(5)
    for _ in range(40):
        a, b, c = (rand_poly(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c


def test_canonical_form():
    rng = random.Random(17)
    for _ in range(30):
        p = rand_poly(rng)
        assert (p - p).is_zero()
        assert (p - p).terms == {}
        q = MultiPoly(dict(p.terms))
        assert p == q and hash(p) == hash(q)
        assert p.sorted_terms() == q.sorted_terms()


def test_const_refuses_non_integer():
    for bad in (Fraction(7, 2), 2.5, Fraction(-1, 3)):
        with pytest.raises(ValueError):
            MultiPoly.const(bad)
    assert MultiPoly.const(Fraction(6, 3)) == 2


def test_constant_hashes_as_its_value():
    for c in (0, 1, -3, 2 ** 70):
        p = MultiPoly.const(c)
        assert p == c and hash(p) == hash(c)
    assert {MultiPoly.const(5): "five"}[5] == "five"
    assert hash(X - X) == hash(0)


def test_identity_determinant():
    mat = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    assert bareiss_det(mat) == 1


def test_two_by_two_determinant():
    a, b, c, d = (MultiPoly.var(v) for v in "abcd")
    assert bareiss_det([[a, b], [c, d]]) == a * d - b * c


def test_bareiss_matches_cofactor_random_integers():
    rng = random.Random(23)
    for _ in range(15):
        m = [[rng.randint(-9, 9) for _ in range(5)] for _ in range(5)]
        assert bareiss_det(m) == cofactor_det(m)


def test_bareiss_matches_cofactor_linear_entries():
    rng = random.Random(29)
    vs = [MultiPoly.var(v) for v in "abc"]
    for size in (2, 3, 4, 5):
        for _ in range(4):
            m = [
                [
                    MultiPoly.const(rng.randint(-3, 3))
                    + rng.choice(vs) * rng.randint(-2, 2)
                    for _ in range(size)
                ]
                for _ in range(size)
            ]
            assert bareiss_det(m) == cofactor_det(m)


def test_bareiss_rejects_non_square():
    with pytest.raises(ValueError):
        bareiss_det([[1, 2, 3], [4, 5, 6]])


def test_monic_discriminant_degree_two():
    # hand expansion of the 3-by-3 matrix fixes the sign
    w1, w2 = MultiPoly.var("w1"), MultiPoly.var("w2")
    assert discriminant_monic(2) == 4 * w2 - w1 ** 2


def test_discriminant_rejects_low_degree():
    with pytest.raises(ValueError):
        discriminant_monic(1)
    with pytest.raises(ValueError):
        discriminant_projective(0)


def test_projective_discriminant_homogeneous():
    for n in range(2, 8):
        D = discriminant_projective(n)
        assert D.is_homogeneous(2 * (n - 1))


def test_projective_restricts_to_monic():
    for n in range(2, 8):
        D = discriminant_projective(n)
        subs = {"z0": MultiPoly.one()}
        subs.update({"z%d" % i: MultiPoly.var("w%d" % i)
                     for i in range(1, n + 1)})
        assert D.substitute(subs) == discriminant_monic(n)


# integer forms of degree 1..9; hypothesis draws 0 often, so vanishing
# leading (and trailing) coefficients are well covered
_int_forms = st.integers(1, 9).flatmap(lambda n: st.lists(
    st.integers(-10 ** 6, 10 ** 6) | st.integers(-3, 3),
    min_size=n + 1, max_size=n + 1))


@settings(deadline=None)
@given(_int_forms)
@example([0, 0, 5])
@example([0, 0, 0, 0, 0, 0, 0, 0, 1, 1])
@example([7, 0, 0, 0, 0, 0, 0, 0, 0, 0])
def test_bezout_discriminant_matches_sylvester_on_integers(coeffs):
    assert discriminant_of(coeffs) == discriminant_sylvester(coeffs)


@pytest.mark.parametrize("n", range(2, 7))
def test_bezout_discriminant_with_vanishing_leading_coefficient(n):
    zs = [MultiPoly.var("z%d" % i) for i in range(1, n + 1)]
    for lead in (0, MultiPoly.zero()):
        assert (discriminant_of([lead, *zs])
                == discriminant_sylvester([lead, *zs]))


def test_discriminant_type_follows_the_coefficients():
    for n in range(1, 6):
        coeffs = list(range(1, n + 2))
        value = discriminant_of(coeffs)
        assert type(value) is int and value == discriminant_sylvester(coeffs)
        symbolic = discriminant_of([MultiPoly.const(c) for c in coeffs])
        assert isinstance(symbolic, MultiPoly) and symbolic == value
    assert discriminant_of([0, 0]) == 1
    assert type(discriminant_of([3, 4])) is int
    one = discriminant_of([X, Y])
    assert isinstance(one, MultiPoly) and one == 1
    with pytest.raises(ValueError):
        discriminant_of([5])


def test_full_sylvester_carries_leading_factor():
    # with the leading coefficient kept in the first column the
    # determinant picks up exactly one factor of it
    for n in (2, 3, 4):
        zs = [MultiPoly.var("z%d" % i) for i in range(n + 1)]
        deriv = [zs[i] * (n - i) for i in range(n)]
        full = bareiss_det(sylvester_matrix(zs, deriv))
        assert full == zs[0] * discriminant_projective(n)


def test_monic_scaling_action():
    # rescaling the roots rescales the discriminant isobarically
    t = MultiPoly.var("t")
    for n in (3, 4, 5):
        d = discriminant_monic(n)
        scaled = d.substitute({
            "w%d" % i: MultiPoly.var("w%d" % i) * t ** i
            for i in range(1, n + 1)
        })
        assert scaled == t ** (n * (n - 1)) * d


def test_resultant_linear():
    a, b = MultiPoly.var("a"), MultiPoly.var("b")
    res = resultant([MultiPoly.one(), -a], [MultiPoly.one(), -b])
    assert res == a - b or res == b - a


def test_resultant_of_poly_with_itself_vanishes():
    rng = random.Random(3)
    for _ in range(5):
        coeffs = [MultiPoly.const(rng.randint(1, 5))] + [
            MultiPoly.const(rng.randint(-5, 5)) for _ in range(3)
        ]
        assert bareiss_det(sylvester_matrix(coeffs, coeffs)) == 0
        assert resultant(coeffs, coeffs) == 0


def test_resultant_rejects_zero_input():
    with pytest.raises(ValueError):
        resultant([MultiPoly.zero()], [MultiPoly.one(), MultiPoly.one()])


def test_resultant_int_matches_sylvester():
    rng = random.Random(41)
    for _ in range(300):
        n = rng.randint(1, 7)
        m = rng.randint(1, 7)
        f = [rng.randint(-9, 9) for _ in range(n + 1)]
        g = [rng.randint(-9, 9) for _ in range(m + 1)]
        if f[0] == 0:
            f[0] = 1
        if g[0] == 0:
            g[0] = 1
        assert resultant_int(f, g) == bareiss_det(sylvester_matrix(f, g))


def test_resultant_int_checks_its_divisions():
    # over the rationals a floor division truncates; resultant of t + 1/2
    # and t^2 + 1 is 5/4, which used to come back as 1
    with pytest.raises(ArithmeticError):
        resultant_int([1, Fraction(1, 2)], [1, 0, 1])


def test_discriminant_int_matches_symbolic():
    rng = random.Random(43)
    for _ in range(50):
        n = rng.randint(2, 5)
        coeffs = [rng.randint(-6, 6) for _ in range(n + 1)]
        if all(c == 0 for c in coeffs):
            coeffs[0] = 1
        D = discriminant_projective(n)
        point = {"z%d" % i: coeffs[i] for i in range(n + 1)}
        assert discriminant_int(coeffs) == D.evaluate(point)


# integer cubics, leading coefficient first; hypothesis draws 0 often, so
# vanishing leading and trailing coefficients are well covered
_cubics = st.lists(st.integers(-10 ** 6, 10 ** 6) | st.integers(-3, 3),
                   min_size=4, max_size=4)


@settings(deadline=None)
@given(_cubics, _cubics)
@example([0, 2, -1, 5], [3, 0, 1, 0])
@example([0, 0, 1, 1], [0, 1, 0, -2])
@example([1, -3, 3, -1], [0, 0, 0, 0])
def test_cubic_closed_forms_match_determinants(f, g):
    # the discriminant closed form is the standard one, (-1)^3 times the
    # determinant convention; the resultant is the Sylvester determinant at
    # formal degree 3, leading zeros included
    assert cubic_discriminant(f) == -discriminant_int(f)
    assert cubic_resultant(f, g) == bareiss_det(sylvester_matrix(f, g))


_small_cubics = st.lists(st.integers(-50, 50) | st.just(0),
                         min_size=4, max_size=4)


@given(_small_cubics, _small_cubics)
@example([0, 2, -1, 0], [0, 0, 1, 0])
@example([0, 0, 0, 0], [5, -3, 0, 1])
def test_cubic_resultant_is_cyclic_on_a_zero_sum_triple(f, g):
    # the resultant reads its arguments only through the brackets
    # f_i g_j - f_j g_i, and with f + g + h = 0 the three pairwise brackets
    # agree: the one-resultant route of the degree-9 certificate
    h = [-(a + b) for a, b in zip(f, g)]
    assert cubic_resultant(f, g) == cubic_resultant(g, h) \
        == cubic_resultant(h, f)


def test_cubic_product_route_matches_expanded_discriminant():
    # discriminant_int at degree 9 carries (-1)^36 = +1, so it equals the
    # standard discriminant of the product: the standard cubic
    # discriminants times the squared resultants
    rng = random.Random(71)
    for trial in range(60):
        fs = [[rng.randint(-20, 20) for _ in range(4)] for _ in range(3)]
        for f in fs[:trial % 4]:
            f[0] = 0
        fs = [f if any(f) else [1, 0, 0, 0] for f in fs]
        f1, f2, f3 = fs
        product = form_product(form_product(f1, f2), f3)
        route = (cubic_discriminant(f1) * cubic_discriminant(f2)
                 * cubic_discriminant(f3) * (cubic_resultant(f1, f2)
                 * cubic_resultant(f2, f3) * cubic_resultant(f3, f1)) ** 2)
        assert route == discriminant_int(product)


def test_squarefree_detection_against_gcd():
    rng = random.Random(47)
    checked = 0
    while checked < 100:
        n = rng.randint(2, 6)
        coeffs = [1] + [rng.randint(-4, 4) for _ in range(n)]
        deriv = [(n - i) * coeffs[i] for i in range(n)]
        d_val = discriminant_int(coeffs)
        gcd_deg = poly_gcd_degree(coeffs, deriv)
        assert (d_val != 0) == (gcd_deg == 0)
        checked += 1


def test_exact_division_roundtrip():
    rng = random.Random(53)
    for _ in range(30):
        f, g = rand_poly(rng), rand_poly(rng)
        if g.is_zero():
            continue
        assert (f * g).exact_divide(g) == f


def test_exact_division_rejects_inexact():
    with pytest.raises(ValueError):
        (X ** 2 + 1).exact_divide(X + 1)


def test_exponents_must_be_non_negative_integers():
    for bad in (-1, -2, 1.5, "2"):
        with pytest.raises(ValueError):
            MultiPoly({(("x", bad),): 1})
        with pytest.raises(ValueError):
            MultiPoly.var("x", bad)
        with pytest.raises(ValueError):
            poly_from_json_terms([["3", {"x": bad}]])
    assert MultiPoly({(("x", 0), ("y", 2)): 3}) == 3 * Y ** 2
    assert poly_from_json_terms([["3", {"x": 0}]]) == 3


def _sympy_poly(expr, names):
    gens = sympy.symbols(names)
    return MultiPoly({tuple(zip(names, exps)): int(c)
                      for exps, c in sympy.Poly(expr, *gens).terms()})


# the variables of a form and of rand_poly's coefficients
_FORM_GENS = sympy.symbols("x y v0 v1 v2")


def _sympy_form(f):
    """A coefficient list, leading x first, as a sympy Poly."""
    n = len(f) - 1
    terms = {}
    for i, c in enumerate(f):
        for mono, k in (c.terms.items() if isinstance(c, MultiPoly)
                        else [((), c)]):
            exps = dict(mono)
            key = (n - i, i, *(exps.get("v%d" % j, 0) for j in range(3)))
            terms[key] = terms.get(key, 0) + k
    return sympy.Poly.from_dict(terms, *_FORM_GENS)


def _rand_form(rng, kind, degree):
    if kind == "int":
        return [rng.randint(-9, 9) for _ in range(degree + 1)]
    return [rand_poly(rng) for _ in range(degree + 1)]


@pytest.mark.parametrize("kind", ["int", "poly"])
def test_form_product_and_partial_match_sympy(kind):
    rng = random.Random(83)
    for n in range(7):
        for m in range(7):
            f, g = _rand_form(rng, kind, n), _rand_form(rng, kind, m)
            fg = form_product(f, g)
            assert len(fg) == n + m + 1
            assert _sympy_form(fg) == _sympy_form(f) * _sympy_form(g)
        for var, gen in zip("xy", _FORM_GENS):
            df = form_partial(f, var)
            assert len(df) == n
            assert _sympy_form(df) == _sympy_form(f).diff(gen)
            # int forms stay int, as discriminant_of's int path needs
            if kind == "int":
                assert all(type(c) is int for c in df + fg)
    with pytest.raises(ValueError):
        form_partial([1, 2], "z")


@pytest.mark.parametrize("n", range(2, 7))
def test_discriminants_match_sympy(n):
    # sympy's discriminant is (-1)^(n(n-1)/2) times the determinant one
    t = sympy.Symbol("t")
    sign = (-1) ** (n * (n - 1) // 2)
    ws = ["w%d" % i for i in range(1, n + 1)]
    monic = t ** n + sum(sympy.Symbol(w) * t ** (n - i)
                         for i, w in enumerate(ws, 1))
    assert discriminant_monic(n) == sign * _sympy_poly(
        sympy.discriminant(monic, t), ws)
    zs = ["z%d" % i for i in range(n + 1)]
    form = sum(sympy.Symbol(z) * t ** (n - i) for i, z in enumerate(zs))
    assert discriminant_projective(n) == sign * _sympy_poly(
        sympy.discriminant(form, t), zs)


def test_monic_discriminant_degree_seven():
    d = discriminant_monic(7)
    assert len(d.terms) == 1103
    for mono in d.terms:
        assert sum(int(v[1:]) * e for v, e in mono) == 42
    assert max(sum(e for _, e in mono) for mono in d.terms) == 12
    rng = random.Random(61)
    for _ in range(5):
        ws = [rng.randint(-9, 9) for _ in range(7)]
        point = {"w%d" % i: w for i, w in enumerate(ws, 1)}
        assert d.evaluate(point) == discriminant_int([1, *ws])


_NAMES = ("x", "y", "z")


@st.composite
def _polys(draw, shift=st.sampled_from((0, 1, 5, 300))):
    """Up to four terms of degree <= 3 in each variable, times a monomial
    whose exponents may be large (the packed field widths grow with it)."""
    terms = draw(st.dictionaries(st.tuples(*[st.integers(0, 3)] * 3),
                                 st.integers(-9, 9).filter(bool),
                                 min_size=1, max_size=4))
    offset = draw(st.tuples(shift, shift, shift))
    return MultiPoly({
        tuple(zip(_NAMES, (e + s for e, s in zip(exps, offset)))): c
        for exps, c in terms.items()})


def _quotient_or_error(divide, f, g):
    try:
        return divide(f, g)
    except ValueError:
        return ValueError


@settings(deadline=None)
@given(_polys(), _polys())
@example(MultiPoly.var("x", 300) * Y ** 5, X + Y)
def test_exact_divide_matches_sorting_oracle(f, g):
    assert (f * g).exact_divide(g) == f == exact_divide_sorting(f * g, g)


@settings(deadline=None)
@given(_polys(shift=st.sampled_from((0, 1))),
       _polys(shift=st.sampled_from((0, 1))))
def test_divide_random_pairs_like_sorting_oracle(f, g):
    # mostly inexact: both divisions must then raise (small degrees keep
    # the number of steps before the failing one small)
    assert (_quotient_or_error(MultiPoly.exact_divide, f, g)
            == _quotient_or_error(exact_divide_sorting, f, g))


@settings(deadline=None)
@given(_polys(), _polys(), _polys())
def test_inexact_division_raises(q, g, r):
    # f = q g + c m with m not divisible by the leading monomial of g: the
    # division remainder of f is c m, not zero, so g does not divide f
    assume(not g.is_constant())
    v, e = g.sorted_terms()[0][0][0]
    mono, c = r.sorted_terms()[0]
    mono = dict(mono)
    mono[v] = min(mono.get(v, 0), e - 1)
    f = q * g + MultiPoly({tuple(mono.items()): c})
    for divide in (MultiPoly.exact_divide, exact_divide_sorting):
        with pytest.raises(ValueError):
            divide(f, g)


def test_json_round_trip():
    rng = random.Random(59)
    for _ in range(20):
        p = rand_poly(rng)
        data = p.to_json_terms()
        assert poly_from_json_terms(data) == p
        # canonical order: graded first
        degs = [sum(e.values()) for _, e in data]
        assert degs == sorted(degs, reverse=True)

import itertools
import random
from fractions import Fraction

import pytest

from confspace import morphisms
from confspace.polyring import (
    MultiPoly,
    discriminant_monic,
    discriminant_of,
    form_partial,
    form_product,
)
from confspace.morphisms import (
    FELER_NINE_CONSTANT,
    cayley_comparison,
    cayley_eisenstein,
    discriminant_value,
    eisenstein,
    feler_L,
    feler_nine_sampled,
    feler_nine_symbolic,
    ferrari_symbolic,
    hesse_cubic_discriminant,
    hesse_form,
    model_map,
    tame_action_check,
    tame_determinant_identity,
    tame_matrix,
)
from oracles import (
    _nine_form_int_coeffs,
    discriminant_int,
    discriminant_sylvester,
    feler_nine_form,
    ferrari_fractions,
    ferrari_induced_permutation,
    identity_report,
    int_poly_mul,
    monic_from_roots,
    nine_form_disc_expanded,
    poly_derivative,
    resultant_int,
    tame_action_numeric,
    verify_identity,
)

Z = tuple(MultiPoly.var("z%d" % i) for i in range(4))


# -- quartic resolvent --------------------------------------------------------


def test_ferrari_example():
    assert set(morphisms._resolvent_times_4(0, 1, 2, 3)) == {0, 4, 16}
    assert set(ferrari_fractions((0, 1, 2, 3))) == {0, 1, 4}


def test_ferrari_swap_permutes_output():
    a = set(ferrari_fractions((Fraction(1, 2), 3, -2, 7)))
    b = set(ferrari_fractions((3, Fraction(1, 2), -2, 7)))
    assert a == b


def test_ferrari_difference_factorization():
    f1, f2, f3 = ferrari_symbolic()
    q = [MultiPoly.var("q%d" % i) for i in range(1, 5)]
    assert f1 - f2 == 4 * (q[0] - q[1]) * (q[3] - q[2])
    assert f1 - f3 == 4 * (q[0] - q[2]) * (q[3] - q[1])
    assert f2 - f3 == 4 * (q[1] - q[2]) * (q[3] - q[0])


def test_ferrari_equivariance_and_kernel():
    rng = random.Random(5)
    klein = {
        (1, 2, 3, 4),
        (2, 1, 4, 3),
        (3, 4, 1, 2),
        (4, 3, 2, 1),
    }
    for _ in range(10):
        pts = []
        while len(set(pts)) != 4:
            pts = [Fraction(rng.randint(-30, 30), rng.randint(1, 7))
                   for _ in range(4)]
        try:
            table = {
                sigma: ferrari_induced_permutation(sigma, pts)
                for sigma in itertools.permutations((1, 2, 3, 4))
            }
        except ValueError:
            continue  # resolvent collision; the sample is discarded
        kernel = {s for s, img in table.items() if img == (1, 2, 3)}
        assert kernel == klein
        # composition: acting twice matches composing the images
        for s1 in list(table)[:6]:
            for s2 in list(table)[:6]:
                comp = tuple(s1[s2[i] - 1] for i in range(4))
                expect = tuple(table[s1][table[s2][i] - 1] for i in range(3))
                assert table[comp] == expect


# -- the disjoint sextic map ---------------------------------------------------


def test_feler_L_table():
    z1, z2, z3 = (MultiPoly.var("z1"), MultiPoly.var("z2"),
                  MultiPoly.var("z3"))
    L = feler_L()
    assert L[0] == 2 * z1
    assert L[1] == 5 * z2
    assert L[2] == 20 * z3
    assert L[5] == 4 * z1 * z2 * z3 - z2 ** 3 - 8 * z3 ** 2


def test_feler_sextic_discriminant_identity():
    from confspace.morphisms import feler_sextic_identity
    lhs, rhs = feler_sextic_identity()
    assert lhs == rhs


def test_feler_sextic_discriminant_matches_sylvester():
    # polynomial coefficients: the Bezout route against the Sylvester one
    sextic = [MultiPoly.one(), *feler_L()]
    assert discriminant_of(sextic) == discriminant_sylvester(sextic)


def test_feler_sextic_resultant_is_unit_times_power():
    from confspace.morphisms import feler_sextic_resultant
    res, rem, power = feler_sextic_resultant()
    assert rem.is_constant() and rem.constant_value() != 0
    assert power == 3


def test_feler_sextic_roots_are_the_shifted_square_roots():
    # the image sextic of the cubic with roots q is
    # prod_i ((t - q_i)^2 - (q_i - q_j)(q_i - q_k)): its six roots are the
    # q_i shifted by the square roots of (q_i - q_j)(q_i - q_k)
    for q in ((0, 1, 3), (2, -5, 7), (1, 4, -9)):
        z = [int(c) for c in monic_from_roots(q)[1:]]
        sextic = [1, *feler_L(z)]
        product = [1]
        for i, (j, k) in enumerate(((1, 2), (0, 2), (0, 1))):
            shift = (q[i] - q[j]) * (q[i] - q[k])
            product = int_poly_mul(product, [1, -2 * q[i], q[i] ** 2 - shift])
        assert sextic == product, q


# -- the degree-9 form ---------------------------------------------------------


def test_nine_form_shape():
    form = feler_nine_form()
    assert len(form) == 10
    for i, c in enumerate(form):
        assert c.is_homogeneous(6 + i)


def test_nine_form_at_sample_point_has_simple_disjoint_roots():
    q = (0, 1, 2)
    c = _nine_form_int_coeffs(q)
    assert discriminant_int(c) != 0  # nine distinct projective roots
    p3 = [1, -3, 2, 0]  # (t)(t-1)(t-2)
    assert resultant_int(p3, c) != 0  # image avoids the source points


def test_nine_form_discriminant_sampled():
    rep = feler_nine_sampled(trials=20, rng=random.Random(2))
    assert rep["pass"] and rep["trials"] == 20


def test_nine_form_constant_sign_verified():
    # exact evaluation pins the constant, including its sign
    assert FELER_NINE_CONSTANT == -(3 ** 27)
    q = (0, 1, 3)
    val = discriminant_int(_nine_form_int_coeffs(q))
    delta = (q[0] - q[1]) * (q[1] - q[2]) * (q[2] - q[0])
    assert val == FELER_NINE_CONSTANT * delta ** 56
    assert val != -FELER_NINE_CONSTANT * delta ** 56


def test_nine_form_discriminant_symbolic_certificate():
    rep = feler_nine_symbolic()
    assert rep["pass"]
    assert rep["points"] > 6000


def test_nine_disc_matches_expanded_oracle_on_lattice():
    # every principal-lattice point of the certificate, collisions and
    # vanishing leading coefficients included
    points = [(a, b, 1) for a in range(169) for b in range(a, 169 - a)]
    assert len(points) == 7225
    for q in points:
        assert morphisms._nine_disc_int(q) == nine_form_disc_expanded(q), q


def test_nine_disc_matches_expanded_oracle_at_large_points():
    rng = random.Random(11)
    bound = morphisms._SAMPLE_BOUND
    for _ in range(200):
        q = tuple(rng.randint(-bound, bound) for _ in range(3))
        assert morphisms._nine_disc_int(q) == nine_form_disc_expanded(q), q


def test_nine_factors_multiply_to_the_symbolic_form():
    # ties the symbolic stage checks, made on feler_nine_form, to the
    # integer factors the lattice and sampled checks evaluate
    form = feler_nine_form()
    rng = random.Random(13)
    for q in [(0, 1, 2), (5, 5, -3)] + [
            tuple(rng.randint(-10 ** 6, 10 ** 6) for _ in range(3))
            for _ in range(10)]:
        point = dict(zip(("q1", "q2", "q3"), q))
        f1, f2, f3 = morphisms._nine_factors(q)
        product = [0] * 10
        for i, x in enumerate(f1):
            for j, y in enumerate(f2):
                for k, z in enumerate(f3):
                    product[i + j + k] += x * y * z
        assert product == [c.evaluate(point) for c in form]


_Q = (MultiPoly.var("q1"), MultiPoly.var("q2"), MultiPoly.var("q3"))
_SWAP = {"q1": _Q[1], "q2": _Q[0]}


def test_nine_form_level_checks_on_the_expanded_form():
    # the checks the certificate once made on the expanded form: each
    # coefficient i is homogeneous of degree 6 + i, and the form is
    # antisymmetric under q1 <-> q2
    form = feler_nine_form()
    for i, c in enumerate(form):
        assert c.is_homogeneous(6 + i), i
        assert c.substitute(_SWAP) == -c, i


def test_nine_factors_sum_to_zero_and_swap_up_to_sign():
    f1, f2, f3 = morphisms._nine_factors(_Q)
    assert all((x + y + z).is_zero() for x, y, z in zip(f1, f2, f3))
    for f, g in ((f1, f1), (f2, f3), (f3, f2)):
        assert [c.substitute(_SWAP) for c in f] == [-c for c in g]


# mutations of the three factor lists, made in place at symbolic and at
# integer points alike


def _add_to_last_of_f1(q, fs):
    fs[0][3] = fs[0][3] + 1


def _add_q3_squared_to_f1(q, fs):
    fs[0][0] = fs[0][0] + q[2] ** 2


def _move_q1_squared_from_f2_to_f1(q, fs):
    fs[0][0] = fs[0][0] + q[0] ** 2
    fs[1][0] = fs[1][0] - q[0] ** 2


def _double_every_factor(q, fs):
    for f in fs:
        f[:] = [2 * c for c in f]


@pytest.mark.parametrize("mutate, stage, witness", [
    (_add_to_last_of_f1, "coefficient-homogeneity", [1, 3]),
    (_add_q3_squared_to_f1, "factor-sum", 0),
    (_move_q1_squared_from_f2_to_f1, "swap-antisymmetry", [1, 0]),
    (_double_every_factor, "lattice", [0, 2, 1]),
])
def test_each_certificate_stage_fails_under_its_name(
        monkeypatch, mutate, stage, witness):
    factors = morphisms._nine_factors

    def mutated(q):
        fs = factors(q)
        mutate(q, fs)
        return fs

    monkeypatch.setattr(morphisms, "_nine_factors", mutated)
    rep = feler_nine_symbolic()
    assert (rep["pass"], rep["stage"], rep["witness"]) == (
        False, stage, witness)


# -- the cubic involution ------------------------------------------------------


def test_eisenstein_displayed_formulas():
    z0, z1, z2, z3 = Z
    w = eisenstein(Z)
    assert w[0] == 2 * z1 ** 3 - 3 * z0 * z1 * z2 + z0 ** 2 * z3
    assert w[1] == 2 * z0 * z2 ** 2 - z0 * z1 * z3 - z1 ** 2 * z2
    # the printed text carries a sign slip in this slot; the derivative
    # of the potential fixes it and the involution identities confirm
    assert w[2] == 2 * z1 ** 2 * z3 - z0 * z2 * z3 - z1 * z2 ** 2
    assert w[3] == 2 * z2 ** 3 - 3 * z1 * z2 * z3 + z0 * z3 ** 2


def test_eisenstein_is_the_derivative_of_the_potential():
    D = hesse_cubic_discriminant(Z)
    assert eisenstein(Z) == (poly_derivative(D, "z3").scalar_divide(2),
                             poly_derivative(D, "z2").scalar_divide(6),
                             poly_derivative(D, "z1").scalar_divide(6),
                             poly_derivative(D, "z0").scalar_divide(2))


def test_eisenstein_fixed_form():
    assert eisenstein((1, 0, 0, 1)) == (1, 0, 0, 1)


def test_hesse_covariants_of_int_cubics_are_ints():
    z = (1, -2, 3, 5)
    point = dict(zip(("z0", "z1", "z2", "z3"), z))
    disc, w = hesse_cubic_discriminant(z), eisenstein(z)
    assert type(disc) is int and all(type(c) is int for c in w)
    assert disc == hesse_cubic_discriminant(Z).evaluate(point)
    assert w == tuple(c.evaluate(point) for c in eisenstein(Z))
    assert hesse_form(z) == hesse_form(tuple(map(MultiPoly.const, z)))


def test_eisenstein_involution_identities():
    D = hesse_cubic_discriminant(Z)
    w = eisenstein(Z)
    ww = eisenstein(w)
    for i in range(4):
        assert ww[i] == D ** 2 * Z[i]
    assert hesse_cubic_discriminant(w) == D ** 3


def test_hesse_discriminant_matches_projective():
    weighted = discriminant_of([Z[0], 3 * Z[1], 3 * Z[2], Z[3]])
    assert weighted.scalar_divide(27) == hesse_cubic_discriminant(Z)


def test_hessian_is_quadratic():
    phi = hesse_form(Z)
    px, py = form_partial(phi, "x"), form_partial(phi, "y")
    pxx, pxy = form_partial(px, "x"), form_partial(px, "y")
    pyy = form_partial(py, "y")
    hess = [a - b for a, b in zip(form_product(pxx, pyy),
                                  form_product(pxy, pxy))]
    # 36 ((z0 x + z1 y)(z2 x + z3 y) - (z1 x + z2 y)^2)
    z0, z1, z2, z3 = Z
    assert hess == [36 * (z0 * z2 - z1 ** 2), 36 * (z0 * z3 - z1 * z2),
                    36 * (z1 * z3 - z2 ** 2)]


def test_cayley_comparison_relation():
    rel = cayley_comparison()
    assert rel["transform"] == "y -> -y"
    assert (rel["numerator"], rel["denominator"]) == (108, 1)


def test_cayley_degenerate_input_still_a_form():
    assert cayley_eisenstein([0, 3, 0, 0]) == [216, 0, 0, 0]


# -- the involution as a PGL_2 matrix ------------------------------------------


def test_tame_determinant_is_one():
    u, v, den2 = tame_determinant_identity()
    assert v.is_zero()
    assert u == den2


def test_tame_numerator_identity():
    z0, z1, z2, z3 = Z
    A, B, C = tame_matrix(Z)
    assert (A, B, C) == (z1 * z2 - z0 * z3, 2 * (z2 ** 2 - z1 * z3),
                         2 * (z0 * z2 - z1 ** 2))
    assert -(A ** 2) - B * C == -hesse_cubic_discriminant(Z)


def test_tame_degenerate_rejected():
    with pytest.raises(ValueError, match="discriminant vanishes"):
        tame_matrix((1, 0, 0, 0))


def test_wrong_matrix_entry_fails_both_tame_checks(monkeypatch):
    # both checks take A, B, C from tame_matrix, so one wrong entry there
    # must fail the determinant identity and the action on roots alike
    right = morphisms.tame_matrix

    def wrong_b(z):
        A, B, C = right(z)
        return A, B + 1, C

    monkeypatch.setattr(morphisms, "tame_matrix", wrong_b)
    u, v, den2 = tame_determinant_identity()
    assert not (v.is_zero() and u == den2)
    rep = tame_action_check(trials=5, rng=random.Random(0))
    assert not rep["pass"] and rep["witness"] is not None


def test_tame_action_on_roots():
    rep = tame_action_check(trials=20, rng=random.Random(11))
    assert rep["pass"]


def _record_accepted(monkeypatch):
    """The z at which tame_action_check evaluates its identity, in order."""
    accepted = []
    identity = morphisms._tame_action_identity

    def recording(z, w, disc):
        if isinstance(disc, int):
            accepted.append(z)
        return identity(z, w, disc)

    monkeypatch.setattr(morphisms, "_tame_action_identity", recording)
    return accepted


def test_tame_action_accepts_like_numeric_oracle(monkeypatch):
    exact = _record_accepted(monkeypatch)
    for seed in range(20):
        exact.clear()
        rep = tame_action_check(trials=20, rng=random.Random(seed))
        numeric = tame_action_numeric(trials=20, rng=random.Random(seed))
        assert rep == {"pass": True, "trials": 20, "witness": None}
        assert numeric["pass"]
        assert exact == numeric["accepted"]
        assert len(exact) == 20


class _ScriptedDraws:
    def __init__(self, values):
        self._values = iter(values)

    def randint(self, low, high):
        return next(self._values)

    def choice(self, seq):
        return next(self._values)


def test_tame_action_skips_degenerate_samples(monkeypatch):
    # zero discriminant, zero phi_0, zero psi_0, then a regular cubic; the
    # identity holds at all four, so only the skip rules keep the first three
    # out
    draws = (-4, -4, 0, 0), (0, 1, 1, 1), (-3, -3, -2, 0), (1, 2, 3, 5)
    exact = _record_accepted(monkeypatch)
    flat = [v for z in draws for v in z]
    rep = tame_action_check(trials=1, rng=_ScriptedDraws(flat))
    numeric = tame_action_numeric(trials=1, rng=_ScriptedDraws(flat))
    assert rep["pass"] and numeric["pass"]
    assert exact == numeric["accepted"] == [(1, 2, 3, 5)]


def test_tame_action_fails_on_symbolic_identity_alone(monkeypatch):
    right = morphisms.eisenstein

    def wrong_when_symbolic(z):
        w = right(z)
        if not any(isinstance(c, MultiPoly) for c in w):
            return w
        return (w[0], w[1], w[2], w[3] + MultiPoly.var("z0"))

    monkeypatch.setattr(morphisms, "eisenstein", wrong_when_symbolic)
    rep = tame_action_check(trials=5, rng=random.Random(0))
    assert rep == {"pass": False, "trials": 5, "witness": None}


# -- model maps and coverings ----------------------------------------------------


def test_model_map_values():
    coeffs = model_map("A", 3, 1, 2)
    assert coeffs == [1, 0, 0, -2]
    for m in (3, 5):
        coeffs = model_map("B", m, 0, 7)
        expected = [1] + [0] * m
        expected[m - 1] = -1
        assert coeffs == expected
        assert all(type(c) is int for c in coeffs)


def test_model_map_guards():
    with pytest.raises(ValueError):
        model_map("A", 1, 1, 2)
    with pytest.raises(ValueError):
        model_map("Q", 3, 1, 2)


def test_model_map_refuses_negative_exponent():
    for zeta in (2, MultiPoly.var("c")):
        with pytest.raises(ValueError, match="exponent must be non-negative"):
            model_map("A", 3, -1, zeta)


def test_model_map_discriminant_power():
    zeta = MultiPoly.var("c")
    for m in (3, 4):
        for r in (1, 2, 3):
            d = discriminant_of(model_map("A", m, r, zeta))
            terms = d.sorted_terms()
            assert len(terms) == 1
            mono, coeff = terms[0]
            assert dict(mono) == {"c": r * (m - 1)}
            assert coeff != 0


def test_discriminant_value_matches_symbolic():
    rng = random.Random(3)
    for n in (2, 3, 4, 5):
        d = discriminant_monic(n)
        for _ in range(5):
            pts = []
            while len(set(pts)) != n:
                pts = [rng.randint(-9, 9) for _ in range(n)]
            coeffs = monic_from_roots(pts)
            point = {"w%d" % i: coeffs[i] for i in range(1, n + 1)}
            value = discriminant_value(pts)
            assert type(value) is int and value == d.evaluate(point)


def _record_covering(monkeypatch, draws):
    """The discriminant_value inputs of one covering trial on the scripted
    draws: the scaled points, then their image."""
    seen = []
    right = morphisms.discriminant_value

    def recording(points):
        seen.append(list(points))
        return right(points)

    monkeypatch.setattr(morphisms, "discriminant_value", recording)
    rep = morphisms.GALLERY_CHECKS["covering"](
        1, _ScriptedDraws(draws), False)
    assert rep["pass"]
    return seen


def test_covering_identity_at_zero(monkeypatch):
    # n = 3, m = 0, the points 1, 2, 5: the map is the identity
    seen = _record_covering(monkeypatch, [3, 0, 1, 1, 2, 1, 5, 1])
    assert seen == [[1, 2, 5], [1, 2, 5]]


def test_covering_clears_denominators_and_redraws_repeats(monkeypatch):
    # n = 2, m = 1; 1/2 and 2/4 are one point, so the pair is redrawn, and
    # 1/2, 1/3 times the lcm 6 are 3, 2, with discriminant -1
    seen = _record_covering(monkeypatch, [2, 1, 1, 2, 2, 4, 1, 2, 1, 3])
    assert seen == [[3, 2], [-3, -2]]


def test_covering_two_points():
    # the discriminant of t^2 - t is -1 in this sign convention, so the
    # image configuration is the reflected pair and the covering law holds
    d = discriminant_value((0, 1))
    assert d == -1
    out = [d * p for p in (0, 1)]
    assert set(out) == {0, -1}
    k = 1 * 2 * 1 + 1
    assert discriminant_value(out) == d ** k


def test_covering_law_symbolic_roots():
    # scaling all roots scales the root-difference product isobarically,
    # tying the discriminant of the scaled configuration to a pure power
    for n in (3, 4):
        qs = [MultiPoly.var("q%d" % i) for i in range(1, n + 1)]
        c = MultiPoly.var("c")
        prod = MultiPoly.one()
        scaled = MultiPoly.one()
        for i in range(n):
            for j in range(i + 1, n):
                prod = prod * (qs[i] - qs[j]) ** 2
                scaled = scaled * (c * qs[i] - c * qs[j]) ** 2
        assert scaled == c ** (n * (n - 1)) * prod
        # and the root-difference product is the monic discriminant
        sign = -1 if (n * (n - 1) // 2) % 2 else 1
        elem = monic_symbolic(qs)
        d = discriminant_monic(n).substitute(
            {"w%d" % i: elem[i] for i in range(1, n + 1)})
        assert d == sign * prod


def monic_symbolic(qs):
    coeffs = [MultiPoly.one()]
    for q in qs:
        nxt = coeffs + [MultiPoly.zero()]
        for i in range(len(coeffs)):
            nxt[i + 1] = nxt[i + 1] - q * coeffs[i]
        coeffs = nxt
    return coeffs


def test_covering_law_sampled():
    rng = random.Random(17)
    for n in (5, 6):
        for m in (1, 2):
            pts = []
            while len(set(pts)) != n:
                pts = [rng.randint(-9, 9) for _ in range(n)]
            d = discriminant_value(pts)
            k = m * n * (n - 1) + 1
            assert discriminant_value([d ** m * p for p in pts]) == d ** k


# -- identity testing -------------------------------------------------------------


def test_verify_identity_reflexive():
    p = MultiPoly.var("x") ** 3 - 2
    assert verify_identity(p, p, trials=1)
    assert identity_report(p, p)["mode"] == "symbolic"


def test_verify_identity_detects_difference():
    x = MultiPoly.var("x")
    rep = identity_report(x ** 2, x ** 2 + 1, trials=5)
    assert not rep["pass"]
    assert rep["witness"] is not None


def test_verify_identity_seeded_deterministic():
    x, y = MultiPoly.var("x"), MultiPoly.var("y")
    lhs, rhs = (x + y) ** 2, x ** 2 + 2 * x * y + y ** 2 + 1
    r1 = identity_report(lhs, rhs, trials=3, rng=random.Random(4))
    r2 = identity_report(lhs, rhs, trials=3, rng=random.Random(4))
    assert r1 == r2

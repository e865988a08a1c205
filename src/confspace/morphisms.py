"""The explicit morphism gallery: quartic resolvent, the disjoint maps on
three points, the cubic-form involution in its three guises, model cyclic
maps, and the discriminant-power coverings, each with exact verification.

Every check computes on ints at its samples and on MultiPoly for its
identities.  Symbolic claims are checked in the polynomial ring; the one
identity too heavy to expand directly (the degree-9 form discriminant) has
an exact sampled mode and an exact lattice-evaluation mode.  Both evaluate
the form's three cubic factors (_nine_factors) at integer points, with one
resultant per point since the factors sum to zero; the certificate checks
that sum, the degrees and the swap symmetry on the symbolic factors before
the lattice.  The involution's action on roots is a polynomial identity
too, checked in the ring and at sampled integer cubics; no check uses
floating point.
"""

from __future__ import annotations

import itertools
import math
import random

from .polyring import (
    MultiPoly,
    cubic_discriminant,
    cubic_resultant,
    discriminant_monic,
    discriminant_of,
    form_partial,
    form_product,
    resultant,
)


# ---------------------------------------------------------------------------
# quartic resolvent
# ---------------------------------------------------------------------------


def _resolvent_times_4(q1, q2, q3, q4):
    return ((q1 - q2 - q3 + q4) ** 2, (q1 - q2 + q3 - q4) ** 2,
            (q1 + q2 - q3 - q4) ** 2)


def ferrari_symbolic():
    """The three resolvent coordinates as polynomials in q1..q4, times 4."""
    return _resolvent_times_4(*(MultiPoly.var("q%d" % i)
                                for i in range(1, 5)))


# ---------------------------------------------------------------------------
# the disjoint map into six points and the degree-9 form
# ---------------------------------------------------------------------------


def feler_L(z=None):
    """Coefficients of the image sextic as polynomials in z1, z2, z3."""
    if z is None:
        z = (MultiPoly.var("z1"), MultiPoly.var("z2"), MultiPoly.var("z3"))
    z1, z2, z3 = z
    return (
        2 * z1,
        5 * z2,
        20 * z3,
        20 * z1 * z3 - 5 * z2 ** 2,
        8 * z1 ** 2 * z3 - 2 * z1 * z2 ** 2 - 4 * z2 * z3,
        4 * z1 * z2 * z3 - z2 ** 3 - 8 * z3 ** 2,
    )


def feler_sextic_identity():
    """The sextic/cubic discriminant relation, fully expanded."""
    z1, z2, z3 = (MultiPoly.var("z1"), MultiPoly.var("z2"),
                  MultiPoly.var("z3"))
    L = feler_L((z1, z2, z3))
    lhs = discriminant_of([MultiPoly.one(), *L])
    d3 = discriminant_of([MultiPoly.one(), z1, z2, z3])
    rhs = MultiPoly.const(-(4 ** 9)) * d3 ** 5
    return lhs, rhs


def feler_sextic_resultant():
    """Resultant of the source cubic and image sextic; a unit multiple of a
    power of the cubic discriminant, witnessing disjointness."""
    z1, z2, z3 = (MultiPoly.var("z1"), MultiPoly.var("z2"),
                  MultiPoly.var("z3"))
    L = feler_L((z1, z2, z3))
    res = resultant([MultiPoly.one(), z1, z2, z3],
                    [MultiPoly.one(), *L])
    d3 = discriminant_of([MultiPoly.one(), z1, z2, z3])
    power = 0
    rem = res
    while True:
        try:
            rem = rem.exact_divide(d3)
            power += 1
        except ValueError:
            break
    return res, rem, power


def _nine_factors(q):
    """The three cubic factors of the degree-9 form at q = (q1, q2, q3),
    ints or MultiPoly, as coefficient lists descending in x:
    f_ab = w_a (x - q_a y)^3 - w_b (x - q_b y)^3 for (a, b) = (1, 2),
    (2, 3), (3, 1), with w_1 = (q2 - q3)^2, w_2 = (q3 - q1)^2 and
    w_3 = (q1 - q2)^2.  With s_a = w_a q_a, t_a = s_a q_a and
    u_a = t_a q_a, f_ab is (w_a - w_b, 3(s_b - s_a), 3(t_a - t_b),
    u_b - u_a)."""
    q1, q2, q3 = q
    w1, w2, w3 = (q2 - q3) ** 2, (q3 - q1) ** 2, (q1 - q2) ** 2
    s1, s2, s3 = w1 * q1, w2 * q2, w3 * q3
    t1, t2, t3 = s1 * q1, s2 * q2, s3 * q3
    u1, u2, u3 = t1 * q1, t2 * q2, t3 * q3
    return ([w1 - w2, 3 * (s2 - s1), 3 * (t1 - t2), u2 - u1],
            [w2 - w3, 3 * (s3 - s2), 3 * (t2 - t3), u3 - u2],
            [w3 - w1, 3 * (s1 - s3), 3 * (t3 - t1), u1 - u3])


# Verified constant of the degree-9 identity.  The source text prints the
# positive constant, but exact evaluation and an independent floating-point
# root-product check both give the negative one under the determinant
# convention fixed by discriminant_of.
FELER_NINE_CONSTANT = -(3 ** 27)


def feler_nine_rhs_value(q):
    delta = (q[0] - q[1]) * (q[1] - q[2]) * (q[2] - q[0])
    return FELER_NINE_CONSTANT * delta ** 56


def _nine_disc_int(q):
    """discriminant_of(F) for the degree-9 form F = f1 f2 f3 at an integer
    point, as disc(f1) disc(f2) disc(f3) res(f1, f2)^6.

    That is disc(f1) disc(f2) disc(f3) (res(f1, f2) res(f2, f3)
    res(f3, f1))^2, and the three resultants are one integer: f1 + f2 + f3
    = 0 (the certificate checks it symbolically), cubic_resultant reads its
    arguments only through the brackets [f, g]_ij = f_i g_j - f_j g_i, and
    [f2, f3] = [f2, -f1 - f2] = [f1, f2] = [f3, f1].
    """
    f1, f2, f3 = _nine_factors(q)
    return (cubic_discriminant(f1) * cubic_discriminant(f2)
            * cubic_discriminant(f3) * cubic_resultant(f1, f2) ** 6)


# the sampled identity checks draw integer coordinates uniformly from
# [-_SAMPLE_BOUND, _SAMPLE_BOUND]
_SAMPLE_BOUND = 10 ** 9


def feler_nine_sampled(trials=20, rng=None):
    """Exact random-evaluation test of the degree-9 discriminant identity.

    Points are drawn uniformly from [-_SAMPLE_BOUND, _SAMPLE_BOUND]^3 with
    distinct coordinates; per-trial failure chance for a wrong identity is
    at most total degree / (2*_SAMPLE_BOUND) by the standard zero-test bound
    (both sides have degree 168, derived in feler_nine_symbolic).  The
    left-hand side at a point is discriminant_of(F) for the form F, which
    at n = 9 is the standard discriminant of f1 f2 f3: the product of the
    standard (closed-form) discriminants of the cubic factors and their
    squared pairwise resultants, one integer to the sixth power
    (_nine_disc_int).
    """
    rng = rng or random.Random(0)
    for t in range(trials):
        while True:
            q = tuple(rng.randint(-_SAMPLE_BOUND, _SAMPLE_BOUND)
                      for _ in range(3))
            if len(set(q)) == 3:
                break
        if _nine_disc_int(q) != feler_nine_rhs_value(q):
            return {"pass": False, "trials": t + 1, "witness": list(q)}
    return {"pass": True, "trials": trials, "witness": None}


def feler_nine_symbolic():
    """Exact certification of the degree-9 discriminant identity.

    The stages check the _nine_factors f1, f2, f3 at symbolic q, the
    polynomials every lattice point evaluates.  In order:

    - coefficient-homogeneity: coefficient i of each factor is homogeneous
      of degree 2 + i (witness: [j, i] for coefficient i of f_j);
    - factor-sum: f1 + f2 + f3 == 0, the hypothesis under which
      _nine_disc_int takes one resultant for three (witness: i);
    - swap-antisymmetry: swapping q1 and q2 sends f1 to -f1, f2 to -f3 and
      f3 to -f2 (witness: [j, i]);
    - lattice: exact evaluation of both sides on the principal lattice.

    The degree: a cubic discriminant has degree 4 and weight 6 in the
    coefficients, so with coefficient i of degree 2 + i it has degree
    4*2 + 6 = 14 in q; the resultant of two cubics has bidegree (3, 3) and
    weight 9, so degree 6*2 + 9 = 21.  The left-hand side
    disc(f1) disc(f2) disc(f3) res(f1, f2)^6 is then homogeneous of degree
    3*14 + 6*21 = 168, as is the right-hand side, delta of degree 3 to the
    56th.  A degree-168 homogeneous polynomial vanishes identically iff it
    vanishes at every point of the principal lattice a+b <= 168 in the
    plane q3 = 1, so exact integer evaluation on that lattice decides the
    identity.  Both sides are symmetric under q1 <-> q2: by the swap
    relations the left-hand side becomes disc(-f1) disc(-f3) disc(-f2)
    res(-f1, -f3)^6, a cubic discriminant has even degree 4, and
    res(-f1, -f3) = res(f1, f3) = -res(f3, f1) = -res(f1, f2) enters to the
    sixth power; delta changes sign and enters to the 56th.  So the half
    a <= b of the lattice suffices.  Each point's discriminant_of(F), +1
    times the standard discriminant at n = 9, is _nine_disc_int, exact at
    formal degree 3 where a leading coefficient vanishes.
    """
    q1, q2, q3 = (MultiPoly.var("q1"), MultiPoly.var("q2"),
                  MultiPoly.var("q3"))
    factors = _nine_factors((q1, q2, q3))
    for j, f in enumerate(factors, 1):
        for i, c in enumerate(f):
            if not c.is_homogeneous(2 + i):
                return {"pass": False, "stage": "coefficient-homogeneity",
                        "witness": [j, i]}
    f1, f2, f3 = factors
    for i, (x, y, z) in enumerate(zip(f1, f2, f3)):
        if not (x + y + z).is_zero():
            return {"pass": False, "stage": "factor-sum", "witness": i}
    swap = {"q1": q2, "q2": q1}
    for j, (f, g) in enumerate(zip(factors, (f1, f3, f2)), 1):
        for i, (x, y) in enumerate(zip(f, g)):
            if x.substitute(swap) != -y:
                return {"pass": False, "stage": "swap-antisymmetry",
                        "witness": [j, i]}
    # both sides' degree, derived in the docstring
    degree = 168
    checked = 0
    for a in range(0, degree + 1):
        for b in range(a, degree + 1 - a):
            q = (a, b, 1)
            # at collapsing points both sides are zero and go uncounted
            if _nine_disc_int(q) != feler_nine_rhs_value(q):
                return {"pass": False, "stage": "lattice", "witness": list(q)}
            checked += len(set(q)) == 3
    return {"pass": True, "stage": "lattice", "points": checked}


# ---------------------------------------------------------------------------
# the cubic-form involution
# ---------------------------------------------------------------------------

_HESSE_VARS = tuple(MultiPoly.var("e%d" % i) for i in range(4))


def hesse_cubic_discriminant(z):
    """Discriminant of z0*x^3 + 3*z1*x^2*y + 3*z2*x*y^2 + z3*y^3, in the
    normalization that makes it a potential for the involution; z holds
    ints or MultiPoly."""
    z0, z1, z2, z3 = z
    return (z0 ** 2 * z3 ** 2 - 3 * z1 ** 2 * z2 ** 2
            - 6 * z0 * z1 * z2 * z3 + 4 * z0 * z2 ** 3 + 4 * z1 ** 3 * z3)


def eisenstein(z):
    """Coefficients of the image cubic: the half and sixth partial
    derivatives (d/dz3 / 2, d/dz2 / 6, d/dz1 / 6, d/dz0 / 2) of the
    discriminant potential, evaluated at z (ints or MultiPoly)."""
    if len(z) != 4:
        raise ValueError("needs four coefficients")
    z0, z1, z2, z3 = z
    return (2 * z1 ** 3 - 3 * z0 * z1 * z2 + z0 ** 2 * z3,
            2 * z0 * z2 ** 2 - z0 * z1 * z3 - z1 ** 2 * z2,
            2 * z1 ** 2 * z3 - z0 * z2 * z3 - z1 * z2 ** 2,
            2 * z2 ** 3 - 3 * z1 * z2 * z3 + z0 * z3 ** 2)


def hesse_form(z):
    """The weighted cubic z0*x^3 + 3*z1*x^2*y + 3*z2*x*y^2 + z3*y^3 of the
    coefficient quadruple z, as a coefficient list."""
    z0, z1, z2, z3 = z
    return [z0, 3 * z1, 3 * z2, z3]


def cayley_eisenstein(f):
    """Jacobian of a cubic form (a coefficient list) and its Hessian, as a
    cubic form."""
    if len(f) != 4:
        raise ValueError("needs a cubic form")
    px, py = form_partial(f, "x"), form_partial(f, "y")
    pxx, pxy = form_partial(px, "x"), form_partial(px, "y")
    pyy = form_partial(py, "y")
    hess = [a - b for a, b in zip(form_product(pxx, pyy),
                                  form_product(pxy, pxy))]
    hx, hy = form_partial(hess, "x"), form_partial(hess, "y")
    return [a - b for a, b in zip(form_product(px, hy),
                                  form_product(py, hx))]


# the coordinate changes that preserve the weighted coefficient shape, as
# maps of a cubic's coefficient list
_CAYLEY_TRANSFORMS = {
    "identity": lambda cs: cs,
    "swap x,y": lambda cs: cs[::-1],
    "y -> -y": lambda cs: [c if i % 2 == 0 else -c
                           for i, c in enumerate(cs)],
    "swap and y -> -y": lambda cs: [c if i % 2 == 0 else -c
                                    for i, c in enumerate(cs[::-1])],
}


def cayley_comparison():
    """Exact relation between the Jacobian construction and the
    derivative-potential construction on a generic weighted cubic.

    Tries the coordinate changes that preserve the weighted coefficient
    shape (identity, x/y swap, and the sign flips of either variable) and
    returns the one under which the Jacobian is a constant multiple of the
    derivative image, with the constant; raises ArithmeticError if none
    does.
    """
    e = _HESSE_VARS
    jac = cayley_eisenstein(hesse_form(e))
    target = hesse_form(eisenstein(e))
    for label, tf in _CAYLEY_TRANSFORMS.items():
        cand = tf(target)
        ratio = None
        ok = True
        for a, b in zip(jac, cand):
            if a.is_zero() and b.is_zero():
                continue
            if a.is_zero() != b.is_zero():
                ok = False
                break
            if ratio is None:
                at = a.sorted_terms()[0]
                bt = b.sorted_terms()[0]
                if at[0] != bt[0]:
                    ok = False
                    break
                ratio = (at[1], bt[1])
            num, den = ratio
            if a * den != b * num:
                ok = False
                break
        if ok and ratio is not None:
            return {"transform": label, "numerator": ratio[0],
                    "denominator": ratio[1]}
    raise ArithmeticError("no constant relates the two constructions")


# ---------------------------------------------------------------------------
# model maps and coverings
# ---------------------------------------------------------------------------


def model_map(kind, m, r, zeta):
    """Monic coefficient vector of the model map value at zeta, an int or
    a MultiPoly.

    Kind "A" gives t^m - zeta^r, kind "B" gives t^m - zeta^r * t.  The
    exponent r must be non-negative (an int to a negative power is a
    float).
    """
    if m < 2:
        raise ValueError("degree must be at least 2")
    kind = kind.upper()
    if kind not in ("A", "B"):
        raise ValueError("kind must be A or B")
    if r < 0:
        raise ValueError("exponent must be non-negative")
    # one and zero of zeta's ring
    one = zeta ** 0
    coeffs = [one] + [one - one] * m
    coeffs[m if kind == "A" else m - 1] = -(zeta ** r)
    return coeffs


def discriminant_value(points):
    """Discriminant of the monic polynomial with the given integer roots.

    Convention matches discriminant_monic: the sign is (-1)^(n(n-1)/2)
    times the square of the difference product.
    """
    n = len(points)
    prod = math.prod((p - q) ** 2
                     for p, q in itertools.combinations(points, 2))
    return prod if (n * (n - 1) // 2) % 2 == 0 else -prod


# ---------------------------------------------------------------------------
# the involution as one PGL_2 matrix, and its action on roots
# ---------------------------------------------------------------------------


def tame_matrix(z):
    """(A, B, C) of the matrix [[A, B], [C, -A]] by which the involution
    acts on the roots of the weighted cubic of z (ints or MultiPoly).

    Its determinant -(A^2 + BC) is minus the discriminant (as
    tame_determinant_identity checks), so the matrix is in PGL_2 exactly
    where the cubic has distinct roots; a cubic whose discriminant vanishes
    is refused with ValueError.
    """
    if hesse_cubic_discriminant(z) == 0:
        raise ValueError("degenerate form: discriminant vanishes")
    z0, z1, z2, z3 = z
    return (z1 * z2 - z0 * z3, 2 * (z2 ** 2 - z1 * z3),
            2 * (z0 * z2 - z1 ** 2))


def tame_determinant_identity():
    """The determinant of the generic matrix scaled by 1/sqrt(-disc), as
    exact polynomial data (u, v, den2): it equals (u + v*sqrt(-disc))/den2,
    and it is one iff u == den2 and v == 0.  The matrix has determinant
    u = -(A^2 + BC), the scaling divides it by den2 = -disc, and no odd
    power of the root is left, so v = 0."""
    z = _HESSE_VARS
    A, B, C = tame_matrix(z)
    return (-(A * A + B * C), MultiPoly.zero(),
            -hesse_cubic_discriminant(z))


def _tame_action_identity(z, w, disc):
    """Whether (Cx - A)^3 phi((Ax + B)/(Cx - A)) == -disc * psi(x), with phi
    the weighted cubic of z, psi that of its image w under y -> -y, and
    (A, B, C) from tame_matrix(z): the map then carries the roots of phi
    onto those of psi.  The arguments are all ints or all MultiPoly."""
    A, B, C = tame_matrix(z)
    psi = _CAYLEY_TRANSFORMS["y -> -y"](hesse_form(w))
    composed = [0, 0, 0, 0]
    for i, c in enumerate(hesse_form(z)):
        # c * (Ax + B)^(3-i) * (Cx - A)^i
        term = [c]
        for factor in [[A, B]] * (3 - i) + [[C, -A]] * i:
            term = form_product(term, factor)
        composed = [s + t for s, t in zip(composed, term)]
    return all(s == -disc * t for s, t in zip(composed, psi))


def tame_action_check(trials=20, rng=None):
    """The fractional-linear map carries the roots of a cubic onto the
    roots of its involution image, as an exact polynomial identity.

    The identity is checked once in the polynomial ring and then by exact
    integer evaluation at sampled cubics with non-zero discriminant and
    leading coefficients; a failing sample is the witness.  The image
    realized by the map is the Jacobian variant, which is the
    derivative-potential image composed with y -> -y; cayley_comparison
    certifies that relation symbolically.
    """
    rng = rng or random.Random(7)
    e = _HESSE_VARS
    symbolic_ok = _tame_action_identity(e, eisenstein(e),
                                        hesse_cubic_discriminant(e))
    done = 0
    attempts = 0
    while done < trials:
        attempts += 1
        if attempts > 200 * trials:
            raise RuntimeError("could not draw enough nondegenerate samples")
        z = tuple(rng.randint(-9, 9) for _ in range(4))
        dz = hesse_cubic_discriminant(z)
        if dz == 0:
            continue
        w = eisenstein(z)
        # A^2 + BC = dz != 0, so the map sends a root of phi at A/C to
        # infinity and the identity makes w[0] zero: skipping w[0] == 0 also
        # keeps the denominator Cx - A off every root of phi
        if z[0] == 0 or w[0] == 0:
            continue
        if not _tame_action_identity(z, w, dz):
            return {"pass": False, "trials": done + 1, "witness": list(z)}
        done += 1
    return {"pass": symbolic_ok, "trials": trials, "witness": None}


# ---------------------------------------------------------------------------
# gallery checks
# ---------------------------------------------------------------------------
#
# Each check takes (trials, rng, symbolic) and returns its report in the
# order the CLI emits it: mode, trials, pass, the witness if there is one,
# then any extra fields.


def _report(ok, mode, trials, witness=None, **extra):
    out = {"mode": mode, "trials": trials, "pass": ok}
    if witness is not None:
        out["witness"] = witness
    out.update(extra)
    return out


def _verify_eisenstein(trials, rng, symbolic):
    e = tuple(MultiPoly.var("z%d" % i) for i in range(4))
    w = eisenstein(e)
    ww = eisenstein(w)
    disc = hesse_cubic_discriminant(e)
    invol = all(ww[i] == disc ** 2 * e[i] for i in range(4))
    disc_cubed = hesse_cubic_discriminant(w) == disc ** 3
    return _report(invol and disc_cubed, "symbolic", 0)


def _verify_cayley(trials, rng, symbolic):
    try:
        rel = cayley_comparison()
    except ArithmeticError:
        return _report(False, "symbolic", 0,
                       {"transforms_tried": list(_CAYLEY_TRANSFORMS)})
    return _report(True, "symbolic", 0, transform=rel["transform"],
                   scalar="%d/%d" % (rel["numerator"], rel["denominator"]))


def _verify_tame(trials, rng, symbolic):
    u, v, den2 = tame_determinant_identity()
    det_ok = v.is_zero() and u == den2
    action = tame_action_check(trials=trials, rng=rng)
    return _report(det_ok and action["pass"], "symbolic+numeric", trials,
                   action["witness"])


def _draw_scaled(rng, n, top, den):
    """n distinct points num/d with -top <= num <= top and 1 <= d <= den,
    redrawn until distinct: their (num, d) pairs, and the ints they become
    times the lcm of the d (distinct exactly when the points are)."""
    scaled = ()
    while len(set(scaled)) != n:
        fracs = [(rng.randint(-top, top), rng.randint(1, den))
                 for _ in range(n)]
        lcm = math.lcm(*(d for _, d in fracs))
        scaled = [num * (lcm // d) for num, d in fracs]
    return fracs, scaled


def _fraction_witness(fracs):
    """The drawn points num/d in lowest terms, as strings."""
    from fractions import Fraction  # only a failing check formats these

    return [str(Fraction(*p)) for p in fracs]


def _verify_ferrari(trials, rng, symbolic):
    f1, f2, f3 = ferrari_symbolic()
    q = [MultiPoly.var("q%d" % i) for i in range(1, 5)]
    factors_ok = (
        f1 - f2 == 4 * (q[0] - q[1]) * (q[3] - q[2])
        and f1 - f3 == 4 * (q[0] - q[2]) * (q[3] - q[1])
        and f2 - f3 == 4 * (q[1] - q[2]) * (q[3] - q[0])
    )
    # times the lcm L of their denominators the points are ints, and the
    # resolvent of those is 4 L^2 times theirs: a common factor, which keeps
    # the comparison of the sets
    for _ in range(trials):
        fracs, scaled = _draw_scaled(rng, 4, 50, 9)
        base = set(_resolvent_times_4(*scaled))
        for sigma in itertools.permutations(scaled):
            if set(_resolvent_times_4(*sigma)) != base:
                return _report(False, "symbolic+sampled", trials,
                               _fraction_witness(fracs))
    return _report(factors_ok, "symbolic+sampled", trials)


def _verify_feler6(trials, rng, symbolic):
    lhs, rhs = feler_sextic_identity()
    res, rem, power = feler_sextic_resultant()
    res_ok = rem.is_constant() and rem.constant_value() != 0 and power > 0
    return _report(lhs == rhs and res_ok, "symbolic", 0,
                   resultant_power=power)


def _verify_feler9(trials, rng, symbolic):
    if symbolic:
        rep = feler_nine_symbolic()
        return _report(rep["pass"], "symbolic", rep.get("points", 0),
                       None if rep["pass"] else rep["witness"])
    rep = feler_nine_sampled(trials=trials, rng=rng)
    return _report(rep["pass"], "sampled", rep["trials"], rep["witness"])


def _verify_covering(trials, rng, symbolic):
    for n in (3, 4):
        d = discriminant_monic(n)
        zeta = MultiPoly.var("t")
        scaled = d.substitute({
            "w%d" % i: MultiPoly.var("w%d" % i) * zeta ** i
            for i in range(1, n + 1)})
        if scaled != zeta ** (n * (n - 1)) * d:
            return _report(False, "symbolic+sampled", trials, {"n": n})
    # the law D(D(P)^m P) = D(P)^(m n(n-1) + 1) is checked at the drawn
    # points times the lcm of their denominators, as ints: the covering map
    # is defined on every configuration, so the scaled one is a sample as
    # good as the drawn one
    for _ in range(trials):
        n = rng.choice((2, 3, 4, 5))
        m = rng.randint(0, 2)
        fracs, scaled = _draw_scaled(rng, n, 20, 7)
        d_in = discriminant_value(scaled)
        d_out = discriminant_value([d_in ** m * p for p in scaled])
        if d_out != d_in ** (m * n * (n - 1) + 1):
            return _report(False, "symbolic+sampled", trials,
                           _fraction_witness(fracs))
    return _report(True, "symbolic+sampled", trials)


def _verify_model(trials, rng, symbolic):
    zeta = MultiPoly.var("c")
    for m in (3, 4):
        for r in (1, 2):
            terms = discriminant_of(model_map("A", m, r, zeta)).sorted_terms()
            if len(terms) != 1:
                return _report(False, "symbolic", 0, {"m": m, "r": r})
            mono, coeff = terms[0]
            if dict(mono).get("c", 0) != r * (m - 1) or coeff == 0:
                return _report(False, "symbolic", 0, {"m": m, "r": r})
    b0 = model_map("B", 4, 0, zeta)
    ok = b0 == [MultiPoly.one(), MultiPoly.zero(), MultiPoly.zero(),
                -MultiPoly.one(), MultiPoly.zero()]
    return _report(ok, "symbolic", 0)


GALLERY_CHECKS = {
    "eisenstein": _verify_eisenstein,
    "cayley": _verify_cayley,
    "tame-eisenstein": _verify_tame,
    "ferrari": _verify_ferrari,
    "feler6": _verify_feler6,
    "feler9": _verify_feler9,
    "covering": _verify_covering,
    "model": _verify_model,
}

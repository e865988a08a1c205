"""Exact sparse multivariate polynomial arithmetic over the integers.

A MultiPoly is immutable and hashable, so values can be shared freely.
Coefficients are Python ints; rationals (``Fraction``) enter only at
evaluation points, never inside ring arithmetic.  A binary form is a plain
list of its coefficients, leading x first: [c_0, ..., c_n] is
sum c_i x^(n-i) y^i, with ints or MultiPoly as coefficients.
"""

from __future__ import annotations

from functools import lru_cache
from heapq import heapify, heappop, heappush

# A monomial is a tuple of (variable, exponent) pairs, sorted by variable
# name, with all exponents > 0.  The empty tuple is the constant monomial.


def _mono_mul(m1, m2):
    d = dict(m1)
    for v, e in m2:
        d[v] = d.get(v, 0) + e
    return tuple(sorted((v, e) for v, e in d.items() if e != 0))


def _mono_degree(m):
    return sum(e for _, e in m)


def _check_exponent(e):
    if not isinstance(e, int) or e < 0:
        raise ValueError("exponent must be a non-negative integer, got %r"
                         % (e,))
    return e


class MultiPoly:
    """Polynomial with integer coefficients in named variables.

    Internally a dict from monomial to nonzero coefficient.  The
    representation is canonical: no zero coefficients, no duplicate
    monomials, sorted exponent tuples.  Equal polynomials therefore
    compare and hash identically.
    """

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms=None):
        if terms is None:
            terms = {}
        clean = {}
        for mono, coeff in terms.items():
            key = tuple(sorted((v, e) for v, e in mono if _check_exponent(e)))
            if coeff:
                clean[key] = clean.get(key, 0) + coeff
                if clean[key] == 0:
                    del clean[key]
        self._terms = clean
        self._hash = None

    # -- constructors ----------------------------------------------------

    @classmethod
    def const(cls, c):
        value = int(c)
        if value != c:
            raise ValueError("constant %r is not an integer" % (c,))
        return cls({(): value})

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls.const(1)

    @classmethod
    def var(cls, name, exp=1):
        if _check_exponent(exp) == 0:
            return cls.one()
        return cls({((name, exp),): 1})

    # -- inspection ------------------------------------------------------

    @property
    def terms(self):
        return self._terms

    def is_zero(self):
        return not self._terms

    def is_constant(self):
        return not self._terms or (len(self._terms) == 1 and () in self._terms)

    def constant_value(self):
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        return self._terms.get((), 0)

    def variables(self):
        vs = set()
        for mono in self._terms:
            for v, _ in mono:
                vs.add(v)
        return sorted(vs)

    def is_homogeneous(self, degree=None):
        if not self._terms:
            return True
        degs = {_mono_degree(m) for m in self._terms}
        if len(degs) > 1:
            return False
        return degree is None or degs == {degree}

    def sorted_terms(self):
        """Terms in canonical graded-lexicographic order (leading first).

        Grading is by total degree; ties are broken lexicographically on
        the exponent vector taken over the sorted variable names.
        """
        all_vars = self.variables()

        def key(item):
            mono, _ = item
            d = dict(mono)
            return (_mono_degree(mono), tuple(d.get(v, 0) for v in all_vars))

        return sorted(self._terms.items(), key=key, reverse=True)

    # -- ring operations -------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, MultiPoly):
            return other
        if isinstance(other, int):
            return MultiPoly.const(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self._terms)
        for mono, c in other._terms.items():
            s = out.get(mono, 0) + c
            if s:
                out[mono] = s
            elif mono in out:
                del out[mono]
        res = MultiPoly.__new__(MultiPoly)
        res._terms = out
        res._hash = None
        return res

    __radd__ = __add__

    def __neg__(self):
        res = MultiPoly.__new__(MultiPoly)
        res._terms = {m: -c for m, c in self._terms.items()}
        res._hash = None
        return res

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self._terms or not other._terms:
            return MultiPoly.zero()
        out = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                m = _mono_mul(m1, m2)
                s = out.get(m, 0) + c1 * c2
                if s:
                    out[m] = s
                elif m in out:
                    del out[m]
        res = MultiPoly.__new__(MultiPoly)
        res._terms = out
        res._hash = None
        return res

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = MultiPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, int):
            other = MultiPoly.const(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        # a constant hashes as its value, since it compares equal to it
        if self._hash is None:
            if self.is_constant():
                self._hash = hash(self.constant_value())
            else:
                self._hash = hash(frozenset(self._terms.items()))
        return self._hash

    def __bool__(self):
        return bool(self._terms)

    # -- scaling, substitution and evaluation ------------------------------

    def scalar_divide(self, k):
        """Divide every coefficient by the integer k; must be exact."""
        out = {}
        for mono, c in self._terms.items():
            q, r = divmod(c, k)
            if r:
                raise ValueError("coefficient %d not divisible by %d" % (c, k))
            out[mono] = q
        return MultiPoly(out)

    def substitute(self, mapping):
        """Substitute polynomials for variables; unmapped variables stay."""
        result = MultiPoly.zero()
        for mono, c in self._terms.items():
            term = MultiPoly.const(c)
            for v, e in mono:
                repl = mapping.get(v)
                if repl is None:
                    term = term * MultiPoly.var(v, e)
                else:
                    if isinstance(repl, int):
                        repl = MultiPoly.const(repl)
                    term = term * repl ** e
            result = result + term
        return result

    def evaluate(self, assignment):
        """Evaluate at a point with exact rational coordinates.

        Every variable of the polynomial must be assigned; a missing one
        raises a ValueError naming the variable.
        """
        from fractions import Fraction  # no verb evaluates; loaded on use

        total = Fraction(0)
        for mono, c in self._terms.items():
            val = Fraction(c)
            for v, e in mono:
                if v not in assignment:
                    raise ValueError("unassigned variable: %s" % v)
                val *= Fraction(assignment[v]) ** e
            total += val
        return total

    # -- exact division ----------------------------------------------------

    def exact_divide(self, divisor):
        """Exact polynomial division; raises ValueError if not exact."""
        if isinstance(divisor, int):
            return self.scalar_divide(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if divisor.is_constant():
            return self.scalar_divide(divisor.constant_value())
        packing = _Packing(
            sorted(set(self.variables()) | set(divisor.variables())),
            max(_degree(self), _degree(divisor)))
        return packing.unpack(_divide_packed(
            packing.pack(self), packing.pack(divisor), packing.guard))

    # -- serialization ------------------------------------------------------

    def to_json_terms(self):
        """Canonically ordered [coefficient-string, {var: exp}] pairs."""
        return [[str(c), {v: e for v, e in mono}] for mono, c in self.sorted_terms()]

    def __repr__(self):
        if not self._terms:
            return "0"
        parts = []
        for mono, c in self.sorted_terms():
            factors = "*".join(
                v if e == 1 else "%s^%d" % (v, e) for v, e in mono
            )
            if factors:
                parts.append("%d*%s" % (c, factors) if abs(c) != 1 else
                             ("-" + factors if c == -1 else factors))
            else:
                parts.append(str(c))
        return " + ".join(parts).replace("+ -", "- ")


def _degree(p):
    """Total degree of a MultiPoly or int (0 for constants and zero)."""
    if isinstance(p, int):
        return 0
    return max((_mono_degree(m) for m in p.terms), default=0)


# ---------------------------------------------------------------------------
# packed monomials
# ---------------------------------------------------------------------------


class _Packing:
    """Monomials over a fixed sorted variable list, each packed in one int.

    The fields are (total degree, e_v1, ..., e_vk), most significant first,
    each ``width`` bits with a guard bit above that stays clear.  Comparing
    two packed ints is then the graded-lex order of ``sorted_terms``,
    multiplying monomials is adding ints (while every degree stays within
    the bound the width was chosen for), and m is divisible by d exactly
    when ``((m | guard) - d) & guard == guard``: a field of m below that of
    d borrows its guard bit.
    """

    __slots__ = ("width", "shifts", "top", "guard")

    def __init__(self, names, degree_bound):
        self.width = max(degree_bound, 1).bit_length()
        step = self.width + 1
        k = len(names)
        self.shifts = {v: (k - 1 - i) * step for i, v in enumerate(names)}
        self.top = k * step
        self.guard = sum(1 << (i * step + self.width) for i in range(k + 1))

    def pack(self, p):
        """{packed monomial: coefficient} for a MultiPoly or an int."""
        if isinstance(p, int):
            return {0: p} if p else {}
        shifts, top = self.shifts, self.top
        out = {}
        for mono, c in p.terms.items():
            packed = degree = 0
            for v, e in mono:
                packed |= e << shifts[v]
                degree += e
            out[packed | degree << top] = c
        return out

    def unpack(self, packed):
        mask = (1 << self.width) - 1
        fields = sorted(self.shifts.items())
        terms = {}
        for m, c in packed.items():
            terms[tuple((v, m >> s & mask) for v, s in fields
                        if m >> s & mask)] = c
        res = MultiPoly.__new__(MultiPoly)
        res._terms = terms
        res._hash = None
        return res


def _divide_packed(num, den, guard):
    """Exact quotient of packed polynomials; ValueError if not exact.

    The remainder is a dict plus a max-heap of its monomials (negated for
    heapq).  A monomial whose coefficient cancels stays in the heap and is
    skipped when popped.  Every monomial a step adds lies below the one it
    popped (the order is a monomial order), so the heap top is always the
    leading term of the remainder and nothing is ever sorted.
    """
    lead = max(den)
    lead_c = den[lead]
    tail = [(m, c) for m, c in den.items() if m != lead]
    rem = dict(num)
    heap = [-m for m in rem]
    heapify(heap)
    quo = {}
    while heap:
        m = -heappop(heap)
        c = rem.pop(m, 0)
        if not c:
            continue
        if ((m | guard) - lead) & guard != guard:
            raise ValueError("inexact polynomial division")
        q, r = divmod(c, lead_c)
        if r:
            raise ValueError("inexact polynomial division")
        m -= lead
        quo[m] = q
        for dm, dc in tail:
            t = m + dm
            s = rem.get(t, 0) - q * dc
            if s:
                if t not in rem:
                    heappush(heap, -t)
                rem[t] = s
            else:
                del rem[t]
    return quo


def _mul_sub(a, b, c, d):
    """a*b - c*d on packed polynomials."""
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = ma + mb
            out[m] = out.get(m, 0) + ca * cb
    for mc, cc in c.items():
        for md, cd in d.items():
            m = mc + md
            out[m] = out.get(m, 0) - cc * cd
    return {m: v for m, v in out.items() if v}


# ---------------------------------------------------------------------------
# determinants
# ---------------------------------------------------------------------------


def _is_zero(a):
    return a == 0 if isinstance(a, int) else a.is_zero()


def bareiss_det(matrix):
    """Fraction-free determinant of a square matrix.

    Entries may be ints or MultiPoly values (mixed is fine).  Uses the
    one-step Bareiss recurrence with row pivoting; every division is
    exact, so no fractions ever appear.  With any MultiPoly entry the
    recurrence runs on packed polynomials: every intermediate entry is a
    minor, of degree at most the sum S of the row degrees, so each
    numerator has degree at most 2S and fields that wide never overflow.
    """
    m = [list(row) for row in matrix]
    size = len(m)
    for row in m:
        if len(row) != size:
            raise ValueError("matrix is not square")
    if size == 0:
        return 1
    if not any(isinstance(x, MultiPoly) for row in m for x in row):
        sign, det = _bareiss(m, _int_step)
        return -det if sign < 0 else det
    names = sorted({v for row in m for x in row if isinstance(x, MultiPoly)
                    for v in x.variables()})
    packing = _Packing(names, 2 * sum(max(map(_degree, row)) for row in m))
    guard = packing.guard

    def packed_step(pivot, aij, aik, akj, prev):
        num = _mul_sub(pivot, aij, aik, akj)
        return num if prev is None else _divide_packed(num, prev, guard)

    sign, det = _bareiss([[packing.pack(x) for x in row] for row in m],
                         packed_step)
    det = packing.unpack(det)
    return -det if sign < 0 else det


def _int_step(pivot, aij, aik, akj, prev):
    num = pivot * aij - aik * akj
    if prev is None:
        return num
    q, r = divmod(num, prev)
    if r:
        raise ValueError("inexact integer division in elimination")
    return q


def _bareiss(a, step):
    """Run the recurrence in place on a square matrix of ints or packed
    polynomials (zero is falsy in both); returns the sign of the row
    swaps and the last pivot, which is zero if a column has none."""
    size = len(a)
    sign = 1
    prev = None
    for k in range(size - 1):
        if not a[k][k]:
            pivot_row = None
            for i in range(k + 1, size):
                if a[i][k]:
                    pivot_row = i
                    break
            if pivot_row is None:
                return 1, a[k][k]
            a[k], a[pivot_row] = a[pivot_row], a[k]
            sign = -sign
        top = a[k]
        for i in range(k + 1, size):
            row = a[i]
            for j in range(k + 1, size):
                row[j] = step(top[k], row[j], row[k], top[j], prev)
        prev = top[k]
    return sign, a[size - 1][size - 1]


# ---------------------------------------------------------------------------
# binary forms, resultants, discriminants
# ---------------------------------------------------------------------------


def form_product(f, g):
    """Product of two binary forms (coefficient lists, leading x first)."""
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = out[i + j] + a * b
    return out


def form_partial(f, var):
    """Partial derivative of a binary form in "x" or "y".

    Read at (x, y) = (1, t), the result lists the coefficients of f_x(1, t)
    or f_y(1, t) by ascending power of t.
    """
    n = len(f) - 1
    if var == "x":
        return [c * (n - i) for i, c in enumerate(f[:-1])]
    if var == "y":
        return [c * i for i, c in enumerate(f) if i]
    raise ValueError("var must be 'x' or 'y', got %r" % (var,))


def sylvester_matrix(f, g):
    """Sylvester matrix of two coefficient sequences (leading first)."""
    f = list(f)
    g = list(g)
    n = len(f) - 1
    m = len(g) - 1
    if n < 0 or m < 0:
        raise ValueError("empty coefficient sequence")
    size = n + m
    mat = [[0] * size for _ in range(size)]
    for r in range(m):
        for j, c in enumerate(f):
            mat[r][r + j] = c
    for r in range(n):
        for j, c in enumerate(g):
            mat[m + r][r + j] = c
    return mat


def resultant(f, g):
    """Sylvester resultant of two binary forms (coefficient sequences,
    leading first).

    Zero iff the inputs share a projective root over the closure.
    """
    fc, gc = list(f), list(g)
    if all(_is_zero(c) for c in fc) or all(_is_zero(c) for c in gc):
        raise ValueError("resultant of the zero polynomial is undefined")
    if len(fc) < 2 or len(gc) < 2:
        raise ValueError("resultant needs degrees >= 1")
    return bareiss_det(sylvester_matrix(fc, gc))


def discriminant_of(coeffs):
    """Discriminant of the binary form with the given coefficients.

    For f = sum c_i x^(n-i) y^i, take u(t) = f_x(1, t) and v(t) = f_y(1, t).
    Their Bezout matrix, (s - t) sum B_ij s^i t^j = u(s) v(t) - u(t) v(s),
    is (n-1)x(n-1) with entries bilinear in the coefficients, and
    det B = Res(f_x, f_y) = n^(n-2) times the standard discriminant
    (Gelfand-Kapranov-Zelevinsky, ch. 12).  Every step is homogeneous, so
    the result has degree 2(n-1) and stays exact where the leading
    coefficient vanishes.  The sign is (-1)^(n(n-1)/2) times the standard
    one, that of the Sylvester determinant of f and f' with the leading
    coefficient factored out: for t^2 + w1*t + w2 this yields 4*w2 - w1^2.
    The result is an int when every coefficient is an int, otherwise a
    MultiPoly.
    """
    coeffs = list(coeffs)
    n = len(coeffs) - 1
    if n < 1:
        raise ValueError("degree must be at least 1")
    if n == 1:
        ints = all(isinstance(c, int) for c in coeffs)
        return 1 if ints else MultiPoly.one()
    # coefficients of u and v, by ascending power of t
    u, v = form_partial(coeffs, "x"), form_partial(coeffs, "y")
    size = n - 1
    bez = [[0] * size for _ in range(size)]
    for i in reversed(range(size)):
        for j in range(size):
            # B_ij = [i + 1, j] + B_(i+1)(j-1), with [a, b] = u_a v_b - u_b v_a
            entry = u[i + 1] * v[j] - u[j] * v[i + 1]
            if i + 1 < size and j:
                entry = entry + bez[i + 1][j - 1]
            bez[i][j] = entry
    det = bareiss_det(bez)
    scale = n ** (n - 2)
    if isinstance(det, MultiPoly):
        det = det.scalar_divide(scale)
    else:
        det, r = divmod(det, scale)
        if r:
            raise ValueError("Bezout determinant not divisible by %d" % scale)
    return -det if n * (n - 1) // 2 % 2 else det


@lru_cache(maxsize=None)
def discriminant_projective(n):
    """Discriminant of the generic degree-n binary form, in z_0..z_n.

    Homogeneous of degree 2(n-1).  Supported for n >= 2.
    """
    if n < 2:
        raise ValueError("unsupported degree: n must be >= 2")
    zs = [MultiPoly.var("z%d" % i) for i in range(n + 1)]
    return discriminant_of(zs)


@lru_cache(maxsize=None)
def discriminant_monic(n):
    """Discriminant of t^n + w_1 t^(n-1) + ... + w_n, in w_1..w_n."""
    if n < 2:
        raise ValueError("unsupported degree: n must be >= 2")
    ws = [MultiPoly.one()] + [MultiPoly.var("w%d" % i) for i in range(1, n + 1)]
    return discriminant_of(ws)


# ---------------------------------------------------------------------------
# integer binary cubics
# ---------------------------------------------------------------------------


def cubic_discriminant(f):
    """Standard discriminant of the binary cubic f = [a, b, c, d].

    Closed form at formal degree 3, a = 0 included; it is
    -discriminant_of(f), since the determinant convention carries
    (-1)^(n(n-1)/2).
    """
    a, b, c, d = f
    return (b * b * c * c - 4 * a * c ** 3 - 4 * b ** 3 * d
            - 27 * a * a * d * d + 18 * a * b * c * d)


def cubic_resultant(f, g):
    """Sylvester resultant of two binary cubics, leading coefficient first.

    Minus the 3x3 Bezout determinant in the brackets [ij] = f_i g_j - f_j g_i;
    equal to bareiss_det(sylvester_matrix(f, g)) at formal degree 3, also
    where a leading coefficient vanishes.
    """
    a0, a1, a2, a3 = f
    b0, b1, b2, b3 = g
    p01, p02, p03 = a0 * b1 - a1 * b0, a0 * b2 - a2 * b0, a0 * b3 - a3 * b0
    p12, p13, p23 = a1 * b2 - a2 * b1, a1 * b3 - a3 * b1, a2 * b3 - a3 * b2
    mid = p03 + p12
    return -(p01 * (mid * p23 - p13 * p13) - p02 * (p02 * p23 - p13 * p03)
             + p03 * (p02 * p13 - mid * p03))

"""Simple and cross ratios of marked points and their divisibility complexes.

Vertices are the rational functions (q_k-q_i)/(q_k-q_j) on three marks and
(q_l-q_i)(q_j-q_k)/((q_l-q_j)(q_i-q_k)) on four marks; a vertex divides
another when their quotient is again such a function.  Pairwise divisors
span simplices, each the sorted tuple of its vertices; the complexes here
are the flag complexes of that relation, together with the symmetric-group
action and orbit normal forms.  The three-term identities among these
functions are searched for in ``confspace.identities``.

A subtlety the pure-family complexes depend on: two simple ratios sharing
both base marks but not the top mark (sr_ijk and sr_ijl) have a cross ratio
as quotient.  Such pairs are divisible in the full catalogue sense (family
"l" keeps them, and divides_oracle/divides_rule report them), but they are
not edges of the pure "sr" complex, whose simplices all share a numerator
or a denominator.  The "cr" complex is identical under both readings.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from . import _Value

SR = "sr"
CR = "cr"
FAMILIES = (SR, CR, "l")


def klein_canonical(indices):
    """Lexicographically smallest tuple in the 4-element stabilizer orbit."""
    i, j, k, l = indices
    return min([(i, j, k, l), (j, i, l, k), (k, l, i, j), (l, k, j, i)])


class RatioVertex(_Value):
    """A simple (``kind`` "sr", three marks) or cross (``kind`` "cr", four
    Klein-canonical marks) ratio; vertices compare as (kind, indices)."""

    __slots__ = ("kind", "indices")

    def __init__(self, kind, indices):
        if kind not in (SR, CR):
            raise ValueError("kind must be 'sr' or 'cr'")
        want = 3 if kind == SR else 4
        if len(indices) != want:
            raise ValueError("%s vertex needs %d indices" % (kind, want))
        if len(set(indices)) != want:
            raise ValueError("indices must be pairwise distinct")
        if any(i < 1 for i in indices):
            raise ValueError("indices must be positive")
        if kind == CR and klein_canonical(indices) != indices:
            raise ValueError("cross-ratio indices must be Klein-canonical")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "indices", indices)

    def __lt__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.kind, self.indices) < (other.kind, other.indices)

    def __le__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.kind, self.indices) <= (other.kind, other.indices)

    def __gt__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.kind, self.indices) > (other.kind, other.indices)

    def __ge__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.kind, self.indices) >= (other.kind, other.indices)

    @property
    def support(self):
        return frozenset(self.indices)


def sr_vertex(i, j, k):
    return RatioVertex(SR, (i, j, k))


def cr_vertex(i, j, k, l):
    return RatioVertex(CR, klein_canonical((i, j, k, l)))


class DiffProduct(_Value):
    """A signed product of powers of mark differences.

    Represents scalar * prod (q_a - q_b)^e over ordered pairs a < b; the
    reorientation q_b - q_a = -(q_a - q_b) is folded into the scalar.
    ``powers`` is the sorted tuple of ((a, b), e) with a < b and e != 0.
    """

    __slots__ = ("scalar", "powers")

    def __init__(self, scalar, powers):
        if scalar not in (1, -1):
            raise ValueError("scalar must be +1 or -1")
        object.__setattr__(self, "scalar", scalar)
        object.__setattr__(self, "powers", powers)

    @classmethod
    def from_factors(cls, factors):
        """Build from oriented factors ((top, bottom), exponent)."""
        sign = 1
        powers = {}
        for (a, b), e in factors:
            if a == b:
                raise ValueError("degenerate difference")
            if a > b:
                a, b = b, a
                if e % 2:
                    sign = -sign
            powers[(a, b)] = powers.get((a, b), 0) + e
        cleaned = tuple(sorted((p, e) for p, e in powers.items() if e != 0))
        return cls(sign, cleaned)

    def __mul__(self, other):
        merged = {}
        for p, e in self.powers:
            merged[p] = merged.get(p, 0) + e
        for p, e in other.powers:
            merged[p] = merged.get(p, 0) + e
        cleaned = tuple(sorted((p, e) for p, e in merged.items() if e != 0))
        return DiffProduct(self.scalar * other.scalar, cleaned)

    def inverse(self):
        return DiffProduct(self.scalar,
                           tuple((p, -e) for p, e in self.powers))

    def divide(self, other):
        return self * other.inverse()


def as_diff_product(v):
    """Exact signed exponent-vector form of a vertex; injective."""
    if v.kind == SR:
        i, j, k = v.indices
        factors = [((k, i), 1), ((k, j), -1)]
    else:
        i, j, k, l = v.indices
        factors = [((l, i), 1), ((j, k), 1), ((l, j), -1), ((i, k), -1)]
    return DiffProduct.from_factors(factors)


def _vertex_from_diff_product(dp):
    """The catalogue vertex equal to dp, or None."""
    powers = dict(dp.powers)
    if len(powers) == 2:
        plus = [p for p, e in powers.items() if e == 1]
        minus = [p for p, e in powers.items() if e == -1]
        if len(plus) != 1 or len(minus) != 1:
            return None
        common = set(plus[0]) & set(minus[0])
        if len(common) != 1:
            return None
        k = common.pop()
        i = next(x for x in plus[0] if x != k)
        j = next(x for x in minus[0] if x != k)
        cand = sr_vertex(i, j, k)
        return cand if as_diff_product(cand) == dp else None
    if len(powers) == 4:
        plus = [p for p, e in powers.items() if e == 1]
        minus = [p for p, e in powers.items() if e == -1]
        if len(plus) != 2 or len(minus) != 2:
            return None
        for pair in plus:
            for i, l in (pair, pair[::-1]):
                mk = [p for p in minus if i in p]
                ml = [p for p in minus if l in p]
                if len(mk) != 1 or len(ml) != 1:
                    continue
                k = next(x for x in mk[0] if x != i)
                j = next(x for x in ml[0] if x != l)
                if len({i, j, k, l}) != 4:
                    continue
                cand = cr_vertex(i, j, k, l)
                if as_diff_product(cand) == dp:
                    return cand
        return None
    return None


def divides_oracle(nu, mu):
    """True iff mu/nu is again a catalogue function (exact, signed)."""
    if nu == mu:
        raise ValueError("divisibility is defined on distinct vertices")
    q = as_diff_product(mu).divide(as_diff_product(nu))
    return _vertex_from_diff_product(q) is not None


def _cr_slot4_frame(t, odd):
    """Klein representative of tuple t with index ``odd`` in slot 4."""
    i, j, k, l = t
    for rep in ((i, j, k, l), (j, i, l, k), (k, l, i, j), (l, k, j, i)):
        if rep[3] == odd:
            return rep[:3]
    raise ValueError("index not in tuple")


def divides_rule(nu, mu):
    """Index-replacement divisibility criterion; equals divides_oracle.

    Simple/simple pairs divide when they share the top mark and exactly
    one base mark (simple-ratio quotient) or share both base marks with
    different top marks (cross-ratio quotient).  Cross/cross pairs divide
    when one is obtained from the other by replacing a single index, i.e.
    the supports overlap in 3 marks and the aligned frames agree.  A
    mixed pair divides exactly when the simple ratio is one of the four
    two-factor divisors of the cross ratio.
    """
    if nu == mu:
        raise ValueError("divisibility is defined on distinct vertices")
    if nu.kind == SR and mu.kind == SR:
        i1, j1, k1 = nu.indices
        i2, j2, k2 = mu.indices
        if k1 == k2:
            return (i1 == i2) != (j1 == j2)
        return i1 == i2 and j1 == j2
    if nu.kind == CR and mu.kind == CR:
        a, b = nu.indices, mu.indices
        # x: the one mark of nu outside mu (marks are positive, so 0 is
        # none yet); a second one, or none, leaves no 3-mark overlap
        x = 0
        for m in a:
            if m not in b:
                if x:
                    return False
                x = m
        if not x:
            return False
        y = next(m for m in b if m not in a)
        return _cr_slot4_frame(a, x) == _cr_slot4_frame(b, y)
    sr, cr = (nu, mu) if nu.kind == SR else (mu, nu)
    a, b, c, d = cr.indices
    return sr.indices in ((a, b, d), (b, a, c), (d, c, a), (c, d, b))


# ---------------------------------------------------------------------------
# complexes
# ---------------------------------------------------------------------------


def _shared_top_divides(nu, mu):
    """Divisibility inside the pure "sr" complex: simple ratios on one top
    mark (divides_rule alone also accepts a cross-ratio quotient)."""
    return nu.indices[2] == mu.indices[2] and divides_rule(nu, mu)


def _check_pairwise(vertices, divides=divides_rule):
    for a, b in itertools.combinations(vertices, 2):
        if not divides(a, b):
            raise ValueError("vertices %r and %r do not divide" % (a, b))


def make_simplex(vertices):
    """The simplex on ``vertices``: their sorted tuple, checked to be
    non-empty, without repeats and pairwise dividing (by divides_rule)."""
    s = tuple(sorted(vertices))
    if not s:
        raise ValueError("simplex must be non-empty")
    if len(set(s)) != len(s):
        raise ValueError("vertices must be distinct")
    _check_pairwise(s)
    return s


def catalogue(n, family):
    """All vertices of the given family supported on marks 1..n."""
    vs = []
    if family in (SR, "l"):
        for t in itertools.permutations(range(1, n + 1), 3):
            vs.append(RatioVertex(SR, t))
    if family in (CR, "l"):
        seen = set()
        for t in itertools.permutations(range(1, n + 1), 4):
            c = klein_canonical(t)
            if c not in seen:
                seen.add(c)
                vs.append(RatioVertex(CR, c))
    return sorted(vs)


def _top_keys(n, family):
    """The maximal simplices of a complex, each a tuple of the index tuples
    of its vertices (see RatioComplex)."""
    if family == SR:
        marks = range(1, n + 1)
        for a, k in itertools.permutations(marks, 2):
            rest = [x for x in marks if x not in (a, k)]
            yield tuple((a, x, k) for x in rest)
            yield tuple((x, a, k) for x in rest)
        return
    # cr(n), or for "l" cr(n + 1) with q_inf sent to infinity:
    # cr(i, j, inf, k) becomes sr(i, j, k)
    inf = n + 1 if family == "l" else None
    marks = range(1, (inf or n) + 1)
    for f in itertools.permutations(marks, 3):
        top = []
        for x in marks:
            if x in f:
                continue
            t = f + (x,)
            if inf in t:
                j, i, k = _cr_slot4_frame(t, inf)
                top.append((i, j, k))
            else:
                top.append(klein_canonical(t))
        yield tuple(top)


class RatioComplex:
    """Divisibility complex on a ratio catalogue, built from its top simplices.

    ``family`` selects the vertex set ("sr", "cr" or "l").  Pure-family
    complexes use family-internal divisibility; the full complex "l" uses
    the catalogue relation.  Each is the flag complex of its relation, and
    every simplex of dimension >= 1 lies in exactly one maximal simplex, so
    two maximal simplices share at most one vertex (what ``betti_numbers``
    relies on).  The maximal simplices are listed directly: frames for
    "cr", stars on a common (top, numerator) or (top, denominator) for
    "sr", and for "l" the frames of cr(n+1) with mark n+1 sent to infinity,
    each vertex as its index tuple (``_top_keys``), with no vertex object
    made per frame slot.
    ``maximal_simplices`` holds them as sorted tuples of indices into
    ``vertices``; every vertex pair in them is checked when the complex is
    built, with divides_rule and, for "sr", a shared top mark.
    Every list is sorted.
    """

    def __init__(self, n, family):
        if family not in FAMILIES:
            raise ValueError("family must be one of %r" % (FAMILIES,))
        minimum = 4 if family == CR else 3
        if n < minimum:
            raise ValueError("family %r needs n >= %d" % (family, minimum))
        self.n = n
        self.family = family
        self.vertices = vs = catalogue(n, family)
        # an sr vertex has 3 indices and a cr vertex 4, so the index tuple
        # alone names a vertex
        index = {v.indices: i for i, v in enumerate(vs)}
        self.maximal_simplices = sorted({
            tuple(sorted(index[key] for key in top))
            for top in _top_keys(n, family)})
        divides = _shared_top_divides if family == SR else divides_rule
        for t in self.maximal_simplices:
            _check_pairwise((vs[i] for i in t), divides)
        self._by_dim = None
        self.divisibility_edges = self._faces(2)

    def _faces(self, size):
        """The sorted union of the ``size``-subsets of the top simplices."""
        return sorted({f for t in self.maximal_simplices
                       for f in itertools.combinations(t, size)})

    def all_simplices_by_dim(self):
        """Every simplex, grouped by dimension, indices sorted."""
        if self._by_dim is None:
            top = max(len(t) for t in self.maximal_simplices)
            self._by_dim = [self._faces(k + 1) for k in range(top)]
        return self._by_dim

    def simplex_counts(self):
        return [len(s) for s in self.all_simplices_by_dim()]

    def to_json(self):
        return {
            "n": self.n,
            "family": self.family,
            "vertices": [[v.kind, *v.indices] for v in self.vertices],
            "edges": [list(e) for e in self.divisibility_edges],
            "maximal_simplices": [list(t) for t in self.maximal_simplices],
        }


@lru_cache(maxsize=32)
def build_complex(n, family):
    """Complexes are immutable once built, so instances are shared."""
    return RatioComplex(n, family)


def complex_dimension(c):
    return max(len(t) for t in c.maximal_simplices) - 1


def euler_characteristic(c):
    chi = 0
    for k, count in enumerate(c.simplex_counts()):
        chi += count if k % 2 == 0 else -count
    return chi


def betti_numbers(c):
    """Integral homology: per dimension, (betti rank, torsion summands).

    Read off the vertex-top incidence graph by ``confspace.homology``: no
    two maximal simplices of a ratio complex share two vertices, so b0
    counts components, b1 = incidences - vertices - tops + b0, nothing lies
    above degree 1 and there is no torsion.  A complex breaking that would
    be refused with ValueError.
    """
    from . import homology

    return homology.incidence_homology(len(c.vertices), c.maximal_simplices)


def homology_report(c):
    data = betti_numbers(c)
    return {
        "betti": [b for b, _ in data],
        "torsion": [list(t) for _, t in data],
        "chi": euler_characteristic(c),
    }


# ---------------------------------------------------------------------------
# symmetric-group action, orbits, normal forms
# ---------------------------------------------------------------------------


def _apply_perm_vertex(sigma, v):
    mapped = tuple(sigma[i - 1] for i in v.indices)
    if v.kind == SR:
        return RatioVertex(SR, mapped)
    return RatioVertex(CR, klein_canonical(mapped))


def act(sigma, s):
    """Relabel a vertex, or a simplex given as its vertex tuple, by a
    permutation given as a 1-based image tuple."""
    if sorted(sigma) != list(range(1, len(sigma) + 1)):
        raise ValueError("not a permutation of 1..n")
    if isinstance(s, RatioVertex):
        return _apply_perm_vertex(sigma, s)
    return make_simplex([_apply_perm_vertex(sigma, v) for v in s])


def involution(v):
    """The vertex representing the reciprocal function."""
    if v.kind == SR:
        i, j, k = v.indices
        return RatioVertex(SR, (j, i, k))
    i, j, k, l = v.indices
    return cr_vertex(j, i, k, l)


def _complete_permutation(partial, n):
    """Extend a partial 1-based mapping to a permutation tuple of 1..n."""
    used = set(partial.values())
    free = [x for x in range(1, n + 1) if x not in used]
    out = []
    it = iter(free)
    for i in range(1, n + 1):
        out.append(partial[i] if i in partial else next(it))
    return tuple(out)


@lru_cache(maxsize=None)
def delta_s(m, sign=1):
    """The reference simple m-simplex (sign < 0 gives the reciprocal one)."""
    if sign >= 0:
        return make_simplex([sr_vertex(t, 2, 1) for t in range(3, m + 4)])
    return make_simplex([sr_vertex(2, t, 1) for t in range(3, m + 4)])


@lru_cache(maxsize=None)
def delta_c(m):
    """The reference cross m-simplex."""
    return make_simplex([cr_vertex(1, 2, 3, t) for t in range(4, m + 5)])


def normal_form(vertices, n=None):
    """Carry a pure simplex, given as its sorted vertex tuple, to its
    reference form.

    A pure simplex is a frame plus one odd mark per vertex: sr(x, j, k)
    over x has the frame (k, j), sr(i, x, k) over x the frame (k, i), and
    cr(f1, f2, f3, x) over x the frame (f1, f2, f3); a single vertex is
    read with its own frame.  sigma sends the frame to 1, 2, ... and the
    sorted odd marks to the next marks up.  Returns (sigma, canonical) with
    act(sigma, vertices) == canonical.
    Mixed input, or a set of same-family vertices that is not a simplex of
    the pure complex, is rejected with ValueError.
    """
    marks = frozenset().union(*(v.support for v in vertices))
    top = max(marks)
    if n is None:
        n = top
    if n < top:
        raise ValueError("simplex has marks beyond n = %d" % n)
    first, last = vertices[0], vertices[-1]
    m = len(vertices) - 1
    if first.kind == SR:
        i, j, k = first.indices
        if j == last.indices[1]:
            frame, canonical = (k, j), delta_s(m)
        else:
            frame, canonical = (k, i), delta_s(m, sign=-1)
    else:
        odd = min(first.support - last.support, default=first.indices[3])
        frame, canonical = _cr_slot4_frame(first.indices, odd), delta_c(m)
    order = frame + tuple(sorted(marks.difference(frame)))
    sigma = _complete_permutation(
        {x: t for t, x in enumerate(order, start=1)}, n)
    # compared as vertices: relabelling keeps divisibility, so a match is a
    # pure simplex, and the pairwise re-check of act(sigma, vertices) could
    # not fail
    moved = sorted(_apply_perm_vertex(sigma, v) for v in vertices)
    if tuple(moved) != canonical:
        raise ValueError("not a simplex of a pure complex")
    return sigma, canonical


def orbit_decomposition(n, family, m):
    """(representative vertex tuple, orbit size) for the relabeling orbits
    of m-simplices, sorted by representative.

    Faces are normalised without a divisibility check: each lies in a
    maximal simplex that was checked pairwise when the complex was built."""
    if family not in (SR, CR):
        raise ValueError("orbit decomposition is defined for pure families")
    c = build_complex(n, family)
    dim = complex_dimension(c)
    if not 0 <= m <= dim:
        raise ValueError("no simplices of dimension %d (max %d)" % (m, dim))
    vs = c.vertices
    counts = {}
    for face in c.all_simplices_by_dim()[m]:
        _, canonical = normal_form(tuple(vs[i] for i in face), n)
        counts[canonical] = counts.get(canonical, 0) + 1
    return sorted(counts.items())

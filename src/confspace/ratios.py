"""Simple and cross ratios of marked points and their divisibility complexes.

Vertices are the rational functions (q_k-q_i)/(q_k-q_j) on three marks and
(q_l-q_i)(q_j-q_k)/((q_l-q_j)(q_i-q_k)) on four marks; a vertex divides
another when their quotient is again such a function.  A vertex is its
index tuple: the simple ratio (i, j, k), or the cross ratio as its
Klein-canonical (i, j, k, l), so its arity gives its kind.  Vertices are
ordered cross ratios first, then by tuple.  Pairwise divisors
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

SR = "sr"
CR = "cr"
FAMILIES = (SR, CR, "l")


def klein_canonical(indices):
    """Lexicographically smallest tuple in the 4-element stabilizer orbit."""
    i, j, k, l = indices
    return min([(i, j, k, l), (j, i, l, k), (k, l, i, j), (l, k, j, i)])


def sr_vertex(i, j, k):
    """The simple ratio (q_k-q_i)/(q_k-q_j)."""
    return (i, j, k)


def cr_vertex(i, j, k, l):
    """The cross ratio on marks i, j, k, l, as its Klein-canonical tuple."""
    return klein_canonical((i, j, k, l))


def _order(v):
    """The vertex order: cross ratios first, then by index tuple."""
    return len(v) == 3, v


def json_vertices(vertices):
    """Each vertex as its JSON pair [kind, *marks]."""
    return [[SR if len(v) == 3 else CR, *v] for v in vertices]


def _factors(v):
    """The oriented factors (a, b, e), one per (q_a - q_b)^e, whose
    product is the vertex."""
    if len(v) == 3:
        i, j, k = v
        return [(k, i, 1), (k, j, -1)]
    i, j, k, l = v
    return [(l, i, 1), (j, k, 1), (l, j, -1), (i, k, -1)]


def _signed_pair(factors):
    """A product of oriented factors as (sign, powers): q_b - q_a with
    a < b is read as -(q_a - q_b), and ``powers`` is the sorted tuple of
    ((a, b), e) with a < b and e != 0."""
    sign, powers = 1, {}
    for a, b, e in factors:
        if a > b:
            a, b = b, a
            if e % 2:
                sign = -sign
        powers[a, b] = powers.get((a, b), 0) + e
    return sign, tuple(sorted(item for item in powers.items() if item[1]))


def as_diff_product(v):
    """Exact signed exponent-vector form of a vertex, (sign, powers);
    injective."""
    return _signed_pair(_factors(v))


def divides_oracle(nu, mu):
    """True iff mu/nu is again a catalogue function (exact, signed): the
    signed pair of the quotient is that of a simple ratio on its 3 marks
    or of a cross ratio on its 4."""
    if nu == mu:
        raise ValueError("divisibility is defined on distinct vertices")
    q = _signed_pair(_factors(mu) + [(a, b, -e) for a, b, e in _factors(nu)])
    # a catalogue function has 2 or 4 factor pairs
    if len(q[1]) > 4:
        return False
    marks = sorted({m for pair, _ in q[1] for m in pair})
    if len(marks) == 3:
        candidates = itertools.permutations(marks)
    elif len(marks) == 4:
        # the Klein-canonical tuples on 4 marks: the least mark first
        candidates = ((marks[0], *p)
                      for p in itertools.permutations(marks[1:]))
    else:
        return False
    return any(as_diff_product(v) == q for v in candidates)


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
    if len(nu) == len(mu) == 3:
        i1, j1, k1 = nu
        i2, j2, k2 = mu
        if k1 == k2:
            return (i1 == i2) != (j1 == j2)
        return i1 == i2 and j1 == j2
    if len(nu) == len(mu):
        # x: the one mark of nu outside mu (marks are positive, so 0 is
        # none yet); a second one, or none, leaves no 3-mark overlap
        x = 0
        for m in nu:
            if m not in mu:
                if x:
                    return False
                x = m
        if not x:
            return False
        y = next(m for m in mu if m not in nu)
        return _cr_slot4_frame(nu, x) == _cr_slot4_frame(mu, y)
    sr, (a, b, c, d) = (nu, mu) if len(nu) == 3 else (mu, nu)
    return sr in ((a, b, d), (b, a, c), (d, c, a), (c, d, b))


# ---------------------------------------------------------------------------
# complexes
# ---------------------------------------------------------------------------


def _shared_top_divides(nu, mu):
    """Divisibility inside the pure "sr" complex: simple ratios on one top
    mark (divides_rule alone also accepts a cross-ratio quotient)."""
    return nu[2] == mu[2] and divides_rule(nu, mu)


def _check_pairwise(vertices, divides=divides_rule):
    for a, b in itertools.combinations(vertices, 2):
        if not divides(a, b):
            raise ValueError("vertices %r and %r do not divide" % (a, b))


def make_simplex(vertices):
    """The simplex on ``vertices``: their tuple in the vertex order, checked
    to be non-empty, without repeats and pairwise dividing (by
    divides_rule)."""
    s = tuple(sorted(vertices, key=_order))
    if not s:
        raise ValueError("simplex must be non-empty")
    if len(set(s)) != len(s):
        raise ValueError("vertices must be distinct")
    _check_pairwise(s)
    return s


def catalogue(n, family):
    """All vertices of the given family supported on marks 1..n, in the
    vertex order."""
    vs = []
    if family in (SR, "l"):
        vs += itertools.permutations(range(1, n + 1), 3)
    if family in (CR, "l"):
        vs += {klein_canonical(t)
               for t in itertools.permutations(range(1, n + 1), 4)}
    return sorted(vs, key=_order)


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
    each vertex as its index tuple (``_top_keys``).
    ``vertices`` is the catalogue in the vertex order: index tuples, cross
    ratios first, the arity giving the kind.
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
        index = {v: i for i, v in enumerate(vs)}
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
            "vertices": json_vertices(self.vertices),
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
    mapped = tuple(sigma[i - 1] for i in v)
    return mapped if len(mapped) == 3 else klein_canonical(mapped)


def act(sigma, s):
    """Relabel a vertex, or a simplex given as its vertex tuple, by a
    permutation given as a 1-based image tuple."""
    if sorted(sigma) != list(range(1, len(sigma) + 1)):
        raise ValueError("not a permutation of 1..n")
    if s and isinstance(s[0], int):
        return _apply_perm_vertex(sigma, s)
    return make_simplex([_apply_perm_vertex(sigma, v) for v in s])


def involution(v):
    """The vertex representing the reciprocal function."""
    if len(v) == 3:
        i, j, k = v
        return (j, i, k)
    i, j, k, l = v
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
    marks = frozenset().union(*vertices)
    top = max(marks)
    if n is None:
        n = top
    if n < top:
        raise ValueError("simplex has marks beyond n = %d" % n)
    first, last = vertices[0], vertices[-1]
    m = len(vertices) - 1
    if len(first) == 3:
        i, j, k = first
        if j == last[1]:
            frame, canonical = (k, j), delta_s(m)
        else:
            frame, canonical = (k, i), delta_s(m, sign=-1)
    else:
        odd = min(set(first).difference(last), default=first[3])
        frame, canonical = _cr_slot4_frame(first, odd), delta_c(m)
    order = frame + tuple(sorted(marks.difference(frame)))
    sigma = _complete_permutation(
        {x: t for t, x in enumerate(order, start=1)}, n)
    # compared as vertices: relabelling keeps divisibility, so a match is a
    # pure simplex, and the pairwise re-check of act(sigma, vertices) could
    # not fail; the vertices of a pure simplex share an arity, so they sort
    # as tuples
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

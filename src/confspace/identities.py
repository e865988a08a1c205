"""Three-term product identities among differences of marked points.

An exhaustive, exactly pruned search for the coprime vanishing sums
a*P + b*Q + c*R = 0 whose terms are products of differences z_i - z_j,
with every solution classified: the one-factor (simple) and two-factor
(double) patterns are the three-term identities among the vertex
functions of the ratio complexes.
"""

from __future__ import annotations

import itertools
from math import comb, gcd

from . import CapacityError
from .polyring import MultiPoly


def _expand_product(pairs):
    p = MultiPoly.one()
    for a, b in pairs:
        p = p * (MultiPoly.var("z%d" % a) - MultiPoly.var("z%d" % b))
    return p


def _classify_triple(products):
    degs = sorted(len(p) for p in products)
    if degs == [1, 1, 1]:
        edges = [p[0] for p in products]
        marks = set()
        for a, b in edges:
            marks.add(a)
            marks.add(b)
        if len(marks) == 3 and len(set(edges)) == 3:
            return "simple"
        return "other"
    if degs == [2, 2, 2]:
        marks = set()
        for p in products:
            for a, b in p:
                marks.add(a)
                marks.add(b)
        if len(marks) != 4:
            return "other"
        matchings = set()
        for p in products:
            if len(set(p[0]) | set(p[1])) != 4:
                return "other"
            matchings.add(tuple(sorted(p)))
        return "double" if len(matchings) == 3 else "other"
    return "other"


def _three_point_values(products, n):
    """The value of each product at the marks z_i = i, i^2 and i^3.

    No two of the three points are affine images of one another: a
    difference product is translation invariant and scales by t^d under
    z -> t*z, so affinely related points would give proportional values."""
    points = [[i ** k for i in range(n + 1)] for k in (1, 2, 3)]
    values = []
    for p in products:
        row = []
        for z in points:
            v = 1
            for a, b in p:
                v *= z[a] - z[b]
            row.append(v)
        values.append(tuple(row))
    return values


def _abc_kernel(va, vb, vc):
    """Scalars (a, b, c), all non-zero, with a*P + b*Q + c*R = 0, or None.

    va, vb, vc map monomial indices to the coefficients of P, Q, R.  The
    kernel is the cross product of the first two monomial rows, in index
    order, that are not proportional, and it is checked on every row."""
    rows = sorted(set(va) | set(vb) | set(vc))
    triples = [(va.get(r, 0), vb.get(r, 0), vc.get(r, 0)) for r in rows]
    kernel = None
    for r1 in range(len(triples)):
        for r2 in range(r1 + 1, len(triples)):
            a1, b1, c1 = triples[r1]
            a2, b2, c2 = triples[r2]
            cross = (b1 * c2 - c1 * b2, c1 * a2 - a1 * c2,
                     a1 * b2 - b1 * a2)
            if any(cross):
                kernel = cross
                break
        if kernel:
            break
    if kernel is None or not all(kernel):
        return None
    ka, kb, kc = kernel
    if any(a * ka + b * kb + c * kc for a, b, c in triples):
        return None
    return kernel


def _plane_key(u, v):
    """The plane spanned by integer 3-vectors u and v, or None when they
    are parallel: u x v divided by the gcd of its entries, its first
    non-zero entry made positive.  Two such cross products are normals of
    one plane exactly when they are proportional, so for u x v != 0 the
    key of (u, w) is that of (u, v), or None, exactly when w lies in
    span(u, v)."""
    (ux, uy, uz), (vx, vy, vz) = u, v
    cx, cy, cz = uy * vz - uz * vy, uz * vx - ux * vz, ux * vy - uy * vx
    g = gcd(cx, cy, cz)
    if not g:
        return None
    if (cx or cy or cz) < 0:
        g = -g
    return cx // g, cy // g, cz // g


# the candidate triples are counted before any product is listed; at this
# cap the slowest accepted call, abc --n 21 --bound 1 (1.54 M triples, all
# pairwise coprime), takes about 0.11 s for one CLI call (median of 11 read
# 0.109 s, range 0.102-0.113 s; 2 CPUs, Python 3.11.7)
_ABC_TRIPLE_LIMIT = 2_000_000


def _abc_listing(n, degree_bound):
    """Validate and cap a search, then list its products: (products, the
    index range of each degree >= 1, base-pair bitmasks, values at the
    three points, coefficient vectors keyed by monomial index)."""
    if n < 3:
        raise ValueError("need at least three variables")
    if degree_bound < 1:
        raise ValueError("degree bound must be at least 1")
    # products of at most degree_bound pairs, the empty one included;
    # counted before any pair is listed
    total = comb(comb(n, 2) + degree_bound, degree_bound)
    n_triples = comb(total, 3)
    if n_triples > _ABC_TRIPLE_LIMIT:
        raise CapacityError(
            "%d candidate triples exceed the supported %d (the slowest "
            "accepted call, abc --n 21 --bound 1 with 1.54 M triples, takes "
            "about 0.11 s)" % (n_triples, _ABC_TRIPLE_LIMIT))
    base_pairs = list(itertools.combinations(range(1, n + 1), 2))
    bit = {pair: 1 << i for i, pair in enumerate(base_pairs)}
    products = [()]
    degree_ranges = []
    for d in range(1, degree_bound + 1):
        start = len(products)
        products.extend(
            itertools.combinations_with_replacement(base_pairs, d))
        degree_ranges.append(range(start, len(products)))
    masks = []
    for p in products:
        mask = 0
        for pair in p:
            mask |= bit[pair]
        masks.append(mask)
    expanded = [_expand_product(p) for p in products]
    monos = sorted({m for p in expanded for m in p.terms})
    mono_index = {m: i for i, m in enumerate(monos)}
    vectors = [{mono_index[mono]: coeff for mono, coeff in p.terms.items()}
               for p in expanded]
    return (products, degree_ranges, masks, _three_point_values(products, n),
            vectors)


def _abc_report(n, degree_bound, found):
    """The search result from its solutions, (products, kernel) in order."""
    solutions = []
    counts = {"simple": 0, "double": 0, "other": 0}
    for triple, kernel in found:
        pattern = _classify_triple(triple)
        counts[pattern] += 1
        solutions.append({
            "pattern": pattern,
            "products": [list(map(list, p)) for p in triple],
            "scalars": list(kernel),
        })
    return {
        "n": n,
        "bound": degree_bound,
        "counts": counts,
        "solutions": solutions,
        "pass": counts["other"] == 0 and counts["simple"] > 0,
    }


def verify_abc(n, degree_bound):
    """Search for coprime three-term vanishing sums of difference products.

    Over the unordered triples of distinct monic difference-products of
    total degree <= degree_bound that are pairwise coprime and not all
    constant, solves a*P + b*Q + c*R = 0 exactly with a, b, c all non-zero,
    and classifies every solution.  Passes when only the one-factor
    (simple) and two-factor (double) patterns occur.

    Three exact prunes keep most triples from the solve, and none changes
    which solutions are found or their (lexicographic) order:

    - same degree: the products are homogeneous; if three degrees are not
      all equal, one of them belongs to a single product, and the part of
      the relation in that degree is that product times its scalar, so the
      scalar is zero.  Only triples within one degree are listed (degree 0
      holds the single empty product, so all-constant triples never are);
    - coprime: each product carries a bitmask of its base pairs, and a
      triple whose masks meet is skipped;
    - three-point values: a relation holds at every point, so the value
      vectors of the three products at three fixed integer points satisfy
      a*va + b*vb + c*vc = 0 with a, b, c non-zero.  When va and vb are
      independent, vc lies in their span and, as b != 0, off the line of
      va; when they are parallel, so is vc.  Either way b and c have the
      same plane key relative to a (see ``_plane_key``; no value vector is
      zero, each being a product of non-zero differences).

    The last prune lists no triple it rejects: for each first product a,
    every later product coprime to it is filed in a bucket under its plane
    key relative to a, and the thirds of (a, b) are the later members of
    b's bucket, visited in increasing order.

    A triple is accepted only by the coefficient solve, in exact integers.
    """
    products, degree_ranges, masks, values, vectors = _abc_listing(
        n, degree_bound)
    found = []
    for degree in degree_ranges:
        for ia in degree:
            ma, va = masks[ia], values[ia]
            buckets = {}
            seconds = []  # (b, its bucket, its place there) by increasing b
            for j in range(ia + 1, degree.stop):
                if not masks[j] & ma:
                    bucket = buckets.setdefault(
                        _plane_key(va, values[j]), [])
                    seconds.append((j, bucket, len(bucket)))
                    bucket.append(j)
            for ib, bucket, place in seconds:
                mb = masks[ib]
                for ic in bucket[place + 1:]:
                    if masks[ic] & mb:
                        continue
                    kernel = _abc_kernel(vectors[ia], vectors[ib],
                                         vectors[ic])
                    if kernel is not None:
                        found.append(((products[ia], products[ib],
                                       products[ic]), kernel))
    return _abc_report(n, degree_bound, found)

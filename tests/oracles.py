"""Independent reference implementations used only to check the library.

These deliberately avoid the code paths they validate: determinants by
cofactor expansion, evaluation by direct term arithmetic, gcds by a
remainder sequence, orbit representatives by exhaustive relabeling.
"""

from fractions import Fraction
from itertools import permutations


def cofactor_det(matrix):
    n = len(matrix)
    if n == 1:
        return matrix[0][0]
    total = None
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in matrix[1:]]
        term = matrix[0][j] * cofactor_det(minor)
        if j % 2:
            term = -term
        total = term if total is None else total + term
    return total


def eval_terms(poly, assignment):
    """Term-by-term evaluation bypassing MultiPoly.evaluate."""
    total = Fraction(0)
    for mono, coeff in poly.terms.items():
        val = Fraction(coeff)
        for var, exp in mono:
            val *= Fraction(assignment[var]) ** exp
        total += val
    return total


def poly_gcd_degree(p, q):
    """Degree of gcd of two integer polynomials (coefficients leading
    first), via a primitive remainder sequence over the rationals."""
    p = [Fraction(c) for c in p]
    q = [Fraction(c) for c in q]

    def trim(a):
        while a and a[0] == 0:
            a = a[1:]
        return a

    p, q = trim(p), trim(q)
    while q:
        if len(p) < len(q):
            p, q = q, p
            continue
        # remainder of p by q
        r = p[:]
        while r and len(r) >= len(q):
            factor = r[0] / q[0]
            shift = len(r) - len(q)
            for i in range(len(q)):
                r[i] -= factor * q[i]
            r = trim(r)
        p, q = q, r
    return len(p) - 1


def brute_orbit_key(simplex, n, act):
    """Minimal relabeled image over the whole symmetric group."""
    best = None
    for images in permutations(range(1, n + 1)):
        moved = act(images, simplex)
        key = tuple((v.kind, v.indices) for v in moved.vertices)
        if best is None or key < best:
            best = key
    return best


def rank_mod_p(matrix, p):
    """Rank over GF(p), p prime, of an integer matrix given as rows, by
    dense Gaussian elimination."""
    rows = [[x % p for x in row] for row in matrix]
    cols = len(rows[0]) if rows else 0
    rank = 0
    for c in range(cols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][c], p - 2, p)
        top = [x * inv % p for x in rows[rank]]
        rows[rank] = top
        for i in range(rank + 1, len(rows)):
            f = rows[i][c]
            if f:
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], top)]
        rank += 1
    return rank

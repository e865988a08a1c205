"""Independent reference implementations used only to check the library.

These deliberately avoid the code paths they validate: determinants by
cofactor expansion, evaluation and partial derivatives by direct term
arithmetic, polynomial division by re-sorting the remainder at every
step, gcds by a remainder
sequence, orbit representatives by exhaustive relabeling, normal forms
case by case on pairwise-checked simplices,
homomorphism classes by Perm products, closures and pairwise conjugacy
or by scanning every alpha-image in S(k),
conjugators by depth-first search, braid canonical forms by repeated
sweeps over the whole factor list, ratio complexes by a pairwise
divisibility scan, the action of the fractional-linear involution by
floating-point root matching, three-term product identities by solving
every candidate triple and by the rank prune tested triple by triple, the
maximal simplices of the ratio complexes as sets of vertex objects, the
function catalogue on the doubly punctured plane (which no verb runs), a
polynomial read back from its JSON terms, integer resultants and discriminants by a
subresultant remainder sequence, discriminants also by the Sylvester
determinant of the form and its derivative, the degree-9 form
discriminant by expanding the form and running that sequence, the
ferrari and covering checks and the slot permutation of a relabelling on
tuples of Fraction points, block systems by the classical refinement,
monic coefficients by multiplying out the roots, integral homology by
boundary matrices, sparse unit-pivot elimination and Smith normal form,
and polynomial identities by symbolic comparison with a sampled fallback.
"""

import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, \
    permutations
from math import factorial

import networkx

from confspace import morphisms
from confspace.braid import (
    CanonicalBraid,
    Perm,
    SymHom,
    _all_equal,
    _conjugacy_key,
    _cycle_type,
    _hom_images,
    _pdelta,
    _perm,
    _pid,
    _pinv,
    _pmul,
    _ptransp,
    _tuple,
    _word_image,
    alpha_word,
    check_relations,
    conjugacy_class_reps,
    hom_properties,
)
from confspace.morphisms import (
    _SAMPLE_BOUND,
    _report,
    eisenstein,
    feler_nine_rhs_value,
    ferrari_symbolic,
    hesse_cubic_discriminant,
)
from confspace.identities import (
    _abc_kernel,
    _abc_listing,
    _abc_report,
    _classify_triple,
    _expand_product,
)
from confspace.polyring import (
    MultiPoly,
    bareiss_det,
    discriminant_monic,
    form_product,
    sylvester_matrix,
)
from confspace.ratios import (
    CR,
    DiffProduct,
    RatioVertex,
    _complete_permutation,
    _cr_slot4_frame,
    act,
    build_complex,
    catalogue,
    cr_vertex,
    delta_c,
    delta_s,
    divides_oracle,
    make_simplex,
    sr_vertex,
)


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


def poly_derivative(poly, var):
    """Partial derivative of a MultiPoly in one variable, term by term."""
    out = {}
    for mono, coeff in poly.terms.items():
        exps = dict(mono)
        e = exps.get(var, 0)
        if e:
            exps[var] = e - 1
            key = tuple((v, x) for v, x in exps.items() if x)
            out[key] = out.get(key, 0) + coeff * e
    return MultiPoly(out)


def exact_divide_sorting(f, g):
    """f / g for MultiPolys, raising ValueError if inexact: each step takes
    the leading terms from a full ``sorted_terms`` of the remainder."""
    if g.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    if g.is_constant():
        return f.scalar_divide(g.constant_value())
    rem = f
    quo = MultiPoly.zero()
    dm, dc = g.sorted_terms()[0]
    dset = dict(dm)
    while not rem.is_zero():
        rm, rc = rem.sorted_terms()[0]
        rset = dict(rm)
        mono = {}
        for v, e in dset.items():
            if rset.get(v, 0) < e:
                raise ValueError("inexact polynomial division")
        for v, e in rset.items():
            k = e - dset.get(v, 0)
            if k:
                mono[v] = k
        q, r = divmod(rc, dc)
        if r:
            raise ValueError("inexact polynomial division")
        t = MultiPoly({tuple(sorted(mono.items())): q})
        quo = quo + t
        rem = rem - t * g
    return quo


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
        key = tuple((v.kind, v.indices) for v in moved)
        if best is None or key < best:
            best = key
    return best


def _pure_family(s):
    """The family of a simplex of a pure complex, checked pair by pair, or
    None: simple ratios need a common top mark and exactly one common base
    mark, cross ratios the catalogue divisibility."""
    kinds = {v.kind for v in s}
    if len(kinds) != 1:
        return None
    for a, b in combinations(s, 2):
        if a.kind == "sr":
            (i1, j1, k1), (i2, j2, k2) = a.indices, b.indices
            if k1 != k2 or (i1 == i2) == (j1 == j2):
                return None
        elif not divides_oracle(a, b):
            return None
    return kinds.pop()


def normal_form_by_cases(vs, n):
    """Normal form of a pure simplex, case by case: simple or cross ratios,
    one vertex or more.  Returns (sigma, canonical) like normal_form."""
    kind = _pure_family(vs)
    if kind is None:
        raise ValueError("not a simplex of a pure complex")
    m = len(vs) - 1
    if kind == "sr" and m == 0:
        i, j, k = vs[0].indices
        partial, canonical = {i: 3, j: 2, k: 1}, delta_s(0)
    elif kind == "sr" and len({v.indices[0] for v in vs}) == 1:
        # a common numerator: the varying denominators move upward
        i, _, k = vs[0].indices
        partial, canonical = {i: 2, k: 1}, delta_s(m, sign=-1)
        partial.update((j, t) for t, j in
                       enumerate(sorted(v.indices[1] for v in vs), start=3))
    elif kind == "sr":
        _, j, k = vs[0].indices
        partial, canonical = {j: 2, k: 1}, delta_s(m)
        partial.update((i, t) for t, i in
                       enumerate(sorted(v.indices[0] for v in vs), start=3))
    elif m == 0:
        a, b, c, d = vs[0].indices
        partial, canonical = {a: 1, b: 2, c: 3, d: 4}, delta_c(0)
    else:
        common = frozenset.intersection(*(v.support for v in vs))
        odd = [next(iter(v.support - common)) for v in vs]
        (frame,) = {_cr_slot4_frame(v.indices, x) for v, x in zip(vs, odd)}
        partial = dict(zip(frame, (1, 2, 3)))
        partial.update((x, t) for t, x in enumerate(sorted(odd), start=4))
        canonical = delta_c(m)
    sigma = _complete_permutation(partial, n)
    if act(sigma, vs) != canonical:
        raise AssertionError("normalization failed for %r" % (vs,))
    return sigma, canonical


def orbit_decomposition_by_simplices(n, family, m):
    """orbit_decomposition with every face rebuilt as a pairwise-checked
    vertex tuple and normalised by cases."""
    c = build_complex(n, family)
    counts = {}
    for face in c.all_simplices_by_dim()[m]:
        s = make_simplex([c.vertices[i] for i in face])
        _, canonical = normal_form_by_cases(s, n)
        counts[canonical] = counts.get(canonical, 0) + 1
    return sorted(counts.items())


@lru_cache(maxsize=None)
def divisibility_graph(n, family):
    """Sorted vertices on marks 1..n and their divisibility graph.

    Every pair is tested with ``divides_oracle``: all pairs for "l", the
    cross-ratio pairs for "cr", and for "sr" the simple-ratio pairs with a
    common top mark.  Nodes are indices into the vertex list.
    """
    marks = range(1, n + 1)
    vertices = []
    if family in ("sr", "l"):
        vertices += [RatioVertex("sr", t) for t in permutations(marks, 3)]
    if family in ("cr", "l"):
        vertices += {cr_vertex(*t) for t in permutations(marks, 4)}
    vertices.sort()
    graph = networkx.Graph()
    graph.add_nodes_from(range(len(vertices)))
    for a, b in combinations(range(len(vertices)), 2):
        va, vb = vertices[a], vertices[b]
        if family == "sr" and va.indices[2] != vb.indices[2]:
            continue
        if divides_oracle(va, vb):
            graph.add_edge(a, b)
    return vertices, graph


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


# integral simplicial homology by boundary matrices, unit-pivot elimination
# and dense Smith normal form: the general route, for any complex given by
# all its simplices per dimension, with torsion


def boundary_matrix(faces, simplices):
    """Sparse columns of the boundary map into the span of ``faces``.

    One dict per k-simplex in ``simplices``, from the row of each
    (k-1)-face in ``faces`` to its coefficient: (-1)^i for dropping vertex i.
    """
    index = {f: r for r, f in enumerate(faces)}
    return [{index[s[:i] + s[i + 1:]]: -1 if i % 2 else 1
             for i in range(len(s))}
            for s in simplices]


def smith_diagonal(mat):
    """Invariant factors d_1 | d_2 | ... of an integer matrix.

    Destructive on a copy; returns the non-zero diagonal of the Smith
    normal form as positive integers.
    """
    m = [row[:] for row in mat]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    diag = []
    t = 0
    while t < min(rows, cols):
        # locate a smallest-magnitude nonzero pivot in the trailing block
        best = None
        for i in range(t, rows):
            ri = m[i]
            for j in range(t, cols):
                v = ri[j]
                if v:
                    a = abs(v)
                    if best is None or a < best[0]:
                        best = (a, i, j)
                        if a == 1:
                            break
            if best is not None and best[0] == 1:
                break
        if best is None:
            break
        _, bi, bj = best
        m[t], m[bi] = m[bi], m[t]
        for row in m:
            row[t], row[bj] = row[bj], row[t]
        while True:
            pivot = m[t][t]
            done = True
            for i in range(t + 1, rows):
                v = m[i][t]
                if v:
                    q = v // pivot
                    if q:
                        mt = m[t]
                        mi = m[i]
                        for j in range(t, cols):
                            mi[j] -= q * mt[j]
                    if m[i][t]:
                        m[t], m[i] = m[i], m[t]
                        done = False
                        break
            if not done:
                continue
            for j in range(t + 1, cols):
                v = m[t][j]
                if v:
                    q = v // pivot
                    if q:
                        for row in m:
                            row[j] -= q * row[t]
                    if m[t][j]:
                        for row in m:
                            row[t], row[j] = row[j], row[t]
                        done = False
                        break
            if done:
                break
        # invariant factor condition: pivot must divide the trailing block
        pivot = m[t][t]
        fixed = False
        for i in range(t + 1, rows):
            if fixed:
                break
            ri = m[i]
            for j in range(t + 1, cols):
                if ri[j] % pivot:
                    mt = m[t]
                    for jj in range(t, cols):
                        mt[jj] += ri[jj]
                    fixed = True
                    break
        if fixed:
            continue
        diag.append(abs(pivot))
        t += 1
    return diag


def _eliminate_units(columns):
    """Pivot on +-1 entries until none is left.

    Works on copies of ``columns`` (dicts from row to non-zero int).  Each
    pivot clears its row from every other column by the unimodular column
    operation ``other -= (other[row] * pivot) * column``; the pivot row then
    holds one entry, so row and column drop out with invariant factor 1.
    Columns are visited shortest first, and within a column the pivot is the
    unit entry whose row lies in the fewest live columns, which keeps fill
    low.  Passes repeat until one takes no pivot: a column with no unit
    entry may gain one from a later pivot.

    Returns ``(units, residual)``: the number of pivots and the non-zero
    columns left, none holding a +-1 entry.
    """
    cols = {c: dict(col) for c, col in enumerate(columns) if col}
    where = {}  # row -> live columns holding it
    for c, col in cols.items():
        for r in col:
            where.setdefault(r, set()).add(c)
    units = 0
    progress = True
    while progress:
        progress = False
        for c in sorted(cols, key=lambda c: len(cols[c])):
            col = cols.get(c)
            if col is None:
                continue
            unit_rows = [r for r, v in col.items() if v == 1 or v == -1]
            if not unit_rows:
                continue
            row = min(unit_rows, key=lambda r: len(where[r]))
            pivot = col[row]
            del cols[c]
            for r in col:
                where[r].discard(c)
            for o in where.pop(row):
                other = cols[o]
                f = other.pop(row) * pivot
                for r, v in col.items():
                    if r == row:
                        continue
                    x = other.get(r, 0) - f * v
                    if x:
                        if r not in other:
                            where[r].add(o)
                        other[r] = x
                    else:
                        del other[r]
                        where[r].discard(o)
                if not other:
                    del cols[o]
            units += 1
            progress = True
    return units, list(cols.values())


def invariant_factors(columns):
    """Invariant factors d_1 | d_2 | ... of a matrix given as sparse columns.

    ``columns`` holds one dict per column, from row index to non-zero
    integer.  Unit pivots are eliminated first; dense ``smith_diagonal`` runs
    only on the residual block, and only if one is left.
    """
    units, residual = _eliminate_units(columns)
    factors = [1] * units
    if residual:
        rows = sorted({r for col in residual for r in col})
        factors += smith_diagonal([[col.get(r, 0) for col in residual]
                                   for r in rows])
    return factors


def homology_ranks(simplices_by_dim):
    """Betti numbers and torsion of a complex given all simplices per dim.

    Returns a list, one entry per dimension, of (betti, [torsion d > 1]).
    """
    dims = len(simplices_by_dim)
    ranks = []
    torsions = []
    for k in range(dims):
        if k == 0:
            ranks.append(0)
            torsions.append([])
            continue
        d = invariant_factors(
            boundary_matrix(simplices_by_dim[k - 1], simplices_by_dim[k]))
        ranks.append(len(d))
        torsions.append([x for x in d if x > 1])
    out = []
    for k in range(dims):
        n_k = len(simplices_by_dim[k])
        rank_in = ranks[k + 1] if k + 1 < dims else 0
        betti = n_k - ranks[k] - rank_in
        out.append((betti, torsions[k + 1] if k + 1 < dims else []))
    return out


def perm_closure(gens, k):
    """Every element of the group the Perm values generate, by
    breadth-first products."""
    identity = Perm.identity(k)
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = p * g
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return seen


def cyclic_by_closure(gens, k):
    """Whether the generated group has an element of the group's order."""
    elements = perm_closure(gens, k)
    return any(e.order() == len(elements) for e in elements)


def passing_homs(n, k):
    """Every homomorphism the exhaustive scan meets, in scan order: all n - 1
    images built as Perm conjugates of the first, every defining relation
    checked, then the product of the images compared with the second image
    of the pair."""
    for s in conjugacy_class_reps(k):
        for a_imgs in permutations(range(1, k + 1)):
            a = Perm(a_imgs)
            ainv = a.inverse()
            images = [s]
            for _ in range(n - 2):
                images.append(a * images[-1] * ainv)
            if check_relations(images, n, k) is not None:
                continue
            prod = images[0]
            for im in images[1:]:
                prod = prod * im
            if prod == a:
                yield SymHom(n, k, tuple(images))


def _perm_transitive(gens, k):
    reached = {1}
    stack = [1]
    while stack:
        x = stack.pop()
        for g in gens:
            y = g(x)
            if y not in reached:
                reached.add(y)
                stack.append(y)
    return len(reached) == k


def _find(parent, x):
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _classes(parent):
    """The classes of a union-find forest, as sorted lists of 1-based
    points."""
    groups = {}
    for x in range(len(parent)):
        groups.setdefault(_find(parent, x), []).append(x + 1)
    return sorted(groups.values())


def _min_block_with(gens, k, beta):
    """Smallest block containing points 0 and beta; the classical
    refinement."""
    parent = list(range(k))
    parent[0] = beta
    queue = [(0, beta)]
    while queue:
        x, y = queue.pop()
        for g in gens:
            gx, gy = g[x], g[y]
            rx, ry = _find(parent, gx), _find(parent, gy)
            if rx != ry:
                parent[rx] = ry
                queue.append((gx, gy))
    return _classes(parent)


def _nontrivial_blocks(gens, k):
    """A nontrivial block system of a transitive action of 0-based image
    tuples on range(k), as sorted lists of 1-based points, or None."""
    for beta in range(1, k):
        blocks = _min_block_with(gens, k, beta)
        if len(blocks) > 1:
            return blocks
    return None


def are_conjugate_dfs(h1, h2):
    """A permutation t with t^-1 * g1 * t == g2 for every pair of generator
    images, or None: depth-first search over assignments, propagating
    t(g1(x)) = g2(t(x)) from each one."""
    gens1 = h1.images
    gens2 = h2.images
    for a, b in zip(gens1, gens2):
        if a.cycle_type() != b.cycle_type():
            return None
    k = h1.k
    assign = {}
    used = set()

    def undo(added):
        for a in added:
            used.discard(assign[a])
            del assign[a]

    def propagate(pairs):
        added = []
        stack = list(pairs)
        while stack:
            x, y = stack.pop()
            if x in assign:
                if assign[x] != y:
                    undo(added)
                    return None
                continue
            if y in used:
                undo(added)
                return None
            assign[x] = y
            used.add(y)
            added.append(x)
            for g1, g2 in zip(gens1, gens2):
                stack.append((g1(x), g2(y)))
        return added

    def search():
        free = [x for x in range(1, k + 1) if x not in assign]
        if not free:
            return True
        x = free[0]
        for y in range(1, k + 1):
            if y in used:
                continue
            added = propagate([(x, y)])
            if added is None:
                continue
            if search():
                return True
            undo(added)
        return False

    if search():
        return Perm(tuple(assign[x] for x in range(1, k + 1)))
    return None


def search_homs_pairwise(n, k, include_cyclic=True):
    """The classes search_homs returns, by the original scan: a Perm closure
    for every homomorphism that passes the relations, and a pairwise
    depth-first conjugacy scan against the classes found so far."""
    found = []
    for h in passing_homs(n, k):
        elements = perm_closure(h.images, k)
        order = len(elements)
        cyclic = any(e.order() == order for e in elements)
        if not include_cyclic and cyclic:
            continue
        if any(are_conjugate_dfs(h, other) is not None
               for other, _ in found):
            continue
        found.append((h, {
            "cyclic": cyclic,
            "transitive": _perm_transitive(h.images, k),
            "surjective": order == factorial(k),
            "image_order": order,
        }))

    def sort_key(item):
        h = item[0]
        return (
            h.images[0].cycle_type(),
            h.apply(alpha_word(n)).cycle_type(),
            tuple(im.images for im in h.images),
        )

    return [{"hom": h, **props} for h, props in sorted(found, key=sort_key)]


def search_homs_full_scan(n, k, include_cyclic=True):
    """The classes search_homs returns, by the original tuple-kernel scan:
    every cycle-type representative against every alpha-image in S(k), the
    first passing one per conjugacy key kept."""
    classes = {}
    for rep in conjugacy_class_reps(k):
        s = _tuple(rep)
        braids = {}
        for a in permutations(range(k)):
            images = _hom_images(s, a, n, braids)
            if images is not None and (include_cyclic
                                       or not _all_equal(images)):
                classes.setdefault(_conjugacy_key(images, k), images)
    alpha = alpha_word(n).letters

    def sort_key(images):
        return (
            _cycle_type(images[0]),
            _cycle_type(_word_image(images, alpha, k)),
            tuple(images),
        )

    out = []
    for images in sorted(classes.values(), key=sort_key):
        h = SymHom(n, k, tuple(map(_perm, images)))
        props = hom_properties(h)
        out.append({
            "hom": h,
            "cyclic": props["cyclic_image"],
            "transitive": props["transitive"],
            "surjective": props["surjective"],
            "image_order": props["image_order"],
        })
    return out


def _starting_set(p):
    """Generators that can begin a positive word for the factor."""
    return {i for i in range(len(p) - 1) if p[i] > p[i + 1]}


def _finishing_set(p):
    return _starting_set(_pinv(p))


def _left_gcd(x, y):
    """Greatest common prefix of two permutation factors."""
    n = len(x)
    u = _pid(n)
    while True:
        common = _starting_set(x) & _starting_set(y)
        if not common:
            return u
        i = min(common)
        t = _ptransp(n, i)
        u = _pmul(u, t)
        x = _pmul(t, x)
        y = _pmul(t, y)


def _normalize_factors(n, factors):
    """Left-weight a factor sequence; returns (delta_shift, factors)."""
    fs = [f for f in factors if f != _pid(n)]
    delta = _pdelta(n)
    changed = True
    while changed:
        changed = False
        for i in range(len(fs) - 1):
            a, b = fs[i], fs[i + 1]
            if _starting_set(b) <= _finishing_set(a):
                continue
            rc = _pmul(_pinv(a), delta)  # right complement: a * rc = delta
            u = _left_gcd(rc, b)
            if u != _pid(n):
                fs[i] = _pmul(a, u)
                fs[i + 1] = _pmul(_pinv(u), b)
                changed = True
        fs = [f for f in fs if f != _pid(n)]
    shift = 0
    while fs and fs[0] == delta:
        shift += 1
        fs.pop(0)
    return shift, fs


def canonical_form_sweep(w):
    """Left-greedy canonical form: every negative letter conjugates all
    earlier factors by the half twist, and the factor list is swept until
    every adjacent pair is left-weighted (past 4n factors after each letter,
    and once at the end)."""
    n = w.n
    delta = _pdelta(n)
    inf = 0
    factors = []
    for g in w.letters:
        i = abs(g) - 1
        t = _ptransp(n, i)
        if g > 0:
            factors.append(t)
        else:
            # inverse generator = half-twist^-1 times a permutation factor;
            # pushing the negative half twist left conjugates what came before
            factors = [_pmul(_pmul(delta, f), delta) for f in factors]
            inf -= 1
            factors.append(_pmul(delta, t))
        if len(factors) > 4 * n:
            shift, factors = _normalize_factors(n, factors)
            inf += shift
    shift, factors = _normalize_factors(n, factors)
    inf += shift
    return CanonicalBraid(n, inf, factors)


def identity_report(lhs, rhs, trials=20, rng=None):
    """Exact check that two polynomials agree.

    Tries symbolic equality first; otherwise evaluates the difference at
    uniform integer points of [-_SAMPLE_BOUND, _SAMPLE_BOUND].  With total
    degree D the chance of a wrong identity surviving t trials is at most
    (D / (2*_SAMPLE_BOUND))^t.
    """
    if lhs == rhs:
        return {"pass": True, "mode": "symbolic", "trials": 0,
                "witness": None}
    rng = rng or random.Random(0)
    names = sorted(set(lhs.variables()) | set(rhs.variables()))
    for t in range(trials):
        point = {v: rng.randint(-_SAMPLE_BOUND, _SAMPLE_BOUND)
                 for v in names}
        if lhs.evaluate(point) != rhs.evaluate(point):
            return {"pass": False, "mode": "sampled", "trials": t + 1,
                    "witness": point}
    return {"pass": True, "mode": "sampled", "trials": trials,
            "witness": None}


def verify_identity(lhs, rhs, trials=20, rng=None):
    return identity_report(lhs, rhs, trials, rng)["pass"]


def monic_from_roots(points):
    """Coefficients (1, w_1, ..., w_n) of prod (t - q_i), exact."""
    coeffs = [Fraction(1)]
    for q in points:
        q = Fraction(q)
        nxt = coeffs + [Fraction(0)]
        for i in range(len(coeffs)):
            nxt[i + 1] -= q * coeffs[i]
        coeffs = nxt
    return coeffs


def ferrari_fractions(points):
    """The three-point resolvent of four points, as Fractions; the
    resolvent is looked up on ``morphisms`` at each call."""
    return tuple(z / 4 for z in morphisms._resolvent_times_4(
        *map(Fraction, points)))


def ferrari_induced_permutation(sigma, points):
    """The permutation of the three resolvent slots induced by relabeling
    the four input points; sigma is a 1-based image tuple."""
    base = ferrari_fractions(points)
    moved = ferrari_fractions(points[sigma[i] - 1] for i in range(4))
    images = []
    for z in moved:
        hits = [t for t, w in enumerate(base) if z == w]
        if len(hits) != 1:
            raise ValueError("resolvent values do not separate")
        images.append(hits[0] + 1)
    if sorted(images) != [1, 2, 3]:
        raise ValueError("relabeling did not permute the resolvent")
    return tuple(images)


def verify_ferrari_fractions(trials, rng, symbolic):
    """The "ferrari" gallery check on tuples of Fraction points: the same
    draws, distinctness check and report as
    ``morphisms.GALLERY_CHECKS["ferrari"]``."""
    f1, f2, f3 = ferrari_symbolic()
    q = [MultiPoly.var("q%d" % i) for i in range(1, 5)]
    factors_ok = (
        f1 - f2 == 4 * (q[0] - q[1]) * (q[3] - q[2])
        and f1 - f3 == 4 * (q[0] - q[2]) * (q[3] - q[1])
        and f2 - f3 == 4 * (q[1] - q[2]) * (q[3] - q[0])
    )
    for _ in range(trials):
        pts = []
        while len(set(pts)) != 4:
            pts = [Fraction(rng.randint(-50, 50), rng.randint(1, 9))
                   for _ in range(4)]
        base = set(ferrari_fractions(pts))
        for sigma in permutations((1, 2, 3, 4)):
            moved = ferrari_fractions(pts[sigma[i] - 1] for i in range(4))
            if set(moved) != base:
                return _report(False, "symbolic+sampled", trials,
                               [str(p) for p in pts])
    return _report(factors_ok, "symbolic+sampled", trials)


def discriminant_fractions(points):
    """Discriminant of the monic polynomial with the given roots, in
    Fractions, with the sign of ``discriminant_monic``."""
    pts = [Fraction(p) for p in points]
    n = len(pts)
    prod = Fraction(1)
    for i in range(n):
        for j in range(i + 1, n):
            prod *= (pts[i] - pts[j]) ** 2
    return prod if (n * (n - 1) // 2) % 2 == 0 else -prod


def verify_covering_fractions(trials, rng, symbolic):
    """The "covering" gallery check on Fraction points, scaled by the
    m-th power of their discriminant as they are drawn: the same draws,
    distinctness check and report as
    ``morphisms.GALLERY_CHECKS["covering"]``."""
    for n in (3, 4):
        d = discriminant_monic(n)
        zeta = MultiPoly.var("t")
        scaled = d.substitute({
            "w%d" % i: MultiPoly.var("w%d" % i) * zeta ** i
            for i in range(1, n + 1)})
        if scaled != zeta ** (n * (n - 1)) * d:
            return _report(False, "symbolic+sampled", trials, {"n": n})
    for _ in range(trials):
        n = rng.choice((2, 3, 4, 5))
        m = rng.randint(0, 2)
        pts = []
        while len(set(pts)) != n:
            pts = [Fraction(rng.randint(-20, 20), rng.randint(1, 7))
                   for _ in range(n)]
        d_in = discriminant_fractions(pts)
        out = [p * d_in ** m for p in pts]
        d_out = discriminant_fractions(out)
        if d_out != d_in ** (m * n * (n - 1) + 1):
            return _report(False, "symbolic+sampled", trials,
                           [str(p) for p in pts])
    return _report(True, "symbolic+sampled", trials)


def tame_action_numeric(trials=20, rng=None, tol=1e-9):
    """The fractional-linear map carries the roots of a cubic onto the
    roots of its involution image: numpy roots matched within ``tol``.

    Draws z as ``morphisms.tame_action_check`` does; the report also lists
    the accepted z in order.
    """
    import numpy as np

    rng = rng or random.Random(7)
    done = 0
    attempts = 0
    accepted = []
    while done < trials:
        attempts += 1
        if attempts > 200 * trials:
            raise RuntimeError("could not draw enough nondegenerate samples")
        z = tuple(rng.randint(-9, 9) for _ in range(4))
        dz = hesse_cubic_discriminant(z)
        scale = max(abs(v) for v in z) or 1
        if abs(dz) < 1e-6 * scale ** 4:
            continue
        w = eisenstein(z)
        phi = [z[0], 3 * z[1], 3 * z[2], z[3]]
        psi = [w[0], -3 * w[1], 3 * w[2], -w[3]]
        if phi[0] == 0 or psi[0] == 0:
            continue
        roots = np.roots(phi)
        images = np.roots(psi)
        # the square-root normalization is a common factor of all entries
        # and drops out of the action
        A = z[1] * z[2] - z[0] * z[3]
        B = 2 * (z[2] ** 2 - z[1] * z[3])
        C = 2 * (z[0] * z[2] - z[1] ** 2)
        mapped = []
        degenerate = False
        for root in roots:
            denom = C * root - A
            if abs(denom) < 1e-12:
                degenerate = True
                break
            mapped.append((A * root + B) / denom)
        if degenerate:
            continue
        accepted.append(z)
        targets = list(images)
        ok = True
        for value in mapped:
            best = None
            for i, t in enumerate(targets):
                err = abs(value - t) / max(1.0, abs(t))
                if best is None or err < best[1]:
                    best = (i, err)
            if best is None or best[1] > tol:
                ok = False
                break
            targets.pop(best[0])
        if not ok:
            return {"pass": False, "trials": done + 1, "witness": list(z),
                    "accepted": accepted}
        done += 1
    return {"pass": True, "trials": trials, "witness": None,
            "accepted": accepted}


def _int_poly_trim(p):
    i = 0
    while i < len(p) and p[i] == 0:
        i += 1
    return p[i:]


def _int_poly_prem(a, b):
    """Pseudo-remainder: lc(b)^(deg a - deg b + 1) * a mod b, leading first."""
    d = len(a) - len(b)
    lb = b[0]
    r = list(a)
    steps = 0
    while len(r) >= len(b):
        lr = r[0]
        r = [lb * c for c in r[1:]]
        for i in range(len(b) - 1):
            r[i] -= lr * b[i + 1]
        r = _int_poly_trim(r)
        steps += 1
    if steps < d + 1:
        scale = lb ** (d + 1 - steps)
        r = [c * scale for c in r]
    return r


def _exact_quotient(a, b):
    """a / b for a division the subresultant theory says is exact."""
    q, r = divmod(a, b)
    if r:
        raise ArithmeticError("inexact division %r / %r in the subresultant "
                              "sequence" % (a, b))
    return q


def resultant_int(f, g):
    """Resultant of two integer polynomials (coefficients leading first).

    Subresultant remainder-sequence computation; agrees exactly with the
    Sylvester determinant, which the tests check against bareiss_det.
    """
    f = _int_poly_trim(list(f))
    g = _int_poly_trim(list(g))
    if not f or not g:
        raise ValueError("resultant of the zero polynomial is undefined")
    n, m = len(f) - 1, len(g) - 1
    if n == 0:
        return f[0] ** m
    if m == 0:
        return g[0] ** n
    s = 1
    a, b = f, g
    if n < m:
        a, b = b, a
        if n % 2 == 1 and m % 2 == 1:
            s = -s
    gg = 1
    h = 1
    while True:
        da, db = len(a) - 1, len(b) - 1
        delta = da - db
        if da % 2 == 1 and db % 2 == 1:
            s = -s
        r = _int_poly_prem(a, b)
        if not r:
            return 0  # positive-degree common factor
        a = b
        denom = gg * h ** delta
        b = [_exact_quotient(c, denom) for c in r]
        gg = a[0]
        if delta == 1:
            h = gg
        elif delta > 1:
            h = _exact_quotient(gg ** delta, h ** (delta - 1))
        if len(b) == 1:
            da = len(a) - 1
            return s * _exact_quotient(b[0] ** da, h ** (da - 1))


def _disc_matrix(coeffs):
    """Discriminant determinant matrix for a degree-n coefficient sequence.

    This is the Sylvester matrix of the form and its x-derivative with the
    leading coefficient factored out of the first column, so the
    determinant is homogeneous of degree 2(n-1) and no division is needed
    even when the leading coefficient vanishes.
    """
    coeffs = list(coeffs)
    n = len(coeffs) - 1
    if n < 1:
        raise ValueError("degree must be at least 1")
    deriv = [(n - i) * c if isinstance(c, int) else c * (n - i)
             for i, c in enumerate(coeffs[:-1])]
    mat = sylvester_matrix(coeffs, deriv)
    one = 1 if isinstance(coeffs[0], int) else MultiPoly.one()
    mat[0][0] = one
    mat[n - 1][0] = n * one if isinstance(one, int) else one * n
    return mat


def discriminant_sylvester(coeffs):
    """discriminant_of by the (2n-1)x(2n-1) Sylvester determinant of the
    form and its x-derivative, the leading coefficient factored out."""
    return bareiss_det(_disc_matrix(coeffs))


def discriminant_int(coeffs):
    """Value of the discriminant polynomial at integer coefficients.

    Matches discriminant_of exactly, including at points where the
    leading coefficient vanishes (falls back to the determinant there).
    """
    coeffs = list(coeffs)
    n = len(coeffs) - 1
    if coeffs[0] == 0:
        return discriminant_sylvester(coeffs)
    deriv = [(n - i) * c for i, c in enumerate(coeffs[:-1])]
    res = resultant_int(coeffs, deriv)
    q, r = divmod(res, coeffs[0])
    if r:
        raise ArithmeticError("resultant not divisible by leading coefficient")
    return q


def int_poly_mul(p, r):
    """Product of two integer coefficient lists (either order of powers,
    the same in both)."""
    out = [0] * (len(p) + len(r) - 1)
    for i, x in enumerate(p):
        if x:
            for j, y in enumerate(r):
                out[i + j] += x * y
    return out


def _nine_form_int_coeffs(q):
    """Integer coefficients of the degree-9 form at an integer point."""
    q1, q2, q3 = q
    cubes = [[1, -3 * t, 3 * t * t, -t ** 3] for t in (q1, q2, q3)]
    w = [(q2 - q3) ** 2, (q3 - q1) ** 2, (q1 - q2) ** 2]

    def factor(a, b):
        return [w[a] * x - w[b] * y for x, y in zip(cubes[a], cubes[b])]

    return int_poly_mul(int_poly_mul(factor(0, 1), factor(1, 2)),
                        factor(2, 0))


def feler_nine_form():
    """The degree-9 form in q1, q2, q3: the product of its three cubic
    factors, expanded."""
    f1, f2, f3 = morphisms._nine_factors(
        (MultiPoly.var("q1"), MultiPoly.var("q2"), MultiPoly.var("q3")))
    return form_product(form_product(f1, f2), f3)


def nine_form_disc_expanded(q):
    """The degree-9 form discriminant at q from its nine coefficients."""
    return discriminant_int(_nine_form_int_coeffs(q))


def feler_nine_sampled_expanded(trials=20, rng=None):
    """``morphisms.feler_nine_sampled`` on the expanded route: the same
    draws, each left-hand side from ``nine_form_disc_expanded``."""
    rng = rng or random.Random(0)
    for t in range(trials):
        while True:
            q = tuple(rng.randint(-_SAMPLE_BOUND, _SAMPLE_BOUND)
                      for _ in range(3))
            if len(set(q)) == 3:
                break
        if nine_form_disc_expanded(q) != feler_nine_rhs_value(q):
            return {"pass": False, "trials": t + 1, "witness": list(q)}
    return {"pass": True, "trials": trials, "witness": None}


def verify_abc_brute(n, degree_bound):
    """``identities.verify_abc`` without its prunes: every triple of products
    of degree <= degree_bound, mixed degrees included, goes through the
    coprimality test by set intersection and the coefficient solve."""
    base_pairs = list(combinations(range(1, n + 1), 2))
    products = [()]
    for d in range(1, degree_bound + 1):
        products.extend(combinations_with_replacement(base_pairs, d))
    expanded = [_expand_product(p) for p in products]
    monos = sorted({m for p in expanded for m in p.terms})
    mono_index = {m: i for i, m in enumerate(monos)}
    vectors = []
    for p in expanded:
        vec = {}
        for mono, coeff in p.terms.items():
            vec[mono_index[mono]] = coeff
        vectors.append(vec)
    solutions = []
    counts = {"simple": 0, "double": 0, "other": 0}
    for ia, ib, ic in combinations(range(len(products)), 3):
        pa, pb, pc = products[ia], products[ib], products[ic]
        if not (pa or pb or pc):
            continue
        if set(pa) & set(pb) or set(pa) & set(pc) or set(pb) & set(pc):
            continue
        rows = sorted(set(vectors[ia]) | set(vectors[ib]) | set(vectors[ic]))
        if len(rows) < 2:
            continue
        triples = [
            (vectors[ia].get(r, 0), vectors[ib].get(r, 0),
             vectors[ic].get(r, 0))
            for r in rows
        ]
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
            continue
        ka, kb, kc = kernel
        if any(a * ka + b * kb + c * kc for a, b, c in triples):
            continue
        pattern = _classify_triple([pa, pb, pc])
        counts[pattern] += 1
        solutions.append({
            "pattern": pattern,
            "products": [list(map(list, p)) for p in (pa, pb, pc)],
            "scalars": [ka, kb, kc],
        })
    return {
        "n": n,
        "bound": degree_bound,
        "counts": counts,
        "solutions": solutions,
        "pass": counts["other"] == 0 and counts["simple"] > 0,
    }


def verify_abc_triple_scan(n, degree_bound):
    """``identities.verify_abc`` with its rank prune tested triple by
    triple: the cross product of the first two value vectors, dotted with
    every later third one (the search before its plane buckets)."""
    products, degree_ranges, masks, values, vectors = _abc_listing(
        n, degree_bound)
    xs, ys, zs = zip(*values)
    found = []
    for degree in degree_ranges:
        hi = degree.stop
        for ia in degree:
            ma, xa, ya, za = masks[ia], xs[ia], ys[ia], zs[ia]
            for ib in range(ia + 1, hi):
                if masks[ib] & ma:
                    continue
                mab = ma | masks[ib]
                xb, yb, zb = xs[ib], ys[ib], zs[ib]
                cx = ya * zb - za * yb
                cy = za * xb - xa * zb
                cz = xa * yb - ya * xb
                for ic in range(ib + 1, hi):
                    if (masks[ic] & mab
                            or cx * xs[ic] + cy * ys[ic] + cz * zs[ic]):
                        continue
                    kernel = _abc_kernel(vectors[ia], vectors[ib],
                                         vectors[ic])
                    if kernel is not None:
                        found.append(((products[ia], products[ib],
                                       products[ic]), kernel))
    return _abc_report(n, degree_bound, found)


def enumerate_punctured(m):
    """Non-constant holomorphic maps of m distinct marks avoiding 0 and 1.

    Marks m+1, m+2, m+3 are pinned to 0, 1 and infinity; every function is
    a four-mark ratio on the extended set, with the infinity factors
    cancelling.  Returns the catalogue as DiffProducts over marks 1..m+2,
    where m+1 stands for the value 0 and m+2 for the value 1.
    """
    if m < 1:
        raise ValueError("need at least one free mark")
    inf = m + 3
    out = []
    for v in catalogue(m + 3, CR):
        i, j, k, l = v.indices
        factors = [((l, i), 1), ((j, k), 1), ((l, j), -1), ((i, k), -1)]
        kept = []
        sign = 1
        for (top, bottom), e in factors:
            if top == inf:
                continue  # (q - mark) over the escaping mark tends to 1
            if bottom == inf:
                # the escaping mark enters negated; its limit leaves a sign
                sign = -sign if e % 2 else sign
                continue
            kept.append(((top, bottom), e))
        dp = DiffProduct.from_factors(kept)
        if sign < 0:
            dp = DiffProduct(-dp.scalar, dp.powers)
        out.append(dp)
    if len(set(out)) != len(out):
        raise AssertionError("catalogue entries are not distinct")
    return out


def diff_product_value(dp, values):
    """Exact value of a DiffProduct at a point; indices map to Fractions."""
    acc = Fraction(dp.scalar)
    for (a, b), e in dp.powers:
        d = Fraction(values[a]) - Fraction(values[b])
        if d == 0:
            raise ZeroDivisionError("marks %d and %d collide" % (a, b))
        acc *= d ** e
    return acc


def punctured_value(h, coords):
    """Evaluate a catalogue function at free marks q_1..q_m."""
    values = {i: Fraction(c) for i, c in enumerate(coords, start=1)}
    values[len(coords) + 1] = Fraction(0)
    values[len(coords) + 2] = Fraction(1)
    return diff_product_value(h, values)


def frame_tops(n):
    """Maximal simplices of cr(n) as vertex sets: {cr(f1, f2, f3, x)} per
    ordered frame f."""
    marks = range(1, n + 1)
    return {frozenset(cr_vertex(*f, x) for x in marks if x not in f)
            for f in permutations(marks, 3)}


def star_tops(n):
    """Maximal simplices of sr(n) as vertex sets: the stars sr(a, ., k)
    and sr(., a, k)."""
    marks = range(1, n + 1)
    tops = set()
    for a, k in permutations(marks, 2):
        rest = [x for x in marks if x not in (a, k)]
        tops.add(frozenset(sr_vertex(a, x, k) for x in rest))
        tops.add(frozenset(sr_vertex(x, a, k) for x in rest))
    return tops


def from_infinity(v, inf):
    """v with q_inf sent to infinity: cr(i, j, inf, k) becomes sr(i, j, k)."""
    if inf not in v.indices:
        return v
    j, i, k = _cr_slot4_frame(v.indices, inf)
    return sr_vertex(i, j, k)


def vertex_set_tops(n, family):
    """The maximal simplices of a complex, built vertex by vertex."""
    if family == "cr":
        return frame_tops(n)
    if family == "sr":
        return star_tops(n)
    return {frozenset(from_infinity(v, n + 1) for v in t)
            for t in frame_tops(n + 1)}


def poly_from_json_terms(data):
    """The MultiPoly of ``MultiPoly.to_json_terms`` output."""
    terms = {}
    for coeff, expmap in data:
        mono = tuple(sorted((str(v), e) for v, e in expmap.items()))
        terms[mono] = terms.get(mono, 0) + int(coeff)
    return MultiPoly(terms)

"""Integral simplicial homology by sparse unit-pivot elimination.

Simplices are tuples of vertex indices in strictly increasing order, so the
orientation convention is fixed by the vertex order and the boundary maps
satisfy d(k) . d(k+1) = 0.

A boundary map is held as sparse columns, every entry +-1.  Its invariant
factors come from ``invariant_factors``: elimination over Z that pivots on
+-1 entries (each pivot is one unit invariant factor), followed by dense
Smith normal form (``smith_diagonal``) on whatever residual block is left
with no unit entry.  For the ratio complexes that residual is empty; a
complex with torsion such as the projective plane leaves a small one.
"""

from __future__ import annotations


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

"""Integral homology of a complex whose maximal simplices (tops) pairwise
share at most one vertex, read off its vertex-top incidence graph.

Such a complex is homotopy equivalent to that graph: each top, like the
star on its vertices in the graph, is contractible and meets the rest only
in its own vertices.  So with V vertices, T tops, I incidences and b0
components (one union-find over the tops), b1 = I - V - T + b0, every
higher Betti number is 0, and there is no torsion.  The ratio complexes
satisfy the hypothesis, since each of their simplices of dimension >= 1
lies in exactly one top.  Two tops sharing two vertices are refused with
ValueError; the general route, boundary matrices and Smith normal form, is
the reference in the tests.
"""

from __future__ import annotations

from itertools import combinations


def incidence_homology(vertex_count, maximal_simplices):
    """Per dimension 0..max top dimension, (betti rank, torsion summands).

    Vertices are ``0 .. vertex_count - 1``; a vertex in no top counts as a
    point.  Raises ValueError, naming both tops and the pair, if two tops
    share two vertices.
    """
    parent = list(range(vertex_count))

    def find(x):
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    owner = {}  # vertex pair -> position of the top holding it
    components = vertex_count
    incidences = 0
    for t, top in enumerate(maximal_simplices):
        incidences += len(top)
        for pair in combinations(sorted(top), 2):
            other = owner.setdefault(pair, t)
            if other != t:
                raise ValueError(
                    "maximal simplices %r and %r share the vertices %r; "
                    "the incidence-graph homology needs tops that meet in "
                    "at most one vertex"
                    % (maximal_simplices[other], top, pair))
        root = find(top[0])
        for v in top[1:]:
            r = find(v)
            if r != root:
                parent[r] = root
                components -= 1
    b1 = incidences - vertex_count - len(maximal_simplices) + components
    dim = max(map(len, maximal_simplices), default=1) - 1
    return [(components, []), (b1, [])][:dim + 1] + [
        (0, []) for _ in range(dim - 1)]

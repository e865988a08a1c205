import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from confspace.homology import incidence_homology
from confspace.ratios import build_complex, euler_characteristic
from oracles import (
    boundary_matrix,
    homology_ranks,
    invariant_factors,
    rank_mod_p,
    smith_diagonal,
)


def closure_of_facets(facets):
    """All faces of the given top simplices, grouped by dimension."""
    by_dim = {}
    for f in facets:
        for size in range(1, len(f) + 1):
            for face in itertools.combinations(sorted(f), size):
                by_dim.setdefault(size - 1, set()).add(face)
    top = max(by_dim)
    return [sorted(by_dim.get(k, ())) for k in range(top + 1)]


def rank_oracle(mat):
    m = [[Fraction(x) for x in row] for row in mat]
    rank = 0
    rows = len(m)
    cols = len(m[0]) if rows else 0
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        for i in range(rows):
            if i != r and m[i][c]:
                f = m[i][c] / m[r][c]
                for j in range(c, cols):
                    m[i][j] -= f * m[r][j]
        r += 1
        rank += 1
    return rank


def test_smith_known_invariant_factors():
    assert smith_diagonal([[2, 4], [6, 8]]) == [2, 4]
    assert smith_diagonal([[1, 0], [0, 1]]) == [1, 1]
    assert smith_diagonal([[0, 0], [0, 0]]) == []
    assert smith_diagonal([[6]]) == [6]


def test_smith_divisibility_chain_and_rank():
    rng = random.Random(19)
    for _ in range(40):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        mat = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        diag = smith_diagonal(mat)
        assert len(diag) == rank_oracle(mat)
        for a, b in zip(diag, diag[1:]):
            assert b % a == 0


# minimal six-vertex triangulation; first homology is pure 2-torsion
PROJECTIVE_PLANE = [
    (1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 6), (1, 5, 6),
    (2, 3, 6), (2, 4, 5), (2, 5, 6), (3, 4, 5), (3, 4, 6),
]


def test_circle_homology():
    facets = [(0, 1), (1, 2), (0, 2)]
    ranks = homology_ranks(closure_of_facets(facets))
    assert [b for b, _ in ranks] == [1, 1]
    assert all(not t for _, t in ranks)


def test_two_sphere_homology():
    facets = list(itertools.combinations(range(4), 3))
    ranks = homology_ranks(closure_of_facets(facets))
    assert [b for b, _ in ranks] == [1, 0, 1]


def test_projective_plane_torsion():
    by_dim = closure_of_facets(PROJECTIVE_PLANE)
    assert [len(level) for level in by_dim] == [6, 15, 10]
    ranks = homology_ranks(by_dim)
    assert ranks[0] == (1, [])
    assert ranks[1] == (0, [2])
    assert ranks[2] == (0, [])


def test_boundary_matrix_entries():
    faces = [(0, 1), (0, 2), (1, 2)]
    simplices = [(0, 1, 2)]
    assert boundary_matrix(faces, simplices) == [{0: 1, 1: -1, 2: 1}]


ENTRIES = (0, 1, -1, 2, -2, 3, -4, 6)


@st.composite
def integer_matrices(draw):
    rows = draw(st.integers(0, 8))
    cols = draw(st.integers(0, 8))
    row = st.lists(st.sampled_from(ENTRIES), min_size=cols, max_size=cols)
    return draw(st.lists(row, min_size=rows, max_size=rows))


def sparse_columns(mat):
    cols = len(mat[0]) if mat else 0
    return [{r: row[c] for r, row in enumerate(mat) if row[c]}
            for c in range(cols)]


@given(integer_matrices())
@example([])
@example([[], [], []])
@example([[0, 0, 0], [0, 0, 0]])
@example([[0, 1, 0], [0, 0, 0], [-1, 2, 0]])       # units only
@example([[0, 0, 0], [0, 2, 4], [0, 6, -4], [0, 0, 0]])  # residual only
@example([[1, 2, 0], [1, 0, 2], [0, 2, 2]])         # units, then residual
def test_sparse_route_matches_dense_smith(mat):
    assert invariant_factors(sparse_columns(mat)) == smith_diagonal(mat)


def betti_mod_p(by_dim, p):
    ranks = [0] * (len(by_dim) + 1)
    for k in range(1, len(by_dim)):
        columns = boundary_matrix(by_dim[k - 1], by_dim[k])
        dense = [[col.get(r, 0) for col in columns]
                 for r in range(len(by_dim[k - 1]))]
        ranks[k] = rank_mod_p(dense, p)
    return [len(level) - ranks[k] - ranks[k + 1]
            for k, level in enumerate(by_dim)]


def alternating_sum(values):
    return sum(v if k % 2 == 0 else -v for k, v in enumerate(values))


@pytest.mark.parametrize("n, family", [
    (4, "cr"), (5, "cr"), (6, "cr"),
    (3, "sr"), (4, "sr"), (5, "sr"), (6, "sr"),
    (5, "l"),
])
def test_betti_mod_p_equal_integral_betti(n, family):
    # no torsion, so every field sees the integral ranks
    c = build_complex(n, family)
    by_dim = c.all_simplices_by_dim()
    integral = homology_ranks(by_dim)
    assert all(not t for _, t in integral)
    betti = [b for b, _ in integral]
    assert betti_mod_p(by_dim, 2) == betti
    assert betti_mod_p(by_dim, 3) == betti
    assert alternating_sum(betti) == euler_characteristic(c)


def test_projective_plane_betti_mod_p():
    by_dim = closure_of_facets(PROJECTIVE_PLANE)
    chi = alternating_sum([len(level) for level in by_dim])
    integral = homology_ranks(by_dim)
    assert integral[1] == (0, [2])
    assert betti_mod_p(by_dim, 2) == [1, 1, 1]
    assert betti_mod_p(by_dim, 3) == [1, 0, 0]
    for betti in ([b for b, _ in integral], betti_mod_p(by_dim, 2),
                  betti_mod_p(by_dim, 3)):
        assert alternating_sum(betti) == chi == 1


# every complex a verb builds: at most 9 marks, n + 1 for family l
INSIDE_THE_CAP = [
    *(("cr", n) for n in range(4, 10)),
    *(("sr", n) for n in range(3, 10)),
    *(("l", n) for n in range(3, 9)),
]


@pytest.mark.parametrize("family, n", INSIDE_THE_CAP)
def test_incidence_homology_equals_smith_route(family, n):
    c = build_complex(n, family)
    facets = [tuple(sorted(t)) for t in c.maximal_simplices]
    expected = homology_ranks(closure_of_facets(facets))
    assert all(not t for _, t in expected)
    assert incidence_homology(len(c.vertices), c.maximal_simplices) == expected


@st.composite
def tops_meeting_in_at_most_one_vertex(draw):
    """(vertex count, tops): up to 12 vertices, tops of 1-5 vertices, a
    drawn top kept only if it shares at most one vertex with every kept
    one."""
    count = draw(st.integers(1, 12))
    drawn = draw(st.lists(
        st.sets(st.integers(0, count - 1), min_size=1, max_size=5),
        min_size=1, max_size=12))
    tops = []
    for top in drawn:
        if all(len(top & set(kept)) <= 1 for kept in tops):
            tops.append(tuple(sorted(top)))
    return count, tops


@given(tops_meeting_in_at_most_one_vertex())
@example((3, [(0, 1), (1, 2), (0, 2)]))            # a circle
@example((5, [(0, 1, 2), (2, 3, 4), (0, 4)]))      # two triangles, one cycle
@example((4, [(0,), (1, 2)]))                      # isolated vertex 3
def test_incidence_homology_on_random_complexes(case):
    count, tops = case
    covered = {v for t in tops for v in t}
    # a vertex in no top is a point of the complex
    points = [(v,) for v in range(count) if v not in covered]
    assert incidence_homology(count, tops) == homology_ranks(
        closure_of_facets(tops + points))


@pytest.mark.parametrize("tops, first, second, pair", [
    (PROJECTIVE_PLANE, (1, 2, 3), (1, 2, 4), (1, 2)),
    ([(0, 1, 2), (1, 2, 3)], (0, 1, 2), (1, 2, 3), (1, 2)),
], ids=["projective-plane", "triangles-on-an-edge"])
def test_tops_sharing_two_vertices_are_refused(tops, first, second, pair):
    with pytest.raises(ValueError) as err:
        incidence_homology(7, tops)
    assert str(err.value).startswith(
        "maximal simplices %r and %r share the vertices %r"
        % (first, second, pair))

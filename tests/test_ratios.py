import copy
import itertools
import json
import pickle
import random
from fractions import Fraction
from math import comb, gcd

import networkx
import pytest
from hypothesis import assume, given, settings, strategies as st

from confspace import CapacityError, homology, identities, ratios
from confspace.identities import (
    _expand_product,
    _plane_key,
    _three_point_values,
    verify_abc,
)
from confspace.ratios import (
    DiffProduct,
    RatioVertex,
    act,
    as_diff_product,
    build_complex,
    catalogue,
    complex_dimension,
    cr_vertex,
    delta_c,
    delta_s,
    divides_oracle,
    divides_rule,
    euler_characteristic,
    homology_report,
    involution,
    klein_canonical,
    make_simplex,
    normal_form,
    orbit_decomposition,
    sr_vertex,
)
from oracles import (
    brute_orbit_key,
    cofactor_det,
    divisibility_graph,
    enumerate_punctured,
    eval_terms,
    orbit_decomposition_by_simplices,
    punctured_value,
    verify_abc_brute,
    verify_abc_triple_scan,
    vertex_set_tops,
)


def test_vertex_validation():
    with pytest.raises(ValueError):
        sr_vertex(1, 1, 2)
    with pytest.raises(ValueError):
        RatioVertex("cr", (2, 1, 3, 4))  # not Klein-canonical
    assert cr_vertex(2, 1, 3, 4) == RatioVertex("cr", klein_canonical((2, 1, 3, 4)))


def test_vertex_validation_messages():
    for args, message in ((("xx", (1, 2, 3)), "kind must be 'sr' or 'cr'"),
                          (("sr", (1, 2)), "sr vertex needs 3 indices"),
                          (("cr", (1, 2, 3)), "cr vertex needs 4 indices"),
                          (("sr", (1, 1, 2)),
                           "indices must be pairwise distinct"),
                          (("sr", (0, 1, 2)), "indices must be positive"),
                          (("cr", (2, 1, 3, 4)),
                           "cross-ratio indices must be Klein-canonical")):
        with pytest.raises(ValueError) as err:
            RatioVertex(*args)
        assert str(err.value) == message
    with pytest.raises(ValueError) as err:
        DiffProduct(2, ())
    assert str(err.value) == "scalar must be +1 or -1"


def _ratio_values():
    """(value, an equal value built from equal fields, a different value,
    the tuple of its fields)."""
    dp = (((1, 2), 1), ((2, 3), -1))
    return [
        (sr_vertex(1, 2, 3), RatioVertex("sr", (1, 2, 3)),
         sr_vertex(2, 1, 3), ("sr", (1, 2, 3))),
        (cr_vertex(1, 2, 3, 4), RatioVertex(kind="cr", indices=(1, 2, 3, 4)),
         cr_vertex(1, 2, 4, 3), ("cr", (1, 2, 3, 4))),
        (DiffProduct(1, dp), DiffProduct(scalar=1, powers=dp),
         DiffProduct(-1, dp), (1, dp)),
    ]


@pytest.mark.parametrize("value, same, other, fields", _ratio_values(),
                         ids=lambda v: type(v).__name__)
def test_ratio_value_types_compare_by_fields(value, same, other, fields):
    assert value == same and not value != same
    assert hash(value) == hash(same) == hash(fields)
    assert value != other and not value == other
    assert value != fields and not value == fields
    assert len({value, same, other}) == 2
    assert copy.copy(value) == value and copy.deepcopy(value) == value
    assert pickle.loads(pickle.dumps(value)) == value
    before = repr(value)
    for name in ("kind", "indices", "scalar", "powers", "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, 0)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert repr(value) == before


def test_ratio_value_type_reprs():
    assert repr(sr_vertex(1, 2, 3)) == "RatioVertex(kind='sr', indices=(1, 2, 3))"
    assert repr(cr_vertex(2, 1, 4, 3)) == (
        "RatioVertex(kind='cr', indices=(1, 2, 3, 4))")
    assert repr(DiffProduct(-1, (((1, 2), 1),))) == (
        "DiffProduct(scalar=-1, powers=(((1, 2), 1),))")
    assert repr(DiffProduct(1, ())) == "DiffProduct(scalar=1, powers=())"


def test_vertices_order_as_kind_then_indices():
    vs = catalogue(5, "l")
    random.Random(3).shuffle(vs)
    for v, w in itertools.product(vs[:40], repeat=2):
        key_v, key_w = (v.kind, v.indices), (w.kind, w.indices)
        assert (v < w) == (key_v < key_w)
        assert (v <= w) == (key_v <= key_w)
        assert (v > w) == (key_v > key_w)
        assert (v >= w) == (key_v >= key_w)
    assert sorted(vs) == sorted(vs, key=lambda v: (v.kind, v.indices))
    with pytest.raises(TypeError):
        sr_vertex(1, 2, 3) < ("sr", (1, 2, 3))
    with pytest.raises(TypeError):
        DiffProduct(1, ()) < DiffProduct(-1, ())


def test_simple_ratio_diff_product():
    dp = as_diff_product(sr_vertex(3, 2, 1))
    assert dp.scalar == 1
    assert dict(dp.powers) == {(1, 3): 1, (1, 2): -1}


def test_cross_ratio_diff_product():
    dp = as_diff_product(cr_vertex(1, 2, 3, 4))
    assert dict(dp.powers) == {(1, 4): 1, (2, 3): 1, (2, 4): -1, (1, 3): -1}
    assert dp.scalar == 1


def test_klein_images_share_diff_product():
    for t in itertools.permutations((1, 2, 3, 4)):
        i, j, k, l = t
        dp = DiffProduct.from_factors(
            [((l, i), 1), ((j, k), 1), ((l, j), -1), ((i, k), -1)])
        canonical = as_diff_product(cr_vertex(*t))
        assert dp == canonical


def test_diff_product_group_laws():
    rng = random.Random(2)
    vs = catalogue(6, "l")
    for _ in range(50):
        a, b = rng.choice(vs), rng.choice(vs)
        da, db = as_diff_product(a), as_diff_product(b)
        assert da * db == db * da
        assert (da * db).divide(db) == da
        assert da.divide(da).powers == ()


def test_divides_examples():
    assert divides_oracle(sr_vertex(4, 2, 1), sr_vertex(3, 2, 1))
    assert divides_oracle(cr_vertex(1, 2, 3, 5), cr_vertex(1, 2, 3, 4))
    assert not divides_oracle(sr_vertex(2, 3, 1), sr_vertex(3, 2, 1))
    # product decomposition: sr_ijk = sr_ilk * sr_ljk
    lhs = as_diff_product(sr_vertex(3, 2, 1))
    rhs = as_diff_product(sr_vertex(3, 4, 1)) * as_diff_product(
        sr_vertex(4, 2, 1))
    assert lhs == rhs


def test_divides_requires_distinct():
    v = sr_vertex(1, 2, 3)
    with pytest.raises(ValueError):
        divides_oracle(v, v)
    with pytest.raises(ValueError):
        divides_rule(v, v)


def test_mixed_pair_divides():
    # cr_ijlk = sr_ijk * sr_jil
    i, j, k, l = 1, 2, 3, 4
    quotient = as_diff_product(cr_vertex(i, j, l, k)).divide(
        as_diff_product(sr_vertex(i, j, k)))
    assert quotient == as_diff_product(sr_vertex(j, i, l))
    assert divides_oracle(sr_vertex(i, j, k), cr_vertex(i, j, l, k))


def test_shared_base_simple_pairs_have_cross_quotient():
    # sharing both base marks forces the quotient into the four-mark family
    q = as_diff_product(sr_vertex(1, 2, 3)).divide(
        as_diff_product(sr_vertex(1, 2, 4)))
    assert q == as_diff_product(cr_vertex(1, 2, 4, 3))
    assert divides_oracle(sr_vertex(1, 2, 4), sr_vertex(1, 2, 3))
    assert divides_rule(sr_vertex(1, 2, 4), sr_vertex(1, 2, 3))


def test_rule_matches_oracle_small():
    for n in (3, 4, 5):
        cat = catalogue(n, "l")
        for a, b in itertools.combinations(cat, 2):
            assert divides_rule(a, b) == divides_oracle(a, b), (a, b)


def test_simple_rule_pairs_share_numerator_or_denominator():
    # within the three-mark family, dividing pairs with a simple quotient
    # share the top mark and one base mark
    cat = catalogue(5, "sr")
    for a, b in itertools.combinations(cat, 2):
        quotient = as_diff_product(b).divide(as_diff_product(a))
        if len(quotient.powers) == 2 and divides_oracle(a, b):
            i1, j1, k1 = a.indices
            i2, j2, k2 = b.indices
            assert k1 == k2 and (i1 == i2 or j1 == j2)


def test_complex_counts():
    c = build_complex(4, "cr")
    assert len(c.vertices) == 6 and len(c.divisibility_edges) == 0
    c = build_complex(3, "sr")
    assert len(c.vertices) == 6 and len(c.divisibility_edges) == 0
    c = build_complex(5, "cr")
    assert len(c.vertices) == 30 and len(c.divisibility_edges) == 60


def test_vertex_counts():
    from math import comb
    for n in (4, 5, 6, 7):
        assert len(catalogue(n, "sr")) == 6 * comb(n, 3)
        assert len(catalogue(n, "cr")) == 6 * comb(n, 4)


def test_complex_minimum_size():
    with pytest.raises(ValueError):
        build_complex(3, "cr")
    with pytest.raises(ValueError):
        build_complex(2, "sr")


def test_dimensions():
    for n in range(3, 8):
        assert complex_dimension(build_complex(n, "sr")) == n - 3
    for n in range(4, 8):
        assert complex_dimension(build_complex(n, "cr")) == n - 4
    for n in range(3, 8):
        assert complex_dimension(build_complex(n, "l")) == n - 3


def test_euler_characteristic_formula():
    for n in (4, 5, 6):
        c = build_complex(n, "cr")
        assert euler_characteristic(c) == n * (n - 1) * (n - 2) * (13 - 3 * n) // 4


@pytest.mark.parametrize("family, n", [
    *(("cr", n) for n in range(4, 9)),
    *(("sr", n) for n in range(3, 9)),
    *(("l", n) for n in range(3, 7)),
])
def test_complex_matches_pairwise_oracle(family, n):
    # vertices, edges, maximal simplices and every simplex against the
    # pairwise divisibility scan and the cliques networkx finds in it
    vertices, graph = divisibility_graph(n, family)
    c = build_complex(n, family)
    assert c.vertices == vertices
    assert c.divisibility_edges == sorted(
        tuple(sorted(e)) for e in graph.edges)
    assert c.maximal_simplices == sorted(
        tuple(sorted(q)) for q in networkx.find_cliques(graph))
    by_size = {}
    for q in networkx.enumerate_all_cliques(graph):
        by_size.setdefault(len(q), []).append(tuple(sorted(q)))
    assert c.all_simplices_by_dim() == [
        sorted(by_size[k]) for k in range(1, max(by_size) + 1)]


@pytest.mark.parametrize("family, n", [
    *(("cr", n) for n in range(4, 10)),
    *(("sr", n) for n in range(3, 10)),
    *(("l", n) for n in range(3, 9)),
])
def test_closed_f_vector_and_homology(family, n):
    # every simplex of dimension >= 1 lies in exactly one maximal simplex:
    # n(n-1)(n-2) frames of n-3 vertices for cr, 2n(n-1) stars of n-2 for
    # sr, and l on n marks counts as cr on n+1
    marks = n + 1 if family == "l" else n
    if family == "sr":
        f0 = n * (n - 1) * (n - 2)
        tops, size = 2 * n * (n - 1), n - 2
    else:
        f0 = 6 * comb(marks, 4)
        tops, size = marks * (marks - 1) * (marks - 2), marks - 3
    f = [f0] + [tops * comb(size, m + 1) for m in range(1, size)]
    c = build_complex(n, family)
    assert c.simplex_counts() == f
    chi = sum((-1) ** m * fm for m, fm in enumerate(f))
    rep = homology_report(c)
    assert rep["chi"] == chi
    # homotopy equivalent to a graph: nothing above degree one, no torsion
    assert not any(rep["betti"][2:])
    assert not any(rep["torsion"])
    betti = rep["betti"] + [0]
    assert betti[0] - betti[1] == chi
    if size >= 2:
        # cr and l are connected, so b_1 = 1 - chi; sr has one component
        # per top mark
        assert betti[0] == (n if family == "sr" else 1)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_l_is_cr_with_a_mark_at_infinity(n):
    # sr(i, j, k) -> cr(i, j, n+1, k) carries the l edges onto cr(n+1)'s
    l_vertices, l_graph = divisibility_graph(n, "l")
    cr_vertices, cr_graph = divisibility_graph(n + 1, "cr")
    cr_index = {v: i for i, v in enumerate(cr_vertices)}
    image = [cr_index[cr_vertex(v.indices[0], v.indices[1], n + 1,
                                v.indices[2]) if v.kind == "sr" else v]
             for v in l_vertices]
    assert sorted(image) == list(range(len(cr_vertices)))
    assert ({frozenset((image[a], image[b])) for a, b in l_graph.edges}
            == {frozenset(e) for e in cr_graph.edges})


def test_flag_property():
    rng = random.Random(9)
    c = build_complex(6, "cr")
    verts = c.vertices
    adj = {}
    for a, b in c.divisibility_edges:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    max_sets = [{verts[i] for i in t} for t in c.maximal_simplices]
    for _ in range(200):
        size = rng.randint(1, 3)
        idx = rng.sample(range(len(verts)), size)
        if all(b in adj.get(a, ()) for a, b in itertools.combinations(idx, 2)):
            chosen = {verts[i] for i in idx}
            assert any(chosen <= ms for ms in max_sets)


def test_maximal_simplices_are_maximal_cliques():
    c = build_complex(5, "cr")
    adj = {}
    for a, b in c.divisibility_edges:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    for ids in c.maximal_simplices:
        for a, b in itertools.combinations(ids, 2):
            assert b in adj.get(a, ())
        common = set(range(len(c.vertices)))
        for a in ids:
            common &= adj.get(a, set())
        assert not (common - set(ids))


def test_mixed_maximal_cliques_have_one_simple_vertex():
    for n in (4, 5, 6):
        c = build_complex(n, "l")
        for t in c.maximal_simplices:
            kinds = [c.vertices[i].kind for i in t]
            if "sr" in kinds and "cr" in kinds:
                assert kinds.count("sr") == 1


def test_complex_build_checks_pairs_without_oracle(monkeypatch):
    # built directly, past the build_complex cache
    def no_oracle(nu, mu):
        raise AssertionError("divides_oracle called by the build")

    monkeypatch.setattr(ratios, "divides_oracle", no_oracle)
    for family, marks in (("cr", (4, 5, 6)), ("sr", (3, 4, 5)),
                          ("l", (3, 4, 5))):
        for n in marks:
            c = ratios.RatioComplex(n, family)
            assert c.maximal_simplices == [
                tuple(t) for t in c.to_json()["maximal_simplices"]]


def _with_extra_top(monkeypatch, *extra):
    """Make the top source of RatioComplex also yield ``extra``."""
    top_keys = ratios._top_keys
    monkeypatch.setattr(
        ratios, "_top_keys",
        lambda n, family: [*top_keys(n, family),
                           tuple(v.indices for v in extra)])


def test_complex_build_refuses_a_non_dividing_top(monkeypatch):
    a, b = cr_vertex(1, 2, 3, 4), cr_vertex(1, 3, 2, 4)
    assert not divides_rule(a, b)
    _with_extra_top(monkeypatch, a, b)
    with pytest.raises(ValueError) as err:
        ratios.RatioComplex(5, "cr")
    assert repr(a) in str(err.value) and repr(b) in str(err.value)


def test_star_complex_build_refuses_a_cross_ratio_pair(monkeypatch):
    a, b = sr_vertex(1, 2, 3), sr_vertex(1, 2, 4)
    # a catalogue edge (their quotient is a cross ratio), not a pure one
    assert divides_rule(a, b)
    _with_extra_top(monkeypatch, a, b)
    with pytest.raises(ValueError) as err:
        ratios.RatioComplex(5, "sr")
    assert repr(a) in str(err.value) and repr(b) in str(err.value)


@pytest.mark.parametrize("family", ["cr", "sr", "l"])
def test_index_coded_tops_equal_the_vertex_sets(family):
    for n in range(4 if family == "cr" else 3, 10):
        c = ratios.RatioComplex(n, family)
        index = {v: i for i, v in enumerate(c.vertices)}
        assert c.maximal_simplices == sorted(
            tuple(sorted(index[v] for v in top))
            for top in vertex_set_tops(n, family))


def test_homology_values():
    rep = homology_report(build_complex(5, "cr"))
    assert rep["betti"] == [1, 31]
    assert rep["chi"] == -30
    rep = homology_report(build_complex(3, "sr"))
    assert rep["betti"] == [6]


@pytest.mark.parametrize("n, betti, chi", [
    (7, [1, 421, 0, 0], -420),
    (8, [1, 925, 0, 0, 0], -924),
])
def test_cross_ratio_homology_stays_in_degree_one(n, betti, chi):
    rep = homology_report(build_complex(n, "cr"))
    assert rep["betti"] == betti
    assert rep["torsion"] == [[]] * len(betti)
    assert rep["chi"] == chi


def test_boundary_of_boundary_vanishes():
    c = build_complex(6, "cr")
    by_dim = c.all_simplices_by_dim()
    assert len(by_dim) == 3
    for k in range(2, len(by_dim)):
        d1 = homology.boundary_matrix(by_dim[k - 2], by_dim[k - 1])
        d2 = homology.boundary_matrix(by_dim[k - 1], by_dim[k])
        for col in d2:
            image = {}
            for i, v in col.items():
                for r, w in d1[i].items():
                    image[r] = image.get(r, 0) + w * v
            assert not any(image.values())


def test_homology_independent_of_vertex_order():
    c = build_complex(5, "cr")
    by_dim = c.all_simplices_by_dim()
    rng = random.Random(31)
    relabel = list(range(len(c.vertices)))
    rng.shuffle(relabel)
    moved = [
        sorted(tuple(sorted(relabel[i] for i in s)) for s in level)
        for level in by_dim
    ]
    a = homology.homology_ranks(by_dim)
    b = homology.homology_ranks(moved)
    assert [x[0] for x in a] == [x[0] for x in b]
    assert [x[1] for x in a] == [x[1] for x in b]


def test_act_identity_and_divisibility_preserved():
    c = build_complex(5, "cr")
    ident = tuple(range(1, 6))
    s = make_simplex(c.vertices[i] for i in c.maximal_simplices[0])
    assert act(ident, s) == s
    rng = random.Random(13)
    for n in (5, 6):
        cc = build_complex(n, "l")
        sigmas = [tuple(rng.sample(range(1, n + 1), n)) for _ in range(3)]
        for a, b in cc.divisibility_edges:
            va, vb = cc.vertices[a], cc.vertices[b]
            for sigma in sigmas:
                assert divides_oracle(act(sigma, va), act(sigma, vb))


def test_act_klein_canonicalizes():
    swap = (2, 1, 3, 4)
    moved = act(swap, cr_vertex(1, 2, 3, 4))
    assert moved == cr_vertex(1, 2, 4, 3)


def test_involution():
    assert involution(sr_vertex(1, 2, 3)) == sr_vertex(2, 1, 3)
    for n in (5, 6, 7):
        for v in catalogue(n, "l"):
            assert involution(involution(v)) == v
    c = build_complex(6, "l")
    for a, b in c.divisibility_edges:
        assert divides_oracle(involution(c.vertices[a]),
                              involution(c.vertices[b]))


def test_normal_form_reference_simplices():
    m = 2
    sig, canon = normal_form(delta_s(m), n=6)
    assert canon == delta_s(m)
    sig, canon = normal_form(delta_c(m), n=6)
    assert canon == delta_c(m)


def test_normal_form_common_numerator_example():
    s = make_simplex([sr_vertex(1, 4, 2), sr_vertex(1, 5, 2)])
    _, canon = normal_form(s, n=5)
    assert canon == delta_s(1, sign=-1)


def test_simplex_requires_pairwise_divisibility():
    for vertices in ([sr_vertex(1, 2, 3), sr_vertex(2, 1, 3)], [],
                     [sr_vertex(1, 2, 3), sr_vertex(1, 2, 3)]):
        with pytest.raises(ValueError):
            make_simplex(vertices)


def test_mixed_chain_is_a_simplex():
    # one simple vertex extended by a compatible chain of cross vertices
    for n in (5, 6):
        vs = [sr_vertex(1, 2, 3)] + [cr_vertex(1, 2, l, 3)
                                     for l in range(4, n + 1)]
        s = make_simplex(vs)
        assert len(s) - 1 == n - 3


def test_normal_form_rejects_mixed():
    s = make_simplex([sr_vertex(1, 2, 3), cr_vertex(1, 2, 4, 3)])
    with pytest.raises(ValueError):
        normal_form(s)


def test_normal_form_rejects_shared_base_pairs():
    # pure simple vertices, but not a simplex of the pure complex
    s = make_simplex([sr_vertex(1, 2, 3), sr_vertex(1, 2, 4)])
    with pytest.raises(ValueError):
        normal_form(s)


def test_normal_form_rejects_marks_beyond_n():
    for s in (make_simplex([sr_vertex(1, 2, 5)]),
              make_simplex([cr_vertex(1, 2, 3, 5), cr_vertex(1, 2, 3, 6)])):
        with pytest.raises(ValueError):
            normal_form(s, n=4)


def test_normal_form_constant_on_orbits():
    rng = random.Random(37)
    pool = []
    for n in (5, 6, 7):
        c_sr = build_complex(n, "sr")
        c_cr = build_complex(n, "cr")
        for cc in (c_sr, c_cr):
            by_dim = cc.all_simplices_by_dim()
            for level in by_dim[1:]:
                for tup in level:
                    pool.append((n, make_simplex(
                        [cc.vertices[i] for i in tup])))
    for _ in range(200):
        n, s = pool[rng.randrange(len(pool))]
        sigma = tuple(rng.sample(range(1, n + 1), n))
        _, c1 = normal_form(s, n=n)
        _, c2 = normal_form(act(sigma, s), n=n)
        assert c1 == c2


def test_normal_form_matches_brute_orbit_key():
    # exhaustive relabeling agrees with the constructive classification
    n = 5
    for family, m in (("sr", 1), ("sr", 2), ("cr", 1)):
        c = build_complex(n, family)
        by_dim = c.all_simplices_by_dim()
        seen = {}
        for tup in by_dim[m]:
            s = make_simplex([c.vertices[i] for i in tup])
            _, canon = normal_form(s, n=n)
            key = brute_orbit_key(s, n, act)
            seen.setdefault(canon, set()).add(key)
        for canon, keys in seen.items():
            assert len(keys) == 1
        distinct = {min(keys) for keys in seen.values()}
        assert len(distinct) == len(seen)


def test_orbit_decomposition_counts():
    for n in (5, 6, 8, 9):
        for m in range(1, n - 2):
            dec = orbit_decomposition(n, "sr", m)
            assert len(dec) == 2
            assert len({rep for rep, _ in dec}) == 2
        for m in range(1, n - 3):
            dec = orbit_decomposition(n, "cr", m)
            assert len(dec) == 1
    assert len(orbit_decomposition(6, "sr", 0)) == 1
    assert len(orbit_decomposition(6, "cr", 0)) == 1


def test_normal_form_of_single_vertices():
    # a single vertex is read with its own frame
    for n in (5, 6):
        for family, reference in (("sr", delta_s(0)), ("cr", delta_c(0))):
            for v in catalogue(n, family):
                s = make_simplex([v])
                sigma, canonical = normal_form(s, n=n)
                assert canonical == reference
                assert act(sigma, s) == canonical


def test_orbit_decomposition_matches_validated_faces():
    for family, marks in (("sr", range(3, 8)), ("cr", range(4, 8))):
        for n in marks:
            top = complex_dimension(build_complex(n, family))
            for m in range(top + 1):
                assert orbit_decomposition(n, family, m) == \
                    orbit_decomposition_by_simplices(n, family, m)


def test_orbit_decomposition_skips_face_checks(monkeypatch):
    # every face lies in a maximal simplex checked when the complex was
    # built.  The complexes are built here and handed to
    # orbit_decomposition, so the test does not rest on the build_complex
    # cache; the first pass builds the (cached) reference simplices.
    n = 6
    complexes = {family: ratios.RatioComplex(n, family)
                 for family in ("sr", "cr")}
    monkeypatch.setattr(ratios, "build_complex",
                        lambda n_, family: complexes[family])
    first = {}
    for family, c in complexes.items():
        for m in range(complex_dimension(c) + 1):
            first[family, m] = orbit_decomposition(n, family, m)

    def no_oracle(nu, mu):
        raise AssertionError("divisibility re-checked after the build")

    monkeypatch.setattr(ratios, "divides_oracle", no_oracle)
    monkeypatch.setattr(ratios, "divides_rule", no_oracle)
    for (family, m), dec in first.items():
        assert orbit_decomposition(n, family, m) == dec


def test_orbit_decomposition_goes_through_normal_form(monkeypatch):
    # one public normal_form call per face, as the per-layer trace expects
    calls = []
    original = ratios.normal_form

    def counted(s, n=None):
        calls.append(s)
        return original(s, n)

    monkeypatch.setattr(ratios, "normal_form", counted)
    for family in ("sr", "cr"):
        c = build_complex(6, family)
        for m in range(complex_dimension(c) + 1):
            calls.clear()
            orbit_decomposition(6, family, m)
            assert len(calls) == c.simplex_counts()[m]


def test_normal_form_of_vertex_tuples():
    for family in ("sr", "cr"):
        c = build_complex(6, family)
        for faces in c.all_simplices_by_dim():
            for face in faces[::17]:
                vs = tuple(c.vertices[i] for i in face)
                sigma, canonical = normal_form(vs, n=6)
                assert act(sigma, vs) == canonical
    with pytest.raises(ValueError):
        normal_form((sr_vertex(3, 2, 1), cr_vertex(1, 2, 3, 4)), n=4)


def test_orbit_decomposition_sizes_sum():
    for family in ("sr", "cr"):
        n = 6
        c = build_complex(n, family)
        counts = c.simplex_counts()
        top = complex_dimension(c)
        for m in range(0, top + 1):
            dec = orbit_decomposition(n, family, m)
            assert sum(size for _, size in dec) == counts[m]


def test_orbit_decomposition_dimension_guard():
    for m in (4, -1):
        with pytest.raises(ValueError):
            orbit_decomposition(5, "cr", m)
    with pytest.raises(ValueError):
        orbit_decomposition(5, "l", 1)


def test_punctured_catalogue_counts():
    from math import comb
    for m in (1, 2, 3, 4):
        fns = enumerate_punctured(m)
        assert len(fns) == 6 * comb(m + 3, 4)


def test_punctured_single_mark_is_anharmonic_orbit():
    fns = enumerate_punctured(1)
    q = Fraction(5, 3)
    values = sorted(punctured_value(h, [q]) for h in fns)
    lam = q
    expected = sorted([lam, 1 / lam, 1 - lam, 1 / (1 - lam),
                       (lam - 1) / lam, lam / (lam - 1)])
    assert values == expected


def test_abc_three_variables_bound_one():
    rep = verify_abc(3, 1)
    assert rep["pass"]
    assert rep["counts"] == {"simple": 1, "double": 0, "other": 0}
    # the single family is the triangle of differences, up to scalars
    sol = rep["solutions"][0]
    assert sol["pattern"] == "simple"
    assert all(s != 0 for s in sol["scalars"])


def test_abc_four_variables_bound_two():
    rep = verify_abc(4, 2)
    assert rep["pass"]
    assert rep["counts"]["simple"] == 4  # one triangle per 3-subset
    assert rep["counts"]["double"] == 1  # the three pair-partitions
    assert rep["counts"]["other"] == 0
    double = [s for s in rep["solutions"] if s["pattern"] == "double"]
    matchings = {tuple(tuple(pair) for pair in p)
                 for p in double[0]["products"]}
    assert matchings == {((1, 2), (3, 4)), ((1, 3), (2, 4)),
                         ((1, 4), (2, 3))}


def test_abc_solutions_exclude_all_constant_triples():
    rep = verify_abc(4, 2)
    for sol in rep["solutions"]:
        assert any(sol["products"])


def test_abc_guards():
    with pytest.raises(ValueError):
        verify_abc(2, 1)
    with pytest.raises(ValueError):
        verify_abc(4, 0)
    with pytest.raises(CapacityError):
        verify_abc(6, 4)


def _abc_triples(n, bound):
    return comb(comb(comb(n, 2) + bound, bound), 3)


# every (n, bound) with at most 150k candidate triples
_ABC_SMALL = [(n, bound) for bound in range(1, 6) for n in range(3, 15)
              if _abc_triples(n, bound) <= 150_000]


@pytest.mark.parametrize("n,bound", _ABC_SMALL)
def test_abc_matches_brute_search(n, bound):
    assert json.dumps(verify_abc(n, bound)) == \
        json.dumps(verify_abc_brute(n, bound))


def _abc_accepted():
    """Every (n, bound) within the cap; the triple count grows with both."""
    out = []
    bound = 1
    while _abc_triples(3, bound) <= identities._ABC_TRIPLE_LIMIT:
        n = 3
        while _abc_triples(n, bound) <= identities._ABC_TRIPLE_LIMIT:
            out.append((n, bound))
            n += 1
        bound += 1
    return out


_ABC_ACCEPTED = _abc_accepted()


def test_abc_accepted_grid_reaches_the_slowest_call():
    assert (21, 1) in _ABC_ACCEPTED and (4, 4) in _ABC_ACCEPTED


@pytest.mark.parametrize("n,bound", _ABC_ACCEPTED)
def test_abc_plane_buckets_match_the_triple_scan(n, bound):
    assert json.dumps(verify_abc(n, bound)) == \
        json.dumps(verify_abc_triple_scan(n, bound))


def _cross(u, v):
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


_entry = st.integers(-4, 4)
_vector = st.tuples(_entry, _entry, _entry)


@settings(deadline=None, max_examples=400)
@given(_vector, _vector, _vector, _entry, _entry,
       st.sampled_from(["free", "span", "multiple of u", "negated v"]))
def test_plane_key_names_the_span(u, v, r, a, b, kind):
    w = {"free": r,
         "span": tuple(a * x + b * y for x, y in zip(u, v)),
         "multiple of u": tuple(a * x for x in u),
         "negated v": tuple(-y for y in v)}[kind]
    for x, y in ((u, v), (u, w)):
        key = _plane_key(x, y)
        if _cross(x, y) == (0, 0, 0):
            assert key is None
            continue
        # the primitive normal, first non-zero entry positive
        assert _cross(key, _cross(x, y)) == (0, 0, 0)
        assert gcd(*key) == 1 and next(k for k in key if k) > 0
        assert key == _plane_key(y, x)
    if _cross(u, v) != (0, 0, 0) and _cross(u, w) != (0, 0, 0):
        in_span = cofactor_det([list(u), list(v), list(w)]) == 0
        assert (_plane_key(u, v) == _plane_key(u, w)) == in_span


@pytest.mark.parametrize("n", [4, 5, 6])
def test_abc_bound_two_finds_simple_and_double_families(n):
    rep = verify_abc(n, 2)
    assert rep["pass"]
    assert rep["counts"] == {"simple": comb(n, 3), "double": comb(n, 4),
                             "other": 0}


@pytest.mark.parametrize("n", [7, 21])
def test_abc_bound_one_finds_every_triangle(n):
    rep = verify_abc(n, 1)
    assert rep["pass"]
    assert rep["counts"]["simple"] == comb(n, 3)


def test_abc_bound_four_adds_nothing_at_four_marks():
    assert verify_abc(4, 4)["counts"] == verify_abc(4, 2)["counts"]


def _rank(columns):
    """Rank over Q of the coefficient matrix whose columns are polynomials."""
    monos = sorted({m for p in columns for m in p.terms})
    rows = [[Fraction(p.terms.get(m, 0)) for p in columns] for m in monos]
    rank = 0
    for col in range(len(columns)):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]),
                     None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col] / rows[rank][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _has_full_kernel(polys):
    """Whether a*P + b*Q + c*R = 0 has a solution with a, b, c all
    non-zero: each column must lie in the span of the other two."""
    full = _rank(polys)
    return all(_rank(polys[:j] + polys[j + 1:]) == full for j in range(3))


def _products(n, min_degree, max_degree):
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    return st.lists(st.sampled_from(pairs), min_size=min_degree,
                    max_size=max_degree).map(lambda p: tuple(sorted(p)))


@settings(deadline=None, max_examples=150)
@given(st.integers(3, 5).flatmap(
    lambda n: st.lists(_products(n, 0, 3), min_size=3, max_size=3)))
def test_abc_mixed_degrees_have_no_full_kernel(triple):
    assume(len({len(p) for p in triple}) > 1)
    assert not _has_full_kernel([_expand_product(p) for p in triple])


@settings(deadline=None, max_examples=150)
@given(st.integers(3, 5).flatmap(
    lambda n: st.integers(1, 3).flatmap(
        lambda d: st.tuples(st.just(n), st.lists(
            _products(n, d, d), min_size=3, max_size=3)))))
def test_abc_nonsingular_values_leave_no_kernel(case):
    n, triple = case
    polys = [_expand_product(p) for p in triple]
    values = _three_point_values(triple, n)
    for k in (1, 2, 3):
        point = {"z%d" % i: i ** k for i in range(1, n + 1)}
        assert [v[k - 1] for v in values] == \
            [eval_terms(p, point) for p in polys]
    if cofactor_det([list(v) for v in values]):
        assert _rank(polys) == 3


def test_abc_accepted_triples_have_singular_values():
    seen = 0
    for n, bound in ((3, 3), (4, 2), (5, 2), (10, 1)):
        for sol in verify_abc_brute(n, bound)["solutions"]:
            triple = [tuple(map(tuple, p)) for p in sol["products"]]
            assert cofactor_det(
                [list(v) for v in _three_point_values(triple, n)]) == 0
            seen += 1
    assert seen > 100


def test_punctured_values_omit_zero_and_one():
    rng = random.Random(101)
    for m in (1, 2, 3):
        fns = enumerate_punctured(m)
        done = 0
        while done < 100:
            coords = [Fraction(rng.randint(-40, 40), rng.randint(1, 11))
                      for _ in range(m)]
            pool = set(coords)
            if len(pool) < m or pool & {Fraction(0), Fraction(1)}:
                continue
            for h in fns:
                val = punctured_value(h, coords)
                assert val not in (0, 1)
            done += 10

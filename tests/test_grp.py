import ast
import gc
import os
import random
import re
import weakref

import pytest

from psu38.gf64 import ALT_MODULI, DEFAULT_MODULUS, GF64
from psu38 import grp
from psu38.grp import (ClosureCapExceeded, SmallGroup, direct_product,
                       is_split_extension, iso_check, named_groups)
from psu38.harness import VerifyContext, run_claims
from psu38.psu import PElement

from oracles import (ObjGroup, Perm, ProjElement, affine_maps, boxed, class_sets, close,
                     conjugate, greedy, greedy_prefixes, iso_map, lambda_subgroups, obj,
                     perm_product, sequential_close, table_order)


def test_affine_reference_groups_are_every_affine_map(refs):
    """AGL_2(3), its GL_2(3) and AGL_1(3), generated from a few maps,
    hold exactly the affine maps that enumerating them gives."""
    for name, els in affine_maps().items():
        assert refs[name].handles() == els
    assert [len(refs[n]) for n in ("AGL23", "GL23", "AGL13")] == [432, 48, 6]


def test_closure_orders(ng):
    assert len(ng.Q1) == 9
    assert len(ng.Q2) == 27
    assert len(ng.Qstar) == 9
    assert len(ng.S) == 36
    assert len(ng.H1) == 432
    assert len(ng.H2) == 324
    assert len(ng.Qh1) == 27
    assert len(ng.Qh2) == 81
    assert len(ng.K1) == 1296
    assert len(ng.K2) == 972
    assert len(ng.H12) == 108
    assert len(ng.K12) == 324


def test_closure_of_identity(ng):
    triv = SmallGroup.generate([ng.K1.identity])
    assert len(triv) == 1


def test_closure_cap(ng, refs, monkeypatch):
    """generate closes at most grp.CLOSURE_CAP elements, as _close does
    its cap."""
    monkeypatch.setattr(grp, "CLOSURE_CAP", 100)
    with pytest.raises(ClosureCapExceeded):
        SmallGroup.generate(ng.K1.gens_list())
    # the cap is the largest order allowed
    for G in (ng.K2, refs["AGL23"]):
        gens = G.gens_list()
        ogens, e = [boxed(x, G.tab) for x in gens], boxed(G.identity, G.tab)
        assert len(close(ogens, e, cap=len(G))[0]) == len(G)
        monkeypatch.setattr(grp, "CLOSURE_CAP", len(G))
        assert len(SmallGroup.generate(gens)) == len(G)
        with pytest.raises(ClosureCapExceeded):
            close(ogens, e, cap=len(G) - 1)
        monkeypatch.setattr(grp, "CLOSURE_CAP", len(G) - 1)
        with pytest.raises(ClosureCapExceeded):
            SmallGroup.generate(gens)
    # PElements: the closure on packed keys, a bsmul per layer
    gens = ng.K2.gens_list()
    monkeypatch.setattr(grp, "CLOSURE_CAP", len(ng.K2))
    assert len(SmallGroup.generate(gens)) == len(ng.K2)
    monkeypatch.setattr(grp, "CLOSURE_CAP", len(ng.K2) - 1)
    with pytest.raises(ClosureCapExceeded):
        SmallGroup.generate(gens)


def test_lagrange_property(ng):
    for sub, sup in [(ng.Q1, ng.Q2), (ng.Q2, ng.H2), (ng.H12, ng.H1),
                     (ng.K12, ng.K2), (ng.Qh2, ng.K2), (ng.H1, ng.K1)]:
        assert sub.eset <= sup.eset
        assert len(sup) % len(sub) == 0


def test_center_and_derived(ng):
    zq2 = ng.Q2.center()
    assert len(zq2) == 3
    assert ng.Q2.derived().eset == zq2.eset
    assert ng.Q2.frattini_p(3).eset == zq2.eset
    assert ng.Q2.is_special(3)
    abelian = ng.Q1
    assert abelian.center().eset == abelian.eset
    assert len(ng.K1.center()) == 3
    assert len(ng.K2.center()) == 1


def test_structure_predicates(ng, refs):
    sp = ng.Q1.structure_predicates(3)
    assert sp["is_elementary_abelian"] and sp["order"] == 9
    sp = ng.Q2.structure_predicates(3)
    assert sp["is_special"] and sp["order"] == 27 and sp["exponent"] == 3
    triv = SmallGroup.generate([ng.K1.identity])
    assert triv.structure_predicates(3)["exponent"] == 1
    assert refs["C9"].structure_predicates(3)["is_cyclic"]
    assert not refs["C3xC3"].structure_predicates(3)["is_cyclic"]


def class_equation_ok(G: SmallGroup) -> bool:
    """Classes partition G and the singletons are exactly the center."""
    classes = class_sets(G)
    if sum(len(c) for c in classes) != len(G.elems):
        return False
    singles = {next(iter(c)) for c in classes if len(c) == 1}
    return singles == set(G.center().eset)


def test_class_equation(ng, refs):
    for G in (ng.Q2, ng.S, ng.H12, refs["Sym4"], refs["AGL23S"]):
        assert class_equation_ok(G)


def test_p_core_known_values(ng, refs):
    assert ng.K1.p_core(3).eset == ng.Qh1.eset
    assert ng.H1.p_core(3).eset == ng.Q1.eset
    assert ng.Q2.p_core(3).eset == ng.Q2.eset
    assert refs["AGL23"].p_core(3).eset == refs["V"].eset
    assert len(refs["Sym4"].p_core(2)) == 4
    assert len(refs["Sym3"].p_core(3)) == 3
    assert len(refs["Sym4"].p_core(5)) == 1
    assert len(refs["GL23"].p_core(2)) == 8  # quaternion O_2(GL_2(3))


def test_p_core_is_normal_and_maximal_among_witnesses(ng):
    # O_3(K2) = <sigma^2, A, B, C, E> of order 243, one step above Qh2
    oc = ng.K2.p_core(3)
    assert ng.K2.is_normal(oc)
    want = SmallGroup.generate(ng.Qh2.gens_list() + [ng.p["E"]])
    assert oc.eset == want.eset and len(oc) == 243
    # every normal 3-subgroup we can name is inside it
    for W in (ng.Q2, ng.Qstar, ng.Q1, ng.Qh2):
        if ng.K2.is_normal(W):
            assert W.eset <= oc.eset


def test_sylow(ng, refs):
    s = refs["AGL23"].sylow(3)
    assert len(s) == 27
    s2 = ng.K2.sylow(2)
    assert len(s2) == 4
    s3 = ng.K1.sylow(3)
    assert len(s3) == 81


def test_normalizer_centralizer(ng, refs):
    assert refs["AGL23"].normalizer(refs["AGL23"]).eset == refs["AGL23"].eset
    c = ng.K1.centralizer(ng.Qh1.gens_list())
    assert c.eset == ng.Qh1.eset  # C_{K1}(Qh1) = Qh1
    n = refs["AGL23"].normalizer(refs["S_syl3"])
    assert len(n) == 108


def test_intersect(ng):
    got = ng.H1.intersect(ng.H2)
    assert got.eset == ng.H12.eset
    assert len(got) == 108


def test_normal_closure(ng):
    nc = ng.H1.normal_closure([ng.p["B"]])
    assert ng.H1.is_normal(nc)
    assert len(nc) == 9  # <B>^H1 = Q1


def test_conjugate_within_the_table(ng, refs):
    """G^g for an element g of G's table, as element products give it and,
    on K1, as the oracle's batched key conjugation does, with G's
    generators conjugated as its generators; ValueError for an element
    the table lacks."""
    for G, g in ((ng.Q2, ng.K1.elems[100]), (refs["V"], refs["AGL23"].elems[200])):
        gens = G.gens_list()
        C = G.conjugate(g)
        b = boxed(g, G.tab)
        assert C.eset == {b.inv() * boxed(x, G.tab) * b for x in G.elems}
        assert C.gens_list() == [b.inv() * boxed(x, G.tab) * b for x in gens]
    g = ng.K1.elems[100]
    assert ng.Q2.conjugate(g).eset == conjugate(ng.Q2, g).eset
    outside = next(x for x in ng.K2.elems if x not in ng.K1)
    transposition = (1, 0) + tuple(range(2, 9))
    for G, g in ((ng.Q2, outside), (refs["V"], transposition)):
        with pytest.raises(ValueError):
            G.conjugate(g)


def _bfs_close(gens, identity):
    """Closure by a plain BFS under every generator: the oracle for _close."""
    gens, identity = list(map(boxed, gens)), boxed(identity)
    els, frontier = {identity}, [identity]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = x * g
                if y not in els:
                    els.add(y)
                    nxt.append(y)
        frontier = nxt
    return els


def test_close_with_redundant_generators(ng, refs):
    K1 = ObjGroup.of(ng.K1)
    assert set(close(table_order(K1), K1.identity)[0]) == ng.K1.eset
    assert close([K1.identity], K1.identity) == ([ng.K1.identity], [0], [-1], {})
    rng = random.Random(7)
    for G in (ng.K1, ng.K2, ng.H2, refs["AGL23"], refs["SP2"]):
        O = ObjGroup.of(G)
        els = table_order(O)
        for _ in range(4):
            gens = rng.sample(els, rng.randrange(1, 6))
            assert set(close(gens, O.identity)[0]) == _bfs_close(gens, O.identity)


def _assert_closure_tree(gens, identity):
    """_close's tree: each element once, the identity first, every parent
    before its child with elems[i] == elems[parent[i]] * gens[genidx[i]],
    and the span of each prefix of gens a prefix of elems."""
    gens = list(map(boxed, gens))
    elems, parent, genidx, _ = close(gens, identity)
    assert elems[0] == identity and len(set(elems)) == len(elems)
    assert len(parent) == len(genidx) == len(elems)
    for i in range(1, len(elems)):
        assert parent[i] < i
        assert elems[i] == elems[parent[i]] * gens[genidx[i]]
    for k in range(1, len(gens) + 1):
        span = _bfs_close(gens[:k], identity)
        assert set(elems[:len(span)]) == span
    return elems


def test_close_tree_and_prefix_spans(ng, refs):
    rng = random.Random(11)
    groups = [ng.Q2, ng.S, ng.H1, ng.H2, ng.Qh2, ng.K1, ng.K2, refs["AGL23"],
              refs["AGL23S_sharp"], refs["SP2"], refs["Dih18xC2"],
              refs["C3xAGL23S"]]
    for G in groups:
        O = ObjGroup.of(G)
        ogens = [boxed(x, G.tab) for x in G.gens_list()]
        assert set(_assert_closure_tree(ogens, O.identity)) == G.eset
        gens = rng.sample(table_order(O), 4)  # random, often redundant
        assert set(_assert_closure_tree(gens, O.identity)) == _bfs_close(gens, O.identity)
        H = SmallGroup.generate(G.gens_list())
        assert (H.elems, H.parent, H.genidx) == close(ogens, O.identity)[:3]


def test_layered_close_equals_the_element_at_a_time_closure(ng, refs):
    """_close, which maps whole layers, gives the tree and the right table
    of the element-at-a-time closure, on table elements and on Perms, for
    the groups' generators and for random, often redundant ones."""
    rng = random.Random(13)
    for G in (ng.Q2, ng.H2, ng.K1, refs["AGL23"], refs["SP2"], refs["C3xAGL23S"]):
        O = ObjGroup.of(G)
        for gens in ([boxed(x, G.tab) for x in G.gens_list()],
                     rng.sample(table_order(O), 4)):
            assert close(gens, O.identity) == sequential_close(gens, O.identity)


def test_normal_closure_of_many_generators(ng):
    # a conjugation-closed seed closed by the plain BFS, as before
    rng = random.Random(3)
    for G in (ng.K1, ng.K2, ng.H1, ng.H2, ng.Q2, ng.S):
        O = ObjGroup.of(G)
        xs = rng.sample(table_order(O), 2)
        seed = set(xs)
        gens = [boxed(g, G.tab) for g in G.gens_list()]
        while True:
            more = {g.inv() * x * g for x in seed for g in gens} - seed
            if not more:
                break
            seed |= more
        expected = _bfs_close(sorted(seed), O.identity)
        nc = G.normal_closure(xs)
        assert nc.eset == expected
        assert G.normal_closure(sorted(seed)).eset == expected
        assert G.is_normal(nc)


def test_quotient(ng, refs):
    q = ng.H2.quotient(ng.Q2)
    assert len(q) == 12
    assert iso_check(q, refs["Sym3xC2"])
    zq2 = ng.H2.subgroup(ng.Q2.center().eset)
    q2 = ng.H2.quotient(zq2)
    assert len(q2) == 108
    with pytest.raises(ValueError):
        ng.H1.quotient(ng.S.intersect(ng.H1))  # not normal


def test_perm_basics():
    p = Perm((1, 2, 0))
    q = Perm((0, 2, 1))
    assert p * q == tuple(q[i] for i in p)
    assert p * p.inv() == (0, 1, 2)


@pytest.mark.parametrize("n", [0, 1, 2, 9, 12, 30, 108])
def test_perm_product_equals_the_list_product(n):
    rng = random.Random(n)
    perms = [Perm(rng.sample(range(n), n)) for _ in range(12)]
    for p in perms:
        for q in perms:
            r = p * q
            assert type(r) is Perm
            assert r == perm_product(p, q) and hash(r) == hash(perm_product(p, q))


def test_degree_one_perms_generate_and_quotient(refs):
    e = (0,)
    G = SmallGroup.generate([e])
    assert G.elems == [e] and type(G.identity) is tuple
    assert G.quotient(G).elems == [e]
    # the quotient by the whole group acts on its one coset
    for N in (refs["Sym4"], refs["AGL23S"]):
        Q = N.quotient(N)
        assert Q.elems == [e] and Q.gens_list() and iso_check(Q, G)


def test_element_orders_equal_the_power_walk(ng, refs):
    """Table.order orders all of <x> from one walk; each order equals
    the length of x's own walk back to the identity."""
    for G in (refs["C3xAGL23"], refs["Dih18xC2"], ng.K12, ng.S):
        # a new table, with no orders known yet
        G = SmallGroup.generate(G.gens_list())
        assert not any(G.tab.orders)
        for x in ObjGroup.of(G).elems:
            r, o = x, 1
            while r != G.identity:
                r, o = r * x, o + 1
            assert G.tab.order(G.tab.at(x)) == o

def test_sp2_model(refs):
    g = refs["SP2"]
    assert len(g) == 27
    assert g.exponent() == 9
    assert g.is_extraspecial(3)
    assert not iso_check(g, direct_product(refs["C3"], refs["C3"], refs["C3"]))
    assert not iso_check(g, direct_product(refs["C9"], refs["C3"]))


def test_quotient_is_regular_action_on_cosets(ng, refs):
    rng = random.Random(5)
    cases = [(ng.Q2, ng.Q2.center()), (ng.H2, ng.Q2), (ng.S, ng.S.center()),
             (refs["AGL23"], refs["V"]), (refs["Sym4"], refs["Sym4"].p_core(2))]
    for G, N in cases:
        N = G.subgroup(N.eset)
        Q = G.quotient(N)
        assert len(Q) * len(N) == len(G)
        index, reps = G._coset_index(N)
        at = G.tab.at
        assert len(reps) == len(Q) and set(index.values()) == set(range(len(Q)))
        assert set(index) == G.iset and {index[at(n)] for n in N.elems} == {0}
        # Q acts regularly on the cosets: q is fixed by where it sends N
        assert sorted(q[0] for q in Q.elems) == list(range(len(Q)))
        # g -> its coset's perm is a homomorphism onto Q
        image = {q[0]: q for q in ObjGroup.of(Q).elems}
        els = ObjGroup.of(G).elems
        for _ in range(30):
            a, b = rng.choice(els), rng.choice(els)
            assert image[index[at(a * b)]] == image[index[at(a)]] * image[index[at(b)]]
        assert iso_check(G.quotient(G.subgroup([G.identity])), G)


def test_reference_group_isos(refs):
    assert iso_check(refs["AGL13"], refs["Sym3"])
    assert iso_check(refs["PGL23"], refs["Sym4"])
    assert iso_check(refs["Sym3xC2"], refs["C2xAGL13"])
    assert not iso_check(refs["C9"], refs["C3xC3"])
    assert not iso_check(refs["Dih18"], direct_product(refs["C3"], refs["Sym3"]))
    assert not iso_check(refs["SP2"], direct_product(refs["C3"], refs["C3"], refs["C3"]))
    assert not iso_check(refs["AGL23S_sharp"], refs["AGL23S_star"])


def test_quotient_and_pgl23_check_their_orders(refs):
    """The quotient's order check fails when the cosets are of another
    subgroup than the N it is given, and PGL_2(3) is refused from a group
    whose centre is not of order 2."""
    S4 = refs["Sym4"]
    N = S4.p_core(2)
    assert len(S4._quotient(N, *S4._coset_index(N))) == 6
    with pytest.raises(AssertionError, match=re.escape("|G/N| is not |G|/|N|")):
        S4._quotient(S4, *S4._coset_index(N))
    with pytest.raises(AssertionError, match=re.escape("Z(GL2(3)) does not have order 2")):
        grp.pgl23_group(grp.cyclic_group(3))


def test_sylow_growth_checks_its_candidates(monkeypatch):
    """With every element's order misread, Sylow growth finds no candidate
    (5 divides no power of 3), or grows P by an element of order 2."""
    for order, name in ((5, "sylow growth stalled"), (1, "P<x> is not a p-group")):
        G = grp.sym_group(4)
        monkeypatch.setattr(G.tab, "order", lambda x: order)
        with pytest.raises(AssertionError, match=re.escape(name)):
            G.sylow(3)


def test_iso_witness_is_homomorphism(ng, refs):
    """The map that iso_check found (rebuilt by oracles.iso_map) maps G1
    onto G2, so it is a bijection, and keeps m(x g) = m(x) m(g) for every
    x and every generator g, so it is a homomorphism.  In an elementary abelian group every candidate image
    passes the invariant filters, so there the search meets non-injective
    maps first."""
    e27 = direct_product(refs["C3"], refs["C3"], refs["C3"])
    for G1, G2 in ((refs["AGL13"], refs["Sym3"]), (ng.H1, refs["AGL23"]),
                   (ng.K12, refs["C3xAGL23S"]), (refs["AGL23S"], ng.H12),
                   (ng.Q1, refs["C3xC3"]), (e27, e27)):
        m = iso_map(G1, G2)
        assert m is not None
        assert set(m) == G1.eset and set(m.values()) == G2.eset
        for a in (boxed(x, G1.tab) for x in G1.elems):
            for b in (boxed(x, G1.tab) for x in G1.gens_list()):
                assert m[a * b] == m[a] * m[b]
    assert iso_map(refs["AGL23S_sharp"], refs["AGL23S_star"]) is None


def test_core_and_classes_against_plain_oracles(ng, refs):
    def conj(x, g):
        return g.inv() * x * g

    cases = [(ng.H2, ng.H12), (ng.H1, ng.H1.sylow(3)), (ng.H1, ng.H1.sylow(2)),
             (refs["AGL23"], refs["GL23"]), (refs["Sym4"], refs["Sym4"].sylow(2)),
             (refs["Sym4"], refs["Sym4"].sylow(3))]
    for G, H in cases:
        els, hs = ObjGroup.of(G).elems, [boxed(h, G.tab) for h in H.elems]
        want = frozenset.intersection(
            *(frozenset(conj(h, g) for h in hs) for g in els))
        assert G.core(H).eset == want
    for G in (ng.Q2, ng.S, ng.H12, refs["Sym4"], refs["AGL23S"]):
        els = ObjGroup.of(G).elems
        want = {frozenset(conj(x, g) for g in els) for x in els}
        got = class_sets(G)
        assert set(got) == want and len(got) == len(want)
        first = G.tab.find
        assert ([min(c, key=first) for c in got]
                == sorted((min(c, key=first) for c in want), key=first))


def test_iso_reflexive_symmetric(ng, refs):
    assert iso_check(ng.S, ng.S)
    a = iso_check(ng.H12, refs["AGL23S"])
    b = iso_check(refs["AGL23S"], ng.H12)
    assert a and b


def test_v0_is_center_of_sylow(refs):
    assert refs["V0"].eset == refs["S_syl3"].center().eset
    assert len(refs["V0"]) == 3


def test_sharp_star_defining_conditions(refs):
    agl_s = refs["AGL23S"]
    v, v0, s = refs["V"], refs["V0"], refs["S_syl3"]
    vs = ObjGroup.of(v).elems
    for name, want_cvq_is_s in (("AGL23S_sharp", True), ("AGL23S_star", False)):
        X = refs[name]
        assert len(X) == 54
        c_v0 = X.centralizer(v0.elems)
        c_vq = X.subgroup(
            [x for x in ObjGroup.of(X).elems
             if all((x.inv() * t * x) * t.inv() in v0.eset for t in vs)]
        )
        if want_cvq_is_s:
            assert c_vq.eset == s.eset and len(c_v0) == 54
        else:
            assert c_v0.eset == s.eset and len(c_vq) == 54
        assert {a * b for a in ObjGroup.of(c_v0).elems
                for b in c_vq.elems} == set(X.eset)


def test_split_extension_known_cases(ng, refs):
    agl = refs["AGL23"]
    v = refs["V"]
    comp = is_split_extension(agl, v)
    assert len(comp) == 48 and len(comp.eset & v.eset) == 1
    c9 = refs["C9"]
    c3 = c9.subgroup([x for x in c9.elems if c9.tab.order(c9.tab.at(x)) in (1, 3)])
    assert is_split_extension(c9, c3) is None
    # the trivial and the whole group always split, with each other as complement
    triv = agl.subgroup([agl.identity])
    assert is_split_extension(agl, triv).eset == agl.eset
    assert is_split_extension(agl, agl).eset == triv.eset


def test_split_extension_four_construction_cases(ng):
    assert is_split_extension(ng.H1, ng.Q1) is not None
    assert is_split_extension(ng.K1, ng.Qh1) is not None
    assert is_split_extension(ng.H2, ng.Q2) is None
    assert is_split_extension(ng.K2, ng.Qh2) is None


def test_direct_product(refs):
    dp = direct_product(refs["C3"], refs["Sym3"])
    assert len(dp) == 18
    assert len(dp.center()) == 3


def test_h_part(ng):
    h1 = ng.h_part(ng.K1)
    assert h1.eset == ng.H1.eset
    h2 = ng.h_part(ng.K2)
    assert h2.eset == ng.H2.eset


def test_lambda_subgroups(ng):
    assert len(ng.Lambda) == 3
    assert any(L.eset == ng.Q1.eset for L in ng.Lambda)
    for L in ng.Lambda:
        assert L.is_elementary_abelian(3) and len(L) == 9
        assert L.eset != ng.Qstar.eset


@pytest.mark.parametrize("modulus", (DEFAULT_MODULUS,) + ALT_MODULI, ids=hex)
def test_lambda_subgroups_equal_the_capped_closures(ng, modulus):
    """The subgroups {a^i b^j} of commuting order-3 pairs are those that
    closing every pair of Q2's elements by element products finds, in the
    same order."""
    if modulus != DEFAULT_MODULUS:
        ng = named_groups(GF64(modulus))
    Q2 = ObjGroup.of(ng.Q2)
    want = lambda_subgroups(Q2, ObjGroup.of(ng.Qstar))
    assert len(want) == 3
    assert [L.idx for L in ng.Lambda] == [[Q2.index(x) for x in table_order(L)] for L in want]
    assert all(L.tab is ng.Q2.tab for L in ng.Lambda)


def test_generating_set_roundtrip(ng):
    """The greedy generating set (gens_list of a group cut by indices,
    which has no generators of its own) generates the group."""
    for G in (ng.S, ng.H12, ng.Q2):
        gens = G._sub(G.idx).gens_list()
        H = SmallGroup.generate(gens)
        assert H.eset == G.eset
        assert len(gens) <= 6


def test_greedy_is_the_prefix_loop_in_one_closure(ng, refs):
    """_greedy keeps each candidate outside the span of those before it,
    with the span ends and tree of closing every prefix, also over
    redundant and repeated candidates."""
    for G in (ng.Q2, ng.H12, refs["AGL23S"], refs["Sym4"]):
        O = ObjGroup.of(G)
        els = table_order(O)
        for cands in (els, els[::-1], [boxed(x, G.tab) for x in G.gens_list()] * 2):
            assert greedy(cands, O.identity) == greedy_prefixes(cands, O.identity)


def test_generating_set_rejects_an_unclosed_set(refs):
    S4 = refs["Sym4"]
    G = S4.subgroup(S4.elems[:5])
    assert len(G) == 5
    with pytest.raises(AssertionError, match="element set is not closed under multiplication"):
        G.gens_list()


def _assert_right_table(gens, identity, cap=None):
    """_close's right table: one row per kept generator (those not in the
    span of the ones before), with right[gi][i] the index of
    elems[i] * gens[gi]."""
    gens = list(map(boxed, gens))
    elems, parent, genidx, right = close(gens, identity, cap)
    index = {x: i for i, x in enumerate(elems)}
    kept = [gi for gi, g in enumerate(gens)
            if g not in _bfs_close(gens[:gi], identity)]
    assert sorted(right) == kept == sorted(set(genidx[1:]))
    for gi in kept:
        assert right[gi] == [index[x * gens[gi]] for x in elems]
    return elems, right


def test_close_records_the_right_multiplication_table(ng, refs):
    """On plain PElements, on the elements of K1's, K2's and H2's tables
    (TabElements) and on Perms, with a redundant generator, and at the cap
    boundary."""
    p = ng.p
    ident = ng.K1.identity
    AB = p["A"] * p["B"]
    elems, right = _assert_right_table([p["A"], p["B"], AB, p["C"]], ident)
    assert len(elems) == 27 and 2 not in right
    assert all(type(x) is PElement for x in elems)
    K2 = ObjGroup.of(ng.K2)
    gens = K2.gens + [K2.gens[0] * K2.gens[1]]
    elems, right = _assert_right_table(gens, K2.identity)
    assert elems == ng.K2.elems and len(gens) - 1 not in right
    for G in (ng.K1, ng.H2, refs["AGL23"], refs["C3xAGL23S"]):
        gens = [boxed(x, G.tab) for x in G.gens_list()]
        gens = gens[:1] + [gens[0] * gens[0]] + gens[1:]
        e = boxed(G.identity, G.tab)
        elems, right = _assert_right_table(gens, e, cap=len(G))
        assert len(elems) == len(G) and 1 not in right
        with pytest.raises(ClosureCapExceeded):
            close(gens, e, cap=len(G) - 1)


def test_generate_over_plain_pelements_is_a_table_group(ng):
    """generate() over PElements closes a new table, with the same keys,
    tree and generators as the closure over the oracle's products; its
    elements are PElements, and its index products and inverses are the
    oracle's."""
    p = ng.p
    gens = [p["A"], p["B"], p["C"], p["F"]]
    G = SmallGroup.generate(gens)
    elems, parent, genidx, _ = close([obj(x) for x in gens], obj(ng.K1.identity))
    tab = G.tab
    assert [x.key for x in G.elems] == [x.key for x in elems]
    assert (G.parent, G.genidx) == (parent, genidx)
    assert all(type(x) is PElement for x in G.elems + G.gens_list())
    assert tab is not ng.K1.tab and tab is not ng.K2.tab
    assert [x.key for x in G.gens_list()] == [x.key for x in gens]
    for i, x in zip(G.idx, elems):
        assert tab.keys[tab.inv[i]] == x.inv().key
        for j, y in zip(G._gens, G.gens_list()):
            assert tab.keys[tab.mul(i, j)] == (x * obj(y)).key


def test_table_products_and_inverses_equal_pelement_ones(ng):
    """Within K1 and within K2, the index products tab.mul and inverses
    tab.inv are the products and inverses of the oracle's Python
    elements."""
    rng = random.Random(41)
    for K in (ng.K1, ng.K2):
        tab = K.tab
        for _ in range(1000):
            i, j = rng.choice(K.idx), rng.choice(K.idx)
            x, y = obj(tab.elems[i]), obj(tab.elems[j])
            assert tab.keys[tab.mul(i, j)] == (x * y).key
            assert tab.keys[tab.inv[i]] == x.inv().key
        assert all(tab.mul(i, tab.inv[i]) == 0 for i in K.idx)
        assert all(tab.keys[tab.inv[i]] == obj(x).inv().key
                   for i, x in zip(K.idx, K.elems))


def test_element_application_equals_products_on_generators_and_others(ng, refs):
    """right_of(h) and conj_of(h), a row lookup for a generator and a walk
    along h's path for any other h, agree with the products of the table
    at every x: x*h, and h^-1 x h as conj gives it and as two products
    give it.  On K1, K2 and three permutation tables, for every generator
    and every ninth other element (the identity among them)."""
    for G in (ng.K1, ng.K2, refs["AGL23"], refs["C3xAGL23"], refs["Sym4"]):
        tab = G.tab
        gens = sorted(R[0] for R in tab.rows)
        others = [h for h in range(tab.n) if len(tab.path[h]) != 1]
        assert gens and len(others) + len(gens) == tab.n
        mul, inv, xs = tab.mul, tab.inv, range(tab.n)
        for h in gens + others[::9]:
            right, conj = tab.right_of(h), tab.conj_of(h)
            assert [right(x) for x in xs] == [mul(x, h) for x in xs]
            c = [conj(x) for x in xs]
            assert c == [tab.conj(x, h) for x in xs]
            assert c == [mul(mul(inv[h], x), h) for x in xs]


def test_table_fallback_calls_the_current_pelement_product(ng, monkeypatch):
    """Products in a table never call PElement.__mul__: not inside K1 or
    K2, and not for K12's elements in either ambient table.  D.E, which
    no table holds, is a plain PElement product: it calls the current
    PElement.__mul__ once and equals the oracle's product."""
    calls = []
    mul = PElement.__mul__

    def counted(a, b):
        calls.append((a.key, b.key))
        return mul(a, b)
    monkeypatch.setattr(PElement, "__mul__", counted)
    t1, t2 = ng.K1.tab, ng.K2.tab
    D, E = ng.p["D"], ng.p["E"]
    assert t1.find(D) is not None and t2.find(D) is None
    assert t2.find(E) is not None and t1.find(E) is None
    t1.keys[t1.mul(7, 9)]
    t2.keys[t2.mul(t2.inv[9], 9)]
    x, y = ng.K12.elems[5], ng.K12.elems[9]
    for tab in (t1, t2):
        assert tab.keys[tab.mul(tab.at(x), tab.at(y))] == (obj(x) * obj(y)).key
    assert calls == []
    assert (D * E).key == (obj(D) * obj(E)).key
    assert calls == [(D.key, E.key)]


def test_table_elements_compare_and_hash_as_pelements(ng):
    """The elements of K1 and K2 are PElements: equal, hashed and ordered
    by key, as a fresh PElement with the same key is."""
    rng = random.Random(47)
    pool = ng.K1.elems + ng.K2.elems

    def fresh(x):
        return PElement(x.ops, x.key)
    for _ in range(500):
        x, y = rng.choice(pool), rng.choice(pool)
        px, py = fresh(x), fresh(y)
        assert x == px and px == x and hash(x) == hash(px)
        assert (x == y) == (px == py) and (x != y) == (px != py)
        assert (x < y) == (px < py)
    assert sorted(pool) == sorted(pool, key=lambda x: x.key)
    assert {x: 1 for x in pool} == {fresh(x): 1 for x in pool}


# the generators named_groups gives each group, in order
NAMED_GENS = {
    "Q1": "A B", "Q2": "A B C", "Qstar": "B C", "S": "E F sigma3",
    "H1": "A B C D sigma3", "H2": "A B C E F sigma3", "Qh1": "A B sigma2",
    "Qh2": "A B C sigma2", "K1": "A B C D sigma3 sigma2",
    "K2": "A B C E F sigma3 sigma2",
}


def test_named_groups_are_the_pelement_closures_over_table_elements(ng):
    """Each named group has the keys of elems, gens, parent and genidx of
    the closure of its generators over the oracle's Python products, and
    lies in its ambient group's table, K1's or K2's, whose elements are
    PElements."""
    def keys(xs):
        return [x.key for x in xs]

    ident = obj(ng.K1.identity)
    # each named group's choices follow its ambient group's table order
    where = {}
    for name in ("K1", "K2"):
        elems = close([obj(ng.p[n]) for n in NAMED_GENS[name].split()], ident)[0]
        where[name] = {x: i for i, x in enumerate(elems)}.__getitem__
    old = {}
    for name, gens in NAMED_GENS.items():
        gens = [obj(ng.p[n]) for n in gens.split()]
        elems, parent, genidx, _ = close(gens, ident)
        assert all(type(x) is ProjElement for x in elems)
        G = getattr(ng, name)
        ambient = "K2" if name in ("S", "H2", "Qh2", "K2") else "K1"
        old[name] = ObjGroup(elems, gens, ident, index=where[ambient])
        assert keys(G.elems) == keys(elems) and keys(G.gens_list()) == keys(gens)
        assert G.parent == parent and G.genidx == genidx
        assert G.tab is getattr(ng, ambient).tab
        assert all(type(x) is PElement for x in G.elems + G.gens_list())
    for name, a, b in (("H12", "H1", "H2"), ("K12", "K1", "K2")):
        assert keys(getattr(ng, name).elems) == keys(old[a].intersect(old[b]).elems)
    lam = lambda_subgroups(old["Q2"], old["Qstar"])
    assert [keys(L.elems) for L in ng.Lambda] == [keys(L.elems) for L in lam]


@pytest.mark.parametrize("modulus", (DEFAULT_MODULUS,) + ALT_MODULI)
def test_k1_k2_tables_equal_the_oracle_closure(ng, modulus):
    """K1's and K2's tables, closed on packed keys one layer at a time by
    the kernels, are the element-at-a-time closures over the oracle's
    Python value products: the keys in discovery order, parent, genidx and
    the right rows."""
    if modulus != DEFAULT_MODULUS:
        ng = named_groups(GF64(modulus))
    for name in ("K1", "K2"):
        gens = [obj(ng.p[n]) for n in NAMED_GENS[name].split()]
        elems, parent, genidx, right = sequential_close(gens, obj(ng.p["Z"]))
        tab = getattr(ng, name).tab
        assert tab.keys == [x.key for x in elems]
        assert (tab.parent, tab.genidx) == (parent, genidx)
        assert tab.rows == list(right.values())


# what multiplies GF(64) matrices: the numpy tables and the kernels of
# fastops, and the Python arithmetic that now lives in tests/oracles.py
TABLES = {"MUL", "MULF", "FROB"}
PRODUCTS = {"bmm", "bsmul", "binv", "bpkeys", "Element", "_product", "_inverse",
            "_canonical_mat", "value_product", "canonicalize"}


def test_fastops_is_the_one_matrix_arithmetic():
    """No module of src/psu38 but fastops subscripts the product or
    Frobenius tables or defines a matrix product, and none keeps tuple
    copies of the tables: the kernels are the one implementation of GF(64)
    matrix products, inverses and canonical keys (the Python one is the
    test oracle).  gf64 builds the tables as whole arrays."""
    src = os.path.join(os.path.dirname(__file__), "..", "src", "psu38")
    for name in sorted(os.listdir(src)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(src, name)) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            assert not (isinstance(node, ast.Attribute)
                        and node.attr in ("mulrows", "frobrows")), name
            if name == "fastops.py":
                continue
            if isinstance(node, ast.Subscript):
                v = node.value
                assert getattr(v, "attr", getattr(v, "id", None)) not in TABLES, (
                    name, node.lineno)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                assert node.name not in PRODUCTS, (name, node.name)


def test_tables_are_freed_when_their_context_is_dropped():
    """A table holds its elements and no element refers to its table, so
    with the cyclic garbage collector off, K1's table goes as soon as the
    context that built it does: after claims have filled the engine's
    caches and the isomorphism memos, and with its elements still
    alive."""
    gc.collect()
    gc.disable()
    try:
        ctx = VerifyContext()
        assert run_claims(ctx, claim_filter="L3.2,L3.4,L3.5,L3.6.i,RG")["overall"]
        tabs = [ctx.ng.K1.tab, ctx.ng.K2.tab, ctx.refs["AGL23"].tab]
        refs = [weakref.ref(t) for t in tabs]
        kept = ctx.ng.K1.elems[5]
        del ctx, tabs
        assert [r() for r in refs] == [None, None, None]
        assert kept.key and type(kept) is PElement
    finally:
        gc.enable()

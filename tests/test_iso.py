"""iso_check against the search it replaced, on every pair that a warm run
of the whole catalog asks, and the scope of its memo."""

from types import SimpleNamespace

import pytest

from psu38 import amalgam, grp, harness
from psu38.grp import Perm, direct_product, iso_check, reference_groups
from psu38.harness import VerifyContext, run_claims

from conftest import CACHE_DIR
import oracles
from oracles import greedy_prefixes, iso_generators, iso_map, iso_search, refined_invariants

# Perm products in one warm run of all 54 claims on a fresh context, the
# reference groups' construction included (198,559 while generating_set
# and the search closed every prefix of their generators and the search
# compared order profiles, abelianness and class labels; 374,748 while
# every iso_check searched and a product built a list; 194,061 while the
# conjugacy classes held conjugates: conj_class_invariants orders one
# member of each class, and the classes of the group's own elements
# iterate in another order, so a few classes order a different member)
CATALOG_PERM_PRODUCTS = 194_056
# grp._close calls in run_claims once the named groups, the reference
# groups and the graph are loaded, 16 of them stopped at the cap of
# is_split_extension (521 with the prefix closures; 313 while sylow closed
# all of P's generators at each of its 50 growth steps)
CATALOG_CLOSES = 263


@pytest.fixture(scope="module")
def catalog():
    """One warm run of the whole catalog on a fresh context, recording
    every iso_check call with its verdict, every search actually run and
    every generating_set call, each with its result and the _greedy calls
    it made itself (input and result), every sylow call with its result,
    the number of Perm products and the number of grp._close calls."""
    calls, searches, gensets, sylows, products, closes = [], [], [], [], [0], [0]
    iso, search, mul = grp.iso_check, grp._iso_search, Perm.__mul__
    generating_set, greedy, close, sylow = (
        grp.SmallGroup.generating_set, grp._greedy, grp._close, grp.SmallGroup.sylow)
    # the _greedy calls of each recorded call in progress, innermost last
    stack: list = [[]]

    def recorded(G1, G2):
        ok = iso(G1, G2)
        calls.append((G1, G2, ok))
        return ok

    def own_greedy(fn, *args):
        stack.append([])
        try:
            return fn(*args), stack[-1]
        finally:
            stack.pop()

    def counted_search(G1, G2):
        found, own = own_greedy(search, G1, G2)
        searches.append((G1, G2, found, own))
        return found

    def recorded_generating_set(G):
        gens, own = own_greedy(generating_set, G)
        gensets.append((G, gens, own))
        return gens

    def recorded_greedy(cands, identity):
        found = greedy(cands, identity)
        stack[-1].append((cands, identity, found))
        return found

    def counted_mul(p, q):
        products[0] += 1
        return mul(p, q)

    def counted_close(*args, **kw):
        closes[0] += 1
        return close(*args, **kw)

    def recorded_sylow(G, p):
        P = sylow(G, p)
        sylows.append((G, p, P))
        return P
    with pytest.MonkeyPatch.context() as mp:
        for mod in (amalgam, harness):
            mp.setattr(mod, "iso_check", recorded)
        mp.setattr(grp, "_iso_search", counted_search)
        mp.setattr(Perm, "__mul__", counted_mul)
        ctx = VerifyContext(cache_dir=CACHE_DIR)
        ctx.ng, ctx.refs, ctx.graph
        mp.setattr(grp.SmallGroup, "generating_set", recorded_generating_set)
        mp.setattr(grp, "_greedy", recorded_greedy)
        mp.setattr(grp, "_close", counted_close)
        mp.setattr(grp.SmallGroup, "sylow", recorded_sylow)
        rep = run_claims(ctx)
    assert rep["overall"] and stack == [[]]
    return SimpleNamespace(ctx=ctx, calls=calls, searches=searches, gensets=gensets,
                           sylows=sylows, products=products[0], closes=closes[0])


def _distinct(pairs):
    """One (G1, G2) per G1 element set and G2 object, first seen first."""
    out = {}
    for G1, G2, *_ in pairs:
        out.setdefault((G1.eset, id(G2)), (G1, G2))
    return list(out.values())


def _assert_isomorphism(G1, G2, m):
    """m is a bijection G1 -> G2 with m(x g) = m(x) m(g) for every x and
    every generator g, so a homomorphism."""
    assert set(m) == G1.eset and set(m.values()) == G2.eset
    for g in G1.gens_list():
        for x in G1.elems:
            assert m[x * g] == m[x] * m[g]


@pytest.fixture
def searches(monkeypatch):
    """The (G1, G2) of every search that iso_check runs from here on."""
    ran = []
    search = grp._iso_search

    def counted(G1, G2):
        ran.append((G1, G2))
        return search(G1, G2)
    monkeypatch.setattr(grp, "_iso_search", counted)
    return ran


def test_every_catalog_pair_agrees_with_the_old_search(catalog):
    """The same verdict as the search without memo or cached invariants,
    on the first call and on every memo hit, and the same map (rebuilt
    from the memo by oracles.iso_map), a bijective homomorphism."""
    assert len(catalog.calls) == 47
    for G1, G2, ok in catalog.calls:
        assert ok == (iso_search(G1, G2) is not None)
    for G1, G2 in _distinct(catalog.calls):
        want = iso_search(G1, G2)
        m = iso_map(G1, G2)
        assert m == want
        if m is not None:
            _assert_isomorphism(G1, G2, m)


def test_cached_invariants_equal_the_uncached_ones(catalog):
    groups = {id(G): G for G1, G2, _ in catalog.calls for G in (G1, G2)}
    for G in groups.values():
        assert G.conj_class_invariants() == {
            x: (G.element_order(x), len(c)) for c in G.conj_classes() for x in c}
        inv = refined_invariants(G)
        assert grp._refined_invariants(G) == inv
        by: dict = {}
        for h in G.sorted_elems():
            by.setdefault(inv[h], []).append(h)
        assert grp._by_refined(G) == by


def test_one_search_per_distinct_pair_in_a_catalog_run(catalog):
    distinct = _distinct(catalog.calls)
    assert len(catalog.searches) == len(distinct) < len(catalog.calls)
    assert [(G1.eset, G2) for G1, G2, *_ in catalog.searches] == [
        (G1.eset, G2) for G1, G2 in distinct]


def test_generating_sets_equal_the_prefix_loop(catalog):
    """generating_set takes its generators from one closure: on every group
    a catalog pass asks, the same generators as the old loop, and on its
    own candidates the same span ends and tree as closing every prefix."""
    assert len(catalog.gensets) > 50
    for G, gens, own in catalog.gensets:
        assert gens == oracles.generating_set(G)
        assert len(own) == (len(G) > 1)
        for cands, identity, found in own:
            assert found[0] == gens
            assert found == greedy_prefixes(cands, identity)


def test_search_generators_and_results_equal_the_prefix_loop(catalog):
    """The search takes G1's generators from one closure: on every pair a
    catalog pass searches, the same generators, span ends and tree as
    closing every prefix, and the same isomorphism as the old search."""
    assert len(catalog.searches) == 23
    for G1, G2, found, own in catalog.searches:
        old = iso_generators(G1, G2)
        assert [greedy_found for _, _, greedy_found in own] == [old]
        want = iso_search(G1, G2)
        assert found == (old[0], [want[g] for g in old[0]])


def test_sylow_subgroups_equal_the_closure_loop(catalog):
    """sylow grows P<x> from P's cosets: on every call of a catalog pass,
    the same subgroup, in the same element order, as closing all of P's
    generators at each step."""
    assert len(catalog.sylows) > 10
    for G, p, P in catalog.sylows:
        want = oracles.sylow(G, p)
        assert P.elems == want.elems and len(P) == p ** grp._pval(len(G), p)


def test_element_caches_keep_the_groups_own_elements(catalog):
    """After a catalog pass, the order, class and class-list caches of every
    group it compared or reduced to a Sylow subgroup hold only the group's
    own element objects (counted by object id), not conjugates or powers
    equal to them."""
    groups = {id(G): G for G1, G2, _ in catalog.calls for G in (G1, G2)}
    groups.update((id(G), G) for G, _, P in catalog.sylows)
    groups.update((id(G), G) for G in catalog.ctx.refs.values())
    cached = dups = 0
    for G in groups.values():
        own = {id(x) for x in G.elems}
        keys = list(G._orders) + list(G._classes or ()) + [
            x for c in G._class_list or () for x in c]
        cached += len(keys)
        dups += sum(id(x) not in own for x in keys)
    assert cached > 10_000 and dups == 0


def test_catalog_closures_are_pinned(catalog):
    """One closure per greedy generating set and per search: a change to
    the count is a change in the group engine's work."""
    assert catalog.closes == CATALOG_CLOSES


def test_memo_goes_with_the_reference_groups(catalog, searches):
    """A pair the catalog asked is not searched again on its context, but
    is on fresh reference groups and on a fresh context."""
    ctx = catalog.ctx
    H1 = ctx.ng.H1
    assert iso_check(H1, ctx.refs["AGL23"]) and searches == []
    refs = reference_groups()
    assert refs["AGL23"] is not ctx.refs["AGL23"] and refs["AGL23"]._iso == {}
    assert iso_check(H1, refs["AGL23"]) and len(searches) == 1
    assert iso_check(H1, refs["AGL23"]) and len(searches) == 1
    fresh = VerifyContext(cache_dir=CACHE_DIR)
    assert iso_check(H1, fresh.refs["AGL23"]) and len(searches) == 2


def test_witness_from_a_memo_hit_is_the_first_map(ng, searches):
    refs = reference_groups()
    first = iso_map(ng.K12, refs["C3xAGL23S"])
    again = iso_map(ng.K12, refs["C3xAGL23S"])
    assert first is not None and first == again and first is not again
    assert iso_check(ng.K12, refs["C3xAGL23S"]) and len(searches) == 1
    assert first == iso_search(ng.K12, refs["C3xAGL23S"])


def test_non_isomorphic_pairs_stay_false_on_a_memo_hit(searches):
    refs = reference_groups()
    pairs = [(refs["AGL23S_sharp"], refs["AGL23S_star"]),
             (refs["C9"], refs["C3xC3"]),
             (refs["Dih18"], direct_product(refs["C3"], refs["Sym3"])),
             (refs["SP2"], refs["E27"])]
    for G1, G2 in pairs:
        assert iso_search(G1, G2) is None
        assert iso_check(G1, G2) is False
        assert iso_check(G1, G2) is False
        assert iso_map(G1, G2) is None
    assert len(searches) == len(pairs)


def test_catalog_perm_products_are_pinned(catalog):
    """The count repeats exactly for a fixed modulus; a change to it is a
    change in the group engine's work and should be explained."""
    assert catalog.products == CATALOG_PERM_PRODUCTS

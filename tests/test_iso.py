"""iso_check against the search it replaced, on every pair that a warm run
of the whole catalog asks, and the scope of its memo."""

from types import SimpleNamespace

import pytest

from psu38 import amalgam, grp, harness
from psu38.grp import direct_product, iso_check, reference_groups
from psu38.harness import VerifyContext, run_claims

import oracles
from oracles import (ObjGroup, boxed, greedy_prefixes, iso_generators, iso_map,
                     iso_search, refined_invariants)

# grp._close calls in run_claims once the named groups, the reference
# groups and the graph are loaded.  CATALOG_OBJECT_CLOSES of them close
# image tuples, each to build a table (quotients, direct products and
# holomorph groups by generate, induced groups by from_set); the rest
# close table indices.  (247 and 56 while the kernel chain of each base
# vertex ran once for each of its two claims; 263 while sylow found the
# generators of each normalizer it grew P in by a closure, and from_set
# built no table; 521 with the prefix closures; 313 while sylow closed all
# of P's generators at each of its 50 growth steps)
CATALOG_CLOSES = 208
CATALOG_OBJECT_CLOSES = 40
# iso_check calls in the same run (47 while the kernel chains ran twice)
CATALOG_ISO_CALLS = 39


def _elements(found, tab):
    """A _greedy result on indices of tab, with its indices as elements."""
    gens, ends, (elems, parent, genidx, right) = found
    els = tab.elems
    return [els[g] for g in gens], ends, ([els[x] for x in elems], parent, genidx, right)


@pytest.fixture(scope="module")
def catalog():
    """One warm run of the whole catalog on a fresh context, recording
    every iso_check call with its verdict, every search actually run and
    every _generating_set call, each with its result and the _greedy
    calls it made itself (input and result, as elements), every sylow call
    with its result, and the number of grp._close calls, on indices and
    on objects."""
    calls, searches, gensets, sylows = [], [], [], []
    closes, object_closes = [0], [0]
    iso, search = grp.iso_check, grp._iso_search
    generating_set, greedy, close, sylow = (
        grp.SmallGroup._generating_set, grp._greedy, grp._close, grp.SmallGroup.sylow)
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
        gensets.append((G, [G.tab.elems[g] for g in gens], own))
        return gens

    def recorded_greedy(cands, identity, by):
        found = greedy(cands, identity, by)
        tab = by.__self__
        stack[-1].append(([tab.elems[c] for c in cands], tab.elems[identity],
                          _elements(found, tab)))
        return found

    def counted_close(gens, identity, cap, by):
        closes[0] += 1
        object_closes[0] += not isinstance(getattr(by, "__self__", None), grp.Table)
        return close(gens, identity, cap, by)

    def recorded_sylow(G, p):
        P = sylow(G, p)
        sylows.append((G, p, P))
        return P
    with pytest.MonkeyPatch.context() as mp:
        for mod in (amalgam, harness):
            mp.setattr(mod, "iso_check", recorded)
        mp.setattr(grp, "_iso_search", counted_search)
        ctx = VerifyContext()
        ctx.ng, ctx.refs, ctx.graph
        mp.setattr(grp.SmallGroup, "_generating_set", recorded_generating_set)
        mp.setattr(grp, "_greedy", recorded_greedy)
        mp.setattr(grp, "_close", counted_close)
        mp.setattr(grp.SmallGroup, "sylow", recorded_sylow)
        rep = run_claims(ctx)
    assert rep["overall"] and stack == [[]]
    return SimpleNamespace(ctx=ctx, calls=calls, searches=searches, gensets=gensets,
                           sylows=sylows, closes=closes[0],
                           object_closes=object_closes[0])


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
    for g in map(boxed, G1.gens_list()):
        for x in map(boxed, G1.elems):
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
    """The same verdict as the search on element objects without memo or
    cached invariants, on the first call and on every memo hit, and the
    same map (rebuilt from the memo by oracles.iso_map), a bijective
    homomorphism."""
    assert len(catalog.calls) == CATALOG_ISO_CALLS
    old = {}
    for G1, G2 in _distinct(catalog.calls):
        old[G1.eset, id(G2)] = iso_search(ObjGroup.of(G1), ObjGroup.of(G2))
    for G1, G2, ok in catalog.calls:
        assert ok == (old[G1.eset, id(G2)] is not None)
    for G1, G2 in _distinct(catalog.calls):
        want = old[G1.eset, id(G2)]
        m = iso_map(G1, G2)
        assert m == want
        if m is not None:
            _assert_isomorphism(G1, G2, m)


def test_cached_invariants_equal_the_uncached_ones(catalog):
    groups = {id(G): G for G1, G2, _ in catalog.calls for G in (G1, G2)}
    for G in groups.values():
        els = G.tab.elems
        assert G.conj_class_invariants() == {
            x: (G.element_order(x), len(c)) for c in G.conj_classes() for x in c}
        assert G.conj_class_invariants() == ObjGroup.of(G).conj_class_invariants()
        inv = refined_invariants(ObjGroup.of(G))
        assert {els[i]: v for i, v in grp._refined_invariants(G).items()} == inv
        by: dict = {}
        for h in G.sorted_elems():
            by.setdefault(inv[h], []).append(h)
        assert {k: [els[i] for i in v] for k, v in grp._by_refined(G).items()} == by


def test_one_search_per_distinct_pair_in_a_catalog_run(catalog):
    distinct = _distinct(catalog.calls)
    assert len(catalog.searches) == len(distinct) < len(catalog.calls)
    assert [(G1.eset, G2) for G1, G2, *_ in catalog.searches] == [
        (G1.eset, G2) for G1, G2 in distinct]


def test_generating_sets_equal_the_prefix_loop(catalog):
    """generating_set takes its generators from one closure on indices: on
    every group a catalog pass asks, the same generators as the old loop on
    element objects, and on its own candidates the same span ends and tree
    as closing every prefix."""
    assert len(catalog.gensets) > 50
    for G, gens, own in catalog.gensets:
        assert gens == oracles.generating_set(ObjGroup.of(G))
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
        O1, O2 = ObjGroup.of(G1), ObjGroup.of(G2)
        old = iso_generators(O1, O2)
        assert [greedy_found for _, _, greedy_found in own] == [old]
        want = iso_search(O1, O2)
        assert found == (old[0], [want[g] for g in old[0]])


def test_sylow_subgroups_equal_the_closure_loop(catalog):
    """sylow grows P<x> from P's cosets on indices: on every call of a
    catalog pass, the same subgroup, in the same element order, as closing
    all of P's generators at each step on element objects, inside
    normalizers found by element products."""
    assert len(catalog.sylows) > 10
    for G, p, P in catalog.sylows:
        want = ObjGroup.of(G).sylow(p)
        assert P.elems == want.elems and len(P) == p ** grp._pval(len(G), p)


def test_element_caches_keep_the_groups_own_elements(catalog):
    """After a catalog pass, the order, class and invariant caches of every
    group it compared or reduced to a Sylow subgroup are keyed by the
    indices of the group's own elements in its table, and hold no element
    objects; a table's orders are ints."""
    groups = {id(G): G for G1, G2, _ in catalog.calls for G in (G1, G2)}
    groups.update((id(G), G) for G, _, P in catalog.sylows)
    groups.update((id(G), G) for G in catalog.ctx.refs.values())
    cached = strays = 0
    for G in groups.values():
        keys = list(G._class_of or ()) + list(G._labels or ()) + list(
            G._refined or ()) + [x for c in G._classes or () for x in c]
        cached += len(keys)
        strays += sum(type(x) is not int or x not in G.iset for x in keys)
        assert all(type(o) is int for o in G.tab.orders)
    assert cached > 10_000 and strays == 0


def test_catalog_closures_are_pinned(catalog):
    """One closure per greedy generating set and per search: a change to
    the count is a change in the group engine's work."""
    assert catalog.closes == CATALOG_CLOSES
    assert catalog.object_closes == CATALOG_OBJECT_CLOSES


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
    fresh = VerifyContext()
    assert iso_check(H1, fresh.refs["AGL23"]) and len(searches) == 2


def test_witness_from_a_memo_hit_is_the_first_map(ng, searches):
    refs = reference_groups()
    first = iso_map(ng.K12, refs["C3xAGL23S"])
    again = iso_map(ng.K12, refs["C3xAGL23S"])
    assert first is not None and first == again and first is not again
    assert iso_check(ng.K12, refs["C3xAGL23S"]) and len(searches) == 1
    assert first == iso_search(ObjGroup.of(ng.K12), ObjGroup.of(refs["C3xAGL23S"]))


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
    """A catalog run makes no permutation products, by construction: the
    engine has no permutation class, and the elements of every reference
    group are plain image tuples, which have no group product."""
    assert not hasattr(grp, "Perm")
    refs = catalog.ctx.refs.values()
    assert all(type(x) is tuple for G in refs for x in G.elems + G.gens_list())

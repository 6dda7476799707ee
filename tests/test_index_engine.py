"""The group engine on table indices against the same operations on
element objects (oracles.ObjGroup), on subgroups generated by random
elements of K1, K2, AGL_2(3) and C3 x AGL_2(3)."""

from hypothesis import HealthCheck, given, settings, strategies as st

from psu38.grp import _close

from oracles import (ObjGroup, boxed, class_labels, class_sets, close, generating_set,
                     table_order)

settings.register_profile(
    "index-engine", derandomize=True, max_examples=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])

AMBIENT = ("K1", "K2", "AGL23", "C3xAGL23")


def _ambient(ng, refs, name):
    return getattr(ng, name) if name in ("K1", "K2") else refs[name]


def _check(G, picks):
    """Every engine operation on H = <picks> inside G, and on G with H,
    equals the object version: as element lists where the order is part
    of the result, else as sets."""
    els = table_order(G)
    # image tuples as Perms and PElements as G's TabElements, which the
    # object engine multiplies
    tab = G.tab
    gens = [boxed(els[k % len(els)], tab) for k in picks]
    e = boxed(G.identity, tab)
    # closure order on indices and on objects
    order = _close([tab.at(g) for g in gens], 0, None, tab.by)[0]
    assert [tab.elems[i] for i in order] == close(gens, e)[0]
    H = G.generated(gens)
    O, OH = ObjGroup.of(G), ObjGroup.of(H)
    assert H.eset == frozenset(close(gens, e)[0]) == OH.eset
    # H cut by its indices has no generators: gens_list is the greedy set
    assert H._sub(H.idx).gens_list() == generating_set(OH)
    assert G.centralizer(gens).elems == O.centralizer(gens).elems
    assert G.normalizer(H).elems == O.normalizer(OH).elems
    assert G.normal_closure(gens).elems == O.normal_closure(gens).elems
    assert G.core(H).elems == O.core(OH).elems
    assert class_sets(H) == OH.conj_classes()
    assert class_labels(H) == OH.conj_class_invariants()
    for p in (2, 3):
        assert H.sylow(p).elems == OH.sylow(p).elems
    N, ON = H.p_core(3), OH.p_core(3)
    assert N.elems == ON.elems
    assert H.quotient(N).elems == OH.quotient(ON).elems
    assert len(H.quotient(N)) * len(N) == len(H)


@settings(settings.get_profile("index-engine"))
@given(name=st.sampled_from(AMBIENT),
       picks=st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=3))
def test_index_engine_equals_the_object_engine(ng, refs, name, picks):
    _check(_ambient(ng, refs, name), picks)


def test_index_engine_on_each_ambient_group(ng, refs):
    """One fixed draw per ambient group, so each is covered whatever the
    draws above are."""
    for name, picks in zip(AMBIENT, ([5, 700], [17, 400, 901], [3, 200], [11, 1000])):
        _check(_ambient(ng, refs, name), picks)

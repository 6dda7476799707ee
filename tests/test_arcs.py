import dataclasses
import gc
import weakref

import numpy as np
import pytest

from psu38 import arcs, harness
from psu38.arcs import (KernelData, arc_count_formula, arc_levels, arc_orbits,
                        arc_stabilizer, ball, kernel_data, local_characteristic,
                        orbit_sizes, pulled_back_kernels, pushing_up,
                        sampled_vertex_checks)
from psu38.coset import CosetGraph
from psu38.grp import SmallGroup, iso_check
from psu38.harness import VerifyContext, run_claims

import oracles
from oracles import (ObjGroup, conjugate, enumerate_arcs, fixers_by_images, group_from_keys,
                     obj, orbit_partition_by_row_keys, rep_element, vertex_stabilizer)


def _stabilizer_perms(graph, v, group):
    return [graph.perm(g) for g in graph.vertex_stabilizer(v, group).gens_list()]


def test_arc_counts_match_valency_products(graph):
    """The walk's level sizes and the oracle's row counts are the valency
    products, for s = 0..8."""
    for v in (graph.base_x1, graph.base_x2):
        counts = [n for n, _ in arc_levels(graph, v, _stabilizer_perms(graph, v, "K"), 8)]
        assert counts == [arc_count_formula(graph, v, s) for s in range(9)]
        for s in range(0, 7):
            arcs = enumerate_arcs(graph, v, s)
            assert len(arcs) == arc_count_formula(graph, v, s)
    assert arc_count_formula(graph, graph.base_x2, 5) == 108
    assert arc_count_formula(graph, graph.base_x1, 5) == 144
    assert len(enumerate_arcs(graph, graph.base_x1, 0)) == 1


def test_arc_walk_equals_the_row_key_oracle(graph, graph43):
    """At both base vertices, for H and K and s = 0..8, on both session
    graphs: one walk of the levels gives the orbit sizes that the oracle
    finds on whole arc rows, and arc_orbits the same at each s."""
    for g in (graph, graph43):
        for v in (g.base_x1, g.base_x2):
            for group in ("H", "K"):
                perms = _stabilizer_perms(g, v, group)
                walk = [orbit_sizes(*level) for level in arc_levels(g, v, perms, 8)]
                oracle = [orbit_partition_by_row_keys(enumerate_arcs(g, v, s), perms)
                          for s in range(9)]
                assert walk == oracle
                assert [arc_orbits(g, v, s, group)["orbit_sizes"] for s in (0, 5, 8)] \
                    == [oracle[0], oracle[5], oracle[8]]


def _far_pair(graph, v, r):
    """Two vertices at distance r from v with no common neighbor."""
    pts, radii = ball(graph, v, r)
    a = int(pts[radii == r][0])
    near = set(ball(graph, a, 2)[0].tolist())
    return a, next(int(b) for b in pts[radii == r] if int(b) not in near)


def _swapped(p, a, b):
    q = p.copy()
    q[[a, b]] = p[[b, a]]
    return q


def test_arc_walk_rejects_a_permutation_that_is_not_an_automorphism(graph):
    """Swapping the images of two vertices at distance 3 from v with no
    common neighbor, or moving v itself, raises; an unchanged walk does
    not."""
    v = graph.base_x1
    perms = _stabilizer_perms(graph, v, "K")
    a, b = _far_pair(graph, v, 3)
    list(arc_levels(graph, v, perms, 4))
    with pytest.raises(AssertionError, match="not an arc"):
        list(arc_levels(graph, v, [perms[0], _swapped(perms[1], a, b)], 4))
    with pytest.raises(AssertionError, match="moves its vertex"):
        list(arc_levels(graph, v, [_swapped(perms[0], v, a)], 1))


@pytest.mark.parametrize("moves_v", [False, True])
def test_a_faulty_stabilizer_permutation_is_an_error_verdict(ctx, monkeypatch, moves_v):
    """Through run_claims, a stabilizer permutation that is not an
    automorphism gives the arc orbit claims an error verdict, never a
    fail."""
    g = ctx.graph
    v = g.base_x1
    a, b = _far_pair(g, v, 3)
    perm = CosetGraph.perm
    monkeypatch.setattr(CosetGraph, "perm",
                        lambda self, x: _swapped(perm(self, x), *((v, a) if moves_v else (a, b))))
    ids = ("P3.7.i", "T1.1.pre", "L3.11.ii")
    verdicts = {c["id"]: c["verdict"]
                for c in run_claims(_context_over(ctx), claim_filter=",".join(ids))["claims"]}
    assert verdicts == dict.fromkeys(ids, "error")


def recursive_arcs(graph, v, s):
    """Depth-first reference enumeration of the s-arcs at v."""
    out = []

    def extend(prefix):
        if len(prefix) == s + 1:
            out.append(prefix)
            return
        for w in sorted(int(w) for w in graph.neighbors(prefix[-1])):
            if len(prefix) < 2 or w != prefix[-2]:
                extend(prefix + [w])

    extend([v])
    return out


def test_arc_order_equals_depth_first_reference(graph):
    for v in (graph.base_x1, graph.base_x2):
        for s in range(1, 7):
            got = enumerate_arcs(graph, v, s)
            assert got.dtype == np.int64
            assert got.tolist() == recursive_arcs(graph, v, s)


def test_graph_is_freed_when_its_context_is_dropped():
    """No reference cycle keeps the graph: with the cyclic collector off,
    it goes as soon as its context does, also after arc orbit claims."""
    gc.collect()
    gc.disable()
    try:
        ctx = VerifyContext()
        run_claims(ctx, claim_filter="L3.9,L3.11.ii")
        ref = weakref.ref(ctx.graph)
        del ctx
        assert ref() is None
    finally:
        gc.enable()


def test_arcs_are_nonbacktracking_paths(graph):
    arcs = enumerate_arcs(graph, graph.base_x2, 4)
    for a in arcs[:50]:
        for i in range(len(a) - 1):
            assert a[i + 1] in graph.neighbors(int(a[i]))
        for i in range(1, len(a) - 1):
            assert a[i - 1] != a[i + 1]


def test_ball_sizes(graph):
    pts, radii = ball(graph, graph.base_x1, 2)
    assert len(pts) == 1 + 4 + 8
    assert radii.max() == 2
    pts2, _ = ball(graph, graph.base_x2, 2)
    assert len(pts2) == 1 + 3 + 9


def _bfs_radii(graph, v, r) -> dict:
    """vertex -> distance from v, for distances up to r, by a plain BFS."""
    radius, frontier = {v: 0}, [v]
    for d in range(1, r + 1):
        nxt = []
        for u in frontier:
            for w in graph.neighbors(u).tolist():
                if w not in radius:
                    radius[w] = d
                    nxt.append(w)
        frontier = nxt
    return radius


def test_ball_equals_a_plain_bfs(graph):
    """At both base vertices with radius 5, and over the whole graph, each
    vertex comes once, layers in order, with its BFS distance."""
    for v, r in ((graph.base_x1, 5), (graph.base_x2, 5), (graph.base_x2, 64)):
        ids, radii = ball(graph, v, r)
        assert ids.dtype == radii.dtype == np.int64
        assert len(set(ids.tolist())) == len(ids) and (np.diff(radii) >= 0).all()
        assert dict(zip(ids.tolist(), radii.tolist())) == _bfs_radii(graph, v, r)
    assert len(ids) == graph.nv


def test_ball_and_orbit_sizes_equal_the_np_unique_oracles(graph, graph43):
    """On both session graphs, at both base vertices: ball at radii 0 to
    KERNEL_RADIUS and nv equals its np.unique oracle array for array, and
    orbit_sizes of each arc level, s = 0..8, for H and K, equals its
    np.unique oracle."""
    for g in (graph, graph43):
        for v in (g.base_x1, g.base_x2):
            for r in list(range(arcs.KERNEL_RADIUS + 1)) + [g.nv]:
                got, want = ball(g, v, r), oracles.ball_by_np_unique(g, v, r)
                assert all(a.dtype == b.dtype and np.array_equal(a, b)
                           for a, b in zip(got, want))
            for group in ("H", "K"):
                for level in arc_levels(g, v, _stabilizer_perms(g, v, group), 8):
                    assert orbit_sizes(*level) == oracles.orbit_sizes_by_np_unique(*level)


def test_five_arc_transitivity_orbit_sizes(graph):
    r = arc_orbits(graph, graph.base_x2, 5, "K")
    assert r["transitive"] and r["orbit_sizes"] == [108]
    r = arc_orbits(graph, graph.base_x1, 5, "K")
    assert r["transitive"] and r["orbit_sizes"] == [144]
    r = arc_orbits(graph, graph.base_x2, 6, "K")
    assert r["transitive"] and r["arc_count"] == 324
    r = arc_orbits(graph, graph.base_x1, 6, "K")
    assert r["orbit_count"] > 1


def test_one_arc_transitivity_indices(graph, ng):
    assert len(ng.K1) // len(ng.K12) == 4
    assert len(ng.K2) // len(ng.K12) == 3
    r = arc_orbits(graph, graph.base_x1, 1, "K")
    assert r["transitive"] and r["arc_count"] == 4


def test_max_local_s(ctx):
    bh, _ = ctx.mls("H")
    bk, _ = ctx.mls("K")
    assert bh == 5 and bk == 5


def test_orbit_stabilizer_identity(graph):
    for v, grp in ((graph.base_x2, "K"), (graph.base_x1, "K"),
                   (graph.base_x2, "H")):
        r = arc_orbits(graph, v, 5, grp)
        arcs = enumerate_arcs(graph, v, 5)
        stab = graph.vertex_stabilizer(v, grp)
        a = arc_stabilizer(graph, arcs[0], grp)
        assert len(stab) % len(a) == 0
        orbit_of_first = len(stab) // len(a)
        assert orbit_of_first in r["orbit_sizes"]


def test_paper_arc_stabilizers(ctx, graph, ng):
    arc = ctx.paper_arc()
    ka = arc_stabilizer(graph, arc, "K")
    assert len(ka) == 9
    assert ka.eset == ng.Qh2.center().eset
    ha = arc_stabilizer(graph, arc, "H")
    assert len(ha) == 3
    bbar = SmallGroup.generate([ng.p["B"]])
    assert ha.eset == bbar.eset
    # 0-arc stabilizer is the vertex stabilizer itself
    k0 = arc_stabilizer(graph, [graph.base_x1], "K")
    assert k0.eset == ng.K1.eset


def test_kernels_K(ctx, ng, refs):
    kd = ctx.kern("K", 1)
    assert len(kd.kernel(1)) == 54
    assert kd.kernel(2).eset == ng.Qh1.eset
    assert kd.kernel(3).eset == ng.K1.center().eset
    assert kd.kernel(4).eset == ng.K1.center().eset
    assert len(kd.kernel(5)) == 1
    assert len(kd.kernel(0)) == len(ng.K1)
    kd2 = ctx.kern("K", 2)
    assert len(kd2.kernel(1)) == 162
    assert kd2.kernel(2).eset == ng.Qh2.center().eset
    assert kd2.kernel(3).eset == ng.Qh2.center().eset
    assert len(kd2.kernel(4)) == 1


def test_kernels_H(ctx, ng):
    kd = ctx.kern("H", 1)
    assert len(kd.kernel(1)) == 18
    assert kd.kernel(2).eset == ng.Q1.eset
    assert len(kd.kernel(3)) == 1
    kd2 = ctx.kern("H", 2)
    assert len(kd2.kernel(1)) == 54
    assert kd2.kernel(2).eset == ng.Q2.center().eset
    assert kd2.kernel(3).eset == ng.Q2.center().eset
    assert len(kd2.kernel(4)) == 1


def test_kernel_chain_descending_and_normal(ctx):
    for grp, side in (("K", 1), ("K", 2), ("H", 1), ("H", 2)):
        kd = ctx.kern(grp, side)
        prev = None
        for i in range(0, 6):
            k = kd.kernel(i)
            if prev is not None:
                assert k.eset <= prev
            assert kd.stab.is_normal(k)
            prev = k.eset


def test_induced_action_groups(ctx, refs):
    for grp in ("K", "H"):
        ind1, kern1 = ctx.kern(grp, 1).induced_neighbor_group()
        assert iso_check(ind1, refs["Sym4"])
        assert kern1.eset == ctx.kern(grp, 1).kernel(1).eset
        ind2, kern2 = ctx.kern(grp, 2).induced_neighbor_group()
        assert iso_check(ind2, refs["Sym3"])
        assert kern2.eset == ctx.kern(grp, 2).kernel(1).eset


def test_induced_neighbor_group_is_every_elements_image(graph):
    """For K and H at both base vertices, the group generated by the
    identity and the stabilizer generators' neighbor images holds exactly
    the images of all of the stabilizer's elements, the set it was once
    closed on, and the kernel is the rows' one."""
    for v in (graph.base_x1, graph.base_x2):
        for group in ("K", "H"):
            kd = kernel_data(graph, v, group)
            induced, kern = kd.induced_neighbor_group()
            want, want_kern = oracles.induced_neighbor_group_by_rows(kd)
            assert induced.handles() == want.handles()
            assert kern.idx == want_kern.idx and len(induced) * len(kern) == len(kd.stab)


def test_local_characteristic_and_pushing_up(graph):
    for grp in ("H", "K"):
        ok, details = local_characteristic(graph, grp)
        assert ok
        pu, d = pushing_up(graph, grp)
        assert pu and d["O_p(G_x1^[1]) <= O_p(G_x2^[1])"]


def test_pushing_up_containment_values(ctx, ng):
    q1 = ctx.kern("K", 1).kernel(1).p_core(3)
    q2 = ctx.kern("K", 2).kernel(1).p_core(3)
    assert q1.eset == ng.Qh1.eset
    assert q2.eset == ng.Qh2.eset
    assert q1.eset <= q2.eset


def test_centralizer_check_at_x1(ctx, ng):
    c = ng.K1.centralizer(ng.Qh1.gens_list())
    assert c.eset <= ng.Qh1.eset


def test_sampled_vertex_checks(graph):
    out = sampled_vertex_checks(graph)["K"]
    assert out["wide_ok"] and out["deep_ok"]


def test_sampled_vertex_checks_catch_a_wrong_conjugation(graph, ng, monkeypatch):
    """Stabilizers conjugated by rep^-1 instead of rep, injected through
    the batched stabilizer_key_rows, have the right order but do not fix
    their vertices; the wide check must see it."""
    def by_inverse(self, gids, group="K"):
        rows = []
        for v in map(int, gids):
            C = conjugate(ng.K1 if self.side_of(v) == 1 else ng.K2,
                          rep_element(self, v).inv())
            if group == "H":
                C = ng.h_part(C)
            rows.append(sorted(x.key for x in C.elems))
        return np.array(rows, dtype=np.uint64)
    monkeypatch.setattr(CosetGraph, "stabilizer_key_rows", by_inverse)
    out = sampled_vertex_checks(graph)["K"]
    assert out["wide_sample"] == arcs.SAMPLE_WIDE and not out["wide_ok"]


def test_edge_stabilizer_order_on_sampled_edges(graph, ng):
    rng = np.random.default_rng(12)
    for i in rng.choice(len(graph.edges), size=4, replace=False):
        u, v = graph.edges[int(i)]
        su = vertex_stabilizer(graph, int(u), "K")
        sv = vertex_stabilizer(graph, graph.n1 + int(v), "K")
        inter = su.eset & sv.eset
        assert len(inter) == 324


def _cycle_edges(n):
    return np.array([(i, (i + 1) % n) for i in range(n)])


def test_orbit_partition_on_a_cycle():
    n = 6
    rows = _cycle_edges(n)
    rotation = (np.arange(n) + 1) % n
    reflection = (-np.arange(n)) % n
    assert orbit_partition_by_row_keys(rows, [rotation]) == [6]
    # directed edges (i, i+1) go to (-i, -i-1): a row only when reversed,
    # so take both directions; the reflection pairs them up
    both = np.concatenate([rows, rows[:, ::-1]])
    assert orbit_partition_by_row_keys(both, [reflection]) == [2] * 6
    assert orbit_partition_by_row_keys(both, [rotation, reflection]) == [12]
    assert orbit_partition_by_row_keys(both, [rotation]) == [6, 6]
    assert orbit_partition_by_row_keys(rows, [np.arange(n)]) == [1] * 6
    assert orbit_partition_by_row_keys(rows, []) == [1] * 6


def _bfs_orbit_sizes(rows, perms):
    """Orbit sizes by a plain BFS over a dict of rows: the reference."""
    index = {tuple(r): i for i, r in enumerate(rows.tolist())}
    seen, sizes = set(), []
    for start in range(len(rows)):
        if start in seen:
            continue
        seen.add(start)
        comp, frontier = 1, [start]
        while frontier:
            i = frontier.pop()
            for p in perms:
                j = index[tuple(p[rows[i]].tolist())]
                if j not in seen:
                    seen.add(j)
                    comp += 1
                    frontier.append(j)
        sizes.append(comp)
    return sorted(sizes, reverse=True)


def test_orbit_partition_matches_bfs(graph):
    for v, s, group in ((graph.base_x1, 6, "K"), (graph.base_x1, 6, "H"),
                        (graph.base_x2, 4, "H"), (graph.base_x1, 8, "K")):
        rows = enumerate_arcs(graph, v, s)
        stab = graph.vertex_stabilizer(v, group)
        perms = [graph.perm(g) for g in stab.gens_list()]
        assert orbit_partition_by_row_keys(rows, perms) == _bfs_orbit_sizes(rows, perms)
        # a subgroup's orbits: the first generator alone
        assert orbit_partition_by_row_keys(rows, perms[:1]) == _bfs_orbit_sizes(rows, perms[:1])


def test_orbit_partition_rejects_bad_rows():
    rows = _cycle_edges(5)
    rotation = (np.arange(5) + 1) % 5
    with pytest.raises(AssertionError):
        orbit_partition_by_row_keys(np.concatenate([rows, rows[:1]]), [rotation])
    with pytest.raises(AssertionError):
        orbit_partition_by_row_keys(rows[:4], [rotation])
    with pytest.raises(AssertionError):
        orbit_partition_by_row_keys(rows, [(-np.arange(5)) % 5])


def test_edge_orbits_agree_with_the_premises(ctx, graph):
    """The exhaustive oracle: the generators of G1 and G2 have one orbit
    on all 102,144 edges, for H and for K, as the stage finds from its
    premises."""
    ng = ctx.ng
    edges = graph.edges.astype(np.int64) + np.array([0, graph.n1])
    for group, G1, G2 in (("H", ng.H1, ng.H2), ("K", ng.K1, ng.K2)):
        perms = [graph.perm(x) for x in dict.fromkeys(G1.gens_list() + G2.gens_list())]
        assert orbit_partition_by_row_keys(edges, perms) == [len(edges)]
        assert ctx.edge_orbit_transitive(group) is True


def _context_over(ctx):
    """A fresh VerifyContext, no stage computed, on the session's groups
    and graph."""
    fresh = VerifyContext()
    for key in ("field", "ng", "refs", "graph"):
        fresh._cache[key] = getattr(ctx, key)
    return fresh


def _edge_transitivity_fails(ctx):
    fresh = _context_over(ctx)
    verdicts = {c["id"]: c["verdict"]
                for c in run_claims(fresh, claim_filter="L3.5.i")["claims"]}
    return fresh.edge_orbit_transitive("H") is False and verdicts["L3.5.i"] == "fail"


def test_edge_transitivity_needs_every_generator_an_automorphism(ctx, monkeypatch):
    bad = ctx.ng.H2.gens_list()[0].key
    is_aut = CosetGraph.is_graph_automorphism
    monkeypatch.setattr(CosetGraph, "is_graph_automorphism",
                        lambda self, x: x.key != bad and is_aut(self, x))
    assert _edge_transitivity_fails(ctx)


def test_edge_transitivity_needs_a_connected_graph(ctx, monkeypatch):
    monkeypatch.setattr(harness, "ball",
                        lambda g, v, r: tuple(a[:-1] for a in ball(g, v, r)))
    assert _edge_transitivity_fails(ctx)


def test_edge_transitivity_needs_local_transitivity(ctx, monkeypatch):
    """Two orbits on the 1-arcs at x2."""
    walk = arcs.arc_levels
    x2 = ctx.graph.base_x2

    def split(graph, v, perms, s):
        for t, (n, images) in enumerate(walk(graph, v, perms, s)):
            # one generator that fixes the first 1-arc and swaps the other two
            if v == x2 and t == 1:
                images = [np.array([0, 2, 1])]
            yield n, images
    monkeypatch.setattr(arcs, "arc_levels", split)
    assert arc_orbits(ctx.graph, x2, 1, "H")["orbit_count"] == 2
    assert _edge_transitivity_fails(ctx)


def test_one_kernel_record_per_base_vertex(monkeypatch):
    calls = []
    init = KernelData.__init__

    def counted(self, *args):
        calls.append(args[1:])
        init(self, *args)
    monkeypatch.setattr(arcs.KernelData, "__init__", counted)
    ctx = VerifyContext()
    g = ctx.graph
    kd = ctx.kern("K", 1)
    assert local_characteristic(g, "K")[0]
    assert pushing_up(g, "H")[0]
    ctx.split_searches()
    assert len(calls) == 4
    assert sorted(calls) == sorted([(g.base_x1, "K"), (g.base_x2, "K"),
                                    (g.base_x1, "H"), (g.base_x2, "H")])
    assert kernel_data(g, g.base_x1, "K") is kd is ctx.kern("K", 1)
    assert kd.o3 is kd.o3
    assert kd.o3.eset == kd.kernel(1).p_core(3).eset == ctx.ng.Qh1.eset


def test_base_vertex_stabilizers_are_the_generated_groups(graph, ng):
    for v, group, G in ((graph.base_x1, "K", ng.K1), (graph.base_x2, "K", ng.K2),
                        (graph.base_x1, "H", ng.H1), (graph.base_x2, "H", ng.H2)):
        stab = graph.vertex_stabilizer(v, group)
        assert stab is G and len(stab.parent) == len(stab.genidx) == len(stab)
        O = ObjGroup.of(stab)
        for i in range(1, len(stab)):
            assert stab.parent[i] < i
            assert O.elems[i] == O.elems[stab.parent[i]] * O.gens[stab.genidx[i]]


def _fixers(graph, keys, gids):
    """Indices of the keys whose elements fix every vertex in gids."""
    rows = np.broadcast_to(keys, (len(gids), len(keys)))
    return np.flatnonzero(graph.fixes(rows, gids).all(axis=0))


def _deep_sample(graph):
    rng = np.random.default_rng(arcs.SAMPLE_SEED)
    rng.choice(graph.nv, size=arcs.SAMPLE_WIDE, replace=False)  # the wide sample
    return rng.choice(graph.nv, size=arcs.SAMPLE_DEEP, replace=False)


def test_local_condition_at_deep_vertices_equals_the_group_from_keys_one(graph):
    """On the 12 deep vertices of sampled_vertex_checks, for K and H, the
    pulled-back G_v^[1] is the base kernel, whose O_3 and centralizer in
    the base stabilizer have the |O_3|, |C| and containment of G_v^[1]
    and G_v built from their own keys; the base O_3 conjugated by the rep
    is G_v^[1]'s O_3."""
    deep = _deep_sample(graph)
    for group in ("K", "H"):
        for v in map(int, deep):
            assert oracles.local_condition_at(graph, v, group)
            keys = graph.stabilizer_key_rows([v], group)[0]
            fixed = keys[_fixers(graph, keys, graph.neighbors(v))]
            gv = group_from_keys(graph, keys)
            try:
                graph.ng.ambient(keys)
            except ValueError:  # outside K1 and K2: a table of its own
                assert gv.tab not in (graph.ng.K1.tab, graph.ng.K2.tab)
                assert {x.key for x in gv.elems} == set(keys.tolist())
            q = group_from_keys(graph, fixed).p_core(3)
            c = gv.centralizer(q.gens_list())
            side = graph.side_of(v)
            base = graph.base_stabilizer(side, group)
            z = graph.base_x1 if side == 1 else graph.base_x2
            bq = kernel_data(graph, z, group).o3
            bc = base.centralizer(bq.gens_list())
            assert (len(bq), len(bc), bc.eset <= bq.eset) == (len(q), len(c),
                                                            c.eset <= q.eset)
            assert c.eset <= q.eset
            r = obj(rep_element(graph, v))
            assert {(r.inv() * obj(x) * r).key for x in bq.elems} == {x.key for x in q.elems}


def test_fixers_equal_the_image_oracle(ctx, graph, ng):
    """fixes by membership in K_side, reduced over the vertices, equals
    fixers by resolved images: on the 12 deep vertices of
    sampled_vertex_checks, for their stabilizers and for K2, at the vertex
    and at its neighbors, and along the paper arc, for K and H."""
    deep = _deep_sample(graph)
    k2 = np.array([x.key for x in ng.K2.elems], dtype=np.uint64)
    arc = ctx.paper_arc()
    for group in ("K", "H"):
        for v in map(int, deep):
            for keys in (graph.stabilizer_key_rows([v], group)[0], k2):
                for gids in ([v], graph.neighbors(v)):
                    got = _fixers(graph, keys, gids)
                    assert np.array_equal(got, fixers_by_images(graph, keys, gids))
        keys = graph.stabilizer_key_rows([int(arc[0])], group)[0]
        for i in range(1, len(arc) + 1):
            got = _fixers(graph, keys, arc[1:i])
            assert len(got) and np.array_equal(got, fixers_by_images(graph, keys, arc[1:i]))


def test_stabilizer_keys_and_fixers_equal_the_bsmul_oracles(graph):
    """The table lookups of stabilizer_key_rows and fixes equal the bsmul
    products they replaced: at the base vertices and on the wide and deep
    samples of sampled_vertex_checks, for K and H, fixes reduced over the
    vertex, its neighbors and both together, and fixes row by row for
    each side's wide sample."""
    rng = np.random.default_rng(arcs.SAMPLE_SEED)
    wide = rng.choice(graph.nv, size=arcs.SAMPLE_WIDE, replace=False)
    deep = rng.choice(graph.nv, size=arcs.SAMPLE_DEEP, replace=False)
    vs = [graph.base_x1, graph.base_x2] + wide.tolist() + deep.tolist()
    for group in ("K", "H"):
        for v in vs:
            want = oracles.stabilizer_keys(graph, v, group)
            keys = graph.stabilizer_key_rows([v], group)[0]
            assert np.array_equal(keys, want)
            nb = graph.neighbors(v)
            for gids in ([v], nb, np.concatenate([[v], nb])):
                assert np.array_equal(_fixers(graph, keys, gids),
                                      oracles.fixers(graph, keys, gids))
        for ids in (wide[wide < graph.n1], wide[wide >= graph.n1]):
            rows = graph.stabilizer_key_rows(ids, group)
            fixed = graph.fixes(rows, ids)
            assert len(rows) == len(fixed) == len(ids)
            for v, row, fx in zip(map(int, ids), rows, fixed):
                assert np.array_equal(row, oracles.stabilizer_keys(graph, v, group))
                assert np.array_equal(np.flatnonzero(fx), oracles.fixers(graph, row, [v]))
                assert fx.all()
    with pytest.raises(ValueError, match="one side"):
        graph.stabilizer_key_rows([graph.base_x1, graph.base_x2])
    # a side may draw no sampled vertex: no vertex gives no row
    assert graph.stabilizer_key_rows([], "H").shape == (0, 432)


def test_batched_deep_check_equals_the_per_vertex_oracle(graph, graph43):
    """Under 0x5b and 0x43, for K and H, on the 12 deep vertices of
    sampled_vertex_checks and both base vertices: each row of
    pulled_back_kernels, one batch per side, is the pulled-back set of
    oracles.local_condition_at, and the batched deep verdict is the
    oracle's."""
    for g in (graph, graph43):
        deep = _deep_sample(g)
        vs = np.concatenate([[g.base_x1, g.base_x2], deep])
        for group in ("K", "H"):
            for ids in (vs[vs < g.n1], vs[vs >= g.n1]):
                els = sorted(g.base_stabilizer(g.side_of(int(ids[0])), group).elems)
                for v, row in zip(map(int, ids), pulled_back_kernels(g, ids, group)):
                    got = frozenset(els[i] for i in np.flatnonzero(row))
                    assert got == oracles.pulled_back_kernel(g, v, group)
            want = all(oracles.local_condition_at(g, int(v), group) for v in deep)
            assert want and sampled_vertex_checks(g)[group]["deep_ok"] == want


def test_deep_check_catches_keys_out_of_the_base_order(graph, monkeypatch):
    """Keys of the right stabilizer in another order, injected through the
    batched stabilizer_key_rows, still pass the wide check, but their
    fixers no longer pull back to the base kernel."""
    rows_of = CosetGraph.stabilizer_key_rows
    monkeypatch.setattr(CosetGraph, "stabilizer_key_rows",
                        lambda self, gids, group="K": np.roll(rows_of(self, gids, group),
                                                              1, axis=1))
    out = sampled_vertex_checks(graph)["K"]
    assert out["wide_ok"] and not out["deep_ok"]


def test_sampled_vertex_checks_count_distinct_keys(graph, monkeypatch):
    """A repeated key, injected through the batched stabilizer_key_rows,
    leaves the right number of keys, all fixing the vertex, but too few
    distinct elements; the wide check must see it."""
    rows_of = CosetGraph.stabilizer_key_rows

    def repeated(self, gids, group="K"):
        rows = rows_of(self, gids, group)
        rows[:, 1] = rows[:, 0]
        return rows
    monkeypatch.setattr(CosetGraph, "stabilizer_key_rows", repeated)
    out = sampled_vertex_checks(graph)["K"]
    assert not out["wide_ok"]


def test_shared_spot_check_pass_equals_the_per_group_oracle(graph, graph43):
    """Under 0x5b and 0x43, the one pass over K's per-vertex arrays gives
    the K and H records that a pass of each group's own gives."""
    for g in (graph, graph43):
        out = sampled_vertex_checks(g)
        assert sorted(out) == ["H", "K"]
        for group in ("K", "H"):
            assert out[group] == oracles.sampled_vertex_checks_per_group(g, group)
            assert out[group]["wide_ok"] and out[group]["deep_ok"]


def test_a_wrong_kernel_of_one_group_fails_only_that_group(graph):
    """H's spot checks read K's columns, so an H fault must still show: a
    base kernel G_z^[1] of one group missing one element, at each base
    vertex whose side the deep sample meets, makes that group's deep check
    false and leaves the other group's true."""
    sides = {graph.side_of(int(v)) for v in _deep_sample(graph)}
    assert sides == {1, 2}
    for z in (graph.base_x1, graph.base_x2):
        for wrong, right in (("H", "K"), ("K", "H")):
            g = dataclasses.replace(graph, _kernels={})
            kd = kernel_data(g, z, wrong)
            kd.first_moved = kd.first_moved.copy()
            kd.first_moved[np.flatnonzero(kd.first_moved > 1)[1]] = 1
            out = sampled_vertex_checks(g)
            assert not out[wrong]["deep_ok"] and out[wrong]["wide_ok"]
            assert out[right]["deep_ok"] and out[right]["wide_ok"]


def test_kernel_radii_equal_the_full_table_oracle(graph, graph43):
    """Under 0x5b and 0x43, for K and H at both base vertices, the first
    moved column of the int32 ball table gives first_moved, and the
    neighbor columns nbr_images, equal to the int64 full-table oracle."""
    for g in (graph, graph43):
        for group in ("K", "H"):
            for v in (g.base_x1, g.base_x2):
                kd = kernel_data(g, v, group)
                first_moved, nbr_images = oracles.kernel_radii_by_full_table(g, v, group)
                assert kd.first_moved.dtype == first_moved.dtype
                assert np.array_equal(kd.first_moved, first_moved)
                assert kd.nbr_images.dtype == np.int32
                assert np.array_equal(kd.nbr_images, nbr_images)


def test_kernel_data_keeps_only_the_neighbor_columns(graph):
    for v, group in ((graph.base_x1, "K"), (graph.base_x2, "H")):
        kd = kernel_data(graph, v, group)
        assert sorted(kd.nbr_pts.tolist()) == sorted(graph.neighbors(v).tolist())
        assert kd.nbr_images.shape == (len(kd.stab), graph.degree(v))
        for j in (0, 1, len(kd.stab) - 1):
            p = graph.perm(kd.stab.elems[j])
            assert kd.nbr_images[j].tolist() == p[kd.nbr_pts].tolist()

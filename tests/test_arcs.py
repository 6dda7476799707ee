import numpy as np
import pytest

from psu38.arcs import (KernelData, arc_count_formula, arc_orbits,
                        arc_stabilizer, ball, enumerate_arcs,
                        local_characteristic, max_local_s, pushing_up,
                        sampled_vertex_checks)
from psu38.grp import SmallGroup, iso_check


def test_arc_counts_match_valency_products(graph):
    for v in (graph.base_x1, graph.base_x2):
        for s in range(0, 7):
            arcs = enumerate_arcs(graph, v, s)
            assert len(arcs) == arc_count_formula(graph, v, s)
    assert arc_count_formula(graph, graph.base_x2, 5) == 108
    assert arc_count_formula(graph, graph.base_x1, 5) == 144
    assert len(enumerate_arcs(graph, graph.base_x1, 0)) == 1


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
    out = sampled_vertex_checks(graph, "K", n_wide=12, n_deep=3, seed=5)
    assert out["wide_ok"] and out["deep_ok"]


def test_edge_stabilizer_order_on_sampled_edges(graph, ng):
    rng = np.random.default_rng(12)
    for i in rng.choice(len(graph.edges), size=4, replace=False):
        u, v = graph.edges[int(i)]
        su = graph.vertex_stabilizer(int(u), "K")
        sv = graph.vertex_stabilizer(graph.n1 + int(v), "K")
        inter = su.eset & sv.eset
        assert len(inter) == 324

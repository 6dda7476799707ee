import copy
import dataclasses
import hashlib
import os
import random
import tracemalloc

import numpy as np
import pytest

import networkx as nx

from psu38 import coset, harness
from psu38.arcs import (SAMPLE_CHUNK, kernel_data, pulled_back_kernels,
                        sampled_vertex_checks)
from psu38.coset import (CACHE_HEADER, CACHE_MAGIC, CACHE_VERSION, CacheMismatch,
                         CosetGraph, _arm, build_graph, export_edge_list,
                         export_sparse6, group_hash, load_cache, save_cache,
                         sparse6_bytes, transversal)
from psu38.fastops import (KEY_MAX, FieldOps, bpack, bunpack, conj_fingerprints,
                           coset_canon_keys, linear_conj_keys)
from psu38.gf64 import ALT_MODULI, DEFAULT_MODULUS, GF64
from psu38.grp import named_groups
from psu38.psu import PElement

from oracles import (ObjGroup, boxed, build_graph_all_probes, conjugate, coset_canon,
                     csr_by_full_sort, edges_by_concat, fixers_by_images, image_rowwise,
                     is_automorphism_by_bincount, is_graph_automorphism_by_sorted_keys, obj,
                     perm_by_images, rep_element, subgroup_arrays, transversal_by_products,
                     vertex_keys, vertex_stabilizer)


def test_transversal_sizes(ng):
    t1 = transversal(ng.K1, ng.K12)
    t2 = transversal(ng.K2, ng.K12)
    assert len(t1) == 4 and len(t2) == 3
    # representatives lie in distinct right cosets, by K1's products
    seen = set()
    k12 = ObjGroup.of(ng.K12).elems
    for t in t1:
        t = boxed(t, ng.K1.tab)
        key = frozenset((h * t).key for h in k12)
        assert key not in seen
        seen.add(key)


@pytest.mark.parametrize("modulus", (DEFAULT_MODULUS,) + ALT_MODULI)
def test_transversal_equals_the_product_oracle(modulus):
    """The transversal walked on table indices is the one that element
    products give, element for element and in the same order, on both
    sides; its elements are K's own."""
    ng = named_groups(GF64(modulus))
    for K in (ng.K1, ng.K2):
        got = transversal(K, ng.K12)
        want = transversal_by_products(K, ng.K12)
        assert [t.key for t in got] == [t.key for t in want]
        assert all(t is K.tab.elems[K.tab.at(t)] for t in got)


def test_coset_index_gives_the_right_cosets_of_K12(ng):
    """K12 is normal in neither K1 nor K2.  _coset_index numbers its right
    cosets K12.g, as Table.mul forms them, by their least index, and its
    representatives are transversal's."""
    for K in (ng.K1, ng.K2):
        assert not K.is_normal(ng.K12)
        coset, reps = K._coset_index(ng.K12)
        assert [K.tab.elems[g] for g in reps] == transversal(K, ng.K12)
        assert sorted(coset) == sorted(K.idx) and sorted(reps) == reps
        mul, h = K.tab.mul, K._ix(ng.K12)
        for c, g in enumerate(reps):
            right = {mul(x, g) for x in h}
            assert {y for y, d in coset.items() if d == c} == right and min(right) == g


def test_graph_scale(graph):
    assert graph.n1 == 25536
    assert graph.n2 == 34048
    assert len(graph.edges) == 102144
    deg = np.diff(graph.indptr)
    assert set(deg[:graph.n1].tolist()) == {4}
    assert set(deg[graph.n1:].tolist()) == {3}


def test_no_multiedges_or_loops(graph):
    e = graph.edges
    keys = e[:, 0].astype(np.int64) * graph.n2 + e[:, 1].astype(np.int64)
    assert len(np.unique(keys)) == len(keys)


def test_base_edge(graph):
    assert graph.base_x2 in graph.neighbors(graph.base_x1)
    assert graph.degree(graph.base_x1) == 4
    assert graph.degree(graph.base_x2) == 3


def test_adjacency_matches_coset_intersection(graph, ng):
    """Definition-level oracle: K1 g and K2 h are adjacent iff the cosets
    intersect, i.e. g h^-1 lies in K2 K1 (scanned exhaustively)."""
    rng = random.Random(5)

    k1 = {x.key for x in ng.K1.elems}

    def intersects(u, v):
        gu = obj(rep_element(graph, u))
        gv = obj(rep_element(graph, v))
        t = gv * gu.inv()
        return any((obj(k2).inv() * t).key in k1 for k2 in ng.K2.elems)

    for _ in range(6):
        u = rng.randrange(graph.n1)
        nbrs = [int(x) for x in graph.neighbors(u)]
        for v in nbrs[:2]:
            assert intersects(u, v)
        while True:
            v = graph.n1 + rng.randrange(graph.n2)
            if v not in nbrs:
                break
        assert not intersects(u, v)


def test_coset_canon_invariance(graph, ng):
    ops = graph.ops
    sub = subgroup_arrays(ops, ng.K1)
    rng = random.Random(6)
    g = obj(ng.p["E"]) * obj(ng.p["D"])
    c = coset_canon(ops, sub, g)
    for _ in range(10):
        k = rng.choice(ng.K1.elems)
        assert coset_canon(ops, sub, obj(k) * g) == c
    # idempotence: the canon of the canon is itself
    assert coset_canon(ops, sub, c) == c
    # members of the subgroup all canonize to the trivial coset's rep
    ident = obj(ng.p["A"]) * obj(ng.p["A"]).inv()
    c0 = coset_canon(ops, sub, ident)
    for _ in range(5):
        assert coset_canon(ops, sub, rng.choice(ng.K1.elems)) == c0


def test_vertex_stabilizers(graph, ng):
    assert graph.vertex_stabilizer(graph.base_x1, "K").eset == ng.K1.eset
    assert graph.vertex_stabilizer(graph.base_x2, "K").eset == ng.K2.eset
    assert graph.vertex_stabilizer(graph.base_x1, "H").eset == ng.H1.eset
    rng = random.Random(7)
    for _ in range(3):
        v = rng.randrange(graph.nv)
        stab = vertex_stabilizer(graph, v, "K")
        side = graph.side_of(v)
        assert len(stab) == (1296 if side == 1 else 972)
        assert graph.image(v, stab.elems[5]) == v
        hstab = vertex_stabilizer(graph, v, "H")
        assert len(hstab) == (432 if side == 1 else 324)
        # off the base vertices the program keeps stabilizers as keys
        with pytest.raises(ValueError):
            graph.vertex_stabilizer(v, "K")
        with pytest.raises(ValueError):
            graph.group_from_keys(graph.stabilizer_key_rows([v], "K")[0])
    v2 = graph.n1 + random.Random(8).randrange(graph.n2)
    assert len(vertex_stabilizer(graph, v2, "H")) == 324


def test_stabilizer_keys_match_python_conjugation(graph, ng):
    """The batched conjugation equals the oracle conjugate by the rep, and
    its H part, at each base vertex and at sampled vertices of each side;
    key i is rep^-1 k_i rep, k_i the base stabilizer's element of the i-th
    least packed key."""
    rng = random.Random(13)
    for K, off, n in ((ng.K1, 0, graph.n1), (ng.K2, graph.n1, graph.n2)):
        side = graph.side_of(off)
        for v in [off] + [off + rng.randrange(1, n) for _ in range(2)]:
            r = rep_element(graph, v)
            C = conjugate(K, r)
            ro = obj(r)
            for group, G in (("K", C), ("H", ng.h_part(C))):
                got = graph.stabilizer_key_rows([v], group)[0].tolist()
                assert sorted(got) == sorted(x.key for x in G.elems)
                base = sorted(graph.base_stabilizer(side, group).elems)
                assert got == [(ro.inv() * obj(k) * ro).key for k in base]


def test_every_vertex_is_fixed_by_its_stabilizer_generators(graph, ng):
    """The stabilizer certificate: for each of the 391,552 pairs of a
    vertex v and a generator k of its side's base stabilizer (K1 or K2),
    rep(v)^-1 k rep(v), by bsmul, fixes v under the action, one pair per
    row (image_rowwise, which test_image_batch_is_rowwise ties to
    image_batch).  The reversed conjugation rep(v) k rep(v)^-1 moves
    vertices on both sides, so the check can fail."""
    ops = graph.ops
    pairs = 0
    for side, K, off in ((1, ng.K1, 0), (2, ng.K2, graph.n1)):
        n, g = len(graph.reps[side]), len(K.gens_list())
        # row v*g + j pairs vertex v with generator j
        gids = np.repeat(np.arange(n) + off, g)
        rm, rt = bunpack(graph.reps[side])
        im, it = ops.binv(rm, rt)
        r = np.repeat(rm, g, axis=0), np.repeat(rt, g)
        ri = np.repeat(im, g, axis=0), np.repeat(it, g)
        km, kt = bunpack(np.array([k.key for k in K.gens_list()], dtype=np.uint64))
        k = np.tile(km, (n, 1, 1)), np.tile(kt, n)
        fixed = ops.bpkeys(*ops.bsmul(*ops.bsmul(*ri, *k), *r))
        assert (image_rowwise(graph, gids, fixed) == gids).all()
        reversed_ = ops.bpkeys(*ops.bsmul(*ops.bsmul(*r, *k), *ri))
        assert (image_rowwise(graph, gids, reversed_) != gids).any()
        pairs += len(gids)
    assert pairs == 391_552


def test_image_batch_is_rowwise(graph, ng):
    """image_batch of 12 vertices, both base vertices and five more of
    each side, under 12 elements: every (vertex, element) pair is the
    rowwise oracle's image and image()'s; a single key is one column, the
    vertices' entries of perm."""
    rng = random.Random(14)
    gids = np.array([graph.base_x1, graph.base_x2]
                    + rng.sample(range(1, graph.n1), 5)
                    + rng.sample(range(graph.n1 + 1, graph.nv), 5))
    els = [rng.choice(ng.K1.elems) * rng.choice(ng.K2.elems) for _ in gids]
    keys = np.array([x.key for x in els], dtype=np.uint64)
    got = graph.image_batch(gids, keys)
    assert got.dtype == np.int64 and got.shape == (len(gids), len(keys))
    want = image_rowwise(graph, np.repeat(gids, len(keys)), np.tile(keys, len(gids)))
    assert np.array_equal(got, want.reshape(got.shape))
    assert got[:, 0].tolist() == [graph.image(int(v), els[0]) for v in gids]
    x = els[0]
    assert np.array_equal(graph.image_batch(gids, x.key)[:, 0], graph.perm(x)[gids])


@pytest.mark.parametrize("modulus", (DEFAULT_MODULUS,) + ALT_MODULI)
def test_side_two_fingerprint_subgroup(modulus):
    """_arm's Y2 = {1, y, y^-1} has order 3, lies in Z(Qh2), is normal in
    K2, and is the only order-3 subgroup of Z(Qh2) that K2 normalizes;
    side 1 keys by Z(K1), of order 3."""
    ng = named_groups(GF64(modulus))
    g = CosetGraph(ng.field, ng)
    coset._arm(g)
    y1, y = (PElement(ng.p["A"].ops, int(bpack(*g.ysets[s])[0])) for s in (1, 2))
    # products by the elements of K1's and K2's tables
    K2 = ObjGroup.of(ng.K2)
    y1, y = boxed(y1, ng.K1.tab), boxed(y, ng.K2.tab)
    assert ng.K1.center().eset == {ng.K1.identity, y1, y1.inv()}
    Z = ObjGroup.of(ng.Qh2.center())
    assert len(Z) == 9 and y in Z.eset and ng.K2.tab.order(ng.K2.tab.at(y)) == 3
    Y = frozenset({Z.identity, y, y.inv()})
    assert all(k.inv() * z * k in Y for k in K2.elems for z in Y)
    subgroups = {frozenset({Z.identity, z, z.inv()}) for z in Z.elems if z != Z.identity}
    assert len(subgroups) == 4 and Y in subgroups
    for S in subgroups - {Y}:
        assert any(frozenset(k.inv() * z * k for z in S) != S for k in K2.elems)


def test_arm_rejects_a_side_one_y_that_K1_moves(ng, monkeypatch):
    """Side 1 keys the element y itself, so _arm requires every generator
    of K1 to fix it: handed a non-central element of order 3 as Z(K1)'s,
    it raises."""
    t1 = ng.K1.tab
    centre = set(ng.K1.center().idx)
    y = next(y for y in ng.K1.idx if y not in centre and t1.order(y) == 3)
    fake = ng.K1._sub([0, y, t1.inv[y]])
    monkeypatch.setattr(ng.K1, "center", lambda: fake)
    with pytest.raises(AssertionError, match="does not fix side 1's y"):
        _arm(CosetGraph(ng.field, ng))


def test_side_keys_are_products_on_sampled_vertices(graph, graph43):
    """On 200 sampled vertices per side under 0x5b and 0x43: a side-1
    vertex's stored key is bpkeys of rep^-1 y1 rep, multiplied out, and
    the key with the inverse (conj_fingerprints, the key side 1 had
    before) is a function of it, the least of it and the key of the
    element it packs inverted; a side-2 vertex's stored key is
    conj_fingerprints' of rep^-1 y2 rep with the inverse."""
    rng = np.random.default_rng(44)
    for g in (graph, graph43):
        ops = g.ops
        for side, n in ((1, g.n1), (2, g.n2)):
            lids = rng.choice(n, size=200, replace=False)
            at = np.empty(n, dtype=np.int64)
            at[g.sids[side]] = np.arange(n)
            stored = g.skeys[side][at[lids]]
            rm, rt = bunpack(g.reps[side][lids])
            fingerprint = conj_fingerprints(ops, rm, rt, *g.ysets[side])
            if side == 2:
                assert np.array_equal(stored, fingerprint)
                continue
            prod = ops.bsmul(*ops.bsmul(*ops.binv(rm, rt), *g.ysets[1]), rm, rt)
            assert np.array_equal(stored, ops.bpkeys(*prod))
            inverted = ops.bpkeys(*ops.binv(*bunpack(stored)))
            assert np.array_equal(fingerprint, np.minimum(stored, inverted))


def _rep_product_images(graph, gids, keys):
    """The vertex K.(rep(v).x) of each row pair (v, x) = (gids[i], keys[i]):
    the base vertex K.1 of v's side under the product rep(v).x, by the
    rowwise oracle, so no stored fingerprint of v is read."""
    on2 = gids >= graph.n1
    reps = np.where(on2, graph.reps[2][np.where(on2, gids - graph.n1, 0)],
                    graph.reps[1][np.where(on2, 0, gids)])
    prods = graph.ops.bpkeys(*graph.ops.bsmul(*bunpack(reps), *bunpack(keys)))
    return image_rowwise(graph, np.where(on2, graph.base_x2, graph.base_x1), prods)


def test_action_by_fingerprints_equals_the_rep_product(graph, ng):
    """perm(x) for each generator, on every vertex, and image_batch of 40
    random vertices under 50 random words, on every (vertex, element)
    pair, equal the key of rep(v).x."""
    allv = np.arange(graph.nv)
    gens = [ng.p[name] for name in ("A", "B", "C", "D", "E", "F", "sigma")]
    for x in gens:
        want = _rep_product_images(graph, allv, np.full(graph.nv, x.key, dtype=np.uint64))
        assert np.array_equal(graph.perm(x), want)
    rng = random.Random(15)
    gids = np.array([rng.randrange(graph.nv) for _ in range(40)])
    gens = [obj(x) for x in gens]
    els = []
    for _ in range(50):
        x = rng.choice(gens)
        for _ in range(rng.randrange(6)):
            x = x * rng.choice(gens)
        els.append(x)
    keys = np.array([x.key for x in els], dtype=np.uint64)
    want = _rep_product_images(graph, np.repeat(gids, len(keys)), np.tile(keys, len(gids)))
    assert np.array_equal(graph.image_batch(gids, keys), want.reshape(len(gids), len(keys)))


def test_perm_is_int32_and_equals_image_batch(graph, graph43):
    """Under two moduli, on every vertex, for A-F, sigma and random K1.K2
    products: the table-lookup keys equal conj_fingerprints of the
    vertices' fingerprint elements bit for bit, and perm equals the
    rowwise oracle on every vertex."""
    for g, seed in ((graph, 1), (graph43, 2)):
        ng = g.ng
        rng = random.Random(seed)
        els = [ng.p[n] for n in ("A", "B", "C", "D", "E", "F", "sigma")]
        els += [rng.choice(ng.K1.elems) * rng.choice(ng.K2.elems) for _ in range(3)]
        els += [ng.K2.elems[5]]
        fks = {side: vertex_keys(g, side) for side in (1, 2)}
        for x in els:
            xm, xt = bunpack(np.array([x.key], dtype=np.uint64))
            for side, fk in fks.items():
                want = conj_fingerprints(g.ops, xm, xt, *bunpack(fk), side == 2)
                assert np.array_equal(linear_conj_keys(g.ops, xm, xt, fk, side == 2),
                                      want[None])
            p = g.perm(x)
            assert p.dtype == np.int32
            assert np.array_equal(p, perm_by_images(g, x, fks))
            assert g.perm(x) is p  # cached


def test_is_graph_automorphism_holds_for_every_generator(graph, graph43):
    """On both session graphs every generator of K1, K2, H1 and H2 and
    each of A-F and sigma is an automorphism, as the bijection-and-full-
    sort oracle says too."""
    for g in (graph, graph43):
        ng = g.ng
        xs = [ng.p[n] for n in ("A", "B", "C", "D", "E", "F", "sigma")]
        for G in (ng.K1, ng.K2, ng.H1, ng.H2):
            xs += G.gens_list()
        for x in xs:
            assert g.is_graph_automorphism(x)
            assert is_automorphism_by_bincount(g, g.perm(x))


def test_is_graph_automorphism_rejects_broken_vertex_maps(graph, ng):
    """With perm returning the identity, an automorphism, but for two
    swapped vertices on one side, a repeated image, or a side-1 vertex
    swapped with a side-2 vertex (still a bijection), the answer is False,
    as the oracle's."""
    n1 = graph.n1
    x = ng.p["A"]
    maps = {}
    for name, edit in (("same", lambda p: None),
                       ("swap side 1", lambda p: p.__setitem__([0, 5], [5, 0])),
                       ("swap side 2", lambda p: p.__setitem__([n1 + 1, n1 + 9], [n1 + 9, n1 + 1])),
                       ("repeated image", lambda p: p.__setitem__(3, 4)),
                       ("repeated image side 2", lambda p: p.__setitem__(n1 + 3, n1 + 4)),
                       ("across sides", lambda p: p.__setitem__([2, n1 + 2], [n1 + 2, 2]))):
        p = np.arange(graph.nv, dtype=np.int32)
        edit(p)
        maps[name] = p
    g = copy.copy(graph)
    for name, p in maps.items():
        g.perm = lambda x, p=p: p
        want = name == "same"
        assert g.is_graph_automorphism(x) is want, name
        assert is_automorphism_by_bincount(graph, p) is want, name


def test_automorphism_check_equals_the_sorted_key_oracle(graph, graph43):
    """Under 0x5b and 0x43 the sorting-network check gives the sorted-key
    oracle's verdict for A-F, sigma, sigma^2 and sigma^3 (all True), and
    False, as the oracle does, once perm(x) of A has two side-1 images
    swapped, two side-2 images swapped, a side-1 image moved to side 2,
    or one image repeated."""
    for g in (graph, graph43):
        ng, n1 = g.ng, g.n1
        sigma = ng.p["sigma"]
        xs = [ng.p[n] for n in "ABCDEF"] + [sigma, sigma * sigma, sigma * sigma * sigma]
        for x in xs:
            assert g.is_graph_automorphism(x) is True
            assert is_graph_automorphism_by_sorted_keys(g, g.perm(x)) is True
        p = g.perm(ng.p["A"])
        swap2 = [n1, n1 + 9]
        edits = {"side-1 images swapped": lambda q: q.__setitem__([0, 5], q[[5, 0]]),
                 "side-2 images swapped": lambda q: q.__setitem__(swap2, q[swap2[::-1]]),
                 "a side-1 image on side 2": lambda q: q.__setitem__(0, q[n1]),
                 "not injective": lambda q: q.__setitem__(1, q[0])}
        broken = copy.copy(g)
        for name, edit in edits.items():
            q = p.copy()
            edit(q)
            broken.perm = lambda x, q=q: q
            assert broken.is_graph_automorphism(ng.p["A"]) is False, name
            assert is_graph_automorphism_by_sorted_keys(g, q) is False, name


@pytest.mark.parametrize("modulus", [DEFAULT_MODULUS, 0b1000011], ids=hex)
def test_edges_and_csr_equal_the_full_sort_oracle(modulus, ng, graph43):
    """A build's edges, one row of four side-2 ends per side-1 vertex,
    are the plain BFS's probe keys, each edge probed from both ends, by a
    sorted concatenated copy, one mask and an (E, 2) stack; the CSR built
    from the ascending edges is the one of a full sort of both
    directions' keys src.nv + dst."""
    ng = ng if modulus == DEFAULT_MODULUS else graph43.ng
    probe_keys = []
    build_graph_all_probes(ng, probe_keys)
    assert sum(map(len, probe_keys)) == 2 * 102144
    g = build_graph(ng)
    edges = edges_by_concat(probe_keys)
    assert g.edges.dtype == edges.dtype and np.array_equal(g.edges, edges)
    indptr, indices = csr_by_full_sort(g)
    for got, want in ((g.indptr, indptr), (g.indices, indices)):
        assert got.dtype == want.dtype and np.array_equal(got, want)


def _traced_excess(f) -> float:
    """MiB that tracemalloc saw at its peak during f() beyond what f kept."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out = f()
        kept, peak = tracemalloc.get_traced_memory()
        del out
    finally:
        tracemalloc.stop()
    assert kept >= start
    return (peak - kept) / 2 ** 20


def test_build_and_perm_temporaries_are_bounded(ng, graph, monkeypatch):
    """One build on built named groups and one uncached perm allocate at
    most 2.5 MiB beyond what they keep.  Measured: 1.3 and 1.6 MiB; a full
    sorted copy of the probe keys with an (E, 2) int64 stack and a CSR from
    the concatenated keys of both directions made the build's 5.3 MiB, and
    nine (n2, 6) lookup arrays made perm's 4.5 MiB."""
    assert _traced_excess(lambda: build_graph(ng)) < 2.5
    monkeypatch.setattr(graph, "_perm_cache", {})
    assert _traced_excess(lambda: graph.perm(ng.p["E"])) < 2.5


def test_per_vertex_pass_temporaries_are_bounded(graph, monkeypatch):
    """The two per-vertex passes of verify allocate at most 2.5 MiB beyond
    what they keep: one KernelData of K at x1, its generators' perms
    cached, and the one sampled_vertex_checks pass of K and H after the
    base kernels of both groups are built.  Measured: 1.4 and 2.0 MiB; an
    int64 ball image table with an int64 radius matrix beside it made
    KernelData's 4.8 MiB, and one table set for all of a batch's 25
    vertices at once the sampled checks' 4.3 MiB."""
    kernel_data(graph, graph.base_x1, "K")
    monkeypatch.setattr(graph, "_kernels", {})
    assert _traced_excess(lambda: kernel_data(graph, graph.base_x1, "K")) < 2.5
    for v in (graph.base_x1, graph.base_x2):
        for group in ("K", "H"):
            kernel_data(graph, v, group)
    assert _traced_excess(lambda: sampled_vertex_checks(graph)) < 2.5


def test_a_full_batch_of_pulled_back_kernels_is_bounded(graph):
    """One SAMPLE_CHUNK batch of side-1 vertices through
    pulled_back_kernels stays within the 2.5 MiB of the per-vertex passes.
    Measured: 1.3 MiB; the batch's keys repeated once per neighbor, for
    one fixes call over all 100 neighbors, made 5.4 MiB."""
    ids = np.arange(1, 1 + SAMPLE_CHUNK)
    assert _traced_excess(lambda: pulled_back_kernels(graph, ids, "K")) < 2.5


def test_perm_raises_on_an_unknown_image(graph, ng):
    """A stored fingerprint element off by one bit conjugates to no
    vertex's key."""
    g = copy.copy(graph)
    g.skeys = {**graph.skeys, 2: graph.skeys[2].copy()}
    g.skeys[2][7] ^= np.uint64(8)
    g._perm_cache = {}
    with pytest.raises(AssertionError, match="not a known vertex"):
        g.perm(ng.p["A"])


def test_fixers_of_x1_in_K2_is_K12(graph, ng):
    keys = np.array([x.key for x in ng.K2.elems], dtype=np.uint64)
    got = np.flatnonzero(graph.fixes(keys[None, :], [graph.base_x1])[0])
    assert sorted(keys[got].tolist()) == sorted(x.key for x in ng.K12.elems)
    assert np.array_equal(got, fixers_by_images(graph, keys, [graph.base_x1]))
    assert graph.fixes(np.zeros((0, len(keys)), dtype=np.uint64), []).shape == (0, len(keys))
    # keys shared by all vertices: the rows of the keys repeated per vertex
    ids = [graph.base_x1, 5, graph.base_x2, graph.nv - 1]
    shared = graph.fixes(keys, ids)
    assert shared.shape == (4, len(keys)) and shared.any() and not shared.all()
    assert np.array_equal(shared, graph.fixes(np.tile(keys, (4, 1)), ids))
    assert graph.fixes(keys, []).shape == (0, len(keys))


def test_base_edge_check_rejects_a_wrong_representative(graph, ng):
    coset._assert_base_edge(graph)
    x3 = graph.image(graph.base_x1, ng.p["E"])
    w = 1 if x3 != 1 else 2
    g = copy.copy(graph)
    g.reps = {s: a.copy() for s, a in graph.reps.items()}
    g._perm_cache, g._kernels = {}, {}
    g.reps[1][x3] = g.reps[1][w]
    with pytest.raises(AssertionError, match="not K1 conjugated by the rep"):
        coset._assert_base_edge(g)


def test_base_edge_check_counts_distinct_keys(graph, monkeypatch):
    """|K1| keys that all fix x3 but repeat one element fail the check."""
    rows_of = CosetGraph.stabilizer_key_rows

    def repeated(self, gids, group="K"):
        rows = rows_of(self, gids, group)
        rows[:, 1] = rows[:, 0]
        return rows
    monkeypatch.setattr(CosetGraph, "stabilizer_key_rows", repeated)
    with pytest.raises(AssertionError, match="not K1 conjugated by the rep"):
        coset._assert_base_edge(graph)


def test_action_is_right_action(graph, ng):
    rng = random.Random(9)
    p = ng.p
    for _ in range(5):
        v = rng.randrange(graph.nv)
        x = rng.choice(ng.K1.elems)
        y = rng.choice(ng.K2.elems)
        assert graph.image(graph.image(v, x), y) == graph.image(v, x * y)


def test_stabilizer_permutes_neighbors(graph, ng):
    v = graph.base_x1
    nbrs = set(int(u) for u in graph.neighbors(v))
    for x in list(ng.K1.elems)[:40]:
        img = {graph.image(u, x) for u in nbrs}
        assert img == nbrs


def test_group_order_from_graph(graph):
    assert graph.group_order_from_graph() == 33094656


def test_cache_roundtrip(graph, ng, tmp_path):
    path = str(tmp_path / "g.psu38")
    save_cache(graph, path)
    g2 = load_cache(path, ng)
    assert g2.n1 == graph.n1 and g2.n2 == graph.n2
    assert np.array_equal(g2.reps[1], graph.reps[1])
    assert np.array_equal(g2.reps[2], graph.reps[2])
    assert np.array_equal(g2.edges, graph.edges)
    assert np.array_equal(g2.indptr, graph.indptr)
    assert np.array_equal(g2.indices, graph.indices)


def test_cache_mismatch_rejected(graph, tmp_path):
    path = str(tmp_path / "g.psu38")
    save_cache(graph, path)
    other = named_groups(GF64(0b1000011))
    with pytest.raises(CacheMismatch):
        load_cache(path, other)
    with open(path, "r+b") as fh:
        fh.seek(0)
        fh.write(b"XXXXXXXX")
    with pytest.raises(CacheMismatch):
        load_cache(path, graph.ng)


def test_group_hash_differs_by_modulus():
    a = group_hash(named_groups(GF64()))
    b = group_hash(named_groups(GF64(0b1000011)))
    assert a != b


def test_export_edge_list(graph, tmp_path):
    path = str(tmp_path / "edges.txt")
    n = export_edge_list(graph, path)
    assert n == 102144
    with open(path) as fh:
        lines = fh.read().splitlines()
    assert len(lines) == 102144
    u0, v0 = map(int, lines[0].split())
    assert 0 <= u0 < graph.n1 and graph.n1 <= v0 < graph.nv
    assert lines == sorted(lines, key=lambda s: tuple(map(int, s.split())))


def _edge_set(edges):
    return sorted(tuple(sorted(map(int, e))) for e in edges)


def test_sparse6_small_graphs_against_networkx():
    # the example of nauty's formats.txt
    assert sparse6_bytes(7, [(0, 1), (0, 2), (1, 2), (5, 6)]) == b":Fa@x^\n"
    rng = random.Random(11)
    cases = [(n, p) for n in (1, 2, 3, 4, 7, 8, 9, 16, 17, 31, 62, 63, 64, 80)
             for p in (0.0, 0.1, 0.5, 0.9)]
    for n, p in cases:
        g = nx.gnp_random_graph(n, p, seed=rng.randrange(10**6))
        back = nx.from_sparse6_bytes(sparse6_bytes(n, list(g.edges())).strip())
        assert back.number_of_nodes() == n
        assert _edge_set(back.edges()) == _edge_set(g.edges())


def test_sparse6_temporaries_are_bounded(graph):
    """sparse6_bytes of the whole graph allocates at most 6 MiB beyond
    the bytes it returns.  Measured: 4.7 MiB with one reused shift
    temporary and the index arrays freed once used; 7.0 MiB with a new
    shift temporary per bit and every array alive to the end; int64
    stacks of the (b, x) pairs and an int64 (pairs, k) shift matrix made
    32.8 MiB."""
    edges = np.stack(graph._edge_ends(), 1)
    assert _traced_excess(lambda: sparse6_bytes(graph.nv, edges)) < 6


def test_sparse6_padding_cases():
    # n = 2^k with k < 6: when the last edge ends at n-2, padding with
    # 1-bits alone would decode as a loop at n-1
    rng = random.Random(5)
    for n in (4, 8, 16, 32):
        pairs = [(a, b) for b in range(n - 1) for a in range(b)]
        last = [p for p in pairs if p[1] == n - 2]
        for _ in range(200):
            edges = set(rng.sample(pairs, rng.randrange(len(pairs) // 4 + 1)))
            edges.add(rng.choice(last))
            data = sparse6_bytes(n, sorted(edges))
            back = nx.from_sparse6_bytes(data.strip())
            assert back.number_of_nodes() == n
            assert _edge_set(back.edges()) == _edge_set(edges), (n, edges, data)
    # edgeless graphs: the size field alone, in its 1-, 4- and 8-byte forms
    none = np.zeros((0, 2), dtype=np.int64)
    assert sparse6_bytes(5, none) == b":D\n"
    for n in (0, 5, 62, 63, 258047, 258048):
        back = nx.from_sparse6_bytes(sparse6_bytes(n, none).strip())
        assert (back.number_of_nodes(), back.number_of_edges()) == (n, 0)


def test_resolve_equals_a_plain_binary_search(graph):
    """_resolve, which searches the queries in sorted order, gives the ids
    of a binary search per query over a whole side, -1 for unknown keys,
    and handles repeated and empty queries."""
    for side in (1, 2):
        fk, sk, sids = vertex_keys(graph, side), graph.skeys[side], graph.sids[side]
        pos = np.minimum(np.searchsorted(sk, fk), len(sk) - 1)
        plain_ids = np.where(sk[pos] == fk, sids[pos], -1)
        got = graph._resolve(side, fk)
        assert got.dtype == np.int32
        assert np.array_equal(got, plain_ids)
        assert np.array_equal(got, np.arange(len(fk)))
        unknown = np.setdiff1d(np.concatenate([sk[::97] + np.uint64(1),
                                               [np.uint64(0), KEY_MAX]]), sk)
        assert len(unknown) > 100
        lids = np.arange(len(fk))[::-5]
        query = np.concatenate([fk[lids], unknown, fk[lids], unknown[:3]])
        want = np.concatenate([lids, np.full(len(unknown), -1), lids, [-1] * 3])
        assert np.array_equal(graph._resolve(side, query), want)
        empty = graph._resolve(side, np.zeros(0, dtype=np.uint64))
        assert empty.shape == (0,) and empty.dtype == np.int32


def _assert_sorted_and_aligned(g):
    for side in (1, 2):
        sk, sids = g.skeys[side], g.sids[side]
        assert sids.dtype == np.int32
        assert (sk[1:] > sk[:-1]).all()
        assert np.array_equal(np.sort(sids), np.arange(len(g.reps[side])))
        assert np.array_equal(vertex_keys(g, side)[sids], sk)


def test_register_keeps_each_side_sorted_after_a_build_and_a_load(ng, tmp_path):
    """The build registers each layer's fresh keys, in the order that
    _resolve searched them in, with their first-probe ids; a load
    registers a whole side whose keys come unsorted, sorted by one
    argsort.  Either way the merged keys stay sorted, with each id beside
    its key."""
    built = build_graph(ng)
    _assert_sorted_and_aligned(built)
    save_cache(built, str(tmp_path / "g"))
    loaded = load_cache(str(tmp_path / "g"), ng)
    for side in (1, 2):
        fk = vertex_keys(loaded, side)
        assert (fk[1:] < fk[:-1]).any()
    _assert_sorted_and_aligned(loaded)
    for side in (1, 2):
        assert np.array_equal(loaded.skeys[side], built.skeys[side])
        assert np.array_equal(loaded.sids[side], built.sids[side])


def test_register_merges_like_a_stable_sort_of_all_keys(ng):
    """Batches with keys repeated within and across them, an empty one
    included, each passed sorted by a stable argsort with its ids: after
    each, the sorted keys and ids are those of a stable argsort of every
    key so far, and the reps are appended in order."""
    g = CosetGraph(ng.field, ng)
    _arm(g)
    rng = np.random.default_rng(7)
    seen = []
    for n in (1, 0, 50, 7, 200):
        keys = rng.integers(0, 300, n, dtype=np.uint64)
        base, order = len(g.reps[1]), np.argsort(keys, kind="stable")
        reps = np.arange(base, base + n, dtype=np.uint64)
        g._register(1, reps, keys[order], base + order)
        seen.append(keys)
        allkeys = np.concatenate(seen)
        order = np.argsort(allkeys, kind="stable")
        assert np.array_equal(g.skeys[1], allkeys[order])
        assert np.array_equal(g.sids[1], order) and g.sids[1].dtype == np.int32
        assert np.array_equal(g.reps[1], np.arange(len(allkeys)))


def test_build_deterministic(ng):
    a, b = build_graph(ng), build_graph(ng)
    assert (a.n1, a.n2) == (b.n1, b.n2)
    for side in (1, 2):
        assert np.array_equal(a.reps[side], b.reps[side])
        assert np.array_equal(a.skeys[side], b.skeys[side])
        assert np.array_equal(a.sids[side], b.sids[side])
    assert np.array_equal(a.edges, b.edges)


def test_non_injective_key_fails_the_count(ng, monkeypatch):
    """A probe key that merges cosets, injected through the grid kernel
    that keys the probes, must fail the orbit count, not return a smaller
    graph."""
    grid = coset.conj_fingerprint_grid
    monkeypatch.setattr(coset, "conj_fingerprint_grid", lambda *args:
                        grid(*args) & np.uint64(0xFFFF << 48))
    with pytest.raises(AssertionError, match=r"is not \|G\|"):
        build_graph(ng)


def test_out_of_range_vertex_ids_raise_value_error(graph, ng):
    """image_batch, image, stabilizer_key_rows, fixes, neighbors and degree
    name an id outside [0, nv) in a ValueError, whether it comes alone or
    after a valid id of either side, where numpy's indexing would wrap a
    negative id to the vertex n1 - 1 or nv - 1, or raise an IndexError."""
    x = ng.p["A"]
    keys = graph.kkeys[1, "K"][:5]
    for g in (graph.nv, graph.nv + 7, -1, -graph.nv):
        with pytest.raises(ValueError, match=rf"vertex id {g} is not in \[0, {graph.nv}\)"):
            graph.image_batch([g], x.key)
        for calls in (lambda ids: graph.image_batch(ids, [x.key]), graph.stabilizer_key_rows,
                      lambda ids: graph.fixes(keys, ids)):
            for ids in ([g], [0, g], [graph.n1, g]):
                with pytest.raises(ValueError, match=rf"vertex id {g} "):
                    calls(ids)
        for one in (lambda g: graph.image(g, x), graph.neighbors, graph.degree):
            with pytest.raises(ValueError, match=rf"vertex id {g} "):
                one(g)


def test_edge_table_check_rejects_a_repeated_end(ng, monkeypatch):
    """A side-1 row whose probes resolve to one side-2 vertex twice (two
    known ends of one row made equal, so every coset is still found) fails
    the edge table check: the build raises and returns no graph."""
    resolve = CosetGraph._resolve
    broken = []

    def repeating(self, side, keys, misses=False):
        found = resolve(self, side, keys, misses)
        ids = found[0] if misses else found
        if side == 2 and not broken and len(ids) >= 3 and (ids[:2] >= 0).all():
            ids[1] = ids[0]
            broken.append(len(ids))
        return found
    monkeypatch.setattr(CosetGraph, "_resolve", repeating)
    built = []
    with pytest.raises(AssertionError, match="edge table check"):
        built.append(build_graph(ng))
    assert broken and not built


# sha256 prefixes of the graph's arrays, recorded from the build that
# numbers each layer's fresh vertices by their first probe: the reps (packed
# keys) per modulus, and the edges and the CSR, one labelled graph under
# every modulus.  (While each layer was numbered in key order, the edges
# read 49ee27cb215580fd under 0x5b and e688f8326091ea21 under 0x43.)
GRAPH_DIGESTS = {
    "reps": {DEFAULT_MODULUS: {"reps1": "fc712de373d41509", "reps2": "abe59f70f3d4a793"},
             0b1000011: {"reps1": "e8e82fd967a88abe", "reps2": "f03e69bde7e587e7"}},
    "graph": {"edges": "fc2e541f6fd4dcd7", "indices": "fda13c1a53ee74e2",
              "indptr": "8de02f51b09b337f"},
}


def _digests(arrays: dict) -> dict:
    return {name: hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()[:16]
            for name, a in arrays.items()}


def test_graph_arrays_are_pinned(graph, graph43):
    """Under 0x5b and 0x43 the reps, the edges and the CSR (indptr as
    int64) are byte for byte those of the recorded builds: the reps each
    modulus's, the rest one set for both."""
    for g in (graph, graph43):
        assert _digests({"reps1": g.reps[1], "reps2": g.reps[2]}) == \
            GRAPH_DIGESTS["reps"][g.field.modulus]
        assert _digests({"edges": g.edges, "indices": g.indices,
                         "indptr": g.indptr.astype(np.int64)}) == GRAPH_DIGESTS["graph"]


def test_one_labelled_graph_under_both_moduli(graph, graph43, sparse6_full):
    """0x5b and 0x43 write GF(64) down differently, but every vertex id is
    fixed by the named generators alone: the two builds have the same
    edges, CSR and sparse6 bytes, and differ in the reps' packed keys."""
    for name in ("edges", "indptr", "indices"):
        a, b = getattr(graph, name), getattr(graph43, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert sparse6_bytes(graph43.nv, np.stack(graph43._edge_ends(), 1)) == sparse6_full[0]
    assert not np.array_equal(graph.reps[1], graph43.reps[1])


def _kept_bytes(g) -> int:
    """Bytes of the numpy arrays a graph keeps in its fields, caches aside."""
    total = 0
    for f in dataclasses.fields(g):
        if f.name.startswith("_"):
            continue
        v = getattr(g, f.name)
        for a in (v.values() if isinstance(v, dict) else [v]):
            total += sum(x.nbytes for x in (a if isinstance(a, tuple) else (a,))
                         if isinstance(x, np.ndarray))
    return total


def test_graph_keeps_at_most_3_mib(graph):
    """A built graph keeps at most 3.0 MiB of arrays: reps, edges, CSR,
    sorted vertex keys and ids, and the stabilizer keys.  Measured: 2.95
    MiB; a vertex-order copy of the sorted keys and an int64 indptr made
    3.63 MiB."""
    assert _kept_bytes(graph) <= 3.0 * 2 ** 20


@pytest.mark.parametrize("modulus", [DEFAULT_MODULUS, 0b1000011], ids=hex)
def test_build_matches_the_all_probes_oracle(modulus, ng, graph43, tmp_path):
    """The BFS that keys probes by conjugating t^-1 y t and skips the probe
    back to the parent gives the plain BFS's graph, array for array and
    byte for byte in the cache."""
    ng = ng if modulus == DEFAULT_MODULUS else graph43.ng
    assert ng.field.modulus == modulus
    got, want = build_graph(ng), build_graph_all_probes(ng)
    assert (got.n1, got.n2) == (want.n1, want.n2)
    for side in (1, 2):
        assert np.array_equal(got.reps[side], want.reps[side])
        assert np.array_equal(got.skeys[side], want.skeys[side])
        assert np.array_equal(got.sids[side], want.sids[side])
    for name in ("edges", "indptr", "indices"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    save_cache(got, str(tmp_path / "got"))
    save_cache(want, str(tmp_path / "want"))
    assert (tmp_path / "got").read_bytes() == (tmp_path / "want").read_bytes()


def test_build_probe_and_product_counts(ng, monkeypatch):
    """One build keys 4 + 3 probes in its first layer, then 3 per later
    side-1 vertex and 2 per later side-2 vertex that still has a neighbor
    to find, with no probe back to a parent: 129,388 fingerprints, where
    probing every neighbor takes 204,288 and every vertex but its parent
    144,706.  The grid kernel's other calls, one element c each, key the
    two base vertices, then the checks of _assert_base_edge act on x3: x1
    under E, and x3 under its 1,296 stabilizer keys.  The products are
    two for each of the 7 elements t^-1 y t and no more: each new vertex's
    rep key is one table lookup, (n1 - 1) + (n2 - 1) in all."""
    grids, products, lookups = [], [], []
    grid, bsmul, lmul = coset.conj_fingerprint_grid, FieldOps.bsmul, coset.lmul_keys

    def counted_grid(ops, rkeys, tables, inverse=True):
        grids.append((len(rkeys), len(tables[1])))
        return grid(ops, rkeys, tables, inverse)

    def counted_bsmul(self, gm, gt, hm, ht):
        products.append(len(gm))
        return bsmul(self, gm, gt, hm, ht)

    def counted_lmul(tables, rkeys, tidx):
        lookups.append(len(rkeys))
        return lmul(tables, rkeys, tidx)

    monkeypatch.setattr(coset, "conj_fingerprint_grid", counted_grid)
    monkeypatch.setattr(FieldOps, "bsmul", counted_bsmul)
    monkeypatch.setattr(coset, "lmul_keys", counted_lmul)
    g = build_graph(ng)
    probes = sum(n * k for n, k in grids if k > 1)
    assert probes == 4 + 3 + 3 * (g.n1 - 1) + 2 * (g.n2 - 1 - 7659) == 129388
    assert [n for n, k in grids if k == 1] == [1, 1, 1, 1296]
    assert sum(products) == 2 * (4 + 3)
    assert sum(lookups) == (g.n1 - 1) + (g.n2 - 1)


def _base_edge_distances(graph) -> np.ndarray:
    """Each vertex's distance from the base edge {x1, x2}, by a plain
    breadth-first search over the CSR."""
    dist = np.full(graph.nv, -1, dtype=np.int64)
    front = np.array([graph.base_x1, graph.base_x2])
    d = 0
    while len(front):
        dist[front] = d
        nbrs = np.concatenate([graph.neighbors(int(v)) for v in front])
        front = np.unique(nbrs[dist[nbrs] < 0])
        d += 1
    return dist


@pytest.mark.parametrize("modulus", [DEFAULT_MODULUS, 0b1000011], ids=hex)
def test_build_skips_side_two_vertices_whose_neighbors_are_known(modulus, ng, graph43,
                                                                 monkeypatch):
    """A build probes from 16 layers and keys 129,388 probes: 7,659 side-2
    vertices make none, exactly those whose three neighbors all lie no
    farther from the base edge than they do, so that each has probed them
    before the side-2 pass reaches them.  The probes that target side 2
    key with the inverse, those that target side 1 without."""
    ng = ng if modulus == DEFAULT_MODULUS else graph43.ng
    grids, layers = [], []
    grid = coset.conj_fingerprint_grid

    def counted_grid(ops, rkeys, tables, inverse=True):
        grids.append((len(rkeys), len(tables[1]), inverse))
        return grid(ops, rkeys, tables, inverse)
    monkeypatch.setattr(coset, "conj_fingerprint_grid", counted_grid)
    g = build_graph(ng, progress=lambda n1, n2: layers.append((n1, n2)))
    probe_calls = [(n, k, inverse) for n, k, inverse in grids if k > 1]
    side1 = [n for n, k, inverse in probe_calls if inverse]
    side2 = [n for n, k, inverse in probe_calls if not inverse]
    assert len(layers) == len(side1) == len(side2) == 16
    assert [k for _, k, _ in probe_calls[:2]] == [4, 3]
    assert all(k == 3 - (not inverse) for _, k, inverse in probe_calls[2:])
    assert sum(n * k for n, k, _ in probe_calls) == 129388
    skipped = g.n2 - sum(side2)
    assert skipped == 7659
    dist = _base_edge_distances(g)
    rows = g.indices[len(g.edges):].reshape(g.n2, 3)
    known = (dist[rows] <= dist[g.n1:, None]).all(axis=1)
    assert int(known.sum()) == skipped


def test_fingerprint_key_against_canonical_oracle(graph, ng):
    """Sampled vertices of each side: the exact canonical forms of their
    representatives are pairwise distinct, and image(v, x) is the vertex
    whose canonical form is that of rep(v).x."""
    ops = graph.ops
    rng = np.random.default_rng(12)
    x = ng.p["E"] * ng.p["sigma"] * ng.p["A"] * ng.p["D"]
    xm, xt = bunpack(np.array([x.key], dtype=np.uint64))
    for side, K, off in ((1, ng.K1, 0), (2, ng.K2, graph.n1)):
        sub = subgroup_arrays(ops, K)
        n = graph.n1 if side == 1 else graph.n2
        lids = rng.choice(n, size=200, replace=False)
        rm, rt = bunpack(graph.reps[side][lids])
        canon = coset_canon_keys(ops, sub, rm, rt)
        assert len(np.unique(canon)) == len(lids)
        pm, pt = ops.bsmul(rm, rt, np.repeat(xm, len(lids), axis=0),
                           np.repeat(xt, len(lids)))
        want = coset_canon_keys(ops, sub, pm, pt)
        img = graph.image_batch(lids + off, x.key)[:, 0] - off
        got = coset_canon_keys(ops, sub, *bunpack(graph.reps[side][img]))
        assert np.array_equal(got, want)
    # the single-element oracle agrees with the batch
    v = graph.n1 + 7
    assert coset_canon(ops, subgroup_arrays(ops, ng.K2),
                       rep_element(graph, v)).key == int(coset_canon_keys(
        ops, subgroup_arrays(ops, ng.K2),
        *bunpack(graph.reps[2][7:8]))[0])


def _rewrite(path, edit_header=None, edit_payload=None):
    """Rewrite a cache file's header fields or payload; a payload edit gets
    a fresh digest, so only the check under test can reject it."""
    with open(path, "rb") as fh:
        data = fh.read()
    head = len(CACHE_MAGIC) + CACHE_HEADER.size
    fields = list(CACHE_HEADER.unpack_from(data, len(CACHE_MAGIC)))
    payload = data[head:]
    if edit_payload:
        payload = edit_payload(bytearray(payload))
        fields[6], fields[7] = len(payload), hashlib.sha256(payload).digest()
    if edit_header:
        edit_header(fields)
    with open(path, "wb") as fh:
        fh.write(CACHE_MAGIC + CACHE_HEADER.pack(*fields) + bytes(payload))


def test_cache_rejects_damaged_files(graph, tmp_path):
    path = str(tmp_path / "g.psu38")

    def fresh():
        save_cache(graph, path)
        return path

    with open(fresh(), "r+b") as fh:        # truncated
        fh.truncate(os.path.getsize(path) - 100)
    with pytest.raises(CacheMismatch, match="header says"):
        load_cache(path, graph.ng)
    with open(fresh(), "r+b") as fh:        # truncated inside the header
        fh.truncate(40)
    with pytest.raises(CacheMismatch, match="truncated header"):
        load_cache(path, graph.ng)
    with open(fresh(), "r+b") as fh:        # one flipped payload bit
        fh.seek(-1000, os.SEEK_END)
        b = fh.read(1)
        fh.seek(-1000, os.SEEK_END)
        fh.write(bytes([b[0] ^ 4]))
    with pytest.raises(CacheMismatch, match="digest"):
        load_cache(path, graph.ng)
    _rewrite(fresh(), edit_header=lambda f: f.__setitem__(6, f[6] - 8))
    with pytest.raises(CacheMismatch, match="header says"):
        load_cache(path, graph.ng)
    _rewrite(fresh(), edit_header=lambda f: f.__setitem__(0, 3))
    with pytest.raises(CacheMismatch, match=f"cache version 3 != {CACHE_VERSION}"):
        load_cache(path, graph.ng)
    _rewrite(fresh(), edit_header=lambda f: f.__setitem__(4, f[4] - 1))
    with pytest.raises(CacheMismatch, match="vertex and edge counts"):
        load_cache(path, graph.ng)
    # a well-formed file whose content is wrong
    n1 = graph.n1

    def bad_edge(payload):
        off = 8 * (graph.n1 + graph.n2)
        payload[off:off + 4] = np.array([n1], dtype="<u4").tobytes()
        return payload

    _rewrite(fresh(), edit_payload=bad_edge)
    with pytest.raises(CacheMismatch, match="edge id out of range"):
        load_cache(path, graph.ng)

    def dup_rep(payload):
        payload[8:16] = payload[0:8]
        return payload

    _rewrite(fresh(), edit_payload=dup_rep)
    with pytest.raises(CacheMismatch, match="duplicate vertex keys"):
        load_cache(path, graph.ng)

    def swap_edges(payload):
        off = 8 * (graph.n1 + graph.n2) + 8 * 1000
        payload[off:off + 16] = payload[off + 8:off + 16] + payload[off:off + 8]
        return payload

    # the same edge set in another order would make is_graph_automorphism,
    # which compares against the stored order, answer False
    _rewrite(fresh(), edit_payload=swap_edges)
    with pytest.raises(CacheMismatch, match="not in strictly ascending order"):
        load_cache(path, graph.ng)
    assert load_cache(fresh(), graph.ng).n1 == graph.n1


def _save_with_edges(graph, path, edit):
    """save_cache of graph with its edges edited: a file whose header,
    digest and edge order are all valid."""
    g = copy.copy(graph)
    g.edges = graph.edges.copy()
    edit(g.edges)
    save_cache(g, path)
    return path


def test_cache_with_a_valid_digest_but_wrong_edges_is_rejected(graph, tmp_path):
    """A loaded graph is pinned like a built one.  Moving x1's four edges
    from side-2 vertices 0..3 to 1..4 leaves x2 with degree 2; moving the
    last edge one vertex on changes two degrees far from the base edge."""
    assert graph.edges[:4].tolist() == [[0, 0], [0, 1], [0, 2], [0, 3]]
    path = str(tmp_path / "g.psu38")

    def shift_base(edges):
        edges[:4, 1] += 1

    def shift_last(edges):
        edges[-1, 1] += 1
    for edit in (shift_base, shift_last):
        _save_with_edges(graph, path, edit)
        with pytest.raises(CacheMismatch, match="degrees are not 4 on side 1 and 3"):
            load_cache(path, graph.ng)
    assert load_cache(_save_with_edges(graph, path, lambda e: None), graph.ng).n1 == graph.n1


def _swap_edge_ends(edges):
    """The adjacency probe: the side-2 ends of the first edge at side-1
    vertices 1000 and 20000 trade places, and the edges are sorted again;
    degrees, edge order and the base edge stay intact."""
    i, j = (int(np.flatnonzero(edges[:, 0] == u)[0]) for u in (1000, 20000))
    edges[[i, j], 1] = edges[[j, i], 1]
    edges[:] = edges[np.lexsort((edges[:, 1], edges[:, 0]))]


def test_cache_with_swapped_edge_ends_is_rejected(graph, tmp_path):
    """A digest-valid file with two swapped edge ends passes every check
    but the adjacency proof, and load_cache rejects it."""
    path = str(tmp_path / f"graph-{graph.field.modulus:02x}.psu38")
    _save_with_edges(graph, path, _swap_edge_ends)
    with pytest.raises(CacheMismatch, match="cosets that do not meet"):
        load_cache(path, graph.ng)


def _tree(root):
    """Every path under root with its bytes (None for a directory) and
    its modification time."""
    return sorted((str(p.relative_to(root)), p.read_bytes() if p.is_file() else None,
                   p.stat().st_mtime_ns) for p in root.rglob("*"))


@pytest.mark.parametrize("kind", ["file", "directory"])
def test_verify_and_build_never_touch_a_graph_file(kind, graph, builds, tmp_path,
                                                   monkeypatch, capsys):
    """The CLI builds every graph it uses.  A digest-valid graph file with
    swapped edge ends, or a directory, at graph-5b.psu38 where the cache
    used to live (a context's cache_dir, ./.psu38_cache and
    AMALGAM_CACHE_DIR) changes no verdict and stays as it was, and
    psu38 build writes no file.  The session's graph stands in for the
    builds, and load_cache must not be called."""
    cache_dir = tmp_path / ".psu38_cache"
    cache_dir.mkdir()
    path = cache_dir / f"graph-{graph.field.modulus:02x}.psu38"
    if kind == "file":
        _save_with_edges(graph, str(path), _swap_edge_ends)
    else:
        path.mkdir()
    before = _tree(tmp_path)

    def no_load(*args):
        raise AssertionError("a graph file was read")
    monkeypatch.setattr(coset, "load_cache", no_load)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("AMALGAM_CACHE_DIR", str(cache_dir))
    assert harness.main(["verify", "--claims", "T1.1,L3.10"]) == 0
    ctx = harness.VerifyContext(cache_dir=str(cache_dir))
    assert harness.run_claims(ctx, claim_filter="L3.10.partial.i")["overall"]
    assert harness.main(["build"]) == 0
    assert builds == [graph.field.modulus] * 3
    assert "[FAIL]" not in capsys.readouterr().out
    assert _tree(tmp_path) == before


def test_adjacency_proof_rejects_one_corrupted_edge_end(graph):
    g = copy.copy(graph)
    g.edges = graph.edges.copy()
    g.edges[5000, 1] = (int(g.edges[5000, 1]) + 1) % graph.n2
    with pytest.raises(AssertionError, match="cosets that do not meet"):
        coset._assert_adjacency(g)


def test_adjacency_proof_passes_the_built_graphs(graph, graph43):
    """Under 0x5b and 0x43 every edge of the graph joins cosets that meet."""
    for g in (graph, graph43):
        coset._assert_adjacency(g)


def test_save_cache_removes_its_temp_file_on_failure(graph, tmp_path, monkeypatch):
    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(coset.os, "replace", fail)
    with pytest.raises(OSError):
        save_cache(graph, str(tmp_path / "g.psu38"))
    assert os.listdir(tmp_path) == []


def test_sparse6_full_export(graph, sparse6_full, tmp_path):
    """The exported file is the session's sparse6 bytes, byte for byte,
    whose decoding (made once per session) is the graph."""
    path = str(tmp_path / "full.s6")
    assert export_sparse6(graph, path) == 59584
    assert os.path.getsize(path) < 1_000_000
    data, back = sparse6_full
    with open(path, "rb") as fh:
        assert fh.read() == data
    assert back.number_of_nodes() == 59584
    assert back.number_of_edges() == 102144
    u = graph.edges[:, 0].astype(np.int64)
    v = graph.edges[:, 1].astype(np.int64) + graph.n1
    assert _edge_set(back.edges()) == _edge_set(zip(u, v))


def test_csr_equals_the_lexsorted_adjacency(graph):
    """indptr and indices are those of both edge directions sorted by
    (source, destination)."""
    u = graph.edges[:, 0].astype(np.int64)
    v = graph.edges[:, 1].astype(np.int64) + graph.n1
    src, dst = np.concatenate([u, v]), np.concatenate([v, u])
    order = np.lexsort((dst, src))
    indptr = np.zeros(graph.nv + 1, dtype=np.int64)
    np.add.at(indptr, src[order] + 1, 1)
    assert graph.indptr.dtype == np.int32 and graph.indices.dtype == np.int32
    assert np.array_equal(graph.indptr, np.cumsum(indptr))
    assert np.array_equal(graph.indices, dst[order])

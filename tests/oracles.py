"""Test oracles: plain, direct computations that the program's fast paths
are checked against.  psu38 itself uses none of them."""

from collections import Counter

import numpy as np

from psu38.fastops import SubgroupArrays, bunpack, coset_canon_keys
from psu38.grp import Perm, SmallGroup, _close
from psu38.psu import Element, PElement


def unpack(key: int) -> tuple[tuple[int, ...], int]:
    """The (matrix, twist) that psu.pack packs into key."""
    twist = key & 7
    key >>= 3
    mat = [0] * 9
    for i in range(8, -1, -1):
        mat[i] = key & 63
        key >>= 6
    return tuple(mat), twist


def element_from_key(field, key: int) -> Element:
    mat, twist = unpack(key)
    return Element(field, mat, twist)


def scalar_mul(el: Element, s: int) -> Element:
    """el with its matrix scaled by the field element s, twist kept."""
    row = el.field.mulrows[s]
    return Element(el.field, tuple([row[v] for v in el.mat]), el.twist)


def subgroup_arrays(ops, G) -> SubgroupArrays:
    """The canonical-form scan's arrays for the elements of G."""
    return SubgroupArrays(ops, (x.key for x in G.elems))


def coset_canon(ops, sub: SubgroupArrays, g: PElement) -> PElement:
    """Least representative of the coset K.g by an exact scan; an oracle
    for the fingerprint key."""
    pm, pt = bunpack(np.array([g.key], dtype=np.uint64))
    key = coset_canon_keys(ops, sub, pm, pt)[0]
    return PElement(element_from_key(ops.field, int(key)))


def rep_element(graph, v: int) -> PElement:
    """The stored representative of vertex v, as a plain PElement."""
    key = int(graph.reps[graph.side_of(v)][graph.local_id(v)])
    return PElement(element_from_key(graph.field, key))


def group_from_keys(graph, keys, name: str = "") -> SmallGroup:
    """graph.group_from_keys, and the group on plain PElements where
    neither K1 nor K2 holds the keys (the stabilizer of a non-base
    vertex)."""
    if graph.ng.interned(keys) is not None:
        return graph.group_from_keys(keys, name)
    return SmallGroup.from_set(
        [PElement(element_from_key(graph.field, int(k))) for k in keys],
        PElement(Element.identity(graph.field)), name)


def vertex_stabilizer(graph, v: int, group: str = "K") -> SmallGroup:
    """The stabilizer of any vertex as a group: the base stabilizer at a
    base vertex, else the group on its stabilizer_keys."""
    if graph.local_id(v) == 0:
        return graph.vertex_stabilizer(v, group)
    return group_from_keys(graph, graph.stabilizer_keys(v, group), f"{group}_v{v}")


def perm_by_images(graph, x: PElement) -> np.ndarray:
    """graph.perm(x) by one whole-graph image_batch (conj_fingerprints on
    every vertex), uncached."""
    return graph.image_batch(np.arange(graph.nv), x.key).astype(np.int32)


def fixers_by_images(graph, keys, gids) -> np.ndarray:
    """graph.fixers by resolving the image of every (vertex, element) pair
    with one rowwise image_batch."""
    keys = np.asarray(keys, dtype=np.uint64)
    gids = np.asarray(gids, dtype=np.int64)
    img = graph.image_batch(np.repeat(gids, len(keys)), np.tile(keys, len(gids)))
    fixed = img.reshape(len(gids), len(keys)) == gids[:, None]
    return np.flatnonzero(fixed.all(axis=0))


def perm_product(p: Perm, q: Perm) -> Perm:
    """p * q (p first, then q) by a list of q's images along p."""
    oi = q.im
    return Perm([oi[i] for i in p.im])


def order_profile(G: SmallGroup) -> Counter:
    """How many elements of G have each order."""
    return Counter(G.element_order(x) for x in G.elems)


def greedy_prefixes(cands, identity):
    """The greedy generating sequence of cands (each candidate outside the
    span of those taken before it) by closing every prefix from scratch:
    the sequence, the span sizes ends (ends[i] = |<gens[:i]>|) and the
    closure tree of the whole sequence."""
    gens, ends = [], [1]
    tree = ([identity], [0], [-1], {})
    span = {identity}
    for x in cands:
        if x in span:
            continue
        gens.append(x)
        tree = _close(gens, identity)
        span = set(tree[0])
        ends.append(len(span))
    return gens, ends, tree


def generating_set(G: SmallGroup) -> list:
    """SmallGroup.generating_set by closing each prefix: greedy over the
    elements by decreasing order."""
    if len(G) == 1:
        return [G.identity]
    cand = sorted(G.elems, key=lambda x: (-G.element_order(x), x))
    gens, ends, _ = greedy_prefixes(cand, G.identity)
    if ends[-1] != len(G):
        raise AssertionError("element set is not closed under multiplication")
    return gens


def iso_generators(G1: SmallGroup, G2: SmallGroup):
    """The generating sequence of G1 that the isomorphism search onto G2
    takes, with its ends and tree as greedy_prefixes gives them: greedy,
    preferring elements with the fewest candidate images (ties broken
    canonically)."""
    inv1, inv2 = refined_invariants(G1), refined_invariants(G2)
    images = Counter(inv2.values())
    cands = sorted(G1.sorted_elems(), key=lambda g: images[inv1[g]])
    return greedy_prefixes(cands, G1.identity)


def refined_invariants(G: SmallGroup) -> dict:
    """Per-element invariant labels: conjugacy class data sharpened by the
    labels of small powers, iterated to a fixed point.  Isomorphisms
    preserve these labels, so they are safe candidate filters.  Not
    cached on G."""
    inv = {}
    for g in G.elems:
        o, s = G.conj_class_invariants()[g]
        inv[g] = (o, s)
    for _ in range(3):
        nxt = {}
        for g in G.elems:
            g2 = g * g
            g3 = g2 * g
            nxt[g] = (inv[g], inv[g2], inv[g3])
        # compress labels to keep tuples small
        labels = {v: i for i, v in enumerate(sorted(set(nxt.values())))}
        new = {g: labels[v] for g, v in nxt.items()}
        if len(set(new.values())) == len(set(inv.values())):
            break
        # keep the original pair visible in the label for readability of
        # candidate filtering
        inv = {g: (inv[g][0] if isinstance(inv[g], tuple) else inv[g], new[g])
               for g in G.elems}
    return inv


def iso_search(G1: SmallGroup, G2: SmallGroup):
    """The isomorphism search of grp.iso_check with no memo and no cached
    invariants, each orbit and centralizer by its own products: None, or
    the isomorphism as a dict."""
    if len(G1) != len(G2):
        return None
    if order_profile(G1) != order_profile(G2):
        return None
    if len(G1) == 1:
        return {G1.identity: G2.identity}
    if G1.is_abelian() != G2.is_abelian():
        return None
    cls1 = G1.conj_class_invariants()
    cls2 = G2.conj_class_invariants()
    if Counter(cls1.values()) != Counter(cls2.values()):
        return None
    inv1 = refined_invariants(G1)
    inv2 = refined_invariants(G2)
    if Counter(inv1.values()) != Counter(inv2.values()):
        return None

    by_inv2: dict = {}
    for h in G2.sorted_elems():
        by_inv2.setdefault(inv2[h], []).append(h)

    # G1's closure tree over its generating sequence, whose span of
    # gens1[:i+1] is the prefix elems[:ends[i+1]]
    gens1, ends, (elems, parent, genidx, right) = iso_generators(G1, G2)

    # Iterative DFS over candidate image tuples.  Composing a candidate
    # isomorphism with an inner automorphism of G2 is free, so the first
    # image ranges over one representative per conjugacy class, and
    # deeper candidates are reduced to orbit representatives under the
    # centralizer of the images already placed.  Pairwise product
    # invariants prefilter.  A candidate h for gens1[i] maps the new part
    # of the prefix along the tree, then must be injective and keep
    # f(x g_j) = f(x) h_j for the new x and j <= i.  The old x with j = i
    # are tree edges, and earlier depths checked the rest, so at the last
    # depth every pair holds: that is the whole homomorphism test.
    stack = [([G2.identity], [], G2.elems)]
    while stack:
        img, imgs, cent = stack.pop()
        i = len(imgs)
        if i == len(gens1):
            return dict(zip(elems, img))
        g = gens1[i]
        cands = []
        seen: set = set()
        cpairs = [(c.inv(), c) for c in cent]
        for h in by_inv2[inv1[g]]:
            if h in seen:
                continue
            orbit = {ci * h * c for ci, c in cpairs}
            seen |= orbit
            fits = True
            for gj, hj in zip(gens1[:i], imgs):
                if inv1[gj * g] != inv2[hj * h] or inv1[g * gj] != inv2[h * hj]:
                    fits = False
                    break
            if fits:
                cands.append(h)
        lo, hi = ends[i], ends[i + 1]
        for h in reversed(cands):
            hs = imgs + [h]
            m = img + [None] * (hi - lo)
            for t in range(lo, hi):
                m[t] = m[parent[t]] * hs[genidx[t]]
            if len(set(m)) == hi and all(m[right[j][x]] == m[x] * hs[j]
                                         for x in range(lo, hi) for j in range(i + 1)):
                newcent = [c for c in cent if c * h == h * c]
                stack.append((m, hs, newcent))
    return None

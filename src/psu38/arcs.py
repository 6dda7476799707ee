"""s-arc enumeration, orbit and transitivity analysis, kernels of action
G_z^[i], and the local characteristic / pushing up predicates.

Group elements act on vertices on the right through CosetGraph.perm;
stabilizer subgroups evaluate their whole action table incrementally
along their closure tree, one permutation gather per element.
"""

from __future__ import annotations

import numpy as np

from .coset import CosetGraph
from .grp import Perm, SmallGroup


# ---------------------------------------------------------------------------
# balls and arcs


def ball(graph: CosetGraph, v: int, r: int) -> tuple[np.ndarray, np.ndarray]:
    """Vertices within distance r of v in BFS order, with their radii."""
    ids = [v]
    radii = [0]
    seen = {v}
    frontier = [v]
    for d in range(1, r + 1):
        nxt = []
        for u in frontier:
            for w in graph.neighbors(u):
                w = int(w)
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
                    ids.append(w)
                    radii.append(d)
        frontier = nxt
    return np.array(ids, dtype=np.int64), np.array(radii, dtype=np.int64)


def enumerate_arcs(graph: CosetGraph, v: int, s: int) -> np.ndarray:
    """All s-arcs starting at v: paths with no immediate backtracking."""
    if s == 0:
        return np.array([[v]], dtype=np.int64)
    arcs = []
    stack = [(v, int(u)) for u in sorted(graph.neighbors(v))]
    path = None
    out = []

    def extend(prefix):
        if len(prefix) == s + 1:
            out.append(prefix)
            return
        last, prev = prefix[-1], prefix[-2]
        for w in graph.neighbors(last):
            w = int(w)
            if w != prev:
                extend(prefix + (w,))

    for v0, v1 in stack:
        extend((v0, v1))
    return np.array(out, dtype=np.int64)


def arc_count_formula(graph: CosetGraph, v: int, s: int) -> int:
    """Valency product along the bipartite alternation; arcs may revisit
    vertices so this is exact for every s."""
    d1, d2 = 4, 3
    deg = [d1, d2] if graph.side_of(v) == 1 else [d2, d1]
    n = 1
    for i in range(s):
        d = deg[i % 2]
        n *= d if i == 0 else d - 1
    return n


# ---------------------------------------------------------------------------
# stabilizer actions


def stab_action_table(graph: CosetGraph, S: SmallGroup, pts: np.ndarray) -> np.ndarray:
    """(|S|, len(pts)) table of images pts . S[i], evaluated along the
    closure tree; requires S built by SmallGroup.generate."""
    if S.parent is None:
        S = S.regenerate()
    gperm = [graph.perm(g) for g in S.gens]
    n = len(S.elems)
    T = np.empty((n, len(pts)), dtype=np.int64)
    T[0] = pts
    for i in range(1, n):
        T[i] = gperm[S.genidx[i]][T[S.parent[i]]]
    return T, S


def orbit_partition(arcs: np.ndarray, perms: list[np.ndarray]) -> list[int]:
    """Orbit sizes of the group generated by perms acting on the arc rows."""
    index = {a.tobytes(): i for i, a in enumerate(arcs)}
    assert len(index) == len(arcs)
    seen = np.zeros(len(arcs), dtype=bool)
    sizes = []
    for start in range(len(arcs)):
        if seen[start]:
            continue
        comp = [start]
        seen[start] = True
        fr = [start]
        while fr:
            nf = []
            for i in fr:
                row = arcs[i]
                for p in perms:
                    j = index[p[row].tobytes()]
                    if not seen[j]:
                        seen[j] = True
                        comp.append(j)
                        nf.append(j)
            fr = nf
        sizes.append(len(comp))
    return sorted(sizes, reverse=True)


def base_stabilizer(graph: CosetGraph, v: int, group: str) -> SmallGroup:
    """Stabilizer of a base vertex with closure links intact."""
    ng = graph.ng
    if v == graph.base_x1:
        return ng.K1 if group == "K" else ng.H1
    if v == graph.base_x2:
        return ng.K2 if group == "K" else ng.H2
    return graph.vertex_stabilizer(v, group)


def arc_orbits(graph: CosetGraph, v: int, s: int, group: str) -> dict:
    """Orbit structure of the vertex stabilizer on s-arcs at v."""
    arcs = enumerate_arcs(graph, v, s)
    stab = base_stabilizer(graph, v, group)
    perms = [graph.perm(g) for g in stab.gens_list()]
    sizes = orbit_partition(arcs, perms)
    return {
        "vertex": v,
        "s": s,
        "group": group,
        "arc_count": len(arcs),
        "orbit_count": len(sizes),
        "orbit_sizes": sizes,
        "transitive": len(sizes) == 1,
        "stab_order": len(stab),
    }


def max_local_s(graph: CosetGraph, group: str, s_max: int = 8) -> tuple[int, list]:
    """Largest s with 1 orbit on s-arcs at both base vertices (and at all
    smaller s); also returns the full orbit-count table."""
    table = []
    best = 0
    chain_ok = True
    for s in range(1, s_max + 1):
        r1 = arc_orbits(graph, graph.base_x1, s, group)
        r2 = arc_orbits(graph, graph.base_x2, s, group)
        table.append((s, r1["orbit_count"], r2["orbit_count"]))
        if chain_ok and r1["transitive"] and r2["transitive"]:
            best = s
        else:
            chain_ok = False
    return best, table


def arc_stabilizer(graph: CosetGraph, arc, group: str) -> SmallGroup:
    """Pointwise stabilizer of the arc: intersection of the vertex
    stabilizers, as explicit element sets."""
    arc = [int(x) for x in arc]
    stab0 = graph.vertex_stabilizer(arc[0], group)
    cur = set(stab0.eset)
    for v in arc[1:]:
        cur &= graph.vertex_stabilizer(v, group).eset
    return stab0.subgroup(cur, name=f"{group}_arc")


# ---------------------------------------------------------------------------
# kernels of action


class KernelData:
    """Kernels G_z^[i] for one base vertex and group, plus the induced
    permutation group on the neighbors."""

    def __init__(self, graph: CosetGraph, v: int, group: str, max_r: int = 5):
        self.graph = graph
        self.v = v
        self.group = group
        self.max_r = max_r
        pts, radii = ball(graph, v, max_r)
        self.ball_pts = pts
        self.ball_radii = radii
        stab = base_stabilizer(graph, v, group)
        T, stab = stab_action_table(graph, stab, pts)
        self.stab = stab
        moved = T != pts[None, :]
        # smallest radius any element moves; identity and deep kernels get max_r+1
        first_moved = np.where(
            moved.any(axis=1),
            np.where(moved, radii[None, :], max_r + 1).min(axis=1),
            max_r + 1,
        )
        if first_moved.min() < 1:
            raise AssertionError("stabilizer element moves its own vertex")
        self.first_moved = first_moved
        self.action_table = T

    def kernel(self, i: int) -> SmallGroup:
        els = [self.stab.elems[j] for j in np.where(self.first_moved > i)[0]]
        return self.stab.subgroup(els, name=f"{self.group}_z{self.v}^[{i}]")

    def induced_neighbor_group(self) -> tuple[SmallGroup, SmallGroup]:
        """(induced permutation group on the neighbors, its kernel).

        The kernel here is computed by permutation filtering, independent
        of the radius bookkeeping in self.first_moved.
        """
        nbrs = sorted(int(x) for x in self.graph.neighbors(self.v))
        pos = {u: i for i, u in enumerate(nbrs)}
        cols = [int(np.where(self.ball_pts == u)[0][0]) for u in nbrs]
        sub = self.action_table[:, cols]
        ident = tuple(range(len(nbrs)))
        images = set()
        kernel_els = []
        for j in range(sub.shape[0]):
            im = tuple(pos[int(x)] for x in sub[j])
            images.add(im)
            if im == ident:
                kernel_els.append(self.stab.elems[j])
        induced = SmallGroup.from_set(map(Perm, images), Perm(ident),
                                      name=f"{self.group}_z{self.v}^D(z)")
        kern = self.stab.subgroup(kernel_els)
        return induced, kern


# ---------------------------------------------------------------------------
# local characteristic and pushing up


def o3_of_first_kernel(graph: CosetGraph, v: int, group: str) -> SmallGroup:
    kd = KernelData(graph, v, group, max_r=1)
    return kd.kernel(1).p_core(3)


def local_characteristic(graph: CosetGraph, group: str, p: int = 3) -> tuple[bool, list]:
    """C_{G_{x_i}}(O_p(G_z^[1])) <= O_p(G_z^[1]) for z, x_i among the two
    base vertices at distance <= 1 (the two orbit representatives)."""
    x1, x2 = graph.base_x1, graph.base_x2
    details = []
    ok = True
    qz = {z: KernelData(graph, z, group, max_r=1).kernel(1).p_core(p) for z in (x1, x2)}
    for z in (x1, x2):
        for xi in (x1, x2):
            stab = base_stabilizer(graph, xi, group)
            c = stab.centralizer(qz[z].gens_list())
            contained = c.eset <= qz[z].eset
            ok = ok and contained
            details.append({
                "z": z, "xi": xi, "|O_p|": len(qz[z]),
                "|centralizer|": len(c), "contained": contained,
            })
    return ok, details


def pushing_up(graph: CosetGraph, group: str, p: int = 3) -> tuple[bool, dict]:
    lc, details = local_characteristic(graph, group, p)
    q1 = o3_of_first_kernel(graph, graph.base_x1, group)
    q2 = o3_of_first_kernel(graph, graph.base_x2, group)
    contained = q1.eset <= q2.eset
    return lc and contained, {
        "local_characteristic": lc,
        "O_p(G_x1^[1]) <= O_p(G_x2^[1])": contained,
        "|O_p(G_x1^[1])|": len(q1),
        "|O_p(G_x2^[1])|": len(q2),
        "centralizer_details": details,
    }


# ---------------------------------------------------------------------------
# sampled redundancy checks


def sampled_vertex_checks(
    graph: CosetGraph, group: str, p: int = 3,
    n_wide: int = 100, n_deep: int = 12, seed: int = 38,
) -> dict:
    """Spot checks at random non-base vertices, guarding the reduction of
    "for all z" conditions to orbit representatives against convention
    bugs.

    wide: the conjugate stabilizer really fixes its vertex (spot-checked
    on a sample of its elements) and has the right order.
    deep: recompute G_v^[1] as an intersection of vertex stabilizers and
    reverify the centralizer condition directly.
    """
    rng = np.random.default_rng(seed)
    wide_ids = rng.choice(graph.nv, size=min(n_wide, graph.nv), replace=False)
    wide_ok = True
    for v in wide_ids:
        v = int(v)
        stab = graph.vertex_stabilizer(v, group)
        side = graph.side_of(v)
        expect = {
            ("K", 1): 1296, ("K", 2): 972, ("H", 1): 432, ("H", 2): 324,
        }[(group, side)]
        if len(stab) != expect:
            wide_ok = False
            break
        els = stab.sorted_elems()
        sample = [els[int(i)] for i in rng.integers(0, len(els), size=8)]
        if any(graph.image(v, g) != v for g in sample):
            wide_ok = False
            break
    deep_ids = rng.choice(graph.nv, size=min(n_deep, graph.nv), replace=False)
    deep_ok = True
    for v in deep_ids:
        v = int(v)
        stab = graph.vertex_stabilizer(v, group)
        kern = set(stab.eset)
        for u in graph.neighbors(v):
            kern &= graph.vertex_stabilizer(int(u), group).eset
        k1 = stab.subgroup(kern)
        q = k1.p_core(p)
        c = stab.centralizer(q.gens_list())
        if not c.eset <= q.eset:
            deep_ok = False
            break
    return {
        "wide_sample": len(wide_ids), "wide_ok": wide_ok,
        "deep_sample": len(deep_ids), "deep_ok": bool(deep_ok),
    }

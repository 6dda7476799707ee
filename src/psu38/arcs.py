"""s-arc enumeration, orbit and transitivity analysis, kernels of action
G_z^[i], and the local characteristic / pushing up predicates.

Group elements act on vertices on the right through CosetGraph.perm;
a base-vertex stabilizer evaluates its whole action table along its
closure tree, one permutation gather per element.  Other stabilizers stay
packed keys, through the one batched pair CosetGraph.stabilizer_key_rows
and fixes: an arc stabilizer is a SmallGroup only inside K1 or K2 (the
named arc's lies in K2), and the kernels G_v^[1] of a batch of vertices
of one side are pulled back to the base stabilizer's own elements by the
conjugation that stabilizer_key_rows applies (pulled_back_kernels).  Both
halves of the sampled vertex checks take their vertices in batches of
one side, so their table lookups run per batch.
"""

from __future__ import annotations

import functools

import numpy as np

from .coset import CosetGraph
from .grp import SmallGroup

# ---------------------------------------------------------------------------
# balls and arcs


def ball(graph: CosetGraph, v: int, r: int) -> tuple[np.ndarray, np.ndarray]:
    """Vertices within distance r of v, one BFS layer after another (each
    layer in ascending order), with their radii: one CSR gather per layer."""
    seen = np.zeros(graph.nv, dtype=bool)
    seen[v] = True
    layers = [np.array([v], dtype=np.int64)]
    while len(layers) <= r:
        last = layers[-1]
        lo, deg = graph.indptr[last], graph.indptr[last + 1] - graph.indptr[last]
        nb = np.unique(graph.indices[np.repeat(lo - np.cumsum(deg) + deg, deg)
                                     + np.arange(deg.sum())])
        nb = nb[~seen[nb]].astype(np.int64)
        if not len(nb):
            break
        seen[nb] = True
        layers.append(nb)
    radii = np.repeat(np.arange(len(layers)), [len(x) for x in layers])
    return np.concatenate(layers), radii


def enumerate_arcs(graph: CosetGraph, v: int, s: int) -> np.ndarray:
    """All s-arcs starting at v: paths with no immediate backtracking.

    Grown one step at a time: each prefix in order, followed by each of
    its last vertex's neighbors in ascending order, except the vertex
    before it.  The rows come out in lexicographic order of the choices
    made, the order of a depth-first search."""
    arcs = np.array([[v]], dtype=np.int64)
    for _ in range(s):
        last = arcs[:, -1]
        lo, deg = graph.indptr[last], graph.indptr[last + 1] - graph.indptr[last]
        rows = np.repeat(np.arange(len(arcs)), deg)
        # position of each neighbor in the CSR row of its prefix's end
        nb = graph.indices[np.repeat(lo - np.cumsum(deg) + deg, deg) + np.arange(len(rows))]
        keep = nb != (arcs[rows, -2] if arcs.shape[1] > 1 else -1)
        arcs = np.column_stack([arcs[rows[keep]], nb[keep]])
    return arcs


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


_MIX = np.uint64(0x9E3779B97F4A7C15)


def row_keys(rows) -> np.ndarray:
    """One uint64 per row of an integer array: a xor-multiply mix of its
    entries (exact only where its users check it)."""
    h = np.zeros(len(rows), dtype=np.uint64)
    for col in np.asarray(rows, dtype=np.uint64).T:
        h = (h ^ col) * _MIX
        h ^= h >> np.uint64(32)
    return h


def orbit_partition(rows, perms: list[np.ndarray]) -> list[int]:
    """Orbit sizes, largest first, of the group generated by the vertex
    permutations perms acting entrywise on the rows of an integer array.

    Rows are found by a binary search in their sorted row_keys, which is
    exact: the keys are pairwise distinct, and every row found is compared
    with the image it stands for.  Raises if a row repeats (or two rows
    share a key) or an image is not a row.
    """
    rows = np.asarray(rows, dtype=np.int64)
    n = len(rows)
    keys = row_keys(rows)
    order = np.argsort(keys)
    skeys = keys[order]
    if (skeys[1:] == skeys[:-1]).any():
        raise AssertionError("two rows share a key (a repeated row?)")
    images = []
    for p in perms:
        im = p[rows]
        j = order[np.minimum(np.searchsorted(skeys, row_keys(im)), n - 1)]
        if not np.array_equal(rows[j], im):
            raise AssertionError("an image row is not a row")
        images.append(j)
    # each generator permutes the rows, so an orbit is a union of cycles:
    # lowering every label to the least label of its images, with pointer
    # jumping, ends with one label per orbit
    label, prev = np.arange(n), None
    while prev is None or not np.array_equal(label, prev):
        prev = label
        for j in images:
            label = np.minimum(label, prev[j])
        label = label[label]
    return sorted(np.unique(label, return_counts=True)[1].tolist(), reverse=True)


def arc_orbits(graph: CosetGraph, v: int, s: int, group: str) -> dict:
    """Orbit structure of the vertex stabilizer on s-arcs at v."""
    arcs = enumerate_arcs(graph, v, s)
    stab = graph.vertex_stabilizer(v, group)
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


def max_local_s(graph: CosetGraph, group: str) -> tuple[int, list]:
    """Largest s <= 8 with 1 orbit on s-arcs at both base vertices (and at
    all smaller s); also returns the orbit-count table for s = 1..8."""
    table = []
    best = 0
    chain_ok = True
    for s in range(1, 9):
        r1 = arc_orbits(graph, graph.base_x1, s, group)
        r2 = arc_orbits(graph, graph.base_x2, s, group)
        table.append((s, r1["orbit_count"], r2["orbit_count"]))
        if chain_ok and r1["transitive"] and r2["transitive"]:
            best = s
        else:
            chain_ok = False
    return best, table


def arc_stabilizer(graph: CosetGraph, arc, group: str) -> SmallGroup:
    """Pointwise stabilizer of the arc: the elements of the stabilizer of
    arc[0] that fix the other arc vertices."""
    keys = graph.stabilizer_key_rows([int(arc[0])], group)[0]
    fixed = graph.fixes(np.broadcast_to(keys, (len(arc) - 1, len(keys))), arc[1:])
    return graph.group_from_keys(keys[fixed.all(axis=0)], f"{group}_arc")


# ---------------------------------------------------------------------------
# kernels of action


KERNEL_RADIUS = 5


class KernelData:
    """Kernels G_z^[i] for one base vertex and group, i <= KERNEL_RADIUS,
    plus O_3(G_z^[1]) and the induced permutation group on the neighbors.
    Use kernel_data(), which keeps one per (vertex, group) on the graph.
    It holds no reference back to the graph, so a graph nobody uses is
    freed at once, not at the next cyclic garbage collection."""

    def __init__(self, graph: CosetGraph, v: int, group: str):
        self.v = v
        self.group = group
        pts, radii = ball(graph, v, KERNEL_RADIUS)
        # images of the ball under each element of the stabilizer, along
        # the closure tree that SmallGroup.generate built
        self.stab = S = graph.vertex_stabilizer(v, group)
        gperm = [graph.perm(g) for g in S.gens]
        T = np.empty((len(S.elems), len(pts)), dtype=np.int64)
        T[0] = pts
        for i in range(1, len(S.elems)):
            T[i] = gperm[S.genidx[i]][T[S.parent[i]]]
        # smallest radius any element moves; KERNEL_RADIUS + 1 if none
        moved = T != pts[None, :]
        first_moved = np.where(moved, radii[None, :], KERNEL_RADIUS + 1).min(axis=1)
        if first_moved.min() < 1:
            raise AssertionError("stabilizer element moves its own vertex")
        self.first_moved = first_moved
        # only the neighbors' columns are kept, for induced_neighbor_group
        self.nbr_pts = pts[radii == 1]
        self.nbr_images = T[:, radii == 1]

    def kernel(self, i: int) -> SmallGroup:
        els = [self.stab.elems[j] for j in np.where(self.first_moved > i)[0]]
        return self.stab.subgroup(els, name=f"{self.group}_z{self.v}^[{i}]")

    @functools.cached_property
    def o3(self) -> SmallGroup:
        """O_3(G_z^[1])."""
        return self.kernel(1).p_core(3)

    def induced_neighbor_group(self) -> tuple[SmallGroup, SmallGroup]:
        """(induced permutation group on the neighbors, its kernel).

        The kernel here is computed by permutation filtering, independent
        of the radius bookkeeping in self.first_moved.
        """
        nbrs = sorted(self.nbr_pts.tolist())
        pos = {u: i for i, u in enumerate(nbrs)}
        sub = self.nbr_images[:, np.argsort(self.nbr_pts)]
        ident = tuple(range(len(nbrs)))
        images = set()
        kernel_els = []
        for j in range(sub.shape[0]):
            im = tuple(pos[int(x)] for x in sub[j])
            images.add(im)
            if im == ident:
                kernel_els.append(self.stab.elems[j])
        induced = SmallGroup.from_set(images, ident,
                                      name=f"{self.group}_z{self.v}^D(z)")
        kern = self.stab.subgroup(kernel_els)
        return induced, kern


def kernel_data(graph: CosetGraph, v: int, group: str) -> KernelData:
    """The one KernelData of (v, group), kept on the graph."""
    kd = graph._kernels.get((v, group))
    if kd is None:
        kd = graph._kernels[(v, group)] = KernelData(graph, v, group)
    return kd


# ---------------------------------------------------------------------------
# local characteristic and pushing up


def local_characteristic(graph: CosetGraph, group: str) -> tuple[bool, list]:
    """C_{G_{x_i}}(O_3(G_z^[1])) <= O_3(G_z^[1]) for z, x_i among the two
    base vertices at distance <= 1 (the two orbit representatives)."""
    kds = [kernel_data(graph, z, group) for z in (graph.base_x1, graph.base_x2)]
    details = []
    ok = True
    for kz in kds:
        q = kz.o3
        for kx in kds:
            c = kx.stab.centralizer(q.gens_list())
            contained = c.eset <= q.eset
            ok = ok and contained
            details.append({
                "z": kz.v, "xi": kx.v, "|O_p|": len(q),
                "|centralizer|": len(c), "contained": contained,
            })
    return ok, details


def pushing_up(graph: CosetGraph, group: str) -> tuple[bool, dict]:
    lc, details = local_characteristic(graph, group)
    q1 = kernel_data(graph, graph.base_x1, group).o3
    q2 = kernel_data(graph, graph.base_x2, group).o3
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


def pulled_back_kernels(graph: CosetGraph, gids, group: str) -> np.ndarray:
    """G_v^[1] of each vertex v in gids, all on one side, pulled back to
    the base stabilizer: row i marks the keys of stabilizer_key_rows that
    fix every neighbor of gids[i], by one fixes call over all neighbors
    (_assert_base_edge pins each side's degree)."""
    keys = graph.stabilizer_key_rows(gids, group)
    deg = graph.degree(int(gids[0]))
    nbrs = graph.indices[graph.indptr[gids][:, None] + np.arange(deg)]
    fixed = graph.fixes(np.repeat(keys, deg, axis=0), nbrs.reshape(-1))
    return fixed.reshape(len(gids), deg, -1).all(axis=1)


# sampled vertices per batch: bounds its tables and keys to a few MB
SAMPLE_CHUNK = 25
# sampled_vertex_checks' wide and deep sample sizes and the seed that draws
# them, wide sample first
SAMPLE_WIDE, SAMPLE_DEEP, SAMPLE_SEED = 100, 12, 38


def _side_batches(graph: CosetGraph, ids: np.ndarray):
    """The ids of side 1, then of side 2, at most SAMPLE_CHUNK at a time."""
    for part in (ids[ids < graph.n1], ids[ids >= graph.n1]):
        for lo in range(0, len(part), SAMPLE_CHUNK):
            yield part[lo:lo + SAMPLE_CHUNK]


def sampled_vertex_checks(graph: CosetGraph, group: str) -> dict:
    """Spot checks at random non-base vertices, guarding the reduction of
    "for all z" conditions to orbit representatives against convention
    bugs.  Both halves run one side at a time, SAMPLE_CHUNK vertices per
    stabilizer_key_rows and fixes call.

    wide: the conjugate stabilizer has the right number of distinct
    elements and every one of them fixes its vertex.
    deep: recompute G_v^[1] as the elements of G_v that fix v's neighbors
    and check that it is the base kernel G_z^[1] conjugated by v's rep
    (pulled_back_kernels against G_z^[1] over the base stabilizer's
    sorted elements), so the centralizer condition carries over.
    """
    rng = np.random.default_rng(SAMPLE_SEED)
    wide_ids = rng.choice(graph.nv, size=SAMPLE_WIDE, replace=False)
    deep_ids = rng.choice(graph.nv, size=SAMPLE_DEEP, replace=False)
    wide_ok = True
    for chunk in _side_batches(graph, wide_ids):
        expect = {
            ("K", 1): 1296, ("K", 2): 972, ("H", 1): 432, ("H", 2): 324,
        }[(group, graph.side_of(int(chunk[0])))]
        keys = graph.stabilizer_key_rows(chunk, group)
        srt = np.sort(keys, axis=1)
        distinct = 1 + (srt[:, 1:] != srt[:, :-1]).sum(axis=1)
        fixed = graph.fixes(keys, chunk).sum(axis=1)
        if (distinct != expect).any() or (fixed != expect).any():
            wide_ok = False
            break
    deep_ok = True
    for chunk in _side_batches(graph, deep_ids):
        kd = kernel_data(graph, graph.base_x1 if chunk[0] < graph.n1 else graph.base_x2, group)
        kern = kd.kernel(1).eset
        if not (pulled_back_kernels(graph, chunk, group)
                == [x in kern for x in kd.stab.sorted_elems()]).all():
            deep_ok = False
            break
    return {
        "wide_sample": len(wide_ids), "wide_ok": wide_ok,
        "deep_sample": len(deep_ids), "deep_ok": deep_ok,
    }

"""s-arc orbits and transitivity analysis, kernels of action G_z^[i],
and the local characteristic / pushing up predicates.

Group elements act on vertices on the right through CosetGraph.perm.
The s-arcs at v are walked one level at a time, each arc an exact index
pair (its prefix's index, its last vertex) (arc_levels).  A ball layer
and the orbit labels are deduplicated by fastops.unique_sorted, one sort
each.  A base-vertex stabilizer evaluates its whole action table along
its closure tree, one permutation gather per element.  Other stabilizers
stay packed keys, through the one batched pair
CosetGraph.stabilizer_key_rows and fixes: an arc stabilizer (one fixes
call, arc[0]'s stabilizer keys shared by the other arc vertices) is a
SmallGroup only inside K1 or K2 (the named arc's lies in K2), and the
kernels G_v^[1] of a batch of vertices of one side are pulled back to
the base stabilizer's own elements by the conjugation that
stabilizer_key_rows applies (pulled_back_kernels).  Both halves of the
sampled vertex checks, one pass for K and H, take their vertices in
batches of one side, so their table lookups run per batch.
"""

from __future__ import annotations

import functools

import numpy as np

from .coset import CosetGraph
from .fastops import unique_sorted
from .grp import SmallGroup
from .obligations import obligation

# ---------------------------------------------------------------------------
# balls and arcs


def _csr_rows(graph: CosetGraph, vs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The CSR rows of the vertices vs, one after another, and their
    degrees: one gather."""
    lo, deg = graph.indptr[vs], graph.indptr[vs + 1] - graph.indptr[vs]
    return graph.indices[np.repeat(lo - np.cumsum(deg) + deg, deg) + np.arange(deg.sum())], deg


def ball(graph: CosetGraph, v: int, r: int) -> tuple[np.ndarray, np.ndarray]:
    """Vertices within distance r of v, one BFS layer after another (each
    layer in ascending order), with their radii: one CSR gather and one
    sort (unique_sorted) per layer.  The columns come in ascending radius,
    which KernelData relies on."""
    seen = np.zeros(graph.nv, dtype=bool)
    seen[v] = True
    layers = [np.array([v], dtype=np.int64)]
    while len(layers) <= r:
        nb = unique_sorted(_csr_rows(graph, layers[-1])[0])
        nb = nb[~seen[nb]].astype(np.int64)
        if not len(nb):
            break
        seen[nb] = True
        layers.append(nb)
    radii = np.repeat(np.arange(len(layers)), [len(x) for x in layers])
    return np.concatenate(layers), radii


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


def arc_levels(graph: CosetGraph, v: int, perms: list[np.ndarray], s: int):
    """For t = 0..s: the number of t-arcs at v, and the index images of
    the t-arcs under each vertex permutation in perms.

    A t-arc is (index of its (t-1)-prefix, last vertex): each prefix in
    order, then its last vertex's neighbors in ascending order but the
    vertex before it, so the key prefix * nv + last strictly ascends.  The
    image (image of the prefix, p[last]) is found by a binary search on
    the keys and checked; each image map is then injective, by induction
    on t, so a permutation.  Raises if a permutation moves v or an image
    is not an arc."""
    obligation("a stabilizer permutation moves its vertex", all(p[v] == v for p in perms),
               vertex=v)
    last, before = np.array([v], dtype=np.int64), np.array([-1])
    images = [np.zeros(1, dtype=np.int64) for _ in perms]
    yield 1, images
    for _ in range(s):
        nb, deg = _csr_rows(graph, last)
        prefix = np.repeat(np.arange(len(last)), deg)
        keep = nb != before[prefix]
        prefix, before, last = prefix[keep], last[prefix[keep]], nb[keep].astype(np.int64)
        key = prefix * graph.nv + last
        want = [im[prefix] * graph.nv + p[last] for p, im in zip(perms, images)]
        images = [np.minimum(np.searchsorted(key, w), len(key) - 1) for w in want]
        obligation("an image is not an arc",
                   all(np.array_equal(key[j], w) for j, w in zip(images, want)), vertex=v)
        yield len(key), images


def orbit_sizes(n: int, images: list[np.ndarray]) -> list[int]:
    """Orbit sizes, largest first, of the group generated by permutations
    of range(n), each given as its array of images."""
    # each generator permutes the points, so an orbit is a union of
    # cycles: lowering every label to the least label of its images, with
    # pointer jumping, ends with one label per orbit
    label, prev = np.arange(n), None
    while prev is None or not np.array_equal(label, prev):
        prev = label
        for j in images:
            label = np.minimum(label, prev[j])
        label = label[label]
    return sorted(np.bincount(unique_sorted(label, index=True)[2]).tolist(), reverse=True)


def arc_orbits(graph: CosetGraph, v: int, s: int, group: str) -> dict:
    """Orbit structure of the vertex stabilizer on s-arcs at v."""
    stab = graph.vertex_stabilizer(v, group)
    *_, (n, images) = arc_levels(graph, v, [graph.perm(g) for g in stab.gens_list()], s)
    sizes = orbit_sizes(n, images)
    return {
        "vertex": v,
        "s": s,
        "group": group,
        "arc_count": n,
        "orbit_count": len(sizes),
        "orbit_sizes": sizes,
        "transitive": len(sizes) == 1,
        "stab_order": len(stab),
    }


def max_local_s(graph: CosetGraph, group: str) -> tuple[int, list]:
    """Largest s <= 8 with 1 orbit on s-arcs at both base vertices (and at
    all smaller s); also returns the orbit-count table for s = 1..8, from
    one walk of the levels per base vertex."""
    counts = []
    for v in (graph.base_x1, graph.base_x2):
        perms = [graph.perm(g) for g in graph.vertex_stabilizer(v, group).gens_list()]
        counts.append([len(orbit_sizes(*level)) for level in arc_levels(graph, v, perms, 8)])
    table = list(zip(range(1, 9), counts[0][1:], counts[1][1:]))
    best = next((s - 1 for s, a, b in table if a != 1 or b != 1), 8)
    return best, table


def arc_stabilizer(graph: CosetGraph, arc, group: str) -> SmallGroup:
    """Pointwise stabilizer of the arc: the elements of the stabilizer of
    arc[0] that fix the other arc vertices."""
    keys = graph.stabilizer_key_rows([int(arc[0])], group)[0]
    fixed = graph.fixes(keys, arc[1:])
    return graph.group_from_keys(keys[fixed.all(axis=0)])


# ---------------------------------------------------------------------------
# kernels of action


KERNEL_RADIUS = 5


class KernelData:
    """Kernels G_z^[i] for one base vertex and group, i <= KERNEL_RADIUS,
    plus O_3(G_z^[1]) and the induced permutation group on the neighbors.
    Use kernel_data(), which keeps one per (vertex, group) on the graph.
    It holds no reference back to the graph, so a graph nobody uses is
    freed at once, not at the next cyclic garbage collection.

    The stabilizer's images of the ball are one int32 table of shape
    (|G_z|, |ball|); first_moved[j], the least radius element j moves
    (KERNEL_RADIUS + 1 if none), is the radius of its first moved column,
    and only the neighbors' columns are kept (nbr_images, int32)."""

    def __init__(self, graph: CosetGraph, v: int, group: str):
        self.v = v
        pts, radii = ball(graph, v, KERNEL_RADIUS)
        # images of the ball under each element of the stabilizer, along
        # the closure tree that SmallGroup.generate built; int32 as perm
        self.stab = S = graph.vertex_stabilizer(v, group)
        gperm = [graph.perm(g) for g in S.gens_list()]
        T = np.empty((len(S), len(pts)), dtype=np.int32)
        T[0] = pts
        for i in range(1, len(S)):
            T[i] = gperm[S.genidx[i]][T[S.parent[i]]]
        # smallest radius each element moves (KERNEL_RADIUS + 1 if none):
        # its first moved column's, as ball's columns ascend in radius
        moved = T != T[0]
        first_moved = np.where(moved.any(axis=1), radii[moved.argmax(axis=1)],
                               KERNEL_RADIUS + 1)
        obligation("stabilizer element moves its own vertex", first_moved.min() >= 1, vertex=v)
        self.first_moved = first_moved
        # only the neighbors' columns are kept, for induced_neighbor_group
        self.nbr_pts = pts[radii == 1]
        self.nbr_images = T[:, radii == 1]

    def kernel(self, i: int) -> SmallGroup:
        idx = self.stab.idx
        return self.stab._sub([idx[j] for j in np.where(self.first_moved > i)[0]])

    @functools.cached_property
    def o3(self) -> SmallGroup:
        """O_3(G_z^[1])."""
        return self.kernel(1).p_core(3)

    def induced_neighbor_group(self) -> tuple[SmallGroup, SmallGroup]:
        """(induced permutation group on the neighbors, its kernel).

        The group is generated by the identity and the neighbor images of
        the stabilizer's generators.  The kernel here is computed by
        filtering every element's permutation, independent of the radius
        bookkeeping in self.first_moved.
        """
        S = self.stab
        nbrs = sorted(self.nbr_pts.tolist())
        pos = {u: i for i, u in enumerate(nbrs)}
        sub = self.nbr_images[:, np.argsort(self.nbr_pts)]
        ident = tuple(range(len(nbrs)))
        images = [tuple(pos[x] for x in row) for row in sub.tolist()]
        induced = SmallGroup.generate([ident] + [images[S.idx.index(g)] for g in S._gl()])
        kern = S._sub([i for i, im in zip(S.idx, images) if im == ident])
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
    fix every neighbor of gids[i], by one fixes call per neighbor column,
    the results ANDed (_assert_base_edge pins each side's degree)."""
    keys = graph.stabilizer_key_rows(gids, group)
    deg = graph.degree(int(gids[0]))
    nbrs = graph.indices[graph.indptr[gids][:, None] + np.arange(deg)]
    fixed = graph.fixes(keys, nbrs[:, 0])
    for j in range(1, deg):
        fixed &= graph.fixes(keys, nbrs[:, j])
    return fixed


# sampled vertices per batch: bounds its keys to a few hundred kB (and
# linear_conj_keys bounds the table sets, a few x at a time)
SAMPLE_CHUNK = 25
# sampled_vertex_checks' wide and deep sample sizes and the seed that draws
# them, wide sample first
SAMPLE_WIDE, SAMPLE_DEEP, SAMPLE_SEED = 100, 12, 38
# |G_side| of each group and side, which the wide check counts
STABILIZER_ORDERS = {("K", 1): 1296, ("K", 2): 972, ("H", 1): 432, ("H", 2): 324}


def _side_batches(graph: CosetGraph, ids: np.ndarray):
    """The ids of side 1, then of side 2, at most SAMPLE_CHUNK at a time,
    with each group's columns in K_side's keys: all for K, and for H
    (H_side <= K_side) the checked result of a binary search."""
    for side, part in ((1, ids[ids < graph.n1]), (2, ids[ids >= graph.n1])):
        ks, hs = graph.kkeys[side, "K"], graph.kkeys[side, "H"]
        obligation("the keys of K_side do not ascend", (ks[1:] > ks[:-1]).all(), side=side)
        pos = np.minimum(np.searchsorted(ks, hs), len(ks) - 1)
        obligation("a key of H_side is not one of K_side", np.array_equal(ks[pos], hs),
                   side=side)
        for lo in range(0, len(part), SAMPLE_CHUNK):
            yield side, part[lo:lo + SAMPLE_CHUNK], {"K": slice(None), "H": pos}


def sampled_vertex_checks(graph: CosetGraph) -> dict:
    """Spot checks at random non-base vertices, guarding the reduction of
    "for all z" conditions to orbit representatives against convention
    bugs, for K and H in one pass: SAMPLE_CHUNK vertices of one side per
    stabilizer_key_rows and fixes call, which work key by key, so H's
    keys and flags are K's columns at H's positions (_side_batches).

    wide: the conjugate stabilizer has the right number of distinct
    elements and every one of them fixes its vertex.
    deep: recompute G_v^[1] as the elements of G_v that fix v's neighbors
    and check that it is the base kernel G_z^[1] conjugated by v's rep
    (pulled_back_kernels against G_z^[1] over the base stabilizer's
    sorted packed keys, stabilizer_key_rows' row order), so the
    centralizer condition carries over.
    """
    rng = np.random.default_rng(SAMPLE_SEED)
    wide_ids = rng.choice(graph.nv, size=SAMPLE_WIDE, replace=False)
    deep_ids = rng.choice(graph.nv, size=SAMPLE_DEEP, replace=False)
    out = {group: {"wide_sample": len(wide_ids), "wide_ok": True,
                   "deep_sample": len(deep_ids), "deep_ok": True} for group in "KH"}
    for side, chunk, cols in _side_batches(graph, wide_ids):
        keys = graph.stabilizer_key_rows(chunk, "K")
        fixed = graph.fixes(keys, chunk)
        for group, c in cols.items():
            srt = np.sort(keys[:, c], axis=1)
            counts = np.stack([1 + (srt[:, 1:] != srt[:, :-1]).sum(1), fixed[:, c].sum(1)])
            out[group]["wide_ok"] &= bool((counts == STABILIZER_ORDERS[group, side]).all())
        del keys, fixed, srt  # freed before the next batch makes its own
    for side, chunk, cols in _side_batches(graph, deep_ids):
        pulled = pulled_back_kernels(graph, chunk, "K")
        for group, c in cols.items():
            kern = kernel_data(graph, graph.base_x1 if side == 1 else graph.base_x2,
                               group).kernel(1).handles()
            want = [k in kern for k in graph.kkeys[side, group].tolist()]
            out[group]["deep_ok"] &= bool((pulled[:, c] == want).all())
    return out

"""Construction of the bipartite coset graph on K1- and K2-cosets.

A vertex is the coset K_side . g = {k g}.  Neighbors of K1.g are the
cosets K2.t.g where t runs over a fixed transversal of K1 n K2 in K1,
and dually; the group acts on the right, so the stabilizer of K_side.g
is (K_side)^g, matching the conjugate stabilizer identities the
downstream checks rely on.  That stabilizer does not depend on which
element g of the coset is kept, so a vertex's representative is simply
the first probe that reached it.

A coset is keyed by a conjugate fingerprint.  Let Y = {1, y, y^-1} be an
order-3 subgroup normal in K_side: Z(K1) on side 1, and on side 2 the one
order-3 subgroup of Z(Qh2) that K2 normalizes.  On side 1, y generates
Z(K1), so (kg)^-1 y (kg) = g^-1 y g for every k in K1: the key of K1.g
is the projective key of g^-1 y g alone.  On side 2, K2 maps y to y or
y^-1, so only Y^g is the same for every g in the coset, and the key of
K2.g is the least projective key of g^-1 y g and of its inverse.  _arm
checks both: every generator of K1 fixes side 1's y, and every generator
of K2 maps side 2's y into {y, y^-1}.  Each key is one uint64 per
vertex, kept once: in the sorted keys of its side, ids alongside, where
probes are binary-searched.  The key is exact, and this is checked
whenever a graph is built or loaded: the keys of each side are pairwise
distinct and n_side . |K_side| = |G| = 33,094,656, so they name each
coset of G/K_side once (a key that merged two cosets would leave fewer
vertices).

The BFS runs one layer at a time from the base edge (build_graph).  A
probe t.r (t in the transversal, r a frontier rep) is keyed as
r^-1 (t^-1 y t) r by fastops.conj_fingerprint_grid, on the tables of the
t^-1 y t made once per build, with the inverse only when it targets side
2, and no rep is multiplied out: a new vertex's rep key, that of t.r, is
9 lookups in fastops.key_tables of c -> t c (fastops.lmul_keys); a loaded
graph's fingerprints are the same kernel with c = y.  A side-2 vertex
whose three neighbors have all probed it before its turn makes no probe:
they are all the neighbors it has, so its probes could find nothing new
(build_graph gives the proof).  Each layer's fresh keys are
deduplicated in the key order _resolve searched them in, merged into the
side's sorted keys, and its new vertices are numbered in the order of
their first probe (frontier vertex, then transversal element); the
transversals are the least index of each right coset of K1 n K2
(SmallGroup._coset_index), so every id is fixed by the named generators
alone: the four GF(64) moduli give one labelled graph, with
the base vertices at 0 and n1.

Group elements are handled as packed keys.  The action conjugates each
vertex's stored fingerprint element ((gx)^-1 y (gx) = x^-1 (g^-1 y g) x),
keyed as its side keys: perm, the whole graph under one element, by the
table lookups of linear_conj_keys and one argsort per side, and
image_batch, a few vertices under many elements, by
conj_fingerprint_grid.  Every stabilizer question goes through one batched
pair: stabilizer_key_rows conjugates K_side's sorted keys (kkeys) by the
rep of each vertex of a batch, and fixes tells which keys fix given
vertices by membership in K_side (x fixes K_side.r exactly when r x r^-1
lies in K_side), a binary search in kkeys; no conjugates are intersected
and no vertex is resolved.  Each is one linear_conj_keys call, the reps
(or their inverses) as its x, so it takes one table set per rep: 3
lookups per bit matrix (54 per twist) and XOR doubling, not the |K_side|
products per rep of a direct conjugation.  Vertex ids outside [0, nv)
raise ValueError (_vertex_ids).

The whole-graph passes hold no more than KEY_CHUNK rows or their own
output besides the arrays the graph keeps.  A build writes each edge once,
into a row of four side-2 ends per side-1 vertex, and sorts the rows, so
the edges come out ascending with no sort of the whole edge set.  The
CSR comes from the ascending edges: the side-1 rows are the side-2 ends as
they stand, and the side-2 rows one sorted int64 key per edge
(_build_csr).  perm's table lookups run KEY_CHUNK rows at a time
(linear_conj_keys).  is_graph_automorphism is the one exception: it holds
two (n1, 4) int32 arrays, the images of the CSR's side-1 rows, each
ordered by a sorting network on its four columns with no sort, and the
rows they must equal.

Every command of the pipeline builds its graph; none reads or writes a
graph file.  save_cache and load_cache remain only for the file round
trip (the benchmark's), and so does the adjacency proof that load_cache
runs edge by edge (_assert_adjacency): K1.r and K2.s meet exactly when
r s^-1 lies in K1 K2.  A build does not need it: its edges are resolved
probes t.rep(u), exact once _check_keys has proved the key.
"""

from __future__ import annotations

import hashlib
import os
import struct
import tempfile
from dataclasses import dataclass, field as dfield

import numpy as np

from .fastops import (KEY_CHUNK, FieldOps, bunpack, conj_fingerprint_grid, grid_tables,
                      key_tables, linear_conj_keys, lmul_keys, unique_sorted)
from .gf64 import GF64
from .grp import NamedGroups, SmallGroup
from .obligations import obligation
from .psu import IDENTITY, PElement

CACHE_MAGIC = b"PSU38GR\x00"
CACHE_VERSION = 4
# version, modulus, n1, n2, edge count; then the group hash, the payload
# length and the payload's SHA-256
CACHE_HEADER = struct.Struct("<IIQQQ32sQ32s")
# |PSU_3(q)| = q^3 (q^2 - 1) (q^3 + 1) / gcd(3, q + 1) at q = 8
PSU38_ORDER = 8 ** 3 * (8 ** 2 - 1) * (8 ** 3 + 1) // 3  # 5,515,776
GROUP_ORDER = 6 * PSU38_ORDER  # |PSU_3(8):C_6| = 33,094,656


class CacheMismatch(RuntimeError):
    """Cache file does not match the requested configuration."""


def transversal(K: SmallGroup, K12: SmallGroup) -> list[PElement]:
    """Right transversal of K12 in K: representatives t of the cosets
    K12.t, the least index of each coset in K's table, so the choice is
    the same word in the generators under every modulus.  The cosets are
    SmallGroup._coset_index's walk on K's indices."""
    ts = K._coset_index(K12)[1]
    obligation("the cosets of K12 in K are not |K|/|K12|", len(ts) * len(K12) == len(K),
               cosets=len(ts), K=len(K), K12=len(K12))
    return [K.tab.elems[t] for t in ts]


@dataclass
class CosetGraph:
    field: GF64
    ng: NamedGroups
    n1: int = 0
    n2: int = 0
    reps: dict = dfield(default_factory=dict)      # side -> (n,) uint64 projective rep keys
    edges: np.ndarray | None = None                # (E,2) uint32 per-side id pairs, ascending
    # runtime
    ops: FieldOps | None = None
    ysets: dict = dfield(default_factory=dict)     # side -> (ym, yt), one y of Y_side
    kkeys: dict = dfield(default_factory=dict)     # (side, group) -> sorted uint64 keys
    skeys: dict = dfield(default_factory=dict)     # side -> sorted uint64 keys of Y^rep
    sids: dict = dfield(default_factory=dict)      # side -> int32 id of each of skeys
    indptr: np.ndarray | None = None               # (nv+1,) int32 row offsets
    indices: np.ndarray | None = None              # (2E,) int32 global neighbor ids
    _perm_cache: dict = dfield(default_factory=dict)
    _kernels: dict = dfield(default_factory=dict)  # (vertex, group) -> arcs.KernelData

    # -- sizes and ids ----------------------------------------------------

    @property
    def nv(self) -> int:
        return self.n1 + self.n2

    def side_of(self, g: int) -> int:
        return 1 if g < self.n1 else 2

    def local_id(self, g: int) -> int:
        return g if g < self.n1 else g - self.n1

    def _vertex_ids(self, gids) -> np.ndarray:
        """gids as int64; ValueError naming the first outside [0, nv)."""
        gids = np.asarray(gids, dtype=np.int64)
        bad = (gids < 0) | (gids >= self.nv)
        if bad.any():
            raise ValueError(f"vertex id {gids[bad][0]} is not in [0, {self.nv})")
        return gids

    def neighbors(self, g: int) -> np.ndarray:
        (g,) = self._vertex_ids([g])
        return self.indices[self.indptr[g]:self.indptr[g + 1]]

    def degree(self, g: int) -> int:
        return len(self.neighbors(g))

    @property
    def base_x1(self) -> int:
        return 0

    @property
    def base_x2(self) -> int:
        return self.n1

    # -- group action ------------------------------------------------------

    def image_batch(self, gids, keys) -> np.ndarray:
        """Right action of many elements on a few vertices, as an int64
        array of shape (len(gids), len(keys)): entry (i, j) is the vertex
        K.(g x) of K.g = gids[i] and x the element of packed key keys[j].
        The image is keyed by x^-1 c x, c the element that the vertex's
        fingerprint key packs, as the vertex's side keys (with the inverse
        on side 2 only): one conj_fingerprint_grid call per vertex, the
        packed elements as its r and c alone, resolved on the vertex's
        side."""
        keys = np.asarray(keys, dtype=np.uint64).reshape(-1)
        gids = self._vertex_ids(gids)
        out = np.empty((len(gids), len(keys)), dtype=np.int64)
        for i, g in enumerate(map(int, gids)):
            side, off = (1, 0) if g < self.n1 else (2, self.n1)
            c = grid_tables(self.ops, *bunpack(self.skeys[side][self.sids[side] == g - off]))
            ids = self._resolve(side, conj_fingerprint_grid(self.ops, keys, c, side == 2))
            obligation("action image is not a known vertex", (ids >= 0).all(), vertex=g)
            out[i] = ids + off
        return out

    def image(self, g: int, x: PElement) -> int:
        return int(self.image_batch([g], x.key)[0, 0])

    def perm(self, x: PElement) -> np.ndarray:
        """Full vertex permutation of one group element, as int32 (cached).
        The image keys are those image_batch computes, by the table lookups
        of linear_conj_keys on each side's sorted fingerprint elements (the
        inverse columns on side 2 only), and one argsort resolves a side:
        sorted, they must be the side's keys (else an image is not a known
        vertex, or two collide: raises), and the vertex of the k-th least
        image key maps to the k-th vertex."""
        p = self._perm_cache.get(x.key)
        if p is None:
            xm, xt = bunpack(np.array([x.key], dtype=np.uint64))
            p = np.empty(self.nv, dtype=np.int32)
            for side, off in ((1, 0), (2, self.n1)):
                keys = linear_conj_keys(self.ops, xm, xt, self.skeys[side], side == 2)[0]
                order = np.argsort(keys)
                obligation("action image is not a known vertex",
                           np.array_equal(keys[order], self.skeys[side]), side=side)
                p[off + self.sids[side][order]] = self.sids[side] + off
            self._perm_cache[x.key] = p
        return p

    def is_graph_automorphism(self, x: PElement) -> bool:
        """Whether perm(x) maps the edge set onto itself.  p = perm(x) is a
        bijection of each side: perm, its only producer, requires the
        sorted image keys of a side to equal the side's keys, which ascend
        strictly (_check_keys), so every vertex of a side is the image of
        exactly one vertex of it.  The range check keeps the row gather
        below inside the arrays for any other map.  Then p is an
        automorphism exactly when it maps the side-2 ends of each side-1
        vertex u onto those of p[u]: every edge (u, v) then goes to an
        edge, p is injective on edges, and there are as many image edges
        as edges.  The side-1 rows of the CSR are those ends, 4 ascending
        per vertex; each row of images is put in order by a 5-comparator
        sorting network on its four columns, with no sort, and compared
        with the row of p[u]."""
        p = self.perm(x)
        n1, nv = self.n1, self.nv
        p1, p2 = p[:n1], p[n1:]
        if p1.min() < 0 or p1.max() >= n1 or p2.min() < n1 or p2.max() >= nv:
            return False
        rows = self.indices[:len(self.edges)].reshape(n1, 4)
        img = np.take(p, rows.T)  # (4, n1): column c of every row of images
        for i, j in ((0, 1), (2, 3), (0, 2), (1, 3), (1, 2)):
            lo = np.minimum(img[i], img[j])
            np.maximum(img[i], img[j], out=img[j])
            img[i] = lo
        return bool(np.array_equal(img, np.take(rows, p1, axis=0).T))

    def _edge_ends(self) -> tuple[np.ndarray, np.ndarray]:
        """Global ids of the side-1 and side-2 end of each edge, int64."""
        return (self.edges[:, 0].astype(np.int64),
                self.edges[:, 1].astype(np.int64) + self.n1)

    # -- stabilizers ---------------------------------------------------

    def stabilizer_key_rows(self, gids, group: str = "K") -> np.ndarray:
        """Packed keys of the stabilizer (G_side)^rep of each vertex in
        gids, all on one side, as the rows of a (len(gids), |G_side|)
        array (no rows for no vertex), G_side the stabilizer of that
        side's base vertex (K1, K2, H1 or H2): key i is rep^-1 k_i rep,
        k_i the i-th of G_side's sorted packed keys (kkeys).  One
        linear_conj_keys call, the reps as its x, kkeys shared by all."""
        gids = self._vertex_ids(gids)
        on2 = gids >= self.n1
        if on2.any() and not on2.all():
            raise ValueError("stabilizer_key_rows takes the vertices of one side")
        side = 2 if on2.any() else 1
        rm, rt = bunpack(self.reps[side][gids - (self.n1 if side == 2 else 0)])
        return linear_conj_keys(self.ops, rm, rt, self.kkeys[side, group], inverse=False)

    def fixes(self, keys, gids) -> np.ndarray:
        """Whether the element of key keys[i, j] fixes vertex gids[i], as a
        (len(gids), k) bool array, keys one row per vertex or (k,), shared
        by all.  Vertex g is the coset K_side.r, r = rep(g) (_check_keys
        proves it), and x fixes it exactly when r x r^-1 lies in K_side:
        one linear_conj_keys call with r^-1 as its x, then a binary search
        in K_side's sorted keys, which must ascend strictly (else an
        AssertionError, never a wrong answer); no vertex is resolved."""
        gids = self._vertex_ids(gids)
        on2 = gids >= self.n1
        rk = np.empty(len(gids), dtype=np.uint64)
        rk[~on2] = self.reps[1][gids[~on2]]
        rk[on2] = self.reps[2][gids[on2] - self.n1]
        conj = linear_conj_keys(self.ops, *self.ops.binv(*bunpack(rk)), keys, inverse=False)
        member = np.empty(conj.shape, dtype=bool)
        for side, sel in ((1, ~on2), (2, on2)):
            ks = self.kkeys[side, "K"]
            obligation("the keys of K_side do not ascend", (ks[1:] > ks[:-1]).all(), side=side)
            pos = np.minimum(np.searchsorted(ks, conj[sel]), len(ks) - 1)
            member[sel] = ks[pos] == conj[sel]
        return member

    def group_from_keys(self, keys) -> SmallGroup:
        """The subgroup of K1 or K2 (the first whose table holds them all;
        ValueError if neither does) on these packed keys, which must be
        closed under products."""
        K = self.ng.ambient(keys)
        pos = K.tab.pos
        return K._sub([pos[int(k)] for k in keys])

    def base_stabilizer(self, side: int, group: str = "K") -> SmallGroup:
        """The generated group K1, K2, H1 or H2 that fixes the base vertex
        of a side, with its closure links."""
        ng = self.ng
        return {("K", 1): ng.K1, ("K", 2): ng.K2, ("H", 1): ng.H1, ("H", 2): ng.H2}[
            group, side]

    def vertex_stabilizer(self, g: int, group: str = "K") -> SmallGroup:
        """The base stabilizer of a base vertex; raises at any other vertex,
        whose stabilizer stays packed keys (stabilizer_key_rows)."""
        if self.local_id(g) != 0:
            raise ValueError(f"vertex {g} is not a base vertex")
        return self.base_stabilizer(self.side_of(g), group)

    def group_order_from_graph(self) -> int:
        """|<K1,K2>| by orbit-stabilizer on side-1 cosets; cross-checked
        against side 2."""
        o1 = self.n1 * len(self.ng.K1)
        o2 = self.n2 * len(self.ng.K2)
        obligation("orbit counts disagree", o1 == o2, side1=o1, side2=o2)
        return o1

    # -- vertex keys -------------------------------------------------------

    def _keys(self, side: int, gkeys) -> np.ndarray:
        """Fingerprint key of the coset K_side.g of each element g packed
        in gkeys."""
        return conj_fingerprint_grid(self.ops, gkeys, grid_tables(self.ops, *self.ysets[side]),
                                     side == 2)

    def _resolve(self, side: int, keys: np.ndarray, misses: bool = False):
        """Vertex id of each fingerprint key (-1 when the coset is not a
        known vertex); with misses, also the unknown keys' positions in
        ascending key order, the order the queries are searched in, where
        searchsorted narrows each search from the last one's position."""
        sk = self.skeys[side]
        order = np.argsort(keys)
        q = keys[order]
        pos = np.minimum(np.searchsorted(sk, q), len(sk) - 1)
        found = sk[pos] == q
        ids = np.empty(len(keys), dtype=np.int32)
        ids[order] = np.where(found, self.sids[side][pos], -1)
        return (ids, order[~found]) if misses else ids

    def _register(self, side: int, reps: np.ndarray, keys: np.ndarray,
                  ids: np.ndarray) -> None:
        """Append vertices, given their rep keys, and merge their
        fingerprint keys, ascending, with the vertex id of each alongside,
        into the side's sorted keys: each goes after the old keys not
        greater than it, as a stable sort of all would put it.  Written out
        rather than by np.insert, whose extra temporaries showed in the
        peak RSS of repeated loads."""
        self.reps[side] = np.concatenate([self.reps[side], reps])
        sk = self.skeys[side]
        at = np.searchsorted(sk, keys, side="right") + np.arange(len(keys))
        old = np.ones(len(sk) + len(keys), dtype=bool)
        old[at] = False
        skeys = np.empty(len(old), dtype=np.uint64)
        sids = np.empty(len(old), dtype=np.int32)
        skeys[at], skeys[old] = keys, sk
        sids[at], sids[old] = ids, self.sids[side]
        self.skeys[side], self.sids[side] = skeys, sids

    def _check_keys(self) -> None:
        """The proof that the fingerprint key is exact: it is a function
        of the coset (_arm checks what makes it one), and on each side the
        keys are pairwise distinct, so the vertices are distinct cosets,
        and there are |G|/|K_side| of them, so they are all the cosets."""
        for side, K in ((1, self.ng.K1), (2, self.ng.K2)):
            fk = self.skeys[side]
            obligation("duplicate vertex keys", (fk[1:] != fk[:-1]).all(), side=side)
            obligation("n_side x |K_side| is not |G|", len(fk) * len(K) == GROUP_ORDER,
                       side=side, vertices=len(fk), K_side=len(K), G=GROUP_ORDER)

    def _build_csr(self) -> None:
        """indptr and indices of both directions of every edge, rows by
        source and each row ascending.  The edges must be strictly
        ascending by (side-1 end, side-2 end): build_graph makes them so,
        and load_cache checks it before it calls this.  So the side-1 rows
        are the side-2 ends as they stand, and the side-2 rows come from
        sorting one int64 key per edge, side-2 end << 32 | side-1 end.
        indptr is int32: its largest value is 2E = 204,288."""
        ne, n1 = len(self.edges), self.n1
        u, v = self.edges[:, 0], self.edges[:, 1]
        key = v.astype(np.int64)
        key <<= 32
        key |= u
        key.sort()
        self.indptr = np.empty(self.nv + 1, dtype=np.int32)
        self.indptr[:n1] = np.searchsorted(u, np.arange(n1, dtype=np.uint32))
        self.indptr[n1:] = ne + np.searchsorted(key, np.arange(self.n2 + 1, dtype=np.int64) << 32)
        self.indices = np.empty(2 * ne, dtype=np.int32)
        np.add(v, n1, out=self.indices[:ne], casting="unsafe")
        np.bitwise_and(key, 0xFFFFFFFF, out=self.indices[ne:], casting="unsafe")


def _arm(graph: CosetGraph) -> None:
    ng = graph.ng
    graph.ops = FieldOps(graph.field)
    # fingerprint elements: the y of an order-3 subgroup Y = {1, y, y^-1}
    # normal in K_side.  Side 1 takes Z(K1); side 2 the one order-3
    # subgroup of Z(Qh2) (order 9) that every generator of K2 maps to
    # itself, found as the y with y^k in {y, y^-1} for each generator k,
    # on the indices of K2's table (Qh2's).
    t1, t2 = ng.K1.tab, ng.K2.tab
    z1 = [y for y in ng.K1.center().idx if y]
    y2 = [y for y in ng.Qh2.center().idx if y
          and all(t2.conj(y, k) in (y, t2.inv[y]) for k in ng.K2._gl())]
    for name, ys in (("Z(K1)", z1), ("Y2 in Z(Qh2)", y2)):
        obligation("y does not have 2 candidates", len(ys) == 2, subgroup=name, candidates=len(ys))
    # side 1 keys the element y itself, not Y: every generator of K1 must
    # fix it, as every generator of K2 maps side 2's y into {y, y^-1}
    obligation("Z(K1): a generator of K1 does not fix side 1's y",
               all(t1.conj(z1[0], k) == z1[0] for k in ng.K1._gl()))
    for side, ys, K in ((1, z1, ng.K1), (2, y2, ng.K2)):
        graph.ysets[side] = bunpack(np.array([K.tab.keys[ys[0]]], dtype=np.uint64))
        for group in ("K", "H"):
            G = graph.base_stabilizer(side, group)
            graph.kkeys[side, group] = np.sort(np.fromiter(G.handles(), np.uint64, len(G)))
        graph.reps[side] = np.zeros(0, dtype=np.uint64)
        graph.skeys[side] = np.zeros(0, dtype=np.uint64)
        graph.sids[side] = np.zeros(0, dtype=np.int32)


def build_graph(ng: NamedGroups, progress=None) -> CosetGraph:
    """BFS from the two trivial cosets, one layer at a time; deterministic
    ids; checks that the fingerprint key is exact and asserts the
    base-edge stabilizer identities that pin the action convention.

    The neighbors of K_side.r are K_tgt.t_j.r, t_j the transversal of K12
    in K_side.  Probe t_j.r is keyed without its product: its fingerprint
    element (t_j r)^-1 y (t_j r) is r^-1 c_j r, c_j = t_j^-1 y t_j fixed
    per side, y the target side's fingerprint element, and the grid's
    tables of the c_j are made once per build.  A layer's missed probes are
    deduplicated in _resolve's order, and a fresh vertex's rep key, that of
    t_j.r from its first probe, is read off r's stored key by lmul_keys in
    the side's key_tables of c -> t c, made once per build: no rep is
    multiplied out.
    After the first layer the probe by t0, the transversal element that
    lies in K12, is skipped: a vertex v reached from u has rep t.rep(u)
    with t in u's side group K, which holds t0 too, so K.t0.rep(v) = u, an
    edge u's own probe already made.  Each
    edge is written once, in a (n1, 4) table of side-2 ends: column 0 of
    a side-1 vertex holds its parent, written when the side-2 pass finds
    it, the rest its own probes (all four at x1).  The t_j lie in distinct
    cosets of K12 = K1 n K2, so a row's ends K2.t_j.r are distinct: each
    row is sorted and checked for a repeat, and the rows are the edges.

    A side-2 frontier vertex that three side-1 probes have reached makes
    no probes.  Each layer's side-1 pass runs before its side-2 pass, and
    hits counts, per side-2 vertex, the side-1 probes that resolved to it.
    A side-1 row holds no repeated end (checked below), so three hits are
    three distinct side-1 vertices, and a side-2 vertex has exactly three
    neighbors, |K2 : K12| = 3 (checked first): all of its neighbors are
    known vertices and their edges to it are written in their rows.  Its
    own probes would resolve to those vertices only, and a side-2 probe
    writes nothing but the parent of a fresh vertex, so skipping them
    changes no id, edge or key."""
    obligation("K1 n K2 does not have the expected indices",
               len(ng.K12) * 4 == len(ng.K1) and len(ng.K12) * 3 == len(ng.K2),
               K1=len(ng.K1), K2=len(ng.K2), K12=len(ng.K12))
    graph = CosetGraph(ng.field, ng)
    _arm(graph)
    ops = graph.ops
    ident = np.array([IDENTITY], dtype=np.uint64)
    probes = {}   # side -> (all k, all but t0), each (grid_tables of c = t^-1 y t, tix)
    lmul = {}     # side -> key_tables of c -> t c, t the transversal, at row tix
    for side, K in ((1, ng.K1), (2, ng.K2)):
        ts = transversal(K, ng.K12)
        t0 = next(j for j, t in enumerate(ts) if t in ng.K12)
        tm, tt = bunpack(np.array([t.key for t in ts], dtype=np.uint64))
        cm, ct = ops.bsmul(*ops.bsmul(*ops.binv(tm, tt), *graph.ysets[3 - side]), tm, tt)
        lmul[side] = key_tables(ops, tm, tt, *bunpack(np.repeat(ident, len(tt))), range(6), False)
        probes[side] = [(grid_tables(ops, cm[tix], ct[tix]), tix)
                        for tix in (np.arange(len(ts)), np.delete(np.arange(len(ts)), t0))]

    for side in (1, 2):
        graph._register(side, ident, graph._keys(side, ident), [0])

    # the coset count check below keeps every write inside the table
    nbr = np.empty((GROUP_ORDER // len(ng.K1), 4), dtype=np.uint32)
    hits = np.zeros(GROUP_ORDER // len(ng.K2), dtype=np.int32)  # side-1 probes per side-2 vertex
    frontier = {1: np.zeros(1, dtype=np.int64), 2: np.zeros(1, dtype=np.int64)}
    layer = 0
    while len(frontier[1]) or len(frontier[2]):
        new = {}
        for side in (1, 2):
            tgt, src = 3 - side, frontier[side]
            if side == 2:  # those with three hits have no neighbor left to find
                src = src[hits[src] < 3]
            tables, tix = probes[side][layer > 0]
            k = len(tix)
            reps = graph.reps[side][src]
            keys = conj_fingerprint_grid(ops, reps, tables, tgt == 2)
            ids, miss = graph._resolve(tgt, keys, misses=True)
            # the missed probes in key order: one run of equal keys per
            # fresh vertex, whose first probe is the least in the run
            q = keys[miss]
            run = np.ones(len(q), dtype=bool)
            run[1:] = q[1:] != q[:-1]
            starts = np.flatnonzero(run)
            fresh, first = q[starts], np.minimum.reduceat(miss, starts)
            base = len(graph.reps[tgt])
            obligation("more cosets than |G| allows; convention bug",
                       (base + len(fresh)) * len(ng.K1 if tgt == 1 else ng.K2) <= GROUP_ORDER,
                       side=tgt, vertices=base + len(fresh))
            # the fresh keys are numbered in the order of their first
            # probes, which probe lists ascending
            probe = np.zeros(len(keys), dtype=bool)
            probe[first] = True
            probe = np.flatnonzero(probe)
            ids[probe] = base + np.arange(len(fresh))
            num = ids[first]
            ids[miss] = num[np.cumsum(run) - 1]
            # one table lookup per fresh vertex: the key of its rep t_j.r,
            # from its first probe
            i, j = np.divmod(probe, k)
            graph._register(tgt, lmul_keys(lmul[side], reps[i], tix[j]), fresh, num)
            new[tgt] = base + np.arange(len(fresh))
            if side == 1:
                nbr[src, 4 - k:] = ids.reshape(len(src), k)
                hits += np.bincount(ids, minlength=len(hits))
            else:
                nbr[base:base + len(fresh), 0] = src[i]
        frontier = new
        layer += 1
        if progress:
            progress(len(graph.reps[1]), len(graph.reps[2]))

    del hits
    graph.n1, graph.n2 = len(graph.reps[1]), len(graph.reps[2])
    graph._check_keys()
    nbr.sort(axis=1)
    obligation("edge table check: a side-1 vertex has a repeated side-2 end",
               (nbr[:, 1:] != nbr[:, :-1]).all())
    rows = np.broadcast_to(np.arange(graph.n1, dtype=np.uint32)[:, None], nbr.shape)
    graph.edges = np.stack([rows, nbr], axis=2).reshape(-1, 2)
    del rows, nbr
    graph._build_csr()
    _assert_base_edge(graph)
    return graph


def _assert_base_edge(graph: CosetGraph) -> None:
    """Every side-1 vertex has degree 4 and every side-2 vertex degree 3,
    x1 and x2 are adjacent, and the conjugate K1^rep of x3 = K1.E has
    |K1| distinct elements, all fixing x3 under the action on
    fingerprints; this pins the orientation and the stored representative
    (fixes, which reads only the rep, would not)."""
    ng = graph.ng
    x1, x2 = graph.base_x1, graph.base_x2
    deg = np.diff(graph.indptr)
    obligation("degrees are not 4 on side 1 and 3 on side 2",
               (deg[:graph.n1] == 4).all() and (deg[graph.n1:] == 3).all())
    obligation("base vertices are not adjacent", x2 in graph.neighbors(x1))
    x3 = graph.image(x1, ng.p["E"])
    obligation("K1.E did not land on a new side-1 vertex",
               x3 != x1 and graph.side_of(x3) == 1, x3=x3)
    keys = graph.stabilizer_key_rows([x3], "K")[0]
    images = graph.image_batch([x3], keys)
    obligation("stabilizer of K1.E is not K1 conjugated by the rep",
               len(unique_sorted(keys)) == len(ng.K1) and (images == x3).all())


def _assert_adjacency(graph: CosetGraph) -> None:
    """Every stored edge (u, v) joins two cosets that meet: K1.r and K2.s
    meet exactly when r s^-1 lies in K1 K2, r and s the reps, and K1 K2 =
    K1 T, T the transversal of K12 in K2, has |K1||K2|/|K12| = 3,888
    elements.  With _check_keys (the vertices are exactly the cosets), the
    strictly ascending edge order (the edges are distinct) and degree 4 =
    |K1 K2|/|K2| on side 1, it proves that the stored edges are exactly
    the coset graph's.  One batched product per KEY_CHUNK edges, then a
    binary search in the sorted keys of K1 T; each side-2 rep is inverted
    once."""
    ng, ops = graph.ng, graph.ops
    km, kt = bunpack(graph.kkeys[1, "K"])
    tm, tt = bunpack(np.array([t.key for t in transversal(ng.K2, ng.K12)], dtype=np.uint64))
    n = len(kt)
    prods = unique_sorted(ops.bpkeys(*ops.bsmul(
        np.tile(km, (len(tt), 1, 1)), np.tile(kt, len(tt)),
        np.repeat(tm, n, axis=0), np.repeat(tt, n))))
    obligation("K1 K2 does not have |K1||K2|/|K12| elements",
               len(prods) == len(ng.K1) * len(ng.K2) // len(ng.K12), elements=len(prods))
    rm, rt = bunpack(graph.reps[1])
    sm, st = ops.binv(*bunpack(graph.reps[2]))
    for lo in range(0, len(graph.edges), KEY_CHUNK):
        u, v = graph.edges[lo:lo + KEY_CHUNK].T
        keys = ops.bpkeys(*ops.bsmul(rm[u], rt[u], sm[v], st[v]))
        pos = np.minimum(np.searchsorted(prods, keys), len(prods) - 1)
        obligation("a stored edge joins two cosets that do not meet",
                   (prods[pos] == keys).all())


# ---------------------------------------------------------------------------
# cache


def group_hash(ng: NamedGroups) -> bytes:
    h = hashlib.sha256()
    h.update(struct.pack("<I", ng.field.modulus))
    for G in (ng.K1, ng.K2):
        arr = np.array(sorted(x.key for x in G.elems), dtype="<u8")
        h.update(arr.tobytes())
    return h.digest()


def save_cache(graph: CosetGraph, path: str) -> None:
    """Write the cache through a unique temporary file in the target
    directory, so concurrent writers never share one."""
    payload = b"".join([
        np.ascontiguousarray(graph.reps[1], dtype="<u8").tobytes(),
        np.ascontiguousarray(graph.reps[2], dtype="<u8").tobytes(),
        np.ascontiguousarray(graph.edges, dtype="<u4").tobytes(),
    ])
    header = CACHE_HEADER.pack(
        CACHE_VERSION, graph.field.modulus, graph.n1, graph.n2, len(graph.edges),
        group_hash(graph.ng), len(payload), hashlib.sha256(payload).digest())
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".",
                               prefix=os.path.basename(path) + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(CACHE_MAGIC + header + payload)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def load_cache(path: str, ng: NamedGroups) -> CosetGraph:
    """Load and check a cache; any defect of the file, an unreadable one
    included, is a CacheMismatch.
    A loaded graph passes the checks a built one does (distinct vertex
    keys, and the degrees and base edge of _assert_base_edge), and each
    stored edge is proved an edge of the coset graph (_assert_adjacency),
    which a build's resolved probes need not be.  The payload
    is read through a view of the file bytes, and only the edges are
    copied out of it, so the bytes are freed once it returns."""
    try:
        with open(path, "rb") as f:
            data = memoryview(f.read())
    except OSError as e:
        raise CacheMismatch(f"unreadable: {e}") from None
    if data[:len(CACHE_MAGIC)] != CACHE_MAGIC:
        raise CacheMismatch("bad magic")
    head = len(CACHE_MAGIC) + CACHE_HEADER.size
    if len(data) < head:
        raise CacheMismatch("truncated header")
    ver, modulus, n1, n2, ne, gh, plen, digest = CACHE_HEADER.unpack_from(
        data, len(CACHE_MAGIC))
    if ver != CACHE_VERSION:
        raise CacheMismatch(f"cache version {ver} != {CACHE_VERSION}")
    if modulus != ng.field.modulus:
        raise CacheMismatch("cache was built with a different modulus")
    if gh != group_hash(ng):
        raise CacheMismatch("cache group hash mismatch")
    payload = data[head:]
    if len(payload) != plen:
        raise CacheMismatch(f"payload is {len(payload)} bytes; the header says {plen}")
    if plen != 8 * (n1 + n2 + ne):
        raise CacheMismatch("payload length does not match the vertex and edge counts")
    if hashlib.sha256(payload).digest() != digest:
        raise CacheMismatch("payload digest mismatch")
    # _register copies the reps; the edges are copied here
    reps1 = np.frombuffer(payload, "<u8", n1, 0)
    reps2 = np.frombuffer(payload, "<u8", n2, 8 * n1)
    edges = np.frombuffer(payload, "<u4", 2 * ne, 8 * (n1 + n2)).reshape(ne, 2).copy()
    if ne and (int(edges[:, 0].max()) >= n1 or int(edges[:, 1].max()) >= n2):
        raise CacheMismatch("edge id out of range")
    if (np.diff(edges[:, 0].astype(np.int64) * (n1 + n2) + edges[:, 1]) <= 0).any():
        raise CacheMismatch("edges are not in strictly ascending order")
    graph = CosetGraph(ng.field, ng)
    _arm(graph)
    for side, reps in ((1, reps1), (2, reps2)):
        keys = graph._keys(side, reps)
        order = np.argsort(keys, kind="stable")
        graph._register(side, reps, keys[order], order)
    graph.edges = edges
    graph.n1, graph.n2 = int(n1), int(n2)
    graph._build_csr()
    try:
        graph._check_keys()
        _assert_base_edge(graph)
        _assert_adjacency(graph)
    except AssertionError as e:
        raise CacheMismatch(str(e)) from None
    return graph


# ---------------------------------------------------------------------------
# exports


def export_edge_list(graph: CosetGraph, path: str) -> int:
    """One "u v" line per edge in global ids, in the stored ascending
    order; returns line count."""
    u, v = graph._edge_ends()
    with open(path, "w") as f:
        for a, b in zip(u.tolist(), v.tolist()):
            f.write(f"{a} {b}\n")
    return len(u)


def _sparse6_size(n: int) -> bytes:
    """N(n) of nauty's formats.txt: 1, 4 or 8 bytes."""
    if n <= 62:
        return bytes([n + 63])
    if n <= 258047:
        return bytes([126] + [((n >> s) & 63) + 63 for s in (12, 6, 0)])
    return bytes([126, 126] + [((n >> s) & 63) + 63 for s in range(30, -1, -6)])


def sparse6_bytes(n: int, edges) -> bytes:
    """sparse6 encoding (nauty's formats.txt) of the simple graph on
    0..n-1 with the given (E,2) edges, from ':' to the final newline.

    Edges go in order of their larger end v, each as a (b, x) pair with
    x = the smaller end: b = 0 stays at the current v, b = 1 moves to v+1,
    and a longer jump first sends (1, v) to set the current vertex.  The
    bits are one uint8 row per pair, b then x's k bits, filled one shift
    at a time through one reused temporary, and then the padding.  The
    index arrays are freed once used.
    """
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    lo, hi = e.min(axis=1), e.max(axis=1)
    order = np.lexsort((lo, hi))
    lo, hi = lo[order], hi[order]
    del order
    k = max(1, (n - 1).bit_length())
    cur = int(hi[-1]) if len(hi) else 0
    # one past the previous edge's larger end (1 before the first edge)
    nxt = np.concatenate([[0], hi[:-1]])
    nxt += 1
    jump = hi > nxt
    # per edge: an optional (1, hi) jump row, then its (hi == nxt, lo) row
    # at `at`; b is 1 where not set, as is the padding
    at = np.cumsum(jump)
    at += np.arange(len(hi))
    pairs = len(hi) + int(np.count_nonzero(jump))
    pad = -pairs * (k + 1) % 6
    bits = np.ones(pairs * (k + 1) + pad, dtype=np.uint8)
    rows = bits[:pairs * (k + 1)].reshape(pairs, k + 1)
    rows[at, 0] = hi == nxt
    del nxt
    x = np.empty(pairs, dtype=np.int64)
    x[at] = lo
    x[at[jump] - 1] = hi[jump]
    del at, hi, jump, lo
    t = np.empty_like(x)
    for c in range(1, k + 1):
        np.right_shift(x, k - c, out=t)
        t &= 1
        rows[:, c] = t
    if k < 6 and n == 1 << k and cur == n - 2 and pad > k:
        # plain 1-padding would read as a loop at n-1
        bits[-pad] = 0
    body = bits.reshape(-1, 6) @ np.array([32, 16, 8, 4, 2, 1], dtype=np.uint8) + 63
    return b":" + _sparse6_size(n) + body.tobytes() + b"\n"


def export_sparse6(graph: CosetGraph, path: str) -> int:
    """The graph in sparse6, global ids; returns the vertex count."""
    u, v = graph._edge_ends()
    with open(path, "wb") as f:
        f.write(sparse6_bytes(graph.nv, np.stack([u, v], 1)))
    return graph.nv

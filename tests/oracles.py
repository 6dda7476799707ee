"""Test oracles: plain, direct computations that the program's fast paths
are checked against.  psu38 itself uses none of them."""

import weakref
from collections import Counter
from functools import cache
from itertools import permutations, product
from operator import itemgetter

import numpy as np

from psu38 import arcs
from psu38.arcs import KERNEL_RADIUS, ball, kernel_data
from psu38.coset import CosetGraph, _arm
from psu38.fastops import (_W, SubgroupArrays, bpack, bunpack, conj_fingerprints,
                           coset_canon_keys, linear_conj_keys)
from psu38.gf64 import polymul_mod
from psu38.grp import ClosureCapExceeded, SmallGroup, _close, _greedy, _pval, iso_check
from psu38.psu import IDENTITY, PElement


class Perm(tuple):
    """A permutation of range(n) as its image tuple, with products: p*q
    applies p first, then q.  It compares and hashes as its tuple does, so
    it stands for an element of the engine's permutation tables, which
    are plain image tuples."""

    __slots__ = ()

    def __mul__(self, other) -> "Perm":
        # itemgetter of one index returns a scalar, and of none raises
        return Perm(itemgetter(*self)(other) if len(self) > 1 else
                    [other[i] for i in self])

    def inv(self) -> "Perm":
        r = [0] * len(self)
        for i, j in enumerate(self):
            r[j] = i
        return Perm(r)

    def __repr__(self):
        return f"Perm{tuple(self)}"


def boxed(x, tab=None):
    """x as an element with products: an image tuple as a Perm, a
    PElement of the table tab, if one is given, as its TabElement, any
    other element as it is."""
    if isinstance(x, tuple):
        return Perm(x)
    if tab is not None and type(x) is PElement:
        return tab_elements(tab)[tab.at(x)]
    return x


def from_set(elements) -> SmallGroup:
    """The group on a closed set of image tuples or PElements, as the
    retired SmallGroup.from_set made it: a new table closed on the whole
    set in sorted order, its elements in table order and no generators
    until they are asked for."""
    G = SmallGroup.generate(sorted(set(elements)))
    return G._sub(G.idx)


def class_sets(G: SmallGroup) -> list[frozenset]:
    """G's conjugacy classes as sets of elements, in the engine's order
    (by least index): its _class_lists at the boundary."""
    els = G.tab.elems
    return [frozenset([els[i] for i in c]) for c in G._class_lists()]


def class_labels(G: SmallGroup) -> dict:
    """Element -> (order, class size): G's _class_labels at the
    boundary."""
    els = G.tab.elems
    return {els[i]: t for i, t in G._class_labels().items()}


def affine_maps() -> dict[str, set]:
    """The element sets of AGL_2(3) and GL_2(3) on the 9 points (x, y),
    x fastest, and of AGL_1(3) on GF(3), by enumerating every affine map
    x -> Ax + e with det A nonzero: reference_groups' element loops before
    it generated the three groups."""
    pts = [(x, y) for y in range(3) for x in range(3)]
    idx = {p: i for i, p in enumerate(pts)}
    agl, gl = set(), set()
    for a, b, c, d in product(range(3), repeat=4):
        if (a * d - b * c) % 3 == 0:
            continue
        for e, f in product(range(3), repeat=2):
            m = tuple(idx[(a * x + b * y + e) % 3, (c * x + d * y + f) % 3]
                      for x, y in pts)
            agl.add(m)
            if e == f == 0:
                gl.add(m)
    agl1 = {tuple((a * x + b) % 3 for x in range(3)) for a in (1, 2) for b in range(3)}
    return {"AGL23": agl, "GL23": gl, "AGL13": agl1}


def table_order(G) -> list:
    """The elements of a SmallGroup or an ObjGroup by ascending index in
    its (ambient) table: the order in which the engine scans whenever it
    makes a choice."""
    return sorted(G.elems, key=G.index if isinstance(G, ObjGroup) else G.tab.find)


def times(g):
    """Right multiplication by the element object g, by its own product,
    on a list of elements."""
    return lambda xs: [x * g for x in xs]


def close(gens, identity, cap=None):
    """grp._close on element objects (PElements, TabElements, image
    tuples as Perms, or the Python Elements and ProjElements below),
    multiplied as objects."""
    return _close(list(map(boxed, gens)), boxed(identity), cap, times)


def greedy(cands, identity):
    """grp._greedy on element objects, multiplied as objects."""
    return _greedy(list(map(boxed, cands)), boxed(identity), times)


def sequential_close(gens, identity, cap=None):
    """grp._close as it was before it mapped whole layers: one element at
    a time, each multiplied by every kept generator in turn, on element
    objects.  The same (elems, parent, genidx, right), as products are
    taken up in (parent index, generator) order either way."""
    gens, identity = list(map(boxed, gens)), boxed(identity)
    elems, parent, genidx = [identity], [0], [-1]
    index = {identity: 0}
    kept, right = [], {}

    def add(y, pi, gi):
        if cap is not None and len(elems) >= cap:
            raise ClosureCapExceeded(f"closure exceeded cap {cap}")
        j = index[y] = len(elems)
        elems.append(y)
        parent.append(pi)
        genidx.append(gi)
        return j

    for gi, g in enumerate(gens):
        if g in index:
            continue
        i = len(elems)
        right[gi] = [add(elems[pi] * g, pi, gi) for pi in range(i)]
        kept.append((gi, g, right[gi]))
        while i < len(elems):
            x = elems[i]
            for hi, h, row in kept:
                y = x * h
                j = index.get(y)
                row.append(add(y, i, hi) if j is None else j)
            i += 1
    return elems, parent, genidx, right


# ---------------------------------------------------------------------------
# GF(64) matrix arithmetic in plain Python: tuple tables and one pass over
# the entries per product, an implementation independent of the numpy
# kernels of fastops that the program multiplies with


@cache
def tables(field) -> tuple:
    """(mulrows, frobrows) of the field as tuples of tuples, from the
    schoolbook product: mulrows[a][b] = a.b and frobrows[k][a] = a^(2^k)."""
    mulrows = tuple(tuple(polymul_mod(a, b, field.modulus) for b in range(64))
                    for a in range(64))
    frob = [tuple(range(64))]
    for _ in range(5):
        frob.append(tuple(mulrows[v][v] for v in frob[-1]))
    return mulrows, tuple(frob)


def pack(mat: tuple, twist: int) -> int:
    """The packed key: 9 entries of 6 bits, row-major, first entry most
    significant, then the twist in the low 3 bits."""
    key = 0
    for v in mat:
        key = key << 6 | v
    return key << 3 | twist


def unpack(key: int) -> tuple[tuple[int, ...], int]:
    """The (matrix, twist) that pack packs into key."""
    twist = key & 7
    key >>= 3
    mat = [0] * 9
    for i in range(8, -1, -1):
        mat[i] = key & 63
        key >>= 6
    return tuple(mat), twist


def _product(f, a: tuple, e: int, n: tuple) -> tuple:
    """Entries of the matrix a . rho^e(n): one row of the product table
    per entry of a, one lookup in it per term."""
    rows, frob = tables(f)
    if e:
        fr = frob[e]
        n = [fr[v] for v in n]
    b0, b1, b2, b3, b4, b5, b6, b7, b8 = n
    r0, r1, r2, r3, r4, r5, r6, r7, r8 = [rows[v] for v in a]
    return (r0[b0] ^ r1[b3] ^ r2[b6], r0[b1] ^ r1[b4] ^ r2[b7], r0[b2] ^ r1[b5] ^ r2[b8],
            r3[b0] ^ r4[b3] ^ r5[b6], r3[b1] ^ r4[b4] ^ r5[b7], r3[b2] ^ r4[b5] ^ r5[b8],
            r6[b0] ^ r7[b3] ^ r8[b6], r6[b1] ^ r7[b4] ^ r8[b7], r6[b2] ^ r7[b5] ^ r8[b8])


def _inverse(f, m: tuple, e: int) -> tuple:
    """Matrix of (m, e)^-1 = (rho^-e(m*), -e) for unitary m: the conjugate
    transpose (entrywise rho^3) and rho^-e are one table, rho^(3-e)."""
    fr = tables(f)[1][(9 - e) % 6]
    return (fr[m[0]], fr[m[3]], fr[m[6]], fr[m[1]], fr[m[4]], fr[m[7]],
            fr[m[2]], fr[m[5]], fr[m[8]])


def _canonical_mat(f, mat: tuple) -> tuple:
    """The scalar multiple of mat with the least packed key: scaled once,
    by the lead scalar of its first nonzero entry."""
    for v in mat:
        if v:
            break
    s = f.lead_scalar[v]
    if s == 1:
        return mat
    row = tables(f)[0][s]
    return tuple([row[v] for v in mat])


class Element:
    """Exact semilinear unitary map (M, e); immutable value, composing by
    (M, e) * (N, f) = (M . rho^e(N), e + f mod 6)."""

    __slots__ = ("field", "mat", "twist", "key")

    def __init__(self, field, mat: tuple, twist: int = 0):
        self.field = field
        self.mat = mat
        self.twist = twist % 6
        self.key = pack(mat, self.twist)

    @staticmethod
    def identity(field) -> "Element":
        return Element(field, (1, 0, 0, 0, 1, 0, 0, 0, 1), 0)

    def __mul__(self, other: "Element") -> "Element":
        f = self.field
        return Element(f, _product(f, self.mat, self.twist, other.mat),
                       self.twist + other.twist)

    def star(self) -> "Element":
        """Conjugate transpose (entrywise tau, then transpose); twist kept."""
        return Element(self.field, _inverse(self.field, self.mat, 0), self.twist)

    def inv(self) -> "Element":
        """Inverse, using M^-1 = M* for unitary M."""
        e = self.twist
        return Element(self.field, _inverse(self.field, self.mat, e), 6 - e)

    def det(self) -> int:
        f = self.field
        m = self.mat
        t = 0
        for p in permutations(range(3)):
            v = 1
            for i in range(3):
                v = f.mul(v, m[3 * i + p[i]])
            t ^= v
        return t

    def is_unitary(self) -> bool:
        return self.star_matrix_times_self() == (1, 0, 0, 0, 1, 0, 0, 0, 1)

    def star_matrix_times_self(self) -> tuple:
        return _product(self.field, self.star().mat, 0, self.mat)

    def frob_image(self, k: int = 1) -> "Element":
        """Entrywise rho^k image, twist unchanged."""
        fr = tables(self.field)[1][k % 6]
        return Element(self.field, tuple([fr[v] for v in self.mat]), self.twist)

    def power(self, k: int) -> "Element":
        if k < 0:
            return self.inv().power(-k)
        r = Element.identity(self.field)
        b = self
        while k:
            if k & 1:
                r = r * b
            b = b * b
            k >>= 1
        return r

    def __eq__(self, other) -> bool:
        return isinstance(other, Element) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __lt__(self, other: "Element") -> bool:
        return self.key < other.key

    def __repr__(self):
        return f"Element(key={self.key:#x}, twist={self.twist})"


def canonicalize(el: Element) -> Element:
    """Least packed serialization among {M, alpha M, alpha^2 M}."""
    mat = _canonical_mat(el.field, el.mat)
    return el if mat is el.mat else Element(el.field, mat, el.twist)


class ProjElement:
    """Projective class of an Element, stored in canonical form: the
    Python counterpart of psu.PElement."""

    __slots__ = ("el", "key")

    def __init__(self, el: Element):
        c = canonicalize(el)
        self.el = c
        self.key = c.key

    @staticmethod
    def _canonical(f, mat: tuple, twist: int) -> "ProjElement":
        p = ProjElement.__new__(ProjElement)
        p.el = el = Element(f, _canonical_mat(f, mat), twist)
        p.key = el.key
        return p

    def __mul__(self, other: "ProjElement") -> "ProjElement":
        a, b = self.el, other.el
        f = a.field
        return ProjElement._canonical(f, _product(f, a.mat, a.twist, b.mat),
                                      a.twist + b.twist)

    def inv(self) -> "ProjElement":
        a = self.el
        return ProjElement._canonical(a.field, _inverse(a.field, a.mat, a.twist),
                                      6 - a.twist)

    @property
    def twist(self) -> int:
        return self.el.twist

    def __eq__(self, other) -> bool:
        return isinstance(other, ProjElement) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __lt__(self, other: "ProjElement") -> bool:
        return self.key < other.key

    def __repr__(self):
        return f"ProjElement(key={self.key:#x})"


class TabElement(PElement):
    """A PElement of one of the engine's PElement tables, whose products
    and inverses are that table's (Table.mul, Table.inv), which the tests
    check against the Python ones: the fast element objects of the object
    engine (ObjGroup.of), as Perm is for image tuples.  It compares and
    hashes as the PElement of its key.  Each table's are made once
    (tab_elements) and refer to it weakly, so they keep no table alive; a
    right factor outside the table raises ValueError."""

    __slots__ = ("box", "i")

    def __mul__(self, other: PElement) -> "TabElement":
        box = self.box
        tab = box.tab()
        j = other.i if type(other) is TabElement and other.box is box else tab.at(other)
        return box[tab.mul(self.i, j)]

    def inv(self) -> "TabElement":
        box = self.box
        return box[box.tab().inv[self.i]]


class _Box(list):
    """A table's TabElements by index, with a weak reference to it."""

    __slots__ = ("tab",)


_BOXES: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def tab_elements(tab) -> list:
    """The TabElements of the PElement table tab, by index, made on first
    use and kept while the table lives."""
    box = _BOXES.get(tab)
    if box is None:
        box = _BOXES[tab] = _Box()
        box.tab = weakref.ref(tab)
        for i, x in enumerate(tab.elems):
            t = TabElement.__new__(TabElement)
            t.ops, t.key, t.box, t.i = x.ops, x.key, box, i
            box.append(t)
    return box


def element_from_key(field, key: int) -> Element:
    mat, twist = unpack(key)
    return Element(field, mat, twist)


def obj(x, field=None) -> ProjElement:
    """The class of x (a PElement, or a packed key under field) as a
    ProjElement, whose products are the Python ones."""
    if field is None:
        field, x = x.ops.field, x.key
    return ProjElement(element_from_key(field, int(x)))


def scalar_mul(el: Element, s: int) -> Element:
    """el with its matrix scaled by the field element s, twist kept."""
    row = tables(el.field)[0][s]
    return Element(el.field, tuple([row[v] for v in el.mat]), el.twist)


def comm_std(x: Element, y: Element) -> Element:
    """[x, y] = x^-1 y^-1 x y."""
    return x.inv() * y.inv() * x * y


def comm_alt(x: Element, y: Element) -> Element:
    """[x, y] = x y x^-1 y^-1."""
    return x * y * x.inv() * y.inv()


def conj_right(x: Element, g: Element) -> Element:
    """x^g = g^-1 x g."""
    return g.inv() * x * g


def conj_left(x: Element, g: Element) -> Element:
    """x^g = g x g^-1."""
    return g * x * g.inv()


def relation_rows(g: dict, comm, conj) -> list[tuple[str, bool]]:
    """The relation table on the Elements g under one convention pair."""
    A, B, C, D, E, F, Z, S = (g[k] for k in ("A", "B", "C", "D", "E", "F", "Z", "sigma"))
    Z2 = Z * Z
    one = Element.identity(A.field)
    return [
        ("C^3=Z", C.power(3) == Z),
        ("D^2=F", D * D == F),
        ("E^3=B", E.power(3) == B),
        ("[A,B]=Z^2", comm(A, B) == Z2),
        ("[A,C]=BZ^2", comm(A, C) == B * Z2),
        ("[B,C]=1", comm(B, C) == one),
        ("[D,A]=BA", comm(D, A) == B * A),
        ("[D,B]=A^2B", comm(D, B) == A * A * B),
        ("A^s=A", conj(A, S) == A),
        ("B^s=B^-1", conj(B, S) == B.inv()),
        ("C^s=C^2", conj(C, S) == C * C),
        ("D^s=D^-1", conj(D, S) == D.inv()),
        ("[E,A]=BC", comm(E, A) == B * C),
        ("[E,B]=1", comm(E, B) == one),
        ("[E,C]=1", comm(E, C) == one),
        ("[F,A]=A^2", comm(F, A) == A * A),
        ("[F,B]=B^2", comm(F, B) == B * B),
        ("[F,C]=1", comm(F, C) == one),
        ("[F,E]=E^2", comm(F, E) == E * E),
        ("E^s=E^2", conj(E, S) == E * E),
        ("F^s=F", conj(F, S) == F),
    ]


# ---------------------------------------------------------------------------


def bpkeys_by_argmax(ops, mats, tw) -> np.ndarray:
    """FieldOps.bpkeys as it was: the first nonzero entry of every row
    found by an argmax, the matrices scaled by lead_scalar of it and
    packed by bpack."""
    flat = mats.reshape(len(mats), 9)
    lead = flat[np.arange(len(flat)), (flat != 0).argmax(axis=1)]
    return bpack(ops.MUL[ops.LEAD[lead][:, None, None], mats], tw)


def fingerprints_of_repeated_rows(ops, rm, rt, cm, ct, inverse: bool = True) -> np.ndarray:
    """fastops.conj_fingerprint_grid as the build keyed its probes before:
    conj_fingerprints on every rep repeated k times against the k elements
    tiled, which inverts each row and multiplies it out twice."""
    n, k = len(rt), len(ct)
    return conj_fingerprints(ops, np.repeat(rm, k, axis=0), np.repeat(rt, k),
                             np.tile(cm, (n, 1, 1)), np.tile(ct, n), inverse)


def subgroup_arrays(ops, G) -> SubgroupArrays:
    """The canonical-form scan's arrays for the elements of G."""
    return SubgroupArrays(ops, (x.key for x in G.elems))


def coset_canon(ops, sub: SubgroupArrays, g) -> ProjElement:
    """Least representative of the coset K.g by an exact scan; an oracle
    for the fingerprint key."""
    pm, pt = bunpack(np.array([g.key], dtype=np.uint64))
    key = coset_canon_keys(ops, sub, pm, pt)[0]
    return obj(key, ops.field)


def rep_element(graph, v: int) -> PElement:
    """The stored representative of vertex v, as a plain PElement."""
    return PElement(graph.ops, int(graph.reps[graph.side_of(v)][graph.local_id(v)]))


def group_from_keys(graph, keys) -> SmallGroup:
    """graph.group_from_keys, and the group on plain PElements where
    neither K1 nor K2 holds the keys (the stabilizer of a non-base
    vertex)."""
    try:
        return graph.group_from_keys(keys)
    except ValueError:
        pass
    return from_set([PElement(graph.ops, int(k)) for k in keys])


def vertex_stabilizer(graph, v: int, group: str = "K") -> SmallGroup:
    """The stabilizer of any vertex as a group: the base stabilizer at a
    base vertex, else the group on its stabilizer_key_rows."""
    if graph.local_id(v) == 0:
        return graph.vertex_stabilizer(v, group)
    return group_from_keys(graph, graph.stabilizer_key_rows([v], group)[0])


def vertex_keys(graph, side: int, lids=None) -> np.ndarray:
    """The fingerprint key of each vertex of a side, in id order (or of
    the local ids lids), recomputed from its rep: conj_fingerprints of
    rep^-1 y rep, y the side's fingerprint element, with its inverse on
    side 2 only.  It reads neither skeys nor sids, where the graph keeps
    these keys in sorted order."""
    reps = graph.reps[side] if lids is None else graph.reps[side][lids]
    return conj_fingerprints(graph.ops, *bunpack(reps), *graph.ysets[side], side == 2)


def image_rowwise(graph, gids, keys, vkeys=None) -> np.ndarray:
    """The action one (vertex, element) pair per row, (len(gids),) int64:
    vertex gids[i] under the element of packed key keys[i] (a single key
    acts on every vertex), keyed by conj_fingerprints of the element and
    the vertex's fingerprint element (vertex_keys) and resolved on the
    vertex's side.  vkeys, if given, maps each side to vertex_keys of the
    whole side, computed once by the caller; else the keys of the vertices
    in gids are computed here.  CosetGraph.image_batch did this before it
    took many elements to a few vertices."""
    gids = np.asarray(gids, dtype=np.int64)
    xm, xt = bunpack(np.asarray(keys, dtype=np.uint64).reshape(-1))
    out = np.empty(len(gids), dtype=np.int64)
    for side, off in ((1, 0), (2, graph.n1)):
        sel = np.flatnonzero((gids >= graph.n1) == (side == 2))
        x = (xm, xt) if len(xt) == 1 else (xm[sel], xt[sel])
        lids, inv = np.unique(gids[sel] - off, return_inverse=True)
        fk = vertex_keys(graph, side, lids) if vkeys is None else vkeys[side][lids]
        c = bunpack(fk[inv])
        ids = graph._resolve(side, conj_fingerprints(graph.ops, *x, *c, side == 2))
        if (ids < 0).any():
            raise AssertionError("action image is not a known vertex")
        out[sel] = ids + off
    return out


def perm_by_images(graph, x: PElement, vkeys=None) -> np.ndarray:
    """graph.perm(x) by image_rowwise on every vertex, uncached; vkeys as
    image_rowwise takes it."""
    return image_rowwise(graph, np.arange(graph.nv), x.key, vkeys).astype(np.int32)


def fixes_by_images(graph, keys, gids) -> np.ndarray:
    """graph.fixes by resolved images: whether the element of key keys[i,
    j] (keys one row per vertex, or (k,) shared by all) maps vertex
    gids[i] to itself, by one image_rowwise over every (vertex, element)
    pair."""
    gids = np.asarray(gids, dtype=np.int64)
    keys = np.broadcast_to(np.asarray(keys, dtype=np.uint64), (len(gids), np.shape(keys)[-1]))
    img = image_rowwise(graph, np.repeat(gids, keys.shape[1]), keys.reshape(-1))
    return img.reshape(keys.shape) == gids[:, None]


def fixers_by_images(graph, keys, gids) -> np.ndarray:
    """The indices of the keys whose elements fix every vertex in gids
    (graph.fixes, reduced over the vertices), by fixes_by_images."""
    return np.flatnonzero(fixes_by_images(graph, keys, gids).all(axis=0))


def transversal_by_products(K: SmallGroup, K12: SmallGroup) -> list:
    """coset.transversal by element products: the first element of K in
    table order outside the cosets found so far starts a new coset
    K12.t, covered by the table products h * t."""
    cover = set()
    ts = []
    k12 = [boxed(h, K.tab) for h in K12.elems]
    for t in table_order(K):
        if t not in cover:
            ts.append(t)
            bt = boxed(t, K.tab)
            cover.update(h * bt for h in k12)
    assert len(ts) * len(K12) == len(K)
    return ts


def build_graph_all_probes(ng, probe_keys: list | None = None) -> CosetGraph:
    """build_graph by the plain BFS: every vertex probes all k transversal
    elements, its parent included, each probe is the product t.r keyed by
    its own fingerprint, each layer's fresh vertices are numbered in the
    order of their first probe, as build_graph numbers them, and the edges
    are deduplicated by a 2-D unique.
    A list passed as probe_keys gets each pass's probes as int64 keys
    u << 32 | v, u the side-1 end and v the side-2 end."""
    graph = CosetGraph(ng.field, ng)
    _arm(graph)
    ops = graph.ops
    trans = {side: bunpack(np.array([t.key for t in transversal_by_products(K, ng.K12)],
                                    dtype=np.uint64))
             for side, K in ((1, ng.K1), (2, ng.K2))}
    ident = np.array([IDENTITY], dtype=np.uint64)
    for side in (1, 2):
        graph._register(side, ident, graph._keys(side, ident), [0])
    edge_parts = []
    frontier = {1: np.zeros(1, dtype=np.int64), 2: np.zeros(1, dtype=np.int64)}
    while len(frontier[1]) or len(frontier[2]):
        new = {}
        for side in (1, 2):
            tgt, src = 3 - side, frontier[side]
            tm, tt = trans[side]
            k = len(tm)
            # row i*k + j is t_j . rep(src[i])
            rm, rt = bunpack(graph.reps[side][src])
            pm, pt = ops.bsmul(np.tile(tm, (len(src), 1, 1)), np.tile(tt, len(src)),
                               np.repeat(rm, k, axis=0), np.repeat(rt, k))
            keys = graph._keys(tgt, ops.bpkeys(pm, pt))
            ids = graph._resolve(tgt, keys)
            miss = np.flatnonzero(ids < 0)
            fresh, first, inv = np.unique(keys[miss], return_index=True,
                                          return_inverse=True)
            base = len(graph.reps[tgt])
            # rank of each fresh key's first probe among the fresh keys'
            num = base + np.argsort(np.argsort(first))
            ids[miss] = num[inv]
            probe = np.sort(miss[first])
            graph._register(tgt, ops.bpkeys(pm[probe], pt[probe]), fresh, num)
            new[tgt] = base + np.arange(len(fresh))
            pair = (np.repeat(src, k), ids)
            edge_parts.append(np.stack(pair if side == 1 else pair[::-1], axis=1))
            if probe_keys is not None:
                probe_keys.append(edge_parts[-1][:, 0] << 32 | edge_parts[-1][:, 1])
        frontier = new
    graph.n1, graph.n2 = len(graph.reps[1]), len(graph.reps[2])
    graph.edges = np.unique(np.concatenate(edge_parts), axis=0).astype(np.uint32)
    graph.indptr, graph.indices = csr_by_full_sort(graph)
    return graph


def rep_keys_by_products(ops, tm, tt, rkeys: np.ndarray, tidx) -> np.ndarray:
    """fastops.lmul_keys by multiplying out: the projective key of t r,
    t the row tidx[i] of (tm, tt) and r the element of key rkeys[i], by
    one bsmul and bpkeys per key, as build_graph first keyed each fresh
    vertex's rep."""
    tidx = np.asarray(tidx, dtype=np.intp)
    return ops.bpkeys(*ops.bsmul(tm[tidx], tt[tidx], *bunpack(rkeys)))


def unique_by_np_unique(a: np.ndarray) -> tuple:
    """fastops.unique_sorted(a, index=True) by np.unique, as build_graph
    first deduplicated each layer's fresh keys."""
    return np.unique(a, return_index=True, return_inverse=True)


def csr_by_full_sort(graph) -> tuple[np.ndarray, np.ndarray]:
    """CosetGraph._build_csr's indptr and indices from both directions of
    every edge as one sorted key src.nv + dst: indptr counts the sources
    (key // nv), indices are the destinations (key % nv); no order of the
    edges is assumed."""
    nv = np.int64(graph.nv)
    u, v = graph._edge_ends()
    key = np.concatenate([u * nv + v, v * nv + u])
    key.sort()
    indptr = np.zeros(graph.nv + 1, dtype=np.int32)
    np.cumsum(np.bincount(key // nv, minlength=graph.nv), out=indptr[1:])
    return indptr, (key % nv).astype(np.int32)


def is_automorphism_by_bincount(graph, p: np.ndarray) -> bool:
    """CosetGraph.is_graph_automorphism of the vertex map p: p is a
    bijection (np.bincount) and the sorted keys min.nv + max of the edge
    images equal the stored u.nv + v."""
    if not (np.bincount(p, minlength=graph.nv) == 1).all():
        return False
    u, v = graph._edge_ends()
    pu, pv = p[u], p[v]
    ikeys = np.sort(np.minimum(pu, pv) * np.int64(graph.nv) + np.maximum(pu, pv))
    return bool(np.array_equal(u * np.int64(graph.nv) + v, ikeys))


# row j*64 + v: the matrix whose entry j is v and whose other entries are 0
_UNITS = np.zeros((9, 64, 9), dtype=np.uint8)
_UNITS[np.arange(9), :, np.arange(9)] = np.arange(64, dtype=np.uint8)
_UNITS = _UNITS.reshape(576, 3, 3)


def key_tables(ops, am, at, bm, bt, twists, inverse: bool) -> np.ndarray:
    """fastops.key_tables by multiplying out a E b with bsmul for all 576
    unit matrices E (entry j equal to v, the rest 0) of each twist and
    each pair (a, b) of rows of (am, at) and (bm, bt), and with inverse a
    E^-1 b, laid out as fastops.key_tables' rows, (v*nx*nt + x*nt + i)*9
    + j."""
    parts = []
    for x in range(len(at)):
        ct = np.repeat(np.asarray(twists, dtype=np.uint8), 576)
        cm = np.tile(_UNITS, (len(twists), 1, 1))
        if inverse:
            im, it = ops.binv(cm, ct)
            cm, ct = np.concatenate([cm, im]), np.concatenate([ct, it])
        a, b = (am[x:x + 1], at[x:x + 1]), (bm[x:x + 1], bt[x:x + 1])
        m, t = ops.bsmul(*ops.bsmul(*a, cm, ct), *b)
        f = ops.field
        scalars = np.array([1, f.alpha, f.alpha2], dtype=np.uint8)
        scaled = ops.MUL[scalars[None, :, None, None], m[:, None]].reshape(-1, 9)
        keys = (scaled.astype(np.uint64) @ _W).reshape(len(m), 3)
        keys += np.where(np.arange(len(m)) % 576 < 64, t, 0).astype(np.uint64)[:, None]
        parts.append(np.concatenate(np.split(keys, 2 if inverse else 1), axis=1))
    # rows ((x*nt + i)*9 + j)*64 + v so far, moved to value-major order
    width = parts[0].shape[1]
    tables = np.concatenate(parts).reshape(len(at), len(twists), 9, 64, width)
    return tables.transpose(3, 0, 1, 2, 4).reshape(-1, width)


def stabilizer_keys(graph, g: int, group: str = "K") -> np.ndarray:
    """graph.stabilizer_key_rows([g], group)[0] by one batched bsmul
    conjugation of the base stabilizer's sorted packed keys (kkeys) by
    the rep."""
    side, lid = graph.side_of(g), graph.local_id(g)
    km, kt = bunpack(graph.kkeys[side, group])
    rm, rt = bunpack(graph.reps[side][lid:lid + 1])  # one row, broadcast
    m, t = graph.ops.bsmul(*graph.ops.binv(rm, rt), km, kt)
    return graph.ops.bpkeys(*graph.ops.bsmul(m, t, rm, rt))


def induced_neighbor_group_by_rows(kd) -> tuple[SmallGroup, SmallGroup]:
    """arcs.KernelData.induced_neighbor_group as it was first built: the
    group on the images of every stabilizer element on the sorted
    neighbors, closed on that whole set (from_set), with the kernel of
    the rows that fix every neighbor."""
    nbrs = sorted(kd.nbr_pts.tolist())
    pos = {u: i for i, u in enumerate(nbrs)}
    sub = kd.nbr_images[:, np.argsort(kd.nbr_pts)]
    images = [tuple(pos[x] for x in row) for row in sub.tolist()]
    ident = tuple(range(len(nbrs)))
    kern = kd.stab._sub([i for i, im in zip(kd.stab.idx, images) if im == ident])
    return from_set(images), kern


def pulled_back_kernel(graph, v: int, group: str = "K") -> frozenset:
    """G_v^[1] pulled back to the base stabilizer G_side of v's side, one
    vertex at a time by the bsmul and image oracles: the elements k of
    G_side whose conjugate rep^-1 k rep maps every neighbor of v to
    itself."""
    els = sorted(graph.base_stabilizer(graph.side_of(v), group).elems)
    idx = fixers_by_images(graph, stabilizer_keys(graph, v, group), graph.neighbors(v))
    return frozenset(els[i] for i in idx)


def local_condition_at(graph, v: int, group: str = "K") -> bool:
    """The per-vertex reference for the deep half of
    arcs.sampled_vertex_checks: whether G_v^[1] is the base kernel
    G_z^[1] conjugated by v's rep, z the base vertex of v's side; then
    C_{G_v}(O_3(G_v^[1])) <= O_3(G_v^[1]) at v is the condition that
    local_characteristic checks at z."""
    z = graph.base_x1 if graph.side_of(v) == 1 else graph.base_x2
    return pulled_back_kernel(graph, v, group) == kernel_data(graph, z, group).kernel(1).eset


def _batches_by_side(graph, ids: np.ndarray):
    """The ids of side 1, then of side 2, arcs.SAMPLE_CHUNK at a time."""
    for part in (ids[ids < graph.n1], ids[ids >= graph.n1]):
        for lo in range(0, len(part), arcs.SAMPLE_CHUNK):
            yield part[lo:lo + arcs.SAMPLE_CHUNK]


def sampled_vertex_checks_per_group(graph, group: str) -> dict:
    """arcs.sampled_vertex_checks' record of one group as it was first
    made, by a pass of its own: the group's stabilizer keys and fixes of
    each wide batch, and the group's pulled-back kernels of each deep
    batch, the deep half stopping at its first failing batch."""
    rng = np.random.default_rng(arcs.SAMPLE_SEED)
    wide_ids = rng.choice(graph.nv, size=arcs.SAMPLE_WIDE, replace=False)
    deep_ids = rng.choice(graph.nv, size=arcs.SAMPLE_DEEP, replace=False)
    wide_ok = True
    for chunk in _batches_by_side(graph, wide_ids):
        expect = arcs.STABILIZER_ORDERS[group, graph.side_of(int(chunk[0]))]
        keys = graph.stabilizer_key_rows(chunk, group)
        srt = np.sort(keys, axis=1)
        distinct = 1 + (srt[:, 1:] != srt[:, :-1]).sum(axis=1)
        fixed = graph.fixes(keys, chunk).sum(axis=1)
        wide_ok = wide_ok and bool((distinct == expect).all() and (fixed == expect).all())
    deep_ok = True
    for chunk in _batches_by_side(graph, deep_ids):
        side = graph.side_of(int(chunk[0]))
        kern = kernel_data(graph, graph.base_x1 if side == 1 else graph.base_x2,
                           group).kernel(1).handles()
        if not (arcs.pulled_back_kernels(graph, chunk, group)
                == [k in kern for k in graph.kkeys[side, group].tolist()]).all():
            deep_ok = False
            break
    return {"wide_sample": len(wide_ids), "wide_ok": wide_ok,
            "deep_sample": len(deep_ids), "deep_ok": deep_ok}


def kernel_radii_by_full_table(graph, v: int, group: str = "K") -> tuple[np.ndarray, np.ndarray]:
    """(first_moved, nbr_images) of arcs.KernelData the way it first made
    them: one int64 image table of the ball under every element of the
    stabilizer, and per element the least radius over the whole
    np.where(moved, radii, KERNEL_RADIUS + 1) matrix, which does not rest
    on the order of ball's columns."""
    pts, radii = ball(graph, v, KERNEL_RADIUS)
    S = graph.vertex_stabilizer(v, group)
    gperm = [graph.perm(g) for g in S.gens_list()]
    T = np.empty((len(S.elems), len(pts)), dtype=np.int64)
    T[0] = pts
    for i in range(1, len(S.elems)):
        T[i] = gperm[S.genidx[i]][T[S.parent[i]]]
    moved = T != pts[None, :]
    first_moved = np.where(moved, radii[None, :], KERNEL_RADIUS + 1).min(axis=1)
    return first_moved, T[:, radii == 1]


def enumerate_arcs(graph, v: int, s: int) -> np.ndarray:
    """All s-arcs starting at v, as rows: paths with no immediate
    backtracking.

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


def _row_bytes(rows) -> list:
    """Each row of an integer array as the bytes of its int64 entries."""
    rows = np.ascontiguousarray(rows, dtype=np.int64)
    return rows.view(np.dtype((np.void, 8 * rows.shape[1]))).ravel().tolist()


def bfs_orbit_sizes(rows, perms: list[np.ndarray]) -> list[int]:
    """Orbit sizes, largest first, of the group generated by the vertex
    permutations perms acting entrywise on the rows of an integer array,
    by a plain BFS over the rows, each found by its bytes in a dict (a
    KeyError if an image is not a row)."""
    index = {r: i for i, r in enumerate(_row_bytes(rows))}
    if len(index) != len(rows):
        raise AssertionError("a row repeats")
    images = [list(map(index.__getitem__, _row_bytes(p[rows]))) for p in perms]
    seen, sizes = set(), []
    for start in range(len(rows)):
        if start in seen:
            continue
        orbit, frontier = {start}, [start]
        while frontier:
            frontier = {image[i] for image in images for i in frontier} - orbit
            orbit |= frontier
        seen |= orbit
        sizes.append(len(orbit))
    return sorted(sizes, reverse=True)


def perm_product(p: Perm, q: Perm) -> Perm:
    """p * q (p first, then q) by a list of q's images along p."""
    return Perm([q[i] for i in p])


def conjugate(G: SmallGroup, g: PElement) -> SmallGroup:
    """G^g for any PElement g, in or outside G's table: a group of plain
    PElements in a new table, their keys conjugated in one batch by
    linear_conj_keys, with G's generators conjugated as its generators."""
    ks = np.array([G.tab.keys[i] for i in G.idx + G._gens], dtype=np.uint64)
    ks = linear_conj_keys(g.ops, *bunpack([g.key]), ks, inverse=False)[0].tolist()
    els = [PElement(g.ops, k) for k in ks]
    c = from_set(els[:len(G)])
    c._gens = [c.tab.at(x) for x in els[len(G):]]
    return c


def order_profile(G: "ObjGroup") -> Counter:
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
        tree = close(gens, identity)
        span = set(tree[0])
        ends.append(len(span))
    return gens, ends, tree


def generating_set(G: "ObjGroup") -> list:
    """SmallGroup._generating_set by closing each prefix: greedy over the
    elements by decreasing order."""
    if len(G) == 1:
        return [G.identity]
    cand = sorted(table_order(G), key=lambda x: -G.element_order(x))
    gens, ends, _ = greedy_prefixes(cand, G.identity)
    if ends[-1] != len(G):
        raise AssertionError("element set is not closed under multiplication")
    return gens


def iso_generators(G1: "ObjGroup", G2: "ObjGroup"):
    """The generating sequence of G1 that the isomorphism search onto G2
    takes, with its ends and tree as greedy_prefixes gives them: greedy,
    preferring elements with the fewest candidate images (ties broken in
    table order)."""
    inv1, inv2 = refined_invariants(G1), refined_invariants(G2)
    images = Counter(inv2.values())
    cands = sorted(table_order(G1), key=lambda g: images[inv1[g]])
    return greedy_prefixes(cands, G1.identity)


def iso_map(G1: SmallGroup, G2: SmallGroup):
    """The isomorphism that iso_check found, as a dict, or None if there
    is none: rebuilt from what its search kept in G2._iso (G1's generating
    sequence and the images of its generators) along G1's closure tree
    over that sequence, as the search built it."""
    if not iso_check(G1, G2):
        return None
    gens1, imgs = G2._iso[G1.handles()]
    t1, t2 = G1.tab, G2.tab
    elems, parent, genidx, _ = close([boxed(x, t1) for x in gens1], boxed(G1.identity, t1))
    m = [boxed(G2.identity, t2)]
    for t in range(1, len(elems)):
        m.append(m[parent[t]] * boxed(imgs[genidx[t]], t2))
    return dict(zip(elems, m))


def sylow(G: "ObjGroup", p: int) -> "ObjGroup":
    """SmallGroup.sylow by closing all of P's generators from scratch at
    each growth step."""
    target = p ** _pval(len(G.elems), p)
    P = G.subgroup([G.identity])
    pgens: list = []
    while len(P) < target:
        N = G.normalizer(P) if pgens else G
        x = next((x for x in table_order(N)
                  if x not in P.eset and target % G.element_order(x) == 0), None)
        if x is None:
            raise AssertionError("sylow growth stalled")
        pgens.append(x)
        P = G.subgroup(close(pgens, G.identity)[0])
        if target % len(P):
            raise AssertionError("P<x> is not a p-group")
    return P


def refined_invariants(G: "ObjGroup") -> dict:
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


def iso_search(G1: "ObjGroup", G2: "ObjGroup"):
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
    for h in table_order(G2):
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


# ---------------------------------------------------------------------------
# the group engine on element objects


def _conj_orbit(seeds, gens, on_sets=False):
    """The orbit of the seeds under conjugation x -> g^-1 x g by the group
    that gens generate, yielded in discovery order; with on_sets=True the
    points are frozensets of elements, conjugated elementwise."""
    pairs = [(g.inv(), g) for g in gens]
    orbit = list(dict.fromkeys(seeds))
    seen = set(orbit)
    for x in orbit:  # grows while it is walked
        yield x
        for gi, g in pairs:
            y = frozenset(gi * h * g for h in x) if on_sets else gi * x * g
            if y not in seen:
                seen.add(y)
                orbit.append(y)


class ObjGroup:
    """An explicitly enumerated group on element objects (PElements, the
    TabElements above, or Perms), every operation by element products,
    hashing and comparison: the engine that
    grp.SmallGroup computes on table indices, as it was before, for
    comparison.  index maps an element to its index in the ambient table,
    whose order every choice follows (table_order): by default the
    group's own closure order, and a subgroup takes its group's."""

    def __init__(self, elems, gens, identity, parent=None, genidx=None, index=None):
        self.elems = list(elems)
        self.gens = list(gens)
        self.identity = identity
        self.parent, self.genidx = parent, genidx
        self.eset = frozenset(self.elems)
        self.index = index or {x: i for i, x in enumerate(self.elems)}.__getitem__
        self._orders: dict = {}
        self._classes: dict | None = None

    @staticmethod
    def generate(gens, cap=None) -> "ObjGroup":
        gens = list(gens)
        e = gens[0] * gens[0].inv()
        elems, parent, genidx, _ = close(gens, e, cap)
        return ObjGroup(elems, gens, e, parent, genidx)

    @staticmethod
    def from_set(elements, identity, index) -> "ObjGroup":
        return ObjGroup(sorted(set(elements), key=index), [], identity, index=index)

    @staticmethod
    def of(G: SmallGroup) -> "ObjGroup":
        """The same elements, generators and tree as the engine's G, the
        image tuples of a permutation group as Perms and the PElements of
        a PElement table as its TabElements.  A group cut by indices,
        which has no generators yet, gets the oracle's own generating
        set, not the engine's."""
        def box(x):
            return boxed(x, G.tab)
        gens = [G.tab.elems[i] for i in G._gens]
        return ObjGroup(map(box, G.elems), map(box, gens), box(G.identity),
                        G.parent, G.genidx, G.tab.find)

    def subgroup(self, elements) -> "ObjGroup":
        return ObjGroup.from_set(elements, self.identity, self.index)

    def __len__(self):
        return len(self.elems)

    def element_order(self, x) -> int:
        o = self._orders.get(x)
        if o is None:
            r, o = x, 1
            while r != self.identity:
                r, o = r * x, o + 1
            self._orders[x] = o
        return o

    def gens_list(self) -> list:
        if not self.gens:
            self.gens = self.generating_set()
        return self.gens

    def generating_set(self) -> list:
        return generating_set(self)

    def is_abelian(self) -> bool:
        gens = self.gens_list()
        return all(a * b == b * a for a in gens for b in gens)

    def is_elementary_abelian(self, p: int) -> bool:
        return self.is_abelian() and all(
            self.element_order(x) in (1, p) for x in self.elems)

    def center(self) -> "ObjGroup":
        return self.centralizer(self.gens_list())

    def centralizer(self, xs) -> "ObjGroup":
        xs = list(xs)
        return self.subgroup([g for g in self.elems if all(g * x == x * g for x in xs)])

    def normalizer(self, H) -> "ObjGroup":
        hgens = H.gens_list()
        return self.subgroup([g for g in self.elems
                              if all(g.inv() * h * g in H.eset for h in hgens)])

    def is_normal(self, H) -> bool:
        return all(g.inv() * h * g in H.eset
                   for g in self.gens_list() for h in H.gens_list())

    def normal_closure(self, xs) -> "ObjGroup":
        orbit = _conj_orbit(xs, self.gens_list())
        return self.subgroup(close(sorted(orbit, key=self.index), self.identity)[0])

    def intersect(self, other) -> "ObjGroup":
        return self.subgroup(self.eset & other.eset)

    def sylow(self, p: int) -> "ObjGroup":
        return sylow(self, p)

    def p_core(self, p: int) -> "ObjGroup":
        if len(self.elems) % p != 0:
            return self.subgroup([self.identity])
        return self.core(self.sylow(p))

    def core(self, H) -> "ObjGroup":
        core = set(H.eset)
        for T in _conj_orbit([H.eset], self.gens_list(), on_sets=True):
            core &= T
            if len(core) == 1:
                break
        return self.subgroup(core)

    def conj_classes(self) -> list[frozenset]:
        which = dict.fromkeys(self.elems, -1)
        classes: list = []
        for g in table_order(self):
            if which[g] < 0:
                for y in _conj_orbit([g], self.gens_list()):
                    which[y] = len(classes)
                classes.append([])
        for x, i in which.items():
            classes[i].append(x)
        return [frozenset(c) for c in classes]

    def conj_class_invariants(self) -> dict:
        """Element -> (order, class size); cached, as refined_invariants
        reads it once per element."""
        if self._classes is None:
            self._classes = {x: (self.element_order(x), len(c))
                             for c in self.conj_classes() for x in c}
        return self._classes

    def coset_index(self, N) -> tuple[dict, list]:
        index: dict = {}
        reps = []
        for g in table_order(self):
            if g not in index:
                for n in N.elems:
                    index[g * n] = len(reps)
                reps.append(g)
        return index, reps

    def quotient(self, N) -> "ObjGroup":
        if not self.is_normal(N):
            raise ValueError("quotient by a non-normal subgroup")
        index, reps = self.coset_index(N)
        return ObjGroup.generate(
            [Perm([index[r * g] for r in reps]) for g in self.gens_list()])


def lambda_subgroups(Q2: ObjGroup, Qstar: ObjGroup) -> list[ObjGroup]:
    """Order-9 elementary abelian subgroups of Q2 other than Q*, by
    closing every pair of elements, each closure stopped past 9
    elements."""
    seen, out = set(), []
    els = table_order(Q2)
    for i, a in enumerate(els):
        for b in els[i + 1:]:
            try:
                s = frozenset(close([a, b], Q2.identity, 9)[0])
            except ClosureCapExceeded:
                continue
            if len(s) == 9 and s not in seen:
                seen.add(s)
                sub = Q2.subgroup(s)
                if sub.is_elementary_abelian(3) and s != Qstar.eset:
                    out.append(sub)
    out.sort(key=lambda g: list(map(g.index, table_order(g))))
    return out

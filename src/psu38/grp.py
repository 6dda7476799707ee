"""Engine for explicitly enumerated finite groups (orders up to a few
thousand): closure, structural subgroups, predicates, quotients,
isomorphism testing, reference constructions, split-extension search.

There are two element types: psu.PElement for the subgroups of
PSU_3(8) x| C6, and Perm for everything else.  A group generated over
plain PElements is one ElementTable, read off the closure that
enumerates it: its elements are interned TableElements (a PElement
subclass with the same keys, equality and order) whose products are
index walks, and the groups generated inside it (every named subgroup of
K1 and K2) hold the same elements; a product across two tables is taken
in one that holds both factors, and raises if none does.  Reference
groups, quotients (the action on cosets), direct products (perms on a
disjoint union of points) and the holomorph are all permutation groups on
at most 108 points.  The engine only needs *, .inv(), hashing, equality
and a total order, so both types go through the same code.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field as dfield
from itertools import combinations, product as iproduct
from math import gcd
from operator import itemgetter

from .gf64 import GF64
from .psu import PElement, pgenerators


class ClosureCapExceeded(RuntimeError):
    """Generated subgroup is larger than the configured cap."""


# ---------------------------------------------------------------------------


_new = object.__new__


class Perm:
    """Permutation of range(n); p*q applies p first, then q."""

    __slots__ = ("im",)

    def __init__(self, im):
        self.im = tuple(im)

    def __mul__(self, other: "Perm") -> "Perm":
        im = self.im
        p = _new(Perm)
        # itemgetter of one index returns a scalar, and of none raises
        p.im = itemgetter(*im)(other.im) if len(im) > 1 else tuple(
            other.im[i] for i in im)
        return p

    def inv(self) -> "Perm":
        r = [0] * len(self.im)
        for i, j in enumerate(self.im):
            r[j] = i
        return Perm(r)

    def __eq__(self, other):
        return isinstance(other, Perm) and self.im == other.im

    def __hash__(self):
        return hash(self.im)

    def __lt__(self, other: "Perm"):
        return self.im < other.im

    def __repr__(self):
        return f"Perm{self.im}"


class TableElement(PElement):
    """One interned element of an ElementTable.  It is a PElement with the
    same el and key, so equality, hashing and order are unchanged; a
    product with an element of its own table walks an index list and
    returns the interned result, and the inverse is one lookup."""

    __slots__ = ("tab", "i", "path")

    def __mul__(self, other):
        tab = self.tab
        if other.__class__ is not TableElement or other.tab is not tab:
            y = tab.index.get(other.key)
            if y is None:
                if other.__class__ is not TableElement or self.key not in other.tab.index:
                    raise ValueError("no table holds both factors of the product")
                return other.tab.index[self.key] * other
            other = y
        i = self.i
        for R in other.path:
            i = R[i]
        return tab.elems[i]

    def inv(self) -> "TableElement":
        tab = self.tab
        return tab.elems[tab.inv[self.i]]


class ElementTable:
    """A finite group given by one _close call (elems, parent, genidx,
    right), as interned TableElements in the same order.

    path[j] lists the right[] rows of the generators along j's tree path,
    so elems[i] * elems[j] is index i carried through path[j].  Inverses
    follow the tree: elems[j]^-1 = g^-1 elems[parent[j]]^-1 with
    g = gens[genidx[j]], and g^-1 is the last index that the walk along
    right[g] from the identity reaches before it returns there.  Every
    entry is an index that the closure found, so no product leaves the
    group.

    A right factor outside the table is looked up in it by key; failing
    that, the left factor is looked up in the right factor's table; a
    product that no one table holds raises ValueError."""

    def __init__(self, elems, parent, genidx, right):
        self.elems: list[TableElement] = []
        self.index: dict[int, TableElement] = {}
        for j, x in enumerate(elems):
            t = TableElement.__new__(TableElement)
            t.el, t.key, t.tab, t.i = x.el, x.key, self, j
            t.path = self.elems[parent[j]].path + (right[genidx[j]],) if j else ()
            self.elems.append(t)
            self.index[t.key] = t
        ginv = {}
        for g, R in right.items():
            k = R[0]
            while R[k]:
                k = R[k]
            ginv[g] = k
        self.inv = inv = [0] * len(elems)
        for j in range(1, len(elems)):
            k = ginv[genidx[j]]
            for R in self.elems[inv[parent[j]]].path:
                k = R[k]
            inv[j] = k


# ---------------------------------------------------------------------------
# small helpers


def _close(gens, identity, cap=None):
    """Subgroup generated by gens as its closure tree (elems, parent,
    genidx) and its right-multiplication table: the elements in discovery
    order, the identity first, with elems[i] = elems[parent[i]] *
    gens[genidx[i]] the product that first reached elems[i] (finite, so
    the product closure contains inverses), and right[gi][i] the index of
    elems[i] * gens[gi] for each kept generator gi.

    A generator already in the span is skipped; a new one g adds the
    coset span.g and then closes the new elements under every kept
    generator.  So the span of each prefix of gens is a prefix of elems,
    and each product elems[i] * g is taken once.  More than cap elements
    raise ClosureCapExceeded."""
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
        # new, since g is not in the span
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


def _greedy(cands, identity):
    """The greedy generating sequence of cands: each candidate outside the
    span of those kept before it.  That is exactly what _close keeps when
    given every candidate in order, so one closure returns the kept
    candidates gens, its tree (elems, parent, genidx, right) with genidx
    and right renumbered to gens, and ends, where elems[:ends[i]] is the
    span of gens[:i]."""
    elems, parent, genidx, right = _close(cands, identity)
    pos = {gi: k for k, gi in enumerate(right)}
    gens = [cands[gi] for gi in right]
    # the coset span.g starts with g = elems[0] * g
    ends = [row[0] for row in right.values()] + [len(elems)]
    genidx = [-1] + [pos[gi] for gi in genidx[1:]]
    return gens, ends, (elems, parent, genidx, dict(enumerate(right.values())))


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


def _pow(x, k, identity):
    r = identity
    b = x
    while k:
        if k & 1:
            r = r * b
        b = b * b
        k >>= 1
    return r


def _pval(n, p):
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


# ---------------------------------------------------------------------------


class SmallGroup:
    """An explicitly enumerated group.

    `elems` is in closure discovery order with elems[0] the identity.
    When built by generate(), `parent`/`genidx` record the closure tree
    of _close (elems[i] = elems[parent[i]] * gens[genidx[i]]), which
    downstream code uses to evaluate vertex actions incrementally.
    """

    def __init__(self, elems, gens, identity, parent=None, genidx=None, name=""):
        self.elems = list(elems)
        self.gens = list(gens)
        self.identity = identity
        self.parent = parent
        self.genidx = genidx
        self.name = name
        self.eset = frozenset(self.elems)
        self._orders: dict = {}
        self._classes: dict | None = None
        self._class_list: list | None = None
        self._sorted: list | None = None
        self._refined: dict | None = None
        self._by_refined: dict | None = None
        # iso_check results with this group second, by the first's eset
        self._iso: dict = {}

    # -- construction -----------------------------------------------------

    @staticmethod
    def generate(gens, cap: int = 2_000_000, name: str = "") -> "SmallGroup":
        """The group gens generate, with its closure tree; over plain
        PElements, as the elements of a new ElementTable."""
        gens = list(gens)
        if not gens:
            raise ValueError("need at least one generator")
        e = gens[0] * gens[0].inv()
        elems, parent, genidx, right = _close(gens, e, cap)
        if type(e) is PElement:
            tab = ElementTable(elems, parent, genidx, right)
            elems, e = tab.elems, tab.elems[0]
            gens = [tab.index[g.key] for g in gens]
        return SmallGroup(elems, gens, e, parent, genidx, name)

    @staticmethod
    def from_set(elements, identity, name: str = "") -> "SmallGroup":
        """Group on an explicit element set that is closed under products:
        the identity first, then the rest in sorted order.  Generators are
        found lazily on first use."""
        els = sorted(set(elements))
        return SmallGroup([identity] + [x for x in els if x != identity], [],
                          identity, name=name)

    def subgroup(self, elements, name: str = "") -> "SmallGroup":
        """Subgroup from an explicit (closed) element subset."""
        return SmallGroup.from_set(elements, self.identity, name)

    # -- basics -----------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.elems)

    def __len__(self):
        return len(self.elems)

    def __contains__(self, x) -> bool:
        return x in self.eset

    def __iter__(self):
        return iter(self.elems)

    def sorted_elems(self) -> list:
        if self._sorted is None:
            self._sorted = sorted(self.elems)
        return self._sorted

    def __le__(self, other: "SmallGroup") -> bool:
        return self.eset <= other.eset

    def element_order(self, x) -> int:
        if not self._orders:
            # keyed by the group's own elements: assigning to a key equal
            # to a stored one keeps the stored key object
            self._orders = dict.fromkeys(self.elems, 0)
        o = self._orders[x]
        if not o:
            # x^k has order o / gcd(o, k): one walk orders all of <x>
            pw = [x]
            while pw[-1] != self.identity:
                pw.append(pw[-1] * x)
            o = len(pw)
            for k, y in enumerate(pw, 1):
                self._orders[y] = o // gcd(o, k)
        return o

    def exponent(self) -> int:
        e = 1
        for x in self.elems:
            o = self.element_order(x)
            e = e * o // gcd(e, o)
        return e

    def gens_list(self) -> list:
        if not self.gens:
            self.gens = self.generating_set()
        return self.gens

    def generating_set(self) -> list:
        """Small deterministic generating set: greedy over elements sorted
        by decreasing order.  The span holds every element, so it is the
        element set exactly when the sizes agree."""
        if len(self.elems) == 1:
            return [self.identity]
        cand = sorted(self.elems, key=lambda x: (-self.element_order(x), x))
        gens, ends, _ = _greedy(cand, self.identity)
        if ends[-1] != len(self.elems):
            raise AssertionError("element set is not closed under multiplication")
        return gens

    # -- predicates ---------------------------------------------------

    def is_abelian(self) -> bool:
        gens = self.gens_list()
        return all(a * b == b * a for a in gens for b in gens)

    def is_elementary_abelian(self, p: int) -> bool:
        return self.is_abelian() and all(
            self.element_order(x) in (1, p) for x in self.elems
        )

    def is_cyclic(self) -> bool:
        return any(self.element_order(x) == len(self.elems) for x in self.elems)

    def is_p_group(self, p: int) -> bool:
        n = len(self.elems)
        while n % p == 0:
            n //= p
        return n == 1

    def is_special(self, p: int) -> bool:
        """Z(G) = G' = Phi(G) for a p-group."""
        if not self.is_p_group(p):
            return False
        z = self.center()
        d = self.derived()
        f = self.frattini_p(p)
        return z.eset == d.eset == f.eset

    def is_extraspecial(self, p: int) -> bool:
        return self.is_special(p) and len(self.center()) == p

    def structure_predicates(self, p: int = 3) -> dict:
        return {
            "order": len(self.elems),
            "exponent": self.exponent(),
            "is_cyclic": self.is_cyclic(),
            "is_abelian": self.is_abelian(),
            "is_elementary_abelian": self.is_elementary_abelian(p),
            "is_special": self.is_special(p),
        }

    # -- structural subgroups -------------------------------------------

    def center(self) -> "SmallGroup":
        z = self.centralizer(self.gens_list())
        z.name = f"Z({self.name})" if self.name else ""
        return z

    def centralizer(self, xs) -> "SmallGroup":
        xs = list(xs)
        c = [g for g in self.elems if all(g * x == x * g for x in xs)]
        return self.subgroup(c)

    def normalizer(self, H: "SmallGroup") -> "SmallGroup":
        hgens = H.gens_list()
        out = []
        for g in self.elems:
            gi = g.inv()
            if all((gi * h * g) in H.eset for h in hgens):
                out.append(g)
        return self.subgroup(out)

    def is_normal(self, H: "SmallGroup") -> bool:
        hgens = H.gens_list()
        for g in self.gens_list():
            gi = g.inv()
            if not all((gi * h * g) in H.eset for h in hgens):
                return False
        return True

    def normal_closure(self, xs) -> "SmallGroup":
        orbit = _conj_orbit(xs, self.gens_list())
        return self.subgroup(_close(sorted(orbit), self.identity)[0])

    def derived(self) -> "SmallGroup":
        gens = self.gens_list()
        comms = {a.inv() * b.inv() * a * b for a in self.elems for b in gens}
        return self.normal_closure(comms)

    def frattini_p(self, p: int) -> "SmallGroup":
        """Phi(G) = G' <g^p> for a p-group."""
        if not self.is_p_group(p):
            raise ValueError("frattini_p is only used on p-groups here")
        d = self.derived()
        pw = {_pow(x, p, self.identity) for x in self.elems}
        return self.subgroup(_close(sorted(d.eset | pw), self.identity)[0])

    def commutator_subgroup(self, X: "SmallGroup", Y: "SmallGroup") -> "SmallGroup":
        """[X, Y] for subgroups X, Y of self (commutators over all pairs,
        then product closure; the pair set is conjugation-closed enough
        because both conventions' commutators are mutually inverse)."""
        comms = {x.inv() * y.inv() * x * y for x in X.elems for y in Y.elems}
        return self.subgroup(_close(sorted(comms), self.identity)[0])

    def intersect(self, other: "SmallGroup") -> "SmallGroup":
        return self.subgroup(self.eset & other.eset)

    def conjugate(self, g, name: str = "") -> "SmallGroup":
        gi = g.inv()
        c = SmallGroup.from_set([gi * h * g for h in self.elems], self.identity, name)
        c.gens = [gi * h * g for h in self.gens]
        return c

    # -- Sylow machinery --------------------------------------------------

    def sylow(self, p: int) -> "SmallGroup":
        """One Sylow p-subgroup, grown greedily inside successive
        normalizers; deterministic because candidates are scanned in
        sorted order.  An x of p-power order outside P that normalizes P
        makes P<x> a p-group larger than P.  Orders in G divide |G|, so a
        p-power is an order (or a subgroup's size) that divides target.
        Since x normalizes P, P<x> is the union of the cosets P.x^i, built
        from P's own elements until x^i falls in P."""
        target = p ** _pval(len(self.elems), p)
        P = self.subgroup([self.identity])
        while len(P) < target:
            N = self.normalizer(P) if len(P) > 1 else self
            x = next((x for x in N.sorted_elems()
                      if x not in P.eset and target % self.element_order(x) == 0), None)
            if x is None:
                raise AssertionError("sylow growth stalled")
            els, xi = list(P.elems), x
            while xi not in P.eset:
                els += [h * xi for h in P.elems]
                xi = xi * x
            P = self.subgroup(els)
            if target % len(P):
                raise AssertionError("P<x> is not a p-group")
        return P

    def p_core(self, p: int) -> "SmallGroup":
        """O_p(G): the normal core of one Sylow p-subgroup."""
        if len(self.elems) % p != 0:
            return self.subgroup([self.identity])
        return self.core(self.sylow(p))

    def core(self, H: "SmallGroup") -> "SmallGroup":
        """Normal core of H in G: the intersection of all G-conjugates of
        H, walked along their orbit until it is trivial."""
        core = set(H.eset)
        for T in _conj_orbit([H.eset], self.gens_list(), on_sets=True):
            core &= T
            if len(core) == 1:
                break
        return self.subgroup(core)

    # -- conjugacy classes ----------------------------------------------

    def conj_classes(self) -> list[frozenset]:
        if self._class_list is None:
            # class number by the group's own elements, which stay the keys
            # (as in element_order), so the classes hold no conjugates
            which = dict.fromkeys(self.elems, -1)
            classes: list = []
            for g in self.sorted_elems():
                if which[g] < 0:
                    for y in _conj_orbit([g], self.gens_list()):
                        which[y] = len(classes)
                    classes.append([])
            for x, i in which.items():
                classes[i].append(x)
            self._class_list = [frozenset(c) for c in classes]
        return self._class_list

    def conj_class_invariants(self) -> dict:
        """Map element -> (order, class size); cached."""
        if self._classes is None:
            cls = {}
            for c in self.conj_classes():
                # conjugates have one order: one label tuple per class
                label = (self.element_order(next(iter(c))), len(c))
                for x in c:
                    cls[x] = label
            self._classes = cls
        return self._classes

    # -- quotient ---------------------------------------------------------

    def _coset_index(self, N: "SmallGroup") -> tuple[dict, list]:
        """(g -> coset number, least element of each coset) for a normal
        N: coset 0 is N, the others are numbered by their least element."""
        index: dict = {}
        reps = []
        for g in [self.identity] + self.sorted_elems():
            if g not in index:
                for n in N.elems:
                    index[g * n] = len(reps)
                reps.append(g)
        return index, reps

    def quotient(self, N: "SmallGroup") -> "SmallGroup":
        """G/N as the permutation group that G induces by right
        multiplication on the cosets of N (regular, so faithful on G/N)."""
        if not self.is_normal(N):
            raise ValueError("quotient by a non-normal subgroup")
        index, reps = self._coset_index(N)
        perms = [Perm([index[r * g] for r in reps]) for g in self.gens_list()]
        q = SmallGroup.generate(
            perms, name=f"{self.name}/{N.name}" if self.name and N.name else "")
        assert len(q) * len(N) == len(self.elems)
        return q


def direct_product(*groups: SmallGroup) -> SmallGroup:
    """Permutation groups acting side by side on a disjoint union of
    their points."""
    degrees = [len(G.identity.im) for G in groups]
    gens = []
    for i, G in enumerate(groups):
        lo = sum(degrees[:i])
        for x in G.gens_list():
            im = list(range(sum(degrees)))
            im[lo:lo + degrees[i]] = [lo + j for j in x.im]
            gens.append(Perm(im))
    return SmallGroup.generate(gens)


# ---------------------------------------------------------------------------
# isomorphism testing


def _refined_invariants(G: SmallGroup) -> dict:
    """Per-element invariant labels: conjugacy class data sharpened by the
    labels of small powers, iterated to a fixed point.  Isomorphisms
    preserve these labels, so they are safe candidate filters.  Cached;
    the rounds run on lists by element index."""
    if G._refined is not None:
        return G._refined
    cls = G.conj_class_invariants()
    index = {g: i for i, g in enumerate(G.elems)}
    sq, cu = [], []
    for g in G.elems:
        g2 = g * g
        sq.append(index[g2])
        cu.append(index[g2 * g])
    lab = first = [cls[g] for g in G.elems]
    for _ in range(3):
        nxt = [(a, lab[i], lab[k]) for a, i, k in zip(lab, sq, cu)]
        # compress labels to keep tuples small
        labels = {v: i for i, v in enumerate(sorted(set(nxt)))}
        new = [labels[v] for v in nxt]
        if len(set(new)) == len(set(lab)):
            break
        # keep the original pair visible in the label for readability of
        # candidate filtering
        lab = [(a[0] if isinstance(a, tuple) else a, b) for a, b in zip(lab, new)]
        # one tuple per distinct label, as the labels stay cached on G
        distinct: dict = {}
        lab = [distinct.setdefault(t, t) for t in lab]
    G._refined = cls if lab is first else dict(zip(G.elems, lab))
    return G._refined


def _by_refined(G: SmallGroup) -> dict:
    """Refined invariant label -> the elements with it, in sorted order.
    Cached."""
    if G._by_refined is None:
        inv = _refined_invariants(G)
        by: dict = {}
        for h in G.sorted_elems():
            by.setdefault(inv[h], []).append(h)
        G._by_refined = by
    return G._by_refined


def iso_check(G1: SmallGroup, G2: SmallGroup) -> bool:
    """Backtracking isomorphism test, sound and complete at these orders.

    Candidate generator images are filtered by refined class invariants;
    partial maps are extended subgroup-by-subgroup so an inconsistent
    choice dies at the scale of the subgroup generated so far rather
    than of the whole group.

    The search reads G1 only through its element set, so what it finds
    (None, or G1's generating sequence and the images of its generators
    in G2) is kept on G2 under G1.eset: a later call with the same set and
    G2 (the same reference group, asked again by another claim) reuses
    it, and the memo goes when G2 does.
    """
    memo = G2._iso
    if G1.eset not in memo:
        memo[G1.eset] = _iso_search(G1, G2)
    return memo[G1.eset] is not None


def _iso_search(G1: SmallGroup, G2: SmallGroup):
    """None if G1 and G2 are not isomorphic, else a generating sequence of
    G1 and the images of an isomorphism onto G2."""
    if len(G1) != len(G2):
        return None
    if len(G1) == 1:
        return [], []
    inv1 = _refined_invariants(G1)
    inv2 = _refined_invariants(G2)
    if Counter(inv1.values()) != Counter(inv2.values()):
        return None
    by_inv2 = _by_refined(G2)

    # greedy generating sequence of G1, preferring elements with the
    # fewest candidate images (ties broken canonically: the sort is
    # stable), with G1's closure tree over it.  Every label of G1 is one
    # of G2's, as the label counts agree.
    gens1, ends, (_, parent, genidx, right) = _greedy(
        sorted(G1.sorted_elems(), key=lambda g: len(by_inv2[inv1[g]])), G1.identity)

    def candidates(i, imgs, cent):
        """Images for gens1[i], one per orbit of cent (the centralizer of
        imgs) in by_inv2 order, that pass the pairwise product invariants,
        each with its centralizer in cent.  Lazy: an orbit is conjugated
        only when the search reaches it."""
        g = gens1[i]
        seen: set = set()
        cpairs = [(c.inv(), c) for c in cent]
        for h in by_inv2[inv1[g]]:
            if h in seen:
                continue
            # h's conjugates under cent: its orbit, and where they equal h,
            # the centralizer of h in cent
            conj = [ci * h * c for ci, c in cpairs]
            seen.update(conj)
            if all(inv1[gj * g] == inv2[hj * h] and inv1[g * gj] == inv2[h * hj]
                   for gj, hj in zip(gens1, imgs)):
                yield h, [c for c, y in zip(cent, conj) if y == h]

    # Depth-first search over candidate image tuples, each depth's
    # candidates generated only as the search reaches them.  Composing a
    # candidate isomorphism with an inner automorphism of G2 is free, so
    # the first image ranges over one representative per conjugacy class,
    # and deeper candidates are reduced to orbit representatives under the
    # centralizer of the images already placed.  A candidate h for
    # gens1[i] maps the new part of the prefix along the tree, then must
    # be injective and keep f(x g_j) = f(x) h_j for the new x and j <= i.
    # The old x with j = i are tree edges, and earlier depths checked the
    # rest, so at the last depth every pair holds: that is the whole
    # homomorphism test.
    stack = [([G2.identity], [], candidates(0, [], G2.elems))]
    while stack:
        img, imgs, cands = stack[-1]
        found = next(cands, None)
        if found is None:
            stack.pop()
            continue
        h, cent = found
        i = len(imgs)
        lo, hi = ends[i], ends[i + 1]
        hs = imgs + [h]
        m = img + [None] * (hi - lo)
        for t in range(lo, hi):
            m[t] = m[parent[t]] * hs[genidx[t]]
        if len(set(m)) == hi and all(m[right[j][x]] == m[x] * hs[j]
                                     for x in range(lo, hi) for j in range(i + 1)):
            if i + 1 == len(gens1):
                return gens1, hs
            stack.append((m, hs, candidates(i + 1, hs, cent)))
    return None


# ---------------------------------------------------------------------------
# split extension search


def is_split_extension(G: SmallGroup, N: SmallGroup) -> SmallGroup | None:
    """A complement of N in G, C <= G with C n N = 1 and CN = G, the first
    one the search generates; None if N has none.

    Exhaustive over tuples of lifts of a generating set of G/N.
    Complete: a complement C maps isomorphically onto G/N, so the
    preimages in C of the chosen quotient generators form one of the
    enumerated tuples; the lift of a quotient element q may be
    restricted to lifts of order exactly ord(q) because C meets N
    trivially.
    """
    Q = G.quotient(N)
    if len(Q) == 1:
        return G.subgroup([G.identity])
    index, _ = G._coset_index(N)
    qgens = Q.generating_set()
    lifts = []
    for q in qgens:
        # q maps coset 0 = N to the coset it stands for
        o = Q.element_order(q)
        cand = [g for g in G.sorted_elems()
                if index[g] == q.im[0] and G.element_order(g) == o]
        if not cand:
            return None
        lifts.append(cand)
    target = len(Q)
    for tup in iproduct(*lifts):
        try:
            C = SmallGroup.generate(list(tup), cap=target)
        except ClosureCapExceeded:
            continue
        if len(C) == target and len(C.eset & N.eset) == 1:
            return G.subgroup(C.eset)
    return None


# ---------------------------------------------------------------------------
# reference groups


def sym_group(n: int) -> SmallGroup:
    cyc = Perm(tuple(list(range(1, n)) + [0]))
    tr = Perm(tuple([1, 0] + list(range(2, n))))
    return SmallGroup.generate([cyc, tr], name=f"Sym({n})")


def cyclic_group(n: int) -> SmallGroup:
    return SmallGroup.generate([Perm(tuple(list(range(1, n)) + [0]))], name=f"C{n}")


def dihedral_18() -> SmallGroup:
    r = Perm(tuple(list(range(1, 9)) + [0]))
    s = Perm(tuple((-i) % 9 for i in range(9)))
    return SmallGroup.generate([r, s], name="Dih(18)")


def agl1_group() -> SmallGroup:
    """AGL_1(3): affine maps x -> ax + b on GF(3), as perms of 3 points."""
    els = [Perm((a * x + b) % 3 for x in range(3)) for a in (1, 2) for b in range(3)]
    g = SmallGroup.from_set(els, Perm((0, 1, 2)), name="AGL1(3)")
    assert len(g) == 6
    return g


def _affine_perm(a, b, c, d, e, f, idx, pts) -> Perm:
    im = []
    for (x, y) in pts:
        im.append(idx[((a * x + b * y + e) % 3, (c * x + d * y + f) % 3)])
    return Perm(im)


@dataclass
class AffineRefs:
    """AGL_2(3) on the 9 affine points, with the distinguished Sylow-3
    subgroup S, V = O_3(AGL_2(3)), V0 = C_V(S) = Z(S), the normalizer
    AGL_2(3,S) and its two index-2 subgroups picked out by their action
    on V0 and V/V0."""

    agl: SmallGroup
    gl: SmallGroup
    syl3: SmallGroup
    v: SmallGroup
    v0: SmallGroup
    agl_s: SmallGroup
    sharp: SmallGroup
    star: SmallGroup


def affine_refs() -> AffineRefs:
    pts = [(x, y) for y in range(3) for x in range(3)]
    idx = {p: i for i, p in enumerate(pts)}
    els = []
    gl_els = []
    for a, b, c, d in iproduct(range(3), repeat=4):
        if (a * d - b * c) % 3 == 0:
            continue
        gl_els.append(_affine_perm(a, b, c, d, 0, 0, idx, pts))
        for e, f in iproduct(range(3), repeat=2):
            els.append(_affine_perm(a, b, c, d, e, f, idx, pts))
    ident = Perm(range(9))
    agl = SmallGroup.from_set(els, ident, name="AGL2(3)")
    assert len(agl) == 432
    gl = agl.subgroup(gl_els, name="GL2(3)")
    assert len(gl) == 48

    t1 = _affine_perm(1, 0, 0, 1, 1, 0, idx, pts)
    t2 = _affine_perm(1, 0, 0, 1, 0, 1, idx, pts)
    v = agl.subgroup(_close([t1, t2], ident)[0], name="V")
    u = _affine_perm(1, 1, 0, 1, 0, 0, idx, pts)
    syl3 = agl.subgroup(_close([t1, t2, u], ident)[0], name="S")
    assert len(v) == 9 and len(syl3) == 27

    v0 = v.subgroup(
        [x for x in v.elems if all(x * s == s * x for s in syl3.elems)], name="V0"
    )
    assert v0.eset == syl3.center().eset and len(v0) == 3

    agl_s = agl.normalizer(syl3)
    agl_s.name = "AGL2(3,S)"
    assert len(agl_s) == 108

    sharp, star = _index2_variants(agl_s, syl3, v, v0)
    return AffineRefs(agl, gl, syl3, v, v0, agl_s, sharp, star)


def _index2_variants(agl_s, syl3, v, v0):
    """The unique subgroups # and * of index 2 in AGL_2(3,S): both factor
    as C_X(V0) C_X(V/V0); # centralizes V/V0 exactly on S and induces
    GL_1(3) on V0's side, * the other way around."""
    der = agl_s.derived()
    q = agl_s.quotient(der)
    index, _ = agl_s._coset_index(der)
    assert q.is_abelian()
    half = len(q) // 2
    cand_sets = set()
    for r in range(1, len(q)):
        for comb in combinations(q.sorted_elems(), r):
            s = frozenset(_close(list(comb), q.identity)[0])
            if len(s) == half:
                cand_sets.add(s)
    sharp = star = None
    # a quotient element x stands for the coset x.im[0]
    for s in sorted(cand_sets, key=lambda fs: sorted(x.im[0] for x in fs)):
        cosets = {x.im[0] for x in s}
        X = agl_s.subgroup([g for g in agl_s.elems if index[g] in cosets])
        if len(X) != half * len(der) or not syl3.eset <= X.eset:
            continue
        c_v0 = X.centralizer(v0.elems)
        c_vq = X.subgroup(
            [x for x in X.elems
             if all((x.inv() * t * x) * t.inv() in v0.eset for t in v.elems)]
        )
        prod = {a * b for a in c_v0.elems for b in c_vq.elems}
        if prod != set(X.eset):
            continue
        if c_vq.eset == syl3.eset and len(c_v0) == 2 * len(syl3):
            assert sharp is None, "sharp subgroup not unique"
            sharp = X
        elif c_v0.eset == syl3.eset and len(c_vq) == 2 * len(syl3):
            assert star is None, "star subgroup not unique"
            star = X
    assert sharp is not None and star is not None and sharp.eset != star.eset
    sharp.name = "AGL2(3,S)#"
    star.name = "AGL2(3,S)*"
    return sharp, star


def sp2_group() -> SmallGroup:
    """The extraspecial group of order 27 and exponent 9, as the affine
    maps x -> 4^j x + i of Z9, generated by x + 1 and 4x."""
    g = SmallGroup.generate([Perm((x + 1) % 9 for x in range(9)),
                             Perm(4 * x % 9 for x in range(9))], name="SP2")
    assert len(g) == 27 and g.exponent() == 9 and g.is_extraspecial(3)
    return g


def pgl23_group(gl: SmallGroup) -> SmallGroup:
    z = gl.center()
    assert len(z) == 2
    q = gl.quotient(z)
    q.name = "PGL2(3)"
    return q


def reference_groups() -> dict[str, SmallGroup]:
    """All reference groups used by the structure and shape checks, with
    construction self-checks baked in."""
    aff = affine_refs()
    sym3 = sym_group(3)
    sym4 = sym_group(4)
    c2 = cyclic_group(2)
    c3 = cyclic_group(3)
    c9 = cyclic_group(9)
    c3xc3 = direct_product(c3, c3)
    dih18 = dihedral_18()
    refs = {
        "Sym3": sym3,
        "Sym4": sym4,
        "AGL13": agl1_group(),
        "GL23": aff.gl,
        "PGL23": pgl23_group(aff.gl),
        "AGL23": aff.agl,
        "AGL23S": aff.agl_s,
        "AGL23S_sharp": aff.sharp,
        "AGL23S_star": aff.star,
        "V": aff.v,
        "V0": aff.v0,
        "S_syl3": aff.syl3,
        "C2": c2,
        "C3": c3,
        "C9": c9,
        "C3xC3": c3xc3,
        "E9": c3xc3,
        "E27": direct_product(c3, c3, c3),
        "SP2": sp2_group(),
        "Dih18": dih18,
        "Dih18xC2": direct_product(dih18, c2),
        "Sym3xC2": direct_product(sym3, c2),
        "C2xAGL13": direct_product(c2, agl1_group()),
        "C3xAGL23": direct_product(c3, aff.agl),
        "C3xAGL23S": direct_product(c3, aff.agl_s),
        "C3xAGL23S_sharp": direct_product(c3, aff.sharp),
    }
    expected = {
        "Sym3": 6, "Sym4": 24, "AGL13": 6, "GL23": 48, "PGL23": 24,
        "AGL23": 432, "AGL23S": 108, "AGL23S_sharp": 54, "AGL23S_star": 54,
        "V": 9, "V0": 3, "S_syl3": 27, "C9": 9, "C3xC3": 9, "E27": 27,
        "SP2": 27, "Dih18": 18, "Dih18xC2": 36, "Sym3xC2": 12,
        "C2xAGL13": 12, "C3xAGL23": 1296, "C3xAGL23S": 324,
        "C3xAGL23S_sharp": 162,
    }
    for k, n in expected.items():
        assert len(refs[k]) == n, (k, len(refs[k]), n)
    return refs


# ---------------------------------------------------------------------------
# the named subgroups of the construction


@dataclass
class NamedGroups:
    """The concrete projective unitary subgroups the whole build rests on."""

    field: GF64
    p: dict[str, PElement]
    Q1: SmallGroup
    Q2: SmallGroup
    Qstar: SmallGroup
    S: SmallGroup
    H1: SmallGroup
    H2: SmallGroup
    Qh1: SmallGroup
    Qh2: SmallGroup
    K1: SmallGroup
    K2: SmallGroup
    H12: SmallGroup
    K12: SmallGroup
    Lambda: list[SmallGroup] = dfield(default_factory=list)

    def h_part(self, G: SmallGroup, name: str = "") -> SmallGroup:
        """Intersection with H = PSU_3(8) . <sigma^3>: twist in {0, 3}."""
        return G.subgroup([x for x in G.elems if x.twist in (0, 3)], name=name)

    def interned(self, keys) -> list:
        """The elements of these packed keys from the table of the first of
        K1, K2 that holds them all; raises ValueError if neither does."""
        for K in (self.K1, self.K2):
            index = K.identity.tab.index
            try:
                return [index[int(k)] for k in keys]
            except KeyError:
                pass
        raise ValueError("the keys do not all lie in K1 or in K2")


def named_groups(field: GF64) -> NamedGroups:
    """K1 and K2 generated over the plain generators, so each is one
    ElementTable; every other named group is generated over the table
    elements of its ambient group, with the same generators in the same
    order as a PElement closure would take."""
    p = pgenerators(field)
    A, B, C, D, E, F = p["A"], p["B"], p["C"], p["D"], p["E"], p["F"]
    s2, s3 = p["sigma2"], p["sigma3"]
    K1 = SmallGroup.generate([A, B, C, D, s3, s2], name="K1")
    K2 = SmallGroup.generate([A, B, C, E, F, s3, s2], name="K2")

    def gen(K, xs, name):
        index = K.identity.tab.index
        return SmallGroup.generate([index[x.key] for x in xs], name=name)

    Q1 = gen(K1, [A, B], "Q1")
    Q2 = gen(K1, [A, B, C], "Q2")
    Qstar = gen(K1, [B, C], "Q*")
    S = gen(K2, [E, F, s3], "S")
    H1 = gen(K1, [A, B, C, D, s3], "H1")
    H2 = gen(K2, [A, B, C, E, F, s3], "H2")
    Qh1 = gen(K1, [A, B, s2], "Qh1")
    Qh2 = gen(K2, [A, B, C, s2], "Qh2")
    H12 = H1.intersect(H2)
    H12.name = "H12"
    K12 = K1.intersect(K2)
    K12.name = "K12"
    ng = NamedGroups(field, p, Q1, Q2, Qstar, S, H1, H2, Qh1, Qh2, K1, K2, H12, K12)
    ng.Lambda = _lambda_subgroups(Q2, Qstar)
    return ng


def _lambda_subgroups(Q2: SmallGroup, Qstar: SmallGroup) -> list[SmallGroup]:
    """Order-9 elementary abelian subgroups of Q2 other than Q*."""
    seen = set()
    out = []
    els = Q2.sorted_elems()
    for i, a in enumerate(els):
        for b in els[i + 1:]:
            s = frozenset(_close([a, b], Q2.identity)[0])
            if len(s) != 9 or s in seen:
                continue
            seen.add(s)
            sub = Q2.subgroup(s)
            if sub.is_elementary_abelian(3) and s != Qstar.eset:
                out.append(sub)
    out.sort(key=lambda g: [x.key for x in g.sorted_elems()])
    return out

"""Engine for explicitly enumerated finite groups (orders up to a few
thousand): closure, structural subgroups, predicates, quotients,
isomorphism testing, reference constructions, split-extension search.

Every group lives in one ambient Table, read off the _close call that
enumerated the ambient group on values (a PElement's packed key, a
permutation's image tuple): its elements in discovery order, one
right-multiplication row per generator, the inverse of each element, and
lazily, one conjugation row per generator.  An element is an index into
its table: a product x*y carries x along the rows of y's closure-tree
path, and a conjugation by y carries x along the generators' conjugation
rows on that path.  A SmallGroup is its table and the indices of its
elements (as a list in element order and as a frozenset), so every
engine operation (closures, orders, conjugacy orbits, centralizers,
normalizers, cores, Sylow subgroups, cosets and the isomorphism search)
walks lists of ints.

There is one element order: ascending table index.  Every scan that
makes a choice (a Sylow subgroup's growth, a greedy generating set, coset
representatives, complement lifts, isomorphism candidates) walks the
indices in that order.  Discovery order is fixed by the generators' words
alone, so every choice is the same word in the named generators under
every GF(64) modulus, though the packed keys that write it down differ.

Every table is closed from generators (SmallGroup.generate), and every
subgroup of a table is generated on it (SmallGroup.generated) or cut from
it by indices (_sub).  There are two kinds of table, and no element class
of their own.  K1 and K2 are tables of plain PElements, closed on their
packed keys, so a product of two elements of any of their subgroups is
index arithmetic in one table.  Reference groups, quotients (the action
on right cosets, _coset_index), direct products (permutations of a
disjoint union of points), the holomorph and induced actions are tables
of permutations of at most 108 points, each element its image tuple:
(p[0], p[1], ...), where p*q applies p first, then q.  Element objects
appear only at the boundary: elems, eset, gens_list(), the elements that
generate(), subgroup() and the other public methods take, and `in`, where
an element is looked up by its key.  Two groups in different tables are
compared through their elements' keys (PElement keys, image tuples).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field as dfield
from itertools import combinations, product as iproduct
from math import gcd

from .fastops import bunpack
from .gf64 import GF64
from .obligations import obligation
from .psu import IDENTITY, PElement, pgenerators


class ClosureCapExceeded(RuntimeError):
    """A closure reached its cap of elements."""


# the most elements a new table may hold (_new_table)
CLOSURE_CAP = 2_000_000


# ---------------------------------------------------------------------------


class Table:
    """An ambient group as index lists, from one _close call: its elements
    (plain PElements or image tuples, in discovery order), parent, genidx
    and right.  In a tuple table, keys and elems are one list.

    path[j] lists the right[] rows of the generators along j's tree path,
    so index i times index j is i carried through path[j].  Inverses follow
    the tree: elems[j]^-1 = g^-1 elems[parent[j]]^-1 with g = gens[genidx[j]],
    and g^-1 is the last index that the walk along right[g] from the
    identity reaches before it returns there.  The conjugation row of
    a generator g, x -> g^-1 x g, is inv[R[inv[R[x]]]] with R = right[g].
    An element is applied one way (right_of, conj_of): a generator by a
    lookup in its row, any other element by a walk along its path, one
    generator's row at a time."""

    def __init__(self, elems, parent, genidx, right):
        n = self.n = len(elems)
        self.parent, self.genidx = parent, genidx
        self.rows = list(right.values())
        path = self.path = [()] * n
        for j in range(1, n):
            path[j] = path[parent[j]] + (right[genidx[j]],)
        self.elems = elems
        self.keys = [x.key for x in elems] if isinstance(elems[0], PElement) else elems
        self.pos = {k: j for j, k in enumerate(self.keys)}
        ginv = {}
        for g, R in right.items():
            k = R[0]
            while R[k]:
                k = R[k]
            ginv[g] = k
        self.inv = inv = [0] * n
        for j in range(1, n):
            k = ginv[genidx[j]]
            for R in path[inv[parent[j]]]:
                k = R[k]
            inv[j] = k
        self.orders = [0] * n
        self._crows: dict | None = None

    # -- indices and elements ---------------------------------------------

    def find(self, x) -> int | None:
        """The index of the element x, or None if the table lacks it: found
        by what identifies x across tables, a PElement's key or an image
        tuple itself."""
        return self.pos.get(x.key if isinstance(x, PElement) else x)

    def at(self, x) -> int:
        j = self.find(x)
        if j is None:
            raise ValueError("the element is not in this table")
        return j

    # -- arithmetic on indices --------------------------------------------

    def mul(self, i: int, j: int) -> int:
        for R in self.path[j]:
            i = R[i]
        return i

    def conj(self, x: int, g: int) -> int:
        """g^-1 x g: x carried along the conjugation rows of g's path."""
        rows = self.conj_rows
        for R in self.path[g]:
            x = rows[R[0]][x]
        return x

    def by(self, h: int):
        """_close's by on this table's indices: a list of x to the list of
        the x*h."""
        f = self.right_of(h)
        return lambda xs: list(map(f, xs))

    def right_of(self, h: int):
        """x -> x*h as a function of x: a lookup in the right row of a
        generator, else a walk along the rows of h's path."""
        return _walk(self.path[h])

    def conj_of(self, g: int):
        """x -> g^-1 x g as a function of x: a lookup in the conjugation
        row of a generator, else a walk along the conjugation rows of the
        generators on g's path (g = g1 g2 ... conjugates by g1, then by
        g2, ...)."""
        rows = self.conj_rows
        return _walk([rows[R[0]] for R in self.path[g]])

    @property
    def conj_rows(self) -> dict:
        """Generator index -> its conjugation row, built on first use (a
        generator's right row R starts with its index, R[0])."""
        if self._crows is None:
            inv = self.inv
            self._crows = {R[0]: [inv[R[inv[R[x]]]] for x in range(self.n)]
                           for R in self.rows}
        return self._crows

    def order(self, x: int) -> int:
        """The order of element x; x^k has order o / gcd(o, k), so one
        walk orders all of <x>."""
        o = self.orders[x]
        if not o:
            f = self.right_of(x)
            pw = [x]
            while pw[-1]:
                pw.append(f(pw[-1]))
            o = len(pw)
            for k, y in enumerate(pw, 1):
                self.orders[y] = o // gcd(o, k)
        return o

    def pow(self, x: int, k: int) -> int:
        r, f = 0, self.right_of(x)
        for _ in range(k):
            r = f(r)
        return r


# ---------------------------------------------------------------------------
# small helpers


def _close(gens, identity, cap, by):
    """Subgroup generated by gens as its closure tree (elems, parent,
    genidx) and its right-multiplication table: the elements in discovery
    order, the identity first, with elems[i] = elems[parent[i]] *
    gens[genidx[i]] the product that first reached elems[i] (finite, so
    the product closure contains inverses), and right[gi][i] the index of
    elems[i] * gens[gi] for each kept generator gi.

    by(g) maps a list of x to the list of the x*g: on the values that build
    a Table, packed PElement keys by one bsmul and bpkeys (_key_products)
    and image tuples by _compose, and on the indices of one table by
    Table.by.

    A generator already in the span is skipped; a new one g adds the
    coset span.g and then closes the new elements under every kept
    generator, one layer at a time: each kept generator maps the whole
    layer, and the products are taken up in (parent index, generator)
    order.  So the span of each prefix of gens is a prefix of elems, and
    each product elems[i] * g is taken once.  More than cap elements raise
    ClosureCapExceeded."""
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
        lo = len(elems)
        f = by(g)
        # new, since g is not in the span
        right[gi] = [add(y, pi, gi) for pi, y in enumerate(f(elems[:lo]))]
        kept.append((gi, f, right[gi]))
        while lo < len(elems):
            layer = elems[lo:]
            for pi, ys in enumerate(zip(*[h(layer) for _, h, _ in kept]), lo):
                for (hi, _, row), y in zip(kept, ys):
                    j = index.get(y)
                    row.append(add(y, pi, hi) if j is None else j)
            lo += len(layer)
    return elems, parent, genidx, right


def _greedy(cands, identity, by):
    """The greedy generating sequence of cands: each candidate outside the
    span of those kept before it.  That is exactly what _close keeps when
    given every candidate in order, so one closure returns the kept
    candidates gens, its tree (elems, parent, genidx, right) with genidx
    and right renumbered to gens, and ends, where elems[:ends[i]] is the
    span of gens[:i]."""
    elems, parent, genidx, right = _close(cands, identity, None, by)
    pos = {gi: k for k, gi in enumerate(right)}
    gens = [cands[gi] for gi in right]
    # the coset span.g starts with g = elems[0] * g
    ends = [row[0] for row in right.values()] + [len(elems)]
    genidx = [-1] + [pos[gi] for gi in genidx[1:]]
    return gens, ends, (elems, parent, genidx, dict(enumerate(right.values())))


def _walk(rows):
    """x carried through the rows in turn, as a function of x: a lookup
    for one row."""
    if len(rows) == 1:
        return rows[0].__getitem__

    def walk(x):
        for R in rows:
            x = R[x]
        return x
    return walk


def _pval(n, p):
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _orbit(seeds, fs):
    """The orbit of the seed points under the functions fs (each one a
    permutation of the points), in discovery order."""
    orbit = list(dict.fromkeys(seeds))
    seen = set(orbit)
    for x in orbit:  # grows while it is walked
        for f in fs:
            y = f(x)
            if y not in seen:
                seen.add(y)
                orbit.append(y)
    return orbit


def _compose(g: tuple):
    """Right multiplication by the permutation g, on a list of image
    tuples."""
    at = g.__getitem__
    return lambda xs: [tuple(map(at, x)) for x in xs]


def _key_products(ops, g: int):
    """Right multiplication by the PElement with key g, on a list of
    PElement keys: one bsmul and one bpkeys for the list."""
    gm, gt = bunpack([g])
    return lambda xs: ops.bpkeys(*ops.bsmul(*bunpack(xs), gm, gt)).tolist()


def _new_table(gens) -> Table:
    """The table of the group that the plain PElements or image tuples
    gens generate, closed on ints and tuples: a PElement's packed key, a
    permutation's images.  More than CLOSURE_CAP elements raise
    ClosureCapExceeded."""
    if isinstance(gens[0], tuple):
        return Table(*_close(gens, tuple(range(len(gens[0]))), CLOSURE_CAP, _compose))
    ops = gens[0].ops
    keys, parent, genidx, right = _close([g.key for g in gens], IDENTITY, CLOSURE_CAP,
                                         lambda g: _key_products(ops, g))
    return Table([PElement(ops, k) for k in keys], parent, genidx, right)


# ---------------------------------------------------------------------------


class SmallGroup:
    """An explicitly enumerated group: its table, its indices in that
    Table and, when it was generated, its closure tree.

    idx lists the indices in element order, the identity (index 0) first:
    closure discovery order when built by generate() or generated(), else
    ascending (table order, as _sub cuts it).  When built by either,
    `parent` and `genidx` record the closure tree of _close (elems[i] =
    elems[parent[i]] * gens_list()[genidx[i]]), which downstream code uses
    to evaluate vertex actions incrementally.  Caches (orders, classes,
    invariants) are keyed by indices.
    """

    def __init__(self, tab: Table, idx, gens=(), parent=None, genidx=None):
        self.tab = tab
        self.idx = idx if type(idx) is list else list(idx)
        self._iset: frozenset | None = None
        self._gens = list(gens)
        self.parent = parent
        self.genidx = genidx
        self._elems: list | None = None
        self._eset: frozenset | None = None
        self._handles: frozenset | None = None
        self._classes: list | None = None
        self._class_of: dict | None = None
        self._labels: dict | None = None
        self._refined: dict | None = None
        self._by_refined: dict | None = None
        # iso_check results with this group second, by the first's handles
        self._iso: dict = {}

    # -- construction -----------------------------------------------------

    @staticmethod
    def generate(gens) -> "SmallGroup":
        """The group that the PElements or image tuples gens generate, as
        a new table (of at most CLOSURE_CAP elements), with its closure
        tree over gens: the one way a table is made.  A subgroup of a group
        that has a table already is generated on that group (generated) or
        cut from it (_sub, subgroup)."""
        gens = list(gens)
        if not gens:
            raise ValueError("need at least one generator")
        tab = _new_table(gens)
        return SmallGroup(tab, range(tab.n), [tab.at(g) for g in gens],
                          tab.parent, tab.genidx)

    def generated(self, xs) -> "SmallGroup":
        """The subgroup that the elements xs of this group's table
        generate, with its closure tree: idx in discovery order, and
        parent/genidx/gens over xs as generate() records them.  ValueError
        for an element outside the table."""
        tab = self.tab
        ig = [tab.at(x) for x in xs]
        elems, parent, genidx, _ = _close(ig, 0, None, tab.by)
        return SmallGroup(tab, elems, ig, parent, genidx)

    def _sub(self, idx) -> "SmallGroup":
        """The group on these indices of the table (a closed set), in
        table order: the identity, index 0, first.  Generators are found
        on first use."""
        return SmallGroup(self.tab, sorted(set(idx)))

    def subgroup(self, elements) -> "SmallGroup":
        """Subgroup from an explicit (closed) element subset."""
        return self._sub(map(self.tab.at, elements))

    @property
    def iset(self) -> frozenset:
        """The indices as a set, built on first use."""
        if self._iset is None:
            self._iset = frozenset(self.idx)
        return self._iset

    # -- boundary ---------------------------------------------------------

    @property
    def elems(self) -> list:
        if self._elems is None:
            self._elems = [self.tab.elems[i] for i in self.idx]
        return self._elems

    @property
    def eset(self) -> frozenset:
        if self._eset is None:
            self._eset = frozenset(self.elems)
        return self._eset

    @property
    def identity(self):
        return self.tab.elems[0]

    def handles(self) -> frozenset:
        """The keys (PElements) or image tuples of the elements: equal for
        two groups with the same elements, in any tables."""
        if self._handles is None:
            keys = self.tab.keys
            self._handles = frozenset([keys[i] for i in self.idx])
        return self._handles

    def _ix(self, H: "SmallGroup") -> list:
        """H's elements as indices in this group's table."""
        if H.tab is self.tab:
            return H.idx
        keys, at = H.tab.keys, self.tab.pos
        try:
            return [at[keys[i]] for i in H.idx]
        except KeyError:
            raise ValueError("the group is not in this table") from None

    def _ixgens(self, H: "SmallGroup") -> list:
        gens = H._gl()
        if H.tab is self.tab:
            return gens
        return [self.tab.at(H.tab.elems[i]) for i in gens]

    # -- basics -----------------------------------------------------------

    def __len__(self):
        return len(self.idx)

    def __contains__(self, x) -> bool:
        return self.tab.find(x) in self.iset

    def __le__(self, other: "SmallGroup") -> bool:
        if other.tab is self.tab:
            return self.iset <= other.iset
        return self.handles() <= other.handles()

    def exponent(self) -> int:
        e = 1
        for x in self.idx:
            o = self.tab.order(x)
            e = e * o // gcd(e, o)
        return e

    def _gl(self) -> list:
        """The generators as indices, found by _generating_set if none."""
        if not self._gens:
            self._gens = self._generating_set()
        return self._gens

    def gens_list(self) -> list:
        """The generators as elements: for a group from generate() or
        generated(), the ones its closure tree is over (genidx indexes
        them), else the greedy _generating_set, found on first use."""
        return [self.tab.elems[i] for i in self._gl()]

    def _generating_set(self) -> list:
        """Small deterministic generating set: greedy over elements by
        decreasing order, then in table order.  The span holds every
        element, so it is the element set exactly when the sizes agree."""
        if len(self.idx) == 1:
            return [0]
        tab = self.tab
        order = tab.order
        cand = sorted(self.idx, key=lambda x: (-order(x), x))
        gens, ends, _ = _greedy(cand, 0, tab.by)
        obligation("element set is not closed under multiplication",
                   ends[-1] == len(self.idx), span=ends[-1], elements=len(self.idx))
        return gens

    # -- predicates ---------------------------------------------------

    def is_abelian(self) -> bool:
        gens, mul = self._gl(), self.tab.mul
        return all(mul(a, b) == mul(b, a) for a in gens for b in gens)

    def is_elementary_abelian(self, p: int) -> bool:
        order = self.tab.order
        return self.is_abelian() and all(order(x) in (1, p) for x in self.idx)

    def is_cyclic(self) -> bool:
        order, n = self.tab.order, len(self.idx)
        return any(order(x) == n for x in self.idx)

    def is_p_group(self, p: int) -> bool:
        n = len(self.idx)
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
        return z.iset == d.iset == f.iset

    def is_extraspecial(self, p: int) -> bool:
        return self.is_special(p) and len(self.center()) == p

    def structure_predicates(self, p: int = 3) -> dict:
        return {
            "order": len(self.idx),
            "exponent": self.exponent(),
            "is_cyclic": self.is_cyclic(),
            "is_abelian": self.is_abelian(),
            "is_elementary_abelian": self.is_elementary_abelian(p),
            "is_special": self.is_special(p),
        }

    # -- structural subgroups -------------------------------------------

    def center(self) -> "SmallGroup":
        return self._centralizer(self._gl())

    def centralizer(self, xs) -> "SmallGroup":
        return self._centralizer([self.tab.at(x) for x in xs])

    def _centralizer(self, xs) -> "SmallGroup":
        """The g that commute with every x: the fixed points of
        conjugation by x."""
        tab = self.tab
        keep = self.idx
        for x in dict.fromkeys(xs):
            f = tab.conj_of(x)
            keep = [g for g in keep if f(g) == g]
        return self._sub(keep)

    def normalizer(self, H: "SmallGroup") -> "SmallGroup":
        hgens, hset = self._ixgens(H), frozenset(self._ix(H))
        conj = self.tab.conj
        return self._sub([g for g in self.idx
                          if all(conj(h, g) in hset for h in hgens)])

    def is_normal(self, H: "SmallGroup") -> bool:
        hgens, hset = self._ixgens(H), frozenset(self._ix(H))
        conj = self.tab.conj
        return all(conj(h, g) in hset for g in self._gl() for h in hgens)

    def normal_closure(self, xs) -> "SmallGroup":
        return self._normal_closure([self.tab.at(x) for x in xs])

    def _normal_closure(self, xs) -> "SmallGroup":
        tab = self.tab
        fs = [tab.conj_of(g) for g in self._gl()]
        return self._sub(_close(sorted(_orbit(xs, fs)), 0, None, tab.by)[0])

    def derived(self) -> "SmallGroup":
        tab = self.tab
        mul, inv = tab.mul, tab.inv
        comms = {mul(mul(mul(inv[a], inv[b]), a), b) for a in self.idx for b in self._gl()}
        return self._normal_closure(comms)

    def frattini_p(self, p: int) -> "SmallGroup":
        """Phi(G) = G' <g^p> for a p-group."""
        if not self.is_p_group(p):
            raise ValueError("frattini_p is only used on p-groups here")
        tab = self.tab
        d = self.derived()
        pw = {tab.pow(x, p) for x in self.idx}
        return self._sub(_close(sorted(d.iset | pw), 0, None, tab.by)[0])

    def commutator_subgroup(self, X: "SmallGroup", Y: "SmallGroup") -> "SmallGroup":
        """[X, Y] for subgroups X, Y of self (commutators over all pairs,
        then product closure; the pair set is conjugation-closed enough
        because both conventions' commutators are mutually inverse)."""
        tab = self.tab
        mul, inv = tab.mul, tab.inv
        ys = self._ix(Y)
        comms = {mul(mul(mul(inv[x], inv[y]), x), y) for x in self._ix(X) for y in ys}
        return self._sub(_close(sorted(comms), 0, None, tab.by)[0])

    def intersect(self, other: "SmallGroup") -> "SmallGroup":
        """self n other, as a subgroup of self (in self's table)."""
        if other.tab is self.tab:
            return self._sub(self.iset & other.iset)
        keys, pos = other.tab.keys, self.tab.pos
        mine = {pos.get(keys[i]) for i in other.idx}
        return self._sub(self.iset & mine)

    def conjugate(self, g) -> "SmallGroup":
        """G^g for an element g of the table; ValueError for any other."""
        tab = self.tab
        f = tab.conj_of(tab.at(g))
        c = self._sub(map(f, self.idx))
        c._gens = list(map(f, self._gens))
        return c

    # -- Sylow machinery --------------------------------------------------

    def sylow(self, p: int) -> "SmallGroup":
        """One Sylow p-subgroup, grown greedily inside successive
        normalizers; deterministic because candidates are scanned in
        table order.  An x of p-power order outside P that normalizes P
        (maps the generators of P into P) makes P<x> a p-group larger than
        P.  Orders in G divide |G|, so a p-power is an order (or a
        subgroup's size) that divides target.  Since x normalizes P, P<x>
        is the union of the cosets P.x^i, built from P's own elements until
        x^i falls in P."""
        tab = self.tab
        order, conj = tab.order, tab.conj
        target = p ** _pval(len(self.idx), p)
        P, pset, pgens = [0], {0}, []
        scan = sorted(self.idx)
        while len(P) < target:
            x = next((x for x in scan
                      if x not in pset and target % order(x) == 0
                      and all(conj(h, x) in pset for h in pgens)), None)
            obligation("sylow growth stalled", x is not None, p=p, order=len(P))
            els, xi = list(P), x
            while xi not in pset:
                f = tab.right_of(xi)
                els += [f(h) for h in P]
                xi = tab.mul(xi, x)
            P = sorted(set(els))
            pset = set(P)
            pgens.append(x)
            obligation("P<x> is not a p-group", target % len(P) == 0, p=p, order=len(P))
        return self._sub(P)

    def p_core(self, p: int) -> "SmallGroup":
        """O_p(G): the normal core of one Sylow p-subgroup."""
        if len(self.idx) % p != 0:
            return self._sub([0])
        return self.core(self.sylow(p))

    def core(self, H: "SmallGroup") -> "SmallGroup":
        """Normal core of H in G: the intersection of all G-conjugates of
        H, walked along their orbit until it is trivial."""
        tab = self.tab
        fs = [tab.conj_of(g) for g in self._gl()]
        core = frozenset(self._ix(H))
        orbit, seen = [core], {core}
        for T in orbit:  # grows while it is walked
            core &= T
            if len(core) == 1:
                break
            for f in fs:
                U = frozenset(map(f, T))
                if U not in seen:
                    seen.add(U)
                    orbit.append(U)
        return self._sub(core)

    # -- conjugacy classes ----------------------------------------------

    def _class_lists(self) -> list:
        """The conjugacy classes as index lists, numbered by their least
        index, each in orbit order; _class_of maps an index to its
        class."""
        if self._classes is None:
            tab = self.tab
            fs = [tab.conj_of(g) for g in self._gl()]
            which: dict = {}
            classes: list = []
            for g in sorted(self.idx):
                if g not in which:
                    orbit = _orbit([g], fs)
                    which.update(dict.fromkeys(orbit, len(classes)))
                    classes.append(orbit)
            self._classes, self._class_of = classes, which
        return self._classes

    def _class_labels(self) -> dict:
        """Index -> (order, class size); cached."""
        if self._labels is None:
            order = self.tab.order
            lab = {}
            for c in self._class_lists():
                # conjugates have one order: one label tuple per class
                t = (order(c[0]), len(c))
                for x in c:
                    lab[x] = t
            self._labels = lab
        return self._labels

    # -- quotient ---------------------------------------------------------

    def _coset_index(self, H: "SmallGroup") -> tuple[dict, list]:
        """(index -> coset number, least index of each coset) for the right
        cosets H.g of a subgroup H: coset 0 is H, the others are numbered
        by their least index.  H.g is H carried along the rows of g's path,
        one row at a time.  For a normal H the right cosets are the left
        ones, so this is also G/H."""
        coset: dict = {}
        reps = []
        h = self._ix(H)
        path = self.tab.path
        for g in sorted(self.idx):
            if g not in coset:
                hg = h
                for R in path[g]:
                    hg = [R[x] for x in hg]
                coset.update(dict.fromkeys(hg, len(reps)))
                reps.append(g)
        return coset, reps

    def quotient(self, N: "SmallGroup") -> "SmallGroup":
        """G/N as the permutation group that G induces by right
        multiplication on the cosets of N (regular, so faithful on G/N)."""
        if not self.is_normal(N):
            raise ValueError("quotient by a non-normal subgroup")
        return self._quotient(N, *self._coset_index(N))

    def _quotient(self, N, coset, reps) -> "SmallGroup":
        perms = []
        for g in self._gl():
            f = self.tab.right_of(g)
            perms.append(tuple([coset[f(r)] for r in reps]))
        q = SmallGroup.generate(perms)
        obligation("|G/N| is not |G|/|N|", len(q) * len(N) == len(self.idx),
                   quotient=len(q), G=len(self.idx), N=len(N))
        return q


def direct_product(*groups: SmallGroup) -> SmallGroup:
    """Permutation groups acting side by side on a disjoint union of
    their points."""
    degrees = [len(G.identity) for G in groups]
    gens = []
    for i, G in enumerate(groups):
        lo = sum(degrees[:i])
        for x in G.gens_list():
            im = list(range(sum(degrees)))
            im[lo:lo + degrees[i]] = [lo + j for j in x]
            gens.append(tuple(im))
    return SmallGroup.generate(gens)


# ---------------------------------------------------------------------------
# isomorphism testing


def _refined_invariants(G: SmallGroup) -> dict:
    """Per-element invariant labels, by index: conjugacy class data
    sharpened by the labels of small powers, iterated to a fixed point.
    Isomorphisms preserve these labels, so they are safe candidate
    filters.  Cached; the rounds run on lists by position in G.idx."""
    if G._refined is not None:
        return G._refined
    cls = G._class_labels()
    mul = G.tab.mul
    where = {g: k for k, g in enumerate(G.idx)}
    sq, cu = [], []
    for g in G.idx:
        g2 = mul(g, g)
        sq.append(where[g2])
        cu.append(where[mul(g2, g)])
    lab = first = [cls[g] for g in G.idx]
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
    G._refined = cls if lab is first else dict(zip(G.idx, lab))
    return G._refined


def _by_refined(G: SmallGroup) -> dict:
    """Refined invariant label -> the indices with it, in table order.
    Cached."""
    if G._by_refined is None:
        inv = _refined_invariants(G)
        by: dict = {}
        for h in sorted(G.idx):
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
    in G2, as elements) is kept on G2 under G1.handles(): a later call with
    the same set and G2 (the same reference group, asked again by another
    claim) reuses it, and the memo goes when G2 does.
    """
    memo = G2._iso
    key = G1.handles()
    if key not in memo:
        memo[key] = _iso_search(G1, G2)
    return memo[key] is not None


def _iso_search(G1: SmallGroup, G2: SmallGroup):
    """None if G1 and G2 are not isomorphic, else a generating sequence of
    G1 and the images of an isomorphism onto G2, as elements."""
    if len(G1) != len(G2):
        return None
    if len(G1) == 1:
        return [], []
    inv1 = _refined_invariants(G1)
    inv2 = _refined_invariants(G2)
    if Counter(inv1.values()) != Counter(inv2.values()):
        return None
    by_inv2 = _by_refined(G2)
    t1, t2 = G1.tab, G2.tab
    mul1, mul2, conj2 = t1.mul, t2.mul, t2.conj

    # greedy generating sequence of G1, preferring elements with the
    # fewest candidate images (ties broken by table index), with G1's
    # closure tree over it.  Every label of G1 is one
    # of G2's, as the label counts agree.
    gens1, ends, (_, parent, genidx, right) = _greedy(
        sorted(G1.idx, key=lambda g: (len(by_inv2[inv1[g]]), g)), 0, t1.by)

    def candidates(i, imgs, cent):
        """Images for gens1[i], one per orbit of cent (the centralizer of
        imgs) in by_inv2 order, that pass the pairwise product invariants,
        each with its centralizer in cent.  Lazy: an orbit is conjugated
        only when the search reaches it.  At the first depth cent is G2:
        the orbits are G2's classes, and the centralizer of h is
        G2._centralizer([h])."""
        g = gens1[i]
        seen: set = set()
        for h in by_inv2[inv1[g]]:
            if h in seen:
                continue
            if i == 0:
                seen.update(G2._class_lists()[G2._class_of[h]])
                yield h, None
                continue
            conj = [conj2(h, c) for c in cent]
            seen.update(conj)
            if all(inv1[mul1(gj, g)] == inv2[mul2(hj, h)]
                   and inv1[mul1(g, gj)] == inv2[mul2(h, hj)]
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
    stack = [([0], [], [], candidates(0, [], None))]
    while stack:
        img, imgs, fs, cands = stack[-1]
        found = next(cands, None)
        if found is None:
            stack.pop()
            continue
        h, cent = found
        if cent is None:
            cent = G2._centralizer([h]).idx
        i = len(imgs)
        lo, hi = ends[i], ends[i + 1]
        hs = imgs + [h]
        hf = fs + [t2.right_of(h)]
        m = img + [None] * (hi - lo)
        for t in range(lo, hi):
            m[t] = hf[genidx[t]](m[parent[t]])
        if len(set(m)) == hi and all(m[right[j][x]] == hf[j](m[x])
                                     for x in range(lo, hi) for j in range(i + 1)):
            if i + 1 == len(gens1):
                return [t1.elems[g] for g in gens1], [t2.elems[h] for h in hs]
            stack.append((m, hs, hf, candidates(i + 1, hs, cent)))
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
    if not G.is_normal(N):
        raise ValueError("quotient by a non-normal subgroup")
    coset, reps = G._coset_index(N)
    Q = G._quotient(N, coset, reps)
    if len(Q) == 1:
        return G._sub([0])
    tab = G.tab
    lifts = []
    for q in Q._generating_set():
        # q maps coset 0 = N to the coset it stands for
        o, c = Q.tab.order(q), Q.tab.keys[q][0]
        cand = [g for g in sorted(G.idx) if coset[g] == c and tab.order(g) == o]
        if not cand:
            return None
        lifts.append(cand)
    target = len(Q)
    nset = frozenset(G._ix(N))
    for tup in iproduct(*lifts):
        try:
            C = _close(tup, 0, target, tab.by)[0]
        except ClosureCapExceeded:
            continue
        if len(C) == target and len(nset.intersection(C)) == 1:
            return G._sub(C)
    return None


# ---------------------------------------------------------------------------
# reference groups


def _cycle(n: int) -> tuple:
    return tuple(range(1, n)) + (0,)


def sym_group(n: int) -> SmallGroup:
    return SmallGroup.generate([_cycle(n), (1, 0) + tuple(range(2, n))])


def cyclic_group(n: int) -> SmallGroup:
    return SmallGroup.generate([_cycle(n)])


def dihedral_18() -> SmallGroup:
    s = tuple((-i) % 9 for i in range(9))
    return SmallGroup.generate([_cycle(9), s])


def agl1_group() -> SmallGroup:
    """AGL_1(3): affine maps x -> ax + b on GF(3), as perms of 3 points,
    generated by x + 1 and 2x."""
    return SmallGroup.generate([_cycle(3), (0, 2, 1)])


def _affine_perm(a, b, c, d, e, f, idx, pts) -> tuple:
    return tuple(idx[((a * x + b * y + e) % 3, (c * x + d * y + f) % 3)]
                 for (x, y) in pts)


def affine_refs() -> dict[str, SmallGroup]:
    """AGL_2(3) on the 9 affine points, its GL_2(3), the distinguished
    Sylow-3 subgroup S, V = O_3(AGL_2(3)), V0 = C_V(S) = Z(S), the
    normalizer AGL_2(3,S) and its two index-2 subgroups picked out by
    their action on V0 and V/V0, under their reference_groups names."""
    pts = [(x, y) for y in range(3) for x in range(3)]
    idx = {p: i for i, p in enumerate(pts)}
    t1 = _affine_perm(1, 0, 0, 1, 1, 0, idx, pts)
    t2 = _affine_perm(1, 0, 0, 1, 0, 1, idx, pts)
    # GL_2(3) is generated by a transvection and the swap of coordinates
    u = _affine_perm(1, 1, 0, 1, 0, 0, idx, pts)
    w = _affine_perm(0, 1, 1, 0, 0, 0, idx, pts)
    agl = SmallGroup.generate([t1, t2, u, w])
    gl = agl.generated([u, w])
    v = agl.generated([t1, t2])
    syl3 = agl.generated([t1, t2, u])

    v0 = v.centralizer(syl3.gens_list())
    obligation("C_V(S) is not Z(S)", v0.iset == syl3.center().iset)

    agl_s = agl.normalizer(syl3)
    sharp, star = _index2_variants(agl_s, syl3, v, v0)
    return {"AGL23": agl, "GL23": gl, "S_syl3": syl3, "V": v, "V0": v0,
            "AGL23S": agl_s, "AGL23S_sharp": sharp, "AGL23S_star": star}


def _index2_variants(agl_s, syl3, v, v0):
    """The unique subgroups # and * of index 2 in AGL_2(3,S): both factor
    as C_X(V0) C_X(V/V0); # centralizes V/V0 exactly on S and induces
    GL_1(3) on V0's side, * the other way around."""
    der = agl_s.derived()
    coset, reps = agl_s._coset_index(der)
    q = agl_s._quotient(der, coset, reps)
    obligation("AGL2(3,S) modulo its derived subgroup is not abelian", q.is_abelian())
    half = len(q) // 2
    qt, tab = q.tab, agl_s.tab
    mul, inv = tab.mul, tab.inv
    cand_sets = set()
    for r in range(1, len(q)):
        for comb in combinations(sorted(q.idx), r):
            s = frozenset(_close(comb, 0, None, qt.by)[0])
            if len(s) == half:
                cand_sets.add(s)
    sharp = star = None
    # a quotient element x stands for the coset its images start with
    for s in sorted(cand_sets, key=lambda fs: sorted(qt.keys[x][0] for x in fs)):
        cosets = {qt.keys[x][0] for x in s}
        X = agl_s._sub([g for g in agl_s.idx if coset[g] in cosets])
        if len(X) != half * len(der) or not syl3.iset <= X.iset:
            continue
        c_v0 = X._centralizer(v0.idx)
        v0set = v0.iset
        c_vq = X._sub([x for x in X.idx
                       if all(mul(tab.conj(t, x), inv[t]) in v0set for t in v.idx)])
        if {mul(a, b) for a in c_v0.idx for b in c_vq.idx} != X.iset:
            continue
        if c_vq.iset == syl3.iset and len(c_v0) == 2 * len(syl3):
            obligation("sharp subgroup not unique", sharp is None)
            sharp = X
        elif c_v0.iset == syl3.iset and len(c_vq) == 2 * len(syl3):
            obligation("star subgroup not unique", star is None)
            star = X
    obligation("no two distinct sharp and star subgroups",
               sharp is not None and star is not None and sharp.iset != star.iset)
    return sharp, star


def sp2_group() -> SmallGroup:
    """The extraspecial group of order 27 and exponent 9, as the affine
    maps x -> 4^j x + i of Z9, generated by x + 1 and 4x."""
    g = SmallGroup.generate([_cycle(9), tuple(4 * x % 9 for x in range(9))])
    obligation("SP2 is not extraspecial of order 27 and exponent 9",
               len(g) == 27 and g.exponent() == 9 and g.is_extraspecial(3))
    return g


def pgl23_group(gl: SmallGroup) -> SmallGroup:
    z = gl.center()
    obligation("Z(GL2(3)) does not have order 2", len(z) == 2, order=len(z))
    return gl.quotient(z)


def reference_groups() -> dict[str, SmallGroup]:
    """All reference groups used by the structure and shape checks, with
    construction self-checks baked in."""
    refs = affine_refs()
    sym3 = sym_group(3)
    agl13 = agl1_group()
    c2 = cyclic_group(2)
    c3 = cyclic_group(3)
    c3xc3 = direct_product(c3, c3)
    dih18 = dihedral_18()
    refs.update({
        "Sym3": sym3,
        "Sym4": sym_group(4),
        "AGL13": agl13,
        "PGL23": pgl23_group(refs["GL23"]),
        "C2": c2,
        "C3": c3,
        "C9": cyclic_group(9),
        "C3xC3": c3xc3,
        "SP2": sp2_group(),
        "Dih18": dih18,
        "Dih18xC2": direct_product(dih18, c2),
        "Sym3xC2": direct_product(sym3, c2),
        "C2xAGL13": direct_product(c2, agl13),
        "C3xAGL23": direct_product(c3, refs["AGL23"]),
        "C3xAGL23S": direct_product(c3, refs["AGL23S"]),
        "C3xAGL23S_sharp": direct_product(c3, refs["AGL23S_sharp"]),
    })
    expected = {
        "Sym3": 6, "Sym4": 24, "AGL13": 6, "GL23": 48, "PGL23": 24,
        "AGL23": 432, "AGL23S": 108, "AGL23S_sharp": 54, "AGL23S_star": 54,
        "V": 9, "V0": 3, "S_syl3": 27, "C9": 9, "C3xC3": 9,
        "SP2": 27, "Dih18": 18, "Dih18xC2": 36, "Sym3xC2": 12,
        "C2xAGL13": 12, "C3xAGL23": 1296, "C3xAGL23S": 324,
        "C3xAGL23S_sharp": 162,
    }
    for k, n in expected.items():
        obligation("a reference group has the wrong order", len(refs[k]) == n,
                   group=k, order=len(refs[k]), expected=n)
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

    def h_part(self, G: SmallGroup) -> SmallGroup:
        """Intersection with H = PSU_3(8) . <sigma^3>: twist in {0, 3}."""
        return G.subgroup([x for x in G.elems if x.twist in (0, 3)])

    def ambient(self, keys) -> SmallGroup:
        """The first of K1, K2 whose table holds all these packed keys;
        ValueError if neither does."""
        for K in (self.K1, self.K2):
            pos = K.tab.pos
            if all(int(k) in pos for k in keys):
                return K
        raise ValueError("the keys do not all lie in K1 or in K2")


def named_groups(field: GF64) -> NamedGroups:
    """K1 and K2 generated over the plain generators, so each is one
    Table; every other named group is generated on its ambient group, K1
    or K2, with the same generators in the same order as a PElement
    closure would take."""
    p = pgenerators(field)
    A, B, C, D, E, F = p["A"], p["B"], p["C"], p["D"], p["E"], p["F"]
    s2, s3 = p["sigma2"], p["sigma3"]
    K1 = SmallGroup.generate([A, B, C, D, s3, s2])
    K2 = SmallGroup.generate([A, B, C, E, F, s3, s2])
    Q1 = K1.generated([A, B])
    Q2 = K1.generated([A, B, C])
    Qstar = K1.generated([B, C])
    S = K2.generated([E, F, s3])
    H1 = K1.generated([A, B, C, D, s3])
    H2 = K2.generated([A, B, C, E, F, s3])
    Qh1 = K1.generated([A, B, s2])
    Qh2 = K2.generated([A, B, C, s2])
    H12 = H1.intersect(H2)
    K12 = K1.intersect(K2)
    ng = NamedGroups(field, p, Q1, Q2, Qstar, S, H1, H2, Qh1, Qh2, K1, K2, H12, K12)
    ng.Lambda = _lambda_subgroups(Q2, Qstar)
    return ng


def _lambda_subgroups(Q2: SmallGroup, Qstar: SmallGroup) -> list[SmallGroup]:
    """Order-9 elementary abelian subgroups of Q2 other than Q*: each is
    {a^i b^j} for commuting a, b of order 3 with b outside <a>, found once
    per such pair with a before b in table order, and listed by their
    indices."""
    tab = Q2.tab
    mul = tab.mul
    threes = [x for x in sorted(Q2.idx) if tab.order(x) == 3]
    seen = {Qstar.iset}
    out = []
    for i, a in enumerate(threes):
        powers_a = (0, a, mul(a, a))
        for b in threes[i + 1:]:
            if b in powers_a or mul(a, b) != mul(b, a):
                continue
            s = frozenset(mul(x, y) for x in powers_a for y in (0, b, mul(b, b)))
            if s not in seen:
                seen.add(s)
                out.append(Q2._sub(s))
    out.sort(key=lambda g: g.idx)
    return out

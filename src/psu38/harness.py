"""Pipeline orchestration: configuration, the claim catalog, structured
report emission, and the command line interface.

Every finitely checkable statement of the verified construction is a
claim with a stable id; cmd_verify evaluates the catalog against the
graph it builds and emits a VerificationReport (human-readable lines and
optional JSON).  Every command builds the graph it uses; none reads or
writes a graph file.  Exit codes: 0 all pass, 1 claim failure, 2
configuration error (a reducible modulus, a path that cannot be read or
written, or a claim selection that matches no claim), 4 a claim raised
an error and none failed; 3 is not used.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import __version__
from .amalgam import analyze, shape_d2, shape_e2
from .arcs import (KernelData, arc_count_formula, arc_orbits, arc_stabilizer,
                   ball, kernel_data, max_local_s, pushing_up, sampled_vertex_checks)
from .coset import (PSU38_ORDER, CosetGraph, build_graph, export_edge_list,
                    export_sparse6)
from .fastops import FieldOps
from .gf64 import GF64, DEFAULT_MODULUS, BadModulus, polymul_mod
from .grp import (SmallGroup, direct_product, is_split_extension, iso_check,
                  named_groups, reference_groups)
from .psu import check_relations, make_generators, special_unitary, words

EXIT_OK = 0
EXIT_CLAIM_FAIL = 1
EXIT_CONFIG = 2
EXIT_ERROR = 4


def factorization(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


# ---------------------------------------------------------------------------
# lazy context


class VerifyContext:
    """Shared lazily-built state for the claim catalog.  cache_dir is
    accepted and ignored: the graph is built, never read from a file."""

    def __init__(self, modulus: int = DEFAULT_MODULUS, cache_dir: str | None = None,
                 verbose: bool = False):
        self.modulus = modulus
        self.verbose = verbose
        self._cache: dict = {}
        self._failed: dict = {}

    def _memo(self, key, fn):
        """The stage's value, computed once; a stage that raised raises
        its exception again rather than running a second time."""
        if key in self._failed:
            raise self._failed[key]
        if key not in self._cache:
            try:
                self._cache[key] = fn()
            except Exception as e:
                self._failed[key] = e
                raise
        return self._cache[key]

    @property
    def field(self) -> GF64:
        return self._memo("field", lambda: GF64(self.modulus))

    @property
    def relations(self):
        return self._memo("relations", lambda: check_relations(self.field))

    @property
    def gens(self):
        return self._memo("gens", lambda: make_generators(self.field))

    @property
    def ng(self):
        return self._memo("ng", lambda: named_groups(self.field))

    @property
    def refs(self):
        return self._memo("refs", reference_groups)

    @property
    def graph(self) -> CosetGraph:
        return self._memo("graph", self._build)

    def _log(self, msg):
        if self.verbose:
            print(msg, file=sys.stderr, flush=True)

    def _build(self) -> CosetGraph:
        t0 = time.perf_counter()
        g = build_graph(
            self.ng,
            progress=(lambda a, b: self._log(f"  bfs {a}+{b} vertices"))
            if self.verbose else None,
        )
        self._log(f"graph built in {time.perf_counter() - t0:.1f}s")
        return g

    def kern(self, group: str, side: int) -> KernelData:
        g = self.graph
        return kernel_data(g, g.base_x1 if side == 1 else g.base_x2, group)

    def kernel_claim(self, group: str, side: int):
        """The verdict and witness of the kernel chain at one base vertex
        (_kernel_claim), shared by the claims that check it."""
        return self._memo(("kernel_claim", group, side),
                          lambda: _kernel_claim(self, group, side))

    def pushing_up(self, group: str):
        return self._memo(("pushing_up", group), lambda: pushing_up(self.graph, group))

    def sampled(self) -> dict:
        return self._memo("sampled", lambda: sampled_vertex_checks(self.graph))

    def mls(self, group: str):
        return self._memo(("mls", group), lambda: max_local_s(self.graph, group))

    def amalgam(self, which: str):
        def build():
            ng = self.ng
            if which == "H":
                return analyze("H", ng.H1, ng.H2, ng.H12)
            return analyze("K", ng.K1, ng.K2, ng.K12)
        return self._memo(("amalgam", which), build)

    def shape(self, which: str):
        def run():
            am = self.amalgam(which)
            fn = shape_d2 if which == "H" else shape_e2
            return fn(am, self.refs)
        return self._memo(("shape", which), run)

    def paper_arc(self) -> list[int]:
        def build():
            g = self.graph
            p = self.ng.p
            x1, x2 = g.base_x1, g.base_x2
            # K2.D.E and K1.E.D, one right action at a time
            x3 = g.image(x1, p["E"])
            x0 = g.image(x2, p["D"])
            x4 = g.image(x0, p["E"])
            xm1 = g.image(x3, p["D"])
            arc = [xm1, x0, x1, x2, x3, x4]
            for a, b in zip(arc, arc[1:]):
                if b not in g.neighbors(a):
                    raise AssertionError("named cosets do not form a path")
            for i in range(1, 5):
                if arc[i - 1] == arc[i + 1]:
                    raise AssertionError("named path backtracks")
            return arc
        return self._memo("paper_arc", build)

    def is_automorphism(self, x) -> bool:
        """Whether the group element x acts as a graph automorphism,
        checked once per element key."""
        return self._memo(("aut", x.key), lambda: self.graph.is_graph_automorphism(x))

    def connected(self) -> bool:
        """Whether the whole-graph ball around x1 reaches every vertex."""
        g = self.graph
        return self._memo("connected", lambda: len(ball(g, g.base_x1, g.nv)[0]) == g.nv)

    def edge_orbit_transitive(self, group: str) -> bool:
        """Whether G = <G1, G2> (H or K) is transitive on the edges, from
        three checked premises: each generator of G1 and G2 is a graph
        automorphism, the graph is connected, and G1, G2 (the stabilizers
        of x1, x2) each have one orbit on the 1-arcs at their vertex.

        Proof (Giudici, Li and Praeger, Trans. AMS 356 (2004)): by local
        transitivity the orbit O of the base edge holds every edge at x1
        and at x2, so both lie in the set S of vertices whose edges all
        lie in O.  S is G-invariant, as G acts by automorphisms, and closed
        under adjacency: an edge at a vertex of S lies in O, so its other
        end is an image of x1 or x2.  The graph is connected, so S holds
        every vertex and O every edge.
        """
        def run():
            g = self.graph
            gens = [x for side in (1, 2) for x in g.base_stabilizer(side, group).gens_list()]
            return (all(self.is_automorphism(x) for x in dict.fromkeys(gens))
                    and self.connected()
                    and all(arc_orbits(g, v, 1, group)["transitive"]
                            for v in (g.base_x1, g.base_x2)))
        return self._memo(("edgetrans", group), run)

    def split_searches(self):
        def run():
            out = {}
            for group, side in (("H", 1), ("H", 2), ("K", 1), ("K", 2)):
                kd = self.kern(group, side)
                gz, n = kd.stab, kd.o3
                comp = is_split_extension(gz, n)
                out[f"{group}_x{side}"] = {
                    "group_order": len(gz), "normal_order": len(n),
                    "split": comp is not None,
                    "complement_order": len(comp) if comp is not None else None,
                }
            return out
        return self._memo("splits", run)


# ---------------------------------------------------------------------------
# claim machinery


@dataclass
class Claim:
    id: str
    statement: str
    groups: tuple
    fn: object


def _gen_closure(ng, K: SmallGroup, names) -> SmallGroup:
    """The subgroup of K (K1 or K2) that the named elements generate;
    ValueError if K's table lacks one of them."""
    return K.generated([ng.p[n] for n in names])


def build_claims() -> list[Claim]:
    cl: list[Claim] = []

    def claim(id, statement, groups=("H", "K")):
        def deco(fn):
            cl.append(Claim(id, statement, groups, fn))
            return fn
        return deco

    # -- field and generator layer ---------------------------------------

    @claim("FLD.1", "GF(64) tables: zeta/beta/alpha orders 63/9/3, "
                    "beta beta^tau = alpha alpha^tau = 1, Frobenius is a "
                    "homomorphism, tau^2 = 1, tables match schoolbook products")
    def fld1(ctx):
        f = ctx.field
        ok = f.order(f.zeta) == 63 and f.order(f.beta) == 9 and f.order(f.alpha) == 3
        ok &= f.mul(f.beta, f.conj(f.beta)) == 1
        ok &= f.mul(f.alpha, f.conj(f.alpha)) == 1
        ok &= all(f.mul(a, b) == polymul_mod(a, b, f.modulus)
                  for a in range(64) for b in range(64))
        # the kernels' tables hold the same products and Frobenius powers
        ok &= f.MUL.tolist() == [[f.mul(a, b) for b in range(64)] for a in range(64)]
        ok &= f.FROB.tolist() == [[f.frobenius(a, k) for a in range(64)] for k in range(6)]
        ok &= all(f.frobenius(f.add(a, b)) == f.add(f.frobenius(a), f.frobenius(b))
                  for a in range(64) for b in range(0, 64, 7))
        ok &= all(f.frobenius(f.mul(a, b)) == f.mul(f.frobenius(a), f.frobenius(b))
                  for a in range(0, 64, 3) for b in range(64))
        ok &= all(f.conj(f.conj(a)) == a for a in range(64))
        return ok, {"modulus": f.modulus, "zeta": f.zeta, "beta": f.beta,
                    "alpha": f.alpha}

    @claim("SU.1", "the seven defining matrices are unitary with determinant 1 "
                   "and satisfy C^3=Z, D^2=F, E^3=B at matrix level")
    def su1(ctx):
        g, ops = ctx.gens, FieldOps(ctx.field)
        ok = all(special_unitary(ops, [g[k] for k in ("A", "B", "C", "D", "E", "F", "Z")]))
        c3, d2, e3, a_inv, a2, d_inv2, f_inv = words(ops, g, [
            ("C", "C", "C"), ("D", "D"), ("E", "E", "E"), ("A'",), ("A", "A"),
            ("D'", "D'"), ("F'",)])
        ok = ok and c3 == g["Z"] and d2 == g["F"] and e3 == g["B"]
        inv_ok = a_inv == a2 and d_inv2 == f_inv
        return ok and inv_ok, {"inverse_identities": inv_ok}

    @claim("CONV.1", "exactly one commutator/conjugation convention pair "
                     "satisfies the whole relation table, and sigma-conjugation "
                     "under it equals the entrywise Frobenius image")
    def conv1(ctx):
        r = ctx.relations
        return r.all_ok and r.sigma_matches_frobenius, {
            "commutator": r.commutator_convention,
            "conjugation": r.conjugation_convention,
        }

    def relation_claim(id, statement, names):
        """A claim that these rows of the relation table hold."""
        def body(ctx):
            rows = dict(ctx.relations.rows)
            return all(rows[n] for n in names), {n: rows[n] for n in names}
        claim(id, statement)(body)

    relation_claim("L3.1.i", "[A,B]=Z^2, [A,C]=BZ^2, [B,C]=1 at SU level",
                   ["[A,B]=Z^2", "[A,C]=BZ^2", "[B,C]=1"])
    relation_claim("L3.1.ii", "[D,A]=BA and [D,B]=A^2B at SU level",
                   ["[D,A]=BA", "[D,B]=A^2B"])
    relation_claim("L3.1.iii", "A^s=A, B^s=B^-1, C^s=C^2, D^s=D^-1",
                   ["A^s=A", "B^s=B^-1", "C^s=C^2", "D^s=D^-1"])

    @claim("L3.1.iv", "[<C,D>, Q1] = Q1 in the projective group")
    def l31iv(ctx):
        ng = ctx.ng
        cd = _gen_closure(ng, ng.K1, ["C", "D"])
        comm = ng.K1.commutator_subgroup(cd, ng.Q1)
        return comm.eset == ng.Q1.eset, {"|[CD,Q1]|": len(comm)}

    @claim("L3.2.i", "Q1 and Q* are abelian of order 9 and [Q1,Q*] = <B>")
    def l32i(ctx):
        ng = ctx.ng
        amb = ng.Q2
        comm = amb.commutator_subgroup(ng.Q1, ng.Qstar)
        bbar = _gen_closure(ng, ng.K1, ["B"])
        ok = (len(ng.Q1) == 9 and ng.Q1.is_abelian()
              and len(ng.Qstar) == 9 and ng.Qstar.is_abelian()
              and comm.eset == bbar.eset)
        return ok, {"|Q1|": len(ng.Q1), "|Q*|": len(ng.Qstar),
                    "|[Q1,Q*]|": len(comm)}

    @claim("L3.2.ii", "Q2 = Q1 Q* is special of order 27 and exponent 3 with "
                      "center <B>")
    def l32ii(ctx):
        ng = ctx.ng
        K1 = ng.K1
        mul = K1.tab.mul
        prod = {mul(a, b) for a in K1._ix(ng.Q1) for b in K1._ix(ng.Qstar)}
        bbar = _gen_closure(ng, K1, ["B"])
        sp = ng.Q2.structure_predicates(3)
        ok = (prod == set(K1._ix(ng.Q2)) and sp["order"] == 27
              and sp["exponent"] == 3 and sp["is_special"]
              and ng.Q2.center().eset == bbar.eset
              and ng.Q2.derived().eset == bbar.eset)
        return ok, {"predicates": sp}

    def stabilizer_x1(g, ref, iso_key, o3):
        """G = ng.<g> is isomorphic to refs[ref] and O_3(G) = ng.<o3>."""
        def body(ctx):
            G, O = getattr(ctx.ng, g), getattr(ctx.ng, o3)
            iso = iso_check(G, ctx.refs[ref])
            oc = G.p_core(3)
            return iso and oc.eset == O.eset, {
                f"|{g}|": len(G), iso_key: iso, f"|O3({g})|": len(oc)}
        return body

    claim("L3.2.iii", "H1 is isomorphic to AGL_2(3) and O_3(H1) = Q1"
          )(stabilizer_x1("H1", "AGL23", "iso_AGL23", "Q1"))

    @claim("L3.2.iv", "Qh1 = Q1 x <sigma^2> and Qh2 = Q2 x <sigma^2> "
                      "(internal direct products)")
    def l32iv(ctx):
        ng = ctx.ng
        # the products are taken in K1's table, which holds Q1, Q2 and sigma^2
        K1 = ng.K1
        s2 = _gen_closure(ng, K1, ["sigma2"])
        mul, keys = K1.tab.mul, K1.tab.keys
        out = {}
        ok = True
        for name, big, small in (("Qh1", ng.Qh1, ng.Q1), ("Qh2", ng.Qh2, ng.Q2)):
            sm = K1._ix(small)
            prod = {keys[mul(a, b)] for a in sm for b in s2.idx}
            centr = all(mul(a, b) == mul(b, a) for a in K1._ixgens(small) for b in s2._gl())
            meet = s2.iset.intersection(sm)
            good = prod == big.handles() and centr and len(meet) == 1
            out[name] = good
            ok &= good
        return ok, out

    claim("L3.2.v", "K1 is isomorphic to C3 x AGL_2(3) and O_3(K1) = Qh1"
          )(stabilizer_x1("K1", "C3xAGL23", "iso", "Qh1"))

    @claim("L3.2.vi", "Z(Q2) <= Q1 and Z(Qh2) <= Qh1")
    def l32vi(ctx):
        ng = ctx.ng
        ok = (ng.Q2.center().eset <= ng.Q1.eset
              and ng.Qh2.center().eset <= ng.Qh1.eset)
        return ok, {"|Z(Q2)|": len(ng.Q2.center()), "|Z(Qh2)|": len(ng.Qh2.center())}

    @claim("L3.2.vii", "exactly 3 elementary abelian order-9 subgroups of Q2 "
                       "other than Q*, and Q1 is one of them")
    def l32vii(ctx):
        ng = ctx.ng
        lam = ng.Lambda
        ok = len(lam) == 3 and any(L.eset == ng.Q1.eset for L in lam)
        return ok, {"count": len(lam)}

    relation_claim("L3.3.i", "[E,A]=BC, [E,B]=1, [E,C]=1 at SU level",
                   ["[E,A]=BC", "[E,B]=1", "[E,C]=1"])
    relation_claim("L3.3.ii", "[F,A]=A^2, [F,B]=B^2, [F,C]=1, [F,E]=E^2",
                   ["[F,A]=A^2", "[F,B]=B^2", "[F,C]=1", "[F,E]=E^2"])
    relation_claim("L3.3.iii", "E^s=E^2 and F^s=F", ["E^s=E^2", "F^s=F"])

    @claim("L3.3.iv", "[<E>, Q2] = Q* and [<E>, <sigma^2, B>] = <B>")
    def l33iv(ctx):
        ng = ctx.ng
        e = _gen_closure(ng, ng.K2, ["E"])
        c1 = ng.K2.commutator_subgroup(e, ng.Q2)
        zb = _gen_closure(ng, ng.K2, ["sigma2", "B"])
        c2 = ng.K2.commutator_subgroup(e, zb)
        bbar = _gen_closure(ng, ng.K1, ["B"])
        ok = c1.eset == ng.Qstar.eset and c2.eset == bbar.eset
        return ok, {"|[E,Q2]|": len(c1), "|[E,<s2,B>]|": len(c2)}

    @claim("L3.4.i", "S = <E,F> x <F sigma^3> is Dih(18) x C2 of order 36")
    def l34i(ctx):
        ng = ctx.ng
        ef = _gen_closure(ng, ng.K2, ["E", "F"])
        fs3 = _gen_closure(ng, ng.K2, ["Fsigma3"])
        mul = ng.K2.tab.mul
        prod = {mul(a, b) for a in ef.idx for b in fs3.idx}
        centr = all(mul(a, b) == mul(b, a) for a in ef._gl() for b in fs3._gl())
        ok = (len(ng.S) == 36 and prod == set(ng.K2._ix(ng.S)) and centr
              and len(ef.iset & fs3.iset) == 1
              and iso_check(ef, ctx.refs["Dih18"])
              and iso_check(ng.S, ctx.refs["Dih18xC2"]))
        return ok, {"|S|": len(ng.S), "|<E,F>|": len(ef)}

    @claim("L3.4.ii", "S normalizes Q2 and Qh2, S n Q2 = Z(Q2), and "
                      "S/Z(Q2) is Sym(3) x C2")
    def l34ii(ctx):
        ng = ctx.ng
        zq2 = ng.Q2.center()
        n1 = ng.S.is_normal(ng.Q2)
        n2 = ng.S.is_normal(ng.Qh2)
        meet = ng.S.eset & ng.Q2.eset
        q = ng.S.quotient(ng.S.subgroup(zq2.eset))
        ok = (n1 and n2 and meet == zq2.eset
              and iso_check(q, ctx.refs["Sym3xC2"]))
        return ok, {"normalizes_Q2": n1, "normalizes_Qh2": n2,
                    "|S n Q2|": len(meet)}

    @claim("L3.4.iii", "S normalizes Q*, <F sigma^3> acts trivially on the "
                       "Lambda triple, and S induces Sym(3) on it")
    def l34iii(ctx):
        ng = ctx.ng
        n0 = ng.S.is_normal(ng.Qstar)
        # the Lambda subgroups (in K1's table) and S as indices in K2's table
        K2 = ng.K2
        conj = K2.tab.conj
        lam_sets = [frozenset(K2._ix(L)) for L in ng.Lambda]

        def perm_of(g):
            return tuple(lam_sets.index(frozenset([conj(x, g) for x in s]))
                         for s in lam_sets)

        induced = SmallGroup.generate([perm_of(g) for g in K2._ixgens(ng.S)])
        fs3 = _gen_closure(ng, K2, ["Fsigma3"])
        fs3_trivial = all(perm_of(g) == (0, 1, 2) for g in fs3.idx)
        ok = n0 and fs3_trivial and len(induced) == 6 and iso_check(
            induced, ctx.refs["Sym3"])
        return ok, {"normalizes_Qstar": n0, "Fsigma3_trivial": fs3_trivial,
                    "induced_order": len(induced)}

    def l34_shape(g, n, order):
        """|G| = order, N normal in G with G/N = AGL_1(3) x C2, the
        complement search verdict, and G/Z(N) = AGL_2(3,S), for the named
        groups G = ng.<g> and N = ng.<n>."""
        def body(ctx):
            G, N, refs = getattr(ctx.ng, g), getattr(ctx.ng, n), ctx.refs
            q = G.quotient(N)
            comp = is_split_extension(G, N)
            d = {"order": len(G), "normal": G.is_normal(N),
                 "quotient_iso": iso_check(q, refs["C2xAGL13"]),
                 "split": comp is not None,
                 "complement_order": len(comp) if comp is not None else None}
            key = f"{g}/Z({n})_iso_AGL23S"
            d[key] = iso_check(G.quotient(G.subgroup(N.center().eset)), refs["AGL23S"])
            return d["order"] == order and d["normal"] and d["quotient_iso"] and d[key], d
        return body

    claim("L3.4.iv", "|H2| = 324, Q2 is normal with H2/Q2 = AGL_1(3) x C2, "
                     "and H2/Z(Q2) = AGL_2(3,S), extension over Q2 recorded"
          )(l34_shape("H2", "Q2", 324))
    claim("L3.4.v", "|K2| = 972, Qh2 is normal with K2/Qh2 = AGL_1(3) x C2, "
                    "and K2/Z(Qh2) = AGL_2(3,S)")(l34_shape("K2", "Qh2", 972))

    def edge_count(group, names, order, ref, multiple):
        """G1 n G2 = <names> has this order and is isomorphic to refs[ref],
        G is edge-transitive, and |edges| |G1 n G2| = multiple |PSU_3(8)|,
        for G = H or K."""
        def body(ctx):
            ng = ctx.ng
            G12 = getattr(ng, f"{group}12")
            named = _gen_closure(ng, ng.K1, names)
            ok = (G12.eset == named.eset and len(G12) == order
                  and iso_check(G12, ctx.refs[ref]))
            et = ctx.edge_orbit_transitive(group)
            gorder = len(ctx.graph.edges) * len(G12)
            ok = ok and et and gorder == multiple * PSU38_ORDER
            return ok, {f"|{group}12|": len(G12), "edge_transitive": et,
                        f"|{group}|": gorder, f"{multiple}|PSU38|": multiple * PSU38_ORDER}
        return body

    claim("L3.5.i", "H1 n H2 = <A,B,C,F,sigma^3> of order 108, isomorphic "
                    "to AGL_2(3,S); the edge-transitive H count gives "
                    "|H| = 2 |PSU_3(8)|"
          )(edge_count("H", ["A", "B", "C", "F", "sigma3"], 108, "AGL23S", 2))
    claim("L3.5.ii", "K1 n K2 = <A,B,C,F,sigma^3,sigma^2> of order 324, "
                     "isomorphic to C3 x AGL_2(3,S); the edge count gives "
                     "|K| = 6 |PSU_3(8)|"
          )(edge_count("K", ["A", "B", "C", "F", "sigma3", "sigma2"], 324,
                       "C3xAGL23S", 6))

    def amalgam_shape(group, sigma2, e_label):
        """The group's amalgam has its shape (D2 for H, E2 for K); T1, T2,
        X and C_{O_3(G2)}(F sigma^3) are the named subgroups, each with
        sigma^2 among its generators for K (sigma2 is [] or ["sigma2"]);
        for K that centralizer is also SP2."""
        def body(ctx):
            ok, d = ctx.shape(group)
            am, ng = ctx.amalgam(group), ctx.ng
            t1, t2, e = (_gen_closure(ng, K, sigma2 + names).eset for K, names in
                         ((ng.K1, ["A", "B", "F"]), (ng.K2, ["A", "B", "C", "Fsigma3"]),
                          (ng.K2, ["E"])))
            ce = getattr(ng, f"{group}2").p_core(3).centralizer([ng.p["Fsigma3"]])
            c = f"C_O3({group}2)(Fsigma3)"
            checks = {"T1_matches_named_gens": am.T1.eset == t1,
                      "T2_matches_named_gens": am.T2.eset == t2,
                      f"X_eq_{group}12": am.X.eset == getattr(ng, f"{group}12").eset,
                      f"{c}_eq_{e_label}": ce.eset == e}
            if group == "K":
                checks[f"{c}_iso_SP2"] = iso_check(ce, ctx.refs["SP2"])
            return ok and all(checks.values()), {**d, **checks}
        return body

    claim("L3.6.i", "the amalgam (H1, H2; H1 n H2) has shape D2", ("H",)
          )(amalgam_shape("H", [], "<E>"))
    claim("L3.6.ii", "the amalgam (K1, K2; K1 n K2) has shape E2", ("K",)
          )(amalgam_shape("K", ["sigma2"], "<s2,E>"))

    # -- graph scale -------------------------------------------------------

    @claim("L3.10.partial.i", "graph scale: 25536 + 34048 vertices "
                              "(2^6.3.7.19 and 2^8.7.19), 102144 edges, "
                              "biregular (4,3), bipartite, connected")
    def g1(ctx):
        g = ctx.graph
        deg = np.diff(g.indptr)
        d1 = set(deg[:g.n1].tolist())
        d2 = set(deg[g.n1:].tolist())
        connected = ctx.connected()
        ok = (g.n1 == 25536 and g.n2 == 34048 and len(g.edges) == 102144
              and d1 == {4} and d2 == {3} and connected
              and factorization(g.n1) == {2: 6, 3: 1, 7: 1, 19: 1}
              and factorization(g.n2) == {2: 8, 7: 1, 19: 1})
        return ok, {"n1": g.n1, "n2": g.n2, "edges": int(len(g.edges)),
                    "connected": connected}

    @claim("L3.10.partial.ii", "orbit-stabilizer: 25536 x |K1| = "
                               "33094656 = 2^10.3^5.7.19 = 6 |PSU_3(8)|; "
                               "Sylow 2 order 2^10")
    def g2(ctx):
        g = ctx.graph
        n = g.group_order_from_graph()
        fac = factorization(n)
        ok = (n == 33094656 and n == 6 * PSU38_ORDER
              and fac == {2: 10, 3: 5, 7: 1, 19: 1})
        return ok, {"order": n, "factorization": {str(k): v for k, v in fac.items()}}

    # -- transitivity ------------------------------------------------------

    @claim("P3.7.i", "locally 5-arc transitive for K: one orbit on s-arcs "
                     "at both base vertices for every s <= 5, and not at "
                     "s = 6", ("K",))
    def p37i(ctx):
        best, table = ctx.mls("K")
        ok = best == 5
        return ok, {"max_local_s": best,
                    "orbit_counts": [(s, a, b) for s, a, b in table]}

    @claim("P3.7.ii", "K-graph is of pushing up type for the base 1-arc "
                      "and prime 3", ("K",))
    def p37ii(ctx):
        return ctx.pushing_up("K")

    @claim("P3.7.iii", "the stabilizer in K of the named 5-arc equals "
                       "Z(O_3(K_{x1,x2})) = Z(Qh2), of order 9 = C3 x C3",
           ("K",))
    def p37iii(ctx):
        ng = ctx.ng
        arc = ctx.paper_arc()
        ka = arc_stabilizer(ctx.graph, arc, "K")
        zqh2 = ng.Qh2.center()
        o3 = ng.K12.p_core(3)
        ok = (ka.eset == zqh2.eset and len(ka) == 9
              and o3.eset == ng.Qh2.eset
              and iso_check(ka, ctx.refs["C3xC3"]))
        # orbit-stabilizer cross check at the arc's initial vertex
        stab_first = ctx.graph.stabilizer_key_rows([arc[0]], "K").shape[1]
        count = arc_count_formula(ctx.graph, arc[0], 5)
        ok = ok and stab_first == len(ka) * count
        return ok, {"|K_arc|": len(ka), "arc": [int(x) for x in arc],
                    "|O3(edge_stab)|": len(o3)}

    @claim("L3.8.pre", "the K-graph has local characteristic 3 (checked at "
                       "both orbit representatives, plus sampled vertices)",
           ("K",))
    def l38pre(ctx):
        _, d = ctx.pushing_up("K")
        s = ctx.sampled()["K"]
        return d["local_characteristic"] and s["wide_ok"] and s["deep_ok"], {
            "details": d["centralizer_details"], "sampled": s}

    claim("L3.8.i", "K_{x1} kernels: [1] = Qh1 x| C2 (order 54, split), "
                    "[2] = Qh1, [3] = [4] = Z(K1) = C3, [5] = 1; induced "
                    "action on the 4 neighbors is Sym(4)", ("K",)
          )(lambda ctx: ctx.kernel_claim("K", 1))
    claim("L3.8.ii", "K_{x2} kernels: [1] = Qh2 x| C2 (order 162, split), "
                     "[2] = [3] = Z(Qh2) = C3 x C3, [4] = 1; induced "
                     "action on the 3 neighbors is Sym(3)", ("K",)
          )(lambda ctx: ctx.kernel_claim("K", 2))

    @claim("L3.9", "K is transitive on 6-arcs at the valency-3 base vertex, "
                   "and the named 5-arc stabilizer is transitive on the far "
                   "extensions", ("K",))
    def l39(ctx):
        g = ctx.graph
        r = arc_orbits(g, g.base_x2, 6, "K")
        arc = ctx.paper_arc()
        ka = arc_stabilizer(g, arc, "K")
        y5, y4 = arc[0], arc[1]
        ends = [int(u) for u in g.neighbors(y5) if int(u) != y4]
        keys = np.array([x.key for x in ka.elems], dtype=np.uint64)
        transitive_ext = all(set(row) == set(ends)
                             for row in g.image_batch(ends, keys).tolist())
        ok = r["transitive"] and r["arc_count"] == 324 and transitive_ext
        return ok, {"orbits_s6_x2": r["orbit_count"], "arcs": r["arc_count"],
                    "extension_transitive": transitive_ext}

    @claim("L3.10.partial.iii", "every generator of K induces a graph "
                                "automorphism and K acts faithfully", ("K",))
    def aut1(ctx):
        g = ctx.graph
        ng = ctx.ng
        gen_names = ["A", "B", "C", "D", "E", "F", "sigma"]
        autos = {}
        ok = True
        for n in gen_names:
            x = ng.p[n]
            a = ctx.is_automorphism(x)
            trivial = bool(np.array_equal(g.perm(x), np.arange(g.nv)))
            autos[n] = {"automorphism": a, "acts_trivially": trivial}
            ok &= a and not trivial
        k5 = ctx.kern("K", 1).kernel(5)
        ok &= len(k5) == 1
        return ok, {"generators": autos, "kernel_bound": "action kernel <= "
                    "K_{x1}^[5], which is trivial", "|K_{x1}^[5]|": len(k5)}

    @claim("L3.11.pre", "the H-graph is locally 5-arc transitive, of local "
                        "characteristic 3 and pushing up type; H <= K",
           ("H",))
    def l311pre(ctx):
        ng = ctx.ng
        best, table = ctx.mls("H")
        pu, _ = ctx.pushing_up("H")
        s = ctx.sampled()["H"]
        hk = (ng.H1.eset <= ng.K1.eset and ng.H2.eset <= ng.K2.eset
              and ng.h_part(ng.K1).eset == ng.H1.eset
              and ng.h_part(ng.K2).eset == ng.H2.eset)
        ok = best == 5 and pu and hk and s["wide_ok"] and s["deep_ok"]
        return ok, {"max_local_s": best, "orbit_counts": table,
                    "pushing_up": pu, "H_in_K": hk, "sampled": s}

    claim("L3.11.i.1", "H_{x1} kernels: [1] = Q1 x| C2 (order 18, split), "
                       "[2] = Q1, [3] = 1; induced Sym(4)", ("H",)
          )(lambda ctx: ctx.kernel_claim("H", 1))
    claim("L3.11.i.2", "H_{x2} kernels: [1] = Q2 x| C2 (order 54, split), "
                       "[2] = [3] = Z(Q2) = C3, [4] = 1; induced Sym(3)", ("H",)
          )(lambda ctx: ctx.kernel_claim("H", 2))

    @claim("L3.11.ii", "H is transitive on 6-arcs at the valency-3 base "
                       "vertex; 6-arc orbit counts at the valency-4 vertex "
                       "are reported (transitivity there is arithmetically "
                       "impossible: 288 does not divide 432)", ("H",))
    def l311ii(ctx):
        g = ctx.graph
        r2 = arc_orbits(g, g.base_x2, 6, "H")
        r1 = arc_orbits(g, g.base_x1, 6, "H")
        arc = ctx.paper_arc()
        ha = arc_stabilizer(g, arc, "H")
        bbar = _gen_closure(ctx.ng, ctx.ng.K1, ["B"])
        ok = (r2["transitive"] and r2["arc_count"] == 324
              and ha.eset == bbar.eset and len(ha) == 3)
        return ok, {
            "orbits_s6_valency3": r2["orbit_count"],
            "orbits_s6_valency4": r1["orbit_count"],
            "valency4_orbit_sizes": r1["orbit_sizes"],
            "|H_arc|": len(ha),
            "note": "the printed 6-arc statement names the valency-4 vertex; "
                    "288 six-arcs cannot form one orbit under a group of "
                    "order 432, so the valency-3 reading is verified",
        }

    # -- main theorems -----------------------------------------------------

    @claim("T1.1.i", "the base vertices have valencies 4 and 3")
    def t11i(ctx):
        g = ctx.graph
        ok = g.degree(g.base_x1) == 4 and g.degree(g.base_x2) == 3
        return ok, {"deg_x1": g.degree(g.base_x1), "deg_x2": g.degree(g.base_x2)}

    @claim("T1.1.ii", "both the H-graph and the K-graph are of pushing up "
                      "type for the base 1-arc and prime 3")
    def t11ii(ctx):
        okh, okk = (ctx.pushing_up(group)[0] for group in "HK")
        return okh and okk, {"H": okh, "K": okk}

    @claim("T1.1.iii", "both groups are transitive on 6-arcs at the "
                       "valency-3 base vertex")
    def t11iii(ctx):
        # the s = 6 rows of the max_local_s tables: (6, orbits at x1, orbits at x2)
        h, k = ({s: x2 for s, _, x2 in ctx.mls(group)[1]}[6] for group in ("H", "K"))
        return h == 1 and k == 1, {"H_orbits": h, "K_orbits": k}

    # the shape verdicts again; L3.6.i and L3.6.ii hold their witnesses
    claim("T1.1.iv", "the H vertex stabilizer amalgam has shape D2", ("H",)
          )(lambda ctx: (ctx.shape("H")[0], {"see": "L3.6.i"}))
    claim("T1.1.v", "the K vertex stabilizer amalgam has shape E2", ("K",)
          )(lambda ctx: (ctx.shape("K")[0], {"see": "L3.6.ii"}))

    @claim("T1.1.pre", "max_local_s = 5 for both groups")
    def t11pre(ctx):
        bh, _ = ctx.mls("H")
        bk, _ = ctx.mls("K")
        return bh == 5 and bk == 5, {"H": bh, "K": bk}

    def t12_w(side, wanted):
        """W = O_3(H_x^[1]) has the wanted structure predicates and the H_x
        kernel chain matches, at the base vertex of this side."""
        def body(ctx):
            ok, d = ctx.kernel_claim("H", side)
            sp = ctx.kern("H", side).o3.structure_predicates(3)
            ok = ok and all(sp[k] == v for k, v in wanted.items())
            return ok, {**d, f"W{side}_predicates": sp}
        return body

    claim("T1.2.i", "W1 = O_3(H_{x1}^[1]) is elementary abelian of order 9 "
                    "and the H_{x1} kernel chain matches", ("H",)
          )(t12_w(1, {"order": 9, "is_elementary_abelian": True}))
    claim("T1.2.ii", "W2 = O_3(H_{x2}^[1]) is special of order 27 and "
                     "exponent 3 and the H_{x2} kernel chain matches", ("H",)
          )(t12_w(2, {"order": 27, "exponent": 3, "is_special": True}))

    def t12_wh(side):
        """Wh = O_3(K_x^[1]) = W x C3, with W = O_3(H_x^[1]), and the K_x
        kernel chain matches, at the base vertex of this side."""
        def body(ctx):
            ok1, d = ctx.kernel_claim("K", side)
            d = dict(d)
            dp = direct_product(_regular(ctx.kern("H", side).o3), ctx.refs["C3"])
            ok = ok1 and iso_check(ctx.kern("K", side).o3, dp)
            d[f"Wh{side}_iso_W{side}xC3"] = bool(ok)
            return ok, d
        return body

    claim("T1.2.iii", "Wh1 = O_3(K_{x1}^[1]) = W1 x C3 and the K_{x1} "
                      "kernel chain matches", ("K",))(t12_wh(1))
    claim("T1.2.iv", "Wh2 = O_3(K_{x2}^[1]) = W2 x C3 and the K_{x2} "
                     "kernel chain matches", ("K",))(t12_wh(2))

    @claim("NS.1", "at least one of the four extensions G_z over "
                   "O_3(G_z^[1]) is non-split (exhaustive complement search)")
    def ns1(ctx):
        res = ctx.split_searches()
        nonsplit = [k for k, v in res.items() if not v["split"]]
        return len(nonsplit) >= 1, {"cases": res, "non_split": nonsplit}

    @claim("RG.1", "reference group self-checks: AGL_1(3) = Sym(3), "
                   "PGL_2(3) = Sym(4), orders of the affine family, SP2 "
                   "extraspecial of exponent 9")
    def rg1(ctx):
        refs = ctx.refs
        ok = (iso_check(refs["AGL13"], refs["Sym3"])
              and iso_check(refs["PGL23"], refs["Sym4"])
              and len(refs["AGL23"]) == 432 and len(refs["AGL23S"]) == 108
              and refs["SP2"].is_extraspecial(3)
              and refs["SP2"].exponent() == 9)
        return ok, {"orders": {k: len(refs[k]) for k in
                               ("AGL23", "AGL23S", "AGL23S_sharp",
                                "AGL23S_star", "SP2")}}

    @claim("AMB.1", "definition-text note: the shape definition is titled "
                    "with ASL_2(3,S) but its body conditions use "
                    "AGL_2(3,S); the body conditions are what is checked")
    def amb1(ctx):
        return None, {"used": "AGL2(3,S) body conditions"}

    return cl


def _regular(G: SmallGroup) -> SmallGroup:
    """G as a permutation group: its right regular representation."""
    return G.quotient(G.subgroup([G.identity]))


def _plain(d: dict) -> dict:
    """Make a witness JSON-safe (bools, ints, strings, lists)."""
    out = {}
    for k, v in d.items():
        if isinstance(v, (bool, int, float, str)) or v is None:
            out[k] = v
        elif isinstance(v, dict):
            out[k] = _plain(v)
        elif isinstance(v, (list, tuple)):
            out[k] = [_plain(x) if isinstance(x, dict) else
                      (x if isinstance(x, (bool, int, float, str)) else str(x))
                      for x in v]
        else:
            out[k] = str(v)
    return out


# deep: the deep kernel's target in the chain and its order, or None
_KERNEL_EXPECT = {
    ("H", 1): {"k1_order": 18, "o3_name": "Q1", "deep": None,
               "chain": {2: "O3", 3: "1"}, "induced": "Sym4", "nbrs": 4},
    ("H", 2): {"k1_order": 54, "o3_name": "Q2", "deep": ("Z(O3)", 3),
               "chain": {2: "Z(O3)", 3: "Z(O3)", 4: "1"}, "induced": "Sym3",
               "nbrs": 3},
    ("K", 1): {"k1_order": 54, "o3_name": "Qh1", "deep": ("Z(G_z)", 3),
               "chain": {2: "O3", 3: "Z(G_z)", 4: "Z(G_z)", 5: "1"},
               "induced": "Sym4", "nbrs": 4},
    ("K", 2): {"k1_order": 162, "o3_name": "Qh2", "deep": ("Z(O3)", 9),
               "chain": {2: "Z(O3)", 3: "Z(O3)", 4: "1"}, "induced": "Sym3",
               "nbrs": 3},
}


def _kernel_claim(ctx, group: str, side: int):
    """Shared verification of one vertex's kernel chain against the
    expected structure table."""
    exp = _KERNEL_EXPECT[(group, side)]
    ng = ctx.ng
    refs = ctx.refs
    kd = ctx.kern(group, side)
    k1 = kd.kernel(1)
    named = {"Q1": ng.Q1, "Q2": ng.Q2, "Qh1": ng.Qh1, "Qh2": ng.Qh2}[exp["o3_name"]]
    o3 = kd.o3
    d = {"|G_z^[1]|": len(k1), "|O3|": len(o3)}
    ok = len(k1) == exp["k1_order"] and o3.eset == named.eset

    split = is_split_extension(k1, o3) is not None
    q = k1.quotient(o3)
    d["k1_split_over_O3"] = split
    d["k1_quotient_C2"] = len(q) == 2
    ok = ok and split and len(q) == 2

    stab = kd.stab
    zg = stab.center()
    targets = {
        "O3": o3.eset,
        "Z(O3)": o3.center().eset,
        "Z(G_z)": zg.eset,
        "1": frozenset([stab.identity]),
    }
    chain = {}
    for i, tname in exp["chain"].items():
        ki = kd.kernel(i)
        good = ki.eset == targets[tname]
        chain[f"[{i}]=={tname}"] = good
        chain[f"|[{i}]|"] = len(ki)
        ok = ok and good
    d["chain"] = chain
    if exp["deep"] is not None:
        tname, order = exp["deep"]
        zsub = stab.subgroup(targets[tname])
        d["deep_kernel_order"] = len(zsub)
        d["deep_kernel_elementary_abelian"] = zsub.is_elementary_abelian(3)
        ok = ok and len(zsub) == order and zsub.is_elementary_abelian(3)
    induced, kern_filter = kd.induced_neighbor_group()
    d["induced_order"] = len(induced)
    d["induced_iso"] = iso_check(induced, refs[exp["induced"]])
    d["kernel_by_filtering_matches"] = kern_filter.eset == k1.eset
    quot = stab.quotient(stab.subgroup(k1.eset))
    d["quotient_iso_induced"] = iso_check(quot, refs[exp["induced"]])
    ok = ok and d["induced_iso"] and d["kernel_by_filtering_matches"] \
        and d["quotient_iso_induced"]

    # proof-level witnesses: the kernel is the named p-group extended by
    # the expected involution
    ext = stab.generated(named.gens_list() + [ng.p["F" if side == 1 else "Fsigma3"]])
    d["k1_matches_named_extension"] = ext.eset == k1.eset
    ok = ok and d["k1_matches_named_extension"]
    return ok, d


# ---------------------------------------------------------------------------
# report


REPORT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["version", "environment", "overall", "claims"],
    "properties": {
        "version": {"type": "string"},
        "environment": {
            "type": "object",
            "required": ["modulus", "commutator_convention",
                         "conjugation_convention", "coset_convention"],
            "properties": {
                "modulus": {"type": "integer"},
                "commutator_convention": {"type": "string"},
                "conjugation_convention": {"type": "string"},
                "coset_convention": {"type": "string"},
                "numpy": {"type": "string"},
                "python": {"type": "string"},
            },
        },
        "overall": {"type": "boolean"},
        "total_seconds": {"type": "number"},
        "claims": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["id", "statement", "groups", "verdict",
                             "witness", "seconds"],
                "properties": {
                    "id": {"type": "string"},
                    "statement": {"type": "string"},
                    "groups": {"type": "array", "items": {"type": "string"}},
                    "verdict": {"enum": ["pass", "fail", "info", "error"]},
                    "witness": {"type": "object"},
                    "seconds": {"type": "number"},
                },
            },
        },
    },
}


def select_claims(group: str = "both", claim_filter: str | None = None) -> list[Claim]:
    """The catalog's claims of the group ("both" for all) whose ids the
    comma-separated prefixes of claim_filter select (all if it is empty).
    A selection that matches no claim raises ValueError, so no caller reads
    an empty run as a pass."""
    claims = build_claims()
    ids = [c.id for c in claims]
    if len(ids) != len(set(ids)):
        raise AssertionError("claim ids must be unique")
    prefixes = [p.strip().lower() for p in (claim_filter or "").split(",") if p.strip()]

    def matches(cid: str) -> bool:
        cid = cid.lower()
        # dot-separated segments: "L3.1" selects L3.1.* but not L3.10.*
        return not prefixes or any(cid == p or cid.startswith(p + ".") for p in prefixes)

    out = [c for c in claims if (group == "both" or group in c.groups) and matches(c.id)]
    if not out:
        raise ValueError(f"claim filter {claim_filter!r} selects no claim of group {group}")
    return out


def run_claims(ctx: VerifyContext, group: str = "both",
               claim_filter: str | None = None) -> dict:
    """The report of the claims that select_claims selects; ValueError if
    it selects none."""
    records = []
    overall = True
    t_all = time.perf_counter()
    for c in select_claims(group, claim_filter):
        t0 = time.perf_counter()
        verdict = None
        try:
            ok, witness = c.fn(ctx)
        except Exception as e:  # a crash is an error verdict, not a crash of the run
            verdict, witness = "error", {"error": repr(e)}
        dt = time.perf_counter() - t0
        if verdict == "error":
            overall = False
        elif ok is None:
            verdict = "info"
        else:
            verdict = "pass" if ok else "fail"
            overall = overall and ok
        records.append({"id": c.id, "statement": c.statement,
                        "groups": list(c.groups), "verdict": verdict,
                        "witness": _plain(witness), "seconds": dt})
        ctx._log(f"[{verdict.upper():4s}] {c.id} ({dt:.2f}s)")
    # a relations stage that raised leaves the conventions unresolved: the
    # report is still written, with overall false
    try:
        rel = ctx.relations
        conventions = rel.commutator_convention, rel.conjugation_convention
    except Exception:
        conventions = "unresolved", "unresolved"
        overall = False
    report = {
        "version": __version__,
        "environment": {
            "modulus": ctx.modulus,
            "commutator_convention": conventions[0],
            "conjugation_convention": conventions[1],
            "coset_convention": "vertices are cosets {k.g}; the group acts "
                                "by right multiplication",
            "numpy": np.__version__,
            "python": sys.version.split()[0],
        },
        "overall": overall,
        "total_seconds": time.perf_counter() - t_all,
        "claims": records,
    }
    return report


def format_report(report: dict) -> str:
    lines = []
    env = report["environment"]
    lines.append(f"psu38 {report['version']}  modulus={env['modulus']:#b}  "
                 f"commutator={env['commutator_convention']}  "
                 f"conjugation={env['conjugation_convention']}")
    for r in report["claims"]:
        mark = {"pass": "PASS", "fail": "FAIL", "info": "INFO",
                "error": "ERROR"}[r["verdict"]]
        lines.append(f"[{mark}] {r['id']:<18} {r['statement'][:86]:<88} "
                     f"({r['seconds']:.2f}s)")
    n = len(report["claims"])
    count = Counter(r["verdict"] for r in report["claims"])
    lines.append(f"{count['pass']}/{n} pass, {count['fail']} fail, "
                 f"{count['error']} error ({report['total_seconds']:.1f}s total)")
    lines.append("OVERALL: " + ("PASS" if report["overall"] else "FAIL"))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# CLI


def _add_common(p):
    p.add_argument("--modulus", type=lambda s: int(s, 0), default=DEFAULT_MODULUS,
                   help="degree-6 modulus bitmask (default 0b1011011)")
    p.add_argument("-v", "--verbose", action="store_true")


def _arc_length(text: str) -> int:
    s = int(text)
    if s < 0:
        raise argparse.ArgumentTypeError(f"arc length {s} is negative")
    return s


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="psu38",
        description="Builds the 59,584-vertex bipartite coset graph for "
                    "PSU_3(8) and verifies its arc-transitivity and "
                    "stabilizer structure claims.",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("build", help="build field tables, groups and the "
                                     "graph, and print its counts")
    _add_common(p)

    p = sub.add_parser("verify", help="run the claim catalog")
    _add_common(p)
    p.add_argument("--group", choices=["H", "K", "both"], default="both")
    p.add_argument("--claims", default=None,
                   help="comma-separated claim id prefixes, e.g. L3.1,T1.2")
    p.add_argument("--json", action="store_true", help="print the JSON report")
    p.add_argument("--out", default=None, help="write the JSON report here")

    p = sub.add_parser("export", help="export the graph")
    _add_common(p)
    p.add_argument("--format", choices=["edge-list", "sparse6"],
                   required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("arcs", help="arc orbit table for one vertex side")
    _add_common(p)
    p.add_argument("--side", type=int, choices=[1, 2], required=True)
    p.add_argument("--s", type=_arc_length, required=True)
    p.add_argument("--group", choices=["H", "K"], default="K")
    p.add_argument("--out", default=None, help="write a CSV here")

    p = sub.add_parser("field-table", help="dump the exp/log tables")
    p.add_argument("--modulus", type=lambda s: int(s, 0), default=DEFAULT_MODULUS)
    return ap


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        if args.cmd == "field-table":
            f = GF64(args.modulus)
            print(f"# GF(64), modulus {f.modulus:#b}")
            for i in range(63):
                print(f"{i:2d} {f.exp[i]:2d}")
            return EXIT_OK

        ctx = VerifyContext(modulus=args.modulus, verbose=args.verbose)
        # a reducible modulus fails here, before any claim runs or any
        # file is opened
        ctx.field

        if args.cmd == "build":
            g = ctx.graph
            print(f"graph: {g.n1} + {g.n2} vertices, {len(g.edges)} edges")
            return EXIT_OK

        if args.cmd == "verify":
            # after the modulus, an empty selection, then the report file,
            # are checked: each fails before any claim runs and writes no
            # report
            try:
                select_claims(args.group, args.claims)
            except ValueError:
                print(f"configuration error: --claims {args.claims!r} selects no "
                      f"claim of --group {args.group}", file=sys.stderr)
                return EXIT_CONFIG
            with open(args.out, "w") if args.out else contextlib.nullcontext() as fh:
                report = run_claims(ctx, group=args.group, claim_filter=args.claims)
                if fh:
                    json.dump(report, fh, indent=2, sort_keys=True)
            if args.json:
                print(json.dumps(report, indent=2, sort_keys=True))
            else:
                print(format_report(report))
            if report["overall"]:
                return EXIT_OK
            failed = any(c["verdict"] == "fail" for c in report["claims"])
            return EXIT_CLAIM_FAIL if failed else EXIT_ERROR

        if args.cmd == "export":
            g = ctx.graph
            if args.format == "edge-list":
                n = export_edge_list(g, args.out)
                print(f"{n} edges written to {args.out}")
            else:
                n = export_sparse6(g, args.out)
                print(f"sparse6 with {n} vertices written to {args.out}")
            return EXIT_OK

        if args.cmd == "arcs":
            g = ctx.graph
            v = g.base_x1 if args.side == 1 else g.base_x2
            r = arc_orbits(g, v, args.s, args.group)
            print(f"side {args.side} s={args.s} group={args.group}: "
                  f"{r['arc_count']} arcs, {r['orbit_count']} orbits, "
                  f"sizes {r['orbit_sizes']}")
            if args.out:
                with open(args.out, "w") as fh:
                    fh.write("side,s,group,arc_count,orbit_count,orbit_sizes\n")
                    sizes = ";".join(str(x) for x in r["orbit_sizes"])
                    fh.write(f"{args.side},{args.s},{args.group},"
                             f"{r['arc_count']},{r['orbit_count']},{sizes}\n")
            return EXIT_OK
    except BadModulus as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as e:  # a path that cannot be read or written
        print(f"file error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as e:  # a crash in a stage is no mathematical failure
        print(f"error: {e!r}", file=sys.stderr)
        return EXIT_ERROR
    return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

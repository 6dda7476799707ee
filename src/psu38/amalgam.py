"""Amalgam invariants T1, T2, X and the shape predicates for the two
vertex stabilizer amalgams.

For an amalgam (G1, G2; G12), T_i is the normal core of G12 in G_i and
X is the smallest subgroup between T1 T2 and G12 that is closed under
the condition X = G12 n <X^{G_i}> for both i; it is computed by a
monotone fixed-point iteration whose result is checked to be
independent of the alternation order.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dfield

from .grp import SmallGroup, iso_check, is_split_extension


@dataclass
class Amalgam:
    name: str
    G1: SmallGroup
    G2: SmallGroup
    G12: SmallGroup
    T1: SmallGroup | None = None
    T2: SmallGroup | None = None
    X: SmallGroup | None = None
    details: dict = dfield(default_factory=dict)


def core_in(G12: SmallGroup, Gi: SmallGroup) -> SmallGroup:
    """Normal core of G12 in Gi: the largest subgroup of G12 normal in Gi,
    computed as the intersection of the Gi-conjugates of G12."""
    assert G12 <= Gi
    out = Gi.core(G12)
    assert Gi.is_normal(out) and out <= G12
    return out


def _closure_step(am: Amalgam, X: SmallGroup, order: tuple[int, int]) -> SmallGroup:
    for i in order:
        Gi = am.G1 if i == 1 else am.G2
        nc = Gi.normal_closure(X.gens_list())
        X = am.G12.intersect(nc)
    return X


def compute_X(am: Amalgam) -> SmallGroup:
    """Fixed point of X -> G12 n <X^{Gi}> starting from <T1 T2>; monotone
    nondecreasing, independent of alternation order (asserted), and
    probed for minimality by dropping single generators."""
    seed = am.G12.span(am.T1.gens_list() + am.T2.gens_list())
    results = []
    for order in ((1, 2), (2, 1)):
        X = seed
        while True:
            Y = _closure_step(am, X, order)
            if Y.iset == X.iset:
                break
            assert X.iset <= Y.iset, "iteration must be monotone"
            X = Y
        results.append(X)
    assert results[0].iset == results[1].iset, "fixed point depends on order"
    X = results[0]
    # closure conditions at the fixed point
    for i in (1, 2):
        Gi = am.G1 if i == 1 else am.G2
        nc = Gi.normal_closure(X.gens_list())
        assert X.iset == am.G12.intersect(nc).iset
    # minimality probe: any proper sub-seed must iterate back up to X
    gens = X.gens_list()
    for k in range(len(gens)):
        Y = am.G12.span(seed.elems + [g for j, g in enumerate(gens) if j != k])
        if Y.iset == X.iset:
            continue
        while True:
            Z = _closure_step(am, Y, (1, 2))
            if Z.iset == Y.iset:
                break
            Y = Z
        assert Y.iset == X.iset, "found a smaller closed subgroup above T1 T2"
    return X


def analyze(name: str, G1: SmallGroup, G2: SmallGroup, G12: SmallGroup) -> Amalgam:
    am = Amalgam(name, G1, G2, G12)
    am.T1 = core_in(G12, G1)
    am.T2 = core_in(G12, G2)
    am.X = compute_X(am)
    return am


# ---------------------------------------------------------------------------
# shape predicates


def shape_agl23s(am: Amalgam, refs: dict) -> tuple[bool, dict]:
    """(i) G12 = X; (ii) T2 = C_X(Z(O_3(X))) and G2/Z(O_3(X)) = AGL_2(3,S)
    up to isomorphism."""
    X = am.X
    o3x = X.p_core(3)
    zo3x = o3x.center()
    c = X.centralizer(zo3x.gens_list())
    q = am.G2.quotient(zo3x)
    d = {
        "G12_eq_X": am.G12.eset == X.eset,
        "|O3(X)|": len(o3x),
        "|Z(O3(X))|": len(zo3x),
        "T2_eq_CX": am.T2.eset == c.eset,
        "G2/Z(O3(X))_iso_AGL23S": iso_check(q, refs["AGL23S"]),
    }
    am.details["o3x"] = o3x
    am.details["zo3x"] = zo3x
    ok = d["G12_eq_X"] and d["T2_eq_CX"] and d["G2/Z(O3(X))_iso_AGL23S"]
    return ok, d


def _syl2_of(T2: SmallGroup) -> SmallGroup:
    s = T2.sylow(2)
    assert len(s) == 2
    return s


def shape_d2(am: Amalgam, refs: dict) -> tuple[bool, dict]:
    base, bd = shape_agl23s(am, refs)
    o3x = am.details["o3x"]
    o3g2 = am.G2.p_core(3)
    t = _syl2_of(am.T2)
    cent = o3g2.centralizer(t.gens_list())
    qa = am.G2.quotient(o3x)
    d = dict(bd)
    d.update({
        "G1_iso_AGL23": iso_check(am.G1, refs["AGL23"]),
        "G12_iso_AGL23S": iso_check(am.G12, refs["AGL23S"]),
        "G2_over_O3X_iso_C2xAGL13": iso_check(qa, refs["C2xAGL13"]),
        "G2_over_O3X_split": is_split_extension(am.G2, o3x) is not None,
        "T2_iso_sharp": iso_check(am.T2, refs["AGL23S_sharp"]),
        "C_O3(G2)(T)_iso_C9": iso_check(cent, refs["C9"]),
    })
    ok = base and all(
        d[k] for k in ("G1_iso_AGL23", "G12_iso_AGL23S",
                       "G2_over_O3X_iso_C2xAGL13", "T2_iso_sharp",
                       "C_O3(G2)(T)_iso_C9")
    )
    return ok, d


def holomorph_semidirect(Z: SmallGroup, G: SmallGroup) -> SmallGroup:
    """Z x| (automorphisms of Z induced by G acting by conjugation), as
    the permutation group on Z's sorted elements generated by the right
    translations by Z's generators and the conjugations by G's."""
    zl = Z.sorted_elems()
    zi = {x: i for i, x in enumerate(zl)}
    shifts = [tuple([zi[x * z] for x in zl]) for z in Z.gens_list()]
    auts = [tuple([zi[g.inv() * x * g] for x in zl]) for g in G.gens_list()]
    sd = SmallGroup.generate(shifts + auts, name=f"{Z.name} x| aut")
    # the translations are regular and the automorphisms fix Z's identity
    assert len(sd) == len(zl) * len(SmallGroup.generate(auts))
    return sd


def shape_e2(am: Amalgam, refs: dict) -> tuple[bool, dict]:
    base, bd = shape_agl23s(am, refs)
    o3x = am.details["o3x"]
    zo3x = am.details["zo3x"]
    o3g2 = am.G2.p_core(3)
    t = _syl2_of(am.T2)
    cent = o3g2.centralizer(t.gens_list())
    qa = am.G2.quotient(o3x)
    c2 = am.G2.centralizer(zo3x.gens_list())
    sd = holomorph_semidirect(zo3x, am.G2)
    d = dict(bd)
    d.update({
        "G1_iso_C3xAGL23": iso_check(am.G1, refs["C3xAGL23"]),
        "G12_iso_C3xAGL23S": iso_check(am.G12, refs["C3xAGL23S"]),
        "G2_over_O3X_iso_C2xAGL13": iso_check(qa, refs["C2xAGL13"]),
        "G2_over_O3X_split": is_split_extension(am.G2, o3x) is not None,
        "T2_iso_C3xsharp": iso_check(am.T2, refs["C3xAGL23S_sharp"]),
        "|G2/C(Z(O3X))|": len(am.G2) // len(c2),
        "semidirect_iso_star": iso_check(sd, refs["AGL23S_star"]),
        "C_O3(G2)(T)_iso_SP2": iso_check(cent, refs["SP2"]),
    })
    ok = base and all(
        d[k] for k in ("G1_iso_C3xAGL23", "G12_iso_C3xAGL23S",
                       "G2_over_O3X_iso_C2xAGL13", "T2_iso_C3xsharp",
                       "semidirect_iso_star", "C_O3(G2)(T)_iso_SP2")
    )
    return ok, d

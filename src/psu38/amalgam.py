"""Amalgam invariants T1, T2, X and the shape predicates for the two
vertex stabilizer amalgams.

For an amalgam (G1, G2; G12), T_i is the normal core of G12 in G_i and
X is the smallest subgroup between T1 T2 and G12 that is closed under
the condition X = G12 n <X^{G_i}> for both i.  It is the limit of the
monotone, inflationary iteration of that condition from <T1, T2>, and so
the least closed subgroup above it (compute_X gives the proof); the
limit is checked to be independent of the alternation order and closed.
Every check raises AssertionError, so it holds under python -O too.
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
    if not G12 <= Gi:
        raise AssertionError("G12 is not a subgroup of Gi")
    out = Gi.core(G12)
    if not (Gi.is_normal(out) and out <= G12):
        raise AssertionError("core is not a normal subgroup of Gi inside G12")
    return out


def _closure_step(am: Amalgam, X: SmallGroup, order: tuple[int, int]) -> SmallGroup:
    for i in order:
        Gi = am.G1 if i == 1 else am.G2
        nc = Gi.normal_closure(X.gens_list())
        X = am.G12.intersect(nc)
    return X


def compute_X(am: Amalgam) -> SmallGroup:
    """The fixed point of X -> G12 n <X^{Gi}> (i = 1, 2 in turn) from the
    seed <T1, T2>, the same for both alternation orders (checked).

    It is the least closed subgroup (X = G12 n <X^{Gi}> for both i) above
    the seed, so minimality needs no check.  On subgroups of G12 each step is monotone (X <= Y
    gives <X^{Gi}> <= <Y^{Gi}>) and inflationary (X <= G12 n <X^{Gi}>).
    Let Y be closed with seed <= Y.  If an iterate X lies in Y, so does
    the next, since G12 n <X^{Gi}> <= G12 n <Y^{Gi}> = Y; by induction
    from the seed every iterate does, and so the limit does (Kleene).
    For both amalgams of the construction the seed is G12 already, so
    the first step returns it and X = G12."""
    seed = am.G12.generated(am.T1.gens_list() + am.T2.gens_list())
    results = []
    for order in ((1, 2), (2, 1)):
        X = seed
        while True:
            Y = _closure_step(am, X, order)
            if Y.iset == X.iset:
                break
            if not X.iset <= Y.iset:
                raise AssertionError("iteration must be monotone")
            X = Y
        results.append(X)
    if results[0].iset != results[1].iset:
        raise AssertionError("fixed point depends on order")
    X = results[0]
    # closure conditions at the fixed point
    for i in (1, 2):
        Gi = am.G1 if i == 1 else am.G2
        nc = Gi.normal_closure(X.gens_list())
        if X.iset != am.G12.intersect(nc).iset:
            raise AssertionError(f"fixed point is not closed under G{i}")
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


def _t_centralizer(am: Amalgam) -> SmallGroup:
    """C_{O_3(G2)}(T) for T the Sylow 2-subgroup of T2, of order 2."""
    t = am.T2.sylow(2)
    if len(t) != 2:
        raise AssertionError("Sylow 2-subgroup of T2 is not of order 2")
    return am.G2.p_core(3).centralizer(t.gens_list())


def _shape_over_o3x(am: Amalgam, refs: dict, base: bool, d: dict,
                    isos: list) -> tuple[bool, dict]:
    """Shapes D2 and E2 past the AGL_2(3,S) conditions (base, d):
    G2/O_3(X) = C2 x AGL_1(3) with the split verdict of G2 over O_3(X)
    recorded, and one isomorphism per (witness key, group, reference
    group) of isos.  Every isomorphism must hold."""
    o3x = am.details["o3x"]
    isos = [("G2_over_O3X_iso_C2xAGL13", am.G2.quotient(o3x), "C2xAGL13")] + isos
    checks = {key: iso_check(G, refs[ref]) for key, G, ref in isos}
    d.update(checks)
    d["G2_over_O3X_split"] = is_split_extension(am.G2, o3x) is not None
    return base and all(checks.values()), d


def shape_d2(am: Amalgam, refs: dict) -> tuple[bool, dict]:
    base, d = shape_agl23s(am, refs)
    return _shape_over_o3x(am, refs, base, d, [
        ("G1_iso_AGL23", am.G1, "AGL23"),
        ("G12_iso_AGL23S", am.G12, "AGL23S"),
        ("T2_iso_sharp", am.T2, "AGL23S_sharp"),
        ("C_O3(G2)(T)_iso_C9", _t_centralizer(am), "C9"),
    ])


def holomorph_semidirect(Z: SmallGroup, G: SmallGroup) -> SmallGroup:
    """Z x| (automorphisms of Z induced by G acting by conjugation), as
    the permutation group on Z's elements in table order generated by the
    right translations by Z's generators and the conjugations by G's,
    taken on the indices of G's table, which must hold Z."""
    tab = G.tab
    zl = sorted(G._ix(Z))
    zi = {x: i for i, x in enumerate(zl)}
    shifts = [tuple([zi[tab.mul(x, z)] for x in zl]) for z in G._ixgens(Z)]
    auts = [tuple([zi[tab.conj(x, g)] for x in zl]) for g in G._gl()]
    sd = SmallGroup.generate(shifts + auts)
    # the translations are regular and the automorphisms fix Z's identity
    if len(sd) != len(zl) * len(SmallGroup.generate(auts)):
        raise AssertionError("semidirect product has the wrong order")
    return sd


def shape_e2(am: Amalgam, refs: dict) -> tuple[bool, dict]:
    """Shape E2 adds |G2/C_G2(Z(O_3(X)))| and the holomorph of Z(O_3(X))
    by the automorphisms G2 induces."""
    base, d = shape_agl23s(am, refs)
    zo3x = am.details["zo3x"]
    d["|G2/C(Z(O3X))|"] = len(am.G2) // len(am.G2.centralizer(zo3x.gens_list()))
    return _shape_over_o3x(am, refs, base, d, [
        ("G1_iso_C3xAGL23", am.G1, "C3xAGL23"),
        ("G12_iso_C3xAGL23S", am.G12, "C3xAGL23S"),
        ("T2_iso_C3xsharp", am.T2, "C3xAGL23S_sharp"),
        ("semidirect_iso_star", holomorph_semidirect(zo3x, am.G2), "AGL23S_star"),
        ("C_O3(G2)(T)_iso_SP2", _t_centralizer(am), "SP2"),
    ])

import types

import pytest

from psu38 import amalgam
from psu38.amalgam import (Amalgam, analyze, compute_X, core_in, holomorph_semidirect,
                           shape_agl23s, shape_d2, shape_e2)
from psu38.gf64 import ALT_MODULI, DEFAULT_MODULUS
from psu38.grp import SmallGroup, iso_check, sym_group
from psu38.harness import VerifyContext


@pytest.fixture(scope="module")
def amH(ctx):
    return ctx.amalgam("H")


@pytest.fixture(scope="module")
def amK(ctx):
    return ctx.amalgam("K")


def test_cores_H(amH, ng):
    t1 = SmallGroup.generate([ng.p["A"], ng.p["B"], ng.p["F"]])
    t2 = SmallGroup.generate([ng.p["A"], ng.p["B"], ng.p["C"], ng.p["Fsigma3"]])
    assert amH.T1.eset == t1.eset and len(amH.T1) == 18
    assert amH.T2.eset == t2.eset and len(amH.T2) == 54
    assert ng.H1.is_normal(amH.T1)
    assert ng.H2.is_normal(amH.T2)
    assert amH.T1.eset <= ng.H12.eset and amH.T2.eset <= ng.H12.eset


def test_cores_K(amK, ng):
    t1 = SmallGroup.generate([ng.p["sigma2"], ng.p["A"], ng.p["B"], ng.p["F"]])
    t2 = SmallGroup.generate([ng.p["sigma2"], ng.p["A"], ng.p["B"], ng.p["C"],
                              ng.p["Fsigma3"]])
    assert amK.T1.eset == t1.eset
    assert amK.T2.eset == t2.eset and len(amK.T2) == 162


def test_core_in_whole_group(ng):
    assert core_in(ng.Q2, ng.Q2).eset == ng.Q2.eset


def test_X_is_whole_edge_group(amH, amK, ng):
    assert amH.X.eset == ng.H12.eset
    assert amK.X.eset == ng.K12.eset


@pytest.mark.parametrize("modulus", [DEFAULT_MODULUS, ALT_MODULI[0]], ids=hex)
@pytest.mark.parametrize("group, order", [("H", 108), ("K", 324)])
def test_X_is_the_seed(ctx, modulus, group, order):
    """X = <T1, T2> = G12 for both amalgams: the iteration starts at its
    fixed point, which is why X is minimal above the seed at once."""
    am = (ctx if modulus == DEFAULT_MODULUS else VerifyContext(modulus)).amalgam(group)
    seed = am.G12.generated(am.T1.gens_list() + am.T2.gens_list())
    assert am.X.iset == seed.iset == am.G12.iset and len(am.X) == order


def test_X_degenerate_case(refs):
    """When G12 is normal in both factors, X is just T1 T2."""
    sym4 = sym_group(4)
    v4 = sym4.p_core(2)
    am_sub = analyze("deg", sym4, sym4, v4)
    assert am_sub.T1.eset == v4.eset
    assert am_sub.X.eset == v4.eset


def test_shapes(ctx, amH, amK, refs):
    okH, dH = shape_d2(amH, refs)
    assert okH and dH["T2_iso_sharp"]
    okK, dK = shape_e2(amK, refs)
    assert okK and dK["semidirect_iso_star"] and dK["C_O3(G2)(T)_iso_SP2"]


def test_shape_fails_on_weak_amalgam():
    sym4 = sym_group(4)
    # G1 = Sym({0,1,2}), G2 = Sym({1,2,3}) inside Sym(4), G12 = <(1 2)>
    g1 = SmallGroup.generate([(1, 0, 2, 3), (1, 2, 0, 3)])
    g2 = SmallGroup.generate([(0, 2, 1, 3), (0, 2, 3, 1)])
    g12 = sym4.subgroup(g1.eset & g2.eset)
    assert len(g1) == 6 and len(g2) == 6 and len(g12) == 2
    am = analyze("weak", g1, g2, g12)
    from psu38.grp import reference_groups
    ok, _ = shape_agl23s(am, reference_groups())
    assert not ok


def test_e2_fails_for_H(amH, refs):
    ok, d = shape_e2(amH, refs)
    assert not ok
    assert not d["G1_iso_C3xAGL23"]  # 432 vs 1296


def test_d2_fails_for_K(amK, refs):
    ok, d = shape_d2(amK, refs)
    assert not ok


def test_centralizer_element_identity(ng):
    o3h2 = ng.H2.p_core(3)
    assert len(o3h2) == 81
    ce = o3h2.centralizer([ng.p["Fsigma3"]])
    ebar = SmallGroup.generate([ng.p["E"]])
    assert ce.eset == ebar.eset


def test_holomorph_semidirect_model(ng, refs):
    z = ng.Qh2.center()
    sd = holomorph_semidirect(z, ng.K2)
    assert len(sd) == 54
    assert iso_check(sd, refs["AGL23S_star"])


def test_compute_X_alternation_insensitive(amH):
    # analyze() already checks that both orders agree; recompute to exercise it
    x = compute_X(amH)
    assert x.eset == amH.X.eset


def test_core_in_checks_its_input_and_result(ng, monkeypatch):
    """core_in refuses a G12 outside Gi, and a core that is not normal:
    H12 is not normal in H1."""
    with pytest.raises(AssertionError, match="G12 is not a subgroup of Gi"):
        core_in(ng.H1, ng.H12)
    monkeypatch.setattr(SmallGroup, "core", lambda self, H: H)
    with pytest.raises(AssertionError, match="core is not a normal subgroup of Gi inside G12"):
        core_in(ng.H12, ng.H1)


def test_compute_X_checks_each_step_and_the_fixed_point(amH, ng, monkeypatch):
    """A step that shrinks X breaks monotonicity; a step that keeps any X
    stops at a seed, here a Sylow 2-subgroup of H12, that is not closed."""
    monkeypatch.setattr(amalgam, "_closure_step", lambda am, X, order: am.G12.generated([]))
    with pytest.raises(AssertionError, match="iteration must be monotone"):
        compute_X(amH)
    monkeypatch.setattr(amalgam, "_closure_step", lambda am, X, order: X)
    am = Amalgam("P", ng.H1, ng.H2, ng.H12, T1=ng.H12.sylow(2), T2=ng.H12.generated([]))
    with pytest.raises(AssertionError, match="fixed point is not closed under G_i"):
        compute_X(am)


def test_shape_checks_of_T2_and_the_holomorph(ng, refs, monkeypatch):
    """A T2 whose Sylow 2-subgroup has order 8, not 2, is refused, and
    conjugations read as translations by an element of Z (which move Z's
    identity) do not give the holomorph's order."""
    with pytest.raises(AssertionError, match="Sylow 2-subgroup of T2 is not of order 2"):
        amalgam._t_centralizer(types.SimpleNamespace(T2=refs["Sym4"]))
    z, tab = ng.Qh2.center(), ng.K2.tab
    shift = max(z.idx)
    monkeypatch.setattr(tab, "conj", lambda x, g: tab.mul(x, shift))
    with pytest.raises(AssertionError, match="semidirect product has the wrong order"):
        holomorph_semidirect(z, ng.K2)

"""Runtime proof obligations (psu38.obligations).  Every check that a
verdict rests on is one obligation(...) call with a fixed name, each name
has a fault test that breaks it, and a broken obligation ends in the
verdict error or exit 4, never fail or exit 1.  One fault test per stage
lives here; the graph's group action and the arc walk have theirs in
test_harness (unsorted stabilizer keys, colliding images) and test_arcs
(a faulty stabilizer permutation)."""

import ast
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from psu38 import amalgam, coset, grp, harness, psu
from psu38.coset import CosetGraph
from psu38.harness import VerifyContext, main, run_claims

TESTS = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(TESTS), "src")

# the obligations with no fault test, each with the reason: checks of the
# reference constructions on fixed data, which no input reaches
NO_FAULT_TEST = (
    ("C_V(S) is not Z(S)", "affine_refs on the fixed affine maps of AGL_2(3)"),
    ("AGL2(3,S) modulo its derived subgroup is not abelian", "affine_refs, fixed data"),
    ("sharp subgroup not unique", "_index2_variants on the fixed AGL_2(3,S)"),
    ("star subgroup not unique", "_index2_variants on the fixed AGL_2(3,S)"),
    ("no two distinct sharp and star subgroups", "_index2_variants, fixed data"),
    ("SP2 is not extraspecial of order 27 and exponent 9", "sp2_group's two fixed maps of Z9"),
)


def _obligation_sites():
    """The first argument of every obligation(...) call in src/psu38 (None
    if it is no string literal), and the places that assert or raise
    AssertionError, as (file, line)."""
    names, raises = {}, []
    pkg = os.path.join(SRC, "psu38")
    for fname in sorted(f for f in os.listdir(pkg) if f.endswith(".py")):
        with open(os.path.join(pkg, fname)) as f:
            tree = ast.parse(f.read())
        for n in ast.walk(tree):
            if isinstance(n, ast.Call):
                if getattr(n.func, "id", getattr(n.func, "attr", None)) == "obligation":
                    first = n.args[0] if n.args else None
                    name = first.value if isinstance(first, ast.Constant) else None
                    names.setdefault(name if isinstance(name, str) else None, []).append(
                        (fname, n.lineno))
            elif isinstance(n, ast.Assert):
                raises.append((fname, n.lineno))
            elif isinstance(n, ast.Raise) and fname != "obligations.py":
                exc = n.exc.func if isinstance(n.exc, ast.Call) else n.exc
                if getattr(exc, "id", None) == "AssertionError":
                    raises.append((fname, n.lineno))
    return names, raises


def _test_sources() -> str:
    """The tests/test_*.py modules' text, NO_FAULT_TEST's lines left out."""
    texts = []
    for fname in sorted(f for f in os.listdir(TESTS) if f.startswith("test_")
                        and f.endswith(".py")):
        with open(os.path.join(TESTS, fname)) as f:
            text = f.read()
        start = text.find("\nNO_FAULT_TEST = (\n")
        if start >= 0:
            text = text[:start] + text[text.index("\n)\n", start):]
        texts.append(text)
    return "\n".join(texts)


def test_every_obligation_is_named_and_has_a_fault_test():
    """No module of psu38 asserts (python -O would strip it) or raises
    AssertionError but through obligation(); each call names its
    obligation by a string literal, and each name is a double-quoted
    string of some test module, the fault test that breaks it, or is
    exempt with a reason."""
    names, raises = _obligation_sites()
    assert raises == []
    assert None not in names, names.get(None)
    exempt = dict(NO_FAULT_TEST)
    tests = _test_sources()
    assert sorted(n for n in names if f'"{n}"' not in tests and n not in exempt) == []
    assert sorted(set(exempt) - set(names)) == []


def test_an_obligation_holds_under_python_dash_O():
    """obligation() is a call, not an assert, so python -O keeps it: with
    dihedral_18 swapped for C9, reference_groups' order check makes RG.1
    an error naming it, and the run exits 4 with no claim failed."""
    code = ("import sys\n"
            "from psu38 import grp, harness\n"
            "assert False, 'python -O keeps asserts'\n"
            "grp.dihedral_18 = lambda: grp.cyclic_group(9)\n"
            "sys.exit(harness.main(['verify', '--claims', 'RG.1', '--json']))\n")
    out = subprocess.run([sys.executable, "-O", "-c", code],
                         env=dict(os.environ, PYTHONPATH=SRC),
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 4, out.stderr
    (rg1,) = json.loads(out.stdout)["claims"]
    assert rg1["verdict"] == "error"
    assert "a reference group has the wrong order" in rg1["witness"]["error"]


def _errors(report) -> dict:
    """Claim id -> the error of its witness; every claim must be an error."""
    assert {c["verdict"] for c in report["claims"]} == {"error"}
    return {c["id"]: c["witness"]["error"] for c in report["claims"]}


def test_a_build_obligation_exits_4(ng, monkeypatch, capsys):
    """Graph build: with |G| too small for the four side-2 vertices of
    the first layer, psu38 build stops at the BFS's coset bound, exit 4
    naming it."""
    monkeypatch.setattr(coset, "GROUP_ORDER", 3 * len(ng.K2))
    assert main(["build"]) == 4
    assert "more cosets than |G| allows; convention bug" in capsys.readouterr().err


def test_an_amalgam_obligation_is_an_error(fresh_ctx, monkeypatch):
    """Amalgam: with the closure step corrupted in the order (2, 1) to
    return the normal closure in G1 without intersecting it with G12, the
    two alternation orders reach different subgroups (H12, which is not
    normal in H1, and its normal closure), and L3.6.i is an error."""
    step = amalgam._closure_step
    monkeypatch.setattr(amalgam, "_closure_step", lambda am, X, order: (
        step(am, X, order) if order == (1, 2) else am.G1.normal_closure(X.gens_list())))
    errors = _errors(run_claims(fresh_ctx, claim_filter="L3.6.i"))
    assert "fixed point depends on order" in errors["L3.6.i"]


def test_a_reference_group_obligation_is_an_error(monkeypatch):
    """Reference groups: dihedral_18 swapped for C9 makes RG.1 an error."""
    monkeypatch.setattr(grp, "dihedral_18", lambda: grp.cyclic_group(9))
    errors = _errors(run_claims(VerifyContext(), claim_filter="RG.1"))
    assert "a reference group has the wrong order" in errors["RG.1"]


def test_generator_and_relation_obligations_are_errors(monkeypatch):
    """Generators and relations: a defining matrix read as outside SU_3(8)
    makes SU.1 and CONV.1 errors, and leaves the report's conventions
    unresolved; a sigma that acts as no Frobenius image makes CONV.1 an
    error."""
    su = psu.special_unitary
    monkeypatch.setattr(psu, "special_unitary", lambda ops, keys: [False] + su(ops, keys)[1:])
    report = run_claims(VerifyContext(), claim_filter="SU.1,CONV.1")
    assert report["environment"]["conjugation_convention"] == "unresolved"
    assert all("a generator is not in SU_3(8)" in e for e in _errors(report).values())
    monkeypatch.setattr(psu, "special_unitary", su)
    rows = psu.relation_rows

    def no_frobenius(field):
        table, sigma = rows(field)
        return table, {j: [False] * len(v) for j, v in sigma.items()}
    monkeypatch.setattr(psu, "relation_rows", no_frobenius)
    errors = _errors(run_claims(VerifyContext(), claim_filter="CONV.1"))
    assert "sigma conjugation does not match the Frobenius image" in errors["CONV.1"]


@pytest.mark.parametrize("fault", ["backtracks", "no path"])
def test_paper_arc_obligations_are_errors(fresh_ctx, monkeypatch, fault):
    """The named 5-arc: with the action fixing every vertex, x1 and x2
    alternate and the arc backtracks; with no neighbors listed, the named
    cosets form no path.  P3.7.iii, which reads the arc, is an error."""
    if fault == "backtracks":
        monkeypatch.setattr(CosetGraph, "image", lambda self, g, x: g)
        name = "named path backtracks"
    else:
        monkeypatch.setattr(CosetGraph, "neighbors", lambda self, g: np.zeros(0, np.int32))
        name = "named cosets do not form a path"
    assert name in _errors(run_claims(fresh_ctx, claim_filter="P3.7.iii"))["P3.7.iii"]


def test_a_catalog_obligation_exits_4(monkeypatch, capsys):
    """Catalog: a claim id that appears twice stops psu38 verify before
    any claim runs, exit 4 naming it."""
    claims = harness.build_claims()
    monkeypatch.setattr(harness, "build_claims", lambda: claims + claims[:1])
    assert main(["verify", "--claims", "FLD"]) == 4
    out = capsys.readouterr()
    assert "claim ids must be unique" in out.err and out.out == ""

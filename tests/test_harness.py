import hashlib
import importlib.util
import json
import os
import subprocess
import sys

import jsonschema
import pytest

from psu38 import arcs, coset, harness
from psu38.gf64 import ALT_MODULI, DEFAULT_MODULUS
from psu38.harness import (EXIT_ERROR, REPORT_SCHEMA, VerifyContext, _gen_closure,
                           build_claims, factorization, format_report, main,
                           run_claims)

from psu38.psu import PElement


def test_claim_ids_unique_and_cover_manifest():
    claims = build_claims()
    ids = [c.id for c in claims]
    assert len(ids) == len(set(ids))
    # every lemma/theorem family the catalog promises has at least one claim
    for prefix in ("L3.1", "L3.2", "L3.3", "L3.4", "L3.5", "L3.6", "P3.7",
                   "L3.8", "L3.9", "L3.10.partial", "L3.11", "T1.1", "T1.2",
                   "NS."):
        assert any(i.startswith(prefix) for i in ids), prefix


def test_factorization():
    assert factorization(25536) == {2: 6, 3: 1, 7: 1, 19: 1}
    assert factorization(34048) == {2: 8, 7: 1, 19: 1}
    assert factorization(33094656) == {2: 10, 3: 5, 7: 1, 19: 1}


def test_gen_closure_is_over_table_elements(ng):
    """Claim groups are generated inside the K1 or K2 table; generators
    that no one table holds are refused, not multiplied as PElements."""
    for names, K in ((["C", "D"], ng.K1), (["E", "F"], ng.K2)):
        G = _gen_closure(ng, names)
        assert all(x.tab is K.identity.tab for x in G.elems)
    with pytest.raises(ValueError):
        _gen_closure(ng, ["D", "E"])


def _perfbench_workload(monkeypatch):
    """perfbench/workload.py, loaded read-only for its claim digests; the
    search path it extends is restored after the test."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location(
        "perfbench_workload", os.path.join(root, "perfbench", "workload.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _assert_reference_digests(monkeypatch, rep):
    """Every benchmarked claim of the report has the digest recorded in
    perfbench/reference.json for the report's modulus."""
    workload = _perfbench_workload(monkeypatch)
    with open(workload.REFERENCE) as f:
        reference = json.load(f)[f"{rep['environment']['modulus']:#x}"]
    digests = {c["id"]: workload.claim_digest(c) for c in rep["claims"]
               if c["id"] not in workload.SKIPPED_CLAIMS}
    assert digests == reference


def test_full_catalog_makes_no_pelement_products(monkeypatch):
    """After named_groups, a warm run of the whole catalog multiplies table
    elements and Perms only: PElement.__mul__ is never called.  The same
    run gives every benchmarked claim the digest recorded in
    perfbench/reference.json, orbit_partition never sees more rows
    than the 1,944 8-arcs at x2 (no pass over the edges), and once the
    graph is built the grid kernel sees only the images of paper_arc (one
    vertex under one element, 4 times) and of L3.9 (3 vertices under the
    9 elements of the named 5-arc's stabilizer, one call per vertex):
    perm and fixers do not resolve vertices.  The kernel chain of each
    base vertex and group runs once (4 bodies for 8 claims)."""
    ctx = VerifyContext()
    ctx.ng
    ctx.graph
    grids = []
    grid = coset.conj_fingerprint_grid

    def counted_grid(ops, rm, rt, cm, ct):
        grids.append((len(rt), len(ct)))
        return grid(ops, rm, rt, cm, ct)
    monkeypatch.setattr(coset, "conj_fingerprint_grid", counted_grid)
    calls = []
    mul = PElement.__mul__

    def counted(a, b):
        calls.append((a.key, b.key))
        return mul(a, b)
    monkeypatch.setattr(PElement, "__mul__", counted)
    rows = []
    part = arcs.orbit_partition

    def counted_rows(r, perms):
        rows.append(len(r))
        return part(r, perms)
    for mod in (arcs, harness):
        if hasattr(mod, "orbit_partition"):
            monkeypatch.setattr(mod, "orbit_partition", counted_rows)
    bodies = []
    kernel_claim = harness._kernel_claim

    def counted_kernel_claim(ctx, group, side):
        bodies.append((group, side))
        return kernel_claim(ctx, group, side)
    monkeypatch.setattr(harness, "_kernel_claim", counted_kernel_claim)
    rep = run_claims(ctx)
    assert rep["overall"]
    assert calls == []
    assert sorted(bodies) == [("H", 1), ("H", 2), ("K", 1), ("K", 2)]
    # T1.2.* add their keys to copies: the shared witnesses keep their own
    shared = {k: ctx.kernel_claim(*k)[1] for k in bodies}
    assert not any(key.startswith(("W1", "W2", "Wh")) for d in shared.values() for key in d)
    assert rows and max(rows) <= 1944
    # paper_arc's 4 single images, then L3.9's 9 elements of the arc
    # stabilizer at each of the 3 far ends
    assert grids == [(1, 1)] * 4 + [(9, 1)] * 3
    assert rep["environment"]["modulus"] == DEFAULT_MODULUS
    _assert_reference_digests(monkeypatch, rep)


def test_alt_modulus_claim_digests_match_the_reference(monkeypatch):
    """The same read-only digest comparison under the alternate modulus
    0x43, so a witness change there fails here and not only in the
    benchmark."""
    rep = run_claims(VerifyContext(modulus=ALT_MODULI[0]))
    assert rep["overall"] and rep["environment"]["modulus"] == 0x43
    _assert_reference_digests(monkeypatch, rep)


# sha256 (first 16 hex digits) of the JSON list of [id, statement, groups]
# over the whole catalog in order, and the claim digests of the two claims
# that perfbench/reference.json leaves out; all recorded before the twin
# claims were folded into shared bodies
CATALOG_HASH = "8ac2bf5b2fa7027a"
UNBENCHMARKED_DIGESTS = {"L3.6.ii": "3b247218ebf89725", "T1.1.v": "3f4d909b757ea530"}


@pytest.mark.parametrize("modulus", [DEFAULT_MODULUS, ALT_MODULI[0]], ids=hex)
def test_catalog_text_and_unbenchmarked_witnesses_are_pinned(monkeypatch, modulus):
    """The statements, groups and order of all 54 claims, and the
    witnesses of L3.6.ii and T1.1.v, which no reference digest covers."""
    catalog = [[c.id, c.statement, list(c.groups)] for c in build_claims()]
    assert len(catalog) == 54
    blob = json.dumps(catalog).encode()
    assert hashlib.sha256(blob).hexdigest()[:16] == CATALOG_HASH
    workload = _perfbench_workload(monkeypatch)
    rep = run_claims(VerifyContext(modulus=modulus), claim_filter="L3.6.ii,T1.1.v")
    digests = {c["id"]: workload.claim_digest(c) for c in rep["claims"]}
    assert digests == UNBENCHMARKED_DIGESTS


def test_group_filtering(ctx):
    rep = run_claims(ctx, group="H", claim_filter="L3.8,L3.11.i.1")
    ids = [c["id"] for c in rep["claims"]]
    assert "L3.11.i.1" in ids
    assert all(not i.startswith("L3.8") for i in ids)  # L3.8 is K-only


def test_claim_filter_prefix(ctx):
    rep = run_claims(ctx, claim_filter="L3.1")
    ids = [c["id"] for c in rep["claims"]]
    assert set(ids) == {"L3.1.i", "L3.1.ii", "L3.1.iii", "L3.1.iv"}
    assert rep["overall"]


def test_report_schema(ctx):
    rep = run_claims(ctx, claim_filter="FLD,SU,CONV,RG,AMB")
    jsonschema.validate(rep, REPORT_SCHEMA)
    # AMB.1 returns no verdict, which run_claims reports as info
    assert [c["id"] for c in rep["claims"] if c["verdict"] == "info"] == ["AMB.1"]
    text = format_report(rep)
    assert "OVERALL: PASS" in text


def _strip_times(rep):
    rep = json.loads(json.dumps(rep, sort_keys=True))
    rep.pop("total_seconds", None)
    for c in rep["claims"]:
        c.pop("seconds", None)
    return rep


def test_report_determinism_across_fresh_contexts():
    a = VerifyContext()
    b = VerifyContext()
    fa = "FLD,SU,CONV,L3.1,L3.2,L3.4,P3.7.ii,L3.10.partial"
    ra = _strip_times(run_claims(a, claim_filter=fa))
    rb = _strip_times(run_claims(b, claim_filter=fa))
    assert json.dumps(ra, sort_keys=True) == json.dumps(rb, sort_keys=True)


def test_cli_field_table(capsys):
    assert main(["field-table"]) == 0
    out = capsys.readouterr().out
    assert len(out.strip().splitlines()) == 64  # header + 63 entries


def test_cli_bad_modulus(capsys):
    assert main(["verify", "--modulus", "0b1000001"]) == 2
    assert main(["build", "--modulus", "0b1111"]) == 2


def test_cli_verify_subset(capsys):
    rc = main(["verify", "--claims", "FLD,SU"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "[PASS] FLD.1" in out and "OVERALL: PASS" in out


def test_cli_verify_json_out(tmp_path, capsys):
    out_path = str(tmp_path / "report.json")
    rc = main(["verify", "--claims", "CONV", "--json", "--out", out_path])
    assert rc == 0
    with open(out_path) as fh:
        rep = json.load(fh)
    jsonschema.validate(rep, REPORT_SCHEMA)
    printed = json.loads(capsys.readouterr().out)
    assert printed["overall"] is True


def test_cli_build_uses_cache(tmp_path, monkeypatch, capsys):
    """psu38 build builds the graph and prints its counts; it reads and
    writes no file (the name is older than the retired cache)."""
    monkeypatch.chdir(tmp_path)
    rc = main(["build"])
    assert rc == 0
    assert "25536 + 34048 vertices, 102144 edges" in capsys.readouterr().out
    assert os.listdir(tmp_path) == []


def test_cli_arcs(capsys, builds):
    rc = main(["arcs", "--side", "2", "--s", "5", "--group", "K"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "108 arcs, 1 orbits" in out
    assert builds == [DEFAULT_MODULUS]


def test_cli_arcs_csv(tmp_path, capsys, builds):
    path = str(tmp_path / "orbits.csv")
    rc = main(["arcs", "--side", "1", "--s", "6", "--group", "K",
               "--out", path])
    assert rc == 0
    with open(path) as fh:
        lines = fh.read().splitlines()
    assert lines[0].startswith("side,s,group")
    assert lines[1].startswith("1,6,K,288,2")
    assert builds == [DEFAULT_MODULUS]


def test_cli_export_edge_list(tmp_path, capsys, builds):
    path = str(tmp_path / "edges.txt")
    rc = main(["export", "--format", "edge-list", "--out", path])
    assert rc == 0
    with open(path) as fh:
        assert sum(1 for _ in fh) == 102144
    assert builds == [DEFAULT_MODULUS]


def test_cli_export_sparse6(tmp_path, capsys, builds):
    import networkx as nx
    path = str(tmp_path / "delta.s6")
    rc = main(["export", "--format", "sparse6", "--out", path])
    assert rc == 0
    assert "sparse6 with 59584 vertices" in capsys.readouterr().out
    with open(path, "rb") as fh:
        back = nx.from_sparse6_bytes(fh.read().strip())
    assert back.number_of_nodes() == 59584
    assert back.number_of_edges() == 102144
    assert builds == [DEFAULT_MODULUS]


def test_cli_report_path_that_is_a_directory_is_a_config_error(tmp_path, monkeypatch,
                                                               capsys):
    """The report path is opened before the claims run, so a path that
    cannot be written costs no claim."""
    runs = []
    monkeypatch.setattr(harness, "run_claims", lambda *a, **kw: runs.append(a))
    rc = main(["verify", "--claims", "FLD", "--out", str(tmp_path)])
    assert rc == 2 and runs == []
    assert len(capsys.readouterr().err.splitlines()) == 1


def test_a_failed_graph_stage_runs_once(monkeypatch, capsys):
    """A graph stage that raised makes every graph claim an error after
    one build: exit 4, and no rebuild per claim."""
    builds = []

    def failing(ng, progress=None):
        builds.append(1)
        raise RuntimeError("build failed")
    monkeypatch.setattr(harness, "build_graph", failing)
    assert main(["verify", "--claims", "T1.1,L3.10"]) == 4
    assert len(builds) == 1
    assert "[ERROR]" in capsys.readouterr().out


def test_exit_code_1_on_claim_failure(monkeypatch, capsys):
    import psu38.harness as hz

    def boom(ctx):
        raise RuntimeError("broken claim")

    def fake_claims():
        return [hz.Claim("X.1", "always fails", ("H", "K"),
                         lambda ctx: (False, {"why": "forced"})),
                hz.Claim("X.2", "raises", ("H", "K"), boom)]

    monkeypatch.setattr(hz, "build_claims", fake_claims)
    rc = main(["verify", "--claims", "X"])
    assert rc == 1  # a failed claim outranks an errored one
    assert "OVERALL: FAIL" in capsys.readouterr().out


def test_claim_exception_becomes_failure(monkeypatch, capsys):
    import psu38.harness as hz

    def boom(ctx):
        raise RuntimeError("broken claim")

    def fake_claims():
        return [hz.Claim("X.2", "raises", ("H", "K"), boom),
                hz.Claim("X.3", "holds", ("H", "K"), lambda ctx: (True, {}))]

    monkeypatch.setattr(hz, "build_claims", fake_claims)
    ctx = VerifyContext()
    rep = run_claims(ctx)
    jsonschema.validate(rep, REPORT_SCHEMA)
    assert [c["verdict"] for c in rep["claims"]] == ["error", "pass"]
    assert "broken claim" in rep["claims"][0]["witness"]["error"]
    assert not rep["overall"]
    assert "1/2 pass, 0 fail, 1 error" in format_report(rep)
    # an error with no failure has its own exit code
    rc = main(["verify", "--claims", "X"])
    assert rc == EXIT_ERROR == 4
    assert "[ERROR] X.2" in capsys.readouterr().out


def test_perfbench_wrappers_find_every_name():
    """perfbench/spans.py wraps psu38's functions and methods by name; a
    renamed or deleted one would break every traced benchmark run."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    code = ("import sys; sys.path[:0] = sys.argv[1:]; import psu38, spans; "
            "spans.instrument(spans.Tracer())")
    subprocess.run([sys.executable, "-c", code, os.path.join(root, "perfbench"),
                    os.path.join(root, "src")], check=True, timeout=120)


def test_python_dash_m_psu38_runs_the_cli_without_warnings():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    out = subprocess.run([sys.executable, "-W", "error", "-m", "psu38", "field-table"],
                         env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert len(out.stdout.strip().splitlines()) == 64


def test_paper_arc_checks_hold_under_python_dash_O():
    """paper_arc's path and no-backtrack checks are raises, not asserts,
    so python -O keeps them: with CosetGraph.image corrupted to fix every
    vertex once the graph is built, the named cosets x1, x2 repeat and
    paper_arc must raise."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    code = ("from psu38.coset import CosetGraph\n"
            "from psu38.harness import VerifyContext\n"
            "ctx = VerifyContext()\n"
            "ctx.graph\n"
            "CosetGraph.image = lambda self, g, x: g\n"
            "try:\n"
            "    ctx.paper_arc()\n"
            "except AssertionError as e:\n"
            "    print(e)\n"
            "else:\n"
            "    raise SystemExit('paper_arc returned a backtracking arc')\n")
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "named path backtracks"

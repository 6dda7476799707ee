import dataclasses
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
                           run_claims, select_claims)

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
    """Claim groups are generated on K1 or K2, inside its table;
    generators that the table lacks are refused, not multiplied as
    PElements."""
    for names, K in ((["C", "D"], ng.K1), (["E", "F"], ng.K2)):
        G = _gen_closure(ng, K, names)
        assert G.tab is K.tab and G.eset <= K.eset
    for names, K in ((["D", "E"], ng.K1), (["D", "E"], ng.K2), (["E"], ng.K1)):
        with pytest.raises(ValueError):
            _gen_closure(ng, K, names)


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
    """After named_groups, the graph build and a warm run of the whole
    catalog multiply on table indices and Perms only: PElement.__mul__ is
    never called.  The same run gives every benchmarked claim the digest
    recorded in perfbench/reference.json, no level of the arc walk holds
    more arcs than the 1,944 8-arcs at x2 (no pass over the edges), and
    once the graph is built the grid kernel sees only the images of
    paper_arc (one vertex under one element, 4 times) and of L3.9 (3
    vertices under the 9 elements of the named 5-arc's stabilizer, one
    call per vertex): perm and fixers do not resolve vertices.  The kernel
    chain of each base vertex and group runs once (4 bodies for 8
    claims)."""
    ctx = VerifyContext()
    ctx.ng
    calls = []
    mul = PElement.__mul__

    def counted(a, b):
        calls.append((a.key, b.key))
        return mul(a, b)
    monkeypatch.setattr(PElement, "__mul__", counted)
    ctx.graph
    grids = []
    grid = coset.conj_fingerprint_grid

    def counted_grid(ops, rkeys, tables, inverse=True):
        grids.append((len(rkeys), len(tables[1])))
        return grid(ops, rkeys, tables, inverse)
    monkeypatch.setattr(coset, "conj_fingerprint_grid", counted_grid)
    rows = []
    walk = arcs.arc_levels

    def counted_levels(*args):
        for n, images in walk(*args):
            rows.append(n)
            yield n, images
    monkeypatch.setattr(arcs, "arc_levels", counted_levels)
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


@pytest.mark.parametrize("group, claim_filter", [("both", "NOPE"), ("H", "P3.7")])
def test_run_claims_refuses_an_empty_selection(ctx, group, claim_filter):
    """A selection that matches no claim raises ValueError, in
    select_claims and so in run_claims, rather than reading as a run with
    overall true and no claims."""
    with pytest.raises(ValueError, match="selects no claim"):
        select_claims(group, claim_filter)
    with pytest.raises(ValueError, match="selects no claim"):
        run_claims(ctx, group=group, claim_filter=claim_filter)


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


@pytest.mark.parametrize("modulus", (DEFAULT_MODULUS,) + ALT_MODULI, ids=hex)
def test_catalog_text_and_unbenchmarked_witnesses_are_pinned(monkeypatch, modulus):
    """The statements, groups and order of all 54 claims, and the
    witnesses of L3.6.ii and T1.1.v, which no reference digest covers,
    under all four moduli."""
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


def test_cli_bad_modulus(tmp_path, capsys, monkeypatch):
    """A reducible modulus is a configuration error before any claim runs
    or any file is opened: a report file already at --out keeps its
    bytes, and stderr gets one line."""
    ran = []
    monkeypatch.setattr(harness, "run_claims", lambda *a, **k: ran.append(a))
    out = tmp_path / "r.json"
    out.write_bytes(b"keep")
    assert main(["verify", "--modulus", "0x5a", "--out", str(out)]) == 2
    assert out.read_bytes() == b"keep" and ran == []
    assert len(capsys.readouterr().err.splitlines()) == 1
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


def test_cli_arcs_rejects_a_negative_length(capsys, builds):
    with pytest.raises(SystemExit) as exc:
        main(["arcs", "--side", "1", "--s", "-1"])
    assert exc.value.code == 2 and builds == []
    assert "negative" in capsys.readouterr().err


@pytest.mark.parametrize("argv, group", [(["--claims", "NOPE"], "both"),
                                         (["--group", "H", "--claims", "P3.7"], "H")])
def test_cli_empty_claim_selection_is_a_config_error(tmp_path, capsys, builds, argv, group):
    """A selection that matches no claim exits 2 with one stderr line
    naming the filter and the group, before the report file is opened."""
    out_path = tmp_path / "report.json"
    rc = main(["verify", *argv, "--out", str(out_path)])
    err = capsys.readouterr().err.splitlines()
    assert rc == 2 and not out_path.exists() and builds == []
    assert len(err) == 1 and argv[-1] in err[0] and f"--group {group}" in err[0]


def test_cli_export_edge_list(tmp_path, capsys, builds):
    path = str(tmp_path / "edges.txt")
    rc = main(["export", "--format", "edge-list", "--out", path])
    assert rc == 0
    with open(path) as fh:
        assert sum(1 for _ in fh) == 102144
    assert builds == [DEFAULT_MODULUS]


def test_cli_export_sparse6(tmp_path, capsys, builds, sparse6_full):
    """The CLI's file is the session graph's sparse6 bytes, byte for byte,
    whose decoding (made once per session) has the graph's counts."""
    path = str(tmp_path / "delta.s6")
    rc = main(["export", "--format", "sparse6", "--out", path])
    assert rc == 0
    assert "sparse6 with 59584 vertices" in capsys.readouterr().out
    data, back = sparse6_full
    with open(path, "rb") as fh:
        assert fh.read() == data
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


def test_a_failed_relations_stage_still_writes_the_report(tmp_path, monkeypatch, capsys):
    """A relations stage that raised is an error, not a failure: the
    report is written and valid, its two convention fields read
    "unresolved", overall is false and the exit code is 4."""
    def failing(field):
        raise RuntimeError("relations failed")
    monkeypatch.setattr(harness, "check_relations", failing)
    out = tmp_path / "r.json"
    assert main(["verify", "--claims", "FLD,CONV", "--out", str(out)]) == EXIT_ERROR
    with open(out) as fh:
        rep = json.load(fh)
    jsonschema.validate(rep, REPORT_SCHEMA)
    env = rep["environment"]
    assert env["commutator_convention"] == env["conjugation_convention"] == "unresolved"
    assert rep["overall"] is False
    assert {c["id"]: c["verdict"] for c in rep["claims"]} == {
        "FLD.1": "pass", "CONV.1": "error"}
    assert "OVERALL: FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("argv", (["build"], ["arcs", "--side", "1", "--s", "2"],
                                  ["export", "--format", "edge-list", "--out", "e.txt"]))
def test_a_crash_outside_the_claims_exits_4(tmp_path, monkeypatch, capsys, argv):
    """An exception that escapes a command (here a graph build that
    raised) is exit code 4 with one line on stderr, never 1: only a
    mathematical failure gives 1."""
    def failing(ng, progress=None):
        raise AssertionError("build failed")
    monkeypatch.setattr(harness, "build_graph", failing)
    monkeypatch.chdir(tmp_path)
    assert main(argv) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err == "error: AssertionError('build failed')\n"
    assert os.listdir(tmp_path) == []


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


def test_unsorted_stabilizer_keys_give_error_not_fail(monkeypatch, graph):
    """fixes binary-searches each side's sorted K keys.  A graph whose
    stabilizer keys come reversed, a fault of the program and not a
    property of the graph, makes every claim that reads fixes raise, so
    the catalog reports error for them and fail for none."""
    broken = dataclasses.replace(
        graph, kkeys={k: v[::-1].copy() for k, v in graph.kkeys.items()}, _kernels={})
    monkeypatch.setattr(harness, "build_graph", lambda ng, progress=None: broken)
    rep = run_claims(VerifyContext())
    verdicts = {c["id"]: c["verdict"] for c in rep["claims"]}
    assert "fail" not in verdicts.values()
    assert {k for k, v in verdicts.items() if v == "error"} == {
        "P3.7.iii", "L3.8.pre", "L3.9", "L3.11.pre", "L3.11.ii"}
    assert all("do not ascend" in c["witness"]["error"]
               for c in rep["claims"] if c["verdict"] == "error")


def test_colliding_images_give_error_not_fail(monkeypatch, graph, ng):
    """A side-2 fingerprint element stored twice, in place of the next
    vertex's, makes two vertices' images collide under every element that
    moves them, and leaves one key no image can find: perm raises, and the
    catalog reports error for the automorphism claims and fail for none."""
    broken = dataclasses.replace(graph, skeys={**graph.skeys, 2: graph.skeys[2].copy()},
                                 _perm_cache={}, _kernels={})
    broken.skeys[2][-1] = broken.skeys[2][-2]
    with pytest.raises(AssertionError, match="not a known vertex"):
        broken.perm(ng.p["A"])
    monkeypatch.setattr(harness, "build_graph", lambda ng, progress=None: broken)
    verdicts = {c["id"]: c["verdict"] for c in run_claims(VerifyContext())["claims"]}
    assert "fail" not in verdicts.values()
    assert verdicts["L3.5.i"] == verdicts["L3.10.partial.iii"] == "error"


def test_runs_limited_to_one_group_equal_the_full_run(monkeypatch, graph):
    """On one context, an H-only run and then a K-only run give each claim
    the verdict and witness of the full run that follows them: the stages
    that claims of both groups share, the one sampled pass of K and H
    among them, do not depend on which claim reaches them first."""
    fresh = dataclasses.replace(graph, _perm_cache={}, _kernels={})
    monkeypatch.setattr(harness, "build_graph", lambda ng, progress=None: fresh)
    ctx = VerifyContext()
    parts = {group: _strip_times(run_claims(ctx, group=group)) for group in ("H", "K")}
    full = _strip_times(run_claims(ctx))["claims"]
    for group, rep in parts.items():
        want = [c for c in full if group in c["groups"]]
        assert [c["id"] for c in rep["claims"]] == [c["id"] for c in want]
        for got, c in zip(rep["claims"], want):
            assert (got["verdict"], got["witness"]) == (c["verdict"], c["witness"])


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

"""One benchmark workload in one fresh, single-threaded process.

Started by run.py, never by hand.  It imports psu38 from the checkout's
src/, sets up (GF64, check_relations, named_groups, reference_groups),
prints "ready", runs the workload, checks every output outside the timed
regions and prints one JSON line of raw samples as its last line.

Modes: `--setup-only` stops after "ready" (a set-up sample); `--prepare`
builds and stores the graph cache that verify_warm loads; `--record`
writes verify_warm's claim digests to reference.json instead of checking
them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
from contextlib import nullcontext

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

from psu38 import coset, gf64, grp, harness, psu  # noqa: E402

import spans as tracing  # noqa: E402

REFERENCE = os.path.join(HERE, "reference.json")
EXPECT = {"n1": 25536, "n2": 34048, "edges": 102144}
# witness fields that hold non-base vertex ids, which a renumbering of the
# build may change; base vertices stay at ids 0 and n1
VERTEX_ID_FIELDS = {"P3.7.iii": ("arc",)}
# verify_warm runs the catalog without the two claims that build the K
# amalgam (L3.6.ii, and T1.1.v, which reads its shape): the K amalgam alone
# takes 28-42 s, about half of the catalog, and with it the runs of both
# workloads do not fit the benchmark's time budget.  The H amalgam (L3.6.i)
# runs the same amalgam code on the smaller groups.
SKIPPED_CLAIMS = ("L3.6.ii", "T1.1.v")


def modulus_for(seed: int) -> int:
    moduli = (gf64.DEFAULT_MODULUS,) + tuple(gf64.ALT_MODULI)
    return moduli[seed % len(moduli)]


def cache_path(cache_dir: str, modulus: int) -> str:
    # the name VerifyContext looks for in its cache_dir
    return os.path.join(cache_dir, f"graph-{modulus:02x}.psu38")


def file_digest(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def claim_digest(claim: dict) -> str:
    witness = {k: v for k, v in claim["witness"].items()
               if k not in VERTEX_ID_FIELDS.get(claim["id"], ())}
    blob = json.dumps([claim["id"], claim["verdict"], witness], sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


class Run:
    """Samples, operation counts and check failures of one workload run."""

    def __init__(self, tr: tracing.Tracer | None):
        self.tr = tr
        self.work_s: list[float] = []
        self.op_s: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.broken = False  # a run-level check failed: no operation counts
        self.errors: list[str] = []
        self.t0 = time.perf_counter()
        self.first_wall: float | None = None

    def end_first_pass(self) -> None:
        """The first operation and its checks are done: a traced run stops
        here, and its wall time is compared with this one."""
        self.first_wall = time.perf_counter() - self.t0

    def unchecked(self):
        """Checks run here, outside every span."""
        return self.tr.paused() if self.tr else nullcontext()

    def fail(self, msg: str, op: bool = False) -> None:
        """Record a failed check; op=True fails only the current operation."""
        self.errors.append(msg)
        if op:
            self.failed += 1
        else:
            self.broken = True
        print(f"check failed: {msg}", file=sys.stderr, flush=True)


def setup(modulus: int):
    """What every run needs first; reference_groups is built for its cost."""
    field = gf64.GF64(modulus)
    rel = psu.check_relations(field)
    ng = grp.named_groups(field)
    grp.reference_groups()
    return rel, ng


def check_graph(g) -> list[str]:
    errs = []
    got = {"n1": g.n1, "n2": g.n2, "edges": len(g.edges)}
    if got != EXPECT:
        errs.append(f"sizes {got} != {EXPECT}")
    deg = np.diff(g.indptr)
    if set(deg[:g.n1].tolist()) != {4} or set(deg[g.n1:].tolist()) != {3}:
        errs.append("degree sets are not {4} and {3}")
    if g.base_x2 not in g.neighbors(g.base_x1):
        errs.append("base vertices are not adjacent")
    return errs


def publish(src: str, dst: str) -> None:
    """Move a finished cache file into place with its digest beside it."""
    digest = file_digest(src)
    os.replace(src, dst)
    with open(dst + ".sha256.tmp", "w") as f:
        f.write(digest)
    os.replace(dst + ".sha256.tmp", dst + ".sha256")


def round_trip(run: Run, args, g, ng, tr) -> None:
    """save_cache -> load_cache gives the same reps and edges; the checked
    file becomes the cache verify_warm loads, if there is none yet."""
    tmp = os.path.join(args.workdir, f"roundtrip-{os.getpid()}.psu38")
    try:
        coset.save_cache(g, tmp)
        if tr:
            tr.gauges["coset.cache_bytes"] = (os.path.getsize(tmp), "bytes")
        try:
            g2 = coset.load_cache(tmp, ng)
        except Exception as e:  # a load that raises fails the run
            run.fail(f"load_cache raised {e!r}")
            return
        with run.unchecked():
            same = g2.n1 == g.n1 and g2.n2 == g.n2 and all(
                np.array_equal(g.reps[s], g2.reps[s]) for s in (1, 2)
            ) and np.array_equal(g.edges, g2.edges)
        if not same:
            run.fail("save_cache -> load_cache round trip changed reps or edges")
        elif not os.path.exists(cache_path(args.cache_dir, ng.field.modulus)):
            publish(tmp, cache_path(args.cache_dir, ng.field.modulus))
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def cold_build(run: Run, args, ng, tr) -> None:
    """build_graph from nothing, checked; the first build also makes the
    round trip.  Builds repeat until --seconds have passed."""
    t_end = time.perf_counter() + args.seconds
    while True:
        marks = [time.perf_counter()]
        layer_s: list[float] = []

        def progress(n1, n2):
            now = time.perf_counter()
            layer_s.append(now - marks[0])
            marks[0] = now
            if tr:
                tr.count("coset.bfs.layers")

        t0 = time.perf_counter()
        g = coset.build_graph(ng, progress=progress)
        run.work_s.append(time.perf_counter() - t0)
        run.attempted += 1
        if tr:
            tr.gauges["coset.bfs.peak_layer_s"] = (max(layer_s), "s")
        with run.unchecked():
            errs = check_graph(g)
        if errs:
            run.fail("; ".join(errs), op=True)
        if run.first_wall is None:
            round_trip(run, args, g, ng, tr)
            run.end_first_pass()
        if time.perf_counter() >= t_end:
            break


def verify_warm(run: Run, args, ng, tr) -> None:
    """run_claims on a fresh VerifyContext that loads the cache this commit
    prepared, repeated until --seconds have passed.  A load that raises
    fails the claims that need the graph; the cache file must come out of
    the run unchanged."""
    path = cache_path(args.cache_dir, ng.field.modulus)
    st = os.stat(path)
    before = (file_digest(path), st.st_size, st.st_mtime_ns, st.st_ino)
    if tr:
        tr.gauges["coset.cache_bytes"] = (st.st_size, "bytes")
    with run.unchecked():
        import jsonschema
        with open(REFERENCE) as f:
            reference = json.load(f).get(f"{ng.field.modulus:#x}", {})
        ids = [c.id for c in harness.build_claims() if c.id not in SKIPPED_CLAIMS]
    digests = {}
    t_end = time.perf_counter() + args.seconds
    while True:
        ctx = harness.VerifyContext(modulus=ng.field.modulus,
                                    cache_dir=args.cache_dir)
        t0 = time.perf_counter()
        rep = harness.run_claims(ctx, claim_filter=",".join(ids))
        run.work_s.append(time.perf_counter() - t0)
        run.attempted += len(rep["claims"])
        with run.unchecked():
            try:
                jsonschema.validate(rep, harness.REPORT_SCHEMA)
            except jsonschema.ValidationError as e:
                run.fail(f"report fails REPORT_SCHEMA: {e.message}")
            if [c["id"] for c in rep["claims"]] != ids:
                run.fail("the report does not hold exactly the requested claims")
            for c in rep["claims"]:
                run.op_s.append(c["seconds"])
                digests[c["id"]] = claim_digest(c)
                if c["verdict"] not in ("pass", "info"):
                    run.fail(f"claim {c['id']} verdict {c['verdict']}", op=True)
                elif not args.record and reference.get(c["id"]) != digests[c["id"]]:
                    run.fail(f"claim {c['id']} digest {digests[c['id']]} != "
                             f"reference {reference.get(c['id'])}", op=True)
        if run.first_wall is None:
            run.end_first_pass()
        if time.perf_counter() >= t_end:
            break
    st = os.stat(path)
    if (file_digest(path), st.st_size, st.st_mtime_ns, st.st_ino) != before:
        run.fail("the prepared cache was rewritten during the run")
    if args.record:
        with open(REFERENCE) as f:
            ref = json.load(f)
        ref[f"{ng.field.modulus:#x}"] = dict(sorted(digests.items()))
        with open(REFERENCE, "w") as f:
            json.dump(dict(sorted(ref.items())), f, indent=1)
            f.write("\n")


WORKLOADS = {"cold_build": cold_build, "verify_warm": verify_warm}


def prepared(path: str) -> bool:
    """A finished cache file of this commit is in place."""
    try:
        with open(path + ".sha256") as f:
            return f.read().strip() == file_digest(path)
    except FileNotFoundError:
        return False


def prepare(path: str, ng) -> None:
    """Build this commit's graph for verify_warm."""
    g = coset.build_graph(ng)
    errs = check_graph(g)
    if errs:
        raise SystemExit("prepared graph fails its checks: " + "; ".join(errs))
    tmp = f"{path}.{os.getpid()}.tmp"
    coset.save_cache(g, tmp)
    publish(tmp, path)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--cache-dir", required=True)
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--prepare", action="store_true")
    mode.add_argument("--record", action="store_true")
    args = ap.parse_args()

    tr = None
    if args.trace:
        tr = tracing.Tracer()
        tracing.instrument(tr)
    modulus = modulus_for(args.seed)
    if args.prepare and prepared(cache_path(args.cache_dir, modulus)):
        print("ready", flush=True)
        return 0
    if tr:
        args.seconds = 0  # one operation, so that counts compare across runs
    run = Run(tr)
    rel, ng = setup(modulus)
    print("ready", flush=True)
    if args.setup_only:
        return 0
    if args.prepare:
        prepare(cache_path(args.cache_dir, modulus), ng)
        return 0
    if not rel.all_ok:
        run.fail("check_relations reports a failed relation")
    WORKLOADS[args.workload](run, args, ng, tr)
    wall = run.first_wall if run.first_wall is not None else time.perf_counter() - run.t0
    if run.broken:
        run.failed = run.attempted
    out = {
        "modulus": modulus,
        "wall_s": wall,
        "work_s": run.work_s,
        "op_s": run.op_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": run.attempted,
        "failed": run.failed,
        "errors": run.errors,
    }
    if tr:
        layers, errs = tr.layer_metrics(wall)
        out["layers"] = layers
        out["errors"] += errs
        if errs:
            out["failed"] = out["attempted"]
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

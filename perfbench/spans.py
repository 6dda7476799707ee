"""Spans and counters recorded by wrappers around psu38's public calls.

Nothing inside psu38 is edited: `instrument` replaces public functions,
methods and constructors with wrappers that open a span (name, start, end,
parent) or bump a counter, and then call the original.  A module that did
`from .arcs import arc_orbits` holds its own reference, so a replaced
function is swapped in every psu38 module that holds it.

Spans live in memory and are summarised once, when the workload ends.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from contextlib import contextmanager

# claims whose own time is reported one by one; the rest are summed
NAMED_CLAIMS = ("L3.6.i", "L3.8.pre", "L3.11.pre", "L3.5.i", "L3.5.ii",
                "L3.2.v", "T1.2.iv", "L3.10.partial.iii", "NS.1")

# VerifyContext memo stages reported on their own
STAGES = ("graph", "ng", "refs", "relations", "amalgam-H", "shape-H",
          "kern-H-1", "kern-H-2", "kern-K-1", "kern-K-2",
          "mls-H", "mls-K", "edgetrans-H", "edgetrans-K", "splits", "paper_arc")

# span names whose inclusive time is reported as <name>.s
TIMED = (
    "gf64.GF64", "psu.check_relations", "psu.pgenerators",
    "grp.named_groups", "grp.reference_groups", "grp.SmallGroup.generate",
    "grp.SmallGroup.conjugate", "grp.SmallGroup.normal_closure",
    "grp.SmallGroup.p_core", "grp.iso_check", "grp.is_split_extension",
    "fastops.coset_canon_keys", "fastops.conj_fingerprints",
    "coset.transversal", "coset.build_graph", "coset.save_cache",
    "coset.load_cache", "coset.CosetGraph.perm",
    "coset.CosetGraph.vertex_stabilizer", "coset.CosetGraph.is_graph_automorphism",
    "arcs.KernelData", "arcs.max_local_s", "arcs.arc_orbits",
    "arcs.arc_stabilizer", "arcs.local_characteristic",
    "arcs.sampled_vertex_checks", "amalgam.analyze.H", "amalgam.core_in",
    "amalgam.compute_X", "amalgam.shape_d2", "harness.run_claims",
) + tuple(f"harness.stage.{k}" for k in STAGES)

# counters reported as they are
COUNTED = (
    "psu.PElement.mul.calls", "grp.SmallGroup.generate.calls",
    "grp.SmallGroup.conjugate.calls", "grp.SmallGroup.normal_closure.calls",
    "grp.SmallGroup.p_core.calls", "grp.iso_check.calls",
    "grp.is_split_extension.calls", "fastops.coset_canon_keys.rows",
    "fastops.coset_canon_keys.products", "fastops.conj_fingerprints.rows",
    "fastops.FieldOps.bsmul.calls", "fastops.FieldOps.bsmul.rows",
    "coset.bfs.layers", "coset.CosetGraph.perm.calls",
    "coset.CosetGraph.perm.misses", "coset.CosetGraph.image_batch.calls",
    "coset.CosetGraph.image_batch.vertices",
    "coset.CosetGraph.vertex_stabilizer.calls", "arcs.KernelData.calls",
    "arcs.arc_orbits.calls",
)

# values the workload sets, with what they read when it does not
GAUGES = {"coset.bfs.peak_layer_s": (0.0, "s"), "coset.cache_bytes": (0, "bytes")}

# counts that must repeat exactly between two traced runs of one seed
EXACT_COUNTS = ("psu.PElement.mul.calls", "fastops.FieldOps.bsmul.calls",
                "coset.bfs.layers", "coset.CosetGraph.perm.misses")


class Tracer:
    """In-memory spans and counters for one process (single-threaded)."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self.gauges: dict[str, tuple] = dict(GAUGES)
        self._stack: list[int] = []
        self._paused = 0

    @property
    def on(self) -> bool:
        return not self._paused

    @contextmanager
    def span(self, name: str):
        if self._paused:
            yield
            return
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        rec = [name, time.perf_counter(), None, parent]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, n: int = 1) -> None:
        if not self._paused:
            self.counts[name] += n

    @contextmanager
    def paused(self):
        """Checks run here: their calls into psu38 leave no spans."""
        self._paused += 1
        try:
            yield
        finally:
            self._paused -= 1

    # -- summary ---------------------------------------------------------

    def self_times(self) -> list[float]:
        out = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                out[s[3]] -= s[2] - s[1]
        return out

    def inclusive(self, name: str) -> float:
        """Time inside spans of this name, counting nested repeats once."""
        total = 0.0
        for s in self.spans:
            if s[0] != name:
                continue
            p = s[3]
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                total += s[2] - s[1]
        return total

    def check_nesting(self) -> list[str]:
        """Every span closed and inside its parent; siblings disjoint."""
        errors = []
        last_end: dict[int, float] = {}
        for i, s in enumerate(self.spans):
            if s[2] is None or s[2] < s[1]:
                errors.append(f"span {i} {s[0]} not closed")
                continue
            if s[3] >= 0:
                p = self.spans[s[3]]
                if s[1] < p[1] or (p[2] is not None and s[2] > p[2]):
                    errors.append(f"span {i} {s[0]} leaves its parent {p[0]}")
            if s[1] < last_end.get(s[3], float("-inf")):
                errors.append(f"span {i} {s[0]} overlaps its previous sibling")
            last_end[s[3]] = s[2]
        return errors

    def layer_metrics(self, wall: float) -> tuple[dict, list[str]]:
        """Per-layer metrics plus the trace-completeness check: the self
        times of all spans plus the time outside any span make the wall."""
        errors = self.check_nesting()
        selfs = self.self_times()
        top = sum(s[2] - s[1] for s in self.spans if s[3] < 0)
        outside = wall - top
        total = sum(selfs) + outside
        if outside < -1e-6 or abs(total - wall) > 1e-6 * max(1.0, wall):
            errors.append(f"self times {sum(selfs):.6f}s + outside {outside:.6f}s "
                          f"!= wall {wall:.6f}s")
        m: dict[str, tuple[float, str]] = {}
        for name in TIMED:
            m[f"{name}.s"] = (self.inclusive(name), "s")
        for name in COUNTED:
            m[name] = (self.counts[name], "count")
        for name, v in self.gauges.items():
            m[name] = v
        claim_self = Counter()
        for s, t in zip(self.spans, selfs):
            if s[0].startswith("harness.claim."):
                claim_self[s[0][len("harness.claim."):]] += t
        for cid in NAMED_CLAIMS:
            m[f"harness.claim.{cid}.self_s"] = (claim_self.pop(cid, 0.0), "s")
        m["harness.claims_rest.self_s"] = (sum(claim_self.values()), "s")
        m["trace.spans"] = (len(self.spans), "count")
        m["trace.outside_s"] = (outside, "s")
        m["trace.wall_s"] = (wall, "s")
        return m, errors


# ---------------------------------------------------------------------------
# wrappers


def _replace_everywhere(orig, new) -> None:
    """Swap `orig` for `new` in every loaded psu38 module that holds it."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "psu38" or modname.startswith("psu38.")):
            continue
        for attr, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, attr, new)


def _spanned(tr: Tracer, fn, name, calls: str | None = None, before=None):
    """Wrap fn in a span; `name` is a string or a function of the call's
    positional arguments; `before(args, kwargs)` may bump extra counters."""
    @functools.wraps(fn)
    def wrapper(*args, **kw):
        if not tr.on:
            return fn(*args, **kw)
        if calls:
            tr.count(calls)
        if before:
            before(args, kw)
        with tr.span(name(args) if callable(name) else name):
            return fn(*args, **kw)
    return wrapper


def instrument(tr: Tracer) -> None:
    """Install every wrapper.  Call once, after `import psu38`."""
    from psu38 import amalgam, arcs, coset, fastops, gf64, grp, harness, psu

    def function(mod, attr, name, calls=None, before=None):
        orig = getattr(mod, attr)
        _replace_everywhere(orig, _spanned(tr, orig, name, calls, before))

    def method(cls, attr, name, calls=None, before=None):
        raw = cls.__dict__[attr]
        if isinstance(raw, staticmethod):
            setattr(cls, attr, staticmethod(_spanned(tr, raw.__func__, name,
                                                     calls, before)))
        else:
            setattr(cls, attr, _spanned(tr, raw, name, calls, before))

    method(gf64.GF64, "__init__", "gf64.GF64")
    function(psu, "check_relations", "psu.check_relations")
    function(psu, "pgenerators", "psu.pgenerators")

    mul = psu.PElement.__mul__

    def counted_mul(self, other):
        if tr.on:
            tr.counts["psu.PElement.mul.calls"] += 1
        return mul(self, other)
    psu.PElement.__mul__ = counted_mul

    function(grp, "named_groups", "grp.named_groups")
    function(grp, "reference_groups", "grp.reference_groups")
    for attr in ("generate", "conjugate", "normal_closure", "p_core"):
        method(grp.SmallGroup, attr, f"grp.SmallGroup.{attr}",
               calls=f"grp.SmallGroup.{attr}.calls")
    for attr in ("iso_check", "is_split_extension"):
        function(grp, attr, f"grp.{attr}", calls=f"grp.{attr}.calls")

    def canon_rows(args, kw):
        rows = len(args[2])
        tr.count("fastops.coset_canon_keys.rows", rows)
        tr.count("fastops.coset_canon_keys.products", rows * args[1].n * 3)
    function(fastops, "coset_canon_keys", "fastops.coset_canon_keys",
             before=canon_rows)
    function(fastops, "conj_fingerprints", "fastops.conj_fingerprints",
             before=lambda a, kw: tr.count("fastops.conj_fingerprints.rows",
                                           len(a[1])))
    bsmul = fastops.FieldOps.bsmul

    def counted_bsmul(self, gm, gt, hm, ht):
        if tr.on:
            tr.counts["fastops.FieldOps.bsmul.calls"] += 1
            tr.counts["fastops.FieldOps.bsmul.rows"] += len(gm)
        return bsmul(self, gm, gt, hm, ht)
    fastops.FieldOps.bsmul = counted_bsmul

    function(coset, "transversal", "coset.transversal")
    function(coset, "build_graph", "coset.build_graph")
    function(coset, "save_cache", "coset.save_cache")
    function(coset, "load_cache", "coset.load_cache")
    G = coset.CosetGraph
    method(G, "image_batch", "coset.CosetGraph.image_batch",
           calls="coset.CosetGraph.image_batch.calls",
           before=lambda a, kw: tr.count("coset.CosetGraph.image_batch.vertices",
                                         len(a[1])))
    method(G, "vertex_stabilizer", "coset.CosetGraph.vertex_stabilizer",
           calls="coset.CosetGraph.vertex_stabilizer.calls")
    method(G, "is_graph_automorphism", "coset.CosetGraph.is_graph_automorphism")
    perm = _spanned(tr, G.perm, "coset.CosetGraph.perm",
                    calls="coset.CosetGraph.perm.calls")

    def perm_with_misses(self, x):
        # a miss is a perm call that had to resolve images itself
        before = tr.counts["coset.CosetGraph.image_batch.calls"]
        p = perm(self, x)
        if tr.counts["coset.CosetGraph.image_batch.calls"] != before:
            tr.count("coset.CosetGraph.perm.misses")
        return p
    G.perm = perm_with_misses

    method(arcs.KernelData, "__init__", "arcs.KernelData",
           calls="arcs.KernelData.calls")
    function(arcs, "max_local_s", "arcs.max_local_s")
    function(arcs, "arc_orbits", "arcs.arc_orbits", calls="arcs.arc_orbits.calls")
    for attr in ("arc_stabilizer", "local_characteristic", "sampled_vertex_checks"):
        function(arcs, attr, f"arcs.{attr}")

    function(amalgam, "analyze", lambda a: f"amalgam.analyze.{a[0]}")
    for attr in ("core_in", "compute_X", "shape_d2"):
        function(amalgam, attr, f"amalgam.{attr}")

    function(harness, "run_claims", "harness.run_claims")
    _instrument_context(tr, harness.VerifyContext)
    build_claims = harness.build_claims

    def traced_claims():
        claims = build_claims()
        for c in claims:
            c.fn = _spanned(tr, c.fn, f"harness.claim.{c.id}")
        return claims
    _replace_everywhere(build_claims, traced_claims)


def _instrument_context(tr: Tracer, cls) -> None:
    """A span per VerifyContext stage, on the call that computes it; the
    later calls that hit the memo are not spans."""
    done: set = set()

    def stage(fn, key_of):
        @functools.wraps(fn)
        def wrapper(self, *args):
            key = (id(self), key_of(args))
            if key in done or not tr.on:
                return fn(self, *args)
            done.add(key)
            with tr.span(f"harness.stage.{key[1]}"):
                return fn(self, *args)
        return wrapper

    for attr in ("field", "relations", "gens", "ng", "refs", "graph"):
        prop = cls.__dict__[attr]
        setattr(cls, attr, property(stage(prop.fget, lambda a, k=attr: k)))
    keyed = {
        "kern": lambda a: f"kern-{a[0]}-{a[1]}",
        "mls": lambda a: f"mls-{a[0]}",
        "amalgam": lambda a: f"amalgam-{a[0]}",
        "shape": lambda a: f"shape-{a[0]}",
        "paper_arc": lambda a: "paper_arc",
        "edge_orbit_transitive": lambda a: f"edgetrans-{a[0]}",
        "split_searches": lambda a: "splits",
    }
    for attr, key_of in keyed.items():
        setattr(cls, attr, stage(cls.__dict__[attr], key_of))

"""psu38 benchmark: one workload run, printed as a metric table and a
last line of JSON.

    python3 perfbench/run.py --workload cold_build --seed 3 --seconds 10 --trace 0

Run it from the root of a checkout.  Workloads (one client, closed loop,
each run in fresh single-threaded processes):

  cold_build   set-up, then coset.build_graph from nothing.
  verify_warm  set-up, then harness.run_claims on a VerifyContext that
               loads a graph cache this commit prepared, over the catalog
               less the two claims that build the K amalgam
               (workload.SKIPPED_CLAIMS).

The seed picks the GF(64) modulus: seed 0 the default, seed n the n-th of
(DEFAULT_MODULUS,) + ALT_MODULI, cyclically.

--trace 0 reports the end-to-end metrics: setup_s (median of five fresh
processes from spawn to "ready"), work_s (median wall time of the main
operation: build_graph, or run_claims) and peak_rss_mb (ru_maxrss of the
workload process).
Each operation runs at least once and repeats until --seconds have passed.
--trace 1 runs one traced operation in a fresh process and reports the
per-layer metrics plus the tracing overhead: its wall time minus the
median wall time of the same first operation in the untraced runs of this
workload and modulus in this checkout (one untraced pass is made first if
there are none).

Work files live in .perfbench_work/<digest of src/psu38> under the
checkout: the graph cache verify_warm loads (prepared once per modulus,
untimed, in its own process, or left by a checked cold_build), the
untraced wall times, and the exact counts of earlier traced runs, which a
later traced run of the same seed must repeat.  The committed
.psu38_cache/ is never read or written; a change to it fails the run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src", "psu38")
WORKER = os.path.join(HERE, "workload.py")
SETUPS = 5        # set-up samples per run: four probes plus the workload process
DEADLINE = 170.0  # seconds a run may take before its processes are killed
PREPARE_DEADLINE = 600.0


def single_threaded_env(cache_dir: str) -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["AMALGAM_CACHE_DIR"] = cache_dir  # never the committed .psu38_cache
    env.pop("PYTHONPATH", None)
    return env


def source_digest() -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(SRC, name), "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def tree_state(path: str) -> list:
    """Names, sizes and mtimes under a directory (empty if absent)."""
    out = []
    for dirpath, _, files in os.walk(path):
        for name in sorted(files):
            st = os.stat(os.path.join(dirpath, name))
            out.append((os.path.join(dirpath, name), st.st_size, st.st_mtime_ns))
    return sorted(out)


class WorkerError(RuntimeError):
    pass


def worker(args, extra: list[str], env: dict, deadline: float) -> tuple[float, dict | None]:
    """Run workload.py; return (seconds from spawn to "ready", last JSON
    line or None).  The process is killed if it overruns the deadline."""
    cmd = [sys.executable, WORKER, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--workdir", args.workdir, "--cache-dir", args.cache_dir] + extra
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env,
                            cwd=ROOT)
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        proc.stdout.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or first.strip() != "ready":
        raise WorkerError(f"{' '.join(extra) or 'workload'} exited with code {code}")
    lines = rest.strip().splitlines()
    return ready, (json.loads(lines[-1]) if lines else None)


def tail(samples: list[float]) -> str:
    """Median plus the highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if not n:
        return "no samples"
    s = sorted(samples)
    text = f"p50 {statistics.median(s):.4f}"
    for p in (99, 95, 90, 75):
        if n * (100 - p) / 100 >= 10:
            text += f"  p{p} {s[min(n - 1, int(n * p / 100))]:.4f}"
            break
    return text + f"  (n={n})"


def exact_counts(args, layers: dict) -> list[str]:
    """Compare the exact counts with an earlier traced run of this seed,
    or record them for the next one."""
    from spans import EXACT_COUNTS
    counts = {k: layers[k][0] for k in EXACT_COUNTS}
    path = os.path.join(args.workdir, f"counts-{args.workload}-{args.seed}.json")
    if os.path.exists(path):
        with open(path) as f:
            before = json.load(f)
        return [f"{k} = {counts[k]} but an earlier traced run counted {before[k]}"
                for k in EXACT_COUNTS if before.get(k) != counts[k]]
    with open(path + ".tmp", "w") as f:
        json.dump(counts, f)
    os.replace(path + ".tmp", path)
    return []


def untraced_walls(args, modulus: int, add: float | None = None) -> list[float]:
    """Wall times of the first pass of untraced runs of this workload and
    modulus in this checkout; `add` appends one."""
    path = os.path.join(args.workdir, f"walls-{args.workload}-{modulus:02x}.json")
    walls = []
    if os.path.exists(path):
        with open(path) as f:
            walls = json.load(f)
    if add is not None:
        walls.append(add)
        with open(path + ".tmp", "w") as f:
            json.dump(walls, f)
        os.replace(path + ".tmp", path)
    return walls


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=("cold_build", "verify_warm"), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true",
                    help="rewrite this seed's modulus in reference.json from "
                         "the current code instead of checking against it")
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE

    if not os.path.isfile(os.path.join(SRC, "__init__.py")):
        print(f"error: no psu38 sources at {SRC}", file=sys.stderr)
        return 2
    args.workdir = os.path.join(ROOT, ".perfbench_work", source_digest())
    args.cache_dir = os.path.join(args.workdir, "cache")
    os.makedirs(args.cache_dir, exist_ok=True)
    env = single_threaded_env(args.cache_dir)
    committed = os.path.join(ROOT, ".psu38_cache")
    committed_before = tree_state(committed)

    try:
        if args.workload == "verify_warm":
            worker(args, ["--prepare"], env, time.monotonic() + PREPARE_DEADLINE)
            deadline = time.monotonic() + DEADLINE
        if args.record_reference:
            worker(args, ["--record"], env, deadline)
            print(f"reference.json updated for seed {args.seed}")
            return 0
        if args.trace:
            _, res = worker(args, ["--trace", "1"], env, deadline)
            errors = res["errors"]
            walls = untraced_walls(args, res["modulus"])
            if not walls:
                _, plain = worker(args, ["--seconds", "0"], env, deadline)
                errors += plain["errors"]
                if plain["failed"]:
                    errors.append("the untraced pass failed its checks")
                walls = untraced_walls(args, res["modulus"], plain["wall_s"])
            layers = res["layers"]
            untraced = statistics.median(walls)
            layers["trace.overhead_s"] = (res["wall_s"] - untraced, "s")
            layers["trace.untraced_wall_s"] = (untraced, "s")
            errors += exact_counts(args, layers)
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in sorted(layers.items())}
            samples = {}
        else:
            setups = [worker(args, ["--setup-only"], env, deadline)[0]
                      for _ in range(SETUPS - 1)]
            ready, res = worker(args, [], env, deadline)
            setups.append(ready)
            errors = res["errors"]
            if not res["failed"] and not errors:
                untraced_walls(args, res["modulus"], res["wall_s"])
            samples = {"setup_s": setups, "work_s": res["work_s"]}
            metrics = {k: {"value": statistics.median(v), "unit": "s"}
                       for k, v in samples.items()}
            metrics["peak_rss_mb"] = {"value": res["peak_rss_mb"], "unit": "MB"}
    except (WorkerError, KeyError, TypeError, ValueError) as e:
        print(f"error: {e!r}", file=sys.stderr)
        return 1

    attempted, failed = res["attempted"], res["failed"]
    if tree_state(committed) != committed_before:
        errors.append("the committed .psu38_cache/ changed during the run")
    if errors and failed == 0:
        failed = attempted

    print(f"workload {args.workload}  seed {args.seed}  modulus {res['modulus']:#09b}"
          f"  trace {args.trace}")
    for name, m in metrics.items():
        line = f"  {name:<44} {m['value']:>14.6g} {m['unit']:<6}"
        if name in samples:
            line += "  " + tail(samples[name])
        print(line)
    if res["op_s"]:
        print(f"  {'claim_s (each claim, not a metric)':<44} {'':>14} {'s':<6}  "
              f"{tail(res['op_s'])}")
    print(f"  operations {attempted}, failed {failed}, "
          f"ops_failed_ratio {failed / max(1, attempted):.4f}")
    for e in errors:
        print(f"  check failed: {e}")
    print(json.dumps({"correct": failed == 0 and not errors,
                      "attempted": max(1, attempted), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

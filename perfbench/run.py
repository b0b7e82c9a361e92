#!/usr/bin/env python3
"""End-to-end benchmark of the HeteFedRec library (see perfbench/README.md).

    python3 perfbench/run.py --workload sync_ml --seed 1 --seconds 25 --trace 0

Run from the repository root. Builds the library with the repository's own
CMake build and the two perfbench binaries into $CARGO_TARGET_DIR (default
.bench_build), runs one workload through ExperimentRunner::Create and
ExperimentRunner::Run, checks every op's outputs, prints a report and, as
the last line of stdout, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json (untraced);
--trace 1 reports its per-layer metrics from the traced binary, plus the
tracing overhead, and asserts the layer shares each workload exists for.
A full record (typed config, commit, nproc, AVX2, build type, raw ops) is
written to <build dir>/results/.
"""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Seed reserved for confirming a claimed gain; never tune on it.
HELD_OUT_SEED = 9001

# Each workload is a hetefedrec_run command line (same flag names and
# defaults; see perfbench/ops_main.cc). rank_anime's checkpoint_every is
# its rounds per epoch (ceil(users / 64)), so the checkpoint holds the
# final round. The interaction generator's seeds
# (101 ml, 202 anime, 303 douban in src/data/synthetic.cc) are fixed; --seed
# drives ExperimentConfig::seed: the train/test split, initialisation,
# client sampling, network and fault draws.
ASYNC_FLAGS = [
    "--async", "--async_dispatch_batch=16", "--delta_downloads",
    "--sparse_comm", "--server_shards=4", "--net_bandwidth_sigma=1.0",
    "--availability=0.8", "--fault_upload_loss=0.05", "--fault_corrupt=0.01",
    "--admission", "--admit_outlier_z=6", "--compute_backend=fp32_simd",
    "--threads=2",
]
RANK_FLAGS = ["--dataset=anime", "--data_scale=0.3", "--epochs=1",
              "--threads=2", "--eval_users=0", "--checkpoint_every=50"]
WORKLOADS = {
    "sync_ml": {
        "setups": 8,
        "flags": ["--method=hetefedrec", "--epochs=4"],
        "smoke": ["--epochs=1", "--data_scale=0.02"],
    },
    "async_anime": {
        "setups": 3,
        "flags": ["--method=hetefedrec", "--dataset=anime",
                  "--data_scale=0.2", "--epochs=2"] + ASYNC_FLAGS,
        "smoke": ["--data_scale=0.03", "--epochs=1"],
    },
    "rank_anime": {
        "setups": 3,
        "flags": ["--method=hetefedrec", "--mode=rank"] + RANK_FLAGS,
        "smoke": ["--data_scale=0.03", "--checkpoint_every=5"],
    },
}

# Outputs an op must reproduce exactly (determinism, resume, trace parity).
OUTPUT_KEYS = ("ndcg", "recall", "group_ndcg", "users", "updates", "bytes",
               "scalars", "sim_s", "collapse_cv", "comm_counters", "faults")

DEADLINE_S = 170.0  # the whole invocation must end within 180 s


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail_setup(msg):
    log("perfbench: " + msg)
    sys.exit(2)


# --- build ---------------------------------------------------------------

def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def run_quiet(cmd):
    r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                       stderr=subprocess.STDOUT, text=True)
    if r.returncode != 0:
        log(r.stdout[-4000:])
        fail_setup("build step failed: " + " ".join(cmd))


def build(traced):
    for path in ("CMakeLists.txt", "src", "perfbench/CMakeLists.txt"):
        if not os.path.exists(os.path.join(ROOT, path)):
            fail_setup("missing {} — run from a full source checkout".format(
                path))
    out = build_dir()
    lib_dir, bench_dir = os.path.join(out, "lib"), os.path.join(out, "bench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(lib_dir, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", ROOT, "-B", lib_dir,
                   "-DCMAKE_BUILD_TYPE=Release"])
    run_quiet(["cmake", "--build", lib_dir, "--target", "hetefedrec",
               "-j", jobs])
    if not os.path.exists(os.path.join(bench_dir, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", bench_dir,
                   "-DCMAKE_BUILD_TYPE=Release", "-DHFR_ROOT=" + ROOT,
                   "-DHFR_LIBRARY=" + os.path.join(lib_dir,
                                                   "libhetefedrec.a")])
    targets = ["perfbench_ops"] + (["perfbench_ops_traced"] if traced else [])
    run_quiet(["cmake", "--build", bench_dir, "--target"] + targets +
              ["-j", jobs])
    return bench_dir


# --- running ops -----------------------------------------------------------

class Invocation:
    """Runs the op binaries and tallies attempted / failed ops."""

    def __init__(self, args, bench_dir):
        self.args = args
        self.bench_dir = bench_dir
        self.started = time.monotonic()
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.work_dir = os.path.join(build_dir(), "work")
        os.makedirs(self.work_dir, exist_ok=True)

    def binary(self, traced):
        name = "perfbench_ops_traced" if traced else "perfbench_ops"
        return os.path.join(self.bench_dir, name)

    def run(self, flags, traced, setups, budget_s, extra=()):
        """One op process; returns its JSON or None (counted as failed)."""
        cmd = ([self.binary(traced)] + flags +
               ["--seed={}".format(self.args.seed),
                "--setups={}".format(setups),
                "--budget_s={}".format(budget_s),
                "--work_dir=" + self.work_dir] + list(extra))
        left = DEADLINE_S - (time.monotonic() - self.started)
        try:
            r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                               text=True, timeout=max(5.0, left))
        except subprocess.TimeoutExpired:
            return self.process_failed(cmd, "timed out")
        if r.returncode != 0:
            return self.process_failed(cmd, "exit {}".format(r.returncode))
        lines = r.stdout.strip().splitlines()
        try:
            return json.loads(lines[-1])
        except (IndexError, ValueError):
            return self.process_failed(cmd, "no JSON result")

    def process_failed(self, cmd, why):
        self.attempted += 1
        self.failed += 1
        self.problems.append("{}: {}".format(os.path.basename(cmd[0]), why))
        return None

    def judge(self, ops, reference, label, extra_check=None):
        """Counts each op; an op fails on any output check."""
        for i, op in enumerate(ops):
            self.attempted += 1
            why = check_outputs(op, reference)
            if not why and extra_check is not None:
                why = extra_check(op)
            if why:
                self.failed += 1
                self.problems.append("{} op {}: {}".format(label, i + 1, why))


def check_outputs(op, reference):
    for key in ("ndcg", "recall"):
        v = op[key]
        if not (isinstance(v, float) or isinstance(v, int)) or \
                not math.isfinite(v) or not 0.0 <= v <= 1.0:
            return "{} = {} is not a finite value in [0, 1]".format(key, v)
    if reference is not None:
        for key in OUTPUT_KEYS:
            if op[key] != reference[key]:
                return "{} differs from the reference run".format(key)
    return None


def reference_outputs(record, fault):
    """The outputs every op must reproduce, optionally made wrong on
    purpose (--check-fault) to show the checks can fail."""
    ref = dict(record)
    if fault:
        ref["ndcg"] = ref["ndcg"] + 1e-9
    return ref


# --- statistics ------------------------------------------------------------

def summary(values):
    v = sorted(values)
    n = len(v)
    out = {"median": statistics.median(v), "n": n, "min": v[0], "max": v[-1]}
    if n >= 2:
        q = statistics.quantiles(v, n=4)
        out["q1"], out["q3"] = q[0], q[2]
    if n >= 20:  # highest percentile with at least ten samples beyond it
        pct = math.floor(100.0 * (n - 10) / n)
        out["p{}".format(pct)] = statistics.quantiles(v, n=100)[pct - 1]
    return out


def bench_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        fail_setup("missing BENCHMARK.json")
    with open(path) as f:
        return json.load(f)


# --- workloads -------------------------------------------------------------

def untraced(inv, wl, flags, budget_s, setups, setup_procs=False):
    """Runs the untraced binary and checks its ops. Returns its JSON. With
    setup_procs, `setups` more Creates are timed in one process before and
    one after the op process, so setup_s spans three processes and the
    whole run rather than one moment."""
    setup_only = ["--max_ops=0"]
    before = inv.run(flags, False, setups, 0, setup_only) if setup_procs \
        else None
    out = inv.run(flags, False, 1 if setup_procs else setups, budget_s)
    after = inv.run(flags, False, setups, 0, setup_only) if setup_procs \
        else None
    if out is None:
        return None
    for extra in (before, after):
        if extra is not None:
            out["setup_s"] = out["setup_s"] + extra["setup_s"]
    fault = inv.args.check_fault
    if out["prep"] is not None:  # rank: resume must reproduce training
        ref = reference_outputs(out["prep"], fault)
    else:                        # train: every op reproduces the first
        ref = reference_outputs(out["ops"][0], fault)
    inv.judge(out["ops"], ref, wl)
    return out


def end_to_end(out):
    ops = out["ops"]
    train = out["prep"] if out["prep"] is not None else None
    run_s = [o["run_s"] for o in ops]

    def per_update(o):
        return o["bytes"] / o["updates"]

    if train is None:  # training ops: the op itself trains
        updates_per_s = [o["updates"] / o["run_s"] for o in ops]
        wire = [per_update(o) for o in ops]
        sim_s = [o["sim_s"] for o in ops]
    else:              # rank ops: from the run that wrote the checkpoint
        updates_per_s = [train["updates"] / train["run_s"]]
        wire = [per_update(train)]
        sim_s = [train["sim_s"]]
    series = {
        "setup_s": out["setup_s"],
        "run_s": run_s,
        "updates_per_s": updates_per_s,
        "rank_users_per_s": [o["users"] / o["run_s"] for o in ops],
        "cpu_s": [o["cpu_s"] for o in ops],
        "peak_rss_mb": [out["peak_rss_kb"] / 1024.0],
        "wire_bytes_per_update": wire,
        "sim_s": sim_s,
        "ndcg20": [o["ndcg"] for o in ops],
    }
    return {k: summary(v) for k, v in series.items()}


def layer_shares(layers, run_s):
    def share(*names):
        return sum(layers[n] for n in names) / run_s
    return {
        "local_trainer": share("local_trainer.busy_s"),
        "eval": share("eval.busy_s"),
        "server_sync_async": share("trainer.server_sync_async_s"),
    }


def share_check(workload, op, sync_reference_share, smoke):
    """The layer shares each workload was chosen for (README.md). They
    hold at full size only, so smoke runs check just the span tree."""
    tr = op["trace"]
    layers, run_s = tr["layers"], tr["run_s"]
    s = layer_shares(layers, run_s)
    if not tr["tree_ok"]:
        return "main-lane spans do not nest or do not add up to run_s"
    if smoke:
        return None
    if workload == "sync_ml":
        if s["local_trainer"] < 0.9:
            return "local_trainer share {:.3f} < 0.9".format(
                s["local_trainer"])
        if s["eval"] >= 0.05:
            return "eval share {:.3f} >= 0.05".format(s["eval"])
    if workload == "rank_anime":
        if layers["local_trainer.calls"] != 0:
            return "rank op trained"
        if s["eval"] < 0.9:
            return "eval share {:.3f} < 0.9".format(s["eval"])
    if workload == "async_anime" and sync_reference_share is not None:
        if s["server_sync_async"] <= sync_reference_share:
            return "server+sync+async share {:.4f} <= sync_ml's {:.4f}".format(
                s["server_sync_async"], sync_reference_share)
    return None


def traced_run(inv, wl, spec, flags, seconds, smoke):
    """--trace 1: untraced ops for a quarter of `seconds`, then traced ops
    for half of it; traced outputs must equal untraced ones."""
    plain = untraced(inv, wl, flags, seconds / 4.0, 1)
    extra = ["--spans_out=" + os.path.join(inv.work_dir,
                                           "{}.spans.json".format(wl))]
    if "--mode=rank" in flags:
        extra.append("--reuse_checkpoint")
    traced = inv.run(flags, True, spec["setups"], seconds / 2.0, extra)
    sync_ref = None
    if wl == "async_anime":
        # Reference share of the same layers on the synchronous workload.
        ref_flags = WORKLOADS["sync_ml"]["flags"] + ["--epochs=1"]
        if smoke:
            ref_flags += WORKLOADS["sync_ml"]["smoke"]
        ref = inv.run(ref_flags, True, 1, 0)
        if ref is not None:
            op = ref["ops"][0]["trace"]
            sync_ref = layer_shares(op["layers"],
                                    op["run_s"])["server_sync_async"]
    if plain is None or traced is None:
        return None, None, plain, traced
    base = plain["prep"] if plain["prep"] is not None else plain["ops"][0]
    inv.judge(traced["ops"],
              reference_outputs(base, inv.args.check_fault), wl + " traced",
              lambda op: share_check(wl, op, sync_ref, smoke))
    names = list(traced["ops"][0]["trace"]["layers"])
    metrics = {n: summary([o["trace"]["layers"][n] for o in traced["ops"]])
               for n in names}
    for n in ("data.generate_s", "data.split_s", "groups.assign_s"):
        metrics[n] = summary([s[n] for s in traced["setup_layers"]])
    metrics["trace.overhead_s"] = summary(
        [statistics.median(o["run_s"] for o in traced["ops"]) -
         statistics.median(o["run_s"] for o in plain["ops"])])
    metrics["trace.spans"] = summary(
        [o["trace"]["spans"] for o in traced["ops"]])
    metrics["trace.span_ns"] = summary([traced["span_ns"]])
    shares = layer_shares(
        {n: metrics[n]["median"] for n in names},
        statistics.median(o["trace"]["run_s"] for o in traced["ops"]))
    if sync_ref is not None:
        shares["sync_ml_server_sync_async"] = sync_ref
    return metrics, shares, plain, traced


# --- record ----------------------------------------------------------------

def source_identity():
    """Commit (when run inside a git checkout) and a digest of the sources."""
    commit = None
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head) as f:
            ref = f.read().strip()
        commit = ref
        if ref.startswith("ref: "):
            name = ref[5:]
            ref_path = os.path.join(ROOT, ".git", name)
            packed = os.path.join(ROOT, ".git", "packed-refs")
            if os.path.isfile(ref_path):
                with open(ref_path) as f:
                    commit = f.read().strip()
            elif os.path.isfile(packed):
                with open(packed) as f:
                    for line in f:
                        if line.strip().endswith(" " + name):
                            commit = line.split()[0]
    h = hashlib.sha256()
    files = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            files += [os.path.join(dirpath, f) for f in sorted(filenames)
                      if not f.endswith(".pyc")]
    for path in files:
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return {"commit": commit or "unknown (not a git checkout)",
            "source_sha256": h.hexdigest()}


def write_record(args, flags, metrics, shares, raw, inv):
    results = os.path.join(build_dir(), "results")
    os.makedirs(results, exist_ok=True)
    path = os.path.join(results, "{}-seed{}-trace{}.json".format(
        args.workload, args.seed, args.trace))
    first = next((r for r in raw if r is not None), None)
    record = {
        "workload": args.workload, "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "flags": flags,
        "source": source_identity(), "nproc": os.cpu_count(),
        "build": first["build"] if first else None,
        "config": first["config"] if first else None,
        "attempted": inv.attempted, "failed": inv.failed,
        "problems": inv.problems, "metrics": metrics, "layer_shares": shares,
        "raw": raw,
    }
    with open(path, "w") as f:
        json.dump(record, f, indent=1)
    return path


# Printed and recorded beside the BENCHMARK.json metrics but not gated:
# both are deterministic per seed, and their spread across seeds is wider
# than any bound the benchmark may set (README.md).
REPORTED_ONLY = {"ndcg20": "ndcg", "sim_s": "sim_s"}


def print_report(args, spec_metrics, metrics, shares, raw, inv, path):
    print("perfbench {} seed={} seconds={} trace={}{}".format(
        args.workload, args.seed, args.seconds, args.trace,
        " (smoke)" if args.smoke else ""))
    first = next((r for r in raw if r is not None), None)
    if first:
        b = first["build"]
        print("  {} users x {} items, {} interactions; build {} avx2_fma={} "
              "hw_threads={}".format(first["num_users"], first["num_items"],
                                     first["interactions"], b["type"],
                                     b["avx2_fma"], b["hardware_threads"]))
        faults = first["ops"][0]["faults"]
        if any(faults.values()):
            print("  faults/admission: " + " ".join(
                "{}={}".format(k, v) for k, v in faults.items()))
    units = [(m["name"], m["unit"]) for m in spec_metrics]
    units += [(n, u) for n, u in REPORTED_ONLY.items()
              if n in metrics and n not in dict(units)]
    for name, unit in units:
        s = metrics.get(name)
        if s is None:
            continue
        extra = " ".join("{}={:.6g}".format(k, v) for k, v in s.items()
                         if k not in ("median", "n"))
        print("  {:34s} {:>14.6g} {:6s} n={} {}".format(
            name, s["median"], unit, s["n"], extra))
    share = inv.failed / inv.attempted if inv.attempted else 1.0
    print("  {:34s} {:>14.6g} {:6s} ({} of {} ops)".format(
        "failed_share", share, "ratio", inv.failed, inv.attempted))
    if shares:
        print("  layer shares of run_s: " + " ".join(
            "{}={:.4f}".format(k, v) for k, v in shares.items()))
    for p in inv.problems[:5]:
        print("  FAILED " + p)
    if len(inv.problems) > 5:
        print("  ... and {} more failures".format(len(inv.problems) - 5))
    print("  record: " + os.path.relpath(path, ROOT))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs, for perfbench/selftest.py")
    ap.add_argument("--check-fault", action="store_true",
                    help="make the expected outputs wrong on purpose; every "
                         "op must then fail its output check")
    args = ap.parse_args()

    spec = bench_spec()
    bench_dir = build(traced=args.trace == 1)
    wl = WORKLOADS[args.workload]
    flags = wl["flags"] + (wl["smoke"] if args.smoke else [])
    inv = Invocation(args, bench_dir)

    if args.trace == 0:
        out = untraced(inv, args.workload, flags, args.seconds, wl["setups"],
                       setup_procs=True)
        raw = [out]
        metrics = end_to_end(out) if out is not None else {}
        shares = None
        spec_metrics = spec["end_to_end"]
    else:
        metrics, shares, plain, traced = traced_run(
            inv, args.workload, wl, flags, args.seconds, args.smoke)
        raw = [plain, traced]
        metrics = metrics or {}
        spec_metrics = spec["per_layer"]

    path = write_record(args, flags, metrics, shares, raw, inv)
    print_report(args, spec_metrics, metrics, shares, raw, inv, path)
    result = {
        "correct": inv.failed == 0 and inv.attempted > 0 and
        all(m["name"] in metrics for m in spec_metrics),
        "attempted": max(1, inv.attempted),
        "failed": inv.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]]["median"],
                                "unit": m["unit"]}
                    for m in spec_metrics if m["name"] in metrics},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

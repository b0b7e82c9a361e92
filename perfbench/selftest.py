#!/usr/bin/env python3
"""Self-test of the benchmark: python3 perfbench/selftest.py (repo root).

At smoke size, for every workload and both trace modes, asserts that the
run is correct and prints every BENCHMARK.json metric with its unit. Then
asserts that a deliberately wrong expected value fails every op (on the
determinism, resume and trace-parity checks), that the benchmark's C++
passes the repository's determinism lint, and that run.py exits non-zero
without a result when the sources are missing. Takes about two minutes.
"""

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


def bench(workload, trace, *extra, cwd=ROOT, script=RUN):
    cmd = [sys.executable, script, "--workload", workload, "--seed", "5",
           "--seconds", "1", "--trace", str(trace), "--smoke"] + list(extra)
    r = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, text=True,
                       timeout=600)
    return r.returncode, r.stdout


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def check(cond, what):
    print(("ok   " if cond else "FAIL ") + what, flush=True)
    return bool(cond)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ok = True
    for wl in [w["name"] for w in spec["workloads"]]:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            code, out = bench(wl, trace)
            res = last_json(out)
            label = "{} trace={}".format(wl, trace)
            ok &= check(code == 0 and res["correct"] and res["failed"] == 0
                        and res["attempted"] >= 1, label + " correct")
            for m in spec[kind]:
                got = res["metrics"].get(m["name"])
                ok &= check(got is not None and got["unit"] == m["unit"] and
                            math.isfinite(got["value"]),
                            "{} reports {} [{}]".format(label, m["name"],
                                                        m["unit"]))

    # A wrong expected value must trip the output check of every op.
    for wl, trace in (("sync_ml", 0), ("rank_anime", 0), ("async_anime", 1)):
        code, out = bench(wl, trace, "--check-fault")
        res = last_json(out)
        ok &= check(code == 0 and not res["correct"] and
                    res["failed"] == res["attempted"] and res["failed"] > 0,
                    "{} trace={} wrong expectation fails all {} ops".format(
                        wl, trace, res["attempted"]))

    lint = os.path.join(ROOT, "tools", "lint", "hfr_lint.py")
    if os.path.exists(lint):
        r = subprocess.run([sys.executable, lint, "--root", ROOT,
                            "perfbench"], stdout=subprocess.PIPE, text=True)
        ok &= check(r.returncode == 0, "determinism lint (R1-R5) clean: " +
                    (r.stdout.strip().splitlines() or [""])[-1])

    # Without the sources the benchmark must fail, printing no result.
    build = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    bare = os.path.join(build if os.path.isabs(build)
                        else os.path.join(ROOT, build), "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    code, out = bench("sync_ml", 0, cwd=bare,
                      script=os.path.join(bare, "perfbench", "run.py"))
    ok &= check(code != 0 and '"correct"' not in out,
                "bare directory exits {} without a result".format(code))
    shutil.rmtree(bare, ignore_errors=True)

    print("selftest " + ("PASSED" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

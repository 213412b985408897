#!/usr/bin/env python3
"""Runs one petal benchmark workload and prints its result.

    python3 petalbench/run.py --workload edit_storm --seed 1 --seconds 45 --trace 0

Run from the root of a checkout. The script builds the harness and the
petal_serve daemon from the checkout's sources (RelWithDebInfo, the
repository's default) into $CARGO_TARGET_DIR or .bench_build, runs the
prepare step in a process of its own, runs the workload, and prints a
metric table, one provenance line, and, last, the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer metrics (and writes a Chrome trace file under the build
directory). --selftest runs the harness self-tests; --record re-records the
reference answers (only when the pool or the answers change on purpose).
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys

ROOT = os.getcwd()
BENCH = os.path.dirname(os.path.abspath(__file__))
REFS = os.path.join(BENCH, "refs")


def fail(msg):
    print("petalbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "petalbench")


def run_logged(cmd, log, timeout):
    with open(log, "a") as out:
        proc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              timeout=timeout)
    if proc.returncode != 0:
        with open(log) as f:
            tail = f.read()[-3000:]
        fail("command failed: %s\n%s" % (" ".join(cmd), tail))


def build(out):
    os.makedirs(out, exist_ok=True)
    log = os.path.join(out, "build.log")
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        run_logged(["cmake", "-S", BENCH, "-B", out,
                    "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], log, 300)
    jobs = str(min(4, os.cpu_count() or 1))
    run_logged(["cmake", "--build", out, "-j", jobs, "--target",
                "petalbench", "petal_serve"], log, 840)
    return (os.path.join(out, "petalbench"),
            os.path.join(out, "petal_serve"))


def file_digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def prepare(harness, out):
    """Generates the inputs once per harness binary, in its own process."""
    prep = os.path.join(out, "prep")
    stamp = os.path.join(prep, "stamp")
    want = file_digest(harness)
    if os.path.exists(stamp) and open(stamp).read() == want:
        return prep
    shutil.rmtree(prep, ignore_errors=True)
    os.makedirs(prep)
    run_logged([harness, "prepare", "--out", prep],
               os.path.join(out, "prepare.log"), 300)
    with open(stamp, "w") as f:
        f.write(want)
    return prep


def source_identity():
    """The commit when the checkout is a git repository, else a digest of
    the sources the benchmark builds."""
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if rev.returncode == 0:
            return rev.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("src", "examples", "petalbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                p = os.path.join(d, name)
                h.update(os.path.relpath(p, ROOT).encode())
                h.update(open(p, "rb").read())
    return "tree:" + h.hexdigest()[:16]


def compiler(out):
    try:
        cache = open(os.path.join(out, "CMakeCache.txt")).read()
        cxx = [l.split("=", 1)[1] for l in cache.splitlines()
               if l.startswith("CMAKE_CXX_COMPILER:")][0]
        ver = subprocess.run([cxx, "--version"], capture_output=True,
                             text=True, timeout=10).stdout.splitlines()[0]
        return ver
    except (OSError, IndexError, subprocess.SubprocessError):
        return "unknown"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(spec_path):
        fail("run from the root of a checkout (no BENCHMARK.json here)")
    if not os.path.isdir(os.path.join(ROOT, "src")):
        fail("no petal sources (src/) in this directory")
    spec = json.load(open(spec_path))
    out = build_dir()
    harness, serve = build(out)
    prep = prepare(harness, out)

    if args.selftest:
        sys.exit(subprocess.run([harness, "selftest", "--prep", prep],
                                timeout=170).returncode)
    if args.record:
        run_logged([harness, "record", "--prep", prep, "--refs", REFS],
                   os.path.join(out, "record.log"), 600)
        return

    if not args.workload:
        fail("no --workload given")
    work = os.path.join(out, "work")
    os.makedirs(work, exist_ok=True)
    cmd = [harness, "run", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--prep", prep, "--refs", REFS,
           "--serve", serve, "--work", work]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=175)
    if proc.returncode != 0:
        fail("harness failed (%d): %s" % (proc.returncode, proc.stderr[-3000:]))
    lines = [l for l in proc.stdout.splitlines() if l.startswith("RESULT ")]
    if not lines:
        fail("harness printed no result")
    res = json.loads(lines[-1][len("RESULT "):])

    # A declared workload reports every declared metric; paper_replay, kept
    # outside BENCHMARK.json (see README), has no edits to time.
    declared = args.workload in [w["name"] for w in spec["workloads"]]
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics, table = {}, []
    for m in wanted:
        got = res["metrics"].get(m["name"])
        if got is None and not declared:
            continue
        if got is None:
            fail("metric %s was not measured" % m["name"])
        if got["unit"] != m["unit"]:
            fail("metric %s measured in %s, declared in %s"
                 % (m["name"], got["unit"], m["unit"]))
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
        table.append((m["name"], got["value"], m["unit"], got["samples"]))

    for p in res["problems"]:
        print("problem: " + p)
    print("%-32s %16s  %-6s %8s" % ("metric", "value", "unit", "samples"))
    for name, value, unit, n in table:
        print("%-32s %16.4f  %-6s %8d" % (name, value, unit, n))
    provenance = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "build_type": "RelWithDebInfo",
        "compiler": compiler(out), "commit": source_identity(),
        "machine": platform.machine(),
        "samples": {name: n for name, _, _, n in table},
    }
    provenance.update(res["info"])
    print("provenance " + json.dumps(provenance, sort_keys=True))
    print(json.dumps({"correct": res["failed"] == 0 and res["attempted"] > 0,
                      "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""End-to-end benchmark of dwv: builds dwv_e2e from source, runs one
workload and prints its metrics. Run it from the repository root:

    python3 bench_e2e/run.py --workload osc_polar_learn --seed 1 \
        --seconds 20 --trace 0

The last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}; with --trace 0 the metrics
are the end_to_end metrics of BENCHMARK.json, with --trace 1 the per_layer
metrics (0 where the layer does not run on the workload). See README.md in
this directory for the workloads, the metrics and the inputs.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 170
# Fresh processes that time set-up besides the main run (--trace 0 only).
SETUP_RUNS = 2


def fail(msg):
    print(f"bench_e2e: {msg}", file=sys.stderr)
    sys.exit(2)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--input-seed", type=int, default=0,
                   help="base input of the learn workloads (0 = default)")
    p.add_argument("--controller", default="",
                   help="controller file for osc_xi_search")
    a = p.parse_args()
    if a.seed < 0 or a.seconds <= 0 or a.input_seed < 0:
        fail("--seed and --input-seed must be >= 0, --seconds > 0")
    return a


def build():
    """Configures and builds dwv_e2e; returns it and its work directory."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    out = Path(os.environ.get("CARGO_TARGET_DIR", ROOT / ".bench_build"))
    build_dir = (out if out.is_absolute() else ROOT / out) / "e2e"
    if not (build_dir / "CMakeCache.txt").is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir), *gen,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", str(build_dir), "--target", "dwv_e2e",
           "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return build_dir / "dwv_e2e", build_dir.parent / "e2e-work"


def revision():
    """Git revision, or a hash of the sources when there is no .git."""
    if (ROOT / ".git").exists() and shutil.which("git"):
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            return r.stdout.strip()
    h = hashlib.sha256()
    for d in ("src", BENCH_DIR.name):
        for f in sorted((ROOT / d).rglob("*")):
            if f.is_file():
                h.update(str(f.relative_to(ROOT)).encode())
                h.update(f.read_bytes())
    return "sources-sha256:" + h.hexdigest()[:16]


def run_e2e(exe, args):
    """Runs dwv_e2e; echoes its report lines, returns its JSON result."""
    try:
        r = subprocess.run([str(exe), *args], capture_output=True, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("dwv_e2e timed out")
    sys.stderr.write(r.stderr)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        fail(f"dwv_e2e exited with code {r.returncode}")
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def main():
    a = parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if a.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {a.workload}")
    exe, work_dir = build()
    work_dir.mkdir(parents=True, exist_ok=True)
    common = ["--workload", a.workload, "--seed", str(a.seed),
              "--input-seed", str(a.input_seed),
              "--data-dir", str(BENCH_DIR / "data"),
              "--work-dir", str(work_dir), "--revision", revision()]
    if a.controller:
        common += ["--controller", a.controller]

    setups = []
    if a.trace == 0:
        setups = [run_e2e(exe, [*common, "--setup-only"])
                  for _ in range(SETUP_RUNS)]
    res = run_e2e(exe, [*common, "--seconds", str(a.seconds),
                           "--trace", str(a.trace)])

    runs = [res, *setups]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    # A fresh process must reproduce the main run's cold job bit for bit.
    for s in setups:
        if s["digest"] != res["digest"]:
            print(f"set-up run digest {s['digest']} differs from "
                  f"{res['digest']}")
            failed += 1
    if a.trace == 0:
        measured = dict(res["e2e"])
        measured["setup_s"] = statistics.median(r["setup_s"] for r in runs)
        wanted = spec["end_to_end"]
    else:
        measured = res["layers"]
        wanted = spec["per_layer"]
    names = {m["name"] for m in wanted}
    unknown = sorted(set(measured) - names)
    if unknown:
        fail(f"dwv_e2e reported metrics missing from BENCHMARK.json: {unknown}")
    if a.trace == 0 and names - set(measured):
        fail(f"dwv_e2e did not report {sorted(names - set(measured))}")
    metrics = {m["name"]: {"value": measured.get(m["name"], 0.0),
                           "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": failed == 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()

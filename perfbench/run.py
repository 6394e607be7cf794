#!/usr/bin/env python3
"""The repository benchmark: builds relbench from source and runs one workload.

    python3 perfbench/run.py --workload train|serve_cold|serve_mixed \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build) and every file the run writes stays under it. Each
workload runs in its own process. The last line of standard output is the
result: {"correct", "attempted", "failed", "metrics"}, where the metrics
are BENCHMARK.json's end_to_end list with --trace 0 and its per_layer list
with --trace 1. The line before it carries provenance and the gates that
ran. --smoke runs all three workloads at tiny sizes in both modes and
checks that every declared metric is emitted with its unit, that every
per-layer metric is measured by some workload, and that the correctness
gates ran and passed.
"""

import argparse
import fcntl
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("train", "serve_cold", "serve_mixed")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 165


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else ROOT / d


def run_checked(cmd, timeout):
    """Runs `cmd` with its output on stderr; kills and reaps it on timeout."""
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        return None


def build(out):
    """Configures (once) and builds relbench; returns its path or None."""
    out.mkdir(parents=True, exist_ok=True)
    with open(out / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        cache = out / "CMakeCache.txt"
        if cache.exists() and str(BENCH_DIR) not in cache.read_text(
                errors="replace"):
            cache.unlink()  # configured for another checkout
        if not cache.exists() or not (out / "Makefile").exists():
            rc = run_checked(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                              "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
            if rc != 0:
                return None
        rc = run_checked(["cmake", "--build", str(out), "--target", "relbench",
                          "-j", "4"], BUILD_TIMEOUT_S)
        if rc != 0:
            return None
    binary = out / "relbench"
    return binary if binary.exists() else None


def commit_id():
    """The git commit, or a hash of the benchmarked sources outside git."""
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
        if head.returncode == 0 and head.stdout.strip():
            return head.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return "tree-" + h.hexdigest()[:16]


def declared():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def run_workload(binary, out, workload, seed, seconds, trace, smoke=False):
    """Runs one workload process; returns its parsed record or None."""
    run_dir = out / "run" / f"{workload}-{seed}-{trace}"
    results = out / "results"
    run_dir.mkdir(parents=True, exist_ok=True)
    results.mkdir(parents=True, exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{trace}{'-smoke' if smoke else ''}"
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--scratch", str(run_dir), "--spans",
           str(results / f"spans-{tag}.jsonl"), "--commit", commit_id()]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                            text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log(f"{workload}: timed out after {RUN_TIMEOUT_S} s")
        return None
    if proc.returncode != 0:
        log(f"{workload}: exited with {proc.returncode}")
        return None
    lines = [l for l in stdout.splitlines() if l.strip()]
    try:
        record = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        log(f"{workload}: no result line")
        return None
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    return record


def reduce(record, trace):
    """The contract's result from a relbench record, or None if malformed.

    Per-layer metrics of a layer the workload does not exercise are
    reported as 0 (no work measured); a missing end-to-end metric, a unit
    that disagrees with BENCHMARK.json or a non-finite value is an error.
    """
    end_to_end, per_layer = declared()
    wanted = per_layer if trace else end_to_end
    got = record.get("metrics", {})
    metrics = {}
    for name, unit in wanted.items():
        m = got.get(name)
        if m is None:
            if not trace:
                log(f"end-to-end metric {name} missing")
                return None
            m = {"value": 0.0, "unit": unit}
        if m["unit"] != unit:
            log(f"metric {name}: unit {m['unit']} != declared {unit}")
            return None
        if not isinstance(m["value"], (int, float)) or not math.isfinite(
                m["value"]):
            log(f"metric {name}: value {m['value']!r} is not a finite number")
            return None
        metrics[name] = {"value": m["value"], "unit": unit}
    return {"correct": bool(record["correct"]),
            "attempted": max(1, int(record["attempted"])),
            "failed": int(record["failed"]), "metrics": metrics}


def smoke(binary, out):
    ok = True
    _, per_layer = declared()
    emitted = set()  # per-layer metrics some workload measured itself
    for workload in WORKLOADS:
        for trace in (0, 1):
            record = run_workload(binary, out, workload, 1, 2, trace,
                                  smoke=True)
            result = reduce(record, trace) if record else None
            problems = []
            if result is None:
                problems.append("no well-formed result")
            else:
                if not result["correct"]:
                    problems.append("outputs incorrect")
                if not record["gates"]:
                    problems.append("no correctness gate ran")
                if any("FAIL" in g for g in record["gates"]):
                    problems.append("a gate failed")
                if trace:
                    emitted.update(record["metrics"])
            log(f"smoke {workload} trace={trace}: "
                f"{'ok' if not problems else '; '.join(problems)}"
                + (f" gates={record['gates']}" if record else ""))
            ok = ok and not problems
    unmeasured = sorted(set(per_layer) - emitted)
    if unmeasured:
        log(f"smoke: no workload measures {unmeasured}")
        ok = False
    print(json.dumps({"smoke": "pass" if ok else "FAIL"}))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if not args.smoke and args.workload is None:
        ap.error("--workload is required")

    out = build_dir()
    binary = build(out)
    if binary is None:
        log("build failed")
        return 1
    if args.smoke:
        return smoke(binary, out)

    record = run_workload(binary, out, args.workload, args.seed, args.seconds,
                          args.trace)
    result = reduce(record, args.trace) if record else None
    if result is None:
        return 1
    for note in record.get("notes", []):
        log(note)
    print(json.dumps({"provenance": record.get("info", {}),
                      "valid": record.get("valid", True),
                      "gates": record.get("gates", [])}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

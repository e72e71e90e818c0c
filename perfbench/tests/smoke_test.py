#!/usr/bin/env python3
"""Tiny-size smoke of every benchmark workload.

Runs each workload named in BENCHMARK.json with --smoke (tiny inputs, one
set-up, one pass), untraced and traced, and checks the result line: the run
is correct, nothing failed, and the metric names and units are exactly the
end-to-end (untraced) or per-layer (traced) metrics BENCHMARK.json declares.
It then checks that the benchmark, copied without the repository sources,
exits non-zero without printing a result.

Run from the repository root:

    python3 perfbench/tests/smoke_test.py
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def result_line(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def run(cwd, workload, trace, smoke=True):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=900)


def check_workload(spec, workload, trace):
    proc = run(ROOT, workload, trace)
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stdout[-2000:]}{proc.stderr[-2000:]}"]
    result = result_line(proc.stdout)
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        errors.append(f"not correct: {proc.stdout[-2000:]}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append(f"attempted = {result.get('attempted')!r}")
    declared = spec["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if want != got:
        errors.append(f"metrics differ from BENCHMARK.json: missing {sorted(set(want) - set(got))},"
                      f" extra {sorted(set(got) - set(want))},"
                      f" unit mismatches {sorted(n for n in want if n in got and want[n] != got[n])}")
    if not trace:
        zero = [n for n, m in result["metrics"].items() if m["value"] == 0]
        if zero:
            errors.append(f"end-to-end metrics read 0: {zero}")
    return errors


def check_refuses_without_sources(spec):
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
        for path in spec["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(tmp, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(tmp, spec["workloads"][0]["name"], 0, smoke=False)
        if proc.returncode == 0:
            return ["exited 0 without the repository sources"]
        try:
            printed = isinstance(result_line(proc.stdout), dict)
        except ValueError:
            printed = False
        return ["printed a result without the repository sources"] if printed else []


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            errors = check_workload(spec, workload, trace)
            print(f"{workload} trace={trace}: {'ok' if not errors else 'FAILED'}")
            for e in errors:
                print(f"  {e}")
            failures += bool(errors)
    errors = check_refuses_without_sources(spec)
    print(f"refuses without sources: {'ok' if not errors else 'FAILED'}")
    for e in errors:
        print(f"  {e}")
    failures += bool(errors)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

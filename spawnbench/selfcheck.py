#!/usr/bin/env python3
"""Self-check of the SpawnService benchmark.

Usage, from the repository root:

    python3 spawnbench/selfcheck.py

Runs one short workload untraced and traced, and asserts that every metric
BENCHMARK.json names is printed, both in the table and in the JSON result,
with its unit, and that the run's context is recorded. Then runs it with a
deliberately wrong expected exit status for /bin/false and asserts that
verification trips: the run exits non-zero and reports correct=false with
failed requests. Exits 0 when every check passes.
"""
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOAD = "zygote-trivial"


def run(trace, *extra):
    cmd = [sys.executable, os.path.join(ROOT, "spawnbench", "run.py"), "--workload", WORKLOAD,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise AssertionError(f"no output from {cmd}: {proc.stderr[-2000:]}")
    return proc.returncode, lines[:-1], json.loads(lines[-1])


def check_metrics(spec, trace):
    code, table, result = run(trace)
    assert code == 0 and result["correct"], f"trace={trace}: run failed: {result}"
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, sorted(result)
    assert result["attempted"] >= 1 and result["failed"] == 0, result
    for metric in spec:
        name, unit = metric["name"], metric["unit"]
        got = result["metrics"].get(name)
        assert got is not None, f"trace={trace}: {name} missing from the JSON result"
        assert got["unit"] == unit, f"{name}: unit {got['unit']!r}, expected {unit!r}"
        assert isinstance(got["value"], (int, float)), f"{name}: value {got['value']!r}"
        assert any(line.split()[:1] == [name] and unit in line.split() for line in table), \
            f"trace={trace}: {name} not printed with its unit {unit!r}"
    extra = set(result["metrics"]) - {m["name"] for m in spec}
    assert not extra, f"trace={trace}: metrics not named in BENCHMARK.json: {sorted(extra)}"
    context = json.loads(table[-1])["context"]
    for key in ("nproc", "kernel_release", "shards", "ballast_bytes", "fanout_window", "seed",
                "tracing"):
        assert key in context, f"trace={trace}: context lacks {key}: {context}"
    assert context["tracing"] is bool(trace), context


def check_verification_trips():
    code, _, result = run(0, "--expect-wrong-exit")
    assert code != 0, "a run expecting the wrong exit status still exited 0"
    assert result["correct"] is False, result
    assert result["failed"] > 0, result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    check_metrics(bench["end_to_end"], 0)
    check_metrics(bench["per_layer"], 1)
    check_verification_trips()
    print("selfcheck: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())

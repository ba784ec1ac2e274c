"""Smoke test of the benchmark itself: every workload at tiny size.

    python3 perfbench/smoke.py

For each workload, with tracing off and on, runs run.py for one second at
``--scale tiny`` and checks that it exits 0, that its last line is the result
object with every metric BENCHMARK.json names (end_to_end untraced,
per_layer traced) in its declared unit, that every end-to-end metric is also
printed by name with its unit, and that all checks pass.  Last, it checks
that the benchmark refuses to run, without a result, in a directory holding
only BENCHMARK.json and the benchmark.  Exits 0 when everything holds.
"""

import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
NOUNS = {"tuning_grid": "run", "noise_floor": "draw", "wide_head": "run"}
TIMEOUT_S = 180


def printed_metrics(stdout: str) -> dict:
    """name -> unit for every human-readable 'metric <name> = <value> <unit>' line."""
    found = {}
    for line in stdout.splitlines():
        match = re.match(r"metric (\S+) = (\S+) (\S+)", line)
        if match:
            found[match.group(1)] = match.group(3)
    return found


def smoke(workload: str, trace: int, spec: dict) -> list:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--scale", "tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=TIMEOUT_S)
    if proc.returncode != 0:
        return [f"exit status {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not result.get("correct") or result.get("failed") != 0 or result.get("attempted", 0) < 1:
        problems.append(f"correct={result.get('correct')} attempted={result.get('attempted')} "
                        f"failed={result.get('failed')}")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = result.get("metrics", {})
    if set(metrics) != {m["name"] for m in wanted}:
        problems.append(f"metric names differ from BENCHMARK.json: {sorted(set(metrics) ^ {m['name'] for m in wanted})}")
    for m in wanted:
        got = metrics.get(m["name"], {})
        if got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
            problems.append(f"{m['name']}: {got} (want unit {m['unit']})")
    if not trace:
        noun = NOUNS[workload]
        named = ["setup_s", f"{noun}s_per_s", f"{noun}_s_p50", f"{noun}_s_tail", "rounds_per_s",
                 "releases_per_s", "peak_rss_mb", "host_slowdown", "failed_ops_frac"]
        if workload == "tuning_grid":
            named += ["tuned_accuracy.sofim", "tuned_accuracy.fedgd"]
        printed = printed_metrics(proc.stdout)
        problems += [f"metric {name} not printed with a unit" for name in named if not printed.get(name)]
    problems += [line for line in proc.stdout.splitlines() if line.startswith("check") and "FAILED" in line]
    return problems


def refuses_without_sources() -> list:
    """The benchmark must exit nonzero, printing no result, when src/ is absent."""
    bare = Path(tempfile.mkdtemp(prefix=".perfbench-smoke-", dir=ROOT))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name, ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, f"{BENCH_DIR.name}/run.py", "--workload", "noise_floor",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=TIMEOUT_S)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return [f"ran without sources: status {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    failures = 0
    for workload in NOUNS:
        for trace in (0, 1):
            problems = smoke(workload, trace, spec)
            failures += bool(problems)
            print(f"{'ok' if not problems else 'FAIL'} {workload} trace={trace}")
            for problem in problems:
                print(f"    {problem}")
    problems = refuses_without_sources()
    failures += bool(problems)
    print(f"{'ok' if not problems else 'FAIL'} refuses to run without src/")
    for problem in problems:
        print(f"    {problem}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

"""Fast self-test of the benchmark; no timing assertions.

    python3 perfbench/selftest.py

Runs the `tiny` workload end to end, untraced and traced, and checks that
the last stdout line names every metric of BENCHMARK.json with its unit,
next to whole attempted/failed counts. Then checks that a copy of the
benchmark without the program's sources exits non-zero and prints no
result. Exits 0 when all of that holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(root: Path, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tiny", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=170)


def check_result(proc, expected: dict) -> list[str]:
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr[-2000:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True:
        errors.append("correct is not true")
    for key in ("attempted", "failed"):
        if not isinstance(result.get(key), int) or isinstance(result.get(key), bool):
            errors.append(f"{key} is not a whole number")
    if result.get("attempted", 0) < 1 or result.get("failed") != 0:
        errors.append(f"attempted {result.get('attempted')}, failed {result.get('failed')}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        errors.append(f"metrics differ: missing {sorted(set(expected) - set(metrics))}, "
                      f"extra {sorted(set(metrics) - set(expected))}")
    for name, unit in expected.items():
        m = metrics.get(name, {})
        if m.get("unit") != unit or not isinstance(m.get("value"), (int, float)):
            errors.append(f"{name}: {m} (unit should be {unit})")
    return errors


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        expected = {m["name"]: m["unit"] for m in spec[key]}
        errors = check_result(run(ROOT, trace), expected)
        failures += [f"--trace {trace}: {e}" for e in errors]
        print(f"--trace {trace}: {len(expected)} metrics, {'ok' if not errors else 'FAILED'}")

    bare = HERE / "out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run(bare, 0)
        printed_result = any(line.startswith('{"correct"') for line in proc.stdout.splitlines())
        ok = proc.returncode != 0 and not printed_result
        print(f"without src/: exit code {proc.returncode}, {'ok' if ok else 'FAILED'}")
        if not ok:
            failures.append("a checkout without src/ did not fail")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for f in failures:
        print(f"FAILED {f}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

"""Self-test of the benchmark itself.

    python3 bench/selftest.py

For every workload: two traced runs on one seed must report identical
counts (calls, eigendecompositions, oracle iterations and verdicts), and an
untraced run on a second seed must pass every check and print every
end-to-end metric. Finally the benchmark must fail, without printing a
result, when the package source is missing. Exits 1 on any mismatch.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
RUN = BENCH / "run.py"
sys.path.insert(0, str(BENCH))

from run import END_TO_END  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEEDS = (11, 12)
SECONDS = "2"
# deterministic floats: compared to a relative 1e-12, since they are sums
# over a number of rounds that depends on the machine's speed
FLOATS = ("hypotest.max_abs_gap", "rates.bracket_width_bits")


def run(workload: str, seed: int, trace: int, script: Path = RUN) -> tuple[int, dict | None]:
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", SECONDS, "--trace", str(trace)],
        capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return proc.returncode, None


def main() -> int:
    problems = []
    for name in WORKLOADS:
        code_a, a = run(name, SEEDS[0], 1)
        code_b, b = run(name, SEEDS[0], 1)
        if code_a or code_b or a is None or b is None:
            problems.append(f"{name}: traced run failed")
            continue
        for key, ma in a["metrics"].items():
            va, vb = ma["value"], b["metrics"][key]["value"]
            if key in FLOATS:
                same = math.isclose(va, vb, rel_tol=1e-12, abs_tol=0.0)
            elif ma["unit"] in ("count", "ratio"):
                same = va == vb
            else:
                continue
            if not same:
                problems.append(f"{name}: {key} differs between reruns: {va} vs {vb}")
        code, c = run(name, SEEDS[1], 0)
        if code or c is None:
            problems.append(f"{name}: run on seed {SEEDS[1]} failed")
            continue
        if not c["correct"]:
            problems.append(f"{name}: wrong answers on seed {SEEDS[1]}")
        missing = [k for k, _ in END_TO_END if not c["metrics"].get(k, {}).get("value", 0) > 0]
        if missing:
            problems.append(f"{name}: end-to-end metrics missing or not positive: {missing}")
        print(f"{name}: reruns agree on {len(a['metrics'])} per-layer metrics; "
              f"seed {SEEDS[1]} attempted {c['attempted']}, failed {c['failed']}")

    # without the package source the benchmark must refuse to produce a result
    (BENCH / "out").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=BENCH / "out"))
    try:
        shutil.copytree(BENCH, bare / BENCH.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
        code, result = run(next(iter(WORKLOADS)), SEEDS[0], 0, bare / BENCH.name / RUN.name)
        if code == 0 or result is not None:
            problems.append("run without the package source did not fail")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for p in problems:
        print(f"FAIL {p}")
    print("selftest:", "FAIL" if problems else "PASS")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's own test: BENCHMARK.json is well formed and a smoke run reports every metric it lists.

    python3 perfbench/selfcheck.py

Runs ``run.py --workload smoke`` untraced and traced (a few seconds each) and
compares the metric names and units in the last output line with the
``end_to_end`` and ``per_layer`` lists. Exits with 1 and names every problem
found.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def spec_problems(spec: dict) -> list[str]:
    problems = []
    expected = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(spec) != expected:
        problems.append(f"BENCHMARK.json keys {sorted(spec)} != {sorted(expected)}")
    names = [w["name"] for w in spec["workloads"]] + [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    problems += [f"bad or repeated name {n!r}" for n in names if not NAME.match(n) or names.count(n) > 1]
    for metric in spec["end_to_end"] + spec["per_layer"]:
        if not UNIT.match(metric["unit"]) or metric["better"] not in ("higher", "lower"):
            problems.append(f"bad unit or direction in {metric}")
    for metric in spec["end_to_end"]:
        if not 0 < metric["bound"] <= 0.25:
            problems.append(f"bound of {metric['name']} outside (0, 0.25]")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        problems.append("end_to_end needs setup_s in s, lower is better")
    elif setup[0]["bound"] < max(m["bound"] for m in spec["end_to_end"]):
        problems.append("setup_s should have the largest bound")
    return problems


def run_problems(spec: dict, trace: int) -> list[str]:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "smoke", "--seed", "1",
         "--seconds", "2", "--trace", str(trace)],
        capture_output=True, text=True, timeout=180, cwd=ROOT,
    )
    if proc.returncode != 0:
        return [f"smoke run with --trace {trace} exited with {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: metric["unit"] for name, metric in result["metrics"].items()}
    problems = [f"--trace {trace}: {name} missing or in the wrong unit" for name in wanted if got.get(name) != wanted[name]]
    problems += [f"--trace {trace}: {name} not listed in BENCHMARK.json" for name in got if name not in wanted]
    if set(result) != {"correct", "attempted", "failed", "metrics"} or not result["correct"]:
        problems.append(f"--trace {trace}: result keys {sorted(result)}, correct={result.get('correct')}")
    return problems


def main() -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    problems = spec_problems(spec) + run_problems(spec, 0) + run_problems(spec, 1)
    for problem in problems:
        print(f"problem: {problem}")
    print("selfcheck " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

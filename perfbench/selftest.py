"""Fast self-test of the benchmark: every workload, untraced and traced, at
a fifth of the grid sizes and one second of task time.

    python3 perfbench/selftest.py

Checks that each run exits 0, that its last line is the result object with
every metric BENCHMARK.json names, each with its unit, and that no task
failed.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                    "--seed", "7", "--seconds", "1", "--trace", str(trace),
                    "--scale", "5"]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                                  timeout=600)
            where = f"{workload} trace={trace}"
            before = len(problems)
            if proc.returncode:
                problems.append(f"{where}: exit {proc.returncode}\n{proc.stderr}")
            else:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                if got != wanted[trace]:
                    odd = sorted(set(got.items()) ^ set(wanted[trace].items()))
                    problems.append(f"{where}: missing, unexpected or "
                                    f"mis-united metrics {odd}")
                if result["failed"] or not result["correct"] or result["attempted"] < 1:
                    problems.append(f"{where}: {result['failed']} of "
                                    f"{result['attempted']} tasks failed")
            print(f"{where}: {'ok' if len(problems) == before else 'FAILED'}")
    for p in problems:
        print("FAIL", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

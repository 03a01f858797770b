"""Check the output of a perfbench smoke run; exit 1 with the first problem.

Every op must pass the oracle, and every traced layer must still be
wrapped: a renamed import leaves a wrap target absent and its span
silently empty.  Usage:

    python3 perfbench/run.py --workload all --seed 1 --seconds 1 --trace 1 > smoke.txt
    python3 .github/scripts/check_bench_smoke.py smoke.txt
"""

import json
import sys


def main(path: str) -> str | None:
    with open(path, encoding="utf-8") as f:
        results = [json.loads(line) for line in f if line.startswith('{"correct"')]
    if len(results) != 8:
        return f"expected 8 result lines, got {len(results)}"
    for r in results:
        if r["correct"] is not True:
            return f"an op failed its oracle: {r}"
        absent = r["metrics"].get("trace.absent_targets", {"value": 0})["value"]
        if absent != 0:
            return f"{absent} absent wrap targets"
    traced = sum("trace.absent_targets" in r["metrics"] for r in results)
    if traced != 4:
        return f"expected 4 traced runs, got {traced}"
    print("benchmark smoke run: all ops correct, no absent wrap targets")
    return None


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))

"""Check in seconds that the benchmark prints what BENCHMARK.json declares.

    python3 bench/selfcheck.py

run.py prints exactly the metrics of run.END_TO_END (--trace 0) or
tracing.PER_LAYER (--trace 1) with their units, and accepts exactly the
workloads of workloads.WORKLOADS.  This compares those names and units
with BENCHMARK.json, and computes the per-layer metrics of an empty trace
to confirm that every declared one is produced.  Exits 1 and names each
difference when they disagree.
"""

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def compare(what: str, declared: dict, printed: dict) -> list[str]:
    if declared == printed:
        return []
    missing = sorted(set(declared) - set(printed))
    extra = sorted(set(printed) - set(declared))
    wrong = sorted(n for n in set(declared) & set(printed) if declared[n] != printed[n])
    return [f"{what}: missing {missing}, extra {extra}, unit differs {wrong}"]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(BENCH_DIR))
    import run
    import tracing
    import workloads

    problems = []
    declared = sorted(w["name"] for w in spec["workloads"])
    if declared != sorted(workloads.WORKLOADS):
        problems.append(f"workloads: BENCHMARK.json {declared} vs run.py {sorted(workloads.WORKLOADS)}")
    problems += compare(
        "end_to_end", {m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END
    )
    problems += compare(
        "per_layer", {m["name"]: m["unit"] for m in spec["per_layer"]}, tracing.PER_LAYER
    )
    if list(tracing.layer_metrics([], 1, 0.0)) != list(tracing.PER_LAYER):
        problems.append("per_layer: layer_metrics does not produce every PER_LAYER metric")
    for line in problems:
        print(line)
    print("selfcheck:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

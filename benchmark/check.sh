#!/usr/bin/env bash
# The one script a reviewer or a CI job calls: builds the benchmark
# offline, runs `run` and `trace` on the hold-out seed with reduced op
# counts, and checks that BENCHMARK.json lists exactly the workload and
# metric names (with units, directions and bounds) the binary reports.
set -euo pipefail
cd "$(dirname "$0")/.."

HOLD_OUT_SEED=2
QUICK_SECONDS=3

cargo build --release --offline --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/vecycle-benchmark"

"$bin" run --seed "$HOLD_OUT_SEED" --seconds "$QUICK_SECONDS"
"$bin" trace --seed "$HOLD_OUT_SEED" --seconds "$QUICK_SECONDS"
# Reduced-count results are a smoke test, not a point of the trajectory.
rm -f benchmark/results/*-"$HOLD_OUT_SEED".run.json \
      benchmark/results/*-"$HOLD_OUT_SEED".layers.json \
      benchmark/results/*-"$HOLD_OUT_SEED".spans.json

"$bin" names | python3 -c '
import json, sys

manifest = json.load(open("BENCHMARK.json"))
listed = set()
for w in manifest["workloads"]:
    listed.add(("workload", w["name"]))
for m in manifest["end_to_end"]:
    listed.add(("end_to_end", m["name"], m["unit"], m["better"], float(m["bound"])))
for m in manifest["per_layer"]:
    listed.add(("per_layer", m["name"], m["unit"], m["better"]))

printed = set()
for line in sys.stdin:
    kind, *rest = line.split()
    if kind == "end_to_end":
        rest[3] = float(rest[3])
    printed.add((kind, *rest))

for only, where in ((printed - listed, "binary"), (listed - printed, "BENCHMARK.json")):
    for item in sorted(only, key=str):
        print(f"only in {where}: {item}")
if printed != listed:
    sys.exit("BENCHMARK.json and the binary disagree")
print(f"BENCHMARK.json matches the binary: {len(listed)} names")
'

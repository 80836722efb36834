#!/usr/bin/env bash
# Measures this checkout against a parent revision with the benchmark and
# writes the trajectory record of the comparison.
#
#   scripts/bench_pairs.sh <parent-rev> --pr N [--pairs N]
#                          [--workloads "W ..."] [--seeds "S ..."]
#
# Builds the unchanged `benchmark/` twice, offline, into separate target
# directories under one temporary directory (`$TMPDIR`, else /tmp): the
# parent from `git archive <parent-rev>`, then the change from a copy of
# this working tree's tracked and unignored files, both at one path in
# that directory. So the two binaries differ only in source: identical
# sources build identical binaries, and both sides' runs keep their
# scratch files in one place. Then, for every seed and workload, runs N
# pairs of the pipeline form (`--workload W --seed S --seconds 15
# --trace 0`), alternating which side runs first, and reads the share of
# CPU time stolen from the VM (`/proc/stat`) over each run. Each pair
# then runs both sides once more, in the same order, under
# MALLOC_MMAP_THRESHOLD_=131072: a *layout
# probe*. With the threshold fixed, glibc places a big allocation the same
# way whatever was allocated before it, so a peak-RSS move that the probes
# do not show is allocator layout, not growth. Probes are never in the
# medians and never waive a bound.
#
# Writes, at the repo root:
#   BENCH_<pr>.samples.jsonl  appends one line per run: invocation, side,
#                             pair, order, whether it is a layout probe,
#                             steal share and every metric the run
#                             reported;
#   BENCH_<pr>.json           one record per (workload, seed, end-to-end
#                             metric) in that file: the medians of both
#                             sides, in the schema tests/bench_trajectory.rs
#                             pins;
# and prints per metric the medians, the change's wins out of its pairs,
# both sides' interquartile ranges and a claim column, then the probes'
# peak-RSS medians. The claim column reads `yes` when the change wins at
# least 9 in 10 of its pairs (a tie counts for neither side) and its
# median moves by more than the parent's IQR, else `no`; an exact metric
# reads `exact` when the two sides differ and `-` when they are equal.
# So a second invocation (another
# seed, more workloads) adds to the same records; delete the sample file
# to start over. <pr> is the N of `--pr N`, which is required: the number
# of the change being measured, not derived from the files at the parent
# (a number that was never used would shift it). Never run builds or
# tests while it measures.
set -euo pipefail

usage() {
    sed -n '5,6p' "$0" | sed 's/^# \{0,1\}//' >&2
    exit 2
}

(($# >= 1)) || usage
PARENT_REV=$1
shift
PAIRS=10
WORKLOADS="pair_cold_full pair_warm_recycle pair_durable_pingpong local_bytes_pingpong fleet_aware"
SEEDS=7
PR=
while (($#)); do
    (($# >= 2)) || usage
    case $1 in
    --pairs) PAIRS=$2 ;;
    --workloads) WORKLOADS=$2 ;;
    --seeds) SEEDS=$2 ;;
    --pr) PR=$2 ;;
    *) usage ;;
    esac
    shift 2
done

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$ROOT"
COMMIT=$(git rev-parse --short=7 "$PARENT_REV^{commit}")
[[ $PR =~ ^[0-9]+$ ]] || usage
OUT="BENCH_$PR.json"
SAMPLES="BENCH_$PR.samples.jsonl"

WORK=$(mktemp -d "${TMPDIR:-/tmp}/bench_pairs.XXXXXX")
trap 'rm -rf "$WORK"' EXIT

echo "building the benchmark at $COMMIT and at the working tree" >&2
build() { # <target dir>
    cargo build --release --offline --manifest-path "$SRC/benchmark/Cargo.toml" \
        --target-dir "$1" >"$WORK/build.log" 2>&1 || {
        cat "$WORK/build.log" >&2
        exit 1
    }
}
# Both sides build from one path in turn: the path is part of every
# crate's symbol hash, so the same source built at two paths links into
# two differently laid-out binaries.
SRC="$WORK/src"
mkdir "$SRC"
git archive "$COMMIT" | tar -x -C "$SRC"
build "$WORK/parent-target"
rm -rf "$SRC"
mkdir "$SRC"
git ls-files -z --cached --others --exclude-standard |
    while IFS= read -r -d '' f; do if [[ -e $f ]]; then printf '%s\0' "$f"; fi; done |
    tar --null -T - -c | tar -x -C "$SRC"
build "$WORK/change-target"
declare -A BIN=([parent]="$WORK/parent-target/release/vecycle-benchmark"
    [change]="$WORK/change-target/release/vecycle-benchmark")

# `steal total` jiffies summed over all CPUs.
cpu_jiffies() {
    awk '$1 == "cpu" { t = 0; for (i = 2; i <= NF; i++) t += $i; print $9, t; exit }' /proc/stat
}

# One run: appends its sample line to $SAMPLES. A probe (<probe> = 1) runs
# under the fixed mmap threshold.
RUN=$(date +%s)
run_side() { # <side> <workload> <seed> <pair> <order> <probe>
    local before after result
    local -a alloc=()
    if (($6)); then alloc=(MALLOC_MMAP_THRESHOLD_=131072); fi
    before=$(cpu_jiffies)
    result=$(cd "$SRC" && env "${alloc[@]}" "${BIN[$1]}" --workload "$2" \
        --seed "$3" --seconds 15 --trace 0 2>/dev/null | tail -1)
    after=$(cpu_jiffies)
    python3 -c '
import json, sys
run, side, workload, seed, pair, order, probe, before, after, result = sys.argv[1:]
(s0, t0), (s1, t1) = (map(int, x.split()) for x in (before, after))
print(json.dumps({"run": int(run), "side": side, "workload": workload, "seed": int(seed),
                  "pair": int(pair), "order": int(order), "layout_probe": probe == "1",
                  "steal_share": round((s1 - s0) / max(t1 - t0, 1), 4),
                  "result": json.loads(result)}))
' "$RUN" "$1" "$2" "$3" "$4" "$5" "$6" "$before" "$after" "$result" >>"$SAMPLES"
}

for seed in $SEEDS; do
    for workload in $WORKLOADS; do
        for ((pair = 0; pair < PAIRS; pair++)); do
            echo "seed $seed $workload pair $((pair + 1))/$PAIRS" >&2
            if ((pair % 2 == 0)); then order=(parent change); else order=(change parent); fi
            run_side "${order[0]}" "$workload" "$seed" "$pair" 0 0
            run_side "${order[1]}" "$workload" "$seed" "$pair" 1 0
            run_side "${order[0]}" "$workload" "$seed" "$pair" 2 1
            run_side "${order[1]}" "$workload" "$seed" "$pair" 3 1
        done
    done
done

python3 - "$SAMPLES" "$OUT" "$PR" "$COMMIT" <<'EOF'
import json, statistics, sys

samples_path, out_path, pr, commit = sys.argv[1:]
manifest = json.load(open("BENCHMARK.json"))
metrics = [(m["name"], m["better"]) for m in manifest["end_to_end"]]
# Metrics that are a function of the seed alone, bit-equal run to run.
EXACT = {"alloc_kib_per_guest_mib", "wire_kib_per_guest_mib",
         "sim_migration_ms_mean", "verified_ops_share"}

runs, probes = {}, {}
for line in open(samples_path):
    s = json.loads(line)
    key = (s["run"], s["pair"])
    into = probes if s.get("layout_probe") else runs
    into.setdefault((s["workload"], s["seed"]), {}).setdefault(key, {})[s["side"]] = s

def number(x, exact):
    # As Rust prints an f64: no exponent, no trailing zeros, no `.0`.
    text = f"{x:.{4 if exact else 3}f}".rstrip("0").rstrip(".")
    return "0" if text in ("", "-0") else text

def value(sample, metric):
    return sample["result"]["metrics"][metric]["value"]

records = []
def iqr(xs):
    if len(xs) < 2:
        return 0.0
    q = statistics.quantiles(xs, n=4)
    return q[2] - q[0]

print(f"{'workload':<22} {'seed':>4} {'metric':<24} {'parent':>10} {'change':>10} "
      f"{'delta':>8} {'wins':>6} {'parent IQR':>10} {'change IQR':>10} {'claim':>5}")
for (workload, seed), pairs in runs.items():
    pairs = [p for _, p in sorted(pairs.items()) if "parent" in p and "change" in p]
    for metric, better in metrics:
        parent = [value(p["parent"], metric) for p in pairs]
        change = [value(p["change"], metric) for p in pairs]
        exact = metric in EXACT
        pm, cm = statistics.median(parent), statistics.median(change)
        sign = -1 if better == "lower" else 1
        wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        parent_iqr = iqr(parent)
        if exact:
            claim = "exact" if pm != cm else "-"
        else:
            claim = "yes" if 10 * wins >= 9 * len(pairs) and abs(cm - pm) > parent_iqr else "no"
        delta = (cm - pm) / pm * 100 if pm else 0.0
        print(f"{workload:<22} {seed:>4} {metric:<24} {pm:>10.4f} {cm:>10.4f} "
              f"{delta:>+7.2f}% {wins:>3}/{len(pairs):<2} {parent_iqr:>10.4f} "
              f"{iqr(change):>10.4f} {claim:>5}")
        records.append(
            f'  {{"pr":{pr},"commit":"{commit}","workload":"{workload}",'
            f'"metric":"{metric}","seed":{seed},"pairs":{len(pairs)},'
            f'"parent":{number(pm, exact)},"change":{number(cm, exact)},'
            f'"exact":{"true" if exact else "false"}}}')
with open(out_path, "w") as out:
    out.write("[\n" + ",\n".join(records) + "\n]\n")
print(f"layout probes (MALLOC_MMAP_THRESHOLD_=131072), not in {out_path}:")
for (workload, seed), pairs in probes.items():
    pairs = [p for p in pairs.values() if "parent" in p and "change" in p]
    if pairs:
        pm, cm = (statistics.median(value(p[side], "peak_rss_mib") for p in pairs)
                  for side in ("parent", "change"))
        print(f"{workload:<22} {seed:>4} {'peak_rss_mib':<24} {pm:>10.4f} {cm:>10.4f} "
              f"{len(pairs):>6} pairs")
print(f"wrote {out_path} ({len(records)} records)", file=sys.stderr)
EOF

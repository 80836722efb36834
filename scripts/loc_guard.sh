#!/usr/bin/env bash
# Size gets a trajectory like speed has. Prints one table of raw `.rs`
# line counts — every crates/*/src, every vendor/*/src, tests/ — and the
# workspace total, and fails when
#
#   * the total exceeds BUDGET (set to the total of the last PR that
#     moved it; a PR that needs more raises it in the same diff and says
#     why in CHANGES.md), or
#   * any file under crates/core/src or crates/daemon/src passes CAP
#     lines — the engine and the daemon are split into focused modules;
#     split the module instead of raising the cap.
set -euo pipefail

BUDGET=42965
CAP=800
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$ROOT"
FAILED=0

lines_in() {
    find "$1" -name '*.rs' -exec cat {} + | wc -l
}

total=0
printf '%-28s %7s\n' directory lines
for dir in crates/*/src vendor/*/src tests; do
    n=$(lines_in "$dir")
    total=$((total + n))
    printf '%-28s %7d\n' "$dir" "$n"
done
printf '%-28s %7d  (budget %d)\n' total "$total" "$BUDGET"

if ((total > BUDGET)); then
    echo "FAIL: workspace is $total lines, budget is $BUDGET" >&2
    FAILED=1
fi

for crate in core daemon; do
    while IFS= read -r file; do
        n=$(wc -l <"$file")
        if ((n > CAP)); then
            echo "FAIL: $file is $n lines (cap: $CAP)" >&2
            FAILED=1
        fi
    done < <(find "crates/$crate/src" -name '*.rs' | sort)
done

exit "$FAILED"

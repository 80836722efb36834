#!/usr/bin/env bash
# Fails if any source file under crates/core/src or crates/daemon/src
# grows past the cap, and prints each crate's line total so a shrink
# (or a creep) is visible in the CI log. The byte-path crates
# (checkpoint, mem, hash) are totalled too, without a cap.
#
# The engine and the daemon are split into focused modules; this guard
# keeps them focused. If a legitimate change needs more room, split the
# module instead of raising the cap.
set -euo pipefail

CAP=800
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
FAILED=0

for crate in core daemon; do
    total=0
    while IFS= read -r file; do
        lines=$(wc -l <"$file")
        total=$((total + lines))
        if ((lines > CAP)); then
            echo "FAIL: $file is $lines lines (cap: $CAP)" >&2
            FAILED=1
        fi
    done < <(find "$ROOT/crates/$crate/src" -name '*.rs' | sort)
    echo "loc_guard: crates/$crate/src totals $total lines"
done

for crate in checkpoint mem hash; do
    total=$(find "$ROOT/crates/$crate/src" -name '*.rs' -exec cat {} + | wc -l)
    echo "loc_guard: crates/$crate/src totals $total lines (no cap)"
done

if ((FAILED)); then
    echo "error: split oversized modules instead of growing them" >&2
    exit 1
fi
echo "loc_guard: all crates/{core,daemon}/src files within $CAP lines"

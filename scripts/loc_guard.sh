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
#     split the module instead of raising the cap, or
#   * the `unsafe` column is non-zero anywhere but crates/fuzz (whose
#     counting allocator is the one `unsafe impl` in the workspace). The
#     column counts lines that use the keyword — a crate's tests/ beside
#     its src/ included, `unsafe_code` lint attributes excluded — so "no
#     unsafe in the hash kernel" is a gate, not a comment, or
#   * the `pub` column summed over crates/*/src exceeds PUB_CEILING (set
#     like BUDGET: to the count of the last PR that moved it). The column
#     counts lines that open a `pub` item — fn, struct, enum, trait,
#     type, const, static, mod, use; fields and `pub(crate)` excluded —
#     so a PR that grows the public surface has to say so.
set -euo pipefail

BUDGET=42911
PUB_CEILING=1097
CAP=800
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$ROOT"
FAILED=0

lines_in() {
    find "$1" -name '*.rs' -exec cat {} + | wc -l
}

# Lines using the `unsafe` keyword under the given directories.
unsafe_in() {
    find "$@" -name '*.rs' -exec cat {} + 2>/dev/null | grep -w unsafe | grep -vc unsafe_code || true
}

# Lines opening a `pub` item under the given directory.
pub_in() {
    find "$1" -name '*.rs' -exec cat {} + |
        grep -cE '^\s*pub (const |async |unsafe )*(fn|struct|enum|trait|type|const|static|mod|use) ' || true
}

total=0
pub_total=0
printf '%-28s %7s %7s %7s\n' directory lines unsafe pub
for dir in crates/*/src vendor/*/src tests; do
    n=$(lines_in "$dir")
    total=$((total + n))
    u=$(unsafe_in "$dir" "${dir%/src}/tests")
    p=-
    if [[ $dir == crates/* ]]; then
        p=$(pub_in "$dir")
        pub_total=$((pub_total + p))
    fi
    printf '%-28s %7d %7d %7s\n' "$dir" "$n" "$u" "$p"
    if ((u > 0)) && [[ $dir != crates/fuzz/src ]]; then
        echo "FAIL: $dir (or its tests/) uses \`unsafe\` on $u lines" >&2
        FAILED=1
    fi
done
printf '%-28s %7d  (budget %d) %15d  (ceiling %d)\n' total "$total" "$BUDGET" "$pub_total" "$PUB_CEILING"

if ((total > BUDGET)); then
    echo "FAIL: workspace is $total lines, budget is $BUDGET" >&2
    FAILED=1
fi
if ((pub_total > PUB_CEILING)); then
    echo "FAIL: crates/*/src open $pub_total \`pub\` items, ceiling is $PUB_CEILING" >&2
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

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
#     so a PR that grows the public surface has to say so, or
#   * the `deps` column summed over crates/* exceeds DEPS_CEILING (same
#     rule). The column counts the entries of a crate's `[dependencies]`
#     table — edges of the workspace's dependency graph, path crates
#     and vendored shims alike; `[dev-dependencies]` excluded — so a PR
#     that adds an edge has to say why, or
#   * DESIGN.md passes DESIGN_CEILING lines (same rule), so the design
#     document describes the system instead of accumulating history.
set -euo pipefail

BUDGET=45403
PUB_CEILING=1032
DEPS_CEILING=111
DESIGN_CEILING=1614
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

# Entries of the `[dependencies]` table of the given manifest.
deps_in() {
    awk '/^\[/ { on = ($0 == "[dependencies]") } on && /^[A-Za-z0-9_-]+ *[.=]/ { n++ } END { print n + 0 }' "$1"
}

total=0
pub_total=0
deps_total=0
printf '%-28s %7s %7s %7s %7s\n' directory lines unsafe pub deps
for dir in crates/*/src vendor/*/src tests; do
    n=$(lines_in "$dir")
    total=$((total + n))
    u=$(unsafe_in "$dir" "${dir%/src}/tests")
    p=-
    d=-
    if [[ $dir == crates/* ]]; then
        p=$(pub_in "$dir")
        pub_total=$((pub_total + p))
        d=$(deps_in "${dir%/src}/Cargo.toml")
        deps_total=$((deps_total + d))
    fi
    printf '%-28s %7d %7d %7s %7s\n' "$dir" "$n" "$u" "$p" "$d"
    if ((u > 0)) && [[ $dir != crates/fuzz/src ]]; then
        echo "FAIL: $dir (or its tests/) uses \`unsafe\` on $u lines" >&2
        FAILED=1
    fi
done
printf '%-28s %7d %15d %7d\n' total "$total" "$pub_total" "$deps_total"
printf '%-28s %7d %15d %7d\n' 'budget / ceilings' "$BUDGET" "$PUB_CEILING" "$DEPS_CEILING"

if ((total > BUDGET)); then
    echo "FAIL: workspace is $total lines, budget is $BUDGET" >&2
    FAILED=1
fi
if ((pub_total > PUB_CEILING)); then
    echo "FAIL: crates/*/src open $pub_total \`pub\` items, ceiling is $PUB_CEILING" >&2
    FAILED=1
fi

if ((deps_total > DEPS_CEILING)); then
    echo "FAIL: crates/* declare $deps_total [dependencies] edges, ceiling is $DEPS_CEILING" >&2
    FAILED=1
fi

design=$(wc -l <DESIGN.md)
printf '%-28s %7d   (ceiling %d)\n' DESIGN.md "$design" "$DESIGN_CEILING"
if ((design > DESIGN_CEILING)); then
    echo "FAIL: DESIGN.md is $design lines, ceiling is $DESIGN_CEILING" >&2
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

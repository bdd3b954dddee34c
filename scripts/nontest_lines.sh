#!/usr/bin/env bash
# Non-test lines of the workspace, by ROADMAP's rule: every line of each
# `crates/*/src/**/*.rs` before its first column-0 `#[cfg(test)]` (the whole
# file when it has none). Prints one line per crate, then the workspace.
#
#   scripts/nontest_lines.sh
set -euo pipefail
cd "$(dirname "$0")/.."

for dir in crates/*/; do
    name=$(basename "$dir")
    find "$dir/src" -name '*.rs' -print0 | sort -z | xargs -0 awk -v crate="$name" '
        FNR == 1 { in_tests = 0 }
        /^#\[cfg\(test\)\]/ { in_tests = 1 }
        !in_tests { n++ }
        END { printf "%-10s %6d\n", crate, n }'
done | awk '{ print; total += $2 } END { printf "%-10s %6d\n", "workspace", total }'

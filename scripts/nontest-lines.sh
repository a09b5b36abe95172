#!/bin/sh
# Count the non-test lines of every crate: each line of each
# `crates/*/src/**/*.rs` file before that file's first column-0
# `#[cfg(test)]`. Prints one line per crate and the total.
# Usage: scripts/nontest-lines.sh [repo-root]   (default: the current directory)
cd "${1:-.}" || exit 1
find crates/*/src -name '*.rs' | sort | xargs awk '
    FNR == 1 { split(FILENAME, p, "/"); krate = p[2]; intest = 0 }
    /^#\[cfg\(test\)\]/ { intest = 1 }
    !intest { n[krate]++; total++ }
    END { for (k in n) printf "%-10s %6d\n", k, n[k] | "sort"; close("sort"); printf "%-10s %6d\n", "total", total }
'

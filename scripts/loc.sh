#!/usr/bin/env bash
# Code lines per crate: non-blank lines that are not `//` comments, up
# to a file's first top-level `#[cfg(test)]` (its test module; an
# indented one gates a single item and does not end the count). The one
# instrument behind ROADMAP item 3's "net LoC <= 0".
#
#   scripts/loc.sh                 per-crate totals over crates/*/src and src/
#                                  (the ladder, crates/bench/src/bin/ladder,
#                                  is its own row, bench/ladder)
#   scripts/loc.sh FILE...         per-file counts for the named files
#   scripts/loc.sh --vs REV        per-crate and total difference of the
#                                  working tree against git revision REV
set -euo pipefail
cd "$(dirname "$0")/.."

count() {
    awk '/^#\[cfg\(test\)\]/ { exit }
         /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
         { n++ }
         END { print n + 0 }' "$1"
}

# "crate lines" per crate, sorted by crate, for the source files named on
# stdin (relative to the current directory).
per_crate() {
    while read -r file; do
        [ -f "$file" ] || continue
        case "$file" in
        # The benchmark ladder is a package of its own inside bench.
        crates/bench/src/bin/ladder/*) crate=bench/ladder ;;
        crates/*) crate=${file#crates/} crate=${crate%%/src/*} ;;
        *) crate=. ;;
        esac
        echo "$crate $(count "$file")"
    done |
        awk '{ n[$1] += $2 } END { for (c in n) print c, n[c] }' | sort -k1,1
}

# Tracked and not-yet-added sources of the working tree, never build output.
working_tree() {
    git ls-files --cached --others --exclude-standard -- 'crates/*/src/*.rs' 'src/*.rs' | per_crate
}

if [ "${1:-}" = --vs ]; then
    rev=${2:?usage: scripts/loc.sh --vs GIT-REV}
    old=$(mktemp -d)
    trap 'rm -rf "$old"' EXIT
    # The revision's sources, exported and counted by the same rule.
    git archive "$rev" -- crates src | tar -x -C "$old"
    before=$(cd "$old" && find crates src -name '*.rs' \( -path 'crates/*/src/*' -o -path 'src/*' \) | per_crate)
    printf '%7s  %7s  %6s  %s\n' "$rev" now diff crate
    join -a1 -a2 -e0 -o 0,1.2,2.2 <(echo "$before") <(working_tree) |
        awk '{ printf "%7d  %7d  %+6d  %s\n", $2, $3, $3 - $2, $1; a += $2; b += $3 }
             END { printf "%7d  %7d  %+6d  total\n", a, b, b - a }'
    exit 0
fi

if [ $# -gt 0 ]; then
    total=0
    for file in "$@"; do
        n=$(count "$file")
        printf '%7d  %s\n' "$n" "$file"
        total=$((total + n))
    done
    printf '%7d  total\n' "$total"
    exit 0
fi

working_tree |
    awk '{ printf "%7d  %s\n", $2, $1; total += $2 } END { printf "%7d  total\n", total }'

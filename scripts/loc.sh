#!/usr/bin/env bash
# Code lines per crate: non-blank lines that are not `//` comments, up
# to a file's first top-level `#[cfg(test)]` (its test module; an
# indented one gates a single item and does not end the count). The one
# instrument behind ROADMAP item 3's "net LoC <= 0".
#
#   scripts/loc.sh                 per-crate totals over crates/*/src and src/
#   scripts/loc.sh FILE...         per-file counts for the named files
set -euo pipefail
cd "$(dirname "$0")/.."

count() {
    awk '/^#\[cfg\(test\)\]/ { exit }
         /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
         { n++ }
         END { print n + 0 }' "$1"
}

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

# Tracked and not-yet-added sources, never build output.
git ls-files --cached --others --exclude-standard -- 'crates/*/src/*.rs' 'src/*.rs' |
    while read -r file; do
        [ -f "$file" ] || continue
        case "$file" in
        crates/*) crate=${file#crates/} crate=${crate%%/src/*} ;;
        *) crate=. ;;
        esac
        echo "$crate $(count "$file")"
    done |
    awk '{ n[$1] += $2; total += $2 }
         END { for (c in n) printf "%7d  %s\n", n[c], c | "sort -k2"
               close("sort -k2"); printf "%7d  total\n", total }'

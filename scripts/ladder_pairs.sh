#!/usr/bin/env bash
# Parent against working tree on the ladder (BENCHMARK.json), the way every
# performance PR is judged: alternating pairs of whole recorded sets, each
# side's runs merged into one ladder.json, `ladder compare`, and per-row win
# counts.
#
#   scripts/ladder_pairs.sh <parent-rev> [pairs=10] [seed=11]
#
# Exports <parent-rev> into .bench_build/parent, builds both ladders
# (--release --locked --offline), runs `--workload all --repeat 1` into
# ladder_out/{parent,change}/<i>, alternating which side goes first, and
# writes ladder_out/{parent,change}/ladder.json. Exits non-zero if any row is
# `worse`. Calls the ladder binary and reads its JSON only. A nightly-sized
# job: pairs × 2 sides × 4 workloads × 20 s (plus three set-ups each).
set -euo pipefail
cd "$(dirname "$0")/.."

rev=${1:?usage: scripts/ladder_pairs.sh <parent-rev> [pairs=10] [seed=11]}
pairs=${2:-10}
seed=${3:-11}
command -v python3 >/dev/null || { echo "ladder_pairs.sh: needs python3 to merge the sets" >&2; exit 2; }

root=$PWD
ladder=crates/bench/src/bin/ladder
parent=.bench_build/parent
rm -rf "$parent" ladder_out/parent ladder_out/change
mkdir -p "$parent"
git archive "$rev" | tar -x -C "$parent"
for side in . "$parent"; do
    cargo build --release --locked --offline --quiet --manifest-path "$side/$ladder/Cargo.toml"
done

# One recorded set of one side, run from that side's tree.
record() { # <side> <tree> <i>
    (cd "$2" && "$ladder/target/release/ladder" --workload all --seed "$seed" \
        --repeat 1 --trace 0 --out "$root/ladder_out/$1/$3" >/dev/null)
}
for i in $(seq 1 "$pairs"); do
    echo "pair $i of $pairs" >&2
    if [ $((i % 2)) -eq 1 ]; then
        record parent "$parent" "$i"
        record change . "$i"
    else
        record change . "$i"
        record parent "$parent" "$i"
    fi
done

# Merge each side's sets: concatenated `values`, quartiles by the method the
# ladder pins (statistics.quantiles, exclusive); then count, row by row, the
# pairs the change won (ties count for neither side).
python3 - "$rev" "$pairs" <<'PY'
import json, math, statistics, sys
rev, pairs = sys.argv[1], int(sys.argv[2])
better = {m["name"]: m["better"] for m in json.load(open("BENCHMARK.json"))["end_to_end"]}
sets = {}
for side, label in (("parent", rev), ("change", "working tree")):
    runs = [json.load(open(f"ladder_out/{side}/{i}/ladder.json")) for i in range(1, pairs + 1)]
    merged = dict(runs[0], commit=label, repetitions=sum(r["repetitions"] for r in runs))
    for section in ("end_to_end", "per_layer"):
        for workload, metrics in merged[section].items():
            for name, cell in metrics.items():
                values = [v for r in runs for v in r[section][workload][name]["values"]]
                finite = [v for v in values if v is not None and math.isfinite(v)]
                q1, median, q3 = statistics.quantiles(finite, n=4) if len(finite) > 1 else (finite or [math.nan]) * 3
                cell.update(median=median, q1=q1, q3=q3, values=values)
    json.dump(merged, open(f"ladder_out/{side}/ladder.json", "w"), indent=1)
    sets[side] = merged
print(f"{'workload':<16} {'metric':<18} wins of {pairs} pairs (change better than parent)")
for workload, metrics in sets["parent"]["end_to_end"].items():
    for name, cell in metrics.items():
        sign = 1 if better.get(name) == "higher" else -1
        theirs, ours = cell["values"], sets["change"]["end_to_end"][workload][name]["values"]
        wins = sum(sign * (b - a) > 0 for a, b in zip(theirs, ours))
        print(f"{workload:<16} {name:<18} {wins}")
PY
"$ladder/target/release/ladder" compare ladder_out/parent/ladder.json ladder_out/change/ladder.json

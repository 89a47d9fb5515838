#!/usr/bin/env bash
# Tier-1 verification gate: release build, full test suite, the ladder's
# own tests and --check, lints (when clippy is installed), and the
# fixed-seed fault-injection smoke runs. Every gate runs even when an
# earlier one failed — a coin-flip gate must not hide the gates after it —
# each reports PASS/FAIL, the exit trap prints a summary scoreboard, and
# the script exits non-zero if any gate failed.
#
# Fully offline: --locked forbids any registry/network access (all
# external deps are local shims under crates/shims/, see README.md).
set -euo pipefail
cd "$(dirname "$0")/.."

PASSED=()
FAILED=()

report() {
    echo
    echo "==> verify.sh gate summary"
    for gate in ${PASSED[@]+"${PASSED[@]}"}; do
        echo "    PASS  $gate"
    done
    for gate in ${FAILED[@]+"${FAILED[@]}"}; do
        echo "    FAIL  $gate"
    done
    if [ ${#FAILED[@]} -eq 0 ]; then
        echo "verify.sh: all ${#PASSED[@]} gates passed"
    else
        echo "verify.sh: ${#FAILED[@]} gate(s) FAILED"
    fi
    # Informational, not a gate: the instrument behind "net LoC <= 0".
    echo
    echo "==> code lines per crate (scripts/loc.sh)"
    scripts/loc.sh || true
    if [ -n "$(git status --porcelain 2>/dev/null)" ]; then
        echo "==> ... of the uncommitted change (scripts/loc.sh --vs HEAD)"
        scripts/loc.sh --vs HEAD || true
    fi
}
trap report EXIT

run_gate() {
    name="$1"
    shift
    echo "==> [$name] $*"
    if "$@"; then
        echo "==> [$name] PASS"
        PASSED+=("$name")
    else
        echo "==> [$name] FAIL (later gates still run)"
        FAILED+=("$name")
    fi
}

# --workspace matters: at the root, a bare `cargo build` compiles only
# the root façade package and silently skips every member binary
# (dualtabled, ...).
run_gate build cargo build --release --workspace --locked

run_gate tests cargo test -q --workspace --locked

# Ladder (BENCHMARK.json): the repo's one benchmark is a package of its
# own outside the workspace, so `cargo test --workspace` never compiles
# it against an engine API change. Its harness tests, then every
# workload at 1/20 scale with all oracle checks (`--check`; the numbers
# it prints are NOT COMPARABLE). Directly after `tests`: it alone tells a
# refactor whether it broke the benchmark's pinned engine API.
LADDER=crates/bench/src/bin/ladder/Cargo.toml
ladder_gate() {
    cargo test -q --offline --locked --manifest-path "$LADDER" &&
        cargo run -q --release --offline --locked --manifest-path "$LADDER" -- --check
}
run_gate ladder ladder_gate

if cargo clippy --version >/dev/null 2>&1; then
    run_gate clippy cargo clippy --workspace --all-targets --locked -- -D warnings
else
    echo "==> [clippy] not installed; skipping lint pass"
fi

# Soak harness (DESIGN.md §6): every soak is a configuration of one seeded
# scheduler over the crash matrix's reference model, one thread driving
# logical sessions — mvcc (50 seeds: transactions, pinned readers, both
# DML plans, two-phase rewrites whose swing can lose), fault (13 seeds:
# fail-stop faults, INSERTs of up to three files, OVERWRITE-plan DML, a
# restart after every failure), availability (13 seeds of spaced
# transient outages invisible under retry, and the same outages failing
# statements with retries off), shard (8 seeds, cross-shard commits,
# pinned readers and round-robin folds) and compactor (25 seeds, one-step
# and two-phase folds racing commits), the last two under transient
# faults and faults that outlast the retries — plus fixed schedules for
# each race class. The model
# predicts every conflict; `Ok` means applied on every store, `Err`
# means applied nowhere. Each configuration prints its failed commits.
# SOAK_SEEDS=N widens every configuration; a failing seed prints its
# repro command.
run_gate soak cargo test -q -p dualtable --locked --test soak -- --nocapture

# Replica-failover smoke: reads survive a corrupted replica, the bad
# copy is quarantined, and the scrubber restores target replication.
run_gate dfs-failover cargo test -q -p dt-dfs --locked --test failover -- --nocapture

# Crash-point matrix (DESIGN.md §9): one runner takes nine workloads --
# statements with OVERWRITE/COMPACT swaps, the delta tier's spills,
# interleaved transactions under a pinned reader, a large autocommit
# EDIT, a three-file autocommit INSERT, a range-sharded table plus a side
# table (cross-shard and two-table commits, a fold and a spill), sharded
# autocommit INSERT/UPDATE/DELETE/OVERWRITE/COMPACT, incremental folds
# (one behind a session's pin), and a COMPACT fanned out over three
# workers -- and crashes each at every one of its armed I/O-operation
# indices (~2,400 points). Every recovery is checked against one
# reference model: each store at a whole-step state, the in-flight step
# on all of its stores or none, no staging file left, one generation per
# store, a presence index naming only that store's live master files
# (the open-time sweep's job), clean fsck/scrub, an empty block cache,
# and a still-working EDIT, fold and spill. Beside it,
# the directed decision-record cases: a decided commit whose participant
# write, or record clear, fails, then a reopen redoes the record.
run_gate crash-matrix cargo test -q -p dualtable --locked --test crash_matrix -- --nocapture

# Cache-coherence smoke (DESIGN.md §10): cache-on and cache-off stacks
# must stay byte-identical through UPDATE→COMPACT→SELECT and
# OVERWRITE→SELECT loops, warm repeated SELECTs must do zero physical
# block fetches, and the warm block-cache hit rate must exceed 90%.
run_gate cache-coherence cargo test -q -p dualtable --locked --test cache_coherence -- --nocapture

# Parallel write path (DESIGN.md §12): the rewrite fan-out must equal the
# sequential writer row for row and survive mixed DML racing a parallel
# COMPACT.
run_gate parallel-write cargo test -q -p dualtable --locked --test parallel_write_stress -- --nocapture

# WAL group commit: windows 1/8/64 must recover identical state, gated
# windows must actually coalesce (fsyncs saved), and a torn tail on a
# coalesced append must salvage exactly the record-aligned prefix.
run_gate group-commit cargo test -q -p dt-kvstore --locked --test group_commit -- --nocapture

# Generation-GC property test and the SQL transaction surface
# (DESIGN.md §13). After every generated step no dead generation
# directory survives its last pin and the presence index names only
# files of the current and the pinned generations (the current one's
# alone once the last pin drains). Directed sweep tests: with no pin a
# swing's garbage goes at once, behind a pin at the last unpin, and an
# unpin that drains nothing reads nothing
# (`the_sweep_runs_at_the_swing_or_at_the_last_unpin`); a sweep that
# faults is retried by the next one, not only at reopen
# (`a_failed_attached_sweep_is_retried_by_the_next_sweep`).
# `prop_mvcc_gc` also holds the read-pin directed
# tests: a reader parked mid-scan sees an autocommit EDIT, one store's or
# a cross-shard one, whole or not at all
# (`an_autocommit_read_never_sees_half_a_commit`,
# `a_sharded_read_never_sees_half_a_cross_shard_commit`), and a fold's
# swing, an OVERWRITE-plan UPDATE, INSERT OVERWRITE and DROP TABLE
# complete beside it (`a_swing_never_waits_for_a_parked_reader`).
run_gate mvcc-gc-prop cargo test -q -p dualtable --locked --test prop_mvcc_gc -- --nocapture
run_gate txn-sessions cargo test -q -p dt-hiveql --locked --test txn_sessions -- --nocapture

# Serving layer (DESIGN.md §14): wire-protocol round trips, deadlines,
# admission control, the crash-proof teardown invariants, and the
# SIGTERM drain of the real dualtabled binary.
run_gate server-basic cargo test -q -p dt-server --locked --test server_basic -- --nocapture
run_gate server-teardown cargo test -q -p dt-server --locked --test server_teardown -- --nocapture
run_gate server-sigterm cargo test -q -p dt-server --locked --test sigterm -- --nocapture

# The soak harness behind the wire (DESIGN.md §6): the same scheduler and
# model, steps sent as SQL over one connection per session to a 3-worker
# pool under transient faults and faults that outlast the retries, racing
# real overload bursts and mid-transaction disconnects, over 25 seeds
# (SOAK_SEEDS=N widens). The table equals the model, pins drain to zero,
# every drop is counted, and the admission ledger balances.
run_gate server-soak cargo test -q -p dt-server --locked --test server_soak -- --nocapture

# Maintenance daemon wiring: the compaction tick in the server pool's
# idle lane folds plain and sharded tables behind live traffic, SET
# COMPACTION = OFF idles it (AUTO resumes), and repeated permanent fold
# failures switch it off with a reason that AUTO clears (transient ones
# never do). That a queued statement defers the tick is a ServicePool
# unit test in the workspace tests.
run_gate server-compaction cargo test -q -p dt-server --locked --test server_compaction -- --nocapture

# Shard routing (DESIGN.md §16): split-point keys route to the upper
# shard, empty shards are harmless, a single-shard table is byte-
# identical to unsharded, contradictory range predicates prune every
# shard with zero DFS reads, one UPDATE diverges EDIT/OVERWRITE across
# shards, and round-robin maintenance is cycle-fair.
run_gate shard-routing cargo test -q -p dualtable --locked --test shard_routing -- --nocapture

# Sharded SQL surface: SHARDED BY RANGE DDL, SHOW SHARDS, routed DML
# messages, EXPLAIN scatter/prune lines, the shard health tier, and
# cross-shard BEGIN/COMMIT sessions.
run_gate sharded-sql cargo test -q -p dt-hiveql --locked --test sharded_sql -- --nocapture

# Kernel oracle (DESIGN.md §18), in release: the vectorised kernels that
# run SELECT and the DML locate against the row interpreter, on random
# expressions over dirty DualTable batches (dictionary and direct strings,
# appended dictionary entries, NULLs, selection vectors) — value for value,
# error kind for error kind, and as WHERE clauses — grouped aggregates bit
# for bit against an exact fold with the row interpreter (its SUM/AVG are
# Shewchuk's partials, which also check the engine's superaccumulator in
# any order and merged), and GROUP BY with float SUM/AVG, MIN/MAX of
# strings and unordered projections byte for byte at degree 1 and 4 over a
# multi-file dirty table, in and out of a transaction with buffered writes
# (the degree-4 runs must fan out), and whole UPDATE statements
# (`set_lists_equal_a_fold_with_eval`): SET lists with a column set twice,
# a swap, NULL-producing and wrapping BIGINT right-hand sides and a BIGINT
# widened to a DOUBLE, over a dirty multi-file table under forced EDIT and
# forced OVERWRITE, autocommit and in BEGIN, at degree 1 and 2 — the rows
# the row interpreter's fold gives, or its error kind.
run_gate kernel-oracle cargo test -q --release -p dt-hiveql --locked --test prop_kernel -- --nocapture

# UNION READ oracle (DESIGN.md §18), in release: scans under a random
# projection and random stripe predicates — autocommit, at a pinned
# snapshot, as time travel, over three shards, and inside transactions
# whose own patches and inserts ride on top — against the full scan of
# the same epoch, projected and filtered. It is the differential check
# on every attached scan UNION READ skips or bounds. Beside it, the EDIT
# locate at degree 1 and 4 (fanned out) on twin tables: the same reports,
# presence index, rows under the same record IDs, and transaction scans.
run_gate union-read cargo test -q --release -p dualtable --locked --test prop_union_read -- --nocapture

# ORC codec oracle (DESIGN.md §1), in release: random schemas and rows
# written and read back, DOUBLEs of every shape (decimal-scaled, direct,
# -0.0, NaN payloads, ±inf, 2^53 ± 1) bit for bit, LZ block roundtrips,
# and stored streams truncated, byte-flipped or re-framed around a cut
# payload decoding to a column or an error, never a panic.
run_gate orc-codec cargo test -q --release -p dt-orcfile --locked --test prop_orc

# DFS integrity (DESIGN.md §8, §10), in release: the slicing-by-8 CRC-32
# against a bitwise reference at every length to 4 KiB, every start
# alignment and every split of an incremental update; fsck and repair
# over rotted, missing and corrupt-on-write replicas (a fault on one
# replica never reaches the buffer the others share); file copies under
# the checksums they carry over; and the DFS and namenode-journal
# property tests. Every stored block, WAL record, SSTable, journal frame
# and shard map verifies under this CRC.
dfs_integrity_gate() {
    cargo test -q --release -p dt-common --locked --test prop_codec &&
        cargo test -q --release -p dt-dfs --locked --test fsck --test prop_dfs --test prop_journal
}
run_gate dfs-integrity dfs_integrity_gate

[ ${#FAILED[@]} -eq 0 ]

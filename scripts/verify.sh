#!/usr/bin/env bash
# Tier-1 verification for the hermetic (std-only, offline) workspace.
#
#   scripts/verify.sh          # build + tests, offline
#
# Every `harness <name>...` stage exits non-zero when an experiment fails one
# of its pass criteria (the `criteria` of its row of `EXPERIMENTS` in
# crates/bench/src/lib.rs), and prints each criterion's measured margin.
#
# The workspace has zero external dependencies, so --offline must always
# succeed; if it does not, a registry dependency has crept back in.
set -euo pipefail
cd "$(dirname "$0")/.."

# A perf/ build may rewrite perf/Cargo.lock; the repo benchmark's files stay
# as they were checked out, so the lock is put back however this script ends.
lock_copy=$(mktemp)
cp perf/Cargo.lock "$lock_copy"
trap 'cp "$lock_copy" perf/Cargo.lock; rm -f "$lock_copy"' EXIT

echo "== cargo build --release --offline =="
cargo build --release --offline

echo "== cargo test -q --offline (tier-1; its fingerprint test holds every benchmark's transactions and catalog statements to tests/golden/fingerprint.txt, with the WAL bytes each line meters equal to the redo it stored, and its experiments test the deterministic harness rows, criterion margins included, to tests/golden/experiments.txt, byte for byte) =="
cargo test -q --offline

echo "== cargo test -q --offline --workspace (bp-workloads' closure test: each benchmark's loader and transactions send exactly its statement table, nothing undeclared and nothing unsent) =="
cargo test -q --offline --workspace

echo "== observability: /metrics + /trace over real HTTP =="
cargo test -q --offline --test observability

echo "== span overhead bench (asserts the worker's enabled()+offer() path: <100ns/span full, <10ns off) =="
cargo bench -q --offline -p bp-bench --bench span_overhead

echo "== chaos gate bench (asserts <5ns disarmed probe) =="
cargo bench -q --offline -p bp-bench --bench chaos_gate

echo "== storage bench (asserts a lock cycle < one idle notify_all; times statement text beside the prepared path without gating it: perf's sql.text_minus_prepared_ns measures that) =="
cargo bench -q --offline -p bp-bench --bench storage_engine

echo "== lock table, optimised: exclusion under load is a race detector; the fast path allocates nothing =="
cargo test -q --release --offline -p bp-storage lock::
cargo test -q --release --offline --test lock_fast_path

echo "== read and write path, optimised: a ycsb point read allocates <= 4 times (its key, its result), a ycsb update <= 6 and a tpcc UPDATE_STOCK by key <= 3 (what they set, no copy of the row), readers hold the table's own row and keep what they read, a bulk transaction's buffers are not kept, a range read allocates its result and nothing per row it reads, and a tpcc StockLevel <= 49.1 times (1,016 when all stock was joined) with its 392.8 rows read unchanged =="
cargo test -q --release --offline --test read_path_allocs

echo "== paced gate, optimised: no catch-up credit before the first dispatch, a dispatch late by up to the credit keeps the schedule, an older backlog drains at one spacing; four wall-clock terminals behind a 2k tx/s gate take <= 1.3 timed gate waits per dispatch, and with each request held for 3 slots a parked terminal is woken for a burst's next slot (median dispatch <= 250 us behind its slot; ~1.1 ms without the wake) =="
cargo test -q --release --offline -p bp-core queue::

echo "== paper §2.2 and §4 claims (E3-E9): never above the target rate and within 10 % of it; read-only out-runs write mixtures lock-free; a neighbor slows a tenant; on the driver in virtual time, each stage the engine with its personality serving every request through the live terminal's request step (breaker, chaos, retries, spans, think time), oracle passes at least as many courses as derby, derby crashes in the tunnel, the same seed replays the same trajectory and a crash halts the tenant with its work dropped, all four stages' sixteen games in under 2 s; derby slowest live, others fail nothing, and in virtual time oracle > mysql > postgres > derby; API rate change lands in 3 s =="
cargo build -q --release --offline -p bp-bench --bin harness
start_ns=$(date +%s%N)
"${CARGO_TARGET_DIR:-target}/release/harness" challenges
challenges_ms=$(( ($(date +%s%N) - start_ns) / 1000000 ))
echo "harness challenges: ${challenges_ms} ms (limit 2000 ms)"
if (( challenges_ms >= 2000 )); then
    echo "FAIL: harness challenges took ${challenges_ms} ms, 2 s or more"
    exit 1
fi
cargo run -q --release --offline -p bp-bench --bin harness rate mixture tenancy physics dbms api

echo "== resilience (E12 gates: faults injected, breaker opens, sheds, re-closes; dip < 80 % of baseline, recovery > 1.5x the dip; live, and exactly on a virtual stage in tests/resilience.rs) =="
cargo test -q --offline --test resilience
cargo run -q --release --offline -p bp-bench --bin harness resilience

echo "== replay (E13 gates: same seed ⇒ byte-identical schedule, divergence <= 0.15, warp x4 < 60 % wall, mixtures within 2 %) =="
cargo test -q --offline --test replay
cargo run -q --release --offline -p bp-bench --bin harness replay

echo "== slo (one law, one settings parser, one status for a node and for a fleet, and one WindowSnapshot of w whole seconds read from the per-second ring that the node loop, the fleet loop and the heartbeat read, window_s <= 119 and a decrease held for w + 1 seconds: -p bp-core slo covers both; E14 gates: converges to 0.6x-1.45x the hand-found rate; backs off under chaos, re-probes after) =="
cargo test -q --offline -p bp-core slo
cargo run -q --release --offline -p bp-bench --bin harness slo

echo "== event journal bench (asserts <5ns disabled emit) =="
cargo bench -q --offline -p bp-bench --bench event_overhead

echo "== doctor (E15 gates: lock storm and fsync stall each named, each citing its chaos event; report round-trips) =="
cargo run -q --release --offline -p bp-bench --bin harness doctor

echo "== recovery: the database's one supervisor (re-arm in place, ends with its database, checkpoints due on its clock), a crash rebuilt once and a live engine left alone; the WAL's redo store (one wal_rotate per segment it opens after the first, no extra fsync in a group-commit window, a durable LSN that never moves back, a recovery at every phase of a checkpoint rebuilds the committed prefix); crashpoint matrix, workloads sharing a database share its supervisor + (E16 gates) supervised restart, /readyz 503 then 200, throughput back within 10 % =="
cargo test -q --offline -p bp-storage recover
cargo test -q --offline -p bp-storage wal::
cargo test -q --offline --test recovery
cargo run -q --release --offline -p bp-bench --bin harness recovery

echo "== cluster (the heartbeat carries the node's WindowSnapshot through its one JSON codec and the fleet loop steers on their merge, the same WindowSnapshot the node loop reads; fleet SLO: the same settings table read from <slo>, POST /slo and POST /cluster/slo, which all refuse law/kp/ki/kd; one decrease until the agents' window has flushed; 1,000 -> 1,050 -> 525. E17 gates: killed node dead within 2.6 heartbeats, survivors carry the whole rate, throughput within 10 %) =="
cargo test -q --offline -p bp-cluster
cargo run -q --release --offline -p bp-bench --bin harness cluster

echo "== trace (the one Ring; E18 gates: >= 99 % of slow requests retained within the span budget; exemplar resolves via /cluster/trace) =="
cargo test -q --offline -p bp-util ring
cargo test -q --offline -p bp-obs span
cargo run -q --release --offline -p bp-bench --bin harness trace

echo "== access paths, optimised: a planned statement returns what its scan returns, a planned join the sequence the scanned cross product returns, a LIMIT that ends the fetch returns the sequence the sort would and reads <= LIMIT + rejected rows; key bytes order as values do; in every third of a tpcc run StockLevel reads a 20-order window and Delivery <= 160 rows a call (147 / 149 / 148; 237 / 319 / 353 with the whole range read), and an order_line row costs <= 330 live bytes =="
cargo test -q --release --offline --test access_paths
cargo test -q --release --offline --test tpcc_slope

echo "== repo benchmark: perf/ builds against the crates unmodified, its tests and output checks pass, and exact counts repeat (what an engine change may move is workloads.allocs_per_tx: 2.00 / 8.75 / 143.54 / 19.31 on ycsb_read_sat / smallbank_sat / tpcc_sat / voter_paced, tpcc_sat from 156.70 since a range is read through the session's chunk; storage.wal_bytes_per_tx, the encoded redo per transaction, and storage.rows_written_per_tx must repeat exactly, and so must storage.rows_read_per_tx: 1.00 / 2.54 / 38.80 / 2.00, which a read that stops at its LIMIT moved on tpcc_sat only, from 42.29 — Delivery no longer reads every undelivered order to find the oldest) =="
cargo test -q --release --offline --manifest-path perf/Cargo.toml
cargo run -q --release --offline --manifest-path perf/Cargo.toml -- check
cargo run -q --release --offline --manifest-path perf/Cargo.toml -- counts --twice

if command -v cargo-clippy >/dev/null 2>&1 || cargo clippy --version >/dev/null 2>&1; then
    echo "== cargo clippy --workspace --all-targets -- -D warnings =="
    cargo clippy --offline --workspace --all-targets -- -D warnings
else
    echo "== clippy not installed; skipping lint step =="
fi

echo "== non-test lines (each crates/*/src file up to its first column-0 #[cfg(test)]) =="
scripts/nontest_lines.sh

echo "verify: OK"

#!/usr/bin/env bash
# Tier-1 verification for the hermetic (std-only, offline) workspace.
#
#   scripts/verify.sh          # build + tests, offline
#
# The workspace has zero external dependencies, so --offline must always
# succeed; if it does not, a registry dependency has crept back in.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo build --release --offline =="
cargo build --release --offline

echo "== cargo test -q --offline =="
cargo test -q --offline

echo "== cargo test -q --offline --workspace =="
cargo test -q --offline --workspace

echo "== observability: /metrics + /trace over real HTTP =="
cargo test -q --offline --test observability

echo "== span overhead bench (smoke: asserts <100ns/span full, ~0 off) =="
BENCH_SMOKE=1 cargo bench -q --offline -p bp-bench --bench span_overhead

echo "== chaos gate bench (smoke: asserts <5ns disarmed probe) =="
BENCH_SMOKE=1 cargo bench -q --offline -p bp-bench --bench chaos_gate

echo "== storage bench (smoke: asserts statement text costs <= 1.15x the prepared path, and a lock cycle < one idle notify_all) =="
BENCH_SMOKE=1 cargo bench -q --offline -p bp-bench --bench storage_engine

echo "== lock table, optimised: exclusion under load is a race detector; the fast path allocates nothing =="
cargo test -q --release --offline -p bp-storage lock::
cargo test -q --release --offline --test lock_fast_path

echo "== resilience: fault injection + breaker dip-and-recovery over HTTP =="
cargo test -q --offline --test resilience
cargo run -q --release --offline -p bp-bench --bin harness resilience

echo "== replay: record → replay → divergence smoke (same seed ⇒ byte-identical schedule) =="
cargo test -q --offline --test replay
cargo run -q --release --offline -p bp-bench --bin harness replay

echo "== slo: closed-loop admission control — convergence + chaos backoff over HTTP =="
cargo test -q --offline -p bp-core slo
cargo run -q --release --offline -p bp-bench --bin harness slo

echo "== event journal bench (smoke: asserts <5ns disabled emit) =="
BENCH_SMOKE=1 cargo bench -q --offline -p bp-bench --bench event_overhead

echo "== doctor: chaos-induced bottlenecks named with causal events over HTTP =="
cargo run -q --release --offline -p bp-bench --bin harness doctor

echo "== recovery: crashpoint matrix + supervised restart under live load =="
cargo test -q --offline --test recovery
cargo run -q --release --offline -p bp-bench --bin harness recovery

echo "== cluster: 3-agent fleet — membership, merged telemetry, node-kill re-split =="
cargo test -q --offline -p bp-cluster
cargo run -q --release --offline -p bp-bench --bin harness cluster

echo "== trace: tail sampling retention + exemplar → /cluster/trace resolution =="
cargo test -q --offline -p bp-obs span
cargo run -q --release --offline -p bp-bench --bin harness trace

echo "== repo benchmark: perf/ builds against the crates, its tests and output checks pass =="
cargo test -q --release --offline --manifest-path perf/Cargo.toml
cargo run -q --release --offline --manifest-path perf/Cargo.toml -- check

if command -v cargo-clippy >/dev/null 2>&1 || cargo clippy --version >/dev/null 2>&1; then
    echo "== cargo clippy --all-targets -- -D warnings =="
    cargo clippy --offline --all-targets -- -D warnings
else
    echo "== clippy not installed; skipping lint step =="
fi

echo "verify: OK"

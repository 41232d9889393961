#!/usr/bin/env bash
# Local CI gate: formatting, lints, and the full test suite.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo test -q"
cargo test -q

echo "==> cargo test --workspace --lib (unit tests inside every crate)"
cargo test -q --workspace --lib

echo "==> cargo test -p apcm-server --test loopback --test ingest_idle (broker loopback, idle matcher)"
cargo test -q -p apcm-server --test loopback --test ingest_idle

echo "==> cargo test -p apcm-colstore (columnar snapshot codecs)"
cargo test -q -p apcm-colstore

echo "==> cargo test -p apcm-server --test recovery (crash/recovery harness)"
cargo test -q -p apcm-server --test recovery

echo "==> cargo test -p apcm-cluster --test cluster (routing/failover harness)"
cargo test -q -p apcm-cluster --test cluster

echo "==> cargo test -p apcm-server --test replication (follower/promotion harness)"
cargo test -q -p apcm-server --test replication

echo "==> cargo test -p apcm-cluster --test failover (failover + chaos drill)"
cargo test -q -p apcm-cluster --test failover

echo "==> cargo test -p apcm-cluster --test migration (elastic resharding drill)"
cargo test -q -p apcm-cluster --test migration

echo "==> cargo test -p apcm-cluster --test summary (summary-pruned scatter harness)"
cargo test -q -p apcm-cluster --test summary

echo "==> cargo test -p apcm-netio (event-loop subsystem)"
cargo test -q -p apcm-netio

echo "==> cargo test -p apcm-server --test eventloop (event-loop broker robustness)"
cargo test -q -p apcm-server --test eventloop

echo "==> cargo bench --workspace --no-run (benches stay compilable)"
cargo bench --workspace --no-run

echo "==> cargo test (stackbench: unit tests, smoke, driver contract)"
cargo test -q --offline --manifest-path stackbench/Cargo.toml

echo "==> stackbench --smoke (every workload x metric, oracle-checked)"
mkdir -p target/ci
cargo run --release -q --offline --manifest-path stackbench/Cargo.toml -- \
    --smoke --out target/ci/stackbench-smoke.json --trace-out target/ci/stackbench-trace.json

# Harness smoke runs write fresh records under target/ci; the committed
# BENCH_prN.json files are frozen history. Summary pruning and follower
# reads are asserted by the summary and failover suites above.
harness_smoke() {
    local exp="$1" scale="$2"
    echo "==> harness smoke run ($exp -> target/ci/$exp.json)"
    cargo run --release -q -p apcm-bench --bin harness -- \
        --experiment "$exp" --scale "$scale" --budget-ms 50 --seed 42 \
        --json "target/ci/$exp.json"
}

harness_smoke e2 0.002
harness_smoke e13 0.002
harness_smoke e14 0.002
harness_smoke e15 0.002
harness_smoke e16 0.002
# e17 raises RLIMIT_NOFILE to the hard limit itself (best-effort); ulimit
# here widens the starting soft limit where the shell is allowed to.
ulimit -n "$(ulimit -Hn)" 2>/dev/null || true
harness_smoke e17 0.1
harness_smoke e18 0.002

# `--locked` only checks that a lock could satisfy the manifests; a build
# that rewrites a committed lock (e.g. pruning an unused entry) slips past
# it. Fail instead of leaving the rewrite in the tree.
echo "==> committed lock files unchanged by the build"
git diff --exit-code -- Cargo.lock stackbench/Cargo.lock

echo "==> ci.sh: all green"

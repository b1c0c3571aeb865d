#!/usr/bin/env sh
# CI gate: formatting, lints, the tier-1 suite and every workspace test. Run
# from the repo root.
set -eu

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> tier-1: release build"
cargo build --release

echo "==> tier-1: tests"
cargo test -q

echo "==> workspace tests (every crate's unit and integration tests)"
cargo test --workspace -q

echo "==> docs (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> chaos: fault-injection suite with trace export"
rm -f target/trace-chaos.jsonl
DPFS_TRACE_OUT="$PWD/target/trace-chaos.jsonl" \
    cargo test --release -q --test chaos

echo "==> chaos trace summary (must contain retry spans)"
cargo run --release -q -p dpfs-bench --bin trace-summarize -- \
    --require-phase retry target/trace-chaos.jsonl

echo "==> ablation smoke (--quick) with trace export"
DPFS_TRACE_OUT=target/trace-quick.jsonl \
    cargo run --release -q -p dpfs-bench --bin ablation -- --quick

echo "==> trace summary (fails on empty or unparseable export)"
cargo run --release -q -p dpfs-bench --bin trace-summarize -- target/trace-quick.jsonl

echo "==> trace export must contain metadata RPC spans (ablation 6 remote mounts)"
grep -q '"kind":"meta\.' target/trace-quick.jsonl

echo "==> c10k smoke: 256 concurrent connections, flat thread budget, zero drops"
cargo run --release -q -p dpfs-bench --bin c10k -- --connections 256

echo "==> metad smoke: two real daemon shards fronted by dpfs-sh --metad"
# The tier-1 build only covers the root package's dependency closure; the
# daemon binaries live in workspace members, so build them explicitly.
cargo build --release -q -p dpfs-metad -p dpfs-server -p dpfs-shell --bins
rm -rf target/metad-smoke
mkdir -p target/metad-smoke/ion0
./target/release/dpfs-metad --bind 127.0.0.1:17441 --shard 0 --shards 2 \
    >target/metad-smoke/metad0.log 2>&1 &
METAD0_PID=$!
./target/release/dpfs-metad --bind 127.0.0.1:17442 --shard 1 --shards 2 \
    >target/metad-smoke/metad1.log 2>&1 &
METAD1_PID=$!
./target/release/dpfs-iond --root target/metad-smoke/ion0 --bind 127.0.0.1:17440 \
    >target/metad-smoke/iond.log 2>&1 &
IOND_PID=$!
trap 'kill $METAD0_PID $METAD1_PID $IOND_PID 2>/dev/null || :' EXIT
sleep 1
printf '%s\n' \
    'mkdir /ci' \
    'import README.md /ci/readme.md' \
    'ls -l /ci' \
    'export /ci/readme.md target/metad-smoke/readme.roundtrip' \
    'stats' \
    'rm /ci/readme.md' \
    | ./target/release/dpfs-sh \
        --metad 127.0.0.1:17441 --metad 127.0.0.1:17442 \
        --server ion0=127.0.0.1:17440 \
    >target/metad-smoke/shell.out 2>&1
kill "$METAD0_PID" "$METAD1_PID" "$IOND_PID" 2>/dev/null || :
trap - EXIT
# The stats sections prove metadata went over TCP to *both* shards; the
# broadcast mkdir row proves each daemon executed ops; cmp proves data
# round-tripped through the real I/O daemon byte-for-byte.
grep -q 'metadata: remote via metad0' target/metad-smoke/shell.out
grep -q 'metadata: remote via metad1' target/metad-smoke/shell.out
test "$(grep -c 'meta ops,' target/metad-smoke/shell.out)" -eq 2
! grep -q ' 0 meta ops,' target/metad-smoke/shell.out
test "$(grep -c 'meta\.mkdir' target/metad-smoke/shell.out)" -eq 2
cmp -s README.md target/metad-smoke/readme.roundtrip
echo "metad smoke: ok"

echo "==> redundancy smoke: Replica(2) import survives an iond kill byte-exact"
rm -rf target/red-smoke
mkdir -p target/red-smoke/ion0 target/red-smoke/ion1 target/red-smoke/ion2
./target/release/dpfs-metad --bind 127.0.0.1:17451 --shard 0 --shards 1 \
    >target/red-smoke/metad.log 2>&1 &
RMETAD_PID=$!
./target/release/dpfs-iond --root target/red-smoke/ion0 --bind 127.0.0.1:17452 \
    >target/red-smoke/iond0.log 2>&1 &
RION0_PID=$!
./target/release/dpfs-iond --root target/red-smoke/ion1 --bind 127.0.0.1:17453 \
    >target/red-smoke/iond1.log 2>&1 &
RION1_PID=$!
./target/release/dpfs-iond --root target/red-smoke/ion2 --bind 127.0.0.1:17454 \
    >target/red-smoke/iond2.log 2>&1 &
RION2_PID=$!
trap 'kill $RMETAD_PID $RION0_PID $RION1_PID $RION2_PID 2>/dev/null || :' EXIT
sleep 1
printf '%s\n' \
    'import README.md /readme.md 4096 replica:2' \
    'stat /readme.md' \
    | ./target/release/dpfs-sh \
        --metad 127.0.0.1:17451 \
        --server ion0=127.0.0.1:17452 \
        --server ion1=127.0.0.1:17453 \
        --server ion2=127.0.0.1:17454 \
    >target/red-smoke/shell1.out 2>&1
grep -q 'redundancy: replica:2' target/red-smoke/shell1.out
# One I/O server goes dark; the export below must reconstruct its bricks
# from the mirrors and still round-trip byte-for-byte.
kill "$RION1_PID" 2>/dev/null || :
printf '%s\n' \
    'export /readme.md target/red-smoke/readme.roundtrip' \
    | ./target/release/dpfs-sh \
        --metad 127.0.0.1:17451 \
        --server ion0=127.0.0.1:17452 \
        --server ion1=127.0.0.1:17453 \
        --server ion2=127.0.0.1:17454 \
    >target/red-smoke/shell2.out 2>&1
kill "$RMETAD_PID" "$RION0_PID" "$RION2_PID" 2>/dev/null || :
trap - EXIT
cmp -s README.md target/red-smoke/readme.roundtrip
echo "redundancy smoke: ok"

echo "==> metad sharding ablation smoke (--quick): 1/2/4-shard storm"
cargo run --release -q -p dpfs-bench --bin metad-shards -- --quick \
    --out target/metad-shards-quick.json
grep -q '"bench":"metad_shards"' target/metad-shards-quick.json

echo "==> scenario harness (--quick) with slow-op log enabled"
rm -f target/slowops.jsonl
DPFS_SLOW_OP_US=10000 DPFS_SLOW_OP_OUT=target/slowops.jsonl \
    cargo run --release -q -p dpfs-load --bin scenarios -- --quick \
    --out target/scenarios-quick.json
grep -q '"bench":"scenarios"' target/scenarios-quick.json
# The checkpoint scenario's MiB-scale writes cross the 10ms threshold, so
# the slow-op log must exist and be structurally sound JSONL.
grep -q '"slow_op":true' target/slowops.jsonl
grep -q '"trace":' target/slowops.jsonl

echo "==> bench-diff: committed baseline is self-consistent"
cargo run --release -q -p dpfs-load --bin bench-diff -- \
    BENCH_scenarios.json BENCH_scenarios.json

echo "==> bench-diff: quick run within tolerance of the committed baseline"
cargo run --release -q -p dpfs-load --bin bench-diff -- \
    BENCH_scenarios.json target/scenarios-quick.json --tolerance 0.75

echo "==> bench-diff: gate must FAIL on a synthetic 100x regression"
if cargo run --release -q -p dpfs-load --bin bench-diff -- \
    BENCH_scenarios.json target/scenarios-quick.json \
    --tolerance 0.75 --scale-baseline 100 >/dev/null 2>&1; then
    echo "FAIL: bench-diff passed a synthetic regression"
    exit 1
fi
echo "bench-diff: synthetic regression correctly rejected"

echo "CI green."

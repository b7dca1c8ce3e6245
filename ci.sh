#!/usr/bin/env bash
# Local CI gate: formatting, lints, and the tier-1 build/test command.
# Run from the repository root: ./ci.sh
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> clippy fault-path gate: no unwrap/panic in rfsim + core lib code"
# Execution paths through Graph::execute and the SweepPlan contracts must
# degrade via typed SimError values, never unwind. Only the library
# targets are gated (--lib skips #[cfg(test)] modules, integration tests
# and benches, which are free to unwrap/assert).
cargo clippy -p rfsim -p ofdm-core --lib -- \
    -D warnings -D clippy::unwrap_used -D clippy::panic
cargo clippy -p ofdm-bench --lib -- \
    -D warnings -D clippy::unwrap_used -D clippy::panic

echo "==> cargo doc --no-deps (warnings are errors)"
# Broken intra-doc links and malformed doc comments fail the gate; the
# docs are the contract the supervision/telemetry layers are used by.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

echo "==> tier-1: cargo build --release && cargo test -q"
cargo build --release
cargo test -q

echo "==> crate tests: cargo test -q --workspace"
# The root package's `cargo test` skips the member crates' own suites:
# the rfsim/bench unit tests and crates/bench/tests (lab engine, the
# E1-E11 migration equivalences, and the E10 watchdog/breaker/resume and
# waterfall smoke specs with their exact-count assertions).
cargo test -q --workspace --exclude ofdm-ip-family

echo "==> telemetry smoke: experiments --emit-bench / --check-bench"
# A tiny instrumented sweep over all ten standards; --check-bench fails the
# gate if the emitted JSON is missing any per-block or per-stage key, or if
# the simd_speedup gate trips: any standard's batched kernel below 1x of
# the scalar polar path, 802.11a or DVB-T below 5x, or the family geomean
# below 3x.
cargo run --release -q -p ofdm-bench --bin experiments -- \
    --emit-bench BENCH_ofdm.json --bench-symbols 4

cargo run --release -q -p ofdm-bench --bin experiments -- \
    --check-bench BENCH_ofdm.json

echo "==> lab smokes: experiments --spec (smoke, waterfall_smoke)"
# The declarative experiment lab end to end: run each small spec through
# the engine, emit the byte-stable lab/v1 document, and validate it
# (shape, finiteness, verdict) with --check-lab. smoke.json is a
# zero-error loopback on two presets; waterfall_smoke.json is a fixed-seed
# BER-vs-SNR grid (2 standards x 4 SNR points) whose assertions hold BER
# in [0, 1], the curves monotone-descending and the last SNR point below
# the first. The E9/E10 specs run in the crate tests above.
LAB_DIR=$(mktemp -d)
trap 'rm -rf "$LAB_DIR"' EXIT
for spec in smoke waterfall_smoke; do
    cargo run --release -q -p ofdm-bench --bin experiments -- \
        --spec "examples/lab/$spec.json" --lab-out "$LAB_DIR/$spec.json"
    cargo run --release -q -p ofdm-bench --bin experiments -- \
        --check-lab "$LAB_DIR/$spec.json"
    # Byte-stability gate: a second run must reproduce the document exactly.
    cargo run --release -q -p ofdm-bench --bin experiments -- \
        --spec "examples/lab/$spec.json" --lab-out "$LAB_DIR/${spec}_2.json" >/dev/null
    cmp "$LAB_DIR/$spec.json" "$LAB_DIR/${spec}_2.json" \
        || { echo "lab smoke: $spec lab/v1 document is not byte-stable" >&2; exit 1; }
done

echo "==> service smoke: rfsim-server / rfsim-cli round trip"
# Boot the simulation service on an ephemeral port, submit the example
# mini-waterfall through rfsim-cli, and byte-compare the streamed result
# against an in-process run (--compare-local). A clean shutdown must
# leave no orphan server process.
SMOKE_DIR=$(mktemp -d)
trap 'rm -rf "$SMOKE_DIR" "$LAB_DIR"' EXIT
cargo build --release -q --bin rfsim-server --bin rfsim-cli
./target/release/rfsim-server --addr 127.0.0.1:0 \
    --port-file "$SMOKE_DIR/port" &
SERVER_PID=$!
for _ in $(seq 1 100); do
    [ -s "$SMOKE_DIR/port" ] && break
    sleep 0.1
done
[ -s "$SMOKE_DIR/port" ] || { echo "service smoke: server never bound" >&2; exit 1; }
ADDR=$(cat "$SMOKE_DIR/port")
./target/release/rfsim-cli submit examples/jobs/mini_waterfall.json \
    --addr "$ADDR" --compare-local --out "$SMOKE_DIR/waterfall.json"
./target/release/rfsim-cli shutdown --addr "$ADDR"
wait "$SERVER_PID" || { echo "service smoke: server exited non-zero" >&2; exit 1; }

echo "==> chaos smoke: resilient submit through the fault-injection proxy, then drain"
# The same round trip, but the wire is hostile: an in-process chaos proxy
# injects connection resets and torn frames (bounded by a fault budget).
# --resilient must reconnect under backoff and still produce a document
# byte-identical to the in-process run; a graceful drain then takes the
# server down cleanly.
./target/release/rfsim-server --addr 127.0.0.1:0 \
    --port-file "$SMOKE_DIR/chaos_port" &
CHAOS_SERVER_PID=$!
for _ in $(seq 1 100); do
    [ -s "$SMOKE_DIR/chaos_port" ] && break
    sleep 0.1
done
[ -s "$SMOKE_DIR/chaos_port" ] || { echo "chaos smoke: server never bound" >&2; exit 1; }
ADDR=$(cat "$SMOKE_DIR/chaos_port")
./target/release/rfsim-cli submit examples/jobs/mini_waterfall.json \
    --addr "$ADDR" --resilient --via-chaos seed=11,reset=0.2,tear=0.2,faults=6 \
    --compare-local --out "$SMOKE_DIR/chaos_mini.json"
./target/release/rfsim-cli drain --addr "$ADDR"
wait "$CHAOS_SERVER_PID" || { echo "chaos smoke: drained server exited non-zero" >&2; exit 1; }

echo "==> crash-recovery smoke: kill -9 mid-grid, restart, resubmit byte-identically"
# A checkpointing server is killed (-9, no cleanup) partway through a
# grid. The restart must report the persisted checkpoint in its recovery
# scan, and an identical resubmit must restore the computed prefix and
# complete byte-identically to a local run.
CKPT_DIR="$SMOKE_DIR/ckpt"
./target/release/rfsim-server --addr 127.0.0.1:0 --checkpoint-dir "$CKPT_DIR" \
    --port-file "$SMOKE_DIR/kill_port" &
KILL_SERVER_PID=$!
for _ in $(seq 1 100); do
    [ -s "$SMOKE_DIR/kill_port" ] && break
    sleep 0.1
done
[ -s "$SMOKE_DIR/kill_port" ] || { echo "crash smoke: server never bound" >&2; exit 1; }
ADDR=$(cat "$SMOKE_DIR/kill_port")
./target/release/rfsim-cli submit examples/jobs/chaos_waterfall.json \
    --addr "$ADDR" --out "$SMOKE_DIR/doomed.json" &
CLI_PID=$!
sleep 2
kill -9 "$KILL_SERVER_PID"
if wait "$CLI_PID"; then
    echo "crash smoke: the grid finished before the kill; grow chaos_waterfall.json" >&2
    exit 1
fi
wait "$KILL_SERVER_PID" || true
ls "$CKPT_DIR"/wf-*.json > /dev/null 2>&1 \
    || { echo "crash smoke: no checkpoint persisted before the kill" >&2; exit 1; }
./target/release/rfsim-server --addr 127.0.0.1:0 --checkpoint-dir "$CKPT_DIR" \
    --port-file "$SMOKE_DIR/kill_port2" > "$SMOKE_DIR/restart.log" &
KILL_SERVER_PID=$!
for _ in $(seq 1 100); do
    [ -s "$SMOKE_DIR/kill_port2" ] && break
    sleep 0.1
done
[ -s "$SMOKE_DIR/kill_port2" ] || { echo "crash smoke: restart never bound" >&2; exit 1; }
grep -q "recovery: 1 resumable checkpoint" "$SMOKE_DIR/restart.log" \
    || { echo "crash smoke: recovery scan missed the checkpoint" >&2; exit 1; }
ADDR=$(cat "$SMOKE_DIR/kill_port2")
./target/release/rfsim-cli submit examples/jobs/chaos_waterfall.json \
    --addr "$ADDR" --compare-local --out "$SMOKE_DIR/recovered.json"
./target/release/rfsim-cli shutdown --addr "$ADDR"
wait "$KILL_SERVER_PID" || { echo "crash smoke: restarted server exited non-zero" >&2; exit 1; }

echo "==> ci.sh: all gates passed"

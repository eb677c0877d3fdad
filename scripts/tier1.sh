#!/usr/bin/env bash
# Tier-1 verification: the checks every PR must keep green (see ROADMAP.md),
# plus a zero-warning clippy gate over the whole workspace.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier 1: build (release) =="
cargo build --release

echo "== tier 1: rustfmt (crates held formatted: vf-models, vf-bench) =="
cargo fmt -p vf-models -p vf-bench --check

echo "== tier 1: tests (every crate and shim; debug profile, so the pool-race sanitizer is armed) =="
cargo test --workspace -q

echo "== tier 1: tensor tests (release profile: the codegen the benchmarks run) =="
cargo test --release -q -p vf-tensor

echo "== tier 1: step and generation allocation pins (release profile: the call ceilings and live-byte peaks the benchmarks' codegen must meet) =="
cargo test --release -q -p vf-core --test step_allocations
cargo test --release -q -p vf-data --test generate_allocations

echo "== tier 1: vf-lint (registry-dep, metric-cardinality, lock-order, claim-coverage; surface, line and waiver counts + JSON report) =="
cargo run -q -p vf-lint -- --deny --json

echo "== tier 1: clippy, deny warnings (determinism bans, panic rule, prints, SAFETY comments, discarded Results, reasoned waivers: Cargo.toml + clippy.toml) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== tier 1: perf_bench unit tests (benchmark package builds against the library) =="
cargo test --release -q --manifest-path perf_bench/Cargo.toml

echo "== tier 1: perf_bench smoke (four workloads, bit-identity output checks) =="
cargo run --release -q --manifest-path perf_bench/Cargo.toml -- --smoke

# Every experiment runs through the one harness binary, and `vf-bench list`
# names them with their tags: `identical` (the full run regenerates the
# committed bytes), `smoke` (a shrunk run for this suite) and `gate` (checks
# the tree and the history; runs last).
vf_bench() { cargo run --release -q -p vf-bench -- "$@"; }
tagged() { vf_bench list | grep -w "$1" | cut -d' ' -f1; }
# Assignments, so that a failed `list` or an empty tag stops the suite here.
identical=$(tagged identical)
smoke=$(tagged smoke)
gates=$(tagged gate)

echo "== tier 1: figure byte-identity (every experiment tagged identical): figures regenerate to the committed bytes =="
# Two of these full runs append a record to the history: the stage leaves
# the history as it found it, also when a figure differs.
history=$(mktemp)
cp results/BENCH_history.jsonl "$history"
restore_history() { cp "$history" results/BENCH_history.jsonl; rm -f "$history"; }
trap restore_history EXIT
for name in $identical; do
    vf_bench "$name" > /dev/null
    git diff --exit-code -- "results/$name.json" "results/$name.txt"
done
restore_history
trap - EXIT

# A smoke run checks its experiment's claims on a shrunk run and writes
# only its <id>_smoke.json, which must regenerate the committed bytes
# (history is append-only; the obs-scale smoke carries wall-clock timings).
for name in $smoke; do
    echo "== tier 1: $name smoke =="
    vf_bench "$name" --smoke
    git diff --exit-code -- results/ ':!results/BENCH_history.jsonl' ':!results/BENCH_obs_scale_smoke.json'
done

# lint gate: semantic findings pinned at zero, analysis wall time recorded;
# bench gate: the committed history against the committed baseline.
for name in $gates; do
    echo "== tier 1: $name =="
    vf_bench "$name"
done

echo "tier 1 OK"

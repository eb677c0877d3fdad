#!/usr/bin/env bash
# Tier-1 verification: the checks every PR must keep green (see ROADMAP.md),
# plus a zero-warning clippy gate over the whole workspace.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier 1: build (release) =="
cargo build --release

echo "== tier 1: tests (every crate and shim; debug profile, so the pool-race sanitizer is armed) =="
cargo test --workspace -q

echo "== tier 1: tensor tests (release profile: the codegen the benchmarks run) =="
cargo test --release -q -p vf-tensor

echo "== tier 1: workspace invariants (vf-lint, semantic passes + JSON report) =="
cargo run -q -p vf-lint -- --deny --json

echo "== tier 1: clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== tier 1: perf_bench unit tests (benchmark package builds against the library) =="
cargo test --release -q --manifest-path perf_bench/Cargo.toml

echo "== tier 1: perf_bench smoke (four workloads, bit-identity output checks) =="
cargo run --release -q --manifest-path perf_bench/Cargo.toml -- --smoke

echo "== tier 1: figure byte-identity (scheduler + conv + trainer-driven MLP/BN): figures regenerate to the committed bytes =="
for bin in fig12_three_jobs fig13_twenty_jobs fig14_jct_cdf ablate_schedulers ablate_capacity_dip ablate_conv_repro \
    tab01_resnet_repro tab02_bert_repro fig02_rte_finetune fig07_bert_curves fig08_resnet_curves ablate_noise_scale; do
    cargo run --release -q -p vf-bench --bin "$bin" > /dev/null
    git diff --exit-code -- "results/$bin.json" "results/$bin.txt"
done

echo "== tier 1: chaos smoke (fixed seed, bit-exact under faults) =="
cargo run --release -q -p vf-bench --bin chaos_bench -- --smoke

echo "== tier 1: overlap smoke (bucketed sync strictly faster in simulated time, bit-exact, committed JSON regenerates) =="
cargo run --release -q -p vf-bench --bin overlap_bench -- --smoke
git diff --exit-code -- results/BENCH_overlap_smoke.json

echo "== tier 1: trace smoke (export byte-identical across pool sizes) =="
cargo run --release -q -p vf-bench --bin trace_report -- --smoke

echo "== tier 1: profile smoke (critical path + self-time invariants) =="
cargo run --release -q -p vf-bench --bin trace_profile -- --smoke

echo "== tier 1: store smoke (save/restore throughput, 100% corruption detection) =="
cargo run --release -q -p vf-bench --bin store_bench -- --smoke

echo "== tier 1: recovery drill smoke (durable restores bit-exact, zero silent restores) =="
cargo run --release -q -p vf-bench --bin recovery_drill -- --smoke

echo "== tier 1: monitor smoke (alert recall/precision, byte-stable renders) =="
cargo run --release -q -p vf-bench --bin monitor_bench -- --smoke

echo "== tier 1: obs scale smoke (bounded cardinality, zero silent drops, byte-stable renders) =="
cargo run --release -q -p vf-bench --bin obs_scale_bench -- --smoke

echo "== tier 1: lint gate (semantic findings pinned at zero, analysis wall time recorded) =="
cargo run --release -q -p vf-bench --bin lint_gate

echo "== tier 1: bench gate (committed history vs committed baseline) =="
cargo run --release -q -p vf-bench --bin bench_gate

echo "tier 1 OK"

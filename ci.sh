#!/usr/bin/env bash
# CI gate: formatting, lints, the full test suite, and the static
# design-rule check over both shipping elaborations. Any failure —
# including a galint error-severity finding — fails the build.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --all --check"
cargo fmt --all --check

echo "== cargo clippy --workspace -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo test --workspace"
cargo test --workspace -q

echo "== perfbench build + tests (the benchmark builds against the crates)"
# perfbench is a package of its own outside the workspace, so the steps
# above do not compile it. Building and testing it here makes a crate
# API change that breaks the benchmark fail CI, not the benchmark run.
CARGO_TARGET_DIR=.bench_build cargo build --release --offline --manifest-path perfbench/Cargo.toml
CARGO_TARGET_DIR=.bench_build cargo test -q --release --offline --manifest-path perfbench/Cargo.toml

echo "== galint --format json"
cargo run -q --release -p galint --bin galint -- --format json

echo "== galint --observability (424-site static fault report)"
cargo run -q --release -p galint --bin galint -- --observability > /dev/null

echo "== bench smoke (quick sweep + BENCH_*.json schema + throughput floor)"
# Reduced workloads: Table V at 4 generations, profile with shortened
# measurement loops. benchcheck validates the report schema and fails
# the build if the 64-lane compiled simulator drops below a (very
# conservative) gate-evaluation throughput floor.
cargo build -q --release -p ga-bench --bin table5 --bin profile --bin benchcheck
SMOKE_DIR=target/bench-smoke
mkdir -p "$SMOKE_DIR"
GA_BENCH_OUT="$SMOKE_DIR" GA_BENCH_GENS=4 ./target/release/table5 > /dev/null
GA_BENCH_OUT="$SMOKE_DIR" GA_BENCH_QUICK=1 ./target/release/profile > /dev/null
./target/release/benchcheck "$SMOKE_DIR/BENCH_table5.json" 'runs>=10'
# Wide-lane floors: the 256-lane simulator must beat a conservative
# absolute throughput floor AND deliver at least 2x the 64-lane rate —
# the acceptance criterion for the word-array widening.
./target/release/benchcheck "$SMOKE_DIR/BENCH_profile.json" \
    'bitsim64_gates_per_sec>=5e7' 'bitsim128_gates_per_sec>=1e8' \
    'bitsim256_gates_per_sec>=2e8' 'bitsim256_speedup_vs_64>=2'
# Lane-stream extraction streams on the CA-RNG netlist specialised for
# `consume`: the load/consume muxes must stay folded away (22 ops), and
# a specialised step must stay at least 2x cheaper than a full one.
./target/release/benchcheck "$SMOKE_DIR/BENCH_profile.json" \
    'ca_consume_ops_per_step<=24' 'ca_consume_step_speedup_vs_full>=2'
# The software GA: prefix-sum selection keeps a generation's cost per
# individual nearly flat from pop 16 to pop 128 (a linear selection
# scan measures about 2.5x), and mShubert2D's tabulated coordinate terms
# keep it within a small multiple of F3 (about 24x evaluated directly).
# BF6 and mBF6_2 words read cos(x) from the angle tables: 4.5-9x of F3
# on a 2-vCPU x86-64 host in either speed state, against 15-34x with a
# libm cos per word, so the ceilings fail without the tables.
./target/release/benchcheck "$SMOKE_DIR/BENCH_profile.json" \
    'ga_step_scaling_128_vs_16<=1.5' 'fitness_eval_ratio_mshubert2d_vs_f3<=4' \
    'fitness_eval_ratio_bf6_vs_f3<=12' 'fitness_eval_ratio_mbf6_2_vs_f3<=12'
# The cycle-accurate core: the run-window jumps must never change the
# profiled run's cycle count (pinned exactly to the committed
# BENCH_profile.json, 64 373), and they keep host time per simulated
# cycle well under the cost of a stepped cycle on a 2-vCPU x86-64 host,
# whose two speed states are about 1.6x apart. Stepping every cycle
# measures 45-90 ns there, so the ceiling fails without the jumps. The
# profiled run takes 67 host steps (advance calls) with each generation
# and the initial population jumped whole (Start, the population, then a
# GenCheck step and a generation per generation, and the last GenCheck);
# the ceiling is the committed report's count. Without run windows every
# cycle is one host step (about 64 000), so it fails without them.
./target/release/benchcheck "$SMOKE_DIR/BENCH_profile.json" --baseline BENCH_profile.json \
    'hw_run_cycles>=1.0x' 'hw_run_cycles<=1.0x' 'rtl_wall_ns_per_cycle<=40' \
    'rtl_host_steps<=1.0x'

echo "== fault-injection smoke (scan + netlist campaigns, quick grid)"
# Quick grid: every 8th scan position and one injection cycle per
# netlist site. The campaign invariant — every injection classified
# exactly once (masked+detected+corrupted+hung == injected) — is pinned
# by the paired unclassified floors/ceilings; lane leaks (a fault
# escaping its 64-lane word slot) must never happen.
cargo build -q --release -p ga-bench --bin fault_campaign
GA_BENCH_OUT="$SMOKE_DIR" GA_BENCH_QUICK=1 ./target/release/fault_campaign > /dev/null
./target/release/benchcheck "$SMOKE_DIR/BENCH_fault.json" \
    'injected>=201' 'unclassified>=0' 'unclassified<=0' \
    'class_sum_gap<=0' 'net_lane_leaks<=0' 'scan_landed>=153'

echo "== fault-injection static cross-check (full grid, galint observability join)"
# The headline soundness gate: rerun the full 1416-injection grid,
# verify its aggregates match the committed BENCH_fault.json, and join
# every injection with galint's static observability verdict — a
# statically-unobservable site that was dynamically detected, corrupted
# or hung is an unsound static claim and fails the build. benchcheck
# additionally pins: zero unsound sites, and the statically-masked
# population is present (16 seed sites, 48 confirmed-masked injections).
GA_BENCH_OUT="$SMOKE_DIR" ./target/release/fault_campaign --xcheck > /dev/null
./target/release/benchcheck "$SMOKE_DIR/BENCH_fault.json" \
    'xcheck_unsound_sites<=0' 'static_unobservable_sites>=16' \
    'static_unobservable_sites<=16' 'static_masked_injections>=48'

echo "== testgen smoke (GA-evolved fault-coverage probes, strided grid)"
# The GA evolves (seed, window, polarity) probe sets against the fault
# harness; the evolved set must strictly beat a size-matched random
# baseline and — the static/dynamic contract — claim zero detections at
# galint's statically-unobservable sites. The full-grid fixture
# comparison runs in the default `cargo test` (testgen_fixture.rs);
# here the quick strided grid pins coverage, margin and soundness.
cargo build -q --release -p ga-bench --bin testgen_campaign --bin heal_campaign
GA_BENCH_OUT="$SMOKE_DIR" GA_BENCH_QUICK=1 ./target/release/testgen_campaign > /dev/null
./target/release/benchcheck "$SMOKE_DIR/BENCH_testgen.json" \
    'coverage>=47' 'margin_vs_baseline>=1' 'unsound_detections<=0' \
    'probes>=3' 'fixture_mismatch<=0'

echo "== healing smoke (VRC heal campaign vs the exhaustive oracle)"
# Workload::VrcHeal through every 16-bit backend name: the GA
# must heal >=90% of oracle-healable cases in quick mode (100% on the
# committed full grid) and never "heal" an oracle-unhealable one
# (ghost_heals). The report folds in the testgen headline so one
# artifact gates both halves of the closed fault loop.
GA_BENCH_OUT="$SMOKE_DIR" GA_BENCH_QUICK=1 \
    GA_BENCH_TESTGEN_REF="$SMOKE_DIR/BENCH_testgen.json" \
    ./target/release/heal_campaign > /dev/null
./target/release/benchcheck "$SMOKE_DIR/BENCH_ehw.json" \
    'heal_rate>=0.9' 'ghost_heals<=0' 'cases>=48' \
    'testgen_coverage>=47' 'testgen_unsound_detections<=0'

echo "== conformance (cross-engine matrix over the engine table, quick by default)"
# Every 16-bit backend name (behavioral, swga, RTL interpreter, bitsim64
# lane) must agree generation-for-generation, and the 32-bit rtl32
# composite must match the behavioral dual-core model. The drive loop
# enumerates BackendKind::supporting_width(16), so a new backend name
# is enrolled automatically. The quick matrix runs here; set
# GA_CONFORMANCE_FULL=1 for all six fitness functions and longer
# generation budgets.
cargo test -q --release --test conformance

echo "== engine table (gaserved --list-backends)"
# The serving binary must list the seven backend names, in order, with
# exactly these capability rows: a changed row fails here, not at
# runtime.
cargo build -q --release -p ga-serve --bin gaserved
BACKENDS="$(./target/release/gaserved --list-backends)"
echo "$BACKENDS"
EXPECTED_BACKENDS="behavioral widths=16 pack_width=1 degrades_to=none
rtl widths=16 pack_width=1 degrades_to=none
bitsim64 widths=16 pack_width=64 degrades_to=behavioral
bitsim128 widths=16 pack_width=128 degrades_to=behavioral
bitsim256 widths=16 pack_width=256 degrades_to=behavioral
swga widths=16 pack_width=1 degrades_to=none
rtl32 widths=32 pack_width=1 degrades_to=none"
[ "$BACKENDS" = "$EXPECTED_BACKENDS" ] \
    || { echo "gaserved --list-backends differs from the engine table:"; \
         diff <(echo "$EXPECTED_BACKENDS") <(echo "$BACKENDS"); exit 1; }

echo "== gaserved golden fixture + BENCH_serve.json throughput floors"
# The serving layer replays the checked-in fixture (16-bit jobs on the
# narrow engines, width-32 jobs on rtl32, plus five VRC heal jobs —
# one deliberately unhealable) through its one worker pool; the output
# must be byte-identical to the committed golden (results are
# deterministic and carry no timing fields). benchcheck then validates
# the emitted report, requires per-backend throughput counters for
# every backend name, and enforces a conservative jobs/sec floor.
# Here, on the 200-job batch and on the listener, the unit executor must
# catch no panic (each one it catches also leaves a JSON stderr line).
GA_BENCH_OUT="$SMOKE_DIR" ./target/release/gaserved \
    --input tests/fixtures/jobs16.jsonl \
    --out "$SMOKE_DIR/results16.jsonl" --threads 4
diff -u tests/fixtures/results16_golden.jsonl "$SMOKE_DIR/results16.jsonl"
./target/release/benchcheck "$SMOKE_DIR/BENCH_serve.json" \
    --require-backend-throughput 'jobs>=15' 'jobs_per_sec>=25' \
    'netlist_cache_hits>=1' 'degraded_jobs<=0' 'panics_caught<=0'

echo "== 200-job acceptance batch through gaserved --input (pack-path throughput floor)"
# The wide-lane + cache acceptance gate: the committed 200-job batch
# (tests/fixtures/jobs200.jsonl, cycling every backend name) runs
# through the same batch path as the golden fixture. Packs form in
# first-appearance order at any pool size, so the pack counts are
# exact; the packed bitsim path must clear >=10x the pre-widening
# 1202.89 jobs/s snapshot, with zero degraded lanes and at least one
# compiled-netlist cache hit. The CA-RNG netlist compiles once per
# design (full and `consume`), whatever widths the batch names, so the
# batch misses the cache at most twice.
GA_BENCH_OUT="$SMOKE_DIR" ./target/release/gaserved \
    --input tests/fixtures/jobs200.jsonl --out "$SMOKE_DIR/results200.jsonl" 2> /dev/null
./target/release/benchcheck "$SMOKE_DIR/BENCH_serve.json" \
    'bitsim_pack_jobs_per_sec>=12029' 'bitsim_packs>=9' \
    'bitsim_active_lanes>=86' 'netlist_cache_hits>=1' 'netlist_cache_misses<=2' \
    'degraded_jobs<=0' 'panics_caught<=0'

echo "== persistent socket front-end (listener + streamed golden + load burst)"
# Boot the real TCP listener on an ephemeral port with its stdin held
# open on a fifo (closing the fifo is the std-only drain signal).
# A raw-socket client streams the batch fixture over one connection and
# must read back byte-identical golden lines (the listener shares batch
# mode's reader and worker pool; this checks the socket plumbing). A
# second client sends it one line at a time, reading each reply before
# the next line, so most jobs run on the connection's reader; it must
# read back the same golden. The serve_load client then drives a quick
# mixed-backend burst over four connections. The listener's drain
# report, which counts reader-run jobs too, is benchcheck'd with a
# sustained-rate floor, a behavioral tail-latency ceiling, and zero
# degraded jobs.
cargo build -q --release -p ga-serve --bin serve_load
LISTEN_DIR="$SMOKE_DIR/listen"
mkdir -p "$LISTEN_DIR"
rm -f "$LISTEN_DIR/stdin.fifo" # a stale fifo from an aborted run blocks mkfifo
# The redirect below truncates listen.out only in the forked child, so
# the loop that reads the address could find a previous run's first.
rm -f "$LISTEN_DIR/listen.out"
mkfifo "$LISTEN_DIR/stdin.fifo"
# Hold the fifo open read-write on fd 9 so neither end blocks; the
# server must NOT inherit fd 9 (9<&-) or it would keep its own stdin
# writable and never see the shutdown EOF.
exec 9<>"$LISTEN_DIR/stdin.fifo"
GA_BENCH_OUT="$LISTEN_DIR" ./target/release/gaserved --listen 127.0.0.1:0 --threads 4 \
    <"$LISTEN_DIR/stdin.fifo" >"$LISTEN_DIR/listen.out" 2>"$LISTEN_DIR/listen.err" 9<&- &
LISTEN_PID=$!
LISTEN_ADDR=""
for _ in $(seq 1 100); do
    LISTEN_ADDR="$(sed -n 's/^listening //p' "$LISTEN_DIR/listen.out" 2>/dev/null || true)"
    [ -n "$LISTEN_ADDR" ] && break
    sleep 0.1
done
[ -n "$LISTEN_ADDR" ] || { echo "listener never announced its address"; exit 1; }
GOLDEN_LINES="$(wc -l < tests/fixtures/results16_golden.jsonl)"
exec 3<>"/dev/tcp/127.0.0.1/${LISTEN_ADDR##*:}"
cat tests/fixtures/jobs16.jsonl >&3
head -n "$GOLDEN_LINES" <&3 > "$LISTEN_DIR/streamed.jsonl"
exec 3<&- 3>&-
diff -u tests/fixtures/results16_golden.jsonl "$LISTEN_DIR/streamed.jsonl"
exec 3<>"/dev/tcp/127.0.0.1/${LISTEN_ADDR##*:}"
while IFS= read -r line; do
    printf '%s\n' "$line" >&3
    IFS= read -r reply <&3
    printf '%s\n' "$reply"
done < tests/fixtures/jobs16.jsonl > "$LISTEN_DIR/one_at_a_time.jsonl"
exec 3<&- 3>&-
diff -u tests/fixtures/results16_golden.jsonl "$LISTEN_DIR/one_at_a_time.jsonl"
GA_BENCH_QUICK=1 ./target/release/serve_load --connect "$LISTEN_ADDR"
exec 9<&- 9>&-
wait "$LISTEN_PID"
cat "$LISTEN_DIR/listen.err"
# Two fixture streams of 31 jobs, three of them typed errors each, and
# serve_load's 4 800 jobs: every job is counted, reader-run ones too.
./target/release/benchcheck "$LISTEN_DIR/BENCH_serve.json" \
    --require-backend-throughput 'jobs>=4862' 'jobs_per_sec>=2000' \
    'behavioral_p99_us<=5000' 'errors<=6' 'degraded_jobs<=0' 'panics_caught<=0'

echo "== sharded islands smoke (multi-process ring, kill + resume, exact pins)"
# Three gaserved --island-worker processes driven by the serve-layer
# coordinator over localhost sockets. The coordinator runs the engine's
# one island ring over socket members, so every epoch's checkpoint
# bundle must equal the in-process ring's byte for byte. One worker is
# SIGKILLed mid-run and must surface as the typed error naming island
# 1, and the run resumes from the durable checkpoint file on bitsim64
# workers — the campaign exits nonzero on any divergence. benchcheck
# pins every deterministic metric from both sides: the proof artifacts
# (zero-divergence resume, full migration traffic, all five barrier
# bundles matched) and the run's checkpoint size and best fitness.
cargo build -q --release -p ga-serve --bin islands_campaign
GA_BENCH_OUT="$SMOKE_DIR" ./target/release/islands_campaign
./target/release/benchcheck "$SMOKE_DIR/BENCH_islands.json" \
    'shards>=3' 'epochs>=3' 'resume_count>=1' \
    'migrations>=9' 'migrations<=9' \
    'checkpoint_bytes>=362' 'checkpoint_bytes<=362' \
    'trajectory_matches>=5' 'trajectory_matches<=5' \
    'resume_exact>=1' 'resume_exact<=1' \
    'best_fitness>=4236' 'best_fitness<=4236'

echo "CI OK"

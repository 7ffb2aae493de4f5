#!/bin/sh
# Local CI gate: formatting, lints as errors, full test suite, bench smoke.
set -eux

# Waits (50 x 0.2 s) for the coordinator on $port to answer `amsfi status`;
# on timeout kills $serve_pid and fails. $1, if given, names the
# coordinator in the failure message.
wait_for_serve() {
    i=0
    until ./target/release/amsfi status 127.0.0.1:$port >/dev/null 2>&1; do
        i=$((i + 1))
        if [ "$i" -gt 50 ]; then
            echo "${1:+$1 }amsfi serve never came up on 127.0.0.1:$port" >&2
            kill $serve_pid 2>/dev/null || true
            exit 1
        fi
        sleep 0.2
    done
}

cargo fmt --all -- --check
cargo clippy --workspace --all-targets -- -D warnings
cargo test -q

# PR 2 bench smoke: checkpoint-vs-scratch speedup on the PLL injection-time
# sweep, emitting results/bench/BENCH_pr2.json (cases/sec + speedup at
# 1/4/8 workers). The binary also asserts forked runs are byte-identical
# to from-scratch.
cargo build --release -p amsfi-bench --bin pr2_checkpoint_bench
./target/release/pr2_checkpoint_bench

# PR 3 chaos smoke: forced solver divergence, poison-case quarantine and
# kill-and-resume recovery from a torn journal tail; asserts every failure
# mode is contained instead of killing the campaign.
cargo build --release -p amsfi-bench --bin pr3_chaos_smoke
./target/release/pr3_chaos_smoke

# PR 3 guard-overhead bench: guarded vs unguarded fast-PLL sweep, emitting
# results/bench/BENCH_pr3.json; asserts the robustness layer costs <= 5%
# on the hot path.
cargo build --release -p amsfi-bench --bin pr3_guard_bench
./target/release/pr3_guard_bench

# PR 4 telemetry smoke: in-process validation (every JSONL record parses,
# one case span per executed case, Prometheus dump line-parseable), then
# the CLI surface — a guarded run with --events/--metrics and an
# `amsfi report` journal+events join.
cargo build --release -p amsfi-bench --bin pr4_telemetry_smoke
./target/release/pr4_telemetry_smoke

cargo build --release -p amsfi-serve --bin amsfi
tmp=$(mktemp -d)
./target/release/amsfi run pll-digital --limit 6 --checkpoint \
    --max-steps 100000000 --min-dt-fs 1 --quarantine \
    --journal "$tmp/j.log" --events "$tmp/e.jsonl" --metrics "$tmp/m.prom" \
    --progress-secs 1
test -s "$tmp/e.jsonl"
test -s "$tmp/m.prom"
grep -q amsfi_solver_steps_total "$tmp/m.prom"
grep -q amsfi_stage_latency_microseconds "$tmp/m.prom"
./target/release/amsfi report "$tmp/j.log" --events "$tmp/e.jsonl"
rm -rf "$tmp"

# PR 4 telemetry-overhead bench: Telemetry::disabled() vs fully
# instrumented (metrics + JSONL events) fast-PLL sweep, emitting
# results/bench/BENCH_pr4.json; asserts telemetry costs <= 5%.
cargo build --release -p amsfi-bench --bin pr4_telemetry_bench
./target/release/pr4_telemetry_bench

# PR 5 early-abort bench: checkpointed vs checkpointed + --early-abort on
# the pll-sweep / pll-digital / cpu catalog campaigns at 8 workers,
# emitting results/bench/BENCH_pr5.json (paired trimmed-mean speedups and
# per-campaign oracle ceilings); asserts (class, onset, affected) verdicts
# are byte-identical and early abort is never slower.
cargo build --release -p amsfi-bench --bin pr5_early_abort_bench
./target/release/pr5_early_abort_bench

# PR 6 distributed-serve smoke: in-process coordinator + 2 loopback
# workers run the full pll-sweep, one worker is forcibly killed mid-shard
# (lease timeout -> reshard -> journal-resume), and the live-merged
# journal must yield a cases.csv byte-identical to a single-process run.
# Emits results/bench/BENCH_pr6.json with the wall-clock comparison.
cargo build --release -p amsfi-bench --bin pr6_serve_smoke
./target/release/pr6_serve_smoke

# PR 6 CLI e2e: a real `amsfi serve` coordinator on 127.0.0.1 drains
# pll-sweep through two `amsfi worker` processes, `amsfi status` answers
# over the wire, the merged journal reproduces `amsfi run` byte-for-byte,
# and `amsfi merge` across mismatched campaigns exits with code 4.
tmp=$(mktemp -d)
port=17171
./target/release/amsfi serve --bind 127.0.0.1:$port --campaign pll-sweep \
    --shards 3 --until-drained --journal-dir "$tmp/journals" \
    --metrics "$tmp/serve.prom" &
serve_pid=$!
wait_for_serve
./target/release/amsfi status 127.0.0.1:$port
./target/release/amsfi worker 127.0.0.1:$port --exit-when-done --name ci-w1 &
w1=$!
./target/release/amsfi worker 127.0.0.1:$port --exit-when-done --name ci-w2
wait $w1
wait $serve_pid
grep -q amsfi_serve_cases_merged_total "$tmp/serve.prom"
./target/release/amsfi run pll-sweep --out "$tmp/single" --progress-secs 0
./target/release/amsfi merge "$tmp/journals"/*.journal --out "$tmp/merged"
cmp "$tmp/single/cases.csv" "$tmp/merged/cases.csv"
./target/release/amsfi run pll-digital --limit 4 --journal "$tmp/other.journal" \
    --progress-secs 0
set +e
./target/release/amsfi merge "$tmp/journals"/*.journal "$tmp/other.journal"
rc=$?
set -e
test "$rc" -eq 4
rm -rf "$tmp"

# PR 7 batch bench: scalar vs --batch at 8 workers on the digital catalog
# campaigns, emitting results/bench/BENCH_pr7.json. Two hard gates: full
# CaseResult byte-identity on every campaign (pll-digital as the
# mixed-signal scalar fallback), and >= 10x wall-clock on cpu-set — the
# SET campaign whose logically-masked lanes reconverge and seal. The cpu
# SEU campaign's honest (ungated) ratio is recorded alongside.
cargo build --release -p amsfi-bench --bin pr7_batch_bench
./target/release/pr7_batch_bench

# PR 7/PR 10 differential fuzzer, widened-window run: random netlists +
# fault lists (clock-line saboteurs, edge-snapped SET pulses, stuck-ats,
# mutant flips) run through the three-way oracle — scalar, lane-cloned
# batch, and word-parallel at 1 and 3 workers; any byte difference fails.
AMSFI_FUZZ_SEEDS=300 cargo test -q -p amsfi-bench --release --test batch_diff

# PR 7 CLI e2e: `amsfi run --batch` journal matches the scalar journal
# case-for-case on the SET campaign.
tmp=$(mktemp -d)
./target/release/amsfi run cpu-set --journal "$tmp/scalar.journal" --progress-secs 0
./target/release/amsfi run cpu-set --batch --journal "$tmp/batch.journal" --progress-secs 0
sort "$tmp/scalar.journal" >"$tmp/scalar.sorted"
sort "$tmp/batch.journal" >"$tmp/batch.sorted"
cmp "$tmp/scalar.sorted" "$tmp/batch.sorted"
rm -rf "$tmp"

# PR 8 chaos-net smoke: clean distributed baseline, the kill-and-restart
# drill (coordinator SIGKILLed mid-stream, replacement recovers the
# journal dir, worker reconnects with backoff and replays its cache) and
# a campaign driven through the fault-injecting TCP proxy. Gates:
# byte-identical cases.csv everywhere, one journal record per case, no
# case simulated twice. Emits results/bench/BENCH_pr8.json with the
# recovery-overhead numbers.
cargo build --release -p amsfi-bench --bin pr8_chaos_net
./target/release/pr8_chaos_net

# PR 8 CLI e2e: crash-safe serve with real processes. `amsfi status`
# against a dead address exits with the dedicated code 5; a coordinator
# is SIGKILLed after one shard merges and a restart on the same journal
# dir recovers the campaign (no --campaign needed: the persisted
# submission is replayed); the final merged report is byte-identical to
# a single-process run; `amsfi drain` shuts a coordinator down cleanly.
tmp=$(mktemp -d)
port=17181
set +e
./target/release/amsfi status 127.0.0.1:$port
rc=$?
set -e
test "$rc" -eq 5

./target/release/amsfi serve --bind 127.0.0.1:$port --campaign pll-sweep \
    --shards 3 --journal-dir "$tmp/journals" &
serve_pid=$!
wait_for_serve
./target/release/amsfi worker 127.0.0.1:$port --max-shards 1 --name ci-pre-crash
kill -9 $serve_pid
wait $serve_pid || true

./target/release/amsfi serve --bind 127.0.0.1:$port --until-drained \
    --journal-dir "$tmp/journals" &
serve_pid=$!
wait_for_serve "recovering"
./target/release/amsfi worker 127.0.0.1:$port --exit-when-done --name ci-post-crash
wait $serve_pid
./target/release/amsfi run pll-sweep --out "$tmp/single" --progress-secs 0
./target/release/amsfi merge "$tmp/journals"/*.journal --out "$tmp/merged"
cmp "$tmp/single/cases.csv" "$tmp/merged/cases.csv"

./target/release/amsfi serve --bind 127.0.0.1:$port --campaign pll-digital \
    --limit 4 --journal-dir "$tmp/drain-journals" &
serve_pid=$!
wait_for_serve "drain-test"
./target/release/amsfi drain 127.0.0.1:$port
wait $serve_pid
rm -rf "$tmp"

# PR 9 fleet-observability bench: the same campaign runs distributed
# with worker metrics shipping off and on (two workers each, best of
# three). Gates: merged cases.csv byte-identical to a single-process
# run in both modes, every worker labelled in the fleet Prometheus
# export with the shipped case total matching the campaign, and at
# most 5% wall-clock overhead for shipping. Emits
# results/bench/BENCH_pr9.json.
cargo build --release -p amsfi-bench --bin pr9_fleet_obs_bench
./target/release/pr9_fleet_obs_bench

# PR 9 CLI e2e: `amsfi top --once` renders the live fleet view from a
# running coordinator, and `amsfi report --distributed` joins the
# worker's event stream (trace-context stamped) against the journal
# dir, attributing cases to the worker that ran them.
tmp=$(mktemp -d)
port=17191
./target/release/amsfi serve --bind 127.0.0.1:$port --campaign pll-digital \
    --limit 6 --shards 2 --until-drained --journal-dir "$tmp/journals" &
serve_pid=$!
wait_for_serve "fleet-test"
./target/release/amsfi top 127.0.0.1:$port --once | grep -q "amsfi top"
./target/release/amsfi worker 127.0.0.1:$port --exit-when-done --name ci-fleet \
    --events "$tmp/worker-events.jsonl"
wait $serve_pid
./target/release/amsfi report --distributed "$tmp/journals" \
    --events "$tmp/worker-events.jsonl" | grep -q "cases by worker: ci-fleet"
rm -rf "$tmp"

# PR 10 word bench: lane-cloned --batch vs --batch --word at 8 workers on
# the digital catalog campaigns, emitting results/bench/BENCH_pr10.json.
# Gates: the word run's CaseResults byte-identical to both the scalar and
# the lane-cloned run on cpu and cpu-set, and >= 3x wall-clock on cpu —
# the SEU campaign whose corrupted-register lanes live to the horizon, so
# the word machine turns one plane-valued event wheel where the cloned
# path turns ~64. cpu-set's honest (ungated) ratio rides along; its own
# gate stays the cloned-vs-scalar >= 10x in pr7_batch_bench above.
cargo build --release -p amsfi-bench --bin pr10_word_bench
./target/release/pr10_word_bench

# PR 10 CLI e2e: `amsfi run --batch --word` journal matches the scalar
# journal case-for-case on the SEU campaign, and `amsfi list` advertises
# the word path on the campaigns that carry a word spec.
tmp=$(mktemp -d)
./target/release/amsfi run cpu --journal "$tmp/scalar.journal" --progress-secs 0
./target/release/amsfi run cpu --batch --word --journal "$tmp/word.journal" \
    --progress-secs 0
sort "$tmp/scalar.journal" >"$tmp/scalar.sorted"
sort "$tmp/word.journal" >"$tmp/word.sorted"
cmp "$tmp/scalar.sorted" "$tmp/word.sorted"
./target/release/amsfi list | grep -q "cpu.*word"
rm -rf "$tmp"

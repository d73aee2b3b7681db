#!/usr/bin/env bash
# CI gate: build, test, format, lint. Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release --workspace
cargo test -q --workspace
# The benchmark (perfbench/) is a package of its own that drives the
# workspace only through public APIs: build and test it here so a core
# API change that breaks it fails CI, not the benchmark run.
cargo build --release --offline --manifest-path perfbench/Cargo.toml
cargo test --offline --manifest-path perfbench/Cargo.toml
# Chaos suite (bounded iterations): kill/corrupt/fsck/resume loops must
# stay bit-identical. Already part of the workspace run above; kept as
# an explicit gate so containment regressions fail loudly by name.
cargo test -q -p vulfi-orch --test chaos
# Engine parity: the bytecode engine must reproduce the recorded
# tree-walker byte for byte on every Table I kernel, the micros under all
# fault models, golden censuses and instruction mixes. Also part of the
# workspace run; named here so an engine divergence fails by name.
cargo test -q -p vulfi --test engine_parity
cargo fmt --check
cargo clippy --workspace --all-targets -- -D warnings

# Trace smoke test: a small traced study must leave a clean (fsck'd)
# trace sidecar that summarize can read end to end.
SMOKE=$(mktemp -d)
trap 'rm -rf "$SMOKE"' EXIT
./target/release/vulfi study --bench "vector sum" --experiments 12 --campaigns 5 \
    --seed 7 --shard-size 5 --store "$SMOKE/store" --trace "$SMOKE/trace" \
    --metrics-out "$SMOKE/metrics.prom" > /dev/null
./target/release/vulfi trace fsck --trace "$SMOKE/trace"
./target/release/vulfi trace summarize --trace "$SMOKE/trace" > /dev/null
grep -q '^vulfi_experiments_total' "$SMOKE/metrics.prom"

# Span export smoke: the Chrome trace-event export must self-validate
# (nesting re-proven from the emitted JSON) and report at least one
# complete span on every layer of request -> job -> shard -> experiment.
./target/release/vulfi trace export --chrome --store "$SMOKE/store" \
    --trace "$SMOKE/trace" -o "$SMOKE/spans.json" 2> "$SMOKE/export.err"
grep -q '"traceEvents"' "$SMOKE/spans.json"
grep -q '"displayTimeUnit"' "$SMOKE/spans.json"
grep -Eq 'chrome export: [1-9][0-9]* request, [1-9][0-9]* job, [1-9][0-9]* shard, [1-9][0-9]* experiment span\(s\)' \
    "$SMOKE/export.err"

# Analytics smoke tests: diffing a store against itself must flag
# nothing, and the HTML report must render self-contained with its
# heatmap section.
./target/release/vulfi report diff "$SMOKE/store" "$SMOKE/store" | grep '0 significant' > /dev/null
./target/release/vulfi report heatmap --trace "$SMOKE/trace" > /dev/null
./target/release/vulfi report html --store "$SMOKE/store" --trace "$SMOKE/trace" \
    --metrics-in "$SMOKE/metrics.prom" -o "$SMOKE/report.html"
grep -q 'id="heatmap"' "$SMOKE/report.html"
grep -q 'id="diff"' "$SMOKE/report.html"
grep -q 'id="analysis"' "$SMOKE/report.html"
! grep -q '<script' "$SMOKE/report.html"

# Static-analysis smoke tests: the analyzer must report a benign
# fraction for a benchmark, the whole built-in suite must stay
# lint-clean against the committed baseline, and a deliberately dirty
# module must flip the exit code under --deny — the lint gate is only a
# gate if a finding actually fails the build.
./target/release/vulfi analyze --bench "vector sum" | grep 'provably benign' > /dev/null
./target/release/vulfi lint --suite --deny > /dev/null
./target/release/vulfi lint --suite --json -o "$SMOKE/lint.json"
diff -u LINT_BASELINE.json "$SMOKE/lint.json"
printf 'define void @ds(i32 %%x) {\nentry:\n  %%p = alloca i32, i64 1\n  store i32 %%x, ptr %%p\n  ret void\n}\n' \
    > "$SMOKE/dirty.vir"
! ./target/release/vulfi lint "$SMOKE/dirty.vir" --deny > /dev/null
./target/release/vulfi sites "$SMOKE/dirty.vir" --json -o "$SMOKE/sites.json"
grep -q '"sites"' "$SMOKE/sites.json"

# Pruning smoke test: a pruned study must discharge injections without
# execution, and the soundness gauntlet must cross-validate the
# analyzer's benign proofs against fully-executed studies — zero
# predicted-benign injections may land as SDC/Crash or trip a detector.
./target/release/vulfi study --bench "vector sum" --experiments 20 --campaigns 5 \
    --seed 7 --shard-size 10 --prune --store "$SMOKE/pruned" \
    | grep 'statically discharged' > /dev/null
./target/release/vulfi gauntlet run scenarios/soundness.toml --store "$SMOKE/soundness" \
    | grep '0 breaches: PASS' > /dev/null

# Gauntlet smoke test: the committed scenario (3 fault models x 2 ISAs
# x 2 benchmarks) must pass its invariants, render into the HTML report,
# and a deliberately impossible invariant must flip the exit code — the
# gauntlet is only a gate if a breach actually fails the build.
./target/release/vulfi gauntlet run scenarios/smoke.toml --store "$SMOKE/gauntlet" \
    | grep '0 breaches: PASS' > /dev/null
./target/release/vulfi gauntlet report scenarios/smoke.toml --store "$SMOKE/gauntlet" \
    -o "$SMOKE/gauntlet.html" > /dev/null
grep -q 'id="gauntlet"' "$SMOKE/gauntlet.html"
grep -q 'memory-cell' "$SMOKE/gauntlet.html"
sed 's/^sdc_rate_max.*/sdc_rate_max = 0.0/' scenarios/smoke.toml > "$SMOKE/breach.toml"
! ./target/release/vulfi gauntlet run "$SMOKE/breach.toml" --store "$SMOKE/gauntlet" --resume \
    > "$SMOKE/breach.out"
grep -q 'FAIL (sdc_rate_max)' "$SMOKE/breach.out"

# Profiler smoke test: the hot-path profiler must rank opcodes for a
# golden run without perturbing it (bit-identity is proven by the vexec
# proptest; here we just gate the CLI surface).
./target/release/vulfi profile --bench "vector sum" --hotspots --top 5 \
    -o "$SMOKE/folded.txt" > "$SMOKE/profile.out"
grep -q 'hotspots' "$SMOKE/profile.out"
grep -q 'hottest sites' "$SMOKE/profile.out"
test -s "$SMOKE/folded.txt"

# Throughput record: bench --record must emit parseable JSON with a
# nonzero experiments-per-second figure, and the cumulative history
# sidecar must gain a line carrying the opcode mix.
./target/release/vulfi bench --bench "vector sum" --experiments 10 --record \
    -o "$SMOKE/BENCH_report.json" > /dev/null
grep -q 'exp_per_sec' "$SMOKE/BENCH_report.json"
grep -q 'opcode_mix' "$SMOKE/BENCH_report.json"
grep -q 'golden_dyn_insts' "$SMOKE/BENCH_history.jsonl"
# The trend reader must fold that history into a per-bench trajectory.
./target/release/vulfi bench trend -o "$SMOKE/BENCH_report.json" > "$SMOKE/trend.out"
grep -q 'vector sum' "$SMOKE/trend.out"
./target/release/vulfi bench trend -o "$SMOKE/BENCH_report.json" --json \
    | grep -q '"monotone_regression"'

# Throughput gate: re-run the micro-benchmarks (full and pruned pairs)
# against the committed baseline; any >30% exp/s regression fails the
# build. Re-record with `vulfi bench --experiments 400 --prune --record`
# when a slowdown is intended.
./target/release/vulfi bench --experiments 400 --prune --check BENCH_report.json

# Service smoke test: daemon on an ephemeral port with telemetry and
# alert rules on, submit over HTTP, wait for the merged result, pull
# the analytics report, drain gracefully, and leave a store that
# passes fsck. `exp_s_below 1e9` is impossible to satisfy (it always
# fires once a sample exists); `sdc_rate_above 1e9` can never fire.
printf '[throughput-floor]\nkind = "exp_s_below"\nthreshold = 1e9\n\n[never]\nkind = "sdc_rate_above"\nthreshold = 1e9\n' \
    > "$SMOKE/alerts.toml"
./target/release/vulfi serve --addr 127.0.0.1:0 --store "$SMOKE/serve" --workers 2 \
    --rules "$SMOKE/alerts.toml" --telemetry-interval-ms 100 &
SERVE_PID=$!
for _ in $(seq 1 100); do
    [ -s "$SMOKE/serve/serve.addr" ] && break
    sleep 0.1
done
ADDR=$(cat "$SMOKE/serve/serve.addr")
./target/release/vulfi submit --addr "$ADDR" --bench "vector sum" \
    --experiments 12 --campaigns 5 --shard-size 5 --wait --json > "$SMOKE/submit.json"
grep -q '"mean_sdc"' "$SMOKE/submit.json"
# The input scale is part of the study key: the same spec at paper scale
# is a study of its own, never a cache hit on the test-scale one.
./target/release/vulfi submit --addr "$ADDR" --bench "vector sum" --scale paper \
    --experiments 12 --campaigns 5 --shard-size 5 --wait --json > "$SMOKE/submit_paper.json"
TEST_KEY=$(grep -o '"key": "[a-f0-9]*"' "$SMOKE/submit.json" | head -1 | cut -d'"' -f4)
PAPER_KEY=$(grep -o '"key": "[a-f0-9]*"' "$SMOKE/submit_paper.json" | head -1 | cut -d'"' -f4)
test -n "$TEST_KEY"
test -n "$PAPER_KEY"
test "$TEST_KEY" != "$PAPER_KEY"
# Capture to a file first: `head -1` closing the pipe early would kill
# the writer with SIGPIPE/broken-pipe under `pipefail`.
./target/release/vulfi status --addr "$ADDR" --json > "$SMOKE/status.json"
KEY=$(grep -o '"key": "[a-f0-9]*"' "$SMOKE/status.json" | head -1 | cut -d'"' -f4)
./target/release/vulfi status --addr "$ADDR" "$KEY" --report > "$SMOKE/status_report.json"
grep -q '"cell"' "$SMOKE/status_report.json"
# Live dashboard: zero-JS self-contained HTML with the jobs table,
# alert panel, and inline-SVG telemetry sparklines.
curl -s "http://$ADDR/dashboard" > "$SMOKE/dashboard.html"
grep -q 'id="jobs"' "$SMOKE/dashboard.html"
grep -q 'id="alerts"' "$SMOKE/dashboard.html"
grep -q 'id="telemetry"' "$SMOKE/dashboard.html"
grep -q 'FIRING' "$SMOKE/dashboard.html"
! grep -q '<script' "$SMOKE/dashboard.html"
# The alert endpoint serves the same states as JSON.
curl -s "http://$ADDR/alerts" > "$SMOKE/alerts.json"
grep -q '"throughput-floor"' "$SMOKE/alerts.json"
./target/release/vulfi shutdown --addr "$ADDR" > /dev/null
wait "$SERVE_PID"
test ! -e "$SMOKE/serve/serve.addr"
# The journal is the store's only job log: no queue directory, and the
# one store-wide fsck covers the journal and the telemetry series.
test ! -e "$SMOKE/serve/queue"
./target/release/vulfi store fsck --store "$SMOKE/serve" --json > "$SMOKE/fsck.json"
grep -q '"key": "journal"' "$SMOKE/fsck.json"
grep -q '"key": "telemetry"' "$SMOKE/fsck.json"
# The journal alone must reconstruct the job's lifecycle offline, and
# it must carry the alert transition the daemon logged.
./target/release/vulfi events summarize --store "$SMOKE/serve" > "$SMOKE/ops.out"
grep -q 'completed' "$SMOKE/ops.out"
grep -q 'merged' "$SMOKE/ops.out"
./target/release/vulfi events tail --store "$SMOKE/serve" --top 200 > "$SMOKE/tail.out"
grep -q 'alert-firing' "$SMOKE/tail.out"
# Alerts offline: the impossible-to-satisfy rule must flip the exit
# code over the persisted series; a rules file with only the
# can-never-fire rule must pass.
! ./target/release/vulfi alerts check --rules "$SMOKE/alerts.toml" \
    --store "$SMOKE/serve" > "$SMOKE/alerts.out"
grep -q 'FIRING' "$SMOKE/alerts.out"
printf '[never]\nkind = "sdc_rate_above"\nthreshold = 1e9\n' > "$SMOKE/quiet.toml"
./target/release/vulfi alerts check --rules "$SMOKE/quiet.toml" --store "$SMOKE/serve" > /dev/null

echo "ci: all checks passed"

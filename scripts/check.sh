#!/usr/bin/env sh
# CI check: full build + test suite, then a record/replay smoke test
# of the traceio storage layer through the real CLI.
set -eu
cd "$(dirname "$0")/.."

echo "== dune build @all =="
dune build @all

echo "== dune build --profile strict @all (warnings are errors) =="
dune build --profile strict @all

echo "== dune runtest =="
dune runtest

echo "== smoke: record a tiny archive and replay it through reveal_cli =="
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT INT TERM

dune exec bin/reveal_cli.exe -- record --seed 7 -n 64 --traces 2 -o "$tmp/smoke.rvt"
dune exec bin/reveal_cli.exe -- inspect "$tmp/smoke.rvt" --records
dune exec bin/reveal_cli.exe -- replay-attack "$tmp/smoke.rvt" --per-value 40 | tee "$tmp/replay.out"
grep -q "replayed attack over 2 traces" "$tmp/replay.out"

echo "== smoke: leaklint verdict table on every firmware variant =="
for v in v32 v36 shuffled cdt; do
  dune exec bin/reveal_cli.exe -- lint --variant "$v" --check -n 8 > "$tmp/lint-$v.out"
  grep -q "verdict table check: OK" "$tmp/lint-$v.out"
done
# plain exit codes carry the verdict: v32 leaks (1), v36 is clean (0)
if dune exec bin/reveal_cli.exe -- lint --variant v32 -n 8 > /dev/null; then
  echo "lint: expected a NOT CONSTANT-TIME exit for v32" >&2
  exit 1
fi
dune exec bin/reveal_cli.exe -- lint --variant v36 -n 8 > /dev/null

echo "== smoke: srclint — the pipeline's own source stays deterministic =="
# the self-applied gate: every directory that produces output must lint
# clean (every surviving suppression carries a written reason), and the
# planted fixtures must reproduce their goldens byte-for-byte, text and
# JSON
dune exec bin/reveal_cli.exe -- srclint lib bin bench tools campaign_bench examples > "$tmp/srclint.out"
grep -q "verdict: CLEAN" "$tmp/srclint.out"
(cd test && ../_build/default/bin/reveal_cli.exe srclint fixtures/srclint --check | cmp - golden/srclint.txt)
(cd test && ../_build/default/bin/reveal_cli.exe srclint fixtures/srclint --check --json | cmp - golden/srclint.json)

echo "== smoke: fault sweep (monotone recovery, bikz never under-reported, zero = clean) =="
dune exec bin/reveal_cli.exe -- fault-sweep --seed 7 -n 64 --per-value 100 --traces 4 \
  --intensities 0,0.5,1 --check | tee "$tmp/sweep.out"
grep -q "sweep invariants hold" "$tmp/sweep.out"
grep -q "bit-identical to the clean pipeline" "$tmp/sweep.out"

echo "== smoke: --json emits one parseable value of the right shape per subcommand =="
# every subcommand's --json output must be machine-parseable; python3
# (when present) validates the syntax, grep pins the schema shape
json_ok() {
  # $1 = file, rest = required top-level keys
  f=$1; shift
  if command -v python3 > /dev/null 2>&1; then
    python3 -m json.tool "$f" > /dev/null
  fi
  for k in "$@"; do
    grep -q "\"$k\":" "$f"
  done
}

dune exec bin/reveal_cli.exe -- disasm --variant v32 -n 4 --json > "$tmp/disasm.json"
json_ok "$tmp/disasm.json" variant n instructions listing

dune exec bin/reveal_cli.exe -- trace --seed 7 -n 8 --json > "$tmp/trace.json"
json_ok "$tmp/trace.json" noises samples peaks

dune exec bin/reveal_cli.exe -- attack --seed 7 -n 64 --per-value 40 --json > "$tmp/attack.json"
json_ok "$tmp/attack.json" n sign_correct value_correct

dune exec bin/reveal_cli.exe -- replay-attack "$tmp/smoke.rvt" --per-value 40 --json > "$tmp/replay.json"
json_ok "$tmp/replay.json" archive replayed sign_correct value_rate

dune exec bin/reveal_cli.exe -- inspect "$tmp/smoke.rvt" --json > "$tmp/inspect.json"
json_ok "$tmp/inspect.json" path variant traces checksums_verified

dune exec bin/reveal_cli.exe -- lint --variant v36 -n 8 --json > "$tmp/lint.json"
json_ok "$tmp/lint.json" variant findings violations ok

dune exec bin/reveal_cli.exe -- srclint lib bin --json > "$tmp/srclint.json"
json_ok "$tmp/srclint.json" paths files suppressed findings ok

dune exec bin/reveal_cli.exe -- estimate --perfect 100 --json > "$tmp/estimate.json"
json_ok "$tmp/estimate.json" q n hints bikz_no_hints bikz_with_hints

dune exec bin/reveal_cli.exe -- fault-sweep --seed 7 -n 64 --per-value 100 --traces 4 \
  --intensities 0,1 --json > "$tmp/sweep.json"
json_ok "$tmp/sweep.json" rows intensity bikz

echo "== smoke: report subcommand lists and renders artefacts, text and JSON =="
dune exec bin/reveal_cli.exe -- report --list | grep -q "zero-consistency"
# the golden configuration: report text must reproduce the committed goldens
dune exec bin/reveal_cli.exe -- report table1 --seed 54398 -n 64 --per-value 80 --traces 2 \
  | cmp - test/golden/table1.txt
dune exec bin/reveal_cli.exe -- report table2 --seed 54398 -n 64 --per-value 80 --traces 2 \
  | cmp - test/golden/table2.txt
dune exec bin/reveal_cli.exe -- report table3 --seed 54398 -n 64 --per-value 80 --traces 2 \
  | cmp - test/golden/table3.txt
dune exec bin/reveal_cli.exe -- report table4 --seed 54398 -n 64 --per-value 80 --traces 2 \
  | cmp - test/golden/table4.txt
dune exec bin/reveal_cli.exe -- report signs --seed 54398 -n 64 --per-value 80 --traces 2 \
  | cmp - test/golden/signs.txt
dune exec bin/reveal_cli.exe -- report fig3 --seed 54398 -n 64 --per-value 80 --traces 2 \
  | cmp - test/golden/fig3.txt
dune exec bin/reveal_cli.exe -- report averaging --seed 54398 -n 64 --per-value 80 --traces 2 \
  | cmp - test/golden/averaging.txt
dune exec bin/reveal_cli.exe -- report ablate-features --seed 54398 -n 64 --per-value 80 --traces 2 \
  | cmp - test/golden/ablate_features.txt
dune exec bin/reveal_cli.exe -- report fault-sweep --seed 54398 -n 64 --per-value 80 --traces 2 \
  | cmp - test/golden/fault_sweep.txt
dune exec bin/reveal_cli.exe -- report signs --seed 7 -n 64 --per-value 40 --json > "$tmp/report.json"
json_ok "$tmp/report.json" correct total accuracy_percent
# unknown artefacts are a usage error
if dune exec bin/reveal_cli.exe -- report no-such-artefact > /dev/null 2>&1; then
  echo "report: expected a usage-error exit for an unknown artefact" >&2
  exit 1
fi
if dune exec bench/main.exe -- no-such-artefact > /dev/null 2>&1; then
  echo "bench: expected a usage-error exit for an unknown artefact" >&2
  exit 1
fi

echo "== smoke: obs tracing covers every pipeline stage =="
# replay with an observability trace attached: every line must parse as
# JSON, and the summary must account for each stage of the attack
dune exec bin/reveal_cli.exe -- replay-attack "$tmp/smoke.rvt" --per-value 40 \
  --obs-out "$tmp/run.jsonl" > /dev/null
test -s "$tmp/run.jsonl"
if command -v python3 > /dev/null 2>&1; then
  python3 -c 'import json,sys
for n,line in enumerate(open(sys.argv[1]),1):
    json.loads(line)' "$tmp/run.jsonl"
fi
dune exec bin/reveal_cli.exe -- obs summarize "$tmp/run.jsonl" > "$tmp/obs.out"
for span in cli.replay-attack profiling.calibrate profiling.acquire profiling.build \
    campaign.run stage.acquire stage.segment stage.classify stage.tally sink.integrate; do
  grep -q "$span" "$tmp/obs.out"
done
dune exec bin/reveal_cli.exe -- obs summarize "$tmp/run.jsonl" --json > "$tmp/obs.json"
json_ok "$tmp/obs.json" clock spans counters histograms
# a corrupt trace is an I/O error (exit 3), not a crash
if dune exec bin/reveal_cli.exe -- obs summarize /nonexistent.jsonl > /dev/null 2>&1; then
  echo "obs summarize: expected an I/O-error exit for a missing trace" >&2
  exit 1
fi

echo "== smoke: sharded campaign merges bit-identically to a single process =="
# the fabric's determinism contract: same seed, any worker count, same
# bytes — text and JSON, and a killed worker's shard retried in between
shard_args="--seed 54398 -n 64 --per-value 40 --traces 4"
dune exec bin/reveal_cli.exe -- shard $shard_args --workers 1 > "$tmp/shard-1.out" 2> /dev/null
dune exec bin/reveal_cli.exe -- shard $shard_args --workers 2 > "$tmp/shard-2.out" 2> /dev/null
cmp "$tmp/shard-1.out" "$tmp/shard-2.out"
dune exec bin/reveal_cli.exe -- shard $shard_args --workers 1 --json > "$tmp/shard-1.json" 2> /dev/null
dune exec bin/reveal_cli.exe -- shard $shard_args --workers 2 --json > "$tmp/shard-2.json" 2> /dev/null
cmp "$tmp/shard-1.json" "$tmp/shard-2.json"
json_ok "$tmp/shard-2.json" n traces seed sign_correct value_correct grades hints
# kill shard 0's first attempt mid-write: the retry must recover and the
# merged output must still be byte-identical
dune exec bin/reveal_cli.exe -- shard $shard_args --workers 2 --sabotage 0 \
  > "$tmp/shard-sab.out" 2> "$tmp/shard-sab.err"
cmp "$tmp/shard-1.out" "$tmp/shard-sab.out"
grep -q "recovered" "$tmp/shard-sab.err"
# per-worker obs traces merge into one campaign summary
dune exec bin/reveal_cli.exe -- shard $shard_args --workers 2 --obs-dir "$tmp/shard-obs" \
  > /dev/null 2> /dev/null
test -s "$tmp/shard-obs/shard-0.jsonl"
test -s "$tmp/shard-obs/shard-1.jsonl"
json_ok "$tmp/shard-obs/summary.json" clock spans counters histograms
dune exec bin/reveal_cli.exe -- obs merge "$tmp/shard-obs/shard-0.jsonl" "$tmp/shard-obs/shard-1.jsonl" \
  --json > "$tmp/shard-obs-merge.json"
json_ok "$tmp/shard-obs-merge.json" clock spans counters histograms
# a worker that always dies exhausts its retry budget: attack-failure exit (1)
if dune exec bin/reveal_cli.exe -- shard $shard_args --workers 2 --sabotage 0 --retries 0 \
  > /dev/null 2> /dev/null; then
  echo "shard: expected a retry-exhaustion exit when the only attempt is killed" >&2
  exit 1
fi

echo "== smoke: live fleet telemetry — monitor summary bit-identical to obs merge =="
# a monitor listening on a Unix socket drains both workers' telemetry
# streams live; its end-of-run summary must be the exact bytes obs
# merge later recovers from the workers' JSONL files (the stream is a
# tee of the same sink).  The binary is already built: run it directly
# so the backgrounded monitor never races dune's build lock.
bin=_build/default/bin/reveal_cli.exe
mon_sock="$tmp/monitor.sock"
"$bin" monitor --listen "unix:$mon_sock" --workers 2 > "$tmp/live.txt" 2> "$tmp/monitor.err" &
mon_pid=$!
"$bin" shard $shard_args --workers 2 --obs-dir "$tmp/mon-obs" --telemetry "unix:$mon_sock" \
  > /dev/null 2> /dev/null
wait "$mon_pid"
"$bin" obs merge "$tmp/mon-obs/shard-0.jsonl" "$tmp/mon-obs/shard-1.jsonl" > "$tmp/merged.txt"
cmp "$tmp/live.txt" "$tmp/merged.txt"
# the live feed narrated progress on stderr while stdout stayed cmp-able
grep -q "coefficients" "$tmp/monitor.err"
# replay mode: a file DEST records the stream, monitor replays it offline
"$bin" replay-attack "$tmp/smoke.rvt" --per-value 40 --obs-out "$tmp/streamed.jsonl" \
  --obs-stream "$tmp/tele.bin" --obs-clock logical > /dev/null
test -s "$tmp/tele.bin"
"$bin" monitor "$tmp/tele.bin" > "$tmp/replay-live.txt" 2> /dev/null
"$bin" obs merge "$tmp/streamed.jsonl" > "$tmp/replay-merged.txt"
cmp "$tmp/replay-live.txt" "$tmp/replay-merged.txt"
"$bin" monitor "$tmp/tele.bin" --json > "$tmp/monitor.json" 2> /dev/null
json_ok "$tmp/monitor.json" workers stragglers summary
# quantile columns reach the rendered summaries
grep -q "p50" "$tmp/live.txt"
# prometheus-style export of the same trace data
"$bin" obs export "$tmp/mon-obs/shard-0.jsonl" > "$tmp/obs.prom"
grep -q "reveal_obs_records" "$tmp/obs.prom"
grep -q "reveal_span_count" "$tmp/obs.prom"
"$bin" obs export "$tmp/mon-obs/shard-0.jsonl" --json > "$tmp/obs-export.json"
json_ok "$tmp/obs-export.json" clock spans counters histograms

echo "== smoke: flight recorder — a killed trial leaves its last moments =="
# trials under a tight timeout are SIGTERMed by the orchestrator; the
# worker's handler dumps its flight ring in the grace window and the
# fuzzer attaches the dump to the crash/timeout verdict
if "$bin" fuzz --master-seed 42 --trials 4 --workers 2 --trial-timeout 0.3 \
  --work-dir "$tmp/fuzz-flight" --no-minimize --json > "$tmp/fuzz-flight.json" 2> /dev/null; then
  echo "fuzz: expected a novel-failure exit under a 0.3s trial timeout" >&2
  exit 1
fi
grep -q '"flight":' "$tmp/fuzz-flight.json"
# the referenced dump exists, is non-empty, and opens with the flight header
flight=$(sed -n 's/.*"flight": *"\([^"]*\)".*/\1/p' "$tmp/fuzz-flight.json" | head -n 1)
test -s "$flight"
head -n 1 "$flight" | grep -q '"ev":"flight"'

echo "== smoke: triage fuzzer — deterministic batch, known-file suppression =="
# one master seed expands to one trial table; the first run surfaces
# novel misgrades (exit 1) and graduates them to the known file, the
# rerun is quiet (exit 0), and two quiet runs are byte-identical
fuzz_args="--master-seed 42 --trials 6 --workers 2"
if dune exec bin/reveal_cli.exe -- fuzz $fuzz_args --work-dir "$tmp/fuzz-a" --no-minimize \
  --known "$tmp/known.txt" --update-known > "$tmp/fuzz-a.out" 2> /dev/null; then
  echo "fuzz: expected a novel-failure exit on the first run" >&2
  exit 1
fi
grep -q "novel failure:" "$tmp/fuzz-a.out"
grep -q "repro: " "$tmp/fuzz-a.out"
test -s "$tmp/known.txt"
dune exec bin/reveal_cli.exe -- fuzz $fuzz_args --work-dir "$tmp/fuzz-b" --no-minimize \
  --known "$tmp/known.txt" > "$tmp/fuzz-b.out" 2> /dev/null
grep -q "failures: 0 novel" "$tmp/fuzz-b.out"
dune exec bin/reveal_cli.exe -- fuzz $fuzz_args --work-dir "$tmp/fuzz-c" --no-minimize \
  --known "$tmp/known.txt" > "$tmp/fuzz-c.out" 2> /dev/null
cmp "$tmp/fuzz-b.out" "$tmp/fuzz-c.out"
dune exec bin/reveal_cli.exe -- fuzz $fuzz_args --work-dir "$tmp/fuzz-d" --no-minimize \
  --known "$tmp/known.txt" --json > "$tmp/fuzz.json" 2> /dev/null
json_ok "$tmp/fuzz.json" master_seed trials summary novel known

echo "== smoke: reduce — minimized archive reproduces the planted misgrade =="
# plant a misgrade (aggressive gate, faulted campaign), keep its
# archive, shrink it, and replay the printed repro line: same verdict,
# strictly smaller corpus
plant="--variant v32 --intensity 0.75 --seed 123 --gate aggressive --traces 1 --per-value 24"
dune exec bin/reveal_cli.exe -- trial $plant --archive-out "$tmp/planted.rvt" --out "$tmp/planted.json"
grep -q '"kind": *"misgrade"' "$tmp/planted.json"
dune exec bin/reveal_cli.exe -- reduce "$tmp/planted.rvt" $plant --expect misgrade > "$tmp/reduce.out"
grep -q "reduce repro: " "$tmp/reduce.out"
test -s "$tmp/planted.min.rvt"
orig_bytes=$(wc -c < "$tmp/planted.rvt")
min_bytes=$(wc -c < "$tmp/planted.min.rvt")
[ "$min_bytes" -lt "$orig_bytes" ]
repro=$(sed -n 's/^reduce repro: //p' "$tmp/reduce.out")
if sh -c "$repro" > "$tmp/repro.out"; then
  echo "reduce: expected the repro line to exit 1 on its failing verdict" >&2
  exit 1
fi
grep -q "verdict: misgrade" "$tmp/repro.out"

echo "== smoke: every example runs to completion =="
# the narrated end-to-end runs call the public campaign entry points;
# set -e fails the check on a nonzero exit
for src in examples/*.ml; do
  ex=$(basename "$src" .ml)
  dune exec "examples/$ex.exe" > "$tmp/example-$ex.out"
done

echo "== bench: traceio section (archive write, CRC-32, next decode) =="
# the archive read path's own timing: a broken reader or a renamed
# throughput line fails here, not on the next person who runs it
dune exec bench/main.exe -- traceio > "$tmp/traceio.out"
grep -q "^  next  *[0-9][0-9.]* MB/s" "$tmp/traceio.out"

echo "== bench: perf snapshot written, regressions diffed against the previous run =="
# the bench harness writes bench_out/BENCH_perf.json and flags a kernel
# whose reference-scaled time regressed vs the rotated previous
# snapshot; under REVEAL_PERF_STRICT=1 a kernel whose 95% bootstrap
# interval of the scaled new/old ratio lies wholly above 1.12x is a
# hard failure.  A failing step prints its output before the temp dir
# goes.
perf_snapshot() {
  # $1 = output file, rest = environment assignments
  out=$1; shift
  if ! env "$@" dune exec bench/main.exe -- perf > "$out"; then
    cat "$out"
    exit 1
  fi
}
perf_snapshot "$tmp/perf.out"
grep -q "snapshot written" "$tmp/perf.out"
test -s bench_out/BENCH_perf.json
json_ok bench_out/BENCH_perf.json results ns_per_run scaled
# back-to-back runs on the same machine stay within the strict gate
perf_snapshot "$tmp/perf-strict.out" REVEAL_PERF_STRICT=1
grep -q "REVEAL_PERF_STRICT" "$tmp/perf-strict.out"
# the scoring rows must be in the snapshot: one window and one replayed
# trace through the Bigarray kernels the pipeline actually runs
grep -q "numeric: template scoring, fvec+scratch" "$tmp/perf-strict.out"
grep -q "numeric: replay attack, fvec views+scratch" "$tmp/perf-strict.out"
# the telemetry pair: replaying with a streaming sink attached vs obs
# disabled — both land in BENCH_perf.json so the streaming overhead is
# tracked run-over-run
grep -q "telemetry: replay 2-trace campaign, obs disabled" "$tmp/perf-strict.out"
grep -q "telemetry: replay 2-trace campaign, streaming sink" "$tmp/perf-strict.out"

echo "== goldens re-verified after the numeric-core bench =="
# the refactored kernels must still reproduce the committed report
# goldens byte-for-byte — scoring through Fvec is required to be
# observationally invisible, and this is the end-of-run proof
dune exec bin/reveal_cli.exe -- report signs --seed 54398 -n 64 --per-value 80 --traces 2 \
  | cmp - test/golden/signs.txt
dune exec bin/reveal_cli.exe -- report fig3 --seed 54398 -n 64 --per-value 80 --traces 2 \
  | cmp - test/golden/fig3.txt

echo "== all checks passed =="

#!/usr/bin/env bash
# Tier-1 gate: everything a change must pass before merging.
#
#   gofmt      every Go file is gofmt-clean
#   vet        static checks
#   build      every package compiles
#   perfbench  the nested benchmark module vets against this checkout
#   test -race full suite under the race detector — the parallel
#              campaign engine's determinism tests double as its race
#              exerciser (8 workers over shared world state)
#   artifacts  repro -out writes a warts archive that cmd/replay
#              re-analyzes
#   sweeps     repro -budget-table runs on a 10x generated world and
#              refuses -out
#   pins       the two pinned -result-sha campaigns print their
#              digests and exit 0, and the paper run's whole stdout
#              and its 14 figure files hash as pinned
#   bench 1x   smoke-runs every benchmark once so they cannot bit-rot,
#              then compares ns/op against the committed
#              BENCH_campaign.json (warn-only: smoke timings are noisy)
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== gofmt =="
UNFORMATTED="$(gofmt -l .)"
if [ -n "$UNFORMATTED" ]; then
  echo "FAIL: gofmt -l reports unformatted files:"
  echo "$UNFORMATTED"
  exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== go vet, perfbench module =="
# perfbench is a nested module (its own go.mod), so ./... above never
# compiles it; vet it here so a changed internal API fails in CI, not
# only when the benchmark runs.
(cd perfbench && go vet ./...)

echo "== go test -race =="
go test -race ./...

echo "== go test -race, forced multi-proc (batched worker pool) =="
# The full-suite race pass above runs at the runner's GOMAXPROCS, which
# is 1 on single-core CI — goroutines then interleave only at yield
# points, hiding scheduling orders a real multi-core box would explore.
# Re-run the engine packages (persistent worker pool, frozen-frontier
# queue observation) with parallelism forced on so the Workers>1
# determinism tests double as a genuine concurrent exerciser.
GOMAXPROCS=4 go test -race -count=1 ./internal/experiments/ ./internal/netsim/

echo "== fault determinism smoke (workers 1 vs 8 under race) =="
# The fault-injected campaign must stay bit-identical across worker
# counts and batch sizes; run its equivalence test with real
# parallelism so the outage gate and ICMP-silence schedules race.
# The telemetry equivalence test rides along: its counters are read
# concurrently by design, so the race detector must see a telemetry-on
# campaign at Workers>1.
GOMAXPROCS=4 go test -race -count=1 -run 'TestFaultCampaign|TestTelemetryCampaign' ./internal/experiments/

echo "== budget determinism smoke (workers x batch under race) =="
# The probe-budget scheduler must keep campaigns bit-identical per
# (budget, seed) across the Workers x BatchSteps matrix; run the
# equivalence tests with real parallelism so the skip gate, the
# streaming CUSUM taps, and the barrier recomputes race for real.
GOMAXPROCS=4 go test -race -count=1 -run 'TestBudgetCampaignBitIdentical|TestBudgetAwkwardBatchSizesBitIdentical' ./internal/experiments/

echo "== chunked-backing determinism smoke (workers x batch size under race) =="
# The collector's one storage backing, the columnar tschunk store, must
# be invisible to the numbers: the workers x batch-size matrix runs
# raced at real parallelism so block sealing races too.
GOMAXPROCS=4 go test -race -count=1 -run 'TestChunkedCampaign' ./internal/experiments/

echo "== continent-scale smoke (10x generated world, raced) =="
# A 10x generated world (worldgen, ~15 IXPs / ~10^4 links) runs the
# sharded campaign raced with real parallelism: generator determinism
# across GOMAXPROCS, shard-strided probing into shared arenas, and the
# planted-ground-truth recall round-trip all race for real. The 100x
# acceptance matrix skips under the race detector; this is its raced
# stand-in.
GOMAXPROCS=4 go test -race -count=1 \
  -run 'TestGeneratedWorldRecall|TestShardedCampaignBitIdentical|TestShardedMemoryBounded' \
  ./internal/experiments/
GOMAXPROCS=4 go test -race -count=1 ./internal/worldgen/

echo "== streaming observatory determinism smoke (raced) =="
# The observatory rides the campaign read-side: its alert log and
# end-of-campaign verdicts must stay bit-identical across the
# Workers x BatchSteps x Shards matrix (the matrix test self-reduces
# to its far corners under the race detector), the SSE hub must
# survive 1000 concurrent watchers against a publishing feeder, and
# /metrics scrapes must race a live publisher cleanly.
GOMAXPROCS=4 go test -race -count=1 -run 'TestObservatoryCampaignMatrix' ./internal/experiments/
GOMAXPROCS=4 go test -race -count=1 ./internal/observatory/
GOMAXPROCS=4 go test -race -count=1 -run 'TestServeMounts|TestServeScrapeWhilePublishing' ./internal/telemetry/

echo "== fuzz smoke (stored bytes, input files, packets, API query parameters) =="
# A short pass over the decoders of stored bytes: the checkpoint
# reader (arbitrary payloads framed with a valid header and CRC, so
# they reach gob) and the chunk codec's bit-exact round-trip; over the
# decoders of outside files: RIR delegation files, the IXP directory
# and warts probe archives, each of which must round-trip what it
# accepts through its own writer; over the wire decoders of probe
# packets (IPv4, ICMP, quoted datagrams), whose slices must stay inside
# the input and whose builders' datagrams must decode back; and over
# the observatory API's query parameters and link ids, which must
# answer with a defined status and leave the service lock free. Ten
# seconds each on one worker keeps the step cheap and memory-light; a
# failing input lands in the package's testdata/fuzz directory. Go
# minimizes each new input for 60 s by default, which would eat the
# whole budget; -fuzzminimizetime 100x bounds it so the time fuzzes.
go test -run '^$' -fuzz '^FuzzReadSnapshot$' -fuzztime 10s -fuzzminimizetime 100x -parallel 1 ./internal/checkpoint/
go test -run '^$' -fuzz '^FuzzChunkRoundTrip$' -fuzztime 10s -fuzzminimizetime 100x -parallel 1 ./internal/tschunk/
go test -run '^$' -fuzz '^FuzzRegistryParse$' -fuzztime 10s -fuzzminimizetime 100x -parallel 1 ./internal/registry/
go test -run '^$' -fuzz '^FuzzIXPDirParse$' -fuzztime 10s -fuzzminimizetime 100x -parallel 1 ./internal/ixpdir/
go test -run '^$' -fuzz '^FuzzWartsReader$' -fuzztime 10s -fuzzminimizetime 100x -parallel 1 ./internal/warts/
go test -run '^$' -fuzz '^FuzzQueryParams$' -fuzztime 10s -fuzzminimizetime 100x -parallel 1 ./internal/observatory/
go test -run '^$' -fuzz '^FuzzDecodeIPv4$' -fuzztime 10s -fuzzminimizetime 100x -parallel 1 ./internal/packet/
go test -run '^$' -fuzz '^FuzzDecodeICMP$' -fuzztime 10s -fuzzminimizetime 100x -parallel 1 ./internal/packet/
go test -run '^$' -fuzz '^FuzzParseQuote$' -fuzztime 10s -fuzzminimizetime 100x -parallel 1 ./internal/packet/

echo "== /metrics + observatory endpoint smoke =="
# Start a short artifact-writing campaign with the live telemetry
# endpoint and a linger window, poll until /metrics answers, and assert the snapshot
# carries the instrumented keys end to end (engine counters, probe
# counters, schema tag). Exercises the full wiring: flag parsing, the
# HTTP server, the barrier republication, and the deferred shutdown.
# The same port mounts the streaming observatory API; a background
# curl holds /stream open from before the first batch barrier so the
# smoke can assert a live SSE barrier event, then the paged /links
# table, a /links/{id} detail view, and the /alerts cursor log are
# spot-checked for the observatory schema.
METRICS_ADDR="127.0.0.1:18573"
OBS_OUT="$(mktemp -d)"
STREAM_OUT="$(mktemp)"
go run ./cmd/repro -out "$OBS_OUT" -days 2 -scale 0.05 -no-loss \
  -metrics-addr "$METRICS_ADDR" -metrics-linger 30s >/dev/null 2>&1 &
OBS_PID=$!
# Hold the SSE stream open while the campaign runs: retry until the
# server accepts (it starts before the first barrier), then collect
# events until the main flow has seen what it needs. On a fast runner
# the short campaign can finish before the first successful connect;
# the -metrics-linger window then republishes the final barrier once
# a second, so a barrier event arrives either way.
(
  for _ in $(seq 1 120); do
    curl -sN --max-time 60 "http://$METRICS_ADDR/stream" >>"$STREAM_OUT" 2>/dev/null || true
    [ -s "$STREAM_OUT" ] && break
    sleep 0.5
  done
) &
STREAM_PID=$!
# Scoped cleanup: the bench section below installs its own EXIT trap
# once this block has already torn everything down inline.
trap 'kill "$OBS_PID" "$STREAM_PID" 2>/dev/null || true; rm -rf "$OBS_OUT" "$STREAM_OUT"' EXIT
METRICS_JSON=""
for _ in $(seq 1 60); do
  if METRICS_JSON="$(curl -fsS "http://$METRICS_ADDR/metrics" 2>/dev/null)" \
     && [ -n "$METRICS_JSON" ]; then
    break
  fi
  sleep 1
done
[ -n "$METRICS_JSON" ] || { echo "FAIL: /metrics never answered"; exit 1; }
for key in '"schema": "afrixp-telemetry/1"' '"probes"' '"batches_opened"' '"sweeps"'; do
  echo "$METRICS_JSON" | grep -qF "$key" \
    || { echo "FAIL: /metrics snapshot missing $key"; exit 1; }
done

# SSE: the hello handshake plus at least one barrier event raised
# while virtual time was still advancing.
for _ in $(seq 1 120); do
  if grep -q '^event: barrier' "$STREAM_OUT" 2>/dev/null; then break; fi
  sleep 0.5
done
grep -q '^event: hello' "$STREAM_OUT" \
  || { echo "FAIL: /stream sent no hello event"; exit 1; }
grep -qF '"schema":"afrixp-observatory/1"' "$STREAM_OUT" \
  || { echo "FAIL: /stream hello missing observatory schema"; exit 1; }
grep -q '^event: barrier' "$STREAM_OUT" \
  || { echo "FAIL: /stream produced no live barrier event"; exit 1; }
kill "$STREAM_PID" 2>/dev/null || true
wait "$STREAM_PID" 2>/dev/null || true

# Paged status table: schema tag and a non-empty watched-link set.
LINKS_JSON="$(curl -fsS "http://$METRICS_ADDR/links?per=5")" \
  || { echo "FAIL: /links did not answer"; exit 1; }
echo "$LINKS_JSON" | grep -qF '"schema": "afrixp-observatory/1"' \
  || { echo "FAIL: /links missing observatory schema"; exit 1; }
if echo "$LINKS_JSON" | grep -qE '"total": 0,?$'; then
  echo "FAIL: /links reports zero watched links"; exit 1
fi

# Detail view for the first listed link id.
LINK_ID="$(echo "$LINKS_JSON" | sed -n 's/.*"id": "\([^"]*\)".*/\1/p' | head -n 1)"
[ -n "$LINK_ID" ] || { echo "FAIL: /links page carried no link ids"; exit 1; }
DETAIL_JSON="$(curl -fsS "http://$METRICS_ADDR/links/$LINK_ID")" \
  || { echo "FAIL: /links/$LINK_ID did not answer"; exit 1; }
for key in '"schema": "afrixp-observatory/1"' '"diurnal"' '"profile_ms"'; do
  echo "$DETAIL_JSON" | grep -qF "$key" \
    || { echo "FAIL: /links/$LINK_ID missing $key"; exit 1; }
done

# Alert log: schema tag and a resumable cursor.
ALERTS_JSON="$(curl -fsS "http://$METRICS_ADDR/alerts?limit=5")" \
  || { echo "FAIL: /alerts did not answer"; exit 1; }
for key in '"schema": "afrixp-observatory/1"' '"next"' '"alerts"'; do
  echo "$ALERTS_JSON" | grep -qF "$key" \
    || { echo "FAIL: /alerts missing $key"; exit 1; }
done

kill "$OBS_PID" 2>/dev/null || true
wait "$OBS_PID" 2>/dev/null || true
rm -rf "$OBS_OUT" "$STREAM_OUT"
echo "metrics + observatory endpoints OK"

echo "== artifact + offline replay smoke =="
# A short campaign writes its artifacts, and cmd/replay re-runs the
# analysis over the warts archive it wrote: both must exit 0 and the
# replay must report at least one link.
ART_TMP="$(mktemp -d)"
trap 'rm -rf "$ART_TMP"' EXIT
go run ./cmd/repro -out "$ART_TMP/run" -days 2 -scale 0.05 -no-loss -headline -quiet >/dev/null
go run ./cmd/replay -warts "$ART_TMP/run/measurements.warts" -days 2 >"$ART_TMP/replay.txt"
grep -qF '→' "$ART_TMP/replay.txt" \
  || { echo "FAIL: replay of the archive printed no link row"; cat "$ART_TMP/replay.txt"; exit 1; }
rm -rf "$ART_TMP"
echo "artifacts + replay OK"

echo "== budget-table smoke (10x generated world, ignored-flag refusal) =="
# The probe-budget sweep builds its campaigns with the same translation
# as a plain run, so -scale 10 sweeps the generated world: its four
# one-day campaigns must exit 0. A sweep writes no artifacts, so
# -budget-table with -out must refuse to run.
SWEEP_TMP="$(mktemp -d)"
trap 'rm -rf "$SWEEP_TMP"' EXIT
go build -o "$SWEEP_TMP/repro" ./cmd/repro
"$SWEEP_TMP/repro" -budget-table -scale 10 -days 1 -no-loss -quiet >/dev/null
if "$SWEEP_TMP/repro" -budget-table -out "$SWEEP_TMP/out" >/dev/null 2>&1; then
  echo "FAIL: repro -budget-table -out exited 0"
  exit 1
fi
rm -rf "$SWEEP_TMP"
echo "budget-table smoke OK"

echo "== checkpoint-restart smoke (kill -9 mid-campaign, resume, byte-identical) =="
# An uninterrupted faulted+budgeted campaign prints its result digest;
# the same campaign is then run with barrier checkpointing, killed with
# SIGKILL once the first snapshot lands (a fast runner may finish
# first — then the kill is a no-op and resume still replays from the
# newest barrier), and resumed. The resumed digest must match the
# uninterrupted one bit for bit.
CKPT_TMP="$(mktemp -d)"
trap 'rm -rf "$CKPT_TMP"' EXIT
go build -o "$CKPT_TMP/repro" ./cmd/repro
REPRO_ARGS=(-days 4 -scale 0.05 -no-loss -faults -budget 0.5 -budget-seed 1 -quiet -result-sha)
REF_SHA="$(GOMAXPROCS=4 "$CKPT_TMP/repro" "${REPRO_ARGS[@]}" | grep '^result sha256:')"
[ -n "$REF_SHA" ] || { echo "FAIL: reference run printed no result digest"; exit 1; }
GOMAXPROCS=4 "$CKPT_TMP/repro" "${REPRO_ARGS[@]}" \
  -checkpoint-dir "$CKPT_TMP/snaps" -checkpoint-every 12h >/dev/null 2>&1 &
CKPT_PID=$!
for _ in $(seq 1 240); do
  if ls "$CKPT_TMP/snaps"/ckpt-*.bin >/dev/null 2>&1; then break; fi
  kill -0 "$CKPT_PID" 2>/dev/null || break
  sleep 0.25
done
kill -9 "$CKPT_PID" 2>/dev/null || true
wait "$CKPT_PID" 2>/dev/null || true
ls "$CKPT_TMP/snaps"/ckpt-*.bin >/dev/null 2>&1 \
  || { echo "FAIL: no checkpoint written before the kill"; exit 1; }
RES_SHA="$(GOMAXPROCS=4 "$CKPT_TMP/repro" "${REPRO_ARGS[@]}" \
  -checkpoint-dir "$CKPT_TMP/snaps" -resume | grep '^result sha256:')"
[ "$REF_SHA" = "$RES_SHA" ] \
  || { echo "FAIL: resumed run differs from uninterrupted: '$RES_SHA' vs '$REF_SHA'"; exit 1; }
rm -rf "$CKPT_TMP"
echo "checkpoint restart OK (${REF_SHA#result sha256: })"

echo "== pinned result digests (paper 255-day and faulted 10x week) =="
# -result-sha hashes every campaign observable. Two campaigns are
# pinned: the paper world's 255 days at Scale 0.08, and a faulted,
# half-budget week on the 10x generated world. With no report flag
# repro also runs every report, the paper-world experiments included,
# so each run must exit 0 as well as print its pinned digest. Only a
# change meant to move results may re-pin them, here and in CHANGES.md.
PIN_TMP="$(mktemp -d)"
trap 'rm -rf "$PIN_TMP"' EXIT
go build -o "$PIN_TMP/repro" ./cmd/repro
check_pin() {
  local want="$1" got status=0
  shift
  "$PIN_TMP/repro" "$@" -quiet -result-sha >"$PIN_TMP/out" 2>"$PIN_TMP/err" || status=$?
  if [ "$status" -ne 0 ]; then
    echo "FAIL: repro $* exited $status"
    tail -n 20 "$PIN_TMP/err"
    exit 1
  fi
  got="$(sed -n 's/^result sha256: //p' "$PIN_TMP/out")"
  [ "$got" = "$want" ] \
    || { echo "FAIL: repro $*: digest '$got', want '$want'"; exit 1; }
  echo "pinned digest OK: $*"
}
check_pin eb70ececc60a47080822fcdac0b6fb274350acaa744d1accfa7f2c21bde3a7e0 \
  -scale 0.08 -days 255 -csvdir "$PIN_TMP/figs"
# The paper run's whole output is pinned too: its stdout (tables,
# comparisons, digest; it holds no path) and its figure CSVs and SVGs,
# hashed as one sorted sha256sum listing.
check_sum() {
  local what="$1" want="$2" got="$3"
  [ "$got" = "$want" ] \
    || { echo "FAIL: paper run $what: sha256 '$got', want '$want'"; exit 1; }
  echo "pinned paper output OK: $what"
}
check_sum stdout ff12a2a21ef1ca0493c47743abd0683521cd5eec60b9f21e2a965a72284eb953 \
  "$(sha256sum <"$PIN_TMP/out" | cut -d' ' -f1)"
check_sum "figure files" c062eb59f33400a6049cb15a4d2e7d8e062568de215ee67733586862bbea696b \
  "$(cd "$PIN_TMP/figs" && sha256sum * | sha256sum | cut -d' ' -f1)"
check_pin 12e41ff4bf109a4f5309aedf22daa34d8374ec01b272258e867f4a0534dca110 \
  -scale 10 -days 7 -faults -budget 0.5
rm -rf "$PIN_TMP"

echo "== bench smoke (1 iteration each) =="
SMOKE="$(mktemp)"
trap 'rm -f "$SMOKE"' EXIT
go test -run '^$' -bench . -benchtime 1x . | tee "$SMOKE"

echo "== bench regression guard (warn-only) =="
# Single-iteration timings are noisy, so a regression here warns but
# never fails CI; scripts/bench.sh records the authoritative numbers.
go run ./scripts/benchjson -guard -raw "$SMOKE" -prev BENCH_campaign.json -tolerance 25 || true
echo "runner cores: $(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)"

echo "CI OK"

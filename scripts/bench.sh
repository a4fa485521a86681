#!/usr/bin/env bash
# Records the campaign-engine benchmarks into BENCH_campaign.json:
# the end-to-end campaign (with and without the fault plan, and under
# the probe-budget scheduler at 100/50/25/10% — whose probes_sent
# metric the guard checks for overspend), the TSLP
# sampling hot loop, the analysis
# threshold sweep (detect-once vs per-threshold detection), and the
# parallel-engine sub-benchmarks. The parallel benches run under
# GOMAXPROCS>1 explicitly so workers=N is a real fan-out even on a
# single-core runner (the results are bit-identical either way; only
# the timing needs the cores). Prior recorded runs are preserved in
# the ledger's history array.
set -euo pipefail
cd "$(dirname "$0")/.."

COUNT="${COUNT:-1}"
PROCS="${PROCS:-4}"
OUT="BENCH_campaign.json"
RAW="$(mktemp)"
trap 'rm -f "$RAW"' EXIT

# Effective core count of this runner, stamped into the ledger row so
# the "workers=N at parity on a starved runner" caveat is data, not
# folklore. nproc reflects the cgroup/affinity limit where available.
CORES="$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)"

# BenchmarkAlertLatency rides here too: its alert_latency_p50_s /
# alert_latency_p95_s metrics are the streaming observatory's measured
# detection lag against planted ground truth, sanity-checked (warn-only)
# by the benchjson guard.
go test -run '^$' \
  -bench 'BenchmarkFullCampaign$|BenchmarkFaultCampaign$|BenchmarkBudgetCampaign|BenchmarkAlertLatency|BenchmarkTelemetryCampaign$|BenchmarkTSLPSamplingThroughput$|BenchmarkAnalysisSweep|BenchmarkChunkCompression$|BenchmarkCheckpoint$' \
  -benchmem -count "$COUNT" . | tee "$RAW"

# The analysis layer's own rows: one bootstrap window (a day of
# 5-minute samples, flat and with a shift), the year-long hourly
# rank-CUSUM scan, one 255-day diurnal fold, and one streaming CUSUM
# tap update (the budget scheduler's per-round change detector).
go test -run '^$' \
  -bench 'BenchmarkDetectYearHourly$|BenchmarkBootstrapWindow|BenchmarkDiurnalFold$|BenchmarkStreamObserve$' \
  -benchmem -count "$COUNT" ./internal/cusum ./internal/diurnal | tee -a "$RAW"

# The byte-boundary rows: one longest-prefix-match lookup (the
# address-to-AS and IXP-prefix maps) and one warts record write.
go test -run '^$' \
  -bench 'BenchmarkLookup$|BenchmarkWrite$' \
  -benchmem -count "$COUNT" ./internal/lpm ./internal/warts | tee -a "$RAW"

# The probe path's own rows: the packet walk, the cached-path sampler,
# one TSLP round on a year-old world, a year of fluid-queue advance
# under a flat and a diurnal load, one planted port's catch-up from
# Epoch to July 20 (a mid-year campaign's first read), and one batch
# step's 100 one-second frozen loss probes.
go test -run '^$' \
  -bench 'BenchmarkInjectFarProbe$|BenchmarkProbePathSample$|BenchmarkFrozenLossBatch$|BenchmarkTSLPRoundYear$|BenchmarkFluidAdvanceYear|BenchmarkFluidCatchUp$' \
  -benchmem -count "$COUNT" ./internal/netsim ./internal/prober ./internal/queue | tee -a "$RAW"

# The discovery plane's own rows: one BGP route computation toward a
# fresh destination over a 2000-AS graph, and one bdrmap run (every
# traceroute of a small VP world).
go test -run '^$' \
  -bench 'BenchmarkRoutesTo$|BenchmarkBorderMapping$' \
  -benchmem -count "$COUNT" ./internal/bgpsim ./internal/bdrmap | tee -a "$RAW"

# BenchmarkScaleCampaign rides in the multi-proc pass: its 10x/100x
# points run the sharded engine, whose bytes_per_link metric the
# benchjson guard checks against the scale=1 figure (the per-shard
# memory bound) and against the committed ledger (warn-only).
GOMAXPROCS="$PROCS" go test -run '^$' \
  -bench 'BenchmarkCampaignParallel|BenchmarkAnalysisFanout|BenchmarkProbeStepBatch|BenchmarkScaleCampaign' \
  -benchmem -count "$COUNT" . | tee -a "$RAW"

go run ./scripts/benchjson -raw "$RAW" -prev "$OUT" -out "$OUT" -cores "$CORES"
echo "wrote $OUT"

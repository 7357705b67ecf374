#!/bin/sh
# ci.sh — the repo's full verification pipeline:
#
#   1. go vet, build, vet + tests of the separate perfbench module
#      (root `go test ./...` does not compile it, yet it imports the
#      internal APIs), and the test suite under the race detector
#      (plus a doubled -race pass over the concurrency-heavy SWAR,
#      align, search, dispatch, dbpack and server packages — the
#      striped kernels, their pooled aligners, the adaptive routing
#      state and the HTTP batching/admission machinery run under
#      -race -count=2)
#   2. a chaos sweep: 16 seeds x 3 strategies of the fault-injection
#      differential oracle, under the race detector, plus a
#      crash-recovery matrix (8 seeds x 3 strategies, one kill + 5%
#      message loss each) asserting bit-exact kill-and-recover runs,
#      plus a sharded-search chaos matrix (8 seeds x {kill one shard
#      mid-scan, 5% message loss, 5% duplication}, -race) asserting the
#      distributed scan stays bit-identical to single-node with the
#      recovery counters proving each kill was detected and reassigned,
#      plus a pruned-vs-unpruned search differential sweep (3 seeds x
#      skewed/uniform databases, -race) asserting bit-identical hits
#   3. per-package coverage, gated on >= 85% combined coverage of
#      internal/dsm + internal/chaos + internal/recovery (the
#      protocol, its harness and the fault-tolerance layer)
#   4. an index/serve e2e smoke: pack a synthetic database with the
#      real binary (v2 format), serve it resident with /statsz proving
#      the pack is mmap'd, answer an HTTP query with hits, then drain
#      cleanly on SIGTERM
#   5. a 1-iteration smoke run of every kernel, search, serve and pack
#      benchmark
#   6. the kernel, search and serve benchmarks for real, gated by
#      cmd/benchdiff against the committed BENCH_kernels.json baseline,
#      plus the pruning speedup gate: SearchDatabasePruned must hold
#      >= 1.5x the cells/s of both SearchDatabaseSkewed and
#      SearchDatabase, plus the dispatch routing gate: auto-dispatched
#      scans must hold parity with the best fixed route on the uniform
#      and skewed databases and beat every fixed route outright on the
#      mixed database (where no single fixed route wins both halves;
#      the int16 comparator is a router forced to the int16 route),
#      plus the serve batching gate: one 16-query POST must beat 16
#      sequential single-query POSTs by >= 1.5x queries/s, plus the
#      pack cold-start gate: opening + first query on a v2 (mmap) pack
#      must be >= 2x faster than the same on a v1 (varint-decode) pack
#
# The benchmark gate fails the build when any kernel loses more than
# BENCHDIFF_MAX_REGRESS percent (default 5) cells/sec against the
# "baseline" snapshot in BENCH_kernels.json. "baseline" is the gate
# anchor, recorded
# conservatively (a slow phase of the dev machine) so one-sided
# scheduler noise doesn't trip the gate; the "seed"/"current" snapshots
# document this repo's before/after kernel rewrite and are compared
# with `benchdiff -diff seed current`, not gated on. After an
# intentional perf change, re-record with:
#
#   go test -run '^$' -bench 'Kernel|Search|Serve|Pack' -count 5 . | go run ./cmd/benchdiff -snapshot baseline
#
# On shared/noisy machines set BENCHDIFF_MAX_REGRESS higher, increase
# BENCH_COUNT so best-of has more samples, or set SKIP_BENCHDIFF=1 to
# run only the functional checks.
set -eu
cd "$(dirname "$0")/.."

echo "== go vet"
go vet ./...

echo "== go build"
go build ./...

echo "== perfbench module (go vet + go test)"
(cd perfbench && go vet ./... && go test ./...)

echo "== go test -race"
go test -race ./...

echo "== go test -race -count=2 (swar + align + search + shard + dispatch + dbpack + server)"
go test -race -count=2 ./internal/swar ./internal/align ./internal/search ./internal/shard ./internal/dispatch ./internal/dbpack ./internal/server ./cmd/genomedsm

echo "== chaos sweep (16 seeds x 3 strategies, -race)"
chaos_bin=$(mktemp -d)/genomedsm
go build -race -o "$chaos_bin" ./cmd/genomedsm
seed=1
while [ "$seed" -le 16 ]; do
    "$chaos_bin" chaos -seed "$seed" -strategy noblock,preprocess,phase2 \
        -schedules 2 -len 360 -procs 3 >/dev/null ||
        { echo "chaos sweep FAILED at seed $seed"; exit 1; }
    seed=$((seed + 1))
done
echo "chaos sweep ok"

echo "== crash-recovery matrix (8 seeds x 3 strategies, kill + 5% loss, -race)"
seed=1
while [ "$seed" -le 8 ]; do
    for st in noblock preprocess phase2; do
        "$chaos_bin" chaos -seed "$seed" -strategy "$st" \
            -kill 1@2 -loss 0.05 -schedules 1 -len 360 -procs 3 >/dev/null ||
            { echo "crash matrix FAILED at seed $seed strategy $st"; exit 1; }
    done
    seed=$((seed + 1))
done
echo "crash-recovery matrix ok"

echo "== sharded-search chaos matrix (8 seeds x kill/loss/dup, -race)"
# The distributed-search robustness contract: across every seed, a
# 4-shard scatter with one worker killed mid-scan (the oracle also
# requires its counters to prove the kill, detection and reassignment
# happened), 5% message loss, or 5% duplication must return hits
# bit-identical to a fault-free single-node scan.
seed=1
while [ "$seed" -le 8 ]; do
    for faults in "-kill-shard 1@1" "-loss 0.05" "-dup 0.05"; do
        "$chaos_bin" chaos -search -shards 4 -schedules 1 -seed "$seed" $faults >/dev/null ||
            { echo "sharded-search matrix FAILED at seed $seed faults '$faults'"; exit 1; }
    done
    seed=$((seed + 1))
done
echo "sharded-search chaos matrix ok"

echo "== pruned-vs-unpruned differential sweep (3 seeds x skewed/uniform, -race)"
# The exact-pruning contract: `search -prune` (and -prune -prefilter)
# must return bit-identical hits — scores, coordinates, tie-breaks — to
# the unpruned scan, on skewed (planted homologs) and uniform (pure
# noise, worst case) databases alike. Reuses the -race CLI binary so
# the sweep also exercises the shared floor under the race detector.
hits_of() {
    "$chaos_bin" search -n 400 -db-size 64 -db-len 300 -json "$@" |
        sed -n '/"hits"/,/\]/p'
}
for seed in 1 2 3; do
    for plant in 8 0; do
        want=$(hits_of -seed "$seed" -plant-every "$plant" -prune=false)
        for mode in "-prune" "-prune -prefilter"; do
            got=$(hits_of -seed "$seed" -plant-every "$plant" $mode)
            [ "$got" = "$want" ] ||
                { echo "differential sweep FAILED: seed $seed plant $plant mode '$mode'"
                  echo "--- unpruned"; echo "$want"; echo "--- pruned"; echo "$got"; exit 1; }
        done
    done
done
rm -rf "$(dirname "$chaos_bin")"
echo "differential sweep ok"

echo "== per-package coverage"
go test -cover ./...

echo "== dsm+chaos+recovery coverage gate (>= 85%)"
covfile=$(mktemp)
go test -coverpkg=./internal/dsm,./internal/chaos,./internal/recovery \
    -coverprofile="$covfile" \
    ./internal/dsm ./internal/chaos ./internal/recovery ./internal/phase2 \
    ./internal/preprocess ./internal/wavefront >/dev/null
pct=$(go tool cover -func="$covfile" | awk '/^total:/ { sub(/%/, "", $3); print $3 }')
rm -f "$covfile"
echo "combined internal/dsm + internal/chaos + internal/recovery coverage: ${pct}%"
awk -v p="$pct" 'BEGIN { exit (p >= 85.0) ? 0 : 1 }' ||
    { echo "coverage gate FAILED: ${pct}% < 85%"; exit 1; }

echo "== index/serve e2e smoke (pack -> resident server -> HTTP query -> drain)"
# The cold-start contract end to end with the real binary: pack a
# synthetic database once, serve it (no FASTA re-parse), answer an HTTP
# query with hits, report healthy, then drain cleanly on SIGTERM.
e2edir=$(mktemp -d)
go build -o "$e2edir/genomedsm" ./cmd/genomedsm
"$e2edir/genomedsm" index -db-size 48 -db-len 300 -n 400 \
    -o "$e2edir/db.pack" -q-out "$e2edir/q.fa" >/dev/null
"$e2edir/genomedsm" serve -pack "$e2edir/db.pack" -addr 127.0.0.1:17878 \
    >"$e2edir/serve.log" 2>&1 &
serve_pid=$!
ok=0
for _ in $(seq 1 50); do
    if curl -sf http://127.0.0.1:17878/healthz >/dev/null 2>&1; then ok=1; break; fi
    sleep 0.1
done
[ "$ok" = 1 ] || { echo "e2e FAILED: server never became healthy"
                   cat "$e2edir/serve.log"; kill "$serve_pid" 2>/dev/null; exit 1; }
q=$(sed -n '2p' "$e2edir/q.fa" | cut -c1-200)
curl -sf -d "{\"query\":\"$q\",\"top_k\":3}" http://127.0.0.1:17878/search |
    grep -q '"score"' ||
    { echo "e2e FAILED: query returned no scored hits"; kill "$serve_pid" 2>/dev/null; exit 1; }
statsz=$(curl -sf http://127.0.0.1:17878/statsz)
echo "$statsz" | grep -q '"served": *1' ||
    { echo "e2e FAILED: statsz did not count the query"; kill "$serve_pid" 2>/dev/null; exit 1; }
# The zero-copy contract: `index` writes v2 by default and `serve` must
# have mmap'd it, with /statsz reporting the mapped load verbatim.
echo "$statsz" | grep -q '"mode": *"mmap"' ||
    { echo "e2e FAILED: statsz pack mode is not mmap"
      echo "$statsz"; kill "$serve_pid" 2>/dev/null; exit 1; }
# The expected version is read from the format constant, so a format
# bump cannot leave this check behind.
packver=$(sed -n 's/^[[:space:]]*packVersionV2 *= *\([0-9][0-9]*\).*/\1/p' internal/dbpack/v2.go)
[ -n "$packver" ] ||
    { echo "e2e FAILED: packVersionV2 not found in internal/dbpack/v2.go"
      kill "$serve_pid" 2>/dev/null; exit 1; }
echo "$statsz" | grep -q "\"version\": *$packver[,}]" ||
    { echo "e2e FAILED: statsz pack version is not $packver"
      echo "$statsz"; kill "$serve_pid" 2>/dev/null; exit 1; }
kill -TERM "$serve_pid"
wait "$serve_pid" || { echo "e2e FAILED: serve exited non-zero after SIGTERM"
                       cat "$e2edir/serve.log"; exit 1; }
grep -q drained "$e2edir/serve.log" ||
    { echo "e2e FAILED: no drain on shutdown"; cat "$e2edir/serve.log"; exit 1; }
rm -rf "$e2edir"
echo "index/serve e2e ok"

echo "== benchmark smoke (1 iteration)"
go test -run '^$' -bench 'Kernel|Search|Serve|Pack' -benchtime 1x .

if [ "${SKIP_BENCHDIFF:-0}" = "1" ]; then
    echo "== benchdiff gate skipped (SKIP_BENCHDIFF=1)"
    exit 0
fi

count="${BENCH_COUNT:-5}"
maxregress="${BENCHDIFF_MAX_REGRESS:-5}"
echo "== benchmark regression gate (count=$count, max-regress=${maxregress}%)"
benchout=$(mktemp)
go test -run '^$' -bench 'Kernel|Search|Serve|Pack' -benchtime 1s -count "$count" . |
    tee "$benchout" |
    go run ./cmd/benchdiff -check -baseline baseline -max-regress "$maxregress"

echo "== pruning speedup gate (SearchDatabasePruned >= 1.5x unpruned)"
# Best value of a metric ($2, default cells/s) over the -count runs,
# same collapse rule as benchdiff.
best() {
    awk -v name="Benchmark$1" -v unit="${2:-cells/s}" '
        $1 ~ "^"name"(-[0-9]+)?$" {
            for (i = 2; i < NF; i++) if ($(i+1) == unit && $i > best) best = $i
        }
        END { if (best == "") exit 1; print best }' "$benchout"
}
pruned=$(best SearchDatabasePruned)
skewed=$(best SearchDatabaseSkewed)
uniform=$(best SearchDatabase)
echo "pruned $pruned cells/s vs skewed $skewed, uniform $uniform"
awk -v p="$pruned" -v s="$skewed" -v u="$uniform" 'BEGIN {
    if (p < 1.5 * s) { printf "pruning gate FAILED: %.2fx over skewed < 1.5x\n", p / s; exit 1 }
    if (p < 1.5 * u) { printf "pruning gate FAILED: %.2fx over uniform < 1.5x\n", p / u; exit 1 }
    printf "pruning gate ok: %.2fx over skewed, %.2fx over uniform\n", p / s, p / u
}'

echo "== dispatch routing gate (auto vs fixed routes)"
# On the uniform and skewed databases auto and fixed routing are a
# statistical tie (uniform routes identically; skewed trades an int8
# retry against feedback-driven int16 starts), so those pairs are
# parity checks: the floor is twice the benchdiff tolerance, wide
# enough for the ±7% run-to-run spread of two same-speed runs on a
# 1-core host but still tripped by any real routing regression. On the
# mixed database (saturating homologs + provably non-saturating noise)
# no single fixed route wins both halves, so auto must beat the best
# fixed route outright; that is the structural win routing exists to
# capture (≈1.15-1.3x on the dev host). The two fixed comparators are
# Dispatch "fixed" (the int8 ladder) and SearchDatabaseMixedLanes16, a
# router whose ForceGroup pins every group to the int16 route.
dauto=$(best SearchDatabaseDispatch)
dfixed=$(best SearchDatabaseFixed)
skewfixed=$(best SearchDatabaseSkewedFixed)
mixed=$(best SearchDatabaseMixed)
mixfixed=$(best SearchDatabaseMixedFixed)
mixlanes16=$(best SearchDatabaseMixedLanes16)
echo "uniform auto $dauto vs fixed $dfixed; skewed auto $skewed vs fixed $skewfixed"
echo "mixed auto $mixed vs fixed int8 $mixfixed, fixed int16 $mixlanes16"
awk -v tol="$maxregress" -v d="$dauto" -v f="$dfixed" \
    -v sa="$skewed" -v sf="$skewfixed" \
    -v m="$mixed" -v mf="$mixfixed" -v ml="$mixlanes16" 'BEGIN {
    floor = 1 - 2 * tol / 100
    if (d < floor * f)  { printf "dispatch gate FAILED: uniform auto at %.2fx of fixed (floor %.2fx)\n", d / f, floor; exit 1 }
    if (sa < floor * sf) { printf "dispatch gate FAILED: skewed auto at %.2fx of fixed (floor %.2fx)\n", sa / sf, floor; exit 1 }
    bf = (mf > ml) ? mf : ml
    if (m < bf) { printf "dispatch gate FAILED: mixed auto at %.2fx of best fixed route\n", m / bf; exit 1 }
    printf "dispatch gate ok: uniform %.2fx, skewed %.2fx, mixed %.2fx over best fixed\n", d / f, sa / sf, m / bf
}'

echo "== sharded scaling sanity gate (4-shard in-process >= single-node)"
# The distribution layer's wins come from adding hosts; on one host it
# must at least hold parity with the single-node scan on the uniform
# benchmark database. The floor is twice the benchdiff tolerance — the
# same same-speed-parity allowance the dispatch gate uses.
sharded=$(best SearchDatabaseSharded)
echo "sharded $sharded cells/s vs single-node $uniform"
awk -v tol="$maxregress" -v sh="$sharded" -v u="$uniform" 'BEGIN {
    floor = 1 - 2 * tol / 100
    if (sh < floor * u) { printf "scaling gate FAILED: 4-shard at %.2fx of single-node (floor %.2fx)\n", sh / u, floor; exit 1 }
    printf "scaling gate ok: 4-shard at %.2fx of single-node\n", sh / u
}'

echo "== serve batching gate (batched >= 1.5x sequential queries/s)"
# The shared-scan contract: one POST carrying 16 queries must amortize
# the per-request fixed costs (HTTP round trip, JSON, per-scan setup)
# into at least a 1.5x queries/s win over 16 sequential single-query
# POSTs of the same workload. The DP work per query is identical on
# both sides, so the ratio isolates exactly what the batching path
# exists to remove.
seqrate=$(best ServeQueryLatency queries/s)
batchrate=$(best ServeThroughputBatched queries/s)
echo "sequential $seqrate queries/s vs batched $batchrate queries/s"
awk -v s="$seqrate" -v b="$batchrate" 'BEGIN {
    if (b < 1.5 * s) { printf "serve gate FAILED: batched at %.2fx of sequential < 1.5x\n", b / s; exit 1 }
    printf "serve gate ok: batched %.2fx over sequential\n", b / s
}'

echo "== pack cold-start gate (v2 mmap >= 2x v1 decode)"
# The tentpole win of the v2 format: open-pack-and-answer-first-query
# must be at least twice as fast mmap'ing v2 as varint-decoding v1 of
# the same database. ns/op is a latency (lower is better), so collapse
# the -count runs with min, not the max the throughput gates use.
fastest() {
    awk -v name="Benchmark$1" '
        $1 ~ "^"name"(-[0-9]+)?$" {
            for (i = 2; i < NF; i++)
                if ($(i+1) == "ns/op" && (best == "" || $i < best)) best = $i
        }
        END { if (best == "") exit 1; print best }' "$benchout"
}
v1cold=$(fastest PackColdStartV1)
v2cold=$(fastest PackColdStartV2)
rm -f "$benchout"
echo "v1 cold start $v1cold ns/op vs v2 $v2cold ns/op"
awk -v a="$v1cold" -v b="$v2cold" 'BEGIN {
    if (a < 2.0 * b) { printf "cold-start gate FAILED: v2 only %.2fx faster than v1 < 2x\n", a / b; exit 1 }
    printf "cold-start gate ok: v2 %.2fx faster than v1\n", a / b
}'

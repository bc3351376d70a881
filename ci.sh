#!/bin/sh
# Tier-1 gate: full build + test suite, then a short bench smoke that
# exercises the parallel paths (domain pool, portfolio racing, sweep).
#
# OCAMLRUNPARAM s=8M (minor heap, in words) matters for the smoke: with
# the default minor heap, multi-domain runs spend most of their time in
# minor-GC stop-the-world synchronisation on small machines (measured
# ~4x on a 1-core container), which would push the smoke solves past
# their per-instance deadlines. See EXPERIMENTS.md (PARALLEL).
set -eu
cd "$(dirname "$0")"

# Scratch space for the smoke artifacts and the gates' output files: the
# committed BENCH_*.json baselines in the repo root are read, never
# rewritten, by this script.
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

echo "== dune build =="
dune build

echo "== dune runtest =="
dune runtest

echo "== bench smoke (parallel paths) =="
dune build bench/main.exe
OCAMLRUNPARAM="s=8M${OCAMLRUNPARAM:+,$OCAMLRUNPARAM}" \
  timeout 300 ./_build/default/bench/main.exe --smoke --json "$TMP/BENCH"

echo "== perf smoke guard (FIG1 wall clock) =="
# The smoke writes machine-readable per-section timings (BENCH_FIG1.json,
# BENCH_PARALLEL.json, under $TMP). Guard against gross LP hot-path
# regressions: the FIG1 smoke solves in well under a second on the CI
# container, so a 60 s ceiling only trips on gross slowdowns, never on
# machine jitter.
fig1_time=$(sed -n 's/.*"time_s": *\([0-9.eE+-]*\).*/\1/p' "$TMP/BENCH_FIG1.json")
echo "FIG1 smoke time: ${fig1_time}s (ceiling 60s)"
awk -v t="$fig1_time" 'BEGIN { exit !(t > 0 && t < 60.0) }' || {
  echo "FAIL: FIG1 smoke took ${fig1_time}s (ceiling 60s)"; exit 1; }

echo "== warm-start guard (WARMSTART pivots) =="
# The smoke's BENCH_WARMSTART.json records cold vs warm best-first B&B on
# the WATERS OBJ-DMAT instance. The warm run must land on the same
# objective with at least 25% fewer total simplex pivots.
ws_field() { # $1 = mode, $2 = field name
  tr '{' '\n' < "$TMP/BENCH_WARMSTART.json" \
    | grep '"instance":"waters-x1/OBJ-DMAT"' \
    | grep "\"mode\":\"$1\"" \
    | sed -n "s/.*\"$2\":\([0-9.eE+-]*\).*/\1/p"
}
cold_p=$(ws_field cold pivots); warm_p=$(ws_field warm pivots)
cold_o=$(ws_field cold obj);    warm_o=$(ws_field warm obj)
echo "warm-start: cold ${cold_p} pivots (obj ${cold_o}), warm ${warm_p} pivots (obj ${warm_o})"
[ -n "$cold_o" ] && [ "$cold_o" = "$warm_o" ] || {
  echo "FAIL: warm objective '${warm_o}' != cold objective '${cold_o}'"; exit 1; }
awk -v c="$cold_p" -v w="$warm_p" 'BEGIN { exit !(c > 0 && w <= 0.75 * c) }' || {
  echo "FAIL: warm pivots ${warm_p} not <= 75% of cold ${cold_p}"; exit 1; }

echo "== trace smoke (structured JSONL events) =="
# A tiny traced solve end-to-end, then validate every machine-readable
# artifact: the solve trace, the bench FIG1 trace, the smoke's fresh
# BENCH_*.json files and the committed BENCH_*.json baselines. trace-check
# parses each line/document with a strict JSON reader (NaN/Infinity are
# not JSON and are rejected) and checks per-domain timestamp monotonicity
# on .jsonl traces.
timeout 120 ./_build/default/bin/letdma_cli.exe solve \
  --time-limit 5 --jobs 1 --trace "$TMP/ci_trace.jsonl" >/dev/null
./_build/default/bin/letdma_cli.exe trace-check \
  "$TMP/ci_trace.jsonl" "$TMP/BENCH_FIG1_TRACE.jsonl" "$TMP"/BENCH_*.json \
  BENCH_*.json

echo "== chaos gate (checkpoint / interrupt / resume) =="
# Durable-solve round trip through the CLI: an uninterrupted baseline, a
# run killed mid-tree (exit 7, checkpoint left on disk), and a resume
# that must land on the exact same objective and cumulative node count.
# The instance (small generator workload, seed 5, OBJ-DMAT) certifies at
# the 1e-6 residual boundary, so `solve` exits 5 (certification) rather
# than 0 — the gate tolerates exactly that and compares the greppable
# solver lines instead.
CLI=./_build/default/bin/letdma_cli.exe
CK=$TMP/ci_chaos_ck.json
CHAOS="--workload small --seed 5 --objective dmat --time-limit 120"
$CLI solve $CHAOS --checkpoint "$CK" > "$TMP/ci_chaos_base.out" || [ $? -eq 5 ]
grep -q '^status: optimal$' "$TMP/ci_chaos_base.out" || {
  echo "FAIL: baseline durable solve not optimal"; exit 1; }
[ ! -f "$CK" ] || {
  echo "FAIL: conclusive solve left its checkpoint behind"; exit 1; }
$CLI solve $CHAOS --checkpoint "$CK" --interrupt-after 300 \
  > "$TMP/ci_chaos_int.out" && rc=0 || rc=$?
[ "$rc" -eq 7 ] || {
  echo "FAIL: interrupted solve exited $rc, want 7"; exit 1; }
[ -f "$CK" ] || { echo "FAIL: interrupt left no checkpoint"; exit 1; }
$CLI resume $CHAOS --checkpoint "$CK" > "$TMP/ci_chaos_res.out" || [ $? -eq 5 ]
grep -q '^status: optimal$' "$TMP/ci_chaos_res.out" || {
  echo "FAIL: resumed solve not optimal"; exit 1; }
base_obj=$(sed -n 's/^objective: //p' "$TMP/ci_chaos_base.out")
res_obj=$(sed -n 's/^objective: //p' "$TMP/ci_chaos_res.out")
base_nodes=$(sed -n 's/^nodes: //p' "$TMP/ci_chaos_base.out")
res_nodes=$(sed -n 's/^nodes: //p' "$TMP/ci_chaos_res.out")
echo "chaos gate: baseline obj ${base_obj} (${base_nodes} nodes), resumed obj ${res_obj} (${res_nodes} nodes)"
[ -n "$base_obj" ] && [ "$base_obj" = "$res_obj" ] || {
  echo "FAIL: resumed objective '${res_obj}' != baseline '${base_obj}'"; exit 1; }
[ -n "$base_nodes" ] && [ "$base_nodes" = "$res_nodes" ] || {
  echo "FAIL: resumed node count '${res_nodes}' != baseline '${base_nodes}'"; exit 1; }
[ ! -f "$CK" ] || {
  echo "FAIL: conclusive resume left its checkpoint behind"; exit 1; }

echo "== integral-objective proof (OBJ-DMAT bound rounded up) =="
# OBJ-DMAT counts DMA transfers, so every optimum is an integer and
# branch-and-bound may round each LP bound up before comparing it with
# the incumbent. On this generator draw the root bound already rounds up
# to the heuristic warm start's value: the search must prove it at the
# root (it took 1517 nodes on the raw bound). Deterministic at jobs 1.
timeout 120 $CLI solve --workload small --seed 939499556 --alpha 0.3 \
  --objective dmat --time-limit 30 --jobs 1 --stats \
  > "$TMP/ci_integral.out" || {
    echo "FAIL: integral-objective solve exited $?"; exit 1; }
integral_stats=$(grep '^solver stats:' "$TMP/ci_integral.out" || true)
echo "integral-objective proof: ${integral_stats}"
case "$integral_stats" in
  *" status=optimal "*" nodes=1 "*) ;;
  *) echo "FAIL: want status=optimal and nodes=1 on the solver stats line"
     exit 1 ;;
esac

echo "== pipeline smoke (sequential ladder at jobs 2) =="
# The degradation ladder on WATERS NO-OBJ with a 2-wide portfolio per
# MILP rung: the primary rung must be accepted on its own, so the
# outcome lists exactly one indented attempt line ("  rung: reason [Ts]").
OCAMLRUNPARAM="s=8M${OCAMLRUNPARAM:+,$OCAMLRUNPARAM}" \
  timeout 120 $CLI pipeline --objective no-obj --jobs 2 --budget 30 \
  > "$TMP/ci_pipeline.out" || {
    echo "FAIL: pipeline exited $? (want 0)"; cat "$TMP/ci_pipeline.out"; exit 1; }
head -n 1 "$TMP/ci_pipeline.out" | grep -q '^accepted milp solution' || {
  echo "FAIL: pipeline did not accept the primary MILP rung:"
  cat "$TMP/ci_pipeline.out"; exit 1; }
attempt_lines=$(grep -c '^  [a-z-]*: .* \[[0-9.]*s\]$' "$TMP/ci_pipeline.out" || true)
echo "pipeline smoke: $(head -n 1 "$TMP/ci_pipeline.out"), ${attempt_lines} attempt line(s)"
[ "$attempt_lines" -eq 1 ] || {
  echo "FAIL: want exactly one attempt line:"; cat "$TMP/ci_pipeline.out"; exit 1; }

echo "== service smoke (daemon, cache hit, malformed request) =="
# One daemon session over stdin/stdout: the same solve twice, one
# malformed request, then EOF. The daemon must answer all three lines
# (malformed -> structured error, not a crash), the second solve must be
# answered from the cache with a byte-identical %.17g objective, and the
# drained EOF shutdown must exit 0.
printf '%s\n' \
  '{"id":"s1","op":"solve","workload":"small","seed":7,"deadline_s":120,"class":"gold"}' \
  '{"id":"s2","op":"solve","workload":"small","seed":7,"deadline_s":120,"class":"gold"}' \
  '{"id":"s3","op":"solve","oops":true}' \
  | timeout 200 $CLI serve --jobs 1 > "$TMP/ci_service.out" || {
    echo "FAIL: serve exited $? (want 0 after EOF drain)"; exit 1; }
[ "$(wc -l < "$TMP/ci_service.out")" -eq 3 ] || {
  echo "FAIL: expected 3 responses, got:"; cat "$TMP/ci_service.out"; exit 1; }
grep -q '"id":"s2".*"cache":"hit"' "$TMP/ci_service.out" || {
  echo "FAIL: repeated solve was not a cache hit"; cat "$TMP/ci_service.out"; exit 1; }
s1_core=$(sed -n 's/.*"id":"s1".*\("tier".*\)/\1/p' "$TMP/ci_service.out")
s2_core=$(sed -n 's/.*"id":"s2".*\("tier".*\)/\1/p' "$TMP/ci_service.out")
echo "service smoke: cached core ${s2_core}"
[ -n "$s1_core" ] && [ "$s1_core" = "$s2_core" ] || {
  echo "FAIL: cache hit not byte-identical:"; cat "$TMP/ci_service.out"; exit 1; }
grep -q '"id":"s3","status":"error"' "$TMP/ci_service.out" || {
  echo "FAIL: malformed request did not get a structured error"; cat "$TMP/ci_service.out"; exit 1; }

echo "== ci.sh: all green =="

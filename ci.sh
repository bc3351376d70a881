#!/bin/sh
# Tier-1 gate: full build + test suite, then the layer ledger (perfbench
# work counters against the committed BENCH_LAYERS.json) and the CLI
# gates.
set -eu
cd "$(dirname "$0")"

# Scratch space for the gates' output files: the committed
# BENCH_LAYERS.json ledger is read, never rewritten, by this script.
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

echo "== dune build =="
dune build

echo "== dune runtest =="
dune runtest

echo "== layer ledger (perfbench counters vs BENCH_LAYERS.json) =="
# One traced perfbench run per batch workload. A run must exit 0, so its
# own output checks (certified plans, lambda <= gamma, traced runs
# repeating untraced ones) and its span trace's trace-check pass too.
# The work counters it reports repeat exactly at jobs 1, so each must
# equal the ledger's value. Timings are printed, not gated: they swing
# 25-45 % from run to run on a shared host. After a deliberate change
# to the solver's work, replace BENCH_LAYERS.json with the ledger that a
# failing run prints.
for w in waters-table1 dse-batch; do
  python3 perfbench/run.py --workload "$w" --seed 3 --seconds 20 --trace 1 \
    > "$TMP/ledger-$w.out" || {
      rc=$?; tail -n 20 "$TMP/ledger-$w.out"
      echo "FAIL: perfbench $w exited $rc (want 0)"; exit 1; }
done
python3 - "$TMP" <<'PY'
import json, sys
tmp = sys.argv[1]
with open("BENCH_LAYERS.json") as f:
    ledger = json.load(f)
fresh = dict(ledger, counters={})
bad = []
for w, want in ledger["counters"].items():
    with open(f"{tmp}/ledger-{w}.out") as f:
        lines = f.read().splitlines()
    got = {k: m["value"] for k, m in json.loads(lines[-1])["metrics"].items()}
    env = json.loads(next(l for l in lines if l.startswith("env: "))[5:])
    fresh.update(nproc=int(env["nproc"]), ocaml=env["ocaml"], commit=env["commit"])
    fresh["counters"][w] = {k: got.get(k) for k in want}
    bad += [f"{w} {k}: ledger {v!r}, run {got.get(k)!r}"
            for k, v in want.items() if got.get(k) != v]
    print(f"ledger {w}: {len(want)} counters checked; "
          f"lp.s {got['lp.s']:.3g} s, lp.us_per_pivot {got['lp.us_per_pivot']:.3g} us (not gated)")
if bad:
    print("\n".join("FAIL: " + b for b in bad))
    print("this run's values in ledger form:")
    print(json.dumps(fresh, indent=2))
    sys.exit(1)
PY

echo "== trace smoke (structured JSONL events) =="
# A tiny traced solve end-to-end, then validate the solve trace and the
# committed ledger, each by name. trace-check parses each line/document
# with a strict JSON reader (NaN/Infinity are not JSON and are rejected)
# and checks per-domain timestamp monotonicity on .jsonl traces.
timeout 120 ./_build/default/bin/letdma_cli.exe solve \
  --time-limit 5 --trace "$TMP/ci_trace.jsonl" >/dev/null
./_build/default/bin/letdma_cli.exe trace-check \
  "$TMP/ci_trace.jsonl" BENCH_LAYERS.json

echo "== chaos gate (checkpoint / interrupt / resume) =="
# Durable-solve round trip through the CLI: an uninterrupted baseline, a
# run killed mid-tree (exit 7, checkpoint left on disk), a corrupted copy
# of that checkpoint that resume must refuse (exit 1), and a resume that
# must land on the exact same objective and cumulative node count.
# The instance is the small generator workload, seed 8, OBJ-DMAT: 1895
# nodes from its MIP start to optimality. Both conclusive runs must
# certify their plan (exit 0).
CLI=./_build/default/bin/letdma_cli.exe
CK=$TMP/ci_chaos_ck.json
CHAOS="--workload small --seed 8 --objective dmat --time-limit 120"
$CLI solve $CHAOS --checkpoint "$CK" > "$TMP/ci_chaos_base.out" || {
  echo "FAIL: baseline durable solve exited $? (want 0)"; exit 1; }
grep -q '^status: optimal$' "$TMP/ci_chaos_base.out" || {
  echo "FAIL: baseline durable solve not optimal"; exit 1; }
[ ! -f "$CK" ] || {
  echo "FAIL: conclusive solve left its checkpoint behind"; exit 1; }
$CLI solve $CHAOS --checkpoint "$CK" --interrupt-after 300 \
  > "$TMP/ci_chaos_int.out" && rc=0 || rc=$?
[ "$rc" -eq 7 ] || {
  echo "FAIL: interrupted solve exited $rc, want 7"; exit 1; }
[ -f "$CK" ] || { echo "FAIL: interrupt left no checkpoint"; exit 1; }
# A corrupted copy (first pool row entry naming a variable far beyond
# its basis's own count) must be refused with a structured one-line
# error and exit 1, never a crash.
python3 - "$CK" "$TMP/ci_chaos_bad.json" <<'PY'
import json, sys
with open(sys.argv[1]) as f:
    ck = json.load(f)
ck["state"]["pool"][0][1]["rows"][0] = "v99999999"
with open(sys.argv[2], "w") as f:
    json.dump(ck, f)
PY
$CLI resume $CHAOS --checkpoint "$TMP/ci_chaos_bad.json" \
  > "$TMP/ci_chaos_bad.out" 2>&1 && rc=0 || rc=$?
echo "chaos gate: corrupted checkpoint: exit $rc, $(tail -n 1 "$TMP/ci_chaos_bad.out")"
[ "$rc" -eq 1 ] && grep -q '^letdma: error: ' "$TMP/ci_chaos_bad.out" || {
  echo "FAIL: resume of a corrupted checkpoint exited $rc, want 1 with a 'letdma: error:' line"
  exit 1; }
$CLI resume $CHAOS --checkpoint "$CK" > "$TMP/ci_chaos_res.out" || {
  echo "FAIL: resumed solve exited $? (want 0)"; exit 1; }
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

echo "== integral-objective proof (OBJ-DMAT floor proves the warm start) =="
# OBJ-DMAT counts DMA transfers, and a transfer carries one (core,
# direction) class, so the model's structure alone bounds it below by
# classes - 1. On this generator draw the heuristic warm start meets
# that floor: the solve must prove it before any LP, with 0 nodes (the
# rounded root LP bound proved it in 1 node; the raw bound took 1517).
# Deterministic: every solve is one sequential search.
timeout 120 $CLI solve --workload small --seed 939499556 --alpha 0.3 \
  --objective dmat --time-limit 30 --stats \
  > "$TMP/ci_integral.out" || {
    echo "FAIL: integral-objective solve exited $?"; exit 1; }
integral_stats=$(grep '^solver stats:' "$TMP/ci_integral.out" || true)
echo "integral-objective proof: ${integral_stats}"
case "$integral_stats" in
  *" status=optimal "*" nodes=0 "*) ;;
  *) echo "FAIL: want status=optimal and nodes=0 on the solver stats line"
     exit 1 ;;
esac

echo "== pipeline smoke (sequential ladder) =="
# The degradation ladder on WATERS NO-OBJ: the primary rung must be
# accepted on its own, so the outcome lists exactly one indented attempt
# line ("  rung: reason [Ts]").
timeout 120 $CLI pipeline --objective no-obj --budget 30 \
  > "$TMP/ci_pipeline.out" || {
    echo "FAIL: pipeline exited $? (want 0)"; cat "$TMP/ci_pipeline.out"; exit 1; }
head -n 1 "$TMP/ci_pipeline.out" | grep -q '^accepted milp solution' || {
  echo "FAIL: pipeline did not accept the primary MILP rung:"
  cat "$TMP/ci_pipeline.out"; exit 1; }
attempt_lines=$(grep -c '^  [a-z-]*: .* \[[0-9.]*s\]$' "$TMP/ci_pipeline.out" || true)
echo "pipeline smoke: $(head -n 1 "$TMP/ci_pipeline.out"), ${attempt_lines} attempt line(s)"
[ "$attempt_lines" -eq 1 ] || {
  echo "FAIL: want exactly one attempt line:"; cat "$TMP/ci_pipeline.out"; exit 1; }

echo "== pipeline OBJ-DMAT (warm start matches solve) =="
# The ladder's MILP rung gets the MIP start `solve` uses: the grouped
# heuristic plan for OBJ-DMAT. On WATERS at a 10 s budget the rung must
# be accepted with at most 16 transfers (a per-task start gives 18).
timeout 120 $CLI pipeline --objective dmat --budget 10 \
  > "$TMP/ci_pipeline_dmat.out" || {
    echo "FAIL: pipeline exited $? (want 0)"; cat "$TMP/ci_pipeline_dmat.out"; exit 1; }
dmat_head=$(head -n 1 "$TMP/ci_pipeline_dmat.out")
dmat_transfers=$(echo "$dmat_head" | sed -n 's/^accepted milp solution .*(\([0-9]*\) transfers)$/\1/p')
echo "pipeline OBJ-DMAT: ${dmat_head}"
[ -n "$dmat_transfers" ] && [ "$dmat_transfers" -le 16 ] || {
  echo "FAIL: want an accepted milp solution with at most 16 transfers:"
  cat "$TMP/ci_pipeline_dmat.out"; exit 1; }

echo "== service smoke (daemon, cache hit, malformed request, plan seed, unknown op) =="
# One daemon session over stdin/stdout: the same solve twice, one
# malformed request, an alpha sibling of the first solve, a crash line,
# then EOF. The daemon must answer all five lines (malformed -> structured
# error, not a crash), the first solve, a cache miss, must prove the
# heuristic MIP start with no node, certified, the second solve must be
# answered from the cache with a byte-identical %.17g objective, the
# sibling must start from the first solve's plan and prove it optimal
# with no node, certified, the crash line must be refused as an unknown
# op (no client can kill a worker domain), and the drained EOF shutdown
# must exit 0.
printf '%s\n' \
  '{"id":"s1","op":"solve","workload":"small","seed":7,"deadline_s":120,"class":"gold"}' \
  '{"id":"s2","op":"solve","workload":"small","seed":7,"deadline_s":120,"class":"gold"}' \
  '{"id":"s3","op":"solve","oops":true}' \
  '{"id":"s4","op":"solve","workload":"small","seed":7,"alpha":0.25,"deadline_s":120,"class":"gold"}' \
  '{"id":"s5","op":"crash","times":1}' \
  | timeout 200 $CLI serve --jobs 1 > "$TMP/ci_service.out" || {
    echo "FAIL: serve exited $? (want 0 after EOF drain)"; exit 1; }
[ "$(wc -l < "$TMP/ci_service.out")" -eq 5 ] || {
  echo "FAIL: expected 5 responses, got:"; cat "$TMP/ci_service.out"; exit 1; }
s1=$(grep '"id":"s1"' "$TMP/ci_service.out")
echo "service smoke: first solve ${s1}"
case "$s1" in *'"cache":"miss"'*'"nodes":0,'*'"certified":true'*) ;; *)
  echo "FAIL: first solve not a miss proved from its start with 0 nodes, certified:"
  cat "$TMP/ci_service.out"; exit 1 ;; esac
grep -q '"id":"s2".*"cache":"hit"' "$TMP/ci_service.out" || {
  echo "FAIL: repeated solve was not a cache hit"; cat "$TMP/ci_service.out"; exit 1; }
s1_core=$(sed -n 's/.*"id":"s1".*\("tier".*\)/\1/p' "$TMP/ci_service.out")
s2_core=$(sed -n 's/.*"id":"s2".*\("tier".*\)/\1/p' "$TMP/ci_service.out")
echo "service smoke: cached core ${s2_core}"
[ -n "$s1_core" ] && [ "$s1_core" = "$s2_core" ] || {
  echo "FAIL: cache hit not byte-identical:"; cat "$TMP/ci_service.out"; exit 1; }
grep -q '"id":"s3","status":"error"' "$TMP/ci_service.out" || {
  echo "FAIL: malformed request did not get a structured error"; cat "$TMP/ci_service.out"; exit 1; }
s4=$(grep '"id":"s4"' "$TMP/ci_service.out")
echo "service smoke: alpha sibling ${s4}"
case "$s4" in *'"cache":"warm"'*'"nodes":0,'*'"certified":true'*) ;; *)
  echo "FAIL: alpha sibling not answered warm from its sibling's plan with 0 nodes, certified:"
  cat "$TMP/ci_service.out"; exit 1 ;; esac
s5=$(grep '"id":"s5"' "$TMP/ci_service.out")
echo "service smoke: crash line ${s5}"
case "$s5" in *'"status":"error"'*'expected solve/stats'*) ;; *)
  echo "FAIL: crash line not refused as an unknown op:"
  cat "$TMP/ci_service.out"; exit 1 ;; esac

echo "== ci.sh: all green =="

#!/bin/sh
# Endurance smoke for nfsmon.
#
# Phase 1: soak against a paced simulated feed with the metrics socket
#   up — scrape /metrics and /json while it runs, hold VmHWM under a
#   fixed ceiling, then SIGTERM and require a clean (conserved) exit.
# Phase 2: kill -9 / restore against a tailed trace — run over a prefix
#   with aggressive checkpointing, kill -9 at the checkpoint, append
#   the rest of the trace, restart, and require the restored run to
#   report exactly the same total ingested count as an uninterrupted
#   reference run (zero uncounted record loss).
set -eu

NFSMON=${NFSMON:-_build/default/bin/nfsmon.exe}
NFSWLGEN=${NFSWLGEN:-_build/default/bin/nfswlgen.exe}
PORT=${SMOKE_PORT:-9464}
RSS_CEILING_KB=${RSS_CEILING_KB:-262144} # 256 MB

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

fail() {
  echo "endurance_smoke: FAIL: $1" >&2
  exit 1
}

last_ingested() {
  # health.ingested of the last JSON report in a file
  grep -o '"ingested":[0-9]*' "$1" | tail -1 | cut -d: -f2
}

echo "== phase 1: paced sim soak, live scrape, RSS ceiling, clean shutdown"
"$NFSMON" sim:campus --sim-stop 900 --speedup 30 --json --window 10 \
  --listen "127.0.0.1:$PORT" >"$WORK/sim.out" 2>"$WORK/sim.err" &
PID=$!
sleep 2
kill -0 "$PID" 2>/dev/null || { cat "$WORK/sim.err" >&2; fail "monitor died early"; }

curl -sf "http://127.0.0.1:$PORT/metrics" >"$WORK/metrics.txt" \
  || fail "/metrics scrape failed"
grep -q '^mon_ingested ' "$WORK/metrics.txt" || fail "mon_ingested series missing"
grep -q '^mon_evictions{' "$WORK/metrics.txt" || fail "mon_evictions series missing"
curl -sf "http://127.0.0.1:$PORT/json" | grep -q '"mon.ingested"' \
  || fail "/json scrape failed"

# /series mid-run: the resource sampler's ring must be bounded, its
# timestamps monotone, and every mon component must account non-zero
# state-footprint words.
curl -sf "http://127.0.0.1:$PORT/series" >"$WORK/series.json" \
  || fail "/series scrape failed"
SERIES=$(python3 -c '
import json, sys
d = json.load(open(sys.argv[1]))
def check(ok, why):
    if not ok:
        sys.exit(why)
check(d.get("schema") == "nt_obs_series/1", "/series schema tag missing")
samples, cap = d["samples"], d["cap"]
check(len(samples) >= 1, "/series has no samples")
check(len(samples) <= cap, "/series ring unbounded: %d samples over cap %d" % (len(samples), cap))
ats = [float(s["at"]) for s in samples]
check(all(a <= b for a, b in zip(ats, ats[1:])), "/series timestamps not monotone")
for comp in ("mon.ring", "mon.outstanding", "mon.ingest"):
    check(d["footprint"].get(comp, {}).get("words", 0) > 0,
          "footprint for %s missing or zero words" % comp)
print(len(samples), cap)
' "$WORK/series.json") || fail "/series check failed"
SAMPLES=${SERIES% *}
CAP=${SERIES#* }
echo "   /series: $SAMPLES samples (cap $CAP), footprints live"
grep -q 'nt_state_words{component="mon_ring"}\|nt_state_words{component="mon.ring"}' \
  "$WORK/metrics.txt" \
  || { curl -sf "http://127.0.0.1:$PORT/metrics" \
         | grep -q 'nt_state_words' || fail "nt_state_words gauges never exported"; }

VMHWM=$(awk '/VmHWM/ {print $2}' "/proc/$PID/status")
[ "$VMHWM" -le "$RSS_CEILING_KB" ] \
  || fail "VmHWM ${VMHWM}kB over ceiling ${RSS_CEILING_KB}kB"
echo "   VmHWM ${VMHWM}kB (ceiling ${RSS_CEILING_KB}kB)"

kill -TERM "$PID"
wait "$PID" || fail "SIGTERM shutdown exited non-zero (conservation?)"
grep -q '"schema":"nfsmon-report/1"' "$WORK/sim.out" || fail "no reports emitted"

echo "== phase 2: kill -9 mid-tail, restore, stable counts"
"$NFSWLGEN" --system campus --users 25 --hours 0.5 -o "$WORK/soak.trace" \
  2>/dev/null
TOTAL_LINES=$(wc -l <"$WORK/soak.trace")
PREFIX=$((TOTAL_LINES * 3 / 5))

# Uninterrupted reference over the whole trace.
"$NFSMON" "trace:$WORK/soak.trace" --json --window 60 --report-every 5 \
  --idle-exit 3 >"$WORK/ref.out" 2>/dev/null \
  || fail "reference run exited non-zero"
REF=$(last_ingested "$WORK/ref.out")
[ -n "$REF" ] && [ "$REF" -gt 0 ] || fail "reference run reported nothing"

# Interrupted run: tail a prefix, checkpoint every step, kill -9.
head -n "$PREFIX" "$WORK/soak.trace" >"$WORK/live.trace"
"$NFSMON" "trace:$WORK/live.trace" --json --window 60 --report-every 5 \
  --checkpoint "$WORK/mon.ckpt" --checkpoint-every 0 \
  >"$WORK/b1.out" 2>/dev/null &
B1=$!
# The checkpoint's first line is its JSON document.
ckpt_progress() {
  python3 -c 'import json, sys
with open(sys.argv[1]) as f:
    doc = json.loads(f.readline())
sys.exit(0 if doc["counters"]["ingested"] > 0 else 1)' "$WORK/mon.ckpt" 2>/dev/null
}
for _ in $(seq 1 100); do
  if ckpt_progress; then break; fi
  sleep 0.1
done
ckpt_progress || fail "no checkpoint with progress appeared"
kill -9 "$B1"
wait "$B1" 2>/dev/null || true

# The writer finishes the file; the restored monitor replays the rest.
tail -n +"$((PREFIX + 1))" "$WORK/soak.trace" >>"$WORK/live.trace"
"$NFSMON" "trace:$WORK/live.trace" --json --window 60 --report-every 5 \
  --checkpoint "$WORK/mon.ckpt" --checkpoint-every 0 --idle-exit 3 \
  >"$WORK/b2.out" 2>"$WORK/b2.err" \
  || fail "restored run exited non-zero (conservation?)"
grep -q 'restored from checkpoint' "$WORK/b2.err" || fail "restore did not engage"
GOT=$(last_ingested "$WORK/b2.out")
[ "$GOT" = "$REF" ] \
  || fail "restored run ingested $GOT, reference ingested $REF"
echo "   restored run conserved all $GOT records across kill -9"

echo "endurance_smoke: PASS"

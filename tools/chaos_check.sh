#!/usr/bin/env sh
# Chaos acceptance check for pcm::shard, the crash-tolerant multi-process
# sweep runner. The generalisation of kill_resume_check.sh from "one process,
# one kill" to "many workers, a seeded kill schedule, plus a supervisor kill".
#
# Three phases against the same bench binary:
#
#   1. Reference: an uninterrupted --jobs=1 in-process sweep.
#   2. Worker chaos: the same sweep with --shard-workers=N under a seeded
#      PCM_PROCESS_CHAOS kill schedule — several workers are SIGKILLed
#      mid-sweep (each strictly after journalling at least one cell); the
#      supervisor must restart them, reassign their unfinished cells, and
#      complete. The CSV must be byte-identical to the reference.
#   3. Supervisor kill + resume: a fresh checkpointed sharded run is
#      SIGKILLed (workers die with it via their heartbeat pipes) as soon as
#      its journals show progress, then resumed with --resume; the resumed
#      CSV must again match the reference byte-for-byte.
#
# A phase-3 sweep that finishes before the kill lands still exercises the
# full-resume path and must still reproduce the reference bytes.
#
# Usage: tools/chaos_check.sh <bench-binary> [trials] [workers]
#   e.g. tools/chaos_check.sh build/bench/fig11_bitonic_bpram_gcel 60 4

set -eu

BENCH="${1:?usage: $0 <bench-binary> [trials] [workers]}"
TRIALS="${2:-60}"
WORKERS="${3:-4}"
EXPERIMENT="$(basename "$BENCH" | cut -d_ -f1)"

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT INT TERM
mkdir -p "$WORK/ref" "$WORK/chaos" "$WORK/killed" "$WORK/resumed"

# A journal record line: "<fnv16> cell ..." (the checksummed v2 format).
RECORD='^[0-9a-f]{16} cell '

echo "== reference run (in-process, uninterrupted)"
PCM_RESULTS_DIR="$WORK/ref" "$BENCH" --trials="$TRIALS" --jobs=1 >/dev/null

echo "== sharded run under a seeded worker-kill schedule"
# kill=0.6 over the first 6 spawn ordinals: with $WORKERS initial workers a
# majority of early incarnations die mid-sweep and must be replaced. The
# schedule is a pure function of the seed, so failures reproduce exactly.
PCM_PROCESS_CHAOS="seed=7:kill=0.6:max=6" \
PCM_RESULTS_DIR="$WORK/chaos" \
  "$BENCH" --trials="$TRIALS" --shard-workers="$WORKERS" >/dev/null

REF_CSV="$WORK/ref/$EXPERIMENT.csv"
CHAOS_CSV="$WORK/chaos/$EXPERIMENT.csv"
if [ ! -f "$REF_CSV" ] || [ ! -f "$CHAOS_CSV" ]; then
  echo "FAIL: missing CSV output ($REF_CSV / $CHAOS_CSV)" >&2
  exit 1
fi
if ! cmp -s "$REF_CSV" "$CHAOS_CSV"; then
  echo "FAIL: chaos-sharded CSV differs from the in-process reference:" >&2
  diff "$REF_CSV" "$CHAOS_CSV" >&2 || true
  exit 1
fi
echo "   OK: worker kills left the output byte-identical"

echo "== sharded checkpointed run, SIGKILL the supervisor mid-sweep"
PCM_RESULTS_DIR="$WORK/killed" "$BENCH" --trials="$TRIALS" \
    --shard-workers="$WORKERS" --checkpoint="$WORK/journal" >/dev/null 2>&1 &
PID=$!

KILLED=0
i=0
while [ "$i" -lt 2000 ]; do
  # Progress shows up in the workers' shard journals first; the base
  # journal holds only its header until the supervisor merges.
  if grep -Eq "$RECORD" "$WORK/journal"/*.journal* 2>/dev/null; then
    if kill -KILL "$PID" 2>/dev/null; then
      KILLED=1
    fi
    break
  fi
  if ! kill -0 "$PID" 2>/dev/null; then
    break  # finished before we could kill it; resume still gets tested
  fi
  sleep 0.01
  i=$((i + 1))
done
wait "$PID" 2>/dev/null || true

DONE_BEFORE="$(cat "$WORK/journal"/*.journal* 2>/dev/null \
                 | grep -Ec "$RECORD" || true)"
if [ "$KILLED" -eq 1 ]; then
  echo "   killed the supervisor with $DONE_BEFORE cells journalled"
else
  echo "   sweep finished before the kill ($DONE_BEFORE cells journalled);"
  echo "   continuing — resume must still reproduce the reference bytes"
fi

echo "== resume the sharded sweep from base + shard journals"
PCM_RESULTS_DIR="$WORK/resumed" "$BENCH" --trials="$TRIALS" \
    --shard-workers="$WORKERS" --checkpoint="$WORK/journal" --resume >/dev/null

RES_CSV="$WORK/resumed/$EXPERIMENT.csv"
if [ ! -f "$RES_CSV" ]; then
  echo "FAIL: missing resumed CSV output ($RES_CSV)" >&2
  exit 1
fi
if ! cmp -s "$REF_CSV" "$RES_CSV"; then
  echo "FAIL: resumed sharded CSV differs from the reference:" >&2
  diff "$REF_CSV" "$RES_CSV" >&2 || true
  exit 1
fi
echo "OK: sharded execution is byte-identical under worker chaos and supervisor kill+resume"

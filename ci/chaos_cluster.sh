#!/usr/bin/env bash
# Chaos drill for the cluster: the gateway and workers run under real
# fault injection (kill -9, chaostransport partitions and latency) and
# must not lose a single job.
#
# Part 1 — crash handoff answered from the replica: gateway + 3 workers,
#   a batch of finished jobs replicated to ring successors, then kill -9
#   of a job-owning worker. The gateway re-dispatches that worker's jobs
#   to the ring successor, which must answer them from the replica it
#   holds: every job done through the gateway (the victim's with
#   handoffs >= 1), the survivors' temprivd_runs_total unchanged (zero
#   recompute), their tempriv_cluster_peer_served_total at least the
#   victim's job count, and bytes identical to a standalone single-node
#   run. The first submit waits until every worker has applied the
#   gateway's membership epoch: a worker learns the membership on its
#   next heartbeat, and a result it finishes before then is replicated
#   under the stale ring, to a worker that may not own the job after the
#   crash.
#
# Part 2 — partition + latency: a fresh cluster where the gateway's
#   transport cannot reach one worker at all (partition) and sees 200ms
#   added to every request to another (latency). Every submission must
#   still complete (zero lost), the partitioned worker must be ejected,
#   and every result read through the gateway must succeed.
#
# Part 3 — total partition: a 1-worker cluster whose only worker is
#   unreachable from the gateway. After the error-rate breaker ejects
#   it, the next submission must be shed at the gateway with 503 +
#   Retry-After, not burned against a worker the gateway knows is gone.
#
# Env: TEMPRIVD/TEMPRIVGW (prebuilt binaries; otherwise built).
set -euo pipefail
cd "$(dirname "$0")/.."

if [ -z "${TEMPRIVD:-}" ]; then
  go build -o /tmp/chaos_temprivd ./cmd/temprivd
  TEMPRIVD=/tmp/chaos_temprivd
fi
if [ -z "${TEMPRIVGW:-}" ]; then
  go build -o /tmp/chaos_temprivgw ./cmd/temprivgw
  TEMPRIVGW=/tmp/chaos_temprivgw
fi

PIDS=()
cleanup() {
  for p in "${PIDS[@]:-}"; do kill -9 "$p" 2>/dev/null || true; done
  wait 2>/dev/null || true
}
trap cleanup EXIT

field() { python3 -c "import sys,json; print(json.load(sys.stdin).get('$1') or '')"; }
submit() { curl -sf "$1/v1/jobs" -d "$2"; }
await() { # $1 = base URL, $2 = job id, [$3 = extra field that must be truthy]
  for i in $(seq 1 600); do
    SNAP=$(curl -s "$1/v1/jobs/$2")
    STATE=$(echo "$SNAP" | field state || true)
    case "$STATE" in failed|canceled) echo "job $2 $STATE" >&2; return 1;; esac
    if [ "$STATE" = done ]; then
      [ -z "${3:-}" ] && return 0
      [ -n "$(echo "$SNAP" | field "$3")" ] && return 0
    fi
    sleep 0.1
  done
  echo "job $2 never reached done${3:+ with $3}" >&2
  return 1
}
wait_workers() { # $1 = gateway URL, $2 = expected count
  local N=0
  for i in $(seq 1 100); do
    N=$(curl -sf "$1/v1/cluster" | python3 -c 'import sys,json; print(len(json.load(sys.stdin)["workers"]))' 2>/dev/null || echo 0)
    [ "$N" = "$2" ] && return 0
    sleep 0.2
  done
  echo "only $N/$2 workers registered on $1" >&2
  return 1
}
metric() { # $1 = base URL, $2 = metric name -> value (0 when absent)
  curl -sf "$1/metrics" | awk -v m="$2" '$1 == m {print $2; found=1} END {if (!found) print 0}'
}
wait_epoch() { # $1 = gateway URL, $2... = worker URLs
  local GW=$1 EPOCH
  shift
  EPOCH=$(curl -sf "$GW/v1/cluster" | python3 -c 'import sys,json; print(json.load(sys.stdin)["epoch"])')
  for u in "$@"; do
    for i in $(seq 1 100); do
      [ "$(metric "$u" tempriv_cluster_epoch)" -ge "$EPOCH" ] && continue 2
      sleep 0.1
    done
    echo "$u never applied membership epoch $EPOCH" >&2
    return 1
  done
}
spec() { echo '{"version":1,"experiment":{"id":"fig2a","packets":200,"interarrivals":[2,10,20],"seed":'"$1"'}}'; }

echo "=== part 1: kill -9, handoff answered from the replica ==="
GW1=http://localhost:7370
"$TEMPRIVGW" -addr localhost:7370 -lease-ttl 2s -reconcile-every 500ms -log-level warn &
PIDS+=("$!")
declare -A WPID
for i in 1 2 3; do
  "$TEMPRIVD" -addr "localhost:$((7370 + i))" -workers 2 -log-level warn \
    -cluster-registry $GW1 -cluster-id "w$i" -cluster-url "http://127.0.0.1:$((7370 + i))" &
  WPID[w$i]=$!
  PIDS+=("$!")
done
"$TEMPRIVD" -addr localhost:7399 -workers 2 -log-level warn &
SOLO=$!
PIDS+=("$SOLO")
wait_workers $GW1 3
wait_epoch $GW1 http://localhost:7371 http://localhost:7372 http://localhost:7373
for i in $(seq 1 50); do curl -sf localhost:7399/readyz >/dev/null && break; sleep 0.2; done

declare -A OWNER SEEDOF
IDS=()
for s in 1 2 3 4 5 6; do
  SNAP=$(submit $GW1 "$(spec "$s")")
  ID=$(echo "$SNAP" | field id)
  OWNER[$ID]=$(echo "$SNAP" | field worker)
  SEEDOF[$ID]=$s
  IDS+=("$ID")
  await $GW1 "$ID"
done

# Every finished job must be replicated to its ring successor before the
# crash — otherwise the handoff test races the write-behind queue.
REP=0
for i in $(seq 1 100); do
  REP=0
  for p in 7371 7372 7373; do
    R=$(metric "http://localhost:$p" tempriv_cluster_peer_replicated_total)
    REP=$((REP + R))
  done
  [ "$REP" -ge 6 ] && break
  sleep 0.2
done
[ "$REP" -ge 6 ] || { echo "only $REP/6 results replicated to peers" >&2; exit 1; }

VICTIMID=${IDS[0]}
VICTIM=${OWNER[$VICTIMID]}
SURVIVORS=()
for p in 7371 7372 7373; do
  [ "w$((p - 7370))" = "$VICTIM" ] || SURVIVORS+=("$p")
done
runs() { # total engine runs across the survivors
  local N=0
  for p in "${SURVIVORS[@]}"; do N=$((N + $(metric "http://localhost:$p" temprivd_runs_total))); done
  echo "$N"
}
RUNS_BEFORE=$(runs)
kill -9 "${WPID[$VICTIM]}"
wait "${WPID[$VICTIM]}" 2>/dev/null || true
echo "killed $VICTIM (owner of job $VICTIMID)"

# Every job reaches done through the gateway; the victim's jobs only
# after the lease expires and the reconcile loop hands them off.
VICTIM_JOBS=0
for ID in "${IDS[@]}"; do
  if [ "${OWNER[$ID]}" = "$VICTIM" ]; then
    VICTIM_JOBS=$((VICTIM_JOBS + 1))
    await $GW1 "$ID" handoffs
  else
    await $GW1 "$ID"
  fi
done

# Zero recompute: the successors answered from their replicas.
RUNS_AFTER=$(runs)
[ "$RUNS_AFTER" -eq "$RUNS_BEFORE" ] || { echo "survivors ran the engine $((RUNS_AFTER - RUNS_BEFORE)) times after the crash, want 0" >&2; exit 1; }
PS=0
for p in "${SURVIVORS[@]}"; do PS=$((PS + $(metric "http://localhost:$p" tempriv_cluster_peer_served_total))); done
[ "$PS" -ge "$VICTIM_JOBS" ] || { echo "peer_served=$PS across survivors, want >= $VICTIM_JOBS (the victim's jobs)" >&2; exit 1; }

# Byte-identical to a standalone run of the same specs.
for ID in "${IDS[@]}"; do
  S=${SEEDOF[$ID]}
  SOLOID=$(submit http://localhost:7399 "$(spec "$S")" | field id)
  await http://localhost:7399 "$SOLOID"
  curl -sf "localhost:7399/v1/jobs/$SOLOID/result" > /tmp/chaos_solo.json
  curl -sf "$GW1/v1/jobs/$ID/result" > /tmp/chaos_clustered.json
  cmp /tmp/chaos_solo.json /tmp/chaos_clustered.json || { echo "job $ID (seed $S) differs from solo run" >&2; exit 1; }
done
echo "part 1 OK: $VICTIM_JOBS job(s) handed off, peer_served=$PS, zero recompute, all results byte-identical"

echo "=== part 2: partition + latency under load ==="
GW2=http://localhost:7470
TEMPRIV_CHAOS="partition=127.0.0.1:7473;latency=127.0.0.1:7472:200ms" \
  "$TEMPRIVGW" -addr localhost:7470 -lease-ttl 5s -reconcile-every 1s -log-level warn &
PIDS+=("$!")
for i in 1 2 3; do
  "$TEMPRIVD" -addr "localhost:$((7470 + i))" -workers 2 -log-level warn \
    -cluster-registry $GW2 -cluster-id "w$i" -cluster-url "http://127.0.0.1:$((7470 + i))" &
  PIDS+=("$!")
done
wait_workers $GW2 3

# Zero lost jobs: every submission completes even though w3 is dark to
# the gateway (dispatch fails over to ring successors, the breaker
# ejects w3) and w2 answers 200ms late.
IDS2=()
for s in $(seq 11 25); do
  ID=$(submit $GW2 "$(spec "$s")" | field id)
  [ -n "$ID" ] || { echo "submit of seed $s failed" >&2; exit 1; }
  IDS2+=("$ID")
done
for ID in "${IDS2[@]}"; do
  await $GW2 "$ID"
done

# Every result read through the gateway succeeds, w2's 200ms late.
for ID in "${IDS2[@]}"; do
  curl -sf "$GW2/v1/jobs/$ID/result" > /dev/null || { echo "result read of $ID failed" >&2; exit 1; }
done

EJ=$(metric $GW2 tempriv_cluster_ejections_total)
[ "$EJ" -ge 1 ] || { echo "partitioned worker was never ejected" >&2; exit 1; }
curl -sf "$GW2/v1/cluster" | python3 -c '
import sys, json
doc = json.load(sys.stdin)
health = doc.get("health") or {}
w3 = health.get("w3") or {}
assert w3.get("state") in ("ejected", "probing"), f"w3 health = {w3}"
'
echo "part 2 OK: ${#IDS2[@]} jobs done and read, ejections=$EJ"

echo "=== part 3: total partition sheds at the gateway ==="
GW3=http://localhost:7570
TEMPRIV_CHAOS="partition=127.0.0.1:7571" \
  "$TEMPRIVGW" -addr localhost:7570 -lease-ttl 30s -reconcile-every 1s -log-level warn &
PIDS+=("$!")
"$TEMPRIVD" -addr localhost:7571 -workers 2 -log-level warn \
  -cluster-registry $GW3 -cluster-id w1 -cluster-url "http://127.0.0.1:7571" &
PIDS+=("$!")
wait_workers $GW3 1

# Three failed dispatches trip the breaker...
for s in 31 32 33; do
  CODE=$(curl -s -o /dev/null -w '%{http_code}' "$GW3/v1/jobs" -d "$(spec "$s")")
  [ "$CODE" = 502 ] || [ "$CODE" = 503 ] || { echo "submit $s returned $CODE, want 502/503" >&2; exit 1; }
done
# ...and the next submission is shed before any worker round-trip, with
# an honest Retry-After.
HDRS=$(curl -s -D - -o /dev/null "$GW3/v1/jobs" -d "$(spec 34)")
echo "$HDRS" | head -1 | grep -q 503 || { echo "post-ejection submit not shed with 503" >&2; echo "$HDRS" >&2; exit 1; }
echo "$HDRS" | grep -qi '^retry-after:' || { echo "shed response missing Retry-After" >&2; echo "$HDRS" >&2; exit 1; }
SHEDS=$(metric $GW3 tempriv_sheds_total)
EJ3=$(metric $GW3 tempriv_cluster_ejections_total)
[ "$SHEDS" -ge 1 ] || { echo "tempriv_sheds_total is $SHEDS, want >= 1" >&2; exit 1; }
[ "$EJ3" -ge 1 ] || { echo "no ejection before the shed" >&2; exit 1; }
echo "part 3 OK: ejections=$EJ3 sheds=$SHEDS with Retry-After"

echo "chaos_cluster: OK"

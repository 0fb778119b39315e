#!/bin/sh
# Poison traces end the job, not the process. Each trace in DATA_DIR
# is a tiny TRC2 file whose run cannot complete:
#   abba.trc              two threads take two mutexes in opposite
#                         order (deadlock)
#   unlock_unheld.trc     thread 0 unlocks mutex 5 it never locked
#   self_join.trc         thread 0 joins itself
#   barrier_mismatch.trc  two threads arrive at barrier 1 expecting
#                         2 and 3 participants
# `hdrd_sim --replay` of each must exit 1 (not abort) naming the
# failure; hdrd_served must answer each with a per-job ERROR, buffered
# and streamed, and keep serving: a good trace afterwards still gets
# the golden report and the session/worker gauges settle to zero.
#
# usage: service_poison.sh HDRD_SIM HDRD_SERVED HDRD_CLIENT DATA_DIR
set -e
SIM=$1
SERVED=$2
CLIENT=$3
DATA=$4

rm -rf svc_poison svc_poison.sock
mkdir -p svc_poison

expect() {
    # expect TRACE MESSAGE: every path refuses TRACE with MESSAGE.
    trace=$DATA/$1
    st=0
    "$SIM" --replay="$trace" > /dev/null 2> svc_poison/sim.txt || st=$?
    [ "$st" -eq 1 ]
    grep -q "$2" svc_poison/sim.txt
    st=0
    "$CLIENT" --socket=svc_poison.sock "$trace" \
        2> svc_poison/buffered.txt || st=$?
    [ "$st" -eq 1 ]
    grep -q "$2" svc_poison/buffered.txt
    st=0
    "$CLIENT" --socket=svc_poison.sock --stream "$trace" \
        > svc_poison/streamed.txt 2>&1 || st=$?
    [ "$st" -eq 1 ]
    grep -q "$2" svc_poison/streamed.txt
}

"$SIM" --workload=micro.ping_pong --scale=0.05 \
       --record=svc_poison/good.trc > /dev/null
"$SIM" --replay=svc_poison/good.trc \
       --report-json=svc_poison/golden.json > /dev/null

"$SERVED" --socket=svc_poison.sock --workers=2 &
pid=$!
trap 'kill "$pid" 2>/dev/null || true' EXIT

i=0
while [ ! -S svc_poison.sock ]; do
    i=$((i + 1))
    [ "$i" -le 100 ]
    sleep 0.1
done

expect abba.trc "deadlock: no runnable thread; t0 blocked on mutex 2"
expect unlock_unheld.trc "unlock of mutex 5 not held by thread 0"
expect self_join.trc "join of invalid thread 0 by thread 0"
expect barrier_mismatch.trc "inconsistent participant count at barrier 1"

"$CLIENT" --socket=svc_poison.sock --omit-timing \
          --out-dir=svc_poison svc_poison/good.trc > /dev/null
cmp svc_poison/golden.json svc_poison/good.trc.report.json
"$CLIENT" --socket=svc_poison.sock --stats > svc_poison/stats.json
grep -q '"server.jobs_failed": 4' svc_poison/stats.json
grep -q '"stream.jobs_failed": 4' svc_poison/stats.json
grep -q '"stream.active_sessions": 0' svc_poison/stats.json
grep -q '"pool.active_workers": 0' svc_poison/stats.json

kill -TERM "$pid"
wait "$pid"

#!/bin/sh
# serve_attack.sh — adversarial fairness regression gate.
#
# Phase A boots a QoS-enabled wispd (per-client token bucket + DRR fair
# queue + slow-loris read timeout) and replays a legit-only ssl+record mix
# to establish the attack-free baseline, written as a benchmark record.
#
# Phase B boots an identically configured daemon and replays the *same*
# legit workload (same seed — the legit byte streams are identical) with
# all four adversarial profiles mixed in at a 25% attacker-client ratio:
# flood (expensive op saturation), thrash (session-cache churn), oversize
# (max-size payloads, and headers declaring over-limit ones against the
# wire listener's decode) and slowloris (dribbled request frames against
# the read timeout).  Attackers sustain
# their pressure for the whole legit replay and far outnumber legit
# arrivals per second; the client ratio understates the traffic share.
#
# The gate asserts, on both phases: zero payload digest mismatches and
# zero sheds issued while a shard sat idle (throttle sheds are policy, not
# capacity, and are never counted there).  On the mixed phase it asserts
# the attackers were actually throttled, then holds the headline fairness
# bound: legit record-op p99 under attack must stay within 1.5x of the
# attack-free baseline (attack latencies land in separate "+attack" op
# classes, so the plain record row is legit-only in both records).
#
# On failure, logs and reports are copied to $ARTIFACT_DIR when set (CI
# uploads them).  Exits non-zero on any violation or unclean drain.
set -eu

BIN="${BIN:-bin}"
BENCH_ATTACK_JSON="${BENCH_ATTACK_JSON:-BENCH_attack.json}"
TMP="$(mktemp -d)"
WISPD_PID=""

collect_artifacts() {
    if [ -n "${ARTIFACT_DIR:-}" ]; then
        mkdir -p "$ARTIFACT_DIR"
        cp "$TMP"/*.log "$TMP"/*.json "$ARTIFACT_DIR"/ 2>/dev/null || true
    fi
}
trap 'status=$?; [ -n "$WISPD_PID" ] && kill "$WISPD_PID" 2>/dev/null || true; [ "$status" -ne 0 ] && collect_artifacts; rm -rf "$TMP"; exit $status' EXIT INT TERM

boot_wispd() {
    log="$1"; shift
    : >"$TMP/addr"
    "$BIN/wispd" -addr 127.0.0.1:0 -addrfile "$TMP/addr" "$@" >"$TMP/$log" 2>&1 &
    WISPD_PID=$!
    i=0
    while [ ! -s "$TMP/addr" ]; do
        i=$((i + 1))
        if [ "$i" -gt 100 ]; then
            echo "serve-attack: wispd never came up" >&2
            cat "$TMP/$log" >&2
            exit 1
        fi
        sleep 0.1
    done
    ADDR="$(cat "$TMP/addr")"
}

drain_wispd() {
    kill -TERM "$WISPD_PID"
    wait "$WISPD_PID"
    WISPD_PID=""
    grep -q "drained cleanly" "$TMP/$1" || {
        echo "serve-attack: daemon did not drain cleanly" >&2
        cat "$TMP/$1" >&2
        exit 1
    }
}

# check_report NAME FILE — the invariants both phases must hold.
check_report() {
    grep -q '"mismatches": 0' "$2" || {
        echo "serve-attack: $1: payload mismatches detected" >&2
        exit 1
    }
    grep -q '"shed_while_idle": 0' "$2" || {
        echo "serve-attack: $1: requests were shed while a shard sat idle" >&2
        grep -E '"shed|"throttled' "$2" >&2 || true
        exit 1
    }
}

# Knob rationale (measured on a 1-CPU runner; the shape, not the absolute
# numbers, is what matters):
#
#   - The legit replay is think-time paced (~600ms between requests) so it
#     runs below saturation.  A pure closed loop at saturation measures its
#     own queueing — every extra flow inflates every latency and the
#     comparison degenerates into a flow-count ratio.
#   - Attackers are paced per stream by a modeled WAN round-trip (150ms;
#     oversize 5x — megabyte uploads are bandwidth-bound).  An unpaced
#     loopback attacker is a co-located CPU burner, and its spin would
#     charge the load generator's own scheduling to the latency
#     measurement the gate is taking.
#   - client-rate bounds each ClientID's admitted estimated-work rate, so
#     it directly caps the CPU share one attacker identity can buy: 80ms/s
#     of estimated work ≈ 8% of the box per identity, while a paced legit
#     client demands well under half that.  client-burst absorbs one
#     full-size (32KB) request estimate so legit bursts never borrow.
#   - fair-limit is deliberately tight (10ms of outstanding estimated
#     work) so the DRR fair queue actually arbitrates dispatch order under
#     contention; with a loose limit admitted attack ops FIFO-race legit
#     ops to the shards and the bucket alone cannot protect the tail.
WISPD_ARGS="-shards 2 -seed 1 -metrics \
    -client-rate 80000 -client-burst 100000 -fair-limit 10000 \
    -qos-quantum 5000 -max-cost 150000 -read-timeout 500ms"
LEGIT_ARGS="-clients 12 -n 80 -ops ssl,record -mix 1k,4k,16k,32k \
    -resume-ratio 0.5 -deadline-us 30000000 -retries 2 -think-us 600000 \
    -seed 42"
ATTACK_ARGS="-attack flood,thrash,oversize,slowloris -attack-ratio 0.25 \
    -attack-conc 4 -attack-rtt-us 150000"

# warmup — a short unmeasured replay so both phases start with converged
# service-time EWMAs; without it the p99 of either phase is dominated by
# the first few requests queueing behind work admitted at cold-prior
# estimates rather than by steady-state behavior.  The warmup mix spans
# the full Figure-8 sizes so the per-byte cost estimators converge too.
warmup() {
    "$BIN/wispload" -addr "$ADDR" -clients 2 -n 6 -ops ssl,record,handshake \
        -mix 1k,4k,16k,32k -seed 11 -stats=false >/dev/null
}

# ---- Phase A: attack-free baseline ----
# The baseline replay runs twice and the fairness bound below holds
# against the slower of the two records.  The gate's question is whether
# attack pressure pushes legit latency past what the server demonstrably
# does attack-free; a single baseline draw whose tail came out unluckily
# fast would fail that question on reference noise, not on regression.
# shellcheck disable=SC2086
boot_wispd wispd_base.log $WISPD_ARGS
warmup
echo "serve-attack: baseline runs on $ADDR (QoS on, no attackers)"
for pass in 1 2; do
    # shellcheck disable=SC2086
    "$BIN/wispload" -addr "$ADDR" $LEGIT_ARGS -json \
        -bench-out "$TMP/bench_base$pass.json" >"$TMP/report_base$pass.json"
    check_report "baseline $pass" "$TMP/report_base$pass.json"
done
drain_wispd wispd_base.log
echo "serve-attack: baseline clean (zero mismatches, zero sheds-with-idle-shards)"

# ---- Phase B: same legit workload + all four adversarial profiles ----
# shellcheck disable=SC2086
boot_wispd wispd_attack.log $WISPD_ARGS
warmup
echo "serve-attack: mixed run on $ADDR (flood,thrash,oversize,slowloris @ 25% clients)"
# shellcheck disable=SC2086
"$BIN/wispload" -addr "$ADDR" $LEGIT_ARGS $ATTACK_ARGS -json \
    -bench-out "$TMP/bench_attack.json" >"$TMP/report_attack.json"
drain_wispd wispd_attack.log
check_report mixed "$TMP/report_attack.json"

grep -Eq '"throttled": [1-9]' "$TMP/report_attack.json" || {
    echo "serve-attack: no requests throttled — attackers ran unmetered" >&2
    grep -E '"(throttled|shed|ok)":' "$TMP/report_attack.json" >&2 || true
    exit 1
}
echo "serve-attack: attackers throttled; mixed run clean"

# ---- The fairness bound: legit record p99 within 1.5x of baseline ----
# Attack latencies land in separate "+attack" op classes, so the plain
# record row of the mixed record is legit-only; passing against either
# baseline draw means the mixed tail is within bounds of an observed
# attack-free tail.
"$BIN/benchcmp" -baseline "$TMP/bench_base1.json" -current "$TMP/bench_attack.json" \
    -assert-p99-lt 'record<record' -p99-factor 1.5 ||
    "$BIN/benchcmp" -baseline "$TMP/bench_base2.json" -current "$TMP/bench_attack.json" \
        -assert-p99-lt 'record<record' -p99-factor 1.5
cp "$TMP/bench_attack.json" "$BENCH_ATTACK_JSON"
echo "serve-attack: legit record p99 within 1.5x of attack-free baseline; record written to $BENCH_ATTACK_JSON"
echo "serve-attack: ok"

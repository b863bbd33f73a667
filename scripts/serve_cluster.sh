#!/bin/sh
# serve_cluster.sh — cluster serving gate: one wispload workload against a
# single wispd (direct wire) and against wispgw routing over three wispd
# backends, asserting the routing tier preserves correctness and actually
# scales.
#
# Phase A (affinity parity, host speed): a pure resumption workload
# (-ops handshake -resume-ratio 1) replayed against one node and against
# the cluster.  Session caches live per backend, so cluster resumption
# only works if the consistent-hash ring keeps each client on one node;
# the gate holds the cluster's resumed/ok rate within 5 points of the
# single node's and requires affinity hits with zero ring redirects.
#
# Phase B (throughput scaling, model-paced): both topologies run
# -pace-hz 20e6, which stretches a record-4k op to ~71ms of modeled
# service time so three daemons on a small host overlap in their pacing
# sleeps instead of contending for the CPU (at the paper's native 188 MHz
# the host's own ISS crypto time exceeds the modeled time and every
# topology converges on the host's serial crypto throughput).  The gate:
# cluster rps >= 2x single-node rps, zero mismatches, and the cluster
# record written with -bench-label cluster so benchcmp refuses to compare
# it against single-node baselines.
#
# Phase C (node failure, model-paced): the same cluster workload with one
# backend SIGKILLed mid-run.  The gate: the run still completes with zero
# mismatches, zero sheds and zero client-visible errors (in-flight
# requests on the dead node are retried on survivors), and the gateway
# reports at least one ejection.
#
# On failure, logs and reports are copied to $ARTIFACT_DIR when set (CI
# uploads them).  Exits non-zero on any violation or unclean drain.
set -eu

BIN="${BIN:-bin}"
BENCH_CLUSTER_JSON="${BENCH_CLUSTER_JSON:-BENCH_cluster.json}"
TMP="$(mktemp -d)"
NODE_PIDS=""
GW_PID=""

collect_artifacts() {
    if [ -n "${ARTIFACT_DIR:-}" ]; then
        mkdir -p "$ARTIFACT_DIR"
        cp "$TMP"/*.log "$TMP"/*.json "$ARTIFACT_DIR"/ 2>/dev/null || true
    fi
}
kill_everything() {
    [ -n "$GW_PID" ] && kill "$GW_PID" 2>/dev/null || true
    for p in $NODE_PIDS; do kill "$p" 2>/dev/null || true; done
}
trap 'status=$?; kill_everything; [ "$status" -ne 0 ] && collect_artifacts; rm -rf "$TMP"; exit $status' EXIT INT TERM

wait_for_file() {
    i=0
    while [ ! -s "$1" ]; do
        i=$((i + 1))
        if [ "$i" -gt 100 ]; then
            echo "serve-cluster: $2 never came up" >&2
            cat "$TMP/$3" >&2
            exit 1
        fi
        sleep 0.1
    done
}

# boot_node IDX LOG ARGS... — one wispd speaking the wire protocol on an
# ephemeral port, its address in $TMP/wire$IDX.
boot_node() {
    idx="$1" log="$2"; shift 2
    : >"$TMP/wire$idx"
    "$BIN/wispd" -addr 127.0.0.1:0 \
        -addrfile "$TMP/wire$idx" "$@" >"$TMP/$log" 2>&1 &
    NODE_PIDS="$NODE_PIDS $!"
    wait_for_file "$TMP/wire$idx" "wispd node $idx" "$log"
}

# boot_gw LOG BACKENDS — the routing tier over a comma-separated backend
# list, wire address in $TMP/gwwire.
boot_gw() {
    log="$1" backends="$2"
    : >"$TMP/gwwire"
    "$BIN/wispgw" -backends "$backends" -addr 127.0.0.1:0 \
        -addrfile "$TMP/gwwire" -metrics \
        >"$TMP/$log" 2>&1 &
    GW_PID=$!
    wait_for_file "$TMP/gwwire" "wispgw" "$log"
}

# drain_all GWLOG NODELOGS... — graceful SIGTERM drain, gateway first so
# no new work reaches the backends, asserting every process reports a
# clean drain.
drain_all() {
    gwlog="$1"; shift
    if [ -n "$GW_PID" ]; then
        kill -TERM "$GW_PID" && wait "$GW_PID"
        GW_PID=""
        grep -q "drained cleanly" "$TMP/$gwlog" || {
            echo "serve-cluster: gateway did not drain cleanly" >&2
            cat "$TMP/$gwlog" >&2
            exit 1
        }
    fi
    for p in $NODE_PIDS; do kill -TERM "$p" && wait "$p"; done
    NODE_PIDS=""
    for log in "$@"; do
        grep -q "drained cleanly" "$TMP/$log" || {
            echo "serve-cluster: $log did not drain cleanly" >&2
            cat "$TMP/$log" >&2
            exit 1
        }
    done
}

check_clean() {
    grep -q '"mismatches": 0' "$2" || {
        echo "serve-cluster: $1: payload digest mismatches" >&2
        grep -E '"(mismatches|ok|errors)":' "$2" >&2 || true
        exit 1
    }
}

json_field() {
    sed -n "s/.*\"$1\": \([0-9.]*\).*/\1/p" "$2" | head -n 1
}

# ---- Phase A: resumption affinity parity (host speed) ----
# Identical pure-resumption replays: every client performs one full
# handshake then resumes it repeatedly.  Same seed, same client count, so
# the only variable is the topology.
AFF_ARGS="-clients 8 -n 12 -ops handshake -resume-ratio 1 -seed 42"

boot_node 1 node_a_single.log -shards 1 -seed 1
echo "serve-cluster: phase A single node on $(cat "$TMP/wire1")"
# shellcheck disable=SC2086
"$BIN/wispload" -addr "$(cat "$TMP/wire1")" $AFF_ARGS -json \
    -stats=false >"$TMP/report_aff_single.json"
drain_all "" node_a_single.log
check_clean "affinity single" "$TMP/report_aff_single.json"

boot_node 1 node_a1.log -shards 1 -seed 1
boot_node 2 node_a2.log -shards 1 -seed 2
boot_node 3 node_a3.log -shards 1 -seed 3
boot_gw gw_a.log "$(cat "$TMP/wire1"),$(cat "$TMP/wire2"),$(cat "$TMP/wire3")"
echo "serve-cluster: phase A cluster on $(cat "$TMP/gwwire") (3 backends)"
# shellcheck disable=SC2086
"$BIN/wispload" -addr "$(cat "$TMP/gwwire")" $AFF_ARGS -json \
    -stats=false >"$TMP/report_aff_cluster.json"
drain_all gw_a.log node_a1.log node_a2.log node_a3.log
check_clean "affinity cluster" "$TMP/report_aff_cluster.json"

single_ok="$(json_field ok "$TMP/report_aff_single.json")"
single_res="$(json_field resumed "$TMP/report_aff_single.json")"
cluster_ok="$(json_field ok "$TMP/report_aff_cluster.json")"
cluster_res="$(json_field resumed "$TMP/report_aff_cluster.json")"
awk -v so="$single_ok" -v sr="${single_res:-0}" \
    -v co="$cluster_ok" -v cr="${cluster_res:-0}" 'BEGIN {
    if (so == 0 || co == 0) exit 1
    srate = 100 * sr / so; crate = 100 * cr / co
    printf "serve-cluster: resumed rate %.1f%% single vs %.1f%% cluster\n", srate, crate
    if (sr == 0) exit 1            # the single node must actually resume
    d = srate - crate; if (d < 0) d = -d
    exit !(d <= 5)
}' || {
    echo "serve-cluster: cluster resumption rate diverged >5 points from single node" >&2
    exit 1
}
grep -Eq '^wispgw_affinity_hits_total [1-9]' "$TMP/gw_a.log" || {
    echo "serve-cluster: no session-affinity hits — resumes were not ring-routed" >&2
    grep -E '^wispgw_' "$TMP/gw_a.log" >&2 || true
    exit 1
}
grep -q '^wispgw_redirects_total 0$' "$TMP/gw_a.log" || {
    echo "serve-cluster: ring redirects on a healthy cluster" >&2
    grep -E '^wispgw_(affinity|redirects)' "$TMP/gw_a.log" >&2 || true
    exit 1
}
echo "serve-cluster: phase A ok — affinity preserved resumption across the ring"

# ---- Phase B: throughput scaling (model-paced) ----
# 20 MHz pacing makes a record-4k op ~71ms of modeled service, an order
# of magnitude above its host ISS cost, so backend daemons spend their
# time in pacing sleeps and the topologies compare on modeled capacity.
PACE="-pace-hz 20e6"
TPUT_OPS="-n 10 -ops record -mix 4k -seed 7"

boot_node 1 node_b_single.log -shards 1 -seed 1 $PACE
echo "serve-cluster: phase B single node (paced)"
# shellcheck disable=SC2086
"$BIN/wispload" -addr "$(cat "$TMP/wire1")" -clients 8 $TPUT_OPS \
    -json -stats=false >"$TMP/report_tput_single.json"
drain_all "" node_b_single.log
check_clean "throughput single" "$TMP/report_tput_single.json"

boot_node 1 node_b1.log -shards 1 -seed 1 $PACE
boot_node 2 node_b2.log -shards 1 -seed 2 $PACE
boot_node 3 node_b3.log -shards 1 -seed 3 $PACE
boot_gw gw_b.log "$(cat "$TMP/wire1"),$(cat "$TMP/wire2"),$(cat "$TMP/wire3")"
echo "serve-cluster: phase B cluster (paced, 3 backends)"
# shellcheck disable=SC2086
"$BIN/wispload" -addr "$(cat "$TMP/gwwire")" -clients 24 $TPUT_OPS \
    -json -stats=false -bench-out "$TMP/bench_cluster.json" \
    -bench-label cluster >"$TMP/report_tput_cluster.json"
drain_all gw_b.log node_b1.log node_b2.log node_b3.log
check_clean "throughput cluster" "$TMP/report_tput_cluster.json"

single_rps="$(json_field achieved_rps "$TMP/report_tput_single.json")"
cluster_rps="$(json_field achieved_rps "$TMP/report_tput_cluster.json")"
awk -v s="$single_rps" -v c="$cluster_rps" 'BEGIN {
    printf "serve-cluster: %.1f rps single vs %.1f rps cluster (%.2fx)\n", s, c, c / s
    exit !(s > 0 && c >= 2 * s)
}' || {
    echo "serve-cluster: cluster throughput below 2x single node" >&2
    exit 1
}
# The labeled record must compare against itself under -label and refuse
# an unlabeled current record — the cross-experiment guard benchcmp
# applies before any metric comparison.
"$BIN/benchcmp" -baseline "$TMP/bench_cluster.json" \
    -current "$TMP/bench_cluster.json" -label cluster >/dev/null
cp "$TMP/bench_cluster.json" "$BENCH_CLUSTER_JSON"
echo "serve-cluster: phase B ok — record written to $BENCH_CLUSTER_JSON"

# ---- Phase C: kill one backend mid-run (model-paced) ----
boot_node 1 node_c1.log -shards 1 -seed 1 $PACE
boot_node 2 node_c2.log -shards 1 -seed 2 $PACE
boot_node 3 node_c3.log -shards 1 -seed 3 $PACE
# Node 1 is the victim: the first PID appended this phase (drain_all
# reset the list after phase B).
VICTIM_PID="$(echo $NODE_PIDS | awk '{print $1}')"
boot_gw gw_c.log "$(cat "$TMP/wire1"),$(cat "$TMP/wire2"),$(cat "$TMP/wire3")"
echo "serve-cluster: phase C cluster up; killing one backend mid-run"
# shellcheck disable=SC2086
"$BIN/wispload" -addr "$(cat "$TMP/gwwire")" -clients 24 \
    -n 12 -ops record -mix 4k -seed 9 -json -stats=false \
    >"$TMP/report_kill.json" &
LOAD_PID=$!
sleep 2
kill -9 "$VICTIM_PID" 2>/dev/null || true
wait "$VICTIM_PID" 2>/dev/null || true
NODE_PIDS="$(echo $NODE_PIDS | awk '{$1=""; print}')"
wait "$LOAD_PID" || {
    echo "serve-cluster: load generator failed during node kill" >&2
    cat "$TMP/report_kill.json" >&2 || true
    exit 1
}
drain_all gw_c.log node_c2.log node_c3.log
check_clean "node-kill" "$TMP/report_kill.json"
grep -q '"errors": 0' "$TMP/report_kill.json" || {
    echo "serve-cluster: client-visible errors during node kill (failover leaked)" >&2
    grep -E '"(errors|shed|ok)":' "$TMP/report_kill.json" >&2 || true
    exit 1
}
grep -q '"shed": 0' "$TMP/report_kill.json" || {
    echo "serve-cluster: requests shed during node kill (retry should absorb)" >&2
    grep -E '"(errors|shed|ok)":' "$TMP/report_kill.json" >&2 || true
    exit 1
}
grep -Eq '^wispgw_ejections_total [1-9]' "$TMP/gw_c.log" || {
    echo "serve-cluster: gateway never ejected the killed backend" >&2
    grep -E '^wispgw_' "$TMP/gw_c.log" >&2 || true
    exit 1
}
echo "serve-cluster: phase C ok — killed backend ejected, zero client-visible failures"

# ---- Phase D: replicated session resumption vs node loss (host speed) ----
# A pure-resumption workload with one backend SIGKILLed mid-run, run twice:
# with session-secret replication between the backends (-peers) and
# without.  -split-us buckets outcomes into pre/post-kill windows.  The
# gate: with replication on, the post-kill resumption rate stays within 10
# points of pre-kill (survivors serve the dead node's sessions from their
# replicas or pull them from each other), with zero mismatches and zero
# client-visible errors; with replication off, at least one displaced
# client falls back to a full handshake — the old behavior this feature
# removes — and never more fallbacks on than off.  The split lands just
# BEFORE the kill so every post-kill request is counted late.
KILL_ARGS="-clients 16 -n 36 -ops handshake -mix 1k -resume-ratio 1 -think-us 120000 -split-us 1800000 -seed 11"

run_kill_leg() {
    leg="$1" report="$2" peered="$3"
    if [ "$peered" = "peered" ]; then
        boot_node 1 "node_d1_$leg.log" -shards 1 -seed 1 -replica-r 2 \
            -peers "@$TMP/wire2,@$TMP/wire3"
        boot_node 2 "node_d2_$leg.log" -shards 1 -seed 2 -replica-r 2 \
            -peers "@$TMP/wire1,@$TMP/wire3"
        boot_node 3 "node_d3_$leg.log" -shards 1 -seed 3 -replica-r 2 \
            -peers "@$TMP/wire1,@$TMP/wire2"
    else
        boot_node 1 "node_d1_$leg.log" -shards 1 -seed 1
        boot_node 2 "node_d2_$leg.log" -shards 1 -seed 2
        boot_node 3 "node_d3_$leg.log" -shards 1 -seed 3
    fi
    VICTIM_PID="$(echo $NODE_PIDS | awk '{print $1}')"
    boot_gw "gw_d_$leg.log" "$(cat "$TMP/wire1"),$(cat "$TMP/wire2"),$(cat "$TMP/wire3")"
    echo "serve-cluster: phase D ($leg) cluster up; killing one backend mid-run"
    # shellcheck disable=SC2086
    "$BIN/wispload" -addr "$(cat "$TMP/gwwire")" $KILL_ARGS -json -stats=false \
        >"$TMP/$report" &
    LOAD_PID=$!
    sleep 2
    kill -9 "$VICTIM_PID" 2>/dev/null || true
    wait "$VICTIM_PID" 2>/dev/null || true
    NODE_PIDS="$(echo $NODE_PIDS | awk '{$1=""; print}')"
    wait "$LOAD_PID" || {
        echo "serve-cluster: load generator failed during $leg kill leg" >&2
        cat "$TMP/$report" >&2 || true
        exit 1
    }
    drain_all "gw_d_$leg.log" "node_d2_$leg.log" "node_d3_$leg.log"
    check_clean "replication $leg" "$TMP/$report"
    grep -q '"errors": 0' "$TMP/$report" || {
        echo "serve-cluster: client-visible errors in $leg kill leg" >&2
        grep -E '"(errors|shed|ok)":' "$TMP/$report" >&2 || true
        exit 1
    }
}

run_kill_leg on report_repl_on.json peered
run_kill_leg off report_repl_off.json plain

on_early_ok="$(json_field early_ok "$TMP/report_repl_on.json")"
on_early_res="$(json_field early_resumed "$TMP/report_repl_on.json")"
on_late_ok="$(json_field late_ok "$TMP/report_repl_on.json")"
on_late_res="$(json_field late_resumed "$TMP/report_repl_on.json")"
off_late_ok="$(json_field late_ok "$TMP/report_repl_off.json")"
off_late_res="$(json_field late_resumed "$TMP/report_repl_off.json")"
awk -v eo="$on_early_ok" -v er="$on_early_res" \
    -v lo="$on_late_ok" -v lr="$on_late_res" \
    -v flo="$off_late_ok" -v flr="$off_late_res" 'BEGIN {
    if (eo == 0 || lo == 0 || flo == 0 || er == 0) exit 1
    erate = 100 * er / eo; lrate = 100 * lr / lo
    printf "serve-cluster: replication on — resumed %.1f%% pre-kill vs %.1f%% post-kill\n", erate, lrate
    on_fb = lo - lr; off_fb = flo - flr
    printf "serve-cluster: post-kill full-handshake fallbacks: %d with replication, %d without\n", on_fb, off_fb
    if (lrate < erate - 10) exit 1   # replication must hold the post-kill rate
    if (off_fb < 1) exit 1           # replication-off must reproduce the old fallback
    if (on_fb > off_fb) exit 1       # replication must never fall back more than off
    exit 0
}' || {
    echo "serve-cluster: replicated resumption did not survive the node kill" >&2
    grep -E '"(early|late)_(ok|resumed|resume_asked)":' "$TMP/report_repl_on.json" >&2 || true
    grep -E '"(early|late)_(ok|resumed|resume_asked)":' "$TMP/report_repl_off.json" >&2 || true
    exit 1
}
# The survivors must have actually replicated (push or pull), and the
# routing tier must have failed resumes over to ring successors.
grep -h '^wispd: replication' "$TMP/node_d2_on.log" "$TMP/node_d3_on.log" \
    | awk '{pushed += $4} END {exit !(pushed >= 1)}' || {
    echo "serve-cluster: no session secrets were replicated in the on leg" >&2
    grep -h 'replication' "$TMP"/node_d*_on.log >&2 || true
    exit 1
}
grep -Eq '^wispgw_resume_failover_total [1-9]' "$TMP/gw_d_on.log" || {
    echo "serve-cluster: no resume was failed over to a ring successor" >&2
    grep -E '^wispgw_' "$TMP/gw_d_on.log" >&2 || true
    exit 1
}
# Fold the on-leg replication counters into the phase B benchmark record
# so BENCH_cluster.json carries the replication health of the same build.
repl_line="$(grep -h '^wispd: replication' "$TMP/node_d2_on.log" "$TMP/node_d3_on.log" \
    | awk '{p += $4; d += $6; f += $8; m += $10} END {
        printf "  \"replication\": {\"pushed\": %d, \"dropped\": %d, \"fetched\": %d, \"fetch_miss\": %d},", p, d, f, m}')"
awk -v line="$repl_line" 'NR == 1 { print; print line; next } { print }' \
    "$BENCH_CLUSTER_JSON" >"$TMP/bench_with_repl.json"
mv "$TMP/bench_with_repl.json" "$BENCH_CLUSTER_JSON"
echo "serve-cluster: phase D ok — replicated sessions resumed across the kill"
echo "serve-cluster: ok"

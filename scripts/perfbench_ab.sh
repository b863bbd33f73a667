#!/bin/sh
# perfbench_ab.sh runs the serving benchmark (perfbench/) on two checkouts
# as alternating pairs, one pair per seed, and prints one JSON line per
# side: the commit, the seeds, the median of each end-to-end metric, and
# every run's failure split and reference-kernel time.  Append the lines
# to bench/perfbench_trajectory.jsonl to extend the benchmark's history.
#
#   scripts/perfbench_ab.sh BASE_DIR BASE_COMMIT CHANGE_DIR CHANGE_COMMIT WORKLOAD SEED...
#
# BASE_DIR and CHANGE_DIR are checkout roots (each with perfbench/run.sh);
# BASE_COMMIT and CHANGE_COMMIT are the labels recorded for them.  Each
# run lasts 50 s, BENCHMARK.json's run_seconds, and pairs alternate which
# side runs first.  Every run's full output is kept under .bench_build/ab.
set -eu
if [ $# -lt 6 ]; then
	echo "usage: $0 BASE_DIR BASE_COMMIT CHANGE_DIR CHANGE_COMMIT WORKLOAD SEED..." >&2
	exit 2
fi
base=$(cd "$1" && pwd)
base_commit=$2
change=$(cd "$3" && pwd)
change_commit=$4
workload=$5
shift 5
secs=50
logs=.bench_build/ab
mkdir -p "$logs"

run() { # side dir seed
	log="$logs/$workload-$1-seed$3.log"
	sh "$2/perfbench/run.sh" --workload "$workload" --seed "$3" --seconds "$secs" --trace 0 >"$log" 2>&1 || true
	echo "$1 seed $3: $(grep '^fail_ratio' "$log" || echo 'no result')" >&2
}

n=0
for seed in "$@"; do
	if [ $((n % 2)) -eq 0 ]; then
		run base "$base" "$seed"
		run change "$change" "$seed"
	else
		run change "$change" "$seed"
		run base "$base" "$seed"
	fi
	n=$((n + 1))
done

# summarize side commit: one JSON line from that side's logs.
summarize() {
	for seed in "$@"; do echo "$logs/$workload-$side-seed$seed.log"; done |
		xargs awk -v side="$side" -v commit="$commit" -v workload="$workload" -v secs="$secs" '
		FNR == 1 { n++; seed[n] = FILENAME; sub(/.*-seed/, "", seed[n]); sub(/\.log$/, "", seed[n]); ok[n] = "false" }
		/^[a-z_0-9]+ +[-0-9.e+]+ [A-Za-z0-9\/]+$/ && NF == 3 { v[n, $1] = $2 }
		/reference kernel: mean/ { for (i = 1; i <= NF; i++) if ($i == "mean") ref[n] = $(i + 1) }
		/^fail_ratio/ {
			s = $0; sub(/.*\(/, "", s); m = split(s, f, /[ ;]+/)
			failed[n] = f[1]; attempted[n] = f[4]
			for (i = 1; i < m; i++) if (f[i] ~ /^(shed|expired|error|transport|mismatch)$/) split_[n, f[i]] = f[i + 1]
		}
		/^\{"correct":true/ { ok[n] = "true" }
		function median(name,   m, i, j, t, a) {
			m = 0
			for (i = 1; i <= n; i++) if ((i, name) in v) a[++m] = v[i, name] + 0
			if (m == 0) return "null"
			for (i = 2; i <= m; i++) { t = a[i]; for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]; a[j + 1] = t }
			return (m % 2) ? a[(m + 1) / 2] : (a[m / 2] + a[m / 2 + 1]) / 2
		}
		END {
			split("setup_s throughput_ops_ref latency_p50_us latency_p99_us cpu_us_per_op_ref allocs_per_op alloc_bytes_per_op max_rss_mb ok_ratio", e2e, " ")
			printf "{\"commit\":\"%s\",\"side\":\"%s\",\"workload\":\"%s\",\"seconds\":%s,\"seeds\":[", commit, side, workload, secs
			for (i = 1; i <= n; i++) printf "%s%s", (i > 1 ? "," : ""), seed[i]
			printf "],\"median\":{"
			for (k = 1; k <= 9; k++) printf "%s\"%s\":%s", (k > 1 ? "," : ""), e2e[k], median(e2e[k])
			printf "},\"runs\":["
			for (i = 1; i <= n; i++) {
				printf "%s{\"seed\":%s,\"correct\":%s,\"failed\":%s,\"attempted\":%s", (i > 1 ? "," : ""), seed[i], ok[i], (failed[i] == "" ? "null" : failed[i]), (attempted[i] == "" ? "null" : attempted[i])
				split("shed expired error transport mismatch", kinds, " ")
				for (k = 1; k <= 5; k++) printf ",\"%s\":%s", kinds[k], (((i, kinds[k]) in split_) ? split_[i, kinds[k]] : "null")
				printf ",\"ref_kernel_ms\":%s", (ref[i] == "" ? "null" : ref[i])
				for (k = 1; k <= 9; k++) printf ",\"%s\":%s", e2e[k], (((i, e2e[k]) in v) ? v[i, e2e[k]] + 0 : "null")
				printf "}"
			}
			print "]}"
		}'
}

side=base commit=$base_commit summarize "$@"
side=change commit=$change_commit summarize "$@"

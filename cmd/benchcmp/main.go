// Command benchcmp is the CI perf-regression gate: it compares a fresh
// serve-bench record (BENCH_serve.json, written by wispload -bench-out)
// against the checked-in baseline and exits nonzero when any tracked
// metric regressed beyond the threshold.
//
// Usage:
//
//	benchcmp -baseline bench/BENCH_serve.baseline.json -current BENCH_serve.json [-threshold 0.25] [-label NAME]
//
// Records carry an experiment label (wispload -bench-label) so cluster
// and single-node records can share bench/ without clobbering each
// other's baselines: comparing two records with different non-empty
// labels always fails, and -label NAME additionally requires the current
// record to carry exactly that label (the baseline may be unlabeled —
// pre-label baselines stay usable).
//
// Latency regressions are per-op-class p50/p99 increases; a throughput
// regression is an RPS decrease; an allocation regression is an
// allocs-per-op increase beyond -alloc-threshold (skipped for baselines
// that predate the allocation columns).  Op classes present in only one record
// are reported but never fail the gate (machine speed differences change
// which classes have enough samples), and classes with fewer than
// -min-count samples are skipped as noise.  Digest mismatches in the
// current record always fail.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"wisp/internal/loadgen"
)

func main() {
	baselinePath := flag.String("baseline", "bench/BENCH_serve.baseline.json", "checked-in baseline record")
	currentPath := flag.String("current", "BENCH_serve.json", "freshly measured record")
	threshold := flag.Float64("threshold", 0.25, "max tolerated fractional regression (0.25 = 25%)")
	allocThreshold := flag.Float64("alloc-threshold", 0.25,
		"max tolerated fractional allocs/op increase (gate skipped when the baseline lacks allocation columns)")
	minCount := flag.Int("min-count", 16, "skip op classes with fewer samples than this in either record")
	assertLt := flag.String("assert-p99-lt", "",
		"A/B assertion 'curOp<baseOp': require the current record's curOp p99 below the baseline record's baseOp p99 (skips the regression comparison)")
	p99Factor := flag.Float64("p99-factor", 1.0,
		"slack multiplier for -assert-p99-lt: require curOp p99 < baseOp p99 x factor (1.0 = strictly lower; the fairness gate uses 1.5)")
	label := flag.String("label", "",
		"require the current record to carry this experiment label (and the baseline to carry it or be unlabeled)")
	assertRPS := flag.Bool("assert-rps-gt", false,
		"A/B assertion: require the current record's throughput above the baseline's x -rps-factor with zero digest mismatches in either record (skips the regression comparison)")
	rpsFactor := flag.Float64("rps-factor", 1.0,
		"margin multiplier for -assert-rps-gt (1.1 = current must beat baseline by 10%)")
	flag.Parse()

	// Go-benchmark mode (gobench.go) gates `go test -bench` output
	// instead of serve-bench records.
	if *goBenchCurrent != "" {
		runGoBench(*threshold, *allocThreshold)
		return
	}

	base, err := loadgen.ReadBenchRecord(*baselinePath)
	if err != nil {
		fatal(err)
	}
	cur, err := loadgen.ReadBenchRecord(*currentPath)
	if err != nil {
		fatal(err)
	}
	if err := checkLabels(*label, base, cur); err != nil {
		fatal(err)
	}

	if *assertRPS {
		assertRPSGT(*rpsFactor, base, cur)
		return
	}
	if *assertLt != "" {
		assertP99LT(*assertLt, *p99Factor, base, cur)
		return
	}

	var failures []string
	if cur.Mismatches > 0 {
		failures = append(failures, fmt.Sprintf("current run has %d digest mismatches", cur.Mismatches))
	}

	// Throughput: lower is worse.
	if base.ThroughputRPS > 0 && cur.ThroughputRPS < base.ThroughputRPS*(1-*threshold) {
		failures = append(failures, fmt.Sprintf(
			"throughput %.1f rps is %.0f%% below baseline %.1f rps",
			cur.ThroughputRPS, 100*(1-cur.ThroughputRPS/base.ThroughputRPS), base.ThroughputRPS))
	}

	// Allocations per served op: higher is worse.  Gated only when the
	// baseline carries the schema-2 allocation columns — a schema-1
	// baseline (or one recorded without runtime stats) skips the gate
	// instead of failing it.
	switch {
	case base.AllocsPerOp <= 0:
		fmt.Printf("note: baseline (schema %d) has no allocs_per_op; allocation gate skipped\n", base.Schema)
	case cur.AllocsPerOp > base.AllocsPerOp*(1+*allocThreshold):
		failures = append(failures, fmt.Sprintf(
			"allocs/op %.0f is %.0f%% above baseline %.0f",
			cur.AllocsPerOp, 100*(cur.AllocsPerOp/base.AllocsPerOp-1), base.AllocsPerOp))
	default:
		fmt.Printf("ok: allocs/op %.0f vs baseline %.0f\n", cur.AllocsPerOp, base.AllocsPerOp)
	}

	ops := make([]string, 0, len(base.Ops))
	for op := range base.Ops {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	for _, op := range ops {
		b := base.Ops[op]
		c, ok := cur.Ops[op]
		if !ok {
			fmt.Printf("note: op %q in baseline but not in current run\n", op)
			continue
		}
		if b.Count < *minCount || c.Count < *minCount {
			fmt.Printf("note: op %q skipped (samples %d vs %d below min %d)\n", op, b.Count, c.Count, *minCount)
			continue
		}
		check := func(name string, baseUS, curUS int64) {
			if baseUS > 0 && float64(curUS) > float64(baseUS)*(1+*threshold) {
				failures = append(failures, fmt.Sprintf(
					"op %q %s %dµs is %.0f%% above baseline %dµs",
					op, name, curUS, 100*(float64(curUS)/float64(baseUS)-1), baseUS))
			} else {
				fmt.Printf("ok: op %q %s %dµs vs baseline %dµs\n", op, name, curUS, baseUS)
			}
		}
		check("p50", b.P50US, c.P50US)
		check("p99", b.P99US, c.P99US)
	}
	for op := range cur.Ops {
		if _, ok := base.Ops[op]; !ok {
			fmt.Printf("note: op %q in current run but not in baseline\n", op)
		}
	}

	if len(failures) > 0 {
		fmt.Fprintf(os.Stderr, "benchcmp: %d regression(s) beyond %.0f%%:\n", len(failures), *threshold*100)
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "  -", f)
		}
		os.Exit(1)
	}
	fmt.Printf("benchcmp: no regressions beyond %.0f%% (baseline %s)\n", *threshold*100, *baselinePath)
}

// checkLabels refuses cross-experiment comparisons.  Two differently
// labeled records never compare (a cluster record against the single-node
// baseline would gate apples against oranges); with -label the current
// record must carry exactly that label, while an unlabeled baseline is
// accepted so existing baselines keep working.
func checkLabels(want string, base, cur *loadgen.BenchRecord) error {
	if base.Label != "" && cur.Label != "" && base.Label != cur.Label {
		return fmt.Errorf("label mismatch: baseline %q vs current %q", base.Label, cur.Label)
	}
	if want != "" {
		if cur.Label != want {
			return fmt.Errorf("current record label %q, want %q", cur.Label, want)
		}
		if base.Label != "" && base.Label != want {
			return fmt.Errorf("baseline record label %q, want %q or unlabeled", base.Label, want)
		}
	}
	return nil
}

// assertP99LT enforces the serve-bench A/B contract: the op class named
// left of '<' (in the current record) must have a p99 below the baseline
// record's baseOp p99 times factor, and neither run may carry digest
// mismatches.  Factor 1.0 is the strict A/B win ("resumed beats full");
// the fairness gate runs with factor 1.5 ("legit p99 under attack stays
// within 1.5x of attack-free").
func assertP99LT(spec string, factor float64, base, cur *loadgen.BenchRecord) {
	parts := strings.SplitN(spec, "<", 2)
	if len(parts) != 2 || parts[0] == "" || parts[1] == "" {
		fatal(fmt.Errorf("bad -assert-p99-lt spec %q (want 'curOp<baseOp')", spec))
	}
	if factor <= 0 {
		fatal(fmt.Errorf("bad -p99-factor %g (must be positive)", factor))
	}
	curOp, baseOp := parts[0], parts[1]
	if base.Mismatches > 0 || cur.Mismatches > 0 {
		fatal(fmt.Errorf("digest mismatches present (baseline %d, current %d)", base.Mismatches, cur.Mismatches))
	}
	b, ok := base.Ops[baseOp]
	if !ok {
		fatal(fmt.Errorf("baseline record has no op %q", baseOp))
	}
	c, ok := cur.Ops[curOp]
	if !ok {
		fatal(fmt.Errorf("current record has no op %q", curOp))
	}
	if c.Count == 0 || b.Count == 0 {
		fatal(fmt.Errorf("empty samples: %q n=%d, %q n=%d", curOp, c.Count, baseOp, b.Count))
	}
	bound := float64(b.P99US) * factor
	if float64(c.P99US) >= bound {
		fatal(fmt.Errorf("%q p99 %dµs (n=%d) not below %q p99 %dµs x %.2f = %.0fµs (n=%d)",
			curOp, c.P99US, c.Count, baseOp, b.P99US, factor, bound, b.Count))
	}
	fmt.Printf("benchcmp: %q p99 %dµs (n=%d, p50 %dµs) within %.2fx of %q p99 %dµs (n=%d, p50 %dµs) — ratio %.2f\n",
		curOp, c.P99US, c.Count, c.P50US, factor, baseOp, b.P99US, b.Count, b.P50US,
		float64(c.P99US)/float64(b.P99US))
}

// assertRPSGT is the serve-bench batched A/B contract: the current
// (batched) record must deliver throughput above the baseline (scalar)
// record times factor, with zero digest mismatches on either side.
func assertRPSGT(factor float64, base, cur *loadgen.BenchRecord) {
	if factor <= 0 {
		fatal(fmt.Errorf("bad -rps-factor %g (must be positive)", factor))
	}
	if base.Mismatches > 0 || cur.Mismatches > 0 {
		fatal(fmt.Errorf("digest mismatches present (baseline %d, current %d)", base.Mismatches, cur.Mismatches))
	}
	if base.ThroughputRPS <= 0 || cur.ThroughputRPS <= 0 {
		fatal(fmt.Errorf("empty throughput: baseline %.1f rps, current %.1f rps",
			base.ThroughputRPS, cur.ThroughputRPS))
	}
	bound := base.ThroughputRPS * factor
	if cur.ThroughputRPS <= bound {
		fatal(fmt.Errorf("throughput %.1f rps not above baseline %.1f rps x %.2f = %.1f rps",
			cur.ThroughputRPS, base.ThroughputRPS, factor, bound))
	}
	fmt.Printf("benchcmp: throughput %.1f rps above baseline %.1f rps x %.2f — ratio %.2f\n",
		cur.ThroughputRPS, base.ThroughputRPS, factor, cur.ThroughputRPS/base.ThroughputRPS)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchcmp:", err)
	os.Exit(1)
}

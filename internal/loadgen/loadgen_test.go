package loadgen

import (
	"reflect"
	"testing"

	"wisp/internal/serve"
)

// TestSummarizeNearestRank pins the ceil(p·n) quantile rank so small
// samples never report p50 below the true median.
func TestSummarizeNearestRank(t *testing.T) {
	s := summarize([]int64{40, 10, 30, 20})
	if s.P50 != 20 {
		t.Errorf("n=4 p50 = %d, want 20 (2nd smallest)", s.P50)
	}
	if s.P95 != 40 || s.P99 != 40 || s.Max != 40 || s.Min != 10 {
		t.Errorf("n=4 tails %+v", s)
	}

	s = summarize([]int64{50, 10, 30, 20, 40})
	if s.P50 != 30 {
		t.Errorf("n=5 p50 = %d, want 30 (the median)", s.P50)
	}

	// n=16 at p95: ceil(15.2) = 16 → the maximum, where round-to-nearest
	// used to pick the 15th sample.
	us := make([]int64, 16)
	for i := range us {
		us[i] = int64((i + 1) * 10)
	}
	if s = summarize(us); s.P95 != 160 {
		t.Errorf("n=16 p95 = %d, want 160", s.P95)
	}

	if s = summarize([]int64{7}); s.P50 != 7 || s.P99 != 7 {
		t.Errorf("n=1 summary %+v", s)
	}
	if s = summarize(nil); s.Count != 0 {
		t.Errorf("empty summary %+v", s)
	}
}

// TestScheduleDecorrelated checks the op/size mix fix: with |Ops| and
// |Mix| sharing a factor, the old lockstep striding only ever paired op
// j with size j; independent draws must cover the full cross product,
// deterministically per seed.
func TestScheduleDecorrelated(t *testing.T) {
	cfg := Config{
		Mix:       []int{16, 32},
		Ops:       []serve.Op{serve.OpMD5, serve.OpSHA1},
		PerClient: 64,
		Seed:      5,
	}.withDefaults()

	type pair struct {
		size int
		op   serve.Op
	}
	seen := make(map[pair]bool)
	for client := 0; client < cfg.Clients; client++ {
		for _, it := range cfg.schedule(client) {
			seen[pair{it.size, it.op}] = true
		}
	}
	for _, size := range cfg.Mix {
		for _, op := range cfg.Ops {
			if !seen[pair{size, op}] {
				t.Errorf("op %s never exercised at size %d — mix still correlated", op, size)
			}
		}
	}

	if !reflect.DeepEqual(cfg.schedule(0), cfg.schedule(0)) {
		t.Error("schedule is not deterministic for a fixed seed")
	}
	if reflect.DeepEqual(cfg.schedule(0), cfg.schedule(1)) {
		t.Error("clients 0 and 1 drew identical schedules")
	}
}

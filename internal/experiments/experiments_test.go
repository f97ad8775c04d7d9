package experiments

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// shortCfg keeps experiment tests fast while exercising every code
// path; the benchmark harness runs the full sizes.
func shortCfg() Config {
	return Config{Seed: 777, Short: true}
}

func TestFig1aShapes(t *testing.T) {
	r, err := Fig1a(shortCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Curves) != 2 {
		t.Fatalf("pairs = %d, want 2", len(r.Curves))
	}
	for pair, curves := range r.Curves {
		if len(curves) != 4 {
			t.Errorf("%s: %d scorers, want 4", pair, len(curves))
		}
		for name, pts := range curves {
			if len(pts) == 0 {
				t.Errorf("%s/%s: empty curve", pair, name)
			}
			// Latency grows with deferral fraction.
			for i := 1; i < len(pts); i++ {
				if pts[i].AvgLatency < pts[i-1].AvgLatency-1e-9 {
					t.Errorf("%s/%s: latency not monotone", pair, name)
				}
			}
		}
	}
	if len(r.Variants) != 8 {
		t.Errorf("variants = %d, want 8", len(r.Variants))
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "Figure 1a") {
		t.Error("render missing title")
	}
}

func TestFig1bEasyFractions(t *testing.T) {
	r, err := Fig1b(shortCfg())
	if err != nil {
		t.Fatal(err)
	}
	for pair, p := range r.Pairs {
		if p.EasyFraction < 0.15 || p.EasyFraction > 0.45 {
			t.Errorf("%s: easy fraction %.2f outside paper range", pair, p.EasyFraction)
		}
		if len(p.PickScoreDiff) == 0 || len(p.ConfidenceDiff) == 0 {
			t.Errorf("%s: missing samples", pair)
		}
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "Figure 1b") {
		t.Error("render missing title")
	}
}

func TestFig1cFrontier(t *testing.T) {
	r, err := Fig1c(shortCfg())
	if err != nil {
		t.Fatal(err)
	}
	if r.Configs == 0 || len(r.Frontier) == 0 {
		t.Fatal("no configurations enumerated")
	}
	// Frontier must be sorted by throughput with decreasing FID.
	for i := 1; i < len(r.Frontier); i++ {
		if r.Frontier[i].ThroughputQPS < r.Frontier[i-1].ThroughputQPS {
			t.Error("frontier not sorted by throughput")
		}
		if r.Frontier[i].FID < r.Frontier[i-1].FID-1e-9 {
			t.Error("frontier FID should not improve as throughput grows")
		}
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "Pareto") {
		t.Error("render missing frontier")
	}
}

func TestTable1(t *testing.T) {
	rows := Table1()
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	if !rows[4].QueryAware || rows[4].Allocation != "Dynamic" {
		t.Error("DiffServe row wrong")
	}
	var buf bytes.Buffer
	RenderTable1(&buf)
	if !strings.Contains(buf.String(), "DiffServe") {
		t.Error("render missing rows")
	}
}

func TestFig9SLOSweep(t *testing.T) {
	r, err := Fig9(shortCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) < 3 {
		t.Fatalf("points = %d", len(r.Points))
	}
	// Looser SLOs must not make violations dramatically worse.
	first, last := r.Points[0], r.Points[len(r.Points)-1]
	if last.ViolationRatio > first.ViolationRatio+0.05 {
		t.Errorf("violations grew with looser SLO: %.3f -> %.3f", first.ViolationRatio, last.ViolationRatio)
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "Figure 9") {
		t.Error("render missing title")
	}
}

func TestMILPOverheadUnderPaperBudget(t *testing.T) {
	r, err := MILPOverhead(shortCfg())
	if err != nil {
		t.Fatal(err)
	}
	if r.Solves == 0 || r.MeanMillis <= 0 {
		t.Fatalf("bad measurement %+v", r)
	}
	// The paper reports ~10ms with Gurobi; our solver should stay in
	// the same regime (well under the 2s control interval).
	if r.MeanMillis > 200 {
		t.Errorf("mean solve time %.1fms too slow for a 2s control loop", r.MeanMillis)
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "MILP") {
		t.Error("render missing title")
	}
}

func TestFig8AblationOrdering(t *testing.T) {
	r, err := Fig8(shortCfg())
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Summary{}
	for _, s := range r.Summaries {
		byName[s.Approach] = s
	}
	dd, ok := byName["diffserve"]
	if !ok {
		t.Fatal("diffserve missing from ablation")
	}
	st, ok := byName["diffserve-static-threshold"]
	if !ok {
		t.Fatal("static-threshold missing")
	}
	// The static threshold gives up off-peak quality (higher FID).
	if !(dd.FID <= st.FID+0.3) {
		t.Errorf("diffserve FID %.2f should be at least as good as static threshold %.2f", dd.FID, st.FID)
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "Figure 8") {
		t.Error("render missing title")
	}
}

// TestSimVsClusterAgreement runs the simulator-vs-cluster validation
// over both transports at 50x real time: the zero-serialization
// in-process path and a real socket between components must each agree
// with the simulator.
func TestSimVsClusterAgreement(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster comparison skipped in -short mode")
	}
	for _, transport := range []string{"inproc", "tcp"} {
		t.Run(transport, func(t *testing.T) {
			cfg := shortCfg()
			cfg.ClusterTransport = transport
			r, err := SimVsCluster(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if math.IsNaN(r.Sim.FID) || math.IsNaN(r.Cluster.FID) {
				t.Fatal("FID not computed")
			}
			if !strings.Contains(r.Cluster.Approach, transport) {
				t.Errorf("cluster approach %q does not name the transport", r.Cluster.Approach)
			}
			// The paper reports 0.56% FID / 1.1% violation agreement. Run in
			// isolation this reproduction achieves ~0.03% / ~0.02, but the
			// cluster side runs on (compressed) wall-clock time and
			// `go test ./...` executes packages concurrently, so CPU
			// contention inflates the cluster's latencies. The bounds
			// below leave headroom for that.
			if r.FIDDeltaPct > 8 {
				t.Errorf("FID delta %.2f%% too large", r.FIDDeltaPct)
			}
			if r.ViolationDeltaAbs > 0.20 {
				t.Errorf("violation delta %.3f too large", r.ViolationDeltaAbs)
			}
			var buf bytes.Buffer
			r.Render(&buf)
			if !strings.Contains(buf.String(), "Simulator vs. cluster") {
				t.Error("render missing title")
			}
		})
	}
}

// TestSimVsClusterShardedTCP validates the sharded LB tier end to
// end: the cluster side runs two LB shards over raw TCP (per-shard
// "lb/<shard>" RNG streams), must still agree with the simulator, and
// the shard-parity leg must reproduce the single-LB completed/dropped
// counts exactly on the deterministic static trace.
func TestSimVsClusterShardedTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster comparison skipped in -short mode")
	}
	cfg := shortCfg()
	cfg.ClusterTransport = "tcp"
	cfg.ClusterLBShards = 2
	r, err := SimVsCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(r.Sim.FID) || math.IsNaN(r.Cluster.FID) {
		t.Fatal("FID not computed")
	}
	if !strings.Contains(r.Cluster.Approach, "2 lb shards") {
		t.Errorf("cluster approach %q does not name the shard count", r.Cluster.Approach)
	}
	if r.FIDDeltaPct > 8 {
		t.Errorf("FID delta %.2f%% too large", r.FIDDeltaPct)
	}
	if r.ViolationDeltaAbs > 0.20 {
		t.Errorf("violation delta %.3f too large", r.ViolationDeltaAbs)
	}
	p := r.ShardParity
	if p == nil {
		t.Fatal("shard parity not populated")
	}
	if p.SingleCompleted+p.SingleDropped != p.Queries {
		t.Errorf("single-LB accounting: %d completed + %d dropped != %d queries",
			p.SingleCompleted, p.SingleDropped, p.Queries)
	}
	if !p.Matches() {
		t.Errorf("sharded topologies diverged from single LB: single %d/%d, sharded %d/%d, resharded %d/%d (completed/dropped)",
			p.SingleCompleted, p.SingleDropped, p.ShardedCompleted, p.ShardedDropped,
			p.ReshardCompleted, p.ReshardDropped)
	}
	if p.SingleDropped != 0 {
		t.Errorf("parity trace dropped %d queries under light load", p.SingleDropped)
	}
	if p.ReshardCompleted != p.Queries || p.ReshardDropped != 0 {
		t.Errorf("2->3-shard mid-trace reshard lost queries: %d completed / %d dropped of %d",
			p.ReshardCompleted, p.ReshardDropped, p.Queries)
	}
	if p.UnevenWorkers != 7 || p.UnevenShards != 3 {
		t.Errorf("uneven leg ran %d workers / %d shards, want 7 / 3", p.UnevenWorkers, p.UnevenShards)
	}
	if p.UnevenCompleted != p.UnevenSingleCompleted || p.UnevenDropped != p.UnevenSingleDropped {
		t.Errorf("7-worker/3-shard leg diverged from its single-LB baseline: single %d/%d, sharded %d/%d (completed/dropped)",
			p.UnevenSingleCompleted, p.UnevenSingleDropped, p.UnevenCompleted, p.UnevenDropped)
	}
	if p.UnevenSingleDropped != 0 {
		t.Errorf("uneven parity baseline dropped %d queries under light load", p.UnevenSingleDropped)
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "shard parity") {
		t.Error("render missing shard parity line")
	}
}

func TestReuseStudyCompatibility(t *testing.T) {
	r, err := ReuseStudy(shortCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	var turbo, xs ReuseRow
	for _, row := range r.Rows {
		if row.Pair == "sdturbo->sdv15" {
			turbo = row
		} else {
			xs = row
		}
	}
	// Paper §5: SD-Turbo reuse shows no significant FID change; SDXS
	// reuse degrades FID (18.55 -> 19.75, i.e. ~+1.2).
	turboDelta := turbo.FIDReuse - turbo.FIDFresh
	xsDelta := xs.FIDReuse - xs.FIDFresh
	if turboDelta > 0.7 {
		t.Errorf("SD-Turbo reuse delta %.2f should be insignificant", turboDelta)
	}
	if xsDelta < 0.6 || xsDelta > 2.0 {
		t.Errorf("SDXS reuse delta %.2f, want ~+1.2 (paper)", xsDelta)
	}
	if !(xsDelta > turboDelta) {
		t.Errorf("SDXS reuse should degrade more than SD-Turbo: %.2f vs %.2f", xsDelta, turboDelta)
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "reuse") {
		t.Error("render missing title")
	}
}

func TestMultiLevelStudyShapes(t *testing.T) {
	r, err := MultiLevelStudy(shortCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Stages) != 3 {
		t.Fatalf("stages = %v", r.Stages)
	}
	if len(r.Points) == 0 {
		t.Fatal("no operating points")
	}
	for _, p := range r.Points {
		sum := 0.0
		for _, f := range p.StageFractions {
			sum += f
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("stage fractions sum to %v", sum)
		}
		if p.FID <= 0 || p.AvgLatency <= 0 {
			t.Errorf("bad point %+v", p)
		}
	}
	if r.BestTwoLevelFID <= 0 {
		t.Error("two-level comparison missing")
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "three-level") {
		t.Error("render missing title")
	}
}

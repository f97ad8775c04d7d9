package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"diffserve/internal/allocator"
	"diffserve/internal/cascade"
	"diffserve/internal/controller"
	"diffserve/internal/discriminator"
	"diffserve/internal/imagespace"
	"diffserve/internal/loadbalancer"
	"diffserve/internal/model"
	"diffserve/internal/stats"
	"diffserve/internal/trace"
)

// postJSON talks to an LBServer's mux the way an external JSON client
// would: plain JSON over HTTP, no LBConn.
func postJSON(client *http.Client, url string, in, out interface{}) error {
	body, err := json.Marshal(in)
	if err != nil {
		return fmt.Errorf("cluster: marshal %s: %w", url, err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("cluster: post %s: %w", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("cluster: post %s: status %s", url, resp.Status)
	}
	if out == nil {
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("cluster: decode %s: %w", url, err)
	}
	return nil
}

// getJSON fetches a JSON document.
func getJSON(client *http.Client, url string, out interface{}) error {
	resp, err := client.Get(url)
	if err != nil {
		return fmt.Errorf("cluster: get %s: %w", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("cluster: get %s: status %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

type fixtures struct {
	space  *imagespace.Space
	light  *model.Variant
	heavy  *model.Variant
	scorer discriminator.Scorer
	prof   *cascade.DeferralProfile
}

func newFixtures(t testing.TB) *fixtures {
	t.Helper()
	rng := stats.NewRNG(808)
	space, err := imagespace.NewSpace(imagespace.DefaultSpaceConfig(), rng.Stream("space"))
	if err != nil {
		t.Fatal(err)
	}
	reg := model.BuiltinRegistry()
	light, heavy := reg.MustGet("sdturbo"), reg.MustGet("sdv15")
	d, err := discriminator.New(discriminator.Config{
		Arch: discriminator.ArchEfficientNet, Train: discriminator.TrainGT,
	}, rng.Stream("disc"))
	if err != nil {
		t.Fatal(err)
	}
	casc, err := cascade.New(space, light, heavy, d)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := cascade.ProfileDeferral(casc, space.SampleQueries(900000, 600))
	if err != nil {
		t.Fatal(err)
	}
	return &fixtures{space: space, light: light, heavy: heavy, scorer: d, prof: prof}
}

func (f *fixtures) controller(t testing.TB, workers int, slo float64) *controller.Controller {
	t.Helper()
	a, err := allocator.NewMILP(allocator.Config{
		Light: f.light, Heavy: f.heavy,
		DiscPerImage: f.scorer.PerImageLatency(),
		Deferral:     f.prof,
		TotalWorkers: workers,
		SLO:          slo,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := controller.New(controller.Config{Alloc: a})
	if err != nil {
		t.Fatal(err)
	}
	return ctrl
}

func TestClockTimescale(t *testing.T) {
	c := NewClock(0.01)
	if c.Timescale() != 0.01 {
		t.Errorf("timescale = %v", c.Timescale())
	}
	start := time.Now()
	c.SleepTrace(1) // 1 trace second = 10ms wall
	if wall := time.Since(start); wall < 8*time.Millisecond || wall > 250*time.Millisecond {
		t.Errorf("scaled sleep took %v", wall)
	}
	if now := c.Now(); now < 0.5 || now > 30 {
		t.Errorf("trace now = %v", now)
	}
	c.SleepTrace(-1) // no-op
	if NewClock(0).Timescale() != 1 {
		t.Error("zero timescale should default to 1")
	}
}

func TestLBServerQueryCompleteRoundTrip(t *testing.T) {
	clock := NewClock(0.01)
	lb := NewLBServer(LBConfig{
		Mode: loadbalancer.ModeCascade, SLO: 5,
		LightMinExec: 0.1, HeavyMinExec: 1.78, Clock: clock, Seed: 1,
	})
	srv := httptest.NewServer(lb.Mux())
	defer srv.Close()
	client := srv.Client()

	// Submit asynchronously; the call blocks until completion.
	respCh := make(chan QueryResponse, 1)
	go func() {
		var resp QueryResponse
		if err := postJSON(client, srv.URL+"/query", QueryMsg{ID: 7, Arrival: 0.001}, &resp); err != nil {
			t.Error(err)
		}
		respCh <- resp
	}()

	// Pull it as a light worker.
	var pulled PullResponse
	deadline := time.Now().Add(5 * time.Second)
	for len(pulled.Queries) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("query never appeared on the light queue")
		}
		if err := postJSON(client, srv.URL+"/pull", PullRequest{WorkerID: 0, Role: "light", Max: 4}, &pulled); err != nil {
			t.Fatal(err)
		}
	}
	if pulled.Queries[0].ID != 7 {
		t.Fatalf("pulled %+v", pulled.Queries)
	}

	// Complete it above threshold (threshold defaults to 0).
	err := postJSON(client, srv.URL+"/complete", CompleteRequest{
		WorkerID: 0, Role: "light",
		Items: []CompleteItem{{ID: 7, Arrival: 0.001, Variant: "sdturbo", Features: []float64{1}, Confidence: 0.9}},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case resp := <-respCh:
		if resp.Dropped || resp.Variant != "sdturbo" || resp.Deferred {
			t.Errorf("response = %+v", resp)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("client never unblocked")
	}
	if lb.Collector().Len() != 1 {
		t.Errorf("collector has %d records", lb.Collector().Len())
	}
}

func TestLBServerDefersBelowThreshold(t *testing.T) {
	clock := NewClock(0.01)
	lb := NewLBServer(LBConfig{
		Mode: loadbalancer.ModeCascade, SLO: 50,
		LightMinExec: 0.1, HeavyMinExec: 1.78, Clock: clock, Seed: 1,
	})
	srv := httptest.NewServer(lb.Mux())
	defer srv.Close()
	// Resolve the deferred query's blocked waiter before Close.
	defer lb.DrainRemaining()
	client := srv.Client()

	// Raise the threshold so the completion defers.
	if err := postJSON(client, srv.URL+"/configure", ConfigureLBRequest{Threshold: 0.8}, nil); err != nil {
		t.Fatal(err)
	}
	go func() {
		var resp QueryResponse
		_ = postJSON(client, srv.URL+"/query", QueryMsg{ID: 1, Arrival: 0.001}, &resp)
	}()
	var pulled PullResponse
	deadline := time.Now().Add(5 * time.Second)
	for len(pulled.Queries) == 0 && time.Now().Before(deadline) {
		_ = postJSON(client, srv.URL+"/pull", PullRequest{Role: "light", Max: 1}, &pulled)
	}
	// Low-confidence completion: must land on the heavy queue.
	_ = postJSON(client, srv.URL+"/complete", CompleteRequest{
		Role:  "light",
		Items: []CompleteItem{{ID: 1, Arrival: 0.001, Variant: "sdturbo", Confidence: 0.2}},
	}, nil)
	var stats LBStats
	if err := getJSON(client, srv.URL+"/stats", &stats); err != nil {
		t.Fatal(err)
	}
	if stats.HeavyQueueLen != 1 {
		t.Errorf("heavy queue = %d, want 1 (deferred)", stats.HeavyQueueLen)
	}
}

func TestLBServerShedsExpired(t *testing.T) {
	clock := NewClock(0.001)
	lb := NewLBServer(LBConfig{
		Mode: loadbalancer.ModeCascade, SLO: 0.5,
		LightMinExec: 0.1, HeavyMinExec: 1.78, Clock: clock, Seed: 1,
	})
	srv := httptest.NewServer(lb.Mux())
	defer srv.Close()
	client := srv.Client()

	done := make(chan QueryResponse, 1)
	go func() {
		var resp QueryResponse
		_ = postJSON(client, srv.URL+"/query", QueryMsg{ID: 9, Arrival: 0.0001}, &resp)
		done <- resp
	}()
	// Wait past the deadline in trace time, then pull: the item must
	// be shed, not served.
	time.Sleep(5 * time.Millisecond) // 5 trace seconds at 0.001 scale
	var pulled PullResponse
	if err := postJSON(client, srv.URL+"/pull", PullRequest{Role: "light", Max: 4}, &pulled); err != nil {
		t.Fatal(err)
	}
	if len(pulled.Queries) != 0 {
		t.Errorf("expired query was handed out: %+v", pulled.Queries)
	}
	select {
	case resp := <-done:
		if !resp.Dropped {
			t.Errorf("response = %+v, want dropped", resp)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter never resolved after shed")
	}
}

func TestWorkerConfigureAndStats(t *testing.T) {
	f := newFixtures(t)
	clock := NewClock(0.001)
	ws := NewWorkerServer(WorkerConfig{
		ID: 3, Space: f.space,
		Light: f.light, Heavy: f.heavy, Scorer: f.scorer, Clock: clock,
		DisableLoadDelay: true,
	})
	srv := httptest.NewServer(ws.Mux())
	defer srv.Close()
	client := srv.Client()

	if err := postJSON(client, srv.URL+"/configure", ConfigureWorkerRequest{Role: "light", Batch: 8}, nil); err != nil {
		t.Fatal(err)
	}
	var st WorkerStats
	if err := getJSON(client, srv.URL+"/stats", &st); err != nil {
		t.Fatal(err)
	}
	if st.ID != 3 || st.Role != "light" || st.Batch != 8 {
		t.Errorf("stats = %+v", st)
	}
}

func TestHarnessEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster harness skipped in -short mode")
	}
	f := newFixtures(t)
	tr, err := trace.Static(8, 40, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(HarnessConfig{
		Space: f.space, Light: f.light, Heavy: f.heavy, Scorer: f.scorer,
		Mode: loadbalancer.ModeCascade, Workers: 8, SLO: 5,
		Trace: tr, Ctrl: f.controller(t, 8, 5),
		Timescale: 0.05, Seed: 42, DisableLoadDelay: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Queries == 0 {
		t.Fatal("no queries replayed")
	}
	if res.Collector.Len() < res.Queries*9/10 {
		t.Errorf("recorded %d of %d queries", res.Collector.Len(), res.Queries)
	}
	sum := res.Summary()
	if math.IsNaN(sum.FID) {
		t.Error("FID not computable")
	}
	// At 8 QPS with 8 workers, the cluster must serve nearly everything.
	if sum.ViolationRatio > 0.15 {
		t.Errorf("violation ratio = %v, too high for light load", sum.ViolationRatio)
	}
	// The cascade must actually defer some queries.
	if sum.DeferRatio == 0 {
		t.Error("no deferrals observed")
	}
	if len(res.Plans) == 0 {
		t.Error("no plans applied")
	}
	t.Logf("cluster run: FID=%.2f viol=%.3f defer=%.2f wall=%.1fs", sum.FID, sum.ViolationRatio, sum.DeferRatio, res.WallSeconds)
}

func TestHarnessValidation(t *testing.T) {
	f := newFixtures(t)
	tr, _ := trace.Static(2, 5, 1)
	good := HarnessConfig{
		Space: f.space, Light: f.light, Heavy: f.heavy, Scorer: f.scorer,
		Mode: loadbalancer.ModeCascade, Workers: 2, SLO: 5,
		Trace: tr, Ctrl: f.controller(t, 2, 5),
	}
	cases := []func(*HarnessConfig){
		func(c *HarnessConfig) { c.Space = nil },
		func(c *HarnessConfig) { c.Workers = 0 },
		func(c *HarnessConfig) { c.SLO = 0 },
		func(c *HarnessConfig) { c.Trace = nil },
		func(c *HarnessConfig) { c.Ctrl = nil },
		func(c *HarnessConfig) { c.Scorer = nil },
	}
	for i, mod := range cases {
		bad := good
		mod(&bad)
		if _, err := Run(bad); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

package cluster

import (
	"context"
	"math"
	"testing"
	"time"

	"diffserve/internal/loadbalancer"
	"diffserve/internal/trace"
)

func newTestLB(timescale float64) *LBServer {
	return NewLBServer(LBConfig{
		Mode: loadbalancer.ModeCascade, SLO: 50,
		LightMinExec: 0.1, HeavyMinExec: 1.78,
		Clock: NewClock(timescale), Seed: 1,
	})
}

func TestWaitUntilInterruptible(t *testing.T) {
	c := NewClock(1) // 1 trace second = 1 wall second
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	if c.WaitUntil(ctx, c.Now()+30, nil) {
		t.Error("cancelled wait reported true")
	}
	if wall := time.Since(start); wall > 5*time.Second {
		t.Errorf("cancelled wait blocked for %v", wall)
	}
	deadline := c.Now() + 0.001
	if !c.WaitUntil(context.Background(), deadline, nil) {
		t.Error("uncancelled wait should report true")
	}
	if now := c.Now(); now < deadline {
		t.Errorf("wait returned at %v, before its deadline %v", now, deadline)
	}
	if c.WaitUntil(ctx, c.Now()+0.001, nil) {
		t.Error("wait under a cancelled context should report false")
	}
	wake := make(chan struct{})
	close(wake)
	start = time.Now()
	if !c.WaitUntil(context.Background(), c.Now()+30, wake) {
		t.Error("woken wait should report true")
	}
	if wall := time.Since(start); wall > 5*time.Second {
		t.Errorf("woken wait blocked for %v", wall)
	}
}

// TestWaitUntilAllocs pins that a wait allocates nothing: a long poll
// parks on a pooled timer, and a schedule wait shorter than a tick
// sleeps in the kernel.
func TestWaitUntilAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	c := NewClock(1e-6) // 1 trace second = 1 µs wall
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	wake := make(chan struct{})
	for _, w := range []struct {
		name string
		wake <-chan struct{}
	}{{"long poll", wake}, {"schedule wait", nil}} {
		if n := testing.AllocsPerRun(200, func() {
			c.WaitUntil(ctx, c.Now()+20, w.wake)
		}); n != 0 {
			t.Errorf("%s: WaitUntil allocated %v times per wait, want 0", w.name, n)
		}
	}
}

func TestPullLongPollCancellable(t *testing.T) {
	lb := newTestLB(1) // 60 trace seconds would be a minute of wall time
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	resp, _ := pull(ctx, NewLocalLBConn(lb), PullRequest{Role: "light", Max: 1, Wait: 60})
	if len(resp.Queries) != 0 {
		t.Fatalf("cancelled long poll returned %+v", resp.Queries)
	}
	if wall := time.Since(start); wall > 5*time.Second {
		t.Errorf("cancelled long poll blocked for %v", wall)
	}
}

func TestSubmitBatchResultsRoundTrip(t *testing.T) {
	lb := newTestLB(0.001)
	lb.SubmitBatchReq(SubmitRequest{Queries: []QueryMsg{{ID: 1, Arrival: 0.001}, {ID: 2, Arrival: 0.001}}})

	pulled, _ := pull(context.Background(), NewLocalLBConn(lb), PullRequest{Role: "light", Max: 2, Wait: 5})
	if len(pulled.Queries) != 2 {
		t.Fatalf("pulled %+v", pulled.Queries)
	}
	items := make([]CompleteItem, len(pulled.Queries))
	for i, q := range pulled.Queries {
		items[i] = CompleteItem{ID: q.ID, Arrival: q.Arrival, Variant: "sdturbo", Confidence: 0.9}
	}
	lb.Complete(CompleteRequest{Role: "light", Items: items})

	got := map[int]bool{}
	for len(got) < 2 {
		resp, _ := pollResults(context.Background(), NewLocalLBConn(lb), ResultsRequest{Max: 10, Wait: 5})
		if len(resp.Results) == 0 {
			t.Fatal("PollResults returned empty before all results arrived")
		}
		for _, r := range resp.Results {
			if r.Dropped || r.Variant != "sdturbo" {
				t.Errorf("result %+v", r)
			}
			got[r.ID] = true
		}
	}
	if !got[1] || !got[2] {
		t.Errorf("missing results: %v", got)
	}
	if lb.Collector().Len() != 2 {
		t.Errorf("collector has %d records", lb.Collector().Len())
	}
}

// TestDrainRefusesLatePushes pins the end-of-run shutdown semantics:
// once DrainRemaining has swept the queues, a submission or a
// cascade deferral that lost the race with the sweep must resolve as
// a drop — never sit stranded in a queue no worker will pull again.
func TestDrainRefusesLatePushes(t *testing.T) {
	lb := newTestLB(0.001)
	lb.Configure(ConfigureLBRequest{Threshold: 0.8})

	// A query pulled by a worker while the drain runs...
	lb.SubmitBatchReq(SubmitRequest{Queries: []QueryMsg{{ID: 1, Arrival: 0.001}}})
	pulled, _ := pull(context.Background(), NewLocalLBConn(lb), PullRequest{Role: "light", Max: 1, Wait: 5})
	if len(pulled.Queries) != 1 {
		t.Fatalf("pulled %+v", pulled.Queries)
	}
	lb.DrainRemaining()

	// ...completes below threshold afterwards: the deferral must not
	// strand, and late submissions must drop too.
	lb.Complete(CompleteRequest{Role: "light", Items: []CompleteItem{
		{ID: 1, Arrival: 0.001, Variant: "sdturbo", Confidence: 0.2},
	}})
	lb.SubmitBatchReq(SubmitRequest{Queries: []QueryMsg{{ID: 2, Arrival: 0.002}}})

	got := map[int]bool{}
	for len(got) < 2 {
		resp, _ := pollResults(context.Background(), NewLocalLBConn(lb), ResultsRequest{Max: 10, Wait: 5})
		if len(resp.Results) == 0 {
			t.Fatalf("late pushes never resolved: have %v", got)
		}
		for _, r := range resp.Results {
			if !r.Dropped {
				t.Errorf("post-drain result %+v, want dropped", r)
			}
			got[r.ID] = true
		}
	}
	if stats := lb.Stats(); stats.HeavyQueueLen != 0 || stats.LightQueueLen != 0 {
		t.Errorf("post-drain queues not empty: %+v", stats)
	}
}

// Conn-level behavioral assertions (query round trips, worker conns,
// long-poll semantics, shutdown cases) live in the conformance suite:
// see TestTransportConformance in conformance_test.go, which runs
// them over every transport.

// TestHarnessTransportEquivalence replays the same lightly loaded
// trace at a fixed seed through both transports and requires
// identical completed/dropped outcomes: with ample capacity the
// outcome set is timing-insensitive, so any divergence indicates a
// transport bug rather than scheduling noise.
func TestHarnessTransportEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("transport equivalence harness skipped in -short mode")
	}
	f := newFixtures(t)
	tr, err := trace.Static(6, 15, 1)
	if err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		completed, dropped, queries int
		fid                         float64
	}
	outcomes := map[string]outcome{}
	for _, name := range []string{TransportInproc, TransportTCP} {
		res, err := Run(HarnessConfig{
			Space: f.space, Light: f.light, Heavy: f.heavy, Scorer: f.scorer,
			Mode: loadbalancer.ModeCascade, Workers: 8, SLO: 5,
			Trace: tr, Ctrl: f.controller(t, 8, 5),
			Timescale: 0.02, Seed: 4242, DisableLoadDelay: true,
			Transport: name,
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sum := res.Summary()
		dropped := int(math.Round(sum.DropRatio * float64(sum.Queries)))
		outcomes[name] = outcome{
			completed: sum.Queries - dropped, dropped: dropped,
			queries: res.Queries, fid: sum.FID,
		}
		t.Logf("%-7s completed=%d dropped=%d FID=%.2f wall=%.2fs",
			name, outcomes[name].completed, outcomes[name].dropped, sum.FID, res.WallSeconds)
	}
	base := outcomes[TransportInproc]
	if base.dropped != 0 {
		t.Errorf("inproc transport dropped %d queries under light load", base.dropped)
	}
	for name, o := range outcomes {
		if o.queries != base.queries || o.completed != base.completed || o.dropped != base.dropped {
			t.Errorf("%s outcome %+v != inproc %+v", name, o, base)
		}
	}
}

// TestNewTransportNames pins the two-name vocabulary: empty means tcp,
// and the names of the deleted http transports are unknown.
func TestNewTransportNames(t *testing.T) {
	for name, want := range map[string]string{"": TransportTCP, "tcp": TransportTCP, "inproc": TransportInproc} {
		tp, err := NewTransport(name)
		if err != nil {
			t.Fatalf("NewTransport(%q): %v", name, err)
		}
		if tp.Name() != want {
			t.Errorf("NewTransport(%q).Name() = %q, want %q", name, tp.Name(), want)
		}
		tp.Close()
	}
	for _, name := range []string{"json", "binary", "http", "grpc"} {
		if _, err := NewTransport(name); err == nil {
			t.Errorf("NewTransport(%q) succeeded, want an unknown-transport error", name)
		}
	}
}

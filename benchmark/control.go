package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"diffserve/internal/allocator"
	"diffserve/internal/baselines"
	"diffserve/internal/cluster"
	"diffserve/internal/controller"
	"diffserve/internal/loadbalancer"
	"diffserve/internal/stats"
)

const (
	ticksPerSecond       = 800 // warm-started solve + stats poll + 17 configure RPCs
	pools10Pools         = 10
	pools10TicksPerSec   = 25
	controlShards        = 2
	controlPeriodSeconds = 2.0
)

// controlRig is an idle cluster with a controller attached.
type controlRig struct {
	env     *baselines.Env
	sample  *sample
	tp      cluster.Transport
	front   *cluster.ShardedLB
	workers []cluster.WorkerConn
	ctrl    *controller.Controller
	loop    *cluster.ControllerLoop
	cancel  context.CancelFunc
	loops   sync.WaitGroup // the worker loops
}

func (r *controlRig) close() {
	r.cancel()
	r.loops.Wait()
	r.front.Close()
	r.tp.Close()
}

func newControlRig(seed uint64) (*controlRig, error) {
	env, err := newEnv()
	if err != nil {
		return nil, err
	}
	// The sample prices each plan's quality: see planFID.
	smp, err := newSample(env, seed, deferFraction)
	if err != nil {
		return nil, err
	}
	tp, err := cluster.NewTransport(cluster.TransportTCP)
	if err != nil {
		return nil, err
	}
	clock := cluster.NewClock(1)
	shardConns := make([]cluster.LBConn, controlShards)
	for i := range shardConns {
		lb := cluster.NewLBServer(cluster.LBConfig{
			Mode: loadbalancer.ModeCascade, SLO: sloSeconds,
			LightMinExec: env.Light.Latency.Latency(1) + env.Scorer.PerImageLatency(),
			HeavyMinExec: env.Heavy.Latency.Latency(1),
			Clock:        clock, Seed: env.Seed, RNGStream: fmt.Sprintf("lb/%d", i),
		})
		if shardConns[i], err = tp.ServeLB(lb); err != nil {
			tp.Close()
			return nil, err
		}
	}
	front, err := cluster.NewShardedLB(cluster.ShardedLBConfig{Shards: shardConns, Clock: clock})
	if err != nil {
		tp.Close()
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	r := &controlRig{env: env, sample: smp, tp: tp, front: front, cancel: cancel}
	for i := 0; i < workers; i++ {
		ws := cluster.NewWorkerServer(cluster.WorkerConfig{
			ID: i, LB: shardConns[i%controlShards],
			Space: env.Space, Light: env.Light, Heavy: env.Heavy, Scorer: env.Scorer,
			Clock: clock, DisableLoadDelay: true,
		})
		wc, err := tp.ServeWorker(ws)
		if err != nil {
			r.close()
			return nil, err
		}
		r.workers = append(r.workers, wc)
		r.loops.Add(1)
		go func() {
			defer r.loops.Done()
			ws.Loop(ctx)
		}()
	}
	alloc, err := allocator.NewMILP(allocConfig(env))
	if err == nil {
		r.ctrl, err = controller.New(controller.Config{Alloc: alloc, Interval: controlPeriodSeconds})
	}
	if err != nil {
		r.close()
		return nil, err
	}
	r.loop = cluster.NewControllerLoop(cluster.ControllerConfig{
		Ctrl: r.ctrl, LB: front, Workers: r.workers,
		Mode: loadbalancer.ModeCascade, Clock: clock, Shards: controlShards,
	})
	return r, nil
}

func runControlTick(cfg runCfg) (*outcome, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(closedLoopProcs))
	rig, setupS, err := repeatSetup(cfg.setupRepeats, func() (*controlRig, error) { return newControlRig(cfg.seed) }, (*controlRig).close)
	if err != nil {
		return nil, err
	}
	defer rig.close()
	ticks := scaled(cfg.seconds, ticksPerSecond, 50)
	demand, err := azureTrace(controlPeriodSeconds * float64(ticks+1))
	if err != nil {
		return nil, err
	}
	arrivals := stats.NewRNG(cfg.seed).Stream("control-arrivals")

	tr, root := startTrace(cfg, 4*ticks+16)
	out := &outcome{attempted: ticks, metrics: map[string]float64{}, spans: tr}
	ctx := context.Background()
	tickMs := make([]float64, 0, ticks)
	good, infeasible := 0, 0
	runtime.GC()
	before := snapshotProc()
	last := time.Now()
	for k := 1; k <= ticks; k++ {
		t := controlPeriodSeconds * float64(k)
		tick := tr.begin(spTick, root, k)
		sp := tr.begin(spStatsPoll, tick, k)
		_, err := rig.front.Stats(ctx)
		tr.end(sp)
		if err != nil {
			out.failed++
			out.problemf("tick %d: stats poll: %v", k, err)
			tr.end(tick)
			continue
		}
		// The data plane is idle, so the polled counters are zero; the
		// controller is fed a Poisson draw around the demand curve instead,
		// which makes the sequence of problems solved the same in every
		// run of a seed.
		sp = tr.begin(spSolve, tick, k)
		plan, err := rig.ctrl.Tick(t, controller.TickInput{
			Arrivals:       arrivals.Poisson(controlPeriodSeconds * demand.RateAt(t)),
			ElapsedSeconds: controlPeriodSeconds,
		})
		tr.end(sp)
		if err != nil {
			out.failed++
			out.problemf("tick %d: %v", k, err)
			tr.end(tick)
			continue
		}
		sp = tr.begin(spConfigure, tick, k)
		rig.loop.Apply(ctx, plan)
		tr.end(sp)
		tr.end(tick)
		now := time.Now()
		tickMs = append(tickMs, float64(now.Sub(last))/1e6)
		last = now
		switch {
		case !plan.Feasible:
			infeasible++
			out.problemf("tick %d: infeasible plan at %.1f qps: %v", k, demand.RateAt(t), plan)
		case plan.LightWorkers+plan.HeavyWorkers > workers:
			out.problemf("tick %d: plan uses %d workers of %d: %v", k, plan.LightWorkers+plan.HeavyWorkers, workers, plan)
		default:
			good++
		}
	}
	tr.end(root)
	after := snapshotProc()
	solved, _ := rig.ctrl.SolveStats() // the controller is new: every LP is this run's

	// Apply drops RPC errors; a broken control channel shows here.
	if terr := transportError(rig.tp); terr != nil {
		out.failed++
		out.problemf("transport: %v", terr)
	}
	assigned := 0
	for i, wc := range rig.workers {
		ws, err := wc.Stats(ctx)
		if err != nil {
			out.failed++
			out.problemf("worker %d stats: %v", i, err)
		} else if ws.Role != "idle" {
			assigned++
		}
	}
	if plans := rig.ctrl.Plans(); len(plans) > 0 {
		if p := plans[len(plans)-1].Plan; assigned > workers || (p.Feasible && assigned == 0) {
			out.problemf("%d workers hold a role after the last plan %v", assigned, p)
		}
	}
	fidScore, err := planFID(rig.sample, rig.ctrl.Plans())
	if err != nil {
		return nil, err
	}

	m := out.metrics
	m["setup_s"] = setupS
	closedLoopMetrics(m, tickMs, 1)
	m["slo_attainment"] = float64(good) / float64(ticks)
	m["fid"] = fidScore
	if !cfg.traced {
		return out, nil
	}

	tickWall := tr.total(spTick)
	covered := 0.0
	for _, l := range []struct {
		name  spanName
		share string
	}{{spStatsPoll, "cluster.stats_poll_share"}, {spSolve, "controller.solve_share"}, {spConfigure, "cluster.configure_share"}} {
		m[l.share] = tr.total(l.name) / tickWall
		covered += m[l.share]
	}
	m["bench.span_coverage"] = covered
	if covered < 0.9 {
		out.problemf("call spans cover %.3f of tick wall time, want >= 0.9", covered)
	}
	us := tr.durations(spStatsPoll, 1e3)
	m["cluster.stats_poll_us_p50"], m["cluster.stats_poll_us_p99"] = quantile(us, 0.50), quantile(us, 0.99)
	us = tr.durations(spConfigure, 1e3)
	m["cluster.configure_us_p50"], m["cluster.configure_us_p99"] = quantile(us, 0.50), quantile(us, 0.99)
	ms := tr.durations(spSolve, 1e6)
	m["controller.solve_ms_p50"], m["controller.solve_ms_p99"] = quantile(ms, 0.50), quantile(ms, 0.99)
	m["controller.allocs_per_tick"] = float64(after.mallocs-before.mallocs) / float64(ticks)
	warm, cold := float64(solved.WarmLPs), float64(solved.ColdLPs)
	m["milp.warm_lps_per_tick"] = warm / float64(ticks)
	m["milp.cold_lps_per_tick"] = cold / float64(ticks)
	if warm+cold > 0 {
		m["milp.warm_share"] = warm / (warm + cold)
	}
	m["allocator.infeasible_share"] = float64(infeasible) / float64(ticks)
	processMetrics(m, before, after, ticks)
	if m["allocator.solve_ms_mean_pools10"], err = pools10(rig.env, scaled(cfg.seconds, pools10TicksPerSec, 5)); err != nil {
		return nil, err
	}
	return out, nil
}

// planFID is the quality the plans would deliver: tick k serves the
// next cycleQueries sample queries at its plan's threshold — light
// image if the confidence clears it, heavy image otherwise — and the
// served images are scored against the sample's real ones. It moves
// when a solver change picks different thresholds.
func planFID(smp *sample, plans []controller.PlanAt) (float64, error) {
	acc := stats.NewMomentAccumulator(len(smp.light[0].Features))
	for k, p := range plans {
		for j := 0; j < cycleQueries; j++ {
			i := (k*cycleQueries + j) % sampleSize
			if smp.light[i].Confidence < p.Plan.Threshold {
				acc.Add(smp.heavy[i].Features)
			} else {
				acc.Add(smp.light[i].Features)
			}
		}
	}
	// json cannot carry the NaN a two-image FID would be; say why instead.
	if acc.Count() < 2*acc.Dim() {
		return 0, fmt.Errorf("plan FID needs at least %d images, %d plans gave %d", 2*acc.Dim(), len(plans), acc.Count())
	}
	return smp.ref.ScoreMoments(acc)
}

// pools10 is the N-pool layout's control tick: ten independent MILP
// allocators each re-solve against a drifting demand walk; it returns
// mean ms per tick across all ten. The mean, because the median is
// bimodal (12-35 ms from run to run on the reference box).
func pools10(env *baselines.Env, ticks int) (float64, error) {
	allocs := make([]*allocator.MILPAllocator, pools10Pools)
	for k := range allocs {
		a, err := allocator.NewMILP(allocConfig(env))
		if err != nil {
			return 0, err
		}
		allocs[k] = a
	}
	start := time.Now()
	for i := 0; i < ticks; i++ {
		for k, a := range allocs {
			d := float64(4 + (i+7*k)%28)
			if _, err := a.Allocate(allocator.Observation{Demand: d}); err != nil {
				return 0, fmt.Errorf("pools10 tick %d pool %d: %w", i, k, err)
			}
		}
	}
	return time.Since(start).Seconds() * 1e3 / float64(ticks), nil
}

// Allocator walkthrough: watch the MILP resource allocator trade the
// confidence threshold against worker placement and batch sizes as
// demand sweeps from idle to overload — the paper's §3.3 optimization
// in isolation.
//
//	go run ./examples/allocator
package main

import (
	"fmt"
	"log"

	"diffserve/internal/allocator"
	"diffserve/internal/baselines"
)

func main() {
	env, err := baselines.NewEnv("cascade1", 2026, 2000)
	if err != nil {
		log.Fatal(err)
	}
	milp, err := allocator.NewMILP(allocator.Config{
		Light: env.Light, Heavy: env.Heavy,
		DiscPerImage: env.Scorer.PerImageLatency(),
		Deferral:     env.Deferral,
		TotalWorkers: 16,
		SLO:          env.Spec.SLOSeconds,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("DiffServe MILP allocation across a demand sweep (16 workers, SLO 5s)")
	fmt.Printf("%8s | %10s %7s | %12s %12s | %9s\n",
		"demand", "threshold", "f(t)", "light", "heavy", "solve")
	for _, demand := range []float64{2, 4, 8, 12, 16, 20, 24, 28, 32, 40, 60, 120} {
		obs := allocator.Observation{Demand: demand}
		plan, err := milp.Allocate(obs)
		if err != nil {
			log.Fatal(err)
		}
		status := fmt.Sprintf("%10.3f", plan.Threshold)
		if !plan.Feasible {
			status = " overloaded"
		}
		fmt.Printf("%6.0fqps | %s %7.2f | %8dx b%-2d %8dx b%-2d | %7.1fµs\n",
			demand, status, plan.DeferFraction,
			plan.LightWorkers, plan.LightBatch, plan.HeavyWorkers, plan.HeavyBatch,
			plan.SolveTime.Seconds()*1e6)
	}
	fmt.Println("\nhigher demand -> lower threshold (less deferral) until the system")
	fmt.Println("falls back to all-light best effort: query-aware model scaling.")
}

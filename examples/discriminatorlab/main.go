// Discriminator lab: compare every cascade-scoring design from the
// paper — the trained discriminators (EfficientNet/ResNet/ViT, trained
// against ground-truth or heavy-model "real" samples) and the
// PickScore/CLIPScore/Random baselines — on routing quality for the
// SD-Turbo -> SDv1.5 cascade.
//
//	go run ./examples/discriminatorlab
package main

import (
	"fmt"
	"log"

	"diffserve/internal/cascade"
	"diffserve/internal/discriminator"
	"diffserve/internal/fid"
	"diffserve/internal/imagespace"
	"diffserve/internal/model"
	"diffserve/internal/stats"
)

func main() {
	rng := stats.NewRNG(11)
	space := imagespace.NewSpace(rng.Stream("space"))
	reg := model.BuiltinRegistry()
	light, heavy := reg.MustGet("sdturbo"), reg.MustGet("sdv15")
	queries := space.SampleQueries(0, 3000)
	real := make([][]float64, len(queries))
	for i, q := range queries {
		real[i] = space.RealImage(q)
	}
	ref, err := fid.NewReference(real)
	if err != nil {
		log.Fatal(err)
	}

	heavyMean := space.MeanArtifact(heavy.Gen)
	scorers := []discriminator.Scorer{
		mustDisc(discriminator.Config{Arch: discriminator.ArchEfficientNet, Train: discriminator.TrainGT}, rng),
		mustDisc(discriminator.Config{Arch: discriminator.ArchViT, Train: discriminator.TrainGT}, rng),
		mustDisc(discriminator.Config{Arch: discriminator.ArchResNet, Train: discriminator.TrainGT}, rng),
		mustDisc(discriminator.Config{Arch: discriminator.ArchEfficientNet, Train: discriminator.TrainFake, HeavyMeanArtifact: heavyMean}, rng),
		discriminator.NewPickScore(rng),
		discriminator.NewClipScore(rng),
		discriminator.NewRandom(rng),
		discriminator.NewOracle(),
	}

	fmt.Println("cascade SD-Turbo -> SDv1.5, 3000 queries, 50% deferral")
	fmt.Printf("%-20s %10s %10s\n", "scorer", "FID@f=0.5", "latency/img")
	for _, s := range scorers {
		c, err := cascade.New(space, light, heavy, s)
		if err != nil {
			log.Fatal(err)
		}
		prof, err := cascade.ProfileDeferral(c, queries)
		if err != nil {
			log.Fatal(err)
		}
		thr := prof.ThresholdForFraction(0.5)
		feats := make([][]float64, len(queries))
		for i, q := range queries {
			feats[i] = c.Process(q, thr).Served.Features
		}
		score, err := ref.Score(feats)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-20s %10.2f %9.0fms\n", s.Name(), score, s.PerImageLatency()*1000)
	}
	fmt.Println("\nlower FID is better; the paper's choice (EfficientNet w GT) should")
	fmt.Println("lead every practical design, with only the cheating Oracle ahead.")
}

func mustDisc(cfg discriminator.Config, rng *stats.RNG) discriminator.Scorer {
	d, err := discriminator.New(cfg, rng)
	if err != nil {
		log.Fatal(err)
	}
	return d
}

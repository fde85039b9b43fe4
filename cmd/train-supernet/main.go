// Command train-supernet runs stage 1 of Murmuration: partition-ready
// one-shot NAS training of the supernet (sandwich rule + in-place
// distillation) on the synthetic dataset, followed by submodel evaluation.
//
// Usage:
//
//	train-supernet -steps 300 -classes 4 -ckpt supernet.bin
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"

	"murmuration/internal/dataset"
	"murmuration/internal/nas"
	"murmuration/internal/nn"
	"murmuration/internal/supernet"
)

func main() {
	steps := flag.Int("steps", 300, "training steps")
	batch := flag.Int("batch", 16, "batch size")
	classes := flag.Int("classes", 4, "dataset classes")
	perClass := flag.Int("per-class", 60, "samples per class")
	seed := flag.Int64("seed", 42, "weight + data seed")
	ckpt := flag.String("ckpt", "", "optional supernet checkpoint output")
	flag.Parse()

	arch := supernet.TinyArch(*classes)
	net := supernet.New(arch, *seed)
	fmt.Printf("supernet %s: %d parameters\n", arch.Name, net.NumParams())

	ds := dataset.Generate(dataset.Config{
		Classes: *classes, PerClass: *perClass, Size: 32, NoiseStd: 0.15, Seed: *seed,
	})
	train, val := ds.Split(0.8)
	fmt.Printf("dataset: %d train / %d val samples, %d classes\n", train.Len(), val.Len(), *classes)

	opts := nas.DefaultTrainOptions()
	opts.Steps = *steps
	opts.BatchSize = *batch
	opts.Seed = *seed
	opts.WarmupSteps = *steps / 4
	opts.Progress = func(step int, loss float64) {
		if step%25 == 0 {
			fmt.Printf("  step %4d  loss %.4f\n", step, loss)
		}
	}
	if err := nas.Train(net, train, opts); err != nil {
		log.Fatalf("training: %v", err)
	}

	for _, c := range []struct {
		name string
		cfg  *supernet.Config
	}{
		{"max submodel", arch.MaxConfig()},
		{"min submodel", arch.MinConfig()},
		{"random submodel", arch.RandomConfig(rand.New(rand.NewSource(*seed)))},
	} {
		acc, err := nas.Evaluate(net, c.cfg, val)
		if err != nil {
			log.Fatalf("evaluate %s: %v", c.name, err)
		}
		fmt.Printf("%-16s val accuracy %.1f%%  (%s)\n", c.name, acc, c.cfg)
	}

	if *ckpt != "" {
		if dir := filepath.Dir(*ckpt); dir != "." {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				log.Fatalf("mkdir: %v", err)
			}
		}
		// SaveParams is atomic (temp + fsync + rename) and appends a CRC32C
		// trailer, so a crash here can't strand a truncated supernet.
		if err := nn.SaveParams(*ckpt, net.Params()); err != nil {
			log.Fatalf("save checkpoint: %v", err)
		}
		fmt.Printf("supernet checkpoint written to %s (crc32c trailer, atomic rename)\n", *ckpt)
	}
}

package main

import (
	"fmt"
	"time"

	"afrixp/internal/budget"
	"afrixp/internal/experiments"
	"afrixp/internal/faults"
	"afrixp/internal/scenario"
	"afrixp/internal/simclock"
	"afrixp/internal/worldgen"
)

// workload is one campaign shape the benchmark runs. Its seed varies
// the inputs without changing how much work they are: the generated
// worlds' sizes depend on their generator seed, so those stay fixed and
// the seed moves the campaign instead (see README.md).
type workload struct {
	name string
	// setups is how many set-ups an untraced child times, the
	// campaign's own and then one-hour campaigns' (see timeSetup); it
	// reports their median. A set-up of tens of milliseconds is too
	// short to time once.
	setups int
	// observatory attaches the streaming service and the open-loop API
	// reader, and writes checkpoints.
	observatory bool
	// config is the engine configuration for a seed: one probing
	// worker and the world built by the benchmark. The caller adds
	// Progress, Telemetry, Observatory and the checkpoint directory.
	config func(seed uint64) experiments.Config
}

// july20 is where the generated-world campaigns start: the window
// experiments.RunStreamAlertLatency and the scale sweep use.
var july20 = simclock.Date(2016, time.July, 20)

func days(n uint64) simclock.Duration { return simclock.Duration(n) * 24 * time.Hour }

var workloads = []workload{
	{
		// The paper's world and the campaign of BenchmarkAnalysisSweep:
		// 255 days from the paper start with the 1 pps loss campaigns
		// on. Analysis and steady probing dominate. The seed is the
		// world seed, which drives the noise processes only; the
		// populations are fixed by Scale.
		name:   "paper-campaign",
		setups: 9,
		config: func(seed uint64) experiments.Config {
			return experiments.Config{
				BuildWorld: func() *scenario.World {
					return scenario.Paper(scenario.Options{Seed: seed, Scale: 0.08})
				},
				Campaign: simclock.Interval{Start: 0, End: simclock.Time(0).Add(days(255))},
				Workers:  1,
			}
		},
	},
	{
		// The planted-truth week of RunStreamAlertLatency on the 10x
		// world (generator seed 7) with every read-side feature
		// attached: observatory, 50% probe budget, fault plan and daily
		// checkpoints. The seed seeds the fault plan and the budget's
		// probe interleaving.
		name:        "observatory-live",
		setups:      1,
		observatory: true,
		config: func(seed uint64) experiments.Config {
			return experiments.Config{
				BuildWorld: func() *scenario.World {
					return worldgen.Generate(worldgen.Options{Seed: 7, Scale: 10})
				},
				Campaign:        simclock.Interval{Start: july20, End: july20.Add(days(7))},
				Workers:         1,
				Shards:          2,
				Budget:          &budget.Config{Fraction: 0.5, Seed: seed},
				Faults:          &faults.Config{Seed: seed},
				CheckpointEvery: 24 * time.Hour,
			}
		},
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

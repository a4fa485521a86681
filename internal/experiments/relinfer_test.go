package experiments

import (
	"errors"
	"testing"

	"afrixp/internal/scenario"
)

func TestRelationshipInference(t *testing.T) {
	res, err := RunRelInference(scenario.Options{Seed: 6, Scale: 0.12}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Paths < 500 {
		t.Fatalf("paths = %d, want hundreds", res.Paths)
	}
	if res.TotalLinks < 50 {
		t.Fatalf("scored links = %d", res.TotalLinks)
	}
	// Route collectors famously see only a fraction of the world's
	// peering mesh (an IXP with N members has N(N-1)/2 peer edges but
	// collector paths cross almost none of them) — coverage well below
	// 1 is the realistic outcome. What must hold is accuracy on the
	// links that ARE visible.
	if res.Covered < 0.1 || res.Covered > 0.9 {
		t.Fatalf("covered = %.2f, want partial visibility", res.Covered)
	}
	// Degree-only Gao inference misreads IXP hub↔member peerings as
	// transit (the hub's degree dwarfs the members'), a weakness the
	// production AS-rank algorithm patches with clique and IXP data;
	// ~60 % exact on visible links is the honest degree-only number.
	if acc := res.Exact / res.Covered; acc < 0.55 {
		t.Fatalf("accuracy on visible links = %.2f", acc)
	}
	// bdrmap's neighbor discovery must not depend on relationship
	// quality (relationships only label links), and the peer count
	// under inferred relationships should be close to truth: IXP
	// fabric links are classified by prefix, not relationship, so at
	// minimum those survive.
	if !res.NeighborsAgree {
		t.Fatal("neighbor sets must not depend on relationship input")
	}
	if res.PeersInferred < res.PeersTruth/2 {
		t.Fatalf("peer classification collapsed: truth %d, inferred %d",
			res.PeersTruth, res.PeersInferred)
	}
}

// TestPaperExperimentsReportOverfullWorld checks that the experiments
// building their own paper world pass the builder's capacity error up
// instead of panicking (repro at -scale 10 used to die here).
func TestPaperExperimentsReportOverfullWorld(t *testing.T) {
	opts := scenario.Options{Scale: 10}
	var full *scenario.LANFullError
	if _, err := RunRelInference(opts, 0); !errors.As(err, &full) {
		t.Errorf("RunRelInference: error %v, want a *scenario.LANFullError", err)
	}
	if _, err := RunUpgradeWhatIf(opts, []float64{1e9}); !errors.As(err, &full) {
		t.Errorf("RunUpgradeWhatIf: error %v, want a *scenario.LANFullError", err)
	}
}

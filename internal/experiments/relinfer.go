package experiments

import (
	"sort"

	"afrixp/internal/asrel"
	"afrixp/internal/bdrmap"
	"afrixp/internal/ixpdir"
	"afrixp/internal/prober"
	"afrixp/internal/registry"
	"afrixp/internal/scenario"
	"afrixp/internal/simclock"
)

// RelInference validates the AS-rank stand-in: the paper's bdrmap run
// consumes CAIDA's inferred AS relationships, not ground truth. This
// experiment collects AS paths the way public route collectors see
// them (full routes from a handful of peering ASes), runs the
// Gao-style inference, scores it against the scenario's ground truth,
// and re-runs border mapping with the *inferred* graph to check that
// the peer/transit classification survives imperfect inputs.
type RelInference struct {
	// Paths collected and fed to the inference.
	Paths int
	// Exact is the fraction of ground-truth links whose relationship
	// was inferred exactly; Covered the fraction inferred at all.
	Exact, Covered float64
	// TotalLinks is the ground-truth link count scored.
	TotalLinks int
	// PeersTruth / PeersInferred compare one VP's bdrmap peer count
	// under ground-truth vs inferred relationships.
	VP                        string
	PeersTruth, PeersInferred int
	NeighborsAgree            bool
}

// RunRelInference executes the experiment on a fresh world.
func RunRelInference(opts scenario.Options, at simclock.Time) (*RelInference, error) {
	w, err := scenario.BuildPaper(opts)
	if err != nil {
		return nil, err
	}
	w.AdvanceTo(at)

	// Route collectors peer with the intercontinental carriers, the
	// regional transits, and each VP's host AS — the RouteViews/RIS
	// vantage mix.
	collectorASes := map[asrel.ASN]bool{5511: true, 6453: true}
	for _, vp := range w.VPs {
		collectorASes[vp.HostAS] = true
	}
	var collectors []asrel.ASN
	for a := range collectorASes {
		collectors = append(collectors, a)
	}
	sort.Slice(collectors, func(i, j int) bool { return collectors[i] < collectors[j] })

	var paths [][]asrel.ASN
	for _, c := range collectors {
		for _, dst := range w.Graph.ASes() {
			if dst == c {
				continue
			}
			if p, err := w.BGP.ASPath(c, dst); err == nil {
				paths = append(paths, p)
			}
		}
	}
	inferred := asrel.InferFromPaths(paths)
	exact, covered, total := asrel.Accuracy(w.Graph, inferred)

	res := &RelInference{
		Paths: len(paths), Exact: exact, Covered: covered, TotalLinks: total,
	}

	// Border mapping under both relationship inputs for VP2 (a
	// content-network VP with a clean peer/transit mix).
	vp, _ := w.VPByID("VP2")
	res.VP = vp.ID
	base := bdrmap.Config{
		BGP:      w.BGP,
		RIR:      registry.NewIndex(w.RIRFile),
		IXP:      ixpdir.NewIndex(w.Directory),
		Geo:      w.GeoDB,
		RDNS:     w.RDNS,
		Siblings: vp.Siblings,
	}
	truthCfg := base
	truthCfg.Rels = w.Graph
	p1 := prober.New(w.Net, vp.Node, prober.Config{Name: vp.Monitor + "-truth"})
	truthRes, err := bdrmap.Run(p1, truthCfg, at)
	if err != nil {
		return nil, err
	}
	infCfg := base
	infCfg.Rels = inferred
	p2 := prober.New(w.Net, vp.Node, prober.Config{Name: vp.Monitor + "-inferred"})
	infRes, err := bdrmap.Run(p2, infCfg, at)
	if err != nil {
		return nil, err
	}
	res.PeersTruth = len(truthRes.Peers)
	res.PeersInferred = len(infRes.Peers)
	res.NeighborsAgree = len(truthRes.Neighbors) == len(infRes.Neighbors)
	return res, nil
}

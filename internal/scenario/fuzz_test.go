package scenario

import (
	"errors"
	"testing"

	"tempriv/internal/network"
	"tempriv/internal/topology"
)

// parseSeeds is FuzzParse's seed corpus: accepted documents of both kinds
// and rejections of every sort. TestPinnedSeedFingerprints pins what each
// one normalizes to.
var parseSeeds = []string{
	`{"version":1,"experiment":{"id":"fig2a"}}`,
	`{"version":1,"experiment":{"id":"eq2-epi","packets":50,"replicates":4,"seed":9}}`,
	`{"version":1,"simulation":{"topology":{"kind":"line","hops":3},"packets":30}}`,
	`{"version":1,"simulation":{"topology":{"kind":"grid","width":4,"height":4},
		"traffic":{"kind":"poisson","rate":0.5},"policy":"delay-droptail",
		"delay":{"dist":"pareto","mean":20,"shape":2.5},
		"channel":{"loss_p":0.1,"burst":true,"burst_loss_p":0.5},
		"arq":{"max_retries":3},"adversary":"adaptive"}}`,
	`{"version":2,"experiment":{"id":"fig2a"}}`,
	`{"version":1,"experiment":{"id":"fig2a","packets":-1}}`,
	`{"version":1,"experiment":{"id":"fig2a","mean_delay":1e308}}`,
	`{"version":1,"simulation":{"topology":{"kind":"line","hops":99999}}}`,
	`{}`,
	`null`,
	`[1,2,3]`,
	`{"version":1,"experiment":{"id":"fig2a"},"simulation":{}}`,
	`{"version":1,"simulation":{"topology":{"kind":"line","hops":2},"traffic":{"kind":"onoff","rate":0.0001,"on_mean":1,"off_mean":1}}}`,
}

// FuzzParse drives the scenario parser with arbitrary bytes. The contract
// under fuzz: never panic; every accepted document normalizes, fingerprints
// and round-trips through its canonical form; every rejection is tagged
// ErrInvalid (fail closed — malformed JSON, out-of-range λ/µ and unknown
// versions are errors, not best-effort interpretations). An accepted
// simulation also compiles and runs, with every source cut to one packet:
// the spec accepts nothing the engine rejects. The one run-time failure
// allowed is a random field that stays disconnected after every placement.
func FuzzParse(f *testing.F) {
	for _, seed := range parseSeeds {
		f.Add([]byte(seed))
	}
	f.Add([]byte(`{"version":1,"simulation":{"topology":{"kind":"random","nodes":40,"radius":3},
		"rate_control":{"target_loss":0.2},"failures":[{"node":5,"at":20}],"route_repair":true}}`))
	f.Add([]byte(`{"version":1,"simulation":{"topology":{"kind":"figure1"},
		"channel":{"burst":true,"mean_good_run":20,"mean_burst_len":2},"arq":{},"failures":[{"node":33,"at":0}]}}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := Parse(data)
		if err != nil {
			if !errors.Is(err, ErrInvalid) {
				t.Fatalf("rejection not tagged ErrInvalid: %v", err)
			}
			return
		}
		fp, err := spec.Fingerprint()
		if err != nil {
			t.Fatalf("accepted spec does not fingerprint: %v", err)
		}
		if len(fp) != 64 {
			t.Fatalf("fingerprint %q is not a sha256 hex digest", fp)
		}
		canon, err := spec.CanonicalJSON()
		if err != nil {
			t.Fatalf("accepted spec does not canonicalize: %v", err)
		}
		reparsed, err := Parse(canon)
		if err != nil {
			t.Fatalf("canonical form rejected: %v\n%s", err, canon)
		}
		fp2, err := reparsed.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		if fp2 != fp {
			t.Fatalf("canonical round trip changed fingerprint: %s -> %s", fp, fp2)
		}
		if spec.Simulation == nil {
			return
		}
		sim, err := Compile(spec.Simulation)
		if errors.Is(err, topology.ErrDisconnected) {
			return
		}
		if err != nil {
			t.Fatalf("accepted spec does not compile: %v\n%s", err, canon)
		}
		for i := range sim.Config.Sources {
			sim.Config.Sources[i].Count = 1
		}
		if err := network.RunBorrowed(nil, sim.Config, func(res *network.Result) error {
			_, err := simulationTable(sim, "", res)
			return err
		}); err != nil {
			t.Fatalf("accepted spec does not run: %v\n%s", err, canon)
		}
	})
}

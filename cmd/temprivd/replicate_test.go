package main

import (
	"context"
	"testing"

	"tempriv/internal/cluster/peering"
	"tempriv/internal/jobs"
	"tempriv/internal/resultcache"
	"tempriv/internal/scenario"
	"tempriv/internal/server"
	"tempriv/internal/telemetry"
)

// TestOfferReplicasSkipsCacheHits drives one fingerprint through two
// workers' runners and hands each completion to the peering hook: a
// computed result and one a successor serves from the replica are each
// offered once, and a cache hit offers nothing.
func TestOfferReplicasSkipsCacheHits(t *testing.T) {
	spec, err := scenario.Parse([]byte(testScenario))
	if err != nil {
		t.Fatal(err)
	}
	fp, err := spec.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	var offered []peering.Replica
	onDone := offerReplicas(func(r peering.Replica) { offered = append(offered, r) })
	// worker returns a runner with its own result cache, peer store and
	// metrics.
	worker := func() (jobs.Runner, *peering.Store, *telemetry.Registry) {
		cache, err := resultcache.Open(t.TempDir(), 0)
		if err != nil {
			t.Fatal(err)
		}
		peers, reg := peering.NewStore(peering.StoreOptions{}), telemetry.NewRegistry()
		return server.NewRunner(server.RunnerConfig{Cache: cache, Registry: reg, Peers: peers}), peers, reg
	}
	complete := func(run jobs.Runner) *jobs.Result {
		t.Helper()
		res, err := run(context.Background(), &jobs.Job{Spec: spec, Fingerprint: fp}, func(string, string) {})
		if err != nil {
			t.Fatal(err)
		}
		onDone(jobs.Snapshot{Fingerprint: fp}, res)
		return res
	}

	owner, _, _ := worker()
	computed := complete(owner)
	if computed.CacheHit || len(offered) != 1 {
		t.Fatalf("computed result: cache_hit %v, %d offers; want a miss offered once", computed.CacheHit, len(offered))
	}
	if got := offered[0]; got.Fingerprint != fp || string(got.TableText) != string(computed.TableText) ||
		string(got.TableCSV) != string(computed.TableCSV) || string(got.Manifest) != string(computed.Manifest) {
		t.Fatal("offered replica differs from the computed result")
	}

	if hit := complete(owner); !hit.CacheHit || len(offered) != 1 {
		t.Fatalf("cache hit: cache_hit %v, %d offers in total; want a hit that offers nothing", hit.CacheHit, len(offered))
	}

	// A crash handoff: the successor holds the owner's replica and
	// answers the job from it.
	successor, peers, reg := worker()
	if err := peers.Put(offered[0]); err != nil {
		t.Fatal(err)
	}
	served := complete(successor)
	if served.CacheHit || len(offered) != 2 || string(served.TableText) != string(computed.TableText) {
		t.Fatalf("replica-served result: cache_hit %v, %d offers in total; want the computed bytes, a miss, offered once more", served.CacheHit, len(offered))
	}
	if n := reg.Counter("tempriv_cluster_peer_served_total").Value(); n != 1 {
		t.Fatalf("successor served %d jobs from replicas, want 1", n)
	}
}

package core

import "testing"

// TestReplicaSeedDecorrelation is the regression test for the additive
// seed scheme this package used to ship (base + i*7919): under it, pooled
// runs at base 3 and at base 7922 shared entire replica streams
// (3 + 1*7919 == 7922 + 0*7919). The SplitMix64 derivation must
// keep the replica seed sets of stride-offset bases fully disjoint.
func TestReplicaSeedDecorrelation(t *testing.T) {
	const runs = 16
	bases := []uint64{3, 3 + 7919, 3 + 2*7919, 7, 7 + 7919}
	seen := map[uint64]string{}
	for _, base := range bases {
		for i := 0; i < runs; i++ {
			s := ReplicaSeed(base, i)
			if prev, dup := seen[s]; dup && prev != "" {
				t.Fatalf("replica seed %d shared between base/replica %s and base %d replica %d",
					s, prev, base, i)
			}
			seen[s] = ""
		}
	}
	if len(seen) != len(bases)*runs {
		t.Fatalf("expected %d distinct replica seeds, got %d", len(bases)*runs, len(seen))
	}
	// Replica 0 keeps the base seed, so a one-replica pool is a plain run
	// at the same seed.
	if ReplicaSeed(42, 0) != 42 {
		t.Fatalf("replica 0 must keep the base seed")
	}
	// And the specific historical aliasing must be gone.
	if ReplicaSeed(3, 1) == 7922 {
		t.Fatalf("additive aliasing resurfaced: ReplicaSeed(3,1) == 7922")
	}
}

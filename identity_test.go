package verifiedft

import (
	"reflect"
	"testing"

	"repro/internal/conformance"
)

// TestConformanceParallelIdentity is the sequential ≡ sharded axis of the
// report-identity contract: across the conformance corpus, every detector
// variant produces a byte-identical report list through the sequential
// replay and through the parallel checker with four workers.
func TestConformanceParallelIdentity(t *testing.T) {
	for _, prog := range conformance.Programs() {
		// Two controlled schedules per program: racy programs race in
		// schedule-dependent positions, so this varies the report lists
		// the two paths must agree on.
		for _, seed := range []uint64{1, 42} {
			tr, _, err := conformance.RunOne(prog, "pct", seed, nil)
			if err != nil {
				t.Fatalf("%s seed %d: %v", prog.Name, seed, err)
			}
			for _, variant := range Variants() {
				want, err := CheckTrace(tr, WithVariant(variant))
				if err != nil {
					t.Fatalf("%s/%s sequential: %v", prog.Name, variant, err)
				}
				par, err := CheckTrace(tr, WithVariant(variant), WithParallelism(4))
				if err != nil {
					t.Fatalf("%s/%s parallel: %v", prog.Name, variant, err)
				}
				if !reflect.DeepEqual(want, par) {
					t.Fatalf("%s/%s seed %d: parallel diverged from sequential:\nwant %+v\ngot  %+v",
						prog.Name, variant, seed, want, par)
				}
			}
		}
	}
}

package verifiedft

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"repro/internal/conformance"
	"repro/internal/ingest"
	"repro/internal/sample"
	"repro/internal/trace"
)

// filterSampled is the restriction the sampling tier promises: the
// precise reports on sampled variables, re-numbered from zero.
func filterSampled(precise []Report, pol sample.Policy) []Report {
	var out []Report
	for _, r := range precise {
		if pol.Sampled(r.X) {
			r.Seq = len(out)
			out = append(out, r)
		}
	}
	return out
}

// sameReports compares report lists, treating nil and empty uniformly.
func sameReports(a, b []Report) bool {
	if len(a) == 0 && len(b) == 0 {
		return true
	}
	return reflect.DeepEqual(a, b)
}

// TestSamplingIdentityAtRateOne is the tentpole acceptance gate: at rate
// 1.0 the sampling tier is report-identical to the precise tier across
// the conformance corpus, for every detector variant, both sequentially
// and through the parallel checker.
func TestSamplingIdentityAtRateOne(t *testing.T) {
	for _, prog := range conformance.Programs() {
		for _, seed := range []uint64{1, 42} {
			tr, _, err := conformance.RunOne(prog, "pct", seed, nil)
			if err != nil {
				t.Fatalf("%s seed %d: %v", prog.Name, seed, err)
			}
			for _, variant := range Variants() {
				want, err := CheckTrace(tr, WithVariant(variant))
				if err != nil {
					t.Fatalf("%s/%s precise: %v", prog.Name, variant, err)
				}
				seq, err := CheckTrace(tr, WithVariant(variant), WithSampling(1))
				if err != nil {
					t.Fatalf("%s/%s sampled: %v", prog.Name, variant, err)
				}
				if !sameReports(want, seq) {
					t.Fatalf("%s/%s: rate-1.0 sequential diverged from precise:\nwant %+v\ngot  %+v",
						prog.Name, variant, want, seq)
				}
				par, err := CheckTrace(tr, WithVariant(variant), WithSampling(1), WithParallelism(4))
				if err != nil {
					t.Fatalf("%s/%s sampled parallel: %v", prog.Name, variant, err)
				}
				if !sameReports(want, par) {
					t.Fatalf("%s/%s: rate-1.0 parallel diverged from precise:\nwant %+v\ngot  %+v",
						prog.Name, variant, want, par)
				}
			}
		}
	}
}

// TestSamplingFilteredIdentity pins the below-1.0 contract, which is
// stronger than "no new false positives": the sampled reports are exactly
// the precise reports restricted to the sampled variables — sequentially
// and sharded.
func TestSamplingFilteredIdentity(t *testing.T) {
	for _, prog := range conformance.Programs() {
		for _, schedSeed := range []uint64{1, 42} {
			tr, _, err := conformance.RunOne(prog, "pct", schedSeed, nil)
			if err != nil {
				t.Fatalf("%s seed %d: %v", prog.Name, schedSeed, err)
			}
			for _, variant := range Variants() {
				precise, err := CheckTrace(tr, WithVariant(variant))
				if err != nil {
					t.Fatalf("%s/%s precise: %v", prog.Name, variant, err)
				}
				for _, rate := range []float64{0, 0.3, 0.7} {
					for _, seed := range []uint64{1, 7} {
						pol := sample.Policy{Rate: rate, Seed: seed}
						want := filterSampled(precise, pol)
						seq, err := CheckTrace(tr, WithVariant(variant),
							WithSampling(rate, WithSamplingSeed(seed)))
						if err != nil {
							t.Fatalf("%s/%s rate %v: %v", prog.Name, variant, rate, err)
						}
						if !sameReports(want, seq) {
							t.Fatalf("%s/%s rate %v seed %d: sequential != filtered precise:\nwant %+v\ngot  %+v",
								prog.Name, variant, rate, seed, want, seq)
						}
						par, err := CheckTrace(tr, WithVariant(variant),
							WithSampling(rate, WithSamplingSeed(seed)), WithParallelism(4))
						if err != nil {
							t.Fatalf("%s/%s rate %v parallel: %v", prog.Name, variant, rate, err)
						}
						if !sameReports(want, par) {
							t.Fatalf("%s/%s rate %v seed %d: parallel != filtered precise:\nwant %+v\ngot  %+v",
								prog.Name, variant, rate, seed, want, par)
						}
					}
				}
			}
		}
	}
}

// TestSamplingSeededDeterminism pins that the decision is a pure function
// of (seed, variable id): the same trace at the same rate and seed yields
// byte-identical reports from the sequential replay, the sharded checker,
// and a vft-server upload of the same bytes.
func TestSamplingSeededDeterminism(t *testing.T) {
	gen := trace.DefaultGenConfig()
	gen.Ops = 20_000
	gen.Threads = 8
	gen.Vars = 256
	gen.Locks = 8
	tr := trace.Generate(rand.New(rand.NewSource(3)), gen)

	const rate, seed = 0.5, uint64(9)
	opt := func(extra ...CheckOption) []CheckOption {
		return append([]CheckOption{WithSampling(rate, WithSamplingSeed(seed))}, extra...)
	}
	first, err := CheckTrace(tr, opt()...)
	if err != nil {
		t.Fatalf("sequential: %v", err)
	}
	again, err := CheckTrace(tr, opt()...)
	if err != nil {
		t.Fatalf("sequential repeat: %v", err)
	}
	if !sameReports(first, again) {
		t.Fatal("two sequential sampled checks of the same trace disagreed")
	}
	par, err := CheckTrace(tr, opt(WithParallelism(4))...)
	if err != nil {
		t.Fatalf("parallel: %v", err)
	}
	if !sameReports(first, par) {
		t.Fatalf("sharded sampled check diverged from sequential:\nwant %+v\ngot  %+v", first, par)
	}

	srv := ingest.New(ingest.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	var buf bytes.Buffer
	if err := trace.EncodeBinary(&buf, tr); err != nil {
		t.Fatalf("encode: %v", err)
	}
	resp, err := http.Post(ts.URL+"/v1/traces?tenant=t&variant=vft-v2&sample=0.5&sample_seed=9",
		"application/octet-stream", &buf)
	if err != nil {
		t.Fatalf("upload: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("upload status %s", resp.Status)
	}
	var res struct {
		SampleRate *float64        `json:"sample_rate"`
		Reports    []ingest.Report `json:"reports"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatalf("upload response: %v", err)
	}
	if res.SampleRate == nil || *res.SampleRate != rate {
		t.Fatalf("upload response sample_rate = %v, want %v", res.SampleRate, rate)
	}
	server := make([]Report, len(res.Reports))
	for i, r := range res.Reports {
		server[i] = r.Core()
	}
	if !sameReports(first, server) {
		t.Fatalf("server sampled check diverged from local:\nwant %+v\ngot  %+v", first, server)
	}
}

// TestSampledVariantSpelling pins that the "sampled[:rate]" spelling is
// accepted wherever variant names are parsed and means vft-v2 under the
// tier at the given (or default) rate.
func TestSampledVariantSpelling(t *testing.T) {
	tr, _, err := conformance.RunOne(conformance.Programs()[0], "pct", 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	precise, err := CheckTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	got, err := CheckTrace(tr, WithVariant("sampled:1"))
	if err != nil {
		t.Fatalf("sampled:1: %v", err)
	}
	if !sameReports(precise, got) {
		t.Fatalf("sampled:1 != precise vft-v2:\nwant %+v\ngot  %+v", precise, got)
	}
	def, err := CheckTrace(tr, WithVariant("sampled"))
	if err != nil {
		t.Fatalf("sampled: %v", err)
	}
	want := filterSampled(precise, sample.Policy{Rate: sample.DefaultRate, Seed: sample.DefaultSeed})
	if !sameReports(want, def) {
		t.Fatalf("bare sampled spelling != default-rate filter:\nwant %+v\ngot  %+v", want, def)
	}
	// An explicit WithSampling beats the spelling's embedded rate.
	over, err := CheckTrace(tr, WithVariant("sampled:0.25"), WithSampling(1))
	if err != nil {
		t.Fatalf("override: %v", err)
	}
	if !sameReports(precise, over) {
		t.Fatal("explicit WithSampling(1) did not override the variant-embedded rate")
	}
	if _, err := CheckTrace(tr, WithVariant("sampled:2")); err == nil {
		t.Fatal("sampled:2 accepted; rates above 1 must be rejected")
	}
}

// TestWithSamplingValidation pins the error paths at every entry point.
func TestWithSamplingValidation(t *testing.T) {
	tr := Trace{Write(0, 0)}
	for _, rate := range []float64{-0.1, 1.5, math.NaN()} {
		if _, err := CheckTrace(tr, WithSampling(rate)); err == nil {
			t.Fatalf("CheckTrace accepted rate %v", rate)
		}
		if _, err := CheckTrace(tr, WithSampling(rate), WithParallelism(2)); err == nil {
			t.Fatalf("parallel CheckTrace accepted rate %v", rate)
		}
		if _, err := New(V2, WithSampling(rate)); err == nil {
			t.Fatalf("New accepted rate %v", rate)
		}
	}
	if d, err := New(V2, WithSampling(0.5)); err != nil || d == nil {
		t.Fatalf("New rejected a valid sampling rate: %v", err)
	}
}

// FuzzSamplingSoundness drives the restriction property from arbitrary
// bytes: for any feasible trace, variant, rate and seed, the sampled
// reports must equal the precise reports filtered to the sampled
// variables (re-numbered), sequentially and under a fuzzed worker count —
// which subsumes both headline gates (identity at rate 1.0, and
// reported ⊆ precise below it).
func FuzzSamplingSoundness(f *testing.F) {
	f.Add([]byte{}, uint8(0), uint8(255), uint64(1))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(1), uint8(128), uint64(7))
	f.Add([]byte{0, 4, 0, 1, 0, 0, 1, 1, 0, 2, 5, 0}, uint8(2), uint8(0), uint64(42))
	f.Add([]byte{9, 9, 2, 2, 3, 3, 0, 0, 1, 1, 4, 4, 5, 5, 0, 1}, uint8(3), uint8(25), uint64(0))
	variants := Variants()
	f.Fuzz(func(t *testing.T, data []byte, pick, rateByte uint8, seed uint64) {
		tr := trace.FromBytes(data)
		variant := variants[int(pick)%len(variants)]
		rate := float64(rateByte) / 255
		pol := sample.Policy{Rate: rate, Seed: seed}

		precise, err := CheckTrace(tr, WithVariant(variant))
		if err != nil {
			t.Fatalf("precise: %v", err)
		}
		want := filterSampled(precise, pol)
		seq, err := CheckTrace(tr, WithVariant(variant),
			WithSampling(rate, WithSamplingSeed(seed)))
		if err != nil {
			t.Fatalf("sampled: %v", err)
		}
		if !sameReports(want, seq) {
			t.Fatalf("%s rate %v seed %d: sampled != filtered precise:\nwant %+v\ngot  %+v",
				variant, rate, seed, want, seq)
		}
		par, err := CheckTrace(tr, WithVariant(variant),
			WithSampling(rate, WithSamplingSeed(seed)), WithParallelism(1+int(pick)%4))
		if err != nil {
			t.Fatalf("sampled parallel: %v", err)
		}
		if !sameReports(want, par) {
			t.Fatalf("%s rate %v seed %d: sharded sampled != filtered precise:\nwant %+v\ngot  %+v",
				variant, rate, seed, want, par)
		}
	})
}

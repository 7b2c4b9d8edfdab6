package harness

import (
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// BenchSchemaVersion is the version stamped into every BENCH_*.json
// provenance header. Bump it when a table's measured fields change shape
// (adding fields is fine; renaming or re-meaning them is a bump).
const BenchSchemaVersion = 3

// Provenance identifies the run that produced a benchmark artifact:
// enough to tell whether two committed BENCH_*.json files are comparable
// (same code? same machine shape?) without archaeology through git blame.
// It is collected at WriteJSON time, so the stamp describes the process
// that wrote the file, not the one that defined the table.
type Provenance struct {
	// GitRev is the repository HEAD at write time ("unknown" outside a
	// work tree), with a "-dirty" suffix when the tree had local edits.
	GitRev string `json:"git_rev"`
	// GOMAXPROCS and NumCPU describe the parallelism available to the
	// run — the first thing to check before comparing two speedup curves.
	GOMAXPROCS int `json:"gomaxprocs"`
	NumCPU     int `json:"num_cpu"`
	// TimestampUTC is the write time in RFC 3339 UTC.
	TimestampUTC string `json:"timestamp_utc"`
	// SchemaVersion is BenchSchemaVersion at write time.
	SchemaVersion int `json:"bench_schema_version"`
}

// CollectProvenance stamps the current process and repository state.
func CollectProvenance() Provenance {
	return Provenance{
		GitRev:        gitRev(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		NumCPU:        runtime.NumCPU(),
		TimestampUTC:  time.Now().UTC().Format(time.RFC3339),
		SchemaVersion: BenchSchemaVersion,
	}
}

// gitRev resolves HEAD (short form) plus a -dirty marker. Benchmarks run
// from a release tarball or with git missing get "unknown" rather than an
// error: provenance is advisory, never a reason to lose a measurement.
func gitRev() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	rev := strings.TrimSpace(string(out))
	if rev == "" {
		return "unknown"
	}
	if status, err := exec.Command("git", "status", "--porcelain").Output(); err == nil &&
		len(strings.TrimSpace(string(status))) > 0 {
		rev += "-dirty"
	}
	return rev
}

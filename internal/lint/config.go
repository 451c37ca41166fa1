package lint

import "strings"

// Config carries every check's package sets and allowlists. Checks consult
// it instead of hard-coding paths, so retargeting the analyzer (or pointing
// it at a test fixture tree) is a data change, and adding a check is the
// check file plus a field or two here.
//
// Package matching is by import-path suffix on "/" boundaries:
// "internal/netem" matches "telepresence/internal/netem" but not
// ".../notnetem". File allowlists match the same way on slash-separated
// file paths ("internal/telemetry/summary.go").
type Config struct {
	// DeterministicPackages are the simulation packages whose output feeds
	// golden rows and traces: everything in them must derive from seeds and
	// virtual time. walltime and maporder enforce there. The fleet
	// scheduler/watchdog and the CLIs are deliberately absent: watchdog
	// timers and manifest wall-clock stamps are real time by design and
	// never feed row bytes.
	DeterministicPackages []string

	// MapOrderExtraPackages extends maporder beyond the deterministic core
	// to packages whose map iteration feeds manifests or CSV/JSONL output
	// (the fleet sinks) even though wall-clock use is legitimate there.
	MapOrderExtraPackages []string

	// GlobalrandAllowPackages may call math/rand package-level functions:
	// only the seeded-RNG wrapper itself. Everywhere else randomness flows
	// through simrand.Child / explicitly seeded generators.
	GlobalrandAllowPackages []string

	// HotPathPackages hand-roll their encodings; encoding/json and the
	// fmt.Sprint* family are banned there (hotjson) except in allowlisted
	// files, panic messages, and String()/Error() methods.
	HotPathPackages []string

	// HotJSONAllowFiles are files inside HotPathPackages excused from
	// hotjson: trace *readers* and report renderers that legitimately
	// decode JSON or build human-facing text off the hot path.
	HotJSONAllowFiles []string

	// EncoderPackages produce row/trace bytes; floatfmt bans %v and %g on
	// floating-point arguments there in favor of strconv.Format* with an
	// explicit format (fmt.Errorf is exempt — error text is not output).
	EncoderPackages []string
}

// DefaultConfig is the repository's determinism contract.
func DefaultConfig() *Config {
	deterministic := []string{
		"internal/simtime",
		"internal/netem",
		"internal/vca",
		"internal/ratecontrol",
		"internal/recovery",
		"internal/rtp",
		"internal/scenario",
		"internal/telemetry",
		"internal/core",
		"internal/simrand",
		"internal/quic",
	}
	return &Config{
		DeterministicPackages: deterministic,
		// Fleet manifests and sinks serialize maps (axes, failures) into
		// JSONL/CSV artifacts that the resume/determinism contract compares
		// byte-for-byte. fleetobs renders API and Prometheus responses whose
		// ordering must not depend on map iteration either (its Registry keeps
		// an explicit order slice for exactly this reason) — but it is
		// deliberately NOT a deterministic package: EWMA rates and uptime are
		// wall-clock by design (time.Now is its whole point), and its JSON API
		// responses are off the hot path, so walltime and hotjson don't apply.
		// vprof is the virtual-time profiler: wall-clock CPU attribution is
		// its entire point (time.Now around every probed event), so like
		// fleetobs it is deliberately NOT a deterministic package — but its
		// JSONL reports and pprof string tables are byte-compared artifacts,
		// so map order must never leak into them (maporder), and its report
		// floats must use strconv with explicit formats (floatfmt, below).
		// Its deterministic counters feeding goldens are protected one layer
		// down instead: simtime, which vprof observes, never reads the wall
		// clock and stays in the walltime set above.
		MapOrderExtraPackages:   []string{"internal/fleet", "internal/fleetobs", "internal/vprof"},
		GlobalrandAllowPackages: []string{"internal/simrand"},
		HotPathPackages: []string{
			"internal/telemetry",
			"internal/netem",
			"internal/rtp",
		},
		HotJSONAllowFiles: []string{
			// Trace reader/validator and report renderer: decode-side code
			// that runs on finished trace files, not per-packet.
			"internal/telemetry/summary.go",
			"internal/telemetry/schema.go",
		},
		EncoderPackages: []string{
			"internal/telemetry",
			"internal/fleet",
			"internal/stats",
			"internal/core",
			// Prometheus exposition and the progress line format floats; both
			// must use strconv with explicit formats, never %v/%g.
			"internal/fleetobs",
			// vprof's JSONL reports are byte-stable goldens: every float in
			// them goes through strconv.AppendFloat with an explicit format.
			"internal/vprof",
		},
	}
}

// matchPkg reports whether pkgPath ends in one of the suffixes on a "/"
// boundary (or equals one exactly).
func matchPkg(pkgPath string, suffixes []string) bool {
	for _, s := range suffixes {
		if pkgPath == s || strings.HasSuffix(pkgPath, "/"+s) {
			return true
		}
	}
	return false
}

// matchFile reports whether the slash-separated file path ends in one of
// the allowlisted file suffixes on a "/" boundary.
func matchFile(file string, suffixes []string) bool {
	file = strings.ReplaceAll(file, "\\", "/")
	for _, s := range suffixes {
		if file == s || strings.HasSuffix(file, "/"+s) {
			return true
		}
	}
	return false
}

// inDeterministic is the Applies helper shared by walltime and maporder.
func (cfg *Config) inDeterministic(pkgPath string) bool {
	return matchPkg(pkgPath, cfg.DeterministicPackages)
}

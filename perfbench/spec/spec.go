// Package spec defines the benchmark's workloads in one place: the
// stormtune command lines the end-to-end runs type, and the settings
// the CLI hard-wires that the traced in-process replay must mirror to
// make the same decisions.
//
// It imports nothing from stormtune, so the end-to-end runner builds
// against any version of the program.
package spec

import (
	"encoding/json"
	"fmt"
	"strconv"
	"time"
)

// Settings cmd/stormtune hard-wires or defaults. A replay that differs
// in any of them proposes different trials and fails the benchmark's
// best_tput cross-check.
const (
	// MaxGPPoints is the sliding GP window every CLI session sets.
	MaxGPPoints = 60
	// Retries and RetryBackoff are the -retries / -retry-backoff
	// defaults; tune, watch and fleet pass them as the RetryPolicy.
	Retries      = 3
	RetryBackoff = time.Second
	// LinearStopAfterZeros is the stopping rule the CLI gives pla/ipla.
	LinearStopAfterZeros = 3
	// TransportRetries is the remote client's transport-level retry
	// count (remoteOptions in cmd/stormtune).
	TransportRetries = 2
	// Watch defaults: initial tune budget, simulated seconds per trial
	// and per monitoring sample.
	WatchSteps        = 40
	WatchTrialCost    = 60.0
	WatchHoldInterval = 60.0
)

// Workload names, in BENCHMARK.json order.
const (
	TuneLarge   = "tune-large"
	FleetResume = "fleet-resume"
	WatchDrift  = "watch-drift"
)

// Names lists every workload.
var Names = []string{TuneLarge, FleetResume, WatchDrift}

// SessionSeed is the CLI -seed of session i of a run with benchmark
// seed s: distinct within a run and across benchmark seeds, never 0
// (which the CLI would silently map to 1).
func SessionSeed(s int64, i int) int64 { return s*1000 + int64(i) + 1 }

// Tune is one `stormtune tune` session over the in-process simulator.
type Tune struct {
	Topology string
	Steps    int
}

// Args is the command line after the binary name.
func (t Tune) Args(seed int64) []string {
	return []string{"tune", "-topology", t.Topology, "-steps", strconv.Itoa(t.Steps),
		"-seed", strconv.FormatInt(seed, 10), "-quiet"}
}

// Watch is one `stormtune watch` run over a drifting simulator. Both
// Episodes and Horizon are always set: either alone can run for
// minutes on an unlucky seed.
type Watch struct {
	Topology string
	Drift    string
	BaseLoad float64
	Episodes int
	Horizon  float64
}

// Args is the command line after the binary name.
func (w Watch) Args(seed int64) []string {
	return []string{"watch", "-topology", w.Topology, "-drift", w.Drift,
		"-base-load", fmtFloat(w.BaseLoad), "-episodes", strconv.Itoa(w.Episodes),
		"-horizon", fmtFloat(w.Horizon), "-seed", strconv.FormatInt(seed, 10), "-quiet"}
}

// FleetSession is one manifest entry of the fleet workload.
type FleetSession struct {
	Name     string `json:"name"`
	Topology string `json:"topology"`
	Strategy string `json:"strategy"`
	Steps    int    `json:"steps"`
	Seed     int64  `json:"seed"`
}

// Fleet is the crash-resume fleet: Workers `stormtune serve` processes
// serving Served, one fleet process with Slots slots, and Sessions run
// with -state and -archive. An untimed run with every budget capped at
// PrepSteps writes the log; the timed run resumes it with budget Steps,
// which the linear strategies never reach (they stop after
// LinearStopAfterZeros zero-throughput trials).
type Fleet struct {
	Served    string
	Workers   int
	Slots     int
	Steps     int
	PrepSteps int
	Sessions  []FleetSession
}

// ServeArgs is one worker's command line.
func (f Fleet) ServeArgs(addr string, seed int64) []string {
	return []string{"serve", "-addr", addr, "-topology", f.Served,
		"-seed", strconv.FormatInt(seed, 10), "-quiet"}
}

// Manifest renders the fleet manifest with every session's budget set
// to steps and its seed to seed.
func (f Fleet) Manifest(workers []string, seed int64, steps int) ([]byte, error) {
	sessions := make([]FleetSession, len(f.Sessions))
	for i, s := range f.Sessions {
		s.Steps, s.Seed = steps, seed
		sessions[i] = s
	}
	return json.MarshalIndent(struct {
		Workers  []string       `json:"workers"`
		Slots    int            `json:"slots"`
		Sessions []FleetSession `json:"sessions"`
	}{workers, f.Slots, sessions}, "", "  ")
}

// Args is the fleet command line; resume adds -resume.
func (f Fleet) Args(manifest, state, archive string, resume bool) []string {
	args := []string{"fleet", "-manifest", manifest, "-state", state, "-archive", archive, "-quiet"}
	if resume {
		args = append(args, "-resume")
	}
	return args
}

// Sizes are the three workloads at one scale.
type Sizes struct {
	Large Tune
	Fleet Fleet
	Watch Watch
}

// Full is the benchmark: the paper's 60-step budget on the
// 100-dimension topology, a four-member PLA/IPLA fleet resumed from a
// log, and a watch over a load trend. The trend is steep enough that
// each of 8 seeds tried ran all four retune episodes before the
// horizon; at slope 2e-6 seeds ran 0 to 4, so the work per seed varied
// 2x.
func Full() Sizes {
	return Sizes{
		Large: Tune{Topology: "large", Steps: 60},
		Fleet: Fleet{
			Served: "small,medium", Workers: 2, Slots: 2, Steps: 2000, PrepSteps: 70,
			Sessions: []FleetSession{
				{Name: "pla-small-a", Topology: "small", Strategy: "pla"},
				{Name: "pla-small-b", Topology: "small", Strategy: "pla"},
				{Name: "pla-medium", Topology: "medium", Strategy: "pla"},
				{Name: "ipla-small", Topology: "small", Strategy: "ipla"},
			},
		},
		Watch: Watch{Topology: "small", Drift: "trend:slope=5e-6", BaseLoad: 400,
			Episodes: 4, Horizon: 2000000},
	}
}

// Tiny is the self-test scale: seconds per workload, every layer still
// on its path.
func Tiny() Sizes {
	return Sizes{
		Large: Tune{Topology: "medium", Steps: 5},
		Fleet: Fleet{
			Served: "small", Workers: 2, Slots: 2, Steps: 60, PrepSteps: 20,
			Sessions: []FleetSession{
				{Name: "pla-small", Topology: "small", Strategy: "pla"},
				{Name: "ipla-small", Topology: "small", Strategy: "ipla"},
			},
		},
		Watch: Watch{Topology: "small", Drift: "trend:slope=5e-6", BaseLoad: 400,
			Episodes: 1, Horizon: 200000},
	}
}

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }

// FormatTput renders a throughput the way the CLI prints it in the
// given context ("%.0f" for tune and fleet, "%.1f" for watch), so the
// replay's value compares exactly against the CLI's text.
func FormatTput(v float64, decimals int) string { return fmt.Sprintf("%.*f", decimals, v) }

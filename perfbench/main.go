// Command perfbench is the repository's benchmark. It times what users
// run — the stormtune binary with the flags a user types — on three
// workloads, and, in a separate traced run, replays each workload
// in-process through the library to split the time by layer.
//
// Run it from the repository root through its wrapper, which builds
// the CLI and the benchmark from the checkout first:
//
//	bash perfbench/run.sh --workload tune-large --seed 1 --seconds 36 --trace 0
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and metrics. --trace 0 reports the end-to-end
// metrics, --trace 1 the per-layer ones. A wrong program output prints
// correct=false and exits 1. See README.md for the workloads and the
// choices behind them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"

	"stormtune/perfbench/spec"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// wrongOutput is a correctness failure: the program ran but printed
// something other than the reference. It is reported, not just logged.
type wrongOutput struct{ msg string }

func (e *wrongOutput) Error() string { return e.msg }

func wrongf(format string, args ...any) error {
	return &wrongOutput{fmt.Sprintf(format, args...)}
}

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	bin      string // the stormtune binary under test
	tracer   string // the traced-replay binary
	work     string // scratch directory, removed on exit
	sizes    spec.Sizes
	tiny     bool // the self-test's spec.Tiny scale
}

// sessionsPerRun is how many sessions (fleet-resume: timed resumes) a
// run of perRunSeconds measures; other --seconds scale it. The count
// depends only on --seconds, never on a clock, so both commits of a
// comparison do identical work. At GOMAXPROCS=1 on the 2-core box the
// benchmark was defined on, a session took 16–24 s on tune-large,
// 2.2 s plus copying its log on fleet-resume and 2 s on watch-drift,
// so a run takes 27–37 s: as long as the 3420 s allowed for all
// runs of three workloads permit, with a margin for the host's slow
// phases.
var sessionsPerRun = map[string]int{
	spec.TuneLarge:   2,
	spec.FleetResume: 12,
	spec.WatchDrift:  14,
}

const perRunSeconds = 36

// sessions is how many sessions a run measures.
func (c config) sessions() int {
	n := int(math.Round(float64(sessionsPerRun[c.workload]*c.seconds) / perRunSeconds))
	if c.tiny && n > 2 {
		n = 2
	}
	if n < 1 {
		n = 1
	}
	return n
}

func main() {
	var c config
	flag.StringVar(&c.workload, "workload", "", "workload: tune-large, fleet-resume or watch-drift")
	flag.Int64Var(&c.seed, "seed", 1, "workload seed (1 is the default, 2 the held-out seed for re-checking claims)")
	flag.IntVar(&c.seconds, "seconds", perRunSeconds, "run length in seconds; sets how many sessions a run measures")
	trace := flag.Int("trace", 0, "1 runs the traced in-process replay and reports per-layer metrics")
	flag.StringVar(&c.bin, "bin", "", "stormtune binary under test")
	flag.StringVar(&c.tracer, "tracer", "", "traced-replay binary (perfbench/trace)")
	flag.StringVar(&c.work, "work", "", "scratch directory inside the checkout")
	flag.Parse()
	c.trace = *trace == 1
	c.sizes = spec.Full()
	if err := c.validate(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := c.run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		if _, ok := err.(*wrongOutput); !ok {
			os.Exit(1)
		}
		res.Correct = false
	}
	line, jerr := json.Marshal(res)
	if jerr != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", jerr)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func (c config) validate() error {
	if _, ok := sessionsPerRun[c.workload]; !ok {
		return fmt.Errorf("unknown --workload %q (want one of %v)", c.workload, spec.Names)
	}
	if c.seed < 0 {
		return fmt.Errorf("--seed must be ≥ 0")
	}
	if c.seconds < 1 {
		return fmt.Errorf("--seconds must be ≥ 1")
	}
	for _, p := range []string{c.bin, c.tracer} {
		if _, err := os.Stat(p); err != nil {
			return fmt.Errorf("missing binary: %w", err)
		}
	}
	if c.work == "" {
		return fmt.Errorf("--work is required")
	}
	return nil
}

// run executes the workload in a fresh scratch directory.
func (c config) run() (result, error) {
	work, err := filepath.Abs(filepath.Join(c.work, fmt.Sprintf("%s-%d", c.workload, os.Getpid())))
	if err != nil {
		return result{}, err
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return result{}, err
	}
	defer os.RemoveAll(work)
	c.work = work
	res := result{Correct: true, Metrics: map[string]metric{}}
	switch c.workload {
	case spec.TuneLarge:
		if c.trace {
			err = c.traceTune(c.sizes.Large, &res)
		} else {
			err = c.e2eTune(c.sizes.Large, &res)
		}
	case spec.WatchDrift:
		if c.trace {
			err = c.traceWatch(&res)
		} else {
			err = c.e2eWatch(&res)
		}
	case spec.FleetResume:
		err = c.fleet(&res)
	}
	return res, err
}

// e2e collects one run's sessions into the end-to-end metrics. With a
// clock the sessions were paced, and every time is reported at the
// reference host speed (calib.go); without one, as wall time.
type e2e struct {
	clock         *hostClock
	setups, rssMB []float64
	sessions      int
	trials        int
	sessionSum    float64 // at the reference speed
	wallSum       float64
}

func (e *e2e) add(r procRun, trials int) {
	e.setups = append(e.setups, r.setup.Seconds())
	e.sessions++
	e.rssMB = append(e.rssMB, r.rssMB...)
	e.trials += trials
	e.sessionSum += r.session.Seconds() * r.scale
	e.wallSum += r.session.Seconds()
}

// report sets the end-to-end metrics. session_s is the mean session:
// the sessions of a tune or watch run use different seeds, whose
// lengths differ from seed to seed, and the mean of those varies less
// from run to run than their median. Set-up is too short to be paced;
// it takes the run's host-speed factor.
func (e *e2e) report(res *result) {
	k := 1.0
	if e.clock != nil {
		k = scale(e.clock.samples)
		fmt.Fprintf(os.Stderr, "perfbench: wall %.3f s over %d sessions, host factor %.4f from %d calibration samples\n",
			e.wallSum, e.sessions, k, len(e.clock.samples))
	}
	res.Metrics["setup_s"] = metric{median(e.setups) * k, "s"}
	res.Metrics["session_s"] = metric{e.sessionSum / float64(e.sessions), "s"}
	res.Metrics["trials_per_s"] = metric{float64(e.trials) / e.sessionSum, "1/s"}
	res.Metrics["rss_mb"] = metric{median(e.rssMB), "MB"}
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

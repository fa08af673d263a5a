package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"stormtune/perfbench/spec"
)

// setupProbes is how many extra set-up-only launches a tune or watch
// run adds to its sessions' own set-up samples, spread over the run.
// Their set-up is process start, a few milliseconds, so one sample per
// session cannot give a steady median.
const setupProbes = 24

// probeSetup adds set-up-only samples of args to m: its share of
// setupProbes after session i of n.
func (c config) probeSetup(args []string, m *e2e, i, n int) error {
	for k := setupProbes * i / n; k < setupProbes*(i+1)/n; k++ {
		r, err := runCLI(c.bin, args, true, nil)
		if err != nil {
			return err
		}
		m.setups = append(m.setups, r.setup.Seconds())
	}
	return nil
}

// checkTune verifies a tune session ran its whole budget and returns
// the best throughput as the CLI printed it.
func checkTune(out []string, steps int) (string, error) {
	n, err := intField(out, "steps run:")
	if err != nil {
		return "", err
	}
	if n != steps {
		return "", wrongf("steps run %d, want the budget %d", n, steps)
	}
	return firstWord(out, "throughput:")
}

func (c config) e2eTune(t spec.Tune, res *result) error {
	m := e2e{clock: newHostClock()}
	for i := 0; i < c.sessions(); i++ {
		r, err := runCLI(c.bin, t.Args(spec.SessionSeed(c.seed, i)), false, m.clock)
		if err != nil {
			return err
		}
		if _, err := checkTune(r.stdout, t.Steps); err != nil {
			return err
		}
		m.add(r, t.Steps)
		res.Attempted += t.Steps
		res.Failed += permanentFailures(r.stderr)
		if err := c.probeSetup(t.Args(spec.SessionSeed(c.seed, 0)), &m, i, c.sessions()); err != nil {
			return err
		}
	}
	m.report(res)
	return nil
}

func (c config) traceTune(t spec.Tune, res *result) error {
	seed := spec.SessionSeed(c.seed, 0)
	r, err := runCLI(c.bin, t.Args(seed), false, nil)
	if err != nil {
		return err
	}
	best, err := checkTune(r.stdout, t.Steps)
	if err != nil {
		return err
	}
	tr, err := c.runTracer(seed)
	if err != nil {
		return err
	}
	res.Attempted = 2 * t.Steps
	res.Failed = permanentFailures(r.stderr) + tr.Failed
	tr.report(res, r.session)
	if err := checkTrace(tr, best); err != nil {
		return err
	}
	if tr.Steps != t.Steps {
		return wrongf("traced replay ran %d steps, want %d", tr.Steps, t.Steps)
	}
	return nil
}

// watchRun is what a watch prints at the end.
type watchRun struct {
	episodes  int
	incumbent string
	trials    int
}

func parseWatch(out []string, w spec.Watch) (watchRun, error) {
	var wr watchRun
	var err error
	if wr.episodes, err = intField(out, "episodes:"); err != nil {
		return wr, err
	}
	if wr.incumbent, err = firstWord(out, "incumbent:"); err != nil {
		return wr, err
	}
	if wr.episodes > w.Episodes {
		return wr, wrongf("%d retune episodes, the limit is %d", wr.episodes, w.Episodes)
	}
	// With -quiet the watch prints trial counts only per finished
	// retune; the initial tune always spends its whole budget.
	wr.trials = spec.WatchSteps
	for _, l := range out {
		if !strings.HasPrefix(l, "retune episode ") || !strings.Contains(l, " done ") {
			continue
		}
		var n int
		if _, err := fmt.Sscanf(l[strings.Index(l, " after ")+1:], "after %d trials", &n); err != nil {
			return wr, wrongf("unparsable retune line %q: %v", l, err)
		}
		wr.trials += n
	}
	return wr, nil
}

func (c config) e2eWatch(res *result) error {
	w := c.sizes.Watch
	m := e2e{clock: newHostClock()}
	for i := 0; i < c.sessions(); i++ {
		r, err := runCLI(c.bin, w.Args(spec.SessionSeed(c.seed, i)), false, m.clock)
		if err != nil {
			return err
		}
		wr, err := parseWatch(r.stdout, w)
		if err != nil {
			return err
		}
		m.add(r, wr.trials)
		res.Attempted += wr.trials
		res.Failed += permanentFailures(r.stderr)
		if err := c.probeSetup(w.Args(spec.SessionSeed(c.seed, 0)), &m, i, c.sessions()); err != nil {
			return err
		}
	}
	m.report(res)
	return nil
}

func (c config) traceWatch(res *result) error {
	w := c.sizes.Watch
	seed := spec.SessionSeed(c.seed, 0)
	r, err := runCLI(c.bin, w.Args(seed), false, nil)
	if err != nil {
		return err
	}
	wr, err := parseWatch(r.stdout, w)
	if err != nil {
		return err
	}
	tr, err := c.runTracer(seed)
	if err != nil {
		return err
	}
	res.Attempted = wr.trials + tr.Trials
	res.Failed = permanentFailures(r.stderr) + tr.Failed
	tr.report(res, r.session)
	if tr.Episodes != wr.episodes {
		return wrongf("traced replay ran %d retune episodes, the CLI %d", tr.Episodes, wr.episodes)
	}
	return checkTrace(tr, wr.incumbent)
}

// fleetTable is the CLI's per-session summary — one normalized row per
// session, then the fleet-best line without its wall-clock suffix.
func fleetTable(out []string) ([]string, error) {
	var rows []string
	in := false
	for _, l := range out {
		switch {
		case strings.HasPrefix(l, "session "):
			in = true
		case strings.HasPrefix(l, "fleet best:"):
			if !in {
				break
			}
			if i := strings.Index(l, " after "); i >= 0 {
				l = l[:i]
			}
			return append(rows, l), nil
		case in:
			rows = append(rows, strings.Join(strings.Fields(l), " "))
		}
	}
	return nil, wrongf("fleet output has no summary table")
}

// tableSteps sums the steps column of a fleet table.
func tableSteps(table []string) int {
	total := 0
	for _, row := range table[:len(table)-1] {
		if f := strings.Fields(row); len(f) > 1 {
			n, _ := strconv.Atoi(f[1]) // a malformed row fails the table comparison instead
			total += n
		}
	}
	return total
}

func sameTable(got, want []string, what string) error {
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		return wrongf("%s differs from the uninterrupted reference:\n got %q\nwant %q", what, got, want)
	}
	return nil
}

// fleetRun runs the fleet CLI and returns its summary table.
func (c config) fleetRun(args []string) (procRun, []string, error) {
	r, err := runCLI(c.bin, args, false, nil)
	if err != nil {
		return r, nil, err
	}
	table, err := fleetTable(r.stdout)
	return r, table, err
}

// fleet runs fleet-resume: two workers, an untimed run that writes the
// log with every budget capped, an untimed uninterrupted reference, and
// the timed resumes of copies of the log, each checked against the
// reference.
func (c config) fleet(res *result) error {
	f := c.sizes.Fleet
	seed := spec.SessionSeed(c.seed, 0)
	var urls []string
	for i := 0; i < f.Workers; i++ {
		w, err := startWorker(c.bin, func(addr string) []string { return f.ServeArgs(addr, seed) })
		if err != nil {
			return err
		}
		defer w.stop()
		urls = append(urls, w.url)
	}
	path := func(name string) string { return filepath.Join(c.work, name) }
	for name, steps := range map[string]int{"prep.json": f.PrepSteps, "full.json": f.Steps} {
		doc, err := f.Manifest(urls, seed, steps)
		if err != nil {
			return err
		}
		if err := os.WriteFile(path(name), doc, 0o644); err != nil {
			return err
		}
	}
	_, prepTable, err := c.fleetRun(f.Args(path("prep.json"), path("prep.log"), path("prep-archive"), false))
	if err != nil {
		return err
	}
	_, refTable, err := c.fleetRun(f.Args(path("full.json"), path("ref.log"), path("ref-archive"), false))
	if err != nil {
		return err
	}
	if err := os.RemoveAll(path("ref.log")); err != nil {
		return err
	}
	resumedTrials := tableSteps(refTable) - tableSteps(prepTable)

	resume := func() (procRun, error) {
		for _, p := range []string{"run.log", "run-archive"} {
			if err := os.RemoveAll(path(p)); err != nil {
				return procRun{}, err
			}
		}
		if err := copyFile(path("prep.log"), path("run.log")); err != nil {
			return procRun{}, err
		}
		if err := copyTree(path("prep-archive"), path("run-archive")); err != nil {
			return procRun{}, err
		}
		r, table, err := c.fleetRun(f.Args(path("full.json"), path("run.log"), path("run-archive"), true))
		if err != nil {
			return r, err
		}
		want := fmt.Sprintf("%d of %d session(s)", len(f.Sessions), len(f.Sessions))
		if got, _ := field(r.stdout, "resuming "); !strings.HasPrefix(got, want) {
			return r, wrongf("resume restored %q, want %q", got, want)
		}
		res.Attempted += resumedTrials
		res.Failed += permanentFailures(r.stderr)
		return r, sameTable(table, refTable, "resumed fleet summary")
	}

	if c.trace {
		r, err := resume()
		if err != nil {
			return err
		}
		for src, dst := range map[string]string{"prep.log": "trace.log", "prep-archive": "trace-archive"} {
			if err := copyTree(path(src), path(dst)); err != nil {
				return err
			}
		}
		tr, err := c.runTracer(seed, "-log", path("trace.log"), "-archive", path("trace-archive"))
		if err != nil {
			return err
		}
		res.Attempted += tr.Trials
		res.Failed += tr.Failed
		tr.report(res, r.session)
		return sameTable(tr.Table, refTable, "traced replay's fleet summary")
	}

	var m e2e
	for i := 0; i < c.sessions(); i++ {
		r, err := resume()
		if err != nil {
			return err
		}
		m.add(r, resumedTrials)
	}
	// Reopening the final log must restore every member at its full
	// step count: a second resume runs nothing and prints the same table.
	_, table, err := c.fleetRun(f.Args(path("full.json"), path("run.log"), path("run-archive"), true))
	if err != nil {
		return err
	}
	if err := sameTable(table, refTable, "reopened final log"); err != nil {
		return err
	}
	m.report(res)
	return nil
}

// traceOut is the traced replay's result line (perfbench/trace).
type traceOut struct {
	SessionS float64           `json:"session_s"`
	Trials   int               `json:"trials"`
	Failed   int               `json:"failed"`
	Steps    int               `json:"steps"`
	Best     string            `json:"best"`
	Episodes int               `json:"episodes"`
	Table    []string          `json:"table"`
	Metrics  map[string]metric `json:"metrics"`
}

// report copies the layer metrics into res and adds the tracing
// overhead: traced session time over the untraced CLI session's.
func (t traceOut) report(res *result, untraced time.Duration) {
	for k, v := range t.Metrics {
		res.Metrics[k] = v
	}
	res.Metrics["trace.overhead"] = metric{t.SessionS / untraced.Seconds(), "ratio"}
}

// checkTrace verifies the replay made the CLI's decisions: its best
// throughput, printed the CLI's way, equals the CLI's.
func checkTrace(t traceOut, cliBest string) error {
	if t.Best != cliBest {
		return wrongf("traced replay's best %s tuples/s differs from the CLI's %s", t.Best, cliBest)
	}
	return nil
}

// runTracer runs the traced replay of c.workload at CLI seed seed.
func (c config) runTracer(seed int64, extra ...string) (traceOut, error) {
	ctx, cancel := context.WithTimeout(context.Background(), procTimeout)
	defer cancel()
	args := append([]string{"-workload", c.workload, "-seed", strconv.FormatInt(seed, 10),
		"-spans", filepath.Join(filepath.Dir(c.work), "spans-"+c.workload+".jsonl"),
		"-tiny=" + strconv.FormatBool(c.tiny)}, extra...)
	cmd := exec.CommandContext(ctx, c.tracer, args...)
	cmd.Env = childEnv()
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return traceOut{}, fmt.Errorf("traced replay: %v\n%s", err, tail(stderr.String()))
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var t traceOut
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &t); err != nil {
		return traceOut{}, fmt.Errorf("traced replay output: %w", err)
	}
	return t, nil
}

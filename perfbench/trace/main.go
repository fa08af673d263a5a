// Command trace is perfbench's traced run. It replays one workload
// in-process through the stormtune library with the settings the CLI
// uses (package spec), times the calls into each layer's public
// functions from the outside, and prints the per-layer metrics as one
// JSON line. The spans stay in memory and are written to -spans when
// the replay ends. perfbench runs it with --trace 1; it checks that the
// replay's best throughput equals the CLI's, which shows the replay
// made the same decisions.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"stormtune"
	"stormtune/perfbench/spec"
)

// output is the replay's result line; perfbench decodes it.
type output struct {
	SessionS  float64           `json:"session_s"`
	Trials    int               `json:"trials"`
	Failed    int               `json:"failed"`
	Steps     int               `json:"steps,omitempty"`
	Best      string            `json:"best"`
	Episodes  int               `json:"episodes"`
	Table     []string          `json:"table,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	bestValue float64
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	workload := flag.String("workload", "", "workload to replay")
	seed := flag.Int64("seed", 1, "the CLI -seed of the replayed session")
	spansPath := flag.String("spans", "", "write the spans here as JSON lines")
	tiny := flag.Bool("tiny", false, "self-test scale")
	logPath := flag.String("log", "", "fleet-resume: a copy of the prepared fleet log, resumed in place")
	archDir := flag.String("archive", "", "fleet-resume: a copy of the prepared archive, appended in place")
	flag.Parse()
	sizes := spec.Full()
	if *tiny {
		sizes = spec.Tiny()
	}
	ctx := context.Background()
	var r *replay
	var err error
	switch *workload {
	case spec.TuneLarge:
		r, err = replayTune(ctx, sizes.Large, *seed)
	case spec.WatchDrift:
		r, err = replayWatch(ctx, sizes.Watch, *seed)
	case spec.FleetResume:
		r, err = replayFleet(ctx, sizes.Fleet, *seed, *logPath, *archDir)
	default:
		err = fmt.Errorf("unknown -workload %q", *workload)
	}
	if err == nil {
		err = r.finish(*seed)
	}
	if err == nil && *spansPath != "" {
		err = r.rec.write(*spansPath)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "trace:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(r.out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "trace:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// finish turns spans, counts and side measurements into the per-layer
// metrics. A layer the workload does not reach reports 0.
func (r *replay) finish(seed int64) error {
	r.out.SessionS = r.session.Seconds()
	r.out.Trials = r.trials
	r.out.Failed = r.tally.failed
	m := map[string]metric{}
	put := func(name, unit string, v float64) { m[name] = metric{v, unit} }
	p := func(name string, q float64) float64 { return quantile(r.rec.durations(name), q) }
	sum := func(name string) float64 {
		total := 0.0
		for _, d := range r.rec.durations(name) {
			total += d
		}
		return total
	}

	// Decide: timed Propose calls where the replay asks itself (tune),
	// otherwise the decision time each trial carries.
	propose := r.rec.durations("bo.propose")
	if len(propose) == 0 {
		propose = r.tally.decisions
	}
	proposeSum := 0.0
	for _, d := range propose {
		proposeSum += d
	}
	put("bo.propose_ms_p50", "ms", 1e3*quantile(propose, 0.5))
	put("bo.propose_ms_p90", "ms", 1e3*quantile(propose, 0.9))
	put("bo.propose_ms_sum", "ms", 1e3*proposeSum)

	var ms microStats
	if r.gpN > 1 {
		var err error
		if ms, err = micro(r.gpN, r.gpD, seed); err != nil {
			return err
		}
	}
	put("gp.fit_ms", "ms", ms.fitMs)
	put("gp.slice_ms", "ms", ms.sliceMs)
	put("gp.predict_us", "us", ms.predictUs)
	put("linalg.chol_ms", "ms", ms.cholMs)
	put("linalg.extend_us", "us", ms.extendUs)

	put("storm.eval_us_p50", "us", 1e6*p("storm.eval", 0.5))
	put("storm.eval_ms_sum", "ms", 1e3*sum("storm.eval"))

	put("watch.hold_samples", "count", float64(r.tally.holds))
	put("watch.episodes", "count", float64(r.out.Episodes))
	put("watch.hold_ms_sum", "ms", 1e3*sum("watch.hold"))
	put("watch.retune_propose_ms_sum", "ms", 1e3*r.tally.retuneDecision)

	put("core.report_us_p50", "us", 1e6*p("core.report", 0.5))
	put("core.dispatch_ms_p50", "ms", 1e3*p("core.dispatch", 0.5))
	put("core.pool_wait_us_p50", "us", 1e6*p("core.pool_wait", 0.5))
	put("core.best_tput", "tuples/s", r.out.bestValue)
	put("core.trials_retried", "count", float64(r.tally.retried))
	put("core.trials_failed", "count", float64(r.tally.failed))

	rtt50, server50 := p("remote.rtt", 0.5), 0.0
	if len(r.rec.durations("remote.rtt")) > 0 {
		server50 = p("storm.eval", 0.5)
	}
	put("remote.rtt_ms_p50", "ms", 1e3*rtt50)
	put("remote.rtt_ms_p90", "ms", 1e3*p("remote.rtt", 0.9))
	put("remote.server_ms_p50", "ms", 1e3*server50)
	put("remote.wire_ms_p50", "ms", 1e3*(rtt50-server50))

	fl := r.fleetLog
	perTrial := func(bytes int64) float64 {
		if r.trials == 0 {
			return 0
		}
		return float64(bytes) / float64(r.trials)
	}
	put("fleetlog.open_s", "s", fl.openS)
	put("fleetlog.resume_s", "s", fl.resumeS)
	put("fleetlog.bytes_per_trial", "B", perTrial(fl.logBytes))
	put("fleetlog.snapshot_ms", "ms", fl.snapshotMs)
	put("fleetlog.snapshots", "count", float64(fl.snapshots))
	put("archive.open_ms", "ms", fl.archiveOpenMs)
	put("archive.bytes_per_trial", "B", perTrial(fl.archiveBytes))

	allocMB := float64(r.mem1.TotalAlloc-r.mem0.TotalAlloc) / (1 << 20)
	if r.trials > 0 {
		allocMB /= float64(r.trials)
	}
	put("go.alloc_mb_per_trial", "MB", allocMB)
	put("go.gc_cycles", "count", float64(r.mem1.NumGC-r.mem0.NumGC))
	r.out.Metrics = m
	return nil
}

// snapshotCost is the median time of Tuner.Snapshot plus its JSON
// encoding — what the fleet log pays per trial — at the tuner's
// current (final) state, in milliseconds.
func snapshotCost(tn *stormtune.Tuner) (float64, error) {
	d, err := medianOf(microReps, func() (time.Duration, error) {
		start := time.Now()
		_, err := json.Marshal(tn.Snapshot())
		return time.Since(start), err
	})
	return 1e3 * d, err
}

// countSnapshots counts the snapshot records appended to the fleet log
// after offset. Records are JSON lines whose first field is "kind".
func countSnapshots(path string, offset int64) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	if _, err := f.Seek(offset, io.SeekStart); err != nil {
		return 0, err
	}
	prefix := []byte(`{"kind":"snapshot"`)
	n := 0
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<30)
	for sc.Scan() {
		if bytes.HasPrefix(sc.Bytes(), prefix) {
			n++
		}
	}
	return n, sc.Err()
}

// treeSize is the total size of a file or directory tree.
func treeSize(root string) (int64, error) {
	var total int64
	err := filepath.WalkDir(root, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// quantile interpolates linearly between order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo, hi := int(math.Floor(pos)), int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

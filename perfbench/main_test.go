package main

import (
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"stormtune/perfbench/spec"
)

// benchMetric is one metric entry of BENCHMARK.json.
type benchMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadBenchmark(t *testing.T) (e2eMetrics, layerMetrics []benchMetric, workloads []string) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []benchMetric `json:"end_to_end"`
		PerLayer []benchMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	for _, w := range doc.Workloads {
		workloads = append(workloads, w.Name)
	}
	return doc.EndToEnd, doc.PerLayer, workloads
}

func isWrong(err error) bool {
	var w *wrongOutput
	return errors.As(err, &w)
}

// TestTinyWorkloads runs every workload at the self-test scale, in both
// modes, against freshly built binaries, and checks that each metric
// BENCHMARK.json names is printed with its unit.
func TestTinyWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the CLI")
	}
	bin := t.TempDir()
	for target, out := range map[string]string{
		"stormtune/cmd/stormtune":   "stormtune",
		"stormtune/perfbench/trace": "perfbench-trace",
	} {
		cmd := exec.Command("go", "build", "-o", filepath.Join(bin, out), target)
		if msg, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", target, err, msg)
		}
	}
	e2eMetrics, layerMetrics, workloads := loadBenchmark(t)
	for _, w := range workloads {
		if _, ok := sessionsPerRun[w]; !ok {
			t.Fatalf("BENCHMARK.json lists %q, which perfbench does not run", w)
		}
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			c := config{workload: w, seed: 1, seconds: 20, trace: trace, tiny: true,
				bin: filepath.Join(bin, "stormtune"), tracer: filepath.Join(bin, "perfbench-trace"),
				work: t.TempDir(), sizes: spec.Tiny()}
			res, err := c.run()
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			want := e2eMetrics
			if trace {
				want = layerMetrics
			}
			if len(res.Metrics) != len(want) || !res.Correct || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d, %d metrics, want %d",
					w, trace, res.Correct, res.Attempted, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v (present %v), want unit %s", w, trace, m.Name, got, ok, m.Unit)
				}
			}
		}
	}

	// The checks reject a wrong reference on real output.
	tune := spec.Tiny().Large
	r, err := runCLI(filepath.Join(bin, "stormtune"), tune.Args(1), false, nil)
	if err != nil {
		t.Fatal(err)
	}
	best, err := checkTune(r.stdout, tune.Steps)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := checkTune(r.stdout, tune.Steps+1); !isWrong(err) {
		t.Errorf("checkTune accepted a wrong budget: %v", err)
	}
	if err := checkTrace(traceOut{Best: best}, best+"1"); !isWrong(err) {
		t.Errorf("checkTrace accepted a wrong best: %v", err)
	}
}

func TestChecksRejectWrongOutput(t *testing.T) {
	table, err := fleetTable([]string{
		"resuming 2 of 2 session(s) from run.log",
		"session                   steps best-step     throughput",
		"pla-small                   379        57           6827",
		"ipla-small                  137        14           9235",
		"fleet best: 9235 tuples/s (ipla-small) after 1.967s",
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"pla-small 379 57 6827", "ipla-small 137 14 9235", "fleet best: 9235 tuples/s (ipla-small)"}
	if err := sameTable(table, want, "table"); err != nil {
		t.Fatal(err)
	}
	if got := tableSteps(table); got != 379+137 {
		t.Errorf("tableSteps = %d, want %d", got, 379+137)
	}
	wrong := append([]string(nil), want...)
	wrong[1] = "ipla-small 137 14 9236"
	if err := sameTable(table, wrong, "table"); !isWrong(err) {
		t.Errorf("sameTable accepted a wrong throughput: %v", err)
	}
	if _, err := fleetTable([]string{"fleet: 2 sessions over 2 shared slot(s)"}); !isWrong(err) {
		t.Errorf("fleetTable accepted output without a table: %v", err)
	}

	watch := spec.Full().Watch
	out := []string{
		"retune episode 1 done at t=332340s after 10 trials: best 665.8 tuples/s",
		"retune episode 2 done at t=550380s after 12 trials: best 840.3 tuples/s",
		"sim time:      818640s",
		"episodes:      2",
		"incumbent:     1054.9 tuples/s",
	}
	wr, err := parseWatch(out, watch)
	if err != nil {
		t.Fatal(err)
	}
	if wr.episodes != 2 || wr.incumbent != "1054.9" || wr.trials != spec.WatchSteps+22 {
		t.Errorf("parseWatch = %+v", wr)
	}
	watch.Episodes = 1
	if _, err := parseWatch(out, watch); !isWrong(err) {
		t.Errorf("parseWatch accepted more episodes than the limit: %v", err)
	}
}

// TestPacedSession paces a process that sleeps through its session:
// the pauses take calibration samples and are left out of its time.
func TestPacedSession(t *testing.T) {
	clock := newHostClock()
	r, err := runCLI("/bin/sh", []string{"-c", "echo 'tuning test'; sleep 1.3; echo done"}, false, clock)
	if err != nil {
		t.Fatal(err)
	}
	if len(clock.samples) < 2 || r.scale <= 0 || r.scale != scale(clock.samples) {
		t.Fatalf("%d samples, scale %v", len(clock.samples), r.scale)
	}
	if s := r.session.Seconds(); s < 1.2 || s > 1.6 {
		t.Errorf("session %.3f s, want the 1.3 s sleep without the pauses", s)
	}
	if len(r.rssMB) == 0 || r.stdout[len(r.stdout)-1] != "done" {
		t.Errorf("rss samples %v, stdout %q", r.rssMB, r.stdout)
	}
	if v, ok := readRSS("/proc/self/status"); !ok || v <= 0 {
		t.Errorf("readRSS(/proc/self/status) = %v, %v", v, ok)
	}
}

package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"strings"
	"time"

	"stormtune"
	"stormtune/perfbench/spec"
)

// The library settings below mirror cmd/stormtune for each subcommand;
// the values that are not library defaults come from package spec.

// retryPolicy is the CLI's default -retries / -retry-backoff.
func retryPolicy() stormtune.RetryPolicy {
	return stormtune.RetryPolicy{MaxAttempts: spec.Retries, Backoff: spec.RetryBackoff}
}

// cliTopology builds what `-topology name -seed seed` builds: the
// synthetic topology, its simulator and the non-searched template.
func cliTopology(name string, seed int64) (*stormtune.Topology, stormtune.Evaluator, stormtune.Config) {
	t := stormtune.BuildSynthetic(name, stormtune.Condition{}, seed)
	ev := stormtune.NewFluidSim(t, stormtune.PaperCluster(), stormtune.SinkTuples, seed)
	return t, ev, stormtune.DefaultSyntheticConfig(t, 1)
}

// replay is what a traced workload hands back to main.
type replay struct {
	out      output
	rec      *recorder
	tally    *tally
	session  time.Duration
	trials   int
	mem0     runtime.MemStats
	mem1     runtime.MemStats
	gpN      int // training points of the session's last GP (0: no GP)
	gpD      int // search dimensions
	fleetLog fleetLogStats
}

// measureSession brackets the replayed session with memory statistics
// and the root span.
func (r *replay) measureSession(run func() error) error {
	runtime.GC()
	runtime.ReadMemStats(&r.mem0)
	start := time.Now()
	err := run()
	end := time.Now()
	runtime.ReadMemStats(&r.mem1)
	r.session = end.Sub(start)
	r.rec.session(start, end)
	return err
}

// searchDims is the Bayesian optimizer's dimension count for the
// topology and template, from the strategy's own encoding.
func searchDims(t *stormtune.Topology, template stormtune.Config) (int, error) {
	s := stormtune.NewBO(t, stormtune.PaperCluster(), template, stormtune.BOOptions{Set: stormtune.Hints})
	enc, ok := s.(interface {
		Encode(stormtune.Config) []float64
	})
	if !ok {
		return 0, errors.New("the Bayesian strategy no longer exposes Encode")
	}
	return len(enc.Encode(template)), nil
}

// replayTune drives `stormtune tune` as an ask/tell loop, timing every
// Propose.
func replayTune(ctx context.Context, w spec.Tune, seed int64) (*replay, error) {
	r := &replay{rec: newRecorder(), tally: &tally{}}
	t, ev, template := cliTopology(w.Topology, seed)
	cl := stormtune.PaperCluster()
	backend := evalBackend{inner: stormtune.AsBackend(ev), rec: r.rec}
	tn, err := stormtune.NewTuner(t, backend, stormtune.TunerOptions{
		Steps: w.Steps, Set: stormtune.Hints, Template: &template, Cluster: &cl, Seed: seed,
		MaxGPPoints: spec.MaxGPPoints, Retry: retryPolicy(),
		Observer: observer{rec: r.rec, tally: r.tally},
	})
	if err != nil {
		return nil, err
	}
	err = r.measureSession(func() error {
		for {
			start := time.Now()
			trials, err := tn.Propose(ctx)
			r.rec.add("bo.propose", "", start, time.Now())
			if err != nil {
				return err
			}
			if len(trials) == 0 {
				return nil
			}
			for _, tr := range trials {
				res, err := backend.Run(ctx, tr)
				if err != nil {
					return err
				}
				if err := tn.Report(tr, res); err != nil {
					return err
				}
			}
		}
	})
	if err != nil {
		return nil, err
	}
	best, ok := tn.Best()
	if !ok {
		return nil, errors.New("no successful trial")
	}
	r.trials = len(tn.Result().Records)
	r.out.Steps = r.trials
	r.out.Best = spec.FormatTput(best.Result.Throughput, 0)
	r.out.bestValue = best.Result.Throughput
	r.gpN = min(r.trials, spec.MaxGPPoints)
	r.gpD, err = searchDims(t, template)
	return r, err
}

// replayWatch runs `stormtune watch` through NewWatcher.
func replayWatch(ctx context.Context, w spec.Watch, seed int64) (*replay, error) {
	r := &replay{rec: newRecorder(), tally: &tally{}}
	t, ev, template := cliTopology(w.Topology, seed)
	profile, err := stormtune.ParseDrift(w.Drift)
	if err != nil {
		return nil, err
	}
	backend := evalBackend{inner: stormtune.AsBackend(stormtune.Drifting(ev, profile, w.BaseLoad)), rec: r.rec}
	watcher, err := stormtune.NewWatcher(t, backend, stormtune.WatchOptions{
		Steps: spec.WatchSteps, Set: stormtune.Hints, Template: &template, Seed: seed,
		TrialCost: spec.WatchTrialCost, HoldInterval: spec.WatchHoldInterval,
		Horizon: w.Horizon, MaxEpisodes: w.Episodes, MaxGPPoints: spec.MaxGPPoints,
		Retry: retryPolicy(), Observer: observer{rec: r.rec, tally: r.tally},
	})
	if err != nil {
		return nil, err
	}
	if err := r.measureSession(func() error { return watcher.Run(ctx) }); err != nil {
		return nil, err
	}
	_, y, ok := watcher.Incumbent()
	if !ok {
		return nil, errors.New("watch ended before the initial tune completed")
	}
	r.trials = r.tally.started
	r.out.Episodes = watcher.Episodes()
	r.out.Best = spec.FormatTput(y, 1)
	r.out.bestValue = y
	r.gpN = min(r.trials, spec.MaxGPPoints)
	r.gpD, err = searchDims(t, template)
	return r, err
}

// fleetLogStats are the fleet log and archive measurements.
type fleetLogStats struct {
	openS, resumeS, snapshotMs, archiveOpenMs float64
	logBytes, archiveBytes                    int64
	snapshots                                 int
}

// replayFleet resumes the prepared fleet log and archive in place,
// in-process, with both workers served from this process so the server
// side can be timed.
func replayFleet(ctx context.Context, f spec.Fleet, seed int64, logPath, archDir string) (*replay, error) {
	r := &replay{rec: newRecorder(), tally: &tally{}}
	var urls []string
	for i := 0; i < f.Workers; i++ {
		url, stop, err := serveWorker(f, seed, r.rec)
		if err != nil {
			return nil, err
		}
		defer stop()
		urls = append(urls, url)
	}
	prepLogBytes, err := treeSize(logPath)
	if err != nil {
		return nil, err
	}
	prepArchBytes, err := treeSize(archDir)
	if err != nil {
		return nil, err
	}

	start := time.Now()
	arch, err := stormtune.OpenArchive(archDir)
	if err != nil {
		return nil, err
	}
	r.fleetLog.archiveOpenMs = ms(time.Since(start))
	defer arch.Close()

	var workers []stormtune.Backend
	for _, u := range urls {
		rb := stormtune.NewRemoteBackend(u, stormtune.RemoteBackendOptions{
			Transport: stormtune.RemoteTransport{Retries: spec.TransportRetries}})
		if _, err := rb.Info(ctx); err != nil {
			return nil, err
		}
		workers = append(workers, remoteMember{RemoteBackend: rb, rec: r.rec})
	}
	pool, err := stormtune.NewBackendPool(workers...)
	if err != nil {
		return nil, err
	}

	start = time.Now()
	flog, err := stormtune.OpenFleetLog(logPath)
	if err != nil {
		return nil, err
	}
	r.fleetLog.openS = time.Since(start).Seconds()
	defer flog.Close()

	var resumeTime time.Duration
	members := make([]stormtune.FleetMember, len(f.Sessions))
	for i, s := range f.Sessions {
		t, _, template := cliTopology(s.Topology, seed)
		cl := stormtune.PaperCluster()
		opts := stormtune.TunerOptions{
			Steps: f.Steps, Set: stormtune.Hints, Template: &template, Cluster: &cl, Seed: seed,
			MaxGPPoints: spec.MaxGPPoints, Recorder: stormtune.NewRecorder(),
			Observer: observer{rec: r.rec, tally: r.tally, member: s.Name},
			Archive:  arch, WarmStart: stormtune.WarmStartOptions{Enabled: true, Prior: true},
			Retry: retryPolicy(), StopAfterZeros: spec.LinearStopAfterZeros,
		}
		switch s.Strategy {
		case "pla":
			opts.Strategy = stormtune.NewPLA(t, template)
		case "ipla":
			opts.Strategy = stormtune.NewIPLA(t, template)
		default:
			return nil, fmt.Errorf("fleet session %q: strategy %q is not replayed", s.Name, s.Strategy)
		}
		backend := memberBackend{pool: pool, rec: r.rec, member: s.Name}
		start := time.Now()
		st, err := flog.MemberState(s.Name)
		if err != nil {
			return nil, err
		}
		if st == nil {
			return nil, fmt.Errorf("fleet log has no snapshot of %q", s.Name)
		}
		tn, err := stormtune.ResumeTuner(st, t, backend, opts)
		if err != nil {
			return nil, err
		}
		resumeTime += time.Since(start)
		members[i] = stormtune.FleetMember{Name: s.Name, Tuner: tn, MaxInFlight: 1}
	}
	r.fleetLog.resumeS = resumeTime.Seconds()
	fleet, err := stormtune.NewFleet(stormtune.FleetOptions{Slots: f.Slots, ShareIncumbents: true, Log: flog}, members...)
	if err != nil {
		return nil, err
	}
	var results map[string]stormtune.TuneResult
	err = r.measureSession(func() error {
		var err error
		results, err = fleet.Run(ctx)
		if err != nil {
			return err
		}
		return stormtune.SealFleetArchives(members...)
	})
	if err != nil {
		return nil, err
	}
	if err := flog.Err(); err != nil {
		return nil, err
	}

	// The summary table, printed the CLI's way.
	var best float64
	var bestName string
	largest, largestN := members[0].Tuner, -1
	for _, m := range members {
		tr := results[m.Name]
		rec, ok := tr.Best()
		if !ok {
			r.out.Table = append(r.out.Table, fmt.Sprintf("%s %d - no successful run", m.Name, len(tr.Records)))
			continue
		}
		if rec.Result.Throughput > best {
			best, bestName = rec.Result.Throughput, m.Name
		}
		r.out.Table = append(r.out.Table, strings.Join(strings.Fields(
			fmt.Sprintf("%s %d %d %.0f", m.Name, len(tr.Records), tr.BestStep, rec.Result.Throughput)), " "))
		if len(tr.Records) > largestN {
			largest, largestN = m.Tuner, len(tr.Records)
		}
	}
	r.out.Table = append(r.out.Table, fmt.Sprintf("fleet best: %.0f tuples/s (%s)", best, bestName))
	r.out.Best = spec.FormatTput(best, 0)
	r.out.bestValue = best
	r.trials = r.tally.started

	// Persistence: the largest member's final snapshot cost, and what
	// the run appended to the log and the archive.
	if r.fleetLog.snapshotMs, err = snapshotCost(largest); err != nil {
		return nil, err
	}
	if err := flog.Close(); err != nil {
		return nil, err
	}
	logBytes, err := treeSize(logPath)
	if err != nil {
		return nil, err
	}
	r.fleetLog.logBytes = logBytes - prepLogBytes
	if r.fleetLog.snapshots, err = countSnapshots(logPath, prepLogBytes); err != nil {
		return nil, err
	}
	archBytes, err := treeSize(archDir)
	if err != nil {
		return nil, err
	}
	r.fleetLog.archiveBytes = archBytes - prepArchBytes
	return r, nil
}

// serveWorker serves what `stormtune serve -topology <Served> -seed
// seed -quiet` serves, from this process, with every evaluation timed.
func serveWorker(f spec.Fleet, seed int64, rec *recorder) (string, func(), error) {
	server := stormtune.NewBackendServer(stormtune.BackendServerOptions{})
	for _, name := range strings.Split(f.Served, ",") {
		t, ev, _ := cliTopology(name, seed)
		b := serverBackend{inner: stormtune.AsBackend(ev), rec: rec}
		if err := stormtune.RegisterTopology(server, t, b, stormtune.SinkTuples); err != nil {
			return "", nil, err
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: server.Handler(), ReadHeaderTimeout: 10 * time.Second}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "trace worker:", err)
		}
	}()
	stop := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx) // the replay is over; a slow drain only delays exit
		<-done
	}
	return "http://" + ln.Addr().String(), stop, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// The fleet subcommand: run many tuning sessions concurrently over one
// shared worker pool, with an aggregated dashboard and a crash-safe
// progress log.
//
//	stormtune fleet -manifest fleet.json [-dash ADDR] [-slots N]
//	                [-timeout D] [-retries N] [-retry-backoff D]
//	                [-trial-timeout D] [-archive DIR] [-token T]
//	                [-state fleet.log] [-resume] [-quiet]
//
// -archive DIR gives every session one shared session archive: each
// records its trials there, warm-starts from sufficiently similar
// archived evidence, and — because the archive is shared — a new best
// found by one member re-ranks its siblings' warm-start pools mid-run
// (incumbent sharing). The records seal when the fleet finishes
// cleanly.
//
// -state FILE streams every member's events and session snapshots to an
// append-only log as the fleet runs; after a crash or kill,
// `stormtune fleet -manifest ... -state FILE -resume` restores every
// member from its last durable snapshot and continues — bit-identically
// to a run that was never interrupted, mid-retry trials included. With
// -state, sessions that do not set "maxInFlight" run sequentially
// (maxInFlight 1): a member's record sequence must be deterministic for
// the resumed run to be bit-exact.
//
// The manifest is a small JSON document naming the shared workers and
// the sessions to run over them:
//
//	{
//	  "title": "nightly retune",
//	  "workers": ["http://127.0.0.1:8077", "http://127.0.0.1:8078"],
//	  "token": "s3cret",
//	  "slots": 2,
//	  "sessions": [
//	    {"name": "bo-small", "topology": "small", "strategy": "bo",
//	     "steps": 40, "seed": 1, "weight": 1},
//	    {"name": "bo-large", "topology": "large", "strategy": "ibo",
//	     "steps": 30, "seed": 2, "weight": 2, "maxInFlight": 1}
//	  ]
//	}
//
// With "workers" set, every session tunes over one shared pool of
// `stormtune serve` processes. Workers are multi-tenant — each serves
// any set of topologies (`stormtune serve -topology small,large`) and
// routes trials by structural fingerprint — so a fleet's sessions may
// tune different topologies over the same pool; the only requirement,
// checked up front, is that every session's topology is served by at
// least one worker. "token" (or -token) authenticates against workers
// started with `serve -token`. Without workers each session evaluates
// against its own in-process simulator; the fleet scheduler still
// enforces the shared slot budget, which then models a shared cluster's
// trial capacity.
//
// "slots" caps the fleet-wide number of in-flight trials (default: the
// worker count, or the session count in-process). Each session is
// additionally capped by its own cluster's concurrent-trial capacity,
// or by its "maxInFlight" when set.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"sync"
	"time"

	"stormtune"
)

// fleetManifest is the -manifest document.
type fleetManifest struct {
	// Title labels the dashboard (default "stormtune fleet").
	Title string `json:"title,omitempty"`
	// Workers are `stormtune serve` URLs forming the shared pool; empty
	// means in-process simulators.
	Workers []string `json:"workers,omitempty"`
	// Token is the bearer token the workers require; the -token flag
	// overrides it.
	Token string `json:"token,omitempty"`
	// Slots is the fleet-wide in-flight trial cap; 0 defaults to
	// len(Workers), or len(Sessions) in-process.
	Slots int `json:"slots,omitempty"`
	// Sessions are the tuning sessions to run.
	Sessions []fleetSession `json:"sessions"`
}

// fleetSession is one manifest entry: the topology knobs (shared with
// the tune/serve flags) plus the session's strategy, budget and fleet
// weight.
type fleetSession struct {
	// Name keys the session in results and dashboard URLs; default
	// "<topology>-<strategy>-<index>".
	Name string `json:"name,omitempty"`
	topoSpec
	// Strategy is pla, ipla, bo or ibo (default bo).
	Strategy string `json:"strategy,omitempty"`
	// Steps is the session's evaluation budget (default 60).
	Steps int `json:"steps,omitempty"`
	// Params selects the searched parameters: h, h-bs-bp or bs-bp-cc.
	Params string `json:"params,omitempty"`
	// Weight scales the session's share of slot grants (≤ 0 means 1).
	Weight float64 `json:"weight,omitempty"`
	// MaxInFlight caps the session's own concurrent trials; 0 keeps the
	// cluster-derived bound — except under -state, which defaults it to
	// 1 (sequential) so the member's record sequence is deterministic and
	// a resumed run is bit-identical.
	MaxInFlight int `json:"maxInFlight,omitempty"`
	// StopAfterZeros overrides the strategy default (3 for pla/ipla).
	StopAfterZeros int `json:"stopAfterZeros,omitempty"`
}

func loadManifest(path string) (*fleetManifest, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var m fleetManifest
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		return nil, fmt.Errorf("manifest %s: %w", path, err)
	}
	if len(m.Sessions) == 0 {
		return nil, fmt.Errorf("manifest %s: no sessions", path)
	}
	// Duplicate names are rejected here, at load time: a later session
	// with the same name would silently shadow the earlier one's result
	// key and dashboard path. Defaulted (empty) names are checked after
	// they are derived, in prepareSessions.
	names := make(map[string]bool, len(m.Sessions))
	for _, s := range m.Sessions {
		if s.Name == "" {
			continue
		}
		if names[s.Name] {
			return nil, fmt.Errorf("manifest %s: duplicate session name %q", path, s.Name)
		}
		names[s.Name] = true
	}
	return &m, nil
}

// preparedSession is a manifest entry resolved into everything NewTuner
// needs, minus the backend (the shared pool is built after every
// session's topology has been checked against it).
type preparedSession struct {
	name        string
	weight      float64
	maxInFlight int
	topology    *stormtune.Topology
	ev          stormtune.Evaluator
	metric      stormtune.Metric
	opts        stormtune.TunerOptions
	strategy    string
	steps       int
	seed        int64
	samples     int
}

// prepareSessions resolves the manifest entries: topologies built,
// strategies and parameter sets selected, names defaulted and checked
// unique, per-session recorders created.
func prepareSessions(man *fleetManifest, trialTimeout time.Duration,
	progress func(name string) stormtune.Observer) ([]preparedSession, error) {
	var out []preparedSession
	names := make(map[string]bool)
	for i, s := range man.Sessions {
		if s.Seed == 0 {
			s.Seed = 1
		}
		if s.Samples == 0 {
			s.Samples = 1
		}
		if s.Steps <= 0 {
			s.Steps = 60
		}
		strategy := s.Strategy
		if strategy == "" {
			strategy = "bo"
		}
		name := s.Name
		if name == "" {
			topoName := s.Topology
			if s.Spec != "" {
				topoName = "spec"
			}
			name = fmt.Sprintf("%s-%s-%d", topoName, strategy, i+1)
		}
		if names[name] {
			return nil, fmt.Errorf("manifest: duplicate session name %q", name)
		}
		names[name] = true

		t, ev, metric, err := s.topoSpec.build()
		if err != nil {
			return nil, fmt.Errorf("session %q: %w", name, err)
		}
		template := s.topoSpec.template(t)
		set, err := paramSet(s.Params)
		if err != nil {
			return nil, fmt.Errorf("session %q: %w", name, err)
		}
		opts, err := tunerOptions(t, strategy, stormtune.TunerOptions{
			Steps:        s.Steps,
			Set:          set,
			Template:     &template,
			Seed:         s.Seed,
			TrialTimeout: trialTimeout,
			Recorder:     stormtune.NewRecorder(),
			Observer:     progress(name),
		})
		if err != nil {
			return nil, fmt.Errorf("session %q: %w", name, err)
		}
		if s.StopAfterZeros > 0 {
			opts.StopAfterZeros = s.StopAfterZeros
		}
		out = append(out, preparedSession{
			name: name, weight: s.Weight, maxInFlight: s.MaxInFlight,
			topology: t, ev: ev, metric: metric,
			opts: opts, strategy: strategy, steps: s.Steps, seed: s.Seed,
			samples: s.Samples,
		})
	}
	return out, nil
}

func runFleet(args []string) {
	fs := flag.NewFlagSet("stormtune fleet", flag.ExitOnError)
	manifestPath := fs.String("manifest", "", "path to the fleet manifest JSON (required)")
	slotsFlag := fs.Int("slots", 0, "override the manifest's fleet-wide in-flight trial cap")
	timeout := fs.Duration("timeout", 0, "wall-clock budget for the whole fleet (0 = none)")
	ef := addEvalFlags(fs, true, "record every session into the shared archive at DIR, warm-start from it, and share incumbents across members mid-run")
	token := fs.String("token", "", "bearer token the workers require (overrides the manifest's \"token\")")
	statePath := fs.String("state", "", "stream fleet progress to this append-only log (crash-safe resume point)")
	resume := fs.Bool("resume", false, "resume a killed run from the -state log instead of starting fresh")
	dashAddr := fs.String("dash", "", "serve the aggregated fleet dashboard on this address (e.g. :8090)")
	quiet := fs.Bool("quiet", false, "suppress the live progress line")
	fs.Parse(args)

	if *manifestPath == "" {
		fmt.Fprintln(os.Stderr, "error: -manifest is required")
		fs.Usage()
		os.Exit(2)
	}
	if *resume && *statePath == "" {
		fmt.Fprintln(os.Stderr, "error: -resume needs -state (the log to resume from)")
		os.Exit(2)
	}
	man, err := loadManifest(*manifestPath)
	if err != nil {
		fatal(err)
	}
	remote := len(man.Workers) > 0
	workerToken := man.Token
	if *token != "" {
		workerToken = *token
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	// Live progress: completed trials and the fleet-wide best, fed by
	// every session's event stream.
	var progMu sync.Mutex
	var totalSteps, completed int
	var best float64
	var bestName string
	progress := func(name string) stormtune.Observer {
		return stormtune.ObserverFunc(func(e stormtune.Event) {
			progMu.Lock()
			defer progMu.Unlock()
			switch ev := e.(type) {
			case stormtune.NewBest:
				if ev.Result.Throughput > best {
					best = ev.Result.Throughput
					bestName = name
				}
			case stormtune.TrialCompleted:
				completed++
				if !*quiet {
					fmt.Printf("\rfleet: %4d/%d trials   best %12.0f tuples/s (%s)",
						completed, totalSteps, best, bestName)
				}
			case stormtune.TrialFailed:
				if ev.Permanent {
					fmt.Fprintf(os.Stderr, "\n%s: trial %d failed permanently after %d attempts: %v\n",
						name, ev.Trial.ID, ev.Attempt, ev.Err)
				}
			}
		})
	}

	prepared, err := prepareSessions(man, ef.trialDeadline(), progress)
	if err != nil {
		fatal(err)
	}
	for _, p := range prepared {
		totalSteps += p.steps
	}

	// One shared archive for the whole fleet: every member records into
	// it, warm-starts from it, and shares new incumbents with its
	// siblings mid-run.
	arch, err := ef.openArchive()
	if err != nil {
		fatal(err)
	}
	if arch != nil {
		defer arch.Close()
		for i := range prepared {
			prepared[i].opts.Archive = arch
			prepared[i].opts.WarmStart = stormtune.WarmStartOptions{Enabled: true, Prior: true}
		}
	}

	retry := ef.retryPolicy()
	mode := "in-process simulators"

	// The shared backend: in remote mode one pool of multi-tenant
	// workers every session tunes over. Workers route trials by
	// structural fingerprint, so a heterogeneous fleet works as long as
	// every session's topology is served somewhere in the pool — checked
	// up front so a misconfigured fleet fails before any trial runs.
	var pool *stormtune.BackendPool
	if remote {
		mode = fmt.Sprintf("%d shared remote worker(s)", len(man.Workers))
		clients := make([]*stormtune.RemoteBackend, 0, len(man.Workers))
		var workers []stormtune.Backend
		for _, u := range splitList(strings.Join(man.Workers, ",")) {
			rb := stormtune.NewRemoteBackend(u, remoteOptions(workerToken))
			// Info primes the client's served-fingerprint cache, which both
			// the coverage check below and pool routing consult.
			if _, err := rb.Info(ctx); err != nil {
				fatal(err)
			}
			clients = append(clients, rb)
			workers = append(workers, rb)
		}
		for _, p := range prepared {
			if p.samples > 1 {
				fatal(fmt.Errorf("session %q: samples has no effect with shared workers; start them with `stormtune serve -samples K`", p.name))
			}
			fp := stormtune.TopologyFingerprint(p.topology)
			covered := false
			for _, rb := range clients {
				if !rb.Serves(fp) {
					continue
				}
				// The worker claims the fingerprint; verify name and metric
				// agree before trusting it with the session's trials.
				if _, err := stormtune.CheckRemoteBackend(ctx, rb, p.topology, p.metric); err != nil {
					fatal(err)
				}
				covered = true
				break
			}
			if !covered {
				fatal(fmt.Errorf("session %q: no worker serves %s [%s] — add the topology to a worker's `stormtune serve -topology` list",
					p.name, p.topology.Name, fp))
			}
		}
		pool, err = stormtune.NewBackendPool(workers...)
		if err != nil {
			fatal(err)
		}
	}

	slots := man.Slots
	if *slotsFlag > 0 {
		slots = *slotsFlag
	}
	if slots <= 0 {
		if pool != nil {
			slots = pool.Size()
		} else {
			slots = len(prepared)
		}
	}

	// The crash-safe progress log: a fresh run truncates, -resume
	// recovers the last durable snapshot per member and appends to the
	// same file.
	var flog *stormtune.FleetLog
	if *statePath != "" {
		if *resume {
			flog, err = stormtune.OpenFleetLog(*statePath)
		} else {
			flog, err = stormtune.CreateFleetLog(*statePath)
		}
		if err != nil {
			fatal(err)
		}
		defer flog.Close()
	}

	fleetMembers := make([]stormtune.FleetMember, len(prepared))
	resumed := 0
	for i, p := range prepared {
		var backend stormtune.Backend
		if pool != nil {
			backend = pool
			p.opts.Retry = retry
		} else {
			backend = stormtune.AsBackend(p.ev)
			if ef.wantsRetry() {
				p.opts.Retry = retry
			}
		}
		maxInFlight := p.maxInFlight
		if flog != nil && maxInFlight == 0 {
			// Bit-identical resume needs a deterministic per-member record
			// sequence, which only sequential dispatch guarantees.
			maxInFlight = 1
		}
		var tn *stormtune.Tuner
		if *resume {
			st, err := flog.MemberState(p.name)
			if err != nil {
				fatal(err)
			}
			if st != nil {
				tn, err = stormtune.ResumeTuner(st, p.topology, backend, p.opts)
				if err != nil {
					fatal(fmt.Errorf("session %q: resuming: %w", p.name, err))
				}
				resumed++
			}
		}
		if tn == nil {
			tn, err = stormtune.NewTuner(p.topology, backend, p.opts)
			if err != nil {
				fatal(fmt.Errorf("session %q: %w", p.name, err))
			}
		}
		fleetMembers[i] = stormtune.FleetMember{
			Name: p.name, Tuner: tn, Weight: p.weight, MaxInFlight: maxInFlight,
		}
		if arch != nil && !*quiet {
			if ts := tn.Transfer(); ts != nil {
				fmt.Printf("%s: warm start from %s (similarity %.2f)\n", p.name, ts.Donor, ts.Similarity)
			} else {
				fmt.Printf("%s: cold start\n", p.name)
			}
		}
	}
	if *resume {
		fmt.Printf("resuming %d of %d session(s) from %s\n", resumed, len(prepared), *statePath)
	} else if flog != nil {
		fmt.Printf("logging fleet progress to %s (resume with -state %s -resume)\n", *statePath, *statePath)
	}
	fleet, err := stormtune.NewFleet(
		stormtune.FleetOptions{Slots: slots, ShareIncumbents: arch != nil, Log: flog}, fleetMembers...)
	if err != nil {
		fatal(err)
	}
	// Per-session dashboard info; the weight comes back from the fleet
	// already normalized (≤ 0 means 1), so the CLI never re-derives the
	// scheduler's rule.
	sessionInfo := make(map[string]map[string]any, len(prepared))
	for i, ss := range fleet.Status().Sessions {
		p := prepared[i]
		sessionInfo[ss.Name] = map[string]any{
			"topology": p.topology.Name, "strategy": p.strategy,
			"steps": p.steps, "seed": p.seed, "weight": ss.Weight,
		}
	}

	title := man.Title
	if title == "" {
		title = "stormtune fleet"
	}
	stopDash := func() {}
	if *dashAddr != "" {
		dopts := stormtune.FleetDashboardOptions{
			Title: title,
			Info: map[string]any{
				"manifest": *manifestPath, "mode": mode, "slots": slots,
				"sessions": len(prepared),
			},
			SessionInfo: sessionInfo,
		}
		if pool != nil {
			dopts.PoolStats = pool.Stats
		}
		stopDash = startDashboard(*dashAddr, stormtune.NewFleetDashboard(fleet, dopts))
		fmt.Printf("fleet dashboard on http://%s/ — GET /api/fleet, per-session /sessions/<name>/\n",
			displayAddr(*dashAddr))
	}

	fmt.Printf("fleet: %d sessions over %d shared slot(s) (%s)\n", len(prepared), slots, mode)
	start := time.Now()
	results, err := fleet.Run(ctx)
	if !*quiet {
		fmt.Println()
	}
	stopDash()
	if err != nil {
		fmt.Printf("fleet stopped early after %s (%v); reporting best so far\n",
			time.Since(start).Round(time.Millisecond), err)
	}
	// Seal only on a clean finish — a cancelled fleet leaves its
	// records unsealed so a re-run can append to the same evidence.
	if arch != nil && err == nil {
		if serr := stormtune.SealFleetArchives(fleetMembers...); serr != nil {
			fmt.Fprintln(os.Stderr, "archive seal:", serr)
		}
	}
	// A fleet log that hit a write error must not be trusted for resume;
	// surface it loudly rather than leaving a silently short log behind.
	if flog != nil {
		if lerr := flog.Err(); lerr != nil {
			fmt.Fprintln(os.Stderr, "fleet log:", lerr)
		}
	}

	// Per-session summary, in manifest order; the fleet-wide best last.
	var anyBest bool
	var fleetBest float64
	var fleetBestName string
	fmt.Printf("%-24s %6s %9s %14s\n", "session", "steps", "best-step", "throughput")
	for _, p := range prepared {
		tr, ok := results[p.name]
		if !ok {
			continue
		}
		bestRec, found := tr.Best()
		if !found {
			fmt.Printf("%-24s %6d %9s %14s\n", p.name, len(tr.Records), "-", "no successful run")
			continue
		}
		anyBest = true
		if bestRec.Result.Throughput > fleetBest {
			fleetBest = bestRec.Result.Throughput
			fleetBestName = p.name
		}
		fmt.Printf("%-24s %6d %9d %14.0f\n", p.name, len(tr.Records), tr.BestStep, bestRec.Result.Throughput)
	}
	if !anyBest {
		fmt.Fprintln(os.Stderr, "no session had a successful run")
		os.Exit(1)
	}
	fmt.Printf("fleet best: %.0f tuples/s (%s) after %s\n",
		fleetBest, fleetBestName, time.Since(start).Round(time.Millisecond))
}

// Command stormtune tunes a topology's configuration — against the
// bundled simulated cluster, or against remote worker processes — and
// can itself serve a simulator as a remote evaluation service.
//
// Tuning (the default subcommand):
//
//	stormtune [tune] [-topology small|medium|large|sundog] [-spec file.json]
//	          [-strategy pla|ipla|bo|ibo] [-steps N] [-parallel Q]
//	          [-async] [-timeout D] [-params h|h-bs-bp|bs-bp-cc]
//	          [-tiim X] [-contention X] [-samples K] [-seed N] [-quiet]
//	          [-remote URL[,URL...]] [-token T] [-retries N]
//	          [-retry-backoff D] [-trial-timeout D] [-dash ADDR]
//	          [-archive DIR]
//
// The run is a tuning session: -timeout bounds its wall-clock (the best
// configuration found so far is reported when the deadline hits, and
// Ctrl-C does the same), -parallel evaluates that many trial
// deployments concurrently, and -async switches the concurrent
// dispatch from barrier batches to free-slot refill. A live progress
// line tracks completed trials and the best throughput so far.
//
// -remote tunes over the wire instead of in-process: each URL is a
// worker running `stormtune serve`; several URLs form a pool one
// session drives concurrently (use -parallel with -async). Lost
// measurements — timeouts, dropped connections, killed workers — are
// retried per -retries/-retry-backoff before the trial is recorded as
// a pessimistic failure; -trial-timeout bounds each attempt.
//
// -archive DIR records the run into the persistent session archive at
// DIR and, when the archive already holds evidence from a sufficiently
// similar topology, warm-starts the Bayesian optimizer from it: prior
// incumbents replace part of the initial Latin-hypercube design and an
// archived-runs prior shapes the GP mean. The dashboard state reports
// whether the run was warm-started and by which donor. Inspect the
// archive with `stormtune archive` (see archive.go):
//
//	stormtune archive list|show <fingerprint>|gc|export|import -archive DIR
//
// -dash ADDR serves a live dashboard for the duration of the run: an
// HTML page at /, the full JSON state at /api/state, a Server-Sent
// Events stream at /api/events (replay from any sequence number with
// ?after=N), and /healthz. When tuning a -remote pool the state JSON
// includes per-worker in-flight counts. The server shuts down cleanly
// when the run completes or is cancelled.
//
// Serving:
//
//	stormtune serve [-addr 127.0.0.1:8077] [-topology A,B,...] [-spec ...]
//	                [-token T] [-capacity N] [-tiim X] [-contention X]
//	                [-seed N] [-samples K] [-flaky N] [-max-run-seconds S]
//	                [-quiet]
//
// serve exposes the configured simulators as a multi-tenant
// JSON-over-HTTP evaluation service (POST /run, GET /info, GET
// /healthz). -topology (or -spec) takes a comma-separated list: the
// worker serves every listed topology and routes each trial by its
// structural fingerprint. -token requires a bearer token on /run and
// /info; -capacity N bounds concurrent evaluations, refusing excess
// runs with HTTP 429 and structured backpressure (queue depth,
// estimated wait, Retry-After) that pooled clients use to shed trials
// to less-loaded workers. -flaky N fails every Nth run with HTTP 500
// before evaluation — deterministic fault injection for exercising the
// client-side retry path.
//
// Fleet tuning:
//
//	stormtune fleet -manifest fleet.json [-dash ADDR] [-slots N]
//	                [-timeout D] [-retries N] [-retry-backoff D]
//	                [-trial-timeout D] [-token T] [-state fleet.log]
//	                [-resume] [-quiet]
//
// fleet runs many tuning sessions concurrently over one shared worker
// pool — sessions may tune different topologies, routed per trial by
// fingerprint — with a fleet-level scheduler sharing the slots among
// them by weighted fair share, and -dash serves one aggregated
// dashboard (GET /api/fleet plus a full per-session dashboard under
// /sessions/<name>/). -state streams progress to an append-only log
// and -resume restores a killed run from it bit-identically. See
// fleet.go for the manifest format.
//
// Continuous tuning:
//
//	stormtune watch [-topology ...] [-drift SPEC] [-base-load X]
//	                [-steps N] [-retune-steps N] [-episodes N]
//	                [-horizon S] [-trial-cost S] [-hold-interval S]
//	                [-cooldown S] [-throttle D] [-dash ADDR]
//	                [-snapshot file.json] [-snapshot-every N]
//	                [-resume file.json] [-archive DIR] [-quiet]
//
// watch is a tuning session that never ends: it tunes the topology,
// then holds — monitoring the incumbent on a simulated timeline while
// the offered load drifts per -drift — and when sustained degradation
// or backpressure is detected it runs a conservative trust-region
// retune and holds again, until Ctrl-C, -horizon simulated seconds, or
// -episodes retune episodes. -snapshot/-resume persist and restore the
// whole watch (mid-retune included); -dash serves the same live
// dashboard as tune, with retune episodes in the state and event
// stream. See watch.go for the drift spec syntax.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"time"

	"stormtune"
	"stormtune/internal/topo"
)

func main() {
	args := os.Args[1:]
	if len(args) > 0 {
		switch args[0] {
		case "serve":
			runServe(args[1:])
			return
		case "fleet":
			runFleet(args[1:])
			return
		case "watch":
			runWatch(args[1:])
			return
		case "archive":
			runArchive(args[1:])
			return
		case "tune":
			args = args[1:]
		}
	}
	runTune(args)
}

// topoSpec are the topology/evaluator knobs one tuning run needs —
// shared between the tune/serve flags and fleet manifest entries, so
// the two surfaces cannot drift apart. The JSON tags are the manifest
// field names.
type topoSpec struct {
	Topology   string  `json:"topology"`
	Spec       string  `json:"spec,omitempty"`
	TIIM       float64 `json:"tiim,omitempty"`
	Contention float64 `json:"contention,omitempty"`
	Seed       int64   `json:"seed,omitempty"`
	Samples    int     `json:"samples,omitempty"`
}

// build constructs the topology and its simulator evaluator.
func (ts topoSpec) build() (*stormtune.Topology, stormtune.Evaluator, stormtune.Metric, error) {
	var t *stormtune.Topology
	metric := stormtune.SinkTuples
	switch {
	case ts.Spec != "":
		var err error
		t, err = topo.LoadJSONFile(ts.Spec)
		if err != nil {
			return nil, nil, metric, err
		}
	case ts.Topology == "sundog":
		t = stormtune.Sundog()
		metric = stormtune.SourceTuples
	default:
		t = stormtune.BuildSynthetic(ts.Topology,
			stormtune.Condition{TimeImbalance: ts.TIIM, ContentiousFraction: ts.Contention}, ts.Seed)
	}
	var ev stormtune.Evaluator = stormtune.NewFluidSim(t, stormtune.PaperCluster(), metric, ts.Seed)
	if ts.Samples > 1 {
		ev = stormtune.Averaged(ev, ts.Samples)
	}
	return t, ev, metric, nil
}

// template returns the non-searched deployment defaults for the
// topology, matching the paper's setup per topology family.
func (ts topoSpec) template(t *stormtune.Topology) stormtune.Config {
	if ts.Topology == "sundog" && ts.Spec == "" {
		return stormtune.DefaultConfig(t, 11)
	}
	return stormtune.DefaultSyntheticConfig(t, 1)
}

// paramSet resolves a -params / manifest "params" name.
func paramSet(name string) (stormtune.ParamSet, error) {
	switch name {
	case "", "h":
		return stormtune.Hints, nil
	case "h-bs-bp":
		return stormtune.HintsBatch, nil
	case "bs-bp-cc":
		return stormtune.BatchCC, nil
	}
	return stormtune.Hints, fmt.Errorf("unknown params %q (want h, h-bs-bp or bs-bp-cc)", name)
}

// topoFlags are the topology/evaluator knobs tune and serve share.
type topoFlags struct {
	topology *string
	spec     *string
	tiim     *float64
	cont     *float64
	seed     *int64
	samples  *int
}

func addTopoFlags(fs *flag.FlagSet) topoFlags {
	return topoFlags{
		topology: fs.String("topology", "small", "topology: small, medium, large or sundog (serve accepts a comma-separated list)"),
		spec:     fs.String("spec", "", "path to a JSON topology spec, overrides -topology (serve accepts a comma-separated list)"),
		tiim:     fs.Float64("tiim", 0, "time imbalance for synthetic topologies"),
		cont:     fs.Float64("contention", 0, "contentious fraction for synthetic topologies"),
		seed:     fs.Int64("seed", 1, "random seed"),
		samples:  fs.Int("samples", 1, "measurements to average per configuration (§VI future work)"),
	}
}

// toSpec collects the parsed flag values into a topoSpec.
func (tf topoFlags) toSpec() topoSpec {
	return topoSpec{
		Topology: *tf.topology, Spec: *tf.spec,
		TIIM: *tf.tiim, Contention: *tf.cont,
		Seed: *tf.seed, Samples: *tf.samples,
	}
}

// build constructs the topology and its simulator evaluator.
func (tf topoFlags) build() (*stormtune.Topology, stormtune.Evaluator, stormtune.Metric, error) {
	return tf.toSpec().build()
}

// toSpecs expands the comma-separated -topology / -spec lists serve
// accepts into one topoSpec per served topology; the other knobs (tiim,
// contention, seed, samples) apply to every entry. A -spec list
// overrides -topology, mirroring the single-topology precedence.
func (tf topoFlags) toSpecs() []topoSpec {
	base := tf.toSpec()
	var out []topoSpec
	if base.Spec != "" {
		for _, path := range splitList(base.Spec) {
			ts := base
			ts.Spec = path
			ts.Topology = ""
			out = append(out, ts)
		}
		return out
	}
	for _, name := range splitList(base.Topology) {
		ts := base
		ts.Spec = ""
		ts.Topology = name
		out = append(out, ts)
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "error:", err)
	os.Exit(1)
}

// displayAddr renders a listen address as something clickable: a bare
// ":8090" becomes "localhost:8090".
func displayAddr(addr string) string {
	if strings.HasPrefix(addr, ":") {
		return "localhost" + addr
	}
	return addr
}

func runServe(args []string) {
	fs := flag.NewFlagSet("stormtune serve", flag.ExitOnError)
	tf := addTopoFlags(fs)
	addr := fs.String("addr", "127.0.0.1:8077", "listen address")
	token := fs.String("token", "", "require this bearer token on /run and /info (empty = open endpoint)")
	capacity := fs.Int("capacity", 0, "admission control: max concurrent evaluations; excess runs get 429 + Retry-After (0 = unbounded)")
	flaky := fs.Int("flaky", 0, "fail every Nth run with HTTP 500 (fault injection; 0 disables)")
	maxRun := fs.Int("max-run-seconds", 0, "cap a single evaluation's wall-clock (0 = uncapped)")
	quiet := fs.Bool("quiet", false, "suppress per-request log lines")
	fs.Parse(args)

	opts := stormtune.BackendServerOptions{
		Auth:          stormtune.RemoteCredentials{Token: *token},
		Admission:     stormtune.RemoteAdmission{MaxConcurrent: *capacity},
		FailEveryN:    *flaky,
		MaxRunSeconds: *maxRun,
	}
	if !*quiet {
		opts.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	server := stormtune.NewBackendServer(opts)

	// One worker serves any number of topologies — `-topology small,large`
	// or `-spec a.json,b.json` — and /run routes each trial by its
	// structural fingerprint.
	specs := tf.toSpecs()
	if len(specs) == 0 {
		fatal(errors.New("no topologies to serve"))
	}
	for _, ts := range specs {
		t, ev, metric, err := ts.build()
		if err != nil {
			fatal(err)
		}
		if err := stormtune.RegisterTopology(server, t, stormtune.AsBackend(ev), metric); err != nil {
			fatal(err)
		}
		fmt.Printf("serving %s (%d nodes, fingerprint %s)\n", t.Name, t.N(), stormtune.TopologyFingerprint(t))
	}

	// Bind first so a bad address or taken port fails before the banner.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	auth := "open"
	if *token != "" {
		auth = "bearer-token auth"
	}
	admit := "unbounded"
	if *capacity > 0 {
		admit = fmt.Sprintf("%d concurrent run(s)", *capacity)
	}
	fmt.Printf("listening on http://%s — POST /run, GET /info, GET /healthz (%s, admission: %s)\n",
		*addr, auth, admit)
	if *flaky > 0 {
		fmt.Printf("fault injection: 1 in every %d runs fails with HTTP 500\n", *flaky)
	}
	// The dashboards' server: header and idle timeouts, and on Ctrl-C a
	// drain window for in-flight evaluations — killing them would cost
	// the tuner a retry attempt per connection reset.
	if err := stormtune.ServeDashboardListener(ctx, ln, server.Handler(), 5*time.Second); err != nil {
		fatal(err)
	}
}

func runTune(args []string) {
	fs := flag.NewFlagSet("stormtune", flag.ExitOnError)
	tf := addTopoFlags(fs)
	strategy := fs.String("strategy", "bo", "strategy: pla, ipla, bo or ibo")
	steps := fs.Int("steps", 60, "evaluation budget")
	params := fs.String("params", "h", "searched parameters for bo: h, h-bs-bp or bs-bp-cc")
	parallel := fs.Int("parallel", 1, "concurrent trial deployments")
	async := fs.Bool("async", false, "free-slot refill instead of barrier batches (with -parallel > 1)")
	timeout := fs.Duration("timeout", 0, "wall-clock budget for the session (0 = none)")
	remote := fs.String("remote", "", "comma-separated worker URLs (stormtune serve); tunes over HTTP instead of in-process")
	token := fs.String("token", "", "bearer token the remote workers require")
	ef := addEvalFlags(fs, true, "record the run into the session archive at DIR and warm-start from similar archived runs")
	dashAddr := fs.String("dash", "", "serve a live dashboard on this address (e.g. :8090) for the duration of the run")
	quiet := fs.Bool("quiet", false, "suppress the live progress line")
	fs.Parse(args)

	t, ev, metric, err := tf.build()
	if err != nil {
		fatal(err)
	}
	template := tf.toSpec().template(t)

	set, err := paramSet(*params)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		os.Exit(2)
	}

	opts, err := tunerOptions(t, *strategy, stormtune.TunerOptions{
		Steps:        *steps,
		Set:          set,
		Template:     &template,
		Seed:         *tf.seed,
		TrialTimeout: ef.trialDeadline(),
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "unknown -strategy %q\n", *strategy)
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	// The backend: the in-process simulator, or a pool of remote
	// workers. Remote evaluations get the retry policy — a lost
	// measurement is the expected failure mode over a network.
	var backend stormtune.Backend
	var pool *stormtune.BackendPool
	mode := "in-process simulator"
	if *remote != "" {
		if *tf.samples > 1 {
			// Averaging happens where the measurement runs; the worker
			// owns the evaluator, so -samples must be given to serve.
			fmt.Fprintln(os.Stderr, "error: -samples has no effect with -remote; start the worker with `stormtune serve -samples K`")
			os.Exit(2)
		}
		urls := splitList(*remote)
		members := make([]stormtune.Backend, 0, len(urls))
		for _, u := range urls {
			rb := stormtune.NewRemoteBackend(u, remoteOptions(*token))
			if _, err := stormtune.CheckRemoteBackend(ctx, rb, t, metric); err != nil {
				fatal(err)
			}
			members = append(members, rb)
		}
		pool, err = stormtune.NewBackendPool(members...)
		if err != nil {
			fatal(err)
		}
		backend = pool
		opts.Retry = ef.retryPolicy()
		mode = fmt.Sprintf("%d remote worker(s)", len(members))
	} else {
		backend = stormtune.AsBackend(ev)
		if ef.wantsRetry() {
			opts.Retry = ef.retryPolicy()
		}
	}

	// Live progress from the session's event stream.
	var completed int
	var bestSoFar float64
	opts.Observer = stormtune.ObserverFunc(func(e stormtune.Event) {
		switch ev := e.(type) {
		case stormtune.NewBest:
			bestSoFar = ev.Result.Throughput
		case stormtune.TrialCompleted:
			completed++
			if !*quiet {
				fmt.Printf("\rtrial %3d/%d   best %12.0f tuples/s", completed, *steps, bestSoFar)
			}
		case stormtune.TrialFailed:
			if ev.Permanent {
				fmt.Fprintf(os.Stderr, "\ntrial %d failed permanently after %d attempts: %v\n",
					ev.Trial.ID, ev.Attempt, ev.Err)
			}
		case stormtune.TrialRetried:
			if !*quiet {
				fmt.Fprintf(os.Stderr, "\ntrial %d lost (attempt %d), retrying in %s: %v\n",
					ev.Trial.ID, ev.Attempt-1, ev.Backoff, ev.Err)
			}
		case stormtune.ParallelismClamped:
			fmt.Fprintf(os.Stderr, "\nnote: -parallel %d exceeds cluster capacity, clamped to %d\n",
				ev.Requested, ev.Allowed)
		}
	})

	// The live dashboard: a Recorder accumulates the session's events
	// and an HTTP server exposes them (/, /api/state, /api/events SSE,
	// /healthz) for the duration of the run.
	if *dashAddr != "" {
		opts.Recorder = stormtune.NewRecorder()
	}

	// The session archive: the run records into it as trials complete,
	// and warm-starts from archived evidence when a sufficiently
	// similar donor exists (BO strategies only; the seal happens inside
	// the tuner on a clean finish).
	arch, err := ef.openArchive()
	if err != nil {
		fatal(err)
	}
	if arch != nil {
		defer arch.Close()
		opts.Archive = arch
		opts.WarmStart = stormtune.WarmStartOptions{Enabled: true, Prior: true}
	}

	tn, err := stormtune.NewTuner(t, backend, opts)
	if err != nil {
		fatal(err)
	}
	if arch != nil {
		if ts := tn.Transfer(); ts != nil {
			fmt.Printf("warm start: donor %s (similarity %.2f, %d seed configs)\n",
				ts.Donor, ts.Similarity, len(ts.Points))
		} else {
			fmt.Println("cold start: no sufficiently similar archived session")
		}
		fmt.Printf("archiving as %s\n", tn.ArchiveKey())
	}

	dispatch := "sequential"
	switch {
	case *async && *parallel > 1:
		dispatch = fmt.Sprintf("async free-slot refill, %d slots", *parallel)
	case *parallel > 1:
		dispatch = fmt.Sprintf("barrier batches of %d", *parallel)
	}
	name := *strategy
	if opts.Strategy != nil {
		name = opts.Strategy.Name()
	}

	stopDash := func() {}
	if *dashAddr != "" {
		dopts := stormtune.DashboardOptions{
			Title: "stormtune · " + t.Name,
			Info: map[string]any{
				"topology": t.Name, "strategy": name, "steps": *steps,
				"dispatch": dispatch, "mode": mode,
			},
		}
		if pool != nil {
			dopts.PoolStats = pool.Stats
		}
		stopDash = startDashboard(*dashAddr, stormtune.NewDashboard(opts.Recorder, dopts))
		fmt.Printf("dashboard on http://%s/ — GET /api/state, SSE /api/events\n", displayAddr(*dashAddr))
	}

	fmt.Printf("tuning %s (%d nodes) with %s for up to %d steps (%s, %s)...\n",
		t.Name, t.N(), name, *steps, dispatch, mode)

	start := time.Now()
	var tr stormtune.TuneResult
	if *async && *parallel > 1 {
		tr, err = tn.RunAsync(ctx, *parallel)
	} else {
		tr, err = tn.RunBatch(ctx, *parallel)
	}
	if !*quiet {
		fmt.Println()
	}
	stopDash()
	if err != nil {
		fmt.Printf("session stopped early after %s (%v); reporting best so far\n",
			time.Since(start).Round(time.Millisecond), err)
	}
	best, ok := tr.Best()
	if !ok {
		fmt.Fprintln(os.Stderr, "no successful run")
		os.Exit(1)
	}
	fmt.Printf("steps run:      %d\n", len(tr.Records))
	fmt.Printf("best at step:   %d\n", tr.BestStep)
	fmt.Printf("throughput:     %.0f tuples/s (bottleneck: %s)\n", best.Result.Throughput, best.Result.Bottleneck)
	fmt.Printf("network/worker: %.2f MB/s\n", best.Result.NetworkBytesPerWorker/1e6)
	fmt.Printf("tasks:          %d\n", best.Result.Tasks)
	hints := best.Config.NormalizedHints()
	fmt.Printf("hints:          %v\n", hints)
	fmt.Printf("batch:          size=%d parallelism=%d\n", best.Config.BatchSize, best.Config.BatchParallelism)
	fmt.Printf("threads:        worker=%d receiver=%d ackers=%d\n",
		best.Config.WorkerThreads, best.Config.ReceiverThreads, best.Config.Ackers)
}

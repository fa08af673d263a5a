package stormtune

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"reflect"
	"time"

	"stormtune/internal/bo"
	"stormtune/internal/cluster"
	"stormtune/internal/core"
	"stormtune/internal/storm"
)

// Session types re-exported from the core package.
type (
	// Backend evaluates trials: Run(ctx, Trial) either returns the
	// measurement (a Result with Failed set is still a valid, zero-
	// performing observation) or an error meaning the measurement was
	// lost — which the session's RetryPolicy handles. Wrap a simulator
	// with AsBackend, reach a worker process with NewRemoteBackend, or
	// implement the interface for your own cluster harness.
	Backend = core.Backend
	// Trial is one proposed configuration evaluation: evaluate
	// Trial.Config (passing Trial.RunIndex to the evaluator, or running
	// it on whatever system you control) and hand the measurement back
	// via Tuner.Report. It carries the trial ID, the retry attempt and
	// the per-trial deadline.
	Trial = core.Trial
	// RetryPolicy governs lost evaluations: attempts per trial and the
	// exponential backoff between them. The zero value never retries.
	RetryPolicy = core.RetryPolicy
	// RunRecord is one completed optimization step.
	RunRecord = core.RunRecord
	// Event is a typed session notification; the concrete types are
	// TrialStarted, TrialCompleted, TrialFailed, TrialRetried, NewBest,
	// PassCompleted and ParallelismClamped.
	Event = core.Event
	// TrialStarted reports a trial handed out for evaluation.
	TrialStarted = core.TrialStarted
	// TrialCompleted reports a trial's measurement fed back in.
	TrialCompleted = core.TrialCompleted
	// TrialFailed reports an evaluation attempt whose measurement was
	// lost; Permanent marks the retry budget as spent.
	TrialFailed = core.TrialFailed
	// TrialRetried reports a failed trial being re-attempted.
	TrialRetried = core.TrialRetried
	// NewBest reports a trial that improved the session's best.
	NewBest = core.NewBest
	// PassCompleted reports that a driver finished.
	PassCompleted = core.PassCompleted
	// ParallelismClamped reports a driver reducing its requested
	// parallelism to the cluster's concurrent-trial capacity.
	ParallelismClamped = core.ParallelismClamped
	// Observer receives session events.
	Observer = core.Observer
	// ObserverFunc adapts a function to Observer.
	ObserverFunc = core.ObserverFunc
)

// AsBackend adapts an Evaluator (the bundled simulators and their
// wrappers) to the Backend contract; a nil evaluator yields a nil
// Backend for ask/tell-only sessions. Existing Evaluator-based callers
// migrate by wrapping: NewTuner(t, AsBackend(ev), opts).
func AsBackend(ev Evaluator) Backend { return core.AsBackend(ev) }

// BackendPool fans concurrent trials out over a set of member
// backends, routing each trial to a member serving its topology
// fingerprint and shedding to less-loaded workers on admission
// refusals; its Stats method exposes per-worker counters (in-flight,
// completed, errors, shed, health) for the dashboard's workers table.
type BackendPool = core.PoolBackend

// BackendPoolOptions tune a pool's health tracking (eviction after
// consecutive transport failures, background re-probing of evicted
// members). The zero value is ready to use.
type BackendPoolOptions = core.PoolOptions

// NewBackendPool distributes concurrent trials over member backends —
// e.g. one NewRemoteBackend per worker process — so a single session
// driving RunAsync(ctx, q) saturates up to q workers, and a fleet of
// heterogeneous sessions shares one pool, each trial routed to a
// worker serving its topology (run CheckRemoteBackend per member
// first: it primes the routing cache). Each Run borrows a free
// eligible member for the duration of the evaluation; a worker
// refusing at capacity costs nothing — the trial is shed to the next
// eligible member. Members can join and leave the live pool (Add,
// Remove), unreachable members are evicted and re-probed, and Stats
// samples the members' live counters (wire it into
// DashboardOptions.PoolStats to watch the pool).
func NewBackendPool(members ...Backend) (*BackendPool, error) {
	return core.NewPoolBackend(members...)
}

// NewBackendPoolWith is NewBackendPool with explicit health options.
func NewBackendPoolWith(opts BackendPoolOptions, members ...Backend) (*BackendPool, error) {
	return core.NewPoolBackendWith(opts, members...)
}

// TunerOptions configure a tuning session. They are also what a
// snapshot persists: TunerState embeds them, so each field's json tag
// is its snapshot key, and `json:"-"` marks the runtime-only pieces a
// caller passes again on resume. Persisting a new setting takes one
// tagged field here; Snapshot and ResumeTuner need no edit.
type TunerOptions struct {
	// Steps is the evaluation budget — the total number of trials the
	// session will propose (default 60, as in the paper).
	Steps int `json:"steps"`
	// Set selects the searched parameters (default Hints).
	Set ParamSet `json:"set"`
	// Template supplies the non-searched parameters; zero value uses the
	// paper's §V-D deployment defaults with hint 1.
	Template *Config `json:"template"`
	// Cluster defaults to the paper's 80-machine cluster. It bounds the
	// max-tasks search dimension and the concurrent-trial capacity
	// RunAsync clamps its parallelism to.
	Cluster *ClusterSpec `json:"cluster"`
	// Seed drives the optimizer (default 1).
	Seed int64 `json:"seed"`
	// StopAfterZeros stops the session after this many consecutive
	// zero-performance trials; 0 disables (the paper uses 3 for the
	// linear strategies, 0 for BO).
	StopAfterZeros int `json:"stopAfterZeros,omitempty"`
	// Parallel is the number of in-flight trials Propose keeps topped up
	// (default 1 — the paper's sequential procedure). The Run* drivers
	// take their own q and ignore it.
	Parallel int `json:"parallel,omitempty"`
	// Retry governs trials whose evaluation errors (Backend.Run
	// returning a non-nil error): how many attempts each trial gets and
	// with what backoff before the session records a pessimistic failed
	// observation. The zero value never retries. The session snapshot
	// carries the policy in effect; a non-zero Retry passed to
	// ResumeTuner overrides it.
	Retry RetryPolicy `json:"-"`
	// TrialTimeout bounds each evaluation attempt's wall-clock; trials
	// carry it as their deadline and backends receive it via ctx. Zero
	// means unbounded. Persisted and overridden like Retry.
	TrialTimeout time.Duration `json:"-"`
	// Observer receives the session's typed events; nil disables.
	Observer Observer `json:"-"`
	// Recorder, when set, also receives every event (composed with
	// Observer via MultiObserver) and accumulates the live state the
	// dashboard serves. ResumeTuner primes it from the snapshot first,
	// so a resumed run's dashboard shows the whole incumbent trace.
	Recorder *Recorder `json:"-"`
	// Strategy overrides the built-in Bayesian optimizer with a custom
	// strategy (e.g. NewPLA). Snapshots of such a session can only be
	// resumed by supplying an equally fresh Strategy to ResumeTuner.
	Strategy Strategy `json:"-"`

	// Archive, when set, records this session into a persistent store
	// of tuning evidence: trials append as they complete (off the
	// propose/report hot path) and the record seals with the final
	// session state when a driver finishes. Ask/tell callers seal
	// explicitly via Tuner.SealArchive.
	Archive Archive `json:"-"`
	// ArchiveKey pins the archive record key; empty derives a
	// deterministic key from topology fingerprint, strategy and seed
	// plus a run counter. Resume reuses the snapshotted key. Without an
	// Archive the session records nothing and the key stays empty.
	ArchiveKey string `json:"archiveKey,omitempty"`
	// WarmStart enables transfer learning from Archive: prior
	// incumbents and top configurations of sufficiently similar
	// archived runs replace part of the initial design, optionally
	// with an archived-runs prior on the GP mean. Requires Archive and
	// the built-in Bayesian strategy; off by default. The applied warm
	// start itself is snapshotted (TunerState.Transfer).
	WarmStart WarmStartOptions `json:"-"`

	// Optimizer knobs, forwarded to the Bayesian strategy (zero values
	// select the Spearmint-like defaults). They are recorded in
	// snapshots so a resumed run rebuilds the exact same optimizer.
	Candidates       int `json:"candidates,omitempty"`
	HyperSamples     int `json:"hyperSamples,omitempty"`
	LocalSearchIters int `json:"localSearchIters,omitempty"`
	MaxGPPoints      int `json:"maxGPPoints,omitempty"`
}

// resolve fills the option defaults shared by NewTuner and
// ResumeTuner. Template and Cluster are copied, so the session never
// aliases the caller's values.
func (o TunerOptions) resolve(t *Topology) TunerOptions {
	if o.Steps <= 0 {
		o.Steps = 60
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Parallel < 1 {
		o.Parallel = 1
	}
	if o.Archive == nil {
		o.ArchiveKey = ""
	}
	o.Template, o.Cluster = resolveEnv(t, o.Template, o.Cluster)
	return o
}

// persisted is the copy of the options a snapshot stores: runtime-only
// fields zeroed, Template and Cluster copied.
func (o TunerOptions) persisted() TunerOptions {
	o = zeroRuntime(o)
	template, spec := o.Template.Clone(), *o.Cluster
	o.Template, o.Cluster = &template, &spec
	return o
}

// resolveEnv returns fresh copies of a session's template and cluster,
// defaulting nil ones to the paper's deployment (hint 1) and
// 80-machine cluster.
func resolveEnv(t *Topology, template *Config, spec *ClusterSpec) (*Config, *ClusterSpec) {
	c := cluster.Paper()
	if spec != nil {
		c = *spec
	}
	var cfg Config
	if template != nil {
		cfg = template.Clone()
	} else {
		cfg = storm.DefaultConfig(t, 1)
	}
	return &cfg, &c
}

// zeroRuntime returns opts with every field tagged `json:"-"` zeroed:
// exactly what a snapshot's JSON round trip drops.
func zeroRuntime[T any](opts T) T {
	v := reflect.ValueOf(&opts).Elem()
	for i := 0; i < v.NumField(); i++ {
		if v.Type().Field(i).Tag.Get("json") == "-" {
			v.Field(i).SetZero()
		}
	}
	return opts
}

// withRecorder wires a session's Recorder in next to its Observer. The
// typed-nil check matters: a nil *Recorder must not reach MultiObserver
// as a non-nil Observer interface.
func withRecorder(obs Observer, rec *Recorder) Observer {
	if rec == nil {
		return obs
	}
	return core.MultiObserver(rec, obs)
}

func (o TunerOptions) boOptions() BOOptions {
	return BOOptions{
		Set:  o.Set,
		Seed: o.Seed,
		Opt: bo.Options{
			Candidates:       o.Candidates,
			HyperSamples:     o.HyperSamples,
			LocalSearchIters: o.LocalSearchIters,
			MaxGPPoints:      o.MaxGPPoints,
		},
	}
}

// Tuner is a long-lived, interruptible tuning session over one topology
// and backend — the workflow the paper ran with Spearmint on its
// shared cluster (§III-C), exposed as an ask/tell API. Propose hands
// out trials and Report feeds measurements back, so callers can drive
// evaluations themselves, including against external clusters the
// library does not control; the Run, RunBatch and RunAsync drivers
// automate the loop against the configured Backend with context-based
// cancellation, per-trial deadlines, retry of lost evaluations, typed
// events, and Snapshot/ResumeTuner pause points.
type Tuner struct {
	sess     *core.Session
	opts     TunerOptions
	topoName string
	topoN    int
	// fp is the tuned topology's structural fingerprint in hex — the
	// routing key stamped onto every trial.
	fp     string
	custom bool
	// bound is the cluster's concurrent-trial capacity for the template
	// configuration; RunAsync clamps its q to it.
	bound int
	// arec archives completed trials when TunerOptions.Archive is set
	// (under opts.ArchiveKey); transfer is the applied warm start (nil
	// for cold runs).
	arec     *core.ArchiveRecorder
	transfer *TransferSeed
}

// NewTuner starts a tuning session for a topology against a backend —
// a wrapped simulator (AsBackend), a remote evaluation service
// (NewRemoteBackend), a pool of workers (NewBackendPool), or any
// Backend of the caller's own. b may be nil when the caller evaluates
// trials itself through Propose/Report (the Run* drivers then return
// an error).
func NewTuner(t *Topology, b Backend, opts TunerOptions) (*Tuner, error) {
	if t == nil {
		return nil, fmt.Errorf("stormtune: nil topology")
	}
	opts = opts.resolve(t)
	strat := opts.Strategy
	custom := strat != nil
	if strat == nil {
		strat = core.NewBO(t, *opts.Cluster, *opts.Template, opts.boOptions())
	}

	// Archive + transfer wiring. The warm start must attach before the
	// session issues its first suggestion, and the session's own record
	// must never serve as its donor — so the key is derived, transfer
	// computed, and only then the record begun.
	var arec *core.ArchiveRecorder
	var transfer *TransferSeed
	if opts.Archive != nil {
		meta := opts.archiveMeta(t, strat.Name())
		if bs, ok := strat.(*core.BOStrategy); ok && opts.WarmStart.Enabled {
			transfer = core.ComputeTransfer(bs, opts.Archive, meta, opts.WarmStart)
			bs.ApplyTransfer(transfer)
		}
		var err error
		if arec, err = core.NewArchiveRecorder(opts.Archive, meta); err != nil {
			return nil, fmt.Errorf("stormtune: archive: %w", err)
		}
	}
	if opts.Recorder != nil && transfer != nil {
		opts.Recorder.SetTransfer(transfer)
	}
	return &Tuner{
		sess:     core.NewSession(strat, b, opts.sessionOptions(t, arec)),
		opts:     opts,
		topoName: t.Name,
		topoN:    t.N(),
		fp:       TopologyFingerprint(t),
		custom:   custom,
		bound:    opts.Cluster.MaxConcurrentTrials(opts.Template.TotalTasks()),
		arec:     arec,
		transfer: transfer,
	}, nil
}

// archiveMeta settles the record key — pinned or snapshotted, else
// derived — into o.ArchiveKey and returns the record's metadata.
func (o *TunerOptions) archiveMeta(t *Topology, strategy string) ArchiveMeta {
	if o.ArchiveKey == "" {
		o.ArchiveKey = deriveArchiveKey(o.Archive, t.Name, t.Fingerprint(), strategy, o.Seed)
	}
	return core.SessionMetaFor(o.ArchiveKey, t, *o.Cluster, strategy, o.Set, o.Seed)
}

// sessionOptions are the core session options o resolves to, with the
// archive recorder (when recording) on the observer chain.
func (o TunerOptions) sessionOptions(t *Topology, arec *core.ArchiveRecorder) core.SessionOptions {
	observer := withRecorder(o.Observer, o.Recorder)
	if arec != nil {
		observer = core.MultiObserver(observer, arec)
	}
	return core.SessionOptions{
		MaxSteps:       o.Steps,
		StopAfterZeros: o.StopAfterZeros,
		Retry:          o.Retry,
		TrialTimeout:   o.TrialTimeout,
		Observer:       observer,
		Fingerprint:    TopologyFingerprint(t),
	}
}

// Propose asks for the next trials to evaluate, topping the in-flight
// set up to TunerOptions.Parallel (the free-slot computation is atomic,
// so concurrent callers cannot jointly over-issue past the cap). An
// empty result with a nil error means nothing is currently askable:
// the budget is spent, the stopping rule fired, or Parallel trials are
// already pending — report one and ask again.
func (tn *Tuner) Propose(ctx context.Context) ([]Trial, error) {
	return tn.sess.ProposeFill(ctx, tn.opts.Parallel)
}

// Report feeds the measured result of a proposed trial back into the
// session. Trials of a batch may be reported in any order.
func (tn *Tuner) Report(tr Trial, res Result) error { return tn.sess.Report(tr, res) }

// Pending returns the proposed-but-unreported trials, in issue order.
func (tn *Tuner) Pending() []Trial { return tn.sess.Pending() }

// Done reports whether the session will propose no further trials.
func (tn *Tuner) Done() bool { return tn.sess.Done() }

// Result summarizes the session so far.
func (tn *Tuner) Result() TuneResult { return tn.sess.Result() }

// Best returns the best completed trial; ok is false if every run
// failed (or none completed).
func (tn *Tuner) Best() (RunRecord, bool) { return tn.sess.Result().Best() }

// HyperState returns the built-in Bayesian strategy's current
// hyperparameter posterior, or nil before its first GP fit (or when
// the session runs a custom strategy). Hand it to a follow-up session
// via RetuneOptions.InitHypers to warm-start its hyperparameters.
func (tn *Tuner) HyperState() *HyperState {
	if bs, ok := tn.sess.Strategy().(*core.BOStrategy); ok {
		return bs.HyperState()
	}
	return nil
}

// MaxParallel reports how many concurrent trials of the template
// configuration the session's cluster can host — the bound RunAsync
// clamps its q to.
func (tn *Tuner) MaxParallel() int { return tn.bound }

// Fingerprint returns the tuned topology's structural fingerprint in
// hex — the routing key every proposed trial carries, matched against
// the served set of multi-tenant workers.
func (tn *Tuner) Fingerprint() string { return tn.fp }

// ArchiveKey returns the key this session records under, empty when
// TunerOptions.Archive was not set.
func (tn *Tuner) ArchiveKey() string { return tn.opts.ArchiveKey }

// Transfer returns the warm start this session applied, nil for cold
// runs (transfer disabled, no archive, or no donor cleared the
// similarity guard).
func (tn *Tuner) Transfer() *TransferSeed { return tn.transfer }

// SealArchive marks the session's archive record complete, attaching
// the final session state and making the evidence durable. The drivers
// call it on a clean finish; ask/tell callers invoke it themselves
// once Done. Without an archive it is a no-op.
func (tn *Tuner) SealArchive() error {
	if tn.arec == nil {
		return nil
	}
	if err := tn.arec.Seal(tn.sess.Snapshot()); err != nil {
		return err
	}
	return tn.arec.Err()
}

// sealAfterRun seals the archive record after a driver finished
// cleanly; a cancelled run stays unsealed so resume can re-attach.
func (tn *Tuner) sealAfterRun(runErr error) error {
	if runErr != nil || tn.arec == nil || !tn.sess.Done() {
		return runErr
	}
	return tn.SealArchive()
}

// Run drives the session sequentially (the paper's procedure) until
// the budget is spent or ctx is cancelled; on cancellation the partial
// result is returned together with ctx's error.
func (tn *Tuner) Run(ctx context.Context) (TuneResult, error) {
	res, err := tn.sess.Run(ctx)
	return res, tn.sealAfterRun(err)
}

// RunBatch drives the session in barrier batches of q concurrently
// evaluated trials (constant-liar suggestions); each round waits for
// the whole batch. q ≤ 1 reproduces Run.
func (tn *Tuner) RunBatch(ctx context.Context, q int) (TuneResult, error) {
	res, err := tn.sess.RunBatch(ctx, q)
	return res, tn.sealAfterRun(err)
}

// RunAsync drives the session with free-slot refill: up to q trials in
// flight, and the moment any one completes its result is reported and a
// replacement proposed — no barrier, so slow trials never idle the
// other slots. q is clamped to the cluster's concurrent-trial capacity
// (a ParallelismClamped event reports the reduction) instead of
// oversubscribing the cluster. Results are deterministic given the
// seed and completion order; q = 1 matches Run exactly.
func (tn *Tuner) RunAsync(ctx context.Context, q int) (TuneResult, error) {
	if q > tn.bound {
		tn.sess.Emit(ParallelismClamped{Requested: q, Allowed: tn.bound})
		q = tn.bound
	}
	res, err := tn.sess.RunAsync(ctx, q)
	return res, tn.sealAfterRun(err)
}

// TunerState is the serializable snapshot of a Tuner: the session's
// resolved options (parameter set, seed, optimizer knobs, template,
// cluster, archive key — the tagged fields of TunerOptions) plus its
// records, pending trials and ask/tell log. Resuming replays that log
// against a freshly built strategy, so the resumed session continues
// bit-identically to an uninterrupted run — the Spearmint
// pause/resume workflow (§III-C), now at the public API level.
type TunerState struct {
	Version  int    `json:"version"`
	Topology string `json:"topology"`
	Nodes    int    `json:"nodes"`
	TunerOptions
	Custom  bool               `json:"custom,omitempty"`
	Session *core.SessionState `json:"session"`
	// Transfer is the applied warm start: resume reapplies the
	// identical transfer so replay stays bit-exact, and re-attaches the
	// archive record under ArchiveKey (no double-appends). The archive
	// itself is not serialized — pass it again via opts.Archive.
	Transfer *TransferSeed `json:"transfer,omitempty"`
}

const tunerStateVersion = 1

// validate rejects a snapshot no session can resume from.
func (s *TunerState) validate() error {
	switch {
	case s == nil:
		return errors.New("nil tuner state")
	case s.Version != tunerStateVersion:
		return fmt.Errorf("unsupported tuner state version %d", s.Version)
	case s.Session == nil:
		return errors.New("tuner state has no session")
	case s.Template == nil:
		return errors.New("tuner state has no template")
	case s.Cluster == nil:
		return errors.New("tuner state has no cluster")
	}
	return nil
}

// Snapshot captures the session. It is safe to call at any time — from
// an Observer callback, between ask/tell rounds, or while a driver is
// mid-run; in-flight trials are carried as pending and re-dispatched on
// resume with their original run indices.
func (tn *Tuner) Snapshot() *TunerState {
	return &TunerState{
		Version:      tunerStateVersion,
		Topology:     tn.topoName,
		Nodes:        tn.topoN,
		TunerOptions: tn.opts.persisted(),
		Custom:       tn.custom,
		Session:      tn.sess.Snapshot(),
		Transfer:     tn.transfer,
	}
}

// Save writes the snapshot as JSON.
func (s *TunerState) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// SaveFile writes the snapshot to path, creating or truncating it.
func (s *TunerState) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := s.Save(f); err != nil {
		return err
	}
	return f.Sync()
}

// LoadTunerState reads a snapshot from r.
func LoadTunerState(r io.Reader) (*TunerState, error) {
	var s TunerState
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("stormtune: decoding tuner state: %w", err)
	}
	if err := s.validate(); err != nil {
		return nil, fmt.Errorf("stormtune: %w", err)
	}
	return &s, nil
}

// LoadTunerStateFile reads a snapshot from a file.
func LoadTunerStateFile(path string) (*TunerState, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadTunerState(f)
}

// ResumeTuner reconstructs a session from a snapshot against the same
// topology (and a backend of the caller's choice). The snapshot's
// ask/tell log is replayed against a freshly built optimizer, restoring
// its state — RNG position included — exactly, so the resumed run
// continues bit-identically to one that was never interrupted; the
// replay cross-checks every regenerated configuration and fails if the
// topology or options diverge from the snapshotted run.
//
// The session resumes with the snapshot's options. From opts it takes
// the runtime-only pieces — Observer, a Recorder (primed from the
// snapshot so its dashboard shows the whole run), Archive, and for
// snapshots of sessions that injected a custom Strategy an equally
// fresh Strategy instance — plus three overrides: a raised Steps
// budget or a new Parallel when positive, and a Retry policy and
// TrialTimeout fitting the new backend's failure profile (zero values
// keep the snapshot's).
func ResumeTuner(st *TunerState, t *Topology, b Backend, opts TunerOptions) (*Tuner, error) {
	if err := st.validate(); err != nil {
		return nil, fmt.Errorf("stormtune: %w", err)
	}
	if t == nil {
		return nil, fmt.Errorf("stormtune: nil topology")
	}
	if t.N() != st.Nodes {
		return nil, fmt.Errorf("stormtune: topology has %d nodes, snapshot was taken over %d (%s)",
			t.N(), st.Nodes, st.Topology)
	}
	if st.Custom && opts.Strategy == nil {
		return nil, fmt.Errorf("stormtune: snapshot used a custom strategy; pass a fresh one in opts.Strategy")
	}
	if !st.Custom && opts.Strategy != nil {
		return nil, fmt.Errorf("stormtune: snapshot used the built-in optimizer; opts.Strategy must be nil")
	}
	resolved := st.TunerOptions
	if opts.Steps > 0 {
		resolved.Steps = opts.Steps
	}
	if opts.Parallel > 0 {
		resolved.Parallel = opts.Parallel
	}
	// A resumed session may face a different failure profile than the
	// snapshotted one — e.g. resuming a local-simulator run against a
	// RemoteBackend — so a non-zero Retry/TrialTimeout overrides the
	// snapshot's (stored once, in st.Session; core.ResumeSession falls
	// back to it when these are zero).
	resolved.Retry, resolved.TrialTimeout = opts.Retry, opts.TrialTimeout
	resolved.Observer, resolved.Recorder = opts.Observer, opts.Recorder
	resolved.Strategy, resolved.Archive = opts.Strategy, opts.Archive
	resolved = resolved.resolve(t)

	strat := resolved.Strategy
	if strat == nil {
		bs := core.NewBO(t, *resolved.Cluster, *resolved.Template, resolved.boOptions())
		// Reapply the snapshotted warm start before replay: the op-log
		// cross-checks every regenerated proposal, so the resumed
		// optimizer must start from the identical warm design.
		bs.ApplyTransfer(st.Transfer)
		strat = bs
	}

	// Re-attach the archive record (if the caller passes the store
	// again). Begun before the replay so its resume cursor reflects
	// what the archive already holds.
	var arec *core.ArchiveRecorder
	if resolved.Archive != nil {
		var err error
		if arec, err = core.NewArchiveRecorder(resolved.Archive, resolved.archiveMeta(t, strat.Name())); err != nil {
			return nil, fmt.Errorf("stormtune: archive: %w", err)
		}
	}

	sess, err := core.ResumeSession(st.Session, strat, b, resolved.sessionOptions(t, arec))
	if err != nil {
		return nil, err
	}
	// The snapshot may hold records the archive never saw (e.g. the
	// first run recorded no archive); replay emits no events, so
	// backfill them — the resume cursor skips everything the archive
	// already has, never double-appending pre-snapshot records.
	if arec != nil {
		recs := make([]RunRecord, len(st.Session.Records))
		for i, r := range st.Session.Records {
			recs[i] = RunRecord{Step: r.Step, Config: r.Config, Result: r.Result}
		}
		arec.Backfill(recs)
	}
	// Rebuild the recorder's history from the snapshot — only now that
	// the replay cross-check accepted it (a rejected snapshot must not
	// leave its records in the caller's recorder), and before any live
	// event, so a dashboard shows the pre-snapshot incumbent trace and
	// the carried-over pending trials.
	if resolved.Recorder != nil {
		resolved.Recorder.Prime(st.Session)
		if st.Transfer != nil {
			resolved.Recorder.SetTransfer(st.Transfer)
		}
	}
	return &Tuner{
		sess:     sess,
		opts:     resolved,
		topoName: st.Topology,
		topoN:    st.Nodes,
		fp:       TopologyFingerprint(t),
		custom:   st.Custom,
		bound:    resolved.Cluster.MaxConcurrentTrials(resolved.Template.TotalTasks()),
		arec:     arec,
		transfer: st.Transfer,
	}, nil
}

package stormtune

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"stormtune/internal/archive"
	"stormtune/internal/bo"
	"stormtune/internal/core"
	"stormtune/internal/storm"
	"stormtune/internal/watch"
)

// Drifting-workload types re-exported from the storm package.
type (
	// DriftProfile shapes offered load over simulated time: Factor(t)
	// multiplies a base load. Profiles are pure functions of t (and a
	// fixed seed), so drifting workloads replay bit-identically.
	DriftProfile = storm.DriftProfile
	// Diurnal is a sinusoidal day/night cycle.
	Diurnal = storm.Diurnal
	// FlashCrowd is a sudden surge: ramp up at At, hold Magnitude for
	// Duration, ramp back down (Duration 0 = permanent).
	FlashCrowd = storm.FlashCrowd
	// Trend is a linear growth or decay of offered load.
	Trend = storm.Trend
	// Squall is seeded random load spikes in fixed windows.
	Squall = storm.Squall
	// CompositeDrift multiplies several profiles.
	CompositeDrift = storm.Composite
	// DriftingEval caps a capacity evaluator's delivery at the offered
	// load of the measurement's simulated time, reporting OfferedLoad
	// and Backpressured on every Result.
	DriftingEval = storm.DriftingEval
	// TimedEvaluator is an Evaluator whose measurements depend on the
	// simulated time (RunAt); session backends dispatch to it when the
	// session carries a clock.
	TimedEvaluator = storm.TimedEvaluator
)

// Drifting wraps a capacity evaluator in a time-varying offered load:
// delivered throughput is min(capacity, baseLoad·profile.Factor(t)).
// A nil profile means a constant offered load of baseLoad.
func Drifting(ev Evaluator, profile DriftProfile, baseLoad float64) *DriftingEval {
	return storm.Drifting(ev, profile, baseLoad)
}

// ComposeDrift multiplies drift profiles into one.
func ComposeDrift(parts ...DriftProfile) DriftProfile { return storm.Compose(parts...) }

// ParseDrift parses a drift spec like
// "diurnal:period=86400,amplitude=0.4;flash:at=3600,magnitude=2"
// (the -drift flag syntax); empty and "none" mean no drift.
func ParseDrift(spec string) (DriftProfile, error) { return storm.ParseDrift(spec) }

// Continuous-tuning types re-exported from the watch and core packages.
type (
	// MonitorOptions tune the degradation monitor: rolling-baseline
	// window, degrade factor, sustain counts (hysteresis), cooldown.
	MonitorOptions = watch.MonitorOptions
	// RetuneOptions bound the conservative retune search: a trust
	// region around the incumbent that widens after consecutive
	// improvements and shrinks on regressions.
	RetuneOptions = core.RetuneOptions
	// HyperState is a serializable GP hyperparameter posterior,
	// captured from a running session (Tuner.HyperState) and fed to a
	// later one (RetuneOptions.InitHypers) to skip its cold
	// slice-sampling burn. Watches do this automatically between
	// their own episodes.
	HyperState = bo.HyperState
	// HoldSampled reports one monitoring measurement of the incumbent
	// while a watch holds.
	HoldSampled = core.HoldSampled
	// RetuneTriggered reports the degradation monitor firing: a retune
	// episode begins.
	RetuneTriggered = core.RetuneTriggered
	// RetuneCompleted reports a retune episode's outcome.
	RetuneCompleted = core.RetuneCompleted
)

// WatchOptions configure a continuous-tuning session. WatchState
// embeds them, so each field's json tag is its snapshot key and
// `json:"-"` marks the runtime-only pieces a caller passes again on
// resume — as with TunerOptions, persisting a new setting takes one
// tagged field.
type WatchOptions struct {
	// Steps is the initial tuning session's budget (default 40);
	// RetuneSteps each retune episode's (default max(8, Steps/4)).
	Steps       int `json:"steps"`
	RetuneSteps int `json:"retuneSteps,omitempty"`
	// Set selects the searched parameters (default Hints).
	Set ParamSet `json:"set"`
	// Template supplies the non-searched parameters; zero value uses
	// the paper's deployment defaults with hint 1.
	Template *Config `json:"template"`
	// Cluster defaults to the paper's 80-machine cluster.
	Cluster *ClusterSpec `json:"cluster"`
	// Seed drives the optimizers: the initial tune uses it directly,
	// retune episode e uses Seed+e (default 1).
	Seed int64 `json:"seed"`
	// TrialCost is the simulated seconds one trial evaluation costs
	// (default 60); HoldInterval the simulated seconds between
	// monitoring samples (default 60).
	TrialCost    float64 `json:"trialCost,omitempty"`
	HoldInterval float64 `json:"holdInterval,omitempty"`
	// Horizon stops the watch when the simulated clock reaches it
	// (0 = run until ctx cancel or MaxEpisodes); MaxEpisodes stops it
	// after that many retune episodes (0 = unlimited).
	Horizon     float64 `json:"horizon,omitempty"`
	MaxEpisodes int     `json:"maxEpisodes,omitempty"`
	// Monitor tunes the degradation monitor; Retune bounds the
	// conservative search.
	Monitor MonitorOptions `json:"monitor"`
	Retune  RetuneOptions  `json:"retune"`
	// Retry governs lost evaluations, exactly as in TunerOptions.
	Retry RetryPolicy `json:"-"`
	// Observer receives the full event stream: session events plus
	// HoldSampled, RetuneTriggered and RetuneCompleted.
	Observer Observer `json:"-"`
	// Recorder, when set, also receives every event and accumulates
	// the dashboard state — retune episodes appear in its snapshot's
	// Retunes list and as SSE markers.
	Recorder *Recorder `json:"-"`
	// Snapshot, with SnapshotEvery > 0, receives a periodic WatchState
	// every SnapshotEvery completed trials or monitoring samples.
	Snapshot      func(*WatchState) `json:"-"`
	SnapshotEvery int               `json:"-"`
	// Throttle paces monitoring samples in wall-clock time so a live
	// dashboard is watchable; zero runs the simulated timeline flat
	// out. Pacing only — no tuning decision reads the wall clock.
	Throttle time.Duration `json:"-"`

	// Archive, when set, records every completed trial — initial tune
	// and retune episodes alike — into the store as evidence for
	// future warm starts. Record-only: a watch never warm-starts
	// itself (its retunes already seed from the running incumbent).
	// The record seals when Run finishes cleanly (horizon or episode
	// budget reached); a cancelled watch stays unsealed for re-attach.
	Archive Archive `json:"-"`
	// ArchiveKey pins the archive record key; empty derives one from
	// the topology fingerprint and seed. Resume reuses the snapshot's.
	ArchiveKey string `json:"archiveKey,omitempty"`

	// Optimizer knobs, as in TunerOptions.
	Candidates       int `json:"candidates,omitempty"`
	HyperSamples     int `json:"hyperSamples,omitempty"`
	LocalSearchIters int `json:"localSearchIters,omitempty"`
	MaxGPPoints      int `json:"maxGPPoints,omitempty"`
}

func (o WatchOptions) boOptions() BOOptions {
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

// Watcher is a tuning session that never ends: tune, hold while a
// degradation monitor watches the incumbent, conservatively retune
// when it fires, repeat. Built by NewWatcher (or ResumeWatcher),
// driven by Run; Snapshot freezes it — mid-retune included — into a
// serializable WatchState.
type Watcher struct {
	c        *watch.Controller
	opts     WatchOptions
	topoName string
	topoN    int
	arch     *watchArchiver
}

// watchArchiver appends a watch's completed trials to an archive under
// one key, numbering them with its own monotone counter — watch
// episodes restart session-local trial IDs, so the session step cannot
// serve as the archive step. The counter resumes from the store's
// cursor so a resumed watch continues the numbering.
type watchArchiver struct {
	store Archive
	key   string
	mu    sync.Mutex
	step  int
	err   error
}

// OnEvent implements Observer.
func (a *watchArchiver) OnEvent(e Event) {
	tc, ok := e.(TrialCompleted)
	if !ok {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.err != nil {
		return
	}
	a.step++
	y := tc.Result.Throughput
	if tc.Result.Failed {
		y = 0
	}
	a.err = a.store.Append(a.key, archive.TrialRecord{
		Step: a.step, Config: tc.Trial.Config, Y: y, Failed: tc.Result.Failed,
	})
}

func (a *watchArchiver) seal() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.err != nil {
		return a.err
	}
	return a.store.Seal(a.key, nil)
}

// newWatchArchiver registers (or re-attaches) the watch in the store.
func newWatchArchiver(store Archive, key string, t *Topology, spec ClusterSpec, set ParamSet, seed int64) (*watchArchiver, error) {
	meta := core.SessionMetaFor(key, t, spec, "watch", set, seed)
	if err := store.Begin(meta); err != nil {
		return nil, fmt.Errorf("stormtune: archive: %w", err)
	}
	return &watchArchiver{store: store, key: key, step: store.LastStep(key)}, nil
}

// resolve fills the option defaults shared by NewWatcher and
// ResumeWatcher.
func (o WatchOptions) resolve(t *Topology) WatchOptions {
	if o.Seed == 0 {
		o.Seed = 1
	}
	o.Template, o.Cluster = resolveEnv(t, o.Template, o.Cluster)
	return o
}

// persisted is the copy of the options a snapshot stores: runtime-only
// fields zeroed, Template and Cluster copied.
func (o WatchOptions) persisted() WatchOptions {
	o = zeroRuntime(o)
	template, spec := o.Template.Clone(), *o.Cluster
	o.Template, o.Cluster = &template, &spec
	return o
}

// watchOptions converts the public options into the controller's.
func (w *Watcher) watchOptions(o WatchOptions) watch.Options {
	wo := watch.Options{
		Steps:         o.Steps,
		RetuneSteps:   o.RetuneSteps,
		TrialCost:     o.TrialCost,
		HoldInterval:  o.HoldInterval,
		Horizon:       o.Horizon,
		MaxEpisodes:   o.MaxEpisodes,
		Monitor:       o.Monitor,
		Retune:        o.Retune,
		Retry:         o.Retry,
		Observer:      withRecorder(o.Observer, o.Recorder),
		SnapshotEvery: o.SnapshotEvery,
		Throttle:      o.Throttle,
	}
	if w.arch != nil {
		wo.Observer = core.MultiObserver(wo.Observer, w.arch)
	}
	if o.Snapshot != nil {
		hook := o.Snapshot
		wo.Snapshot = func(st *watch.State) { hook(w.wrapState(st)) }
	}
	return wo
}

// NewWatcher starts a continuous-tuning session for a topology against
// a backend — typically AsBackend(Drifting(sim, profile, load)) for the
// simulated cluster, or any Backend whose measurements honor
// Trial.SimTime.
func NewWatcher(t *Topology, b Backend, opts WatchOptions) (*Watcher, error) {
	if t == nil {
		return nil, fmt.Errorf("stormtune: nil topology")
	}
	w, err := newWatcher(t, t.Name, b, opts)
	if err != nil {
		return nil, err
	}
	o := w.opts
	w.c = watch.New(t, *o.Cluster, *o.Template, b, o.boOptions(), w.watchOptions(o))
	return w, nil
}

// newWatcher resolves the options and (re-)attaches the archive
// record — everything NewWatcher and ResumeWatcher share but the
// controller.
func newWatcher(t *Topology, topoName string, b Backend, opts WatchOptions) (*Watcher, error) {
	if b == nil {
		return nil, fmt.Errorf("stormtune: watch needs a backend")
	}
	opts = opts.resolve(t)
	w := &Watcher{opts: opts, topoName: topoName, topoN: t.N()}
	if opts.Archive != nil {
		key := opts.ArchiveKey
		if key == "" {
			key = deriveArchiveKey(opts.Archive, t.Name, t.Fingerprint(), "watch", opts.Seed)
		}
		arch, err := newWatchArchiver(opts.Archive, key, t, *opts.Cluster, opts.Set, opts.Seed)
		if err != nil {
			return nil, err
		}
		w.arch = arch
		w.opts.ArchiveKey = key
	}
	return w, nil
}

// Run drives the watch until ctx is cancelled, the horizon is reached,
// or MaxEpisodes episodes have completed. On cancellation all state
// stays intact: call Snapshot for a resumable WatchState. A clean
// finish seals the watch's archive record (when one is configured).
func (w *Watcher) Run(ctx context.Context) error {
	err := w.c.Run(ctx)
	if err == nil && w.arch != nil {
		return w.arch.seal()
	}
	return err
}

// ArchiveKey returns the key this watch records under, empty without
// an archive.
func (w *Watcher) ArchiveKey() string {
	if w.arch == nil {
		return ""
	}
	return w.arch.key
}

// Incumbent returns the configuration currently held and its measured
// objective; ok is false before the initial tune completes.
func (w *Watcher) Incumbent() (Config, float64, bool) {
	inc, ok := w.c.Incumbent()
	return inc.Config, inc.Y, ok
}

// Episodes returns the number of completed retune episodes.
func (w *Watcher) Episodes() int { return w.c.Episodes() }

// SimTime returns the watch's current simulated time in seconds.
func (w *Watcher) SimTime() float64 { return w.c.Clock().Now() }

// WatchState is the serializable snapshot of a Watcher: the resolved
// options needed to rebuild the strategies (the tagged fields of
// WatchOptions) plus the controller's frozen progress (phase, clock,
// incumbent, monitor, and — when taken mid-tune or mid-retune — the
// in-flight session's own state).
type WatchState struct {
	Version  int    `json:"version"`
	Topology string `json:"topology"`
	Nodes    int    `json:"nodes"`
	WatchOptions
	Watch *watch.State `json:"watch"`
}

const watchStateVersion = 1

// validate rejects a snapshot no watch can resume from.
func (s *WatchState) validate() error {
	switch {
	case s == nil:
		return errors.New("nil watch state")
	case s.Version != watchStateVersion:
		return fmt.Errorf("unsupported watch state version %d", s.Version)
	case s.Watch == nil:
		return errors.New("watch state has no controller state")
	case s.Template == nil:
		return errors.New("watch state has no template")
	case s.Cluster == nil:
		return errors.New("watch state has no cluster")
	}
	return nil
}

func (w *Watcher) wrapState(st *watch.State) *WatchState {
	return &WatchState{
		Version:      watchStateVersion,
		Topology:     w.topoName,
		Nodes:        w.topoN,
		WatchOptions: w.opts.persisted(),
		Watch:        st,
	}
}

// Snapshot freezes the watch. Safe to call at any time — from an
// Observer callback or while Run is in flight.
func (w *Watcher) Snapshot() *WatchState { return w.wrapState(w.c.Snapshot()) }

// Save writes the snapshot as JSON.
func (s *WatchState) Save(wr io.Writer) error {
	enc := json.NewEncoder(wr)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// SaveFile writes the snapshot to path, creating or truncating it.
func (s *WatchState) SaveFile(path string) error {
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

// LoadWatchState reads a snapshot from r.
func LoadWatchState(r io.Reader) (*WatchState, error) {
	var s WatchState
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("stormtune: decoding watch state: %w", err)
	}
	if err := s.validate(); err != nil {
		return nil, fmt.Errorf("stormtune: %w", err)
	}
	return &s, nil
}

// LoadWatchStateFile reads a snapshot from a file.
func LoadWatchStateFile(path string) (*WatchState, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadWatchState(f)
}

// ResumeWatcher rebuilds a watch from a snapshot against the same
// topology and a backend of the caller's choice. An in-flight session
// snapshot is replayed against a freshly reconstructed strategy
// (fingerprint-checked), so the resumed watch continues bit-identically
// to one that was never interrupted — mid-retune included. The watch
// resumes with the snapshot's options; from opts it takes only the
// runtime-only pieces: Observer, Recorder, Snapshot hook and
// SnapshotEvery, Throttle, Retry and Archive.
func ResumeWatcher(st *WatchState, t *Topology, b Backend, opts WatchOptions) (*Watcher, error) {
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
	resolved := st.WatchOptions
	resolved.Retry, resolved.Throttle = opts.Retry, opts.Throttle
	resolved.Observer, resolved.Recorder = opts.Observer, opts.Recorder
	resolved.Snapshot, resolved.SnapshotEvery = opts.Snapshot, opts.SnapshotEvery
	resolved.Archive = opts.Archive
	w, err := newWatcher(t, st.Topology, b, resolved)
	if err != nil {
		return nil, err
	}
	o := w.opts
	if w.c, err = watch.Resume(st.Watch, t, *o.Cluster, *o.Template, b, o.boOptions(), w.watchOptions(o)); err != nil {
		return nil, err
	}
	// Prime the recorder with the in-flight session's history so a
	// dashboard attached to the resumed watch shows the pre-snapshot
	// trials.
	if o.Recorder != nil && st.Watch.Session != nil {
		o.Recorder.Prime(st.Watch.Session)
	}
	return w, nil
}

// Watch is the high-level entry point: build a watcher and run it
// until ctx is cancelled or its horizon/episode budget is spent.
func Watch(ctx context.Context, t *Topology, b Backend, opts WatchOptions) (*Watcher, error) {
	w, err := NewWatcher(t, b, opts)
	if err != nil {
		return nil, err
	}
	if err := w.Run(ctx); err != nil {
		return w, err
	}
	return w, nil
}

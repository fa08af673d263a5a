package stormtune

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
	"time"
)

// fixtureTuner is the session testdata/tunerstate-v1.json was
// snapshotted from: every persisted knob away from its default, an
// archive so the snapshot carries a record key.
func fixtureTuner(arch Archive, obs Observer) (*Topology, Backend, TunerOptions) {
	top := BuildSynthetic("small", Condition{}, 1)
	template := DefaultSyntheticConfig(top, 1)
	cl := SmallCluster()
	return top, AsBackend(quietEval(top, cl)), TunerOptions{
		Steps: 10, Set: HintsBatch, Template: &template, Cluster: &cl, Seed: 5,
		StopAfterZeros: 4, Parallel: 2,
		Candidates: 120, HyperSamples: 2, LocalSearchIters: 4, MaxGPPoints: 6,
		Archive: arch, Observer: obs,
	}
}

// fixtureTunerCut is how many trials the fixture's run completed
// before it was cancelled and snapshotted.
const fixtureTunerCut = 6

// fixtureWatch is the watch testdata/watchstate-v1.json was
// snapshotted from: a flash crowd that forces a retune, every
// persisted knob away from its default.
func fixtureWatch(arch Archive, obs Observer) (*Topology, Backend, WatchOptions) {
	top := BuildSynthetic("small", Condition{}, 1)
	template := DefaultSyntheticConfig(top, 1)
	cl := SmallCluster()
	backend := AsBackend(Drifting(quietEval(top, cl), FlashCrowd{At: 1500, Magnitude: 3}, 400))
	return top, backend, WatchOptions{
		Steps: 8, RetuneSteps: 5, Set: Hints, Template: &template, Cluster: &cl, Seed: 3,
		TrialCost: 50, HoldInterval: 40, Horizon: 6000, MaxEpisodes: 2,
		Monitor:    MonitorOptions{Window: 5, DegradeFactor: 0.9, Sustain: 2, BackpressureSustain: 2, Cooldown: 100},
		Retune:     RetuneOptions{Radius: 0.15, RadiusMin: 0.03, RadiusMax: 0.4, Grow: 1.5, Shrink: 0.6, GrowAfter: 3},
		Candidates: 120, HyperSamples: 2, LocalSearchIters: 4, MaxGPPoints: 7,
		Archive: arch, Observer: obs,
	}
}

// fixtureWatchCut is how many trials the fixture's watch completed
// before it was cancelled and snapshotted: two into the first retune.
const fixtureWatchCut = 10

// cutAfter cancels once n trials have completed.
func cutAfter(n int, cancel context.CancelFunc) Observer {
	done := 0
	return ObserverFunc(func(e Event) {
		if _, ok := e.(TrialCompleted); ok {
			if done++; done == n {
				cancel()
			}
		}
	})
}

// cutTuner runs the fixture session until the cut and returns it.
func cutTuner(t *testing.T) (*Topology, *Tuner) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	top, b, opts := fixtureTuner(NewMemArchive(), cutAfter(fixtureTunerCut, cancel))
	tn, err := NewTuner(top, b, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tn.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	return top, tn
}

// cutWatch runs the fixture watch until the cut and returns it.
func cutWatch(t *testing.T, mutate func(*WatchOptions)) (*Topology, *Watcher) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	top, b, opts := fixtureWatch(NewMemArchive(), cutAfter(fixtureWatchCut, cancel))
	if mutate != nil {
		mutate(&opts)
	}
	w, err := NewWatcher(top, b, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	return top, w
}

// TestOptionsFieldsTagged: the options structs are the snapshot shape,
// so every field must say explicitly whether it is persisted (a json
// name) or runtime-only ("-"). An untagged field would silently become
// a snapshot key under its Go name.
func TestOptionsFieldsTagged(t *testing.T) {
	for _, typ := range []reflect.Type{reflect.TypeOf(TunerOptions{}), reflect.TypeOf(WatchOptions{})} {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if tag, ok := f.Tag.Lookup("json"); !ok || tag == "" {
				t.Errorf("%s.%s has no json tag: name it to persist it, or tag it \"-\"", typ.Name(), f.Name)
			}
		}
	}
}

// requireKnobsSet fails unless every persisted field of opts (a
// TunerOptions or WatchOptions) is non-zero, so the round trips below
// cover each knob — including ones added later.
func requireKnobsSet(t *testing.T, opts any) {
	t.Helper()
	v := reflect.ValueOf(opts)
	for i := 0; i < v.NumField(); i++ {
		f := v.Type().Field(i)
		if f.Tag.Get("json") != "-" && v.Field(i).IsZero() {
			t.Errorf("round trip leaves %s.%s at its zero value; give it a non-default", v.Type().Name(), f.Name)
		}
	}
}

// TestTunerStateRoundTrip: with every persisted knob set (and every
// runtime-only one too), a snapshot survives Save→Load exactly.
func TestTunerStateRoundTrip(t *testing.T) {
	top, b, opts := fixtureTuner(NewMemArchive(), ObserverFunc(func(Event) {}))
	opts.Template.BatchSize = 77
	opts.ArchiveKey = "round-trip/bo/s5#1"
	opts.Retry = RetryPolicy{MaxAttempts: 2, Backoff: time.Millisecond}
	opts.TrialTimeout = time.Minute
	opts.Recorder = NewRecorder()
	opts.WarmStart = WarmStartOptions{Enabled: true}
	tn, err := NewTuner(top, b, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tn.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	snap := tn.Snapshot()
	requireKnobsSet(t, snap.TunerOptions)
	var buf bytes.Buffer
	if err := snap.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadTunerState(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap, back) {
		t.Fatalf("tuner state changed in a Save/Load round trip:\n%+v\nvs\n%+v", snap.TunerOptions, back.TunerOptions)
	}
	// The snapshot owns its template: later edits to the live options
	// must not reach it.
	tn.opts.Template.BatchSize = 1
	if snap.Template.BatchSize != 77 {
		t.Fatal("snapshot aliases the session's template")
	}
}

// TestWatchStateRoundTrip is the same lock for the watch, snapshotted
// mid-retune so the embedded session state rides along.
func TestWatchStateRoundTrip(t *testing.T) {
	_, w := cutWatch(t, func(o *WatchOptions) {
		o.Set = HintsBatch
		o.ArchiveKey = "round-trip/watch/s3#1"
		o.Retry = RetryPolicy{MaxAttempts: 2, Backoff: time.Millisecond}
		o.Recorder = NewRecorder()
		o.Snapshot = func(*WatchState) {}
		o.SnapshotEvery = 1000
		o.Throttle = time.Nanosecond
	})
	snap := w.Snapshot()
	requireKnobsSet(t, snap.WatchOptions)
	var buf bytes.Buffer
	if err := snap.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadWatchState(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap, back) {
		t.Fatalf("watch state changed in a Save/Load round trip:\n%+v\nvs\n%+v", snap.WatchOptions, back.WatchOptions)
	}
}

// decisionTime matches the wall-clock decision timings session records
// carry — output only, and the one part of a snapshot no rerun
// reproduces.
var decisionTime = regexp.MustCompile(`"decisionNs":[0-9]+,?`)

// jsonObject decodes a snapshot's top level, compacting each value so
// indentation does not count and dropping decision timings.
func jsonObject(t *testing.T, raw []byte) map[string]string {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string, len(m))
	for k, v := range m {
		var c bytes.Buffer
		if err := json.Compact(&c, v); err != nil {
			t.Fatal(err)
		}
		out[k] = decisionTime.ReplaceAllString(c.String(), "")
	}
	return out
}

// sameObject requires two snapshots to carry the same keys with the
// same values; key order may differ.
func sameObject(t *testing.T, what string, want, got []byte) {
	t.Helper()
	w, g := jsonObject(t, want), jsonObject(t, got)
	for k, v := range w {
		if gv, ok := g[k]; !ok {
			t.Errorf("%s: key %q missing", what, k)
		} else if gv != v {
			t.Errorf("%s: key %q = %s, want %s", what, k, gv, v)
		}
	}
	for k := range g {
		if _, ok := w[k]; !ok {
			t.Errorf("%s: unexpected key %q", what, k)
		}
	}
}

// TestStateFixturesV1: snapshots written by the previous release (the
// options mirrored field by field into the state) still load, a fresh
// snapshot of the same run carries exactly their keys and values, and
// resuming them finishes exactly like an uninterrupted run.
func TestStateFixturesV1(t *testing.T) {
	t.Run("tuner", func(t *testing.T) {
		raw, err := os.ReadFile(filepath.Join("testdata", "tunerstate-v1.json"))
		if err != nil {
			t.Fatal(err)
		}
		_, cut := cutTuner(t)
		var now bytes.Buffer
		if err := cut.Snapshot().Save(&now); err != nil {
			t.Fatal(err)
		}
		sameObject(t, "fresh snapshot vs v1 fixture", raw, now.Bytes())

		top, b, opts := fixtureTuner(NewMemArchive(), nil)
		full, err := NewTuner(top, b, opts)
		if err != nil {
			t.Fatal(err)
		}
		want, err := full.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		st, err := LoadTunerState(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		resumed, err := ResumeTuner(st, top, b, TunerOptions{Archive: NewMemArchive()})
		if err != nil {
			t.Fatal(err)
		}
		if resumed.ArchiveKey() != st.ArchiveKey || st.ArchiveKey == "" {
			t.Fatalf("resumed under key %q, fixture has %q", resumed.ArchiveKey(), st.ArchiveKey)
		}
		got, err := resumed.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		recordsEqual(t, want.Records, got.Records)
		var a, c bytes.Buffer
		if err := full.Snapshot().Save(&a); err != nil {
			t.Fatal(err)
		}
		if err := resumed.Snapshot().Save(&c); err != nil {
			t.Fatal(err)
		}
		sameObject(t, "resumed vs uninterrupted final snapshot", a.Bytes(), c.Bytes())
	})
	t.Run("watch", func(t *testing.T) {
		raw, err := os.ReadFile(filepath.Join("testdata", "watchstate-v1.json"))
		if err != nil {
			t.Fatal(err)
		}
		_, cut := cutWatch(t, nil)
		var now bytes.Buffer
		if err := cut.Snapshot().Save(&now); err != nil {
			t.Fatal(err)
		}
		sameObject(t, "fresh snapshot vs v1 fixture", raw, now.Bytes())

		top, b, opts := fixtureWatch(NewMemArchive(), nil)
		full, err := NewWatcher(top, b, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := full.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		st, err := LoadWatchState(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		resumed, err := ResumeWatcher(st, top, b, WatchOptions{Archive: NewMemArchive()})
		if err != nil {
			t.Fatal(err)
		}
		if err := resumed.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		var a, c bytes.Buffer
		if err := full.Snapshot().Save(&a); err != nil {
			t.Fatal(err)
		}
		if err := resumed.Snapshot().Save(&c); err != nil {
			t.Fatal(err)
		}
		sameObject(t, "resumed vs uninterrupted final snapshot", a.Bytes(), c.Bytes())
	})
}

// withoutKey re-encodes a snapshot with one top-level key deleted.
func withoutKey(t *testing.T, raw []byte, key string) []byte {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	delete(m, key)
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// memberStateOf round-trips raw through a fleet log, the third loader
// of tuner snapshots.
func memberStateOf(t *testing.T, raw []byte) (*TunerState, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "fleet.log")
	fl, err := CreateFleetLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := fl.l.Snapshot("m", 0, raw); err != nil {
		t.Fatal(err)
	}
	if err := fl.Close(); err != nil {
		t.Fatal(err)
	}
	if fl, err = OpenFleetLog(path); err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	return fl.MemberState("m")
}

// TestStateMissingKeys deletes each key of a saved snapshot in turn:
// every loader, and resume after it, must answer with an error or a
// working session — never a panic — and the keys a resume cannot do
// without must be rejected.
func TestStateMissingKeys(t *testing.T) {
	required := map[string]bool{"version": true, "nodes": true, "template": true, "cluster": true}
	t.Run("tuner", func(t *testing.T) {
		top, tn := cutTuner(t)
		var buf bytes.Buffer
		if err := tn.Snapshot().Save(&buf); err != nil {
			t.Fatal(err)
		}
		for key := range jsonObject(t, buf.Bytes()) {
			raw := withoutKey(t, buf.Bytes(), key)
			st, lerr := LoadTunerState(bytes.NewReader(raw))
			ms, merr := memberStateOf(t, raw)
			if (lerr == nil) != (merr == nil) {
				t.Errorf("without %q: LoadTunerState err %v, FleetLog.MemberState err %v", key, lerr, merr)
			}
			var rerr error
			if lerr == nil {
				_, b, _ := fixtureTuner(nil, nil)
				_, rerr = ResumeTuner(st, top, b, TunerOptions{})
				if _, err := ResumeTuner(ms, top, b, TunerOptions{}); (err == nil) != (rerr == nil) {
					t.Errorf("without %q: resume from the fleet log disagrees: %v vs %v", key, err, rerr)
				}
			}
			if (required[key] || key == "session") && lerr == nil && rerr == nil {
				t.Errorf("without %q: snapshot loaded and resumed", key)
			}
		}
	})
	t.Run("watch", func(t *testing.T) {
		top, w := cutWatch(t, nil)
		var buf bytes.Buffer
		if err := w.Snapshot().Save(&buf); err != nil {
			t.Fatal(err)
		}
		for key := range jsonObject(t, buf.Bytes()) {
			st, lerr := LoadWatchState(bytes.NewReader(withoutKey(t, buf.Bytes(), key)))
			var rerr error
			if lerr == nil {
				_, b, _ := fixtureWatch(nil, nil)
				_, rerr = ResumeWatcher(st, top, b, WatchOptions{})
			}
			if (required[key] || key == "watch") && lerr == nil && rerr == nil {
				t.Errorf("without %q: snapshot loaded and resumed", key)
			}
		}
	})
}

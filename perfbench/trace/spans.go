package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"strconv"
	"sync"
	"time"

	"stormtune"
)

// span is one timed interval at a layer boundary, recorded from the
// benchmark's side of the call.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Trial  string `json:"trial,omitempty"`
}

// recorder keeps spans in memory; write dumps them when the replay
// ends. Spans begun at an event and ended at a later call (dispatch,
// report) wait in open, keyed by name and trial.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	open  map[string]int
}

// rootSpan is the session span every other span hangs off.
const rootSpan = 0

func newRecorder() *recorder {
	r := &recorder{t0: time.Now(), open: map[string]int{}}
	r.spans = append(r.spans, span{ID: rootSpan, Name: "session", Parent: -1})
	return r
}

func (r *recorder) since(t time.Time) int64 { return t.Sub(r.t0).Nanoseconds() }

// add records a finished span.
func (r *recorder) add(name, trial string, start, end time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans), Name: name, Start: r.since(start),
		End: r.since(end), Parent: rootSpan, Trial: trial})
}

// begin opens a span ended later by finish with the same name and trial.
func (r *recorder) begin(name, trial string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Name: name, Start: r.since(time.Now()), End: -1,
		Parent: rootSpan, Trial: trial})
	r.open[name+"|"+trial] = id
}

// finish ends the open span; false when none was open.
func (r *recorder) finish(name, trial string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	id, ok := r.open[name+"|"+trial]
	if !ok {
		return false
	}
	delete(r.open, name+"|"+trial)
	r.spans[id].End = r.since(time.Now())
	return true
}

// session marks the root span's interval.
func (r *recorder) session(start, end time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[rootSpan].Start, r.spans[rootSpan].End = r.since(start), r.since(end)
}

// durations are the finished spans of one name, in seconds.
func (r *recorder) durations(name string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []float64
	for _, s := range r.spans {
		if s.Name == name && s.End >= 0 {
			out = append(out, float64(s.End-s.Start)/1e9)
		}
	}
	return out
}

// write dumps every span as one JSON line.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// trialKey identifies a trial across events and backend calls. RunIndex
// separates a watch's monitoring samples from its trials.
func trialKey(member string, tr stormtune.Trial) string {
	return member + "/" + strconv.Itoa(tr.ID) + "/" + strconv.Itoa(tr.RunIndex)
}

// observer turns session events into spans and counts. One per session
// (fleet member); the recorder and tally are shared.
type observer struct {
	rec    *recorder
	tally  *tally
	member string
}

// tally is what the events count across a replay.
type tally struct {
	mu             sync.Mutex
	started        int
	retried        int
	failed         int
	holds          int
	decisions      []float64 // seconds, from Trial.Decision
	retuneDecision float64
	inRetune       bool
}

func (o observer) OnEvent(e stormtune.Event) {
	switch ev := e.(type) {
	case stormtune.TrialStarted:
		o.rec.begin("core.dispatch", trialKey(o.member, ev.Trial))
		o.tally.mu.Lock()
		o.tally.started++
		o.tally.decisions = append(o.tally.decisions, ev.Trial.Decision.Seconds())
		if o.tally.inRetune {
			o.tally.retuneDecision += ev.Trial.Decision.Seconds()
		}
		o.tally.mu.Unlock()
	case stormtune.TrialCompleted:
		o.rec.finish("core.report", trialKey(o.member, ev.Trial))
	case stormtune.TrialRetried:
		o.tally.mu.Lock()
		o.tally.retried++
		o.tally.mu.Unlock()
	case stormtune.TrialFailed:
		if ev.Permanent {
			o.tally.mu.Lock()
			o.tally.failed++
			o.tally.mu.Unlock()
		}
	case stormtune.HoldSampled:
		o.tally.mu.Lock()
		o.tally.holds++
		o.tally.mu.Unlock()
	case stormtune.RetuneTriggered:
		o.tally.mu.Lock()
		o.tally.inRetune = true
		o.tally.mu.Unlock()
	case stormtune.RetuneCompleted:
		o.tally.mu.Lock()
		o.tally.inRetune = false
		o.tally.mu.Unlock()
	}
}

// evalBackend times the in-process simulator. A call with no open
// dispatch span is a watch monitoring sample, not a trial: the
// simulator never fails, so no trial is attempted twice.
type evalBackend struct {
	inner  stormtune.Backend
	rec    *recorder
	member string
}

func (b evalBackend) Run(ctx context.Context, tr stormtune.Trial) (stormtune.Result, error) {
	key := trialKey(b.member, tr)
	name := "storm.eval"
	if !b.rec.finish("core.dispatch", key) {
		name = "watch.hold"
	}
	start := time.Now()
	res, err := b.inner.Run(ctx, tr)
	b.rec.add(name, key, start, time.Now())
	if name == "storm.eval" {
		b.rec.begin("core.report", key)
	}
	return res, err
}

// spanKey carries a fleet trial's key from the member's backend down to
// the pool member that serves it.
type spanKey struct{}

// memberBackend is one fleet member's view of the shared pool: the CLI
// hands every member the pool itself, this wrapper only adds the
// dispatch, pool-wait and report spans.
type memberBackend struct {
	pool   stormtune.Backend
	rec    *recorder
	member string
}

func (b memberBackend) Run(ctx context.Context, tr stormtune.Trial) (stormtune.Result, error) {
	key := trialKey(b.member, tr)
	b.rec.finish("core.dispatch", key)
	b.rec.begin("core.pool_wait", key)
	res, err := b.pool.Run(context.WithValue(ctx, spanKey{}, key), tr)
	b.rec.finish("core.pool_wait", key) // a member that never ran it (shed, refused) leaves it open
	b.rec.begin("core.report", key)
	return res, err
}

// remoteMember times one worker round trip. Embedding keeps the
// client's routing methods (Serves, Info, URL) visible to the pool.
type remoteMember struct {
	*stormtune.RemoteBackend
	rec *recorder
}

func (m remoteMember) Run(ctx context.Context, tr stormtune.Trial) (stormtune.Result, error) {
	key, _ := ctx.Value(spanKey{}).(string)
	m.rec.finish("core.pool_wait", key)
	start := time.Now()
	res, err := m.RemoteBackend.Run(ctx, tr)
	m.rec.add("remote.rtt", key, start, time.Now())
	return res, err
}

// serverBackend times the evaluation a worker runs for a request.
type serverBackend struct {
	inner stormtune.Backend
	rec   *recorder
}

func (b serverBackend) Run(ctx context.Context, tr stormtune.Trial) (stormtune.Result, error) {
	start := time.Now()
	res, err := b.inner.Run(ctx, tr)
	b.rec.add("storm.eval", "", start, time.Now())
	return res, err
}

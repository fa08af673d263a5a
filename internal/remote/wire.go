// Package remote turns backends into a JSON-over-HTTP evaluation
// service and back: Server exposes one or more registered topologies
// (a multi-tenant `stormtune serve` worker process) and Backend is the
// client side — a core.Backend that evaluates trials by POSTing them to
// such a server. One tuning session — or a whole fleet of them — can
// drive a pool of worker processes by combining one client per worker
// with core.NewPoolBackend; the pool routes each trial to a worker
// serving its topology fingerprint.
//
// The wire protocol is deliberately small:
//
//	POST /run     {"trial": {...}, "config": {...}, "fingerprint": "..."}
//	              → {"result": {...}}
//	GET  /info    {"topologies": [...], "inFlight": N, ...}
//	GET  /healthz "ok"
//
// A /run response with a non-2xx status carries {"error": "...",
// "code": "..."}; the code distinguishes losses the session's
// RetryPolicy should absorb (evaluation faults, abandoned runs) from
// conditions retrying cannot fix (bad credentials, a fingerprint the
// worker does not serve) and from admission refusals (HTTP 429 with
// queue depth, estimated wait and Retry-After) that the client pool
// handles by shedding the trial to another worker.
package remote

import (
	"time"

	"stormtune/internal/storm"
)

// Credentials is the bearer-token identity shared by both sides of the
// protocol: a server with a non-empty Token requires `Authorization:
// Bearer <token>` on /run and /info, and a client with one sends it.
// The zero value is an open (unauthenticated) endpoint.
type Credentials struct {
	Token string `json:"token,omitempty"`
}

// Transport bundles the client-side round-trip knobs — one coherent
// struct shared by single-worker backends and worker pools, so every
// member of a pool is configured identically.
type Transport struct {
	// RequestTimeout bounds one HTTP round trip when the trial carries
	// no deadline of its own. Zero leaves the request bounded only by
	// ctx.
	RequestTimeout time.Duration
	// Retries re-POSTs a request whose transport failed — connection
	// refused, reset, broken pipe — up to this many extra times.
	// Evaluations are pure functions of (config, run index), so
	// re-POSTing is safe. Server-reported errors are NOT retried here;
	// surfacing those to the session's RetryPolicy keeps one retry
	// budget, observable via TrialFailed/TrialRetried events.
	Retries int
	// Backoff is the wait between transport retries (default 100ms,
	// doubling per retry).
	Backoff time.Duration
}

// TrialMeta is the trial envelope sent alongside the configuration:
// enough for the server to reproduce the exact measurement (RunIndex
// selects the noise draw) and enforce the trial's deadline.
type TrialMeta struct {
	ID        int   `json:"id"`
	RunIndex  int   `json:"runIndex"`
	Attempt   int   `json:"attempt,omitempty"`
	TimeoutMS int64 `json:"timeoutMs,omitempty"`
}

// RunRequest is the body of POST /run. Fingerprint routes the trial to
// the registered topology it belongs to (topo.Fingerprint in %016x hex,
// stamped onto trials by the session); empty is accepted only by a
// server registering exactly one topology.
type RunRequest struct {
	Trial       TrialMeta    `json:"trial"`
	Config      storm.Config `json:"config"`
	Fingerprint string       `json:"fingerprint,omitempty"`
}

// maxRunBody bounds a POST /run body. A trial is one configuration —
// a few hundred hints at most — so honest bodies sit far below it.
const maxRunBody = 1 << 20

// Machine-readable error codes carried by non-2xx /run replies.
const (
	// CodeAuth: missing or wrong bearer token (HTTP 401). Permanent —
	// retrying with the same credentials cannot succeed.
	CodeAuth = "auth"
	// CodeUnknownFingerprint: the request's fingerprint matches no
	// registered topology (HTTP 404). Permanent for this worker; the
	// reply's Served list names what it does serve.
	CodeUnknownFingerprint = "unknown_fingerprint"
	// CodeOverloaded: admission control refused the run (HTTP 429); the
	// reply carries QueueDepth, EstWaitMS and a Retry-After header. The
	// evaluation never started — shed the trial to another worker or
	// wait, no retry budget is owed.
	CodeOverloaded = "overloaded"
	// CodeBadRequest: malformed body or a config that does not fit the
	// routed topology (HTTP 400), or a body over maxRunBody (HTTP 413).
	// Permanent — the same request fails the same way.
	CodeBadRequest = "bad_request"
	// CodeEvaluation: the backend lost the measurement (HTTP 502) — the
	// classic case for the session's RetryPolicy.
	CodeEvaluation = "evaluation"
	// CodeAbandoned: the run exceeded the trial deadline and the reply
	// was abandoned (HTTP 504); the session's RetryPolicy decides.
	CodeAbandoned = "abandoned"
)

// RunResponse is the body of a /run reply. Result is set on success
// (HTTP 200); otherwise Error carries the human-readable message and
// Code one of the Code* constants. An overloaded reply additionally
// reports the admission pressure (QueueDepth, EstWaitMS), and an
// unknown-fingerprint reply the Served fingerprint set.
type RunResponse struct {
	Result *storm.Result `json:"result,omitempty"`
	Error  string        `json:"error,omitempty"`
	Code   string        `json:"code,omitempty"`
	// QueueDepth is the number of evaluations the worker is running or
	// admitting right now (CodeOverloaded replies).
	QueueDepth int `json:"queueDepth,omitempty"`
	// EstWaitMS estimates how long until a slot frees, from the
	// worker's smoothed evaluation duration (CodeOverloaded replies).
	EstWaitMS int64 `json:"estWaitMs,omitempty"`
	// Served lists the fingerprints the worker serves
	// (CodeUnknownFingerprint replies).
	Served []string `json:"served,omitempty"`
}

// TopologyInfo describes one registered topology.
type TopologyInfo struct {
	// Topology is the served topology's name.
	Topology string `json:"topology"`
	// Nodes is the topology's operator count; configurations must carry
	// exactly this many hints.
	Nodes int `json:"nodes"`
	// Metric is the throughput definition (storm.Metric.String());
	// empty means the server did not declare it.
	Metric string `json:"metric,omitempty"`
	// Fingerprint is the hex form of topo.Topology.Fingerprint — the
	// full structural hash. Name and node count cannot distinguish two
	// synthetic topologies generated with different seeds; this can,
	// and it is the /run routing key.
	Fingerprint string `json:"fingerprint,omitempty"`
}

// Info describes a worker: every topology it serves, its live load and
// its admission capacity, so clients can verify routing before tuning
// and pools can weigh members.
type Info struct {
	// Topologies lists the registered topologies in registration order.
	Topologies []TopologyInfo `json:"topologies"`
	// InFlight is the number of evaluations running right now.
	InFlight int `json:"inFlight"`
	// Capacity is the admission limit on concurrent evaluations; 0
	// means unlimited (no admission control).
	Capacity int `json:"capacity,omitempty"`
	// AuthRequired reports that /run and /info demand a bearer token
	// (the /info that carried this was itself authenticated).
	AuthRequired bool `json:"authRequired,omitempty"`
}

// Lookup returns the registered topology with the given fingerprint.
func (i Info) Lookup(fingerprint string) (TopologyInfo, bool) {
	for _, t := range i.Topologies {
		if t.Fingerprint == fingerprint {
			return t, true
		}
	}
	return TopologyInfo{}, false
}

// Fingerprints returns the served fingerprint set, in registration
// order.
func (i Info) Fingerprints() []string {
	out := make([]string, 0, len(i.Topologies))
	for _, t := range i.Topologies {
		out = append(out, t.Fingerprint)
	}
	return out
}

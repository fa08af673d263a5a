package remote

import (
	"fmt"
	"strings"
	"time"
)

// The typed client-side errors below implement small marker interfaces
// the core package recognizes without importing this one:
//
//   - Permanent() bool — retrying this exact request cannot succeed;
//     the session's RetryPolicy fails the trial immediately instead of
//     burning its attempt budget.
//   - Overloaded() bool (+ RetryAfter) — the worker refused the run
//     before evaluating; the pool sheds the trial to another member.
//   - Unreachable() bool — the failure was transport-level (no HTTP
//     reply at all); the pool's health tracking counts it toward
//     eviction.

// AuthError reports a request rejected by bearer-token auth (HTTP
// 401): the token is missing or wrong.
type AuthError struct {
	// URL is the worker base URL.
	URL string
	// Detail is the server's error message.
	Detail string
}

// Error implements error.
func (e *AuthError) Error() string {
	return fmt.Sprintf("remote: %s: unauthorized: %s", e.URL, e.Detail)
}

// Permanent marks the error as unretryable: the same credentials will
// be rejected again.
func (e *AuthError) Permanent() bool { return true }

// UnknownFingerprintError reports a trial routed to a worker that does
// not serve its topology (HTTP 404): the request's fingerprint matched
// no registered topology.
type UnknownFingerprintError struct {
	// URL is the worker base URL.
	URL string
	// Want is the fingerprint the trial asked for (empty when the
	// request carried none and the server serves several topologies).
	Want string
	// Served lists the fingerprints the worker does serve.
	Served []string
}

// Error implements error.
func (e *UnknownFingerprintError) Error() string {
	want := e.Want
	if want == "" {
		want = "(none)"
	}
	return fmt.Sprintf("remote: %s does not serve topology fingerprint %s (serves: %s)",
		e.URL, want, strings.Join(e.Served, ", "))
}

// Permanent marks the error as unretryable against this worker: its
// registry will not change between attempts.
func (e *UnknownFingerprintError) Permanent() bool { return true }

// BadRequestError reports a request the worker rejected as malformed
// (HTTP 400, or 413 for a body over maxRunBody): retrying the same
// trial cannot succeed.
type BadRequestError struct {
	// URL is the worker base URL.
	URL string
	// Status is the HTTP status of the reply.
	Status int
	// Detail is the server's error message.
	Detail string
}

// Error implements error.
func (e *BadRequestError) Error() string {
	return fmt.Sprintf("remote: %s: HTTP %d: %s", e.URL, e.Status, e.Detail)
}

// Permanent marks the error as unretryable.
func (e *BadRequestError) Permanent() bool { return true }

// OverloadedError reports an admission-control refusal (HTTP 429): the
// worker is at capacity and did not start the evaluation. Nothing was
// lost — the trial can run elsewhere immediately, or here after
// RetryAfter.
type OverloadedError struct {
	// URL is the worker base URL.
	URL string
	// QueueDepth is the worker's live evaluation count at refusal.
	QueueDepth int
	// EstWait is the worker's estimate of when a slot frees.
	EstWait time.Duration
	// RetryAfter is the server-suggested wait (the Retry-After header).
	RetryAfter time.Duration
}

// Error implements error.
func (e *OverloadedError) Error() string {
	return fmt.Sprintf("remote: %s overloaded (%d in flight, est. wait %s, retry after %s)",
		e.URL, e.QueueDepth, e.EstWait, e.RetryAfter)
}

// Overloaded marks the refusal for the pool's shedding path.
func (e *OverloadedError) Overloaded() bool { return true }

// RetryAfterHint exposes the server-suggested wait to the pool without
// it importing this package.
func (e *OverloadedError) RetryAfterHint() time.Duration { return e.RetryAfter }

// TransportError reports a request that never produced an HTTP reply —
// connection refused, reset, broken pipe — after the transport retry
// budget was spent. The worker may be down; the pool's health tracking
// counts these toward eviction.
type TransportError struct {
	// URL is the worker base URL.
	URL string
	// Err is the final transport failure.
	Err error
}

// Error implements error.
func (e *TransportError) Error() string { return e.Err.Error() }

// Unwrap exposes the underlying failure to errors.Is/As.
func (e *TransportError) Unwrap() error { return e.Err }

// Unreachable marks the failure as transport-level for pool health
// accounting.
func (e *TransportError) Unreachable() bool { return true }

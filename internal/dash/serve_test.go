package dash

import (
	"context"
	"io"
	"net"
	"net/http"
	"testing"
	"time"

	"stormtune/internal/core"
)

// TestServeDropsStalledHeaders: a client that opens a connection and
// stops mid-header is disconnected after the header timeout instead of
// holding a server goroutine forever, while a well-behaved client on
// the same server is still answered.
func TestServeDropsStalledHeaders(t *testing.T) {
	saved := readHeaderTimeout
	readHeaderTimeout = 200 * time.Millisecond
	defer func() { readHeaderTimeout = saved }()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- ServeListener(ctx, ln, New(core.NewRecorder(), Options{}), time.Second) }()
	defer func() {
		cancel()
		if err := <-errc; err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /healthz HTTP/1.1\r\nHost: stall\r\n"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	conn.SetReadDeadline(start.Add(5 * time.Second))
	if _, err := io.ReadAll(conn); err != nil {
		if ne, ok := err.(net.Error); ok && ne.Timeout() {
			t.Fatal("server kept a stalled header open past the header timeout")
		}
	}
	if waited := time.Since(start); waited > 4*time.Second {
		t.Fatalf("stalled connection closed after %s", waited)
	}

	resp, err := http.Get("http://" + ln.Addr().String() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after a stalled client: HTTP %d", resp.StatusCode)
	}
}

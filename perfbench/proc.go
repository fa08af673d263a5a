package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// procTimeout bounds any single child process; a run must end within
// the 180 s a benchmark run is allowed.
const procTimeout = 150 * time.Second

// childEnv pins every process the benchmark starts to one scheduler
// thread. On a shared 2-core box this cut tune-large's spread from
// 26.6–33.2 s to 24.2–24.8 s and does not change any decision.
func childEnv() []string { return append(os.Environ(), "GOMAXPROCS=1") }

// procRun is one finished CLI process.
type procRun struct {
	setup   time.Duration // process start → start line
	session time.Duration // start line → exit, less the pacer's pauses
	scale   float64       // session's host-speed factor (1 unpaced)
	stdout  []string
	stderr  string
	rssMB   []float64 // resident set, sampled during the session
}

// isStartLine matches the line each subcommand prints once set-up is
// done and the session begins.
func isStartLine(line string) bool {
	return strings.HasPrefix(line, "tuning ") || strings.HasPrefix(line, "watching ") ||
		(strings.HasPrefix(line, "fleet: ") && strings.Contains(line, " sessions over "))
}

// runCLI runs bin with args to completion. With probe set it kills the
// process as soon as the start line appears: a set-up-only sample.
// With a clock, the session is paced and its calibration samples go to
// the clock (calib.go).
func runCLI(bin string, args []string, probe bool, clock *hostClock) (procRun, error) {
	ctx, cancel := context.WithTimeout(context.Background(), procTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.Env = childEnv()
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return procRun{}, err
	}
	r := procRun{scale: 1}
	start := time.Now()
	var pace *pacer
	if clock != nil && !probe {
		pace, err = startPaced(cmd, clock)
	} else {
		err = cmd.Start()
	}
	if err != nil {
		return procRun{}, err
	}
	var begun time.Time
	var stopRSS func() []float64
	sc := bufio.NewScanner(out)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if begun.IsZero() && isStartLine(line) {
			begun = time.Now()
			if pace != nil {
				pace.start()
			}
			if !probe {
				stopRSS = sampleRSS(cmd.Process.Pid)
			}
			if probe {
				_ = cmd.Process.Kill() // the set-up sample is taken; the session is not wanted
				_, _ = io.Copy(io.Discard, out)
				break
			}
		}
		r.stdout = append(r.stdout, line)
	}
	if stopRSS != nil {
		r.rssMB = stopRSS()
	}
	var paused time.Duration
	if pace != nil {
		paused = pace.stop()
		r.scale = scale(pace.samples)
	}
	waitErr := cmd.Wait()
	end := time.Now()
	if pace != nil {
		pace.release()
	}
	r.stderr = stderr.String()
	if begun.IsZero() {
		return r, fmt.Errorf("%s %s: no start line (wait: %v)\n%s", filepath.Base(bin),
			strings.Join(args, " "), waitErr, tail(r.stderr))
	}
	r.setup = begun.Sub(start)
	if probe {
		return r, nil
	}
	if waitErr != nil {
		return r, fmt.Errorf("%s %s: %v\n%s", filepath.Base(bin), strings.Join(args, " "), waitErr, tail(r.stderr))
	}
	r.session = end.Sub(begun) - paused
	return r, nil
}

// rssPeriod is how often sampleRSS reads the resident set.
const rssPeriod = 100 * time.Millisecond

// sampleRSS reads pid's resident set every rssPeriod until the returned
// stop is called, which returns the samples in MB. Call stop before
// reaping the process, so its pid cannot have been reused.
func sampleRSS(pid int) (stop func() []float64) {
	path := "/proc/" + strconv.Itoa(pid) + "/status"
	done := make(chan struct{})
	out := make(chan []float64, 1)
	go func() {
		var mb []float64
		t := time.NewTicker(rssPeriod)
		defer t.Stop()
		for {
			if v, ok := readRSS(path); ok {
				mb = append(mb, v)
			}
			select {
			case <-done:
				out <- mb
				return
			case <-t.C:
			}
		}
	}()
	return func() []float64 {
		close(done)
		return <-out
	}
}

// readRSS returns the VmRSS line of a /proc/<pid>/status file in MB.
func readRSS(path string) (float64, bool) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0, false
	}
	for _, l := range strings.Split(string(raw), "\n") {
		if f := strings.Fields(l); len(f) == 3 && f[0] == "VmRSS:" && f[2] == "kB" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err == nil
		}
	}
	return 0, false
}

func tail(s string) string {
	if len(s) > 2000 {
		return s[len(s)-2000:]
	}
	return s
}

// field returns the rest of the first stdout line starting with
// prefix, trimmed.
func field(lines []string, prefix string) (string, bool) {
	for _, l := range lines {
		if strings.HasPrefix(l, prefix) {
			return strings.TrimSpace(strings.TrimPrefix(l, prefix)), true
		}
	}
	return "", false
}

// firstWord is the first space-separated token of field(lines, prefix).
func firstWord(lines []string, prefix string) (string, error) {
	v, ok := field(lines, prefix)
	if !ok || v == "" {
		return "", wrongf("output has no %q line", prefix)
	}
	return strings.Fields(v)[0], nil
}

func intField(lines []string, prefix string) (int, error) {
	w, err := firstWord(lines, prefix)
	if err != nil {
		return 0, err
	}
	n, err := strconv.Atoi(w)
	if err != nil {
		return 0, wrongf("%s %q: %v", prefix, w, err)
	}
	return n, nil
}

// permanentFailures counts the trials the CLI reported as permanently
// failed; it prints those even with -quiet.
func permanentFailures(stderr string) int {
	return strings.Count(stderr, "failed permanently")
}

// worker is one `stormtune serve` process.
type worker struct {
	cmd  *exec.Cmd
	url  string
	done chan struct{}
}

// startWorker launches a worker on a free loopback port and waits until
// it answers /healthz.
func startWorker(bin string, args func(addr string) []string) (*worker, error) {
	addr, err := freePort()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args(addr)...)
	cmd.Env = childEnv()
	cmd.Stdout = io.Discard
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	w := &worker{cmd: cmd, url: "http://" + addr, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status of a worker we stop is not interesting
		close(w.done)
	}()
	client := http.Client{Timeout: time.Second}
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-w.done:
			return nil, fmt.Errorf("worker %s exited at start-up: %s", addr, tail(stderr.String()))
		default:
		}
		if resp, err := client.Get(w.url + "/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return w, nil
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	w.stop()
	return nil, fmt.Errorf("worker %s not healthy after 20s", addr)
}

// stop interrupts the worker, kills it if it does not drain in time,
// and waits for it to exit.
func (w *worker) stop() {
	_ = w.cmd.Process.Signal(os.Interrupt)
	select {
	case <-w.done:
	case <-time.After(6 * time.Second):
		_ = w.cmd.Process.Kill()
		<-w.done
	}
}

func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// copyTree copies a file or a directory tree.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		return copyFile(path, target)
	})
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

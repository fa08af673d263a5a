package main

import (
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// Host-speed calibration. The shared host this benchmark was defined on
// runs the same CPU-bound session up to 1.7x slower in some phases than
// in others, in phases of ten seconds to several minutes, and CPU time
// moves with wall time. No run length the benchmark's time limit allows
// averages that out (README.md, Noise). So a tune or watch session is
// paced: every pacePeriod the benchmark stops the CLI process, runs a
// fixed calibration kernel on the same CPU, and lets the process go on.
// The kernel's time is a sample of the host's speed at that moment;
// the session's wall time, less the pauses, is rescaled to the
// reference speed by the mean of its samples.

const (
	// pacePeriod is how long the CLI runs between calibration samples.
	pacePeriod = 500 * time.Millisecond
	// calRefSeconds is one calibration sample's time at the reference
	// speed: the kernel's time in the defining box's fast phases.
	calRefSeconds = 0.015
)

// calKernel is a fixed piece of the work a tune session does: Matérn
// 5/2 kernel rows of 300 candidates against 60 points in 100
// dimensions, and a Cholesky factorisation of a 60×60 Gram matrix. It
// is the benchmark's own code, so it is the same on every commit.
type calKernel struct {
	xs, cands [][]float64
	ls, gram  []float64
	sink      float64
}

func newCalKernel() *calKernel {
	points := func(n int, step float64) [][]float64 {
		out := make([][]float64, n)
		for i := range out {
			out[i] = make([]float64, 100)
			for k := range out[i] {
				out[i][k] = math.Mod(step*float64(i*131+k*17+7), 1)
			}
		}
		return out
	}
	k := &calKernel{xs: points(60, 0.6180339887), cands: points(300, 0.41421356),
		ls: make([]float64, 100), gram: make([]float64, 60*60)}
	for i := range k.ls {
		k.ls[i] = 0.5 + float64(i%7)/10
	}
	return k
}

// sample runs the kernel once to bring its data back into cache, then
// four times more, and returns the time of those four in seconds. The
// untimed pass keeps the sample from depending on how much of the cache
// the paused program had taken.
func (k *calKernel) sample() float64 {
	k.pass()
	start := time.Now()
	for rep := 0; rep < 4; rep++ {
		k.pass()
	}
	return time.Since(start).Seconds()
}

// pass is one run of the kernel.
func (k *calKernel) pass() {
	for _, c := range k.cands {
		for _, x := range k.xs {
			d := 0.0
			for i := range c {
				t := (c[i] - x[i]) / k.ls[i]
				d += t * t
			}
			r := math.Sqrt(5 * d)
			k.sink += (1 + r + r*r/3) * math.Exp(-r)
		}
	}
	n, a := len(k.xs), k.gram
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			d := 0.0
			for m := range k.xs[i] {
				t := k.xs[i][m] - k.xs[j][m]
				d += t * t
			}
			a[i*n+j] = math.Exp(-d / 50)
		}
		a[i*n+i]++
	}
	for j := 0; j < n; j++ {
		v := a[j*n+j]
		for m := 0; m < j; m++ {
			v -= a[j*n+m] * a[j*n+m]
		}
		v = math.Sqrt(v)
		a[j*n+j] = v
		for i := j + 1; i < n; i++ {
			w := a[i*n+j]
			for m := 0; m < j; m++ {
				w -= a[i*n+m] * a[j*n+m]
			}
			a[i*n+j] = w / v
		}
	}
	k.sink += a[n*n-1]
}

// hostClock holds a run's calibration samples.
type hostClock struct {
	kernel  *calKernel
	samples []float64
}

func newHostClock() *hostClock { return &hostClock{kernel: newCalKernel()} }

// scale is the factor that takes a time measured over samples to the
// reference speed: calRefSeconds over the samples' mean. With no
// samples it is 1.
func scale(samples []float64) float64 {
	if len(samples) == 0 {
		return 1
	}
	sum := 0.0
	for _, s := range samples {
		sum += s
	}
	return calRefSeconds / (sum / float64(len(samples)))
}

// pacer stops a running CLI process every pacePeriod, takes a
// calibration sample, and continues it. All of it runs on one
// goroutine locked to a thread pinned to one CPU, and the process is
// started from that thread, so it inherits the pin: the kernel and the
// session share the CPU whose speed is being sampled. The process gets
// SIGKILL when that thread ends, so it cannot outlive the benchmark
// stopped; the thread is held until the process has been reaped.
type pacer struct {
	clock   *hostClock
	begin   chan struct{} // closed when the session starts: pacing begins
	done    chan struct{} // closed to end pacing
	idle    chan struct{} // closed when pacing has ended
	free    chan struct{} // closed when the process has been reaped
	exited  chan struct{} // closed when the pacing goroutine returns
	paused  time.Duration
	samples []float64
}

// startPaced starts cmd through a pacer that samples into clock.
func startPaced(cmd *exec.Cmd, clock *hostClock) (*pacer, error) {
	p := &pacer{clock: clock, begin: make(chan struct{}), done: make(chan struct{}),
		idle: make(chan struct{}), free: make(chan struct{}), exited: make(chan struct{})}
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	started := make(chan error, 1)
	go func() {
		defer close(p.exited)
		// The thread stays locked: it exits with the goroutine instead of
		// returning to the scheduler with its CPU pin.
		runtime.LockOSThread()
		if err := pinThread(); err != nil {
			started <- err
			return
		}
		if err := cmd.Start(); err != nil {
			started <- err
			return
		}
		started <- nil
		defer func() { <-p.free }()
		defer close(p.idle)
		select {
		case <-p.begin:
		case <-p.done:
			return
		}
		t := time.NewTimer(pacePeriod)
		defer t.Stop()
		pid := cmd.Process.Pid
		for {
			select {
			case <-p.done:
				return
			case <-t.C:
			}
			t0 := time.Now()
			if syscall.Kill(pid, syscall.SIGSTOP) != nil {
				return
			}
			stopped := waitStopped(pid, p.done)
			if stopped {
				p.samples = append(p.samples, p.clock.kernel.sample())
			}
			_ = syscall.Kill(pid, syscall.SIGCONT)
			p.paused += time.Since(t0)
			if !stopped {
				return
			}
			t.Reset(pacePeriod)
		}
	}()
	if err := <-started; err != nil {
		<-p.exited
		return nil, err
	}
	return p, nil
}

// start begins pacing; call it when the session's start line appears.
func (p *pacer) start() { close(p.begin) }

// stop ends pacing and returns the time the process spent paused. Call
// it before reaping the process, so its pid cannot have been reused.
func (p *pacer) stop() time.Duration {
	close(p.done)
	<-p.idle
	p.clock.samples = append(p.clock.samples, p.samples...)
	return p.paused
}

// release lets the pacing thread end; call it once the process has
// been reaped.
func (p *pacer) release() {
	close(p.free)
	<-p.exited
}

// waitStopped polls until pid's main thread shows as stopped; the
// group stop reaches the other threads at the same time. It gives up,
// returning false, when the process is gone or done is closed.
func waitStopped(pid int, done <-chan struct{}) bool {
	path := "/proc/" + strconv.Itoa(pid) + "/stat"
	for {
		raw, err := os.ReadFile(path)
		if err != nil {
			return false
		}
		// The state follows the parenthesised command name.
		s := string(raw)
		i := strings.LastIndexByte(s, ')')
		if i < 0 || i+2 >= len(s) {
			return false
		}
		switch s[i+2] {
		case 'T', 't':
			return true
		case 'Z', 'X', 'x':
			return false
		}
		select {
		case <-done:
			return false
		default:
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// pinThread pins the calling thread to the first CPU it may run on.
func pinThread() error {
	var mask [16]uint64
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask),
		uintptr(unsafe.Pointer(&mask))); e != 0 {
		return fmt.Errorf("sched_getaffinity: %v", e)
	}
	var one [16]uint64
	for i, w := range mask {
		if w != 0 {
			one[i] = w & -w
			break
		}
	}
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(one),
		uintptr(unsafe.Pointer(&one))); e != 0 {
		return fmt.Errorf("sched_setaffinity: %v", e)
	}
	return nil
}

//go:build linux

package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

var epoch time.Time

// now is the benchmark's only clock read: host time since the first call.
func now() time.Duration {
	//waspvet:wallclock the benchmark measures host time; every timing in this package goes through here
	t := time.Now()
	if epoch.IsZero() {
		epoch = t
	}
	return t.Sub(epoch)
}

// cpuNow reads the process's CPU clock: user and system time of every thread,
// the garbage collector's included. Unlike now() it does not advance while
// the hypervisor runs another guest, which on a shared host is most of the
// run-to-run noise, so every time the benchmark reports as an end-to-end
// metric is measured on it.
func cpuNow() time.Duration {
	const clockProcessCPUTimeID = 2
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(fmt.Sprintf("clock_gettime(CLOCK_PROCESS_CPUTIME_ID): %v", errno))
	}
	return time.Duration(ts.Nano())
}

// meter measures the timed region: a workload opens and closes it around each
// call into the program, so that result checking between calls stays out of
// the numbers.
type meter struct {
	cpu, wall      time.Duration
	mallocs, bytes uint64
	// deadline, on the wall clock, is when a workload stops starting new
	// work: the lists are sized for a quiet host, and on a slow one a run
	// must still end in time. A cut list shows as ops below full_ops.
	deadline time.Duration

	c0, t0 time.Duration
	m0     runtime.MemStats
}

func newMeter(seconds float64) *meter {
	return &meter{deadline: now() + time.Duration((1.5*seconds+2)*float64(time.Second))}
}

func (m *meter) expired() bool { return now() > m.deadline }

func (m *meter) start() {
	runtime.ReadMemStats(&m.m0)
	m.t0, m.c0 = now(), cpuNow()
}

func (m *meter) stop() {
	c, t := cpuNow()-m.c0, now()-m.t0
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	m.cpu += c
	m.wall += t
	m.mallocs += m1.Mallocs - m.m0.Mallocs
	m.bytes += m1.TotalAlloc - m.m0.TotalAlloc
}

// outcome is what one pass over a workload's work list produced.
type outcome struct {
	ops       int64 // done, in the workload's own unit
	fullOps   int64 // in the whole work list; more than ops if the deadline cut it
	attempted int   // checks made
	failures  []string
	// rows is the deterministic results table: two passes over the same
	// work list must produce it byte for byte.
	rows []string
	// violations lists, per run-end invariant, the cells that broke it.
	// They are the program's known defects at the seed commit, recorded
	// and digested but not counted as failed operations.
	violations map[string][]string
}

func newOutcome() *outcome {
	return &outcome{violations: map[string][]string{}}
}

func (o *outcome) failf(format string, args ...any) {
	o.failures = append(o.failures, fmt.Sprintf(format, args...))
}

func (o *outcome) rowf(format string, args ...any) {
	o.rows = append(o.rows, fmt.Sprintf(format, args...))
}

// digest is the SHA-256 of the results table.
func (o *outcome) digest() string {
	h := sha256.New()
	for _, row := range o.rows {
		fmt.Fprintln(h, row)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// guard runs fn and turns a panic in the program under test into an error:
// a crashed cell is a failed operation, not a crashed benchmark.
func guard(fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return fn()
}

// quantile is the q-quantile of xs by linear interpolation; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (s[lo+1]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

// environment is recorded with every result: numbers from different
// machines or thread counts are not comparable.
type environment struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
}

func readEnvironment() environment {
	env := environment{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   "unknown",
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return env
}

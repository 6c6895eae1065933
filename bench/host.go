package main

import (
	"bufio"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// host is the fingerprint recorded with every result. compare refuses to
// pair results whose comparable fields differ; GitHead and CalibrationMS,
// the time of 200 ms (on the reference host) of calibration kernel, are
// recorded so that drift between sets of runs can be seen.
type host struct {
	CPU           string  `json:"cpu"`
	NProc         int     `json:"nproc"`
	GOMAXPROCS    int     `json:"gomaxprocs"`
	Go            string  `json:"go"`
	GitHead       string  `json:"git_head"`
	CalibrationMS float64 `json:"calibration_ms"`
}

// sameHost reports whether results from a and b may be compared.
func sameHost(a, b host) bool {
	return a.CPU == b.CPU && a.NProc == b.NProc && a.GOMAXPROCS == b.GOMAXPROCS && a.Go == b.Go
}

func fingerprint() host {
	return host{
		CPU:           cpuModel(),
		NProc:         runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		Go:            runtime.Version(),
		GitHead:       gitHead("."),
		CalibrationMS: calibrate(),
	}
}

// The calibration kernel is fixed work shaped like the simulator's:
// dependent pseudo-random reads and writes over an 8 MB table, the size of
// one run's simulated memory, with a data-dependent branch. On a host
// shared with other tenants, memory contention moves the kernel's time
// and the simulator's together, by up to 20% within minutes, while a
// register-only loop barely moves. Host times are scaled by the kernel's
// speed measured next to them (see hostScale).
const (
	kernelWords = 1 << 20
	// kernelIters is one kernel sample, 5–7 ms on the reference host.
	kernelIters = 500_000
	// kernelNominal is about one sample's time on the benchmark's
	// reference host, a 2-core Xeon with 4 MB of L2 per core.
	kernelNominal = 6500 * time.Microsecond
)

var (
	kernelTable []uint64
	kernelSink  uint64
)

// kernel runs the calibration kernel for iters iterations and returns its
// wall time.
func kernel(iters int) time.Duration {
	if kernelTable == nil {
		kernelTable = make([]uint64, kernelWords)
	}
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < iters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & (kernelWords - 1)
		if v := kernelTable[j]; v&1 == 0 {
			kernelTable[j] = v + x
		} else {
			kernelTable[(j*7)&(kernelWords-1)] ^= v
		}
	}
	kernelSink += x
	return time.Since(start)
}

// calibrate returns the time of 40 kernel samples run back to back, in
// ms: about 200 ms on the reference host.
func calibrate() float64 {
	return float64(kernel(40*kernelIters).Nanoseconds()) / 1e6
}

// scaleWindow is how many kernel samples on each side of a wall time
// scaled takes the median over.
const scaleWindow = 4

// scaled turns wall times into reference-host times: each is multiplied
// by the median of the scales measured right after it and after its
// scaleWindow neighbours on each side. The median smooths the kernel's own
// sample noise, which would otherwise widen the tail of the scaled times,
// while following drift that lasts longer than a few passes.
func scaled(walls, scales []float64) []float64 {
	out := make([]float64, len(walls))
	for i, w := range walls {
		lo, hi := max(0, i-scaleWindow), min(len(scales), i+scaleWindow+1)
		out[i] = w * median(scales[lo:hi])
	}
	return out
}

// hostScale runs one kernel sample and returns the factor that turns a
// wall time measured next to it into reference-host time. An untimed
// half sample first brings the table's cache residency to its steady
// state, so the scale does not depend on how much of the cache the
// measured work left to the kernel.
func hostScale() float64 {
	kernel(kernelIters / 2)
	return float64(kernelNominal) / float64(kernel(kernelIters))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOOS + "/" + runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOOS + "/" + runtime.GOARCH
}

// gitHead resolves HEAD of the git repository at root without running git;
// "unknown" outside a repository.
func gitHead(root string) string {
	gitDir := filepath.Join(root, ".git")
	head, err := os.ReadFile(filepath.Join(gitDir, "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if id, err := os.ReadFile(filepath.Join(gitDir, ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, err := os.ReadFile(filepath.Join(gitDir, "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(line, " "); ok && name == ref {
			return id
		}
	}
	return "unknown"
}

// peakRSSMB returns this process's peak resident set (VmHWM) in MB, or the
// Go runtime's total obtained memory where /proc is unavailable.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
				if err == nil {
					return kb * 1024 / 1e6
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / 1e6
}

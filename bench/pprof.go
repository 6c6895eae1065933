package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
)

// profBuckets are the layers a CPU profile's self time is split into: the
// repository packages on the simulation and sweep paths, the Go runtime
// (allocation and GC), JSON decoding and file I/O (the warm sweep's read
// path), and everything else.
var profBuckets = []string{
	"sim", "cpu", "cache", "coherence", "lineset", "mem", "htm", "core", "policy",
	"workload", "harness", "runstore", "runtime", "json", "os", "other",
}

// profileShares runs `go tool pprof -top` over a CPU profile and returns
// each bucket's share of the sampled self time.
func profileShares(path string) (map[string]float64, error) {
	out, err := exec.Command("go", "tool", "pprof", "-top", "-nodefraction=0", path).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	return bucketTop(out)
}

// bucketTop sums the flat% column of `pprof -top` text by bucket and
// returns shares in [0, 1]. Every bucket is present, zero when unsampled.
func bucketTop(text []byte) (map[string]float64, error) {
	shares := make(map[string]float64, len(profBuckets))
	for _, b := range profBuckets {
		shares[b] = 0
	}
	sc := bufio.NewScanner(bytes.NewReader(text))
	inTable := false
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if !inTable {
			inTable = len(fields) >= 2 && fields[0] == "flat" && fields[1] == "flat%"
			continue
		}
		if len(fields) < 6 {
			continue
		}
		pct, err := strconv.ParseFloat(strings.TrimSuffix(fields[1], "%"), 64)
		if err != nil {
			return nil, fmt.Errorf("pprof line %q: %w", sc.Text(), err)
		}
		fn := strings.Join(fields[5:], " ")
		bucket := "runtime" // assembly symbols such as gcWriteBarrier carry no package
		if strings.Contains(fn, ".") {
			bucket = bucketOf(packageOf(fn))
		}
		shares[bucket] += pct / 100
	}
	if !inTable {
		return nil, fmt.Errorf("pprof output has no flat/flat%% table")
	}
	return shares, nil
}

// packageOf returns the import path of a pprof function name such as
// "repro/internal/sim.(*Engine).stepAt" or "runtime.mallocgc (inline)".
func packageOf(fn string) string {
	if i := strings.IndexAny(fn, "[( "); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndex(fn, "/")
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

func bucketOf(pkg string) string {
	if rest, ok := strings.CutPrefix(pkg, "repro/internal/"); ok {
		name, _, _ := strings.Cut(rest, "/")
		for _, b := range profBuckets {
			if b == name {
				return b
			}
		}
		return "other"
	}
	switch {
	case pkg == "os" || pkg == "syscall" || pkg == "io/fs" || pkg == "internal/runtime/syscall" || strings.HasPrefix(pkg, "internal/poll"):
		return "os"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case pkg == "encoding/json":
		return "json"
	}
	return "other"
}

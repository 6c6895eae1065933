package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// goldenJSON holds the seed-1 outcome of every workload: the
// Stats.Digest() of each per-run cell and the SHA-256 of each sweep's
// Matrix.WriteCSV. `bench golden <file>` regenerates it.
//
//go:embed testdata/golden.json
var goldenJSON []byte

type goldenFile struct {
	Seed      uint64                 `json:"seed"`
	Workloads map[string]goldenEntry `json:"workloads"`
}

type goldenEntry struct {
	Digests   map[string]string `json:"digests,omitempty"`
	CSVSHA256 string            `json:"csv_sha256,omitempty"`
}

// checkGolden returns how got differs from the checked-in outcome of the
// workload, or "" when it matches or no golden exists for the seed.
func checkGolden(name string, seed uint64, got reference) (string, error) {
	var g goldenFile
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return "", fmt.Errorf("golden file: %w", err)
	}
	if seed != g.Seed {
		return "", nil
	}
	e, ok := g.Workloads[name]
	if !ok {
		return "no golden outcome for this workload", nil
	}
	want := reference{digests: e.Digests, csvSHA: e.CSVSHA256}
	return want.diff(got), nil
}

// writeGolden runs the setup pass of every workload at seed 1 and writes
// the outcomes to path.
func writeGolden(path, scratch string) error {
	g := goldenFile{Seed: 1, Workloads: make(map[string]goldenEntry)}
	for i := range workloads {
		def := &workloads[i]
		in, err := newInstance(def, g.Seed, filepath.Join(scratch, def.name))
		if err != nil {
			return err
		}
		ref, err := in.setup()
		if err != nil {
			return fmt.Errorf("%s: %w", def.name, err)
		}
		g.Workloads[def.name] = goldenEntry{Digests: ref.digests, CSVSHA256: ref.csvSHA}
	}
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// diff returns how got differs from the outcome r, or "" when it
// reproduces it.
func (r reference) diff(got reference) string {
	if r.csvSHA != got.csvSHA {
		return fmt.Sprintf("CSV SHA-256 %s, want %s", got.csvSHA, r.csvSHA)
	}
	if len(r.digests) != len(got.digests) {
		return fmt.Sprintf("%d cells, want %d", len(got.digests), len(r.digests))
	}
	labels := make([]string, 0, len(r.digests))
	for label := range r.digests {
		labels = append(labels, label)
	}
	sort.Strings(labels)
	for _, label := range labels {
		if got.digests[label] != r.digests[label] {
			return fmt.Sprintf("%s: Stats.Digest() differs", label)
		}
	}
	return ""
}

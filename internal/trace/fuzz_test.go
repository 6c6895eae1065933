package trace

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// FuzzTraceReader feeds arbitrary bytes through the decoder, the offline
// folds cleartrace runs over a decoded stream and the renderers it writes
// them with. A corrupt trace must come back as an error, never as a panic
// or an out-of-memory death.
func FuzzTraceReader(f *testing.F) {
	for _, name := range []string{"cores-overflow.trace", "far-tick.trace"} {
		raw, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Add(syntheticTrace(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		rd, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		evs, err := rd.ReadAll()
		if err != nil {
			return
		}
		meta := rd.Meta()
		p := BuildProfile(meta, evs)
		CommittedARs(evs)
		samples, _ := SampleIntervals(meta, evs, 10_000)
		_ = WriteText(io.Discard, meta, evs)
		_ = WriteEventCSV(io.Discard, meta, evs)
		_ = WriteSpanCSV(io.Discard, p)
		_ = WritePerfetto(io.Discard, p, samples)
		_ = WriteIntervalCSV(io.Discard, samples)
	})
}

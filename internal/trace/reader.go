package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/sim"
)

// Meta is the decoded file header of a trace stream.
type Meta struct {
	Version     uint16
	Cores       int
	Seed        uint64
	Benchmark   string
	Config      string
	ARNames     map[int]string
	MemAccesses bool
	DirAccesses bool
}

// ARName returns the name of AR progID, or "ar<id>" when the header does
// not carry one.
func (m Meta) ARName(progID int) string {
	if n, ok := m.ARNames[progID]; ok {
		return n
	}
	return fmt.Sprintf("ar%d", progID)
}

// Reader decodes a binary trace stream produced by Tracer.
type Reader struct {
	r    *bufio.Reader
	meta Meta
}

// NewReader reads and validates the header of r and returns a Reader
// positioned at the first event record.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	rd := &Reader{r: br}
	if err := rd.readHeader(); err != nil {
		return nil, err
	}
	return rd, nil
}

func (rd *Reader) readHeader() error {
	var fixed [24]byte
	if _, err := io.ReadFull(rd.r, fixed[:]); err != nil {
		return fmt.Errorf("trace: short header: %w", err)
	}
	if got := binary.LittleEndian.Uint32(fixed[0:]); got != Magic {
		return fmt.Errorf("trace: bad magic %#x (not a clear trace file)", got)
	}
	rd.meta.Version = binary.LittleEndian.Uint16(fixed[4:])
	if rd.meta.Version != Version {
		return fmt.Errorf("trace: unsupported version %d (reader supports %d)", rd.meta.Version, Version)
	}
	flags := binary.LittleEndian.Uint16(fixed[6:])
	rd.meta.MemAccesses = flags&flagMemAccesses != 0
	rd.meta.DirAccesses = flags&flagDirAccesses != 0
	// Records carry Core as a uint8 with NoCore reserved, so a stream can
	// address at most 255 cores; a larger count is corrupt, and readers
	// size per-core state from it.
	cores := binary.LittleEndian.Uint32(fixed[8:])
	if cores > uint32(NoCore) {
		return fmt.Errorf("trace: header claims %d cores, records address at most %d", cores, NoCore)
	}
	rd.meta.Cores = int(cores)
	rd.meta.Seed = binary.LittleEndian.Uint64(fixed[16:])
	var err error
	if rd.meta.Benchmark, err = rd.readString(); err != nil {
		return err
	}
	if rd.meta.Config, err = rd.readString(); err != nil {
		return err
	}
	var cnt [2]byte
	if _, err := io.ReadFull(rd.r, cnt[:]); err != nil {
		return fmt.Errorf("trace: short header: %w", err)
	}
	n := int(binary.LittleEndian.Uint16(cnt[:]))
	rd.meta.ARNames = make(map[int]string, n)
	for i := 0; i < n; i++ {
		var idb [4]byte
		if _, err := io.ReadFull(rd.r, idb[:]); err != nil {
			return fmt.Errorf("trace: short header: %w", err)
		}
		name, err := rd.readString()
		if err != nil {
			return err
		}
		rd.meta.ARNames[int(binary.LittleEndian.Uint32(idb[:]))] = name
	}
	return nil
}

func (rd *Reader) readString() (string, error) {
	var lb [2]byte
	if _, err := io.ReadFull(rd.r, lb[:]); err != nil {
		return "", fmt.Errorf("trace: short header: %w", err)
	}
	n := int(binary.LittleEndian.Uint16(lb[:]))
	b := make([]byte, n)
	if _, err := io.ReadFull(rd.r, b); err != nil {
		return "", fmt.Errorf("trace: short header: %w", err)
	}
	return string(b), nil
}

// Meta returns the decoded header.
func (rd *Reader) Meta() Meta { return rd.meta }

// Next decodes the next event record. It returns io.EOF at a clean end of
// stream and a descriptive error for a truncated or corrupt record.
func (rd *Reader) Next() (Event, error) {
	var rec [recordSize]byte
	_, err := io.ReadFull(rd.r, rec[:])
	if err != nil {
		if err == io.EOF {
			return Event{}, io.EOF
		}
		return Event{}, fmt.Errorf("trace: truncated record: %w", err)
	}
	e := Event{
		Tick: sim.Tick(binary.LittleEndian.Uint64(rec[0:])),
		Kind: Kind(rec[8]),
		Core: rec[9],
		Arg0: rec[10],
		Arg1: rec[11],
		Arg2: binary.LittleEndian.Uint32(rec[12:]),
		Addr: binary.LittleEndian.Uint64(rec[16:]),
		Arg3: binary.LittleEndian.Uint64(rec[24:]),
	}
	if e.Kind == 0 || e.Kind >= NumKinds {
		return Event{}, fmt.Errorf("trace: corrupt record: unknown kind %d", uint8(e.Kind))
	}
	return e, nil
}

// ReadAll decodes the remaining events of the stream into a slice.
func (rd *Reader) ReadAll() ([]Event, error) {
	var out []Event
	for {
		e, err := rd.Next()
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, e)
	}
}

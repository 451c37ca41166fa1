package fleet

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"telepresence/internal/core"
)

// JournalEntryFormat identifies the journal record schema version. /2
// dropped the attempts count, which read 1 once units stopped retrying.
const JournalEntryFormat = "telepresence-journal/2"

// JournalEntry is one completed unit's checkpointed rows. Rows are stored
// pre-encoded in both sink encodings — JSONL lines exactly as NewJSONLSink
// emits them and CSV records exactly as NewCSVSink flattens them — so a
// resumed run reassembles final output byte-identical to an uninterrupted
// one without needing to restore typed row values.
type JournalEntry struct {
	Format string `json:"format"`
	// Unit is the unit's stable identity ("grid/handover/delay_ms=100",
	// "grid/fig4/rep=0").
	Unit string `json:"unit"`
	// Scope pins the result-affecting options (core.Options.Fingerprint):
	// an entry is only reusable by a run whose scope matches, so resuming
	// with a different seed or session scale re-runs everything.
	Scope string `json:"scope"`
	// Rows is the row count (redundant with the encodings; a mismatch
	// marks the entry torn).
	Rows  int               `json:"rows"`
	JSONL []json.RawMessage `json:"jsonl"`
	CSV   [][]string        `json:"csv"`
}

// segmentPattern names journal segment files (os.CreateTemp pattern and
// filepath.Glob pattern alike). Nothing else in a journal directory is
// read.
const segmentPattern = "segment-*.jsonl"

// Journal is a per-run checkpoint directory of append-only segment files.
// Each completed unit is one record: its entry's compact JSON and a
// newline, appended in a single write to the segment this Journal creates
// on its first Write. Records are keyed by (unit identity, options scope).
// Because cell seeds are value-derived and worker-count-invariant, records
// are location-independent: any run with the same seed and options can
// reuse them, at any worker count, in any grid shape that contains the
// cell.
//
// Durability: a record reaches the kernel before its unit is reported
// done, so a killed process loses no finished unit. Records are not
// synced one by one; the run syncs its segment once when it ends or
// drains, and the directory is never synced. An OS crash can therefore
// lose or tear unsynced records; a torn record reads as a miss and its
// unit re-runs.
type Journal struct {
	dir string

	mu   sync.Mutex
	path string   // this Journal's segment, created on its first Write
	seg  *os.File // path open for appending; sync closes it
	off  int64    // end of the last whole record in path
	// index maps unit+"\x00"+scope to the newest record with that key,
	// built by the first Lookup; nil until then.
	index map[string]recordRef
}

// recordRef locates one record: the segment file, the record's offset
// and its length without the newline.
type recordRef struct {
	seg string
	off int64
	n   int
}

// OpenJournal opens (creating if needed) a checkpoint directory. It reads
// nothing and creates no segment.
func OpenJournal(dir string) (*Journal, error) {
	if dir == "" {
		return nil, errors.New("fleet: empty journal directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("fleet: open journal: %w", err)
	}
	return &Journal{dir: dir}, nil
}

// Dir returns the journal's directory.
func (j *Journal) Dir() string { return j.dir }

func journalKey(unit, scope string) string { return unit + "\x00" + scope }

// Lookup returns the journaled entry for a unit, or false when none is
// usable. The first Lookup indexes every segment in the directory;
// records this Journal writes afterwards join the index. A record torn by
// a crash, or a foreign one, fails to parse or fails its self-checks
// (format, unit, scope, row counts, compact JSONL lines) and counts as a
// miss, so the unit re-runs. A JSONL line that is not compact JSON is
// refused because, replayed verbatim, it could span several output lines.
func (j *Journal) Lookup(unit, scope string) (*JournalEntry, bool) {
	j.mu.Lock()
	if j.index == nil {
		j.index = j.scan()
	}
	ref, ok := j.index[journalKey(unit, scope)]
	j.mu.Unlock()
	if !ok {
		return nil, false
	}
	return readRecord(ref, unit, scope)
}

// scan indexes every newline-terminated record of every segment whose
// leading format, unit and scope parse (recordKey); a later record of the
// same key replaces an earlier one. An unterminated tail is a torn record
// and is skipped.
func (j *Journal) scan() map[string]recordRef {
	index := map[string]recordRef{}
	segs, _ := filepath.Glob(filepath.Join(j.dir, segmentPattern)) // fails only on a bad pattern
	for _, seg := range segs {
		f, err := os.Open(seg)
		if err != nil {
			continue // an unreadable segment's units re-run
		}
		r := bufio.NewReaderSize(f, 64<<10)
		var off int64
		for {
			line, err := r.ReadBytes('\n')
			if err != nil {
				break
			}
			if key, ok := recordKey(line); ok {
				index[key] = recordRef{seg, off, len(line) - 1}
			}
			off += int64(len(line))
		}
		f.Close()
	}
	return index
}

// recordKey reads a record's journal key from its leading format, unit
// and scope fields, in the order json.Marshal writes them, without
// scanning its rows; Lookup checks the whole record.
func recordKey(line []byte) (string, bool) {
	d := json.NewDecoder(bytes.NewReader(line))
	if t, err := d.Token(); err != nil || t != json.Delim('{') {
		return "", false
	}
	var h [3]string
	for i, name := range [3]string{"format", "unit", "scope"} {
		if k, err := d.Token(); err != nil || k != name {
			return "", false
		}
		v, err := d.Token()
		s, ok := v.(string)
		if err != nil || !ok {
			return "", false
		}
		h[i] = s
	}
	return journalKey(h[1], h[2]), h[0] == JournalEntryFormat
}

// readRecord reads one indexed record and runs the entry self-checks.
func readRecord(ref recordRef, unit, scope string) (*JournalEntry, bool) {
	f, err := os.Open(ref.seg)
	if err != nil {
		return nil, false
	}
	data := make([]byte, ref.n)
	_, err = f.ReadAt(data, ref.off)
	f.Close()
	if err != nil {
		return nil, false
	}
	var e JournalEntry
	if json.Unmarshal(data, &e) != nil ||
		e.Format != JournalEntryFormat || e.Unit != unit || e.Scope != scope ||
		len(e.JSONL) != e.Rows || len(e.CSV) != e.Rows || !compactLines(e.JSONL) {
		return nil, false
	}
	return &e, true
}

// compactLines reports whether every line equals its json.Compact form,
// which is what json.Marshal writes and holds no newline.
func compactLines(lines []json.RawMessage) bool {
	var buf bytes.Buffer
	for _, line := range lines {
		buf.Reset()
		if json.Compact(&buf, line) != nil || !bytes.Equal(buf.Bytes(), line) {
			return false
		}
	}
	return true
}

// Write appends one completed unit's record to this Journal's segment in
// a single write, creating the segment on first use and reopening it
// after a sync. It does not sync; the run syncs once at its end (sync).
// After a failed write the segment may end in a torn record, so it is
// abandoned and the next Write starts a new one.
func (j *Journal) Write(e *JournalEntry) error {
	data, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("fleet: journal encode %s: %w", e.Unit, err)
	}
	data = append(data, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	switch {
	case j.seg != nil:
	case j.path == "":
		if j.seg, err = os.CreateTemp(j.dir, segmentPattern); err == nil {
			j.path, j.off = j.seg.Name(), 0
		}
	default:
		j.seg, err = os.OpenFile(j.path, os.O_WRONLY|os.O_APPEND, 0)
	}
	if err != nil {
		return fmt.Errorf("fleet: journal write %s: %w", e.Unit, err)
	}
	if _, err := j.seg.Write(data); err != nil {
		j.seg.Close()
		j.seg, j.path = nil, ""
		return fmt.Errorf("fleet: journal write %s: %w", e.Unit, err)
	}
	if j.index != nil {
		j.index[journalKey(e.Unit, e.Scope)] = recordRef{j.path, j.off, len(data) - 1}
	}
	j.off += int64(len(data))
	return nil
}

// sync flushes this Journal's segment to stable storage and closes it;
// runOrdered calls it once when a run ends or drains.
func (j *Journal) sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.seg == nil {
		return nil
	}
	err := j.seg.Sync()
	if cerr := j.seg.Close(); err == nil {
		err = cerr
	}
	j.seg = nil
	if err != nil {
		return fmt.Errorf("fleet: journal sync: %w", err)
	}
	return nil
}

// Len counts the distinct keys whose record passes Lookup's self-checks.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.index == nil {
		j.index = j.scan()
	}
	n := 0
	//vplint:allow maporder(a count; every iteration order yields the same total)
	for k, ref := range j.index {
		unit, scope, _ := strings.Cut(k, "\x00")
		if _, ok := readRecord(ref, unit, scope); ok {
			n++
		}
	}
	return n
}

// encodeEntry renders a unit's rows in both sink encodings. The JSONL
// bytes match json.Encoder output (modulo the trailing newline the sink
// adds) and the CSV records match NewCSVSink's flattening, so replayed
// entries are byte-identical to live writes.
func encodeEntry(unitKey, scope string, rs []core.Row) (*JournalEntry, error) {
	e := &JournalEntry{
		Format: JournalEntryFormat,
		Unit:   unitKey,
		Scope:  scope,
		Rows:   len(rs),
		JSONL:  make([]json.RawMessage, 0, len(rs)),
		CSV:    make([][]string, 0, len(rs)),
	}
	for _, r := range rs {
		b, err := json.Marshal(r)
		if err != nil {
			return nil, err
		}
		e.JSONL = append(e.JSONL, b)
		e.CSV = append(e.CSV, flattenRecord(r))
	}
	return e, nil
}

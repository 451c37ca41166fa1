package fleet

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"telepresence/internal/core"
)

// JournalEntryFormat identifies the journal entry schema version.
const JournalEntryFormat = "telepresence-journal/1"

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
	// Attempts is how many tries the unit took when it was journaled.
	Attempts int `json:"attempts"`
	// Rows is the row count (redundant with the encodings; a mismatch
	// marks the entry torn).
	Rows  int               `json:"rows"`
	JSONL []json.RawMessage `json:"jsonl"`
	CSV   [][]string        `json:"csv"`
}

// Journal is a per-run checkpoint directory: each completed unit's rows
// persist as one content-addressed file keyed by (unit identity, options
// scope), written atomically via temp-file+rename. Because cell seeds are
// value-derived and worker-count-invariant, entries are location-
// independent: any run with the same seed and options can reuse them, at
// any worker count, in any grid shape that contains the cell.
type Journal struct {
	dir string
}

// OpenJournal opens (creating if needed) a checkpoint directory.
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

// entryPath content-addresses a unit: the file name is the hash of the
// (unit, scope) key, so lookups never scan and foreign entries never
// collide.
func (j *Journal) entryPath(unit, scope string) string {
	h := sha256.Sum256([]byte(unit + "\x00" + scope))
	return filepath.Join(j.dir, hex.EncodeToString(h[:16])+".json")
}

// Lookup returns the journaled entry for a unit, or false when none is
// usable. A torn entry (interrupted mid-write without the atomic rename
// completing, or truncated by a crash) fails to parse or fails its
// self-checks; it counts as a miss and is removed so the unit re-runs.
// So does a foreign entry whose JSONL lines are not compact JSON: replayed
// verbatim, such a line could span several output lines.
func (j *Journal) Lookup(unit, scope string) (*JournalEntry, bool) {
	path := j.entryPath(unit, scope)
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, false
	}
	var e JournalEntry
	if err := json.Unmarshal(data, &e); err != nil ||
		e.Format != JournalEntryFormat || e.Unit != unit || e.Scope != scope ||
		len(e.JSONL) != e.Rows || len(e.CSV) != e.Rows || !compactLines(e.JSONL) {
		os.Remove(path)
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

// Write persists one completed unit crash-consistently: the entry is
// written to a temp file in the journal directory, synced, then renamed
// into its content-addressed name. A crash at any point leaves either no
// entry or a complete one — never a torn file under the final name.
func (j *Journal) Write(e *JournalEntry) error {
	data, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("fleet: journal encode %s: %w", e.Unit, err)
	}
	f, err := os.CreateTemp(j.dir, ".entry-*")
	if err != nil {
		return fmt.Errorf("fleet: journal write %s: %w", e.Unit, err)
	}
	tmp := f.Name()
	cleanup := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("fleet: journal write %s: %w", e.Unit, err)
	}
	if _, err := f.Write(data); err != nil {
		return cleanup(err)
	}
	if err := f.Sync(); err != nil {
		return cleanup(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("fleet: journal write %s: %w", e.Unit, err)
	}
	if err := os.Rename(tmp, j.entryPath(e.Unit, e.Scope)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("fleet: journal write %s: %w", e.Unit, err)
	}
	return nil
}

// Len counts the complete entries currently in the journal.
func (j *Journal) Len() int {
	matches, err := filepath.Glob(filepath.Join(j.dir, "*.json"))
	if err != nil {
		return 0
	}
	n := 0
	for _, m := range matches {
		if !strings.HasPrefix(filepath.Base(m), ".") {
			n++
		}
	}
	return n
}

// encodeEntry renders a unit's rows in both sink encodings. The JSONL
// bytes match json.Encoder output (modulo the trailing newline the sink
// adds) and the CSV records match NewCSVSink's flattening, so replayed
// entries are byte-identical to live writes.
func encodeEntry(unitKey, scope string, attempts int, rs []core.Row) (*JournalEntry, error) {
	e := &JournalEntry{
		Format:   JournalEntryFormat,
		Unit:     unitKey,
		Scope:    scope,
		Attempts: attempts,
		Rows:     len(rs),
		JSONL:    make([]json.RawMessage, 0, len(rs)),
		CSV:      make([][]string, 0, len(rs)),
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

// Package dbpack persists a prepared search database: the FASTA records
// plus everything internal/search derives from them once per database —
// the canonical length-sorted scan order behind lane-group batching, the
// per-record length table the O(1) skip bound reads, and the database-
// side blast word index the pruning prefilter seeds from. `genomedsm
// index` pays the FASTA parse, the sort and the word indexing once;
// `genomedsm serve` (or `search -pack`) loads the pack near-instantly
// and starts answering queries without recomputing any of it.
//
// The wire format reuses the internal/recovery checkpoint codec — a
// version byte, positional varint values, and a trailing FNV-1a
// checksum — prefixed by an 8-byte magic string so "not a pack file"
// and "corrupt pack file" stay distinguishable errors. Loading
// validates the magic, the codec version and checksum, the pack format
// version, the stored scan order (it must equal the unique canonical
// order search.NewDB would compute), the length table, and the word
// index posting ranges. A pack that decodes is therefore
// indistinguishable, to a scan, from a database prepared in-process.
package dbpack

import (
	"fmt"
	"os"
	"path/filepath"

	"genomedsm/internal/bio"
	"genomedsm/internal/blast"
	"genomedsm/internal/recovery"
	"genomedsm/internal/search"
)

// magic opens every pack file. The trailing byte leaves room for a
// future incompatible container layout without touching the codec.
const magic = "GDMPACK\x01"

// packVersion is the pack payload format version; bumped whenever the
// value stream changes so a stale pack is rejected, never mis-decoded.
const packVersion = 1

// Pack is a loaded (or about-to-be-written) database pack.
type Pack struct {
	// DB is the prepared database, ready to scan. After ReadFile it
	// carries the stored scan order and word index; after Open it also
	// carries the lane-group layout (mapped for v2, built for v1).
	DB *search.DB
	// Word is the word size of the embedded prefilter index, 0 when the
	// pack was built without one.
	Word int
	// Info describes how the pack got into memory (Open fills it).
	Info Info
	// close releases the mmap'd region of an Open'd v2 pack.
	close func() error
}

// Build prepares records for packing: the canonical scan order is
// computed, and when word is within blast's [4,15] range a database-side
// word index is built and embedded. word 0 skips the index.
func Build(recs []bio.Record, word int) (*Pack, error) {
	db := search.NewDB(recs)
	if word != 0 {
		ix := blast.NewDBWordIndex(recs, word)
		if ix == nil {
			return nil, fmt.Errorf("dbpack: prefilter word size %d outside [4,15]", word)
		}
		db.SetWordIndex(ix)
		return &Pack{DB: db, Word: word}, nil
	}
	return &Pack{DB: db, Word: 0}, nil
}

// Encode serializes the pack. The byte stream is deterministic: records
// in database order, the scan order table, the length table in scan
// order, then the word index with words ascending — so the same records
// and word size always produce the identical blob (pinned by the golden
// test).
func (p *Pack) Encode() []byte {
	recs := p.DB.Records()
	w := recovery.NewWriter()
	w.Uint(packVersion)
	w.Uint(uint64(len(recs)))
	for _, r := range recs {
		w.Bytes([]byte(r.ID))
		w.Bytes([]byte(r.Description))
		w.Bytes(r.Seq)
	}
	order := p.DB.Order()
	ord32 := make([]int32, len(order))
	lens := make([]int32, len(order))
	for i, idx := range order {
		ord32[i] = int32(idx)
		lens[i] = int32(len(recs[idx].Seq))
	}
	w.Int32s(ord32)
	w.Int32s(lens)
	w.Int(p.Word)
	if ix := p.DB.WordIndex(); p.Word != 0 && ix != nil {
		words, offs, flat := ix.Export()
		w.Uint(uint64(len(words)))
		for i, word := range words {
			w.Uint(uint64(word))
			ps := flat[offs[i]:offs[i+1]]
			pairs := make([]int32, 0, 2*len(ps))
			for _, pt := range ps {
				pairs = append(pairs, pt.Rec, pt.Pos)
			}
			w.Int32s(pairs)
		}
	}
	blob := w.Finish()
	out := make([]byte, 0, len(magic)+len(blob))
	out = append(out, magic...)
	return append(out, blob...)
}

// Decode parses and validates a pack blob. Every failure mode has a
// distinct error: wrong magic (not a pack), checksum mismatch
// (corrupt), codec or pack version mismatch (stale), malformed scan
// order or posting table (invalid).
func Decode(blob []byte) (*Pack, error) {
	if len(blob) < len(magic) || string(blob[:len(magic)]) != magic {
		return nil, fmt.Errorf("dbpack: not a database pack (bad magic)")
	}
	r, err := recovery.NewReader(blob[len(magic):])
	if err != nil {
		return nil, fmt.Errorf("dbpack: %w", err)
	}
	if v := r.Uint(); v != packVersion {
		if r.Err() == nil {
			return nil, fmt.Errorf("dbpack: pack format version %d, want %d", v, packVersion)
		}
		return nil, fmt.Errorf("dbpack: %w", r.Err())
	}
	n := int(r.Uint())
	if r.Err() != nil {
		return nil, fmt.Errorf("dbpack: %w", r.Err())
	}
	if n < 0 || n > len(blob) { // each record costs ≥1 byte of stream
		return nil, fmt.Errorf("dbpack: implausible record count %d in %d-byte pack", n, len(blob))
	}
	recs := make([]bio.Record, n)
	for i := range recs {
		id := r.Bytes()
		desc := r.Bytes()
		seq := r.Bytes()
		if r.Err() != nil {
			return nil, fmt.Errorf("dbpack: %w", r.Err())
		}
		// Copy out of the blob so the records do not alias the file buffer.
		recs[i] = bio.Record{
			ID:          string(id),
			Description: string(desc),
			Seq:         bio.Sequence(append([]byte(nil), seq...)),
		}
	}
	ord32 := r.Int32s()
	lens := r.Int32s()
	word := r.Int()
	if r.Err() != nil {
		return nil, fmt.Errorf("dbpack: %w", r.Err())
	}
	order := make([]int, len(ord32))
	for i, v := range ord32 {
		order[i] = int(v)
	}
	db, err := search.PreparedDB(recs, order)
	if err != nil {
		return nil, fmt.Errorf("dbpack: %w", err)
	}
	if len(lens) != len(order) {
		return nil, fmt.Errorf("dbpack: length table holds %d entries for %d records", len(lens), len(order))
	}
	for i, idx := range order {
		if int(lens[i]) != len(recs[idx].Seq) {
			return nil, fmt.Errorf("dbpack: length table disagrees with record %d (%d vs %d)",
				idx, lens[i], len(recs[idx].Seq))
		}
	}
	p := &Pack{DB: db, Word: word}
	if word != 0 {
		nw := int(r.Uint())
		if r.Err() != nil {
			return nil, fmt.Errorf("dbpack: %w", r.Err())
		}
		if nw < 0 || nw > len(blob) {
			return nil, fmt.Errorf("dbpack: implausible word count %d in %d-byte pack", nw, len(blob))
		}
		words := make([]uint32, nw)
		offs := make([]uint32, 1, nw+1)
		var flat []blast.DBPosting
		for i := 0; i < nw; i++ {
			words[i] = uint32(r.Uint())
			pairs := r.Int32s()
			if r.Err() != nil {
				return nil, fmt.Errorf("dbpack: %w", r.Err())
			}
			if len(pairs)%2 != 0 {
				return nil, fmt.Errorf("dbpack: odd posting table for word %#x", words[i])
			}
			if i > 0 && words[i] <= words[i-1] {
				return nil, fmt.Errorf("dbpack: word table not strictly ascending at entry %d", i)
			}
			for j := 0; j < len(pairs); j += 2 {
				flat = append(flat, blast.DBPosting{Rec: pairs[j], Pos: pairs[j+1]})
			}
			offs = append(offs, uint32(len(flat)))
		}
		ix, err := blast.RestoreDBWordIndex(recs, word, words, offs, flat)
		if err != nil {
			return nil, fmt.Errorf("dbpack: %w", err)
		}
		db.SetWordIndex(ix)
	}
	return p, nil
}

// WriteFile writes the pack atomically in the legacy v1 format; new
// packs should use WriteFileV2 (mmap-ready).
func WriteFile(path string, p *Pack) error {
	return writeBlob(path, p.Encode())
}

// writeBlob writes blob atomically: temp file in the destination
// directory, fsync, rename.
func writeBlob(path string, blob []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".dbpack-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(blob); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// ReadFile loads and validates a pack file. The whole file is read into
// memory (a pack holds sequences the scan needs resident anyway;
// deliberately no mmap — the portability cost buys nothing for the
// sizes this repo models).
func ReadFile(path string) (*Pack, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	p, err := Decode(blob)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return p, nil
}

package blast

import (
	"fmt"
	"slices"

	"genomedsm/internal/bio"
)

// DBWordIndex is the database-side counterpart of WordIndex: every exact
// w-mer of every database record, sorted once at index time. Where
// WordIndex indexes one query and scans each record (one pass over the
// database per query), DBWordIndex indexes the records and scans the
// query (one pass over the query per query) — the shape a resident
// search service wants, and the part of prefilter seeding worth
// persisting in a pack file. Lookups yield the same kind of evidence as
// WordIndex.SeedScore: exact ungapped X-drop extension scores, each the
// score of a concrete local alignment and therefore a true lower bound
// on the record's Smith–Waterman score. The two sides enumerate seeds
// in different orders, so their bounds may differ — but any true lower
// bound preserves the pruning pipeline's exactness, so the hit set does
// not depend on which side seeded it.
type DBWordIndex struct {
	w    int
	recs []bio.Record
	// The index is three flat arrays — the shape a pack file stores, so
	// a loaded index is a set of views over the mapped bytes and opening
	// it allocates nothing per word: words holds the distinct words
	// strictly ascending, and the postings of words[i] are
	// flat[offs[i]:offs[i+1]], record ascending then position ascending.
	words []uint32
	offs  []uint32 // len(words)+1 prefix offsets into flat
	flat  []DBPosting
}

// lookup returns the posting list for word by binary search over the
// sorted word array.
func (ix *DBWordIndex) lookup(word uint32) []DBPosting {
	if i, ok := slices.BinarySearch(ix.words, word); ok {
		return ix.flat[ix.offs[i]:ix.offs[i+1]]
	}
	return nil
}

// DBPosting locates one indexed word occurrence: record index and
// 0-based start position within the record.
type DBPosting struct {
	Rec int32
	Pos int32
}

// NewDBWordIndex indexes every exact w-mer of every record. It returns
// nil when w is outside the supported [4,15] range; records shorter
// than one word simply contribute no postings. The records are kept by
// reference, not copied.
func NewDBWordIndex(db []bio.Record, w int) *DBWordIndex {
	if w < 4 || w > 15 {
		return nil
	}
	// Collect every occurrence in (record, position) order, keyed by
	// word in the high half and occurrence number in the low half:
	// sorting the keys groups postings by word and keeps each word's
	// postings in (record, position) order, the order Export promises.
	var keys []uint64
	var posts []DBPosting
	mask := uint32(1)<<(2*uint(w)) - 1
	for r, rec := range db {
		var word uint32
		valid := 0
		for i := 0; i < rec.Seq.Len(); i++ {
			code, ok := baseCode(rec.Seq[i])
			if !ok {
				valid, word = 0, 0
				continue
			}
			word = (word<<2 | code) & mask
			valid++
			if valid >= w {
				keys = append(keys, uint64(word)<<32|uint64(len(posts)))
				posts = append(posts, DBPosting{Rec: int32(r), Pos: int32(i - w + 1)})
			}
		}
	}
	slices.Sort(keys)
	ix := &DBWordIndex{w: w, recs: db, flat: make([]DBPosting, len(keys))}
	for i, k := range keys {
		ix.flat[i] = posts[uint32(k)]
		if word := uint32(k >> 32); i == 0 || word != ix.words[len(ix.words)-1] {
			ix.words = append(ix.words, word)
			ix.offs = append(ix.offs, uint32(i))
		}
	}
	ix.offs = append(ix.offs, uint32(len(keys)))
	return ix
}

// RestoreDBWordIndex rebuilds an index from its serialized arrays (the
// dbpack codecs store exactly Export's shape) without copying them: a
// pack opened by mmap hands in views over the mapped bytes. Every array
// is validated against the records so a malformed pack cannot make
// lookups panic or silently lose postings; the scores themselves stay
// true lower bounds for ANY posting content, because SeedScores extends
// seeds over the actual record bases — a wrong posting merely seeds a
// worse (but still real) ungapped alignment.
func RestoreDBWordIndex(db []bio.Record, w int, words, offs []uint32, flat []DBPosting) (*DBWordIndex, error) {
	if w < 4 || w > 15 {
		return nil, fmt.Errorf("blast: word size %d outside [4,15]", w)
	}
	if len(offs) != len(words)+1 {
		return nil, fmt.Errorf("blast: %d offsets for %d words, want %d", len(offs), len(words), len(words)+1)
	}
	if offs[0] != 0 {
		return nil, fmt.Errorf("blast: first posting offset %d, want 0", offs[0])
	}
	if int64(offs[len(words)]) != int64(len(flat)) {
		return nil, fmt.Errorf("blast: offsets cover %d postings of %d", offs[len(words)], len(flat))
	}
	max := uint32(1)<<(2*uint(w)) - 1
	for i, word := range words {
		if word > max {
			return nil, fmt.Errorf("blast: word %#x exceeds the %d-mer space", word, w)
		}
		if i > 0 && word <= words[i-1] {
			// Lookups binary-search the word array, so an unsorted table
			// would silently lose postings — reject it.
			return nil, fmt.Errorf("blast: word table not strictly ascending at entry %d", i)
		}
		if offs[i+1] < offs[i] {
			return nil, fmt.Errorf("blast: posting offsets descend at entry %d", i+1)
		}
	}
	for _, p := range flat {
		if p.Rec < 0 || int(p.Rec) >= len(db) {
			return nil, fmt.Errorf("blast: posting names record %d of %d", p.Rec, len(db))
		}
		if p.Pos < 0 || int(p.Pos)+w > db[p.Rec].Seq.Len() {
			return nil, fmt.Errorf("blast: posting at %d overruns record %d (len %d)", p.Pos, p.Rec, db[p.Rec].Seq.Len())
		}
	}
	return &DBWordIndex{w: w, recs: db, words: words, offs: offs, flat: flat}, nil
}

// Word returns the index's word size.
func (ix *DBWordIndex) Word() int { return ix.w }

// Records returns the number of indexed records.
func (ix *DBWordIndex) Records() int { return len(ix.recs) }

// Postings returns the count of indexed word occurrences.
func (ix *DBWordIndex) Postings() int { return len(ix.flat) }

// Export returns the index arrays in deterministic serialization order:
// the distinct words ascending, the len(words)+1 prefix offsets, and
// the flat postings (per word, record ascending then position
// ascending). The slices are the index's own; callers must not modify
// them.
func (ix *DBWordIndex) Export() (words, offs []uint32, flat []DBPosting) {
	return ix.words, ix.offs, ix.flat
}

// SeedScores returns, per record, an exact lower bound on the best
// local-alignment score of q against that record: the best ungapped
// X-drop extension over the exact words they share, or 0 when none.
// Extensions are deduplicated per (record, diagonal), mirroring
// WordIndex.SeedScore. xdrop ≤ 0 selects the DefaultOptions X-drop.
func (ix *DBWordIndex) SeedScores(q bio.Sequence, sc bio.Scoring, xdrop int) []int {
	best := make([]int, len(ix.recs))
	if ix == nil || q.Len() < ix.w {
		return best
	}
	if xdrop <= 0 {
		xdrop = DefaultOptions().XDrop
	}
	type diagKey struct {
		rec  int32
		diag int32
	}
	covered := make(map[diagKey]int) // (record, t0-s0) → t index covered up to
	mask := uint32(1)<<(2*uint(ix.w)) - 1
	var word uint32
	valid := 0
	for i := 0; i < q.Len(); i++ {
		code, ok := baseCode(q[i])
		if !ok {
			valid, word = 0, 0
			continue
		}
		word = (word<<2 | code) & mask
		valid++
		if valid < ix.w {
			continue
		}
		qStart := i - ix.w + 1
		for _, p := range ix.lookup(word) {
			key := diagKey{rec: p.Rec, diag: p.Pos - int32(qStart)}
			if covered[key] >= int(p.Pos)+ix.w {
				continue
			}
			h := extend(q, ix.recs[p.Rec].Seq, sc, qStart, int(p.Pos), ix.w, xdrop)
			covered[key] = h.t1
			if h.score > best[p.Rec] {
				best[p.Rec] = h.score
			}
		}
	}
	return best
}

package dbpack

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"unsafe"

	"genomedsm/internal/bio"
	"genomedsm/internal/blast"
	"genomedsm/internal/search"
)

// Pack format v2 — the zero-copy container (DESIGN.md §12).
//
// Where v1 is a varint value stream that must be decoded into heap
// objects record by record, v2 lays every array the scan needs out as
// raw little-endian bytes in page-aligned, individually-checksummed
// sections, so `dbpack.Open` can mmap the file and hand internal/search
// direct views: record sequences are subslices of the mapped seq
// section, and the precomputed lane-group layout (group word offsets +
// lane-interleaved code words, exactly the shape bio.PackedProfile is
// built from) is reinterpreted in place as []uint64. Load time becomes
// validate-header-and-map instead of decode-and-rebuild.
//
//	offset 0   magic "GDMPACK\x02"
//	       8   u32 version (=3: the flat word-index layout of decodeBlastV2)
//	      12   u32 section count
//	      16   u32 prefilter word size (0 = no blast section)
//	      20   u32 record count
//	      24   u64 total bases
//	      32   section table: count × {u32 kind, u32 zero, u64 off,
//	           u64 len, u64 FNV-1a} — offsets ascending, page-aligned
//	       …   u64 header FNV-1a (over every header byte before it)
//	       …   zero padding to the first page boundary, then the
//	           sections, each zero-padded to page alignment
//
// Integrity: the header checksum covers the section table, and each
// section carries its own FNV-1a, so a byte flip anywhere in described
// bytes is detected at Open (inter-section zero padding is the only
// undescribed region; flipping it cannot change what any view sees).
// Consistency: the scan order is revalidated against the canonical
// total order, the length table against the record views, the posting
// table against blast's restore checks, and the lane-group words are
// recomputed from the sequence views and compared — a forged-but-
// checksummed lane section is therefore detected and rebuilt in heap,
// never trusted: it can only slow a load, never corrupt a result.
const (
	magicV2       = "GDMPACK\x02"
	packVersionV2 = 3
	// pageAlign is the section alignment: a page, so mmap'd sections can
	// be reinterpreted as []uint64 (mmap bases are page-aligned) and
	// section starts never share a cache line with foreign bytes.
	pageAlign = 4096

	secMeta     = 1 // per record: uvarint-framed ID and description
	secSeqOff   = 2 // (n+1) × u64: record byte offsets into secSeq
	secSeq      = 3 // concatenated sequence bytes, record order
	secOrder    = 4 // n × u32: canonical scan order (rank → record)
	secLens     = 5 // n × u32: record lengths in scan-rank order
	secBlast    = 6 // prefilter word index (present iff word ≠ 0)
	secGroupOff = 7 // (ngroups+1) × u64: lane-group word offsets
	secLanes    = 8 // lane-interleaved code words, u64 each

	v2FixedHdr = 32
	v2SecHdr   = 32
	// maxSections bounds the table before it is trusted: v2 defines 8
	// section kinds and each may appear once.
	maxSections = 8
)

// LoadMode reports how a pack's bytes got into memory.
type LoadMode int

const (
	// LoadMemory marks a pack built in-process (Build), not loaded.
	LoadMemory LoadMode = iota
	// LoadMMap marks a v2 pack whose sections are mmap'd views.
	LoadMMap
	// LoadCopy marks a v2 pack read into one aligned buffer (mmap
	// unavailable or refused); views still point into that buffer.
	LoadCopy
	// LoadLegacyV1 marks a v1 pack decoded by the legacy path.
	LoadLegacyV1
)

func (m LoadMode) String() string {
	switch m {
	case LoadMMap:
		return "mmap"
	case LoadCopy:
		return "copy"
	case LoadLegacyV1:
		return "legacy-v1"
	default:
		return "memory"
	}
}

// Info describes how a pack was loaded — surfaced through /statsz.
type Info struct {
	// Mode is the load mode of the backing bytes.
	Mode LoadMode
	// Version is the pack format version of the source file (0 for an
	// in-process Build).
	Version int
	// MappedBytes is the size of the mmap'd region backing zero-copy
	// views (0 unless Mode is LoadMMap).
	MappedBytes int64
	// HeapBytes estimates the heap-resident side of the load: decoded
	// metadata, the word index, and — for legacy or copy loads — the
	// sequence/layout bytes themselves.
	HeapBytes int64
	// LayoutRebuilt reports that the stored lane-group section failed
	// semantic validation against the sequence bytes and was rebuilt in
	// heap (forged or stale derived data; the load slows, results
	// cannot change).
	LayoutRebuilt bool
	// Notice is a human-readable load remark, e.g. the legacy-v1
	// re-index suggestion.
	Notice string
}

// hostLittleEndian gates the zero-copy reinterpretation of mapped bytes
// as typed arrays: the file is little-endian, so on a big-endian host
// every view falls back to an allocating decode.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// viewOf reinterprets b as []T in place when the host is little-endian
// and b is aligned for T — the zero-copy path every mapped array takes —
// and otherwise decodes a copy, one element per unsafe.Sizeof(T) bytes,
// with dec. heap is the bytes the copy allocated (0 for a view).
func viewOf[T any](b []byte, dec func([]byte) T) (v []T, heap int64) {
	var zero T
	size := int(unsafe.Sizeof(zero))
	if len(b) == 0 {
		return nil, 0
	}
	if hostLittleEndian && uintptr(unsafe.Pointer(&b[0]))%unsafe.Alignof(zero) == 0 {
		return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), len(b)/size), 0
	}
	v = make([]T, len(b)/size)
	for i := range v {
		v[i] = dec(b[size*i:])
	}
	return v, int64(len(v) * size)
}

// decodePosting reads one little-endian {u32 rec, u32 pos} pair, the
// byte image of a blast.DBPosting.
func decodePosting(b []byte) blast.DBPosting {
	return blast.DBPosting{Rec: int32(binary.LittleEndian.Uint32(b)), Pos: int32(binary.LittleEndian.Uint32(b[4:]))}
}

// sum64 is the v2 integrity checksum: FNV-1a folded over 8-byte words
// instead of single bytes. One multiply per 8 bytes keeps validation
// off the cold-start critical path (a pack is checksummed end to end on
// every Open); the mixing is the same xor-then-multiply as byte FNV,
// ample for corruption detection, which is all the format asks of it —
// forgery resistance comes from semantic revalidation, not the hash.
func sum64(b []byte) uint64 {
	const prime = 0x100000001b3
	h := uint64(0xcbf29ce484222325)
	for len(b) >= 8 {
		h = (h ^ binary.LittleEndian.Uint64(b)) * prime
		b = b[8:]
	}
	for _, c := range b {
		h = (h ^ uint64(c)) * prime
	}
	return h
}

type v2Section struct {
	kind uint32
	off  uint64
	len  uint64
	sum  uint64
}

// EncodeV2 serializes the pack in format v2. The blob is deterministic
// for the same records, word size and layout (pinned by the golden
// test). The DB's lane-group layout is computed here when missing —
// index time is exactly where that cost belongs.
func EncodeV2(p *Pack) ([]byte, error) {
	recs := p.DB.Records()
	order := p.DB.Order()
	lay := p.DB.EnsureLayout()

	var meta, seqoff, seq, ordb, lensb, blastb, groupoff, lanes []byte
	for _, r := range recs {
		meta = binary.AppendUvarint(meta, uint64(len(r.ID)))
		meta = append(meta, r.ID...)
		meta = binary.AppendUvarint(meta, uint64(len(r.Description)))
		meta = append(meta, r.Description...)
	}
	var off uint64
	for _, r := range recs {
		seqoff = binary.LittleEndian.AppendUint64(seqoff, off)
		seq = append(seq, r.Seq...)
		off += uint64(len(r.Seq))
	}
	seqoff = binary.LittleEndian.AppendUint64(seqoff, off)
	for _, idx := range order {
		ordb = binary.LittleEndian.AppendUint32(ordb, uint32(idx))
		lensb = binary.LittleEndian.AppendUint32(lensb, uint32(len(recs[idx].Seq)))
	}
	if p.Word != 0 {
		ix := p.DB.WordIndex()
		if ix == nil {
			return nil, fmt.Errorf("dbpack: word size %d set but no index attached", p.Word)
		}
		words, offs, flat := ix.Export()
		blastb = binary.LittleEndian.AppendUint32(blastb, uint32(len(words)))
		for _, word := range words {
			blastb = binary.LittleEndian.AppendUint32(blastb, word)
		}
		for _, o := range offs {
			blastb = binary.LittleEndian.AppendUint32(blastb, o)
		}
		for _, pt := range flat {
			blastb = binary.LittleEndian.AppendUint32(blastb, uint32(pt.Rec))
			blastb = binary.LittleEndian.AppendUint32(blastb, uint32(pt.Pos))
		}
	}
	for _, o := range lay.Offsets() {
		groupoff = binary.LittleEndian.AppendUint64(groupoff, uint64(o))
	}
	for _, w := range lay.Words() {
		lanes = binary.LittleEndian.AppendUint64(lanes, w)
	}

	type blob struct {
		kind uint32
		data []byte
	}
	blobs := []blob{
		{secMeta, meta}, {secSeqOff, seqoff}, {secSeq, seq},
		{secOrder, ordb}, {secLens, lensb},
	}
	if p.Word != 0 {
		blobs = append(blobs, blob{secBlast, blastb})
	}
	blobs = append(blobs, blob{secGroupOff, groupoff}, blob{secLanes, lanes})

	hdrLen := v2FixedHdr + len(blobs)*v2SecHdr + 8
	pos := uint64(alignUp(hdrLen))
	out := make([]byte, 0, int(pos)+len(seq)+len(lanes)+pageAlign*len(blobs))
	out = append(out, magicV2...)
	out = binary.LittleEndian.AppendUint32(out, packVersionV2)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(blobs)))
	out = binary.LittleEndian.AppendUint32(out, uint32(p.Word))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(recs)))
	out = binary.LittleEndian.AppendUint64(out, uint64(p.DB.TotalBases()))
	for _, b := range blobs {
		out = binary.LittleEndian.AppendUint32(out, b.kind)
		out = binary.LittleEndian.AppendUint32(out, 0)
		out = binary.LittleEndian.AppendUint64(out, pos)
		out = binary.LittleEndian.AppendUint64(out, uint64(len(b.data)))
		out = binary.LittleEndian.AppendUint64(out, sum64(b.data))
		pos = uint64(alignUp(int(pos) + len(b.data)))
	}
	out = binary.LittleEndian.AppendUint64(out, sum64(out))
	for _, b := range blobs {
		out = append(out, make([]byte, alignUp(len(out))-len(out))...)
		out = append(out, b.data...)
	}
	return out, nil
}

func alignUp(n int) int { return (n + pageAlign - 1) &^ (pageAlign - 1) }

// decodeV2 parses and validates a v2 blob whose magic has already been
// checked. data must be 8-aligned (an mmap'd region or readAligned
// buffer); the returned pack's sequences and lane layout are views into
// it wherever the host allows, so data must stay alive — and unwritten
// — until the pack is discarded.
func decodeV2(data []byte, info Info) (*Pack, error) {
	if len(data) < v2FixedHdr+8 {
		return nil, fmt.Errorf("dbpack: truncated v2 header (%d bytes)", len(data))
	}
	if v := binary.LittleEndian.Uint32(data[8:]); v < packVersionV2 {
		return nil, fmt.Errorf("dbpack: pack format version %d is older than %d; re-run `genomedsm index` to rebuild it", v, packVersionV2)
	} else if v != packVersionV2 {
		return nil, fmt.Errorf("dbpack: pack format version %d, want %d", v, packVersionV2)
	}
	ns := int(binary.LittleEndian.Uint32(data[12:]))
	word := int(binary.LittleEndian.Uint32(data[16:]))
	n := int(binary.LittleEndian.Uint32(data[20:]))
	total := binary.LittleEndian.Uint64(data[24:])
	if ns <= 0 || ns > maxSections {
		return nil, fmt.Errorf("dbpack: implausible section count %d", ns)
	}
	hdrLen := v2FixedHdr + ns*v2SecHdr
	if len(data) < hdrLen+8 {
		return nil, fmt.Errorf("dbpack: truncated section table")
	}
	if got, want := sum64(data[:hdrLen]), binary.LittleEndian.Uint64(data[hdrLen:]); got != want {
		return nil, fmt.Errorf("dbpack: header checksum mismatch")
	}
	secs := map[uint32][]byte{}
	for i := 0; i < ns; i++ {
		hdr := data[v2FixedHdr+i*v2SecHdr:]
		s := v2Section{
			kind: binary.LittleEndian.Uint32(hdr),
			off:  binary.LittleEndian.Uint64(hdr[8:]),
			len:  binary.LittleEndian.Uint64(hdr[16:]),
			sum:  binary.LittleEndian.Uint64(hdr[24:]),
		}
		if s.kind < secMeta || s.kind > secLanes {
			return nil, fmt.Errorf("dbpack: unknown section kind %d", s.kind)
		}
		if _, dup := secs[s.kind]; dup {
			return nil, fmt.Errorf("dbpack: duplicate section kind %d", s.kind)
		}
		if s.off%pageAlign != 0 {
			return nil, fmt.Errorf("dbpack: section %d misaligned at offset %d (need %d-byte alignment)", s.kind, s.off, pageAlign)
		}
		if s.off > uint64(len(data)) || s.len > uint64(len(data))-s.off {
			return nil, fmt.Errorf("dbpack: section %d [%d,+%d) beyond %d-byte pack (truncated?)", s.kind, s.off, s.len, len(data))
		}
		b := data[s.off : s.off+s.len]
		if sum64(b) != s.sum {
			return nil, fmt.Errorf("dbpack: section %d checksum mismatch", s.kind)
		}
		secs[s.kind] = b
	}
	for _, kind := range []uint32{secMeta, secSeqOff, secSeq, secOrder, secLens, secGroupOff, secLanes} {
		if _, ok := secs[kind]; !ok {
			return nil, fmt.Errorf("dbpack: missing section kind %d", kind)
		}
	}

	// Records: sequence bytes are views into the seq section; only the
	// ID/description strings are decoded to heap.
	seqoffB, seqB := secs[secSeqOff], secs[secSeq]
	if len(seqoffB) != 8*(n+1) {
		return nil, fmt.Errorf("dbpack: seq offset table holds %d bytes for %d records", len(seqoffB), n)
	}
	seqoff, _ := viewOf(seqoffB, binary.LittleEndian.Uint64)
	if seqoff[0] != 0 || seqoff[n] != uint64(len(seqB)) {
		return nil, fmt.Errorf("dbpack: seq offsets cover [%d,%d) of %d sequence bytes", seqoff[0], seqoff[n], len(seqB))
	}
	recs := make([]bio.Record, n)
	meta := secs[secMeta]
	var heapBytes int64
	for i := range recs {
		id, rest, err := uvarintBytes(meta)
		if err != nil {
			return nil, fmt.Errorf("dbpack: record %d metadata: %w", i, err)
		}
		desc, rest, err := uvarintBytes(rest)
		if err != nil {
			return nil, fmt.Errorf("dbpack: record %d metadata: %w", i, err)
		}
		meta = rest
		if seqoff[i+1] < seqoff[i] || seqoff[i+1] > uint64(len(seqB)) {
			return nil, fmt.Errorf("dbpack: seq offsets invalid at record %d", i)
		}
		recs[i] = bio.Record{
			ID:          string(id),
			Description: string(desc),
			Seq:         bio.Sequence(seqB[seqoff[i]:seqoff[i+1]]),
		}
		heapBytes += int64(len(id) + len(desc))
	}
	if len(meta) != 0 {
		return nil, fmt.Errorf("dbpack: %d trailing metadata bytes", len(meta))
	}

	ordB, lensB := secs[secOrder], secs[secLens]
	if len(ordB) != 4*n || len(lensB) != 4*n {
		return nil, fmt.Errorf("dbpack: order/length tables hold %d/%d bytes for %d records", len(ordB), len(lensB), n)
	}
	order := make([]int, n)
	for i := range order {
		order[i] = int(binary.LittleEndian.Uint32(ordB[4*i:]))
		if order[i] >= n {
			return nil, fmt.Errorf("dbpack: order rank %d names record %d of %d", i, order[i], n)
		}
	}
	db, err := search.PreparedDB(recs, order)
	if err != nil {
		return nil, fmt.Errorf("dbpack: %w", err)
	}
	if db.TotalBases() != int64(total) {
		return nil, fmt.Errorf("dbpack: header claims %d total bases, records hold %d", total, db.TotalBases())
	}
	for i, idx := range order {
		if int(binary.LittleEndian.Uint32(lensB[4*i:])) != len(recs[idx].Seq) {
			return nil, fmt.Errorf("dbpack: length table disagrees with record %d", idx)
		}
	}
	heapBytes += int64(n) * int64(unsafe.Sizeof(bio.Record{}))

	p := &Pack{DB: db, Word: word, Info: info}
	if word != 0 {
		ix, hb, err := decodeBlastV2(secs[secBlast], recs, word)
		if err != nil {
			return nil, err
		}
		db.SetWordIndex(ix)
		heapBytes += hb
	} else if len(secs[secBlast]) != 0 {
		return nil, fmt.Errorf("dbpack: blast section present but word size is 0")
	}

	// Lane-group layout: reinterpret the mapped words in place, then
	// prove them consistent with the sequence bytes. Derived data never
	// gets the benefit of the doubt: a section that passes its checksum
	// but disagrees with the records (a forged or stale layout) is
	// rebuilt from the records — the load slows, the results cannot
	// change.
	goffB, lanesB := secs[secGroupOff], secs[secLanes]
	lay, lerr := layoutFromSections(goffB, lanesB)
	if lerr == nil {
		lerr = lay.Validate(db)
	}
	if lerr == nil {
		lerr = db.SetLayout(lay)
	}
	if lerr != nil {
		db.EnsureLayout()
		p.Info.LayoutRebuilt = true
		p.Info.Notice = fmt.Sprintf("lane layout rebuilt: %v", lerr)
		heapBytes += db.Layout().Bytes()
	} else if !lay.IsView() {
		heapBytes += lay.Bytes()
	}
	if p.Info.Mode == LoadCopy {
		heapBytes += int64(len(data))
	}
	p.Info.HeapBytes = heapBytes
	return p, nil
}

// layoutFromSections builds the layout view over the group-offset and
// lane-word sections, decoding copies on hosts that cannot view them.
func layoutFromSections(goffB, lanesB []byte) (*search.Layout, error) {
	if len(goffB)%8 != 0 || len(lanesB)%8 != 0 {
		return nil, fmt.Errorf("dbpack: layout sections hold %d/%d bytes, want multiples of 8", len(goffB), len(lanesB))
	}
	words, _ := viewOf(lanesB, binary.LittleEndian.Uint64)
	goff, _ := viewOf(goffB, binary.LittleEndian.Uint64)
	offs := make([]int64, len(goff))
	for i, o := range goff {
		if o > uint64(len(words)) {
			return nil, fmt.Errorf("dbpack: group offset %d beyond %d layout words", o, len(words))
		}
		offs[i] = int64(o)
	}
	return search.NewLayoutView(offs, words)
}

// decodeBlastV2 restores the word index from its section:
//
//	u32 nw, nw × u32 words (ascending), (nw+1) × u32 prefix offsets,
//	offs[nw] × {u32 rec, u32 pos}
//
// The postings start 8·(nw+1) bytes in, so they stay 8-aligned in a
// page-aligned section. On a little-endian host all three arrays are
// views into b — nothing is allocated per word or per posting — and the
// index's heap share is 0; the decode fallback reports the bytes it
// allocated.
func decodeBlastV2(b []byte, recs []bio.Record, word int) (*blast.DBWordIndex, int64, error) {
	if len(b) < 8 {
		return nil, 0, fmt.Errorf("dbpack: blast section too short")
	}
	nw := uint64(binary.LittleEndian.Uint32(b))
	if uint64(len(b)) < 8+8*nw {
		return nil, 0, fmt.Errorf("dbpack: blast section holds %d bytes for %d words", len(b), nw)
	}
	tail := uint64(len(b)) - (8 + 8*nw)
	if tail%8 != 0 {
		return nil, 0, fmt.Errorf("dbpack: blast posting table holds %d bytes, want a multiple of 8", tail)
	}
	words, hw := viewOf(b[4:4+4*nw], binary.LittleEndian.Uint32)
	offs, ho := viewOf(b[4+4*nw:8+8*nw], binary.LittleEndian.Uint32)
	flat, hp := viewOf(b[8+8*nw:], decodePosting)
	ix, err := blast.RestoreDBWordIndex(recs, word, words, offs, flat)
	if err != nil {
		return nil, 0, fmt.Errorf("dbpack: %w", err)
	}
	return ix, hw + ho + hp, nil
}

func uvarintBytes(b []byte) ([]byte, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return nil, nil, fmt.Errorf("bad uvarint frame")
	}
	b = b[n:]
	if v > uint64(len(b)) {
		return nil, nil, fmt.Errorf("frame of %d bytes in %d remaining", v, len(b))
	}
	return b[:v], b[v:], nil
}

// readAligned reads the whole file into an 8-aligned heap buffer, so
// the same zero-copy views work in LoadCopy mode as under mmap.
func readAligned(f *os.File, size int64) ([]byte, error) {
	buf := make([]uint64, (size+7)/8)
	if len(buf) == 0 {
		return nil, fmt.Errorf("dbpack: empty pack file")
	}
	b := unsafe.Slice((*byte)(unsafe.Pointer(&buf[0])), size)
	if _, err := io.ReadFull(f, b); err != nil {
		return nil, err
	}
	return b, nil
}

// WriteFileV2 writes the pack atomically in format v2 (temp file,
// fsync, rename — same discipline as WriteFile).
func WriteFileV2(path string, p *Pack) error {
	blob, err := EncodeV2(p)
	if err != nil {
		return err
	}
	return writeBlob(path, blob)
}

// Open loads a pack file in whichever format it carries: a v2 pack is
// mmap'd (falling back to one aligned read when the platform refuses)
// and validated section by section; a v1 pack goes through the legacy
// decoder with a re-index notice, and gets its lane layout built in
// heap so both generations scan through the same fast path. Close the
// returned pack when done — and never after handing its DB to a scan
// still running — to release the mapping.
func Open(path string) (*Pack, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var head [8]byte
	if _, err := io.ReadFull(f, head[:]); err != nil {
		return nil, fmt.Errorf("%s: dbpack: not a database pack (%v)", path, err)
	}
	switch string(head[:]) {
	case magic: // v1
		p, err := ReadFile(path)
		if err != nil {
			return nil, err
		}
		p.DB.EnsureLayout()
		p.Info = Info{
			Mode:      LoadLegacyV1,
			Version:   1,
			HeapBytes: p.DB.TotalBases() + p.DB.Layout().Bytes(),
			Notice:    "legacy v1 pack: re-index to v2 for zero-copy mmap loading",
		}
		return p, nil
	case magicV2:
		st, err := f.Stat()
		if err != nil {
			return nil, err
		}
		size := st.Size()
		info := Info{Mode: LoadMMap, Version: packVersionV2, MappedBytes: size}
		data, closer, merr := mmapFile(f, size)
		if merr != nil {
			info = Info{Mode: LoadCopy, Version: packVersionV2}
			if _, err := f.Seek(0, io.SeekStart); err != nil {
				return nil, err
			}
			if data, err = readAligned(f, size); err != nil {
				return nil, fmt.Errorf("%s: %w", path, err)
			}
			closer = nil
		}
		p, err := decodeV2(data, info)
		if err != nil {
			if closer != nil {
				closer()
			}
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		p.close = closer
		return p, nil
	default:
		return nil, fmt.Errorf("%s: dbpack: not a database pack (bad magic)", path)
	}
}

// Close releases the pack's mapped region, if any. The pack's DB — its
// sequences and lane layout — must not be used afterwards.
func (p *Pack) Close() error {
	if p.close == nil {
		return nil
	}
	c := p.close
	p.close = nil
	return c()
}

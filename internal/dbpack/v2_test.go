package dbpack

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"genomedsm/internal/bio"
	"genomedsm/internal/dispatch"
	"genomedsm/internal/search"
	"genomedsm/internal/shard"
)

// inter16Router pins every lane group to the int16 route: two 4-lane
// word-passes per 8-record group.
func inter16Router() *dispatch.Router {
	r := dispatch.New(dispatch.ModeAuto, nil)
	r.ForceGroup = func(int, []int) (dispatch.GroupRoute, bool) { return dispatch.GroupInter16, true }
	return r
}

// alignedCopy copies blob into an 8-aligned buffer — the alignment
// guarantee mmap and readAligned provide — so tests can call decodeV2
// on crafted bytes directly.
func alignedCopy(blob []byte) []byte {
	buf := make([]uint64, (len(blob)+7)/8+1)
	b := unsafe.Slice((*byte)(unsafe.Pointer(&buf[0])), len(blob))
	copy(b, blob)
	return b
}

// parseV2Table reads the section table out of a valid v2 blob.
func parseV2Table(t *testing.T, blob []byte) []v2Section {
	t.Helper()
	ns := int(binary.LittleEndian.Uint32(blob[12:]))
	secs := make([]v2Section, ns)
	for i := range secs {
		hdr := blob[v2FixedHdr+i*v2SecHdr:]
		secs[i] = v2Section{
			kind: binary.LittleEndian.Uint32(hdr),
			off:  binary.LittleEndian.Uint64(hdr[8:]),
			len:  binary.LittleEndian.Uint64(hdr[16:]),
			sum:  binary.LittleEndian.Uint64(hdr[24:]),
		}
	}
	return secs
}

// refixV2 recomputes every section checksum and the header checksum in
// place — how a forger with full file access would cover their tracks.
// Used to prove that semantic validation, not just checksums, guards
// derived data.
func refixV2(blob []byte) []byte {
	ns := int(binary.LittleEndian.Uint32(blob[12:]))
	for i := 0; i < ns; i++ {
		hdr := blob[v2FixedHdr+i*v2SecHdr:]
		off := binary.LittleEndian.Uint64(hdr[8:])
		slen := binary.LittleEndian.Uint64(hdr[16:])
		binary.LittleEndian.PutUint64(hdr[24:], sum64(blob[off:off+slen]))
	}
	hdrLen := v2FixedHdr + ns*v2SecHdr
	binary.LittleEndian.PutUint64(blob[hdrLen:], sum64(blob[:hdrLen]))
	return blob
}

// blastSection returns the byte offset of the blast section in a valid
// v2 blob, and blastWords its word count.
func blastSection(b []byte) int {
	ns := int(binary.LittleEndian.Uint32(b[12:]))
	for i := 0; i < ns; i++ {
		hdr := b[v2FixedHdr+i*v2SecHdr:]
		if binary.LittleEndian.Uint32(hdr) == secBlast {
			return int(binary.LittleEndian.Uint64(hdr[8:]))
		}
	}
	panic("no blast section")
}

func blastWords(b []byte) int { return int(binary.LittleEndian.Uint32(b[blastSection(b):])) }

// blastOffs returns the byte offset of offs[i] in the blast section.
func blastOffs(b []byte, i int) int { return blastSection(b) + 4 + 4*blastWords(b) + 4*i }

// blastPostings returns the byte offset of the first posting.
func blastPostings(b []byte) int { return blastSection(b) + 8 + 8*blastWords(b) }

func encodeV2T(t *testing.T, word int) []byte {
	t.Helper()
	p, err := Build(testRecords(), word)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := EncodeV2(p)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

func TestV2RoundTrip(t *testing.T) {
	for _, word := range []int{0, 4, 11} {
		p, err := Build(testRecords(), word)
		if err != nil {
			t.Fatalf("Build(word=%d): %v", word, err)
		}
		path := filepath.Join(t.TempDir(), "db.pack")
		if err := WriteFileV2(path, p); err != nil {
			t.Fatalf("WriteFileV2(word=%d): %v", word, err)
		}
		got, err := Open(path)
		if err != nil {
			t.Fatalf("Open(word=%d): %v", word, err)
		}
		if got.Word != word {
			t.Errorf("word %d round-tripped to %d", word, got.Word)
		}
		if got.Info.Version != packVersionV2 {
			t.Errorf("Info.Version = %d, want %d", got.Info.Version, packVersionV2)
		}
		if runtime.GOOS == "linux" && got.Info.Mode != LoadMMap {
			t.Errorf("Info.Mode = %v, want mmap on linux", got.Info.Mode)
		}
		if got.Info.Mode == LoadMMap && got.Info.MappedBytes == 0 {
			t.Error("mmap load reports 0 mapped bytes")
		}
		if got.Info.LayoutRebuilt {
			t.Errorf("clean pack reports rebuilt layout: %s", got.Info.Notice)
		}
		want := testRecords()
		recs := got.DB.Records()
		if len(recs) != len(want) {
			t.Fatalf("got %d records, want %d", len(recs), len(want))
		}
		for i := range want {
			if recs[i].ID != want[i].ID || recs[i].Description != want[i].Description ||
				!bytes.Equal(recs[i].Seq, want[i].Seq) {
				t.Errorf("record %d round-tripped to %+v", i, recs[i])
			}
		}
		if (got.DB.WordIndex() != nil) != (word != 0) {
			t.Errorf("word=%d: index presence wrong", word)
		}
		lay := got.DB.Layout()
		if lay == nil {
			t.Fatalf("word=%d: no lane layout after Open", word)
		}
		if hostLittleEndian && !lay.IsView() {
			t.Errorf("word=%d: layout copied on a little-endian host", word)
		}
		if err := lay.Validate(got.DB); err != nil {
			t.Errorf("word=%d: loaded layout fails validation: %v", word, err)
		}
		if err := got.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
		if err := got.Close(); err != nil {
			t.Errorf("second Close: %v", err)
		}
	}
}

// Golden pins for the v2 wire format: the full blob is dozens of KB of
// mostly page padding, so the header (which transitively covers every
// section via its checksums) is pinned as hex, and the whole blob by
// length + FNV-1a. If an intentional format change trips this, bump
// packVersionV2 and re-pin.
const (
	goldenV2HeaderHex = "47444d5041434b02030000000800000004000000050000005100000000000000" +
		"010000000000000000100000000000002f0000000000000016ad4f85406b1274" +
		"0200000000000000002000000000000030000000000000001e86001c48d59308" +
		"030000000000000000300000000000005100000000000000ebdfed02cf81de98" +
		"0400000000000000004000000000000014000000000000007bd1411e87ac06f2" +
		"0500000000000000005000000000000014000000000000001204c04187e0a778" +
		"0600000000000000006000000000000090020000000000006f8df0560a9c7f49" +
		"0700000000000000007000000000000010000000000000005940ebb4076c3208" +
		"08000000000000000080000000000000e000000000000000598d000667b99be5"
	goldenV2BlobLen = 32992
	goldenV2BlobFNV = uint64(0x7fbf74693c206465)
)

func TestV2GoldenHeader(t *testing.T) {
	blob := encodeV2T(t, 4)
	ns := int(binary.LittleEndian.Uint32(blob[12:]))
	hdrLen := v2FixedHdr + ns*v2SecHdr
	got := fmt.Sprintf("%x", blob[:hdrLen])
	if got != goldenV2HeaderHex {
		t.Errorf("v2 header changed:\n got %s\nwant %s\n(intentional? bump packVersionV2 and re-pin)", got, goldenV2HeaderHex)
	}
	if len(blob) != goldenV2BlobLen || sum64(blob) != goldenV2BlobFNV {
		t.Errorf("v2 blob changed: len %d fnv %#x, want len %d fnv %#x\n(intentional? bump packVersionV2 and re-pin)",
			len(blob), sum64(blob), goldenV2BlobLen, goldenV2BlobFNV)
	}
	if _, err := decodeV2(alignedCopy(blob), Info{}); err != nil {
		t.Fatalf("golden blob does not decode: %v", err)
	}
}

func TestV2DecodeRejects(t *testing.T) {
	base := encodeV2T(t, 4)
	secOf := func(kind uint32) v2Section {
		for _, s := range parseV2Table(t, base) {
			if s.kind == kind {
				return s
			}
		}
		t.Fatalf("no section kind %d", kind)
		return v2Section{}
	}
	for _, tc := range []struct {
		name string
		mut  func(b []byte) []byte
	}{
		{"truncated header", func(b []byte) []byte { return b[:16] }},
		{"truncated table", func(b []byte) []byte { return b[:v2FixedHdr+8] }},
		{"truncated sections", func(b []byte) []byte { return b[:pageAlign] }},
		{"bad version", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[8:], packVersionV2+1)
			return b
		}},
		{"zero sections", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[12:], 0)
			return b
		}},
		{"section count over cap", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[12:], maxSections+1)
			return b
		}},
		{"header flip without refix", func(b []byte) []byte {
			b[v2FixedHdr+16] ^= 0x40
			return b
		}},
		{"section flip without refix", func(b []byte) []byte {
			s := secOf(secMeta)
			b[s.off] ^= 0x01
			return b
		}},
		{"misaligned section", func(b []byte) []byte {
			// Shift a section's recorded offset off the page boundary and
			// re-seal the header: alignment is checked before checksums.
			binary.LittleEndian.PutUint64(b[v2FixedHdr+8:], secOf(secMeta).off+8)
			hdrLen := v2FixedHdr + 8*v2SecHdr
			binary.LittleEndian.PutUint64(b[hdrLen:], sum64(b[:hdrLen]))
			return b
		}},
		{"section beyond EOF", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[v2FixedHdr+16:], uint64(len(b)))
			hdrLen := v2FixedHdr + 8*v2SecHdr
			binary.LittleEndian.PutUint64(b[hdrLen:], sum64(b[:hdrLen]))
			return b
		}},
		{"duplicate section kind", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[v2FixedHdr+v2SecHdr:], secMeta)
			hdrLen := v2FixedHdr + 8*v2SecHdr
			binary.LittleEndian.PutUint64(b[hdrLen:], sum64(b[:hdrLen]))
			return b
		}},
		{"unknown section kind", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[v2FixedHdr:], 99)
			hdrLen := v2FixedHdr + 8*v2SecHdr
			binary.LittleEndian.PutUint64(b[hdrLen:], sum64(b[:hdrLen]))
			return b
		}},
		{"missing section", func(b []byte) []byte {
			// Drop the last table entry: the shorter table must re-seal at
			// its new end, and decode must notice the absent kind.
			binary.LittleEndian.PutUint32(b[12:], 7)
			hdrLen := v2FixedHdr + 8*v2SecHdr
			binary.LittleEndian.PutUint64(b[hdrLen:], sum64(b[:hdrLen]))
			return b
		}},
		{"record count lie", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[20:], 6)
			return refixV2(b)
		}},
		{"total bases lie", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[24:], binary.LittleEndian.Uint64(b[24:])+1)
			return refixV2(b)
		}},
		{"seq offset overflow", func(b []byte) []byte {
			s := secOf(secSeqOff)
			binary.LittleEndian.PutUint64(b[s.off+8:], 1<<40)
			return refixV2(b)
		}},
		{"seq offsets decrease", func(b []byte) []byte {
			s := secOf(secSeqOff)
			binary.LittleEndian.PutUint64(b[s.off+16:], 0)
			binary.LittleEndian.PutUint64(b[s.off+8:], 5)
			return refixV2(b)
		}},
		{"order rank out of range", func(b []byte) []byte {
			s := secOf(secOrder)
			binary.LittleEndian.PutUint32(b[s.off:], 99)
			return refixV2(b)
		}},
		{"length table lie", func(b []byte) []byte {
			s := secOf(secLens)
			binary.LittleEndian.PutUint32(b[s.off:], binary.LittleEndian.Uint32(b[s.off:])+1)
			return refixV2(b)
		}},
		{"blast words unsorted", func(b []byte) []byte {
			s := secOf(secBlast)
			copy(b[s.off+4:s.off+8], b[s.off+8:s.off+12]) // words[0] = words[1]
			return refixV2(b)
		}},
		{"blast word beyond the k-mer space", func(b []byte) []byte {
			s := secOf(secBlast)
			binary.LittleEndian.PutUint32(b[s.off+4:], ^uint32(0)>>1)
			return refixV2(b)
		}},
		{"blast first offset nonzero", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[blastOffs(b, 0):], 1)
			return refixV2(b)
		}},
		{"blast offsets descend", func(b []byte) []byte {
			// offs[1] jumps to the posting count, so offs[2] < offs[1].
			last := binary.LittleEndian.Uint32(b[blastOffs(b, blastWords(b)):])
			binary.LittleEndian.PutUint32(b[blastOffs(b, 1):], last)
			return refixV2(b)
		}},
		{"blast offsets miscount postings", func(b []byte) []byte {
			at := blastOffs(b, blastWords(b))
			binary.LittleEndian.PutUint32(b[at:], binary.LittleEndian.Uint32(b[at:])-1)
			return refixV2(b)
		}},
		{"blast offset table truncated", func(b []byte) []byte {
			// Cut the section inside its offset table.
			for i := range parseV2Table(t, b) {
				hdr := b[v2FixedHdr+i*v2SecHdr:]
				if binary.LittleEndian.Uint32(hdr) == secBlast {
					binary.LittleEndian.PutUint64(hdr[16:], uint64(4+4*blastWords(b)+8))
				}
			}
			return refixV2(b)
		}},
		{"blast posting names a missing record", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[blastPostings(b):], 99)
			return refixV2(b)
		}},
		{"blast posting overruns its record", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[blastPostings(b)+4:], 1<<20)
			return refixV2(b)
		}},
	} {
		blob := tc.mut(append([]byte(nil), base...))
		if _, err := decodeV2(alignedCopy(blob), Info{}); err == nil {
			t.Errorf("%s: decodeV2 accepted the mutant", tc.name)
		}
	}
	// The version-2 blast section was a {word, count} table: a re-sealed
	// version-2 header must be refused, never decoded under the flat
	// layout, and the error must say how to rebuild the pack.
	stale := append([]byte(nil), base...)
	binary.LittleEndian.PutUint32(stale[8:], 2)
	if _, err := decodeV2(alignedCopy(refixV2(stale)), Info{}); err == nil || !strings.Contains(err.Error(), "genomedsm index") {
		t.Errorf("stale version-2 pack: err = %v, want a re-index error", err)
	}
}

// TestV2ForgedLayoutSection proves the derived-data trust model: a
// lane-group section that passes its checksum (the forger re-sealed the
// file) but disagrees with the sequence bytes is detected by semantic
// validation and rebuilt in heap — the load slows, results cannot
// change.
func TestV2ForgedLayoutSection(t *testing.T) {
	for _, tc := range []struct {
		name string
		kind uint32
		mut  func(b []byte, s v2Section)
	}{
		{"forged lane words", secLanes, func(b []byte, s v2Section) { b[s.off] ^= 0x03 }},
		{"forged group offsets", secGroupOff, func(b []byte, s v2Section) {
			binary.LittleEndian.PutUint64(b[s.off+8:], 0)
		}},
	} {
		blob := encodeV2T(t, 4)
		for _, s := range parseV2Table(t, blob) {
			if s.kind == tc.kind {
				tc.mut(blob, s)
			}
		}
		refixV2(blob)
		path := filepath.Join(t.TempDir(), "forged.pack")
		if err := writeBlob(path, blob); err != nil {
			t.Fatal(err)
		}
		p, err := Open(path)
		if err != nil {
			t.Fatalf("%s: Open rejected a re-sealed pack: %v", tc.name, err)
		}
		if !p.Info.LayoutRebuilt {
			t.Fatalf("%s: forged layout was trusted (Notice=%q)", tc.name, p.Info.Notice)
		}
		lay := p.DB.Layout()
		if lay == nil || lay.IsView() {
			t.Fatalf("%s: rebuilt layout should live in heap", tc.name)
		}
		if err := lay.Validate(p.DB); err != nil {
			t.Fatalf("%s: rebuilt layout invalid: %v", tc.name, err)
		}
		q := bio.Sequence("ACGTACGTACGTACGT")
		got, err := search.RunCtx(context.Background(), q, p.DB, search.Options{Dispatch: "fixed"})
		if err != nil {
			t.Fatal(err)
		}
		want, err := search.Run(q, testRecords(), search.Options{Dispatch: "fixed"})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Hits, want.Hits) {
			t.Errorf("%s: hits diverged after rebuild:\n got %+v\nwant %+v", tc.name, got.Hits, want.Hits)
		}
		p.Close()
	}
}

// TestOpenLegacyV1 pins the compatibility path: a v1 pack still loads —
// through the legacy decoder, with the layout built in heap and a
// re-index notice — and scans identically.
func TestOpenLegacyV1(t *testing.T) {
	p, err := Build(testRecords(), 4)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "v1.pack")
	if err := WriteFile(path, p); err != nil {
		t.Fatal(err)
	}
	got, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer got.Close()
	if got.Info.Mode != LoadLegacyV1 || got.Info.Version != 1 {
		t.Errorf("Info = %+v, want legacy-v1 version 1", got.Info)
	}
	if got.Info.Notice == "" {
		t.Error("legacy load carries no re-index notice")
	}
	lay := got.DB.Layout()
	if lay == nil {
		t.Fatal("legacy load built no lane layout")
	}
	if lay.IsView() {
		t.Error("legacy layout claims to be a view")
	}
	if got.DB.WordIndex() == nil {
		t.Error("legacy load dropped the word index")
	}
	q := bio.Sequence("ACGTACGTACGT")
	a, err := search.RunCtx(context.Background(), q, got.DB, search.Options{Dispatch: "fixed"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := search.Run(q, testRecords(), search.Options{Dispatch: "fixed"})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Hits, b.Hits) {
		t.Errorf("legacy pack hits diverged:\n got %+v\nwant %+v", a.Hits, b.Hits)
	}
}

// openCost opens path runs times and reports the per-open allocation
// count and bytes, plus the last open's Info.
func openCost(t *testing.T, path string, runs int) (allocs, bytes float64, info Info) {
	t.Helper()
	open := func() {
		p, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		info = p.Info
		p.Close()
	}
	allocs = testing.AllocsPerRun(runs, open)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		open()
	}
	runtime.ReadMemStats(&m1)
	return allocs, float64(m1.TotalAlloc-m0.TotalAlloc) / float64(runs), info
}

// TestV2OpenCostIndependentOfIndex pins the zero-copy word index: under
// mmap, opening a pack with an 11-mer index costs a small constant more
// than opening the same records without one — no per-word or
// per-posting allocation — and the mapped index adds nothing to the
// reported heap share.
func TestV2OpenCostIndependentOfIndex(t *testing.T) {
	recs, _ := v2DiffDB(t)
	paths := map[int]string{}
	for _, word := range []int{0, 11} {
		p, err := Build(recs, word)
		if err != nil {
			t.Fatal(err)
		}
		if word != 0 && p.DB.WordIndex().Postings() < 10000 {
			t.Fatalf("index too small to show scaling: %d postings", p.DB.WordIndex().Postings())
		}
		paths[word] = filepath.Join(t.TempDir(), fmt.Sprintf("w%d.pack", word))
		if err := WriteFileV2(paths[word], p); err != nil {
			t.Fatal(err)
		}
	}
	a0, b0, i0 := openCost(t, paths[0], 20)
	a11, b11, i11 := openCost(t, paths[11], 20)
	if i11.Mode != LoadMMap || !hostLittleEndian {
		t.Skipf("zero-copy index needs an mmap load on a little-endian host (mode %v)", i11.Mode)
	}
	t.Logf("open: word 0 %.0f allocs %.0f B heap %d; word 11 %.0f allocs %.0f B heap %d", a0, b0, i0.HeapBytes, a11, b11, i11.HeapBytes)
	if d := a11 - a0; d > 2 {
		t.Errorf("word-11 open makes %.0f allocations, word-0 open %.0f: the index costs %.0f per open", a11, a0, d)
	}
	if d := b11 - b0; d > 512 {
		t.Errorf("word-11 open allocates %.0f bytes, word-0 open %.0f: the index costs %.0f bytes per open", b11, b0, d)
	}
	if d := i11.HeapBytes - i0.HeapBytes; d >= 1024 {
		t.Errorf("HeapBytes %d with a mapped word index vs %d without: the index counts %d bytes of heap", i11.HeapBytes, i0.HeapBytes, d)
	}
}

// v2DiffDB builds a database large enough to exercise lane groups,
// pruning and sharding, returning the records and a homolog-bearing
// query.
func v2DiffDB(t *testing.T) ([]bio.Record, bio.Sequence) {
	t.Helper()
	g := bio.NewGenerator(99)
	q := g.Random(200)
	recs := make([]bio.Record, 60)
	for i := range recs {
		n := 80 + (i*53)%300
		recs[i] = bio.Record{ID: fmt.Sprintf("r%03d", i), Seq: g.Random(n)}
	}
	for i := 0; i < 6; i++ {
		frag := q[10*i : 10*i+120]
		recs[i*9].Seq = append(append(bio.Sequence(nil), recs[i*9].Seq[:40]...),
			g.MutatedCopy(frag, bio.DefaultMutationModel())...)
	}
	return recs, q
}

// TestV2SearchDifferential is the tentpole's exactness pin: every scan
// mode over an mmap-opened v2 pack returns bit-identical hits to the
// same scan over an in-memory database prepared from the same records.
func TestV2SearchDifferential(t *testing.T) {
	recs, q := v2DiffDB(t)
	p, err := Build(recs, 11)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "db.pack")
	if err := WriteFileV2(path, p); err != nil {
		t.Fatal(err)
	}
	opened, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer opened.Close()
	if runtime.GOOS == "linux" && opened.Info.Mode != LoadMMap {
		t.Fatalf("differential wants the mmap path, got %v", opened.Info.Mode)
	}
	fresh := search.NewDB(recs)
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		opt  search.Options
	}{
		{"inter8", search.Options{Dispatch: "fixed", TopK: 8}},
		{"inter8 pruned", search.Options{Dispatch: "fixed", TopK: 8, Prune: true}},
		{"pruned prefiltered", search.Options{TopK: 8, Prune: true, Prefilter: true}},
		{"dispatch auto", search.Options{TopK: 8, Dispatch: "auto"}},
		{"int16", search.Options{Router: inter16Router(), TopK: 8}},
		{"scalar", search.Options{Dispatch: "scalar", TopK: 8}},
	} {
		got, err := search.RunCtx(ctx, q, opened.DB, tc.opt)
		if err != nil {
			t.Fatalf("%s over pack: %v", tc.name, err)
		}
		want, err := search.RunCtx(ctx, q, fresh, tc.opt)
		if err != nil {
			t.Fatalf("%s over fresh DB: %v", tc.name, err)
		}
		if !reflect.DeepEqual(got.Hits, want.Hits) {
			t.Errorf("%s: pack hits diverge from in-memory hits", tc.name)
		}
		if got.Searched != want.Searched || got.Cells != want.Cells {
			t.Errorf("%s: pack scanned %d recs/%d cells, in-memory %d/%d",
				tc.name, got.Searched, got.Cells, want.Searched, want.Cells)
		}
	}

	// Batch mode over the pack.
	queries := []search.BatchQuery{{Seq: q}, {Seq: q[:90]}, {Seq: q[40:]}}
	gb, err := search.RunBatch(ctx, queries, opened.DB, search.Options{Dispatch: "fixed", TopK: 6})
	if err != nil {
		t.Fatal(err)
	}
	wb, err := search.RunBatch(ctx, queries, fresh, search.Options{Dispatch: "fixed", TopK: 6})
	if err != nil {
		t.Fatal(err)
	}
	for i := range wb {
		if !reflect.DeepEqual(gb[i].Result.Hits, wb[i].Result.Hits) {
			t.Errorf("batch query %d: pack hits diverge", i)
		}
	}

	// Sharded mode: workers attach to the pack's mapped layout slices.
	sopt := search.Options{TopK: 8, Prune: true}
	cl, err := shard.New(opened.DB, shard.Options{Shards: 3, Search: sopt})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	gs, err := cl.Search(ctx, q, sopt)
	if err != nil {
		t.Fatal(err)
	}
	ws, err := search.RunCtx(ctx, q, fresh, sopt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gs.Hits, ws.Hits) {
		t.Error("sharded pack hits diverge from single-node in-memory hits")
	}
}

// FuzzDecodeV2 flips bytes anywhere in a valid v2 blob. Every mutant
// must either be rejected or decode to exactly the original database —
// the latter happens only when the flip lands in inter-section zero
// padding, which no view ever reads.
func FuzzDecodeV2(f *testing.F) {
	p, err := Build(testRecords(), 4)
	if err != nil {
		f.Fatal(err)
	}
	base, err := EncodeV2(p)
	if err != nil {
		f.Fatal(err)
	}
	want, err := decodeV2(alignedCopy(base), Info{})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(uint32(8), byte(0x01))
	f.Add(uint32(v2FixedHdr), byte(0x80))
	f.Add(uint32(pageAlign), byte(0x40))
	f.Add(uint32(len(base)-1), byte(0xff))
	// The base pack carries a word-4 index: seed flips into its word
	// count, word array, offset table and postings.
	f.Add(uint32(blastSection(base)), byte(0x01))
	f.Add(uint32(blastSection(base)+4), byte(0x02))
	f.Add(uint32(blastOffs(base, 1)), byte(0x01))
	f.Add(uint32(blastOffs(base, blastWords(base))), byte(0x04))
	f.Add(uint32(blastPostings(base)), byte(0x01))
	f.Add(uint32(blastPostings(base)+4), byte(0x10))
	f.Fuzz(func(t *testing.T, pos uint32, flip byte) {
		blob := append([]byte(nil), base...)
		blob[int(pos)%len(blob)] ^= flip | 1
		got, err := decodeV2(alignedCopy(blob), Info{})
		if err != nil {
			return
		}
		grecs, wrecs := got.DB.Records(), want.DB.Records()
		if len(grecs) != len(wrecs) {
			t.Fatalf("accepted mutant decodes %d records, want %d", len(grecs), len(wrecs))
		}
		for i := range wrecs {
			if grecs[i].ID != wrecs[i].ID || grecs[i].Description != wrecs[i].Description ||
				!bytes.Equal(grecs[i].Seq, wrecs[i].Seq) {
				t.Fatalf("accepted mutant changed record %d", i)
			}
		}
		if !reflect.DeepEqual(got.DB.Order(), want.DB.Order()) {
			t.Fatal("accepted mutant changed the scan order")
		}
		if got.Info.LayoutRebuilt {
			// A padding flip touches no section, so the layout must have
			// validated; anything else had to be caught above.
			t.Fatal("accepted mutant forced a layout rebuild")
		}
		gw, go_, gf := got.DB.WordIndex().Export()
		ww, wo, wf := want.DB.WordIndex().Export()
		if !reflect.DeepEqual(gw, ww) || !reflect.DeepEqual(go_, wo) || !reflect.DeepEqual(gf, wf) {
			t.Fatal("accepted mutant changed the word index")
		}
	})
}

// TestViewOfDecodeFallback checks the allocating decode path of viewOf —
// the one a big-endian host takes for every mapped array — against the
// in-place view, by handing it a misaligned copy of the same bytes.
func TestViewOfDecodeFallback(t *testing.T) {
	raw := make([]byte, 64)
	for i := range raw {
		raw[i] = byte(i*37 + 11)
	}
	aligned := alignedCopy(raw)
	misaligned := append(make([]byte, 1, len(raw)+1), raw...)[1:]
	check := func(name string, view, dec any, vheap, dheap int64) {
		t.Helper()
		if !reflect.DeepEqual(view, dec) {
			t.Errorf("%s: decoded %v, view %v", name, dec, view)
		}
		if vheap != 0 || dheap != int64(len(raw)) {
			t.Errorf("%s: heap %d for the view, %d for the copy; want 0 and %d", name, vheap, dheap, len(raw))
		}
	}
	v64, h1 := viewOf(aligned, binary.LittleEndian.Uint64)
	d64, h2 := viewOf(misaligned, binary.LittleEndian.Uint64)
	check("u64", v64, d64, h1, h2)
	v32, h1 := viewOf(aligned, binary.LittleEndian.Uint32)
	d32, h2 := viewOf(misaligned, binary.LittleEndian.Uint32)
	check("u32", v32, d32, h1, h2)
	vp, h1 := viewOf(aligned, decodePosting)
	dp, h2 := viewOf(misaligned, decodePosting)
	check("postings", vp, dp, h1, h2)
}

package main

import (
	"fmt"
	"math/rand"
	"sort"

	"genomedsm/internal/bio"
)

// Every input is a pure function of the workload seed: database records
// come from one generator seeded with (seed, stream), and the i-th
// operation's input from a generator seeded with (seed, stream, i). A
// closed loop answers a different number of operations per run, but
// operation i always sees the same bytes.

// Streams separate the seeded generators of one run.
const (
	streamDB = iota + 1
	streamQuery
	streamPair
	streamSample
)

// mix derives a generator seed from the workload seed, a stream and an
// index (splitmix64 finalizer).
func mix(seed int64, stream, i int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(stream)<<32 + uint64(i)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return int64(z ^ z>>31)
}

// spreadLengths returns n lengths evenly spread over [lo, hi] in a seeded
// order. The multiset is fixed, so the database size — and with it the
// cells per query, the heap and the allocations — does not move with the
// seed; only the bases and their order do.
func spreadLengths(rng *rand.Rand, n, lo, hi int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = lo
		if n > 1 {
			out[i] = lo + i*(hi-lo)/(n-1)
		}
	}
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// noiseDB is serve_noise's database: random records with no homologs.
func noiseDB(seed int64, n, lo, hi int) []bio.Record {
	rng := rand.New(rand.NewSource(mix(seed, streamDB, 0)))
	g := bio.NewGenerator(mix(seed, streamDB, 1))
	recs := make([]bio.Record, n)
	for i, l := range spreadLengths(rng, n, lo, hi) {
		recs[i] = bio.Record{ID: fmt.Sprintf("noise%d", i), Seq: g.Random(l)}
	}
	return recs
}

// familySpec shapes serve_homolog_sharded's database.
type familySpec struct {
	Families, Copies, GeneLen int // planted gene families
	PadLo, PadHi              int // record length range of a padded copy
	Noise, NoiseLo, NoiseHi   int // unrelated tail
}

// familyDB plants spec.Families genes, each as spec.Copies mutated copies
// padded with random flanks into longer records, followed by a noise
// tail, and returns the records plus the genes queries are drawn from.
func familyDB(seed int64, spec familySpec) ([]bio.Record, []bio.Sequence) {
	rng := rand.New(rand.NewSource(mix(seed, streamDB, 0)))
	g := bio.NewGenerator(mix(seed, streamDB, 1))
	genes := make([]bio.Sequence, spec.Families)
	for f := range genes {
		genes[f] = g.Random(spec.GeneLen)
	}
	var recs []bio.Record
	pads := spreadLengths(rng, spec.Families*spec.Copies, spec.PadLo, spec.PadHi)
	for i, l := range pads {
		f := i % spec.Families
		cp := g.MutatedCopy(genes[f], bio.DefaultMutationModel())
		left := 0
		if l > len(cp) {
			left = rng.Intn(l - len(cp) + 1)
		}
		seq := append(g.Random(left), cp...)
		if l > len(seq) {
			seq = append(seq, g.Random(l-len(seq))...)
		}
		recs = append(recs, bio.Record{ID: fmt.Sprintf("fam%d.%d", f, i/spec.Families), Seq: seq})
	}
	for i, l := range spreadLengths(rng, spec.Noise, spec.NoiseLo, spec.NoiseHi) {
		recs = append(recs, bio.Record{ID: fmt.Sprintf("noise%d", i), Seq: g.Random(l)})
	}
	rng.Shuffle(len(recs), func(i, j int) { recs[i], recs[j] = recs[j], recs[i] })
	return recs, genes
}

// randomQuery is serve_noise's i-th query: fresh random bases.
func randomQuery(seed int64, i, n int) bio.Sequence {
	return bio.NewGenerator(mix(seed, streamQuery, i)).Random(n)
}

// familyQuery is a fresh mutated member of a seeded family.
func familyQuery(seed int64, i int, genes []bio.Sequence) bio.Sequence {
	rng := rand.New(rand.NewSource(mix(seed, streamQuery, i)))
	gene := genes[rng.Intn(len(genes))]
	return bio.NewGenerator(rng.Int63()).MutatedCopy(gene, bio.DefaultMutationModel())
}

// sampledRead is oneshot_reads' i-th read: n bases cut from a seeded
// record at a seeded offset, then mutated.
func sampledRead(seed int64, i, n int, recs []bio.Record) bio.Sequence {
	rng := rand.New(rand.NewSource(mix(seed, streamQuery, i)))
	src := recs[rng.Intn(len(recs))].Seq
	for len(src) < n {
		src = recs[rng.Intn(len(recs))].Seq
	}
	off := rng.Intn(len(src) - n + 1)
	return bio.NewGenerator(rng.Int63()).MutatedCopy(src[off:off+n], bio.DefaultMutationModel())
}

// homologousPair is pairwise_dsm's i-th input pair.
func homologousPair(seed int64, i, n int) (bio.HomologousPair, error) {
	return bio.NewGenerator(mix(seed, streamPair, i)).HomologousPair(n, bio.DefaultHomologyModel(n))
}

// sample picks at most k distinct indices of [0, n) with a seeded draw,
// in ascending order, for the verification sample.
func sample(seed int64, n, k int) []int {
	if k >= n {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	rng := rand.New(rand.NewSource(mix(seed, streamSample, n)))
	perm := rng.Perm(n)[:k]
	sort.Ints(perm)
	return perm
}

package tree

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"testing"
)

// randomTreeFingerprint hashes everything a seeded Random tree fixes: the
// Newick text of every slot (lengths at %.8f), and in Branches order the
// record ID of every branch and the exact bits of each of its slots.
func randomTreeFingerprint(t *testing.T, n int, seed int64, zSlots int) string {
	t.Helper()
	tr, err := Random(names(n), zSlots, RandomOptions{Seed: seed})
	if err != nil {
		t.Fatalf("n=%d seed=%d zSlots=%d: %v", n, seed, zSlots, err)
	}
	h := sha256.New()
	for k := 0; k < zSlots; k++ {
		fmt.Fprintln(h, WriteNewick(tr, k))
	}
	var buf [8]byte
	for _, p := range tr.Branches() {
		binary.LittleEndian.PutUint64(buf[:], uint64(p.ID))
		h.Write(buf[:])
		for _, z := range p.Z {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(z))
			h.Write(buf[:])
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// TestRandomTreeGolden pins the seeded start trees bit for bit: topology,
// record sides, Branches order and every length. Seeds are user-visible
// (plkrun -seed, the server's cache keys, the paper's seed trees), so a
// change to the generator or to the pre-order Random draws its attachment
// branch from must not move one of them. The fingerprints were recorded
// with math/rand's own rand.NewSource and the recursive walks; 2147483647
// normalises to math/rand's zero-seed case, as 0 does.
func TestRandomTreeGolden(t *testing.T) {
	const newick8 = "(t0:0.00520713,(((t7:0.13978048,t5:0.14262740):0.34833835,(t3:0.11034543,t4:0.03061631):0.15785820):0.01941291,(t2:0.02493297,t6:0.05117725):0.11991564):0.05778946,t1:0.03884628);"
	tr, err := Random(names(8), 1, RandomOptions{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if got := WriteNewick(tr, 0); got != newick8 {
		t.Errorf("8 taxa, seed 42:\n got %s\nwant %s", got, newick8)
	}
	golden := []struct {
		n      int
		seed   int64
		zSlots int
		want   string
	}{
		{3, 0, 1, "ab467386519fc401"},
		{3, 0, 10, "116402b6e920beb7"},
		{3, 1, 1, "170f1537e9745aaa"},
		{3, 1, 10, "e0b800d3bde7087d"},
		{3, 7, 1, "75a65d2bc0259ee6"},
		{3, 7, 10, "0b604f751355b893"},
		{3, 42, 1, "471de13df15aaa77"},
		{3, 42, 10, "98593b9f69ab61c8"},
		{3, -3, 1, "8a9609e8ce8258dc"},
		{3, -3, 10, "aa66abcfc70a0716"},
		{3, 2147483647, 1, "ab467386519fc401"},
		{3, 2147483647, 10, "116402b6e920beb7"},
		{4, 0, 1, "2d6b40fb027e94c6"},
		{4, 0, 10, "25a605af3e538442"},
		{4, 1, 1, "f0497da49e771d6a"},
		{4, 1, 10, "1fa594e57d7d3b9a"},
		{4, 7, 1, "bdb72cee26f279a1"},
		{4, 7, 10, "76f3eb7becc1c020"},
		{4, 42, 1, "6e9992ccb251ed1d"},
		{4, 42, 10, "c7c96d12dab225d1"},
		{4, -3, 1, "9d9144011f54cc33"},
		{4, -3, 10, "ce7e6988af499ebf"},
		{4, 2147483647, 1, "2d6b40fb027e94c6"},
		{4, 2147483647, 10, "25a605af3e538442"},
		{5, 0, 1, "77990d60b851f99c"},
		{5, 0, 10, "da361c94f34b6da2"},
		{5, 1, 1, "1c91d1c578be42c0"},
		{5, 1, 10, "586ee703063a2193"},
		{5, 7, 1, "76925160b74a5883"},
		{5, 7, 10, "625c711148577df2"},
		{5, 42, 1, "196428df32a22389"},
		{5, 42, 10, "f1b7ced4194bca0f"},
		{5, -3, 1, "a6d01d1780ff5b46"},
		{5, -3, 10, "f8e2c33c31c07e6a"},
		{5, 2147483647, 1, "77990d60b851f99c"},
		{5, 2147483647, 10, "da361c94f34b6da2"},
		{8, 0, 1, "99403e0cd6ef5fa0"},
		{8, 0, 10, "9fa99e999f995d43"},
		{8, 1, 1, "5a795184cb2e05fd"},
		{8, 1, 10, "3721731fbd0acf9c"},
		{8, 7, 1, "e6fa0acd1981d739"},
		{8, 7, 10, "b70985697380d103"},
		{8, 42, 1, "f4a410cc4c4aec79"},
		{8, 42, 10, "e5515e9ac99cbb8f"},
		{8, -3, 1, "28a2def3987f532a"},
		{8, -3, 10, "e84e7967c8be6169"},
		{8, 2147483647, 1, "99403e0cd6ef5fa0"},
		{8, 2147483647, 10, "9fa99e999f995d43"},
		{10, 0, 1, "c070646f23cfd450"},
		{10, 0, 10, "936c678f4193538d"},
		{10, 1, 1, "fce69a232741fc7d"},
		{10, 1, 10, "4e87551281dee622"},
		{10, 7, 1, "4ff2dd3972da29e7"},
		{10, 7, 10, "534148492e497643"},
		{10, 42, 1, "84490eb0b05066d2"},
		{10, 42, 10, "2453febcc6765310"},
		{10, -3, 1, "1adaaf2d78f30eec"},
		{10, -3, 10, "28111062705fb6d4"},
		{10, 2147483647, 1, "c070646f23cfd450"},
		{10, 2147483647, 10, "936c678f4193538d"},
		{50, 0, 1, "6a92a8d4a01a072f"},
		{50, 0, 10, "e4ab680128c8392c"},
		{50, 1, 1, "4ae7dd861caa93ac"},
		{50, 1, 10, "221f2586c39209f2"},
		{50, 7, 1, "10549964368a84cc"},
		{50, 7, 10, "f196168ea851a0ac"},
		{50, 42, 1, "5da699b8e30473d1"},
		{50, 42, 10, "8842868b44990cd6"},
		{50, -3, 1, "580b2937b39070aa"},
		{50, -3, 10, "ae5f1dafb97bb457"},
		{50, 2147483647, 1, "6a92a8d4a01a072f"},
		{50, 2147483647, 10, "e4ab680128c8392c"},
		// 100 taxa take about 400 draws, past the one that builds the
		// generator's register (draw 273); the sizes above take fewer.
		{100, 0, 1, "c6581e56156c3057"},
		{100, 0, 10, "a3945f920fdebd8b"},
		{100, 1, 1, "3f3e8c1e8196b488"},
		{100, 1, 10, "7701ce0d78cb5fc5"},
		{100, 7, 1, "96847e3965214252"},
		{100, 7, 10, "edd075e17a10deff"},
		{100, 42, 1, "d5d3ce140df80e99"},
		{100, 42, 10, "a77f1c3ea793bd35"},
		{100, -3, 1, "611826e15f5b8e28"},
		{100, -3, 10, "caf988bcef2c2845"},
		{100, 2147483647, 1, "c6581e56156c3057"},
		{100, 2147483647, 10, "a3945f920fdebd8b"},
	}
	for _, g := range golden {
		if got := randomTreeFingerprint(t, g.n, g.seed, g.zSlots); got != g.want {
			t.Errorf("n=%d seed=%d zSlots=%d: fingerprint %s, want %s", g.n, g.seed, g.zSlots, got, g.want)
		}
	}
}

// BenchmarkRandom times an 8-taxon start tree, the one a plkd evaluate or a
// p1000_newpar session builds.
func BenchmarkRandom(b *testing.B) {
	nm := names(8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Random(nm, 1, RandomOptions{Seed: int64(i + 1)}); err != nil {
			b.Fatal(err)
		}
	}
}

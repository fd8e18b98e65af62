package index

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"ghostdb/internal/flash"
)

// randomKeys draws rows keys of width keyW whose first shared bytes are
// the same in every row ('0', as in a zero-padded decimal) and whose
// remaining bytes come from an alphabet of alpha symbols (small alphabets
// give many duplicate keys).
func randomKeys(rng *rand.Rand, rows, keyW, shared, alpha int) []byte {
	vals := make([]byte, rows*keyW)
	for r := 0; r < rows; r++ {
		for p := 0; p < keyW; p++ {
			b := byte('0')
			if p >= shared {
				b = byte('0' + rng.Intn(alpha))
			}
			vals[r*keyW+p] = b
		}
	}
	return vals
}

func TestSortRowsByKeyMatchesComparisonSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, keyW := range []int{4, 8, 10} {
		for _, rows := range []int{0, 1, 2, 7, 300, 5000} {
			for _, shared := range []int{0, keyW - 3, keyW} {
				for _, alpha := range []int{2, 10, 200} {
					vals := randomKeys(rng, rows, keyW, shared, alpha)
					got, want := sortRowsByKey(vals, keyW, rows), refKeyOrder(vals, keyW, rows)
					if !slices.Equal(got, want) {
						t.Fatalf("width %d rows %d shared %d alphabet %d: order differs", keyW, rows, shared, alpha)
					}
				}
			}
		}
	}
	// Full-range bytes: every byte value, including 0 and 255.
	vals := make([]byte, 4000*8)
	rng.Read(vals)
	if !slices.Equal(sortRowsByKey(vals, 8, 4000), refKeyOrder(vals, 8, 4000)) {
		t.Fatal("random 8-byte keys: order differs")
	}
}

func TestGroupByOrdinalMatchesComparisonSort(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{0, 1, 2, 50, 4000} {
		for _, nvals := range []int{1, 3, 100, 5000} {
			// An ancestor level: ids reach descendant rows with repeats, and
			// some ordinals are reached by no id.
			ords := make([]uint32, n)
			for a := range ords {
				ords[a] = uint32(rng.Intn(nvals))
			}
			g := groupByOrdinal(ords, nvals)
			if len(g.start) != nvals+1 || int(g.start[nvals]) != n {
				t.Fatalf("n %d nvals %d: bad offsets", n, nvals)
			}
			want := refGroupOrder(ords)
			for o := 0; o < nvals; o++ {
				for i := g.start[o]; i < g.start[o+1]; i++ {
					if w := want[i]; uint32(w>>32) != uint32(o) || uint32(w) != g.ids[i] {
						t.Fatalf("n %d nvals %d: position %d holds (%d, %d), want (%d, %d)",
							n, nvals, i, o, g.ids[i], w>>32, uint32(w))
					}
				}
			}
		}
	}
}

// BenchmarkBuildClimbing builds a 100 000-row attribute index over
// zero-padded char(10) keys with a self level and one ancestor level of
// 200 000 ids.
func BenchmarkBuildClimbing(b *testing.B) {
	const rows, ancestors = 100_000, 200_000
	rng := rand.New(rand.NewSource(3))
	vals := make([]byte, 0, rows*10)
	for r := 0; r < rows; r++ {
		vals = fmt.Appendf(vals, "%010d", rng.Intn(1000))
	}
	desc := make([]uint32, ancestors)
	for a := range desc {
		desc[a] = uint32(rng.Intn(rows))
	}
	in := climbingInput{table: 1, colIdx: 0, keyW: 10, vals: vals, rows: rows,
		levels: []int{1, 0}, descOfLvl: [][]uint32{nil, desc}}
	params := flash.DefaultParams()
	params.Blocks = 256 // 16 384 pages: room for one build
	for b.Loop() {
		dev := flash.MustDevice(params)
		if _, err := buildClimbing(dev, in); err != nil {
			b.Fatal(err)
		}
	}
}

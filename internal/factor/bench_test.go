package factor

import (
	"testing"

	"kertbn/internal/stats"
)

// sink keeps benchmark results live so the calls cannot be optimized away.
var sink *Factor

// d7 is a factor the size of the discrete eDiaMoND D-CPT: seven variables
// of six states each (6^7 = 279,936 entries).
func d7() *Factor {
	vars, card := []int{0, 1, 2, 3, 4, 5, 6}, []int{6, 6, 6, 6, 6, 6, 6}
	return randomFactor(stats.NewRNG(1), vars, card)
}

// BenchmarkProduct multiplies the 6^7 factor by a 6×6 CPT-shaped factor
// over two of its middle variables, as a VE elimination step does.
func BenchmarkProduct(b *testing.B) {
	f := d7()
	g := randomFactor(stats.NewRNG(2), []int{2, 3}, []int{6, 6})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = Product(f, g)
	}
}

// BenchmarkSumOut marginalizes a middle variable out of the 6^7 factor.
func BenchmarkSumOut(b *testing.B) {
	f := d7()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = f.SumOut(3)
	}
}

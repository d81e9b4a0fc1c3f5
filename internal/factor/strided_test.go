package factor

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"kertbn/internal/stats"
)

// The decode-based kernels below are the index-arithmetic originals the
// stride walks replaced. They survive only as the oracle the strided
// kernels must match bit for bit.

func decodeRef(f *Factor, idx int, assign []int) {
	for i := len(f.Vars) - 1; i >= 0; i-- {
		assign[i] = idx % f.Card[i]
		idx /= f.Card[i]
	}
}

func scopeMapRef(outer, inner *Factor) []int {
	m := make([]int, len(inner.Vars))
	for i, v := range inner.Vars {
		m[i] = outer.varIndex(v)
	}
	return m
}

func rowMajorStridesRef(f *Factor) []int {
	s := make([]int, len(f.Vars))
	acc := 1
	for i := len(f.Vars) - 1; i >= 0; i-- {
		s[i] = acc
		acc *= f.Card[i]
	}
	return s
}

func productRef(f, g *Factor) *Factor {
	cards := map[int]int{}
	for i, v := range f.Vars {
		cards[v] = f.Card[i]
	}
	for i, v := range g.Vars {
		cards[v] = g.Card[i]
	}
	var vars, card []int
	for v := range cards {
		vars = append(vars, v)
	}
	sort.Ints(vars)
	for _, v := range vars {
		card = append(card, cards[v])
	}
	out := New(vars, card)
	fMap, gMap := scopeMapRef(out, f), scopeMapRef(out, g)
	fStr, gStr := rowMajorStridesRef(f), rowMajorStridesRef(g)
	assign := make([]int, len(out.Vars))
	for idx := range out.Values {
		decodeRef(out, idx, assign)
		fi, gi := 0, 0
		for i, pos := range fMap {
			fi += assign[pos] * fStr[i]
		}
		for i, pos := range gMap {
			gi += assign[pos] * gStr[i]
		}
		out.Values[idx] = f.Values[fi] * g.Values[gi]
	}
	return out
}

// dropRef returns the output factor of SumOut/Reduce at position pos.
func dropRef(f *Factor, pos int) *Factor {
	var vars, card []int
	for i, u := range f.Vars {
		if i != pos {
			vars, card = append(vars, u), append(card, f.Card[i])
		}
	}
	if len(vars) == 0 {
		return Scalar(0)
	}
	return New(vars, card)
}

func sumOutRef(f *Factor, v int) *Factor {
	pos := f.varIndex(v)
	out := dropRef(f, pos)
	assign := make([]int, len(f.Vars))
	outAssign := make([]int, len(out.Vars))
	for idx, val := range f.Values {
		if val == 0 {
			continue
		}
		decodeRef(f, idx, assign)
		k := 0
		for i := range assign {
			if i != pos {
				outAssign[k] = assign[i]
				k++
			}
		}
		if len(out.Vars) == 0 {
			out.Values[0] += val
		} else {
			out.Values[out.Index(outAssign)] += val
		}
	}
	return out
}

func reduceRef(f *Factor, v, value int) *Factor {
	pos := f.varIndex(v)
	out := dropRef(f, pos)
	assign := make([]int, len(f.Vars))
	outAssign := make([]int, len(out.Vars))
	for idx, val := range f.Values {
		decodeRef(f, idx, assign)
		if assign[pos] != value {
			continue
		}
		k := 0
		for i := range assign {
			if i != pos {
				outAssign[k] = assign[i]
				k++
			}
		}
		if len(out.Vars) == 0 {
			out.Values[0] += val
		} else {
			out.Values[out.Index(outAssign)] = val
		}
	}
	return out
}

// fromTableRef scatters a row-major table over unsorted vars by decoding
// each source index and setting the matching sorted assignment.
func fromTableRef(vars, card []int, values []float64) *Factor {
	out := New(vars, card)
	src := make([]int, len(vars))
	assign := make([]int, len(vars))
	for idx, val := range values {
		rem := idx
		for i := len(vars) - 1; i >= 0; i-- {
			src[i] = rem % card[i]
			rem /= card[i]
		}
		for i, v := range out.Vars {
			for j, u := range vars {
				if u == v {
					assign[i] = src[j]
				}
			}
		}
		out.Set(assign, val)
	}
	return out
}

// randomFactor draws a factor over the given scope with entries that are
// zero about a fifth of the time and otherwise span several magnitudes, so
// accumulation order shows up in the low bits.
func randomFactor(rng *stats.RNG, vars, card []int) *Factor {
	f := New(vars, card)
	for i := range f.Values {
		if rng.Float64() < 0.2 {
			continue
		}
		f.Values[i] = rng.Float64() * math.Pow(10, float64(rng.Intn(7)-3))
	}
	return f
}

func bitIdentical(t *testing.T, what string, got, want *Factor) {
	t.Helper()
	if fmt.Sprint(got.Vars, got.Card) != fmt.Sprint(want.Vars, want.Card) {
		t.Fatalf("%s: scope %v/%v, want %v/%v", what, got.Vars, got.Card, want.Vars, want.Card)
	}
	if len(got.Values) != len(want.Values) {
		t.Fatalf("%s: %d entries, want %d", what, len(got.Values), len(want.Values))
	}
	for i := range got.Values {
		if got.Values[i] != want.Values[i] {
			t.Fatalf("%s: entry %d = %v, want %v", what, i, got.Values[i], want.Values[i])
		}
	}
}

// TestStridedKernelsMatchDecodeOracle pits every strided kernel against its
// decode-based original on random scopes — scalars, disjoint and shared
// scopes, unit cardinalities and zero entries — with exact equality on
// every entry.
func TestStridedKernelsMatchDecodeOracle(t *testing.T) {
	rng := stats.NewRNG(20261017)
	for trial := 0; trial < 400; trial++ {
		// One cardinality per id keeps products of random scopes legal.
		ids := make([]int, 8)
		for i := range ids {
			ids[i] = 1 + rng.Intn(4)
		}
		// Up to maxVars distinct ids from [0, 8), in random (unsorted) order.
		scope := func(maxVars int) ([]int, []int) {
			vars := rng.Perm(8)[:rng.Intn(maxVars+1)]
			card := make([]int, len(vars))
			for i, v := range vars {
				card[i] = ids[v]
			}
			return vars, card
		}
		fv, fc := scope(5)
		gv, gc := scope(4)
		if trial%7 == 0 {
			gv, gc = nil, nil // scalar operand
		}
		f, g := randomFactor(rng, fv, fc), randomFactor(rng, gv, gc)
		bitIdentical(t, fmt.Sprintf("trial %d Product(%v,%v)", trial, fv, gv), Product(f, g), productRef(f, g))
		bitIdentical(t, fmt.Sprintf("trial %d Product(%v,%v)", trial, gv, fv), Product(g, f), productRef(g, f))
		p := Product(f, g)
		for _, v := range p.Vars {
			bitIdentical(t, fmt.Sprintf("trial %d SumOut(%d)", trial, v), p.SumOut(v), sumOutRef(p, v))
			pos := p.varIndex(v)
			for val := 0; val < p.Card[pos]; val++ {
				bitIdentical(t, fmt.Sprintf("trial %d Reduce(%d=%d)", trial, v, val), p.Reduce(v, val), reduceRef(p, v, val))
			}
		}
		tab := randomFactor(rng, fv, fc) // any table of the right size
		bitIdentical(t, fmt.Sprintf("trial %d FromTable(%v)", trial, fv), FromTable(fv, fc, tab.Values), fromTableRef(fv, fc, tab.Values))
	}
}

func TestFromTableCopiesSortedLayout(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5, 6}
	f := FromTable([]int{1, 4}, []int{2, 3}, vals)
	vals[0] = 99
	if f.Values[0] != 1 || f.At([]int{1, 2}) != 6 {
		t.Fatalf("FromTable over a sorted scope = %v, want an unaliased copy", f.Values)
	}
	// (4, 1) row-major: entry (x4=a, x1=b) at a*2+b moves to (b, a).
	g := FromTable([]int{4, 1}, []int{3, 2}, []float64{1, 2, 3, 4, 5, 6})
	if want := []float64{1, 3, 5, 2, 4, 6}; fmt.Sprint(g.Values) != fmt.Sprint(want) {
		t.Fatalf("FromTable transpose = %v, want %v", g.Values, want)
	}
}

func TestFromTableSizeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on a table of the wrong size")
		}
	}()
	FromTable([]int{0, 1}, []int{2, 2}, []float64{1, 2, 3})
}

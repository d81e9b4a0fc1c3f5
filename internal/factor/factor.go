package factor

import (
	"fmt"
	"math"
	"sort"
)

// Factor is a non-negative table over a sorted scope of discrete variables.
type Factor struct {
	// Vars is the sorted list of variable ids in the factor's scope.
	Vars []int
	// Card holds the cardinality of each variable, parallel to Vars.
	Card []int
	// Values holds the table entries in row-major order over Vars.
	Values []float64
}

// New creates a zeroed factor over the given variables. vars need not be
// sorted; card is parallel to vars as supplied.
func New(vars []int, card []int) *Factor {
	if len(vars) != len(card) {
		panic("factor: vars/card length mismatch")
	}
	idx := make([]int, len(vars))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return vars[idx[a]] < vars[idx[b]] })
	f := &Factor{
		Vars: make([]int, len(vars)),
		Card: make([]int, len(vars)),
	}
	size := 1
	for i, k := range idx {
		f.Vars[i] = vars[k]
		f.Card[i] = card[k]
		if card[k] <= 0 {
			panic(fmt.Sprintf("factor: non-positive cardinality %d for var %d", card[k], vars[k]))
		}
		size *= card[k]
	}
	for i := 1; i < len(f.Vars); i++ {
		if f.Vars[i] == f.Vars[i-1] {
			panic(fmt.Sprintf("factor: duplicate variable %d in scope", f.Vars[i]))
		}
	}
	f.Values = make([]float64, size)
	return f
}

// Uniform returns a factor with all entries set to 1.
func Uniform(vars []int, card []int) *Factor {
	f := New(vars, card)
	for i := range f.Values {
		f.Values[i] = 1
	}
	return f
}

// Scalar returns a zero-variable factor holding the single value v.
func Scalar(v float64) *Factor {
	return &Factor{Values: []float64{v}}
}

// Clone returns a deep copy.
func (f *Factor) Clone() *Factor {
	c := &Factor{
		Vars:   append([]int(nil), f.Vars...),
		Card:   append([]int(nil), f.Card...),
		Values: append([]float64(nil), f.Values...),
	}
	return c
}

// Size returns the number of table entries.
func (f *Factor) Size() int { return len(f.Values) }

// varIndex returns the position of variable v in the scope, or -1.
func (f *Factor) varIndex(v int) int {
	for i, u := range f.Vars {
		if u == v {
			return i
		}
	}
	return -1
}

// Contains reports whether v is in the factor's scope.
func (f *Factor) Contains(v int) bool { return f.varIndex(v) >= 0 }

// Index converts an assignment (parallel to Vars) to a flat table index.
func (f *Factor) Index(assign []int) int {
	if len(assign) != len(f.Vars) {
		panic("factor: assignment length mismatch")
	}
	idx := 0
	acc := 1
	for i := len(f.Vars) - 1; i >= 0; i-- {
		a := assign[i]
		if a < 0 || a >= f.Card[i] {
			panic(fmt.Sprintf("factor: assignment %d out of range for var %d (card %d)", a, f.Vars[i], f.Card[i]))
		}
		idx += a * acc
		acc *= f.Card[i]
	}
	return idx
}

// Assignment converts a flat table index to an assignment (parallel to Vars).
func (f *Factor) Assignment(idx int) []int {
	out := make([]int, len(f.Vars))
	for i := len(f.Vars) - 1; i >= 0; i-- {
		out[i] = idx % f.Card[i]
		idx /= f.Card[i]
	}
	return out
}

// At returns the value at the given assignment.
func (f *Factor) At(assign []int) float64 { return f.Values[f.Index(assign)] }

// Set assigns the value at the given assignment.
func (f *Factor) Set(assign []int, v float64) { f.Values[f.Index(assign)] = v }

// Product returns the factor product f*g over the union scope.
//
// The output table is filled in flat order while an odometer over the
// output scope carries the matching flat offsets into f and g: stepping a
// variable moves each input offset by that variable's stride in the input,
// which is 0 when the input does not mention it. Every entry is a single
// multiplication, so the result does not depend on the walk.
func Product(f, g *Factor) *Factor {
	vars, card := unionScope(f, g)
	out := newSorted(vars, card)
	n := len(vars)
	if n == 0 {
		out.Values[0] = f.Values[0] * g.Values[0]
		return out
	}
	scratch := make([]int, 3*n)
	fStr, gStr, assign := scratch[:n], scratch[n:2*n], scratch[2*n:]
	f.stridesOver(vars, fStr)
	g.stridesOver(vars, gStr)
	last := n - 1
	cl, fl, gl := card[last], fStr[last], gStr[last]
	fi, gi := 0, 0
	for idx := 0; idx < len(out.Values); {
		// The fastest-moving variable is a strided run through both inputs.
		for k := 0; k < cl; k++ {
			out.Values[idx] = f.Values[fi] * g.Values[gi]
			idx++
			fi += fl
			gi += gl
		}
		fi -= cl * fl
		gi -= cl * gl
		for i := last - 1; i >= 0; i-- {
			assign[i]++
			fi += fStr[i]
			gi += gStr[i]
			if assign[i] < card[i] {
				break
			}
			assign[i] = 0
			fi -= card[i] * fStr[i]
			gi -= card[i] * gStr[i]
		}
	}
	return out
}

// stridesOver writes, for each variable of the sorted scope vars (a
// superset of f's scope), its row-major stride in f — or 0 when f does not
// mention it — into dst.
func (f *Factor) stridesOver(vars []int, dst []int) {
	acc := 1
	j := len(f.Vars) - 1
	for i := len(vars) - 1; i >= 0; i-- {
		if j >= 0 && f.Vars[j] == vars[i] {
			dst[i] = acc
			acc *= f.Card[j]
			j--
		} else {
			dst[i] = 0
		}
	}
	if j >= 0 {
		panic(fmt.Sprintf("factor: scope var %d missing in outer scope", f.Vars[j]))
	}
}

// unionScope merges the sorted scopes of f and g.
func unionScope(f, g *Factor) ([]int, []int) {
	vars := make([]int, 0, len(f.Vars)+len(g.Vars))
	card := make([]int, 0, len(f.Vars)+len(g.Vars))
	i, j := 0, 0
	for i < len(f.Vars) || j < len(g.Vars) {
		switch {
		case j == len(g.Vars) || (i < len(f.Vars) && f.Vars[i] < g.Vars[j]):
			vars, card = append(vars, f.Vars[i]), append(card, f.Card[i])
			i++
		case i == len(f.Vars) || g.Vars[j] < f.Vars[i]:
			vars, card = append(vars, g.Vars[j]), append(card, g.Card[j])
			j++
		default:
			if f.Card[i] != g.Card[j] {
				panic(fmt.Sprintf("factor: cardinality clash for var %d: %d vs %d", f.Vars[i], f.Card[i], g.Card[j]))
			}
			vars, card = append(vars, f.Vars[i]), append(card, f.Card[i])
			i++
			j++
		}
	}
	return vars, card
}

// newSorted creates a zeroed factor over an already sorted, duplicate-free
// scope, taking ownership of vars and card.
func newSorted(vars, card []int) *Factor {
	size := 1
	for _, c := range card {
		size *= c
	}
	return &Factor{Vars: vars, Card: card, Values: make([]float64, size)}
}

// dropVar creates the zeroed factor over f's scope without the variable at
// position pos, and splits f's table around it: entry (o, k, i) of f, with
// k the dropped variable's state, sits at flat index (o*card+k)*inner + i
// and lands on flat index o*inner + i of the output.
func (f *Factor) dropVar(pos int) (out *Factor, outer, card, inner int) {
	vars := make([]int, 0, len(f.Vars)-1)
	cards := make([]int, 0, len(f.Vars)-1)
	outer, inner = 1, 1
	for i, u := range f.Vars {
		switch {
		case i < pos:
			outer *= f.Card[i]
		case i > pos:
			inner *= f.Card[i]
		default:
			continue
		}
		vars = append(vars, u)
		cards = append(cards, f.Card[i])
	}
	return newSorted(vars, cards), outer, f.Card[pos], inner
}

// SumOut marginalizes variable v out of f, returning a factor over the
// remaining scope. Summing the last variable out of a single-variable
// factor yields a scalar factor.
//
// Each output entry accumulates its inputs in ascending state order of v —
// the order a flat walk of f meets them — so results are reproducible bit
// for bit.
func (f *Factor) SumOut(v int) *Factor {
	pos := f.varIndex(v)
	if pos < 0 {
		panic(fmt.Sprintf("factor: SumOut of variable %d not in scope", v))
	}
	out, outer, card, inner := f.dropVar(pos)
	for o := 0; o < outer; o++ {
		dst := out.Values[o*inner : (o+1)*inner]
		for k := 0; k < card; k++ {
			src := f.Values[(o*card+k)*inner:][:inner]
			for i, x := range src {
				dst[i] += x
			}
		}
	}
	return out
}

// Reduce incorporates evidence v=value by keeping only the consistent
// entries and dropping v from the scope.
func (f *Factor) Reduce(v, value int) *Factor {
	pos := f.varIndex(v)
	if pos < 0 {
		panic(fmt.Sprintf("factor: Reduce of variable %d not in scope", v))
	}
	if value < 0 || value >= f.Card[pos] {
		panic(fmt.Sprintf("factor: Reduce value %d out of range for var %d", value, v))
	}
	out, outer, card, inner := f.dropVar(pos)
	for o := 0; o < outer; o++ {
		copy(out.Values[o*inner:(o+1)*inner], f.Values[(o*card+value)*inner:])
	}
	return out
}

// FromTable returns the factor over vars whose entries, laid out row-major
// over vars in the order given (not necessarily sorted), are values. The
// table is scattered into the sorted layout by walking values in flat order
// with an odometer over per-variable destination strides; when vars is
// already sorted the layouts coincide and the table is copied.
func FromTable(vars, card []int, values []float64) *Factor {
	out := New(vars, card)
	if len(values) != len(out.Values) {
		panic(fmt.Sprintf("factor: table has %d entries, scope needs %d", len(values), len(out.Values)))
	}
	n := len(vars)
	scratch := make([]int, 2*n)
	str, assign := scratch[:n], scratch[n:]
	sorted := true
	for p, v := range vars {
		str[p] = 1
		for i := len(out.Vars) - 1; out.Vars[i] != v; i-- {
			str[p] *= out.Card[i]
		}
		if p > 0 && vars[p-1] > v {
			sorted = false
		}
	}
	if sorted {
		copy(out.Values, values)
		return out
	}
	last := n - 1
	cl, sl := card[last], str[last]
	di := 0
	for si := 0; si < len(values); {
		for k := 0; k < cl; k++ {
			out.Values[di] = values[si]
			si++
			di += sl
		}
		di -= cl * sl
		for i := last - 1; i >= 0; i-- {
			assign[i]++
			di += str[i]
			if assign[i] < card[i] {
				break
			}
			assign[i] = 0
			di -= card[i] * str[i]
		}
	}
	return out
}

// Normalize scales the factor so its entries sum to 1 and returns the
// pre-normalization sum. A zero factor is left unchanged and returns 0.
func (f *Factor) Normalize() float64 {
	s := 0.0
	for _, v := range f.Values {
		s += v
	}
	if s > 0 {
		inv := 1 / s
		for i := range f.Values {
			f.Values[i] *= inv
		}
	}
	return s
}

// Sum returns the sum of all entries.
func (f *Factor) Sum() float64 {
	s := 0.0
	for _, v := range f.Values {
		s += v
	}
	return s
}

// MaxAssignment returns the assignment (parallel to Vars) with the largest
// value, breaking ties toward the lowest flat index.
func (f *Factor) MaxAssignment() ([]int, float64) {
	best, bestV := 0, math.Inf(-1)
	for i, v := range f.Values {
		if v > bestV {
			best, bestV = i, v
		}
	}
	return f.Assignment(best), bestV
}

// Equal reports whether g has the same scope and values within tol.
func (f *Factor) Equal(g *Factor, tol float64) bool {
	if len(f.Vars) != len(g.Vars) || len(f.Values) != len(g.Values) {
		return false
	}
	for i := range f.Vars {
		if f.Vars[i] != g.Vars[i] || f.Card[i] != g.Card[i] {
			return false
		}
	}
	for i := range f.Values {
		if math.Abs(f.Values[i]-g.Values[i]) > tol {
			return false
		}
	}
	return true
}

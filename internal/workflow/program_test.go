package workflow

import (
	"math"
	"sync"
	"testing"

	"kertbn/internal/stats"
)

// specials are the inputs where a reordered or refactored float expression
// would first show: signed zeros, infinities and NaN.
var specials = []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), 1e308, -1e-308}

// timeoutCountOracle is TimeoutCount's definition: a sum from 0.0 over the
// sorted service indices.
func timeoutCountOracle(n *Node, x []float64) float64 {
	s := 0.0
	for _, svc := range n.Services() {
		s += x[svc]
	}
	return s
}

// sameBits reports whether a and b are the same float64, bit for bit — or
// both NaN. Go does not specify which payload an operation on two NaNs
// keeps: amd64 keeps the first register operand, so the payload follows
// the compiler's operand order, not the expression. Every other result,
// ±0 and ±Inf included, must match exactly.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// TestProgramMatchesTreeWalk is the compiled program's differential test:
// over random workflows with every construct (sequence, parallel, choice,
// loop) and inputs drawn from ordinary values and specials, Eval must
// return exactly the bits of ResponseTime and of the timeout-count sum
// (any NaN for a NaN, see sameBits).
func TestProgramMatchesTreeWalk(t *testing.T) {
	rng := stats.NewRNG(31)
	opts := GenOptions{PPar: 0.35, PChoice: 0.3, PLoop: 0.2, MaxBranch: 4}
	trees := []*Node{
		Task(3, "lone"),
		Seq(Task(5, "a"), Par(Task(2, "b"), Task(9, "c"))), // sparse indices
		Loop(0.3, Choice([]float64{0.25, 0.75}, Task(0, "a"), Loop(0.6, Task(1, "b")))),
	}
	for i := 0; i < 60; i++ {
		w, err := Generate(1+rng.Intn(12), opts, rng)
		if err != nil {
			t.Fatal(err)
		}
		trees = append(trees, w)
	}
	for _, w := range trees {
		rt, tc := w.Compile(), w.CompileTimeoutCount()
		svcs := w.Services()
		x := make([]float64, svcs[len(svcs)-1]+1)
		if tc.Regs() != len(x) {
			t.Fatalf("%v: timeout-count program needs %d registers for %d inputs", w, tc.Regs(), len(x))
		}
		regs := make([]float64, rt.Regs())
		for trial := 0; trial < 200; trial++ {
			for j := range x {
				if rng.Float64() < 0.3 {
					x[j] = specials[rng.Intn(len(specials))]
				} else {
					x[j] = (rng.Float64() - 0.25) * 10
				}
			}
			copy(regs, x)
			if got, want := rt.Eval(regs), w.ResponseTime(x); !sameBits(got, want) {
				t.Fatalf("%v at %v: program %v (%#x), ResponseTime %v (%#x)", w, x, got, math.Float64bits(got), want, math.Float64bits(want))
			}
			for j := range x {
				if math.Float64bits(regs[j]) != math.Float64bits(x[j]) {
					t.Fatalf("%v: Eval overwrote input register %d", w, j)
				}
			}
			want := timeoutCountOracle(w, x)
			if got := tc.Eval(x); !sameBits(got, want) {
				t.Fatalf("%v at %v: timeout-count program %v, oracle %v", w, x, got, want)
			}
			if got := w.TimeoutCount(x); !sameBits(got, want) {
				t.Fatalf("%v at %v: TimeoutCount %v, oracle %v", w, x, got, want)
			}
		}
	}
}

// TestProgramSignedZero pins the cases where the 0.0 a sum starts from and
// the strict > of max are observable: −0 + −0 sums to +0 (not −0), and a
// max keeps the first of two equal zeros.
func TestProgramSignedZero(t *testing.T) {
	negZero := math.Copysign(0, -1)
	cases := []struct {
		w    *Node
		x    []float64
		want float64
	}{
		{Seq(Task(0, "a"), Task(1, "b")), []float64{negZero, negZero}, 0},
		{Seq(Task(0, "a"), Task(1, "b"), Task(2, "c")), []float64{negZero, negZero, negZero}, 0},
		{Par(Task(0, "a"), Task(1, "b")), []float64{negZero, 0}, negZero},
		{Par(Task(0, "a"), Task(1, "b"), Task(2, "c")), []float64{0, negZero, 0}, 0},
		{Choice([]float64{0.5, 0.5}, Task(0, "a"), Task(1, "b")), []float64{negZero, negZero}, 0},
	}
	for _, c := range cases {
		p := c.w.Compile()
		regs := make([]float64, p.Regs())
		copy(regs, c.x)
		got := p.Eval(regs)
		if math.Float64bits(got) != math.Float64bits(c.want) || math.Float64bits(c.w.ResponseTime(c.x)) != math.Float64bits(c.want) {
			t.Errorf("%v at %v: program %v, tree %v, want %v", c.w, c.x, got, c.w.ResponseTime(c.x), c.want)
		}
	}
	if got := Seq(Task(0, "a"), Task(1, "b")).TimeoutCount([]float64{negZero, negZero}); math.Signbit(got) {
		t.Errorf("TimeoutCount(−0, −0) = −0, want +0")
	}
}

// TestTimeoutCountConcurrentFirstUse: goroutines racing to compile a
// node's cached timeout-count program all get the right sum.
func TestTimeoutCountConcurrentFirstUse(t *testing.T) {
	wf := EDiaMoND()
	x := []float64{1, 2, 3, 4, 5, 6}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 100; k++ {
				if got := wf.TimeoutCount(x); got != 21 {
					t.Errorf("TimeoutCount = %v, want 21", got)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestTimeoutCountDoesNotAllocate: TimeoutCount runs the node's cached
// compiled sum, so after the first call it allocates nothing — the
// discrete timeout-count D-CPT calls it bins^n × samples times per build.
func TestTimeoutCountDoesNotAllocate(t *testing.T) {
	wf := EDiaMoND()
	x := []float64{1, 2, 3, 4, 5, 6}
	wf.TimeoutCount(x)
	if avg := testing.AllocsPerRun(100, func() { wf.TimeoutCount(x) }); avg != 0 {
		t.Fatalf("TimeoutCount allocates %v per call, want 0", avg)
	}
	prog := wf.Compile()
	regs := make([]float64, prog.Regs())
	copy(regs, x)
	if avg := testing.AllocsPerRun(100, func() { prog.Eval(regs) }); avg != 0 {
		t.Fatalf("Program.Eval allocates %v per call, want 0", avg)
	}
}

package workflow

import "math"

// Program is a workflow function compiled to a flat list of instructions
// over one register file: the first registers hold the per-service inputs
// x (indexed by service, up to the largest index), and each instruction
// but the last writes its result to its own register after them.
// Evaluation walks the list once — no recursion, no allocation — which is
// what the discrete D-CPT's bins^n × samples evaluations of f need.
//
// Every instruction performs the same floating-point operations, in the
// same order, as the tree walk it replaces, so Eval is bit-identical to
// ResponseTime (or TimeoutCount) for every input, ±0 and ±Inf included; a
// NaN result is NaN in both, though which NaN payload survives an
// operation on two NaNs is up to the compiler. A Program is immutable and
// safe for concurrent use; each goroutine supplies its own registers.
type Program struct {
	inputs int
	regs   int
	code   []instr
	args   []int32   // operand registers, instr.lo:instr.hi
	coefs  []float64 // choice probabilities and loop divisors, from instr.c
	out    int32     // result register when code is empty (a lone task)
}

type opcode uint8

const (
	opSum    opcode = iota // 0.0 + r[a0] + r[a1] + ... (sequence, timeout count)
	opMax                  // -Inf, then r[a] where r[a] > m (parallel)
	opChoice               // 0.0 + p0*r[a0] + p1*r[a1] + ... (choice)
	opDiv                  // r[a0] / (1 − p) (loop)
	// Two-operand sums and maxes, the common block shape, read a0 and a1
	// from the instruction instead of looping over args: with the D-CPT's
	// workers on both CPUs of a 2-vCPU host, the operand loop made a
	// 6^6-row discrete build about 1.4× slower.
	opSum2
	opMax2
)

type instr struct {
	op     opcode
	dst    int32 // result register
	lo, hi int32 // operands args[lo:hi]
	c      int32 // first coefficient in coefs
	a0, a1 int32 // args[lo], args[lo+1] when present
}

// Compile compiles the response-time function f of ResponseTime.
func (n *Node) Compile() *Program {
	p := newProgram(n)
	if r := p.emit(n); len(p.code) == 0 {
		p.out = r
	}
	p.finish()
	return p
}

// CompileTimeoutCount compiles the timeout-count function of TimeoutCount:
// one sum over the sorted service indices.
func (n *Node) CompileTimeoutCount() *Program {
	p := newProgram(n)
	lo := int32(len(p.args))
	for _, s := range n.Services() {
		p.args = append(p.args, int32(s))
	}
	p.push(opSum, lo)
	p.finish()
	return p
}

func newProgram(n *Node) *Program {
	inputs := 0
	for _, s := range n.Services() {
		inputs = max(inputs, s+1)
	}
	return &Program{inputs: inputs}
}

// emit appends the instructions of subtree n in post-order and returns the
// register holding its value.
func (p *Program) emit(n *Node) int32 {
	if n.kind == kindTask {
		return int32(n.service)
	}
	ops := make([]int32, len(n.children))
	for i, c := range n.children {
		ops[i] = p.emit(c)
	}
	lo := int32(len(p.args))
	p.args = append(p.args, ops...)
	switch n.kind {
	case kindSeq:
		return p.push(opSum, lo)
	case kindPar:
		return p.push(opMax, lo)
	case kindChoice:
		r := p.push(opChoice, lo)
		p.coefs = append(p.coefs, n.probs...)
		return r
	case kindLoop:
		// 1 − p is the same rounding whether taken here or per call.
		r := p.push(opDiv, lo)
		p.coefs = append(p.coefs, 1-n.loopP)
		return r
	}
	panic("workflow: unknown construct")
}

// push appends an instruction over args[lo:] whose coefficients, if any,
// start at the current end of coefs, and returns its result register.
func (p *Program) push(op opcode, lo int32) int32 {
	dst := int32(p.inputs + len(p.code))
	in := instr{op: op, dst: dst, lo: lo, hi: int32(len(p.args)), c: int32(len(p.coefs))}
	ops := p.args[lo:]
	if len(ops) > 0 {
		in.a0 = ops[0]
	}
	if len(ops) == 2 {
		in.a1 = ops[1]
		switch op {
		case opSum:
			in.op = opSum2
		case opMax:
			in.op = opMax2
		}
	}
	p.code = append(p.code, in)
	return dst
}

// finish sizes the register file: the last instruction returns its value
// instead of storing it, so it needs no register.
func (p *Program) finish() {
	p.regs = p.inputs + max(len(p.code)-1, 0)
}

// Regs returns the register-file length Eval needs.
func (p *Program) Regs() int { return p.regs }

// Eval evaluates the program. r starts with the inputs x and must have
// length at least Regs(); registers past the inputs are overwritten. A
// timeout-count program needs no registers past its inputs, so Eval can
// run on x itself.
func (p *Program) Eval(r []float64) float64 {
	if len(p.code) == 0 {
		return r[p.out]
	}
	var v float64
	for k := range p.code {
		if k > 0 {
			// The previous result is stored only once another
			// instruction follows: the last one returns its value.
			r[p.code[k-1].dst] = v
		}
		in := &p.code[k]
		switch in.op {
		case opSum2:
			v = 0.0 + r[in.a0] + r[in.a1]
		case opMax2:
			v = math.Inf(-1)
			if x := r[in.a0]; x > v {
				v = x
			}
			if x := r[in.a1]; x > v {
				v = x
			}
		case opSum:
			v = 0.0
			for _, a := range p.args[in.lo:in.hi] {
				v += r[a]
			}
		case opMax:
			v = math.Inf(-1)
			for _, a := range p.args[in.lo:in.hi] {
				if x := r[a]; x > v {
					v = x
				}
			}
		case opChoice:
			args := p.args[in.lo:in.hi]
			coefs := p.coefs[in.c : int(in.c)+len(args)]
			v = 0.0
			for i, a := range args {
				v += coefs[i] * r[a]
			}
		case opDiv:
			v = r[in.a0] / p.coefs[in.c]
		}
	}
	return v
}

// timeoutCountProgram returns the node's compiled timeout-count program,
// compiling it on first use. Concurrent first calls may each compile; any
// of the identical results is kept.
func (n *Node) timeoutCountProgram() *Program {
	if p := n.tcProg.Load(); p != nil {
		return p
	}
	p := n.CompileTimeoutCount()
	n.tcProg.Store(p)
	return p
}

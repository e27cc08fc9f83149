package asm

import (
	"fmt"

	"repro/internal/raw"
)

// Interp executes an assembled TileProgram on a tile's micro-op executor,
// lowering one instruction per refill. Cycle costs follow the thesis's
// model:
//
//   - ALU ops and taken control flow: 1 cycle (static branch prediction,
//     no penalty for predicted branches, §3.2);
//   - a send to $csto: 1 cycle, blocking while the port is full;
//   - an ALU use of $csti: decode + execute, so the consuming instruction
//     completes the cycle after the word becomes available;
//   - move $csto,$csti: the 1 cycle/word streaming idiom;
//   - lw/sw: 3-cycle cache hit, misses stall for the DRAM round trip.
type Interp struct {
	prog *TileProgram
	pc   int
	// cur is the index of the instruction lowered last, which the
	// interpreter's steps execute and retire.
	cur    int
	regs   [32]raw.Word
	halted bool
	// latch holds the word the current instruction read from $csti, or the
	// word a lw into $csto loaded, until the instruction uses it. It is
	// an array so that the lw's SendN can read it as a slice.
	latch [1]raw.Word

	// Retired counts completed instructions.
	Retired int64
}

// The interpreter's steps: stepRetire retires the current instruction,
// stepExec executes its register write, branch or jump and then retires
// it.
const (
	stepRetire raw.Step = iota + 1
	stepExec
)

// NewInterp creates an interpreter for prog.
func NewInterp(prog *TileProgram) *Interp { return &Interp{prog: prog} }

// Reg returns the value of register n.
func (it *Interp) Reg(n int) raw.Word { return it.regs[n] }

// SetReg sets register n (useful for test setup).
func (it *Interp) SetReg(n int, v raw.Word) {
	if n != 0 {
		it.regs[n] = v
	}
}

// Halted reports whether the program has executed halt.
func (it *Interp) Halted() bool { return it.halted }

// Quiesced implements raw.Quiescer: once halted is latched, a refill is a
// permanent no-op with no side effects, so the fast engine may macro-step
// past the idle tile. The halt latch is sticky — nothing in the
// interpreter clears it short of loading a new program, which reinstalls
// firmware and rebuilds the engine bindings.
func (it *Interp) Quiesced() bool { return it.halted }

// PC returns the index of the next instruction to lower. Except after a
// jr to a computed address, it is always within [0, ProgramLen()].
func (it *Interp) PC() int { return it.pc }

// ProgramLen returns the number of assembled instructions.
func (it *Interp) ProgramLen() int { return len(it.prog.instrs) }

// Step implements raw.Firmware: a refill lowers the next instruction to
// micro-ops, and the instruction's steps execute and retire it.
func (it *Interp) Step(e *raw.Exec, s raw.Step) {
	switch s {
	case raw.Refill:
		it.lower(e)
	case stepExec:
		it.exec(&it.prog.instrs[it.cur])
		it.Retired++
	case stepRetire:
		it.Retired++
	}
}

// lower enqueues the next instruction's micro-ops. The queue is empty
// when it runs, so every register it reads is final: only this
// instruction's own steps write registers.
func (it *Interp) lower(e *raw.Exec) {
	if it.halted || it.pc >= len(it.prog.instrs) {
		it.halted = true
		return
	}
	it.cur = it.pc
	in := &it.prog.instrs[it.pc]
	it.pc++ // default fallthrough; branches overwrite

	switch in.op {
	case tNOP:
		e.Then(stepRetire)
	case tHALT:
		it.halted = true
	case tALU, tALUI:
		netSrc := in.src1 == regCSTI || (in.op == tALU && in.src2 == regCSTI)
		switch {
		case in.dst == regCSTO && !netSrc:
			// e.g. `or $csto, $0, $5`: computes and sends in one cycle.
			e.Send(alu(in.alu, it.regs[in.src1], it.operandB(in)))
			e.OnDone(stepRetire)
		case netSrc:
			// e.g. `and $5, $5, $csti`: the word is received (decode) and
			// the ALU op executes the following cycle — Figure 3-2's
			// cycles 4,5.
			e.Recv(&it.latch[0])
			e.Then(stepExec)
		default:
			e.Then(stepExec)
		}
	case tMOVE:
		switch {
		case in.dst == regCSTO && in.src1 == regCSTI:
			e.Forward(1)
			e.OnDone(stepRetire)
		case in.dst == regCSTO:
			e.Send(it.regs[in.src1])
			e.OnDone(stepRetire)
		case in.src1 == regCSTI:
			e.Recv(it.reg(in.dst))
			e.OnDone(stepRetire)
		default:
			e.Then(stepExec)
		}
	case tLW:
		addr := it.regs[in.src1] + raw.Word(in.imm)
		if in.dst == regCSTO {
			// The send reads the latch as it fires, after the load.
			e.CacheRead(addr, &it.latch[0])
			e.SendN(1, it.latch[:])
		} else {
			e.CacheRead(addr, it.reg(in.dst))
		}
		e.OnDone(stepRetire)
	case tSW:
		// The store retires as its cache access starts, this cycle.
		e.CacheWrite(it.regs[in.src1]+raw.Word(in.imm), it.regs[in.dst])
		it.Retired++
	case tBEQ, tBNE:
		if in.src1 == regCSTI || in.src2 == regCSTI {
			e.Recv(&it.latch[0])
		}
		e.Then(stepExec)
	case tLI, tJMP, tJAL, tJR:
		e.Then(stepExec)
	}
}

// exec runs the part of instruction in that takes effect in its step.
func (it *Interp) exec(in *tInstr) {
	switch in.op {
	case tLI:
		it.write(in.dst, raw.Word(in.imm))
	case tALU, tALUI:
		if in.dst == regCSTO {
			panic("asm: ALU with both network source and destination not supported")
		}
		it.write(in.dst, alu(in.alu, it.operand(in.src1), it.operandB(in)))
	case tMOVE:
		it.write(in.dst, it.regs[in.src1])
	case tBEQ, tBNE:
		a, b := it.operand(in.src1), it.operand(in.src2)
		taken := a == b
		if in.op == tBNE {
			taken = a != b
		}
		if taken {
			it.pc = in.tgt
		}
	case tJMP:
		it.pc = in.tgt
	case tJAL:
		it.write(31, raw.Word(it.cur+1))
		it.pc = in.tgt
	case tJR:
		it.pc = int(it.regVal(in.src1))
	}
}

// write stores to a register, ignoring writes to $0.
func (it *Interp) write(dst int, v raw.Word) {
	if p := it.reg(dst); p != nil {
		*p = v
	}
}

// reg returns where a word loaded or received into register dst lands:
// nil, which discards it, for $0 and the network ports.
func (it *Interp) reg(dst int) *raw.Word {
	if dst != 0 && dst < 32 {
		return &it.regs[dst]
	}
	return nil
}

func alu(k aluKind, a, b raw.Word) raw.Word {
	switch k {
	case aADD:
		return a + b
	case aSUB:
		return a - b
	case aOR:
		return a | b
	case aAND:
		return a & b
	case aXOR:
		return a ^ b
	case aSLL:
		return a << (b & 31)
	case aSRL:
		return a >> (b & 31)
	case aMUL:
		return a * b
	case aSLT:
		if int32(a) < int32(b) {
			return 1
		}
		return 0
	case aSLTU:
		if a < b {
			return 1
		}
		return 0
	}
	panic("asm: bad alu kind")
}

// regVal reads a general register, returning 0 for network ports.
func (it *Interp) regVal(n int) raw.Word {
	if n < 0 || n >= 32 {
		return 0
	}
	return it.regs[n]
}

// operand reads source register n: the latched word for $csti.
func (it *Interp) operand(n int) raw.Word {
	if n == regCSTI {
		return it.latch[0]
	}
	return it.regVal(n)
}

// operandB is an ALU instruction's second operand: the immediate, or
// its second source register.
func (it *Interp) operandB(in *tInstr) raw.Word {
	if in.op == tALUI {
		return raw.Word(in.imm)
	}
	return it.operand(in.src2)
}

// Load assembles src and installs the interpreter as tile t's firmware,
// returning the interpreter for inspection.
func Load(t *raw.Tile, src string) (*Interp, error) {
	prog, err := AssembleTile(src)
	if err != nil {
		return nil, err
	}
	it := NewInterp(prog)
	t.Exec().SetFirmware(it)
	return it, nil
}

// MustLoad is Load that panics on assembly errors (tests, examples).
func MustLoad(t *raw.Tile, src string) *Interp {
	it, err := Load(t, src)
	if err != nil {
		panic(fmt.Sprintf("asm: %v", err))
	}
	return it
}

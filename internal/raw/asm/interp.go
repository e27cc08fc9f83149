package asm

import (
	"fmt"

	"repro/internal/raw"
)

// Interp executes an assembled TileProgram on a tile's micro-op executor,
// one instruction per Refill. Cycle costs follow the thesis's model:
//
//   - ALU ops and taken control flow: 1 cycle (static branch prediction,
//     no penalty for predicted branches, §3.2);
//   - a send to $csto: 1 cycle, blocking while the port is full;
//   - an ALU use of $csti: decode + execute, so the consuming instruction
//     completes the cycle after the word becomes available;
//   - move $csto,$csti: the 1 cycle/word streaming idiom;
//   - lw/sw: 3-cycle cache hit, misses stall for the DRAM round trip.
type Interp struct {
	prog   *TileProgram
	pc     int
	regs   [32]raw.Word
	halted bool
	// latch holds the word the current instruction read from $csti, or the
	// word a lw into $csto loaded, until the instruction uses it.
	latch raw.Word

	// Retired counts completed instructions.
	Retired int64
}

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

// Quiesced implements raw.Quiescer: once halted is latched, Refill is a
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

// Refill lowers the next instruction to micro-ops. It implements
// raw.Firmware.
func (it *Interp) Refill(e *raw.Exec) {
	if it.halted || it.pc >= len(it.prog.instrs) {
		it.halted = true
		return
	}
	in := &it.prog.instrs[it.pc]
	it.pc++ // default fallthrough; branches overwrite
	retire := func() { it.Retired++ }

	switch in.op {
	case tNOP:
		e.Then(func(*raw.Exec) { retire() })
	case tHALT:
		it.halted = true
	case tLI:
		e.Then(func(*raw.Exec) { it.write(in.dst, raw.Word(in.imm)); retire() })
	case tALU, tALUI:
		it.lowerALU(e, in, retire)
	case tMOVE:
		it.lowerMove(e, in, retire)
	case tLW:
		addr := it.regs[in.src1] + raw.Word(in.imm)
		if in.dst == regCSTO {
			e.CacheRead(addr, &it.latch)
			e.SendFunc(func() raw.Word { retire(); return it.latch })
		} else {
			e.CacheRead(addr, it.reg(in.dst))
			e.OnDone(retire)
		}
	case tSW:
		// The store retires as its cache access starts, this cycle.
		e.CacheWrite(it.regs[in.src1]+raw.Word(in.imm), it.regs[in.dst])
		retire()
	case tBEQ, tBNE:
		it.lowerBranch(e, in, retire)
	case tJMP:
		e.Then(func(*raw.Exec) { it.pc = in.tgt; retire() })
	case tJAL:
		ret := it.pc // already advanced past the jal
		e.Then(func(*raw.Exec) {
			it.write(31, raw.Word(ret))
			it.pc = in.tgt
			retire()
		})
	case tJR:
		e.Then(func(*raw.Exec) {
			it.pc = int(it.regVal(in.src1))
			retire()
		})
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

// regVal reads a general register, returning 0 for network ports (whose
// values are substituted by the caller after a Recv).
func (it *Interp) regVal(n int) raw.Word {
	if n < 0 || n >= 32 {
		return 0
	}
	return it.regs[n]
}

func (it *Interp) lowerALU(e *raw.Exec, in *tInstr, retire func()) {
	getB := func() raw.Word {
		if in.op == tALUI {
			return raw.Word(in.imm)
		}
		return it.regVal(in.src2)
	}
	netSrc := in.src1 == regCSTI || (in.op == tALU && in.src2 == regCSTI)
	apply := func(a, b raw.Word) {
		v := alu(in.alu, a, b)
		if in.dst == regCSTO {
			panic("asm: ALU with both network source and destination not supported")
		}
		it.write(in.dst, v)
		retire()
	}
	switch {
	case in.dst == regCSTO && !netSrc:
		// e.g. `or $csto, $0, $5`: computes and sends in one cycle.
		e.SendFunc(func() raw.Word {
			retire()
			return alu(in.alu, it.regs[in.src1], getB())
		})
	case netSrc:
		// e.g. `and $5, $5, $csti`: the word is received (decode) and the
		// ALU op executes the following cycle — Figure 3-2's cycles 4,5.
		e.Recv(&it.latch)
		e.Then(func(*raw.Exec) {
			a, b := it.regVal(in.src1), getB()
			if in.src1 == regCSTI {
				a = it.latch
			}
			if in.op == tALU && in.src2 == regCSTI {
				b = it.latch
			}
			apply(a, b)
		})
	default:
		e.Then(func(*raw.Exec) { apply(it.regVal(in.src1), getB()) })
	}
}

func (it *Interp) lowerMove(e *raw.Exec, in *tInstr, retire func()) {
	switch {
	case in.dst == regCSTO && in.src1 == regCSTI:
		e.Forward(1)
		e.OnDone(retire)
	case in.dst == regCSTO:
		e.SendFunc(func() raw.Word { retire(); return it.regs[in.src1] })
	case in.src1 == regCSTI:
		e.Recv(it.reg(in.dst))
		e.OnDone(retire)
	default:
		e.Then(func(*raw.Exec) { it.write(in.dst, it.regs[in.src1]); retire() })
	}
}

func (it *Interp) lowerBranch(e *raw.Exec, in *tInstr, retire func()) {
	if in.src1 == regCSTI || in.src2 == regCSTI {
		e.Recv(&it.latch)
		e.Then(func(*raw.Exec) {
			a, b := it.regVal(in.src1), it.regVal(in.src2)
			if in.src1 == regCSTI {
				a = it.latch
			}
			if in.src2 == regCSTI {
				b = it.latch
			}
			it.branch(in, a, b)
			retire()
		})
		return
	}
	e.Then(func(*raw.Exec) {
		it.branch(in, it.regs[in.src1], it.regs[in.src2])
		retire()
	})
}

func (it *Interp) branch(in *tInstr, a, b raw.Word) {
	taken := a == b
	if in.op == tBNE {
		taken = a != b
	}
	if taken {
		it.pc = in.tgt
	}
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

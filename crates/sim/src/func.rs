//! A functional (in-order, timing-free) reference emulator.
//!
//! The differential oracle for the out-of-order pipeline: on any
//! program, the architectural state produced by [`Machine`] must match
//! the state produced by [`Emulator`] exactly.
//!
//! The scan service leans on that equivalence in production:
//! `pandora_server::scan` takes the memory image a victim's reference
//! call leaves behind from one emulator run, instead of one pipeline
//! run per optimization class and trial. Only a program that reads the
//! cycle counter still needs the pipeline there, because `rdcycle`
//! here returns the instruction count.
//!
//! [`Machine`]: crate::Machine

use std::error::Error;
use std::fmt;

use pandora_isa::{Instr, Program, Reg};

use crate::mem::memory::{MemFault, Memory};

/// Why functional execution stopped abnormally.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EmuError {
    /// A data access faulted.
    Mem(MemFault),
    /// The step budget ran out before `halt`.
    StepLimit {
        /// The exhausted budget.
        steps: u64,
    },
    /// Control flow left the program (fell off the end or a wild `jalr`).
    WildPc {
        /// The runaway instruction index.
        pc: usize,
    },
}

impl fmt::Display for EmuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EmuError::Mem(m) => write!(f, "{m}"),
            EmuError::StepLimit { steps } => {
                write!(f, "no halt within {steps} steps")
            }
            EmuError::WildPc { pc } => write!(f, "control flow left the program at pc {pc}"),
        }
    }
}

impl Error for EmuError {}

impl From<MemFault> for EmuError {
    fn from(m: MemFault) -> EmuError {
        EmuError::Mem(m)
    }
}

/// The functional emulator: architectural registers plus a memory.
#[derive(Clone, Debug)]
pub struct Emulator {
    regs: [u64; Reg::COUNT],
    mem: Memory,
    /// Dynamic instruction count; also returned by `rdcycle`, so that
    /// functional runs are deterministic (it is *not* a cycle count).
    steps: u64,
}

impl Emulator {
    /// Creates an emulator with a zeroed register file over `mem`.
    #[must_use]
    pub fn new(mem: Memory) -> Emulator {
        Emulator {
            regs: [0; Reg::COUNT],
            mem,
            steps: 0,
        }
    }

    /// Reads an architectural register.
    #[must_use]
    pub fn reg(&self, r: Reg) -> u64 {
        self.regs[r.index()]
    }

    /// Writes an architectural register (`x0` writes are ignored).
    pub fn set_reg(&mut self, r: Reg, v: u64) {
        if !r.is_zero() {
            self.regs[r.index()] = v;
        }
    }

    /// The memory.
    #[must_use]
    pub fn mem(&self) -> &Memory {
        &self.mem
    }

    /// Mutable access to the memory.
    pub fn mem_mut(&mut self) -> &mut Memory {
        &mut self.mem
    }

    /// Runs `prog` from instruction 0 until `halt`, for at most
    /// `max_steps` dynamic instructions.
    ///
    /// # Errors
    ///
    /// * [`EmuError::Mem`] on an out-of-bounds data access,
    /// * [`EmuError::StepLimit`] if `halt` is not reached in time,
    /// * [`EmuError::WildPc`] if control flow leaves the program.
    pub fn run(&mut self, prog: &Program, max_steps: u64) -> Result<(), EmuError> {
        let mut pc = 0usize;
        let start = self.steps;
        loop {
            if self.steps - start >= max_steps {
                return Err(EmuError::StepLimit { steps: max_steps });
            }
            let Some(&instr) = prog.get(pc) else {
                return Err(EmuError::WildPc { pc });
            };
            self.steps += 1;
            pc = match self.step_at(instr, pc)? {
                Some(next) => next,
                None => return Ok(()),
            };
        }
    }

    /// Executes one instruction at `pc`; returns the next pc, or `None`
    /// on `halt`.
    fn step_at(&mut self, instr: Instr, pc: usize) -> Result<Option<usize>, EmuError> {
        let next = match instr {
            Instr::AluRR { op, rd, rs1, rs2 } => {
                let v = op.eval(self.reg(rs1), self.reg(rs2));
                self.set_reg(rd, v);
                pc + 1
            }
            Instr::AluRI { op, rd, rs1, imm } => {
                let v = op.eval(self.reg(rs1), imm as u64);
                self.set_reg(rd, v);
                pc + 1
            }
            Instr::Fp { op, rd, rs1, rs2 } => {
                let v = op.eval(self.reg(rs1), self.reg(rs2));
                self.set_reg(rd, v);
                pc + 1
            }
            Instr::Li { rd, imm } => {
                self.set_reg(rd, imm);
                pc + 1
            }
            Instr::Load {
                rd,
                base,
                offset,
                width,
                signed,
            } => {
                let addr = self.reg(base).wrapping_add(offset as u64);
                let raw = self.mem.read(addr, width)?;
                let v = if signed {
                    sign_extend(raw, width.bytes())
                } else {
                    raw
                };
                self.set_reg(rd, v);
                pc + 1
            }
            Instr::Store {
                src,
                base,
                offset,
                width,
            } => {
                let addr = self.reg(base).wrapping_add(offset as u64);
                self.mem.write(addr, self.reg(src), width)?;
                pc + 1
            }
            Instr::Branch {
                cond,
                rs1,
                rs2,
                target,
            } => {
                if cond.eval(self.reg(rs1), self.reg(rs2)) {
                    target
                } else {
                    pc + 1
                }
            }
            Instr::Jal { rd, target } => {
                self.set_reg(rd, (pc + 1) as u64);
                target
            }
            Instr::Jalr { rd, base, offset } => {
                let t = self.reg(base).wrapping_add(offset as u64) as usize;
                self.set_reg(rd, (pc + 1) as u64);
                t
            }
            Instr::RdCycle { rd } => {
                self.set_reg(rd, self.steps);
                pc + 1
            }
            Instr::Flush { .. } | Instr::Fence | Instr::Nop => pc + 1,
            Instr::Halt => return Ok(None),
        };
        Ok(Some(next))
    }
}

/// Sign-extends the low `bytes` bytes of `v` to 64 bits.
#[must_use]
pub fn sign_extend(v: u64, bytes: usize) -> u64 {
    let bits = bytes * 8;
    if bits >= 64 {
        return v;
    }
    let shift = 64 - bits;
    (((v << shift) as i64) >> shift) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use pandora_isa::Asm;

    fn run(build: impl FnOnce(&mut Asm)) -> Emulator {
        let mut a = Asm::new();
        build(&mut a);
        a.halt();
        let p = a.assemble().unwrap();
        let mut e = Emulator::new(Memory::new(4096));
        e.run(&p, 100_000).unwrap();
        e
    }

    #[test]
    fn loop_sums() {
        let e = run(|a| {
            a.li(Reg::T1, 10);
            a.label("l");
            a.add(Reg::T2, Reg::T2, Reg::T1);
            a.addi(Reg::T1, Reg::T1, -1);
            a.bnez(Reg::T1, "l");
        });
        assert_eq!(e.reg(Reg::T2), 55);
    }

    #[test]
    fn memory_roundtrip_with_sign_extension() {
        let e = run(|a| {
            a.li(Reg::T0, 0xFFu64);
            a.sb(Reg::T0, Reg::ZERO, 100);
            a.lbu(Reg::T1, Reg::ZERO, 100);
            a.load(Reg::T2, Reg::ZERO, 100, pandora_isa::Width::Byte, true);
        });
        assert_eq!(e.reg(Reg::T1), 0xFF);
        assert_eq!(e.reg(Reg::T2), u64::MAX);
    }

    #[test]
    fn x0_stays_zero() {
        let e = run(|a| {
            a.li(Reg::ZERO, 77);
            a.addi(Reg::ZERO, Reg::ZERO, 5);
            a.mv(Reg::T0, Reg::ZERO);
        });
        assert_eq!(e.reg(Reg::T0), 0);
    }

    #[test]
    fn jal_and_ret() {
        let e = run(|a| {
            a.jal(Reg::RA, "fn");
            a.li(Reg::T1, 9);
            a.j("end");
            a.label("fn");
            a.li(Reg::T0, 7);
            a.ret();
            a.label("end");
        });
        assert_eq!(e.reg(Reg::T0), 7);
        assert_eq!(e.reg(Reg::T1), 9);
    }

    #[test]
    fn step_limit_detected() {
        let mut a = Asm::new();
        a.label("spin");
        a.j("spin");
        let p = a.assemble().unwrap();
        let mut e = Emulator::new(Memory::new(64));
        assert_eq!(e.run(&p, 100), Err(EmuError::StepLimit { steps: 100 }));
    }

    #[test]
    fn fall_off_end_is_wild_pc() {
        let mut a = Asm::new();
        a.nop();
        let p = a.assemble().unwrap();
        let mut e = Emulator::new(Memory::new(64));
        assert_eq!(e.run(&p, 100), Err(EmuError::WildPc { pc: 1 }));
    }

    #[test]
    fn mem_fault_propagates() {
        let mut a = Asm::new();
        a.li(Reg::T0, 1 << 40);
        a.ld(Reg::T1, Reg::T0, 0);
        a.halt();
        let p = a.assemble().unwrap();
        let mut e = Emulator::new(Memory::new(64));
        assert!(matches!(e.run(&p, 100), Err(EmuError::Mem(_))));
    }

    #[test]
    fn sign_extend_widths() {
        assert_eq!(sign_extend(0x80, 1), 0xFFFF_FFFF_FFFF_FF80);
        assert_eq!(sign_extend(0x7F, 1), 0x7F);
        assert_eq!(sign_extend(0x8000, 2), 0xFFFF_FFFF_FFFF_8000);
        assert_eq!(sign_extend(0xFFFF_FFFF, 4), u64::MAX);
        assert_eq!(sign_extend(5, 8), 5);
    }
}

use std::fmt;

use crate::Reg;

/// Integer ALU operations.
///
/// `Mul`, `Mulh`, `Div`, `Divu`, `Rem` and `Remu` are multi-cycle on the
/// simulated pipeline; everything else is single-cycle unless a
/// computation-simplification optimization shortens it further.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum AluOp {
    /// Wrapping 64-bit addition.
    Add,
    /// Wrapping 64-bit subtraction.
    Sub,
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Logical shift left (shift amount taken mod 64).
    Sll,
    /// Logical shift right (shift amount taken mod 64).
    Srl,
    /// Arithmetic shift right (shift amount taken mod 64).
    Sra,
    /// Set-less-than, signed: `rd = (rs1 as i64) < (rs2 as i64)`.
    Slt,
    /// Set-less-than, unsigned.
    Sltu,
    /// Low 64 bits of the signed product.
    Mul,
    /// High 64 bits of the unsigned 128-bit product.
    Mulh,
    /// Signed division; division by zero yields all-ones as in RISC-V.
    Div,
    /// Unsigned division; division by zero yields all-ones.
    Divu,
    /// Signed remainder; remainder of division by zero yields the dividend.
    Rem,
    /// Unsigned remainder; remainder of division by zero yields the dividend.
    Remu,
}

impl AluOp {
    /// Evaluates the operation on two 64-bit operand values.
    ///
    /// This is the single architectural definition of ALU semantics; both
    /// the functional emulator and the out-of-order pipeline call it, so
    /// the two can never disagree.
    #[must_use]
    pub fn eval(self, a: u64, b: u64) -> u64 {
        match self {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::And => a & b,
            AluOp::Or => a | b,
            AluOp::Xor => a ^ b,
            AluOp::Sll => a.wrapping_shl(b as u32 & 63),
            AluOp::Srl => a.wrapping_shr(b as u32 & 63),
            AluOp::Sra => ((a as i64).wrapping_shr(b as u32 & 63)) as u64,
            AluOp::Slt => u64::from((a as i64) < (b as i64)),
            AluOp::Sltu => u64::from(a < b),
            AluOp::Mul => (a as i64).wrapping_mul(b as i64) as u64,
            AluOp::Mulh => ((a as u128).wrapping_mul(b as u128) >> 64) as u64,
            AluOp::Div => {
                if b == 0 {
                    u64::MAX
                } else if a as i64 == i64::MIN && b as i64 == -1 {
                    a
                } else {
                    ((a as i64) / (b as i64)) as u64
                }
            }
            AluOp::Divu => a.checked_div(b).unwrap_or(u64::MAX),
            AluOp::Rem => {
                if b == 0 {
                    a
                } else if a as i64 == i64::MIN && b as i64 == -1 {
                    0
                } else {
                    ((a as i64) % (b as i64)) as u64
                }
            }
            AluOp::Remu => a.checked_rem(b).unwrap_or(a),
        }
    }

    /// Whether the operation uses the multiply unit.
    #[must_use]
    pub fn is_mul(self) -> bool {
        matches!(self, AluOp::Mul | AluOp::Mulh)
    }

    /// Whether the operation uses the divide unit.
    #[must_use]
    pub fn is_div(self) -> bool {
        matches!(self, AluOp::Div | AluOp::Divu | AluOp::Rem | AluOp::Remu)
    }
}

/// Double-precision floating-point operations on register bit patterns.
///
/// Operands and results are `f64` values transported in integer
/// registers via their IEEE-754 bit representation. These exist to model
/// the subnormal-operand timing variation exploited by prior work
/// (Andrysco et al., S&P'15) that §IV-B of the paper builds on.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FpOp {
    /// Double-precision addition.
    Add,
    /// Double-precision subtraction.
    Sub,
    /// Double-precision multiplication.
    Mul,
    /// Double-precision division.
    Div,
}

impl FpOp {
    /// Evaluates the operation on two IEEE-754 bit patterns.
    #[must_use]
    pub fn eval(self, a: u64, b: u64) -> u64 {
        let (x, y) = (f64::from_bits(a), f64::from_bits(b));
        let r = match self {
            FpOp::Add => x + y,
            FpOp::Sub => x - y,
            FpOp::Mul => x * y,
            FpOp::Div => x / y,
        };
        r.to_bits()
    }
}

/// Memory access width in bytes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Width {
    /// 1 byte.
    Byte,
    /// 2 bytes.
    Half,
    /// 4 bytes.
    Word,
    /// 8 bytes.
    Dword,
}

impl Width {
    /// The access size in bytes (1, 2, 4 or 8).
    #[must_use]
    pub fn bytes(self) -> usize {
        match self {
            Width::Byte => 1,
            Width::Half => 2,
            Width::Word => 4,
            Width::Dword => 8,
        }
    }
}

/// Branch conditions comparing two register operands.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum BranchCond {
    /// `rs1 == rs2`.
    Eq,
    /// `rs1 != rs2`.
    Ne,
    /// Signed `rs1 < rs2`.
    Lt,
    /// Signed `rs1 >= rs2`.
    Ge,
    /// Unsigned `rs1 < rs2`.
    Ltu,
    /// Unsigned `rs1 >= rs2`.
    Geu,
}

impl BranchCond {
    /// Evaluates the condition on two operand values.
    #[must_use]
    pub fn eval(self, a: u64, b: u64) -> bool {
        match self {
            BranchCond::Eq => a == b,
            BranchCond::Ne => a != b,
            BranchCond::Lt => (a as i64) < (b as i64),
            BranchCond::Ge => (a as i64) >= (b as i64),
            BranchCond::Ltu => a < b,
            BranchCond::Geu => a >= b,
        }
    }
}

/// A single machine instruction.
///
/// The program counter is an *instruction index* into a [`Program`];
/// branch and jump targets are indices resolved by the assembler from
/// symbolic labels.
///
/// [`Program`]: crate::Program
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Instr {
    /// Register-register ALU operation: `rd = op(rs1, rs2)`.
    AluRR {
        /// The operation.
        op: AluOp,
        /// Destination register.
        rd: Reg,
        /// First source register.
        rs1: Reg,
        /// Second source register.
        rs2: Reg,
    },
    /// Register-immediate ALU operation: `rd = op(rs1, imm)`.
    AluRI {
        /// The operation.
        op: AluOp,
        /// Destination register.
        rd: Reg,
        /// First source register.
        rs1: Reg,
        /// Immediate operand.
        imm: i64,
    },
    /// Floating-point operation on f64 bit patterns: `rd = op(rs1, rs2)`.
    Fp {
        /// The operation.
        op: FpOp,
        /// Destination register.
        rd: Reg,
        /// First source register.
        rs1: Reg,
        /// Second source register.
        rs2: Reg,
    },
    /// Load a 64-bit immediate: `rd = imm`.
    Li {
        /// Destination register.
        rd: Reg,
        /// Immediate value.
        imm: u64,
    },
    /// Load from memory: `rd = mem[rs1 + offset]`, zero- or sign-extended.
    Load {
        /// Destination register.
        rd: Reg,
        /// Base address register.
        base: Reg,
        /// Byte offset added to the base.
        offset: i64,
        /// Access width.
        width: Width,
        /// Whether the loaded value is sign-extended.
        signed: bool,
    },
    /// Store to memory: `mem[rs1 + offset] = rs2` (low `width` bytes).
    Store {
        /// Source (data) register.
        src: Reg,
        /// Base address register.
        base: Reg,
        /// Byte offset added to the base.
        offset: i64,
        /// Access width.
        width: Width,
    },
    /// Conditional branch to instruction index `target`.
    Branch {
        /// Branch condition.
        cond: BranchCond,
        /// First source register.
        rs1: Reg,
        /// Second source register.
        rs2: Reg,
        /// Target instruction index.
        target: usize,
    },
    /// Unconditional jump; writes the return index (`pc + 1`) to `rd`.
    Jal {
        /// Destination register for the return index.
        rd: Reg,
        /// Target instruction index.
        target: usize,
    },
    /// Indirect jump to the instruction index in `base + offset`;
    /// writes the return index to `rd`.
    Jalr {
        /// Destination register for the return index.
        rd: Reg,
        /// Base address register.
        base: Reg,
        /// Byte offset added to the base.
        offset: i64,
    },
    /// Read the current cycle counter into `rd` (the receiver's timer).
    RdCycle {
        /// Destination register.
        rd: Reg,
    },
    /// Evict the cache line containing `base + offset` from all cache
    /// levels (a `clflush`-like primitive for attack receivers).
    Flush {
        /// Base address register.
        base: Reg,
        /// Byte offset added to the base.
        offset: i64,
    },
    /// Full pipeline + memory fence: drains the store queue and prevents
    /// reordering across it.
    Fence,
    /// No operation.
    Nop,
    /// Stop the machine.
    Halt,
}

impl Instr {
    /// The architectural source registers read by this instruction.
    #[must_use]
    pub fn sources(&self) -> Vec<Reg> {
        let (regs, n) = self.source_pair();
        regs[..n].to_vec()
    }

    /// The source registers as a fixed pair plus count — the
    /// allocation-free form of [`Instr::sources`]. No instruction
    /// reads more than two registers; unused slots hold `x0`.
    #[must_use]
    pub fn source_pair(&self) -> ([Reg; 2], usize) {
        match *self {
            Instr::AluRR { rs1, rs2, .. } | Instr::Fp { rs1, rs2, .. } => ([rs1, rs2], 2),
            Instr::AluRI { rs1, .. } => ([rs1, Reg::ZERO], 1),
            Instr::Li { .. } | Instr::RdCycle { .. } => ([Reg::ZERO; 2], 0),
            Instr::Load { base, .. } => ([base, Reg::ZERO], 1),
            Instr::Store { src, base, .. } => ([base, src], 2),
            Instr::Branch { rs1, rs2, .. } => ([rs1, rs2], 2),
            Instr::Jal { .. } => ([Reg::ZERO; 2], 0),
            Instr::Jalr { base, .. } => ([base, Reg::ZERO], 1),
            Instr::Flush { base, .. } => ([base, Reg::ZERO], 1),
            Instr::Fence | Instr::Nop | Instr::Halt => ([Reg::ZERO; 2], 0),
        }
    }

    /// The architectural destination register written by this
    /// instruction, if any. `x0` destinations are reported as `None`
    /// because the write is architecturally invisible.
    #[must_use]
    pub fn dest(&self) -> Option<Reg> {
        let rd = match *self {
            Instr::AluRR { rd, .. }
            | Instr::AluRI { rd, .. }
            | Instr::Fp { rd, .. }
            | Instr::Li { rd, .. }
            | Instr::Load { rd, .. }
            | Instr::Jal { rd, .. }
            | Instr::Jalr { rd, .. }
            | Instr::RdCycle { rd } => rd,
            _ => return None,
        };
        (!rd.is_zero()).then_some(rd)
    }
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Instr::AluRR { op, rd, rs1, rs2 } => {
                write!(f, "{} {rd}, {rs1}, {rs2}", format!("{op:?}").to_lowercase())
            }
            Instr::AluRI { op, rd, rs1, imm } => {
                write!(f, "{}i {rd}, {rs1}, {imm}", format!("{op:?}").to_lowercase())
            }
            Instr::Fp { op, rd, rs1, rs2 } => {
                write!(f, "f{} {rd}, {rs1}, {rs2}", format!("{op:?}").to_lowercase())
            }
            Instr::Li { rd, imm } => write!(f, "li {rd}, {imm:#x}"),
            Instr::Load {
                rd,
                base,
                offset,
                width,
                signed,
            } => write!(
                f,
                "l{}{} {rd}, {offset}({base})",
                width_letter(width),
                if signed { "" } else { "u" }
            ),
            Instr::Store {
                src,
                base,
                offset,
                width,
            } => write!(f, "s{} {src}, {offset}({base})", width_letter(width)),
            Instr::Branch {
                cond,
                rs1,
                rs2,
                target,
            } => write!(
                f,
                "b{} {rs1}, {rs2}, @{target}",
                format!("{cond:?}").to_lowercase()
            ),
            Instr::Jal { rd, target } => write!(f, "jal {rd}, @{target}"),
            Instr::Jalr { rd, base, offset } => write!(f, "jalr {rd}, {offset}({base})"),
            Instr::RdCycle { rd } => write!(f, "rdcycle {rd}"),
            Instr::Flush { base, offset } => write!(f, "flush {offset}({base})"),
            Instr::Fence => write!(f, "fence"),
            Instr::Nop => write!(f, "nop"),
            Instr::Halt => write!(f, "halt"),
        }
    }
}

fn width_letter(w: Width) -> char {
    match w {
        Width::Byte => 'b',
        Width::Half => 'h',
        Width::Word => 'w',
        Width::Dword => 'd',
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alu_eval_basics() {
        assert_eq!(AluOp::Add.eval(2, 3), 5);
        assert_eq!(AluOp::Sub.eval(2, 3), u64::MAX);
        assert_eq!(AluOp::Xor.eval(0xff00, 0x0ff0), 0xf0f0);
        assert_eq!(AluOp::Sll.eval(1, 8), 256);
        assert_eq!(AluOp::Srl.eval(u64::MAX, 63), 1);
        assert_eq!(AluOp::Sra.eval(u64::MAX, 63), u64::MAX);
        assert_eq!(AluOp::Slt.eval(u64::MAX, 0), 1, "-1 < 0 signed");
        assert_eq!(AluOp::Sltu.eval(u64::MAX, 0), 0);
    }

    #[test]
    fn alu_shift_amount_is_mod_64() {
        assert_eq!(AluOp::Sll.eval(1, 64), 1);
        assert_eq!(AluOp::Sll.eval(1, 65), 2);
    }

    #[test]
    fn alu_mul_div_semantics() {
        assert_eq!(AluOp::Mul.eval(7, 6), 42);
        assert_eq!(
            AluOp::Mul.eval(u64::MAX, 2),
            (-2i64) as u64,
            "signed wrap of -1 * 2"
        );
        assert_eq!(AluOp::Mulh.eval(u64::MAX, u64::MAX), u64::MAX - 1);
        assert_eq!(AluOp::Div.eval(42, 0), u64::MAX, "div by zero is all ones");
        assert_eq!(AluOp::Rem.eval(42, 0), 42, "rem by zero is dividend");
        assert_eq!(AluOp::Div.eval(i64::MIN as u64, -1i64 as u64), i64::MIN as u64);
        assert_eq!(AluOp::Rem.eval(i64::MIN as u64, -1i64 as u64), 0);
        assert_eq!(AluOp::Divu.eval(7, 2), 3);
        assert_eq!(AluOp::Remu.eval(7, 2), 1);
    }

    #[test]
    fn fp_eval_roundtrips_bits() {
        let a = 1.5f64.to_bits();
        let b = 2.25f64.to_bits();
        assert_eq!(f64::from_bits(FpOp::Add.eval(a, b)), 3.75);
        assert_eq!(f64::from_bits(FpOp::Mul.eval(a, b)), 3.375);
        assert_eq!(f64::from_bits(FpOp::Div.eval(a, b)), 1.5 / 2.25);
    }

    #[test]
    fn branch_cond_eval() {
        assert!(BranchCond::Eq.eval(3, 3));
        assert!(BranchCond::Ne.eval(3, 4));
        assert!(BranchCond::Lt.eval(u64::MAX, 0), "signed -1 < 0");
        assert!(!BranchCond::Ltu.eval(u64::MAX, 0));
        assert!(BranchCond::Geu.eval(u64::MAX, 0));
        assert!(BranchCond::Ge.eval(0, u64::MAX));
    }

    #[test]
    fn sources_and_dest() {
        let i = Instr::AluRR {
            op: AluOp::Add,
            rd: Reg::T0,
            rs1: Reg::T1,
            rs2: Reg::T2,
        };
        assert_eq!(i.sources(), vec![Reg::T1, Reg::T2]);
        assert_eq!(i.dest(), Some(Reg::T0));

        let s = Instr::Store {
            src: Reg::A0,
            base: Reg::SP,
            offset: 8,
            width: Width::Dword,
        };
        assert_eq!(s.sources(), vec![Reg::SP, Reg::A0]);
        assert_eq!(s.dest(), None);
    }

    #[test]
    fn x0_dest_is_hidden() {
        let i = Instr::Li {
            rd: Reg::ZERO,
            imm: 5,
        };
        assert_eq!(i.dest(), None);
    }

    #[test]
    fn width_bytes() {
        assert_eq!(Width::Byte.bytes(), 1);
        assert_eq!(Width::Half.bytes(), 2);
        assert_eq!(Width::Word.bytes(), 4);
        assert_eq!(Width::Dword.bytes(), 8);
    }

    #[test]
    fn display_is_reasonable() {
        let i = Instr::Load {
            rd: Reg::T0,
            base: Reg::SP,
            offset: -8,
            width: Width::Dword,
            signed: true,
        };
        assert_eq!(format!("{i}"), "ld x5, -8(x2)");
    }
}

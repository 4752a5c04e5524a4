//! The instruction set, with the static metadata timing models need.

use crate::reg::Reg;
use std::fmt;

/// A resolved control-flow target: an instruction index in the program.
pub type Target = u32;

/// One tinyisa instruction.
///
/// Branch/jump/call targets are resolved instruction indices (the
/// assembler resolves labels). Memory operands are `base + offset` in
/// *words* — the machine is word-addressed; cache models multiply by the
/// word size to get byte addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // variant fields follow one uniform (rd, rs, rt / imm) scheme
pub enum Instr {
    // Three-register ALU.
    Add(Reg, Reg, Reg),
    Sub(Reg, Reg, Reg),
    Mul(Reg, Reg, Reg),
    /// Division; division by zero yields 0 (no traps in tinyisa).
    Div(Reg, Reg, Reg),
    And(Reg, Reg, Reg),
    Or(Reg, Reg, Reg),
    Xor(Reg, Reg, Reg),
    /// Set-less-than: `rd = (rs < rt) as i64`.
    Slt(Reg, Reg, Reg),
    /// Shift left logical by `rt & 63`.
    Sll(Reg, Reg, Reg),
    /// Shift right logical by `rt & 63`.
    Srl(Reg, Reg, Reg),
    /// Conditional move: `rd = rs` iff `rc != 0` (the predication
    /// primitive used by the single-path transformation).
    Cmov {
        rd: Reg,
        rs: Reg,
        /// Condition register.
        rc: Reg,
    },
    // Immediate ALU.
    Addi(Reg, Reg, i32),
    Slti(Reg, Reg, i32),
    /// Load immediate.
    Li(Reg, i64),
    // Memory: address is `regs[base] + offset` in words.
    Ld {
        rd: Reg,
        base: Reg,
        offset: i32,
    },
    St {
        rs: Reg,
        base: Reg,
        offset: i32,
    },
    // Control flow.
    Beq(Reg, Reg, Target),
    Bne(Reg, Reg, Target),
    Blt(Reg, Reg, Target),
    Bge(Reg, Reg, Target),
    Jmp(Target),
    /// Call: write return address to `r15`, jump to target.
    Call(Target),
    /// Return: jump to `r15`.
    Ret,
    Nop,
    Halt,
}

/// Classification of instructions for timing purposes.
///
/// Pipeline models assign latencies (and execution units) per class;
/// cache models care about `Load`/`Store`; branch predictors about
/// `Branch`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// Single-cycle integer ALU operation.
    Alu,
    /// Integer multiply (longer fixed latency).
    Mul,
    /// Integer divide (variable or long fixed latency).
    Div,
    /// Memory load.
    Load,
    /// Memory store.
    Store,
    /// Conditional branch.
    Branch,
    /// Unconditional jump.
    Jump,
    /// Call or return.
    CallRet,
    /// No-op (and `halt`).
    Nop,
}

impl Instr {
    /// The timing class of the instruction.
    pub fn class(&self) -> OpClass {
        use Instr::*;
        match self {
            Add(..)
            | Sub(..)
            | And(..)
            | Or(..)
            | Xor(..)
            | Slt(..)
            | Sll(..)
            | Srl(..)
            | Cmov { .. }
            | Addi(..)
            | Slti(..)
            | Li(..) => OpClass::Alu,
            Mul(..) => OpClass::Mul,
            Div(..) => OpClass::Div,
            Ld { .. } => OpClass::Load,
            St { .. } => OpClass::Store,
            Beq(..) | Bne(..) | Blt(..) | Bge(..) => OpClass::Branch,
            Jmp(..) => OpClass::Jump,
            Call(..) | Ret => OpClass::CallRet,
            Nop | Halt => OpClass::Nop,
        }
    }

    /// The register written by this instruction, if any.
    pub fn def(&self) -> Option<Reg> {
        use Instr::*;
        match *self {
            Add(rd, ..)
            | Sub(rd, ..)
            | Mul(rd, ..)
            | Div(rd, ..)
            | And(rd, ..)
            | Or(rd, ..)
            | Xor(rd, ..)
            | Slt(rd, ..)
            | Sll(rd, ..)
            | Srl(rd, ..)
            | Addi(rd, ..)
            | Slti(rd, ..)
            | Li(rd, ..) => Some(rd),
            Cmov { rd, .. } => Some(rd),
            Ld { rd, .. } => Some(rd),
            Call(..) => Some(Reg::LINK),
            _ => None,
        }
    }

    /// The registers read by this instruction (up to three).
    pub fn uses(&self) -> Vec<Reg> {
        use Instr::*;
        match *self {
            Add(_, a, b)
            | Sub(_, a, b)
            | Mul(_, a, b)
            | Div(_, a, b)
            | And(_, a, b)
            | Or(_, a, b)
            | Xor(_, a, b)
            | Slt(_, a, b)
            | Sll(_, a, b)
            | Srl(_, a, b) => {
                vec![a, b]
            }
            // Cmov reads its own destination (it may keep the old value).
            Cmov { rd, rs, rc } => vec![rd, rs, rc],
            Addi(_, a, _) | Slti(_, a, _) => vec![a],
            Li(..) => vec![],
            Ld { base, .. } => vec![base],
            St { rs, base, .. } => vec![rs, base],
            Beq(a, b, _) | Bne(a, b, _) | Blt(a, b, _) | Bge(a, b, _) => vec![a, b],
            Jmp(..) | Call(..) => vec![],
            Ret => vec![Reg::LINK],
            Nop | Halt => vec![],
        }
    }

    /// True for instructions that may redirect control flow.
    pub fn is_control(&self) -> bool {
        matches!(
            self.class(),
            OpClass::Branch | OpClass::Jump | OpClass::CallRet
        ) || matches!(self, Instr::Halt)
    }

    /// The static branch/jump/call target, if any.
    pub fn target(&self) -> Option<Target> {
        use Instr::*;
        match *self {
            Beq(_, _, t) | Bne(_, _, t) | Blt(_, _, t) | Bge(_, _, t) | Jmp(t) | Call(t) => Some(t),
            _ => None,
        }
    }

    /// Rewrites the static target (used by the assembler's fixup pass and
    /// by program transformations).
    pub fn with_target(self, new: Target) -> Instr {
        use Instr::*;
        match self {
            Beq(a, b, _) => Beq(a, b, new),
            Bne(a, b, _) => Bne(a, b, new),
            Blt(a, b, _) => Blt(a, b, new),
            Bge(a, b, _) => Bge(a, b, new),
            Jmp(_) => Jmp(new),
            Call(_) => Call(new),
            other => other,
        }
    }

    /// True for conditional branches.
    pub fn is_cond_branch(&self) -> bool {
        self.class() == OpClass::Branch
    }

    /// Writes the instruction in assembler syntax with its static target
    /// (if it has one) rendered as `target`: [`fmt::Display`] passes
    /// `@N`, the disassembler the target's label.
    pub(crate) fn write_with_target(
        &self,
        f: &mut dyn fmt::Write,
        target: &dyn fmt::Display,
    ) -> fmt::Result {
        use Instr::*;
        match *self {
            Add(d, a, b) => write!(f, "add {d}, {a}, {b}"),
            Sub(d, a, b) => write!(f, "sub {d}, {a}, {b}"),
            Mul(d, a, b) => write!(f, "mul {d}, {a}, {b}"),
            Div(d, a, b) => write!(f, "div {d}, {a}, {b}"),
            And(d, a, b) => write!(f, "and {d}, {a}, {b}"),
            Or(d, a, b) => write!(f, "or {d}, {a}, {b}"),
            Xor(d, a, b) => write!(f, "xor {d}, {a}, {b}"),
            Slt(d, a, b) => write!(f, "slt {d}, {a}, {b}"),
            Sll(d, a, b) => write!(f, "sll {d}, {a}, {b}"),
            Srl(d, a, b) => write!(f, "srl {d}, {a}, {b}"),
            Cmov { rd, rs, rc } => write!(f, "cmov {rd}, {rs}, {rc}"),
            Addi(d, a, imm) => write!(f, "addi {d}, {a}, {imm}"),
            Slti(d, a, imm) => write!(f, "slti {d}, {a}, {imm}"),
            Li(d, imm) => write!(f, "li {d}, {imm}"),
            Ld { rd, base, offset } => write!(f, "ld {rd}, {offset}({base})"),
            St { rs, base, offset } => write!(f, "st {rs}, {offset}({base})"),
            Beq(a, b, _) => write!(f, "beq {a}, {b}, {target}"),
            Bne(a, b, _) => write!(f, "bne {a}, {b}, {target}"),
            Blt(a, b, _) => write!(f, "blt {a}, {b}, {target}"),
            Bge(a, b, _) => write!(f, "bge {a}, {b}, {target}"),
            Jmp(_) => write!(f, "jmp {target}"),
            Call(_) => write!(f, "call {target}"),
            Ret => f.write_str("ret"),
            Nop => f.write_str("nop"),
            Halt => f.write_str("halt"),
        }
    }
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let t = self.target().unwrap_or(0);
        self.write_with_target(f, &format_args!("@{t}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(i: u8) -> Reg {
        Reg::new(i)
    }

    #[test]
    fn classes() {
        assert_eq!(Instr::Add(r(1), r(2), r(3)).class(), OpClass::Alu);
        assert_eq!(Instr::Mul(r(1), r(2), r(3)).class(), OpClass::Mul);
        assert_eq!(Instr::Div(r(1), r(2), r(3)).class(), OpClass::Div);
        assert_eq!(
            Instr::Ld {
                rd: r(1),
                base: r(2),
                offset: 0
            }
            .class(),
            OpClass::Load
        );
        assert_eq!(Instr::Beq(r(1), r(2), 0).class(), OpClass::Branch);
        assert_eq!(Instr::Call(0).class(), OpClass::CallRet);
        assert_eq!(Instr::Halt.class(), OpClass::Nop);
    }

    #[test]
    fn defs_and_uses() {
        let add = Instr::Add(r(1), r(2), r(3));
        assert_eq!(add.def(), Some(r(1)));
        assert_eq!(add.uses(), vec![r(2), r(3)]);

        let st = Instr::St {
            rs: r(4),
            base: r(5),
            offset: 8,
        };
        assert_eq!(st.def(), None);
        assert_eq!(st.uses(), vec![r(4), r(5)]);

        assert_eq!(Instr::Call(7).def(), Some(Reg::LINK));
        assert_eq!(Instr::Ret.uses(), vec![Reg::LINK]);

        let cmov = Instr::Cmov {
            rd: r(1),
            rs: r(2),
            rc: r(3),
        };
        assert_eq!(cmov.uses(), vec![r(1), r(2), r(3)]);
    }

    #[test]
    fn control_and_targets() {
        assert!(Instr::Jmp(5).is_control());
        assert!(Instr::Halt.is_control());
        assert!(!Instr::Nop.is_control());
        assert_eq!(Instr::Beq(r(1), r(2), 9).target(), Some(9));
        assert_eq!(Instr::Ret.target(), None);
        assert_eq!(Instr::Jmp(1).with_target(3), Instr::Jmp(3));
        assert_eq!(Instr::Nop.with_target(3), Instr::Nop);
        assert!(Instr::Blt(r(0), r(1), 2).is_cond_branch());
        assert!(!Instr::Jmp(2).is_cond_branch());
    }

    #[test]
    fn display_round_trips_visually() {
        assert_eq!(Instr::Add(r(1), r(2), r(3)).to_string(), "add r1, r2, r3");
        assert_eq!(
            Instr::Ld {
                rd: r(1),
                base: r(2),
                offset: -4
            }
            .to_string(),
            "ld r1, -4(r2)"
        );
        assert_eq!(Instr::Beq(r(1), r(0), 7).to_string(), "beq r1, r0, @7");
    }
}

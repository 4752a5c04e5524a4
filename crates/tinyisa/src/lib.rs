//! # tinyisa
//!
//! A small deterministic RISC instruction set used as the *software
//! substrate* of the predictability reproduction: every timing
//! experiment in the workspace runs programs written in (or generated
//! for) this ISA.
//!
//! The ISA is deliberately conventional — 16 general-purpose registers,
//! word-addressed memory, compare-and-branch, call/return via a link
//! register — because the paper's subject is the *timing* behaviour of
//! the platform underneath, not ISA innovation (with one exception: the
//! PRET experiments add a `deadline`-style instruction at the pipeline
//! level, see the `pipeline-sim` crate).
//!
//! Modules:
//!
//! * [`reg`] / [`instr`] — registers and the instruction set, including
//!   static metadata needed by timing models (op class, defs/uses).
//! * [`program`] — programs, labels, functions.
//! * [`asm`] — a line-oriented assembler and disassembler.
//! * [`exec`] — the functional interpreter producing execution traces
//!   ([`exec::TraceOp`]) that the cycle-level models consume
//!   (trace-driven timing simulation).
//! * [`mod@cfg`] — basic blocks, control-flow graph, natural loops.
//! * [`kernels`] — hand-written workload kernels (sorting, searching,
//!   matrix multiply, …) with loop-bound annotations.
//! * [`codegen`] — a seeded generator of random structured programs for
//!   property-based testing of the analyses.
//!
//! ## Example: assemble and run
//!
//! ```
//! use tinyisa::asm::assemble;
//! use tinyisa::exec::{Machine, MachineConfig};
//!
//! let prog = assemble(r"
//!     li   r1, 5        ; counter
//!     li   r2, 0        ; accumulator
//! loop:
//!     add  r2, r2, r1
//!     addi r1, r1, -1
//!     bne  r1, r0, loop
//!     halt
//! ").unwrap();
//! let run = Machine::new(MachineConfig::default()).run(&prog).unwrap();
//! assert_eq!(run.final_regs[2], 15); // 5+4+3+2+1
//! ```

pub mod asm;
pub mod cfg;
pub mod codegen;
pub mod exec;
pub mod instr;
pub mod kernels;
pub mod program;
pub mod reg;

pub use asm::{assemble, disassemble, AsmError};
pub use cfg::{BasicBlock, Cfg};
pub use exec::{ExecError, Machine, MachineConfig, Run, TraceOp};
pub use instr::{Instr, OpClass};
pub use program::{Function, Program};
pub use reg::Reg;

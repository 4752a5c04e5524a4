//! Seeded random generation of structured programs.
//!
//! The analyses in this workspace (cache must/may, WCET bounds,
//! single-path conversion, branch-prediction bounds) are property-tested
//! against randomly generated — but always terminating and memory-safe —
//! programs. The generator emits structured code only (sequences,
//! if/else, fixed-bound counted loops), so the resulting CFGs are
//! reducible, every loop carries a sound `.loopbound` annotation, and
//! all memory accesses stay inside a designated scratch region.
//!
//! Programs are built as [`Instr`]s directly, with no assembly text in
//! between: forward branches are patched once their label is placed,
//! and the labels, the `generated` function extent and the loop bounds
//! are recorded as the assembler would record them for the equivalent
//! source. [`canonical_source`] is that source.

use crate::instr::{Instr, Target};
use crate::kernels::Kernel;
use crate::program::{Function, Program};
use crate::reg::Reg;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::fmt;

/// Configuration for the program generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GenConfig {
    /// Maximum nesting depth of loops and conditionals.
    pub max_depth: u32,
    /// Maximum number of statements per block.
    pub max_stmts: u32,
    /// Maximum iteration count of generated loops.
    pub max_loop_iters: u32,
    /// Number of input registers (`r1..=r{n}`), at most 4.
    pub input_regs: u8,
    /// Base of the scratch memory region (word address).
    pub mem_base: u32,
    /// Length of the scratch region in words; must be a power of two so
    /// data-dependent addresses can be masked into range.
    pub mem_len: u32,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            max_depth: 3,
            max_stmts: 6,
            max_loop_iters: 8,
            input_regs: 3,
            mem_base: 512,
            mem_len: 64,
        }
    }
}

/// The address register of generated loads and stores.
const ADDR: Reg = Reg::new(14);
/// The three-register ALU operations, in the order the generator draws.
const ALU: [fn(Reg, Reg, Reg) -> Instr; 7] = [
    Instr::Add,
    Instr::Sub,
    Instr::Mul,
    Instr::And,
    Instr::Or,
    Instr::Xor,
    Instr::Slt,
];
/// The conditional branches, in the order the generator draws.
const BRANCH: [fn(Reg, Reg, Target) -> Instr; 4] = [Instr::Beq, Instr::Bne, Instr::Blt, Instr::Bge];

struct Gen {
    rng: StdRng,
    config: GenConfig,
    instrs: Vec<Instr>,
    labels: BTreeMap<String, Target>,
    bounds: BTreeMap<String, u32>,
    next_label: u32,
}

impl Gen {
    fn fresh_label(&mut self, stem: &str) -> String {
        let l = format!("{}_{}", stem, self.next_label);
        self.next_label += 1;
        l
    }

    /// Data registers are r1..r9; loop counters r10..r13.
    fn data_reg(&mut self) -> Reg {
        Reg::new(self.rng.random_range(1..=9u8))
    }

    fn pc(&self) -> Target {
        self.instrs.len() as Target
    }

    /// Places `label` at the next pc and returns that pc.
    fn place(&mut self, label: String) -> Target {
        let pc = self.pc();
        self.labels.insert(label, pc);
        pc
    }

    /// Points the branch or jump at `at` to `target`.
    fn patch(&mut self, at: Target, target: Target) {
        let ins = &mut self.instrs[at as usize];
        *ins = ins.with_target(target);
    }

    fn statement(&mut self, depth: u32) {
        let choice: i32 = self.rng.random_range(0..100);
        match choice {
            // Plain ALU on data registers.
            0..=39 => {
                let d = self.data_reg();
                let a = self.data_reg();
                let b = self.data_reg();
                let op: usize = self.rng.random_range(0..7);
                self.instrs.push(ALU[op](d, a, b));
            }
            40..=49 => {
                let d = self.data_reg();
                let a = self.data_reg();
                let imm: i32 = self.rng.random_range(-64..=64);
                self.instrs.push(Instr::Addi(d, a, imm));
            }
            // Fixed-address load/store within the scratch region.
            50..=59 => {
                let d = self.data_reg();
                let off: u32 = self.rng.random_range(0..self.config.mem_len);
                let addr = self.config.mem_base + off;
                self.instrs.push(Instr::Li(ADDR, addr.into()));
                let ins = if self.rng.random_bool(0.5) {
                    Instr::Ld {
                        rd: d,
                        base: ADDR,
                        offset: 0,
                    }
                } else {
                    Instr::St {
                        rs: d,
                        base: ADDR,
                        offset: 0,
                    }
                };
                self.instrs.push(ins);
            }
            // Data-dependent (masked) load: address = base + (reg & mask).
            60..=69 => {
                let d = self.data_reg();
                let a = self.data_reg();
                let mask = self.config.mem_len - 1;
                self.instrs.push(Instr::Li(ADDR, mask.into()));
                self.instrs.push(Instr::And(ADDR, a, ADDR));
                self.instrs
                    .push(Instr::Addi(ADDR, ADDR, self.config.mem_base as i32));
                self.instrs.push(Instr::Ld {
                    rd: d,
                    base: ADDR,
                    offset: 0,
                });
            }
            // Conditional.
            70..=84 if depth < self.config.max_depth => self.if_else(depth),
            // Counted loop.
            85..=99 if depth < self.config.max_depth => self.counted_loop(depth),
            // At max depth fall back to an ALU op.
            _ => {
                let d = self.data_reg();
                let a = self.data_reg();
                self.instrs.push(Instr::Add(d, a, Reg::ZERO));
            }
        }
    }

    fn block(&mut self, depth: u32) {
        let n = self.rng.random_range(1..=self.config.max_stmts);
        for _ in 0..n {
            self.statement(depth);
        }
    }

    fn if_else(&mut self, depth: u32) {
        let a = self.data_reg();
        let b = self.data_reg();
        let then_l = self.fresh_label("then");
        let end_l = self.fresh_label("endif");
        let cond: usize = self.rng.random_range(0..4);
        let branch = self.pc();
        self.instrs.push(BRANCH[cond](a, b, 0));
        self.block(depth + 1); // else side
        let jump = self.pc();
        self.instrs.push(Instr::Jmp(0));
        let then_pc = self.place(then_l);
        self.patch(branch, then_pc);
        self.block(depth + 1); // then side
        let end_pc = self.place(end_l);
        self.patch(jump, end_pc);
    }

    fn counted_loop(&mut self, depth: u32) {
        // Counter register depends on depth so nested loops never clash.
        let counter = Reg::new(10 + depth.min(3) as u8);
        let iters = self.rng.random_range(1..=self.config.max_loop_iters);
        let head = self.fresh_label("loop");
        self.instrs.push(Instr::Li(counter, iters.into()));
        let head_pc = self.place(head.clone());
        self.block(depth + 1);
        self.instrs.push(Instr::Addi(counter, counter, -1));
        self.instrs.push(Instr::Bne(counter, Reg::ZERO, head_pc));
        self.bounds.insert(head, iters);
    }
}

/// Generates a random structured program as one function `generated`
/// ending in `halt`. Equal `(seed, config)` pairs generate identical
/// programs. Branch targets are labelled `then_N`, `endif_N` and
/// `loop_N` (one counter shared by all three), and every `loop_N`
/// carries its iteration count as a loop bound.
///
/// # Panics
///
/// Panics if `config.mem_len` is not a power of two or
/// `config.input_regs > 4`.
pub fn generate(seed: u64, config: &GenConfig) -> Kernel {
    assert!(
        config.mem_len.is_power_of_two(),
        "mem_len must be a power of two"
    );
    assert!(config.input_regs <= 4, "at most four input registers");
    let name = "generated";
    let mut g = Gen {
        rng: StdRng::seed_from_u64(seed),
        config: *config,
        instrs: Vec::new(),
        labels: BTreeMap::from([(name.to_string(), 0)]),
        bounds: BTreeMap::new(),
        next_label: 0,
    };
    g.block(0);
    g.instrs.push(Instr::Halt);
    let program = Program {
        functions: vec![Function {
            name: name.to_string(),
            start: 0,
            end: g.pc(),
        }],
        instrs: g.instrs,
        labels: g.labels,
        loop_bounds: g.bounds,
    };
    if let Err(e) = program.validate() {
        panic!("generator produced an invalid program: {e}");
    }
    Kernel {
        name,
        program,
        input_regs: (1..=config.input_regs).map(Reg::new).collect(),
        input_mem: Some((config.mem_base, config.mem_len)),
    }
}

/// The canonical textual form of a kernel's program: its disassembly
/// (including the sorted `.loopbound` directives). Two kernels are the
/// same program exactly when their canonical sources are byte-equal,
/// which is what corpus digests and cross-process drift detection hash.
pub fn canonical_source(kernel: &Kernel) -> String {
    crate::asm::disassemble(&kernel.program)
}

/// A stable 64-bit digest (FNV-1a over [`canonical_source`], rendered
/// as 16 hex digits) identifying a generated kernel. Equal
/// `(seed, config)` pairs digest identically on every platform; any
/// change to the generator that alters emitted code changes the digest,
/// which is how sweep campaigns detect *corpus drift* the way sharded
/// campaigns detect registry drift. The source is hashed as it is
/// written, without building the string.
pub fn kernel_digest(kernel: &Kernel) -> String {
    struct Fnv(u64);
    impl fmt::Write for Fnv {
        fn write_str(&mut self, s: &str) -> fmt::Result {
            for &b in s.as_bytes() {
                self.0 ^= b as u64;
                self.0 = self.0.wrapping_mul(0x100_0000_01b3);
            }
            Ok(())
        }
    }
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    crate::asm::write_disassembly(&kernel.program, &mut h).expect("hashing cannot fail");
    format!("{:016x}", h.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::Cfg;
    use crate::exec::{Machine, MachineConfig};

    #[test]
    fn generation_is_deterministic() {
        let c = GenConfig::default();
        let a = generate(42, &c);
        let b = generate(42, &c);
        assert_eq!(a.program, b.program);
        let c2 = generate(43, &c);
        assert_ne!(a.program, c2.program);
    }

    #[test]
    fn generated_programs_always_halt() {
        let m = Machine::new(MachineConfig {
            fuel: 1_000_000,
            ..MachineConfig::default()
        });
        for seed in 0..50 {
            let k = generate(seed, &GenConfig::default());
            let run = m.run(&k.program);
            assert!(run.is_ok(), "seed {seed}: {:?}", run.err());
        }
    }

    #[test]
    fn generated_programs_halt_for_varied_inputs() {
        let m = Machine::default();
        let cfg = GenConfig::default();
        for seed in 0..10 {
            let k = generate(seed, &cfg);
            for input in [-100i64, -1, 0, 1, 7, 1 << 40] {
                let regs: Vec<(Reg, i64)> = k.input_regs.iter().map(|&r| (r, input)).collect();
                let run = m.run_with(&k.program, &regs, &[]);
                assert!(run.is_ok(), "seed {seed} input {input}: {:?}", run.err());
            }
        }
    }

    #[test]
    fn generated_cfgs_are_buildable_with_sound_loops() {
        for seed in 0..30 {
            let k = generate(seed, &GenConfig::default());
            let cfg = Cfg::build(&k.program);
            let loops = cfg.natural_loops();
            // Every annotated loop header corresponds to a natural loop.
            for label in k.program.loop_bounds.keys() {
                let pc = k.program.resolve(label).unwrap();
                let block = cfg.block_of(pc);
                assert!(
                    loops.iter().any(|l| l.header == block),
                    "seed {seed}: annotated header {label} not a natural loop"
                );
            }
        }
    }

    #[test]
    fn loop_bound_annotations_are_dynamically_sound() {
        use std::collections::HashMap;
        let m = Machine::default();
        for seed in 0..20 {
            let k = generate(seed, &GenConfig::default());
            let run = m.run_traced(&k.program).unwrap();
            // Count back-edge executions per header pc.
            let mut counts: HashMap<u32, u32> = HashMap::new();
            for op in &run.trace {
                if op.next_pc <= op.pc {
                    *counts.entry(op.next_pc).or_default() += 1;
                }
            }
            // Total iterations of a loop <= product of enclosing bounds;
            // at minimum the header's own bound must hold per entry. We
            // check the weaker global product bound here.
            let product: u64 = k
                .program
                .loop_bounds
                .values()
                .map(|&b| b.max(1) as u64)
                .product();
            for (label, &bound) in &k.program.loop_bounds {
                let pc = k.program.resolve(label).unwrap();
                if let Some(&c) = counts.get(&pc) {
                    assert!(
                        (c as u64) <= (bound as u64) * product.max(1),
                        "seed {seed}: loop {label} exceeded product bound"
                    );
                }
            }
        }
    }

    #[test]
    fn memory_stays_in_scratch_region() {
        let m = Machine::default();
        let cfg = GenConfig::default();
        for seed in 0..20 {
            let k = generate(seed, &cfg);
            let regs: Vec<(Reg, i64)> = k.input_regs.iter().map(|&r| (r, i64::MAX)).collect();
            let run = m.run_traced_with(&k.program, &regs, &[]).unwrap();
            for op in &run.trace {
                if let Some(addr) = op.mem_addr {
                    assert!(
                        addr >= cfg.mem_base && addr < cfg.mem_base + cfg.mem_len,
                        "seed {seed}: access at {addr} outside scratch region"
                    );
                }
            }
        }
    }

    #[test]
    fn digests_are_deterministic_and_seed_sensitive() {
        let c = GenConfig::default();
        assert_eq!(
            kernel_digest(&generate(7, &c)),
            kernel_digest(&generate(7, &c))
        );
        assert_ne!(
            kernel_digest(&generate(7, &c)),
            kernel_digest(&generate(8, &c))
        );
        let c2 = GenConfig {
            max_stmts: 4,
            ..GenConfig::default()
        };
        assert_ne!(
            kernel_digest(&generate(7, &c)),
            kernel_digest(&generate(7, &c2)),
            "config changes must change the digest"
        );
    }

    #[test]
    fn digests_are_pinned() {
        // Values of the text-assembling generator this one replaced: a
        // change here is corpus drift for every recorded campaign.
        let c = GenConfig::default();
        let c2 = GenConfig {
            max_stmts: 4,
            ..GenConfig::default()
        };
        assert_eq!(kernel_digest(&generate(7, &c)), "9abc51925bf0ff45");
        assert_eq!(kernel_digest(&generate(8, &c)), "706311fafd92cef1");
        assert_eq!(kernel_digest(&generate(7, &c2)), "337639bd278f2c40");
    }

    #[test]
    fn disassembly_is_a_stable_fixpoint() {
        // The canonical source must survive an assemble/disassemble
        // round trip byte-identically (including loop bounds) — the
        // property that makes it a sound digest input. The shapes are
        // the eight the harness corpus sweeps (depth × stmts × iters).
        for depth in [2, 3] {
            for stmts in [3, 6] {
                for iters in [4, 8] {
                    let config = GenConfig {
                        max_depth: depth,
                        max_stmts: stmts,
                        max_loop_iters: iters,
                        ..GenConfig::default()
                    };
                    for seed in 0..500 {
                        let at = format!("depth {depth} stmts {stmts} iters {iters} seed {seed}");
                        let k = generate(seed, &config);
                        let src = canonical_source(&k);
                        let back = crate::asm::assemble(&src).expect("disassembly must reassemble");
                        assert_eq!(back.instrs, k.program.instrs, "{at}");
                        assert_eq!(back.functions, k.program.functions, "{at}");
                        assert_eq!(back.loop_bounds, k.program.loop_bounds, "{at}");
                        let k2 = Kernel {
                            program: back,
                            ..k.clone()
                        };
                        assert_eq!(src, canonical_source(&k2), "{at}: not a fixpoint");
                        // The streamed digest is FNV-1a over the source.
                        let fnv = src.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                            (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
                        });
                        assert_eq!(kernel_digest(&k), format!("{fnv:016x}"), "{at}");
                        assert_eq!(kernel_digest(&k), kernel_digest(&k2), "{at}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_region_rejected() {
        let _ = generate(
            1,
            &GenConfig {
                mem_len: 60,
                ..GenConfig::default()
            },
        );
    }
}

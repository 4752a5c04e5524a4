//! A compositional in-order scalar pipeline (ARM7 class).
//!
//! The paper's Table 1 row on future architectures \[29\] recommends
//! "compositional architectures, such as the ARM7", which "do not have
//! domino effects and exhibit little state-induced variation in
//! execution time". This model makes that precise: the entry state can
//! only add a bounded number of cycles (residual occupancy drains
//! before the first instruction), after which timing is a pure sum of
//! per-instruction costs.

use crate::latency::{LatencyTable, MemModel};
use branch_pred::predictors::Predictor;
use tinyisa::exec::TraceOp;
use tinyisa::instr::OpClass;

/// Configuration of the in-order pipeline.
#[derive(Debug, Clone, Copy, Default)]
pub struct InOrderConfig {
    /// Instruction latencies.
    pub latencies: LatencyTable,
}

/// The pipeline's initial hardware state: how many residual cycles of
/// work are still in flight at program start. Bounded by construction —
/// this is what "compositional" buys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct InOrderState {
    /// Residual occupancy in cycles (drains before the first fetch).
    pub warmup: u64,
}

/// The in-order pipeline model.
#[derive(Debug, Clone, Copy, Default)]
pub struct InOrderPipeline {
    /// Configuration.
    pub config: InOrderConfig,
}

impl InOrderPipeline {
    /// Creates the pipeline.
    pub fn new(config: InOrderConfig) -> Self {
        InOrderPipeline { config }
    }

    /// Runs a trace, returning total cycles. The branch predictor (if
    /// any) charges `branch_penalty` per misprediction; `mem` prices
    /// loads and stores.
    pub fn run(
        &self,
        trace: &[TraceOp],
        state: InOrderState,
        mem: &mut dyn MemModel,
        predictor: Option<&mut dyn Predictor>,
    ) -> u64 {
        let lat = self.config.latencies;
        let mut cycles = state.warmup;
        let mut pred = predictor;
        for op in trace {
            let hint = op.operand_hash;
            cycles += lat.latency(op.class(), hint);
            match op.class() {
                OpClass::Load => cycles += mem.access(op.mem_addr.unwrap_or(0) as u64 * 4, false),
                OpClass::Store => cycles += mem.access(op.mem_addr.unwrap_or(0) as u64 * 4, true),
                OpClass::Branch => {
                    if let Some(p) = pred.as_deref_mut() {
                        let b = op.branch.expect("branch op has outcome");
                        if p.predict(op.pc, b.target) != b.taken {
                            cycles += lat.branch_penalty;
                        }
                        p.update(op.pc, b.target, b.taken);
                    }
                }
                _ => {}
            }
        }
        cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::PerfectMem;
    use tinyisa::exec::Machine;
    use tinyisa::kernels;

    fn trace(k: &tinyisa::kernels::Kernel) -> Vec<TraceOp> {
        Machine::default().run_traced(&k.program).unwrap().trace
    }

    #[test]
    fn state_effect_is_bounded_by_warmup() {
        let k = kernels::sum_loop(16);
        let t = trace(&k);
        let p = InOrderPipeline::default();
        let mut mem = PerfectMem::default();
        let base = p.run(&t, InOrderState { warmup: 0 }, &mut mem, None);
        for w in 0..8 {
            let mut mem = PerfectMem::default();
            let tw = p.run(&t, InOrderState { warmup: w }, &mut mem, None);
            assert_eq!(tw, base + w, "warmup adds exactly w cycles — no domino");
        }
    }

    #[test]
    fn time_is_additive_over_trace_splits() {
        // Compositionality: cost(trace) = cost(prefix) + cost(suffix)
        // when the memory model is stateless.
        let k = kernels::bubble_sort(6, 256);
        let mem_init: Vec<(u32, i64)> = (0..6).map(|i| (256 + i, (6 - i) as i64)).collect();
        let t = Machine::default()
            .run_traced_with(&k.program, &[], &mem_init)
            .unwrap()
            .trace;
        let p = InOrderPipeline::default();
        let mut m1 = PerfectMem::default();
        let full = p.run(&t, InOrderState { warmup: 0 }, &mut m1, None);
        let (a, b) = t.split_at(t.len() / 2);
        let mut m2 = PerfectMem::default();
        let mut m3 = PerfectMem::default();
        let parts = p.run(a, InOrderState { warmup: 0 }, &mut m2, None)
            + p.run(b, InOrderState { warmup: 0 }, &mut m3, None);
        assert_eq!(full, parts);
    }

    #[test]
    fn mispredictions_cost_the_penalty() {
        use branch_pred::predictors::AlwaysTaken;
        let k = kernels::sum_loop(8);
        let t = trace(&k);
        let p = InOrderPipeline::default();
        let mut mem = PerfectMem::default();
        let no_bp = p.run(&t, InOrderState { warmup: 0 }, &mut mem, None);
        let mut mem = PerfectMem::default();
        let mut bp = AlwaysTaken;
        let with_bp = p.run(&t, InOrderState { warmup: 0 }, &mut mem, Some(&mut bp));
        // Exactly one misprediction (the loop exit), costing penalty 2.
        assert_eq!(with_bp, no_bp + 2);
    }

    #[test]
    fn cache_state_induces_variation_but_bounded() {
        use crate::latency::CachedMem;
        use mem_hierarchy::cache::{lru_cache, CacheConfig};
        let k = kernels::memcpy(8, 256, 300);
        let mem_init: Vec<(u32, i64)> = (0..8).map(|i| (256 + i, i as i64)).collect();
        let t = Machine::default()
            .run_traced_with(&k.program, &[], &mem_init)
            .unwrap()
            .trace;
        let p = InOrderPipeline::default();
        // Cold cache vs warmed cache: warmed is never slower.
        let mut cold = CachedMem {
            cache: lru_cache(CacheConfig::new(4, 2, 16)),
            hit_latency: 1,
            miss_latency: 10,
        };
        let t_cold = p.run(&t, InOrderState { warmup: 0 }, &mut cold, None);
        let mut warm = CachedMem {
            cache: lru_cache(CacheConfig::new(4, 2, 16)),
            hit_latency: 1,
            miss_latency: 10,
        };
        for a in (256 * 4..264 * 4).step_by(16) {
            warm.cache.access(a);
        }
        let t_warm = p.run(&t, InOrderState { warmup: 0 }, &mut warm, None);
        assert!(t_warm <= t_cold);
    }
}

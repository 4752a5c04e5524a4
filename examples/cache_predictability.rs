//! Cache-policy predictability: the evict/fill metrics of Reineke et
//! al. computed by orbit-reduced uncertainty-set exploration, plus a
//! must-analysis classification of a real kernel.

use predictability_repro::mem::analysis::{analyze_icache, InitialCache};
use predictability_repro::mem::cache::CacheConfig;
use predictability_repro::mem::metrics::compute_metrics;
use predictability_repro::tinyisa::cfg::Cfg;
use predictability_repro::tinyisa::kernels;

fn main() {
    println!("evict / fill by uncertainty-set exploration (k = 4):");
    let k = 4usize;
    let budget = 3 * k as u32 + 2;
    for (name, budget) in [
        ("LRU", budget),
        ("FIFO", budget),
        ("PLRU", budget),
        ("MRU", 16),
    ] {
        let m = compute_metrics(name, k, budget).expect("known policy");
        println!(
            "  {name:<5} evict = {:>4}  fill = {:>4}   ({} initial states explored)",
            m.evict.map_or("inf".into(), |v| v.to_string()),
            m.fill.map_or("inf".into(), |v| v.to_string()),
            m.initial_states
        );
    }

    let kernel = kernels::matmul(4, 256, 272, 288);
    let cfg = Cfg::build(&kernel.program);
    let analysis = analyze_icache(
        &kernel.program,
        &cfg,
        CacheConfig::new(4, 2, 8),
        InitialCache::Unknown,
    );
    println!(
        "\nmust-analysis on matmul(4): {}/{} fetches guaranteed hits ({:.1}% classified)",
        analysis.always_hits(),
        kernel.program.len(),
        100.0 * analysis.classified_fraction()
    );
}

//! The Section 5.1 shoot-out: Max vs MinMax vs Proportional vs PMM on the
//! memory-bottlenecked baseline, at one arrival rate.
//!
//! Reproduces one column of Figure 3 (plus the Figure 4/5 readings).

use pmm_core::prelude::*;
use pmm_examples::{secs_arg, summarize};

fn main() {
    let secs = secs_arg(3_600.0);
    let rate = 0.06;
    println!("Baseline workload at λ = {rate} queries/s, {secs:.0} simulated seconds\n");
    let policies: Vec<(&str, Box<dyn MemoryPolicy>)> = vec![
        ("Max", Box::new(MaxPolicy)),
        ("MinMax", Box::new(pmm_core::pmm::MinMaxPolicy::unlimited())),
        ("Proportional", Box::new(ProportionalPolicy)),
        ("PMM", Box::new(Pmm::with_defaults())),
    ];
    for (name, policy) in policies {
        let mut cfg = SimConfig::baseline(rate);
        cfg.duration_secs = secs;
        let report = run_simulation(cfg, policy);
        summarize(name, &report);
    }
    println!("\nExpected shape (paper, Figure 3): MinMax ≈ PMM best; Proportional");
    println!("degrades under load; Max under-utilizes the disks and is worst.");
}

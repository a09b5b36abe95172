//! Beyond the paper: bursty MMPP arrivals and multi-tenant memory quotas.
//!
//! Part 1 sweeps the MMPP burst ratio at the baseline's mean rate — the
//! same offered load, increasingly clustered — and shows how each policy
//! degrades. Part 2 runs an analytics (joins) + reporting (sorts) tenant
//! pair and compares one shared memory pool against hard partitions and
//! soft partitions with borrow-back.
//!
//! ```text
//! cargo run --release -p pmm-examples --example bursty_tenants [-- --secs N]
//! ```

use pmm_core::prelude::*;
use pmm_examples::{secs_arg, summarize};

fn main() {
    let secs = secs_arg(4_000.0);

    println!("== Bursty arrivals: MMPP at the baseline mean rate (λ̄ = 0.06) ==");
    for ratio in [1.0, 8.0, 16.0] {
        println!("burst ratio {ratio}:");
        for policy in ["Max", "MinMax", "PMM"] {
            let mut cfg = SimConfig::bursty(ratio);
            cfg.duration_secs = secs;
            let report = run_simulation(cfg, bench_policy(policy));
            summarize(policy, &report);
        }
    }

    println!();
    println!("== Multi-tenant quotas: analytics joins vs reporting sorts ==");
    let frac = 0.5;
    for flavor in ["shared", "hard", "soft"] {
        let mut cfg = SimConfig::multi_tenant(frac);
        cfg.duration_secs = secs;
        // The soft flavor lets every partition borrow idle pages.
        let partitions: Vec<PartitionSpec> = cfg
            .tenants
            .iter()
            .map(|t| PartitionSpec {
                quota: t.quota_pages,
                soft: flavor == "soft" || t.soft,
            })
            .collect();
        let policy: Box<dyn MemoryPolicy> = match flavor {
            "shared" => Box::new(MinMaxPolicy::unlimited()),
            _ => Box::new(PartitionedPolicy::new(partitions)),
        };
        let report = run_simulation(cfg, policy);
        summarize(flavor, &report);
        for c in &report.classes {
            println!(
                "    tenant class {:<8} served {:>5}  miss {:>5.1}%",
                c.name,
                c.served,
                c.miss_pct()
            );
        }
    }
}

/// The three policies the burst sweep compares (avoids a bench dependency).
fn bench_policy(name: &str) -> Box<dyn MemoryPolicy> {
    match name {
        "Max" => Box::new(MaxPolicy),
        "MinMax" => Box::new(MinMaxPolicy::unlimited()),
        _ => Box::new(Pmm::with_defaults()),
    }
}

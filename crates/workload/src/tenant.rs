//! Multi-tenant workload partitions.
//!
//! A tenant names a slice of the buffer pool: classes reference tenants by
//! index ([`crate::WorkloadClass::tenant`]) and a partition-aware memory
//! policy turns the quota list into per-partition allocation budgets. The
//! spec lives here — enforcement belongs to the policy layer (`pmm`), which
//! keeps this crate dependency-free above `simkit`.

/// One tenant's memory contract.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TenantSpec {
    /// Label for reports ("analytics", "reporting", ...).
    pub name: String,
    /// Pages of the buffer pool reserved for this tenant.
    pub quota_pages: u32,
    /// Soft quota: the tenant may borrow pages other tenants leave idle
    /// (and hands them back as soon as the owner's demand returns). A hard
    /// quota (`false`) is a strict ceiling.
    pub soft: bool,
}

impl TenantSpec {
    /// A hard-quota tenant.
    pub fn hard(name: impl Into<String>, quota_pages: u32) -> Self {
        TenantSpec {
            name: name.into(),
            quota_pages,
            soft: false,
        }
    }

    /// A soft-quota tenant (may borrow idle pages).
    pub fn soft(name: impl Into<String>, quota_pages: u32) -> Self {
        TenantSpec {
            name: name.into(),
            quota_pages,
            soft: true,
        }
    }
}

/// Split `total` pages across `fractions` (which should sum to ≤ 1); the
/// last tenant absorbs rounding so quotas always sum to exactly
/// `min(total, Σ fᵢ·total)` — convenient for "70/30 split" style scenarios.
pub fn quota_split(total: u32, fractions: &[f64]) -> Vec<u32> {
    let mut quotas: Vec<u32> = fractions
        .iter()
        .map(|f| (f.clamp(0.0, 1.0) * total as f64).floor() as u32)
        .collect();
    let sum: u64 = quotas.iter().map(|&q| q as u64).sum();
    if sum > total as u64 {
        // Over-subscribed by rounding: trim the last non-zero quota.
        let excess = (sum - total as u64) as u32;
        if let Some(last) = quotas.iter_mut().rev().find(|q| **q > 0) {
            *last = last.saturating_sub(excess);
        }
    }
    quotas
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        let h = TenantSpec::hard("a", 1000);
        assert!(!h.soft);
        let s = TenantSpec::soft("b", 500);
        assert!(s.soft);
        assert_eq!(s.quota_pages, 500);
    }

    #[test]
    fn quota_split_covers_total() {
        assert_eq!(quota_split(2560, &[0.5, 0.5]), vec![1280, 1280]);
        let q = quota_split(2561, &[0.5, 0.5]);
        assert!(q.iter().map(|&x| x as u64).sum::<u64>() <= 2561);
        // Fractions clamp.
        assert_eq!(quota_split(100, &[2.0]), vec![100]);
        assert_eq!(quota_split(100, &[-1.0]), vec![0]);
    }
}

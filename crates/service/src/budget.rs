//! Work-budget plumbing for the service layer.
//!
//! Budgets are expressed in *work units* — pairs examined by the
//! node-local cluster kernels, cost-inflated by the simulated system's
//! per-pair work cost — never in wall-clock time. A budgeted run is a
//! pure function of (metric, query, budget), so a degraded run replays
//! byte-identically on any machine and any thread count.
//!
//! The kernel types live in `bcc-core`; this module re-exports them and
//! adds the per-query resolution rule used by the batch executor.

pub use bcc_core::{Budgeted, WorkMeter, BUDGET_BLOCK};

/// Resolves the budget for one query: an explicit per-query budget wins,
/// otherwise the service-wide default applies, otherwise execution is
/// unbudgeted (`None`).
pub fn effective_budget(per_query: Option<u64>, config_default: Option<u64>) -> Option<u64> {
    per_query.or(config_default)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_query_budget_wins_over_config_default() {
        assert_eq!(effective_budget(Some(10), Some(500)), Some(10));
        assert_eq!(effective_budget(None, Some(500)), Some(500));
        assert_eq!(effective_budget(Some(10), None), Some(10));
        assert_eq!(effective_budget(None, None), None);
    }
}

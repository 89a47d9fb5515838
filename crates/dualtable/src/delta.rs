//! Delta-tier policy (DESIGN.md §17).
//!
//! The mechanism — WAL-durable sorted runs held out of the LSM — lives in
//! the attached kvstore ([`dt_kvstore::Store::put_shadow_batch`]); this
//! module owns the *policy*: whether a table routes EDIT-plan cells
//! through the tier at all, and when the tier's memory budget forces a
//! spill into the LSM proper. Kept separate from the store so the
//! routing decision reads as one predicate at each call site.

use dt_common::Result;

/// Per-table delta-tier policy, derived from
/// [`crate::DualTableConfig::delta_bytes`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct DeltaPolicy {
    /// Memory budget in bytes; `0` disables the tier entirely.
    budget_bytes: usize,
}

impl DeltaPolicy {
    pub fn new(budget_bytes: usize) -> Self {
        DeltaPolicy { budget_bytes }
    }

    /// Whether EDIT-plan DML routes through the delta tier.
    pub fn enabled(&self) -> bool {
        self.budget_bytes > 0
    }

    /// Spills the attached store's delta tier if it has outgrown the
    /// budget. Called *after* the commit that may have pushed it over:
    /// the entries are already durable, so a failed spill loses nothing —
    /// the next commit retries it. Returns the number of entries spilled
    /// (0 when under budget or disabled).
    pub fn maybe_spill(&self, attached: &dt_kvstore::Store) -> Result<u64> {
        if !self.enabled() || attached.shadow_bytes() <= self.budget_bytes {
            return Ok(0);
        }
        attached.spill_shadow()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dt_common::LogicalClock;
    use dt_kvstore::{KvConfig, Store};
    use std::sync::Arc;

    fn store() -> Store {
        Store::open(
            Arc::new(dt_kvstore::MemEnv::new()),
            KvConfig {
                auto_maintenance: false,
                ..KvConfig::default()
            },
            LogicalClock::new(),
            Arc::default(),
        )
        .unwrap()
    }

    #[test]
    fn zero_budget_disables_the_tier() {
        let p = DeltaPolicy::new(0);
        assert!(!p.enabled());
        assert_eq!(p.maybe_spill(&store()).unwrap(), 0);
    }

    #[test]
    fn spills_only_over_budget() {
        let p = DeltaPolicy::new(200);
        let s = store();
        s.put_shadow_batch(vec![(b"a".to_vec(), b"q".to_vec(), vec![0u8; 16])])
            .unwrap();
        assert!(p.enabled());
        assert_eq!(p.maybe_spill(&s).unwrap(), 0, "under budget: no spill");
        assert_eq!(s.shadow_entry_count(), 1);
        // Blow past the budget; the next check migrates everything.
        s.put_shadow_batch(vec![(b"b".to_vec(), b"q".to_vec(), vec![0u8; 512])])
            .unwrap();
        assert_eq!(p.maybe_spill(&s).unwrap(), 2);
        assert_eq!(s.shadow_entry_count(), 0);
        assert_eq!(s.get(b"a", b"q").unwrap().unwrap(), vec![0u8; 16]);
    }
}

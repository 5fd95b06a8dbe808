//! Statistics collected by the reachability structures and the detector.
//!
//! The paper's complexity claims (Theorems 4.1 and 5.1) are stated in terms
//! of disjoint-set operations, reachability queries and the size of the
//! reachability matrix `R`; these counters expose those quantities so the
//! benchmark harness can reproduce the scaling ablations and the `R`-memory
//! discussion of Section 6.

use futurerd_dsu::OpCounters;
use serde::{Deserialize, Serialize};

/// Counters describing the work a reachability structure performed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReachStats {
    /// Reachability queries answered.
    pub queries: u64,
    /// `make_set` operations across all disjoint-set structures.
    pub make_sets: u64,
    /// `union` operations across all disjoint-set structures.
    pub unions: u64,
    /// `find` operations across all disjoint-set structures.
    pub finds: u64,
    /// Attached sets created (MultiBags+ only; nodes of `R`).
    pub attached_sets: u64,
    /// Arcs added to `R` (MultiBags+ only).
    pub r_arcs: u64,
    /// Approximate bytes used by the transitive closure of `R`.
    pub r_bytes: u64,
    /// Number of times a set the algorithm expected to be attached had to be
    /// attachified defensively (should be zero; exposed for validation).
    pub unexpected_attachifies: u64,
}

impl ReachStats {
    /// Folds disjoint-set counters into these statistics.
    pub fn absorb_dsu(&mut self, c: &OpCounters) {
        self.make_sets += c.make_sets;
        self.unions += c.unions;
        self.finds += c.finds;
    }

    /// Total disjoint-set operations.
    pub fn dsu_ops(&self) -> u64 {
        self.make_sets + self.unions + self.finds
    }

    /// Registers every counter as a `<prefix>.<field>` gauge in the
    /// `futurerd-obs` metrics registry (no-op while recording is
    /// disabled). Gauges, not counters: a report publishes its totals as
    /// one consistent point-in-time reading.
    pub fn export_metrics(&self, prefix: &str) {
        if !futurerd_obs::enabled() {
            return;
        }
        futurerd_obs::gauge_set(&format!("{prefix}.queries"), self.queries);
        futurerd_obs::gauge_set(&format!("{prefix}.make_sets"), self.make_sets);
        futurerd_obs::gauge_set(&format!("{prefix}.unions"), self.unions);
        futurerd_obs::gauge_set(&format!("{prefix}.finds"), self.finds);
        futurerd_obs::gauge_set(&format!("{prefix}.attached_sets"), self.attached_sets);
        futurerd_obs::gauge_set(&format!("{prefix}.r_arcs"), self.r_arcs);
        futurerd_obs::gauge_set(&format!("{prefix}.r_bytes"), self.r_bytes);
        futurerd_obs::gauge_set(
            &format!("{prefix}.unexpected_attachifies"),
            self.unexpected_attachifies,
        );
    }
}

/// Counters describing the detector's access-history activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DetectorStats {
    /// Granule-level read checks performed.
    pub read_checks: u64,
    /// Granule-level write checks performed.
    pub write_checks: u64,
    /// Reader-list entries appended.
    pub readers_recorded: u64,
    /// Reader-list entries cleared by writers.
    pub readers_cleared: u64,
    /// Races recorded (before deduplication caps).
    pub races_found: u64,
    /// Shadow pages allocated.
    ///
    /// **Aggregation caveat:** this is the only field that is *not*
    /// invariant under sharding. Every other counter is driven by the
    /// granule-local access sequence, which each worker replays exactly as
    /// the sequential detector saw it, so summing the workers' stats
    /// reproduces the sequential values field-for-field. Shadow pages,
    /// however, count per-worker tables, and their sum depends on how the
    /// granules were dealt. A pass-2 partition keys its table by the global
    /// granule, so a page whose granules straddle a partition boundary is
    /// allocated — and counted — once in *each* partition that touches it,
    /// and the sum is ≥ the sequential count (equal at one partition). A
    /// one-shot worker keeps every `P`-th granule in consecutive slots, so
    /// its table covers about `1/P` of each run of consecutive touched
    /// pages. The sum may then fall below the sequential count, or pass it
    /// by fewer than two pages per worker for each such run, where the
    /// workers' slots start and end mid-page. The `detector_stats_sharding`
    /// test pins this contract for both engines.
    pub shadow_pages: u64,
}

impl DetectorStats {
    /// Registers every counter as a `<prefix>.<field>` gauge in the
    /// `futurerd-obs` metrics registry (no-op while recording is
    /// disabled). See the `shadow_pages` field docs for the one counter
    /// whose value depends on the partition count.
    pub fn export_metrics(&self, prefix: &str) {
        if !futurerd_obs::enabled() {
            return;
        }
        futurerd_obs::gauge_set(&format!("{prefix}.read_checks"), self.read_checks);
        futurerd_obs::gauge_set(&format!("{prefix}.write_checks"), self.write_checks);
        futurerd_obs::gauge_set(&format!("{prefix}.readers_recorded"), self.readers_recorded);
        futurerd_obs::gauge_set(&format!("{prefix}.readers_cleared"), self.readers_cleared);
        futurerd_obs::gauge_set(&format!("{prefix}.races_found"), self.races_found);
        futurerd_obs::gauge_set(&format!("{prefix}.shadow_pages"), self.shadow_pages);
    }
}

impl std::fmt::Display for ReachStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "queries={} dsu_ops={} attached={} r_arcs={} r_bytes={}",
            self.queries,
            self.dsu_ops(),
            self.attached_sets,
            self.r_arcs,
            self.r_bytes
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_dsu_accumulates() {
        let mut s = ReachStats::default();
        s.absorb_dsu(&OpCounters {
            make_sets: 2,
            unions: 3,
            finds: 5,
        });
        s.absorb_dsu(&OpCounters {
            make_sets: 1,
            unions: 1,
            finds: 1,
        });
        assert_eq!(s.make_sets, 3);
        assert_eq!(s.unions, 4);
        assert_eq!(s.finds, 6);
        assert_eq!(s.dsu_ops(), 13);
    }

    #[test]
    fn display_mentions_key_fields() {
        let s = ReachStats {
            queries: 7,
            attached_sets: 2,
            ..Default::default()
        };
        let text = s.to_string();
        assert!(text.contains("queries=7"));
        assert!(text.contains("attached=2"));
    }
}

//! Batch scheduling: coalescing identical queries and grouping the rest
//! into per-class lanes.
//!
//! A drained batch is reduced to its *unique* jobs (same submit node, `k`
//! and snapped class ⇒ same answer, computed once and fanned back out to
//! every requester) and the jobs are grouped into **lanes** by bandwidth
//! class. The lanes run in order and each lane's jobs in job order, so
//! every response is a function of the batch alone.

use std::collections::HashMap;

use crate::cache::CacheKey;

/// One unit of computation in a batch: a unique query identity plus every
/// batch position waiting for its answer.
#[derive(Debug, Clone)]
pub struct BatchJob {
    /// The coalesced query identity.
    pub key: CacheKey,
    /// Positions in the drained batch that receive this job's answer, in
    /// submission order (the first is the *representative* whose raw
    /// request is executed).
    pub positions: Vec<usize>,
}

/// A group of jobs sharing a bandwidth class, executed in job order.
#[derive(Debug, Clone)]
pub struct BatchLane {
    /// Snapped bandwidth-class index shared by every job in the lane.
    pub class_idx: usize,
    /// Indices into the job list, in first-appearance order.
    pub jobs: Vec<usize>,
}

/// Coalesces `keys` (one per batch position, misses only) into unique jobs
/// and groups the jobs into per-class lanes.
///
/// Both levels preserve first-appearance order, so the plan — and
/// everything downstream of it — is deterministic in the submission order
/// alone. Hash maps index first appearances, but the output order is
/// carried entirely by the `Vec`s, so iteration order of the maps never
/// leaks into the plan: `O(n)` total instead of the old `O(n²)` scans.
pub fn plan(keys: &[(usize, CacheKey)], coalesce: bool) -> (Vec<BatchJob>, Vec<BatchLane>) {
    let mut jobs: Vec<BatchJob> = Vec::new();
    let mut job_index: HashMap<CacheKey, usize> = HashMap::new();
    for &(pos, key) in keys {
        match job_index.get(&key).copied().filter(|_| coalesce) {
            Some(idx) => jobs[idx].positions.push(pos),
            None => {
                job_index.insert(key, jobs.len());
                jobs.push(BatchJob {
                    key,
                    positions: vec![pos],
                });
            }
        }
    }
    let mut lanes: Vec<BatchLane> = Vec::new();
    let mut lane_index: HashMap<usize, usize> = HashMap::new();
    for (idx, job) in jobs.iter().enumerate() {
        match lane_index.get(&job.key.class_idx).copied() {
            Some(l) => lanes[l].jobs.push(idx),
            None => {
                lane_index.insert(job.key.class_idx, lanes.len());
                lanes.push(BatchLane {
                    class_idx: job.key.class_idx,
                    jobs: vec![idx],
                });
            }
        }
    }
    (jobs, lanes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcc_metric::NodeId;

    fn key(start: usize, k: usize, class_idx: usize) -> CacheKey {
        CacheKey {
            start: NodeId::new(start),
            k,
            class_idx,
        }
    }

    #[test]
    fn coalesces_identical_queries_and_lanes_by_class() {
        let keys = vec![
            (0, key(1, 2, 0)),
            (1, key(2, 3, 1)),
            (2, key(1, 2, 0)), // duplicate of position 0
            (3, key(3, 2, 1)),
            (4, key(1, 2, 0)), // duplicate again
        ];
        let (jobs, lanes) = plan(&keys, true);
        assert_eq!(jobs.len(), 3);
        assert_eq!(jobs[0].positions, vec![0, 2, 4]);
        assert_eq!(jobs[1].positions, vec![1]);
        assert_eq!(jobs[2].positions, vec![3]);
        assert_eq!(lanes.len(), 2);
        assert_eq!(lanes[0].class_idx, 0);
        assert_eq!(lanes[0].jobs, vec![0]);
        assert_eq!(lanes[1].class_idx, 1);
        assert_eq!(lanes[1].jobs, vec![1, 2]);
    }

    #[test]
    fn without_coalescing_every_position_is_a_job() {
        let keys = vec![(0, key(1, 2, 0)), (1, key(1, 2, 0))];
        let (jobs, lanes) = plan(&keys, false);
        assert_eq!(jobs.len(), 2);
        assert_eq!(lanes.len(), 1);
        assert_eq!(lanes[0].jobs, vec![0, 1]);
    }

    #[test]
    fn plan_order_is_first_appearance_regardless_of_key_hashes() {
        // Many distinct keys across interleaved classes: the plan must
        // list jobs in submission order and lanes in first-appearance
        // order, independent of HashMap iteration order.
        let keys: Vec<(usize, CacheKey)> = (0..64)
            .map(|i| (i, key(i % 16, 2 + (i % 3), i % 5)))
            .collect();
        let (jobs, lanes) = plan(&keys, true);
        for w in jobs.windows(2) {
            assert!(
                w[0].positions[0] < w[1].positions[0],
                "jobs must be in first-appearance order"
            );
        }
        let mut seen = Vec::new();
        for lane in &lanes {
            assert!(!seen.contains(&lane.class_idx), "one lane per class");
            seen.push(lane.class_idx);
            for w in lane.jobs.windows(2) {
                assert!(w[0] < w[1], "lane jobs in job order");
            }
        }
        assert_eq!(seen, vec![0, 1, 2, 3, 4], "first-appearance lane order");
        let total: usize = jobs.iter().map(|j| j.positions.len()).sum();
        assert_eq!(total, 64, "every position answered exactly once");
    }

    #[test]
    fn empty_batch_plans_empty() {
        let (jobs, lanes) = plan(&[], true);
        assert!(jobs.is_empty());
        assert!(lanes.is_empty());
    }
}

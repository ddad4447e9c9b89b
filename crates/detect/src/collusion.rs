use dcc_trace::{ReviewerId, TraceDataset};

/// Result of clustering suspected malicious workers into collusive
/// communities (§IV-A).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CollusionReport {
    /// Communities with at least two members, each sorted ascending,
    /// ordered by smallest member.
    pub communities: Vec<Vec<ReviewerId>>,
    /// Suspected workers that share no target with any other suspect —
    /// treated as non-collusive malicious workers downstream.
    pub singletons: Vec<ReviewerId>,
}

impl CollusionReport {
    /// Total number of workers placed in communities.
    pub fn collusive_worker_count(&self) -> usize {
        self.communities.iter().map(Vec::len).sum()
    }

    /// The number of collusion partners (`A_i` of Eq. 5) as a dense table
    /// over reviewer ids `0..workers`: community size − 1 for a community
    /// member, 0 for a singleton and for every worker outside the report.
    /// Ids at or above `workers` are dropped.
    pub fn partner_table(&self, workers: usize) -> Vec<usize> {
        let mut table = vec![0; workers];
        for c in &self.communities {
            for m in c {
                if let Some(slot) = table.get_mut(m.index()) {
                    *slot = c.len() - 1;
                }
            }
        }
        // A worker listed as a singleton too reads 0.
        for s in &self.singletons {
            if let Some(slot) = table.get_mut(s.index()) {
                *slot = 0;
            }
        }
        table
    }

    /// Community-size histogram over the Table II buckets, as
    /// `(bucket label, count)`. Sizes 2–6 each have a bucket; every size
    /// ≥ 7 is counted in the last one, labelled `>=10` to match the paper,
    /// whose trace had no community of 7–9 members.
    pub fn size_histogram(&self) -> Vec<(String, usize)> {
        let mut counts = [0usize; 6];
        for c in &self.communities {
            match c.len() {
                2 => counts[0] += 1,
                3 => counts[1] += 1,
                4 => counts[2] += 1,
                5 => counts[3] += 1,
                6 => counts[4] += 1,
                _ => counts[5] += 1,
            }
        }
        vec![
            ("2".into(), counts[0]),
            ("3".into(), counts[1]),
            ("4".into(), counts[2]),
            ("5".into(), counts[3]),
            ("6".into(), counts[4]),
            (">=10".into(), counts[5]),
        ]
    }

    /// The same histogram as percentages of the community count.
    pub fn size_percentages(&self) -> Vec<(String, f64)> {
        let total = self.communities.len().max(1) as f64;
        self.size_histogram()
            .into_iter()
            .map(|(label, count)| (label, 100.0 * count as f64 / total))
            .collect()
    }
}

/// Clusters `suspected` malicious workers into collusive communities:
/// two suspects are collusive iff they reviewed the same product, and a
/// community is a connected component of that relation (§IV-A).
///
/// `suspected` is read as a set: a repeated id is one worker. An id
/// outside the trace has no reviews, so it is a singleton.
///
/// Implementation: an iterative DFS over the trace's own worker↔product
/// index, started from each unplaced suspect in ascending id order. From
/// a worker it steps to each product it reviewed (`reviews_by`), and from
/// a product not yet expanded to the unplaced suspects among its
/// reviewers (`reviews_for`). Each product is expanded once, so the walk
/// is linear in the reviews of the products the suspects reviewed. A
/// community's start is its smallest member, so the communities come out
/// ordered by it, and the singletons ascending.
pub fn cluster_collusive(trace: &TraceDataset, suspected: &[ReviewerId]) -> CollusionReport {
    let mut suspects = suspected.to_vec();
    suspects.sort_unstable();
    suspects.dedup();

    // A worker is pending while it is a suspect not yet placed; a product
    // is pending until its reviewers have been visited.
    let mut pending_workers = vec![false; trace.reviewers().len()];
    for s in &suspects {
        if let Some(flag) = pending_workers.get_mut(s.index()) {
            *flag = true;
        }
    }
    let mut pending_products = vec![true; trace.products().len()];

    let mut communities = Vec::new();
    let mut singletons = Vec::new();
    let mut stack = Vec::new();
    for &start in &suspects {
        if start.index() >= pending_workers.len() {
            // Past the trace: no reviews, so no partner.
            singletons.push(start);
            continue;
        }
        if !take(&mut pending_workers, start.index()) {
            continue; // placed with a smaller suspect
        }
        let mut group = vec![start];
        stack.push(start);
        while let Some(worker) = stack.pop() {
            for review in trace.reviews_by(worker) {
                if !take(&mut pending_products, review.product.index()) {
                    continue;
                }
                for co in trace.reviews_for(review.product) {
                    if take(&mut pending_workers, co.reviewer.index()) {
                        group.push(co.reviewer);
                        stack.push(co.reviewer);
                    }
                }
            }
        }
        if group.len() >= 2 {
            group.sort_unstable();
            communities.push(group);
        } else {
            singletons.extend(group);
        }
    }
    CollusionReport {
        communities,
        singletons,
    }
}

/// Clears flag `i`, returning whether it was set (`false` past the end).
fn take(flags: &mut [bool], i: usize) -> bool {
    flags.get_mut(i).is_some_and(std::mem::take)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcc_trace::{SyntheticConfig, WorkerClass};

    /// Ground-truth clustering: feeding the exact malicious set must
    /// recover exactly the generator's campaigns.
    #[test]
    fn recovers_ground_truth_campaigns() {
        let trace = SyntheticConfig::small(29).generate();
        let mut suspected = trace.workers_of_class(WorkerClass::NonCollusiveMalicious);
        suspected.extend(trace.workers_of_class(WorkerClass::CollusiveMalicious));

        let report = cluster_collusive(&trace, &suspected);

        // Every ground-truth campaign appears as one community.
        assert_eq!(report.communities.len(), trace.campaigns().len());
        let mut expected: Vec<Vec<ReviewerId>> = trace
            .campaigns()
            .iter()
            .map(|c| {
                let mut m = c.members.clone();
                m.sort_unstable();
                m
            })
            .collect();
        expected.sort_by_key(|c| c[0]);
        assert_eq!(report.communities, expected);

        // All NCM workers are singletons.
        assert_eq!(
            report.singletons.len(),
            trace.workers_of_class(WorkerClass::NonCollusiveMalicious).len()
        );
    }

    #[test]
    fn repeated_suspect_is_one_worker() {
        let trace = SyntheticConfig::small(29).generate();
        let campaign = &trace.campaigns()[0];
        let (a, b) = (campaign.members[0], campaign.members[1]);
        let once = cluster_collusive(&trace, &campaign.members);
        let mut twice = campaign.members.clone();
        twice.extend([a, b, a]);
        let report = cluster_collusive(&trace, &twice);
        assert_eq!(report, once);
        assert!(report.singletons.is_empty(), "{:?}", report.singletons);
        let partners = report.partner_table(trace.reviewers().len());
        assert_eq!(partners[a.index()], campaign.members.len() - 1);

        let ncm = trace.workers_of_class(WorkerClass::NonCollusiveMalicious)[0];
        let report = cluster_collusive(&trace, &[ncm, ncm]);
        assert_eq!(report.singletons, vec![ncm]);
        assert!(report.communities.is_empty());

        // An id outside the trace stays a singleton, once.
        let ghost = ReviewerId(trace.reviewers().len() + 5);
        let report = cluster_collusive(&trace, &[ghost, ncm, ghost]);
        assert_eq!(report.singletons, vec![ncm, ghost]);
    }

    #[test]
    fn empty_suspect_set() {
        let trace = SyntheticConfig::small(29).generate();
        let report = cluster_collusive(&trace, &[]);
        assert!(report.communities.is_empty());
        assert!(report.singletons.is_empty());
        assert_eq!(report.collusive_worker_count(), 0);
    }

    #[test]
    fn partner_counts_match_community_sizes() {
        let trace = SyntheticConfig::small(37).generate();
        let suspected = trace.workers_of_class(WorkerClass::CollusiveMalicious);
        let report = cluster_collusive(&trace, &suspected);
        let partners = report.partner_table(trace.reviewers().len());
        for c in &report.communities {
            for m in c {
                assert_eq!(partners[m.index()], c.len() - 1);
            }
        }
        for s in &report.singletons {
            assert_eq!(partners[s.index()], 0);
        }
    }

    #[test]
    fn histogram_counts_all_communities() {
        let trace = SyntheticConfig::small(41).generate();
        let suspected = trace.workers_of_class(WorkerClass::CollusiveMalicious);
        let report = cluster_collusive(&trace, &suspected);
        let hist = report.size_histogram();
        let total: usize = hist.iter().map(|(_, c)| c).sum();
        assert_eq!(total, report.communities.len());
        let pct = report.size_percentages();
        let pct_total: f64 = pct.iter().map(|(_, p)| p).sum();
        assert!((pct_total - 100.0).abs() < 1e-9);
    }

    #[test]
    fn size_two_bucket_dominates_at_scale() {
        // Match the Table II shape: bucket "2" is the majority.
        let mut cfg = SyntheticConfig::small(53);
        cfg.n_cm_target = 150;
        cfg.n_products = 3000;
        let trace = cfg.generate();
        let suspected = trace.workers_of_class(WorkerClass::CollusiveMalicious);
        let report = cluster_collusive(&trace, &suspected);
        let hist = report.size_histogram();
        let two = hist[0].1;
        assert!(hist.iter().all(|(_, c)| *c <= two), "size-2 must dominate: {hist:?}");
    }
}

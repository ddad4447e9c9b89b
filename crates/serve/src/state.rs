//! The incremental state machine behind `dcc serve`.
//!
//! [`ServeState`] ingests events between round boundaries and, at each
//! boundary, recomputes the §IV detection **only where it changed**,
//! then runs the batch design over it, staying bit-identical
//! (`f64::to_bits`) to the cold batch pipeline (`run_pipeline` →
//! `design_contracts`) over the same event prefix:
//!
//! - per-product consensus slots are recomputed only for products with
//!   new reviews ([`ConsensusMap::recompute_product`]);
//! - per-worker `e_mal` estimates and Eq. 5 weights are recomputed only
//!   for workers whose own reviews, reviewed products' consensus,
//!   estimate, or partner count changed;
//! - collusive communities are maintained by a streaming
//!   [`UnionFind`] (one `push` per suspect at join, unions only over
//!   dirty products) instead of a from-scratch DFS;
//! - the design is the batch path itself: [`prepare_design`] refits
//!   every class ψ and decomposes, one [`solve_subproblems`] call solves
//!   every subproblem, and [`assemble_design`] assigns the contracts. A
//!   class refit changes every input bit of its class's subproblems, so
//!   a memo of earlier solves would almost never hit.
//!
//! Every per-item detection computation is the *same tally arithmetic*
//! the batch path runs (shared via `dcc-detect`): batch detection folds
//! every review, in review order, into per-product and per-worker
//! tallies, and the per-item recompute folds one product's or worker's
//! reviews into the same tally through the trace's index, which lists
//! them in review order too. So each recomputed slot sums the same terms
//! in the same order. The design calls the batch functions, so equality
//! is by construction; `tests/serve_differential.rs` enforces it
//! property-wise at every round boundary.

use dcc_core::{
    assemble_design, prepare_design, solve_subproblems, ContractDesign, CoreError, DesignConfig,
};
use dcc_detect::{
    CollusionReport, ConsensusMap, DetectionResult, FeedbackWeights, MaliciousEstimates,
    PipelineConfig, SuspectMask, SuspectSource,
};
use dcc_graph::UnionFind;
use dcc_obs::Metrics;
use dcc_trace::{
    Campaign, Product, ProductId, Reviewer, ReviewerId, TraceDataset, WorkerClass,
};
use std::collections::{BTreeMap, BTreeSet};

use crate::event::ServeEvent;

/// Cumulative work counters of a serve run, reported in the final
/// summary and mirrored into `serve.*` metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Events ingested (all kinds, round markers included).
    pub events: usize,
    /// Round boundaries recomputed.
    pub rounds: usize,
    /// Workers marked dirty, summed over rounds.
    pub dirty_workers: usize,
    /// Products marked dirty, summed over rounds.
    pub dirty_products: usize,
    /// Rounds whose class effort-function fits ran to completion (every
    /// boundary refits; a boundary whose fit fails is not counted).
    pub fit_refits: usize,
    /// Subproblems solved, summed over rounds (every boundary solves
    /// every subproblem).
    pub solve_resolved: usize,
    /// Always 0: no boundary reuses an earlier solve.
    pub solve_reused: usize,
}

/// The output of one round boundary.
#[derive(Debug, Clone)]
pub struct RoundOutput {
    /// 0-based round index (number of boundaries seen before this one).
    pub round: usize,
    /// Events ingested up to and including this boundary's marker.
    pub events: usize,
    /// Workers that were dirty at this boundary.
    pub dirty_workers: usize,
    /// Products that were dirty at this boundary.
    pub dirty_products: usize,
    /// Subproblems solved this boundary.
    pub resolved: usize,
    /// The recomputed design, or the rendered error the batch pipeline
    /// would also produce over this prefix (e.g. too few honest
    /// observation points early in a stream).
    pub design: Result<ContractDesign, String>,
}

/// The streaming service's incremental state.
#[derive(Debug, Clone)]
pub struct ServeState {
    pipeline: PipelineConfig,
    design: DesignConfig,
    pool: usize,

    trace: TraceDataset,

    // --- detection state ----------------------------------------------
    raw: ConsensusMap,
    refined: ConsensusMap,
    estimates: Vec<f64>,
    weights: Vec<f64>,
    suspected: Vec<ReviewerId>,
    excluded: SuspectMask,
    suspect_slot: BTreeMap<ReviewerId, usize>,
    uf: UnionFind,
    collusion: CollusionReport,
    partner_counts: BTreeMap<ReviewerId, usize>,

    // --- dirty tracking ------------------------------------------------
    dirty_workers: BTreeSet<ReviewerId>,
    dirty_products: BTreeSet<ProductId>,

    stats: ServeStats,
    rounds_seen: usize,
}

impl ServeState {
    /// An empty state over the given configuration.
    ///
    /// # Errors
    ///
    /// Rejects invalid design configurations and — because incremental
    /// detection relies on suspect status being fixed at join time —
    /// any [`SuspectSource`] other than `GroundTruth`.
    pub fn new(
        pipeline: PipelineConfig,
        design: DesignConfig,
        pool: usize,
    ) -> Result<Self, CoreError> {
        design.validate()?;
        if !matches!(pipeline.suspects, SuspectSource::GroundTruth) {
            return Err(CoreError::InvalidParams(
                "dcc serve requires SuspectSource::GroundTruth: estimated suspect sets can \
                 flip with every review, which defeats incremental detection (run the batch \
                 pipeline for estimated mode)"
                    .into(),
            ));
        }
        Ok(ServeState {
            pipeline,
            design,
            pool: pool.max(1),
            trace: TraceDataset::empty(),
            raw: ConsensusMap::with_products(0),
            refined: ConsensusMap::with_products(0),
            estimates: Vec::new(),
            weights: Vec::new(),
            suspected: Vec::new(),
            excluded: SuspectMask::default(),
            suspect_slot: BTreeMap::new(),
            uf: UnionFind::new(0),
            collusion: CollusionReport::from_member_groups(Vec::new()),
            partner_counts: BTreeMap::new(),
            dirty_workers: BTreeSet::new(),
            dirty_products: BTreeSet::new(),
            stats: ServeStats::default(),
            rounds_seen: 0,
        })
    }

    /// The trace accumulated so far.
    pub fn trace(&self) -> &TraceDataset {
        &self.trace
    }

    /// Cumulative work counters.
    pub fn stats(&self) -> ServeStats {
        self.stats
    }

    /// Round boundaries processed so far.
    pub fn rounds_seen(&self) -> usize {
        self.rounds_seen
    }

    /// The `(workers, products)` currently marked dirty — what the next
    /// round boundary will recompute.
    pub fn pending_dirty(&self) -> (usize, usize) {
        (self.dirty_workers.len(), self.dirty_products.len())
    }

    /// The active design configuration.
    pub fn design_config(&self) -> &DesignConfig {
        &self.design
    }

    /// The active detection configuration.
    pub fn pipeline_config(&self) -> &PipelineConfig {
        &self.pipeline
    }

    /// Ingests one event. Returns `Some(output)` for a round boundary,
    /// `None` otherwise.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidInput`] for protocol violations
    /// (non-dense ids, dangling references, out-of-range stars, a
    /// campaign index skipping ahead). Design-level failures (e.g. too
    /// few observation points to fit) are **not** errors here — they
    /// are captured in [`RoundOutput::design`], exactly as the batch
    /// pipeline would report them over the same prefix.
    pub fn apply(&mut self, event: &ServeEvent) -> Result<Option<RoundOutput>, CoreError> {
        self.stats.events += 1;
        match event {
            ServeEvent::Product { id, quality } => {
                self.trace
                    .push_product(Product {
                        id: ProductId(*id),
                        true_quality: *quality,
                    })
                    .map_err(|e| CoreError::InvalidInput(e.to_string()))?;
                Ok(None)
            }
            ServeEvent::Join {
                id,
                class,
                campaign,
                expert,
            } => {
                self.join(*id, *class, *campaign, *expert)?;
                Ok(None)
            }
            ServeEvent::Review {
                worker,
                product,
                round,
                stars,
                length,
                upvotes,
            } => {
                self.trace
                    .push_review(dcc_trace::Review {
                        reviewer: ReviewerId(*worker),
                        product: ProductId(*product),
                        round: *round,
                        stars: *stars,
                        length_chars: *length,
                        upvotes: *upvotes,
                    })
                    .map_err(|e| CoreError::InvalidInput(e.to_string()))?;
                self.dirty_workers.insert(ReviewerId(*worker));
                self.dirty_products.insert(ProductId(*product));
                Ok(None)
            }
            ServeEvent::Round => Ok(Some(self.round_boundary())),
        }
    }

    fn join(
        &mut self,
        id: usize,
        class: WorkerClass,
        campaign: Option<usize>,
        expert: bool,
    ) -> Result<(), CoreError> {
        if let Some(c) = campaign {
            if c > self.trace.campaigns().len() {
                return Err(CoreError::InvalidInput(format!(
                    "join for worker {id} names campaign {c} but only {} campaigns exist",
                    self.trace.campaigns().len()
                )));
            }
        }
        let worker = ReviewerId(id);
        self.trace
            .push_reviewer(Reviewer {
                id: worker,
                class,
                campaign,
                is_expert: expert,
            })
            .map_err(|e| CoreError::InvalidInput(e.to_string()))?;
        if let Some(c) = campaign {
            if c == self.trace.campaigns().len() {
                self.trace
                    .push_campaign(Campaign {
                        id: c,
                        members: Vec::new(),
                        targets: Vec::new(),
                    })
                    .map_err(|e| CoreError::InvalidInput(e.to_string()))?;
            }
            self.trace
                .add_campaign_member(c, worker)
                .map_err(|e| CoreError::InvalidInput(e.to_string()))?;
        }
        self.estimates.push(0.0);
        self.weights.push(0.0);
        self.excluded.push(class.is_malicious());
        if class.is_malicious() {
            let slot = self.uf.push();
            self.suspect_slot.insert(worker, slot);
            self.suspected.push(worker);
        }
        self.dirty_workers.insert(worker);
        Ok(())
    }

    // --- round boundary recompute --------------------------------------

    fn round_boundary(&mut self) -> RoundOutput {
        let round = self.rounds_seen;
        self.rounds_seen += 1;
        self.stats.rounds += 1;

        let dirty_workers = std::mem::take(&mut self.dirty_workers);
        let dirty_products = std::mem::take(&mut self.dirty_products);
        self.stats.dirty_workers += dirty_workers.len();
        self.stats.dirty_products += dirty_products.len();

        let detection = self.recompute_detection(&dirty_workers, &dirty_products);
        let resolved_before = self.stats.solve_resolved;
        let design = self.recompute_design(&detection).map_err(|e| e.to_string());

        RoundOutput {
            round,
            events: self.stats.events,
            dirty_workers: dirty_workers.len(),
            dirty_products: dirty_products.len(),
            resolved: self.stats.solve_resolved - resolved_before,
            design,
        }
    }

    /// Incremental §IV detection: recompute only dirty slots, then
    /// assemble a [`DetectionResult`] equal (bitwise) to
    /// `run_pipeline(trace, pipeline)`.
    fn recompute_detection(
        &mut self,
        dirty_workers: &BTreeSet<ReviewerId>,
        dirty_products: &BTreeSet<ProductId>,
    ) -> DetectionResult {
        let none = SuspectMask::default();

        // 1. Consensus: raw (first pass) and refined (suspect-excluded),
        //    per dirty product. The returned change flags drive
        //    downstream worker dirtiness.
        self.raw.grow_products(self.trace.products().len());
        self.refined.grow_products(self.trace.products().len());
        let mut raw_changed: Vec<ProductId> = Vec::new();
        let mut refined_changed: Vec<ProductId> = Vec::new();
        for &pid in dirty_products {
            if self.raw.recompute_product(&self.trace, pid, &none) {
                raw_changed.push(pid);
            }
            if self
                .refined
                .recompute_product(&self.trace, pid, &self.excluded)
            {
                refined_changed.push(pid);
            }
        }

        // 2. e_mal estimates: a worker's estimate depends on their own
        //    reviews and the raw consensus of the products they
        //    reviewed.
        let mut estimate_dirty: BTreeSet<ReviewerId> = dirty_workers.clone();
        for &pid in &raw_changed {
            for rv in self.trace.reviews_for(pid) {
                estimate_dirty.insert(rv.reviewer);
            }
        }
        let mut estimate_changed: BTreeSet<ReviewerId> = BTreeSet::new();
        for &worker in &estimate_dirty {
            let fresh = self
                .pipeline
                .detector
                .estimate_one(&self.trace, &self.raw, worker);
            let slot = &mut self.estimates[worker.index()];
            if slot.to_bits() != fresh.to_bits() {
                estimate_changed.insert(worker);
            }
            *slot = fresh;
        }

        // 3. Collusion: union suspect co-reviewers on dirty products
        //    (new suspects already got their UnionFind slot at join).
        for &pid in dirty_products {
            let mut first: Option<usize> = None;
            for rv in self.trace.reviews_for(pid) {
                if let Some(&slot) = self.suspect_slot.get(&rv.reviewer) {
                    match first {
                        None => first = Some(slot),
                        Some(f) => {
                            self.uf.union(f, slot);
                        }
                    }
                }
            }
        }
        let groups: Vec<Vec<ReviewerId>> = self
            .uf
            .components()
            .into_iter()
            .map(|slots| slots.iter().map(|&s| self.suspected[s]).collect())
            .collect();
        self.collusion = CollusionReport::from_member_groups(groups);

        // 4. Eq. 5 weights: a worker's weight depends on their reviews,
        //    the refined consensus of reviewed products, their e_mal,
        //    and their partner count.
        let fresh_partners = self.collusion.partner_counts();
        let mut weight_dirty: BTreeSet<ReviewerId> = dirty_workers.clone();
        weight_dirty.extend(estimate_changed.iter().copied());
        for &pid in &refined_changed {
            for rv in self.trace.reviews_for(pid) {
                weight_dirty.insert(rv.reviewer);
            }
        }
        for (&worker, &count) in &fresh_partners {
            if self.partner_counts.get(&worker).copied() != Some(count) {
                weight_dirty.insert(worker);
            }
        }
        self.partner_counts = fresh_partners;
        for &worker in &weight_dirty {
            self.weights[worker.index()] = FeedbackWeights::compute_one(
                &self.trace,
                &self.refined,
                Some(self.estimates[worker.index()]),
                &self.partner_counts,
                self.pipeline.weights,
                worker,
            );
        }

        DetectionResult {
            consensus: self.refined.clone(),
            estimates: MaliciousEstimates::from_values(self.estimates.clone()),
            suspected: self.suspected.clone(),
            collusion: self.collusion.clone(),
            weights: FeedbackWeights::from_values(self.weights.clone()),
        }
    }

    /// The §IV-B/C design over the incrementally maintained detection,
    /// through the batch path: [`prepare_design`], one
    /// [`solve_subproblems`] over every subproblem at the service's
    /// pool (bit-identical at every pool size), then [`assemble_design`].
    fn recompute_design(
        &mut self,
        detection: &DetectionResult,
    ) -> Result<ContractDesign, CoreError> {
        let prep = prepare_design(&self.trace, detection, &self.design)?;
        self.stats.fit_refits += 1;
        self.stats.solve_resolved += prep.subproblems.len();
        // Serve's metric stream is its own `serve.*` counters; the
        // per-subproblem solve spans stay out of it.
        let (solution, degradation) = solve_subproblems(
            &prep.subproblems,
            &self.design.params,
            self.pool,
            self.design.failure_policy,
            &Metrics::noop(),
        )?;
        Ok(assemble_design(detection, &prep, solution, degradation))
    }

    /// The cold-batch reference over the current trace: the exact
    /// two-pass pipeline plus one-shot design the incremental path must
    /// match bit-for-bit. Used by `--verify` and the test harnesses.
    ///
    /// # Errors
    ///
    /// Propagates batch design failures (same errors the incremental
    /// path reports in [`RoundOutput::design`]).
    pub fn cold_design(&self) -> Result<ContractDesign, CoreError> {
        let detection = dcc_detect::run_pipeline(&self.trace, self.pipeline);
        dcc_core::design_contracts(&self.trace, &detection, &self.design)
    }

    /// The cold-batch detection over the current trace (diagnostic
    /// companion of [`ServeState::cold_design`]).
    pub fn cold_detection(&self) -> DetectionResult {
        dcc_detect::run_pipeline(&self.trace, self.pipeline)
    }

    /// Recomputes detection from the current dirty sets without
    /// consuming them — exposed for white-box tests; normal callers go
    /// through [`ServeState::apply`] with [`ServeEvent::Round`].
    #[doc(hidden)]
    pub fn debug_detection(&mut self) -> DetectionResult {
        let dirty_workers = self.dirty_workers.clone();
        let dirty_products = self.dirty_products.clone();
        self.dirty_workers.clear();
        self.dirty_products.clear();
        self.recompute_detection(&dirty_workers, &dirty_products)
    }
}

/// A stable bitwise digest of a design: every `f64` as raw bits plus
/// the discrete fields, in a fixed order. Two designs with equal
/// digests are bit-identical in everything the requester and workers
/// observe. Used by `--verify`, the differential harness, and the
/// golden snapshot.
pub fn design_digest(design: &ContractDesign) -> Vec<u64> {
    let mut digest = vec![
        design.total_requester_utility.to_bits(),
        design.class_psis.0.r2().to_bits(),
        design.class_psis.0.r1().to_bits(),
        design.class_psis.0.r0().to_bits(),
        design.class_psis.1.r2().to_bits(),
        design.class_psis.1.r1().to_bits(),
        design.class_psis.1.r0().to_bits(),
        design.class_psis.2.r2().to_bits(),
        design.class_psis.2.r1().to_bits(),
        design.class_psis.2.r0().to_bits(),
        design.agents.len() as u64,
    ];
    for a in &design.agents {
        digest.push(a.worker.index() as u64);
        digest.push(a.subproblem as u64);
        digest.push(a.compensation.to_bits());
        digest.push(a.induced_effort.to_bits());
        digest.push(a.k_opt.map(|k| k as u64 + 1).unwrap_or(0));
        digest.push(a.delta.to_bits());
        digest.push(u64::from(a.suspected));
        digest.push(a.partners as u64);
        for &knot in a.contract.feedback_knots() {
            digest.push(knot.to_bits());
        }
        for &pay in a.contract.payments() {
            digest.push(pay.to_bits());
        }
    }
    digest.push(design.degradation.len() as u64);
    for d in &design.degradation.degraded {
        digest.push(d.subproblem as u64);
        digest.push(d.attempts as u64);
    }
    digest
}

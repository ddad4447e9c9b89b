//! The state machine behind `dcc serve`.
//!
//! [`ServeState`] grows a [`TraceDataset`] event by event and, at each
//! round boundary, runs the batch pipeline over everything ingested so
//! far: [`run_pipeline`] for the §IV detection, then [`prepare_design`]
//! (every class ψ refit, the decomposition), one [`solve_subproblems`]
//! call over every subproblem, and [`assemble_design`]. A boundary is
//! the batch computation itself, so its design is bit-identical
//! (`f64::to_bits`) to the cold batch pipeline (`run_pipeline` →
//! `design_contracts`) over the same event prefix by construction;
//! `tests/serve_differential.rs` checks it property-wise at every round
//! boundary.
//!
//! Between boundaries the state only appends to the trace and notes
//! which workers and products the events touched. The trace's pushes
//! fold each review into its running tallies exactly as
//! [`TraceDataset::new`] does, so the grown trace equals one built at
//! once over the same entities.

use dcc_core::{
    assemble_design, prepare_design, solve_subproblems, ContractDesign, CoreError, DesignConfig,
};
use dcc_detect::{run_pipeline, DetectionResult, PipelineConfig};
use dcc_obs::Metrics;
use dcc_trace::{
    Campaign, Product, ProductId, Reviewer, ReviewerId, TraceDataset, WorkerClass,
};
use std::collections::BTreeSet;

use crate::event::ServeEvent;

/// Cumulative work counters of a serve run, reported in the final
/// summary and mirrored into `serve.*` metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Events applied (all kinds, round markers included). A rejected
    /// event is not counted.
    pub events: usize,
    /// Round boundaries processed.
    pub rounds: usize,
    /// Workers that joined or reviewed since the previous boundary,
    /// summed over rounds.
    pub dirty_workers: usize,
    /// Products reviewed since the previous boundary, summed over rounds.
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
    /// Events applied up to and including this boundary's marker.
    pub events: usize,
    /// Workers that joined or reviewed since the previous boundary.
    pub dirty_workers: usize,
    /// Products reviewed since the previous boundary.
    pub dirty_products: usize,
    /// Subproblems solved this boundary.
    pub resolved: usize,
    /// The boundary's design, or the rendered error the batch pipeline
    /// also produces over this prefix (e.g. too few honest observation
    /// points early in a stream).
    pub design: Result<ContractDesign, String>,
}

/// The streaming service's state: the trace grown so far, what the
/// events since the last boundary touched, and the run's counters.
#[derive(Debug, Clone)]
pub struct ServeState {
    pipeline: PipelineConfig,
    design: DesignConfig,
    pool: usize,

    trace: TraceDataset,

    // --- input touched since the last boundary ------------------------
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
    /// Rejects invalid design configurations.
    pub fn new(
        pipeline: PipelineConfig,
        design: DesignConfig,
        pool: usize,
    ) -> Result<Self, CoreError> {
        design.validate()?;
        Ok(ServeState {
            pipeline,
            design,
            pool: pool.max(1),
            trace: TraceDataset::empty(),
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

    /// The `(workers, products)` the events since the last boundary
    /// touched — what the next boundary reports as dirty.
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

    /// Applies one event. Returns `Some(output)` for a round boundary,
    /// `None` otherwise. A rejected event leaves the state, counters
    /// included, unchanged.
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
        match event {
            ServeEvent::Product { id, quality } => {
                self.trace
                    .push_product(Product {
                        id: ProductId(*id),
                        true_quality: *quality,
                    })
                    .map_err(|e| CoreError::InvalidInput(e.to_string()))?;
            }
            ServeEvent::Join {
                id,
                class,
                campaign,
                expert,
            } => self.join(*id, *class, *campaign, *expert)?,
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
            }
            ServeEvent::Round => {
                self.stats.events += 1;
                return Ok(Some(self.round_boundary()));
            }
        }
        self.stats.events += 1;
        Ok(None)
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
        self.dirty_workers.insert(worker);
        Ok(())
    }

    // --- round boundary ------------------------------------------------

    fn round_boundary(&mut self) -> RoundOutput {
        let round = self.rounds_seen;
        self.rounds_seen += 1;
        self.stats.rounds += 1;

        let (dirty_workers, dirty_products) = self.pending_dirty();
        self.dirty_workers.clear();
        self.dirty_products.clear();
        self.stats.dirty_workers += dirty_workers;
        self.stats.dirty_products += dirty_products;

        let detection = run_pipeline(&self.trace, self.pipeline);
        let resolved_before = self.stats.solve_resolved;
        let design = self.design_round(&detection).map_err(|e| e.to_string());

        RoundOutput {
            round,
            events: self.stats.events,
            dirty_workers,
            dirty_products,
            resolved: self.stats.solve_resolved - resolved_before,
            design,
        }
    }

    /// The §IV-B/C design over the boundary's detection, through the
    /// batch path: [`prepare_design`], one [`solve_subproblems`] over
    /// every subproblem at the service's pool (bit-identical at every
    /// pool size), then [`assemble_design`].
    fn design_round(&mut self, detection: &DetectionResult) -> Result<ContractDesign, CoreError> {
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

    /// The cold-batch reference over the current trace: the two-pass
    /// pipeline plus the one-shot [`dcc_core::design_contracts`] that
    /// each boundary's design must match bit-for-bit. Used by
    /// `--verify` and the test harnesses.
    ///
    /// # Errors
    ///
    /// Propagates batch design failures (the same errors a boundary
    /// reports in [`RoundOutput::design`]).
    pub fn cold_design(&self) -> Result<ContractDesign, CoreError> {
        let detection = run_pipeline(&self.trace, self.pipeline);
        dcc_core::design_contracts(&self.trace, &detection, &self.design)
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
    }
    digest
}

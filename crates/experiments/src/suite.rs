//! The suite's registry: every artifact once, in suite order, with the
//! name `dcc experiment NAME` runs it by, its heading in `dcc experiment
//! all`, its CSV file stem, the lines printed around its table when it
//! runs alone, and its runner.

use crate::{
    adaptive_ext, adversarial, baselines_ext, budget_ext, collusion_ablation, core_error,
    detection_quality, fig6, fig7, fig8a, fig8b, fig8c, risk_ext, sensitivity, table2, table3,
    ExperimentScale, TextTable,
};
use dcc_core::CoreError;
use dcc_trace::TraceDataset;
use std::cell::OnceCell;

/// What an artifact runs on: a scale, a seed, and the trace they
/// generate, built on first use, so only the artifacts that read it pay
/// for it and every artifact of one suite reads the same one.
#[derive(Debug)]
pub struct Input {
    /// The workload scale.
    pub scale: ExperimentScale,
    /// The seed of the trace and of the artifacts' own randomness.
    pub seed: u64,
    trace: OnceCell<TraceDataset>,
}

impl Input {
    /// An input whose trace is not generated yet.
    pub fn new(scale: ExperimentScale, seed: u64) -> Self {
        Input { scale, seed, trace: OnceCell::new() }
    }

    /// `scale.generate(seed)`, generated on the first call.
    pub fn trace(&self) -> &TraceDataset {
        self.trace.get_or_init(|| self.scale.generate(self.seed))
    }
}

/// One artifact of the suite.
#[derive(Debug, Clone, Copy)]
pub struct Artifact {
    /// The name `dcc experiment NAME` takes.
    pub name: &'static str,
    /// The `--- heading ---` line `dcc experiment all` prints above it.
    pub heading: &'static str,
    /// The stem of its file under `--csv DIR`.
    pub csv: &'static str,
    /// The title above its table when it runs alone; `{scale}` stands
    /// for the scale it ran at and `{note}` for its run's note.
    pub title: &'static str,
    /// The closing line below its table when it runs alone; `{note}` as
    /// in the title.
    pub closing: &'static str,
    /// Runs it: its table, and the note its title or closing quotes
    /// (Fig. 6's ψ/μ/β, Table II's counts, E10's best F1, E13's
    /// unconstrained spend, E14's risk-neutral effort; empty otherwise).
    pub run: fn(&Input) -> Result<(TextTable, String), CoreError>,
}

impl Artifact {
    /// Runs the artifact and renders what it prints when it runs alone:
    /// the title, a blank line, the table, a blank line and the closing
    /// line, without a final newline.
    ///
    /// # Errors
    ///
    /// Propagates the runner's failure.
    pub fn report(&self, input: &Input) -> Result<String, CoreError> {
        let (table, note) = (self.run)(input)?;
        let scale = format!("{:?}", input.scale);
        let fill = |text: &str| text.replace("{scale}", &scale).replace("{note}", &note);
        Ok(format!("{}\n\n{table}\n{}", fill(self.title), fill(self.closing)))
    }
}

/// `ARTIFACTS[..PAPER_ARTIFACTS]` are the paper's E1–E7; the rest are
/// the extensions E8–E15.
pub const PAPER_ARTIFACTS: usize = 7;

/// Every artifact, E1 to E15.
pub const ARTIFACTS: [Artifact; 15] = [
    Artifact {
        name: "fig6", heading: "E1 / Fig. 6", csv: "fig6",
        title: "Fig. 6 — requester utility vs Theorem 4.1 bounds (single honest worker)\n{note}",
        closing: "shape check: achieved utility approaches the upper bound as m grows.",
        run: |_| {
            let r = fig6::run(&fig6::DEFAULT_MS)?;
            let (psi, mu, beta) = (r.psi, r.params.mu, r.params.beta);
            Ok((r.table(), format!("psi = {psi}, mu = {mu}, beta = {beta}")))
        },
    },
    Artifact {
        name: "table2", heading: "E2 / Table II", csv: "table2",
        title: "Table II — collusive community sizes ({scale} scale): {note}",
        closing: "shape check: the size-2 bucket dominates, matching the paper's 51.2%.",
        run: |input| {
            let r = table2::run_on(input.trace()).map_err(core_error)?;
            let (communities, workers) = (r.communities, r.collusive_workers);
            Ok((r.table(), format!("{communities} communities, {workers} workers")))
        },
    },
    Artifact {
        name: "fig7", heading: "E3 / Fig. 7", csv: "fig7",
        title: "Fig. 7 — average effort and feedback by worker class ({scale} scale)",
        closing: "shape check: collusive feedback far exceeds the other classes; efforts similar.",
        run: |input| Ok((fig7::run_on(input.trace()).table(), String::new())),
    },
    Artifact {
        name: "table3", heading: "E4 / Table III", csv: "table3",
        title: "Table III — norm of residuals by fit order ({scale} scale)",
        closing: "shape check: NoR is flat from the quadratic onward (quadratic suffices).",
        run: |input| Ok((table3::run_on(input.trace())?.table(), String::new())),
    },
    Artifact {
        name: "fig8a", heading: "E5 / Fig. 8(a)", csv: "fig8a",
        title: "Fig. 8(a) — compensation of prolific honest workers vs Lemma 4.3 bound \
                ({scale} scale)",
        closing: "shape check: the mean gap to the lower bound shrinks as m grows.",
        run: |input| Ok((fig8a::run_on(input.trace(), &fig8a::DEFAULT_MS)?.table(), String::new())),
    },
    Artifact {
        name: "fig8b", heading: "E6 / Fig. 8(b)", csv: "fig8b",
        title: "Fig. 8(b) — compensation distribution by class and mu ({scale} scale)",
        closing: "shape check: honest > non-collusive malicious > collusive; pay rises as mu falls.",
        run: |input| Ok((fig8b::run_on(input.trace(), &fig8b::DEFAULT_MUS)?.table(), String::new())),
    },
    Artifact {
        name: "fig8c", heading: "E7 / Fig. 8(c)", csv: "fig8c",
        title: "Fig. 8(c) — requester utility: dynamic contract vs baselines ({scale} scale)",
        closing: "shape check: the dynamic contract dominates exclusion at every mu.",
        run: |input| Ok((fig8c::run_on(input.trace(), &fig8b::DEFAULT_MUS)?.table(), String::new())),
    },
    Artifact {
        name: "adaptive", heading: "E8 / adaptive re-contracting (extension)", csv: "e8_adaptive",
        title: "E8 (extension) — adaptive re-contracting vs static one-shot design",
        closing: "shape check: adaptive ≈ static when behaviour is stationary; adaptive wins\n\
                  (especially late in the run) against deceptive and drifting workers.",
        run: |input| Ok((adaptive_ext::run(input.seed)?.table(), String::new())),
    },
    Artifact {
        name: "sensitivity", heading: "E9 / penalty sensitivity (extension)", csv: "e9_sensitivity",
        title: "E9 (extension) — kappa/gamma penalty sensitivity ({scale} scale)",
        closing: "shape check: honest > malicious pay at every cell; harsher penalties cut \
                  malicious pay.",
        run: |input| {
            let (kappas, gammas) = (&sensitivity::DEFAULT_KAPPAS, &sensitivity::DEFAULT_GAMMAS);
            Ok((sensitivity::run_on(input.trace(), kappas, gammas)?.table(), String::new()))
        },
    },
    Artifact {
        name: "detection", heading: "E10 / detector quality (extension)", csv: "e10_detection",
        title: "E10 (extension) — malicious-probability estimator quality ({scale} scale)",
        closing: "best F1 across thresholds: {note}",
        run: |input| {
            let r = detection_quality::run_on(input.trace(), &detection_quality::DEFAULT_THRESHOLDS);
            Ok((r.table(), format!("{:.3}", r.best_f1())))
        },
    },
    Artifact {
        name: "collusion", csv: "e11_collusion",
        heading: "E11 / collusion-modeling ablation (extension)",
        title: "E11 (extension) — collusion-aware vs collusion-blind contract design \
                ({scale} scale)",
        closing: "shape check: awareness never hurts; blindness overpays collusive workers.",
        run: |input| {
            let r = collusion_ablation::run_on(input.trace(), &fig8b::DEFAULT_MUS)?;
            Ok((r.table(), String::new()))
        },
    },
    Artifact {
        name: "baselines", heading: "E12 / baseline ladder (extension)", csv: "e12_baselines",
        title: "E12 (extension) — dynamic contract vs the pricing-baseline ladder ({scale} scale)",
        closing: "shape check: dynamic > learned linear > fixed; exclusion forfeits malicious value.",
        run: |input| {
            let r = baselines_ext::run_on(input.trace(), &fig8b::DEFAULT_MUS)?;
            Ok((r.table(), String::new()))
        },
    },
    Artifact {
        name: "budget", heading: "E13 / budget-feasible contracting (extension)", csv: "e13_budget",
        title: "E13 (extension) — requester utility under a hard payment budget ({scale} scale)\n\
                unconstrained: {note}",
        closing: "shape check: utility is concave in the budget (best-ratio workers funded first).",
        run: |input| {
            let r = budget_ext::run_on(input.trace(), &budget_ext::DEFAULT_FRACTIONS)?;
            let (spend, utility) = (r.full_spend, r.full_utility);
            Ok((r.table(), format!("spend {spend:.2}, utility {utility:.2}")))
        },
    },
    Artifact {
        name: "risk", heading: "E14 / risk-attitude premium (extension)", csv: "e14_risk",
        title: "E14 (extension) — effort lost to risk aversion and the pay premium to restore it\n\
                risk-neutral induced effort: {note}",
        closing: "shape check: retained effort falls with rho; the restoring premium rises.",
        run: |_| {
            let r = risk_ext::run(&risk_ext::DEFAULT_EXPONENTS)?;
            Ok((r.table(), format!("{:.3}", r.neutral_effort)))
        },
    },
    Artifact {
        name: "adversarial", csv: "e15_adversarial",
        heading: "E15 / adversarial collusion head-to-head (extension)",
        title: "E15 (extension) — BiP dynamic contract vs collusion-proof baseline under \
                adversarial churn ({scale} scale)",
        closing: "shape check: both columns finite on every plan; the collusion-proof column \
                  prices bias, not upvotes.",
        run: |input| Ok((adversarial::run(input.scale, input.seed)?.table(), String::new())),
    },
];

//! The protocol the seeded conformance arms share.
//!
//! Beside the makespan battery, each case index runs three seeded arms:
//! [`crate::survival`], [`crate::ilp`] and [`crate::hetero`]. Each arm
//! draws its own fully seeded spec for the index and runs its own check
//! battery; each keeps its own check enum with stable wire tags. Their
//! violations are counted and journaled with the case but never shrunk:
//! the spec is already small, so the `(seed, index)` pair *is* the
//! reproducer. This module holds what the arms have in common.

use crate::hetero::{check_hetero_case, generate_hetero_case, HeteroCheck};
use crate::ilp::{check_ilp_case, generate_ilp_case, IlpCheck};
use crate::runner::ConformanceConfig;
use crate::survival::{check_survival_case, generate_survival_case, SurvivalCheck};

/// One breached invariant of a seeded arm, `C` being the arm's check
/// enum.
#[derive(Debug, Clone)]
pub struct Violation<C> {
    /// Which invariant broke.
    pub check: C,
    /// The observed value (survival, memory, makespan, …).
    pub observed: f64,
    /// The limit it had to respect, or the value it had to match.
    pub limit: f64,
    /// Human-readable context.
    pub detail: String,
}

/// The outcome of one case of a seeded arm.
#[derive(Debug, Clone)]
pub struct ArmReport<C> {
    /// Checks evaluated.
    pub checks_run: u64,
    /// Breached invariants.
    pub violations: Vec<Violation<C>>,
}

impl<C> Default for ArmReport<C> {
    fn default() -> Self {
        ArmReport {
            checks_run: 0,
            violations: Vec::new(),
        }
    }
}

impl<C: Copy> ArmReport<C> {
    /// The same report with every check replaced by its wire tag.
    fn tagged(self, tag: fn(C) -> &'static str) -> ArmReport<&'static str> {
        ArmReport {
            checks_run: self.checks_run,
            violations: self
                .violations
                .into_iter()
                .map(|v| Violation {
                    check: tag(v.check),
                    observed: v.observed,
                    limit: v.limit,
                    detail: v.detail,
                })
                .collect(),
        }
    }
}

/// The seeded arms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arm {
    /// Reliability-aware replication against its survival target.
    Survival,
    /// ILP and LP-rounding placement against certified optima.
    Ilp,
    /// Speed-robust execution and locality dispatch.
    Hetero,
}

impl Arm {
    /// Every arm, in the order the runner runs them.
    pub const ALL: [Arm; 3] = [Arm::Survival, Arm::Ilp, Arm::Hetero];

    /// Stable name, as printed and journaled.
    pub fn as_str(self) -> &'static str {
        match self {
            Arm::Survival => "survival",
            Arm::Ilp => "ilp",
            Arm::Hetero => "hetero",
        }
    }

    /// Runs this arm's battery on its `index`-th case of the stream
    /// `config` describes, with every check as its wire tag. A spec the
    /// battery rejects becomes one violation of the arm's error check
    /// instead of aborting the campaign.
    pub fn run(self, config: &ConformanceConfig, index: u64) -> ArmReport<&'static str> {
        let (seed, n, m, mutation) = (config.seed, config.max_n, config.max_m, config.mutation);
        let (outcome, rejected) = match self {
            Arm::Survival => (
                check_survival_case(&generate_survival_case(seed, index, n, m), mutation)
                    .map(|r| r.tagged(SurvivalCheck::as_str)),
                SurvivalCheck::PlannerError.as_str(),
            ),
            Arm::Ilp => (
                check_ilp_case(&generate_ilp_case(seed, index, n, m), mutation)
                    .map(|r| r.tagged(IlpCheck::as_str)),
                IlpCheck::PlannerError.as_str(),
            ),
            Arm::Hetero => (
                check_hetero_case(&generate_hetero_case(seed, index, n, m), mutation)
                    .map(|r| r.tagged(HeteroCheck::as_str)),
                HeteroCheck::EngineError.as_str(),
            ),
        };
        outcome.unwrap_or_else(|e| ArmReport {
            checks_run: 1,
            violations: vec![Violation {
                check: rejected,
                observed: 0.0,
                limit: 0.0,
                detail: format!("{} case rejected: {e}", self.as_str()),
            }],
        })
    }
}

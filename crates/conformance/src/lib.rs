//! Conformance oracle: differential + metamorphic verification of every
//! placement strategy against the exact solvers and the proven bounds.
//!
//! Given a seeded stream of randomized and adversarial instances, the
//! oracle runs each strategy of the registry both in closed form
//! (`rds-algs`) and through the event engine (`rds-sim`) and checks:
//!
//! 1. **Differential**: the closed-form and engine makespans agree, the
//!    produced schedule passes every `rds-sim::validate` invariant, and
//!    the makespan respects the `rds-exact` lower bounds (combined
//!    analytic bounds and the optimal solver's certified `lo`).
//! 2. **Guarantees**: the achieved makespan never exceeds the matching
//!    `rds-bounds` competitive-ratio guarantee times the optimal
//!    solver's certified upper bracket — a sound violation detector,
//!    since `C* ≤ hi` implies any flag is a genuine bound breach.
//! 3. **Metamorphic**: scaling all estimates by 2 doubles the makespan,
//!    relabeling machines leaves it unchanged, `α = 1` with exact
//!    realizations collapses the LPT strategies to clairvoyant LPT list
//!    scheduling, and on identical-estimate/uniform-factor instances
//!    (where the paper's analysis makes all group sizes equivalent)
//!    adding replicas never worsens the ordered-dispatch makespan.
//!
//! On failure the oracle *shrinks* the instance — dropping tasks,
//! halving `m`, rounding times to small integers, snapping deviation
//! factors to `{1/α, 1, α}` — to a minimal counterexample, writes a
//! reproducible JSON artifact, and supports replaying it later
//! (`rds conformance --replay <file>`).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod arm;
pub mod artifact;
pub mod case;
pub mod checks;
pub mod generator;
pub mod hetero;
pub mod ilp;
pub mod mutant;
pub mod registry;
pub mod runner;
pub mod shrink;
pub mod survival;

pub use arm::{Arm, ArmReport, Violation};
pub use artifact::Counterexample;
pub use case::CaseSpec;
pub use checks::{check_case, CaseReport, CheckKind, ConformanceViolation};
pub use generator::generate_case;
pub use hetero::{check_hetero_case, generate_hetero_case, HeteroCheck, HeteroSpec};
pub use ilp::{check_ilp_case, generate_ilp_case, IlpCheck, IlpSpec};
pub use mutant::DropReplica;
pub use registry::{Dispatch, Mutation, StrategyId};
pub use runner::{replay, run, ConformanceConfig, ConformanceReport, ReplayOutcome};
pub use shrink::{shrink, ShrinkResult};
pub use survival::{check_survival_case, generate_survival_case, SurvivalCheck, SurvivalSpec};

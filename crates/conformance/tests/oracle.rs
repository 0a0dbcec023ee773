//! Regression suite for the conformance oracle itself.
//!
//! Two pillars: (1) the Theorem-1 tight adversary family drives the
//! *event engine* to the proven lower bound, so the oracle's
//! engine-parity path measures exactly what the theory predicts; (2) a
//! seeded mutant (`DropReplica`) is always caught, shrinks to a stable
//! minimal counterexample, and replays from its artifact.

use rds_adversary::theorem1::{attack, finite_lambda_bound, uniform_instance};
use rds_algs::{LptNoChoice, Strategy};
use rds_conformance::{
    replay, run, CheckKind, ConformanceConfig, Counterexample, Mutation, StrategyId,
};
use rds_core::{Assignment, MachineId, Uncertainty};
use rds_exact::OptimalSolver;
use rds_sim::executors;

const TOL: f64 = 1e-9;

/// The Theorem-1 adversary ratio, measured through the discrete-event
/// engine rather than the closed form, meets the proven finite-λ bound.
#[test]
fn theorem1_tight_adversary_meets_bound_through_the_engine() {
    for (lambda, m, alpha) in [(1, 2, 1.5), (2, 3, 2.0), (3, 4, 1.5), (2, 6, 3.0)] {
        let instance = uniform_instance(lambda, m).unwrap();
        let unc = Uncertainty::new(alpha).unwrap();

        // Commit LPT-No Choice's no-replication assignment, then let the
        // adversary pick the worst realization inside the envelope.
        let placement = LptNoChoice.place(&instance, unc).unwrap();
        let machine_of: Vec<MachineId> = placement
            .sets()
            .iter()
            .map(|s| s.iter(m).next().unwrap())
            .collect();
        let assignment = Assignment::new(&instance, machine_of.clone()).unwrap();
        let outcome = attack(&instance, unc, &assignment).unwrap();

        // The engine reproduces the closed-form online makespan exactly.
        let sim = executors::simulate_pinned(&instance, &machine_of, &outcome.realization).unwrap();
        let engine_mk = sim.makespan.get();
        assert!(
            (engine_mk - outcome.online_makespan.get()).abs() <= TOL * engine_mk.max(1.0),
            "engine {} vs closed form {} (λ={lambda}, m={m}, α={alpha})",
            engine_mk,
            outcome.online_makespan.get()
        );

        // And the measured ratio meets the proven finite-λ bound.
        let ratio = engine_mk / outcome.offline_upper.get();
        let bound = finite_lambda_bound(alpha, m, lambda);
        assert!(
            ratio >= bound - TOL,
            "engine ratio {ratio} below proven bound {bound} (λ={lambda}, m={m}, α={alpha})"
        );
    }
}

/// A clean acceptance sweep: 200 seeded cases, every shipped strategy,
/// zero violations.
#[test]
fn seeded_stream_is_clean_for_shipped_strategies() {
    let report = run(&ConformanceConfig {
        cases: 200,
        seed: 42,
        ..ConformanceConfig::default()
    })
    .unwrap();
    assert_eq!(report.cases_run, 200);
    assert_eq!(
        report.violations, 0,
        "violations on shipped strategies: {:?}",
        report.counterexamples
    );
    assert!(report.checks_run > 1_000);
}

/// The DropReplica mutant is caught, its counterexample shrinks to at
/// most 6 tasks, the artifact replays to the same verdict, and re-running
/// the campaign shrinks to the identical minimal case.
#[test]
fn drop_replica_mutant_shrinks_to_a_stable_replayable_minimum() {
    let dir = std::env::temp_dir().join(format!("rds-oracle-mutant-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let config = ConformanceConfig {
        cases: 24,
        mutation: Mutation::DropReplica,
        artifact_dir: Some(dir.clone()),
        ..ConformanceConfig::default()
    };
    let report = run(&config).unwrap();
    assert!(report.violations > 0, "mutant escaped the oracle");
    assert!(!report.counterexamples.is_empty());
    // The mutant drops replicas, so its signature checks are the
    // guarantee ratio and (on the monotone family) replica monotonicity.
    assert!(report
        .counterexamples
        .iter()
        .any(|ce| ce.check == CheckKind::GuaranteeRatio));

    let solver = OptimalSolver::default();
    for ce in &report.counterexamples {
        assert!(
            ce.spec.n() <= 6,
            "counterexample for {} not minimal: {} tasks",
            ce.strategy.name(),
            ce.spec.n()
        );
        let outcome = replay(ce, &solver).unwrap();
        assert!(
            outcome.reproduced,
            "shrunk case no longer fails {} for {}",
            ce.check.as_str(),
            ce.strategy.name()
        );
    }

    // Every artifact file parses back and replays too.
    for path in &report.artifacts {
        let ce = Counterexample::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert!(replay(&ce, &solver).unwrap().reproduced);
    }

    // Determinism: an identical campaign shrinks to identical minima.
    let again = run(&ConformanceConfig {
        artifact_dir: None,
        ..config
    })
    .unwrap();
    assert_eq!(report.counterexamples.len(), again.counterexamples.len());
    for (a, b) in report.counterexamples.iter().zip(&again.counterexamples) {
        assert_eq!(a.spec, b.spec);
        assert_eq!(a.strategy, b.strategy);
        assert_eq!(a.check, b.check);
        assert_eq!(a.shrink_steps, b.shrink_steps);
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The α = 1 slice of the stream collapses both LPT strategies onto
/// clairvoyant LPT — checked here end to end through the public API.
#[test]
fn alpha_one_slice_collapses_to_clairvoyant_lpt() {
    let mut checked = 0;
    for index in 0..64u64 {
        let spec = rds_conformance::generate_case(42, index, 12, 8);
        if spec.alpha != 1.0 {
            continue;
        }
        let report = rds_conformance::check_case(
            &spec,
            &[StrategyId::LptNoChoice, StrategyId::LptNoRestriction],
            Mutation::None,
            &OptimalSolver::default(),
        )
        .unwrap();
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        checked += 1;
    }
    assert!(checked >= 4, "stream produced too few α = 1 cases");
}

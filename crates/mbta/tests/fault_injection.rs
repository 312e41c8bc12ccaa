//! Property tests for the fault-tolerant evaluation pipeline: 1,000
//! seeded fault-injection trials drive corrupted counter profiles
//! through validation and the budgeted evaluator.
//!
//! Properties checked (per trial):
//!
//! 1. validation and the fallback evaluation never panic — every
//!    outcome is a value, not an unwind;
//! 2. every accepted profile (clean or repaired) satisfies all
//!    platform invariants, i.e. re-checking it reports clean;
//! 3. every strict rejection carries non-empty machine-readable
//!    diagnostics naming at least one invariant;
//! 4. perturbation is deterministic: the same seed yields the same
//!    corrupted profile and fault records.

use contention::evaluate::{BoundSource, EvalOptions, Evaluator};
use contention::{ModelError, Platform, ValidationPolicy, Validator};
use mbta::perturb_profile;
use tc27x_sim::{CoreId, DeploymentScenario};

const TRIALS: u64 = 1_000;

/// One real isolation profile to corrupt, straight from the simulator.
fn base_profile() -> contention::IsolationProfile {
    let spec = workloads::control_loop_on(
        platform::default_platform(),
        DeploymentScenario::Scenario1,
        CoreId(1),
        42,
    );
    mbta::ExecEngine::sequential()
        .isolation(&spec, CoreId(1))
        .expect("reference workload simulates")
}

#[test]
fn thousand_seeded_trials_never_panic_and_keep_invariants() {
    let platform = Platform::tc277_reference();
    let base = base_profile();
    let repair = Validator::new(&platform, ValidationPolicy::Repair);
    let strict = Validator::new(&platform, ValidationPolicy::Strict);

    // Budget-1 evaluator: the ILP budget is exhausted immediately, so
    // every trial exercises the fTC fallback path end to end.
    let mut options =
        EvalOptions::for_scenario(mbta::constraints_for(DeploymentScenario::Scenario1));
    options.ilp.node_budget = 1;
    let budgeted = Evaluator::new(&platform, options);
    // Default-budget evaluator for a subset of trials: exercises the
    // exact ILP path on repaired profiles without 1,000 full solves.
    let exact = Evaluator::new(
        &platform,
        EvalOptions::for_scenario(mbta::constraints_for(DeploymentScenario::Scenario1)),
    );

    let mut repaired_trials = 0u64;
    let mut rejected_trials = 0u64;
    let mut total_faults = 0usize;

    for seed in 0..TRIALS {
        let (corrupt, records) = perturb_profile(&base, seed);
        total_faults += records.len();

        // Property 4: determinism.
        let (again, records_again) = perturb_profile(&base, seed);
        assert_eq!(corrupt.counters(), again.counters(), "seed {seed}");
        assert_eq!(records, records_again, "seed {seed}");

        // Property 2: whatever repair accepts re-checks clean.
        let (accepted, report) = repair
            .apply(&corrupt)
            .unwrap_or_else(|e| panic!("seed {seed}: repair policy rejected a profile: {e}"));
        assert!(
            repair.check(&accepted).is_clean(),
            "seed {seed}: accepted profile still violates invariants: {}",
            repair.check(&accepted).detail()
        );
        if report.repaired {
            repaired_trials += 1;
        }

        // Property 3: strict rejections carry diagnostics.
        match strict.apply(&corrupt) {
            Ok((p, r)) => {
                assert!(r.is_clean(), "seed {seed}: strict accepted a dirty profile");
                assert_eq!(p.counters(), corrupt.counters(), "seed {seed}");
            }
            Err(ModelError::InconsistentProfile { task, detail }) => {
                rejected_trials += 1;
                assert!(
                    !detail.is_empty(),
                    "seed {seed}: rejection without diagnostics"
                );
                assert!(
                    detail.contains("invariant="),
                    "seed {seed}: diagnostics name no invariant: {detail}"
                );
                assert_eq!(task, corrupt.name(), "seed {seed}");
            }
            Err(other) => panic!("seed {seed}: unexpected error {other}"),
        }

        // Property 1: the budgeted evaluator absorbs the corruption and
        // degrades to a finite fTC bound — it never panics or errors
        // under the repair policy.
        let evaluated = budgeted
            .bound(&base, &corrupt)
            .unwrap_or_else(|e| panic!("seed {seed}: budgeted evaluation failed: {e}"));
        assert_eq!(evaluated.source, BoundSource::Ftc, "seed {seed}");
        assert!(evaluated.source.is_fallback());

        // Exact ILP path on a sample of trials (every 50th seed).
        if seed % 50 == 0 {
            let ev = exact
                .bound(&base, &corrupt)
                .unwrap_or_else(|e| panic!("seed {seed}: exact evaluation failed: {e}"));
            assert!(
                ev.bound.delta_cycles <= evaluated.bound.delta_cycles,
                "seed {seed}: ILP bound exceeds its fTC fallback"
            );
        }
    }

    // The fault injector must actually stress both policies: across
    // 1,000 trials some corruptions must need repair / rejection.
    assert!(total_faults > 0, "no trial ever recorded a fault");
    assert!(repaired_trials > 0, "no trial ever needed repair");
    assert!(rejected_trials > 0, "no trial was ever strictly rejected");
    assert_eq!(
        repaired_trials, rejected_trials,
        "repair and strict must disagree with clean input on the same trials"
    );
}

#[test]
fn clean_profiles_pass_both_policies_unchanged() {
    let platform = Platform::tc277_reference();
    let base = base_profile();
    for policy in [ValidationPolicy::Repair, ValidationPolicy::Strict] {
        let v = Validator::new(&platform, policy);
        let (p, report) = v.apply(&base).expect("clean profile accepted");
        assert!(report.is_clean());
        assert!(!report.repaired);
        assert_eq!(p.counters(), base.counters());
    }
}

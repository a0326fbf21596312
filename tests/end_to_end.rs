//! End-to-end integration: generators → problem → aligners → result,
//! across every matcher.

use netalignmc::data::metrics::{fraction_correct, reference_objective};
use netalignmc::data::standins::StandIn;
use netalignmc::data::synthetic::{power_law_alignment, PowerLawParams};
use netalignmc::prelude::*;

fn all_matchers() -> Vec<MatcherKind> {
    vec![
        MatcherKind::Exact,
        MatcherKind::Greedy,
        MatcherKind::LocalDominant,
        MatcherKind::ParallelLocalDominant,
        MatcherKind::ParallelLocalDominantOneSide,
        MatcherKind::PathGrowing,
        MatcherKind::Auction { eps_rel: 1e-4 },
    ]
}

#[test]
fn bp_and_mr_run_with_every_matcher() {
    let inst = power_law_alignment(&PowerLawParams {
        n: 80,
        expected_degree: 4.0,
        seed: 3,
        ..Default::default()
    });
    for matcher in all_matchers() {
        let cfg = AlignConfig {
            iterations: 10,
            matcher,
            ..Default::default()
        };
        let bp = belief_propagation(&inst.problem, &cfg);
        assert!(bp.matching.is_valid(&inst.problem.l), "{}", matcher.name());
        assert!(bp.objective > 0.0);
        let mr = matching_relaxation(&inst.problem, &cfg);
        assert!(mr.matching.is_valid(&inst.problem.l), "{}", matcher.name());
        assert!(mr.objective > 0.0);
        assert!(mr.upper_bound.unwrap() + 1e-9 >= mr.objective);
    }
}

#[test]
fn easy_instances_recover_most_of_the_planted_alignment() {
    let inst = power_law_alignment(&PowerLawParams {
        n: 150,
        expected_degree: 2.0,
        seed: 11,
        ..Default::default()
    });
    let cfg = AlignConfig {
        iterations: 60,
        ..Default::default()
    };
    let bp = belief_propagation(&inst.problem, &cfg);
    let frac = fraction_correct(&bp.matching, &inst.planted);
    assert!(frac > 0.8, "BP recovered only {frac}");
    let reference = reference_objective(&inst.problem, &inst.planted, 1.0, 2.0);
    assert!(bp.objective >= 0.9 * reference.total);
}

#[test]
fn standin_pipeline_works_at_small_scale() {
    for si in [StandIn::DmelaScere, StandIn::HomoMusm] {
        let inst = si.generate(0.05, 5);
        let cfg = AlignConfig {
            iterations: 8,
            batch: 4,
            matcher: MatcherKind::ParallelLocalDominant,
            final_exact_round: true,
            ..Default::default()
        };
        let r = belief_propagation(&inst.problem, &cfg);
        assert!(r.matching.is_valid(&inst.problem.l));
        assert!(
            r.objective > 0.0,
            "{}: objective {}",
            si.spec().name,
            r.objective
        );
    }
}

#[test]
fn objective_components_are_consistent() {
    let inst = power_law_alignment(&PowerLawParams {
        n: 60,
        expected_degree: 5.0,
        seed: 21,
        ..Default::default()
    });
    let cfg = AlignConfig {
        alpha: 0.5,
        beta: 3.0,
        iterations: 12,
        ..Default::default()
    };
    let r = belief_propagation(&inst.problem, &cfg);
    assert!((r.objective - (0.5 * r.weight + 3.0 * r.overlap)).abs() < 1e-9);
}

#[test]
fn history_tracks_the_best_solution() {
    let inst = power_law_alignment(&PowerLawParams {
        n: 60,
        expected_degree: 4.0,
        seed: 31,
        ..Default::default()
    });
    let cfg = AlignConfig {
        iterations: 15,
        record_history: true,
        ..Default::default()
    };
    let r = belief_propagation(&inst.problem, &cfg);
    let best_in_history = r
        .history
        .iter()
        .map(|h| h.objective)
        .fold(f64::NEG_INFINITY, f64::max);
    assert!((best_in_history - r.objective).abs() < 1e-9);
    let mr = matching_relaxation(&inst.problem, &cfg);
    assert_eq!(mr.history.len(), 15);
}

#[test]
fn alpha_zero_maximizes_overlap_beta_zero_maximizes_weight() {
    let inst = power_law_alignment(&PowerLawParams {
        n: 70,
        expected_degree: 6.0,
        seed: 41,
        ..Default::default()
    });
    let overlap_cfg = AlignConfig {
        alpha: 0.0,
        beta: 1.0,
        iterations: 30,
        ..Default::default()
    };
    let weight_cfg = AlignConfig {
        alpha: 1.0,
        beta: 0.0,
        iterations: 30,
        ..Default::default()
    };
    let r_overlap = belief_propagation(&inst.problem, &overlap_cfg);
    let r_weight = belief_propagation(&inst.problem, &weight_cfg);
    // The weight-only objective is just max-weight matching; BP's first
    // rounded iterate already achieves it.
    assert!(r_weight.weight >= r_overlap.weight - 1e-9);
    assert!(r_overlap.overlap >= r_weight.overlap * 0.9 - 1e-9);
}

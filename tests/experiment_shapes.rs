//! Regression tests for the *shapes* of the reproduced experiments
//! (EXPERIMENTS.md): who wins, by roughly what factor, and where the
//! qualitative boundaries fall. Absolute numbers vary with the machine;
//! these assertions use generous margins.

mod common;

use std::time::Duration;

use common::{
    abcast_run, flat_stack, flat_workload, pipeline_stack, run_flat, run_pipeline, total_visits,
    view_race_run,
};
use samoa::prelude::*;

/// Wall time of the seeded 24-computation workload on a fresh flat stack of
/// `n` microprotocols with 1 ms I/O-style handlers under `policy`; every
/// visit must have executed.
fn flat_wall(n: usize, seed: u64, policy: Policy) -> Duration {
    let stack = flat_stack(n, Duration::from_millis(1));
    let wall = run_flat(&stack, &flat_workload(n, 24, seed), policy, 4);
    assert_eq!(total_visits(&stack.counters), 24, "{policy} lost visits");
    wall
}

/// E2: every isolating policy delivers all messages with agreement, and the
/// versioning overhead stays within a small factor of unsync.
#[test]
fn e2_shape_agreement_and_bounded_overhead() {
    let msgs = 12;
    let base = abcast_run(3, msgs, StackPolicy::Unsync, 5);
    assert_eq!(base.delivered, msgs);
    for policy in [StackPolicy::Serial, StackPolicy::Basic, StackPolicy::Route] {
        let o = abcast_run(3, msgs, policy, 5);
        assert!(o.agreement, "{policy:?} diverged");
        assert_eq!(o.delivered, msgs, "{policy:?} lost messages");
        // "Relatively low" overhead: well under an order of magnitude.
        assert!(
            o.wall < base.wall * 8 + Duration::from_millis(200),
            "{policy:?} overhead too high: {:?} vs {:?}",
            o.wall,
            base.wall
        );
    }
}

/// E3 shape: with coarse-grained I/O work and zero conflicts, VCAbasic
/// beats the Appia-style serial baseline clearly.
#[test]
fn e3_shape_versioning_beats_serial_on_coarse_grain() {
    let serial = flat_wall(8, 3, Policy::Serial);
    let basic = flat_wall(8, 3, Policy::Basic);
    assert!(
        basic.as_secs_f64() * 1.5 < serial.as_secs_f64(),
        "expected ≥1.5x: serial {serial:?}, basic {basic:?}"
    );
}

/// E4 shape: on a 4-stage pipeline with asynchronous hand-off, bound and
/// route release stages early (which is what pipelines the computations)
/// and basic never does. Asserted on the release counters, not on wall
/// time: how much the early releases buy is E4's measurement, not a gate.
#[test]
fn e4_shape_bound_and_route_pipeline() {
    let stages = 4;
    let early_releases = |policy: Policy| {
        let stack = pipeline_stack(stages, Duration::from_millis(1), None);
        run_pipeline(&stack, 12, policy, 2, Duration::ZERO);
        let s = stack.rt.stats();
        assert_eq!(s.computations_completed, 12, "{policy:?}");
        assert_eq!(total_visits(&stack.counters), 12 * stages as u64);
        (s.bound_releases, s.route_releases)
    };
    assert_eq!(early_releases(Policy::Basic), (0, 0));
    let (bound, route) = early_releases(Policy::Bound);
    assert!(bound > 0 && route == 0, "bound: {bound} / {route}");
    let (bound, route) = early_releases(Policy::Route);
    assert!(route > 0 && bound == 0, "route: {bound} / {route}");
}

/// E5 shape: the §3 race is observable without isolation and impossible
/// with it.
#[test]
fn e5_shape_race_only_without_isolation() {
    let mut unsync_races = 0u64;
    for seed in 0..5 {
        unsync_races += view_race_run(StackPolicy::Unsync, seed, 6);
    }
    assert!(
        unsync_races > 0,
        "unsync never exhibited the §3 race in 5 trials"
    );
    for policy in [StackPolicy::Basic, StackPolicy::Serial] {
        for seed in 0..3 {
            assert_eq!(
                view_race_run(policy, seed, 6),
                0,
                "{policy:?} exhibited the race (seed {seed})"
            );
        }
    }
}

/// E6 shape: at zero conflicts versioning approaches unsync (within a small
/// factor) while serial pays the full sum of work.
#[test]
fn e6_shape_versioning_approaches_unsync_without_conflicts() {
    let unsync = flat_wall(16, 9, Policy::Unsync);
    let basic = flat_wall(16, 9, Policy::Basic);
    let serial = flat_wall(16, 9, Policy::Serial);
    assert!(
        basic.as_secs_f64() < unsync.as_secs_f64() * 6.0 + 0.05,
        "basic too far from unsync: {basic:?} vs {unsync:?}"
    );
    assert!(
        serial.as_secs_f64() > basic.as_secs_f64() * 1.5,
        "serial should be the floor: {serial:?} vs {basic:?}"
    );
}

/// E12-metrics shape: a metered cluster commits the same workload as an
/// unmetered one, snapshots a health report accounting for every apply,
/// every reply and every delivery lag once, and the unmetered run reports
/// no health at all.
#[test]
fn e12_metrics_shape_metered_fleet_health_accounts_for_all_applies() {
    use samoa_proto::Observe;

    let run = |observe: Option<Observe>| {
        let (net, cfg) = (NetConfig::fast(42), NodeConfig::default());
        let c = match observe {
            Some(o) => Cluster::new_observed_on(SimNet::new(3, net), cfg, None, o),
            None => Cluster::new(3, net, cfg),
        };
        let puts: Vec<_> = (0..8)
            .map(|i| c.node(i % 3).kv_put(format!("key-{i}"), format!("v{i}")))
            .collect();
        let committed = puts
            .into_iter()
            .filter_map(|p| p.wait(Duration::from_secs(10)))
            .count();
        c.settle();
        let converged = (1..3).all(|i| c.node(i).kv_digest() == c.node(0).kv_digest());
        (committed, converged, c.metrics())
    };
    let (plain_committed, _, plain_health) = run(None);
    let registry = std::sync::Arc::new(samoa_core::Registry::new());
    let (committed, converged, health) = run(Some(Observe::metered(registry)));
    assert!(plain_health.is_none(), "unmetered run grew a registry");
    assert_eq!(plain_committed, committed);
    assert!(converged, "metered fleet diverged");
    let health = health.expect("metered fleet must snapshot health");
    for site in 0..3 {
        assert_eq!(
            health
                .metrics
                .counters
                .get(&format!("site{site}.kv.applies"))
                .copied(),
            Some(8),
            "site {site} apply counter wrong"
        );
        let delivered = health
            .metrics
            .counters
            .get(&format!("site{site}.abcast.delivered"));
        assert!(delivered.is_some_and(|&d| d > 0), "site {site}: {health:?}");
        // One observation per reply and per delivered request of its own:
        // site i submitted puts i, i + 3, i + 6 < 8.
        let submitted = [3, 3, 2][site];
        for h in ["kv.apply_latency_us", "abcast.lag_us"] {
            let count = health.metrics.histograms[&format!("site{site}.{h}")].count;
            assert_eq!(count, submitted, "site {site}: {h}");
        }
        assert!(health.metrics.counters[&format!("site{site}.relcomm.sends")] > 0);
    }
    // Transport counters ride along under the canonical names, in both
    // renderings.
    assert!(health.to_json().contains("\"delivered\""));
    assert!(health.render().contains("site0.net:"));
}

/// E13 shape: across a seed sweep, trace-guided PCT needs no more
/// schedules in total than plain PCT to hit the §3 view-change race, and
/// both find it within budget on every seed.
#[test]
fn e13_shape_guided_pct_never_loses_to_plain_pct() {
    use samoa_check::{Explorer, ExplorerConfig, Strategy, ViewChangeScenario};

    let (mut pct_total, mut guided_total) = (0usize, 0usize);
    for seed in 1..=3 {
        let mut cfg = ExplorerConfig::new(500, Strategy::Pct { seed, depth: 2 });
        cfg.minimise = false;
        let pct = Explorer::explore(&ViewChangeScenario::new(Policy::Unsync, 9), &cfg)
            .violation
            .unwrap_or_else(|| panic!("plain PCT missed the race (seed {seed})"));
        cfg.strategy = Strategy::Guided { seed, depth: 2 };
        let guided = Explorer::explore(&ViewChangeScenario::new(Policy::Unsync, 9).traced(), &cfg)
            .violation
            .unwrap_or_else(|| panic!("guided PCT missed the race (seed {seed})"));
        pct_total += pct.schedule_index + 1;
        guided_total += guided.schedule_index + 1;
    }
    assert!(
        guided_total <= pct_total,
        "guidance regressed: guided {guided_total} vs pct {pct_total} schedules"
    );
}

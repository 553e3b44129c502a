//! Property-based tests (proptest) for the serializability checker, the
//! routing graph, and small end-to-end runtime properties.

use proptest::prelude::*;
use samoa_core::graph::RoutePattern;
use samoa_core::{check_serializable, Access, Decl};

mod common;
use common::conflict_stack;

/// Build an access log from a genuinely serial schedule: computations run
/// one after another, each touching a random protocol sequence.
fn serial_log(comp_seqs: &[Vec<u8>]) -> Vec<Access> {
    let mut log = Vec::new();
    for (k, seq) in comp_seqs.iter().enumerate() {
        for &p in seq {
            log.push(Access::write(
                (k + 1) as u64,
                samoa_core::protocol_id_for_tests(u32::from(p % 5)),
            ));
        }
    }
    log
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any serial execution is (trivially) serializable, and the order the
    /// checker returns is a correct topological order of the precedences.
    #[test]
    fn serial_logs_always_pass(seqs in proptest::collection::vec(
        proptest::collection::vec(0u8..5, 0..6), 0..6)) {
        let log = serial_log(&seqs);
        let order = check_serializable(&log).expect("serial log rejected");
        // Verify the returned order explains the log: for each protocol,
        // accesses grouped by computation must appear in `order` order.
        let pos: std::collections::HashMap<u64, usize> =
            order.iter().enumerate().map(|(i, &c)| (c, i)).collect();
        for p in 0..5u32 {
            let pid = samoa_core::protocol_id_for_tests(p);
            let seq: Vec<u64> = log.iter()
                .filter(|a| a.protocol == pid)
                .map(|a| a.comp)
                .collect();
            for w in seq.windows(2) {
                if w[0] != w[1] {
                    prop_assert!(pos[&w[0]] < pos[&w[1]],
                        "order contradicts access sequence on protocol {p}");
                }
            }
        }
    }

    /// Interleaving two computations on disjoint protocol sets never
    /// violates isolation.
    #[test]
    fn disjoint_interleavings_pass(
        pattern in proptest::collection::vec(any::<bool>(), 1..40)
    ) {
        let log: Vec<Access> = pattern.iter().map(|&first| Access::write(
            if first { 1 } else { 2 },
            samoa_core::protocol_id_for_tests(if first { 0 } else { 1 }),
        )).collect();
        prop_assert!(check_serializable(&log).is_ok());
    }

    /// A crossing pair (k1 before k2 on one protocol, k2 before k1 on
    /// another) is always rejected, no matter what padding surrounds it.
    #[test]
    fn crossing_pairs_always_rejected(
        pad_front in 0usize..5,
        pad_back in 0usize..5,
    ) {
        let mut log = Vec::new();
        for i in 0..pad_front {
            log.push(Access::write(3, samoa_core::protocol_id_for_tests(2 + i as u32)));
        }
        log.push(Access::write(1, samoa_core::protocol_id_for_tests(0)));
        log.push(Access::write(2, samoa_core::protocol_id_for_tests(0)));
        log.push(Access::write(2, samoa_core::protocol_id_for_tests(1)));
        log.push(Access::write(1, samoa_core::protocol_id_for_tests(1)));
        for i in 0..pad_back {
            log.push(Access::write(4, samoa_core::protocol_id_for_tests(10 + i as u32)));
        }
        prop_assert!(check_serializable(&log).is_err());
    }

    /// Route patterns: every declared root is always admissible from the
    /// closure body; vertices without a path from any root can never be
    /// reached by any chain of admitted calls.
    #[test]
    fn route_pattern_vertices_consistent(
        edges in proptest::collection::vec((0u32..6, 0u32..6), 0..12),
        roots in proptest::collection::vec(0u32..6, 1..3),
    ) {
        let mut pat = RoutePattern::new();
        for &r in &roots {
            pat = pat.root(samoa_core::handler_id_for_tests(r));
        }
        for &(a, b) in &edges {
            pat = pat.edge(
                samoa_core::handler_id_for_tests(a),
                samoa_core::handler_id_for_tests(b),
            );
        }
        let verts = pat.vertices();
        for &r in &roots {
            prop_assert!(verts.contains(&samoa_core::handler_id_for_tests(r)));
        }
        for &(a, b) in &edges {
            prop_assert!(verts.contains(&samoa_core::handler_id_for_tests(a)));
            prop_assert!(verts.contains(&samoa_core::handler_id_for_tests(b)));
        }
    }
}

proptest! {
    // End-to-end cases spawn real threads; keep the case count small.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Whatever mixture of computations runs under VCAbasic, the recorded
    /// history is serializable and no update is lost.
    #[test]
    fn runtime_isolation_holds_for_random_workloads(
        seed in 0u64..1000,
        n_comps in 2usize..10,
    ) {
        use rand::{Rng, SeedableRng};
        let s = conflict_stack(3);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut handles = Vec::new();
        for _ in 0..n_comps {
            let i = rng.gen_range(0..3);
            let j = rng.gen_range(0..3);
            let (ei, ej) = (s.events[i], s.events[j]);
            let decl = [s.protocols[i], s.protocols[j]];
            let sleep = rng.gen_range(0..=1u64);
            handles.push(s.rt.spawn(Decl::Basic(&decl), move |ctx| {
                ctx.trigger(ei, sleep)?;
                ctx.trigger(ej, 0u64)
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        prop_assert!(s.no_lost_updates());
        prop_assert!(s.rt.check_isolation().is_ok());
    }
}

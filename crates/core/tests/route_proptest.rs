//! Property-based adversarial coverage of `VCAroute` — the algorithm with
//! the trickiest release rule. For random DAG-shaped stacks (handler `i`
//! synchronously calls every declared successor), any number of concurrent
//! computations must (a) complete, (b) produce a serializable history, and
//! (c) visit every protocol a consistent number of times.

mod common;

use proptest::prelude::*;
use samoa_core::graph::RoutePattern;
use samoa_core::prelude::*;

/// Build a stack whose handler `i` calls the handlers of `succ(i)`
/// synchronously, where `succ` comes from the DAG edge list (`a < b` only,
/// so the graph is acyclic by construction).
struct DagStack {
    rt: Runtime,
    entry: EventType,
    pattern: RoutePattern,
    counters: Vec<ProtocolState<u64>>,
}

fn build_dag(n: usize, edges: &[(usize, usize)]) -> DagStack {
    let mut b = StackBuilder::new();
    let protocols: Vec<ProtocolId> = (0..n).map(|i| b.protocol(&format!("P{i}"))).collect();
    let events: Vec<EventType> = (0..n).map(|i| b.event(&format!("E{i}"))).collect();
    let counters: Vec<ProtocolState<u64>> = protocols
        .iter()
        .map(|&p| ProtocolState::new(p, 0))
        .collect();
    let mut handlers = Vec::new();
    for i in 0..n {
        let nexts: Vec<EventType> = edges
            .iter()
            .filter(|&&(a, _)| a == i)
            .map(|&(_, b2)| events[b2])
            .collect();
        let c = counters[i].clone();
        handlers.push(
            b.bind(events[i], protocols[i], &format!("h{i}"), move |ctx, ev| {
                c.with(ctx, |v| *v += 1);
                for &next in &nexts {
                    ctx.trigger(next, ev.clone())?;
                }
                Ok(())
            }),
        );
    }
    let stack = b.build();
    let mut pattern = RoutePattern::new().root(handlers[0]);
    for &(a, b2) in edges {
        pattern = pattern.edge(handlers[a], handlers[b2]);
    }
    DagStack {
        rt: Runtime::with_config(stack, RuntimeConfig::recording()),
        entry: events[0],
        pattern,
        counters,
    }
}

proptest! {
    // Each case spawns real threads; keep the case count moderate.
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn route_dags_complete_and_stay_isolated(
        n in 2usize..6,
        raw_edges in proptest::collection::vec((0usize..6, 0usize..6), 1..10),
        n_comps in 2usize..5,
    ) {
        // Normalise to a DAG over 0..n with forward edges only.
        let mut edges: Vec<(usize, usize)> = raw_edges
            .iter()
            .map(|&(a, b)| (a % n, b % n))
            .filter(|&(a, b)| a < b)
            .collect();
        edges.sort_unstable();
        edges.dedup();

        let dag = build_dag(n, &edges);
        let mut handles = Vec::new();
        for _ in 0..n_comps {
            let entry = dag.entry;
            handles.push(
                dag.rt
                    .spawn(Decl::Route(&dag.pattern), move |ctx| {
                        ctx.trigger(entry, EventData::empty())
                    }),
            );
        }
        for h in handles {
            h.join().expect("route computation failed");
        }
        // (b) isolation holds.
        dag.rt.check_isolation().expect("route DAG violated isolation");
        // (c) consistent visit counts: every computation drives the same
        // cascade, so each protocol's count is n_comps * paths(0 -> i).
        let visits: Vec<u64> = dag.counters.iter().map(|c| c.read(|v| *v)).collect();
        prop_assert_eq!(visits[0] as usize, n_comps, "entry visited once per comp");
        for (i, &v) in visits.iter().enumerate() {
            prop_assert_eq!(
                v as usize % n_comps,
                0,
                "protocol {} visited {} times, not a multiple of {}",
                i, v, n_comps
            );
        }
        // All versions fully released.
        let stats = dag.rt.stats();
        prop_assert_eq!(stats.computations_spawned, stats.computations_completed);
    }

    /// Mixing Route computations with Basic ones over the same DAG is
    /// equally safe.
    #[test]
    fn route_and_basic_mix_on_dags(
        n in 2usize..5,
        raw_edges in proptest::collection::vec((0usize..5, 0usize..5), 1..8),
    ) {
        let mut edges: Vec<(usize, usize)> = raw_edges
            .iter()
            .map(|&(a, b)| (a % n, b % n))
            .filter(|&(a, b)| a < b)
            .collect();
        edges.sort_unstable();
        edges.dedup();
        let dag = build_dag(n, &edges);
        let all = dag.rt.stack().all_protocols();
        let mut handles = Vec::new();
        for j in 0..4 {
            let entry = dag.entry;
            let body = move |ctx: &Ctx| ctx.trigger(entry, EventData::empty());
            handles.push(if j % 2 == 0 {
                dag.rt.spawn(Decl::Route(&dag.pattern), body)
            } else {
                dag.rt.spawn(Decl::Basic(&all), body)
            });
        }
        for h in handles {
            h.join().expect("mixed computation failed");
        }
        dag.rt.check_isolation().expect("mixed policies violated isolation");
    }
}

#[test]
fn from_names_builds_equivalent_patterns() {
    let dag = build_dag(3, &[(0, 1), (1, 2)]);
    let by_name = RoutePattern::from_names(dag.rt.stack(), &["h0"], &[("h0", "h1"), ("h1", "h2")]);
    dag.rt
        .run(Decl::Route(&by_name), |ctx| {
            ctx.trigger(dag.entry, EventData::empty())
        })
        .unwrap();
    assert_eq!(dag.counters[2].read(|v| *v), 1);
}

#[test]
#[should_panic(expected = "no handler named")]
fn from_names_rejects_unknown_handlers() {
    let dag = build_dag(2, &[(0, 1)]);
    let _ = RoutePattern::from_names(dag.rt.stack(), &["nope"], &[]);
}

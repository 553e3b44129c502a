//! The paper's §7 future work, implemented: read-only handler declarations
//! and read-mode computations that *share* a microprotocol.
//!
//! A "Routing Table" microprotocol serves many lookups and few updates.
//! With the paper's original all-write semantics every lookup serialises;
//! with `AccessMode::Read` the lookups overlap, serialising only against
//! updates — and the isolation checker still proves serial equivalence.
//!
//! ```text
//! cargo run --release --example read_write_modes
//! ```

use std::time::{Duration, Instant};

use samoa::prelude::*;

const LOOKUPS: usize = 24;
const LOOKUP_COST: Duration = Duration::from_millis(2);

struct RoutingStack {
    rt: Runtime,
    table: ProtocolId,
    lookup: EventType,
    update: EventType,
}

fn build() -> RoutingStack {
    let mut b = StackBuilder::new();
    let table = b.protocol("RoutingTable");
    let lookup = b.event("Lookup");
    let update = b.event("Update");
    let routes = ProtocolState::new(table, vec![(0u32, "eth0"), (1, "eth1")]);
    {
        let routes = routes.clone();
        b.bind_read_only(lookup, table, "lookup", move |ctx, ev| {
            let dst: &u32 = ev.expect(lookup)?;
            let _nic = routes.read_with(ctx, |r| r.iter().find(|(d, _)| d == dst).map(|&(_, n)| n));
            std::thread::sleep(LOOKUP_COST); // e.g. longest-prefix match work
            Ok(())
        });
    }
    {
        let routes = routes.clone();
        b.bind(update, table, "update", move |ctx, ev| {
            let entry: &(u32, &'static str) = ev.expect(update)?;
            let e = *entry;
            routes.with(ctx, |r| r.push(e));
            Ok(())
        });
    }
    RoutingStack {
        rt: Runtime::with_config(b.build(), RuntimeConfig::recording()),
        table,
        lookup,
        update,
    }
}

fn run(read_mode: bool) -> Duration {
    let t = build();
    let start = Instant::now();
    for i in 0..LOOKUPS {
        let (lookup, table) = (t.lookup, t.table);
        let dst = (i % 2) as u32;
        if read_mode {
            t.rt.spawn_isolated_rw(&[(table, AccessMode::Read)], move |ctx| {
                ctx.trigger(lookup, EventData::new(dst))
            });
        } else {
            t.rt.spawn_isolated(&[table], move |ctx| {
                ctx.trigger(lookup, EventData::new(dst))
            });
        }
        // One update in the middle of the lookup storm.
        if i == LOOKUPS / 2 {
            let update = t.update;
            t.rt.spawn_isolated(&[table], move |ctx| {
                ctx.trigger(update, EventData::new((9u32, "eth9")))
            });
        }
    }
    t.rt.quiesce();
    let wall = start.elapsed();
    match t.rt.check_isolation() {
        Ok(_) => println!(
            "  {}: {:>6.1} ms — isolation verified",
            if read_mode {
                "read/write modes "
            } else {
                "all-write (paper)"
            },
            wall.as_secs_f64() * 1e3
        ),
        Err(v) => println!("  ISOLATION VIOLATED: {v}"),
    }
    wall
}

fn main() {
    println!("{LOOKUPS} lookups ({LOOKUP_COST:?} each) + 1 update on a routing table\n");
    let all_write = run(false);
    let read_mode = run(true);
    println!(
        "\nreader sharing speedup: {:.1}x — same isolation guarantee, checked",
        all_write.as_secs_f64() / read_mode.as_secs_f64()
    );
}

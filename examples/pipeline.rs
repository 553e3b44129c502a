//! A staged message pipeline under each isolation variant — the §5.2/§5.3
//! claim in action: `isolated bound` and `isolated route` release finished
//! stages early and pipeline the computations, while the basic construct
//! holds every declared microprotocol until the computation completes.
//!
//! ```text
//! cargo run --release --example pipeline
//! ```

use std::time::{Duration, Instant};

use samoa::prelude::*;

const STAGES: usize = 4;
const COMPS: usize = 16;
const STAGE_WORK: Duration = Duration::from_millis(1);

struct Pipe {
    rt: Runtime,
    protocols: Vec<ProtocolId>,
    handlers: Vec<HandlerId>,
    entry: EventType,
}

fn build() -> Pipe {
    let mut b = StackBuilder::new();
    let protocols: Vec<ProtocolId> = (0..STAGES)
        .map(|i| b.protocol(&format!("Stage{i}")))
        .collect();
    let events: Vec<EventType> = (0..STAGES).map(|i| b.event(&format!("E{i}"))).collect();
    let mut handlers = Vec::new();
    for i in 0..STAGES {
        let state = ProtocolState::new(protocols[i], 0u64);
        let next = events.get(i + 1).copied();
        handlers.push(b.bind(
            events[i],
            protocols[i],
            &format!("stage{i}"),
            move |ctx, ev| {
                std::thread::sleep(STAGE_WORK); // simulated per-stage work (I/O)
                state.with(ctx, |n| *n += 1);
                if let Some(next) = next {
                    // Asynchronous hand-off: the finished stage becomes
                    // releasable under bound/route.
                    ctx.async_trigger(next, ev.clone())?;
                }
                Ok(())
            },
        ));
    }
    Pipe {
        rt: Runtime::new(b.build()),
        protocols,
        handlers,
        entry: events[0],
    }
}

fn drive(name: &str, spawn: impl Fn(&Pipe)) {
    let pipe = build();
    let start = Instant::now();
    spawn(&pipe);
    pipe.rt.quiesce();
    let wall = start.elapsed();
    let ideal_serial = STAGE_WORK * (STAGES * COMPS) as u32;
    println!(
        "{name:<12} {:>8.1} ms   (fully serial would be {:.0} ms)",
        wall.as_secs_f64() * 1e3,
        ideal_serial.as_secs_f64() * 1e3
    );
}

fn main() {
    println!("{COMPS} computations through a {STAGES}-stage pipeline, {STAGE_WORK:?} per stage\n");

    drive("vca-basic", |p| {
        for _ in 0..COMPS {
            let e = p.entry;
            p.rt.spawn(Decl::Basic(&p.protocols), move |ctx| {
                ctx.trigger(e, EventData::empty())
            });
        }
    });

    drive("vca-bound", |p| {
        let decl: Vec<(ProtocolId, u64)> = p.protocols.iter().map(|&pr| (pr, 1)).collect();
        for _ in 0..COMPS {
            let e = p.entry;
            p.rt.spawn(Decl::Bound(&decl), move |ctx| {
                ctx.trigger(e, EventData::empty())
            });
        }
    });

    drive("vca-route", |p| {
        let mut pat = RoutePattern::new().root(p.handlers[0]);
        for w in p.handlers.windows(2) {
            pat = pat.edge(w[0], w[1]);
        }
        for _ in 0..COMPS {
            let e = p.entry;
            p.rt.spawn(Decl::Route(&pat), move |ctx| {
                ctx.trigger(e, EventData::empty())
            });
        }
    });

    drive("serial", |p| {
        for _ in 0..COMPS {
            let e = p.entry;
            p.rt.spawn(Decl::Serial, move |ctx| ctx.trigger(e, EventData::empty()));
        }
    });

    println!(
        "\nbound/route pipeline the computations (one per stage in flight);\n\
         basic and serial run them one after another — same isolation, very\n\
         different parallelism, exactly the paper's §5.2/§5.3 claim."
    );
}

//! Quickstart: build a two-microprotocol stack, run concurrent isolated
//! computations, and verify the isolation property after the fact.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use samoa::prelude::*;

fn main() -> Result<()> {
    // 1. Build the stack: a Parser microprotocol feeding a Store.
    let mut b = StackBuilder::new();
    let parser = b.protocol("Parser");
    let store = b.protocol("Store");
    let ingest = b.event("Ingest"); // external: a line arrives
    let put = b.event("Put"); // internal: parsed word count

    let parsed = ProtocolState::new(parser, 0u64);
    let totals = ProtocolState::new(store, Vec::<usize>::new());

    {
        let parsed = parsed.clone();
        b.bind(ingest, parser, "parse", move |ctx, ev| {
            let line: &String = ev.expect(ingest)?;
            let words = line.split_whitespace().count();
            parsed.with(ctx, |n| *n += 1);
            ctx.trigger(put, EventData::new(words))
        });
    }
    {
        let totals = totals.clone();
        b.bind(put, store, "store", move |ctx, ev| {
            let words: &usize = ev.expect(put)?;
            let w = *words;
            totals.with(ctx, |t| t.push(w));
            Ok(())
        });
    }

    // 2. Run: every external event is an isolated computation. No locks
    //    anywhere in the protocol code above — the runtime guarantees that
    //    these concurrent computations are equivalent to a serial order.
    let rt = Runtime::with_config(b.build(), RuntimeConfig::recording());
    let lines = [
        "the quick brown fox",
        "jumps over",
        "the lazy dog",
        "isolation without locks",
    ];
    let handles: Vec<_> = lines
        .iter()
        .map(|&line| {
            let line = line.to_string();
            rt.spawn(Decl::Basic(&[parser, store]), move |ctx| {
                ctx.trigger(ingest, EventData::new(line))
            })
        })
        .collect();
    for h in handles {
        h.join()?;
    }

    // 3. Observe.
    println!("lines parsed : {}", parsed.snapshot());
    println!("word counts  : {:?}", totals.snapshot());
    match rt.check_isolation() {
        Ok(order) => println!("isolation    : OK (equivalent serial order {order:?})"),
        Err(v) => println!("isolation    : VIOLATED — {v}"),
    }

    // 4. Declarations are enforced: forgetting `store` in M is an error the
    //    moment the computation tries to call its handler.
    let err = rt
        .run(Decl::Basic(&[parser]), |ctx| {
            ctx.trigger(ingest, EventData::new("oops".to_string()))
        })
        .unwrap_err();
    println!("enforcement  : {err}");
    Ok(())
}

//! `samoa_core::instruments_touched()` counts instrument *updates*, one per
//! mutation, and never a read. The counter is process-global, so the exact
//! delta is only checkable where nothing else touches an instrument: this
//! test is the only one in its binary (the way `fast_path_guard.rs` and
//! `no_sink_guard.rs` isolate their global-counter diffs). Inside
//! `metrics.rs`'s own test module it raced its sibling tests.

use samoa_core::{instruments_touched, Registry};

#[test]
fn touched_counts_mutations() {
    let before = instruments_touched();
    let r = Registry::new();
    let c = r.counter("t");
    c.inc();
    c.add(5);
    r.gauge("tg").set(1);
    r.histogram("th").observe(2);
    assert_eq!(instruments_touched() - before, 4);
    // Reads don't count.
    let _ = c.get();
    let _ = r.snapshot();
    assert_eq!(instruments_touched() - before, 4);
}

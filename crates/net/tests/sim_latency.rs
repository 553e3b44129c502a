//! The threaded simulator delivers the delay it states. `NetConfig::fast`
//! injects 0–20 us, less than a timed sleep can resolve (the kernel rounds
//! one up by its timer slack and waking costs more), so the delivery thread
//! spins through a wait that short instead of sleeping through it
//! (`sim.rs::TIMER_RESOLUTION`): before it did, a "0–20 us" hop took ~80 us.
//! And it never delivers *early*: a delay is honoured, not skipped.
//!
//! One test, its own binary: the median is a timing, and sibling tests on
//! the same cores would be the noise.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use samoa_net::{NetConfig, SimNet, SiteId};

/// What a hop may cost on a quiet box, and how much slower than that a
/// loaded CI runner (debug build, two cores) is allowed to be.
const QUIET_BOUND: Duration = Duration::from_micros(40);
const CI_FACTOR: u32 = 10;

#[test]
fn a_short_delay_is_neither_overslept_nor_skipped() {
    const SEED: u64 = 21;
    const PINGS: usize = 200;
    let cfg = NetConfig::fast(SEED);
    let span = cfg.max_delay - cfg.min_delay;
    let net = SimNet::new(2, cfg.clone());
    let (arrived, arrivals) = mpsc::channel();
    net.register(SiteId(1), move |_| {
        let _ = arrived.send(Instant::now());
    });

    // The simulator's own draws: one uniform `f64` per send on a network
    // with no loss, duplication or corruption.
    let mut draws = StdRng::seed_from_u64(SEED);
    let mut one_way = Vec::with_capacity(PINGS);
    for i in 0..PINGS {
        let injected = cfg.min_delay + span.mul_f64(draws.gen::<f64>());
        let sent = Instant::now();
        net.send(SiteId(0), SiteId(1), Bytes::from_static(b"ping"));
        let took = arrivals.recv().expect("delivered") - sent;
        assert!(
            took >= injected,
            "ping {i} took {took:?}, less than the {injected:?} injected"
        );
        one_way.push(took);
    }
    one_way.sort_unstable();
    let median = one_way[PINGS / 2];
    assert!(
        median < QUIET_BOUND * CI_FACTOR,
        "median one-way time {median:?} for an injected 0-20 us"
    );
}

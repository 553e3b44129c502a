//! Property tests for the transport substrate: frame codec totality and
//! round-trips, and Window under an arbitrary schedule of drops, duplicates
//! and reorderings. (The ARQ invariants are `samoa-net`'s `tests/arq.rs`.)

use std::time::Duration;

use bytes::Bytes;
use proptest::prelude::*;
use samoa_net::{NetConfig, ProtoClock, SimNet, SiteId};
use samoa_transport::{Endpoint, Frame, TransportConfig};

fn arb_frame() -> impl Strategy<Value = Frame> {
    prop_oneof![
        (
            any::<u64>(),
            any::<u32>(),
            any::<u32>(),
            any::<u64>(),
            proptest::collection::vec(any::<u8>(), 0..128)
        )
            .prop_map(|(msg_id, frag_idx, frag_total, seq, payload)| Frame::Data {
                msg_id,
                frag_idx,
                frag_total,
                seq,
                payload: Bytes::from(payload),
            }),
        any::<u64>().prop_map(|seq| Frame::Ack { seq }),
    ]
}

/// What the schedule does to one in-flight datagram, data or ack.
#[derive(Debug, Clone, Copy)]
enum Fate {
    Deliver,
    Drop,
    Duplicate,
}

fn arb_fate() -> impl Strategy<Value = Fate> {
    prop_oneof![
        Just(Fate::Deliver),
        Just(Fate::Deliver),
        Just(Fate::Deliver),
        Just(Fate::Drop),
        Just(Fate::Duplicate),
    ]
}

/// Two endpoints on a manual net and a manual clock, timers off, messages
/// going both ways. `schedule` picks one in-flight datagram at a time and
/// delivers, drops or duplicates it — so data and acks arrive in any order,
/// any number of times or never, and acks resend whatever they make look
/// lost. Then the net turns reliable and the timer runs until nothing moves.
fn run_schedule(frags: &[usize], schedule: &[(proptest::sample::Index, Fate)]) {
    const RTO: Duration = Duration::from_millis(20);
    const MTU: usize = 16;
    let net = SimNet::new_manual(2, NetConfig::fast(1));
    let clock = ProtoClock::manual();
    let cfg = TransportConfig {
        mtu: MTU,
        window: 4,
        rto: RTO,
        clock: clock.clone(),
        ..TransportConfig::default()
    };
    let ends = [0, 1].map(|i| Endpoint::new(net.handle(), SiteId(i), cfg.clone()));
    let quiesce = || ends.iter().for_each(|e| e.runtime().quiesce());

    let mut sent = [Vec::new(), Vec::new()];
    for (i, &n) in frags.iter().enumerate() {
        let body = (0..n * MTU).map(|b| (b as u8).wrapping_mul(31).wrapping_add(i as u8));
        let msg = Bytes::from(body.collect::<Vec<u8>>());
        let from = i % 2;
        ends[from].send(SiteId(1 - from as u16), msg.clone());
        sent[from].push(msg);
    }
    quiesce();

    let net = net.handle();
    for &(pick, fate) in schedule {
        let pending = net.pending_datagrams();
        if pending.is_empty() {
            break;
        }
        let seq = pending[pick.index(pending.len())].seq;
        match fate {
            Fate::Deliver => assert!(net.pump_seq(seq)),
            Fate::Drop => assert!(net.drop_seq(seq)),
            Fate::Duplicate => assert!(net.duplicate_seq(seq).is_some()),
        }
        quiesce();
    }

    let idle = |e: &Endpoint| e.in_flight(SiteId(0)) + e.in_flight(SiteId(1)) == 0;
    for _ in 0..100 {
        while net.pump_one() {
            quiesce();
        }
        if ends.iter().all(|e| idle(e)) {
            break;
        }
        clock.advance(RTO);
        ends.iter().for_each(|e| e.inject_tick());
        quiesce();
    }

    assert!(ends.iter().all(|e| idle(e)), "frames left unacknowledged");
    assert_eq!(net.pending(), 0);
    // Every message released whole and in order: the receivers hold nothing
    // ahead of a gap.
    for (from, to) in [(0, 1), (1, 0)] {
        let got = ends[to].delivered();
        let got: Vec<Bytes> = got.into_iter().map(|(_, bytes)| bytes).collect();
        assert_eq!(got, sent[from], "{from} -> {to}");
        assert_eq!(ends[to].external_errors(), 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn any_schedule_of_drops_duplicates_and_reorderings_delivers_in_order(
        frags in proptest::collection::vec(1usize..12, 1..5),
        schedule in proptest::collection::vec((any::<proptest::sample::Index>(), arb_fate()), 0..160),
    ) {
        run_schedule(&frags, &schedule);
    }

    #[test]
    fn frame_codec_roundtrip(f in arb_frame()) {
        let enc = f.encode();
        prop_assert_eq!(Frame::decode(enc).unwrap(), f);
    }

    /// A single flipped bit anywhere in the encoding is always detected.
    #[test]
    fn single_bit_flips_always_detected(
        f in arb_frame(),
        pos in any::<proptest::sample::Index>(),
        bit in 0u8..8,
    ) {
        let enc = f.encode().to_vec();
        let i = pos.index(enc.len());
        let mut bad = enc.clone();
        bad[i] ^= 1 << bit;
        prop_assert!(
            Frame::decode(Bytes::from(bad)).is_err(),
            "flip at byte {i} bit {bit} undetected"
        );
    }

    /// The decoder never panics on arbitrary garbage.
    #[test]
    fn decoder_total(bytes in proptest::collection::vec(any::<u8>(), 0..160)) {
        let _ = Frame::decode(Bytes::from(bytes));
    }
}

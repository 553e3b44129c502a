//! Property tests for the transport substrate: frame codec totality and
//! round-trips. (The ARQ invariants are `samoa-net`'s `tests/arq.rs`.)

use bytes::Bytes;
use proptest::prelude::*;
use samoa_transport::Frame;

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

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

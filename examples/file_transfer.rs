//! A second application domain for SAMOA: the x-kernel-style transport
//! stack (`samoa-transport`) moving a large payload across a network that
//! loses, duplicates, *and* corrupts datagrams.
//!
//! Three microprotocols — Chunker (fragmentation), Window (sliding-window
//! ARQ), Checksum (integrity) — each external event isolated with a tight
//! declaration, no locks anywhere in the protocol code.
//!
//! ```text
//! cargo run --release --example file_transfer
//! ```

#![allow(clippy::field_reassign_with_default)]
use std::time::{Duration, Instant};

use samoa::prelude::*;

fn main() {
    // A hostile network: 10% loss, 10% duplication, 5% bit-flips.
    let net_cfg = NetConfig::fast(2024)
        .with_loss(0.10)
        .with_duplicates(0.10)
        .with_corruption(0.05);
    let mut cfg = TransportConfig::default();
    cfg.mtu = 64;
    cfg.window = 16;
    cfg.rto = Duration::from_millis(10);
    let net = TransportNet::new(2, net_cfg, cfg);

    // A 64 KiB "file".
    let file: Vec<u8> = (0..65_536).map(|i| (i % 251) as u8).collect();
    let frag_count = file.len().div_ceil(64);
    println!(
        "transferring {} bytes as {} fragments over a network with loss, \
         duplication, and corruption...\n",
        file.len(),
        frag_count
    );

    let start = Instant::now();
    net.endpoint(0).send(SiteId(1), file.clone());
    let deadline = Instant::now() + Duration::from_secs(120);
    while net.endpoint(1).delivered().is_empty() {
        assert!(Instant::now() < deadline, "transfer timed out");
        std::thread::sleep(Duration::from_millis(5));
    }
    let wall = start.elapsed();

    let (from, received) = &net.endpoint(1).delivered()[0];
    let stats = net.net().total_stats();
    println!(
        "received {} bytes from {from} in {:.1} ms",
        received.len(),
        wall.as_secs_f64() * 1e3
    );
    println!("payload intact: {}", received[..] == file[..]);
    println!();
    println!("what the network did, and what the stack did about it:");
    println!("  datagrams sent        : {}", stats.sent);
    println!("  lost in transit       : {}", stats.dropped_loss);
    println!("  duplicated in transit : {}", stats.duplicated);
    println!("  corrupted in transit  : {}", stats.corrupted);
    println!(
        "  checksum drops        : {}",
        net.endpoint(0).corrupt_dropped() + net.endpoint(1).corrupt_dropped()
    );
    println!(
        "  retransmissions       : {}",
        net.endpoint(0).retransmissions()
    );
    println!(
        "    shown lost by an ack: {}",
        net.endpoint(0).fast_retransmissions()
    );
    println!(
        "  duplicates suppressed : {}",
        net.endpoint(1).duplicates_suppressed()
    );
    assert_eq!(received[..], file[..], "transfer corrupted");
}

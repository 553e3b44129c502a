//! Heartbeat failure detector (◇S-style substrate for consensus and
//! membership).
//!
//! On each `FdTick` the detector sends raw heartbeats to every other member
//! and suspects members not heard from within the timeout. Suspicions are
//! announced once per site via the `Suspect` event; a heartbeat from a
//! suspected site rescinds the suspicion (eventual accuracy under the
//! simulator's fault model).
//!
//! The detector's one deadline is its next heartbeat, `HEARTBEAT` (10 ms)
//! after the last (`FdState::next_beat`). With `enable_fd` a node hands the
//! detector its timer and each tick arms it for the next; on a manual clock
//! whoever advances the clock injects the ticks, and a tick heartbeats and
//! sweeps however long ago the last one was.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

use samoa_core::prelude::*;
use samoa_net::{Alarm, SiteId, Transport};

use crate::clock::ProtoClock;
use crate::events::Events;
use crate::msgs::Wire;
use crate::view::GroupView;

/// How often a running detector heartbeats and sweeps: the granularity of
/// its suspicions, which come at the first tick after `timeout` of silence.
const HEARTBEAT: Duration = Duration::from_millis(10);

/// The local state of the failure-detector microprotocol.
pub struct FdState {
    site: SiteId,
    view: GroupView,
    last_heard: HashMap<SiteId, Instant>,
    suspected: HashSet<SiteId>,
    timeout: Duration,
    started: Instant,
    /// When the last tick heartbeated (`started` before the first).
    beat: Instant,
    clock: ProtoClock,
    /// The node's timer, when the detector runs on the wall clock: each
    /// tick arms it for the next.
    pub(crate) alarm: Option<Alarm>,
}

impl FdState {
    /// Fresh state reading time from `clock` (a manual clock makes the
    /// detector fully deterministic: suspicion depends only on explicit
    /// `advance` calls, never on host scheduling); every member gets a
    /// grace period of `timeout` from now.
    pub fn with_clock(site: SiteId, view: GroupView, timeout: Duration, clock: ProtoClock) -> Self {
        let started = clock.now();
        FdState {
            site,
            view,
            last_heard: HashMap::new(),
            suspected: HashSet::new(),
            timeout,
            started,
            beat: started,
            clock,
            alarm: None,
        }
    }

    /// When the next heartbeat is due: `HEARTBEAT` after the last.
    pub(crate) fn next_beat(&self) -> Instant {
        self.beat + HEARTBEAT
    }

    /// Currently suspected sites.
    pub fn suspects(&self) -> Vec<SiteId> {
        let mut v: Vec<SiteId> = self.suspected.iter().copied().collect();
        v.sort_unstable();
        v
    }
}

/// Register the failure detector on the builder.
pub fn register(
    b: &mut StackBuilder,
    pid: ProtocolId,
    ev: &Events,
    state: ProtocolState<FdState>,
    net: Arc<dyn Transport>,
) {
    {
        let state = state.clone();
        let net = Arc::clone(&net);
        let e = ev.fd_tick;
        let suspect_ev = ev.suspect;
        let tick = b.bind_with_triggers(e, pid, "fd.tick", &[], move |ctx, _| {
            let (me, peers, suspects) = state.with(ctx, |s| {
                let now = s.clock.now();
                s.beat = now;
                if let Some(alarm) = &s.alarm {
                    alarm.arm(s.next_beat());
                }
                let peers: Vec<SiteId> = s
                    .view
                    .members()
                    .iter()
                    .copied()
                    .filter(|&m| m != s.site)
                    .collect();
                for &m in &peers {
                    let heard = *s.last_heard.get(&m).unwrap_or(&s.started);
                    if now.duration_since(heard) > s.timeout {
                        s.suspected.insert(m);
                    }
                }
                // Announce *standing* suspicions every tick (◇S exposes its
                // suspect list continuously): consensus instances created
                // after the first announcement still learn that their
                // round's coordinator is suspected.
                (s.site, peers, s.suspects())
            });
            for &m in &peers {
                net.send(me, m, Wire::Heartbeat.encode());
            }
            for m in suspects {
                ctx.trigger_all(suspect_ev, EventData::new(m))?;
            }
            Ok(())
        });
        // `tick` announces every standing suspicion: a `Suspect` per peer.
        b.declare_fan_out(tick, &[suspect_ev]);
    }

    {
        let state = state.clone();
        let e = ev.fd_beat;
        b.bind_with_triggers(e, pid, "fd.beat", &[], move |ctx, data| {
            let sender: &SiteId = data.expect(e)?;
            state.with(ctx, |s| {
                let now = s.clock.now();
                s.last_heard.insert(*sender, now);
                s.suspected.remove(sender);
            });
            Ok(())
        });
    }

    {
        let state = state.clone();
        let e = ev.view_change;
        b.bind_with_triggers(e, pid, "fd.view_change", &[], move |ctx, data| {
            let v: &GroupView = data.expect(e)?;
            state.with(ctx, |s| {
                s.view = v.clone();
                let view = s.view.clone();
                s.suspected.retain(|m| view.contains(*m));
            });
            Ok(())
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_state_suspects_nobody() {
        let s = FdState::with_clock(
            SiteId(0),
            GroupView::of_first(3),
            Duration::from_millis(100),
            ProtoClock::wall(),
        );
        assert!(s.suspects().is_empty());
    }

    #[test]
    fn suspects_sorted() {
        let mut s = FdState::with_clock(
            SiteId(0),
            GroupView::of_first(4),
            Duration::from_millis(100),
            ProtoClock::wall(),
        );
        s.suspected.insert(SiteId(3));
        s.suspected.insert(SiteId(1));
        assert_eq!(s.suspects(), vec![SiteId(1), SiteId(3)]);
    }
}

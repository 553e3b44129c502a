//! Distributed consensus — the microprotocol the paper's atomic broadcast
//! depends on (§3).
//!
//! Rotating-coordinator consensus in the Chandra–Toueg style with a
//! Paxos-like read phase for safety across coordinator changes:
//!
//! 1. Round `r`'s coordinator (member `r mod n` of the view) broadcasts
//!    `Collect(r)`.
//! 2. Participants that have promised nothing higher reply `Estimate`
//!    with their current estimate and the round in which it was adopted.
//! 3. With a majority of estimates, the coordinator picks the estimate
//!    adopted in the highest round (or, if none was ever adopted, the
//!    deduplicated union of all collected initial estimates) and broadcasts
//!    `Propose(r, v)`.
//! 4. Participants adopt and `Ack`; a majority of acks decides, and the
//!    decision is flooded via RelCast (`CastData::Decide`) so every site
//!    learns it even if the coordinator crashes mid-broadcast.
//!
//! **Round 0 of a pristine instance runs steps 3–4 only; everything else
//! runs 1–4.** The read phase exists to find a value an earlier round may
//! already have chosen, and round 0 has no earlier round. What makes
//! skipping it safe is that round 0 of instance `k` has exactly one
//! proposer: atomic broadcast calls [`ConsensusState::propose`]`(k)` only
//! after delivering every instance below `k`, view changes are delivered
//! in that prefix, so every site that proposes for `k` does so under the
//! same view and agrees on `view.coordinator(0)`. That site proposes its
//! own estimate straight away, provided the instance is *pristine* — it has
//! promised, adopted and coordinated nothing. The other sites record their
//! estimate and send nothing (one exception, below): every request reaches
//! the coordinator — its own are pending there from the start, anyone
//! else's come as the origin's copy and a forward of every other site's
//! first copy (`abcast.rs`) — and it proposes by itself.
//!
//! Every other way a round starts keeps the read phase: `on_kick`, and
//! `restart` after a suspicion or a view change — `view.coordinator(0)` is a
//! function of the view, so a *restarted* round 0 may belong to a different
//! site than the one that already proposed in it, and only its `Collect`
//! finds what a majority may have accepted from the first.
//!
//! **A coordinator that has just joined.** Views are sorted, so a joining
//! lowest site is round 0's coordinator from the moment it is a member, and
//! both things the silent follower relies on fail for it. Requests cast
//! before it was a member were never sent its way: atomic broadcast's state
//! transfer carries them (`SyncMsg::pending`). And RelComm delivers nothing
//! from a site outside the receiver's view, so a `Propose` of the newcomer
//! that reaches a site before that site installs the view is acknowledged,
//! discarded and never resent. So when a view change makes a site that was
//! not in the previous view round 0's coordinator, a follower `Kick`s with
//! each proposal, as it would in a later round, until it has accepted one
//! `Propose` from that coordinator; and a coordinator kicked for a round it
//! is already writing answers with that round's `Propose` — a plain
//! retransmission, one proposer and one value per round.
//!
//! Suspicion of the current coordinator (from the failure detector) bumps
//! the round; the new coordinator is kicked into action with the kicker's
//! estimate riding along.
//!
//! Values are [`Batch`]es, shared, never copied to be owned: the proposal
//! atomic broadcast collected (or the batch a `Kick`, `Estimate` or
//! `Propose` was decoded into) becomes this site's estimate, the value of
//! every `Propose` it sends, and the decision it floods, all one body. Only
//! the union of collected estimates builds a new batch.
//!
//! The core logic is a pure state machine ([`ConsensusState`]) that maps
//! inputs to [`Actions`], so it is unit-testable without the runtime; the
//! SAMOA handlers are a thin shell around it.

use std::collections::{HashMap, HashSet};

use samoa_core::prelude::*;
use samoa_net::SiteId;

use crate::events::Events;
use crate::msgs::{AbMsg, Batch, CastData, ConsMsg, MsgUid, Payload};
use crate::observe::ConsensusInstruments;
use crate::relcomm::RDeliver;
use crate::view::GroupView;

/// What a state transition wants the shell to do.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Actions {
    /// Point-to-point consensus messages to send via RelComm.
    pub out: Vec<(SiteId, ConsMsg)>,
    /// Decisions to flood via RelCast, in instance order. More than one
    /// when a suspicion or a view change restarts several instances that
    /// each decide on the spot (single-member view).
    pub decide: Vec<(u64, Batch)>,
}

impl Actions {
    fn none() -> Actions {
        Actions::default()
    }

    fn merge(&mut self, other: Actions) {
        self.out.extend(other.out);
        self.decide.extend(other.decide);
    }
}

#[derive(Debug)]
enum Phase {
    Collecting,
    Proposing(Batch),
}

#[derive(Debug)]
struct CoordState {
    round: u64,
    phase: Phase,
    /// Collected (estimate, est_round) pairs, including our own.
    ests: Vec<(Batch, u64)>,
    est_from: HashSet<SiteId>,
    acks: HashSet<SiteId>,
}

#[derive(Debug, Default)]
struct Inst {
    est: Batch,
    /// Adoption marker: 0 = the estimate is initial (never adopted via a
    /// `Propose`); `r + 1` = adopted in round `r`. The +1 offset keeps
    /// round-0 adoptions distinguishable from "never adopted".
    est_round: u64,
    /// Highest round promised (Paxos promise).
    max_round: u64,
    /// Round this site currently believes in.
    round: u64,
    coord: Option<CoordState>,
    decided: bool,
}

/// The local state of the consensus microprotocol.
pub struct ConsensusState {
    site: SiteId,
    view: GroupView,
    gc_below: u64,
    insts: HashMap<u64, Inst>,
    /// Round 0's coordinator joined with the current view and no `Propose`
    /// of its has been accepted here since (module docs, "A coordinator
    /// that has just joined").
    newcomer_coord: bool,
    /// Rounds started (`view_changes` is membership's).
    pub instruments: ConsensusInstruments,
}

impl ConsensusState {
    /// Fresh state for `site` with the given initial view.
    pub fn new(site: SiteId, view: GroupView) -> Self {
        ConsensusState {
            site,
            view,
            gc_below: 0,
            insts: HashMap::new(),
            newcomer_coord: false,
            instruments: ConsensusInstruments::default(),
        }
    }

    /// Number of live (non-GCed) instances — for tests and diagnostics.
    pub fn live_instances(&self) -> usize {
        self.insts.len()
    }

    /// Propose `value` for instance `inst` (idempotent; the first proposal
    /// fixes this site's initial estimate).
    pub fn propose(&mut self, inst: u64, value: Batch) -> Actions {
        if inst < self.gc_below {
            return Actions::none();
        }
        let i = self.insts.entry(inst).or_default();
        if i.decided {
            return Actions::none();
        }
        let pristine = i.round == 0 && i.est_round == 0 && i.max_round == 0 && i.coord.is_none();
        if i.est.is_empty() {
            i.est = value;
        }
        let follower = self.view.coordinator(0) != Some(self.site);
        if i.round > 0 || (follower && self.newcomer_coord) {
            return self.restart(inst);
        }
        if follower {
            // Atomic broadcast sends the coordinator every request and it
            // proposes by itself; the estimate stays so that `on_suspect`
            // or `set_view` can restart this instance in a later round.
            return Actions::none();
        }
        if !pristine {
            return self.start_collect(inst, 0);
        }
        // Round 0 has one proposer and no earlier round (module docs): go
        // straight to the write phase with our own estimate.
        self.instruments.rounds.inc();
        let value = i.est.clone();
        self.start_write(inst, 0, value)
    }

    /// Handle a consensus message from `from`.
    pub fn on_msg(&mut self, from: SiteId, msg: ConsMsg) -> Actions {
        match msg {
            ConsMsg::Kick {
                inst,
                round,
                est,
                est_round,
            } => self.on_kick(from, inst, round, est, est_round),
            ConsMsg::Collect { inst, round } => self.on_collect(from, inst, round),
            ConsMsg::Estimate {
                inst,
                round,
                est,
                est_round,
            } => self.on_estimate(from, inst, round, est, est_round),
            ConsMsg::Propose { inst, round, value } => self.on_propose(from, inst, round, value),
            ConsMsg::Ack { inst, round } => self.on_ack(from, inst, round),
        }
    }

    /// The failure detector suspects `site`: advance the round of every
    /// undecided instance whose current coordinator is that site.
    pub fn on_suspect(&mut self, site: SiteId) -> Actions {
        let mut insts: Vec<u64> = self
            .insts
            .iter()
            .filter(|(_, i)| !i.decided && !i.est.is_empty())
            .map(|(&k, _)| k)
            .collect();
        // Restart in instance order: the map is hashed, and hooked
        // exploration requires send order to be schedule-pure.
        insts.sort_unstable();
        let mut acts = Actions::none();
        for inst in insts {
            let Some(i) = self.insts.get_mut(&inst) else {
                continue;
            };
            if self.view.coordinator(i.round) == Some(site) {
                i.round += 1;
                acts.merge(self.restart(inst));
            }
        }
        acts
    }

    /// A new view was installed: re-kick undecided instances so they keep
    /// making progress under the new coordinator mapping.
    pub fn set_view(&mut self, view: GroupView) -> Actions {
        let coord = view.coordinator(0);
        if coord != self.view.coordinator(0) {
            self.newcomer_coord = coord.is_some_and(|c| !self.view.contains(c));
        }
        self.view = view;
        let mut insts: Vec<u64> = self
            .insts
            .iter()
            .filter(|(_, i)| !i.decided && !i.est.is_empty())
            .map(|(&k, _)| k)
            .collect();
        insts.sort_unstable();
        let mut acts = Actions::none();
        for inst in insts {
            acts.merge(self.restart(inst));
        }
        acts
    }

    /// Drop the state of instances below `below`. The bound is this site's
    /// *own* delivery point (`cons_gc` carries abcast's local `next_inst`),
    /// not a cluster-wide one: a lagging peer learns those decisions from
    /// the RelCast `Decide` flood, never from consensus, so messages for a
    /// collected instance are ignored rather than answered.
    pub fn gc(&mut self, below: u64) {
        self.gc_below = self.gc_below.max(below);
        let lim = self.gc_below;
        self.insts.retain(|&k, _| k >= lim);
    }

    /// Start (or restart) coordination for the instance's current round —
    /// always through the read phase.
    fn restart(&mut self, inst: u64) -> Actions {
        let Some(i) = self.insts.get_mut(&inst) else {
            return Actions::none();
        };
        let round = i.round;
        match self.view.coordinator(round) {
            Some(c) if c == self.site => self.start_collect(inst, round),
            Some(c) => {
                // The coordinator counts the kick as our `Estimate` for the
                // round, so it carries the same promise: nothing below
                // `round` is accepted or proposed here from now on.
                i.max_round = i.max_round.max(round);
                Actions {
                    out: vec![(
                        c,
                        ConsMsg::Kick {
                            inst,
                            round,
                            est: i.est.clone(),
                            est_round: i.est_round,
                        },
                    )],
                    decide: Vec::new(),
                }
            }
            None => Actions::none(),
        }
    }

    /// The other members of the view.
    fn peers(&self) -> Vec<SiteId> {
        let me = self.site;
        self.view
            .members()
            .iter()
            .copied()
            .filter(|&m| m != me)
            .collect()
    }

    /// Begin the read phase for `round` of `inst` (we are its coordinator).
    fn start_collect(&mut self, inst: u64, round: u64) -> Actions {
        let me = self.site;
        let peers = self.peers();
        let i = self.insts.entry(inst).or_default();
        if i.decided {
            return Actions::none();
        }
        if let Some(c) = &i.coord {
            if c.round >= round {
                return Actions::none(); // already coordinating this round
            }
        }
        self.instruments.rounds.inc();
        i.max_round = i.max_round.max(round);
        i.round = i.round.max(round);
        let mut est_from = HashSet::new();
        est_from.insert(me);
        i.coord = Some(CoordState {
            round,
            phase: Phase::Collecting,
            ests: vec![(i.est.clone(), i.est_round)],
            est_from,
            acks: HashSet::new(),
        });
        let mut acts = Actions {
            out: peers
                .into_iter()
                .map(|p| (p, ConsMsg::Collect { inst, round }))
                .collect(),
            decide: Vec::new(),
        };
        // Single-member view: our own estimate is already a majority.
        acts.merge(self.try_choose(inst));
        acts
    }

    fn on_kick(
        &mut self,
        from: SiteId,
        inst: u64,
        round: u64,
        est: Batch,
        est_round: u64,
    ) -> Actions {
        if inst < self.gc_below {
            return Actions::none();
        }
        let me = self.site;
        if self.view.coordinator(round) != Some(me) {
            return Actions::none();
        }
        {
            let i = self.insts.entry(inst).or_default();
            if i.decided {
                return Actions::none();
            }
            if let Some(c) = &i.coord {
                if let (true, Phase::Proposing(v)) = (c.round == round, &c.phase) {
                    // The kicker has nothing from us for a round we are
                    // already writing: say it again.
                    return Actions {
                        out: proposals([from], inst, round, v),
                        decide: Vec::new(),
                    };
                }
            }
            // Adopt the kicker's estimate as ours if we have none.
            if i.est.is_empty() {
                i.est = est.clone();
                i.est_round = est_round;
            }
            i.round = i.round.max(round);
        }
        let mut acts = self.start_collect(inst, round);
        // Record the kicker's estimate as if it were an Estimate reply.
        acts.merge(self.record_estimate(from, inst, round, est, est_round));
        acts
    }

    fn on_collect(&mut self, from: SiteId, inst: u64, round: u64) -> Actions {
        if inst < self.gc_below {
            return Actions::none();
        }
        let i = self.insts.entry(inst).or_default();
        if i.decided || round < i.max_round {
            return Actions::none();
        }
        i.max_round = round;
        i.round = i.round.max(round);
        Actions {
            out: vec![(
                from,
                ConsMsg::Estimate {
                    inst,
                    round,
                    est: i.est.clone(),
                    est_round: i.est_round,
                },
            )],
            decide: Vec::new(),
        }
    }

    fn on_estimate(
        &mut self,
        from: SiteId,
        inst: u64,
        round: u64,
        est: Batch,
        est_round: u64,
    ) -> Actions {
        if inst < self.gc_below {
            return Actions::none();
        }
        self.record_estimate(from, inst, round, est, est_round)
    }

    fn record_estimate(
        &mut self,
        from: SiteId,
        inst: u64,
        round: u64,
        est: Batch,
        est_round: u64,
    ) -> Actions {
        let Some(i) = self.insts.get_mut(&inst) else {
            return Actions::none();
        };
        let Some(c) = &mut i.coord else {
            return Actions::none();
        };
        if c.round != round || !matches!(c.phase, Phase::Collecting) {
            return Actions::none();
        }
        if !c.est_from.insert(from) {
            return Actions::none();
        }
        c.ests.push((est, est_round));
        self.try_choose(inst)
    }

    /// If the read phase has a majority and a non-empty candidate, move to
    /// the write phase.
    fn try_choose(&mut self, inst: u64) -> Actions {
        let majority = self.view.majority();
        let Some(i) = self.insts.get(&inst) else {
            return Actions::none();
        };
        if i.decided {
            return Actions::none();
        }
        let Some(c) = &i.coord else {
            return Actions::none();
        };
        if !matches!(c.phase, Phase::Collecting) || c.est_from.len() < majority {
            return Actions::none();
        }
        // One proposer per round, so estimates adopted in the same round
        // carry the same value and any of them will do.
        let adopted = c
            .ests
            .iter()
            .filter(|&&(_, r)| r > 0)
            .max_by_key(|&&(_, r)| r);
        let value: Batch = match adopted {
            Some((v, _)) => v.clone(),
            None => {
                // Nothing adopted anywhere: any proposal is safe; take the
                // deduplicated union, sorted by uid for determinism.
                let mut seen: HashSet<MsgUid> = HashSet::new();
                let mut v: Vec<AbMsg> = c
                    .ests
                    .iter()
                    .flat_map(|(e, _)| e.iter().cloned())
                    .filter(|m| seen.insert(m.uid))
                    .collect();
                v.sort_by_key(|m| m.uid);
                v.into()
            }
        };
        if value.is_empty() {
            // No estimate anywhere yet; stay in the read phase and wait for
            // further estimates (a kicker's estimate will arrive).
            return Actions::none();
        }
        let round = c.round;
        self.start_write(inst, round, value)
    }

    /// Begin the write phase for `round` of `inst` (we are its coordinator):
    /// adopt `value`, count our own ack and `Propose` it to the peers.
    fn start_write(&mut self, inst: u64, round: u64, value: Batch) -> Actions {
        let me = self.site;
        let peers = self.peers();
        let Some(i) = self.insts.get_mut(&inst) else {
            return Actions::none();
        };
        if i.max_round > round {
            // Promised a later round since this one began: our own
            // acceptance is part of that promise, so the round is dead.
            return Actions::none();
        }
        i.coord = Some(CoordState {
            round,
            phase: Phase::Proposing(value.clone()),
            ests: Vec::new(),
            est_from: HashSet::new(),
            acks: HashSet::from([me]),
        });
        // Adopt our own proposal (est_round carries the +1 offset).
        i.est = value.clone();
        i.est_round = round + 1;
        i.max_round = round;
        let mut acts = Actions {
            out: proposals(peers, inst, round, &value),
            decide: Vec::new(),
        };
        acts.merge(self.try_decide(inst));
        acts
    }

    fn on_propose(&mut self, from: SiteId, inst: u64, round: u64, value: Batch) -> Actions {
        if inst < self.gc_below {
            return Actions::none();
        }
        let i = self.insts.entry(inst).or_default();
        if i.decided || round < i.max_round {
            return Actions::none();
        }
        i.max_round = round;
        i.round = i.round.max(round);
        i.est = value;
        i.est_round = round + 1;
        if self.view.coordinator(0) == Some(from) {
            self.newcomer_coord = false;
        }
        Actions {
            out: vec![(from, ConsMsg::Ack { inst, round })],
            decide: Vec::new(),
        }
    }

    fn on_ack(&mut self, from: SiteId, inst: u64, round: u64) -> Actions {
        if inst < self.gc_below {
            return Actions::none();
        }
        let Some(i) = self.insts.get_mut(&inst) else {
            return Actions::none();
        };
        let Some(c) = &mut i.coord else {
            return Actions::none();
        };
        if c.round != round || !matches!(c.phase, Phase::Proposing(_)) {
            return Actions::none();
        }
        c.acks.insert(from);
        self.try_decide(inst)
    }

    fn try_decide(&mut self, inst: u64) -> Actions {
        let majority = self.view.majority();
        let Some(i) = self.insts.get_mut(&inst) else {
            return Actions::none();
        };
        if i.decided {
            return Actions::none();
        }
        let Some(c) = &i.coord else {
            return Actions::none();
        };
        let Phase::Proposing(v) = &c.phase else {
            return Actions::none();
        };
        if c.acks.len() < majority {
            return Actions::none();
        }
        let value = v.clone();
        i.decided = true;
        i.coord = None;
        Actions {
            out: Vec::new(),
            decide: vec![(inst, value)],
        }
    }
}

/// `Propose(inst, round, value)` addressed to each of `targets`, each
/// sharing `value`.
fn proposals(
    targets: impl IntoIterator<Item = SiteId>,
    inst: u64,
    round: u64,
    value: &Batch,
) -> Vec<(SiteId, ConsMsg)> {
    let propose = |value| ConsMsg::Propose { inst, round, value };
    targets
        .into_iter()
        .map(|t| (t, propose(value.clone())))
        .collect()
}

/// Emit a transition's actions as events: point-to-point sends via
/// `SendOut`, decisions as a RelCast flood.
fn emit(ctx: &Ctx<'_>, ev: &Events, acts: Actions) -> Result<()> {
    for (target, msg) in acts.out {
        ctx.trigger(ev.send_out, EventData::new((Payload::Cons(msg), target)))?;
    }
    for (inst, batch) in acts.decide {
        ctx.trigger(ev.bcast, EventData::new(CastData::Decide { inst, batch }))?;
    }
    Ok(())
}

/// Register the consensus microprotocol on the builder.
pub fn register(
    b: &mut StackBuilder,
    pid: ProtocolId,
    ev: &Events,
    state: ProtocolState<ConsensusState>,
) {
    let events = *ev;
    // Every consensus transition runs through [`emit`]: point-to-point
    // sends (`SendOut`, up to one per peer) plus a `Bcast` decide flood per
    // decision — fan-outs, declared below for each handler that emits.

    let propose = {
        let state = state.clone();
        let e = ev.cons_propose;
        b.bind_with_triggers(e, pid, "consensus.propose", &[], move |ctx, data| {
            let (inst, value): &(u64, Batch) = data.expect(e)?;
            let acts = state.with(ctx, |s| s.propose(*inst, value.clone()));
            emit(ctx, &events, acts)
        })
    };

    let on_msg = {
        let state = state.clone();
        let e = ev.from_rcomm_cons;
        b.bind_with_triggers(e, pid, "consensus.on_msg", &[], move |ctx, data| {
            let d: &RDeliver<ConsMsg> = data.expect(e)?;
            let acts = state.with(ctx, |s| s.on_msg(d.sender, d.payload.clone()));
            emit(ctx, &events, acts)
        })
    };

    let on_suspect = {
        let state = state.clone();
        let e = ev.suspect;
        b.bind_with_triggers(e, pid, "consensus.on_suspect", &[], move |ctx, data| {
            let site: &SiteId = data.expect(e)?;
            let acts = state.with(ctx, |s| s.on_suspect(*site));
            emit(ctx, &events, acts)
        })
    };

    {
        let state = state.clone();
        let e = ev.cons_gc;
        b.bind_with_triggers(e, pid, "consensus.gc", &[], move |ctx, data| {
            let below: &u64 = data.expect(e)?;
            state.with(ctx, |s| s.gc(*below));
            Ok(())
        });
    }

    let view_change = {
        let state = state.clone();
        let e = ev.view_change;
        b.bind_with_triggers(e, pid, "consensus.view_change", &[], move |ctx, data| {
            let v: &GroupView = data.expect(e)?;
            let acts = state.with(ctx, |s| s.set_view(v.clone()));
            emit(ctx, &events, acts)
        })
    };

    for h in [propose, on_msg, on_suspect, view_change] {
        b.declare_fan_out(h, &[ev.send_out, ev.bcast]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msgs::AbPayload;
    use bytes::Bytes;

    fn s(i: u16) -> SiteId {
        SiteId(i)
    }

    fn msg(origin: u16, seq: u64) -> AbMsg {
        AbMsg {
            uid: MsgUid {
                origin: s(origin),
                seq,
            },
            payload: AbPayload::User(Bytes::from_static(b"m")),
        }
    }

    /// A tiny message bus driving several ConsensusState instances to
    /// completion — pure state-machine testing without the runtime.
    struct Bus {
        sites: Vec<ConsensusState>,
        decided: Vec<Option<(u64, Batch)>>,
        /// Every message handed to a live site, in delivery order.
        log: Vec<ConsMsg>,
    }

    impl Bus {
        fn new(n: u16) -> Bus {
            let view = GroupView::of_first(n as usize);
            Bus {
                sites: (0..n)
                    .map(|i| ConsensusState::new(s(i), view.clone()))
                    .collect(),
                decided: (0..n).map(|_| None).collect(),
                log: Vec::new(),
            }
        }

        /// Apply actions originating at `from`, delivering messages
        /// immediately (depth-first), skipping sites in `down`.
        fn run(&mut self, from: usize, acts: Actions, down: &[usize]) {
            for d in acts.decide {
                // Decide floods via RelCast: all live sites learn it.
                for (i, slot) in self.decided.iter_mut().enumerate() {
                    if !down.contains(&i) && slot.is_none() {
                        *slot = Some(d.clone());
                    }
                }
            }
            for (target, m) in acts.out {
                let t = target.index();
                if down.contains(&t) {
                    continue;
                }
                self.log.push(m.clone());
                let reply = self.sites[t].on_msg(s(from as u16), m);
                self.run(t, reply, down);
            }
        }
    }

    fn is_propose(m: &ConsMsg) -> bool {
        matches!(m, ConsMsg::Propose { .. })
    }

    fn is_collect(m: &ConsMsg) -> bool {
        matches!(m, ConsMsg::Collect { .. })
    }

    #[test]
    fn three_sites_decide_proposers_value() {
        let mut bus = Bus::new(3);
        let v = Batch::from(vec![msg(0, 1)]);
        // Site 0 is coordinator of round 0 and proposes.
        let acts = bus.sites[0].propose(0, v.clone());
        bus.run(0, acts, &[]);
        for d in &bus.decided {
            assert_eq!(d.as_ref().unwrap(), &(0, v.clone()));
        }
    }

    #[test]
    fn round0_coordinator_proposes_without_collect() {
        let mut bus = Bus::new(3);
        let v = Batch::from(vec![msg(0, 1)]);
        let acts = bus.sites[0].propose(0, v.clone());
        assert_eq!(acts.out.len(), 2);
        assert!(acts.out.iter().all(|(_, m)| is_propose(m)));
        assert!(acts.decide.is_empty());
        bus.run(0, acts, &[]);
        for d in &bus.decided {
            assert_eq!(d.as_ref().unwrap(), &(0, v.clone()));
        }
        // Propose and Ack only: no read phase, nobody kicked.
        assert!(bus
            .log
            .iter()
            .all(|m| matches!(m, ConsMsg::Propose { .. } | ConsMsg::Ack { .. })));
    }

    #[test]
    fn non_coordinator_kicks_coordinator() {
        let mut bus = Bus::new(3);
        let v = Batch::from(vec![msg(2, 1)]);
        // Round 0: atomic broadcast sends the coordinator (site 0) the
        // request, so site 2 keeps its estimate and sends nothing.
        let acts = bus.sites[2].propose(0, v.clone());
        assert_eq!(acts, Actions::none());
        // Site 0 is suspected: round 1's coordinator (site 1) is kicked
        // with the estimate site 2 kept.
        let acts = bus.sites[2].on_suspect(s(0));
        assert!(matches!(
            acts.out.as_slice(),
            [(t, ConsMsg::Kick { round: 1, est, est_round: 0, .. })] if *t == s(1) && *est == v
        ));
        bus.run(2, acts, &[0]);
        assert_eq!(bus.decided[1].as_ref().unwrap(), &(0, v));
    }

    #[test]
    fn union_used_when_nothing_adopted() {
        let mut bus = Bus::new(3);
        // Coordinator 0 is down; sites 1 and 2 hold different estimates and
        // nothing was ever adopted, so round 1's read phase proposes the
        // union.
        let a1 = bus.sites[1].propose(0, Batch::from(vec![msg(1, 1)]));
        let a2 = bus.sites[2].propose(0, Batch::from(vec![msg(2, 1)]));
        assert_eq!((a1, a2), (Actions::none(), Actions::none()));
        let acts = bus.sites[1].on_suspect(s(0));
        assert!(acts.out.iter().all(|(_, m)| is_collect(m)));
        bus.run(1, acts, &[0]);
        let d = bus.decided[2].clone().unwrap();
        assert_eq!(d, (0, Batch::from(vec![msg(1, 1), msg(2, 1)])));
    }

    #[test]
    fn coordinator_crash_second_round_decides() {
        let mut bus = Bus::new(3);
        let v = Batch::from(vec![msg(1, 7)]);
        // Coordinator 0 is down; site 1 records its estimate and waits.
        let acts = bus.sites[1].propose(0, v.clone());
        bus.run(1, acts, &[0]);
        assert!(bus.decided[1].is_none());
        // FD on sites 1 and 2 suspects site 0; round advances to 1 whose
        // coordinator is site 1.
        let acts = bus.sites[1].on_suspect(s(0));
        bus.run(1, acts, &[0]);
        assert_eq!(bus.decided[1].as_ref().unwrap(), &(0, v.clone()));
        assert_eq!(bus.decided[2].as_ref().unwrap(), &(0, v));
    }

    #[test]
    fn single_member_view_decides_alone() {
        let view = GroupView::of_first(1);
        let mut c = ConsensusState::new(s(0), view);
        let v = Batch::from(vec![msg(0, 1)]);
        let acts = c.propose(0, v.clone());
        assert_eq!(acts.decide, vec![(0, v)]);
        assert!(acts.out.is_empty());
    }

    #[test]
    fn view_shrink_decides_every_restarted_instance() {
        // Site 1 holds estimates for two undecided instances when the view
        // shrinks to itself: each restart decides on the spot, and both
        // decisions must come out (a dropped one stalls abcast for good).
        let mut c = ConsensusState::new(s(1), GroupView::of_first(3));
        let (v0, v1) = (Batch::from(vec![msg(1, 1)]), Batch::from(vec![msg(1, 2)]));
        assert_eq!(c.propose(0, v0.clone()), Actions::none());
        assert_eq!(c.propose(1, v1.clone()), Actions::none());
        let acts = c.set_view(GroupView::initial([s(1)]));
        assert_eq!(acts.decide, vec![(0, v0), (1, v1)]);
    }

    #[test]
    fn stale_rounds_are_rejected() {
        let view = GroupView::of_first(3);
        let mut c = ConsensusState::new(s(2), view);
        // Promise round 5.
        let a = c.on_msg(s(1), ConsMsg::Collect { inst: 0, round: 5 });
        assert_eq!(a.out.len(), 1);
        // An older propose must be ignored.
        let a = c.on_msg(
            s(0),
            ConsMsg::Propose {
                inst: 0,
                round: 3,
                value: Batch::from(vec![msg(0, 1)]),
            },
        );
        assert!(a.out.is_empty());
    }

    #[test]
    fn round0_value_survives_coordinator_crash() {
        // Site 0 fast-proposes A in round 0, site 1 adopts and acks it, and
        // site 0 dies before any Decide leaves (a majority — 0 and 1 — may
        // have accepted A). Round 1's read phase must find A and decide it,
        // not site 2's estimate.
        let mut bus = Bus::new(3);
        let a_val = Batch::from(vec![msg(0, 1)]);
        let acts = bus.sites[0].propose(0, a_val.clone());
        let to_1 = acts.out.into_iter().find(|(t, _)| *t == s(1)).unwrap().1;
        assert!(is_propose(&to_1));
        let ack = bus.sites[1].on_msg(s(0), to_1);
        assert!(matches!(ack.out.as_slice(), [(_, ConsMsg::Ack { .. })])); // lost with site 0
        let _ = bus.sites[2].propose(0, Batch::from(vec![msg(2, 9)]));
        // Both survivors suspect site 0; round 1's coordinator is site 1.
        let kick = bus.sites[2].on_suspect(s(0));
        let collect = bus.sites[1].on_suspect(s(0));
        bus.run(2, kick, &[0]);
        bus.run(1, collect, &[0]);
        assert_eq!(bus.decided[1].as_ref().unwrap(), &(0, a_val.clone()));
        assert_eq!(bus.decided[2].as_ref().unwrap(), &(0, a_val));
    }

    #[test]
    fn non_pristine_round0_takes_the_read_phase() {
        let view = GroupView::of_first(3);
        let v = Batch::from(vec![msg(0, 1)]);
        // Already adopted a round-0 Propose for the instance.
        let mut c = ConsensusState::new(s(0), view.clone());
        let _ = c.on_msg(
            s(1),
            ConsMsg::Propose {
                inst: 0,
                round: 0,
                value: Batch::from(vec![msg(1, 1)]),
            },
        );
        let acts = c.propose(0, v.clone());
        assert!(!acts.out.is_empty() && acts.out.iter().all(|(_, m)| is_collect(m)));
        // Already promised a later round (3 is site 0's again).
        let mut c = ConsensusState::new(s(0), view.clone());
        let _ = c.on_msg(s(1), ConsMsg::Collect { inst: 0, round: 3 });
        let acts = c.propose(0, v.clone());
        assert!(!acts.out.is_empty() && acts.out.iter().all(|(_, m)| is_collect(m)));
        // Already kicked with an estimate adopted elsewhere: the kick starts
        // the read phase and the later proposal adds nothing to it.
        let mut c = ConsensusState::new(s(0), view);
        let acts = c.on_msg(
            s(1),
            ConsMsg::Kick {
                inst: 0,
                round: 0,
                est: Batch::from(vec![msg(1, 1)]),
                est_round: 1,
            },
        );
        assert!(acts.out.iter().any(|(_, m)| is_collect(m)));
        assert!(!c.propose(0, v).out.iter().any(|(_, m)| is_propose(m)));
    }

    #[test]
    fn restart_in_round0_takes_the_read_phase() {
        // Site 1 holds an estimate for an undecided round-0 instance; site 0
        // leaves and round 0 is now site 1's. Site 0 may already have
        // proposed in it, so the restart collects first.
        let mut c = ConsensusState::new(s(1), GroupView::of_first(3));
        assert_eq!(c.propose(0, Batch::from(vec![msg(1, 1)])), Actions::none());
        let acts = c.set_view(GroupView::initial([s(1), s(2)]));
        assert!(matches!(
            acts.out.as_slice(),
            [(t, ConsMsg::Collect { inst: 0, round: 0 })] if *t == s(2)
        ));
    }

    #[test]
    fn followers_kick_a_newcomer_coordinator_until_it_is_heard() {
        // Site 0 joins {1, 2, 3} and is round 0's coordinator at once. What
        // it sent site 2 before site 2 installed the view is gone, so site 2
        // kicks with every proposal until a `Propose` of site 0 gets through.
        let old = GroupView::initial([s(1), s(2), s(3)]);
        let new = old.apply(crate::view::ViewOp::Join, s(0));
        let mut c = ConsensusState::new(s(2), old);
        assert_eq!(c.propose(0, Batch::from(vec![msg(2, 1)])), Actions::none());
        c.gc(1);
        let _ = c.set_view(new);
        for inst in [1, 2] {
            let acts = c.propose(inst, Batch::from(vec![msg(2, inst)]));
            assert!(matches!(
                acts.out.as_slice(),
                [(t, ConsMsg::Kick { round: 0, est_round: 0, .. })] if *t == s(0)
            ));
        }
        let propose = ConsMsg::Propose {
            inst: 2,
            round: 0,
            value: Batch::from(vec![msg(2, 2)]),
        };
        let ack = c.on_msg(s(0), propose);
        assert!(matches!(ack.out.as_slice(), [(_, ConsMsg::Ack { .. })]));
        assert_eq!(c.propose(3, Batch::from(vec![msg(2, 3)])), Actions::none());
    }

    #[test]
    fn a_kick_for_the_round_being_written_is_answered_with_its_propose() {
        let mut c = ConsensusState::new(s(0), GroupView::of_first(3));
        let v = Batch::from(vec![msg(0, 1)]);
        let _ = c.propose(0, v.clone());
        let kick = ConsMsg::Kick {
            inst: 0,
            round: 0,
            est: Batch::from(vec![msg(2, 1)]),
            est_round: 0,
        };
        let acts = c.on_msg(s(2), kick);
        assert!(matches!(
            acts.out.as_slice(),
            [(t, ConsMsg::Propose { inst: 0, round: 0, value })] if *t == s(2) && *value == v
        ));
        assert!(acts.decide.is_empty());
    }

    #[test]
    fn a_kick_is_a_promise() {
        // Site 2 kicks round 1 with its (never adopted) estimate; site 1 will
        // count that as site 2's reply to `Collect(1)`. A round-0 proposal
        // that arrives afterwards must not be adopted behind its back.
        let mut c = ConsensusState::new(s(2), GroupView::of_first(3));
        let _ = c.propose(0, Batch::from(vec![msg(2, 1)]));
        let kick = c.on_suspect(s(0));
        assert!(matches!(
            kick.out.as_slice(),
            [(
                _,
                ConsMsg::Kick {
                    round: 1,
                    est_round: 0,
                    ..
                }
            )]
        ));
        let late = c.on_msg(
            s(0),
            ConsMsg::Propose {
                inst: 0,
                round: 0,
                value: Batch::from(vec![msg(0, 1)]),
            },
        );
        assert_eq!(late, Actions::none());
    }

    #[test]
    fn coordinator_abandons_a_round_after_promising_a_later_one() {
        // Site 1 is collecting for round 1 when round 2's `Collect` reaches
        // it: it promises, reporting an estimate it never adopted. Completing
        // round 1 afterwards — adopting and acking its own proposal — would
        // let rounds 1 and 2 both reach a majority through it.
        let mut c = ConsensusState::new(s(1), GroupView::of_first(3));
        let _ = c.propose(0, Batch::from(vec![msg(1, 1)]));
        let collect = c.on_suspect(s(0));
        assert!(collect.out.iter().all(|(_, m)| is_collect(m)));
        let promise = c.on_msg(s(2), ConsMsg::Collect { inst: 0, round: 2 });
        assert!(matches!(
            promise.out.as_slice(),
            [(
                _,
                ConsMsg::Estimate {
                    round: 2,
                    est_round: 0,
                    ..
                }
            )]
        ));
        let acts = c.on_msg(
            s(0),
            ConsMsg::Estimate {
                inst: 0,
                round: 1,
                est: Batch::default(),
                est_round: 0,
            },
        );
        assert_eq!(acts, Actions::none());
    }

    #[test]
    fn gc_drops_instances_and_ignores_stale_messages() {
        let view = GroupView::of_first(3);
        let mut c = ConsensusState::new(s(0), view);
        let _ = c.propose(0, Batch::from(vec![msg(0, 1)]));
        assert_eq!(c.live_instances(), 1);
        c.gc(1);
        assert_eq!(c.live_instances(), 0);
        let a = c.on_msg(s(1), ConsMsg::Collect { inst: 0, round: 9 });
        assert!(a.out.is_empty());
        // New instances still work.
        let a = c.propose(1, Batch::from(vec![msg(0, 2)]));
        assert!(a.out.iter().all(|(_, m)| is_propose(m)) && a.out.len() == 2);
    }
}

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
//! 4. Participants adopt and `Ack`; a majority of acks decides. The
//!    coordinator delivers its decision in the computation that reaches it,
//!    and sends `Decide` to every other member, point to point: without the
//!    value to a site whose `Ack` of the round it counted — that site
//!    adopted the value and holds it — and with it to the others.
//!
//! **A decided site answers for its decision.** A coordinator may crash
//! after its `Decide` reached some members, or none. What the survivors do
//! next — suspect it, kick the next round's coordinator, or collect as that
//! coordinator — reaches a site that may have decided, and a site answers
//! any `Kick`, `Collect`, `Estimate` or `Propose` for an instance it has
//! decided with its `Decide`, value included. So no decision needs a
//! reliable broadcast (Chandra–Toueg flood the decision for exactly this
//! crash; Raft's leader catches up the follower that missed it instead): a
//! member that never heard of a decision suspects the coordinator and
//! restarts the instance in a later round, and that round's `Kick` or
//! `Collect` reaches a member that decided, or its read phase finds the
//! value a majority accepted. A site that learns a decision while it
//! coordinates a round of the instance passes it on, since members may be
//! waiting on that round.
//!
//! For that a site keeps a decided value until every member of the view has
//! delivered past it. Each `Ack` carries its sender's delivery point, the
//! coordinator takes the minimum over its view, and each `Propose` carries
//! that stable point to the followers, as Raft's commit index rides
//! `AppendEntries`. [`ConsensusState::gc`] learns this site's own delivery
//! point: below it an undecided instance is dropped, and a decision only
//! below the stable point. A member that has not delivered an instance can
//! still ask for it, and a crashed member's frozen delivery point holds
//! every later decision until the view change that excludes it.
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
//! or `Decide` of the newcomer that reaches a site before that site installs
//! the view is acknowledged, discarded and never resent. So when a view
//! change makes a site that was not in the previous view round 0's
//! coordinator, a follower `Kick`s with each proposal, as it would in a
//! later round, until it has accepted a `Propose` from that coordinator for
//! the instance it waits on — every decision below it delivered, so none is
//! lost; and a coordinator kicked for a round it is already writing answers
//! with that round's `Propose` — a plain retransmission, one proposer and
//! one value per round — or, for an instance it has decided, with its
//! `Decide`.
//!
//! Suspicion of the current coordinator (from the failure detector) bumps
//! the round; the new coordinator is kicked into action with the kicker's
//! estimate riding along.
//!
//! Values are [`Batch`]es, shared, never copied to be owned: the proposal
//! atomic broadcast collected (or the batch a `Kick`, `Estimate`, `Propose`
//! or `Decide` was decoded into) becomes this site's estimate, the value of
//! every `Propose` and `Decide` it sends, and the decision it hands to
//! atomic broadcast and keeps, all one body. Only the union of collected
//! estimates builds a new batch.
//!
//! The core logic is a pure state machine ([`ConsensusState`]) that maps
//! inputs to [`Actions`], so it is unit-testable without the runtime; the
//! SAMOA handlers are a thin shell around it.

use std::collections::{HashMap, HashSet};

use samoa_core::prelude::*;
use samoa_net::SiteId;

use crate::events::Events;
use crate::msgs::{AbMsg, Batch, ConsMsg, MsgUid, Payload};
use crate::observe::ConsensusInstruments;
use crate::relcomm::RDeliver;
use crate::view::GroupView;

/// What a state transition wants the shell to do.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Actions {
    /// Point-to-point consensus messages to send via RelComm.
    pub out: Vec<(SiteId, ConsMsg)>,
    /// Decisions reached here, for atomic broadcast, in instance order.
    /// More than one when a suspicion or a view change restarts several
    /// instances that each decide on the spot (single-member view).
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
    /// The estimate; once decided, the decision.
    est: Batch,
    /// Adoption marker: 0 = the estimate is initial (never adopted via a
    /// `Propose`); `r + 1` = adopted in round `r`. The +1 offset keeps
    /// round-0 adoptions distinguishable from "never adopted".
    est_round: u64,
    /// Highest round promised (Paxos promise).
    max_round: u64,
    /// Round this site currently believes in; once decided, the round of
    /// the decision.
    round: u64,
    coord: Option<CoordState>,
    decided: bool,
}

impl Inst {
    /// Decided on `value` in `round`: kept to answer for until every member
    /// has delivered past it (module docs).
    fn decide(&mut self, round: u64, value: Batch) {
        self.decided = true;
        self.coord = None;
        self.round = round;
        self.est = value;
    }
}

/// The local state of the consensus microprotocol.
pub struct ConsensusState {
    site: SiteId,
    view: GroupView,
    /// This site's delivery point: atomic broadcast has delivered every
    /// instance below it ([`ConsensusState::gc`]). Below it only decisions
    /// are kept, and a message for any other instance is ignored.
    delivered: u64,
    /// The delivery point each peer last reported in an `Ack`.
    peer_delivered: HashMap<SiteId, u64>,
    /// Every member of the view has delivered every instance below it, as
    /// far as this site knows: from the acks it counted as a coordinator,
    /// or from a coordinator's `Propose`.
    stable: u64,
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
            delivered: 0,
            peer_delivered: HashMap::new(),
            stable: 0,
            insts: HashMap::new(),
            newcomer_coord: false,
            instruments: ConsensusInstruments::default(),
        }
    }

    /// Number of live (non-GCed) instances — for tests and diagnostics.
    pub fn live_instances(&self) -> usize {
        self.insts.len()
    }

    /// Number of decided instances kept to answer for.
    #[cfg(test)]
    fn retained_decisions(&self) -> usize {
        self.insts.values().filter(|i| i.decided).count()
    }

    /// Propose `value` for instance `inst` (idempotent; the first proposal
    /// fixes this site's initial estimate).
    pub fn propose(&mut self, inst: u64, value: Batch) -> Actions {
        if inst < self.delivered {
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
            ConsMsg::Propose {
                inst,
                round,
                value,
                stable,
            } => self.on_propose(from, inst, round, value, stable),
            ConsMsg::Ack {
                inst,
                round,
                delivered,
            } => self.on_ack(from, inst, round, delivered),
            ConsMsg::Decide { inst, round, value } => self.on_decide(from, inst, round, value),
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
        // A site that left reports nothing more; one that rejoins starts
        // from nothing again.
        self.peer_delivered.retain(|&m, _| view.contains(m));
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

    /// This site has delivered every instance below `delivered` (`cons_gc`
    /// carries atomic broadcast's `next_inst`). Below it, drop what is
    /// undecided here, and the decisions every member has delivered past
    /// too: those below the stable point (module docs).
    pub fn gc(&mut self, delivered: u64) {
        self.delivered = self.delivered.max(delivered);
        self.raise_stable(self.view_delivered());
    }

    /// The least delivery point over the view: this site's own, and what
    /// each peer last reported (nothing yet counts as 0).
    fn view_delivered(&self) -> u64 {
        let point = |m| match m {
            m if m == self.site => self.delivered,
            m => self.peer_delivered.get(&m).copied().unwrap_or(0),
        };
        self.view
            .members()
            .iter()
            .map(|&m| point(m))
            .min()
            .unwrap_or(0)
    }

    /// Learn that every member has delivered below `stable`, and collect.
    fn raise_stable(&mut self, stable: u64) {
        self.stable = self.stable.max(stable);
        let (delivered, stable) = (self.delivered, self.stable);
        self.insts
            .retain(|&k, i| k >= delivered || (i.decided && k >= stable));
    }

    /// A decided instance answers for itself: its `Decide`, value included,
    /// to `to`. `None` if `inst` is undecided here.
    fn answer(&self, to: SiteId, inst: u64) -> Option<Actions> {
        let i = self.insts.get(&inst).filter(|i| i.decided)?;
        Some(Actions {
            out: decides([to], inst, i.round, |_| Some(i.est.clone())),
            decide: Vec::new(),
        })
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
        if let Some(decided) = self.answer(from, inst) {
            return decided;
        }
        if inst < self.delivered {
            return Actions::none();
        }
        let me = self.site;
        if self.view.coordinator(round) != Some(me) {
            return Actions::none();
        }
        {
            let i = self.insts.entry(inst).or_default();
            if let Some(c) = &i.coord {
                if let (true, Phase::Proposing(v)) = (c.round == round, &c.phase) {
                    // The kicker has nothing from us for a round we are
                    // already writing: say it again.
                    return Actions {
                        out: proposals([from], inst, round, v, self.stable),
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
        if let Some(decided) = self.answer(from, inst) {
            return decided;
        }
        if inst < self.delivered {
            return Actions::none();
        }
        let i = self.insts.entry(inst).or_default();
        if round < i.max_round {
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
        if let Some(decided) = self.answer(from, inst) {
            return decided;
        }
        if inst < self.delivered {
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
            out: proposals(peers, inst, round, &value, self.stable),
            decide: Vec::new(),
        };
        acts.merge(self.try_decide(inst));
        acts
    }

    fn on_propose(
        &mut self,
        from: SiteId,
        inst: u64,
        round: u64,
        value: Batch,
        stable: u64,
    ) -> Actions {
        self.raise_stable(stable);
        if let Some(decided) = self.answer(from, inst) {
            return decided;
        }
        if inst < self.delivered {
            return Actions::none();
        }
        let i = self.insts.entry(inst).or_default();
        if round < i.max_round {
            return Actions::none();
        }
        i.max_round = round;
        i.round = i.round.max(round);
        i.est = value;
        i.est_round = round + 1;
        if self.view.coordinator(0) == Some(from) && inst <= self.delivered {
            self.newcomer_coord = false;
        }
        let ack = ConsMsg::Ack {
            inst,
            round,
            delivered: self.delivered,
        };
        Actions {
            out: vec![(from, ack)],
            decide: Vec::new(),
        }
    }

    /// `from` acknowledged `round` of `inst`, having delivered every
    /// instance below `delivered`.
    fn on_ack(&mut self, from: SiteId, inst: u64, round: u64, delivered: u64) -> Actions {
        let reported = self.peer_delivered.entry(from).or_default();
        if delivered > *reported {
            *reported = delivered;
            self.raise_stable(self.view_delivered());
        }
        if inst < self.delivered {
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

    /// With a majority of acks, decide: keep the value, hand it up, and
    /// send every other member its `Decide` — the value only to those whose
    /// ack was not counted.
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
        let Phase::Proposing(value) = &c.phase else {
            return Actions::none();
        };
        if c.acks.len() < majority {
            return Actions::none();
        }
        let (me, round, value) = (self.site, c.round, value.clone());
        let peers = self.view.members().iter().copied().filter(|&p| p != me);
        let out = decides(peers, inst, round, |p| {
            (!c.acks.contains(&p)).then(|| value.clone())
        });
        i.decide(round, value.clone());
        Actions {
            out,
            decide: vec![(inst, value)],
        }
    }

    /// A `Decide` for `inst` arrived from `from`. Without a value it comes
    /// from the coordinator that counted this site's ack of `round`, and the
    /// value is the one adopted then (or in a later round: from the round a
    /// majority accepted it on, every round proposes that one value).
    ///
    /// A site that was coordinating a round of `inst` passes the decision
    /// on to the other members: whoever kicked it or acked its proposal is
    /// waiting on that round, and would otherwise wait for good.
    fn on_decide(&mut self, from: SiteId, inst: u64, round: u64, value: Option<Batch>) -> Actions {
        if inst < self.delivered {
            return Actions::none();
        }
        let i = self.insts.entry(inst).or_default();
        if i.decided {
            return Actions::none();
        }
        let adopted = || (i.est_round > round).then(|| i.est.clone());
        let Some(value) = value.or_else(adopted) else {
            return Actions::none();
        };
        let me = self.site;
        let others = self.view.members().iter().copied();
        let others = others.filter(|&p| p != me && p != from);
        let out = match i.coord {
            Some(_) => decides(others, inst, round, |_| Some(value.clone())),
            None => Vec::new(),
        };
        i.decide(round, value.clone());
        Actions {
            out,
            decide: vec![(inst, value)],
        }
    }
}

/// `Propose(inst, round, value, stable)` addressed to each of `targets`,
/// each sharing `value`.
fn proposals(
    targets: impl IntoIterator<Item = SiteId>,
    inst: u64,
    round: u64,
    value: &Batch,
    stable: u64,
) -> Vec<(SiteId, ConsMsg)> {
    let propose = |value| ConsMsg::Propose {
        inst,
        round,
        value,
        stable,
    };
    targets
        .into_iter()
        .map(|t| (t, propose(value.clone())))
        .collect()
}

/// `Decide(inst, round)` addressed to each of `targets`, with the value
/// `value_for` gives that target.
fn decides(
    targets: impl IntoIterator<Item = SiteId>,
    inst: u64,
    round: u64,
    value_for: impl Fn(SiteId) -> Option<Batch>,
) -> Vec<(SiteId, ConsMsg)> {
    targets
        .into_iter()
        .map(|t| {
            let value = value_for(t);
            (t, ConsMsg::Decide { inst, round, value })
        })
        .collect()
}

/// Emit a transition's actions as events: point-to-point sends via
/// `SendOut`, each decision to atomic broadcast on `ConsDecide`, in this
/// computation.
fn emit(ctx: &Ctx<'_>, ev: &Events, acts: Actions) -> Result<()> {
    for (target, msg) in acts.out {
        ctx.trigger(ev.send_out, EventData::new((Payload::Cons(msg), target)))?;
    }
    for decision in acts.decide {
        ctx.async_trigger(ev.cons_decide, EventData::new(decision))?;
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
    // sends (`SendOut`, up to one per peer) plus a `ConsDecide` per
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

    // One body per class of consensus message RelComm tells apart.
    let on_msg = |b: &mut StackBuilder, e: EventType, name: &str| {
        let state = state.clone();
        b.bind_with_triggers(e, pid, name, &[], move |ctx, data| {
            let d: &RDeliver<ConsMsg> = data.expect(e)?;
            let acts = state.with(ctx, |s| s.on_msg(d.sender, d.payload.clone()));
            emit(ctx, &events, acts)
        })
    };
    let on_propose = on_msg(b, ev.from_rcomm_propose, "consensus.on_propose");
    let on_msg = on_msg(b, ev.from_rcomm_cons, "consensus.on_msg");

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

    for h in [propose, on_propose, on_msg, on_suspect, view_change] {
        b.declare_fan_out(h, &[ev.send_out, ev.cons_decide]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msgs::AbPayload;
    use bytes::Bytes;
    use std::collections::VecDeque;

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
    /// Messages, `Decide`s among them, are delivered in the order they were
    /// sent.
    struct Bus {
        sites: Vec<ConsensusState>,
        /// The first decision each site reached.
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

        /// Apply actions originating at `from`, then deliver every message
        /// they lead to in send order, skipping sites in `down`.
        fn run(&mut self, from: usize, acts: Actions, down: &[usize]) {
            let mut queue = VecDeque::new();
            self.take(from, acts, &mut queue);
            while let Some((from, to, m)) = queue.pop_front() {
                if down.contains(&to) {
                    continue;
                }
                self.log.push(m.clone());
                let reply = self.sites[to].on_msg(s(from as u16), m);
                self.take(to, reply, &mut queue);
            }
        }

        /// Record the decisions `at` reached — delivered in instance order,
        /// as atomic broadcast would, and reported to `gc` — and queue its
        /// messages.
        fn take(
            &mut self,
            at: usize,
            acts: Actions,
            queue: &mut VecDeque<(usize, usize, ConsMsg)>,
        ) {
            for (inst, value) in acts.decide {
                self.sites[at].gc(inst + 1);
                self.decided[at].get_or_insert((inst, value));
            }
            queue.extend(acts.out.into_iter().map(|(to, m)| (at, to.index(), m)));
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
        // Propose, Ack and Decide only: no read phase, nobody kicked.
        assert!(bus.log.iter().all(|m| matches!(
            m,
            ConsMsg::Propose { .. } | ConsMsg::Ack { .. } | ConsMsg::Decide { .. }
        )));
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
                stable: 0,
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
                stable: 0,
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
        // kicks with every proposal until a `Propose` of site 0 for the
        // instance it waits on gets through. Atomic broadcast proposes for
        // instance `k` once it has delivered every instance below it.
        let old = GroupView::initial([s(1), s(2), s(3)]);
        let new = old.apply(crate::view::ViewOp::Join, s(0));
        let mut c = ConsensusState::new(s(2), old);
        assert_eq!(c.propose(0, Batch::from(vec![msg(2, 1)])), Actions::none());
        c.gc(1);
        let _ = c.set_view(new);
        let propose = |inst| ConsMsg::Propose {
            inst,
            round: 0,
            value: Batch::from(vec![msg(2, inst)]),
            stable: 0,
        };
        let kicks = |acts: Actions| {
            matches!(
                acts.out.as_slice(),
                [(t, ConsMsg::Kick { round: 0, est_round: 0, .. })] if *t == s(0)
            )
        };
        for inst in [1, 2] {
            c.gc(inst);
            assert!(kicks(c.propose(inst, Batch::from(vec![msg(2, inst)]))));
        }
        // A `Propose` for a later instance is heard, but the decisions in
        // between may be what was lost: still kicking.
        let ack = c.on_msg(s(0), propose(3));
        assert!(matches!(ack.out.as_slice(), [(_, ConsMsg::Ack { .. })]));
        assert!(kicks(c.propose(2, Batch::from(vec![msg(2, 2)]))));
        let ack = c.on_msg(s(0), propose(2));
        assert!(matches!(ack.out.as_slice(), [(_, ConsMsg::Ack { .. })]));
        c.gc(3);
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
            [(t, ConsMsg::Propose { inst: 0, round: 0, value, .. })] if *t == s(2) && *value == v
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
                stable: 0,
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
        // A decision goes once the whole view has delivered past it: in a
        // single-member view, as soon as this site has.
        let mut c = ConsensusState::new(s(0), GroupView::of_first(1));
        let a = c.propose(0, Batch::from(vec![msg(0, 1)]));
        assert_eq!(a.decide.len(), 1);
        assert_eq!(c.retained_decisions(), 1);
        c.gc(1);
        assert_eq!(c.live_instances(), 0);
    }

    #[test]
    fn the_value_rides_only_to_a_site_whose_ack_was_not_counted() {
        let mut c = ConsensusState::new(s(0), GroupView::of_first(3));
        let v = Batch::from(vec![msg(0, 1)]);
        let _ = c.propose(0, v.clone());
        let ack = ConsMsg::Ack {
            inst: 0,
            round: 0,
            delivered: 0,
        };
        let acts = c.on_msg(s(1), ack);
        // Decided on the first ack, and delivered here at once.
        assert_eq!(acts.decide, vec![(0, v.clone())]);
        let decide = |value| ConsMsg::Decide {
            inst: 0,
            round: 0,
            value,
        };
        assert_eq!(
            acts.out,
            vec![(s(1), decide(None)), (s(2), decide(Some(v)))]
        );
    }

    #[test]
    fn a_decide_without_the_value_decides_what_was_adopted() {
        let v = Batch::from(vec![msg(0, 1)]);
        let decide = ConsMsg::Decide {
            inst: 0,
            round: 0,
            value: None,
        };
        // Adopted in round 0 and acked: the value is here.
        let mut c = ConsensusState::new(s(1), GroupView::of_first(3));
        let propose = ConsMsg::Propose {
            inst: 0,
            round: 0,
            value: v.clone(),
            stable: 0,
        };
        let _ = c.on_msg(s(0), propose);
        assert_eq!(c.on_msg(s(0), decide.clone()).decide, vec![(0, v)]);
        // Nothing adopted: nothing to decide on.
        let mut c = ConsensusState::new(s(2), GroupView::of_first(3));
        assert_eq!(c.propose(0, Batch::from(vec![msg(2, 1)])), Actions::none());
        assert_eq!(c.on_msg(s(0), decide), Actions::none());
    }

    #[test]
    fn a_decided_site_answers_for_its_decision() {
        // Site 1 learned the decision; site 2 did not, and whatever it sends
        // for the instance is answered with the decision, value included.
        let v = Batch::from(vec![msg(0, 1)]);
        let mut c = ConsensusState::new(s(1), GroupView::of_first(3));
        let decide = |value| ConsMsg::Decide {
            inst: 0,
            round: 0,
            value,
        };
        assert_eq!(c.on_msg(s(0), decide(Some(v.clone()))).decide.len(), 1);
        let est = Batch::from(vec![msg(2, 1)]);
        for m in [
            ConsMsg::Kick {
                inst: 0,
                round: 1,
                est: est.clone(),
                est_round: 0,
            },
            ConsMsg::Collect { inst: 0, round: 2 },
            ConsMsg::Estimate {
                inst: 0,
                round: 1,
                est,
                est_round: 0,
            },
            ConsMsg::Propose {
                inst: 0,
                round: 2,
                value: Batch::from(vec![msg(2, 1)]),
                stable: 0,
            },
        ] {
            let acts = c.on_msg(s(2), m.clone());
            assert_eq!(acts.out, vec![(s(2), decide(Some(v.clone())))], "{m:?}");
            assert!(acts.decide.is_empty());
        }
        // An undecided site answers as before.
        let mut c = ConsensusState::new(s(1), GroupView::of_first(3));
        let acts = c.on_msg(s(2), ConsMsg::Collect { inst: 0, round: 2 });
        assert!(matches!(
            acts.out.as_slice(),
            [(_, ConsMsg::Estimate { .. })]
        ));
    }

    #[test]
    fn decisions_are_kept_until_every_member_has_reported_delivering_past_them() {
        // Site 0 coordinates instance after instance; both followers ack
        // each proposal, learn the decision and deliver it. An `Ack` of
        // instance `k` reports its sender's delivery point, `k`.
        let mut bus = Bus::new(3);
        for inst in 0..6 {
            let acts = bus.sites[0].propose(inst, Batch::from(vec![msg(0, inst + 1)]));
            bus.run(0, acts, &[]);
            let retained = bus.sites.iter().map(ConsensusState::retained_decisions);
            // Every member reported delivering past the instances below
            // `inst`: the coordinator keeps none of them, and a follower
            // keeps the one the next `Propose` will report as stable.
            assert_eq!(
                retained.collect::<Vec<_>>(),
                [1, 2, 2].map(|n| n.min(inst as usize + 1))
            );
        }
        // A quiet cluster: once the acks of a later instance report every
        // member past them, no decision below it is kept anywhere.
        let ack = |inst| ConsMsg::Ack {
            inst,
            round: 0,
            delivered: 6,
        };
        let v = Batch::from(vec![msg(0, 7)]);
        let proposes = bus.sites[0].propose(6, v).out;
        for (to, propose) in proposes {
            let _ = bus.sites[to.index()].on_msg(s(0), propose);
        }
        for from in [1, 2] {
            let _ = bus.sites[0].on_msg(s(from), ack(6));
        }
        assert_eq!(bus.sites[0].retained_decisions(), 1, "instance 6 alone");
        assert!(bus.sites[0].insts.keys().all(|&k| k == 6));
        // A member that leaves the view is forgotten with its report.
        let _ = bus.sites[0].set_view(GroupView::of_first(2));
        let reporters: Vec<SiteId> = bus.sites[0].peer_delivered.keys().copied().collect();
        assert_eq!(reporters, [s(1)]);
        // A member that stops reporting holds every later decision here
        // until a view without it is installed.
        let mut bus = Bus::new(3);
        for inst in 0..4 {
            let acts = bus.sites[0].propose(inst, Batch::from(vec![msg(0, inst + 1)]));
            bus.run(0, acts, &[2]);
        }
        assert_eq!(bus.sites[0].retained_decisions(), 4);
        let _ = bus.sites[0].set_view(GroupView::of_first(2));
        bus.sites[0].gc(4);
        assert_eq!(bus.sites[0].retained_decisions(), 1);
    }
}

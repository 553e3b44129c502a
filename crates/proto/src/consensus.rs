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
//!    `Propose(r, v, quorum)`, `quorum` being its view's majority: the acks
//!    that decide the round, its own included.
//! 4. Participants adopt and `Ack`; a quorum of acks decides. The
//!    coordinator adopted `v` before it proposed, so at a quorum of 2 (a
//!    view of 2 or 3) a participant's vote completes it: the participant
//!    decides as it accepts, in that computation, and still acks, and the
//!    coordinator decides on the first `Ack` and sends no `Decide` — a
//!    follower's decision waits two message delays, not four. Above 2 the
//!    coordinator delivers its decision in the computation that reaches
//!    it, and sends `Decide`, value included, to every other member, point
//!    to point. The quorum a participant decides on is the one the
//!    `Propose` carries, not its own view's majority: its view may lag the
//!    coordinator's by a batch of two joins.
//!
//! **A decided site answers for its decision.** A coordinator may crash
//! after its `Decide` reached some members, or none, or after the first
//! `Ack` decided it. What the survivors do next — suspect it, kick the next
//! round's coordinator, or collect as that coordinator — reaches a site
//! that may have decided, and a site answers any `Kick`, `Collect`,
//! `Estimate` or `Propose` for an instance it has decided with its
//! `Decide`, value included. So no decision needs a reliable broadcast
//! (Chandra–Toueg flood the decision for exactly this crash; Raft's leader
//! catches up the follower that missed it instead): a member that never
//! heard of a decision suspects the coordinator and restarts the instance
//! in a later round, and that round's `Kick` or `Collect` reaches a member
//! that decided, or its read phase finds the value a majority accepted.
//!
//! A site only waits on a round's coordinator, so one that others may be
//! waiting on passes a decision it learned on to the other members: a site
//! coordinating a round of the instance, and round 0's coordinator, which
//! a follower of round 0 waits on without a word. **A site that refuses a
//! `Collect` or `Propose`** — it has promised a later round — remembers the
//! sender, which may go on waiting on its own round, and sends it its
//! `Decide` when it decides, by any path: a site decided as it accepted
//! drives no further round, so the stale coordinator would hear of the
//! decision from no one else.
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
//! after delivering every instance below `k`, view changes are delivered in
//! that prefix, so every site that proposes for `k` does so under the same
//! view and agrees on `view.coordinator(0)`. That site proposes its own
//! estimate straight away, provided the instance is *pristine* — it has
//! promised, adopted and coordinated nothing. The other sites record their
//! estimate and send nothing: every request reaches the coordinator — its
//! own are pending there from the start, anyone else's come as the origin's
//! copy and a forward of every other site's first copy (`abcast.rs`) — and
//! it proposes by itself.
//!
//! Every other way a round starts keeps the read phase: `on_kick`, and
//! `restart` after a suspicion or a view change — `view.coordinator(0)` is a
//! function of the view, so a *restarted* round 0 may belong to a different
//! site than the one that already proposed in it, and only its `Collect`
//! finds what a majority may have accepted from the first.
//!
//! A joining lowest site is round 0's coordinator from the moment it is a
//! member, and nothing here treats it apart: what was pending before it
//! joined reaches it by atomic broadcast's state transfer, and RelComm
//! holds its frames at a site that has not installed its view yet and
//! delivers their resends once that site has (`relcomm.rs`).
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
    /// Writing `value`. `quorum` is what its `Propose`s told the followers:
    /// whether they decide as they accept, or are owed a `Decide`.
    Proposing {
        value: Batch,
        quorum: u64,
    },
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
    /// Sites whose `Collect` or `Propose` was refused here, in the order
    /// they were: each is owed the decision (module docs).
    refused: Vec<SiteId>,
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

    /// Refuse `from`'s `Collect` or `Propose`: a later round was promised
    /// here, and `from` may wait on its own round for good.
    fn refuse(&mut self, from: SiteId) {
        if !self.refused.contains(&from) {
            self.refused.push(from);
        }
    }
}

/// Does a follower that accepts a `Propose` carrying `quorum` decide then?
/// The coordinator adopted the value before it proposed, so the follower's
/// vote is the second: when two make the quorum, the value is chosen. The
/// coordinator asks the same of its own quorum, and sends no `Decide` then.
fn decided_on_accept(quorum: u64) -> bool {
    quorum <= 2
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
        if i.round > 0 {
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
                quorum,
            } => self.on_propose(from, inst, round, value, stable, quorum),
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
            out: decides([to], inst, i.round, &i.est),
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
        let i = self.insts.entry(inst).or_default();
        // Adopt the kicker's estimate as ours if we have none.
        if i.est.is_empty() {
            i.est = est.clone();
            i.est_round = est_round;
        }
        i.round = i.round.max(round);
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
            i.refuse(from);
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
    /// adopt `value`, count our own ack and `Propose` it to the peers, with
    /// the view's majority as the round's quorum.
    fn start_write(&mut self, inst: u64, round: u64, value: Batch) -> Actions {
        let me = self.site;
        let peers = self.peers();
        let quorum = self.view.majority() as u64;
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
            phase: Phase::Proposing {
                value: value.clone(),
                quorum,
            },
            ests: Vec::new(),
            est_from: HashSet::new(),
            acks: HashSet::from([me]),
        });
        // Adopt our own proposal (est_round carries the +1 offset).
        i.est = value.clone();
        i.est_round = round + 1;
        i.max_round = round;
        let stable = self.stable;
        let propose = |p| {
            let value = value.clone();
            let msg = ConsMsg::Propose {
                inst,
                round,
                value,
                stable,
                quorum,
            };
            (p, msg)
        };
        let mut acts = Actions {
            out: peers.into_iter().map(propose).collect(),
            decide: Vec::new(),
        };
        acts.merge(self.try_decide(inst));
        acts
    }

    /// Accept `value` for `round` of `inst` from its coordinator, `from`, and
    /// `Ack` it; decide it too if this vote completes `quorum`
    /// ([`decided_on_accept`]). The quorum is the coordinator's, not this
    /// view's majority: this site may not yet have installed every view the
    /// coordinator has, a batch of two joins among them.
    fn on_propose(
        &mut self,
        from: SiteId,
        inst: u64,
        round: u64,
        value: Batch,
        stable: u64,
        quorum: u64,
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
            i.refuse(from);
            return Actions::none();
        }
        i.max_round = round;
        i.round = i.round.max(round);
        i.est = value.clone();
        i.est_round = round + 1;
        let ack = ConsMsg::Ack {
            inst,
            round,
            delivered: self.delivered,
        };
        let mut acts = match decided_on_accept(quorum) {
            true => self.learn(from, inst, round, value),
            false => Actions::none(),
        };
        acts.out.insert(0, (from, ack));
        acts
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
        if c.round != round || !matches!(c.phase, Phase::Proposing { .. }) {
            return Actions::none();
        }
        c.acks.insert(from);
        self.try_decide(inst)
    }

    /// With a majority of acks, decide: keep the value and hand it up. If
    /// the `Propose` carried a quorum above 2, send every other member its
    /// `Decide`; at 2 or fewer every follower that accepts it decides by
    /// itself, and only the sites refused here are owed one.
    fn try_decide(&mut self, inst: u64) -> Actions {
        let (me, majority) = (self.site, self.view.majority());
        let Some(i) = self.insts.get_mut(&inst) else {
            return Actions::none();
        };
        if i.decided {
            return Actions::none();
        }
        let Some(c) = &i.coord else {
            return Actions::none();
        };
        let Phase::Proposing { value, quorum } = &c.phase else {
            return Actions::none();
        };
        if c.acks.len() < majority {
            return Actions::none();
        }
        let (round, value) = (c.round, value.clone());
        let told: Vec<SiteId> = match decided_on_accept(*quorum) {
            true => std::mem::take(&mut i.refused),
            false => self.view.members().to_vec(),
        };
        let told = told.into_iter().filter(|&p| p != me);
        let out = decides(told, inst, round, &value);
        i.decide(round, value.clone());
        Actions {
            out,
            decide: vec![(inst, value)],
        }
    }

    /// `from`'s `Decide`: `inst` was decided on `value` in `round`.
    fn on_decide(&mut self, from: SiteId, inst: u64, round: u64, value: Batch) -> Actions {
        if inst < self.delivered {
            return Actions::none();
        }
        if self.insts.entry(inst).or_default().decided {
            return Actions::none();
        }
        self.learn(from, inst, round, value)
    }

    /// `inst` was decided on `value` in `round`, which this site learned from
    /// `from`: its `Decide`, or its `Propose` that this site's vote chose.
    ///
    /// A site others may be waiting on passes the decision on to the other
    /// members, or they would wait for good: one coordinating a round of
    /// `inst` — whoever kicked it or acked its proposal waits on that round
    /// — and round 0's coordinator, which a follower of round 0 waits on
    /// without a word. Any other site tells those it refused.
    fn learn(&mut self, from: SiteId, inst: u64, round: u64, value: Batch) -> Actions {
        let me = self.site;
        let waited_on = self.view.coordinator(0) == Some(me);
        let Some(i) = self.insts.get_mut(&inst) else {
            return Actions::none();
        };
        let told: Vec<SiteId> = match waited_on || i.coord.is_some() {
            true => self.view.members().to_vec(),
            false => std::mem::take(&mut i.refused),
        };
        let told = told.into_iter().filter(|&p| p != me && p != from);
        let out = decides(told, inst, round, &value);
        i.decide(round, value.clone());
        Actions {
            out,
            decide: vec![(inst, value)],
        }
    }
}

/// `Decide(inst, round, value)` addressed to each of `targets`, each
/// sharing `value`.
fn decides(
    targets: impl IntoIterator<Item = SiteId>,
    inst: u64,
    round: u64,
    value: &Batch,
) -> Vec<(SiteId, ConsMsg)> {
    targets
        .into_iter()
        .map(|t| {
            let value = value.clone();
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
        // Propose and Ack only: no read phase, nobody kicked, and at a
        // quorum of 2 each follower decides as it accepts — no `Decide`.
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
                stable: 0,
                quorum: 2,
            },
        );
        assert!(a.out.is_empty());
    }

    #[test]
    fn round0_value_survives_coordinator_crash() {
        // Five sites, a quorum of 3. Site 0 fast-proposes A in round 0,
        // sites 1 and 2 adopt and ack it, and site 0 dies before any Decide
        // leaves (a quorum — 0, 1 and 2 — may have accepted A). Round 1's
        // read phase must find A and decide it, not the estimate of site 3
        // or 4.
        let mut bus = Bus::new(5);
        let a_val = Batch::from(vec![msg(0, 1)]);
        let acts = bus.sites[0].propose(0, a_val.clone());
        for (to, m) in acts.out.into_iter().filter(|(t, _)| t.index() <= 2) {
            assert!(is_propose(&m));
            let ack = bus.sites[to.index()].on_msg(s(0), m);
            assert!(ack.decide.is_empty());
            assert!(matches!(ack.out.as_slice(), [(_, ConsMsg::Ack { .. })])); // lost with site 0
        }
        for i in [3, 4] {
            let _ = bus.sites[i].propose(0, Batch::from(vec![msg(i as u16, 9)]));
        }
        // Every survivor suspects site 0; round 1's coordinator is site 1.
        let collect = bus.sites[1].on_suspect(s(0));
        for i in [2, 3, 4] {
            let kick = bus.sites[i].on_suspect(s(0));
            bus.run(i, kick, &[0]);
        }
        bus.run(1, collect, &[0]);
        for i in 1..5 {
            assert_eq!(bus.decided[i].as_ref().unwrap(), &(0, a_val.clone()));
        }
    }

    #[test]
    fn non_pristine_round0_takes_the_read_phase() {
        let view = GroupView::of_first(3);
        let v = Batch::from(vec![msg(0, 1)]);
        // Already adopted round 1's Propose, from round 1's coordinator in a
        // view of 4 (a quorum of 3: not decided here). The proposal joins
        // round 1's read phase: the kick carries the adopted estimate.
        let mut c = ConsensusState::new(s(0), GroupView::of_first(4));
        let _ = c.on_msg(
            s(1),
            ConsMsg::Propose {
                inst: 0,
                round: 1,
                value: Batch::from(vec![msg(1, 1)]),
                stable: 0,
                quorum: 3,
            },
        );
        let acts = c.propose(0, v.clone());
        assert!(matches!(
            acts.out.as_slice(),
            [(t, ConsMsg::Kick { round: 1, est_round: 2, .. })] if *t == s(1)
        ));
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
                quorum: 2,
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
    fn above_a_quorum_of_2_every_other_member_gets_the_decision_with_its_value() {
        // Five sites, a quorum of 3: the followers wait for the `Decide`.
        let mut c = ConsensusState::new(s(0), GroupView::of_first(5));
        let v = Batch::from(vec![msg(0, 1)]);
        let proposes = c.propose(0, v.clone()).out;
        assert!(proposes
            .iter()
            .all(|(_, m)| matches!(m, ConsMsg::Propose { quorum: 3, .. })));
        let ack = ConsMsg::Ack {
            inst: 0,
            round: 0,
            delivered: 0,
        };
        assert_eq!(c.on_msg(s(1), ack.clone()), Actions::none());
        let acts = c.on_msg(s(2), ack);
        // Decided on the second ack, and delivered here at once.
        assert_eq!(acts.decide, vec![(0, v.clone())]);
        let decide = ConsMsg::Decide {
            inst: 0,
            round: 0,
            value: v,
        };
        let told: Vec<_> = (1..5).map(|i| (s(i), decide.clone())).collect();
        assert_eq!(acts.out, told);
    }

    #[test]
    fn a_follower_decides_as_it_accepts_on_the_coordinators_quorum() {
        // Site 1's view has 3 members. A coordinator whose view holds two
        // more — a batch of two joins site 1 has not delivered yet — sends
        // a quorum of 3: site 1's vote and the coordinator's are not enough,
        // and it only acks. A quorum of 2 is: it decides and still acks,
        // its delivery point riding along.
        let v = Batch::from(vec![msg(0, 1)]);
        let propose = |quorum| ConsMsg::Propose {
            inst: 0,
            round: 0,
            value: v.clone(),
            stable: 0,
            quorum,
        };
        let acked = |acts: &Actions| {
            matches!(
                acts.out.as_slice(),
                [(t, ConsMsg::Ack { inst: 0, round: 0, delivered: 0 })] if *t == s(0)
            )
        };
        let mut c = ConsensusState::new(s(1), GroupView::of_first(3));
        let acts = c.on_msg(s(0), propose(3));
        assert!(acked(&acts) && acts.decide.is_empty(), "{acts:?}");
        let mut c = ConsensusState::new(s(1), GroupView::of_first(3));
        let acts = c.on_msg(s(0), propose(2));
        assert!(acked(&acts), "{acts:?}");
        assert_eq!(acts.decide, vec![(0, v)]);
    }

    #[test]
    fn a_coordinator_a_decided_site_refused_learns_the_decision() {
        // The consensus proptest's case 1925 (n in 3..6, seed
        // 0xa379f92e5d2a0605), as a plain schedule. Sites 1 and 2 hold
        // estimates; site 2 suspects site 0 and kicks site 1 for round 1,
        // promising it. Site 0 proposes in round 0, and site 2 refuses it.
        // Site 1 counts the kick as site 2's estimate and proposes the union;
        // site 2 accepts and decides, and site 1 crashes with its `Propose`
        // to site 0 and site 2's `Ack` undelivered. Site 0 suspects nobody it
        // waits on — it coordinates round 0 — so what tells it is site 2,
        // which owes its decision to the site it refused.
        let mut bus = Bus::new(3);
        let to_2 = |acts: Actions| {
            let propose = acts
                .out
                .into_iter()
                .find(|(t, m)| *t == s(2) && is_propose(m));
            propose.unwrap().1
        };
        for i in [2, 1] {
            let est = Batch::from(vec![msg(i as u16, 1)]);
            assert_eq!(bus.sites[i].propose(0, est), Actions::none());
        }
        let kick = bus.sites[2].on_suspect(s(0)).out.remove(0).1;
        let refused = to_2(bus.sites[0].propose(0, Batch::from(vec![msg(0, 1)])));
        assert_eq!(bus.sites[2].on_msg(s(0), refused), Actions::none());
        let accepted = to_2(bus.sites[1].on_msg(s(2), kick));
        let acts = bus.sites[2].on_msg(s(1), accepted);
        let v = Batch::from(vec![msg(1, 1), msg(2, 1)]);
        assert_eq!(acts.decide, vec![(0, v.clone())]);
        bus.run(2, acts, &[1]);
        assert_eq!(bus.decided[0], Some((0, v)));
    }

    #[test]
    fn a_round0_coordinator_that_learns_the_decision_passes_it_on() {
        // Site 1 suspects site 0 and runs round 1: site 0, which has
        // proposed nothing, answers its collect and accepts its proposal,
        // which decides. Site 1 crashes before anything reaches site 2, a
        // follower of round 0 that waits on site 0 without a word: site 0
        // tells it.
        let mut bus = Bus::new(3);
        let v = Batch::from(vec![msg(1, 1)]);
        assert_eq!(bus.sites[1].propose(0, v.clone()), Actions::none());
        let w = Batch::from(vec![msg(2, 1)]);
        assert_eq!(bus.sites[2].propose(0, w), Actions::none());
        let to_0 = |acts: Actions| acts.out.into_iter().find(|(t, _)| *t == s(0)).unwrap().1;
        let collect = to_0(bus.sites[1].on_suspect(s(0)));
        let estimate = bus.sites[0].on_msg(s(1), collect).out.remove(0).1;
        let propose = to_0(bus.sites[1].on_msg(s(0), estimate));
        let acts = bus.sites[0].on_msg(s(1), propose);
        assert_eq!(acts.decide, vec![(0, v.clone())]);
        bus.run(0, acts, &[1]);
        assert_eq!(bus.decided[2], Some((0, v)));
    }

    #[test]
    fn a_decided_site_answers_for_its_decision() {
        // Site 1 learned the decision; site 2 did not, and whatever it sends
        // for the instance is answered with the decision, value included.
        let v = Batch::from(vec![msg(0, 1)]);
        let mut c = ConsensusState::new(s(1), GroupView::of_first(3));
        let decide = ConsMsg::Decide {
            inst: 0,
            round: 0,
            value: v,
        };
        assert_eq!(c.on_msg(s(0), decide.clone()).decide.len(), 1);
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
                quorum: 2,
            },
        ] {
            let acts = c.on_msg(s(2), m.clone());
            assert_eq!(acts.out, vec![(s(2), decide.clone())], "{m:?}");
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

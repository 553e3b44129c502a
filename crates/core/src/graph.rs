//! Routing patterns for `isolated route` (paper §4, §5.3).
//!
//! A routing pattern is a directed graph over handler names. An arrow
//! `h1 ↦ h2` declares that the body of `h1` may call `h2`. The pattern also
//! declares *roots*: the handlers that the `isolated` closure body may call
//! directly.
//!
//! At run time the computation keeps a `RouteState` (crate-internal): which handlers are
//! currently *active* (executing, or issued asynchronously and not yet
//! executed — see DESIGN.md for why pending asynchronous events must count),
//! and which vertices have been *removed* by early release (Rule 4(b)). A
//! microprotocol whose handlers are all inactive and unreachable from any
//! active handler can be released before the computation completes, which is
//! where `VCAroute` gets its extra parallelism.
//!
//! The pattern compiles once into an immutable `RouteGraph` — sorted
//! vertex table, adjacency, and a precomputed reachability closure stored as
//! bitsets — cached on the pattern and shared (`Arc`) by every computation
//! spawned from it. Per-spawn setup is then a handful of zeroed vectors, the
//! per-call admission check is a single bitset probe, and the per-call
//! release scan is a few word ORs, instead of rebuilding and walking the
//! graph under the route lock on every call. Once a protocol has been
//! removed the scans fall back to the explicit DFS (paths through removed
//! vertices must not conduct), so behaviour is bit-for-bit identical to the
//! naive implementation.

use std::collections::BTreeSet;
use std::fmt;
use std::sync::{Arc, OnceLock};

use crate::handler::HandlerId;
use crate::protocol::ProtocolId;

/// A user-declared routing pattern: roots plus directed edges over handlers.
///
/// ```
/// # use samoa_core::graph::RoutePattern;
/// # use samoa_core::handler_id_for_tests as h;
/// let pattern = RoutePattern::new()
///     .root(h(0))
///     .edge(h(0), h(1))
///     .edge(h(1), h(2));
/// assert_eq!(pattern.vertices().len(), 3);
/// ```
#[derive(Default)]
pub struct RoutePattern {
    pub(crate) roots: Vec<HandlerId>,
    pub(crate) edges: Vec<(HandlerId, HandlerId)>,
    /// Compiled form, built lazily on first spawn and reused by every
    /// computation declared with this pattern (see [`RouteGraph`]).
    compiled: OnceLock<Arc<RouteGraph>>,
}

impl Clone for RoutePattern {
    fn clone(&self) -> Self {
        // The compiled cache embeds a handler→protocol mapping; a clone may
        // be used against a different stack, so it starts cold.
        RoutePattern {
            roots: self.roots.clone(),
            edges: self.edges.clone(),
            compiled: OnceLock::new(),
        }
    }
}

impl RoutePattern {
    /// Start an empty pattern.
    pub fn new() -> Self {
        RoutePattern::default()
    }

    /// Declare `h` as callable directly from the `isolated` closure body.
    /// Duplicate roots are deduplicated.
    pub fn root(mut self, h: HandlerId) -> Self {
        if !self.roots.contains(&h) {
            self.roots.push(h);
            self.compiled = OnceLock::new();
        }
        self
    }

    /// Declare that the body of `from` may call `to`. Duplicate edges are
    /// deduplicated.
    pub fn edge(mut self, from: HandlerId, to: HandlerId) -> Self {
        if !self.edges.contains(&(from, to)) {
            self.edges.push((from, to));
            self.compiled = OnceLock::new();
        }
        self
    }

    /// The declared roots, in declaration order.
    pub fn roots(&self) -> &[HandlerId] {
        &self.roots
    }

    /// The declared `(from, to)` edges, in declaration order.
    pub fn edges(&self) -> &[(HandlerId, HandlerId)] {
        &self.edges
    }

    /// Build a pattern from handler *names* registered on a stack — the
    /// ergonomic form for hand-written declarations.
    ///
    /// # Panics
    ///
    /// Panics if a name is not registered (a misdeclared pattern is a
    /// programming error the runtime could only report later and worse).
    /// Use [`RoutePattern::try_from_names`] to get the failure as a value.
    pub fn from_names(
        stack: &crate::stack::Stack,
        roots: &[&str],
        edges: &[(&str, &str)],
    ) -> RoutePattern {
        RoutePattern::try_from_names(stack, roots, edges).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`RoutePattern::from_names`]: resolve handler names against
    /// the stack, reporting the first unknown name as
    /// [`SamoaError::UnknownHandlerName`](crate::error::SamoaError::UnknownHandlerName)
    /// instead of panicking — the right form when patterns come from
    /// configuration rather than source code.
    pub fn try_from_names(
        stack: &crate::stack::Stack,
        roots: &[&str],
        edges: &[(&str, &str)],
    ) -> crate::error::Result<RoutePattern> {
        let lookup = |name: &str| {
            stack.handler_by_name(name).ok_or_else(|| {
                crate::error::SamoaError::UnknownHandlerName {
                    name: name.to_string(),
                }
            })
        };
        let mut pat = RoutePattern::new();
        for r in roots {
            pat = pat.root(lookup(r)?);
        }
        for (a, b) in edges {
            pat = pat.edge(lookup(a)?, lookup(b)?);
        }
        Ok(pat)
    }

    /// All handlers mentioned by the pattern (roots and edge endpoints).
    pub fn vertices(&self) -> BTreeSet<HandlerId> {
        let mut v: BTreeSet<HandlerId> = self.roots.iter().copied().collect();
        for &(a, b) in &self.edges {
            v.insert(a);
            v.insert(b);
        }
        v
    }

    /// The compiled graph for this pattern under `protocol_of`, from the
    /// cache when possible. A cache hit is validated against `protocol_of`
    /// (the same pattern value may in principle be declared on two stacks
    /// with different handler→protocol maps); a mismatch rebuilds uncached.
    fn compile(&self, protocol_of: &dyn Fn(HandlerId) -> ProtocolId) -> Arc<RouteGraph> {
        if let Some(g) = self.compiled.get() {
            if g.handlers
                .iter()
                .enumerate()
                .all(|(i, &h)| g.protocol[i] == protocol_of(h))
            {
                return Arc::clone(g);
            }
            return Arc::new(RouteGraph::build(self, protocol_of));
        }
        let g = Arc::new(RouteGraph::build(self, protocol_of));
        let _ = self.compiled.set(Arc::clone(&g));
        g
    }
}

impl fmt::Debug for RoutePattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RoutePattern")
            .field("roots", &self.roots)
            .field("edges", &self.edges)
            .finish()
    }
}

/// A [`RoutePattern`] compiled against a stack's handler→protocol mapping.
///
/// Immutable and shared: built once per pattern, `Arc`-cloned into every
/// computation spawned from it. Reachability (`reach`) and the per-protocol
/// vertex masks (`proto_mask`) are bitsets of `words` × 64 bits, one row per
/// vertex / protocol, so the hot-path queries are word operations.
pub(crate) struct RouteGraph {
    /// Vertex handlers, sorted (vertex index = position here).
    handlers: Vec<HandlerId>,
    /// Owning protocol per vertex.
    protocol: Vec<ProtocolId>,
    /// Successor vertex indices per vertex (deduplicated).
    succ: Vec<Vec<usize>>,
    /// Bitset words per row.
    words: usize,
    /// Row `i`: vertices reachable from `i` via one or more edges (contains
    /// `i` itself only when a cycle leads back — the paper's rule that every
    /// call, including recursion, must be authorised by the pattern).
    reach: Vec<u64>,
    /// Vertex indices callable directly from the closure body.
    root_succ: Vec<usize>,
    /// Union over the roots of `{r} ∪ reach(r)` — everything the still-live
    /// closure body keeps reachable.
    root_cover: Vec<u64>,
    /// Distinct protocols covered by the pattern, in vertex order.
    protocols: Vec<ProtocolId>,
    /// Row `p`: the vertices owned by `protocols[p]`.
    proto_mask: Vec<u64>,
    /// Every protocol has a vertex inside `root_cover`. While the closure
    /// body is live and nothing has been removed, a release scan can then
    /// release nothing — the per-call scan exits without touching the
    /// bitsets at all. True for every pattern inferred from an event's call
    /// closure (all vertices are root-reachable by construction).
    root_covers_all: bool,
}

impl RouteGraph {
    fn build(pattern: &RoutePattern, protocol_of: &dyn Fn(HandlerId) -> ProtocolId) -> RouteGraph {
        let handlers: Vec<HandlerId> = pattern.vertices().into_iter().collect();
        let n = handlers.len();
        let index_of = |h: HandlerId| handlers.binary_search(&h).expect("vertex present");
        let protocol: Vec<ProtocolId> = handlers.iter().map(|&h| protocol_of(h)).collect();
        let mut succ: Vec<Vec<usize>> = vec![Vec::new(); n];
        for &(a, b) in &pattern.edges {
            let (ia, ib) = (index_of(a), index_of(b));
            if !succ[ia].contains(&ib) {
                succ[ia].push(ib);
            }
        }
        let root_succ: Vec<usize> = {
            let mut seen = BTreeSet::new();
            pattern
                .roots
                .iter()
                .map(|&h| index_of(h))
                .filter(|&i| seen.insert(i))
                .collect()
        };
        let mut protocols = Vec::new();
        for &p in &protocol {
            if !protocols.contains(&p) {
                protocols.push(p);
            }
        }
        let words = n.div_ceil(64).max(1);
        let mut reach = vec![0u64; n * words];
        let mut seen = vec![false; n];
        let mut stack = Vec::new();
        for i in 0..n {
            seen.iter_mut().for_each(|s| *s = false);
            stack.extend(succ[i].iter().copied());
            for &j in &succ[i] {
                seen[j] = true;
            }
            while let Some(j) = stack.pop() {
                reach[i * words + j / 64] |= 1 << (j % 64);
                for &k in &succ[j] {
                    if !seen[k] {
                        seen[k] = true;
                        stack.push(k);
                    }
                }
            }
        }
        let mut root_cover = vec![0u64; words];
        for &r in &root_succ {
            root_cover[r / 64] |= 1 << (r % 64);
            for w in 0..words {
                root_cover[w] |= reach[r * words + w];
            }
        }
        let mut proto_mask = vec![0u64; protocols.len() * words];
        for (i, p) in protocol.iter().enumerate() {
            let pi = protocols.iter().position(|q| q == p).expect("collected");
            proto_mask[pi * words + i / 64] |= 1 << (i % 64);
        }
        let root_covers_all = (0..protocols.len()).all(|pi| {
            proto_mask[pi * words..(pi + 1) * words]
                .iter()
                .zip(&root_cover)
                .any(|(m, r)| m & r != 0)
        });
        RouteGraph {
            handlers,
            protocol,
            succ,
            words,
            reach,
            root_succ,
            root_cover,
            protocols,
            proto_mask,
            root_covers_all,
        }
    }

    /// Is `to` reachable from `from` via ≥1 edges, ignoring removals?
    fn reach_bit(&self, from: usize, to: usize) -> bool {
        self.reach[from * self.words + to / 64] & (1 << (to % 64)) != 0
    }
}

/// Per-computation mutable routing state for `VCAroute`: mark counts and
/// removal bitsets over a shared [`RouteGraph`].
pub(crate) struct RouteState {
    g: Arc<RouteGraph>,
    /// Number of currently executing calls, per vertex.
    active: Vec<u32>,
    /// Number of issued-but-not-yet-executed asynchronous events, per vertex.
    pending: Vec<u32>,
    /// Bitset of vertices with `active + pending > 0`.
    marked: Vec<u64>,
    /// Bitset of vertices removed by early release (Rule 4(b)); removed
    /// vertices neither accept calls nor conduct reachability. Vertices are
    /// only ever removed in whole-protocol batches.
    removed: Vec<u64>,
    /// Released flag per protocol (parallel to the graph's `protocols`).
    released: Vec<bool>,
    /// Number of protocols released so far — the fast paths apply while 0.
    n_removed: usize,
    /// True while the `isolated` closure body is still running.
    root_active: bool,
}

/// Outcome of a route admission check.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum RouteCheck {
    /// Call admitted (and the target marked active/pending).
    Ok,
    /// Target handler is not a vertex of the pattern.
    NotInPattern,
    /// Target is a vertex but there is no route from the caller.
    NoRoute,
}

impl RouteState {
    /// Build the runtime state from a declared pattern.
    ///
    /// `protocol_of` maps each handler to its owning microprotocol.
    pub(crate) fn new(
        pattern: &RoutePattern,
        protocol_of: impl Fn(HandlerId) -> ProtocolId,
    ) -> Self {
        let g = pattern.compile(&protocol_of);
        let n = g.handlers.len();
        let words = g.words;
        let protos = g.protocols.len();
        RouteState {
            g,
            active: vec![0; n],
            pending: vec![0; n],
            marked: vec![0; words],
            removed: vec![0; words],
            released: vec![false; protos],
            n_removed: 0,
            root_active: true,
        }
    }

    /// Protocols covered by the pattern (the `M` of Rule 1).
    pub(crate) fn protocols(&self) -> &[ProtocolId] {
        &self.g.protocols
    }

    fn is_removed(&self, i: usize) -> bool {
        self.removed[i / 64] & (1 << (i % 64)) != 0
    }

    fn vertex(&self, h: HandlerId) -> Option<usize> {
        self.g
            .handlers
            .binary_search(&h)
            .ok()
            .filter(|&i| !self.is_removed(i))
    }

    /// Is there a live path from vertex `from` to vertex `to`?
    /// Reflexive: a handler may always call itself recursively? No — only if
    /// a self-edge (or cycle back) is declared, matching the paper's rule
    /// that the *pattern* authorises every call.
    fn has_path(&self, from: usize, to: usize) -> bool {
        if self.n_removed == 0 {
            // Nothing removed: the precomputed closure is exact.
            return self.g.reach_bit(from, to);
        }
        if self.is_removed(from) {
            return false;
        }
        // Removals present: paths through removed vertices do not conduct,
        // so walk the adjacency explicitly.
        let mut visited = vec![false; self.g.handlers.len()];
        let mut stack = vec![from];
        visited[from] = true;
        while let Some(i) = stack.pop() {
            for &j in &self.g.succ[i] {
                if self.is_removed(j) {
                    continue;
                }
                if j == to {
                    return true;
                }
                if !visited[j] {
                    visited[j] = true;
                    stack.push(j);
                }
            }
        }
        false
    }

    /// Admission check for a call of `to` made by `from` (`None` = the
    /// closure body). On success the target is marked: `sync` calls become
    /// active immediately; `async` issues become pending until
    /// [`Self::activate_pending`] runs.
    pub(crate) fn admit(
        &mut self,
        from: Option<HandlerId>,
        to: HandlerId,
        is_async: bool,
    ) -> RouteCheck {
        let Some(ti) = self.vertex(to) else {
            // Distinguish "never in pattern" from "removed": both are errors,
            // but removal of a still-needed vertex indicates a pattern bug,
            // so report the more precise NotInPattern either way.
            return RouteCheck::NotInPattern;
        };
        let admitted = match from {
            None => self.root_active && self.g.root_succ.contains(&ti),
            Some(f) => match self.vertex(f) {
                Some(fi) => self.has_path(fi, ti),
                None => false,
            },
        };
        if !admitted {
            return RouteCheck::NoRoute;
        }
        if is_async {
            self.pending[ti] += 1;
        } else {
            self.active[ti] += 1;
        }
        self.marked[ti / 64] |= 1 << (ti % 64);
        RouteCheck::Ok
    }

    fn vertex_any(&self, h: HandlerId, what: &str) -> usize {
        match self.g.handlers.binary_search(&h) {
            Ok(i) => i,
            Err(_) => panic!("{what} handler is a vertex"),
        }
    }

    /// Convert one pending mark into an active mark when an asynchronous
    /// event's handler starts executing.
    pub(crate) fn activate_pending(&mut self, h: HandlerId) {
        let i = self.vertex_any(h, "pending");
        debug_assert!(self.pending[i] > 0);
        self.pending[i] -= 1;
        self.active[i] += 1;
    }

    /// Mark a handler execution as finished (Rule 4(a)).
    pub(crate) fn deactivate(&mut self, h: HandlerId) {
        let i = self.vertex_any(h, "active");
        debug_assert!(self.active[i] > 0);
        self.active[i] -= 1;
        if self.active[i] == 0 && self.pending[i] == 0 {
            self.marked[i / 64] &= !(1 << (i % 64));
        }
    }

    /// Mark the closure body as returned; its direct-call privilege ends.
    pub(crate) fn finish_root(&mut self) {
        self.root_active = false;
    }

    /// Rule 4(b): find every protocol whose vertices are all inactive,
    /// non-pending and unreachable from any active/pending vertex (or the
    /// still-running closure body), remove those vertices, and return the
    /// protocols so the caller can upgrade their local versions.
    pub(crate) fn release_scan(&mut self) -> Vec<ProtocolId> {
        if self.root_active && self.n_removed == 0 && self.g.root_covers_all {
            // The live closure body keeps every protocol reachable: nothing
            // can release, so skip the scan entirely. This is the per-call
            // common case — handler calls nested inside a still-running
            // `isolated` body.
            return Vec::new();
        }
        let words = self.g.words;
        let mut reach = vec![0u64; words];
        if self.n_removed == 0 {
            // Nothing removed yet: union the precomputed covers of every
            // marked vertex (marked vertices are reachable from themselves).
            for (wi, &mw) in self.marked.iter().enumerate() {
                let mut m = mw;
                while m != 0 {
                    let i = wi * 64 + m.trailing_zeros() as usize;
                    m &= m - 1;
                    reach[i / 64] |= 1 << (i % 64);
                    for (w, r) in reach.iter_mut().enumerate() {
                        *r |= self.g.reach[i * words + w];
                    }
                }
            }
            if self.root_active {
                for (r, &c) in reach.iter_mut().zip(&self.g.root_cover) {
                    *r |= c;
                }
            }
        } else {
            // Removals present: walk the adjacency, skipping removed
            // vertices, exactly as the closure-free implementation did.
            let n = self.g.handlers.len();
            let mut stack: Vec<usize> = Vec::new();
            for i in 0..n {
                if !self.is_removed(i) && self.marked[i / 64] & (1 << (i % 64)) != 0 {
                    reach[i / 64] |= 1 << (i % 64);
                    stack.push(i);
                }
            }
            if self.root_active {
                for &i in &self.g.root_succ {
                    if !self.is_removed(i) && reach[i / 64] & (1 << (i % 64)) == 0 {
                        reach[i / 64] |= 1 << (i % 64);
                        stack.push(i);
                    }
                }
            }
            while let Some(i) = stack.pop() {
                for &j in &self.g.succ[i] {
                    if !self.is_removed(j) && reach[j / 64] & (1 << (j % 64)) == 0 {
                        reach[j / 64] |= 1 << (j % 64);
                        stack.push(j);
                    }
                }
            }
        }
        // A protocol releases when none of its vertices are reachable; live
        // marks imply reachability (they seed the scan), so the mask test
        // subsumes the active/pending check.
        let mut out = Vec::new();
        for pi in 0..self.g.protocols.len() {
            if self.released[pi] {
                continue;
            }
            let mask = &self.g.proto_mask[pi * words..(pi + 1) * words];
            if mask.iter().zip(&reach).all(|(m, r)| m & r == 0) {
                self.released[pi] = true;
                self.n_removed += 1;
                for (rw, &mw) in self.removed.iter_mut().zip(mask) {
                    *rw |= mw;
                }
                out.push(self.g.protocols[pi]);
            }
        }
        out
    }

    /// Protocols whose vertices have *not* been removed yet — these are the
    /// ones Rule 3 must still upgrade at completion.
    pub(crate) fn unreleased_protocols(&self) -> Vec<ProtocolId> {
        self.g
            .protocols
            .iter()
            .enumerate()
            .filter(|&(pi, _)| !self.released[pi])
            .map(|(_, &p)| p)
            .collect()
    }
}

impl fmt::Debug for RouteState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let verts: Vec<String> = self
            .g
            .handlers
            .iter()
            .enumerate()
            .map(|(i, h)| {
                format!(
                    "{h:?}: active {} pending {}{}",
                    self.active[i],
                    self.pending[i],
                    if self.is_removed(i) { " removed" } else { "" }
                )
            })
            .collect();
        f.debug_struct("RouteState")
            .field("vertices", &verts)
            .field("root_active", &self.root_active)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h(i: u32) -> HandlerId {
        HandlerId(i)
    }
    fn p(i: u32) -> ProtocolId {
        ProtocolId(i)
    }

    /// A chain 0 -> 1 -> 2 with one protocol per handler.
    fn chain() -> RouteState {
        let pat = RoutePattern::new()
            .root(h(0))
            .edge(h(0), h(1))
            .edge(h(1), h(2));
        RouteState::new(&pat, |hid| p(hid.0))
    }

    #[test]
    fn protocols_collected_in_order() {
        let s = chain();
        assert_eq!(s.protocols(), &[p(0), p(1), p(2)]);
    }

    #[test]
    fn root_can_call_declared_root_only() {
        let mut s = chain();
        assert_eq!(s.admit(None, h(0), false), RouteCheck::Ok);
        assert_eq!(s.admit(None, h(1), false), RouteCheck::NoRoute);
        assert_eq!(s.admit(None, h(9), false), RouteCheck::NotInPattern);
    }

    #[test]
    fn path_not_just_edge_is_accepted() {
        let mut s = chain();
        // 0 -> 2 has a path through 1 even though there is no direct edge.
        assert_eq!(s.admit(Some(h(0)), h(2), false), RouteCheck::Ok);
    }

    #[test]
    fn reverse_direction_rejected() {
        let mut s = chain();
        assert_eq!(s.admit(Some(h(2)), h(0), false), RouteCheck::NoRoute);
    }

    #[test]
    fn self_call_needs_cycle() {
        let mut s = chain();
        assert_eq!(s.admit(Some(h(1)), h(1), false), RouteCheck::NoRoute);
        let pat = RoutePattern::new().root(h(0)).edge(h(0), h(0));
        let mut s2 = RouteState::new(&pat, |_| p(0));
        assert_eq!(s2.admit(Some(h(0)), h(0), false), RouteCheck::Ok);
    }

    #[test]
    fn release_scan_frees_tail_after_handler_moves_on() {
        let mut s = chain();
        // While root is active everything is reachable: nothing released.
        assert!(s.release_scan().is_empty());
        // Root calls h0; root body returns.
        assert_eq!(s.admit(None, h(0), false), RouteCheck::Ok);
        s.finish_root();
        // h0 active: 1 and 2 reachable from it; nothing released.
        assert!(s.release_scan().is_empty());
        // h0 calls h1 (sync) and finishes itself afterwards.
        assert_eq!(s.admit(Some(h(0)), h(1), false), RouteCheck::Ok);
        s.deactivate(h(1)); // inner call returns first
        s.deactivate(h(0));
        // Now only protocol 0's vertex h0 is inactive and unreachable; h1/h2
        // are unreachable too since nothing is active.
        let mut released = s.release_scan();
        released.sort();
        assert_eq!(released, vec![p(0), p(1), p(2)]);
        assert!(s.unreleased_protocols().is_empty());
    }

    #[test]
    fn active_handler_retains_its_successors() {
        let mut s = chain();
        assert_eq!(s.admit(None, h(0), false), RouteCheck::Ok);
        s.finish_root();
        // h0 running: nothing can be released, including h0's own protocol.
        assert!(s.release_scan().is_empty());
        s.deactivate(h(0));
        let released = s.release_scan();
        assert_eq!(released.len(), 3);
    }

    #[test]
    fn early_release_of_head_while_tail_runs() {
        let mut s = chain();
        assert_eq!(s.admit(None, h(0), false), RouteCheck::Ok);
        s.finish_root();
        assert_eq!(s.admit(Some(h(0)), h(1), false), RouteCheck::Ok);
        s.deactivate(h(0)); // h0 done, h1 still running
        let released = s.release_scan();
        // h0 unreachable from active h1 (edges point forward): released.
        assert_eq!(released, vec![p(0)]);
        // h1's own protocol and h2 (reachable from h1) stay.
        assert_eq!(s.unreleased_protocols(), vec![p(1), p(2)]);
        // A later call back into h0 must now fail.
        assert_eq!(s.admit(Some(h(1)), h(0), false), RouteCheck::NotInPattern);
    }

    #[test]
    fn pending_async_blocks_release() {
        let mut s = chain();
        assert_eq!(s.admit(None, h(0), false), RouteCheck::Ok);
        s.finish_root();
        // h0 issues an async event to h2, then completes.
        assert_eq!(s.admit(Some(h(0)), h(2), true), RouteCheck::Ok);
        s.deactivate(h(0));
        let released = s.release_scan();
        // h2 pending: protocol 2 retained; 0 and 1 unreachable -> released.
        let mut r = released;
        r.sort();
        assert_eq!(r, vec![p(0), p(1)]);
        // Async event now executes.
        s.activate_pending(h(2));
        assert!(s.release_scan().is_empty());
        s.deactivate(h(2));
        assert_eq!(s.release_scan(), vec![p(2)]);
    }

    #[test]
    fn cycle_prevents_release_until_all_inactive() {
        // 0 <-> 1 cycle, one protocol each.
        let pat = RoutePattern::new()
            .root(h(0))
            .edge(h(0), h(1))
            .edge(h(1), h(0));
        let mut s = RouteState::new(&pat, |hid| p(hid.0));
        assert_eq!(s.admit(None, h(0), false), RouteCheck::Ok);
        s.finish_root();
        // h0 active keeps h1 reachable, and h1 keeps h0 reachable.
        assert!(s.release_scan().is_empty());
        s.deactivate(h(0));
        let mut r = s.release_scan();
        r.sort();
        assert_eq!(r, vec![p(0), p(1)]);
    }

    #[test]
    fn duplicate_edges_and_roots_deduplicated() {
        let pat = RoutePattern::new()
            .root(h(0))
            .root(h(0))
            .edge(h(0), h(1))
            .edge(h(0), h(1));
        // Deduplicated already in the pattern itself...
        assert_eq!(pat.roots.len(), 1);
        assert_eq!(pat.edges.len(), 1);
        // ...and (defensively) in the compiled graph built from it.
        let s = RouteState::new(&pat, |hid| p(hid.0));
        assert_eq!(s.g.root_succ.len(), 1);
        assert_eq!(s.g.succ[0].len(), 1);
    }

    #[test]
    fn compiled_graph_is_cached_and_shared() {
        let pat = RoutePattern::new()
            .root(h(0))
            .edge(h(0), h(1))
            .edge(h(1), h(2));
        let a = RouteState::new(&pat, |hid| p(hid.0));
        let b = RouteState::new(&pat, |hid| p(hid.0));
        assert!(Arc::ptr_eq(&a.g, &b.g), "second spawn reuses the graph");
        // A different handler→protocol map must not hit the stale cache.
        let c = RouteState::new(&pat, |_| p(7));
        assert!(!Arc::ptr_eq(&a.g, &c.g));
        assert_eq!(c.protocols(), &[p(7)]);
        // Extending the pattern invalidates the cache.
        let pat2 = pat.clone().edge(h(2), h(3));
        let d = RouteState::new(&pat2, |hid| p(hid.0));
        assert_eq!(d.protocols(), &[p(0), p(1), p(2), p(3)]);
    }

    #[test]
    fn admission_after_release_matches_dfs_semantics() {
        // 0 -> 1 -> 2 and 0 -> 3; after protocol 1 is released, the static
        // closure (0 reaches 2 through 1) must not admit 0 -> 2.
        let pat = RoutePattern::new()
            .root(h(0))
            .edge(h(0), h(1))
            .edge(h(1), h(2))
            .edge(h(0), h(3));
        let mut s = RouteState::new(&pat, |hid| p(hid.0));
        assert_eq!(s.admit(None, h(0), false), RouteCheck::Ok);
        s.finish_root();
        assert_eq!(s.admit(Some(h(0)), h(3), false), RouteCheck::Ok);
        s.deactivate(h(3));
        // h0 still active: everything it reaches stays; nothing released.
        assert!(s.release_scan().is_empty());
        assert_eq!(s.admit(Some(h(0)), h(1), false), RouteCheck::Ok);
        s.deactivate(h(1));
        s.deactivate(h(0));
        // Only h3's protocol had its last chance pass? No: nothing is
        // active, so every protocol releases at once.
        let mut r = s.release_scan();
        r.sort();
        assert_eq!(r, vec![p(0), p(1), p(2), p(3)]);
        assert_eq!(s.admit(Some(h(0)), h(2), false), RouteCheck::NotInPattern);
    }

    #[test]
    fn removed_vertices_do_not_conduct_paths() {
        // Diamond with a cycle keeping the far side alive: 0 -> 1 -> 2,
        // 0 -> 3, 3 -> 3 (self-cycle so 3 stays admissible while active).
        let pat = RoutePattern::new()
            .root(h(0))
            .root(h(3))
            .edge(h(0), h(1))
            .edge(h(1), h(2))
            .edge(h(3), h(3));
        let mut s = RouteState::new(&pat, |hid| p(hid.0));
        assert_eq!(s.admit(None, h(3), false), RouteCheck::Ok);
        s.finish_root();
        // Chain 0/1/2 unreachable from active h3: released in one sweep.
        let mut r = s.release_scan();
        r.sort();
        assert_eq!(r, vec![p(0), p(1), p(2)]);
        // The DFS fallback now governs: h3's self-cycle still admits...
        assert_eq!(s.admit(Some(h(3)), h(3), false), RouteCheck::Ok);
        // ...but removed vertices are gone for good.
        assert_eq!(s.admit(Some(h(3)), h(1), false), RouteCheck::NotInPattern);
        assert_eq!(s.unreleased_protocols(), vec![p(3)]);
    }

    #[test]
    fn try_from_names_reports_unknown_name() {
        use crate::error::SamoaError;
        use crate::stack::StackBuilder;

        let mut b = StackBuilder::new();
        let pr = b.protocol("P");
        let e = b.event("E");
        b.bind(e, pr, "known", |_, _| Ok(()));
        let stack = b.build();

        let ok = RoutePattern::try_from_names(&stack, &["known"], &[("known", "known")]);
        assert!(ok.is_ok());

        let err = RoutePattern::try_from_names(&stack, &["known"], &[("known", "ghost")]);
        assert_eq!(
            err.unwrap_err(),
            SamoaError::UnknownHandlerName {
                name: "ghost".to_string()
            }
        );
    }
}

//! The registry delta feed: fault-tolerant external model ingestion.
//!
//! The ROADMAP's production shape has registry mutations arriving from
//! an *external* watch stream (the etcd-watch parameter-storage shape
//! of the "incremental epoch deltas" item), not from in-process
//! closures. [`RegistryFeed`] is that consumer: it pulls
//! sequence-numbered [`RegistryDelta`]s from a [`DeltaStream`] and
//! applies each one as a tracked registry commit, like
//! [`ModelRegistry::update_dirty`](crate::ModelRegistry::update_dirty).
//! The delta is validated inside that commit, against the very model it
//! mutates, under the registry's write lock: a delta that fails leaves
//! the model untouched, and no other writer can slip in between the
//! check and the write. Every applied delta both bumps the host's epoch
//! *and* records its dirty-node set for
//! [`ModelRegistry::dirty_between`](crate::ModelRegistry::dirty_between)
//! (which the
//! [`FilterCache`](crate::cache::FilterCache)'s epoch-promotion path
//! consumes).
//!
//! ## Fault tolerance
//!
//! Real watch streams drop, duplicate, reorder and corrupt. The feed's
//! contract is that none of that can corrupt the registry — only delay
//! it:
//!
//! * **duplicates / stale sequences** (`next_seq ≤` cursor) are
//!   idempotently dropped;
//! * **out-of-order deltas** park in a bounded reorder buffer keyed by
//!   `base_seq`; the moment the missing predecessor applies, the parked
//!   chain drains in order;
//! * **gaps** — a parked chain whose predecessor never arrives within
//!   [`FeedConfig::gap_patience`] pumps, a reorder-buffer overflow, an
//!   overlapping sequence range, or a delta that fails validation
//!   against the model it would mutate — trigger a **resync**: a full
//!   snapshot is re-fetched through the [`SnapshotSource`], the cursor
//!   jumps to the snapshot's sequence, and superseded parked deltas are
//!   discarded.
//!   Failed fetches retry with exponential backoff plus deterministic
//!   jitter ([`RegistryFeed::next_retry_in`] — the feed never sleeps
//!   itself); once [`FeedConfig::resync_attempts`] fetches in a row
//!   fail the feed surfaces [`FeedState::Stalled`] (it still retries on
//!   every later pump, so a recovered source brings it back).
//!
//! The driver is deliberately **pull-based and single-owner**:
//! [`RegistryFeed::pump`] takes `&mut self`, drains whatever the
//! stream has buffered, and returns the resulting [`FeedState`].
//! Callers own the cadence (a loop with sleeps, a test harness with
//! none); the service only sees the side effects — registry mutations
//! and the [`FeedStatus`] health block that
//! [`NetEmbedService::feed_status`] exposes and the staleness gate
//! reads (see the crate docs' "Staleness and degradation").
//!
//! ## Ledger discipline
//!
//! Like the admission ledgers, feed accounting balances exactly: every
//! received delta ends in exactly one bucket, so
//! `received == applied + duplicates + discarded + rejected + parked`
//! holds at every pump boundary ([`FeedTelemetry::balanced`]).
//! `reordered` is informational (the subset of parked-then-applied
//! deltas) and deliberately outside the identity.

use crate::registry::DirtySet;
use crate::reservation::shift;
use crate::NetEmbedService;
use netgraph::{AttrValue, Network, NodeId};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::time::Duration;

/// Consumer side of a registry mutation stream. Pull-based so it is
/// trivially backed by a channel, a replay log, a scripted test vector
/// (`VecDeque<RegistryDelta>` implements it) or a real watcher.
/// `next_delta` returns `None` when nothing is available *right now*;
/// the feed simply tries again on the next pump.
pub trait DeltaStream {
    /// The next delta, if one is available.
    fn next_delta(&mut self) -> Option<RegistryDelta>;
}

impl DeltaStream for std::collections::VecDeque<RegistryDelta> {
    fn next_delta(&mut self) -> Option<RegistryDelta> {
        self.pop_front()
    }
}

impl DeltaStream for std::sync::mpsc::Receiver<RegistryDelta> {
    fn next_delta(&mut self) -> Option<RegistryDelta> {
        self.try_recv().ok()
    }
}

/// Full-state recovery source for resyncs. `fetch` returns `None` on a
/// failed attempt (the feed retries with backoff); a closure
/// `FnMut() -> Option<FeedSnapshot>` implements it directly.
pub trait SnapshotSource {
    /// One snapshot fetch attempt.
    fn fetch(&mut self) -> Option<FeedSnapshot>;
}

impl<F: FnMut() -> Option<FeedSnapshot>> SnapshotSource for F {
    fn fetch(&mut self) -> Option<FeedSnapshot> {
        (self)()
    }
}

/// A full registry snapshot, current as of stream sequence `seq`:
/// applying it is equivalent to having applied every delta with
/// `next_seq ≤ seq`.
#[derive(Debug, Clone)]
pub struct FeedSnapshot {
    /// The stream position this snapshot captures.
    pub seq: u64,
    /// Wholesale replacement models, applied via
    /// [`ModelRegistry::register`](crate::ModelRegistry::register)
    /// (which deliberately breaks the dirty-history chain — a snapshot
    /// swap has no per-node delta).
    pub models: Vec<(String, Network)>,
}

/// One sequence-numbered mutation of one host model. `base_seq` /
/// `next_seq` are the stream positions before/after this delta; the
/// feed applies it only when its cursor is exactly `base_seq`.
/// `dirty` is the producer's claim of every host node the mutation
/// touches (mutated nodes plus both endpoints of mutated edges); the
/// feed re-derives the touched set during validation and rejects a
/// delta whose claim does not cover it — an under-reported dirty set
/// would silently break the cache-promotion soundness argument.
#[derive(Debug, Clone, PartialEq)]
pub struct RegistryDelta {
    /// Registry model name the mutation targets.
    pub host: String,
    /// Stream position this delta applies on top of.
    pub base_seq: u64,
    /// Stream position after this delta (`> base_seq`).
    pub next_seq: u64,
    /// The structured mutation.
    pub mutation: DeltaMutation,
    /// Producer-declared dirty-node set, recorded per epoch transition.
    pub dirty: DirtySet,
}

/// The structured mutations a delta can carry — the same vocabulary the
/// in-process mutators use: attribute writes, reservation adjustments
/// and topology growth. Node references are raw ids into the host
/// model's dense id space.
///
/// The model substrate is an append-only arena (no node/edge removal
/// exists in `netgraph`), so a monitor flap or a removal is an
/// attribute write: [`DeltaMutation::SetNodeAttr`] /
/// [`DeltaMutation::SetEdgeAttr`] of
/// [`UP_ATTR`](crate::monitor::UP_ATTR), `false` being the **logical
/// tombstone** that the monitor simulator flaps and §VI-B constraints
/// filter on.
#[derive(Debug, Clone, PartialEq)]
pub enum DeltaMutation {
    /// Set one node attribute.
    SetNodeAttr {
        /// Target node id.
        node: u32,
        /// Attribute name.
        attr: String,
        /// New value.
        value: AttrValue,
    },
    /// Set one edge attribute (the edge must exist).
    SetEdgeAttr {
        /// Edge source node id.
        src: u32,
        /// Edge destination node id.
        dst: u32,
        /// Attribute name.
        attr: String,
        /// New value.
        value: AttrValue,
    },
    /// A reservation commit: subtract each amount from the named
    /// numeric node attribute (capacity deduction). Unchecked: the
    /// producer already decided the reservation fits.
    ReservationCommit {
        /// `(node id, attribute, amount)` deductions.
        deductions: Vec<(u32, String, f64)>,
    },
    /// A reservation release: add each amount back.
    ReservationRelease {
        /// `(node id, attribute, amount)` restores.
        restores: Vec<(u32, String, f64)>,
    },
    /// Append a node (its id is the model's current node count; the
    /// dirty set must name that id).
    AddNode {
        /// Unique node name.
        name: String,
    },
    /// Append an edge between two existing nodes (no parallel edges).
    AddEdge {
        /// Source node id.
        src: u32,
        /// Destination node id.
        dst: u32,
    },
}

impl DeltaMutation {
    /// The host nodes this mutation touches — what the delta's declared
    /// dirty set must cover. `AddNode` touches the id the new node will
    /// get (`node_count` at apply time), which is why the model is an
    /// input.
    fn touched(&self, model: &Network) -> Vec<u32> {
        match self {
            DeltaMutation::SetNodeAttr { node, .. } => vec![*node],
            DeltaMutation::SetEdgeAttr { src, dst, .. } | DeltaMutation::AddEdge { src, dst } => {
                vec![*src, *dst]
            }
            DeltaMutation::ReservationCommit { deductions: terms }
            | DeltaMutation::ReservationRelease { restores: terms } => {
                terms.iter().map(|(n, _, _)| *n).collect()
            }
            DeltaMutation::AddNode { .. } => vec![model.node_count() as u32],
        }
    }
}

/// Why a delta failed validation against the model it would mutate.
/// Any of these, or an unknown host, marks the stream corrupt and
/// triggers a resync (counted under [`FeedTelemetry::rejected`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DeltaFault {
    UnknownNode,
    UnknownEdge,
    DuplicateNode,
    DuplicateEdge,
    NotNumeric,
    DirtyUndeclared,
}

/// Validate `delta` against `model`, the model it is about to mutate
/// (inside the commit, under the registry's write lock): every
/// referenced element must exist (or, for adds, must not), reservation
/// targets must be numeric, and the declared dirty set must cover the
/// derived touched set.
fn validate(model: &Network, delta: &RegistryDelta) -> Result<(), DeltaFault> {
    let n = model.node_count() as u32;
    let node_ok = |id: u32| {
        if id < n {
            Ok(())
        } else {
            Err(DeltaFault::UnknownNode)
        }
    };
    let edge_ok = |src: u32, dst: u32| {
        node_ok(src)?;
        node_ok(dst)?;
        model
            .find_edge(NodeId(src), NodeId(dst))
            .map(|_| ())
            .ok_or(DeltaFault::UnknownEdge)
    };
    match &delta.mutation {
        DeltaMutation::SetNodeAttr { node, .. } => node_ok(*node)?,
        DeltaMutation::SetEdgeAttr { src, dst, .. } => edge_ok(*src, *dst)?,
        DeltaMutation::ReservationCommit { deductions: adj }
        | DeltaMutation::ReservationRelease { restores: adj } => {
            for (node, attr, _) in adj {
                node_ok(*node)?;
                match model.node_attr_by_name(NodeId(*node), attr) {
                    Some(AttrValue::Num(_)) => {}
                    _ => return Err(DeltaFault::NotNumeric),
                }
            }
        }
        DeltaMutation::AddNode { name } => {
            if model.node_by_name(name).is_some() {
                return Err(DeltaFault::DuplicateNode);
            }
        }
        DeltaMutation::AddEdge { src, dst } => match edge_ok(*src, *dst) {
            Ok(()) => return Err(DeltaFault::DuplicateEdge),
            Err(DeltaFault::UnknownEdge) => {}
            unknown_node => return unknown_node,
        },
    }
    for id in delta.mutation.touched(model) {
        if !delta.dirty.contains(id) {
            return Err(DeltaFault::DirtyUndeclared);
        }
    }
    Ok(())
}

/// Apply a validated mutation to the model copy inside the commit.
fn apply_mutation(net: &mut Network, mutation: &DeltaMutation) {
    match mutation {
        DeltaMutation::SetNodeAttr { node, attr, value } => {
            net.set_node_attr(NodeId(*node), attr, value.clone());
        }
        DeltaMutation::SetEdgeAttr {
            src,
            dst,
            attr,
            value,
        } => {
            let e = net
                .find_edge(NodeId(*src), NodeId(*dst))
                .expect("validated edge");
            net.set_edge_attr(e, attr, value.clone());
        }
        DeltaMutation::ReservationCommit { deductions } => shift(net, deductions, -1.0),
        DeltaMutation::ReservationRelease { restores } => shift(net, restores, 1.0),
        DeltaMutation::AddNode { name } => {
            net.add_node(name.clone());
        }
        DeltaMutation::AddEdge { src, dst } => {
            net.add_edge(NodeId(*src), NodeId(*dst));
        }
    }
}

/// Feed health, coarse. Degradation is monotone left to right; the
/// staleness gate treats anything but `Live` as degraded.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[repr(u8)]
pub enum FeedState {
    /// Cursor is at the stream frontier; nothing parked, no resync.
    #[default]
    Live = 0,
    /// Out-of-order deltas are parked; waiting (within patience) for
    /// the missing predecessor before declaring a gap.
    CatchingUp = 1,
    /// A gap / overflow / validation fault was declared; snapshot
    /// re-fetch is in progress (one attempt per pump, backoff between).
    Resyncing = 2,
    /// The resync attempt budget ran out. The feed still retries once
    /// per pump, but the staleness policy should assume the model is
    /// arbitrarily old.
    Stalled = 3,
}

impl FeedState {
    fn from_u8(raw: u8) -> FeedState {
        match raw {
            1 => FeedState::CatchingUp,
            2 => FeedState::Resyncing,
            3 => FeedState::Stalled,
            _ => FeedState::Live,
        }
    }
}

impl std::fmt::Display for FeedState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            FeedState::Live => "live",
            FeedState::CatchingUp => "catching-up",
            FeedState::Resyncing => "resyncing",
            FeedState::Stalled => "stalled",
        })
    }
}

/// Shared feed-health block, owned by the service
/// ([`NetEmbedService::feed_status`]) so the request path (the
/// staleness gate, response stamping) reads it without any reference
/// to the feed itself. All atomics; a service with no feed attached
/// reads as `Live` with zero lag, which disables the gate.
#[derive(Debug, Default)]
pub struct FeedStatus {
    state: AtomicU8,
    received: AtomicU64,
    applied: AtomicU64,
    duplicates: AtomicU64,
    reordered: AtomicU64,
    discarded: AtomicU64,
    rejected: AtomicU64,
    parked: AtomicU64,
    gap_resyncs: AtomicU64,
    resync_attempts: AtomicU64,
    last_applied_seq: AtomicU64,
    lag: AtomicU64,
}

impl FeedStatus {
    /// Current coarse feed state.
    pub fn state(&self) -> FeedState {
        FeedState::from_u8(self.state.load(Ordering::Relaxed))
    }

    /// Current staleness lag in stream sequence units: the highest
    /// `next_seq` ever observed minus the cursor. Zero while live.
    pub fn lag(&self) -> u64 {
        self.lag.load(Ordering::Relaxed)
    }

    /// Point-in-time copy of every counter.
    pub fn snapshot(&self) -> FeedTelemetry {
        FeedTelemetry {
            state: self.state(),
            received: self.received.load(Ordering::Relaxed),
            applied: self.applied.load(Ordering::Relaxed),
            duplicates: self.duplicates.load(Ordering::Relaxed),
            reordered: self.reordered.load(Ordering::Relaxed),
            discarded: self.discarded.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            parked: self.parked.load(Ordering::Relaxed),
            gap_resyncs: self.gap_resyncs.load(Ordering::Relaxed),
            resync_attempts: self.resync_attempts.load(Ordering::Relaxed),
            last_applied_seq: self.last_applied_seq.load(Ordering::Relaxed),
            lag: self.lag(),
        }
    }

    fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// One snapshot of the feed-health counters (the `feed` block of
/// [`ServiceTelemetry`](crate::ServiceTelemetry)). See the module docs
/// for the balance identity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FeedTelemetry {
    /// Coarse feed state.
    pub state: FeedState,
    /// Deltas ever pulled off the stream.
    pub received: u64,
    /// Deltas applied to the registry (each one bumped an epoch and
    /// recorded a dirty transition).
    pub applied: u64,
    /// Duplicate / stale-sequence deltas idempotently dropped.
    pub duplicates: u64,
    /// Applied deltas that arrived out of order and waited in the
    /// reorder buffer first (informational subset of `applied`).
    pub reordered: u64,
    /// Deltas discarded unapplied: superseded by a resync snapshot, or
    /// overflowing the reorder buffer.
    pub discarded: u64,
    /// Deltas that failed validation against the model they target
    /// (each one triggered a resync).
    pub rejected: u64,
    /// Out-of-order deltas parked right now (gauge).
    pub parked: u64,
    /// Resync episodes ever declared (gap, overflow or validation
    /// fault).
    pub gap_resyncs: u64,
    /// Snapshot fetch attempts across all resync episodes (≥
    /// `gap_resyncs`; the excess is retries).
    pub resync_attempts: u64,
    /// Stream position of the last applied delta or snapshot.
    pub last_applied_seq: u64,
    /// Staleness lag gauge (see [`FeedStatus::lag`]).
    pub lag: u64,
}

impl FeedTelemetry {
    /// The feed ledger identity (module docs): every received delta is
    /// in exactly one of the four terminal buckets or still parked.
    pub fn balanced(&self) -> bool {
        self.received
            == self.applied + self.duplicates + self.discarded + self.rejected + self.parked
    }
}

/// Tuning knobs of one [`RegistryFeed`].
#[derive(Debug, Clone, Copy)]
pub struct FeedConfig {
    /// Out-of-order deltas held while waiting for a gap to fill; one
    /// more forces a resync. Default 32.
    pub reorder_buffer: usize,
    /// Pumps a non-empty reorder buffer may wait without progress
    /// before the gap is declared lost. Default 2.
    pub gap_patience: u32,
    /// Consecutive failed snapshot fetches before the feed reports
    /// [`FeedState::Stalled`]. Default 5.
    pub resync_attempts: u32,
    /// First retry backoff; doubles per consecutive failure. Default
    /// 50 ms.
    pub backoff_base: Duration,
    /// Backoff ceiling. Default 5 s.
    pub backoff_cap: Duration,
    /// Seed of the deterministic jitter mixed into each backoff (same
    /// seed + attempt number → same jitter, so recovery schedules are
    /// reproducible in tests and staggered across replicas in
    /// production by seeding differently).
    pub jitter_seed: u64,
}

impl Default for FeedConfig {
    fn default() -> Self {
        FeedConfig {
            reorder_buffer: 32,
            gap_patience: 2,
            resync_attempts: 5,
            backoff_base: Duration::from_millis(50),
            backoff_cap: Duration::from_secs(5),
            jitter_seed: 0,
        }
    }
}

/// SplitMix64 — the deterministic jitter generator (no external RNG
/// dependency; same constant the chaos harness mixes seeds with).
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The delta-feed driver. Single-owner (`&mut self`); see the module
/// docs for the fault model and [`RegistryFeed::pump`] for the cycle
/// semantics.
pub struct RegistryFeed<S, R> {
    stream: S,
    snapshots: R,
    config: FeedConfig,
    /// Next expected stream position (`base_seq` of the next in-order
    /// delta).
    cursor: u64,
    /// Highest `next_seq` observed on any received delta — the far end
    /// of the staleness-lag gauge.
    frontier: u64,
    /// Out-of-order deltas keyed by `base_seq`.
    parked: BTreeMap<u64, RegistryDelta>,
    /// Consecutive pumps the parked buffer waited without progress.
    patience_spent: u32,
    /// Consecutive failed snapshot fetches in the current episode.
    attempts: u32,
    resyncing: bool,
    stalled: bool,
    /// Backoff the caller should honor before the next pump, when the
    /// last fetch failed.
    next_backoff: Option<Duration>,
}

impl<S: DeltaStream, R: SnapshotSource> RegistryFeed<S, R> {
    /// A feed starting at stream position 0 (the first expected delta
    /// has `base_seq == 0`; start elsewhere by resyncing or via a
    /// first delta that forces one).
    pub fn new(stream: S, snapshots: R, config: FeedConfig) -> Self {
        RegistryFeed {
            stream,
            snapshots,
            config,
            cursor: 0,
            frontier: 0,
            parked: BTreeMap::new(),
            patience_spent: 0,
            attempts: 0,
            resyncing: false,
            stalled: false,
            next_backoff: None,
        }
    }

    /// Next expected stream position.
    pub fn cursor(&self) -> u64 {
        self.cursor
    }

    /// The underlying delta stream — for drivers whose stream type is
    /// also the producer handle (e.g. a scripted `VecDeque` in tests
    /// or a demo harness).
    pub fn stream(&mut self) -> &mut S {
        &mut self.stream
    }

    /// How long the caller should wait before the next [`pump`]
    /// (exponential backoff + deterministic jitter), when the last
    /// snapshot fetch failed. The feed never sleeps itself.
    ///
    /// [`pump`]: RegistryFeed::pump
    pub fn next_retry_in(&self) -> Option<Duration> {
        self.next_backoff
    }

    /// One feed cycle: drain everything the stream has buffered (apply
    /// / drop / park per the module-docs fault model), account gap
    /// patience, run at most one snapshot fetch if a resync is due,
    /// then publish state + lag to `svc`'s [`FeedStatus`] and return
    /// the state.
    pub fn pump(&mut self, svc: &NetEmbedService) -> FeedState {
        let status = svc.feed_status();
        let mut progressed = false;
        let mut resync_due = self.resyncing || self.stalled;
        while let Some(delta) = self.stream.next_delta() {
            FeedStatus::bump(&status.received);
            self.frontier = self.frontier.max(delta.next_seq);
            if delta.next_seq <= self.cursor || delta.base_seq < self.cursor {
                // Fully behind the cursor: an idempotent re-delivery.
                // Partially behind (`base < cursor < next`): a range
                // that overlaps state we already hold — either way,
                // applying it again would double-apply a mutation.
                FeedStatus::bump(&status.duplicates);
                continue;
            }
            if delta.base_seq == self.cursor {
                progressed |= self.apply_in_order(svc, delta, &mut resync_due);
                continue;
            }
            // Out of order: park, unless the buffer is full (gap too
            // wide to bridge — resync) or the slot is already held
            // (re-delivered out-of-order duplicate).
            if self.parked.contains_key(&delta.base_seq) {
                FeedStatus::bump(&status.duplicates);
            } else if self.parked.len() >= self.config.reorder_buffer {
                FeedStatus::bump(&status.discarded);
                resync_due = true;
            } else {
                FeedStatus::bump(&status.reordered);
                self.parked.insert(delta.base_seq, delta);
            }
        }
        if progressed {
            self.patience_spent = 0;
        } else if !self.parked.is_empty() && !resync_due {
            // A gap is open and this pump brought no progress: spend
            // patience; past the budget the gap is declared lost.
            self.patience_spent += 1;
            if self.patience_spent > self.config.gap_patience {
                resync_due = true;
            }
        }
        if resync_due {
            self.resync(svc);
        }
        self.publish(status)
    }

    /// Apply an in-order delta, then drain the parked chain behind it.
    /// A validation fault flags a resync and stops the chain.
    fn apply_in_order(
        &mut self,
        svc: &NetEmbedService,
        delta: RegistryDelta,
        resync_due: &mut bool,
    ) -> bool {
        let status = svc.feed_status();
        let mut progressed = false;
        let mut next = Some(delta);
        while let Some(delta) = next {
            if !self.apply_one(svc, &delta) {
                FeedStatus::bump(&status.rejected);
                *resync_due = true;
                break;
            }
            FeedStatus::bump(&status.applied);
            status
                .last_applied_seq
                .store(self.cursor, Ordering::Relaxed);
            progressed = true;
            next = self.parked.remove(&self.cursor);
        }
        progressed
    }

    /// Validate + apply one delta whose `base_seq` equals the cursor,
    /// in one commit; `true` advanced the cursor to its `next_seq`.
    fn apply_one(&mut self, svc: &NetEmbedService, delta: &RegistryDelta) -> bool {
        let committed = svc
            .registry()
            .commit(&delta.host, Some(delta.dirty.clone()), |net| {
                validate(net, delta)?;
                apply_mutation(net, &delta.mutation);
                Ok::<_, DeltaFault>(())
            });
        if !matches!(committed, Some(Ok(_))) {
            return false;
        }
        self.cursor = delta.next_seq;
        true
    }

    /// One snapshot fetch attempt (a new episode bumps `gap_resyncs`
    /// first). Success re-registers every snapshot model, jumps the
    /// cursor, discards superseded parked deltas and drains whatever
    /// parked chain is now in order; failure computes the next backoff
    /// and, past the attempt budget, marks the feed stalled.
    fn resync(&mut self, svc: &NetEmbedService) {
        let status = svc.feed_status();
        if !self.resyncing && !self.stalled {
            FeedStatus::bump(&status.gap_resyncs);
        }
        self.resyncing = true;
        FeedStatus::bump(&status.resync_attempts);
        self.attempts += 1;
        match self.snapshots.fetch() {
            Some(snap) => {
                for (name, model) in snap.models {
                    svc.registry().register(&name, model);
                }
                self.cursor = self.cursor.max(snap.seq);
                self.frontier = self.frontier.max(self.cursor);
                status
                    .last_applied_seq
                    .store(self.cursor, Ordering::Relaxed);
                let before = self.parked.len();
                let cursor = self.cursor;
                self.parked.retain(|&base, _| base >= cursor);
                status
                    .discarded
                    .fetch_add((before - self.parked.len()) as u64, Ordering::Relaxed);
                // The gap may sit exactly at the snapshot boundary:
                // drain the parked chain that is now in order.
                let mut due = false;
                if let Some(delta) = self.parked.remove(&self.cursor) {
                    self.apply_in_order(svc, delta, &mut due);
                }
                self.resyncing = due;
                self.stalled = false;
                self.attempts = 0;
                self.next_backoff = None;
                self.patience_spent = 0;
            }
            None => {
                self.next_backoff = Some(self.backoff_for(self.attempts));
                if self.attempts >= self.config.resync_attempts {
                    self.stalled = true;
                }
            }
        }
    }

    /// Backoff before retry number `attempt + 1`: base × 2^(attempt−1),
    /// capped, plus a deterministic jitter of up to 25% derived from
    /// the seed and the attempt number.
    fn backoff_for(&self, attempt: u32) -> Duration {
        let doublings = attempt.saturating_sub(1).min(20);
        let exp = self
            .config
            .backoff_base
            .saturating_mul(1u32 << doublings)
            .min(self.config.backoff_cap);
        let span = (exp.as_nanos() / 4) as u64;
        let jitter = if span == 0 {
            0
        } else {
            splitmix64(self.config.jitter_seed ^ u64::from(attempt)) % span
        };
        exp + Duration::from_nanos(jitter)
    }

    /// Publish state + lag after a pump.
    fn publish(&self, status: &FeedStatus) -> FeedState {
        let state = if self.stalled {
            FeedState::Stalled
        } else if self.resyncing {
            FeedState::Resyncing
        } else if !self.parked.is_empty() {
            FeedState::CatchingUp
        } else {
            FeedState::Live
        };
        status.state.store(state as u8, Ordering::Relaxed);
        status
            .parked
            .store(self.parked.len() as u64, Ordering::Relaxed);
        status
            .lag
            .store(self.frontier.saturating_sub(self.cursor), Ordering::Relaxed);
        state
    }
}

impl<S, R> std::fmt::Debug for RegistryFeed<S, R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RegistryFeed")
            .field("cursor", &self.cursor)
            .field("frontier", &self.frontier)
            .field("parked", &self.parked.len())
            .field("resyncing", &self.resyncing)
            .field("stalled", &self.stalled)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::ModelEpoch;
    use netgraph::Direction;
    use std::collections::VecDeque;

    fn host(n: usize) -> Network {
        let mut g = Network::new(Direction::Undirected);
        let ids: Vec<_> = (0..n).map(|i| g.add_node(format!("n{i}"))).collect();
        for w in ids.windows(2) {
            let e = g.add_edge(w[0], w[1]);
            g.set_edge_attr(e, "avgDelay", 10.0);
        }
        for &v in &ids {
            g.set_node_attr(v, "cpu", 8.0);
        }
        g
    }

    fn attr_delta(seq: u64, node: u32, value: f64) -> RegistryDelta {
        RegistryDelta {
            host: "m".to_string(),
            base_seq: seq,
            next_seq: seq + 1,
            mutation: DeltaMutation::SetNodeAttr {
                node,
                attr: "cpu".to_string(),
                value: AttrValue::Num(value),
            },
            dirty: DirtySet::from_ids([node]),
        }
    }

    fn no_snapshots() -> impl SnapshotSource {
        || -> Option<FeedSnapshot> { panic!("unexpected snapshot fetch") }
    }

    fn svc_with_host() -> NetEmbedService {
        let svc = NetEmbedService::new();
        svc.registry().register("m", host(4));
        svc
    }

    #[test]
    fn in_order_deltas_apply_and_stay_live() {
        let svc = svc_with_host();
        let stream: VecDeque<_> = (0..3)
            .map(|i| attr_delta(i, i as u32, 1.0 + i as f64))
            .collect();
        let mut feed = RegistryFeed::new(stream, no_snapshots(), FeedConfig::default());
        assert_eq!(feed.pump(&svc), FeedState::Live);
        let t = svc.feed_status().snapshot();
        assert_eq!((t.received, t.applied, t.lag), (3, 3, 0));
        assert_eq!(t.last_applied_seq, 3);
        assert!(t.balanced());
        let model = svc.registry().model("m").unwrap();
        for i in 0..3u32 {
            assert_eq!(
                model.node_attr_by_name(NodeId(i), "cpu"),
                Some(&AttrValue::Num(1.0 + f64::from(i)))
            );
        }
        // Each applied delta recorded its dirty transition.
        let e = svc.registry().epoch("m").unwrap();
        assert_eq!(
            svc.registry().dirty_between("m", ModelEpoch(e.0 - 3), e),
            Some(DirtySet::from_ids([0, 1, 2]))
        );
    }

    #[test]
    fn duplicates_and_stale_sequences_drop_idempotently() {
        let svc = svc_with_host();
        let mut stream = VecDeque::new();
        stream.push_back(attr_delta(0, 0, 1.0));
        stream.push_back(attr_delta(0, 0, 99.0)); // exact re-delivery (different payload!)
        stream.push_back(attr_delta(1, 1, 2.0));
        stream.push_back(attr_delta(0, 0, 99.0)); // stale
        let mut feed = RegistryFeed::new(stream, no_snapshots(), FeedConfig::default());
        assert_eq!(feed.pump(&svc), FeedState::Live);
        let t = svc.feed_status().snapshot();
        assert_eq!((t.applied, t.duplicates), (2, 2));
        assert!(t.balanced());
        // The duplicate's divergent payload never re-applied.
        let model = svc.registry().model("m").unwrap();
        assert_eq!(
            model.node_attr_by_name(NodeId(0), "cpu"),
            Some(&AttrValue::Num(1.0))
        );
    }

    #[test]
    fn reordered_deltas_park_then_apply_in_sequence_order() {
        let svc = svc_with_host();
        let mut stream = VecDeque::new();
        stream.push_back(attr_delta(2, 2, 3.0));
        stream.push_back(attr_delta(1, 1, 2.0));
        stream.push_back(attr_delta(0, 0, 1.0));
        let mut feed = RegistryFeed::new(stream, no_snapshots(), FeedConfig::default());
        assert_eq!(
            feed.pump(&svc),
            FeedState::Live,
            "chain drained in one pump"
        );
        let t = svc.feed_status().snapshot();
        assert_eq!((t.applied, t.reordered, t.parked), (3, 2, 0));
        assert!(t.balanced());
        assert_eq!(feed.cursor(), 3);
    }

    #[test]
    fn open_gap_surfaces_catching_up_within_patience() {
        let svc = svc_with_host();
        let mut stream = VecDeque::new();
        stream.push_back(attr_delta(1, 1, 2.0)); // seq 0 missing
        let mut feed = RegistryFeed::new(stream, no_snapshots(), FeedConfig::default());
        assert_eq!(feed.pump(&svc), FeedState::CatchingUp);
        assert_eq!(svc.feed_status().lag(), 2, "frontier 2, cursor 0");
        assert_eq!(svc.feed_status().snapshot().parked, 1);
        assert!(svc.feed_status().snapshot().balanced());
    }

    #[test]
    fn exhausted_patience_declares_a_gap_and_resyncs() {
        let svc = svc_with_host();
        let mut stream = VecDeque::new();
        stream.push_back(attr_delta(1, 1, 2.0)); // seq 0 lost forever
        let fresh = host(4);
        let snapshots = move || -> Option<FeedSnapshot> {
            Some(FeedSnapshot {
                seq: 1,
                models: vec![("m".to_string(), fresh.clone())],
            })
        };
        let config = FeedConfig {
            gap_patience: 1,
            ..FeedConfig::default()
        };
        let mut feed = RegistryFeed::new(stream, snapshots, config);
        assert_eq!(feed.pump(&svc), FeedState::CatchingUp, "patience 1 of 1");
        // Second pump without progress exceeds patience → resync; the
        // snapshot is at seq 1, so the parked seq-1 delta drains and
        // the feed comes back live in the same pump.
        assert_eq!(feed.pump(&svc), FeedState::Live);
        let t = svc.feed_status().snapshot();
        assert_eq!(t.gap_resyncs, 1);
        assert_eq!(t.resync_attempts, 1);
        assert_eq!(t.applied, 1, "the parked delta applied after resync");
        assert_eq!(t.reordered, 1);
        assert!(t.balanced());
        assert_eq!(feed.cursor(), 2);
    }

    #[test]
    fn reorder_buffer_overflow_forces_resync() {
        let svc = svc_with_host();
        let mut stream = VecDeque::new();
        // Four out-of-order deltas against a buffer of two: the third
        // and fourth overflow (discarded) and flag a resync.
        for seq in [2u64, 3, 4, 5] {
            stream.push_back(attr_delta(seq, 0, seq as f64));
        }
        let fresh = host(4);
        let snapshots = move || -> Option<FeedSnapshot> {
            Some(FeedSnapshot {
                seq: 6,
                models: vec![("m".to_string(), fresh.clone())],
            })
        };
        let config = FeedConfig {
            reorder_buffer: 2,
            ..FeedConfig::default()
        };
        let mut feed = RegistryFeed::new(stream, snapshots, config);
        assert_eq!(feed.pump(&svc), FeedState::Live, "resync in the same pump");
        let t = svc.feed_status().snapshot();
        assert_eq!(t.gap_resyncs, 1);
        // 2 overflowed + 2 parked-then-superseded by the seq-6 snapshot.
        assert_eq!(t.discarded, 4);
        assert_eq!(t.applied, 0);
        assert!(t.balanced());
        assert_eq!(feed.cursor(), 6);
    }

    #[test]
    fn validation_failure_rejects_and_resyncs() {
        let svc = svc_with_host();
        let mut stream = VecDeque::new();
        // Node 9 does not exist in the 4-node model.
        stream.push_back(attr_delta(0, 9, 1.0));
        let fresh = host(4);
        let snapshots = move || -> Option<FeedSnapshot> {
            Some(FeedSnapshot {
                seq: 1,
                models: vec![("m".to_string(), fresh.clone())],
            })
        };
        let mut feed = RegistryFeed::new(stream, snapshots, FeedConfig::default());
        assert_eq!(feed.pump(&svc), FeedState::Live);
        let t = svc.feed_status().snapshot();
        assert_eq!((t.rejected, t.gap_resyncs), (1, 1));
        assert!(t.balanced());
    }

    #[test]
    fn under_declared_dirty_set_is_a_validation_failure() {
        let svc = svc_with_host();
        let model = svc.registry().model("m").unwrap();
        let mut delta = attr_delta(0, 1, 1.0);
        delta.dirty = DirtySet::from_ids([0]); // claims node 0, touches node 1
        assert_eq!(validate(&model, &delta), Err(DeltaFault::DirtyUndeclared));
        // Over-declaring is fine (conservative).
        delta.dirty = DirtySet::from_ids([0, 1, 2]);
        assert_eq!(validate(&model, &delta), Ok(()));
    }

    #[test]
    fn tombstone_removals_and_topology_adds_validate_and_apply() {
        let svc = svc_with_host();
        let deltas = [
            RegistryDelta {
                host: "m".to_string(),
                base_seq: 0,
                next_seq: 1,
                mutation: DeltaMutation::AddNode {
                    name: "n4".to_string(),
                },
                dirty: DirtySet::from_ids([4]),
            },
            RegistryDelta {
                host: "m".to_string(),
                base_seq: 1,
                next_seq: 2,
                mutation: DeltaMutation::AddEdge { src: 3, dst: 4 },
                dirty: DirtySet::from_ids([3, 4]),
            },
            RegistryDelta {
                host: "m".to_string(),
                base_seq: 2,
                next_seq: 3,
                mutation: DeltaMutation::SetNodeAttr {
                    node: 0,
                    attr: crate::monitor::UP_ATTR.to_string(),
                    value: AttrValue::Bool(false),
                },
                dirty: DirtySet::from_ids([0]),
            },
            RegistryDelta {
                host: "m".to_string(),
                base_seq: 3,
                next_seq: 4,
                mutation: DeltaMutation::SetEdgeAttr {
                    src: 3,
                    dst: 4,
                    attr: crate::monitor::UP_ATTR.to_string(),
                    value: AttrValue::Bool(false),
                },
                dirty: DirtySet::from_ids([3, 4]),
            },
            RegistryDelta {
                host: "m".to_string(),
                base_seq: 4,
                next_seq: 5,
                mutation: DeltaMutation::ReservationCommit {
                    deductions: vec![(1, "cpu".to_string(), 3.0)],
                },
                dirty: DirtySet::from_ids([1]),
            },
        ];
        let stream: VecDeque<_> = deltas.into_iter().collect();
        let mut feed = RegistryFeed::new(stream, no_snapshots(), FeedConfig::default());
        assert_eq!(feed.pump(&svc), FeedState::Live);
        let t = svc.feed_status().snapshot();
        assert_eq!(t.applied, 5);
        assert!(t.balanced());
        let model = svc.registry().model("m").unwrap();
        assert_eq!(model.node_count(), 5);
        let e = model.find_edge(NodeId(3), NodeId(4)).unwrap();
        assert_eq!(
            model.edge_attr_by_name(e, crate::monitor::UP_ATTR),
            Some(&AttrValue::Bool(false)),
            "removed edge is tombstoned"
        );
        assert_eq!(
            model.node_attr_by_name(NodeId(0), crate::monitor::UP_ATTR),
            Some(&AttrValue::Bool(false)),
            "removed node is tombstoned"
        );
        assert_eq!(
            model.node_attr_by_name(NodeId(1), "cpu"),
            Some(&AttrValue::Num(5.0)),
            "reservation deducted"
        );
    }

    #[test]
    fn failed_fetches_back_off_deterministically_then_stall() {
        let svc = svc_with_host();
        let mut stream = VecDeque::new();
        stream.push_back(attr_delta(5, 0, 1.0)); // unbridgeable gap
                                                 // The source fails every fetch until the test flips the switch.
        let recovered = std::rc::Rc::new(std::cell::Cell::new(false));
        let switch = recovered.clone();
        let fresh = host(4);
        let snapshots = move || -> Option<FeedSnapshot> {
            switch.get().then(|| FeedSnapshot {
                seq: 6,
                models: vec![("m".to_string(), fresh.clone())],
            })
        };
        let config = FeedConfig {
            gap_patience: 0,
            resync_attempts: 3,
            jitter_seed: 7,
            ..FeedConfig::default()
        };
        let mut feed = RegistryFeed::new(stream, snapshots, config);
        // Pump 1: parks; patience 0 is immediately exceeded → attempt 1
        // fails.
        assert_eq!(feed.pump(&svc), FeedState::Resyncing);
        let b1 = feed.next_retry_in().expect("backoff after failed fetch");
        assert_eq!(feed.pump(&svc), FeedState::Resyncing);
        let b2 = feed.next_retry_in().unwrap();
        assert_eq!(feed.pump(&svc), FeedState::Stalled, "attempt budget spent");
        let b3 = feed.next_retry_in().unwrap();
        // Exponential shape with ≤ 25% jitter: attempt n sits in
        // [base·2ⁿ⁻¹, 1.25·base·2ⁿ⁻¹).
        for (i, b) in [b1, b2, b3].into_iter().enumerate() {
            let floor = config.backoff_base * (1 << i);
            assert!(
                b >= floor && b < floor + floor / 4,
                "attempt {}: {b:?}",
                i + 1
            );
        }
        // The schedule is a pure function of (seed, attempt).
        let replay = RegistryFeed::new(
            VecDeque::<RegistryDelta>::new(),
            || -> Option<FeedSnapshot> { None },
            config,
        );
        assert_eq!(replay.backoff_for(1), b1);
        assert_eq!(replay.backoff_for(2), b2);
        assert_eq!(replay.backoff_for(3), b3);
        assert_eq!(
            svc.feed_status().snapshot().resync_attempts,
            3,
            "one fetch per pump"
        );
        assert_eq!(svc.feed_status().snapshot().gap_resyncs, 1, "one episode");
        // A stalled feed still retries: the moment the source recovers,
        // the next pump brings it back.
        recovered.set(true);
        assert_eq!(feed.pump(&svc), FeedState::Live);
        assert!(feed.next_retry_in().is_none());
        assert!(svc.feed_status().snapshot().balanced());
    }

    #[test]
    fn unknown_host_rejects_and_snapshot_restores_it() {
        let svc = NetEmbedService::new(); // nothing registered
        let mut stream = VecDeque::new();
        stream.push_back(attr_delta(0, 0, 1.0));
        let fresh = host(4);
        let snapshots = move || -> Option<FeedSnapshot> {
            Some(FeedSnapshot {
                seq: 1,
                models: vec![("m".to_string(), fresh.clone())],
            })
        };
        let mut feed = RegistryFeed::new(stream, snapshots, FeedConfig::default());
        assert_eq!(feed.pump(&svc), FeedState::Live);
        assert!(
            svc.registry().model("m").is_some(),
            "snapshot registered it"
        );
        let t = svc.feed_status().snapshot();
        assert_eq!((t.rejected, t.gap_resyncs), (1, 1));
        assert!(t.balanced());
    }
}

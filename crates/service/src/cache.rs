//! Epoch-keyed memoization: one cache implementation, two instances.
//!
//! The service memoizes two artifacts that are pure functions of a
//! registry model snapshot. A [`FilterCache`] holds built
//! `FilterMatrix`es under a [`FilterKey`] `(host, epoch, query
//! fingerprint, constraint)`. A [`HierarchyCache`] holds coarsened
//! substrates under a [`HierarchyKey`] `(host, epoch, spec)`; queries
//! and constraints are not part of it, so one coarsening serves every
//! query against that snapshot. Both are instances of [`EpochCache`].
//! A key type tells the cache three things through [`EpochKey`]: the
//! host it belongs to, its epoch, and whether another key names the
//! same artifact at a different epoch. The same key always yields the
//! same `Arc`. Registry epochs never repeat (see [`crate::registry`]),
//! so an entry for an older epoch can never be *served*; it can only
//! be evicted, or repaired forward to the current epoch.
//!
//! ## Eviction
//!
//! * **Staleness purge.** Inserting `(host, epoch)` drops every entry
//!   of the same host with an older epoch: the registry guarantees
//!   those versions are never requested again.
//! * **LRU cap.** Beyond the instance's capacity ([`DEFAULT_CAPACITY`]
//!   filters, [`HIERARCHY_CAPACITY`] hierarchies) the least recently
//!   used entry goes, so a sweep over many distinct keys cannot grow
//!   the cache without bound.
//! * **Invalidation.** [`EpochCache::invalidate_host`] drops a dead
//!   namespace (a removed model) at once, and poisons its in-flight
//!   builds (below).
//!
//! ## Epoch repair
//!
//! An epoch bump is a guaranteed miss, even when the mutation behind it
//! changed nothing the cached artifact depends on.
//! [`EpochCache::try_patch`] is the one repair entry point. Given the
//! would-be key for the current epoch, it picks the newest superseded
//! entry with the same identity and hands it to a caller-supplied
//! decide hook, which runs *outside* the cache lock (it consults the
//! registry and may scan bitsets). The hook answers with a
//! [`PatchDecision`]:
//!
//! * `Skip`: the window cannot be classified; nothing changes.
//! * `Promote`: the window is provably empty; the entry is re-keyed in
//!   place ([`EpochCache::promotions`]).
//! * `Replace(v)`: the hook repaired a clone; it is memoized under the
//!   new key ([`EpochCache::patches`]).
//! * `Rebuild`: the window cannot be absorbed; the caller falls
//!   through to a normal miss ([`EpochCache::patch_rebuilds`]).
//!
//! After `Promote` or `Replace` the next fetch is a plain hit. The
//! filter instance uses all four: a removal-only window is repaired
//! with [`FilterMatrix::patch`](netembed::FilterMatrix::patch), and a
//! window that *adds* a feasible candidate returns `NeedsRebuild`,
//! which is what keeps repair sound for additive mutations. The
//! hierarchy instance only promotes across empty windows, since a
//! coarsening aggregates every node.
//!
//! ## Concurrent-miss deduplication
//!
//! [`EpochCache::fetch_or_build`] resolves a key through an **in-flight
//! build table**. The first miss registers the key and receives a
//! [`BuildTicket`]: it is the designated builder. A later miss on the
//! same key waits on that registration and receives the exact `Arc`
//! the winner produced ([`Fetch::Waited`]). A builder that fails
//! (deadline-truncated build, error, panic) abandons its ticket,
//! explicitly or on drop, which wakes the waiters so one can take over.
//! Four refinements bound the wait:
//!
//! * a wait budget: a wait that outlives it returns
//!   [`Fetch::WaitExpired`] (hierarchy waiters pass none, because
//!   coarsening is not charged to a request's budget);
//! * a waiter cap ([`EpochCache::with_max_waiters`], the admission
//!   policy's `max_dedup_waiters` on the filter instance): the excess
//!   gets [`Fetch::Overloaded`] instead of convoying behind one build;
//! * a cancel probe ([`EpochCache::fetch_or_build_watch`]): a planner
//!   dispatcher whose requester dropped its ticket stops waiting
//!   ([`Fetch::Cancelled`]);
//! * poison on invalidate: a build still in flight when its host is
//!   invalidated hands its result to the waiters but memoizes nothing,
//!   so a removed model is never resurrected by a late completion.

use crate::registry::ModelEpoch;
use netembed::{FilterMatrix, HierarchySpec, SubstrateHierarchy};
use netgraph::Network;
use parking_lot::Mutex;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar as StdCondvar, Mutex as StdMutex};
use std::time::{Duration, Instant};

/// Default entry cap of [`FilterCache::new`].
pub const DEFAULT_CAPACITY: usize = 64;

/// Default entry cap of [`HierarchyCache::new`]. Hierarchies are
/// per-model (not per-query), so a service rarely holds more than a
/// handful of live ones.
pub const HIERARCHY_CAPACITY: usize = 8;

/// What an [`EpochCache`] needs to know about its keys.
pub trait EpochKey: Clone + Eq + Hash + std::fmt::Debug {
    /// Entry cap of [`EpochCache::new`].
    const CAPACITY: usize;
    /// Registry model name (the namespace purged and invalidated).
    fn host(&self) -> &str;
    /// Model version the artifact was built against.
    fn epoch(&self) -> ModelEpoch;
    /// Whether `other` names the same artifact, possibly at another
    /// epoch: the candidate test of [`EpochCache::try_patch`].
    fn same_identity(&self, other: &Self) -> bool;
}

/// Identity of one memoized filter build. Equality of keys must imply
/// equality of the built filter: `host`+`epoch` pin one exact model
/// version (registry epochs are never reused), `constraint` is the
/// verbatim source text, and `query_hash` is a 128-bit structural
/// fingerprint of the query network ([`network_fingerprint`]).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FilterKey {
    /// Registry model name (or a caller-chosen namespace, e.g. the
    /// scheduler's `"@scheduler"` residual models).
    pub host: String,
    /// Model version the filter was built against.
    pub epoch: ModelEpoch,
    /// Structural fingerprint of the query network.
    pub query_hash: u128,
    /// Constraint source text, verbatim.
    pub constraint: String,
}

impl EpochKey for FilterKey {
    const CAPACITY: usize = DEFAULT_CAPACITY;
    fn host(&self) -> &str {
        &self.host
    }
    fn epoch(&self) -> ModelEpoch {
        self.epoch
    }
    fn same_identity(&self, other: &Self) -> bool {
        self.host == other.host
            && self.query_hash == other.query_hash
            && self.constraint == other.constraint
    }
}

/// Identity of one memoized substrate coarsening: the hierarchy is a
/// pure function of the host model (pinned by `host` + `epoch`) and
/// the coarsening knobs.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct HierarchyKey {
    /// Registry model name.
    pub host: String,
    /// Model version the hierarchy was coarsened from.
    pub epoch: ModelEpoch,
    /// Coarsening knobs (different levels/floor → different hierarchy).
    pub spec: HierarchySpec,
}

impl EpochKey for HierarchyKey {
    const CAPACITY: usize = HIERARCHY_CAPACITY;
    fn host(&self) -> &str {
        &self.host
    }
    fn epoch(&self) -> ModelEpoch {
        self.epoch
    }
    fn same_identity(&self, other: &Self) -> bool {
        self.host == other.host && self.spec == other.spec
    }
}

/// The service's memo of built filter matrices.
pub type FilterCache = EpochCache<FilterKey, FilterMatrix>;

/// The service's memo of coarsened substrates.
pub type HierarchyCache = EpochCache<HierarchyKey, SubstrateHierarchy>;

/// What [`FilterCache::fetch_or_build`] resolved a key to.
pub type FilterFetch<'a> = Fetch<'a, FilterKey, FilterMatrix>;

struct Slot<V> {
    value: Arc<V>,
    last_used: u64,
}

struct CacheState<K, V> {
    map: HashMap<K, Slot<V>>,
    /// Logical clock for LRU ordering.
    tick: u64,
}

/// One registered in-flight build: the winner flips `state` from
/// `Building` to `Done`/`Abandoned` and notifies; joiners wait on `cv`.
/// Waiters hold their own `Arc` clone, so the winner can drop the table
/// entry immediately — late wakeups still read the final state.
struct InFlight<V> {
    state: StdMutex<BuildState<V>>,
    cv: StdCondvar,
    /// Threads currently blocked on this build. Joined under the
    /// cache's `inflight` map lock and left on every exit path
    /// ([`WaiterSlot`]), so the waiter cap can never leak a slot.
    waiters: AtomicU64,
    /// Set by [`EpochCache::invalidate_host`] while the build is still
    /// in flight: [`BuildTicket::complete`] then hands the value to
    /// the waiters (it is correct for the epoch they asked about) but
    /// does not memoize it for the dead host.
    poisoned: AtomicBool,
}

enum BuildState<V> {
    Building,
    Done(Arc<V>),
    /// The builder gave up (truncated build, error, panic): one waiter
    /// should retry and become the new builder.
    Abandoned,
}

/// RAII waiter-count slot: constructed under the inflight map lock,
/// released on every exit path (including unwinds).
struct WaiterSlot<'a, V>(&'a InFlight<V>);

impl<V> Drop for WaiterSlot<'_, V> {
    fn drop(&mut self) {
        self.0.waiters.fetch_sub(1, Ordering::Relaxed);
    }
}

/// What [`EpochCache::fetch_or_build`] resolved a key to.
pub enum Fetch<'a, K: EpochKey, V> {
    /// Served from the memo (counted as a hit).
    Hit(Arc<V>),
    /// Another thread was already building this key; this call blocked
    /// until that build completed and got the same `Arc` (counted as a
    /// dedup wait, not a miss).
    Waited(Arc<V>),
    /// Another thread was building, but the caller's wait budget ran
    /// out first. The caller should report a timeout, exactly as if it
    /// had spent the budget building.
    WaitExpired,
    /// Nobody has this key: the caller is the designated builder and
    /// must [`BuildTicket::complete`] (or abandon) the ticket (counted
    /// as a miss).
    MustBuild(BuildTicket<'a, K, V>),
    /// The in-flight build already has the maximum number of waiters
    /// ([`EpochCache::with_max_waiters`]): the caller was shed instead
    /// of joining the convoy (counted under [`EpochCache::dedup_shed`]).
    Overloaded,
    /// The caller's cancel probe fired while it waited on another
    /// thread's build ([`EpochCache::fetch_or_build_watch`]). Nothing
    /// was built or counted.
    Cancelled,
}

/// The designated-builder token handed out on a true miss. Exactly one
/// exists per in-flight key. [`BuildTicket::complete`] memoizes the
/// value and hands it to every waiter; dropping the ticket without
/// completing abandons the build, waking waiters so one can take over —
/// waiters can therefore never deadlock on a builder that died.
pub struct BuildTicket<'a, K: EpochKey, V> {
    cache: &'a EpochCache<K, V>,
    key: K,
    slot: Arc<InFlight<V>>,
    resolved: bool,
}

impl<K: EpochKey, V> BuildTicket<'_, K, V> {
    /// Publish a finished build: memoize it under the ticket's key and
    /// wake every waiter with the same `Arc`. Callers must only
    /// complete *complete* builds — a deadline-truncated filter is a
    /// function of the budget, not the key.
    ///
    /// The memo insert and the in-flight-table removal happen under one
    /// hold of the in-flight lock, and the insert is skipped when
    /// [`EpochCache::invalidate_host`] poisoned this build meanwhile.
    pub fn complete(mut self, value: Arc<V>) {
        self.resolved = true;
        {
            let mut fl = self.cache.inflight.lock().unwrap();
            if !self.slot.poisoned.load(Ordering::Relaxed) {
                self.cache.insert(self.key.clone(), value.clone());
            }
            fl.remove(&self.key);
        }
        *self.slot.state.lock().unwrap() = BuildState::Done(value);
        self.slot.cv.notify_all();
    }

    /// Give the key up without publishing (truncated or failed build):
    /// wakes waiters so one of them becomes the new builder.
    pub fn abandon(mut self) {
        self.resolve_abandoned();
    }

    /// Threads currently blocked on this build: lets tests sequence
    /// "a waiter has joined" without sleeping.
    #[cfg(test)]
    pub(crate) fn waiters(&self) -> u64 {
        self.slot.waiters.load(Ordering::Relaxed)
    }

    fn resolve_abandoned(&mut self) {
        self.resolved = true;
        self.cache.inflight.lock().unwrap().remove(&self.key);
        *self.slot.state.lock().unwrap() = BuildState::Abandoned;
        self.slot.cv.notify_all();
    }
}

impl<K: EpochKey, V> Drop for BuildTicket<'_, K, V> {
    fn drop(&mut self) {
        if !self.resolved {
            self.resolve_abandoned();
        }
    }
}

impl<K: EpochKey, V> std::fmt::Debug for BuildTicket<'_, K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BuildTicket")
            .field("key", &self.key)
            .finish()
    }
}

/// Thread-safe, epoch-keyed memo of `Arc<V>` values under keys `K`
/// (module docs): LRU plus same-host staleness purge, in-flight miss
/// deduplication, poison on invalidate, one repair entry point, and
/// lifetime counters for observability.
pub struct EpochCache<K, V> {
    state: Mutex<CacheState<K, V>>,
    /// Keys currently being built. `std` primitives on purpose: joiners
    /// need a condvar, which the vendored `parking_lot` stand-in doesn't
    /// carry.
    inflight: StdMutex<HashMap<K, Arc<InFlight<V>>>>,
    capacity: usize,
    /// Cap on threads blocked on one in-flight build; `usize::MAX` =
    /// unbounded.
    max_waiters: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    dedup_waits: AtomicU64,
    dedup_shed: AtomicU64,
    promotions: AtomicU64,
    patches: AtomicU64,
    patch_rebuilds: AtomicU64,
}

/// The decide hook's verdict for one [`EpochCache::try_patch`] window
/// (module docs, "Epoch repair").
pub enum PatchDecision<V = FilterMatrix> {
    /// The window cannot be classified (broken delta chain, no registry
    /// history): leave the cache untouched and fall through to the
    /// normal miss/build path. No counter moves.
    Skip,
    /// The dirty window is provably empty: the superseded value is
    /// still exact — re-key it in place (a promotion).
    Promote,
    /// The dirty window only removed candidates: memoize this repaired
    /// clone under the new key (counted under [`EpochCache::patches`]).
    Replace(Arc<V>),
    /// The window added a feasible candidate
    /// ([`PatchOutcome::NeedsRebuild`](netembed::PatchOutcome)): fall
    /// through to a full rebuild (counted under
    /// [`EpochCache::patch_rebuilds`]).
    Rebuild,
}

impl<K: EpochKey, V> EpochCache<K, V> {
    /// A cache capped at the key type's default capacity
    /// ([`DEFAULT_CAPACITY`] filters, [`HIERARCHY_CAPACITY`]
    /// hierarchies).
    pub fn new() -> Self {
        Self::with_capacity(K::CAPACITY)
    }

    /// A cache holding at most `capacity` entries (≥ 1).
    pub fn with_capacity(capacity: usize) -> Self {
        EpochCache {
            state: Mutex::new(CacheState {
                map: HashMap::new(),
                tick: 0,
            }),
            inflight: StdMutex::new(HashMap::new()),
            capacity: capacity.max(1),
            max_waiters: usize::MAX,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            dedup_waits: AtomicU64::new(0),
            dedup_shed: AtomicU64::new(0),
            promotions: AtomicU64::new(0),
            patches: AtomicU64::new(0),
            patch_rebuilds: AtomicU64::new(0),
        }
    }

    /// Bound the threads allowed to block on one in-flight build; the
    /// excess resolves as [`Fetch::Overloaded`]. Clamped to ≥ 1 (zero
    /// would shed every joiner, turning dedup off entirely).
    pub fn with_max_waiters(mut self, max: usize) -> Self {
        self.max_waiters = max.max(1);
        self
    }

    /// The memoized value for `key`, refreshing its LRU position.
    pub fn lookup(&self, key: &K) -> Option<Arc<V>> {
        let hit = self.peek_hit(key);
        if hit.is_none() {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// [`EpochCache::lookup`] that only counts (and refreshes) hits — a
    /// `None` here is not yet a miss, because `fetch_or_build` may
    /// still resolve it as a dedup wait.
    fn peek_hit(&self, key: &K) -> Option<Arc<V>> {
        let mut st = self.state.lock();
        st.tick += 1;
        let tick = st.tick;
        st.map.get_mut(key).map(|slot| {
            slot.last_used = tick;
            self.hits.fetch_add(1, Ordering::Relaxed);
            slot.value.clone()
        })
    }

    /// Resolve `key` with concurrent-miss deduplication (module docs):
    /// memo hit → [`Fetch::Hit`]; someone else already building →
    /// block (up to `wait_budget`; `None` waits indefinitely) and share
    /// their result; true miss → the caller becomes the designated
    /// builder and receives a [`BuildTicket`].
    ///
    /// **"Concurrent misses build once" is deterministic**, not
    /// best-effort: a winner memoizes *before* clearing its in-flight
    /// entry, and a caller that registers as builder re-probes the memo
    /// before being handed the ticket. A second `MustBuild` for the
    /// same key can only follow an *abandoned* build, or an eviction of
    /// the entry itself.
    pub fn fetch_or_build(&self, key: &K, wait_budget: Option<Duration>) -> Fetch<'_, K, V> {
        self.fetch_or_build_watch(key, wait_budget, None)
    }

    /// [`EpochCache::fetch_or_build`] with a cancel probe: while the
    /// caller is blocked on another thread's build, the probe is polled
    /// (about once per millisecond); the moment it returns `true` the
    /// call resolves as [`Fetch::Cancelled`] and the waiter slot frees.
    pub fn fetch_or_build_watch(
        &self,
        key: &K,
        wait_budget: Option<Duration>,
        cancel: Option<&dyn Fn() -> bool>,
    ) -> Fetch<'_, K, V> {
        /// Poll granularity for the cancel probe while blocked.
        const CANCEL_POLL: Duration = Duration::from_millis(1);
        let wait_deadline = wait_budget.map(|b| Instant::now() + b);
        loop {
            if let Some(value) = self.peek_hit(key) {
                return Fetch::Hit(value);
            }
            // `Ok` = someone is already building (join them — the
            // waiter slot is claimed under the map lock, so the cap is
            // race-free); `Err` = this caller registered the key and is
            // the builder.
            let joined = {
                let mut fl = self.inflight.lock().unwrap();
                match fl.get(key) {
                    Some(slot) => {
                        if slot.waiters.load(Ordering::Relaxed) >= self.max_waiters as u64 {
                            self.dedup_shed.fetch_add(1, Ordering::Relaxed);
                            return Fetch::Overloaded;
                        }
                        slot.waiters.fetch_add(1, Ordering::Relaxed);
                        Ok(slot.clone())
                    }
                    None => {
                        let slot = Arc::new(InFlight {
                            state: StdMutex::new(BuildState::Building),
                            cv: StdCondvar::new(),
                            waiters: AtomicU64::new(0),
                            poisoned: AtomicBool::new(false),
                        });
                        fl.insert(key.clone(), slot.clone());
                        Err(slot)
                    }
                }
            };
            let slot = match joined {
                Err(slot) => {
                    let ticket = BuildTicket {
                        cache: self,
                        key: key.clone(),
                        slot,
                        resolved: false,
                    };
                    // Close the probe→register window: a winner that
                    // completed in between memoized *before* clearing
                    // its in-flight entry, so this re-probe is
                    // definitive. (Dropping the fresh ticket releases
                    // the key; anyone who joined it meanwhile retries
                    // and takes the hit too.)
                    if let Some(value) = self.peek_hit(key) {
                        drop(ticket);
                        return Fetch::Hit(value);
                    }
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    return Fetch::MustBuild(ticket);
                }
                Ok(slot) => slot,
            };
            let waiting = WaiterSlot(&slot);
            // Join the in-flight build. The winner may already have
            // resolved the slot — the state check under the slot lock
            // makes the wait race-free (no lost notification).
            let mut st = slot.state.lock().unwrap();
            loop {
                match &*st {
                    BuildState::Done(value) => {
                        self.dedup_waits.fetch_add(1, Ordering::Relaxed);
                        return Fetch::Waited(value.clone());
                    }
                    BuildState::Abandoned => break, // retry from the top
                    BuildState::Building => {}
                }
                if cancel.is_some_and(|c| c()) {
                    return Fetch::Cancelled;
                }
                // With a cancel probe the wait is sliced so the probe
                // keeps getting polled; a pure deadline wait blocks for
                // its whole remainder.
                let bound = match wait_deadline {
                    None => cancel.map(|_| CANCEL_POLL),
                    Some(d) => {
                        let now = Instant::now();
                        if now >= d {
                            return Fetch::WaitExpired;
                        }
                        let left = d - now;
                        Some(if cancel.is_some() {
                            left.min(CANCEL_POLL)
                        } else {
                            left
                        })
                    }
                };
                st = match bound {
                    None => slot.cv.wait(st).unwrap(),
                    Some(b) => slot.cv.wait_timeout(st, b).unwrap().0,
                };
            }
            drop(st);
            drop(waiting);
        }
    }

    /// Memoize `value` under `key`. Purges permanently-stale entries
    /// (same host, older epoch) and LRU-evicts past the capacity cap.
    pub fn insert(&self, key: K, value: Arc<V>) {
        let mut st = self.state.lock();
        st.map
            .retain(|k, _| k.host() != key.host() || k.epoch() >= key.epoch());
        st.tick += 1;
        let tick = st.tick;
        st.map.insert(
            key,
            Slot {
                value,
                last_used: tick,
            },
        );
        while st.map.len() > self.capacity {
            let oldest = st
                .map
                .iter()
                .min_by_key(|(_, slot)| slot.last_used)
                .map(|(k, _)| k.clone())
                .expect("non-empty over-capacity map");
            st.map.remove(&oldest);
        }
    }

    /// Repair a superseded entry forward to `key` (module docs, "Epoch
    /// repair"). The candidate is the newest memoized entry with the
    /// same identity as `key` and an older epoch; an already-memoized
    /// `key` short-circuits `true` without deciding.
    /// `decide(old_epoch, value)` classifies the window *outside* the
    /// cache lock. Returns `true` when `key` is memoized afterwards;
    /// on `false` the caller falls through to the normal miss/build
    /// path.
    pub fn try_patch(
        &self,
        key: &K,
        decide: impl FnOnce(ModelEpoch, &V) -> PatchDecision<V>,
    ) -> bool {
        let candidate = {
            let st = self.state.lock();
            if st.map.contains_key(key) {
                return true;
            }
            st.map
                .iter()
                .filter(|(k, _)| key.same_identity(k) && k.epoch() < key.epoch())
                .max_by_key(|(k, _)| k.epoch())
                .map(|(k, slot)| (k.clone(), slot.value.clone()))
        };
        let Some((old_key, value)) = candidate else {
            return false;
        };
        match decide(old_key.epoch(), &value) {
            PatchDecision::Skip => false,
            PatchDecision::Promote => {
                // Re-check under the lock that nobody filled `key` and
                // that the candidate survived while the hook ran.
                let mut st = self.state.lock();
                if st.map.contains_key(key) {
                    // A concurrent builder landed the fresh epoch first;
                    // its `insert` purged the candidate. The goal holds.
                    return true;
                }
                let Some(slot) = st.map.remove(&old_key) else {
                    return false; // evicted while the hook ran
                };
                st.tick += 1;
                let tick = st.tick;
                st.map.insert(
                    key.clone(),
                    Slot {
                        value: slot.value,
                        last_used: tick,
                    },
                );
                self.promotions.fetch_add(1, Ordering::Relaxed);
                true
            }
            PatchDecision::Replace(patched) => {
                // `insert`'s same-host staleness purge drops the
                // superseded candidate in the same lock hold.
                self.insert(key.clone(), patched);
                self.patches.fetch_add(1, Ordering::Relaxed);
                true
            }
            PatchDecision::Rebuild => {
                self.patch_rebuilds.fetch_add(1, Ordering::Relaxed);
                false
            }
        }
    }

    /// Drop every entry for `host` (any epoch) — eager invalidation for
    /// a namespace known to be dead (a removed model). In-flight builds
    /// for the host are *poisoned* under the same hold of the in-flight
    /// lock that shields the memo purge, so a builder completing
    /// concurrently cannot re-insert a dead-host entry afterwards.
    pub fn invalidate_host(&self, host: &str) {
        let fl = self.inflight.lock().unwrap();
        for (k, slot) in fl.iter() {
            if k.host() == host {
                slot.poisoned.store(true, Ordering::Relaxed);
            }
        }
        self.state.lock().map.retain(|k, _| k.host() != host);
        drop(fl);
    }

    /// Entries currently memoized.
    pub fn len(&self) -> usize {
        self.state.lock().map.len()
    }

    /// True when nothing is memoized.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lifetime lookup hits.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lifetime lookup misses. A concurrent miss that waited on the
    /// winner's in-flight build counts under
    /// [`EpochCache::dedup_waits`] instead — only designated builders
    /// count here.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Lifetime count of fetches that blocked on another thread's
    /// in-flight build of the same key instead of building their own
    /// copy (each one is a build the dedup table saved).
    pub fn dedup_waits(&self) -> u64 {
        self.dedup_waits.load(Ordering::Relaxed)
    }

    /// Lifetime count of fetches shed because an in-flight build's
    /// waiter cap ([`EpochCache::with_max_waiters`]) was reached.
    pub fn dedup_shed(&self) -> u64 {
        self.dedup_shed.load(Ordering::Relaxed)
    }

    /// Lifetime count of superseded entries re-keyed to a newer epoch
    /// by [`EpochCache::try_patch`]'s `Promote` arm — each one is a
    /// full rebuild the dirty-set bookkeeping saved.
    pub fn promotions(&self) -> u64 {
        self.promotions.load(Ordering::Relaxed)
    }

    /// Lifetime count of superseded entries repaired by
    /// [`EpochCache::try_patch`]'s `Replace` arm — each one turned a
    /// full rebuild into a dirty-window re-scan.
    pub fn patches(&self) -> u64 {
        self.patches.load(Ordering::Relaxed)
    }

    /// Lifetime count of repair attempts that fell back to a full
    /// rebuild ([`PatchDecision::Rebuild`]) — the soundness valve that
    /// keeps additive mutations from being served a stale filter.
    pub fn patch_rebuilds(&self) -> u64 {
        self.patch_rebuilds.load(Ordering::Relaxed)
    }

    /// Keys currently being built (observability; racy by nature).
    pub fn in_flight(&self) -> usize {
        self.inflight.lock().unwrap().len()
    }
}

impl<K: EpochKey, V> Default for EpochCache<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: EpochKey, V> std::fmt::Debug for EpochCache<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EpochCache")
            .field("len", &self.len())
            .field("capacity", &self.capacity)
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .field("dedup_waits", &self.dedup_waits())
            .field("dedup_shed", &self.dedup_shed())
            .field("promotions", &self.promotions())
            .field("patches", &self.patches())
            .field("patch_rebuilds", &self.patch_rebuilds())
            .field("in_flight", &self.in_flight())
            .finish()
    }
}

/// Two independently-seeded hashers fed one byte stream: a single
/// network traversal yields both 64-bit halves of the fingerprint.
struct PairHasher {
    lo: DefaultHasher,
    hi: DefaultHasher,
}

impl Hasher for PairHasher {
    fn write(&mut self, bytes: &[u8]) {
        self.lo.write(bytes);
        self.hi.write(bytes);
    }

    fn finish(&self) -> u64 {
        self.lo.finish()
    }
}

/// Allocation-free attribute digest: variant tag + raw payload bits
/// (`f64::to_bits` for numbers, so values hash by representation —
/// exactly what "same model bytes" means here).
fn hash_attr(h: &mut PairHasher, val: &netgraph::AttrValue) {
    match val {
        netgraph::AttrValue::Num(x) => {
            0u8.hash(h);
            x.to_bits().hash(h);
        }
        netgraph::AttrValue::Bool(b) => {
            1u8.hash(h);
            b.hash(h);
        }
        netgraph::AttrValue::Str(st) => {
            2u8.hash(h);
            st.as_ref().hash(h);
        }
    }
}

/// 128-bit structural fingerprint of a network: direction, nodes (ids,
/// names, attributes), edges (endpoints, attributes) and the attribute
/// schema, digested in **one traversal** into two independently-seeded
/// hashers. This runs on every `submit`/`prepare`, so it stays
/// allocation-light: no per-attribute formatting, one reused id sort
/// buffer. Two networks that produce different filter matrices for any
/// constraint differ in at least one digested component, so a collision
/// requires both 64-bit halves to collide at once — vanishing for
/// in-process cache lifetimes. Only meaningful within one process (the
/// underlying hasher is not stable across Rust versions); never
/// persist it.
pub fn network_fingerprint(net: &Network) -> u128 {
    let mut h = {
        let mut lo = DefaultHasher::new();
        let mut hi = DefaultHasher::new();
        0x5eed_0001u64.hash(&mut lo);
        0x5eed_0002u64.hash(&mut hi);
        PairHasher { lo, hi }
    };
    net.is_undirected().hash(&mut h);
    net.node_count().hash(&mut h);
    net.edge_count().hash(&mut h);
    // Attribute names in schema order (AttrIds are interned in schema
    // order, so per-element attr ids below are comparable once the
    // schema itself is part of the digest).
    for (id, name) in net.schema().iter() {
        id.0.hash(&mut h);
        name.hash(&mut h);
    }
    // Iteration order of an attr map is not canonical; sort ids per
    // element into one reused buffer, then hash id + value pairs.
    let mut ids: Vec<u16> = Vec::new();
    for v in net.node_ids() {
        v.0.hash(&mut h);
        net.node_name(v).hash(&mut h);
        ids.extend(net.node_attrs(v).map(|(id, _)| id.0));
        ids.sort_unstable();
        for id in ids.drain(..) {
            id.hash(&mut h);
            if let Some(val) = net.node_attr(v, netgraph::AttrId(id)) {
                hash_attr(&mut h, val);
            }
        }
    }
    for e in net.edge_refs() {
        (e.src.0, e.dst.0).hash(&mut h);
        ids.extend(net.edge_attrs(e.id).map(|(id, _)| id.0));
        ids.sort_unstable();
        for id in ids.drain(..) {
            id.hash(&mut h);
            if let Some(val) = net.edge_attr(e.id, netgraph::AttrId(id)) {
                hash_attr(&mut h, val);
            }
        }
    }
    let lo = h.lo.finish() as u128;
    let hi = h.hi.finish() as u128;
    (hi << 64) | lo
}

#[cfg(test)]
mod tests {
    use super::*;
    use netembed::{Deadline, Problem, SearchStats};
    use netgraph::Direction;

    fn path_host(n: usize) -> Network {
        let mut g = Network::new(Direction::Undirected);
        let ids: Vec<_> = (0..n).map(|i| g.add_node(format!("n{i}"))).collect();
        for w in ids.windows(2) {
            let e = g.add_edge(w[0], w[1]);
            g.set_edge_attr(e, "d", 1.0);
        }
        g
    }

    fn build(host: &Network) -> Arc<FilterMatrix> {
        let mut q = Network::new(Direction::Undirected);
        let a = q.add_node("a");
        let b = q.add_node("b");
        q.add_edge(a, b);
        let p = Problem::new(&q, host, "true").unwrap();
        let mut dl = Deadline::unlimited();
        let mut stats = SearchStats::default();
        Arc::new(FilterMatrix::build(&p, &mut dl, &mut stats).unwrap())
    }

    fn key(host: &str, epoch: u64, constraint: &str) -> FilterKey {
        FilterKey {
            host: host.to_string(),
            epoch: ModelEpoch(epoch),
            query_hash: 7,
            constraint: constraint.to_string(),
        }
    }

    #[test]
    fn lookup_hits_exact_key_only() {
        let cache = FilterCache::new();
        let host = path_host(4);
        let f = build(&host);
        cache.insert(key("h", 1, "true"), f.clone());
        assert!(cache.lookup(&key("h", 1, "true")).is_some());
        assert!(cache.lookup(&key("h", 2, "true")).is_none(), "other epoch");
        assert!(cache.lookup(&key("g", 1, "true")).is_none(), "other host");
        assert!(
            cache.lookup(&key("h", 1, "false")).is_none(),
            "other constraint"
        );
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 3);
    }

    #[test]
    fn newer_epoch_purges_same_host_only() {
        let cache = FilterCache::new();
        let host = path_host(4);
        let f = build(&host);
        cache.insert(key("h", 1, "a"), f.clone());
        cache.insert(key("h", 1, "b"), f.clone());
        cache.insert(key("g", 1, "a"), f.clone());
        assert_eq!(cache.len(), 3);
        // Host h moved to epoch 5: both its epoch-1 entries are dead.
        cache.insert(key("h", 5, "a"), f.clone());
        assert_eq!(cache.len(), 2);
        assert!(cache.lookup(&key("h", 1, "a")).is_none());
        assert!(cache.lookup(&key("h", 1, "b")).is_none());
        assert!(cache.lookup(&key("h", 5, "a")).is_some());
        assert!(cache.lookup(&key("g", 1, "a")).is_some(), "other host kept");
    }

    #[test]
    fn lru_eviction_beyond_capacity() {
        let cache = FilterCache::with_capacity(2);
        let host = path_host(4);
        let f = build(&host);
        cache.insert(key("a", 1, "x"), f.clone());
        cache.insert(key("b", 1, "x"), f.clone());
        // Touch `a` so `b` is the LRU entry.
        assert!(cache.lookup(&key("a", 1, "x")).is_some());
        cache.insert(key("c", 1, "x"), f.clone());
        assert_eq!(cache.len(), 2);
        assert!(cache.lookup(&key("a", 1, "x")).is_some());
        assert!(cache.lookup(&key("b", 1, "x")).is_none(), "LRU evicted");
        assert!(cache.lookup(&key("c", 1, "x")).is_some());
    }

    #[test]
    fn invalidate_host_drops_all_epochs() {
        let cache = FilterCache::new();
        let host = path_host(4);
        let f = build(&host);
        cache.insert(key("h", 1, "a"), f.clone());
        cache.insert(key("h", 2, "b"), f.clone());
        cache.insert(key("g", 1, "a"), f);
        cache.invalidate_host("h");
        assert_eq!(cache.len(), 1);
        assert!(cache.lookup(&key("g", 1, "a")).is_some());
    }

    #[test]
    fn concurrent_misses_build_once_and_share_the_arc() {
        // The ISSUE's two-thread contract: the first miss becomes the
        // designated builder (the only `miss`); the second blocks on the
        // in-flight table and receives the *same* `Arc`, counted as a
        // dedup wait, not a miss. Deterministic: the key is registered
        // in-flight before the second thread starts, and the build is
        // completed only after that thread has joined it, so it can
        // only ever resolve as `Waited`.
        let cache = FilterCache::new();
        let host = path_host(4);
        let k = key("h", 1, "true");
        let FilterFetch::MustBuild(ticket) = cache.fetch_or_build(&k, None) else {
            panic!("empty cache must hand out a build ticket");
        };
        assert_eq!(cache.in_flight(), 1);
        let waited = std::thread::scope(|s| {
            let waiter = s.spawn(|| match cache.fetch_or_build(&k, None) {
                FilterFetch::Waited(f) => f,
                other => panic!(
                    "second miss must wait on the in-flight build, got {}",
                    match other {
                        FilterFetch::Hit(_) => "Hit",
                        FilterFetch::WaitExpired => "WaitExpired",
                        FilterFetch::MustBuild(_) => "MustBuild",
                        FilterFetch::Overloaded => "Overloaded",
                        FilterFetch::Cancelled => "Cancelled",
                        FilterFetch::Waited(_) => unreachable!(),
                    }
                ),
            });
            // Handshake: complete only once the waiter holds its slot
            // on the in-flight build, so it cannot arrive late and hit.
            while ticket.slot.waiters.load(Ordering::Relaxed) == 0 {
                std::thread::yield_now();
            }
            let built = build(&host);
            ticket.complete(built.clone());
            let waited = waiter.join().unwrap();
            assert!(Arc::ptr_eq(&built, &waited), "waiter got a different Arc");
            waited
        });
        assert_eq!(cache.misses(), 1, "only the designated builder misses");
        assert_eq!(cache.dedup_waits(), 1);
        assert_eq!(cache.in_flight(), 0, "completion clears the table");
        // The memo now serves the same Arc as a plain hit.
        let hit = cache.lookup(&k).expect("memoized");
        assert!(Arc::ptr_eq(&hit, &waited));
    }

    #[test]
    fn abandoned_build_hands_the_key_to_a_waiter() {
        let cache = FilterCache::new();
        let host = path_host(4);
        let k = key("h", 1, "true");
        let FilterFetch::MustBuild(ticket) = cache.fetch_or_build(&k, None) else {
            panic!("first fetch must build");
        };
        std::thread::scope(|s| {
            let waiter = s.spawn(|| match cache.fetch_or_build(&k, None) {
                // The abandoned slot makes the waiter retry; with the
                // key free again it becomes the new designated builder.
                FilterFetch::MustBuild(t) => t.complete(build(&host)),
                _ => panic!("waiter must take over after an abandon"),
            });
            // Simulates a deadline-truncated or failed build.
            ticket.abandon();
            waiter.join().unwrap();
        });
        assert_eq!(cache.misses(), 2, "both fetches ended up building");
        assert_eq!(cache.dedup_waits(), 0);
        assert!(cache.lookup(&k).is_some(), "the takeover build memoized");
    }

    #[test]
    fn dropping_a_ticket_abandons_the_build() {
        // A builder that unwinds (panic, `?`-propagated error) must not
        // leave waiters stuck: Drop abandons.
        let cache = FilterCache::new();
        let k = key("h", 1, "true");
        let FilterFetch::MustBuild(ticket) = cache.fetch_or_build(&k, None) else {
            panic!("first fetch must build");
        };
        assert_eq!(cache.in_flight(), 1);
        drop(ticket);
        assert_eq!(cache.in_flight(), 0);
        assert!(
            matches!(cache.fetch_or_build(&k, None), FilterFetch::MustBuild(_)),
            "the key must be buildable again"
        );
    }

    #[test]
    fn wait_budget_bounds_the_block() {
        use std::time::Duration;
        let cache = FilterCache::new();
        let k = key("h", 1, "true");
        let FilterFetch::MustBuild(_ticket) = cache.fetch_or_build(&k, None) else {
            panic!("first fetch must build");
        };
        // The builder never completes within the waiter's budget: the
        // waiter gets its deadline back instead of blocking forever.
        let start = std::time::Instant::now();
        assert!(matches!(
            cache.fetch_or_build(&k, Some(Duration::from_millis(20))),
            FilterFetch::WaitExpired
        ));
        assert!(start.elapsed() >= Duration::from_millis(20));
        assert_eq!(cache.dedup_waits(), 0, "an expired wait saved nothing");
    }

    #[test]
    fn waiter_cap_sheds_the_excess_joiner() {
        use std::sync::atomic::AtomicUsize;
        // Cap of 1: the first joiner blocks, the second is shed with
        // `Overloaded` instead of convoying. Deterministic setup: the
        // builder registers first, then one joiner claims the only
        // waiter slot before the shed probe runs.
        let cache = FilterCache::new().with_max_waiters(1);
        let host = path_host(4);
        let k = key("h", 1, "true");
        let FilterFetch::MustBuild(ticket) = cache.fetch_or_build(&k, None) else {
            panic!("empty cache must hand out a build ticket");
        };
        let outcomes = AtomicUsize::new(0);
        std::thread::scope(|s| {
            let waiter = s.spawn(|| match cache.fetch_or_build(&k, None) {
                FilterFetch::Waited(_) => outcomes.fetch_add(1, Ordering::Relaxed),
                _ => panic!("first joiner fits under the cap"),
            });
            // Spin until the joiner holds its waiter slot, so the shed
            // check below is deterministic.
            while ticket.slot.waiters.load(Ordering::Relaxed) == 0 {
                std::thread::yield_now();
            }
            assert!(
                matches!(cache.fetch_or_build(&k, None), FilterFetch::Overloaded),
                "second joiner must be shed at the waiter cap"
            );
            ticket.complete(build(&host));
            waiter.join().unwrap();
        });
        assert_eq!(cache.dedup_shed(), 1);
        assert_eq!(cache.dedup_waits(), 1);
        // The shed thread freed no slot it never held; a fresh fetch
        // after completion is a plain hit.
        assert!(matches!(
            cache.fetch_or_build(&k, None),
            FilterFetch::Hit(_)
        ));
    }

    #[test]
    fn cancel_probe_aborts_a_dedup_wait() {
        use std::sync::atomic::AtomicBool;
        let cache = FilterCache::new();
        let k = key("h", 1, "true");
        let FilterFetch::MustBuild(ticket) = cache.fetch_or_build(&k, None) else {
            panic!("first fetch must build");
        };
        let cancelled = AtomicBool::new(false);
        std::thread::scope(|s| {
            let waiter = s.spawn(|| {
                let probe = || cancelled.load(Ordering::Relaxed);
                match cache.fetch_or_build_watch(&k, None, Some(&probe)) {
                    FilterFetch::Cancelled => {}
                    _ => panic!("the probe must abort the wait"),
                }
            });
            // Fire the probe once the waiter holds its slot on the
            // in-flight build; the builder never completes, so only
            // cancellation can release the waiter.
            while ticket.slot.waiters.load(Ordering::Relaxed) == 0 {
                std::thread::yield_now();
            }
            cancelled.store(true, Ordering::Relaxed);
            waiter.join().unwrap();
        });
        // The cancelled waiter released its slot: a later joiner under
        // a cap of 1 still fits.
        assert_eq!(ticket.slot.waiters.load(Ordering::Relaxed), 0);
        drop(ticket);
        assert_eq!(cache.dedup_waits(), 0, "a cancelled wait saved nothing");
    }

    #[test]
    fn invalidate_host_poisons_in_flight_builds() {
        // The satellite-1 race: a builder registered before
        // `invalidate_host` (model removal) must not resurrect an entry
        // for the dead host when it completes afterwards.
        let cache = FilterCache::new();
        let host = path_host(4);
        let k = key("h", 1, "true");
        let FilterFetch::MustBuild(ticket) = cache.fetch_or_build(&k, None) else {
            panic!("empty cache must hand out a build ticket");
        };
        cache.invalidate_host("h");
        // Waiters joined before the poison still get the filter — the
        // answer is correct for the epoch they asked about.
        std::thread::scope(|s| {
            let waiter = s.spawn(|| match cache.fetch_or_build(&k, None) {
                FilterFetch::Waited(f) => f,
                _ => panic!("joiner must share the in-flight build"),
            });
            while ticket.slot.waiters.load(Ordering::Relaxed) == 0 {
                std::thread::yield_now();
            }
            ticket.complete(build(&host));
            waiter.join().unwrap();
        });
        assert_eq!(cache.len(), 0, "poisoned completion must not memoize");
        let misses = cache.misses();
        assert!(cache.lookup(&k).is_none(), "dead-host entry resurrected");
        assert_eq!(cache.misses(), misses + 1);
    }

    #[test]
    fn invalidate_host_leaves_other_hosts_in_flight() {
        let cache = FilterCache::new();
        let host = path_host(4);
        let k = key("g", 1, "true");
        let FilterFetch::MustBuild(ticket) = cache.fetch_or_build(&k, None) else {
            panic!("empty cache must hand out a build ticket");
        };
        cache.invalidate_host("h");
        ticket.complete(build(&host));
        assert!(cache.lookup(&k).is_some(), "other host must memoize");
    }

    #[test]
    fn try_patch_replaces_with_the_repaired_clone() {
        let cache = FilterCache::new();
        let host = path_host(4);
        let f = build(&host);
        cache.insert(key("h", 1, "a"), f.clone());
        let repaired = build(&host);
        let mut seen = None;
        assert!(cache.try_patch(&key("h", 3, "a"), |old, _| {
            seen = Some(old);
            PatchDecision::Replace(repaired.clone())
        }));
        assert_eq!(seen, Some(ModelEpoch(1)));
        assert_eq!(cache.patches(), 1);
        assert_eq!(cache.promotions(), 0);
        assert_eq!(cache.len(), 1, "insert purged the superseded entry");
        let got = cache.lookup(&key("h", 3, "a")).expect("patched entry");
        assert!(Arc::ptr_eq(&got, &repaired));
        assert!(cache.lookup(&key("h", 1, "a")).is_none());
    }

    #[test]
    fn try_patch_promote_arm_rekeys_in_place() {
        let cache = FilterCache::new();
        let host = path_host(4);
        let f = build(&host);
        cache.insert(key("h", 1, "a"), f.clone());
        assert!(cache.try_patch(&key("h", 3, "a"), |_, _| PatchDecision::Promote));
        assert_eq!(cache.promotions(), 1);
        assert_eq!(cache.patches(), 0);
        let got = cache.lookup(&key("h", 3, "a")).expect("promoted entry");
        assert!(Arc::ptr_eq(&got, &f), "promotion re-keys the same Arc");
    }

    #[test]
    fn try_patch_rebuild_and_skip_fall_through() {
        let cache = FilterCache::new();
        let host = path_host(4);
        let f = build(&host);
        cache.insert(key("h", 1, "a"), f.clone());
        assert!(!cache.try_patch(&key("h", 3, "a"), |_, _| PatchDecision::Rebuild));
        assert_eq!(cache.patch_rebuilds(), 1);
        assert!(!cache.try_patch(&key("h", 3, "a"), |_, _| PatchDecision::Skip));
        assert_eq!(cache.patch_rebuilds(), 1, "skip moves no counter");
        assert!(
            cache.lookup(&key("h", 1, "a")).is_some(),
            "fall-through leaves the candidate resident"
        );
        // No candidate at all (different identity): decide never runs.
        assert!(!cache.try_patch(&key("h", 3, "b"), |_, _| panic!(
            "decide must not run without a candidate"
        )));
        // An already-memoized key short-circuits without deciding.
        cache.insert(key("h", 3, "a"), f);
        assert!(cache.try_patch(&key("h", 3, "a"), |_, _| panic!(
            "decide must not run when the key is already present"
        )));
    }

    #[test]
    fn promotion_rekeys_the_superseded_entry_in_place() {
        let cache = FilterCache::new();
        let host = path_host(4);
        let f = build(&host);
        cache.insert(key("h", 1, "a"), f.clone());
        cache.insert(key("h", 1, "b"), f.clone());
        let mut seen = None;
        assert!(cache.try_patch(&key("h", 3, "a"), |old, _| {
            seen = Some(old);
            PatchDecision::Promote
        }));
        assert_eq!(seen, Some(ModelEpoch(1)));
        assert_eq!(cache.promotions(), 1);
        let misses_before = cache.misses();
        assert!(cache.lookup(&key("h", 3, "a")).is_some(), "promoted");
        assert_eq!(cache.misses(), misses_before, "promotion → hit, no miss");
        assert!(
            cache.lookup(&key("h", 1, "a")).is_none(),
            "old key re-keyed"
        );
        assert!(
            cache.lookup(&key("h", 1, "b")).is_some(),
            "sibling constraints stay resident as future candidates"
        );
        // Promotions chain: the next bump promotes the epoch-3 slot.
        assert!(cache.try_patch(&key("h", 5, "a"), |old, _| {
            assert_eq!(old, ModelEpoch(3), "newest superseded epoch wins");
            PatchDecision::Promote
        }));
        assert_eq!(cache.promotions(), 2);
    }

    #[test]
    fn promotion_respects_the_verdict_and_the_key_identity() {
        let cache = FilterCache::new();
        let host = path_host(4);
        let f = build(&host);
        cache.insert(key("h", 1, "a"), f.clone());
        assert!(
            !cache.try_patch(&key("h", 5, "a"), |_, _| PatchDecision::Skip),
            "a refusing verdict must not promote"
        );
        assert!(
            !cache.try_patch(&key("h", 5, "b"), |_, _| PatchDecision::Promote),
            "different constraint is a different filter"
        );
        assert!(
            !cache.try_patch(&key("g", 5, "a"), |_, _| PatchDecision::Promote),
            "different host is a different namespace"
        );
        assert!(
            !cache.try_patch(&key("h", 0, "a"), |_, _| PatchDecision::Promote),
            "an older target epoch has no superseded candidate"
        );
        assert_eq!(cache.promotions(), 0);
        assert!(cache.lookup(&key("h", 1, "a")).is_some(), "entry untouched");
    }

    #[test]
    fn promotion_short_circuits_when_the_key_is_already_memoized() {
        let cache = FilterCache::new();
        let host = path_host(4);
        let f = build(&host);
        cache.insert(key("h", 5, "a"), f.clone());
        assert!(
            cache.try_patch(&key("h", 5, "a"), |_, _| panic!(
                "verdict must not run when the key is already present"
            )),
            "an already-memoized key reports success"
        );
        assert_eq!(cache.promotions(), 0, "nothing was re-keyed");
    }

    fn hkey(host: &str, epoch: u64) -> HierarchyKey {
        HierarchyKey {
            host: host.to_string(),
            epoch: ModelEpoch(epoch),
            spec: netembed::HierarchySpec::default(),
        }
    }

    #[test]
    fn hierarchy_promotion_rekeys_the_superseded_entry() {
        let cache = HierarchyCache::new();
        let host = path_host(8);
        let spec = netembed::HierarchySpec::default();
        let h = Arc::new(netembed::SubstrateHierarchy::build(&host, &spec));
        cache.insert(hkey("h", 1), h.clone());
        let mut seen = None;
        assert!(cache.try_patch(&hkey("h", 3), |old, _| {
            seen = Some(old);
            PatchDecision::Promote
        }));
        assert_eq!(seen, Some(ModelEpoch(1)));
        assert_eq!(cache.promotions(), 1);
        let got = cache.lookup(&hkey("h", 3)).expect("promoted");
        assert!(Arc::ptr_eq(&got, &h));
        assert!(cache.lookup(&hkey("h", 1)).is_none(), "old key re-keyed");
        // Refusal and identity mismatches fall through.
        assert!(!cache.try_patch(&hkey("h", 5), |_, _| PatchDecision::Skip));
        assert!(!cache.try_patch(&hkey("g", 5), |_, _| PatchDecision::Promote));
        let mut wider = hkey("h", 5);
        wider.spec.min_nodes += 1;
        assert!(
            !cache.try_patch(&wider, |_, _| PatchDecision::Promote),
            "other spec, other key"
        );
        assert_eq!(cache.promotions(), 1);
        // Already-memoized target short-circuits without a verdict.
        assert!(cache.try_patch(&hkey("h", 3), |_, _| panic!(
            "verdict must not run when the key is already present"
        )));
    }

    #[test]
    fn fingerprint_separates_structure_names_and_attrs() {
        let base = path_host(4);
        assert_eq!(network_fingerprint(&base), network_fingerprint(&base));
        assert_eq!(
            network_fingerprint(&base),
            network_fingerprint(&base.clone())
        );

        let mut extra_node = base.clone();
        extra_node.add_node("x");
        assert_ne!(network_fingerprint(&base), network_fingerprint(&extra_node));

        let mut attr_changed = base.clone();
        attr_changed.set_edge_attr(netgraph::EdgeId(0), "d", 2.0);
        assert_ne!(
            network_fingerprint(&base),
            network_fingerprint(&attr_changed)
        );

        let mut renamed = path_host(3);
        let other = path_host(3);
        renamed.set_node_attr(netgraph::NodeId(0), "cap", 1.0);
        assert_ne!(network_fingerprint(&renamed), network_fingerprint(&other));
    }
}

//! The correctness gate, run record by record between requests, outside
//! every timed span ([`crate::InlineGate`]).
//!
//! * Every delivered mapping must pass `check_mapping` against a
//!   `Problem` compiled here from the snapshot of a host epoch between
//!   the request's submit and its reply.
//! * A `Complete` answer to a planted feasible query must contain the
//!   planted mapping.
//! * Requests flagged `oracle` must match the flat `Engine::run` ECF
//!   solution set at the served epoch: equal for `Complete`, a subset of
//!   the right size for a `First`/`UpTo` answer cut by its sink.
//!
//! Any error, shed or rejected answer counts as failed.

use crate::{Request, Served};
use netembed::{check_mapping, Algorithm, Engine, Mapping, Options, Outcome, Problem, SearchMode};
use netgraph::Network;
use service::ModelEpoch;
use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

/// Every snapshot of every host taken during a run, by epoch.
#[derive(Debug, Default)]
pub struct Snapshots {
    by_host: Vec<BTreeMap<u64, Arc<Network>>>,
}

impl Snapshots {
    pub fn new(hosts: usize) -> Self {
        Snapshots {
            by_host: vec![BTreeMap::new(); hosts],
        }
    }

    pub fn record(&mut self, host: usize, epoch: ModelEpoch, net: Arc<Network>) {
        self.by_host[host].insert(epoch.0, net);
    }

    /// Snapshots of `host` whose epoch lies in `[lo, hi]`.
    pub fn between(&self, host: usize, lo: ModelEpoch, hi: ModelEpoch) -> Vec<Arc<Network>> {
        self.by_host[host]
            .range(lo.0..=hi.0)
            .map(|(_, net)| net.clone())
            .collect()
    }

    /// Drop every snapshot of `host` older than `keep_from`.
    pub fn prune_before(&mut self, host: usize, keep_from: ModelEpoch) {
        let kept = self.by_host[host].split_off(&keep_from.0);
        self.by_host[host] = kept;
    }
}

/// Result of gating one run.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Records gated.
    pub checked: u64,
    /// Requests that errored or were shed.
    pub errors: u64,
    /// Answers a check rejected.
    pub wrong: u64,
    /// Answers compared against the flat oracle.
    pub oracle_checked: u64,
    /// First few failure descriptions, for stderr.
    pub messages: Vec<String>,
}

impl Verdict {
    pub fn failed(&self) -> u64 {
        self.errors + self.wrong
    }

    fn note(&mut self, msg: String) {
        if self.messages.len() < 8 {
            self.messages.push(msg);
        }
    }

    /// Fold another verdict into this one.
    pub fn merge(&mut self, other: Verdict) {
        self.checked += other.checked;
        self.errors += other.errors;
        self.wrong += other.wrong;
        self.oracle_checked += other.oracle_checked;
        for m in other.messages {
            self.note(m);
        }
    }

    /// Gate one record; returns whether every check accepted it.
    pub fn check(&mut self, s: &Served, snaps: &Snapshots) -> bool {
        self.checked += 1;
        let req = &s.request;
        let resp = match &s.reply {
            Ok(resp) => resp,
            Err(e) => {
                self.errors += 1;
                self.note(format!("request {}: {e}", req.id));
                return false;
            }
        };
        let candidates = snaps.between(req.host, s.lo, s.hi);
        if candidates.is_empty() {
            self.wrong += 1;
            self.note(format!(
                "request {}: no snapshot in epochs [{}, {}]",
                req.id, s.lo.0, s.hi.0
            ));
            return false;
        }
        if req.oracle && !matches!(resp.outcome, Outcome::Inconclusive) {
            self.oracle_checked += 1;
        }
        let mut last_err = String::new();
        let accepted = candidates.iter().any(|net| match check_at(req, net, resp) {
            Ok(()) => true,
            Err(e) => {
                last_err = e;
                false
            }
        });
        if !accepted {
            self.wrong += 1;
            self.note(format!("request {}: {last_err}", req.id));
        }
        accepted
    }
}

/// All checks of one answer against one host snapshot.
fn check_at(req: &Request, host: &Network, resp: &service::QueryResponse) -> Result<(), String> {
    let problem = Problem::new(&req.query, host, &req.constraint).map_err(|e| e.to_string())?;
    for m in resp.mappings() {
        check_mapping(&problem, m).map_err(|e| format!("mapping rejected: {e}"))?;
    }
    if let (Outcome::Complete(found), Some(planted)) = (&resp.outcome, &req.planted) {
        let planted = Mapping::new(planted.clone());
        if check_mapping(&problem, &planted).is_ok() && !found.contains(&planted) {
            return Err("complete answer misses the planted mapping".into());
        }
    }
    if req.oracle {
        oracle_agrees(&problem, &req.options, resp)?;
    }
    Ok(())
}

/// Compare an answer with the flat, unbounded ECF enumeration.
fn oracle_agrees(
    problem: &Problem<'_>,
    options: &Options,
    resp: &service::QueryResponse,
) -> Result<(), String> {
    if matches!(resp.outcome, Outcome::Inconclusive) {
        return Ok(());
    }
    let flat = Engine::run(
        problem,
        &Options {
            algorithm: Algorithm::Ecf,
            mode: SearchMode::All,
            ..Options::default()
        },
    )
    .map_err(|e| e.to_string())?;
    let flat: HashSet<&Mapping> = flat.mappings.iter().collect();
    let got: HashSet<&Mapping> = resp.mappings().iter().collect();
    if !got.is_subset(&flat) {
        return Err("answer holds a mapping the flat oracle does not".into());
    }
    let want = match (&resp.outcome, options.mode) {
        (Outcome::Complete(_), _) => flat.len(),
        (_, _) if resp.stats.timed_out => return Ok(()),
        (_, SearchMode::First) => flat.len().min(1),
        (_, SearchMode::UpTo(k)) => flat.len().min(k),
        (_, SearchMode::All) => flat.len(),
    };
    if got.len() != want {
        return Err(format!(
            "answer has {} mappings, flat oracle implies {want}",
            got.len()
        ));
    }
    Ok(())
}

/// Break the record's first mapping (map two query nodes onto one host
/// node), so the gate has something to catch. Returns whether it did.
pub fn corrupt(s: &mut Served) -> bool {
    let Ok(resp) = &mut s.reply else {
        return false;
    };
    let first = match &mut resp.outcome {
        Outcome::Complete(ms) | Outcome::Partial(ms) => ms.first_mut(),
        Outcome::Inconclusive => None,
    };
    match first {
        Some(m) if m.len() >= 2 => {
            let mut assign = m.as_slice().to_vec();
            assign[1] = assign[0];
            *m = Mapping::new(assign);
            true
        }
        _ => false,
    }
}

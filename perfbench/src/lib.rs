//! End-to-end benchmark of the NETEMBED mapping service.
//!
//! Three seeded workloads drive the public service API
//! (`NetEmbedService::submit`, `PreparedQuery`, `Planner`), check every
//! answer, and report end-to-end metrics. A traced pass re-runs each
//! served request through the public layer functions with spans around
//! every call, and reads the service-side layers from the counters that
//! `QueryResponse::stats` and `ServiceTelemetry` expose. See
//! `perfbench/README.md` for the workload table, the metric definitions
//! and the written predictions.

pub mod gate;
pub mod large_host;
pub mod ledger;
pub mod measure;
pub mod monitor_churn;
pub mod paper_cold;
pub mod replay;
pub mod report;
pub mod trace;

use gate::Snapshots;
use ledger::{CacheSnap, Layers, ServiceSide};
use measure::{E2e, Tally};
use netembed::Options;
use netgraph::{Network, NodeId};
use replay::Repair;
use report::Report;
use service::{ModelEpoch, NetEmbedService, QueryResponse, ServiceError, ServiceTelemetry};
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::Tracer;

/// Workload names, in the order of `BENCHMARK.json`.
pub const WORKLOADS: [&str; 3] = ["paper-cold", "monitor-churn", "large-host"];

/// Input sizes. `Full` is the benchmark; `Tiny` is the smoke-test scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

/// One run's settings. Seed, length and tracing come from the command
/// line; the smoke test also sets the scale and the corruption probe.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Emit the per-layer metrics (traced run) instead of the
    /// end-to-end ones.
    pub trace: bool,
    pub scale: Scale,
    /// Corrupt the first delivered mapping before the correctness gate
    /// runs (smoke test of the gate itself).
    pub corrupt: bool,
}

impl RunConfig {
    pub fn measure_for(&self) -> Duration {
        Duration::from_secs_f64(self.seconds.max(0.05))
    }
}

/// One generated request, as the client submits it.
#[derive(Debug, Clone)]
pub struct Request {
    /// Position in the seeded stream.
    pub id: u64,
    /// Index of the host model in the workload's host table.
    pub host: usize,
    pub query: Network,
    pub constraint: String,
    pub options: Options,
    /// The planted embedding of a feasible sampled query.
    pub planted: Option<Vec<NodeId>>,
    /// Whether the gate compares this answer with a flat ECF run.
    pub oracle: bool,
}

/// One answered (or failed) request, on its way to the gate.
#[derive(Debug)]
pub struct Served {
    pub request: Arc<Request>,
    /// Host epoch read just before the submit and just after the reply:
    /// the answer was computed at a host epoch in `[lo, hi]`.
    pub lo: ModelEpoch,
    pub hi: ModelEpoch,
    pub reply: Result<QueryResponse, ServiceError>,
    /// Submit → reply.
    pub latency: Duration,
    /// When the reply arrived.
    pub done: Instant,
}

/// What the gate reports of one request, for [`Tally::record`].
#[derive(Debug, Clone, Copy)]
pub struct Row {
    pub host: usize,
    pub lo: ModelEpoch,
    pub latency: Duration,
    pub done: Instant,
    /// Answered and accepted by every check of the gate.
    pub ok: bool,
    /// §VII-E: a definite verdict within the deadline.
    pub decided: bool,
}

/// A registry commit made during the measured phase.
#[derive(Debug, Clone, Copy)]
pub struct Commit {
    pub host: usize,
    /// The epoch the commit produced.
    pub epoch: ModelEpoch,
    /// When the commit call started.
    pub at: Instant,
}

/// Seeded per-item generator: the stream is a function of the workload
/// seed and the item index only, never of timing.
pub fn item_rng(seed: u64, stream: u64, index: u64) -> rand::rngs::StdRng {
    let mixed = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
        .wrapping_add(index.wrapping_mul(0x94D0_49BB_1331_11EB));
    topogen::rng(mixed)
}

/// Run `setup` `n` times, dropping each result before the next, and
/// keep the last one with every set-up's wall time (s): `setup_s` is
/// their median.
pub fn repeat_setup<W>(n: usize, setup: impl Fn() -> W) -> (W, Vec<f64>) {
    let mut times = Vec::with_capacity(n);
    let mut world = None;
    for _ in 0..n.max(1) {
        drop(world.take());
        let t = Instant::now();
        world = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    (world.expect("at least one set-up"), times)
}

/// The epoch of `host` in `svc`'s registry; the host is registered for
/// the whole run.
pub fn epoch_of(svc: &service::NetEmbedService, host: &str) -> ModelEpoch {
    svc.registry()
        .epoch(host)
        .expect("workload hosts stay registered")
}

/// The records of one measured pass.
pub struct Pass {
    pub tally: Tally,
    /// Wall time of the pass, gating excluded.
    pub wall: Duration,
    /// Client time between a reply and the next submit (ms).
    pub lag: Vec<f64>,
    /// Traced submit → reply times (ms) by the repair class the replay
    /// found.
    pub buckets: Vec<(Repair, Vec<f64>)>,
    /// Planner responses that rode in another request's group.
    pub coalesced: u64,
    pub verdict: gate::Verdict,
}

impl Pass {
    /// An empty pass of a workload with latency limit `limit`.
    pub fn new(limit: Duration) -> Self {
        Pass {
            tally: Tally::new(limit),
            wall: Duration::ZERO,
            lag: Vec::new(),
            buckets: Vec::new(),
            coalesced: 0,
            verdict: gate::Verdict::default(),
        }
    }
}

/// The correctness gate, run record by record between requests: its
/// time is kept out of the pass's wall time, and each host snapshot can
/// be dropped as soon as a commit supersedes it.
pub struct InlineGate {
    verdict: gate::Verdict,
    corrupt: bool,
    /// Time spent gating.
    pub time: Duration,
}

impl InlineGate {
    /// `corrupt`: break the first delivered mapping before gating it.
    pub fn new(corrupt: bool) -> Self {
        InlineGate {
            verdict: gate::Verdict::default(),
            corrupt,
            time: Duration::ZERO,
        }
    }

    /// Gate `served` and keep its row.
    pub fn check(&mut self, mut served: Served, snaps: &Snapshots) -> Row {
        let t = Instant::now();
        if self.corrupt && gate::corrupt(&mut served) {
            self.corrupt = false;
        }
        let ok = self.verdict.check(&served, snaps);
        self.time += t.elapsed();
        Row {
            host: served.request.host,
            lo: served.lo,
            latency: served.latency,
            done: served.done,
            ok,
            decided: measure::decided(&served.reply),
        }
    }

    pub fn finish(self) -> gate::Verdict {
        self.verdict
    }
}

/// The service's counters at one instant.
pub struct Probe {
    pub telemetry: ServiceTelemetry,
    pub cache: CacheSnap,
}

impl Probe {
    pub fn of(svc: &NetEmbedService) -> Self {
        Probe {
            telemetry: svc.telemetry(),
            cache: CacheSnap::of(svc),
        }
    }
}

/// Everything a workload hands to [`finish`].
pub struct Finish<'a> {
    pub workload: &'static str,
    pub cfg: &'a RunConfig,
    /// Wall time of each setup repetition (s).
    pub setups: &'a [f64],
    /// One pass, or an untraced and a traced pass in a traced run.
    pub passes: Vec<Pass>,
    pub tracer: &'a Tracer,
    /// Service counters around the measured phase.
    pub before: Probe,
    pub after: Probe,
    pub latency_limit: Duration,
    /// Tail percentile of the workload (see [`measure::tail`]).
    pub tail_pct: f64,
}

/// The three non-metric fields of the result line.
#[derive(Debug, Clone, Copy)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
}

/// Emit the end-to-end metrics (untraced run) or the per-layer metrics
/// (traced run) of the gated passes into `r`.
pub fn finish(mut f: Finish<'_>, r: &mut Report) -> Outcome {
    let mut verdict = gate::Verdict::default();
    let mut e2e = Vec::new();
    for p in &mut f.passes {
        verdict.merge(std::mem::take(&mut p.verdict));
        e2e.push(E2e::of(&p.tally, p.wall, f.tail_pct));
    }
    let attempted = verdict.checked;
    let failed = verdict.failed();
    report::run_meta(r, f.workload, f.cfg.seed, f.cfg.seconds, f.cfg.trace);
    r.meta_raw("setup_samples_s", measure::json_list(f.setups));
    r.meta_num("oracle_checked", verdict.oracle_checked as f64);
    r.meta_num("lag_p50_ms", measure::median(&f.passes[0].lag));
    if f.cfg.trace {
        let traced = f.passes.last().expect("a traced pass");
        Layers {
            tracer: f.tracer,
            traced_requests: traced.tally.latencies_ms.len() as u64,
            e2e_mean_ms: measure::mean(&traced.tally.latencies_ms),
            lag_ms: measure::median(&f.passes[0].lag),
        }
        .emit(r);
        ServiceSide {
            before: &f.before.telemetry,
            after: &f.after.telemetry,
            cache_before: f.before.cache,
            cache_after: f.after.cache,
            buckets: &traced.buckets,
            planner_responses: f
                .passes
                .iter()
                .map(|p| p.tally.latencies_ms.len() as u64)
                .sum(),
            coalesced: f.passes.iter().map(|p| p.coalesced).sum(),
        }
        .emit(r);
        r.metric(
            "fail_ratio",
            failed as f64 / attempted.max(1) as f64,
            "ratio",
        );
        r.meta_num("untraced_latency_p50_ms", e2e[0].p50_ms);
    } else {
        r.metric("setup_s", measure::median(f.setups), "s");
        e2e[0].emit(r, f.latency_limit);
        r.metric("peak_rss_mb", measure::peak_rss_mb(), "MiB");
    }
    for m in &verdict.messages {
        eprintln!("gate: {m}");
    }
    Outcome {
        attempted,
        failed,
        correct: failed == 0,
    }
}

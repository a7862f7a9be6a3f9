//! Per-layer metrics of the traced run.
//!
//! Benchmark-side layers come from the replay spans ([`crate::replay`]);
//! service-side layers (filter cache repair, hierarchy cache, planner,
//! admission, worker pool) come from the counters the service exposes,
//! differenced over the measured phase. Every workload emits every
//! metric; a layer a workload never enters reads 0.
//!
//! Time metrics are the mean self time per call of the layer. The
//! ledger adds the layers' total self time per traced request and
//! compares it with the mean submit → reply time of the same requests:
//! `ledger.residual_ratio = (e2e − Σ layers) / e2e`. Means, not medians,
//! because means add: a layer that runs on one request in a hundred
//! (re-coarsening, a rebuild) still owns its share of the total.

use crate::measure;
use crate::replay::{Repair, NOT_LAYERS};
use crate::report::Report;
use crate::trace::{LayerTotal, Tracer};
use netembed::HistogramSnapshot;
use service::{NetEmbedService, ServiceTelemetry};

/// Span-derived layers plus the ledger of one traced run.
pub struct Layers<'a> {
    pub tracer: &'a Tracer,
    /// Requests replayed in the traced half.
    pub traced_requests: u64,
    /// Mean submit → reply time of the same traced-half requests. The
    /// service call itself carries no spans, so this is an untraced
    /// end-to-end time, paired request by request with the replay.
    pub e2e_mean_ms: f64,
    /// Client time between a reply and the next submit, median.
    pub lag_ms: f64,
}

fn per(total: u64, calls: u64) -> f64 {
    if calls == 0 {
        0.0
    } else {
        total as f64 / calls as f64
    }
}

impl Layers<'_> {
    pub fn emit(&self, r: &mut Report) {
        let totals = self.tracer.layer_totals();
        let t = |name: &str| totals.get(name).copied().unwrap_or_default();
        let c = |name: &str| self.tracer.counter(name);

        let parse = t("cexpr.parse");
        let parse_and_lint = LayerTotal {
            self_time: parse.self_time + t("cexpr.check").self_time,
            calls: parse.calls,
        };
        r.metric("cexpr.parse_us", parse_and_lint.mean_us(), "us");
        r.metric("problem.compile_us", t("problem.compile").mean_us(), "us");
        r.metric("filter.build_us", t("filter.build").mean_us(), "us");
        let builds = c("filter.builds");
        r.metric(
            "filter.constraint_evals",
            per(c("filter.constraint_evals"), builds),
            "count",
        );
        r.metric("filter.cells", per(c("filter.cells"), builds), "count");
        r.metric("filter.patch_us", t("filter.patch").mean_us(), "us");
        r.metric(
            "hierarchy.coarsen_ms",
            t("hierarchy.coarsen").mean_us() / 1e3,
            "ms",
        );
        r.metric("hierarchy.refine_us", t("hierarchy.refine").mean_us(), "us");
        r.metric(
            "hierarchy.restricted_build_us",
            t("hierarchy.restricted_build").mean_us(),
            "us",
        );
        let full = c("hierarchy.full_cells");
        r.metric(
            "hierarchy.expanded_ratio",
            per(c("hierarchy.expanded_cells"), full),
            "ratio",
        );
        for (metric, span) in [
            ("search.ecf_us", "search.ecf"),
            ("search.parallel_us", "search.parallel"),
            ("search.rwb_us", "search.rwb"),
            ("search.lns_us", "search.lns"),
        ] {
            r.metric(metric, t(span).mean_us(), "us");
        }
        let runs = c("search.runs");
        r.metric(
            "search.nodes_visited",
            per(c("search.nodes_visited"), runs),
            "count",
        );
        r.metric("search.prunes", per(c("search.prunes"), runs), "count");
        r.metric(
            "parallel.tasks_stolen",
            per(c("parallel.tasks_stolen"), runs),
            "count",
        );
        r.metric("verify.us", t("verify").mean_us(), "us");
        r.metric("registry.commit_us", t("registry.commit").mean_us(), "us");

        let layer_ms: f64 = totals
            .iter()
            .filter(|(name, _)| !NOT_LAYERS.contains(name))
            .map(|(_, l)| l.self_time.as_secs_f64() * 1e3)
            .sum::<f64>()
            / self.traced_requests.max(1) as f64;
        let e2e = self.e2e_mean_ms.max(1e-9);
        r.metric(
            "ledger.residual_ratio",
            (self.e2e_mean_ms - layer_ms) / e2e,
            "ratio",
        );
        // The service calls carry no spans; what tracing adds is the
        // recorder's own cost for the spans of each traced request.
        let spans_per_request =
            self.tracer.spans().len() as f64 / self.traced_requests.max(1) as f64;
        let recorder_ms = spans_per_request * measure::ms(Tracer::span_cost());
        r.metric("trace.overhead_ratio", recorder_ms / e2e, "ratio");
        r.meta_num("trace.spans_per_request", spans_per_request);
        r.metric("loadgen.lag_ms", self.lag_ms, "ms");
        r.meta_num("ledger.layer_ms_per_request", layer_ms);
        r.meta_num("ledger.e2e_mean_ms", self.e2e_mean_ms);
        r.meta_num("ledger.traced_requests", self.traced_requests as f64);
    }
}

/// The filter cache's lifetime counters at one instant.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheSnap {
    pub hits: u64,
    pub misses: u64,
    pub dedup_waits: u64,
    pub promotions: u64,
    pub patches: u64,
    pub patch_rebuilds: u64,
}

impl CacheSnap {
    pub fn of(svc: &NetEmbedService) -> Self {
        let c = svc.cache();
        CacheSnap {
            hits: c.hits(),
            misses: c.misses(),
            dedup_waits: c.dedup_waits(),
            promotions: c.promotions(),
            patches: c.patches(),
            patch_rebuilds: c.patch_rebuilds(),
        }
    }
}

/// What the service said over the measured phase.
pub struct ServiceSide<'a> {
    pub before: &'a ServiceTelemetry,
    pub after: &'a ServiceTelemetry,
    pub cache_before: CacheSnap,
    pub cache_after: CacheSnap,
    /// Traced submit → reply times, bucketed by repair class.
    pub buckets: &'a [(Repair, Vec<f64>)],
    /// Responses and how many of them rode in a coalesced planner group.
    pub planner_responses: u64,
    pub coalesced: u64,
}

fn diff(after: &HistogramSnapshot, before: &HistogramSnapshot) -> HistogramSnapshot {
    let mut out = *after;
    for (a, b) in out.buckets.iter_mut().zip(&before.buckets) {
        *a = a.saturating_sub(*b);
    }
    out
}

fn quantile_ms(h: &HistogramSnapshot, q: f64) -> f64 {
    h.quantile(q).map_or(0.0, measure::ms)
}

impl ServiceSide<'_> {
    pub fn emit(&self, r: &mut Report) {
        let (b, a) = (self.cache_before, self.cache_after);
        let lookups = (a.hits - b.hits) + (a.misses - b.misses);
        r.metric("cache.hit_ratio", per(a.hits - b.hits, lookups), "ratio");
        r.metric(
            "cache.patch_ratio",
            per(a.patches - b.patches, lookups),
            "ratio",
        );
        r.metric(
            "cache.promote_ratio",
            per(a.promotions - b.promotions, lookups),
            "ratio",
        );
        r.metric(
            "cache.rebuild_ratio",
            per(a.misses - b.misses, lookups),
            "ratio",
        );
        r.metric(
            "cache.dedup_waits",
            (a.dedup_waits - b.dedup_waits) as f64,
            "count",
        );
        r.meta_num("cache.lookups", lookups as f64);
        r.meta_num(
            "cache.patch_rebuilds",
            (a.patch_rebuilds - b.patch_rebuilds) as f64,
        );
        for class in Repair::ALL {
            let times = self
                .buckets
                .iter()
                .find(|(c, _)| *c == class)
                .map(|(_, t)| t.as_slice())
                .unwrap_or(&[]);
            r.metric(
                &format!("submit.{}_us", class.name()),
                measure::median(times) * 1e3,
                "us",
            );
            r.meta_num(
                &format!("submit.{}_samples", class.name()),
                times.len() as f64,
            );
        }

        let (tb, ta) = (self.before, self.after);
        let hier_hits = ta.hierarchy_cache_hits - tb.hierarchy_cache_hits;
        let hier_lookups = hier_hits + (ta.hierarchy_cache_misses - tb.hierarchy_cache_misses);
        r.metric(
            "hierarchy_cache.hit_ratio",
            per(hier_hits, hier_lookups),
            "ratio",
        );
        let wait = diff(&ta.queue_wait, &tb.queue_wait);
        let dispatch = diff(&ta.dispatch_latency, &tb.dispatch_latency);
        r.metric("planner.queue_wait_p50_ms", quantile_ms(&wait, 0.5), "ms");
        r.metric("planner.queue_wait_tail_ms", quantile_ms(&wait, 0.99), "ms");
        r.metric("planner.dispatch_ms", quantile_ms(&dispatch, 0.5), "ms");
        r.metric(
            "planner.coalesced_ratio",
            per(self.coalesced, self.planner_responses),
            "ratio",
        );
        r.meta_num("planner.queue_wait_samples", wait.count() as f64);
        let shed = ta.shed.total() - tb.shed.total();
        r.metric("admission.shed", shed as f64, "count");
        r.meta_raw(
            "admission.shed_by_reason",
            format!(
                "{{\"queue_full\": {}, \"group_full\": {}, \"deadline_hopeless\": {}, \"dedup_waiters_full\": {}, \"stale_model\": {}}}",
                ta.shed.queue_full - tb.shed.queue_full,
                ta.shed.group_full - tb.shed.group_full,
                ta.shed.deadline_hopeless - tb.shed.deadline_hopeless,
                ta.shed.dedup_waiters_full - tb.shed.dedup_waiters_full,
                ta.shed.stale_model - tb.shed.stale_model,
            ),
        );
        r.metric(
            "pool.spawned",
            ta.spawned_total.saturating_sub(tb.spawned_total) as f64,
            "count",
        );
    }
}

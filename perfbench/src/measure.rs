//! End-to-end metrics from the served records of one pass.

use crate::report::Report;
use crate::{Commit, Row};
use netembed::Outcome;
use service::{QueryResponse, ServiceError};
use std::time::Duration;

/// Median of `values` (0 for none).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Tail percentiles, highest first.
pub const TAIL_LADDER: [f64; 4] = [99.9, 99.0, 90.0, 50.0];

/// The tail: the `want` percentile (a [`TAIL_LADDER`] rung fixed per
/// workload, so a faster build does not switch percentiles), lowered
/// rung by rung until at least ten samples lie beyond it. Returns
/// `(value, percentile, samples beyond)`.
pub fn tail(values: &[f64], want: f64) -> (f64, f64, usize) {
    if values.is_empty() {
        return (0.0, 0.0, 0);
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    for p in TAIL_LADDER.into_iter().filter(|&p| p <= want) {
        let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
        let beyond = n - rank;
        if beyond >= 10 {
            return (v[rank - 1], p, beyond);
        }
    }
    (v[n - 1], 100.0, 0)
}

/// The `p`-th percentile of `values` by rank (0 for none).
pub fn quantile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0 * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Mean of `values` (0 for none).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// §VII-E: a definite verdict within the deadline — `Complete`, or a
/// `First`/`UpTo` answer satisfied without timing out.
pub fn decided(reply: &Result<QueryResponse, ServiceError>) -> bool {
    match reply {
        Ok(resp) => match resp.outcome {
            Outcome::Complete(_) => true,
            Outcome::Partial(_) => !resp.stats.timed_out,
            Outcome::Inconclusive => false,
        },
        Err(_) => false,
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// What one pass keeps for its end-to-end metrics: eight bytes a
/// request, so the process's memory does not grow with anything else.
#[derive(Debug, Default)]
pub struct Tally {
    pub latencies_ms: Vec<f64>,
    /// Answered and accepted by the gate.
    pub ok: u64,
    pub decided: u64,
    /// Accepted within the workload's latency limit.
    pub within_limit: u64,
    /// Commit call → first accepted answer at the new epoch, per commit.
    pub commit_to_answer_ms: Vec<f64>,
    /// Commits still waiting for their first answer.
    pending: Vec<Commit>,
    limit: Duration,
}

impl Tally {
    pub fn new(limit: Duration) -> Self {
        Tally {
            limit,
            ..Tally::default()
        }
    }

    pub fn commit(&mut self, c: Commit) {
        self.pending.push(c);
    }

    /// Count one gated request. Requests arrive in reply order from one
    /// client, so the first accepted answer on a committed host whose
    /// submit saw the new epoch closes that commit.
    pub fn record(&mut self, row: Row) {
        self.latencies_ms.push(ms(row.latency));
        self.decided += u64::from(row.decided);
        if !row.ok {
            return;
        }
        self.ok += 1;
        self.within_limit += u64::from(row.latency <= self.limit);
        let done = row.done;
        let c2a = &mut self.commit_to_answer_ms;
        self.pending.retain(|c| {
            let answered = c.host == row.host && row.lo >= c.epoch;
            if answered {
                c2a.push(ms(done.saturating_duration_since(c.at)));
            }
            !answered
        });
    }
}

/// The end-to-end metrics of one pass.
#[derive(Debug, Clone, Default)]
pub struct E2e {
    pub attempted: u64,
    pub p50_ms: f64,
    pub mean_ms: f64,
    pub tail_ms: f64,
    pub tail_pct: f64,
    pub tail_beyond: usize,
    pub throughput_rps: f64,
    pub decided_ratio: f64,
    pub sla_ratio: f64,
    pub commit_to_answer_ms: f64,
    pub commit_samples: usize,
    /// Latency at p90, p95, p99, p99.9 and the maximum.
    pub spread_ms: [f64; 5],
}

impl E2e {
    pub fn of(t: &Tally, wall: Duration, tail_pct: f64) -> E2e {
        let lat = &t.latencies_ms;
        let attempted = lat.len() as u64;
        let (tail_ms, tail_pct, tail_beyond) = tail(lat, tail_pct);
        E2e {
            attempted,
            p50_ms: median(lat),
            mean_ms: mean(lat),
            tail_ms,
            tail_pct,
            tail_beyond,
            throughput_rps: t.ok as f64 / wall.as_secs_f64().max(1e-9),
            decided_ratio: ratio(t.decided, attempted),
            sla_ratio: ratio(t.within_limit, attempted),
            commit_to_answer_ms: median(&t.commit_to_answer_ms),
            commit_samples: t.commit_to_answer_ms.len(),
            spread_ms: [90.0, 95.0, 99.0, 99.9, 100.0].map(|p| quantile(lat, p)),
        }
    }

    /// Append the end-to-end metrics (minus `setup_s` and
    /// `peak_rss_mb`, which the caller owns) and their metadata.
    pub fn emit(&self, r: &mut Report, limit: Duration) {
        r.metric("latency_p50_ms", self.p50_ms, "ms");
        r.metric("latency_tail_ms", self.tail_ms, "ms");
        r.metric("throughput_rps", self.throughput_rps, "1/s");
        r.metric("decided_ratio", self.decided_ratio, "ratio");
        r.metric("commit_to_answer_ms", self.commit_to_answer_ms, "ms");
        r.metric("sla_ratio", self.sla_ratio, "ratio");
        r.meta_num("latency_samples", self.attempted as f64);
        r.meta_num("latency_tail_percentile", self.tail_pct);
        r.meta_num("latency_tail_beyond", self.tail_beyond as f64);
        r.meta_num("commit_to_answer_samples", self.commit_samples as f64);
        r.meta_num("latency_limit_ms", ms(limit));
        r.meta_raw(
            "latency_p90_p95_p99_p999_max_ms",
            json_list(&self.spread_ms),
        );
    }
}

fn ratio(n: u64, d: u64) -> f64 {
    if d == 0 {
        0.0
    } else {
        n as f64 / d as f64
    }
}

/// Peak resident memory of this process, in MiB (0 where unknown).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A JSON list of numbers.
pub fn json_list(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(|v| crate::report::num(*v)).collect();
    format!("[{}]", items.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        // p99 of 100 samples has one beyond it; p90 has ten.
        assert_eq!(tail(&v, 99.0), (90.0, 90.0, 10));
        let v: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(tail(&v, 99.0), (1980.0, 99.0, 20));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}

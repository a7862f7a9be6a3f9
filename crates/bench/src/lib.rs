//! Shared fixtures for the Criterion benchmarks.
//!
//! Each `benches/figXX_*.rs` target regenerates one figure of the paper at
//! a reduced, benchmark-friendly scale (Criterion needs many iterations
//! per point, so the full 296-site trace would take hours). The harness
//! binary (`cargo run -p harness --release -- <exp>`) produces the
//! full-scale CSV series; these benches track regressions on the same
//! workload shapes.

use netembed::{Algorithm, Engine, Options, SearchMode};
use netgraph::Network;
use std::fmt;
use std::path::Path;
use std::time::Duration;
use topogen::{subgraph_query, PlanetlabParams, QueryWorkload, SubgraphParams};

/// Benchmark-scale PlanetLab-like host (60 sites ≈ 1/5 of the trace).
pub fn bench_planetlab() -> Network {
    topogen::planetlab_like(
        &PlanetlabParams {
            sites: 60,
            measured_prob: 0.66,
            clusters: 4,
        },
        &mut topogen::rng(0xBEEF),
    )
}

/// Benchmark-scale BRITE-like host.
pub fn bench_brite(n: usize) -> Network {
    topogen::brite_like(
        &topogen::BriteParams::paper_default(n),
        &mut topogen::rng(0xB17E),
    )
}

/// Planted subgraph query of size `n`.
pub fn planted(host: &Network, n: usize, seed: u64) -> QueryWorkload {
    subgraph_query(
        host,
        &SubgraphParams {
            n,
            edge_keep: 0.3,
            slack: 0.02,
        },
        &mut topogen::rng(seed),
    )
}

/// One timed engine run (the unit every benchmark iterates).
pub fn embed_once(
    host: &Network,
    wl: &QueryWorkload,
    algorithm: Algorithm,
    mode: SearchMode,
) -> usize {
    let engine = Engine::new(host);
    let options = Options {
        algorithm,
        mode,
        timeout: Some(Duration::from_secs(30)),
        ..Options::default()
    };
    engine
        .embed(&wl.query, &wl.constraint, &options)
        .map(|r| r.mappings.len())
        .unwrap_or(0)
}

/// One value in a bench JSON report.
pub enum Json {
    /// Integer count or nanosecond time.
    Int(u64),
    /// Ratio printed with a fixed number of decimals.
    Fixed(f64, usize),
    /// String, escaped on output.
    Str(String),
    /// Integer array.
    Ints(Vec<u64>),
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Int(v) => write!(f, "{v}"),
            Json::Fixed(v, decimals) => write!(f, "{v:.decimals$}"),
            Json::Str(s) => write!(f, "\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\"")),
            Json::Ints(vs) => {
                let items: Vec<String> = vs.iter().map(u64::to_string).collect();
                write!(f, "[{}]", items.join(", "))
            }
        }
    }
}

/// A named field of a report header or row.
pub type Field = (&'static str, Json);

/// The report [`write_report`] writes, for `host_cores` cores.
fn render_report(header: &[Field], host_cores: usize, rows: &[Vec<Field>]) -> String {
    let mut out = String::from("{\n");
    for (key, value) in header {
        out.push_str(&format!("  \"{key}\": {value},\n"));
    }
    out.push_str(&format!("  \"host_cores\": {host_cores},\n"));
    out.push_str("  \"scenarios\": [\n");
    let lines: Vec<String> = rows
        .iter()
        .map(|row| {
            let fields: Vec<String> = row.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
            format!("    {{{}}}", fields.join(", "))
        })
        .collect();
    out.push_str(&lines.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

/// Write a bench report to `path`: one `"key": value` line per header
/// field, then this machine's `host_cores`, then the `rows` as a
/// `"scenarios"` array with one JSON object per line.
pub fn write_report(path: &Path, header: &[Field], rows: &[Vec<Field>]) {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let out = render_report(header, cores, rows);
    std::fs::write(path, out).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_keeps_the_committed_layout() {
        let header = [
            ("bench", Json::Str("abl_x".into())),
            ("samples", Json::Int(9)),
        ];
        let row = |name: &str, ratio: f64| {
            vec![
                ("name", Json::Str(name.into())),
                ("level_sizes", Json::Ints(vec![4, 2])),
                ("ratio", Json::Fixed(ratio, 3)),
            ]
        };
        let got = render_report(&header, 2, &[row("a\"b", 1.0), row("c", 0.12345)]);
        let want = "{\n  \"bench\": \"abl_x\",\n  \"samples\": 9,\n  \"host_cores\": 2,\n  \
                    \"scenarios\": [\n    \
                    {\"name\": \"a\\\"b\", \"level_sizes\": [4, 2], \"ratio\": 1.000},\n    \
                    {\"name\": \"c\", \"level_sizes\": [4, 2], \"ratio\": 0.123}\n  ]\n}\n";
        assert_eq!(got, want);
    }
}

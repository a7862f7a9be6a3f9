//! The run's output: one metadata line and one result line, both JSON.

use std::fmt::Write as _;

/// Metrics and metadata of one run.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<(String, f64, String)>,
    meta: Vec<(String, String)>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics
            .push((name.to_string(), value, unit.to_string()));
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }

    pub fn meta_num(&mut self, key: &str, value: f64) {
        self.meta.push((key.to_string(), num(value)));
    }

    pub fn meta_str(&mut self, key: &str, value: &str) {
        self.meta.push((key.to_string(), quote(value)));
    }

    /// A metadata entry whose value is already JSON.
    pub fn meta_raw(&mut self, key: &str, json: String) {
        self.meta.push((key.to_string(), json));
    }

    /// `{"meta": {...}}`, printed before the result line.
    pub fn meta_line(&self) -> String {
        let mut out = String::from("{\"meta\": {");
        for (i, (k, v)) in self.meta.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "{}: {v}", quote(k));
        }
        out.push_str("}}");
        out
    }

    /// The result line: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn result_line(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(name),
                num(*value),
                quote(unit)
            );
        }
        out.push_str("}}");
        out
    }
}

/// A finite JSON number with all its digits.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The commit the checkout was taken from, read from `.git` when present.
pub fn git_sha() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".to_string(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(sha) = std::fs::read_to_string(format!(".git/{reference}")) {
        return sha.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (sha, name) = l.split_once(' ')?;
                (name == reference).then(|| sha.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Metadata every run records, so before/after runs on one machine can
/// be matched up.
pub fn run_meta(r: &mut Report, workload: &str, seed: u64, seconds: f64, trace: bool) {
    r.meta_str("workload", workload);
    r.meta_num("seed", seed as f64);
    r.meta_num("seconds", seconds);
    r.meta_num("trace", f64::from(u8::from(trace)));
    r.meta_str("git_sha", &git_sha());
    r.meta_num(
        "nproc",
        std::thread::available_parallelism().map_or(1.0, |n| n.get() as f64),
    );
    r.meta_str("rustc", env!("PERFBENCH_RUSTC"));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_four_keys() {
        let mut r = Report::default();
        r.metric("latency_p50_ms", 1.25, "ms");
        let line = r.result_line(true, 3, 0);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"latency_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
        assert_eq!(quote("a\"b"), "\"a\\\"b\"");
    }
}

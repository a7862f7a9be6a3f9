//! Command line of the benchmark:
//!
//! ```text
//! perfbench --workload <paper-cold|monitor-churn|large-host> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a metadata line and, last, the result line
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
//! Exits 1 when the correctness gate rejects any answer, 2 on bad usage.

use perfbench::report::Report;
use perfbench::{large_host, monitor_churn, paper_cold, RunConfig, Scale, WORKLOADS};

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn main() {
    let mut workload = None;
    let mut cfg = RunConfig {
        seed: 1,
        seconds: 10.0,
        trace: false,
        scale: Scale::Full,
        corrupt: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => cfg.seed = value.parse().unwrap_or_else(|_| usage("bad --seed")),
            "--seconds" => {
                cfg.seconds = value.parse().unwrap_or_else(|_| usage("bad --seconds"));
            }
            "--trace" => cfg.trace = value == "1",
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    let mut report = Report::default();
    let outcome = match workload.as_str() {
        "paper-cold" => paper_cold::run(&cfg, &mut report),
        "monitor-churn" => monitor_churn::run(&cfg, &mut report),
        "large-host" => large_host::run(&cfg, &mut report),
        other => usage(&format!("unknown workload {other}")),
    };
    println!("{}", report.meta_line());
    println!(
        "{}",
        report.result_line(outcome.correct, outcome.attempted, outcome.failed)
    );
    if !outcome.correct {
        std::process::exit(1);
    }
}

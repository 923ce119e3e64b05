//! Lints a Prometheus text exposition file (e.g. a saved `/metrics`
//! scrape) and exits nonzero on any violation: valid exposition format,
//! plus the precomputed p50/p90/p99 quantile gauges the engine promises
//! next to every histogram family. The same two lints run against the
//! engine's own renderer in `sp_bench::prom`'s tests.
//!
//! Usage: `cargo run -p sp-bench --bin promlint -- <path>`

use std::process::ExitCode;

use sp_bench::prom::{lint, lint_quantiles};

fn main() -> ExitCode {
    let Some(path) = std::env::args().nth(1) else {
        eprintln!("usage: promlint <path>");
        return ExitCode::from(2);
    };
    let text = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("promlint: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut errors = lint(&text);
    errors.extend(lint_quantiles(&text));
    if errors.is_empty() {
        let samples = text.lines().filter(|l| !l.is_empty() && !l.starts_with('#')).count();
        println!("promlint: {path} OK ({samples} samples)");
        ExitCode::SUCCESS
    } else {
        for e in &errors {
            eprintln!("promlint: {path}: {e}");
        }
        eprintln!("promlint: {} violation(s)", errors.len());
        ExitCode::FAILURE
    }
}

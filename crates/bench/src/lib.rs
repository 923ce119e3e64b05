//! # sp-bench — the paper's figures and the release lints
//!
//! Regenerates every figure of the paper's evaluation (§VII). One binary
//! per figure:
//!
//! * `fig7 [a|p|c|d|all]` — the three enforcement mechanisms compared on
//!   output rate, processing cost, memory and policy-size sensitivity;
//! * `fig8 [a|b|all]` — Security Shield overhead vs select and project;
//! * `fig9` — nested-loop vs index SAJoin across sp selectivities;
//! * `shared` — the §VI-C multi-query sharing ablation.
//!
//! Numbers are machine-specific; the *shapes* (who wins, by what factor,
//! where the crossovers sit) are what reproduce the paper. Run in release
//! mode. Every timed cell is the median of [`timing::RUNS`] runs with the
//! fastest and slowest beside it ([`timing`] is the only module that
//! reads the clock); the repository's measured numbers — throughput,
//! latency, per-layer costs — come from `perfbench/`, not from here. Each
//! binary prints an aligned table and appends JSON-lines rows to
//! `target/bench-results.jsonl` for EXPERIMENTS.md bookkeeping.
//!
//! The other binaries are lints, not measurements: `fig7 r`, `fig10`,
//! `crypto_bench`, `server_load`, `failover_drill` and `promlint` print
//! counters, time nothing, and exit non-zero when an invariant breaks.

#![warn(missing_docs)]

use std::io::Write as _;
use std::time::Duration;

pub mod mechanisms;
pub mod prom;
pub mod timing;
pub mod workloads;

/// One measured table row, serialized to the results log.
#[derive(Debug, Clone)]
pub struct Row {
    /// Experiment id, e.g. "fig7a".
    pub experiment: &'static str,
    /// Sweep parameter name, e.g. "sp_ratio".
    pub param: &'static str,
    /// Sweep parameter value rendered as text.
    pub value: String,
    /// Series name, e.g. "security-punctuations".
    pub series: String,
    /// The measured metric.
    pub metric: &'static str,
    /// The measurement: a counter, or the median of a timed cell.
    pub measured: f64,
    /// `(low, high)` over the runs of a timed cell; `None` for a counter.
    pub spread: Option<(f64, f64)>,
}

impl Row {
    /// Renders the row as one JSON object. Hand-rolled (the build
    /// environment has no crates.io access for serde); fields are flat
    /// strings and floats, so escaping strings suffices. A timed row
    /// carries `low`/`high` after `measured`.
    #[must_use]
    pub fn to_json(&self) -> String {
        let spread = self.spread.map_or_else(String::new, |(low, high)| {
            format!(r#","low":{},"high":{}"#, json_f64(low), json_f64(high))
        });
        format!(
            r#"{{"experiment":{},"param":{},"value":{},"series":{},"metric":{},"measured":{}{spread}}}"#,
            json_str(self.experiment),
            json_str(self.param),
            json_str(&self.value),
            json_str(&self.series),
            json_str(self.metric),
            json_f64(self.measured),
        )
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        // JSON has no NaN/Infinity; null keeps the line parseable.
        "null".to_string()
    }
}

/// Appends rows to `target/bench-results.jsonl` (best-effort).
pub fn log_rows(rows: &[Row]) {
    let path = std::path::Path::new("target");
    if std::fs::create_dir_all(path).is_err() {
        return;
    }
    let Ok(mut file) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path.join("bench-results.jsonl"))
    else {
        return;
    };
    for row in rows {
        let _ = writeln!(file, "{}", row.to_json());
    }
}

/// Microseconds per unit, guarding against div-by-zero.
#[must_use]
pub fn us_per(elapsed: Duration, units: u64) -> f64 {
    if units == 0 {
        0.0
    } else {
        elapsed.as_secs_f64() * 1e6 / units as f64
    }
}

/// Prints a header plus aligned rows (first column left-aligned, the
/// rest right-aligned to the widest cell of their column).
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let widths: Vec<usize> = (0..header.len())
        .map(|col| {
            let cells = rows.iter().filter_map(|r| r.get(col)).map(|c| c.chars().count());
            cells.chain([header[col].chars().count()]).max().unwrap_or(0)
        })
        .collect();
    let render = |cells: Vec<&str>| {
        let mut line = String::new();
        for (cell, &w) in cells.into_iter().zip(&widths) {
            if line.is_empty() {
                line.push_str(&format!("{cell:<w$}", w = w.max(12)));
            } else {
                line.push_str(&format!("  {cell:>w$}"));
            }
        }
        line
    };
    let head = render(header.to_vec());
    println!("{head}");
    println!("{}", "-".repeat(head.chars().count()));
    for row in rows {
        println!("{}", render(row.iter().map(String::as_str).collect()));
    }
}

/// Warns when measuring without optimizations.
pub fn warn_if_debug() {
    #[cfg(debug_assertions)]
    eprintln!(
        "WARNING: running a measurement binary in debug mode; use --release for meaningful numbers"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn us_per_guards_zero() {
        assert_eq!(us_per(Duration::from_secs(1), 0), 0.0);
        assert!((us_per(Duration::from_millis(1), 1000) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn rows_serialize() {
        let row = Row {
            experiment: "fig7a",
            param: "sp_ratio",
            value: "1/10".into(),
            series: "sp \"quoted\"\\".into(),
            metric: "tuples_per_ms",
            measured: 12.5,
            spread: None,
        };
        assert!(row.to_json().ends_with(r#""measured":12.5}"#), "a counter row has no spread");
        let json = Row { spread: Some((11.0, 14.25)), ..row }.to_json();
        assert!(json.contains(r#""experiment":"fig7a""#), "{json}");
        assert!(json.contains(r#""series":"sp \"quoted\"\\""#), "{json}");
        assert!(json.ends_with(r#""measured":12.5,"low":11,"high":14.25}"#), "{json}");
    }
}

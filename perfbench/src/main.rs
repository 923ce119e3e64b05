//! `perf` — socket-to-Ack throughput and enforcement lag on five
//! workloads, with an outside-in per-layer waterfall. See `../README.md`.
//!
//! Two ways to run it (both through `perfbench/run.sh`, which builds):
//!
//! * `--workload NAME --seed N --seconds S --trace 0|1` — one workload,
//!   the driver's contract: the last line of standard output is one JSON
//!   object with `correct`, `attempted`, `failed` and `metrics`.
//! * no `--workload` — the whole set, as a table, into
//!   `out/BENCH_perf.json` (+ `out/trace.json` with `--trace`); `--aa`
//!   runs the set twice and checks the differences against the bounds.

mod affinity;
mod e2e;
mod json;
mod layers;
mod run;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use json::Json;
use run::{EndToEnd, Options, Traced};
use stats::Summary;
use workloads::{Spec, SPECS};

/// Names, units, bounds and the run length live in one place.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

struct Contract {
    run_seconds: f64,
    /// (name, unit, bound)
    end_to_end: Vec<(String, String, f64)>,
    /// (name, unit)
    per_layer: Vec<(String, String)>,
}

impl Contract {
    fn load() -> Result<Contract, String> {
        let doc = Json::parse(BENCHMARK_JSON)?;
        let field = |m: &Json, k: &str| {
            m.get(k).and_then(Json::as_str).map(str::to_owned).ok_or(format!("metric lacks {k}"))
        };
        let list = |k: &str| doc.get(k).map(Json::as_arr).unwrap_or_default();
        Ok(Contract {
            run_seconds: doc.get("run_seconds").and_then(Json::as_f64).ok_or("no run_seconds")?,
            end_to_end: list("end_to_end")
                .iter()
                .map(|m| {
                    let bound =
                        m.get("bound").and_then(Json::as_f64).ok_or("metric lacks bound")?;
                    Ok((field(m, "name")?, field(m, "unit")?, bound))
                })
                .collect::<Result<_, String>>()?,
            per_layer: list("per_layer")
                .iter()
                .map(|m| Ok((field(m, "name")?, field(m, "unit")?)))
                .collect::<Result<_, String>>()?,
        })
    }
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    aa: bool,
    smoke: bool,
    out: PathBuf,
    /// Recorded in the result file; `run.sh` fills them in.
    rustc: String,
    commit: String,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 7,
        seconds: None,
        trace: false,
        aa: false,
        smoke: false,
        out: PathBuf::from("perfbench/out"),
        rustc: "unknown".into(),
        commit: "unknown".into(),
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value("a name")?),
            "--seed" => a.seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds =
                    Some(value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?);
            }
            // The driver passes `--trace 0|1`; by hand a bare `--trace` is on.
            "--trace" => {
                a.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--aa" => a.aa = true,
            "--smoke" => a.smoke = true,
            "--out" => a.out = PathBuf::from(value("a directory")?),
            "--rustc" => a.rustc = value("a version")?,
            "--commit" => a.commit = value("a hash")?,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

fn summary_json(s: &Summary, unit: &str) -> Json {
    Json::obj([
        ("value", Json::Num(s.median)),
        ("unit", Json::str(unit)),
        ("n", Json::Num(s.n as f64)),
        ("min", Json::Num(s.min)),
        ("max", Json::Num(s.max)),
        ("mad", Json::Num(s.mad)),
    ])
}

impl EndToEnd {
    fn summary(&self, name: &str) -> Option<&Summary> {
        match name {
            "tuples_per_s" => Some(&self.tuples_per_s),
            "ack_p50_us" => Some(&self.ack_p50_us),
            "setup_s" => Some(&self.setup_s),
            _ => None,
        }
    }
}

fn value_json(value: f64, unit: &str) -> Json {
    Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))])
}

/// Prints `workload metric value unit (n=…, min/max/MAD)` for every
/// end-to-end metric and returns their values for the result line.
fn report_end_to_end(c: &Contract, spec: &Spec, r: &EndToEnd) -> Result<Json, String> {
    let mut fields = Vec::new();
    for (name, unit, _) in &c.end_to_end {
        let s = r.summary(name).ok_or(format!("{name} is listed but not measured"))?;
        println!(
            "{} {name} {:.4} {unit} (n={}, min {:.4} / max {:.4} / MAD {:.4})",
            spec.name, s.median, s.n, s.min, s.max, s.mad
        );
        fields.push((name.clone(), value_json(s.median, unit)));
    }
    println!(
        "{} failed_ops {} / {} frames ({} frames and {} tuples per repetition)",
        spec.name, r.failed, r.attempted, r.frames_per_rep, r.tuples_per_rep
    );
    Ok(Json::Obj(fields))
}

fn report_traced(c: &Contract, spec: &Spec, r: &Traced) -> Result<Json, String> {
    let mut fields = Vec::new();
    for (name, unit) in &c.per_layer {
        let (_, v) = r
            .metrics
            .iter()
            .find(|(n, _)| n == name)
            .ok_or(format!("{name} is listed but not measured"))?;
        println!("{} {name} {v:.4} {unit}", spec.name);
        fields.push((name.clone(), value_json(*v, unit)));
    }
    if let Some((extra, _)) =
        r.metrics.iter().find(|(n, _)| !c.per_layer.iter().any(|(listed, _)| listed == n))
    {
        return Err(format!("{extra} is measured but not listed in BENCHMARK.json"));
    }
    let gap = r.metrics.iter().find(|(n, _)| *n == "server.waterfall_gap_pct").map_or(0.0, |m| m.1);
    println!(
        "{} waterfall: hop remainder and one-element hop floor differ by {gap:.1}% of the round trip: {}",
        spec.name,
        if gap.abs() <= 10.0 { "resolved" } else { "UNRESOLVED" }
    );
    Ok(Json::Obj(fields))
}

fn write_file(dir: &Path, name: &str, doc: &Json, pretty: bool) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(name);
    let text = if pretty { doc.pretty() } else { doc.compact() };
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("wrote {}", path.display());
    Ok(())
}

/// One workload under the driver's contract. Returns the result line,
/// whether the run was correct, and the spans of a traced run.
fn driver_mode(
    c: &Contract,
    trace: bool,
    spec: &'static Spec,
    opts: Options,
) -> Result<(String, bool, Option<Json>), String> {
    let (metrics, attempted, failed, mismatch, spans) = if trace {
        let r = run::traced(spec, opts)?;
        r.tracer.waterfall(spec.name);
        let spans = Json::obj([(spec.name, r.tracer.to_json())]);
        (report_traced(c, spec, &r)?, r.attempted, r.failed, r.mismatch, Some(spans))
    } else {
        let r = run::end_to_end(spec, opts)?;
        (report_end_to_end(c, spec, &r)?, r.attempted, r.failed, r.mismatch, None)
    };
    if let Some(why) = &mismatch {
        eprintln!("{}: INCORRECT: {why}", spec.name);
    }
    let correct = mismatch.is_none() && failed == 0;
    let line = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", metrics),
    ]);
    Ok((line.compact(), correct, spans))
}

/// One pass over the whole set in the given order.
struct SetResult {
    /// Per workload (in `SPECS` order): end-to-end metrics, per-layer
    /// metrics when traced, failures.
    end_to_end: Vec<Option<EndToEnd>>,
    /// Per-layer metrics and waterfall rows of the traced run.
    layers: Vec<Option<(Json, Json)>>,
    traces: Vec<(String, Json)>,
    correct: bool,
}

fn run_set(c: &Contract, trace: bool, opts: Options, order: &[usize]) -> Result<SetResult, String> {
    let mut set = SetResult {
        end_to_end: SPECS.iter().map(|_| None).collect(),
        layers: SPECS.iter().map(|_| None).collect(),
        traces: Vec::new(),
        correct: true,
    };
    for &i in order {
        let spec = &SPECS[i];
        let r = run::end_to_end(spec, opts).map_err(|e| format!("{}: {e}", spec.name))?;
        report_end_to_end(c, spec, &r)?;
        if let Some(why) = &r.mismatch {
            eprintln!("{}: INCORRECT: {why}", spec.name);
        }
        set.correct &= r.mismatch.is_none() && r.failed == 0;
        set.end_to_end[i] = Some(r);
        if trace {
            let t = run::traced(spec, opts).map_err(|e| format!("{}: {e}", spec.name))?;
            set.layers[i] = Some((report_traced(c, spec, &t)?, t.tracer.waterfall(spec.name)));
            if let Some(why) = &t.mismatch {
                eprintln!("{}: INCORRECT (traced run): {why}", spec.name);
            }
            set.correct &= t.mismatch.is_none() && t.failed == 0;
            set.traces.push((spec.name.to_owned(), t.tracer.to_json()));
        }
    }
    Ok(set)
}

/// Relative A/A difference of a metric's two medians.
fn rel_diff(a: f64, b: f64) -> f64 {
    (a - b).abs() / a.min(b)
}

fn suite_mode(c: &Contract, a: &Args, opts: Options) -> Result<bool, String> {
    let forward: Vec<usize> = (0..SPECS.len()).collect();
    let first = run_set(c, a.trace, opts, &forward)?;
    // A/A: the same set again in the opposite order, so a drift over
    // the session does not line up with the workloads.
    let second = if a.aa {
        let backward: Vec<usize> = forward.iter().rev().copied().collect();
        Some(run_set(c, false, opts, &backward)?)
    } else {
        None
    };
    let mut ok = first.correct && second.as_ref().is_none_or(|s| s.correct);

    let mut workloads = Vec::new();
    for (i, spec) in SPECS.iter().enumerate() {
        let Some(r) = &first.end_to_end[i] else { continue };
        let mut metrics = Vec::new();
        for (name, unit, bound) in &c.end_to_end {
            let s = r.summary(name).ok_or(format!("{name} is not measured"))?;
            let mut m = summary_json(s, unit);
            if let (Json::Obj(fields), Some(second)) = (&mut m, &second) {
                let again = second.end_to_end[i].as_ref().and_then(|r| r.summary(name));
                let again = again.ok_or(format!("{name} missing from the second set"))?;
                let floor = rel_diff(s.median, again.median);
                let within = floor <= *bound;
                println!(
                    "{} {name} A/A {:.4} vs {:.4} {unit}: differ {:.2}% (bound {:.0}%) {}",
                    spec.name,
                    s.median,
                    again.median,
                    floor * 100.0,
                    bound * 100.0,
                    if within { "ok" } else { "EXCEEDS BOUND" }
                );
                ok &= within;
                fields.push(("second_value".into(), Json::Num(again.median)));
                fields.push(("aa_rel_diff".into(), Json::Num(floor)));
            }
            if let Json::Obj(fields) = &mut m {
                fields.push(("bound".into(), Json::Num(*bound)));
            }
            metrics.push((name.clone(), m));
        }
        let mut w = vec![
            ("name".to_owned(), Json::str(spec.name)),
            ("why".to_owned(), Json::str(spec.why)),
            ("constants".to_owned(), spec.constants(a.smoke)),
            ("frames_per_rep".to_owned(), Json::Num(r.frames_per_rep as f64)),
            ("tuples_per_rep".to_owned(), Json::Num(r.tuples_per_rep as f64)),
            ("attempted".to_owned(), Json::Num(r.attempted as f64)),
            ("failed".to_owned(), Json::Num(r.failed as f64)),
            ("end_to_end".to_owned(), Json::Obj(metrics)),
        ];
        if let Some((layers, waterfall)) = &first.layers[i] {
            w.push(("per_layer".to_owned(), layers.clone()));
            w.push(("waterfall".to_owned(), waterfall.clone()));
        }
        workloads.push(Json::Obj(w));
    }
    let doc = Json::obj([
        ("benchmark", Json::str("sp-bench perf")),
        (
            "host",
            Json::obj([
                (
                    "nproc",
                    Json::Num(std::thread::available_parallelism().map_or(0.0, |n| n.get() as f64)),
                ),
                ("rustc", Json::str(a.rustc.as_str())),
                ("commit", Json::str(a.commit.as_str())),
            ]),
        ),
        // What `run.sh` set for the allocator (see README: a warm heap).
        (
            "allocator",
            Json::obj(
                ["MALLOC_ARENA_MAX", "MALLOC_TRIM_THRESHOLD_", "MALLOC_MMAP_THRESHOLD_"]
                    .map(|k| (k, std::env::var(k).map_or(Json::Null, Json::Str))),
            ),
        ),
        ("seed", Json::Num(a.seed as f64)),
        ("seconds", Json::Num(opts.seconds)),
        ("smoke", Json::Bool(a.smoke)),
        ("aa", Json::Bool(a.aa)),
        ("correct", Json::Bool(ok)),
        ("workloads", Json::Arr(workloads)),
    ]);
    write_file(&a.out, "BENCH_perf.json", &doc, true)?;
    if a.trace {
        write_file(&a.out, "trace.json", &Json::Obj(first.traces), false)?;
    }
    Ok(ok)
}

fn real_main() -> Result<bool, String> {
    if cfg!(debug_assertions) {
        return Err(
            "refusing to measure a debug build; use perfbench/run.sh (it builds --release)".into(),
        );
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let a = parse_args(&argv)?;
    let c = Contract::load()?;
    let seconds = a.seconds.unwrap_or(if a.smoke { 0.0 } else { c.run_seconds });
    let opts = Options { seed: a.seed, seconds, smoke: a.smoke };
    match &a.workload {
        Some(name) => {
            let spec = workloads::find(name).ok_or(format!("unknown workload {name}"))?;
            let (line, correct, spans) =
                driver_mode(&c, a.trace, spec, opts).map_err(|e| format!("{}: {e}", spec.name))?;
            if let Some(spans) = spans {
                write_file(&a.out, "trace.json", &spans, false)?;
            }
            println!("{line}");
            Ok(correct)
        }
        None => suite_mode(&c, &a, opts),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("perf: {why}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(list: &[Json]) -> Vec<&str> {
        list.iter().filter_map(|m| m.get("name").and_then(Json::as_str)).collect()
    }

    #[test]
    fn workloads_match_benchmark_json() {
        let doc = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let listed = doc.get("workloads").map(Json::as_arr).unwrap_or_default();
        assert_eq!(names(listed), SPECS.iter().map(|s| s.name).collect::<Vec<_>>());
        for (w, spec) in listed.iter().zip(&SPECS) {
            assert_eq!(w.get("why").and_then(Json::as_str), Some(spec.why));
            assert!(spec.why.len() <= 200 && !spec.why.contains('\n'), "{}", spec.name);
        }
    }

    /// The `--smoke` pass: all five workloads end to end and traced, the
    /// reference check included, and the emitted result lines parse and
    /// name exactly the metrics `BENCHMARK.json` lists.
    #[test]
    fn smoke_pass_emits_the_listed_metrics() {
        let c = Contract::load().expect("contract loads");
        let doc = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let opts = Options { seed: 7, seconds: 0.0, smoke: true };
        for spec in &SPECS {
            for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
                let (line, correct, spans) = driver_mode(&c, trace, spec, opts)
                    .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
                assert!(correct, "{}", spec.name);
                assert_eq!(spans.is_some(), trace);
                let out = Json::parse(&line).expect("result line parses");
                let Json::Obj(fields) = &out else { panic!("result is not an object") };
                let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
                assert_eq!(out.get("correct"), Some(&Json::Bool(true)));
                assert_eq!(out.get("failed").and_then(Json::as_f64), Some(0.0));
                assert!(out.get("attempted").and_then(Json::as_f64).is_some_and(|n| n >= 1.0));
                let Some(Json::Obj(metrics)) = out.get("metrics") else { panic!("no metrics") };
                let want = names(doc.get(key).map(Json::as_arr).unwrap_or_default());
                assert_eq!(metrics.iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>(), want);
                for (name, m) in metrics {
                    assert!(m.get("value").and_then(Json::as_f64).is_some(), "{name} has no value");
                    assert!(m.get("unit").and_then(Json::as_str).is_some(), "{name} has no unit");
                }
            }
        }
    }

    #[test]
    fn trace_flag_takes_an_optional_value() {
        let parse = |args: &[&str]| {
            parse_args(&args.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>())
                .map(|a| (a.trace, a.seed))
        };
        assert_eq!(parse(&["--trace", "0", "--seed", "3"]), Ok((false, 3)));
        assert_eq!(parse(&["--trace", "1"]), Ok((true, 7)));
        assert_eq!(parse(&["--trace", "--seed", "9"]), Ok((true, 9)));
        assert_eq!(parse(&[]), Ok((false, 7)));
        assert!(parse(&["--bogus"]).is_err());
        assert!(parse(&["--seed"]).is_err());
    }
}

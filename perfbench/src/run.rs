//! One workload, start to finish: set-up, the timed socket repetitions,
//! and (with tracing) the per-layer rows.

use std::time::Instant;

use sp_core::StreamElement;
use sp_engine::Histogram;

use crate::e2e::{drive, repetition, Rep, Session};
use crate::layers::{self, Metrics};
use crate::stats::{highest_supported_percentile, median, percentile_sorted, Summary};
use crate::trace::Tracer;
use crate::workloads::{encode_frame, Input, Reference, Spec};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Measured repetitions a run holds at least, whatever its time budget.
const MIN_REPS: usize = 3;

/// A repetition during which the hypervisor kept the CPU for more than
/// this share of the time is *disturbed*: it is run and checked but kept
/// out of the medians. The reference VM shows 0 for minutes on end and
/// then 10–30% for a few minutes while a neighbour is busy, and everything
/// runs up to twice as slowly meanwhile.
const STOLEN_LIMIT: f64 = 0.02;

/// How long a run goes on looking for `MIN_REPS` undisturbed repetitions
/// before it reports the disturbed ones after all.
const PATIENCE_S: f64 = 60.0;

/// One-element frames sent to measure the per-frame floor of the hop.
const FLOOR_FRAMES: usize = 2_000;

#[derive(Debug, Clone, Copy)]
pub struct Options {
    pub seed: u64,
    /// Time budget of the measured repetitions.
    pub seconds: f64,
    pub smoke: bool,
}

pub struct Prepared {
    pub input: Input,
    pub reference: Reference,
}

/// Generate the input, pre-encode it, run the in-process reference, start
/// a server and say Hello. Returns what later steps need and the seconds
/// it took; tearing the probe server down is not part of set-up.
pub fn set_up(spec: &'static Spec, opts: Options) -> Result<(Prepared, f64), String> {
    let start = Instant::now();
    let input = Input::generate(spec, opts.seed, opts.smoke);
    let reference = Reference::run(spec, &input)?;
    let sess = Session::open(spec)?;
    let seconds = start.elapsed().as_secs_f64();
    let report = sess.close();
    if !report.clean {
        return Err("set-up server did not drain cleanly".into());
    }
    Ok((Prepared { input, reference }, seconds))
}

/// What one repetition contributes to the reported medians.
struct RepStat {
    tuples_per_s: f64,
    ack_p50_us: f64,
}

#[derive(Default)]
struct Reps {
    untraced: Vec<RepStat>,
    traced: Vec<RepStat>,
    /// Round trips of the repetitions behind the medians, pooled.
    rtt_ns: Vec<u64>,
    frame_handle: Histogram,
    checkpoints_per_rep: u64,
    /// Frames of every measured repetition, disturbed ones included.
    attempted: u64,
    failed: u64,
    /// First released-set mismatch, if any.
    mismatch: Option<String>,
}

/// One discarded warm-up repetition, then repetitions until the budget is
/// spent and `MIN_REPS` undisturbed ones are in, each against a fresh
/// server and session. With a tracer, every second undisturbed repetition
/// records client spans.
fn socket_reps(
    spec: &'static Spec,
    prepared: &Prepared,
    seconds: f64,
    mut tracer: Option<&mut Tracer>,
) -> Result<Reps, String> {
    let frames = &prepared.input.frames;
    repetition(spec, frames, &prepared.reference, None)?;
    let mut done: Vec<(Rep, bool)> = Vec::new(); // with "was traced"
    let mut calm = 0;
    let start = Instant::now();
    while start.elapsed().as_secs_f64()
        < if calm < MIN_REPS { PATIENCE_S.max(seconds) } else { seconds }
    {
        let traced = tracer.is_some() && calm % 2 == 1;
        let rep = repetition(
            spec,
            frames,
            &prepared.reference,
            if traced { tracer.as_deref_mut() } else { None },
        )?;
        if rep.pass.stolen > STOLEN_LIMIT {
            eprintln!(
                "{} rep {}: disturbed, {:.0}% of the CPU stolen",
                spec.name,
                done.len(),
                rep.pass.stolen * 100.0
            );
            // Wait the neighbour out rather than fill the run with
            // repetitions that will not count.
            std::thread::sleep(std::time::Duration::from_secs(1));
        } else {
            calm += 1;
        }
        done.push((rep, traced));
    }

    let mut reps = Reps::default();
    // Too few undisturbed repetitions even after waiting: report the
    // disturbed ones rather than nothing.
    let keep_disturbed = calm < MIN_REPS;
    for (i, (rep, traced)) in done.into_iter().enumerate() {
        reps.attempted += rep.pass.attempted;
        reps.failed += rep.pass.failed;
        if reps.mismatch.is_none() {
            reps.mismatch = rep.mismatch;
        }
        if rep.pass.stolen > STOLEN_LIMIT && !keep_disturbed {
            continue;
        }
        let mut sorted = rep.pass.rtt_ns.clone();
        sorted.sort_unstable();
        let stat = RepStat {
            tuples_per_s: prepared.input.tuples as f64 / rep.pass.wall_s,
            ack_p50_us: percentile_sorted(&sorted, 50.0) as f64 / 1e3,
        };
        eprintln!(
            "{} rep {i}{}: {:.0} tuples/s, ack p50 {:.1} us",
            spec.name,
            if traced { " (traced)" } else { "" },
            stat.tuples_per_s,
            stat.ack_p50_us,
        );
        if traced { &mut reps.traced } else { &mut reps.untraced }.push(stat);
        reps.rtt_ns.extend_from_slice(&rep.pass.rtt_ns);
        reps.frame_handle.merge(&rep.frame_handle);
        reps.checkpoints_per_rep = rep.checkpoints;
    }
    Ok(reps)
}

/// The end-to-end result of one workload (tracing off).
pub struct EndToEnd {
    pub tuples_per_s: Summary,
    pub ack_p50_us: Summary,
    pub setup_s: Summary,
    pub attempted: u64,
    pub failed: u64,
    pub mismatch: Option<String>,
    pub frames_per_rep: usize,
    pub tuples_per_rep: u64,
}

pub fn end_to_end(spec: &'static Spec, opts: Options) -> Result<EndToEnd, String> {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut prepared = None;
    for _ in 0..SETUPS {
        drop(prepared.take()); // one input in memory at a time
        let (p, seconds) = set_up(spec, opts)?;
        setups.push(seconds);
        prepared = Some(p);
    }
    let prepared = prepared.ok_or("no set-up ran")?;
    let reps = socket_reps(spec, &prepared, opts.seconds, None)?;
    let of = |f: fn(&RepStat) -> f64| Summary::of(&reps.untraced.iter().map(f).collect::<Vec<_>>());
    Ok(EndToEnd {
        tuples_per_s: of(|r| r.tuples_per_s),
        ack_p50_us: of(|r| r.ack_p50_us),
        setup_s: Summary::of(&setups),
        attempted: reps.attempted,
        failed: reps.failed,
        mismatch: reps.mismatch,
        frames_per_rep: prepared.input.frames.len(),
        tuples_per_rep: prepared.input.tuples,
    })
}

/// The per-layer result of one workload (tracing on).
pub struct Traced {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    pub mismatch: Option<String>,
    pub tracer: Tracer,
}

fn mean_us(rtt_ns: &[u64]) -> f64 {
    rtt_ns.iter().sum::<u64>() as f64 / rtt_ns.len().max(1) as f64 / 1e3
}

/// Mean round trip of one-element frames through a fresh server: the
/// fixed per-frame cost of the socket, the two thread hand-offs and the
/// Ack, measured apart from the workload's frames.
fn hop_floor_rtt_us(spec: &'static Spec, input: &Input) -> Result<f64, String> {
    let frames: Vec<Vec<u8>> = input
        .elements
        .iter()
        .take(FLOOR_FRAMES)
        .enumerate()
        .map(|(pos, e): (usize, &StreamElement)| {
            encode_frame(spec, input.stream, std::slice::from_ref(e), pos as u64)
        })
        .collect();
    let mut sess = Session::open(spec)?;
    let warm = frames.len() / 4;
    drive(&mut sess, &frames[..warm], None);
    let pass = drive(&mut sess, &frames[warm..], None);
    let _ = sess.close();
    if pass.failed > 0 {
        return Err(format!("{} one-element frames failed", pass.failed));
    }
    Ok(mean_us(&pass.rtt_ns))
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn traced(spec: &'static Spec, opts: Options) -> Result<Traced, String> {
    let (prepared, _) = set_up(spec, opts)?;
    let input = &prepared.input;
    let mut tracer = Tracer::new();

    // (a) The socket run, alternating untraced and traced repetitions in
    // half the budget; their difference is the tracing overhead.
    let reps = socket_reps(spec, &prepared, opts.seconds / 2.0, Some(&mut tracer))?;
    let tps = |v: &[RepStat]| median(&v.iter().map(|r| r.tuples_per_s).collect::<Vec<_>>());
    let (untraced, traced) = (tps(&reps.untraced), tps(&reps.traced));
    let floor_rtt_us = hop_floor_rtt_us(spec, input)?;

    // (b) The in-process waterfall.
    let mut m = layers::run(spec, input, &prepared.reference, &mut tracer)?;
    let get = |m: &Metrics, name: &str| m.iter().find(|(n, _)| *n == name).map_or(0.0, |(_, v)| *v);

    // Per frame: decode + session + hop = round trip. The hop (socket,
    // connection thread, channel, Ack) is what the in-process replays
    // cannot see, so it is the remainder; the one-element floor says how
    // much of that remainder is fixed per-frame cost.
    let per_frame = input.elements.len() as f64 / input.frames.len() as f64;
    let rtt_us = mean_us(&reps.rtt_ns);
    let decode_us = get(&m, "core.wire.decode_ns_per_elem") * per_frame / 1e3;
    let session_us = get(&m, "query.session.ns_per_elem") * per_frame / 1e3;
    let hop_us = rtt_us - decode_us - session_us;
    let floor_us = floor_rtt_us - (decode_us + session_us) / per_frame;
    let mut sorted = reps.rtt_ns;
    sorted.sort_unstable();
    let tail_pct = highest_supported_percentile(sorted.len());
    m.extend([
        ("server.rtt_mean_us", rtt_us),
        ("server.hop_us_per_frame", hop_us),
        ("server.hop_share_pct", hop_us / rtt_us * 100.0),
        ("server.hop_floor_us", floor_us),
        ("server.waterfall_gap_pct", (hop_us - floor_us) / rtt_us * 100.0),
        ("core.wire.decode_share_pct", decode_us / rtt_us * 100.0),
        ("engine.share_pct", session_us / rtt_us * 100.0),
        ("server.frame_handle_p50_us", reps.frame_handle.percentile(50.0) as f64),
        ("server.frame_handle_p99_us", reps.frame_handle.percentile(99.0) as f64),
        ("server.ack_p99_us", percentile_sorted(&sorted, 99.0) as f64 / 1e3),
        ("server.ack_tail_us", percentile_sorted(&sorted, tail_pct) as f64 / 1e3),
        ("server.ack_tail_pct", tail_pct),
        ("server.checkpoints_per_rep", reps.checkpoints_per_rep as f64),
        ("trace.overhead_pct", (untraced - traced) / untraced * 100.0),
        ("trace.spans", tracer.len() as f64),
        ("process.peak_rss_mb", peak_rss_mb()),
    ]);
    Ok(Traced {
        metrics: m,
        attempted: reps.attempted,
        failed: reps.failed,
        mismatch: reps.mismatch,
        tracer,
    })
}

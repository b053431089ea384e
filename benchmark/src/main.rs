//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <live_headend|vod_viewers|cdn_knee|live_flash_faults> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload builds its inputs from the seed, sets up several
//! times (the median is `setup_s`), then runs a closed loop of its
//! operation for `--seconds` with tracing off, and checks the outputs.
//! With `--trace 1` it then runs the loop again with spans recorded
//! around every call into a layer, and reports the per-layer metrics,
//! the tracing overhead and the time no span accounts for. The last
//! line of standard output is the result object; see `NOTES.md`.

mod cohort;
mod headend;
mod host;
mod report;
mod speed;
mod stats;
mod trace;
mod vod;

use std::time::Instant;

use report::{layer_of, Pass, Report, SetupTimes};

pub struct Options {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

const WORKLOADS: [&str; 4] = [
    "live_headend",
    "vod_viewers",
    "cdn_knee",
    "live_flash_faults",
];

/// Set-up repetitions before and after the timed pass; `setup_s` is
/// the median of all of them, so it samples the host at both ends of
/// the run.
const SETUP_REPS_BEFORE: usize = 3;
const SETUP_REPS_AFTER: usize = 4;

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    Ok(Options {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// How long a pass runs: at least `min_ops` operations, and until
/// `seconds` have passed.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    pub seconds: f64,
    pub min_ops: usize,
}

impl Budget {
    /// A short unmeasured pass that lets caches fill and lazy
    /// allocation settle before the timed pass.
    pub fn warmup(ops: usize) -> Self {
        Self {
            seconds: 0.0,
            min_ops: ops,
        }
    }

    pub fn more(&self, ops: usize, start: Instant) -> bool {
        ops < self.min_ops || start.elapsed().as_secs_f64() < self.seconds
    }
}

fn time_setups<T>(setup: &impl Fn() -> T, reps: usize, times: &mut SetupTimes) -> Option<T> {
    let mut state = None;
    for _ in 0..reps {
        // Drop the previous state first so its teardown is not timed.
        drop(state.take());
        let t0 = Instant::now();
        state = Some(std::hint::black_box(setup()));
        times.s.push(t0.elapsed().as_secs_f64());
        times.ref_ms.push(speed::reference_ms());
    }
    state
}

/// Sets up `SETUP_REPS_BEFORE` times, keeping the last state and every
/// duration.
pub fn timed_setup<T>(setup: &impl Fn() -> T) -> (T, SetupTimes) {
    let mut times = SetupTimes::default();
    let state = time_setups(setup, SETUP_REPS_BEFORE, &mut times);
    (state.expect("SETUP_REPS_BEFORE > 0"), times)
}

/// Sets up `SETUP_REPS_AFTER` more times after the timed pass.
pub fn more_setups<T>(setup: &impl Fn() -> T, times: &mut SetupTimes) {
    time_setups(setup, SETUP_REPS_AFTER, times);
}

/// The parts of a traced run every workload shares: the trace file,
/// the self-time ledger, the tracing overhead and the unaccounted
/// remainder.
pub fn finish_trace(
    opts: &Options,
    rep: &mut Report,
    spans: &[trace::Span],
    untraced: &Pass,
    traced: &Pass,
) {
    let path = std::path::PathBuf::from(".bench_trace")
        .join(format!("{}-seed{}.json", opts.workload, opts.seed));
    match trace::write_chrome_trace(&path, spans) {
        Ok(()) => rep
            .notes
            .push(format!("trace written to {}", path.display())),
        Err(e) => rep.notes.push(format!("trace not written: {e}")),
    }
    let by_layer = trace::self_ms_by_layer(spans, layer_of);
    let total: f64 = by_layer.values().sum();
    for (layer, _) in report::LAYERS {
        let ms = by_layer.get(layer).copied().unwrap_or(0.0);
        rep.layer(&format!("self_share.{layer}"), stats::ratio(ms, total));
    }
    let mut ranked: Vec<(&'static str, f64)> = by_layer.into_iter().collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
    rep.ledger_ms = ranked;

    rep.sample("traced_op_ms", "ms", &traced.op_ms);
    rep.layer(
        "trace_overhead_frac",
        stats::median(&traced.op_ms) / stats::median(&untraced.op_ms) - 1.0,
    );
    let wall_ns = (traced.wall_s * 1e9) as u64;
    rep.layer(
        "unaccounted_frac",
        trace::uncovered_ns(spans, wall_ns) as f64 / wall_ns as f64,
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let host = host::stamp();
    let mut rep = Report::default();
    match opts.workload.as_str() {
        "live_headend" => headend::run(&opts, &mut rep),
        "vod_viewers" => vod::run(&opts, &mut rep),
        "cdn_knee" => cohort::run_knee(&opts, &mut rep),
        "live_flash_faults" => cohort::run_flash(&opts, &mut rep),
        _ => unreachable!("parse accepts only known workloads"),
    }
    report::print_detail(&opts.workload, opts.seed, opts.trace, &host, &rep);
    println!("{}", report::result_line(&rep, opts.trace));
}

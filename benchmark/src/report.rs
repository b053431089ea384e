//! One workload's result and its printing.
//!
//! Every run prints a human-readable block, then one `detail` JSON line
//! (host stamp, the workload's own named metrics, sample counts and
//! quartiles of every timed metric, the traced ledger), and last the
//! result line: `correct`, `attempted`, `failed` and `metrics`.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use crate::host::Host;
use crate::speed::{Sampler, NOMINAL_MS};
use crate::stats::{median, summarize, Summary};

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Per-layer metrics, in the order `BENCHMARK.json` lists them. A
/// workload that does not exercise a layer reports 0 for it.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("encode_ms_per_frame", "ms"),
    ("me_sad_evals_per_frame", "count"),
    ("me_pixel_ops_per_frame", "count"),
    ("dct_blocks_per_frame", "count"),
    ("vlc_symbols_per_frame", "count"),
    ("mux_ns_per_byte", "ns"),
    ("seal_ns_per_byte", "ns"),
    ("publish_us_per_segment", "us"),
    ("pool_wait_ms_p50", "ms"),
    ("pool_run_ms_p50", "ms"),
    ("pool_efficiency", "fraction"),
    ("session_ms_per_segment", "ms"),
    ("delivered_bytes_per_session", "bytes"),
    ("fetch_retries_per_session", "count"),
    ("edge_hit_rate", "fraction"),
    ("origin_fill_bytes", "bytes"),
    ("decode_ms_per_frame", "ms"),
    ("idct_blocks_per_frame", "count"),
    ("probe_s", "s"),
    ("probe_2x_s", "s"),
    ("us_per_session", "us"),
    ("sim_ticks", "ticks"),
    ("edge_hits", "count"),
    ("shield_hits", "count"),
    ("coalesced", "count"),
    ("origin_fills", "count"),
    ("sessions_rehomed", "count"),
    ("sessions_fault_rebuffered", "count"),
    ("mean_restore_ticks", "ticks"),
    ("window_skips", "count"),
    ("publish_wait_ticks", "ticks"),
    ("modeled_share.encode", "fraction"),
    ("modeled_share.mux", "fraction"),
    ("modeled_share.seal", "fraction"),
    ("modeled_share.publish", "fraction"),
    ("measured_share.encode", "fraction"),
    ("measured_share.mux", "fraction"),
    ("measured_share.seal", "fraction"),
    ("measured_share.publish", "fraction"),
    ("share_gap", "fraction"),
    ("self_share.encode", "fraction"),
    ("self_share.mux", "fraction"),
    ("self_share.seal", "fraction"),
    ("self_share.publish", "fraction"),
    ("self_share.pool", "fraction"),
    ("self_share.session", "fraction"),
    ("self_share.decode", "fraction"),
    ("self_share.cohort", "fraction"),
    ("self_share.bench", "fraction"),
    ("trace_overhead_frac", "fraction"),
    ("unaccounted_frac", "fraction"),
];

/// The ledger's layers, each with the span names that belong to it.
pub const LAYERS: &[(&str, &[&str])] = &[
    ("encode", &["encode"]),
    ("mux", &["mux"]),
    ("seal", &["seal"]),
    ("publish", &["publish"]),
    ("pool", &["pool.map", "pool.job"]),
    ("session", &["session"]),
    ("decode", &["decode"]),
    ("cohort", &["knee_search", "probe", "faulted_run"]),
    ("bench", &["gop", "viewer"]),
];

pub fn layer_of(span: &str) -> &'static str {
    LAYERS
        .iter()
        .find(|(_, names)| names.contains(&span))
        .map_or("bench", |(layer, _)| layer)
}

/// What one closed-loop pass measured: the host time of every
/// operation, the pass's wall time, and — in untraced passes — the
/// reference kernel sampled between operations.
#[derive(Debug, Clone)]
pub struct Pass {
    pub op_ms: Vec<f64>,
    pub started: Instant,
    /// Wall time of the pass, less the time spent sampling the host.
    pub wall_s: f64,
    pub host: Option<Sampler>,
}

impl Pass {
    /// Starts a pass; `sample_on` is the number of threads the host
    /// reference runs on, `None` for a traced pass, which does not sample.
    pub fn start(sample_on: Option<usize>) -> Self {
        let started = Instant::now();
        Self {
            op_ms: Vec::new(),
            started,
            wall_s: 0.0,
            host: sample_on.map(Sampler::new),
        }
    }

    /// Records one operation, then samples the host if it is time to.
    pub fn push(&mut self, ms: f64) {
        self.op_ms.push(ms);
        if let Some(h) = &mut self.host {
            h.tick();
        }
    }

    pub fn finish(mut self) -> Self {
        let spent = self.host.as_ref().map_or(Duration::ZERO, |h| h.spent);
        self.wall_s = self.started.elapsed().saturating_sub(spent).as_secs_f64();
        self
    }

    pub fn len(&self) -> usize {
        self.op_ms.len()
    }
}

/// Set-up durations, each followed by one reference-kernel sample.
#[derive(Debug, Clone, Default)]
pub struct SetupTimes {
    pub s: Vec<f64>,
    pub ref_ms: Vec<f64>,
}

#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub end_to_end: Vec<Metric>,
    /// The workload's own figures under their descriptive names.
    pub named: Vec<Metric>,
    /// Names (in `named`) of the metrics that must repeat exactly.
    pub deterministic: Vec<&'static str>,
    pub samples: Vec<(String, &'static str, Summary)>,
    pub layers: Vec<Metric>,
    pub ledger_ms: Vec<(&'static str, f64)>,
    pub notes: Vec<String>,
}

impl Report {
    /// Counts one attempted operation or output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 16 {
                self.failures.push(what());
            }
        }
    }

    pub fn named(&mut self, name: &str, value: f64, unit: &'static str) {
        self.named.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn det(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.named(name, value, unit);
        self.deterministic.push(name);
    }

    pub fn layer(&mut self, name: &str, value: f64) {
        let unit = PER_LAYER
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, u)| *u)
            .unwrap_or_else(|| panic!("{name} is not a declared per-layer metric"));
        self.layers.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn sample(&mut self, name: &str, unit: &'static str, values: &[f64]) {
        self.samples
            .push((name.to_string(), unit, summarize(values)));
    }

    /// The end-to-end figures every workload reports, in reference
    /// units (see `speed`): the median set-up time and the median
    /// operation time, each scaled by the median of the reference
    /// samples taken alongside. The raw figures and the samples go to
    /// the detail line.
    pub fn end_to_end(&mut self, setup: &SetupTimes, pass: &Pass) {
        let host = pass.host.as_ref().expect("untraced passes sample the host");
        self.sample("setup_s", "s", &setup.s);
        self.sample("op_ms", "ms", &pass.op_ms);
        self.sample("reference_ms", "ms", &host.ref_ms);
        self.sample("setup_reference_ms", "ms", &setup.ref_ms);
        for (name, value, unit) in [
            (
                "setup_s",
                median(&setup.s) * NOMINAL_MS / median(&setup.ref_ms),
                "s",
            ),
            (
                "op_ms_norm",
                median(&pass.op_ms) * NOMINAL_MS / median(&host.ref_ms),
                "ms",
            ),
        ] {
            self.end_to_end.push(Metric {
                name: name.to_string(),
                value,
                unit,
            });
        }
    }

    /// Every declared per-layer metric, 0 for the ones this workload
    /// did not produce.
    pub fn all_layers(&self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|(name, unit)| Metric {
                name: (*name).to_string(),
                value: self
                    .layers
                    .iter()
                    .find(|m| m.name == *name)
                    .map_or(0.0, |m| m.value),
                unit,
            })
            .collect()
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
            && self
                .end_to_end
                .iter()
                .chain(&self.named)
                .chain(&self.layers)
                .all(|m| m.value.is_finite())
    }
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn string(s: &str) -> String {
    let mut out = String::from("\"");
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

fn metrics_object(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                string(&m.name),
                num(m.value),
                string(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Prints the human-readable block and the detail line.
pub fn print_detail(workload: &str, seed: u64, trace: bool, host: &Host, r: &Report) {
    println!("== {workload} (seed {seed}, trace {}) ==", u8::from(trace));
    println!(
        "host: {} cpus, {}, {}, rev {}",
        host.cpus, host.cpu_model, host.rustc, host.git_rev
    );
    for m in r.end_to_end.iter().chain(&r.named) {
        println!("  {:<24} {:>14.6} {}", m.name, m.value, m.unit);
    }
    for (name, unit, s) in &r.samples {
        println!(
            "  {name:<24} n={:<5} min={:.4} p10={:.4} q1={:.4} median={:.4} q3={:.4} p90={:.4} {unit}",
            s.n, s.min, s.p10, s.q1, s.median, s.q3, s.p90
        );
    }
    if !r.ledger_ms.is_empty() {
        println!("  ledger (traced self time, ranked):");
        for (layer, ms) in &r.ledger_ms {
            println!("    {layer:<10} {ms:>12.3} ms");
        }
        for m in r.all_layers() {
            println!("  {:<28} {:>14.6} {}", m.name, m.value, m.unit);
        }
    }
    for n in &r.notes {
        println!("  note: {n}");
    }
    for f in &r.failures {
        println!("  FAILED: {f}");
    }

    let samples: Vec<String> = r
        .samples
        .iter()
        .map(|(name, unit, s)| {
            format!(
                "{}: {{\"unit\": {}, \"n\": {}, \"min\": {}, \"p10\": {}, \"q1\": {}, \"median\": {}, \"q3\": {}, \"p90\": {}}}",
                string(name),
                string(unit),
                s.n,
                num(s.min),
                num(s.p10),
                num(s.q1),
                num(s.median),
                num(s.q3),
                num(s.p90)
            )
        })
        .collect();
    let det: Vec<String> = r.deterministic.iter().map(|d| string(d)).collect();
    let ledger: Vec<String> = r
        .ledger_ms
        .iter()
        .map(|(l, ms)| format!("[{}, {}]", string(l), num(*ms)))
        .collect();
    println!(
        "{{\"detail\": {{\"workload\": {}, \"seed\": {seed}, \"trace\": {trace}, \
         \"host\": {{\"cpus\": {}, \"cpu_model\": {}, \"rustc\": {}, \"git_rev\": {}}}, \
         \"named\": {}, \"deterministic\": [{}], \"samples\": {{{}}}, \"ledger_ms\": [{}]}}}}",
        string(workload),
        host.cpus,
        string(&host.cpu_model),
        string(&host.rustc),
        string(&host.git_rev),
        metrics_object(&r.named),
        det.join(", "),
        samples.join(", "),
        ledger.join(", ")
    );
}

/// The result line: the last line of standard output.
pub fn result_line(r: &Report, trace: bool) -> String {
    let metrics = if trace {
        r.all_layers()
    } else {
        r.end_to_end.clone()
    };
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        r.correct(),
        r.attempted.max(1),
        r.failed,
        metrics_object(&metrics)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric names and units this program prints are the ones
    /// `BENCHMARK.json` declares.
    #[test]
    fn declared_metrics_match_benchmark_json() {
        let spec = include_str!("../../BENCHMARK.json");
        for (name, unit) in PER_LAYER {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(spec.contains(&entry), "{name} missing from BENCHMARK.json");
        }
        let mut r = Report::default();
        let mut pass = Pass::start(Some(1));
        pass.push(1.0);
        let setup = SetupTimes {
            s: vec![1.0],
            ref_ms: vec![1.0],
        };
        r.end_to_end(&setup, &pass.finish());
        for m in &r.end_to_end {
            let entry = format!("{{\"name\": \"{}\", \"unit\": \"{}\"", m.name, m.unit);
            assert!(
                spec.contains(&entry),
                "{} missing from BENCHMARK.json",
                m.name
            );
        }
        assert_eq!(
            spec.matches("\"name\"").count(),
            PER_LAYER.len() + r.end_to_end.len() + 4
        );
    }
}

//! Machine-readable perf reporting for the experiment harness.
//!
//! Every perf-focused PR is judged against the repo's bench trajectory
//! (`BENCH_*.json` at the workspace root). This module is the writer: a
//! tiny dependency-free JSON emitter ([`PerfReport`]) plus a wall-clock
//! measurement loop ([`median_ns_per_iter`]) shared by the `exp_e19_perf`
//! binary and any future perf regenerators. It is also the reader
//! ([`parse_report`], [`deterministic_diff`]) behind the `bench_diff`
//! binary, which fails when a regenerated report moves any field that
//! does not measure the host. The format is deliberately flat — one
//! named entry per kernel, each a map of metric name to number — so CI
//! can smoke-parse it and humans can diff it.

use signal::dct1d::Dct1d;
use std::time::{Duration, Instant};

/// The seed `Dct2d`: generic matrix 1-D transforms composed row–column.
/// Kept here (not in `video`, which now runs the fixed-8 butterfly) as
/// the single copy of the baseline that `exp_e19_perf` and the `dct`
/// bench both measure against.
///
/// # Panics
///
/// Panics if `block.len() != 64` or `dct` was not planned for size 8.
#[must_use]
pub fn matrix_dct2d_forward(dct: &Dct1d, block: &[f64]) -> [f64; 64] {
    assert_eq!(block.len(), 64, "expected an 8x8 block");
    assert_eq!(dct.len(), 8, "expected an 8-point 1-D DCT");
    let mut tmp = [0.0; 64];
    let mut line = [0.0; 8];
    for r in 0..8 {
        dct.forward_into(&block[r * 8..(r + 1) * 8], &mut line);
        tmp[r * 8..(r + 1) * 8].copy_from_slice(&line);
    }
    let mut out = [0.0; 64];
    let mut col = [0.0; 8];
    for c in 0..8 {
        for r in 0..8 {
            col[r] = tmp[r * 8 + c];
        }
        dct.forward_into(&col, &mut line);
        for r in 0..8 {
            out[r * 8 + c] = line[r];
        }
    }
    out
}

/// One measured kernel: a name plus ordered `metric -> value` pairs.
#[derive(Debug, Clone)]
pub struct PerfEntry {
    /// Kernel/scenario name, e.g. `"me_full_qcif"`.
    pub name: String,
    /// Ordered metrics, e.g. `("wall_ns_per_block", 812.4)`.
    pub metrics: Vec<(String, f64)>,
}

impl PerfEntry {
    /// Creates an empty entry.
    #[must_use]
    pub fn new(name: &str) -> Self {
        Self {
            name: name.to_string(),
            metrics: Vec::new(),
        }
    }

    /// Appends a metric (builder style).
    ///
    /// # Panics
    ///
    /// Panics on non-finite values — NaN/inf have no JSON encoding and
    /// always indicate a harness bug.
    #[must_use]
    pub fn metric(mut self, name: &str, value: f64) -> Self {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.metrics.push((name.to_string(), value));
        self
    }
}

/// A set of [`PerfEntry`]s serialisable as a JSON document.
#[derive(Debug, Clone)]
pub struct PerfReport {
    /// Report name, e.g. `"video_hot_path"`.
    pub name: String,
    /// The binary that generated it, e.g. `"exp_e19_perf"`.
    pub generated_by: String,
    /// Measured kernels, in insertion order.
    pub entries: Vec<PerfEntry>,
}

impl PerfReport {
    /// Creates an empty report.
    #[must_use]
    pub fn new(name: &str, generated_by: &str) -> Self {
        Self {
            name: name.to_string(),
            generated_by: generated_by.to_string(),
            entries: Vec::new(),
        }
    }

    /// Adds an entry.
    pub fn push(&mut self, entry: PerfEntry) {
        self.entries.push(entry);
    }

    /// Serialises the report as pretty-printed JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"report\": {},\n", json_string(&self.name)));
        out.push_str(&format!(
            "  \"generated_by\": {},\n",
            json_string(&self.generated_by)
        ));
        out.push_str("  \"entries\": [\n");
        for (i, e) in self.entries.iter().enumerate() {
            out.push_str("    {\n");
            out.push_str(&format!("      \"name\": {},\n", json_string(&e.name)));
            out.push_str("      \"metrics\": {");
            for (j, (k, v)) in e.metrics.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "\n        {}: {}",
                    json_string(k),
                    json_number(*v)
                ));
            }
            out.push_str("\n      }\n");
            out.push_str(if i + 1 < self.entries.len() {
                "    },\n"
            } else {
                "    }\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Writes the JSON document to `path`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn write(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_number(v: f64) -> String {
    assert!(v.is_finite(), "JSON cannot encode {v}");
    // Round-trippable but diff-friendly: 3 decimal places is ample for ns.
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.3}")
    }
}

/// Milliseconds of host time since `t0`: the `wall_ms` of a phase.
#[must_use]
pub fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// Metrics that measure the host, not the code: they may move between
/// runs, and [`deterministic_diff`] skips them. So does the entry named
/// [`HOST_ENTRY`]. Every other metric of a `BENCH_*.json` is
/// deterministic.
pub const HOST_METRICS: [&str; 3] = ["wall_ms", "sessions_per_second", "speedup_vs_330k_baseline"];

/// The entry that records the host a report ran on.
pub const HOST_ENTRY: &str = "host";

/// Parses a document in [`PerfReport::to_json`]'s format back into its
/// entries (fields other than `entries`, `name` and `metrics` are
/// skipped).
///
/// # Errors
///
/// Describes the first byte that does not fit the format.
pub fn parse_report(json: &str) -> Result<Vec<PerfEntry>, String> {
    let mut p = Parser { s: json, i: 0 };
    let mut entries = Vec::new();
    p.object(|p, key| {
        if key != "entries" {
            return p.skip_value();
        }
        p.array(|p| {
            let mut e = PerfEntry::new("");
            p.object(|p, key| match key.as_str() {
                "name" => {
                    e.name = p.string()?;
                    Ok(())
                }
                "metrics" => p.object(|p, metric| {
                    e.metrics.push((metric, p.number()?));
                    Ok(())
                }),
                _ => p.skip_value(),
            })?;
            entries.push(e);
            Ok(())
        })
    })?;
    p.ws();
    if p.i != p.s.len() {
        return Err(p.error("trailing bytes"));
    }
    Ok(entries)
}

/// Every difference between two reports outside [`HOST_METRICS`] and
/// [`HOST_ENTRY`], one line each: an entry or a metric that only one
/// side has, or a value that changed. Entries match by name; their
/// order does not matter.
#[must_use]
pub fn deterministic_diff(old: &[PerfEntry], new: &[PerfEntry]) -> Vec<String> {
    fn find<'a>(entries: &'a [PerfEntry], name: &str) -> Option<&'a PerfEntry> {
        entries.iter().find(|e| e.name == name)
    }
    let checked = |e: &&PerfEntry| e.name != HOST_ENTRY;
    let mut diffs = Vec::new();
    for o in old.iter().filter(checked) {
        let Some(n) = find(new, &o.name) else {
            diffs.push(format!("{}: entry removed", o.name));
            continue;
        };
        let value = |e: &PerfEntry, k: &str| e.metrics.iter().find(|(m, _)| m == k).map(|m| m.1);
        let keys = o.metrics.iter().chain(&n.metrics).map(|(k, _)| k.as_str());
        let mut seen: Vec<&str> = Vec::new();
        for k in keys.filter(|k| !HOST_METRICS.contains(k)) {
            if seen.contains(&k) {
                continue;
            }
            seen.push(k);
            let (a, b) = (value(o, k), value(n, k));
            if a != b {
                let show = |v: Option<f64>| v.map_or("absent".to_string(), |v| v.to_string());
                diffs.push(format!("{}.{k}: {} -> {}", o.name, show(a), show(b)));
            }
        }
    }
    for n in new.iter().filter(checked) {
        if find(old, &n.name).is_none() {
            diffs.push(format!("{}: entry added", n.name));
        }
    }
    diffs
}

/// A recursive-descent reader for the JSON subset the writer emits:
/// objects, arrays, numbers, and strings with the writer's escapes.
struct Parser<'a> {
    s: &'a str,
    i: usize,
}

impl Parser<'_> {
    fn error(&self, what: &str) -> String {
        format!("{what} at byte {}", self.i)
    }

    fn ws(&mut self) {
        while self
            .s
            .as_bytes()
            .get(self.i)
            .is_some_and(u8::is_ascii_whitespace)
        {
            self.i += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.ws();
        self.s.as_bytes().get(self.i).copied()
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        if self.peek() != Some(c) {
            return Err(self.error(&format!("expected '{}'", c as char)));
        }
        self.i += 1;
        Ok(())
    }

    /// Parses `{ "key": value, ... }`, handing each key to `value`,
    /// which must consume the value.
    fn object<F>(&mut self, mut value: F) -> Result<(), String>
    where
        F: FnMut(&mut Self, String) -> Result<(), String>,
    {
        self.eat(b'{')?;
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(());
        }
        loop {
            let key = self.string()?;
            self.eat(b':')?;
            value(self, key)?;
            if self.peek() == Some(b',') {
                self.i += 1;
            } else {
                return self.eat(b'}');
            }
        }
    }

    /// Parses `[ item, ... ]`, calling `item` once per element.
    fn array<F>(&mut self, mut item: F) -> Result<(), String>
    where
        F: FnMut(&mut Self) -> Result<(), String>,
    {
        self.eat(b'[')?;
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(());
        }
        loop {
            item(self)?;
            if self.peek() == Some(b',') {
                self.i += 1;
            } else {
                return self.eat(b']');
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let rest = &self.s[self.i..];
            let mut chars = rest.chars();
            let c = chars
                .next()
                .ok_or_else(|| self.error("unterminated string"))?;
            self.i += c.len_utf8();
            match c {
                '"' => return Ok(out),
                '\\' => {
                    let e = chars
                        .next()
                        .ok_or_else(|| self.error("unterminated escape"))?;
                    self.i += 1;
                    match e {
                        '"' | '\\' => out.push(e),
                        'n' => out.push('\n'),
                        'u' => {
                            let hex = rest
                                .get(2..6)
                                .ok_or_else(|| self.error("short \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.error("bad \\u escape"))?;
                            out.push(
                                char::from_u32(code).ok_or_else(|| self.error("bad \\u escape"))?,
                            );
                            self.i += 4;
                        }
                        _ => return Err(self.error("unknown escape")),
                    }
                }
                c => out.push(c),
            }
        }
    }

    fn number(&mut self) -> Result<f64, String> {
        self.ws();
        let start = self.i;
        while self
            .s
            .as_bytes()
            .get(self.i)
            .is_some_and(|&c| c.is_ascii_digit() || b"+-.eE".contains(&c))
        {
            self.i += 1;
        }
        self.s[start..self.i]
            .parse()
            .map_err(|_| self.error("expected a number"))
    }

    fn skip_value(&mut self) -> Result<(), String> {
        match self.peek() {
            Some(b'{') => self.object(|p, _| p.skip_value()),
            Some(b'[') => self.array(Self::skip_value),
            Some(b'"') => self.string().map(drop),
            _ => self.number().map(drop),
        }
    }
}

/// Median wall-clock nanoseconds of one invocation of `f`, using the
/// same sizing strategy as the vendored criterion harness: double the
/// iteration count until a sample lasts ~10 ms, then take the median of
/// 7 samples.
pub fn median_ns_per_iter<F: FnMut()>(mut f: F) -> f64 {
    const SAMPLE_TARGET: Duration = Duration::from_millis(10);
    const WARMUP_TARGET: Duration = Duration::from_millis(40);
    const SAMPLES: usize = 7;
    let mut iters: u64 = 1;
    let warmup = Instant::now();
    loop {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        if t.elapsed() >= SAMPLE_TARGET || warmup.elapsed() >= WARMUP_TARGET {
            break;
        }
        iters = iters.saturating_mul(2);
    }
    let mut per_iter: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed().as_secs_f64() * 1e9 / iters as f64
        })
        .collect();
    per_iter.sort_by(f64::total_cmp);
    per_iter[SAMPLES / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_shape_is_parseable_by_inspection() {
        let mut r = PerfReport::new("video_hot_path", "exp_e19_perf");
        r.push(
            PerfEntry::new("me_full")
                .metric("wall_ns_per_block", 812.375)
                .metric("sad_evaluations", 225.0),
        );
        r.push(PerfEntry::new("dct8x8").metric("wall_ns_per_block", 96.0));
        let j = r.to_json();
        // Structural sanity: balanced braces/brackets, both entries, and
        // metric keys present.
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
        assert!(j.contains("\"me_full\"") && j.contains("\"dct8x8\""));
        assert!(j.contains("\"wall_ns_per_block\": 812.375"));
        assert!(j.contains("\"sad_evaluations\": 225"));
    }

    #[test]
    fn json_escapes_special_characters() {
        let r = PerfReport::new("a\"b\\c\nd", "t");
        let j = r.to_json();
        assert!(j.contains("a\\\"b\\\\c\\nd"));
    }

    #[test]
    #[should_panic(expected = "not finite")]
    fn non_finite_metric_panics() {
        let _ = PerfEntry::new("x").metric("bad", f64::NAN);
    }

    #[test]
    fn reports_parse_back_from_their_json() {
        let mut r = PerfReport::new("r", "t");
        r.push(
            PerfEntry::new("a \"quoted\" \u{1} name")
                .metric("knee", 8_000.0)
                .metric("frac", 0.125)
                .metric("neg", -3.5e-7),
        );
        r.push(PerfEntry::new("empty"));
        let back = parse_report(&r.to_json()).expect("the writer's output parses");
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].name, r.entries[0].name);
        assert_eq!(
            back[0].metrics,
            vec![
                ("knee".to_string(), 8_000.0),
                ("frac".to_string(), 0.125),
                ("neg".to_string(), 0.0),
            ],
            "values round-trip at the writer's three decimals"
        );
        assert!(back[1].metrics.is_empty());
        assert!(parse_report("{\"entries\": [}").is_err());
        assert!(parse_report("{\"entries\": []} x").is_err());
    }

    #[test]
    fn diff_flags_deterministic_changes_and_skips_host_fields() {
        let old = vec![
            PerfEntry::new("host").metric("host_cpus", 1.0),
            PerfEntry::new("knee")
                .metric("knee_sessions", 8_000.0)
                .metric("wall_ms", 12.0)
                .metric("sessions_per_second", 1e6),
            PerfEntry::new("gone").metric("x", 1.0),
        ];
        let same = vec![
            PerfEntry::new("host").metric("host_cpus", 4.0),
            PerfEntry::new("knee")
                .metric("knee_sessions", 8_000.0)
                .metric("speedup_vs_330k_baseline", 3.0),
            PerfEntry::new("gone").metric("x", 1.0),
        ];
        assert!(deterministic_diff(&old, &same).is_empty());
        let moved = vec![
            PerfEntry::new("knee")
                .metric("knee_sessions", 7_000.0)
                .metric("extra", 1.0),
            PerfEntry::new("new").metric("y", 2.0),
        ];
        assert_eq!(
            deterministic_diff(&old, &moved),
            vec![
                "knee.knee_sessions: 8000 -> 7000",
                "knee.extra: absent -> 1",
                "gone: entry removed",
                "new: entry added",
            ]
        );
    }

    #[test]
    fn timer_returns_positive_duration() {
        let mut acc = 0u64;
        let ns = median_ns_per_iter(|| {
            acc = acc.wrapping_add(std::hint::black_box(1));
        });
        assert!(ns > 0.0);
    }
}

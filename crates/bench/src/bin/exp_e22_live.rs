//! E22 — live/linear delivery harness.
//!
//! Measures the live workload class end to end and writes the
//! machine-readable `BENCH_live.json` that extends the repo's perf
//! trajectory:
//!
//! * **Steady-state live capacity knee vs edge count**: viewers joining
//!   at the live edge, paced by the publish clock, for 1/2/4/8 cold
//!   edges at the PR 3 per-link capacity (4,000 bytes/tick). The knee
//!   must scale with edge count exactly as the VOD knee does — asserted
//!   in-binary: the 4-edge live knee is ≥ 2x the single-edge one.
//! * **Live latency vs DVR depth**: DvrStart joiners on an
//!   already-running channel; a deeper window means more catch-up
//!   distance, so mean live latency must grow monotonically with DVR
//!   depth (asserted).
//! * **The 10x flash crowd**: 300 steady viewers, then 3,000 more over
//!   a 1,000-tick ramp mid-event. The single origin collapses
//!   (rebuffer fraction > 5%); the warm 4-edge tier — warmed only
//!   organically, by the steady viewers — holds ≤ 5% rebuffering
//!   through the same spike, because every just-published live-edge
//!   segment crosses the origin once per edge while thousands of
//!   waiters coalesce onto that one fill. All three bars are asserted
//!   before anything is written.
//!
//! Every metric but `wall_ms` is seed-deterministic (asserted by
//! re-running a level). `wall_ms` is the host time of each entry's
//! simulation: one run, the calm and flashed single-origin pair, or the
//! whole curve behind a knee.

use std::time::Instant;

use mmbench::banner;
use mmbench::perf::{ms_since, PerfEntry, PerfReport};
use mmstream::edge::EdgeTierConfig;
use mmstream::ladder::{encode_ladder, LadderConfig};
use mmstream::serve::{
    live_edge_capacity_knee, simulate_live_edge_load, simulate_live_load, ChurnConfig, LiveConfig,
    LoadConfig, ServerConfig,
};
use mmstream::session::JoinMode;
use video::synth::SequenceGen;

fn main() {
    banner(
        "E22: live/linear delivery (BENCH_live.json)",
        "a rolling-window live channel through the delivery stack: the \
         live capacity knee scales with edge count, latency trades \
         against DVR depth, and a warm edge tier absorbs the 10x flash \
         crowd that collapses a single origin",
    );

    let mut report = PerfReport::new("live_delivery", "exp_e22_live");

    // A 16-segment event (64 frames, GOP 4) at the natural publish
    // pace: 4 frames x 100 ticks = 400 ticks per segment.
    let source = SequenceGen::new(12).panning_sequence(64, 48, 64, 1, 1);
    let cfg = LadderConfig {
        targets_bits_per_frame: vec![2_000.0, 6_000.0, 18_000.0],
        gop: 4,
        ..Default::default()
    };
    let manifest = encode_ladder("bench", &source, &cfg)
        .expect("ladder encodes")
        .manifest;
    let base = LoadConfig::default();
    let live_edge_join = LiveConfig {
        dvr_window_segments: 8,
        join: JoinMode::LiveEdge,
        ..Default::default()
    };

    // ---- Steady-state live knee vs edge count.
    println!("live capacity knee vs edge count (live-edge joins, 4,000 B/tick per link):");
    let counts = [500usize, 1_000, 2_000, 4_000, 8_000];
    let mut knee_1 = 0usize;
    let mut knee_4 = 0usize;
    for edges in [1usize, 2, 4, 8] {
        let tier = EdgeTierConfig {
            edges,
            prewarm: false,
            ..Default::default()
        };
        // The live capacity curve, one timed point at a time.
        let t0 = Instant::now();
        let (curve, point_ms): (Vec<_>, Vec<f64>) = counts
            .iter()
            .map(|&sessions| {
                let t = Instant::now();
                let load = LoadConfig { sessions, ..base };
                let r = simulate_live_edge_load(&manifest, &tier, &live_edge_join, &load);
                (r, ms_since(t))
            })
            .unzip();
        let wall_ms = ms_since(t0);
        let knee = live_edge_capacity_knee(&curve, 0.05).expect("tier sustains some live level");
        match edges {
            1 => knee_1 = knee,
            4 => knee_4 = knee,
            _ => {}
        }
        println!("  {edges} edges: knee {knee} sessions");
        report.push(
            PerfEntry::new(&format!("live_knee_{edges}_edges"))
                .metric("edges", edges as f64)
                .metric("knee_sessions", knee as f64)
                .metric("wall_ms", wall_ms),
        );
        if edges == 4 {
            for (r, &point_ms) in curve.iter().zip(&point_ms) {
                report.push(
                    PerfEntry::new(&format!(
                        "live_edge4_load_{}_sessions",
                        r.edge.load.sessions
                    ))
                    .metric("sessions", r.edge.load.sessions as f64)
                    .metric("rebuffer_fraction", r.edge.load.rebuffer_fraction)
                    .metric("mean_live_latency_ticks", r.live.mean_latency_ticks)
                    .metric("hit_rate", r.edge.hit_rate)
                    .metric("wall_ms", point_ms),
                );
            }
        }
    }
    assert!(
        knee_4 >= 2 * knee_1,
        "4 edges must at least double the live knee: {knee_4} vs {knee_1}"
    );
    println!("4-edge live knee {knee_4} >= 2x single-edge knee {knee_1}: ok\n");

    // ---- Live latency vs DVR depth: DvrStart joiners on a channel
    // that already published the whole event.
    println!("live latency vs DVR depth (DvrStart joins, 400-tick segments):");
    let mut last_mean = 0.0f64;
    for dvr in [2u64, 4, 8, 16] {
        let lc = LiveConfig {
            dvr_window_segments: dvr,
            head_start_segments: manifest.segment_count() as u64 - 1,
            join: JoinMode::DvrStart,
            ..Default::default()
        };
        let t0 = Instant::now();
        let r = simulate_live_load(
            &manifest,
            &ServerConfig::default(),
            &lc,
            &LoadConfig {
                sessions: 200,
                ..base
            },
        );
        let wall_ms = ms_since(t0);
        assert_eq!(r.load.completed, 200, "every DVR viewer reaches the end");
        println!(
            "  dvr {dvr:>2} segments: mean latency {:>6.0} ticks, max {:>5}",
            r.live.mean_latency_ticks, r.live.max_latency_ticks
        );
        report.push(
            PerfEntry::new(&format!("live_latency_dvr_{dvr}"))
                .metric("dvr_window_segments", dvr as f64)
                .metric("mean_live_latency_ticks", r.live.mean_latency_ticks)
                .metric("max_live_latency_ticks", r.live.max_latency_ticks as f64)
                .metric("rebuffer_fraction", r.load.rebuffer_fraction)
                .metric("wall_ms", wall_ms),
        );
        assert!(
            r.live.mean_latency_ticks >= last_mean,
            "a deeper DVR window cannot lower catch-up latency"
        );
        last_mean = r.live.mean_latency_ticks;
    }

    // ---- The 10x flash crowd.
    println!("\n10x flash crowd (300 steady viewers + 3,000 over a 1,000-tick ramp):");
    let flashed = LoadConfig {
        sessions: 300,
        stagger_ticks: 1_000,
        churn: ChurnConfig {
            flash_sessions: 3_000,
            flash_at_tick: 2_000,
            flash_ramp_ticks: 1_000,
            ..Default::default()
        },
        ..base
    };
    let calm = LoadConfig {
        churn: ChurnConfig::default(),
        ..flashed
    };
    let server = ServerConfig::default();
    let t0 = Instant::now();
    let single_calm = simulate_live_load(&manifest, &server, &live_edge_join, &calm);
    let single_flash = simulate_live_load(&manifest, &server, &live_edge_join, &flashed);
    let single_ms = ms_since(t0);
    let tier = EdgeTierConfig {
        edges: 4,
        prewarm: false,
        ..Default::default()
    };
    let t0 = Instant::now();
    let edge_flash = simulate_live_edge_load(&manifest, &tier, &live_edge_join, &flashed);
    let edge_ms = ms_since(t0);
    println!(
        "  single origin, calm:    rebuffer {:>5.1}% ({} sessions)",
        100.0 * single_calm.load.rebuffer_fraction,
        single_calm.load.sessions
    );
    println!(
        "  single origin, flashed: rebuffer {:>5.1}% ({} sessions)",
        100.0 * single_flash.load.rebuffer_fraction,
        single_flash.load.sessions
    );
    println!(
        "  4-edge tier,  flashed:  rebuffer {:>5.1}% (hit rate {:.1}%, {} fills fed {} waiters)",
        100.0 * edge_flash.edge.load.rebuffer_fraction,
        100.0 * edge_flash.edge.hit_rate,
        edge_flash.edge.tier.misses,
        edge_flash.edge.tier.coalesced
    );

    // The tentpole bars, gated before the report is written.
    assert!(
        single_calm.load.rebuffer_fraction <= 0.05,
        "the steady audience must be comfortable on one origin"
    );
    assert!(
        single_flash.load.rebuffer_fraction > 0.05,
        "the flash crowd must drive a single origin past its knee: {}",
        single_flash.load.rebuffer_fraction
    );
    assert!(
        edge_flash.edge.load.rebuffer_fraction <= 0.05,
        "a warm 4-edge tier must hold <=5% rebuffering through the spike: {}",
        edge_flash.edge.load.rebuffer_fraction
    );
    println!("  flash-crowd edge-absorption bar holds\n");
    report.push(
        PerfEntry::new("flash_crowd_single_origin")
            .metric("sessions", single_flash.load.sessions as f64)
            .metric("rebuffer_fraction", single_flash.load.rebuffer_fraction)
            .metric("calm_rebuffer_fraction", single_calm.load.rebuffer_fraction)
            .metric("wall_ms", single_ms),
    );
    report.push(
        PerfEntry::new("flash_crowd_4_edges")
            .metric("sessions", edge_flash.edge.load.sessions as f64)
            .metric("rebuffer_fraction", edge_flash.edge.load.rebuffer_fraction)
            .metric("hit_rate", edge_flash.edge.hit_rate)
            .metric("origin_fills", edge_flash.edge.tier.misses as f64)
            .metric("coalesced_waiters", edge_flash.edge.tier.coalesced as f64)
            .metric(
                "mean_live_latency_ticks",
                edge_flash.live.mean_latency_ticks,
            )
            .metric("wall_ms", edge_ms),
    );

    // ---- Determinism gate: an identical re-run must agree exactly.
    let replay = simulate_live_edge_load(&manifest, &tier, &live_edge_join, &flashed);
    assert_eq!(
        replay, edge_flash,
        "live load simulation must be deterministic for identical seeds"
    );

    report
        .write("BENCH_live.json")
        .expect("write BENCH_live.json");
    println!("wrote BENCH_live.json ({} entries)", report.entries.len());
}

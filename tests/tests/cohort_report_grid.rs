//! Full-report pins for the cohort engine on the paths the per-session
//! oracle cannot reach. The oracle suite (`calendar`'s unit tests) is
//! single-title and flat; these scenarios run shields, Zipf catalogs,
//! TinyLFU admission, evicting edge and shield caches, live DVR with a
//! flash crowd, every fault kind, rebuffers that begin under fault
//! pressure, degrade spans faster than the provisioned rate, live
//! channels with a head start and quanta that straddle publishes, and
//! churn departures that land on downloading cohorts and on viewers
//! caught up with the live edge.
//!
//! Every field of each `CdnLoadReport` is flattened to a word list
//! (integers as `u64`, `f64` by `to_bits`, per-edge and per-shield
//! entries included) and pinned by its length and digest, so a pin
//! holds only while every field of the report is bit-identical. The
//! pinned values were generated by engines that scanned the cohorts
//! these paths exercise every quantum (every cohort, for the first
//! twelve pins; under fault pressure and for publish waiters, for the
//! last four); an engine that skips work must reproduce them exactly.

use mmstream::catalog::Catalog;
use mmstream::edge::{EdgeStats, EdgeTierConfig};
use mmstream::fault::{FaultPlan, ResilienceStats, RestartMode};
use mmstream::ladder::{encode_ladder, LadderConfig, Manifest};
use mmstream::serve::{
    simulate_cdn_load, simulate_cdn_load_faulted, simulate_live_cdn_load,
    simulate_live_cdn_load_faulted, CdnConfig, CdnLoadReport, ChurnConfig, EdgeLoadReport,
    EdgeReportEntry, LiveConfig, LiveStats, LoadConfig, LoadReport,
};
use mmstream::session::JoinMode;
use mmstream::shield::{AdmissionPolicy, TierStats, TinyLfuConfig};
use netstack::link::{LinkTrace, TracePhase};
use signal::rng::splitmix64;
use video::synth::SequenceGen;

/// The E21/E23 VOD title: 64x48, 3 rungs, GOP 4.
fn title(frames: usize) -> Manifest {
    let source = SequenceGen::new(12).panning_sequence(64, 48, frames, 1, 1);
    let cfg = LadderConfig {
        targets_bits_per_frame: vec![2_000.0, 6_000.0, 18_000.0],
        gop: 4,
        ..Default::default()
    };
    encode_ladder("grid", &source, &cfg)
        .expect("the grid title encodes")
        .manifest
}

fn push_load(w: &mut Vec<u64>, l: &LoadReport) {
    let LoadReport {
        sessions,
        completed,
        ticks,
        total_goodput_bits_per_tick,
        mean_session_bits_per_tick,
        mean_startup_ticks,
        rebuffer_sessions,
        rebuffer_fraction,
        mean_rung,
        rung_switches,
        departed,
    } = *l;
    w.extend([
        sessions as u64,
        completed as u64,
        ticks,
        total_goodput_bits_per_tick.to_bits(),
        mean_session_bits_per_tick.to_bits(),
        mean_startup_ticks.to_bits(),
        rebuffer_sessions as u64,
        rebuffer_fraction.to_bits(),
        mean_rung.to_bits(),
        rung_switches,
        departed as u64,
    ]);
}

fn push_stats(w: &mut Vec<u64>, s: &EdgeStats) {
    let EdgeStats {
        hits,
        misses,
        coalesced,
        evictions,
        revalidations,
        invalidations,
        origin_bytes,
        served_bytes,
    } = *s;
    w.extend([
        hits,
        misses,
        coalesced,
        evictions,
        revalidations,
        invalidations,
        origin_bytes,
        served_bytes,
    ]);
}

fn push_entries(w: &mut Vec<u64>, entries: &[EdgeReportEntry]) {
    w.push(entries.len() as u64);
    for e in entries {
        w.push(e.sessions as u64);
        push_stats(w, &e.stats);
    }
}

/// Every field of `r`, in declaration order. The destructuring lists
/// each field by name, so a field added to any report type fails to
/// compile here instead of silently escaping the pin.
fn words(r: &CdnLoadReport) -> Vec<u64> {
    let CdnLoadReport {
        edge,
        per_shield,
        tier,
        origin_offload,
        live,
        resilience,
    } = r;
    let EdgeLoadReport {
        load,
        per_edge,
        tier: edge_tier,
        hit_rate,
        origin_offload: edge_offload,
    } = edge;
    let mut w = Vec::new();
    push_load(&mut w, load);
    push_entries(&mut w, per_edge);
    push_stats(&mut w, edge_tier);
    w.extend([hit_rate.to_bits(), edge_offload.to_bits()]);
    push_entries(&mut w, per_shield);
    let TierStats {
        edges,
        shields,
        origin_hits,
        tiered,
    } = tier;
    push_stats(&mut w, edges);
    push_stats(&mut w, shields);
    w.extend([*origin_hits, u64::from(*tiered), origin_offload.to_bits()]);
    let LiveStats {
        mean_latency_ticks,
        max_latency_ticks,
        publish_wait_ticks,
        window_skips,
    } = *live;
    w.extend([
        mean_latency_ticks.to_bits(),
        max_latency_ticks,
        publish_wait_ticks,
        window_skips,
    ]);
    let ResilienceStats {
        edge_crashes,
        edge_restarts,
        shield_crashes,
        shield_restarts,
        mean_restore_ticks,
        sessions_rehomed,
        sessions_fault_rebuffered,
        fault_rebuffer_ticks,
        rewarm_fills,
        fills_lost,
    } = *resilience;
    w.extend([
        edge_crashes,
        edge_restarts,
        shield_crashes,
        shield_restarts,
        mean_restore_ticks.to_bits(),
        sessions_rehomed,
        sessions_fault_rebuffered,
        fault_rebuffer_ticks,
        rewarm_fills,
        fills_lost,
    ]);
    w
}

fn digest(words: &[u64]) -> u64 {
    words
        .iter()
        .fold(0x6A09_E667_F3BC_C908, |h, &x| splitmix64(h ^ x))
}

/// One pinned report: headline counts for legible failures, then the
/// length and digest of the full word list.
struct Pin {
    name: &'static str,
    completed: usize,
    departed: usize,
    ticks: u64,
    words: usize,
    digest: u64,
}

fn check(r: &CdnLoadReport, pin: &Pin) {
    let w = words(r);
    let got = (
        r.edge.load.completed,
        r.edge.load.departed,
        r.edge.load.ticks,
        w.len(),
        digest(&w),
    );
    let want = (
        pin.completed,
        pin.departed,
        pin.ticks,
        pin.words,
        pin.digest,
    );
    assert_eq!(
        got, want,
        "{}: the report moved (completed, departed, ticks, words, digest); \
         got {got:?}, want {want:?}\nfull report: {r:#?}",
        pin.name
    );
}

/// `edges` edges behind 4 shields, with unbounded caches.
fn shielded(edges: usize, prewarm: bool) -> CdnConfig {
    CdnConfig {
        tier: EdgeTierConfig {
            edges,
            cache_capacity_bytes: usize::MAX,
            prewarm,
            ..Default::default()
        },
        shields: 4,
        shield_cache_capacity_bytes: usize::MAX,
        shield_capacity_bytes_per_tick: 100_000.0,
        admission: AdmissionPolicy::AdmitAll,
    }
}

/// VOD viewers arriving over 1,000 ticks, plus half as many churners
/// arriving about one per tick who leave mid-title.
fn churned(sessions: usize, seed: u64) -> LoadConfig {
    LoadConfig {
        sessions,
        seed,
        churn: ChurnConfig {
            churn_sessions: sessions / 2,
            mean_interarrival_ticks: 1.0,
            mean_watch_ticks: 900.0,
            ..Default::default()
        },
        ..Default::default()
    }
}

#[test]
fn zipf_catalogs_through_four_shields() {
    let t = title(32);
    let c64 = Catalog::synthesize(&t, 64, 1.0);
    let c512 = Catalog::synthesize(&t, 512, 1.0);
    // Warm 512-title tier loaded past its knee (the cdn_knee shape),
    // with churners departing while their cohorts download.
    check(
        &simulate_cdn_load(&c512, &shielded(8, true), &churned(12_000, 3)),
        &Pin {
            name: "warm 512-title past the knee",
            completed: 14_404,
            departed: 3_596,
            ticks: 6_064,
            words: 164,
            digest: 0xFB40_C911_F6BF_9C27,
        },
    );
    // Cold 64-title tier: edge fills coalesce behind the shields.
    check(
        &simulate_cdn_load(&c64, &shielded(8, false), &churned(2_000, 5)),
        &Pin {
            name: "cold 64-title",
            completed: 2_439,
            departed: 561,
            ticks: 1_612,
            words: 164,
            digest: 0xDCFE_D5DA_DE05_E8F5,
        },
    );
    // Flat warm tier past its knee: a plain edge tier, no shields.
    let flat = CdnConfig {
        shields: 0,
        ..shielded(4, true)
    };
    check(
        &simulate_cdn_load(&c64, &flat, &churned(5_000, 7)),
        &Pin {
            name: "flat warm 64-title",
            completed: 5_242,
            departed: 2_258,
            ticks: 3_620,
            words: 92,
            digest: 0x0480_A3B1_D835_8F3F,
        },
    );
}

#[test]
fn evicting_caches_with_and_without_tinylfu() {
    let t = title(32);
    let catalog = Catalog::synthesize(&t, 512, 1.0);
    let touched: usize = catalog
        .titles()
        .iter()
        .map(|m| m.rungs[0].segments.iter().map(|s| s.bytes).sum::<usize>())
        .sum();
    let load = LoadConfig {
        sessions: 3_000,
        stagger_ticks: 4_000,
        seed: 11,
        ..Default::default()
    };
    for (admission, pin) in [
        (
            AdmissionPolicy::AdmitAll,
            Pin {
                name: "bounded LRU edges and shields",
                completed: 3_000,
                departed: 0,
                ticks: 5_012,
                words: 128,
                digest: 0x67EF_7926_A7DA_8510,
            },
        ),
        (
            AdmissionPolicy::TinyLfu(TinyLfuConfig::default()),
            Pin {
                name: "bounded TinyLFU edges, bounded shields",
                completed: 3_000,
                departed: 0,
                ticks: 4_944,
                words: 128,
                digest: 0xA583_0CAB_6639_7D8C,
            },
        ),
    ] {
        let cdn = CdnConfig {
            tier: EdgeTierConfig {
                edges: 4,
                cache_capacity_bytes: touched / 16,
                edge_capacity_bytes_per_tick: 40_000.0,
                prewarm: false,
                ..Default::default()
            },
            shields: 4,
            shield_cache_capacity_bytes: touched / 4,
            shield_capacity_bytes_per_tick: 100_000.0,
            admission,
        };
        let r = simulate_cdn_load(&catalog, &cdn, &load);
        assert!(r.tier.edges.evictions > 0, "{}: edges must evict", pin.name);
        assert!(
            r.tier.shields.evictions > 0,
            "{}: shields must evict",
            pin.name
        );
        check(&r, &pin);
    }
}

fn live_catalog() -> Catalog {
    Catalog::single(title(48))
}

fn flash_load(seed: u64) -> LoadConfig {
    LoadConfig {
        sessions: 200,
        stagger_ticks: 1_000,
        seed,
        churn: ChurnConfig {
            churn_sessions: 100,
            mean_interarrival_ticks: 20.0,
            mean_watch_ticks: 1_500.0,
            flash_sessions: 1_500,
            flash_at_tick: 2_000,
            flash_ramp_ticks: 800,
        },
        ..Default::default()
    }
}

fn live() -> LiveConfig {
    LiveConfig {
        dvr_window_segments: 4,
        join: JoinMode::DvrStart,
        ..Default::default()
    }
}

/// Four warm edges with a thin downlink, so the flash crowd stalls.
fn flash_cdn() -> CdnConfig {
    CdnConfig {
        tier: EdgeTierConfig {
            edges: 4,
            cache_capacity_bytes: usize::MAX,
            edge_capacity_bytes_per_tick: 1_500.0,
            prewarm: true,
            ..Default::default()
        },
        shields: 2,
        shield_cache_capacity_bytes: usize::MAX,
        shield_capacity_bytes_per_tick: 16_000.0,
        admission: AdmissionPolicy::AdmitAll,
    }
}

#[test]
fn live_dvr_with_a_flash_crowd() {
    check(
        &simulate_live_cdn_load(&live_catalog(), &flash_cdn(), &live(), &flash_load(21)),
        &Pin {
            name: "live DVR flash crowd",
            completed: 1_709,
            departed: 91,
            ticks: 5_196,
            words: 110,
            digest: 0x751C_7579_BBAD_77B9,
        },
    );
}

#[test]
fn every_fault_kind_on_vod_and_live() {
    let t = title(32);
    let catalog = Catalog::synthesize(&t, 64, 1.0);
    let cdn = shielded(8, true);
    let load = churned(7_000, 13);
    let plans = [
        (
            FaultPlan::new(1).crash_edge(2, 1_500, Some((3_500, RestartMode::Warm))),
            Pin {
                name: "edge crash, warm restart",
                completed: 8_031,
                departed: 2_469,
                ticks: 3_528,
                words: 164,
                digest: 0xBE15_481A_A73C_A56D,
            },
        ),
        (
            FaultPlan::new(2).crash_edge(5, 1_200, Some((2_800, RestartMode::Cold))),
            Pin {
                name: "edge crash, cold restart",
                completed: 8_067,
                departed: 2_433,
                ticks: 3_532,
                words: 164,
                digest: 0x0DC3_AD51_08E5_3287,
            },
        ),
        (
            FaultPlan::new(3).crash_shield(1, 1_000, Some((3_000, RestartMode::Cold))),
            Pin {
                name: "shield crash",
                completed: 8_184,
                departed: 2_316,
                ticks: 3_520,
                words: 164,
                digest: 0x50F8_066D_1B4E_AD90,
            },
        ),
        (
            FaultPlan::new(4).flap_origin(800, 2_600),
            Pin {
                name: "origin flap",
                completed: 8_184,
                departed: 2_316,
                ticks: 3_520,
                words: 164,
                digest: 0x45BB_728F_7672_BB1F,
            },
        ),
        (
            FaultPlan::new(5)
                .degrade_link(Some(3), 1_000, 4_000, 0.25)
                .degrade_link(Some(3), 2_000, 2_500, 0.5)
                .degrade_link(None, 500, 5_000, 0.5),
            Pin {
                name: "degrade spans",
                completed: 8_058,
                departed: 2_442,
                ticks: 4_880,
                words: 164,
                digest: 0x834D_0E23_C9D7_39F0,
            },
        ),
    ];
    for (plan, pin) in &plans {
        let r = simulate_cdn_load_faulted(&catalog, &cdn, plan, &load);
        check(&r, pin);
    }

    // The composed live case: flash crowd, cold edge crash, origin
    // flap and a cold shield crash in one run.
    let plan = FaultPlan::new(0xFA11)
        .crash_edge(0, 2_400, Some((4_400, RestartMode::Cold)))
        .flap_origin(2_400, 3_600)
        .crash_shield(0, 2_600, Some((4_600, RestartMode::Cold)));
    check(
        &simulate_live_cdn_load_faulted(
            &live_catalog(),
            &flash_cdn(),
            &live(),
            &plan,
            &flash_load(23),
        ),
        &Pin {
            name: "live flash with crashes and a flap",
            completed: 1_711,
            departed: 89,
            ticks: 5_356,
            words: 110,
            digest: 0x1F5D_6DEC_C7DF_4E30,
        },
    );
}

/// Live viewers whose rebuffers *begin* under fault pressure: every
/// edge runs at half rate through the flash crowd, so playing classes
/// run dry while they download, and the fault ledger accrues.
#[test]
fn live_rebuffers_that_begin_under_fault_pressure() {
    let mut plan = FaultPlan::new(0xD1E);
    for e in 0..4 {
        plan = plan.degrade_link(Some(e), 1_800, 4_200, 0.5);
    }
    let r = simulate_live_cdn_load_faulted(
        &live_catalog(),
        &flash_cdn(),
        &live(),
        &plan,
        &flash_load(29),
    );
    assert!(r.resilience.sessions_fault_rebuffered > 0);
    assert!(r.resilience.fault_rebuffer_ticks > 0);
    check(
        &r,
        &Pin {
            name: "live rebuffers under degraded edges",
            completed: 1_707,
            departed: 93,
            ticks: 5_436,
            words: 110,
            digest: 0x830F_8114_818E_A51D,
        },
    );
}

/// A link trace with a phase *faster* than the provisioned rate
/// degrades two starved edges to a scale above 1, so one quantum's
/// drain exceeds the unscaled edge capacity.
#[test]
fn degrade_spans_faster_than_provisioned() {
    let trace = LinkTrace {
        phases: vec![
            TracePhase {
                ticks: 700,
                ticks_per_byte: 1.0,
                loss: 0.0,
            },
            TracePhase {
                ticks: 1_600,
                ticks_per_byte: 0.25,
                loss: 0.0,
            },
            TracePhase {
                ticks: 900,
                ticks_per_byte: 0.5,
                loss: 0.0,
            },
            TracePhase {
                ticks: 1,
                ticks_per_byte: 1.0,
                loss: 0.0,
            },
        ],
        repeat: false,
    };
    let plan = FaultPlan::new(0xFA57)
        .degrade_from_trace(Some(1), &trace, 1.0, 20_000)
        .degrade_from_trace(Some(2), &trace, 1.0, 20_000);
    let cdn = CdnConfig {
        tier: EdgeTierConfig {
            edges: 4,
            cache_capacity_bytes: usize::MAX,
            edge_capacity_bytes_per_tick: 300.0,
            per_session_bytes_per_tick: f64::INFINITY,
            prewarm: true,
            ..Default::default()
        },
        shields: 0,
        shield_cache_capacity_bytes: usize::MAX,
        shield_capacity_bytes_per_tick: 100_000.0,
        admission: AdmissionPolicy::AdmitAll,
    };
    let load = LoadConfig {
        sessions: 24,
        stagger_ticks: 3_000,
        seed: 31,
        tick_quantum: 3,
        churn: ChurnConfig {
            churn_sessions: 12,
            mean_interarrival_ticks: 200.0,
            mean_watch_ticks: 2_500.0,
            ..Default::default()
        },
        ..Default::default()
    };
    let r = simulate_cdn_load_faulted(&Catalog::single(title(32)), &cdn, &plan, &load);
    check(
        &r,
        &Pin {
            name: "degrade spans above scale 1",
            completed: 35,
            departed: 1,
            ticks: 3_711,
            words: 92,
            digest: 0x1AB8_0528_2AC1_0570,
        },
    );
}

/// A channel three segments into its stream, paced at 250 ticks a
/// segment and simulated in 7-tick quanta, so publishes fall between
/// quantum boundaries; churners leave while caught up on the live edge.
#[test]
fn live_head_start_with_an_unaligned_quantum() {
    let live = LiveConfig {
        ticks_per_segment: 250,
        dvr_window_segments: 6,
        head_start_segments: 3,
        join: JoinMode::LiveEdge,
    };
    let load = LoadConfig {
        sessions: 300,
        stagger_ticks: 2_000,
        seed: 37,
        tick_quantum: 7,
        churn: ChurnConfig {
            churn_sessions: 300,
            mean_interarrival_ticks: 6.0,
            mean_watch_ticks: 1_200.0,
            ..Default::default()
        },
        ..Default::default()
    };
    check(
        &simulate_live_cdn_load(&live_catalog(), &shielded(4, true), &live, &load),
        &Pin {
            name: "live head start, 7-tick quanta",
            completed: 435,
            departed: 165,
            ticks: 2_044,
            words: 128,
            digest: 0x2CE8_1326_0952_36DD,
        },
    );
}

/// Churn departures that land on viewers caught up with the live edge,
/// before, during and after an edge crash and an origin flap.
#[test]
fn departures_of_caught_up_live_viewers_through_faults() {
    let plan = FaultPlan::new(0xC0DE)
        .crash_edge(1, 1_500, Some((2_700, RestartMode::Warm)))
        .flap_origin(2_000, 2_300);
    let load = LoadConfig {
        sessions: 120,
        stagger_ticks: 600,
        seed: 41,
        churn: ChurnConfig {
            churn_sessions: 900,
            mean_interarrival_ticks: 3.0,
            mean_watch_ticks: 700.0,
            flash_sessions: 400,
            flash_at_tick: 1_200,
            flash_ramp_ticks: 300,
        },
        ..Default::default()
    };
    let live = LiveConfig {
        dvr_window_segments: 4,
        join: JoinMode::LiveEdge,
        ..Default::default()
    };
    let r =
        simulate_live_cdn_load_faulted(&live_catalog(), &shielded(4, true), &live, &plan, &load);
    assert!(r.edge.load.departed > 0);
    assert!(r.live.publish_wait_ticks > 0);
    check(
        &r,
        &Pin {
            name: "departures of caught-up live viewers",
            completed: 542,
            departed: 878,
            ticks: 4_436,
            words: 128,
            digest: 0xE9CD_D59E_A9C5_077B,
        },
    );
}

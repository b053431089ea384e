//! The cohort engine's two workloads.
//!
//! * `cdn_knee`: `cdn_capacity_knee_bisect` through 4 shields and 16
//!   warm edges over a 512-title Zipf(1.0) catalog — the E25 set-up.
//!   Sessions share little: each probe fills many titles. One operation
//!   is one whole bisection.
//! * `live_flash_faults`: `simulate_live_cdn_load_faulted` on one live
//!   title with a DVR window, a 10x flash crowd, an edge crash, an
//!   origin flap and a shield crash — E25's composed scenario, scaled
//!   up. Sessions share nearly everything; publish/expiry gates, churn
//!   arrivals and fault events drive the engine. One operation is one
//!   faulted run.

use std::time::Instant;

use mmstream::catalog::Catalog;
use mmstream::edge::EdgeTierConfig;
use mmstream::fault::{FaultPlan, RestartMode};
use mmstream::ladder::{encode_ladder, LadderConfig, Manifest};
use mmstream::serve::{
    cdn_capacity_knee_bisect, simulate_cdn_load, simulate_live_cdn_load_faulted, CdnConfig,
    CdnLoadReport, ChurnConfig, LiveConfig, LoadConfig,
};
use mmstream::session::JoinMode;
use mmstream::shield::AdmissionPolicy;
use signal::rng::splitmix64;
use video::synth::SequenceGen;

use crate::report::{Pass, Report};
use crate::stats::{median, quantile};
use crate::trace::{self, Tracer};
use crate::{Budget, Options};

/// The E21/E23 VOD title: 64x48, 3 rungs, GOP 4.
fn title(seed: u64, frames: usize) -> Manifest {
    let source = SequenceGen::new(seed).panning_sequence(64, 48, frames, 1, 1);
    let cfg = LadderConfig {
        targets_bits_per_frame: vec![2_000.0, 6_000.0, 18_000.0],
        gop: 4,
        ..Default::default()
    };
    encode_ladder("bench", &source, &cfg)
        .expect("the set-up title encodes")
        .manifest
}

/// The cohort engine's counts for one report.
fn engine_counts(rep: &mut Report, r: &CdnLoadReport, seconds: f64) {
    rep.layer(
        "us_per_session",
        seconds * 1e6 / r.edge.load.sessions.max(1) as f64,
    );
    rep.layer("sim_ticks", r.edge.load.ticks as f64);
    rep.layer("edge_hits", r.tier.edges.hits as f64);
    rep.layer("shield_hits", r.tier.shields.hits as f64);
    rep.layer(
        "coalesced",
        (r.tier.edges.coalesced + r.tier.shields.coalesced) as f64,
    );
    rep.layer("origin_fills", r.tier.origin_hits as f64);
}

// ---------------------------------------------------------------- cdn_knee

const EDGES: usize = 16;
const STALL_TOLERANCE: f64 = 0.05;
/// Each pass runs at least this many bisections.
const MIN_SEARCHES: usize = 3;

pub struct KneeSetup {
    catalog: Catalog,
    cdn: CdnConfig,
    counts: Vec<usize>,
    base: LoadConfig,
}

pub fn knee_setup(seed: u64) -> KneeSetup {
    KneeSetup {
        catalog: Catalog::synthesize(&title(seed, 32), 512, 1.0),
        cdn: CdnConfig {
            tier: EdgeTierConfig {
                edges: EDGES,
                cache_capacity_bytes: usize::MAX,
                prewarm: true,
                ..Default::default()
            },
            shields: 4,
            shield_cache_capacity_bytes: usize::MAX,
            shield_capacity_bytes_per_tick: 100_000.0,
            admission: AdmissionPolicy::AdmitAll,
        },
        counts: (1..=12).map(|i| i * EDGES * 125).collect(),
        base: LoadConfig {
            seed: splitmix64(seed),
            ..Default::default()
        },
    }
}

fn knee_pass(
    st: &KneeSetup,
    budget: Budget,
    tr: Option<&Tracer>,
    knees: &mut Vec<Option<usize>>,
) -> Pass {
    let mut pass = Pass::start(tr.is_none().then_some(1));
    while budget.more(pass.len(), pass.started) {
        let t0 = Instant::now();
        let knee = trace::scoped(tr, "knee_search", pass.len() as u64, None, || {
            cdn_capacity_knee_bisect(&st.catalog, &st.cdn, &st.counts, &st.base, STALL_TOLERANCE)
        });
        pass.push(t0.elapsed().as_secs_f64() * 1e3);
        knees.push(knee);
    }
    pass.finish()
}

fn probe(st: &KneeSetup, sessions: usize) -> CdnLoadReport {
    simulate_cdn_load(
        &st.catalog,
        &st.cdn,
        &LoadConfig {
            sessions,
            ..st.base
        },
    )
}

pub fn run_knee(opts: &Options, rep: &mut Report) {
    let make = || knee_setup(opts.seed);
    let (st, mut setup_s) = crate::timed_setup(&make);
    let budget = Budget {
        seconds: opts.seconds,
        min_ops: MIN_SEARCHES,
    };
    let mut knees = Vec::new();
    let pass = knee_pass(&st, budget, None, &mut knees);
    crate::more_setups(&make, &mut setup_s);
    rep.end_to_end(&setup_s, &pass);
    rep.named("knee_search_s", median(&pass.op_ms) / 1e3, "s");
    rep.sample(
        "knee_search_s",
        "s",
        &pass.op_ms.iter().map(|ms| ms / 1e3).collect::<Vec<_>>(),
    );
    let knee = knees[0];
    for (i, k) in knees.iter().enumerate() {
        rep.check(k.is_some() && *k == knee, || {
            format!("search {i} found knee {k:?}, search 0 {knee:?}")
        });
    }
    rep.det("knee_sessions", knee.unwrap_or(0) as f64, "sessions");

    // The bisected knee equals the curve-scan knee over the same counts.
    let scanned = st
        .counts
        .iter()
        .filter(|&&n| probe(&st, n).edge.load.rebuffer_fraction <= STALL_TOLERANCE)
        .max()
        .copied();
    rep.check(scanned == knee, || {
        format!("bisected knee {knee:?} != scanned knee {scanned:?}")
    });

    if !opts.trace {
        return;
    }
    let tracer = Tracer::new();
    let mut traced_knees = Vec::new();
    let traced = knee_pass(&st, budget, Some(&tracer), &mut traced_knees);
    rep.check(traced_knees.iter().all(|k| *k == knee), || {
        "traced searches found another knee".to_string()
    });
    // The engine at the knee and at twice the knee, each timed alone.
    let k = knee.unwrap_or(st.counts[0]);
    let t0 = Instant::now();
    let at_knee = trace::scoped(Some(&tracer), "probe", 0, None, || probe(&st, k));
    let probe_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    trace::scoped(Some(&tracer), "probe", 1, None, || probe(&st, 2 * k));
    let probe_2x_s = t1.elapsed().as_secs_f64();
    let spans = tracer.spans();
    crate::finish_trace(opts, rep, &spans, &pass, &traced);
    rep.layer("probe_s", probe_s);
    rep.layer("probe_2x_s", probe_2x_s);
    engine_counts(rep, &at_knee, probe_s);
}

// ------------------------------------------------------- live_flash_faults

/// E25's composed scenario is 200 + 2,000 flash sessions through 4
/// edges and 2 shields; this is that scaled up by `SCALE` (sessions,
/// edges and every capacity), with the same fault timings.
const SCALE: usize = 4;
/// Audiences (arrival and fault seeds) the runs cycle through, so the
/// timing averages over several draws of the same scenario.
const AUDIENCES: usize = 4;
/// Each pass runs at least this many faulted runs.
const MIN_RUNS: usize = 12;
/// Unmeasured runs before the timed pass.
const WARMUP_RUNS: usize = 2;

pub struct FlashSetup {
    catalog: Catalog,
    cdn: CdnConfig,
    live: LiveConfig,
    /// One fault plan and load per audience.
    audiences: Vec<(FaultPlan, LoadConfig)>,
}

pub fn flash_setup(seed: u64) -> FlashSetup {
    let scale = SCALE as f64;
    let audience = |a: u64| {
        let h = splitmix64(seed ^ splitmix64(a));
        let plan = FaultPlan::new(h ^ 0xFA11)
            .crash_edge(0, 2_400, Some((4_400, RestartMode::Cold)))
            .flap_origin(2_400, 3_600)
            .crash_shield(0, 2_600, Some((4_600, RestartMode::Cold)));
        let load = LoadConfig {
            sessions: 200 * SCALE,
            stagger_ticks: 1_000,
            seed: h,
            churn: ChurnConfig {
                flash_sessions: 2_000 * SCALE,
                flash_at_tick: 2_000,
                flash_ramp_ticks: 1_000,
                ..Default::default()
            },
            ..Default::default()
        };
        (plan, load)
    };
    FlashSetup {
        catalog: Catalog::single(title(seed, 64)),
        cdn: CdnConfig {
            tier: EdgeTierConfig {
                edges: 4 * SCALE,
                cache_capacity_bytes: usize::MAX,
                prewarm: true,
                origin_capacity_bytes_per_tick: 4_000.0 * scale,
                ..Default::default()
            },
            shields: 2 * SCALE,
            shield_cache_capacity_bytes: usize::MAX,
            shield_capacity_bytes_per_tick: 16_000.0,
            admission: AdmissionPolicy::AdmitAll,
        },
        live: LiveConfig {
            dvr_window_segments: 8,
            join: JoinMode::LiveEdge,
            ..Default::default()
        },
        audiences: (0..AUDIENCES as u64).map(audience).collect(),
    }
}

/// The first report of each audience, and how many later runs of the
/// same audience differed from it.
#[derive(Default)]
struct Replays {
    first: Vec<Option<CdnLoadReport>>,
    mismatches: usize,
}

fn flash_pass(st: &FlashSetup, budget: Budget, tr: Option<&Tracer>, replays: &mut Replays) -> Pass {
    replays.first.resize(AUDIENCES, None);
    let mut pass = Pass::start(tr.is_none().then_some(1));
    while budget.more(pass.len(), pass.started) {
        let a = pass.len() % AUDIENCES;
        let (plan, load) = &st.audiences[a];
        let t0 = Instant::now();
        let r = trace::scoped(tr, "faulted_run", pass.len() as u64, None, || {
            simulate_live_cdn_load_faulted(&st.catalog, &st.cdn, &st.live, plan, load)
        });
        pass.push(t0.elapsed().as_secs_f64() * 1e3);
        match &replays.first[a] {
            Some(first) => replays.mismatches += usize::from(*first != r),
            None => replays.first[a] = Some(r),
        }
    }
    pass.finish()
}

pub fn run_flash(opts: &Options, rep: &mut Report) {
    let make = || flash_setup(opts.seed);
    let (st, mut setup_s) = crate::timed_setup(&make);
    let budget = Budget {
        seconds: opts.seconds,
        min_ops: MIN_RUNS,
    };
    let mut replays = Replays::default();
    flash_pass(&st, Budget::warmup(WARMUP_RUNS), None, &mut replays);
    let pass = flash_pass(&st, budget, None, &mut replays);
    crate::more_setups(&make, &mut setup_s);
    rep.end_to_end(&setup_s, &pass);
    rep.named("sim_run_s", median(&pass.op_ms) / 1e3, "s");
    rep.named("sim_run_s_p90", quantile(&pass.op_ms, 0.9) / 1e3, "s");
    rep.sample(
        "sim_run_s",
        "s",
        &pass.op_ms.iter().map(|ms| ms / 1e3).collect::<Vec<_>>(),
    );
    let reports: Vec<&CdnLoadReport> = replays.first.iter().flatten().collect();
    rep.check(reports.len() == AUDIENCES, || {
        "an audience never ran".to_string()
    });
    // Every run of an audience is identical to its first run.
    rep.check(replays.mismatches == 0, || {
        format!(
            "{} runs differed from their audience's first run",
            replays.mismatches
        )
    });
    for (a, r) in reports.iter().enumerate() {
        rep.check(r.edge.load.completed + r.edge.load.departed > 0, || {
            format!("audience {a}: no session finished")
        });
    }
    let stalled: f64 = reports.iter().map(|r| r.edge.load.rebuffer_fraction).sum();
    rep.det(
        "stalled_session_frac",
        stalled / AUDIENCES as f64,
        "fraction",
    );

    if !opts.trace {
        return;
    }
    let tracer = Tracer::new();
    let traced = flash_pass(&st, budget, Some(&tracer), &mut replays);
    rep.check(replays.mismatches == 0, || {
        "the traced runs differ from the untraced".to_string()
    });
    let spans = tracer.spans();
    crate::finish_trace(opts, rep, &spans, &pass, &traced);
    // Time and counts of audience 0's faulted run.
    let run_s = median(&traced.op_ms) / 1e3;
    rep.layer("probe_s", run_s);
    let r = replays.first[0].as_ref().expect("audience 0 ran");
    engine_counts(rep, r, run_s);
    let res = &r.resilience;
    rep.layer("sessions_rehomed", res.sessions_rehomed as f64);
    rep.layer(
        "sessions_fault_rebuffered",
        res.sessions_fault_rebuffered as f64,
    );
    rep.layer("mean_restore_ticks", res.mean_restore_ticks);
    rep.layer("window_skips", r.live.window_skips as f64);
    rep.layer("publish_wait_ticks", r.live.publish_wait_ticks as f64);
}

//! `vod_viewers`: fetch → unseal → demux → decode through one edge.
//!
//! Set-up encodes a sealed 3-rung QCIF title (16 panning scenes, one
//! per segment, so a title averages over many textures) and publishes
//! it, with its license, on an origin behind one cold `EdgeCache`.
//! Viewers then run one after another (a closed loop with one client)
//! through `run_session_via_edge`: AIMD `tcplite` over a Gilbert–Elliott
//! bursty access link, with retries. Every delivered segment is
//! decoded with `video::decode`. One operation is one viewer: the
//! `run_session_via_edge` call and the decode of what it delivered.
//! Viewers cycle through 10 link profiles (loss seeds); after the first
//! cycle the edge is warm.
//!
//! Each pass starts from the set-up state (cold edge, viewer 0), so a
//! traced pass replays the untraced one exactly.

use std::collections::BTreeMap;
use std::time::Instant;

use drm::playback::LicenseAuthority;
use drm::{Right, TitleId};
use mmstream::edge::{EdgeCache, EdgeConfig};
use mmstream::ladder::{encode_ladder, publish_ladder, seal_ladder, LadderConfig, Manifest};
use mmstream::session::{run_session_via_edge, SessionConfig, SessionReport};
use mmstream::RetryPolicy;
use netstack::fetch::ContentServer;
use netstack::link::{LinkConfig, LossModel};
use netstack::tcplite::{CongestionControl, TcpConfig};
use signal::rng::splitmix64;
use video::synth::SequenceGen;
use video::Frame;

use crate::report::{Pass, Report};
use crate::stats::{median, quantile, ratio};
use crate::trace::{self, Tracer};
use crate::{Budget, Options};

const FRAMES: usize = 64;
const GOP: usize = 4;
const TARGETS: [f64; 3] = [2_000.0, 6_000.0, 18_000.0];
const TITLE: &str = "vod";
const TITLE_ID: TitleId = TitleId(7);
/// Each pass runs at least this many viewers; the deterministic
/// figures are taken over exactly this many.
const MIN_VIEWERS: usize = 100;
/// Unmeasured viewers before the timed pass.
const WARMUP_VIEWERS: usize = 4;
/// Distinct viewer link profiles; viewers cycle through them, so each
/// profile is timed several times in a pass.
const VIEWER_KINDS: usize = 10;
/// Viewers replayed on a fresh edge to check the run repeats.
const REPLAY: usize = 8;

pub struct Setup {
    source: Vec<Frame>,
    manifest: Manifest,
    origin: ContentServer,
    cold_edge: EdgeCache,
    key: Vec<u8>,
}

pub fn setup(seed: u64) -> Setup {
    let source = SequenceGen::new(seed)
        .scene_sequence(176, 144, &[GOP; FRAMES / GOP])
        .0;
    let cfg = LadderConfig {
        targets_bits_per_frame: TARGETS.to_vec(),
        gop: GOP,
        ..Default::default()
    };
    let mut ladder = encode_ladder(TITLE, &source, &cfg).expect("the set-up title encodes");
    let mut authority = LicenseAuthority::new(splitmix64(seed).to_le_bytes().to_vec());
    authority.register_title(TITLE_ID);
    seal_ladder(&mut ladder, &authority, TITLE_ID);
    let mut origin = ContentServer::new();
    publish_ladder(&mut origin, &ladder);
    origin.publish(
        Manifest::license_object(TITLE),
        authority.issue(TITLE_ID, vec![Right::Play]),
    );
    Setup {
        source,
        manifest: ladder.manifest,
        origin,
        cold_edge: EdgeCache::new(EdgeConfig::default()),
        key: authority.verification_key().to_vec(),
    }
}

/// Viewer `i`: AIMD transport, a 50 B/tick access link with bursty
/// Gilbert–Elliott loss, and up to four attempts per fetch. The loss
/// seeds form a fixed panel of `VIEWER_KINDS` profiles that viewers
/// cycle through: every title meets the same network, so the seed
/// moves the work only through the title.
fn viewer(st: &Setup, i: usize) -> SessionConfig {
    let seed = splitmix64((i % VIEWER_KINDS) as u64);
    SessionConfig {
        tcp: TcpConfig {
            cc: CongestionControl::aimd(),
            ..Default::default()
        },
        link: LinkConfig {
            ticks_per_byte: 0.02,
            ..LinkConfig::default()
        }
        .with_loss_model(LossModel::GilbertElliott {
            p_enter_bad: 0.008,
            p_exit_bad: 0.06,
            loss_good: 0.001,
            loss_bad: 0.7,
        }),
        seed,
        verification_key: Some(st.key.clone()),
        retry: RetryPolicy {
            max_attempts: 4,
            base_backoff_ticks: 100,
            max_backoff_ticks: 1_600,
            jitter_ticks: 50,
            seed,
        },
        ..Default::default()
    }
}

/// What a session must reproduce on replay.
fn signature(r: &SessionReport) -> (u64, u64, u64, u64, u32, Vec<usize>) {
    (
        r.startup_delay_ticks,
        r.rebuffer_ticks,
        r.total_ticks,
        r.delivered_bits,
        r.fetch_retries,
        r.segments.iter().map(|s| s.rung).collect(),
    )
}

#[derive(Default)]
struct Outputs {
    /// Luma PSNR sum per (rung, segment): decoded output is a pure
    /// function of the segment, so each is scored once.
    psnr: BTreeMap<(usize, usize), f64>,
    signatures: Vec<(u64, u64, u64, u64, u32, Vec<usize>)>,
    /// Over the first `MIN_VIEWERS` viewers.
    det_psnr_sum: f64,
    det_frames: usize,
    det_startup: Vec<f64>,
    det_rebuffer_ticks: u64,
    det_ticks: u64,
    /// Over the whole pass.
    frames: usize,
    segments: usize,
    session_ms: Vec<f64>,
    idct_blocks: u64,
    delivered_bytes: u64,
    fetch_retries: u64,
    edge: mmstream::EdgeStats,
}

fn run_pass(
    st: &Setup,
    budget: Budget,
    tr: Option<&Tracer>,
    out: &mut Outputs,
    rep: &mut Report,
) -> Pass {
    let mut edge = st.cold_edge.clone();
    let mut pass = Pass::start(tr.is_none().then_some(1));
    let mut i = 0usize;
    while budget.more(i, pass.started) {
        let cfg = viewer(st, i);
        let op = i as u64;
        let t0 = Instant::now();
        let root = trace::open(tr, "viewer", op, None);
        let session = trace::scoped(tr, "session", op, root, || {
            run_session_via_edge(&st.origin, &mut edge, TITLE, &cfg)
        });
        let session_ms = t0.elapsed().as_secs_f64() * 1e3;
        let report = match session {
            Ok(r) => r,
            Err(e) => {
                trace::close(tr, root);
                rep.check(false, || format!("viewer {i}: {e}"));
                i += 1;
                continue;
            }
        };
        let mut decoded = Vec::with_capacity(report.segments.len());
        for rec in &report.segments {
            let d = trace::scoped(tr, "decode", op, root, || {
                rec.segment
                    .video_es
                    .as_deref()
                    .ok_or_else(|| "segment lost its video unit".to_string())
                    .and_then(|es| video::decode(es).map_err(|e| e.to_string()))
            });
            decoded.push(d);
        }
        trace::close(tr, root);
        pass.push(t0.elapsed().as_secs_f64() * 1e3);
        rep.check(true, String::new);

        // Output checks and bookkeeping, outside the timed region.
        out.session_ms.push(session_ms);
        out.segments += report.segments.len();
        out.delivered_bytes += report.delivered_bits / 8;
        out.fetch_retries += u64::from(report.fetch_retries);
        rep.check(report.segments.len() == st.manifest.segment_count(), || {
            format!("viewer {i}: {} segments delivered", report.segments.len())
        });
        for (si, (rec, d)) in report.segments.iter().zip(decoded).enumerate() {
            let want = st.manifest.rungs[rec.rung].segments[si].frames;
            let d = match d {
                Ok(d) if d.frames.len() == want => d,
                Ok(d) => {
                    rep.check(false, || {
                        format!(
                            "viewer {i} segment {si}: {} of {want} frames",
                            d.frames.len()
                        )
                    });
                    continue;
                }
                Err(e) => {
                    rep.check(false, || format!("viewer {i} segment {si}: {e}"));
                    continue;
                }
            };
            rep.check(true, String::new);
            out.frames += want;
            out.idct_blocks += d.idct_blocks;
            let psnr = *out.psnr.entry((rec.rung, si)).or_insert_with(|| {
                crate::headend::psnr_sum(&st.source[si * GOP..si * GOP + want], &d.frames)
            });
            if i < MIN_VIEWERS {
                out.det_psnr_sum += psnr;
                out.det_frames += want;
            }
        }
        if i < MIN_VIEWERS {
            out.det_startup.push(report.startup_delay_ticks as f64);
            out.det_rebuffer_ticks += report.rebuffer_ticks;
            out.det_ticks += report.total_ticks;
        }
        if i < REPLAY {
            out.signatures.push(signature(&report));
        }
        i += 1;
    }
    out.edge = *edge.stats();
    pass.finish()
}

pub fn run(opts: &Options, rep: &mut Report) {
    let make = || setup(opts.seed);
    let (st, mut setup_s) = crate::timed_setup(&make);
    let budget = Budget {
        seconds: opts.seconds,
        min_ops: MIN_VIEWERS,
    };
    run_pass(
        &st,
        Budget::warmup(WARMUP_VIEWERS),
        None,
        &mut Outputs::default(),
        rep,
    );
    let mut out = Outputs::default();
    let pass = run_pass(&st, budget, None, &mut out, rep);
    crate::more_setups(&make, &mut setup_s);
    rep.end_to_end(&setup_s, &pass);
    rep.named("viewer_fps", out.frames as f64 / pass.wall_s, "frames/s");
    rep.named("session_ms_p50", median(&out.session_ms), "ms");
    rep.named("session_ms_p90", quantile(&out.session_ms, 0.9), "ms");
    rep.sample("session_ms", "ms", &out.session_ms);
    rep.det(
        "psnr_db",
        out.det_psnr_sum / out.det_frames.max(1) as f64,
        "dB",
    );
    rep.det("startup_ticks_p50", median(&out.det_startup), "ticks");
    rep.det(
        "rebuffer_ratio",
        ratio(out.det_rebuffer_ticks as f64, out.det_ticks as f64),
        "fraction",
    );

    // The same viewers on a fresh cold edge replay exactly.
    let mut edge = st.cold_edge.clone();
    for (i, want) in out.signatures.iter().enumerate() {
        let again = run_session_via_edge(&st.origin, &mut edge, TITLE, &viewer(&st, i));
        let ok = again.as_ref().map(signature).as_ref() == Ok(want);
        rep.check(ok, || format!("viewer {i} did not replay identically"));
    }

    if !opts.trace {
        return;
    }
    let tracer = Tracer::new();
    let mut t_out = Outputs::default();
    let traced = run_pass(&st, budget, Some(&tracer), &mut t_out, rep);
    let spans = tracer.spans();
    crate::finish_trace(opts, rep, &spans, &pass, &traced);
    let decode_ms: f64 = spans
        .iter()
        .filter(|s| s.name == "decode")
        .map(|s| s.dur_ms())
        .sum();
    let viewers = t_out.session_ms.len() as f64;
    rep.layer(
        "session_ms_per_segment",
        t_out.session_ms.iter().sum::<f64>() / t_out.segments as f64,
    );
    rep.layer(
        "delivered_bytes_per_session",
        t_out.delivered_bytes as f64 / viewers,
    );
    rep.layer(
        "fetch_retries_per_session",
        t_out.fetch_retries as f64 / viewers,
    );
    rep.layer("edge_hit_rate", t_out.edge.hit_rate());
    rep.layer("origin_fill_bytes", t_out.edge.origin_bytes as f64);
    rep.layer("decode_ms_per_frame", decode_ms / t_out.frames as f64);
    rep.layer(
        "idct_blocks_per_frame",
        t_out.idct_blocks as f64 / t_out.frames as f64,
    );
}

//! `live_headend`: capture → encode (5 rungs on the pool) → mux → seal
//! → publish, one GOP at a time.
//!
//! A QCIF synthetic source (panning scenes with hard cuts) is fed one
//! GOP at a time; each GOP is encoded at every rung via `encode_rung`
//! fanned out on `WorkerPool::map`, sealed with `encrypt_content` and
//! published. The next GOP starts when the previous one is published
//! (a closed loop with one client). One operation is one GOP, timed
//! from hand-off to its last rung segment published.
//!
//! The traced pass makes the same calls one level down, so the encoder
//! and the muxer get spans of their own: `Encoder::encode` with the
//! configuration `encode_rung` builds, then `mux_segment_wire`. Its
//! wires are checked against the untraced pass and `encode_ladder`.

use std::collections::BTreeMap;
use std::time::Instant;

use drm::playback::LicenseAuthority;
use drm::TitleId;
use mmpool::WorkerPool;
use mmstream::ladder::{
    encode_ladder, encode_rung, Ladder, LadderConfig, Manifest, RungCost, RungInfo, SegmentEntry,
};
use mmstream::{demux_segment, headend_spec, mux_segment_wire};
use mpsoc::pe::{PeKind, ProcessingElement};
use netstack::fetch::ContentServer;
use signal::rng::splitmix64;
use video::encoder::{EncoderConfig, EncoderError, StageTally};
use video::rate::RateConfig;
use video::synth::SequenceGen;
use video::{Encoder, Frame};

use crate::report::{Pass, Report};
use crate::stats::{median, ratio};
use crate::trace::{self, Tracer};
use crate::{Budget, Options};

const WIDTH: usize = 176;
const HEIGHT: usize = 144;
const GOP: usize = 8;
/// GOPs in the synthesized source; the loop cycles over it.
const GOPS_PER_PASS: usize = 48;
/// Each pass publishes at least this many GOPs, however short `--seconds`.
const MIN_GOPS: usize = 100;
/// Unmeasured GOPs before the timed pass.
const WARMUP_GOPS: usize = 8;
/// GOPs re-encoded with `encode_ladder` for the byte-equality check.
const CHECK_GOPS: usize = 4;
/// Every this-many-th GOP of the source is decoded for the PSNR figure.
const PSNR_STRIDE: usize = 4;
/// Published GOPs the origin keeps per rung (a rolling DVR window).
const WINDOW: usize = 64;
const TARGETS: [f64; 5] = [2_000.0, 4_000.0, 8_000.0, 16_000.0, 32_000.0];
const TITLE_ID: TitleId = TitleId(1);

pub struct Setup {
    source: Vec<Frame>,
    cfg: LadderConfig,
    authority: LicenseAuthority,
    pool: WorkerPool,
}

/// Panning scenes of 6–18 frames with hard cuts, from the seed: many
/// short scenes, so the work per source varies little between seeds.
pub fn synth_source(seed: u64, frames: usize) -> Vec<Frame> {
    let mut lens = Vec::new();
    let (mut total, mut h) = (0, seed);
    while total < frames {
        h = splitmix64(h);
        let len = (6 + (h % 13) as usize).min(frames - total);
        lens.push(len);
        total += len;
    }
    SequenceGen::new(seed)
        .scene_sequence(WIDTH, HEIGHT, &lens)
        .0
}

pub fn setup(seed: u64) -> Setup {
    let mut authority = LicenseAuthority::new(splitmix64(seed).to_le_bytes().to_vec());
    authority.register_title(TITLE_ID);
    Setup {
        source: synth_source(seed, GOP * GOPS_PER_PASS),
        cfg: LadderConfig {
            targets_bits_per_frame: TARGETS.to_vec(),
            gop: GOP,
            ..Default::default()
        },
        authority,
        pool: WorkerPool::new(crate::host::cpus()),
    }
}

/// The encoder configuration `encode_rung` builds for rung `ri`.
fn rung_encoder_config(cfg: &LadderConfig, ri: usize) -> EncoderConfig {
    let targets = &cfg.targets_bits_per_frame;
    let quality = if targets.len() == 1 {
        75u8
    } else {
        (35 + ri * 55 / (targets.len() - 1)) as u8
    };
    EncoderConfig {
        quality,
        gop: cfg.gop,
        search: cfg.search,
        search_range: cfg.search_range,
        rate: Some(RateConfig {
            max_quality: (quality + 8).min(95),
            ..RateConfig::for_target(targets[ri])
        }),
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// One rung's output for one GOP.
struct RungOut {
    wire: Vec<u8>,
    tally: StageTally,
    es_bytes: u64,
}

/// What a pass keeps besides its timings.
#[derive(Default)]
struct Outputs {
    /// Clear wire hash per (source GOP, rung): every later encode of the
    /// same GOP must reproduce it.
    hashes: BTreeMap<(usize, usize), u64>,
    /// Clear wires of the first GOPs, for the `encode_ladder` check and
    /// the PSNR decode.
    kept: BTreeMap<(usize, usize), Vec<u8>>,
    /// Wire bytes of the first pass over the source.
    first_pass_wire_bytes: u64,
    /// Per-rung cost and segment entries over the first pass, in the
    /// traced run (for the MPSoC model).
    rung_costs: Vec<RungCost>,
    rung_entries: Vec<Vec<SegmentEntry>>,
    rung_wires: Vec<Vec<Vec<u8>>>,
    frames_encoded: u64,
    tally: StageTally,
    wire_bytes: u64,
}

fn add_tally(t: &mut StageTally, s: &StageTally) {
    t.me_sad_evaluations += s.me_sad_evaluations;
    t.me_pixel_ops += s.me_pixel_ops;
    t.dct_blocks += s.dct_blocks;
    t.idct_blocks += s.idct_blocks;
    t.quant_coeffs += s.quant_coeffs;
    t.vlc_symbols += s.vlc_symbols;
    t.mc_pixels += s.mc_pixels;
}

fn object_name(ri: usize, g: usize) -> String {
    format!("live/r{ri}_s{g}.ts")
}

/// Encodes GOP `g` at every rung on the pool: `encode_rung` untraced;
/// `Encoder::encode` + `mux_segment_wire` inside spans when traced.
fn encode_gop(
    st: &Setup,
    chunk: &[Frame],
    g: usize,
    tr: Option<&Tracer>,
    parent: Option<trace::SpanId>,
) -> Vec<Result<RungOut, String>> {
    let rungs: Vec<usize> = (0..st.cfg.targets_bits_per_frame.len()).collect();
    let Some(t) = tr else {
        return st.pool.map(&rungs, |&ri| {
            encode_rung(chunk, &st.cfg, ri)
                .map_err(|e| format!("rung {ri}: {e}"))
                .map(|mut b| RungOut {
                    wire: b.wires.swap_remove(0),
                    tally: b.cost.tally,
                    es_bytes: b.cost.es_bytes,
                })
        });
    };
    let op = g as u64;
    let map = t.open("pool.map", op, parent);
    let out = st.pool.map(&rungs, |&ri| {
        let job = t.open("pool.job", op, Some(map));
        let encoded = Encoder::new(rung_encoder_config(&st.cfg, ri))
            .and_then(|enc| trace::scoped(tr, "encode", op, Some(job), || enc.encode(chunk)));
        let out = encoded
            .map(|seq| RungOut {
                wire: trace::scoped(tr, "mux", op, Some(job), || mux_segment_wire(&seq, None)),
                tally: seq.tally,
                es_bytes: seq.bytes.len() as u64,
            })
            .map_err(|e: EncoderError| format!("rung {ri}: {e}"));
        t.close(job);
        out
    });
    t.close(map);
    out
}

fn run_pass(
    st: &Setup,
    budget: Budget,
    tr: Option<&Tracer>,
    out: &mut Outputs,
    rep: &mut Report,
) -> Pass {
    let rungs = st.cfg.targets_bits_per_frame.len();
    let mut server = ContentServer::new();
    // The pool keeps every CPU busy, so the host is sampled on all.
    let mut pass = Pass::start(tr.is_none().then_some(st.pool.worker_count()));
    if tr.is_some() {
        out.rung_costs = vec![RungCost::default(); rungs];
        out.rung_entries = vec![Vec::new(); rungs];
        out.rung_wires = vec![Vec::new(); rungs];
    }
    let mut g = 0usize;
    while budget.more(g, pass.started) {
        let gi = g % GOPS_PER_PASS;
        let chunk = &st.source[gi * GOP..(gi + 1) * GOP];
        let t0 = Instant::now();
        let gop = trace::open(tr, "gop", g as u64, None);
        let encoded = encode_gop(st, chunk, g, tr, gop);
        let mut wires = Vec::with_capacity(rungs);
        let mut errors = Vec::new();
        for (ri, r) in encoded.into_iter().enumerate() {
            let r = match r {
                Ok(r) => r,
                Err(e) => {
                    errors.push(e);
                    continue;
                }
            };
            let nonce = ((ri as u32) << 16) | (g as u32 & 0xFFFF);
            let sealed = trace::scoped(tr, "seal", g as u64, gop, || {
                st.authority.encrypt_content(TITLE_ID, &r.wire, nonce)
            });
            trace::scoped(tr, "publish", g as u64, gop, || {
                server.publish(object_name(ri, g), sealed);
                if g >= WINDOW {
                    server.remove(&object_name(ri, g - WINDOW));
                }
            });
            wires.push((ri, r));
        }
        trace::close(tr, gop);
        pass.push(t0.elapsed().as_secs_f64() * 1e3);
        rep.check(errors.is_empty(), || {
            format!("GOP {g}: {}", errors.join("; "))
        });

        // Bookkeeping and output checks, outside the timed region.
        for (ri, r) in wires {
            let h = fnv1a(&r.wire);
            let first = *out.hashes.entry((gi, ri)).or_insert(h);
            if first != h {
                rep.check(false, || {
                    format!("GOP {gi} rung {ri} re-encoded differently")
                });
            }
            out.frames_encoded += GOP as u64;
            add_tally(&mut out.tally, &r.tally);
            out.wire_bytes += r.wire.len() as u64;
            if g < GOPS_PER_PASS && tr.is_none() {
                out.first_pass_wire_bytes += r.wire.len() as u64;
            }
            if tr.is_some() && g < GOPS_PER_PASS {
                let cost = &mut out.rung_costs[ri];
                add_tally(&mut cost.tally, &r.tally);
                cost.es_bytes += r.es_bytes;
                out.rung_entries[ri].push(SegmentEntry {
                    name: format!("r{ri}_s{gi}.ts"),
                    bytes: r.wire.len(),
                    frames: GOP,
                    nonce: ((ri as u32) << 16) | gi as u32,
                });
                out.rung_wires[ri].push(r.wire.clone());
            }
            if (gi < CHECK_GOPS || gi.is_multiple_of(PSNR_STRIDE))
                && !out.kept.contains_key(&(gi, ri))
            {
                out.kept.insert((gi, ri), r.wire);
            }
        }
        g += 1;
    }
    pass.finish()
}

/// Luma PSNR of `decoded` against `source`, frame by frame.
pub fn psnr_sum(source: &[Frame], decoded: &[Frame]) -> f64 {
    source
        .iter()
        .zip(decoded)
        .map(|(s, d)| signal::metrics::psnr_u8(s.luma(), d.luma()).unwrap_or(f64::NAN))
        .map(|p| p.min(99.0))
        .sum()
}

/// The mpsoc model's share of encode/mux/seal/publish for a ladder, in
/// simulated time on one RISC PE (the order of `SHARES`).
fn modeled_shares(ladder: &Ladder, source: &[Frame]) -> [f64; 4] {
    let pe = ProcessingElement::new("cpu", PeKind::RiscCpu, 1.0e9);
    let mut s = [0.0; 4];
    for task in headend_spec(ladder, source).task_graph().tasks() {
        let t = pe.seconds_for(&task.ops);
        match task.name.as_str() {
            n if n.starts_with("encode") => s[0] += t,
            "mux" => s[1] += t,
            "seal" => s[2] += t,
            "publish" => s[3] += t,
            _ => {}
        }
    }
    let total: f64 = s.iter().sum();
    s.map(|v| ratio(v, total))
}

const SHARES: [&str; 4] = ["encode", "mux", "seal", "publish"];

pub fn run(opts: &Options, rep: &mut Report) {
    let make = || setup(opts.seed);
    let (st, mut setup_s) = crate::timed_setup(&make);
    let budget = Budget {
        seconds: opts.seconds,
        min_ops: MIN_GOPS,
    };
    run_pass(
        &st,
        Budget::warmup(WARMUP_GOPS),
        None,
        &mut Outputs::default(),
        rep,
    );
    let mut out = Outputs::default();
    let pass = run_pass(&st, budget, None, &mut out, rep);
    crate::more_setups(&make, &mut setup_s);
    rep.end_to_end(&setup_s, &pass);
    let frames = (pass.op_ms.len() * GOP) as f64;
    rep.named("headend_fps", frames / pass.wall_s, "frames/s");
    rep.named("segment_ready_ms_p50", median(&pass.op_ms), "ms");
    rep.named(
        "segment_ready_ms_p90",
        crate::stats::quantile(&pass.op_ms, 0.9),
        "ms",
    );
    rep.sample("segment_ready_ms", "ms", &pass.op_ms);
    rep.det(
        "bits_per_frame",
        out.first_pass_wire_bytes as f64 * 8.0 / (GOPS_PER_PASS * GOP) as f64,
        "bits",
    );

    // GOP-at-a-time wires equal `encode_ladder`'s segments.
    let reference = encode_ladder("live", &st.source[..CHECK_GOPS * GOP], &st.cfg);
    match reference {
        Ok(ladder) => {
            for (ri, segs) in ladder.segments.iter().enumerate() {
                for (gi, seg) in segs.iter().enumerate() {
                    let ok = out.kept.get(&(gi, ri)) == Some(seg);
                    rep.check(ok, || {
                        format!("GOP {gi} rung {ri} differs from encode_ladder")
                    });
                }
            }
        }
        Err(e) => rep.check(false, || format!("encode_ladder: {e}")),
    }

    // Decoded output: frame counts and PSNR against the source.
    let (mut psnr, mut n) = (0.0, 0usize);
    for (&(gi, ri), wire) in out
        .kept
        .iter()
        .filter(|((gi, _), _)| gi.is_multiple_of(PSNR_STRIDE))
    {
        let src = &st.source[gi * GOP..(gi + 1) * GOP];
        let decoded = demux_segment(wire)
            .video_es
            .ok_or_else(|| "no video unit".to_string())
            .and_then(|es| video::decode(&es).map_err(|e| e.to_string()));
        let err = match decoded {
            Ok(d) if d.frames.len() == GOP => {
                psnr += psnr_sum(src, &d.frames);
                n += GOP;
                None
            }
            Ok(d) => Some(format!("{} frames decoded", d.frames.len())),
            Err(e) => Some(e),
        };
        rep.check(err.is_none(), || {
            format!("GOP {gi} rung {ri}: {}", err.unwrap_or_default())
        });
    }
    rep.det("psnr_db", psnr / n.max(1) as f64, "dB");

    if !opts.trace {
        return;
    }
    let tracer = Tracer::new();
    let mut traced_out = Outputs {
        hashes: out.hashes.clone(),
        ..Outputs::default()
    };
    let traced = run_pass(&st, budget, Some(&tracer), &mut traced_out, rep);
    let spans = tracer.spans();
    crate::finish_trace(opts, rep, &spans, &pass, &traced);

    let of = |name: &'static str| spans.iter().filter(move |s| s.name == name);
    let sum_ms = |name: &'static str| of(name).map(|s| s.dur_ms()).sum::<f64>();
    let fr = traced_out.frames_encoded as f64;
    let t = &traced_out.tally;
    rep.layer("encode_ms_per_frame", sum_ms("encode") / fr);
    rep.layer("me_sad_evals_per_frame", t.me_sad_evaluations as f64 / fr);
    rep.layer("me_pixel_ops_per_frame", t.me_pixel_ops as f64 / fr);
    rep.layer("dct_blocks_per_frame", t.dct_blocks as f64 / fr);
    rep.layer("vlc_symbols_per_frame", t.vlc_symbols as f64 / fr);
    let bytes = traced_out.wire_bytes as f64;
    rep.layer("mux_ns_per_byte", sum_ms("mux") * 1e6 / bytes);
    rep.layer("seal_ns_per_byte", sum_ms("seal") * 1e6 / bytes);
    rep.layer(
        "publish_us_per_segment",
        sum_ms("publish") * 1e3 / of("publish").count() as f64,
    );

    // Pool: wait from the map call to each job's start, job run time,
    // and busy share of the workers over the map calls.
    let mut waits = Vec::new();
    let mut runs = Vec::new();
    for s in of("pool.job") {
        let map = &spans[s
            .parent
            .expect("a job span has its map call as parent")
            .index()];
        waits.push(s.start_ns.saturating_sub(map.start_ns) as f64 / 1e6);
        runs.push(s.dur_ms());
    }
    let map_ms = sum_ms("pool.map");
    rep.layer("pool_wait_ms_p50", median(&waits));
    rep.layer("pool_run_ms_p50", median(&runs));
    rep.layer(
        "pool_efficiency",
        ratio(runs.iter().sum(), st.pool.worker_count() as f64 * map_ms),
    );

    // Measured per-stage shares over the first pass of the traced run,
    // beside the mpsoc model's shares for the same tallies.
    let first = |s: &&trace::Span| (s.op as usize) < GOPS_PER_PASS;
    let measured: Vec<f64> = SHARES
        .iter()
        .map(|&name| of(name).filter(first).map(|s| s.dur_ms()).sum::<f64>())
        .collect();
    let total: f64 = measured.iter().sum();
    let ladder = Ladder {
        manifest: Manifest {
            title: "live".to_string(),
            ticks_per_frame: st.cfg.ticks_per_frame,
            sealed: true,
            live: None,
            rungs: traced_out
                .rung_entries
                .iter()
                .zip(&st.cfg.targets_bits_per_frame)
                .map(|(segments, &target)| RungInfo {
                    target_bits_per_frame: target,
                    segments: segments.clone(),
                })
                .collect(),
        },
        segments: traced_out.rung_wires.clone(),
        rung_costs: traced_out.rung_costs.clone(),
    };
    let modeled = modeled_shares(&ladder, &st.source);
    let mut gap = 0.0;
    for (i, name) in SHARES.iter().enumerate() {
        let m = ratio(measured[i], total);
        rep.layer(&format!("modeled_share.{name}"), modeled[i]);
        rep.layer(&format!("measured_share.{name}"), m);
        gap += (m - modeled[i]).abs() / 2.0;
    }
    rep.layer("share_gap", gap);
}

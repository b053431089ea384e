//! Deterministic many-session load simulators: one origin uplink, or an
//! edge-cache tier in front of it.
//!
//! The ROADMAP's north star is per-server scale: how many concurrent
//! viewers can the delivery tier feed before quality collapses? Echoing
//! the group-size-threshold result in *Group Size Effect on the Success
//! of Wolves Hunting* (PAPERS.md), per-session returns are flat up to a
//! capacity knee and fall off beyond it — this module measures that
//! knee. Thousands of sessions are interleaved in a single-threaded
//! fluid event loop (no OS threads, no wall clock, every number derived
//! from seeds), each running the same [`AbrController`] and
//! playout-buffer model as the transport-level single session.
//!
//! [`simulate_load`] is PR 3's single-origin model: every session shares
//! one uplink max-min-equally. [`simulate_edge_load`] routes the same
//! sessions through an [`EdgeTierConfig`] instead — N edge caches, each
//! with a bounded LRU and its own downlink, misses coalesced into
//! shared-origin fills — which is how the knee moves past the
//! single-uplink ceiling. Both are the same engine; the single origin is
//! literally the one-edge, everything-cached special case.

use mmpool::WorkerPool;
use signal::rng::Xoroshiro128;

use crate::catalog::{Catalog, ZipfSampler};
use crate::edge::{splitmix64, EdgeStats, EdgeTierConfig, FillTable, HashRing, Lru, Sharding};
use crate::fault::{FaultPlan, FaultSchedule, ResilienceStats};
use crate::ladder::Manifest;
#[cfg(test)]
use crate::session::AbrController;
use crate::session::JoinMode;
use crate::shield::{tier_cache, AdmissionPolicy, ObjKey, TierStats};

/// Virtual points per edge on the failover [`HashRing`]. Enough that
/// per-edge load imbalance stays small at 8 edges without making ring
/// construction noticeable.
pub(crate) const RING_VNODES: usize = 64;

/// Salt mixed into the load seed for ring point placement, so the ring
/// layout is independent of the arrival-time draw stream.
pub(crate) const RING_SALT: u64 = 0x51A6_F00D_CA57_1E55;

/// Salt mixed into the load seed for the *shield* failover ring, so the
/// two rings never share point placement.
pub(crate) const SHIELD_RING_SALT: u64 = 0x5111_E1D0_F00D_CA57;

/// Salt mixed into the fault seed for per-edge shield-failover keys.
pub(crate) const SHIELD_KEY_SALT: u64 = 0x0E06_E25E_11E1_D5A1;

/// Salt mixed into the load seed for per-session title draws, so the
/// popularity stream is independent of arrival times and ring keys.
pub(crate) const TITLE_SALT: u64 = 0xCA7A_1060_0F71_71E5;

/// The title a session at schedule position `i` watches: rank 0 for a
/// single-title catalog (drawing *nothing* — the bit-identity contract
/// with the pre-catalog engine), otherwise a Zipf draw keyed by
/// position, not by RNG-stream order, so title choice never perturbs
/// the arrival draws.
pub(crate) fn title_for(load: &LoadConfig, sampler: Option<&ZipfSampler>, i: usize) -> u32 {
    sampler.map_or(0, |z| {
        z.sample_hash(splitmix64(load.seed ^ TITLE_SALT ^ i as u64)) as u32
    })
}

/// Segment-server capacity model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerConfig {
    /// Shared uplink, bytes per tick.
    pub capacity_bytes_per_tick: f64,
    /// Each viewer's access-link ceiling, bytes per tick (matches the
    /// default `LinkConfig` serialization rate of 100 bytes/tick).
    pub per_session_bytes_per_tick: f64,
}

impl Default for ServerConfig {
    /// A 4,000 byte/tick uplink feeding 100 byte/tick access links.
    fn default() -> Self {
        Self {
            capacity_bytes_per_tick: 4_000.0,
            per_session_bytes_per_tick: 100.0,
        }
    }
}

/// Session churn: load as a *process* rather than a constant
/// population. On top of the base `LoadConfig::sessions` (which still
/// arrive uniformly over the stagger window), churn adds
/// Poisson-style extra arrivals — exponential inter-arrival gaps drawn
/// from the load seed — each optionally departing after an exponential
/// watch time, plus a flash-crowd ramp: a burst of extra viewers
/// arriving over a short window (the 10x spike the edge tier exists to
/// absorb). All draws are seed-deterministic, and the all-zero default
/// is *exactly* the static population: zero churn draws nothing from
/// the RNG, so the VOD reports are bit-identical to the pre-churn
/// engine (equality-pinned in the tests).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnConfig {
    /// Extra sessions arriving as a Poisson-style process (0 disables).
    pub churn_sessions: usize,
    /// Mean ticks between churn arrivals.
    pub mean_interarrival_ticks: f64,
    /// Mean ticks a churn viewer watches before leaving (0 = watches
    /// to the end like everyone else).
    pub mean_watch_ticks: f64,
    /// Flash crowd: this many extra sessions... (0 disables)
    pub flash_sessions: usize,
    /// ...arrive starting at this tick...
    pub flash_at_tick: u64,
    /// ...spread uniformly over this ramp (0 = all at once).
    pub flash_ramp_ticks: u64,
}

impl Default for ChurnConfig {
    /// No churn: the static population, bit-identical to the
    /// pre-churn engine.
    fn default() -> Self {
        Self {
            churn_sessions: 0,
            mean_interarrival_ticks: 0.0,
            mean_watch_ticks: 0.0,
            flash_sessions: 0,
            flash_at_tick: 0,
            flash_ramp_ticks: 0,
        }
    }
}

/// Live/linear parameters for the fluid simulator. The simulated event
/// is the manifest's segment list published one sequence per
/// `ticks_per_segment`: sequence `s` goes live at tick
/// `(s - head_start) * ticks_per_segment` (sequences at or below
/// `head_start_segments` are live at tick 0 — the channel has already
/// been running), and at most `dvr_window_segments` sequences stay
/// fetchable. Sessions join at the live edge or the DVR start and a
/// too-slow viewer whose next segment expired skips forward.
///
/// The VOD simulators are the degenerate case: a head start covering
/// the whole manifest plus an infinite window makes every gate
/// vacuous, which the tests pin as *exact* report equality.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LiveConfig {
    /// Ticks between sequence publishes (0 derives the natural pace:
    /// first-segment frames × `ticks_per_frame`).
    pub ticks_per_segment: u64,
    /// DVR depth in segments (`u64::MAX` = infinite).
    pub dvr_window_segments: u64,
    /// Sequences already live at tick 0.
    pub head_start_segments: u64,
    /// Where sessions enter the stream.
    pub join: JoinMode,
}

impl Default for LiveConfig {
    /// Natural pace, 8-segment DVR, a fresh channel (only sequence 0
    /// live at tick 0), sessions joining at the live edge.
    fn default() -> Self {
        Self {
            ticks_per_segment: 0,
            dvr_window_segments: 8,
            head_start_segments: 0,
            join: JoinMode::LiveEdge,
        }
    }
}

/// Load-generation configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadConfig {
    /// Concurrent viewer sessions.
    pub sessions: usize,
    /// Session arrivals are spread uniformly over this many ticks.
    pub stagger_ticks: u64,
    /// Seed for arrival times (and hash sharding).
    pub seed: u64,
    /// Segments buffered before playback starts.
    pub startup_segments: usize,
    /// ABR headroom.
    pub safety: f64,
    /// ABR throughput smoothing.
    pub ewma_alpha: f64,
    /// Simulation step, ticks (larger = faster, coarser; 0 is treated
    /// as 1).
    pub tick_quantum: u64,
    /// Hard stop.
    pub max_ticks: u64,
    /// Session churn on top of the base population.
    pub churn: ChurnConfig,
}

impl LoadConfig {
    /// Total sessions this load creates: the base population plus
    /// every churn and flash-crowd extra. Reports denominate on this.
    #[must_use]
    pub fn population(&self) -> usize {
        self.sessions + self.churn.churn_sessions + self.churn.flash_sessions
    }
}

impl Default for LoadConfig {
    /// 100 sessions arriving over 1,000 ticks, 2-segment startup buffer,
    /// quantum 4, 10M-tick ceiling, no churn.
    fn default() -> Self {
        Self {
            sessions: 100,
            stagger_ticks: 1_000,
            seed: 7,
            startup_segments: 2,
            safety: 0.7,
            ewma_alpha: 0.4,
            tick_quantum: 4,
            max_ticks: 10_000_000,
            churn: ChurnConfig::default(),
        }
    }
}

/// One simulated viewer (quantum-oracle form; the shipping engine
/// aggregates these into counted cohorts — see `calendar`).
#[cfg(test)]
#[derive(Debug, Clone)]
struct SimSession {
    start_tick: u64,
    /// Early departure (churn), if scheduled.
    depart_at: Option<u64>,
    edge: usize,
    abr: AbrController,
    seg: usize,
    rung: usize,
    remaining_bytes: f64,
    fetch_start: u64,
    buffer_ticks: f64,
    fetched: usize,
    started: bool,
    /// Segments to buffer before this session starts playing (the
    /// global knob clamped to what remains after its join point).
    startup_after: usize,
    waiting: bool,
    /// Next segment chosen but not yet requested (live: not published
    /// yet). Never set in VOD mode.
    pending_request: bool,
    playing: bool,
    in_rebuffer: bool,
    startup_ticks: u64,
    rebuffer_events: u32,
    rung_switches: u32,
    rung_sum: u64,
    delivered_bits: u64,
    /// Sum/count/max of per-segment live latency (completion tick
    /// minus publish tick); all zero in VOD mode.
    latency_sum: u64,
    latency_max: u64,
    done_at: Option<u64>,
    /// Reached the end of the title/event (as opposed to departing).
    completed: bool,
}

/// Aggregate result of one load level.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadReport {
    /// Sessions simulated.
    pub sessions: usize,
    /// Sessions that fetched every segment before `max_ticks`.
    pub completed: usize,
    /// Ticks until the last session finished (or the ceiling).
    pub ticks: u64,
    /// Server-side goodput, bits per tick, over the busy period.
    pub total_goodput_bits_per_tick: f64,
    /// Mean per-session delivered bits per tick of session lifetime.
    pub mean_session_bits_per_tick: f64,
    /// Mean startup delay across sessions that started playing.
    pub mean_startup_ticks: f64,
    /// Sessions that stalled at least once after startup.
    pub rebuffer_sessions: usize,
    /// `rebuffer_sessions / sessions`.
    pub rebuffer_fraction: f64,
    /// Mean rung index across every fetched segment.
    pub mean_rung: f64,
    /// Total rung switches across sessions.
    pub rung_switches: u64,
    /// Sessions that left early (churn departures) instead of playing
    /// to the end.
    pub departed: usize,
}

impl LoadReport {
    /// The well-defined zero report for degenerate inputs (no sessions,
    /// empty manifest, or a tier that cannot move a single byte).
    fn degenerate(sessions: usize) -> Self {
        Self {
            sessions,
            completed: 0,
            ticks: 0,
            total_goodput_bits_per_tick: 0.0,
            mean_session_bits_per_tick: 0.0,
            mean_startup_ticks: 0.0,
            rebuffer_sessions: 0,
            rebuffer_fraction: 0.0,
            mean_rung: 0.0,
            rung_switches: 0,
            departed: 0,
        }
    }
}

/// What the live gates observed during one fluid run (all zero for a
/// VOD run).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LiveStats {
    /// Mean live latency over every segment completion: completion
    /// tick minus the segment's publish tick (how far behind the live
    /// edge delivery ran).
    pub mean_latency_ticks: f64,
    /// Worst single-segment live latency.
    pub max_latency_ticks: u64,
    /// Ticks sessions spent blocked on a not-yet-published segment
    /// (live-edge pacing), summed across sessions.
    pub publish_wait_ticks: u64,
    /// Segments skipped because they fell out of the DVR window before
    /// a (too slow) session could fetch them.
    pub window_skips: u64,
}

/// Result of one live load level against a single origin.
#[derive(Debug, Clone, PartialEq)]
pub struct LiveLoadReport {
    /// The session-side aggregate, directly comparable to VOD curves.
    pub load: LoadReport,
    /// Live-specific aggregates.
    pub live: LiveStats,
}

/// Result of one live load level routed through an edge tier.
#[derive(Debug, Clone, PartialEq)]
pub struct LiveEdgeLoadReport {
    /// The edge-tier report (session aggregate + per-edge stats).
    pub edge: EdgeLoadReport,
    /// Live-specific aggregates.
    pub live: LiveStats,
}

/// Result of one load level run under a [`FaultPlan`]: the ordinary
/// edge-tier report plus the live gates (zero for VOD) and the
/// resilience ledger (zero for an empty plan — bit-identically, since
/// an empty plan runs the plan-free engine path).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultedEdgeLoadReport {
    /// The edge-tier report (session aggregate + per-edge stats).
    pub edge: EdgeLoadReport,
    /// Live-specific aggregates.
    pub live: LiveStats,
    /// What the faults cost.
    pub resilience: ResilienceStats,
}

/// Per-edge entry in an [`EdgeLoadReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeReportEntry {
    /// Sessions sharded onto this edge.
    pub sessions: usize,
    /// What the edge observed.
    pub stats: EdgeStats,
}

/// Result of one load level routed through an edge tier.
#[derive(Debug, Clone, PartialEq)]
pub struct EdgeLoadReport {
    /// The session-side aggregate (same metrics as the single-origin
    /// report, so curves are directly comparable).
    pub load: LoadReport,
    /// Per-edge cache behaviour.
    pub per_edge: Vec<EdgeReportEntry>,
    /// Tier-wide merged stats.
    pub tier: EdgeStats,
    /// Tier-wide hit rate (coalesced waiters count as offloaded).
    pub hit_rate: f64,
    /// Fraction of served bytes that never crossed the origin link.
    pub origin_offload: f64,
}

/// The full hierarchical-CDN topology the fluid simulator can run: an
/// edge tier fronted by a shield (mid-tier) layer, with an optional
/// frequency-based edge-cache admission policy. `shields: 0` is the
/// flat topology — exactly [`EdgeTierConfig`] behavior, bit-identically
/// (the engine never touches the shield code path).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CdnConfig {
    /// The edge tier (the shield tier sits behind it).
    pub tier: EdgeTierConfig,
    /// Shield caches between the edges and the origin (0 = flat).
    /// Edges home onto shields in contiguous near-equal groups; under
    /// a fault plan, a crashed shield's children fail over across a
    /// shield [`HashRing`].
    pub shields: usize,
    /// Per-shield cache budget, bytes.
    pub shield_cache_capacity_bytes: usize,
    /// Each shield's downlink feeding its child edges' fills, bytes
    /// per tick.
    pub shield_capacity_bytes_per_tick: f64,
    /// Edge-cache admission policy (shields always admit: the tier
    /// exists to hold the union working set).
    pub admission: AdmissionPolicy,
}

impl Default for CdnConfig {
    /// The default edge tier behind 4 shields with unbounded caches
    /// and a 4,000 byte/tick downlink each, admitting everything.
    fn default() -> Self {
        Self {
            tier: EdgeTierConfig::default(),
            shields: 4,
            shield_cache_capacity_bytes: usize::MAX,
            shield_capacity_bytes_per_tick: 4_000.0,
            admission: AdmissionPolicy::AdmitAll,
        }
    }
}

/// Result of one load level through the full hierarchy: the edge-tier
/// report plus per-shield stats, the [`TierStats`] rollup, and the
/// live/resilience ledgers (zero when unused).
#[derive(Debug, Clone, PartialEq)]
pub struct CdnLoadReport {
    /// The edge-tier report (session aggregate + per-edge stats). Its
    /// `origin_offload` is the *edge-local* figure — against whatever
    /// parent the edges fill from; `tier.origin_offload()` is the
    /// true-origin figure.
    pub edge: EdgeLoadReport,
    /// Per-shield cache behaviour (`sessions` counts child *edges*).
    pub per_shield: Vec<EdgeReportEntry>,
    /// The two-tier rollup.
    pub tier: TierStats,
    /// `tier.origin_offload()`: fraction of viewer-served bytes that
    /// never crossed the *true* origin link.
    pub origin_offload: f64,
    /// Live-specific aggregates (zero for VOD).
    pub live: LiveStats,
    /// What the faults cost (zero for a plan-free run).
    pub resilience: ResilienceStats,
}

/// Resolved live gates for the fluid engine.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LiveSim {
    pub(crate) tps: u64,
    pub(crate) dvr: u64,
    pub(crate) head_start: u64,
    pub(crate) join: JoinMode,
}

impl LiveSim {
    fn resolve(live: &LiveConfig, manifest: &Manifest) -> Self {
        let tps = if live.ticks_per_segment > 0 {
            live.ticks_per_segment
        } else {
            // The same pace rule LiveOrigin resolves, so the fluid
            // gates and the transport-level live session agree.
            manifest.natural_ticks_per_segment()
        };
        Self {
            tps,
            dvr: live.dvr_window_segments,
            head_start: live.head_start_segments,
            join: live.join,
        }
    }

    /// Newest sequence live at `now` (capped at the event's last).
    pub(crate) fn live_seq(&self, now: u64, n_segments: usize) -> u64 {
        (self.head_start.saturating_add(now / self.tps)).min(n_segments as u64 - 1)
    }

    /// Oldest sequence still in the DVR window at `now`.
    pub(crate) fn first_seq(&self, now: u64, n_segments: usize) -> u64 {
        crate::ladder::dvr_window_start(self.live_seq(now, n_segments), self.dvr)
    }

    /// The tick sequence `seq` went (or will go) live.
    pub(crate) fn publish_tick(&self, seq: u64) -> u64 {
        seq.saturating_sub(self.head_start).saturating_mul(self.tps)
    }
}

/// Internal engine parameters: the single origin is the 1-edge,
/// everything-prewarmed, nothing-to-fill special case, and VOD is the
/// no-live-gates special case.
pub(crate) struct TierParams {
    pub(crate) edges: usize,
    pub(crate) cache_capacity_bytes: usize,
    pub(crate) edge_capacity: f64,
    pub(crate) per_session: f64,
    pub(crate) origin_capacity: f64,
    pub(crate) sharding: Sharding,
    pub(crate) prewarm: bool,
    pub(crate) origin_down_after: Option<u64>,
    /// Shield caches between the edges and the origin; `0` is the flat
    /// topology — structurally the pre-shield code path.
    pub(crate) shields: usize,
    pub(crate) shield_cache_capacity_bytes: usize,
    /// Each shield's downlink to its child edges, bytes per tick.
    pub(crate) shield_capacity: f64,
    /// Edge-cache admission policy (shields always admit).
    pub(crate) admission: AdmissionPolicy,
    /// Zipf exponent for multi-title runs (unused for one title).
    pub(crate) zipf_s: f64,
    pub(crate) live: Option<LiveSim>,
    /// The resolved fault schedule, or `None` for a plan-free run.
    /// Discipline (same as zero-churn): an *empty* resolved plan is
    /// stored as `None`, so the engine's plan-free fast path — and its
    /// bit-identical reports — are structural, not coincidental.
    pub(crate) faults: Option<FaultSchedule>,
}

impl TierParams {
    pub(crate) fn single_origin(server: &ServerConfig) -> Self {
        Self {
            edges: 1,
            cache_capacity_bytes: usize::MAX,
            edge_capacity: server.capacity_bytes_per_tick,
            per_session: server.per_session_bytes_per_tick,
            origin_capacity: 0.0,
            sharding: Sharding::RoundRobin,
            prewarm: true,
            origin_down_after: None,
            shields: 0,
            shield_cache_capacity_bytes: usize::MAX,
            shield_capacity: 0.0,
            admission: AdmissionPolicy::AdmitAll,
            zipf_s: 1.0,
            live: None,
            faults: None,
        }
    }

    pub(crate) fn tier(t: &EdgeTierConfig) -> Self {
        Self {
            edges: t.edges,
            cache_capacity_bytes: t.cache_capacity_bytes,
            edge_capacity: t.edge_capacity_bytes_per_tick,
            per_session: t.per_session_bytes_per_tick,
            origin_capacity: t.origin_capacity_bytes_per_tick,
            sharding: t.sharding,
            prewarm: t.prewarm,
            origin_down_after: t.origin_down_after,
            shields: 0,
            shield_cache_capacity_bytes: usize::MAX,
            shield_capacity: 0.0,
            admission: AdmissionPolicy::AdmitAll,
            zipf_s: 1.0,
            live: None,
            faults: None,
        }
    }

    pub(crate) fn cdn(c: &CdnConfig) -> Self {
        let mut p = Self::tier(&c.tier);
        p.shields = c.shields;
        p.shield_cache_capacity_bytes = c.shield_cache_capacity_bytes;
        p.shield_capacity = c.shield_capacity_bytes_per_tick;
        p.admission = c.admission;
        p
    }

    pub(crate) fn with_live(mut self, live: &LiveConfig, manifest: &Manifest) -> Self {
        self.live = Some(LiveSim::resolve(live, manifest));
        self
    }

    pub(crate) fn with_zipf(mut self, zipf_s: f64) -> Self {
        self.zipf_s = zipf_s;
        self
    }

    /// Resolves `plan` against this tier. An empty resolution (empty
    /// plan, or every event out of range/degenerate) leaves `faults`
    /// at `None` — the plan-free path, bit-identically.
    pub(crate) fn with_faults(mut self, plan: &FaultPlan) -> Self {
        let resolved = plan.resolve(self.edges, self.shields);
        self.faults = (!resolved.is_empty()).then_some(FaultSchedule {
            seed: plan.seed,
            actions: resolved,
        });
        self
    }

    /// `true` when no session could ever make progress.
    pub(crate) fn degenerate(&self, titles: &[Manifest], load: &LoadConfig) -> bool {
        load.population() == 0
            || titles.is_empty()
            || titles.iter().any(|m| m.segment_count() == 0)
            || self.edges == 0
            || self.edge_capacity.is_nan()
            || self.edge_capacity <= 0.0
            || self.per_session.is_nan()
            || self.per_session <= 0.0
            || (self.shields > 0 && (self.shield_capacity.is_nan() || self.shield_capacity <= 0.0))
            || (titles.len() > 1 && !self.zipf_s.is_finite())
            || self.live.is_some_and(|l| l.tps == 0 || l.dvr == 0)
    }
}

/// One simulated edge: an LRU over `(title, rung, seq)` keys plus the
/// coalescing table of in-flight parent fills (fluid segments are
/// immutable once published, so every fill is generation 0).
pub(crate) struct SimEdge {
    pub(crate) lru: Lru<ObjKey>,
    pub(crate) fills: FillTable<ObjKey, f64>,
    pub(crate) stats: EdgeStats,
    pub(crate) assigned: usize,
    /// Objects filled this quantum but *rejected* by cache admission:
    /// their waiters still wake and download (serve-through without
    /// caching). Cleared every quantum; always empty under
    /// admit-always, so the legacy path never consults it.
    pub(crate) pass: std::collections::BTreeSet<ObjKey>,
}

#[derive(Clone, Copy)]
pub(crate) enum Req {
    Hit,
    /// Waiting on a fill; `true` when this request started it (a state
    /// change the engine's stasis detector must count as progress).
    Wait(bool),
}

impl SimEdge {
    /// A session asks for one segment: cached → hit; fill in flight →
    /// coalesce onto it; otherwise start a fill. Kept as the quantum
    /// oracle's per-session form of [`SimEdge::request_n`].
    #[cfg(test)]
    fn request(&mut self, key: ObjKey, bytes: f64) -> Req {
        if self.lru.touch(&key) {
            self.stats.hits += 1;
            Req::Hit
        } else if self.fills.request(key, 0, || bytes) {
            self.stats.misses += 1;
            Req::Wait(true)
        } else {
            self.stats.coalesced += 1;
            Req::Wait(false)
        }
    }

    /// `n` identical sessions ask for one segment in a single counted
    /// call — the cohort engine's form of [`SimEdge::request`]. Every
    /// stats ledger advances exactly as `n` per-session requests would
    /// (one fill started at most; the rest coalesce), so the per-edge
    /// counters stay identical to the quantum oracle's.
    pub(crate) fn request_n(&mut self, key: ObjKey, bytes: f64, n: u64) -> Req {
        debug_assert!(n > 0, "a cohort request carries at least one session");
        if self.lru.touch(&key) {
            self.stats.hits += n;
            Req::Hit
        } else if self.fills.request(key, 0, || bytes) {
            self.fills.join_many(n - 1);
            self.stats.misses += 1;
            self.stats.coalesced += n - 1;
            Req::Wait(true)
        } else {
            self.fills.join_many(n - 1);
            self.stats.coalesced += n;
            Req::Wait(false)
        }
    }
}

/// The epsilon-stable download-completion threshold for a segment of
/// `segment_bytes`: a transfer is complete once its remaining bytes
/// fall *at or below* this, not exactly to `0.0`.
///
/// The hot loop drains `remaining_bytes -= rate * step` once per
/// quantum, and each subtraction can round by half an ulp. Over a
/// 10M-tick run that accumulates to ~1e-4 bytes of drift. The epsilon
/// is sized orders of magnitude above that drift and orders of
/// magnitude below a deliverable byte, so the completion tick does not
/// hinge on rounding. The cohort engine's wake predictor
/// (`calendar::wake_level`) sums the same drains a second way and
/// leans on the same bound (regression-pinned at 10M ticks).
pub(crate) fn completion_eps(segment_bytes: f64) -> f64 {
    segment_bytes.max(1.0) * 1e-8
}

/// One exponential(mean) draw in ticks (0 for a disabled mean).
fn exp_ticks(rng: &mut Xoroshiro128, mean: f64) -> u64 {
    if !mean.is_finite() || mean <= 0.0 {
        return 0;
    }
    // 1 - u is in (0, 1], so the log is finite and non-positive.
    (-mean * (1.0 - rng.next_f64()).ln()).round() as u64
}

/// The simulated edge tier, optionally prewarmed with every title's
/// whole ladder. Shared verbatim by the cohort engine and the quantum
/// oracle so both start from the identical cache state.
pub(crate) fn build_edges(titles: &[Manifest], p: &TierParams) -> Vec<SimEdge> {
    let lru = tier_cache(titles, p.cache_capacity_bytes, p.prewarm);
    (0..p.edges)
        .map(|_| SimEdge {
            lru: lru.clone(),
            fills: FillTable::new(),
            stats: EdgeStats {
                evictions: lru.evictions(),
                ..EdgeStats::default()
            },
            assigned: 0,
            pass: std::collections::BTreeSet::new(),
        })
        .collect()
}

/// The arrival/departure schedule: one `(start_tick, depart_at)` per
/// session that will actually simulate, plus the count of *phantoms*.
/// Shared verbatim by the cohort engine and the quantum oracle so both
/// consume the identical RNG draw sequence.
///
/// The base population draws exactly as the pre-churn engine did (zero
/// churn therefore reproduces it bit-identically); churn and flash
/// arrivals draw afterwards. An exhausted churn schedule terminates
/// the arrival stream *explicitly*: once the clock saturates, no
/// further arrival can ever fall due, so the remaining churn sessions
/// are accounted as phantoms (they count in the report denominator but
/// never enter the simulation) instead of freezing `alive` above zero
/// and spinning the engine to `max_ticks`.
pub(crate) fn build_schedule(load: &LoadConfig) -> (Vec<(u64, Option<u64>)>, usize) {
    let mut rng = Xoroshiro128::new(load.seed);
    let c = load.churn;
    let mut schedule: Vec<(u64, Option<u64>)> = (0..load.sessions)
        .map(|_| (rng.below(load.stagger_ticks + 1), None))
        .collect();
    let mut churn_clock = 0u64;
    let mut phantoms = 0usize;
    for drawn in 0..c.churn_sessions {
        match churn_clock.checked_add(exp_ticks(&mut rng, c.mean_interarrival_ticks)) {
            Some(t) if t < u64::MAX => churn_clock = t,
            _ => {
                phantoms = c.churn_sessions - drawn;
                break;
            }
        }
        let depart = (c.mean_watch_ticks > 0.0)
            .then(|| churn_clock.saturating_add(exp_ticks(&mut rng, c.mean_watch_ticks).max(1)));
        schedule.push((churn_clock, depart));
    }
    for _ in 0..c.flash_sessions {
        let at = c
            .flash_at_tick
            .saturating_add(rng.below(c.flash_ramp_ticks.saturating_add(1)));
        if at == u64::MAX {
            phantoms += 1;
        } else {
            schedule.push((at, None));
        }
    }
    (schedule, phantoms)
}

/// The failover ring, when this run needs one: always under
/// [`Sharding::Ring`], and under *any* fault plan (whatever the
/// sharding, re-homed sessions must land deterministically). Shared by
/// both engines so placements match.
pub(crate) fn build_ring(load: &LoadConfig, p: &TierParams) -> Option<HashRing> {
    (p.sharding == Sharding::Ring || p.faults.is_some())
        .then(|| HashRing::new(p.edges, RING_VNODES, load.seed ^ RING_SALT))
}

/// The session key a schedule position hashes to on the failover ring.
/// One canonical mixing so home placement ([`shard_edge`]) and failover
/// routing agree on the key.
pub(crate) fn ring_key(load: &LoadConfig, i: usize) -> u64 {
    splitmix64(load.seed ^ i as u64)
}

/// The edge a session at schedule position `i` is sharded onto. Shared
/// by both engines so cohort membership matches the oracle's routing.
pub(crate) fn shard_edge(
    load: &LoadConfig,
    p: &TierParams,
    i: usize,
    ring: Option<&HashRing>,
) -> usize {
    match p.sharding {
        Sharding::RoundRobin => i % p.edges,
        Sharding::Hash => (splitmix64(load.seed ^ i as u64) % p.edges as u64) as usize,
        Sharding::Ring => ring
            .expect("Sharding::Ring runs always build the ring")
            .route(ring_key(load, i)),
    }
}

/// The sequence a session arriving at `start_tick` joins at, and the
/// startup-buffer depth clamped to what remains after that join point.
pub(crate) fn join_point(
    p: &TierParams,
    load: &LoadConfig,
    start_tick: u64,
    n_segments: usize,
) -> (usize, usize) {
    let join_seq = p.live.map_or(0, |l| match l.join {
        JoinMode::LiveEdge => l.live_seq(start_tick, n_segments),
        JoinMode::DvrStart => l.first_seq(start_tick, n_segments),
    }) as usize;
    let startup_after = load.startup_segments.clamp(1, n_segments - join_seq);
    (join_seq, startup_after)
}

/// The retired per-session quantum engine, kept as the test oracle the
/// cohort engine is equality-pinned against (see `calendar`): it
/// advances *every* arrived session every quantum, which is exactly the
/// O(ticks × population) cost profile the event-calendar rewrite
/// removed — and exactly why it makes a trustworthy reference.
#[cfg(test)]
pub(crate) mod oracle {
    use super::*;
    use std::cmp::Reverse;
    use std::collections::{BTreeSet, BinaryHeap};

    /// The shared fluid engine. Returns the sessions, the edges, the final
    /// simulation tick, the live-gate aggregates (zero for VOD), and the
    /// count of phantom sessions (arrivals a saturated churn clock could
    /// never schedule — they denominate the report but never simulate).
    fn run_fluid(
        manifest: &Manifest,
        load: &LoadConfig,
        p: &TierParams,
    ) -> (Vec<SimSession>, Vec<SimEdge>, u64, LiveStats, usize) {
        let n_segments = manifest.segment_count();
        let q = load.tick_quantum.max(1);

        let mut edges = build_edges(std::slice::from_ref(manifest), p);
        let (schedule, phantoms) = build_schedule(load);

        let ring = build_ring(load, p);
        let mut sessions: Vec<SimSession> = schedule
            .into_iter()
            .enumerate()
            .map(|(i, (start_tick, depart_at))| {
                let edge = shard_edge(load, p, i, ring.as_ref());
                let (join_seq, startup_after) = join_point(p, load, start_tick, n_segments);
                SimSession {
                    start_tick,
                    depart_at,
                    edge,
                    abr: AbrController::new(load.ewma_alpha, load.safety),
                    seg: join_seq,
                    rung: 0,
                    remaining_bytes: 0.0,
                    fetch_start: start_tick,
                    buffer_ticks: 0.0,
                    fetched: 0,
                    started: false,
                    startup_after,
                    waiting: false,
                    pending_request: false,
                    playing: false,
                    in_rebuffer: false,
                    startup_ticks: 0,
                    rebuffer_events: 0,
                    rung_switches: 0,
                    rung_sum: 0,
                    delivered_bits: 0,
                    latency_sum: 0,
                    latency_max: 0,
                    done_at: None,
                    completed: false,
                }
            })
            .collect();
        for s in &sessions {
            edges[s.edge].assigned += 1;
        }
        let all_arrived_by = sessions.iter().map(|s| s.start_tick).max().unwrap_or(0);

        // Alive-set bookkeeping: a quantum touches only sessions that have
        // arrived and not yet finished. Arrivals pop off a start-tick-sorted
        // cursor, departures off a min-heap, and the per-quantum departure
        // sweep / `arrived` recount over the whole population are gone —
        // the reports are bit-identical to the full-scan engine (golden-
        // pinned in the tests).
        let mut arrival_order: Vec<u32> = (0..sessions.len() as u32).collect();
        arrival_order.sort_by_key(|&i| sessions[i as usize].start_tick);
        let mut next_arrival = 0usize;
        let mut departures: BinaryHeap<Reverse<(u64, u32)>> = sessions
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.depart_at.map(|d| Reverse((d, i as u32))))
            .collect();
        let mut active: BTreeSet<u32> = BTreeSet::new();
        let mut scratch: Vec<u32> = Vec::with_capacity(sessions.len());

        let mut now = 0u64;
        let mut alive = sessions.len();
        let mut downloading = vec![0usize; p.edges];
        let mut last_first_seq = 0u64;
        let mut publish_wait_ticks = 0u64;
        let mut window_skips = 0u64;
        while alive > 0 && now < load.max_ticks {
            // Arrivals due this quantum activate...
            while next_arrival < arrival_order.len() {
                let i = arrival_order[next_arrival];
                if sessions[i as usize].start_tick > now {
                    break;
                }
                active.insert(i);
                next_arrival += 1;
            }
            // ...and churn departures happen on the quantum they fall due.
            while let Some(&Reverse((d, i))) = departures.peek() {
                if d > now {
                    break;
                }
                departures.pop();
                let s = &mut sessions[i as usize];
                if s.done_at.is_none() {
                    s.done_at = Some(now);
                    alive -= 1;
                    active.remove(&i);
                }
            }
            let arrived = active.len();
            if arrived == 0 {
                now += q;
                continue;
            }
            let step = q as f64;
            let mut progressed = false;

            // Live DVR-window maintenance: segments that left the window
            // are invalidated from every edge cache (the origin's purge,
            // not capacity pressure — eviction counters are untouched).
            if let Some(l) = p.live {
                let first = l.first_seq(now, n_segments);
                for seq in last_first_seq..first {
                    for ri in 0..manifest.rungs.len() {
                        for e in edges.iter_mut() {
                            if e.lru.remove(&(0, ri as u32, seq as u32)).is_some() {
                                e.stats.invalidations += 1;
                            }
                        }
                    }
                }
                last_first_seq = last_first_seq.max(first);
            }

            // Origin fills: every in-flight fill shares the origin uplink
            // max-min-equally; an outage freezes them all. Fills land
            // *before* the downlink shares are computed, so waiters waking
            // this quantum count toward their edge's split.
            let origin_down = p.origin_down_after.is_some_and(|t| now >= t);
            let total_fills: usize = edges.iter().map(|e| e.fills.len()).sum();
            if total_fills > 0 && !origin_down && p.origin_capacity > 0.0 {
                let fill_rate = p.origin_capacity / total_fills as f64;
                for e in &mut edges {
                    let done: Vec<ObjKey> = e
                        .fills
                        .iter_mut()
                        .filter_map(|(k, rem)| {
                            *rem -= fill_rate * step;
                            let total = manifest.rungs[k.0 .1 as usize].segments[k.0 .2 as usize]
                                .bytes as f64;
                            (*rem <= completion_eps(total)).then_some(k.0)
                        })
                        .collect();
                    for k in done {
                        e.fills.complete(&k, 0);
                        let bytes = manifest.rungs[k.1 as usize].segments[k.2 as usize].bytes;
                        e.stats.origin_bytes += bytes as u64;
                        e.lru.insert(k, bytes);
                        e.stats.evictions = e.lru.evictions();
                    }
                }
                progressed = true;
            }

            // Per-edge downlink shares: a waiter whose object just landed
            // will download this quantum, so it counts — otherwise a burst
            // of waking waiters would each claim a full share and
            // oversubscribe the edge link. A publish-gated session counts
            // only if its segment is now live *and* already cached (it
            // will request and hit below).
            downloading.iter_mut().for_each(|d| *d = 0);
            scratch.clear();
            scratch.extend(active.iter().copied());
            for &i in &scratch {
                let s = &sessions[i as usize];
                let will_download = if s.pending_request {
                    let l = p.live.expect("pending only in live mode");
                    let rung = if s.fetched == 0 {
                        0
                    } else {
                        s.abr.pick(manifest, s.seg, None)
                    };
                    s.seg as u64 <= l.live_seq(now, n_segments)
                        && edges[s.edge].lru.contains(&(0, rung as u32, s.seg as u32))
                } else if s.waiting {
                    edges[s.edge]
                        .lru
                        .contains(&(0, s.rung as u32, s.seg as u32))
                } else {
                    true
                };
                if will_download {
                    downloading[s.edge] += 1;
                }
            }

            for &i in &scratch {
                let s = &mut sessions[i as usize];
                let e = &mut edges[s.edge];
                if !s.started {
                    s.started = true;
                    let live_now = p
                        .live
                        .map_or(true, |l| s.seg as u64 <= l.live_seq(now, n_segments));
                    if live_now {
                        let bytes = manifest.rungs[0].segments[s.seg].bytes as f64;
                        match e.request((0, 0, s.seg as u32), bytes) {
                            Req::Hit => s.remaining_bytes += bytes,
                            Req::Wait(new_fill) => {
                                s.waiting = true;
                                progressed |= new_fill;
                            }
                        }
                    } else {
                        s.pending_request = true;
                    }
                }
                // Playout drains while the next segment downloads (or while
                // the session waits on a fill or the live edge).
                if s.playing {
                    s.buffer_ticks -= step;
                    if s.buffer_ticks < 0.0 {
                        if !s.in_rebuffer {
                            s.in_rebuffer = true;
                            s.rebuffer_events += 1;
                        }
                        s.buffer_ticks = 0.0;
                    }
                }
                // A segment chosen but not yet requested: the live edge
                // had not published it. Re-check the window now.
                if s.pending_request {
                    let l = p.live.expect("pending only in live mode");
                    let first = l.first_seq(now, n_segments) as usize;
                    if s.seg < first {
                        // Too slow: the segment expired out of the DVR
                        // window before we ever asked. Skip forward.
                        window_skips += (first - s.seg) as u64;
                        s.seg = first;
                    }
                    if s.seg as u64 <= l.live_seq(now, n_segments) {
                        s.pending_request = false;
                        let rung = if s.fetched == 0 {
                            0
                        } else {
                            s.abr.pick(manifest, s.seg, None)
                        };
                        if s.fetched > 0 && rung != s.rung {
                            s.rung_switches += 1;
                        }
                        s.rung = rung;
                        s.fetch_start = now;
                        let bytes = manifest.rungs[rung].segments[s.seg].bytes as f64;
                        match e.request((0, rung as u32, s.seg as u32), bytes) {
                            Req::Hit => s.remaining_bytes += bytes,
                            Req::Wait(new_fill) => {
                                s.waiting = true;
                                progressed |= new_fill;
                            }
                        }
                    } else {
                        publish_wait_ticks += q;
                        continue;
                    }
                }
                if s.waiting {
                    let key = (0, s.rung as u32, s.seg as u32);
                    let bytes = manifest.rungs[s.rung].segments[s.seg].bytes as f64;
                    if e.lru.touch(&key) {
                        // The fill landed: start the edge-leg download, with
                        // `fetch_start` still at request time so the ABR
                        // sees the full wait. The fall-through download
                        // decrement below marks the progress.
                        s.waiting = false;
                        s.remaining_bytes += bytes;
                    } else {
                        if !e.fills.contains(&key, 0) {
                            // The filled object was evicted before this
                            // session could download it: re-request.
                            e.stats.misses += 1;
                            e.fills.request(key, 0, || bytes);
                            progressed = true;
                        }
                        continue;
                    }
                }
                let rate = (p.edge_capacity / downloading[s.edge].max(1) as f64).min(p.per_session);
                s.remaining_bytes -= rate * step;
                progressed = true;
                let entry = &manifest.rungs[s.rung].segments[s.seg];
                if s.remaining_bytes > completion_eps(entry.bytes as f64) {
                    continue;
                }
                // Segment complete at the end of this quantum.
                let end = now + q;
                let elapsed = end.saturating_sub(s.fetch_start).max(1);
                s.abr.observe((entry.bytes * 8) as f64, elapsed as f64);
                s.delivered_bits += (entry.bytes * 8) as u64;
                s.rung_sum += s.rung as u64;
                s.buffer_ticks += (entry.frames as u64 * manifest.ticks_per_frame) as f64;
                s.in_rebuffer = false;
                s.fetched += 1;
                e.stats.served_bytes += entry.bytes as u64;
                if let Some(l) = p.live {
                    let lat = end.saturating_sub(l.publish_tick(s.seg as u64));
                    s.latency_sum += lat;
                    s.latency_max = s.latency_max.max(lat);
                }
                if !s.playing && s.fetched >= s.startup_after {
                    s.playing = true;
                    s.startup_ticks = end - s.start_tick;
                }
                s.seg += 1;
                if s.seg == n_segments {
                    s.done_at = Some(end);
                    s.completed = true;
                    alive -= 1;
                    continue;
                }
                // Live gates for the next segment, evaluated at the
                // completion tick (the same tick the next quantum sees).
                if let Some(l) = p.live {
                    let first = l.first_seq(end, n_segments) as usize;
                    if s.seg < first {
                        window_skips += (first - s.seg) as u64;
                        s.seg = first;
                    }
                    if s.seg as u64 > l.live_seq(end, n_segments) {
                        // Caught up with the live edge: wait for the next
                        // publish, discarding the download overshoot (the
                        // link idles — pacing, not congestion).
                        s.pending_request = true;
                        s.remaining_bytes = 0.0;
                        continue;
                    }
                }
                let next_rung = s.abr.pick(manifest, s.seg, None);
                if next_rung != s.rung {
                    s.rung_switches += 1;
                }
                s.rung = next_rung;
                let bytes = manifest.rungs[s.rung].segments[s.seg].bytes as f64;
                match e.request((0, s.rung as u32, s.seg as u32), bytes) {
                    // A hit carries this quantum's download overshoot into
                    // the next segment, exactly like the single-origin path.
                    Req::Hit => s.remaining_bytes += bytes,
                    Req::Wait(new_fill) => {
                        s.waiting = true;
                        s.remaining_bytes = 0.0;
                        progressed |= new_fill;
                    }
                }
                s.fetch_start = end;
            }
            active.retain(|&i| sessions[i as usize].done_at.is_none());
            now += q;
            // Stasis: every arrival has happened and a whole quantum passed
            // with no byte moved anywhere (e.g. an origin outage with cold
            // caches) — and no publish or departure is still due, so the
            // state can never change again.
            if !progressed && now > all_arrived_by {
                let publishes_due = p
                    .live
                    .is_some_and(|l| l.live_seq(now, n_segments) < n_segments as u64 - 1);
                // A pending session will request (and progress) once its
                // segment publishes — including the final one, which may
                // have gone live this very quantum without being consumed
                // yet.
                let waiters_due = active.iter().any(|&i| sessions[i as usize].pending_request);
                // Entries due at or before `now` were popped at the loop
                // top, so anything left in the heap is a future departure.
                let departures_due = departures
                    .iter()
                    .any(|&Reverse((_, i))| sessions[i as usize].done_at.is_none());
                if !publishes_due && !waiters_due && !departures_due {
                    break;
                }
            }
        }
        let fetched_total: u64 = sessions.iter().map(|s| s.fetched as u64).sum();
        let latency_sum: u64 = sessions.iter().map(|s| s.latency_sum).sum();
        let live_stats = LiveStats {
            mean_latency_ticks: latency_sum as f64 / fetched_total.max(1) as f64,
            max_latency_ticks: sessions.iter().map(|s| s.latency_max).max().unwrap_or(0),
            publish_wait_ticks,
            window_skips,
        };
        (sessions, edges, now, live_stats, phantoms)
    }

    /// Folds finished sessions into the aggregate report.
    fn finish(sessions: &[SimSession], n_sessions: usize, now: u64) -> LoadReport {
        let end_tick = sessions
            .iter()
            .filter_map(|s| s.done_at)
            .max()
            .unwrap_or(now)
            .max(1);
        let completed = sessions.iter().filter(|s| s.completed).count();
        let departed = sessions
            .iter()
            .filter(|s| s.done_at.is_some() && !s.completed)
            .count();
        let total_bits: u64 = sessions.iter().map(|s| s.delivered_bits).sum();
        let mean_session_rate = sessions
            .iter()
            .map(|s| {
                let end = s.done_at.unwrap_or(now).max(s.start_tick + 1);
                s.delivered_bits as f64 / (end - s.start_tick) as f64
            })
            .sum::<f64>()
            / n_sessions.max(1) as f64;
        let started: Vec<&SimSession> = sessions.iter().filter(|s| s.playing).collect();
        let mean_startup = if started.is_empty() {
            0.0
        } else {
            started.iter().map(|s| s.startup_ticks as f64).sum::<f64>() / started.len() as f64
        };
        let rebuffer_sessions = sessions.iter().filter(|s| s.rebuffer_events > 0).count();
        let fetched_total: u64 = sessions.iter().map(|s| s.fetched as u64).sum();
        let rung_sum: u64 = sessions.iter().map(|s| s.rung_sum).sum();
        LoadReport {
            sessions: n_sessions,
            completed,
            ticks: end_tick,
            total_goodput_bits_per_tick: total_bits as f64 / end_tick as f64,
            mean_session_bits_per_tick: mean_session_rate,
            mean_startup_ticks: mean_startup,
            rebuffer_sessions,
            rebuffer_fraction: rebuffer_sessions as f64 / n_sessions.max(1) as f64,
            mean_rung: rung_sum as f64 / fetched_total.max(1) as f64,
            rung_switches: sessions.iter().map(|s| u64::from(s.rung_switches)).sum(),
            departed,
        }
    }

    /// One oracle run, folded to the same `(report, edges, live)`
    /// shape the cohort engine returns, for equality pins.
    pub(crate) fn run(
        manifest: &Manifest,
        load: &LoadConfig,
        p: &TierParams,
    ) -> (LoadReport, Vec<SimEdge>, LiveStats) {
        let (sessions, edges, now, live_stats, phantoms) = run_fluid(manifest, load, p);
        let n = sessions.len() + phantoms;
        (finish(&sessions, n, now), edges, live_stats)
    }
}

/// Runs `load.sessions` concurrent viewers against one origin server.
///
/// Entirely deterministic: identical inputs give an identical report.
/// Degenerate inputs (zero sessions, an empty manifest, a zero- or
/// NaN-capacity uplink) return a well-defined all-zero report instead
/// of panicking or spinning to `max_ticks`.
#[must_use]
pub fn simulate_load(manifest: &Manifest, server: &ServerConfig, load: &LoadConfig) -> LoadReport {
    let p = TierParams::single_origin(server);
    if p.degenerate(std::slice::from_ref(manifest), load) {
        return LoadReport::degenerate(load.population());
    }
    crate::calendar::run_cohorts(std::slice::from_ref(manifest), load, &p).report
}

/// Runs `load.sessions` concurrent viewers sharded across an edge tier.
///
/// Misses coalesce into shared origin fills; hits are served from each
/// edge's own downlink, so tier capacity scales with edge count instead
/// of being pinned to one uplink. Deterministic, with the same
/// degenerate-input guarantees as [`simulate_load`].
#[must_use]
pub fn simulate_edge_load(
    manifest: &Manifest,
    tier: &EdgeTierConfig,
    load: &LoadConfig,
) -> EdgeLoadReport {
    run_edge(manifest, load, TierParams::tier(tier)).0
}

/// Runs `load` as a *live* audience against one origin server: the
/// manifest's segments publish one per `live.ticks_per_segment`,
/// sessions join at the live edge or the DVR start, and a rolling
/// window bounds what is fetchable. With an infinite window, a head
/// start covering the whole title, and `JoinMode::DvrStart`, the
/// session-side report equals [`simulate_load`]'s *exactly* (the live
/// gates all become vacuous — equality-pinned in the tests).
#[must_use]
pub fn simulate_live_load(
    manifest: &Manifest,
    server: &ServerConfig,
    live: &LiveConfig,
    load: &LoadConfig,
) -> LiveLoadReport {
    let p = TierParams::single_origin(server).with_live(live, manifest);
    if p.degenerate(std::slice::from_ref(manifest), load) {
        return LiveLoadReport {
            load: LoadReport::degenerate(load.population()),
            live: LiveStats::default(),
        };
    }
    let run = crate::calendar::run_cohorts(std::slice::from_ref(manifest), load, &p);
    LiveLoadReport {
        load: run.report,
        live: run.live,
    }
}

/// [`simulate_live_load`] through an edge tier: the hard case an edge
/// tier exists for — every viewer wants the same just-published
/// live-edge segment, which is cached *nowhere* until exactly one
/// coalesced fill per edge lands it.
#[must_use]
pub fn simulate_live_edge_load(
    manifest: &Manifest,
    tier: &EdgeTierConfig,
    live: &LiveConfig,
    load: &LoadConfig,
) -> LiveEdgeLoadReport {
    let (edge, live_stats) = run_edge(
        manifest,
        load,
        TierParams::tier(tier).with_live(live, manifest),
    );
    LiveEdgeLoadReport {
        edge,
        live: live_stats,
    }
}

/// [`simulate_edge_load`] under a [`FaultPlan`]: edges crash and
/// restart, the origin flaps, links degrade — all scheduled on the
/// engine's own event calendar, so the run stays deterministic at any
/// scale. A crashed edge's sessions re-home across the failover ring
/// to survivors (and fail back on restart); an empty plan runs the
/// plan-free path bit-identically.
#[must_use]
pub fn simulate_edge_load_faulted(
    manifest: &Manifest,
    tier: &EdgeTierConfig,
    plan: &FaultPlan,
    load: &LoadConfig,
) -> FaultedEdgeLoadReport {
    let (edge, live, resilience) =
        run_edge_resilient(manifest, load, TierParams::tier(tier).with_faults(plan));
    FaultedEdgeLoadReport {
        edge,
        live,
        resilience,
    }
}

/// [`simulate_live_edge_load`] under a [`FaultPlan`] — the composed
/// worst case ROADMAP item 3 asks for: a flash crowd arriving while an
/// edge crashes and the origin flaps, in one deterministic run.
#[must_use]
pub fn simulate_live_edge_load_faulted(
    manifest: &Manifest,
    tier: &EdgeTierConfig,
    live: &LiveConfig,
    plan: &FaultPlan,
    load: &LoadConfig,
) -> FaultedEdgeLoadReport {
    let (edge, live_stats, resilience) = run_edge_resilient(
        manifest,
        load,
        TierParams::tier(tier)
            .with_live(live, manifest)
            .with_faults(plan),
    );
    FaultedEdgeLoadReport {
        edge,
        live: live_stats,
        resilience,
    }
}

/// [`edge_capacity_knee_bisect`] under a [`FaultPlan`] — how far the
/// knee retreats as the plan takes edges away.
#[must_use]
pub fn faulted_edge_capacity_knee_bisect(
    manifest: &Manifest,
    tier: &EdgeTierConfig,
    plan: &FaultPlan,
    counts: &[usize],
    base: &LoadConfig,
    stall_tolerance: f64,
) -> Option<usize> {
    knee_bisect(
        counts,
        |sessions| {
            simulate_edge_load_faulted(manifest, tier, plan, &LoadConfig { sessions, ..*base })
                .edge
                .load
                .rebuffer_fraction
        },
        stall_tolerance,
    )
}

/// The shared edge-report assembly.
fn run_edge(manifest: &Manifest, load: &LoadConfig, p: TierParams) -> (EdgeLoadReport, LiveStats) {
    let (edge, live, _) = run_edge_resilient(manifest, load, p);
    (edge, live)
}

/// [`run_edge`] keeping the resilience ledger (all zero for a
/// plan-free run).
fn run_edge_resilient(
    manifest: &Manifest,
    load: &LoadConfig,
    p: TierParams,
) -> (EdgeLoadReport, LiveStats, ResilienceStats) {
    if p.degenerate(std::slice::from_ref(manifest), load) {
        return (
            EdgeLoadReport {
                load: LoadReport::degenerate(load.population()),
                per_edge: Vec::new(),
                tier: EdgeStats::default(),
                hit_rate: 0.0,
                origin_offload: 0.0,
            },
            LiveStats::default(),
            ResilienceStats::default(),
        );
    }
    let run = crate::calendar::run_cohorts(std::slice::from_ref(manifest), load, &p);
    (
        assemble_edge_report(run.report, &run.edges),
        run.live,
        run.resilience,
    )
}

/// Folds per-edge counters into the tier-level report shape (shared by
/// the shipping engine and the test oracle's equality pins).
pub(crate) fn assemble_edge_report(load: LoadReport, edges: &[SimEdge]) -> EdgeLoadReport {
    let per_edge: Vec<EdgeReportEntry> = edges
        .iter()
        .map(|e| EdgeReportEntry {
            sessions: e.assigned,
            stats: e.stats,
        })
        .collect();
    let tier_stats = per_edge
        .iter()
        .fold(EdgeStats::default(), |acc, e| acc.merged(&e.stats));
    EdgeLoadReport {
        load,
        per_edge,
        hit_rate: tier_stats.hit_rate(),
        origin_offload: tier_stats.origin_offload(),
        tier: tier_stats,
    }
}

/// Sweeps session counts and reports one [`LoadReport`] per level.
#[must_use]
pub fn capacity_curve(
    manifest: &Manifest,
    server: &ServerConfig,
    counts: &[usize],
    base: &LoadConfig,
) -> Vec<LoadReport> {
    counts
        .iter()
        .map(|&sessions| simulate_load(manifest, server, &LoadConfig { sessions, ..*base }))
        .collect()
}

/// Sweeps session counts through an edge tier.
#[must_use]
pub fn edge_capacity_curve(
    manifest: &Manifest,
    tier: &EdgeTierConfig,
    counts: &[usize],
    base: &LoadConfig,
) -> Vec<EdgeLoadReport> {
    counts
        .iter()
        .map(|&sessions| simulate_edge_load(manifest, tier, &LoadConfig { sessions, ..*base }))
        .collect()
}

/// The capacity knee: the largest swept session count at which at most
/// `stall_tolerance` of sessions rebuffered. `None` on an empty curve
/// or when even the smallest level stalls more than that.
#[must_use]
pub fn capacity_knee(curve: &[LoadReport], stall_tolerance: f64) -> Option<usize> {
    curve
        .iter()
        .filter(|r| r.rebuffer_fraction <= stall_tolerance)
        .map(|r| r.sessions)
        .max()
}

/// [`capacity_knee`] over an edge-tier curve.
#[must_use]
pub fn edge_capacity_knee(curve: &[EdgeLoadReport], stall_tolerance: f64) -> Option<usize> {
    curve
        .iter()
        .filter(|r| r.load.rebuffer_fraction <= stall_tolerance)
        .map(|r| r.load.sessions)
        .max()
}

/// Sweeps live session counts through an edge tier.
#[must_use]
pub fn live_edge_capacity_curve(
    manifest: &Manifest,
    tier: &EdgeTierConfig,
    live: &LiveConfig,
    counts: &[usize],
    base: &LoadConfig,
) -> Vec<LiveEdgeLoadReport> {
    counts
        .iter()
        .map(|&sessions| {
            simulate_live_edge_load(manifest, tier, live, &LoadConfig { sessions, ..*base })
        })
        .collect()
}

/// [`capacity_knee`] over a live edge-tier curve.
#[must_use]
pub fn live_edge_capacity_knee(
    curve: &[LiveEdgeLoadReport],
    stall_tolerance: f64,
) -> Option<usize> {
    curve
        .iter()
        .filter(|r| r.edge.load.rebuffer_fraction <= stall_tolerance)
        .map(|r| r.edge.load.sessions)
        .max()
}

/// [`capacity_curve`] with its per-count shards fanned out on `pool`.
///
/// Each swept session count is one complete, independent simulator run
/// (runs share nothing: the origin uplink, fill tables and RNG streams
/// all live inside a run), so the points parallelise perfectly; the
/// merge collects reports **by count index**, not completion order.
/// Bit-identical to the sequential driver for any worker count and any
/// completion interleaving — property-pinned in the test suite.
#[must_use]
pub fn capacity_curve_on(
    pool: &WorkerPool,
    manifest: &Manifest,
    server: &ServerConfig,
    counts: &[usize],
    base: &LoadConfig,
) -> Vec<LoadReport> {
    pool.map(counts, |&sessions| {
        simulate_load(manifest, server, &LoadConfig { sessions, ..*base })
    })
}

/// [`edge_capacity_curve`] with its per-count shards on `pool` —
/// deterministic merge by count index, bit-identical to sequential.
#[must_use]
pub fn edge_capacity_curve_on(
    pool: &WorkerPool,
    manifest: &Manifest,
    tier: &EdgeTierConfig,
    counts: &[usize],
    base: &LoadConfig,
) -> Vec<EdgeLoadReport> {
    pool.map(counts, |&sessions| {
        simulate_edge_load(manifest, tier, &LoadConfig { sessions, ..*base })
    })
}

/// [`live_edge_capacity_curve`] with its per-count shards on `pool` —
/// deterministic merge by count index, bit-identical to sequential.
#[must_use]
pub fn live_edge_capacity_curve_on(
    pool: &WorkerPool,
    manifest: &Manifest,
    tier: &EdgeTierConfig,
    live: &LiveConfig,
    counts: &[usize],
    base: &LoadConfig,
) -> Vec<LiveEdgeLoadReport> {
    pool.map(counts, |&sessions| {
        simulate_live_edge_load(manifest, tier, live, &LoadConfig { sessions, ..*base })
    })
}

/// The degenerate-input guard the bisecting knees share: callers may
/// pass unsorted or duplicated population points (sweep configs are
/// often hand-edited); the search needs them strictly increasing.
fn bisect_counts(counts: &[usize]) -> Vec<usize> {
    let mut counts = counts.to_vec();
    counts.sort_unstable();
    counts.dedup();
    counts
}

/// Shared bisection over a sweep's session counts: the largest count
/// whose simulated stall fraction meets `tol`, probing O(log n) counts
/// instead of materialising the whole curve. Assumes stalling is
/// monotone in load — true of every BENCH sweep, and the tests pin
/// equality with the curve-scan knee there. `None` on an empty sweep
/// or when even the smallest count stalls.
fn knee_bisect(counts: &[usize], mut stalls: impl FnMut(usize) -> f64, tol: f64) -> Option<usize> {
    let counts = bisect_counts(counts);
    if counts.is_empty() || stalls(counts[0]) > tol {
        return None;
    }
    // Invariant: counts[lo] passes, everything above hi fails.
    let (mut lo, mut hi) = (0, counts.len() - 1);
    while lo < hi {
        let mid = lo + (hi - lo).div_ceil(2);
        if stalls(counts[mid]) <= tol {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    Some(counts[lo])
}

/// [`capacity_knee`] by bisection: simulates only the probed session
/// counts instead of the whole [`capacity_curve`]. Input counts may be
/// unsorted or contain duplicates.
#[must_use]
pub fn capacity_knee_bisect(
    manifest: &Manifest,
    server: &ServerConfig,
    counts: &[usize],
    base: &LoadConfig,
    stall_tolerance: f64,
) -> Option<usize> {
    knee_bisect(
        counts,
        |sessions| {
            simulate_load(manifest, server, &LoadConfig { sessions, ..*base }).rebuffer_fraction
        },
        stall_tolerance,
    )
}

/// [`edge_capacity_knee`] by bisection over an edge tier.
#[must_use]
pub fn edge_capacity_knee_bisect(
    manifest: &Manifest,
    tier: &EdgeTierConfig,
    counts: &[usize],
    base: &LoadConfig,
    stall_tolerance: f64,
) -> Option<usize> {
    knee_bisect(
        counts,
        |sessions| {
            simulate_edge_load(manifest, tier, &LoadConfig { sessions, ..*base })
                .load
                .rebuffer_fraction
        },
        stall_tolerance,
    )
}

/// [`live_edge_capacity_knee`] by bisection over a live edge tier.
#[must_use]
pub fn live_edge_capacity_knee_bisect(
    manifest: &Manifest,
    tier: &EdgeTierConfig,
    live: &LiveConfig,
    counts: &[usize],
    base: &LoadConfig,
    stall_tolerance: f64,
) -> Option<usize> {
    knee_bisect(
        counts,
        |sessions| {
            simulate_live_edge_load(manifest, tier, live, &LoadConfig { sessions, ..*base })
                .edge
                .load
                .rebuffer_fraction
        },
        stall_tolerance,
    )
}

/// Runs `load.sessions` across the full hierarchical CDN: viewers pick
/// titles by the catalog's Zipf law, shard onto edges, edge misses
/// coalesce behind the edge's home shield, and only *shield* misses
/// cross the true origin link. With `shields: 0` and a single-title
/// catalog this is [`simulate_edge_load`] bit-identically (the pins in
/// the tests hold it there).
#[must_use]
pub fn simulate_cdn_load(catalog: &Catalog, cdn: &CdnConfig, load: &LoadConfig) -> CdnLoadReport {
    run_cdn(
        catalog,
        load,
        TierParams::cdn(cdn).with_zipf(catalog.zipf_s),
    )
}

/// [`simulate_cdn_load`] for a live audience: the live gates apply to
/// title 0 (live catalogs are single-title — a live event *is* one
/// title), and the shield tier absorbs the per-edge thundering herd on
/// each just-published segment.
#[must_use]
pub fn simulate_live_cdn_load(
    catalog: &Catalog,
    cdn: &CdnConfig,
    live: &LiveConfig,
    load: &LoadConfig,
) -> CdnLoadReport {
    let p = TierParams::cdn(cdn)
        .with_live(live, catalog.title(0))
        .with_zipf(catalog.zipf_s);
    run_cdn(catalog, load, p)
}

/// [`simulate_cdn_load`] under a [`FaultPlan`]: shields crash and
/// restart alongside edges, with a crashed shield's child edges
/// failing over across the shield ring to survivors (and failing back
/// on restart).
#[must_use]
pub fn simulate_cdn_load_faulted(
    catalog: &Catalog,
    cdn: &CdnConfig,
    plan: &FaultPlan,
    load: &LoadConfig,
) -> CdnLoadReport {
    let p = TierParams::cdn(cdn)
        .with_zipf(catalog.zipf_s)
        .with_faults(plan);
    run_cdn(catalog, load, p)
}

/// The composed worst case through the full hierarchy: a live flash
/// crowd while an edge crashes, a shield crashes, and the origin flaps
/// — one deterministic run.
#[must_use]
pub fn simulate_live_cdn_load_faulted(
    catalog: &Catalog,
    cdn: &CdnConfig,
    live: &LiveConfig,
    plan: &FaultPlan,
    load: &LoadConfig,
) -> CdnLoadReport {
    let p = TierParams::cdn(cdn)
        .with_live(live, catalog.title(0))
        .with_zipf(catalog.zipf_s)
        .with_faults(plan);
    run_cdn(catalog, load, p)
}

/// [`edge_capacity_knee_bisect`] through the full hierarchy.
#[must_use]
pub fn cdn_capacity_knee_bisect(
    catalog: &Catalog,
    cdn: &CdnConfig,
    counts: &[usize],
    base: &LoadConfig,
    stall_tolerance: f64,
) -> Option<usize> {
    knee_bisect(
        counts,
        |sessions| {
            simulate_cdn_load(catalog, cdn, &LoadConfig { sessions, ..*base })
                .edge
                .load
                .rebuffer_fraction
        },
        stall_tolerance,
    )
}

/// The shared CDN run: degenerate guard, calendar run, rollup.
fn run_cdn(catalog: &Catalog, load: &LoadConfig, p: TierParams) -> CdnLoadReport {
    if p.degenerate(catalog.titles(), load) {
        return CdnLoadReport {
            edge: EdgeLoadReport {
                load: LoadReport::degenerate(load.population()),
                per_edge: Vec::new(),
                tier: EdgeStats::default(),
                hit_rate: 0.0,
                origin_offload: 0.0,
            },
            per_shield: Vec::new(),
            tier: TierStats::default(),
            origin_offload: 0.0,
            live: LiveStats::default(),
            resilience: ResilienceStats::default(),
        };
    }
    let run = crate::calendar::run_cohorts(catalog.titles(), load, &p);
    let per_shield: Vec<EdgeReportEntry> = run
        .shields
        .iter()
        .map(|s| EdgeReportEntry {
            sessions: s.assigned,
            stats: s.stats,
        })
        .collect();
    let per_edge_stats: Vec<EdgeStats> = run.edges.iter().map(|e| e.stats).collect();
    let per_shield_stats: Vec<EdgeStats> = per_shield.iter().map(|s| s.stats).collect();
    let tier = TierStats::rollup(&per_edge_stats, &per_shield_stats);
    CdnLoadReport {
        edge: assemble_edge_report(run.report, &run.edges),
        per_shield,
        origin_offload: tier.origin_offload(),
        tier,
        live: run.live,
        resilience: run.resilience,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ladder::{encode_ladder, LadderConfig};
    use video::synth::SequenceGen;

    fn manifest() -> Manifest {
        let frames = SequenceGen::new(44).panning_sequence(48, 32, 16, 1, 0);
        let cfg = LadderConfig {
            targets_bits_per_frame: vec![2_000.0, 6_000.0, 18_000.0],
            gop: 4,
            ..Default::default()
        };
        encode_ladder("movie", &frames, &cfg).unwrap().manifest
    }

    fn title_bytes(m: &Manifest) -> usize {
        m.rungs
            .iter()
            .flat_map(|r| r.segments.iter().map(|s| s.bytes))
            .sum()
    }

    /// Relative f64 closeness for report fields whose only permitted
    /// divergence is floating-point summation order.
    fn rel_close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-9 * b.abs().max(1.0)
    }

    /// Golden pins captured from the PR 5 full-scan quantum engine.
    /// Integer fields must match *exactly*; f64 fields to 1e-9 relative
    /// (they are sums whose order the cohort engine may legally change).
    /// Any engine change that shifts a completion tick, a rebuffer
    /// count, or an edge counter breaks these loudly.
    fn assert_golden(r: &LoadReport, g: &LoadReport) {
        assert_eq!(
            (
                r.sessions,
                r.completed,
                r.ticks,
                r.rebuffer_sessions,
                r.rung_switches,
                r.departed
            ),
            (
                g.sessions,
                g.completed,
                g.ticks,
                g.rebuffer_sessions,
                g.rung_switches,
                g.departed
            ),
            "integer report fields diverged: {r:?} vs {g:?}"
        );
        for (a, b) in [
            (r.total_goodput_bits_per_tick, g.total_goodput_bits_per_tick),
            (r.mean_session_bits_per_tick, g.mean_session_bits_per_tick),
            (r.mean_startup_ticks, g.mean_startup_ticks),
            (r.rebuffer_fraction, g.rebuffer_fraction),
            (r.mean_rung, g.mean_rung),
        ] {
            assert!(
                rel_close(a, b),
                "f64 report field diverged: {a} vs {b}\n{r:?}\n{g:?}"
            );
        }
    }

    #[test]
    fn golden_vod_report_matches_the_seed_engine() {
        let m = manifest();
        let r = simulate_load(
            &m,
            &ServerConfig::default(),
            &LoadConfig {
                sessions: 700,
                ..Default::default()
            },
        );
        assert_golden(
            &r,
            &LoadReport {
                sessions: 700,
                completed: 700,
                ticks: 1084,
                total_goodput_bits_per_tick: 30107.749077490775,
                mean_session_bits_per_tick: 456.0807901306719,
                mean_startup_ticks: 52.73,
                rebuffer_sessions: 0,
                rebuffer_fraction: 0.0,
                mean_rung: 1.5,
                rung_switches: 700,
                departed: 0,
            },
        );
    }

    #[test]
    fn golden_churned_edge_report_matches_the_seed_engine() {
        let m = manifest();
        let tier = EdgeTierConfig {
            edges: 3,
            prewarm: false,
            cache_capacity_bytes: title_bytes(&m) / 2,
            ..Default::default()
        };
        let load = LoadConfig {
            sessions: 200,
            churn: ChurnConfig {
                churn_sessions: 150,
                mean_interarrival_ticks: 300.0,
                mean_watch_ticks: 4_000.0,
                flash_sessions: 100,
                flash_at_tick: 20_000,
                flash_ramp_ticks: 5_000,
            },
            ..Default::default()
        };
        let r = simulate_edge_load(&m, &tier, &load);
        assert_golden(
            &r.load,
            &LoadReport {
                sessions: 450,
                completed: 447,
                ticks: 48996,
                total_goodput_bits_per_tick: 427.2015674748959,
                mean_session_bits_per_tick: 756.4441274993856,
                mean_startup_ticks: 29.56222222222222,
                rebuffer_sessions: 0,
                rebuffer_fraction: 0.0,
                mean_rung: 1.4988864142538976,
                rung_switches: 450,
                departed: 3,
            },
        );
        assert_eq!(
            r.tier,
            EdgeStats {
                hits: 1780,
                misses: 12,
                coalesced: 7,
                evictions: 0,
                revalidations: 0,
                invalidations: 0,
                origin_bytes: 17484,
                served_bytes: 2616396,
            }
        );
    }

    #[test]
    fn golden_live_report_matches_the_seed_engine() {
        let m = manifest();
        let live = LiveConfig {
            dvr_window_segments: 8,
            join: JoinMode::LiveEdge,
            ..Default::default()
        };
        let r = simulate_live_load(
            &m,
            &ServerConfig::default(),
            &live,
            &LoadConfig {
                sessions: 300,
                ..Default::default()
            },
        );
        assert_golden(
            &r.load,
            &LoadReport {
                sessions: 300,
                completed: 300,
                ticks: 1316,
                total_goodput_bits_per_tick: 7869.714285714285,
                mean_session_bits_per_tick: 43.79183931778799,
                mean_startup_ticks: 314.31666666666666,
                rebuffer_sessions: 0,
                rebuffer_fraction: 0.0,
                mean_rung: 1.3704092339979013,
                rung_switches: 300,
                departed: 0,
            },
        );
        assert!(rel_close(r.live.mean_latency_ticks, 131.77334732423924));
        assert_eq!(r.live.max_latency_ticks, 448);
        assert_eq!(r.live.publish_wait_ticks, 170520);
        assert_eq!(r.live.window_skips, 0);
    }

    #[test]
    fn iterated_and_analytic_completion_agree_at_ten_million_ticks() {
        // Pin for the f64 byte accounting behind parking: the iterated
        // drain (`rem -= per_quantum`, the hot loop) and the edge's
        // cumulative drain the wake predictor compares against must
        // agree on the completion quantum even after 2.5M subtractions
        // (10M ticks at quantum 4), where accumulated drift peaks. The
        // cohort parks, wakes when the predictor says it may complete
        // or after `PARK_WINDOW` quanta, and parks again, exactly as
        // the engine does; the cumulative drain starts from a large
        // offset so its rounding is coarse.
        use crate::calendar::{wake_level, PARK_WINDOW};
        for (bytes, per_quantum) in [
            (10_000.0f64, 0.004f64), // 2.5M quanta exactly on paper
            (9_999.7, 0.0041),       // non-representable fractions
            (123_456.78, 0.049),
            (7.0, 3.0), // tiny transfer, coarse quanta
        ] {
            for offset in [0.0f64, 1e9] {
                let eps = completion_eps(bytes);
                let mut rem = bytes;
                let mut drained = offset;
                let mut parked_at = 0u64;
                let mut level = wake_level(drained, rem, eps, per_quantum);
                let mut wakes = 0u64;
                let mut k = 0u64;
                loop {
                    k += 1;
                    rem -= per_quantum;
                    drained += per_quantum;
                    let woken = drained >= level || k - parked_at >= PARK_WINDOW;
                    if rem <= eps {
                        assert!(
                            woken,
                            "late wake: {bytes} B at {per_quantum} B/quantum completed \
                             at quantum {k} while parked"
                        );
                        break;
                    }
                    if woken {
                        wakes += 1;
                        parked_at = k;
                        level = wake_level(drained, rem, eps, per_quantum);
                    }
                }
                // Early wakes are the forced ones plus a sliver: the
                // predictor is no coarser than the window.
                assert!(
                    wakes <= k / PARK_WINDOW + 2,
                    "{wakes} wakes over {k} quanta"
                );
                // The drift the epsilon must absorb stays far inside it.
                let fused = bytes - k as f64 * per_quantum;
                assert!(
                    (rem - fused).abs() < eps / 100.0,
                    "accumulated drift {} vs eps {eps}",
                    (rem - fused).abs()
                );
            }
        }
    }

    #[test]
    fn ten_million_tick_run_completes_deterministically() {
        // Engine-level long-run pin: a starved session draining one
        // segment over millions of quanta neither wedges on the
        // epsilon rule nor drifts between runs. It stays parked
        // through nearly all of them, and its edge's drain log stays
        // a ring of `PARK_WINDOW` entries instead of one per quantum.
        let m = manifest();
        let server = ServerConfig {
            capacity_bytes_per_tick: 4_000.0,
            per_session_bytes_per_tick: 0.0003,
        };
        let load = LoadConfig {
            sessions: 1,
            stagger_ticks: 0,
            max_ticks: u64::MAX,
            ..Default::default()
        };
        let a = simulate_load(&m, &server, &load);
        assert_eq!(a.completed, 1, "the starved session still finishes");
        assert!(a.ticks > 10_000_000, "ran long: {}", a.ticks);
        assert_eq!(a, simulate_load(&m, &server, &load));
        let run = crate::calendar::run_cohorts(
            std::slice::from_ref(&m),
            &load,
            &TierParams::single_origin(&server),
        );
        assert_eq!(run.report, a);
        let quanta = a.ticks / load.tick_quantum;
        assert_eq!(
            run.cost.drain_log_len,
            crate::calendar::PARK_WINDOW as usize,
            "the log wraps, never grows past the window"
        );
        assert!(
            run.cost.touches < quanta / 100,
            "{} cohort touches over {quanta} quanta",
            run.cost.touches
        );
    }

    #[test]
    fn exhausted_churn_schedules_terminate_the_arrival_stream() {
        // A churn clock that saturates near `u64::MAX` used to leave
        // the un-scheduled arrivals counted as alive forever, spinning
        // the engine to `max_ticks`. Now the stream terminates
        // explicitly: the impossible arrivals become phantoms that
        // denominate the report but never simulate.
        let m = manifest();
        let load = LoadConfig {
            sessions: 40,
            churn: ChurnConfig {
                churn_sessions: 25,
                mean_interarrival_ticks: 1e300, // first gap saturates
                mean_watch_ticks: 100.0,
                ..Default::default()
            },
            ..Default::default()
        };
        let r = simulate_load(&m, &ServerConfig::default(), &load);
        assert_eq!(r.sessions, 65, "phantoms still denominate");
        assert_eq!(r.completed, 40, "the base population completes");
        assert_eq!(r.departed, 0);
        // The engine finished at the base population's pace instead of
        // spinning out the 10M-tick ceiling.
        assert!(r.ticks < 100_000, "terminated at {}", r.ticks);
        // Deterministic, like every other config.
        assert_eq!(r, simulate_load(&m, &ServerConfig::default(), &load));

        // A flash ramp pushed off the end of time is likewise phantom,
        // not frozen.
        let flashed = LoadConfig {
            churn: ChurnConfig {
                flash_sessions: 10,
                flash_at_tick: u64::MAX,
                flash_ramp_ticks: 0,
                ..Default::default()
            },
            ..load
        };
        let r = simulate_load(&m, &ServerConfig::default(), &flashed);
        assert_eq!(r.sessions, 50, "40 base + 10 phantom flash");
        assert_eq!(r.completed, 40);
        assert!(r.ticks < 100_000);
    }

    #[test]
    fn a_lone_session_reaches_the_top_rung() {
        let m = manifest();
        let r = simulate_load(
            &m,
            &ServerConfig::default(),
            &LoadConfig {
                sessions: 1,
                stagger_ticks: 0,
                ..Default::default()
            },
        );
        assert_eq!(r.completed, 1);
        assert_eq!(r.rebuffer_sessions, 0);
        assert!(r.mean_rung > 0.5, "mean rung {}", r.mean_rung);
    }

    #[test]
    fn oversubscription_degrades_quality_then_stability() {
        let m = manifest();
        let server = ServerConfig::default();
        let base = LoadConfig::default();
        let light = simulate_load(
            &m,
            &server,
            &LoadConfig {
                sessions: 8,
                ..base
            },
        );
        let heavy = simulate_load(
            &m,
            &server,
            &LoadConfig {
                sessions: 2_000,
                ..base
            },
        );
        assert_eq!(light.completed, 8);
        assert!(light.rebuffer_fraction <= 0.05);
        assert!(
            heavy.mean_rung < light.mean_rung,
            "overload must push sessions down the ladder: {} vs {}",
            heavy.mean_rung,
            light.mean_rung
        );
        assert!(
            heavy.mean_session_bits_per_tick < light.mean_session_bits_per_tick,
            "per-session delivered rate must fall past the knee"
        );
        assert!(heavy.rebuffer_fraction > light.rebuffer_fraction);
    }

    #[test]
    fn thousands_of_sessions_complete_and_knee_is_found() {
        let m = manifest();
        let server = ServerConfig::default();
        let base = LoadConfig::default();
        let counts = [50, 200, 1_000, 3_000];
        let curve = capacity_curve(&m, &server, &counts, &base);
        assert_eq!(curve.len(), 4);
        assert!(curve.iter().all(|r| r.completed == r.sessions));
        let knee = capacity_knee(&curve, 0.05);
        assert!(knee.is_some(), "some level must be sustainable");
        assert!(knee.unwrap() >= 50);
        // Server goodput saturates: the biggest level cannot beat the
        // uplink.
        let cap_bits = server.capacity_bytes_per_tick * 8.0;
        assert!(curve
            .iter()
            .all(|r| r.total_goodput_bits_per_tick <= cap_bits * 1.01));
    }

    #[test]
    fn simulation_is_deterministic() {
        let m = manifest();
        let server = ServerConfig::default();
        let load = LoadConfig {
            sessions: 500,
            ..Default::default()
        };
        let a = simulate_load(&m, &server, &load);
        let b = simulate_load(&m, &server, &load);
        assert_eq!(a, b);
    }

    #[test]
    fn stagger_spreads_startup_contention() {
        let m = manifest();
        let server = ServerConfig::default();
        let burst = simulate_load(
            &m,
            &server,
            &LoadConfig {
                sessions: 400,
                stagger_ticks: 0,
                ..Default::default()
            },
        );
        let spread = simulate_load(
            &m,
            &server,
            &LoadConfig {
                sessions: 400,
                stagger_ticks: 200_000,
                ..Default::default()
            },
        );
        assert!(
            spread.mean_startup_ticks <= burst.mean_startup_ticks,
            "arrival spreading should not worsen startup: {} vs {}",
            spread.mean_startup_ticks,
            burst.mean_startup_ticks
        );
    }

    #[test]
    fn degenerate_loads_return_well_defined_reports() {
        let m = manifest();
        // Empty session list.
        let r = simulate_load(
            &m,
            &ServerConfig::default(),
            &LoadConfig {
                sessions: 0,
                ..Default::default()
            },
        );
        assert_eq!(r, LoadReport::degenerate(0));
        assert_eq!(r.rebuffer_fraction, 0.0, "no NaN from 0/0");
        // Zero-capacity uplink: returns immediately, nothing delivered.
        let r = simulate_load(
            &m,
            &ServerConfig {
                capacity_bytes_per_tick: 0.0,
                per_session_bytes_per_tick: 100.0,
            },
            &LoadConfig::default(),
        );
        assert_eq!(r.completed, 0);
        assert_eq!(r.total_goodput_bits_per_tick, 0.0);
        // NaN capacity is degenerate, not a hang.
        let r = simulate_load(
            &m,
            &ServerConfig {
                capacity_bytes_per_tick: f64::NAN,
                per_session_bytes_per_tick: 100.0,
            },
            &LoadConfig::default(),
        );
        assert_eq!(r.completed, 0);
        // Knee over an empty curve.
        assert_eq!(capacity_knee(&[], 0.05), None);
        // Zero quantum is treated as 1, not a panic or an infinite loop.
        let r = simulate_load(
            &m,
            &ServerConfig::default(),
            &LoadConfig {
                sessions: 2,
                tick_quantum: 0,
                ..Default::default()
            },
        );
        assert_eq!(r.completed, 2);
    }

    #[test]
    fn warm_edges_multiply_the_knee() {
        let m = manifest();
        let base = LoadConfig::default();
        let counts = [200usize, 1_000, 2_000, 4_000];
        let single = capacity_curve(&m, &ServerConfig::default(), &counts, &base);
        let single_knee = capacity_knee(&single, 0.05).expect("single origin has a knee");
        let tier = EdgeTierConfig {
            edges: 4,
            cache_capacity_bytes: usize::MAX,
            prewarm: true,
            ..Default::default()
        };
        let edge = edge_capacity_curve(&m, &tier, &counts, &base);
        let edge_knee = edge_capacity_knee(&edge, 0.05).expect("edge tier has a knee");
        assert!(
            edge_knee >= 2 * single_knee,
            "4 warm edges must at least double the knee: {edge_knee} vs {single_knee}"
        );
        // Warm edges never touch the origin.
        assert!(edge.iter().all(|r| r.tier.origin_bytes == 0));
        assert!(edge.iter().all(|r| (r.hit_rate - 1.0).abs() < 1e-12));
    }

    #[test]
    fn one_warm_edge_matches_the_single_origin_exactly() {
        // The single-origin simulator is the 1-edge special case of the
        // same engine; the session-side numbers must agree bit-exactly.
        let m = manifest();
        let load = LoadConfig {
            sessions: 700,
            ..Default::default()
        };
        let single = simulate_load(&m, &ServerConfig::default(), &load);
        let tier = EdgeTierConfig {
            edges: 1,
            cache_capacity_bytes: usize::MAX,
            edge_capacity_bytes_per_tick: 4_000.0,
            per_session_bytes_per_tick: 100.0,
            prewarm: true,
            ..Default::default()
        };
        let edge = simulate_edge_load(&m, &tier, &load);
        assert_eq!(edge.load, single);
    }

    #[test]
    fn cold_edges_fill_once_and_then_offload() {
        let m = manifest();
        let tier = EdgeTierConfig {
            edges: 2,
            cache_capacity_bytes: usize::MAX,
            prewarm: false,
            ..Default::default()
        };
        let load = LoadConfig {
            sessions: 300,
            ..Default::default()
        };
        let r = simulate_edge_load(&m, &tier, &load);
        assert_eq!(r.load.completed, 300);
        assert!(r.tier.misses > 0, "cold caches must miss");
        assert!(
            r.tier.hits > r.tier.misses,
            "reuse must dominate: {} hits vs {} misses",
            r.tier.hits,
            r.tier.misses
        );
        // Every distinct object crosses the origin link at most a
        // handful of times (refills after eviction are impossible with
        // unbounded caches, so it is exactly once per edge per object).
        let objects = (m.rungs.len() * m.segment_count()) as u64;
        assert!(r.tier.misses <= objects * tier.edges as u64);
        assert!(r.origin_offload > 0.5, "offload {}", r.origin_offload);
        assert_eq!(
            r.per_edge.iter().map(|e| e.sessions).sum::<usize>(),
            load.sessions
        );
    }

    #[test]
    fn coalescing_collapses_concurrent_misses() {
        let m = manifest();
        let tier = EdgeTierConfig {
            edges: 1,
            prewarm: false,
            ..Default::default()
        };
        // A burst of simultaneous arrivals all wanting segment (0, 0).
        let load = LoadConfig {
            sessions: 200,
            stagger_ticks: 0,
            ..Default::default()
        };
        let r = simulate_edge_load(&m, &tier, &load);
        assert!(
            r.tier.coalesced >= 199,
            "the burst must coalesce onto one fill: {}",
            r.tier.coalesced
        );
        assert_eq!(r.load.completed, 200);
    }

    #[test]
    fn tiny_caches_thrash_but_still_serve() {
        let m = manifest();
        let small = title_bytes(&m) / 8;
        let tier = EdgeTierConfig {
            edges: 2,
            cache_capacity_bytes: small,
            prewarm: false,
            ..Default::default()
        };
        let load = LoadConfig {
            sessions: 150,
            ..Default::default()
        };
        let r = simulate_edge_load(&m, &tier, &load);
        assert_eq!(r.load.completed, 150, "thrashing must not wedge sessions");
        assert!(r.tier.evictions > 0, "a small cache must evict");
        let big = simulate_edge_load(
            &m,
            &EdgeTierConfig {
                cache_capacity_bytes: usize::MAX,
                ..tier
            },
            &load,
        );
        assert!(
            big.hit_rate >= r.hit_rate,
            "more cache cannot hit less: {} vs {}",
            big.hit_rate,
            r.hit_rate
        );
    }

    #[test]
    fn origin_outage_with_cold_caches_terminates_cleanly() {
        let m = manifest();
        let tier = EdgeTierConfig {
            edges: 2,
            prewarm: false,
            origin_down_after: Some(0),
            ..Default::default()
        };
        let load = LoadConfig {
            sessions: 50,
            ..Default::default()
        };
        // Nothing can ever be served; the engine must detect stasis and
        // return instead of spinning to max_ticks.
        let r = simulate_edge_load(&m, &tier, &load);
        assert_eq!(r.load.completed, 0);
        assert!(r.load.ticks < load.max_ticks);
    }

    #[test]
    fn origin_outage_with_warm_caches_is_invisible() {
        let m = manifest();
        let load = LoadConfig {
            sessions: 400,
            ..Default::default()
        };
        let up = simulate_edge_load(
            &m,
            &EdgeTierConfig {
                prewarm: true,
                origin_down_after: None,
                ..Default::default()
            },
            &load,
        );
        let down = simulate_edge_load(
            &m,
            &EdgeTierConfig {
                prewarm: true,
                origin_down_after: Some(0),
                ..Default::default()
            },
            &load,
        );
        assert_eq!(up, down, "warm edges never need the origin");
        assert_eq!(down.load.completed, 400);
    }

    #[test]
    fn hash_sharding_completes_and_spreads() {
        let m = manifest();
        let tier = EdgeTierConfig {
            edges: 4,
            sharding: Sharding::Hash,
            ..Default::default()
        };
        let load = LoadConfig {
            sessions: 800,
            ..Default::default()
        };
        let r = simulate_edge_load(&m, &tier, &load);
        assert_eq!(r.load.completed, 800);
        assert!(
            r.per_edge.iter().all(|e| e.sessions > 100),
            "hash sharding should not starve an edge: {:?}",
            r.per_edge.iter().map(|e| e.sessions).collect::<Vec<_>>()
        );
    }

    #[test]
    fn edge_simulation_is_deterministic() {
        let m = manifest();
        let tier = EdgeTierConfig {
            edges: 3,
            prewarm: false,
            cache_capacity_bytes: title_bytes(&m) / 2,
            ..Default::default()
        };
        let load = LoadConfig {
            sessions: 500,
            ..Default::default()
        };
        let a = simulate_edge_load(&m, &tier, &load);
        let b = simulate_edge_load(&m, &tier, &load);
        assert_eq!(a, b);
    }

    #[test]
    fn zero_churn_infinite_dvr_live_equals_vod_exactly() {
        // The acceptance pin: with an infinite DVR window, a head start
        // covering the whole title, DvrStart joins, and zero churn,
        // every live gate is vacuous and the live simulator must
        // reproduce the VOD report *bit-identically*.
        let m = manifest();
        let server = ServerConfig::default();
        let load = LoadConfig {
            sessions: 700,
            ..Default::default()
        };
        let live = LiveConfig {
            ticks_per_segment: 0, // natural pace (irrelevant here)
            dvr_window_segments: u64::MAX,
            head_start_segments: m.segment_count() as u64 - 1,
            join: JoinMode::DvrStart,
        };
        let vod = simulate_load(&m, &server, &load);
        let live_run = simulate_live_load(&m, &server, &live, &load);
        assert_eq!(
            live_run.load, vod,
            "vacuous live gates must not perturb VOD"
        );
        assert_eq!(live_run.live.publish_wait_ticks, 0);
        assert_eq!(live_run.live.window_skips, 0);
    }

    #[test]
    fn neutral_churn_knobs_are_the_static_population() {
        // Non-zero means with zero churn/flash sessions draw nothing
        // from the RNG: the static population, bit-identical.
        let m = manifest();
        let tier = EdgeTierConfig::default();
        let base = LoadConfig {
            sessions: 400,
            ..Default::default()
        };
        let with_knobs = LoadConfig {
            churn: ChurnConfig {
                churn_sessions: 0,
                mean_interarrival_ticks: 123.0,
                mean_watch_ticks: 55.0,
                flash_sessions: 0,
                flash_at_tick: 9,
                flash_ramp_ticks: 7,
            },
            ..base
        };
        assert_eq!(
            simulate_edge_load(&m, &tier, &base),
            simulate_edge_load(&m, &tier, &with_knobs)
        );
    }

    #[test]
    fn churn_arrivals_and_departures_are_deterministic() {
        let m = manifest();
        let tier = EdgeTierConfig {
            edges: 3,
            prewarm: false,
            cache_capacity_bytes: title_bytes(&m) / 2,
            ..Default::default()
        };
        let load = LoadConfig {
            sessions: 200,
            churn: ChurnConfig {
                churn_sessions: 150,
                mean_interarrival_ticks: 300.0,
                mean_watch_ticks: 4_000.0,
                flash_sessions: 100,
                flash_at_tick: 20_000,
                flash_ramp_ticks: 5_000,
            },
            ..Default::default()
        };
        let a = simulate_edge_load(&m, &tier, &load);
        let b = simulate_edge_load(&m, &tier, &load);
        assert_eq!(a, b, "churn must be seed-deterministic");
        // The population is the base plus every churn and flash extra.
        assert_eq!(a.load.sessions, 200 + 150 + 100);
        // Short watch times force early departures.
        assert!(a.load.departed > 0, "some churn viewers must leave early");
        assert_eq!(
            a.load.completed + a.load.departed,
            a.load.sessions,
            "every session either finishes or departs (none wedge)"
        );
        // A different seed produces a different process.
        let other = simulate_edge_load(&m, &tier, &LoadConfig { seed: 99, ..load });
        assert_ne!(a, other);
    }

    #[test]
    fn flash_crowd_pushes_a_single_origin_past_its_knee() {
        let m = manifest();
        let server = ServerConfig::default();
        let calm = LoadConfig {
            sessions: 300,
            stagger_ticks: 10_000,
            ..Default::default()
        };
        let flashed = LoadConfig {
            churn: ChurnConfig {
                flash_sessions: 3_000,
                flash_at_tick: 20_000,
                flash_ramp_ticks: 1_000,
                ..Default::default()
            },
            ..calm
        };
        let before = simulate_load(&m, &server, &calm);
        let after = simulate_load(&m, &server, &flashed);
        assert!(before.rebuffer_fraction <= 0.05, "baseline is comfortable");
        assert!(
            after.rebuffer_fraction > 0.05,
            "a 10x flash crowd must drive one origin past its knee: {}",
            after.rebuffer_fraction
        );
    }

    #[test]
    fn live_edge_sessions_pace_with_the_publish_clock() {
        let m = manifest();
        let live = LiveConfig {
            dvr_window_segments: u64::MAX,
            ..Default::default() // LiveEdge join, fresh channel
        };
        let load = LoadConfig {
            sessions: 20,
            stagger_ticks: 200,
            ..Default::default()
        };
        let r = simulate_live_load(&m, &ServerConfig::default(), &live, &load);
        assert_eq!(r.load.completed, 20, "every live viewer reaches the end");
        assert!(
            r.live.publish_wait_ticks > 0,
            "live-edge viewers must block on unpublished segments"
        );
        // Fetch-after-publish keeps latency within a couple of segment
        // durations (tps = 4 frames x 100 ticks = 400 here).
        assert!(
            r.live.mean_latency_ticks < 800.0,
            "live latency ran away: {}",
            r.live.mean_latency_ticks
        );
        assert!(
            r.live.window_skips == 0,
            "nothing expires with infinite DVR"
        );
    }

    #[test]
    fn shallow_dvr_window_skips_slow_live_sessions_forward() {
        let m = manifest();
        // Viewers slower than the publish pace: segments expire under
        // them and they must skip forward instead of wedging.
        let live = LiveConfig {
            ticks_per_segment: 8,
            dvr_window_segments: 1,
            head_start_segments: 0,
            join: JoinMode::DvrStart,
        };
        let load = LoadConfig {
            sessions: 30,
            stagger_ticks: 0,
            ..Default::default()
        };
        let r = simulate_live_load(&m, &ServerConfig::default(), &live, &load);
        assert!(
            r.live.window_skips > 0,
            "a 1-deep window at a hot pace must expire segments"
        );
        assert_eq!(
            r.load.completed, 30,
            "skipping forward must still reach the live end"
        );
        assert!(r.load.ticks < load.max_ticks);
    }

    #[test]
    fn live_edge_miss_storm_coalesces_into_one_fill_per_segment() {
        let m = manifest();
        let tier = EdgeTierConfig {
            edges: 1,
            prewarm: false,
            ..Default::default()
        };
        let live = LiveConfig {
            dvr_window_segments: u64::MAX,
            ..Default::default()
        };
        // A burst of simultaneous live-edge joins: every new publish is
        // a miss for everyone at once — the thundering-herd case.
        let load = LoadConfig {
            sessions: 300,
            stagger_ticks: 0,
            ..Default::default()
        };
        let r = simulate_live_edge_load(&m, &tier, &live, &load);
        assert_eq!(r.edge.load.completed, 300);
        assert!(
            r.edge.tier.misses <= (m.rungs.len() * m.segment_count()) as u64,
            "each (rung, segment) fills at most once: {} misses",
            r.edge.tier.misses
        );
        assert!(
            r.edge.tier.coalesced > 0,
            "the storm must coalesce onto in-flight fills"
        );
    }

    #[test]
    fn live_dvr_expiry_invalidates_edge_caches() {
        let m = manifest();
        let tier = EdgeTierConfig {
            edges: 2,
            prewarm: false,
            ..Default::default()
        };
        let live = LiveConfig {
            ticks_per_segment: 400,
            dvr_window_segments: 1,
            head_start_segments: 0,
            join: JoinMode::DvrStart,
        };
        let load = LoadConfig {
            sessions: 60,
            stagger_ticks: 0,
            ..Default::default()
        };
        let r = simulate_live_edge_load(&m, &tier, &live, &load);
        assert!(
            r.edge.tier.invalidations > 0,
            "window expiry must purge cached segments"
        );
        assert_eq!(
            r.edge.tier.evictions, 0,
            "purges are not capacity evictions"
        );
    }

    #[test]
    fn live_simulation_is_deterministic() {
        let m = manifest();
        let tier = EdgeTierConfig {
            edges: 2,
            prewarm: false,
            ..Default::default()
        };
        let live = LiveConfig::default();
        let load = LoadConfig {
            sessions: 250,
            churn: ChurnConfig {
                churn_sessions: 50,
                mean_interarrival_ticks: 200.0,
                mean_watch_ticks: 3_000.0,
                ..Default::default()
            },
            ..Default::default()
        };
        let a = simulate_live_edge_load(&m, &tier, &live, &load);
        let b = simulate_live_edge_load(&m, &tier, &live, &load);
        assert_eq!(a, b);
    }

    #[test]
    fn knee_is_invariant_under_curve_permutation() {
        // The knee is a max over a filtered set: the order sessions
        // (and their reports) arrive in must not matter.
        let m = manifest();
        let tier = EdgeTierConfig::default();
        let counts = [50usize, 400, 1_200, 2_400];
        let base = LoadConfig::default();
        let mut curve = edge_capacity_curve(&m, &tier, &counts, &base);
        let knee = edge_capacity_knee(&curve, 0.05);
        assert!(knee.is_some());
        curve.reverse();
        assert_eq!(edge_capacity_knee(&curve, 0.05), knee);
        curve.rotate_left(1);
        assert_eq!(edge_capacity_knee(&curve, 0.05), knee);
    }

    #[test]
    fn bisecting_knee_equals_the_curve_scan_on_capacity_sweeps() {
        // The bisect probes O(log n) counts; on the monotone sweeps the
        // BENCH tables use it must land on exactly the curve-scan knee
        // — for the single-origin, edge-tier, and live shapes alike.
        let m = manifest();
        let base = LoadConfig::default();
        let counts = [50usize, 200, 400, 800, 1_600, 3_200];
        let server = ServerConfig::default();
        let scan = capacity_knee(&capacity_curve(&m, &server, &counts, &base), 0.05);
        assert!(scan.is_some());
        assert_eq!(
            capacity_knee_bisect(&m, &server, &counts, &base, 0.05),
            scan
        );

        let tier = EdgeTierConfig::default();
        let scan = edge_capacity_knee(&edge_capacity_curve(&m, &tier, &counts, &base), 0.05);
        assert!(scan.is_some());
        assert_eq!(
            edge_capacity_knee_bisect(&m, &tier, &counts, &base, 0.05),
            scan
        );

        let live = LiveConfig::default();
        let scan = live_edge_capacity_knee(
            &live_edge_capacity_curve(&m, &tier, &live, &counts, &base),
            0.05,
        );
        assert_eq!(
            live_edge_capacity_knee_bisect(&m, &tier, &live, &counts, &base, 0.05),
            scan
        );
    }

    #[test]
    fn bisecting_knee_guards_degenerate_count_inputs() {
        // Unsorted and duplicated population points (hand-edited sweep
        // configs) must give the same knee as the clean sweep; empty
        // and all-stalling sweeps answer `None`.
        let m = manifest();
        let base = LoadConfig::default();
        let tier = EdgeTierConfig::default();
        let clean = edge_capacity_knee_bisect(&m, &tier, &[200, 800, 3_200], &base, 0.05);
        assert!(clean.is_some());
        let messy = [3_200usize, 200, 800, 200, 3_200, 800, 800];
        assert_eq!(
            edge_capacity_knee_bisect(&m, &tier, &messy, &base, 0.05),
            clean
        );
        assert_eq!(edge_capacity_knee_bisect(&m, &tier, &[], &base, 0.05), None);
        // Even the smallest count stalls on a starved tier.
        let starved = EdgeTierConfig {
            edge_capacity_bytes_per_tick: 1.0,
            ..Default::default()
        };
        assert_eq!(
            edge_capacity_knee_bisect(&m, &starved, &[400, 800], &base, 0.05),
            None
        );
    }

    #[test]
    fn degenerate_live_configs_return_well_defined_reports() {
        let m = manifest();
        let load = LoadConfig::default();
        // A zero DVR window can never publish anything fetchable.
        let r = simulate_live_load(
            &m,
            &ServerConfig::default(),
            &LiveConfig {
                dvr_window_segments: 0,
                ..Default::default()
            },
            &load,
        );
        assert_eq!(r.load, LoadReport::degenerate(load.population()));
        assert_eq!(r.live, LiveStats::default());
        assert_eq!(live_edge_capacity_knee(&[], 0.05), None);
    }

    #[test]
    fn degenerate_reports_denominate_on_the_whole_population() {
        // A degenerate run must report the same population a healthy
        // run would have created (base + churn + flash), so capacity
        // curves stay comparable level to level.
        let m = manifest();
        let load = LoadConfig {
            sessions: 3,
            churn: ChurnConfig {
                churn_sessions: 5,
                flash_sessions: 7,
                ..Default::default()
            },
            ..Default::default()
        };
        let r = simulate_live_load(
            &m,
            &ServerConfig {
                capacity_bytes_per_tick: f64::NAN,
                per_session_bytes_per_tick: 100.0,
            },
            &LiveConfig::default(),
            &load,
        );
        assert_eq!(r.load.sessions, 15, "3 base + 5 churn + 7 flash");
        assert_eq!(r.load.completed, 0);
    }

    #[test]
    fn degenerate_edge_tiers_return_well_defined_reports() {
        let m = manifest();
        let load = LoadConfig::default();
        let zero_edges = simulate_edge_load(
            &m,
            &EdgeTierConfig {
                edges: 0,
                ..Default::default()
            },
            &load,
        );
        assert_eq!(zero_edges.load, LoadReport::degenerate(load.population()));
        assert!(zero_edges.per_edge.is_empty());
        assert_eq!(edge_capacity_knee(&[], 0.05), None);
    }

    #[test]
    fn crashing_every_edge_forever_terminates_cleanly_degraded() {
        // The degenerate fault plan: all edges die early and never
        // restart. Nothing can ever move a byte again, so the run must
        // terminate with a clean degraded report — not trip the stasis
        // detector into a panic, and not spin to `max_ticks`.
        let m = manifest();
        let tier = EdgeTierConfig {
            edges: 2,
            ..Default::default()
        };
        let plan = FaultPlan::new(9)
            .crash_edge(0, 200, None)
            .crash_edge(1, 200, None);
        let load = LoadConfig {
            sessions: 300,
            ..Default::default()
        };
        let r = simulate_edge_load_faulted(&m, &tier, &plan, &load);
        assert_eq!(r.resilience.edge_crashes, 2);
        assert_eq!(r.resilience.edge_restarts, 0);
        assert_eq!(r.resilience.mean_restore_ticks, 0.0);
        assert!(
            r.edge.load.completed < r.edge.load.sessions,
            "a tier with no edges left cannot complete everyone"
        );
        assert!(
            r.edge.load.ticks < load.max_ticks / 100,
            "the dead tier must terminate promptly, not spin: {}",
            r.edge.load.ticks
        );
    }

    #[test]
    fn crash_and_restart_fail_over_and_fail_back() {
        use crate::fault::RestartMode;

        // One of two edges dies mid-run and comes back cold: sessions
        // must fail over (re-home), the restart must land in the MTTR
        // ledger, and the cold cache must trigger re-warm fills. The
        // run still completes everyone — that is what failover buys.
        let m = manifest();
        let tier = EdgeTierConfig {
            edges: 2,
            prewarm: true,
            ..Default::default()
        };
        let plan = FaultPlan::new(5).crash_edge(0, 300, Some((900, RestartMode::Cold)));
        let load = LoadConfig {
            sessions: 400,
            ..Default::default()
        };
        let r = simulate_edge_load_faulted(&m, &tier, &plan, &load);
        assert_eq!(r.resilience.edge_crashes, 1);
        assert_eq!(r.resilience.edge_restarts, 1);
        assert_eq!(r.resilience.mean_restore_ticks, 600.0);
        assert!(
            r.resilience.sessions_rehomed > 0,
            "the crashed edge's sessions must move to the survivor"
        );
        assert_eq!(
            r.edge.load.completed, r.edge.load.sessions,
            "failover must carry every session through the crash"
        );
    }
}

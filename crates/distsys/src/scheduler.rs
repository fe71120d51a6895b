//! The sharded discrete-event simulation core.
//!
//! This is the crate's one simulator: [`ShardedSim`] schedules onto an
//! [`EventQueue`] and is the only caller of [`EventQueue::run`]. Client
//! populations on one or many shards run here, and so does the
//! single-client session of Figure 1/2, which
//! [`run_session`](crate::session::run_session) replays as a
//! one-client, one-request run. The catalog is partitioned across `N`
//! server shards ([`ShardMap`]), each with its own FIFO retrieval queue
//! and service channel, serving a population of browsing clients.
//!
//! The paper's single shared channel is exactly the `shards = 1` special
//! case: there is no separate shared-channel simulation, and the facade's
//! `multi-client:<clients>` backend spec builds `sharded:1x<clients>:hash`.
//!
//! Per-shard queue depth, utilisation and stall-time histograms come back
//! in a [`ShardReport`], making contention visible shard by shard — the
//! measurement the Section-6 network-usage discussion calls for once
//! capacity stops being a single queue.

use crate::engine::EventQueue;
use crate::faults::{FaultPlan, FaultSpec};
use crate::stats::{AccessStats, Histogram};
use obs::EpochMark;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::fmt;
use std::ops::ControlFlow;

// ---------------------------------------------------------------------
// Shard placement.
// ---------------------------------------------------------------------

/// How catalog items are partitioned across server shards.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Placement {
    /// Items are spread by a mixing hash of their id (load-balancing,
    /// order-destroying — the default).
    #[default]
    Hash,
    /// Contiguous id ranges: shard `k` holds items
    /// `[k·n/N, (k+1)·n/N)` — the locality-preserving layout.
    Range,
    /// The first `hot_items` ids live on a dedicated shard 0 (the "hot"
    /// store); the remaining cold items are hashed across shards
    /// `1..N`. With a single shard everything collapses onto it.
    HotCold {
        /// Number of leading item ids pinned to the hot shard.
        hot_items: usize,
    },
}

impl Placement {
    /// Parses the canonical placement syntax: `hash`, `range`, or
    /// `hot-cold@<hot_items>` (e.g. `hot-cold@8`). The inverse of the
    /// [`Display`](fmt::Display) rendering.
    pub fn parse(text: &str) -> Option<Placement> {
        match text.trim() {
            "hash" => Some(Placement::Hash),
            "range" => Some(Placement::Range),
            other => {
                let hot = other.strip_prefix("hot-cold@")?;
                Some(Placement::HotCold {
                    hot_items: hot.parse().ok()?,
                })
            }
        }
    }
}

/// Canonical spec syntax: `hash`, `range`, `hot-cold@<hot_items>` —
/// round-trips through [`Placement::parse`].
impl fmt::Display for Placement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Placement::Hash => f.write_str("hash"),
            Placement::Range => f.write_str("range"),
            Placement::HotCold { hot_items } => write!(f, "hot-cold@{hot_items}"),
        }
    }
}

/// SplitMix64 finaliser: a cheap, well-mixed item-id hash (shared with
/// the fault layer's seed-derived service spread).
pub(crate) fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A total map from catalog items to server shards.
///
/// Every item maps to exactly one shard in `0..shards`, whatever the
/// strategy — the property tests pin this down.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardMap {
    shards: usize,
    n_items: usize,
    placement: Placement,
}

impl ShardMap {
    /// Builds a map over `n_items` items and `shards` shards.
    ///
    /// # Panics
    /// Panics when `shards == 0`.
    pub fn new(shards: usize, n_items: usize, placement: Placement) -> Self {
        assert!(shards >= 1, "need at least one shard");
        Self {
            shards,
            n_items,
            placement,
        }
    }

    /// Number of shards.
    #[inline]
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Number of catalog items.
    #[inline]
    pub fn n_items(&self) -> usize {
        self.n_items
    }

    /// The placement strategy.
    #[inline]
    pub fn placement(&self) -> Placement {
        self.placement
    }

    /// The shard holding `item` — always in `0..shards`.
    ///
    /// With a single shard the partition is trivial and every placement
    /// collapses to the constant map — the explicit early return below,
    /// not a property of the strategy arms (`hot-cold`'s cold arm would
    /// otherwise divide by `shards - 1 == 0`). Pinned against `hash`
    /// across the `hot-cold` boundary thresholds in
    /// `tests/scenario_file_props.rs`.
    ///
    /// # Panics
    /// Panics when `item` is outside the catalog.
    pub fn shard_of(&self, item: usize) -> usize {
        assert!(item < self.n_items, "item {item} outside the catalog");
        if self.shards == 1 {
            return 0;
        }
        match self.placement {
            Placement::Hash => (mix(item as u64) % self.shards as u64) as usize,
            Placement::Range => item * self.shards / self.n_items,
            Placement::HotCold { hot_items } => {
                if item < hot_items {
                    0
                } else {
                    1 + (mix(item as u64) % (self.shards as u64 - 1)) as usize
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Client-side traits (shared by every population run).
// ---------------------------------------------------------------------

/// Per-client prefetch driver supplied by the harness.
pub trait ClientPolicy {
    /// Plan the prefetch list for the coming round.
    ///
    /// `state` is the client's current item (Markov state); the returned
    /// list is issued to the owning shards in order.
    fn plan(&mut self, client: usize, state: usize) -> Vec<usize>;

    /// Appends the plan for the coming round to `out` instead of
    /// allocating a fresh `Vec` — the event loop's steady-state entry
    /// point (`out` arrives cleared). The default delegates to
    /// [`plan`](Self::plan); policies holding memoised plans override
    /// it to copy from the cache allocation-free.
    fn plan_into(&mut self, client: usize, state: usize, out: &mut Vec<usize>) {
        out.extend_from_slice(&self.plan(client, state));
    }
}

impl<F> ClientPolicy for F
where
    F: FnMut(usize, usize) -> Vec<usize>,
{
    fn plan(&mut self, client: usize, state: usize) -> Vec<usize> {
        self(client, state)
    }
}

/// The workload a client follows.
pub trait ClientWorkload {
    /// Viewing time in the given state.
    fn viewing(&self, state: usize) -> f64;
    /// Sample the next request from the given state.
    fn next(&self, state: usize, rng: &mut SmallRng) -> usize;
    /// Number of items.
    fn n_items(&self) -> usize;
}

/// What a queued transfer is for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobKind {
    /// Speculative prefetch.
    Prefetch,
    /// Demand fetch for a waiting user.
    Demand,
}

// ---------------------------------------------------------------------
// The sharded simulation.
// ---------------------------------------------------------------------

/// A transfer job on a shard's channel.
///
/// Clients, items and rounds are `u32` arena indices, keeping the job
/// records the event loop moves around at 24 bytes.
#[derive(Debug, Clone, Copy)]
struct Job {
    client: u32,
    item: u32,
    kind: JobKind,
    /// Round in which the job was issued (stale prefetches of older
    /// rounds still occupy the channel but no longer satisfy requests).
    round: u32,
    duration: f64,
}

/// Event payload of the sharded system. `u32` indices keep the
/// scheduled event records small — the event queue shuffles millions of
/// them per second.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Ev {
    /// Client finished viewing and requests its next item.
    Request(u32),
    /// A shard finished the job at the head of its channel.
    JobDone(u32),
}

/// What a recorded [`SimEvent`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A client's viewing ended and it requested the item.
    Request,
    /// The request was satisfied.
    Served,
    /// A transfer started on the shard's channel.
    TransferStart(JobKind),
    /// A transfer finished on the shard's channel.
    TransferDone(JobKind),
}

/// One entry of the mechanistic event log ([`ShardedSim::run_traced`]).
///
/// The workspace tests compare these logs to assert that the `shards =
/// 1` system reproduces the legacy shared-channel backend event for
/// event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimEvent {
    /// Simulation time of the event.
    pub at: f64,
    /// Client involved.
    pub client: usize,
    /// Shard involved (the item's owner).
    pub shard: usize,
    /// Catalog item involved.
    pub item: usize,
    /// What happened.
    pub kind: EventKind,
}

/// Per-shard measurements of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardStats {
    /// Shard index.
    pub shard: usize,
    /// Transfers started on this shard's channel.
    pub jobs: u64,
    /// Time the channel spent transferring.
    pub busy_time: f64,
    /// Fraction of the simulated span the channel was busy.
    pub utilisation: f64,
    /// Mean queue depth sampled at job completions.
    pub mean_queue_depth: f64,
    /// Deepest the retrieval queue ever got.
    pub max_queue_depth: usize,
    /// Total transfer time issued to this shard.
    pub total_transfer: f64,
    /// Scheduled outage time overlapping the simulated span (from the
    /// materialised fault plan; `0.0` on unfaulted runs).
    pub outage_time: f64,
    /// Total admission delay outage windows imposed on this shard's
    /// job starts (`0.0` on unfaulted runs) — the outage-aware half of
    /// the stall accounting: stalls measured during a window include
    /// this wait, and this field attributes it to the fault rather
    /// than to queueing.
    pub outage_delay: f64,
    /// Service-duration multiplier applied to this shard (slow links x
    /// heterogeneous spread; exactly `1.0` when unfaulted).
    pub service_scale: f64,
    /// Histogram of request stall times attributed to this shard.
    pub stalls: Histogram,
}

/// Aggregate + per-shard outcome of a sharded run.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardReport {
    /// Access-time summary over all served requests (the common stats
    /// block every backend reports).
    pub access: AccessStats,
    /// Mean utilisation across shard channels.
    pub utilisation: f64,
    /// Total transfer time spent on prefetches that did not serve their
    /// round's request.
    pub wasted_transfer: f64,
    /// Total transfer time spent overall.
    pub total_transfer: f64,
    /// Per-shard measurements, indexed by shard.
    pub shards: Vec<ShardStats>,
}

impl ShardReport {
    /// Mean access (stall) time per request.
    #[inline]
    pub fn mean_access_time(&self) -> f64 {
        self.access.mean
    }

    /// Requests served.
    #[inline]
    pub fn requests(&self) -> u64 {
        self.access.count
    }
}

/// Configuration of a sharded multi-client simulation: the catalog is
/// partitioned across `shards` server shards (each with its own FIFO
/// channel), serving `clients` independent browsing clients.
///
/// With `shards = 1` this **is** the paper's shared-channel system
/// (every prefetch queues ahead of every other client's traffic); more
/// shards split the catalog — and therefore the contention — across
/// independent channels.
pub struct ShardedSim<'a, W: ClientWorkload> {
    /// Shared workload definition (per-state viewing and transitions).
    pub workload: &'a W,
    /// Retrieval time of each item on its shard's channel.
    pub retrievals: &'a [f64],
    /// Number of clients.
    pub clients: usize,
    /// Number of server shards.
    pub shards: usize,
    /// How items are placed on shards.
    pub placement: Placement,
    /// Requests to serve per client.
    pub requests_per_client: u64,
    /// Root seed.
    pub seed: u64,
    /// Optional fault injection (outage windows, slow links,
    /// heterogeneous service times), materialised against this sim's
    /// shard count and seed.
    pub faults: Option<&'a FaultSpec>,
}

/// Scheduling state of one shard channel — its FIFO queue, the job in
/// service and the channel clock — kept as one record per shard so the
/// idle check, the queue head and the busy horizon a start-pass touch
/// reads sit on the same one or two cache lines. Measurement counters
/// live beside it, one [`ChannelStats`] per shard.
struct Lane {
    queue: VecDeque<Job>,
    in_service: Option<Job>,
    busy_until: f64,
}

/// Measurement accumulator of one shard channel.
#[derive(Debug, Clone, PartialEq)]
struct ChannelStats {
    jobs: u64,
    busy_time: f64,
    total_transfer: f64,
    queue_len_sum: f64,
    queue_samples: u64,
    max_queue_depth: usize,
    outage_delay: f64,
    stalls: Histogram,
}

impl ChannelStats {
    fn new() -> Self {
        Self {
            jobs: 0,
            busy_time: 0.0,
            total_transfer: 0.0,
            queue_len_sum: 0.0,
            queue_samples: 0,
            max_queue_depth: 0,
            outage_delay: 0.0,
            stalls: Histogram::stalls(),
        }
    }

    fn queued(&mut self, depth: usize) {
        self.max_queue_depth = self.max_queue_depth.max(depth);
    }

    fn started(&mut self, duration: f64) {
        self.busy_time += duration;
        self.total_transfer += duration;
        self.jobs += 1;
    }

    fn finished(&mut self, depth: usize) {
        self.queue_len_sum += depth as f64;
        self.queue_samples += 1;
    }

    fn stall(&mut self, stall: f64) {
        self.stalls.record(stall);
    }

    fn outage_wait(&mut self, wait: f64) {
        self.outage_delay += wait;
    }
}

/// The observed event loop emits one scheduler mark every this many
/// popped events.
const MARK_EVERY: u64 = 1024;

/// The observation tap of the event loop: records per-epoch scheduler
/// state (events popped, queue occupancy) as an
/// [`EpochMark`] series. Built only for observed runs — the plain
/// `run`/`run_traced` paths never construct one, so their loops keep a
/// single `is_some` branch per event and nothing else.
struct SchedProbe<'m> {
    marks: &'m mut Vec<EpochMark>,
    epoch: u64,
    last_events: u64,
}

impl<'m> SchedProbe<'m> {
    fn new(marks: &'m mut Vec<EpochMark>) -> Self {
        Self {
            marks,
            epoch: 0,
            last_events: 0,
        }
    }

    /// Records one boundary: `events` is the loop's cumulative popped
    /// count, `pending` the queue occupancy at the boundary.
    fn mark(&mut self, at: f64, events: u64, pending: usize) {
        self.marks.push(EpochMark {
            epoch: self.epoch,
            at,
            events: events - self.last_events,
            pending,
        });
        self.last_events = events;
        self.epoch += 1;
    }
}

/// All mutable state of one run, so the event handlers can live as
/// methods instead of a closure juggling a dozen `&mut` locals.
struct SimState<'a, 'p, W: ClientWorkload> {
    workload: &'a W,
    retrievals: &'a [f64],
    /// Precomputed item -> shard table: the hot paths index this
    /// instead of re-hashing (and re-dividing) through
    /// [`ShardMap::shard_of`] on every job.
    shard_lut: Vec<u32>,
    lanes: Vec<Lane>,
    /// Per-shard measurement accumulators, indexed like `lanes`.
    stats: Vec<ChannelStats>,
    // Per-client state as index-based parallel arrays (`u32` arena ids):
    // contiguous, no per-client structs on the steady-state path.
    rngs: Vec<SmallRng>,
    state: Vec<u32>,
    round: Vec<u32>,
    /// Item the client is stalled on (`NO_ITEM` when browsing).
    pending_item: Vec<u32>,
    /// Request time of the pending item (valid while `pending_item` is).
    pending_at: Vec<f64>,
    /// Items whose transfer completed this round, per client (capacity
    /// reused round over round — no steady-state allocation).
    done: Vec<Vec<u32>>,
    /// Items planned this round, per client (capacity reused likewise).
    planned: Vec<Vec<u32>>,
    served: u64,
    samples: Vec<f64>,
    wasted_transfer: f64,
    /// Shards touched since the last start pass (freed channel or
    /// freshly queued work) — the only ones a start pass must scan: a
    /// bitset, one bit per shard, so duplicate marks collapse and the
    /// scan runs in ascending shard order.
    dirty: Vec<u64>,
    /// Scratch the policy writes each round's plan into.
    plan_buf: Vec<usize>,
    /// Scratch for trace records of transfers started in one pass.
    started_scratch: Vec<(f64, Job)>,
    /// Materialised fault plan (service scaling + outage windows);
    /// `None` on the fault-free path keeps that path branch-cheap.
    faults: Option<FaultPlan>,
    trace: Option<&'p mut Vec<SimEvent>>,
}

/// Sentinel for "no pending item" in the `pending_item` arena.
const NO_ITEM: u32 = u32::MAX;

impl<'a, 'p, W: ClientWorkload> SimState<'a, 'p, W> {
    /// Validates the topology and seeds the per-client RNGs and start
    /// states.
    ///
    /// # Panics
    /// Panics when `clients == 0` or retrieval data does not cover the
    /// workload's items (`shards == 0` panics in [`ShardMap::new`]).
    fn new(sim: &ShardedSim<'a, W>, trace: Option<&'p mut Vec<SimEvent>>) -> Self {
        let ShardedSim {
            workload,
            retrievals,
            clients,
            shards,
            placement,
            seed,
            faults,
            ..
        } = *sim;
        assert!(clients >= 1, "need at least one client");
        assert!(
            retrievals.len() >= workload.n_items(),
            "retrievals must cover the item universe"
        );
        assert!(
            retrievals.len() < NO_ITEM as usize && clients < u32::MAX as usize,
            "catalog and client population must fit u32 arena indices"
        );
        let map = ShardMap::new(shards, retrievals.len(), placement);
        let shard_lut: Vec<u32> = (0..retrievals.len())
            .map(|i| map.shard_of(i) as u32)
            .collect();
        let mut rngs: Vec<SmallRng> = (0..clients)
            .map(|c| SmallRng::seed_from_u64(seed ^ (0xC11E * (c as u64 + 1))))
            .collect();
        let state = rngs
            .iter_mut()
            .map(|r| r.random_range(0..workload.n_items()) as u32)
            .collect();
        Self {
            workload,
            retrievals,
            shard_lut,
            lanes: (0..shards)
                .map(|_| Lane {
                    queue: VecDeque::new(),
                    in_service: None,
                    busy_until: 0.0,
                })
                .collect(),
            stats: (0..shards).map(|_| ChannelStats::new()).collect(),
            rngs,
            state,
            round: vec![0; clients],
            pending_item: vec![NO_ITEM; clients],
            pending_at: vec![0.0; clients],
            done: vec![Vec::new(); clients],
            planned: vec![Vec::new(); clients],
            served: 0,
            samples: Vec::new(),
            wasted_transfer: 0.0,
            dirty: vec![0; shards.div_ceil(64)],
            plan_buf: Vec::new(),
            started_scratch: Vec::new(),
            faults: faults.map(|f| f.materialise(shards, seed)),
            trace,
        }
    }

    /// Retrieval duration of `item` after per-shard service scaling.
    #[inline]
    fn effective_duration(&self, item: usize) -> f64 {
        let d = self.retrievals[item];
        match &self.faults {
            None => d,
            Some(plan) => d * plan.scale[self.shard_lut[item] as usize],
        }
    }

    /// Plans client `c`'s round: fills `planned[c]` and queues one
    /// prefetch job per planned item — the common step of the kickoff
    /// and of every round turnover.
    fn plan_round(&mut self, c: usize, policy: &mut dyn ClientPolicy) {
        self.plan_buf.clear();
        policy.plan_into(c, self.state[c] as usize, &mut self.plan_buf);
        self.planned[c].clear();
        for k in 0..self.plan_buf.len() {
            let item = self.plan_buf[k];
            self.planned[c].push(item as u32);
            self.push_job(Job {
                client: c as u32,
                item: item as u32,
                kind: JobKind::Prefetch,
                round: self.round[c],
                duration: self.effective_duration(item),
            });
        }
    }

    /// Plans and queues every client's opening round at `t = 0` and
    /// schedules the first requests.
    fn kickoff(&mut self, policy: &mut dyn ClientPolicy, q: &mut EventQueue<Ev>) {
        for c in 0..self.state.len() {
            self.plan_round(c, policy);
            q.schedule(
                self.workload.viewing(self.state[c] as usize),
                Ev::Request(c as u32),
            );
        }
        self.start_dirty(0.0, q);
    }

    /// Folds the run's outcome into the report: per-shard stats in shard
    /// order, then the aggregate sums.
    fn build_report(mut self, span: f64) -> ShardReport {
        let n_shards = self.stats.len();
        let plan = &self.faults;
        let shards: Vec<ShardStats> = self
            .stats
            .into_iter()
            .enumerate()
            .map(|(i, ch)| ShardStats {
                shard: i,
                jobs: ch.jobs,
                busy_time: ch.busy_time,
                utilisation: if span > 0.0 {
                    ch.busy_time.min(span) / span
                } else {
                    0.0
                },
                mean_queue_depth: if ch.queue_samples == 0 {
                    0.0
                } else {
                    ch.queue_len_sum / ch.queue_samples as f64
                },
                max_queue_depth: ch.max_queue_depth,
                total_transfer: ch.total_transfer,
                outage_time: plan.as_ref().map_or(0.0, |p| p.outage_time(i, span)),
                outage_delay: ch.outage_delay,
                service_scale: plan.as_ref().map_or(1.0, |p| p.scale[i]),
                stalls: ch.stalls,
            })
            .collect();
        ShardReport {
            access: AccessStats::from_samples(&mut self.samples),
            utilisation: shards.iter().map(|s| s.utilisation).sum::<f64>() / n_shards as f64,
            wasted_transfer: self.wasted_transfer,
            total_transfer: shards.iter().map(|s| s.total_transfer).sum(),
            shards,
        }
    }

    fn record(&mut self, at: f64, client: usize, item: usize, kind: EventKind) {
        if let Some(log) = self.trace.as_deref_mut() {
            log.push(SimEvent {
                at,
                client,
                shard: self.shard_lut[item] as usize,
                item,
                kind,
            });
        }
    }

    /// Queues a job on its owning shard.
    fn push_job(&mut self, job: Job) {
        let shard = self.shard_lut[job.item as usize] as usize;
        let queue = &mut self.lanes[shard].queue;
        queue.push_back(job);
        self.stats[shard].queued(queue.len());
        self.mark_dirty(shard);
    }

    /// Marks a shard for the next start pass.
    #[inline]
    fn mark_dirty(&mut self, shard: usize) {
        self.dirty[shard / 64] |= 1 << (shard % 64);
    }

    /// Starts the next queued job on `shard` if its channel is idle —
    /// the body of one start-pass step.
    #[inline]
    fn try_start(&mut self, shard: usize, now: f64, q: &mut EventQueue<Ev>, tracing: bool) {
        let lane = &mut self.lanes[shard];
        if lane.in_service.is_none() {
            if let Some(job) = lane.queue.pop_front() {
                let mut start = now.max(lane.busy_until);
                // Outage windows black out job *starts* only: in-flight
                // transfers complete, so event counts are conserved.
                if let Some(plan) = &self.faults {
                    let admitted = plan.delayed_start(shard, start);
                    if admitted > start {
                        self.stats[shard].outage_wait(admitted - start);
                        start = admitted;
                    }
                }
                lane.busy_until = start + job.duration;
                lane.in_service = Some(job);
                self.stats[shard].started(job.duration);
                q.schedule(lane.busy_until, Ev::JobDone(shard as u32));
                if tracing {
                    self.started_scratch.push((start, job));
                }
            }
        }
    }

    /// Starts the next queued job on every shard touched since the last
    /// pass. Only dirty shards are visited — one word per 64 shards plus
    /// one step per touched shard, not one per shard — in ascending
    /// shard order, so the event sequence is identical to a full scan.
    fn start_dirty(&mut self, now: f64, q: &mut EventQueue<Ev>) {
        let tracing = self.trace.is_some();
        // Words in ascending order, bits within a word lowest first.
        for w in 0..self.dirty.len() {
            let mut bits = std::mem::take(&mut self.dirty[w]);
            while bits != 0 {
                let shard = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                self.try_start(shard, now, q, tracing);
            }
        }
        if tracing {
            let mut started = std::mem::take(&mut self.started_scratch);
            for (at, job) in started.drain(..) {
                self.record(
                    at,
                    job.client as usize,
                    job.item as usize,
                    EventKind::TransferStart(job.kind),
                );
            }
            self.started_scratch = started;
        }
    }

    fn on_request(
        &mut self,
        c: usize,
        now: f64,
        q: &mut EventQueue<Ev>,
        policy: &mut dyn ClientPolicy,
    ) {
        let alpha = self
            .workload
            .next(self.state[c] as usize, &mut self.rngs[c]);
        self.record(now, c, alpha, EventKind::Request);
        if self.done[c].contains(&(alpha as u32)) {
            // Served instantly from this round's completed transfers.
            self.finish_request(c, alpha, now, now, q, policy);
        } else if self.planned[c].contains(&(alpha as u32)) {
            // In flight or queued: wait for its completion.
            self.pending_item[c] = alpha as u32;
            self.pending_at[c] = now;
        } else {
            // Demand fetch at the owning shard's queue tail (FIFO).
            self.push_job(Job {
                client: c as u32,
                item: alpha as u32,
                kind: JobKind::Demand,
                round: self.round[c],
                duration: self.effective_duration(alpha),
            });
            self.pending_item[c] = alpha as u32;
            self.pending_at[c] = now;
        }
        self.start_dirty(now, q);
    }

    fn on_job_done(
        &mut self,
        shard: usize,
        now: f64,
        q: &mut EventQueue<Ev>,
        policy: &mut dyn ClientPolicy,
    ) {
        let lane = &mut self.lanes[shard];
        self.stats[shard].finished(lane.queue.len());
        let job = lane.in_service.take().expect("a job was in service");
        // The channel is free again: re-mark it so queued work restarts.
        self.mark_dirty(shard);
        let c = job.client as usize;
        self.record(now, c, job.item as usize, EventKind::TransferDone(job.kind));
        if job.round == self.round[c] {
            self.done[c].push(job.item);
            if self.pending_item[c] == job.item {
                self.pending_item[c] = NO_ITEM;
                let req_at = self.pending_at[c];
                self.finish_request(c, job.item as usize, now, req_at, q, policy);
            }
        } else if job.kind == JobKind::Prefetch {
            // Stale prefetch from a previous round: pure waste.
            self.wasted_transfer += job.duration;
        }
        self.start_dirty(now, q);
    }

    /// A request was served: account for it and start the next round.
    #[allow(clippy::too_many_arguments)]
    fn finish_request(
        &mut self,
        c: usize,
        alpha: usize,
        now: f64,
        requested_at: f64,
        q: &mut EventQueue<Ev>,
        policy: &mut dyn ClientPolicy,
    ) {
        let stall = now - requested_at;
        self.samples.push(stall);
        self.stats[self.shard_lut[alpha] as usize].stall(stall);
        self.record(now, c, alpha, EventKind::Served);
        self.served += 1;
        // Waste accounting: completed transfers of this round that were
        // not the request.
        self.wasted_transfer += self.done[c]
            .iter()
            .filter(|&&item| item != alpha as u32)
            .map(|&item| self.effective_duration(item as usize))
            .sum::<f64>();
        // Next round.
        self.state[c] = alpha as u32;
        self.round[c] += 1;
        self.done[c].clear();
        self.plan_round(c, policy);
        q.schedule(now + self.workload.viewing(alpha), Ev::Request(c as u32));
    }
}

impl<W: ClientWorkload> ShardedSim<'_, W> {
    /// Runs the simulation with the given planning policy.
    ///
    /// # Panics
    /// Panics when `clients == 0`, `shards == 0`, retrieval data does
    /// not cover the workload's items, or `requests_per_client × clients`
    /// overflows a `u64` (in every build profile).
    pub fn run(&self, policy: &mut dyn ClientPolicy) -> ShardReport {
        self.run_core(policy, None, None)
    }

    /// Like [`run`](Self::run), but also records the full mechanistic
    /// event log (requests, services, transfer starts/completions).
    pub fn run_traced(&self, policy: &mut dyn ClientPolicy) -> (ShardReport, Vec<SimEvent>) {
        let mut log = Vec::new();
        let report = self.run_core(policy, Some(&mut log), None);
        (report, log)
    }

    /// Like [`run_traced`](Self::run_traced), with the event loop
    /// observed when `marks` is given: a mark is appended every
    /// `MARK_EVERY` popped events and at the end of the run. The event
    /// log is collected only when `traced` (empty otherwise).
    /// Observation never changes results — the report and event log are
    /// bit-identical to the unobserved run's.
    pub fn run_observed(
        &self,
        policy: &mut dyn ClientPolicy,
        marks: Option<&mut Vec<EpochMark>>,
        traced: bool,
    ) -> (ShardReport, Vec<SimEvent>) {
        let mut log = Vec::new();
        let probe = marks.map(SchedProbe::new);
        let report = self.run_core(policy, traced.then_some(&mut log), probe);
        (report, log)
    }

    fn run_core(
        &self,
        policy: &mut dyn ClientPolicy,
        trace: Option<&mut Vec<SimEvent>>,
        mut probe: Option<SchedProbe<'_>>,
    ) -> ShardReport {
        let total_requests = self
            .requests_per_client
            .checked_mul(self.clients as u64)
            .expect("requests_per_client × clients overflows a u64");
        let mut st = SimState::new(self, trace);
        let mut queue = EventQueue::new();
        st.kickoff(policy, &mut queue);

        let probing = probe.is_some();
        let mut events: u64 = 0;
        let span = queue.run(|now, ev, q| {
            match ev {
                Ev::Request(c) => st.on_request(c as usize, now, q, policy),
                Ev::JobDone(shard) => st.on_job_done(shard as usize, now, q, policy),
            }
            if probing {
                events += 1;
                if events.is_multiple_of(MARK_EVERY) {
                    if let Some(p) = probe.as_mut() {
                        p.mark(now, events, q.len());
                    }
                }
            }
            if st.served >= total_requests {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        if let Some(p) = probe.as_mut() {
            p.mark(span, events, queue.len());
        }
        st.build_report(span)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic 2-state round-robin workload.
    struct RoundRobin {
        viewing: f64,
        n: usize,
    }
    impl ClientWorkload for RoundRobin {
        fn viewing(&self, _state: usize) -> f64 {
            self.viewing
        }
        fn next(&self, state: usize, _rng: &mut SmallRng) -> usize {
            (state + 1) % self.n
        }
        fn n_items(&self) -> usize {
            self.n
        }
    }

    fn sim<'a>(
        workload: &'a RoundRobin,
        retrievals: &'a [f64],
        clients: usize,
        shards: usize,
    ) -> ShardedSim<'a, RoundRobin> {
        ShardedSim {
            workload,
            retrievals,
            clients,
            shards,
            placement: Placement::Hash,
            requests_per_client: 40,
            seed: 9,
            faults: None,
        }
    }

    #[test]
    fn scheduler_runs_and_stops() {
        let mut q: EventQueue<u32> = EventQueue::new();
        q.schedule(1.0, 1);
        q.schedule(2.0, 2);
        q.schedule(3.0, 3);
        let mut seen = Vec::new();
        let end = q.run(|_, ev, _| {
            seen.push(ev);
            if ev == 2 {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        assert_eq!(seen, vec![1, 2]);
        assert_eq!(end, 2.0);
    }

    /// A run stopped after `k` events leaves the queue exactly as a
    /// reference loop does: the same pending count (what `SchedProbe`
    /// marks record as `pending`), the clock at the `k`-th event's time,
    /// and the remaining events in order. The handler schedules a
    /// follow-up for some events only, so the stop lands both right
    /// after a pop and right after a schedule.
    #[test]
    fn scheduler_stopped_mid_run_leaves_the_reference_queue() {
        fn follow_up(now: f64, ev: u32) -> Option<(f64, u32)> {
            (!ev.is_multiple_of(3)).then(|| (now + (ev % 5) as f64 * 0.5, ev * 7 % 101))
        }
        let initial: Vec<(f64, u32)> = (0..12u32)
            .map(|i| ((i * 37 % 11) as f64 * 0.75, i * 13 % 97))
            .collect();
        for k in 1..=20u64 {
            // Reference: pending `(time, payload)` in schedule order.
            let mut pending = initial.clone();
            let mut last_at = 0.0;
            for _ in 0..k {
                let Some(i) =
                    (0..pending.len())
                        .reduce(|b, i| if pending[i].0 < pending[b].0 { i } else { b })
                else {
                    break;
                };
                let (at, ev) = pending.remove(i);
                last_at = at;
                pending.extend(follow_up(at, ev));
            }
            pending.sort_by(|a, b| a.0.total_cmp(&b.0));

            let mut q: EventQueue<u32> = EventQueue::new();
            for &(at, ev) in &initial {
                q.schedule(at, ev);
            }
            let mut handled = 0;
            let end = q.run(|now, ev, q| {
                handled += 1;
                if let Some((at, next)) = follow_up(now, ev) {
                    q.schedule(at, next);
                }
                if handled == k {
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                }
            });
            assert_eq!(q.len(), pending.len(), "k = {k}");
            assert_eq!(q.is_empty(), pending.is_empty());
            assert_eq!(end.to_bits(), last_at.to_bits(), "k = {k}");
            assert_eq!(q.now().to_bits(), last_at.to_bits(), "k = {k}");
            let mut rest = Vec::new();
            while let Some(ev) = q.pop() {
                rest.push(ev);
            }
            assert_eq!(rest, pending, "k = {k}");
        }
    }

    #[test]
    fn scheduler_handler_schedules_follow_ups() {
        let mut q: EventQueue<u32> = EventQueue::new();
        q.schedule(1.0, 0);
        let mut count = 0;
        q.run(|now, ev, q| {
            count += 1;
            if ev < 3 {
                q.schedule(now + 1.0, ev + 1);
            }
            ControlFlow::Continue(())
        });
        assert_eq!(count, 4);
        assert_eq!(q.now(), 4.0);
    }

    #[test]
    fn every_placement_is_total_and_in_range() {
        for placement in [
            Placement::Hash,
            Placement::Range,
            Placement::HotCold { hot_items: 5 },
        ] {
            for shards in [1usize, 2, 3, 7] {
                let map = ShardMap::new(shards, 40, placement);
                for item in 0..40 {
                    let s = map.shard_of(item);
                    assert!(s < shards, "{placement:?}: item {item} -> shard {s}");
                    assert_eq!(s, map.shard_of(item), "placement must be deterministic");
                }
            }
        }
    }

    #[test]
    fn placement_spec_syntax_roundtrips() {
        for placement in [
            Placement::Hash,
            Placement::Range,
            Placement::HotCold { hot_items: 12 },
        ] {
            let text = placement.to_string();
            assert_eq!(Placement::parse(&text), Some(placement), "{text}");
        }
        assert_eq!(Placement::parse(" range "), Some(Placement::Range));
        assert_eq!(Placement::parse("hot-cold@x"), None);
        assert_eq!(Placement::parse("hotcold"), None);
        assert_eq!(Placement::parse(""), None);
    }

    #[test]
    fn range_placement_is_contiguous() {
        let map = ShardMap::new(4, 40, Placement::Range);
        let mut last = 0;
        for item in 0..40 {
            let s = map.shard_of(item);
            assert!(s >= last, "range placement must be monotone");
            last = s;
        }
        assert_eq!(map.shard_of(0), 0);
        assert_eq!(map.shard_of(39), 3);
    }

    #[test]
    fn hot_cold_pins_hot_items_to_shard_zero() {
        let map = ShardMap::new(4, 40, Placement::HotCold { hot_items: 10 });
        for item in 0..10 {
            assert_eq!(map.shard_of(item), 0);
        }
        for item in 10..40 {
            assert!(map.shard_of(item) >= 1, "cold item {item} on the hot shard");
        }
    }

    #[test]
    #[should_panic(expected = "requests_per_client × clients overflows a u64")]
    fn overflowing_request_total_panics_in_every_profile() {
        let rr = RoundRobin { viewing: 1.0, n: 4 };
        let retrievals = vec![1.0; 4];
        let mut s = sim(&rr, &retrievals, 16, 2);
        s.requests_per_client = 1 << 60;
        s.run(&mut |_c: usize, _s: usize| Vec::new());
    }

    #[test]
    fn sharding_relieves_contention() {
        // Heavily loaded no-prefetch population: splitting the catalog
        // across shards adds service capacity, so stalls drop.
        let rr = RoundRobin {
            viewing: 1.0,
            n: 16,
        };
        let retrievals = vec![6.0; 16];
        let mut none = |_c: usize, _s: usize| Vec::new();
        let one = sim(&rr, &retrievals, 12, 1).run(&mut none);
        let mut none2 = |_c: usize, _s: usize| Vec::new();
        let four = sim(&rr, &retrievals, 12, 4).run(&mut none2);
        assert!(
            four.access.mean < one.access.mean,
            "4 shards {} vs 1 shard {}",
            four.access.mean,
            one.access.mean
        );
        assert_eq!(one.requests(), four.requests());
    }

    #[test]
    fn per_shard_stats_are_consistent() {
        let rr = RoundRobin { viewing: 2.0, n: 8 };
        let retrievals = vec![3.0; 8];
        let mut next = |_c: usize, s: usize| vec![(s + 1) % 8];
        let report = sim(&rr, &retrievals, 4, 3).run(&mut next);
        assert_eq!(report.shards.len(), 3);
        let total: f64 = report.shards.iter().map(|s| s.total_transfer).sum();
        assert!((total - report.total_transfer).abs() < 1e-9);
        let stall_count: u64 = report.shards.iter().map(|s| s.stalls.count()).sum();
        assert_eq!(stall_count, report.access.count);
        for s in &report.shards {
            assert!(s.utilisation <= 1.0 + 1e-9, "shard {} util", s.shard);
        }
    }

    #[test]
    fn traced_run_matches_untraced() {
        let rr = RoundRobin { viewing: 2.0, n: 8 };
        let retrievals = vec![3.0; 8];
        let mut p1 = |_c: usize, s: usize| vec![(s + 1) % 8];
        let plain = sim(&rr, &retrievals, 3, 2).run(&mut p1);
        let mut p2 = |_c: usize, s: usize| vec![(s + 1) % 8];
        let (traced, log) = sim(&rr, &retrievals, 3, 2).run_traced(&mut p2);
        assert_eq!(plain, traced);
        assert!(!log.is_empty());
        // Served events match the request count.
        let served = log.iter().filter(|e| e.kind == EventKind::Served).count();
        assert_eq!(served as u64, traced.requests());
    }

    /// The observability contract at the scheduler level: an observed
    /// run's report and event log are bit-identical to the unobserved
    /// run's, while the mark series fills up.
    #[test]
    fn observed_run_matches_unobserved_bit_for_bit() {
        let rr = RoundRobin { viewing: 2.0, n: 8 };
        let retrievals = vec![3.0; 8];
        let mut p1 = |_c: usize, s: usize| vec![(s + 1) % 8];
        let (plain, plain_log) = sim(&rr, &retrievals, 3, 2).run_traced(&mut p1);
        let mut marks = Vec::new();
        let mut p2 = |_c: usize, s: usize| vec![(s + 1) % 8];
        let (observed, observed_log) =
            sim(&rr, &retrievals, 3, 2).run_observed(&mut p2, Some(&mut marks), true);
        assert_eq!(plain, observed);
        assert_eq!(plain_log, observed_log);
        // The final-boundary mark always fires and the series counts
        // the popped events.
        assert!(!marks.is_empty());
        let total: u64 = marks.iter().map(|m| m.events).sum();
        assert!(total > 0);
        // Marks carry monotone epochs and timestamps.
        assert!(marks.windows(2).all(|w| w[0].epoch < w[1].epoch));
        assert!(marks.windows(2).all(|w| w[0].at <= w[1].at));
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let _ = ShardMap::new(0, 4, Placement::Hash);
    }

    /// Golden event log, computed by hand from the paper's shared-channel
    /// discipline — pins the `shards = 1` semantics independently of the
    /// implementation.
    ///
    /// One client, v = 10, r = 3, always prefetching the (deterministic)
    /// next item: each round the prefetch runs 0–3 (resp. 10–13, 20–23),
    /// the request at 10 (resp. 20, 30) hits the completed prefetch and
    /// is served instantly, and the next round's prefetch starts at the
    /// service instant.
    #[test]
    fn golden_log_perfect_prefetch() {
        let rr = RoundRobin {
            viewing: 10.0,
            n: 2,
        };
        let retrievals = [3.0, 3.0];
        let sim = ShardedSim {
            workload: &rr,
            retrievals: &retrievals,
            clients: 1,
            shards: 1,
            placement: Placement::Hash,
            requests_per_client: 3,
            seed: 9,
            faults: None,
        };
        let mut policy = |_c: usize, s: usize| vec![1 - s];
        let (report, log) = sim.run_traced(&mut policy);
        use EventKind::*;
        use JobKind::Prefetch;
        let expected: Vec<(EventKind, f64)> = vec![
            (TransferStart(Prefetch), 0.0),
            (TransferDone(Prefetch), 3.0),
            (Request, 10.0),
            (Served, 10.0),
            (TransferStart(Prefetch), 10.0),
            (TransferDone(Prefetch), 13.0),
            (Request, 20.0),
            (Served, 20.0),
            (TransferStart(Prefetch), 20.0),
            (TransferDone(Prefetch), 23.0),
            (Request, 30.0),
            (Served, 30.0),
            (TransferStart(Prefetch), 30.0),
        ];
        let got: Vec<(EventKind, f64)> = log.iter().map(|e| (e.kind, e.at)).collect();
        assert_eq!(got, expected);
        // The prefetched item is always the item requested next.
        let requests: Vec<usize> = log
            .iter()
            .filter(|e| e.kind == Request)
            .map(|e| e.item)
            .collect();
        let prefetches: Vec<usize> = log
            .iter()
            .filter(|e| matches!(e.kind, TransferStart(Prefetch)))
            .map(|e| e.item)
            .collect();
        assert_eq!(&prefetches[..3], &requests[..]);
        assert_eq!(report.access.mean, 0.0);
    }

    /// Golden event log for the no-prefetch demand path: the request at
    /// v = 10 queues a demand fetch (r = 4), served at 14; the next
    /// round's request fires at 24.
    #[test]
    fn golden_log_demand_fetch() {
        let rr = RoundRobin {
            viewing: 10.0,
            n: 2,
        };
        let retrievals = [4.0, 4.0];
        let sim = ShardedSim {
            workload: &rr,
            retrievals: &retrievals,
            clients: 1,
            shards: 1,
            placement: Placement::Hash,
            requests_per_client: 2,
            seed: 9,
            faults: None,
        };
        let mut policy = |_c: usize, _s: usize| Vec::new();
        let (report, log) = sim.run_traced(&mut policy);
        use EventKind::*;
        use JobKind::Demand;
        let expected: Vec<(EventKind, f64)> = vec![
            (Request, 10.0),
            (TransferStart(Demand), 10.0),
            (TransferDone(Demand), 14.0),
            (Served, 14.0),
            (Request, 24.0),
            (TransferStart(Demand), 24.0),
            (TransferDone(Demand), 28.0),
            (Served, 28.0),
        ];
        let got: Vec<(EventKind, f64)> = log.iter().map(|e| (e.kind, e.at)).collect();
        assert_eq!(got, expected);
        assert_eq!(report.access.mean, 4.0);
    }

    #[test]
    fn sharded_session_closed_form() {
        use crate::session::{run_session, SessionConfig};
        // n = 4, range placement over 2 shards: items {0,1} on shard 0,
        // {2,3} on shard 1.
        let retrievals = [10.0, 5.0, 10.0, 6.0];
        let cfg = |viewing, plan, request| SessionConfig {
            viewing,
            plan,
            request,
            cached: &[],
        };
        let two = |cfg: &SessionConfig<'_>| run_session(&retrievals, cfg, 2, Placement::Range);
        // Plan [0, 2] spreads across both shards; the demand for item 1
        // (shard 0) queues behind item 0 only: served at 10 + 5 = 15,
        // not behind the full 20 of serial FIFO.
        let t = two(&cfg(0.0, &[0, 2], 1));
        assert!((t - 15.0).abs() < 1e-9);
        // The same miss on one shard IS serial FIFO.
        let t1 = run_session(&retrievals, &cfg(0.0, &[0, 2], 1), 1, Placement::Range);
        assert!((t1 - 25.0).abs() < 1e-9);
        // Planned item waits only for its own shard's stream: done at
        // 10 on shard 1.
        let t2 = two(&cfg(4.0, &[0, 2], 2));
        assert!((t2 - 6.0).abs() < 1e-9);
        // Cached requests stay free.
        let t3 = two(&SessionConfig {
            viewing: 1.0,
            plan: &[0],
            request: 0,
            cached: &[0],
        });
        assert_eq!(t3, 0.0);
    }
}

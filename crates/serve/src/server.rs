//! The daemon: a fixed worker pool behind a bounded admission queue.
//!
//! The accept loop never parses HTTP. It hands each connection to a
//! `sync_channel` of capacity [`ServeConfig::queue`]; when the channel
//! is full the connection is shed immediately with `503` +
//! `Retry-After` — *before* reading the request, so overload costs the
//! daemon one `write` and no parsing work. Workers pull connections,
//! parse one request each (`Connection: close`), route it and answer.
//!
//! Shutdown is cooperative: `POST /shutdown` from a loopback peer (any
//! other peer gets `403 forbidden`) sets a flag and dials the
//! daemon's own listener once to wake the accept loop, which then
//! drains — the channel closes, workers finish their current request
//! and exit, and [`Server::run`] returns.

use std::io::BufReader;
use std::net::{IpAddr, SocketAddr, TcpListener, TcpStream};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use speculative_prefetch::wire::{esc, list, render_access, write_run_document};
use speculative_prefetch::{
    backend_specs, build_plan_store, generator_specs, obs_sink_specs, parse_workload,
    plan_store_specs, policy_aliases, policy_specs, predictor_specs, AccessStats, Engine, Error,
    PlanStore, PlanStoreStats, RegistrySpec, WireRun,
};

use crate::http::{self, Request, Response};

/// How long a worker waits on a silent client before giving the
/// connection up.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(10);

/// The `Retry-After` hint attached to load-shedding `503`s.
const RETRY_AFTER_SECS: u32 = 1;

/// How many of the latest `POST /run` wall times `GET /stats` keeps
/// for its `run_latency_ms` block.
const RECENT_RUNS: usize = 4096;

/// Daemon sizing knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads executing requests.
    pub workers: usize,
    /// Admission-queue capacity; connections beyond it are shed with
    /// `503`.
    pub queue: usize,
    /// Largest accepted request body, in bytes.
    pub max_body: usize,
    /// Plan-store spec shared by every worker (see
    /// `speculative_prefetch::build_plan_store`). The second client to
    /// post an identical population run is served from this store.
    pub plan_store: String,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 4,
            queue: 32,
            max_body: 1024 * 1024,
            plan_store: "memory:8x1024".to_string(),
        }
    }
}

/// Per-route request counters over the daemon's fixed route set.
/// Requests to unknown paths fold into `other`, so the counters sum to
/// every routed request.
#[derive(Debug, Default)]
struct RouteCounters {
    version: AtomicU64,
    registry: AtomicU64,
    stats: AtomicU64,
    metrics: AtomicU64,
    run: AtomicU64,
    shutdown: AtomicU64,
    other: AtomicU64,
}

impl RouteCounters {
    /// Counts a routed request against its path (any method — a `405`
    /// is still traffic on that route).
    fn hit(&self, path: &str) {
        let counter = match path {
            "/version" => &self.version,
            "/registry" => &self.registry,
            "/stats" => &self.stats,
            "/metrics" => &self.metrics,
            "/run" => &self.run,
            "/shutdown" => &self.shutdown,
            _ => &self.other,
        };
        counter.fetch_add(1, Ordering::SeqCst);
    }

    fn snapshot(&self) -> Vec<(&'static str, u64)> {
        [
            ("/version", &self.version),
            ("/registry", &self.registry),
            ("/stats", &self.stats),
            ("/metrics", &self.metrics),
            ("/run", &self.run),
            ("/shutdown", &self.shutdown),
            ("other", &self.other),
        ]
        .into_iter()
        .map(|(name, c)| (name, c.load(Ordering::SeqCst)))
        .collect()
    }
}

/// Shared daemon state: counters the accept loop and workers update and
/// `GET /stats` / `GET /metrics` report, plus the plan store every
/// worker runs against.
pub struct ServerState {
    addr: SocketAddr,
    started: Instant,
    served: AtomicU64,
    shed: AtomicU64,
    worker_panics: AtomicU64,
    in_flight: AtomicU64,
    queued: AtomicU64,
    routes: RouteCounters,
    shutdown: AtomicBool,
    run_latencies: Mutex<RunLatencies>,
    store: Arc<dyn PlanStore>,
}

/// `POST /run` wall times in bounded memory, however long the daemon
/// runs. `GET /metrics` reads the all-time histogram: cumulative
/// counts over `obs::TIME_BUCKETS` plus `+Inf`, the sum and the count.
/// `GET /stats` reads the last [`RECENT_RUNS`] samples.
#[derive(Debug, Clone, Default)]
struct RunLatencies {
    /// Samples at or under each edge of `obs::TIME_BUCKETS`, then
    /// under `+Inf`.
    buckets: [u64; obs::TIME_BUCKETS.len() + 1],
    /// Every sample in seconds, summed in arrival order.
    sum_seconds: f64,
    count: u64,
    /// The latest samples in milliseconds, at most [`RECENT_RUNS`];
    /// once full, sample `i` overwrites slot `i % RECENT_RUNS`.
    recent_ms: Vec<f64>,
}

impl RunLatencies {
    fn record(&mut self, ms: f64) {
        let seconds = ms / 1e3;
        self.sum_seconds += seconds;
        let edges = obs::TIME_BUCKETS.iter().chain([&f64::INFINITY]);
        for (n, &le) in self.buckets.iter_mut().zip(edges) {
            if seconds <= le {
                *n += 1;
            }
        }
        if self.recent_ms.len() < RECENT_RUNS {
            self.recent_ms.push(ms);
        } else {
            self.recent_ms[(self.count % RECENT_RUNS as u64) as usize] = ms;
        }
        self.count += 1;
    }
}

/// One consistent view of the daemon's counters, taken once per
/// `GET /stats` or `GET /metrics` answer. Both endpoints render from
/// this struct, so they cannot drift apart on what they report.
struct StatsSnapshot {
    uptime_secs: f64,
    served: u64,
    shed: u64,
    worker_panics: u64,
    in_flight: u64,
    queue_depth: u64,
    routes: Vec<(&'static str, u64)>,
    run_latencies: RunLatencies,
    store_spec: String,
    store: PlanStoreStats,
}

impl std::fmt::Debug for ServerState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Hand-rolled: `dyn PlanStore` has no Debug bound; its spec
        // string is the useful identity anyway.
        f.debug_struct("ServerState")
            .field("addr", &self.addr)
            .field("served", &self.served)
            .field("shed", &self.shed)
            .field("in_flight", &self.in_flight)
            .field("plan_store", &self.store.spec_string())
            .finish_non_exhaustive()
    }
}

impl ServerState {
    /// The plan store shared by every worker.
    pub fn plan_store(&self) -> &Arc<dyn PlanStore> {
        &self.store
    }

    /// Requests answered by a worker (any status).
    pub fn served(&self) -> u64 {
        self.served.load(Ordering::SeqCst)
    }

    /// Connections shed with `503` by the accept loop.
    pub fn shed(&self) -> u64 {
        self.shed.load(Ordering::SeqCst)
    }

    /// Connections currently held by workers.
    pub fn in_flight(&self) -> u64 {
        self.in_flight.load(Ordering::SeqCst)
    }

    /// Connections admitted but not yet picked up by a worker.
    pub fn queue_depth(&self) -> u64 {
        self.queued.load(Ordering::SeqCst)
    }

    /// Seconds since the daemon bound its listener.
    pub fn uptime_secs(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            uptime_secs: self.uptime_secs(),
            served: self.served(),
            shed: self.shed(),
            worker_panics: self.worker_panics.load(Ordering::SeqCst),
            in_flight: self.in_flight(),
            queue_depth: self.queue_depth(),
            routes: self.routes.snapshot(),
            run_latencies: self.run_latencies.lock().expect("latency lock").clone(),
            store_spec: self.store.spec_string(),
            store: self.store.stats(),
        }
    }

    fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Wake the accept loop: it only re-checks the flag after an
        // accept, so dial our own listener once.
        let _ = TcpStream::connect(self.addr);
    }
}

/// A bound-but-not-yet-running daemon.
pub struct Server {
    listener: TcpListener,
    cfg: ServeConfig,
    state: Arc<ServerState>,
}

impl Server {
    /// Binds the listener (use port `0` for an ephemeral port).
    pub fn bind(addr: &str, cfg: ServeConfig) -> std::io::Result<Server> {
        let store = build_plan_store(&cfg.plan_store)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e.to_string()))?;
        let listener = TcpListener::bind(addr)?;
        let state = Arc::new(ServerState {
            addr: listener.local_addr()?,
            started: Instant::now(),
            served: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            worker_panics: AtomicU64::new(0),
            in_flight: AtomicU64::new(0),
            queued: AtomicU64::new(0),
            routes: RouteCounters::default(),
            shutdown: AtomicBool::new(false),
            run_latencies: Mutex::default(),
            store,
        });
        Ok(Server {
            listener,
            cfg,
            state,
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.state.addr
    }

    /// The shared counter state.
    pub fn state(&self) -> Arc<ServerState> {
        Arc::clone(&self.state)
    }

    /// Serves until `POST /shutdown`. Blocks the calling thread.
    pub fn run(self) -> std::io::Result<()> {
        let Server {
            listener,
            cfg,
            state,
        } = self;
        let workers = cfg.workers.max(1);
        let (tx, rx) = mpsc::sync_channel::<TcpStream>(cfg.queue.max(1));
        let rx = Arc::new(Mutex::new(rx));

        let mut pool = Vec::with_capacity(workers);
        for i in 0..workers {
            let rx = Arc::clone(&rx);
            let state = Arc::clone(&state);
            let cfg = cfg.clone();
            pool.push(
                std::thread::Builder::new()
                    .name(format!("skp-serve-worker-{i}"))
                    .spawn(move || loop {
                        let next = rx.lock().expect("queue lock").recv();
                        let Ok(stream) = next else { break };
                        state.queued.fetch_sub(1, Ordering::SeqCst);
                        state.in_flight.fetch_add(1, Ordering::SeqCst);
                        handle_connection(stream, &state, &cfg);
                        state.in_flight.fetch_sub(1, Ordering::SeqCst);
                    })?,
            );
        }

        for stream in listener.incoming() {
            if state.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = stream else { continue };
            // Count the slot before handing the stream over: a worker
            // may pull it (and decrement) the instant try_send returns.
            state.queued.fetch_add(1, Ordering::SeqCst);
            match tx.try_send(stream) {
                Ok(()) => {}
                Err(mpsc::TrySendError::Full(mut stream)) => {
                    state.queued.fetch_sub(1, Ordering::SeqCst);
                    state.shed.fetch_add(1, Ordering::SeqCst);
                    let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
                    let _ = Response::error(
                        503,
                        "queue-full",
                        &format!(
                            "admission queue is full ({} slots); retry shortly",
                            cfg.queue.max(1)
                        ),
                    )
                    .with_retry_after(RETRY_AFTER_SECS)
                    .write(&mut stream);
                }
                Err(mpsc::TrySendError::Disconnected(_)) => {
                    state.queued.fetch_sub(1, Ordering::SeqCst);
                    break;
                }
            }
        }
        drop(tx);
        for worker in pool {
            let _ = worker.join();
        }
        Ok(())
    }

    /// Runs the daemon on a background thread; the handle shuts it down.
    pub fn spawn(self) -> std::io::Result<ServerHandle> {
        let addr = self.local_addr();
        let state = self.state();
        let thread = std::thread::Builder::new()
            .name("skp-serve-acceptor".to_string())
            .spawn(move || self.run())?;
        Ok(ServerHandle {
            addr,
            state,
            thread,
        })
    }
}

/// Handle to a daemon running on a background thread (tests, CI).
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<ServerState>,
    thread: std::thread::JoinHandle<std::io::Result<()>>,
}

impl ServerHandle {
    /// The daemon's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared counter state.
    pub fn state(&self) -> &ServerState {
        &self.state
    }

    /// Requests shutdown and joins the server thread.
    pub fn shutdown(self) -> std::io::Result<()> {
        // Ask politely over HTTP first so the round-trip is exercised;
        // the direct flag + wake below covers a daemon whose workers
        // are all wedged on silent clients.
        let _ = speculative_prefetch::http_request(
            &self.addr.to_string(),
            "POST",
            "/shutdown",
            Some("{}"),
        );
        self.state.request_shutdown();
        self.thread
            .join()
            .map_err(|_| std::io::Error::other("server thread panicked"))?
    }
}

// ---------------------------------------------------------------------
// Per-connection handling and routing.
// ---------------------------------------------------------------------

fn handle_connection(mut stream: TcpStream, state: &Arc<ServerState>, cfg: &ServeConfig) {
    let _ = stream.set_read_timeout(Some(CLIENT_TIMEOUT));
    let _ = stream.set_write_timeout(Some(CLIENT_TIMEOUT));
    let started = Instant::now();
    let response = match http::read_request(&mut BufReader::new(&mut stream), cfg.max_body) {
        Ok(req) => {
            let local = stream.peer_addr().is_ok_and(|peer| is_loopback(peer.ip()));
            // A request that panics its worker gets a 500; the worker
            // lives on to serve the next connection.
            let routed = panic::catch_unwind(AssertUnwindSafe(|| route(&req, state, cfg, local)));
            let response = routed.unwrap_or_else(|_| {
                state.worker_panics.fetch_add(1, Ordering::SeqCst);
                Response::error(500, "internal", "the request panicked its worker")
            });
            if req.method == "POST" && req.path == "/run" {
                let elapsed_ms = started.elapsed().as_secs_f64() * 1e3;
                state
                    .run_latencies
                    .lock()
                    .expect("latency lock")
                    .record(elapsed_ms);
            }
            Some(response)
        }
        Err(e) => e.into_response(),
    };
    if let Some(response) = response {
        // Count before the write: once the client has read this
        // response, `/stats` on its next request must include it.
        state.served.fetch_add(1, Ordering::SeqCst);
        let _ = response.write(&mut stream);
    }
}

/// Whether `peer` is this host: IPv4 127/8, `::1`, or 127/8 mapped into
/// IPv6 (`::ffff:127.x.y.z`), which `Ipv6Addr::is_loopback` does not
/// count.
fn is_loopback(peer: IpAddr) -> bool {
    match peer {
        IpAddr::V4(v4) => v4.is_loopback(),
        IpAddr::V6(v6) => {
            v6.is_loopback() || v6.to_ipv4_mapped().is_some_and(|v4| v4.is_loopback())
        }
    }
}

/// Answers one request; `local` is whether the peer is loopback, the
/// only peer that may stop the daemon.
fn route(req: &Request, state: &Arc<ServerState>, cfg: &ServeConfig, local: bool) -> Response {
    state.routes.hit(&req.path);
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/version") => Response::json(format!(
            "{{\"name\":\"skp-serve\",\"version\":\"{}\",\"workers\":{},\"queue\":{}}}",
            env!("CARGO_PKG_VERSION"),
            cfg.workers.max(1),
            cfg.queue.max(1)
        )),
        ("GET", "/registry") => Response::json(registry_json()),
        ("GET", "/stats") => Response::json(stats_json(&state.snapshot())),
        ("GET", "/metrics") => Response::json(metrics_text(&state.snapshot()))
            .with_content_type("text/plain; version=0.0.4; charset=utf-8"),
        ("POST", "/run") => handle_run(&req.body, &state.store),
        ("POST", "/shutdown") if !local => Response::error(
            403,
            "forbidden",
            "only a loopback peer may shut the daemon down",
        ),
        ("POST", "/shutdown") => {
            state.request_shutdown();
            Response::json("{\"shutting_down\":true}".to_string())
        }
        (
            method,
            path @ ("/version" | "/registry" | "/stats" | "/metrics" | "/run" | "/shutdown"),
        ) => Response::error(
            405,
            "method-not-allowed",
            &format!(
                "{method} is not allowed on {path} \
                 (GET /version|/registry|/stats|/metrics, POST /run|/shutdown)"
            ),
        ),
        (_, path) => Response::error(404, "not-found", &format!("no route for '{path}'")),
    }
}

fn registry_json() -> String {
    let param = |p: &str| match p {
        "" => "null".to_string(),
        p => format!("\"{}\"", esc(p)),
    };
    let policies = list(&policy_specs(), |s| {
        format!(
            "{{\"name\":\"{}\",\"aliases\":{},\"summary\":\"{}\",\"param\":{}}}",
            esc(s.name),
            list(&policy_aliases(s.name), |a| format!("\"{}\"", esc(a))),
            esc(s.summary),
            param(s.params)
        )
    });
    let predictors = list(&predictor_specs(), |s| {
        format!(
            "{{\"name\":\"{}\",\"summary\":\"{}\",\"param\":{}}}",
            esc(s.name),
            esc(s.summary),
            param(s.params)
        )
    });
    let spec_list = |specs: Vec<RegistrySpec>| {
        list(&specs, |s| {
            format!(
                "{{\"name\":\"{}\",\"params\":\"{}\",\"summary\":\"{}\"}}",
                esc(s.name),
                esc(s.params),
                esc(s.summary)
            )
        })
    };
    let backends = spec_list(backend_specs());
    let plan_stores = spec_list(plan_store_specs());
    let obs_sinks = spec_list(obs_sink_specs());
    let generators = spec_list(generator_specs());
    format!(
        "{{\"policies\":{policies},\"predictors\":{predictors},\
         \"backends\":{backends},\"plan_stores\":{plan_stores},\"obs_sinks\":{obs_sinks},\
         \"generators\":{generators}}}"
    )
}

fn stats_json(snap: &StatsSnapshot) -> String {
    let mut samples = snap.run_latencies.recent_ms.clone();
    let access = AccessStats::from_samples(&mut samples);
    let ps = &snap.store;
    let tiers = list(&ps.tiers, |t| {
        format!(
            "{{\"tier\":\"{}\",\"hits\":{},\"misses\":{},\"evictions\":{},\
             \"promotions\":{},\"entries\":{}}}",
            esc(&t.tier),
            t.hits,
            t.misses,
            t.evictions,
            t.promotions,
            t.entries
        )
    });
    let requests = list(&snap.routes, |(route, n)| {
        format!("{{\"route\":\"{}\",\"requests\":{n}}}", esc(route))
    });
    format!(
        "{{\"uptime_secs\":{:.3},\"served\":{},\"shed\":{},\"worker_panics\":{},\
         \"in_flight\":{},\"queue_depth\":{},\"requests\":{requests},\"run_latency_ms\":{},\
         \"plan_store\":{{\"spec\":\"{}\",\"lookups\":{},\"hits\":{},\"misses\":{},\
         \"tiers\":{tiers}}}}}",
        snap.uptime_secs,
        snap.served,
        snap.shed,
        snap.worker_panics,
        snap.in_flight,
        snap.queue_depth,
        render_access(&access),
        esc(&snap.store_spec),
        ps.lookups,
        ps.hits,
        ps.misses(),
    )
}

/// The `GET /metrics` body: the same [`StatsSnapshot`] as `/stats`,
/// rendered to the Prometheus text exposition format by the shared
/// `obs::prom` module — so the output is guaranteed to parse back
/// (`obs::prom::parse`, the `promcheck` binary CI runs against it).
fn metrics_text(snap: &StatsSnapshot) -> String {
    use obs::prom::{Family, MetricKind, Point, PointValue};
    let value = |v: f64| PointValue::Value(v);
    let plain = |name: &str, help: &str, kind: MetricKind, v: f64| Family {
        name: name.to_string(),
        help: help.to_string(),
        kind,
        points: vec![Point {
            labels: Vec::new(),
            value: value(v),
        }],
    };
    let labelled =
        |name: &str, help: &str, kind: MetricKind, label: &str, points: &[(&str, f64)]| Family {
            name: name.to_string(),
            help: help.to_string(),
            kind,
            points: points
                .iter()
                .map(|(who, v)| Point {
                    labels: vec![(label.to_string(), who.to_string())],
                    value: value(*v),
                })
                .collect(),
        };

    // The run-latency histogram: `/stats` keeps millisecond percentiles
    // for humans; the exposition uses base-unit seconds over the
    // workspace's fixed `obs::TIME_BUCKETS` edges.
    let latencies = &snap.run_latencies;
    let edges = obs::TIME_BUCKETS.iter().chain([&f64::INFINITY]);
    let buckets: Vec<(f64, u64)> = edges.copied().zip(latencies.buckets).collect();

    let routes: Vec<(&str, f64)> = snap.routes.iter().map(|&(r, n)| (r, n as f64)).collect();
    let ps = &snap.store;
    let tier_points = |pick: fn(&speculative_prefetch::TierStats) -> f64| -> Vec<(&str, f64)> {
        ps.tiers
            .iter()
            .map(|t| (t.tier.as_str(), pick(t)))
            .collect()
    };

    let mut families = vec![
        plain(
            "skp_uptime_seconds",
            "Seconds since the daemon bound its listener.",
            MetricKind::Gauge,
            snap.uptime_secs,
        ),
        labelled(
            "skp_requests_total",
            "Requests routed, by route ('other' folds unknown paths).",
            MetricKind::Counter,
            "route",
            &routes,
        ),
        plain(
            "skp_requests_served_total",
            "Requests answered by a worker (any status).",
            MetricKind::Counter,
            snap.served as f64,
        ),
        plain(
            "skp_requests_shed_total",
            "Connections shed with 503 by the accept loop.",
            MetricKind::Counter,
            snap.shed as f64,
        ),
        plain(
            "skp_in_flight",
            "Connections currently held by workers.",
            MetricKind::Gauge,
            snap.in_flight as f64,
        ),
        plain(
            "skp_worker_queue_depth",
            "Connections admitted but not yet picked up by a worker.",
            MetricKind::Gauge,
            snap.queue_depth as f64,
        ),
        plain(
            "skp_worker_panics_total",
            "Requests whose handling panicked (answered 500; the worker lives on).",
            MetricKind::Counter,
            snap.worker_panics as f64,
        ),
        Family {
            name: "skp_run_latency_seconds".to_string(),
            help: "POST /run wall time, request read to response routed.".to_string(),
            kind: MetricKind::Histogram,
            points: vec![Point {
                labels: Vec::new(),
                value: PointValue::Histogram {
                    buckets,
                    sum: latencies.sum_seconds,
                    count: latencies.count,
                },
            }],
        },
        plain(
            "skp_plan_store_lookups_total",
            "Plan-set lookups against the daemon's shared plan store.",
            MetricKind::Counter,
            ps.lookups as f64,
        ),
        plain(
            "skp_plan_store_hits_total",
            "Plan-set lookups answered from the shared plan store.",
            MetricKind::Counter,
            ps.hits as f64,
        ),
    ];
    if !ps.tiers.is_empty() {
        families.extend([
            labelled(
                "skp_plan_store_tier_hits_total",
                "Per-tier plan store hits.",
                MetricKind::Counter,
                "tier",
                &tier_points(|t| t.hits as f64),
            ),
            labelled(
                "skp_plan_store_tier_misses_total",
                "Per-tier plan store misses.",
                MetricKind::Counter,
                "tier",
                &tier_points(|t| t.misses as f64),
            ),
            labelled(
                "skp_plan_store_tier_evictions_total",
                "Per-tier plan store evictions.",
                MetricKind::Counter,
                "tier",
                &tier_points(|t| t.evictions as f64),
            ),
            labelled(
                "skp_plan_store_tier_promotions_total",
                "Per-tier plan store promotions on hit.",
                MetricKind::Counter,
                "tier",
                &tier_points(|t| t.promotions as f64),
            ),
            labelled(
                "skp_plan_store_tier_entries",
                "Plan sets currently retained, per tier.",
                MetricKind::Gauge,
                "tier",
                &tier_points(|t| t.entries as f64),
            ),
        ]);
    }
    obs::prom::render(&families)
}

// ---------------------------------------------------------------------
// POST /run: execute a wire run or a .skp workload file.
// ---------------------------------------------------------------------

fn handle_run(body: &str, store: &Arc<dyn PlanStore>) -> Response {
    if body.trim_start().is_empty() {
        return Response::error(
            400,
            "empty-body",
            "POST /run needs a .skp workload file or a wire-run JSON object as its body",
        );
    }
    match run_posted(body, store) {
        Ok(body) => Response::json(body),
        Err(e) => Response::error(status_for(&e), error_kind(&e), &e.to_string()),
    }
}

/// Builds a posted wire run (a JSON object) or `.skp` workload file on
/// the daemon's shared plan store, then runs both the same way.
fn run_posted(body: &str, store: &Arc<dyn PlanStore>) -> Result<String, Error> {
    let (workload_name, labels, (mut engine, workload)) = if body.trim_start().starts_with('{') {
        let run = WireRun::parse(body)?;
        let built = run.instantiate_with_store(Arc::clone(store))?;
        (run.kind, Vec::new(), built)
    } else {
        let file = parse_workload(body)?;
        // Every posted run shares the daemon's store; a file may not name
        // its own (a `file:` store would write wherever the body says).
        if file.plan_store.is_some() {
            return Err(Error::InvalidParam {
                what: "posted workload",
                detail: "a posted file may not carry a 'plan-store' directive; \
                         runs on the daemon share its plan store"
                    .to_string(),
            });
        }
        let built = file.instantiate(Some(Arc::clone(store)))?;
        (file.kind.name().to_string(), file.labels, built)
    };
    refuse_served(&engine)?;
    let report = engine.run(&workload)?;
    let mut json = String::new();
    write_run_document(&mut json, &workload_name, &engine, &report, &labels);
    Ok(json)
}

/// Refuses a posted run whose backend is `served:`: the daemon must not
/// dial out to another daemon (or any listener) a body names.
fn refuse_served(engine: &Engine) -> Result<(), Error> {
    if engine.backend_name() == "served" {
        return Err(Error::InvalidParam {
            what: "posted run",
            detail: "the daemon does not chain to other daemons; \
                     post the inner backend spec directly"
                .to_string(),
        });
    }
    Ok(())
}

fn error_kind(e: &Error) -> &'static str {
    match e {
        Error::Model(_) => "model",
        Error::Parse(_) => "parse",
        Error::UnknownPolicy { .. } => "unknown-policy",
        Error::UnknownPredictor { .. } => "unknown-predictor",
        Error::UnknownBackend { .. } => "unknown-backend",
        Error::InvalidParam { .. } => "invalid-param",
        Error::MissingComponent { .. } => "missing-component",
        Error::UnsupportedBackend { .. } => "unsupported-backend",
        Error::Mismatch { .. } => "mismatch",
        Error::Served { .. } => "served",
        Error::Io(_) => "io",
    }
}

fn status_for(e: &Error) -> u16 {
    match e {
        // A verification mismatch or I/O failure is the daemon's
        // problem; everything else is a bad request.
        Error::Mismatch { .. } | Error::Io(_) => 500,
        _ => 400,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_loopback_peers_count_as_local() {
        for (peer, local) in [
            ("127.0.0.1", true),
            ("127.8.9.10", true),
            ("::1", true),
            ("::ffff:127.0.0.1", true),
            ("192.0.2.7", false),
            ("::ffff:192.0.2.7", false),
        ] {
            let ip: IpAddr = peer.parse().expect("valid address");
            assert_eq!(is_loopback(ip), local, "{peer}");
        }
    }

    fn test_store() -> Arc<dyn PlanStore> {
        build_plan_store("memory:1x8").expect("valid spec")
    }

    #[test]
    fn registry_json_lists_every_registry() {
        use speculative_prefetch::wire::Json;
        let j = registry_json();
        // It is valid JSON by the wire module's own parser.
        let json = Json::parse(&j).expect("registry JSON parses");
        let names = |section: &str| -> Vec<String> {
            let entries = json.get(section).and_then(Json::as_arr);
            let entries = entries.unwrap_or_else(|| panic!("no '{section}' list"));
            entries
                .iter()
                .map(|e| e.get("name").and_then(Json::as_str).expect("a name").into())
                .collect()
        };
        let spec_names = |specs: Vec<RegistrySpec>| -> Vec<String> {
            specs.iter().map(|s| s.name.into()).collect()
        };
        let policies: Vec<String> = policy_specs().iter().map(|s| s.name.into()).collect();
        let predictors: Vec<String> = predictor_specs().iter().map(|s| s.name.into()).collect();
        assert_eq!(names("policies"), policies);
        assert_eq!(names("predictors"), predictors);
        assert_eq!(names("backends"), spec_names(backend_specs()));
        assert_eq!(names("plan_stores"), spec_names(plan_store_specs()));
        assert_eq!(names("obs_sinks"), spec_names(obs_sink_specs()));
        assert_eq!(names("generators"), spec_names(generator_specs()));
        assert!(j.contains("skp-exact"));
        assert!(j.contains("\"served\""));
        assert!(j.contains("\"tiered\""));
    }

    /// The `GET /registry` body, byte for byte.
    #[test]
    fn registry_json_matches_its_golden() {
        assert_eq!(registry_json(), include_str!("registry.golden.json"));
    }

    fn latencies(ms: &[f64]) -> RunLatencies {
        let mut latencies = RunLatencies::default();
        for &ms in ms {
            latencies.record(ms);
        }
        latencies
    }

    /// A fully deterministic snapshot for the exposition goldens.
    fn sample_snapshot() -> StatsSnapshot {
        StatsSnapshot {
            uptime_secs: 12.5,
            served: 9,
            shed: 2,
            worker_panics: 5,
            in_flight: 1,
            queue_depth: 3,
            routes: vec![("/run", 4), ("/stats", 1), ("other", 0)],
            run_latencies: latencies(&[250.0, 500.0, 750.0]),
            store_spec: "tiered:memory:1x4,memory:1x8".to_string(),
            store: PlanStoreStats {
                lookups: 4,
                hits: 3,
                tiers: vec![
                    speculative_prefetch::TierStats {
                        tier: "memory:1x4".to_string(),
                        hits: 2,
                        misses: 2,
                        evictions: 0,
                        promotions: 1,
                        entries: 2,
                    },
                    speculative_prefetch::TierStats {
                        tier: "memory:1x8".to_string(),
                        hits: 1,
                        misses: 1,
                        evictions: 0,
                        promotions: 0,
                        entries: 1,
                    },
                ],
            },
        }
    }

    #[test]
    fn metrics_text_matches_the_exposition_golden() {
        let text = metrics_text(&sample_snapshot());
        let golden = "\
# HELP skp_uptime_seconds Seconds since the daemon bound its listener.\n\
# TYPE skp_uptime_seconds gauge\n\
skp_uptime_seconds 12.5\n\
# HELP skp_requests_total Requests routed, by route ('other' folds unknown paths).\n\
# TYPE skp_requests_total counter\n\
skp_requests_total{route=\"/run\"} 4\n\
skp_requests_total{route=\"/stats\"} 1\n\
skp_requests_total{route=\"other\"} 0\n\
# HELP skp_requests_served_total Requests answered by a worker (any status).\n\
# TYPE skp_requests_served_total counter\n\
skp_requests_served_total 9\n\
# HELP skp_requests_shed_total Connections shed with 503 by the accept loop.\n\
# TYPE skp_requests_shed_total counter\n\
skp_requests_shed_total 2\n\
# HELP skp_in_flight Connections currently held by workers.\n\
# TYPE skp_in_flight gauge\n\
skp_in_flight 1\n\
# HELP skp_worker_queue_depth Connections admitted but not yet picked up by a worker.\n\
# TYPE skp_worker_queue_depth gauge\n\
skp_worker_queue_depth 3\n";
        assert!(
            text.starts_with(golden),
            "exposition prefix drifted:\n{text}"
        );
        assert!(text.contains(
            "# HELP skp_worker_panics_total Requests whose handling panicked \
             (answered 500; the worker lives on).\n\
             # TYPE skp_worker_panics_total counter\n\
             skp_worker_panics_total 5\n"
        ));
        // The latency histogram is a complete triple over the shared
        // bucket edges: 250ms and 500ms fall under the 0.5s edge,
        // 750ms under 1s.
        assert!(text.contains("skp_run_latency_seconds_bucket{le=\"0.005\"} 0\n"));
        assert!(text.contains("skp_run_latency_seconds_bucket{le=\"0.5\"} 2\n"));
        assert!(text.contains("skp_run_latency_seconds_bucket{le=\"1\"} 3\n"));
        assert!(text.contains("skp_run_latency_seconds_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("skp_run_latency_seconds_sum 1.5\n"));
        assert!(text.contains("skp_run_latency_seconds_count 3\n"));
        // Per-tier families carry the tier label.
        assert!(text.contains("skp_plan_store_tier_hits_total{tier=\"memory:1x4\"} 2\n"));
        assert!(text.contains("skp_plan_store_tier_entries{tier=\"memory:1x8\"} 1\n"));
    }

    #[test]
    fn metrics_text_parses_back_to_the_same_counters() {
        let snap = sample_snapshot();
        let families = obs::prom::parse(&metrics_text(&snap)).expect("own exposition parses");
        let find = |name: &str| {
            families
                .iter()
                .find(|f| f.name == name)
                .unwrap_or_else(|| panic!("family {name} missing"))
        };
        let scalar = |name: &str| match &find(name).points[0].value {
            obs::prom::PointValue::Value(v) => *v,
            other => panic!("{name}: expected a scalar, got {other:?}"),
        };
        assert_eq!(scalar("skp_requests_served_total"), snap.served as f64);
        assert_eq!(scalar("skp_requests_shed_total"), snap.shed as f64);
        assert_eq!(scalar("skp_worker_panics_total"), snap.worker_panics as f64);
        assert_eq!(scalar("skp_worker_queue_depth"), snap.queue_depth as f64);
        assert_eq!(scalar("skp_plan_store_hits_total"), snap.store.hits as f64);
        let routes = find("skp_requests_total");
        assert_eq!(routes.points.len(), snap.routes.len());
        match &find("skp_run_latency_seconds").points[0].value {
            obs::prom::PointValue::Histogram { count, .. } => {
                assert_eq!(*count, snap.run_latencies.count)
            }
            other => panic!("expected a histogram, got {other:?}"),
        }
    }

    /// The latency state stays at [`RECENT_RUNS`] samples however many
    /// runs it records; `/metrics` still counts every run, and `/stats`
    /// describes the latest ones.
    #[test]
    fn run_latencies_stay_bounded() {
        let mut snap = sample_snapshot();
        snap.run_latencies = RunLatencies::default();
        for i in 0..100_000 {
            snap.run_latencies.record(i as f64);
            assert!(snap.run_latencies.recent_ms.len() <= RECENT_RUNS);
        }
        assert_eq!(snap.run_latencies.recent_ms.len(), RECENT_RUNS);
        let text = metrics_text(&snap);
        assert!(text.contains("skp_run_latency_seconds_count 100000\n"));
        assert!(text.contains("skp_run_latency_seconds_bucket{le=\"+Inf\"} 100000\n"));
        // 0–500 ms: samples 0..=500.
        assert!(text.contains("skp_run_latency_seconds_bucket{le=\"0.5\"} 501\n"));
        let j = stats_json(&snap);
        let stats = speculative_prefetch::wire::Json::parse(&j).expect("stats JSON parses");
        let latency = stats.get("run_latency_ms").expect("latency block");
        let field = |name| latency.get(name).and_then(|v| v.as_f64());
        assert_eq!(field("count"), Some(RECENT_RUNS as f64), "{j}");
        assert_eq!(field("min"), Some(95_904.0), "{j}");
        assert_eq!(field("max"), Some(99_999.0), "{j}");
    }

    #[test]
    fn stats_json_and_metrics_report_the_same_snapshot() {
        let snap = sample_snapshot();
        let j = stats_json(&snap);
        assert!(j.contains("\"uptime_secs\":12.500"), "{j}");
        assert!(j.contains("\"queue_depth\":3"), "{j}");
        assert!(j.contains("\"worker_panics\":5"), "{j}");
        assert!(j.contains("{\"route\":\"/run\",\"requests\":4}"), "{j}");
        speculative_prefetch::wire::Json::parse(&j).expect("stats JSON parses");
    }

    #[test]
    fn run_rejects_daemon_chaining() {
        let run = WireRun {
            kind: "sharded".to_string(),
            backend: "served:127.0.0.1:7077:sharded".to_string(),
            policy: "skp-exact".to_string(),
            requests_per_client: 1,
            seed: 1,
            traced: false,
            retrievals: vec![1.0, 2.0],
            viewing: vec![1.0, 1.0],
            rows: vec![vec![(1, 1.0)], vec![(0, 1.0)]],
        };
        let err = run_posted(&run.render(), &test_store())
            .unwrap_err()
            .to_string();
        assert!(err.contains("chain"), "{err}");
    }

    #[test]
    fn empty_and_invalid_bodies_map_to_400() {
        let store = test_store();
        assert_eq!(handle_run("", &store).status, 400);
        let resp = handle_run("not a workload file", &store);
        assert_eq!(resp.status, 400);
        assert!(
            resp.body.starts_with("{\"error\":{\"kind\":\"parse\""),
            "{}",
            resp.body
        );
        let resp = handle_run("{\"kind\":\"sharded\"}", &store);
        assert_eq!(resp.status, 400);
        assert!(resp.body.contains("invalid-param"), "{}", resp.body);
    }

    #[test]
    fn bad_plan_store_spec_fails_bind() {
        let cfg = ServeConfig {
            plan_store: "memory:1x0".to_string(),
            ..ServeConfig::default()
        };
        let err = match Server::bind("127.0.0.1:0", cfg) {
            Err(e) => e,
            Ok(_) => panic!("a malformed plan-store spec must fail bind"),
        };
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains("cap"), "{err}");
    }
}

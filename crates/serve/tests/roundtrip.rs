//! The determinism contract across the socket: a `served:` run must be
//! bit-identical to running the inner backend in process, and the
//! daemon must shed load deterministically when its admission queue is
//! full.

use std::net::TcpStream;
use std::time::{Duration, Instant};

use skp_serve::{ServeConfig, Server, ServerHandle};
use speculative_prefetch::{
    http_request, run_file, Engine, MarkovChain, ReportFormat, RunOverrides, Workload,
};

fn catalog() -> Vec<f64> {
    (0..24).map(|i| 1.0 + (i % 8) as f64).collect()
}

fn chain() -> MarkovChain {
    MarkovChain::random(24, 2, 4, 5, 20, 7).expect("valid chain")
}

fn spawn(cfg: ServeConfig) -> ServerHandle {
    Server::bind("127.0.0.1:0", cfg)
        .expect("bind ephemeral port")
        .spawn()
        .expect("spawn server thread")
}

fn engine(backend_spec: &str) -> Engine {
    Engine::builder()
        .policy("skp-exact")
        .catalog(catalog())
        .backend_spec(backend_spec)
        .build()
        .expect("engine builds")
}

/// The acceptance gate: `served:<addr>:sharded:8x64:hash` produces the
/// same `RunReport`, bit for bit (stats, section, every traced event),
/// as the in-process sharded backend on the same seed.
#[test]
fn served_sharded_run_is_bit_identical_to_in_process() {
    let handle = spawn(ServeConfig::default());
    let addr = handle.addr();

    let workload = Workload::sharded(chain(), 40, 1999).traced(true);
    let expected = engine("sharded:8x64:hash")
        .run(&workload)
        .expect("in-process run");
    let spec = format!("served:{}:{}:sharded:8x64:hash", addr.ip(), addr.port());
    let actual = engine(&spec).run(&workload).expect("served run");

    assert_eq!(expected, actual);
    assert!(!actual.events.is_empty(), "traced run ships its event log");
    handle.shutdown().expect("clean shutdown");
}

/// `POST /run` answers a checked-in workload file with the bytes that
/// `skp-plan run <file> --format json` prints, less the final newline:
/// the two are diffable line for line.
#[test]
fn posted_workload_files_answer_what_run_file_prints() {
    let handle = spawn(ServeConfig::default());
    let addr = handle.addr().to_string();
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/workloads");
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .expect("examples directory")
        .map(|entry| entry.expect("directory entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "skp"))
        .collect();
    files.sort();
    assert!(files.len() >= 9, "{files:?}");
    for path in files {
        let text = std::fs::read_to_string(&path).expect("readable example");
        let mut local = Vec::new();
        run_file(
            &text,
            &RunOverrides::default(),
            ReportFormat::Json,
            &mut local,
        )
        .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let resp = http_request(&addr, "POST", "/run", Some(&text)).expect("daemon reachable");
        assert_eq!(resp.status, 200, "{}: {}", path.display(), resp.body);
        assert!(
            format!("{}\n", resp.body).as_bytes() == local,
            "{}: the daemon's reply differs from run_file's output",
            path.display()
        );
    }
    handle.shutdown().expect("clean shutdown");
}

#[test]
fn served_multi_client_run_is_bit_identical_to_in_process() {
    let handle = spawn(ServeConfig::default());
    let addr = handle.addr();

    // `multi-client:8` is an alias: the daemon runs `sharded:1x8:hash`.
    let workload = Workload::sharded(chain(), 30, 42);
    let expected = engine("multi-client:8")
        .run(&workload)
        .expect("in-process run");
    let spec = format!("served:{}:{}:multi-client:8", addr.ip(), addr.port());
    let mut served = engine(&spec);
    assert_eq!(
        served.backend_spec_string(),
        format!("served:{}:{}:sharded:1x8:hash", addr.ip(), addr.port())
    );
    let actual = served.run(&workload).expect("served run");

    assert_eq!(expected, actual);
    assert_eq!(actual.sharded().expect("sharded section").shards.len(), 1);
    handle.shutdown().expect("clean shutdown");
}

#[test]
fn daemon_errors_surface_as_served_errors() {
    let handle = spawn(ServeConfig::default());
    let addr = handle.addr();

    // An invalid wire run reaches the daemon and comes back as a
    // structured 400, which the facade wraps as Error::Served.
    let resp = http_request(
        &addr.to_string(),
        "POST",
        "/run",
        Some("{\"kind\":\"sharded\"}"),
    )
    .expect("daemon reachable");
    assert_eq!(resp.status, 400);
    assert!(resp.body.contains("\"error\""), "{}", resp.body);
    assert!(resp.body.contains("invalid-param"), "{}", resp.body);
    handle.shutdown().expect("clean shutdown");
}

#[test]
fn version_registry_and_stats_endpoints_answer() {
    let handle = spawn(ServeConfig::default());
    let addr = handle.addr().to_string();

    let version = http_request(&addr, "GET", "/version", None).expect("GET /version");
    assert_eq!(version.status, 200);
    assert!(
        version.body.contains("\"name\":\"skp-serve\""),
        "{}",
        version.body
    );
    assert!(
        version.body.contains(env!("CARGO_PKG_VERSION")),
        "{}",
        version.body
    );

    let registry = http_request(&addr, "GET", "/registry", None).expect("GET /registry");
    assert_eq!(registry.status, 200);
    for needle in ["skp-exact", "\"sharded\"", "\"served\"", "ngram"] {
        assert!(registry.body.contains(needle), "missing {needle}");
    }
    assert!(!registry.body.contains("\"parallel\""), "{}", registry.body);

    // One run, then /stats reports it in the AccessStats shape.
    let run = http_request(
        &addr,
        "POST",
        "/run",
        Some(
            &std::fs::read_to_string(concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/../../examples/workloads/sharded.skp"
            ))
            .expect("example workload readable"),
        ),
    )
    .expect("POST /run");
    assert_eq!(run.status, 200, "{}", run.body);
    assert!(
        run.body.contains("\"section_kind\":\"sharded\""),
        "{}",
        run.body
    );

    let stats = http_request(&addr, "GET", "/stats", None).expect("GET /stats");
    assert_eq!(stats.status, 200);
    let doc = speculative_prefetch::wire::Json::parse(&stats.body).expect("stats JSON parses");
    let served = doc.get("served").and_then(|j| j.as_u64()).expect("served");
    assert!(served >= 3, "stats: {}", stats.body);
    let latency = doc.get("run_latency_ms").expect("latency block");
    assert_eq!(
        latency.get("count").and_then(|j| j.as_u64()),
        Some(1),
        "one /run so one latency sample: {}",
        stats.body
    );
    handle.shutdown().expect("clean shutdown");
}

/// The cross-client warm path: the second identical `POST /run` is
/// served from the daemon's shared plan store — the body stays
/// byte-identical (the determinism contract), and only `GET /stats`
/// shows the hit.
#[test]
fn second_identical_run_hits_the_shared_plan_store() {
    let handle = spawn(ServeConfig::default());
    let addr = handle.addr().to_string();

    let body = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/workloads/sharded.skp"
    ))
    .expect("example workload readable");

    let cold = http_request(&addr, "POST", "/run", Some(&body)).expect("cold run");
    assert_eq!(cold.status, 200, "{}", cold.body);
    let warm = http_request(&addr, "POST", "/run", Some(&body)).expect("warm run");
    assert_eq!(warm.status, 200);
    assert_eq!(cold.body, warm.body, "warm body must be byte-identical");

    let stats = http_request(&addr, "GET", "/stats", None).expect("GET /stats");
    let doc = speculative_prefetch::wire::Json::parse(&stats.body).expect("stats JSON parses");
    let ps = doc.get("plan_store").expect("plan_store block");
    assert_eq!(
        ps.get("spec").and_then(|j| j.as_str()),
        Some("memory:8x1024")
    );
    let lookups = ps.get("lookups").and_then(|j| j.as_u64()).expect("lookups");
    let hits = ps.get("hits").and_then(|j| j.as_u64()).expect("hits");
    assert_eq!(lookups, 2, "stats: {}", stats.body);
    assert!(hits >= 1, "stats: {}", stats.body);
    handle.shutdown().expect("clean shutdown");
}

/// Deterministic load shedding: one worker wedged on a silent client,
/// one queue slot filled — the next connection must be shed with `503`
/// and a `Retry-After` hint before the daemon reads any of it.
#[test]
fn full_admission_queue_sheds_with_503_retry_after() {
    let handle = spawn(ServeConfig {
        workers: 1,
        queue: 1,
        ..ServeConfig::default()
    });
    let addr = handle.addr();

    // A: accepted and handed to the lone worker, which blocks reading
    // the request we never send.
    let a = TcpStream::connect(addr).expect("connect A");
    let deadline = Instant::now() + Duration::from_secs(5);
    while handle.state().in_flight() == 0 {
        assert!(
            Instant::now() < deadline,
            "worker never picked up the first connection"
        );
        std::thread::sleep(Duration::from_millis(1));
    }

    // B: fills the single admission-queue slot.
    let b = TcpStream::connect(addr).expect("connect B");

    // C: must be shed. The accept loop answers without reading, so a
    // full request/response cycle still works from the client side.
    let resp = http_request(&addr.to_string(), "GET", "/version", None).expect("connect C");
    assert_eq!(resp.status, 503);
    assert_eq!(resp.retry_after, Some(1));
    assert!(resp.body.contains("queue-full"), "{}", resp.body);
    assert_eq!(handle.state().shed(), 1);

    // Unwedge the worker so shutdown drains promptly.
    drop(a);
    drop(b);
    handle.shutdown().expect("clean shutdown");
}

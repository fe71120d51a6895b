//! Wire-boundary coverage: every way a request can be malformed maps
//! to a structured HTTP error, not a dropped connection.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use skp_serve::{ServeConfig, Server, ServerHandle};
use speculative_prefetch::http::MAX_HEADERS;
use speculative_prefetch::{
    build_plan_store, http_request, parse_report, MarkovChain, PlanStore, WireRun,
};

fn spawn() -> ServerHandle {
    spawn_with(ServeConfig::default())
}

fn spawn_with(cfg: ServeConfig) -> ServerHandle {
    Server::bind("127.0.0.1:0", cfg)
        .expect("bind ephemeral port")
        .spawn()
        .expect("spawn server thread")
}

/// A plan store that keeps nothing, for the in-process side of a
/// comparison (reports are equal on every store).
fn no_store() -> Arc<dyn PlanStore> {
    build_plan_store("none").expect("valid spec")
}

/// Writes raw bytes, half-closes, and returns the daemon's full answer.
fn raw_exchange(handle: &ServerHandle, bytes: &[u8]) -> String {
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream.write_all(bytes).expect("write request");
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    let mut answer = String::new();
    stream.read_to_string(&mut answer).expect("read response");
    answer
}

#[test]
fn wrong_method_on_known_route_is_405() {
    let handle = spawn();
    let answer = raw_exchange(&handle, b"DELETE /run HTTP/1.1\r\n\r\n");
    assert!(answer.starts_with("HTTP/1.1 405 "), "{answer}");
    assert!(answer.contains("method-not-allowed"), "{answer}");
    // An unknown method token gets the same structured refusal.
    let answer = raw_exchange(&handle, b"FROB /stats HTTP/1.1\r\n\r\n");
    assert!(answer.starts_with("HTTP/1.1 405 "), "{answer}");
    handle.shutdown().expect("clean shutdown");
}

#[test]
fn unknown_route_is_404() {
    let handle = spawn();
    let answer = raw_exchange(&handle, b"GET /nope HTTP/1.1\r\n\r\n");
    assert!(answer.starts_with("HTTP/1.1 404 "), "{answer}");
    assert!(answer.contains("not-found"), "{answer}");
    handle.shutdown().expect("clean shutdown");
}

#[test]
fn truncated_request_line_is_400() {
    let handle = spawn();
    let answer = raw_exchange(&handle, b"POST /ru");
    assert!(answer.starts_with("HTTP/1.1 400 "), "{answer}");
    assert!(answer.contains("truncated"), "{answer}");
    handle.shutdown().expect("clean shutdown");
}

#[test]
fn malformed_request_line_and_header_are_400() {
    let handle = spawn();
    let answer = raw_exchange(&handle, b"GARBAGE\r\n\r\n");
    assert!(answer.starts_with("HTTP/1.1 400 "), "{answer}");
    assert!(answer.contains("request line"), "{answer}");

    let answer = raw_exchange(&handle, b"GET /version HTTP/1.1\r\nNoColonHere\r\n\r\n");
    assert!(answer.starts_with("HTTP/1.1 400 "), "{answer}");
    assert!(answer.contains("no colon"), "{answer}");
    handle.shutdown().expect("clean shutdown");
}

#[test]
fn post_without_content_length_is_411() {
    let handle = spawn();
    let answer = raw_exchange(&handle, b"POST /run HTTP/1.1\r\n\r\n");
    assert!(answer.starts_with("HTTP/1.1 411 "), "{answer}");
    assert!(answer.contains("length-required"), "{answer}");
    handle.shutdown().expect("clean shutdown");
}

#[test]
fn oversized_body_is_413_before_the_body_is_read() {
    let handle = spawn();
    // Declare two mebibytes; send none. The daemon must refuse from the
    // header alone.
    let answer = raw_exchange(
        &handle,
        b"POST /run HTTP/1.1\r\nContent-Length: 2097152\r\n\r\n",
    );
    assert!(answer.starts_with("HTTP/1.1 413 "), "{answer}");
    assert!(answer.contains("payload-too-large"), "{answer}");
    handle.shutdown().expect("clean shutdown");
}

#[test]
fn invalid_skp_body_is_a_structured_400() {
    let handle = spawn();
    let addr = handle.addr().to_string();
    let resp = http_request(&addr, "POST", "/run", Some("item what even is this"))
        .expect("daemon reachable");
    assert_eq!(resp.status, 400);
    assert!(
        resp.body.starts_with("{\"error\":{\"kind\":\"parse\""),
        "{}",
        resp.body
    );

    // A structurally valid but semantically broken wire run names the
    // offending field, matching the registry's spec-error style.
    let resp = http_request(&addr, "POST", "/run", Some("{\"kind\":\"sharded\"}"))
        .expect("daemon reachable");
    assert_eq!(resp.status, 400);
    assert!(resp.body.contains("'chain'"), "{}", resp.body);
    handle.shutdown().expect("clean shutdown");
}

#[test]
fn deeply_nested_body_is_a_400_and_the_daemon_keeps_serving() {
    let handle = spawn();
    let addr = handle.addr().to_string();
    // About 0.5 MB of `[`: under the 1 MiB body cap, and far deeper than
    // a worker thread's stack could recurse.
    let deep = "[".repeat(500_000);
    let resp = http_request(&addr, "POST", "/run", Some(&deep)).expect("daemon reachable");
    assert_eq!(resp.status, 400, "{}", resp.body);
    // As a wire run: the unknown key is walked by the depth-capped
    // parser, which answers with a structured error.
    let body = format!("{{\"x\":{deep}");
    let resp = http_request(&addr, "POST", "/run", Some(&body)).expect("daemon reachable");
    assert_eq!(resp.status, 400, "{}", resp.body);
    assert!(resp.body.contains("invalid-param"), "{}", resp.body);
    assert!(resp.body.contains("nesting"), "{}", resp.body);

    let resp = http_request(&addr, "GET", "/version", None).expect("daemon still serving");
    assert_eq!(resp.status, 200, "{}", resp.body);
    handle.shutdown().expect("clean shutdown");
}

#[test]
fn bad_retrieval_time_is_a_400_and_the_worker_keeps_serving() {
    // One worker: had the bad run killed it, nothing would answer next.
    let handle = spawn_with(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let addr = handle.addr().to_string();
    let chain = MarkovChain::random(6, 2, 4, 5, 20, 3).expect("valid chain");
    let run = |retrievals: &[f64]| {
        WireRun::new(
            "sharded",
            "sharded:2x3:hash",
            "skp-exact",
            &chain,
            retrievals,
            5,
            11,
            true,
        )
    };
    for (bad, kind) in [("0", "model"), ("-1", "model"), ("1e999", "invalid-param")] {
        let body = run(&[1.0; 6]).render().replacen(
            "\"retrievals\":[1,",
            &format!("\"retrievals\":[{bad},"),
            1,
        );
        let resp = http_request(&addr, "POST", "/run", Some(&body)).expect("daemon reachable");
        assert_eq!(resp.status, 400, "{bad}: {}", resp.body);
        let head = format!("{{\"error\":{{\"kind\":\"{kind}\"");
        assert!(resp.body.starts_with(&head), "{bad}: {}", resp.body);
        assert!(resp.body.contains("retrieval"), "{bad}: {}", resp.body);
    }

    let good = run(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
    let resp =
        http_request(&addr, "POST", "/run", Some(&good.render())).expect("daemon still serving");
    assert_eq!(resp.status, 200, "{}", resp.body);
    let (mut engine, workload) = good.instantiate_with_store(no_store()).expect("valid run");
    let expected = engine.run(&workload).expect("in-process run");
    assert_eq!(parse_report(&resp.body).expect("report parses"), expected);
    handle.shutdown().expect("clean shutdown");
}

#[test]
fn row_a_scenario_refuses_is_a_400_and_the_worker_keeps_serving() {
    // The row sums within `MarkovChain::new`'s 1e-6 of one, but its
    // single probability is above the 1 + 1e-9 a scenario allows.
    let handle = spawn_with(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let addr = handle.addr().to_string();
    let run = |rows: Vec<Vec<(usize, f64)>>| {
        let chain = MarkovChain::new(rows, vec![5.0, 5.0]).expect("valid chain");
        WireRun::new(
            "sharded",
            "sharded:1x2:hash",
            "skp-exact",
            &chain,
            &[3.0, 4.0],
            5,
            11,
            true,
        )
    };
    let bad = run(vec![vec![(1, 1.0000005)], vec![(0, 1.0)]]);
    let resp = http_request(&addr, "POST", "/run", Some(&bad.render())).expect("daemon reachable");
    assert_eq!(resp.status, 400, "{}", resp.body);
    assert!(
        resp.body.starts_with("{\"error\":{\"kind\":\"model\""),
        "{}",
        resp.body
    );
    assert!(resp.body.contains("probability"), "{}", resp.body);

    let good = run(vec![vec![(1, 1.0)], vec![(0, 1.0)]]);
    let resp =
        http_request(&addr, "POST", "/run", Some(&good.render())).expect("daemon still serving");
    assert_eq!(resp.status, 200, "{}", resp.body);
    let (mut engine, workload) = good.instantiate_with_store(no_store()).expect("valid run");
    let expected = engine.run(&workload).expect("in-process run");
    assert_eq!(parse_report(&resp.body).expect("report parses"), expected);
    handle.shutdown().expect("clean shutdown");
}

#[test]
fn overflowing_request_total_is_a_400_and_the_worker_keeps_serving() {
    // 2^60 requests for each of 16 clients overflows the simulator's
    // 64-bit request count; the wire accepts any u64 per client.
    let handle = spawn_with(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let addr = handle.addr().to_string();
    let chain = MarkovChain::random(6, 2, 4, 5, 20, 3).expect("valid chain");
    let run = |requests_per_client: u64| {
        WireRun::new(
            "sharded",
            "sharded:2x16:hash",
            "skp-exact",
            &chain,
            &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
            requests_per_client,
            11,
            true,
        )
    };
    assert_refused(&addr, &run(1 << 60).render(), "overflows");

    let good = run(5);
    let resp =
        http_request(&addr, "POST", "/run", Some(&good.render())).expect("daemon still serving");
    assert_eq!(resp.status, 200, "{}", resp.body);
    let (mut engine, workload) = good.instantiate_with_store(no_store()).expect("valid run");
    let expected = engine.run(&workload).expect("in-process run");
    assert_eq!(parse_report(&resp.body).expect("report parses"), expected);
    handle.shutdown().expect("clean shutdown");
}

/// A small population workload file on `backend`, with `extra` lines.
fn workload_file(backend: &str, extra: &str) -> String {
    format!(
        "workload sharded\nbackend {backend}\npolicy skp-exact\nrequests 5\nseed 1\n\
         chain 4 1 2 2 8 11\n{extra}v 5\nitem 0.25 3 a\nitem 0.25 4 b\nitem 0.25 5 c\n\
         item 0.25 6 d\n"
    )
}

/// A 400 `invalid-param` answer to `body`.
fn assert_refused(addr: &str, body: &str, needle: &str) {
    let resp = http_request(addr, "POST", "/run", Some(body)).expect("daemon reachable");
    let kind = "{\"error\":{\"kind\":\"invalid-param\"";
    assert_eq!(resp.status, 400, "{}", resp.body);
    assert!(resp.body.starts_with(kind), "{}", resp.body);
    assert!(resp.body.contains(needle), "{}", resp.body);
}

#[test]
fn posted_runs_may_not_dial_out_through_served() {
    let handle = spawn();
    let addr = handle.addr().to_string();
    // Stands in for whatever a hostile body points the daemon at: it
    // counts connections and drops each at once, so a daemon that dials
    // out fails fast instead of waiting for a reply. The test's own
    // connection after `done` is set ends the count.
    let target = TcpListener::bind("127.0.0.1:0").expect("bind target");
    let target_addr = target.local_addr().expect("target address");
    let served = format!("served:{target_addr}:sharded:1x2:hash");
    let done = Arc::new(AtomicBool::new(false));
    let seen = Arc::clone(&done);
    let counter = std::thread::spawn(move || {
        let mut dialled = 0;
        for _ in target.incoming() {
            if seen.load(Ordering::SeqCst) {
                break;
            }
            dialled += 1;
        }
        dialled
    });

    // A workload file naming the served: backend.
    assert_refused(&addr, &workload_file(&served, ""), "chain to other daemons");
    // A wire run whose backend hides the name behind a leading space.
    let chain = MarkovChain::new(vec![vec![(1, 1.0)], vec![(0, 1.0)]], vec![5.0; 2]).unwrap();
    let wire = WireRun::new(
        "sharded",
        &format!(" {served}"),
        "skp-exact",
        &chain,
        &[3.0, 4.0],
        5,
        11,
        false,
    );
    assert_refused(&addr, &wire.render(), "chain to other daemons");

    done.store(true, Ordering::SeqCst);
    TcpStream::connect(target_addr).expect("wake the counter");
    let dialled = counter.join().expect("counter thread");
    assert_eq!(dialled, 0, "the daemon dialled out");
    handle.shutdown().expect("clean shutdown");
}

#[test]
fn posted_files_may_not_name_a_plan_store() {
    let handle = spawn();
    let addr = handle.addr().to_string();
    let dir = std::env::temp_dir().join(format!("skp-posted-store-{}", std::process::id()));
    assert!(!dir.exists(), "{} already exists", dir.display());
    let body = workload_file(
        "sharded:1x2:hash",
        &format!("plan-store file:{}\n", dir.display()),
    );
    assert_refused(&addr, &body, "plan-store");
    assert!(!dir.exists(), "the daemon created {}", dir.display());
    // The same file without the directive runs.
    let body = workload_file("sharded:1x2:hash", "");
    let resp = http_request(&addr, "POST", "/run", Some(&body)).expect("daemon reachable");
    assert_eq!(resp.status, 200, "{}", resp.body);
    handle.shutdown().expect("clean shutdown");
}

#[test]
fn header_lines_are_capped_at_the_clients_limit() {
    let handle = spawn();
    let request = |n: usize| format!("GET /version HTTP/1.1\r\n{}\r\n", "X-Pad: p\r\n".repeat(n));
    let answer = raw_exchange(&handle, request(MAX_HEADERS).as_bytes());
    assert!(answer.starts_with("HTTP/1.1 200 "), "{answer}");
    let answer = raw_exchange(&handle, request(MAX_HEADERS + 1).as_bytes());
    assert!(answer.starts_with("HTTP/1.1 400 "), "{answer}");
    assert!(answer.contains("bad-request"), "{answer}");
    assert!(answer.contains("header lines"), "{answer}");
    handle.shutdown().expect("clean shutdown");
}

/// The three population workload files whose simulated clock could
/// overflow: each runs four items on `sharded:2x4:hash`, the first one
/// retrieved in the given time.
const CLOCK_OVERFLOWS: [(&str, &str); 3] = [
    ("workload generated\ngenerate faults:slow=0x1e308\n", "2"),
    (
        "workload generated\ngenerate faults:slow=0x1e300;svc=1e300\n",
        "2",
    ),
    ("workload sharded\nchain 4 1 2 2 8 11\n", "1e308"),
];

fn clock_overflow_file((head, retrieval): (&str, &str)) -> String {
    format!(
        "{head}backend sharded:2x4:hash\nv 5\nitem 0.25 {retrieval} a\nitem 0.25 3 b\n\
         item 0.25 4 c\nitem 0.25 5 d\n"
    )
}

#[test]
fn an_overflowing_simulated_clock_is_a_400_and_the_worker_keeps_serving() {
    let handle = spawn_with(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let addr = handle.addr().to_string();
    for case in CLOCK_OVERFLOWS {
        assert_refused(&addr, &clock_overflow_file(case), "simulated clock");
        let resp = http_request(&addr, "GET", "/version", None).expect("worker still serving");
        assert_eq!(resp.status, 200, "{}", resp.body);
    }
    let resp = http_request(&addr, "GET", "/stats", None).expect("worker still serving");
    assert!(resp.body.contains("\"worker_panics\":0,"), "{}", resp.body);
    handle.shutdown().expect("clean shutdown");
}

#[test]
fn a_panicking_request_is_a_500_and_the_worker_keeps_serving() {
    // A shard count this large overflows the capacity of the
    // simulator's per-shard state before anything is allocated, which
    // panics the run.
    let handle = spawn_with(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let addr = handle.addr().to_string();
    let body = "workload sharded\nchain 4 1 2 2 8 11\n\
                backend sharded:4611686018427387904x1:hash\nv 5\nitem 0.25 2 a\n\
                item 0.25 3 b\nitem 0.25 4 c\nitem 0.25 5 d\n";
    let resp = http_request(&addr, "POST", "/run", Some(body)).expect("daemon reachable");
    assert_eq!(resp.status, 500, "{}", resp.body);
    assert!(
        resp.body.starts_with("{\"error\":{\"kind\":\"internal\""),
        "{}",
        resp.body
    );

    // The one worker answers the next requests and counts the panic;
    // the only connection it holds is the `/stats` request itself.
    let resp = http_request(&addr, "GET", "/version", None).expect("worker still serving");
    assert_eq!(resp.status, 200, "{}", resp.body);
    let resp = http_request(&addr, "GET", "/stats", None).expect("worker still serving");
    assert!(resp.body.contains("\"worker_panics\":1,"), "{}", resp.body);
    assert!(resp.body.contains("\"in_flight\":1,"), "{}", resp.body);
    let resp = http_request(&addr, "GET", "/metrics", None).expect("worker still serving");
    assert!(
        resp.body.contains("\nskp_worker_panics_total 1\n"),
        "{}",
        resp.body
    );
    handle.shutdown().expect("clean shutdown");
}

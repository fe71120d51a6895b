//! Wire-boundary coverage: every way a request can be malformed maps
//! to a structured HTTP error, not a dropped connection.

use std::io::{Read, Write};
use std::net::TcpStream;

use skp_serve::{ServeConfig, Server, ServerHandle};
use speculative_prefetch::{http_request, parse_report, MarkovChain, WireRun};

fn spawn() -> ServerHandle {
    spawn_with(ServeConfig::default())
}

fn spawn_with(cfg: ServeConfig) -> ServerHandle {
    Server::bind("127.0.0.1:0", cfg)
        .expect("bind ephemeral port")
        .spawn()
        .expect("spawn server thread")
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
    let (mut engine, workload) = good.instantiate().expect("valid run");
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
    let (mut engine, workload) = good.instantiate().expect("valid run");
    let expected = engine.run(&workload).expect("in-process run");
    assert_eq!(parse_report(&resp.body).expect("report parses"), expected);
    handle.shutdown().expect("clean shutdown");
}

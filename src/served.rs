//! The `served:` backend — population runs shipped to a running
//! `skp-serve` daemon.
//!
//! This is the backend registry seam stretched across a socket: the
//! driver serialises the workload with [`WireRun`], posts it to the
//! daemon's `POST /run` endpoint with [`http_request`] (the HTTP/1.1
//! framing in [`crate::http`], which the daemon shares), and parses the
//! response back into a
//! [`RunReport`](crate::RunReport) — **bit-identical** to running the
//! inner backend in-process on the same seed, because the wire format
//! round-trips every `f64` exactly and ships the Markov chain's exact
//! stored rows. The determinism contract of the in-process backends
//! therefore survives the network hop (pinned by `crates/serve/tests`).
//!
//! Spec syntax: `served:<host>:<port>:<inner-backend-spec>`, e.g.
//! `served:127.0.0.1:7077:sharded:8x64:hash`. The host is an IPv4
//! address or name (no colons — IPv6 literals would be ambiguous in the
//! spec grammar); the inner spec is any registered *population* backend
//! and defaults to `sharded`.

use std::sync::Arc;

use distsys::scheduler::SimEvent;
use distsys::stats::AccessStats;
use distsys::SessionConfig;
use skp_registry::{param_err, split_spec};

use crate::backend::{build_backend, BackendDriver, PopulationRun};
use crate::error::Error;
use crate::http::http_request;
use crate::report::ReportSection;
use crate::wire::{self, WireRun};

const WHAT: &str = "served backend spec";

// ---------------------------------------------------------------------
// The driver.
// ---------------------------------------------------------------------

struct ServedDriver {
    host: String,
    port: u16,
    /// The backend the daemon is asked to run. Kept as a built driver so
    /// the spec is validated locally at build time and `spec_string` is
    /// canonical (a fixed point).
    inner: Arc<dyn BackendDriver>,
}

impl ServedDriver {
    fn addr(&self) -> String {
        format!("{}:{}", self.host, self.port)
    }
}

impl BackendDriver for ServedDriver {
    fn name(&self) -> &'static str {
        "served"
    }

    fn spec_string(&self) -> String {
        format!(
            "served:{}:{}:{}",
            self.host,
            self.port,
            self.inner.spec_string()
        )
    }

    fn session_access_time(&self, retrievals: &[f64], cfg: &SessionConfig<'_>) -> f64 {
        // The daemon simulates the same substrate; the timing model is
        // the inner backend's.
        self.inner.session_access_time(retrievals, cfg)
    }

    fn supports_population(&self) -> bool {
        true
    }

    fn run_population(
        &self,
        run: PopulationRun<'_>,
    ) -> Result<(AccessStats, ReportSection, Vec<SimEvent>), Error> {
        if run.faults.is_some() {
            return Err(Error::InvalidParam {
                what: "served backend",
                detail: "fault injection cannot cross the wire; run fault-injecting \
                         generated workloads on an in-process backend"
                    .into(),
            });
        }
        let policy = run.policy_spec.ok_or_else(|| Error::InvalidParam {
            what: "served backend",
            detail: "custom policy instances cannot cross the wire; configure the engine \
                     with a registry policy spec"
                .into(),
        })?;
        // The wire grammar admits one population kind; a generated chain
        // runs as a sharded population on the daemon's substrate.
        let wire_run = WireRun::new(
            "sharded",
            &self.inner.spec_string(),
            policy,
            run.chain,
            run.retrievals,
            run.requests_per_client,
            run.seed,
            run.traced,
        );
        let response = http_request(&self.addr(), "POST", "/run", Some(&wire_run.render()))?;
        if response.status != 200 {
            return Err(Error::Served {
                status: response.status,
                detail: response.error_detail(),
            });
        }
        let report = wire::parse_report(&response.body)?;
        // An untraced local run logs no events; a reply that carries some
        // would break local ≡ served:.
        if !run.traced && !report.events.is_empty() {
            return Err(Error::InvalidParam {
                what: "served backend",
                detail: format!(
                    "daemon sent {} events for an untraced run",
                    report.events.len()
                ),
            });
        }
        Ok((report.access, report.section, report.events))
    }
}

/// Registry constructor for `served:` specs (registered in the builtin
/// backend table).
pub(crate) fn build_served(param: Option<&str>) -> Result<Arc<dyn BackendDriver>, Error> {
    let (host, port, inner) = match param {
        None => ("127.0.0.1".to_string(), 7077, None),
        Some(raw) => {
            let mut parts = raw.splitn(3, ':');
            let host = parts.next().unwrap_or_default().trim();
            if host.is_empty() {
                return Err(param_err(WHAT, "daemon host must be non-empty").into());
            }
            if host.chars().any(|c| c.is_whitespace()) {
                return Err(param_err(
                    WHAT,
                    format!("daemon host '{host}' must not contain whitespace"),
                )
                .into());
            }
            let port_raw = parts.next().map(str::trim).ok_or_else(|| {
                param_err(
                    WHAT,
                    "missing daemon port (syntax: served:<host>:<port>:<inner-backend-spec>)",
                )
            })?;
            let port = match port_raw.parse::<u16>() {
                Ok(p) if p > 0 => p,
                _ => {
                    return Err(param_err(
                        WHAT,
                        format!("daemon port '{port_raw}' is not a port number (1-65535)"),
                    )
                    .into())
                }
            };
            (host.to_string(), port, parts.next())
        }
    };
    let inner = match inner {
        None => build_backend("sharded")?,
        Some(spec) => {
            if split_spec(spec).0 == "served" {
                return Err(param_err(
                    WHAT,
                    "inner backend must not itself be 'served' (no daemon chaining)",
                )
                .into());
            }
            build_backend(spec)?
        }
    };
    if !inner.supports_population() {
        return Err(param_err(
            WHAT,
            format!(
                "inner backend '{}' cannot run population workloads (the daemon only \
                 serves population runs)",
                inner.spec_string()
            ),
        )
        .into());
    }
    Ok(Arc::new(ServedDriver { host, port, inner }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::MAX_HEADERS;
    use access_model::MarkovChain;
    use std::io::Write;

    #[test]
    fn default_spec_fills_in() {
        assert_eq!(
            build_backend("served").unwrap().spec_string(),
            "served:127.0.0.1:7077:sharded:1x1:hash"
        );
        assert_eq!(
            build_backend("served:10.1.2.3:9000").unwrap().spec_string(),
            "served:10.1.2.3:9000:sharded:1x1:hash"
        );
    }

    #[test]
    fn inner_spec_is_canonicalised() {
        // The inner spec's defaults fill in inside the served spec, and
        // the result is a fixed point.
        let driver = build_backend("served:127.0.0.1:7077:sharded:4x8").unwrap();
        assert_eq!(
            driver.spec_string(),
            "served:127.0.0.1:7077:sharded:4x8:hash"
        );
        assert_eq!(
            build_backend(&driver.spec_string()).unwrap().spec_string(),
            driver.spec_string()
        );
    }

    /// The satellite contract: served: spec errors name the offending
    /// field, matching the PR 4 backend-spec style.
    #[test]
    fn malformed_specs_name_the_bad_field() {
        let detail = |spec: &str| match build_backend(spec) {
            Err(Error::InvalidParam { detail, .. }) => detail,
            Err(other) => panic!("{spec}: expected InvalidParam, got {other:?}"),
            Ok(_) => panic!("{spec}: expected InvalidParam, got a driver"),
        };
        assert!(detail("served:").contains("daemon host must be non-empty"));
        assert!(detail("served:localhost").contains("missing daemon port"));
        assert!(detail("served:localhost:99999").contains("daemon port '99999'"));
        assert!(detail("served:localhost:0").contains("daemon port '0'"));
        assert!(detail("served:localhost:zero").contains("daemon port 'zero'"));
        assert!(
            detail("served:localhost:8080:served:localhost:8081").contains("no daemon chaining")
        );
        // Inner-spec errors bubble up with their own field names.
        assert!(
            detail("served:localhost:8080:sharded:0x4").contains("shard count must be at least 1")
        );
        assert!(matches!(
            build_backend("served:localhost:8080:warp-drive"),
            Err(Error::UnknownBackend { .. })
        ));
    }

    #[test]
    fn non_population_inner_backends_fail_validation() {
        let err = build_backend("served:localhost:8080:monte-carlo:8x2")
            .err()
            .expect("must fail")
            .to_string();
        assert!(err.contains("cannot run population workloads"), "{err}");
        assert!(build_backend("served:localhost:8080:sharded:2x4:hash").is_ok());
    }

    #[test]
    fn custom_policy_instances_cannot_cross_the_wire() {
        let chain = MarkovChain::random(6, 2, 3, 2, 5, 1).unwrap();
        let retrievals = vec![1.0; 6];
        let mut planner = |_client: usize, _state: usize| Vec::new();
        let driver = build_backend("served:127.0.0.1:7077:sharded:1x1:hash").unwrap();
        let err = driver
            .run_population(PopulationRun {
                chain: &chain,
                retrievals: &retrievals,
                planner: &mut planner,
                requests_per_client: 5,
                seed: 1,
                traced: false,
                operation: "sharded",
                faults: None,
                policy_spec: None,
                marks: None,
            })
            .unwrap_err();
        assert!(err.to_string().contains("cannot cross the wire"), "{err}");
    }

    #[test]
    fn fault_injection_cannot_cross_the_wire() {
        let chain = MarkovChain::random(6, 2, 3, 2, 5, 1).unwrap();
        let retrievals = vec![1.0; 6];
        let faults = distsys::FaultSpec::inert();
        let mut planner = |_client: usize, _state: usize| Vec::new();
        let driver = build_backend("served:127.0.0.1:7077:sharded:1x1:hash").unwrap();
        let err = driver
            .run_population(PopulationRun {
                chain: &chain,
                retrievals: &retrievals,
                planner: &mut planner,
                requests_per_client: 5,
                seed: 1,
                traced: false,
                operation: "generated",
                faults: Some(&faults),
                policy_spec: Some("skp-exact"),
                marks: None,
            })
            .unwrap_err();
        assert!(err.to_string().contains("fault injection"), "{err}");
    }

    #[test]
    fn unreachable_daemon_surfaces_as_io_error() {
        // Bind an ephemeral port, then close it: connecting is refused.
        let port = {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            listener.local_addr().unwrap().port()
        };
        let chain = MarkovChain::random(6, 2, 3, 2, 5, 1).unwrap();
        let retrievals = vec![1.0; 6];
        let mut planner = |_client: usize, _state: usize| Vec::new();
        let driver = build_backend(&format!("served:127.0.0.1:{port}:sharded:1x1:hash")).unwrap();
        let err = driver
            .run_population(PopulationRun {
                chain: &chain,
                retrievals: &retrievals,
                planner: &mut planner,
                requests_per_client: 5,
                seed: 1,
                traced: false,
                operation: "sharded",
                faults: None,
                policy_spec: Some("skp-exact"),
                marks: None,
            })
            .unwrap_err();
        assert!(matches!(err, Error::Io(_)), "{err}");
    }

    /// Serves one canned raw HTTP response on an ephemeral port and
    /// returns the address to request it from. The peer may stop
    /// reading early, so write errors are ignored.
    fn serve_canned(raw: impl Into<String>) -> String {
        let raw = raw.into();
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        std::thread::spawn(move || {
            let (mut sock, _) = listener.accept().unwrap();
            let mut buf = [0u8; 1024];
            let _ = std::io::Read::read(&mut sock, &mut buf);
            let _ = sock.write_all(raw.as_bytes());
        });
        addr
    }

    #[test]
    fn events_on_an_untraced_run_are_refused() {
        let chain = MarkovChain::random(6, 2, 3, 2, 5, 1).unwrap();
        let retrievals = vec![1.0; 6];
        let workload = crate::Workload::sharded(chain.clone(), 5, 1).traced(true);
        let traced = crate::Engine::builder()
            .policy("skp-exact")
            .catalog(retrievals.clone())
            .backend_spec("sharded:1x1:hash")
            .build()
            .unwrap()
            .run(&workload)
            .unwrap();
        assert!(!traced.events.is_empty());
        let body = format!("{{{}}}", wire::render_report_fields(&traced, &[]));
        let reply = format!(
            "HTTP/1.1 200 OK\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        let run = |addr: String, traced: bool| {
            let mut planner = |_client: usize, _state: usize| Vec::new();
            build_backend(&format!("served:{addr}:sharded:1x1:hash"))
                .unwrap()
                .run_population(PopulationRun {
                    chain: &chain,
                    retrievals: &retrievals,
                    planner: &mut planner,
                    requests_per_client: 5,
                    seed: 1,
                    traced,
                    operation: "sharded",
                    faults: None,
                    policy_spec: Some("skp-exact"),
                    marks: None,
                })
        };
        // The same reply is taken on a traced run and refused on an
        // untraced one.
        let (_, _, events) = run(serve_canned(reply.clone()), true).unwrap();
        assert_eq!(events, traced.events);
        match run(serve_canned(reply), false) {
            Err(Error::InvalidParam { what, detail }) => {
                assert_eq!(what, "served backend");
                assert!(detail.contains("events for an untraced run"), "{detail}");
            }
            Err(other) => panic!("expected InvalidParam, got {other:?}"),
            Ok(_) => panic!("expected InvalidParam, got a report"),
        }
    }

    #[test]
    fn retry_after_parses_to_integer_seconds() {
        let addr = serve_canned(
            "HTTP/1.1 503 Service Unavailable\r\nRetry-After: 7\r\nContent-Length: 0\r\n\r\n",
        );
        let resp = http_request(&addr, "GET", "/", None).unwrap();
        assert_eq!(resp.status, 503);
        assert_eq!(resp.retry_after, Some(7));
        assert!(resp.error_detail().contains("retry after 7s"));
    }

    #[test]
    fn missing_retry_after_is_none() {
        let addr = serve_canned("HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok");
        let resp = http_request(&addr, "GET", "/", None).unwrap();
        assert_eq!(resp.retry_after, None);
    }

    #[test]
    fn garbage_retry_after_is_a_malformed_response() {
        let addr = serve_canned(
            "HTTP/1.1 503 Service Unavailable\r\nRetry-After: soonish\r\nContent-Length: 0\r\n\r\n",
        );
        let err = http_request(&addr, "GET", "/", None).unwrap_err();
        assert!(err.to_string().contains("Retry-After"), "{err}");
        assert!(err.to_string().contains("soonish"), "{err}");
    }

    #[test]
    fn huge_retry_after_is_a_malformed_response() {
        // Overflows u64: garbage by another name, not a retry hint.
        let addr = serve_canned(
            "HTTP/1.1 503 Service Unavailable\r\nRetry-After: 99999999999999999999999\r\nContent-Length: 0\r\n\r\n",
        );
        let err = http_request(&addr, "GET", "/", None).unwrap_err();
        assert!(err.to_string().contains("Retry-After"), "{err}");
    }

    #[test]
    fn huge_content_length_is_a_short_body_not_an_allocation() {
        // 1 TiB claimed, 2 bytes sent: reading must fail on the short
        // body instead of allocating what the peer claimed.
        let addr = serve_canned("HTTP/1.1 200 OK\r\nContent-Length: 1099511627776\r\n\r\nok");
        let err = http_request(&addr, "GET", "/", None).unwrap_err();
        assert!(matches!(err, Error::InvalidParam { .. }), "{err}");
        assert!(err.to_string().contains("2 of the 1099511627776"), "{err}");
    }

    #[test]
    fn short_and_garbage_content_lengths_are_malformed() {
        let addr = serve_canned("HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nok");
        let err = http_request(&addr, "GET", "/", None).unwrap_err();
        assert!(err.to_string().contains("2 of the 10"), "{err}");
        let addr = serve_canned("HTTP/1.1 200 OK\r\nContent-Length: lots\r\n\r\nok");
        let err = http_request(&addr, "GET", "/", None).unwrap_err();
        assert!(err.to_string().contains("Content-Length"), "{err}");
    }

    #[test]
    fn oversized_header_line_is_a_malformed_response() {
        let raw = format!(
            "HTTP/1.1 200 OK\r\nX-Junk: {}\r\nContent-Length: 2\r\n\r\nok",
            "j".repeat(1 << 20)
        );
        let err = http_request(&serve_canned(raw), "GET", "/", None).unwrap_err();
        assert!(matches!(err, Error::InvalidParam { .. }), "{err}");
        assert!(err.to_string().contains("over 8192 bytes"), "{err}");
    }

    #[test]
    fn endless_headers_are_a_malformed_response() {
        let raw = format!(
            "HTTP/1.1 200 OK\r\n{}Content-Length: 2\r\n\r\nok",
            "X-Junk: j\r\n".repeat(MAX_HEADERS + 1)
        );
        let err = http_request(&serve_canned(raw), "GET", "/", None).unwrap_err();
        assert!(err.to_string().contains("more than 64 headers"), "{err}");
    }

    #[test]
    fn a_reply_without_content_length_is_a_malformed_response() {
        // Reading to EOF instead would let a peer stream without end.
        let addr = serve_canned("HTTP/1.1 200 OK\r\n\r\nok");
        let err = http_request(&addr, "GET", "/", None).unwrap_err();
        assert!(matches!(err, Error::InvalidParam { .. }), "{err}");
        assert!(err.to_string().contains("Content-Length"), "{err}");
    }

    #[test]
    fn eof_mid_headers_is_a_malformed_response() {
        let addr = serve_canned("HTTP/1.1 200 OK\r\nContent-Len");
        let err = http_request(&addr, "GET", "/", None).unwrap_err();
        assert!(err.to_string().contains("closed mid-headers"), "{err}");
    }
}

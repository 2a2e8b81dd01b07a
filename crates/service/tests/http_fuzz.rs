//! HTTP framing fuzz: truncated, oversized and bit-flipped requests must produce
//! typed 4xx/5xx rejections — never a panic, never an unbounded allocation.
//!
//! Three layers are driven: the pure parser (`tiny_http::parse_request_bytes`), the
//! pure router (`nc_service::http::route`), and the real socket path of a running
//! server. All randomness comes from the repository's seeded RNG
//! (`nc_core::rng::substream`), so every failure is reproducible from the seed.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use nc_service::http::{route, ServiceHandle};
use nc_service::worker::run_slice;
use nc_service::SpecError;
use rand::Rng;
use tiny_http::{parse_request_bytes, HttpError, Limits, Method, Server};

const VALID: &[u8] =
    b"POST /jobs HTTP/1.1\r\nHost: f\r\nContent-Length: 18\r\n\r\nprotocol=line&n=8x";

fn assert_typed(result: Result<tiny_http::ParsedRequest, HttpError>, context: &str) {
    if let Err(error) = result {
        let status = error.status();
        assert!(
            (400..=599).contains(&status),
            "{context}: {error:?} must map into 4xx/5xx, got {status}"
        );
    }
}

#[test]
fn every_truncation_of_a_valid_request_is_typed() {
    let limits = Limits::default();
    for cut in 0..VALID.len() {
        let result = parse_request_bytes(&VALID[..cut], &limits);
        assert!(
            result.is_err(),
            "a strict prefix of {cut} bytes cannot parse"
        );
        assert_typed(result, &format!("truncation at {cut}"));
    }
    assert!(parse_request_bytes(VALID, &limits).is_ok());
}

#[test]
fn bit_flips_never_panic_and_errors_stay_typed() {
    let limits = Limits::default();
    let mut rng = nc_core::rng::substream(0xF022, 1);
    for trial in 0..2000 {
        let mut mutated = VALID.to_vec();
        let flips = rng.gen_range(1usize..4);
        for _ in 0..flips {
            let at = rng.gen_range(0..mutated.len());
            let bit = rng.gen_range(0u64..8) as u8;
            mutated[at] ^= 1 << bit;
        }
        // Valid-after-mutation is possible (a flip inside the body); anything else
        // must be a typed rejection.
        assert_typed(
            parse_request_bytes(&mutated, &limits),
            &format!("trial {trial}"),
        );
    }
}

#[test]
fn random_byte_soup_never_panics() {
    let limits = Limits::default();
    let mut rng = nc_core::rng::substream(0xF022, 2);
    for trial in 0..2000 {
        let len = rng.gen_range(0usize..512);
        let soup: Vec<u8> = (0..len).map(|_| rng.gen_range(0u64..256) as u8).collect();
        assert_typed(
            parse_request_bytes(&soup, &limits),
            &format!("soup {trial}"),
        );
    }
}

#[test]
fn oversized_requests_are_rejected_before_allocation() {
    let limits = Limits::default();
    // A Content-Length claiming petabytes must be rejected from the header alone.
    let claim = b"POST /jobs HTTP/1.1\r\nContent-Length: 1125899906842624\r\n\r\n";
    match parse_request_bytes(claim, &limits) {
        Err(HttpError::BodyTooLarge { declared, .. }) => {
            assert_eq!(declared, 1_125_899_906_842_624);
        }
        other => panic!("expected BodyTooLarge, got {other:?}"),
    }
    // An endless header section must hit the header caps, not buffer forever.
    let mut endless = b"GET / HTTP/1.1\r\n".to_vec();
    for i in 0..100_000 {
        endless.extend_from_slice(format!("x{i}: y\r\n").as_bytes());
    }
    let result = parse_request_bytes(&endless, &limits);
    assert!(
        matches!(
            result,
            Err(HttpError::TooManyHeaders | HttpError::HeaderLineTooLong)
        ),
        "got {result:?}"
    );
}

#[test]
fn the_router_is_total_over_adversarial_urls_and_bodies() {
    let service = ServiceHandle::new(77);
    let mut rng = nc_core::rng::substream(0xF022, 3);
    let methods = [
        Method::Get,
        Method::Post,
        Method::Put,
        Method::Delete,
        Method::Head,
    ];
    let fragments = [
        "/",
        "/jobs",
        "/jobs/",
        "/jobs/0",
        "/jobs/0/report",
        "/jobs/0/cancel",
        "/stats",
        "/stats/rows",
        "/healthz",
        "/jobs/18446744073709551616",
        "/jobs/-1",
        "/jobs/../../etc",
        "//jobs//0//",
        "/jobs/0/report/extra",
        "/%00",
        "/jobs/0?x=1&y=2",
    ];
    for trial in 0..1000 {
        let method = methods[rng.gen_range(0..methods.len() as u64) as usize];
        let url = fragments[rng.gen_range(0..fragments.len() as u64) as usize];
        let len = rng.gen_range(0usize..64);
        let body: Vec<u8> = (0..len).map(|_| rng.gen_range(0u64..256) as u8).collect();
        let response = route(&service, method, url, &body);
        let status = response.status_code();
        assert!(
            (200..=599).contains(&status),
            "trial {trial}: {method} {url} answered {status}"
        );
    }
}

#[test]
fn retired_speculation_inputs_are_named_422s() {
    let service = ServiceHandle::new(5);
    for (body, key) in [
        ("protocol=line&n=8&mode=speculative", "mode"),
        (
            "protocol=line&n=8&mode=sharded&speculation=3",
            "speculation",
        ),
    ] {
        let response = route(&service, Method::Post, "/jobs", body.as_bytes());
        assert_eq!(response.status_code(), 422, "{body}");
        let text = String::from_utf8_lossy(response.data());
        let expected = SpecError::Retired { key }.to_string();
        assert!(text.contains(&expected), "{body}: {text}");
    }
    // The repo benchmark's exact submission shape is still accepted.
    let body = "protocol=square&n=196&seed=3&mode=sharded&shards=1&speculation=0&tenant=client0";
    let response = route(&service, Method::Post, "/jobs", body.as_bytes());
    assert_eq!(response.status_code(), 201);
}

#[test]
fn malformed_submissions_cannot_wedge_a_live_service() {
    // End-to-end over real sockets: a barrage of malformed frames and bodies, then a
    // well-formed job must still submit, run and report.
    let server = Server::http("127.0.0.1:0").expect("bind");
    let addr = server.server_addr().expect("addr");
    let stopper = server.stopper();
    let service = ServiceHandle::new(5);
    let service_for_http = service.clone();
    let stop = Arc::new(AtomicBool::new(false));
    let stop_for_http = Arc::clone(&stop);
    let http = std::thread::spawn(move || {
        nc_service::http::serve(&server, &service_for_http, &stop_for_http);
    });

    let attacks: [&[u8]; 6] = [
        b"GARBAGE\r\n\r\n",
        b"POST /jobs HTTP/1.1\r\nContent-Length: 999999999999\r\n\r\n",
        b"GET \x00\xff HTTP/1.1\r\n\r\n",
        b"POST /jobs HTTP/1.1\r\nContent-Length: 5\r\n\r\nab", // truncated body
        b"BREW /jobs HTTP/1.1\r\n\r\n",
        b"POST /jobs HTTP/1.1\r\nContent-Length: 7\r\n\r\nn=bogus",
    ];
    for (i, attack) in attacks.iter().enumerate() {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(attack).expect("write");
        // Half-close so truncated frames read EOF server-side instead of timing out.
        stream
            .shutdown(std::net::Shutdown::Write)
            .expect("shutdown");
        let mut reply = String::new();
        let _ = stream.read_to_string(&mut reply);
        if !reply.is_empty() {
            let status: u16 = reply
                .split(' ')
                .nth(1)
                .and_then(|s| s.parse().ok())
                .unwrap_or_else(|| panic!("attack {i}: unparsable reply {reply}"));
            assert!(
                (400..=599).contains(&status),
                "attack {i} answered {status}"
            );
        }
    }

    // The service still works.
    let submit = nc_service::client::request(addr, "POST", "/jobs", "protocol=square&n=9")
        .expect("submit after attacks");
    assert_eq!(submit.status, 201, "{}", submit.body);
    {
        let mut queue = service.queue.lock().expect("queue");
        while queue.has_live_jobs() {
            if let Some(claim) = queue.claim_next() {
                let (result, seconds) = run_slice(&claim, 1_000_000);
                queue.complete_slice(claim.id, result, seconds);
            }
        }
    }
    let report = nc_service::client::request(addr, "GET", "/jobs/0/report", "").expect("report");
    assert_eq!(report.status, 200);
    assert!(
        report.body.contains("\"completed\": true"),
        "{}",
        report.body
    );

    stop.store(true, Ordering::SeqCst);
    stopper.stop();
    http.join().expect("http thread");
}

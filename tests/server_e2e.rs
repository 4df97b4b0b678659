//! End-to-end tests of the `pandora-server` scan service: a live
//! socket, real HTTP, real scans — plus the robustness ladder
//! (quota, queue, deadline, breaker, drain) and chaos-kill recovery.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::time::Duration;

use pandora::runner::chaos::{self, ChaosKind, ChaosPlan, Site};
use pandora::server::json::{self, Json};
use pandora::server::quota::QuotaConfig;
use pandora::server::scan::ScanLimits;
use pandora::server::server::{Server, ServerConfig, ServerHandle};
use pandora::server::store::ScanStore;

/// Binds an ephemeral-port server and serves it on a background
/// thread; returns (addr, drain handle, join handle).
fn serve(cfg: ServerConfig) -> (SocketAddr, ServerHandle, std::thread::JoinHandle<std::io::Result<()>>) {
    let server = Server::bind("127.0.0.1:0", cfg).expect("bind");
    let addr = server.local_addr().expect("addr");
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run());
    (addr, handle, join)
}

/// One HTTP exchange; returns (status, headers, body).
fn exchange(addr: SocketAddr, raw: &[u8]) -> (u16, String, String) {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(120))).unwrap();
    s.write_all(raw).expect("send");
    let mut resp = Vec::new();
    s.read_to_end(&mut resp).expect("read response");
    let text = String::from_utf8(resp).expect("utf-8 response");
    let (head, body) = text.split_once("\r\n\r\n").expect("header/body split");
    let status: u16 = head
        .split_ascii_whitespace()
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    (status, head.to_string(), body.to_string())
}

fn post_h(
    addr: SocketAddr,
    path: &str,
    headers: &[(&str, &str)],
    body: &str,
) -> (u16, String, String) {
    let mut raw = format!(
        "POST {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n",
        body.len()
    );
    for (name, value) in headers {
        raw.push_str(&format!("{name}: {value}\r\n"));
    }
    raw.push_str("\r\n");
    raw.push_str(body);
    exchange(addr, raw.as_bytes())
}

fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, String, String) {
    post_h(addr, path, &[], body)
}

fn get(addr: SocketAddr, path: &str) -> (u16, String, String) {
    exchange(addr, format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes())
}

fn parse(body: &str) -> Json {
    json::parse(body).unwrap_or_else(|e| panic!("bad JSON response: {e:?}\n{body}"))
}

fn error_code(body: &str) -> String {
    parse(body)
        .get("error")
        .and_then(|e| e.get("code"))
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("no error.code in {body}"))
        .to_string()
}

fn leaking_classes(doc: &Json) -> Vec<String> {
    doc.get("leaking_classes")
        .and_then(Json::as_array)
        .expect("leaking_classes")
        .iter()
        .map(|c| c.as_str().expect("class name").to_string())
        .collect()
}

/// A trivial-but-valid bytecode victim (used where the test is about
/// the service, not the scanner — it scans in microseconds).
const TRIVIAL_JOB: &str = r#"{
    "victim": {
        "maps": [{"elem_size": 8, "len": 8}],
        "insts": [["mov_imm", 0, 1], ["exit"]]
    },
    "secret": {"map": 0, "a": [1,2], "b": [3,4]},
    "trials": 1
}"#;

#[test]
fn scan_service_end_to_end() {
    let cfg = ServerConfig {
        admin_token: Some("e2e-admin".to_string()),
        ..ServerConfig::default()
    };
    let (addr, _handle, join) = serve(cfg);

    // The known-leaky bitsliced-AES victim: the report must name the
    // silent-store and DMP classes with nonzero measured capacity.
    let (status, _, body) = post(addr, "/v1/scan", r#"{"victim":"bsaes","trials":2,"seed":7}"#);
    assert_eq!(status, 200, "{body}");
    let report = parse(&body);
    assert_eq!(report.get("architectural_leak").and_then(Json::as_bool), Some(false));
    let leaking = leaking_classes(&report);
    for class in ["silent-store", "dmp"] {
        assert!(leaking.contains(&class.to_string()), "{class} missing from {leaking:?}");
    }
    for c in report.get("classes").and_then(Json::as_array).expect("classes") {
        let name = c.get("class").and_then(Json::as_str).unwrap();
        let leaks = c.get("leaks").and_then(Json::as_bool).unwrap();
        if leaking.contains(&name.to_string()) {
            assert!(leaks);
            let cap = match c.get("capacity_bits_per_run") {
                Some(Json::Num(n)) => *n,
                other => panic!("capacity missing: {other:?}"),
            };
            assert!(cap > 0.0, "{name} leaks but capacity is 0");
        }
    }

    // The constant-time control: no class may flag it.
    let (status, _, body) = post(addr, "/v1/scan", r#"{"victim":"ct-control","trials":2,"seed":7}"#);
    assert_eq!(status, 200, "{body}");
    let control = parse(&body);
    assert!(leaking_classes(&control).is_empty(), "{body}");
    assert_eq!(control.get("architectural_leak").and_then(Json::as_bool), Some(false));

    // Health reflects the two completed scans; readiness is green.
    let (status, _, body) = get(addr, "/healthz");
    assert_eq!(status, 200);
    let health = parse(&body);
    assert_eq!(health.get("status").and_then(Json::as_str), Some("ok"));
    let jobs = health.get("jobs").expect("jobs");
    assert_eq!(jobs.get("completed").and_then(Json::as_u64), Some(2));
    assert_eq!(get(addr, "/readyz").0, 200);

    // Drain is authenticated: a tenant request without (or with a
    // wrong) admin token cannot shut the service down.
    let (status, _, body) = post(addr, "/v1/drain", "");
    assert_eq!(status, 401, "{body}");
    assert_eq!(error_code(&body), "admin-unauthorized");
    let (status, _, _) = post_h(addr, "/v1/drain", &[("X-Admin-Token", "wrong")], "");
    assert_eq!(status, 401);
    assert_eq!(get(addr, "/readyz").0, 200, "failed drains must not drain");

    // Graceful drain with the token: the endpoint acknowledges, run()
    // returns Ok, and the port stops accepting. Both header forms work;
    // Bearer is the one exercised here.
    let (status, _, _) = post_h(
        addr,
        "/v1/drain",
        &[("Authorization", "Bearer e2e-admin")],
        "",
    );
    assert_eq!(status, 200);
    join.join().expect("server thread").expect("clean drain");
    assert!(TcpStream::connect(addr).is_err(), "listener must be closed after drain");
}

#[test]
fn structured_refusals_for_bad_and_over_quota_requests() {
    let cfg = ServerConfig {
        quota: QuotaConfig {
            burst: 1,
            per_second: 0.001,
            ..QuotaConfig::default()
        },
        ..ServerConfig::default()
    };
    let (addr, handle, join) = serve(cfg);

    // Malformed JSON → 400 envelope.
    let (status, _, body) = post(addr, "/v1/scan", "{nope");
    assert_eq!(status, 400, "{body}");
    assert_eq!(error_code(&body), "bad-request");

    // Unverifiable bytecode → 422 verify-failed.
    let (status, _, body) = post(
        addr,
        "/v1/scan",
        r#"{"victim":{"maps":[{"elem_size":8,"len":8}],
            "insts":[["mov_imm",1,0],["lookup",0,0,1],["load_ind",2,0],["exit"]]},
            "secret":{"map":0,"a":[1],"b":[2]}}"#,
    );
    assert_eq!(status, 422, "{body}");
    assert_eq!(error_code(&body), "verify-failed");

    // Oversized body → 413 before any parsing.
    let huge = format!(
        "POST /v1/scan HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n",
        512 * 1024
    );
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(huge.as_bytes()).unwrap();
    s.write_all(&vec![b'x'; 512 * 1024]).ok();
    let mut resp = String::new();
    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let _ = s.read_to_string(&mut resp);
    assert!(resp.starts_with("HTTP/1.1 413"), "{resp}");

    // Raw garbage → 400 bad-http envelope.
    let (status, _, body) = exchange(addr, b"EAT / GLUE\r\n\r\n");
    assert_eq!(status, 400);
    assert_eq!(error_code(&body), "bad-http");

    // Unknown route / wrong method.
    assert_eq!(get(addr, "/nope").0, 404);
    assert_eq!(get(addr, "/v1/scan").0, 405);

    // Quota: burst of 1 admits the first scan, refuses the second with
    // 429 + Retry-After.
    let (status, _, body) = post(addr, "/v1/scan", TRIVIAL_JOB);
    assert_eq!(status, 200, "{body}");
    let (status, head, body) = post(addr, "/v1/scan", TRIVIAL_JOB);
    assert_eq!(status, 429, "{body}");
    assert_eq!(error_code(&body), "quota-exhausted");
    assert!(head.contains("Retry-After:"), "{head}");

    // In open mode identity is the peer IP: declaring a fresh tenant
    // name in the body does not mint a fresh quota bucket.
    let rotated = TRIVIAL_JOB.replacen('{', "{\"tenant\":\"fresh-name\",", 1);
    let (status, _, body) = post(addr, "/v1/scan", &rotated);
    assert_eq!(status, 429, "rotating names must not bypass quota: {body}");

    // With no admin token configured, the drain endpoint is disabled
    // outright — no request shuts this server down.
    let (status, _, body) = post(addr, "/v1/drain", "");
    assert_eq!(status, 403, "{body}");
    assert_eq!(error_code(&body), "admin-disabled");
    assert_eq!(get(addr, "/readyz").0, 200);

    handle.drain();
    join.join().unwrap().unwrap();
}

#[test]
fn supervision_isolates_panics_and_wedges_and_trips_the_breaker() {
    let cfg = ServerConfig {
        allow_selftest: true,
        job_deadline_ms: 400,
        quota: QuotaConfig {
            burst: 10,
            per_second: 10.0,
            breaker_threshold: 2,
            breaker_cooldown_ms: 60_000,
            ..QuotaConfig::default()
        },
        api_keys: vec![
            ("key-alice".to_string(), "alice".to_string()),
            ("key-bob".to_string(), "bob".to_string()),
        ],
        ..ServerConfig::default()
    };
    let (addr, handle, join) = serve(cfg);
    let as_alice: &[(&str, &str)] = &[("X-Api-Key", "key-alice")];
    let as_bob: &[(&str, &str)] = &[("X-Api-Key", "key-bob")];

    // With API keys configured, unauthenticated and forged-key scans
    // are refused before any admission or scanning.
    let (status, _, body) = post(addr, "/v1/scan", TRIVIAL_JOB);
    assert_eq!(status, 401, "{body}");
    assert_eq!(error_code(&body), "auth-required");
    let (status, _, _) = post_h(addr, "/v1/scan", &[("X-Api-Key", "nope")], TRIVIAL_JOB);
    assert_eq!(status, 401);

    // Tenant identity comes from the key; a body claiming someone
    // else's tenant is a 403, not an identity swap.
    let (status, _, body) = post_h(
        addr,
        "/v1/scan",
        as_alice,
        r#"{"tenant":"bob","victim":"selftest-panic"}"#,
    );
    assert_eq!(status, 403, "{body}");
    assert_eq!(error_code(&body), "tenant-mismatch");

    // A panicking scan is isolated into a structured 500.
    let (status, _, body) = post_h(addr, "/v1/scan", as_alice, r#"{"victim":"selftest-panic","seed":1}"#);
    assert_eq!(status, 500, "{body}");
    assert_eq!(error_code(&body), "scan-panicked");

    // Second consecutive panic trips the tenant's breaker...
    let (status, _, _) = post_h(addr, "/v1/scan", as_alice, r#"{"victim":"selftest-panic","seed":2}"#);
    assert_eq!(status, 500);

    // ...so the next request is refused with 503 + Retry-After.
    let (status, head, body) = post_h(addr, "/v1/scan", as_alice, TRIVIAL_JOB);
    assert_eq!(status, 503, "{body}");
    assert_eq!(error_code(&body), "breaker-open");
    assert!(head.contains("Retry-After:"), "{head}");

    // A different tenant is unaffected — and a wedged scan for it is
    // abandoned at the deadline with a 504, not a hung worker.
    let (status, _, body) = post_h(
        addr,
        "/v1/scan",
        as_bob,
        r#"{"tenant":"bob","victim":"selftest-wedge"}"#,
    );
    assert_eq!(status, 504, "{body}");
    assert_eq!(error_code(&body), "deadline-exceeded");

    // The pool survived all of it: a healthy scan still completes, and
    // health reports the supervision counters and open breaker.
    let bob_job = r#"{
        "tenant": "bob",
        "victim": {"maps": [{"elem_size": 8, "len": 8}],
                   "insts": [["mov_imm", 0, 1], ["exit"]]},
        "secret": {"map": 0, "a": [1,2], "b": [3,4]},
        "trials": 1
    }"#;
    let (status, _, body) = post_h(addr, "/v1/scan", as_bob, bob_job);
    assert_eq!(status, 200, "{body}");
    let (_, _, body) = get(addr, "/healthz");
    let health = parse(&body);
    let jobs = health.get("jobs").expect("jobs");
    assert_eq!(jobs.get("supervised_panics").and_then(Json::as_u64), Some(2));
    assert_eq!(jobs.get("supervised_timeouts").and_then(Json::as_u64), Some(1));
    let breakers = health.get("breakers_open").and_then(Json::as_array).unwrap();
    assert_eq!(breakers.len(), 1);
    assert_eq!(breakers[0].as_str(), Some("alice"));

    handle.drain();
    join.join().unwrap().unwrap();
}

#[test]
fn a_full_admission_queue_sheds_with_503() {
    // Depth 0 makes every connection surplus: the accept loop must
    // shed each one immediately with 503 + Retry-After, never parking
    // or parsing it.
    let cfg = ServerConfig {
        queue_depth: 0,
        ..ServerConfig::default()
    };
    let (addr, handle, join) = serve(cfg);
    let (status, head, body) = post(addr, "/v1/scan", TRIVIAL_JOB);
    assert_eq!(status, 503, "{body}");
    assert_eq!(error_code(&body), "queue-full");
    assert!(head.contains("Retry-After:"), "{head}");
    handle.drain();
    join.join().unwrap().unwrap();
}

#[test]
fn scan_failures_are_422_scan_failed() {
    // A 200-cycle budget lets the functional reference run take
    // 4 x 200 instructions (the pipeline commits at most 4 a cycle).
    let cfg = ServerConfig {
        limits: ScanLimits {
            max_cycles: 200,
            ..ScanLimits::default()
        },
        ..ServerConfig::default()
    };
    let (addr, handle, join) = serve(cfg);
    let detail = |body: &str| {
        parse(body)
            .get("error")
            .and_then(|e| e.get("detail"))
            .and_then(Json::as_str)
            .map(str::to_string)
    };

    // A verified victim that never halts fails in the functional
    // reference run, reported as baseline's trial 0.
    let (status, _, body) = post(
        addr,
        "/v1/scan",
        r#"{"victim":{"maps":[{"elem_size":8,"len":1}],"insts":[["jmp",0]]},
            "secret":{"map":0,"a":[1],"b":[2]},"trials":1}"#,
    );
    assert_eq!(status, 422, "{body}");
    assert_eq!(error_code(&body), "scan-failed");
    assert_eq!(
        detail(&body).as_deref(),
        Some(
            "scan member failed (class baseline, trial 0, reference run): \
             functional run failed: no halt within 800 steps"
        )
    );

    // 100 dependent multiplies: about 400 instructions, so the victim
    // halts functionally, but at 4 cycles a multiply the pipeline runs
    // out of cycles in the first AA run.
    let (status, _, body) = post(
        addr,
        "/v1/scan",
        r#"{"victim":{"maps":[{"elem_size":8,"len":1}],
            "insts":[["mov_imm",1,0],["mov_imm",2,3],["alu","mul",2,"reg",2],
                     ["alu","add",1,"imm",1],["jmp_if","lt",1,"imm",100,2],["exit"]]},
            "secret":{"map":0,"a":[1],"b":[2]},"trials":1}"#,
    );
    assert_eq!(status, 422, "{body}");
    assert_eq!(error_code(&body), "scan-failed");
    assert_eq!(
        detail(&body).as_deref(),
        Some(
            "scan member failed (class baseline, trial 0, aa run): \
             member failed: no halt within 200 cycles"
        )
    );

    let (_, _, body) = get(addr, "/healthz");
    let jobs = parse(&body).get("jobs").cloned().expect("jobs");
    assert_eq!(jobs.get("failed").and_then(Json::as_u64), Some(2));

    handle.drain();
    join.join().unwrap().unwrap();
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("pandora-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Byte-level snapshot of a results directory.
fn dir_bytes(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .expect("results dir")
        .map(|e| {
            let e = e.unwrap();
            (
                e.file_name().to_string_lossy().into_owned(),
                std::fs::read(e.path()).unwrap(),
            )
        })
        .collect();
    files.sort();
    files
}

fn run_one_scan_server(dir: &Path, body: &str) -> String {
    let cfg = ServerConfig {
        data_dir: Some(dir.to_path_buf()),
        ..ServerConfig::default()
    };
    let (addr, handle, join) = serve(cfg);
    let (status, _, resp) = post(addr, "/v1/scan", body);
    assert_eq!(status, 200, "{resp}");
    handle.drain();
    join.join().unwrap().unwrap();
    resp
}

#[test]
fn chaos_killed_publish_recovers_byte_identically() {
    let job = r#"{"victim":"bsaes","trials":1,"seed":3}"#;

    // Clean run: serve one scan to completion, journaled and published.
    let clean = tmpdir("clean");
    let report = run_one_scan_server(&clean, job);
    let baseline = dir_bytes(&clean);
    assert_eq!(baseline.len(), 2, "journal + one report: {baseline:?}");

    // Chaos run: the same store suffers a simulated kill mid-publish —
    // a torn temp file hits the disk and the journal never records the
    // scan (the store's ordering invariant). Chaos fail-points are
    // thread-local, so the kill is injected around a direct store
    // publish on this thread: exactly the write path the server's
    // worker runs.
    let crashed = tmpdir("crashed");
    {
        let mut store = ScanStore::open(&crashed).expect("open store");
        let guard = chaos::install(&ChaosPlan::single(
            Site::PublishTmpWrite,
            0,
            ChaosKind::TornWriteCrash { keep: 7 },
        ));
        let err = store.publish("scan-torn", &report).expect_err("kill fires");
        assert!(chaos::is_sim_kill(&err), "unexpected error: {err}");
        assert_eq!(guard.stats().injected, 1);
    }
    // The torn temp file is on disk; nothing is journaled.
    assert!(
        std::fs::read_dir(&crashed).unwrap().count() > 1,
        "expected journal + torn tmp debris"
    );
    let store = ScanStore::open(&crashed).expect("recovery open");
    assert!(store.is_empty(), "torn publish must not count as done");
    drop(store);

    // Restart: a fresh server on the crashed directory re-runs the
    // same job; recovery swept the debris and the results directory
    // ends byte-identical to the clean run's.
    let report2 = run_one_scan_server(&crashed, job);
    assert_eq!(report, report2, "reports must be deterministic");
    assert_eq!(dir_bytes(&crashed), baseline, "recovered dir must match clean run");
}

/// Submitting the same job twice with a store serves the second from
/// the journaled cache (and survives a server restart).
#[test]
fn journaled_reports_are_served_from_cache_across_restarts() {
    let dir = tmpdir("cache");
    let first = run_one_scan_server(&dir, TRIVIAL_JOB);

    let cfg = ServerConfig {
        data_dir: Some(dir.clone()),
        ..ServerConfig::default()
    };
    let (addr, handle, join) = serve(cfg);
    let (status, _, body) = post(addr, "/v1/scan", TRIVIAL_JOB);
    assert_eq!(status, 200);
    assert_eq!(body, first, "cached report must be byte-identical");
    let (_, _, health) = get(addr, "/healthz");
    let health = parse(&health);
    assert_eq!(
        health.get("jobs").and_then(|j| j.get("cached")).and_then(Json::as_u64),
        Some(1)
    );
    handle.drain();
    join.join().unwrap().unwrap();
}

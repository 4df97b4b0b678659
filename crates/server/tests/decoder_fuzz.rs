//! Fixed-seed fuzzing of the service's request decoders: arbitrary and
//! mutated-valid bytes go into [`http::read_request`] and
//! [`job::parse_job`], and each must return a value or a structured
//! error — never panic. (The JSON codec under both is fuzzed in
//! `pandora_runner::json`'s own tests.) The vendored proptest does not
//! shrink, so a failure prints the generated input as is; pin it as a
//! regression test before fixing the decoder.

use std::io::Cursor;
use std::panic::{self, AssertUnwindSafe};

use pandora_server::http::{self, HttpLimits};
use pandora_server::job;
use pandora_server::ScanLimits;
use proptest::prelude::*;

/// Structural bytes of HTTP heads and JSON bodies: mutations insert
/// these half the time, so edits reach the parsers' deeper branches
/// instead of failing on the first byte.
const TOKENS: &[u8] = b"\r\n:{}[]\",-0123456789 eE.";

/// Applies `edits` to `seed`. Each edit overwrites, inserts or deletes
/// one byte at a position taken modulo the current length, or cuts the
/// input there.
fn mutate(seed: &[u8], edits: &[(u8, u16, u8)]) -> Vec<u8> {
    let mut v = seed.to_vec();
    for &(op, at, byte) in edits {
        let at = if v.is_empty() { 0 } else { usize::from(at) % v.len() };
        let byte = if byte & 1 == 0 {
            TOKENS[usize::from(byte >> 1) % TOKENS.len()]
        } else {
            byte
        };
        match op % 4 {
            0 if !v.is_empty() => v[at] = byte,
            1 => v.insert(at, byte),
            2 if !v.is_empty() => {
                v.remove(at);
            }
            3 => v.truncate(at),
            _ => {}
        }
    }
    v
}

fn edits() -> impl Strategy<Value = Vec<(u8, u16, u8)>> {
    prop::collection::vec((any::<u8>(), any::<u16>(), any::<u8>()), 1..8)
}

/// Valid scan-job bodies: a built-in victim and two bytecode victims.
fn job_seeds() -> [String; 3] {
    [
        r#"{"victim": "ct-control", "trials": 1, "seed": 7, "tenant": "alice"}"#.to_string(),
        r#"{"victim": {"maps": [{"name": "t", "elem_size": 8, "len": 16}],
                       "insts": [["mov_imm", 1, 0], ["lookup", 0, 0, 1],
                                 ["jmp_if", "eq", 0, "imm", 0, 4], ["load_ind", 2, 0],
                                 ["exit"]]},
            "secret": {"map": 0, "a": [1, 2, 3, 4], "b": [5, 6, 7, 8]},
            "inputs": [{"map": 0, "bytes": [0, 0, 0, 0, 0, 0, 0, 0]}], "trials": 2}"#
            .to_string(),
        r#"{"victim": {"maps": [{"elem_size": 8, "len": 4}, {"elem_size": 8, "len": 16}],
                       "insts": [["mov_imm", 1, 0], ["mov_reg", 5, 1], ["alu", "and", 5, "imm", 3],
                                 ["lookup", 0, 0, 5], ["jmp_if", "eq", 0, "imm", 0, 12],
                                 ["load_ind", 2, 0], ["lookup", 3, 1, 1],
                                 ["jmp_if", "eq", 3, "imm", 0, 12], ["store_ind", 3, 2],
                                 ["alu", "add", 1, "imm", 1], ["jmp_if", "lt", 1, "imm", 16, 1],
                                 ["mov_imm", 0, 0], ["exit"]]},
            "secret": {"map": 0, "a": [3, 1, 4, 1, 5, 9, 2, 6], "b": [2, 7, 1, 8, 2, 8, 1, 8]}}"#
            .to_string(),
    ]
}

/// Valid requests: a bodiless GET, a scan POST, and an HTTP/1.0 POST
/// with bare-LF line ends.
fn request_seeds() -> [Vec<u8>; 3] {
    let body = r#"{"victim": "ct-control", "trials": 1}"#;
    [
        b"GET /healthz HTTP/1.1\r\nHost: localhost\r\n\r\n".to_vec(),
        format!(
            "POST /v1/scan?x=1 HTTP/1.1\r\nHost: h\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .into_bytes(),
        b"POST /v1/drain HTTP/1.0\nContent-Length: 2\n\n{}".to_vec(),
    ]
}

/// Reads one request from `bytes`, failing the case if the reader
/// panics or returns a request that breaks its own limits.
fn check_request(bytes: &[u8]) -> Result<(), TestCaseError> {
    let limits = HttpLimits {
        max_head_bytes: 512,
        max_body_bytes: 1024,
        // No wall-clock deadline: a case's outcome depends on its bytes
        // alone.
        max_request_ms: 0,
    };
    let read = panic::catch_unwind(|| http::read_request(&mut Cursor::new(bytes), &limits));
    prop_assert!(read.is_ok(), "read_request panicked");
    match read.expect("checked above") {
        Ok(req) => {
            prop_assert!(!req.method.is_empty() && req.method.bytes().all(|b| b.is_ascii_uppercase()));
            prop_assert!(req.path.starts_with('/'));
            prop_assert!(req.body.len() <= limits.max_body_bytes);
        }
        Err(e) => prop_assert!(
            [0, 400, 411, 413, 431].contains(&e.status()),
            "unexpected status {} ({})",
            e.status(),
            e.detail()
        ),
    }
    Ok(())
}

/// Parses one job body, failing the case if the parser panics or
/// refuses with anything but a 400 or a 422.
fn check_job(body: &[u8]) -> Result<(), TestCaseError> {
    let limits = ScanLimits::default();
    let parsed = panic::catch_unwind(AssertUnwindSafe(|| job::parse_job(body, &limits, false)));
    prop_assert!(parsed.is_ok(), "parse_job panicked");
    if let Err(e) = parsed.expect("checked above") {
        prop_assert!(e.status == 400 || e.status == 422, "unexpected status {}: {}", e.status, e.detail);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn arbitrary_bytes_never_panic_the_http_reader(bytes in prop::collection::vec(any::<u8>(), 0..600)) {
        check_request(&bytes)?;
    }

    #[test]
    fn mutated_requests_never_panic_the_http_reader(seed in 0..3usize, edits in edits()) {
        check_request(&mutate(&request_seeds()[seed], &edits))?;
    }

    #[test]
    fn arbitrary_bytes_never_panic_the_job_parser(bytes in prop::collection::vec(any::<u8>(), 0..300)) {
        check_job(&bytes)?;
    }

    #[test]
    fn mutated_jobs_never_panic_the_job_parser(seed in 0..3usize, edits in edits()) {
        check_job(&mutate(job_seeds()[seed].as_bytes(), &edits))?;
    }
}

#[test]
fn every_seed_is_accepted_unmutated() {
    for seed in request_seeds() {
        let req = http::read_request(&mut Cursor::new(&seed), &HttpLimits::default());
        assert!(req.is_ok(), "{:?}", String::from_utf8_lossy(&seed));
    }
    for seed in job_seeds() {
        let job = job::parse_job(seed.as_bytes(), &ScanLimits::default(), false);
        assert!(job.is_ok(), "{seed}: {:?}", job.err());
    }
}

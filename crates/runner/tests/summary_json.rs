//! Golden bytes of `summary.json` and `summary.canonical.json`: a fixed
//! [`SuiteReport`] covering every [`Status`] kind, a reason that needs
//! escaping, non-empty health lists and an empty experiment list must
//! render exactly as pinned here. Both documents must also parse back
//! through the workspace JSON codec.

use std::time::Duration;

use pandora_runner::json::{self, Json};
use pandora_runner::{ExperimentReport, Profile, Status, SuiteHealth, SuiteReport};

fn row(name: &str, status: Status, wall_ms: u64, hash: u64, bytes: u64) -> ExperimentReport {
    ExperimentReport {
        name: name.to_string(),
        status,
        wall: Duration::from_millis(wall_ms),
        retries: 0,
        resumed: false,
        reverified: false,
        output_hash: hash,
        output_bytes: bytes,
    }
}

fn full_report() -> SuiteReport {
    let mut resumed = row("table1", Status::Ok, 1234, 0x0123_4567_89ab_cdef, 4096);
    resumed.resumed = true;
    let mut reverified = row("fig5_amplification", Status::Ok, 77, 0xfeed, 12);
    reverified.reverified = true;
    let mut partial = row(
        "fig6_bsaes_hist",
        Status::Partial {
            reason: "panicked after 2 attempt(s): \"boom\"\nline two\u{1} \\ end".to_string(),
        },
        5,
        0,
        0,
    );
    partial.retries = 1;
    SuiteReport {
        profile: Profile::Smoke,
        seed: 0xe16,
        jobs: 2,
        run_hash: 0xdead_beef_0bad_f00d,
        experiments: vec![
            resumed,
            reverified,
            partial,
            row(
                "wedger",
                Status::Degraded {
                    reason: "circuit breaker opened".to_string(),
                },
                0,
                u64::MAX,
                1,
            ),
            row(
                "e17_scan_service",
                Status::Failed {
                    reason: "determinism re-verification failed".to_string(),
                },
                3,
                0x1,
                2,
            ),
        ],
        health: SuiteHealth {
            worker_restarts: 1,
            workers_abandoned: 2,
            breakers_open: vec!["wedger".to_string(), "q\"uote".to_string()],
            admission_deferrals: 3,
            journal_degraded: true,
            publish_failures: 4,
            faults_injected: 5,
            faults_survived: 4,
            fault_kinds: vec!["eio", "short-write"],
            io_ops: 99,
            ops_by_site: vec![("journal.append", 7)],
        },
    }
}

fn empty_report() -> SuiteReport {
    SuiteReport {
        profile: Profile::Full,
        seed: 0,
        jobs: 1,
        run_hash: 0,
        experiments: Vec::new(),
        health: SuiteHealth::default(),
    }
}

const FULL_JSON: &str = r##"{
  "version": 1,
  "profile": "smoke",
  "seed": "0x0000000000000e16",
  "run_hash": "0xdeadbeef0badf00d",
  "jobs": 2,
  "health": {"worker_restarts": 1, "workers_abandoned": 2, "breakers_open": ["wedger", "q\"uote"], "admission_deferrals": 3, "journal_degraded": true, "publish_failures": 4, "faults_injected": 5, "faults_survived": 4, "fault_kinds": ["eio", "short-write"], "io_ops": 99},
  "experiments": [
    {"name": "table1", "status": "ok", "partial": false, "wall_ms": 1234, "retries": 0, "resumed": true, "reverified": false, "output_hash": "0x0123456789abcdef", "output_bytes": 4096},
    {"name": "fig5_amplification", "status": "ok", "partial": false, "wall_ms": 77, "retries": 0, "resumed": false, "reverified": true, "output_hash": "0x000000000000feed", "output_bytes": 12},
    {"name": "fig6_bsaes_hist", "status": "partial", "partial": true, "reason": "panicked after 2 attempt(s): \"boom\"\nline two\u0001 \\ end", "wall_ms": 5, "retries": 1, "resumed": false, "reverified": false, "output_hash": "0x0000000000000000", "output_bytes": 0},
    {"name": "wedger", "status": "degraded", "partial": false, "reason": "circuit breaker opened", "wall_ms": 0, "retries": 0, "resumed": false, "reverified": false, "output_hash": "0xffffffffffffffff", "output_bytes": 1},
    {"name": "e17_scan_service", "status": "failed", "partial": false, "reason": "determinism re-verification failed", "wall_ms": 3, "retries": 0, "resumed": false, "reverified": false, "output_hash": "0x0000000000000001", "output_bytes": 2}
  ]
}
"##;

const FULL_CANONICAL: &str = r##"{
  "version": 1,
  "profile": "smoke",
  "seed": "0x0000000000000e16",
  "run_hash": "0xdeadbeef0badf00d",
  "experiments": [
    {"name": "table1", "status": "ok", "output_hash": "0x0123456789abcdef", "output_bytes": 4096},
    {"name": "fig5_amplification", "status": "ok", "output_hash": "0x000000000000feed", "output_bytes": 12},
    {"name": "fig6_bsaes_hist", "status": "partial", "output_hash": "0x0000000000000000", "output_bytes": 0},
    {"name": "wedger", "status": "degraded", "output_hash": "0xffffffffffffffff", "output_bytes": 1},
    {"name": "e17_scan_service", "status": "failed", "output_hash": "0x0000000000000001", "output_bytes": 2}
  ]
}
"##;

const EMPTY_JSON: &str = r##"{
  "version": 1,
  "profile": "full",
  "seed": "0x0000000000000000",
  "run_hash": "0x0000000000000000",
  "jobs": 1,
  "health": {"worker_restarts": 0, "workers_abandoned": 0, "breakers_open": [], "admission_deferrals": 0, "journal_degraded": false, "publish_failures": 0, "faults_injected": 0, "faults_survived": 0, "fault_kinds": [], "io_ops": 0},
  "experiments": [
  ]
}
"##;

const EMPTY_CANONICAL: &str = r##"{
  "version": 1,
  "profile": "full",
  "seed": "0x0000000000000000",
  "run_hash": "0x0000000000000000",
  "experiments": [
  ]
}
"##;

#[test]
fn summary_bytes_are_pinned() {
    let full = full_report();
    assert_eq!(full.to_json(), FULL_JSON);
    assert_eq!(full.to_json_canonical(), FULL_CANONICAL);
    let empty = empty_report();
    assert_eq!(empty.to_json(), EMPTY_JSON);
    assert_eq!(empty.to_json_canonical(), EMPTY_CANONICAL);
}

#[test]
fn summaries_parse_back_through_the_codec() {
    let doc = json::parse(FULL_JSON).expect("summary.json parses");
    let rows = doc.get("experiments").and_then(Json::as_array).unwrap();
    assert_eq!(rows.len(), 5);
    assert_eq!(
        rows[2].get("reason").and_then(Json::as_str),
        Some("panicked after 2 attempt(s): \"boom\"\nline two\u{1} \\ end")
    );
    let open = doc
        .get("health")
        .and_then(|h| h.get("breakers_open"))
        .unwrap();
    assert_eq!(
        open,
        &Json::Arr(vec![Json::from("wedger"), Json::from("q\"uote")])
    );
    for text in [FULL_CANONICAL, EMPTY_JSON, EMPTY_CANONICAL] {
        json::parse(text).expect("summary document parses");
    }
}

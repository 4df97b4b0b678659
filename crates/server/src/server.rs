//! The service core: a bounded supervised worker pool behind a
//! `TcpListener`, with per-tenant admission control, per-job
//! deadlines, journaled report persistence, and a graceful drain
//! protocol.
//!
//! ## Degradation ladder
//!
//! Under stress the server sheds load in structured steps rather than
//! falling over:
//!
//! 1. **Wire limits** — oversized heads/bodies and malformed HTTP get
//!    4xx envelopes without touching a scanner; a whole-request read
//!    deadline (408) bounds slow-loris clients that per-read socket
//!    timeouts alone never would.
//! 2. **Quota** — a tenant over its token bucket gets 429 +
//!    `Retry-After`.
//! 3. **Queue** — when the bounded connection queue is full, new
//!    connections get an immediate 503 + `Retry-After` (shed at
//!    accept, before any parsing).
//! 4. **Deadline** — every scan runs through the runner's one deadline
//!    primitive, [`pandora_runner::supervised::run`]: a scan that
//!    outlives its wall-clock budget is abandoned (504) on its
//!    detached thread, a panicking scan is collected into a 500, and a
//!    refused scan thread is a 503 + `Retry-After` that costs the pool
//!    worker nothing.
//! 5. **Breaker** — repeated panics/deadlines from one tenant open a
//!    per-tenant circuit breaker: subsequent jobs get 503 until the
//!    cooldown lapses.
//! 6. **Drain** — an *authenticated* drain request (admin token) or a
//!    [`ServerHandle::drain`] call stops the accept loop; queued
//!    requests finish (journaled if a store is configured) and
//!    [`Server::run`] returns `Ok(())` so the process can exit 0. With
//!    no admin token configured, `POST /v1/drain` is disabled: a
//!    tenant-reachable port must not expose an unauthenticated
//!    shutdown switch.

use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use pandora_runner::supervised::{self, Supervised};

use crate::http::{read_request, write_json_response, HttpLimits, Request};
use crate::job::{job_name, parse_job, ApiError, JobKind};
use crate::json::{obj, Json};
use crate::quota::{Admission, QuotaConfig, Refusal};
use crate::scan::{run_scan, ScanLimits};
use crate::store::ScanStore;

/// Everything configurable about one server instance.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Worker threads handling requests (each runs at most one scan).
    pub threads: usize,
    /// Bounded admission queue depth; beyond it, connections shed.
    pub queue_depth: usize,
    /// Fleet threads per scan (1 keeps one scan on one core).
    pub scan_threads: usize,
    /// Job resource caps.
    pub limits: ScanLimits,
    /// Wire limits.
    pub http: HttpLimits,
    /// Per-tenant quota and breaker policy.
    pub quota: QuotaConfig,
    /// Per-job wall-clock deadline, milliseconds.
    pub job_deadline_ms: u64,
    /// Socket read/write timeout, milliseconds.
    pub io_timeout_ms: u64,
    /// Report store directory; `None` disables persistence.
    pub data_dir: Option<PathBuf>,
    /// Enables the crash/wedge self-test victims (tests only).
    pub allow_selftest: bool,
    /// Shared secret for `POST /v1/drain` (`Authorization: Bearer
    /// <token>` or `X-Admin-Token`). `None` disables the endpoint
    /// entirely (403): drain is then signal/handle-only. A shutdown
    /// switch must never sit unauthenticated on the tenant port.
    pub admin_token: Option<String>,
    /// `(key, tenant)` API-key table. Non-empty: every scan must
    /// present a known `X-Api-Key`, and the tenant identity is the
    /// key's mapping — not whatever name the body claims. Empty (open
    /// mode): tenant identity derives from the peer IP, so rotating
    /// declared names cannot mint fresh quotas or dodge a breaker.
    pub api_keys: Vec<(String, String)>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            threads: 2,
            queue_depth: 8,
            scan_threads: 1,
            limits: ScanLimits::default(),
            http: HttpLimits::default(),
            quota: QuotaConfig::default(),
            job_deadline_ms: 60_000,
            io_timeout_ms: 5_000,
            data_dir: None,
            allow_selftest: false,
            admin_token: None,
            api_keys: Vec::new(),
        }
    }
}

#[derive(Debug, Default)]
struct Stats {
    received: u64,
    completed: u64,
    cached: u64,
    failed: u64,
    shed: u64,
    refused: u64,
    http_errors: u64,
    supervised_panics: u64,
    supervised_timeouts: u64,
}

struct State {
    admission: Admission,
    stats: Stats,
    store: Option<ScanStore>,
}

struct Shared {
    cfg: ServerConfig,
    started: Instant,
    draining: AtomicBool,
    state: Mutex<State>,
    queue: Mutex<VecDeque<TcpStream>>,
    queue_cv: Condvar,
}

impl Shared {
    fn now_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }
}

/// A handle for telling a running server to drain from another thread.
#[derive(Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// Begins a graceful drain: stop accepting, finish queued work,
    /// make [`Server::run`] return.
    pub fn drain(&self) {
        self.shared.draining.store(true, Ordering::SeqCst);
        self.shared.queue_cv.notify_all();
    }
}

/// A bound-but-not-yet-running server.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and opens the
    /// report store if configured.
    ///
    /// # Errors
    ///
    /// Bind or store-recovery I/O errors.
    pub fn bind(addr: &str, cfg: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let store = match &cfg.data_dir {
            Some(dir) => Some(ScanStore::open(dir)?),
            None => None,
        };
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                admission: Admission::new(cfg.quota),
                stats: Stats::default(),
                store,
            }),
            cfg,
            started: Instant::now(),
            draining: AtomicBool::new(false),
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
        });
        Ok(Server { listener, shared })
    }

    /// The bound address (the actual port when bound with port 0).
    ///
    /// # Errors
    ///
    /// Propagates the socket query failure.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A drain handle usable from other threads.
    #[must_use]
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Serves until drained. Worker panics are supervised per-job;
    /// this only returns `Err` on listener-level I/O failures and a
    /// refused worker thread.
    ///
    /// # Errors
    ///
    /// Listener configuration failures (accept-loop errors are
    /// per-connection and absorbed), and the OS refusing a worker
    /// thread: the server then accepts nothing, and the workers already
    /// started are drained and joined before the error returns.
    pub fn run(self) -> io::Result<()> {
        self.listener.set_nonblocking(true)?;
        let mut workers = Vec::new();
        let mut refused = None;
        for i in 0..self.shared.cfg.threads.max(1) {
            let shared = Arc::clone(&self.shared);
            let spawned = std::thread::Builder::new()
                .name(format!("pandora-worker-{i}"))
                .spawn(move || worker_loop(&shared));
            match spawned {
                Ok(w) => workers.push(w),
                Err(e) => {
                    self.shared.draining.store(true, Ordering::SeqCst);
                    refused = Some(e);
                    break;
                }
            }
        }

        while !self.shared.draining.load(Ordering::SeqCst) {
            match self.listener.accept() {
                Ok((stream, _)) => self.admit_connection(stream),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(_) => std::thread::sleep(Duration::from_millis(10)),
            }
        }
        drop(self.listener); // close the socket before finishing queued work
        self.shared.queue_cv.notify_all();
        for w in workers {
            // A worker that panicked outside job supervision is a bug,
            // but drain must still complete; absorb it.
            let _ = w.join();
        }
        refused.map_or(Ok(()), Err)
    }

    /// Queues a fresh connection or sheds it with an immediate 503.
    fn admit_connection(&self, stream: TcpStream) {
        let timeout = Duration::from_millis(self.shared.cfg.io_timeout_ms.max(1));
        let _ = stream.set_read_timeout(Some(timeout));
        let _ = stream.set_write_timeout(Some(timeout));
        let mut q = self.shared.queue.lock().unwrap_or_else(|p| p.into_inner());
        if q.len() >= self.shared.cfg.queue_depth {
            drop(q);
            let mut s = stream;
            lock_state(&self.shared).stats.shed += 1;
            let e = ApiError {
                status: 503,
                code: "queue-full",
                detail: "admission queue full; retry later".to_string(),
                retry_after_ms: Some(1000),
            };
            let _ = write_json_response(&mut s, e.status, e.retry_after_ms, &e.to_json().dump());
            // Consume whatever the client was mid-sending before the
            // socket drops: closing with unread data would RST the
            // connection under the 503 we just wrote. The drain runs on
            // the accept thread, so it is strictly bounded — a client
            // trickling bytes must not be able to park the listener.
            let _ = s.shutdown(std::net::Shutdown::Write);
            let _ = s.set_read_timeout(Some(Duration::from_millis(50)));
            let started = Instant::now();
            let mut sink = [0u8; 1024];
            let mut drained = 0usize;
            while drained < 16 * 1024 && started.elapsed() < Duration::from_millis(250) {
                match io::Read::read(&mut s, &mut sink) {
                    Ok(n) if n > 0 => drained += n,
                    _ => break,
                }
            }
            return;
        }
        q.push_back(stream);
        self.shared.queue_cv.notify_one();
    }
}

fn lock_state(shared: &Shared) -> std::sync::MutexGuard<'_, State> {
    shared.state.lock().unwrap_or_else(|p| p.into_inner())
}

fn worker_loop(shared: &Shared) {
    loop {
        let stream = {
            let mut q = shared.queue.lock().unwrap_or_else(|p| p.into_inner());
            loop {
                if let Some(s) = q.pop_front() {
                    break Some(s);
                }
                if shared.draining.load(Ordering::SeqCst) {
                    break None;
                }
                let (guard, _) = shared
                    .queue_cv
                    .wait_timeout(q, Duration::from_millis(100))
                    .unwrap_or_else(|p| p.into_inner());
                q = guard;
            }
        };
        match stream {
            Some(mut s) => handle_connection(shared, &mut s),
            None => return,
        }
    }
}

fn respond_error(stream: &mut TcpStream, e: &ApiError) {
    let _ = write_json_response(stream, e.status, e.retry_after_ms, &e.to_json().dump());
}

fn handle_connection(shared: &Shared, stream: &mut TcpStream) {
    let req = match read_request(stream, &shared.cfg.http) {
        Ok(r) => r,
        Err(e) => {
            lock_state(shared).stats.http_errors += 1;
            let status = e.status();
            if status != 0 {
                respond_error(
                    stream,
                    &ApiError {
                        status,
                        code: "bad-http",
                        detail: e.detail(),
                        retry_after_ms: None,
                    },
                );
            }
            return;
        }
    };
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => {
            let body = health_json(shared).dump();
            let _ = write_json_response(stream, 200, None, &body);
        }
        ("GET", "/readyz") => {
            let draining = shared.draining.load(Ordering::SeqCst);
            let status = if draining { 503 } else { 200 };
            let body = obj(vec![("ready", Json::Bool(!draining))]).dump();
            let _ = write_json_response(stream, status, None, &body);
        }
        ("POST", "/v1/drain") => match authorize_admin(shared, &req) {
            Ok(()) => {
                shared.draining.store(true, Ordering::SeqCst);
                shared.queue_cv.notify_all();
                let _ = write_json_response(
                    stream,
                    200,
                    None,
                    &obj(vec![("draining", Json::Bool(true))]).dump(),
                );
            }
            Err(e) => respond_error(stream, &e),
        },
        ("POST", "/v1/scan") => handle_scan(shared, stream, &req),
        (_, "/healthz" | "/readyz" | "/v1/drain" | "/v1/scan") => {
            respond_error(stream, &ApiError {
                status: 405,
                code: "method-not-allowed",
                detail: format!("{} not supported here", req.method),
                retry_after_ms: None,
            });
        }
        _ => {
            respond_error(stream, &ApiError {
                status: 404,
                code: "not-found",
                detail: format!("no route {}", req.path),
                retry_after_ms: None,
            });
        }
    }
}

/// Checks the shared admin secret on a drain request. With no token
/// configured the endpoint is disabled outright — the only drain paths
/// are then [`ServerHandle::drain`] and process signals, so a tenant
/// request can never shut the service down.
fn authorize_admin(shared: &Shared, req: &Request) -> Result<(), ApiError> {
    let Some(expected) = shared.cfg.admin_token.as_deref() else {
        return Err(ApiError {
            status: 403,
            code: "admin-disabled",
            detail: "no admin token configured; drain via signal or handle only".to_string(),
            retry_after_ms: None,
        });
    };
    let presented = req
        .header("x-admin-token")
        .or_else(|| req.header("authorization")?.strip_prefix("Bearer "));
    // Constant-time-ish comparison: fold the whole string rather than
    // short-circuiting on the first mismatching byte.
    let ok = presented.is_some_and(|p| {
        p.len() == expected.len()
            && p.bytes()
                .zip(expected.bytes())
                .fold(0u8, |acc, (a, b)| acc | (a ^ b))
                == 0
    });
    if ok {
        Ok(())
    } else {
        Err(ApiError {
            status: 401,
            code: "admin-unauthorized",
            detail: "missing or wrong admin token".to_string(),
            retry_after_ms: None,
        })
    }
}

/// Resolves the identity every quota/breaker decision keys on. The
/// client never chooses it freely: with API keys configured it is the
/// key's tenant mapping (a declared name may only confirm it); in open
/// mode it is derived from the peer IP, so rotating names in the body
/// cannot mint fresh buckets.
fn resolve_tenant(
    shared: &Shared,
    req: &Request,
    peer: Option<SocketAddr>,
    declared: Option<&str>,
) -> Result<String, ApiError> {
    if shared.cfg.api_keys.is_empty() {
        return Ok(match peer {
            Some(p) => format!("ip:{}", p.ip()),
            None => "ip:unknown".to_string(),
        });
    }
    let Some(key) = req.header("x-api-key") else {
        return Err(ApiError {
            status: 401,
            code: "auth-required",
            detail: "this server requires an X-Api-Key header".to_string(),
            retry_after_ms: None,
        });
    };
    let Some((_, tenant)) = shared.cfg.api_keys.iter().find(|(k, _)| k == key) else {
        return Err(ApiError {
            status: 401,
            code: "auth-required",
            detail: "unknown API key".to_string(),
            retry_after_ms: None,
        });
    };
    if declared.is_some_and(|d| d != tenant) {
        return Err(ApiError {
            status: 403,
            code: "tenant-mismatch",
            detail: format!("API key is not for declared tenant {:?}", declared.unwrap_or("")),
            retry_after_ms: None,
        });
    }
    Ok(tenant.clone())
}

fn refusal_to_error(r: Refusal) -> ApiError {
    match r {
        Refusal::RateLimited { retry_after_ms } => ApiError {
            status: 429,
            code: "quota-exhausted",
            detail: "tenant token bucket empty".to_string(),
            retry_after_ms: Some(retry_after_ms),
        },
        Refusal::BreakerOpen { retry_after_ms } => ApiError {
            status: 503,
            code: "breaker-open",
            detail: "tenant circuit breaker is open after repeated scan failures".to_string(),
            retry_after_ms: Some(retry_after_ms),
        },
        Refusal::TooManyTenants => ApiError {
            status: 429,
            code: "too-many-tenants",
            detail: "tenant table full".to_string(),
            retry_after_ms: Some(60_000),
        },
    }
}

fn handle_scan(shared: &Shared, stream: &mut TcpStream, req: &Request) {
    lock_state(shared).stats.received += 1;
    if shared.draining.load(Ordering::SeqCst) {
        respond_error(stream, &ApiError {
            status: 503,
            code: "draining",
            detail: "server is draining".to_string(),
            retry_after_ms: Some(5000),
        });
        return;
    }
    let job = match parse_job(&req.body, &shared.cfg.limits, shared.cfg.allow_selftest) {
        Ok(j) => j,
        Err(e) => {
            lock_state(shared).stats.failed += 1;
            respond_error(stream, &e);
            return;
        }
    };
    let peer = stream.peer_addr().ok();
    let tenant = match resolve_tenant(shared, req, peer, job.declared_tenant.as_deref()) {
        Ok(t) => t,
        Err(e) => {
            lock_state(shared).stats.refused += 1;
            respond_error(stream, &e);
            return;
        }
    };
    let name = job_name(&tenant, &req.body);

    // Admission and cache both sit under the state lock; the scan
    // itself must not.
    {
        let now = shared.now_ms();
        let mut st = lock_state(shared);
        if let Err(r) = st.admission.admit(&tenant, now) {
            st.stats.refused += 1;
            drop(st);
            respond_error(stream, &refusal_to_error(r));
            return;
        }
        if let Some(cached) = st.store.as_ref().and_then(|s| s.lookup(&name)) {
            st.stats.cached += 1;
            st.admission.record_success(&tenant);
            drop(st);
            let _ = write_json_response(stream, 200, None, &cached);
            return;
        }
    }

    let deadline = Duration::from_millis(shared.cfg.job_deadline_ms.max(1));
    let (kind, scan_threads) = (job.kind, shared.cfg.scan_threads);
    match supervised::run("pandora-scan", deadline, move || {
        run_job(kind, scan_threads, deadline)
    }) {
        Supervised::Returned(Ok(body)) => {
            let mut st = lock_state(shared);
            st.admission.record_success(&tenant);
            st.stats.completed += 1;
            if let Some(store) = st.store.as_mut() {
                // A publish failure (e.g. injected storage chaos) must
                // not take the response down with it: the scan re-runs
                // after restart because it was never journaled.
                let _ = store.publish(&name, &body);
            }
            drop(st);
            let _ = write_json_response(stream, 200, None, &body);
        }
        Supervised::Returned(Err(e)) => {
            let mut st = lock_state(shared);
            st.admission.record_success(&tenant); // controlled failure: not a breaker event
            st.stats.failed += 1;
            drop(st);
            respond_error(stream, &e);
        }
        Supervised::Panicked(msg) => {
            let now = shared.now_ms();
            let mut st = lock_state(shared);
            st.stats.failed += 1;
            st.stats.supervised_panics += 1;
            st.admission.record_failure(&tenant, now);
            drop(st);
            respond_error(stream, &ApiError {
                status: 500,
                code: "scan-panicked",
                detail: msg,
                retry_after_ms: None,
            });
        }
        Supervised::Overran => {
            let now = shared.now_ms();
            let mut st = lock_state(shared);
            st.stats.failed += 1;
            st.stats.supervised_timeouts += 1;
            st.admission.record_failure(&tenant, now);
            drop(st);
            respond_error(stream, &ApiError {
                status: 504,
                code: "deadline-exceeded",
                detail: format!(
                    "scan exceeded its {}ms wall-clock budget and was abandoned",
                    shared.cfg.job_deadline_ms
                ),
                retry_after_ms: None,
            });
        }
        // The scan never ran: neither a breaker failure nor a success.
        Supervised::NotStarted(e) => {
            lock_state(shared).stats.failed += 1;
            let refusal = ApiError {
                status: 503,
                code: "thread-unavailable",
                detail: format!("no thread for the scan: {e}"),
                retry_after_ms: Some(1000),
            };
            respond_error(stream, &refusal);
        }
    }
}

/// The body of one supervised job: a scan's report JSON, or its
/// structured failure.
fn run_job(kind: JobKind, scan_threads: usize, deadline: Duration) -> Result<String, ApiError> {
    match kind {
        JobKind::Scan(spec) => run_scan(&spec, scan_threads)
            .map(|report| report.to_json().dump())
            .map_err(|e| ApiError {
                status: 422,
                code: "scan-failed",
                detail: e.to_string(),
                retry_after_ms: None,
            }),
        JobKind::SelftestPanic => panic!("selftest-panic victim"),
        JobKind::SelftestWedge => {
            std::thread::sleep(deadline.saturating_mul(4));
            Err(ApiError {
                status: 500,
                code: "selftest-wedge",
                detail: "wedge victim woke up".to_string(),
                retry_after_ms: None,
            })
        }
    }
}

/// The `/healthz` snapshot: a [`pandora_runner::orchestrator::SuiteHealth`]-style
/// rollup of pool, quota, and store state.
fn health_json(shared: &Shared) -> Json {
    let draining = shared.draining.load(Ordering::SeqCst);
    let queue_len = shared
        .queue
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .len();
    let now = shared.now_ms();
    let st = lock_state(shared);
    let breakers = st.admission.open_breakers(now);
    let jobs = obj(vec![
        ("received", Json::from(st.stats.received)),
        ("completed", Json::from(st.stats.completed)),
        ("cached", Json::from(st.stats.cached)),
        ("failed", Json::from(st.stats.failed)),
        ("shed", Json::from(st.stats.shed)),
        ("refused", Json::from(st.stats.refused)),
        ("http_errors", Json::from(st.stats.http_errors)),
        ("supervised_panics", Json::from(st.stats.supervised_panics)),
        ("supervised_timeouts", Json::from(st.stats.supervised_timeouts)),
    ]);
    let store = match &st.store {
        Some(s) => obj(vec![("journaled", Json::from(s.len() as u64))]),
        None => Json::Null,
    };
    obj(vec![
        (
            "status",
            Json::Str(if draining { "draining" } else { "ok" }.to_string()),
        ),
        ("uptime_ms", Json::from(now)),
        ("queue_len", Json::from(queue_len as u64)),
        (
            "breakers_open",
            Json::Arr(breakers.into_iter().map(Json::Str).collect()),
        ),
        ("jobs", jobs),
        ("store", store),
    ])
}

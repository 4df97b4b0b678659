//! Deterministic storage fault injection (fail points) for the runner.
//!
//! The simulator already has a plan-driven fault harness
//! (`pandora_sim::fault::FaultPlan`): plain-data events, fired at
//! enumerated points, same seed → same run. This module is the same
//! idea one level up, aimed at the runner's *own* crash-safety story —
//! the fsynced journal and the temp-file+rename publish path. Every
//! journal and publish I/O operation is routed through a named
//! fail-point [`Site`]; an installed [`ChaosPlan`] can make the *n*-th
//! operation at a site fail with a chosen [`ChaosKind`]: `ENOSPC`,
//! `EIO`, a short write, a failed fsync or rename — or a **crash
//! point**, a simulated kill after which every further routed operation
//! fails without touching disk, exactly as if the process had died
//! between two syscalls.
//!
//! Plans are installed per thread ([`install`]) so parallel tests stay
//! isolated; with no plan installed the wrappers are plain pass-through
//! calls. The orchestrator installs the plan from
//! [`SuiteOptions::chaos`](crate::SuiteOptions) and folds the
//! resulting [`ChaosStats`] into the suite's health section.
//!
//! Simulated kills are distinguishable from real I/O errors
//! ([`is_sim_kill`]), because the two demand opposite reactions: a real
//! `ENOSPC` is degraded around (stop journaling, keep running), while a
//! simulated kill must abort the run *un*-gracefully — that is the
//! whole point of a crash test.

use std::cell::RefCell;
use std::fmt;
use std::fs::File;
use std::io::{self, Write};
use std::path::Path;

use pandora_channels::retry::splitmix64;

/// The operation class performed at a [`Site`]; decides which
/// [`ChaosKind`]s are meaningful there.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Op {
    /// Opening/creating a file.
    Create,
    /// `write_all` of a byte buffer.
    WriteAll,
    /// `sync_all` / `sync_data`.
    Sync,
    /// `fs::rename`.
    Rename,
    /// `set_len` (journal recovery truncation).
    Truncate,
}

/// One enumerated fail-point in the runner's storage layer.
///
/// The variants enumerate every write/fsync/rename the journal
/// ([`crate::journal`]) and the atomic publish path
/// ([`crate::output::atomic_write`]) perform, in program order — so a
/// [`ChaosKind::Crash`] "between any write/fsync/rename pair" is
/// expressed as a crash *at* the following site occurrence.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Site {
    /// Creating/truncating the journal file.
    JournalCreate,
    /// Writing the journal magic header line.
    JournalHeaderWrite,
    /// Syncing the freshly created journal.
    JournalHeaderSync,
    /// Truncating a torn tail off the journal on resume recovery.
    JournalRecoverTruncate,
    /// Writing one appended journal entry line.
    JournalAppendWrite,
    /// Syncing an appended journal entry.
    JournalAppendSync,
    /// Creating the temp file of an atomic publish.
    PublishTmpCreate,
    /// Writing the temp file's bytes.
    PublishTmpWrite,
    /// Syncing the temp file.
    PublishTmpSync,
    /// Renaming the temp file over the destination.
    PublishRename,
    /// Syncing the destination directory after the rename.
    PublishDirSync,
}

impl Site {
    /// Every site, in journal-then-publish program order.
    pub const ALL: [Site; 11] = [
        Site::JournalCreate,
        Site::JournalHeaderWrite,
        Site::JournalHeaderSync,
        Site::JournalRecoverTruncate,
        Site::JournalAppendWrite,
        Site::JournalAppendSync,
        Site::PublishTmpCreate,
        Site::PublishTmpWrite,
        Site::PublishTmpSync,
        Site::PublishRename,
        Site::PublishDirSync,
    ];

    /// Stable name (used in health sections and test matrices).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Site::JournalCreate => "journal-create",
            Site::JournalHeaderWrite => "journal-header-write",
            Site::JournalHeaderSync => "journal-header-sync",
            Site::JournalRecoverTruncate => "journal-recover-truncate",
            Site::JournalAppendWrite => "journal-append-write",
            Site::JournalAppendSync => "journal-append-sync",
            Site::PublishTmpCreate => "publish-tmp-create",
            Site::PublishTmpWrite => "publish-tmp-write",
            Site::PublishTmpSync => "publish-tmp-sync",
            Site::PublishRename => "publish-rename",
            Site::PublishDirSync => "publish-dir-sync",
        }
    }

    /// The operation class performed at this site.
    #[must_use]
    pub fn op(self) -> Op {
        match self {
            Site::JournalCreate | Site::PublishTmpCreate => Op::Create,
            Site::JournalHeaderWrite | Site::JournalAppendWrite | Site::PublishTmpWrite => {
                Op::WriteAll
            }
            Site::JournalHeaderSync
            | Site::JournalAppendSync
            | Site::PublishTmpSync
            | Site::PublishDirSync => Op::Sync,
            Site::PublishRename => Op::Rename,
            Site::JournalRecoverTruncate => Op::Truncate,
        }
    }

    fn index(self) -> usize {
        Site::ALL.iter().position(|s| *s == self).expect("site in ALL")
    }
}

impl fmt::Display for Site {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One kind of injected storage fault.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ChaosKind {
    /// The device is full: `ENOSPC` (os error 28).
    Enospc,
    /// A generic I/O error: `EIO` (os error 5).
    Eio,
    /// An fsync that reports failure (the write may or may not be
    /// durable — the caller must treat the data as lost).
    SyncFail,
    /// A rename that reports failure, leaving the temp file behind
    /// exactly as a real `EXDEV`/`EIO` would.
    RenameFail,
    /// A short write: only the first `keep` bytes reach the file, then
    /// the write errors. Models a partially applied `write(2)`.
    ShortWrite {
        /// Bytes that do land on disk before the failure.
        keep: usize,
    },
    /// A simulated kill *before* the operation touches disk: the op
    /// fails with a [sim-kill error](is_sim_kill) and every later
    /// routed operation on this thread fails the same way.
    Crash,
    /// A simulated kill *mid-write*: the first `keep` bytes land on
    /// disk (a torn tail), then the process "dies" as with
    /// [`ChaosKind::Crash`].
    TornWriteCrash {
        /// Bytes that land before the kill.
        keep: usize,
    },
}

impl ChaosKind {
    /// Stable name (health sections, logs).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            ChaosKind::Enospc => "enospc",
            ChaosKind::Eio => "eio",
            ChaosKind::SyncFail => "sync-fail",
            ChaosKind::RenameFail => "rename-fail",
            ChaosKind::ShortWrite { .. } => "short-write",
            ChaosKind::Crash => "crash",
            ChaosKind::TornWriteCrash { .. } => "torn-write-crash",
        }
    }

    /// Whether the suite is expected to *survive* this kind (degrade
    /// gracefully) as opposed to the simulated kills, which by design
    /// abort the run mid-flight.
    #[must_use]
    pub fn is_recoverable(self) -> bool {
        !matches!(self, ChaosKind::Crash | ChaosKind::TornWriteCrash { .. })
    }
}

/// A [`ChaosKind`] armed at the `nth` occurrence of an operation at a
/// [`Site`] (the occurrence index plays the role `cycle` plays in the
/// simulator's `FaultEvent`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ChaosEvent {
    /// Where the fault fires.
    pub site: Site,
    /// 0-based occurrence of the operation at that site.
    pub nth: u64,
    /// What happens.
    pub kind: ChaosKind,
}

/// A deterministic, site-ordered storage fault schedule. Plain data:
/// the same plan against the same suite reproduces the same failures
/// byte for byte.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct ChaosPlan {
    events: Vec<ChaosEvent>,
}

impl ChaosPlan {
    /// A plan firing the given events; they are sorted by (site,
    /// occurrence) — stable, so duplicates keep their given order.
    #[must_use]
    pub fn new(mut events: Vec<ChaosEvent>) -> ChaosPlan {
        events.sort_by_key(|e| (e.site.index(), e.nth));
        ChaosPlan { events }
    }

    /// A plan with one event.
    #[must_use]
    pub fn single(site: Site, nth: u64, kind: ChaosKind) -> ChaosPlan {
        ChaosPlan::new(vec![ChaosEvent { site, nth, kind }])
    }

    /// A plan that kills the process at the `nth` operation on `site` —
    /// the crash-point constructor the recovery matrix iterates.
    #[must_use]
    pub fn crash_at(site: Site, nth: u64) -> ChaosPlan {
        ChaosPlan::single(site, nth, ChaosKind::Crash)
    }

    /// A seeded pseudo-random plan of `n` *recoverable* faults, each
    /// drawn at a random site with a kind meaningful for that site's
    /// operation class. Mirrors `FaultPlan::random`: the same seed
    /// always produces the same plan, and the kinds that abort the run
    /// by design ([`ChaosKind::Crash`] / [`ChaosKind::TornWriteCrash`])
    /// are never drawn — they belong in targeted crash-point tests.
    #[must_use]
    pub fn random(seed: u64, n: usize) -> ChaosPlan {
        let mut state = seed ^ 0xc4a0_5eed_0bad_d15c;
        let events = (0..n)
            .map(|_| {
                let site = Site::ALL[(draw(&mut state) % Site::ALL.len() as u64) as usize];
                let nth = draw(&mut state) % 6;
                let roll = draw(&mut state);
                let kind = match site.op() {
                    Op::WriteAll => match roll % 3 {
                        0 => ChaosKind::Enospc,
                        1 => ChaosKind::Eio,
                        _ => ChaosKind::ShortWrite {
                            keep: (roll >> 8) as usize % 12,
                        },
                    },
                    Op::Sync => {
                        if roll.is_multiple_of(2) {
                            ChaosKind::SyncFail
                        } else {
                            ChaosKind::Eio
                        }
                    }
                    Op::Rename => {
                        if roll.is_multiple_of(2) {
                            ChaosKind::RenameFail
                        } else {
                            ChaosKind::Eio
                        }
                    }
                    Op::Create => {
                        if roll.is_multiple_of(2) {
                            ChaosKind::Enospc
                        } else {
                            ChaosKind::Eio
                        }
                    }
                    Op::Truncate => ChaosKind::Eio,
                };
                ChaosEvent { site, nth, kind }
            })
            .collect();
        ChaosPlan::new(events)
    }

    /// The `runall --chaos` selftest plan: one fault of each of the
    /// five recoverable kinds. The placements are fixed, not
    /// seed-varied, because faults interfere with later occurrence
    /// counts — a journal fault disables journaling (so at most one
    /// journal event can ever fire per run), and a failed publish skips
    /// its own later sync/rename steps. These placements are chosen so
    /// every event lands on a *distinct* operation and all five fire on
    /// any suite of five or more experiments (the first four publish
    /// faults each consume one result publish; the journal fault fires
    /// on the first *successful* result's checkpoint append, which
    /// needs a fifth), while the suite's final `summary.json` publish
    /// stays clean (CI uploads it as an artifact). The seed varies only
    /// the short write's torn length; the same seed always produces the
    /// same plan.
    #[must_use]
    pub fn selftest(seed: u64) -> ChaosPlan {
        let mut state = seed ^ 0x5e1f_7e57_c4a0_5000;
        let keep = (draw(&mut state) % 12) as usize;
        ChaosPlan::new(vec![
            // Fires on the first journal append; journaling then
            // degrades, so this is the run's only journal fault.
            ChaosEvent {
                site: Site::JournalAppendSync,
                nth: 0,
                kind: ChaosKind::SyncFail,
            },
            // Publish #1 (the first result file; #0 is the manifest)
            // dies at its write...
            ChaosEvent {
                site: Site::PublishTmpWrite,
                nth: 1,
                kind: ChaosKind::Enospc,
            },
            // ...#3 dies mid-write...
            ChaosEvent {
                site: Site::PublishTmpWrite,
                nth: 3,
                kind: ChaosKind::ShortWrite { keep },
            },
            // ...#2 passes its write but fails its fsync (sync
            // occurrence 1: #0 took occurrence 0, #1 never got here)...
            ChaosEvent {
                site: Site::PublishTmpSync,
                nth: 1,
                kind: ChaosKind::Eio,
            },
            // ...and #4 passes write+fsync but fails its rename
            // (rename occurrence 1, after #0's occurrence 0).
            ChaosEvent {
                site: Site::PublishRename,
                nth: 1,
                kind: ChaosKind::RenameFail,
            },
        ])
    }

    /// The armed events, in (site, occurrence) order.
    #[must_use]
    pub fn events(&self) -> &[ChaosEvent] {
        &self.events
    }

    /// Number of armed events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the plan arms nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The distinct fault kinds the plan arms, in a stable order.
    #[must_use]
    pub fn kinds(&self) -> Vec<&'static str> {
        let mut kinds: Vec<&'static str> = self.events.iter().map(|e| e.kind.as_str()).collect();
        kinds.sort_unstable();
        kinds.dedup();
        kinds
    }
}

/// Counters collected while a plan was installed.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct ChaosStats {
    /// Routed operations per site, in [`Site::ALL`] order.
    pub ops_by_site: Vec<(&'static str, u64)>,
    /// Total routed operations.
    pub total_ops: u64,
    /// Faults that actually fired.
    pub injected: u64,
    /// Distinct kinds among the fired faults (stable order).
    pub kinds_injected: Vec<&'static str>,
    /// Whether a simulated kill fired (the thread's storage layer is
    /// dead from that point on).
    pub crashed: bool,
}

struct ChaosState {
    events: Vec<ChaosEvent>,
    ops: [u64; Site::ALL.len()],
    injected: u64,
    kinds: Vec<&'static str>,
    dead: Option<Site>,
}

impl ChaosState {
    fn stats(&self) -> ChaosStats {
        let mut kinds = self.kinds.clone();
        kinds.sort_unstable();
        kinds.dedup();
        ChaosStats {
            ops_by_site: Site::ALL.iter().map(|s| (s.as_str(), self.ops[s.index()])).collect(),
            total_ops: self.ops.iter().sum(),
            injected: self.injected,
            kinds_injected: kinds,
            crashed: self.dead.is_some(),
        }
    }
}

thread_local! {
    static STATE: RefCell<Option<ChaosState>> = const { RefCell::new(None) };
}

/// Guard for an installed plan; restores the previous (usually absent)
/// state on drop. Not `Send`: chaos state is per thread by design, so
/// the orchestrator thread that owns the journal and publishes is the
/// one whose I/O is disturbed.
#[derive(Debug)]
pub struct ChaosGuard {
    _not_send: std::marker::PhantomData<*const ()>,
}

/// Installs `plan` on the current thread until the returned guard is
/// dropped. While installed, every routed operation is counted (even
/// under an empty plan — which is how tests enumerate the crash-point
/// matrix) and matching events fire.
#[must_use]
pub fn install(plan: &ChaosPlan) -> ChaosGuard {
    STATE.with(|s| {
        *s.borrow_mut() = Some(ChaosState {
            events: plan.events.clone(),
            ops: [0; Site::ALL.len()],
            injected: 0,
            kinds: Vec::new(),
            dead: None,
        });
    });
    ChaosGuard {
        _not_send: std::marker::PhantomData,
    }
}

impl ChaosGuard {
    /// Snapshot of the counters so far (the guard stays installed).
    #[must_use]
    pub fn stats(&self) -> ChaosStats {
        STATE.with(|s| {
            s.borrow()
                .as_ref()
                .map(ChaosState::stats)
                .unwrap_or_default()
        })
    }
}

impl Drop for ChaosGuard {
    fn drop(&mut self) {
        STATE.with(|s| *s.borrow_mut() = None);
    }
}

/// The payload marking a simulated kill.
#[derive(Debug)]
struct SimKill {
    site: Site,
}

impl fmt::Display for SimKill {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "simulated kill at fail-point {} (chaos crash test)", self.site)
    }
}

impl std::error::Error for SimKill {}

fn sim_kill(site: Site) -> io::Error {
    io::Error::other(SimKill { site })
}

/// Whether `e` is a simulated kill from a [`ChaosKind::Crash`] /
/// [`ChaosKind::TornWriteCrash`] (as opposed to a real — or injected
/// but recoverable — I/O error). Callers degrade gracefully around
/// everything *except* these: a simulated kill must take the run down.
#[must_use]
pub fn is_sim_kill(e: &io::Error) -> bool {
    e.get_ref().is_some_and(<dyn std::error::Error + Send + Sync>::is::<SimKill>)
}

fn injected_error(site: Site, kind: ChaosKind) -> io::Error {
    match kind {
        ChaosKind::Enospc => io::Error::from_raw_os_error(28),
        ChaosKind::Eio => io::Error::from_raw_os_error(5),
        ChaosKind::SyncFail => {
            io::Error::other(format!("injected fsync failure at {site}"))
        }
        ChaosKind::RenameFail => {
            io::Error::other(format!("injected rename failure at {site}"))
        }
        ChaosKind::ShortWrite { keep } => io::Error::new(
            io::ErrorKind::WriteZero,
            format!("injected short write at {site} (only {keep} bytes applied)"),
        ),
        ChaosKind::Crash | ChaosKind::TornWriteCrash { .. } => sim_kill(site),
    }
}

/// Counts the operation; returns `Err` if the thread is already dead
/// (post-crash), `Ok(Some(kind))` if an event fires here.
fn check(site: Site) -> io::Result<Option<ChaosKind>> {
    STATE.with(|s| {
        let mut borrow = s.borrow_mut();
        let Some(state) = borrow.as_mut() else {
            return Ok(None);
        };
        if let Some(dead_at) = state.dead {
            return Err(sim_kill(dead_at));
        }
        let n = state.ops[site.index()];
        state.ops[site.index()] += 1;
        let hit = state
            .events
            .iter()
            .position(|e| e.site == site && e.nth == n);
        let Some(i) = hit else { return Ok(None) };
        let kind = state.events.remove(i).kind;
        state.injected += 1;
        state.kinds.push(kind.as_str());
        if !kind.is_recoverable() {
            state.dead = Some(site);
        }
        Ok(Some(kind))
    })
}

/// Routed `File` create: runs `open` unless a fault fires first.
///
/// # Errors
///
/// The injected fault, a post-crash sim-kill, or the real `open` error.
pub fn create(site: Site, open: impl FnOnce() -> io::Result<File>) -> io::Result<File> {
    match check(site)? {
        None => open(),
        Some(kind) => Err(injected_error(site, kind)),
    }
}

/// Routed `write_all`. Short writes and torn-write kills apply a prefix
/// of `bytes` for real before failing, so the on-disk state is the torn
/// state a genuine partial write leaves.
///
/// # Errors
///
/// The injected fault, a post-crash sim-kill, or the real write error.
pub fn write_all(site: Site, file: &mut File, bytes: &[u8]) -> io::Result<()> {
    match check(site)? {
        None => file.write_all(bytes),
        Some(kind @ (ChaosKind::ShortWrite { keep } | ChaosKind::TornWriteCrash { keep })) => {
            let torn = &bytes[..keep.min(bytes.len())];
            file.write_all(torn)?;
            let _ = file.sync_data();
            Err(injected_error(site, kind))
        }
        Some(kind) => Err(injected_error(site, kind)),
    }
}

/// Routed `sync_all`.
///
/// # Errors
///
/// The injected fault, a post-crash sim-kill, or the real sync error.
pub fn sync_all(site: Site, file: &File) -> io::Result<()> {
    match check(site)? {
        None => file.sync_all(),
        Some(kind) => Err(injected_error(site, kind)),
    }
}

/// Routed `sync_data`.
///
/// # Errors
///
/// The injected fault, a post-crash sim-kill, or the real sync error.
pub fn sync_data(site: Site, file: &File) -> io::Result<()> {
    match check(site)? {
        None => file.sync_data(),
        Some(kind) => Err(injected_error(site, kind)),
    }
}

/// Routed `fs::rename`.
///
/// # Errors
///
/// The injected fault, a post-crash sim-kill, or the real rename error.
pub fn rename(site: Site, from: &Path, to: &Path) -> io::Result<()> {
    match check(site)? {
        None => std::fs::rename(from, to),
        Some(kind) => Err(injected_error(site, kind)),
    }
}

/// Routed `set_len`.
///
/// # Errors
///
/// The injected fault, a post-crash sim-kill, or the real truncate
/// error.
pub fn set_len(site: Site, file: &File, len: u64) -> io::Result<()> {
    match check(site)? {
        None => file.set_len(len),
        Some(kind) => Err(injected_error(site, kind)),
    }
}

/// Draws the next value of the SplitMix64 stream at `state`.
fn draw(state: &mut u64) -> u64 {
    let r = splitmix64(*state);
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::TempDir;
    use std::fs::OpenOptions;

    fn tmp_file(dir: &TempDir, name: &str) -> File {
        OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(dir.path().join(name))
            .unwrap()
    }

    #[test]
    fn plans_sort_by_site_then_occurrence() {
        let p = ChaosPlan::new(vec![
            ChaosEvent {
                site: Site::PublishRename,
                nth: 1,
                kind: ChaosKind::RenameFail,
            },
            ChaosEvent {
                site: Site::JournalCreate,
                nth: 0,
                kind: ChaosKind::Eio,
            },
        ]);
        assert_eq!(p.events()[0].site, Site::JournalCreate);
        assert_eq!(p.len(), 2);
        assert!(!p.is_empty());
    }

    #[test]
    fn random_plans_are_deterministic_and_recoverable_only() {
        let a = ChaosPlan::random(7, 32);
        let b = ChaosPlan::random(7, 32);
        let c = ChaosPlan::random(8, 32);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 32);
        for e in a.events() {
            assert!(
                e.kind.is_recoverable(),
                "random plans must not schedule kills: {e:?}"
            );
        }
    }

    #[test]
    fn selftest_plan_covers_five_distinct_recoverable_kinds() {
        let p = ChaosPlan::selftest(0);
        assert_eq!(p.kinds().len(), 5, "kinds: {:?}", p.kinds());
        assert_eq!(ChaosPlan::selftest(3), ChaosPlan::selftest(3));
        for e in p.events() {
            assert!(e.kind.is_recoverable());
        }
    }

    #[test]
    fn events_fire_on_the_nth_occurrence_and_are_counted() {
        let dir = TempDir::new("chaos_nth");
        let guard = install(&ChaosPlan::single(
            Site::JournalAppendWrite,
            1,
            ChaosKind::Enospc,
        ));
        let mut f = tmp_file(&dir, "f");
        assert!(write_all(Site::JournalAppendWrite, &mut f, b"first").is_ok());
        let err = write_all(Site::JournalAppendWrite, &mut f, b"second").unwrap_err();
        assert_eq!(err.raw_os_error(), Some(28), "ENOSPC");
        assert!(!is_sim_kill(&err));
        // The event is consumed: occurrence 2 passes through again.
        assert!(write_all(Site::JournalAppendWrite, &mut f, b"third").is_ok());
        let stats = guard.stats();
        assert_eq!(stats.injected, 1);
        assert_eq!(stats.kinds_injected, vec!["enospc"]);
        assert!(!stats.crashed);
        assert_eq!(stats.total_ops, 3);
        let by_site: std::collections::HashMap<_, _> = stats.ops_by_site.into_iter().collect();
        assert_eq!(by_site["journal-append-write"], 3);
        assert_eq!(
            std::fs::read(dir.path().join("f")).unwrap(),
            b"firstthird",
            "the failed write applies nothing"
        );
    }

    #[test]
    fn short_writes_leave_a_real_prefix_on_disk() {
        let dir = TempDir::new("chaos_short");
        let _guard = install(&ChaosPlan::single(
            Site::PublishTmpWrite,
            0,
            ChaosKind::ShortWrite { keep: 4 },
        ));
        let mut f = tmp_file(&dir, "f");
        let err = write_all(Site::PublishTmpWrite, &mut f, b"0123456789").unwrap_err();
        assert!(!is_sim_kill(&err));
        assert_eq!(std::fs::read(dir.path().join("f")).unwrap(), b"0123");
    }

    #[test]
    fn a_crash_kills_every_later_routed_operation_without_touching_disk() {
        let dir = TempDir::new("chaos_dead");
        let guard = install(&ChaosPlan::crash_at(Site::JournalAppendSync, 0));
        let mut f = tmp_file(&dir, "f");
        assert!(write_all(Site::JournalAppendWrite, &mut f, b"live").is_ok());
        let err = sync_data(Site::JournalAppendSync, &f).unwrap_err();
        assert!(is_sim_kill(&err), "{err}");
        // Dead: even an unrelated site fails, and nothing lands on disk.
        let err = write_all(Site::PublishTmpWrite, &mut f, b"ghost").unwrap_err();
        assert!(is_sim_kill(&err));
        assert_eq!(std::fs::read(dir.path().join("f")).unwrap(), b"live");
        assert!(guard.stats().crashed);
    }

    #[test]
    fn uninstalled_threads_pass_straight_through() {
        let dir = TempDir::new("chaos_off");
        let mut f = tmp_file(&dir, "f");
        assert!(write_all(Site::JournalAppendWrite, &mut f, b"plain").is_ok());
        assert!(sync_data(Site::JournalAppendSync, &f).is_ok());
        // No state: nothing was counted.
        let guard = install(&ChaosPlan::default());
        assert_eq!(guard.stats().total_ops, 0);
    }

    #[test]
    fn guard_drop_uninstalls() {
        let dir = TempDir::new("chaos_drop");
        {
            let _guard = install(&ChaosPlan::crash_at(Site::PublishRename, 0));
            let err =
                rename(Site::PublishRename, &dir.path().join("a"), &dir.path().join("b"))
                    .unwrap_err();
            assert!(is_sim_kill(&err));
        }
        // After drop the same rename is a plain passthrough (and fails
        // for the real reason: the source does not exist).
        let err = rename(Site::PublishRename, &dir.path().join("a"), &dir.path().join("b"))
            .unwrap_err();
        assert!(!is_sim_kill(&err));
    }
}

//! **`runall`** — the resilient suite driver: runs every registered
//! experiment on a thread pool with per-experiment deadlines, panic
//! isolation, a bounded number of attempts (`--retries`), and
//! checkpoint/resume.
//!
//! ```text
//! cargo run --release -p pandora-bench --bin runall -- --smoke --jobs 2
//! cargo run --release -p pandora-bench --bin runall -- --resume
//! ```
//!
//! Exit code 0 = every experiment `ok`; 1 = some experiments came back
//! `partial` (suppressed by `--allow-partial`, the CI mode); 2 =
//! infrastructure failure, a determinism mismatch on resume, or a
//! simulated-kill crash test taking the run down.

use std::process::ExitCode;

use pandora_bench::experiments::{registry, with_selftests, DEFAULT_SEED};
use pandora_runner::{run_suite, ChaosPlan, Profile, SuiteOptions};

/// Decorrelates the chaos plan from the experiment seed, so `--chaos`
/// does not re-derive its fault schedule from the exact stream the
/// experiments consume.
const CHAOS_SEED_SALT: u64 = 0xc4a0_57e5_7000_0001;

const USAGE: &str = "\
usage: runall [options]

  --smoke              run every experiment's cheap profile
  --resume             resume from results/.runall.journal: skip completed
                       experiments, re-verify the first --reverify of them
  --resume-fallback    if --resume is refused (missing/corrupt journal or
                       manifest), start fresh instead of exiting 2
  --jobs N             worker threads (default 1)
  --fleet-threads N    machines each experiment's fleet grids step
                       concurrently (default: all cores; total thread
                       pressure is roughly jobs x fleet-threads)
  --only GLOB          run only experiments matching GLOB (e.g. 'fig*')
  --results-dir DIR    output directory (default results/)
  --seed HEX|DEC       suite seed recorded in the manifest (default 0)
  --retries N          total attempts per experiment (default 2)
  --deadline-secs N    override every experiment's deadline
  --reverify N         resumed experiments to re-run for determinism (default 1)
  --selftest           also register the injected panic/wedge selftests
  --chaos              inject the seeded storage-fault selftest plan (one of
                       each recoverable fault kind) and report what fired;
                       faults degrade the run -- combine with --allow-partial
  --allow-partial      exit 0 even if some experiments are partial (CI mode)
  --list               list registered experiments and exit
  --help               this message

exit codes: 0 all ok; 1 partial rows (unless --allow-partial);
2 infrastructure failure / resume refusal / determinism mismatch
";

struct Cli {
    opts: SuiteOptions,
    selftest: bool,
    chaos: bool,
    allow_partial: bool,
    list: bool,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut opts = SuiteOptions {
        seed: DEFAULT_SEED,
        progress: true,
        ..SuiteOptions::default()
    };
    let mut selftest = false;
    let mut chaos = false;
    let mut allow_partial = false;
    let mut list = false;
    let mut it = args.iter();
    let value = |it: &mut std::slice::Iter<String>, flag: &str| {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" => opts.profile = Profile::Smoke,
            "--resume" => opts.resume = true,
            "--resume-fallback" => opts.resume_fallback = true,
            "--selftest" => selftest = true,
            "--chaos" => chaos = true,
            "--allow-partial" => allow_partial = true,
            "--list" => list = true,
            "--jobs" => {
                let v = value(&mut it, "--jobs")?;
                opts.jobs = v.parse().map_err(|_| format!("bad --jobs value {v:?}"))?;
            }
            "--fleet-threads" => {
                let v = value(&mut it, "--fleet-threads")?;
                opts.fleet_threads = v
                    .parse()
                    .map_err(|_| format!("bad --fleet-threads value {v:?}"))?;
            }
            "--only" => opts.only = Some(value(&mut it, "--only")?),
            "--results-dir" => {
                opts.results_dir = value(&mut it, "--results-dir")?.into();
            }
            "--seed" => {
                let v = value(&mut it, "--seed")?;
                let parsed = v
                    .strip_prefix("0x")
                    .map_or_else(|| v.parse(), |hex| u64::from_str_radix(hex, 16));
                opts.seed = parsed.map_err(|_| format!("bad --seed value {v:?}"))?;
            }
            "--retries" => {
                let v = value(&mut it, "--retries")?;
                opts.max_attempts = v
                    .parse()
                    .map_err(|_| format!("bad --retries value {v:?}"))?;
            }
            "--deadline-secs" => {
                let v = value(&mut it, "--deadline-secs")?;
                let secs: u64 = v
                    .parse()
                    .map_err(|_| format!("bad --deadline-secs value {v:?}"))?;
                opts.deadline_override = Some(std::time::Duration::from_secs(secs));
            }
            "--reverify" => {
                let v = value(&mut it, "--reverify")?;
                opts.reverify = v
                    .parse()
                    .map_err(|_| format!("bad --reverify value {v:?}"))?;
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    // The chaos plan derives from the suite seed (salted), so the whole
    // faulted run is reproducible from the one seed on the command line.
    if chaos {
        opts.chaos = Some(ChaosPlan::selftest(opts.seed ^ CHAOS_SEED_SALT));
    }
    Ok(Cli {
        opts,
        selftest,
        chaos,
        allow_partial,
        list,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Cli {
        opts,
        selftest,
        chaos,
        allow_partial,
        list,
    } = match parse(&args) {
        Ok(parsed) => parsed,
        Err(msg) if msg.is_empty() => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("runall: {msg}");
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };

    let registry = if selftest {
        with_selftests(registry())
    } else {
        registry()
    };

    if list {
        for exp in registry.all() {
            println!("{:<28} {}", exp.name, exp.title);
        }
        return ExitCode::SUCCESS;
    }

    // The process-wide fleet default: experiments whose grids pass
    // threads = 0 resolve to this. `--fleet-threads 0` (the default)
    // keeps the fleet's own default of all cores.
    pandora_sim::fleet::set_default_threads(opts.fleet_threads);

    println!(
        "pandora runall: {} experiments, profile {}, {} job(s), {} fleet thread(s), seed {:#x}{}",
        registry.select(opts.only.as_deref()).len(),
        opts.profile.as_str(),
        opts.jobs.max(1),
        if opts.fleet_threads == 0 {
            pandora_sim::fleet::default_threads()
        } else {
            opts.fleet_threads
        },
        opts.seed,
        if opts.resume { ", resuming" } else { "" },
    );
    if chaos {
        if let Some(plan) = &opts.chaos {
            println!("chaos: {} storage fault(s) armed:", plan.len());
            for event in plan.events() {
                println!("  {} at {} occurrence #{}", event.kind.as_str(), event.site, event.nth);
            }
        }
    }

    // Smoke runs double as the CI health check for the perf baseline:
    // a malformed results/perf_baseline.json would make the bench
    // regression gate vacuous, so refuse it loudly; a missing one is
    // merely noted (fresh checkout, baseline not yet saved).
    if opts.profile == Profile::Smoke {
        let baseline = opts.results_dir.join("perf_baseline.json");
        match pandora_bench::perf::check_baseline_file(&baseline) {
            Ok(Some(report)) => println!(
                "perf baseline: {} ({} benches, schema {})",
                baseline.display(),
                report.benches.len(),
                report.schema,
            ),
            Ok(None) => println!(
                "perf baseline: {} not found; run \
                 `cargo bench -p pandora-bench --bench perf -- --save-baseline`",
                baseline.display(),
            ),
            Err(e) => {
                eprintln!("runall: perf baseline {} is malformed: {e}", baseline.display());
                return ExitCode::from(2);
            }
        }
    }

    let report = match run_suite(&registry, &opts) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("runall: {e}");
            return ExitCode::from(2);
        }
    };

    let (mut ok, mut partial, mut failed, mut resumed) = (0usize, 0usize, 0usize, 0usize);
    for e in &report.experiments {
        if e.resumed {
            resumed += 1;
        }
        match e.status.keyword() {
            "ok" => ok += 1,
            "partial" => partial += 1,
            _ => failed += 1,
        }
    }
    println!(
        "suite done: {ok} ok, {partial} partial, {failed} failed \
         ({resumed} resumed from journal); summary: {}",
        opts.results_dir.join("summary.json").display()
    );
    for e in &report.experiments {
        if let Some(reason) = e.status.reason() {
            println!("  {} {}: {reason}", e.status.keyword(), e.name);
        }
    }
    let health = &report.health;
    if chaos {
        println!(
            "chaos report: {}/{} armed fault(s) fired and were survived \
             (kinds: {}); {} routed I/O op(s)",
            health.faults_survived,
            health.faults_injected,
            if health.fault_kinds.is_empty() {
                "none".to_string()
            } else {
                health.fault_kinds.join(", ")
            },
            health.io_ops,
        );
    }
    if health.workers_abandoned > 0 || health.journal_degraded || health.publish_failures > 0 {
        println!(
            "health: {} attempt thread(s) abandoned at their deadline, \
             {} publish failure(s){}",
            health.workers_abandoned,
            health.publish_failures,
            if health.journal_degraded {
                "; journal degraded (checkpointing was disabled)"
            } else {
                ""
            },
        );
    }

    if !report.none_failed() {
        ExitCode::from(2)
    } else if report.all_ok() || allow_partial {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

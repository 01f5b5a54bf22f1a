//! End-to-end benchmark of the create → serve → churn lifecycle, with a per-layer budget.
//!
//! ```text
//! msrp-lifecycle-bench --msrpctl PATH --work-dir DIR
//!     --workload serve|churn --seed N --seconds S --trace 0|1
//! ```
//!
//! Every run walks the whole lifecycle — build the three construction routes, serve a
//! snapshot through `msrpctl`, churn an epoch-swapping service — so that every end-to-end
//! metric is measured on every workload. The builds are a fixed amount of work (three
//! rounds). The workload names the stage that gets the measurement window of `--seconds`
//! and more work; the other stage gets half of it and its minimum work (250 churn
//! events). `--trace 0` prints the end-to-end metrics; `--trace 1` prints the per-layer
//! metrics and runs the budget checks. The last line of standard output is the JSON
//! result. See `README.md` beside this crate.

#![forbid(unsafe_code)]

mod adapter;
mod build;
mod churn;
mod report;
mod serve;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use report::Report;

/// What one stage measures in a run.
#[derive(Clone, Copy)]
pub struct Budget {
    /// Measurement time: the whole window for the workload's own stage, half for others.
    pub time: Duration,
    /// The stage is the workload's own; it also does more than the minimum work.
    pub emphasized: bool,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    Serve,
    Churn,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    msrpctl: PathBuf,
    work_dir: PathBuf,
}

/// The default workload seed. Gain claims must also hold on a held-out seed, 1729.
const DEFAULT_SEED: u64 = 42;

fn parse_args() -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Option<&str> {
        raw.iter().position(|a| a == flag).and_then(|i| raw.get(i + 1)).map(String::as_str)
    };
    let number = |flag: &str, default: u64| -> Result<u64, String> {
        value(flag)
            .map_or(Ok(default), |v| v.parse().map_err(|_| format!("{flag} {v}: not a number")))
    };
    let workload = match value("--workload") {
        Some("serve") => Workload::Serve,
        Some("churn") => Workload::Churn,
        other => return Err(format!("--workload must be serve or churn, not {other:?}")),
    };
    let trace = match number("--trace", 0)? {
        0 => false,
        1 => true,
        t => return Err(format!("--trace must be 0 or 1, not {t}")),
    };
    let seconds = number("--seconds", 10)?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let path =
        |flag: &str| value(flag).map(PathBuf::from).ok_or_else(|| format!("{flag} is required"));
    Ok(Args {
        workload,
        seed: number("--seed", DEFAULT_SEED)?,
        seconds,
        trace,
        msrpctl: path("--msrpctl")?,
        work_dir: path("--work-dir")?,
    })
}

fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let window = Duration::from_secs(args.seconds);
    let budget = |stage: Workload| {
        let emphasized = stage == args.workload;
        Budget { time: if emphasized { window } else { window / 2 }, emphasized }
    };
    let (seed, trace) = (args.seed, args.trace);

    let stage_start = Instant::now();
    let (inputs, build_setup) = build::setup(trace, &mut report);
    build::run(&inputs, seed, trace, &mut report);
    drop(inputs);
    eprintln!(
        "stage build: {:.1} s, set-up {build_setup:.3} s",
        stage_start.elapsed().as_secs_f64()
    );

    let stage_start = Instant::now();
    let state_dir = args.work_dir.join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&state_dir)
        .map_err(|e| format!("create {}: {e}", state_dir.display()))?;
    let paths = serve::Paths { msrpctl: &args.msrpctl, state_dir };
    let served = serve::run(&paths, seed, budget(Workload::Serve), trace, &mut report);
    let _ = std::fs::remove_dir_all(&paths.state_dir);
    let serve_setup = match served {
        Ok(setup) => {
            eprintln!(
                "stage serve: {:.1} s, set-up {setup:.3} s",
                stage_start.elapsed().as_secs_f64()
            );
            setup
        }
        Err(e) => {
            // A refused connection, a timeout or a dead server: one failed operation.
            report.op(false);
            report.check(false, format!("serve stage: {e}"));
            f64::NAN
        }
    };

    let stage_start = Instant::now();
    let churn_setup = churn::run(seed, budget(Workload::Churn), trace, &mut report);
    eprintln!(
        "stage churn: {:.1} s, set-up {churn_setup:.3} s",
        stage_start.elapsed().as_secs_f64()
    );
    let setup = build_setup + serve_setup + churn_setup;
    if !trace && setup.is_finite() {
        report.metric("setup_s", setup, "s");
    }
    Ok(report)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            println!("{}", report.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

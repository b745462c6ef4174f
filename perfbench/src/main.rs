//! `perfbench` — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           --node-bin <path to gdn-node> --work-dir <dir>
//! ```
//!
//! Workloads:
//!
//! - `small_fetch` — two real `gdn-node serve` processes serving small
//!   packages and their listings; fixed per-request cost dominates.
//! - `large_fetch_upgrade` — the same cluster shape serving chunked
//!   256 KiB–1 MiB files, then upgrades rewriting one part of a file;
//!   per-byte cost and the write path dominate.
//! - `wide_area_sim` — the deterministic simulated `World`: four
//!   regions, replicated and chunked packages, Zipf reads from every
//!   site and a write stream.
//!
//! The last line of standard output is the JSON result; the lines
//! before it give every metric with its unit and the attempted/failed
//! count of every operation kind. `perfbench/run.py` builds everything
//! and is the command to run.

mod checks;
mod client;
mod cluster;
mod driver;
mod host;
mod inputs;
mod real;
mod replay;
mod report;
mod sim;
mod spans;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;

use inputs::MixSpec;
use real::RealSpec;
use report::Report;

/// Command-line arguments.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: u64,
    /// Traced run (per-layer metrics) or not (end-to-end metrics).
    pub trace: bool,
    /// The `gdn-node` binary.
    pub node_bin: PathBuf,
    /// Working directory for config files and the span file.
    pub work_dir: PathBuf,
}

const USAGE: &str = "usage: perfbench --workload <small_fetch|large_fetch_upgrade|wide_area_sim> \
                     --seed <n> --seconds <s> --trace <0|1> --node-bin <path> --work-dir <dir>";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut node_bin = None;
    let mut work_dir = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = |what: &str| format!("bad {what} {value:?}\n{USAGE}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("seed"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| bad("seconds"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace flag")),
                })
            }
            "--node-bin" => node_bin = Some(PathBuf::from(&value)),
            "--work-dir" => work_dir = Some(PathBuf::from(&value)),
            _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
        }
    }
    let missing = |f: &str| format!("missing {f}\n{USAGE}");
    Ok(Args {
        workload: workload.ok_or_else(|| missing("--workload"))?,
        seed: seed.ok_or_else(|| missing("--seed"))?,
        seconds: seconds.ok_or_else(|| missing("--seconds"))?,
        trace: trace.ok_or_else(|| missing("--trace"))?,
        node_bin: node_bin.ok_or_else(|| missing("--node-bin"))?,
        work_dir: work_dir.ok_or_else(|| missing("--work-dir"))?,
    })
}

/// `small_fetch`: 32 packages of three 0.5–8 KiB files, a fifth of
/// reads fetching listings; small-file upgrades after the reads.
fn small_fetch() -> RealSpec {
    RealSpec {
        mix: MixSpec {
            prefix: "/bench/small/p",
            packages: 32,
            files: 3,
            size: (512, 8192),
            align: 1,
        },
        chunked: false,
        listing_share: 0.2,
        open_rate: 400.0,
        upgrade_rate: 10.0,
    }
}

/// `large_fetch_upgrade`: chunked packages of three 256 KiB–1 MiB files;
/// after the reads, upgrades each rewriting one 4 KiB-aligned part.
fn large_fetch_upgrade() -> RealSpec {
    RealSpec {
        mix: MixSpec {
            prefix: "/bench/large/p",
            packages: 6,
            files: 3,
            size: (256 << 10, 1 << 20),
            align: 4096,
        },
        chunked: true,
        listing_share: 0.0,
        open_rate: 24.0,
        upgrade_rate: 8.0,
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = checks::self_test() {
        eprintln!("perfbench: checker self-test failed: {e}");
        return ExitCode::FAILURE;
    }
    if let Err(e) = std::fs::create_dir_all(&args.work_dir) {
        eprintln!("perfbench: create {}: {e}", args.work_dir.display());
        return ExitCode::FAILURE;
    }
    let mut report = Report::default();
    let result = match args.workload.as_str() {
        "small_fetch" => real::run(&small_fetch(), &args, &mut report),
        "large_fetch_upgrade" => real::run(&large_fetch_upgrade(), &args, &mut report),
        "wide_area_sim" => sim::run(&args, &mut report),
        other => Err(format!("unknown workload {other:?}\n{USAGE}")),
    };
    match result {
        Ok(()) => {
            report.print();
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

//! `arkfs-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as the last line of standard output,
//! one JSON object: `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end metrics untraced, the per-layer metrics with `--trace 1`).
//! Progress and failure details go to standard error.

use arkfs_perfbench::{run, Config, Scale, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

/// Set-ups timed per run; `setup_s` is their median. A loopback TCP
/// deployment sets up in well under a millisecond, so it is timed many
/// times; a 16 384-client simulator takes about a quarter of a second.
fn setups(workload: Workload) -> usize {
    match workload {
        Workload::SimZipf => 7,
        Workload::MetaShared | Workload::ArchiveStream => 61,
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("{msg}");
    eprintln!(
        "usage: arkfs-perfbench --workload <meta_shared|archive_stream|sim_zipf> \
         --seed <n> --seconds <s> --trace <0|1>"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0u64, 10.0f64, false);
    for pair in args.chunks(2) {
        let [flag, value] = pair else {
            return usage("every flag takes a value");
        };
        match flag.as_str() {
            "--workload" => match Workload::parse(value) {
                Some(w) => workload = Some(w),
                None => return usage(&format!("unknown workload {value:?}")),
            },
            "--seed" => match value.parse() {
                Ok(v) => seed = v,
                Err(_) => return usage("--seed takes a whole number"),
            },
            "--seconds" => match value.parse::<f64>() {
                Ok(v) if v.is_finite() && v >= 0.0 => seconds = v,
                _ => return usage("--seconds takes a non-negative number"),
            },
            "--trace" => match value.as_str() {
                "0" => trace = false,
                "1" => trace = true,
                _ => return usage("--trace takes 0 or 1"),
            },
            _ => return usage(&format!("unknown flag {flag:?}")),
        }
    }
    let Some(workload) = workload else {
        return usage("--workload is required");
    };
    let cfg = Config {
        workload,
        seed,
        seconds,
        trace,
        scale: Scale::full(),
        probe: Scale::probe(),
        setups: setups(workload),
        trace_out: Some(PathBuf::from("perfbench/out")),
    };
    let report = run(&cfg);
    println!("{}", report.json(trace));
    ExitCode::SUCCESS
}

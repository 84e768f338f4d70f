//! The repository benchmark: cold whole-network search and warm
//! persistent-connection serving, timed end to end, with a separate
//! traced run that times each layer from outside.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload cold_cnn --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. `--trace 0` reports
//! the end-to-end metrics, `--trace 1` the per-layer metrics and writes
//! the traced spans as Chrome trace JSON under `.perfbench/traces/`.
//! See `perfbench/README.md` for what each metric means per workload.

mod cold;
mod serve;
mod util;

use flexer::trace::json;
use flexer::trace::{chrome, Trace};
use std::path::PathBuf;
use std::process::ExitCode;

/// The quality every pass must reproduce exactly: summed winning
/// schedule latency and DRAM bytes, recorded in `expected.json`.
#[derive(Debug, Clone, Copy)]
pub struct Expected {
    pub sim_latency_cycles: u64,
    pub dram_bytes: u64,
}

/// Operation and check tallies of one run.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Outcome {
    /// Records one failed operation or check.
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.errors.len() < 20 {
            self.errors.push(msg);
        }
    }

    pub fn ok_frac(&self) -> f64 {
        1.0 - self.failed.min(self.attempted) as f64 / self.attempted.max(1) as f64
    }
}

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUPS: usize = 5;

const WORKLOADS: [&str; 4] = ["cold_cnn", "cold_zoo", "serve_warm", "serve_churn"];

fn expected(workload: &str) -> Result<Expected, String> {
    let doc = json::parse(include_str!("../expected.json")).map_err(|e| e.message)?;
    let entry = doc
        .get(workload)
        .ok_or_else(|| format!("expected.json has no entry for {workload}"))?;
    let field = |k: &str| {
        entry
            .get(k)
            .and_then(json::Json::as_num)
            .map(|v| v as u64)
            .ok_or_else(|| format!("expected.json: {workload}.{k} missing"))
    };
    Ok(Expected {
        sim_latency_cycles: field("sim_latency_cycles")?,
        dram_bytes: field("dram_bytes")?,
    })
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(bad)?,
            "--seconds" => seconds = value.parse().map_err(bad)?,
            "--trace" => trace = value.parse::<u8>().map_err(bad)? == 1,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds: seconds.max(1),
        trace,
    })
}

fn write_trace(args: &Args, trace: &Trace) -> Result<PathBuf, String> {
    let dir = PathBuf::from(".perfbench").join("traces");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let path = dir.join(format!("{}-seed{}.json", args.workload, args.seed));
    std::fs::write(&path, chrome::to_chrome_json(trace)).map_err(|e| e.to_string())?;
    Ok(path)
}

fn run(args: &Args, out: &mut Outcome) -> Result<util::Metrics, String> {
    let expected = expected(&args.workload)?;
    let work = PathBuf::from(".perfbench").join(format!("work-{}", std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| e.to_string())?;
    let (w, seed, secs) = (args.workload.as_str(), args.seed, args.seconds);
    let result = match (w.starts_with("cold"), args.trace) {
        (true, false) => Ok((cold::run(w, seed, secs, expected, out), None)),
        (false, false) => serve::run(w, seed, secs, expected, &work, out).map(|m| (m, None)),
        (true, true) => {
            let (m, t) = cold::run_traced(w, seed, secs, expected, out);
            Ok((m, Some(t)))
        }
        (false, true) => {
            serve::run_traced(w, seed, secs, expected, &work, out).map(|(m, t)| (m, Some(t)))
        }
    };
    let _ = std::fs::remove_dir_all(&work);
    let (metrics, trace) = result?;
    if let Some(trace) = trace {
        match write_trace(args, &trace) {
            Ok(path) => eprintln!("trace written to {}", path.display()),
            Err(e) => out.fail(format!("cannot write the trace: {e}")),
        }
    }
    Ok(metrics)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut out = Outcome::default();
    let metrics = match run(&args, &mut out) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for e in &out.errors {
        eprintln!("check failed: {e}");
    }
    let correct = out.failed == 0;
    println!(
        r#"{{"correct": {correct}, "attempted": {}, "failed": {}, "metrics": {}}}"#,
        out.attempted.max(1),
        out.failed,
        metrics.to_json()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

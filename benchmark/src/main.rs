//! `rox-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as the last line of standard output, the
//! result object: `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end metrics untraced, the per-layer metrics traced). The full
//! run record goes to `.bench_work/<workload>-trace<t>.json` and, when
//! traced, the spans to `.bench_work/<workload>-spans.jsonl`.

use rox_benchmark::{run, Config, Scale, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

fn parse(args: &[String]) -> Result<Config, String> {
    let mut cfg = Config {
        workload: Workload::XmarkReplay,
        seed: 1,
        seconds: 10.0,
        trace: false,
        scale: Scale::full(),
        work_dir: PathBuf::from(".bench_work"),
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => cfg.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => cfg.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    cfg.workload = workload.ok_or("--workload is required")?;
    if !(cfg.seconds > 0.0 && cfg.seconds.is_finite()) {
        return Err("--seconds must be positive".to_string());
    }
    Ok(cfg)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("rox-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&cfg) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("rox-benchmark: {} failed: {e}", cfg.workload.name());
            return ExitCode::FAILURE;
        }
    };
    let name = cfg.workload.name();
    let record = cfg
        .work_dir
        .join(format!("{name}-trace{}.json", u8::from(cfg.trace)));
    let mut written = std::fs::write(&record, &outcome.record);
    if cfg.trace && written.is_ok() {
        written = std::fs::write(
            cfg.work_dir.join(format!("{name}-spans.jsonl")),
            outcome.spans.to_jsonl(),
        );
    }
    if let Err(e) = written {
        eprintln!("rox-benchmark: writing the run record: {e}");
        return ExitCode::FAILURE;
    }
    eprint!("{}", outcome.record);
    println!("{}", outcome.result_line());
    ExitCode::SUCCESS
}

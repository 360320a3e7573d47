//! Command line: `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
//!
//! Prints a detail line (host cores, seed, command, windows, exact
//! counters, a sampled span chain), then as its last line one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. Exits 1 on any
//! correctness violation and 2 on bad arguments or a failed set-up.

use std::process::ExitCode;

use fgcache_ladderbench::report::{array, object, quote};
use fgcache_ladderbench::run::run;
use fgcache_ladderbench::workload::{Config, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut tokens: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = tokens.next() {
        let value = tokens
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?} (one of {})", names.join(", "))
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds must be in (0, 3600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fgcache-ladderbench: {e}");
            return ExitCode::from(2);
        }
    };
    let cfg = Config::new(args.workload, args.seed, args.seconds);
    let out = match run(args.workload, &cfg, args.trace) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("fgcache-ladderbench: set-up failed: {e}");
            return ExitCode::from(2);
        }
    };
    for e in &out.errors {
        eprintln!("fgcache-ladderbench: correctness violation: {e}");
    }
    let mut detail = out.detail;
    detail.push(("errors", array(out.errors.iter().map(|e| quote(e)))));
    println!("{}", object(&detail));
    let correct = out.errors.is_empty();
    println!(
        "{}",
        object(&[
            ("correct", correct.to_string()),
            ("attempted", out.attempted.to_string()),
            ("failed", out.failed.to_string()),
            ("metrics", out.metrics.to_json()),
        ])
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

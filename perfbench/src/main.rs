//! `pnp-perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Runs one workload and prints, as the last line of standard output, a
//! JSON object with the keys `correct`, `attempted`, `failed` and
//! `metrics`: the end-to-end metrics, or with `--trace 1` the per-layer
//! ones. The traced run also writes its spans to
//! `.bench_out/spans-NAME-seedN.jsonl`. Exits 0 when every checked output
//! was correct.
//!
//! `pnp-perfbench daemon STATE_DIR` is the service workload's daemon.

use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

use pnp_perfbench::trace;
use pnp_perfbench::workloads::{self, Run};

const USAGE: &str =
    "usage: pnp-perfbench --workload bridge_safety|bridge_liveness|bridge_durable|service_small \
                     --seed N --seconds S --trace 0|1";

fn parse(args: &[String]) -> Result<(String, Run), String> {
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: '{value}' is not a number"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => traced = Some(number()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let missing = |name: &str| format!("missing --{name}");
    Ok((
        workload.ok_or_else(|| missing("workload"))?,
        Run {
            seed: seed.ok_or_else(|| missing("seed"))?,
            budget: Duration::from_secs(seconds.ok_or_else(|| missing("seconds"))?.max(1)),
            traced: traced.ok_or_else(|| missing("trace"))?,
        },
    ))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let [mode, dir] = args.as_slice() {
        if mode == "daemon" {
            return workloads::service::daemon(Path::new(dir));
        }
    }
    let (name, run) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(error) => {
            eprintln!("pnp-perfbench: {error}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match name.as_str() {
        "bridge_safety" => workloads::safety::run(&run),
        "bridge_liveness" => workloads::liveness::run(&run),
        "bridge_durable" => workloads::durable::run(&run),
        "service_small" => workloads::service::run(&run),
        other => Err(format!("unknown workload {other}\n{USAGE}")),
    };
    let report = match outcome {
        Ok(report) => report,
        Err(error) => {
            eprintln!("pnp-perfbench: {name}: {error}");
            return ExitCode::from(2);
        }
    };
    if run.traced {
        let spans = trace::recorded();
        let path = format!(".bench_out/spans-{name}-seed{}.jsonl", run.seed);
        let written = std::fs::create_dir_all(".bench_out")
            .and_then(|()| std::fs::write(&path, trace::to_json_lines(&spans)));
        if let Err(error) = written {
            eprintln!("pnp-perfbench: cannot write {path}: {error}");
            return ExitCode::from(2);
        }
        println!("spans: {} written to {path}", spans.len());
    }
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!("host: {cpus} CPUs");
    for note in &report.notes {
        println!("{note}");
    }
    for failure in &report.failures {
        eprintln!("FAILED: {failure}");
    }
    match report.result_line(run.traced) {
        Ok(line) => {
            println!("{line}");
            if report.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(error) => {
            eprintln!("pnp-perfbench: {name}: {error}");
            ExitCode::from(2)
        }
    }
}

//! The benchmark's command line; see the library documentation.

use perfbench::bench::{self, Options, Outcome};
use perfbench::check;
use perfbench::host;
use perfbench::metrics;
use perfbench::refs::DEFAULT_SEED;
use perfbench::workload::{Size, Workload};
use std::process::{Command, ExitCode};

const USAGE: &str = "\
usage: perfbench [--workload paper_sweep|shard1k|scale100k|all] [--seed N]
                 [--seconds S] [--trace 0|1] [--size full|tiny]
       perfbench --workload NAME --seed N --print-reference
       perfbench --manifest     (prints BENCHMARK.json)
       perfbench --describe     (every metric, its unit and what it should move)";

#[derive(Debug)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
    print_reference: bool,
}

enum Mode {
    Run(Args),
    Manifest,
    Describe,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Mode, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: metrics::RUN_SECONDS as f64,
        trace: false,
        size: Size::Full,
        print_reference: false,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--manifest" => return Ok(Mode::Manifest),
            "--describe" => return Ok(Mode::Describe),
            "--print-reference" => args.print_reference = true,
            "--workload" => {
                let name = value()?;
                args.workload = match name.as_str() {
                    "all" => None,
                    _ => Some(Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?),
                }
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            "--size" => {
                args.size = match value()?.as_str() {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    v => return Err(format!("--size takes full or tiny, not {v:?}")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    if args.print_reference && args.workload.is_none() {
        return Err("--print-reference needs one --workload".into());
    }
    Ok(Mode::Run(args))
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(Mode::Manifest) => {
            print!("{}", metrics::manifest());
            return ExitCode::SUCCESS;
        }
        Ok(Mode::Describe) => {
            print!("{}", metrics::describe());
            return ExitCode::SUCCESS;
        }
        Ok(Mode::Run(args)) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let set = host::guarded_vars_set();
    if !set.is_empty() {
        eprintln!(
            "perfbench: refusing to start: {} set from outside. The library reads these itself, \
             so they would change the program being measured; unset them.",
            set.join(", ")
        );
        return ExitCode::from(2);
    }
    match args.workload {
        Some(workload) => run_one(workload, &args),
        None => run_all(&args),
    }
}

/// Runs one workload in this process and prints its result.
fn run_one(workload: Workload, args: &Args) -> ExitCode {
    let spool = match std::env::current_dir() {
        Ok(dir) => dir
            .join(".perfbench-tmp")
            .join(std::process::id().to_string()),
        Err(e) => {
            eprintln!("perfbench: no working directory: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&spool) {
        eprintln!("perfbench: cannot create {}: {e}", spool.display());
        return ExitCode::from(2);
    }
    host::pin_process_env(&spool);
    let opts = Options {
        workload,
        seed: args.seed,
        seconds: if args.print_reference {
            0.0
        } else {
            args.seconds
        },
        trace: args.trace && !args.print_reference,
        size: args.size,
        reference: None,
    };
    let outcome = bench::run(&opts);
    // The spool files are gone once each run's traffic was sealed; the
    // directories are this process's own.
    let _ = std::fs::remove_dir(&spool);
    if let Some(parent) = spool.parent() {
        let _ = std::fs::remove_dir(parent);
    }

    if args.print_reference {
        if let Some(rows) = &outcome.rows {
            print!(
                "{}",
                check::render_reference(workload.name(), args.seed, rows)
            );
        }
        return exit_code(&outcome);
    }
    for failure in &outcome.failures {
        eprintln!(
            "perfbench: {} seed {}: FAILED {failure}",
            workload.name(),
            args.seed
        );
    }
    println!(
        "# {} seed {}: {} timed runs, {} set-ups, outputs checked against {}",
        workload.name(),
        args.seed,
        outcome.run_times.len(),
        outcome.setups,
        if outcome.pinned {
            "the pinned reference"
        } else {
            "the first run (no pinned reference for this seed)"
        }
    );
    let samples: Vec<String> = outcome
        .run_times
        .iter()
        .map(|t| format!("{t:.4}"))
        .collect();
    println!(
        "# run_s samples: {}; events per run: {}",
        samples.join(" "),
        outcome.events
    );
    for v in &outcome.metrics {
        let value = v.value.map_or("n/a".to_string(), |x| x.to_string());
        println!("metric {} = {value} {}", v.metric.name, v.metric.unit);
    }
    println!("{}", host_line(workload, args, &outcome));
    println!(
        "{}",
        result_line(
            outcome.correct,
            outcome.attempted,
            outcome.failed,
            &outcome.metrics_json()
        )
    );
    exit_code(&outcome)
}

fn exit_code(outcome: &Outcome) -> ExitCode {
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The host record printed with every result.
fn host_line(workload: Workload, args: &Args, outcome: &Outcome) -> String {
    let engine = outcome.engine.as_ref().map_or("null".to_string(), |e| {
        format!(
            "{{\"shards\": {}, \"strategy\": \"{}\", \"queue\": \"{}\", \"window_driver\": \"{}\"}}",
            e.shards,
            e.strategy,
            e.queue,
            if e.shards > 1 { "single-threaded" } else { "none" }
        )
    });
    format!(
        "{{\"host\": {{\"cores\": {}, \"rustc\": \"{}\", \"git_rev\": \"{}\", \"source_digest\": \"{}\"}}, \"workload\": \"{}\", \
         \"seed\": {}, \"trace\": {}, \"engine\": {engine}, \"timed_runs\": {}, \"setups\": {}, \
         \"pinned_reference\": {}}}",
        host::cores(),
        host::RUSTC,
        host::GIT_REV,
        host::SOURCE_DIGEST,
        workload.name(),
        args.seed,
        u8::from(args.trace),
        outcome.run_times.len(),
        outcome.setups,
        outcome.pinned
    )
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &str) -> String {
    format!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{metrics}}}}}")
}

/// Runs every workload, each in a child process of its own so that peak
/// RSS stays per workload, and prints a combined result whose metrics
/// are prefixed with the workload name.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: cannot locate own executable: {e}");
            return ExitCode::from(2);
        }
    };
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut metrics = Vec::new();
    for workload in Workload::ALL {
        let size = match args.size {
            Size::Full => "full",
            Size::Tiny => "tiny",
        };
        let status = Command::new(&exe)
            .args(["--workload", workload.name(), "--size", size])
            .args([
                "--seed",
                &args.seed.to_string(),
                "--seconds",
                &args.seconds.to_string(),
            ])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .output();
        let out = match status {
            Ok(out) => out,
            Err(e) => {
                eprintln!("perfbench: cannot run {}: {e}", workload.name());
                return ExitCode::from(2);
            }
        };
        let stdout = String::from_utf8_lossy(&out.stdout);
        print!("{stdout}");
        eprint!("{}", String::from_utf8_lossy(&out.stderr));
        correct &= out.status.success();
        let last = stdout.lines().last().unwrap_or("");
        attempted += count(last, "\"attempted\": ");
        failed += count(last, "\"failed\": ");
        for line in stdout.lines() {
            if let ["metric", name, "=", value, unit] =
                line.split_whitespace().collect::<Vec<_>>()[..]
            {
                let value = value.parse::<f64>().unwrap_or(0.0);
                metrics.push(format!(
                    "\"{}.{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}",
                    workload.name()
                ));
            }
        }
    }
    println!(
        "{}",
        result_line(
            correct && failed == 0,
            attempted.max(1),
            failed,
            &metrics.join(", ")
        )
    );
    if correct && failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The whole number after `key` in `line`, or 0.
fn count(line: &str, key: &str) -> u64 {
    line.split_once(key)
        .and_then(|(_, rest)| rest.split(|c: char| !c.is_ascii_digit()).next())
        .and_then(|n| n.parse().ok())
        .unwrap_or(0)
}

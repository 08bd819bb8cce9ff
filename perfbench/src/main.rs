//! `perfbench --workload NAME --seed N --seconds S --trace 0|1
//! [--size full|tiny] [--out DIR] [--pin]`
//!
//! Runs one workload for `S` seconds and prints, as its last line, one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. The full result (manifest, quartiles, counters, layer
//! self times) and, on a traced run, the spans go to `DIR`.
//!
//! `--pin` prints the `pins.txt` line of the full-size workload and seed
//! instead of measuring.

use perfbench::report::{result_file, result_line};
use perfbench::run::{pin, run, Options};
use perfbench::spans::write_csv;
use perfbench::workload::{Size, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

/// Where results go unless `--out` says otherwise.
const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

/// What the command line asks for.
enum Command {
    /// Measure one run; results go to `out`.
    Run { opts: Options, out: PathBuf },
    /// Print the pin line of a full-size workload and seed.
    Pin {
        workload: Workload,
        seed: u64,
        out: PathBuf,
    },
}

fn parse_args() -> Result<Command, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut size = Size::Full;
    let mut out = PathBuf::from(OUT_DIR);
    let mut pin = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--pin" {
            pin = true;
            continue;
        }
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::from_name(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            "--size" => size = Size::from_name(&value).ok_or(format!("unknown size {value}"))?,
            "--out" => out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seed = seed.ok_or("--seed is required")?;
    if pin {
        return Ok(Command::Pin {
            workload,
            seed,
            out,
        });
    }
    Ok(Command::Run {
        opts: Options {
            workload,
            seed,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            size,
            work_dir: out.join("work"),
        },
        out,
    })
}

fn main() -> ExitCode {
    match main_inner() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main_inner() -> Result<(), String> {
    let (opts, out) = match parse_args()? {
        Command::Pin {
            workload,
            seed,
            out,
        } => {
            println!("{}", pin(workload, seed, &out.join("work"))?.line());
            return Ok(());
        }
        Command::Run { opts, out } => (opts, out),
    };
    let report = run(&opts)?;
    let stem = format!(
        "{}-{}-seed{}-trace{}",
        opts.workload.name(),
        opts.size.name(),
        opts.seed,
        u8::from(opts.trace)
    );
    let file = out.join(format!("{stem}.json"));
    std::fs::write(&file, result_file(&opts, &report))
        .map_err(|e| format!("cannot write {}: {e}", file.display()))?;
    if opts.trace {
        let spans = out.join(format!("{stem}-spans.csv"));
        write_csv(&spans, &report.recordings)
            .map_err(|e| format!("cannot write {}: {e}", spans.display()))?;
    }
    for problem in &report.checker.problems {
        eprintln!("perfbench: check failed: {problem}");
    }
    for m in &report.metrics {
        println!(
            "{:<32} {:>16.6} {:<6} q1 {:.6} q3 {:.6} n {}",
            m.name, m.stats.median, m.unit, m.stats.q1, m.stats.q3, m.stats.n
        );
    }
    println!("result file: {}", file.display());
    println!("{}", result_line(&report));
    Ok(())
}

//! Rendering a run: the run manifest, the full result file, and the one
//! result line the benchmark prints last.

use crate::run::{Options, RunReport};
use crate::spans::Layer;
use crate::workload::seed_start;
use std::fmt::Write;
use std::path::Path;

/// Escapes `s` as a JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number: every digit of `x`, or 0 for a non-finite value.
fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_owned()
    }
}

/// `path` relative to the repository root when it lies inside it, so a
/// result file names no directory of the host it ran on.
fn repo_relative(path: &Path) -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent();
    root.and_then(|r| path.strip_prefix(r).ok())
        .unwrap_or(path)
        .display()
        .to_string()
}

/// The filesystem type holding `path`: the longest mount point in
/// `/proc/self/mounts` that contains it.
fn filesystem_of(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".to_owned();
    };
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let _device = fields.next()?;
            let mount = fields.next()?;
            let fstype = fields.next()?;
            path.starts_with(mount)
                .then(|| (mount.len(), fstype.to_owned()))
        })
        .max()
        .map_or_else(|| "unknown".to_owned(), |(_, fstype)| fstype)
}

/// The run manifest as a JSON object.
fn manifest(opts: &Options, report: &RunReport) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let pinned = report.checker.pin().is_some();
    format!(
        "{{\"workload\":{},\"size\":{},\"seed\":{},\"seed_start\":{},\"seconds\":{},\
         \"trace\":{},\"nproc\":{nproc},\"workers\":1,\"spec\":{},\"spec_digest\":\"{:016x}\",\
         \"disk_tier_dir\":{},\"disk_tier_fs\":{},\"pinned\":{pinned}}}",
        json_str(opts.workload.name()),
        json_str(opts.size.name()),
        opts.seed,
        seed_start(opts.seed).unwrap_or(0),
        json_num(opts.seconds),
        u8::from(opts.trace),
        json_str(&repo_relative(&opts.workload.spec_path())),
        report.spec_digest,
        json_str(&repo_relative(&opts.work_dir)),
        json_str(&filesystem_of(&opts.work_dir)),
    )
}

/// The line the benchmark prints last: exactly `correct`, `attempted`,
/// `failed` and `metrics`, each metric with its value and unit.
pub fn result_line(report: &RunReport) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(m.name),
                json_num(m.stats.median),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.checker.correct(),
        report.checker.attempted.max(1),
        report.checker.failed,
        metrics.join(",")
    )
}

/// The full result file: manifest, checks, digest, exact counters, every
/// metric with its quartiles and sample count, and on a traced run the
/// per-layer self times.
pub fn result_file(opts: &Options, report: &RunReport) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"manifest\": {},", manifest(opts, report));
    let c = &report.checker;
    let problems: Vec<String> = c.problems.iter().map(|p| json_str(p)).collect();
    let _ = writeln!(
        out,
        "  \"correct\": {},\n  \"attempted\": {},\n  \"failed\": {},\n  \"problems\": [{}],",
        c.correct(),
        c.attempted,
        c.failed,
        problems.join(", ")
    );
    let digest = report
        .digest
        .map_or_else(|| "null".to_owned(), |d| format!("\"{d:016x}\""));
    let _ = writeln!(out, "  \"digest\": {digest},");
    let counters: Vec<String> = report
        .counters
        .map(|c| c.entries())
        .unwrap_or_default()
        .into_iter()
        .map(|(name, v)| format!("{}: {v}", json_str(name)))
        .collect();
    let _ = writeln!(out, "  \"counters\": {{{}}},", counters.join(", "));
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "    {}: {{\"value\": {}, \"unit\": {}, \"q1\": {}, \"q3\": {}, \"n\": {}, \"samples\": [{}]}}",
                json_str(m.name),
                json_num(m.stats.median),
                json_str(m.unit),
                json_num(m.stats.q1),
                json_num(m.stats.q3),
                m.stats.n,
                m.values.iter().map(|v| json_num(*v)).collect::<Vec<_>>().join(", ")
            )
        })
        .collect();
    let _ = writeln!(out, "  \"metrics\": {{\n{}\n  }},", metrics.join(",\n"));
    let layers: Vec<String> = Layer::ALL
        .iter()
        .filter_map(|l| report.layers.get(l).map(|t| (l, t)))
        .map(|(l, t)| {
            format!(
                "    {}: {{\"calls\": {}, \"self_ns\": {}, \"self_ns_per_call\": {}}}",
                json_str(l.name()),
                t.calls,
                t.self_ns,
                json_num(t.self_ns as f64 / t.calls.max(1) as f64)
            )
        })
        .collect();
    let _ = writeln!(
        out,
        "  \"layer_self_times\": {{\n{}\n  }}",
        layers.join(",\n")
    );
    out.push_str("}\n");
    out
}

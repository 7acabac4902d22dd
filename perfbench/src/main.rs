//! `tdf-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload once in this process and prints, as the last line
//! of standard output, `{"correct", "attempted", "failed", "metrics"}`:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. The lines before it give provenance and sample counts.
//! Scratch files (segment spills, journals) live under `.bench_tmp/` in
//! the working directory and are removed on exit; a traced run writes
//! its spans to `.bench_out/`.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use tdf_perfbench::ops::{Params, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    bad(&format!("expected one of {}", names.join(", ")))
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|s| (1..=600).contains(s))
                        .ok_or_else(|| bad("expected 1..=600"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// The checkout's git rev. Git may not look above the working directory,
/// so a run outside a git checkout reads nothing outside it.
fn git_rev(cwd: &Path) -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", cwd.parent().unwrap_or(cwd))
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or("unknown".to_owned(), |s| s.trim().to_owned())
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn provenance(p: &Params, trace: bool, cwd: &Path) -> String {
    let mut tdf: Vec<(String, String)> = std::env::vars()
        .filter(|(k, _)| k.starts_with("TDF_"))
        .collect();
    tdf.sort();
    let env: Vec<String> = tdf
        .iter()
        .map(|(k, v)| format!("{}:{}", json_str(k), json_str(v)))
        .collect();
    format!(
        "{{\"provenance\":{{\"git_rev\":{},\"nproc\":{},\"measured_cores\":{},\"seed\":{},\"trace\":{},\"tdf_env\":{{{}}},\"params\":{}}}}}",
        json_str(&git_rev(cwd)),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        par::measured_cores(),
        p.seed,
        u8::from(trace),
        env.join(","),
        p.to_json()
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("tdf-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let p = Params::new(args.workload, args.seed, args.seconds);
    let cwd = match std::env::current_dir() {
        Ok(d) => d,
        Err(e) => {
            eprintln!("tdf-perfbench: working directory: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Every scratch file stays inside the working directory: the server
    // and the segment store put theirs in the temp dir.
    let tmp: PathBuf = cwd.join(".bench_tmp").join(std::process::id().to_string());
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("tdf-perfbench: {}: {e}", tmp.display());
        return ExitCode::FAILURE;
    }
    // No other thread exists yet, so changing the environment is safe.
    std::env::set_var("TMPDIR", &tmp);
    if args.trace {
        std::env::set_var("TDF_OBS", "1");
    }
    let result = tdf_perfbench::run(&p, args.trace, &tmp);
    let _ = std::fs::remove_dir_all(&tmp);
    let _ = std::fs::remove_dir(cwd.join(".bench_tmp"));
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("tdf-perfbench: {}: {e}", p.workload.name());
            return ExitCode::FAILURE;
        }
    };
    if let Some(spans) = &report.spans {
        let dir = cwd.join(".bench_out");
        let path = dir.join(format!("spans-{}-{}.jsonl", p.workload.name(), p.seed));
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::File::create(&path))
            .and_then(|f| spans.write_jsonl(&mut std::io::BufWriter::new(f)));
        match written {
            Ok(()) => println!("spans: {}", path.display()),
            Err(e) => eprintln!("tdf-perfbench: {}: {e}", path.display()),
        }
    }
    println!("{}", provenance(&p, args.trace, &cwd));
    for note in &report.notes {
        println!("{note}");
    }
    for (name, unit, value) in &report.metrics {
        println!("{name:<34} {value:>14.4} {unit}");
    }
    println!("{}", report.to_json());
    ExitCode::SUCCESS
}

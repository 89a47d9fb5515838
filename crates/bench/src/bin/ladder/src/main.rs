//! `ladder`: the repository's one benchmark. README.md in this directory
//! lists the workloads, every metric, and how to read a trace file.
//!
//! ```text
//! ladder --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run
//! ladder --workload all --seed 7 --out <dir> [--repeat N] [--trace 1]
//! ladder --check                                                   1/20 scale
//! ladder compare a.json b.json
//! ```

mod gen;
mod grid;
mod layers;
mod metrics;
mod oracle;
mod recorder;
mod report;
mod run;
mod rungs;
mod served;
mod tpch;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use metrics::{end_to_end, per_layer, END_TO_END, PER_LAYER};
use report::{Json, RunRecord};
use run::{Args, Outcome};

pub const WORKLOADS: [&str; 4] = ["tpch_read", "tpch_dml_cycle", "grid_htap", "served_mix"];

/// Seconds a run measures unless `--seconds` says otherwise: the
/// `run_seconds` of BENCHMARK.json.
const RUN_SECONDS: f64 = 20.0;

/// Threads that generate load in a workload.
fn generator_threads(workload: &str) -> usize {
    match workload {
        "grid_htap" | "served_mix" => 2,
        _ => 1,
    }
}

fn run_workload(workload: &str, args: &Args) -> Outcome {
    match workload {
        "tpch_read" => tpch::run(tpch::Which::Read, args),
        "tpch_dml_cycle" => tpch::run(tpch::Which::DmlCycle, args),
        "grid_htap" => grid::run(args),
        "served_mix" => served::run(args),
        other => unreachable!("workload names are checked before: {other}"),
    }
}

struct Cli {
    workload: String,
    args: Args,
    out: PathBuf,
    repeat: usize,
}

fn parse_cli(argv: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: "all".into(),
        args: Args {
            seed: 7,
            seconds: RUN_SECONDS,
            trace: false,
            check: false,
        },
        out: PathBuf::from("ladder_out"),
        repeat: 1,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => cli.workload = value("a name")?.clone(),
            "--seed" => {
                cli.args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                cli.args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--out" => cli.out = PathBuf::from(value("a directory")?),
            "--repeat" => {
                cli.repeat = value("a count")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?
            }
            // `--trace 1`, `--trace 0`, or a bare `--trace`.
            "--trace" => {
                cli.args.trace = match it.clone().next().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--check" => cli.args.check = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if cli.workload != "all" && !WORKLOADS.contains(&cli.workload.as_str()) {
        return Err(format!(
            "unknown workload {}; one of {WORKLOADS:?} or all",
            cli.workload
        ));
    }
    if !(cli.args.seconds.is_finite() && cli.args.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(cli)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// One workload, in this process. Prints the metric lines, then the
/// result line.
fn single(cli: &Cli) -> ExitCode {
    if cfg!(debug_assertions) && !cli.args.check {
        eprintln!("ladder: a debug build measures nothing worth keeping; build with --release (or pass --check)");
        return ExitCode::from(2);
    }
    if nproc() < generator_threads(&cli.workload) {
        eprintln!(
            "ladder: {} drives {} threads and this box has {}",
            cli.workload,
            generator_threads(&cli.workload),
            nproc()
        );
        return ExitCode::from(2);
    }
    let outcome = run_workload(&cli.workload, &cli.args);
    let e2e = end_to_end(&outcome);
    let layers = if cli.args.trace {
        per_layer(&outcome)
    } else {
        Vec::new()
    };
    print!("{}", report::metric_lines(&cli.workload, &e2e, &layers));
    for (name, n) in &outcome.sizes {
        println!("{} size.{name} {n}", cli.workload);
    }
    println!(
        "{} size.measured_ms {}",
        cli.workload,
        (outcome.measured_s * 1e3) as u64
    );
    if cli.args.check {
        println!(
            "NOT COMPARABLE: --check runs 1/20 of the rows for {} s",
            cli.args.seconds
        );
    }
    if cli.args.trace {
        let path = cli.out.join(format!("trace_{}.json", cli.workload));
        let written = std::fs::create_dir_all(&cli.out)
            .and_then(|()| std::fs::write(&path, trace::to_json(&cli.workload, &outcome.spans)));
        match written {
            Ok(()) => println!(
                "{} trace {} spans -> {}",
                cli.workload,
                outcome.spans.len(),
                path.display()
            ),
            Err(e) => {
                eprintln!("ladder: cannot write {}: {e}", path.display());
                return ExitCode::from(2);
            }
        }
    }
    let attempted = outcome.rec.attempted();
    let failed = outcome.rec.failures();
    // A traced run reports the per-layer metrics, an untraced one the
    // end-to-end metrics: the two are never taken from the same run.
    let metrics: Vec<(&str, f64, &str)> = if cli.args.trace {
        layers
            .iter()
            .zip(&PER_LAYER)
            .map(|((name, value), (_, unit, _))| (*name, *value, *unit))
            .collect()
    } else {
        e2e.iter()
            .zip(&END_TO_END)
            .map(|((name, value, _), m)| (*name, *value, m.unit))
            .collect()
    };
    let complete = metrics.iter().all(|(_, v, _)| v.is_finite());
    if !complete {
        eprintln!("ladder: a metric has no value; the run is too short for the workload");
    }
    let correct = failed == 0 && complete;
    println!(
        "{}",
        report::result_line(correct, attempted, failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// A child run's result line and its `size.` lines.
type ChildResult = (Json, Vec<(String, u64)>);

/// Runs this binary again for one workload.
fn child(cli: &Cli, workload: &str, trace: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &cli.args.seed.to_string()]);
    cmd.args(["--seconds", &cli.args.seconds.to_string()]);
    cmd.args(["--trace", if trace { "1" } else { "0" }]);
    cmd.arg("--out").arg(&cli.out);
    if cli.args.check {
        cmd.arg("--check");
    }
    let output = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    if !output.status.success() {
        eprint!("{}", String::from_utf8_lossy(&output.stderr));
        return Err(format!("{workload} exited with {}", output.status));
    }
    let sizes = stdout
        .lines()
        .filter_map(|l| l.strip_prefix(workload)?.trim_start().strip_prefix("size."))
        .filter_map(|l| l.split_once(' '))
        .filter_map(|(name, n)| Some((name.to_string(), n.parse().ok()?)))
        .collect();
    let result =
        Json::parse(stdout.lines().last().unwrap_or("")).map_err(|e| format!("{workload}: {e}"))?;
    Ok((result, sizes))
}

fn git_commit() -> String {
    Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".into(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        })
}

/// Every workload, each in a child process of its own (so that peak
/// memory is the workload's), `--repeat` times over, alternating the
/// workloads within a set. Writes `ladder.json`.
fn all(cli: &Cli) -> ExitCode {
    match record_sets(cli) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("ladder: {e}");
            ExitCode::from(1)
        }
    }
}

/// `Ok(false)` when the record was written but a measured part ran for
/// the wrong length.
fn record_sets(cli: &Cli) -> Result<bool, String> {
    let mut record = RunRecord {
        nproc: nproc(),
        profile: if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        commit: git_commit(),
        seed: cli.args.seed,
        seconds: cli.args.seconds,
        repetitions: cli.repeat,
        comparable: !cli.args.check,
        end_to_end: BTreeMap::new(),
        per_layer: BTreeMap::new(),
        sizes: BTreeMap::new(),
    };
    let keep =
        |into: &mut BTreeMap<String, BTreeMap<String, Vec<f64>>>, workload: &str, result: &Json| {
            for (name, m) in result.get("metrics").map_or(&[][..], Json::fields) {
                into.entry(workload.into())
                    .or_default()
                    .entry(name.clone())
                    .or_default()
                    .push(m.get("value").map_or(f64::NAN, Json::num));
            }
        };
    let mut right_length = true;
    for _ in 0..cli.repeat {
        for workload in WORKLOADS {
            let (result, sizes) = child(cli, workload, false)?;
            keep(&mut record.end_to_end, workload, &result);
            // Rounds are whole, so a run overshoots by up to one round;
            // past half again the round is too long for the run and the
            // frozen sizes need another look.
            let ms = sizes
                .iter()
                .find(|(k, _)| k == "measured_ms")
                .map_or(0.0, |(_, v)| *v as f64);
            if !cli.args.check && !(1e3 * cli.args.seconds..=1.5e3 * cli.args.seconds).contains(&ms)
            {
                eprintln!(
                    "ladder: {workload} measured for {ms} ms, not {} s to half again that",
                    cli.args.seconds
                );
                right_length = false;
            }
            record.sizes.insert(workload.into(), sizes);
            if cli.args.trace {
                let (result, _) = child(cli, workload, true)?;
                keep(&mut record.per_layer, workload, &result);
            }
        }
    }
    let path = cli.out.join("ladder.json");
    std::fs::create_dir_all(&cli.out)
        .and_then(|()| std::fs::write(&path, record.to_json()))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(right_length)
}

fn compare(a: &Path, b: &Path) -> ExitCode {
    let load = |p: &Path| {
        std::fs::read_to_string(p)
            .map_err(|e| e.to_string())
            .and_then(|t| Json::parse(&t))
            .map_err(|e| format!("{}: {e}", p.display()))
    };
    match (load(a), load(b)) {
        (Ok(a), Ok(b)) => {
            let (table, worse) = report::compare(&a, &b);
            print!("{table}");
            if worse == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("ladder compare: {e}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return match &argv[1..] {
            [a, b] => compare(Path::new(a), Path::new(b)),
            _ => {
                eprintln!("usage: ladder compare a.json b.json");
                ExitCode::from(2)
            }
        };
    }
    let mut cli = match parse_cli(&argv) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("ladder: {e}");
            return ExitCode::from(2);
        }
    };
    if cli.args.check && !argv.iter().any(|a| a == "--seconds") {
        cli.args.seconds = 1.0;
    }
    if cli.workload == "all" {
        all(&cli)
    } else {
        single(&cli)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What `--check` runs: every workload at 1/20 scale, traced and
    /// untraced, with every oracle check.
    #[test]
    fn every_workload_passes_its_checks_at_small_scale() {
        for workload in WORKLOADS {
            for trace in [false, true] {
                let args = Args {
                    seed: 11,
                    seconds: 0.3,
                    trace,
                    check: true,
                };
                let o = run_workload(workload, &args);
                assert!(o.rec.attempted() > 0, "{workload} sent nothing");
                assert_eq!(
                    o.rec.failures(),
                    0,
                    "{workload} trace={trace} failed its checks"
                );
                for (name, value, _) in end_to_end(&o) {
                    assert!(
                        value.is_finite() && value > 0.0,
                        "{workload} {name} = {value}"
                    );
                }
                if trace {
                    assert!(!o.spans.is_empty(), "{workload} recorded no spans");
                }
            }
        }
    }

    #[test]
    fn the_driver_command_line_parses() {
        let argv: Vec<String> = "--workload grid_htap --seed 3 --seconds 20 --trace 0"
            .split(' ')
            .map(String::from)
            .collect();
        let cli = parse_cli(&argv).unwrap();
        assert_eq!(cli.workload, "grid_htap");
        assert_eq!(cli.args.seed, 3);
        assert!(!cli.args.trace);
        assert!(parse_cli(&["--workload".into(), "nope".into()]).is_err());
        let traced = parse_cli(&["--trace".into(), "--check".into()]).unwrap();
        assert!(traced.args.trace && traced.args.check);
    }
}

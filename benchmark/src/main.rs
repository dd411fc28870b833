//! The repository's benchmark.  One binary, four ways in:
//!
//! * `--workload <name> --seed <n> --seconds <s> --trace <0|1>` — one
//!   workload, the result as one JSON object on the last line of stdout
//!   (the form `BENCHMARK.json`'s command is run in);
//! * `run [--smoke] [--seed <n>] [--out <file>]` — all eight workloads in
//!   three interleaved passes plus a traced pass, written as one JSON file;
//! * `compare <a.json> <b.json>` — has `b` regressed against `a`?
//! * `trial <workload> …` — one trial; the other modes run it as a child.
//!
//! See `README.md` for what is measured and why.

mod compare;
mod json;
mod metrics;
mod procfs;
mod replay;
mod runner;
mod spans;
mod stats;
mod trial;
mod workloads;

use json::Json;
use metrics::{layer_unit, Layers, END_TO_END};
use runner::{fold_end_to_end, layer_pass, spawn_valid_trial, Folded, TrialOut};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};
use trial::TrialSpec;
use workloads::{workload_by_name, Workload, PINNED_SEED, WORKLOADS};

// Window lengths: every trial warms up for `WARMUP` and measures one window.
const WARMUP: Duration = Duration::from_millis(500);
/// Measured window of a gated trial under `run`.
const RUN_WINDOW: Duration = Duration::from_millis(2_500);
/// Measured window of the traced trial under `run`.
const TRACED_WINDOW: Duration = Duration::from_millis(1_500);
const SMOKE_WARMUP: Duration = Duration::from_millis(100);
const SMOKE_WINDOW: Duration = Duration::from_millis(300);
/// Gated trials per workload; each reported value is their median.  The
/// single-workload form splits `--seconds` evenly over this many windows.
const TRIALS: u32 = 5;

/// Where span files and `run` results go, relative to the working directory
/// (the repository root when run as documented).
const OUT_DIR: &str = "benchmark/out";

fn main() -> ExitCode {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("trial") => trial_main(&args[1..], started),
        Some("run") => run_main(&args[1..]),
        Some("compare") => match &args[1..] {
            [a, b] => compare::compare_files(a, b),
            _ => Err("usage: compare <a.json> <b.json>".to_string()),
        },
        Some(flag) if flag.starts_with("--") => single_main(&args),
        _ => Err(
            "usage: --workload <name> --seed <n> --seconds <s> --trace <0|1> | run [--smoke] [--seed <n>] [--out <file>] | compare <a.json> <b.json>"
                .to_string(),
        ),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("benchmark: {message}");
            ExitCode::FAILURE
        }
    }
}

/// The value following `flag`, parsed; `default` when the flag is absent.
fn flag<T: std::str::FromStr>(
    args: &[String],
    flag: &str,
    default: Option<T>,
) -> Result<T, String> {
    match args.iter().position(|a| a == flag) {
        Some(i) => args
            .get(i + 1)
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("`{flag}` needs a valid value")),
        None => default.ok_or_else(|| format!("`{flag}` is required")),
    }
}

/// Block offset of a workload's `k`-th gated trial: the trials start evenly
/// spaced through the block.
fn trial_offset(k: u32) -> u64 {
    (k % TRIALS) as u64 * (workloads::BLOCK_TXNS as u64 / TRIALS as u64)
}

fn named_workload(name: &str) -> Result<&'static Workload, String> {
    workload_by_name(name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload `{name}`; one of {}", names.join(", "))
    })
}

// ---------------------------------------------------------------------------
// trial: one trial in this process
// ---------------------------------------------------------------------------

fn trial_main(args: &[String], started: Instant) -> Result<bool, String> {
    let name = args.first().ok_or("usage: trial <workload> [flags]")?;
    let spec = TrialSpec {
        workload: named_workload(name)?,
        seed: flag(args, "--seed", Some(PINNED_SEED))?,
        warmup: Duration::from_millis(flag(args, "--warmup-ms", Some(WARMUP.as_millis() as u64))?),
        window: Duration::from_millis(flag(
            args,
            "--window-ms",
            Some(RUN_WINDOW.as_millis() as u64),
        )?),
        offset: flag(args, "--offset", Some(0))?,
        traced: flag::<u8>(args, "--traced", Some(0))? != 0,
    };
    let trial = trial::run_trial(&spec, started)?;
    if spec.traced {
        let path = Path::new(OUT_DIR).join(format!("spans-{}.csv", spec.workload.name));
        trial
            .spans
            .write_csv(&path)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!(
            "{} spans, written to {}",
            trial.spans.all().len(),
            path.display()
        );
    }
    for check in &trial.checks {
        println!(
            "check {:<34} {}  {}",
            check.name,
            if check.ok { "ok  " } else { "FAIL" },
            check.detail
        );
    }
    println!("{}", runner::trial_json(&spec, &trial));
    // A trial that produced a result exits 0; its `correct` field carries
    // the checks, and the parent decides.
    Ok(true)
}

// ---------------------------------------------------------------------------
// --workload …: one workload, the driver's contract
// ---------------------------------------------------------------------------

fn single_main(args: &[String]) -> Result<bool, String> {
    let workload = named_workload(&flag::<String>(args, "--workload", None)?)?;
    let seed: u64 = flag(args, "--seed", Some(PINNED_SEED))?;
    let seconds: f64 = flag(args, "--seconds", None)?;
    let traced = flag::<u8>(args, "--trace", Some(0))? != 0;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("`--seconds` must be positive".to_string());
    }
    let window = Duration::from_secs_f64(seconds / TRIALS as f64);
    let spec = TrialSpec {
        workload,
        seed,
        warmup: WARMUP,
        window,
        offset: 0,
        traced: false,
    };
    println!(
        "{}: {} trials, {:.2}s warm-up + {:.2}s measured each, seed {seed}",
        workload.name,
        if traced { 2 } else { TRIALS },
        WARMUP.as_secs_f64(),
        window.as_secs_f64()
    );

    let (trials, metrics) = if traced {
        // Tracing off first: its throughput is the base of the overhead.
        let untraced = spawn_valid_trial(&spec)?;
        let traced = spawn_valid_trial(&TrialSpec {
            traced: true,
            ..spec
        })?;
        let (layers, counts) = layer_pass(workload, seed, &traced, untraced.end_to_end[0])?;
        print_layers(&layers, counts);
        let metrics = layers
            .0
            .iter()
            .map(|v| (v.name, v.value, layer_unit(v.name)))
            .collect::<Vec<_>>();
        (vec![untraced, traced], metrics)
    } else {
        let trials = (0..TRIALS)
            .map(|k| {
                spawn_valid_trial(&TrialSpec {
                    offset: trial_offset(k),
                    ..spec
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        let folded = fold_end_to_end(&trials);
        print_end_to_end(&folded, &trials);
        // `failed_frac`, folded last, travels as the attempted/failed counts.
        let metrics = folded[..END_TO_END.len()]
            .iter()
            .map(|(name, unit, folded)| (*name, folded.median, *unit))
            .collect();
        (trials, metrics)
    };

    let correct = report_failed_checks(workload, &trials);
    let result = Json::obj([
        ("correct", Json::from(correct)),
        (
            "attempted",
            Json::from(trials.iter().map(|t| t.attempted).sum::<u64>()),
        ),
        (
            "failed",
            Json::from(trials.iter().map(|t| t.failed).sum::<u64>()),
        ),
        (
            "metrics",
            Json::Obj(
                metrics
                    .into_iter()
                    .map(|(name, value, unit)| {
                        (
                            name.to_string(),
                            Json::obj([("value", Json::from(value)), ("unit", Json::str(unit))]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{result}");
    Ok(correct)
}

/// Print every failed output check; `true` when there is none.
fn report_failed_checks(workload: &Workload, trials: &[TrialOut]) -> bool {
    let mut correct = true;
    for (index, trial) in trials.iter().enumerate() {
        for failure in &trial.failed_checks {
            correct = false;
            println!("{} trial {index}: CHECK FAILED {failure}", workload.name);
        }
    }
    correct
}

fn print_end_to_end(folded: &[(&str, &str, Folded)], trials: &[TrialOut]) {
    let samples: Vec<u64> = trials.iter().map(|t| t.latency_samples).collect();
    for (name, unit, metric) in folded {
        println!(
            "  {:<16} {:>14.4} {:<6} spread {:>5.1}%  trials {:?}",
            name,
            metric.median,
            unit,
            metric.spread * 100.0,
            metric.trials
        );
    }
    println!("  latency samples per trial {samples:?}");
}

fn print_layers(layers: &Layers, replay: Option<replay::ReplayCounts>) {
    for value in &layers.0 {
        println!(
            "  {:<40} {:>14.4} {:<10} n={}",
            value.name,
            value.value,
            layer_unit(value.name),
            value.count
        );
    }
    if let Some(counts) = replay {
        println!(
            "  inline replay: {} rounds, {} requests scheduled, {} delta rows",
            counts.rounds, counts.scheduled, counts.delta_rows
        );
    }
}

// ---------------------------------------------------------------------------
// run: all workloads, interleaved passes, one JSON file
// ---------------------------------------------------------------------------

fn run_main(args: &[String]) -> Result<bool, String> {
    let smoke = args.iter().any(|a| a == "--smoke");
    let seed: u64 = flag(args, "--seed", Some(PINNED_SEED))?;
    let default_out = Path::new(OUT_DIR).join(if smoke {
        format!("smoke-seed{seed}.json")
    } else {
        format!("run-seed{seed}.json")
    });
    let out: PathBuf = flag(args, "--out", Some(default_out))?;
    let (warmup, window, traced_window, passes) = if smoke {
        (SMOKE_WARMUP, SMOKE_WINDOW, SMOKE_WINDOW, 1)
    } else {
        (WARMUP, RUN_WINDOW, TRACED_WINDOW, TRIALS)
    };

    // Passes are interleaved — all workloads, then all again — so a noisy
    // period on the host spoils at most one trial per workload.
    let mut gated: Vec<Vec<TrialOut>> = vec![Vec::new(); WORKLOADS.len()];
    for pass in 0..passes {
        for (slot, workload) in gated.iter_mut().zip(&WORKLOADS) {
            let trial = spawn_valid_trial(&TrialSpec {
                workload,
                seed,
                warmup,
                window,
                offset: trial_offset(pass),
                traced: false,
            })?;
            println!(
                "pass {} {:<26} {:>12.1} txn/s  p50 {:>10.1} us  p95 {:>10.1} us  setup {:.3} s",
                pass + 1,
                workload.name,
                trial.end_to_end[0],
                trial.end_to_end[1],
                trial.end_to_end[2],
                trial.end_to_end[3]
            );
            slot.push(trial);
        }
    }

    let mut correct = true;
    let mut entries = Vec::new();
    for (workload, trials) in WORKLOADS.iter().zip(&gated) {
        println!("{}", workload.name);
        let folded = fold_end_to_end(trials);
        print_end_to_end(&folded, trials);
        let traced = spawn_valid_trial(&TrialSpec {
            workload,
            seed,
            warmup,
            window: traced_window,
            offset: 0,
            traced: true,
        })?;
        let untraced_tps = folded[0].2.median;
        let (layers, counts) = layer_pass(workload, seed, &traced, untraced_tps)?;
        print_layers(&layers, counts);
        let mut all = trials.clone();
        all.push(traced);
        correct &= report_failed_checks(workload, &all);
        entries.push(Json::obj([
            ("name", Json::str(workload.name)),
            ("why", Json::str(workload.why)),
            ("config", runner::config_json(workload)),
            (
                "end_to_end",
                Json::Obj(
                    folded
                        .iter()
                        .map(|(name, unit, f)| (name.to_string(), f.json(unit)))
                        .collect(),
                ),
            ),
            (
                "latency_samples",
                Json::Arr(
                    trials
                        .iter()
                        .map(|t| Json::from(t.latency_samples))
                        .collect(),
                ),
            ),
            ("per_layer", runner::layers_json(&layers)),
            (
                "inline_replay_counts",
                counts.map_or(Json::Null, |c| {
                    Json::obj([
                        ("rounds", Json::from(c.rounds)),
                        ("scheduled", Json::from(c.scheduled)),
                        ("delta_rows", Json::from(c.delta_rows)),
                    ])
                }),
            ),
        ]));
    }

    let document = Json::obj([
        (
            "env",
            environment(seed, warmup, window, traced_window, passes),
        ),
        ("correct", Json::from(correct)),
        ("workloads", Json::Arr(entries)),
    ]);
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&out, format!("{document}\n")).map_err(|e| format!("{}: {e}", out.display()))?;
    println!("wrote {}", out.display());
    Ok(correct)
}

/// What the numbers depend on besides the code: recorded in every `run` file.
fn environment(
    seed: u64,
    warmup: Duration,
    window: Duration,
    traced_window: Duration,
    passes: u32,
) -> Json {
    let command_line = |program: &str, args: &[&str]| -> Json {
        Command::new(program)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map_or(Json::str("unknown"), |o| {
                Json::str(String::from_utf8_lossy(&o.stdout).trim())
            })
    };
    Json::obj([
        (
            "nproc",
            Json::from(std::thread::available_parallelism().map_or(0, |n| n.get() as u64)),
        ),
        ("git_revision", command_line("git", &["rev-parse", "HEAD"])),
        ("rustc", command_line("rustc", &["-V"])),
        ("seed", Json::from(seed)),
        ("warmup_s", Json::from(warmup.as_secs_f64())),
        ("window_s", Json::from(window.as_secs_f64())),
        ("traced_window_s", Json::from(traced_window.as_secs_f64())),
        ("passes", Json::from(passes as u64)),
        ("table_rows", Json::from(workloads::TABLE_ROWS as u64)),
        ("block_txns", Json::from(workloads::BLOCK_TXNS as u64)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use metrics::PER_LAYER;

    /// `BENCHMARK.json` at the repository root declares exactly the
    /// workloads and metrics this binary knows.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let manifest = Json::parse(&text).expect("BENCHMARK.json parses");
        let list = |key: &str| manifest.get(key).and_then(Json::as_arr).unwrap().to_vec();
        let text_of =
            |entry: &Json, key: &str| entry.get(key).and_then(Json::as_str).unwrap().to_string();

        let declared: Vec<(String, String)> = list("workloads")
            .iter()
            .map(|w| (text_of(w, "name"), text_of(w, "why")))
            .collect();
        let known: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(declared, known);
        assert!(known
            .iter()
            .all(|(_, why)| why.len() <= 200 && !why.contains('\n')));

        let declared: Vec<(String, String, String, f64)> = list("end_to_end")
            .iter()
            .map(|m| {
                (
                    text_of(m, "name"),
                    text_of(m, "unit"),
                    text_of(m, "better"),
                    m.get("bound").and_then(Json::as_f64).unwrap(),
                )
            })
            .collect();
        let known: Vec<(String, String, String, f64)> = END_TO_END
            .iter()
            .map(|m| {
                let better = if m.higher_is_better {
                    "higher"
                } else {
                    "lower"
                };
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    better.to_string(),
                    m.bound,
                )
            })
            .collect();
        assert_eq!(declared, known);

        let declared: Vec<(String, String)> = list("per_layer")
            .iter()
            .map(|m| (text_of(m, "name"), text_of(m, "unit")))
            .collect();
        let known: Vec<(String, String)> = PER_LAYER
            .iter()
            .map(|(name, unit)| (name.to_string(), unit.to_string()))
            .collect();
        assert_eq!(declared, known);

        assert_eq!(
            manifest.get("paths").and_then(Json::as_arr).unwrap(),
            [Json::str("benchmark")]
        );
    }
}

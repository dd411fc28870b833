//! Running trials as child processes and folding their results.
//!
//! Every trial re-executes this binary (`trial <workload> …`): a trial's heap
//! (the deployment keeps an unbounded executed-request log, hundreds of
//! megabytes after a few seconds) never taxes the next one, and a trial that
//! hangs can be killed.

use crate::json::Json;
use crate::metrics::{layer_unit, Layers, END_TO_END, FAILED_FRAC, PER_LAYER};
use crate::replay;
use crate::stats::{median, ratio, spread};
use crate::trial::{Trial, TrialSpec};
use crate::workloads::{Block, Load, Workload};
use std::io::Read;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// A trial child is killed this long after its windows should have ended:
/// the bound on tickets that never resolve.
const TRIAL_GRACE: Duration = Duration::from_secs(20);

/// An open-loop trial whose generator ran later than this (p99 of submit
/// time minus due time) is rerun once.  `simkit`'s pacer sleeps, and on the
/// reference host an idle `sleep(50 us)` already returns after 130 us at the
/// median and 220 us at p99; busy, the lag's p99 sits at 170-400 us.  Past a
/// millisecond the lag is as large as the latency tail it would distort.
pub const PACER_LAG_LIMIT_US: f64 = 1_000.0;

/// One finished trial as the parent sees it.
#[derive(Debug, Clone)]
pub struct TrialOut {
    /// Values in [`END_TO_END`] order.
    pub end_to_end: [f64; END_TO_END.len()],
    pub latency_samples: u64,
    pub attempted: u64,
    pub failed: u64,
    /// `name: detail` of every failed output check.
    pub failed_checks: Vec<String>,
    pub layers: Layers,
}

impl TrialOut {
    pub fn failed_frac(&self) -> f64 {
        ratio(self.failed as f64, self.attempted as f64)
    }
}

/// The JSON a trial child prints as its last line.
pub fn trial_json(spec: &TrialSpec, trial: &Trial) -> Json {
    Json::obj([
        ("workload", Json::str(spec.workload.name)),
        ("seed", Json::from(spec.seed)),
        ("traced", Json::from(spec.traced)),
        ("warmup_s", Json::from(spec.warmup.as_secs_f64())),
        ("window_s", Json::from(spec.window.as_secs_f64())),
        ("offset", Json::from(spec.offset)),
        ("throughput_tps", Json::from(trial.throughput_tps)),
        ("latency_p50_us", Json::from(trial.latency_p50_us)),
        ("latency_p95_us", Json::from(trial.latency_p95_us)),
        ("latency_samples", Json::from(trial.latency_samples)),
        ("setup_s", Json::from(trial.setup_s)),
        ("attempted", Json::from(trial.attempted)),
        ("failed", Json::from(trial.failed)),
        (
            "fingerprint",
            Json::str(format!("{:#018x}", trial.fingerprint)),
        ),
        ("correct", Json::from(trial.correct())),
        (
            "checks",
            Json::Arr(
                trial
                    .checks
                    .iter()
                    .map(|c| {
                        Json::obj([
                            ("name", Json::str(c.name)),
                            ("ok", Json::from(c.ok)),
                            ("detail", Json::str(c.detail.clone())),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("layers", layers_json(&trial.layers)),
    ])
}

/// `{name: {value, unit, count}}`.
pub fn layers_json(layers: &Layers) -> Json {
    Json::Obj(
        layers
            .0
            .iter()
            .map(|v| {
                (
                    v.name.to_string(),
                    Json::obj([
                        ("value", Json::from(v.value)),
                        ("unit", Json::str(layer_unit(v.name))),
                        ("count", Json::from(v.count)),
                    ]),
                )
            })
            .collect(),
    )
}

fn parse_trial(json: &Json) -> Result<TrialOut, String> {
    let number = |key: &str| {
        json.get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("trial result lacks `{key}`"))
    };
    let mut end_to_end = [0.0; END_TO_END.len()];
    for (slot, metric) in end_to_end.iter_mut().zip(&END_TO_END) {
        *slot = number(metric.name)?;
    }
    let failed_checks = json
        .get("checks")
        .and_then(Json::as_arr)
        .ok_or("trial result lacks `checks`")?
        .iter()
        .filter(|c| c.get("ok").and_then(Json::as_bool) != Some(true))
        .map(|c| {
            format!(
                "{}: {}",
                c.get("name").and_then(Json::as_str).unwrap_or("?"),
                c.get("detail").and_then(Json::as_str).unwrap_or("?")
            )
        })
        .collect();
    let mut layers = Layers::default();
    for (name, entry) in json
        .get("layers")
        .and_then(Json::as_obj)
        .ok_or("trial result lacks `layers`")?
    {
        let &(name, _) = PER_LAYER
            .iter()
            .find(|(known, _)| known == name)
            .ok_or_else(|| format!("trial result has unknown layer metric `{name}`"))?;
        let field = |key| entry.get(key).and_then(Json::as_f64).unwrap_or(0.0);
        layers.put(name, field("value"), field("count") as u64);
    }
    Ok(TrialOut {
        end_to_end,
        latency_samples: number("latency_samples")? as u64,
        attempted: number("attempted")? as u64,
        failed: number("failed")? as u64,
        failed_checks,
        layers,
    })
}

/// Run one trial in a child process and parse its result.
fn spawn_trial(spec: &TrialSpec) -> Result<TrialOut, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut child = Command::new(exe)
        .arg("trial")
        .arg(spec.workload.name)
        .args(["--seed", &spec.seed.to_string()])
        .args(["--warmup-ms", &spec.warmup.as_millis().to_string()])
        .args(["--window-ms", &spec.window.as_millis().to_string()])
        .args(["--offset", &spec.offset.to_string()])
        .args(["--traced", if spec.traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot start trial process: {e}"))?;
    let mut stdout = child.stdout.take().expect("stdout is piped");
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        stdout.read_to_string(&mut text).map(|_| text)
    });

    let deadline = Instant::now() + spec.warmup + spec.window + TRIAL_GRACE;
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break Ok(status),
            Ok(None) if Instant::now() >= deadline => {
                // Reap the child before reporting, so nothing outlives us.
                let _ = child.kill();
                let _ = child.wait();
                break Err(format!(
                    "trial {} still running {}s after its window; killed",
                    spec.workload.name,
                    TRIAL_GRACE.as_secs()
                ));
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(20)),
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                break Err(format!("cannot wait for trial process: {e}"));
            }
        }
    };
    let text = reader
        .join()
        .map_err(|_| "trial output reader panicked".to_string())?
        .map_err(|e| format!("cannot read trial output: {e}"))?;
    let status = status?;
    if !status.success() {
        return Err(format!("trial {} exited with {status}", spec.workload.name));
    }
    let last = text
        .lines()
        .rev()
        .find(|line| !line.trim().is_empty())
        .ok_or("trial printed nothing")?;
    parse_trial(&Json::parse(last)?)
}

/// [`spawn_trial`], rerunning an open-loop trial once when its load
/// generator ran late: such a trial measured the generator, not the system.
pub fn spawn_valid_trial(spec: &TrialSpec) -> Result<TrialOut, String> {
    let trial = spawn_trial(spec)?;
    let late = trial
        .layers
        .get("simkit.pacer_lag_p99_us")
        .is_some_and(|lag| lag.value > PACER_LAG_LIMIT_US);
    if matches!(spec.workload.load, Load::Open { .. }) && late {
        eprintln!(
            "{}: pacer lag p99 above {PACER_LAG_LIMIT_US} us, rerunning the trial once",
            spec.workload.name
        );
        return spawn_trial(spec);
    }
    Ok(trial)
}

/// Median, spread and raw values of one metric over a workload's trials.
#[derive(Debug, Clone)]
pub struct Folded {
    pub median: f64,
    pub spread: f64,
    pub trials: Vec<f64>,
}

impl Folded {
    pub fn of(trials: Vec<f64>) -> Folded {
        Folded {
            median: median(&trials),
            spread: spread(&trials),
            trials,
        }
    }

    pub fn json(&self, unit: &str) -> Json {
        Json::obj([
            ("median", Json::from(self.median)),
            ("spread", Json::from(self.spread)),
            ("unit", Json::str(unit)),
            ("trials", Json::nums(&self.trials)),
        ])
    }
}

/// The end-to-end metrics of a workload folded over its gated trials, in
/// [`END_TO_END`] order, then `failed_frac`.
pub fn fold_end_to_end(trials: &[TrialOut]) -> Vec<(&'static str, &'static str, Folded)> {
    let mut folded: Vec<_> = END_TO_END
        .iter()
        .enumerate()
        .map(|(i, metric)| {
            let values = trials.iter().map(|t| t.end_to_end[i]).collect();
            (metric.name, metric.unit, Folded::of(values))
        })
        .collect();
    let failed = trials.iter().map(TrialOut::failed_frac).collect();
    folded.push((FAILED_FRAC, "ratio", Folded::of(failed)));
    folded
}

/// The per-layer pass of one workload: the traced trial's own layer values,
/// the tracing overhead against `untraced_tps`, and the single-threaded
/// replays.  Returns every catalogue metric (0 where a layer is not part of
/// the deployment) and the inline replay's exact counts.
pub fn layer_pass(
    workload: &Workload,
    seed: u64,
    traced: &TrialOut,
    untraced_tps: f64,
) -> Result<(Layers, Option<replay::ReplayCounts>), String> {
    let mut layers = Layers::default();
    for &(name, _) in &PER_LAYER {
        let measured = traced.layers.get(name);
        layers.put(
            name,
            measured.map_or(0.0, |v| v.value),
            measured.map_or(0, |v| v.count),
        );
    }
    let traced_tps = traced.end_to_end[0];
    layers.put(
        "obs.trace_overhead_frac",
        1.0 - ratio(traced_tps, untraced_tps),
        traced.latency_samples,
    );

    let block = Block::generate(workload.traffic, seed);
    // The inline replay needs a scheduling policy; passthrough has none.
    // Sharded deployments replay on one scheduler: what a single rule
    // evaluator over the same stream would reach.
    let counts = match workload.policy.build()? {
        None => None,
        Some(policy) => {
            let counts = replay::inline_replay(workload, policy, &block, &mut layers)?;
            let inline_tps = layers.get("declsched.inline_tps").map_or(0.0, |v| v.value);
            layers.put(
                "runtime.gap_frac",
                1.0 - ratio(untraced_tps, inline_tps),
                counts.scheduled,
            );
            Some(counts)
        }
    };
    replay::txnstore_replay(workload, &block, &mut layers)?;
    replay::relalg_scratch_eval(&mut layers)?;
    replay::schedlang_compile(&mut layers)?;
    Ok((layers, counts))
}

/// A workload's fixed configuration, recorded in every output file.
pub fn config_json(workload: &Workload) -> Json {
    let (depth, rate) = match workload.load {
        Load::Closed { depth } => (Json::from(depth as u64), Json::Null),
        Load::Open { rate_tps } => (Json::Null, Json::from(rate_tps)),
    };
    Json::obj([
        ("deployment", Json::str(workload.deployment.label())),
        ("shards", Json::from(workload.deployment.shards() as u64)),
        ("policy", Json::str(workload.policy.label())),
        (
            "trigger",
            workload
                .trigger
                .map_or(Json::Null, |t| Json::str(t.label())),
        ),
        ("depth", depth),
        ("rate_tps", rate),
        (
            "client_threads",
            Json::from(match workload.load {
                Load::Closed { .. } => 1u64,
                // One pacing thread and one collector thread.
                Load::Open { .. } => 2,
            }),
        ),
    ])
}

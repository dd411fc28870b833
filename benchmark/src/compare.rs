//! `compare a.json b.json`: has `b` regressed against `a`?
//!
//! One row per (workload, end-to-end metric): both medians, both spreads,
//! the relative change and a verdict against the metric's bound.  A metric
//! whose run-to-run spread is wider than its bound on either side is
//! `unresolved`, never `unchanged`.

use crate::json::Json;
use crate::metrics::{END_TO_END, FAILED_FRAC, FAILED_FRAC_ABS_BOUND};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Unchanged,
    Regressed,
    Improved,
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Improved => "improved",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How a metric's change is judged.
#[derive(Debug, Clone, Copy)]
pub enum Bound {
    /// Worse by more than this share of the baseline's median.
    Relative { bound: f64, higher_is_better: bool },
    /// Higher by more than this in absolute terms (lower is better).
    Absolute(f64),
}

pub fn bound_of(metric: &str) -> Option<Bound> {
    if metric == FAILED_FRAC {
        return Some(Bound::Absolute(FAILED_FRAC_ABS_BOUND));
    }
    END_TO_END
        .iter()
        .find(|m| m.name == metric)
        .map(|m| Bound::Relative {
            bound: m.bound,
            higher_is_better: m.higher_is_better,
        })
}

/// One side of a comparison: a metric's median over trials and its spread.
#[derive(Debug, Clone, Copy)]
pub struct Side {
    pub median: f64,
    pub spread: f64,
}

/// `(how much worse b is than a, verdict)`; positive means worse.  The
/// amount is a share of `a`'s median for relative bounds and a plain
/// difference for absolute ones.
pub fn judge(bound: Bound, a: Side, b: Side) -> (f64, Verdict) {
    match bound {
        Bound::Absolute(limit) => {
            let worse = b.median - a.median;
            let verdict = if worse > limit {
                Verdict::Regressed
            } else if worse < -limit {
                Verdict::Improved
            } else {
                Verdict::Unchanged
            };
            (worse, verdict)
        }
        Bound::Relative {
            bound,
            higher_is_better,
        } => {
            let change = (b.median - a.median) / a.median;
            let worse = if higher_is_better { -change } else { change };
            let verdict = if a.spread > bound || b.spread > bound || !worse.is_finite() {
                Verdict::Unresolved
            } else if worse > bound {
                Verdict::Regressed
            } else if worse < -bound {
                Verdict::Improved
            } else {
                Verdict::Unchanged
            };
            (worse, verdict)
        }
    }
}

fn side(run: &Json, workload: &str, metric: &str) -> Result<Side, String> {
    let entry = run
        .get("workloads")
        .and_then(Json::as_arr)
        .ok_or("result file lacks `workloads`")?
        .iter()
        .find(|w| w.get("name").and_then(Json::as_str) == Some(workload))
        .and_then(|w| w.get("end_to_end"))
        .and_then(|m| m.get(metric))
        .ok_or_else(|| format!("result file lacks {workload}/{metric}"))?;
    let number = |key: &str| {
        entry
            .get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("{workload}/{metric} lacks `{key}`"))
    };
    Ok(Side {
        median: number("median")?,
        spread: number("spread")?,
    })
}

/// Print the comparison table; `Ok(true)` when nothing regressed.
pub fn compare_files(path_a: &str, path_b: &str) -> Result<bool, String> {
    let load = |path: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (a, b) = (load(path_a)?, load(path_b)?);
    let workloads: Vec<&str> = a
        .get("workloads")
        .and_then(Json::as_arr)
        .ok_or("result file lacks `workloads`")?
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str))
        .collect();

    println!(
        "{:<26} {:<15} {:>12} {:>7} {:>12} {:>7} {:>8}  verdict",
        "workload", "metric", "a median", "spread", "b median", "spread", "worse"
    );
    let mut counts = [0usize; 4];
    let metrics = END_TO_END.iter().map(|m| m.name).chain([FAILED_FRAC]);
    for metric in metrics {
        let bound = bound_of(metric).expect("catalogue metrics have bounds");
        for workload in &workloads {
            let (sa, sb) = (side(&a, workload, metric)?, side(&b, workload, metric)?);
            let (worse, verdict) = judge(bound, sa, sb);
            counts[verdict as usize] += 1;
            println!(
                "{:<26} {:<15} {:>12.4} {:>6.1}% {:>12.4} {:>6.1}% {:>+7.1}%  {}",
                workload,
                metric,
                sa.median,
                sa.spread * 100.0,
                sb.median,
                sb.spread * 100.0,
                worse * 100.0,
                verdict.label()
            );
        }
    }
    println!(
        "{} unchanged, {} regressed, {} improved, {} unresolved",
        counts[Verdict::Unchanged as usize],
        counts[Verdict::Regressed as usize],
        counts[Verdict::Improved as usize],
        counts[Verdict::Unresolved as usize]
    );
    Ok(counts[Verdict::Regressed as usize] == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn side(median: f64, spread: f64) -> Side {
        Side { median, spread }
    }

    #[test]
    fn throughput_verdicts_follow_the_bound() {
        let bound = bound_of("throughput_tps").unwrap(); // 20 %, higher is better
        let base = side(1000.0, 0.02);
        assert_eq!(judge(bound, base, side(850.0, 0.02)).1, Verdict::Unchanged);
        assert_eq!(judge(bound, base, side(750.0, 0.02)).1, Verdict::Regressed);
        assert_eq!(judge(bound, base, side(1250.0, 0.02)).1, Verdict::Improved);
        // A spread wider than the bound on either side resolves nothing.
        assert_eq!(judge(bound, base, side(500.0, 0.21)).1, Verdict::Unresolved);
        assert_eq!(
            judge(bound, side(1000.0, 0.3), side(1000.0, 0.0)).1,
            Verdict::Unresolved
        );
        let (worse, _) = judge(bound, base, side(750.0, 0.02));
        assert!((worse - 0.25).abs() < 1e-12);
    }

    #[test]
    fn latency_is_worse_when_it_rises() {
        let bound = bound_of("latency_p95_us").unwrap(); // 25 %, lower is better
        let base = side(200.0, 0.05);
        assert_eq!(judge(bound, base, side(240.0, 0.05)).1, Verdict::Unchanged);
        assert_eq!(judge(bound, base, side(260.0, 0.05)).1, Verdict::Regressed);
        assert_eq!(judge(bound, base, side(140.0, 0.05)).1, Verdict::Improved);
    }

    #[test]
    fn failed_frac_is_judged_absolutely() {
        let bound = bound_of("failed_frac").unwrap();
        let zero = side(0.0, 0.0);
        assert_eq!(judge(bound, zero, zero).1, Verdict::Unchanged);
        assert_eq!(judge(bound, zero, side(0.0005, 0.0)).1, Verdict::Unchanged);
        assert_eq!(judge(bound, zero, side(0.002, 0.0)).1, Verdict::Regressed);
    }

    #[test]
    fn unknown_metrics_have_no_bound() {
        assert!(bound_of("session.submit_us").is_none());
    }
}

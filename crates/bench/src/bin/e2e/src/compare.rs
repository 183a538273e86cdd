//! `--compare A.jsonl B.jsonl`: judges every end-to-end metric of every
//! workload in two sets of runs against the bounds `BENCHMARK.json`
//! fixes, by the rule the benchmark is accepted under.

use std::process::ExitCode;

use crate::json::{self, Json};
use crate::stats::{quartiles, spread};

/// The benchmark definition the bounds come from.
const BENCHMARK_JSON: &str = include_str!("../../../../../../BENCHMARK.json");

/// One end-to-end metric's regression bound.
#[derive(Clone, Debug, PartialEq)]
pub struct Bound {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of A's median by which B's median may be worse.
    pub bound: f64,
}

/// The outcome for one workload × metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound.
    Same,
    /// Better by more than the bound.
    Better,
    /// Worse by more than the bound, with both spreads within it.
    Regression,
    /// A spread is wider than the bound and B does not win every pairing.
    Unresolved,
    /// One side has no runs carrying the metric.
    Missing,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Better => "better",
            Verdict::Regression => "REGRESSION",
            Verdict::Unresolved => "unresolved",
            Verdict::Missing => "MISSING",
        }
    }
}

/// The end-to-end bounds a `BENCHMARK.json` document fixes.
pub fn bounds_from(text: &str) -> Result<Vec<Bound>, String> {
    let doc = json::parse(text)?;
    let metrics = doc
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    metrics
        .iter()
        .map(|m| {
            let text = |key: &str| {
                m.get(key)
                    .and_then(Json::as_str)
                    .map(str::to_owned)
                    .ok_or_else(|| format!("end_to_end entry without `{key}`"))
            };
            Ok(Bound {
                name: text("name")?,
                unit: text("unit")?,
                higher_is_better: text("better")? == "higher",
                bound: m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("end_to_end entry without `bound`")?,
            })
        })
        .collect()
}

/// How much worse `b` is than `a`, as a share of `a` (negative: better).
fn worsening(bound: &Bound, a: f64, b: f64) -> f64 {
    if a == b {
        return 0.0;
    }
    let change = if a == 0.0 {
        f64::INFINITY.copysign(b - a)
    } else {
        (b - a) / a.abs()
    };
    if bound.higher_is_better {
        -change
    } else {
        change
    }
}

/// Judges one metric: A is the parent's runs, B the change's.
pub fn judge(bound: &Bound, a: &[f64], b: &[f64]) -> (Verdict, f64) {
    if a.is_empty() || b.is_empty() {
        return (Verdict::Missing, 0.0);
    }
    let (_, median_a, _) = quartiles(a);
    let (_, median_b, _) = quartiles(b);
    let worse = worsening(bound, median_a, median_b);
    let b_wins_every_pair = b
        .iter()
        .all(|&vb| a.iter().all(|&va| worsening(bound, va, vb) < 0.0));
    let verdict = if spread(a) > bound.bound || spread(b) > bound.bound {
        if b_wins_every_pair {
            Verdict::Better
        } else {
            Verdict::Unresolved
        }
    } else if worse > bound.bound {
        Verdict::Regression
    } else if worse < -bound.bound {
        Verdict::Better
    } else {
        Verdict::Same
    };
    (verdict, worse)
}

/// The untraced runs of a results file (one JSON object per line, as
/// `--out` appends them).
fn load_runs(path: &str) -> Result<Vec<Json>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut runs = Vec::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let run = json::parse(line).map_err(|e| format!("{path}:{}: {e}", n + 1))?;
        if run.get("trace") != Some(&Json::Bool(true)) {
            runs.push(run);
        }
    }
    Ok(runs)
}

fn values(runs: &[Json], workload: &str, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter(|r| r.get("workload").and_then(Json::as_str) == Some(workload))
        .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

/// Prints one row per workload × end-to-end metric; fails on any
/// regression or missing metric.
pub fn run(a_path: &str, b_path: &str) -> ExitCode {
    let loaded = bounds_from(BENCHMARK_JSON)
        .and_then(|bounds| Ok((bounds, load_runs(a_path)?, load_runs(b_path)?)));
    let (bounds, a, b) = match loaded {
        Ok(loaded) => loaded,
        Err(e) => {
            eprintln!("e2e --compare: {e}");
            return ExitCode::from(2);
        }
    };
    let mut workloads: Vec<&str> = Vec::new();
    for run in a.iter().chain(&b) {
        if let Some(w) = run.get("workload").and_then(Json::as_str) {
            if !workloads.contains(&w) {
                workloads.push(w);
            }
        }
    }
    println!(
        "{:<12} {:<18} {:>14} {:>14} {:>9} {:>7} {:>8} {:>8}  verdict",
        "workload", "metric", "A median", "B median", "worse", "bound", "spreadA", "spreadB"
    );
    let mut failures = 0;
    for w in &workloads {
        for bound in &bounds {
            let va = values(&a, w, &bound.name);
            let vb = values(&b, w, &bound.name);
            let (verdict, worse) = judge(bound, &va, &vb);
            if matches!(verdict, Verdict::Regression | Verdict::Missing) {
                failures += 1;
            }
            let median = |v: &[f64]| quartiles(v).1;
            println!(
                "{:<12} {:<18} {:>11.4} {:<2} {:>11.4} {:<2} {:>+8.2}% {:>6.1}% {:>7.2}% {:>7.2}%  {} (n={}/{})",
                w,
                bound.name,
                median(&va),
                unit_tag(&bound.unit),
                median(&vb),
                unit_tag(&bound.unit),
                worse * 100.0,
                bound.bound * 100.0,
                spread(&va) * 100.0,
                spread(&vb) * 100.0,
                verdict.label(),
                va.len(),
                vb.len()
            );
        }
    }
    if failures == 0 {
        println!("no regression beyond the bounds");
        ExitCode::SUCCESS
    } else {
        println!("{failures} metric(s) regressed or missing");
        ExitCode::FAILURE
    }
}

fn unit_tag(unit: &str) -> &str {
    if unit.len() <= 2 {
        unit
    } else {
        ""
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> Bound {
        Bound {
            name: "pass_s".into(),
            unit: "s".into(),
            higher_is_better: false,
            bound,
        }
    }

    #[test]
    fn benchmark_json_bounds_parse() {
        let bounds = bounds_from(BENCHMARK_JSON).unwrap();
        assert!(bounds
            .iter()
            .any(|b| b.name == "setup_s" && !b.higher_is_better));
        for b in &bounds {
            assert!((0.0..=0.25).contains(&b.bound), "{}: {}", b.name, b.bound);
        }
    }

    #[test]
    fn within_bound_is_same_and_beyond_is_a_regression() {
        let b = lower(0.10);
        let a = [1.00, 1.01, 0.99, 1.00, 1.02];
        let same = [1.05, 1.06, 1.04, 1.05, 1.05];
        let slow = [1.20, 1.21, 1.19, 1.20, 1.22];
        let fast = [0.80, 0.81, 0.79, 0.80, 0.82];
        assert_eq!(judge(&b, &a, &same).0, Verdict::Same);
        assert_eq!(judge(&b, &a, &slow).0, Verdict::Regression);
        assert_eq!(judge(&b, &a, &fast).0, Verdict::Better);
        let (_, worse) = judge(&b, &a, &slow);
        assert!((worse - 0.20).abs() < 1e-9, "{worse}");
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_b_wins_every_pair() {
        let b = lower(0.10);
        let noisy = [1.0, 1.3, 0.8, 1.5, 0.9];
        let slow = [1.3, 1.3, 1.3, 1.3, 1.3];
        assert_eq!(judge(&b, &noisy, &slow).0, Verdict::Unresolved);
        let clearly_faster = [0.5, 0.55, 0.6, 0.52, 0.7];
        assert_eq!(judge(&b, &noisy, &clearly_faster).0, Verdict::Better);
    }

    #[test]
    fn higher_is_better_flips_the_direction() {
        let b = Bound {
            higher_is_better: true,
            ..lower(0.05)
        };
        let a = [100.0, 100.0, 100.0];
        assert_eq!(judge(&b, &a, &[90.0, 90.0, 90.0]).0, Verdict::Regression);
        assert_eq!(judge(&b, &a, &[110.0, 110.0, 110.0]).0, Verdict::Better);
    }

    #[test]
    fn a_metric_absent_on_one_side_is_missing() {
        assert_eq!(judge(&lower(0.1), &[1.0], &[]).0, Verdict::Missing);
    }
}

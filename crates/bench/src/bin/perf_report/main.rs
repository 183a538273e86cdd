//! Wall-clock performance report and CI gate for the rotation engine,
//! the serve layer and the analysis passes.
//!
//! ```text
//! cargo run --release -p rotsched-bench --bin perf_report [-- OPTIONS]
//!
//!   --out PATH        write the JSON report here (default:
//!                     BENCH_ROTATION.json at the repository root)
//!   --reps N          timed sweeps per jobs value (default: 3)
//!   --check BASELINE  smoke mode: also gate against a checked-in
//!                     baseline report; write nothing
//!   --certify         certification mode: have the independent verifier
//!                     re-prove every Table-3 winner legal; exit non-zero
//!                     on any rejection
//!   --degradation     anytime-degradation mode: the deterministic
//!                     best-length-by-rotation-budget table of
//!                     EXPERIMENTS.md
//! ```
//!
//! Report mode and `--check` make one pass: [`Report::measure`] runs
//! every arm once, then [`Report::record`] has each arm print its lines
//! with their gate verdicts and record each reading once, as a report
//! path and a value (`report`). Report mode writes the JSON nested from
//! those records, unless a gate failed: then it writes nothing and
//! exits 1. `--check` adds the baseline gates, read at the same paths,
//! and exits 1 on any failure. A bad command line exits 2 before
//! anything is measured.
//!
//! Each arm documents its gates. The files group them: `sweep` (the
//! Table-3 sweep, phase boundaries and replay, the certify and
//! degradation modes), `step` (rotation steps and the two replica
//! comparisons), `batch`, `serve` (with the fault plane) and `analyze`
//! (with the cycle-ratio bounds).

mod analyze;
mod batch;
mod report;
mod serve;
mod step;
mod sweep;

use rotsched_benchmarks::{allpole, biquad, diffeq, lattice4, TimingModel};
use rotsched_dfg::{json, Dfg};

use report::{render_json, Percentiles, Sheet};

const USAGE: &str = "usage: perf_report [--out PATH] [--reps N] [--check BASELINE] \
                     [--certify] [--degradation]";

/// The report's default path: `BENCH_ROTATION.json` at the repository
/// root.
const DEFAULT_OUT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_ROTATION.json");

/// What one invocation does; `--check` wins over `--certify`, which
/// wins over `--degradation`.
#[derive(Debug, PartialEq)]
enum Mode {
    Report,
    Check(String),
    Certify,
    Degradation,
}

#[derive(Debug, PartialEq)]
struct Options {
    mode: Mode,
    out: String,
    reps: usize,
}

impl Options {
    /// Parses the command line (program name excluded). A flag missing
    /// its value, a non-numeric `--reps` and any unknown argument are
    /// errors, so a mistyped `--check` never falls through to report
    /// mode and overwrites the baseline.
    fn parse(args: impl IntoIterator<Item = String>) -> Result<Options, String> {
        let mut out = DEFAULT_OUT.to_string();
        let mut reps = 3;
        let (mut check, mut certify, mut degradation) = (None, false, false);
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let (flag, inline) = match arg.split_once('=') {
                Some((flag, value)) => (flag, Some(value.to_string())),
                None => (arg.as_str(), None),
            };
            let mut value = || {
                inline
                    .clone()
                    .or_else(|| args.next())
                    .ok_or_else(|| format!("{flag} needs a value"))
            };
            match flag {
                "--out" => out = value()?,
                "--check" => check = Some(value()?),
                "--reps" => {
                    let n = value()?;
                    reps = n
                        .parse::<usize>()
                        .map_err(|_| format!("--reps needs a number, got `{n}`"))?
                        .max(1);
                }
                "--certify" if inline.is_none() => certify = true,
                "--degradation" if inline.is_none() => degradation = true,
                _ => return Err(format!("unknown argument `{arg}`")),
            }
        }
        let mode = match check {
            Some(path) => Mode::Check(path),
            None if certify => Mode::Certify,
            None if degradation => Mode::Degradation,
            None => Mode::Report,
        };
        Ok(Options { mode, out, reps })
    }
}

fn main() {
    let opts = Options::parse(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("error: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let t = TimingModel::paper();
    let graphs: Vec<(&str, Dfg)> = vec![
        ("Differential Equation", diffeq(&t)),
        ("4-stage Lattice Filter", lattice4(&t)),
        ("All-pole Lattice Filter", allpole(&t)),
        ("2-cascaded Biquad Filter", biquad(&t)),
    ];

    let baseline = match &opts.mode {
        Mode::Certify => std::process::exit(sweep::certify(&graphs)),
        Mode::Degradation => return sweep::degradation(&graphs),
        Mode::Report => None,
        Mode::Check(path) => Some(
            std::fs::read_to_string(path)
                .map_err(|e| e.to_string())
                .and_then(|text| Baseline::parse(&text))
                .unwrap_or_else(|e| {
                    eprintln!("error: baseline {path}: {e}");
                    std::process::exit(1);
                }),
        ),
    };

    let sheet = Report::measure(&graphs, opts.reps).record(baseline.as_ref());
    if sheet.failed > 0 {
        match baseline {
            Some(_) => eprintln!("check failed: {} gate(s)", sheet.failed),
            None => eprintln!("{} gate(s) failed; {} not written", sheet.failed, opts.out),
        }
        std::process::exit(1);
    }
    if baseline.is_some() {
        println!("check passed");
    } else if let Err(e) = std::fs::write(&opts.out, render_json(&sheet.records)) {
        eprintln!("error: cannot write {}: {e}", opts.out);
        std::process::exit(1);
    } else {
        println!("wrote {}", opts.out);
    }
}

/// Every arm's readings from one pass.
struct Report {
    sweeps: sweep::Sweeps,
    steps: step::Steps,
    batch: Percentiles,
    boundaries: sweep::Boundaries,
    overhead: step::DriverOverhead,
    serve: serve::Serve,
    /// The noop and quiet-armed warm p50s and the noop overhead.
    fault: (u64, u64, f64),
    /// The packed and scalar best-set p50s and the packed overhead.
    objective: (u64, u64, f64),
    analysis: analyze::Analysis,
    bounds: analyze::Bounds,
}

impl Report {
    /// Runs every arm once: `reps` timed Table-3 sweeps per jobs value,
    /// then the per-step, batch, phase-boundary, overhead, serve,
    /// analysis and bound arms.
    fn measure(graphs: &[(&str, Dfg)], reps: usize) -> Report {
        Report {
            sweeps: sweep::Sweeps::measure(graphs, reps),
            steps: step::Steps::measure(graphs),
            batch: batch::throughput(),
            boundaries: sweep::Boundaries::measure(graphs),
            overhead: step::DriverOverhead::measure(graphs),
            serve: serve::Serve::measure(),
            fault: serve::fault_overhead(),
            objective: step::objective_overhead(graphs),
            analysis: analyze::Analysis::measure(),
            bounds: analyze::Bounds::measure(),
        }
    }

    /// Prints every arm's lines and gate verdicts, in arm order, and
    /// collects its records in report order. The limit gates apply to
    /// every run; a `baseline` adds the comparisons `--check` makes.
    fn record(&self, baseline: Option<&Baseline>) -> Sheet {
        let mut sheet = Sheet::default();
        let results = self.sweeps.record(&mut sheet, baseline);
        self.steps.record(&mut sheet);
        batch::record(&self.batch, &mut sheet, baseline);
        self.boundaries.record(&mut sheet);
        self.overhead.record(&mut sheet, baseline);
        self.serve.record(&mut sheet);
        serve::record_fault(self.fault, &mut sheet, baseline);
        step::record_objective(self.objective, &mut sheet, baseline);
        self.analysis.record(&mut sheet);
        self.bounds.record(&mut sheet);
        // The per-jobs results close the report, though their lines
        // open it.
        sheet.records.extend(results);
        sheet
    }
}

/// What `--check` reads from the baseline report, each value at the
/// path its arm records it.
struct Baseline {
    rows_fingerprint: u64,
    schedule_lengths: Vec<u32>,
    solves_per_sec_p50: f64,
    overhead_pct: f64,
    fault_overhead_pct: f64,
    objective_overhead_pct: f64,
}

impl Baseline {
    /// Parses a report [`render_json`] wrote. Fails naming the path of
    /// the first gated value that is missing or of the wrong type.
    fn parse(text: &str) -> Result<Baseline, String> {
        let doc = json::parse(text)?;
        let number = |path: &str| doc.path(path)?.as_f64(path);
        let (fingerprint, lengths) = (sweep::FINGERPRINT, sweep::LENGTHS);
        Ok(Baseline {
            rows_fingerprint: doc
                .path(fingerprint)?
                .as_str(fingerprint)?
                .strip_prefix("0x")
                .and_then(|hex| u64::from_str_radix(hex, 16).ok())
                .ok_or_else(|| format!("{fingerprint} is not a 0x-prefixed hex u64"))?,
            schedule_lengths: doc
                .path(lengths)?
                .as_array(lengths)?
                .iter()
                .enumerate()
                .map(|(i, v)| v.as_u32(&format!("{lengths}[{i}]")))
                .collect::<Result<_, _>>()?,
            solves_per_sec_p50: number(batch::SOLVES_PER_SEC)?,
            overhead_pct: number(step::DRIVER_OVERHEAD)?,
            fault_overhead_pct: number(serve::FAULT_OVERHEAD)?,
            objective_overhead_pct: number(step::OBJECTIVE_OVERHEAD)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rotsched_baselines::TABLE_3;
    use sweep::JOBS;

    /// The baseline CI checks against.
    const CHECKED_IN: &str = include_str!(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_ROTATION.json"
    ));

    /// Every value `--check` reads: its key as it appears (first) in the
    /// file, and its path.
    const GATED: [(&str, &str); 6] = [
        ("\"rows_fingerprint\"", "results[0].rows_fingerprint"),
        ("\"schedule_lengths\"", "schedule_lengths"),
        (
            "\"solves_per_sec_p50\"",
            "batch_throughput.solves_per_sec_p50",
        ),
        ("\"overhead_pct\"", "driver_overhead.overhead_pct"),
        (
            "\"fault_overhead_pct\"",
            "fault_overhead.fault_overhead_pct",
        ),
        (
            "\"objective_overhead_pct\"",
            "objective_overhead.objective_overhead_pct",
        ),
    ];

    fn parse(args: &[&str]) -> Result<Options, String> {
        Options::parse(args.iter().map(ToString::to_string))
    }

    #[test]
    fn flags_parse_in_both_spellings() {
        assert_eq!(
            parse(&[]),
            Ok(Options {
                mode: Mode::Report,
                out: DEFAULT_OUT.to_string(),
                reps: 3
            })
        );
        assert_eq!(
            parse(&["--reps", "5", "--out=o.json"]),
            Ok(Options {
                mode: Mode::Report,
                out: "o.json".to_string(),
                reps: 5
            })
        );
        assert_eq!(parse(&["--reps=0"]).map(|o| o.reps), Ok(1));
        for args in [&["--check", "b.json"][..], &["--check=b.json"]] {
            assert_eq!(
                parse(args).map(|o| o.mode),
                Ok(Mode::Check("b.json".to_string()))
            );
        }
        assert_eq!(parse(&["--certify"]).map(|o| o.mode), Ok(Mode::Certify));
        assert_eq!(
            parse(&["--degradation"]).map(|o| o.mode),
            Ok(Mode::Degradation)
        );
        assert_eq!(
            parse(&["--degradation", "--certify", "--check", "b"]).map(|o| o.mode),
            Ok(Mode::Check("b".to_string()))
        );
    }

    #[test]
    fn bad_command_lines_are_errors() {
        for args in [
            &["--check"][..],
            &["--out"],
            &["--reps"],
            &["--reps", "3", "--check"],
            &["--chek", "BENCH_ROTATION.json"],
            &["--check-baseline=BENCH_ROTATION.json"],
            &["BENCH_ROTATION.json"],
            &["--certify=yes"],
            &["--reps", "many"],
            &["--reps=-1"],
        ] {
            assert!(parse(args).is_err(), "accepted {args:?}");
        }
    }

    #[test]
    fn checked_in_baseline_parses_with_every_gated_path() {
        let doc = json::parse(CHECKED_IN).expect("the baseline is JSON");
        for (_, path) in GATED {
            let value = doc.path(path).expect("gated path resolves");
            match path {
                "results[0].rows_fingerprint" => assert!(value.as_str(path).is_ok()),
                "schedule_lengths" => assert!(value.as_array(path).is_ok()),
                _ => assert!(value.as_f64(path).is_ok(), "{path}"),
            }
        }
        let baseline = Baseline::parse(CHECKED_IN).expect("the baseline parses");
        assert_eq!(baseline.schedule_lengths.len(), TABLE_3.len());
        assert_eq!(
            doc.path("results")
                .and_then(|r| r.as_array("results").map(<[_]>::len)),
            Ok(JOBS.len())
        );
    }

    #[test]
    fn missing_or_mistyped_gated_values_name_their_path() {
        for (key, path) in GATED {
            let missing = CHECKED_IN.replacen(key, "\"renamed\"", 1);
            let mistyped = CHECKED_IN.replacen(key, &format!("{key}: true, \"was\""), 1);
            for broken in [missing, mistyped] {
                match Baseline::parse(&broken) {
                    Ok(_) => panic!("accepted a baseline without a valid {path}"),
                    Err(e) => assert!(e.contains(path), "{path} not named in: {e}"),
                }
            }
        }
    }

    /// Every leaf of `value` as `path: kind`, in document order.
    fn leaves(value: &json::Value, path: &str, out: &mut Vec<String>) {
        let kind = match value {
            json::Value::Object(fields) => {
                for (key, v) in fields {
                    let at = if path.is_empty() {
                        key.clone()
                    } else {
                        format!("{path}.{key}")
                    };
                    leaves(v, &at, out);
                }
                return;
            }
            json::Value::Array(items) => {
                for (i, v) in items.iter().enumerate() {
                    leaves(v, &format!("{path}[{i}]"), out);
                }
                return;
            }
            json::Value::Str(_) => "string",
            json::Value::Num(_) => "number",
            json::Value::Bool(_) => "bool",
            json::Value::Null => "null",
        };
        out.push(format!("{path}: {kind}"));
    }

    /// A report rendered from fixed readings has exactly the checked-in
    /// baseline's key paths, nesting, order and value kinds, so no arm
    /// can drift a key the baseline, CI or a reader relies on.
    #[test]
    fn fixed_readings_render_the_checked_in_key_paths() {
        let p = Percentiles {
            p50: 50,
            p90: 90,
            p99: 99,
            samples: 100,
        };
        let report = Report {
            sweeps: sweep::Sweeps {
                hardware: 2,
                reps: 3,
                timings: JOBS
                    .map(|_| sweep::Timing {
                        median: 1_000_000,
                        min: 900_000,
                        fingerprint: 0xb5aa_8387_7efd_462a,
                    })
                    .into(),
                lengths: vec![4; TABLE_3.len()],
            },
            steps: step::Steps {
                soa: p,
                dense: p,
                context: p,
                scratch: p,
            },
            batch: p,
            boundaries: sweep::Boundaries {
                boundary: p,
                rotations: 10,
                replayed: 5,
                sweep_phases: 1,
                sweep_rotations: 2,
            },
            overhead: step::DriverOverhead {
                driver: p,
                legacy: p,
                pct: 1.5,
            },
            serve: serve::Serve {
                cold: Percentiles { p50: 800_000, ..p },
                warm: p,
                warm_extra_invocations: 0,
                warm_hits: 2000,
                burst_solves: 1,
                burst_followers: 31,
                sustained_rps: 1e5,
                deterministic: true,
            },
            fault: (400, 410, -1.2),
            objective: (400, 410, -2.44),
            analysis: analyze::Analysis {
                suite: p,
                large: p,
                certified: p,
                byte_stable: true,
            },
            bounds: analyze::Bounds {
                graphs: 12,
                min_nodes: 80,
                max_nodes: 256,
                dfg: analyze::BoundLatency { all: p, large: p },
                verify: analyze::BoundLatency { all: p, large: p },
                work: rotsched_dfg::analysis::RatioWork::default(),
            },
        };
        let sheet = report.record(None);
        assert_eq!(sheet.failed, 0);
        let rendered = json::parse(&render_json(&sheet.records)).expect("the report is JSON");
        let (mut got, mut want) = (Vec::new(), Vec::new());
        leaves(&rendered, "", &mut got);
        leaves(
            &json::parse(CHECKED_IN).expect("the baseline is JSON"),
            "",
            &mut want,
        );
        assert_eq!(got, want);
    }
}

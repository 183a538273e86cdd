//! The Table-3 arms — the sweep timed at every jobs value, and one pass
//! timing executed phase boundaries whose outcomes also count the
//! rotations replay serves — plus the certify and degradation modes.

use std::time::Instant;

use rotsched_baselines::{PublishedRow, TABLE_3};
use rotsched_bench::{format_row, measure_rs};
use rotsched_core::{
    effective_jobs, parallel_indexed, HeuristicConfig, RotationScheduler, SearchDriver,
    SearchEvent, SearchObserver, TraceRecorder,
};
use rotsched_dfg::rng::Fnv64;
use rotsched_dfg::Dfg;
use rotsched_sched::{ListScheduler, ResourceSet};

use crate::report::{before, elapsed_ns, info, ratio, Percentiles, Sheet};
use crate::Baseline;

/// The `--jobs` values the sweep is timed at, sequential first.
pub const JOBS: [usize; 4] = [1, 2, 4, 8];
/// Report path of the sequential sweep's rows fingerprint.
pub const FINGERPRINT: &str = "results[0].rows_fingerprint";
/// Report path of the per-cell schedule lengths.
pub const LENGTHS: &str = "schedule_lengths";
/// Timed repetitions of the Table-3 pass in the phase-boundary arm.
const BOUNDARY_REPS: usize = 3;

/// Table-3 cell `i`: its published row, benchmark graph and resources.
fn cell<'a>(graphs: &'a [(&str, Dfg)], i: usize) -> (&'static PublishedRow, &'a Dfg, ResourceSet) {
    let row = &TABLE_3[i];
    let (_, g) = graphs
        .iter()
        .find(|(name, _)| *name == row.benchmark)
        .expect("benchmark exists");
    let res = ResourceSet::adders_multipliers(row.adders, row.multipliers, row.pipelined);
    (row, g, res)
}

/// Every Table-3 cell, in table order (see [`cell`]).
fn cells<'a>(
    graphs: &'a [(&str, Dfg)],
) -> impl Iterator<Item = (&'static PublishedRow, &'a Dfg, ResourceSet)> + 'a {
    (0..TABLE_3.len()).map(move |i| cell(graphs, i))
}

/// Runs the full Table-3 sweep; returns each cell's formatted row and
/// achieved schedule length.
fn sweep(graphs: &[(&str, Dfg)], jobs: usize) -> Vec<(String, u32)> {
    parallel_indexed(jobs, TABLE_3.len(), |i| {
        let (row, g, _) = cell(graphs, i);
        let measured = measure_rs(g, row.adders, row.multipliers, row.pipelined);
        (
            format_row(&measured, row.lb, row.rs, row.rs_depth),
            measured.rs,
        )
    })
}

fn rows_fingerprint(rows: &[(String, u32)]) -> u64 {
    let mut h = Fnv64::new();
    for (row, _) in rows {
        for b in row.bytes() {
            h.write_u8(b);
        }
        h.write_u8(b'\n');
    }
    h.finish()
}

/// One `--jobs` value's timed Table-3 sweeps.
pub struct Timing {
    pub median: u64,
    pub min: u64,
    pub fingerprint: u64,
}

/// The sweep arm's readings, one timing per [`JOBS`] value.
pub struct Sweeps {
    pub hardware: usize,
    pub reps: usize,
    pub timings: Vec<Timing>,
    pub lengths: Vec<u32>,
}

impl Sweeps {
    /// Times `reps` Table-3 sweeps per [`JOBS`] value (requested and
    /// effective counts both recorded) after one untimed warm-up pass,
    /// which lets allocator and page-cache effects hit every
    /// configuration equally.
    pub fn measure(graphs: &[(&str, Dfg)], reps: usize) -> Sweeps {
        let _ = sweep(graphs, 1);
        let mut lengths = Vec::new();
        let timings = JOBS
            .map(|jobs| {
                let mut wall_ns = Vec::with_capacity(reps);
                let mut fingerprint = 0_u64;
                for _ in 0..reps {
                    let start = Instant::now();
                    let rows = sweep(graphs, jobs);
                    wall_ns.push(elapsed_ns(start));
                    fingerprint = rows_fingerprint(&rows);
                    lengths = rows.iter().map(|(_, rs)| *rs).collect();
                }
                wall_ns.sort_unstable();
                Timing {
                    median: wall_ns[wall_ns.len() / 2],
                    min: wall_ns[0],
                    fingerprint,
                }
            })
            .into();
        Sweeps {
            hardware: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            reps,
            timings,
            lengths,
        }
    }

    /// Gates the rows byte-identical at every jobs value — and, against
    /// a baseline, its fingerprint and no schedule length above its own
    /// — and records the report's header. Returns the per-jobs
    /// `results` records, which close the report.
    pub fn record(&self, sheet: &mut Sheet, baseline: Option<&Baseline>) -> Vec<(String, String)> {
        println!(
            "perf_report: table3 sweep ({} cells), {} reps per jobs value, {} hardware threads",
            TABLE_3.len(),
            self.reps,
            self.hardware
        );
        let sequential = self.timings[0].median;
        let mut results = Sheet::default();
        for (k, (t, jobs)) in self.timings.iter().zip(JOBS).enumerate() {
            let effective = effective_jobs(jobs, TABLE_3.len());
            info(&format!(
                "sweep at jobs {jobs} (effective {effective}): median {:.1} ms, min {:.1} ms, \
                 {:.2}x vs sequential",
                t.median as f64 / 1e6,
                t.min as f64 / 1e6,
                ratio(sequential, t.median)
            ));
            let at = format!("results[{k}]");
            results.put(format!("{at}.jobs"), &jobs);
            results.put(format!("{at}.jobs_effective"), &effective);
            results.put(format!("{at}.wall_ns_median"), &t.median);
            results.put(format!("{at}.wall_ns_min"), &t.min);
            let speedup = sequential as f64 / t.median as f64;
            results.fixed(format!("{at}.speedup_vs_sequential"), speedup, 3);
            let fingerprint = format!("\"{:#018x}\"", t.fingerprint);
            results.put(format!("{at}.rows_fingerprint"), &fingerprint);
        }
        let fingerprint = self.timings[0].fingerprint;
        let deterministic = self.timings.iter().all(|t| t.fingerprint == fingerprint);
        sheet.gate(
            deterministic,
            &format!("rows fingerprint {fingerprint:#018x} at every jobs value"),
        );
        if let Some(b) = baseline {
            sheet.gate(
                fingerprint == b.rows_fingerprint,
                &format!(
                    "rows fingerprint equals the baseline's {:#018x}",
                    b.rows_fingerprint
                ),
            );
            let regressed: Vec<String> = (self.lengths.iter().zip(&b.schedule_lengths))
                .enumerate()
                .filter(|(_, (rs, want))| rs > want)
                .map(|(i, (rs, want))| {
                    let cell = &TABLE_3[i];
                    format!(
                        "cell {i} ({}, {}): {rs} > {want}",
                        cell.benchmark, cell.adders
                    )
                })
                .collect();
            sheet.gate(
                self.lengths.len() == b.schedule_lengths.len() && regressed.is_empty(),
                &format!(
                    "schedule lengths: {} cells, none above the baseline's {} {regressed:?}",
                    self.lengths.len(),
                    b.schedule_lengths.len()
                ),
            );
        }
        sheet.put("bench", &"\"table3_sweep\"");
        sheet.put("hardware_threads", &self.hardware);
        sheet.put("cells", &TABLE_3.len());
        sheet.put("reps", &self.reps);
        sheet.put("deterministic_across_jobs", &deterministic);
        for (i, &rs) in self.lengths.iter().enumerate() {
            sheet.put(format!("{LENGTHS}[{i}]"), &rs);
        }
        results.records
    }
}

/// Reads the clock at every phase start and phase end of a sweep.
#[derive(Default)]
struct PhaseClock {
    starts: Vec<Instant>,
    ends: Vec<Instant>,
}

impl SearchObserver for PhaseClock {
    fn on_event(&mut self, event: SearchEvent<'_>) {
        match event {
            SearchEvent::PhaseStart { .. } => self.starts.push(Instant::now()),
            SearchEvent::PhaseEnd { .. } => self.ends.push(Instant::now()),
            _ => {}
        }
    }
}

/// The phase-boundary arm's readings, with the replay share its first
/// pass counts: every solve's logical rotations, those executed phases
/// replayed, and the phases (and their rotations) replayed whole.
pub struct Boundaries {
    pub boundary: Percentiles,
    pub rotations: usize,
    pub replayed: usize,
    pub sweep_phases: usize,
    pub sweep_rotations: usize,
}

impl Boundaries {
    /// Solves every Table-3 cell as the sweep solves it (paper
    /// defaults, Heuristic 2 on the incremental driver) `BOUNDARY_REPS`
    /// times. The first pass counts the rotations replay serves
    /// ([`rotsched_core::PhaseStats::replayed`] within executed phases,
    /// and the last [`rotsched_core::HeuristicOutcome::replayed_phases`]
    /// phases, replayed whole); deterministic. Every pass samples the
    /// ungated executed phase boundaries: from an executed phase's end
    /// to the next executed phase's start — the `FullSchedule(G_R)`, its
    /// wrap probe and offer, the replay log's bookkeeping and the next
    /// phase's setup.
    pub fn measure(graphs: &[(&str, Dfg)]) -> Boundaries {
        let mut ns = Vec::new();
        let (mut rotations, mut replayed, mut sweep_phases, mut sweep_rotations) = (0, 0, 0, 0);
        for rep in 0..BOUNDARY_REPS {
            for (_, g, res) in cells(graphs) {
                let sched = ListScheduler::default();
                let mut driver =
                    SearchDriver::incremental(g, &sched, &res).with_observer(PhaseClock::default());
                let outcome = driver
                    .heuristic2(&HeuristicConfig::default())
                    .expect("benchmarks are schedulable");
                let executed = outcome.phases.len() - outcome.replayed_phases;
                let clock = &driver.observer;
                for i in 1..executed {
                    let gap = clock.starts[i].duration_since(clock.ends[i - 1]);
                    ns.push(u64::try_from(gap.as_nanos()).unwrap_or(u64::MAX));
                }
                if rep == 0 {
                    let (run, whole) = outcome.phases.split_at(executed);
                    rotations += outcome.phases.iter().map(|p| p.rotations).sum::<usize>();
                    replayed += run.iter().map(|p| p.replayed).sum::<usize>();
                    sweep_phases += whole.len();
                    sweep_rotations += whole.iter().map(|p| p.rotations).sum::<usize>();
                }
            }
        }
        Boundaries {
            boundary: Percentiles::of(&mut ns),
            rotations,
            replayed,
            sweep_phases,
            sweep_rotations,
        }
    }

    pub fn record(&self, sheet: &mut Sheet) {
        let (rotations, replayed) = (self.rotations, self.replayed);
        let (sweep_phases, sweep_rotations) = (self.sweep_phases, self.sweep_rotations);
        let share_pct = (replayed + sweep_rotations) as f64 * 100.0 / rotations.max(1) as f64;
        info(&format!(
            "cycle replay: {} of {rotations} sweep rotations replayed ({share_pct:.1}%): \
             {replayed} within executed phases, {sweep_rotations} in {sweep_phases} phases \
             replayed whole",
            replayed + sweep_rotations,
        ));
        info(&format!(
            "{} (before: p50 {} ns, p99 {} ns)",
            self.boundary.line("executed Heuristic-2 phase boundary"),
            before("phase_boundary_ns.before.p50"),
            before("phase_boundary_ns.before.p99")
        ));
        sheet.put("cycle_replay.rotations", &rotations);
        sheet.put("cycle_replay.replayed", &replayed);
        sheet.put("cycle_replay.sweep_phases", &sweep_phases);
        sheet.put("cycle_replay.sweep_rotations", &sweep_rotations);
        sheet.fixed("cycle_replay.share_pct", share_pct, 1);
        sheet.spread("phase_boundary_ns", &self.boundary);
        sheet.before("phase_boundary_ns.before");
    }
}

/// Certification mode: solve every Table-3 cell and have the
/// independent verifier re-prove each winning kernel — starts,
/// retimed-delay precedence, reservations and the solver's own quality
/// verdict — legal, so the perf numbers are backed by correct schedules.
pub fn certify(graphs: &[(&str, Dfg)]) -> i32 {
    use rotsched_core::objective::{code_size, static_registers};
    use rotsched_core::SolveQuality;
    use rotsched_sched::{verify_spec, verify_starts};
    use rotsched_verify::{certify_claim, Claim};

    let mut failures = 0_u32;
    for (row, g, resources) in cells(graphs) {
        let scheduler = RotationScheduler::new(g, resources.clone());
        let solved = scheduler.solve().expect("benchmark solves");
        let kernel = scheduler
            .loop_schedule(&solved.state)
            .expect("winner expands");
        let spec = verify_spec(&resources);
        let starts = verify_starts(g, kernel.schedule());
        let claim = Claim {
            kernel_length: kernel.kernel_length(),
            depth: Some(kernel.retiming().depth()),
            optimal: matches!(solved.quality, SolveQuality::Optimal),
            registers: Some(static_registers(g, kernel.retiming())),
            code_size: Some(code_size(g, kernel.retiming())),
        };
        match certify_claim(g, &spec, Some(kernel.retiming()), &starts, &claim) {
            Ok(cert) => println!(
                "  ok  {:<24} {:<6} {}",
                row.benchmark,
                resources.label(),
                cert.summary()
            ),
            Err(bad) => {
                failures += 1;
                eprintln!(
                    "FAIL {:<24} {:<6} rejected by the verifier:",
                    row.benchmark,
                    resources.label()
                );
                for d in &bad {
                    eprintln!("       {}", d.render_text(g));
                }
            }
        }
    }
    if failures == 0 {
        println!("certified: all {} Table-3 cells", TABLE_3.len());
        0
    } else {
        eprintln!("certification failed on {failures} cell(s)");
        1
    }
}

/// Anytime-degradation mode: incumbent best length by rotation budget,
/// per benchmark — deterministic, since budgets are exact down-rotation
/// counts. One traced, unlimited run per benchmark gives the whole
/// column: `TaskTrace::best_at_rotation(k)` is exactly what a fresh
/// solve under `Budget::with_max_rotations(k)` returns (the
/// `trace_determinism` suite enforces the equality).
pub fn degradation(graphs: &[(&str, Dfg)]) {
    let res = ResourceSet::adders_multipliers(2, 1, false);
    let sched = ListScheduler::default();
    let config = HeuristicConfig {
        rotations_per_phase: 32,
        max_size: None,
        keep_best: 16,
        rounds: 1,
    };
    println!("anytime degradation (Heuristic 2, {}):\n", res.label());
    println!("| benchmark | budget (rotations) | best length |");
    println!("|---|---|---|");
    for (name, g) in graphs {
        // Capacity 0: the trajectory lives outside the event ring, so
        // the recorder stays allocation-light while staying exact.
        let mut driver =
            SearchDriver::incremental(g, &sched, &res).with_observer(TraceRecorder::new(0));
        let full = driver.heuristic2(&config).expect("schedulable");
        let trace = driver.observer.finish();
        // Powers of two up to the unlimited run's rotation count, plus
        // the exact endpoint.
        let mut budgets = vec![0_usize];
        let mut k = 1;
        while k < full.total_rotations {
            budgets.push(k);
            k *= 2;
        }
        budgets.push(full.total_rotations);
        for k in budgets {
            let best = trace
                .best_at_rotation(k as u64)
                .expect("the initial schedule is always admitted");
            let mark = if best == full.best_length {
                " (converged)"
            } else {
                ""
            };
            println!("| {name} | {k} | {best}{mark} |");
        }
    }
    println!("\nbudgets are exact down-rotation counts; every row is deterministic");
}

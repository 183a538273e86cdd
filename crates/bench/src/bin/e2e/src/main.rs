//! End-to-end benchmark of the rotation-scheduling workspace.
//!
//! ```text
//! e2e [--workload W]... [--seed S] [--seconds N] [--trace [0|1]]
//!     [--trace-out spans.json] [--out results.jsonl] [--smoke]
//! e2e --compare A.jsonl B.jsonl
//! ```
//!
//! Each workload is a fixed, seeded pass of operations driven through
//! the library's public functions. A run builds the inputs several times
//! (set-up time), runs one untimed warm-up pass that checks every output
//! against an oracle, then runs timed passes round-robin across the
//! selected workloads for `--seconds` per workload. An op's latency is
//! the fastest of its timings, which host contention cannot shorten.
//!
//! `--trace 1` interleaves traced passes: spans around every layer call,
//! engine phases from a `SearchObserver`, and counted allocations. The
//! last stdout line is one JSON object: end-to-end metrics untraced,
//! per-layer metrics traced. See README.md for the workloads, metrics
//! and how to read them.

mod analyze;
mod compare;
mod json;
mod serve;
mod solve;
mod stats;
mod trace;
mod workload;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use stats::OpMinima;
use trace::{alloc_window_close, alloc_window_open, AllocWindow, Clock, Tracer};
use workload::{Checks, Kind, Quality, Workload};

#[global_allocator]
static ALLOC: trace::CountingAlloc = trace::CountingAlloc;

/// Set-up time is the median of the first build and many more, sampled
/// in `SETUP_BURSTS` bursts spread evenly over the timed window, so that
/// one slow stretch of the host meets few of them. Each burst builds back
/// to back until `SETUP_BURST` is spent, at least once.
const SETUP_BURSTS: usize = 10;
const SETUP_BURST: Duration = Duration::from_millis(10);
/// Timed rounds at least (so every op has several timings) and at most.
const MIN_ROUNDS: usize = 3;
const MAX_ROUNDS: usize = 1000;
/// Timed rounds in `--smoke` mode.
const SMOKE_ROUNDS: usize = 2;

/// The end-to-end metrics, with units.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p99", "ms"),
    ("ii_over_lb", "ratio"),
    ("regs_per_node", "regs/node"),
    ("code_ops_per_node", "ops/node"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics, with units. A workload that bypasses a layer
/// reports it as 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("core.engine.rotations", "count"),
    ("core.engine.rotated_nodes", "count"),
    ("core.engine.step_ns_p50", "ns"),
    ("core.engine.step_ns_p99", "ns"),
    ("core.engine.step_s", "s"),
    ("core.engine.useful_ratio", "ratio"),
    ("core.context.memo_hit_ratio", "ratio"),
    ("core.context.memo_misses", "count"),
    ("core.engine.init_s", "s"),
    ("core.engine.phase_setup_s", "s"),
    ("core.engine.reschedule_s", "s"),
    ("core.engine.phases", "count"),
    ("core.engine.heuristic2_s", "s"),
    ("baselines.lower_bound_s", "s"),
    ("dfg.iteration_bound_ns_p50", "ns"),
    ("core.depth.minimized_depth_s", "s"),
    ("core.depth.loop_schedule_s", "s"),
    ("solve.self_s", "s"),
    ("serve.hit_ratio", "ratio"),
    ("serve.solver_invocations", "count"),
    ("serve.coalesced", "count"),
    ("serve.cache.insertions", "count"),
    ("serve.cache.evictions", "count"),
    ("serve.hit_ns_p50", "ns"),
    ("serve.hit_ns_p99", "ns"),
    ("serve.write_ns_p50", "ns"),
    ("serve.write_ns_p99", "ns"),
    ("core.wire.parse_ns_p50", "ns"),
    ("core.wire.key_ns_p50", "ns"),
    ("serve.protocol.frame_ns_p50", "ns"),
    ("verify.certify_s", "s"),
    ("verify.analysis_s", "s"),
    ("verify.analysis.base_s", "s"),
    ("verify.lint_s", "s"),
    ("verify.analysis.critical_cycle_s", "s"),
    ("verify.analysis.saturation_s", "s"),
    ("verify.analysis.register_pressure_s", "s"),
    ("verify.analysis.chain_depth_s", "s"),
    ("verify.recurrence_bound_ns_p50", "ns"),
    ("verify.render_s", "s"),
    ("alloc.per_op", "count"),
    ("alloc.bytes_per_op", "B"),
    ("alloc.peak_mb", "MB"),
    ("trace.overhead_pct", "%"),
];

const USAGE: &str = "usage: e2e [--workload paper|random-64|analyze-256|serve-mix]... \
[--seed S] [--seconds N] [--trace [0|1]] [--trace-out PATH] [--out PATH] [--smoke]\n\
       e2e --compare A.jsonl B.jsonl";

#[derive(Debug, PartialEq)]
struct Options {
    workloads: Vec<Kind>,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<String>,
    out: Option<String>,
    smoke: bool,
    compare: Option<(String, String)>,
}

impl Options {
    fn parse(args: &[String]) -> Result<Options, String> {
        let mut opts = Options {
            workloads: Vec::new(),
            seed: 1,
            seconds: 20.0,
            trace: false,
            trace_out: None,
            out: None,
            smoke: false,
            compare: None,
        };
        let mut it = args.iter().peekable();
        while let Some(arg) = it.next() {
            let mut value = |name: &str| {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("{name} needs a value"))
            };
            match arg.as_str() {
                "--workload" => {
                    let name = value("--workload")?;
                    let kind =
                        Kind::parse(&name).ok_or_else(|| format!("unknown workload `{name}`"))?;
                    if !opts.workloads.contains(&kind) {
                        opts.workloads.push(kind);
                    }
                }
                "--seed" => {
                    opts.seed = value("--seed")?
                        .parse()
                        .map_err(|_| "--seed takes a whole number".to_string())?;
                }
                "--seconds" => {
                    opts.seconds = value("--seconds")?
                        .parse()
                        .ok()
                        .filter(|s: &f64| s.is_finite() && *s > 0.0)
                        .ok_or("--seconds takes a positive number")?;
                }
                "--trace" => {
                    opts.trace = match it.peek().map(|s| s.as_str()) {
                        Some("0") => {
                            it.next();
                            false
                        }
                        Some("1") => {
                            it.next();
                            true
                        }
                        _ => true,
                    };
                }
                "--trace-out" => opts.trace_out = Some(value("--trace-out")?),
                "--out" => opts.out = Some(value("--out")?),
                "--smoke" => opts.smoke = true,
                "--compare" => {
                    let a = value("--compare")?;
                    let b = value("--compare")?;
                    opts.compare = Some((a, b));
                }
                "--help" | "-h" => return Err(String::new()),
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        if opts.workloads.is_empty() {
            opts.workloads = Kind::ALL.to_vec();
        }
        if opts.smoke || opts.trace_out.is_some() {
            opts.trace = true;
        }
        Ok(opts)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match Options::parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("e2e: {e}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some((a, b)) = &opts.compare {
        return compare::run(a, b);
    }
    match run(&opts) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("e2e: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One workload's run state.
struct State {
    kind: Kind,
    workload: Box<dyn Workload>,
    setup_ns: Vec<u64>,
    checks: Checks,
    quality: Quality,
    times: Vec<u64>,
    untraced: OpMinima,
    traced: OpMinima,
    tracer: Option<Tracer>,
    allocs: Vec<AllocWindow>,
}

impl State {
    fn untraced_pass(&mut self) {
        self.workload.pass(&mut self.times, &mut self.checks, None);
        self.untraced.fold(&self.times);
    }

    fn traced_pass(&mut self) {
        let tracer = self.tracer.as_mut().expect("traced runs carry a tracer");
        tracer.begin_pass(self.workload.spans_per_op());
        let first_span = tracer.spans.len();
        alloc_window_open();
        self.workload
            .pass(&mut self.times, &mut self.checks, Some(&mut *tracer));
        let window = alloc_window_close();
        tracer.end_pass(first_span, self.workload.root_layer());
        self.traced.fold(&self.times);
        match tracer.engine_reference {
            None => tracer.engine_reference = Some(tracer.engine),
            Some(first) if first != tracer.engine => self.checks.fail(format!(
                "{}: engine counts {:?} differ from the first traced pass's {first:?}",
                self.kind.name(),
                tracer.engine
            )),
            Some(_) => {}
        }
        if let Some(first) = self
            .allocs
            .first()
            .filter(|_| self.workload.single_threaded())
        {
            if first.allocs != window.allocs {
                self.checks.fail(format!(
                    "{}: {} allocations in a traced pass, {} in the first",
                    self.kind.name(),
                    window.allocs,
                    first.allocs
                ));
            }
        }
        self.allocs.push(window);
    }

    fn end_to_end(&self) -> Vec<(&'static str, f64)> {
        let q = &self.quality;
        let ratio = |num: u64, den: u64| num as f64 / den.max(1) as f64;
        let mut setup = self.setup_ns.clone();
        setup.sort_unstable();
        vec![
            ("setup_s", setup[setup.len() / 2] as f64 / 1e9),
            ("pass_s", self.untraced.sum_ns() as f64 / 1e9),
            ("op_ms_p50", self.untraced.percentile_ns(50.0) as f64 / 1e6),
            ("op_ms_p99", self.untraced.percentile_ns(99.0) as f64 / 1e6),
            ("ii_over_lb", ratio(q.ii, q.lower_bound)),
            ("regs_per_node", ratio(q.registers, q.nodes)),
            ("code_ops_per_node", ratio(q.code_ops, q.nodes)),
            ("peak_rss_mb", peak_rss_mb()),
        ]
    }

    fn per_layer(&self) -> Vec<(&'static str, f64)> {
        let Some(tracer) = &self.tracer else {
            return Vec::new();
        };
        let mut values = self.workload.layer_metrics(tracer);
        let ops = self.workload.ops() as f64;
        let mut allocs: Vec<AllocWindow> = self.allocs.clone();
        allocs.sort_unstable_by_key(|w| w.allocs);
        if let Some(mid) = allocs.get(allocs.len() / 2) {
            values.push(("alloc.per_op", mid.allocs as f64 / ops));
            values.push(("alloc.bytes_per_op", mid.bytes as f64 / ops));
        }
        let peak = self.allocs.iter().map(|w| w.peak).max().unwrap_or(0);
        values.push(("alloc.peak_mb", peak as f64 / f64::from(1 << 20)));
        let untraced = self.untraced.sum_ns() as f64;
        if untraced > 0.0 {
            values.push((
                "trace.overhead_pct",
                (self.traced.sum_ns() as f64 / untraced - 1.0) * 100.0,
            ));
        }
        for (name, _) in &values {
            assert!(
                PER_LAYER.iter().any(|p| p.0 == *name),
                "per-layer metric `{name}` is not declared in PER_LAYER"
            );
        }
        PER_LAYER
            .iter()
            .map(|&(name, _)| {
                let value = values.iter().find(|(n, _)| *n == name).map_or(0.0, |v| v.1);
                (name, value)
            })
            .collect()
    }
}

/// Runs the selected workloads; returns whether every check passed.
fn run(opts: &Options) -> Result<bool, String> {
    let clock = Clock::start();
    let mut states = Vec::with_capacity(opts.workloads.len());
    for &kind in &opts.workloads {
        let start = Instant::now();
        let workload = kind
            .build(opts.seed)
            .map_err(|e| format!("{} set-up failed: {e}", kind.name()))?;
        let setup_ns = vec![u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)];
        let ops = workload.ops();
        states.push(State {
            kind,
            workload,
            setup_ns,
            checks: Checks::default(),
            quality: Quality::default(),
            times: vec![0; ops],
            untraced: OpMinima::new(ops),
            traced: OpMinima::new(ops),
            tracer: opts.trace.then(|| Tracer::new(clock, ops)),
            allocs: Vec::new(),
        });
    }
    for st in &mut states {
        st.quality = st.workload.warm_up(&mut st.checks);
    }

    let (min_rounds, max_rounds) = if opts.smoke {
        (SMOKE_ROUNDS, SMOKE_ROUNDS)
    } else {
        (MIN_ROUNDS, MAX_ROUNDS)
    };
    let bursts = if opts.smoke { 0 } else { SETUP_BURSTS };
    let window = Duration::from_secs_f64(opts.seconds * states.len() as f64);
    let start = Instant::now();
    let mut rounds = 0;
    let mut bursts_done = 0;
    loop {
        let running = rounds < max_rounds && (rounds < min_rounds || start.elapsed() < window);
        if running {
            for st in &mut states {
                st.untraced_pass();
                if opts.trace {
                    st.traced_pass();
                }
            }
            rounds += 1;
        }
        // Burst k is due once k/bursts of the window has passed; any left
        // when the passes end run then.
        while bursts_done < bursts
            && (!running || start.elapsed() >= window * bursts_done as u32 / bursts as u32)
        {
            setup_bursts(&mut states, opts.seed)?;
            bursts_done += 1;
        }
        if !running {
            break;
        }
    }

    let mut results = Vec::with_capacity(states.len());
    let mut records = String::new();
    let mut spans = Vec::new();
    let mut all_correct = true;
    for st in &states {
        let end_to_end = st.end_to_end();
        let per_layer = st.per_layer();
        let correct = st.checks.failed == 0;
        all_correct &= correct;
        println!(
            "{}: seed {}, {} ops/pass, {rounds} timed pass(es){}, {} checked, {} failed",
            st.kind.name(),
            opts.seed,
            st.workload.ops(),
            if opts.trace { " + as many traced" } else { "" },
            st.checks.attempted,
            st.checks.failed
        );
        for (name, value) in end_to_end.iter().chain(&per_layer) {
            println!("  {name:<38} {value:>16.6} {}", unit_of(name));
        }
        let reported: Vec<(&str, f64)> = if opts.smoke {
            end_to_end.iter().chain(&per_layer).copied().collect()
        } else if opts.trace {
            per_layer
        } else {
            end_to_end
        };
        let result = result_json(correct, st.checks.attempted, st.checks.failed, &reported);
        // The `--out` record: the result object plus what produced it.
        records.push_str(&format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, {}\n",
            st.kind.name(),
            opts.seed,
            opts.trace,
            &result[1..]
        ));
        println!();
        if let Some(tracer) = &st.tracer {
            spans.push(tracer.render_spans(st.kind.name()));
        }
        results.push(result);
    }

    if let Some(path) = &opts.trace_out {
        std::fs::write(path, format!("[\n{}]\n", spans.join(",\n")))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    if let Some(path) = &opts.out {
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| std::io::Write::write_all(&mut f, records.as_bytes()))
            .map_err(|e| format!("cannot append to {path}: {e}"))?;
    }
    for result in &results {
        println!("{result}");
    }
    Ok(all_correct)
}

/// One set-up burst for every workload. A burst runs on a fresh thread,
/// so its builds allocate from a heap arena the passes have not
/// fragmented, and times each build while the previous one is still
/// alive: freeing a whole build right before the next made `paper`'s
/// set-up time bimodal from one process to the next.
fn setup_bursts(states: &mut [State], seed: u64) -> Result<(), String> {
    for st in states.iter_mut() {
        let kind = st.kind;
        let times = std::thread::scope(|scope| {
            scope
                .spawn(move || {
                    let mut times = Vec::new();
                    let start = Instant::now();
                    let mut previous = None;
                    while previous.is_none() || start.elapsed() < SETUP_BURST {
                        let t = Instant::now();
                        let built = kind
                            .build(seed)
                            .map_err(|e| format!("{} set-up failed: {e}", kind.name()))?;
                        times.push(u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX));
                        previous = Some(built);
                    }
                    Ok::<_, String>(times)
                })
                .join()
                .expect("set-up threads do not panic")
        })?;
        st.setup_ns.extend(times);
    }
    Ok(())
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map_or("", |(_, unit)| unit)
}

/// The result object the last stdout line carries.
fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[(&str, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                unit_of(name)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    )
}

/// The process's peak resident set size (`VmHWM`), in MiB; 0 where
/// procfs is unavailable. `getrusage` is no substitute: its peak carries
/// over from the parent process across `exec`.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn command_line_arguments_parse() {
        let o = Options::parse(&args(
            "--workload serve-mix --seed 7 --seconds 10 --trace 0",
        ))
        .unwrap();
        assert_eq!(o.workloads, vec![Kind::ServeMix]);
        assert_eq!((o.seed, o.seconds, o.trace), (7, 10.0, false));
        let o = Options::parse(&args("--trace --trace-out t.json")).unwrap();
        assert!(o.trace);
        assert_eq!(o.workloads, Kind::ALL.to_vec());
        assert!(Options::parse(&args("--workload nope")).is_err());
        assert!(Options::parse(&args("--seconds 0")).is_err());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_json(true, 10, 0, &[("pass_s", 0.25), ("setup_s", 1e-4)]);
        let doc = json::parse(&line).unwrap();
        let keys: Vec<&str> = doc
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let pass = doc.get("metrics").unwrap().get("pass_s").unwrap();
        assert_eq!(pass.get("value").unwrap().as_f64(), Some(0.25));
        assert_eq!(pass.get("unit").unwrap().as_str(), Some("s"));
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let doc = json::parse(include_str!("../../../../../../BENCHMARK.json")).unwrap();
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .unwrap()
                .as_array()
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).unwrap().as_str().unwrap().to_owned();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(END_TO_END));
        assert_eq!(listed("per_layer"), own(PER_LAYER));
        let workloads: Vec<String> = doc
            .get("workloads")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|w| w.get("name").unwrap().as_str().unwrap().to_owned())
            .collect();
        let kinds: Vec<String> = Kind::ALL.iter().map(|k| k.name().to_owned()).collect();
        assert_eq!(workloads, kinds);
    }

    #[test]
    fn inputs_are_a_pure_function_of_the_seed() {
        let describe = |kind: Kind, seed: u64| -> String {
            match kind {
                Kind::Paper => solve::SolveWorkload::paper(seed).describe(),
                Kind::Random64 => solve::SolveWorkload::random64(seed).describe(),
                Kind::Analyze256 => analyze::AnalyzeWorkload::build(seed).unwrap().describe(),
                Kind::ServeMix => serve::ServeWorkload::build(seed).unwrap().describe(),
            }
        };
        for kind in Kind::ALL {
            let one = describe(kind, 1);
            assert_eq!(one, describe(kind, 1), "{}: seed 1 twice", kind.name());
            assert_ne!(one, describe(kind, 2), "{}: seeds 1 and 2", kind.name());
        }
    }
}

//! Reading records: every reading is declared once, as a JSON path and a
//! value, in the arm that takes it. [`render_json`] nests the records
//! into the report, `--check` reads its baseline at the same paths, and
//! each gate or info line prints as its arm reaches it.

use std::time::Instant;

use rotsched_dfg::json::push_json_string;

/// The readings of one pass, each a report path and its value as a JSON
/// literal, in report order, and how many gates failed. A path is
/// dotted object keys, each optionally indexed into an array
/// (`results[0].rows_fingerprint`) — the syntax `json::Value::path`
/// resolves.
#[derive(Default)]
pub struct Sheet {
    pub records: Vec<(String, String)>,
    pub failed: u32,
}

impl Sheet {
    /// Records an integer, a bool or an escape-free quoted string.
    pub fn put(&mut self, path: impl Into<String>, value: &impl ToString) {
        self.records.push((path.into(), value.to_string()));
    }

    pub fn fixed(&mut self, path: impl Into<String>, value: f64, decimals: usize) {
        self.put(path, &format!("{value:.decimals$}"));
    }

    /// Records `p` as `{path}.p50`, `.p90`, `.p99` and `.samples`.
    pub fn spread(&mut self, path: &str, p: &Percentiles) {
        self.put(format!("{path}.p50"), &p.p50);
        self.put(format!("{path}.p90"), &p.p90);
        self.put(format!("{path}.p99"), &p.p99);
        self.put(format!("{path}.samples"), &p.samples);
    }

    /// Records every parent reading under `path` (see [`BEFORE`]).
    pub fn before(&mut self, path: &str) {
        for (at, value) in BEFORE {
            if at.starts_with(&format!("{path}.")) {
                self.put(at, &value);
            }
        }
    }

    /// Prints a gate's verdict on its line and counts a failure.
    pub fn gate(&mut self, ok: bool, line: &str) {
        self.failed += u32::from(!ok);
        println!("{} {line}", if ok { "ok  " } else { "FAIL" });
    }

    /// Gates a zero-cost claim, one-sided: `pct`, the overhead of a
    /// default path over a rival that does strictly more work, and the
    /// baseline's `recorded` overhead, each at most `limit` — so a stale
    /// baseline cannot hide a regression. `pct` is negative or near
    /// zero while the default path is free.
    pub fn zero_cost(
        &mut self,
        name: &str,
        reading: &str,
        pct: f64,
        limit: f64,
        recorded: Option<f64>,
    ) {
        self.gate(
            pct <= limit,
            &format!("{reading}, {pct:+.2}% within {limit}%"),
        );
        if let Some(recorded) = recorded {
            let line = format!("baseline {name} overhead {recorded:+.2}% within {limit}%");
            self.gate(recorded <= limit, &line);
        }
    }
}

/// Prints a reading no limit applies to, aligned with the gated ones.
pub fn info(line: &str) {
    println!("     {line}");
}

/// Readings recorded at earlier commits, by report path: the "before"
/// half of each before/after claim the report carries. Medians of 3 runs
/// on a shared 2-vCPU Xeon VM.
const BEFORE: [(&str, u64); 14] = [
    // The `dense` arm before ready nodes' earliest starts were cached in
    // the placement core, the weight repair became one CSR weight-kernel
    // pass, and the wrap probe became single-pass (medians of 5 runs).
    ("rotation_step_ns.dense_before.p50", 62_849),
    ("rotation_step_ns.dense_before.p99", 109_825),
    // The `dense` arm before the zero-delay set kept one bit per CSR
    // position, its repair read only the rotated set's boundary, and
    // the wrap probe's edge pass lost its branches (medians of 16
    // runs); alternated with 16 runs of the change, which read p50
    // 12,738 ns and p99 25,510 ns.
    ("rotation_step_ns.dense_parent.p50", 17_428),
    ("rotation_step_ns.dense_parent.p99", 30_436),
    // An executed Heuristic-2 phase boundary before a sweep kept one
    // scheduling context; alternated with 3 runs of the shared context,
    // which read p50 2,618 ns and p99 5,714 ns.
    ("phase_boundary_ns.before.p50", 8_938),
    ("phase_boundary_ns.before.p99", 18_074),
    // Certify-then-analyze before a certificate handed its cycle-ratio
    // search to the analysis; alternated with 3 runs of the handoff,
    // which read p50 80,035 ns and p99 118,849 ns.
    ("analyze.certify_then_analyze_before.p50", 106_655),
    ("analyze.certify_then_analyze_before.p99", 237_883),
    // Both cycle-ratio bounds before each probe stopped at the first
    // predecessor-graph cycle: over all twelve graphs, then the
    // 256-node graph's p50.
    ("bounds_before.dfg_iteration_bound.p50", 6_971_547),
    ("bounds_before.dfg_iteration_bound.p99", 15_149_543),
    ("bounds_before.dfg_iteration_bound.large_p50", 11_338_350),
    ("bounds_before.verify_recurrence_bound.p50", 2_210_633),
    ("bounds_before.verify_recurrence_bound.p99", 6_132_667),
    ("bounds_before.verify_recurrence_bound.large_p50", 5_729_286),
];

/// The parent reading at `path` (panics when there is none).
pub fn before(path: &str) -> u64 {
    BEFORE
        .iter()
        .find(|(at, _)| *at == path)
        .map_or_else(|| panic!("no parent reading at {path}"), |&(_, v)| v)
}

/// A node of the report being nested from its records: a value, or
/// the children of an object or array by key (an array item's key is
/// its index and `]`).
#[derive(Default)]
struct Node<'a> {
    value: Option<&'a str>,
    children: Vec<(&'a str, Node<'a>)>,
}

impl<'a> Node<'a> {
    /// Places `value` at `path`, creating each key at its first use, so
    /// keys keep the order of their first records.
    fn insert(&mut self, path: &'a str, value: &'a str) {
        let mut node = self;
        for key in path.split(['.', '[']) {
            let at = match node.children.iter().position(|(k, _)| *k == key) {
                Some(at) => at,
                None => {
                    node.children.push((key, Node::default()));
                    node.children.len() - 1
                }
            };
            node = &mut node.children[at].1;
        }
        node.value = Some(value);
    }

    /// Renders the node. The root and every section below it put one
    /// child per line, except an array of plain values; deeper
    /// containers stay on one line.
    fn render(&self, depth: usize, out: &mut String) {
        if let Some(value) = self.value {
            return out.push_str(value);
        }
        let array = self.children[0].0.ends_with(']');
        let plain = self.children.iter().all(|(_, n)| n.value.is_some());
        let breaks = depth == 0 || depth == 1 && !(array && plain);
        out.push(if array { '[' } else { '{' });
        for (i, (key, node)) in self.children.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            if breaks {
                out.push_str(&format!("\n{}", "  ".repeat(depth + 1)));
            } else if i > 0 {
                out.push(' ');
            }
            if !array {
                push_json_string(out, key);
                out.push_str(": ");
            }
            node.render(depth + 1, out);
        }
        if breaks {
            out.push_str(&format!("\n{}", "  ".repeat(depth)));
        }
        out.push(if array { ']' } else { '}' });
    }
}

/// Nests the records into the JSON report, keys in the order of their
/// first records.
pub fn render_json(records: &[(String, String)]) -> String {
    let mut root = Node::default();
    for (path, value) in records {
        root.insert(path, value);
    }
    let mut out = String::new();
    root.render(0, &mut out);
    out.push('\n');
    out
}

/// Latency percentiles of a sample set.
#[derive(Clone, Copy)]
pub struct Percentiles {
    pub p50: u64,
    pub p90: u64,
    pub p99: u64,
    pub samples: usize,
}

impl Percentiles {
    pub fn of(ns: &mut [u64]) -> Percentiles {
        ns.sort_unstable();
        let at = |p: usize| ns[(ns.len() - 1) * p / 100];
        Percentiles {
            p50: at(50),
            p90: at(90),
            p99: at(99),
            samples: ns.len(),
        }
    }

    /// `name` with every percentile and the sample count, as one line.
    pub fn line(&self, name: &str) -> String {
        format!(
            "{name}: p50 {} ns, p90 {} ns, p99 {} ns ({} samples)",
            self.p50, self.p90, self.p99, self.samples
        )
    }
}

/// `a / b` as a float, `b` clamped to at least 1.
pub fn ratio(a: u64, b: u64) -> f64 {
    a as f64 / b.max(1) as f64
}

/// Nanoseconds since `start`.
pub fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Times one call.
pub fn time_one(call: impl FnOnce()) -> u64 {
    let start = Instant::now();
    call();
    elapsed_ns(start)
}

/// Times `a(k)` and `b(k)` back to back for every `k < samples`,
/// alternating which runs first every `period` samples: the second call
/// of a pair runs with the warmer caches the first leaves behind, and a
/// fixed order would bias the comparison toward whichever arm always
/// ran second. Returns each arm's times in sample order.
pub fn interleave(
    samples: usize,
    period: usize,
    mut a: impl FnMut(usize),
    mut b: impl FnMut(usize),
) -> (Vec<u64>, Vec<u64>) {
    let mut a_ns = Vec::with_capacity(samples);
    let mut b_ns = Vec::with_capacity(samples);
    for k in 0..samples {
        if (k / period).is_multiple_of(2) {
            a_ns.push(time_one(|| a(k)));
            b_ns.push(time_one(|| b(k)));
        } else {
            b_ns.push(time_one(|| b(k)));
            a_ns.push(time_one(|| a(k)));
        }
    }
    (a_ns, b_ns)
}

/// The overhead of `a` over `b` in percent, from their [`interleave`]
/// times at the same `period`: the geometric mean of the median ratio
/// `a / b` over the pairs where `a` ran first and over those where `b`
/// did. Each order alone is off by the second call's warm-cache gain
/// (about 10% for a rotation sequence); in the product the two cancel.
pub fn crossover_pct(a_ns: &[u64], b_ns: &[u64], period: usize) -> f64 {
    let median_ratio = |a_first: bool| {
        let mut ratios: Vec<f64> = (0..a_ns.len())
            .filter(|k| (k / period).is_multiple_of(2) == a_first)
            .map(|k| ratio(a_ns[k], b_ns[k]))
            .collect();
        median(&mut ratios)
    };
    ((median_ratio(true) * median_ratio(false)).sqrt() - 1.0) * 100.0
}

/// The middle value (upper middle for an even count).
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

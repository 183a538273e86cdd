//! The `serve-mix` workload: closed-loop clients calling
//! `SolveService::handle` in process. The request stream is a seeded
//! shuffle of a 256-problem corpus, each problem requested the same
//! number of times. The cache is warmed in setup, so unlimited problems
//! are warm reads while the corpus's budgeted problems (every eighth)
//! skip the lookup and re-solve, render and re-insert on every request.

use std::hint::black_box;

use rotsched_core::wire::{cache_key_text, fingerprint_text, parse_problem};
use rotsched_dfg::Retiming;
use rotsched_sched::{verify_spec, verify_starts, LoopSchedule, Schedule};
use rotsched_serve::{read_frame, seeded_corpus, write_frame, ServeConfig, SolveService};
use rotsched_verify::{certify_claim, Claim};

use crate::json;
use crate::trace::{uncounted, Clock, Layer, Span, Tracer};
use crate::workload::{ensure, shuffle, Checks, Quality, Workload};

/// Distinct problems in the corpus.
const CORPUS: usize = 256;
/// The seed the corpus is drawn from, whatever the run's seed.
const CORPUS_SEED: u64 = 1;
/// Requests per problem per pass.
const REPEATS: usize = 16;
/// Closed-loop client threads.
const CLIENTS: usize = 2;
/// Requests per client per pass.
const REQUESTS: usize = CORPUS * REPEATS / CLIENTS;

/// Service counter deltas over one pass; they repeat exactly from pass
/// to pass, whatever the interleaving of the clients.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct ServeCounts {
    requests: u64,
    hits: u64,
    solves: u64,
    coalesced: u64,
    insertions: u64,
    evictions: u64,
}

pub struct ServeWorkload {
    docs: Vec<String>,
    payloads: Vec<String>,
    budgeted: Vec<bool>,
    service: SolveService,
    /// Per client, the corpus index of each request.
    requests: Vec<Vec<usize>>,
    /// Each problem's response from the cache fill.
    reference: Vec<String>,
    counts: Option<ServeCounts>,
}

/// What one client thread saw.
struct ClientRun {
    /// `(op, corpus index)` of every response that differed from its
    /// reference.
    mismatched: Vec<(usize, usize)>,
    spans: Vec<Span>,
}

impl ServeWorkload {
    /// Builds the corpus and a service, warms the service's cache with
    /// one request per problem, and deals the seeded request stream to
    /// the clients.
    pub fn build(seed: u64) -> Result<Self, String> {
        let docs = seeded_corpus(CORPUS_SEED, CORPUS);
        let mut budgeted = Vec::with_capacity(docs.len());
        for (i, doc) in docs.iter().enumerate() {
            let spec = parse_problem(doc).map_err(|e| format!("corpus item {i}: {e}"))?;
            budgeted.push(spec.budget.max_rotations().is_some());
        }
        let payloads: Vec<String> = docs.iter().map(|doc| format!("solve\n{doc}")).collect();
        let service = SolveService::new(ServeConfig::default());
        let reference = payloads
            .iter()
            .map(|p| service.handle(p).response().to_owned())
            .collect();
        let mut stream: Vec<usize> = (0..CORPUS).flat_map(|d| [d; REPEATS]).collect();
        shuffle(&mut stream, seed);
        let requests = stream.chunks(REQUESTS).map(<[usize]>::to_vec).collect();
        Ok(ServeWorkload {
            docs,
            payloads,
            budgeted,
            service,
            requests,
            reference,
            counts: None,
        })
    }

    /// The inputs as text, for the input-determinism test.
    #[cfg(test)]
    pub fn describe(&self) -> String {
        format!("{:?}\n{}", self.requests, self.docs.join("\n"))
    }

    fn counts_now(&self) -> ServeCounts {
        let c = self.service.counters();
        let cache = self.service.cache_report();
        ServeCounts {
            requests: c.requests,
            hits: c.cache_hits,
            solves: c.solver_invocations,
            coalesced: c.coalesced,
            insertions: cache.insertions,
            evictions: cache.evictions,
        }
    }

    /// Runs every client to completion; each request's latency lands in
    /// `times` at `client × REQUESTS + k`.
    fn run_clients(&self, times: &mut [u64], clock: Clock, traced: Option<u32>) -> Vec<ClientRun> {
        std::thread::scope(|scope| {
            let workers: Vec<_> = self
                .requests
                .iter()
                .zip(times.chunks_mut(REQUESTS))
                .enumerate()
                .map(|(client, (requests, times))| {
                    scope.spawn(move || {
                        let mut run = ClientRun {
                            mismatched: Vec::new(),
                            spans: Vec::with_capacity(if traced.is_some() {
                                requests.len()
                            } else {
                                0
                            }),
                        };
                        for (k, &doc) in requests.iter().enumerate() {
                            let start = clock.now();
                            let handled = self.service.handle(&self.payloads[doc]);
                            let end = clock.now();
                            times[k] = end - start;
                            let op = client * REQUESTS + k;
                            if let Some(pass) = traced {
                                run.spans.push(Span {
                                    layer: Layer::ServeRequest,
                                    start,
                                    end,
                                    parent: None,
                                    op: op as u32,
                                    pass,
                                });
                            }
                            if handled.response() != self.reference[doc] {
                                run.mismatched.push((op, doc));
                            }
                        }
                        run
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("client threads do not panic"))
                .collect()
        })
    }

    /// Times the layers a request crosses before the cache, once per
    /// distinct problem: wire parse, cache key + fingerprint, and a
    /// frame write + read on an in-memory buffer.
    fn probe_layers(&self, tracer: &mut Tracer, checks: &mut Checks) {
        let mut frame = Vec::with_capacity(1 << 16);
        for (d, (doc, payload)) in self.docs.iter().zip(&self.payloads).enumerate() {
            let t = tracer.clock.now();
            let spec = parse_problem(doc);
            tracer.record(Layer::WireParse, t, d, None);
            if let Ok(spec) = spec {
                let t = tracer.clock.now();
                let key = cache_key_text(&spec);
                black_box(fingerprint_text(&key));
                tracer.record(Layer::WireKey, t, d, None);
            }
            let t = tracer.clock.now();
            frame.clear();
            let written = write_frame(&mut frame, payload.as_bytes());
            let read = read_frame(&mut &frame[..]);
            tracer.record(Layer::Frame, t, d, None);
            let intact = written.is_ok()
                && matches!(&read, Ok(Some(bytes)) if bytes.as_slice() == payload.as_bytes());
            if !intact {
                checks.fail(format!(
                    "serve problem {d}: frame round trip altered the payload"
                ));
            }
        }
    }

    /// The hit or write latencies' per-op minima from the traced passes.
    fn request_ns(&self, tracer: &Tracer, writes: bool, p: f64) -> f64 {
        let mut v: Vec<u64> = self
            .requests
            .iter()
            .flatten()
            .enumerate()
            .filter(|&(_, &doc)| self.budgeted[doc] == writes)
            .map(|(op, _)| tracer.minima[op][Layer::ServeRequest as usize])
            .collect();
        v.sort_unstable();
        crate::stats::percentile(&v, p) as f64
    }
}

/// Re-derives the kernel a `solve` response describes and has the
/// independent verifier check it. Returns the kernel and the reported
/// lower bound.
fn served_kernel(
    doc: &str,
    response: &str,
) -> Result<(rotsched_dfg::Dfg, LoopSchedule, u64), String> {
    let spec = parse_problem(doc).map_err(|e| e.to_string())?;
    let body = json::parse(response)?;
    let field = |name: &str| {
        body.get(name)
            .ok_or_else(|| format!("response has no `{name}`"))
    };
    let status = field("status")?.as_str();
    ensure(status == Some("ok"), || {
        format!("response status {status:?}")
    })?;
    let number = |name: &str| {
        field(name)?
            .as_f64()
            .ok_or_else(|| format!("`{name}` is not a number"))
    };
    let length = number("length")? as u32;
    let bound = number("lower_bound")? as u64;
    let optimal = field("quality")?.as_str() == Some("optimal");
    let dfg = spec.dfg;
    let entries = |name: &str| -> Result<Vec<(rotsched_dfg::NodeId, i64)>, String> {
        let object = field(name)?
            .as_object()
            .ok_or_else(|| format!("`{name}` is not an object"))?;
        object
            .iter()
            .map(|(node, value)| {
                let id = dfg
                    .node_by_name(node)
                    .ok_or_else(|| format!("`{name}` names unknown node `{node}`"))?;
                let value = value
                    .as_f64()
                    .ok_or_else(|| format!("`{name}.{node}` is not a number"))?;
                Ok((id, value as i64))
            })
            .collect()
    };
    let mut schedule = Schedule::empty(&dfg);
    for (id, start) in entries("kernel")? {
        schedule.set(id, start as u32);
    }
    let mut values = vec![0; dfg.node_count()];
    for (id, r) in entries("retiming")? {
        values[id.index()] = r;
    }
    let kernel = LoopSchedule::new(length, schedule, Retiming::from_values(&dfg, values));
    let claim = Claim {
        kernel_length: length,
        depth: Some(kernel.retiming().depth()),
        optimal,
        registers: None,
        code_size: None,
    };
    certify_claim(
        &dfg,
        &verify_spec(&spec.resources),
        Some(kernel.retiming()),
        &verify_starts(&dfg, kernel.schedule()),
        &claim,
    )
    .map_err(|bad| {
        let first = bad.first().map(|d| d.render_text(&dfg)).unwrap_or_default();
        format!("the verifier rejected the served kernel: {first}")
    })?;
    Ok((dfg, kernel, bound))
}

impl Workload for ServeWorkload {
    fn ops(&self) -> usize {
        CLIENTS * REQUESTS
    }

    fn root_layer(&self) -> Layer {
        Layer::ServeRequest
    }

    fn spans_per_op(&self) -> usize {
        2
    }

    fn single_threaded(&self) -> bool {
        false
    }

    fn warm_up(&mut self, checks: &mut Checks) -> Quality {
        let mut quality = Quality::default();
        for (i, (doc, response)) in self.docs.iter().zip(&self.reference).enumerate() {
            let served = served_kernel(doc, response).map(|(dfg, kernel, bound)| {
                quality.add(&dfg, &kernel, bound);
            });
            checks.op(served.map_err(|e| format!("serve problem {i}: {e}")));
        }
        let mut times = vec![0; self.ops()];
        self.pass(&mut times, checks, None);
        quality
    }

    fn pass(&mut self, times: &mut [u64], checks: &mut Checks, tracer: Option<&mut Tracer>) {
        let before = self.counts_now();
        let clock = tracer.as_ref().map_or_else(Clock::start, |t| t.clock);
        let runs = self.run_clients(times, clock, tracer.as_ref().map(|t| t.pass));
        let after = self.counts_now();
        let counts = ServeCounts {
            requests: after.requests - before.requests,
            hits: after.hits - before.hits,
            solves: after.solves - before.solves,
            coalesced: after.coalesced - before.coalesced,
            insertions: after.insertions - before.insertions,
            evictions: after.evictions - before.evictions,
        };
        let mismatched: usize = runs.iter().map(|r| r.mismatched.len()).sum();
        checks.attempted += (CLIENTS * REQUESTS - mismatched) as u64;
        for &(op, doc) in runs.iter().flat_map(|r| &r.mismatched) {
            checks.op(Err(format!(
                "serve request {op} (problem {doc}): response differs from the warm-up reference"
            )));
        }
        let writes = self
            .requests
            .iter()
            .flatten()
            .filter(|&&d| self.budgeted[d])
            .count() as u64;
        let expected = ServeCounts {
            requests: (CLIENTS * REQUESTS) as u64,
            hits: (CLIENTS * REQUESTS) as u64 - writes,
            solves: writes,
            coalesced: 0,
            ..counts
        };
        match self.counts {
            None if counts != expected => {
                checks.fail(format!("serve counters {counts:?}, expected {expected:?}"));
            }
            None => self.counts = Some(counts),
            Some(first) if first != counts => {
                checks.fail(format!(
                    "serve counters {counts:?} differ from the first pass's {first:?}"
                ));
            }
            Some(_) => {}
        }
        if let Some(tracer) = tracer {
            for run in runs {
                for span in run.spans {
                    tracer.push(span);
                }
            }
            uncounted(|| self.probe_layers(tracer, checks));
        }
    }

    fn layer_metrics(&self, tracer: &Tracer) -> Vec<(&'static str, f64)> {
        let c = self.counts.unwrap_or_default();
        vec![
            ("serve.hit_ratio", c.hits as f64 / c.requests.max(1) as f64),
            ("serve.solver_invocations", c.solves as f64),
            ("serve.coalesced", c.coalesced as f64),
            ("serve.cache.insertions", c.insertions as f64),
            ("serve.cache.evictions", c.evictions as f64),
            ("serve.hit_ns_p50", self.request_ns(tracer, false, 50.0)),
            ("serve.hit_ns_p99", self.request_ns(tracer, false, 99.0)),
            ("serve.write_ns_p50", self.request_ns(tracer, true, 50.0)),
            ("serve.write_ns_p99", self.request_ns(tracer, true, 99.0)),
            (
                "core.wire.parse_ns_p50",
                tracer.layer_p(Layer::WireParse, 50.0) as f64,
            ),
            (
                "core.wire.key_ns_p50",
                tracer.layer_p(Layer::WireKey, 50.0) as f64,
            ),
            (
                "serve.protocol.frame_ns_p50",
                tracer.layer_p(Layer::Frame, 50.0) as f64,
            ),
        ]
    }
}

//! The traced run: the per-layer breakdown behind the end-to-end
//! numbers.
//!
//! Spans are recorded from this file, around calls into each layer's
//! public functions, never inside the program. A run has three phases
//! over one stack:
//!
//! 1. **untraced**: the workload's stream as in the measured run; its
//!    solve p50 is the base of `trace.overhead_pct`, and its
//!    `ServiceStats` delta gives `service.cache_hit_ratio`.
//! 2. **traced**: the same stream continues; after every wire solve the
//!    request is replayed in-process, outermost call first
//!    (`Service::solve` for text requests, `Statement::solve`, then
//!    `Solve::prepared(..).run()` and, on the greedy branch, the
//!    delta-template clone), and its frames are re-encoded and decoded.
//!    Each new epoch's plan, evaluation, provenance and delta template
//!    are built and timed once. Differences between nested calls give
//!    each layer's self time; what the replays do not cover is socket
//!    and thread hand-off time.
//! 3. **sweep**: a fixed pass over the workload's own data that times
//!    every solver branch (greedy, singleton, universe, decompose,
//!    boolean) and the write path (apply, log append, delta
//!    transitions) on an in-process copy, so every layer metric exists
//!    for every workload.
//!
//! Correctness checks stay outside every span.

use crate::host::{self, mean, median, ms_since};
use crate::run::{drive, gate, k_for, Log, NoTrace, Observer, Stack, Until};
use crate::workload::{BatchGen, Op, OpStream, Workload, Q6, Q7, Q8, QBOOL, QPATH, RATIOS};
use crate::{Metric, Outcome};
use adp_core::query::parse_query;
use adp_core::solver::{PlannedEval, PreparedQuery};
use adp_core::{Branch, Query, Solve};
use adp_engine::database::Database;
use adp_engine::provenance::TupleRef;
use adp_server::protocol::{encode_frame, read_frame, Request, Response, WireSolve, MAX_PAYLOAD};
use adp_server::{Client, Store};
use adp_service::{Service, ServiceConfig, SolveRequest, Statement, Target};
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Shares of `--seconds` for the untraced and traced phases.
const UNTRACED_SHARE: f64 = 0.4;
const TRACED_SHARE: f64 = 0.4;
/// Every this many traced solves, one is also sent through
/// `adp_server::Client` for `server.rtt_overhead_us`.
const RTT_EVERY: usize = 2;
/// Mutation batches the sweep applies to its in-process copy.
const SWEEP_BATCHES: usize = 24;
/// Times the sweep solves each `(shape, ratio)`.
const SWEEP_REPEATS: usize = 3;

/// One recorded span.
struct Span {
    name: &'static str,
    start_us: f64,
    end_us: f64,
    parent: Option<usize>,
    request: u64,
}

/// In-memory span store, written out when the run ends.
struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: u64,
    ) -> usize {
        let us = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64() * 1e6;
        self.spans.push(Span {
            name,
            start_us: us(start),
            end_us: us(end),
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Times `f` as a span; returns its value and duration in ms.
    fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let start = Instant::now();
        let value = f();
        let end = Instant::now();
        self.record(name, start, end, parent, request);
        (value, (end - start).as_secs_f64() * 1e3)
    }

    fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"name\": \"{}\", \"start_us\": {:.1}, \"end_us\": {:.1}, \"parent\": {}, \"request\": {}}}",
                s.name,
                s.start_us,
                s.end_us,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.request
            )?;
        }
        out.flush()
    }
}

/// Per-layer samples, in ms unless named otherwise.
#[derive(Default)]
struct Samples {
    delta_clone: Vec<f64>,
    greedy_picks: Vec<f64>,
    warm_solve: Vec<f64>,
    plan: Vec<f64>,
    eval: Vec<f64>,
    provenance: Vec<f64>,
    delta_setup: Vec<f64>,
    branch: BTreeMap<&'static str, Vec<f64>>,
    bind_us: Vec<f64>,
    text_path_us: Vec<f64>,
    apply: Vec<f64>,
    delta_apply: Vec<f64>,
    wal_append_us: Vec<f64>,
    wal_bytes: Vec<f64>,
    codec_us: Vec<f64>,
    frame_bytes: Vec<f64>,
    rtt_us: Vec<f64>,
    coverage: Vec<f64>,
    self_server: Vec<f64>,
    self_service: Vec<f64>,
    self_core: Vec<f64>,
    self_engine: Vec<f64>,
    unattributed: Vec<f64>,
}

fn branch_name(b: Branch) -> &'static str {
    match b {
        Branch::Singleton => "singleton",
        Branch::Universe => "universe",
        Branch::Decompose => "decompose",
        Branch::Boolean => "boolean",
        Branch::Greedy | Branch::ForcedGreedy => "greedy",
        Branch::BruteForce => "brute_force",
        Branch::Policy => "policy",
    }
}

/// A query compiled by the benchmark against one epoch: the engine
/// objects whose calls are timed, and how long the epoch's cold build
/// took (plan + eval + delta setup, what a first solve pays).
struct Compiled {
    epoch: u64,
    planned: PlannedEval,
    prep: PreparedQuery,
    cold_ms: f64,
}

/// Builds and times the engine's per-epoch objects for `query` on `db`.
fn compile(
    query: &Query,
    epoch: u64,
    db: &Arc<Database>,
    spans: &mut Spans,
    samples: &mut Samples,
    request: u64,
) -> Result<Compiled, String> {
    let (planned, plan_ms) = spans.time("engine.plan", None, request, || {
        PlannedEval::new(query, Arc::clone(db))
    });
    let (_, eval_ms) = spans.time("engine.eval", None, request, || planned.eval());
    let (prov, prov_ms) = spans.time("engine.provenance", None, request, || planned.provenance());
    prov.map_err(|e| e.to_string())?;
    let (delta, delta_ms) = spans.time("engine.delta_setup", None, request, || {
        planned.delta_template(true)
    });
    delta.map_err(|e| e.to_string())?;
    samples.plan.push(plan_ms);
    samples.eval.push(eval_ms);
    samples.provenance.push(prov_ms);
    samples.delta_setup.push(delta_ms);
    // The benchmark's own PreparedQuery for `Solve::prepared`, warmed
    // outside any span.
    let prep = PreparedQuery::new(query.clone(), Arc::clone(db));
    if prep.output_count() > 0 {
        Solve::prepared(&prep)
            .k(1)
            .run()
            .map_err(|e| e.to_string())?;
    }
    Ok(Compiled {
        epoch,
        planned,
        prep,
        cold_ms: plan_ms + eval_ms + delta_ms,
    })
}

/// Times `Solve::prepared(..).run()` and, on the greedy branch, the
/// delta-template clone. Returns `(core_ms, clone_ms)`.
fn time_core(
    c: &Compiled,
    k: u64,
    parent: Option<usize>,
    request: u64,
    spans: &mut Spans,
    samples: &mut Samples,
) -> Result<(f64, f64), String> {
    let (report, core_ms) = spans.time("core.solve", parent, request, || {
        Solve::prepared(&c.prep).k(k).run()
    });
    let report = report.map_err(|e| e.to_string())?;
    let branch = branch_name(report.explain.branch);
    samples.branch.entry(branch).or_default().push(core_ms);
    let mut clone_ms = 0.0;
    if branch == "greedy" {
        samples.greedy_picks.push(report.outcome.cost as f64);
        samples.warm_solve.push(core_ms);
        let template = c.planned.delta_template(true).map_err(|e| e.to_string())?;
        let (copy, ms) = spans.time("engine.delta_clone", parent, request, || {
            (*template).clone()
        });
        drop(copy);
        samples.delta_clone.push(ms);
        clone_ms = ms;
    }
    Ok((core_ms, clone_ms))
}

/// The traced-phase observer: replays each wire solve in-process.
struct Tracer<'a> {
    w: Workload,
    svc: &'a Service,
    stmts: &'a [Statement<'a>],
    queries: Vec<Query>,
    client: Client,
    client_handles: Vec<u64>,
    compiled: HashMap<usize, Compiled>,
    spans: Spans,
    samples: Samples,
    solves: usize,
    error: Option<String>,
}

impl Tracer<'_> {
    fn replay(
        &mut self,
        stack: &mut Stack,
        query: usize,
        ratio: f64,
        sent: Instant,
        wire_ms: f64,
        first: bool,
    ) -> Result<(), String> {
        self.solves += 1;
        let request = self.solves as u64;
        let root = self.spans.record(
            "client.solve",
            sent,
            sent + std::time::Duration::from_secs_f64(wire_ms / 1e3),
            None,
            request,
        );
        let (epoch, db) = self.svc.snapshot();
        let c = match self.compiled.remove(&query) {
            Some(c) if c.epoch == epoch => c,
            _ => compile(
                &self.queries[query],
                epoch,
                &db,
                &mut self.spans,
                &mut self.samples,
                request,
            )?,
        };
        let result = self.replay_with(stack, &c, query, ratio, root, request, wire_ms, first);
        self.compiled.insert(query, c);
        result
    }

    #[allow(clippy::too_many_arguments)]
    fn replay_with(
        &mut self,
        stack: &mut Stack,
        c: &Compiled,
        query: usize,
        ratio: f64,
        root: usize,
        request: u64,
        wire_ms: f64,
        first: bool,
    ) -> Result<(), String> {
        let k = k_for(c.prep.output_count(), ratio);
        let text = self.w.queries()[query];
        if self.solves.is_multiple_of(RTT_EVERY) && !first {
            let us = self.client_overhead_us(query, ratio)?;
            self.samples.rtt_us.push(us);
        }

        // Outermost in-process call first, then the nested ones; the
        // statement and core calls swap order every request so neither
        // always runs on the other's warm caches.
        let text_ms = if self.w.text_requests() {
            let (r, ms) = self.spans.time("service.solve", Some(root), request, || {
                self.svc.solve(&SolveRequest::ratio(text, ratio))
            });
            r.map_err(|e| e.to_string())?;
            Some(ms)
        } else {
            None
        };
        let stmt = |spans: &mut Spans| {
            let (r, ms) = spans.time("service.statement_solve", Some(root), request, || {
                self.stmts[query].solve(Target::Ratio(ratio))
            });
            r.map(|resp| (ms, resp)).map_err(|e| e.to_string())
        };
        let ((stmt_ms, resp), (core_ms, clone_ms)) = if self.solves.is_multiple_of(2) {
            let stmt = stmt(&mut self.spans)?;
            (
                stmt,
                time_core(
                    c,
                    k,
                    Some(root),
                    request,
                    &mut self.spans,
                    &mut self.samples,
                )?,
            )
        } else {
            let core = time_core(
                c,
                k,
                Some(root),
                request,
                &mut self.spans,
                &mut self.samples,
            )?;
            (stmt(&mut self.spans)?, core)
        };
        let response = Response::Solve(WireSolve::from(&resp));
        let codec_ms = self.time_codec(
            stack.solve_request(self.w, query, ratio),
            response,
            root,
            request,
        )?;
        let outer_ms = text_ms.unwrap_or(stmt_ms);

        // Self time per layer for this request.
        let s = &mut self.samples;
        s.bind_us.push((stmt_ms - core_ms) * 1e3);
        if let Some(t) = text_ms {
            s.text_path_us.push((t - stmt_ms) * 1e3);
        }
        let cold_ms = if first { c.cold_ms } else { 0.0 };
        let service = outer_ms - core_ms;
        let core = core_ms - clone_ms;
        let engine = clone_ms + cold_ms;
        let covered = codec_ms + service + core + engine;
        s.self_server.push(codec_ms);
        s.self_service.push(service);
        s.self_core.push(core);
        s.self_engine.push(engine);
        s.unattributed.push(wire_ms - covered);
        s.coverage.push(covered / wire_ms);
        Ok(())
    }

    /// One solve through `adp_server::Client` on the second connection.
    /// Returns the client-observed latency minus the service's own
    /// stamps of the same request (plan + solve), in µs: the time spent
    /// outside `Service::execute` (framing, socket, thread hand-off,
    /// admission).
    fn client_overhead_us(&mut self, query: usize, ratio: f64) -> Result<f64, String> {
        let t = Instant::now();
        let r = if self.w.text_requests() {
            self.client
                .solve(self.w.queries()[query], Target::Ratio(ratio), None)
        } else {
            self.client
                .solve_stmt(self.client_handles[query], Target::Ratio(ratio), None)
        };
        let us = ms_since(t) * 1e3;
        let ws = r.map_err(|e| e.to_string())?;
        Ok(us - (ws.plan_micros + ws.solve_micros) as f64)
    }

    /// Re-encodes and decodes this op's request and response frames,
    /// framing and crc included.
    fn time_codec(
        &mut self,
        req: Request,
        resp: Response,
        root: usize,
        request: u64,
    ) -> Result<f64, String> {
        let (bytes, ms) = self.spans.time("server.codec", Some(root), request, || {
            let (op, payload) = req.encode().map_err(|e| e.to_string())?;
            let req_frame = encode_frame(op, request, &payload).map_err(|e| e.to_string())?;
            let frame =
                read_frame(&mut req_frame.as_slice(), MAX_PAYLOAD).map_err(|e| e.to_string())?;
            let frame = frame.ok_or("empty request frame")?;
            Request::decode(frame.opcode, &frame.payload).map_err(|e| e.to_string())?;
            let (op, payload) = resp.encode().map_err(|e| e.to_string())?;
            let resp_frame = encode_frame(op, request, &payload).map_err(|e| e.to_string())?;
            let frame =
                read_frame(&mut resp_frame.as_slice(), MAX_PAYLOAD).map_err(|e| e.to_string())?;
            let frame = frame.ok_or("empty response frame")?;
            Response::decode(frame.opcode, &frame.payload).map_err(|e| e.to_string())?;
            Ok::<_, String>(req_frame.len() + resp_frame.len())
        });
        let bytes = bytes?;
        self.samples.codec_us.push(ms * 1e3);
        self.samples.frame_bytes.push(bytes as f64);
        Ok(ms)
    }
}

impl Observer for Tracer<'_> {
    fn solve(
        &mut self,
        stack: &mut Stack,
        query: usize,
        ratio: f64,
        sent: Instant,
        ms: f64,
        first: bool,
    ) {
        if self.error.is_none() {
            if let Err(e) = self.replay(stack, query, ratio, sent, ms, first) {
                self.error = Some(e);
            }
        }
    }
}

/// Shapes the sweep solves through the live service, all over
/// `R1`..`R3` (present in every workload's data): greedy, singleton,
/// boolean.
const SWEEP_SHAPES: [&str; 3] = [QPATH, Q6, QBOOL];
/// Shapes the sweep solves in-process over their own small relations
/// (the ones `exact_mix` serves): universe, decompose. A disconnected
/// shape over `R1`..`R3` would be a cross product of thousands.
const SMALL_SHAPES: [&str; 2] = [Q7, Q8];

/// Phase 3: every solver branch and the write path on this workload's
/// data.
fn sweep(
    w: Workload,
    seed: u64,
    db: &Database,
    svc: &Service,
    dir: &Path,
    spans: &mut Spans,
    samples: &mut Samples,
) -> Result<(), String> {
    let (epoch, snapshot) = svc.snapshot();
    for (i, text) in SWEEP_SHAPES.iter().enumerate() {
        let query = parse_query(text).map_err(|e| e.to_string())?;
        let request = 1_000_000 + i as u64;
        let c = compile(&query, epoch, &snapshot, spans, samples, request)?;
        let stmt = svc.prepare(text).map_err(|e| e.to_string())?;
        stmt.solve(Target::Ratio(RATIOS[0]))
            .map_err(|e| e.to_string())?;
        for _ in 0..SWEEP_REPEATS {
            for ratio in RATIOS {
                let k = k_for(c.prep.output_count(), ratio);
                let (r, text_ms) = spans.time("service.solve", None, request, || {
                    svc.solve(&SolveRequest::ratio(*text, ratio))
                });
                r.map_err(|e| e.to_string())?;
                let (r, stmt_ms) = spans.time("service.statement_solve", None, request, || {
                    stmt.solve(Target::Ratio(ratio))
                });
                r.map_err(|e| e.to_string())?;
                let (core_ms, _) = time_core(&c, k, None, request, spans, samples)?;
                samples.text_path_us.push((text_ms - stmt_ms) * 1e3);
                samples.bind_us.push((stmt_ms - core_ms) * 1e3);
            }
        }
    }

    let small = Arc::new(crate::workload::small_shapes_database(seed));
    for (i, text) in SMALL_SHAPES.iter().enumerate() {
        let query = parse_query(text).map_err(|e| e.to_string())?;
        let request = 1_000_100 + i as u64;
        let c = compile(&query, 0, &small, spans, samples, request)?;
        for _ in 0..SWEEP_REPEATS {
            for ratio in RATIOS {
                let k = k_for(c.prep.output_count(), ratio);
                time_core(&c, k, None, request, spans, samples)?;
            }
        }
    }

    // Write path on an in-process copy: apply, log append, delta
    // transitions, and each new epoch's cold build.
    let config = ServiceConfig::default();
    let sweep_dir = dir.join("sweep");
    let mut store = Store::init(&sweep_dir, db, &config).map_err(|e| e.to_string())?;
    let copy = Service::with_config(db.clone(), config);
    let churn = parse_query(w.churn_query()).map_err(|e| e.to_string())?;
    let atom_of: HashMap<String, usize> = churn
        .atoms()
        .iter()
        .enumerate()
        .map(|(i, a)| (a.name().to_string(), i))
        .collect();
    let slot_of: HashMap<String, u32> = db
        .relations()
        .iter()
        .enumerate()
        .map(|(i, r)| (r.name().to_string(), i as u32))
        .collect();
    let base = PlannedEval::new(&churn, Arc::new(db.clone()));
    let mut delta = (*base.delta_template(true).map_err(|e| e.to_string())?).clone();
    let wal = sweep_dir.join(adp_server::persist::LOG_FILE);
    let mut gen = BatchGen::new(crate::workload::sub_seed(seed, 7), db, w.churn_query());
    for b in 0..SWEEP_BATCHES {
        let request = 2_000_000 + b as u64;
        let Op::Mutate { delete, entries } = gen.next_batch() else {
            unreachable!("the batch generator only makes batches")
        };
        let named: Vec<(&str, u32)> = entries.iter().map(|(n, i)| (n.as_str(), *i)).collect();
        let (r, apply_ms) = spans.time("service.apply", None, request, || {
            if delete {
                copy.delete_tuples(&named)
            } else {
                copy.restore_tuples(&named)
            }
        });
        r.map_err(|e| e.to_string())?;
        let slots: Vec<(u32, u32)> = entries.iter().map(|(n, i)| (slot_of[n], *i)).collect();
        let before = std::fs::metadata(&wal).map_or(0, |m| m.len());
        let (r, wal_ms) = spans.time("server.wal_append", None, request, || {
            store.append_batch(delete, &slots)
        });
        r.map_err(|e| e.to_string())?;
        let after = std::fs::metadata(&wal).map_or(0, |m| m.len());
        let refs: Vec<TupleRef> = entries
            .iter()
            .map(|(n, i)| TupleRef::new(atom_of[n], *i))
            .collect();
        let (_, delta_ms) = spans.time("engine.delta_apply", None, request, || {
            if delete {
                delta.delete_batch_transitions(&refs)
            } else {
                delta.restore_batch_transitions(&refs)
            }
        });
        samples.apply.push(apply_ms);
        samples.wal_append_us.push(wal_ms * 1e3);
        samples.wal_bytes.push(after.saturating_sub(before) as f64);
        samples.delta_apply.push(delta_ms);
        let (epoch, snapshot) = copy.snapshot();
        compile(&churn, epoch, &snapshot, spans, samples, request)?;
    }
    drop(store);
    let _ = std::fs::remove_dir_all(&sweep_dir);
    Ok(())
}

/// Output and witness counts of the workload's queries at epoch 0.
fn eval_sizes(w: Workload, db: &Arc<Database>) -> (u64, u64) {
    let mut witnesses = 0;
    let mut outputs = 0;
    for text in w.queries() {
        let q = parse_query(text).expect("workload queries parse");
        let eval = PlannedEval::new(&q, Arc::clone(db)).eval();
        witnesses += eval.witness_count();
        outputs += eval.output_count();
    }
    (witnesses, outputs)
}

pub fn run(w: Workload, seed: u64, seconds: f64, dir: &Path) -> Result<Outcome, String> {
    let db = crate::workload::database(w, seed);
    let (mut stack, _) = Stack::start(w, &db, dir)?;
    let ticks = host::cpu_ticks();
    let mut stream = OpStream::new(w, seed, &db);

    // Phase 1: untraced.
    let stats0 = stack.svc.stats();
    let mut plain = Log::default();
    let phase = |share: f64| Until {
        secs: seconds * share,
        min_solves: 0,
        cap_secs: seconds,
    };
    drive(
        w,
        &mut stack,
        &mut stream,
        &phase(UNTRACED_SHARE),
        &mut plain,
        &mut NoTrace,
    );
    let stats1 = stack.svc.stats();
    let requests = stats1.requests - stats0.requests;
    let hit_ratio = (stats1.cache_hits - stats0.cache_hits) as f64 / requests.max(1) as f64;

    // Phase 2: traced.
    let svc = Arc::clone(&stack.svc);
    let stmts: Vec<Statement<'_>> = w
        .queries()
        .iter()
        .map(|q| svc.prepare(q))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    let mut client = Client::connect(stack.addr).map_err(|e| e.to_string())?;
    let client_handles = w
        .queries()
        .iter()
        .map(|q| client.prepare(q))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    let mut tracer = Tracer {
        w,
        svc: &svc,
        stmts: &stmts,
        queries: w
            .queries()
            .iter()
            .map(|q| parse_query(q).expect("workload queries parse"))
            .collect(),
        client,
        client_handles,
        compiled: HashMap::new(),
        spans: Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        },
        samples: Samples::default(),
        solves: 0,
        error: None,
    };
    let mut traced = Log::default();
    drive(
        w,
        &mut stack,
        &mut stream,
        &phase(TRACED_SHARE),
        &mut traced,
        &mut tracer,
    );
    if let Some(e) = tracer.error.take() {
        return Err(format!("traced replay failed: {e}"));
    }
    let steal = host::steal_pct(ticks, host::cpu_ticks());

    // Phase 3: sweep.
    let Tracer {
        mut spans,
        mut samples,
        client,
        ..
    } = tracer;
    drop(client);
    sweep(w, seed, &db, &svc, dir, &mut spans, &mut samples)?;
    let (witnesses, outputs) = eval_sizes(w, &svc.snapshot().1);
    let ref_ms = stack.reference.median_ms();
    let ref_samples = stack.reference.samples.len();
    drop(stmts);
    drop(svc);
    stack.stop();

    let spans_path = dir.with_file_name(format!("e2ebench-spans-{}.jsonl", w.name()));
    if let Err(e) = spans.write(&spans_path) {
        eprintln!(
            "e2ebench: could not write spans to {}: {e}",
            spans_path.display()
        );
    }
    print_self_times(&samples);

    let wrong = gate(w, &plain, crate::RESOLVE_EVERY) + gate(w, &traced, crate::RESOLVE_EVERY);
    for f in plain.failures.iter().chain(&traced.failures) {
        eprintln!("e2ebench: failed op: {f}");
    }
    let attempted = plain.attempted + traced.attempted;
    let failed = (plain.failures.len() + traced.failures.len()) as u64 + wrong;

    let untraced_p50 = median(&plain.solve_ms);
    let traced_p50 = median(&traced.solve_ms);
    let s = &samples;
    let n = |v: &Vec<f64>| v.len();
    let branch = |b: &str| s.branch.get(b).map_or(&[][..], |v| v.as_slice());
    let mut metrics = vec![
        Metric::new(
            "engine.delta_clone_ms",
            median(&s.delta_clone),
            "ms",
            n(&s.delta_clone),
        ),
        Metric::new(
            "core.greedy_picks",
            mean(&s.greedy_picks),
            "count",
            n(&s.greedy_picks),
        ),
        Metric::new(
            "core.warm_solve_ms",
            median(&s.warm_solve),
            "ms",
            n(&s.warm_solve),
        ),
        Metric::new("engine.plan_ms", median(&s.plan), "ms", n(&s.plan)),
        Metric::new("engine.eval_ms", median(&s.eval), "ms", n(&s.eval)),
        Metric::new(
            "engine.provenance_ms",
            median(&s.provenance),
            "ms",
            n(&s.provenance),
        ),
        Metric::new(
            "engine.delta_setup_ms",
            median(&s.delta_setup),
            "ms",
            n(&s.delta_setup),
        ),
        Metric::new("engine.witnesses", witnesses as f64, "count", 1),
        Metric::new("engine.outputs", outputs as f64, "count", 1),
    ];
    for b in ["singleton", "universe", "decompose", "boolean"] {
        let v = branch(b);
        metrics.push(Metric::new(
            &format!("core.solve_ms.{b}"),
            median(v),
            "ms",
            v.len(),
        ));
    }
    metrics.extend([
        Metric::new("service.bind_us", median(&s.bind_us), "us", n(&s.bind_us)),
        Metric::new(
            "service.text_path_us",
            median(&s.text_path_us),
            "us",
            n(&s.text_path_us),
        ),
        Metric::new(
            "service.cache_hit_ratio",
            hit_ratio,
            "ratio",
            requests as usize,
        ),
        Metric::new("service.apply_ms", median(&s.apply), "ms", n(&s.apply)),
        Metric::new(
            "engine.delta_apply_ms",
            median(&s.delta_apply),
            "ms",
            n(&s.delta_apply),
        ),
        Metric::new(
            "server.wal_append_us",
            median(&s.wal_append_us),
            "us",
            n(&s.wal_append_us),
        ),
        Metric::new(
            "server.wal_bytes_per_batch",
            mean(&s.wal_bytes),
            "bytes",
            n(&s.wal_bytes),
        ),
        Metric::new("server.codec_us", median(&s.codec_us), "us", n(&s.codec_us)),
        Metric::new(
            "server.frame_bytes",
            mean(&s.frame_bytes),
            "bytes",
            n(&s.frame_bytes),
        ),
        Metric::new(
            "server.rtt_overhead_us",
            median(&s.rtt_us),
            "us",
            n(&s.rtt_us),
        ),
        Metric::new(
            "runtime.pool_threads",
            adp_runtime::global().threads() as f64,
            "count",
            1,
        ),
        Metric::new(
            "trace.coverage",
            median(&s.coverage),
            "ratio",
            n(&s.coverage),
        ),
        Metric::new(
            "trace.overhead_pct",
            100.0 * (traced_p50 - untraced_p50) / untraced_p50,
            "%",
            traced.solve_ms.len(),
        ),
        Metric::new(
            "trace.self_ms.server",
            mean(&s.self_server),
            "ms",
            n(&s.self_server),
        ),
        Metric::new(
            "trace.self_ms.service",
            mean(&s.self_service),
            "ms",
            n(&s.self_service),
        ),
        Metric::new(
            "trace.self_ms.core",
            mean(&s.self_core),
            "ms",
            n(&s.self_core),
        ),
        Metric::new(
            "trace.unattributed_ms",
            mean(&s.unattributed),
            "ms",
            n(&s.unattributed),
        ),
        Metric::new("host.ref_ms", ref_ms, "ms", ref_samples),
        Metric::new("host.steal_pct", steal, "%", 1),
    ]);
    Ok(Outcome {
        metrics,
        attempted,
        failed,
        ref_ms,
        ref_samples,
        steal_pct: steal,
    })
}

/// Mean self time per traced request, by layer, for the reader.
fn print_self_times(s: &Samples) {
    for (layer, v) in [
        ("server", &s.self_server),
        ("service", &s.self_service),
        ("core", &s.self_core),
        ("engine", &s.self_engine),
        ("unattributed", &s.unattributed),
    ] {
        println!(
            "self {layer} = {:.4} ms mean per traced request (n = {})",
            mean(v),
            v.len()
        );
    }
}

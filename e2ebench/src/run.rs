//! The serving stack, the closed-loop client and the correctness gate.

use crate::conn::Conn;
use crate::host::{ms_since, Reference};
use crate::workload::{Op, OpStream, Workload, RATIOS};
use crate::FIXED_SOLVES;
use adp_core::query::parse_query;
use adp_core::solver::{AdpOutcome, PreparedQuery};
use adp_core::wire::put_outcome;
use adp_core::Solve;
use adp_engine::database::Database;
use adp_server::protocol::{Request, Response};
use adp_server::{Server, ServerConfig, Store};
use adp_service::{Service, ServiceConfig, Target};
use std::collections::{BTreeMap, HashMap};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Push buffer per subscription: large enough that a closed-loop client
/// waiting for every push can never lag.
const PUSH_BUFFER: u32 = 1024;
/// How long a push may take before the op counts as failed.
const PUSH_TIMEOUT: Duration = Duration::from_secs(10);
/// Subscription target on the churn statement.
const SUB_TARGET: Target = Target::Ratio(0.1);

/// The stack under test: service, WAL-backed store, TCP server, and one
/// client connection.
pub struct Stack {
    pub svc: Arc<Service>,
    pub addr: SocketAddr,
    pub conn: Conn,
    /// Prepared-statement handle per workload query.
    pub handles: Vec<u64>,
    /// Host-speed samples, one after every op [`drive`] sends.
    pub reference: Reference,
    server: Server,
    dir: PathBuf,
}

impl Stack {
    /// Builds the stack over `db` and warms it. Returns it with its
    /// set-up time in seconds: `Store::init`, `Service`, `Server::start`,
    /// prepare and warm-up solves. Connecting (which waits for the
    /// accept loop's poll) is not counted.
    pub fn start(w: Workload, db: &Database, dir: &Path) -> Result<(Stack, f64), String> {
        let _ = std::fs::remove_dir_all(dir);
        let db = db.clone();
        let config = ServiceConfig::default();
        let reference = Reference::default();
        let t = Instant::now();
        let store = Store::init(dir, &db, &config).map_err(|e| e.to_string())?;
        let svc = Arc::new(Service::with_config(db, config));
        let server = Server::start(
            Arc::clone(&svc),
            Some(store),
            "127.0.0.1:0",
            ServerConfig::default(),
        )
        .map_err(|e| e.to_string())?;
        let mut setup_s = t.elapsed().as_secs_f64();

        let addr = server.addr();
        let mut conn = Conn::connect(addr).map_err(|e| e.to_string())?;
        conn.call(&Request::Ping)?;

        let t = Instant::now();
        let mut stack = Stack {
            svc,
            addr,
            conn,
            handles: Vec::new(),
            reference,
            server,
            dir: dir.to_path_buf(),
        };
        // Text workloads prepare too: the mutation probe watches a
        // statement.
        for q in w.queries() {
            let handle = match stack.conn.call(&Request::Prepare {
                query: (*q).to_string(),
            })? {
                Response::Prepared { handle } => handle,
                other => return Err(format!("prepare answered {other:?}")),
            };
            stack.handles.push(handle);
        }
        if w == Workload::HtapChurn {
            stack.subscribe(w)?;
        }
        for query in 0..w.queries().len() {
            for ratio in RATIOS {
                stack.solve(w, query, ratio)?;
            }
        }
        setup_s += t.elapsed().as_secs_f64();
        Ok((stack, setup_s))
    }

    /// Registers the subscription on `w`'s churn statement.
    pub fn subscribe(&mut self, w: Workload) -> Result<(), String> {
        match self.conn.call(&Request::Subscribe {
            handle: self.handles[w.churn_index()],
            target: SUB_TARGET,
            buffer: PUSH_BUFFER,
            projection: None,
        })? {
            Response::Subscribed { .. } => Ok(()),
            other => Err(format!("subscribe answered {other:?}")),
        }
    }

    /// The request a solve op sends.
    pub fn solve_request(&self, w: Workload, query: usize, ratio: f64) -> Request {
        if w.text_requests() {
            Request::Solve {
                query: w.queries()[query].to_string(),
                target: Target::Ratio(ratio),
                budget_micros: 0,
            }
        } else {
            Request::SolveStmt {
                handle: self.handles[query],
                target: Target::Ratio(ratio),
                budget_micros: 0,
            }
        }
    }

    /// One solve over the wire.
    pub fn solve(
        &mut self,
        w: Workload,
        query: usize,
        ratio: f64,
    ) -> Result<adp_server::WireSolve, String> {
        let request = self.solve_request(w, query, ratio);
        match self.conn.call(&request)? {
            Response::Solve(ws) => Ok(ws),
            other => Err(format!("solve answered {other:?}")),
        }
    }

    /// Closes the connection, stops the server (joining its threads) and
    /// removes the store directory.
    pub fn stop(self) {
        let Stack {
            conn, server, dir, ..
        } = self;
        drop(conn);
        server.stop();
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// One answer kept for the correctness gate.
pub struct Answer {
    pub query: usize,
    pub ratio: f64,
    pub epoch: u64,
    pub outcome: AdpOutcome,
}

/// Everything one stream of ops produced.
#[derive(Default)]
pub struct Log {
    pub solve_ms: Vec<f64>,
    pub first_solve_ms: Vec<f64>,
    /// When set, the first solve after a bump is not timed at all, so
    /// `solve_ms` holds warm solves only. (After a probe phase that
    /// solve may or may not find its plan compiled by the probe.)
    pub warm_only: bool,
    /// The epoch the last op of this log saw, so a later `drive` call
    /// knows whether its first solve is cold.
    pub last_epoch: Option<u64>,
    pub mutate_ms: Vec<f64>,
    pub push_ms: Vec<f64>,
    /// Distinct answers, for the gate. An answer byte-identical to an
    /// earlier one for the same query, ratio and epoch is covered by that
    /// one's check and not kept, so memory does not grow with the run.
    pub answers: Vec<Answer>,
    /// `put_outcome` bytes of the first answer per (query, ratio, epoch).
    seen: HashMap<(usize, u64, u64), Vec<u8>>,
    /// Deletion-set sizes of the first [`FIXED_SOLVES`] answers.
    pub fixed_costs: Vec<u64>,
    /// Snapshot of every epoch an answer names.
    pub epochs: BTreeMap<u64, Arc<Database>>,
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Log {
    fn record(&mut self, answer: Answer) {
        if self.fixed_costs.len() < FIXED_SOLVES {
            self.fixed_costs.push(answer.outcome.cost);
        }
        let mut bytes = Vec::new();
        if put_outcome(&mut bytes, &answer.outcome).is_ok() {
            let key = (answer.query, answer.ratio.to_bits(), answer.epoch);
            match self.seen.get(&key) {
                Some(first) if *first == bytes => return,
                Some(_) => {}
                None => {
                    self.seen.insert(key, bytes);
                }
            }
        }
        self.answers.push(answer);
    }
}

/// When a stream stops: once `secs` have passed and at least
/// `min_solves` timed solves ran, or at `cap_secs` regardless.
pub struct Until {
    pub secs: f64,
    pub min_solves: usize,
    pub cap_secs: f64,
}

/// Hooks the traced run uses to time in-process replays after each op.
/// The untraced run passes [`NoTrace`].
pub trait Observer {
    /// Called after each wire solve with when it was sent and its
    /// latency; `first` marks the first solve after an epoch bump.
    fn solve(
        &mut self,
        _stack: &mut Stack,
        _query: usize,
        _ratio: f64,
        _sent: Instant,
        _ms: f64,
        _first: bool,
    ) {
    }
}

pub struct NoTrace;
impl Observer for NoTrace {}

/// Drives `stream` closed-loop over the stack's one connection.
pub fn drive(
    w: Workload,
    stack: &mut Stack,
    stream: &mut OpStream,
    until: &Until,
    log: &mut Log,
    obs: &mut dyn Observer,
) {
    let start = Instant::now();
    let mut epoch = stack.svc.epoch();
    let mut first = log.last_epoch.is_some_and(|e| e != epoch);
    let timed_before = log.solve_ms.len();
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        let timed = log.solve_ms.len() - timed_before;
        if (elapsed >= until.secs && timed >= until.min_solves) || elapsed >= until.cap_secs {
            log.last_epoch = Some(epoch);
            break;
        }
        log.attempted += 1;
        match stream.next_op() {
            Op::Solve { query, ratio } => {
                let t = Instant::now();
                match stack.solve(w, query, ratio) {
                    Ok(ws) => {
                        let ms = ms_since(t);
                        if !first {
                            log.solve_ms.push(ms);
                        } else if !log.warm_only {
                            log.solve_ms.push(ms);
                            log.first_solve_ms.push(ms);
                        }
                        if ws.epoch != epoch {
                            log.failures
                                .push(format!("solve answered at epoch {} not {epoch}", ws.epoch));
                        }
                        // Pin the snapshot the gate checks this answer on.
                        // Only this client mutates, so the service is
                        // still at the answer's epoch.
                        if !log.epochs.contains_key(&ws.epoch) {
                            let (now, db) = stack.svc.snapshot();
                            if now == ws.epoch {
                                log.epochs.insert(now, db);
                            }
                        }
                        log.record(Answer {
                            query,
                            ratio,
                            epoch: ws.epoch,
                            outcome: ws.outcome,
                        });
                        obs.solve(stack, query, ratio, t, ms, first);
                    }
                    Err(e) => log.failures.push(format!("solve: {e}")),
                }
                first = false;
            }
            Op::Mutate { delete, entries } => {
                let request = Request::Mutate { delete, entries };
                let t = Instant::now();
                let acked = match stack.conn.call(&request) {
                    Ok(Response::Mutated { epoch }) => Ok(epoch),
                    Ok(other) => Err(format!("mutate answered {other:?}")),
                    Err(e) => Err(e),
                };
                let mutate_ms = ms_since(t);
                let acked = acked.and_then(|e| {
                    if e == epoch + 1 {
                        Ok(e)
                    } else {
                        Err(format!("batch acked epoch {e}, expected {}", epoch + 1))
                    }
                });
                let pushed = acked.and_then(|e| {
                    let at = stack.conn.wait_push(e, PUSH_TIMEOUT)?;
                    Ok((e, at.duration_since(t).as_secs_f64() * 1e3))
                });
                match pushed {
                    Ok((e, push_ms)) => {
                        log.mutate_ms.push(mutate_ms);
                        log.push_ms.push(push_ms);
                        epoch = e;
                        first = true;
                    }
                    Err(e) => {
                        log.failures.push(format!("mutate: {e}"));
                        epoch = stack.svc.epoch();
                    }
                }
            }
        }
        stack.reference.sample();
    }
}

/// The `k` a ratio target resolves to (the service's rule).
pub fn k_for(total: u64, ratio: f64) -> u64 {
    ((total as f64 * ratio).ceil() as u64).min(total)
}

/// The untimed correctness gate: every distinct answer must remove at
/// least its target on its own epoch, and every `resolve_every`-th one
/// must equal an in-process `Solve::prepared(..).run()` byte for byte.
/// Returns the number of wrong answers; each is described on stderr.
pub fn gate(w: Workload, log: &Log, resolve_every: usize) -> u64 {
    let mut groups: BTreeMap<(usize, u64), Vec<usize>> = BTreeMap::new();
    for (i, a) in log.answers.iter().enumerate() {
        groups.entry((a.query, a.epoch)).or_default().push(i);
    }
    let mut wrong = 0u64;
    for ((query, epoch), idxs) in groups {
        let Some(db) = log.epochs.get(&epoch) else {
            eprintln!("gate: no snapshot kept for epoch {epoch}");
            wrong += idxs.len() as u64;
            continue;
        };
        let q = parse_query(w.queries()[query]).expect("workload queries parse");
        let prep = PreparedQuery::new(q, Arc::clone(db));
        let total = prep.output_count();
        for i in idxs {
            let a = &log.answers[i];
            let k = k_for(total, a.ratio);
            if let Err(why) = check_answer(&prep, total, k, &a.outcome) {
                eprintln!(
                    "gate: answer {i} ({} ρ={} epoch {epoch}): {why}",
                    w.queries()[query],
                    a.ratio
                );
                wrong += 1;
                continue;
            }
            if i % resolve_every.max(1) == 0 && k > 0 {
                if let Err(why) = resolve_matches(&prep, k, &a.outcome) {
                    eprintln!(
                        "gate: answer {i} ({} ρ={} epoch {epoch}): {why}",
                        w.queries()[query],
                        a.ratio
                    );
                    wrong += 1;
                }
            }
        }
    }
    wrong
}

fn check_answer(prep: &PreparedQuery, total: u64, k: u64, out: &AdpOutcome) -> Result<(), String> {
    if out.output_count != total {
        return Err(format!("output_count {} != {total}", out.output_count));
    }
    if out.truncated {
        return Err("truncated".into());
    }
    let Some(solution) = out.solution.as_deref() else {
        return Err("no deletion set in the answer".into());
    };
    if out.cost != solution.len() as u64 {
        return Err(format!(
            "cost {} != |deletion set| {}",
            out.cost,
            solution.len()
        ));
    }
    let removed = prep.removed_outputs(solution);
    if removed < k {
        return Err(format!("deletion set removes {removed} < k = {k}"));
    }
    Ok(())
}

fn resolve_matches(prep: &PreparedQuery, k: u64, out: &AdpOutcome) -> Result<(), String> {
    let report = Solve::prepared(prep)
        .k(k)
        .run()
        .map_err(|e| format!("in-process re-solve failed: {e}"))?;
    let mut served = Vec::new();
    let mut local = Vec::new();
    put_outcome(&mut served, out).map_err(|e| e.to_string())?;
    put_outcome(&mut local, &report.outcome).map_err(|e| e.to_string())?;
    if served != local {
        return Err(format!(
            "served outcome differs from the in-process re-solve (cost {} vs {})",
            out.cost, report.outcome.cost
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::database;

    /// Runs the first [`FIXED_SOLVES`] solves of a seed's stream on a
    /// fresh stack.
    fn fixed_run(w: Workload, seed: u64) -> Log {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("target")
            .join(format!("test-{}-{seed}-{}", w.name(), std::process::id()));
        let db = database(w, seed);
        let (mut stack, setup_s) = Stack::start(w, &db, &dir).expect("stack starts");
        assert!(setup_s > 0.0);
        let mut log = Log::default();
        let until = Until {
            secs: 0.0,
            min_solves: FIXED_SOLVES,
            cap_secs: 600.0,
        };
        drive(
            w,
            &mut stack,
            &mut OpStream::new(w, seed, &db),
            &until,
            &mut log,
            &mut NoTrace,
        );
        stack.stop();
        assert!(log.failures.is_empty(), "{:?}", log.failures);
        log
    }

    fn costs(log: &Log) -> Vec<u64> {
        log.fixed_costs.clone()
    }

    #[test]
    fn answers_repeat_exactly_for_a_seed_and_pass_the_gate() {
        for w in Workload::ALL {
            let a = fixed_run(w, 11);
            let b = fixed_run(w, 11);
            assert_eq!(costs(&a), costs(&b), "{}", w.name());
            assert_eq!(gate(w, &a, 1), 0, "{}", w.name());
            assert_ne!(costs(&a), costs(&fixed_run(w, 12)), "{}", w.name());
        }
    }

    #[test]
    fn the_gate_catches_a_wrong_answer() {
        let w = Workload::ReadHard;
        let mut log = fixed_run(w, 13);
        let out = &mut log.answers[0].outcome;
        out.solution.as_mut().expect("report mode").pop();
        out.cost -= 1;
        assert!(gate(w, &log, 1) >= 1);
        let out = &mut log.answers[1].outcome;
        out.achieved += 1;
        assert!(
            gate(w, &log, 1) >= 2,
            "a byte-level mismatch is caught by the re-solve"
        );
    }
}

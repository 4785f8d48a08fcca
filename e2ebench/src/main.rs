//! End-to-end ADP benchmark.
//!
//! ```text
//! e2ebench --workload <read_hard|exact_mix|htap_churn> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Builds the serving stack in-process (`Service` over a WAL-backed
//! `Store`, `Server` on `127.0.0.1:0`), drives it closed-loop from one
//! client thread over one connection, checks every answer, and prints
//! one JSON object as the last line of stdout. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` reports the per-layer breakdown.
//! See `README.md` next to this file for the metrics and workloads.

mod conn;
mod host;
mod run;
mod trace;
mod workload;

use host::{median, percentile};
use run::{drive, gate, Log, NoTrace, Stack, Until};
use std::path::PathBuf;
use std::process::ExitCode;
use workload::{OpStream, Workload};

/// Solves kept for `answer_cost`: the first this many of the measured
/// stream, the same requests for every run of a seed. A whole number of
/// solve cycles on every workload (4 on `read_hard` and `htap_churn`,
/// 24 on `exact_mix`), so every seed sums over the same mix of shapes.
pub const FIXED_SOLVES: usize = 96;
/// Set-ups per run; `setup_s` is their median. A set-up takes 60 ms
/// (`exact_mix`) to 180 ms (`htap_churn`), and single ones vary by a
/// third within a run, so the median needs many. The first builds the stack the run
/// measures; the others run after `peak_rss_mb` is read, because memory
/// a torn-down stack frees stays in the allocator's per-thread arenas
/// and raised `VmHWM` by 10 MB in some runs.
const SETUPS: usize = 11;
/// The read workloads never mutate while they solve. To report the
/// write-path metrics too, their measured phase is cut into this many
/// solve phases, each followed by a mutation probe phase, so the write
/// metrics sample the whole run's host conditions, not one stretch.
const PROBE_PHASES: usize = 6;
/// Rounds per probe phase; a round is 4 batches (the last restores the
/// other three) and one cold solve, so each phase leaves the data as it
/// found it. 6 × 20 = 120 cold solves for `first_solve_p50_ms` (with
/// 60, its median on `exact_mix` spread 0.17 over ten seeds), and
/// 6 × 20 × 4 = 480 batches: 48 samples beyond `mutate_p90_ms`.
const PROBE_ROUNDS: usize = 20;
/// Probe batches per solve: one cold solve after every fourth batch.
const PROBE_BATCHES_PER_SOLVE: usize = 4;
/// Solves `solve_p99_ms` needs: ten beyond the 99th percentile. A run
/// measures past `--seconds` to reach them, by at most `MAX_STRETCH`,
/// so a slow host cannot stretch a run without bound.
const MIN_SOLVES: usize = 1_000;
const MAX_STRETCH: f64 = 1.25;
/// Size of the `adp-runtime` global pool, capped at `nproc`: two
/// workers, so the parallel scoring, provenance and index-build paths
/// run as they would when served.
const POOL_THREADS: usize = 2;
/// Every this many distinct answers is also re-solved in-process by the
/// gate.
pub const RESOLVE_EVERY: usize = 8;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Scratch space for the store, inside the build directory of the
/// checkout.
fn scratch_dir(w: Workload) -> PathBuf {
    let base = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("e2ebench/target"), PathBuf::from);
    base.join(format!("e2ebench-{}-{}", w.name(), std::process::id()))
}

/// One metric for the result line.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value, printed for the reader.
    pub samples: usize,
    /// The time as the clock read it, before scaling to the nominal
    /// host speed; printed for the reader.
    pub raw: Option<f64>,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str, samples: usize) -> Self {
        Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
            raw: None,
        }
    }

    /// A time measured on this host, reported at the nominal host speed
    /// (see [`host::Reference`]).
    pub fn scaled(name: &str, raw: f64, scale: f64, unit: &'static str, samples: usize) -> Self {
        Metric {
            raw: Some(raw),
            ..Metric::new(name, raw * scale, unit, samples)
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    let threads = POOL_THREADS.min(adp_runtime::auto_threads());
    if let Err(e) = adp_runtime::configure_global(threads) {
        eprintln!("e2ebench: {e}");
        return ExitCode::from(2);
    }
    let w = args.workload;
    let dir = scratch_dir(w);
    let result = if args.trace {
        trace::run(w, args.seed, args.seconds, &dir)
    } else {
        run_untraced(w, args.seed, args.seconds, &dir)
    };
    let _ = std::fs::remove_dir_all(&dir);
    let outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(1);
        }
    };
    let host = format!(
        "{{\"nproc\": {}, \"pool_threads\": {}, \"profile\": \"{}\", \"flush\": \"write_all per effective batch, no sync_data\", \"ref_ms\": {:.4}, \"ref_samples\": {}, \"ref_nominal_ms\": {}, \"steal_pct\": {:.4}}}",
        adp_runtime::auto_threads(),
        adp_runtime::global().threads(),
        if cfg!(debug_assertions) { "debug" } else { "release" },
        outcome.ref_ms,
        outcome.ref_samples,
        host::REF_NOMINAL_MS,
        outcome.steal_pct,
    );
    println!("host {host}");
    for m in &outcome.metrics {
        let raw = m.raw.map_or(String::new(), |r| {
            format!("; {r:.4} {} as measured", m.unit)
        });
        println!(
            "metric {} = {:.4} {} (n = {}{raw})",
            m.name, m.value, m.unit, m.samples
        );
    }
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    let correct = outcome.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// What a run hands back for printing.
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Median [`host::Reference`] pass over the measured phase.
    pub ref_ms: f64,
    pub ref_samples: usize,
    pub steal_pct: f64,
}

/// Sets the stack up, runs the measured phase (interleaved with
/// mutation probe phases for the read workloads), sets up
/// [`SETUPS`] − 1 more stacks for `setup_s`, and runs the correctness
/// gate.
fn run_untraced(
    w: Workload,
    seed: u64,
    seconds: f64,
    dir: &std::path::Path,
) -> Result<Outcome, String> {
    let db = workload::database(w, seed);
    let (mut stack, secs) = Stack::start(w, &db, dir)?;
    let mut setups = vec![secs];

    let ticks = host::cpu_ticks();
    let mut log = Log::default();
    let mut probe = Log::default();
    let mut stream = OpStream::new(w, seed, &db);
    if w == Workload::HtapChurn {
        let until = Until {
            secs: seconds,
            min_solves: MIN_SOLVES,
            cap_secs: seconds * MAX_STRETCH,
        };
        drive(w, &mut stack, &mut stream, &until, &mut log, &mut NoTrace);
    } else {
        log.warm_only = true;
        stack.subscribe(w)?;
        let mut probe_stream = OpStream::churn(w, seed, &db, PROBE_BATCHES_PER_SOLVE, 1);
        let probe_phase = Until {
            secs: 0.0,
            min_solves: PROBE_ROUNDS,
            cap_secs: seconds * 0.2,
        };
        for phase in 1..=PROBE_PHASES {
            let last = phase == PROBE_PHASES;
            let until = Until {
                secs: seconds / PROBE_PHASES as f64,
                min_solves: if last {
                    MIN_SOLVES.saturating_sub(log.solve_ms.len())
                } else {
                    0
                },
                cap_secs: seconds / PROBE_PHASES as f64 + seconds * (MAX_STRETCH - 1.0),
            };
            drive(w, &mut stack, &mut stream, &until, &mut log, &mut NoTrace);
            drive(
                w,
                &mut stack,
                &mut probe_stream,
                &probe_phase,
                &mut probe,
                &mut NoTrace,
            );
        }
    }
    let steal = host::steal_pct(ticks, host::cpu_ticks());
    let rss = host::peak_rss_mb();
    let scale = stack.reference.scale();
    let ref_ms = stack.reference.median_ms();
    let ref_samples = stack.reference.samples.len();
    stack.stop();
    for _ in 1..SETUPS {
        let (s, secs) = Stack::start(w, &db, dir)?;
        setups.push(secs);
        s.stop();
    }

    let wrong = gate(w, &log, RESOLVE_EVERY) + gate(w, &probe, RESOLVE_EVERY);
    for f in log.failures.iter().chain(&probe.failures) {
        eprintln!("e2ebench: failed op: {f}");
    }
    let attempted = log.attempted + probe.attempted;
    let failed = (log.failures.len() + probe.failures.len()) as u64 + wrong;

    let answer_cost: u64 = log.fixed_costs.iter().sum();
    let writes = if w == Workload::HtapChurn {
        &log
    } else {
        &probe
    };
    let metrics = vec![
        Metric::scaled(
            "solve_p50_ms",
            median(&log.solve_ms),
            scale,
            "ms",
            log.solve_ms.len(),
        ),
        Metric::scaled(
            "solve_p99_ms",
            percentile(&log.solve_ms, 0.99),
            scale,
            "ms",
            log.solve_ms.len(),
        ),
        Metric::scaled(
            "first_solve_p50_ms",
            median(&writes.first_solve_ms),
            scale,
            "ms",
            writes.first_solve_ms.len(),
        ),
        Metric::scaled(
            "mutate_p50_ms",
            median(&writes.mutate_ms),
            scale,
            "ms",
            writes.mutate_ms.len(),
        ),
        Metric::scaled(
            "mutate_p90_ms",
            percentile(&writes.mutate_ms, 0.9),
            scale,
            "ms",
            writes.mutate_ms.len(),
        ),
        Metric::scaled(
            "push_p50_ms",
            median(&writes.push_ms),
            scale,
            "ms",
            writes.push_ms.len(),
        ),
        Metric::new(
            "answer_cost",
            answer_cost as f64,
            "count",
            log.fixed_costs.len(),
        ),
        Metric::new(
            "op_ok_ratio",
            (attempted - failed.min(attempted)) as f64 / attempted.max(1) as f64,
            "ratio",
            attempted as usize,
        ),
        Metric::scaled("setup_s", median(&setups), scale, "s", setups.len()),
        Metric::new("peak_rss_mb", rss, "MB", 1),
    ];
    Ok(Outcome {
        metrics,
        attempted,
        failed,
        ref_ms,
        ref_samples,
        steal_pct: steal,
    })
}

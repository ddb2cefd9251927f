//! Wire-level benchmark for `robopt serve`.
//!
//! ```text
//! cargo run --release --manifest-path wirebench/Cargo.toml -- \
//!     --workload cold_2c|hot_1c|learned_mix --seed N --seconds S --trace 0|1
//! ```
//!
//! Starts the daemon (this executable with `--daemon`: `robopt serve`'s
//! accept loop on a port-0 loopback listener) as a child process, drives it
//! with seeded closed-loop clients for `--seconds`, checks every response,
//! and prints one report line per metric followed by a JSON result line.
//! `--trace 0` reports the end-to-end metrics; `--trace 1` runs the same
//! load, then replays its request lines in-process layer by layer (see
//! `trace.rs`) and reports the per-layer metrics. README.md describes the
//! workloads and metrics.

mod check;
mod client;
mod gen;
mod stats;
mod trace;

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use check::{Checker, DaemonStats, Tally};
use client::{Conn, Daemon, Record};
use gen::{Req, Stream, Verb, Workload};
use stats::{geomean, mean, self_time, Summary};
use trace::{layer, Replay, Span, NO_PARENT};

/// Daemons brought up per run; `setup_s` is their p50, which the
/// ten-beyond rule allows from 20 samples.
const SETUP_REPS: usize = 21;

/// The traced replay covers at most this many timed requests; its
/// per-layer figures are medians and means, and need no more.
const REPLAY_TIMED: usize = 20_000;
/// Timed optimize requests re-sent twice each after the timed loop, to
/// check that a repeated signature returns a byte-identical line.
const REPEAT_PAIRS: usize = 24;

/// The end-to-end metrics the JSON line carries with `--trace 0`; they
/// must match BENCHMARK.json's `end_to_end` list.
const END_TO_END: &[&str] = &[
    "req_per_s",
    "optimize_p50_ms",
    "optimize_p90_ms",
    "setup_s",
    "plan_sim_s",
];

/// The per-layer metrics the JSON line carries with `--trace 1`; they must
/// match BENCHMARK.json's `per_layer` list. Every one is measured on every
/// workload. Metrics only some workloads exercise (the p90s of small
/// samples, ml, engine) are printed as report lines only.
const PER_LAYER: &[&str] = &[
    "cli.serve.transport_us_p50",
    "cli.serve.conn_wait_ms",
    "cli.serve.bytes_out_per_req",
    "robopt.wire.parse_us_p50",
    "robopt.wire.render_us_p50",
    "robopt.cache.hit_rate",
    "robopt.cache.hits",
    "robopt.cache.misses",
    "robopt.cache.hit_us_p50",
    "robopt.cache.insertions",
    "robopt.cache.evictions",
    "robopt.optimizer.miss_us_p50",
    "robopt.optimizer.self_us_p50",
    "plan.spec.build_us_p50",
    "core.vectorize.us_p50",
    "core.enumerate.us_p50",
    "core.enumerate.share",
    "core.enumerate.self_us_p50",
    "core.enumerate.self_ns_per_generated",
    "core.enumerate.generated",
    "core.enumerate.kept",
    "core.enumerate.kept_ratio",
    "core.enumerate.merges",
    "core.enumerate.peak_rows_max",
    "core.oracle.calls",
    "core.oracle.rows",
    "core.oracle.ns_per_row",
    "core.oracle.share",
    "core.oracle.rows_per_generated",
    "core.oracle.dist_us_p50",
    "trace.overhead_frac",
];

#[derive(Debug)]
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
        let value = it.next().ok_or_else(|| format!("{flag} expects a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds {s} outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// One measured value for the report.
#[derive(Debug, Clone)]
struct Metric {
    name: String,
    value: Option<f64>,
    unit: &'static str,
    n: usize,
    /// Why `value` is absent.
    missing: &'static str,
}

const REFUSED: &str = "refused: fewer than 10 samples beyond the percentile";
const NOT_EXERCISED: &str = "not exercised by this workload";

fn metric(name: &str, value: Option<f64>, unit: &'static str, n: usize) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
        n,
        missing: if n == 0 { NOT_EXERCISED } else { REFUSED },
    }
}

fn count(name: &str, value: f64, unit: &'static str, n: usize) -> Metric {
    metric(name, Some(value), unit, n.max(1))
}

/// `<prefix>_p50<suffix>` and `<prefix>_p90<suffix>` of `samples`.
fn percentiles(prefix: &str, suffix: &str, samples: &[f64], unit: &'static str) -> [Metric; 2] {
    let s = Summary::of(samples);
    [
        metric(&format!("{prefix}_p50{suffix}"), s.p50, unit, s.n),
        metric(&format!("{prefix}_p90{suffix}"), s.p90, unit, s.n),
    ]
}

/// The p50 of `samples`, named `name`.
fn p50(name: &str, samples: &[f64], unit: &'static str) -> Metric {
    let s = Summary::of(samples);
    metric(name, s.p50, unit, s.n)
}

/// The daemon brought to the state the timed loop starts from.
struct Ready {
    daemon: Daemon,
    conn: Option<Conn>,
    /// Round trip of the connection's first request, a `stats` whose
    /// in-process service time is negligible.
    hello_ns: u64,
    /// Set-up requests the daemon answered, in order.
    setup: Vec<(Arc<Req>, Option<String>)>,
}

/// Start a daemon, wait for its first response, and send the workload's
/// set-up requests. Returns the daemon and the elapsed seconds.
fn bring_up(workload: Workload, setup: &[Arc<Req>]) -> Result<(Ready, f64), String> {
    let t = Instant::now();
    let daemon = Daemon::start().map_err(|e| format!("cannot start the daemon: {e}"))?;
    let mut conn = daemon
        .connect()
        .map_err(|e| format!("cannot connect: {e}"))?;
    let hello = conn
        .call("{\"op\":\"stats\"}")
        .map_err(|e| format!("daemon did not answer: {e}"))?;
    DaemonStats::parse(&hello.response)?;
    let mut answered = Vec::with_capacity(setup.len());
    for req in setup {
        let x = conn.call(&req.line).ok().map(|x| x.response);
        answered.push((req.clone(), x));
    }
    let secs = t.elapsed().as_secs_f64();
    // cold_2c's clients open their own connections; an idle one would
    // block them, since the daemon serves one connection at a time.
    let conn = (workload != Workload::Cold2c).then_some(conn);
    Ok((
        Ready {
            daemon,
            conn,
            hello_ns: (hello.done - hello.sent).as_nanos() as u64,
            setup: answered,
        },
        secs,
    ))
}

/// Everything the wire phase produced.
struct WireRun {
    setup_s: Vec<f64>,
    hello_ns: u64,
    setup: Vec<(Arc<Req>, Option<String>)>,
    timed: Vec<Record>,
    wall_ns: u64,
    repeats: Vec<(Arc<Req>, Option<String>)>,
    stats: Result<DaemonStats, String>,
    stopped: Result<(), String>,
    peak_rss_mb: f64,
}

fn wire_run(args: &Args) -> Result<WireRun, String> {
    let w = args.workload;
    let mut stream = Stream::new(w, args.seed);
    let setup_lines = stream.setup();
    let mut setup_s = Vec::new();
    let mut ready = None;
    let mut peak_rss_mb: f64 = 0.0;
    for _ in 0..SETUP_REPS {
        let (r, secs) = bring_up(w, &setup_lines)?;
        setup_s.push(secs);
        if let Some(old) = ready.replace(r) {
            let Ready { daemon, conn, .. } = old;
            drop(conn);
            peak_rss_mb = peak_rss_mb.max(daemon.stop()?);
        }
    }
    let Ready {
        daemon,
        mut conn,
        hello_ns,
        setup,
    } = ready.ok_or("no set-up ran")?;

    let timed = match &mut conn {
        Some(c) => client::run_single(c, &mut stream, args.seconds),
        None => client::run_connections(&daemon, w, args.seed, args.seconds)?,
    };

    let mut after = match conn.take() {
        Some(c) => c,
        None => daemon
            .connect()
            .map_err(|e| format!("cannot reconnect: {e}"))?,
    };
    let mut repeats = Vec::new();
    if w != Workload::Hot1c {
        let optimized: Vec<&Record> = timed
            .records
            .iter()
            .filter(|r| matches!(r.req.verb, Verb::Optimize(_)) && r.response.is_some())
            .collect();
        let step = (optimized.len() / REPEAT_PAIRS).max(1);
        for r in optimized.iter().step_by(step).take(REPEAT_PAIRS) {
            for _ in 0..2 {
                let x = after.call(&r.req.line).ok().map(|x| x.response);
                repeats.push((r.req.clone(), x));
            }
        }
    }
    let stats = after
        .call("{\"op\":\"stats\"}")
        .map_err(|e| format!("stats failed: {e}"))
        .and_then(|x| DaemonStats::parse(&x.response));
    drop(after);
    let stopped = daemon.stop().map(|mb| peak_rss_mb = peak_rss_mb.max(mb));
    Ok(WireRun {
        setup_s,
        hello_ns,
        setup,
        timed: timed.records,
        wall_ns: timed.wall_ns,
        repeats,
        stats,
        stopped,
        peak_rss_mb,
    })
}

impl WireRun {
    /// The requests the final daemon answered, in its order, with at most
    /// `max_timed` of the timed ones.
    fn sequence(&self, max_timed: usize) -> Vec<(&Req, Option<&str>)> {
        let timed = &self.timed[..self.timed.len().min(max_timed)];
        let mut out: Vec<(&Req, Option<&str>)> = Vec::new();
        out.extend(self.setup.iter().map(|(r, x)| (&**r, x.as_deref())));
        out.extend(timed.iter().map(|r| (&*r.req, r.response.as_deref())));
        out.extend(self.repeats.iter().map(|(r, x)| (&**r, x.as_deref())));
        out
    }

    /// The client's own account of the daemon's cache lookups.
    fn tally(&self) -> Tally {
        let capacity = robopt::PlanCache::DEFAULT_CAPACITY as u64;
        let mut seen = std::collections::HashSet::new();
        let mut t = Tally::default();
        let mut last = None;
        for (req, _) in self.sequence(usize::MAX) {
            let Some(sig) = req.signature() else {
                continue;
            };
            t.requests += 1;
            if seen.insert(sig) {
                t.distinct += 1;
            } else if last == Some(sig) || t.distinct <= capacity {
                t.sure_hits += 1;
            }
            last = Some(sig);
        }
        t.may_evict = t.distinct > capacity;
        t
    }
}

/// The outcome of checking every response.
struct Verdict {
    attempted: usize,
    failed: usize,
    setup_ok: bool,
    /// Simulated seconds of each distinct plan returned, by signature.
    plan_seconds: HashMap<u64, f64>,
    /// The first few failures.
    errors: Vec<String>,
}

fn verify(run: &WireRun) -> Verdict {
    let mut checker = Checker::new();
    let mut v = Verdict {
        attempted: 0,
        failed: 0,
        setup_ok: true,
        plan_seconds: HashMap::new(),
        errors: Vec::new(),
    };
    for (req, line) in &run.setup {
        if let Err(e) = checker.check(req, line.as_deref()) {
            v.setup_ok = false;
            v.errors.push(format!("set-up {}: {e}", req.line));
        }
    }
    let checked = run
        .timed
        .iter()
        .map(|r| (&*r.req, r.response.as_deref()))
        .chain(run.repeats.iter().map(|(r, x)| (&**r, x.as_deref())));
    for (req, line) in checked {
        v.attempted += 1;
        if let Err(e) = checker.check(req, line) {
            v.failed += 1;
            if v.errors.len() < 5 {
                v.errors.push(format!("{}: {e}", req.line));
            }
        }
    }
    v.plan_seconds = checker.plan_seconds;
    v
}

fn rtts_ms(records: &[Record], execute: bool) -> Vec<f64> {
    records
        .iter()
        .filter(|r| r.response.is_some() && matches!(r.req.verb, Verb::Execute(_)) == execute)
        .map(|r| r.rtt_ns() as f64 / 1e6)
        .collect()
}

/// Geometric mean of the simulated seconds of the plans returned for the
/// workload's scored requests ([`gen::scored`]), or which of them went
/// unanswered.
fn plan_sim_s(w: Workload, seed: u64, verdict: &Verdict) -> Result<f64, String> {
    let mut seconds = Vec::with_capacity(w.scored_plans());
    for (k, req) in gen::scored(w, seed).iter().enumerate() {
        let s = req
            .signature()
            .and_then(|sig| verdict.plan_seconds.get(&sig))
            .ok_or_else(|| format!("scored request {k} has no checked response: {}", req.line))?;
        seconds.push(*s);
    }
    geomean(&seconds).ok_or_else(|| "a scored plan simulates to 0 s or less".to_string())
}

fn end_to_end(
    run: &WireRun,
    verdict: &Verdict,
    plan_sim: Option<f64>,
    scored: usize,
) -> Vec<Metric> {
    let done = run.timed.iter().filter(|r| r.response.is_some()).count();
    let mut m = vec![count(
        "req_per_s",
        done as f64 / (run.wall_ns.max(1) as f64 / 1e9),
        "1/s",
        done,
    )];
    m.extend(percentiles(
        "optimize",
        "_ms",
        &rtts_ms(&run.timed, false),
        "ms",
    ));
    m.extend(percentiles(
        "execute",
        "_ms",
        &rtts_ms(&run.timed, true),
        "ms",
    ));
    m.push(count(
        "failed_frac",
        verdict.failed as f64 / verdict.attempted.max(1) as f64,
        "ratio",
        verdict.attempted,
    ));
    m.push(p50("setup_s", &run.setup_s, "s"));
    m.push(Metric {
        missing: "a scored request went unanswered",
        ..metric("plan_sim_s", plan_sim, "s", scored)
    });
    m.push(count("peak_rss_mb", run.peak_rss_mb, "MiB", 1));
    m
}

/// Spans grouped by parent.
fn children_of(spans: &[Span]) -> Vec<Vec<u32>> {
    let mut kids = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if s.parent != NO_PARENT {
            kids[s.parent as usize].push(i as u32);
        }
    }
    kids
}

fn interval(s: &Span) -> (u64, u64) {
    (s.start, s.end)
}

fn per_layer(run: &WireRun, replay: &Replay, problems: &mut Vec<String>) -> Vec<Metric> {
    let us = |ns: u64| ns as f64 / 1e3;
    let first = run.setup.len();
    let n_timed = run.timed.len().min(REPLAY_TIMED);
    let timed: Vec<(&Record, &trace::LineTrace)> = run.timed[..n_timed]
        .iter()
        .zip(&replay.lines[first..first + n_timed])
        .filter(|(r, _)| r.response.is_some())
        .collect();
    let mut m = Vec::new();

    // cli.serve: what the wire adds to in-process service time.
    let transport: Vec<f64> = timed
        .iter()
        .map(|(r, l)| (r.rtt_ns() as f64 - l.service_ns as f64) / 1e3)
        .collect();
    m.extend(percentiles("cli.serve.transport_us", "", &transport, "us"));
    // Every connection's first response: the set-up connection's `stats`
    // and, on cold_2c, the first request of each connection.
    let waits: Vec<f64> = std::iter::once(run.hello_ns as f64 / 1e6)
        .chain(
            timed
                .iter()
                .filter(|(r, _)| r.first)
                .map(|(r, l)| (r.rtt_ns() as f64 - l.service_ns as f64) / 1e6),
        )
        .collect();
    m.push(metric(
        "cli.serve.conn_wait_ms",
        mean(&waits),
        "ms",
        waits.len(),
    ));
    let bytes: Vec<f64> = timed
        .iter()
        .filter_map(|(r, _)| r.response.as_ref().map(|x| x.len() as f64 + 1.0))
        .collect();
    m.push(metric(
        "cli.serve.bytes_out_per_req",
        mean(&bytes),
        "B",
        bytes.len(),
    ));

    // robopt.wire
    let parse: Vec<f64> = timed.iter().map(|(_, l)| us(l.parse_ns)).collect();
    let render: Vec<f64> = timed.iter().map(|(_, l)| us(l.render_ns)).collect();
    m.extend(percentiles("robopt.wire.parse_us", "", &parse, "us"));
    m.extend(percentiles("robopt.wire.render_us", "", &render, "us"));

    // robopt.cache: the daemon's own counters, plus hit time from the replay.
    if let Ok(s) = &run.stats {
        let lookups = (s.hits + s.misses) as usize;
        m.push(count(
            "robopt.cache.hit_rate",
            s.hits as f64 / lookups.max(1) as f64,
            "ratio",
            lookups,
        ));
        for (name, v) in [
            ("robopt.cache.hits", s.hits),
            ("robopt.cache.misses", s.misses),
            ("robopt.cache.insertions", s.insertions),
            ("robopt.cache.evictions", s.evictions),
        ] {
            m.push(count(name, v as f64, "count", lookups));
        }
    }
    let hits: Vec<f64> = replay
        .lines
        .iter()
        .filter(|l| l.is_optimize && l.hit == Some(true))
        .map(|l| us(l.facade_ns))
        .collect();
    m.extend(percentiles("robopt.cache.hit_us", "", &hits, "us"));

    // The decomposed miss path.
    let spans = &replay.spans;
    let kids = children_of(spans);
    let misses: Vec<&trace::LineTrace> = replay
        .lines
        .iter()
        .filter(|l| l.miss_span.is_some())
        .collect();
    let (mut miss_us, mut self_us, mut facade_ns_sum, mut miss_ns_sum) =
        (Vec::new(), Vec::new(), 0u64, 0u64);
    let (mut spec_us, mut vec_us, mut dist_us, mut enum_us, mut enum_self_us) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut enum_ns, mut enum_self_ns, mut oracle_ns, mut oracle_calls, mut oracle_rows) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    let mut totals = robopt_core::EnumStats::default();
    for l in &misses {
        let root = l.miss_span.expect("filtered") as usize;
        let r = &spans[root];
        let direct: Vec<(u64, u64)> = kids[root]
            .iter()
            .map(|&c| interval(&spans[c as usize]))
            .collect();
        let own = self_time(interval(r), &direct);
        let child_sum: u64 = direct.iter().map(|(s, e)| e - s).sum();
        if own + child_sum != r.ns() {
            problems.push(format!("miss span {root}: children plus self != parent"));
        }
        miss_us.push(us(r.ns()));
        self_us.push(us(own));
        miss_ns_sum += r.ns();
        facade_ns_sum += l.facade_ns;
        for &c in &kids[root] {
            let s = &spans[c as usize];
            match s.name {
                layer::SPEC => spec_us.push(us(s.ns())),
                layer::VECTORIZE => vec_us.push(us(s.ns())),
                layer::ORACLE_DIST => dist_us.push(us(s.ns())),
                layer::ENUMERATE => {
                    let calls: Vec<&Span> = kids[c as usize]
                        .iter()
                        .map(|&o| &spans[o as usize])
                        .collect();
                    let cover: Vec<(u64, u64)> = calls.iter().map(|o| interval(o)).collect();
                    let own = self_time(interval(s), &cover);
                    enum_us.push(us(s.ns()));
                    enum_self_us.push(us(own));
                    enum_ns += s.ns();
                    enum_self_ns += own;
                    oracle_ns += s.ns() - own;
                    oracle_calls += calls.len() as u64;
                    oracle_rows += calls.iter().map(|o| u64::from(o.rows)).sum::<u64>();
                }
                _ => {}
            }
        }
        if let Some(st) = &l.enum_stats {
            totals.generated += st.generated;
            totals.kept += st.kept;
            totals.merges += st.merges;
            totals.peak_rows = totals.peak_rows.max(st.peak_rows);
        }
    }
    let n = misses.len();
    let per_miss = |x: u64| (n > 0).then(|| x as f64 / n as f64);
    let ratio = |a: u64, b: u64| (b > 0).then(|| a as f64 / b as f64);
    m.extend(percentiles("robopt.optimizer.miss_us", "", &miss_us, "us"));
    m.extend(percentiles("core.enumerate.us", "", &enum_us, "us"));
    for (name, samples) in [
        ("robopt.optimizer.self_us_p50", &self_us),
        ("plan.spec.build_us_p50", &spec_us),
        ("core.vectorize.us_p50", &vec_us),
        ("core.enumerate.self_us_p50", &enum_self_us),
        ("core.oracle.dist_us_p50", &dist_us),
    ] {
        m.push(p50(name, samples, "us"));
    }
    for (name, value, unit) in [
        ("core.enumerate.share", ratio(enum_ns, miss_ns_sum), "ratio"),
        (
            "core.enumerate.self_ns_per_generated",
            ratio(enum_self_ns, totals.generated),
            "ns",
        ),
        (
            "core.enumerate.generated",
            per_miss(totals.generated),
            "count/miss",
        ),
        ("core.enumerate.kept", per_miss(totals.kept), "count/miss"),
        (
            "core.enumerate.kept_ratio",
            ratio(totals.kept, totals.generated),
            "ratio",
        ),
        (
            "core.enumerate.merges",
            per_miss(totals.merges),
            "count/miss",
        ),
        (
            "core.enumerate.peak_rows_max",
            (n > 0).then_some(totals.peak_rows as f64),
            "rows",
        ),
        ("core.oracle.calls", per_miss(oracle_calls), "count/miss"),
        ("core.oracle.rows", per_miss(oracle_rows), "count/miss"),
        (
            "core.oracle.ns_per_row",
            ratio(oracle_ns, oracle_rows),
            "ns",
        ),
        ("core.oracle.share", ratio(oracle_ns, miss_ns_sum), "ratio"),
        (
            "core.oracle.rows_per_generated",
            ratio(oracle_rows, totals.generated),
            "ratio",
        ),
        (
            "trace.overhead_frac",
            (facade_ns_sum > 0).then(|| miss_ns_sum as f64 / facade_ns_sum as f64 - 1.0),
            "ratio",
        ),
    ] {
        m.push(metric(name, value, unit, n));
    }

    // ml and engine: learned_mix only.
    let trains: Vec<(u32, u32)> = replay.lines.iter().filter_map(|l| l.train).collect();
    let secs = |id: u32| spans[id as usize].ns() as f64 / 1e9;
    let set_s: Vec<f64> = trains.iter().map(|&(s, _)| secs(s)).collect();
    let fit_s: Vec<f64> = trains.iter().map(|&(_, f)| secs(f)).collect();
    m.push(metric("ml.training.set_s", mean(&set_s), "s", set_s.len()));
    m.push(metric("ml.forest.fit_s", mean(&fit_s), "s", fit_s.len()));
    let runs: Vec<(u32, f64, u64)> = replay.lines.iter().filter_map(|l| l.engine).collect();
    let exec_us: Vec<f64> = runs
        .iter()
        .map(|&(s, _, _)| us(spans[s as usize].ns()))
        .collect();
    let compute_ms: Vec<f64> = runs.iter().map(|&(_, c, _)| c * 1e3).collect();
    m.push(p50("engine.exec.us_p50", &exec_us, "us"));
    m.push(p50("engine.exec.compute_ms_p50", &compute_ms, "ms"));
    let busy: f64 = runs.iter().map(|&(s, _, _)| secs(s)).sum();
    let rows: u64 = runs.iter().map(|&(_, _, r)| r).sum();
    m.push(metric(
        "engine.exec.rows_per_s",
        (busy > 0.0).then(|| rows as f64 / busy),
        "1/s",
        runs.len(),
    ));

    // How the miss path's p50s add up (they need not sum exactly: the p50
    // of a sum is not the sum of p50s, but each request's spans do).
    let median = |v: &[f64]| Summary::of(v).p50;
    if let (Some(miss), Some(own), Some(spec), Some(en), Some(vz), Some(di)) = (
        median(&miss_us),
        median(&self_us),
        median(&spec_us),
        median(&enum_us),
        median(&vec_us),
        median(&dist_us),
    ) {
        println!(
            "account robopt.optimizer.miss_us_p50 {miss:.1} = self {own:.1} + plan.spec {spec:.1} \
             + core.enumerate {en:.1} + core.vectorize {vz:.1} + core.oracle.dist {di:.1} \
             (sum of p50s {:.1})",
            own + spec + en + vz + di
        );
    }
    m
}

fn git_commit(root: &std::path::Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unavailable".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(hash) = std::fs::read_to_string(git.join(reference)) {
        return hash.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unavailable".to_string())
}

fn json_line(correct: bool, attempted: usize, failed: usize, metrics: &[&Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name,
                m.value.unwrap_or(f64::NAN),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .ok_or("benchmark package has no parent directory")?
        .to_path_buf();
    let hw_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    println!(
        "env workload={} seed={} seconds={} trace={} hw_threads={hw_threads} profile={profile} \
         commit={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        git_commit(&root)
    );
    let generator_ok = gen::self_test(args.workload, args.seed);
    if !generator_ok {
        println!("check generator self-test FAILED");
    }

    let run = wire_run(&args)?;
    let verdict = verify(&run);
    let mut problems: Vec<String> = verdict.errors.clone();
    match &run.stats {
        Ok(s) => {
            if let Err(e) = run.tally().check(s) {
                problems.push(format!("stats tally: {e}"));
            }
        }
        Err(e) => problems.push(format!("stats: {e}")),
    }
    if let Err(e) = &run.stopped {
        problems.push(format!("daemon stop: {e}"));
    }
    let plan_sim = plan_sim_s(args.workload, args.seed, &verdict);
    if let Err(e) = &plan_sim {
        problems.push(format!("plan_sim_s: {e}"));
    }

    let metrics = if args.trace {
        let lines: Vec<(&str, Option<&str>)> = run
            .sequence(REPLAY_TIMED)
            .into_iter()
            .map(|(r, x)| (r.line.as_str(), x))
            .collect();
        let replay = trace::replay(&lines);
        problems.extend(replay.mismatches.iter().take(5).cloned());
        let path = root.join("wirebench").join("out").join(format!(
            "spans-{}-{}.tsv",
            args.workload.name(),
            args.seed
        ));
        trace::write_spans(&path, &replay.spans)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("spans {} written to {}", replay.spans.len(), path.display());
        let m = per_layer(&run, &replay, &mut problems);
        if !replay.mismatches.is_empty() {
            problems.push(format!("{} replay mismatches", replay.mismatches.len()));
        }
        m
    } else {
        end_to_end(&run, &verdict, plan_sim.ok(), args.workload.scored_plans())
    };

    for m in &metrics {
        match m.value {
            Some(v) => println!("metric {} = {v:.6} {} (n={})", m.name, m.unit, m.n),
            None => println!(
                "metric {} unavailable {} (n={}): {}",
                m.name, m.unit, m.n, m.missing
            ),
        }
    }
    for p in &problems {
        println!("check FAILED {p}");
    }
    let correct = generator_ok && verdict.setup_ok && problems.is_empty() && verdict.failed == 0;
    println!(
        "check correct={correct} attempted={} failed={}",
        verdict.attempted, verdict.failed
    );

    let wanted = if args.trace { PER_LAYER } else { END_TO_END };
    let mut chosen = Vec::with_capacity(wanted.len());
    for name in wanted {
        let m = metrics
            .iter()
            .find(|m| m.name == *name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if m.value.is_none() {
            return Err(format!("metric {name} unavailable: {}", m.missing));
        }
        chosen.push(m);
    }
    println!(
        "{}",
        json_line(correct, verdict.attempted, verdict.failed, &chosen)
    );
    Ok(())
}

fn main() {
    if std::env::args().nth(1).as_deref() == Some("--daemon") {
        std::process::exit(client::daemon_main());
    }
    if let Err(e) = run() {
        eprintln!("wirebench: {e}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The JSON line's metric lists are BENCHMARK.json's.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("..")
            .join("BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let doc = robopt::json::parse(&text).expect("valid JSON");
        for (key, names) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<&str> = doc
                .get(key)
                .and_then(|v| v.as_arr())
                .expect("metric list")
                .iter()
                .map(|m| m.get("name").and_then(|n| n.as_str()).expect("name"))
                .collect();
            assert_eq!(&listed, names, "{key}");
        }
    }

    #[test]
    fn json_line_has_exactly_the_result_keys() {
        let m = count("req_per_s", 12.5, "1/s", 10);
        let line = json_line(true, 3, 0, &[&m]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"req_per_s\": {\"value\": 12.5, \"unit\": \"1/s\"}}}"
        );
    }
}

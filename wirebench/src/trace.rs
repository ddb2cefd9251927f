//! The traced run: replays the daemon's request lines in-process, in the
//! order the daemon served them, through each layer's public entry points,
//! and records spans in memory (name, start, end, parent, request id).
//!
//! Every line first goes through the real path (`parse_request`, the
//! `Optimizer` facade, `render_response`) on a replica daemon state. Cache
//! misses, executes and trainings are then run again decomposed into
//! their layers, and the decomposed result must reproduce the facade's
//! bit for bit, so time attribution cannot drift from the real path.
//! No tracing is added inside the program: spans wrap the calls into it,
//! and the cost oracle is timed by a [`CostOracle`] that delegates to the
//! facade's own.

use std::io::Write;
use std::sync::Mutex;
use std::time::Instant;

use robopt::{
    forest_to_json, parse_request, render_response, BackendChoice, OptimizeRequest,
    OptimizeResponse, Optimizer, Request, Response, ServiceError, TrainRequest, TrainSource,
};
use robopt_core::vectorize::vectorize_assignment;
use robopt_core::{CostDistribution, CostOracle, EnumOptions, ParallelEnumerator, SplitOptions};
use robopt_ml::{ForestConfig, RandomForest};
use robopt_platforms::{ExecutionBackend, PlatformId};
use robopt_tdgen::{tdgen_training_set, TdgenConfig};
use robopt_vector::RowsView;

/// Span names, one per layer boundary.
pub mod layer {
    /// In-process service time of one line: parse + facade + render.
    pub const SERVE: &str = "cli.serve";
    pub const PARSE: &str = "robopt.wire.parse";
    pub const RENDER: &str = "robopt.wire.render";
    /// The facade call (`Optimizer::optimize` / `execute` / `train`).
    pub const FACADE: &str = "robopt.facade";
    /// The decomposed optimize miss path.
    pub const MISS: &str = "robopt.optimizer";
    pub const SPEC: &str = "plan.spec";
    pub const ENUMERATE: &str = "core.enumerate";
    pub const ORACLE: &str = "core.oracle";
    pub const VECTORIZE: &str = "core.vectorize";
    pub const ORACLE_DIST: &str = "core.oracle.dist";
    pub const TRAINING_SET: &str = "ml.training.set";
    pub const FOREST_FIT: &str = "ml.forest.fit";
    pub const ENGINE: &str = "engine.exec";
}

/// Parent of a root span.
pub const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: u32,
    pub req: u32,
    /// Rows costed (oracle spans) — 0 elsewhere.
    pub rows: u32,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// In-memory span store, shared with the timed oracle (hence the lock).
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn record(&self, span: Span) -> u32 {
        let mut spans = self.spans.lock().expect("span store poisoned");
        spans.push(span);
        (spans.len() - 1) as u32
    }

    /// Open a span now; close it with [`Tracer::close`].
    fn open(&self, name: &'static str, parent: u32, req: u32) -> u32 {
        let start = self.at(Instant::now());
        self.record(Span {
            name,
            start,
            end: start,
            parent,
            req,
            rows: 0,
        })
    }

    fn close(&self, id: u32, rows: usize) {
        let end = self.at(Instant::now());
        let mut spans = self.spans.lock().expect("span store poisoned");
        let span = &mut spans[id as usize];
        span.end = end;
        span.rows = rows.min(u32::MAX as usize) as u32;
    }

    fn within<T>(&self, name: &'static str, parent: u32, req: u32, f: impl FnOnce(u32) -> T) -> T {
        let id = self.open(name, parent, req);
        let out = f(id);
        self.close(id, 0);
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner().expect("span store poisoned")
    }
}

/// Times every call into the facade's oracle as a `core.oracle` span.
struct TimedOracle<'a> {
    inner: &'a dyn CostOracle,
    tracer: &'a Tracer,
    parent: u32,
    req: u32,
}

impl CostOracle for TimedOracle<'_> {
    fn width(&self) -> usize {
        self.inner.width()
    }

    fn cost_row(&self, feats: &[f64]) -> f64 {
        let id = self.tracer.open(layer::ORACLE, self.parent, self.req);
        let cost = self.inner.cost_row(feats);
        self.tracer.close(id, 1);
        cost
    }

    fn cost_batch(&self, rows: RowsView<'_>, out: &mut Vec<f64>) {
        let id = self.tracer.open(layer::ORACLE, self.parent, self.req);
        self.inner.cost_batch(rows, out);
        self.tracer.close(id, rows.rows());
    }

    fn cost_batch_dist(&self, rows: RowsView<'_>, out: &mut CostDistribution) {
        let id = self.tracer.open(layer::ORACLE, self.parent, self.req);
        self.inner.cost_batch_dist(rows, out);
        self.tracer.close(id, rows.rows());
    }
}

/// What the replay learned about one line.
#[derive(Debug, Clone, Default)]
pub struct LineTrace {
    /// Parse + facade + render, untraced (the in-process service time).
    pub service_ns: u64,
    pub parse_ns: u64,
    pub facade_ns: u64,
    pub render_ns: u64,
    /// Whether the optimize this line triggered hit the replica's cache.
    pub hit: Option<bool>,
    pub is_optimize: bool,
    /// Root span of the decomposed miss path, if the line missed.
    pub miss_span: Option<u32>,
    /// Enumeration counters of the decomposed miss.
    pub enum_stats: Option<robopt_core::EnumStats>,
    /// Engine execution: span, compute seconds reported, rows produced.
    pub engine: Option<(u32, f64, u64)>,
    /// Training: set generation and forest fit spans.
    pub train: Option<(u32, u32)>,
}

/// Result of a replay.
#[derive(Debug)]
pub struct Replay {
    pub lines: Vec<LineTrace>,
    pub spans: Vec<Span>,
    /// Lines where the decomposed path, the facade and the wire disagreed.
    pub mismatches: Vec<String>,
}

/// Route one parsed request into the facade, as the serve loop does.
fn dispatch(opt: &mut Optimizer, req: &Request) -> Response {
    let resp = match req {
        Request::Optimize(r) => opt.optimize(r).map(Response::Optimize),
        Request::Train(r) => opt.train(r).map(Response::Train),
        Request::Simulate(r) => opt.simulate(r).map(Response::Simulate),
        Request::Execute(r) => opt.execute(r).map(Response::Execute),
        Request::Compare(r) => opt.compare(r).map(Response::Compare),
        Request::Stats => Ok(Response::Stats(opt.service_stats())),
        Request::Quit => Err(ServiceError::InvalidRequest("quit".to_string())),
    };
    resp.unwrap_or_else(Response::Error)
}

/// Fields of an execute line that do not depend on measured time.
fn execute_outcome(line: &str) -> Option<(Vec<String>, u64, u64)> {
    let doc = robopt::json::parse(line).ok()?;
    let names = doc
        .get("assignments")?
        .as_arr()?
        .iter()
        .map(|v| v.as_str().map(str::to_string))
        .collect::<Option<Vec<_>>>()?;
    Some((
        names,
        doc.get("output_rows")?.as_u64()?,
        doc.get("output_digest")?.as_u64()?,
    ))
}

struct Replayer {
    tracer: Tracer,
    opt: Optimizer,
    parallel: ParallelEnumerator,
    feats: Vec<f64>,
    dist: CostDistribution,
    mismatches: Vec<String>,
}

impl Replayer {
    /// The facade's miss path, one layer at a time.
    fn decomposed_miss(
        &mut self,
        req: &OptimizeRequest,
        id: u32,
    ) -> Result<(OptimizeResponse, u32, robopt_core::EnumStats), String> {
        let Replayer {
            tracer,
            opt,
            parallel,
            feats,
            dist,
            ..
        } = self;
        let root = tracer.open(layer::MISS, NO_PARENT, id);
        let plan = tracer
            .within(layer::SPEC, root, id, |_| req.workload.build())
            .map_err(|e| e.message().to_string())?;
        let risk = req.risk.unwrap_or_default();
        parallel.set_threads(req.policy.workers);
        parallel.set_split(SplitOptions::new(req.policy.split_parts.max(1)));
        parallel.set_hardware_clamp(req.policy.hardware_clamp);
        let inner = opt.enum_options().oracle();
        let (exec, stats) = tracer.within(layer::ENUMERATE, root, id, |enum_id| {
            let timed = TimedOracle {
                inner,
                tracer,
                parent: enum_id,
                req: id,
            };
            let opts = EnumOptions::new(opt.registry())
                .with_oracle(&timed)
                .with_prune(req.policy.prune)
                .with_risk(risk);
            parallel.enumerate(&plan, opt.layout(), opts)
        });
        let raw: Vec<u8> = exec.assignments.iter().map(|&p| p.raw()).collect();
        tracer.within(layer::VECTORIZE, root, id, |_| {
            vectorize_assignment(&plan, opt.layout(), &raw, feats)
        });
        let width = opt.layout().width;
        tracer.within(layer::ORACLE_DIST, root, id, |_| {
            inner.cost_batch_dist(RowsView::new(feats, width), dist)
        });
        let resp = OptimizeResponse {
            workload: req.workload.name(),
            signature: req.signature(),
            assignments: exec
                .assignments
                .iter()
                .map(|&p| opt.registry().platform(p).name.clone())
                .collect(),
            distinct_platforms: exec.distinct_platforms(),
            cost: exec.cost,
            cost_std: dist.std[0],
            cost_q10: dist.q10[0],
            cost_q90: dist.q90[0],
            risk_policy: risk.label(),
            stats,
        };
        tracer.close(root, 0);
        Ok((resp, root, stats))
    }

    fn decomposed_train(&mut self, req: &TrainRequest, id: u32) -> Result<(u32, u32), String> {
        let TrainSource::Tdgen { seed } = req.source else {
            return Err("only TDGEN training is replayed".to_string());
        };
        let cfg = TdgenConfig::new().with_seed(seed);
        let set_id = self.tracer.open(layer::TRAINING_SET, NO_PARENT, id);
        let set = tdgen_training_set(self.opt.registry(), self.opt.layout(), &cfg, req.rows);
        self.tracer.close(set_id, set.len());
        let fcfg = ForestConfig {
            n_trees: req.n_trees,
            seed: req.forest_seed,
            ..ForestConfig::default()
        };
        let fit_id = self.tracer.open(layer::FOREST_FIT, NO_PARENT, id);
        let forest = RandomForest::fit_on(&fcfg, &set);
        self.tracer.close(fit_id, set.len());
        let facade = self.opt.forest().map(forest_to_json);
        if facade.as_deref() != Some(forest_to_json(&forest).as_str()) {
            return Err("decomposed training differs from the facade's forest".to_string());
        }
        Ok((set_id, fit_id))
    }

    fn decomposed_execute(
        &mut self,
        workload: &robopt::WorkloadSpec,
        workers: usize,
        resp: &robopt::ExecuteResponse,
        id: u32,
    ) -> Result<(u32, f64, u64), String> {
        let plan = workload.build().map_err(|e| e.message().to_string())?;
        let registry = self.opt.registry();
        let ids: Vec<PlatformId> = resp
            .assignments
            .iter()
            .map(|n| {
                registry
                    .by_name(n)
                    .ok_or_else(|| format!("unknown platform {n}"))
            })
            .collect::<Result<_, _>>()?;
        let engine = self.opt.engine(workers);
        let span = self.tracer.open(layer::ENGINE, NO_PARENT, id);
        let report = engine.execute(&plan, &ids);
        self.tracer.close(span, 0);
        if report.output_digest != resp.output_digest || report.output_rows != resp.output_rows {
            return Err("decomposed engine run differs from the facade's".to_string());
        }
        let rows: u64 = report.per_op.iter().map(|o| o.output_rows).sum();
        Ok((span, resp.compute_seconds, rows))
    }

    fn line(&mut self, id: u32, line: &str, wire: Option<&str>) -> LineTrace {
        let hits_before = self.opt.cache_stats().hits;
        let requests_before = self.opt.service_stats().requests;
        let t0 = Instant::now();
        let parsed = parse_request(line);
        let t1 = Instant::now();
        let resp = match &parsed {
            Ok(req) => dispatch(&mut self.opt, req),
            Err(e) => Response::Error(e.clone()),
        };
        let t2 = Instant::now();
        let rendered = render_response(&resp);
        let t3 = Instant::now();
        let tracer = &self.tracer;
        let serve = tracer.record(Span {
            name: layer::SERVE,
            start: tracer.at(t0),
            end: tracer.at(t3),
            parent: NO_PARENT,
            req: id,
            rows: 0,
        });
        for (name, a, b) in [
            (layer::PARSE, t0, t1),
            (layer::FACADE, t1, t2),
            (layer::RENDER, t2, t3),
        ] {
            tracer.record(Span {
                name,
                start: tracer.at(a),
                end: tracer.at(b),
                parent: serve,
                req: id,
                rows: 0,
            });
        }
        let ns = |a: Instant, b: Instant| (b - a).as_nanos() as u64;
        let mut out = LineTrace {
            service_ns: ns(t0, t3),
            parse_ns: ns(t0, t1),
            facade_ns: ns(t1, t2),
            render_ns: ns(t2, t3),
            ..LineTrace::default()
        };
        if self.opt.service_stats().requests > requests_before {
            out.hit = Some(self.opt.cache_stats().hits > hits_before);
        }
        let mut errors: Vec<String> = Vec::new();
        match (&parsed, &resp) {
            (Ok(Request::Optimize(req)), Response::Optimize(_)) => {
                out.is_optimize = true;
                if wire.is_some_and(|w| w != rendered) {
                    errors.push("replayed response differs from the daemon's".to_string());
                }
                if out.hit == Some(false) {
                    match self.decomposed_miss(req, id) {
                        Ok((mine, root, stats)) => {
                            if render_response(&Response::Optimize(mine)) != rendered {
                                errors.push("decomposed miss differs from the facade".to_string());
                            }
                            out.miss_span = Some(root);
                            out.enum_stats = Some(stats);
                        }
                        Err(e) => errors.push(e),
                    }
                }
            }
            (Ok(Request::Execute(req)), Response::Execute(resp)) => {
                if wire.and_then(execute_outcome) != execute_outcome(&rendered) {
                    errors.push("replayed execution differs from the daemon's".to_string());
                }
                let workers = match req.backend {
                    BackendChoice::Engine { workers } => workers,
                    BackendChoice::Simulator { .. } => 1,
                };
                match self.decomposed_execute(&req.workload, workers, resp, id) {
                    Ok(e) => out.engine = Some(e),
                    Err(e) => errors.push(e),
                }
            }
            (Ok(Request::Train(req)), Response::Train(_)) => {
                if wire.is_some_and(|w| w != rendered) {
                    errors.push("replayed training differs from the daemon's".to_string());
                }
                match self.decomposed_train(req, id) {
                    Ok(t) => out.train = Some(t),
                    Err(e) => errors.push(e),
                }
            }
            _ => errors.push(format!("replay failed: {rendered}")),
        }
        self.mismatches
            .extend(errors.into_iter().map(|e| format!("line {id}: {e}")));
        out
    }
}

/// Replay `lines` (request line, the daemon's response) in order on a
/// fresh replica daemon state.
pub fn replay(lines: &[(&str, Option<&str>)]) -> Replay {
    let mut r = Replayer {
        tracer: Tracer::new(),
        opt: Optimizer::named(),
        parallel: ParallelEnumerator::new(1),
        feats: Vec::new(),
        dist: CostDistribution::new(),
        mismatches: Vec::new(),
    };
    let traces = lines
        .iter()
        .enumerate()
        .map(|(i, (line, wire))| r.line(i as u32, line, *wire))
        .collect();
    Replay {
        lines: traces,
        spans: r.tracer.into_spans(),
        mismatches: r.mismatches,
    }
}

/// Write the spans as tab-separated text: one line per span, oracle calls
/// folded into one line per parent span (count, rows and total time), so a
/// run's file stays small.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        out,
        "id\tname\tstart_ns\tend_ns\tbusy_ns\tparent\treq\trows\tcalls"
    )?;
    let mut folded: Vec<(u64, u64, u64)> = vec![(0, 0, 0); spans.len()];
    for s in spans {
        if s.name == layer::ORACLE && s.parent != NO_PARENT {
            let f = &mut folded[s.parent as usize];
            f.0 += 1;
            f.1 += u64::from(s.rows);
            f.2 += s.ns();
        }
    }
    for (i, s) in spans.iter().enumerate() {
        if s.name == layer::ORACLE {
            continue;
        }
        let parent = if s.parent == NO_PARENT {
            "-".to_string()
        } else {
            s.parent.to_string()
        };
        writeln!(
            out,
            "{i}\t{}\t{}\t{}\t{}\t{parent}\t{}\t{}\t1",
            s.name,
            s.start,
            s.end,
            s.ns(),
            s.req,
            s.rows
        )?;
        let (calls, rows, ns) = folded[i];
        if calls > 0 {
            writeln!(
                out,
                "-\t{}\t-\t-\t{ns}\t{i}\t{}\t{rows}\t{calls}",
                layer::ORACLE,
                s.req
            )?;
        }
    }
    out.flush()
}

//! Response checks. The client keeps its own replica of the daemon's
//! optimizer (same registry, same oracle or the same trained forest) and
//! verifies every response line against it.

use std::collections::HashMap;

use robopt::json::{self, JsonValue};
use robopt::{OptimizeRequest, Optimizer, TrainRequest};
use robopt_baselines::exhaustive_best;
use robopt_core::vectorize::vectorize_assignment;
use robopt_engine::{execute_reference, DEFAULT_MAX_SOURCE_ROWS};
use robopt_plan::{LogicalPlan, WorkloadSpec};
use robopt_platforms::PlatformId;

use crate::gen::{Req, Verb};

/// Plans with at most this many ops are also checked against exhaustive
/// search when the analytic oracle is active.
const EXHAUSTIVE_MAX_OPS: usize = 8;

/// Seed and noise of the simulator that scores returned plans
/// (`plan_sim_s`).
const SIM_SEED: u64 = 42;

#[derive(Debug)]
pub struct Checker {
    replica: Optimizer,
    learned: bool,
    feats: Vec<f64>,
    /// First response line seen per plan signature.
    by_signature: HashMap<u64, String>,
    /// Simulated seconds (noise 0, fixed seed) of each distinct plan
    /// returned and checked, by plan signature.
    pub plan_seconds: HashMap<u64, f64>,
}

/// Fields of an optimize response line that the checks use.
struct Optimized {
    signature: u64,
    raw: Vec<u8>,
    cost_bits: u64,
}

fn field<'a>(doc: &'a JsonValue, key: &str) -> Result<&'a JsonValue, String> {
    doc.get(key).ok_or_else(|| format!("missing field {key:?}"))
}

fn u64_field(doc: &JsonValue, key: &str) -> Result<u64, String> {
    field(doc, key)?
        .as_u64()
        .ok_or_else(|| format!("field {key:?} is not an integer"))
}

fn parse_ok(line: &str, kind: &str) -> Result<JsonValue, String> {
    let doc = json::parse(line).map_err(|e| format!("unparsable response: {e}"))?;
    if field(&doc, "ok")?.as_bool() != Some(true) {
        return Err(format!("not ok: {line}"));
    }
    if field(&doc, "kind")?.as_str() != Some(kind) {
        return Err(format!("expected kind {kind}: {line}"));
    }
    Ok(doc)
}

impl Checker {
    pub fn new() -> Checker {
        Checker {
            replica: Optimizer::named(),
            learned: false,
            feats: Vec::new(),
            by_signature: HashMap::new(),
            plan_seconds: HashMap::new(),
        }
    }

    /// Train the replica exactly as the daemon was trained and check that
    /// the daemon reports the same training error, bit for bit.
    pub fn train(&mut self, req: &TrainRequest, line: &str) -> Result<(), String> {
        let ours = self
            .replica
            .train(req)
            .map_err(|e| format!("replica training failed: {e}"))?;
        let doc = parse_ok(line, "train")?;
        let mse = field(&doc, "train_mse")?
            .as_f64()
            .ok_or("train_mse is not a number")?;
        if mse.to_bits() != ours.train_mse.to_bits() {
            return Err(format!(
                "daemon train_mse {mse} differs from the replica's {}",
                ours.train_mse
            ));
        }
        self.learned = true;
        Ok(())
    }

    /// Parse and check the assignment of an optimize-shaped object: every
    /// platform is known, the assignment is feasible under the registry,
    /// and its re-cost through the replica's oracle equals `cost_bits`.
    fn check_plan(&mut self, doc: &JsonValue, plan: &LogicalPlan) -> Result<Optimized, String> {
        let registry = self.replica.registry();
        let names = field(doc, "assignments")?
            .as_arr()
            .ok_or("assignments is not an array")?;
        if names.len() != plan.n_ops() {
            return Err(format!(
                "{} assignments for {} ops",
                names.len(),
                plan.n_ops()
            ));
        }
        let mut raw = Vec::with_capacity(names.len());
        for (op, name) in names.iter().enumerate() {
            let name = name.as_str().ok_or("assignment is not a string")?;
            let id = registry
                .by_name(name)
                .ok_or_else(|| format!("unknown platform {name:?}"))?;
            if !registry.is_available(plan.op(op as u32).kind, id) {
                return Err(format!("op {op} is not available on {name}"));
            }
            raw.push(id.raw());
        }
        for &(u, v) in plan.edges() {
            let (pu, pv) = (raw[u as usize], raw[v as usize]);
            let convertible = registry.convertible(
                PlatformId::from_index(pu as usize),
                PlatformId::from_index(pv as usize),
            );
            if pu != pv && !convertible {
                return Err(format!("edge {u}->{v} has no conversion path"));
            }
        }
        let cost_bits = u64_field(doc, "cost_bits")?;
        vectorize_assignment(plan, self.replica.layout(), &raw, &mut self.feats);
        let recost = self.replica.enum_options().oracle().cost_row(&self.feats);
        if recost.to_bits() != cost_bits {
            return Err(format!(
                "re-cost {recost} differs from the reported cost {}",
                f64::from_bits(cost_bits)
            ));
        }
        Ok(Optimized {
            signature: u64_field(doc, "signature").unwrap_or(0),
            raw,
            cost_bits,
        })
    }

    /// Check an optimize response; a plan seen for the first time is also
    /// simulated.
    pub fn optimize(&mut self, spec: &WorkloadSpec, line: &str) -> Result<(), String> {
        let sig = OptimizeRequest::new(*spec).signature();
        if let Some(first) = self.by_signature.get(&sig) {
            if first != line {
                return Err(format!("repeat of signature {sig} is not byte-identical"));
            }
            return Ok(());
        }
        let doc = parse_ok(line, "optimize")?;
        if field(&doc, "workload")?.as_str() != Some(spec.name().as_str()) {
            return Err(format!("response names another workload: {line}"));
        }
        let plan = spec.build().map_err(|e| e.message().to_string())?;
        let got = self.check_plan(&doc, &plan)?;
        if got.signature != sig {
            return Err(format!("signature {} differs from {sig}", got.signature));
        }
        if !self.learned && plan.n_ops() <= EXHAUSTIVE_MAX_OPS {
            let best = exhaustive_best(&plan, self.replica.layout(), self.replica.enum_options());
            if best.cost.to_bits() != got.cost_bits {
                return Err(format!(
                    "cost {} differs from the exhaustive optimum {}",
                    f64::from_bits(got.cost_bits),
                    best.cost
                ));
            }
        }
        let seconds = self
            .replica
            .simulator(SIM_SEED, 0.0)
            .simulate_raw(&plan, &got.raw);
        self.plan_seconds.insert(sig, seconds);
        self.by_signature.insert(sig, line.to_string());
        Ok(())
    }

    /// Check an engine execute response: it ran the replica's optimal plan,
    /// and its output rows and digest equal the single-threaded reference
    /// executor's.
    pub fn execute(&mut self, spec: &WorkloadSpec, line: &str) -> Result<(), String> {
        let doc = parse_ok(line, "execute")?;
        let plan = spec.build().map_err(|e| e.message().to_string())?;
        let expected = self
            .replica
            .optimize(&OptimizeRequest::new(*spec))
            .map_err(|e| format!("replica optimize failed: {e}"))?;
        let names: Vec<&str> = field(&doc, "assignments")?
            .as_arr()
            .ok_or("assignments is not an array")?
            .iter()
            .filter_map(JsonValue::as_str)
            .collect();
        if names != expected.assignments {
            return Err(format!("executed plan {names:?} is not the optimum"));
        }
        if field(&doc, "feasible")?.as_bool() != Some(true) {
            return Err("execution reported infeasible".to_string());
        }
        let seed = self.replica.engine(1).seed();
        let (terminals, digest) = execute_reference(&plan, seed, DEFAULT_MAX_SOURCE_ROWS);
        let rows: u64 = terminals.iter().map(|(_, r)| r.len() as u64).sum();
        if u64_field(&doc, "output_digest")? != digest {
            return Err("output digest differs from the reference executor".to_string());
        }
        if u64_field(&doc, "output_rows")? != rows {
            return Err("output rows differ from the reference executor".to_string());
        }
        Ok(())
    }

    /// Check one request's response.
    pub fn check(&mut self, req: &Req, line: Option<&str>) -> Result<(), String> {
        let line = line.ok_or("no response")?;
        match &req.verb {
            Verb::Optimize(spec) => self.optimize(spec, line),
            Verb::Execute(spec) => self.execute(spec, line),
            Verb::Train(t) => self.train(t, line),
        }
    }
}

/// The daemon's `stats` counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DaemonStats {
    pub requests: u64,
    pub hits: u64,
    pub misses: u64,
    pub insertions: u64,
    pub evictions: u64,
    pub len: u64,
}

impl DaemonStats {
    pub fn parse(line: &str) -> Result<DaemonStats, String> {
        let doc = parse_ok(line, "stats")?;
        let cache = field(&doc, "cache")?;
        Ok(DaemonStats {
            requests: u64_field(&doc, "requests")?,
            hits: u64_field(cache, "hits")?,
            misses: u64_field(cache, "misses")?,
            insertions: u64_field(cache, "insertions")?,
            evictions: u64_field(cache, "evictions")?,
            len: u64_field(cache, "len")?,
        })
    }
}

/// What the client knows about the daemon's cache from what it sent.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    /// Optimize lookups the daemon performed (one per optimize or
    /// empty-assignment execute request).
    pub requests: u64,
    /// Lookups that must have missed: first sight of a signature.
    pub distinct: u64,
    /// Lookups that must have hit: a repeat with no other request in
    /// between, or a repeat while the cache has never been full.
    pub sure_hits: u64,
    /// Whether any eviction could have happened.
    pub may_evict: bool,
}

impl Tally {
    /// Compare the daemon's counters with the client's tally. Exact where
    /// the client can know the outcome; bounded where eviction order
    /// decides it.
    pub fn check(&self, s: &DaemonStats) -> Result<(), String> {
        let mut errors = Vec::new();
        if s.requests != self.requests {
            errors.push(format!("requests {} != sent {}", s.requests, self.requests));
        }
        if s.hits + s.misses != self.requests {
            errors.push(format!(
                "hits {} + misses {} != lookups {}",
                s.hits, s.misses, self.requests
            ));
        }
        if s.misses < self.distinct || s.hits < self.sure_hits {
            errors.push(format!(
                "misses {} < distinct {} or hits {} < certain hits {}",
                s.misses, self.distinct, s.hits, self.sure_hits
            ));
        }
        if !self.may_evict && (s.misses != self.distinct || s.evictions != 0) {
            errors.push(format!(
                "without eviction expected {} misses and 0 evictions, got {} and {}",
                self.distinct, s.misses, s.evictions
            ));
        }
        if s.insertions != s.misses || s.insertions - s.evictions != s.len {
            errors.push(format!(
                "insertions {} must equal misses {} and exceed evictions {} by len {}",
                s.insertions, s.misses, s.evictions, s.len
            ));
        }
        if errors.is_empty() {
            Ok(())
        } else {
            Err(errors.join("; "))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(requests: u64, hits: u64, evictions: u64) -> DaemonStats {
        let misses = requests - hits;
        DaemonStats {
            requests,
            hits,
            misses,
            insertions: misses,
            evictions,
            len: misses - evictions,
        }
    }

    #[test]
    fn tally_is_exact_while_the_cache_never_filled() {
        let t = Tally {
            requests: 100,
            distinct: 32,
            sure_hits: 68,
            may_evict: false,
        };
        assert!(t.check(&stats(100, 68, 0)).is_ok());
        assert!(t.check(&stats(101, 69, 0)).is_err(), "request count");
        assert!(t.check(&stats(100, 67, 0)).is_err(), "a certain hit missed");
        let mut wrong = stats(100, 68, 0);
        wrong.insertions += 1;
        assert!(t.check(&wrong).is_err(), "insertions must equal misses");
    }

    #[test]
    fn tally_bounds_outcomes_once_eviction_is_possible() {
        let t = Tally {
            requests: 348,
            distinct: 300,
            sure_hits: 24,
            may_evict: true,
        };
        // 48 repeats, of which 24 are certain hits: 24..=48 hits are fine.
        assert!(t.check(&stats(348, 24, 44)).is_ok());
        assert!(t.check(&stats(348, 48, 44)).is_ok());
        assert!(t.check(&stats(348, 23, 44)).is_err());
        assert!(
            t.check(&stats(348, 49, 44)).is_err(),
            "misses below distinct"
        );
    }
}

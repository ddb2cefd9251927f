//! Line-delimited wire protocol for `robopt serve` (DESIGN §10).
//!
//! One JSON object per line in, one per line out. Requests name a verb via
//! `"op"`; responses always carry `"ok"` plus `"kind"` echoing the verb.
//! Rendering is hand-rolled and deterministic: fields appear in struct
//! declaration order, `f64`s use Rust's shortest-round-trip formatting
//! (which `crate::json` parses back to the same bits), and `cost` is
//! additionally mirrored as a `cost_bits` integer so bit-identity survives
//! any JSON intermediary.
//!
//! [`render_response`] binds every response field by an exhaustive
//! pattern, so a field added to the API cannot silently vanish from the
//! wire: it fails to compile until it is rendered.

use crate::api::{
    BackendChoice, CompareRequest, CompareResponse, ExecuteRequest, ExecuteResponse,
    ExecutionPolicy, OptimizeRequest, OptimizeResponse, ServiceError, SimulateRequest,
    SimulateResponse, SinglePlatformPlan, StatsResponse, TrainRequest, TrainResponse, TrainSource,
    WorkloadSpec,
};
use crate::cache::CacheStats;
use crate::json::{self, escape_into, JsonValue};
use robopt_core::{EnumStats, RiskPolicy};

/// A parsed service request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// `{"op":"optimize", "workload":{...}, "policy":{...}}`
    Optimize(OptimizeRequest),
    /// `{"op":"train", ...}`
    Train(TrainRequest),
    /// `{"op":"simulate", ...}`
    Simulate(SimulateRequest),
    /// `{"op":"execute", "workload":{...}, "backend":"engine", ...}`
    Execute(ExecuteRequest),
    /// `{"op":"compare", ...}`
    Compare(CompareRequest),
    /// `{"op":"stats"}`
    Stats,
    /// `{"op":"quit"}` — ends a serve session.
    Quit,
}

/// A response ready for rendering.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Optimization result.
    Optimize(OptimizeResponse),
    /// Training result.
    Train(TrainResponse),
    /// Simulation result.
    Simulate(SimulateResponse),
    /// Execution result.
    Execute(ExecuteResponse),
    /// Comparison result.
    Compare(CompareResponse),
    /// Telemetry snapshot.
    Stats(StatsResponse),
    /// Any failure.
    Error(ServiceError),
}

/// Parse one request line.
pub fn parse_request(line: &str) -> Result<Request, ServiceError> {
    let doc = json::parse(line).map_err(|e| ServiceError::Parse(e.to_string()))?;
    let op = doc
        .get("op")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| ServiceError::Parse("missing \"op\" field".to_string()))?;
    match op {
        "optimize" => Ok(Request::Optimize(OptimizeRequest {
            workload: parse_workload(&doc)?,
            policy: parse_policy(&doc),
            risk: match doc.get("risk").and_then(JsonValue::as_str) {
                Some(text) => Some(RiskPolicy::parse(text).map_err(ServiceError::Parse)?),
                None => None,
            },
        })),
        "train" => {
            let defaults = TrainRequest::new(field_usize(&doc, "rows").unwrap_or(512));
            let source = match doc.get("source").and_then(JsonValue::as_str) {
                None | Some("simulator") => TrainSource::Simulator {
                    seed: field_u64(&doc, "seed").unwrap_or(41),
                    noise: field_f64(&doc, "noise").unwrap_or(0.05),
                },
                Some("tdgen") => TrainSource::Tdgen {
                    seed: field_u64(&doc, "seed").unwrap_or(41),
                },
                Some(other) => {
                    return Err(ServiceError::Parse(format!(
                        "unknown training source {other:?}"
                    )))
                }
            };
            Ok(Request::Train(TrainRequest {
                source,
                rows: defaults.rows,
                n_trees: field_usize(&doc, "n_trees").unwrap_or(defaults.n_trees),
                forest_seed: field_u64(&doc, "forest_seed").unwrap_or(defaults.forest_seed),
            }))
        }
        "simulate" => Ok(Request::Simulate(SimulateRequest {
            workload: parse_workload(&doc)?,
            assignments: parse_assignments(&doc),
            seed: field_u64(&doc, "seed").unwrap_or(42),
            noise: field_f64(&doc, "noise").unwrap_or(0.0),
        })),
        "execute" => Ok(Request::Execute(ExecuteRequest {
            workload: parse_workload(&doc)?,
            assignments: parse_assignments(&doc),
            backend: match doc.get("backend").and_then(JsonValue::as_str) {
                None | Some("engine") => BackendChoice::Engine {
                    workers: field_usize(&doc, "workers").unwrap_or(2),
                },
                Some("simulator") => BackendChoice::Simulator {
                    seed: field_u64(&doc, "seed").unwrap_or(42),
                    noise: field_f64(&doc, "noise").unwrap_or(0.0),
                },
                Some(other) => {
                    return Err(ServiceError::Parse(format!("unknown backend {other:?}")))
                }
            },
        })),
        "compare" => Ok(Request::Compare(CompareRequest {
            workload: parse_workload(&doc)?,
            policy: parse_policy(&doc),
            sim_seed: field_u64(&doc, "sim_seed").unwrap_or(42),
        })),
        "stats" => Ok(Request::Stats),
        "quit" => Ok(Request::Quit),
        other => Err(ServiceError::Parse(format!("unknown op {other:?}"))),
    }
}

/// Render one response as a single JSON line (no trailing newline).
///
/// Every response struct is bound by an exhaustive pattern (no `..`), so
/// a field added to the API does not compile until it is rendered here.
pub fn render_response(resp: &Response) -> String {
    match resp {
        Response::Optimize(r) => {
            let mut s = String::from("{\"ok\":true,\"kind\":\"optimize\",");
            push_optimize_fields(&mut s, r);
            s.push('}');
            s
        }
        Response::Train(TrainResponse {
            rows,
            n_trees,
            width,
            train_mse,
        }) => format!(
            "{{\"ok\":true,\"kind\":\"train\",\"rows\":{rows},\"n_trees\":{n_trees},\
             \"width\":{width},\"train_mse\":{}}}",
            num(*train_mse)
        ),
        Response::Simulate(SimulateResponse {
            workload,
            assignments,
            seconds,
            feasible,
        }) => {
            let mut s = String::from("{\"ok\":true,\"kind\":\"simulate\",\"workload\":");
            push_str_value(&mut s, workload);
            s.push_str(",\"assignments\":");
            push_str_array(&mut s, assignments);
            s.push_str(&format!(
                ",\"seconds\":{},\"feasible\":{feasible}}}",
                num(*seconds)
            ));
            s
        }
        Response::Execute(ExecuteResponse {
            workload,
            backend,
            assignments,
            seconds,
            compute_seconds,
            overhead_seconds,
            feasible,
            measured,
            output_rows,
            output_digest,
            op_seconds,
            op_output_rows,
        }) => {
            let mut s = String::from("{\"ok\":true,\"kind\":\"execute\",\"workload\":");
            push_str_value(&mut s, workload);
            s.push_str(",\"backend\":");
            push_str_value(&mut s, backend);
            s.push_str(",\"assignments\":");
            push_str_array(&mut s, assignments);
            s.push_str(&format!(
                ",\"seconds\":{},\"compute_seconds\":{},\"overhead_seconds\":{},\
                 \"feasible\":{feasible},\"measured\":{measured},\"output_rows\":{output_rows},\
                 \"output_digest\":{output_digest}",
                num(*seconds),
                num(*compute_seconds),
                num(*overhead_seconds),
            ));
            s.push_str(",\"op_seconds\":");
            push_num_array(&mut s, op_seconds);
            s.push_str(",\"op_output_rows\":");
            push_u64_array(&mut s, op_output_rows);
            s.push('}');
            s
        }
        Response::Compare(CompareResponse {
            workload,
            mixed,
            mix,
            mixed_sim_seconds,
            singles,
            best_single_cost,
            mixed_wins,
        }) => {
            let mut s = String::from("{\"ok\":true,\"kind\":\"compare\",\"workload\":");
            push_str_value(&mut s, workload);
            s.push_str(",\"mixed\":{");
            push_optimize_fields(&mut s, mixed);
            s.push_str("},\"mix\":");
            push_str_value(&mut s, mix);
            s.push_str(&format!(
                ",\"mixed_sim_seconds\":{}",
                num(*mixed_sim_seconds)
            ));
            s.push_str(",\"singles\":[");
            for (i, single) in singles.iter().enumerate() {
                let SinglePlatformPlan {
                    platform,
                    cost,
                    sim_seconds,
                } = single;
                if i > 0 {
                    s.push(',');
                }
                s.push_str("{\"platform\":");
                push_str_value(&mut s, platform);
                s.push_str(&format!(
                    ",\"cost\":{},\"sim_seconds\":{}}}",
                    opt_num(*cost),
                    opt_num(*sim_seconds)
                ));
            }
            s.push_str(&format!(
                "],\"best_single_cost\":{},\"mixed_wins\":{mixed_wins}}}",
                opt_num(*best_single_cost)
            ));
            s
        }
        Response::Stats(StatsResponse {
            requests,
            cache,
            total_micros,
        }) => {
            let CacheStats {
                hits,
                misses,
                evictions,
                insertions,
                len,
                capacity,
            } = cache;
            format!(
                "{{\"ok\":true,\"kind\":\"stats\",\"requests\":{requests},\"cache\":{{\
                 \"hits\":{hits},\"misses\":{misses},\"evictions\":{evictions},\
                 \"insertions\":{insertions},\"len\":{len},\"capacity\":{capacity},\
                 \"hit_rate\":{}}},\"total_micros\":{total_micros}}}",
                num(cache.hit_rate())
            )
        }
        Response::Error(e) => {
            let mut s = String::from("{\"ok\":false,\"error\":");
            push_str_value(&mut s, &e.to_string());
            s.push('}');
            s
        }
    }
}

/// The shared body of an optimize response (also nested in `compare`).
/// `cost` is mirrored as `cost_bits` so consumers that must preserve
/// bit-identity never depend on decimal formatting.
fn push_optimize_fields(s: &mut String, r: &OptimizeResponse) {
    let OptimizeResponse {
        workload,
        signature,
        assignments,
        distinct_platforms,
        cost,
        cost_std,
        cost_q10,
        cost_q90,
        risk_policy,
        stats,
    } = r;
    let EnumStats {
        generated,
        kept,
        merges,
        peak_rows,
    } = stats;
    s.push_str("\"workload\":");
    push_str_value(s, workload);
    s.push_str(&format!(",\"signature\":{signature}"));
    s.push_str(",\"assignments\":");
    push_str_array(s, assignments);
    s.push_str(&format!(
        ",\"distinct_platforms\":{distinct_platforms},\"cost\":{},\"cost_bits\":{},\
         \"cost_std\":{},\"cost_q10\":{},\"cost_q90\":{}",
        num(*cost),
        cost.to_bits(),
        num(*cost_std),
        num(*cost_q10),
        num(*cost_q90)
    ));
    s.push_str(",\"risk_policy\":");
    push_str_value(s, risk_policy);
    s.push_str(&format!(
        ",\"stats\":{{\"generated\":{generated},\"kept\":{kept},\"merges\":{merges},\
         \"peak_rows\":{peak_rows}}}"
    ));
}

/// Shortest-round-trip JSON number for a finite `f64`, `null` otherwise.
/// Rust's `{:?}` float formatting is guaranteed to re-parse to the same
/// bits, so finite values survive the wire exactly.
fn num(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v:?}");
        // `{:?}` may omit the exponent form JSON requires nothing of, but
        // always yields a valid JSON number for finite values.
        s
    } else {
        "null".to_string()
    }
}

fn opt_num(v: Option<f64>) -> String {
    match v {
        Some(x) => num(x),
        None => "null".to_string(),
    }
}

fn push_str_value(s: &mut String, text: &str) {
    s.push('"');
    escape_into(s, text);
    s.push('"');
}

fn push_str_array(s: &mut String, items: &[String]) {
    s.push('[');
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        push_str_value(s, item);
    }
    s.push(']');
}

fn push_num_array(s: &mut String, items: &[f64]) {
    s.push('[');
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&num(*item));
    }
    s.push(']');
}

fn push_u64_array(s: &mut String, items: &[u64]) {
    s.push('[');
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&item.to_string());
    }
    s.push(']');
}

fn parse_workload(doc: &JsonValue) -> Result<WorkloadSpec, ServiceError> {
    let w = doc
        .get("workload")
        .ok_or_else(|| ServiceError::Parse("missing \"workload\" object".to_string()))?;
    let kind = w
        .get("kind")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| ServiceError::Parse("workload missing \"kind\"".to_string()))?;
    match kind {
        "wordcount" => Ok(WorkloadSpec::WordCount {
            scale: field_f64(w, "scale").unwrap_or(1e7),
        }),
        "tpch_q3" => Ok(WorkloadSpec::TpchQ3 {
            scale: field_f64(w, "scale").unwrap_or(1e6),
        }),
        "pipeline" => Ok(WorkloadSpec::Pipeline {
            ops: field_usize(w, "ops").unwrap_or(16),
            scale: field_f64(w, "scale").unwrap_or(1e5),
        }),
        "random_dag" => Ok(WorkloadSpec::RandomDag {
            seed: field_u64(w, "seed").unwrap_or(1),
            ops: field_usize(w, "ops").unwrap_or(16),
            density: field_f64(w, "density").unwrap_or(0.3),
        }),
        "pagerank" => Ok(WorkloadSpec::PageRank {
            scale: field_f64(w, "scale").unwrap_or(1e5),
            iterations: field_u32(w, "iterations").unwrap_or(10),
        }),
        "kmeans" => Ok(WorkloadSpec::KMeans {
            scale: field_f64(w, "scale").unwrap_or(1e5),
            iterations: field_u32(w, "iterations").unwrap_or(10),
        }),
        other => Err(ServiceError::Parse(format!(
            "unknown workload kind {other:?}"
        ))),
    }
}

fn parse_policy(doc: &JsonValue) -> ExecutionPolicy {
    let mut policy = ExecutionPolicy::default();
    if let Some(p) = doc.get("policy") {
        if let Some(workers) = field_usize(p, "workers") {
            policy = policy.with_workers(workers);
        }
        if let Some(parts) = field_usize(p, "split_parts") {
            policy = policy.with_split_parts(parts);
        }
        if let Some(prune) = p.get("prune").and_then(JsonValue::as_bool) {
            policy = policy.with_prune(prune);
        }
        if let Some(clamp) = p.get("hardware_clamp").and_then(JsonValue::as_bool) {
            policy = policy.with_hardware_clamp(clamp);
        }
    }
    policy
}

fn field_f64(v: &JsonValue, key: &str) -> Option<f64> {
    v.get(key).and_then(JsonValue::as_f64)
}

fn field_u64(v: &JsonValue, key: &str) -> Option<u64> {
    v.get(key).and_then(JsonValue::as_u64)
}

fn field_usize(v: &JsonValue, key: &str) -> Option<usize> {
    v.get(key).and_then(JsonValue::as_usize)
}

fn field_u32(v: &JsonValue, key: &str) -> Option<u32> {
    field_u64(v, key).and_then(|n| u32::try_from(n).ok())
}

/// The optional `"assignments"` string array shared by simulate/execute.
fn parse_assignments(doc: &JsonValue) -> Vec<String> {
    doc.get("assignments")
        .and_then(JsonValue::as_arr)
        .map(|items| {
            items
                .iter()
                .filter_map(|v| v.as_str().map(str::to_string))
                .collect()
        })
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn optimize_request_round_trips_through_the_wire() {
        let req = parse_request(
            r#"{"op":"optimize","workload":{"kind":"wordcount","scale":1e7},"policy":{"workers":4,"split_parts":8,"prune":true}}"#,
        )
        .expect("parse");
        assert_eq!(
            req,
            Request::Optimize(OptimizeRequest {
                workload: WorkloadSpec::WordCount { scale: 1e7 },
                policy: ExecutionPolicy::default()
                    .with_workers(4)
                    .with_split_parts(8),
                risk: None,
            })
        );
    }

    #[test]
    fn risk_policies_parse_from_the_wire_and_garbage_is_rejected() {
        let req = parse_request(
            r#"{"op":"optimize","workload":{"kind":"wordcount","scale":1e6},"risk":"sigma1.5"}"#,
        )
        .expect("parse risk");
        assert_eq!(
            req,
            Request::Optimize(
                OptimizeRequest {
                    workload: WorkloadSpec::WordCount { scale: 1e6 },
                    policy: ExecutionPolicy::default(),
                    risk: None,
                }
                .with_risk(RiskPolicy::MeanPlusKSigma(1.5))
            )
        );
        for bad in [
            r#"{"op":"optimize","workload":{"kind":"wordcount"},"risk":"wild"}"#,
            r#"{"op":"optimize","workload":{"kind":"wordcount"},"risk":"q1.5"}"#,
            r#"{"op":"optimize","workload":{"kind":"wordcount"},"risk":"sigma-3"}"#,
        ] {
            assert!(
                matches!(parse_request(bad), Err(ServiceError::Parse(_))),
                "{bad:?} should be a parse error"
            );
        }
    }

    #[test]
    fn malformed_requests_yield_parse_errors() {
        for bad in [
            "",
            "not json",
            "{}",
            r#"{"op":"warp"}"#,
            r#"{"op":"optimize"}"#,
            r#"{"op":"optimize","workload":{"kind":"mystery"}}"#,
            r#"{"op":"train","source":"oracle"}"#,
        ] {
            assert!(
                matches!(parse_request(bad), Err(ServiceError::Parse(_))),
                "{bad:?} should be a parse error"
            );
        }
    }

    #[test]
    fn rendered_responses_are_valid_json_and_carry_cost_bits() {
        let resp = Response::Optimize(OptimizeResponse {
            workload: "wordcount(1e7)".to_string(),
            signature: 123,
            assignments: vec!["java".to_string(), "spark".to_string()],
            distinct_platforms: 2,
            cost: 0.1 + 0.2,
            cost_std: 0.25,
            cost_q10: 0.2,
            cost_q90: 0.4,
            risk_policy: "sigma1.5".to_string(),
            stats: Default::default(),
        });
        let line = render_response(&resp);
        let doc = crate::json::parse(&line).expect("renderer must emit valid JSON");
        assert_eq!(doc.get("ok").and_then(JsonValue::as_bool), Some(true));
        let bits = doc
            .get("cost_bits")
            .and_then(JsonValue::as_u64)
            .expect("cost_bits");
        assert_eq!(bits, (0.1f64 + 0.2).to_bits(), "bit-exact cost transport");
        let cost = doc.get("cost").and_then(JsonValue::as_f64).expect("cost");
        assert_eq!(cost.to_bits(), bits, "shortest-round-trip decimal agrees");
        // The uncertainty fields ride the same line.
        assert_eq!(
            doc.get("cost_std").and_then(JsonValue::as_f64),
            Some(0.25),
            "cost_std on the wire"
        );
        assert_eq!(doc.get("cost_q10").and_then(JsonValue::as_f64), Some(0.2));
        assert_eq!(doc.get("cost_q90").and_then(JsonValue::as_f64), Some(0.4));
        assert_eq!(
            doc.get("risk_policy").and_then(JsonValue::as_str),
            Some("sigma1.5")
        );
    }

    #[test]
    fn execute_request_parses_backends_and_iterative_workloads() {
        let engine = parse_request(
            r#"{"op":"execute","workload":{"kind":"pagerank","scale":2e4,"iterations":5},"workers":4}"#,
        )
        .expect("parse engine execute");
        assert_eq!(
            engine,
            Request::Execute(ExecuteRequest {
                workload: WorkloadSpec::PageRank {
                    scale: 2e4,
                    iterations: 5,
                },
                assignments: Vec::new(),
                backend: BackendChoice::Engine { workers: 4 },
            })
        );
        let sim = parse_request(
            r#"{"op":"execute","workload":{"kind":"kmeans","scale":1e4},"backend":"simulator","seed":7,"noise":0.1,"assignments":["java","java"]}"#,
        )
        .expect("parse simulator execute");
        assert_eq!(
            sim,
            Request::Execute(ExecuteRequest {
                workload: WorkloadSpec::KMeans {
                    scale: 1e4,
                    iterations: 10,
                },
                assignments: vec!["java".to_string(), "java".to_string()],
                backend: BackendChoice::Simulator {
                    seed: 7,
                    noise: 0.1,
                },
            })
        );
        assert!(matches!(
            parse_request(r#"{"op":"execute","workload":{"kind":"wordcount"},"backend":"abacus"}"#),
            Err(ServiceError::Parse(_))
        ));
    }

    /// One fixed value of every [`Response`] variant and the exact line it
    /// renders to. Pins the wire bytes: field order, number formatting,
    /// `cost_bits`, nesting and escaping.
    #[test]
    fn every_response_variant_renders_exactly() {
        let optimize = OptimizeResponse {
            workload: "wordcount(1e7)".to_string(),
            signature: 0x0123_4567_89ab_cdef,
            assignments: vec!["java".to_string(), "spark".to_string()],
            distinct_platforms: 2,
            cost: 0.1 + 0.2,
            cost_std: 0.25,
            cost_q10: 0.2,
            cost_q90: 0.4,
            risk_policy: "sigma1.5".to_string(),
            stats: robopt_core::EnumStats {
                generated: 120,
                kept: 40,
                merges: 7,
                peak_rows: 25,
            },
        };
        let table = [
            (
                Response::Optimize(optimize.clone()),
                r#"{"ok":true,"kind":"optimize","workload":"wordcount(1e7)","signature":81985529216486895,"assignments":["java","spark"],"distinct_platforms":2,"cost":0.30000000000000004,"cost_bits":4599075939470750516,"cost_std":0.25,"cost_q10":0.2,"cost_q90":0.4,"risk_policy":"sigma1.5","stats":{"generated":120,"kept":40,"merges":7,"peak_rows":25}}"#,
            ),
            (
                Response::Train(TrainResponse {
                    rows: 512,
                    n_trees: 24,
                    width: 81,
                    train_mse: 0.0625,
                }),
                r#"{"ok":true,"kind":"train","rows":512,"n_trees":24,"width":81,"train_mse":0.0625}"#,
            ),
            (
                Response::Simulate(SimulateResponse {
                    workload: "tpch_q3(1e6)".to_string(),
                    assignments: vec!["postgres".to_string(), "flink".to_string()],
                    seconds: 12.5,
                    feasible: true,
                }),
                r#"{"ok":true,"kind":"simulate","workload":"tpch_q3(1e6)","assignments":["postgres","flink"],"seconds":12.5,"feasible":true}"#,
            ),
            (
                Response::Execute(ExecuteResponse {
                    workload: "pagerank(1e5,iters=10)".to_string(),
                    backend: "engine".to_string(),
                    assignments: vec!["java".to_string()],
                    seconds: 1.25,
                    compute_seconds: 1.0,
                    overhead_seconds: 0.25,
                    feasible: true,
                    measured: true,
                    output_rows: 64,
                    output_digest: u64::MAX - 1,
                    op_seconds: vec![0.5, 0.75],
                    op_output_rows: vec![100, 64],
                }),
                r#"{"ok":true,"kind":"execute","workload":"pagerank(1e5,iters=10)","backend":"engine","assignments":["java"],"seconds":1.25,"compute_seconds":1.0,"overhead_seconds":0.25,"feasible":true,"measured":true,"output_rows":64,"output_digest":18446744073709551614,"op_seconds":[0.5,0.75],"op_output_rows":[100,64]}"#,
            ),
            (
                Response::Compare(CompareResponse {
                    workload: "wordcount(1e7)".to_string(),
                    mixed: optimize,
                    mix: "java:1+spark:1".to_string(),
                    mixed_sim_seconds: 3.5,
                    singles: vec![
                        crate::api::SinglePlatformPlan {
                            platform: "java".to_string(),
                            cost: Some(4.0),
                            sim_seconds: Some(4.5),
                        },
                        crate::api::SinglePlatformPlan {
                            platform: "postgres".to_string(),
                            cost: None,
                            sim_seconds: None,
                        },
                    ],
                    best_single_cost: Some(4.0),
                    mixed_wins: true,
                }),
                r#"{"ok":true,"kind":"compare","workload":"wordcount(1e7)","mixed":{"workload":"wordcount(1e7)","signature":81985529216486895,"assignments":["java","spark"],"distinct_platforms":2,"cost":0.30000000000000004,"cost_bits":4599075939470750516,"cost_std":0.25,"cost_q10":0.2,"cost_q90":0.4,"risk_policy":"sigma1.5","stats":{"generated":120,"kept":40,"merges":7,"peak_rows":25}},"mix":"java:1+spark:1","mixed_sim_seconds":3.5,"singles":[{"platform":"java","cost":4.0,"sim_seconds":4.5},{"platform":"postgres","cost":null,"sim_seconds":null}],"best_single_cost":4.0,"mixed_wins":true}"#,
            ),
            (
                Response::Stats(StatsResponse {
                    requests: 4,
                    cache: crate::cache::CacheStats {
                        hits: 3,
                        misses: 1,
                        evictions: 0,
                        insertions: 1,
                        len: 1,
                        capacity: 64,
                    },
                    total_micros: 1500,
                }),
                r#"{"ok":true,"kind":"stats","requests":4,"cache":{"hits":3,"misses":1,"evictions":0,"insertions":1,"len":1,"capacity":64,"hit_rate":0.75},"total_micros":1500}"#,
            ),
            (
                Response::Error(ServiceError::Parse("quote \" and \\ backslash".to_string())),
                r#"{"ok":false,"error":"parse error: quote \" and \\ backslash"}"#,
            ),
        ];
        for (resp, want) in &table {
            let line = render_response(resp);
            assert_eq!(&line, want);
            crate::json::parse(&line).expect("renderer must emit valid JSON");
        }
    }

    #[test]
    fn error_rendering_escapes_the_message() {
        let line = render_response(&Response::Error(ServiceError::Parse(
            "quote \" and \\ backslash".to_string(),
        )));
        let doc = crate::json::parse(&line).expect("valid JSON");
        assert_eq!(doc.get("ok").and_then(JsonValue::as_bool), Some(false));
        assert!(doc
            .get("error")
            .and_then(JsonValue::as_str)
            .is_some_and(|s| s.contains('"')));
    }

    #[test]
    fn non_finite_numbers_render_as_null() {
        let resp = Response::Simulate(SimulateResponse {
            workload: "w".to_string(),
            assignments: vec![],
            seconds: f64::INFINITY,
            feasible: false,
        });
        let line = render_response(&resp);
        let doc = crate::json::parse(&line).expect("valid JSON");
        assert_eq!(doc.get("seconds"), Some(&JsonValue::Null));
        assert_eq!(
            doc.get("feasible").and_then(JsonValue::as_bool),
            Some(false)
        );
    }
}

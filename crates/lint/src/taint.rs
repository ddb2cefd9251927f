//! The two interprocedural passes over the call graph: determinism taint
//! (`determinism-taint`) and panic reachability (`panic-reachability`).
//!
//! Both are the same fixed point: *seed* with source functions — fns
//! whose bodies textually contain a nondeterminism source (wall-clock
//! reads, std hash containers, `available_parallelism`, env/IO) or a
//! panic site (`unwrap`/`expect`/panic-family macros/literal indexing) —
//! then *propagate* along reverse call edges until nothing changes, and
//! *report* every fn on the declared surface that the taint reached.
//!
//! The declared surface is marked in source:
//!
//! ```text
//! // lint:surface(deterministic)        — bit-identical seeded output
//! // lint:surface(no-panic)             — must degrade, never abort
//! // lint:surface(deterministic, no-panic)
//! ```
//!
//! on the fn signature line or the line immediately preceding it.
//!
//! Suppression is *source-level*, matching the issue's contract: a
//! justified `lint:allow` at the source line (or its enclosing fn
//! signature) removes the seed. Determinism sources accept the allow ids
//! `determinism-taint`, `wall-clock`, `hash-container` — the existing
//! line-rule justifications keep working so the clock shims need no
//! second comment. Panic sources accept `panic-reachability` plus the
//! four line-rule ids. Only the pass's *own* id records a new audited
//! [`Suppression`] (other ids are already recorded by their line rule).
//!
//! `assert!`/`debug_assert!` are deliberately not panic sources: the
//! workspace uses them as documented contract checks (DESIGN §10), and
//! flagging them would force justifying every invariant twice.
//!
//! Known under-approximation, accepted and documented: a *bare*
//! single-identifier fn reference (`map(helper)` without parens) is not
//! an edge — resolving every bare identifier against the fn table would
//! flood the graph with locals. Multi-segment references
//! (`sort_by(f64::total_cmp)`) are edges.

use crate::callgraph::CallGraph;
use crate::lexer::find_word;
use crate::report::{Diagnostic, LintOutcome, Suppression};
use crate::rules::{allow_justification, has_literal_index};
use crate::workspace::{SourceFile, Workspace};

const SENTINEL: u32 = u32::MAX;

/// One interprocedural pass's identity.
struct Pass {
    rule: &'static str,
    /// Allow ids accepted as a source-level justification.
    allow_ids: &'static [&'static str],
    surface: &'static str,
    what: &'static str,
}

const DETERMINISM: Pass = Pass {
    rule: "determinism-taint",
    allow_ids: &["determinism-taint", "wall-clock", "hash-container"],
    surface: "deterministic",
    what: "nondeterminism source",
};

const PANIC: Pass = Pass {
    rule: "panic-reachability",
    allow_ids: &[
        "panic-reachability",
        "panic-unwrap",
        "panic-expect",
        "panic-macro",
        "index-literal",
    ],
    surface: "no-panic",
    what: "panic site",
};

/// Substring tokens whose presence makes a line a determinism source.
const DET_SUBSTRINGS: &[&str] = &[
    "Instant::now",
    "SystemTime",
    "std::time",
    "thread::current",
    "available_parallelism",
    "env::var",
    "env::args",
    "env::vars",
    "fs::read",
    "read_to_string",
    "read_dir",
    "File::open",
    "File::create",
];

/// Identifier tokens (word-boundary matched) that are determinism sources.
const DET_WORDS: &[&str] = &["HashMap", "HashSet", "RandomState", "stdin"];

fn determinism_source(code: &str) -> Option<&'static str> {
    for t in DET_SUBSTRINGS {
        if code.contains(t) {
            return Some(t);
        }
    }
    DET_WORDS
        .iter()
        .find(|w| !find_word(code, w).is_empty())
        .copied()
}

fn panic_source(code: &str) -> Option<&'static str> {
    if code.contains(".unwrap()") {
        return Some(".unwrap()");
    }
    if code.contains(".expect(") {
        return Some(".expect()");
    }
    for (mac, label) in [
        ("panic", "panic!"),
        ("unreachable", "unreachable!"),
        ("todo", "todo!"),
        ("unimplemented", "unimplemented!"),
    ] {
        let fires = find_word(code, mac).into_iter().any(|at| {
            code.get(at + mac.len()..)
                .and_then(|s| s.chars().next())
                .is_some_and(|c| c == '!')
        });
        if fires {
            return Some(label);
        }
    }
    if has_literal_index(code) {
        return Some("literal index");
    }
    None
}

/// A seeded source: node + the line and token that made it one.
struct SourceHit {
    node: u32,
    line: usize,
    token: &'static str,
}

/// Does `file` line `li` (or its enclosing fn signature) carry a justified
/// allow for any of the pass's accepted ids? Returns the matching id.
fn source_justified(pass: &Pass, file: &SourceFile, li: usize) -> Option<&'static str> {
    pass.allow_ids
        .iter()
        .find(|id| allow_justification(file, li, id).is_some())
        .copied()
}

/// Surface markers on the fn signature line or the line before it.
fn surface_marks(file: &SourceFile, sig_line: usize) -> (bool, bool) {
    let mut deterministic = false;
    let mut no_panic = false;
    for cand in [Some(sig_line), sig_line.checked_sub(1)]
        .into_iter()
        .flatten()
    {
        let comment = file
            .lines
            .get(cand)
            .map(|l| l.comment.as_str())
            .unwrap_or("");
        let Some(at) = comment.find("lint:surface(") else {
            continue;
        };
        let inner = comment
            .get(at + "lint:surface(".len()..)
            .and_then(|s| s.split(')').next())
            .unwrap_or("");
        for item in inner.split(',') {
            match item.trim() {
                "deterministic" => deterministic = true,
                "no-panic" => no_panic = true,
                _ => {}
            }
        }
    }
    (deterministic, no_panic)
}

/// Collect the pass's seeds; justified sources are dropped (and recorded
/// as suppressions when justified under the pass's own id).
fn collect_sources(
    pass: &Pass,
    ws: &Workspace,
    graph: &CallGraph,
    detect: fn(&str) -> Option<&'static str>,
    out: &mut LintOutcome,
) -> Vec<SourceHit> {
    let mut hits = Vec::new();
    for (id, node) in graph.nodes.iter().enumerate() {
        if node.in_test {
            continue;
        }
        let Some((bl, el)) = node.body else { continue };
        let Some(file) = ws.sources.get(node.file_idx) else {
            continue;
        };
        for li in bl..=el.min(file.lines.len().saturating_sub(1)) {
            if file.test_mask.get(li).copied().unwrap_or(false) {
                continue;
            }
            let code = file.lines.get(li).map(|l| l.code.as_str()).unwrap_or("");
            let code = if li == bl {
                code.get(node.body_open_col..).unwrap_or("")
            } else {
                code
            };
            let Some(token) = detect(code) else { continue };
            match source_justified(pass, file, li) {
                Some(id_matched) => {
                    if id_matched == pass.rule {
                        // Line rules never see this id; audit it here.
                        if let Some(justification) = allow_justification(file, li, pass.rule) {
                            out.allowed.push(Suppression {
                                file: file.rel.clone(),
                                line: li + 1,
                                rule: pass.rule,
                                justification,
                            });
                        }
                    }
                }
                None => hits.push(SourceHit {
                    node: id as u32,
                    line: li,
                    token,
                }),
            }
        }
    }
    hits
}

/// Run one pass: seed, propagate up the reverse edges, report tainted
/// surface roots with their witness path. Returns the root count.
fn run_pass(pass: &Pass, ws: &Workspace, graph: &CallGraph, out: &mut LintOutcome) -> usize {
    let detect = if pass.rule == DETERMINISM.rule {
        determinism_source as fn(&str) -> Option<&'static str>
    } else {
        panic_source as fn(&str) -> Option<&'static str>
    };
    let hits = collect_sources(pass, ws, graph, detect, out);

    // BFS from all seeds at once: `via[f]` is the callee through which the
    // nearest source reaches `f`, plus the index of that source hit.
    let n = graph.nodes.len();
    let mut via: Vec<Option<(u32, u32)>> = vec![None; n];
    let mut queue: Vec<u32> = Vec::new();
    for (hi, h) in hits.iter().enumerate() {
        if via[h.node as usize].is_none() {
            via[h.node as usize] = Some((SENTINEL, hi as u32));
            queue.push(h.node);
        }
    }
    let mut head = 0usize;
    while head < queue.len() {
        let cur = queue[head];
        head += 1;
        for &caller in &graph.callers[cur as usize] {
            if graph.nodes[caller as usize].in_test {
                continue;
            }
            if via[caller as usize].is_none() {
                via[caller as usize] = Some((cur, via[cur as usize].map(|(_, h)| h).unwrap_or(0)));
                queue.push(caller);
            }
        }
    }

    // Report every tainted surface root.
    let mut roots = 0usize;
    for (id, node) in graph.nodes.iter().enumerate() {
        if node.in_test {
            continue;
        }
        let Some(file) = ws.sources.get(node.file_idx) else {
            continue;
        };
        let (det, np) = surface_marks(file, node.sig_line);
        let on_surface = if pass.rule == DETERMINISM.rule {
            det
        } else {
            np
        };
        if !on_surface {
            continue;
        }
        roots += 1;
        let Some((_, hit_idx)) = via[id] else {
            continue;
        };
        let hit = &hits[hit_idx as usize];
        let src_node = &graph.nodes[hit.node as usize];
        // Witness: root → … → source fn, then the source line itself.
        let mut witness: Vec<String> = vec![node.qual.clone()];
        let mut cur = id as u32;
        while let Some((next, _)) = via[cur as usize] {
            if next == SENTINEL {
                break;
            }
            witness.push(graph.nodes[next as usize].qual.clone());
            cur = next;
        }
        witness.push(format!(
            "{} ({}:{})",
            hit.token,
            src_node.file,
            hit.line + 1
        ));
        let message = format!(
            "`{}` is on the declared {} surface but transitively reaches the {} \
             `{}` in `{}` ({}:{}); justify it with a source-level lint:allow({}) \
             or break the call chain — witness: {}",
            node.qual,
            pass.surface,
            pass.what,
            hit.token,
            src_node.qual,
            src_node.file,
            hit.line + 1,
            pass.rule,
            witness.join(" → ")
        );
        match allow_justification(file, node.sig_line, pass.rule) {
            Some(justification) => out.allowed.push(Suppression {
                file: file.rel.clone(),
                line: node.sig_line + 1,
                rule: pass.rule,
                justification,
            }),
            None => out.violations.push(Diagnostic {
                file: file.rel.clone(),
                line: node.sig_line + 1,
                rule: pass.rule,
                message,
                witness,
            }),
        }
    }
    roots
}

/// Run both passes; returns `(deterministic roots, no-panic roots)`.
pub(crate) fn run(ws: &Workspace, graph: &CallGraph, out: &mut LintOutcome) -> (usize, usize) {
    let det = run_pass(&DETERMINISM, ws, graph, out);
    let np = run_pass(&PANIC, ws, graph, out);
    (det, np)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::{build, fixture_ws};

    fn taint(files: &[(&str, &str)]) -> LintOutcome {
        let ws = fixture_ws(files);
        let graph = build(&ws);
        let mut out = LintOutcome::default();
        run(&ws, &graph, &mut out);
        out.sort();
        out
    }

    #[test]
    fn nondeterministic_helper_two_calls_deep_is_flagged_with_witness() {
        let src = "// lint:surface(deterministic)\n\
                   pub fn entry() -> usize {\n    mid()\n}\n\
                   fn mid() -> usize {\n    leaf()\n}\n\
                   fn leaf() -> usize {\n    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)\n}\n";
        let out = taint(&[("core", src)]);
        let det: Vec<_> = out
            .violations
            .iter()
            .filter(|d| d.rule == "determinism-taint")
            .collect();
        assert_eq!(det.len(), 1, "{:?}", out.violations);
        let d = det[0];
        assert_eq!(d.line, 2, "reported at the surface fn's signature");
        assert_eq!(d.witness.len(), 4, "{:?}", d.witness);
        assert_eq!(d.witness[0], "entry");
        assert_eq!(d.witness[1], "mid");
        assert_eq!(d.witness[2], "leaf");
        assert!(d.witness[3].contains("available_parallelism"));
        assert!(d.message.contains("entry → mid → leaf"));
    }

    #[test]
    fn justified_allow_at_the_source_clears_the_chain() {
        let src = "// lint:surface(deterministic)\n\
                   pub fn entry() -> usize {\n    mid()\n}\n\
                   fn mid() -> usize {\n    leaf()\n}\n\
                   // lint:allow(determinism-taint) worker count never affects result bytes\n\
                   fn leaf() -> usize {\n    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)\n}\n";
        let out = taint(&[("core", src)]);
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        assert_eq!(out.allowed.len(), 1, "audited under the pass's own id");
        assert_eq!(out.allowed[0].rule, "determinism-taint");
    }

    #[test]
    fn wall_clock_justification_also_clears_determinism_taint() {
        // The engine's clock shims are justified with lint:allow(wall-clock)
        // — the taint pass accepts that id and records nothing new (the
        // line rule already audits it).
        let src = "// lint:surface(deterministic)\n\
                   pub fn run() -> u64 {\n    shim()\n}\n\
                   // lint:allow(wall-clock) timing shim, measured not returned\n\
                   fn shim() -> u64 {\n    clock_instant_nanos()\n}\n";
        // The shim body itself must contain a source token for the test:
        let src = src.replace("clock_instant_nanos()", "std::time::now_nanos()");
        let out = taint(&[("engine", src.as_str())]);
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        assert!(out.allowed.is_empty(), "no double-audit");
    }

    #[test]
    fn panic_chain_reaches_the_no_panic_surface() {
        let src = "// lint:surface(no-panic)\n\
                   pub fn svc(x: Option<u32>) -> u32 {\n    step_a(x)\n}\n\
                   fn step_a(x: Option<u32>) -> u32 {\n    step_b(x)\n}\n\
                   fn step_b(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n";
        let out = taint(&[("robopt", src)]);
        let np: Vec<_> = out
            .violations
            .iter()
            .filter(|d| d.rule == "panic-reachability")
            .collect();
        assert_eq!(np.len(), 1, "{:?}", out.violations);
        assert_eq!(np[0].witness.len(), 4);
        assert!(np[0].witness[3].contains(".unwrap()"));

        // A line-rule allow at the source clears panic-reachability too.
        let allowed = src.replace(
            "fn step_b(x: Option<u32>) -> u32 {",
            "// lint:allow(panic-unwrap) fixture: caller always passes Some\nfn step_b(x: Option<u32>) -> u32 {",
        );
        let out = taint(&[("robopt", allowed.as_str())]);
        assert!(out.violations.is_empty(), "{:?}", out.violations);
    }

    #[test]
    fn taint_flows_through_dyn_method_over_approximation() {
        let files = [
            (
                "platforms",
                "pub trait Backend {\n    fn execute(&self) -> u64;\n}\n",
            ),
            (
                "engine",
                "impl Backend for Engine {\n    fn execute(&self) -> u64 {\n        std::time::now_nanos()\n    }\n}\n",
            ),
            (
                "robopt",
                "// lint:surface(deterministic)\npub fn serve(b: &dyn Backend) -> u64 {\n    b.execute()\n}\n",
            ),
        ];
        let out = taint(&files);
        let det: Vec<_> = out
            .violations
            .iter()
            .filter(|d| d.rule == "determinism-taint")
            .collect();
        assert_eq!(det.len(), 1, "{:?}", out.violations);
        assert!(det[0].message.contains("Engine::execute"));
    }

    #[test]
    fn test_fns_neither_seed_nor_propagate() {
        let src = "// lint:surface(deterministic)\n\
                   pub fn entry() -> usize {\n    7\n}\n\
                   #[cfg(test)]\nmod tests {\n    fn t() -> usize {\n        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)\n    }\n}\n";
        let out = taint(&[("core", src)]);
        assert!(out.violations.is_empty(), "{:?}", out.violations);
    }

    #[test]
    fn surface_comma_list_marks_both_passes() {
        let src = "// lint:surface(deterministic, no-panic)\n\
                   pub fn verb(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n";
        let ws = fixture_ws(&[("robopt", src)]);
        let graph = build(&ws);
        let mut out = LintOutcome::default();
        let (det, np) = run(&ws, &graph, &mut out);
        assert_eq!((det, np), (1, 1));
        // The fn is its own panic source: a one-hop witness.
        let np_viol = out
            .violations
            .iter()
            .find(|d| d.rule == "panic-reachability")
            .expect("panic-reachability fires");
        assert_eq!(np_viol.witness.len(), 2);
    }
}

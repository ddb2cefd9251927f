//! The rule engine: every invariant the workspace relies on but `clippy`
//! cannot see.
//!
//! Rules are grouped by the paper claim they protect (see DESIGN.md
//! "§ Static invariants"):
//!
//! * **Determinism** (Lemma 1, bit-identical seeded training):
//!   `hash-container`, `wall-clock`, `thread-spawn-join`,
//!   `float-total-order`.
//! * **Panic-freedom** (library code must degrade, not abort):
//!   `panic-unwrap`, `panic-expect`, `panic-macro`, `index-literal`.
//! * **Oracle / platform contracts** (estimator API): `cost-batch-guard`,
//!   `platform-id`.
//! * **Workspace hygiene** (offline build image, honest docs, compiler
//!   lints): `workspace-deps`, `artifact-exists`, `crate-attrs`.
//! * **Interprocedural** (call graph, DESIGN.md §13): `determinism-taint`,
//!   `panic-reachability`.
//!
//! What rustc can enforce is left to rustc: `CostOracle::width` has no
//! default, the service renderer and cache key bind every field by an
//! exhaustive pattern, and the workspace lint table forbids `unsafe_code`
//! and denies `missing_debug_implementations` in every target.
//!
//! A violation on line `n` is suppressed by a trailing or immediately
//! preceding comment `// lint:allow(<rule-id>) <justification>`; the
//! justification is mandatory and is carried into the JSON report so every
//! suppression stays auditable.

use std::path::Path;

use crate::lexer::{find_word, LineScan};
use crate::report::{Diagnostic, LintOutcome, Suppression};
use crate::workspace::{find_code_char, match_brace, CrateClass, SourceFile, TextFile, Workspace};

/// A rule's identity and the invariant it guards.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    pub id: &'static str,
    pub guards: &'static str,
}

/// Every rule the engine knows, in documentation order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "hash-container",
        guards: "determinism: std hash containers iterate in per-process random order",
    },
    RuleInfo {
        id: "wall-clock",
        guards: "determinism: wall-clock/thread-identity values vary across runs",
    },
    RuleInfo {
        id: "thread-spawn-join",
        guards: "determinism: detached threads outlive their scope; every thread::spawn must be joined in the same scope",
    },
    RuleInfo {
        id: "panic-unwrap",
        guards: "panic-freedom: .unwrap() aborts instead of degrading",
    },
    RuleInfo {
        id: "panic-expect",
        guards: "panic-freedom: .expect() must carry a justified structural invariant",
    },
    RuleInfo {
        id: "panic-macro",
        guards: "panic-freedom: explicit panics in library code",
    },
    RuleInfo {
        id: "index-literal",
        guards: "panic-freedom: literal indexing can go out of bounds",
    },
    RuleInfo {
        id: "cost-batch-guard",
        guards: "estimator contract: batch costing must debug_assert the row width",
    },
    RuleInfo {
        id: "platform-id",
        guards: "platform contract: raw usize platform indices bypass PlatformId",
    },
    RuleInfo {
        id: "crate-attrs",
        guards: "unsafe/debug hygiene: every package inherits the workspace lints that forbid unsafe_code and deny missing_debug_implementations",
    },
    RuleInfo {
        id: "workspace-deps",
        guards: "offline build image: only path/workspace dependencies exist",
    },
    RuleInfo {
        id: "artifact-exists",
        guards: "honest docs: referenced experiment artifacts exist on disk",
    },
    RuleInfo {
        id: "determinism-taint",
        guards: "interprocedural determinism: no fn on the declared deterministic surface may transitively reach an unjustified nondeterminism source",
    },
    RuleInfo {
        id: "panic-reachability",
        guards: "interprocedural panic-freedom: no fn on the declared no-panic surface may transitively reach an unjustified panic site",
    },
    RuleInfo {
        id: "float-total-order",
        guards: "determinism: partial_cmp().unwrap() and raw `<` comparators are NaN-unsafe; use f64::total_cmp",
    },
];

/// Run every rule over the loaded workspace (builds the call graph
/// internally; callers that also want the graph use [`check_with_graph`]).
pub fn check(ws: &Workspace) -> LintOutcome {
    let graph = crate::callgraph::build(ws);
    check_with_graph(ws, &graph)
}

/// Run every rule — the line/contract rules plus the interprocedural
/// taint passes over a prebuilt call graph.
pub fn check_with_graph(ws: &Workspace, graph: &crate::callgraph::CallGraph) -> LintOutcome {
    let mut out = LintOutcome {
        files_scanned: ws.files_scanned(),
        ..LintOutcome::default()
    };
    for f in &ws.sources {
        check_source(f, &mut out);
    }
    for m in &ws.manifests {
        check_manifest(m, &mut out);
    }
    for d in &ws.docs {
        check_doc(&ws.root, d, &mut out);
    }
    let (det_roots, np_roots) = crate::taint::run(ws, graph, &mut out);
    out.graph = graph.summary();
    out.graph.deterministic_roots = det_roots;
    out.graph.no_panic_roots = np_roots;
    out.sort();
    out
}

/// `lint:allow(<rule>) <justification>` — accepted on the violation line,
/// the line immediately preceding it, the enclosing fn's signature line,
/// or the line immediately preceding that signature (whole-function
/// allows). The justification is mandatory.
pub(crate) fn allow_justification(file: &SourceFile, li: usize, rule: &str) -> Option<String> {
    let needle = format!("lint:allow({rule})");
    let sig = file.fn_sigs.get(li).copied().flatten();
    let candidates = [
        Some(li),
        li.checked_sub(1),
        sig,
        sig.and_then(|s| s.checked_sub(1)),
    ];
    for cand in candidates.into_iter().flatten() {
        let comment = file
            .lines
            .get(cand)
            .map(|l| l.comment.as_str())
            .unwrap_or("");
        if let Some(pos) = comment.find(&needle) {
            let rest = comment.get(pos + needle.len()..).unwrap_or("").trim();
            if !rest.is_empty() {
                return Some(rest.to_string());
            }
        }
    }
    None
}

/// Record a hit on line `li` (0-based): a violation, unless a justified
/// `lint:allow` suppresses it.
pub(crate) fn emit(
    file: &SourceFile,
    li: usize,
    rule: &'static str,
    message: String,
    out: &mut LintOutcome,
) {
    match allow_justification(file, li, rule) {
        Some(justification) => out.allowed.push(Suppression {
            file: file.rel.clone(),
            line: li + 1,
            rule,
            justification,
        }),
        None => out
            .violations
            .push(Diagnostic::new(file.rel.clone(), li + 1, rule, message)),
    }
}

fn check_source(file: &SourceFile, out: &mut LintOutcome) {
    let panic_rules = file.class != CrateClass::Exempt && !file.is_binary;
    for (li, line) in file.lines.iter().enumerate() {
        let code = line.code.as_str();
        let in_test = file.test_mask.get(li).copied().unwrap_or(false);

        if file.class == CrateClass::Determinism {
            for container in ["HashMap", "HashSet"] {
                if !find_word(code, container).is_empty() {
                    emit(
                        file,
                        li,
                        "hash-container",
                        format!(
                            "{container} in a determinism-critical crate: std's per-process \
                             hasher seed makes iteration order nondeterministic; use \
                             robopt_vector::FootprintTable or a sorted Vec, or justify a \
                             provably non-iterating use with lint:allow(hash-container)"
                        ),
                        out,
                    );
                }
            }
        }

        if file.class != CrateClass::Exempt {
            for pattern in ["std::time", "SystemTime", "Instant::now", "thread::current"] {
                if code.contains(pattern) {
                    emit(
                        file,
                        li,
                        "wall-clock",
                        format!(
                            "`{pattern}` in a library crate: wall-clock and thread-identity \
                             values break bit-identical seeded runs; timing belongs in \
                             robopt-bench"
                        ),
                        out,
                    );
                }
            }
        }

        if panic_rules && !in_test {
            if code.contains(".unwrap()") {
                emit(
                    file,
                    li,
                    "panic-unwrap",
                    ".unwrap() in library code: convert to .expect() with an invariant \
                     message (justified via lint:allow(panic-expect)) or propagate \
                     Option/Result"
                        .to_string(),
                    out,
                );
            }
            if code.contains(".expect(") {
                emit(
                    file,
                    li,
                    "panic-expect",
                    ".expect() in library code: state the structural invariant in a \
                     lint:allow(panic-expect) justification or propagate the error"
                        .to_string(),
                    out,
                );
            }
            for mac in ["panic", "unreachable", "todo", "unimplemented"] {
                let fires = find_word(code, mac).into_iter().any(|at| {
                    code.get(at + mac.len()..)
                        .and_then(|s| s.chars().next())
                        .is_some_and(|c| c == '!')
                });
                if fires {
                    emit(
                        file,
                        li,
                        "panic-macro",
                        format!("{mac}! in library code aborts the optimizer instead of degrading"),
                        out,
                    );
                }
            }
            if has_literal_index(code) {
                emit(
                    file,
                    li,
                    "index-literal",
                    "indexing with an integer literal can go out of bounds; use \
                     .get()/.first(), or justify in-bounds-by-construction with \
                     lint:allow(index-literal)"
                        .to_string(),
                    out,
                );
            }
            if nan_unsafe_comparison(code) {
                emit(
                    file,
                    li,
                    "float-total-order",
                    "NaN-unsafe float comparison: partial_cmp().unwrap() panics on NaN \
                     and hand-rolled `<` comparators drop NaN ordering; use \
                     f64::total_cmp for a deterministic total order"
                        .to_string(),
                    out,
                );
            }
        }
    }

    check_cost_batch_bodies(file, out);
    check_thread_spawns(file, out);
    if file.class != CrateClass::Exempt && file.crate_name != "platforms" {
        check_platform_params(file, out);
    }
}

/// `thread::spawn` in library code must be `.join()`ed in the same lexical
/// scope — a detached thread outlives the call that spawned it, racing
/// whatever seeded state comes next. `std::thread::scope` (the workspace's
/// parallelism idiom) joins implicitly and never contains the
/// `thread::spawn` token, so it passes untouched.
fn check_thread_spawns(file: &SourceFile, out: &mut LintOutcome) {
    if file.class == CrateClass::Exempt || file.is_binary {
        return;
    }
    for li in 0..file.lines.len() {
        let line = match file.lines.get(li) {
            Some(l) => l,
            None => continue,
        };
        let in_test = file.test_mask.get(li).copied().unwrap_or(false);
        if in_test {
            continue;
        }
        let Some(at) = line.code.find("thread::spawn") else {
            continue;
        };
        if !joined_in_scope(&file.lines, li, at) {
            emit(
                file,
                li,
                "thread-spawn-join",
                "thread::spawn without a .join() in the same scope: detached threads \
                 break deterministic seeded runs; join the handle, or use \
                 std::thread::scope which joins structurally"
                    .to_string(),
                out,
            );
        }
    }
}

/// Forward scan from the spawn site: does `.join(` appear before the
/// enclosing scope closes (brace depth dropping below the spawn's level)?
fn joined_in_scope(lines: &[LineScan], li: usize, col: usize) -> bool {
    let mut depth: i32 = 0;
    for (i, l) in lines.iter().enumerate().skip(li) {
        let start = if i == li { col } else { 0 };
        let code = l.code.get(start..).unwrap_or("");
        for (at, c) in code.char_indices() {
            match c {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    if depth < 0 {
                        return false;
                    }
                }
                '.' if code.get(at..).is_some_and(|s| s.starts_with(".join(")) => {
                    return true;
                }
                _ => {}
            }
        }
    }
    false
}

/// `foo[3]`-style indexing: `[` preceded by an identifier character, `)` or
/// `]`, whose bracket content is a bare integer literal.
pub(crate) fn has_literal_index(code: &str) -> bool {
    for (at, c) in code.char_indices() {
        if c != '[' {
            continue;
        }
        let prev = code[..at].trim_end().chars().next_back();
        if !prev.is_some_and(|p| p.is_alphanumeric() || p == '_' || p == ')' || p == ']') {
            continue;
        }
        let inner = code.get(at + 1..).unwrap_or("");
        let digits: String = inner
            .trim_start()
            .chars()
            .take_while(|c| c.is_ascii_digit() || *c == '_')
            .collect();
        if digits.is_empty() {
            continue;
        }
        let rest = inner
            .trim_start()
            .get(digits.len()..)
            .unwrap_or("")
            .trim_start();
        if rest.starts_with(']') {
            return true;
        }
    }
    false
}

/// `float-total-order`: a `partial_cmp` whose `Option` is
/// force-unwrapped panics the library on the first NaN, and a comparator
/// built from a raw `<` silently drops NaN ordering — both break the
/// deterministic total order `f64::total_cmp` provides. `sort_by` with a
/// raw `<` only arises in `if a < b { Less } …` hand-rolled comparators
/// (a bare `<` closure would not type-check as `Ordering`).
fn nan_unsafe_comparison(code: &str) -> bool {
    if code.contains("partial_cmp") && (code.contains(".unwrap()") || code.contains(".expect(")) {
        return true;
    }
    code.contains("sort_by")
        && code.contains(" < ")
        && !code.contains("total_cmp")
        && !code.contains("partial_cmp")
}

/// Join the code of lines `lo..=hi` with spaces (signature/header text).
fn joined_code(lines: &[LineScan], lo: usize, hi: usize) -> String {
    let mut s = String::new();
    for l in lines.iter().take(hi + 1).skip(lo) {
        s.push_str(l.code.as_str());
        s.push(' ');
    }
    s
}

/// Every `fn cost_batch` body must `debug_assert` something about `width`.
fn check_cost_batch_bodies(file: &SourceFile, out: &mut LintOutcome) {
    for li in 0..file.lines.len() {
        let code = file.lines.get(li).map(|l| l.code.as_str()).unwrap_or("");
        let Some(at) = code.find("fn cost_batch") else {
            continue;
        };
        // Word boundary: don't match fns whose name merely starts with
        // `cost_batch` (e.g. this rule's own tests).
        let after = code
            .get(at + "fn cost_batch".len()..)
            .and_then(|s| s.chars().next());
        if after.is_some_and(|c| c.is_alphanumeric() || c == '_') {
            continue;
        }
        let Some((bl, bc)) = find_code_char(&file.lines, li, at, |c| c == '{' || c == ';') else {
            continue;
        };
        let opens = file
            .lines
            .get(bl)
            .and_then(|l| l.code.get(bc..))
            .and_then(|s| s.chars().next())
            == Some('{');
        if !opens {
            continue; // bodyless trait declaration
        }
        let end = match_brace(&file.lines, bl, bc).unwrap_or(bl);
        let body = joined_code(&file.lines, bl, end);
        if !body.contains("debug_assert") || find_word(&body, "width").is_empty() {
            emit(
                file,
                li,
                "cost-batch-guard",
                "fn cost_batch must debug_assert the incoming batch width against \
                 CostOracle::width() — the wrong-layout class is silent otherwise"
                    .to_string(),
                out,
            );
        }
    }
}

/// `pub fn` parameters like `platform: usize` outside `robopt-platforms`
/// should take `PlatformId` (the raw-index wraparound class of PR 1).
fn check_platform_params(file: &SourceFile, out: &mut LintOutcome) {
    for li in 0..file.lines.len() {
        let code = file.lines.get(li).map(|l| l.code.as_str()).unwrap_or("");
        let Some(fn_at) = find_word(code, "fn").into_iter().next() else {
            continue;
        };
        if find_word(code.get(..fn_at).unwrap_or(""), "pub").is_empty() {
            continue;
        }
        let Some((pl, pc)) = find_code_char(&file.lines, li, fn_at, |c| c == '(') else {
            continue;
        };
        let Some((el, _)) = find_code_char(&file.lines, pl, pc, |c| c == ')') else {
            continue;
        };
        let sig = joined_code(&file.lines, li, el);
        let params = sig
            .find('(')
            .map(|s| sig.get(s + 1..).unwrap_or(""))
            .unwrap_or("");
        let params = params.split(')').next().unwrap_or("");
        for param in params.split(',') {
            let mut halves = param.splitn(2, ':');
            let name = halves
                .next()
                .unwrap_or("")
                .trim()
                .trim_start_matches("mut ");
            let ty = halves.next().unwrap_or("");
            if name.contains("platform")
                && !name.starts_with("n_")
                && name != "platforms"
                && !find_word(ty, "usize").is_empty()
            {
                emit(
                    file,
                    li,
                    "platform-id",
                    format!(
                        "pub fn takes a raw `{name}: usize` platform index outside \
                         robopt-platforms; take PlatformId (or justify layout-level \
                         indices with lint:allow(platform-id))"
                    ),
                    out,
                );
            }
        }
    }
}

/// Only `path =` / `workspace = true` dependencies may appear in any
/// dependency section: the build image has no registry access. Every
/// package must also inherit the workspace lint table (`[lints]` with
/// `workspace = true`), which makes rustc forbid `unsafe_code` and deny
/// `missing_debug_implementations` in all of its targets.
fn check_manifest(tf: &TextFile, out: &mut LintOutcome) {
    let mut section = "";
    let mut is_package = false;
    let mut inherits_lints = false;
    for (li, raw) in tf.text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.starts_with('[') {
            section = line;
            is_package |= line == "[package]";
            continue;
        }
        if section == "[lints]" && line.replace(' ', "") == "workspace=true" {
            inherits_lints = true;
        }
        let in_deps = section.trim_end_matches(']').ends_with("dependencies");
        if !in_deps || line.is_empty() || !line.contains('=') {
            continue;
        }
        if !(line.contains("workspace") || line.contains("path")) {
            out.violations.push(Diagnostic::new(
                tf.rel.clone(),
                li + 1,
                "workspace-deps",
                format!(
                    "`{line}` pulls a dependency from outside the workspace; the build \
                     image is offline — keep the workspace dependency-free (in-tree \
                     stand-ins, see Cargo.toml NOTE)"
                ),
            ));
        }
    }
    if is_package && !inherits_lints {
        out.violations.push(Diagnostic::new(
            tf.rel.clone(),
            1,
            "crate-attrs",
            "package does not inherit the workspace lints: add `[lints]` with \
             `workspace = true` so rustc forbids unsafe_code and denies \
             missing_debug_implementations in every target"
                .to_string(),
        ));
    }
}

/// Artifact paths referenced by the docs must exist on disk.
fn check_doc(root: &Path, tf: &TextFile, out: &mut LintOutcome) {
    for (li, line) in tf.text.lines().enumerate() {
        for path in artifact_refs(line) {
            if !root.join(&path).is_file() {
                out.violations.push(Diagnostic::new(
                    tf.rel.clone(),
                    li + 1,
                    "artifact-exists",
                    format!("referenced artifact `{path}` does not exist on disk"),
                ));
            }
        }
    }
}

/// Filename-ish character for artifact reference extraction.
fn is_artifact_char(c: char) -> bool {
    c.is_alphanumeric() || matches!(c, '.' | '_' | '-' | '*')
}

/// Extract `EXPERIMENTS_OUTPUT/<file>` and `BENCH_<name>.json` references.
/// Glob references (containing `*`) are skipped — they are patterns, not
/// file claims.
fn artifact_refs(line: &str) -> Vec<String> {
    let mut out = Vec::new();
    let prefix = "EXPERIMENTS_OUTPUT/";
    let mut start = 0usize;
    while let Some(pos) = line.get(start..).and_then(|s| s.find(prefix)) {
        let at = start + pos + prefix.len();
        let name: String = line
            .get(at..)
            .unwrap_or("")
            .chars()
            .take_while(|&c| is_artifact_char(c))
            .collect();
        let name = name.trim_end_matches('.');
        if !name.is_empty() && !name.contains('*') {
            out.push(format!("{prefix}{name}"));
        }
        start = at;
    }
    let mut start = 0usize;
    while let Some(pos) = line.get(start..).and_then(|s| s.find("BENCH_")) {
        let at = start + pos;
        let boundary_ok = line[..at]
            .chars()
            .next_back()
            .is_none_or(|c| !c.is_alphanumeric() && c != '_');
        let name: String = line
            .get(at..)
            .unwrap_or("")
            .chars()
            .take_while(|&c| is_artifact_char(c))
            .collect();
        let name = name.trim_end_matches('.').to_string();
        if boundary_ok && name.ends_with(".json") && !name.contains('*') {
            out.push(name);
        }
        start = at + "BENCH_".len();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::scan;
    use crate::workspace::{classify, compute_test_mask};

    /// Build a fixture [`SourceFile`] as if it lived in `crates/<name>/src/`.
    fn fixture(crate_name: &str, src: &str) -> SourceFile {
        let lines = scan(src);
        let test_mask = compute_test_mask(&lines);
        let items = crate::parser::parse_file(&lines, &test_mask);
        let fn_sigs = crate::parser::enclosing_fn_sig(&items, lines.len());
        SourceFile {
            rel: format!("crates/{crate_name}/src/fixture.rs"),
            crate_name: crate_name.to_string(),
            class: classify(crate_name),
            is_binary: false,
            lines,
            test_mask,
            items,
            fn_sigs,
        }
    }

    fn lint(crate_name: &str, src: &str) -> LintOutcome {
        let f = fixture(crate_name, src);
        let mut out = LintOutcome::default();
        check_source(&f, &mut out);
        out.sort();
        out
    }

    fn rule_hits(out: &LintOutcome) -> Vec<&'static str> {
        out.violations.iter().map(|d| d.rule).collect()
    }

    // -- hash-container -------------------------------------------------

    #[test]
    fn hash_container_fires_in_determinism_crates_only() {
        let src = "use std::collections::HashMap;\n";
        assert_eq!(rule_hits(&lint("core", src)), vec!["hash-container"]);
        assert!(rule_hits(&lint("baselines", src)).is_empty());
    }

    #[test]
    fn hash_container_ignores_strings_and_comments() {
        let src = "// a HashMap would be wrong here\npub fn f() -> &'static str { \"HashMap\" }\n";
        assert!(rule_hits(&lint("core", src)).is_empty());
    }

    #[test]
    fn hash_container_allow_is_recorded_not_violated() {
        let src = "// lint:allow(hash-container) lookup-only, never iterated\nuse std::collections::HashMap;\n";
        let out = lint("core", src);
        assert!(out.violations.is_empty());
        assert_eq!(out.allowed.len(), 1);
        assert_eq!(out.allowed.first().map(|a| a.rule), Some("hash-container"));
        assert!(out
            .allowed
            .first()
            .is_some_and(|a| a.justification.contains("lookup-only")));
    }

    // -- wall-clock -----------------------------------------------------

    #[test]
    fn wall_clock_fires_in_libraries_not_bench() {
        let src = "pub fn t() { let _ = std::time::Instant::now(); }\n";
        let hits = rule_hits(&lint("plan", src));
        assert!(hits.contains(&"wall-clock"));
        assert!(rule_hits(&lint("bench", src)).is_empty());
    }

    // -- panic rules ----------------------------------------------------

    #[test]
    fn unwrap_fires_outside_tests_only() {
        let src = "pub fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        assert_eq!(rule_hits(&lint("plan", src)), vec!["panic-unwrap"]);
        let masked = "#[cfg(test)]\nmod tests {\n    fn t(x: Option<u32>) { x.unwrap(); }\n}\n";
        assert!(rule_hits(&lint("plan", masked)).is_empty());
    }

    #[test]
    fn unwrap_in_exempt_crates_is_fine() {
        let src = "pub fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        assert!(rule_hits(&lint("cli", src)).is_empty());
    }

    #[test]
    fn expect_requires_justification() {
        let src = "pub fn f(x: Option<u32>) -> u32 { x.expect(\"set by ctor\") }\n";
        assert_eq!(rule_hits(&lint("ml", src)), vec!["panic-expect"]);
        let allowed = "// lint:allow(panic-expect) ctor always sets the field\npub fn f(x: Option<u32>) -> u32 { x.expect(\"set by ctor\") }\n";
        let out = lint("ml", allowed);
        assert!(out.violations.is_empty());
        assert_eq!(out.allowed.len(), 1);
    }

    #[test]
    fn allow_with_empty_justification_does_not_suppress() {
        let src = "// lint:allow(panic-unwrap)\npub fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        assert_eq!(rule_hits(&lint("plan", src)), vec!["panic-unwrap"]);
    }

    #[test]
    fn panic_macro_fires_but_not_in_strings_or_asserts() {
        assert_eq!(
            rule_hits(&lint("core", "pub fn f() { panic!(\"boom\"); }\n")),
            vec!["panic-macro"]
        );
        assert!(rule_hits(&lint("core", "pub fn f() -> &'static str { \"panic!\" }\n")).is_empty());
        assert!(rule_hits(&lint(
            "core",
            "pub fn f(n: usize) { debug_assert!(n > 0); }\n"
        ))
        .is_empty());
    }

    #[test]
    fn literal_index_fires_but_slice_types_do_not() {
        assert_eq!(
            rule_hits(&lint("vector", "pub fn f(v: &[u32]) -> u32 { v[0] }\n")),
            vec!["index-literal"]
        );
        assert!(rule_hits(&lint(
            "vector",
            "pub fn f(v: &[u32], i: usize) -> u32 { v[i] }\n"
        ))
        .is_empty());
        assert!(rule_hits(&lint(
            "vector",
            "pub const W: [f64; 3] = [1.0, 2.0, 3.0];\n"
        ))
        .is_empty());
    }

    // -- float-total-order ----------------------------------------------

    #[test]
    fn partial_cmp_unwrap_is_flagged() {
        let src = "pub fn s(v: &mut [f64]) { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }\n";
        let hits = rule_hits(&lint("ml", src));
        assert!(hits.contains(&"float-total-order"), "{hits:?}");
        let expected =
            "pub fn s(v: &mut [f64]) { v.sort_by(|a, b| a.partial_cmp(b).expect(\"no NaN\")); }\n";
        assert!(rule_hits(&lint("ml", expected)).contains(&"float-total-order"));
    }

    #[test]
    fn hand_rolled_less_than_comparator_is_flagged() {
        let src = "pub fn s(v: &mut [f64]) {\n    v.sort_by(|a, b| if a < b { Less } else { Greater });\n}\n";
        assert_eq!(rule_hits(&lint("core", src)), vec!["float-total-order"]);
    }

    #[test]
    fn total_cmp_sorts_and_exempt_crates_pass() {
        let good = "pub fn s(v: &mut [f64]) { v.sort_by(f64::total_cmp); }\n";
        assert!(rule_hits(&lint("ml", good)).is_empty());
        // Comparing through partial_cmp without unwrapping is fine too.
        let propagated = "pub fn m(a: f64, b: f64) -> Option<Ordering> { a.partial_cmp(&b) }\n";
        assert!(rule_hits(&lint("ml", propagated)).is_empty());
        let bench = "pub fn s(v: &mut [f64]) { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }\n";
        assert!(rule_hits(&lint("bench", bench)).is_empty());
    }

    // -- fn-level lint:allow placement ----------------------------------

    #[test]
    fn allow_on_the_enclosing_fn_signature_covers_the_whole_body() {
        let src = "// lint:allow(panic-unwrap) fixture: both inputs set by the ctor\n\
                   pub fn f(x: Option<u32>, y: Option<u32>) -> u32 {\n\
                   \x20   let a = x.unwrap();\n\
                   \x20   let b = y.unwrap();\n\
                   \x20   a + b\n\
                   }\n";
        let out = lint("plan", src);
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        assert_eq!(out.allowed.len(), 2, "one audited suppression per line");
        assert!(out.allowed.iter().all(|a| a.rule == "panic-unwrap"));
    }

    #[test]
    fn allow_on_the_signature_line_itself_works_too() {
        let src = "pub fn f(x: Option<u32>) -> u32 { // lint:allow(panic-unwrap) ctor invariant\n\
                   \x20   x.unwrap()\n\
                   }\n";
        let out = lint("plan", src);
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        assert_eq!(out.allowed.len(), 1);
    }

    #[test]
    fn fn_level_allow_does_not_leak_past_the_fn_body() {
        let src = "// lint:allow(panic-unwrap) fixture: covered fn only\n\
                   pub fn covered(x: Option<u32>) -> u32 { x.unwrap() }\n\
                   pub fn uncovered(x: Option<u32>) -> u32 { x.unwrap() }\n";
        let out = lint("plan", src);
        assert_eq!(rule_hits(&out), vec!["panic-unwrap"]);
        assert!(out.violations.first().is_some_and(|d| d.line == 3));
        assert_eq!(out.allowed.len(), 1);
    }

    // -- thread-spawn-join ----------------------------------------------

    #[test]
    fn detached_thread_spawn_is_flagged() {
        let src = "pub fn f() {\n    std::thread::spawn(|| {});\n}\n";
        assert_eq!(rule_hits(&lint("ml", src)), vec!["thread-spawn-join"]);
        // Returning the handle escapes the scope: still a violation here
        // (the caller may drop it); justify deliberate detachment.
        let escaped =
            "pub fn f() -> std::thread::JoinHandle<()> {\n    std::thread::spawn(|| {})\n}\n";
        assert_eq!(rule_hits(&lint("ml", escaped)), vec!["thread-spawn-join"]);
    }

    #[test]
    fn joined_thread_spawn_passes() {
        let src =
            "pub fn f() {\n    let h = std::thread::spawn(|| {});\n    let _ = h.join();\n}\n";
        assert!(rule_hits(&lint("ml", src)).is_empty());
        // Join may happen in a nested block of the same scope.
        let nested =
            "pub fn f() {\n    let h = std::thread::spawn(|| {});\n    { let _ = h.join(); }\n}\n";
        assert!(rule_hits(&lint("ml", nested)).is_empty());
    }

    #[test]
    fn scoped_threads_pass_and_strings_do_not_fire() {
        let src =
            "pub fn f() {\n    std::thread::scope(|s| {\n        s.spawn(|| {});\n    });\n}\n";
        assert!(rule_hits(&lint("ml", src)).is_empty());
        let s = "pub fn f() -> &'static str { \"thread::spawn\" }\n";
        assert!(rule_hits(&lint("ml", s)).is_empty());
    }

    #[test]
    fn engine_crate_is_covered_by_thread_spawn_join() {
        // The execution engine is determinism-class: a detached spawn
        // there is exactly the kind of nondeterminism the rule exists
        // to catch.
        let detached = "pub fn f() {\n    std::thread::spawn(|| {});\n}\n";
        assert_eq!(
            rule_hits(&lint("engine", detached)),
            vec!["thread-spawn-join"]
        );
        // The engine's actual idiom — scoped workers joined at the end
        // of `std::thread::scope` — must keep passing.
        let scoped = "pub fn run() {\n    std::thread::scope(|s| {\n        for _ in 0..4 {\n            s.spawn(|| {});\n        }\n    });\n}\n";
        assert!(rule_hits(&lint("engine", scoped)).is_empty());
    }

    #[test]
    fn thread_spawn_join_respects_allow_and_exemptions() {
        let allowed = "// lint:allow(thread-spawn-join) fire-and-forget logger, joined at shutdown\npub fn f() { std::thread::spawn(|| {}); }\n";
        let out = lint("ml", allowed);
        assert!(out.violations.is_empty());
        assert_eq!(out.allowed.len(), 1);
        let src = "pub fn f() { std::thread::spawn(|| {}); }\n";
        assert!(rule_hits(&lint("bench", src)).is_empty());
    }

    // -- contract rules -------------------------------------------------

    #[test]
    fn cost_batch_override_needs_width_guard() {
        let bad =
            "fn cost_batch(&self, rows: RowsView<'_>, out: &mut Vec<f64>) {\n    out.clear();\n}\n";
        assert_eq!(rule_hits(&lint("engine", bad)), vec!["cost-batch-guard"]);
        let good = "fn cost_batch(&self, rows: RowsView<'_>, out: &mut Vec<f64>) {\n    debug_assert_eq!(rows.width, self.width());\n    out.clear();\n}\n";
        assert!(rule_hits(&lint("engine", good)).is_empty());
        let decl = "fn cost_batch(&self, rows: RowsView<'_>, out: &mut Vec<f64>);\n";
        assert!(rule_hits(&lint("engine", decl)).is_empty());
    }

    #[test]
    fn raw_platform_usize_params_are_flagged() {
        let bad = "pub fn cost(platform: usize) -> f64 { platform as f64 }\n";
        assert_eq!(rule_hits(&lint("engine", bad)), vec!["platform-id"]);
        // Counts, typed ids, private fns, and robopt-platforms itself are fine.
        assert!(rule_hits(&lint("engine", "pub fn with(n_platforms: usize) {}\n")).is_empty());
        assert!(rule_hits(&lint(
            "engine",
            "pub fn cost(platform: PlatformId) -> f64 { 0.0 }\n"
        ))
        .is_empty());
        assert!(rule_hits(&lint(
            "engine",
            "fn cost(platform: usize) -> f64 { platform as f64 }\n"
        ))
        .is_empty());
        assert!(rule_hits(&lint("platforms", bad)).is_empty());
    }

    // -- manifests and docs ---------------------------------------------

    #[test]
    fn non_workspace_deps_are_flagged() {
        let tf = TextFile {
            rel: "crates/x/Cargo.toml".to_string(),
            text: "[package]\nname = \"x\"\n[dependencies]\nserde = \"1.0\"\nrobopt-plan = { workspace = true }\n[dev-dependencies]\nrand = { version = \"0.8\" }\n[lints]\nworkspace = true\n".to_string(),
        };
        let mut out = LintOutcome::default();
        check_manifest(&tf, &mut out);
        let lines: Vec<usize> = out.violations.iter().map(|d| d.line).collect();
        assert_eq!(rule_hits(&out), vec!["workspace-deps", "workspace-deps"]);
        assert_eq!(lines, vec![4, 7]);
    }

    #[test]
    fn packages_must_inherit_the_workspace_lints() {
        let manifest = |text: &str| {
            let tf = TextFile {
                rel: "crates/x/Cargo.toml".to_string(),
                text: text.to_string(),
            };
            let mut out = LintOutcome::default();
            check_manifest(&tf, &mut out);
            out
        };
        let bare = manifest("[package]\nname = \"x\"\n[lib]\npath = \"src/lib.rs\"\n");
        assert_eq!(rule_hits(&bare), vec!["crate-attrs"]);
        let opted_in = manifest("[package]\nname = \"x\"\n\n[lints]\nworkspace = true\n");
        assert!(opted_in.violations.is_empty(), "{:?}", opted_in.violations);
        // `workspace = true` under another table does not count.
        let elsewhere = manifest(
            "[package]\nname = \"x\"\n[dependencies]\ny = { workspace = true }\n[lints]\n",
        );
        assert_eq!(rule_hits(&elsewhere), vec!["crate-attrs"]);
        // A virtual manifest has no targets to lint.
        assert!(manifest("[workspace]\nmembers = [\"crates/*\"]\n")
            .violations
            .is_empty());
    }

    #[test]
    fn missing_artifacts_are_flagged_globs_skipped() {
        let tf = TextFile {
            rel: "CHANGES.md".to_string(),
            text: "wrote EXPERIMENTS_OUTPUT/definitely_missing.json and EXPERIMENTS_OUTPUT/*.txt\n"
                .to_string(),
        };
        let mut out = LintOutcome::default();
        check_doc(Path::new("/nonexistent-root"), &tf, &mut out);
        assert_eq!(rule_hits(&out), vec!["artifact-exists"]);
        assert!(out
            .violations
            .first()
            .is_some_and(|d| d.message.contains("definitely_missing.json")));
    }

    #[test]
    fn artifact_refs_extraction() {
        assert_eq!(
            artifact_refs("see EXPERIMENTS_OUTPUT/fig01.json. done"),
            vec!["EXPERIMENTS_OUTPUT/fig01.json"]
        );
        assert_eq!(
            artifact_refs("BENCH_enum_fast.json vs WORKBENCH_x.json"),
            vec!["BENCH_enum_fast.json"]
        );
        assert!(artifact_refs("model-*.json under EXPERIMENTS_OUTPUT/*.txt").is_empty());
    }
}

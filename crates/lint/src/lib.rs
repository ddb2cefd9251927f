//! `robopt-lint`: the workspace's in-tree static-analysis pass.
//!
//! The reproduction's headline claims — Lemma-1 lossless pruning,
//! bit-identical seeded training, the Algorithm-1 enumeration contract —
//! hold only because of *conventions*: seeded SplitMix64 everywhere,
//! `debug_assert`ed `CostOracle::width()` checks, no default-hasher
//! iteration anywhere results flow through. `clippy` cannot see any of
//! that. This crate is a dependency-free line/token-level scanner that
//! mechanically enforces those conventions on every CI run, so later PRs
//! cannot silently break them.
//!
//! * [`lexer`] — string/char/comment-aware line scanner (rules never fire
//!   inside literals or docs);
//! * [`workspace`] — file discovery, crate classification,
//!   `#[cfg(test)]` masking;
//! * [`parser`] — lightweight item parser: `fn` items, `impl`/`trait`
//!   blocks, `use` bindings;
//! * [`callgraph`] — the workspace-wide symbol-resolved call graph
//!   (conservative over-approximation through `&dyn` seams);
//! * [`taint`] — the interprocedural determinism-taint and
//!   panic-reachability passes;
//! * [`rules`] — the rule engine and the [`rules::RULES`] table;
//! * [`report`] — rustc-style diagnostics and the hand-rendered JSON
//!   report behind `--fix-report`.
//!
//! Suppression: a trailing or immediately preceding
//! `// lint:allow(<rule-id>) <justification>` comment — or one on the
//! enclosing fn's signature line — turns a violation into an audited
//! [`report::Suppression`]; empty justifications do not count. The
//! interprocedural passes additionally read
//! `// lint:surface(deterministic)` / `// lint:surface(no-panic)` markers
//! declaring the surface they protect.

pub mod callgraph;
pub mod lexer;
pub mod parser;
pub mod report;
pub mod rules;
pub mod taint;
pub mod workspace;

pub use callgraph::{CallGraph, GraphSummary};
pub use report::{Diagnostic, LintError, LintOutcome, Suppression};
pub use rules::{check, RULES};

use std::path::Path;

/// Lint the workspace rooted at `root`: load, classify, run every rule.
pub fn run_lint(root: &Path) -> Result<LintOutcome, LintError> {
    run_lint_graph(root).map(|(outcome, _)| outcome)
}

/// Like [`run_lint`], but also returns the call graph the interprocedural
/// passes ran over (for the `lint_callgraph.json` CI artifact).
pub fn run_lint_graph(root: &Path) -> Result<(LintOutcome, CallGraph), LintError> {
    let ws = workspace::load(root)?;
    let graph = callgraph::build(&ws);
    let outcome = rules::check_with_graph(&ws, &graph);
    Ok((outcome, graph))
}

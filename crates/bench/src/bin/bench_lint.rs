//! Bench `bench_lint`: one full `robopt-lint` workspace pass — load,
//! parse, call-graph construction, all 15 rules including the
//! interprocedural taint passes — timed end to end.
//!
//! The lint blocks CI on every push, so its latency is a developer-facing
//! budget: the pass must stay **well under 2 s** on the whole workspace
//! (DESIGN §13). Writes `BENCH_lint.json` (shared schema: `<prefix>_ms`,
//! `<prefix>_p95_ms`, `<prefix>_per_s`).

use std::fs;

use robopt_bench::{bench, repo_root};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let root = repo_root();
    let iters = if quick { 3 } else { 11 };
    let hw_threads = std::thread::available_parallelism().map_or(1, |n| n.get());

    // Warm pass: fail loudly (and skip the artifact) if the tree is dirty,
    // and capture the graph shape the timing below covers.
    let (outcome, graph) = robopt_lint::run_lint_graph(&root).expect("workspace loads");
    assert!(
        outcome.is_clean(),
        "workspace has lint violations; fix them before benchmarking"
    );
    let s = outcome.graph;

    let t = bench(1, iters, || {
        let (out, _) = robopt_lint::run_lint_graph(&root).expect("workspace loads");
        std::hint::black_box(out.violations.len());
    });

    println!(
        "lint/full_pass  median {:>9.2} ms  p95 {:>9.2} ms  ({} files, {} fns, {} edges)",
        t.median_ms(),
        t.p95_ms(),
        outcome.files_scanned,
        s.functions,
        s.edges
    );
    let budget_ok = t.p95_ms() < 2000.0;
    assert!(budget_ok, "lint pass breached its 2 s budget");

    let json = format!(
        "{{\n  \"experiment\": \"bench_lint\",\n  \"quick\": {quick},\n  \"iters\": {iters},\n\
         \x20 \"hw_threads\": {hw_threads},\n\
         \n  \"graph\": {{\"files\": {}, \"functions\": {}, \"edges\": {}, \"crates\": {}, \
         \"resolved_calls\": {}, \"external_calls\": {}, \"unresolved_calls\": {}}},\n\
         \n  \"full_pass\": {{\"lint_ms\": {:.6}, \"lint_p95_ms\": {:.6}, \"lint_per_s\": {:.3}, \
         \"budget_ms\": 2000.0, \"within_budget\": {budget_ok}}}\n}}\n",
        outcome.files_scanned,
        s.functions,
        graph.edge_count(),
        s.crates,
        s.resolved_calls,
        s.external_calls,
        s.unresolved_calls,
        t.median_ms(),
        t.p95_ms(),
        t.per_second(1),
    );
    fs::write(root.join("BENCH_lint.json"), json).expect("write BENCH_lint.json");
}

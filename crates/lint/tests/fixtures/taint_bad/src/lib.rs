//! Fixture facade: a declared no-panic service entry point whose handler
//! reaches a panic site two calls down. `self_check` expects `panic-reachability` to
//! flag `svc` with the full witness path.

// lint:surface(no-panic)
pub fn svc(input: &[u64]) -> u64 {
    step_a(input)
}

fn step_a(input: &[u64]) -> u64 {
    step_b(input)
}

fn step_b(input: &[u64]) -> u64 {
    input.first().copied().unwrap()
}

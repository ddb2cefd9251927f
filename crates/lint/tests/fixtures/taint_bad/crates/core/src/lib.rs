//! Fixture core: a declared deterministic entry point that reaches a
//! nondeterminism source two calls down. `self_check` expects `determinism-taint` to
//! flag `entry` with the full witness path.

// lint:surface(deterministic)
pub fn entry(x: u64) -> u64 {
    helper_mid(x)
}

fn helper_mid(x: u64) -> u64 {
    helper_leaf(x)
}

fn helper_leaf(x: u64) -> u64 {
    let w = std::thread::available_parallelism().map_or(1, |n| n.get()) as u64;
    x * w
}

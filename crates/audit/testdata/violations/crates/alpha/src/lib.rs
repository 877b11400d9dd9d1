//! Fixture crate `udi-alpha` (layer 0). Its own pub fns are *not* in the
//! panic-reachability root set — `risky` only matters because `udi-beta`
//! reaches it.

/// Clean helper, called by `udi-beta::flush`. Listed in the fixture
/// ratchet even though it is used — that entry must error as stale.
pub fn helper() {}

/// Panics; a reachability source for `udi-beta::entry`.
pub fn risky() -> u32 {
    Some(1).unwrap()
}

// udi-audit: allow(shared-mutable-static, "fixture: hot-path scaffolding")
static TALLY: std::sync::Mutex<u32> = std::sync::Mutex::new(0);

/// Declared poison-free in audit.toml but can panic while the guard is
/// live — the guard-range dataflow sees the held fact at the unwrap
/// (effect-cert error).
pub fn hot_tally(v: &[u32]) -> u32 {
    let g = TALLY.lock();
    let first = v.first().copied().unwrap();
    drop(g);
    first
}

/// Also declared poison-free, and genuinely so: `drop(g)` kills the
/// guard fact before the panic-capable call, so the certificate stays
/// clean — the analysis is path-sensitive, not token-counting.
pub fn safe_tally(v: &[u32]) -> u32 {
    let g = TALLY.lock();
    drop(g);
    v.first().copied().unwrap()
}

pub mod codec;
pub mod sink;

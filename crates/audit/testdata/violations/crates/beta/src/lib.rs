//! Fixture crate `udi-beta` (layer 1): one deliberate violation per
//! workspace pass. Expected diagnostics are asserted exactly in
//! `crates/audit/tests/fixture.rs` — keep the two in sync when editing.

// Statics for the concurrency and lock-order passes.

static CACHE: std::sync::Mutex<u32> = std::sync::Mutex::new(0);

// udi-audit: allow(shared-mutable-static, "fixture: lock-order scaffolding")
pub static A: std::sync::Mutex<i32> = std::sync::Mutex::new(0);
// udi-audit: allow(shared-mutable-static, "fixture: lock-order scaffolding")
pub static B: std::sync::Mutex<i32> = std::sync::Mutex::new(0);

/// Reaches `udi-alpha::risky`'s unwrap through `mid` — error with chain.
pub fn entry() -> u32 {
    mid()
}

fn mid() -> u32 {
    udi_alpha::risky()
}

/// Indexing is a panic site like any other — an error.
pub fn idx(v: &[u8]) -> u8 {
    v[0]
}

/// Takes `A` then `B` — one direction of the deadlock cycle.
pub fn take_ab() {
    let a = A.lock();
    let _b = B.lock();
    drop(a);
}

/// Takes `B`, then acquires `A` through `helper_ba` — the inverted
/// order closes the cycle interprocedurally. The cross-crate call while
/// holding `B` is fine on its own (the v2 heuristic would have flagged
/// it); only the acquisition order matters now.
pub fn take_ba() {
    let b = B.lock();
    helper_ba();
    udi_alpha::helper();
    drop(b);
}

fn helper_ba() {
    let _a = A.lock();
}

/// Declared deterministic in audit.toml but reaches a `HashMap` through
/// `seed` — the certification fails with chain and site.
pub fn certified() -> usize {
    seed()
}

fn seed() -> usize {
    let m: std::collections::HashMap<u32, u32> = std::collections::HashMap::new();
    m.len()
}

/// Fallible helper for the error-discard fixtures.
pub fn fallible() -> Result<(), ()> {
    Ok(())
}

/// `let _ =` discard — new debt, errors.
pub fn discards() {
    let _ = fallible();
}

/// Bare-statement discard, frozen in audit.ratchet — warning.
pub fn discards_old() {
    fallible();
}

// udi-audit: allow(effect-cert, "fixture: acknowledged root")
pub fn suppressed_root() -> u32 {
    udi_alpha::risky()
}

/// Dead: nothing in the fixture names this, and it is not ratcheted.
pub fn never_used() {}

/// Dead but frozen in audit.ratchet — downgraded to a warning.
pub fn old_debt() {}

// udi-audit: allow(float-eq, "fixture: stale directive, suppresses nothing")
fn quiet() {}

/// Declared lock-free in audit.toml but takes the cache mutex through
/// `lock_helper` — effect-cert error with chain and site.
pub fn hot_read() -> u32 {
    lock_helper()
}

fn lock_helper() -> u32 {
    let _g = CACHE.lock();
    7
}

/// Declared io-free but touches the filesystem through `io_helper`.
pub fn hot_plan(p: &str) -> usize {
    io_helper(p)
}

fn io_helper(p: &str) -> usize {
    match std::fs::read_to_string(p) {
        Ok(s) => s.len(),
        Err(_) => 0,
    }
}

/// Declared spawn-free and frozen in audit.ratchet — the spawn is
/// reported as a ratcheted warning, not an error.
pub fn hot_merge() -> u32 {
    match std::thread::spawn(|| 3).join() {
        Ok(v) => v,
        Err(_) => 0,
    }
}

/// Declared channel-free (violated below) *and* spawn-free (clean): the
/// spawn in the `#[cfg(test)]` module of this file must not leak into
/// the certificate.
pub fn hot_stream() -> u32 {
    let (tx, rx) = std::sync::mpsc::channel();
    tx.send(9).ok();
    rx.recv().unwrap_or(0)
}

/// Declared lock-free and io-free: the lock in `udi-alpha::sink` is
/// exempt, the file read in `udi-alpha::codec` is not (one error).
pub fn hot_render(x: f64) -> String {
    udi_alpha::sink::record();
    udi_alpha::codec::render_float(x)
}

/// Declared deterministic but reads the wall clock (and trips the local
/// no-raw-time lint on the same line).
pub fn certified_clock() -> u128 {
    std::time::Instant::now().elapsed().as_nanos()
}

/// Declared deterministic but reads the environment.
pub fn certified_env() -> bool {
    std::env::var("UDI_FIXTURE").is_ok()
}

#[cfg(test)]
mod tests {
    #[test]
    fn consumers() {
        // References keep the deliberate-violation fns live for the
        // dead-export pass (tests are legitimate consumers).
        let _ = (
            super::entry as fn() -> u32,
            super::idx as fn(&[u8]) -> u8,
            super::take_ab as fn(),
            super::take_ba as fn(),
            super::certified as fn() -> usize,
            super::discards as fn(),
            super::discards_old as fn(),
            super::suppressed_root as fn() -> u32,
            super::quiet as fn(),
        );
        let _ = &super::CACHE;
        let _ = (
            super::hot_read as fn() -> u32,
            super::hot_plan as fn(&str) -> usize,
            super::hot_merge as fn() -> u32,
            super::hot_stream as fn() -> u32,
            super::hot_render as fn(f64) -> String,
            super::certified_clock as fn() -> u128,
            super::certified_env as fn() -> bool,
            udi_alpha::hot_tally as fn(&[u32]) -> u32,
            udi_alpha::safe_tally as fn(&[u32]) -> u32,
        );
    }

    #[test]
    fn test_spawn_is_out_of_certificate_scope() {
        // A spawn inside #[cfg(test)] must not fail `hot_stream`'s
        // spawn-free budget — test code is excluded from effect inference.
        let h = std::thread::spawn(super::hot_stream);
        let _ = h.join();
    }
}

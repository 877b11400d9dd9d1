//! Fixture module `udi-alpha::sink`: named in audit.toml's effects
//! `blocking-exempt`, so its lock does not fail `udi-beta::hot_render`'s
//! lock-free certificate.

// udi-audit: allow(shared-mutable-static, "fixture: exempt sink registry")
static EVENTS: std::sync::Mutex<u32> = std::sync::Mutex::new(0);

/// Counts one event under the registry lock.
pub fn record() {
    if let Ok(mut g) = EVENTS.lock() {
        *g += 1;
    }
}

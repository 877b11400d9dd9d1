//! Fixture module `udi-alpha::codec`: a renderer on `udi-beta::hot_render`'s
//! path. audit.toml exempts `udi-alpha::sink` from effects, not this
//! module, so the file read below must fail the io-free certificate.

/// Renders a float, and reads a file it has no business touching.
pub fn render_float(x: f64) -> String {
    let extra = std::fs::read("render.cfg").map_or(0, |b| b.len());
    format!("{x:?}{extra}")
}

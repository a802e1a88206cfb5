// Fixture: the metrics-exporter shape — a library function whose entire
// purpose is writing the Prometheus text exposition to stdout. The
// stray-print finding must still be
// reported, carry the suppression reason, and not gate; the unsuppressed
// debug print below it must gate. Linted as if at crates/core/src/fixture.rs.

pub fn write_exposition(exposition: &str) {
    // ph-lint: allow(stray-print, the Prometheus text exposition IS this writer's output stream)
    println!("{exposition}");
}

pub fn debug_leak(rows: usize) {
    println!("scraped {rows} rows");
}

//! Layer spans for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around its calls into
//! each layer's public functions; the library crates carry no tracing. A
//! span adds its duration and one call to its layer's total. Worker-pool
//! sections also record their capacity (wall time x workers) and the time
//! their jobs were busy, which gives `pipeline.pool_busy_frac` and the
//! denominator of `trace.span_coverage`.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use embedstab_pipeline::pool::parallel_map;

#[derive(Default)]
struct Totals {
    layers: BTreeMap<String, (f64, u64)>,
    /// Worker-seconds offered by pool sections beyond the calling thread's.
    extra_capacity: f64,
    pool_capacity: f64,
    pool_busy: f64,
}

/// In-memory span totals, summarised when the run ends.
#[derive(Default)]
pub struct Spans {
    totals: Mutex<Totals>,
}

impl Spans {
    fn span_totals(&self) -> std::sync::MutexGuard<'_, Totals> {
        // Every update is a single addition, so the totals stay valid even
        // if a traced job panicked while holding the guard.
        self.totals.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Runs `f` inside a span of layer `name`.
    pub fn time<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.add(name, start.elapsed());
        out
    }

    /// Adds one call of `elapsed` to layer `name`.
    pub fn add(&self, name: &str, elapsed: Duration) {
        let mut t = self.span_totals();
        let entry = t.layers.entry(name.to_string()).or_default();
        entry.0 += elapsed.as_secs_f64();
        entry.1 += 1;
    }

    /// Total seconds spent in layer `name`.
    pub fn secs(&self, name: &str) -> f64 {
        self.span_totals().layers.get(name).map_or(0.0, |e| e.0)
    }

    /// Calls recorded for layer `name`.
    pub fn calls(&self, name: &str) -> u64 {
        self.span_totals().layers.get(name).map_or(0, |e| e.1)
    }

    /// Seconds summed over every layer whose name starts with `prefix`.
    pub fn secs_prefix(&self, prefix: &str) -> f64 {
        self.span_totals()
            .layers
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, e)| e.0)
            .sum()
    }

    /// [`parallel_map`] — the pipeline's own worker pool — with each job's
    /// busy time and the section's capacity recorded.
    pub fn pool<I: Sync, T: Send>(&self, items: &[I], f: impl Fn(&I) -> T + Sync) -> Vec<T> {
        let start = Instant::now();
        let out = parallel_map(items, |item| {
            let job = Instant::now();
            let r = f(item);
            let busy = job.elapsed().as_secs_f64();
            self.span_totals().pool_busy += busy;
            r
        });
        let wall = start.elapsed().as_secs_f64();
        let workers = crate::threads().min(items.len()).max(1) as f64;
        let mut t = self.span_totals();
        t.pool_capacity += wall * workers;
        t.extra_capacity += wall * (workers - 1.0);
        out
    }

    /// Share of pool capacity its jobs were busy (0 without pool sections).
    pub fn pool_busy_frac(&self) -> f64 {
        let t = self.span_totals();
        if t.pool_capacity > 0.0 {
            t.pool_busy / t.pool_capacity
        } else {
            0.0
        }
    }

    /// Worker-seconds pool sections offered beyond the calling thread's so
    /// far. A phase's worker capacity is its wall time plus the growth of
    /// this value over the phase.
    pub fn pool_extra(&self) -> f64 {
        self.span_totals().extra_capacity
    }

    /// Seconds summed over every layer.
    pub fn total(&self) -> f64 {
        self.span_totals().layers.values().map(|e| e.0).sum()
    }
}

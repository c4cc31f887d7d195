//! The metrics registry: named counters, gauges, and log-scale
//! histograms behind atomics.
//!
//! Registration (name → atomic cell) takes a lock once; the returned
//! handles are lock-free afterwards, so hot paths pay one atomic add per
//! update. Snapshots and renderings are **deterministically sorted by
//! key** (the registry stores names in `BTreeMap`s), so diffs and
//! snapshot assertions are stable across runs.

use crate::sync::Unpoisoned;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

// ---------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------

/// A log₂-bucketed histogram of `u64` samples: bucket *i* counts values
/// whose bit length is *i* (value 0 lands in bucket 0). Recording is one
/// atomic add; quantiles are approximate (bucket upper bounds), which is
/// all straggler analysis needs.
pub struct Histogram {
    buckets: [AtomicU64; 65],
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    pub fn new() -> Histogram {
        Histogram::default()
    }

    fn bucket_of(value: u64) -> usize {
        (64 - value.leading_zeros()) as usize
    }

    /// Upper bound of bucket `i` (inclusive).
    fn bucket_upper(i: usize) -> u64 {
        match i {
            0 => 0,
            1..=63 => (1u64 << i) - 1,
            _ => u64::MAX,
        }
    }

    pub fn record(&self, value: u64) {
        self.buckets[Self::bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Approximate quantile `q` in `[0, 1]`: the upper bound of the
    /// bucket containing the q-th sample. `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let n = self.count();
        if n == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return Some(Self::bucket_upper(i));
            }
        }
        Some(Self::bucket_upper(64))
    }

    /// Non-empty buckets as `(upper_bound, count)`, low to high.
    pub fn snapshot(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let c = b.load(Ordering::Relaxed);
                (c > 0).then_some((Self::bucket_upper(i), c))
            })
            .collect()
    }
}

// ---------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------

#[derive(Default)]
struct RegistryInner {
    counters: RwLock<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: RwLock<BTreeMap<String, Arc<AtomicI64>>>,
    histograms: RwLock<BTreeMap<String, Arc<Histogram>>>,
}

/// The registry: a concurrent namespace of counters, gauges, and
/// histograms. Cheap to clone (`Arc` inside); clones share state.
#[derive(Clone, Default)]
pub struct MetricsRegistry {
    inner: Arc<RegistryInner>,
}

/// Lock-free handle to one counter cell.
#[derive(Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    pub fn add(&self, delta: u64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Lock-free handle to one gauge cell (a settable signed level, e.g.
/// "tasks currently running").
#[derive(Clone)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    pub fn set(&self, value: i64) {
        self.0.store(value, Ordering::Relaxed);
    }

    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

impl MetricsRegistry {
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Get-or-create the counter `name`.
    pub fn counter(&self, name: &str) -> Counter {
        if let Some(c) = self.inner.counters.read().unpoisoned().get(name) {
            return Counter(c.clone());
        }
        let mut w = self.inner.counters.write().unpoisoned();
        Counter(w.entry(name.to_string()).or_default().clone())
    }

    /// Get-or-create the gauge `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        if let Some(g) = self.inner.gauges.read().unpoisoned().get(name) {
            return Gauge(g.clone());
        }
        let mut w = self.inner.gauges.write().unpoisoned();
        Gauge(w.entry(name.to_string()).or_default().clone())
    }

    /// Get-or-create the histogram `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        if let Some(h) = self.inner.histograms.read().unpoisoned().get(name) {
            return h.clone();
        }
        let mut w = self.inner.histograms.write().unpoisoned();
        w.entry(name.to_string()).or_default().clone()
    }

    /// Add `delta` to counter `name`.
    pub fn add(&self, name: &str, delta: u64) {
        self.counter(name).add(delta);
    }

    /// Current value of counter `name` (0 if never touched; a read does
    /// not create it).
    pub fn get(&self, name: &str) -> u64 {
        self.inner
            .counters
            .read().unpoisoned()
            .get(name)
            .map_or(0, |c| c.load(Ordering::Relaxed))
    }

    /// Add every non-zero counter of `other` into this registry's.
    pub fn merge(&self, other: &MetricsRegistry) {
        for (k, v) in other.counter_snapshot() {
            if v > 0 {
                self.add(&k, v);
            }
        }
    }

    /// All counters, sorted by name.
    pub fn counter_snapshot(&self) -> Vec<(String, u64)> {
        self.inner
            .counters
            .read().unpoisoned()
            .iter()
            .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
            .collect()
    }

    /// All gauges, sorted by name.
    pub fn gauge_snapshot(&self) -> Vec<(String, i64)> {
        self.inner
            .gauges
            .read().unpoisoned()
            .iter()
            .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
            .collect()
    }

    /// One line per metric, sorted by key — stable for snapshot tests.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (k, v) in self.counter_snapshot() {
            out.push_str(&format!("counter {k} = {v}\n"));
        }
        for (k, v) in self.gauge_snapshot() {
            out.push_str(&format!("gauge {k} = {v}\n"));
        }
        let hists = self.inner.histograms.read().unpoisoned();
        for (k, h) in hists.iter() {
            out.push_str(&format!(
                "histogram {k} count={} sum={} p50≤{} p95≤{} max≤{}\n",
                h.count(),
                h.sum(),
                h.quantile(0.5).unwrap_or(0),
                h.quantile(0.95).unwrap_or(0),
                h.quantile(1.0).unwrap_or(0),
            ));
        }
        out
    }
}

/// The Hadoop job-counter bag the engine threads through every task:
/// the registry's counters.
pub type Counters = MetricsRegistry;

/// The counters, sorted by key.
impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries(self.counter_snapshot()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_add_get_snapshot() {
        let c = Counters::new();
        c.add("a", 5);
        c.add("a", 2);
        c.add("b", 1);
        assert_eq!(c.get("a"), 7);
        assert_eq!(c.get("missing"), 0);
        assert_eq!(
            c.counter_snapshot(),
            vec![("a".to_string(), 7), ("b".to_string(), 1)]
        );
    }

    #[test]
    fn counters_merge_sums() {
        let a = Counters::new();
        let b = Counters::new();
        a.add("x", 1);
        b.add("x", 2);
        b.add("y", 3);
        a.merge(&b);
        assert_eq!(a.get("x"), 3);
        assert_eq!(a.get("y"), 3);
    }

    #[test]
    fn counters_concurrent_adds() {
        let c = Counters::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.add("n", 1);
                    }
                });
            }
        });
        assert_eq!(c.get("n"), 8000);
    }

    #[test]
    fn render_is_deterministically_sorted() {
        // Insertion order must not matter: two bags with the same
        // contents render byte-identically.
        let a = Counters::new();
        a.add("zeta", 1);
        a.add("alpha", 2);
        a.add("mid.key", 3);
        let b = Counters::new();
        b.add("mid.key", 3);
        b.add("alpha", 2);
        b.add("zeta", 1);
        assert_eq!(a.render(), b.render());
        let rendered = a.render();
        let keys: Vec<&str> = rendered.lines().map(|l| l.split(" = ").next().unwrap()).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted, "render must be key-sorted");
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "Debug must be key-sorted too");
    }

    #[test]
    fn gauge_set_and_add() {
        let r = MetricsRegistry::new();
        let g = r.gauge("slots.busy");
        g.set(4);
        g.add(-1);
        assert_eq!(g.get(), 3);
        assert_eq!(r.gauge_snapshot(), vec![("slots.busy".to_string(), 3)]);
    }

    #[test]
    fn histogram_quantiles() {
        let h = Histogram::new();
        for v in [1u64, 2, 3, 4, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 1110);
        // p50 of six samples = 3rd sample (value 3) → bucket upper 3.
        assert_eq!(h.quantile(0.5), Some(3));
        // max bucket for 1000 is [512, 1023].
        assert_eq!(h.quantile(1.0), Some(1023));
        assert_eq!(Histogram::new().quantile(0.5), None);
    }

    #[test]
    fn histogram_zero_and_large() {
        let h = Histogram::new();
        h.record(0);
        h.record(u64::MAX);
        assert_eq!(h.count(), 2);
        assert_eq!(h.quantile(0.0), Some(0));
    }

    #[test]
    fn registry_render_sorted_and_stable() {
        let r = MetricsRegistry::new();
        r.counter("b").add(1);
        r.counter("a").add(2);
        r.gauge("g").set(-5);
        r.histogram("h").record(7);
        let s = r.render();
        let ca = s.find("counter a").unwrap();
        let cb = s.find("counter b").unwrap();
        assert!(ca < cb);
        assert!(s.contains("gauge g = -5"));
        assert!(s.contains("histogram h count=1"));
    }
}

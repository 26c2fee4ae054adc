//! Measurement plumbing: percentiles, named metrics, per-layer timing
//! and the in-memory span log of the traced run.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Linear-interpolated quantile of an ascending slice (`q` in `[0, 1]`).
pub fn quantile(sorted: &[u64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0] as f64,
        n => {
            let pos = q * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            let frac = pos - lo as f64;
            sorted[lo] as f64 * (1.0 - frac) + sorted[hi] as f64 * frac
        }
    }
}

/// The percentiles reported for a latency distribution.
const PERCENTILES: [(f64, &str); 3] = [
    (0.50, "latency_p50_ms"),
    (0.95, "latency_p95_ms"),
    (0.99, "latency_p99_ms"),
];

/// The reported percentiles of unsorted samples, in ns.
pub fn percentiles(mut samples: Vec<u64>) -> [f64; 3] {
    samples.sort_unstable();
    PERCENTILES.map(|(q, _)| quantile(&samples, q))
}

/// Sets each latency percentile (in ms) as its median over `parts`:
/// the windows or rounds a run is split into.
pub fn latency_metrics(e2e: &mut Metrics, parts: &[[f64; 3]]) {
    for (i, (_, name)) in PERCENTILES.iter().enumerate() {
        let values: Vec<f64> = parts.iter().map(|p| p[i] / 1e6).collect();
        e2e.set(name, median(&values), "ms");
    }
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

pub fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Peak resident set of this process in MiB (`VmHWM`), or 0 when the
/// platform does not expose it.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Polls `cond`, yielding the processor in between, until it holds or
/// `timeout` passes. Yielding rather than sleeping keeps waits (and so
/// set-up times) from being quantized to the timer's resolution.
pub fn wait_until(
    what: &str,
    timeout: Duration,
    mut cond: impl FnMut() -> bool,
) -> Result<(), String> {
    let deadline = Instant::now() + timeout;
    while !cond() {
        if Instant::now() >= deadline {
            return Err(format!("timed out after {timeout:?} waiting for {what}"));
        }
        std::thread::yield_now();
    }
    Ok(())
}

/// Times of one set-up: total, and (when it installs queries) install
/// and weave.
pub struct SetupTimes {
    pub total_s: f64,
    pub install_ms: f64,
    pub weave_ms: f64,
}

/// Sets the end-to-end `setup_s` and the per-layer install and weave
/// times: each the median over `setups`.
pub fn setup_metrics(e2e: &mut Metrics, layers: &mut Metrics, setups: &[SetupTimes]) {
    let med = |f: fn(&SetupTimes) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());
    e2e.set("setup_s", med(|s| s.total_s), "s");
    layers.set("query.install_ms", med(|s| s.install_ms), "ms");
    layers.set("query.weave_ms", med(|s| s.weave_ms), "ms");
}

/// Named metrics in insertion order, each with its unit.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        match self.0.iter_mut().find(|(n, _, _)| n == name) {
            Some(entry) => *entry = (name.to_owned(), value, unit),
            None => self.0.push((name.to_owned(), value, unit)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }

    pub fn iter(&self) -> impl Iterator<Item = &(String, f64, &'static str)> {
        self.0.iter()
    }
}

/// Durations of one layer's calls. `calls` counts every call; `ns`
/// holds the timed ones (all of them, or every n-th on a hot path).
#[derive(Default, Clone)]
pub struct Layer {
    pub calls: u64,
    pub ns: Vec<u64>,
}

impl Layer {
    pub fn merge(&mut self, other: Layer) {
        self.calls += other.calls;
        self.ns.extend(other.ns);
    }

    fn sorted(&self) -> Vec<u64> {
        let mut v = self.ns.clone();
        v.sort_unstable();
        v
    }

    /// Total time in the layer, scaling the timed calls up to all calls.
    pub fn busy_ns(&self) -> f64 {
        if self.ns.is_empty() {
            return 0.0;
        }
        let timed: u64 = self.ns.iter().sum();
        timed as f64 * self.calls as f64 / self.ns.len() as f64
    }
}

/// One span of the traced run. Times are nanoseconds since the run's
/// epoch; `parent` and `req` are 0 when absent.
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub req: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A thread's span log and layer timings. Span ids are unique per
/// thread tag, so logs from several threads merge without clashes.
pub struct Tracer {
    epoch: Instant,
    next_id: u64,
    pub spans: Vec<Span>,
    pub layers: BTreeMap<&'static str, Layer>,
}

impl Tracer {
    pub fn new(epoch: Instant, tag: u64) -> Tracer {
        Tracer {
            epoch,
            next_id: (tag << 40) | 1,
            spans: Vec::new(),
            layers: BTreeMap::new(),
        }
    }

    /// Counts a call to `name` without timing it.
    pub fn count(&mut self, name: &'static str) {
        self.layers.entry(name).or_default().calls += 1;
    }

    /// Records a timed call to `name`; with `keep` it is also logged as
    /// a span. Returns the span id (for children), or 0 if not kept.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: u64,
        req: u64,
        keep: bool,
    ) -> u64 {
        self.count(name);
        self.time(name, start, end, parent, req, keep)
    }

    /// Times a call that is counted elsewhere: hot paths count every
    /// call but time only every n-th.
    pub fn sample(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        req: u64,
        keep: bool,
    ) {
        self.time(name, start, end, 0, req, keep);
    }

    fn time(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: u64,
        req: u64,
        keep: bool,
    ) -> u64 {
        self.layers
            .entry(name)
            .or_default()
            .ns
            .push(nanos(end - start));
        if !keep {
            return 0;
        }
        let id = self.next_id;
        self.next_id += 1;
        self.spans.push(Span {
            id,
            parent,
            req,
            name,
            start_ns: nanos(start.saturating_duration_since(self.epoch)),
            end_ns: nanos(end.saturating_duration_since(self.epoch)),
        });
        id
    }

    pub fn absorb(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
        for (name, layer) in other.layers {
            self.layers.entry(name).or_default().merge(layer);
        }
    }

    pub fn layer(&self, name: &str) -> Layer {
        self.layers.get(name).cloned().unwrap_or_default()
    }

    /// The span log as JSON lines.
    pub fn spans_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            out.push_str(&format!(
                "{{\"id\":{},\"parent\":{},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}\n",
                s.id, s.parent, s.req, s.name, s.start_ns, s.end_ns
            ));
        }
        out
    }
}

/// Sets the usual per-layer timing metrics of `layer` under `name`:
/// p50/p99 in `unit` ("ns" or "us") and total self time in seconds.
/// Every layer timed here is a leaf of the span tree (no child spans),
/// so its self time is its whole duration.
pub fn layer_metrics(out: &mut Metrics, name: &str, layer: &Layer, unit: &'static str) {
    let scale = if unit == "us" { 1e3 } else { 1.0 };
    let sorted = layer.sorted();
    out.set(
        &format!("{name}.{unit}_p50"),
        quantile(&sorted, 0.50) / scale,
        unit,
    );
    out.set(
        &format!("{name}.{unit}_p99"),
        quantile(&sorted, 0.99) / scale,
        unit,
    );
    out.set(&format!("{name}.self_s"), layer.busy_ns() / 1e9, "s");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [10, 20, 30, 40, 50];
        assert_eq!(quantile(&v, 0.5), 30.0);
        assert_eq!(quantile(&v, 0.0), 10.0);
        assert_eq!(quantile(&v, 1.0), 50.0);
        assert_eq!(quantile(&v, 0.125), 15.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
    }

    #[test]
    fn strided_samples_scale_busy_time() {
        let epoch = Instant::now();
        let mut t = Tracer::new(epoch, 1);
        for _ in 0..8 {
            t.count("tp");
        }
        let later = epoch + Duration::from_nanos(100);
        t.sample("tp", epoch, later, 0, false);
        t.sample("tp", epoch, later, 8, false);
        let l = t.layer("tp");
        assert_eq!(l.calls, 8);
        assert_eq!(l.busy_ns(), 800.0);
    }
}

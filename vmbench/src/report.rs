//! What one benchmark process hands to the runner: metric samples, the
//! operation tally and the output checks, as one JSON line; and the
//! benchmark-side span recorder of the traced pass.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Samples of one metric. The runner reports their median, their spread
/// and `n`, the number of observations behind them (a percentile built
/// from 1600 latencies is one sample with `n` = 1600).
struct Metric {
    unit: &'static str,
    values: Vec<f64>,
    n: u64,
}

#[derive(Default)]
pub struct Report {
    metrics: BTreeMap<String, Metric>,
    /// Operations attempted (orders, or live requests).
    pub attempted: u64,
    /// Operations an output check found wrong.
    pub failed: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
    /// Free-form lines printed ahead of the result.
    pub notes: Vec<String>,
}

impl Report {
    /// Record a metric from repeated measurements.
    pub fn samples(&mut self, name: impl Into<String>, unit: &'static str, values: Vec<f64>) {
        let n = values.len() as u64;
        self.metrics.insert(name.into(), Metric { unit, values, n });
    }

    /// Record a metric measured once over `n` observations.
    pub fn value(&mut self, name: impl Into<String>, unit: &'static str, value: f64, n: u64) {
        self.metrics.insert(
            name.into(),
            Metric {
                unit,
                values: vec![value],
                n,
            },
        );
    }

    /// An output check: when it fails, the `affected` operations count
    /// as failed and the run is marked incorrect.
    pub fn check(&mut self, ok: bool, affected: u64, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += affected.max(1);
            self.failures.push(what());
        }
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"failures\": [",
            self.failures.is_empty(),
            self.attempted,
            self.failed
        );
        for (i, f) in self.failures.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&json_string(f));
        }
        out.push_str("], \"metrics\": {");
        for (i, (name, m)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let values: Vec<String> = m.values.iter().map(|&v| json_number(v)).collect();
            let _ = write!(
                out,
                "{}: {{\"unit\": {}, \"n\": {}, \"values\": [{}]}}",
                json_string(name),
                json_string(m.unit),
                m.n,
                values.join(", ")
            );
        }
        out.push_str("}}");
        out
    }
}

/// A finite number in full precision; `null` for NaN or infinity (the
/// runner treats a missing value as a failed measurement).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Median of `values` (NaN when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linearly interpolated quantile, `q` in `[0, 1]` (NaN when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Peak resident memory of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// A fixed integer loop, timed: the machine's speed beside the results,
/// so absolute rates from two machines can be compared.
pub fn calibration_ms() -> f64 {
    let start = Instant::now();
    let mut x: u64 = 0x2545_F491_4F6C_DD1D;
    for _ in 0..50_000_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    start.elapsed().as_secs_f64() * 1e3
}

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// Host-time spans the benchmark records around its calls into each
/// layer: kept in memory, written out when the run ends.
pub struct Tracer {
    origin: Instant,
    workload: &'static str,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(workload: &'static str) -> Tracer {
        Tracer {
            origin: Instant::now(),
            workload,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) {
        let span = Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
        };
        self.open.push(self.spans.len());
        self.spans.push(span);
    }

    /// Close the innermost open span.
    pub fn end(&mut self) {
        let id = self.open.pop().expect("end without begin");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Record a call timed by the caller as a leaf span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        let span = Span {
            name,
            start_ns: at(start),
            end_ns: at(end),
            parent: self.open.last().copied(),
        };
        self.spans.push(span);
    }

    /// Time one call as a leaf span.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.begin(name);
        let r = std::hint::black_box(f());
        self.end();
        r
    }

    /// Durations of every span named `name`, microseconds.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    }

    /// Per span name: (calls, total µs, self µs). Self time is a span's
    /// duration minus the time its direct children cover (children of one
    /// parent never overlap: the recorder is single-threaded).
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, f64, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let total = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += total as f64 / 1e3;
            e.2 += total.saturating_sub(child) as f64 / 1e3;
        }
        out
    }

    /// One JSON object per span: id, parent, name, workload, start and
    /// end in nanoseconds since the recorder started.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {id}, \"parent\": {parent}, \"name\": {}, \"workload\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                json_string(s.name),
                json_string(self.workload),
                s.start_ns,
                s.end_ns
            );
        }
        out
    }
}

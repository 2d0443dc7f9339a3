//! Spans recorded by the benchmark around its calls into each layer, and the
//! per-layer sums folded from them and from the `ActionRecord`s every request
//! already returns.
//!
//! Nothing here reaches inside `xaas` or `xaas-container`: a span covers one
//! public call (`Session::submit`, `*Request::analyze`, the service builder's
//! `try_build`), and engine and cache figures come from the request's own
//! `ActionTrace`.

use std::collections::BTreeMap;
use std::time::Instant;
use xaas::prelude::*;

/// One timed call, on the benchmark's monotonic clock.
#[derive(Debug, Clone)]
pub struct Span {
    /// Request the span belongs to (shared by every span of one request).
    pub request: u64,
    /// `<layer>.<call>`, e.g. `service.submit`.
    pub name: &'static str,
    /// Index of the enclosing span in the same recorder, if any.
    pub parent: Option<usize>,
    /// Nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the recorder's epoch; `0` while open.
    pub end_ns: u64,
}

impl Span {
    pub fn micros(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e3
    }
}

/// Per-client recorder: spans plus per-layer sums. A recorder that is off
/// does nothing, which is how the end-to-end runs measure.
pub struct Recorder {
    enabled: bool,
    counting: bool,
    epoch: Instant,
    /// Spans in the order they opened.
    pub spans: Vec<Span>,
    open: Vec<usize>,
    /// Sums over every folded request; divided by `requests` when reported.
    pub sums: BTreeMap<String, f64>,
    /// Requests folded into `sums`.
    pub requests: u64,
    /// The first folded request and its action traces, for the breakdown table.
    pub example: Option<(u64, Vec<ActionTrace>)>,
}

/// A span id handed out by [`Recorder::begin`]; `None` while tracing is off.
pub type SpanId = Option<usize>;

impl Recorder {
    /// A recorder that records nothing.
    pub fn off() -> Self {
        Self::new(false, false, Instant::now())
    }

    /// A recording recorder; with `counting`, it also folds backend counter
    /// deltas, which is only meaningful while one client owns the service.
    pub fn new(enabled: bool, counting: bool, epoch: Instant) -> Self {
        Self {
            enabled,
            counting: enabled && counting,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
            sums: BTreeMap::new(),
            requests: 0,
            example: None,
        }
    }

    pub fn counting(&self) -> bool {
        self.counting
    }

    /// Open a span, nested in the innermost open span.
    pub fn begin(&mut self, request: u64, name: &'static str) -> SpanId {
        if !self.enabled {
            return None;
        }
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            request,
            name,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: 0,
        });
        let index = self.spans.len() - 1;
        self.open.push(index);
        Some(index)
    }

    /// Close `id` and return its length in microseconds (0 when tracing is off).
    pub fn end(&mut self, id: SpanId) -> f64 {
        let Some(index) = id else { return 0.0 };
        self.spans[index].end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.open.retain(|&open| open != index);
        self.spans[index].micros()
    }

    /// Time `call` as a span named `name`.
    pub fn span<T>(&mut self, request: u64, name: &'static str, call: impl FnOnce() -> T) -> T {
        let id = self.begin(request, name);
        let out = call();
        self.end(id);
        out
    }

    pub fn add(&mut self, metric: impl Into<String>, value: f64) {
        if self.enabled {
            *self.sums.entry(metric.into()).or_insert(0.0) += value;
        }
    }

    /// Fold one request's engine and cache records into the sums.
    pub fn fold_trace(&mut self, request: u64, trace: &ActionTrace) {
        if !self.enabled {
            return;
        }
        let example = self.example.get_or_insert_with(|| (request, Vec::new()));
        if example.0 == request {
            example.1.push(trace.clone());
        }
        self.add("engine.actions", trace.records.len() as f64);
        self.add("engine.stage_depth", trace.stage_depth as f64);
        for record in &trace.records {
            let kind = record.kind.as_str();
            let (executed, cached) = if record.cached {
                (0.0, 1.0)
            } else {
                (1.0, 0.0)
            };
            self.add("engine.executed", executed);
            self.add("engine.cached", cached);
            self.add("engine.queue_wait_us", record.queue_wait_micros as f64);
            self.add("engine.parked_us", record.parked_micros as f64);
            self.add("engine.parks", record.parks as f64);
            self.add(format!("engine.{kind}.executed"), executed);
            self.add(format!("engine.{kind}.cached"), cached);
            self.add(format!("engine.{kind}.exec_us"), record.exec_micros as f64);
            self.add(
                format!("engine.{kind}.queue_wait_us"),
                record.queue_wait_micros as f64,
            );
            if record.key_digest.is_none() {
                continue;
            }
            self.add("cache.lookups", 1.0);
            if !record.cached {
                self.add("cache.misses", 1.0);
                continue;
            }
            if record.coalesced {
                self.add("cache.coalesced", 1.0);
            }
            let tier = match record.hit_tier {
                Some(CacheTier::Disk) => "disk",
                Some(CacheTier::Remote) => "remote",
                Some(CacheTier::Memory) | None => "memory",
            };
            self.add(format!("cache.hits.{tier}"), 1.0);
            self.add(
                format!("cache.hit_sum_us.{tier}"),
                record.exec_micros as f64,
            );
        }
    }

    /// Fold backend counter deltas (service, cache, store, disk tier) taken
    /// around one request. Only meaningful when no other client shares the
    /// service, which is how the counter pass runs.
    pub fn fold_backend(&mut self, before: &Backend, after: &Backend) {
        if !self.counting {
            return;
        }
        for (name, value) in after.delta(before) {
            self.add(name, value);
        }
    }

    pub fn merge(&mut self, other: Recorder) {
        for (name, value) in other.sums {
            *self.sums.entry(name).or_insert(0.0) += value;
        }
        self.requests += other.requests;
        if self.example.is_none() {
            self.example = other.example;
        }
    }

    /// Per-request mean of a summed metric.
    pub fn mean(&self, name: &str) -> f64 {
        self.sums.get(name).copied().unwrap_or(0.0) / self.requests.max(1) as f64
    }

    /// Mean lookup-plus-fetch time of one hit served by `tier`.
    pub fn hit_us(&self, tier: &str) -> f64 {
        let hits = self
            .sums
            .get(&format!("cache.hits.{tier}"))
            .copied()
            .unwrap_or(0.0);
        let sum = self
            .sums
            .get(&format!("cache.hit_sum_us.{tier}"))
            .copied()
            .unwrap_or(0.0);
        if hits > 0.0 {
            sum / hits
        } else {
            0.0
        }
    }
}

/// Backend counters read through public stats calls.
#[derive(Debug, Clone, Default)]
pub struct Backend {
    pub admitted: u64,
    pub refused: u64,
    pub promotions: u64,
    pub store: StoreStats,
    pub disk: DiskTierStats,
}

impl Backend {
    pub fn read(service: &OrchestratorService) -> Self {
        let stats = service.stats();
        let orch = service.orchestrator();
        Self {
            admitted: stats.admitted,
            refused: stats.backpressured + stats.rejected + stats.refused_draining,
            promotions: service.cache_stats().promotions,
            store: service.store().stats(),
            disk: orch
                .tiered_cache()
                .and_then(|tiers| tiers.disk_stats())
                .unwrap_or_default(),
        }
    }

    fn delta(&self, before: &Backend) -> [(&'static str, f64); 11] {
        let d = |after: u64, before: u64| after as f64 - before as f64;
        [
            ("service.admitted", d(self.admitted, before.admitted)),
            ("service.refused", d(self.refused, before.refused)),
            ("cache.promotions", d(self.promotions, before.promotions)),
            (
                "store.digests_computed",
                d(self.store.digests_computed, before.store.digests_computed),
            ),
            (
                "store.dedup_hits",
                d(self.store.dedup_hits, before.store.dedup_hits),
            ),
            (
                "store.blob_count",
                d(self.store.blob_count as u64, before.store.blob_count as u64),
            ),
            (
                "store.total_bytes",
                d(self.store.total_bytes, before.store.total_bytes),
            ),
            (
                "cache.disk.entries",
                d(self.disk.entries as u64, before.disk.entries as u64),
            ),
            ("cache.disk.bytes", d(self.disk.bytes, before.disk.bytes)),
            (
                "cache.disk.stale_drops",
                d(self.disk.stale_drops, before.disk.stale_drops),
            ),
            (
                "cache.disk.lock_waits",
                d(self.disk.lock_waits, before.disk.lock_waits),
            ),
        ]
    }
}

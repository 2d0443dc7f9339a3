//! `perfbench`: the repository's benchmark of the XaaS build/deploy service.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload deploy-warm --seed 1 --seconds 10 --trace 0
//! ```
//!
//! One run sets the workload up from the seed, serves a fixed number of
//! requests (for the peak memory figure), then drives the workload with a
//! closed loop of at most `nproc` client threads for `--seconds`, timing
//! further set-ups between its measuring windows. It checks every output
//! outside the timed windows, and repeats a short fixed-length pass on two
//! fresh set-ups to check that the work counters are deterministic. The last
//! line of standard output is a JSON object with the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics (`--trace 1`). The workloads, and
//! which layer metric should move which end-to-end metric, are described in
//! `perfbench/README.md`.

mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};
use trace::{Recorder, Span};
use workloads::{Done, Output, Scratch, Workload};
use xaas::prelude::*;

/// Set-ups per end-to-end run, spread over the timed phase; `setup_s` is the
/// median of the quietest.
const SETUP_RUNS: usize = 21;
/// Requests in each pass of the determinism check.
const COUNTER_REQUESTS: u64 = 24;
/// Requests served before the timed phase; `peak_rss_mb` is read after them.
const RSS_REQUESTS: u64 = 256;
/// Requests per client in each chunk of that fixed pass.
const CHUNK_REQUESTS: u64 = 8;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace {value}: expected 0 or 1")),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (one of {:?})",
            workloads::NAMES
        ));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} is outside (0, 600]"));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// Bounds of one measuring window. Outputs are checked, then dropped,
/// between windows, so the outputs held for checking stay few whatever the
/// throughput.
const WINDOW_S: f64 = 0.1;
const WINDOW_REQUESTS: usize = 128;

/// One timed phase, measured in windows.
struct Phase {
    /// Summed wall time of the windows.
    wall_s: f64,
    windows: Vec<Window>,
    attempted: usize,
    /// Latencies of the requests that succeeded in untraced windows, in
    /// milliseconds.
    latencies_ms: Vec<f64>,
    /// Failed requests: errors, refusals and outputs that fail their check.
    failures: Vec<String>,
    /// The traced windows' spans and sums.
    rec: Recorder,
    /// Images of the first successful request.
    example: Vec<Image>,
    /// Wall time and CPU steal of each set-up made between windows.
    setups: Vec<(f64, f64)>,
}

/// What one window measured.
struct Window {
    /// Whether the window's requests were traced.
    traced: bool,
    /// Completed requests per second.
    rps: f64,
    p50_ms: f64,
    p90_ms: f64,
    /// Share of the host's CPU time stolen by the hypervisor meanwhile.
    steal: f64,
}

/// The reported figures are medians over the quietest windows: the eighth
/// (at least 8) with the least CPU steal, and every window that ties with
/// them. On a shared virtual machine, steal slows a window by up to a third;
/// on a host without steal every window ties and all of them count.
impl Phase {
    /// Median of `field` over the quietest untraced (or traced) windows.
    fn figure(&self, traced: bool, field: fn(&Window) -> f64) -> f64 {
        let windows: Vec<&Window> = self
            .windows
            .iter()
            .filter(|window| window.traced == traced)
            .collect();
        median(
            &mut quietest(&windows, |window| window.steal)
                .into_iter()
                .map(|window| field(window))
                .collect::<Vec<_>>(),
        )
    }
}

/// The eighth of `items` (at least 8) with the smallest `steal`, and every
/// item that ties with them.
fn quietest<T>(items: &[T], steal: impl Fn(&T) -> f64) -> Vec<&T> {
    let mut steals: Vec<f64> = items.iter().map(&steal).collect();
    steals.sort_by(f64::total_cmp);
    let keep = (items.len() / 8).max(items.len().min(8));
    let Some(&limit) = steals.get(keep.saturating_sub(1)) else {
        return Vec::new();
    };
    items.iter().filter(|item| steal(item) <= limit).collect()
}

/// Cumulative CPU time of the host, from the first line of `/proc/stat`.
#[derive(Clone, Copy)]
struct CpuTicks {
    steal: u64,
    total: u64,
}

impl CpuTicks {
    /// `None` where `/proc/stat` is missing; steal then reads 0.
    fn read() -> Option<Self> {
        let stat = std::fs::read_to_string("/proc/stat").ok()?;
        let ticks: Vec<u64> = stat
            .lines()
            .next()?
            .split_whitespace()
            .skip(1)
            .map(|field| field.parse().unwrap_or(0))
            .collect();
        Some(Self {
            steal: *ticks.get(7)?,
            total: ticks.iter().sum(),
        })
    }

    /// Share of the CPU time since `before` that was stolen.
    fn steal_since(before: Option<Self>) -> f64 {
        match (before, Self::read()) {
            (Some(before), Some(now)) if now.total > before.total => {
                (now.steal - before.steal) as f64 / (now.total - before.total) as f64
            }
            _ => 0.0,
        }
    }
}

/// Makes set-up number `run` and returns its wall time and CPU steal.
type SetUp<'a> = &'a dyn Fn(usize) -> Result<(f64, f64), String>;

/// Drive `workload` closed-loop for `seconds`: each client sends its next
/// request once the previous one returned. With `tracing`, every other
/// window is traced, so traced and untraced windows share the host's drift
/// and the cache's growth. `next_seq` carries each client's request counter
/// across passes, so no two requests of a run share inputs. With `setup`,
/// [`SETUP_RUNS`] set-ups are made between windows, spread evenly over the
/// phase, so that like the windows they sample the host's speed over the
/// whole run rather than in one burst.
fn drive(
    workload: &dyn Workload,
    seconds: f64,
    tracing: bool,
    next_seq: &mut [u64],
    check_threads: usize,
    setup: Option<SetUp>,
) -> Result<Phase, String> {
    let epoch = Instant::now();
    let mut phase = Phase {
        wall_s: 0.0,
        windows: Vec::new(),
        attempted: 0,
        latencies_ms: Vec::new(),
        failures: Vec::new(),
        rec: Recorder::new(tracing, false, epoch),
        example: Vec::new(),
        setups: Vec::new(),
    };
    let mut setup_error = None;
    std::thread::scope(|scope| {
        // Persistent clients: each window hands every client a deadline and
        // the window's shared request budget, and collects what it served.
        let (done_tx, done_rx) = mpsc::channel::<Vec<Done>>();
        let mut starts = Vec::new();
        let mut handles = Vec::new();
        for (client, &first) in next_seq.iter().enumerate() {
            let (start_tx, start_rx) = mpsc::channel::<(Instant, Arc<AtomicUsize>, bool)>();
            let done_tx = done_tx.clone();
            starts.push(start_tx);
            handles.push(scope.spawn(move || {
                let mut rec = Recorder::new(true, false, epoch);
                let mut off = Recorder::off();
                let mut seq = first;
                for (deadline, budget, traced) in start_rx {
                    let rec = if traced { &mut rec } else { &mut off };
                    let mut dones = Vec::new();
                    while Instant::now() < deadline && take_one(&budget) {
                        dones.push(run_guarded(workload, client, seq, rec));
                        seq += 1;
                    }
                    if done_tx.send(dones).is_err() {
                        break;
                    }
                }
                (rec, seq)
            }));
        }
        drop(done_tx);
        while phase.wall_s < seconds {
            let traced = tracing && phase.windows.len() % 2 == 1;
            let steal_before = CpuTicks::read();
            let started = Instant::now();
            let deadline = started + Duration::from_secs_f64(WINDOW_S.min(seconds - phase.wall_s));
            let budget = Arc::new(AtomicUsize::new(WINDOW_REQUESTS));
            for start in &starts {
                start
                    .send((deadline, Arc::clone(&budget), traced))
                    .expect("client threads outlive the phase");
            }
            let mut dones = Vec::new();
            for _ in 0..starts.len() {
                dones.extend(done_rx.recv().expect("client threads outlive the phase"));
            }
            let wall_s = started.elapsed().as_secs_f64();
            let steal = CpuTicks::steal_since(steal_before);
            phase.wall_s += wall_s;
            phase.attempted += dones.len();
            phase
                .failures
                .extend(check_all(workload, &dones, check_threads));
            let mut window_ms = Vec::with_capacity(dones.len());
            for done in &dones {
                if let Ok(output) = &done.result {
                    window_ms.push(done.latency_us / 1e3);
                    if phase.example.is_empty() {
                        phase.example = images_of(output);
                    }
                }
            }
            window_ms.sort_by(f64::total_cmp);
            phase.windows.push(Window {
                traced,
                rps: dones.len() as f64 / wall_s,
                p50_ms: percentile(&window_ms, 0.50),
                p90_ms: percentile(&window_ms, 0.90),
                steal,
            });
            if !traced {
                phase.latencies_ms.extend(window_ms);
            }
            if let Some(setup) = setup {
                while phase.setups.len() < SETUP_RUNS
                    && phase.wall_s >= seconds * phase.setups.len() as f64 / SETUP_RUNS as f64
                {
                    match setup(phase.setups.len()) {
                        Ok(timing) => phase.setups.push(timing),
                        Err(error) => {
                            setup_error = Some(error);
                            break;
                        }
                    }
                }
                if setup_error.is_some() {
                    break;
                }
            }
        }
        drop(starts);
        for (client, handle) in handles.into_iter().enumerate() {
            let (rec, seq) = handle.join().expect("client threads do not panic");
            phase.rec.merge(rec);
            next_seq[client] = seq;
        }
    });
    setup_error.map_or(Ok(phase), Err)
}

/// Serve `requests` requests as a fixed amount of work, in chunks of
/// [`CHUNK_REQUESTS`] per client. Each chunk's outputs are checked on one
/// thread and dropped before the next chunk, so neither held outputs nor
/// concurrent reference rebuilds set the peak memory. Returns the number of
/// requests served and the failures.
fn fixed_pass(
    workload: &dyn Workload,
    requests: u64,
    next_seq: &mut [u64],
) -> (usize, Vec<String>) {
    let (mut served, mut failures) = (0, Vec::new());
    for _ in 0..requests / (CHUNK_REQUESTS * next_seq.len() as u64) {
        let dones: Vec<Done> = std::thread::scope(|scope| {
            let handles: Vec<_> = next_seq
                .iter()
                .enumerate()
                .map(|(client, &first)| {
                    scope.spawn(move || {
                        let mut rec = Recorder::off();
                        (first..first + CHUNK_REQUESTS)
                            .map(|seq| run_guarded(workload, client, seq, &mut rec))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|handle| handle.join().expect("client threads do not panic"))
                .collect()
        });
        for seq in next_seq.iter_mut() {
            *seq += CHUNK_REQUESTS;
        }
        served += dones.len();
        failures.extend(check_all(workload, &dones, 1));
    }
    (served, failures)
}

/// Take one request from a window's shared budget.
fn take_one(budget: &AtomicUsize) -> bool {
    budget
        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
        .is_ok()
}

/// Serve one request; a panic on the client's thread fails only that request.
fn run_guarded(workload: &dyn Workload, client: usize, seq: u64, rec: &mut Recorder) -> Done {
    let started = Instant::now();
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        workload.run(client, seq, rec)
    }))
    .unwrap_or_else(|_| Done {
        latency_us: started.elapsed().as_secs_f64() * 1e6,
        result: Err(format!("request {seq} of client {client} panicked")),
    })
}

/// Check every output on up to `threads` threads; returns the failures.
fn check_all(workload: &dyn Workload, dones: &[Done], threads: usize) -> Vec<String> {
    let chunk = dones.len().div_ceil(threads.max(1)).max(1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = dones
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || {
                    part.iter()
                        .filter_map(|done| match &done.result {
                            Ok(output) => workload.check(output).err(),
                            Err(error) => Some(error.clone()),
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|handle| {
                handle
                    .join()
                    .unwrap_or_else(|_| vec!["a check thread panicked".to_string()])
            })
            .collect()
    })
}

/// Serve the first [`COUNTER_REQUESTS`] requests of client 0 one after the
/// other on a fresh set-up, with every counter recorded. Failed or wrong
/// requests are pushed to `failures`.
fn counter_pass(
    args: &Args,
    workers: usize,
    scratch: &Scratch,
    label: &str,
    failures: &mut Vec<String>,
) -> Result<Recorder, String> {
    let workload = workloads::setup(
        &args.workload,
        args.seed,
        1,
        workers,
        &scratch.path().join(label),
    )?;
    let mut rec = Recorder::new(true, true, Instant::now());
    for seq in 0..COUNTER_REQUESTS {
        let done = workload.run(0, seq, &mut rec);
        if let Err(error) = done.result.and_then(|output| workload.check(&output)) {
            failures.push(format!("{label} request {seq}: {error}"));
        }
    }
    Ok(rec)
}

/// The counters that move only when the code's work changes.
fn work_counters(rec: &Recorder) -> BTreeMap<&str, f64> {
    rec.sums
        .iter()
        .filter(|(name, _)| {
            name.ends_with(".executed")
                || name.ends_with(".cached")
                || name.starts_with("cache.hits.")
                || *name == "cache.misses"
                || *name == "store.digests_computed"
        })
        .map(|(name, value)| (name.as_str(), *value))
        .collect()
}

/// Write every file system's dirty data back to disk (`sync(2)`).
fn flush_file_systems() {
    extern "C" {
        fn sync();
    }
    // SAFETY: `sync` takes no arguments, always succeeds, and touches no
    // memory of this process.
    unsafe { sync() }
}

/// `VmHWM` of this process, in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// The commit of the checkout, read from `.git` when there is one.
fn git_commit() -> String {
    let read = |path: &str| std::fs::read_to_string(path).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(&format!(".git/{reference}"))
        .map(|commit| commit.trim().to_string())
        .or_else(|| {
            read(".git/packed-refs")?.lines().find_map(|line| {
                let (commit, name) = line.split_once(' ')?;
                (name == reference).then(|| commit.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Nearest-rank percentile of sorted `values`.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// SHA-256 throughput over the layer archives the store hashes when it
/// commits `images`.
fn digest_mb_per_s(images: &[Image]) -> f64 {
    let archives: Vec<Vec<u8>> = images
        .iter()
        .flat_map(|image| image.layers.iter().map(|layer| layer.to_archive()))
        .collect();
    let bytes: usize = archives.iter().map(Vec::len).sum();
    if bytes == 0 {
        return 0.0;
    }
    let started = Instant::now();
    let mut passes = 0u32;
    while passes < 3 || started.elapsed() < Duration::from_millis(100) {
        for archive in &archives {
            std::hint::black_box(Digest::of_bytes(std::hint::black_box(archive)));
        }
        passes += 1;
    }
    bytes as f64 * f64::from(passes) / started.elapsed().as_secs_f64() / 1e6
}

fn images_of(output: &Output) -> Vec<Image> {
    match output {
        Output::Warm { images, .. }
        | Output::Edit { images, .. }
        | Output::Replay { images, .. } => images.clone(),
    }
}

/// One metric of the final line.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value: if value.is_finite() { value } else { 0.0 },
        unit,
    }
}

/// The per-layer metrics. Work counts come from the counter pass, where one
/// client owns the service and every count repeats exactly for a seed;
/// times and contention counts come from the traced timed phase.
fn layer_metrics(counted: &Recorder, timed: &Recorder, digest: f64, overhead: f64) -> Vec<Metric> {
    let count = |name: &str| metric(name, counted.mean(name), "count");
    let mut metrics = vec![
        count("service.admitted"),
        count("service.refused"),
        metric(
            "orchestrator.plan_analyze_us",
            counted.mean("orchestrator.plan_analyze_us"),
            "us",
        ),
        metric(
            "orchestrator.open_us",
            timed.mean("orchestrator.open_us"),
            "us",
        ),
        count("engine.actions"),
        count("engine.executed"),
        count("engine.cached"),
        metric(
            "engine.queue_wait_us",
            timed.mean("engine.queue_wait_us"),
            "us",
        ),
        metric("engine.parked_us", timed.mean("engine.parked_us"), "us"),
        metric("engine.parks", timed.mean("engine.parks"), "count"),
        count("engine.stage_depth"),
    ];
    for kind in ActionKind::ALL {
        let kind = kind.as_str();
        metrics.push(count(&format!("engine.{kind}.executed")));
        metrics.push(count(&format!("engine.{kind}.cached")));
        for clock in ["exec_us", "queue_wait_us"] {
            let name = format!("engine.{kind}.{clock}");
            metrics.push(metric(&name, timed.mean(&name), "us"));
        }
    }
    let lookups = counted.mean("cache.lookups");
    let hits = counted.mean("cache.hits.memory") + counted.mean("cache.hits.disk");
    metrics.extend([
        count("cache.lookups"),
        count("cache.hits.memory"),
        count("cache.hits.disk"),
        count("cache.misses"),
        metric("cache.coalesced", timed.mean("cache.coalesced"), "count"),
        count("cache.promotions"),
        metric(
            "cache.hit_ratio",
            if lookups > 0.0 { hits / lookups } else { 0.0 },
            "ratio",
        ),
        metric("cache.hit_us.memory", timed.hit_us("memory"), "us"),
        metric("cache.hit_us.disk", timed.hit_us("disk"), "us"),
        count("cache.disk.entries"),
        metric(
            "cache.disk.bytes",
            counted.mean("cache.disk.bytes"),
            "bytes",
        ),
        count("cache.disk.stale_drops"),
        count("cache.disk.lock_waits"),
        count("store.digests_computed"),
        count("store.dedup_hits"),
        count("store.blob_count"),
        metric(
            "store.total_bytes",
            counted.mean("store.total_bytes"),
            "bytes",
        ),
        metric("store.digest_mb_per_s", digest, "MB/s"),
        metric("trace.overhead_pct", overhead, "%"),
    ]);
    metrics
}

/// The readable per-layer breakdown of one request: its spans with self
/// time, then its actions grouped by kind.
fn print_breakdown(workload: &str, rec: &Recorder) {
    let Some((request, traces)) = &rec.example else {
        return;
    };
    let spans: Vec<(usize, &Span)> = rec
        .spans
        .iter()
        .enumerate()
        .filter(|(_, span)| span.request == *request)
        .collect();
    println!("\n## {workload}: one request, layer by layer");
    println!("{:<34} {:>12} {:>12}", "span", "total_us", "self_us");
    for (index, span) in &spans {
        let children: f64 = spans
            .iter()
            .filter(|(_, child)| child.parent == Some(*index))
            .map(|(_, child)| child.micros())
            .sum();
        let depth = std::iter::successors(span.parent, |&p| rec.spans[p].parent).count();
        let name = format!("{}{}", "  ".repeat(depth), span.name);
        println!(
            "{name:<34} {:>12.1} {:>12.1}",
            span.micros(),
            span.micros() - children
        );
    }
    println!(
        "\n{:<16} {:>7} {:>9} {:>7} {:>10} {:>10} {:>10}",
        "action kind", "actions", "executed", "cached", "exec_us", "queue_us", "parked_us"
    );
    for kind in ActionKind::ALL {
        let records: Vec<&ActionRecord> = traces
            .iter()
            .flat_map(|trace| &trace.records)
            .filter(|record| record.kind == kind)
            .collect();
        if records.is_empty() {
            continue;
        }
        let sum = |field: fn(&ActionRecord) -> u64| records.iter().map(|r| field(r)).sum::<u64>();
        let cached = records.iter().filter(|r| r.cached).count();
        println!(
            "{:<16} {:>7} {:>9} {:>7} {:>10} {:>10} {:>10}",
            kind.as_str(),
            records.len(),
            records.len() - cached,
            cached,
            sum(|r| r.exec_micros),
            sum(|r| r.queue_wait_micros),
            sum(|r| r.parked_micros)
        );
    }
    println!();
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    // Start from flushed file systems, so dirty data a previous run left is
    // not written back during this one.
    flush_file_systems();
    let scratch = Scratch::new(&args.workload)?;
    // Run-level failures: determinism and seed checks.
    let mut failures: Vec<String> = Vec::new();

    // Peak memory over a fixed amount of work: set-up plus RSS_REQUESTS
    // requests, read before the timed phase.
    let workload = workloads::setup(
        &args.workload,
        args.seed,
        nproc,
        nproc,
        &scratch.path().join("serve"),
    )?;
    let workload = workload.as_ref();
    let mut next_seq = vec![0u64; workload.clients()];

    let (mut attempted, mut request_failures) = fixed_pass(workload, RSS_REQUESTS, &mut next_seq);
    let rss_mb = peak_rss_mb()?;

    // Set-up time is measured during the timed phase, between windows.
    // Set-up writes the disk tier, so each one starts from flushed file
    // systems on a disk root of its own, which is kept (see `Scratch`).
    let setup_once = |run: usize| -> Result<(f64, f64), String> {
        let root = scratch.path().join(format!("setup-{run}"));
        flush_file_systems();
        let steal_before = CpuTicks::read();
        let started = Instant::now();
        let fixture = workloads::setup(&args.workload, args.seed, nproc, nproc, &root)?;
        let timing = (
            started.elapsed().as_secs_f64(),
            CpuTicks::steal_since(steal_before),
        );
        drop(fixture);
        Ok(timing)
    };
    let setup: Option<SetUp> = (!args.trace).then_some(&setup_once);
    let timed = drive(
        workload,
        args.seconds,
        args.trace,
        &mut next_seq,
        nproc,
        setup,
    )?;
    request_failures.extend(timed.failures.iter().cloned());
    attempted += timed.attempted;

    // Determinism: two fresh set-ups serving the same requests must do the
    // same work; a different seed must change the generated inputs.
    let counted = counter_pass(&args, nproc, &scratch, "count-a", &mut failures)?;
    let again = counter_pass(&args, nproc, &scratch, "count-b", &mut failures)?;
    if work_counters(&counted) != work_counters(&again) {
        failures.push(format!(
            "work counters differ between two runs of seed {}: {:?} vs {:?}",
            args.seed,
            work_counters(&counted),
            work_counters(&again)
        ));
    }
    let fingerprint = |seed| workload.input_fingerprint(seed, COUNTER_REQUESTS);
    if let Some(same) = fingerprint(args.seed) {
        if Some(same) == fingerprint(args.seed.wrapping_add(1)) {
            failures.push("seeds do not change the generated inputs".into());
        }
    }
    let analyze_failures: f64 = [&counted, &again]
        .iter()
        .filter_map(|rec| rec.sums.get("orchestrator.analyze_failures"))
        .sum();
    if analyze_failures > 0.0 {
        failures.push(format!("{analyze_failures} analyze calls failed"));
    }

    let mut latencies = timed.latencies_ms.clone();
    latencies.sort_by(f64::total_cmp);
    let throughput = |traced| timed.figure(traced, |window| window.rps);

    let metrics = if args.trace {
        let overhead = (1.0 - throughput(true) / throughput(false)) * 100.0;
        print_breakdown(&args.workload, &counted);
        layer_metrics(
            &counted,
            &timed.rec,
            digest_mb_per_s(&timed.example),
            overhead,
        )
    } else {
        vec![
            metric("throughput_rps", throughput(false), "1/s"),
            metric(
                "latency_p50_ms",
                timed.figure(false, |window| window.p50_ms),
                "ms",
            ),
            metric(
                "latency_p90_ms",
                timed.figure(false, |window| window.p90_ms),
                "ms",
            ),
            metric(
                "setup_s",
                median(
                    &mut quietest(&timed.setups, |setup| setup.1)
                        .iter()
                        .map(|setup| setup.0)
                        .collect::<Vec<_>>(),
                ),
                "s",
            ),
            metric("peak_rss_mb", rss_mb, "MB"),
        ]
    };

    for failure in request_failures.iter().chain(&failures).take(10) {
        eprintln!("perfbench: FAILED: {failure}");
    }
    let failed = request_failures.len();
    let correct = failed == 0 && failures.is_empty();
    let context = serde_json::json!({
        "workload": args.workload,
        "seed": args.seed,
        "nproc": nproc,
        "clients": workload.clients(),
        "workers": nproc,
        "commit": git_commit(),
        "trace": u8::from(args.trace),
        "timed_s": timed.wall_s,
        "samples": latencies.len(),
        "rss_requests": RSS_REQUESTS,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed as f64 / attempted.max(1) as f64,
        "latency_p99_ms": percentile(&latencies, 0.99),
        "latency_max_ms": latencies.last().copied().unwrap_or(0.0)
    });
    println!("# context {context}");
    let mut body = serde_json::Map::new();
    for m in &metrics {
        println!("{:<36} {:>16.4} {}", m.name, m.value, m.unit);
        body.insert(
            m.name.clone(),
            serde_json::json!({"value": m.value, "unit": m.unit}),
        );
    }
    let result = serde_json::json!({
        "correct": correct,
        "attempted": attempted.max(1),
        "failed": failed,
        "metrics": serde_json::Value::Object(body)
    });
    println!("{result}");
    Ok(correct)
}

fn main() {
    match run() {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(error) => {
            eprintln!("perfbench: {error}");
            std::process::exit(2);
        }
    }
}

//! Persistent tiered action cache, end to end: an orchestrator whose cache
//! stack persists through an on-disk CAS tier (and optionally a simulated
//! remote) survives being killed and recreated — the warm restart replays the
//! same work byte-identically with zero compile/lower actions re-executed,
//! every keyed action read through the disk tier and visible as such in the
//! [`ActionTrace`]. Store-level GC reclaims orphans without invalidating live
//! cache entries, and the service builder threads a disk byte budget through
//! [`ServiceLimits`].

use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use xaas::prelude::*;
use xaas::service::{OrchestratorService, ServiceLimits};
use xaas_buildsys::OptionAssignment;
use xaas_container::{
    BuildKey, CacheBackend, CacheTier, Digest, ImageStore, RemoteCache, RemoteModel, TierConfig,
    TieredCache, TryBegin,
};
use xaas_hpcsim::SystemModel;

/// A unique scratch directory under the OS temp dir (pid + counter keep
/// concurrent test processes and threads apart; no `tempfile` dependency).
/// Removed on drop.
struct ScratchRoot(PathBuf);

impl ScratchRoot {
    fn new(tag: &str) -> Self {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        Self(
            std::env::temp_dir().join(format!("xaas-cache-tiers-{tag}-{}-{n}", std::process::id())),
        )
    }

    fn path(&self) -> &PathBuf {
        &self.0
    }
}

impl Drop for ScratchRoot {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn gromacs_sweep() -> (xaas_buildsys::ProjectSpec, IrPipelineConfig) {
    let project = xaas_apps::gromacs::project();
    let config = IrPipelineConfig::sweep_options(&project, &["GMX_SIMD"]).with_values(
        "GMX_SIMD",
        &["SSE4.1", "AVX2_256", "AVX_512", "ARM_NEON_ASIMD"],
    );
    (project, config)
}

fn target_for(system: SystemModel) -> FleetTarget {
    let simd = system.cpu.best_simd();
    FleetTarget::new(
        system,
        OptionAssignment::new().with("GMX_SIMD", simd.gmx_name()),
        simd,
    )
}

/// One full orchestrator session over `config`: IR build + fleet wave. Returns
/// the per-target images, the fleet report, and the orchestrator (so callers
/// can read tier stats before killing it).
fn session(config: TierConfig, systems: &[SystemModel]) -> (Orchestrator, Vec<Image>, FleetReport) {
    let (project, pipeline) = gromacs_sweep();
    let orch = Orchestrator::builder()
        .workers(4)
        .cache_tiers(config)
        .expect("tier stack initializes")
        .build();
    let build = IrBuildRequest::new(&project, &pipeline)
        .reference("tiers:gromacs:ir")
        .submit(&orch)
        .expect("IR container builds");
    let report = FleetRequest::new(&build, &project)
        .targets(systems.iter().cloned().map(target_for))
        .submit(&orch);
    assert!(report.all_succeeded(), "fleet succeeds");
    let images = report.deployments().map(|d| d.image.clone()).collect();
    (orch, images, report)
}

#[test]
fn warm_restart_replays_the_fleet_from_the_disk_tier() {
    let root = ScratchRoot::new("warm-restart");
    let systems = [SystemModel::ault23(), SystemModel::clariden()];

    let (cold_orch, cold_images, _) = session(TierConfig::new().disk_root(root.path()), &systems);
    let cold_stats = cold_orch.cache_stats();
    assert!(cold_stats.misses > 0, "cold session computes actions");
    let disk = cold_orch
        .tiered_cache()
        .expect("tiered backend exposed")
        .disk_stats()
        .expect("disk tier configured");
    assert!(disk.entries > 0, "disk tier persisted the outputs");

    // Kill the orchestrator: the L1 and its store die; only the disk survives.
    drop(cold_orch);

    let (warm_orch, warm_images, warm_report) =
        session(TierConfig::new().disk_root(root.path()), &systems);
    let warm_stats = warm_orch.cache_stats();
    assert_eq!(cold_images, warm_images, "byte-identical after restart");
    assert_eq!(warm_stats.misses, 0, "zero compile actions re-executed");
    assert!(warm_stats.disk_hits > 0, "hits served by the disk tier");
    assert_eq!(
        warm_stats.promotions, warm_stats.disk_hits,
        "every disk hit promoted into memory exactly once"
    );
    // Per-tier attribution is visible in the trace, not just the counters.
    assert!(
        warm_report
            .trace
            .records
            .iter()
            .any(|r| r.hit_tier == Some(CacheTier::Disk)),
        "trace records carry the disk tier"
    );
    // And the per-request delta derived from that trace agrees.
    assert_eq!(warm_report.cache.misses, 0);
    assert!(warm_report.cache.disk_hits > 0);
}

#[test]
fn remote_tier_shares_outputs_across_disjoint_disk_roots() {
    let root_a = ScratchRoot::new("builder-a");
    let root_b = ScratchRoot::new("builder-b");
    let remote = RemoteCache::new(RemoteModel::default());
    let systems = [SystemModel::ault23()];

    // Builder A computes everything and write-through publishes to the remote.
    let (orch_a, images_a, _) = session(
        TierConfig::new()
            .disk_root(root_a.path())
            .remote(remote.clone()),
        &systems,
    );
    assert!(remote.stats().objects > 0, "write-through published upward");
    drop(orch_a);

    // Builder B has a different (empty) disk root but shares the remote: its
    // misses read through the remote, land on its own disk, and promote into
    // memory.
    let (orch_b, images_b, report_b) = session(
        TierConfig::new()
            .disk_root(root_b.path())
            .remote(remote.clone()),
        &systems,
    );
    let stats_b = orch_b.cache_stats();
    assert_eq!(images_a, images_b, "byte-identical across builders");
    assert_eq!(stats_b.misses, 0, "builder B recomputes nothing");
    assert!(stats_b.remote_hits > 0, "hits served by the remote tier");
    assert!(
        report_b
            .trace
            .records
            .iter()
            .any(|r| r.hit_tier == Some(CacheTier::Remote)),
        "trace records carry the remote tier"
    );
    let disk_b = orch_b
        .tiered_cache()
        .expect("tiered backend")
        .disk_stats()
        .expect("disk tier");
    assert!(
        disk_b.entries > 0,
        "remote hits were promoted through builder B's disk tier"
    );
    assert!(
        remote.stats().simulated_micros > 0,
        "remote transfers accrue modeled wire time"
    );
}

#[test]
fn store_gc_reclaims_orphans_but_keeps_the_warm_path_intact() {
    let root = ScratchRoot::new("gc");
    let systems = [SystemModel::ault23()];
    let (orch, images, _) = session(TierConfig::new().disk_root(root.path()), &systems);

    // Plant an unreachable blob in the store — an orphan only the sweep can
    // reclaim (no tag, no manifest, not an indexed cache output).
    let store = orch.store();
    let orphan = store.put_blob(b"orphaned intermediate".to_vec());
    assert!(store.has_blob(&orphan));

    let report = orch
        .tiered_cache()
        .expect("tiered backend")
        .collect_garbage();
    assert!(report.store.blobs_removed > 0, "orphan blobs reclaimed");
    assert!(!store.has_blob(&orphan), "the planted orphan is gone");
    assert!(report.disk_entries > 0, "disk tier untouched by store GC");

    // The live cache outputs were pinned: a warm rerun still serves every
    // keyed action from cache and reproduces the same images.
    let (project, pipeline) = gromacs_sweep();
    let build = IrBuildRequest::new(&project, &pipeline)
        .reference("tiers:gromacs:ir")
        .submit(&orch)
        .expect("IR container rebuilds");
    let rerun = FleetRequest::new(&build, &project)
        .targets(systems.iter().cloned().map(target_for))
        .submit(&orch);
    assert!(rerun.all_succeeded());
    assert_eq!(rerun.cache.misses, 0, "GC never invalidated a live entry");
    let rerun_images: Vec<Image> = rerun.deployments().map(|d| d.image.clone()).collect();
    assert_eq!(images, rerun_images, "byte-identical after the sweep");
}

/// One lookup of `key`: a hit returns its bytes and tier, a miss computes
/// `payload` as the owner and returns `None`.
fn lookup(cache: &TieredCache, key: &BuildKey, payload: &[u8]) -> Option<(Vec<u8>, CacheTier)> {
    match cache.try_begin_traced(key) {
        (TryBegin::Hit(blob), tier) => Some((blob.to_vec(), tier.expect("hits carry a tier"))),
        (TryBegin::Owner(ticket), _) => {
            cache.complete(ticket, payload.to_vec());
            None
        }
        (TryBegin::InFlight(_), _) => panic!("no concurrent flights in this test"),
    }
}

#[test]
fn corrupt_disk_blob_is_dropped_recomputed_and_repaired() {
    let root = ScratchRoot::new("corrupt");
    let open = || {
        TieredCache::new(ImageStore::new(), TierConfig::new().disk_root(root.path()))
            .expect("tier stack initializes")
    };
    let key = BuildKey::new("tu0", "x86-avx2", "defs=;openmp=true;opt=O3", "xirc");
    let payload = b"machine module bytes".to_vec();
    assert_eq!(lookup(&open(), &key, &payload), None, "cold miss computes");

    // Overwrite the one blob file with other bytes behind the tier's back.
    let blob_file = root
        .path()
        .join("blobs")
        .join(Digest::of_bytes(&payload).hex());
    std::fs::write(&blob_file, b"bit-rotted bytes").expect("blob file is writable");

    // The reopened tier must not serve the corrupt bytes: the read is verified
    // against the indexed content digest, dropped, and recomputed.
    let cache = open();
    assert_eq!(
        lookup(&cache, &key, &payload),
        None,
        "corrupt blob is a miss"
    );
    let disk = cache.disk_stats().expect("disk tier");
    assert_eq!(disk.stale_drops, 1, "the corrupt entry is counted");
    assert_eq!(cache.backend_stats().disk_hits, 0);
    assert_eq!(
        lookup(&cache, &key, &payload),
        Some((payload.clone(), CacheTier::Memory)),
        "L1 holds the recomputed bytes, not the corrupt ones"
    );
    drop(cache);

    // The recompute rewrote the file, so the next restart serves it from disk.
    assert_eq!(std::fs::read(&blob_file).expect("repaired"), payload);
    assert_eq!(
        lookup(&open(), &key, &payload),
        Some((payload.clone(), CacheTier::Disk))
    );
}

#[test]
fn service_limits_cap_the_disk_tier_budget() {
    let root = ScratchRoot::new("svc-cap");
    // A tiny byte budget forces the disk tier to evict; the stack still works.
    let service = OrchestratorService::builder()
        .workers(2)
        .cache_tiers(TierConfig::new().disk_root(root.path()))
        .limits(ServiceLimits::default().disk_cache_bytes(256))
        .try_build()
        .expect("tier stack initializes");
    let (project, pipeline) = gromacs_sweep();
    let build = service
        .session("tenant")
        .submit(IrBuildRequest::new(&project, &pipeline).reference("cap:ir"))
        .expect("build succeeds under a capped disk tier");
    assert!(!build.image.layers.is_empty());
    let disk = service
        .orchestrator()
        .tiered_cache()
        .expect("tiered backend")
        .disk_stats()
        .expect("disk tier");
    assert!(
        disk.bytes <= 256 || disk.entries == 1,
        "budget respected up to the single-entry floor (bytes={}, entries={})",
        disk.bytes,
        disk.entries
    );
    assert!(disk.evictions > 0, "the tiny budget forced evictions");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Crash-restart property: for any subset of the paper's fleet systems, a
    /// cold session followed by a kill + warm restart over the same disk root
    /// is byte-identical and recomputes nothing.
    #[test]
    fn crash_restart_is_byte_identical_with_zero_recomputes(
        mask in 1usize..16,
    ) {
        let all = [
            SystemModel::ault23(),
            SystemModel::ault25(),
            SystemModel::ault01_04(),
            SystemModel::clariden(),
        ];
        let systems: Vec<SystemModel> = all
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, s)| s.clone())
            .collect();
        let root = ScratchRoot::new("prop-restart");

        let (cold_orch, cold_images, _) =
            session(TierConfig::new().disk_root(root.path()), &systems);
        prop_assert!(cold_orch.cache_stats().misses > 0);
        drop(cold_orch);

        let (warm_orch, warm_images, _) =
            session(TierConfig::new().disk_root(root.path()), &systems);
        let warm = warm_orch.cache_stats();
        prop_assert_eq!(cold_images, warm_images);
        prop_assert_eq!(warm.misses, 0);
        prop_assert!(warm.disk_hits > 0);
    }
}

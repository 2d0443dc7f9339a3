//! Zero-copy invariants of the Arc-backed blob store and action cache.
//!
//! The tier-1 byte-identity properties (parallel vs serial, warm vs cold) live in
//! `property_pipeline.rs`; this file checks the *mechanism* behind them: handles
//! returned by the store and the cache share one allocation (proved by pointer
//! identity, not just byte equality), digest-known insertion never re-hashes, a
//! store raced by many writers stores and hashes a payload exactly once, and a
//! commit hashes only the layers that are not sealed yet.

use proptest::prelude::*;
use xaas::prelude::*;
use xaas_container::digest::Digest;
use xaas_container::{ActionCache, Blob, BuildKey, ImageStore};
use xaas_hpcsim::SystemModel;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every `blob()` handle shares the allocation inserted by `put_blob`, and a
    /// digest-known re-insertion dedups without computing a digest.
    #[test]
    fn store_handles_share_one_allocation(
        payload in proptest::collection::vec(any::<u8>(), 1..2048),
    ) {
        let store = ImageStore::new();
        let stored = Blob::new(payload.clone());
        let digest = store.put_blob(stored.clone());
        prop_assert_eq!(store.digests_computed(), 1);

        let first = store.blob(&digest).unwrap();
        let second = store.blob(&digest).unwrap();
        prop_assert!(Blob::ptr_eq(&first, &stored), "handle aliases the inserted allocation");
        prop_assert!(Blob::ptr_eq(&first, &second), "repeated reads alias each other");

        // Re-inserting under the known digest neither hashes nor stores again.
        store.put_blob_with_digest(digest.clone(), payload.clone());
        prop_assert_eq!(store.digests_computed(), 1);
        prop_assert_eq!(store.blob_count(), 1);
        prop_assert_eq!(store.stats().dedup_hits, 1);
        prop_assert!(Blob::ptr_eq(&store.blob(&digest).unwrap(), &stored));
    }

    /// Warm and cold cache lookups hand every consumer the store's allocation:
    /// the miss return value, the hit return value, and `peek` are all the same
    /// `Arc`, and the bytes match what the compute closure produced.
    #[test]
    fn cache_misses_and_hits_alias_the_stored_blob(
        payload in proptest::collection::vec(any::<u8>(), 1..2048),
        key_name in "[a-z]{1,12}",
    ) {
        let cache = ActionCache::new(ImageStore::new());
        let key = BuildKey::new(&key_name, "xir.ir", "-O3", "xirc-1");
        let (cold, cold_hit) = cache
            .get_or_compute::<std::convert::Infallible>(&key, || Ok(payload.clone()))
            .unwrap();
        prop_assert!(!cold_hit);
        let (warm, warm_hit) = cache
            .get_or_compute::<std::convert::Infallible>(&key, || unreachable!("cached"))
            .unwrap();
        prop_assert!(warm_hit);
        let peeked = cache.peek(&key).unwrap();
        let stored = cache
            .store()
            .blob(&cache.action_blob(&key).unwrap())
            .unwrap();
        prop_assert_eq!(&cold, &payload);
        prop_assert!(Blob::ptr_eq(&cold, &stored), "miss returns the stored handle");
        prop_assert!(Blob::ptr_eq(&warm, &stored), "hit returns the stored handle");
        prop_assert!(Blob::ptr_eq(&peeked, &stored), "peek returns the stored handle");
    }
}

/// Many writers racing the same payload — one plain `put_blob` plus digest-known
/// insertions from every other thread — leave exactly one stored blob and exactly
/// one digest computation, and every handle aliases that single allocation.
#[test]
fn concurrent_writers_store_and_hash_a_payload_exactly_once() {
    const WRITERS: usize = 8;
    const ROUNDS: usize = 25;
    for round in 0..ROUNDS {
        let store = ImageStore::new();
        let payload: Vec<u8> = (0..4096).map(|i| ((i + round) % 251) as u8).collect();
        let digest = Digest::of_bytes(&payload);
        let handles: Vec<Blob> = std::thread::scope(|scope| {
            let threads: Vec<_> = (0..WRITERS)
                .map(|writer| {
                    let store = &store;
                    let payload = &payload;
                    let digest = digest.clone();
                    scope.spawn(move || {
                        let stored = if writer == 0 {
                            store.put_blob(payload.clone())
                        } else {
                            store.put_blob_with_digest(digest, payload.clone())
                        };
                        store.blob(&stored).unwrap()
                    })
                })
                .collect();
            threads.into_iter().map(|t| t.join().unwrap()).collect()
        });
        assert_eq!(store.blob_count(), 1, "stored once");
        assert_eq!(store.digests_computed(), 1, "hashed once");
        assert_eq!(store.stats().dedup_hits as usize, WRITERS - 1);
        assert_eq!(
            store.stats().dedup_bytes as usize,
            (WRITERS - 1) * payload.len()
        );
        let winner = store.blob(&digest).unwrap();
        for handle in &handles {
            assert_eq!(handle, &winner);
            assert!(
                Blob::ptr_eq(handle, &winner),
                "every racer ends up holding the surviving allocation"
            );
        }
    }
}

/// A GROMACS IR container built (and so committed) through an orchestrator.
fn gromacs_build(orch: &Orchestrator) -> IrContainerBuild {
    let project = xaas_apps::gromacs::project();
    let config = IrPipelineConfig::sweep_options(&project, &["GMX_SIMD"])
        .with_values("GMX_SIMD", &["AVX2_256", "AVX_512"]);
    IrBuildRequest::new(&project, &config)
        .reference("seal:gromacs:ir")
        .submit(orch)
        .expect("IR container builds")
}

/// The build's commit seals the layers a deploy inherits, so a deploy's commit
/// hashes exactly its one new top layer, its config and its manifest.
#[test]
fn deploy_commit_hashes_only_its_new_layer_config_and_manifest() {
    let orch = Orchestrator::builder().workers(2).build();
    let build = gromacs_build(&orch);
    let project = xaas_apps::gromacs::project();
    let deploy = || {
        IrDeployRequest::new(&build, &project, &SystemModel::ault23())
            .submit(&orch)
            .expect("IR deploy succeeds")
    };
    // The first deploy lowers (and stores) machine modules; the second hits the
    // cache for every keyed action, so only its commit touches the store.
    let first = deploy();
    let before = orch.store().digests_computed();
    let second = deploy();
    assert!(first.actions.executed > 0);
    assert_eq!(second.actions.executed, 0, "every keyed action hits");
    assert_eq!(orch.store().digests_computed() - before, 3);
    assert_eq!(first.image, second.image, "warm deploy is byte-identical");
    assert_eq!(
        second.image.layer_count(),
        build.image.layer_count() + 1,
        "one new top layer over the inherited ones"
    );
}

/// Committing sealed layers into a store that lacks their blobs stores every
/// layer anyway, without hashing any: the image loads back byte-identically and
/// a GC sweep keeps every layer.
#[test]
fn sealed_image_commits_whole_into_a_fresh_store() {
    let orch = Orchestrator::builder().workers(2).build();
    let build = gromacs_build(&orch);
    let fresh = ImageStore::new();
    let descriptor = fresh.commit(&build.image);
    assert_eq!(fresh.digests_computed(), 2, "config and manifest only");
    assert_eq!(
        fresh.blob(&descriptor.digest).unwrap(),
        orch.store().blob(&descriptor.digest).unwrap(),
        "same manifest bytes as the original commit"
    );
    let loaded = fresh.load(&build.reference).expect("image loads");
    assert_eq!(loaded, build.image);
    for (loaded, original) in loaded.layers.iter().zip(&build.image.layers) {
        assert_eq!(loaded.to_archive(), original.to_archive());
    }
    let report = fresh.collect_garbage(&[]);
    assert_eq!(report.blobs_removed, 0);
    for layer in &fresh.manifest(&descriptor.digest).unwrap().layers {
        assert!(fresh.has_blob(&layer.digest), "layer {} kept", layer.digest);
    }
}

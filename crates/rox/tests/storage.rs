//! Engine ↔ snapshot-storage integration: cold opens serve bit-identical
//! results without parsing or index builds, the buffer-pool ledger stays
//! coherent under eviction pressure, recovery replays the log until a
//! checkpoint truncates it, and the storage-event routing guarantees a
//! snapshot never serves an index from a superseded epoch.

use rox_core::{PlanReuse, RoxEngine, RoxOptions, StorageEventSink};
use rox_datagen::{generate_xmark, xmark_query, XmarkConfig};
use rox_xmldb::{serialize_document, Catalog, DocId};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const SITE_V1: &str = r#"<site><open_auction><bidder><increase>12</increase></bidder><bidder><increase>30</increase></bidder><current>150</current></open_auction><open_auction><bidder><increase>7</increase></bidder><current>40</current></open_auction></site>"#;
const SITE_V2: &str = r#"<site><open_auction><bidder><increase>99</increase></bidder><current>500</current></open_auction></site>"#;

const QUERY: &str =
    r#"for $a in doc("site.xml")//open_auction, $b in $a/bidder, $i in $b/increase return $i"#;

fn snap_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("rox-engine-snap-{}-{name}.rox", std::process::id()));
    p
}

fn parsed_engine(xml: &str) -> RoxEngine {
    let catalog = Arc::new(Catalog::new());
    catalog.load_str("site.xml", xml).unwrap();
    RoxEngine::new(catalog)
}

fn run(engine: &RoxEngine) -> rox_ops::Relation {
    let graph = rox_joingraph::compile_query(QUERY).unwrap();
    engine.run(&graph, RoxOptions::default()).unwrap().output
}

#[test]
fn open_snapshot_serves_bit_identical_outputs_without_rebuilds() {
    let path = snap_path("bitident");
    let fresh = parsed_engine(SITE_V1);
    let expected = run(&fresh);
    let report = fresh.save_snapshot(&path).unwrap();
    assert_eq!(report.docs, 1);

    let engine = RoxEngine::open_snapshot(&path, None).unwrap();
    // Nothing resident before the first query.
    let id = engine.catalog().resolve("site.xml").unwrap();
    assert!(engine.catalog().get(id).is_none());
    let output = run(&engine);
    assert_eq!(
        output, expected,
        "snapshot-served output must be bit-identical"
    );

    let stats = engine.stats();
    assert_eq!(stats.index_builds, 0, "indexes must decode, not rebuild");
    assert!(stats.storage_loads >= 2, "doc + indexes faulted: {stats:?}");
    assert!(stats.pages.misses > 0, "pages were read: {stats:?}");
    assert_eq!(stats.snapshot_pages, report.pages as u64);
    assert!(stats.pages.capacity >= stats.pages.resident);
    std::fs::remove_file(&path).ok();
}

#[test]
fn eviction_pressure_keeps_results_and_ledger_coherent() {
    let path = snap_path("pressure");
    let fresh = parsed_engine(SITE_V1);
    let expected = run(&fresh);
    let report = fresh.save_snapshot(&path).unwrap();

    // A pool a quarter the catalog's size (floor 1).
    let frames = (report.pages as usize / 4).max(1);
    let engine = RoxEngine::open_snapshot(&path, Some(frames)).unwrap();
    for round in 0..3 {
        let released = if round == 0 {
            0
        } else {
            engine.release_residency()
        };
        if round > 0 {
            assert_eq!(released, 1, "round {round} released the document");
        }
        assert_eq!(run(&engine), expected, "round {round} output diverged");
    }
    let s = engine.stats().pages;
    assert_eq!(s.capacity, frames as u64);
    assert!(s.resident <= s.capacity, "ledger incoherent: {s:?}");
    assert!(s.evictions <= s.misses, "ledger incoherent: {s:?}");
    assert!(
        s.evictions > 0,
        "a quarter-size pool must have evicted: {s:?}"
    );
    assert!(s.hits + s.misses > 0);
    std::fs::remove_file(&path).ok();
}

/// The scan-resistance regression: under a pool half the catalog's size,
/// warm replays (residency released between rounds) must be *served
/// partly from the pool* — the two-cohort replacer keeps each segment's
/// reused pages resident where a recency-only replacer let every scan
/// flush them (this exact assertion was 0 hits before the 2Q policy).
#[test]
fn half_pool_warm_replay_keeps_reused_pages_resident() {
    let path = snap_path("halfpool");
    // A document big enough that half its pages is a real pool (small
    // pages keep the test deterministic and fast).
    let mut xml = String::from("<site>");
    for i in 0..150 {
        xml.push_str(&format!(
            "<open_auction><bidder><increase>{}</increase></bidder><current>{}</current></open_auction>",
            i % 40,
            i * 3
        ));
    }
    xml.push_str("</site>");
    let fresh = parsed_engine(&xml);
    let expected = run(&fresh);
    let report = rox_storage::Snapshot::save_with_page_size(&path, fresh.store(), 256).unwrap();
    let frames = (report.pages as usize / 2).max(1);

    let engine = RoxEngine::open_snapshot(&path, Some(frames)).unwrap();
    for round in 0..3 {
        if round > 0 {
            engine.release_residency();
        }
        assert_eq!(run(&engine), expected, "round {round} output diverged");
    }
    let s = engine.stats().pages;
    assert!(s.hits > 0, "half-size pool served zero page hits: {s:?}");
    assert_eq!(
        s.hits,
        s.probation_hits + s.protected_hits + s.prefetch_hits,
        "hit ledger incoherent: {s:?}"
    );
    assert!(s.prefetched > 0, "scan readahead never ran: {s:?}");
    assert!(
        s.ghost_promotions > 0,
        "replayed pages never re-admitted protected: {s:?}"
    );
    assert!(s.evictions <= s.misses, "ledger incoherent: {s:?}");
    std::fs::remove_file(&path).ok();
}

/// On an XMark document of 300 persons, 250 items and 250 auctions the
/// packed snapshot file undercuts the XML it replaces, and pools of 1, ½
/// and ¼ of its pages each serve warm replays (residency released before
/// each) partly from their frames.
#[test]
fn xmark_snapshot_undercuts_its_xml_and_every_pool_size_serves_hits() {
    let path = snap_path("xmark");
    let catalog = Arc::new(Catalog::new());
    let cfg = XmarkConfig {
        persons: 300,
        items: 250,
        auctions: 250,
        ..XmarkConfig::default()
    };
    generate_xmark(&catalog, "xmark.xml", &cfg);
    let xml_bytes = serialize_document(&catalog.doc(catalog.resolve("xmark.xml").unwrap())).len();
    let graph = rox_joingraph::compile_query(&xmark_query("<", 145.0)).unwrap();
    let fresh = RoxEngine::new(catalog);
    let expected = fresh.run(&graph, RoxOptions::default()).unwrap().output;
    let report = fresh.save_snapshot(&path).unwrap();
    assert!(
        report.file_bytes < xml_bytes as u64,
        "snapshot ({} B) must be smaller than the XML it replaces ({xml_bytes} B)",
        report.file_bytes
    );

    for fraction in [1.0, 0.5, 0.25] {
        let frames = ((report.pages as f64 * fraction) as usize).max(1);
        let engine = RoxEngine::open_snapshot(&path, Some(frames)).unwrap();
        for round in 0..3 {
            if round > 0 {
                engine.release_residency();
            }
            let output = engine.run(&graph, RoxOptions::default()).unwrap().output;
            assert_eq!(output, expected, "pool {fraction} round {round} diverged");
        }
        let s = engine.stats().pages;
        assert!(
            s.hits > 0,
            "pool at {:.0}% of the pages served zero hits: {s:?}",
            fraction * 100.0
        );
    }
    std::fs::remove_file(&path).ok();
}

/// Durable mutations replay in full on recovery with no torn tail, the
/// recovered engine answers like the writer did, and a checkpoint
/// truncates the log so the next recovery replays nothing.
#[test]
fn recovery_replays_every_mutation_and_a_checkpoint_truncates_the_log() {
    const MUTATIONS: usize = 5;
    let dir = snap_path("durable");
    std::fs::remove_dir_all(&dir).ok();
    let engine = parsed_engine(SITE_V1);
    engine.make_durable(&dir).unwrap();
    for k in 0..MUTATIONS {
        let xml = if k % 2 == 0 { SITE_V2 } else { SITE_V1 };
        engine.catalog().load_str("site.xml", xml).unwrap();
        engine
            .try_invalidate_document("site.xml")
            .unwrap()
            .expect("durable mutation returns its LSN");
    }
    let wal = engine.stats().wal;
    assert!(
        wal.fsyncs <= wal.commits,
        "more fsyncs than commits: {wal:?}"
    );
    let expected = run(&engine);
    drop(engine);

    let (recovered, report) = RoxEngine::recover(&dir, None).unwrap();
    assert_eq!(report.replayed, MUTATIONS, "replay lost records");
    assert_eq!(report.torn_tail_bytes, 0, "clean shutdown left a torn tail");
    assert_eq!(run(&recovered), expected, "recovered output diverged");
    recovered.checkpoint().unwrap();
    drop(recovered);

    let (recovered, report) = RoxEngine::recover(&dir, None).unwrap();
    assert_eq!(
        report.replayed, 0,
        "the checkpoint did not truncate the log"
    );
    assert_eq!(run(&recovered), expected, "post-checkpoint output diverged");
    std::fs::remove_dir_all(&dir).ok();
}

/// Records every event the engine routes through the sink.
#[derive(Default)]
struct RecordingSink {
    invalidated: AtomicU64,
    reindexed: AtomicU64,
    last_epoch: AtomicU64,
}

impl StorageEventSink for RecordingSink {
    fn document_invalidated(&self, uri: &str, id: Option<DocId>, epoch: u64) {
        assert_eq!(uri, "site.xml");
        assert!(id.is_some());
        self.invalidated.fetch_add(1, Ordering::SeqCst);
        self.last_epoch.store(epoch, Ordering::SeqCst);
    }

    fn document_reindexed(&self, uri: &str, id: Option<DocId>) {
        assert_eq!(uri, "site.xml");
        assert!(id.is_some());
        self.reindexed.fetch_add(1, Ordering::SeqCst);
    }
}

#[test]
fn invalidation_routes_through_sinks_and_kills_stored_epochs() {
    let path = snap_path("invalidate");
    let fresh = parsed_engine(SITE_V1);
    run(&fresh);
    fresh.save_snapshot(&path).unwrap();

    let engine = RoxEngine::open_snapshot(&path, None).unwrap();
    let sink = Arc::new(RecordingSink::default());
    engine.register_storage_sink(Arc::<RecordingSink>::clone(&sink));
    // Warm the snapshot path first: stored indexes served once.
    run(&engine);
    assert_eq!(engine.stats().index_builds, 0);

    // Reload with new content, then invalidate. The stored index segments
    // are from the v1 epoch and must never be served again.
    engine.catalog().load_str("site.xml", SITE_V2).unwrap();
    engine.invalidate_document("site.xml");
    assert_eq!(sink.invalidated.load(Ordering::SeqCst), 1);
    assert_eq!(sink.last_epoch.load(Ordering::SeqCst), 1);
    assert_eq!(engine.doc_epoch("site.xml"), 1);
    let snapshot = engine.snapshot().unwrap();
    assert_eq!(snapshot.stale_count(), 1, "snapshot must be marked stale");

    let v2_expected = run(&parsed_engine(SITE_V2));
    assert_eq!(run(&engine), v2_expected, "query must see the new epoch");
    assert!(
        engine.stats().index_builds >= 1,
        "the new epoch's indexes must be rebuilt from the live document"
    );

    // Residency sweeps must not evict the only current copy either.
    engine.release_residency();
    assert_eq!(run(&engine), v2_expected, "stale doc evicted by sweep");
    std::fs::remove_file(&path).ok();
}

#[test]
fn reindex_routes_through_sinks_and_rebuilds_from_live_content() {
    let path = snap_path("reindex");
    let fresh = parsed_engine(SITE_V1);
    run(&fresh);
    fresh.save_snapshot(&path).unwrap();

    let engine = RoxEngine::open_snapshot(&path, None).unwrap();
    let sink = Arc::new(RecordingSink::default());
    engine.register_storage_sink(Arc::<RecordingSink>::clone(&sink));
    run(&engine);

    engine.catalog().load_str("site.xml", SITE_V2).unwrap();
    engine.reindex_document("site.xml");
    assert_eq!(sink.reindexed.load(Ordering::SeqCst), 1);
    // No epoch bump on the reindex path — plans stay servable.
    assert_eq!(engine.doc_epoch("site.xml"), 0);
    assert_eq!(engine.snapshot().unwrap().stale_count(), 1);

    let v2_expected = run(&parsed_engine(SITE_V2));
    assert_eq!(run(&engine), v2_expected);
    std::fs::remove_file(&path).ok();
}

#[test]
fn plan_replay_works_across_a_snapshot_reopen() {
    let path = snap_path("replay");
    let fresh = parsed_engine(SITE_V1);
    let expected = run(&fresh);
    fresh.save_snapshot(&path).unwrap();

    let engine = RoxEngine::open_snapshot(&path, None).unwrap();
    let graph = rox_joingraph::compile_query(QUERY).unwrap();
    let options = RoxOptions {
        plan_reuse: PlanReuse::ReuseValidated,
        ..Default::default()
    };
    let cold = engine.run(&graph, options).unwrap();
    let warm = engine.run(&graph, options).unwrap();
    assert!(!cold.plan_cache_hit && warm.plan_cache_hit);
    assert_eq!(cold.output, expected);
    assert_eq!(warm.output, expected);
    std::fs::remove_file(&path).ok();
}

//! Cross-layer tests of the campaign engine through the `hsm` facade:
//! bit-identical results for any worker count and cache state, memoized
//! warm reruns, disk-tier integrity checking, and builder validation
//! surfacing through the unified [`hsm::Error`].

use hsm::prelude::*;
use hsm::simnet::time::SimDuration;

/// A small but non-trivial campaign: both motions, two providers, a few
/// seeds — 6 flows of 10 s each.
fn campaign_configs() -> Vec<ScenarioConfig> {
    let mut configs = Vec::new();
    for (provider, motion) in [
        (Provider::ChinaMobile, Motion::HighSpeed),
        (Provider::ChinaUnicom, Motion::HighSpeed),
        (Provider::ChinaMobile, Motion::Stationary),
    ] {
        for seed in [11u64, 12] {
            configs.push(
                ScenarioConfig::builder()
                    .provider(provider)
                    .motion(motion)
                    .seed(seed)
                    .duration(SimDuration::from_secs(10))
                    .build()
                    .expect("valid config"),
            );
        }
    }
    configs
}

/// Serializes the deterministic result stream for byte comparison.
fn summary_bytes(output: &CampaignOutput) -> Vec<String> {
    output
        .summaries()
        .map(|s| serde_json::to_string(s).expect("summary serializes"))
        .collect()
}

fn unique_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("hsm_campaign_{tag}_{}", std::process::id()))
}

#[test]
fn results_are_bit_identical_across_workers_and_cache_states() -> Result<(), hsm::Error> {
    let configs = campaign_configs();
    let cache = FlowCache::new(CacheConfig::memory_only());

    let mut streams = Vec::new();
    for workers in [1usize, 2, 8] {
        let campaign = Campaign::builder()
            .configs(configs.clone())
            .workers(workers)
            .build()?;
        // First pass at this worker count may be cold or warm depending on
        // the shared cache's state — the stream must not care.
        streams.push(summary_bytes(&campaign.run_with_cache(&cache)?));
        // And a fully cold run against a private cache.
        streams.push(summary_bytes(&campaign.run()?));
    }
    let reference = &streams[0];
    assert_eq!(reference.len(), configs.len());
    for stream in &streams[1..] {
        assert_eq!(stream, reference, "summary stream must be bit-identical");
    }
    Ok(())
}

#[test]
fn queue_swap_keeps_per_flow_event_streams_identical_across_workers() -> Result<(), hsm::Error> {
    // Regression guard for the slab-indexed event queue: it must break
    // same-instant ties by insertion sequence exactly like the old
    // (heap + hash-map) queue did, no matter how flows are sharded over
    // workers. If tie-breaking ever drifted, the per-flow simulator event
    // counts — not just the summaries — would diverge between a serial
    // and a parallel campaign.
    let configs = campaign_configs();
    let run = |workers: usize| -> Result<(Vec<u64>, Vec<String>), hsm::Error> {
        let campaign = Campaign::builder()
            .configs(configs.clone())
            .workers(workers)
            .build()?;
        let output = campaign.run()?;
        let events: Vec<u64> = output.runs.iter().map(|r| r.events).collect();
        Ok((events, summary_bytes(&output)))
    };
    let (events_1, summaries_1) = run(1)?;
    let (events_8, summaries_8) = run(8)?;
    assert_eq!(
        events_1, events_8,
        "per-flow event counts diverged across worker counts"
    );
    assert_eq!(
        summaries_1, summaries_8,
        "serialized summaries diverged across worker counts"
    );
    assert!(
        events_1.iter().all(|&e| e > 0),
        "every flow must process events"
    );
    Ok(())
}

#[test]
fn warm_rerun_is_served_entirely_from_the_cache() -> Result<(), hsm::Error> {
    let campaign = Campaign::builder()
        .configs(campaign_configs())
        .workers(2)
        .build()?;
    let cache = FlowCache::new(CacheConfig::memory_only());

    let cold = campaign.run_with_cache(&cache)?;
    assert_eq!(cold.report.cache_hits, 0);
    assert_eq!(cold.report.cache_misses, cold.report.flows);
    assert!(cold.report.events_processed > 0);

    let warm = campaign.run_with_cache(&cache)?;
    assert_eq!(
        warm.report.cache_hits, warm.report.flows,
        "zero re-simulations"
    );
    assert_eq!(warm.report.cache_misses, 0);
    assert_eq!(warm.report.events_processed, 0);
    assert_eq!(summary_bytes(&cold), summary_bytes(&warm));
    Ok(())
}

#[test]
fn corrupt_disk_entries_are_detected_and_resimulated() -> Result<(), hsm::Error> {
    let dir = unique_dir("corrupt");
    let _ = std::fs::remove_dir_all(&dir);
    let configs = campaign_configs();
    let campaign = Campaign::builder().configs(configs).workers(2).build()?;

    // Populate the disk tier.
    let disk = CacheConfig {
        memory_entries: 0,
        disk_dir: Some(dir.clone()),
        shards: 0,
    };
    let cold = campaign.run_with_cache(&FlowCache::new(disk.clone()))?;

    // Corrupt two binary entries two different ways: a single flipped bit
    // in the middle of one (only the CRC can expose it) and a truncation
    // of another (the length prefix exposes it).
    let mut entries: Vec<_> = std::fs::read_dir(&dir)
        .expect("disk tier exists")
        .map(|e| e.expect("dir entry").path())
        .collect();
    entries.sort();
    assert_eq!(entries.len(), cold.report.flows);
    let mut flipped = std::fs::read(&entries[0]).expect("entry readable");
    assert!(hsm::runtime::codec::is_binary_entry(&flipped));
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x10;
    std::fs::write(&entries[0], flipped).expect("entry writable");
    let truncated = std::fs::read(&entries[1]).expect("entry readable");
    std::fs::write(&entries[1], &truncated[..truncated.len() - 7]).expect("entry writable");

    // A fresh process (fresh memory tier, same disk tier) must detect the
    // corruption, re-simulate those flows, and still produce identical
    // bytes.
    let rerun = campaign.run_with_cache(&FlowCache::new(disk))?;
    assert_eq!(rerun.report.corrupt_entries, 2);
    assert_eq!(rerun.report.cache_hits, rerun.report.flows - 2);
    assert_eq!(rerun.report.cache_misses, 2);
    assert_eq!(summary_bytes(&cold), summary_bytes(&rerun));

    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

#[test]
fn pre_binary_json_entries_are_resimulated_and_overwritten() -> Result<(), hsm::Error> {
    let dir = unique_dir("json");
    let _ = std::fs::remove_dir_all(&dir);
    let configs = campaign_configs();
    let campaign = Campaign::builder().configs(configs).workers(2).build()?;

    let disk = CacheConfig {
        memory_entries: 0,
        disk_dir: Some(dir.clone()),
        shards: 0,
    };
    let cold = campaign.run_with_cache(&FlowCache::new(disk.clone()))?;

    // Rewrite half the tier as JSON documents, the on-disk encoding of
    // releases before the binary format, leaving the rest binary.
    let mut entries: Vec<_> = std::fs::read_dir(&dir)
        .expect("disk tier exists")
        .map(|e| e.expect("dir entry").path())
        .collect();
    entries.sort();
    let json_count = entries.len() / 2;
    for path in &entries[..json_count] {
        let bytes = std::fs::read(path).expect("entry readable");
        let (_, summary) = hsm::runtime::codec::decode_entry(&bytes).expect("cold entry decodes");
        let json = serde_json::to_string(&summary).expect("summary serializes");
        std::fs::write(path, json).expect("JSON rewrite");
    }

    // JSON entries are corrupt to the binary-only tier: those flows are
    // re-simulated, and the summary stream stays bit-identical.
    let mixed = campaign.run_with_cache(&FlowCache::new(disk.clone()))?;
    assert_eq!(mixed.report.corrupt_entries, json_count as u64);
    assert_eq!(mixed.report.cache_hits, mixed.report.flows - json_count);
    assert_eq!(summary_bytes(&cold), summary_bytes(&mixed));

    // The re-simulated flows overwrote their entries: the tier is
    // all-binary again and a rerun is served entirely from it.
    for path in &entries {
        let bytes = std::fs::read(path).expect("entry readable");
        assert!(hsm::runtime::codec::is_binary_entry(&bytes), "{path:?}");
    }
    let warm = campaign.run_with_cache(&FlowCache::new(disk))?;
    assert_eq!(warm.report.cache_hits, warm.report.flows);
    assert_eq!(warm.report.corrupt_entries, 0);
    assert_eq!(summary_bytes(&cold), summary_bytes(&warm));

    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

#[test]
fn builder_failures_surface_through_the_unified_error() {
    let zero_window = ScenarioConfig::builder().w_m(0).build();
    let err: hsm::Error = zero_window.expect_err("w_m = 0 must be rejected").into();
    assert!(matches!(
        err,
        hsm::Error::Scenario(ScenarioError::ZeroWindow)
    ));

    let bad = ScenarioConfig {
        b: 0,
        ..Default::default()
    };
    let campaign = Campaign::builder()
        .config(ScenarioConfig::default())
        .config(bad)
        .build();
    let err: hsm::Error = campaign
        .expect_err("invalid member must be rejected")
        .into();
    match err {
        hsm::Error::Engine(EngineError::InvalidConfig { index, source }) => {
            assert_eq!(index, 1);
            assert_eq!(source, ScenarioError::ZeroDelayedAck);
        }
        other => panic!("unexpected error: {other}"),
    }

    let err: hsm::Error = Campaign::builder()
        .config(ScenarioConfig::default())
        .workers(0)
        .build()
        .expect_err("zero workers must be rejected")
        .into();
    assert!(matches!(err, hsm::Error::Engine(EngineError::ZeroWorkers)));
}

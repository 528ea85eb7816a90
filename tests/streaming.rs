//! The streaming ingestion subsystem: property tests proving the
//! zero-materialization `CanonicalHasher` fingerprint equal to the
//! materializing one on generated queries, edge-case coverage for the
//! streaming log readers, and batch- and shard-boundary duplicate
//! elimination in the fused engine against the sequential oracle.

mod common;

use common::fused;
use proptest::prelude::*;
use sparqlog::core::cache::AnalysisCache;
use sparqlog::core::corpus::{
    analyze_streams, canonical_fingerprint, ingest, FileLogReader, LineLogReader, LogReader,
    MemoryLogReader, RawLog,
};
use sparqlog::core::Population;
use sparqlog::parser::{canonical_fingerprint_of, parse_query, to_canonical_string};
use sparqlog::synth::{Dataset, DatasetProfile, Synthesizer};
use std::io::Cursor;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The streamed fingerprint (canonical walk hashed directly, no string)
    /// equals the materializing fingerprint (canonical string built, then
    /// hashed) for every query the synthesizer produces, on every dataset
    /// profile.
    #[test]
    fn streamed_fingerprint_matches_materialized(seed in 0u64..10_000, dataset_idx in 0usize..13) {
        let dataset = Dataset::ALL[dataset_idx];
        let mut synth = Synthesizer::new(DatasetProfile::of(dataset), seed);
        for _ in 0..5 {
            let text = synth.fresh_query();
            let query = parse_query(&text).expect("synthesized queries parse");
            prop_assert_eq!(
                canonical_fingerprint_of(&query),
                canonical_fingerprint(&to_canonical_string(&query)),
                "streamed fingerprint diverges for {}", text
            );
        }
    }

    /// Streaming ingestion equals the sequential materializing oracle for
    /// any batch size and worker count on a synthesized log with injected
    /// duplicates and garbage.
    #[test]
    fn streaming_matches_reference_on_synthesized_logs(
        seed in 0u64..5_000,
        batch in 1usize..32,
        workers in 1usize..5,
    ) {
        let mut synth = Synthesizer::new(DatasetProfile::of(Dataset::WikiData17), seed);
        let mut entries: Vec<String> = (0..30).map(|_| synth.fresh_query()).collect();
        entries.push(entries[0].clone()); // duplicate across batch boundaries
        entries.push("garbage entry".to_string());
        let log = RawLog::new("prop", entries);
        let reference = ingest(&log);
        let streamed = fused(std::slice::from_ref(&log), Population::Unique, workers, batch);
        let summary = &streamed.summaries[0];
        prop_assert_eq!(summary.counts, reference.counts);
        prop_assert_eq!(&summary.errors, &reference.errors);
        let mut distinct: Vec<u128> =
            reference.unique_indices.iter().map(|&i| reference.fingerprints[i]).collect();
        distinct.sort_unstable();
        let streamed_distinct: Vec<u128> = summary.occurrences.iter().map(|&(fp, _)| fp).collect();
        prop_assert_eq!(streamed_distinct, distinct);
    }
}

#[test]
fn empty_log_streams_to_zero_counts() {
    let readers: Vec<Box<dyn LogReader>> = vec![Box::new(MemoryLogReader::new("empty", vec![]))];
    let logs = analyze_streams(readers, Population::Unique)
        .unwrap()
        .summaries;
    assert_eq!(logs.len(), 1);
    assert_eq!(logs[0].label, "empty");
    assert_eq!(logs[0].counts.total, 0);
    assert_eq!(logs[0].counts.valid, 0);
    assert_eq!(logs[0].counts.unique, 0);
    assert!(logs[0].occurrences.is_empty());
    assert!(logs[0].errors.is_empty());
}

#[test]
fn empty_stream_yields_no_entries() {
    let mut reader = LineLogReader::new("empty", Cursor::new(&b""[..]));
    let mut batch = Vec::new();
    assert_eq!(reader.read_batch(&mut batch, 10).unwrap(), 0);
    assert!(batch.is_empty());
}

#[test]
fn line_reader_handles_missing_trailing_newline() {
    let text = "ASK { ?x <http://p> ?y }\nSELECT ?x WHERE { ?x a <http://C> }";
    let mut reader = LineLogReader::new("tail", Cursor::new(text.as_bytes()));
    let mut batch = Vec::new();
    assert_eq!(reader.read_batch(&mut batch, 10).unwrap(), 2);
    assert_eq!(batch[0], "ASK { ?x <http://p> ?y }");
    assert_eq!(batch[1], "SELECT ?x WHERE { ?x a <http://C> }");
    assert_eq!(reader.read_batch(&mut batch, 10).unwrap(), 0);
}

#[test]
fn line_reader_strips_crlf_terminators() {
    let text = "ASK { ?x <http://p> ?y }\r\nDESCRIBE <http://r>\r\n";
    let mut reader = LineLogReader::new("crlf", Cursor::new(text.as_bytes()));
    let mut batch = Vec::new();
    assert_eq!(reader.read_batch(&mut batch, 10).unwrap(), 2);
    assert_eq!(batch[0], "ASK { ?x <http://p> ?y }");
    assert_eq!(batch[1], "DESCRIBE <http://r>");
}

#[test]
fn line_reader_keeps_blank_lines_as_invalid_entries() {
    // A blank line is an entry that fails to parse — it must count towards
    // `total` but not `valid`, exactly like an empty string in a RawLog.
    let text = "ASK { ?x <http://p> ?y }\n\nASK { ?x <http://p> ?y }\n";
    let readers: Vec<Box<dyn LogReader>> = vec![Box::new(LineLogReader::new(
        "blanks",
        Cursor::new(text.as_bytes().to_vec()),
    ))];
    let logs = analyze_streams(readers, Population::Unique)
        .unwrap()
        .summaries;
    assert_eq!(logs[0].counts.total, 3);
    assert_eq!(logs[0].counts.valid, 2);
    assert_eq!(logs[0].counts.unique, 1);
}

#[test]
fn file_reader_streams_a_log_from_disk() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(dir).unwrap();
    let path = dir.join("streaming_file_reader.log");
    std::fs::write(
        &path,
        "SELECT ?x WHERE { ?x a <http://C> }\nSELECT   ?x   WHERE { ?x a <http://C> }\nnot sparql\nASK { ?s <http://p> ?o }",
    )
    .unwrap();
    let readers: Vec<Box<dyn LogReader>> =
        vec![Box::new(FileLogReader::open("disk", &path).unwrap())];
    let logs = analyze_streams(readers, Population::Unique)
        .unwrap()
        .summaries;
    assert_eq!(logs[0].counts.total, 4);
    assert_eq!(logs[0].counts.valid, 3);
    assert_eq!(logs[0].counts.unique, 2); // whitespace variants collapse
    std::fs::remove_file(&path).ok();
}

#[test]
fn file_reader_size_hint_estimates_from_metadata() {
    // A file-backed reader must report a metadata-based entry estimate so
    // the ingestion pool can clamp its worker count (a tiny log should not
    // spawn a full pool), and the estimate must shrink as lines are read.
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(dir).unwrap();
    let path = dir.join("streaming_size_hint.log");
    let line = "SELECT ?x WHERE { ?x a <http://C> }\n";
    std::fs::write(&path, line.repeat(100)).unwrap();
    let mut reader = FileLogReader::open("disk", &path).unwrap();
    let hint = reader.size_hint().expect("file readers must hint");
    // bytes / 128-byte average, rounded up: in the right order of magnitude
    // for 100 x 36-byte lines, and never zero for a non-empty file.
    assert_eq!(hint, (line.len() * 100).div_ceil(128));
    let mut batch = Vec::new();
    reader.read_batch(&mut batch, 10).unwrap();
    let after = reader.size_hint().expect("hint persists while reading");
    assert_eq!(after, hint.saturating_sub(10));

    // An empty file hints zero entries; in-memory line readers still
    // decline to guess.
    let empty = dir.join("streaming_size_hint_empty.log");
    std::fs::write(&empty, "").unwrap();
    assert_eq!(
        FileLogReader::open("disk", &empty).unwrap().size_hint(),
        Some(0)
    );
    assert_eq!(
        LineLogReader::new("mem", Cursor::new(b"x\n".to_vec())).size_hint(),
        None
    );
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&empty).ok();
}

#[test]
fn shard_boundary_duplicates_are_eliminated() {
    // Duplicates must collapse regardless of batch size and worker count:
    // batch boundaries must not reset the dedup state, and two workers that
    // both see a canonical form merge their occurrence counts.
    let entries: Vec<String> = (0..40)
        .map(|i| format!("SELECT ?x WHERE {{ ?x <http://p{}> ?y }}", i % 7))
        .collect();
    let log = RawLog::new("dups", entries);
    let reference = ingest(&log);
    assert_eq!(reference.counts.unique, 7);
    for workers in [1, 2, 8] {
        for batch in [1, 3, 64] {
            let streamed = fused(
                std::slice::from_ref(&log),
                Population::Unique,
                workers,
                batch,
            );
            let summary = &streamed.summaries[0];
            assert_eq!(
                summary.counts, reference.counts,
                "workers {workers}, batch {batch}"
            );
            // 40 entries over 7 shapes: five occur 6 times, two occur 5.
            let mut counts: Vec<u64> = summary.occurrences.iter().map(|&(_, c)| c).collect();
            counts.sort_unstable();
            assert_eq!(
                counts,
                [5, 5, 6, 6, 6, 6, 6],
                "workers {workers}, batch {batch}"
            );
        }
    }
}

#[test]
fn fingerprint_shards_merge_is_commutative_across_logs() {
    // The analysis cache is partitioned into fingerprint-range shards;
    // per-log caches combined in either order give the same corpus-wide
    // distinct set — the merge the sharded design exists for.
    let a_entries: Vec<String> = (0..20)
        .map(|i| format!("SELECT ?x WHERE {{ ?x <http://a{}> ?y }}", i % 5))
        .collect();
    let b_entries: Vec<String> = (0..20)
        .map(|i| format!("SELECT ?x WHERE {{ ?x <http://b{}> ?y }}", i % 3))
        .collect();
    let fill = |entries: &[String]| {
        let cache = AnalysisCache::with_shards(8);
        let readers: Vec<Box<dyn LogReader>> =
            vec![Box::new(MemoryLogReader::new("log", entries.to_vec()))];
        sparqlog::core::analyze_streams_cached(
            readers,
            Population::Unique,
            Default::default(),
            &cache,
        )
        .unwrap();
        cache
    };
    let ab = fill(&a_entries);
    ab.merge(fill(&b_entries));
    let ba = fill(&b_entries);
    ba.merge(fill(&a_entries));
    assert_eq!(ab.len(), 8); // 5 + 3 distinct shapes
    assert_eq!(ab.len(), ba.len());
    for entry in a_entries.iter().chain(&b_entries) {
        let fingerprint = canonical_fingerprint_of(&parse_query(entry).unwrap());
        let left = ab.get(fingerprint).expect("merged cache covers both logs");
        let right = ba.get(fingerprint).expect("merge is commutative");
        assert_eq!(format!("{left:?}"), format!("{right:?}"));
    }
}

//! Property tests of the snapshot codec: round-trips over arbitrary
//! [`LogSummary`] / tally values and over analyses of synthesized corpora,
//! plus the structured decode errors — truncated input at *every* strict
//! prefix length, wrong version bytes, bad magic, bad tags, trailing bytes.

use proptest::prelude::*;
use sparqlog_core::analysis::{DatasetAnalysis, Population};
use sparqlog_core::baseline::analyze_multiwalk;
use sparqlog_core::cache::CacheStats;
use sparqlog_core::corpus::{ingest, CorpusCounts, FusedStats, LogSummary, RawLog};
use sparqlog_core::{ErrorKind, ErrorTally};
use sparqlog_obs::{HistogramSnapshot, MetricsSnapshot};
use sparqlog_paths::{PathExpressionType, PathTally, TypeEntry};
use sparqlog_shard::codec::{
    write_stream_header, DecodeErrorKind, Decoder, Encoder, StreamError, MAGIC, VERSION,
};
use sparqlog_shard::snapshot::{read_snapshot, EpilogueFrame, Frame, LogFrame, Snapshot};
use sparqlog_synth::{generate_single_day_log, Dataset};
use std::collections::BTreeMap;

/// Builds a `u128` fingerprint from two generated halves.
fn fingerprint(hi: u64, lo: u64) -> u128 {
    (u128::from(hi) << 64) | u128::from(lo)
}

/// An analysed dataset with non-trivial values in every tally family.
fn analysed_dataset(entries: &[String], label: &str) -> DatasetAnalysis {
    let log = ingest(&RawLog::new(label, entries.to_vec()));
    let corpus = analyze_multiwalk(&[log], Population::Unique);
    corpus.datasets.into_iter().next().unwrap()
}

/// Entries of a synthesized day log (varied, real-shaped queries).
fn synthesized_entries(dataset: Dataset, count: usize, seed: u64) -> Vec<String> {
    generate_single_day_log(dataset, count as u64, seed).entries
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn corpus_counts_round_trip(
        total in 0u64..=u64::MAX,
        valid in 0u64..=u64::MAX,
        unique in 0u64..=u64::MAX,
        bodyless in 0u64..=u64::MAX,
    ) {
        let counts = CorpusCounts { total, valid, unique, bodyless };
        prop_assert_eq!(CorpusCounts::from_bytes(&counts.to_bytes()).unwrap(), counts);
    }

    #[test]
    fn cache_and_fused_stats_round_trip(
        hits in 0u64..=u64::MAX,
        misses in 0u64..=u64::MAX,
        distinct in 0u64..1_000_000,
    ) {
        let cache = CacheStats { hits, misses, distinct };
        prop_assert_eq!(CacheStats::from_bytes(&cache.to_bytes()).unwrap(), cache);
        let fused = FusedStats {
            batches: hits,
            peak_inflight_entries: distinct as usize,
            distinct_forms: misses,
        };
        prop_assert_eq!(FusedStats::from_bytes(&fused.to_bytes()).unwrap(), fused);
    }

    #[test]
    fn arbitrary_log_summaries_round_trip(
        label in "[ -~]{0,40}",
        pairs in prop::collection::vec((0u64..=u64::MAX, 0u64..=u64::MAX, 0u64..=u64::MAX), 0..32),
        total in 0u64..=u64::MAX,
    ) {
        // Occurrence lists are sorted by fingerprint in real summaries, but
        // the codec must round-trip any list faithfully.
        let occurrences: Vec<(u128, u64)> = pairs
            .iter()
            .map(|&(hi, lo, count)| (fingerprint(hi, lo), count))
            .collect();
        // An arbitrary (but derived, hence reproducible) error tally: the
        // codec must carry any kind/position mix faithfully.
        let mut errors = ErrorTally::default();
        for &(hi, lo, _) in &pairs {
            errors.record(ErrorKind::ALL[(hi % 6) as usize], lo);
        }
        let summary = LogSummary {
            label,
            counts: CorpusCounts {
                total,
                // Wrapping: the codec must carry any u64, overflow-free sums
                // are the engine's concern, not the wire format's.
                valid: occurrences
                    .iter()
                    .fold(1u64, |sum, &(_, count)| sum.wrapping_add(count)),
                unique: occurrences.len() as u64,
                bodyless: total / 2,
            },
            occurrences,
            errors,
        };
        prop_assert_eq!(LogSummary::from_bytes(&summary.to_bytes()).unwrap(), summary);
    }

    #[test]
    fn arbitrary_path_tallies_round_trip(
        entries in prop::collection::vec(
            (0u8..25, 0u64..=u64::MAX, 0usize..1000, 0usize..1000),
            0..25,
        ),
        total in 0u64..=u64::MAX,
    ) {
        let mut by_type = BTreeMap::new();
        for &(code, count, min_k, max_k) in &entries {
            let ty = PathExpressionType::from_code(code).unwrap();
            by_type.insert(ty, TypeEntry {
                count,
                min_k: (min_k % 3 != 0).then_some(min_k),
                max_k: (max_k % 4 != 0).then_some(max_k),
            });
        }
        let tally = PathTally {
            total,
            negated_literal: total / 3,
            inverse_literal: total / 5,
            by_type,
            with_inverse: total / 7,
            potentially_hard: total / 11,
        };
        prop_assert_eq!(PathTally::from_bytes(&tally.to_bytes()).unwrap(), tally);
    }

    #[test]
    fn synthesized_dataset_analyses_round_trip(
        count in 20usize..60,
        seed in 0u64..5000,
        dataset_pick in 0usize..3,
    ) {
        let dataset = [Dataset::DBpedia15, Dataset::WikiData17, Dataset::BioP13][dataset_pick];
        let analysis = analysed_dataset(
            &synthesized_entries(dataset, count, seed),
            dataset.label(),
        );
        let bytes = analysis.to_bytes();
        prop_assert_eq!(DatasetAnalysis::from_bytes(&bytes).unwrap(), analysis);
    }

    #[test]
    fn every_strict_prefix_of_an_encoding_fails_to_decode(
        count in 10usize..30,
        seed in 0u64..1000,
    ) {
        // Truncation anywhere must yield an error — never a silently wrong
        // value. (UnexpectedEof for a short field; TrailingBytes can never
        // occur on a prefix, but a prefix may end exactly between fields,
        // where `finish()` catches the missing tail as UnexpectedEof on the
        // next read.)
        let analysis = analysed_dataset(
            &synthesized_entries(Dataset::DBpedia15, count, seed),
            "prefix-test",
        );
        let bytes = analysis.to_bytes();
        // Cover all short prefixes and a sample of longer ones (the full
        // quadratic sweep would be slow at 24 cases).
        let step = (bytes.len() / 64).max(1);
        for cut in (0..bytes.len()).step_by(step) {
            prop_assert!(
                DatasetAnalysis::from_bytes(&bytes[..cut]).is_err(),
                "prefix of {cut}/{} bytes decoded successfully",
                bytes.len()
            );
        }
    }

    #[test]
    fn log_frames_round_trip_through_the_stream(
        count in 10usize..40,
        seed in 0u64..1000,
        index in 0u64..64,
    ) {
        let entries = synthesized_entries(Dataset::WikiData17, count, seed);
        let analysis = analysed_dataset(&entries, "stream-test");
        let frame = LogFrame {
            index,
            summary: LogSummary {
                label: analysis.label.clone(),
                counts: analysis.counts,
                occurrences: vec![(fingerprint(seed, count as u64), 2)],
                errors: analysis.errors.clone(),
            },
            analysis,
        };
        let epilogue = EpilogueFrame {
            log_frames: 1,
            cache: CacheStats { hits: seed, misses: count as u64, distinct: 3 },
            fused: FusedStats {
                batches: 1,
                peak_inflight_entries: count,
                distinct_forms: 3,
            },
            metrics: MetricsSnapshot {
                counters: vec![("pipeline_entries_total".to_string(), count as u64)],
                gauges: vec![("cache_distinct_forms".to_string(), -(seed as i64))],
                histograms: vec![(
                    "pipeline_parse_us".to_string(),
                    HistogramSnapshot {
                        count: 2,
                        sum: seed + 10,
                        max: seed + 9,
                        buckets: vec![(1, 1), (seed.max(2), 1)],
                    },
                )],
            },
        };
        let mut stream = Vec::new();
        write_stream_header(&mut stream).unwrap();
        Frame::from(frame.clone()).write_to(&mut stream).unwrap();
        Frame::Epilogue(epilogue.clone()).write_to(&mut stream).unwrap();
        let (snapshot, bytes) = read_snapshot(stream.as_slice()).unwrap();
        prop_assert_eq!(bytes, stream.len() as u64);
        prop_assert_eq!(&snapshot.logs[..], std::slice::from_ref(&frame));
        prop_assert_eq!(snapshot.epilogue, epilogue);

        // Every strict prefix of the framed stream is a structured error.
        let step = (stream.len() / 48).max(1);
        for cut in (0..stream.len()).step_by(step) {
            prop_assert!(
                read_snapshot(&stream[..cut]).is_err(),
                "stream prefix of {cut}/{} bytes decoded successfully",
                stream.len()
            );
        }
    }
}

#[test]
fn wrong_version_and_bad_magic_are_rejected_up_front() {
    let mut stream = Vec::new();
    stream.extend_from_slice(&MAGIC);
    stream.push(VERSION + 1);
    let StreamError::Decode(error) = read_snapshot(stream.as_slice()).unwrap_err() else {
        panic!("expected a decode error");
    };
    assert_eq!(
        error.kind,
        DecodeErrorKind::UnsupportedVersion { found: VERSION + 1 }
    );

    let StreamError::Decode(error) = read_snapshot(&b"XXXX\x01"[..]).unwrap_err() else {
        panic!("expected a decode error");
    };
    assert_eq!(error.kind, DecodeErrorKind::BadMagic { found: *b"XXXX" });
}

#[test]
fn unknown_wire_codes_are_invalid_value_errors() {
    // A PathTally whose map declares one entry with an unknown type code.
    let mut encoder = Encoder::new();
    encoder.put_varint(1); // total
    encoder.put_varint(0); // negated_literal
    encoder.put_varint(0); // inverse_literal
    encoder.put_usize(1); // map length
    encoder.put_u8(200); // bogus type code
    let bytes = encoder.into_bytes();
    let mut decoder = Decoder::new(&bytes);
    let error = PathTally::decode(&mut decoder).unwrap_err();
    assert!(
        matches!(
            error.kind,
            DecodeErrorKind::InvalidValue {
                what: "path-expression-type code",
                value: 200
            }
        ),
        "{error:?}"
    );
}

#[test]
fn duplicate_map_keys_are_rejected() {
    use sparqlog_algebra::{OpSetTally, OperatorSet};
    // An OpSetTally whose map declares the same operator set twice: the
    // second entry must fail the decode, not silently overwrite the first
    // (which would leave entries that no longer sum to the encoded total).
    let mut encoder = Encoder::new();
    encoder.put_usize(2); // map length
    encoder.put_u8(OperatorSet::FILTER);
    encoder.put_varint(3);
    encoder.put_u8(OperatorSet::FILTER); // duplicate key
    encoder.put_varint(4);
    encoder.put_varint(0); // other_features
    encoder.put_varint(7); // total
    let bytes = encoder.into_bytes();
    let error = OpSetTally::from_bytes(&bytes).unwrap_err();
    assert!(
        matches!(
            error.kind,
            DecodeErrorKind::InvalidValue {
                what: "duplicate operator-set key",
                ..
            }
        ),
        "{error:?}"
    );
}

#[test]
fn trailing_bytes_after_a_value_are_rejected() {
    let counts = CorpusCounts {
        total: 9,
        valid: 8,
        unique: 7,
        bodyless: 1,
    };
    let mut bytes = counts.to_bytes();
    bytes.push(0);
    let error = CorpusCounts::from_bytes(&bytes).unwrap_err();
    assert_eq!(error.kind, DecodeErrorKind::TrailingBytes { remaining: 1 });
}

/// A minimal log frame (default tallies) for the framing-level tests.
fn tiny_log_frame() -> Frame {
    Frame::from(LogFrame {
        index: 0,
        summary: LogSummary {
            label: "crc-test".to_string(),
            counts: CorpusCounts::default(),
            occurrences: Vec::new(),
            errors: ErrorTally::default(),
        },
        analysis: DatasetAnalysis {
            label: "crc-test".to_string(),
            ..DatasetAnalysis::default()
        },
    })
}

fn tiny_epilogue() -> Frame {
    Frame::Epilogue(EpilogueFrame {
        log_frames: 1,
        ..EpilogueFrame::default()
    })
}

#[test]
fn checksummed_streams_round_trip_and_catch_silent_corruption() {
    let frame = tiny_log_frame();
    let mut stream = Vec::new();
    write_stream_header(&mut stream).unwrap();
    let header_len = stream.len();
    let payload = frame.to_payload();
    frame.write_checked_to(&mut stream).unwrap();
    tiny_epilogue().write_checked_to(&mut stream).unwrap();

    // The checked stream decodes, and the checksum frames are invisible to
    // the snapshot (no extra logs, same epilogue).
    let (snapshot, bytes) = read_snapshot(stream.as_slice()).unwrap();
    assert_eq!(bytes, stream.len() as u64);
    assert_eq!(snapshot.logs.len(), 1);

    // Flip the low bit of the log payload's last byte: the frame still
    // *decodes* (a terminal varint changes value, nothing else moves), so
    // without the checksum this corruption would be silent — the CRC frame
    // right behind it must catch it.
    let mut length_prefix = Encoder::new();
    length_prefix.put_usize(payload.len());
    let corrupt_at = header_len + length_prefix.into_bytes().len() + payload.len() - 1;
    let mut corrupted = stream.clone();
    corrupted[corrupt_at] ^= 1;
    let StreamError::Decode(error) = read_snapshot(corrupted.as_slice()).unwrap_err() else {
        panic!("expected a decode error");
    };
    assert!(
        matches!(error.kind, DecodeErrorKind::ChecksumMismatch { .. }),
        "{error:?}"
    );
}

#[test]
fn orphan_and_misaligned_checksum_frames_are_structured_errors() {
    use sparqlog_shard::codec::crc32c;
    use sparqlog_shard::snapshot::CrcFrame;

    // A checksum frame with nothing before it to cover.
    let mut stream = Vec::new();
    write_stream_header(&mut stream).unwrap();
    Frame::Crc(CrcFrame { crc: 7, covered: 9 })
        .write_to(&mut stream)
        .unwrap();
    let StreamError::Decode(error) = read_snapshot(stream.as_slice()).unwrap_err() else {
        panic!("expected a decode error");
    };
    assert!(
        matches!(
            error.kind,
            DecodeErrorKind::InvalidValue {
                what: "checksum frame with no frame to cover",
                ..
            }
        ),
        "{error:?}"
    );

    // A checksum frame declaring the wrong coverage length (misaligned —
    // it would otherwise be verified against the wrong frame).
    let frame = tiny_log_frame();
    let payload = frame.to_payload();
    let mut stream = Vec::new();
    write_stream_header(&mut stream).unwrap();
    frame.write_to(&mut stream).unwrap();
    Frame::Crc(CrcFrame {
        crc: crc32c(&payload),
        covered: payload.len() as u64 + 1,
    })
    .write_to(&mut stream)
    .unwrap();
    let StreamError::Decode(error) = read_snapshot(stream.as_slice()).unwrap_err() else {
        panic!("expected a decode error");
    };
    assert!(
        matches!(
            error.kind,
            DecodeErrorKind::InvalidValue {
                what: "checksum coverage length",
                ..
            }
        ),
        "{error:?}"
    );
}

#[test]
fn summaries_split_across_processes_merge_to_the_whole() {
    // The wire format's cross-process merge hook: summaries of two halves of
    // one log, round-tripped through the codec, merge back to the whole-log
    // summary.
    let entries = synthesized_entries(Dataset::BioP13, 40, 77);
    let (first_half, second_half) = entries.split_at(entries.len() / 2);
    let whole = summary_of(&entries);
    let first = LogSummary::from_bytes(&summary_of(first_half).to_bytes()).unwrap();
    let second = LogSummary::from_bytes(&summary_of(second_half).to_bytes()).unwrap();
    let mut merged = first;
    merged.merge(&second);
    assert_eq!(merged, whole);
}

fn summary_of(entries: &[String]) -> LogSummary {
    use sparqlog_core::corpus::{analyze_streams, LogReader, MemoryLogReader};
    let readers: Vec<Box<dyn LogReader>> = vec![Box::new(MemoryLogReader::new(
        "merge-test",
        entries.to_vec(),
    ))];
    analyze_streams(readers, Population::Valid)
        .expect("in-memory streams")
        .summaries
        .remove(0)
}

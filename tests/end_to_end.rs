//! Cross-crate integration test: generate a synthetic corpus, run the whole
//! analysis pipeline and check that the qualitative findings of the paper
//! hold on it (who dominates, orderings, rough magnitudes).

mod common;

use common::slice_readers;
use sparqlog::core::analysis::{CorpusAnalysis, Population};
use sparqlog::core::corpus::{analyze_streams, RawLog};
use sparqlog::core::report;
use sparqlog::synth::{generate_corpus, CorpusConfig, Dataset};

fn analyzed(scale: f64, seed: u64) -> CorpusAnalysis {
    let corpus = generate_corpus(CorpusConfig {
        scale,
        seed,
        max_entries_per_dataset: 0,
    });
    let raw: Vec<RawLog> = corpus
        .logs
        .iter()
        .map(|l| RawLog::new(l.dataset.label(), l.entries.clone()))
        .collect();
    analyze_streams(slice_readers(&raw), Population::Unique)
        .unwrap()
        .corpus
}

#[test]
fn corpus_accounting_is_consistent() {
    let analysis = analyzed(1e-5, 42);
    assert_eq!(analysis.datasets.len(), 13);
    for d in &analysis.datasets {
        assert!(d.counts.valid <= d.counts.total, "{}", d.label);
        assert!(d.counts.unique <= d.counts.valid, "{}", d.label);
        assert_eq!(d.keywords.total_queries, d.counts.unique, "{}", d.label);
    }
    let c = &analysis.combined.counts;
    let sum_total: u64 = analysis.datasets.iter().map(|d| d.counts.total).sum();
    assert_eq!(c.total, sum_total);
}

#[test]
fn headline_findings_of_the_paper_hold_on_the_synthetic_corpus() {
    let analysis = analyzed(2e-5, 7);
    let combined = &analysis.combined;

    // Section 4.1: SELECT queries dominate the corpus.
    let k = &combined.keywords;
    assert!(k.select > k.ask + k.describe + k.construct);

    // Section 4.2: the majority of SELECT/ASK queries are small. (The paper
    // measures this on the full-scale corpus where WikiData's 309 hand-picked
    // multi-triple queries are negligible; at the test's reduced scale they
    // are over-represented, so we check the endpoint logs individually and
    // use a softer bound for the combined corpus.)
    assert!(combined.triples.cumulative_share_at_most(2) > 0.35);
    for d in &analysis.datasets {
        if d.label.starts_with("BioP") || d.label == "SWDF13" {
            assert!(
                d.triples.cumulative_share_at_most(2) > 0.5,
                "{} should be dominated by small queries",
                d.label
            );
        }
    }

    // Section 4.3: CPF patterns cover the majority of SELECT/ASK queries,
    // and adding Opt increases the coverage.
    let cpf_share = combined.opsets.cpf_subtotal() as f64 / combined.opsets.total.max(1) as f64;
    assert!(cpf_share > 0.4, "CPF subtotal share {cpf_share}");
    assert!(combined.opsets.cpf_plus_opt_increment() > 0);

    // Section 5.2: the fragment hierarchy is ordered CQ ≤ CQF ≤ CQOF, with
    // well-designed patterns covering almost all AOF patterns.
    let f = &combined.fragments;
    assert!(f.cq <= f.cqf && f.cqf <= f.cqof);
    assert!(f.well_designed_share_of_aof() > 0.9);

    // Section 6.1: the overwhelming majority of CQ-like queries are acyclic,
    // and flower sets reach (almost) full coverage.
    let shapes = &combined.shapes_cqof;
    assert!(shapes.forest as f64 / shapes.total.max(1) as f64 > 0.9);
    assert!(shapes.flower_set >= shapes.forest);
    assert!(shapes.treewidth_le2 + shapes.treewidth_3 + shapes.treewidth_ge4 == shapes.total);
    assert_eq!(shapes.treewidth_ge4, 0, "no query should need treewidth 4");

    // Section 6.2: variable-predicate queries are overwhelmingly of hypertree
    // width 1 or 2.
    let h = &combined.hypertree;
    assert!(h.width1 + h.width2 >= h.width3);

    // Section 7: property paths exist and are almost all tractable.
    assert!(combined.paths.total > 0);
    assert!(combined.paths.potentially_hard * 20 <= combined.paths.navigational().max(1));
}

#[test]
fn dataset_idiosyncrasies_survive_the_pipeline() {
    let analysis = analyzed(2e-5, 13);
    let by_label = |label: &str| {
        analysis
            .datasets
            .iter()
            .find(|d| d.label == label)
            .unwrap_or_else(|| panic!("missing dataset {label}"))
    };
    // BioMed13 is DESCRIBE-dominated; its S/A share is the smallest.
    let biomed = by_label("BioMed13");
    assert!(biomed.triples.select_ask_share() < 0.5);
    // BritM14 queries almost always use DISTINCT — at the test's small scale
    // (a handful of unique BritM queries) we check that the share stays well
    // above the corpus-wide DISTINCT share rather than pinning 97 %.
    let britm = by_label("BritM14");
    let britm_distinct =
        britm.keywords.distinct as f64 / britm.keywords.total_queries.max(1) as f64;
    let corpus_distinct = analysis.combined.keywords.distinct as f64
        / analysis.combined.keywords.total_queries.max(1) as f64;
    assert!(
        britm_distinct > 0.5 && britm_distinct > corpus_distinct,
        "BritM14 DISTINCT share {britm_distinct} vs corpus {corpus_distinct}"
    );
    // BioPortal remains the GRAPH-heavy source.
    let biop = by_label("BioP13");
    assert!(biop.keywords.graph as f64 / biop.keywords.total_queries.max(1) as f64 > 0.5);
    // WikiData17 is generated in full and is always 308-309 valid queries.
    let wd = by_label("WikiData17");
    assert!(wd.counts.total == 309);
    assert!(wd.counts.valid >= 300);
}

#[test]
fn valid_population_is_a_superset_of_unique() {
    let corpus = generate_corpus(CorpusConfig {
        scale: 1e-5,
        seed: 3,
        max_entries_per_dataset: 0,
    });
    let raw: Vec<RawLog> = corpus
        .logs
        .iter()
        .map(|l| RawLog::new(l.dataset.label(), l.entries.clone()))
        .collect();
    let unique = analyze_streams(slice_readers(&raw), Population::Unique)
        .unwrap()
        .corpus;
    let valid = analyze_streams(slice_readers(&raw), Population::Valid)
        .unwrap()
        .corpus;
    assert!(valid.combined.keywords.total_queries >= unique.combined.keywords.total_queries);
    assert!(valid.combined.opsets.total >= unique.combined.opsets.total);
}

#[test]
fn reports_render_for_the_full_corpus() {
    let analysis = analyzed(1e-5, 21);
    let combined = &analysis.combined;
    let all = [
        report::table1(&analysis),
        report::table2_keywords(combined),
        report::figure1_triples(&analysis),
        report::table3_opsets(combined),
        report::section44_projection(combined),
        report::section52_fragments(combined),
        report::figure5_sizes(combined),
        report::table4_shapes(combined),
        report::section61_cycles(combined),
        report::section62_hypertree(combined),
        report::table5_paths(combined),
    ];
    for (i, r) in all.iter().enumerate() {
        assert!(r.lines().count() >= 2, "report {i} too short:\n{r}");
    }
    // Every dataset label appears in Table 1.
    for d in Dataset::ALL {
        assert!(all[0].contains(d.label()), "table 1 missing {}", d.label());
    }
}

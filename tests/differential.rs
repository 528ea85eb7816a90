//! Differential test: the fused engine must produce byte-identical
//! `DatasetAnalysis` / `CorpusAnalysis` results and Table-1 accounting to
//! the independent oracle — the materializing `ingest` followed by the seed
//! multi-walk — on a mixed corpus, and its single-pass per-query record must
//! fold identically to the multi-walk on every query.

mod common;

use common::{fused, oracle, oracle_logs, single_pass};
use sparqlog::core::analysis::Population;
use sparqlog::core::baseline::add_query_multiwalk;
use sparqlog::core::{DatasetAnalysis, RawLog};
use sparqlog::parser::parse_query;
use sparqlog::synth::{generate_single_day_log, Dataset};

/// Handcrafted queries exercising every corner the pipeline measures:
/// all four query forms, property paths, cycles, variable predicates,
/// OPTIONAL nesting, filters (simple and not), EXISTS, subqueries,
/// aggregates, UNION/GRAPH/MINUS, VALUES, and bodyless queries.
fn handcrafted() -> Vec<String> {
    [
        // Plain CQs: chain, star, single edge with a constant.
        "SELECT ?x WHERE { ?x <http://p> ?y . ?y <http://q> ?z }",
        "SELECT ?x WHERE { ?x <http://a> ?b . ?x <http://c> ?d . ?x <http://e> ?f }",
        "SELECT ?x WHERE { ?x <http://p> <http://const> }",
        // Cycles: triangle, square, equality-closed chain.
        "ASK { ?a <http://p> ?b . ?b <http://p> ?c . ?c <http://p> ?a }",
        "ASK { ?a <http://p> ?b . ?b <http://p> ?c . ?c <http://p> ?d . ?d <http://p> ?a }",
        "SELECT * WHERE { ?a <http://p> ?b . ?b <http://p> ?c . ?c <http://p> ?d FILTER(?d = ?a) }",
        // Property paths of every flavour.
        "SELECT ?x WHERE { ?x <http://a>/<http://b> ?y }",
        "SELECT ?x WHERE { ?x <http://a>* ?y }",
        "SELECT ?x WHERE { ?x (<http://a>|<http://b>)+ ?y }",
        "SELECT ?x WHERE { ?x ^<http://a> ?y . ?y !<http://b> ?z }",
        "SELECT ?x WHERE { ?x (<http://a>/<http://b>)* ?y }",
        // Variable predicates (hypergraph analysis).
        "ASK { ?x1 ?p ?x2 . ?x2 <http://a> ?x3 . ?x3 ?p ?x4 }",
        "SELECT ?s WHERE { ?s ?p ?o }",
        // OPTIONAL: CQOF, wide interface, non-well-designed.
        "SELECT * WHERE { ?A <http://name> ?N OPTIONAL { ?A <http://email> ?E } }",
        "SELECT * WHERE { { ?A <http://name> ?N OPTIONAL { ?A <http://email> ?E } } OPTIONAL { ?A <http://web> ?W } }",
        "SELECT * WHERE { ?A <http://knows> ?N OPTIONAL { ?A <http://worksWith> ?N } }",
        "SELECT * WHERE { ?A <http://name> ?N OPTIONAL { ?A <http://email> ?W } OPTIONAL { ?A <http://web> ?W } }",
        // Filters: simple, two-variable, EXISTS, aggregate-bearing.
        "SELECT ?x WHERE { ?x <http://p> ?y FILTER(?y > 10) }",
        "SELECT ?x WHERE { ?x <http://p> ?y . ?x <http://q> ?z FILTER(?y < ?z) }",
        "SELECT ?x WHERE { ?x a <http://C> FILTER NOT EXISTS { ?x <http://p> ?y } }",
        "SELECT ?x WHERE { ?x <http://p> ?y FILTER EXISTS { ?y <http://q>/<http://r> ?z } }",
        // Projection corners: SELECT *, full list, ASK with/without vars, BIND.
        "SELECT * WHERE { ?x <http://p> ?y }",
        "SELECT ?x ?y WHERE { ?x <http://p> ?y }",
        "ASK { <http://s> <http://p> <http://o> }",
        "ASK { ?x <http://p> ?y }",
        "SELECT ?x WHERE { ?x <http://p> ?y BIND(?y + 1 AS ?z) }",
        "SELECT (COUNT(?x) AS ?c) WHERE { ?x <http://p> ?y } GROUP BY ?y HAVING (AVG(?y) > 2)",
        // Subqueries (aggregates inside, projection hiding).
        "SELECT ?x WHERE { { SELECT ?x (SUM(?v) AS ?s) WHERE { ?x <http://p> ?v } GROUP BY ?x } }",
        "SELECT ?x WHERE { { SELECT ?x ?y WHERE { ?x <http://p> ?y . ?y <http://q> ?z } } }",
        // UNION / GRAPH / MINUS / VALUES / SERVICE-free operator mix.
        "SELECT ?x WHERE { { ?x <http://p> ?y } UNION { ?x <http://q> ?y } UNION { ?x <http://r> ?y } }",
        "SELECT * WHERE { GRAPH ?g { ?x <http://a>/<http://b> ?y } }",
        "SELECT ?x WHERE { ?x a <http://C> MINUS { ?x a <http://D> } }",
        "SELECT ?x WHERE { ?x <http://a> ?y VALUES ?x { <http://v> <http://w> } }",
        // CONSTRUCT / DESCRIBE incl. bodyless.
        "CONSTRUCT { ?s <http://p> ?o } WHERE { ?s <http://q> ?o }",
        "DESCRIBE <http://r>",
        "DESCRIBE ?x WHERE { ?x a <http://C> }",
        // Duplicates (modulo whitespace / prefixes) and garbage.
        "SELECT   ?x   WHERE { ?x <http://p> ?y . ?y <http://q> ?z }",
        "PREFIX ex: <http://> SELECT ?x WHERE { ?x ex:p ?y . ?y ex:q ?z }",
        "this is not sparql at all",
        "",
        // Modifier-heavy query.
        "SELECT DISTINCT ?x WHERE { ?x <http://p> ?y } ORDER BY ?x LIMIT 10 OFFSET 5",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

fn mixed_corpus() -> Vec<RawLog> {
    let mut logs = vec![RawLog::new("handcrafted", handcrafted())];
    for (i, dataset) in [Dataset::DBpedia15, Dataset::Lgd14, Dataset::BioP13]
        .iter()
        .enumerate()
    {
        let day = generate_single_day_log(*dataset, 150, 1000 + i as u64);
        logs.push(RawLog::new(day.dataset.label(), day.entries));
    }
    logs
}

#[test]
fn corpus_analysis_is_byte_identical_to_the_multiwalk_path() {
    let raw = mixed_corpus();
    for population in [Population::Unique, Population::Valid] {
        let reference = format!("{:?}", oracle(&raw, population));
        // The default schedule and an explicitly parallel one with small
        // batches.
        for (workers, batch) in [(0, 0), (4, 3)] {
            let single_pass = fused(&raw, population, workers, batch);
            assert_eq!(
                reference,
                format!("{:?}", single_pass.corpus),
                "fused vs multi-walk mismatch on {population:?} ({workers} workers, batch {batch})"
            );
        }
    }
}

#[test]
fn streaming_ingestion_is_byte_identical_to_the_materializing_path() {
    // The streaming engine (incremental LogReader feed, canonical walk
    // hashed without materializing the string, per-worker occurrence maps)
    // must agree with the sequential materializing oracle on counts,
    // distinct fingerprints, error tallies AND the downstream reports.
    let raw = mixed_corpus();
    let reference = oracle_logs(&raw);
    for (batch, workers) in [(1, 1), (3, 4), (512, 2)] {
        for population in [Population::Unique, Population::Valid] {
            let streamed = fused(&raw, population, workers, batch);
            for (s, r) in streamed.summaries.iter().zip(&reference) {
                assert_eq!(s.counts, r.counts, "batch {batch}, workers {workers}");
                assert_eq!(s.errors, r.errors, "batch {batch}, workers {workers}");
                let mut distinct: Vec<u128> = r
                    .unique_indices
                    .iter()
                    .map(|&i| r.fingerprints[i])
                    .collect();
                distinct.sort_unstable();
                let streamed_distinct: Vec<u128> =
                    s.occurrences.iter().map(|&(fp, _)| fp).collect();
                assert_eq!(streamed_distinct, distinct);
            }
            assert_eq!(
                format!("{:?}", oracle(&raw, population)),
                format!("{:?}", streamed.corpus),
                "corpus report differs on {population:?} (batch {batch}, workers {workers})"
            );
        }
    }
}

#[test]
fn per_query_fold_is_byte_identical_on_every_handcrafted_query() {
    // Pinpointing variant: fold each parseable query individually so a
    // regression names the exact query instead of a whole-corpus diff.
    for text in handcrafted() {
        let Ok(query) = parse_query(&text) else {
            continue;
        };
        let mut reference = DatasetAnalysis::default();
        add_query_multiwalk(&mut reference, &query);
        let mut folded = DatasetAnalysis::default();
        folded.add(&single_pass(&text).expect("the arena parser accepts it too"));
        assert_eq!(
            format!("{reference:?}"),
            format!("{folded:?}"),
            "single-pass vs multi-walk mismatch on {text:?}"
        );
    }
}

#[test]
fn synthesized_queries_fold_identically_across_datasets() {
    use sparqlog::synth::{DatasetProfile, Synthesizer};
    for dataset in Dataset::ALL {
        let mut synth = Synthesizer::new(DatasetProfile::of(dataset), 77);
        for _ in 0..40 {
            let text = synth.fresh_query();
            let query = parse_query(&text).expect("synthesized queries parse");
            let mut reference = DatasetAnalysis::default();
            add_query_multiwalk(&mut reference, &query);
            let mut folded = DatasetAnalysis::default();
            folded.add(&single_pass(&text).expect("synthesized queries parse"));
            assert_eq!(
                format!("{reference:?}"),
                format!("{folded:?}"),
                "mismatch on {dataset:?} query {text:?}"
            );
        }
    }
}

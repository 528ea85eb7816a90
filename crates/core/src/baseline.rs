//! The seed multi-walk analysis path, preserved verbatim as the analysis
//! half of the test oracle.
//!
//! The seed pipeline analysed each query by calling four independent entry
//! points — [`QueryFeatures::of`], [`collect_property_paths`],
//! [`sparqlog_algebra::ProjectionTally::add`] and [`StructuralReport::of`] —
//! each of which traverses the owned AST on its own. The production engine
//! ([`crate::fused`]) replaces that with one borrowed-AST traversal per
//! distinct canonical form ([`crate::query_analysis::QueryAnalysis`]). The
//! oracle is [`crate::corpus::ingest`] followed by [`analyze_multiwalk`]:
//!
//! * the differential tests and the `ablation_*` harness gates assert that
//!   the fused engine's reports are byte-identical to it on arbitrary
//!   corpora, and
//! * the `single_pass` benchmark measures the speedup over it.

use crate::analysis::{CorpusAnalysis, DatasetAnalysis, Population};
use crate::corpus::IngestedLog;
use sparqlog_algebra::fragments::{classify_fragments, variable_equalities};
use sparqlog_algebra::opsets::classify_from_features;
use sparqlog_algebra::pattern_tree::PatternTree;
use sparqlog_algebra::{collect_property_paths, QueryFeatures};
use sparqlog_graph::analyze::HypertreeReportEntry;
use sparqlog_graph::{
    generalized_hypertree_width, treewidth, CanonicalGraph, GraphMode, Hypergraph, ShapeReport,
    StructuralReport, Treewidth,
};
use sparqlog_parser::Query;

/// Folds one query into the tallies through the seed multi-walk path: every
/// measure re-traverses the query independently.
pub fn add_query_multiwalk(analysis: &mut DatasetAnalysis, query: &Query) {
    let features = QueryFeatures::of(query);
    analysis.keywords.add(&features);
    analysis.triples.add(&features);
    analysis.projection.add(query);
    for p in collect_property_paths(query) {
        analysis.paths.add(p);
    }
    if features.is_select_or_ask() {
        analysis.opsets.add(classify_from_features(&features));
    }
    let structural = structural_report_multiwalk(query);
    analysis.fold_structural(&structural);
}

/// The seed implementation of `StructuralReport::of`, verbatim: the fragment
/// classification runs its own body walk, the pattern tree is built twice
/// (once inside `classify_fragments`, once here), the tree's triples are
/// cloned, and the two graph modes are constructed in two separate passes.
pub fn structural_report_multiwalk(query: &Query) -> StructuralReport {
    let fragments = classify_fragments(query);
    let mut report = StructuralReport {
        fragments,
        shape: None,
        shape_vars_only: None,
        treewidth: None,
        shortest_cycle: None,
        hypertree: None,
        triples: fragments.triples,
    };
    if !fragments.in_cqof() || !fragments.select_or_ask {
        return report;
    }
    let Some(tree) = PatternTree::build(query) else {
        return report;
    };
    let triples: Vec<_> = tree.all_triples().into_iter().cloned().collect();
    let filters = tree.all_filters();
    let equalities = variable_equalities(&filters);

    if fragments.has_var_predicate {
        let hg = Hypergraph::from_triples(&triples, &equalities);
        report.hypertree = generalized_hypertree_width(&hg, 5).map(HypertreeReportEntry::from);
        return report;
    }
    if let Some(graph) =
        CanonicalGraph::from_triples(&triples, &equalities, GraphMode::WithConstants)
    {
        report.shape = Some(ShapeReport::classify(&graph));
        report.treewidth = Some(match treewidth(&graph) {
            Treewidth::Exact(k) | Treewidth::UpperBound(k) => k,
        });
        report.shortest_cycle = graph.girth();
    }
    if let Some(graph) =
        CanonicalGraph::from_triples(&triples, &equalities, GraphMode::VariablesOnly)
    {
        report.shape_vars_only = Some(ShapeReport::classify(&graph));
    }
    report
}

/// Analyses logs ingested by [`crate::corpus::ingest`] sequentially through
/// the multi-walk path — the seed behaviour, and the oracle's corpus
/// analysis.
pub fn analyze_multiwalk(logs: &[IngestedLog], population: Population) -> CorpusAnalysis {
    let mut datasets = Vec::with_capacity(logs.len());
    for log in logs {
        let mut analysis = DatasetAnalysis {
            label: log.label.clone(),
            counts: log.counts,
            errors: log.errors.clone(),
            ..DatasetAnalysis::default()
        };
        match population {
            Population::Unique => {
                for q in log.unique_queries() {
                    add_query_multiwalk(&mut analysis, q);
                }
            }
            Population::Valid => {
                for q in &log.valid_queries {
                    add_query_multiwalk(&mut analysis, q);
                }
            }
        }
        datasets.push(analysis);
    }
    let mut combined = DatasetAnalysis {
        label: "Total".to_string(),
        ..DatasetAnalysis::default()
    };
    for d in &datasets {
        combined.merge(d);
    }
    CorpusAnalysis { datasets, combined }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{ingest, MemoryLogReader, RawLog};
    use crate::fused::analyze_streams;

    #[test]
    fn multiwalk_agrees_with_the_fused_engine_on_a_small_log() {
        let entries: Vec<String> = [
            "SELECT ?x WHERE { ?x a <http://C> . ?x <http://p> ?y FILTER(?y > 3) }",
            "ASK { ?a <http://p> ?b . ?b <http://p> ?c . ?c <http://p> ?a }",
            "SELECT ?x WHERE { ?x <http://a>/<http://b>* ?y }",
            "DESCRIBE <http://r>",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let logs = [ingest(&RawLog::new("t", entries.clone()))];
        let multi = analyze_multiwalk(&logs, Population::Unique);
        let fused = analyze_streams(
            vec![Box::new(MemoryLogReader::new("t", entries))],
            Population::Unique,
        )
        .unwrap();
        assert_eq!(format!("{multi:?}"), format!("{:?}", fused.corpus));
    }
}

//! The shared per-query intermediate of the single-pass analysis engine.
//!
//! [`QueryAnalysis::of_ref`] is the only place in the fused engine that
//! looks at a query's AST: it runs one [`QueryWalkRef`] over the borrowed
//! body and derives every per-query measure — features, projection use,
//! property-path tallies and the structural report — from that single
//! traversal, with one canonical-graph construction shared by the shape,
//! treewidth, girth and constants-excluded analyses. [`crate::analysis::DatasetAnalysis::add`]
//! then folds the intermediate into the corpus tallies without touching the
//! AST again.
//!
//! The original per-measure path (four-plus traversals of the owned AST per
//! query) survives in [`crate::baseline`] as the oracle the differential
//! tests compare against.

use sparqlog_algebra::{
    classify_fragments_from_walk_ref, projection_use_from_walk_ref, ProjectionUse, QueryFeatures,
    QueryWalkRef,
};
use sparqlog_graph::StructuralReport;
use sparqlog_parser::ast::QueryForm;
use sparqlog_parser::ast_ref;
use sparqlog_parser::intern::Interner;
use sparqlog_paths::PathTally;

/// Everything the corpus tallies need to know about one query, computed in a
/// single pass.
#[derive(Debug, Clone)]
pub struct QueryAnalysis {
    /// The query form.
    pub form: QueryForm,
    /// The shallow features (keywords, triples, operator sets).
    pub features: QueryFeatures,
    /// Whether the query uses projection (SPARQL 1.1 §18.2.1).
    pub projection: ProjectionUse,
    /// Whether the body contains subqueries.
    pub has_subqueries: bool,
    /// The per-query property-path tally (merged into the dataset tally).
    pub paths: PathTally,
    /// Fragment membership, shape, treewidth and hypertree width.
    pub structural: StructuralReport,
}

impl QueryAnalysis {
    /// Analyses one borrowed, arena-allocated query ([`ast_ref::Query`])
    /// with exactly one AST traversal and (for CQ-like queries) one
    /// canonical-graph construction. The walk's visible-variable set, the
    /// projection test and the canonical-graph construction all run over
    /// `u32` symbols of the caller's per-worker [`Interner`]; the result is
    /// byte-identical for any interner state (symbols never leak into the
    /// returned record). Property paths are the only nodes converted to
    /// owned form (per path, at tally time). The record owns no arena data,
    /// so the caller may reset the arena as soon as this returns.
    pub fn of_ref(query: &ast_ref::Query<'_>, interner: &mut Interner) -> QueryAnalysis {
        let walk = QueryWalkRef::of(query, interner);
        let features = QueryFeatures::from_walk_ref(query, &walk);
        let projection = projection_use_from_walk_ref(query, &walk, interner);
        let fragments = classify_fragments_from_walk_ref(query, &walk);
        let structural =
            StructuralReport::from_walk_interned(fragments, walk.tree.as_ref(), interner);
        let mut paths = PathTally::new();
        for p in &walk.paths {
            paths.add(&p.to_owned());
        }
        QueryAnalysis {
            form: query.form,
            features,
            projection,
            has_subqueries: walk.ops.subqueries > 0,
            paths,
            structural,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparqlog_parser::{parse_query, parse_query_in, Arena};

    fn qa(text: &str, interner: &mut Interner) -> QueryAnalysis {
        let arena = Arena::new();
        QueryAnalysis::of_ref(&parse_query_in(text, &arena).unwrap(), interner)
    }

    #[test]
    fn single_pass_matches_multiwalk_entry_points() {
        for text in [
            "SELECT ?x WHERE { ?x a <http://C> . ?x <http://p> ?y FILTER(?y > 3) } LIMIT 5",
            "ASK { <http://s> <http://p> <http://o> }",
            "SELECT ?x WHERE { ?x <http://a>/<http://b>* ?y }",
            "ASK { ?a <http://p> ?b . ?b <http://p> ?c . ?c <http://p> ?a }",
            "DESCRIBE <http://r>",
            "SELECT * WHERE { ?A <name> ?N OPTIONAL { ?A <email> ?E } }",
            "SELECT ?x WHERE { { ?x <p> ?y } UNION { ?x <q> ?y } }",
            "SELECT ?x WHERE { ?x a <http://C> FILTER NOT EXISTS { ?x <http://p> ?y } }",
            "ASK { ?x1 ?p ?x2 . ?x2 <http://a> ?x3 . ?x3 ?p ?x4 }",
            "SELECT (COUNT(?x) AS ?n) WHERE { ?x ?p ?o } GROUP BY ?p HAVING(COUNT(?x) > 1)",
            "SELECT * WHERE { SERVICE <http://ep> { ?s ?p ?o } VALUES ?s { <http://a> } }",
            "SELECT * WHERE { ?x <a>/<b> ?y . ?y <c>* ?z GRAPH ?g { ?z ^<d> ?w } }",
        ] {
            let q = parse_query(text).unwrap();
            let single = qa(text, &mut Interner::new());
            assert_eq!(single.features, QueryFeatures::of(&q), "{text}");
            assert_eq!(
                single.projection,
                sparqlog_algebra::projection_use(&q),
                "{text}"
            );
            assert_eq!(single.structural, StructuralReport::of(&q), "{text}");
            let mut paths = PathTally::new();
            for p in sparqlog_algebra::collect_property_paths(&q) {
                paths.add(p);
            }
            assert_eq!(single.paths, paths, "{text}");
        }
    }

    #[test]
    fn reused_interner_does_not_change_results() {
        // A worker's interner accumulates symbols across queries; the
        // analysis of each query must not depend on that state.
        let mut interner = Interner::new();
        for text in [
            "SELECT ?x WHERE { ?x a <http://C> . ?x <http://p> ?y FILTER(?y > 3) } LIMIT 5",
            "SELECT ?y WHERE { ?y a <http://C> . ?y <http://p> ?x }",
            "ASK { ?a <http://p> ?b . ?b <http://p> ?c . ?c <http://p> ?a }",
            "SELECT ?x WHERE { ?x <http://p> <http://const> }",
            "SELECT * WHERE { ?a <http://p> ?b . ?b <http://p> ?c FILTER(?c = ?a) }",
        ] {
            let fresh = qa(text, &mut Interner::new());
            let reused = qa(text, &mut interner);
            assert_eq!(format!("{fresh:?}"), format!("{reused:?}"), "{text}");
        }
        assert!(interner.stats().hits > 0);
    }

    #[test]
    fn path_tally_collects_every_path() {
        let a = qa(
            "SELECT * WHERE { ?x <a>/<b> ?y . ?y <c>* ?z GRAPH ?g { ?z ^<d> ?w } }",
            &mut Interner::new(),
        );
        assert_eq!(a.paths.total, 3);
    }
}

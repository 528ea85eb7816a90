//! Ablation: the effect of duplicate elimination on the corpus statistics.
//!
//! The paper analyses the *Unique* corpus in the body and repeats the
//! analysis on the *Valid* corpus (with duplicates) in the appendix
//! (Tables 7–9, Figures 8–10), observing that the two populations differ
//! noticeably in how large and complex their queries are. This binary prints
//! the keyword shares, the fragment shares and the one-triple share for both
//! populations side by side so the effect of duplicate elimination can be
//! inspected directly on any corpus.

use sparqlog_bench::{banner, corpus_readers, raw_corpus, HarnessOptions};
use sparqlog_core::analysis::Population;
use sparqlog_core::cache::AnalysisCache;
use sparqlog_core::corpus::{analyze_streams_cached, FusedOptions};

fn main() {
    let opts = HarnessOptions::from_args();
    banner(
        "Ablation — Unique vs Valid (with duplicates) population",
        &opts,
    );
    // One cache across the population switch: the second run re-streams the
    // corpus but analyses nothing new.
    let cache = AnalysisCache::new();
    let run = |population| {
        analyze_streams_cached(
            corpus_readers(raw_corpus(&opts)),
            population,
            FusedOptions::default(),
            &cache,
        )
        .expect("in-memory streams cannot fail")
        .corpus
    };
    let unique = run(Population::Unique);
    let valid = run(Population::Valid);

    println!(
        "{:<14} {:>14} {:>9} {:>14} {:>9}",
        "Keyword", "Unique", "%", "Valid", "%"
    );
    for (u, v) in unique
        .combined
        .keywords
        .rows()
        .iter()
        .zip(valid.combined.keywords.rows())
    {
        println!(
            "{:<14} {:>14} {:>8.2}% {:>14} {:>8.2}%",
            u.0,
            u.1,
            u.2 * 100.0,
            v.1,
            v.2 * 100.0
        );
    }
    println!();
    let uf = &unique.combined.fragments;
    let vf = &valid.combined.fragments;
    println!(
        "{:<28} {:>12} {:>12}",
        "Fragment (share of AOF)", "Unique", "Valid"
    );
    println!(
        "{:<28} {:>11.2}% {:>11.2}%",
        "CQ",
        uf.cq_share_of_aof() * 100.0,
        vf.cq_share_of_aof() * 100.0
    );
    println!(
        "{:<28} {:>11.2}% {:>11.2}%",
        "CQF",
        uf.cqf_share_of_aof() * 100.0,
        vf.cqf_share_of_aof() * 100.0
    );
    println!(
        "{:<28} {:>11.2}% {:>11.2}%",
        "CQOF",
        uf.cqof_share_of_aof() * 100.0,
        vf.cqof_share_of_aof() * 100.0
    );
    println!();
    println!(
        "share of SELECT/ASK queries with at most one triple: unique {:.2}%, valid {:.2}%",
        unique.combined.triples.cumulative_share_at_most(1) * 100.0,
        valid.combined.triples.cumulative_share_at_most(1) * 100.0
    );
}

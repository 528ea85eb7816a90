//! Canonical serialization of parsed queries back to SPARQL text, and the
//! zero-materialization canonical fingerprint built on top of it.
//!
//! The serializer produces a *canonical form*: prefixed names are written as
//! fully expanded IRIs, whitespace is normalized, and keywords are
//! upper-cased. Two syntactically different but token-identical queries
//! therefore serialize to the same string, which is what the corpus pipeline
//! uses to detect duplicates (Table 1 "Unique") and what the streak detector
//! measures Levenshtein distance on (Section 8).
//!
//! Every writer in this module is generic over [`std::fmt::Write`], so the
//! same canonical-form walk can fill a `String` ([`to_canonical_string`]) or
//! stream straight into the 128-bit FNV-1a state of a [`CanonicalHasher`]
//! ([`canonical_fingerprint_of`]) without ever materializing the canonical
//! string — the duplicate-elimination hot path at corpus scale.

use crate::ast::*;
use crate::ast_ref;
use std::fmt::Write;

/// FNV-1a 128-bit offset basis.
const FNV_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
/// FNV-1a 128-bit prime.
const FNV_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

/// Serializes a query into its canonical textual form.
pub fn to_canonical_string(q: &Query) -> String {
    let mut out = String::new();
    write_query(&mut out, q);
    out
}

/// A 128-bit FNV-1a fingerprint of a canonical form given as a string, used
/// for duplicate elimination without retaining the canonical string. At 128
/// bits a corpus of 10⁹ queries has a collision probability below 10⁻²⁰, far
/// under the parse-ambiguity noise floor of any real log study.
pub fn canonical_fingerprint(canonical: &str) -> u128 {
    let mut hasher = CanonicalHasher::new();
    let _ = hasher.write_str(canonical);
    hasher.finish()
}

/// The 128-bit FNV-1a fingerprint of a query's canonical form, computed by
/// streaming the canonical-form walk directly into the hash state — no
/// canonical `String` is ever allocated. Equal, byte for byte, to
/// `canonical_fingerprint(&to_canonical_string(q))`.
pub fn canonical_fingerprint_of(q: &Query) -> u128 {
    let mut hasher = CanonicalHasher::new();
    write_query(&mut hasher, q);
    hasher.finish()
}

/// Serializes a borrowed [`ast_ref::Query`] into its canonical textual form.
/// Byte-identical to [`to_canonical_string`] of the query's `to_owned()`.
pub fn to_canonical_string_ref(q: &ast_ref::Query<'_>) -> String {
    let mut out = String::new();
    write_query_ref(&mut out, q);
    out
}

/// The 128-bit FNV-1a fingerprint of a borrowed query's canonical form,
/// streamed straight from the arena AST — the zero-copy pipeline's duplicate
/// key. Equal, byte for byte, to [`canonical_fingerprint_of`] applied to the
/// query's `to_owned()`.
pub fn canonical_fingerprint_of_ref(q: &ast_ref::Query<'_>) -> u128 {
    let mut hasher = CanonicalHasher::new();
    write_query_ref(&mut hasher, q);
    hasher.finish()
}

/// An [`std::fmt::Write`] sink that folds every byte written into a 128-bit
/// FNV-1a state. Feeding it the canonical-form walk yields the same
/// fingerprint as hashing [`to_canonical_string`]'s output, minus the
/// allocation, the copy and the second pass over the bytes.
#[derive(Debug, Clone)]
pub struct CanonicalHasher {
    state: u128,
}

impl CanonicalHasher {
    /// Creates a hasher seeded with the FNV-1a offset basis.
    pub fn new() -> CanonicalHasher {
        CanonicalHasher { state: FNV_OFFSET }
    }

    /// Streams a query's canonical form into the state.
    pub fn write_query(&mut self, q: &Query) {
        write_query(self, q);
    }

    /// The current fingerprint.
    pub fn finish(&self) -> u128 {
        self.state
    }
}

impl Default for CanonicalHasher {
    fn default() -> CanonicalHasher {
        CanonicalHasher::new()
    }
}

impl Write for CanonicalHasher {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        let mut state = self.state;
        for &byte in s.as_bytes() {
            state ^= u128::from(byte);
            state = state.wrapping_mul(FNV_PRIME);
        }
        self.state = state;
        Ok(())
    }
}

fn write_query<W: Write>(out: &mut W, q: &Query) {
    match q.form {
        QueryForm::Select => {
            let _ = out.write_str("SELECT ");
            if q.modifiers.distinct {
                let _ = out.write_str("DISTINCT ");
            }
            if q.modifiers.reduced {
                let _ = out.write_str("REDUCED ");
            }
            write_projection(out, &q.projection);
        }
        QueryForm::Ask => {
            let _ = out.write_str("ASK");
        }
        QueryForm::Construct => {
            let _ = out.write_str("CONSTRUCT");
            if let Some(template) = &q.construct_template {
                let _ = out.write_str(" { ");
                for t in template {
                    let _ = write!(out, "{} {} {} . ", t.subject, t.predicate, t.object);
                }
                let _ = out.write_char('}');
            }
        }
        QueryForm::Describe => {
            let _ = out.write_str("DESCRIBE ");
            write_projection(out, &q.projection);
        }
    }
    for d in &q.dataset {
        if d.named {
            let _ = write!(out, " FROM NAMED <{}>", d.iri);
        } else {
            let _ = write!(out, " FROM <{}>", d.iri);
        }
    }
    if let Some(body) = &q.where_clause {
        let _ = out.write_str(" WHERE ");
        write_group(out, body);
    }
    write_modifiers(out, &q.modifiers);
    if let Some(values) = &q.values {
        let _ = out.write_str(" VALUES ");
        write_inline_data(out, values);
    }
}

fn write_projection<W: Write>(out: &mut W, p: &Projection) {
    match p {
        Projection::All => {
            let _ = out.write_char('*');
        }
        Projection::Items(items) => {
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    let _ = out.write_char(' ');
                }
                match &item.expr {
                    Some(e) => {
                        let _ = out.write_char('(');
                        write_expr(out, e);
                        let _ = write!(out, " AS ?{})", item.var);
                    }
                    None => {
                        let _ = write!(out, "?{}", item.var);
                    }
                }
            }
        }
        Projection::Terms(terms) => {
            for (i, t) in terms.iter().enumerate() {
                if i > 0 {
                    let _ = out.write_char(' ');
                }
                let _ = write!(out, "{t}");
            }
        }
        Projection::None => {}
    }
}

fn write_modifiers<W: Write>(out: &mut W, m: &SolutionModifiers) {
    if !m.group_by.is_empty() {
        let _ = out.write_str(" GROUP BY");
        for g in &m.group_by {
            let _ = out.write_char(' ');
            match &g.alias {
                Some(a) => {
                    let _ = out.write_char('(');
                    write_expr(out, &g.expr);
                    let _ = write!(out, " AS ?{a})");
                }
                None => write_expr(out, &g.expr),
            }
        }
    }
    if !m.having.is_empty() {
        let _ = out.write_str(" HAVING");
        for h in &m.having {
            let _ = out.write_str(" (");
            write_expr(out, h);
            let _ = out.write_char(')');
        }
    }
    if !m.order_by.is_empty() {
        let _ = out.write_str(" ORDER BY");
        for o in &m.order_by {
            match o.direction {
                OrderDirection::Asc => {
                    let _ = out.write_str(" ASC(");
                }
                OrderDirection::Desc => {
                    let _ = out.write_str(" DESC(");
                }
            }
            write_expr(out, &o.expr);
            let _ = out.write_char(')');
        }
    }
    if let Some(l) = m.limit {
        let _ = write!(out, " LIMIT {l}");
    }
    if let Some(o) = m.offset {
        let _ = write!(out, " OFFSET {o}");
    }
}

/// Writes a group graph pattern (including braces) into any
/// [`std::fmt::Write`] sink.
pub fn write_group<W: Write>(out: &mut W, g: &GroupGraphPattern) {
    let _ = out.write_str("{ ");
    for el in &g.elements {
        match el {
            GroupElement::Triples(ts) => {
                for t in ts {
                    match t {
                        TripleOrPath::Triple(t) => {
                            let _ = write!(out, "{} {} {} . ", t.subject, t.predicate, t.object);
                        }
                        TripleOrPath::Path(p) => {
                            let _ = write!(out, "{} {} {} . ", p.subject, p.path, p.object);
                        }
                    }
                }
            }
            GroupElement::Filter(e) => {
                let _ = out.write_str("FILTER(");
                write_expr(out, e);
                let _ = out.write_str(") ");
            }
            GroupElement::Bind { expr, var } => {
                let _ = out.write_str("BIND(");
                write_expr(out, expr);
                let _ = write!(out, " AS ?{var}) ");
            }
            GroupElement::Optional(g) => {
                let _ = out.write_str("OPTIONAL ");
                write_group(out, g);
                let _ = out.write_char(' ');
            }
            GroupElement::Union(branches) => {
                for (i, b) in branches.iter().enumerate() {
                    if i > 0 {
                        let _ = out.write_str("UNION ");
                    }
                    write_group(out, b);
                    let _ = out.write_char(' ');
                }
            }
            GroupElement::Graph { name, pattern } => {
                let _ = write!(out, "GRAPH {name} ");
                write_group(out, pattern);
                let _ = out.write_char(' ');
            }
            GroupElement::Minus(g) => {
                let _ = out.write_str("MINUS ");
                write_group(out, g);
                let _ = out.write_char(' ');
            }
            GroupElement::Service {
                silent,
                name,
                pattern,
            } => {
                let _ = out.write_str("SERVICE ");
                if *silent {
                    let _ = out.write_str("SILENT ");
                }
                let _ = write!(out, "{name} ");
                write_group(out, pattern);
                let _ = out.write_char(' ');
            }
            GroupElement::Values(d) => {
                let _ = out.write_str("VALUES ");
                write_inline_data(out, d);
                let _ = out.write_char(' ');
            }
            GroupElement::SubSelect(q) => {
                let _ = out.write_str("{ ");
                write_query(out, q);
                let _ = out.write_str(" } ");
            }
            GroupElement::Group(g) => {
                write_group(out, g);
                let _ = out.write_char(' ');
            }
        }
    }
    let _ = out.write_char('}');
}

fn write_inline_data<W: Write>(out: &mut W, d: &InlineData) {
    let _ = out.write_char('(');
    for (i, v) in d.variables.iter().enumerate() {
        if i > 0 {
            let _ = out.write_char(' ');
        }
        let _ = write!(out, "?{v}");
    }
    let _ = out.write_str(") { ");
    for row in &d.rows {
        let _ = out.write_char('(');
        for (i, cell) in row.iter().enumerate() {
            if i > 0 {
                let _ = out.write_char(' ');
            }
            match cell {
                Some(t) => {
                    let _ = write!(out, "{t}");
                }
                None => {
                    let _ = out.write_str("UNDEF");
                }
            }
        }
        let _ = out.write_str(") ");
    }
    let _ = out.write_char('}');
}

fn write_expr<W: Write>(out: &mut W, e: &Expression) {
    match e {
        Expression::Var(v) => {
            let _ = write!(out, "?{v}");
        }
        Expression::Term(t) => {
            let _ = write!(out, "{t}");
        }
        Expression::Or(a, b) => write_binary(out, a, "||", b),
        Expression::And(a, b) => write_binary(out, a, "&&", b),
        Expression::Equal(a, b) => write_binary(out, a, "=", b),
        Expression::NotEqual(a, b) => write_binary(out, a, "!=", b),
        Expression::Less(a, b) => write_binary(out, a, "<", b),
        Expression::Greater(a, b) => write_binary(out, a, ">", b),
        Expression::LessEq(a, b) => write_binary(out, a, "<=", b),
        Expression::GreaterEq(a, b) => write_binary(out, a, ">=", b),
        Expression::Add(a, b) => write_binary(out, a, "+", b),
        Expression::Subtract(a, b) => write_binary(out, a, "-", b),
        Expression::Multiply(a, b) => write_binary(out, a, "*", b),
        Expression::Divide(a, b) => write_binary(out, a, "/", b),
        Expression::In(a, list) => {
            write_expr(out, a);
            let _ = out.write_str(" IN (");
            write_expr_list(out, list);
            let _ = out.write_char(')');
        }
        Expression::NotIn(a, list) => {
            write_expr(out, a);
            let _ = out.write_str(" NOT IN (");
            write_expr_list(out, list);
            let _ = out.write_char(')');
        }
        Expression::Not(a) => {
            let _ = out.write_char('!');
            write_expr_parens(out, a);
        }
        Expression::UnaryMinus(a) => {
            let _ = out.write_char('-');
            write_expr_parens(out, a);
        }
        Expression::UnaryPlus(a) => {
            let _ = out.write_char('+');
            write_expr_parens(out, a);
        }
        Expression::FunctionCall(name, args) => {
            if name.contains("://")
                || name.contains(':') && !name.chars().all(|c| c.is_ascii_uppercase() || c == '_')
            {
                let _ = write!(out, "<{name}>(");
            } else {
                let _ = write!(out, "{name}(");
            }
            write_expr_list(out, args);
            let _ = out.write_char(')');
        }
        Expression::Exists(g) => {
            let _ = out.write_str("EXISTS ");
            write_group(out, g);
        }
        Expression::NotExists(g) => {
            let _ = out.write_str("NOT EXISTS ");
            write_group(out, g);
        }
        Expression::Aggregate(agg) => {
            let name = match agg.kind {
                AggregateKind::Count => "COUNT",
                AggregateKind::Sum => "SUM",
                AggregateKind::Min => "MIN",
                AggregateKind::Max => "MAX",
                AggregateKind::Avg => "AVG",
                AggregateKind::Sample => "SAMPLE",
                AggregateKind::GroupConcat => "GROUP_CONCAT",
            };
            let _ = write!(out, "{name}(");
            if agg.distinct {
                let _ = out.write_str("DISTINCT ");
            }
            match &agg.expr {
                Some(e) => write_expr(out, e),
                None => {
                    let _ = out.write_char('*');
                }
            }
            if let Some(sep) = &agg.separator {
                let _ = write!(out, "; SEPARATOR = {sep:?}");
            }
            let _ = out.write_char(')');
        }
    }
}

fn write_binary<W: Write>(out: &mut W, a: &Expression, op: &str, b: &Expression) {
    write_expr_parens(out, a);
    let _ = write!(out, " {op} ");
    write_expr_parens(out, b);
}

fn write_expr_parens<W: Write>(out: &mut W, e: &Expression) {
    let atomic = matches!(
        e,
        Expression::Var(_)
            | Expression::Term(_)
            | Expression::FunctionCall(_, _)
            | Expression::Aggregate(_)
    );
    if atomic {
        write_expr(out, e);
    } else {
        let _ = out.write_char('(');
        write_expr(out, e);
        let _ = out.write_char(')');
    }
}

fn write_expr_list<W: Write>(out: &mut W, list: &[Expression]) {
    for (i, e) in list.iter().enumerate() {
        if i > 0 {
            let _ = out.write_str(", ");
        }
        write_expr(out, e);
    }
}

// ---------------------------------------------------------------------------
// Borrowed-AST mirrors of the canonical writers. These must stay byte-for-byte
// identical to the owned writers above: the fused pipeline fingerprints the
// borrowed form while the test oracle fingerprints the owned form, and the
// differential gates compare the two.
// ---------------------------------------------------------------------------

fn write_query_ref<W: Write>(out: &mut W, q: &ast_ref::Query<'_>) {
    match q.form {
        QueryForm::Select => {
            let _ = out.write_str("SELECT ");
            if q.modifiers.distinct {
                let _ = out.write_str("DISTINCT ");
            }
            if q.modifiers.reduced {
                let _ = out.write_str("REDUCED ");
            }
            write_projection_ref(out, &q.projection);
        }
        QueryForm::Ask => {
            let _ = out.write_str("ASK");
        }
        QueryForm::Construct => {
            let _ = out.write_str("CONSTRUCT");
            if let Some(template) = q.construct_template {
                let _ = out.write_str(" { ");
                for t in template {
                    let _ = write!(out, "{} {} {} . ", t.subject, t.predicate, t.object);
                }
                let _ = out.write_char('}');
            }
        }
        QueryForm::Describe => {
            let _ = out.write_str("DESCRIBE ");
            write_projection_ref(out, &q.projection);
        }
    }
    for d in q.dataset {
        if d.named {
            let _ = write!(out, " FROM NAMED <{}>", d.iri);
        } else {
            let _ = write!(out, " FROM <{}>", d.iri);
        }
    }
    if let Some(body) = &q.where_clause {
        let _ = out.write_str(" WHERE ");
        write_group_ref(out, body);
    }
    write_modifiers_ref(out, &q.modifiers);
    if let Some(values) = &q.values {
        let _ = out.write_str(" VALUES ");
        write_inline_data_ref(out, values);
    }
}

fn write_projection_ref<W: Write>(out: &mut W, p: &ast_ref::Projection<'_>) {
    match p {
        ast_ref::Projection::All => {
            let _ = out.write_char('*');
        }
        ast_ref::Projection::Items(items) => {
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    let _ = out.write_char(' ');
                }
                match &item.expr {
                    Some(e) => {
                        let _ = out.write_char('(');
                        write_expr_ref(out, e);
                        let _ = write!(out, " AS ?{})", item.var);
                    }
                    None => {
                        let _ = write!(out, "?{}", item.var);
                    }
                }
            }
        }
        ast_ref::Projection::Terms(terms) => {
            for (i, t) in terms.iter().enumerate() {
                if i > 0 {
                    let _ = out.write_char(' ');
                }
                let _ = write!(out, "{t}");
            }
        }
        ast_ref::Projection::None => {}
    }
}

fn write_modifiers_ref<W: Write>(out: &mut W, m: &ast_ref::SolutionModifiers<'_>) {
    if !m.group_by.is_empty() {
        let _ = out.write_str(" GROUP BY");
        for g in m.group_by {
            let _ = out.write_char(' ');
            match &g.alias {
                Some(a) => {
                    let _ = out.write_char('(');
                    write_expr_ref(out, &g.expr);
                    let _ = write!(out, " AS ?{a})");
                }
                None => write_expr_ref(out, &g.expr),
            }
        }
    }
    if !m.having.is_empty() {
        let _ = out.write_str(" HAVING");
        for h in m.having {
            let _ = out.write_str(" (");
            write_expr_ref(out, h);
            let _ = out.write_char(')');
        }
    }
    if !m.order_by.is_empty() {
        let _ = out.write_str(" ORDER BY");
        for o in m.order_by {
            match o.direction {
                OrderDirection::Asc => {
                    let _ = out.write_str(" ASC(");
                }
                OrderDirection::Desc => {
                    let _ = out.write_str(" DESC(");
                }
            }
            write_expr_ref(out, &o.expr);
            let _ = out.write_char(')');
        }
    }
    if let Some(l) = m.limit {
        let _ = write!(out, " LIMIT {l}");
    }
    if let Some(o) = m.offset {
        let _ = write!(out, " OFFSET {o}");
    }
}

/// Borrowed-AST twin of [`write_group`].
pub fn write_group_ref<W: Write>(out: &mut W, g: &ast_ref::GroupGraphPattern<'_>) {
    let _ = out.write_str("{ ");
    for el in g.elements {
        match el {
            ast_ref::GroupElement::Triples(ts) => {
                for t in *ts {
                    match t {
                        ast_ref::TripleOrPath::Triple(t) => {
                            let _ = write!(out, "{} {} {} . ", t.subject, t.predicate, t.object);
                        }
                        ast_ref::TripleOrPath::Path(p) => {
                            let _ = write!(out, "{} {} {} . ", p.subject, p.path, p.object);
                        }
                    }
                }
            }
            ast_ref::GroupElement::Filter(e) => {
                let _ = out.write_str("FILTER(");
                write_expr_ref(out, e);
                let _ = out.write_str(") ");
            }
            ast_ref::GroupElement::Bind { expr, var } => {
                let _ = out.write_str("BIND(");
                write_expr_ref(out, expr);
                let _ = write!(out, " AS ?{var}) ");
            }
            ast_ref::GroupElement::Optional(g) => {
                let _ = out.write_str("OPTIONAL ");
                write_group_ref(out, g);
                let _ = out.write_char(' ');
            }
            ast_ref::GroupElement::Union(branches) => {
                for (i, b) in branches.iter().enumerate() {
                    if i > 0 {
                        let _ = out.write_str("UNION ");
                    }
                    write_group_ref(out, b);
                    let _ = out.write_char(' ');
                }
            }
            ast_ref::GroupElement::Graph { name, pattern } => {
                let _ = write!(out, "GRAPH {name} ");
                write_group_ref(out, pattern);
                let _ = out.write_char(' ');
            }
            ast_ref::GroupElement::Minus(g) => {
                let _ = out.write_str("MINUS ");
                write_group_ref(out, g);
                let _ = out.write_char(' ');
            }
            ast_ref::GroupElement::Service {
                silent,
                name,
                pattern,
            } => {
                let _ = out.write_str("SERVICE ");
                if *silent {
                    let _ = out.write_str("SILENT ");
                }
                let _ = write!(out, "{name} ");
                write_group_ref(out, pattern);
                let _ = out.write_char(' ');
            }
            ast_ref::GroupElement::Values(d) => {
                let _ = out.write_str("VALUES ");
                write_inline_data_ref(out, d);
                let _ = out.write_char(' ');
            }
            ast_ref::GroupElement::SubSelect(q) => {
                let _ = out.write_str("{ ");
                write_query_ref(out, q);
                let _ = out.write_str(" } ");
            }
            ast_ref::GroupElement::Group(g) => {
                write_group_ref(out, g);
                let _ = out.write_char(' ');
            }
        }
    }
    let _ = out.write_char('}');
}

fn write_inline_data_ref<W: Write>(out: &mut W, d: &ast_ref::InlineData<'_>) {
    let _ = out.write_char('(');
    for (i, v) in d.variables.iter().enumerate() {
        if i > 0 {
            let _ = out.write_char(' ');
        }
        let _ = write!(out, "?{v}");
    }
    let _ = out.write_str(") { ");
    for row in d.rows {
        let _ = out.write_char('(');
        for (i, cell) in row.iter().enumerate() {
            if i > 0 {
                let _ = out.write_char(' ');
            }
            match cell {
                Some(t) => {
                    let _ = write!(out, "{t}");
                }
                None => {
                    let _ = out.write_str("UNDEF");
                }
            }
        }
        let _ = out.write_str(") ");
    }
    let _ = out.write_char('}');
}

fn write_expr_ref<W: Write>(out: &mut W, e: &ast_ref::Expression<'_>) {
    match e {
        ast_ref::Expression::Var(v) => {
            let _ = write!(out, "?{v}");
        }
        ast_ref::Expression::Term(t) => {
            let _ = write!(out, "{t}");
        }
        ast_ref::Expression::Or(a, b) => write_binary_ref(out, a, "||", b),
        ast_ref::Expression::And(a, b) => write_binary_ref(out, a, "&&", b),
        ast_ref::Expression::Equal(a, b) => write_binary_ref(out, a, "=", b),
        ast_ref::Expression::NotEqual(a, b) => write_binary_ref(out, a, "!=", b),
        ast_ref::Expression::Less(a, b) => write_binary_ref(out, a, "<", b),
        ast_ref::Expression::Greater(a, b) => write_binary_ref(out, a, ">", b),
        ast_ref::Expression::LessEq(a, b) => write_binary_ref(out, a, "<=", b),
        ast_ref::Expression::GreaterEq(a, b) => write_binary_ref(out, a, ">=", b),
        ast_ref::Expression::Add(a, b) => write_binary_ref(out, a, "+", b),
        ast_ref::Expression::Subtract(a, b) => write_binary_ref(out, a, "-", b),
        ast_ref::Expression::Multiply(a, b) => write_binary_ref(out, a, "*", b),
        ast_ref::Expression::Divide(a, b) => write_binary_ref(out, a, "/", b),
        ast_ref::Expression::In(a, list) => {
            write_expr_ref(out, a);
            let _ = out.write_str(" IN (");
            write_expr_list_ref(out, list);
            let _ = out.write_char(')');
        }
        ast_ref::Expression::NotIn(a, list) => {
            write_expr_ref(out, a);
            let _ = out.write_str(" NOT IN (");
            write_expr_list_ref(out, list);
            let _ = out.write_char(')');
        }
        ast_ref::Expression::Not(a) => {
            let _ = out.write_char('!');
            write_expr_parens_ref(out, a);
        }
        ast_ref::Expression::UnaryMinus(a) => {
            let _ = out.write_char('-');
            write_expr_parens_ref(out, a);
        }
        ast_ref::Expression::UnaryPlus(a) => {
            let _ = out.write_char('+');
            write_expr_parens_ref(out, a);
        }
        ast_ref::Expression::FunctionCall(name, args) => {
            if name.contains("://")
                || name.contains(':') && !name.chars().all(|c| c.is_ascii_uppercase() || c == '_')
            {
                let _ = write!(out, "<{name}>(");
            } else {
                let _ = write!(out, "{name}(");
            }
            write_expr_list_ref(out, args);
            let _ = out.write_char(')');
        }
        ast_ref::Expression::Exists(g) => {
            let _ = out.write_str("EXISTS ");
            write_group_ref(out, g);
        }
        ast_ref::Expression::NotExists(g) => {
            let _ = out.write_str("NOT EXISTS ");
            write_group_ref(out, g);
        }
        ast_ref::Expression::Aggregate(agg) => {
            let name = match agg.kind {
                AggregateKind::Count => "COUNT",
                AggregateKind::Sum => "SUM",
                AggregateKind::Min => "MIN",
                AggregateKind::Max => "MAX",
                AggregateKind::Avg => "AVG",
                AggregateKind::Sample => "SAMPLE",
                AggregateKind::GroupConcat => "GROUP_CONCAT",
            };
            let _ = write!(out, "{name}(");
            if agg.distinct {
                let _ = out.write_str("DISTINCT ");
            }
            match agg.expr {
                Some(e) => write_expr_ref(out, e),
                None => {
                    let _ = out.write_char('*');
                }
            }
            if let Some(sep) = &agg.separator {
                let _ = write!(out, "; SEPARATOR = {sep:?}");
            }
            let _ = out.write_char(')');
        }
    }
}

fn write_binary_ref<W: Write>(
    out: &mut W,
    a: &ast_ref::Expression<'_>,
    op: &str,
    b: &ast_ref::Expression<'_>,
) {
    write_expr_parens_ref(out, a);
    let _ = write!(out, " {op} ");
    write_expr_parens_ref(out, b);
}

fn write_expr_parens_ref<W: Write>(out: &mut W, e: &ast_ref::Expression<'_>) {
    let atomic = matches!(
        e,
        ast_ref::Expression::Var(_)
            | ast_ref::Expression::Term(_)
            | ast_ref::Expression::FunctionCall(_, _)
            | ast_ref::Expression::Aggregate(_)
    );
    if atomic {
        write_expr_ref(out, e);
    } else {
        let _ = out.write_char('(');
        write_expr_ref(out, e);
        let _ = out.write_char(')');
    }
}

fn write_expr_list_ref<W: Write>(out: &mut W, list: &[ast_ref::Expression<'_>]) {
    for (i, e) in list.iter().enumerate() {
        if i > 0 {
            let _ = out.write_str(", ");
        }
        write_expr_ref(out, e);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_query;

    #[test]
    fn canonical_form_is_reparseable() {
        let queries = [
            "SELECT DISTINCT ?x WHERE { ?x a <http://ex.org/C> . FILTER(?x != <http://ex.org/y>) } LIMIT 10",
            "ASK { ?s <http://p> ?o . OPTIONAL { ?o <http://q> ?z } }",
            "PREFIX foaf: <http://xmlns.com/foaf/0.1/> SELECT ?n WHERE { ?p foaf:name ?n } ORDER BY ASC(?n)",
            "CONSTRUCT { ?s <http://p> ?o } WHERE { ?s <http://p> ?o }",
            "DESCRIBE <http://example.org/resource>",
        ];
        for q in queries {
            let parsed = parse_query(q).unwrap();
            let canon = to_canonical_string(&parsed);
            let reparsed = parse_query(&canon).unwrap_or_else(|e| {
                panic!("canonical form of {q:?} not reparseable: {canon:?}: {e}")
            });
            let recanon = to_canonical_string(&reparsed);
            assert_eq!(
                canon, recanon,
                "canonicalization must be a fixpoint for {q:?}"
            );
        }
    }

    #[test]
    fn canonical_form_identifies_whitespace_variants() {
        let a = parse_query("SELECT ?x WHERE { ?x a <http://ex.org/C> }").unwrap();
        let b = parse_query("SELECT   ?x\nWHERE {\n  ?x a <http://ex.org/C> .\n}").unwrap();
        assert_eq!(to_canonical_string(&a), to_canonical_string(&b));
    }

    #[test]
    fn canonical_form_distinguishes_distinct() {
        let a = parse_query("SELECT ?x WHERE { ?x a <http://ex.org/C> }").unwrap();
        let b = parse_query("SELECT DISTINCT ?x WHERE { ?x a <http://ex.org/C> }").unwrap();
        assert_ne!(to_canonical_string(&a), to_canonical_string(&b));
    }

    #[test]
    fn hasher_matches_materialized_fingerprint() {
        let queries = [
            "SELECT DISTINCT ?x WHERE { ?x a <http://ex.org/C> . FILTER(?x != <http://ex.org/y>) } LIMIT 10",
            "ASK { ?s <http://p> ?o . OPTIONAL { ?o <http://q> ?z } }",
            "CONSTRUCT { ?s <http://p> ?o } WHERE { ?s <http://p> ?o }",
            "DESCRIBE <http://example.org/resource>",
            "SELECT (COUNT(?x) AS ?c) WHERE { ?x <http://p> ?y } GROUP BY ?y HAVING (AVG(?y) > 2)",
            "SELECT ?x WHERE { ?x <http://a> ?y VALUES ?x { <http://v> <http://w> } }",
        ];
        for q in queries {
            let parsed = parse_query(q).unwrap();
            assert_eq!(
                canonical_fingerprint_of(&parsed),
                canonical_fingerprint(&to_canonical_string(&parsed)),
                "streamed fingerprint diverges for {q:?}"
            );
        }
    }

    #[test]
    fn fingerprints_distinguish_nearby_strings() {
        let a = canonical_fingerprint("SELECT ?x WHERE { ?x <http://p> ?y }");
        let b = canonical_fingerprint("SELECT ?x WHERE { ?x <http://q> ?y }");
        assert_ne!(a, b);
        assert_eq!(
            a,
            canonical_fingerprint("SELECT ?x WHERE { ?x <http://p> ?y }")
        );
    }

    #[test]
    fn borrowed_writers_match_owned_writers_byte_for_byte() {
        let queries = [
            "SELECT DISTINCT ?x WHERE { ?x a <http://ex.org/C> . FILTER(?x != <http://ex.org/y>) } LIMIT 10",
            "ASK { ?s <http://p> ?o . OPTIONAL { ?o <http://q> ?z } }",
            "PREFIX foaf: <http://xmlns.com/foaf/0.1/> SELECT ?n WHERE { ?p foaf:name ?n } ORDER BY ASC(?n)",
            "CONSTRUCT { ?s <http://p> ?o } WHERE { ?s <http://p> ?o }",
            "DESCRIBE <http://example.org/resource>",
            "SELECT (COUNT(?x) AS ?c) WHERE { ?x <http://p> ?y } GROUP BY ?y HAVING (AVG(?y) > 2)",
            "SELECT ?x WHERE { { SELECT ?x WHERE { ?x ^(<http://a>/<http://b>)* ?z } } \
             VALUES (?x ?y) { (<http://v> UNDEF) } }",
            "SELECT ?x WHERE { ?x <http://a> ?y . SERVICE SILENT <http://e> { ?y !(^<http://b>|<http://c>) ?z } \
             MINUS { ?x <http://d> \"lit\"@en } BIND(GROUP_CONCAT(DISTINCT ?y; SEPARATOR = \",\") AS ?g) }",
        ];
        let arena = crate::arena::Arena::new();
        for q in queries {
            let borrowed = crate::parse_query_in(q, &arena).unwrap();
            let owned = borrowed.to_owned();
            assert_eq!(
                to_canonical_string_ref(&borrowed),
                to_canonical_string(&owned),
                "borrowed canonical form diverges for {q:?}"
            );
            assert_eq!(
                canonical_fingerprint_of_ref(&borrowed),
                canonical_fingerprint_of(&owned),
                "borrowed fingerprint diverges for {q:?}"
            );
        }
    }

    #[test]
    fn hasher_streams_multibyte_chars_like_the_string_pass() {
        // write_char on a multibyte char must hash its UTF-8 bytes exactly
        // as the string pass does.
        let mut h = CanonicalHasher::new();
        let _ = h.write_char('é');
        let _ = h.write_str("αβ");
        assert_eq!(h.finish(), canonical_fingerprint("éαβ"));
    }
}

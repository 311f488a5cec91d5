//! Prepared-statement plan cache keyed on normalized statement text.
//!
//! Normalization lexes the statement and re-renders it one canonical token
//! per space, identifiers lowercased, every literal replaced by `?`. Two
//! statements differing only in whitespace, keyword case, or literal values
//! therefore share one cache entry; the captured literal values are bound
//! back in at execute time as ordinary parameters. Entries remember the
//! engine's DDL epoch at insert: any CREATE/DROP/apply_design bumps the
//! epoch, so the next lookup drops the stale entry (counted as an
//! invalidation) and re-parses.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use hpd_common::Value;
use hpd_engine::Database;

use crate::ast::SqlStatement;
use crate::error::SqlResult;
use crate::lexer::{lex, Tok};
use crate::metrics;
use crate::parser::parse;

/// The normalized form of a statement: the cache key plus the parameter
/// slots. `Some(v)` slots were literals captured from the text; `None`
/// slots were explicit `?` placeholders the caller must fill.
#[derive(Debug, Clone, PartialEq)]
pub struct NormalizedSql {
    pub key: String,
    pub slots: Vec<Option<Value>>,
}

/// Normalize one statement's text. Fails only on lex errors.
pub fn normalize(text: &str) -> SqlResult<NormalizedSql> {
    let tokens = lex(text)?;
    let mut key = String::new();
    let mut slots = Vec::new();
    let mut i = 0;
    // Tracks whether the previous emitted token can end an operand — if it
    // can, a following `-` is binary subtraction; otherwise it is a unary
    // sign folded into the literal.
    let mut prev_operand = false;
    while i < tokens.len() {
        let t = &tokens[i];
        let rendered = match &t.tok {
            Tok::Eof => break,
            Tok::Number(s) => {
                prev_operand = true;
                match number_value(s, false) {
                    Some(v) => {
                        slots.push(Some(v));
                        "?".to_string()
                    }
                    // Outside `i64`: left in the key, which the parser then
                    // refuses as it refuses the text.
                    None => t.tok.render(),
                }
            }
            Tok::Str(s) => {
                slots.push(Some(Value::str(s.clone())));
                prev_operand = true;
                "?".to_string()
            }
            Tok::Punct("?") => {
                slots.push(None);
                prev_operand = true;
                "?".to_string()
            }
            Tok::Punct("-") if !prev_operand => {
                let next = tokens.get(i + 1).map(|t| &t.tok);
                if let Some(v) = next.and_then(|t| match t {
                    Tok::Number(s) => number_value(s, true),
                    _ => None,
                }) {
                    slots.push(Some(v));
                    i += 1;
                    prev_operand = true;
                    "?".to_string()
                } else {
                    prev_operand = false;
                    "-".to_string()
                }
            }
            tok => {
                prev_operand = matches!(tok, Tok::Ident(_) | Tok::Punct(")"));
                tok.render()
            }
        };
        if !key.is_empty() {
            key.push(' ');
        }
        key.push_str(&rendered);
        i += 1;
    }
    Ok(NormalizedSql { key, slots })
}

/// Literal value for a lexed number, mirroring the parser's typing rules:
/// integers become `Int32` when they fit, else `Int64`; anything with a
/// fraction becomes `Float64` (and is coerced at bind time). `None` where
/// the parser refuses the literal: an integer outside `i64`.
fn number_value(s: &str, negative: bool) -> Option<Value> {
    let text = if negative {
        format!("-{s}")
    } else {
        s.to_string()
    };
    if text.contains('.') {
        return text.parse().ok().map(Value::Float64);
    }
    let n: i64 = text.parse().ok()?;
    Some(match i32::try_from(n) {
        Ok(v) => Value::Int32(v),
        Err(_) => Value::Int64(n),
    })
}

struct Entry {
    stmt: SqlStatement,
    epoch: u64,
}

/// Cache statistics, local to one cache (the `sql.plancache.*` global
/// counters aggregate across all caches in the process).
#[derive(Debug, Default)]
pub struct PlanCacheStats {
    hits: AtomicU64,
    misses: AtomicU64,
    invalidations: AtomicU64,
}

/// Bounded map from normalized statement text to its parsed template.
/// Shared across sessions via `Arc`; FIFO eviction at capacity.
pub struct PlanCache {
    capacity: usize,
    entries: Mutex<(HashMap<String, Entry>, VecDeque<String>)>,
    stats: PlanCacheStats,
}

impl PlanCache {
    pub fn new(capacity: usize) -> PlanCache {
        PlanCache {
            capacity: capacity.max(1),
            entries: Mutex::new((HashMap::new(), VecDeque::new())),
            stats: PlanCacheStats::default(),
        }
    }

    pub fn hits(&self) -> u64 {
        self.stats.hits.load(Ordering::Relaxed)
    }

    pub fn misses(&self) -> u64 {
        self.stats.misses.load(Ordering::Relaxed)
    }

    pub fn invalidations(&self) -> u64 {
        self.stats.invalidations.load(Ordering::Relaxed)
    }

    pub fn len(&self) -> usize {
        self.entries.lock().unwrap().0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Get the parsed template for `text`, parsing and caching on miss.
    ///
    /// Returns the template plus `Some(slots)` when the template was parsed
    /// from the normalized key (its `?` parameters cover every literal; the
    /// `slots` say which were captured and which the caller must supply),
    /// or `None` when the template was parsed from the original text (its
    /// `?` parameters are exactly the caller's, in order). Entries whose
    /// DDL epoch is stale are invalidated here.
    pub fn lookup(
        &self,
        db: &Database,
        text: &str,
    ) -> SqlResult<(SqlStatement, Option<Vec<Option<Value>>>)> {
        let m = metrics();
        let norm = normalize(text)?;
        let epoch = db.ddl_epoch();
        {
            let mut guard = self.entries.lock().unwrap();
            let (map, order) = &mut *guard;
            if let Some(entry) = map.get(&norm.key) {
                if entry.epoch == epoch {
                    self.stats.hits.fetch_add(1, Ordering::Relaxed);
                    m.cache_hit.inc();
                    return Ok((entry.stmt.clone(), Some(norm.slots)));
                }
                map.remove(&norm.key);
                order.retain(|k| k != &norm.key);
                self.stats.invalidations.fetch_add(1, Ordering::Relaxed);
                m.cache_invalidate.inc();
            }
        }
        self.stats.misses.fetch_add(1, Ordering::Relaxed);
        m.cache_miss.inc();
        // Parse the normalized key (literals are now `?` params) so the
        // template is reusable across literal values. If the key fails to
        // parse, re-parse the original text so the error offset points into
        // what the user actually wrote.
        let stmt = match parse(&norm.key) {
            Ok(stmt) => stmt,
            // A key that does not parse (e.g. a folded unary minus in a
            // position the grammar rejects) falls back to the original
            // text. The result carries baked-in literals, so it must NOT be
            // cached under the normalized key.
            Err(_) => return parse(text).map(|stmt| (stmt, None)),
        };
        if stmt.cacheable() {
            let mut guard = self.entries.lock().unwrap();
            let (map, order) = &mut *guard;
            if map.len() >= self.capacity {
                if let Some(old) = order.pop_front() {
                    map.remove(&old);
                }
            }
            if map
                .insert(
                    norm.key.clone(),
                    Entry {
                        stmt: stmt.clone(),
                        epoch,
                    },
                )
                .is_none()
            {
                order.push_back(norm.key.clone());
            }
        }
        Ok((stmt, Some(norm.slots)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization_is_whitespace_case_and_literal_insensitive() {
        let a = normalize("SELECT a FROM t WHERE b = 10").unwrap();
        let b = normalize("select  a\nfrom T where B=99").unwrap();
        assert_eq!(a.key, b.key);
        assert_eq!(a.slots, vec![Some(Value::Int32(10))]);
        assert_eq!(b.slots, vec![Some(Value::Int32(99))]);
    }

    #[test]
    fn unary_minus_folds_into_the_captured_literal() {
        let n = normalize("update t set b = b + -17 where k = 1").unwrap();
        assert_eq!(
            n.slots,
            vec![Some(Value::Int32(-17)), Some(Value::Int32(1))]
        );
        assert!(!n.key.contains('-'), "key was: {}", n.key);
    }

    #[test]
    fn binary_minus_is_not_folded() {
        let n = normalize("select a from t where b = a - 3").unwrap();
        assert_eq!(n.key, "select a from t where b = a - ?");
        assert_eq!(n.slots, vec![Some(Value::Int32(3))]);
    }

    #[test]
    fn explicit_params_leave_open_slots() {
        let n = normalize("select a from t where b = ? and c = 5").unwrap();
        assert_eq!(n.slots, vec![None, Some(Value::Int32(5))]);
    }
}

//! Seeded cold variants of a suite program.
//!
//! A variant renames every store object of the base program by prefixing
//! it with a tag drawn from the seed and the variant's index. The prefix
//! keeps the objects' relative order, and transaction names are
//! untouched, so the variant has the base program's verdict shape (the
//! same violation signatures) but a new canonical source and therefore a
//! new verdict-cache key: every variant is a cold job for the daemon.

use c4_lang::ast::{CallExpr, Condition, Expr, Program, Stmt};
use c4_store::op::ObjectName;
use rand::{rngs::StdRng, RngCore, SeedableRng};

/// Generates the variants of one base program for one seed.
pub struct Variants {
    base: Program,
    tag: u64,
}

impl Variants {
    /// # Panics
    ///
    /// Panics if `base_source` does not parse (suite sources always do).
    pub fn new(base_source: &str, seed: u64) -> Variants {
        let base = c4_lang::parse(base_source).expect("suite sources parse");
        Variants {
            base,
            tag: StdRng::seed_from_u64(seed).next_u64(),
        }
    }

    /// The canonical source of variant `index`.
    pub fn source(&self, index: u64) -> String {
        let prefix = format!("v{:016x}n{index}_", self.tag);
        let rename = |o: &ObjectName| ObjectName::new(format!("{prefix}{}", o.as_str()));
        let mut p = self.base.clone();
        for (name, _) in &mut p.objects {
            *name = rename(name);
        }
        for set in &mut p.atomic_sets {
            for name in set.iter_mut() {
                *name = rename(name);
            }
        }
        for t in &mut p.txns {
            stmts(&mut t.body, &rename);
        }
        c4_lang::canonical(&p)
    }
}

fn stmts(body: &mut [Stmt], rename: &dyn Fn(&ObjectName) -> ObjectName) {
    for s in body {
        match s {
            Stmt::Call(c) | Stmt::Display(c) => call(c, rename),
            Stmt::Let(_, e) => expr(e, rename),
            Stmt::If(c, then, els) => {
                cond(c, rename);
                stmts(then, rename);
                stmts(els, rename);
            }
            Stmt::While(c, body) => {
                cond(c, rename);
                stmts(body, rename);
            }
            Stmt::Repeat(_, body) => stmts(body, rename),
        }
    }
}

fn cond(c: &mut Condition, rename: &dyn Fn(&ObjectName) -> ObjectName) {
    for (l, _, r) in &mut c.atoms {
        expr(l, rename);
        expr(r, rename);
    }
}

fn expr(e: &mut Expr, rename: &dyn Fn(&ObjectName) -> ObjectName) {
    if let Expr::Call(c) = e {
        call(c, rename);
    }
}

fn call(c: &mut CallExpr, rename: &dyn Fn(&ObjectName) -> ObjectName) {
    c.object = rename(&c.object);
    if let Some((row, _)) = &mut c.row_field {
        expr(row, rename);
    }
    for a in &mut c.args {
        expr(a, rename);
    }
}

#[cfg(test)]
mod tests {
    use std::collections::{BTreeSet, HashSet};

    use super::*;
    use crate::measure::features;

    fn signatures(source: &str) -> BTreeSet<BTreeSet<String>> {
        let h = c4_lang::abstract_history(&c4_lang::parse(source).unwrap()).unwrap();
        let r = c4_service::run_analysis(source, &features()).unwrap();
        r.violations
            .iter()
            .map(|v| v.txs.iter().map(|&i| h.txs[i].name.clone()).collect())
            .collect()
    }

    #[test]
    fn variants_are_deterministic_parse_and_have_fresh_cache_keys() {
        let base = c4_suite::benchmark("Color Line").unwrap().source;
        let a = Variants::new(base, 7);
        let b = Variants::new(base, 7);
        let c = Variants::new(base, 8);
        let mut keys = HashSet::new();
        keys.insert(c4_service::cache_key(base, &features()).unwrap());
        for i in 0..64 {
            let src = a.source(i);
            assert_eq!(src, b.source(i), "same seed, same variant");
            assert_ne!(src, c.source(i), "another seed, another variant");
            let key = c4_service::cache_key(&src, &features()).expect("variants parse");
            assert!(keys.insert(key), "variant {i} repeats a cache key");
        }
    }

    #[test]
    fn variants_keep_the_base_verdict_shape() {
        for name in ["Tetris", "Color Line", "cassieq-core"] {
            let base = c4_suite::benchmark(name).unwrap().source;
            let v = Variants::new(base, 11).source(3);
            assert!(
                !signatures(base).is_empty(),
                "{name} has violations to compare"
            );
            assert_eq!(signatures(&v), signatures(base), "{name}");
        }
    }
}

//! SQL front end for the emulated Postgres95.
//!
//! The HPCA'97 study codes its TPC-D queries "in the limited form of SQL
//! supported by the database system": single-block `select` statements over a
//! `from` list with conjunctive predicates, aggregates, `group by` and
//! `order by` — no nested subqueries (the paper flattens them while
//! preserving the memory access patterns). This crate implements exactly that
//! dialect:
//!
//! * [`tokenize`] — the lexer (identifiers, keywords, numeric literals in
//!   hundredths, strings, `date 'YYYY-MM-DD'`, comments),
//! * [`parse`] — a recursive-descent parser with standard precedence
//!   (`or` < `and` < `not` < comparisons/`between`/`in`/`like` < `+ -` <
//!   `* /`),
//! * [`Query`]/[`Expr`] — the AST consumed by the planner in `dss-query`.
//!
//! See [`parse`] for an example.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]

mod ast;
mod parser;
mod token;

pub use ast::{AggFunc, BinOp, Expr, OrderKey, ParseError, Query, SelectItem, Statement};
pub use parser::{parse, parse_statement};
pub use token::{tokenize, Keyword, Spanned, Token};

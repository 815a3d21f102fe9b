//! A lightweight syntactic Rust parser on top of [`crate::lexer`].
//!
//! The determinism and lock-order passes need more structure than the lint's
//! token-sequence matching: *which function* a token belongs to, what that
//! function calls, and what its typed bindings are. This parser recovers
//! exactly that — items, fn signatures, struct fields, paths, call and
//! method-call expressions, macro uses, and `cfg` guards — with **no full
//! expression grammar**. Expressions stay token soup; only the shapes the
//! passes consume are lifted out.
//!
//! Design rules, in priority order:
//!
//! 1. **Never panic.** Malformed input produces a structured [`ParseError`]
//!    (unclosed delimiter, nesting past the bound) or simply fewer recognized
//!    items — the same degrade-to-noise contract as the lexer. The fuzz suite
//!    (`tests/parse_fuzz.rs`) holds the parser to this on arbitrary token
//!    soup and on mutated real workspace files.
//! 2. **Over-approximate calls.** A tuple-struct constructor looks like a
//!    call and is recorded as one; a same-named method on two types resolves
//!    to both. Extra call-graph edges can only create false findings, which
//!    the allowlist ratchet absorbs; missing edges would hide real ones.
//! 3. **Skip what we don't model.** `enum` bodies, trait bounds, expression
//!    grouping — all skipped with balanced-delimiter scans. The known
//!    blind spots are documented in DESIGN.md §5i.

use std::fmt;
use std::ops::Range;

use crate::lexer::{lex, Token, TokenKind};

/// Item nesting deeper than this is rejected rather than recursed into, so
/// adversarial input (`mod a { mod b { …`) cannot overflow the stack.
const MAX_DEPTH: usize = 64;

/// Keywords that can precede `(` without being a call.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "in", "as", "move", "else", "let", "fn",
    "impl", "dyn", "where", "mut", "ref", "box", "await", "unsafe", "use", "pub", "crate",
];

/// A structured parse failure. The parser never panics; inputs it cannot
/// follow produce one of these instead.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ParseError {
    /// The input ended inside an unclosed delimiter or item.
    UnexpectedEof {
        /// What was being parsed when the input ran out.
        context: &'static str,
        /// Line where the unterminated construct opened.
        line: usize,
    },
    /// Item nesting exceeded [`MAX_DEPTH`].
    TooDeep {
        /// Line of the item that crossed the bound.
        line: usize,
    },
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::UnexpectedEof { context, line } => {
                write!(f, "line {line}: input ended inside {context}")
            }
            ParseError::TooDeep { line } => {
                write!(f, "line {line}: item nesting exceeds {MAX_DEPTH} levels")
            }
        }
    }
}

impl std::error::Error for ParseError {}

/// What kind of call a [`Call`] records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CallKind {
    /// A path call: `foo(…)`, `a::b::foo(…)`, `Type::new(…)`.
    Path,
    /// A method call: `recv.foo(…)` (receiver not resolved here).
    Method,
    /// A macro use: `foo!(…)`, `a::foo![…]`.
    Macro,
}

/// One call, method call, or macro use inside a function body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Call {
    /// The call's kind.
    pub kind: CallKind,
    /// Path segments; a method or bare call has one segment.
    pub path: Vec<String>,
    /// 1-based source line of the callee name.
    pub line: usize,
}

impl Call {
    /// The callee's final path segment (its bare name).
    pub fn name(&self) -> &str {
        self.path.last().map(String::as_str).unwrap_or("")
    }
}

/// A typed binding visible inside a function: a `let` with an explicit type
/// ascription, or a typed parameter.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Binding {
    /// The bound name.
    pub name: String,
    /// The ascribed type, as space-joined token text.
    pub ty: String,
    /// 1-based source line of the binding.
    pub line: usize,
}

/// One parsed function (free fn, inherent/trait method, or default body).
#[derive(Clone, Debug)]
pub struct FnDef {
    /// Module-qualified path (`io::BlockWriter::write_block`).
    pub qpath: String,
    /// Bare function name.
    pub name: String,
    /// Enclosing `impl`/`trait` type name, if any.
    pub self_ty: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Token-index range of the body, exclusive of its braces. Empty for
    /// bodyless trait declarations.
    pub body: Range<usize>,
    /// Inside a `#[cfg(test)]` item (directly or via an enclosing module).
    pub cfg_test: bool,
    /// Innermost `#[cfg(feature = "…")]` guard covering this fn, if any.
    pub cfg_feature: Option<String>,
    /// Calls, method calls, and macro uses in the body, in token order.
    pub calls: Vec<Call>,
    /// Typed parameters and explicitly ascribed `let` bindings.
    pub bindings: Vec<Binding>,
}

/// One named struct field.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FieldDef {
    /// The struct's name.
    pub owner: String,
    /// The field name.
    pub name: String,
    /// The field's type, as space-joined token text.
    pub ty: String,
    /// 1-based source line of the field name.
    pub line: usize,
}

/// The parsed view of one source file.
#[derive(Clone, Debug)]
pub struct ParsedFile<'a> {
    /// Comment-stripped tokens; [`FnDef::body`] ranges index into this.
    pub toks: Vec<Token<'a>>,
    /// Every recognized function, in source order.
    pub fns: Vec<FnDef>,
    /// Every recognized named struct field, in source order.
    pub fields: Vec<FieldDef>,
}

/// Parses one file. Unrecognized constructs are skipped, not errors; only
/// truncation (unclosed delimiters) and pathological nesting fail.
///
/// # Errors
///
/// Returns [`ParseError`] on input the parser cannot bound — it never
/// panics, matching the codec/SQL fuzz discipline.
pub fn parse_file(text: &str) -> Result<ParsedFile<'_>, ParseError> {
    let toks: Vec<Token<'_>> = lex(text).into_iter().filter(|t| !t.is_comment()).collect();
    let mut p = Parser {
        toks: &toks,
        pos: 0,
        fns: Vec::new(),
        fields: Vec::new(),
        mods: Vec::new(),
        self_ty: None,
    };
    p.items(0, false, &Cfg::default())?;
    Ok(ParsedFile {
        fns: p.fns,
        fields: p.fields,
        toks,
    })
}

/// Inherited `cfg` context for an item: test-gated, and/or feature-gated.
#[derive(Clone, Debug, Default)]
struct Cfg {
    test: bool,
    feature: Option<String>,
}

struct Parser<'t, 'a> {
    toks: &'t [Token<'a>],
    pos: usize,
    fns: Vec<FnDef>,
    fields: Vec<FieldDef>,
    mods: Vec<String>,
    self_ty: Option<String>,
}

impl<'t, 'a> Parser<'t, 'a> {
    fn peek(&self, ahead: usize) -> Option<&Token<'a>> {
        self.toks.get(self.pos + ahead)
    }

    fn at_punct(&self, c: char) -> bool {
        self.peek(0).is_some_and(|t| t.is_punct(c))
    }

    fn at_ident(&self, s: &str) -> bool {
        self.peek(0).is_some_and(|t| t.is_ident(s))
    }

    /// Line of the current token (or the last token at EOF).
    fn line(&self) -> usize {
        self.peek(0)
            .or(self.toks.last())
            .map(|t| t.line)
            .unwrap_or(1)
    }

    /// Parses items until EOF (`in_braces` false) or a closing `}`.
    fn items(&mut self, depth: usize, in_braces: bool, ctx: &Cfg) -> Result<(), ParseError> {
        loop {
            if self.pos >= self.toks.len() {
                return if in_braces {
                    Err(ParseError::UnexpectedEof {
                        context: "an item block",
                        line: self.line(),
                    })
                } else {
                    Ok(())
                };
            }
            if in_braces && self.at_punct('}') {
                self.pos += 1;
                return Ok(());
            }
            self.item(depth, ctx)?;
        }
    }

    /// Parses (or skips) one item; always advances.
    fn item(&mut self, depth: usize, ctx: &Cfg) -> Result<(), ParseError> {
        if depth > MAX_DEPTH {
            return Err(ParseError::TooDeep { line: self.line() });
        }
        let mut cfg = ctx.clone();
        // Attributes (outer `#[…]` and inner `#![…]`), folding cfg guards
        // into the item's context.
        while self.at_punct('#') {
            if let Some(attr_cfg) = self.cfg_of_attr() {
                cfg.test |= attr_cfg.test;
                if attr_cfg.feature.is_some() {
                    cfg.feature = attr_cfg.feature;
                }
            }
            self.skip_attr()?;
        }
        // Visibility and fn qualifiers.
        loop {
            if self.at_ident("pub") {
                self.pos += 1;
                if self.at_punct('(') {
                    self.skip_balanced('(', ')', "a visibility scope")?;
                }
            } else if self.at_ident("unsafe")
                || self.at_ident("async")
                || self.at_ident("default")
                || (self.at_ident("const")
                    && self.peek(1).is_some_and(|t| {
                        t.is_ident("fn") || t.is_ident("unsafe") || t.is_ident("async")
                    }))
            {
                self.pos += 1;
            } else if self.at_ident("extern")
                && self.peek(1).is_some_and(|t| t.kind == TokenKind::Str)
                && self.peek(2).is_some_and(|t| t.is_ident("fn"))
            {
                self.pos += 2;
            } else {
                break;
            }
        }
        match self.peek(0) {
            Some(t) if t.is_ident("mod") => self.mod_item(depth, &cfg),
            Some(t) if t.is_ident("impl") => self.impl_item(depth, &cfg, false),
            Some(t) if t.is_ident("trait") => self.impl_item(depth, &cfg, true),
            Some(t) if t.is_ident("fn") => self.fn_item(&cfg),
            Some(t) if t.is_ident("struct") => self.struct_item(),
            Some(t) if t.is_ident("enum") || t.is_ident("union") => self.skip_type_item(),
            Some(t) if t.is_ident("macro_rules") => self.skip_macro_def(),
            Some(t)
                if t.is_ident("use")
                    || t.is_ident("type")
                    || t.is_ident("static")
                    || t.is_ident("const") =>
            {
                self.skip_to_semi();
                Ok(())
            }
            _ => {
                self.skip_fragment();
                Ok(())
            }
        }
    }

    /// Recognizes `#[cfg(test)]` / `#![cfg(test)]` / `#[cfg(feature = "…")]`
    /// at the current `#` without consuming anything.
    fn cfg_of_attr(&self) -> Option<Cfg> {
        let base = if self.peek(1).is_some_and(|t| t.is_punct('!')) {
            2
        } else {
            1
        };
        let p = |j: usize, c: char| self.peek(base + j).is_some_and(|t| t.is_punct(c));
        let id = |j: usize, s: &str| self.peek(base + j).is_some_and(|t| t.is_ident(s));
        if !(p(0, '[') && id(1, "cfg") && p(2, '(')) {
            return None;
        }
        if id(3, "test") && p(4, ')') {
            return Some(Cfg {
                test: true,
                feature: None,
            });
        }
        if id(3, "feature") && p(4, '=') {
            let t = self.peek(base + 5)?;
            if t.kind == TokenKind::Str && p(6, ')') {
                return Some(Cfg {
                    test: false,
                    feature: Some(t.text.trim_matches('"').to_string()),
                });
            }
        }
        None
    }

    /// Skips an attribute from its `#` past the matching `]`.
    fn skip_attr(&mut self) -> Result<(), ParseError> {
        self.pos += 1; // '#'
        if self.at_punct('!') {
            self.pos += 1;
        }
        if self.at_punct('[') {
            self.skip_balanced('[', ']', "an attribute")
        } else {
            Ok(()) // stray '#': tolerate
        }
    }

    /// Skips from an opening delimiter past its balanced close.
    fn skip_balanced(
        &mut self,
        open: char,
        close: char,
        context: &'static str,
    ) -> Result<(), ParseError> {
        let line = self.line();
        let mut depth = 0usize;
        while let Some(t) = self.peek(0) {
            if t.is_punct(open) {
                depth += 1;
            } else if t.is_punct(close) {
                depth -= 1;
                if depth == 0 {
                    self.pos += 1;
                    return Ok(());
                }
            }
            self.pos += 1;
        }
        Err(ParseError::UnexpectedEof { context, line })
    }

    /// Skips a generic argument list from its `<`. `>` preceded by `-` (the
    /// arrow of an `Fn() -> T` bound) does not close a level.
    fn skip_angles(&mut self) -> Result<(), ParseError> {
        let line = self.line();
        let mut depth = 0i64;
        let mut prev_minus = false;
        while let Some(t) = self.peek(0) {
            if t.is_punct('<') {
                depth += 1;
            } else if t.is_punct('>') && !prev_minus {
                depth -= 1;
                if depth == 0 {
                    self.pos += 1;
                    return Ok(());
                }
            }
            prev_minus = t.is_punct('-');
            self.pos += 1;
        }
        Err(ParseError::UnexpectedEof {
            context: "a generic argument list",
            line,
        })
    }

    /// Skips to just past the next `;` outside any nesting; consumes a
    /// balanced brace block instead if one opens first (`static X: … = { … };`
    /// keeps the `;`, `extern { … }` has none).
    fn skip_to_semi(&mut self) {
        let mut depth = 0i64;
        while let Some(t) = self.peek(0) {
            match t.kind {
                TokenKind::Punct('(') | TokenKind::Punct('[') | TokenKind::Punct('{') => depth += 1,
                TokenKind::Punct(')') | TokenKind::Punct(']') => depth -= 1,
                TokenKind::Punct('}') => {
                    depth -= 1;
                    if depth <= 0 {
                        self.pos += 1;
                        if self.at_punct(';') {
                            self.pos += 1;
                        }
                        return;
                    }
                }
                TokenKind::Punct(';') if depth == 0 => {
                    self.pos += 1;
                    return;
                }
                _ => {}
            }
            self.pos += 1;
        }
    }

    /// Last-resort skip for unrecognized constructs; consumes at least one
    /// token so the item loop always makes progress.
    fn skip_fragment(&mut self) {
        if self.at_punct('{') {
            // A stray block: consume it balanced if possible.
            if self.skip_balanced('{', '}', "a block").is_err() {
                self.pos = self.toks.len();
            }
        } else {
            self.pos += 1;
        }
    }

    fn mod_item(&mut self, depth: usize, cfg: &Cfg) -> Result<(), ParseError> {
        self.pos += 1; // "mod"
        let name = match self.peek(0) {
            Some(t) if t.kind == TokenKind::Ident => {
                let n = t.text.to_string();
                self.pos += 1;
                n
            }
            _ => {
                self.skip_fragment();
                return Ok(());
            }
        };
        if self.at_punct('{') {
            self.pos += 1;
            self.mods.push(name);
            let saved_self_ty = self.self_ty.take();
            let result = self.items(depth + 1, true, cfg);
            self.self_ty = saved_self_ty;
            self.mods.pop();
            result
        } else {
            self.skip_to_semi(); // `mod name;`
            Ok(())
        }
    }

    /// Parses an `impl`/`trait` header, extracts the self-type name, then
    /// parses the brace body as items. The self type is the last ident at
    /// angle-depth 0 in the header (after the last top-level `for` when one
    /// is present, stopping at `where`) — which resolves `impl Foo`,
    /// `impl<T> Foo<T>`, `impl Trait for a::b::Foo`, and `impl X for &mut Y`
    /// alike to the bare type name.
    fn impl_item(&mut self, depth: usize, cfg: &Cfg, is_trait: bool) -> Result<(), ParseError> {
        self.pos += 1; // "impl" / "trait"
        let mut angle = 0i64;
        let mut prev_minus = false;
        let mut name: Option<String> = None;
        let mut in_where = false;
        while let Some(t) = self.peek(0) {
            match t.kind {
                TokenKind::Punct('{') if angle <= 0 => break,
                TokenKind::Punct(';') if angle <= 0 => {
                    self.pos += 1; // bodyless (`impl Foo;` is not Rust; bail)
                    return Ok(());
                }
                TokenKind::Punct('<') => angle += 1,
                TokenKind::Punct('>') if !prev_minus => angle -= 1,
                TokenKind::Ident if angle <= 0 && !in_where => match t.text {
                    "for" => name = None,
                    "where" => in_where = true,
                    "dyn" | "mut" | "const" | "unsafe" | "async" => {}
                    other => name = Some(other.to_string()),
                },
                _ => {}
            }
            prev_minus = t.is_punct('-');
            self.pos += 1;
        }
        if !self.at_punct('{') {
            return Err(ParseError::UnexpectedEof {
                context: if is_trait {
                    "a trait header"
                } else {
                    "an impl header"
                },
                line: self.line(),
            });
        }
        self.pos += 1;
        let saved = self.self_ty.take();
        self.self_ty = name;
        let result = self.items(depth + 1, true, cfg);
        self.self_ty = saved;
        result
    }

    fn struct_item(&mut self) -> Result<(), ParseError> {
        self.pos += 1; // "struct"
        let owner = match self.peek(0) {
            Some(t) if t.kind == TokenKind::Ident => {
                let n = t.text.to_string();
                self.pos += 1;
                n
            }
            _ => {
                self.skip_fragment();
                return Ok(());
            }
        };
        if self.at_punct('<') {
            self.skip_angles()?;
        }
        // `where` clause before the body.
        while self
            .peek(0)
            .is_some_and(|t| !t.is_punct('{') && !t.is_punct('(') && !t.is_punct(';'))
        {
            if self.at_punct('<') {
                self.skip_angles()?;
            } else {
                self.pos += 1;
            }
        }
        match self.peek(0) {
            Some(t) if t.is_punct('{') => {
                self.pos += 1;
                self.struct_fields(&owner)
            }
            Some(t) if t.is_punct('(') => {
                // Tuple struct: fields are unnamed, nothing to record.
                self.skip_balanced('(', ')', "a tuple struct")?;
                self.skip_to_semi();
                Ok(())
            }
            Some(t) if t.is_punct(';') => {
                self.pos += 1;
                Ok(())
            }
            _ => Err(ParseError::UnexpectedEof {
                context: "a struct declaration",
                line: self.line(),
            }),
        }
    }

    /// Parses `name: Type,` fields until the closing `}`.
    fn struct_fields(&mut self, owner: &str) -> Result<(), ParseError> {
        loop {
            while self.at_punct('#') {
                self.skip_attr()?;
            }
            match self.peek(0) {
                None => {
                    return Err(ParseError::UnexpectedEof {
                        context: "a struct body",
                        line: self.line(),
                    })
                }
                Some(t) if t.is_punct('}') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => {}
            }
            if self.at_ident("pub") {
                self.pos += 1;
                if self.at_punct('(') {
                    self.skip_balanced('(', ')', "a visibility scope")?;
                }
            }
            let named = matches!(
                (self.peek(0), self.peek(1)),
                (Some(n), Some(c)) if n.kind == TokenKind::Ident && c.is_punct(':')
                    && !self.peek(2).is_some_and(|t| t.is_punct(':'))
            );
            if named {
                let (name, line) = match self.peek(0) {
                    Some(t) => (t.text.to_string(), t.line),
                    None => continue,
                };
                self.pos += 2; // name ':'
                let ty = self.field_type()?;
                self.fields.push(FieldDef {
                    owner: owner.to_string(),
                    name,
                    ty,
                    line,
                });
            } else {
                // Not a field shape we model: skip to the next separator.
                self.field_type()?;
            }
            if self.at_punct(',') {
                self.pos += 1;
            }
        }
    }

    /// Collects type tokens until a top-level `,` or the struct's `}`.
    fn field_type(&mut self) -> Result<String, ParseError> {
        let line = self.line();
        let mut parts: Vec<&str> = Vec::new();
        let mut depth = 0i64;
        let mut angle = 0i64;
        let mut prev_minus = false;
        while let Some(t) = self.peek(0) {
            match t.kind {
                TokenKind::Punct('(') | TokenKind::Punct('[') | TokenKind::Punct('{') => depth += 1,
                TokenKind::Punct(')') | TokenKind::Punct(']') | TokenKind::Punct('}')
                    if depth > 0 =>
                {
                    depth -= 1
                }
                TokenKind::Punct('}') => return Ok(parts.join(" ")), // struct's close
                TokenKind::Punct('<') => angle += 1,
                TokenKind::Punct('>') if !prev_minus => angle -= 1,
                TokenKind::Punct(',') if depth == 0 && angle <= 0 => return Ok(parts.join(" ")),
                _ => {}
            }
            parts.push(t.text);
            prev_minus = t.is_punct('-');
            self.pos += 1;
        }
        Err(ParseError::UnexpectedEof {
            context: "a field type",
            line,
        })
    }

    /// Skips an `enum`/`union` (body recorded nowhere — variants carry no
    /// state the passes track).
    fn skip_type_item(&mut self) -> Result<(), ParseError> {
        self.pos += 1;
        while self
            .peek(0)
            .is_some_and(|t| !t.is_punct('{') && !t.is_punct(';'))
        {
            if self.at_punct('<') {
                self.skip_angles()?;
            } else {
                self.pos += 1;
            }
        }
        if self.at_punct('{') {
            self.skip_balanced('{', '}', "an enum body")
        } else {
            self.skip_to_semi();
            Ok(())
        }
    }

    /// Skips `macro_rules! name { … }`.
    fn skip_macro_def(&mut self) -> Result<(), ParseError> {
        self.pos += 1; // macro_rules
        if self.at_punct('!') {
            self.pos += 1;
        }
        if self.peek(0).is_some_and(|t| t.kind == TokenKind::Ident) {
            self.pos += 1;
        }
        match self.peek(0) {
            Some(t) if t.is_punct('{') => self.skip_balanced('{', '}', "a macro definition"),
            Some(t) if t.is_punct('(') => {
                self.skip_balanced('(', ')', "a macro definition")?;
                self.skip_to_semi();
                Ok(())
            }
            _ => {
                self.skip_fragment();
                Ok(())
            }
        }
    }

    fn fn_item(&mut self, cfg: &Cfg) -> Result<(), ParseError> {
        let line = self.line();
        self.pos += 1; // "fn"
        let name = match self.peek(0) {
            Some(t) if t.kind == TokenKind::Ident => {
                let n = t.text.to_string();
                self.pos += 1;
                n
            }
            _ => {
                self.skip_fragment();
                return Ok(());
            }
        };
        if self.at_punct('<') {
            self.skip_angles()?;
        }
        let mut bindings = Vec::new();
        if self.at_punct('(') {
            bindings = self.params()?;
        }
        // Return type and `where` clause: scan to the body `{` or a
        // declaration-terminating `;` at top level.
        let mut angle = 0i64;
        let mut prev_minus = false;
        loop {
            match self.peek(0) {
                None => {
                    return Err(ParseError::UnexpectedEof {
                        context: "a fn signature",
                        line,
                    })
                }
                Some(t) if t.is_punct('{') && angle <= 0 => break,
                Some(t) if t.is_punct(';') && angle <= 0 => {
                    self.pos += 1;
                    self.push_fn(name, line, 0..0, cfg, Vec::new(), bindings);
                    return Ok(());
                }
                Some(t) => {
                    if t.is_punct('<') {
                        angle += 1;
                    } else if t.is_punct('>') && !prev_minus {
                        angle -= 1;
                    }
                    prev_minus = t.is_punct('-');
                    self.pos += 1;
                }
            }
        }
        let body_start = self.pos + 1;
        self.skip_balanced('{', '}', "a fn body")?;
        let body = body_start..self.pos - 1;
        let (calls, lets) = scan_body(self.toks, body.clone());
        bindings.extend(lets);
        self.push_fn(name, line, body, cfg, calls, bindings);
        Ok(())
    }

    fn push_fn(
        &mut self,
        name: String,
        line: usize,
        body: Range<usize>,
        cfg: &Cfg,
        calls: Vec<Call>,
        bindings: Vec<Binding>,
    ) {
        let mut parts: Vec<&str> = self.mods.iter().map(String::as_str).collect();
        if let Some(ty) = &self.self_ty {
            parts.push(ty);
        }
        parts.push(&name);
        self.fns.push(FnDef {
            qpath: parts.join("::"),
            name,
            self_ty: self.self_ty.clone(),
            line,
            body,
            cfg_test: cfg.test,
            cfg_feature: cfg.feature.clone(),
            calls,
            bindings,
        });
    }

    /// Parses a parameter list from its `(`, extracting `name: Type` pairs.
    fn params(&mut self) -> Result<Vec<Binding>, ParseError> {
        let open_line = self.line();
        self.pos += 1; // '('
        let start = self.pos;
        let mut depth = 1i64;
        while let Some(t) = self.peek(0) {
            if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            self.pos += 1;
        }
        if depth != 0 {
            return Err(ParseError::UnexpectedEof {
                context: "a parameter list",
                line: open_line,
            });
        }
        let inner = &self.toks[start..self.pos];
        self.pos += 1; // ')'
        Ok(split_params(inner))
    }
}

/// Splits a parameter list's tokens at top-level commas and extracts each
/// `name: Type` pair (the name is the last ident before the first top-level
/// `:`, covering `mut x: T`; `self` receivers have no `:` and are skipped).
fn split_params(toks: &[Token<'_>]) -> Vec<Binding> {
    let mut out = Vec::new();
    let mut seg_start = 0usize;
    let mut depth = 0i64;
    let mut angle = 0i64;
    let mut prev_minus = false;
    for i in 0..=toks.len() {
        let boundary = i == toks.len() || (toks[i].is_punct(',') && depth == 0 && angle <= 0);
        if boundary {
            if let Some(b) = param_binding(&toks[seg_start..i]) {
                out.push(b);
            }
            seg_start = i + 1;
            continue;
        }
        let t = &toks[i];
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth -= 1;
        } else if t.is_punct('<') {
            angle += 1;
        } else if t.is_punct('>') && !prev_minus {
            angle -= 1;
        }
        prev_minus = t.is_punct('-');
    }
    out
}

fn param_binding(seg: &[Token<'_>]) -> Option<Binding> {
    let colon = seg.iter().position(|t| t.is_punct(':'))?;
    // `::` in a pattern path means this is not a simple `name: Type` pair.
    if seg.get(colon + 1).is_some_and(|t| t.is_punct(':')) {
        return None;
    }
    let name_tok = seg[..colon]
        .iter()
        .rev()
        .find(|t| t.kind == TokenKind::Ident)?;
    if name_tok.text == "self" {
        return None;
    }
    let ty: Vec<&str> = seg[colon + 1..].iter().map(|t| t.text).collect();
    Some(Binding {
        name: name_tok.text.to_string(),
        ty: ty.join(" "),
        line: name_tok.line,
    })
}

/// Scans a fn body's token range for calls, method calls, macro uses, and
/// explicitly ascribed `let` bindings.
fn scan_body(toks: &[Token<'_>], body: Range<usize>) -> (Vec<Call>, Vec<Binding>) {
    let mut calls = Vec::new();
    let mut lets = Vec::new();
    let is_p = |i: usize, c: char| body.contains(&i) && toks.get(i).is_some_and(|t| t.is_punct(c));
    let is_id =
        |i: usize| body.contains(&i) && toks.get(i).is_some_and(|t| t.kind == TokenKind::Ident);
    let mut i = body.start;
    while i < body.end {
        let t = &toks[i];
        // `let [mut] name : Type` — explicit ascription only.
        if t.is_ident("let") {
            let mut j = i + 1;
            if body.contains(&j) && toks.get(j).is_some_and(|t| t.is_ident("mut")) {
                j += 1;
            }
            if is_id(j) && is_p(j + 1, ':') && !is_p(j + 2, ':') {
                let name_tok = &toks[j];
                let mut ty_parts: Vec<&str> = Vec::new();
                let mut k = j + 2;
                let mut angle = 0i64;
                let mut depth = 0i64;
                let mut prev_minus = false;
                while k < body.end {
                    let tt = &toks[k];
                    if (tt.is_punct('=') || tt.is_punct(';')) && angle <= 0 && depth == 0 {
                        break;
                    }
                    if tt.is_punct('<') {
                        angle += 1;
                    } else if tt.is_punct('>') && !prev_minus {
                        angle -= 1;
                    } else if tt.is_punct('(') || tt.is_punct('[') {
                        depth += 1;
                    } else if tt.is_punct(')') || tt.is_punct(']') {
                        depth -= 1;
                        if depth < 0 {
                            break;
                        }
                    }
                    ty_parts.push(tt.text);
                    prev_minus = tt.is_punct('-');
                    k += 1;
                }
                lets.push(Binding {
                    name: name_tok.text.to_string(),
                    ty: ty_parts.join(" "),
                    line: name_tok.line,
                });
            }
            i += 1;
            continue;
        }
        // Method call: `.name(…)`, with optional turbofish `.name::<T>(…)`.
        if t.is_punct('.') && is_id(i + 1) {
            let name_tok = &toks[i + 1];
            let mut j = i + 2;
            if is_p(j, ':') && is_p(j + 1, ':') && is_p(j + 2, '<') {
                j = match skip_angles_at(toks, body.end, j + 2) {
                    Some(after) => after,
                    None => break,
                };
            }
            if is_p(j, '(') {
                calls.push(Call {
                    kind: CallKind::Method,
                    path: vec![name_tok.text.to_string()],
                    line: name_tok.line,
                });
            }
            i += 2;
            continue;
        }
        if t.kind == TokenKind::Ident {
            // Macro use: `name!…` (path prefix folded in below).
            if is_p(i + 1, '!') {
                calls.push(Call {
                    kind: CallKind::Macro,
                    path: path_ending_at(toks, body.start, i),
                    line: t.line,
                });
                i += 2;
                continue;
            }
            let callish = !(NON_CALL_KEYWORDS.contains(&t.text)
                || (i > body.start && toks[i - 1].is_punct('.')));
            if callish {
                // `name(…)` or `path::name(…)`.
                if is_p(i + 1, '(') {
                    calls.push(Call {
                        kind: CallKind::Path,
                        path: path_ending_at(toks, body.start, i),
                        line: t.line,
                    });
                }
                // `name::<T>(…)` turbofish on a path call.
                else if is_p(i + 1, ':') && is_p(i + 2, ':') && is_p(i + 3, '<') {
                    if let Some(after) = skip_angles_at(toks, body.end, i + 3) {
                        if is_p(after, '(') {
                            calls.push(Call {
                                kind: CallKind::Path,
                                path: path_ending_at(toks, body.start, i),
                                line: t.line,
                            });
                        }
                    }
                }
            }
        }
        i += 1;
    }
    (calls, lets)
}

/// Walks a `::`-joined path backwards from its final segment at `i`,
/// returning the segments in source order.
fn path_ending_at(toks: &[Token<'_>], start: usize, i: usize) -> Vec<String> {
    let mut segs = vec![toks[i].text.to_string()];
    let mut j = i;
    while j >= start + 3
        && toks[j - 1].is_punct(':')
        && toks[j - 2].is_punct(':')
        && toks[j - 3].kind == TokenKind::Ident
    {
        segs.push(toks[j - 3].text.to_string());
        j -= 3;
    }
    segs.reverse();
    segs
}

/// Skips a balanced `<…>` starting at index `at` (which holds `<`); returns
/// the index just past the closing `>`, or `None` if it never closes before
/// `end`. `->`'s `>` does not close a level.
fn skip_angles_at(toks: &[Token<'_>], end: usize, at: usize) -> Option<usize> {
    let mut depth = 0i64;
    let mut prev_minus = false;
    let mut j = at;
    while j < end {
        let t = &toks[j];
        if t.is_punct('<') {
            depth += 1;
        } else if t.is_punct('>') && !prev_minus {
            depth -= 1;
            if depth == 0 {
                return Some(j + 1);
            }
        }
        prev_minus = t.is_punct('-');
        j += 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> ParsedFile<'_> {
        match parse_file(src) {
            Ok(p) => p,
            Err(e) => panic!("parse failed: {e}"),
        }
    }

    #[test]
    fn free_fns_and_methods_get_qualified_names() {
        let src = "
            fn top() {}
            mod inner {
                pub struct S { pub x: u64 }
                impl S {
                    pub fn method(&self) -> u64 { self.x }
                }
                impl std::fmt::Display for S {
                    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result { helper(f) }
                }
            }
        ";
        let p = parse(src);
        let names: Vec<&str> = p.fns.iter().map(|f| f.qpath.as_str()).collect();
        assert_eq!(names, vec!["top", "inner::S::method", "inner::S::fmt"]);
        assert_eq!(p.fields.len(), 1);
        assert_eq!(p.fields[0].owner, "S");
        assert_eq!(p.fields[0].name, "x");
        assert_eq!(p.fields[0].ty, "u64");
    }

    #[test]
    fn calls_methods_and_macros_are_recorded() {
        let src = r#"
            fn f(x: u64) {
                helper(x);
                a::b::make(x);
                x.method();
                list.collect::<Vec<_>>();
                println!("{x}");
                Type::assoc(x);
            }
        "#;
        let p = parse(src);
        let f = &p.fns[0];
        let got: Vec<(CallKind, String)> = f
            .calls
            .iter()
            .map(|c| (c.kind, c.path.join("::")))
            .collect();
        assert_eq!(
            got,
            vec![
                (CallKind::Path, "helper".to_string()),
                (CallKind::Path, "a::b::make".to_string()),
                (CallKind::Method, "method".to_string()),
                (CallKind::Method, "collect".to_string()),
                (CallKind::Macro, "println".to_string()),
                (CallKind::Path, "Type::assoc".to_string()),
            ]
        );
        assert_eq!(f.bindings.len(), 1, "typed param x");
        assert_eq!(f.bindings[0].name, "x");
    }

    #[test]
    fn typed_lets_and_params_become_bindings() {
        let src = "
            fn f(count: usize, mut table: HashMap<u64, u64>) {
                let m: HashMap<String, Vec<u8>> = HashMap::new();
                let untyped = 3;
                let mut n: u64 = 0;
            }
        ";
        let p = parse(src);
        let b: Vec<(&str, &str)> = p.fns[0]
            .bindings
            .iter()
            .map(|b| (b.name.as_str(), b.ty.as_str()))
            .collect();
        assert_eq!(b[0], ("count", "usize"));
        assert_eq!(b[1].0, "table");
        assert!(b[1].1.contains("HashMap"));
        assert_eq!(b[2].0, "m");
        assert!(b[2].1.contains("HashMap"));
        assert_eq!(b[3], ("n", "u64"));
        assert_eq!(b.len(), 4, "untyped let is not a binding");
    }

    #[test]
    fn cfg_guards_are_inherited_from_modules() {
        let src = "
            #[cfg(test)]
            mod tests {
                fn in_tests() {}
            }
            #[cfg(feature = \"drill\")]
            mod gated {
                fn in_gate() {}
                #[cfg(test)]
                fn gated_test() {}
            }
            fn plain() {}
        ";
        let p = parse(src);
        let by_name = |n: &str| match p.fns.iter().find(|f| f.name == n) {
            Some(f) => f,
            None => panic!("fn {n} not parsed"),
        };
        assert!(by_name("in_tests").cfg_test);
        assert_eq!(by_name("in_gate").cfg_feature.as_deref(), Some("drill"));
        assert!(!by_name("in_gate").cfg_test);
        assert!(by_name("gated_test").cfg_test);
        assert!(!by_name("plain").cfg_test);
        assert!(by_name("plain").cfg_feature.is_none());
    }

    #[test]
    fn truncated_input_is_a_structured_error() {
        for src in [
            "fn f() { let x = ",
            "struct S { a: u64,",
            "mod m { fn g() {}",
            "impl Foo",
        ] {
            match parse_file(src) {
                Err(ParseError::UnexpectedEof { .. }) => {}
                other => panic!("expected UnexpectedEof for {src:?}, got {other:?}"),
            }
        }
    }

    #[test]
    fn deep_nesting_is_bounded_not_fatal() {
        let mut src = String::new();
        for i in 0..200 {
            src.push_str(&format!("mod m{i} {{ "));
        }
        match parse_file(&src) {
            Err(ParseError::TooDeep { .. }) => {}
            other => panic!("expected TooDeep, got {other:?}"),
        }
    }

    #[test]
    fn junk_between_items_is_skipped() {
        let src = "@ # $ fn ok() { x.go(); } ; ; enum E { A, B } fn two() {}";
        let p = parse(src);
        let names: Vec<&str> = p.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["ok", "two"]);
    }

    #[test]
    fn trait_defaults_and_declarations_parse() {
        let src = "
            trait Source {
                fn next(&mut self) -> Option<u8>;
                fn two(&mut self) -> Option<u8> { self.next() }
            }
        ";
        let p = parse(src);
        assert_eq!(p.fns.len(), 2);
        assert_eq!(p.fns[0].qpath, "Source::next");
        assert!(p.fns[0].body.is_empty());
        assert_eq!(p.fns[1].calls.len(), 1);
    }

    #[test]
    fn fn_pointer_generics_do_not_derail_the_header() {
        let src = "fn f<F: Fn(u64) -> u64>(g: F) -> u64 { g(1) }";
        let p = parse(src);
        assert_eq!(p.fns.len(), 1);
        assert_eq!(p.fns[0].calls.len(), 1, "g(1) is a call");
    }
}

//! The SQL lexer.

use std::fmt;

use crate::ParseError;

/// A lexical token.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Token {
    /// Identifier or unreserved word (lower-cased).
    Ident(String),
    /// Reserved keyword (lower-cased).
    Keyword(Keyword),
    /// Integer literal.
    Int(i64),
    /// Decimal literal in hundredths (two digits of scale).
    Dec(i64),
    /// Single-quoted string literal.
    Str(String),
    /// `,`
    Comma,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `.`
    Dot,
    /// `*`
    Star,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `/`
    Slash,
    /// `=`
    Eq,
    /// `<>` or `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// End of input.
    Eof,
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Ident(s) => write!(f, "identifier `{s}`"),
            Token::Keyword(k) => write!(f, "keyword `{k:?}`"),
            Token::Int(v) => write!(f, "integer `{v}`"),
            Token::Dec(v) => write!(f, "decimal `{}.{:02}`", v / 100, (v % 100).abs()),
            Token::Str(s) => write!(f, "string '{s}'"),
            Token::Comma => f.write_str("`,`"),
            Token::LParen => f.write_str("`(`"),
            Token::RParen => f.write_str("`)`"),
            Token::Dot => f.write_str("`.`"),
            Token::Star => f.write_str("`*`"),
            Token::Plus => f.write_str("`+`"),
            Token::Minus => f.write_str("`-`"),
            Token::Slash => f.write_str("`/`"),
            Token::Eq => f.write_str("`=`"),
            Token::Ne => f.write_str("`<>`"),
            Token::Lt => f.write_str("`<`"),
            Token::Le => f.write_str("`<=`"),
            Token::Gt => f.write_str("`>`"),
            Token::Ge => f.write_str("`>=`"),
            Token::Eof => f.write_str("end of input"),
        }
    }
}

/// Reserved words of the dialect.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[allow(
    missing_docs,
    reason = "the variant names are the SQL keywords themselves"
)]
pub enum Keyword {
    Select,
    From,
    Where,
    Group,
    Order,
    By,
    As,
    And,
    Or,
    Not,
    In,
    Between,
    Like,
    Asc,
    Desc,
    Date,
    Interval,
    Sum,
    Count,
    Avg,
    Min,
    Max,
    Distinct,
    Insert,
    Into,
    Values,
    Delete,
    Having,
    Limit,
}

fn keyword_of(word: &str) -> Option<Keyword> {
    use Keyword::*;
    Some(match word {
        "select" => Select,
        "from" => From,
        "where" => Where,
        "group" => Group,
        "order" => Order,
        "by" => By,
        "as" => As,
        "and" => And,
        "or" => Or,
        "not" => Not,
        "in" => In,
        "between" => Between,
        "like" => Like,
        "asc" => Asc,
        "desc" => Desc,
        "date" => Date,
        "interval" => Interval,
        "sum" => Sum,
        "count" => Count,
        "avg" => Avg,
        "min" => Min,
        "max" => Max,
        "distinct" => Distinct,
        "insert" => Insert,
        "into" => Into,
        "values" => Values,
        "delete" => Delete,
        "having" => Having,
        "limit" => Limit,
        _ => return None,
    })
}

/// A token plus its byte offset in the source, for error reporting.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Spanned {
    /// The token.
    pub token: Token,
    /// Byte offset of the token's first character.
    pub offset: usize,
}

/// Tokenizes `input`, returning the token stream terminated by [`Token::Eof`].
///
/// # Errors
///
/// Returns a [`ParseError`] for unterminated strings, malformed numbers, or
/// unexpected characters.
pub fn tokenize(input: &str) -> Result<Vec<Spanned>, ParseError> {
    let bytes = input.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        let start = i;
        match c {
            ' ' | '\t' | '\n' | '\r' => {
                i += 1;
            }
            '-' if i + 1 < bytes.len() && bytes[i + 1] == b'-' => {
                // Line comment.
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            ',' => push(&mut out, Token::Comma, start, &mut i),
            '(' => push(&mut out, Token::LParen, start, &mut i),
            ')' => push(&mut out, Token::RParen, start, &mut i),
            '.' => push(&mut out, Token::Dot, start, &mut i),
            '*' => push(&mut out, Token::Star, start, &mut i),
            '+' => push(&mut out, Token::Plus, start, &mut i),
            '-' => push(&mut out, Token::Minus, start, &mut i),
            '/' => push(&mut out, Token::Slash, start, &mut i),
            '=' => push(&mut out, Token::Eq, start, &mut i),
            '!' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    out.push(Spanned {
                        token: Token::Ne,
                        offset: start,
                    });
                    i += 2;
                } else {
                    return Err(ParseError::at(start, "unexpected `!`".to_owned()));
                }
            }
            '<' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    out.push(Spanned {
                        token: Token::Le,
                        offset: start,
                    });
                    i += 2;
                } else if i + 1 < bytes.len() && bytes[i + 1] == b'>' {
                    out.push(Spanned {
                        token: Token::Ne,
                        offset: start,
                    });
                    i += 2;
                } else {
                    push(&mut out, Token::Lt, start, &mut i);
                }
            }
            '>' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    out.push(Spanned {
                        token: Token::Ge,
                        offset: start,
                    });
                    i += 2;
                } else {
                    push(&mut out, Token::Gt, start, &mut i);
                }
            }
            '\'' => {
                i += 1;
                let mut s = String::new();
                loop {
                    if i >= bytes.len() {
                        return Err(ParseError::at(
                            start,
                            "unterminated string literal".to_owned(),
                        ));
                    }
                    if bytes[i] == b'\'' {
                        // Doubled quote is an escaped quote.
                        if i + 1 < bytes.len() && bytes[i + 1] == b'\'' {
                            s.push('\'');
                            i += 2;
                            continue;
                        }
                        i += 1;
                        break;
                    }
                    s.push(bytes[i] as char);
                    i += 1;
                }
                out.push(Spanned {
                    token: Token::Str(s),
                    offset: start,
                });
            }
            '0'..='9' => {
                let mut whole = 0i64;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    whole = whole
                        .checked_mul(10)
                        .and_then(|w| w.checked_add((bytes[i] - b'0') as i64))
                        .ok_or_else(|| {
                            ParseError::at(start, "numeric literal overflows".to_owned())
                        })?;
                    i += 1;
                }
                if i < bytes.len()
                    && bytes[i] == b'.'
                    && i + 1 < bytes.len()
                    && bytes[i + 1].is_ascii_digit()
                {
                    i += 1;
                    let mut frac = 0i64;
                    let mut digits = 0;
                    while i < bytes.len() && bytes[i].is_ascii_digit() {
                        if digits < 2 {
                            frac = frac * 10 + (bytes[i] - b'0') as i64;
                            digits += 1;
                        }
                        i += 1;
                    }
                    if digits == 1 {
                        frac *= 10;
                    }
                    out.push(Spanned {
                        token: Token::Dec(whole * 100 + frac),
                        offset: start,
                    });
                } else {
                    out.push(Spanned {
                        token: Token::Int(whole),
                        offset: start,
                    });
                }
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let mut word = String::new();
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
                {
                    word.push((bytes[i] as char).to_ascii_lowercase());
                    i += 1;
                }
                match keyword_of(&word) {
                    Some(k) => out.push(Spanned {
                        token: Token::Keyword(k),
                        offset: start,
                    }),
                    None => out.push(Spanned {
                        token: Token::Ident(word),
                        offset: start,
                    }),
                }
            }
            other => {
                return Err(ParseError::at(
                    start,
                    format!("unexpected character `{other}`"),
                ));
            }
        }
    }
    out.push(Spanned {
        token: Token::Eof,
        offset: input.len(),
    });
    Ok(out)
}

fn push(out: &mut Vec<Spanned>, token: Token, start: usize, i: &mut usize) {
    out.push(Spanned {
        token,
        offset: start,
    });
    *i += 1;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(s: &str) -> Vec<Token> {
        tokenize(s).unwrap().into_iter().map(|t| t.token).collect()
    }

    #[test]
    fn keywords_are_case_insensitive() {
        assert_eq!(
            toks("SELECT select SeLeCt"),
            vec![
                Token::Keyword(Keyword::Select),
                Token::Keyword(Keyword::Select),
                Token::Keyword(Keyword::Select),
                Token::Eof
            ]
        );
    }

    #[test]
    fn numbers_lex_to_int_or_hundredths() {
        assert_eq!(toks("42"), vec![Token::Int(42), Token::Eof]);
        assert_eq!(toks("0.05"), vec![Token::Dec(5), Token::Eof]);
        assert_eq!(toks("12.3"), vec![Token::Dec(1230), Token::Eof]);
        assert_eq!(toks("12.345"), vec![Token::Dec(1234), Token::Eof]);
    }

    #[test]
    fn strings_support_escaped_quotes() {
        assert_eq!(toks("'a''b'"), vec![Token::Str("a'b".into()), Token::Eof]);
        assert_eq!(
            toks("'REG AIR'"),
            vec![Token::Str("REG AIR".into()), Token::Eof]
        );
    }

    #[test]
    fn comparison_operators() {
        assert_eq!(
            toks("< <= > >= = <> !="),
            vec![
                Token::Lt,
                Token::Le,
                Token::Gt,
                Token::Ge,
                Token::Eq,
                Token::Ne,
                Token::Ne,
                Token::Eof
            ]
        );
    }

    #[test]
    fn comments_are_skipped() {
        assert_eq!(
            toks("select -- comment\n 1"),
            vec![Token::Keyword(Keyword::Select), Token::Int(1), Token::Eof]
        );
    }

    #[test]
    fn qualified_names_lex_with_dot() {
        assert_eq!(
            toks("customer.c_custkey"),
            vec![
                Token::Ident("customer".into()),
                Token::Dot,
                Token::Ident("c_custkey".into()),
                Token::Eof
            ]
        );
    }

    #[test]
    fn unterminated_string_errors() {
        let err = tokenize("select 'oops").unwrap_err();
        assert!(err.to_string().contains("unterminated"));
    }

    #[test]
    fn unexpected_character_errors_with_offset() {
        let err = tokenize("select #").unwrap_err();
        assert_eq!(err.offset(), Some(7));
    }
}

#[cfg(test)]
mod edge_tests {
    use super::*;

    fn toks2(s: &str) -> Vec<Token> {
        tokenize(s).unwrap().into_iter().map(|t| t.token).collect()
    }

    #[test]
    fn empty_input_is_just_eof() {
        assert_eq!(toks2(""), vec![Token::Eof]);
        assert_eq!(toks2("   \n\t  "), vec![Token::Eof]);
        assert_eq!(toks2("-- only a comment"), vec![Token::Eof]);
    }

    #[test]
    fn adjacent_operators_do_not_merge_wrongly() {
        assert_eq!(
            toks2("a<=b"),
            vec![
                Token::Ident("a".into()),
                Token::Le,
                Token::Ident("b".into()),
                Token::Eof
            ]
        );
        assert_eq!(
            toks2("1-2"),
            vec![Token::Int(1), Token::Minus, Token::Int(2), Token::Eof]
        );
    }

    #[test]
    fn identifiers_with_underscores_and_digits() {
        assert_eq!(
            toks2("l_shipdate x2 _leading"),
            vec![
                Token::Ident("l_shipdate".into()),
                Token::Ident("x2".into()),
                Token::Ident("_leading".into()),
                Token::Eof
            ]
        );
    }

    #[test]
    fn numeric_overflow_is_reported() {
        assert!(tokenize("99999999999999999999999").is_err());
    }

    #[test]
    fn dot_after_number_without_digit_is_separate() {
        // `1.` with no following digit: Int then Dot.
        assert_eq!(toks2("1 ."), vec![Token::Int(1), Token::Dot, Token::Eof]);
    }

    #[test]
    fn empty_string_literal() {
        assert_eq!(toks2("''"), vec![Token::Str(String::new()), Token::Eof]);
    }
}

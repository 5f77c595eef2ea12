//! Token stream produced by the lexer.

use std::fmt;
use std::ops::Range;

/// A lexical token with its source position: line and column for error
/// messages, the byte span for slicing a statement's text out of the
/// source.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    pub kind: TokenKind,
    /// 1-based line.
    pub line: u32,
    /// 1-based column of the token's first character.
    pub col: u32,
    /// Byte range of the token in the source text.
    pub span: Range<usize>,
}

/// The token kinds of our SQL dialect.
///
/// Keywords are *not* distinguished at the lexical level: SQL keywords are
/// context-sensitive (e.g. `PROVENANCE` is a keyword after `SELECT` and an
/// ordinary alias elsewhere), so the parser matches identifier text
/// case-insensitively where it expects a keyword.
#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind {
    /// Unquoted identifier, stored lower-cased (PostgreSQL folding),
    /// or quoted identifier stored verbatim.
    Ident(String),
    /// String literal (single quotes, `''` escape already resolved).
    StringLit(String),
    /// Integer literal.
    IntLit(i64),
    /// Floating-point literal.
    FloatLit(f64),

    // Punctuation and operators.
    Comma,
    LParen,
    RParen,
    Dot,
    Semicolon,
    Star,
    Plus,
    Minus,
    Slash,
    Percent,
    Eq,
    /// `<>` or `!=`.
    Neq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    /// `||` string concatenation.
    Concat,

    /// End of input.
    Eof,
}

impl TokenKind {
    /// True if this token is the identifier `kw` (case-insensitive match on
    /// unquoted identifiers).
    pub fn is_keyword(&self, kw: &str) -> bool {
        matches!(self, TokenKind::Ident(s) if s.eq_ignore_ascii_case(kw))
    }
}

impl fmt::Display for TokenKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Ident(s) => write!(f, "{s}"),
            TokenKind::StringLit(s) => write!(f, "'{s}'"),
            TokenKind::IntLit(i) => write!(f, "{i}"),
            TokenKind::FloatLit(x) => write!(f, "{x}"),
            TokenKind::Comma => f.write_str(","),
            TokenKind::LParen => f.write_str("("),
            TokenKind::RParen => f.write_str(")"),
            TokenKind::Dot => f.write_str("."),
            TokenKind::Semicolon => f.write_str(";"),
            TokenKind::Star => f.write_str("*"),
            TokenKind::Plus => f.write_str("+"),
            TokenKind::Minus => f.write_str("-"),
            TokenKind::Slash => f.write_str("/"),
            TokenKind::Percent => f.write_str("%"),
            TokenKind::Eq => f.write_str("="),
            TokenKind::Neq => f.write_str("<>"),
            TokenKind::Lt => f.write_str("<"),
            TokenKind::LtEq => f.write_str("<="),
            TokenKind::Gt => f.write_str(">"),
            TokenKind::GtEq => f.write_str(">="),
            TokenKind::Concat => f.write_str("||"),
            TokenKind::Eof => f.write_str("<eof>"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyword_matching_is_case_insensitive() {
        let t = TokenKind::Ident("provenance".into());
        assert!(t.is_keyword("PROVENANCE"));
        assert!(t.is_keyword("Provenance"));
        assert!(!t.is_keyword("baserelation"));
        assert!(!TokenKind::Comma.is_keyword("select"));
    }

    #[test]
    fn display_punctuation() {
        assert_eq!(TokenKind::Neq.to_string(), "<>");
        assert_eq!(TokenKind::Concat.to_string(), "||");
        assert_eq!(TokenKind::StringLit("a".into()).to_string(), "'a'");
    }
}

//! The SQL lexer.
//!
//! Handles unquoted identifiers (folded to lower case, as PostgreSQL does),
//! `"quoted"` identifiers, `'string'` literals with `''` escapes, integer
//! and float literals, operators, `--` line comments and `/* */` block
//! comments.

use perm_types::{PermError, Result};

use crate::token::{Token, TokenKind};

/// Tokenize `input` into a vector ending with an `Eof` token.
pub fn tokenize(input: &str) -> Result<Vec<Token>> {
    Lexer::new(input).run()
}

struct Lexer {
    chars: Vec<char>,
    pos: usize,
    /// Byte offset of `chars[pos]` in the source.
    offset: usize,
    line: u32,
    col: u32,
}

impl Lexer {
    fn new(src: &str) -> Lexer {
        Lexer {
            chars: src.chars().collect(),
            pos: 0,
            offset: 0,
            line: 1,
            col: 1,
        }
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<char> {
        self.chars.get(self.pos + 1).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += 1;
        self.offset += c.len_utf8();
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn error(&self, msg: impl Into<String>) -> PermError {
        PermError::Parse(format!(
            "{} at line {}, column {}",
            msg.into(),
            self.line,
            self.col
        ))
    }

    fn run(mut self) -> Result<Vec<Token>> {
        let mut out = Vec::new();
        loop {
            self.skip_trivia()?;
            let (line, col, start) = (self.line, self.col, self.offset);
            let Some(c) = self.peek() else {
                out.push(Token {
                    kind: TokenKind::Eof,
                    line,
                    col,
                    span: start..start,
                });
                return Ok(out);
            };
            let kind = match c {
                'a'..='z' | 'A'..='Z' | '_' => self.lex_ident(),
                '0'..='9' => self.lex_number()?,
                '\'' => self.lex_string()?,
                '"' => self.lex_quoted_ident()?,
                '.' => {
                    // `.5` style float literal.
                    if self.peek2().is_some_and(|c| c.is_ascii_digit()) {
                        self.lex_number()?
                    } else {
                        self.bump();
                        TokenKind::Dot
                    }
                }
                ',' => self.single(TokenKind::Comma),
                '(' => self.single(TokenKind::LParen),
                ')' => self.single(TokenKind::RParen),
                ';' => self.single(TokenKind::Semicolon),
                '*' => self.single(TokenKind::Star),
                '+' => self.single(TokenKind::Plus),
                '-' => self.single(TokenKind::Minus),
                '/' => self.single(TokenKind::Slash),
                '%' => self.single(TokenKind::Percent),
                '=' => self.single(TokenKind::Eq),
                '<' => {
                    self.bump();
                    match self.peek() {
                        Some('=') => {
                            self.bump();
                            TokenKind::LtEq
                        }
                        Some('>') => {
                            self.bump();
                            TokenKind::Neq
                        }
                        _ => TokenKind::Lt,
                    }
                }
                '>' => {
                    self.bump();
                    if self.peek() == Some('=') {
                        self.bump();
                        TokenKind::GtEq
                    } else {
                        TokenKind::Gt
                    }
                }
                '!' => {
                    self.bump();
                    if self.peek() == Some('=') {
                        self.bump();
                        TokenKind::Neq
                    } else {
                        return Err(self.error("unexpected '!'"));
                    }
                }
                '|' => {
                    self.bump();
                    if self.peek() == Some('|') {
                        self.bump();
                        TokenKind::Concat
                    } else {
                        return Err(self.error("unexpected '|' (did you mean '||'?)"));
                    }
                }
                other => return Err(self.error(format!("unexpected character '{other}'"))),
            };
            out.push(Token {
                kind,
                line,
                col,
                span: start..self.offset,
            });
        }
    }

    fn single(&mut self, kind: TokenKind) -> TokenKind {
        self.bump();
        kind
    }

    fn skip_trivia(&mut self) -> Result<()> {
        loop {
            match self.peek() {
                Some(c) if c.is_whitespace() => {
                    self.bump();
                }
                Some('-') if self.peek2() == Some('-') => {
                    while let Some(c) = self.peek() {
                        if c == '\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                Some('/') if self.peek2() == Some('*') => {
                    self.bump();
                    self.bump();
                    loop {
                        match (self.peek(), self.peek2()) {
                            (Some('*'), Some('/')) => {
                                self.bump();
                                self.bump();
                                break;
                            }
                            (Some(_), _) => {
                                self.bump();
                            }
                            (None, _) => return Err(self.error("unterminated block comment")),
                        }
                    }
                }
                _ => return Ok(()),
            }
        }
    }

    fn lex_ident(&mut self) -> TokenKind {
        let mut s = String::new();
        while let Some(c) = self.peek() {
            if c.is_ascii_alphanumeric() || c == '_' {
                s.push(c.to_ascii_lowercase());
                self.bump();
            } else {
                break;
            }
        }
        TokenKind::Ident(s)
    }

    fn lex_quoted_ident(&mut self) -> Result<TokenKind> {
        self.bump(); // opening quote
        let mut s = String::new();
        loop {
            match self.bump() {
                Some('"') => {
                    if self.peek() == Some('"') {
                        self.bump();
                        s.push('"');
                    } else {
                        return Ok(TokenKind::Ident(s));
                    }
                }
                Some(c) => s.push(c),
                None => return Err(self.error("unterminated quoted identifier")),
            }
        }
    }

    fn lex_string(&mut self) -> Result<TokenKind> {
        self.bump(); // opening quote
        let mut s = String::new();
        loop {
            match self.bump() {
                Some('\'') => {
                    if self.peek() == Some('\'') {
                        self.bump();
                        s.push('\'');
                    } else {
                        return Ok(TokenKind::StringLit(s));
                    }
                }
                Some(c) => s.push(c),
                None => return Err(self.error("unterminated string literal")),
            }
        }
    }

    fn lex_number(&mut self) -> Result<TokenKind> {
        let start = self.pos;
        let mut saw_dot = false;
        let mut saw_exp = false;
        while let Some(c) = self.peek() {
            match c {
                '0'..='9' => {
                    self.bump();
                }
                '.' if !saw_dot && !saw_exp => {
                    // Only treat as decimal point when followed by a digit or
                    // we've seen digits already (avoid eating `1.foo`).
                    if self.peek2().is_some_and(|c| c.is_ascii_digit()) {
                        saw_dot = true;
                        self.bump();
                    } else {
                        break;
                    }
                }
                'e' | 'E' if !saw_exp => {
                    let next = self.peek2();
                    let has_exp_digits = match next {
                        Some(d) if d.is_ascii_digit() => true,
                        Some('+') | Some('-') => self
                            .chars
                            .get(self.pos + 2)
                            .is_some_and(|c| c.is_ascii_digit()),
                        _ => false,
                    };
                    if has_exp_digits {
                        saw_exp = true;
                        self.bump(); // e
                        if matches!(self.peek(), Some('+') | Some('-')) {
                            self.bump();
                        }
                    } else {
                        break;
                    }
                }
                _ => break,
            }
        }
        let text: String = self.chars[start..self.pos].iter().collect();
        if saw_dot || saw_exp {
            text.parse::<f64>()
                .map(TokenKind::FloatLit)
                .map_err(|_| self.error(format!("invalid float literal '{text}'")))
        } else {
            text.parse::<i64>()
                .map(TokenKind::IntLit)
                .map_err(|_| self.error(format!("integer literal '{text}' out of range")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(input: &str) -> Vec<TokenKind> {
        tokenize(input)
            .unwrap()
            .into_iter()
            .map(|t| t.kind)
            .collect()
    }

    #[test]
    fn basic_select_tokens() {
        let ks = kinds("SELECT mId, text FROM messages;");
        assert_eq!(
            ks,
            vec![
                TokenKind::Ident("select".into()),
                TokenKind::Ident("mid".into()),
                TokenKind::Comma,
                TokenKind::Ident("text".into()),
                TokenKind::Ident("from".into()),
                TokenKind::Ident("messages".into()),
                TokenKind::Semicolon,
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn identifiers_fold_to_lowercase_quoted_preserved() {
        assert_eq!(kinds("FooBar")[0], TokenKind::Ident("foobar".into()));
        assert_eq!(kinds("\"FooBar\"")[0], TokenKind::Ident("FooBar".into()));
        assert_eq!(
            kinds("\"a\"\"b\"")[0],
            TokenKind::Ident("a\"b".into()),
            "doubled quote escape"
        );
    }

    #[test]
    fn string_literals_with_escapes() {
        assert_eq!(kinds("'it''s'")[0], TokenKind::StringLit("it's".into()));
        assert_eq!(
            kinds("'superForum'")[0],
            TokenKind::StringLit("superForum".into())
        );
    }

    #[test]
    fn numbers() {
        assert_eq!(kinds("42")[0], TokenKind::IntLit(42));
        assert_eq!(kinds("3.5")[0], TokenKind::FloatLit(3.5));
        assert_eq!(kinds("1e3")[0], TokenKind::FloatLit(1000.0));
        assert_eq!(kinds("2.5e-1")[0], TokenKind::FloatLit(0.25));
        assert_eq!(kinds(".5")[0], TokenKind::FloatLit(0.5));
    }

    #[test]
    fn dot_after_number_is_member_access_when_not_digit() {
        // `t1.c` after an integer-looking alias: "1.foo" lexes as 1 . foo
        let ks = kinds("1.foo");
        assert_eq!(
            ks[..3],
            [
                TokenKind::IntLit(1),
                TokenKind::Dot,
                TokenKind::Ident("foo".into())
            ]
        );
    }

    #[test]
    fn operators() {
        let ks = kinds("a <= b <> c != d || e >= f");
        assert!(ks.contains(&TokenKind::LtEq));
        assert_eq!(ks.iter().filter(|k| **k == TokenKind::Neq).count(), 2);
        assert!(ks.contains(&TokenKind::Concat));
        assert!(ks.contains(&TokenKind::GtEq));
    }

    #[test]
    fn comments_are_skipped() {
        let ks = kinds("SELECT -- comment to end of line\n 1 /* block\ncomment */ + 2");
        assert_eq!(
            ks,
            vec![
                TokenKind::Ident("select".into()),
                TokenKind::IntLit(1),
                TokenKind::Plus,
                TokenKind::IntLit(2),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn error_positions() {
        let err = tokenize("select\n  @").unwrap_err();
        assert!(err.message().contains("line 2"), "{err}");
        assert!(tokenize("'unterminated").is_err());
        assert!(tokenize("/* unterminated").is_err());
        assert!(tokenize("\"unterminated").is_err());
    }

    #[test]
    fn eof_only_for_empty_input() {
        assert_eq!(kinds("   "), vec![TokenKind::Eof]);
    }
}

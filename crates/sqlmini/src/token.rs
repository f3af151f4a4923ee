//! SQL tokenizer.

use crate::{Result, SqlError};

/// A lexical token with its byte position.
#[derive(Clone, Debug, PartialEq)]
pub struct Token {
    /// Token kind and payload.
    pub kind: TokenKind,
    /// Byte offset in the statement text.
    pub position: usize,
}

/// Token kinds. Keywords are delivered as `Ident` and matched
/// case-insensitively by the parser, as in most SQL lexers.
#[derive(Clone, Debug, PartialEq)]
pub enum TokenKind {
    /// Identifier or keyword.
    Ident(String),
    /// Numeric literal (integer or decimal).
    Number(String),
    /// Single-quoted string literal (quotes stripped, `''` unescaped).
    StringLit(String),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
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
    Neq,
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

/// Tokenizes a statement.
pub fn tokenize(input: &str) -> Result<Vec<Token>> {
    let bytes = input.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i];
        let start = i;
        match c {
            b' ' | b'\t' | b'\r' | b'\n' => {
                i += 1;
            }
            b'-' if bytes.get(i + 1) == Some(&b'-') => {
                // Line comment.
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            b'(' => push(&mut out, TokenKind::LParen, start, &mut i),
            b')' => push(&mut out, TokenKind::RParen, start, &mut i),
            b',' => push(&mut out, TokenKind::Comma, start, &mut i),
            b'.' if !bytes.get(i + 1).is_some_and(u8::is_ascii_digit) => {
                push(&mut out, TokenKind::Dot, start, &mut i)
            }
            b'*' => push(&mut out, TokenKind::Star, start, &mut i),
            b'+' => push(&mut out, TokenKind::Plus, start, &mut i),
            b'-' => push(&mut out, TokenKind::Minus, start, &mut i),
            b'/' => push(&mut out, TokenKind::Slash, start, &mut i),
            b'=' => push(&mut out, TokenKind::Eq, start, &mut i),
            b'!' if bytes.get(i + 1) == Some(&b'=') => {
                out.push(Token { kind: TokenKind::Neq, position: start });
                i += 2;
            }
            b'<' => {
                match bytes.get(i + 1) {
                    Some(b'=') => {
                        out.push(Token { kind: TokenKind::Le, position: start });
                        i += 2;
                    }
                    Some(b'>') => {
                        out.push(Token { kind: TokenKind::Neq, position: start });
                        i += 2;
                    }
                    _ => push(&mut out, TokenKind::Lt, start, &mut i),
                };
            }
            b'>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    out.push(Token { kind: TokenKind::Ge, position: start });
                    i += 2;
                } else {
                    push(&mut out, TokenKind::Gt, start, &mut i);
                }
            }
            b'\'' => {
                i += 1;
                let mut s = String::new();
                loop {
                    // Text runs up to the next quote, which is ASCII and so
                    // ends it on a character boundary: copied as UTF-8.
                    let Some(run) = bytes[i..].iter().position(|&b| b == b'\'') else {
                        return Err(SqlError::Lex {
                            position: start,
                            message: "unterminated string literal".into(),
                        });
                    };
                    s.push_str(&input[i..i + run]);
                    i += run + 1;
                    if bytes.get(i) != Some(&b'\'') {
                        break;
                    }
                    s.push('\'');
                    i += 1;
                }
                out.push(Token { kind: TokenKind::StringLit(s), position: start });
            }
            b'0'..=b'9' | b'.' => {
                let mut j = i;
                let mut saw_dot = false;
                while j < bytes.len()
                    && (bytes[j].is_ascii_digit() || (bytes[j] == b'.' && !saw_dot))
                {
                    saw_dot |= bytes[j] == b'.';
                    j += 1;
                }
                // Exponent.
                if j < bytes.len() && (bytes[j] == b'e' || bytes[j] == b'E') {
                    let mut k = j + 1;
                    if k < bytes.len() && (bytes[k] == b'+' || bytes[k] == b'-') {
                        k += 1;
                    }
                    if k < bytes.len() && bytes[k].is_ascii_digit() {
                        while k < bytes.len() && bytes[k].is_ascii_digit() {
                            k += 1;
                        }
                        j = k;
                    }
                }
                out.push(Token {
                    kind: TokenKind::Number(input[i..j].to_string()),
                    position: start,
                });
                i = j;
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                let mut j = i;
                while j < bytes.len() && (bytes[j].is_ascii_alphanumeric() || bytes[j] == b'_') {
                    j += 1;
                }
                out.push(Token {
                    kind: TokenKind::Ident(input[i..j].to_string()),
                    position: start,
                });
                i = j;
            }
            _ => {
                let other = input[i..].chars().next().unwrap_or_default();
                return Err(SqlError::Lex {
                    position: start,
                    message: format!("unexpected character '{other}'"),
                });
            }
        }
    }
    out.push(Token { kind: TokenKind::Eof, position: input.len() });
    Ok(out)
}

fn push(out: &mut Vec<Token>, kind: TokenKind, position: usize, i: &mut usize) {
    out.push(Token { kind, position });
    *i += 1;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(sql: &str) -> Vec<TokenKind> {
        tokenize(sql).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn basic_select() {
        let k = kinds("SELECT a.id FROM t a WHERE x >= 1.5");
        assert_eq!(
            k,
            vec![
                TokenKind::Ident("SELECT".into()),
                TokenKind::Ident("a".into()),
                TokenKind::Dot,
                TokenKind::Ident("id".into()),
                TokenKind::Ident("FROM".into()),
                TokenKind::Ident("t".into()),
                TokenKind::Ident("a".into()),
                TokenKind::Ident("WHERE".into()),
                TokenKind::Ident("x".into()),
                TokenKind::Ge,
                TokenKind::Number("1.5".into()),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn strings_and_escapes() {
        let k = kinds("name = 'O''Hara St'");
        assert!(matches!(&k[2], TokenKind::StringLit(s) if s == "O'Hara St"));
        assert!(tokenize("'unterminated").is_err());
        // A literal is its UTF-8 text, escapes included.
        let k = kinds("s = 'ß·x' OR s = 'l''été'");
        assert!(matches!(&k[2], TokenKind::StringLit(s) if s == "ß·x"));
        assert!(matches!(&k[6], TokenKind::StringLit(s) if s == "l'été"));
    }

    #[test]
    fn operators() {
        let k = kinds("a <> b != c <= d >= e < f > g");
        assert_eq!(k.iter().filter(|t| matches!(t, TokenKind::Neq)).count(), 2);
        assert!(k.contains(&TokenKind::Le));
        assert!(k.contains(&TokenKind::Ge));
    }

    #[test]
    fn comments_skipped() {
        let k = kinds("SELECT 1 -- trailing comment\n + 2");
        assert_eq!(k.len(), 5); // SELECT, 1, +, 2, EOF
    }

    #[test]
    fn numbers() {
        let k = kinds("1 2.5 1e3 2.5E-2 .75");
        let nums: Vec<&str> = k
            .iter()
            .filter_map(|t| match t {
                TokenKind::Number(n) => Some(n.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(nums, vec!["1", "2.5", "1e3", "2.5E-2", ".75"]);
    }

    #[test]
    fn rejects_garbage() {
        assert!(tokenize("SELECT #").is_err());
        let err = tokenize("SELECT ß").unwrap_err().to_string();
        assert!(err.contains("unexpected character 'ß'"), "{err}");
    }
}

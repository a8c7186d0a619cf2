//! The CRC-trailed text formats: one strict, bounded codec.
//!
//! Every persisted text format in the workspace is a body followed by
//! one trailer line stating the CRC-32 of every byte above it, in one of
//! two spellings ([`Trailer`]). [`seal`] appends the trailer; [`unseal`]
//! checks it and returns the body. The `key=value` formats then read the
//! body with [`Lines`]: a magic line, then one field per line in a fixed
//! order, every error naming its 1-based line.
//!
//! Reading is strict, so every truncation and every single-bit flip is
//! refused: the text ends in a newline, the trailer is its prefix and
//! exactly eight lowercase hex digits, `{:016x}` fields are exactly
//! sixteen, and decimals are digits only. Nothing is allocated before
//! the CRC matches.

use crate::crc::Crc32;
use std::fmt::Write as _;

/// The two spellings of a trailer line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trailer {
    /// `crc=xxxxxxxx\n`: `rlnoc-spec`, `rlnoc-case`, `rlnoc-hardfault`.
    CrcEq,
    /// `crc32 xxxxxxxx\n`: `rlnoc-policy` and `rlnoc-journal` records.
    Crc32,
}

impl Trailer {
    const fn prefix(self) -> &'static str {
        match self {
            Self::CrcEq => "crc=",
            Self::Crc32 => "crc32 ",
        }
    }

    /// Bytes in a trailer line: the prefix, eight digits, a newline.
    pub const fn line_len(self) -> usize {
        self.prefix().len() + 9
    }

    /// Whether `line` is exactly this trailer, stating the CRC-32 of
    /// `body`.
    pub fn seals(self, body: &[u8], line: &[u8]) -> bool {
        let digits = line
            .strip_prefix(self.prefix().as_bytes())
            .and_then(|rest| rest.strip_suffix(b"\n"));
        digits.and_then(|d| hex(d, 8)) == Some(u64::from(Crc32::new().checksum(body)))
    }
}

/// A text refused by its trailer or one of its lines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TextError {
    /// 1-based number of the offending line.
    pub line: usize,
    /// What is wrong with it.
    pub message: String,
}

impl TextError {
    /// An error at the first line of `body` that holds `key=`: for a
    /// check made on the parsed value.
    pub fn on_field(body: &str, key: &str, message: impl Into<String>) -> Self {
        let at = body.lines().position(|l| value_of(l, key).is_some());
        Self {
            line: at.map_or(0, |i| i + 1),
            message: message.into(),
        }
    }
}

impl std::fmt::Display for TextError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for TextError {}

/// Appends `trailer`, stating the CRC-32 of all of `text`.
pub fn seal(text: &mut String, trailer: Trailer) {
    let crc = Crc32::new().checksum(text.as_bytes());
    writeln!(text, "{}{crc:08x}", trailer.prefix()).expect("write to string");
}

/// The body of `text`, once its last line is found to be `trailer`
/// stating the body's CRC-32 and nothing follows it.
///
/// # Errors
///
/// [`TextError`] at the last line otherwise.
pub fn unseal(text: &str, trailer: Trailer) -> Result<&str, TextError> {
    let open = text.strip_suffix('\n').unwrap_or(text);
    let (body, line) = text.split_at(open.rfind('\n').map_or(0, |i| i + 1));
    if trailer.seals(body.as_bytes(), line.as_bytes()) {
        return Ok(body);
    }
    let crc = Crc32::new().checksum(body.as_bytes());
    Err(TextError {
        line: body.lines().count() + 1,
        message: format!(
            "expected the trailer `{}{crc:08x}` and a newline",
            trailer.prefix()
        ),
    })
}

/// Exactly eight lowercase hex digits: a CRC token.
pub fn hex8(token: &str) -> Option<u32> {
    hex(token.as_bytes(), 8).map(|v| v as u32)
}

/// Exactly sixteen lowercase hex digits: a `{:016x}` field.
pub fn hex16(token: &str) -> Option<u64> {
    hex(token.as_bytes(), 16)
}

/// A decimal `u64` of digits only: no sign, no blanks.
pub fn dec(token: &str) -> Option<u64> {
    let digits = token.bytes().all(|b| b.is_ascii_digit());
    digits.then(|| token.parse().ok())?
}

fn hex(digits: &[u8], width: usize) -> Option<u64> {
    let lowercase = |b: &u8| matches!(b, b'0'..=b'9' | b'a'..=b'f');
    if digits.len() != width || !digits.iter().all(lowercase) {
        return None;
    }
    u64::from_str_radix(std::str::from_utf8(digits).ok()?, 16).ok()
}

fn value_of<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    line.strip_prefix(key)?.strip_prefix('=')
}

/// Reads an unsealed body's lines in order, counting them for errors.
#[derive(Debug)]
pub struct Lines<'a> {
    rest: &'a str,
    line: usize,
}

impl<'a> Lines<'a> {
    /// A reader over `body`, whose first line must be `magic`.
    ///
    /// # Errors
    ///
    /// [`TextError`] at line 1 when it is not.
    pub fn open(body: &'a str, magic: &str) -> Result<Self, TextError> {
        let mut lines = Self {
            rest: body,
            line: 0,
        };
        match lines.next_line() {
            Some(first) if first == magic => Ok(lines),
            _ => Err(lines.error(format!("expected `{magic}`"))),
        }
    }

    /// The next line, without its newline. A line is counted even when
    /// none is left, so [`error`](Self::error) names the missing one.
    pub fn next_line(&mut self) -> Option<&'a str> {
        self.line += 1;
        let (line, rest) = self.split()?;
        self.rest = rest;
        Some(line)
    }

    fn split(&self) -> Option<(&'a str, &'a str)> {
        let rest = Some(self.rest).filter(|r| !r.is_empty())?;
        Some(rest.split_once('\n').unwrap_or((rest, "")))
    }

    /// An error at the line last read.
    pub fn error(&self, message: impl Into<String>) -> TextError {
        TextError {
            line: self.line,
            message: message.into(),
        }
    }

    /// The value of the next line, which must be `key=<value>`.
    ///
    /// # Errors
    ///
    /// [`TextError`] when the line is missing or holds another key.
    pub fn field(&mut self, key: &str) -> Result<&'a str, TextError> {
        let value = self.next_line().and_then(|line| value_of(line, key));
        value.ok_or_else(|| self.error(format!("expected `{key}=`")))
    }

    /// The value of the next line if it is `key=<value>`; otherwise
    /// nothing is read.
    pub fn optional(&mut self, key: &str) -> Option<&'a str> {
        let (line, rest) = self.split()?;
        let value = value_of(line, key)?;
        (self.rest, self.line) = (rest, self.line + 1);
        Some(value)
    }

    fn typed<T>(&mut self, key: &str, parse: fn(&str) -> Option<T>) -> Result<T, TextError> {
        let value = self.field(key)?;
        parse(value).ok_or_else(|| self.error(format!("bad `{key}=` value")))
    }

    /// A [`dec`] field.
    ///
    /// # Errors
    ///
    /// [`TextError`] as [`field`](Self::field), or for a bad value.
    pub fn dec(&mut self, key: &str) -> Result<u64, TextError> {
        self.typed(key, dec)
    }

    /// A [`hex16`] field.
    ///
    /// # Errors
    ///
    /// [`TextError`] as [`field`](Self::field), or for a bad value.
    pub fn hex(&mut self, key: &str) -> Result<u64, TextError> {
        self.typed(key, hex16)
    }

    /// An `f64` written as the [`hex16`] of its bits.
    ///
    /// # Errors
    ///
    /// [`TextError`] as [`field`](Self::field), or for a bad value.
    pub fn float(&mut self, key: &str) -> Result<f64, TextError> {
        self.typed(key, |v| hex16(v).map(f64::from_bits))
    }

    /// A [`dec`] count of at most `max`.
    ///
    /// # Errors
    ///
    /// [`TextError`] as [`dec`](Self::dec), or for a count above `max`.
    pub fn count(&mut self, key: &str, max: usize) -> Result<usize, TextError> {
        let n = self.dec(key)?;
        let bounded = usize::try_from(n).ok().filter(|&n| n <= max);
        bounded.ok_or_else(|| self.error(format!("`{key}={n}` exceeds the limit of {max}")))
    }

    /// Ends the read.
    ///
    /// # Errors
    ///
    /// [`TextError`] at the first line left unread.
    pub fn finish(mut self) -> Result<(), TextError> {
        match self.next_line() {
            None => Ok(()),
            Some(_) => Err(self.error("unexpected line after the last field")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sealed(body: &str, trailer: Trailer) -> String {
        let mut text = body.to_string();
        seal(&mut text, trailer);
        text
    }

    #[test]
    fn seal_writes_both_spellings() {
        let crc = Crc32::new().checksum(b"x\n");
        assert_eq!(sealed("x\n", Trailer::CrcEq), format!("x\ncrc={crc:08x}\n"));
        assert_eq!(
            sealed("x\n", Trailer::Crc32),
            format!("x\ncrc32 {crc:08x}\n")
        );
        assert_eq!(Trailer::CrcEq.line_len(), "crc=00000000\n".len());
        assert_eq!(Trailer::Crc32.line_len(), "crc32 00000000\n".len());
    }

    #[test]
    fn unseal_returns_the_body_and_rejects_every_loose_spelling() {
        let text = sealed("magic\nk=v\n", Trailer::CrcEq);
        assert_eq!(unseal(&text, Trailer::CrcEq), Ok("magic\nk=v\n"));
        assert!(unseal(&text, Trailer::Crc32).is_err(), "the other spelling");
        assert!(text.ends_with("crc=d57f863f\n"));
        for loose in [
            text.replace("d57f863f", "D57F863F"),
            text.replace("d57f863f", "+57f863f"),
            text.trim_end().to_string(),
            format!("{text}\n"),
            format!("{text}junk\n"),
            text.replace("crc=", "crc= "),
        ] {
            assert!(unseal(&loose, Trailer::CrcEq).is_err(), "{loose:?}");
        }
        let err = unseal("magic\nk=w\ncrc=00000000\n", Trailer::CrcEq).unwrap_err();
        assert_eq!(err.line, 3);
        let crc = Crc32::new().checksum(b"magic\nk=w\n");
        assert_eq!(
            err.message,
            format!("expected the trailer `crc={crc:08x}` and a newline")
        );
        assert_eq!(unseal("", Trailer::CrcEq).unwrap_err().line, 1);
        assert_eq!(unseal("a\nb", Trailer::CrcEq).unwrap_err().line, 2);
    }

    #[test]
    fn tokens_are_fixed_width_lowercase_or_digits_only() {
        assert_eq!(hex8("0a1b2c3d"), Some(0x0a1b_2c3d));
        assert_eq!(hex16("ffffffffffffffff"), Some(u64::MAX));
        for bad in ["0A1B2C3D", "+a1b2c3d", "a1b2c3d", "0a1b2c3d0", " a1b2c3d"] {
            assert_eq!(hex8(bad), None, "{bad}");
        }
        assert_eq!(dec("18446744073709551615"), Some(u64::MAX));
        for bad in ["", "+1", "-1", " 1", "18446744073709551616", "NaN"] {
            assert_eq!(dec(bad), None, "{bad}");
        }
    }

    #[test]
    fn lines_read_typed_fields_in_order_and_name_each_line() {
        let body = "m v1\nn=42\nseed=00000000000000ff\nx=3ff0000000000000\nc=7\nopt=yes\n";
        let mut lines = Lines::open(body, "m v1").expect("magic");
        assert_eq!(lines.dec("n"), Ok(42));
        assert_eq!(lines.hex("seed"), Ok(255));
        assert_eq!(lines.float("x"), Ok(1.0));
        assert_eq!(lines.count("c", 7), Ok(7));
        assert_eq!(lines.optional("other"), None);
        assert_eq!(lines.optional("opt"), Some("yes"));
        assert_eq!(lines.finish(), Ok(()));

        let line_of = |r: Result<u64, TextError>| r.unwrap_err().line;
        assert_eq!(Lines::open(body, "m v2").unwrap_err().line, 1);
        let mut lines = Lines::open(body, "m v1").expect("magic");
        assert_eq!(line_of(lines.dec("seed")), 2, "wrong key");
        assert_eq!(line_of(lines.dec("seed")), 3, "not decimal");
        lines.field("x").expect("x");
        let err = lines.count("c", 6).unwrap_err();
        assert_eq!(err.line, 5, "{err}");
        assert_eq!(lines.finish().unwrap_err().line, 6);
        let mut open_ended = Lines::open("m v1\nn=1", "m v1").expect("magic");
        assert_eq!(
            open_ended.dec("n"),
            Ok(1),
            "a last line without its newline"
        );
        let mut short = Lines::open("m v1\n", "m v1").expect("magic");
        assert_eq!(line_of(short.dec("n")), 2, "missing line");
        assert_eq!(TextError::on_field(body, "c", "no").line, 5);
    }
}

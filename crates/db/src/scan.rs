//! Reading log text in the shape this program prints it.
//!
//! Recovery reads back lines that [`crate::txn::TxnLine`] and
//! [`crate::txn::write_snapshot`] printed, and those come in one shape:
//! members in one order, no whitespace, and rows printed canonically. A
//! [`Printed`] cursor matches a line against that shape byte for byte and
//! refuses it at the first byte that differs, naming the offset and what
//! the printer writes there. [`value_end`] steps over a row without
//! recursion and without parsing its numbers; it never refuses text: where
//! a row holds something it is not sure of, it gives up (`None`), and the
//! general reader (`serde::read::Reader::skip`) steps over that row and
//! gives the verdict, error message included.

use serde::de::Error;
use serde::read::Reader;

/// How many arrays and objects [`value_end`] follows, one bit of its stack
/// each; deeper rows go to `Reader::skip`, whose own limit is higher.
const STACK: u32 = 64;

/// Where the JSON value that starts at `bytes[at]` ends, if the scanner is
/// sure it is one: every string free of escapes, every number an integer
/// or a decimal without an exponent, no whitespace, no nesting deeper than
/// [`STACK`]. `None` means "not sure", not "not JSON".
pub(crate) fn value_end(bytes: &[u8], mut at: usize) -> Option<usize> {
    // Bit 0 of `objects` is set when the innermost open container is an
    // object; one bit per open container.
    let (mut objects, mut depth) = (0u64, 0u32);
    loop {
        // At the first byte of a value.
        match *bytes.get(at)? {
            open @ (b'[' | b'{') => {
                if depth == STACK {
                    return None;
                }
                depth += 1;
                objects = objects << 1 | u64::from(open == b'{');
                at += 1;
                // `]` and `}` are two past `[` and `{`; an empty container
                // is closed below.
                if bytes.get(at) != Some(&(open + 2)) {
                    if open == b'{' {
                        at = name_end(bytes, at)?;
                    }
                    continue;
                }
            }
            b'"' => at = string_end(bytes, at)?,
            b'-' | b'0'..=b'9' => at = number_end(bytes, at)?,
            b'n' => at = keyword_end(bytes, at, b"null")?,
            b't' => at = keyword_end(bytes, at, b"true")?,
            b'f' => at = keyword_end(bytes, at, b"false")?,
            _ => return None,
        }
        // Past a value: close what ends here, then on to the next value.
        loop {
            if depth == 0 {
                return Some(at);
            }
            let object = objects & 1 == 1;
            match *bytes.get(at)? {
                b',' if object => {
                    at = name_end(bytes, at + 1)?;
                    break;
                }
                b',' => {
                    at += 1;
                    break;
                }
                b']' if !object => {}
                b'}' if object => {}
                _ => return None,
            }
            at += 1;
            depth -= 1;
            objects >>= 1;
        }
    }
}

/// Past a member name and its colon.
fn name_end(bytes: &[u8], at: usize) -> Option<usize> {
    let at = string_end(bytes, at)?;
    (bytes.get(at) == Some(&b':')).then_some(at + 1)
}

/// Past a string literal without escapes.
fn string_end(bytes: &[u8], at: usize) -> Option<usize> {
    if bytes.get(at) != Some(&b'"') {
        return None;
    }
    let end = quote_or_backslash(bytes, at + 1)?;
    (bytes.get(end) == Some(&b'"')).then_some(end + 1)
}

/// Past `-`, 1 to 299 digits, and an optional `.` and digits, where no
/// other number byte follows: the reader takes each such literal (as an
/// integer, or as a float that is finite below 10^300) and ends it there.
fn number_end(bytes: &[u8], at: usize) -> Option<usize> {
    let at = at + usize::from(bytes.get(at) == Some(&b'-'));
    let int = digits(bytes, at);
    if int == 0 || int >= 300 {
        return None;
    }
    let mut at = at + int;
    if bytes.get(at) == Some(&b'.') {
        let fraction = digits(bytes, at + 1);
        if fraction == 0 {
            return None;
        }
        at += 1 + fraction;
    }
    match bytes.get(at) {
        Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') => None,
        _ => Some(at),
    }
}

/// How many ASCII digits start at `at`.
fn digits(bytes: &[u8], at: usize) -> usize {
    let rest = bytes.get(at..).unwrap_or_default();
    rest.iter().take_while(|b| b.is_ascii_digit()).count()
}

fn keyword_end(bytes: &[u8], at: usize, word: &[u8]) -> Option<usize> {
    let rest = bytes.get(at..)?;
    rest.starts_with(word).then_some(at + word.len())
}

/// The offset of the first `"` or `\` at or after `at`, found 8 bytes at a
/// time; `None` if there is none.
fn quote_or_backslash(bytes: &[u8], mut at: usize) -> Option<usize> {
    const ONES: u64 = 0x0101_0101_0101_0101;
    const HIGH: u64 = 0x8080_8080_8080_8080;
    const QUOTES: u64 = ONES * b'"' as u64;
    const SLASHES: u64 = ONES * b'\\' as u64;
    while let Some(&chunk) = bytes.get(at..).and_then(|rest| rest.first_chunk::<8>()) {
        let word = u64::from_le_bytes(chunk);
        let (quote, slash) = (word ^ QUOTES, word ^ SLASHES);
        // The high bit of each zero byte of `quote` or `slash`; the lowest
        // one set is exact (a borrow only marks bytes above a zero byte).
        let hits = (quote.wrapping_sub(ONES) & !quote | slash.wrapping_sub(ONES) & !slash) & HIGH;
        if hits != 0 {
            return Some(at + (hits.trailing_zeros() / 8) as usize);
        }
        at += 8;
    }
    let rest = bytes.get(at..)?;
    rest.iter()
        .position(|&b| b == b'"' || b == b'\\')
        .map(|i| at + i)
}

/// A cursor matching a line against the bytes this program prints for it.
/// Every step refuses the line at the first byte that differs.
pub(crate) struct Printed<'a> {
    line: &'a str,
    at: usize,
}

impl<'a> Printed<'a> {
    pub(crate) fn new(line: &'a str) -> Self {
        Printed { line, at: 0 }
    }

    fn rest(&self) -> &'a [u8] {
        self.line.as_bytes().get(self.at..).unwrap_or_default()
    }

    /// The line leaves the printed shape here, where the printer writes
    /// `expected`.
    fn refuse(&self, expected: impl std::fmt::Display) -> Error {
        // Once per recovery at most: a refused line ends the replay.
        let message = format!("expected {expected} at offset {}", self.at); // sphinx-lint: allow(hot-alloc)
        Error::custom(message)
    }

    /// Step over `text` if the line has it here.
    pub(crate) fn eat(&mut self, text: &str) -> bool {
        let hit = self.rest().starts_with(text.as_bytes());
        self.at += if hit { text.len() } else { 0 };
        hit
    }

    /// Step over `text`, or refuse the line.
    pub(crate) fn step(&mut self, text: &str) -> Result<(), Error> {
        match self.eat(text) {
            true => Ok(()),
            false => Err(self.refuse(format_args!("`{text}`"))),
        }
    }

    /// After an element of a list: `true` past the `,` before another,
    /// `false` past the `]` that closes it.
    pub(crate) fn more(&mut self) -> Result<bool, Error> {
        let more = match self.rest().first() {
            Some(b',') => true,
            Some(b']') => false,
            _ => return Err(self.refuse("`,` or `]`")),
        };
        self.at += 1;
        Ok(more)
    }

    /// The whole line has been matched.
    pub(crate) fn end(&self) -> Result<(), Error> {
        match self.at == self.line.len() {
            true => Ok(()),
            false => Err(self.refuse("the end of the line")),
        }
    }

    /// A key as `u64::write_json` prints it: digits that fit.
    pub(crate) fn key(&mut self) -> Result<u64, Error> {
        let n = digits(self.rest(), 0);
        let text = self.rest().get(..n).unwrap_or_default();
        let key = text.iter().try_fold(0u64, |key, &d| {
            key.checked_mul(10)?.checked_add(u64::from(d - b'0'))
        });
        let key = key.filter(|_| n > 0).ok_or_else(|| self.refuse("a key"))?;
        self.at += n;
        Ok(key)
    }

    /// A name literal without escapes: the range of the name, quotes
    /// excluded.
    pub(crate) fn name(&mut self) -> Result<(usize, usize), Error> {
        let end = string_end(self.line.as_bytes(), self.at)
            .ok_or_else(|| self.refuse("a name without escapes"))?;
        let at = std::mem::replace(&mut self.at, end);
        Ok((at + 1, end - 1))
    }

    /// A row: the range of its text. What the scanner is not sure of,
    /// `Reader::skip` steps over, and text that is not JSON gets its error.
    pub(crate) fn row(&mut self) -> Result<(usize, usize), Error> {
        let from = self.at;
        self.at = match value_end(self.line.as_bytes(), from) {
            Some(end) => end,
            None => {
                let mut r = Reader::at(self.line, from);
                // Whitespace before the row is not the printed shape.
                if r.pos() != from {
                    return Err(self.refuse("a row"));
                }
                from + r.skip()?.len()
            }
        };
        Ok((from, self.at))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;

    /// What `Reader::skip` says of the value at the start of `text`: where
    /// it ends, or why it is refused.
    fn skipped(text: &str) -> Result<usize, String> {
        let mut r = Reader::new(text);
        match r.pos() {
            0 => r.skip().map(str::len).map_err(|e| e.to_string()),
            _ => Err("leading whitespace".to_owned()),
        }
    }

    /// A seeded generator of JSON values, most of them in the printed
    /// shape, some with what the scanner must leave to the reader.
    pub(crate) struct Values {
        seed: u64,
        /// Nothing the scanner leaves to the reader has been generated.
        pub(crate) sure: bool,
        /// Arrays and objects open where the next value goes.
        open: u32,
    }

    /// Leaves, the first [`SURE`] of them ones the scanner steps over.
    const LEAVES: [&str; 16] = [
        "null",
        "true",
        "false",
        "0",
        "-7",
        "18446744073709551616",
        "76.435",
        "-0.5",
        r#""""#,
        r#""plain é""#,
        "\"raw\ttab\"",
        r#""esc\"aped""#,
        "1e999",
        "-2.5E-3",
        "0.",
        "-",
    ];
    const SURE: usize = 11;

    impl Values {
        pub(crate) fn new(seed: u64) -> Self {
            Values {
                seed,
                sure: true,
                open: 0,
            }
        }

        pub(crate) fn below(&mut self, n: usize) -> usize {
            // splitmix64
            self.seed = self.seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.seed;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % n as u64) as usize
        }

        pub(crate) fn value(&mut self) -> String {
            let nested = if self.open > 3 { 3 } else { 6 };
            match self.below(nested) {
                0 => {
                    let leaf = self.below(LEAVES.len());
                    self.sure &= leaf < SURE;
                    LEAVES[leaf].to_owned()
                }
                1 => {
                    let n = self.below(1 << 20) as f64 - 4e5;
                    [n.to_string(), (n / 1000.0).to_string()][self.below(2)].clone()
                }
                2 => format!("\"s{}\"", self.below(100)),
                3 => format!("[{}]", self.items(1, Self::value)),
                4 => format!(
                    "{{{}}}",
                    self.items(1, |g| format!("\"m{}\":{}", g.below(9), g.value()))
                ),
                _ => {
                    // Arrays around a value, some past the scanner's stack.
                    let n = 60 + self.below(10);
                    let inner = self.items(n as u32, Self::value);
                    format!("{}[{inner}]{}", "[".repeat(n - 1), "]".repeat(n - 1))
                }
            }
        }

        /// Up to four `item`s, `levels` deeper.
        fn items(&mut self, levels: u32, item: impl Fn(&mut Self) -> String) -> String {
            self.open += levels;
            self.sure &= self.open <= STACK;
            let items: Vec<String> = (0..self.below(5)).map(|_| item(self)).collect();
            self.open -= levels;
            items.join(",")
        }

        /// `text` with one byte cut, added or replaced.
        pub(crate) fn mutate(&mut self, text: &str) -> String {
            let cuts: Vec<usize> = (0..=text.len())
                .filter(|&i| text.is_char_boundary(i))
                .collect();
            let at = cuts[self.below(cuts.len())];
            let next = cuts.iter().find(|&&i| i > at).copied().unwrap_or(at);
            let with = [
                "\"", "\\", "[", "]", "{", "}", ",", ":", ".", "e", "-", "0", " ", "n",
            ];
            let with = with[self.below(with.len())];
            match self.below(3) {
                0 => format!("{}{}", &text[..at], &text[next..]),
                1 => format!("{}{with}{}", &text[..at], &text[at..]),
                _ => format!("{}{with}{}", &text[..at], &text[next..]),
            }
        }
    }

    /// Held to `Reader::skip`: where the scanner is sure, the reader
    /// accepts the value and ends it at the same byte.
    fn agrees(text: &str) {
        if let Some(end) = value_end(text.as_bytes(), 0) {
            assert_eq!(Ok(end), skipped(text), "{text}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 2048 })]

        #[test]
        fn the_scanner_agrees_with_the_reader(seed in any::<u64>()) {
            let mut g = Values::new(seed);
            let text = g.value();
            agrees(&text);
            // What this program prints, the scanner is sure of.
            if g.sure {
                assert_eq!(value_end(text.as_bytes(), 0), Some(text.len()), "{text}");
            }
            for _ in 0..4 {
                agrees(&g.mutate(&text));
            }
            agrees(&format!("{text},\"table\":\"t\"}}"));
        }
    }

    #[test]
    fn the_scanner_leaves_what_it_is_not_sure_of_to_the_reader() {
        for text in [
            r#""esc\"aped""#,
            r#""unterminated"#,
            "1e5",
            "1E5",
            "1e999",
            "2.",
            "-",
            "[1 ]",
            " 1",
            r#"{"a" :1}"#,
            "[1,]",
            "nul",
            &format!("1{}", "0".repeat(300)),
            &format!("{}{}", "[".repeat(65), "]".repeat(65)),
        ] {
            assert_eq!(value_end(text.as_bytes(), 0), None, "{text}");
        }
        for text in [
            format!("{}{}", "[".repeat(64), "]".repeat(64)),
            format!("9{}.5", "9".repeat(298)),
            r#"{"a":[1,-2.25,{},[],"x",null,true,false],"b":{"c":0}}"#.to_owned(),
        ] {
            assert_eq!(value_end(text.as_bytes(), 0), Some(text.len()), "{text}");
        }
    }

    #[test]
    fn the_quote_search_finds_the_first_quote_or_backslash() {
        for len in 0..40 {
            for at in 0..=len {
                for stop in [b'"', b'\\'] {
                    // Bytes above 0x7f after the first hit, where a borrow
                    // could mark a false one.
                    let mut bytes = vec![b'a'; len];
                    bytes
                        .iter_mut()
                        .skip(at + 1)
                        .step_by(3)
                        .for_each(|b| *b = 0xe9);
                    if at < len {
                        bytes[at] = stop;
                    }
                    let want = (at < len).then_some(at);
                    assert_eq!(quote_or_backslash(&bytes, 0), want, "{len} {at}");
                    assert_eq!(quote_or_backslash(&bytes, at.min(len)), want);
                }
            }
        }
    }
}

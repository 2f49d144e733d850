//! Tokens of the durable text formats: line tags, and the unsigned
//! integers of the table block and the strategy state lines, written and
//! read without a `fmt` call or an allocation per number.

use std::fmt::Display;
use std::str::FromStr;

/// The rest of `line` after its first whitespace-separated token, when
/// that token is `tag` — what follows `toks[0] == tag` for
/// `toks = line.split_whitespace()`.
pub(crate) fn strip_tag<'a>(line: &'a str, tag: &str) -> Option<&'a str> {
    line.trim_start()
        .strip_prefix(tag)
        .filter(|rest| rest.chars().next().is_none_or(char::is_whitespace))
}

/// The rest of `line` after its first token, which must be `tag`. The
/// error names the line by `at` ("line 7", "state line 3").
pub(crate) fn expect_tag<'a>(
    line: &'a str,
    tag: &str,
    at: impl Display,
) -> Result<&'a str, String> {
    strip_tag(line, tag).ok_or_else(|| format!("{at}: expected `{tag}`, got `{line}`"))
}

/// Append a space and the decimal digits of `v` to `out` — the bytes
/// `write!(out, " {v}")` would append.
pub(crate) fn push_spaced(out: &mut String, v: u64) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    let mut rest = v;
    loop {
        start -= 1;
        digits[start] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    out.push(' ');
    out.extend(digits[start..].iter().map(|&d| char::from(d)));
}

/// Parse the tokens `text.split_whitespace()` yields, each as
/// `str::parse::<T>` would, appending the ones that parse to `out`.
/// Returns the number of tokens and whether every one of them parsed.
///
/// An ASCII line is scanned byte by byte, accumulating plain digit runs as
/// it goes; any other token (a sign, an overflow, a letter) and any
/// non-ASCII line take `str::parse` and `split_whitespace` themselves, so
/// exactly the same tokens are accepted.
pub(crate) fn scan_ints<T>(text: &str, out: &mut Vec<T>) -> (usize, bool)
where
    T: FromStr + TryFrom<u64>,
{
    let mut count = 0;
    let mut all_parsed = true;
    let mut take = |parsed: Option<T>| {
        count += 1;
        match parsed {
            Some(v) => out.push(v),
            None => all_parsed = false,
        }
    };
    if !text.is_ascii() {
        text.split_whitespace()
            .for_each(|tok| take(tok.parse().ok()));
        return (count, all_parsed);
    }
    // `char::is_whitespace` on ASCII: space and `\t \n \x0b \x0c \r`.
    let space = |b: u8| b == b' ' || (b'\t'..=b'\r').contains(&b);
    let bytes = text.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if space(bytes[i]) {
            i += 1;
            continue;
        }
        let start = i;
        let mut value = Some(0u64);
        while i < bytes.len() && !space(bytes[i]) {
            let b = bytes[i];
            value = value
                .filter(|_| b.is_ascii_digit())
                .and_then(|v| v.checked_mul(10)?.checked_add(u64::from(b - b'0')));
            i += 1;
        }
        let parsed = value.and_then(|v| T::try_from(v).ok());
        take(parsed.or_else(|| text[start..i].parse().ok()));
    }
    (count, all_parsed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The `split_whitespace` + `str::parse` transcription `scan_ints`
    /// must agree with.
    fn reference<T: FromStr>(text: &str) -> (usize, bool, Vec<T>) {
        let parsed: Vec<Option<T>> = text.split_whitespace().map(|t| t.parse().ok()).collect();
        let all = parsed.iter().all(Option::is_some);
        (parsed.len(), all, parsed.into_iter().flatten().collect())
    }

    fn scanned<T: FromStr + TryFrom<u64>>(text: &str) -> (usize, bool, Vec<T>) {
        let mut out = Vec::new();
        let (count, all) = scan_ints(text, &mut out);
        (count, all, out)
    }

    const PIECES: [&str; 20] = [
        "0",
        "7",
        "007",
        "4294967295",
        "4294967296",
        "18446744073709551615",
        "18446744073709551616",
        "+5",
        "-0",
        "-3",
        "1e3",
        "x",
        "١",
        " ",
        "  ",
        "\t",
        "\x0b",
        "\x0c",
        "\u{a0}",
        "\u{3000}",
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// Same tokens, same values, same verdict as `split_whitespace` +
        /// `str::parse`, for `u32`, `u64` and `usize`.
        #[test]
        fn scan_matches_split_and_parse(picks in prop::collection::vec(0usize..20, 0..16)) {
            let text: String = picks.iter().map(|&p| PIECES[p]).collect::<Vec<_>>().join(" ");
            prop_assert_eq!(scanned::<u32>(&text), reference::<u32>(&text), "{:?}", text);
            prop_assert_eq!(scanned::<u64>(&text), reference::<u64>(&text), "{:?}", text);
            let glued: String = picks.iter().map(|&p| PIECES[p]).collect();
            prop_assert_eq!(scanned::<usize>(&glued), reference::<usize>(&glued), "{:?}", glued);
        }

        /// `strip_tag` accepts exactly the lines whose first token is the
        /// tag, and leaves exactly the remaining tokens.
        #[test]
        fn strip_tag_matches_split(picks in prop::collection::vec(0usize..20, 0..6), tag in 0usize..4) {
            let tag = ["col", "sens", "7", "x"][tag];
            for glue in ["", " ", "\u{3000}"] {
                let text: String = picks.iter().map(|&p| PIECES[p]).collect::<Vec<_>>().join(glue);
                for line in [format!("{tag}{text}"), format!("{tag} {text}"), text.clone()] {
                    let toks: Vec<&str> = line.split_whitespace().collect();
                    let rest = strip_tag(&line, tag);
                    prop_assert_eq!(rest.is_some(), toks.first() == Some(&tag), "{:?}", line);
                    if let Some(rest) = rest {
                        prop_assert_eq!(rest.split_whitespace().collect::<Vec<_>>(), toks[1..].to_vec());
                    }
                }
            }
        }

        /// `push_spaced` writes what `write!(out, " {v}")` writes.
        #[test]
        fn push_matches_format(v in 0u64..u64::MAX, shift in 0u32..64) {
            for v in [v, v >> shift, u64::MAX, 0] {
                let mut out = String::from("x");
                push_spaced(&mut out, v);
                prop_assert_eq!(out, format!("x {v}"));
            }
        }
    }
}

//! Byte-edit mutation shared by the text parsers' fuzz properties
//! (`recover`'s durable files, `publisher`'s spec blocks).

/// Apply byte edits to `text`: each `(at, byte, op)` overwrites,
/// deletes or inserts at `at % len`. Bytes are drawn mostly from the
/// formats' own alphabet (digits, separators, signs), so edits reach
/// the number and token parsers rather than only the magic line.
pub(crate) fn mutate(text: &str, edits: &[(usize, u8, u8)]) -> String {
    const ALPHABET: &[u8] = b"0123456789 \n\t-+.ex";
    let mut bytes = text.as_bytes().to_vec();
    for &(at, byte, op) in edits {
        let byte = if byte < 192 {
            ALPHABET[usize::from(byte) % ALPHABET.len()]
        } else {
            byte
        };
        let at = at % bytes.len().max(1);
        match op {
            0 if !bytes.is_empty() => bytes[at] = byte,
            1 if !bytes.is_empty() => {
                bytes.remove(at);
            }
            _ => bytes.insert(at, byte),
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Overwrite one digit of `text`: the edit `(at, byte, _)` sets the
/// `at % count`-th digit to `byte % 10`. Every token keeps its shape, so
/// the edit passes the tokenizer and reaches the checks behind it (row ids,
/// sizes, splits, levels).
pub(crate) fn rewrite_digit(text: &str, (at, byte, _): (usize, u8, u8)) -> String {
    let mut bytes = text.as_bytes().to_vec();
    let digits: Vec<usize> = (0..bytes.len())
        .filter(|&i| bytes[i].is_ascii_digit())
        .collect();
    if !digits.is_empty() {
        bytes[digits[at % digits.len()]] = b'0' + byte % 10;
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Swap whole numbers of `text`: each `(at, byte, _)` swaps the
/// `at % count`-th number token with the one `byte + 1` places after it,
/// cyclically. The numbers a block holds stay the same multiset, so a
/// partition of rows stays a partition and the edits test where each row
/// sits.
pub(crate) fn swap_numbers(text: &str, edits: &[(usize, u8, u8)]) -> String {
    let separators = [' ', '\n'];
    let mut pieces: Vec<(&str, &str)> = text
        .split_inclusive(separators)
        .map(|piece| piece.split_at(piece.trim_end_matches(separators).len()))
        .collect();
    let numbers: Vec<usize> = (0..pieces.len())
        .filter(|&i| !pieces[i].0.is_empty() && pieces[i].0.bytes().all(|b| b.is_ascii_digit()))
        .collect();
    if numbers.len() > 1 {
        for &(at, byte, _) in edits {
            let i = numbers[at % numbers.len()];
            let j = numbers[(at + 1 + usize::from(byte)) % numbers.len()];
            let (a, b) = (pieces[i].0, pieces[j].0);
            (pieces[i].0, pieces[j].0) = (b, a);
        }
    }
    pieces
        .iter()
        .flat_map(|&(token, separator)| [token, separator])
        .collect()
}

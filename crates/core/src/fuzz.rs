//! Byte-edit mutation shared by the text parsers' fuzz properties
//! (`recover`'s durable files, `publisher`'s spec lines).

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

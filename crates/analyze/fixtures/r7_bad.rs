//! R7 positive fixture: public functions whose only callers are this file,
//! an integration test, or another file's `#[cfg(test)]` module.

/// Live: another library file calls it.
pub fn entry(x: u32) -> u32 {
    only_local(x)
}

/// Called from inside this file only.
pub fn only_local(x: u32) -> u32 {
    x * 2
}

/// Called from `tests/` only.
pub fn only_tested(x: u32) -> u32 {
    x + 1
}

/// Called from another file's unit tests only.
pub fn only_in_cfg_test(x: u32) -> u32 {
    x + 2
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_tests_do_not_count() {
        assert_eq!(only_tested(1), 2);
        assert_eq!(only_in_cfg_test(1), 3);
    }
}

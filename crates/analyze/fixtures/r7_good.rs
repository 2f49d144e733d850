//! R7 negative fixture: every public function has a non-test caller
//! outside this file, an allow note, or is an R5 serial twin.

/// Called by an example.
pub fn from_example() -> u32 {
    1
}

/// Called by the benchmark package.
pub fn from_perfbench() -> u32 {
    2
}

/// Called by a bin target of the same crate.
pub fn from_bin() -> u32 {
    3
}

/// Exercised only by an integration test that checks a paper claim.
// bgk-allow: R7 checks the paper's monotonicity claim in tests/
pub fn paper_claim() -> bool {
    true
}

/// Narrowed: not part of the public surface.
pub(crate) fn narrowed() -> u32 {
    4
}

pub struct Engine;

impl Engine {
    /// Serial twin of `solve_with`: R5 requires it, so R7 exempts it.
    pub fn solve(&self) -> u32 {
        narrowed()
    }

    pub fn solve_with(&self, parallelism: Parallelism) -> u32 {
        match parallelism {
            Parallelism::Serial => self.solve(),
            _ => narrowed(),
        }
    }
}

#[cfg(test)]
mod tests {
    /// Test helpers are not public surface.
    pub fn helper() -> u32 {
        5
    }
}

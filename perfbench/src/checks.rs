//! Correctness checks that feed `attempted`, `failed` and `failed_frac`.

/// Tally of correctness checks made during a run.
#[derive(Clone, Debug, Default)]
pub struct Checks {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Checks {
    /// Records one check; `describe` names it if it failed.
    pub fn check(&mut self, ok: bool, describe: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(describe());
        }
    }

    /// Checks that two serialised row sets are byte-identical.
    pub fn same_rows(&mut self, what: &str, expected: &str, got: &str) {
        self.check(expected == got, || {
            let at = expected
                .bytes()
                .zip(got.bytes())
                .position(|(a, b)| a != b)
                .unwrap_or_else(|| expected.len().min(got.len()));
            format!("{what}: rows differ from byte {at}")
        });
    }

    /// Adds another tally to this one.
    pub fn absorb(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
    }

    /// Adds `attempted` checks made by another process, `failed` of which
    /// failed; `source` names that process in the failure description.
    pub fn absorb_counts(&mut self, source: &str, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 {
            self.failures
                .push(format!("{source}: {failed} of {attempted} checks failed"));
        }
    }

    /// Checks made.
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Checks failed.
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// Failed checks divided by checks attempted (`0.0` when none ran).
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed() as f64 / self.attempted as f64
        }
    }

    /// Descriptions of the failed checks.
    pub fn failures(&self) -> &[String] {
        &self.failures
    }
}

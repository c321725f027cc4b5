//! Correctness accounting: every operation the benchmark times is checked,
//! and a failed check counts its operation as failed.

use neurocube_golden::timing::CycleEnvelope;
use neurocube_nn::Tensor;
use neurocube_sim::StatsRegistry;

/// Operations attempted and failed, with the reason for each failure.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Checks {
    /// Counts one operation, failed when any of its checks failed.
    pub fn operation(&mut self, what: &str, results: Vec<Result<(), String>>) {
        self.operations(what, 1, results);
    }

    /// Counts `n` operations checked together; when any check failed,
    /// all `n` count as failed.
    pub fn operations(&mut self, what: &str, n: u64, results: Vec<Result<(), String>>) {
        let errors: Vec<String> = results.into_iter().filter_map(Result::err).collect();
        let failed = if errors.is_empty() { 0 } else { n };
        self.tally(what, n, failed, errors);
    }

    /// Counts `attempted` operations of which `failed` failed, for the
    /// reasons given.
    pub fn tally(&mut self, what: &str, attempted: u64, failed: u64, reasons: Vec<String>) {
        self.attempted += attempted;
        self.failed += failed;
        self.failures
            .extend(reasons.into_iter().map(|e| format!("{what}: {e}")));
    }

    /// Failed operations over attempted ones (0 before any attempt).
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// The simulator's output must equal the functional reference bit for bit.
pub fn bit_exact(reference: &Tensor, output: &Tensor) -> Result<(), String> {
    if reference.len() != output.len() {
        return Err(format!(
            "output has {} values, the reference {}",
            output.len(),
            reference.len()
        ));
    }
    match reference
        .as_slice()
        .iter()
        .zip(output.as_slice())
        .position(|(r, o)| r.to_bits() != o.to_bits())
    {
        None => Ok(()),
        Some(i) => Err(format!(
            "value {i} is {:?}, the reference says {:?}",
            output.as_slice()[i],
            reference.as_slice()[i]
        )),
    }
}

/// `cycles` must sit inside the certified envelope.
pub fn inside(envelope: &CycleEnvelope, cycles: u64, what: &str) -> Result<(), String> {
    envelope.check(cycles).map_err(|v| format!("{what}: {v}"))
}

/// A simulated figure must equal the one recorded for it.
pub fn equals(what: &str, got: u64, want: u64) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what} is {got}, recorded {want}"))
    }
}

/// A repeated run must leave the same statistics as the first one.
pub fn same_stats(first: &StatsRegistry, again: &StatsRegistry) -> Result<(), String> {
    match first.first_difference(again) {
        None => Ok(()),
        Some(d) => Err(format!("statistics differ from the first run: {d}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neurocube_fixed::Q88;

    fn tensor(values: &[f64]) -> Tensor {
        Tensor::from_vec(
            1,
            1,
            values.len(),
            values.iter().map(|&v| Q88::from_f64(v)).collect(),
        )
    }

    #[test]
    fn a_corrupted_output_counts_as_failed() {
        let reference = tensor(&[0.5, -0.25, 1.0]);
        let mut checks = Checks::default();
        checks.operation("clean", vec![bit_exact(&reference, &reference.clone())]);
        assert_eq!((checks.attempted, checks.failed), (1, 0));

        let mut corrupted = reference.clone();
        corrupted.set_at(1, Q88::from_bits(corrupted.as_slice()[1].to_bits() ^ 1));
        checks.operation("corrupted", vec![bit_exact(&reference, &corrupted)]);
        let short = tensor(&[0.5, -0.25]);
        checks.operation("truncated", vec![bit_exact(&reference, &short)]);
        assert_eq!((checks.attempted, checks.failed), (3, 2));
        assert!(checks.failures[0].starts_with("corrupted: value 1"));
        assert!((checks.error_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn cycles_outside_the_envelope_fail() {
        let env = CycleEnvelope {
            lower: 100,
            upper: 200,
        };
        assert!(inside(&env, 150, "run").is_ok());
        assert!(inside(&env, 99, "run").is_err());
        let mut checks = Checks::default();
        checks.operations("batch", 4, vec![inside(&env, 201, "run"), Ok(())]);
        assert_eq!((checks.attempted, checks.failed), (4, 4));
    }

    #[test]
    fn recorded_figures_must_match() {
        assert!(equals("cycles", 7, 7).is_ok());
        assert!(equals("cycles", 7, 8).is_err());
    }
}

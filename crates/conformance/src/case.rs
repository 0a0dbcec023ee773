//! The serializable unit of conformance testing: one complete
//! (instance, uncertainty, realization) triple as plain numbers.

use rds_core::{fnv1a, Error, Instance, Realization, Result, Uncertainty};

/// A self-contained conformance case: estimates, machine count, the
/// uncertainty factor, and the per-task deviation factors that define
/// the realization. Everything the oracle needs to rebuild and re-run a
/// case — including a shrunk or replayed one — lives here.
#[derive(Debug, Clone, PartialEq)]
pub struct CaseSpec {
    /// Estimated processing times `p̃_j` (finite, strictly positive).
    pub estimates: Vec<f64>,
    /// Number of machines.
    pub m: usize,
    /// Uncertainty factor `α ≥ 1`.
    pub alpha: f64,
    /// Per-task deviation factors `f_j ∈ [1/α, α]` (`p_j = f_j·p̃_j`).
    pub factors: Vec<f64>,
}

impl CaseSpec {
    /// Number of tasks.
    pub fn n(&self) -> usize {
        self.estimates.len()
    }

    /// Checks the spec's own domain before any solver sees it.
    ///
    /// # Errors
    /// [`Error::InvalidParameter`] on empty/mismatched vectors,
    /// non-finite or non-positive estimates, non-finite factors, `m = 0`,
    /// or `α < 1`.
    pub fn validate(&self) -> Result<()> {
        fn bad(what: &'static str) -> Result<()> {
            Err(Error::InvalidParameter { what })
        }
        if self.estimates.is_empty() {
            return bad("case needs at least one task");
        }
        if self.estimates.len() != self.factors.len() {
            return bad("case estimates and factors must have the same length");
        }
        if self.m == 0 {
            return bad("case m must be >= 1");
        }
        if !self.alpha.is_finite() || self.alpha < 1.0 {
            return bad("case alpha must be finite and >= 1");
        }
        if self.estimates.iter().any(|e| !e.is_finite() || *e <= 0.0) {
            return bad("case estimates must be finite and > 0");
        }
        if self.factors.iter().any(|f| !f.is_finite() || *f <= 0.0) {
            return bad("case factors must be finite and > 0");
        }
        Ok(())
    }

    /// Materializes the case into the core model types.
    ///
    /// # Errors
    /// Propagates [`Self::validate`] plus instance/realization
    /// construction errors (e.g. a factor outside `[1/α, α]`).
    pub fn build(&self) -> Result<(Instance, Uncertainty, Realization)> {
        self.validate()?;
        let instance = Instance::from_estimates(&self.estimates, self.m)?;
        let unc = Uncertainty::new(self.alpha)?;
        let real = Realization::from_factors(&instance, unc, &self.factors)?;
        Ok((instance, unc, real))
    }

    /// The same case with every estimate multiplied by `s` (factors
    /// unchanged): the time-scaling metamorphic twin.
    pub fn scaled(&self, s: f64) -> CaseSpec {
        CaseSpec {
            estimates: self.estimates.iter().map(|e| e * s).collect(),
            m: self.m,
            alpha: self.alpha,
            factors: self.factors.clone(),
        }
    }

    /// `true` when every estimate is identical and every deviation
    /// factor is identical — the family where the paper's analysis makes
    /// every group size achieve `f·p·⌈n/m⌉`, so replica monotonicity is
    /// provable and checkable.
    pub fn is_identical_uniform(&self) -> bool {
        self.estimates.windows(2).all(|w| w[0] == w[1])
            && self.factors.windows(2).all(|w| w[0] == w[1])
    }

    /// FNV-1a digest over the full case content, used to derive
    /// deterministic permutations and campaign identities.
    pub fn digest(&self) -> u64 {
        let head = [
            self.m as u64,
            self.alpha.to_bits(),
            self.estimates.len() as u64,
        ];
        let values = self
            .estimates
            .iter()
            .chain(&self.factors)
            .map(|x| x.to_bits());
        fnv1a(head.into_iter().chain(values).flat_map(u64::to_le_bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> CaseSpec {
        CaseSpec {
            estimates: vec![2.0, 1.0, 3.0],
            m: 2,
            alpha: 1.5,
            factors: vec![1.0, 1.5, 0.8],
        }
    }

    #[test]
    fn build_round_trips() {
        let (inst, unc, real) = spec().build().unwrap();
        assert_eq!(inst.n(), 3);
        assert_eq!(inst.m(), 2);
        assert_eq!(unc.alpha(), 1.5);
        assert!((real.times()[1].get() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn validate_rejects_bad_specs() {
        let mut s = spec();
        s.factors.pop();
        assert!(s.validate().is_err());
        let mut s = spec();
        s.estimates[0] = f64::NAN;
        assert!(matches!(s.validate(), Err(Error::InvalidParameter { .. })));
        let mut s = spec();
        s.alpha = 0.5;
        assert!(s.validate().is_err());
        let mut s = spec();
        s.m = 0;
        assert!(s.validate().is_err());
        let s = CaseSpec {
            estimates: vec![],
            m: 1,
            alpha: 1.0,
            factors: vec![],
        };
        assert!(s.validate().is_err());
    }

    #[test]
    fn build_rejects_out_of_envelope_factors() {
        let mut s = spec();
        s.factors[0] = 3.0; // outside [1/1.5, 1.5]
        assert!(s.build().is_err());
    }

    #[test]
    fn identical_uniform_detection() {
        let s = CaseSpec {
            estimates: vec![2.0, 2.0, 2.0],
            m: 4,
            alpha: 2.0,
            factors: vec![0.5, 0.5, 0.5],
        };
        assert!(s.is_identical_uniform());
        assert!(!spec().is_identical_uniform());
    }

    #[test]
    fn digest_distinguishes_cases() {
        let a = spec();
        let mut b = spec();
        b.factors[2] = 0.9;
        assert_ne!(a.digest(), b.digest());
        assert_eq!(a.digest(), spec().digest());
    }

    #[test]
    fn digest_is_pinned() {
        // Case permutations and artifacts derive from this value.
        assert_eq!(spec().digest(), 0x1011_bfcb_a209_46ad);
    }
}

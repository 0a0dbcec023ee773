//! Configuration for the streaming scheduler daemon.

use rds_core::{fnv1a, Error, Result};
use rds_workloads::{ArrivalProcess, EstimateDistribution};

/// Full configuration of one serve run. The daemon is a pure function
/// of this struct: two runs with equal configs produce identical
/// streams, placements, and outcomes — the property crash recovery
/// leans on.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Number of machines (`>= 1`).
    pub machines: usize,
    /// Replication factor `k` while healthy (`1 <= k <= machines`).
    pub replication: usize,
    /// Replication factor under overload (`1 <= degraded <= k`).
    pub degraded_replication: usize,
    /// Hard bound on queued (admitted, not yet started) tasks.
    pub queue_cap: usize,
    /// Depth at which replication degrades (enter Backpressure).
    pub degrade_hi: usize,
    /// Depth at which full replication is restored (hysteresis).
    pub degrade_lo: usize,
    /// Depth at which deadline-based shedding engages.
    pub shed_hi: usize,
    /// Depth at which shedding disengages (hysteresis).
    pub shed_lo: usize,
    /// Deadline slack: `deadline = arrival + deadline_factor · estimate`.
    pub deadline_factor: f64,
    /// Uncertainty factor `α >= 1`: actual time is `estimate · f` with
    /// `f` drawn per attempt from `[1/α, α]`.
    pub alpha: f64,
    /// Per-attempt failure probability in `[0, 1)`; failed attempts
    /// retry with watchdog backoff.
    pub fail_rate: f64,
    /// Attempts before a task is journaled as `failed` (`>= 1`).
    pub max_attempts: u32,
    /// Journal records buffered between fsyncs (`>= 1`).
    pub fsync_every: usize,
    /// Seed for the arrival stream, realization draws, and reservoirs.
    pub seed: u64,
    /// Arrival-time process.
    pub process: ArrivalProcess,
    /// Estimate distribution revealed on arrival.
    pub estimates: EstimateDistribution,
    /// Number of arrivals the generator produces.
    pub count: u64,
}

impl ServeConfig {
    /// A config with production-shaped defaults: Poisson arrivals at
    /// `rate`, uniform estimates, cap 1024 with watermarks at
    /// 1/2 (degrade) and 3/4 (shed) of cap.
    pub fn poisson(machines: usize, replication: usize, rate: f64, count: u64) -> Self {
        ServeConfig {
            machines,
            replication,
            degraded_replication: 1,
            queue_cap: 1024,
            degrade_hi: 512,
            degrade_lo: 384,
            shed_hi: 768,
            shed_lo: 640,
            deadline_factor: 50.0,
            alpha: 1.5,
            fail_rate: 0.0,
            max_attempts: 3,
            fsync_every: 64,
            seed: 42,
            process: ArrivalProcess::Poisson { rate },
            estimates: EstimateDistribution::Uniform { lo: 0.5, hi: 1.5 },
            count,
        }
    }

    /// Validates every field against its documented domain.
    ///
    /// # Errors
    /// [`Error::InvalidParameter`] / [`Error::NoMachines`] with the
    /// violated precondition.
    pub fn validate(&self) -> Result<()> {
        fn bad(what: &'static str) -> Result<()> {
            Err(Error::InvalidParameter { what })
        }
        if self.machines == 0 {
            return Err(Error::NoMachines);
        }
        if !(1 <= self.replication && self.replication <= self.machines) {
            return Err(Error::BadGroupCount {
                k: self.replication,
                m: self.machines,
            });
        }
        if !(1 <= self.degraded_replication && self.degraded_replication <= self.replication) {
            return bad("degraded_replication must satisfy 1 <= degraded <= replication");
        }
        if self.queue_cap == 0 {
            return bad("queue_cap must be >= 1");
        }
        if !(self.degrade_lo <= self.degrade_hi && self.degrade_hi <= self.shed_hi) {
            return bad("watermarks must satisfy degrade_lo <= degrade_hi <= shed_hi");
        }
        if !(self.shed_lo <= self.shed_hi && self.shed_hi <= self.queue_cap) {
            return bad("watermarks must satisfy shed_lo <= shed_hi <= queue_cap");
        }
        if !(self.deadline_factor.is_finite() && self.deadline_factor > 0.0) {
            return bad("deadline_factor must be finite and > 0");
        }
        if !(self.alpha.is_finite() && self.alpha >= 1.0) {
            return Err(Error::AlphaOutOfRange { alpha: self.alpha });
        }
        if !(self.fail_rate.is_finite() && (0.0..1.0).contains(&self.fail_rate)) {
            return bad("fail_rate must be in [0, 1)");
        }
        if self.max_attempts == 0 {
            return bad("max_attempts must be >= 1");
        }
        if self.fsync_every == 0 {
            return bad("fsync_every must be >= 1");
        }
        self.process.validate()?;
        self.estimates.validate()?;
        Ok(())
    }

    /// Canonical parameter string recorded in the journal meta line —
    /// resuming against a journal written under a different config is
    /// rejected before any replay happens.
    pub fn params(&self) -> String {
        format!(
            "m={} k={} kd={} cap={} dg={}..{} sh={}..{} dl={} a={} fr={} att={} seed={} n={} proc={:?} est={:?}",
            self.machines,
            self.replication,
            self.degraded_replication,
            self.queue_cap,
            self.degrade_lo,
            self.degrade_hi,
            self.shed_lo,
            self.shed_hi,
            self.deadline_factor,
            self.alpha,
            self.fail_rate,
            self.max_attempts,
            self.seed,
            self.count,
            self.process,
            self.estimates,
        )
    }

    /// FNV-1a digest of [`Self::params`], the journal's config identity.
    pub fn digest(&self) -> u64 {
        fnv1a(self.params().bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_shape_is_valid() {
        ServeConfig::poisson(8, 2, 4.0, 1000).validate().unwrap();
    }

    #[test]
    fn watermark_order_is_enforced() {
        let mut c = ServeConfig::poisson(8, 2, 4.0, 10);
        c.degrade_hi = 900;
        c.shed_hi = 800;
        assert!(c.validate().is_err());
        let mut c = ServeConfig::poisson(8, 2, 4.0, 10);
        c.shed_hi = c.queue_cap + 1;
        assert!(c.validate().is_err());
    }

    #[test]
    fn replication_bounds() {
        assert!(matches!(
            ServeConfig::poisson(4, 5, 1.0, 1).validate(),
            Err(Error::BadGroupCount { k: 5, m: 4 })
        ));
        let mut c = ServeConfig::poisson(4, 2, 1.0, 1);
        c.degraded_replication = 3;
        assert!(c.validate().is_err());
    }

    #[test]
    fn digest_tracks_every_field() {
        let a = ServeConfig::poisson(8, 2, 4.0, 1000);
        let mut b = a.clone();
        assert_eq!(a.digest(), b.digest());
        b.seed = 43;
        assert_ne!(a.digest(), b.digest());
        let mut c = a.clone();
        c.fail_rate = 0.01;
        assert_ne!(a.digest(), c.digest());
    }

    #[test]
    fn digest_is_pinned() {
        // Serve journals record this value; a change breaks resume.
        assert_eq!(
            ServeConfig::poisson(8, 2, 4.0, 1000).digest(),
            0x8d59_e40f_6d75_d342
        );
    }
}

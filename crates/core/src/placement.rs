//! Phase-1 output: where each task's data is replicated.
//!
//! A [`Placement`] maps every task `j` to the set `M_j ⊆ M` of machines
//! holding its input data; phase 2 may only run `j` on a machine in `M_j`.
//! The common shapes (singleton, whole group, everywhere) get dedicated
//! compact variants in [`MachineSet`]; arbitrary subsets fall back to a
//! bitmask.

use crate::bitset::MachineMask;
use crate::error::{Error, Result};
use crate::ids::{MachineId, TaskId};
use crate::instance::Instance;
use std::fmt;

/// A set of machines a task may execute on.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum MachineSet {
    /// Data on exactly one machine (`|M_j| = 1`, the no-replication model).
    One(MachineId),
    /// Data on a contiguous range of machines `[start, end)`, as produced
    /// by grouped replication.
    Span {
        /// First machine of the span.
        start: u32,
        /// One past the last machine of the span.
        end: u32,
    },
    /// Data everywhere (`M_j = M`, the replicate-everywhere model).
    All,
    /// Arbitrary subset.
    Mask(MachineMask),
}

impl MachineSet {
    /// Builds the most compact variant representing `mask` on `m` machines.
    pub fn from_mask(m: usize, mask: MachineMask) -> Self {
        let count = mask.count();
        if count == m {
            return MachineSet::All;
        }
        if count == 1 {
            return MachineSet::One(mask.first().expect("count == 1"));
        }
        // Detect a contiguous span.
        if let Some(first) = mask.first() {
            let start = first.index();
            if mask
                .iter()
                .zip(start..start + count)
                .all(|(id, want)| id.index() == want)
            {
                return MachineSet::Span {
                    start: start as u32,
                    end: (start + count) as u32,
                };
            }
        }
        MachineSet::Mask(mask)
    }

    /// Membership test.
    pub fn contains(&self, machine: MachineId) -> bool {
        match self {
            MachineSet::One(id) => *id == machine,
            MachineSet::Span { start, end } => (*start..*end).contains(&machine.0),
            MachineSet::All => true,
            MachineSet::Mask(mask) => mask.contains(machine),
        }
    }

    /// Number of machines in the set, given the total machine count `m`.
    pub fn count(&self, m: usize) -> usize {
        match self {
            MachineSet::One(_) => 1,
            MachineSet::Span { start, end } => (end - start) as usize,
            MachineSet::All => m,
            MachineSet::Mask(mask) => mask.count(),
        }
    }

    /// `true` if the set has no members (only possible for empty masks).
    pub fn is_empty(&self, m: usize) -> bool {
        self.count(m) == 0
    }

    /// Iterates over the members in increasing machine id order,
    /// allocating nothing.
    pub fn iter(&self, m: usize) -> impl Iterator<Item = MachineId> + '_ {
        match self {
            MachineSet::One(id) => Members::Range(id.0..id.0 + 1),
            MachineSet::Span { start, end } => Members::Range(*start..*end),
            MachineSet::All => Members::Range(0..m as u32),
            MachineSet::Mask(mask) => Members::Mask(mask.iter()),
        }
    }

    /// Checks all member indices are `< m`.
    fn validate(&self, m: usize, task: usize) -> Result<()> {
        let bad = |machine: usize| Error::MachineOutOfRange { machine, m };
        match self {
            MachineSet::One(id) if id.index() >= m => Err(bad(id.index())),
            MachineSet::Span { start, end } => {
                if start >= end {
                    Err(Error::EmptyPlacement { task })
                } else if *end as usize > m {
                    Err(bad(*end as usize - 1))
                } else {
                    Ok(())
                }
            }
            MachineSet::Mask(mask) => {
                if mask.is_empty() {
                    Err(Error::EmptyPlacement { task })
                } else if mask.capacity() > m && mask.iter().any(|id| id.index() >= m) {
                    Err(bad(mask.iter().find(|id| id.index() >= m).unwrap().index()))
                } else {
                    Ok(())
                }
            }
            _ => Ok(()),
        }
    }
}

/// [`MachineSet::iter`]'s iterator: a concrete type, not a box.
enum Members<'a> {
    /// The contiguous ids of a singleton, span or everywhere set.
    Range(std::ops::Range<u32>),
    /// The members of an arbitrary subset.
    Mask(crate::bitset::Iter<'a>),
}

impl Iterator for Members<'_> {
    type Item = MachineId;

    #[inline]
    fn next(&mut self) -> Option<MachineId> {
        match self {
            Members::Range(r) => r.next().map(MachineId),
            Members::Mask(it) => it.next(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            Members::Range(r) => r.size_hint(),
            Members::Mask(it) => it.size_hint(),
        }
    }
}

impl fmt::Display for MachineSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MachineSet::One(id) => write!(f, "{{{id}}}"),
            MachineSet::Span { start, end } => write!(f, "{{p{start}..p{}}}", end - 1),
            MachineSet::All => write!(f, "{{*}}"),
            MachineSet::Mask(mask) => write!(f, "{mask:?}"),
        }
    }
}

/// The phase-1 data placement: one [`MachineSet`] per task.
#[derive(Debug, Clone, PartialEq)]
pub struct Placement {
    sets: Vec<MachineSet>,
    m: usize,
}

impl Placement {
    /// Wraps and validates per-task machine sets.
    ///
    /// # Errors
    /// - [`Error::TaskCountMismatch`] on length mismatch with the instance.
    /// - [`Error::EmptyPlacement`] if some `M_j` is empty.
    /// - [`Error::MachineOutOfRange`] if a member index is `>= m`.
    pub fn new(instance: &Instance, sets: Vec<MachineSet>) -> Result<Self> {
        if sets.len() != instance.n() {
            return Err(Error::TaskCountMismatch {
                what: "placement sets",
                expected: instance.n(),
                got: sets.len(),
            });
        }
        for (j, set) in sets.iter().enumerate() {
            set.validate(instance.m(), j)?;
        }
        Ok(Placement {
            sets,
            m: instance.m(),
        })
    }

    /// The placement where every task's data is on every machine.
    pub fn everywhere(instance: &Instance) -> Self {
        Placement {
            sets: vec![MachineSet::All; instance.n()],
            m: instance.m(),
        }
    }

    /// A no-replication placement from a plain task→machine assignment.
    ///
    /// # Errors
    /// - [`Error::TaskCountMismatch`] on length mismatch.
    /// - [`Error::MachineOutOfRange`] on a bad machine index.
    pub fn pinned(instance: &Instance, assignment: &[MachineId]) -> Result<Self> {
        if assignment.len() != instance.n() {
            return Err(Error::TaskCountMismatch {
                what: "pinned assignment",
                expected: instance.n(),
                got: assignment.len(),
            });
        }
        let sets = assignment
            .iter()
            .map(|&id| {
                if id.index() >= instance.m() {
                    Err(Error::MachineOutOfRange {
                        machine: id.index(),
                        m: instance.m(),
                    })
                } else {
                    Ok(MachineSet::One(id))
                }
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(Placement {
            sets,
            m: instance.m(),
        })
    }

    /// The machine set `M_j` of a task.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    #[inline]
    pub fn set(&self, id: TaskId) -> &MachineSet {
        &self.sets[id.index()]
    }

    /// All machine sets, indexed by task id.
    #[inline]
    pub fn sets(&self) -> &[MachineSet] {
        &self.sets
    }

    /// Number of machines `m` the placement ranges over.
    #[inline]
    pub fn m(&self) -> usize {
        self.m
    }

    /// Number of tasks.
    #[inline]
    pub fn n(&self) -> usize {
        self.sets.len()
    }

    /// `true` if task `id` may execute on `machine`.
    #[inline]
    pub fn allows(&self, id: TaskId, machine: MachineId) -> bool {
        self.sets[id.index()].contains(machine)
    }

    /// Number of replicas `|M_j|` of a task.
    #[inline]
    pub fn replicas(&self, id: TaskId) -> usize {
        self.sets[id.index()].count(self.m)
    }

    /// The task's *primary* replica: the lowest-indexed machine of
    /// `M_j`. Locality-aware dispatch treats it as the task's data home
    /// — running anywhere else charges the transfer latency from here.
    ///
    /// # Panics
    /// Panics if `id` is out of range or its machine set is empty
    /// (validated placements never contain empty sets).
    #[inline]
    pub fn primary(&self, id: TaskId) -> MachineId {
        self.sets[id.index()]
            .iter(self.m)
            .next()
            .expect("validated placements have no empty machine set")
    }

    /// The largest replica count over all tasks, `max_j |M_j|`.
    pub fn max_replicas(&self) -> usize {
        (0..self.sets.len())
            .map(|j| self.replicas(TaskId::new(j)))
            .max()
            .unwrap_or(0)
    }

    /// Total number of replicas `Σ_j |M_j|` (data copies in the system).
    pub fn total_replicas(&self) -> usize {
        (0..self.sets.len())
            .map(|j| self.replicas(TaskId::new(j)))
            .sum()
    }

    /// Checks the replication-bound model constraint `∀j, |M_j| ≤ k`.
    ///
    /// # Errors
    /// Returns [`Error::ReplicationBudgetExceeded`] on the first violation.
    pub fn check_budget(&self, k: usize) -> Result<()> {
        for j in 0..self.sets.len() {
            let replicas = self.replicas(TaskId::new(j));
            if replicas > k {
                return Err(Error::ReplicationBudgetExceeded {
                    task: j,
                    replicas,
                    budget: k,
                });
            }
        }
        Ok(())
    }
}

/// A partition of the `m` machines into `k` contiguous groups, used by the
/// grouped replication strategy (§6 of the paper).
///
/// The paper assumes `k | m` so that every group has exactly `m/k`
/// machines; we additionally support non-divisible `m` with near-equal
/// groups (sizes differ by at most one), which is a documented extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupPartition {
    m: usize,
    k: usize,
}

impl GroupPartition {
    /// Creates a partition of `m` machines into `k` groups.
    ///
    /// # Errors
    /// Returns [`Error::BadGroupCount`] when `k == 0` or `k > m`.
    pub fn new(m: usize, k: usize) -> Result<Self> {
        if k == 0 || k > m {
            return Err(Error::BadGroupCount { k, m });
        }
        Ok(GroupPartition { m, k })
    }

    /// Creates a partition, additionally requiring `k` to divide `m`
    /// exactly as in the paper.
    ///
    /// # Errors
    /// Returns [`Error::BadGroupCount`] when `k` does not divide `m`
    /// (or is out of range).
    pub fn new_exact(m: usize, k: usize) -> Result<Self> {
        if k == 0 || k > m || !m.is_multiple_of(k) {
            return Err(Error::BadGroupCount { k, m });
        }
        Ok(GroupPartition { m, k })
    }

    /// Number of machines.
    #[inline]
    pub fn m(&self) -> usize {
        self.m
    }

    /// Number of groups.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Machine range `[start, end)` of group `g`.
    ///
    /// Groups are laid out so sizes differ by at most one: the first
    /// `m mod k` groups get `⌈m/k⌉` machines, the rest `⌊m/k⌋`.
    ///
    /// # Panics
    /// Panics if `g >= k`.
    pub fn group_range(&self, g: usize) -> std::ops::Range<usize> {
        assert!(g < self.k, "group {g} out of range (k = {})", self.k);
        let base = self.m / self.k;
        let extra = self.m % self.k;
        let start = g * base + g.min(extra);
        let size = base + usize::from(g < extra);
        start..start + size
    }

    /// Number of machines in group `g`.
    pub fn group_size(&self, g: usize) -> usize {
        self.group_range(g).len()
    }

    /// The group a machine belongs to.
    ///
    /// # Panics
    /// Panics if `machine.index() >= m`.
    pub fn group_of(&self, machine: MachineId) -> usize {
        let i = machine.index();
        assert!(i < self.m, "machine {i} out of range (m = {})", self.m);
        let base = self.m / self.k;
        let extra = self.m % self.k;
        let boundary = extra * (base + 1);
        if i < boundary {
            i / (base + 1)
        } else {
            extra + (i - boundary) / base
        }
    }

    /// The [`MachineSet`] of group `g`.
    pub fn group_set(&self, g: usize) -> MachineSet {
        let r = self.group_range(g);
        MachineSet::Span {
            start: r.start as u32,
            end: r.end as u32,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inst(n: usize, m: usize) -> Instance {
        Instance::from_estimates(&vec![1.0; n], m).unwrap()
    }

    #[test]
    fn machine_set_contains_and_count() {
        let m = 8;
        assert!(MachineSet::All.contains(MachineId::new(7)));
        assert_eq!(MachineSet::All.count(m), 8);
        let one = MachineSet::One(MachineId::new(3));
        assert!(one.contains(MachineId::new(3)));
        assert!(!one.contains(MachineId::new(4)));
        assert_eq!(one.count(m), 1);
        let span = MachineSet::Span { start: 2, end: 5 };
        assert!(span.contains(MachineId::new(2)));
        assert!(span.contains(MachineId::new(4)));
        assert!(!span.contains(MachineId::new(5)));
        assert_eq!(span.count(m), 3);
    }

    #[test]
    fn from_mask_normalizes() {
        let m = 8;
        let full = MachineMask::full(m);
        assert_eq!(MachineSet::from_mask(m, full), MachineSet::All);
        let single = MachineMask::singleton(m, MachineId::new(2));
        assert_eq!(
            MachineSet::from_mask(m, single),
            MachineSet::One(MachineId::new(2))
        );
        let span = MachineMask::range(m, 2..6);
        assert_eq!(
            MachineSet::from_mask(m, span),
            MachineSet::Span { start: 2, end: 6 }
        );
        let scattered =
            MachineMask::from_iter_with_capacity(m, [0, 2, 5].into_iter().map(MachineId::new));
        assert!(matches!(
            MachineSet::from_mask(m, scattered),
            MachineSet::Mask(_)
        ));
    }

    #[test]
    fn iter_members() {
        let collect = |s: &MachineSet| -> Vec<usize> { s.iter(6).map(|id| id.index()).collect() };
        assert_eq!(collect(&MachineSet::All), vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(collect(&MachineSet::One(MachineId::new(4))), vec![4]);
        assert_eq!(collect(&MachineSet::Span { start: 1, end: 3 }), vec![1, 2]);
    }

    #[test]
    fn placement_validation() {
        let i = inst(2, 4);
        // Wrong length.
        assert!(matches!(
            Placement::new(&i, vec![MachineSet::All]).unwrap_err(),
            Error::TaskCountMismatch { .. }
        ));
        // Machine out of range.
        assert!(matches!(
            Placement::new(
                &i,
                vec![MachineSet::One(MachineId::new(4)), MachineSet::All]
            )
            .unwrap_err(),
            Error::MachineOutOfRange { machine: 4, .. }
        ));
        // Empty mask.
        assert!(matches!(
            Placement::new(
                &i,
                vec![MachineSet::Mask(MachineMask::empty(4)), MachineSet::All]
            )
            .unwrap_err(),
            Error::EmptyPlacement { task: 0 }
        ));
        // Empty span.
        assert!(matches!(
            Placement::new(
                &i,
                vec![MachineSet::Span { start: 2, end: 2 }, MachineSet::All]
            )
            .unwrap_err(),
            Error::EmptyPlacement { task: 0 }
        ));
    }

    #[test]
    fn placement_queries() {
        let i = inst(3, 4);
        let p = Placement::new(
            &i,
            vec![
                MachineSet::One(MachineId::new(1)),
                MachineSet::All,
                MachineSet::Span { start: 0, end: 2 },
            ],
        )
        .unwrap();
        assert!(p.allows(TaskId::new(0), MachineId::new(1)));
        assert!(!p.allows(TaskId::new(0), MachineId::new(0)));
        assert_eq!(p.replicas(TaskId::new(0)), 1);
        assert_eq!(p.replicas(TaskId::new(1)), 4);
        assert_eq!(p.replicas(TaskId::new(2)), 2);
        assert_eq!(p.max_replicas(), 4);
        assert_eq!(p.total_replicas(), 7);
        assert!(p.check_budget(4).is_ok());
        assert!(matches!(
            p.check_budget(2).unwrap_err(),
            Error::ReplicationBudgetExceeded { task: 1, .. }
        ));
    }

    #[test]
    fn pinned_placement() {
        let i = inst(3, 2);
        let a = [MachineId::new(0), MachineId::new(1), MachineId::new(0)];
        let p = Placement::pinned(&i, &a).unwrap();
        assert_eq!(p.max_replicas(), 1);
        assert!(p.allows(TaskId::new(2), MachineId::new(0)));
        assert!(Placement::pinned(&i, &a[..2]).is_err());
        assert!(Placement::pinned(&i, &[MachineId::new(2); 3]).is_err());
    }

    #[test]
    fn everywhere_placement() {
        let i = inst(2, 3);
        let p = Placement::everywhere(&i);
        assert_eq!(p.max_replicas(), 3);
        assert!(p.check_budget(3).is_ok());
    }

    #[test]
    fn group_partition_even() {
        let g = GroupPartition::new_exact(6, 2).unwrap();
        assert_eq!(g.group_range(0), 0..3);
        assert_eq!(g.group_range(1), 3..6);
        assert_eq!(g.group_of(MachineId::new(0)), 0);
        assert_eq!(g.group_of(MachineId::new(2)), 0);
        assert_eq!(g.group_of(MachineId::new(3)), 1);
        assert_eq!(g.group_of(MachineId::new(5)), 1);
        assert_eq!(g.group_size(0), 3);
    }

    #[test]
    fn group_partition_uneven() {
        // 7 machines, 3 groups → sizes 3, 2, 2.
        let g = GroupPartition::new(7, 3).unwrap();
        assert_eq!(g.group_range(0), 0..3);
        assert_eq!(g.group_range(1), 3..5);
        assert_eq!(g.group_range(2), 5..7);
        for i in 0..7 {
            let id = MachineId::new(i);
            let grp = g.group_of(id);
            assert!(g.group_range(grp).contains(&i), "machine {i} group {grp}");
        }
    }

    #[test]
    fn group_partition_errors() {
        assert!(GroupPartition::new(4, 0).is_err());
        assert!(GroupPartition::new(4, 5).is_err());
        assert!(GroupPartition::new_exact(7, 3).is_err());
        assert!(GroupPartition::new_exact(6, 3).is_ok());
    }

    #[test]
    fn group_set_is_span() {
        let g = GroupPartition::new_exact(6, 3).unwrap();
        assert_eq!(g.group_set(1), MachineSet::Span { start: 2, end: 4 });
    }

    #[test]
    fn display() {
        assert_eq!(MachineSet::All.to_string(), "{*}");
        assert_eq!(MachineSet::One(MachineId::new(2)).to_string(), "{p2}");
        assert_eq!(
            MachineSet::Span { start: 1, end: 4 }.to_string(),
            "{p1..p3}"
        );
    }
}

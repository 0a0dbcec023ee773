//! Memory-aware placement as an integer program, solved by branch and
//! bound over the LP relaxation (ROADMAP item 2).
//!
//! The model follows the `SelectiveReplicationILP` shape: binary
//! execution variables `y[j][i]` (task `j` runs on machine `i`), a
//! makespan variable `C`, per-machine load rows on the α-uncertainty
//! *envelope* times `p̂_j = α·p̃_j`, and per-machine memory-budget rows
//! on the (exactly known) sizes `s_j`:
//!
//! ```text
//! minimize C
//! s.t.  Σ_i y[j][i] = 1                    ∀j   (every task runs once)
//!       Σ_j p̂_j·y[j][i] ≤ C               ∀i   (envelope load)
//!       Σ_j s_j·y[j][i] ≤ B               ∀i   (memory budget)
//!       y ∈ {0,1}
//! ```
//!
//! With `B = ∞` this is exactly `P || C_max` on the envelopes, so the
//! solver is differential-checked against [`crate::optimal`]. The search
//! extends [`crate::branch_bound`]: LPT branch order, (load, memory)
//! symmetry signatures, a suffix memory-feasibility cut, the root LP
//! value as a global bound, and a node budget that makes the solver
//! anytime — when the budget runs out the best incumbent (LP rounding or
//! memory-aware greedy) is returned with `proved = false`. When no
//! incumbent meets the budget, an exact bin-packing test on the sizes
//! decides (for `n ≤ dp::MAX_TASKS`) whether any placement can, before
//! the search spends its node budget proving that none does.

use crate::dp;
use crate::lp::{LpOutcome, LpProblem, Rel};
use rds_core::{Instance, MachineId, Size, Time, Uncertainty};

/// Relative tolerance for feasibility and bound comparisons.
pub const ILP_TOL: f64 = 1e-9;

/// Above this many LP variables (`n·m + 1`) the dense simplex is skipped
/// and rounding falls back to the memory-aware greedy — the time-box for
/// large instances.
pub const LP_VAR_LIMIT: usize = 4096;

/// Errors from model construction and solving.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IlpError {
    /// A parameter was outside its domain (non-finite input, zero
    /// machines, mismatched lengths…).
    BadInput(&'static str),
    /// The instance is provably infeasible under the memory budget.
    Infeasible,
    /// The node budget ran out before *any* feasible placement was found
    /// (only possible when every fallback heuristic also failed).
    ResourceLimit,
}

impl std::fmt::Display for IlpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IlpError::BadInput(what) => write!(f, "invalid ILP model input: {what}"),
            IlpError::Infeasible => write!(f, "no placement satisfies the memory budget"),
            IlpError::ResourceLimit => {
                write!(
                    f,
                    "node budget exhausted before a feasible placement was found"
                )
            }
        }
    }
}

impl std::error::Error for IlpError {}

/// The LP relaxation's optimum at the root node.
#[derive(Debug, Clone, PartialEq)]
pub struct LpRelaxation {
    /// The relaxation's objective value — a lower bound on the IP.
    pub bound: f64,
    /// Fractional assignment, task-major: `y[j * m + i]`.
    pub y: Vec<f64>,
}

/// Result of an exact (or anytime) ILP solve.
#[derive(Debug, Clone, PartialEq)]
pub struct IlpResult {
    /// Envelope makespan of the returned assignment.
    pub makespan: Time,
    /// Executing machine per task, indexed by task id.
    pub assignment: Vec<MachineId>,
    /// `true` when the search completed and the result is proven optimal.
    pub proved: bool,
    /// Search nodes expanded.
    pub nodes: u64,
    /// Best proven lower bound on the optimum (combinatorial ∨ LP root).
    pub lower_bound: Time,
    /// The LP relaxation value, when the LP was solved.
    pub lp_bound: Option<f64>,
    /// `true` when the node budget ran out and the best incumbent was
    /// returned instead of a certified optimum.
    pub used_fallback: bool,
}

/// Result of the LP-rounding path (no branch and bound).
#[derive(Debug, Clone, PartialEq)]
pub struct RoundingResult {
    /// Envelope makespan of the rounded assignment.
    pub makespan: Time,
    /// Executing machine per task, indexed by task id.
    pub assignment: Vec<MachineId>,
    /// The LP relaxation value, when the LP was solved.
    pub lp_bound: Option<f64>,
    /// `false` when the instance was too large for the dense LP (or the
    /// LP failed) and a memory-aware greedy produced the assignment.
    pub used_lp: bool,
}

/// The replication-bound + memory-aware placement IP.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacementModel {
    envelopes: Vec<f64>,
    sizes: Vec<f64>,
    m: usize,
    budget: f64,
}

impl PlacementModel {
    /// Builds a model from raw envelope times and sizes. `budget` is the
    /// per-machine memory capacity `B`; `f64::INFINITY` disables the
    /// memory rows.
    ///
    /// # Errors
    /// [`IlpError::BadInput`] on mismatched lengths, `m == 0`, negative
    /// or non-finite entries, or a non-positive budget.
    pub fn new(envelopes: &[f64], sizes: &[f64], m: usize, budget: f64) -> Result<Self, IlpError> {
        if m == 0 {
            return Err(IlpError::BadInput("m must be >= 1"));
        }
        if envelopes.len() != sizes.len() {
            return Err(IlpError::BadInput("envelopes/sizes length mismatch"));
        }
        if envelopes.iter().any(|p| !p.is_finite() || *p < 0.0) {
            return Err(IlpError::BadInput("envelope times must be finite and >= 0"));
        }
        if sizes.iter().any(|s| !s.is_finite() || *s < 0.0) {
            return Err(IlpError::BadInput("sizes must be finite and >= 0"));
        }
        if budget.is_nan() || budget <= 0.0 {
            return Err(IlpError::BadInput("budget must be positive (or infinite)"));
        }
        Ok(PlacementModel {
            envelopes: envelopes.to_vec(),
            sizes: sizes.to_vec(),
            m,
            budget,
        })
    }

    /// Builds the model for an instance: envelopes `p̂_j = α·p̃_j`, sizes
    /// from the tasks, budget `B` (`None` = unconstrained).
    ///
    /// # Errors
    /// Propagates [`PlacementModel::new`] validation.
    pub fn from_instance(
        instance: &Instance,
        uncertainty: Uncertainty,
        budget: Option<Size>,
    ) -> Result<Self, IlpError> {
        let envelopes: Vec<f64> = instance
            .tasks()
            .iter()
            .map(|t| uncertainty.hi(t.estimate).get())
            .collect();
        let sizes: Vec<f64> = instance.tasks().iter().map(|t| t.size.get()).collect();
        Self::new(
            &envelopes,
            &sizes,
            instance.m(),
            budget.map_or(f64::INFINITY, |b| b.get()),
        )
    }

    /// Number of tasks.
    pub fn n(&self) -> usize {
        self.envelopes.len()
    }

    /// Number of machines.
    pub fn m(&self) -> usize {
        self.m
    }

    /// The per-machine memory budget `B`.
    pub fn budget(&self) -> f64 {
        self.budget
    }

    /// `true` when the memory rows are active (finite budget).
    pub fn bounded_memory(&self) -> bool {
        self.budget.is_finite()
    }

    /// Pigeonhole lower bound on the envelope makespan:
    /// `max(max_j p̂_j, Σ_j p̂_j / m)`.
    pub fn combinatorial_bound(&self) -> f64 {
        let total: f64 = self.envelopes.iter().sum();
        let max = self.envelopes.iter().fold(0.0f64, |a, &b| a.max(b));
        max.max(total / self.m as f64)
    }

    /// Envelope makespan of an assignment (`assign[j]` = machine of `j`).
    pub fn makespan_of(&self, assign: &[usize]) -> f64 {
        let mut loads = vec![0.0; self.m];
        for (j, &i) in assign.iter().enumerate() {
            loads[i] += self.envelopes[j];
        }
        loads.into_iter().fold(0.0, f64::max)
    }

    /// Per-machine memory occupation of an assignment.
    pub fn memory_of(&self, assign: &[usize]) -> Vec<f64> {
        let mut mems = vec![0.0; self.m];
        for (j, &i) in assign.iter().enumerate() {
            mems[i] += self.sizes[j];
        }
        mems
    }

    /// `true` when every machine's memory occupation is within budget
    /// (up to [`ILP_TOL`] relative tolerance).
    pub fn feasible(&self, assign: &[usize]) -> bool {
        assign.len() == self.n()
            && assign.iter().all(|&i| i < self.m)
            && self
                .memory_of(assign)
                .into_iter()
                .all(|mem| mem <= self.budget * (1.0 + ILP_TOL))
    }

    fn mem_slack(&self, mem: f64, size: f64) -> bool {
        mem + size <= self.budget * (1.0 + ILP_TOL)
    }

    /// Task indices in LPT (non-increasing envelope) order, ties by id.
    fn lpt_order(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.n()).collect();
        order.sort_by(|&a, &b| {
            self.envelopes[b]
                .total_cmp(&self.envelopes[a])
                .then(a.cmp(&b))
        });
        order
    }

    /// Builds and solves the LP relaxation. Returns `None` when the
    /// model exceeds [`LP_VAR_LIMIT`] variables or the simplex fails
    /// (pivot limit) — callers fall back to greedy heuristics.
    pub fn lp_relaxation(&self) -> Option<LpRelaxation> {
        let (n, m) = (self.n(), self.m);
        let nv = n * m + 1;
        if nv > LP_VAR_LIMIT {
            return None;
        }
        if n == 0 {
            return Some(LpRelaxation {
                bound: 0.0,
                y: Vec::new(),
            });
        }
        let mut lp = LpProblem::new(nv);
        let mut c = vec![0.0; nv];
        c[n * m] = 1.0;
        lp.set_objective(c);
        for j in 0..n {
            let mut row = vec![0.0; nv];
            for i in 0..m {
                row[j * m + i] = 1.0;
            }
            lp.add_row(row, Rel::Eq, 1.0);
        }
        for i in 0..m {
            let mut row = vec![0.0; nv];
            for j in 0..n {
                row[j * m + i] = self.envelopes[j];
            }
            row[n * m] = -1.0;
            lp.add_row(row, Rel::Le, 0.0);
        }
        if self.bounded_memory() {
            for i in 0..m {
                let mut row = vec![0.0; nv];
                for j in 0..n {
                    row[j * m + i] = self.sizes[j];
                }
                lp.add_row(row, Rel::Le, self.budget);
            }
        }
        // Generous pivot budget: Bland terminates, this is a backstop.
        let pivots = 200 * (nv + lp.rows());
        match lp.solve(pivots) {
            LpOutcome::Optimal(s) => Some(LpRelaxation {
                bound: s.objective.max(0.0),
                y: s.x[..n * m].to_vec(),
            }),
            _ => None,
        }
    }

    /// Memory-aware LPT greedy: tasks in envelope-LPT order, each to the
    /// least-loaded machine with memory slack (ties → smallest id).
    /// `None` when some task finds no machine with slack.
    pub fn greedy_lpt(&self) -> Option<Vec<usize>> {
        let mut assign = vec![0usize; self.n()];
        let mut loads = vec![0.0f64; self.m];
        let mut mems = vec![0.0; self.m];
        for j in self.lpt_order() {
            let pick = (0..self.m)
                .filter(|&i| self.mem_slack(mems[i], self.sizes[j]))
                .min_by(|&a, &b| loads[a].total_cmp(&loads[b]).then(a.cmp(&b)))?;
            assign[j] = pick;
            loads[pick] += self.envelopes[j];
            mems[pick] += self.sizes[j];
        }
        Some(assign)
    }

    /// Size-driven best-fit-decreasing: tasks in non-increasing size
    /// order, each to the machine with the most remaining memory (ties →
    /// smallest id). Maximizes the chance of memory feasibility when the
    /// budget is tight; load is ignored.
    pub fn greedy_bfd(&self) -> Option<Vec<usize>> {
        let mut order: Vec<usize> = (0..self.n()).collect();
        order.sort_by(|&a, &b| self.sizes[b].total_cmp(&self.sizes[a]).then(a.cmp(&b)));
        let mut assign = vec![0usize; self.n()];
        let mut mems = vec![0.0f64; self.m];
        for j in order {
            let pick = (0..self.m)
                .filter(|&i| self.mem_slack(mems[i], self.sizes[j]))
                .min_by(|&a, &b| mems[a].total_cmp(&mems[b]).then(a.cmp(&b)))?;
            assign[j] = pick;
            mems[pick] += self.sizes[j];
        }
        Some(assign)
    }

    /// Deterministically rounds a fractional LP point to an integral
    /// assignment with integrated repair: tasks in LPT order, each to the
    /// machine maximizing `y[j][i]` *among machines with memory slack*
    /// (ties → lower load, then smaller id), followed by a bounded local
    /// improvement pass that keeps memory feasibility. `None` when some
    /// task has no machine with slack.
    pub fn round(&self, y: &[f64]) -> Option<Vec<usize>> {
        let (n, m) = (self.n(), self.m);
        assert_eq!(y.len(), n * m, "fractional point has wrong shape");
        let mut assign = vec![0usize; n];
        let mut loads = vec![0.0f64; m];
        let mut mems = vec![0.0; m];
        for j in self.lpt_order() {
            let pick = (0..m)
                .filter(|&i| self.mem_slack(mems[i], self.sizes[j]))
                .max_by(|&a, &b| {
                    y[j * m + a]
                        .total_cmp(&y[j * m + b])
                        .then(loads[b].total_cmp(&loads[a]))
                        .then(b.cmp(&a))
                })?;
            assign[j] = pick;
            loads[pick] += self.envelopes[j];
            mems[pick] += self.sizes[j];
        }
        self.improve(&mut assign, &mut loads, &mut mems);
        Some(assign)
    }

    /// One-task relocations off the critical machine while they strictly
    /// reduce the envelope makespan and stay memory-feasible. Bounded by
    /// `2n` moves; fully deterministic.
    fn improve(&self, assign: &mut [usize], loads: &mut [f64], mems: &mut [f64]) {
        let order = self.lpt_order();
        for _ in 0..2 * self.n() {
            let src = (0..self.m)
                .max_by(|&a, &b| loads[a].total_cmp(&loads[b]).then(b.cmp(&a)))
                .expect("m >= 1");
            let cur = loads[src];
            let mut moved = false;
            for &j in &order {
                if assign[j] != src {
                    continue;
                }
                let p = self.envelopes[j];
                let dst = (0..self.m)
                    .filter(|&i| i != src && self.mem_slack(mems[i], self.sizes[j]))
                    .min_by(|&a, &b| loads[a].total_cmp(&loads[b]).then(a.cmp(&b)));
                if let Some(dst) = dst {
                    if loads[dst] + p < cur - ILP_TOL * cur.max(1.0) {
                        assign[j] = dst;
                        loads[src] -= p;
                        loads[dst] += p;
                        mems[src] -= self.sizes[j];
                        mems[dst] += self.sizes[j];
                        moved = true;
                        break;
                    }
                }
            }
            if !moved {
                break;
            }
        }
    }

    /// The LP-rounding path: solve the relaxation (if within the size
    /// limit), round with repair, fall back to the memory-aware greedy
    /// and then size-BFD when needed.
    ///
    /// # Errors
    /// [`IlpError::Infeasible`] when a task exceeds the budget on its
    /// own or every heuristic fails to pack within memory.
    pub fn solve_rounding(&self) -> Result<RoundingResult, IlpError> {
        self.check_fit()?;
        let lp = self.lp_relaxation();
        let lp_bound = lp.as_ref().map(|r| r.bound);
        if let Some(rel) = &lp {
            if let Some(assign) = self.round(&rel.y) {
                return Ok(self.rounding_result(assign, lp_bound, true));
            }
        }
        if let Some(assign) = self.greedy_lpt() {
            return Ok(self.rounding_result(assign, lp_bound, false));
        }
        if let Some(assign) = self.greedy_bfd() {
            return Ok(self.rounding_result(assign, lp_bound, false));
        }
        Err(IlpError::Infeasible)
    }

    fn rounding_result(
        &self,
        assign: Vec<usize>,
        lp_bound: Option<f64>,
        used_lp: bool,
    ) -> RoundingResult {
        debug_assert!(self.feasible(&assign));
        RoundingResult {
            makespan: Time::of(self.makespan_of(&assign)),
            assignment: assign.iter().map(|&i| MachineId::new(i)).collect(),
            lp_bound,
            used_lp,
        }
    }

    /// Every task must fit an empty machine on its own.
    fn check_fit(&self) -> Result<(), IlpError> {
        if self
            .sizes
            .iter()
            .any(|&s| s > self.budget * (1.0 + ILP_TOL))
        {
            return Err(IlpError::Infeasible);
        }
        Ok(())
    }

    /// Decides exactly whether the sizes pack into `m` machines of
    /// capacity `B·(1 + ILP_TOL)`: the `O(n·2ⁿ)` bin-packing DP over task
    /// subsets. Each subset keeps the lexicographically least (machines
    /// opened, fill of the open machine) over all packing orders; a
    /// state that would open more than `m` machines, or whose unplaced
    /// sizes exceed the capacity it has left, is dropped. The sizes pack
    /// iff the full set is reached.
    ///
    /// The capacity is widened by a relative 1e-12 and the volume cut by
    /// `ILP_TOL·m·B`: the search and [`Self::feasible`] sum the same
    /// sizes in other orders, and this margin keeps every float
    /// difference on the permissive side, so a budget they accept is
    /// never called infeasible. Callers run [`Self::check_fit`] first
    /// and keep `n ≤ dp::MAX_TASKS`.
    fn sizes_pack(&self) -> bool {
        let (n, m) = (self.n(), self.m);
        if n <= m {
            return true; // one task per machine; each fits on its own
        }
        let cap = self.budget * (1.0 + ILP_TOL) * (1.0 + 1e-12);
        let vol_slack = ILP_TOL * m as f64 * self.budget;
        let total: f64 = self.sizes.iter().sum();
        let full = (1usize << n) - 1;
        // opened[set] == 0: not reached (or dropped); m < n ≤ 18 fits u8.
        let mut opened = vec![0u8; full + 1];
        let mut fill = vec![0.0f64; full + 1];
        opened[0] = 1;
        for set in 0..full {
            let k = opened[set];
            if k == 0 {
                continue;
            }
            let f = fill[set];
            let placed: f64 = bits(set).map(|j| self.sizes[j]).sum();
            let left = (m - k as usize) as f64 * cap + (cap - f);
            if total - placed > left + vol_slack {
                continue;
            }
            for j in bits(full & !set) {
                let s = self.sizes[j];
                let (k2, f2) = if f + s <= cap {
                    (k, f + s)
                } else if (k as usize) < m {
                    (k + 1, s)
                } else {
                    continue;
                };
                let next = set | 1 << j;
                let k0 = opened[next];
                if k0 == 0 || k2 < k0 || (k2 == k0 && f2 < fill[next]) {
                    opened[next] = k2;
                    fill[next] = f2;
                }
            }
        }
        opened[full] != 0
    }

    /// Solves the IP exactly by branch and bound (within `node_limit`
    /// search nodes); anytime — on budget exhaustion the best incumbent
    /// is returned with `proved = false` and `used_fallback = true`.
    ///
    /// # Errors
    /// [`IlpError::Infeasible`] when no placement can meet the budget,
    /// proven by the packing test on the sizes or by an exhausted search;
    /// [`IlpError::ResourceLimit`] when the budget ran out with no
    /// incumbent at all.
    pub fn solve(&self, node_limit: u64) -> Result<IlpResult, IlpError> {
        let n = self.n();
        if n == 0 {
            return Ok(IlpResult {
                makespan: Time::ZERO,
                assignment: Vec::new(),
                proved: true,
                nodes: 0,
                lower_bound: Time::ZERO,
                lp_bound: None,
                used_fallback: false,
            });
        }
        self.check_fit()?;
        let lb_comb = self.combinatorial_bound();
        let lp = self.lp_relaxation();
        let lp_bound = lp.as_ref().map(|r| r.bound);
        // LP numerics can overshoot the true optimum by rounding error;
        // shave a relative epsilon before using it as a certificate.
        let lb = lp_bound
            .map(|b| b * (1.0 - 1e-9))
            .unwrap_or(0.0)
            .max(lb_comb);

        // Incumbents: LP rounding, memory-aware LPT, size-BFD.
        let mut best: Option<Vec<usize>> = None;
        let mut best_mk = f64::INFINITY;
        let consider =
            |assign: Option<Vec<usize>>, best: &mut Option<Vec<usize>>, best_mk: &mut f64| {
                if let Some(a) = assign {
                    let mk = self.makespan_of(&a);
                    if mk < *best_mk {
                        *best_mk = mk;
                        *best = Some(a);
                    }
                }
            };
        if let Some(rel) = &lp {
            consider(self.round(&rel.y), &mut best, &mut best_mk);
        }
        consider(self.greedy_lpt(), &mut best, &mut best_mk);
        consider(self.greedy_bfd(), &mut best, &mut best_mk);
        // No incumbent fits: prove the budget infeasible exactly, rather
        // than by exhausting the search tree.
        if best.is_none() && n <= dp::MAX_TASKS && !self.sizes_pack() {
            return Err(IlpError::Infeasible);
        }

        // Short-circuit: incumbent already meets the lower bound.
        if let Some(a) = &best {
            if best_mk <= lb * (1.0 + 1e-12) + 1e-300 {
                return Ok(self.ilp_result(a.clone(), best_mk, true, 0, lb, lp_bound, false));
            }
        }

        let order = self.lpt_order();
        // Suffix sizes: rem_size[d] = Σ sizes of order[d..].
        let mut rem_size = vec![0.0; n + 1];
        for d in (0..n).rev() {
            rem_size[d] = rem_size[d + 1] + self.sizes[order[d]];
        }
        let mut search = IlpSearch {
            model: self,
            order: &order,
            rem_size: &rem_size,
            node_limit,
            nodes: 0,
            best: best_mk * (1.0 + 1e-12) + 1e-300,
            best_assign: best.clone().unwrap_or_default(),
            current: vec![0usize; n],
            tried: vec![(0.0, 0.0); n * self.m],
            loads: vec![0.0; self.m],
            mems: vec![0.0; self.m],
            slack: if self.bounded_memory() {
                self.m as f64 * self.budget * (1.0 + ILP_TOL)
            } else {
                f64::INFINITY
            },
            slack_tol: ILP_TOL * (self.m as f64 * self.budget).max(1.0),
            lb,
            exhausted: false,
        };
        search.dfs(0, 0.0);
        let (nodes, exhausted) = (search.nodes, search.exhausted);
        let found = !search.best_assign.is_empty() || best.is_some();
        if !found {
            return if exhausted {
                Err(IlpError::ResourceLimit)
            } else {
                Err(IlpError::Infeasible)
            };
        }
        let (assign, mk) = if search.best_assign.is_empty() {
            let a = best.unwrap();
            let mk = self.makespan_of(&a);
            (a, mk)
        } else {
            let a = search.best_assign;
            let mk = self.makespan_of(&a);
            (a, mk)
        };
        Ok(self.ilp_result(assign, mk, !exhausted, nodes, lb, lp_bound, exhausted))
    }

    #[allow(clippy::too_many_arguments)]
    fn ilp_result(
        &self,
        assign: Vec<usize>,
        mk: f64,
        proved: bool,
        nodes: u64,
        lb: f64,
        lp_bound: Option<f64>,
        used_fallback: bool,
    ) -> IlpResult {
        debug_assert!(self.feasible(&assign));
        IlpResult {
            makespan: Time::of(mk),
            assignment: assign.iter().map(|&i| MachineId::new(i)).collect(),
            proved,
            nodes,
            lower_bound: Time::of(lb),
            lp_bound,
            used_fallback,
        }
    }
}

/// The indices of the set bits of `set`, in increasing order.
fn bits(mut set: usize) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (set != 0).then(|| {
            let j = set.trailing_zeros() as usize;
            set &= set - 1;
            j
        })
    })
}

struct IlpSearch<'a> {
    model: &'a PlacementModel,
    order: &'a [usize],  // task ids in LPT envelope order
    rem_size: &'a [f64], // suffix sums of sizes along `order`
    node_limit: u64,
    nodes: u64,
    best: f64,
    best_assign: Vec<usize>, // machine per task id (not per position)
    current: Vec<usize>,
    tried: Vec<(f64, f64)>, // (load, mem) states tried, one m-slice per depth
    loads: Vec<f64>,
    mems: Vec<f64>,
    slack: f64,     // total remaining memory capacity Σ_i (B·(1 + ILP_TOL) − mem_i)
    slack_tol: f64, // absolute float margin of the suffix cut
    lb: f64,
    exhausted: bool,
}

impl IlpSearch<'_> {
    fn dfs(&mut self, depth: usize, cur_max: f64) {
        if self.nodes >= self.node_limit {
            self.exhausted = true;
            return;
        }
        self.nodes += 1;
        if cur_max >= self.best || cur_max.max(self.lb) >= self.best {
            return;
        }
        if depth == self.order.len() {
            self.best = cur_max;
            self.best_assign.clone_from(&self.current);
            return;
        }
        let j = self.order[depth];
        let p = self.model.envelopes[j];
        let s = self.model.sizes[j];
        let m = self.model.m;
        let bounded = self.model.bounded_memory();
        let base = depth * m;
        let mut ntried = 0;
        for k in 0..m {
            let (load, mem) = (self.loads[k], self.mems[k]);
            // Symmetry: machines with identical (load, memory) state are
            // interchangeable; try only the first.
            if self.tried[base..base + ntried]
                .iter()
                .any(|&(l, q)| (l - load).abs() < 1e-15 && (q - mem).abs() < 1e-15)
            {
                continue;
            }
            self.tried[base + ntried] = (load, mem);
            ntried += 1;
            if bounded && !self.model.mem_slack(mem, s) {
                continue;
            }
            let new_load = load + p;
            if new_load >= self.best {
                continue;
            }
            // Suffix memory cut: the rest must still fit the remaining
            // total capacity (a fixed margin: one relative to the
            // shrinking slack would cut feasible tails).
            if bounded && self.rem_size[depth + 1] > self.slack - s + self.slack_tol {
                continue;
            }
            self.loads[k] = new_load;
            self.mems[k] = mem + s;
            self.slack -= s;
            self.current[j] = k;
            self.dfs(depth + 1, cur_max.max(new_load));
            self.loads[k] = load;
            self.mems[k] = mem;
            self.slack += s;
            if self.exhausted {
                return;
            }
            // Empty-machine dominance (memory-free models only): if the
            // task fit an empty machine without raising the maximum, no
            // other machine can do better.
            if !bounded && load == 0.0 && new_load <= cur_max {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimal::{Certainty, OptimalSolver};

    fn model(env: &[f64], sizes: &[f64], m: usize, b: f64) -> PlacementModel {
        PlacementModel::new(env, sizes, m, b).unwrap()
    }

    #[test]
    fn validates_input() {
        assert!(matches!(
            PlacementModel::new(&[1.0], &[1.0, 2.0], 2, 10.0),
            Err(IlpError::BadInput(_))
        ));
        assert!(matches!(
            PlacementModel::new(&[1.0], &[1.0], 0, 10.0),
            Err(IlpError::BadInput(_))
        ));
        assert!(matches!(
            PlacementModel::new(&[f64::NAN], &[1.0], 2, 10.0),
            Err(IlpError::BadInput(_))
        ));
        assert!(matches!(
            PlacementModel::new(&[1.0], &[1.0], 2, 0.0),
            Err(IlpError::BadInput(_))
        ));
    }

    #[test]
    fn unconstrained_matches_exact_pcmax() {
        // With B = ∞ the IP is P || C_max on envelopes; differential
        // check against the certified optimal solver.
        let mut seed = 99u64;
        let mut next = move || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((seed >> 33) % 40) as f64 + 1.0
        };
        for trial in 0..20 {
            let n = 4 + trial % 5;
            let m = 2 + trial % 3;
            let env: Vec<f64> = (0..n).map(|_| next()).collect();
            let sizes = vec![1.0; n];
            let md = model(&env, &sizes, m, f64::INFINITY);
            let r = md.solve(5_000_000).unwrap();
            assert!(r.proved, "trial {trial} not proved");
            let times: Vec<Time> = env.iter().map(|&v| Time::of(v)).collect();
            let opt = OptimalSolver::default().solve(&times, m);
            assert_eq!(opt.certainty, Certainty::Exact);
            assert!(
                (r.makespan.get() - opt.lo.get()).abs() < 1e-9,
                "trial {trial}: ilp {} opt {}",
                r.makespan,
                opt.lo
            );
            assert!(r.makespan.get() >= r.lower_bound.get() - 1e-9);
        }
    }

    #[test]
    fn memory_budget_forces_spread() {
        // Two heavy-memory tasks cannot share a machine under B = 10:
        // the load-optimal co-location is forbidden.
        let md = model(&[4.0, 4.0, 1.0, 1.0], &[8.0, 8.0, 1.0, 1.0], 2, 10.0);
        let r = md.solve(1_000_000).unwrap();
        assert!(r.proved);
        let a: Vec<usize> = r.assignment.iter().map(|id| id.index()).collect();
        assert_ne!(a[0], a[1], "heavy tasks must split");
        assert!(md.feasible(&a));
        // Optimal split: {4, 1}, {4, 1} → makespan 5.
        assert!((r.makespan.get() - 5.0).abs() < 1e-9, "{}", r.makespan);
    }

    #[test]
    fn lp_bound_sandwiches_optimum() {
        let md = model(
            &[7.0, 5.0, 4.0, 3.0, 2.0, 2.0],
            &[3.0, 2.0, 5.0, 1.0, 4.0, 2.0],
            3,
            8.0,
        );
        let lp = md.lp_relaxation().expect("small LP solves");
        let r = md.solve(1_000_000).unwrap();
        assert!(r.proved);
        assert!(
            lp.bound <= r.makespan.get() + 1e-9,
            "lp {} > ip {}",
            lp.bound,
            r.makespan
        );
        assert!(lp.bound >= md.combinatorial_bound() - 1e-9);
    }

    #[test]
    fn proves_infeasible_when_memory_cannot_fit() {
        // Three size-6 tasks, two machines, B = 10: any machine holding
        // two of them needs 12 > 10.
        let md = model(&[1.0, 1.0, 1.0], &[6.0, 6.0, 6.0], 2, 10.0);
        assert_eq!(md.solve(1_000_000).unwrap_err(), IlpError::Infeasible);
        // A single oversized task is rejected before the search.
        let md = model(&[1.0], &[11.0], 2, 10.0);
        assert_eq!(md.solve(10).unwrap_err(), IlpError::Infeasible);
        assert_eq!(md.solve_rounding().unwrap_err(), IlpError::Infeasible);
    }

    #[test]
    fn suffix_cut_keeps_packings_that_fill_the_tolerance() {
        // {6, 6, 6} / {4, 4, 4, 1, 5} puts 18 on each machine, within
        // B·(1 + ILP_TOL) of B = 18·(1 − 1e-10). A suffix cut against
        // m·B, or with a margin that shrinks with the slack, prunes it.
        let env = [
            1.4609292806245175,
            3.638794090332568,
            3.6186228531870874,
            7.196366334564255,
            3.2598423256126337,
            5.6177729879065454,
            1.2499915183191295,
            8.92963336778433,
        ];
        let sizes = [6., 4., 6., 6., 4., 4., 1., 5.];
        let md = model(&env, &sizes, 2, 18.0 * (1.0 - 1e-10));
        assert!(md.feasible(&[0, 1, 0, 0, 1, 1, 1, 1]));
        let r = md.solve(10_000_000).expect("a feasible split exists");
        assert!(r.proved);
        let a: Vec<usize> = r.assignment.iter().map(|id| id.index()).collect();
        assert!(md.feasible(&a));
    }

    #[test]
    fn packing_test_agrees_with_the_exact_memory_optimum() {
        // The least Mem_max any placement reaches is P || C_max on the
        // sizes: the packing test accepts a budget at that optimum and
        // rejects one below it (when every task still fits on its own).
        let mut seed = 7u64;
        let mut next = move || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((seed >> 33) % 700) as f64 / 100.0 + 1.0
        };
        for trial in 0..40 {
            let n = 5 + trial % 7;
            let m = 2 + trial % 4;
            let sizes: Vec<f64> = (0..n).map(|_| next()).collect();
            let times: Vec<Time> = sizes.iter().map(|&s| Time::of(s)).collect();
            let opt = OptimalSolver::default().solve(&times, m);
            assert_eq!(opt.certainty, Certainty::Exact);
            let env = vec![1.0; n];
            let at = model(&env, &sizes, m, opt.lo.get());
            assert!(
                at.sizes_pack(),
                "trial {trial}: optimum {} rejected",
                opt.lo
            );
            let below = model(&env, &sizes, m, opt.lo.get() * (1.0 - 1e-6));
            if below.check_fit().is_ok() {
                assert!(
                    !below.sizes_pack(),
                    "trial {trial}: below {} accepted",
                    opt.lo
                );
                assert_eq!(below.solve(1).unwrap_err(), IlpError::Infeasible);
            }
        }
    }

    #[test]
    fn node_budget_is_anytime() {
        let env: Vec<f64> = (1..=16).map(|i| ((i * 7919) % 53 + 5) as f64).collect();
        let sizes: Vec<f64> = (1..=16).map(|i| ((i * 104729) % 9 + 1) as f64).collect();
        let md = model(&env, &sizes, 4, 30.0);
        let r = md.solve(3).unwrap();
        assert!(!r.proved);
        assert!(r.used_fallback);
        let a: Vec<usize> = r.assignment.iter().map(|id| id.index()).collect();
        assert!(md.feasible(&a));
        assert!(r.makespan.get() >= r.lower_bound.get() - 1e-9);
    }

    #[test]
    fn rounding_is_feasible_and_deterministic() {
        let env: Vec<f64> = (1..=12).map(|i| ((i * 31) % 17 + 2) as f64).collect();
        let sizes: Vec<f64> = (1..=12).map(|i| ((i * 13) % 7 + 1) as f64).collect();
        let md = model(&env, &sizes, 3, 20.0);
        let r1 = md.solve_rounding().unwrap();
        let r2 = md.solve_rounding().unwrap();
        assert_eq!(r1, r2);
        assert!(r1.used_lp);
        let a: Vec<usize> = r1.assignment.iter().map(|id| id.index()).collect();
        assert!(md.feasible(&a));
        // Rounding can never beat the exact optimum.
        let exact = md.solve(5_000_000).unwrap();
        assert!(exact.proved);
        assert!(r1.makespan.get() >= exact.makespan.get() - 1e-9);
    }

    #[test]
    fn oversized_lp_falls_back_to_greedy() {
        // n·m + 1 > LP_VAR_LIMIT: rounding path must skip the LP.
        let n = 1200;
        let env = vec![1.0; n];
        let sizes = vec![1.0; n];
        let md = model(&env, &sizes, 4, 400.0);
        let r = md.solve_rounding().unwrap();
        assert!(!r.used_lp);
        assert!(r.lp_bound.is_none());
        let a: Vec<usize> = r.assignment.iter().map(|id| id.index()).collect();
        assert!(md.feasible(&a));
        assert!((r.makespan.get() - 300.0).abs() < 1e-9);
    }

    #[test]
    fn from_instance_applies_envelope() {
        let inst = Instance::from_estimates_and_sizes(&[(2.0, 1.0), (4.0, 3.0)], 2).unwrap();
        let md = PlacementModel::from_instance(&inst, Uncertainty::of(1.5), Some(Size::of(10.0)))
            .unwrap();
        assert_eq!(md.envelopes, vec![3.0, 6.0]);
        assert_eq!(md.sizes, vec![1.0, 3.0]);
        assert_eq!(md.budget(), 10.0);
    }

    #[test]
    fn empty_model_is_trivial() {
        let md = model(&[], &[], 3, 5.0);
        let r = md.solve(10).unwrap();
        assert!(r.proved);
        assert_eq!(r.makespan, Time::ZERO);
    }
}

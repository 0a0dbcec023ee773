//! Golden fault reports: a fixed, seeded grid of resilience runs whose
//! complete reports — outcome, executed slots, trace events, and
//! metrics, every float by its bit pattern — are pinned to digests.
//!
//! The grid crosses every placement shape (pinned, chained, span
//! groups, arbitrary masks, everywhere), every dispatcher flavor
//! (`OrderedDispatcher::new`, `OrderedDispatcher::auto`,
//! `PinnedDispatcher`), speculation off and on at two patience levels,
//! and fault scripts that mix every `FaultEvent` kind. Integer-valued
//! estimates and dyadic realization factors make fault instants land on
//! completion instants, so the kind-ordered tie-breaks (fault →
//! recovery → completion → speculation check) are exercised, not just
//! documented. One case is large enough (n = 4096, m = 16) for the
//! engine to arm the calendar queue.
//!
//! A digest mismatch means some report changed by even one bit. The
//! constants are the engine's reference behavior; they must not be
//! re-recorded to absorb a change that was meant to be
//! behavior-preserving.

use rds_core::{
    Instance, MachineId, MachineMask, MachineSet, Placement, Realization, TaskId, Time, Uncertainty,
};
use rds_sim::faults::{
    FaultEvent, FaultScript, Outcome, ResilienceEngine, ResilienceReport, Speculation,
};
use rds_sim::{Dispatcher, OrderedDispatcher, PinnedDispatcher, SimArena};

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn time(&mut self, t: Time) {
        self.word(t.get().to_bits());
    }

    fn bytes(&mut self, s: &str) {
        self.word(s.len() as u64);
        for b in s.bytes() {
            self.word(u64::from(b));
        }
    }
}

/// Digest of everything a report carries, floats by bit pattern.
fn digest(rep: &ResilienceReport) -> u64 {
    let mut h = Fnv::new();
    match &rep.outcome {
        Outcome::Completed => h.word(0),
        Outcome::Partial { unfinished } => {
            h.word(1);
            h.word(unfinished.len() as u64);
            for t in unfinished {
                h.word(t.index() as u64);
            }
        }
    }
    for slots in rep.schedule.all_slots() {
        h.word(slots.len() as u64);
        for s in slots {
            h.word(s.task.index() as u64);
            h.time(s.start);
            h.time(s.end);
        }
    }
    // `{:?}` prints each f64 in its shortest round-trip form, so the
    // text pins every timestamp and speed bit-exactly.
    h.word(rep.trace.len() as u64);
    for ev in rep.trace.iter() {
        h.bytes(&format!("{ev:?}"));
    }
    let m = &rep.metrics;
    for count in [
        m.n,
        m.completed,
        m.restarts,
        m.rejoins,
        m.degraded_phases,
        m.speculative_started,
        m.speculative_wins,
        m.cancelled,
    ] {
        h.word(count as u64);
    }
    h.time(m.wasted_work);
    h.word(m.recovery_cost.to_bits());
    h.time(m.makespan);
    h.word(
        m.fault_free_makespan
            .map_or(u64::MAX, |t| t.get().to_bits()),
    );
    h.0
}

/// Deterministic generator for the grid (64-bit LCG, high bits out).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.0 >> 33
    }

    fn below(&mut self, k: u64) -> u64 {
        self.next() % k
    }
}

#[derive(Debug, Clone, Copy)]
enum Shape {
    Pinned,
    Chained,
    SpanGroups,
    Mask,
    Everywhere,
}

const SHAPES: [Shape; 5] = [
    Shape::Pinned,
    Shape::Chained,
    Shape::SpanGroups,
    Shape::Mask,
    Shape::Everywhere,
];

#[derive(Debug, Clone, Copy)]
enum Pick {
    New,
    Auto,
    Pinned,
}

const PICKS: [Pick; 3] = [Pick::New, Pick::Auto, Pick::Pinned];

fn placement(inst: &Instance, shape: Shape, g: &mut Lcg) -> Placement {
    let (n, m) = (inst.n(), inst.m());
    let sets: Vec<MachineSet> = match shape {
        Shape::Pinned => (0..n)
            .map(|_| MachineSet::One(MachineId::new(g.below(m as u64) as usize)))
            .collect(),
        Shape::Chained => (0..n)
            .map(|j| {
                // Two consecutive replicas, wrapping: the wrap rows are
                // genuine (non-contiguous) masks.
                let mut mask = MachineMask::empty(m);
                mask.insert(MachineId::new(j % m));
                mask.insert(MachineId::new((j + 1) % m));
                MachineSet::from_mask(m, mask)
            })
            .collect(),
        Shape::SpanGroups => {
            let size = 2 + (m % 2);
            let groups = m.div_ceil(size);
            (0..n)
                .map(|_| {
                    let k = g.below(groups as u64) as usize;
                    MachineSet::Span {
                        start: (k * size) as u32,
                        end: ((k + 1) * size).min(m) as u32,
                    }
                })
                .collect()
        }
        Shape::Mask => (0..n)
            .map(|_| {
                let mut mask = MachineMask::empty(m);
                let k = 1 + g.below(m as u64 - 1) as usize;
                while mask.count() < k {
                    mask.insert(MachineId::new(g.below(m as u64) as usize));
                }
                MachineSet::from_mask(m, mask)
            })
            .collect(),
        Shape::Everywhere => vec![MachineSet::All; n],
    };
    Placement::new(inst, sets).unwrap()
}

/// One machine of each task's replica set, so `PinnedDispatcher` is
/// feasible for the placement.
fn pins(p: &Placement, g: &mut Lcg) -> Vec<MachineId> {
    let m = p.m();
    (0..p.n())
        .map(|j| {
            let set = p.set(TaskId::new(j));
            let pick = g.below(set.count(m) as u64) as usize;
            set.iter(m).nth(pick).unwrap()
        })
        .collect()
}

fn shuffled(n: usize, g: &mut Lcg) -> Vec<TaskId> {
    let mut order: Vec<TaskId> = (0..n).map(TaskId::new).collect();
    for i in (1..n).rev() {
        order.swap(i, g.below(i as u64 + 1) as usize);
    }
    order
}

/// A script mixing every fault kind at half-integer instants (which
/// coincide with completion instants of the dyadic realizations):
/// crashes, outages (one zero-length), a crash during an outage,
/// slowdowns, and stragglers.
fn script(n: usize, m: usize, horizon: u64, g: &mut Lcg) -> FaultScript {
    let at = |g: &mut Lcg| Time::of(g.below(2 * horizon) as f64 / 2.0);
    let machine = |g: &mut Lcg| MachineId::new(g.below(m as u64) as usize);
    let mut events = vec![
        FaultEvent::Crash {
            machine: machine(g),
            at: at(g),
        },
        FaultEvent::Outage {
            machine: machine(g),
            at: at(g),
            down_for: Time::ZERO,
        },
        FaultEvent::Straggler {
            task: TaskId::new(g.below(n as u64) as usize),
            factor: [1.5, 3.0, 0.5][g.below(3) as usize],
        },
    ];
    // An outage with a crash of the same machine inside its window.
    let (victim, start) = (machine(g), at(g));
    events.push(FaultEvent::Outage {
        machine: victim,
        at: start,
        down_for: Time::of(2.0 + g.below(4) as f64),
    });
    events.push(FaultEvent::Crash {
        machine: victim,
        at: start + Time::of(1.0),
    });
    for _ in 0..1 + g.below(4) {
        events.push(match g.below(4) {
            0 => FaultEvent::Outage {
                machine: machine(g),
                at: at(g),
                down_for: Time::of(g.below(8) as f64 / 2.0),
            },
            1 => FaultEvent::Slowdown {
                machine: machine(g),
                at: at(g),
                lasting: Time::of(1.0 + g.below(6) as f64 / 2.0),
                speed: [0.25, 0.5, 2.0][g.below(3) as usize],
            },
            2 => FaultEvent::Straggler {
                task: TaskId::new(g.below(n as u64) as usize),
                factor: 2.0,
            },
            _ => FaultEvent::Crash {
                machine: machine(g),
                at: at(g),
            },
        });
    }
    FaultScript::new(events)
}

fn run(
    engine: ResilienceEngine<'_>,
    spec: Option<Speculation>,
    d: &mut dyn Dispatcher,
) -> ResilienceReport {
    let engine = match spec {
        Some(s) => engine.with_speculation(s),
        None => engine,
    };
    engine.run(d).unwrap()
}

/// Digests of the seeded grid, in `seed → shape → dispatcher →
/// speculation` order.
fn grid_digests() -> Vec<u64> {
    let unc = Uncertainty::of(2.0);
    let mut out = Vec::new();
    for seed in [3u64, 11, 29] {
        let mut g = Lcg(seed);
        let m = 3 + g.below(4) as usize;
        let n = 8 + g.below(20) as usize;
        let est: Vec<f64> = (0..n).map(|_| 1.0 + g.below(4) as f64).collect();
        let inst = Instance::from_estimates(&est, m).unwrap();
        let factors: Vec<f64> = (0..n)
            .map(|_| [0.5, 1.0, 2.0][g.below(3) as usize])
            .collect();
        let real = Realization::from_factors(&inst, unc, &factors).unwrap();
        let horizon = (inst.total_estimate().get() / m as f64).ceil() as u64 + 2;
        for shape in SHAPES {
            let p = placement(&inst, shape, &mut g);
            let faults = script(n, m, horizon, &mut g);
            let order = shuffled(n, &mut g);
            let pinned = pins(&p, &mut g);
            let costs: Vec<f64> = (0..m).map(|i| 0.5 + i as f64 * 0.75).collect();
            for pick in PICKS {
                for beta in [None, Some(1.0), Some(1.5)] {
                    let mut engine = ResilienceEngine::new(&inst, &p, &real, &faults).unwrap();
                    if seed != 3 {
                        engine = engine.with_recovery_costs(costs.clone()).unwrap();
                    }
                    // Patience over the certain envelope: realizations at twice
                    // their estimate outrun it, so backups really launch.
                    let spec = beta.map(|b| Speculation::new(b, Uncertainty::CERTAIN));
                    let rep = match pick {
                        Pick::New => run(engine, spec, &mut OrderedDispatcher::new(order.clone())),
                        Pick::Auto => run(
                            engine,
                            spec,
                            &mut OrderedDispatcher::auto(order.clone(), &p),
                        ),
                        Pick::Pinned => run(engine, spec, &mut PinnedDispatcher::new(&pinned, m)),
                    };
                    out.push(digest(&rep));
                }
            }
        }
    }
    out
}

const GRID: [u64; 135] = [
    0xf42346f3c1334d1e,
    0xd2d325fba8214288,
    0xa5bcec949998cc4e,
    0xf42346f3c1334d1e,
    0xd2d325fba8214288,
    0xa5bcec949998cc4e,
    0x9b05a86304be045f,
    0x25c49b147130d197,
    0x32415aaa178e20d8,
    0x06696f774c1582c8,
    0x3d0dd61bf8d54662,
    0xfd2127faf1283199,
    0x06696f774c1582c8,
    0x3d0dd61bf8d54662,
    0xfd2127faf1283199,
    0x8326f138465a614b,
    0x75cf4b4337ffc89f,
    0x1535d6e2a0ae8d2f,
    0x6a004c21f17a6180,
    0x064c7f2a17061cc1,
    0x14dfd65e519a1ecf,
    0x6a004c21f17a6180,
    0x064c7f2a17061cc1,
    0x14dfd65e519a1ecf,
    0x6a89d45c021a0b50,
    0x306035482b45690a,
    0x36ce9f7802939af1,
    0xcf86a7239fe05eaf,
    0x929bc7056fa01312,
    0xe7b90f817dc5927b,
    0xcf86a7239fe05eaf,
    0x929bc7056fa01312,
    0xe7b90f817dc5927b,
    0x45772698d6fde900,
    0xa22f31c6552a16ae,
    0xe4c4f4e43c4cddce,
    0xe8581890fd7c8cd9,
    0xf676ea72d85a88de,
    0x06adce5ebf79d73d,
    0xe8581890fd7c8cd9,
    0xf676ea72d85a88de,
    0x06adce5ebf79d73d,
    0x05b2badd8955cfb1,
    0xead880aa6ec3f268,
    0x6b4995ea83553414,
    0x1dd12f01d75527e7,
    0x1dd12f01d75527e7,
    0x1dd12f01d75527e7,
    0x1dd12f01d75527e7,
    0x1dd12f01d75527e7,
    0x1dd12f01d75527e7,
    0xb730f8704b92bba6,
    0x938362122460ee91,
    0x77eadbe97fd5cdbf,
    0x5351d91090c71183,
    0x5351d91090c71183,
    0x5351d91090c71183,
    0x5351d91090c71183,
    0x5351d91090c71183,
    0x5351d91090c71183,
    0xa1c0d6741cb57227,
    0xa1c0d6741cb57227,
    0xa1c0d6741cb57227,
    0x3283b9b83d632058,
    0x3283b9b83d632058,
    0x3283b9b83d632058,
    0x3283b9b83d632058,
    0x3283b9b83d632058,
    0x3283b9b83d632058,
    0xdb61f81aa419839b,
    0xdb61f81aa419839b,
    0xdb61f81aa419839b,
    0xe691b3cff3a8a7f2,
    0xe691b3cff3a8a7f2,
    0xe691b3cff3a8a7f2,
    0xe691b3cff3a8a7f2,
    0xe691b3cff3a8a7f2,
    0xe691b3cff3a8a7f2,
    0x4f23064218b36119,
    0x4f23064218b36119,
    0x4f23064218b36119,
    0x3665288553111d22,
    0x3f7892e08018488b,
    0xa50521bc717d9b3d,
    0x3665288553111d22,
    0x3f7892e08018488b,
    0xa50521bc717d9b3d,
    0x9558669c055eff48,
    0x4ea57283a5b01286,
    0xde541dc05897e137,
    0xe8853cdeae18ab5d,
    0xe8853cdeae18ab5d,
    0xe8853cdeae18ab5d,
    0xe8853cdeae18ab5d,
    0xe8853cdeae18ab5d,
    0xe8853cdeae18ab5d,
    0x9d255e396ecc8adc,
    0x9d255e396ecc8adc,
    0x9d255e396ecc8adc,
    0x6c7721ce88b06a88,
    0x7d04912e18574af1,
    0xd889b3ab1c6f52ff,
    0x6c7721ce88b06a88,
    0x7d04912e18574af1,
    0xd889b3ab1c6f52ff,
    0xbdc666c95c0fc678,
    0x04017b2cc9463c1a,
    0xe6ab7497a8403d4b,
    0x3f5f0a8fe5542e1d,
    0x3f5f0a8fe5542e1d,
    0x3f5f0a8fe5542e1d,
    0x3f5f0a8fe5542e1d,
    0x3f5f0a8fe5542e1d,
    0x3f5f0a8fe5542e1d,
    0x193983e8043b333d,
    0x4b00303067841a07,
    0x193983e8043b333d,
    0x52394dd5009e609e,
    0x52394dd5009e609e,
    0x52394dd5009e609e,
    0x52394dd5009e609e,
    0x52394dd5009e609e,
    0x52394dd5009e609e,
    0xf5c93d53c533f423,
    0x57cd6c990df711cb,
    0x48fb653f0aad8e23,
    0xf14270e3dc934de2,
    0xf14270e3dc934de2,
    0xf14270e3dc934de2,
    0xf14270e3dc934de2,
    0xf14270e3dc934de2,
    0xf14270e3dc934de2,
    0x01d1f789f85db7fd,
    0x01d1f789f85db7fd,
    0x01d1f789f85db7fd,
];

#[test]
fn seeded_grid_reports_are_bit_identical() {
    let got = grid_digests();
    assert_eq!(got.len(), GRID.len());
    let mut bad = Vec::new();
    for (i, (g, want)) in got.iter().zip(GRID.iter()).enumerate() {
        if g != want {
            bad.push(i);
        }
    }
    assert!(
        bad.is_empty(),
        "cases {bad:?} changed; digests now {got:#x?}"
    );
}

/// Hand-built tie cases on one and two machines, each pinned exactly.
fn edge_digests() -> Vec<u64> {
    let mut out = Vec::new();
    // A slowdown ending exactly at the completion it stretched: 1 unit
    // at full speed, then 1 unit at half speed ends at 3.0 — the same
    // instant the speed restores (recovery orders before completion).
    let inst = Instance::from_estimates(&[2.0], 1).unwrap();
    let p = Placement::everywhere(&inst);
    let r = Realization::exact(&inst);
    let s = FaultScript::new(vec![FaultEvent::Slowdown {
        machine: MachineId::new(0),
        at: Time::of(1.0),
        lasting: Time::of(2.0),
        speed: 0.5,
    }]);
    let rep = ResilienceEngine::new(&inst, &p, &r, &s)
        .unwrap()
        .run(&mut OrderedDispatcher::fifo(&inst))
        .unwrap();
    assert_eq!(rep.metrics.makespan, Time::of(3.0));
    out.push(digest(&rep));
    // Crash at a completion instant, zero-length outage at another, a
    // speculation check due at a completion instant (β·α·p̃ = 2.0).
    let inst = Instance::from_estimates(&[2.0, 1.0, 1.0, 2.0], 2).unwrap();
    let p = Placement::everywhere(&inst);
    let r = Realization::exact(&inst);
    let s = FaultScript::new(vec![
        FaultEvent::Crash {
            machine: MachineId::new(0),
            at: Time::of(2.0),
        },
        FaultEvent::Outage {
            machine: MachineId::new(1),
            at: Time::of(1.0),
            down_for: Time::ZERO,
        },
    ]);
    for spec in [None, Some(Speculation::new(1.0, Uncertainty::CERTAIN))] {
        let mut engine = ResilienceEngine::new(&inst, &p, &r, &s).unwrap();
        if let Some(sp) = spec {
            engine = engine.with_speculation(sp);
        }
        out.push(digest(
            &engine.run(&mut OrderedDispatcher::fifo(&inst)).unwrap(),
        ));
    }
    out
}

const EDGES: [u64; 3] = [0x899567c5940ccf23, 0x4a7edc765fb1690f, 0x4a7edc765fb1690f];

#[test]
fn hand_built_tie_cases_are_bit_identical() {
    let got = edge_digests();
    assert_eq!(got, EDGES, "digests now {got:#x?}");
}

/// The large case: n = 4096 tasks on m = 16 machines in span groups of
/// four, an MTBF-style script over the whole run, speculation on. At
/// this size the engine's automatic queue selection arms the calendar.
fn large_digests() -> Vec<u64> {
    let (n, m) = (4096usize, 16usize);
    let mut g = Lcg(0x5eed_f00d);
    let est: Vec<f64> = (0..n).map(|_| 1.0 + g.below(8) as f64).collect();
    let inst = Instance::from_estimates(&est, m).unwrap();
    let unc = Uncertainty::of(1.5);
    let factors: Vec<f64> = (0..n)
        .map(|_| [1.0 / 1.5, 1.0, 1.5][g.below(3) as usize])
        .collect();
    let real = Realization::from_factors(&inst, unc, &factors).unwrap();
    let sets: Vec<MachineSet> = (0..n)
        .map(|_| {
            let k = g.below(4) as u32;
            MachineSet::Span {
                start: 4 * k,
                end: 4 * k + 4,
            }
        })
        .collect();
    let p = Placement::new(&inst, sets).unwrap();
    let horizon = (inst.total_estimate().get() / m as f64).ceil() as u64;
    let mut events = script(n, m, horizon, &mut g).events().to_vec();
    for _ in 0..8 {
        events.push(FaultEvent::Outage {
            machine: MachineId::new(g.below(m as u64) as usize),
            at: Time::of(g.below(2 * horizon) as f64 / 2.0),
            down_for: Time::of(1.0 + g.below(40) as f64),
        });
        events.push(FaultEvent::Straggler {
            task: TaskId::new(g.below(n as u64) as usize),
            factor: 4.0,
        });
    }
    // Crawling machines near the end, where their group siblings run
    // out of fresh work and pick up speculative backups instead.
    for i in (0..m).step_by(3) {
        events.push(FaultEvent::Slowdown {
            machine: MachineId::new(i),
            at: Time::of(horizon as f64 * 0.9),
            lasting: Time::of(horizon as f64),
            speed: 0.1,
        });
    }
    let faults = FaultScript::new(events);
    let order = inst.ids_by_estimate_desc();
    let spec = Speculation::new(1.25, Uncertainty::CERTAIN);
    let mut out = Vec::new();
    let mut arena = SimArena::new();
    for auto in [false, true] {
        let mut d = if auto {
            OrderedDispatcher::auto(order.clone(), &p)
        } else {
            OrderedDispatcher::new(order.clone())
        };
        let engine = ResilienceEngine::new(&inst, &p, &real, &faults)
            .unwrap()
            .with_speculation(spec);
        let rep = engine.run_in(&mut arena, &mut d).unwrap();
        out.push(digest(&rep));
    }
    out
}

const LARGE: [u64; 2] = [0x59e8cb22c66740e8, 0x59e8cb22c66740e8];

#[test]
fn large_calendar_case_is_bit_identical() {
    let got = large_digests();
    assert_eq!(got, LARGE, "digests now {got:#x?}");
}

//! Execution traces: what happened, when, on which machine.
//!
//! [`TraceEvent`] stays the public, pattern-matchable record type, but
//! storage is struct-of-arrays: one parallel column per field (kind
//! byte, time, task, machine, auxiliary float). Recording an event is
//! five contiguous appends with no enum padding, which keeps the
//! engine's hot loop cache-linear at n = 10^6; consumers decode events
//! on the fly via [`Trace::iter`] / [`Trace::get`] or materialize them
//! with [`Trace::events`].

use rds_core::{MachineId, Slot, TaskId, Time};

/// One recorded simulation event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEvent {
    /// A task started on a machine.
    Start {
        /// Simulation time of the start.
        time: Time,
        /// The started task.
        task: TaskId,
        /// The executing machine.
        machine: MachineId,
    },
    /// A task completed (its actual time became known).
    Complete {
        /// Simulation time of the completion.
        time: Time,
        /// The completed task.
        task: TaskId,
        /// The executing machine.
        machine: MachineId,
        /// The revealed actual processing time.
        actual: Time,
    },
    /// A machine was offered work and refused it: the dispatcher had no
    /// eligible pending task for it (nor, in a fault run, a queued
    /// backup it could host). In a fault-free run it stays idle for
    /// good. In a fault run it is offered work again when it rejoins,
    /// or when a task whose data it holds is requeued or gets a backup
    /// request queued; the lowest-numbered parked machine outside that
    /// task's replica set is offered work then too, and may refuse
    /// again.
    Starved {
        /// When the machine ran out of eligible work.
        time: Time,
        /// The starved machine.
        machine: MachineId,
    },
    /// A machine went down (crash or outage start); its in-flight
    /// attempt, if any, was lost.
    Failure {
        /// When the machine went down.
        time: Time,
        /// The failed machine.
        machine: MachineId,
    },
    /// A machine rejoined after a transient outage.
    Recovery {
        /// When the machine came back.
        time: Time,
        /// The rejoining machine.
        machine: MachineId,
    },
    /// A machine changed processing speed (`speed == 1.0` marks the end
    /// of a degraded phase).
    Degraded {
        /// When the speed changed.
        time: Time,
        /// The affected machine.
        machine: MachineId,
        /// The new processing-speed fraction.
        speed: f64,
    },
    /// A speculative backup attempt of a task was launched.
    SpeculativeStart {
        /// When the backup started.
        time: Time,
        /// The speculated task.
        task: TaskId,
        /// The machine hosting the backup attempt.
        machine: MachineId,
    },
    /// A redundant attempt was cancelled because a sibling finished
    /// first; its progress is wasted work.
    Cancelled {
        /// When the attempt was cancelled.
        time: Time,
        /// The task whose attempt was cancelled.
        task: TaskId,
        /// The machine whose attempt was cancelled.
        machine: MachineId,
    },
}

impl TraceEvent {
    /// The event's timestamp.
    pub fn time(&self) -> Time {
        match *self {
            TraceEvent::Start { time, .. }
            | TraceEvent::Complete { time, .. }
            | TraceEvent::Starved { time, .. }
            | TraceEvent::Failure { time, .. }
            | TraceEvent::Recovery { time, .. }
            | TraceEvent::Degraded { time, .. }
            | TraceEvent::SpeculativeStart { time, .. }
            | TraceEvent::Cancelled { time, .. } => time,
        }
    }
}

/// Column tag for one event; the discriminant column of the SoA layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
enum Kind {
    Start,
    Complete,
    Starved,
    Failure,
    Recovery,
    Degraded,
    SpeculativeStart,
    Cancelled,
}

/// Sentinel in the task column for events that carry no task.
const NO_TASK: u32 = u32::MAX;

/// A full execution trace (struct-of-arrays storage).
///
/// Equality compares the encoded columns directly — two traces are
/// equal iff they decode to the same event sequence, bit-for-bit on
/// every timestamp.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    kinds: Vec<Kind>,
    times: Vec<f64>,
    tasks: Vec<u32>,
    machines: Vec<u32>,
    /// `actual` for `Complete`, `speed` for `Degraded`, else 0.
    aux: Vec<f64>,
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty trace with room for `cap` events before reallocating.
    /// The engine records at most `2n + m` events per run (one `Start`
    /// and one `Complete` per task, at most one `Starved` per machine),
    /// so sizing to that bound makes recording allocation-free.
    pub fn with_capacity(cap: usize) -> Self {
        Trace {
            kinds: Vec::with_capacity(cap),
            times: Vec::with_capacity(cap),
            tasks: Vec::with_capacity(cap),
            machines: Vec::with_capacity(cap),
            aux: Vec::with_capacity(cap),
        }
    }

    /// Removes every event, keeping the allocated storage for reuse.
    pub fn clear(&mut self) {
        self.kinds.clear();
        self.times.clear();
        self.tasks.clear();
        self.machines.clear();
        self.aux.clear();
    }

    /// Reserves room for at least `additional` further events.
    pub fn reserve(&mut self, additional: usize) {
        self.kinds.reserve(additional);
        self.times.reserve(additional);
        self.tasks.reserve(additional);
        self.machines.reserve(additional);
        self.aux.reserve(additional);
    }

    /// Appends an event (times must be non-decreasing; enforced in debug).
    pub fn push(&mut self, ev: TraceEvent) {
        debug_assert!(
            self.times
                .last()
                .is_none_or(|&last| last <= ev.time().get()),
            "trace out of order"
        );
        let (kind, time, task, machine, aux) = match ev {
            TraceEvent::Start {
                time,
                task,
                machine,
            } => (Kind::Start, time, task.index() as u32, machine, 0.0),
            TraceEvent::Complete {
                time,
                task,
                machine,
                actual,
            } => (
                Kind::Complete,
                time,
                task.index() as u32,
                machine,
                actual.get(),
            ),
            TraceEvent::Starved { time, machine } => (Kind::Starved, time, NO_TASK, machine, 0.0),
            TraceEvent::Failure { time, machine } => (Kind::Failure, time, NO_TASK, machine, 0.0),
            TraceEvent::Recovery { time, machine } => (Kind::Recovery, time, NO_TASK, machine, 0.0),
            TraceEvent::Degraded {
                time,
                machine,
                speed,
            } => (Kind::Degraded, time, NO_TASK, machine, speed),
            TraceEvent::SpeculativeStart {
                time,
                task,
                machine,
            } => (
                Kind::SpeculativeStart,
                time,
                task.index() as u32,
                machine,
                0.0,
            ),
            TraceEvent::Cancelled {
                time,
                task,
                machine,
            } => (Kind::Cancelled, time, task.index() as u32, machine, 0.0),
        };
        self.kinds.push(kind);
        self.times.push(time.get());
        self.tasks.push(task);
        self.machines.push(machine.index() as u32);
        self.aux.push(aux);
    }

    /// Decodes the event at index `i`.
    ///
    /// # Panics
    /// Panics if `i >= self.len()`.
    pub fn get(&self, i: usize) -> TraceEvent {
        let time = Time::of(self.times[i]);
        let machine = MachineId::new(self.machines[i] as usize);
        let task = || TaskId::new(self.tasks[i] as usize);
        match self.kinds[i] {
            Kind::Start => TraceEvent::Start {
                time,
                task: task(),
                machine,
            },
            Kind::Complete => TraceEvent::Complete {
                time,
                task: task(),
                machine,
                actual: Time::of(self.aux[i]),
            },
            Kind::Starved => TraceEvent::Starved { time, machine },
            Kind::Failure => TraceEvent::Failure { time, machine },
            Kind::Recovery => TraceEvent::Recovery { time, machine },
            Kind::Degraded => TraceEvent::Degraded {
                time,
                machine,
                speed: self.aux[i],
            },
            Kind::SpeculativeStart => TraceEvent::SpeculativeStart {
                time,
                task: task(),
                machine,
            },
            Kind::Cancelled => TraceEvent::Cancelled {
                time,
                task: task(),
                machine,
            },
        }
    }

    /// Iterates the events in chronological order, decoding on the fly.
    pub fn iter(&self) -> impl Iterator<Item = TraceEvent> + '_ {
        (0..self.len()).map(|i| self.get(i))
    }

    /// All events in chronological order, materialized. Reporting and
    /// test convenience — hot paths should use [`Trace::iter`].
    pub fn events(&self) -> Vec<TraceEvent> {
        self.iter().collect()
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// `true` when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    /// Count of `Start` events (tasks dispatched) — a scan over the
    /// one-byte kind column.
    pub fn starts(&self) -> usize {
        self.kinds.iter().filter(|&&k| k == Kind::Start).count()
    }

    /// The executed slots of a run in one event loop, per machine and in
    /// execution order, each list allocated at its exact length: a
    /// `Start` opens a slot on its machine, and the machine's next
    /// `Complete` closes it, since a machine runs one task at a time.
    /// Reads the columns directly, counting each machine's starts first.
    pub(crate) fn slots_per_machine(&self, m: usize) -> Vec<Vec<Slot>> {
        let mut counts = vec![0usize; m];
        for (&kind, &mi) in self.kinds.iter().zip(&self.machines) {
            if kind == Kind::Start {
                counts[mi as usize] += 1;
            }
        }
        let mut out: Vec<Vec<Slot>> = counts.into_iter().map(Vec::with_capacity).collect();
        for (i, &kind) in self.kinds.iter().enumerate() {
            let slots = &mut out[self.machines[i] as usize];
            let time = Time::of(self.times[i]);
            match kind {
                Kind::Start => slots.push(Slot {
                    task: TaskId::new(self.tasks[i] as usize),
                    start: time,
                    end: time,
                }),
                Kind::Complete => {
                    let open = slots
                        .last_mut()
                        .expect("a completion closes a started slot");
                    debug_assert_eq!(open.task.index(), self.tasks[i] as usize);
                    open.end = time;
                }
                _ => {}
            }
        }
        out
    }

    /// Total idle time across machines before the makespan: for each
    /// machine, `makespan − busy_time` summed (a load-balance diagnostic).
    pub fn total_idle(&self, m: usize) -> Time {
        let mut busy = vec![Time::ZERO; m];
        let mut makespan = Time::ZERO;
        for i in 0..self.len() {
            if self.kinds[i] == Kind::Complete {
                busy[self.machines[i] as usize] += Time::of(self.aux[i]);
                makespan = makespan.max(Time::of(self.times[i]));
            }
        }
        busy.into_iter().map(|b| makespan.saturating_sub(b)).sum()
    }
}

impl Trace {
    /// Serializes the trace as CSV (`time,event,task,machine,actual`),
    /// RFC-4180-trivial since no field needs quoting.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("time,event,task,machine,actual\n");
        for e in self.iter() {
            match e {
                TraceEvent::Start {
                    time,
                    task,
                    machine,
                } => {
                    out.push_str(&format!(
                        "{time},start,{},{},\n",
                        task.index(),
                        machine.index()
                    ));
                }
                TraceEvent::Complete {
                    time,
                    task,
                    machine,
                    actual,
                } => {
                    out.push_str(&format!(
                        "{time},complete,{},{},{actual}\n",
                        task.index(),
                        machine.index()
                    ));
                }
                TraceEvent::Starved { time, machine } => {
                    out.push_str(&format!("{time},starved,,{},\n", machine.index()));
                }
                TraceEvent::Failure { time, machine } => {
                    out.push_str(&format!("{time},failure,,{},\n", machine.index()));
                }
                TraceEvent::Recovery { time, machine } => {
                    out.push_str(&format!("{time},recovery,,{},\n", machine.index()));
                }
                TraceEvent::Degraded {
                    time,
                    machine,
                    speed,
                } => {
                    out.push_str(&format!("{time},degraded,,{},{speed}\n", machine.index()));
                }
                TraceEvent::SpeculativeStart {
                    time,
                    task,
                    machine,
                } => {
                    out.push_str(&format!(
                        "{time},spec_start,{},{},\n",
                        task.index(),
                        machine.index()
                    ));
                }
                TraceEvent::Cancelled {
                    time,
                    task,
                    machine,
                } => {
                    out.push_str(&format!(
                        "{time},cancelled,{},{},\n",
                        task.index(),
                        machine.index()
                    ));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_in_order_and_counts() {
        let mut t = Trace::new();
        t.push(TraceEvent::Start {
            time: Time::ZERO,
            task: TaskId::new(0),
            machine: MachineId::new(0),
        });
        t.push(TraceEvent::Complete {
            time: Time::of(2.0),
            task: TaskId::new(0),
            machine: MachineId::new(0),
            actual: Time::of(2.0),
        });
        t.push(TraceEvent::Starved {
            time: Time::of(2.0),
            machine: MachineId::new(0),
        });
        assert_eq!(t.len(), 3);
        assert_eq!(t.starts(), 1);
        assert!(!t.is_empty());
    }

    #[test]
    fn every_event_kind_round_trips_through_the_columns() {
        let all = vec![
            TraceEvent::Start {
                time: Time::ZERO,
                task: TaskId::new(3),
                machine: MachineId::new(1),
            },
            TraceEvent::Complete {
                time: Time::of(1.25),
                task: TaskId::new(3),
                machine: MachineId::new(1),
                actual: Time::of(1.25),
            },
            TraceEvent::Failure {
                time: Time::of(1.5),
                machine: MachineId::new(2),
            },
            TraceEvent::Degraded {
                time: Time::of(1.75),
                machine: MachineId::new(0),
                speed: 0.25,
            },
            TraceEvent::SpeculativeStart {
                time: Time::of(2.0),
                task: TaskId::new(7),
                machine: MachineId::new(4),
            },
            TraceEvent::Cancelled {
                time: Time::of(2.5),
                task: TaskId::new(7),
                machine: MachineId::new(4),
            },
            TraceEvent::Recovery {
                time: Time::of(3.0),
                machine: MachineId::new(2),
            },
            TraceEvent::Starved {
                time: Time::of(3.0),
                machine: MachineId::new(0),
            },
        ];
        let mut t = Trace::new();
        for &e in &all {
            t.push(e);
        }
        assert_eq!(t.events(), all);
        assert_eq!(t.get(1), all[1]);
        let mut u = Trace::new();
        for &e in &all {
            u.push(e);
        }
        assert_eq!(t, u);
        u.push(TraceEvent::Starved {
            time: Time::of(4.0),
            machine: MachineId::new(1),
        });
        assert_ne!(t, u);
    }

    #[test]
    fn csv_round_trips_fields() {
        let mut t = Trace::new();
        t.push(TraceEvent::Start {
            time: Time::ZERO,
            task: TaskId::new(3),
            machine: MachineId::new(1),
        });
        t.push(TraceEvent::Complete {
            time: Time::of(2.5),
            task: TaskId::new(3),
            machine: MachineId::new(1),
            actual: Time::of(2.5),
        });
        t.push(TraceEvent::Starved {
            time: Time::of(2.5),
            machine: MachineId::new(0),
        });
        let csv = t.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "time,event,task,machine,actual");
        assert_eq!(lines[1], "0,start,3,1,");
        assert_eq!(lines[2], "2.5,complete,3,1,2.5");
        assert_eq!(lines[3], "2.5,starved,,0,");
    }

    #[test]
    fn csv_covers_fault_events() {
        let mut t = Trace::new();
        t.push(TraceEvent::Failure {
            time: Time::of(1.0),
            machine: MachineId::new(2),
        });
        t.push(TraceEvent::Degraded {
            time: Time::of(1.5),
            machine: MachineId::new(0),
            speed: 0.25,
        });
        t.push(TraceEvent::SpeculativeStart {
            time: Time::of(2.0),
            task: TaskId::new(7),
            machine: MachineId::new(1),
        });
        t.push(TraceEvent::Cancelled {
            time: Time::of(3.0),
            task: TaskId::new(7),
            machine: MachineId::new(1),
        });
        t.push(TraceEvent::Recovery {
            time: Time::of(4.0),
            machine: MachineId::new(2),
        });
        let lines: Vec<String> = t.to_csv().lines().map(str::to_owned).collect();
        assert_eq!(lines[1], "1,failure,,2,");
        assert_eq!(lines[2], "1.5,degraded,,0,0.25");
        assert_eq!(lines[3], "2,spec_start,7,1,");
        assert_eq!(lines[4], "3,cancelled,7,1,");
        assert_eq!(lines[5], "4,recovery,,2,");
    }

    #[test]
    fn idle_time_accounts_for_makespan_gap() {
        let mut t = Trace::new();
        // m0 busy [0,4]; m1 busy [0,1] → idle = 0 + 3.
        for (machine, dur) in [(0usize, 4.0), (1usize, 1.0)] {
            t.push(TraceEvent::Start {
                time: Time::ZERO,
                task: TaskId::new(machine),
                machine: MachineId::new(machine),
            });

            let _ = dur;
        }
        t.push(TraceEvent::Complete {
            time: Time::of(1.0),
            task: TaskId::new(1),
            machine: MachineId::new(1),
            actual: Time::of(1.0),
        });
        t.push(TraceEvent::Complete {
            time: Time::of(4.0),
            task: TaskId::new(0),
            machine: MachineId::new(0),
            actual: Time::of(4.0),
        });
        assert_eq!(t.total_idle(2), Time::of(3.0));
    }

    #[test]
    #[should_panic(expected = "trace out of order")]
    #[cfg(debug_assertions)]
    fn rejects_time_travel() {
        let mut t = Trace::new();
        t.push(TraceEvent::Starved {
            time: Time::of(2.0),
            machine: MachineId::new(0),
        });
        t.push(TraceEvent::Starved {
            time: Time::of(1.0),
            machine: MachineId::new(0),
        });
    }
}

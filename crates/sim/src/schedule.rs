//! Fault timelines: scheduled failure and recovery events.
//!
//! A [`FaultSchedule`] is an ordered list of `fail`/`recover` events, each
//! pinned to a slot, that both simulators consume by swapping the active
//! prepared kernel at the event slots.  Like the workload grammar of
//! [`crate::workload`], the schedule is a parsed, validated little
//! language with a `FromStr`/`Display` round-trip:
//!
//! * `"fail(node 3)@32"` — node (or quotient group) 3 fails at the start of
//!   slot 32, before that slot's injections;
//! * `"fail(arc 2->5)@40"` — the arc (link or coupler set) from 2 to 5
//!   fails at slot 40;
//! * `"recover(node 3)@96"` — a targeted recovery;
//! * `"recover@96"` — every *scheduled* fault recovers at slot 96 (static
//!   faults fixed before slot 0 are never recovered);
//! * `"none"` (or the empty string) — the empty schedule.
//!
//! Events are `;`-separated and must be chronological.  Construction
//! rejects double faults, recoveries of intact targets and bare recoveries
//! with nothing to recover — a malformed timeline never reaches a
//! simulator.  [`FaultSchedule::bind`] turns a schedule into the concrete
//! per-epoch fault sets (static faults overlaid with the scheduled ones),
//! checking target bounds against one network, exactly as
//! [`crate::DemandSpec::bind`] checks topology preconditions.

use otis_routing::FaultSet;
use std::fmt;
use std::str::FromStr;

/// What a scheduled event fails or recovers.
///
/// For point-to-point networks nodes are processors and arcs are links; for
/// multi-OPS (stack-graph) networks the fault domain is the quotient —
/// a node is a whole group, an arc the coupler(s) between two groups —
/// matching the [`FaultSet`] granularity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultTarget {
    /// A node (processor or quotient group).
    Node(usize),
    /// A directed arc (link or coupler set) `from -> to`.
    Arc(usize, usize),
}

/// One scheduled action.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// The target fails.
    Fail(FaultTarget),
    /// The target recovers (it must be a scheduled fault in force).
    Recover(FaultTarget),
    /// Every scheduled fault in force recovers at once.
    RecoverAll,
}

/// One event of a [`FaultSchedule`]: an action applied at the start of a
/// slot, before that slot's injections.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// The slot at whose start the action applies.
    pub slot: u64,
    /// What happens.
    pub action: FaultAction,
}

/// An ordered, validated timeline of failure and recovery events.
///
/// The only constructors are [`FaultSchedule::new`], [`FromStr`] and
/// [`FaultSchedule::empty`], so every value in circulation satisfies the
/// invariants: events chronological, no double faults, no recoveries of
/// intact targets.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultSchedule {
    events: Vec<FaultEvent>,
}

/// Why a schedule string could not be parsed, a directly-constructed event
/// list was inconsistent, or a schedule could not be bound to a network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultScheduleError {
    /// The input does not match the `action@slot[; action@slot...]` shape.
    Syntax {
        /// The offending input.
        input: String,
        /// What was wrong with it.
        reason: &'static str,
    },
    /// Events are not in chronological order.
    NotChronological {
        /// The slot of the earlier event.
        previous: u64,
        /// The out-of-order slot that followed it.
        slot: u64,
    },
    /// A `fail` targets something already failed at that point of the
    /// timeline.
    AlreadyFailed {
        /// The doubly-failed target.
        target: FaultTarget,
        /// The slot of the offending event.
        slot: u64,
    },
    /// A targeted `recover` names something not failed at that point of the
    /// timeline.
    NotFailed {
        /// The intact target.
        target: FaultTarget,
        /// The slot of the offending event.
        slot: u64,
    },
    /// A bare `recover` fired with no scheduled fault in force.
    NothingToRecover {
        /// The slot of the offending event.
        slot: u64,
    },
    /// A target names a node outside the bound network.
    TargetOutOfRange {
        /// The out-of-range target.
        target: FaultTarget,
        /// The bound network's node count (processors or quotient groups).
        nodes: usize,
    },
    /// A scheduled `fail` duplicates a *static* fault of the run it is
    /// bound to — the event would be a no-op and the matching recovery
    /// ambiguous, so it is refused.
    OverlapsStaticFault {
        /// The already-failed target.
        target: FaultTarget,
        /// The slot of the offending event.
        slot: u64,
    },
}

impl fmt::Display for FaultScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultScheduleError::Syntax { input, reason } => {
                write!(f, "cannot parse fault schedule '{input}': {reason}")
            }
            FaultScheduleError::NotChronological { previous, slot } => write!(
                f,
                "fault schedule events out of order: slot {slot} follows slot {previous}"
            ),
            FaultScheduleError::AlreadyFailed { target, slot } => {
                write!(
                    f,
                    "fail({target})@{slot}: target is already failed at that point"
                )
            }
            FaultScheduleError::NotFailed { target, slot } => {
                write!(
                    f,
                    "recover({target})@{slot}: target is not failed at that point"
                )
            }
            FaultScheduleError::NothingToRecover { slot } => {
                write!(
                    f,
                    "recover@{slot}: no scheduled fault is in force at that point"
                )
            }
            FaultScheduleError::TargetOutOfRange { target, nodes } => write!(
                f,
                "fault schedule target '{target}' is out of range: the network \
                 has {nodes} fault-domain nodes"
            ),
            FaultScheduleError::OverlapsStaticFault { target, slot } => write!(
                f,
                "fail({target})@{slot} duplicates a static fault of this run"
            ),
        }
    }
}

impl std::error::Error for FaultScheduleError {}

impl FaultSchedule {
    /// The empty schedule: no events, simulations run exactly as without a
    /// timeline.
    pub fn empty() -> Self {
        FaultSchedule::default()
    }

    /// Builds a schedule from an event list, validating the invariants the
    /// parser enforces: chronological slots, no fail of an already-failed
    /// target, no recovery of an intact target, no bare recovery with
    /// nothing in force.
    pub fn new(events: Vec<FaultEvent>) -> Result<Self, FaultScheduleError> {
        let mut overlay = FaultSet::new();
        let mut previous: Option<u64> = None;
        for event in &events {
            if let Some(prev) = previous {
                if event.slot < prev {
                    return Err(FaultScheduleError::NotChronological {
                        previous: prev,
                        slot: event.slot,
                    });
                }
            }
            previous = Some(event.slot);
            apply(&mut overlay, event, &FaultSet::new())?;
        }
        Ok(FaultSchedule { events })
    }

    /// Whether the schedule has no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The validated events, chronological.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Binds the schedule to a network of `nodes` fault-domain nodes
    /// (processors for point-to-point families, quotient groups for
    /// multi-OPS) under the run's static `faults`: checks every target is in
    /// range and no scheduled `fail` duplicates a static fault, and returns
    /// the **epochs** — one `(slot, fault set)` pair per distinct event
    /// slot, where the fault set is the static faults overlaid with every
    /// scheduled fault in force from the start of that slot on.  Same-slot
    /// events coalesce into one epoch, so each returned slot is one kernel
    /// swap.
    pub fn bind(
        &self,
        nodes: usize,
        faults: &FaultSet,
    ) -> Result<Vec<(u64, FaultSet)>, FaultScheduleError> {
        let mut overlay = FaultSet::new();
        let mut epochs: Vec<(u64, FaultSet)> = Vec::new();
        for event in &self.events {
            let in_range = match event.action {
                FaultAction::Fail(t) | FaultAction::Recover(t) => match t {
                    FaultTarget::Node(n) => n < nodes,
                    FaultTarget::Arc(a, b) => a < nodes && b < nodes,
                },
                FaultAction::RecoverAll => true,
            };
            if !in_range {
                let target = match event.action {
                    FaultAction::Fail(t) | FaultAction::Recover(t) => t,
                    FaultAction::RecoverAll => unreachable!("bare recover is always in range"),
                };
                return Err(FaultScheduleError::TargetOutOfRange { target, nodes });
            }
            apply(&mut overlay, event, faults)?;
            let epoch = faults.union(&overlay);
            match epochs.last_mut() {
                Some((slot, set)) if *slot == event.slot => *set = epoch,
                _ => epochs.push((event.slot, epoch)),
            }
        }
        Ok(epochs)
    }
}

/// Applies one event to the scheduled overlay, enforcing the timeline
/// invariants.  `static_faults` is consulted only to refuse scheduled
/// fails that duplicate a static fault (empty at parse time, when no run
/// is bound yet).
fn apply(
    overlay: &mut FaultSet,
    event: &FaultEvent,
    static_faults: &FaultSet,
) -> Result<(), FaultScheduleError> {
    match event.action {
        FaultAction::Fail(target) => {
            let statically_failed = match target {
                FaultTarget::Node(n) => static_faults.node_failed(n),
                FaultTarget::Arc(a, b) => static_faults.arc_failed(a, b),
            };
            if statically_failed {
                return Err(FaultScheduleError::OverlapsStaticFault {
                    target,
                    slot: event.slot,
                });
            }
            let fresh = match target {
                FaultTarget::Node(n) => {
                    let fresh = !overlay.node_failed(n);
                    overlay.fail_node(n);
                    fresh
                }
                FaultTarget::Arc(a, b) => {
                    let fresh = !overlay.arc_failed(a, b);
                    overlay.fail_arc(a, b);
                    fresh
                }
            };
            if !fresh {
                return Err(FaultScheduleError::AlreadyFailed {
                    target,
                    slot: event.slot,
                });
            }
        }
        FaultAction::Recover(target) => {
            let was_failed = match target {
                FaultTarget::Node(n) => overlay.recover_node(n),
                FaultTarget::Arc(a, b) => overlay.recover_arc(a, b),
            };
            if !was_failed {
                return Err(FaultScheduleError::NotFailed {
                    target,
                    slot: event.slot,
                });
            }
        }
        FaultAction::RecoverAll => {
            if overlay.is_empty() {
                return Err(FaultScheduleError::NothingToRecover { slot: event.slot });
            }
            *overlay = FaultSet::new();
        }
    }
    Ok(())
}

impl fmt::Display for FaultTarget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            FaultTarget::Node(n) => write!(f, "node {n}"),
            FaultTarget::Arc(a, b) => write!(f, "arc {a}->{b}"),
        }
    }
}

impl fmt::Display for FaultAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultAction::Fail(target) => write!(f, "fail({target})"),
            FaultAction::Recover(target) => write!(f, "recover({target})"),
            FaultAction::RecoverAll => write!(f, "recover"),
        }
    }
}

impl fmt::Display for FaultEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}", self.action, self.slot)
    }
}

impl fmt::Display for FaultSchedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.events.is_empty() {
            return write!(f, "none");
        }
        for (i, event) in self.events.iter().enumerate() {
            if i > 0 {
                write!(f, "; ")?;
            }
            write!(f, "{event}")?;
        }
        Ok(())
    }
}

impl FromStr for FaultSchedule {
    type Err = FaultScheduleError;

    fn from_str(input: &str) -> Result<Self, Self::Err> {
        let text = input.trim();
        if text.is_empty() || text.eq_ignore_ascii_case("none") {
            return Ok(FaultSchedule::empty());
        }
        let syntax = |reason: &'static str| FaultScheduleError::Syntax {
            input: input.to_string(),
            reason,
        };
        let mut events = Vec::new();
        for part in text.split(';') {
            let part = part.trim();
            if part.is_empty() {
                return Err(syntax("empty event between ';' separators"));
            }
            let (action_text, slot_text) = part
                .rsplit_once('@')
                .ok_or_else(|| syntax("expected action@slot"))?;
            let slot: u64 = slot_text
                .trim()
                .parse()
                .map_err(|_| syntax("slots must be non-negative integers"))?;
            let action = parse_action(action_text.trim(), input)?;
            events.push(FaultEvent { slot, action });
        }
        FaultSchedule::new(events)
    }
}

fn parse_action(text: &str, input: &str) -> Result<FaultAction, FaultScheduleError> {
    let syntax = |reason: &'static str| FaultScheduleError::Syntax {
        input: input.to_string(),
        reason,
    };
    let Some(open) = text.find('(') else {
        return if text.eq_ignore_ascii_case("recover") {
            Ok(FaultAction::RecoverAll)
        } else if text.eq_ignore_ascii_case("fail") {
            Err(syntax(
                "fail needs a target: fail(node N) or fail(arc A->B)",
            ))
        } else {
            Err(syntax("unknown event (supported: fail, recover)"))
        };
    };
    if !text.ends_with(')') {
        return Err(syntax("missing closing parenthesis"));
    }
    let keyword = text[..open].trim().to_ascii_lowercase();
    let target = parse_target(text[open + 1..text.len() - 1].trim(), input)?;
    match keyword.as_str() {
        "fail" => Ok(FaultAction::Fail(target)),
        "recover" => Ok(FaultAction::Recover(target)),
        _ => Err(syntax("unknown event (supported: fail, recover)")),
    }
}

fn parse_target(text: &str, input: &str) -> Result<FaultTarget, FaultScheduleError> {
    let syntax = |reason: &'static str| FaultScheduleError::Syntax {
        input: input.to_string(),
        reason,
    };
    let mut words = text.splitn(2, char::is_whitespace);
    let kind = words.next().unwrap_or("").to_ascii_lowercase();
    let rest = words.next().unwrap_or("").trim();
    match kind.as_str() {
        "node" => rest
            .parse::<usize>()
            .map(FaultTarget::Node)
            .map_err(|_| syntax("node targets are 'node N' with N a non-negative integer")),
        "arc" => {
            let (a, b) = rest
                .split_once("->")
                .ok_or_else(|| syntax("arc targets are 'arc A->B'"))?;
            let a = a
                .trim()
                .parse::<usize>()
                .map_err(|_| syntax("arc endpoints must be non-negative integers"))?;
            let b = b
                .trim()
                .parse::<usize>()
                .map_err(|_| syntax("arc endpoints must be non-negative integers"))?;
            Ok(FaultTarget::Arc(a, b))
        }
        _ => Err(syntax("targets are 'node N' or 'arc A->B'")),
    }
}

/// Per-run restoration bookkeeping shared by the two simulators: records
/// the first overlay-growing swap (the *failure*), watches the cumulative
/// post-failure delivery rate until it recovers to ≥ 95% of the pre-failure
/// baseline, and tracks the latency peak among post-failure deliveries.
/// Inert — no state, no arithmetic on the hot path — until a swap happens,
/// so schedule-free runs stay byte-identical to the legacy loop.
#[derive(Debug, Default)]
pub(crate) struct RestoreTracker {
    fail_slot: Option<u64>,
    delivered_at_fail: u64,
    baseline: f64,
}

impl RestoreTracker {
    /// Records one kernel swap.  `introduces_failures` says whether the new
    /// kernel's fault set is *not* a subset of the old one's — the first
    /// such swap is "the failure" the restoration metrics are anchored to.
    /// `live` is the in-flight population before stranding.
    pub(crate) fn on_swap(
        &mut self,
        introduces_failures: bool,
        slot: u64,
        live: u64,
        metrics: &mut crate::SimMetrics,
    ) {
        metrics.fault_events += 1;
        if introduces_failures && self.fail_slot.is_none() {
            self.fail_slot = Some(slot);
            self.delivered_at_fail = metrics.delivered;
            self.baseline = if slot > 0 {
                metrics.delivered as f64 / slot as f64
            } else {
                0.0
            };
            metrics.in_flight_at_failure = live;
            metrics.restore_slots = u64::MAX;
        }
    }

    /// Whether a failure happened, i.e. whether post-failure deliveries
    /// feed the latency peak (test-only observer).
    #[cfg(test)]
    pub(crate) fn tracking(&self) -> bool {
        self.fail_slot.is_some()
    }

    /// Feeds one delivered message's latency into the post-failure peak.
    pub(crate) fn observe_delivery(&self, latency: u64, metrics: &mut crate::SimMetrics) {
        if self.fail_slot.is_some() {
            metrics.post_failure_latency_peak = metrics.post_failure_latency_peak.max(latency);
        }
    }

    /// Checks, at the end of `slot`, whether the cumulative post-failure
    /// delivery rate has recovered to ≥ 95% of the pre-failure baseline;
    /// the first slot where it has pins `restore_slots`.  A failure at slot
    /// 0 or with nothing delivered before it has no baseline — the metric
    /// stays "never restored".
    pub(crate) fn end_slot(&self, slot: u64, metrics: &mut crate::SimMetrics) {
        let Some(fail_slot) = self.fail_slot else {
            return;
        };
        if metrics.restore_slots != u64::MAX || self.baseline <= 0.0 {
            return;
        }
        let elapsed = slot - fail_slot + 1;
        let rate = (metrics.delivered - self.delivered_at_fail) as f64 / elapsed as f64;
        if rate >= 0.95 * self.baseline {
            metrics.restore_slots = elapsed;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_and_round_trips() {
        let cases = [
            "none",
            "fail(node 3)@32",
            "fail(node 3)@32; recover@96",
            "fail(arc 2->5)@40; recover(arc 2->5)@90",
            "fail(node 1)@10; fail(node 2)@10; recover(node 1)@50; recover@70",
        ];
        for text in cases {
            let schedule: FaultSchedule = text.parse().unwrap_or_else(|e| panic!("{text}: {e}"));
            assert_eq!(schedule.to_string(), text, "display is canonical");
            let again: FaultSchedule = schedule.to_string().parse().unwrap();
            assert_eq!(again, schedule, "{text} round-trips");
        }
        assert!("".parse::<FaultSchedule>().unwrap().is_empty());
        assert_eq!(FaultSchedule::empty().to_string(), "none");
    }

    #[test]
    fn tolerant_syntax() {
        let schedule: FaultSchedule = "  FAIL( Node 3 ) @ 32 ;Recover@96 "
            .parse()
            .expect("whitespace and case are tolerated");
        assert_eq!(schedule.to_string(), "fail(node 3)@32; recover@96");
        let arcs: FaultSchedule = "fail(arc 2 -> 5)@1; recover(ARC 2->5)@2".parse().unwrap();
        assert_eq!(
            arcs.events()[0].action,
            FaultAction::Fail(FaultTarget::Arc(2, 5))
        );
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "fail(node 3)",
            "fail@32",
            "fail()@32",
            "fail(node)@32",
            "fail(node -1)@32",
            "fail(link 3)@32",
            "fail(arc 2)@32",
            "fail(arc 2->)@32",
            "explode(node 3)@32",
            "fail(node 3)@then",
            "fail(node 3)@32;;recover@96",
            "fail(node 3@32",
        ] {
            let err = bad.parse::<FaultSchedule>().unwrap_err();
            assert!(
                matches!(err, FaultScheduleError::Syntax { .. }),
                "{bad}: {err}"
            );
        }
    }

    #[test]
    fn rejects_inconsistent_timelines_with_typed_errors() {
        let err = "recover@96".parse::<FaultSchedule>().unwrap_err();
        assert!(
            matches!(err, FaultScheduleError::NothingToRecover { slot: 96 }),
            "{err}"
        );
        let err = "fail(node 3)@32; fail(node 3)@40"
            .parse::<FaultSchedule>()
            .unwrap_err();
        assert!(matches!(
            err,
            FaultScheduleError::AlreadyFailed {
                target: FaultTarget::Node(3),
                slot: 40
            }
        ));
        let err = "fail(node 3)@32; recover(node 4)@40"
            .parse::<FaultSchedule>()
            .unwrap_err();
        assert!(matches!(err, FaultScheduleError::NotFailed { .. }));
        let err = "fail(node 3)@32; fail(node 4)@16"
            .parse::<FaultSchedule>()
            .unwrap_err();
        assert!(matches!(
            err,
            FaultScheduleError::NotChronological {
                previous: 32,
                slot: 16
            }
        ));
        // Recover-then-refail of the same target is legal.
        assert!("fail(node 3)@1; recover@2; fail(node 3)@3"
            .parse::<FaultSchedule>()
            .is_ok());
        // Same-slot fail+recover-all is applied in order and legal.
        assert!("fail(node 3)@5; recover@5".parse::<FaultSchedule>().is_ok());
    }

    #[test]
    fn bind_produces_overlaid_epochs_and_coalesces_slots() {
        let schedule: FaultSchedule =
            "fail(node 1)@10; fail(node 2)@10; recover(node 1)@50; recover@70"
                .parse()
                .unwrap();
        let static_faults = FaultSet::from_nodes([0]);
        let epochs = schedule.bind(8, &static_faults).unwrap();
        assert_eq!(epochs.len(), 3, "same-slot events coalesce into one swap");
        assert_eq!(epochs[0].0, 10);
        assert_eq!(epochs[0].1.sorted_nodes(), vec![0, 1, 2]);
        assert_eq!(epochs[1].0, 50);
        assert_eq!(epochs[1].1.sorted_nodes(), vec![0, 2]);
        assert_eq!(epochs[2].0, 70);
        assert_eq!(
            epochs[2].1, static_faults,
            "bare recover restores exactly the static faults"
        );
        assert!(FaultSchedule::empty()
            .bind(8, &static_faults)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn bind_checks_targets_against_the_network() {
        let schedule: FaultSchedule = "fail(node 9)@10".parse().unwrap();
        let err = schedule.bind(8, &FaultSet::new()).unwrap_err();
        assert!(
            matches!(
                err,
                FaultScheduleError::TargetOutOfRange {
                    target: FaultTarget::Node(9),
                    nodes: 8
                }
            ),
            "{err}"
        );
        let schedule: FaultSchedule = "fail(arc 2->9)@10".parse().unwrap();
        assert!(schedule.bind(8, &FaultSet::new()).is_err());
        // A scheduled fail may not duplicate a static fault.
        let schedule: FaultSchedule = "fail(node 0)@10".parse().unwrap();
        let err = schedule.bind(8, &FaultSet::from_nodes([0])).unwrap_err();
        assert!(
            matches!(err, FaultScheduleError::OverlapsStaticFault { .. }),
            "{err}"
        );
        assert!(schedule.bind(8, &FaultSet::new()).is_ok());
    }

    #[test]
    fn error_displays_are_informative() {
        let err = "explode(node 3)@32".parse::<FaultSchedule>().unwrap_err();
        assert!(err.to_string().contains("fail, recover"), "{err}");
        let err = "recover@96".parse::<FaultSchedule>().unwrap_err();
        assert!(err.to_string().contains("96"), "{err}");
        let err = "fail(node 9)@10"
            .parse::<FaultSchedule>()
            .unwrap()
            .bind(8, &FaultSet::new())
            .unwrap_err();
        assert!(err.to_string().contains("node 9"), "{err}");
        assert!(err.to_string().contains('8'), "{err}");
    }

    #[test]
    fn restore_tracker_pins_the_first_failure_and_the_recovery_rate() {
        let mut metrics = crate::SimMetrics::new(4, 8);
        let mut tracker = RestoreTracker::default();
        assert!(!tracker.tracking());
        // 100 slots of 2 deliveries per slot before the failure.
        metrics.delivered = 200;
        tracker.on_swap(true, 100, 7, &mut metrics);
        assert_eq!(metrics.fault_events, 1);
        assert_eq!(metrics.in_flight_at_failure, 7);
        assert_eq!(metrics.restore_slots, u64::MAX);
        assert!(tracker.tracking());
        // A later recovery swap does not re-anchor the failure.
        tracker.on_swap(false, 120, 3, &mut metrics);
        assert_eq!(metrics.fault_events, 2);
        assert_eq!(metrics.in_flight_at_failure, 7);
        // Depressed rate: 1 delivery over 2 slots < 0.95 * 2.0.
        metrics.delivered = 201;
        tracker.end_slot(101, &mut metrics);
        assert_eq!(metrics.restore_slots, u64::MAX);
        // Recovered rate: 8 more deliveries by slot 103 -> 9/4 >= 1.9.
        metrics.delivered = 209;
        tracker.end_slot(103, &mut metrics);
        assert_eq!(metrics.restore_slots, 4);
        // Post-failure latency peak only grows while tracking.
        tracker.observe_delivery(17, &mut metrics);
        tracker.observe_delivery(5, &mut metrics);
        assert_eq!(metrics.post_failure_latency_peak, 17);
        // Untracked runs never touch the restoration fields.
        let idle = RestoreTracker::default();
        let mut fresh = crate::SimMetrics::new(4, 8);
        idle.observe_delivery(9, &mut fresh);
        idle.end_slot(10, &mut fresh);
        assert_eq!(fresh.post_failure_latency_peak, 0);
        assert_eq!(fresh.fault_events, 0);
    }

    #[test]
    fn failures_without_baseline_never_restore() {
        let mut metrics = crate::SimMetrics::new(4, 8);
        let mut tracker = RestoreTracker::default();
        // Failure at slot 0: no pre-failure slots, no baseline.
        tracker.on_swap(true, 0, 0, &mut metrics);
        metrics.delivered = 1000;
        tracker.end_slot(500, &mut metrics);
        assert_eq!(metrics.restore_slots, u64::MAX);
    }
}

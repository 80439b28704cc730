//! Demand generation: the input layer of the simulators.
//!
//! The stationary patterns of [`crate::traffic`] answer the same question
//! every slot from the same distribution.  Real lightwave networks carry
//! demand that is *bursty* and *non-stationary*, and reproductions often
//! need to replay a recorded stream instead of synthesizing one.  This
//! module generalizes the injection side of both kernels behind one
//! abstraction:
//!
//! * [`DemandSpec`] — the immutable description of a demand process:
//!   a stationary [`TrafficPattern`], a Poisson arrival process, an on/off
//!   burst process, an elephants-and-mice rate mix, or a recorded trace
//!   file.  It is the one workload value of the workspace: its spelling
//!   (`"poisson(0.3)"`, `"trace(demand.trc)"`), range checks and binding
//!   to a network size live in [`crate::workload`];
//! * [`DemandSource`] — the per-run stateful generator built from a spec
//!   ([`DemandSpec::source`]).  It answers the kernels' per-slot question
//!   through [`DemandSource::injections_into`], the same allocation-free
//!   shape as [`TrafficPattern::injections_into`], drawing from the run's
//!   [`crate::kernel::RunCore`] RNG so results stay deterministic per seed
//!   and thread-count independent;
//! * [`TraceReplay`] and the line-oriented `.trc` trace format — replayed
//!   *lazily*, one lookahead event at a time, so the resident demand state
//!   is bounded by a constant buffer regardless of trace length
//!   (million-event traces run in O(buffer), not O(trace)).
//!
//! ## Stochastic generators
//!
//! Rates are *expected arrivals per processor per slot*.  In a slotted
//! simulator a Poisson process of rate `λ` injects in a slot with
//! probability `1 − e^(−λ)` (at most one message per processor per slot —
//! the batching a slotted kernel imposes), so rates may exceed `1` and the
//! per-slot injection probability saturates towards `1`.
//!
//! * `Poisson { rate, dst }` — every processor injects with probability
//!   `1 − e^(−rate)`; destinations are uniform over the other processors,
//!   or the fixed `dst` (whose own processor then never injects);
//! * `OnOff { rate, burst_len, idle_len }` — each processor cycles through
//!   `burst_len` ON slots followed by `idle_len` OFF slots, injecting as a
//!   Poisson process of `rate` while ON and staying silent while OFF.  The
//!   per-processor phase of the cycle is drawn from the run RNG on the
//!   first slot, so bursts desynchronize across processors but reproduce
//!   exactly per seed;
//! * `Mix { fraction, elephant_rate, mice_rate }` — `round(fraction · N)`
//!   processors (chosen from the run RNG on the first slot) inject at
//!   `elephant_rate`, the rest at `mice_rate` — the classic heavy-hitter
//!   demand skew.
//!
//! ## The `.trc` trace format
//!
//! Line-oriented like the `.scn` scenario format: one event per line,
//! `slot src dst` (whitespace-separated), `#` starts a comment (full-line
//! or trailing), blank lines are ignored.  Slots must be non-decreasing,
//! `src != dst`, and at most one event per `(slot, src)` pair — a
//! processor injects at most one message per slot, exactly like the
//! generators.  [`validate_trace`] streams a trace once, reports the
//! first violation as a typed, line-numbered [`TraceError`], and on
//! success returns [`TraceStats`] (event count and slot span) from which
//! the trace's mean offered load is derived at bind time; replay
//! assumes a validated stream and panics (with the line number) on
//! malformed input rather than silently misreading demand.

use crate::traffic::{random_other, TrafficPattern};
use crate::workload::TrafficError;
use rand::Rng;
use std::fmt;
use std::io::{self, BufRead};

/// An immutable description of a demand process — what to inject, not the
/// mid-run generator state.  Build the per-run generator with
/// [`DemandSpec::source`].
#[derive(Debug, Clone, PartialEq)]
pub enum DemandSpec {
    /// A stationary synthetic pattern, delegated verbatim to
    /// [`TrafficPattern`] — same RNG draws, byte-identical metrics.
    Pattern(TrafficPattern),
    /// Poisson arrivals at `rate` expected messages per processor per slot.
    Poisson {
        /// Expected arrivals per processor per slot (finite, `>= 0`; may
        /// exceed 1 — the per-slot injection probability is `1 − e^(−rate)`).
        rate: f64,
        /// `Some(d)`: every message targets processor `d` (which itself
        /// never injects); `None`: destinations are uniform over the other
        /// processors.
        dst: Option<usize>,
    },
    /// On/off bursts: Poisson arrivals at `rate` during `burst_len` ON
    /// slots, silence during `idle_len` OFF slots, per-processor phases
    /// drawn from the run RNG.
    OnOff {
        /// Expected arrivals per processor per slot *while ON*.
        rate: f64,
        /// ON-phase length in slots (`>= 1`).
        burst_len: u64,
        /// OFF-phase length in slots (`>= 1`).
        idle_len: u64,
    },
    /// Elephants-and-mice: `round(fraction · N)` processors inject Poisson
    /// arrivals at `elephant_rate`, the rest at `mice_rate`.
    Mix {
        /// Fraction of processors that are elephants, in `[0, 1]`.
        fraction: f64,
        /// Expected arrivals per elephant processor per slot.
        elephant_rate: f64,
        /// Expected arrivals per mouse processor per slot.
        mice_rate: f64,
    },
    /// Replay of a recorded `.trc` demand stream.
    Trace {
        /// Path of the trace file, opened lazily at [`DemandSpec::source`]
        /// time and streamed slot by slot.
        path: String,
        /// The measured mean injections per slot per node, filled in by a
        /// bind-time validation pass over the file ([`DemandSpec::bind`]
        /// stores [`TraceStats::offered_load`] here).  `None` until the
        /// file has been measured; always finite once set, so the derived
        /// `PartialEq` stays reflexive.
        offered_load: Option<f64>,
    },
}

impl DemandSpec {
    /// Builds the per-run generator.  Opens the trace file for
    /// [`DemandSpec::Trace`] (the only fallible case, a
    /// [`TrafficError::TraceIo`] — the stochastic variants never fail).
    pub fn source(&self) -> Result<DemandSource, TrafficError> {
        Ok(match self {
            DemandSpec::Pattern(pattern) => DemandSource::Pattern(pattern.clone()),
            DemandSpec::Poisson { rate, dst } => DemandSource::Poisson {
                p: slot_probability(*rate),
                dst: *dst,
            },
            DemandSpec::OnOff {
                rate,
                burst_len,
                idle_len,
            } => DemandSource::OnOff(OnOffState::new(*rate, *burst_len, *idle_len)),
            DemandSpec::Mix {
                fraction,
                elephant_rate,
                mice_rate,
            } => DemandSource::Mix(MixState::new(*fraction, *elephant_rate, *mice_rate)),
            DemandSpec::Trace { path, .. } => {
                let file = std::fs::File::open(path).map_err(|e| TrafficError::TraceIo {
                    path: path.clone(),
                    detail: e.to_string(),
                })?;
                DemandSource::Trace(TraceReplay::new(io::BufReader::new(file)))
            }
        })
    }

    /// The nominal offered load in messages per processor per slot — the
    /// expected per-slot injection probability for stochastic variants,
    /// [`TrafficPattern::offered_load`] for stationary patterns, and for
    /// traces the bind-time-measured mean (or `NaN` if the file has not
    /// been measured yet).
    pub fn offered_load(&self) -> f64 {
        match self {
            DemandSpec::Pattern(pattern) => pattern.offered_load(),
            DemandSpec::Poisson { rate, .. } => slot_probability(*rate),
            DemandSpec::OnOff {
                rate,
                burst_len,
                idle_len,
            } => {
                // A zero burst length degrades to 1 slot, exactly as the
                // generator state does (the typed front door refuses it).
                let burst = (*burst_len).max(1);
                let period = burst.saturating_add(*idle_len);
                slot_probability(*rate) * burst as f64 / period as f64
            }
            DemandSpec::Mix {
                fraction,
                elephant_rate,
                mice_rate,
            } => {
                // NaN saturates to 0 (f64::clamp would propagate it).
                let f = if fraction.is_nan() {
                    0.0
                } else {
                    fraction.clamp(0.0, 1.0)
                };
                f * slot_probability(*elephant_rate) + (1.0 - f) * slot_probability(*mice_rate)
            }
            DemandSpec::Trace { offered_load, .. } => offered_load.unwrap_or(f64::NAN),
        }
    }

    /// The load that actually enters an `n`-processor network, accounting
    /// for sources the process silences (the fixed destination of a
    /// targeted Poisson process never injects; stationary patterns account
    /// for their fixed points).  For traces the measured mean *is* what
    /// enters the network, so offered and effective coincide (`NaN` until
    /// measured).
    pub fn effective_load(&self, n: usize) -> f64 {
        if n < 2 {
            return if matches!(self, DemandSpec::Trace { .. }) {
                self.offered_load()
            } else {
                0.0
            };
        }
        match self {
            DemandSpec::Pattern(pattern) => pattern.effective_load(n),
            DemandSpec::Poisson { dst: Some(_), .. } => {
                self.offered_load() * (n as f64 - 1.0) / n as f64
            }
            _ => self.offered_load(),
        }
    }

    /// An on/off burst process calibrated so its long-run mean offered
    /// load matches `Poisson { rate: mean_rate }` exactly — the burst-phase
    /// rate is [`matched_burst_rate`].  Matched means isolate traffic
    /// *shape*: any metric gap between the Poisson run and this one is the
    /// price of demand concentration, not of extra load.
    ///
    /// # Panics
    ///
    /// When the duty cycle is too small to reach the requested mean (see
    /// [`matched_burst_rate`]).
    pub fn matched_on_off(mean_rate: f64, burst_len: u64, idle_len: u64) -> DemandSpec {
        DemandSpec::OnOff {
            rate: matched_burst_rate(mean_rate, burst_len, idle_len),
            burst_len,
            idle_len,
        }
    }
}

/// The burst-phase Poisson rate at which an on/off source with `burst_len`
/// ON slots and `idle_len` OFF slots offers the same long-run mean load as
/// `poisson(mean_rate)`: the source only injects during
/// `burst / (burst + idle)` of the slots, so its per-slot injection
/// probability while ON must be the Poisson one divided by the duty cycle.
/// A zero `burst_len` degrades to 1 slot, exactly as the generator state
/// does.
///
/// # Panics
///
/// When the duty cycle is too small to match the requested mean — the
/// required ON-phase injection probability would reach 1 (a source cannot
/// inject more than one message per slot).
pub fn matched_burst_rate(mean_rate: f64, burst_len: u64, idle_len: u64) -> f64 {
    let p = slot_probability(mean_rate);
    let burst = burst_len.max(1);
    let duty = burst as f64 / (burst.saturating_add(idle_len)) as f64;
    let p_on = p / duty;
    assert!(
        p_on < 1.0,
        "duty cycle {duty:.4} too small to match mean rate {mean_rate}: \
         the ON-phase injection probability would be {p_on:.4} >= 1"
    );
    -f64::ln_1p(-p_on)
}

/// The per-run demand generator behind the kernels' injection step: holds
/// whatever mid-run state the process needs (burst phases, elephant
/// choices, the trace lookahead) and fills the slot loop's reusable
/// injection buffer.  Build one per run with [`DemandSpec::source`]; a
/// source must not be reused across runs (its state has advanced).
#[derive(Debug)]
pub enum DemandSource {
    /// Stationary pattern, stateless — delegates every draw verbatim.
    Pattern(TrafficPattern),
    /// Poisson arrivals, stateless.
    Poisson {
        /// Per-slot injection probability, `1 − e^(−rate)`.
        p: f64,
        /// Fixed destination, or `None` for uniform.
        dst: Option<usize>,
    },
    /// On/off bursts with per-processor phase state.
    OnOff(OnOffState),
    /// Elephants-and-mice with the per-run elephant choice.
    Mix(MixState),
    /// Lazy replay of a `.trc` stream.
    Trace(TraceReplay),
}

impl DemandSource {
    /// The injection decisions of one slot: for every processor, an
    /// optional destination.  The demand-side generalization of
    /// [`TrafficPattern::injections_into`] — same allocation-free shape,
    /// and for the [`DemandSource::Pattern`] variant the exact same RNG
    /// draw order.  Consecutive calls advance the process by one slot.
    pub fn injections_into<R: Rng>(&mut self, n: usize, rng: &mut R, out: &mut Vec<Option<usize>>) {
        match self {
            DemandSource::Pattern(pattern) => pattern.injections_into(n, rng, out),
            DemandSource::Poisson { p, dst } => {
                out.clear();
                let (p, dst) = (*p, *dst);
                out.extend((0..n).map(|src| poisson_inject(src, n, p, dst, rng)));
            }
            DemandSource::OnOff(state) => state.injections_into(n, rng, out),
            DemandSource::Mix(state) => state.injections_into(n, rng, out),
            DemandSource::Trace(replay) => replay.injections_into(n, out),
        }
    }
}

/// One Poisson decision: inject with probability `p`, destination `dst`
/// (fixed) or uniform over the other processors.
fn poisson_inject<R: Rng>(
    src: usize,
    n: usize,
    p: f64,
    dst: Option<usize>,
    rng: &mut R,
) -> Option<usize> {
    if n < 2 {
        return None;
    }
    match dst {
        Some(d) if d == src || d >= n => None,
        Some(d) => rng.gen_bool(p).then_some(d),
        None => {
            if rng.gen_bool(p) {
                Some(random_other(src, n, rng))
            } else {
                None
            }
        }
    }
}

/// Per-slot injection probability of a Poisson process of `rate` expected
/// arrivals per slot: `P(at least one arrival) = 1 − e^(−rate)`.  `NaN`
/// and negative rates saturate to `0` ([`DemandSpec::validate`] refuses
/// them before a run; this only guards direct construction).
fn slot_probability(rate: f64) -> f64 {
    if rate.is_nan() || rate <= 0.0 {
        0.0
    } else {
        -f64::exp_m1(-rate)
    }
}

/// Mid-run state of the on/off burst process.
#[derive(Debug, Clone)]
pub struct OnOffState {
    p: f64,
    burst_len: u64,
    idle_len: u64,
    /// Per-processor cycle phases, drawn lazily on the first slot.
    phases: Vec<u64>,
    slot: u64,
}

impl OnOffState {
    fn new(rate: f64, burst_len: u64, idle_len: u64) -> Self {
        OnOffState {
            p: slot_probability(rate),
            burst_len: burst_len.max(1),
            idle_len,
            phases: Vec::new(),
            slot: 0,
        }
    }

    fn injections_into<R: Rng>(&mut self, n: usize, rng: &mut R, out: &mut Vec<Option<usize>>) {
        let period = self.burst_len + self.idle_len;
        if self.phases.len() != n {
            // First slot (or a caller changing n mid-run, which resets the
            // phases): one phase draw per processor, from the run RNG.
            self.phases.clear();
            self.phases
                .extend((0..n).map(|_| rng.gen_range(0..period as usize) as u64));
        }
        out.clear();
        for src in 0..n {
            let on = (self.slot + self.phases[src]) % period < self.burst_len;
            out.push(if on {
                poisson_inject(src, n, self.p, None, rng)
            } else {
                None
            });
        }
        self.slot += 1;
    }
}

/// Mid-run state of the elephants-and-mice mix.
#[derive(Debug, Clone)]
pub struct MixState {
    fraction: f64,
    p_elephant: f64,
    p_mice: f64,
    /// Per-processor elephant flags, chosen lazily on the first slot.
    elephants: Vec<bool>,
}

impl MixState {
    fn new(fraction: f64, elephant_rate: f64, mice_rate: f64) -> Self {
        MixState {
            fraction: if fraction.is_nan() {
                0.0
            } else {
                fraction.clamp(0.0, 1.0)
            },
            p_elephant: slot_probability(elephant_rate),
            p_mice: slot_probability(mice_rate),
            elephants: Vec::new(),
        }
    }

    fn injections_into<R: Rng>(&mut self, n: usize, rng: &mut R, out: &mut Vec<Option<usize>>) {
        if self.elephants.len() != n {
            // First slot: choose round(fraction · n) elephants by a partial
            // Fisher-Yates over the processor indices, from the run RNG.
            let count = ((self.fraction * n as f64).round() as usize).min(n);
            let mut indices: Vec<usize> = (0..n).collect();
            for i in 0..count {
                let j = i + rng.gen_range(0..n - i);
                indices.swap(i, j);
            }
            self.elephants.clear();
            self.elephants.resize(n, false);
            for &idx in &indices[..count] {
                self.elephants[idx] = true;
            }
        }
        out.clear();
        for src in 0..n {
            let p = if self.elephants[src] {
                self.p_elephant
            } else {
                self.p_mice
            };
            out.push(poisson_inject(src, n, p, None, rng));
        }
    }
}

/// One parsed trace event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TraceEvent {
    slot: u64,
    src: usize,
    dst: usize,
}

/// Lazy, bounded-memory replay of a `.trc` demand stream: the reader is
/// pulled one line at a time, and the only resident demand state is a
/// single lookahead event — the first event past the current slot.  Peak
/// memory is O(line buffer), independent of trace length.
///
/// Replay assumes a stream [`validate_trace`] accepted; a malformed line,
/// an out-of-range node id, a non-monotonic slot or an I/O error mid-run
/// panics with the line number (the typed front door rejects such traces
/// before a run starts).
pub struct TraceReplay {
    reader: Box<dyn BufRead + Send>,
    /// 1-based number of the last line read.
    line: u64,
    /// The next slot [`TraceReplay::injections_into`] will serve.
    slot: u64,
    /// The one lookahead event: first event with `event.slot > served`.
    pending: Option<TraceEvent>,
    /// Reader exhausted — every later slot injects nothing.
    exhausted: bool,
    buf: String,
}

impl fmt::Debug for TraceReplay {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TraceReplay")
            .field("line", &self.line)
            .field("slot", &self.slot)
            .field("pending", &self.pending)
            .field("exhausted", &self.exhausted)
            .finish_non_exhaustive()
    }
}

impl TraceReplay {
    /// Wraps any buffered reader — a [`std::io::BufReader`] over the trace
    /// file in production, an in-memory cursor or synthetic generator in
    /// tests.
    pub fn new<R: BufRead + Send + 'static>(reader: R) -> Self {
        TraceReplay {
            reader: Box::new(reader),
            line: 0,
            slot: 0,
            pending: None,
            exhausted: false,
            buf: String::new(),
        }
    }

    /// Number of lines pulled from the reader so far — the laziness
    /// observable: after serving slot `s`, at most the events of slots
    /// `0..=s` plus one lookahead line (and its preceding comments) have
    /// been read, regardless of how long the trace is.
    pub fn lines_consumed(&self) -> u64 {
        self.line
    }

    /// The injection decisions of the next slot, in trace order.
    fn injections_into(&mut self, n: usize, out: &mut Vec<Option<usize>>) {
        out.clear();
        out.resize(n, None);
        let slot = self.slot;
        self.slot += 1;
        loop {
            let event = match self.pending.take() {
                Some(event) => event,
                None => match self.next_event() {
                    Some(event) => event,
                    None => return,
                },
            };
            if event.slot > slot {
                self.pending = Some(event);
                return;
            }
            assert!(
                event.slot == slot,
                "trace line {}: slot {} after slot {} (slots must be non-decreasing)",
                self.line,
                event.slot,
                slot.saturating_sub(1),
            );
            assert!(
                event.src < n && event.dst < n,
                "trace line {}: node id out of range for {n} processors",
                self.line,
            );
            assert!(
                event.src != event.dst,
                "trace line {}: processor {} sends to itself",
                self.line,
                event.src,
            );
            assert!(
                out[event.src].is_none(),
                "trace line {}: duplicate source {} in slot {slot}",
                self.line,
                event.src,
            );
            out[event.src] = Some(event.dst);
        }
    }

    /// Pulls lines until the next event or EOF.
    fn next_event(&mut self) -> Option<TraceEvent> {
        if self.exhausted {
            return None;
        }
        loop {
            self.buf.clear();
            let read = self
                .reader
                .read_line(&mut self.buf)
                .unwrap_or_else(|e| panic!("trace line {}: read failed: {e}", self.line + 1));
            if read == 0 {
                self.exhausted = true;
                return None;
            }
            self.line += 1;
            match parse_trace_line(&self.buf, self.line) {
                Ok(Some(event)) => return Some(event),
                Ok(None) => continue,
                Err(e) => panic!("{e}"),
            }
        }
    }
}

/// Parses one `.trc` line: `Ok(None)` for blanks and comments,
/// `Ok(Some(event))` for `slot src dst`.
fn parse_trace_line(line: &str, lineno: u64) -> Result<Option<TraceEvent>, TraceError> {
    let text = line.split('#').next().unwrap_or("").trim();
    if text.is_empty() {
        return Ok(None);
    }
    let mut fields = text.split_whitespace();
    let (Some(slot), Some(src), Some(dst), None) =
        (fields.next(), fields.next(), fields.next(), fields.next())
    else {
        return Err(TraceError::Syntax {
            line: lineno,
            detail: format!("expected `slot src dst`, got `{text}`"),
        });
    };
    let parse = |field: &str, name: &str| -> Result<u64, TraceError> {
        field.parse().map_err(|_| TraceError::Syntax {
            line: lineno,
            detail: format!("{name} `{field}` is not a non-negative integer"),
        })
    };
    Ok(Some(TraceEvent {
        slot: parse(slot, "slot")?,
        src: parse(src, "src")? as usize,
        dst: parse(dst, "dst")? as usize,
    }))
}

/// A violation of the `.trc` format, with the 1-based line it was found
/// on — the trace-side mirror of the `.scn` config errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// The line is not `slot src dst` with non-negative integer fields.
    Syntax {
        /// 1-based line number.
        line: u64,
        /// What was wrong with the line.
        detail: String,
    },
    /// A node id is `>= n` for the network the trace was bound against.
    NodeOutOfRange {
        /// 1-based line number.
        line: u64,
        /// The offending node id.
        node: usize,
        /// The network's processor count.
        nodes: usize,
    },
    /// An event's slot is lower than its predecessor's.
    NonMonotonic {
        /// 1-based line number.
        line: u64,
        /// The offending slot.
        slot: u64,
        /// The slot of the preceding event.
        previous: u64,
    },
    /// An event sends a processor's message to itself.
    SelfAddressed {
        /// 1-based line number.
        line: u64,
        /// The processor addressing itself.
        node: usize,
    },
    /// Two events share a `(slot, src)` pair — a processor injects at most
    /// one message per slot.
    DuplicateSource {
        /// 1-based line number of the *second* event.
        line: u64,
        /// The slot both events share.
        slot: u64,
        /// The source both events share.
        src: usize,
    },
    /// The reader failed mid-validation.
    Io {
        /// 1-based line number being read when the failure occurred.
        line: u64,
        /// The I/O error rendered as text.
        detail: String,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Syntax { line, detail } => write!(f, "trace line {line}: {detail}"),
            TraceError::NodeOutOfRange { line, node, nodes } => write!(
                f,
                "trace line {line}: node {node} out of range for {nodes} processors"
            ),
            TraceError::NonMonotonic {
                line,
                slot,
                previous,
            } => write!(
                f,
                "trace line {line}: slot {slot} after slot {previous} (slots must be non-decreasing)"
            ),
            TraceError::SelfAddressed { line, node } => {
                write!(f, "trace line {line}: processor {node} sends to itself")
            }
            TraceError::DuplicateSource { line, slot, src } => write!(
                f,
                "trace line {line}: duplicate source {src} in slot {slot}"
            ),
            TraceError::Io { line, detail } => {
                write!(f, "trace line {line}: read failed: {detail}")
            }
        }
    }
}

impl std::error::Error for TraceError {}

/// Summary statistics gathered by the single [`validate_trace`] streaming
/// pass: the event count and the last (highest) slot any event lands in.
/// Everything a caller needs to derive the trace's mean offered load
/// without a second pass over the file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceStats {
    /// Number of injection events in the trace.
    pub events: u64,
    /// The slot of the final event, `None` for an empty trace.  Replay
    /// spans slots `0..=last_slot` (slots are validated non-decreasing, so
    /// this is also the maximum).
    pub last_slot: Option<u64>,
}

impl TraceStats {
    /// The trace's mean offered load on an `n`-processor network:
    /// `events / ((last_slot + 1) · n)` injections per slot per node.  An
    /// empty trace offers load `0.0` (not `0/0`); always finite for
    /// `n >= 1`.
    pub fn offered_load(&self, n: usize) -> f64 {
        match self.last_slot {
            None => 0.0,
            Some(last) => self.events as f64 / ((last + 1) as f64 * n as f64),
        }
    }
}

/// Streams a `.trc` trace once and checks every event against the format
/// rules and an `n`-processor network: syntax, node ranges, non-decreasing
/// slots, no self-addressing, at most one event per `(slot, src)`.
/// Returns the event count and slot span as [`TraceStats`] on success;
/// memory is O(n) (the per-source slot stamps), independent of trace
/// length.
pub fn validate_trace<R: BufRead>(reader: R, n: usize) -> Result<TraceStats, TraceError> {
    let mut events = 0u64;
    let mut previous: Option<u64> = None;
    // stamps[src] = the last slot src injected in, offset by one so the
    // zero-fill means "never".
    let mut stamps = vec![0u64; n];
    let mut lineno = 0u64;
    for line in reader.lines() {
        lineno += 1;
        let line = line.map_err(|e| TraceError::Io {
            line: lineno,
            detail: e.to_string(),
        })?;
        let Some(event) = parse_trace_line(&line, lineno)? else {
            continue;
        };
        if let Some(previous) = previous {
            if event.slot < previous {
                return Err(TraceError::NonMonotonic {
                    line: lineno,
                    slot: event.slot,
                    previous,
                });
            }
        }
        previous = Some(event.slot);
        for node in [event.src, event.dst] {
            if node >= n {
                return Err(TraceError::NodeOutOfRange {
                    line: lineno,
                    node,
                    nodes: n,
                });
            }
        }
        if event.src == event.dst {
            return Err(TraceError::SelfAddressed {
                line: lineno,
                node: event.src,
            });
        }
        if stamps[event.src] == event.slot + 1 {
            return Err(TraceError::DuplicateSource {
                line: lineno,
                slot: event.slot,
                src: event.src,
            });
        }
        stamps[event.src] = event.slot + 1;
        events += 1;
    }
    Ok(TraceStats {
        events,
        last_slot: previous,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::io::Cursor;

    fn drive(source: &mut DemandSource, n: usize, slots: usize, seed: u64) -> Vec<Option<usize>> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut out = Vec::new();
        let mut all = Vec::new();
        for _ in 0..slots {
            source.injections_into(n, &mut rng, &mut out);
            assert_eq!(out.len(), n);
            all.extend(out.iter().copied());
        }
        all
    }

    #[test]
    fn pattern_source_matches_the_pattern_verbatim() {
        let pattern = TrafficPattern::Uniform { load: 0.4 };
        let mut direct_rng = StdRng::seed_from_u64(9);
        let mut direct = Vec::new();
        let mut expected = Vec::new();
        for _ in 0..50 {
            pattern.injections_into(12, &mut direct_rng, &mut direct);
            expected.extend(direct.iter().copied());
        }
        let mut source = DemandSpec::Pattern(pattern).source().unwrap();
        assert_eq!(drive(&mut source, 12, 50, 9), expected);
    }

    #[test]
    fn poisson_rate_matches_slot_probability() {
        let spec = DemandSpec::Poisson {
            rate: 0.5,
            dst: None,
        };
        let expected = 1.0 - (-0.5f64).exp();
        assert!((spec.offered_load() - expected).abs() < 1e-12);
        let (n, slots) = (40, 3000);
        let mut source = spec.source().unwrap();
        let all = drive(&mut source, n, slots, 3);
        let rate = all.iter().flatten().count() as f64 / (n * slots) as f64;
        assert!((rate - expected).abs() < 0.01, "measured {rate}");
        // Rates above 1 stay valid probabilities.
        let heavy = DemandSpec::Poisson {
            rate: 3.0,
            dst: None,
        };
        assert!(heavy.offered_load() < 1.0 && heavy.offered_load() > 0.95);
    }

    #[test]
    fn poisson_never_self_addresses_and_fixed_dst_silences_its_node() {
        let mut source = DemandSpec::Poisson {
            rate: 5.0,
            dst: None,
        }
        .source()
        .unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let mut out = Vec::new();
        for _ in 0..100 {
            source.injections_into(10, &mut rng, &mut out);
            for (src, dst) in out.iter().enumerate() {
                assert_ne!(Some(src), *dst);
            }
        }
        let spec = DemandSpec::Poisson {
            rate: 5.0,
            dst: Some(3),
        };
        let mut source = spec.source().unwrap();
        for (src, dst) in drive(&mut source, 10, 100, 13).iter().enumerate() {
            if let Some(d) = dst {
                assert_eq!(*d, 3, "src {}", src % 10);
            }
        }
        let mut source = spec.source().unwrap();
        let all = drive(&mut source, 10, 100, 13);
        assert!(
            (0..100).all(|slot| all[slot * 10 + 3].is_none()),
            "the fixed destination never injects"
        );
        assert!(
            (spec.effective_load(10) - spec.offered_load() * 0.9).abs() < 1e-12,
            "effective load drops the silent node"
        );
    }

    #[test]
    fn onoff_duty_cycle_scales_the_rate() {
        let spec = DemandSpec::OnOff {
            rate: 0.8,
            burst_len: 5,
            idle_len: 15,
        };
        let p = 1.0 - (-0.8f64).exp();
        assert!((spec.offered_load() - p * 0.25).abs() < 1e-12);
        let (n, slots) = (40, 4000);
        let mut source = spec.source().unwrap();
        let all = drive(&mut source, n, slots, 5);
        let rate = all.iter().flatten().count() as f64 / (n * slots) as f64;
        assert!(
            (rate - spec.offered_load()).abs() < 0.01,
            "measured {rate}, expected {}",
            spec.offered_load()
        );
    }

    #[test]
    fn onoff_is_bursty_per_processor() {
        // With a long cycle, one processor's injections concentrate in ON
        // windows: consecutive-slot activity must far exceed the stationary
        // expectation for the same mean rate.
        let mut source = DemandSpec::OnOff {
            rate: 1.5,
            burst_len: 10,
            idle_len: 90,
        }
        .source()
        .unwrap();
        let n = 8;
        let slots = 2000;
        let all = drive(&mut source, n, slots, 7);
        let active: Vec<bool> = (0..slots).map(|s| all[s * n].is_some()).collect();
        let injections = active.iter().filter(|&&a| a).count();
        let adjacent = active.windows(2).filter(|w| w[0] && w[1]).count();
        assert!(injections > 50, "{injections} injections");
        // Stationary traffic at the same mean rate (~0.078) would make
        // P(next also active) ≈ 0.078; bursts push it near the ON-phase
        // probability (~0.78).
        let conditional = adjacent as f64 / injections as f64;
        assert!(conditional > 0.4, "conditional activity {conditional}");
    }

    #[test]
    fn mix_separates_elephants_from_mice() {
        let spec = DemandSpec::Mix {
            fraction: 0.25,
            elephant_rate: 2.0,
            mice_rate: 0.05,
        };
        let n = 16;
        let slots = 2000;
        let mut source = spec.source().unwrap();
        let all = drive(&mut source, n, slots, 17);
        let mut per_node = vec![0usize; n];
        for (i, dst) in all.iter().enumerate() {
            if dst.is_some() {
                per_node[i % n] += 1;
            }
        }
        let p_elephant = 1.0 - (-2.0f64).exp();
        let heavy = per_node
            .iter()
            .filter(|&&c| c as f64 / slots as f64 > p_elephant / 2.0)
            .count();
        assert_eq!(heavy, 4, "round(0.25 · 16) elephants: {per_node:?}");
        let total = per_node.iter().sum::<usize>() as f64 / (n * slots) as f64;
        assert!((total - spec.offered_load()).abs() < 0.02, "mean {total}");
    }

    #[test]
    fn stochastic_sources_reproduce_per_seed() {
        for spec in [
            DemandSpec::Poisson {
                rate: 0.4,
                dst: None,
            },
            DemandSpec::OnOff {
                rate: 0.9,
                burst_len: 4,
                idle_len: 6,
            },
            DemandSpec::Mix {
                fraction: 0.3,
                elephant_rate: 1.2,
                mice_rate: 0.1,
            },
        ] {
            let mut a = spec.source().unwrap();
            let mut b = spec.source().unwrap();
            assert_eq!(
                drive(&mut a, 10, 200, 23),
                drive(&mut b, 10, 200, 23),
                "{spec:?} must be deterministic per seed"
            );
            let mut c = spec.source().unwrap();
            assert_ne!(
                drive(&mut b, 10, 200, 23),
                drive(&mut c, 10, 200, 24),
                "{spec:?} must vary with the seed"
            );
        }
    }

    #[test]
    fn nan_and_negative_rates_saturate_to_silence() {
        for spec in [
            DemandSpec::Poisson {
                rate: f64::NAN,
                dst: None,
            },
            DemandSpec::Poisson {
                rate: -1.0,
                dst: None,
            },
            DemandSpec::OnOff {
                rate: f64::NAN,
                burst_len: 2,
                idle_len: 2,
            },
            DemandSpec::Mix {
                fraction: f64::NAN,
                elephant_rate: f64::NAN,
                mice_rate: -2.0,
            },
        ] {
            assert_eq!(spec.offered_load(), 0.0, "{spec:?}");
            let mut source = spec.source().unwrap();
            assert!(
                drive(&mut source, 8, 100, 3).iter().all(|d| d.is_none()),
                "{spec:?} must inject nothing"
            );
        }
    }

    #[test]
    fn tiny_networks_inject_nothing() {
        for spec in [
            DemandSpec::Poisson {
                rate: 5.0,
                dst: None,
            },
            DemandSpec::OnOff {
                rate: 5.0,
                burst_len: 2,
                idle_len: 1,
            },
            DemandSpec::Mix {
                fraction: 0.5,
                elephant_rate: 5.0,
                mice_rate: 5.0,
            },
        ] {
            let mut source = spec.source().unwrap();
            assert!(drive(&mut source, 1, 20, 3).iter().all(|d| d.is_none()));
            let mut source = spec.source().unwrap();
            assert!(drive(&mut source, 0, 20, 3).is_empty());
        }
    }

    #[test]
    fn trace_replay_serves_events_at_their_slots() {
        let text = "\
# demand for a 4-processor run
0 0 1
0 2 3   # trailing comment
2 1 0

3 3 2
3 0 2
";
        let mut replay = TraceReplay::new(Cursor::new(text));
        let mut out = Vec::new();
        replay.injections_into(4, &mut out);
        assert_eq!(out, vec![Some(1), None, Some(3), None]);
        replay.injections_into(4, &mut out);
        assert_eq!(out, vec![None; 4]);
        replay.injections_into(4, &mut out);
        assert_eq!(out, vec![None, Some(0), None, None]);
        replay.injections_into(4, &mut out);
        assert_eq!(out, vec![Some(2), None, None, Some(2)]);
        // Past the end: silence forever.
        for _ in 0..3 {
            replay.injections_into(4, &mut out);
            assert_eq!(out, vec![None; 4]);
        }
    }

    /// An unbounded synthetic trace: generates `slot src dst` lines on the
    /// fly, so reading it eagerly would never terminate — only a lazy
    /// replay can consume it.
    struct SyntheticTrace {
        next_slot: u64,
        carry: Vec<u8>,
    }

    impl io::Read for SyntheticTrace {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.carry.is_empty() {
                let slot = self.next_slot;
                self.next_slot += 1;
                self.carry = format!("{slot} {} {}\n", slot % 7, (slot + 1) % 7).into_bytes();
            }
            let take = self.carry.len().min(buf.len());
            buf[..take].copy_from_slice(&self.carry[..take]);
            self.carry.drain(..take);
            Ok(take)
        }
    }

    #[test]
    fn trace_replay_is_lazy_and_bounded() {
        // One event per slot, forever.  Serving 100 slots must read ~101
        // lines (the served events plus one lookahead), no matter that the
        // trace never ends.
        let mut replay = TraceReplay::new(io::BufReader::new(SyntheticTrace {
            next_slot: 0,
            carry: Vec::new(),
        }));
        let mut out = Vec::new();
        for slot in 0..100u64 {
            replay.injections_into(7, &mut out);
            let src = (slot % 7) as usize;
            assert_eq!(out[src], Some(((slot + 1) % 7) as usize));
            assert_eq!(out.iter().flatten().count(), 1);
        }
        assert_eq!(
            replay.lines_consumed(),
            101,
            "replay must stay one lookahead line ahead of the served slot"
        );
    }

    #[test]
    fn validate_accepts_the_format_and_counts_events() {
        let text = "# header\n0 0 1\n0 1 0\n5 2 0\n\n5 0 2 # ok\n";
        let stats = validate_trace(Cursor::new(text), 3).unwrap();
        assert_eq!(
            stats,
            TraceStats {
                events: 4,
                last_slot: Some(5),
            }
        );
        // 4 events over slots 0..=5 on 3 nodes.
        assert_eq!(stats.offered_load(3), 4.0 / 18.0);
        let empty = validate_trace(Cursor::new(""), 3).unwrap();
        assert_eq!(
            empty,
            TraceStats {
                events: 0,
                last_slot: None,
            }
        );
        // An empty trace offers a defined load of zero, not 0/0.
        assert_eq!(empty.offered_load(3), 0.0);
    }

    #[test]
    fn validate_reports_line_numbered_errors() {
        let cases: [(&str, TraceError); 7] = [
            (
                "0 0 1\n1 2\n",
                TraceError::Syntax {
                    line: 2,
                    detail: "expected `slot src dst`, got `1 2`".into(),
                },
            ),
            (
                "0 0 1\nnot 0 1\n",
                TraceError::Syntax {
                    line: 2,
                    detail: "slot `not` is not a non-negative integer".into(),
                },
            ),
            (
                "0 0 1\n1 0 -2\n",
                TraceError::Syntax {
                    line: 2,
                    detail: "dst `-2` is not a non-negative integer".into(),
                },
            ),
            (
                "# ok\n0 0 9\n",
                TraceError::NodeOutOfRange {
                    line: 2,
                    node: 9,
                    nodes: 4,
                },
            ),
            (
                "3 0 1\n2 1 0\n",
                TraceError::NonMonotonic {
                    line: 2,
                    slot: 2,
                    previous: 3,
                },
            ),
            ("0 2 2\n", TraceError::SelfAddressed { line: 1, node: 2 }),
            (
                "0 1 2\n0 1 3\n",
                TraceError::DuplicateSource {
                    line: 2,
                    slot: 0,
                    src: 1,
                },
            ),
        ];
        for (text, expected) in cases {
            let err = validate_trace(Cursor::new(text), 4).unwrap_err();
            assert_eq!(err, expected, "{text:?}");
            assert!(err.to_string().contains("line"), "{err}");
        }
    }

    #[test]
    fn validate_allows_distinct_sources_and_source_reuse_across_slots() {
        let text = "0 1 2\n0 2 1\n1 1 2\n";
        assert_eq!(validate_trace(Cursor::new(text), 3).unwrap().events, 3);
    }

    #[test]
    fn trace_spec_loads_are_undefined_until_measured() {
        let spec = DemandSpec::Trace {
            path: "whatever.trc".into(),
            offered_load: None,
        };
        assert!(spec.offered_load().is_nan());
        assert!(spec.effective_load(8).is_nan());
        // Once the bind-time pass has measured the file, the spec reports
        // the measured mean — and what the replay injects is exactly what
        // enters the network, so offered and effective coincide.
        let bound = DemandSpec::Trace {
            path: "whatever.trc".into(),
            offered_load: Some(0.125),
        };
        assert_eq!(bound.offered_load(), 0.125);
        assert_eq!(bound.effective_load(8), 0.125);
        assert_eq!(bound.effective_load(1), 0.125);
        // Finite loads keep the derived equality reflexive.
        assert_eq!(bound, bound.clone());
    }

    #[test]
    fn matched_on_off_offers_the_poisson_mean_exactly() {
        for (mean, burst, idle) in [(0.25, 16, 48), (0.1, 4, 4), (0.002, 1, 99), (0.6, 32, 8)] {
            let poisson = DemandSpec::Poisson {
                rate: mean,
                dst: None,
            };
            let matched = DemandSpec::matched_on_off(mean, burst, idle);
            let gap = (matched.offered_load() - poisson.offered_load()).abs();
            assert!(
                gap < 1e-15,
                "matched_on_off({mean},{burst},{idle}) offers {} vs poisson's {}",
                matched.offered_load(),
                poisson.offered_load()
            );
            // The burst-phase rate really is hotter than the mean.
            match matched {
                DemandSpec::OnOff { rate, .. } => assert!(rate > mean),
                _ => unreachable!(),
            }
        }
        // A zero mean matches trivially with a silent burst phase.
        assert_eq!(matched_burst_rate(0.0, 16, 48), 0.0);
    }

    #[test]
    #[should_panic(expected = "duty cycle")]
    fn matched_on_off_refuses_unreachable_means() {
        // p = 1 − e^(−2) ≈ 0.86 against a 1/10 duty cycle needs an ON-phase
        // injection probability of 8.6 — impossible.
        matched_burst_rate(2.0, 1, 9);
    }

    #[test]
    fn trace_spec_source_opens_the_file() {
        let missing = DemandSpec::Trace {
            path: "/nonexistent/demand.trc".into(),
            offered_load: None,
        };
        assert!(missing.source().is_err());
    }
}

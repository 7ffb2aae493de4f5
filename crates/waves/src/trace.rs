//! A named collection of monitored waveforms — the output of one simulation
//! run, digital and analog signals together.

use crate::{AnalogWave, DigitalWave, Logic, PushOutOfOrderError, Time};
use std::collections::BTreeMap;
use std::fmt::{self, Write as _};
use std::sync::Arc;

/// A digital signal of a [`Trace`], resolved once by name with
/// [`Trace::resolve_digital`] and then recorded by index with
/// [`Trace::record_digital_slot`].
///
/// A slot belongs to the trace that resolved it and stays valid in that
/// trace's clones and after [`Trace::absorb`] or
/// [`Trace::splice_golden_suffix`] into it: slots are only ever appended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DigitalSlot(usize);

/// An analog signal of a [`Trace`], resolved once by name with
/// [`Trace::resolve_analog`]; the analog twin of [`DigitalSlot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AnalogSlot(usize);

/// The waveform kinds a [`Trace`] holds, so one generic [`Signals`] table
/// serves both.
trait Wave: Default + PartialEq + fmt::Debug {
    type Value: Copy;
    fn push(&mut self, time: Time, value: Self::Value) -> Result<(), PushOutOfOrderError>;
    fn points(&self) -> &[(Time, Self::Value)];
}

impl Wave for DigitalWave {
    type Value = Logic;
    fn push(&mut self, time: Time, value: Logic) -> Result<(), PushOutOfOrderError> {
        DigitalWave::push(self, time, value)
    }
    fn points(&self) -> &[(Time, Logic)] {
        self.transitions()
    }
}

impl Wave for AnalogWave {
    type Value = f64;
    fn push(&mut self, time: Time, value: f64) -> Result<(), PushOutOfOrderError> {
        AnalogWave::push(self, time, value)
    }
    fn points(&self) -> &[(Time, f64)] {
        self.samples()
    }
}

/// The signals of one kind: a name → slot layout plus one wave per slot.
///
/// The layout is shared between clones (a lane cloning the golden trace
/// copies only the waves) and copied on the first new name. A slot whose
/// wave is empty has been resolved but never recorded: the signal is
/// *absent*, exactly as if its name were unknown. No push empties a wave,
/// so presence is simply non-emptiness.
#[derive(Clone)]
struct Signals<W> {
    layout: Arc<BTreeMap<String, usize>>,
    waves: Vec<W>,
}

impl<W> Default for Signals<W> {
    fn default() -> Self {
        Signals {
            layout: Arc::default(),
            waves: Vec::new(),
        }
    }
}

impl<W: Wave> Signals<W> {
    fn resolve(&mut self, name: &str) -> usize {
        if let Some(&slot) = self.layout.get(name) {
            return slot;
        }
        let slot = self.waves.len();
        Arc::make_mut(&mut self.layout).insert(name.to_owned(), slot);
        self.waves.push(W::default());
        slot
    }

    fn get(&self, name: &str) -> Option<&W> {
        let wave = &self.waves[*self.layout.get(name)?];
        (!wave.points().is_empty()).then_some(wave)
    }

    /// Recorded signals in name order.
    fn present(&self) -> impl Iterator<Item = (&str, &W)> {
        self.layout
            .iter()
            .map(|(name, &slot)| (name.as_str(), &self.waves[slot]))
            .filter(|(_, wave)| !wave.points().is_empty())
    }

    fn absorb(&mut self, mut other: Signals<W>) {
        for (name, &slot) in other.layout.iter() {
            let wave = std::mem::take(&mut other.waves[slot]);
            if !wave.points().is_empty() {
                let mine = self.resolve(name);
                self.waves[mine] = wave;
            }
        }
    }

    /// Pushes `golden`'s points strictly after `at`, one pass per golden
    /// wave. Point by point through `push`, not a bulk append: same-time
    /// overwrites can leave equal consecutive values in the golden wave,
    /// which `push` then merges exactly as simulating would have.
    fn splice_suffix(&mut self, golden: &Signals<W>, at: Time) {
        let shared = Arc::ptr_eq(&self.layout, &golden.layout);
        for (name, &slot) in golden.layout.iter() {
            let points = golden.waves[slot].points();
            let suffix = &points[points.partition_point(|&(t, _)| t <= at)..];
            if suffix.is_empty() {
                continue;
            }
            let mine = if shared { slot } else { self.resolve(name) };
            let wave = &mut self.waves[mine];
            for &(t, v) in suffix {
                wave.push(t, v)
                    .expect("golden suffix point precedes lane prefix end");
            }
        }
    }
}

impl<W: Wave> PartialEq for Signals<W> {
    fn eq(&self, other: &Self) -> bool {
        self.present().eq(other.present())
    }
}

impl<W: Wave> fmt::Debug for Signals<W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.present()).finish()
    }
}

/// The waveforms recorded by one simulation run.
///
/// Signals are keyed by hierarchical name (e.g. `"pll.vco_in"`). A `Trace`
/// is what the campaign engine compares between a golden run and each fault
/// injection run.
///
/// # Examples
///
/// ```
/// use amsfi_waves::{Logic, Time, Trace};
///
/// let mut trace = Trace::new();
/// trace.record_digital("clk", Time::ZERO, Logic::Zero)?;
/// trace.record_analog("vctrl", Time::ZERO, 2.5)?;
/// assert_eq!(trace.digital("clk").unwrap().value_at(Time::ZERO), Logic::Zero);
/// # Ok::<(), amsfi_waves::PushOutOfOrderError>(())
/// ```
///
/// Simulators that record the same signals at every time point resolve
/// each name once to a slot and record by index, with no name lookup or
/// allocation per sample. A resolved signal stays absent until its first
/// sample:
///
/// ```
/// use amsfi_waves::{Logic, Time, Trace};
///
/// let mut trace = Trace::new();
/// let q0 = trace.resolve_digital("q[0]");
/// assert!(trace.digital("q[0]").is_none() && trace.is_empty());
/// trace.record_digital_slot(q0, Time::ZERO, Logic::One)?;
/// assert_eq!(trace.digital_names().collect::<Vec<_>>(), ["q[0]"]);
/// # Ok::<(), amsfi_waves::PushOutOfOrderError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Trace {
    digital: Signals<DigitalWave>,
    analog: Signals<AnalogWave>,
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// The slot of the named digital signal, creating it (absent until
    /// recorded) if needed.
    pub fn resolve_digital(&mut self, name: &str) -> DigitalSlot {
        DigitalSlot(self.digital.resolve(name))
    }

    /// The slot of the named analog signal, creating it (absent until
    /// recorded) if needed.
    pub fn resolve_analog(&mut self, name: &str) -> AnalogSlot {
        AnalogSlot(self.analog.resolve(name))
    }

    /// Appends a transition to the digital signal at `slot`.
    ///
    /// # Errors
    ///
    /// Returns [`PushOutOfOrderError`] if `time` precedes the signal's last
    /// recorded transition.
    ///
    /// # Panics
    ///
    /// Panics if `slot` was not resolved on this trace (or a trace it was
    /// cloned from).
    pub fn record_digital_slot(
        &mut self,
        slot: DigitalSlot,
        time: Time,
        value: Logic,
    ) -> Result<(), PushOutOfOrderError> {
        self.digital.waves[slot.0].push(time, value)
    }

    /// Appends a sample to the analog signal at `slot`.
    ///
    /// # Errors
    ///
    /// Returns [`PushOutOfOrderError`] if `time` precedes the signal's last
    /// recorded sample.
    ///
    /// # Panics
    ///
    /// Panics if `slot` was not resolved on this trace (or a trace it was
    /// cloned from).
    pub fn record_analog_slot(
        &mut self,
        slot: AnalogSlot,
        time: Time,
        value: f64,
    ) -> Result<(), PushOutOfOrderError> {
        self.analog.waves[slot.0].push(time, value)
    }

    /// Appends a transition to the named digital signal, creating it if
    /// needed.
    ///
    /// # Errors
    ///
    /// Returns [`PushOutOfOrderError`] if `time` precedes the signal's last
    /// recorded transition.
    pub fn record_digital(
        &mut self,
        name: &str,
        time: Time,
        value: Logic,
    ) -> Result<(), PushOutOfOrderError> {
        let slot = self.resolve_digital(name);
        self.record_digital_slot(slot, time, value)
    }

    /// Appends a sample to the named analog signal, creating it if needed.
    ///
    /// # Errors
    ///
    /// Returns [`PushOutOfOrderError`] if `time` precedes the signal's last
    /// recorded sample.
    pub fn record_analog(
        &mut self,
        name: &str,
        time: Time,
        value: f64,
    ) -> Result<(), PushOutOfOrderError> {
        let slot = self.resolve_analog(name);
        self.record_analog_slot(slot, time, value)
    }

    /// The named digital waveform, if recorded.
    pub fn digital(&self, name: &str) -> Option<&DigitalWave> {
        self.digital.get(name)
    }

    /// The named analog waveform, if recorded.
    pub fn analog(&self, name: &str) -> Option<&AnalogWave> {
        self.analog.get(name)
    }

    /// Names of all recorded digital signals, sorted.
    pub fn digital_names(&self) -> impl Iterator<Item = &str> {
        self.digital.present().map(|(name, _)| name)
    }

    /// Names of all recorded analog signals, sorted.
    pub fn analog_names(&self) -> impl Iterator<Item = &str> {
        self.analog.present().map(|(name, _)| name)
    }

    /// Number of recorded signals (digital + analog).
    pub fn len(&self) -> usize {
        self.digital.present().count() + self.analog.present().count()
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The latest time appearing in any waveform.
    pub fn end_time(&self) -> Option<Time> {
        self.digital
            .waves
            .iter()
            .filter_map(DigitalWave::end_time)
            .chain(self.analog.waves.iter().filter_map(AnalogWave::end_time))
            .max()
    }

    /// Merges another trace into this one. Signals with the same name are
    /// replaced by `other`'s waveform.
    pub fn absorb(&mut self, other: Trace) {
        self.digital.absorb(other.digital);
        self.analog.absorb(other.analog);
    }

    /// Completes this trace (recorded up to time `at`) with `golden`'s
    /// records strictly after `at`.
    ///
    /// This is the reconvergence-seal splice of the batch simulator: once a
    /// mutant lane's full machine state is exactly equal to the golden
    /// machine's at `at`, its future is the golden future, so the lane's
    /// remaining waveform is the golden waveform. Because both sides record
    /// only value *changes* and the values at `at` agree, the spliced trace
    /// is identical to what simulating the lane to the end would record.
    pub fn splice_golden_suffix(&mut self, golden: &Trace, at: Time) {
        self.digital.splice_suffix(&golden.digital, at);
        self.analog.splice_suffix(&golden.analog, at);
    }

    /// Approximate resident size of the recorded data in bytes: payload
    /// vectors plus signal names (map/allocator overhead excluded). Used
    /// for memory-telemetry counters such as the engine's shared
    /// golden-trace gauge.
    pub fn approx_bytes(&self) -> u64 {
        let digital: usize = self
            .digital
            .present()
            .map(|(name, w)| name.len() + std::mem::size_of_val(w.transitions()))
            .sum();
        let analog: usize = self
            .analog
            .present()
            .map(|(name, w)| name.len() + std::mem::size_of_val(w.samples()))
            .sum();
        (digital + analog) as u64
    }

    /// Renders the analog signals as CSV sampled every `step` over
    /// `[from, to]`, one time column plus one column per signal, suitable for
    /// external plotting of the paper's figures.
    ///
    /// # Panics
    ///
    /// Panics if `step` is zero or negative.
    pub fn analog_csv(&self, from: Time, to: Time, step: Time) -> String {
        assert!(step > Time::ZERO, "step must be positive");
        let mut out = String::from("time_s");
        for (name, _) in self.analog.present() {
            let _ = write!(out, ",{name}");
        }
        out.push('\n');
        let mut t = from;
        while t <= to {
            let _ = write!(out, "{}", t.as_secs_f64());
            for (_, wave) in self.analog.present() {
                let _ = write!(out, ",{}", wave.value_at(t));
            }
            out.push('\n');
            t += step;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_retrieves_both_kinds() {
        let mut tr = Trace::new();
        tr.record_digital("clk", Time::ZERO, Logic::One).unwrap();
        tr.record_digital("clk", Time::from_ns(10), Logic::Zero)
            .unwrap();
        tr.record_analog("vctrl", Time::ZERO, 2.5).unwrap();
        assert_eq!(tr.len(), 2);
        assert_eq!(tr.digital("clk").unwrap().len(), 2);
        assert_eq!(tr.analog("vctrl").unwrap().value_at(Time::ZERO), 2.5);
        assert!(tr.digital("nope").is_none());
        assert_eq!(tr.end_time(), Some(Time::from_ns(10)));
    }

    #[test]
    fn names_are_sorted() {
        let mut tr = Trace::new();
        tr.record_analog("b", Time::ZERO, 0.0).unwrap();
        tr.record_analog("a", Time::ZERO, 0.0).unwrap();
        let names: Vec<&str> = tr.analog_names().collect();
        assert_eq!(names, ["a", "b"]);
    }

    #[test]
    fn csv_has_header_and_rows() {
        let mut tr = Trace::new();
        tr.record_analog("v", Time::ZERO, 1.0).unwrap();
        tr.record_analog("v", Time::from_ns(10), 2.0).unwrap();
        let csv = tr.analog_csv(Time::ZERO, Time::from_ns(10), Time::from_ns(5));
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "time_s,v");
        assert_eq!(lines.len(), 4); // header + t=0,5,10 ns
        assert!(lines[2].ends_with("1.5"));
    }

    #[test]
    fn out_of_order_record_is_an_error() {
        let mut tr = Trace::new();
        tr.record_digital("s", Time::from_ns(5), Logic::One)
            .unwrap();
        assert!(tr.record_digital("s", Time::ZERO, Logic::Zero).is_err());
    }

    #[test]
    fn absorb_merges_traces() {
        let mut a = Trace::new();
        a.record_digital("clk", Time::ZERO, Logic::One).unwrap();
        let mut b = Trace::new();
        b.record_analog("v", Time::ZERO, 1.0).unwrap();
        b.record_digital("clk", Time::ZERO, Logic::Zero).unwrap();
        a.absorb(b);
        assert_eq!(a.len(), 2);
        // The absorbed trace wins on name clashes.
        assert_eq!(a.digital("clk").unwrap().value_at(Time::ZERO), Logic::Zero);
    }

    #[test]
    fn resolved_but_unrecorded_slots_are_absent() {
        let mut tr = Trace::new();
        tr.record_digital("clk", Time::ZERO, Logic::One).unwrap();
        let before = tr.clone();
        let q = tr.resolve_digital("q");
        let v = tr.resolve_analog("v");
        assert!(tr.digital("q").is_none() && tr.analog("v").is_none());
        assert_eq!(tr.digital_names().collect::<Vec<_>>(), ["clk"]);
        assert_eq!(tr.analog_names().count(), 0);
        assert_eq!(tr.len(), 1);
        assert_eq!(tr, before);
        assert_eq!(before, tr);
        assert_eq!(format!("{tr:?}"), format!("{before:?}"));
        assert_eq!(tr.approx_bytes(), before.approx_bytes());
        assert!(Trace::new().resolve_digital("x") == DigitalSlot(0) && Trace::new().is_empty());

        tr.record_digital_slot(q, Time::from_ns(1), Logic::Zero)
            .unwrap();
        tr.record_analog_slot(v, Time::ZERO, 1.5).unwrap();
        assert_eq!(tr.digital_names().collect::<Vec<_>>(), ["clk", "q"]);
        assert_eq!(tr.len(), 3);
        assert_ne!(tr, before);
    }

    #[test]
    fn resolving_twice_returns_the_same_slot() {
        let mut tr = Trace::new();
        let a = tr.resolve_digital("a");
        tr.resolve_digital("b");
        assert_eq!(tr.resolve_digital("a"), a);
        tr.record_digital("a", Time::ZERO, Logic::One).unwrap();
        tr.record_digital_slot(a, Time::from_ns(2), Logic::Zero)
            .unwrap();
        assert_eq!(tr.digital("a").unwrap().len(), 2);
    }

    #[test]
    fn slots_stay_valid_across_clone_absorb_and_splice() {
        let mut golden = Trace::new();
        let out = golden.resolve_digital("out");
        let vout = golden.resolve_analog("vout");
        let unrecorded = golden.clone();
        for ns in [0, 10, 20, 30] {
            let bit = Logic::from_bool(ns % 20 == 0);
            golden
                .record_digital_slot(out, Time::from_ns(ns), bit)
                .unwrap();
            golden
                .record_analog_slot(vout, Time::from_ns(ns), ns as f64)
                .unwrap();
        }
        let at = |t: &Trace| t.digital("out").unwrap().end_time().unwrap();

        // Clone: the golden's slots address the clone's signals, and
        // recording into the clone leaves the golden untouched.
        let pristine = golden.clone();
        let mut lane = golden.clone();
        lane.record_digital_slot(out, Time::from_ns(40), Logic::One)
            .unwrap();
        lane.record_analog_slot(vout, Time::from_ns(40), 4.0)
            .unwrap();
        assert_eq!(at(&lane), Time::from_ns(40));
        assert_eq!(lane.analog("vout").unwrap().len(), 5);
        assert_eq!(golden, pristine);

        // Absorb: new names append, existing slots keep their signal.
        let mut merged = Trace::new();
        let m_out = merged.resolve_digital("out");
        let mut other = Trace::new();
        other.record_digital("aux", Time::ZERO, Logic::One).unwrap();
        other
            .record_digital("out", Time::ZERO, Logic::Zero)
            .unwrap();
        merged.absorb(other);
        merged
            .record_digital_slot(m_out, Time::from_ns(7), Logic::One)
            .unwrap();
        assert_eq!(at(&merged), Time::from_ns(7));
        assert_eq!(merged.digital_names().collect::<Vec<_>>(), ["aux", "out"]);

        // Splice, from a trace with its own layout and from a clone
        // sharing the golden's: both equal the golden, and the slots still
        // record afterwards.
        let mut own = Trace::new();
        let o_out = own.resolve_digital("out");
        let o_vout = own.resolve_analog("vout");
        own.record_digital_slot(o_out, Time::ZERO, Logic::One)
            .unwrap();
        own.record_analog_slot(o_vout, Time::ZERO, 0.0).unwrap();
        own.splice_golden_suffix(&golden, Time::from_ns(5));
        let mut shared = unrecorded.clone();
        shared
            .record_digital_slot(out, Time::ZERO, Logic::One)
            .unwrap();
        shared.record_analog_slot(vout, Time::ZERO, 0.0).unwrap();
        shared.splice_golden_suffix(&golden, Time::from_ns(5));
        assert_eq!(own, golden);
        assert_eq!(shared, golden);
        own.record_digital_slot(o_out, Time::from_ns(50), Logic::One)
            .unwrap();
        shared
            .record_digital_slot(out, Time::from_ns(50), Logic::One)
            .unwrap();
        assert_eq!(own, shared);
        assert_eq!(at(&own), Time::from_ns(50));
    }

    #[test]
    fn splice_keeps_same_time_overwrite_semantics() {
        // Two same-time overwrites leave equal consecutive values in the
        // golden wave (1 @ 10, then 0 @ 20 overwritten to 1 @ 20); the
        // spliced lane must merge them exactly as `push` does.
        let mut golden = Trace::new();
        golden.record_digital("s", Time::ZERO, Logic::Zero).unwrap();
        golden
            .record_digital("s", Time::from_ns(10), Logic::One)
            .unwrap();
        golden
            .record_digital("s", Time::from_ns(20), Logic::Zero)
            .unwrap();
        golden
            .record_digital("s", Time::from_ns(20), Logic::One)
            .unwrap();
        assert_eq!(golden.digital("s").unwrap().len(), 3);
        let mut lane = Trace::new();
        lane.record_digital("s", Time::ZERO, Logic::Zero).unwrap();
        lane.record_digital("s", Time::from_ns(5), Logic::One)
            .unwrap();
        let mut expected = lane.clone();
        lane.splice_golden_suffix(&golden, Time::from_ns(5));
        for &(t, v) in golden.digital("s").unwrap().transitions() {
            if t > Time::from_ns(5) {
                expected.record_digital("s", t, v).unwrap();
            }
        }
        assert_eq!(lane, expected);
        assert_eq!(lane.digital("s").unwrap().len(), 2);
    }
}

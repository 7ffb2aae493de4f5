//! Property-based tests for the waveform and logic primitives.

use amsfi_waves::{
    baseline, compare_analog, compare_digital_with_skew, measure, AnalogStream, AnalogWave,
    DigitalStream, DigitalWave, Logic, LogicVector, Time, Tolerance, Trace,
};
use proptest::prelude::*;

fn arb_logic() -> impl Strategy<Value = Logic> {
    prop::sample::select(Logic::ALL.to_vec())
}

fn arb_time() -> impl Strategy<Value = Time> {
    (0i64..=1_000_000_000_000).prop_map(Time::from_fs)
}

proptest! {
    #[test]
    fn resolution_commutative(a in arb_logic(), b in arb_logic()) {
        prop_assert_eq!(a.resolve(b), b.resolve(a));
    }

    #[test]
    fn resolution_idempotent(a in arb_logic()) {
        // IEEE 1164 resolves '-' with '-' to 'X'; all other values are
        // idempotent under resolution.
        if a == Logic::DontCare {
            prop_assert_eq!(a.resolve(a), Logic::Unknown);
        } else {
            prop_assert_eq!(a.resolve(a), a);
        }
    }

    #[test]
    fn highz_is_resolution_identity_for_drivers(a in arb_logic()) {
        // '-' is the only value Z does not pass through unchanged (it becomes X).
        if a != Logic::DontCare {
            prop_assert_eq!(Logic::HighZ.resolve(a), a);
        }
    }

    #[test]
    fn double_flip_restores_binary_values(a in arb_logic()) {
        if a.to_bool().is_some() {
            prop_assert_eq!(a.flipped().flipped().to_x01(), a.to_x01());
        } else {
            prop_assert_eq!(a.flipped(), a);
        }
    }

    #[test]
    fn de_morgan_on_x01(a in arb_logic(), b in arb_logic()) {
        prop_assert_eq!(!(a & b), (!a) | (!b));
        prop_assert_eq!(!(a | b), (!a) & (!b));
    }

    #[test]
    fn vector_u64_round_trip(value in any::<u64>(), width in 1usize..=64) {
        let masked = if width == 64 { value } else { value & ((1u64 << width) - 1) };
        let v = LogicVector::from_u64(masked, width);
        prop_assert_eq!(v.to_u64(), Some(masked));
        prop_assert_eq!(v.width(), width);
    }

    #[test]
    fn vector_display_parse_round_trip(value in any::<u64>(), width in 1usize..=32) {
        let masked = value & ((1u64 << width) - 1);
        let v = LogicVector::from_u64(masked, width);
        let parsed: LogicVector = v.to_string().parse().unwrap();
        prop_assert_eq!(parsed, v);
    }

    #[test]
    fn vector_flip_changes_hamming_by_one(value in any::<u64>(), width in 1usize..=32, bit in 0usize..32) {
        prop_assume!(bit < width);
        let masked = value & ((1u64 << width) - 1);
        let v = LogicVector::from_u64(masked, width);
        let mut w = v.clone();
        w.flip_bit(bit);
        prop_assert_eq!(v.hamming_distance(&w), 1);
    }

    #[test]
    fn digital_value_at_is_last_transition(
        times in prop::collection::vec(arb_time(), 1..20),
        values in prop::collection::vec(arb_logic(), 20),
    ) {
        let mut sorted = times.clone();
        sorted.sort();
        sorted.dedup();
        let mut w = DigitalWave::new();
        let mut expected: Vec<(Time, Logic)> = Vec::new();
        for (i, &t) in sorted.iter().enumerate() {
            let v = values[i % values.len()];
            w.push(t, v).unwrap();
            expected.push((t, v));
        }
        // At every recorded time, the waveform returns that value.
        for &(t, v) in &expected {
            prop_assert_eq!(w.value_at(t).to_x01(), v.to_x01());
        }
        // Before the first transition the value is 'U'.
        if expected[0].0 > Time::ZERO {
            prop_assert_eq!(w.value_at(expected[0].0 - Time::RESOLUTION), Logic::Uninitialized);
        }
    }

    #[test]
    fn analog_interpolation_is_bounded_by_neighbours(
        v0 in -10.0f64..10.0, v1 in -10.0f64..10.0, frac in 0.0f64..=1.0
    ) {
        let t1 = Time::from_ns(100);
        let w = AnalogWave::from_samples([(Time::ZERO, v0), (t1, v1)]);
        let t = Time::from_fs((t1.as_fs() as f64 * frac) as i64);
        let v = w.value_at(t);
        let (lo, hi) = (v0.min(v1), v0.max(v1));
        prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9, "v = {v}, bounds [{lo}, {hi}]");
    }

    #[test]
    fn crossings_alternate_direction(samples in prop::collection::vec(-5.0f64..5.0, 2..40)) {
        let w: AnalogWave = samples
            .iter()
            .enumerate()
            .map(|(i, &v)| (Time::from_ns(i as i64 * 10), v))
            .collect();
        let crossings = measure::crossings(&w, 0.0);
        for pair in crossings.windows(2) {
            prop_assert_ne!(pair[0].direction, pair[1].direction);
        }
    }

    #[test]
    fn deviation_of_wave_with_itself_is_zero(samples in prop::collection::vec(-5.0f64..5.0, 2..20)) {
        let w: AnalogWave = samples
            .iter()
            .enumerate()
            .map(|(i, &v)| (Time::from_ns(i as i64 * 10), v))
            .collect();
        let end = w.end_time().unwrap();
        let d = measure::deviation(&w, &w, Time::ZERO, end, 1e-12);
        prop_assert_eq!(d.peak, 0.0);
        prop_assert_eq!(d.onset, None);
    }

    #[test]
    fn streaming_digital_compare_equals_baseline(
        g_times in prop::collection::vec(0i64..2_000, 1..30),
        f_times in prop::collection::vec(0i64..2_000, 1..30),
        g_vals in prop::collection::vec(arb_logic(), 30),
        f_vals in prop::collection::vec(arb_logic(), 30),
        from_ns in 0i64..500,
        span_ns in 0i64..2_000,
        gap_ns in 0i64..50,
        skew_ns in 0i64..10,
        cuts in prop::collection::vec(0i64..2_500, 0..6),
    ) {
        let build = |times: &[i64], vals: &[Logic]| {
            let mut sorted = times.to_vec();
            sorted.sort_unstable();
            sorted.dedup();
            let mut w = DigitalWave::new();
            for (i, &t) in sorted.iter().enumerate() {
                w.push(Time::from_ns(t), vals[i % vals.len()]).unwrap();
            }
            w
        };
        let g = build(&g_times, &g_vals);
        let f = build(&f_times, &f_vals);
        let (from, to) = (Time::from_ns(from_ns), Time::from_ns(from_ns + span_ns));
        let gap = Time::from_ns(gap_ns);
        let skew = Time::from_ns(skew_ns);
        let base = baseline::compare_digital_with_skew(&g, &f, from, to, gap, skew);
        // One-shot streaming path (the production compare function).
        prop_assert_eq!(&compare_digital_with_skew(&g, &f, from, to, gap, skew), &base);
        // Chunked streaming with arbitrary (sorted) finality bounds.
        let mut s = DigitalStream::new(from, to, gap, skew);
        let mut bounds = cuts.clone();
        bounds.sort_unstable();
        for b in bounds {
            s.advance(&g, &f, Time::from_ns(b));
        }
        prop_assert_eq!(&s.finish(&g, &f), &base);
    }

    #[test]
    fn streaming_analog_compare_equals_baseline(
        g_samples in prop::collection::vec((0i64..2_000, -5.0f64..5.0), 1..30),
        f_samples in prop::collection::vec((0i64..2_000, -5.0f64..5.0), 1..30),
        from_ns in 0i64..500,
        span_ns in 0i64..2_000,
        gap_ns in 0i64..50,
        abs_tol in 0.0f64..2.0,
        cuts in prop::collection::vec(0i64..2_500, 0..6),
    ) {
        let build = |samples: &[(i64, f64)]| {
            let mut sorted = samples.to_vec();
            sorted.sort_unstable_by_key(|&(t, _)| t);
            sorted.dedup_by_key(|&mut (t, _)| t);
            AnalogWave::from_samples(sorted.iter().map(|&(t, v)| (Time::from_ns(t), v)))
        };
        let g = build(&g_samples);
        let f = build(&f_samples);
        let (from, to) = (Time::from_ns(from_ns), Time::from_ns(from_ns + span_ns));
        let gap = Time::from_ns(gap_ns);
        let tol = Tolerance::absolute(abs_tol);
        let base = baseline::compare_analog(&g, &f, from, to, tol, gap);
        prop_assert_eq!(&compare_analog(&g, &f, from, to, tol, gap), &base);
        let mut s = AnalogStream::new(from, to, tol, gap);
        let mut bounds = cuts.clone();
        bounds.sort_unstable();
        for b in bounds {
            s.advance(&g, &f, Time::from_ns(b));
        }
        prop_assert_eq!(&s.finish(&g, &f), &base);
    }

    #[test]
    fn time_display_round_trips_through_seconds(fs in 0i64..=1_000_000_000_000_000) {
        let t = Time::from_fs(fs);
        let back = Time::from_secs_f64(t.as_secs_f64());
        // f64 has 52 mantissa bits; round trip is exact to ~128 fs at 0.5 s.
        prop_assert!((back - t).abs() <= Time::from_fs(256));
    }

    /// Any interleaving of by-name and by-slot recording (with slots
    /// resolved early, late or never used) builds the same trace as
    /// recording everything by name: same signals, waves, names and `==`.
    #[test]
    fn slot_and_name_recording_agree(
        ops in prop::collection::vec(
            (0usize..6, 0i64..3, arb_logic(), -4.0f64..4.0, 0u8..4),
            0..60,
        ),
    ) {
        const NAMES: [&str; 3] = ["a", "b[0]", "b[1]"];
        let mut by_name = Trace::new();
        let mut mixed = Trace::new();
        let mut digital = [None; 3];
        let mut analog = [None; 3];
        let mut now = Time::ZERO;
        for (signal, step_ns, bit, level, how) in ops {
            now += Time::from_ns(step_ns);
            let (name, is_digital) = (NAMES[signal % 3], signal < 3);
            match how {
                // Resolve only: must stay invisible until a sample lands.
                0 if is_digital => {
                    digital[signal % 3] = Some(mixed.resolve_digital(name));
                }
                0 => analog[signal % 3] = Some(mixed.resolve_analog(name)),
                // By name on both sides.
                1 if is_digital => {
                    by_name.record_digital(name, now, bit).unwrap();
                    mixed.record_digital(name, now, bit).unwrap();
                }
                1 => {
                    by_name.record_analog(name, now, level).unwrap();
                    mixed.record_analog(name, now, level).unwrap();
                }
                // By slot, resolving on first use.
                _ if is_digital => {
                    by_name.record_digital(name, now, bit).unwrap();
                    let slot = *digital[signal % 3]
                        .get_or_insert_with(|| mixed.resolve_digital(name));
                    mixed.record_digital_slot(slot, now, bit).unwrap();
                }
                _ => {
                    by_name.record_analog(name, now, level).unwrap();
                    let slot = *analog[signal % 3]
                        .get_or_insert_with(|| mixed.resolve_analog(name));
                    mixed.record_analog_slot(slot, now, level).unwrap();
                }
            }
        }
        prop_assert_eq!(&mixed, &by_name);
        prop_assert_eq!(&by_name, &mixed);
        prop_assert_eq!(mixed.len(), by_name.len());
        prop_assert_eq!(mixed.is_empty(), by_name.is_empty());
        prop_assert_eq!(
            mixed.digital_names().collect::<Vec<_>>(),
            by_name.digital_names().collect::<Vec<_>>()
        );
        prop_assert_eq!(
            mixed.analog_names().collect::<Vec<_>>(),
            by_name.analog_names().collect::<Vec<_>>()
        );
        prop_assert_eq!(format!("{mixed:?}"), format!("{by_name:?}"));
        prop_assert_eq!(mixed.approx_bytes(), by_name.approx_bytes());
    }
}

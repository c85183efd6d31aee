//! Property-based tests (proptest) over cross-cutting sketch invariants:
//! merge ≡ concatenation, no-underestimate guarantees, bounds ordering,
//! and determinism — on arbitrary streams, not hand-picked ones.

use proptest::collection::vec;
use proptest::prelude::*;
use sketches::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// HLL: sketch(A) merged with sketch(B) equals sketch(A ++ B) exactly.
    #[test]
    fn hll_merge_is_concat(a in vec(any::<u64>(), 0..500), b in vec(any::<u64>(), 0..500)) {
        let mut sa = HyperLogLog::new(8, 1).unwrap();
        let mut sb = HyperLogLog::new(8, 1).unwrap();
        let mut sab = HyperLogLog::new(8, 1).unwrap();
        for x in &a { sa.update(x); sab.update(x); }
        for x in &b { sb.update(x); sab.update(x); }
        sa.merge(&sb).unwrap();
        prop_assert_eq!(sa, sab);
    }

    /// Count-Min never underestimates any item on any stream.
    #[test]
    fn count_min_never_underestimates(stream in vec(0u16..256, 1..2000)) {
        let mut cm = CountMinSketch::new(64, 4, 7).unwrap();
        let mut exact = std::collections::HashMap::new();
        for x in &stream {
            cm.update(x);
            *exact.entry(*x).or_insert(0u64) += 1;
        }
        for (item, &truth) in &exact {
            prop_assert!(FrequencyEstimator::estimate(&cm, item) >= truth);
        }
        prop_assert_eq!(cm.total(), stream.len() as u64);
    }

    /// SpaceSaving bounds always sandwich the truth.
    #[test]
    fn space_saving_bounds_sandwich(stream in vec(0u8..50, 1..1500)) {
        let mut ss = SpaceSaving::new(10).unwrap();
        let mut exact = std::collections::HashMap::new();
        for x in &stream {
            ss.update(x);
            *exact.entry(*x).or_insert(0u64) += 1;
        }
        for (item, count, err) in ss.entries() {
            let truth = exact.get(item).copied().unwrap_or(0);
            prop_assert!(count >= truth, "upper bound violated");
            prop_assert!(count - err <= truth, "lower bound violated");
        }
        // Untracked items must be below the minimum counter.
        for (item, &truth) in &exact {
            if ss.estimate(item) == 0 {
                prop_assert!(truth <= ss.min_count());
            }
        }
    }

    /// KLL quantiles are within the value range and monotone in q.
    #[test]
    fn kll_quantiles_monotone(values in vec(-1e6f64..1e6, 1..3000)) {
        let mut kll = KllSketch::new(64, 3).unwrap();
        for v in &values {
            kll.update(v);
        }
        let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let mut last = lo;
        for qi in 0..=10 {
            let q = f64::from(qi) / 10.0;
            let est = kll.quantile(q).unwrap();
            prop_assert!(est >= lo && est <= hi, "quantile outside value range");
            prop_assert!(est >= last, "quantiles must be monotone in q");
            last = est;
        }
    }

    /// Bloom filters have no false negatives, ever.
    #[test]
    fn bloom_no_false_negatives(keys in vec(any::<u64>(), 0..800)) {
        let mut f = BloomFilter::new(8192, 5, 11).unwrap();
        for k in &keys {
            f.update(k);
        }
        for k in &keys {
            prop_assert!(f.contains(k));
        }
    }

    /// Cuckoo filters: inserted keys are found; deleting them removes them
    /// without disturbing the rest.
    #[test]
    fn cuckoo_insert_delete_roundtrip(keys in prop::collection::hash_set(any::<u64>(), 0..300)) {
        let keys: Vec<u64> = keys.into_iter().collect();
        let mut f = CuckooFilter::with_capacity(keys.len().max(8) * 2, 13).unwrap();
        for k in &keys {
            prop_assert!(f.insert(k).is_ok());
        }
        for k in &keys {
            prop_assert!(f.contains(k));
        }
        let (del, keep) = keys.split_at(keys.len() / 2);
        for k in del {
            prop_assert!(f.remove(k));
        }
        for k in keep {
            prop_assert!(f.contains(k), "false negative after unrelated delete");
        }
    }

    /// Misra-Gries error never exceeds n/k on any stream.
    #[test]
    fn misra_gries_error_bound(stream in vec(0u16..300, 1..2000)) {
        let k = 12;
        let mut mg = MisraGries::new(k).unwrap();
        for x in &stream {
            mg.update(x);
        }
        prop_assert!(mg.error_bound() <= stream.len() as u64 / k as u64);
    }

    /// The distinct sampler never exceeds k and never invents items.
    #[test]
    fn distinct_sampler_sound(stream in vec(0u32..200, 0..1000)) {
        let mut s = DistinctSampler::new(16, 17).unwrap();
        for x in &stream {
            s.update(x);
        }
        prop_assert!(s.retained() <= 16);
        for item in s.sample() {
            prop_assert!(stream.contains(item), "sampled item never appeared");
        }
    }

    /// Reservoir sample is always a sub-multiset of the stream.
    #[test]
    fn reservoir_subset(stream in vec(any::<u32>(), 0..500)) {
        let mut r = ReservoirR::new(20, 23).unwrap();
        for x in &stream {
            r.update(x);
        }
        prop_assert_eq!(r.sample().len(), stream.len().min(20));
        for item in r.sample() {
            prop_assert!(stream.contains(item));
        }
    }

    /// Morris counters stay within 6 theoretical standard errors.
    #[test]
    fn morris_within_sigma(n in 1_000u64..50_000, seed in any::<u64>()) {
        let mut c = MorrisCounter::new(256.0, seed).unwrap();
        c.observe_many(n);
        let rel = (c.estimate() - n as f64).abs() / n as f64;
        prop_assert!(rel < 6.0 * c.theoretical_rse(), "rel err {rel}");
    }

    /// SF-sketch: on any insert-only stream, neither the fat update side
    /// nor the slim query side ever underestimates any item.
    #[test]
    fn sf_sketch_never_underestimates(stream in vec(0u16..512, 1..2000)) {
        let mut sf = SfSketch::new(256, 32, 4, 11).unwrap();
        let mut exact = std::collections::HashMap::new();
        for x in &stream {
            sf.update(x);
            *exact.entry(*x).or_insert(0u64) += 1;
        }
        for (item, &truth) in &exact {
            prop_assert!(FrequencyEstimator::estimate(&sf, item) >= truth, "fat side");
            prop_assert!(sf.slim_estimate(item) >= truth, "slim side");
        }
        prop_assert_eq!(sf.total(), stream.len() as u64);
    }

    /// SF-sketch: cutting a view commutes with merging (exactly), and the
    /// merged sketch keeps both one-sided bounds on the concatenation.
    #[test]
    fn sf_merge_commutes_with_views_and_keeps_bound(
        a in vec(0u16..256, 0..1000),
        b in vec(0u16..256, 0..1000),
    ) {
        let mut sa = SfSketch::new(256, 32, 4, 5).unwrap();
        let mut sb = SfSketch::new(256, 32, 4, 5).unwrap();
        for x in &a { sa.update(x); }
        for x in &b { sb.update(x); }
        let mut view_merge = sa.query_view();
        view_merge.merge(&sb.query_view()).unwrap();
        sa.merge(&sb).unwrap();
        prop_assert_eq!(sa.query_view(), view_merge);
        let mut exact = std::collections::HashMap::new();
        for x in a.iter().chain(&b) {
            *exact.entry(*x).or_insert(0u64) += 1;
        }
        for (item, &truth) in &exact {
            prop_assert!(FrequencyEstimator::estimate(&sa, item) >= truth);
            prop_assert!(sa.slim_estimate(item) >= truth);
        }
    }

    /// SF-sketch: the checkpoint layout round-trips the full state, and
    /// the restored sketch stays fat/slim-consistent with the original on
    /// every query.
    #[test]
    fn sf_state_round_trip_is_consistent(stream in vec(0u16..256, 0..1500)) {
        use sketches::core::{ByteReader, ByteWriter};
        let mut sf = SfSketch::new(128, 16, 3, 9).unwrap();
        for x in &stream {
            sf.update(x);
        }
        let mut w = ByteWriter::new();
        sf.write_state(&mut w);
        let bytes = w.into_bytes();
        let restored = SfSketch::read_state(&mut ByteReader::new(&bytes)).unwrap();
        prop_assert_eq!(&restored, &sf);
        prop_assert_eq!(restored.query_view(), sf.query_view());
        for x in 0u16..256 {
            prop_assert_eq!(
                FrequencyEstimator::estimate(&restored, &x),
                FrequencyEstimator::estimate(&sf, &x)
            );
            prop_assert_eq!(restored.slim_estimate(&x), sf.slim_estimate(&x));
        }
    }
}

/// Copy-on-write group state against a model that shares nothing: the
/// engine under test hands out `clone()`s (shallow — they share group
/// state with it by pointer) where the model deep-copies through snapshot
/// bytes. Under any schedule of commits, rollbacks, clones, drops, merges
/// and window flushes the two must stay byte-identical, live engine and
/// every held copy alike — sharing must never be observable.
mod cow_group_state {
    use proptest::collection::vec;
    use proptest::prelude::*;
    use sketches::streamdb::{Aggregate, QuerySpec, Row, SketchEngine, Value};

    fn spec() -> QuerySpec {
        QuerySpec::new(
            vec![0],
            vec![
                Aggregate::Count,
                Aggregate::Sum { field: 2 },
                Aggregate::CountDistinct { field: 1 },
                Aggregate::Quantiles { field: 2 },
                Aggregate::TopK { field: 1, k: 3 },
            ],
        )
        .expect("valid spec")
    }

    /// `n` rows over at most 6 groups, starting at group `first`.
    fn batch(first: u64, n: u64) -> Vec<Row> {
        (0..n)
            .map(|i| {
                vec![
                    Value::U64((first + i) % 6),
                    Value::U64((first * 31 + i * 7) % 53),
                    Value::F64(((first + i * 13) % 100) as f64),
                ]
            })
            .collect()
    }

    fn deep_copy(engine: &SketchEngine) -> SketchEngine {
        SketchEngine::from_snapshot_bytes(&engine.to_snapshot_bytes()).expect("own bytes decode")
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn sharing_is_never_observable(
            schedule in vec((0u8..7, 0u64..6, 1u64..40), 1..40),
        ) {
            let mut live = SketchEngine::new(spec()).expect("engine");
            let mut model = SketchEngine::new(spec()).expect("engine");
            let mut held: Vec<SketchEngine> = Vec::new();
            let mut held_model: Vec<SketchEngine> = Vec::new();
            for (step, &(op, a, n)) in schedule.iter().enumerate() {
                let pick = a as usize % held.len().max(1);
                match op {
                    // A good batch commits on both.
                    0 | 1 => {
                        let rows = batch(a, n);
                        prop_assert!(live.process_batch(&rows).is_ok());
                        prop_assert!(model.process_batch(&rows).is_ok());
                    }
                    // A poison batch rolls back on both.
                    2 => {
                        let mut rows = batch(a, n);
                        rows.push(vec![Value::U64(a), Value::U64(1), Value::from("poison")]);
                        prop_assert!(live.process_batch(&rows).is_err());
                        prop_assert!(model.process_batch(&rows).is_err());
                    }
                    // Clone and hold / deep-copy and hold.
                    3 => {
                        held.push(live.clone());
                        held_model.push(deep_copy(&model));
                    }
                    // Drop a held copy: its groups become the writer's alone.
                    4 if !held.is_empty() => {
                        held.swap_remove(pick);
                        held_model.swap_remove(pick);
                    }
                    // Merge a held copy in: groups the live engine lacks
                    // arrive as shared pointers.
                    5 if !held.is_empty() => {
                        prop_assert!(live.merge(&held[pick]).is_ok());
                        prop_assert!(model.merge(&held_model[pick]).is_ok());
                    }
                    6 => {
                        prop_assert_eq!(
                            live.flush_window().expect("flush"),
                            model.flush_window().expect("flush")
                        );
                    }
                    _ => {}
                }
                prop_assert_eq!(
                    live.to_snapshot_bytes(),
                    model.to_snapshot_bytes(),
                    "live engine diverged at step {} (op {})", step, op
                );
                for (i, (h, m)) in held.iter().zip(&held_model).enumerate() {
                    prop_assert_eq!(
                        h.to_snapshot_bytes(),
                        m.to_snapshot_bytes(),
                        "held copy {} changed at step {} (op {})", i, step, op
                    );
                }
            }
        }
    }
}

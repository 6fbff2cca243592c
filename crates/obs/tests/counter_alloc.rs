//! Counters and gauges on names already registered must not allocate:
//! live mode bumps them on every HTTP request and several times per pool
//! run, for the whole life of a `parma serve` or `parma worker`. Measured
//! with the tracking global allocator, alone in this test binary.

#[global_allocator]
static ALLOC: mea_memtrack::TrackingAllocator = mea_memtrack::TrackingAllocator::new();

#[test]
fn existing_counters_and_gauges_do_not_allocate() {
    mea_obs::set_live(true);
    // First use registers the names; that may allocate.
    mea_obs::counter_add("alloc.test.counter", 1);
    mea_obs::gauge_set("alloc.test.gauge", 0.0);

    // The allocation counter is process-global and the test harness's own
    // threads occasionally allocate, so the window is measured several
    // times and the minimum taken — harness noise is strictly additive.
    let delta = (0..5)
        .map(|_| {
            let base = mea_memtrack::allocation_count();
            for i in 0..1_000 {
                mea_obs::counter_add("alloc.test.counter", 1);
                mea_obs::gauge_set("alloc.test.gauge", i as f64);
            }
            mea_memtrack::allocation_count() - base
        })
        .min()
        .unwrap();
    mea_obs::set_live(false);

    assert_eq!(
        delta, 0,
        "1,000 counter_add and gauge_set calls on existing names allocated {delta} times"
    );
    let snap = mea_obs::snapshot();
    assert_eq!(snap.counter("alloc.test.counter"), Some(5_001));
    assert_eq!(snap.gauge("alloc.test.gauge"), Some(999.0));
}

//! The look-ahead consumer never depends on a helper. Alone in its own
//! test binary so the pool holds exactly the workers this test spawns and
//! every one of them can be pinned inside a fork-join generation.

#![expect(clippy::disallowed_types, reason = "the flags that pin every helper are shared across threads on purpose")]

use gnn_dm_par::{par_for_each_init, par_lookahead_init, with_threads};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Duration;

#[test]
fn lookahead_finishes_when_every_helper_is_busy_elsewhere() {
    const THREADS: usize = 3;
    let entered = AtomicUsize::new(0);
    let release = AtomicBool::new(false);
    let caller = std::thread::current().id();
    #[expect(clippy::disallowed_methods, reason = "a blocker thread outside the pool keeps every helper busy")]
    std::thread::scope(|s| {
        // A generation with one task per participant, each parked on
        // `release`: the blocker thread plus both pool workers.
        let blocker = s.spawn(|| {
            with_threads(THREADS, || {
                par_for_each_init(THREADS, || (), |(), _| {
                    entered.fetch_add(1, Ordering::SeqCst);
                    while !release.load(Ordering::SeqCst) {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                });
            });
        });
        for _ in 0..10_000 {
            if entered.load(Ordering::SeqCst) == THREADS {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(entered.load(Ordering::SeqCst), THREADS, "the pool never filled up");

        let mut seen = Vec::new();
        with_threads(THREADS, || {
            par_lookahead_init(
                20,
                4,
                || (),
                |(), i| (std::thread::current().id(), i * i),
                |i, (who, item)| {
                    assert_eq!(who, caller, "item {i} was built by a worker that should be busy");
                    seen.push(item);
                },
            );
        });
        assert_eq!(seen, (0..20).map(|i| i * i).collect::<Vec<_>>());

        release.store(true, Ordering::SeqCst);
        if let Err(p) = blocker.join() {
            std::panic::resume_unwind(p);
        }
    });
}

//! `par_lookahead_init`: the ordered look-ahead map must be the serial
//! `produce; consume` loop at any thread count, never run past its window,
//! never need a helper, survive panics on either side, and leave no worker
//! producing once it returns. Interleavings a test depends on are forced
//! with flags and counters the closures wait on (bounded), not with timing.

use gnn_dm_par::{par_chunks_mut, par_lookahead_init, par_map_collect, split_seed, with_threads};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::thread::ThreadId;
use std::time::Duration;

/// The pool holds one background source per process and the harness runs
/// these tests on parallel threads: a test that needs helpers must not
/// find the slot taken by a neighbour (it would — correctly — run inline).
fn exclusive_source() -> MutexGuard<'static, ()> {
    static SOURCE: Mutex<()> = Mutex::new(());
    SOURCE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Waits (bounded: ~10 s) until `cond` holds; a test that needs a helper to
/// reach some point fails loudly instead of hanging if none ever does.
fn wait_until(what: &str, cond: impl Fn() -> bool) {
    for _ in 0..10_000 {
        if cond() {
            return;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    panic!("timed out waiting until {what}");
}

/// One look-ahead run over `n` items whose values depend on the index only;
/// the scratch vector is dirtied on purpose (arena contract).
fn run(n: usize, window: usize) -> Vec<(usize, u64)> {
    let mut seen = Vec::new();
    par_lookahead_init(
        n,
        window,
        Vec::<u64>::new,
        |scratch, i| {
            scratch.clear();
            scratch.extend((0..5).map(|k| split_seed(i as u64, k)));
            scratch.iter().fold(0u64, |a, &x| a.wrapping_add(x))
        },
        |i, item| seen.push((i, item)),
    );
    seen
}

#[test]
fn lookahead_is_the_serial_loop_at_every_thread_count() {
    let _source = exclusive_source();
    for n in [0usize, 1, 2, 7, 100] {
        let expect = with_threads(1, || run(n, 1));
        assert_eq!(expect.len(), n);
        assert!(expect.iter().enumerate().all(|(i, &(j, _))| i == j), "consumed out of order");
        for window in [1, 2, 4, n + 3] {
            for threads in [1usize, 2, 3, 8] {
                let got = with_threads(threads, || run(n, window));
                assert_eq!(got, expect, "n {n} window {window} threads {threads}");
            }
        }
    }
}

#[test]
fn lookahead_helpers_fill_the_window_and_never_pass_it() {
    let _source = exclusive_source();
    const N: usize = 50;
    const WINDOW: usize = 3;
    // Highest index any thread has started producing, plus one.
    let started = AtomicUsize::new(0);
    with_threads(3, || {
        par_lookahead_init(
            N,
            WINDOW,
            || (),
            |(), i| {
                started.fetch_max(i + 1, Ordering::SeqCst);
                i
            },
            |i, item| {
                assert_eq!(item, i);
                if i == 0 {
                    // A slow consumer: helpers must run ahead to exactly
                    // the edge of the window (indices 1..=WINDOW) and stop.
                    wait_until("helpers fill the window", || {
                        started.load(Ordering::SeqCst) == WINDOW + 1
                    });
                }
                let ahead = started.load(Ordering::SeqCst);
                assert!(ahead <= i + 1 + WINDOW, "item {} started while consuming {i}", ahead - 1);
            },
        );
    });
}

#[test]
fn lookahead_driver_builds_ahead_while_a_helper_holds_the_next_item() {
    let _source = exclusive_source();
    let caller = std::thread::current().id();
    let built_by_caller = AtomicUsize::new(0);
    let mut seen = Vec::new();
    with_threads(2, || {
        par_lookahead_init(
            10,
            4,
            || (),
            |(), i| {
                if std::thread::current().id() == caller {
                    built_by_caller.fetch_add(1, Ordering::SeqCst);
                } else {
                    // The helper sits on its item until the driver has
                    // built two others — which an idling driver never would.
                    wait_until("the driver builds past the item it waits for", || {
                        built_by_caller.load(Ordering::SeqCst) >= 2
                    });
                }
                i * 3
            },
            |i, item| seen.push((i, item)),
        );
    });
    assert_eq!(seen, (0..10).map(|i| (i, i * 3)).collect::<Vec<_>>());
}

#[test]
fn lookahead_produce_panic_on_a_worker_reaches_the_caller() {
    let _source = exclusive_source();
    let caller = std::thread::current().id();
    let helper_entered = AtomicBool::new(false);
    let consumed = AtomicUsize::new(0);
    let result = catch_unwind(AssertUnwindSafe(|| {
        with_threads(2, || {
            par_lookahead_init(
                40,
                4,
                || (),
                |(), i| {
                    if std::thread::current().id() != caller {
                        helper_entered.store(true, Ordering::SeqCst);
                        panic!("boom in produce({i}) on a worker");
                    }
                    i
                },
                |i, _| {
                    if i == 0 {
                        wait_until("a helper enters produce", || {
                            helper_entered.load(Ordering::SeqCst)
                        });
                    }
                    consumed.fetch_add(1, Ordering::SeqCst);
                },
            );
        });
    }));
    let payload = result.expect_err("the worker's panic must reach the caller");
    let msg = payload.downcast_ref::<String>().map(String::as_str).unwrap_or_default();
    assert!(msg.contains("boom in produce"), "unexpected payload: {msg:?}");
    assert!(consumed.load(Ordering::SeqCst) < 40, "the item the worker lost was never consumed");
    // The pool and the source slot are usable afterwards.
    with_threads(2, || {
        assert_eq!(par_map_collect(&[1u64, 2, 3], |_, &x| x + 1), vec![2, 3, 4]);
        assert_eq!(run(20, 4), with_threads(1, || run(20, 4)));
    });
}

#[test]
fn lookahead_consume_panic_reaches_the_caller_and_the_pool_survives() {
    let _source = exclusive_source();
    let result = catch_unwind(|| {
        with_threads(3, || {
            par_lookahead_init(30, 4, || (), |(), i| i, |i, _| assert!(i != 5, "boom at item 5"));
        });
    });
    assert!(result.is_err(), "a panic in consume must reach the caller");
    with_threads(3, || {
        assert_eq!(par_map_collect(&[1u64, 2, 3], |_, &x| x * 2), vec![2, 4, 6]);
        assert_eq!(run(20, 4), with_threads(1, || run(20, 4)));
    });
}

#[test]
fn lookahead_leaves_no_worker_producing_after_return() {
    let _source = exclusive_source();
    let inside = AtomicUsize::new(0);
    for round in 0..1000usize {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            with_threads(3, || {
                par_lookahead_init(
                    8,
                    4,
                    || (),
                    |(), i| {
                        inside.fetch_add(1, Ordering::SeqCst);
                        let v = (0..200u64).fold(i as u64, split_seed);
                        inside.fetch_sub(1, Ordering::SeqCst);
                        v
                    },
                    |i, _| {
                        // Every third round leaves early by unwinding
                        // (without the panic hook's noise), with helpers
                        // still ahead.
                        if round % 3 == 0 && i == 2 {
                            resume_unwind(Box::new(()));
                        }
                    },
                );
            });
        }));
        assert_eq!(outcome.is_err(), round % 3 == 0);
        assert_eq!(inside.load(Ordering::SeqCst), 0, "a worker is still producing after round {round}");
    }
}

#[test]
fn lookahead_concurrent_callers_both_complete() {
    let _source = exclusive_source();
    // Only one source fits the pool: whichever caller finds it taken runs
    // its loop inline. Both must see the serial sequence.
    let expect = with_threads(1, || run(200, 4));
    #[expect(clippy::disallowed_methods, reason = "two OS threads outside the pool are the concurrent callers under test")]
    std::thread::scope(|s| {
        let handles: Vec<_> =
            (0..2).map(|_| s.spawn(|| with_threads(3, || run(200, 4)))).collect();
        for h in handles {
            match h.join() {
                Ok(got) => assert_eq!(got, expect),
                Err(p) => resume_unwind(p),
            }
        }
    });
}

#[test]
fn lookahead_inside_a_parallel_closure_runs_serially() {
    let _source = exclusive_source();
    let expect = with_threads(1, || run(12, 4));
    let items: Vec<u32> = (0..8).collect();
    let results = with_threads(4, || {
        par_map_collect(&items, |_, _| {
            let me = std::thread::current().id();
            let mut producers: Vec<ThreadId> = Vec::new();
            let mut seen = Vec::new();
            par_lookahead_init(
                12,
                4,
                Vec::<u64>::new,
                |scratch, i| {
                    scratch.clear();
                    scratch.extend((0..5).map(|k| split_seed(i as u64, k)));
                    (std::thread::current().id(), scratch.iter().fold(0u64, |a, &x| a.wrapping_add(x)))
                },
                |i, (who, item)| {
                    producers.push(who);
                    seen.push((i, item));
                },
            );
            (producers.iter().all(|&p| p == me), seen)
        })
    });
    for (all_inline, seen) in results {
        assert!(all_inline, "a nested look-ahead must not leave its thread");
        assert_eq!(seen, expect);
    }
}

#[test]
fn lookahead_consume_dispatches_kernels_while_helpers_produce() {
    let _source = exclusive_source();
    const LEN: usize = 4096;
    let expect: Vec<u64> = (0..30u64)
        .map(|i| (0..LEN as u64).fold(0u64, |a, j| a.wrapping_add(split_seed(i, j))))
        .collect();
    for threads in [2usize, 3, 8] {
        let mut sums = Vec::new();
        with_threads(threads, || {
            par_lookahead_init(
                30,
                4,
                || (),
                |(), i| (0..400u64).fold(i as u64, split_seed),
                |i, _| {
                    // A fork-join kernel from inside `consume`, at the
                    // caller's thread count, with the source installed.
                    let mut data = vec![0u64; LEN];
                    par_chunks_mut(&mut data, 64, |ci, chunk| {
                        for (j, x) in chunk.iter_mut().enumerate() {
                            *x = split_seed(i as u64, (ci * 64 + j) as u64);
                        }
                    });
                    sums.push(data.iter().fold(0u64, |a, &x| a.wrapping_add(x)));
                },
            );
        });
        assert_eq!(sums, expect, "threads {threads}");
    }
}

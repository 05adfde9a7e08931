// Fixture: R001 must fire — shared mutable state inside parallel closures.
use std::sync::Mutex;

pub fn locked_accumulator(items: &[u64], total: &Mutex<u64>) -> Vec<u64> {
    gnn_dm_par::par_map_collect(items, |i, x| {
        if let Ok(mut guard) = total.lock() {
            *guard += *x; // every worker contends on one accumulator
        }
        x.wrapping_add(i as u64)
    })
}

fn log_item(x: u64) {
    println!("{x}"); // io effect
}

pub fn interleaved_io(items: &[u64]) -> Vec<u64> {
    gnn_dm_par::par_map_collect(items, |_i, x| {
        log_item(*x); // output interleaves across workers
        *x
    })
}

//! Batch-size schedules, including the paper's adaptive proposal (§6.3.1).
//!
//! The paper observes that small batches converge fast early (large gradient
//! magnitude finds the descent direction quickly) while large batches reach
//! higher final accuracy (small gradient magnitude settles into the
//! optimum), and proposes starting small and growing the batch during
//! training. Figure 10 shows 1.5–1.6× faster convergence on Reddit/Products.

/// How the batch size evolves over epochs.
#[derive(Debug, Clone, PartialEq)]
pub enum BatchSizeSchedule {
    /// The same batch size every epoch.
    Fixed(usize),
    /// The paper's adaptive schedule: start at `start`, multiply by `growth`
    /// every `grow_every` epochs, cap at `max`.
    Adaptive {
        /// Initial (small) batch size.
        start: usize,
        /// Final (large) batch size cap.
        max: usize,
        /// Multiplicative growth factor (> 1).
        growth: f64,
        /// Epochs between growth steps (≥ 1).
        grow_every: usize,
    },
    /// Step schedule: an explicit `(epoch, batch_size)` table; entry `i`
    /// applies from `epochs[i].0` until the next entry.
    Steps(Vec<(usize, usize)>),
}

impl BatchSizeSchedule {
    /// Batch size to use at `epoch` (0-based).
    ///
    /// ```
    /// use gnn_dm_sampling::BatchSizeSchedule;
    /// let s = BatchSizeSchedule::Adaptive { start: 128, max: 1024, growth: 2.0, grow_every: 2 };
    /// assert_eq!(s.batch_size_at(0), 128);
    /// assert_eq!(s.batch_size_at(2), 256);
    /// assert_eq!(s.batch_size_at(20), 1024); // capped
    /// ```
    pub fn batch_size_at(&self, epoch: usize) -> usize {
        match self {
            BatchSizeSchedule::Fixed(b) => *b,
            BatchSizeSchedule::Adaptive { start, max, growth, grow_every } => {
                assert!(*growth > 1.0, "growth must exceed 1");
                assert!(*grow_every >= 1, "grow_every must be >= 1");
                let steps = epoch / grow_every;
                let size = (*start as f64) * growth.powi(steps as i32);
                (size.round() as usize).min(*max).max(1)
            }
            BatchSizeSchedule::Steps(table) => {
                assert!(!table.is_empty(), "step table must not be empty");
                let mut size = table[0].1;
                for &(e, b) in table {
                    if epoch >= e {
                        size = b;
                    } else {
                        break;
                    }
                }
                size
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_is_constant() {
        let s = BatchSizeSchedule::Fixed(6000);
        assert_eq!(s.batch_size_at(0), 6000);
        assert_eq!(s.batch_size_at(99), 6000);
    }

    #[test]
    fn adaptive_grows_and_caps() {
        let s = BatchSizeSchedule::Adaptive { start: 512, max: 8192, growth: 2.0, grow_every: 2 };
        assert_eq!(s.batch_size_at(0), 512);
        assert_eq!(s.batch_size_at(1), 512);
        assert_eq!(s.batch_size_at(2), 1024);
        assert_eq!(s.batch_size_at(4), 2048);
        assert_eq!(s.batch_size_at(8), 8192);
        assert_eq!(s.batch_size_at(50), 8192, "capped");
    }

    #[test]
    fn steps_table_lookup() {
        let s = BatchSizeSchedule::Steps(vec![(0, 128), (5, 1024), (10, 4096)]);
        assert_eq!(s.batch_size_at(0), 128);
        assert_eq!(s.batch_size_at(4), 128);
        assert_eq!(s.batch_size_at(5), 1024);
        assert_eq!(s.batch_size_at(12), 4096);
    }
}

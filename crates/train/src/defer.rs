//! Gradient-readiness plumbing for backward/AllReduce overlap.
//!
//! A data-parallel step only becomes cheaper when the `AllReduce` of a
//! gradient *bucket* starts while backward is still producing the next
//! one. The seams here make that possible without entangling the model
//! with the communication runtime:
//!
//! * [`GradObserver`] — the callback `Bert::train_step_observed` fires as
//!   each gradient *group* (the output heads, one transformer layer, the
//!   embeddings) retires during backward, with the group's canonical
//!   parameter-slot base so observers can map tensors to flat offsets;
//! * [`BucketedAverager`] — scatters window-averaged group gradients into
//!   the flat wire layout and fires each bucket at the moment its last
//!   overlapping slot retires, in a deterministic order every rank
//!   reproduces (the precondition for ring collectives: all ranks must
//!   enter bucket `AllReduce`s in the same sequence).
//!
//! Buckets are the same boundary-aligned ranges
//! [`bertscope_tensor::bucket::plan_buckets`] gives the ring transport, so
//! a per-bucket `AllReduce` performs the bit-identical reduction the
//! aggregate call would.

use bertscope_tensor::bucket::plan_buckets;
use bertscope_tensor::Tensor;
use std::ops::Range;

/// Observer of gradient-group retirement during a backward pass.
///
/// Each group is one group of the crate's parameter inventory (the
/// embeddings, one layer, or the output heads), and the inventory is the
/// one source of slot order: `base_slot` is the [`crate::Bert::param_slots`]
/// index of `grads[0]`, and the group occupies
/// `base_slot..base_slot + grads.len()` contiguous slots. Groups retire in backward order — output heads first,
/// then layers from last to first, the embeddings last — and every tensor
/// is final when reported (the tied decoder gradient is already folded
/// into the word embedding's).
///
/// `Send` is a supertrait: under scheduled execution
/// (`TrainOptions::graph`) the observer fires from inside backward *tasks*
/// running on pool threads — in the same deterministic retirement order,
/// since the backward chain is serialized by its dataflow.
pub trait GradObserver: Send {
    /// Called once per group, in retirement order.
    fn group_ready(&mut self, base_slot: usize, grads: &[&Tensor]);
}

/// Consumer of completed gradient buckets — the scheduler-facing half of
/// the overlap: typically a channel into a communication thread that
/// `AllReduce`s each bucket while backward keeps computing. `Send` for the
/// same reason as [`GradObserver`]: buckets may fire from graph tasks.
pub trait BucketSink: Send {
    /// `bucket` is the index into the [`plan_buckets`] plan, `range` its
    /// element range in the flat gradient vector, `data` the averaged
    /// gradient payload for exactly that range.
    fn bucket_ready(&mut self, bucket: usize, range: Range<usize>, data: &[f32]);
}

/// Scatters averaged gradient groups into the flat wire layout and fires
/// buckets as they complete.
#[derive(Debug)]
pub struct BucketedAverager<S> {
    /// Flat offset of each slot (length `slots + 1`; last entry = total).
    offsets: Vec<usize>,
    /// Wire bucket plan over the flat vector.
    buckets: Vec<Range<usize>>,
    /// Slots still outstanding per bucket.
    remaining: Vec<usize>,
    flat: Vec<f32>,
    fired: usize,
    sink: S,
}

impl<S: BucketSink> BucketedAverager<S> {
    /// Build the flat layout and bucket plan for the given per-slot
    /// element counts (canonical `param_slots` order) and the ring's
    /// bucket granularity.
    ///
    /// # Panics
    ///
    /// Panics when `slot_lens` is empty or `bucket_elems` is zero.
    #[must_use]
    pub fn new(slot_lens: &[usize], bucket_elems: usize, sink: S) -> Self {
        assert!(!slot_lens.is_empty(), "no parameter slots");
        let mut offsets = Vec::with_capacity(slot_lens.len() + 1);
        let mut total = 0usize;
        offsets.push(0);
        for &len in slot_lens {
            total += len;
            offsets.push(total);
        }
        let buckets = plan_buckets(total, bucket_elems);
        let mut remaining = vec![0usize; buckets.len()];
        for slot in 0..slot_lens.len() {
            let (lo, hi) = (offsets[slot], offsets[slot + 1]);
            for (b, r) in buckets.iter().enumerate() {
                if r.start < hi && lo < r.end {
                    remaining[b] += 1;
                }
            }
        }
        BucketedAverager { offsets, buckets, remaining, flat: vec![0.0; total], fired: 0, sink }
    }

    /// Bucket ranges of the wire plan.
    #[must_use]
    pub fn bucket_ranges(&self) -> &[Range<usize>] {
        &self.buckets
    }

    /// Number of buckets fired so far.
    #[must_use]
    pub fn fired(&self) -> usize {
        self.fired
    }

    /// Finish the pass, consuming the averager.
    ///
    /// # Panics
    ///
    /// Panics when a bucket never fired — the observer missed a group, a
    /// correctness bug.
    #[must_use]
    pub fn into_sink(self) -> S {
        assert!(
            self.fired == self.buckets.len(),
            "only {} of {} gradient buckets fired",
            self.fired,
            self.buckets.len()
        );
        self.sink
    }
}

impl<S: BucketSink> GradObserver for BucketedAverager<S> {
    fn group_ready(&mut self, base_slot: usize, grads: &[&Tensor]) {
        let mut touched_lo = usize::MAX;
        let mut touched_hi = 0usize;
        for (i, g) in grads.iter().enumerate() {
            let slot = base_slot + i;
            let dst = &mut self.flat[self.offsets[slot]..self.offsets[slot + 1]];
            assert_eq!(dst.len(), g.as_slice().len(), "slot {slot} gradient length changed");
            dst.copy_from_slice(g.as_slice());
            touched_lo = touched_lo.min(self.offsets[slot]);
            touched_hi = touched_hi.max(self.offsets[slot + 1]);
        }
        // Retire the touched slots from each overlapping bucket; fire the
        // ones that completed, in ascending bucket order (deterministic on
        // every rank, since groups retire in a fixed order).
        for (b, r) in self.buckets.iter().enumerate() {
            if r.start >= touched_hi || touched_lo >= r.end {
                continue;
            }
            self.remaining[b] -= grads
                .iter()
                .enumerate()
                .filter(|(i, _)| {
                    let slot = base_slot + i;
                    self.offsets[slot] < r.end && r.start < self.offsets[slot + 1]
                })
                .count();
            if self.remaining[b] == 0 {
                self.fired += 1;
                self.sink.bucket_ready(b, r.clone(), &self.flat[r.clone()]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct Collect {
        fired: Vec<(usize, Range<usize>, Vec<f32>)>,
    }
    impl BucketSink for Collect {
        fn bucket_ready(&mut self, bucket: usize, range: Range<usize>, data: &[f32]) {
            self.fired.push((bucket, range, data.to_vec()));
        }
    }

    fn tensor(vals: &[f32]) -> Tensor {
        Tensor::from_vec(vals.to_vec(), &[vals.len()]).unwrap()
    }

    #[test]
    fn buckets_fire_when_their_last_slot_retires() {
        // Slots: [3, 2, 4, 1] elements = 10 total; buckets of 4 → 4|4|2.
        let mut avg = BucketedAverager::new(&[3, 2, 4, 1], 4, Collect::default());
        assert_eq!(avg.bucket_ranges(), &[0..4, 4..8, 8..10]);
        let (g0, g1) = (tensor(&[1.0, 2.0, 3.0]), tensor(&[4.0, 5.0]));
        let (g2, g3) = (tensor(&[6.0, 7.0, 8.0, 9.0]), tensor(&[10.0]));
        // Backward order: slot 3 (heads) first, then 2, then 0..2 (a
        // two-slot embedding-style group).
        avg.group_ready(3, &[&g3]);
        assert_eq!(avg.fired(), 0, "bucket 2 still waits on slot 2");
        avg.group_ready(2, &[&g2]);
        assert_eq!(avg.fired(), 1, "slot 2 completes bucket 2; bucket 1 waits on slot 1");
        avg.group_ready(0, &[&g0, &g1]);
        let sink = avg.into_sink();
        let order: Vec<usize> = sink.fired.iter().map(|f| f.0).collect();
        assert_eq!(order, vec![2, 0, 1], "completion order, not index order");
        // Payloads are the exact flat ranges.
        assert_eq!(sink.fired[0].2, vec![9.0, 10.0]);
        assert_eq!(sink.fired[1].2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(sink.fired[2].2, vec![5.0, 6.0, 7.0, 8.0]);
    }

    #[test]
    #[should_panic(expected = "gradient buckets fired")]
    fn unfired_buckets_are_a_bug() {
        let mut avg = BucketedAverager::new(&[2, 2], 2, Collect::default());
        avg.group_ready(0, &[&tensor(&[1.0, 2.0])]);
        let _ = avg.into_sink();
    }

    #[test]
    fn single_bucket_covers_everything() {
        let mut avg = BucketedAverager::new(&[3, 3], 1 << 18, Collect::default());
        avg.group_ready(1, &[&tensor(&[4.0, 5.0, 6.0])]);
        avg.group_ready(0, &[&tensor(&[1.0, 2.0, 3.0])]);
        let sink = avg.into_sink();
        assert_eq!(sink.fired.len(), 1);
        assert_eq!(sink.fired[0].2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
    }
}

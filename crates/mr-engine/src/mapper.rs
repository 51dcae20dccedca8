//! The map side of the programming model.

use crate::counters::{self, CounterSet};

/// Information made available to a map task at `setup` time.
///
/// The partition index (`task_index`) is the crucial piece for the
/// ICDE-2012 algorithms: both BlockSplit and PairRange key their entity
/// redistribution off the input partition a map task is reading
/// (Algorithms 1–3 all begin with `map_configure(m, r, partitionIndex)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MapTaskInfo {
    /// Index of this map task == index of the input partition it reads.
    pub task_index: usize,
    /// Total number of map tasks `m` in the job.
    pub num_map_tasks: usize,
    /// Total number of reduce tasks `r` in the job.
    pub num_reduce_tasks: usize,
}

/// Output collector handed to [`Mapper::map`].
///
/// Collects intermediate key-value pairs, optional side-output records
/// (Algorithm 3's `additionalOutput` to the distributed file system)
/// and named counters.
#[derive(Debug)]
pub struct MapContext<KO, VO, S> {
    pub(crate) info: MapTaskInfo,
    pub(crate) out: Vec<(KO, VO)>,
    pub(crate) side: Vec<S>,
    pub(crate) counters: CounterSet,
    /// Total pairs emitted over the task's lifetime. Tracked
    /// separately from `out.len()` because the engine drains `out`
    /// into the map-side spiller between records.
    pub(crate) emitted: usize,
}

impl<KO, VO, S> MapContext<KO, VO, S> {
    pub(crate) fn new(info: MapTaskInfo) -> Self {
        Self {
            info,
            out: Vec::new(),
            side: Vec::new(),
            counters: CounterSet::new(),
            emitted: 0,
        }
    }

    /// A standalone context for unit-testing mappers outside a job.
    pub fn for_testing(info: MapTaskInfo) -> Self {
        Self::new(info)
    }

    /// Task info (partition index, `m`, `r`).
    pub fn info(&self) -> MapTaskInfo {
        self.info
    }

    /// Pairs emitted and not yet consumed by the engine (read access
    /// for tests of custom mappers; inside a running job the engine
    /// drains this buffer into the map-side spiller between records).
    pub fn output(&self) -> &[(KO, VO)] {
        &self.out
    }

    /// Side records written so far.
    pub fn side(&self) -> &[S] {
        &self.side
    }

    /// Counters recorded so far.
    pub fn counters(&self) -> &CounterSet {
        &self.counters
    }

    /// Emits an intermediate key-value pair into the shuffle.
    pub fn emit(&mut self, key: KO, value: VO) {
        self.out.push((key, value));
        self.emitted += 1;
    }

    /// Writes a record to this map task's *additional output* file.
    ///
    /// Side outputs are collected per map task and can be used as the
    /// (identically partitioned) input of a follow-up job — exactly how
    /// the BDM job hands the blocking-key-annotated entities `Π'_i` to
    /// the matching job in the paper's Figure 2.
    pub fn side_output(&mut self, record: S) {
        self.side.push(record);
    }

    /// Adds `delta` to the named counter.
    pub fn add_counter(&mut self, name: &str, delta: u64) {
        self.counters.add(name, delta);
    }

    /// Total number of pairs emitted so far over the task's lifetime
    /// (useful for flow-control tests). Unlike [`MapContext::output`],
    /// this count is unaffected by the engine draining the buffer into
    /// the map-side spiller.
    pub fn emitted(&self) -> usize {
        self.emitted
    }
}

/// A user-defined map function.
///
/// One clone of the mapper runs per map task; `setup` is called once
/// with the task info before any input record, mirroring Hadoop's
/// `Mapper.setup` / the paper's `map_configure(m, r, partitionIndex)`.
pub trait Mapper: Clone + Send + Sync {
    /// Input key type.
    type KIn: Clone + Send + Sync;
    /// Input value type.
    type VIn: Clone + Send + Sync;
    /// Intermediate (shuffle) key type.
    type KOut: Clone + Send + Sync;
    /// Intermediate (shuffle) value type.
    type VOut: Clone + Send + Sync;
    /// Side-output record type (use `()` when unused).
    type Side: Clone + Send + Sync;
    /// What one map task leaves for every reduce task of its job (use
    /// `()` when unused); see [`Mapper::into_product`].
    type Product: Default + Send + Sync;

    /// Called once per task before the first record.
    fn setup(&mut self, _info: &MapTaskInfo) {}

    /// Called for every input record of the task's partition.
    fn map(
        &mut self,
        key: &Self::KIn,
        value: &Self::VIn,
        ctx: &mut MapContext<Self::KOut, Self::VOut, Self::Side>,
    );

    /// Called once per task after the last record.
    fn finish(&mut self, _ctx: &mut MapContext<Self::KOut, Self::VOut, Self::Side>) {}

    /// Hands over the task's product once `finish` ran. After the map
    /// barrier the engine lends the `m` products, in map-task order,
    /// to every reduce task of the job ([`Group::products`]) and, once
    /// the last reduce task finished, drops them on the pool — one
    /// task per map task, in map-task order. A retried map task starts from a fresh
    /// clone of the prototype, so its product is rebuilt from its own
    /// input and replaces the failed attempt's.
    ///
    /// [`Group::products`]: crate::reducer::Group::products
    fn into_product(self) -> Self::Product {
        Self::Product::default()
    }
}

/// Drives a single map task over its input partition, draining every
/// emitted pair into `sink` as it appears — after each `map` call and
/// after `finish` — so the engine's spiller sees records in emission
/// order without the context ever accumulating the full output.
/// Returns the drained context (side outputs, counters, emission
/// total) and the task's product; `sink` errors abort the task.
pub(crate) fn run_map_task_spilling<M: Mapper, E>(
    prototype: &M,
    info: MapTaskInfo,
    partition: &[(M::KIn, M::VIn)],
    mut sink: impl FnMut(M::KOut, M::VOut) -> Result<(), E>,
) -> Result<(MapContext<M::KOut, M::VOut, M::Side>, M::Product), E> {
    let mut mapper = prototype.clone();
    let mut ctx = MapContext::new(info);
    mapper.setup(&info);
    for (k, v) in partition {
        mapper.map(k, v, &mut ctx);
        for (k, v) in ctx.out.drain(..) {
            sink(k, v)?;
        }
    }
    // Once per task, not per record: the counter is a map lookup by
    // name. An empty partition leaves it absent.
    if !partition.is_empty() {
        ctx.counters
            .add(counters::MAP_INPUT_RECORDS, partition.len() as u64);
    }
    mapper.finish(&mut ctx);
    for (k, v) in ctx.out.drain(..) {
        sink(k, v)?;
    }
    ctx.counters
        .add(counters::MAP_SIDE_OUTPUT_RECORDS, ctx.side.len() as u64);
    Ok((ctx, mapper.into_product()))
}

/// Drives a single map task over its input partition and returns the
/// filled (undrained) context. White-box-test twin of
/// [`run_map_task_spilling`] — the engine itself streams through the
/// spilling variant.
#[cfg(test)]
pub(crate) fn run_map_task<M: Mapper>(
    prototype: &M,
    info: MapTaskInfo,
    partition: &[(M::KIn, M::VIn)],
) -> MapContext<M::KOut, M::VOut, M::Side> {
    let mut mapper = prototype.clone();
    let mut ctx = MapContext::new(info);
    mapper.setup(&info);
    for (k, v) in partition {
        mapper.map(k, v, &mut ctx);
        ctx.counters.inc(counters::MAP_INPUT_RECORDS);
    }
    mapper.finish(&mut ctx);
    ctx.counters
        .add(counters::MAP_SIDE_OUTPUT_RECORDS, ctx.side.len() as u64);
    ctx
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapters::ClosureMapper;

    #[test]
    fn map_task_visits_every_record_in_order() {
        let mapper = ClosureMapper::new(|k: &u32, v: &u32, ctx: &mut MapContext<u32, u32, ()>| {
            ctx.emit(*k, *v * 10);
        });
        let info = MapTaskInfo {
            task_index: 0,
            num_map_tasks: 1,
            num_reduce_tasks: 1,
        };
        let part = vec![(1u32, 1u32), (2, 2), (3, 3)];
        let ctx = run_map_task(&mapper, info, &part);
        assert_eq!(ctx.out, vec![(1, 10), (2, 20), (3, 30)]);
        assert_eq!(ctx.counters.get(counters::MAP_INPUT_RECORDS), 3);
    }

    #[test]
    fn side_output_is_collected_and_counted() {
        let mapper = ClosureMapper::new(
            |_k: &u32, v: &u32, ctx: &mut MapContext<u32, u32, String>| {
                ctx.side_output(format!("saw {v}"));
            },
        );
        let info = MapTaskInfo {
            task_index: 3,
            num_map_tasks: 4,
            num_reduce_tasks: 2,
        };
        let ctx = run_map_task(&mapper, info, &[(0u32, 7u32), (0, 8)]);
        assert_eq!(ctx.side, vec!["saw 7".to_string(), "saw 8".to_string()]);
        assert_eq!(ctx.counters.get(counters::MAP_SIDE_OUTPUT_RECORDS), 2);
        assert_eq!(ctx.info().task_index, 3);
    }

    #[test]
    fn spilling_driver_drains_in_emission_order_and_keeps_the_total() {
        let mapper = ClosureMapper::new(|k: &u32, v: &u32, ctx: &mut MapContext<u32, u32, ()>| {
            ctx.emit(*k, *v);
            ctx.emit(*k, v * 10);
        });
        let info = MapTaskInfo {
            task_index: 0,
            num_map_tasks: 1,
            num_reduce_tasks: 1,
        };
        let part = vec![(1u32, 1u32), (2, 2)];
        let mut seen = Vec::new();
        let (ctx, ()) = run_map_task_spilling(&mapper, info, &part, |k, v| {
            seen.push((k, v));
            Ok::<(), std::convert::Infallible>(())
        })
        .unwrap();
        assert_eq!(seen, vec![(1, 1), (1, 10), (2, 2), (2, 20)]);
        assert!(ctx.output().is_empty(), "driver leaves the buffer drained");
        assert_eq!(ctx.emitted(), 4, "emission total survives the drain");
        assert_eq!(ctx.counters.get(counters::MAP_INPUT_RECORDS), 2);
    }

    #[test]
    fn custom_counters_accumulate() {
        let mapper = ClosureMapper::new(|_: &(), _: &u8, ctx: &mut MapContext<u8, u8, ()>| {
            ctx.add_counter("seen", 2);
        });
        let info = MapTaskInfo {
            task_index: 0,
            num_map_tasks: 1,
            num_reduce_tasks: 1,
        };
        let ctx = run_map_task(&mapper, info, &[((), 1u8), ((), 2)]);
        assert_eq!(ctx.counters.get("seen"), 4);
    }

    #[test]
    fn input_records_counter_is_the_partition_length_or_absent() {
        let mapper = ClosureMapper::new(|_: &(), _: &u8, _: &mut MapContext<u8, u8, ()>| {});
        let info = MapTaskInfo {
            task_index: 0,
            num_map_tasks: 1,
            num_reduce_tasks: 1,
        };
        let sink = |_, _| Ok::<(), std::convert::Infallible>(());
        let part = vec![((), 0u8); 5];
        let (ctx, ()) = run_map_task_spilling(&mapper, info, &part, sink).unwrap();
        assert_eq!(ctx.counters.get(counters::MAP_INPUT_RECORDS), 5);
        let (ctx, ()) = run_map_task_spilling(&mapper, info, &[], sink).unwrap();
        assert!(
            ctx.counters
                .iter()
                .all(|(name, _)| name != counters::MAP_INPUT_RECORDS),
            "an empty partition leaves the counter absent"
        );
    }
}

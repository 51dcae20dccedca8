//! Closure adapters: build mappers/reducers from plain functions.
//!
//! The production strategies in `er-loadbalance` implement the traits
//! directly (they carry per-task state such as the BDM); the adapters
//! keep tests, examples and small jobs terse.

use std::marker::PhantomData;
use std::sync::Arc;

use crate::mapper::{MapContext, MapTaskInfo, Mapper};
use crate::reducer::{Group, ReduceContext, ReduceTaskInfo, Reducer};

/// A [`Mapper`] backed by a closure `(key, value, ctx)`.
pub struct ClosureMapper<KI, VI, KO, VO, S = ()> {
    f: Arc<dyn Fn(&KI, &VI, &mut MapContext<KO, VO, S>) + Send + Sync>,
    _types: PhantomData<fn() -> (KI, VI, KO, VO, S)>,
}

impl<KI, VI, KO, VO, S> ClosureMapper<KI, VI, KO, VO, S> {
    /// Wraps a map closure.
    pub fn new(f: impl Fn(&KI, &VI, &mut MapContext<KO, VO, S>) + Send + Sync + 'static) -> Self {
        Self {
            f: Arc::new(f),
            _types: PhantomData,
        }
    }
}

impl<KI, VI, KO, VO, S> Clone for ClosureMapper<KI, VI, KO, VO, S> {
    fn clone(&self) -> Self {
        Self {
            f: Arc::clone(&self.f),
            _types: PhantomData,
        }
    }
}

impl<KI, VI, KO, VO, S> Mapper for ClosureMapper<KI, VI, KO, VO, S>
where
    KI: Clone + Send + Sync,
    VI: Clone + Send + Sync,
    KO: Clone + Send + Sync,
    VO: Clone + Send + Sync,
    S: Clone + Send + Sync,
{
    type KIn = KI;
    type VIn = VI;
    type KOut = KO;
    type VOut = VO;
    type Side = S;

    fn map(&mut self, key: &KI, value: &VI, ctx: &mut MapContext<KO, VO, S>) {
        (self.f)(key, value, ctx);
    }
}

/// A [`Mapper`] whose closure also receives the [`MapTaskInfo`]
/// (partition index, `m`, `r`) — for map functions that, like the
/// paper's algorithms, depend on which input partition they read.
pub struct PartitionAwareMapper<KI, VI, KO, VO, S = ()> {
    f: Arc<dyn Fn(MapTaskInfo, &KI, &VI, &mut MapContext<KO, VO, S>) + Send + Sync>,
    info: Option<MapTaskInfo>,
    _types: PhantomData<fn() -> (KI, VI, KO, VO, S)>,
}

impl<KI, VI, KO, VO, S> PartitionAwareMapper<KI, VI, KO, VO, S> {
    /// Wraps a partition-aware map closure.
    pub fn new(
        f: impl Fn(MapTaskInfo, &KI, &VI, &mut MapContext<KO, VO, S>) + Send + Sync + 'static,
    ) -> Self {
        Self {
            f: Arc::new(f),
            info: None,
            _types: PhantomData,
        }
    }
}

impl<KI, VI, KO, VO, S> Clone for PartitionAwareMapper<KI, VI, KO, VO, S> {
    fn clone(&self) -> Self {
        Self {
            f: Arc::clone(&self.f),
            info: self.info,
            _types: PhantomData,
        }
    }
}

impl<KI, VI, KO, VO, S> Mapper for PartitionAwareMapper<KI, VI, KO, VO, S>
where
    KI: Clone + Send + Sync,
    VI: Clone + Send + Sync,
    KO: Clone + Send + Sync,
    VO: Clone + Send + Sync,
    S: Clone + Send + Sync,
{
    type KIn = KI;
    type VIn = VI;
    type KOut = KO;
    type VOut = VO;
    type Side = S;

    fn setup(&mut self, info: &MapTaskInfo) {
        self.info = Some(*info);
    }

    fn map(&mut self, key: &KI, value: &VI, ctx: &mut MapContext<KO, VO, S>) {
        let info = self.info.expect("setup ran before map");
        (self.f)(info, key, value, ctx);
    }
}

/// A [`Reducer`] backed by a closure `(group, ctx)`.
pub struct ClosureReducer<KI, VI, KO, VO> {
    f: Arc<dyn Fn(Group<'_, KI, VI>, &mut ReduceContext<KO, VO>) + Send + Sync>,
    _types: PhantomData<fn() -> (KI, VI, KO, VO)>,
}

impl<KI, VI, KO, VO> ClosureReducer<KI, VI, KO, VO> {
    /// Wraps a reduce closure.
    pub fn new(
        f: impl Fn(Group<'_, KI, VI>, &mut ReduceContext<KO, VO>) + Send + Sync + 'static,
    ) -> Self {
        Self {
            f: Arc::new(f),
            _types: PhantomData,
        }
    }
}

impl<KI, VI, KO, VO> Clone for ClosureReducer<KI, VI, KO, VO> {
    fn clone(&self) -> Self {
        Self {
            f: Arc::clone(&self.f),
            _types: PhantomData,
        }
    }
}

impl<KI, VI, KO, VO> Reducer for ClosureReducer<KI, VI, KO, VO>
where
    KI: Clone + Send + Sync,
    VI: Clone + Send + Sync,
    KO: Clone + Send + Sync,
    VO: Clone + Send + Sync,
{
    type KIn = KI;
    type VIn = VI;
    type KOut = KO;
    type VOut = VO;

    fn reduce(&mut self, group: Group<'_, KI, VI>, ctx: &mut ReduceContext<KO, VO>) {
        (self.f)(group, ctx);
    }
}

/// A reducer variant whose closure also receives [`ReduceTaskInfo`].
pub struct TaskAwareReducer<KI, VI, KO, VO> {
    f: Arc<dyn Fn(ReduceTaskInfo, Group<'_, KI, VI>, &mut ReduceContext<KO, VO>) + Send + Sync>,
    info: Option<ReduceTaskInfo>,
    _types: PhantomData<fn() -> (KI, VI, KO, VO)>,
}

impl<KI, VI, KO, VO> TaskAwareReducer<KI, VI, KO, VO> {
    /// Wraps a task-aware reduce closure.
    pub fn new(
        f: impl Fn(ReduceTaskInfo, Group<'_, KI, VI>, &mut ReduceContext<KO, VO>)
            + Send
            + Sync
            + 'static,
    ) -> Self {
        Self {
            f: Arc::new(f),
            info: None,
            _types: PhantomData,
        }
    }
}

impl<KI, VI, KO, VO> Clone for TaskAwareReducer<KI, VI, KO, VO> {
    fn clone(&self) -> Self {
        Self {
            f: Arc::clone(&self.f),
            info: self.info,
            _types: PhantomData,
        }
    }
}

impl<KI, VI, KO, VO> Reducer for TaskAwareReducer<KI, VI, KO, VO>
where
    KI: Clone + Send + Sync,
    VI: Clone + Send + Sync,
    KO: Clone + Send + Sync,
    VO: Clone + Send + Sync,
{
    type KIn = KI;
    type VIn = VI;
    type KOut = KO;
    type VOut = VO;

    fn setup(&mut self, info: &ReduceTaskInfo) {
        self.info = Some(*info);
    }

    fn reduce(&mut self, group: Group<'_, KI, VI>, ctx: &mut ReduceContext<KO, VO>) {
        let info = self.info.expect("setup ran before reduce");
        (self.f)(info, group, ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Job;
    use crate::input::partition_evenly;

    #[test]
    fn partition_aware_mapper_sees_its_partition_index() {
        let mapper = PartitionAwareMapper::new(
            |info: MapTaskInfo, _k: &(), v: &u32, ctx: &mut MapContext<u32, usize, ()>| {
                ctx.emit(*v, info.task_index);
            },
        );
        let reducer = ClosureReducer::new(
            |group: Group<'_, u32, usize>, ctx: &mut ReduceContext<u32, usize>| {
                for (k, v) in group.iter() {
                    ctx.emit(*k, *v);
                }
            },
        );
        let input = partition_evenly(vec![((), 10u32), ((), 20), ((), 30), ((), 40)], 2);
        let out = Job::builder("t", mapper, reducer)
            .reduce_tasks(1)
            .build()
            .run_on(&crate::pool::WorkerPool::new(1), input)
            .unwrap();
        let mut got = out.into_records();
        got.sort();
        assert_eq!(got, vec![(10, 0), (20, 0), (30, 1), (40, 1)]);
    }

    #[test]
    fn task_aware_reducer_sees_its_task_index() {
        let mapper = ClosureMapper::new(|_: &(), v: &u32, ctx: &mut MapContext<u32, u32, ()>| {
            ctx.emit(*v % 3, *v);
        });
        let reducer = TaskAwareReducer::new(
            |info: ReduceTaskInfo,
             group: Group<'_, u32, u32>,
             ctx: &mut ReduceContext<usize, u32>| {
                for v in group.values() {
                    ctx.emit(info.task_index, *v);
                }
            },
        );
        let input = partition_evenly((0..9u32).map(|v| ((), v)).collect(), 2);
        let out = Job::builder("t", mapper, reducer)
            .reduce_tasks(3)
            .build()
            .run_on(&crate::pool::WorkerPool::new(1), input)
            .unwrap();
        // Key k (=v%3) is hashed to some reduce task; all values of one
        // key must report the same task index.
        use std::collections::HashMap;
        let mut seen: HashMap<u32, usize> = HashMap::new();
        for (task, v) in out.into_records() {
            let prev = seen.insert(v % 3, task);
            if let Some(p) = prev {
                assert_eq!(p, task);
            }
        }
    }
}

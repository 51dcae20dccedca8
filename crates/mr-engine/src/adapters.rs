//! Closure adapters: build mappers/reducers from plain functions.
//!
//! The production strategies in `er-loadbalance` implement the traits
//! directly (they carry per-task state such as the BDM); the adapters
//! keep tests, examples and small jobs terse.

use std::marker::PhantomData;
use std::sync::Arc;

use crate::mapper::{MapContext, Mapper};
use crate::reducer::{Group, ReduceContext, Reducer};

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
    type Product = ();

    fn map(&mut self, key: &KI, value: &VI, ctx: &mut MapContext<KO, VO, S>) {
        (self.f)(key, value, ctx);
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
    type Product = ();

    fn reduce(&mut self, group: Group<'_, KI, VI>, ctx: &mut ReduceContext<KO, VO>) {
        (self.f)(group, ctx);
    }
}

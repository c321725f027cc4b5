//! A pool of Neurocubes with model-affinity tracking.
//!
//! The serving layer schedules batches onto many cubes; what makes
//! placement interesting is that a cube *keeps its last-programmed PNG
//! configuration* — dispatching a batch of the model a cube already
//! holds skips the host's reprogramming phase entirely, while switching
//! models pays the full per-layer configuration-register write time
//! (Fig. 8(c), [`crate::ProgrammingModel`]). [`PoolCube`] models exactly
//! that: it caches the [`LoadedNetwork`] under an opaque model tag and
//! reports whether each `ensure_loaded` was an affinity hit or a
//! reprogram.
//!
//! Cubes in a pool are fully independent deterministic simulators, so a
//! pool can be driven serially or with one cube per
//! [`neurocube_sim::BatchRunner`] job and produce bitwise-identical
//! results — the property the serving layer's determinism contract
//! builds on.

use crate::{LoadedGraph, LoadedNetwork, Neurocube, RunReport, SystemConfig};
use neurocube_fixed::Q88;
use neurocube_nn::{GraphSpec, NetworkSpec, Tensor};
use neurocube_png::CompileError;
use neurocube_sim::StatsRegistry;

/// One cube of a serving pool, remembering which model it last
/// programmed — either a linear network or a compiled graph (the two
/// share the cube's DRAM image, so programming one evicts the other).
pub struct PoolCube {
    cube: Neurocube,
    loaded: Option<(u64, LoadedNetwork)>,
    graph_loaded: Option<(u64, LoadedGraph)>,
}

impl PoolCube {
    /// A fresh cube with nothing programmed.
    #[must_use]
    pub fn new(cfg: SystemConfig) -> PoolCube {
        PoolCube {
            cube: Neurocube::new(cfg),
            loaded: None,
            graph_loaded: None,
        }
    }

    /// The tag of the model currently programmed (linear or graph),
    /// `None` when fresh.
    #[must_use]
    pub fn loaded_tag(&self) -> Option<u64> {
        self.loaded
            .as_ref()
            .map(|(tag, _)| *tag)
            .or_else(|| self.graph_loaded.as_ref().map(|(tag, _)| *tag))
    }

    /// Ensures the model `tag` is programmed, reloading (layout, weights
    /// and layer programs) only when the cube holds a different model.
    /// Returns `true` on an affinity hit — the caller charges the
    /// reprogramming time on `false`.
    ///
    /// # Panics
    ///
    /// Panics if the network does not fit the cube or `params` does not
    /// match the spec (see [`Neurocube::load`]).
    pub fn ensure_loaded(&mut self, tag: u64, spec: &NetworkSpec, params: &[Vec<Q88>]) -> bool {
        if self.loaded.as_ref().is_some_and(|(t, _)| *t == tag) {
            return true;
        }
        let loaded = self.cube.load(spec.clone(), params.to_vec());
        self.loaded = Some((tag, loaded));
        // The weight image just written overlaps whatever graph placement
        // the cube held; its cached compilation is now stale.
        self.graph_loaded = None;
        false
    }

    /// Ensures the compiled graph `tag` is programmed, recompiling and
    /// rewriting weights only when the cube holds a different model.
    /// Returns `true` on an affinity hit, like [`PoolCube::ensure_loaded`].
    ///
    /// # Panics
    ///
    /// Panics if the graph does not fit the cube or `params` does not
    /// match it (see [`Neurocube::load_graph`]).
    pub fn ensure_graph_loaded(
        &mut self,
        tag: u64,
        graph: &GraphSpec,
        params: &[Vec<Q88>],
    ) -> bool {
        match self.try_ensure_graph_loaded(tag, graph, params) {
            Ok(hit) => hit,
            Err(e) => panic!("graph fits the cube: {e}"),
        }
    }

    /// [`PoolCube::ensure_graph_loaded`] with placement failures surfaced
    /// as typed errors instead of panics.
    ///
    /// # Errors
    ///
    /// Returns the compiler's [`CompileError`] when the graph cannot be
    /// placed in the cube or `params` does not match it; the cube's
    /// previous programming is left untouched on failure.
    pub fn try_ensure_graph_loaded(
        &mut self,
        tag: u64,
        graph: &GraphSpec,
        params: &[Vec<Q88>],
    ) -> Result<bool, CompileError> {
        if self.graph_loaded.as_ref().is_some_and(|(t, _)| *t == tag) {
            return Ok(true);
        }
        let loaded = self.cube.load_graph(graph, params.to_vec())?;
        self.graph_loaded = Some((tag, loaded));
        // Same DRAM image: the linear model's weights were overwritten.
        self.loaded = None;
        Ok(false)
    }

    /// Forgets whatever model is programmed, so the next `ensure_*` is a
    /// guaranteed miss. Serving layers call this when a tenant kind that
    /// does not run on this cube (a sharded model on its own cluster)
    /// takes the serving slot: the slot's affinity is single-occupancy,
    /// and the cube's stale weight image must not masquerade as a hit.
    pub fn evict(&mut self) {
        self.loaded = None;
        self.graph_loaded = None;
    }

    /// Runs one inference on the currently programmed linear model.
    ///
    /// # Panics
    ///
    /// Panics if no linear model has been programmed yet.
    pub fn run(&mut self, input: &Tensor) -> (Tensor, RunReport) {
        let (_, loaded) = self.loaded.as_ref().expect("a model is programmed");
        self.cube.run_inference(loaded, input)
    }

    /// [`PoolCube::run`] with the fresh-cube case surfaced as a typed
    /// error.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::NothingProgrammed`] when no linear model
    /// has been programmed yet.
    pub fn try_run(&mut self, input: &Tensor) -> Result<(Tensor, RunReport), CompileError> {
        let (_, loaded) = self
            .loaded
            .as_ref()
            .ok_or(CompileError::NothingProgrammed)?;
        Ok(self.cube.run_inference(loaded, input))
    }

    /// Runs one pipelined inference on the currently programmed graph.
    ///
    /// # Panics
    ///
    /// Panics if no graph has been programmed yet.
    pub fn run_graph(&mut self, input: &Tensor) -> (Tensor, RunReport) {
        let (_, loaded) = self.graph_loaded.as_ref().expect("a graph is programmed");
        self.cube.run_graph_inference(loaded, input)
    }

    /// [`PoolCube::run_graph`] with the fresh-cube case surfaced as a
    /// typed error.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::NothingProgrammed`] when no graph has been
    /// programmed yet.
    pub fn try_run_graph(&mut self, input: &Tensor) -> Result<(Tensor, RunReport), CompileError> {
        let (_, loaded) = self
            .graph_loaded
            .as_ref()
            .ok_or(CompileError::NothingProgrammed)?;
        Ok(self.cube.run_graph_inference(loaded, input))
    }

    /// Runs one inference on whatever model the cube currently holds —
    /// the linear network or the compiled graph, whichever is programmed.
    /// The audit-replay hook of the two-speed serving path: callers that
    /// programmed the cube through `ensure_loaded`/`ensure_graph_loaded`
    /// need not re-dispatch on the payload kind.
    ///
    /// # Panics
    ///
    /// Panics if the cube is fresh (nothing programmed).
    pub fn run_service(&mut self, input: &Tensor) -> (Tensor, RunReport) {
        match self.try_run_service(input) {
            Ok(r) => r,
            Err(e) => panic!("{e}"),
        }
    }

    /// [`PoolCube::run_service`] with the fresh-cube case surfaced as a
    /// typed error.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::NothingProgrammed`] when the cube is fresh
    /// (nothing programmed).
    pub fn try_run_service(&mut self, input: &Tensor) -> Result<(Tensor, RunReport), CompileError> {
        if self.loaded.is_some() {
            self.try_run(input)
        } else if self.graph_loaded.is_some() {
            self.try_run_graph(input)
        } else {
            Err(CompileError::NothingProgrammed)
        }
    }

    /// Turns fast-forwarding on/off for this cube (see
    /// [`Neurocube::set_cycle_skip`]).
    pub fn set_cycle_skip(&mut self, enabled: bool) {
        self.cube.set_cycle_skip(enabled);
    }

    /// Snapshot of the underlying cube's statistics registry.
    #[must_use]
    pub fn stats_registry(&self) -> StatsRegistry {
        self.cube.stats_registry()
    }

    /// Read access to the underlying cube.
    #[must_use]
    pub fn cube(&self) -> &Neurocube {
        &self.cube
    }
}

/// A fixed-size pool of identical [`PoolCube`]s.
pub struct CubePool {
    cubes: Vec<PoolCube>,
}

impl CubePool {
    /// Builds `n` fresh cubes sharing one configuration.
    ///
    /// # Panics
    ///
    /// Panics when `n` is zero — an empty pool can never serve.
    #[must_use]
    pub fn new(cfg: &SystemConfig, n: usize) -> CubePool {
        match CubePool::try_new(cfg, n) {
            Ok(pool) => pool,
            Err(e) => panic!("{e}"),
        }
    }

    /// [`CubePool::new`] with the zero-cube case surfaced as a typed
    /// error.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::EmptyPool`] when `n` is zero.
    pub fn try_new(cfg: &SystemConfig, n: usize) -> Result<CubePool, CompileError> {
        if n == 0 {
            return Err(CompileError::EmptyPool);
        }
        Ok(CubePool {
            cubes: (0..n).map(|_| PoolCube::new(cfg.clone())).collect(),
        })
    }

    /// Number of cubes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cubes.len()
    }

    /// Always false — the constructor rejects empty pools.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cubes.is_empty()
    }

    /// One cube by index.
    #[must_use]
    pub fn get(&self, i: usize) -> &PoolCube {
        &self.cubes[i]
    }

    /// Mutable access to one cube by index.
    pub fn get_mut(&mut self, i: usize) -> &mut PoolCube {
        &mut self.cubes[i]
    }

    /// The model tag each cube currently holds, in cube order.
    #[must_use]
    pub fn loaded_tags(&self) -> Vec<Option<u64>> {
        self.cubes.iter().map(PoolCube::loaded_tag).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neurocube_nn::workloads;

    #[test]
    fn affinity_hit_skips_reload_and_miss_reprograms() {
        let a = workloads::tiny_convnet();
        let pa = a.init_params(1, 0.25);
        let b = workloads::mnist_mlp(8);
        let pb = b.init_params(2, 0.25);
        let mut cube = PoolCube::new(SystemConfig::paper(true));
        assert_eq!(cube.loaded_tag(), None);
        assert!(!cube.ensure_loaded(10, &a, &pa), "first load is a miss");
        assert!(cube.ensure_loaded(10, &a, &pa), "same tag is a hit");
        assert!(
            !cube.ensure_loaded(20, &b, &pb),
            "switching models is a miss"
        );
        assert_eq!(cube.loaded_tag(), Some(20));
        assert!(!cube.ensure_loaded(10, &a, &pa), "switching back reloads");
    }

    #[test]
    fn reloaded_model_matches_a_fresh_cube_bitwise() {
        let a = workloads::tiny_convnet();
        let pa = a.init_params(1, 0.25);
        let b = workloads::mnist_mlp(8);
        let pb = b.init_params(2, 0.25);
        let input = Tensor::zeros(1, 12, 12);

        // Fresh cube running model A once.
        let mut fresh = PoolCube::new(SystemConfig::paper(true));
        fresh.ensure_loaded(10, &a, &pa);
        let (fresh_out, fresh_report) = fresh.run(&input);

        // Pool cube that served model B in between: reprogramming back to
        // A reproduces the output bit for bit and the same work counts.
        // Timing fields (cycles, row misses) legitimately differ — DRAM
        // row-buffer state persists across runs, so a warm cube is not a
        // cold cube; value-accuracy is what reloading must preserve.
        let mut reused = PoolCube::new(SystemConfig::paper(true));
        reused.ensure_loaded(10, &a, &pa);
        let _ = reused.run(&input);
        reused.ensure_loaded(20, &b, &pb);
        let mnist_in = Tensor::zeros(1, 28, 28);
        let _ = reused.run(&mnist_in);
        reused.ensure_loaded(10, &a, &pa);
        let (out, report) = reused.run(&input);
        assert_eq!(out, fresh_out);
        assert_eq!(report.layers.len(), fresh_report.layers.len());
        for (l, f) in report.layers.iter().zip(&fresh_report.layers) {
            assert_eq!(l.macs, f.macs);
            assert_eq!(l.packets, f.packets);
        }
    }

    #[test]
    fn run_service_dispatches_on_the_programmed_kind() {
        let lin = workloads::tiny_convnet();
        let lp = lin.init_params(1, 0.25);
        let graph = workloads::residual_toy();
        let gp = graph.init_params(5, 0.25);
        let input = Tensor::zeros(1, 12, 12);
        let mut cube = PoolCube::new(SystemConfig::paper(true));

        cube.ensure_loaded(10, &lin, &lp);
        let (via_service, _) = cube.run_service(&input);
        let mut direct = PoolCube::new(SystemConfig::paper(true));
        direct.ensure_loaded(10, &lin, &lp);
        assert_eq!(via_service, direct.run(&input).0);

        cube.ensure_graph_loaded(30, &graph, &gp);
        let (via_service, _) = cube.run_service(&input);
        let mut direct = PoolCube::new(SystemConfig::paper(true));
        direct.ensure_graph_loaded(30, &graph, &gp);
        assert_eq!(via_service, direct.run_graph(&input).0);
    }

    #[test]
    #[should_panic(expected = "a model is programmed before service")]
    fn run_service_rejects_fresh_cubes() {
        let mut cube = PoolCube::new(SystemConfig::paper(true));
        let _ = cube.run_service(&Tensor::zeros(1, 12, 12));
    }

    #[test]
    #[should_panic(expected = "at least one cube")]
    fn empty_pool_is_rejected() {
        let _ = CubePool::new(&SystemConfig::paper(true), 0);
    }

    #[test]
    fn typed_errors_replace_fresh_cube_panics() {
        let input = Tensor::zeros(1, 12, 12);
        let mut cube = PoolCube::new(SystemConfig::paper(true));
        assert_eq!(
            cube.try_run(&input).unwrap_err(),
            CompileError::NothingProgrammed
        );
        assert_eq!(
            cube.try_run_graph(&input).unwrap_err(),
            CompileError::NothingProgrammed
        );
        assert_eq!(
            cube.try_run_service(&input).unwrap_err(),
            CompileError::NothingProgrammed
        );
        assert_eq!(
            CubePool::try_new(&SystemConfig::paper(true), 0).err(),
            Some(CompileError::EmptyPool)
        );
        match CubePool::try_new(&SystemConfig::paper(true), 1) {
            Ok(pool) => assert_eq!(pool.len(), 1),
            Err(e) => panic!("one cube is a valid pool: {e}"),
        }
    }

    #[test]
    fn try_ensure_graph_loaded_surfaces_placement_failure() {
        let graph = workloads::residual_toy();
        let gp = graph.init_params(5, 0.25);
        // Shrink every vault's region so the graph cannot be placed.
        let mut cfg = SystemConfig::paper(true);
        cfg.memory.region_bytes = 64;
        let mut cube = PoolCube::new(cfg);
        let err = cube.try_ensure_graph_loaded(30, &graph, &gp).unwrap_err();
        assert!(
            matches!(err, CompileError::VaultOverCapacity { .. }),
            "unexpected error: {err}"
        );
        // The failed load programs nothing.
        assert_eq!(cube.loaded_tag(), None);
    }

    #[test]
    fn evict_forces_the_next_load_to_miss() {
        let graph = workloads::residual_toy();
        let gp = graph.init_params(5, 0.25);
        let mut cube = PoolCube::new(SystemConfig::paper(true));
        assert!(!cube.ensure_graph_loaded(30, &graph, &gp));
        assert!(cube.ensure_graph_loaded(30, &graph, &gp), "warm: a hit");
        cube.evict();
        assert_eq!(cube.loaded_tag(), None);
        assert!(
            !cube.ensure_graph_loaded(30, &graph, &gp),
            "evicted: a miss even for the same tag"
        );
    }

    /// Graph and linear models share the cube's DRAM image, so loading
    /// one must invalidate the other's affinity — and reloading a graph
    /// after a linear model served in between reproduces a fresh cube's
    /// output bit for bit.
    #[test]
    fn graph_affinity_cross_invalidates_with_linear_models() {
        let graph = workloads::residual_toy();
        let gp = graph.init_params(5, 0.25);
        let lin = workloads::tiny_convnet();
        let lp = lin.init_params(1, 0.25);
        let input = Tensor::zeros(1, 12, 12);

        let mut fresh = PoolCube::new(SystemConfig::paper(true));
        assert!(!fresh.ensure_graph_loaded(30, &graph, &gp));
        let (fresh_out, _) = fresh.run_graph(&input);

        let mut reused = PoolCube::new(SystemConfig::paper(true));
        assert!(!reused.ensure_graph_loaded(30, &graph, &gp));
        assert!(reused.ensure_graph_loaded(30, &graph, &gp), "same tag hits");
        assert_eq!(reused.loaded_tag(), Some(30));
        assert!(
            !reused.ensure_loaded(10, &lin, &lp),
            "linear load is a miss"
        );
        assert_eq!(reused.loaded_tag(), Some(10));
        let _ = reused.run(&input);
        assert!(
            !reused.ensure_graph_loaded(30, &graph, &gp),
            "the linear model overwrote the graph's weights: a reload"
        );
        let (out, _) = reused.run_graph(&input);
        assert_eq!(out, fresh_out, "reloaded graph diverges from fresh");
    }
}

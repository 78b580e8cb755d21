// Package experiment is the run engine under every figure of the paper's
// evaluation: Run executes one collection simulation from a RunConfig,
// RunAllWorkers executes a batch on a worker pool with results independent
// of the pool's width, ReplicateWorkers and Aggregate add multi-seed
// confidence intervals, and Fingerprint pins a run bit-for-bit. It also
// holds the tree/histogram render helpers and the bespoke Figure 3 harness
// (RunFig3), which instruments one link mid-run. The RunConfig-batch
// figures themselves are defined in internal/scenario. DESIGN.md §4 is the
// experiment index.
package experiment

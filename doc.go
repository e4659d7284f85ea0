// Package cocco reproduces "Cocco: Hardware-Mapping Co-Exploration towards
// Memory Capacity-Communication Optimization" (Tan, Zhu, Ma — ASPLOS 2024).
//
// The library lives under internal/: the computation-graph substrate
// (internal/graph), the network zoo (internal/models), the
// consumption-centric subgraph tiling flow with its MAIN/SIDE buffer
// regions (internal/tiling), the accelerator platform and
// energy model (internal/hw), the partition formalism (internal/partition),
// the evaluation environment (internal/eval), the Cocco genetic optimizer
// (internal/core), the comparison optimizers (internal/baselines), and the
// table/figure harness (internal/experiments).
//
// The benchmarks in this package regenerate every table and figure of the
// paper's evaluation; see EXPERIMENTS.md for the paper-vs-measured record
// and DESIGN.md for the system inventory.
package cocco

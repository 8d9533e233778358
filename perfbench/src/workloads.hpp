#pragma once
/// \file workloads.hpp
/// The three benchmark workloads. Each makes its inputs from ctx.seed,
/// runs its passes for ctx.seconds, checks every output, and fills
/// ctx.out: the end-to-end metrics (untraced run) or the per-layer
/// metrics (traced run).

#include "harness.hpp"

namespace perfbench {

/// The seven paper schemes on the six Table I graphs, plus D-ldg at P=4.
void run_fig7_suite(RunContext& ctx);
/// Sharded generation, CSR build and cache round trip of four families.
void run_ingest(RunContext& ctx);
/// A closed-loop client driving serve::Session with a mixed stream.
void run_serve_mixed(RunContext& ctx);

}  // namespace perfbench

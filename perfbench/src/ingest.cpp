/// \file ingest.cpp
/// Workload ingest: the graph layer's scale path. Four generator families
/// (ba, rgg2d, grid3d, kron) at about 1.6e7 directed CSR entries each go
/// through sharded generation, the parallel CSR build and a CSR-cache
/// store and load in a private directory, on a 4-thread pool. The loaded
/// graph is then uploaded to a simulated device, whose PCIe transfer time
/// is the pass's simulated time, and colored first-fit on the host, which
/// checks that it is usable and gives the pass its color count. One
/// request is one family's round trip.

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <memory>
#include <iostream>
#include <sstream>
#include <unistd.h>

#include "coloring/gpu_common.hpp"
#include "coloring/seq_greedy.hpp"
#include "graph/build_parallel.hpp"
#include "graph/cache.hpp"
#include "graph/genspec.hpp"
#include "simt/device.hpp"
#include "support/threadpool.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using speckle::graph::CsrGraph;
using speckle::graph::GeneratorSpec;

constexpr std::uint64_t kEdges = 16'000'000;  ///< directed entries per family
constexpr unsigned kThreads = 4;
constexpr int kSetups = 3;
/// Set-up warms the pipeline with each family at this fraction of its size.
constexpr std::uint64_t kWarmupDivisor = 16;

/// The spec text that lands a family near `edges` directed CSR entries
/// (the per-family divisors of bench_huge's family sweep).
std::string family_spec(const std::string& family, std::uint64_t edges) {
  std::ostringstream out;
  if (family == "ba") {
    out << "ba:n=" << edges / 8 << ",attach=4";
  } else if (family == "rgg2d") {
    out << "rgg2d:n=" << edges / 8 << ",deg=8";
  } else if (family == "grid3d") {
    const auto side = static_cast<std::uint64_t>(
        std::llround(std::cbrt(static_cast<double>(edges * 10 / 69))));
    out << "grid3d:nx=" << side << ",ny=" << side << ",nz=" << side
        << ",defects=0.5";
  } else {  // kron: deg=16 directed target, n a power of two
    const auto scale = static_cast<std::uint32_t>(
        std::llround(std::log2(static_cast<double>(edges) / 16.0)));
    out << "kron:scale=" << scale << ",deg=16";
  }
  return out.str();
}

struct Family {
  std::string name;
  GeneratorSpec spec;
};

std::vector<Family> make_families(const RunContext& ctx,
                                  std::uint64_t edges) {
  std::vector<Family> families;
  std::uint64_t stream = 10;
  for (const char* name : {"ba", "rgg2d", "grid3d", "kron"}) {
    families.push_back({name, speckle::graph::parse_generator_spec(
                                  family_spec(name, edges),
                                  ctx.derive_seed(stream++))});
  }
  return families;
}

/// One family's round trip; failed steps are counted in ctx.out.
void ingest_family(RunContext& ctx, const Family& family,
                   speckle::support::ThreadPool& pool,
                   const std::string& dir, PassResult& pass, Digest& digest) {
  Tracer& tracer = *ctx.tracer;
  Outcome& out = *ctx.out;
  const auto n = static_cast<speckle::graph::vid_t>(family.spec.num_vertices);

  CsrGraph g;
  {
    std::vector<speckle::graph::EdgeList> shards;
    timed(tracer, "graph.generate_shards", [&] {
      shards = speckle::graph::generate_shards(family.spec, pool);
    });
    timed(tracer, "graph.build_csr_parallel", [&] {
      g = speckle::graph::build_csr_parallel(n, shards, pool);
    });
  }

  const std::string key = speckle::graph::canonical_spec_key(family.spec);
  const std::string path = speckle::graph::graph_cache_path(dir, key);
  bool stored = false;
  timed(tracer, "graph.store_cached_graph", [&] {
    stored = speckle::graph::store_cached_graph(path, key, g);
  });
  out.check(stored, "cache store of " + family.name);
  CsrGraph loaded;
  bool hit = false;
  timed(tracer, "graph.load_cached_graph", [&] {
    hit = speckle::graph::load_cached_graph(path, key, &loaded);
  });
  std::filesystem::remove(path);
  out.check(hit, "cache load of " + family.name);
  {
    Span check(tracer, "bench.check");
    out.check(std::ranges::equal(loaded.row_offsets(), g.row_offsets()) &&
                  std::ranges::equal(loaded.col_indices(), g.col_indices()),
              "loaded CSR equals the generated one for " + family.name);
  }
  bool valid = false;
  timed(tracer, "graph.validate", [&] { valid = loaded.validate(); });
  out.check(valid, "CsrGraph invariants of " + family.name);

  // Onto the simulated device: the CSR buffers, then their PCIe transfer
  // (the coloring schemes leave the graph upload uncharged).
  speckle::simt::Device dev(speckle::simt::DeviceConfig::k20c());
  timed(tracer, "coloring.upload_graph",
        [&] { speckle::coloring::upload_graph(dev, loaded); });
  timed(tracer, "simt.copy_to_device",
        [&] { dev.copy_to_device(loaded.byte_size()); });
  pass.sim_ms += dev.elapsed_ms();
  add_simt_counters(pass.layers, dev.report());

  speckle::coloring::SeqOptions seq;
  seq.charge_model = false;
  speckle::coloring::SeqResult colored;
  timed(tracer, "coloring.seq_greedy",
        [&] { colored = speckle::coloring::seq_greedy(loaded, seq); });
  Span check(tracer, "bench.check");
  out.check(proper_coloring(loaded, colored.coloring),
            "first-fit coloring of " + family.name);
  pass.colors += colored.num_colors;
  pass.layers["graph.edges"] += static_cast<double>(loaded.num_edges());
  digest.add(loaded.row_offsets());
  digest.add(loaded.col_indices());
  digest.add_report(dev.report(), true);
  digest.add(std::span<const std::uint32_t>(colored.coloring));
}

/// One pass; a request is one family's round trip.
PassResult run_pass(RunContext& ctx, const std::vector<Family>& families,
                    speckle::support::ThreadPool& pool,
                    const std::string& dir) {
  PassResult pass;
  Digest digest;
  const Stopwatch clock;
  for (const Family& family : families) {
    const Stopwatch op;
    ingest_family(ctx, family, pool, dir, pass, digest);
    pass.latency_ms.push_back(op.cpu() * 1e3);
  }
  pass.cpu_s = clock.cpu();
  pass.wall_s = clock.wall();
  pass.digest = digest.hex();
  return pass;
}

}  // namespace

void run_ingest(RunContext& ctx) {
  Tracer& tracer = *ctx.tracer;
  const std::vector<Family> families = make_families(ctx, kEdges);
  const std::vector<Family> warmup =
      make_families(ctx, kEdges / kWarmupDivisor);
  const std::string dir =
      ctx.work_dir + "/ingest-cache-" + std::to_string(::getpid());

  // Set-up: the worker pool, the private cache directory and one
  // small-scale round trip per family (allocator and page-cache warm-up).
  std::unique_ptr<speckle::support::ThreadPool> pool;
  std::vector<double> setups;
  for (int rep = 0; rep < kSetups; ++rep) {
    pool.reset();
    std::filesystem::remove_all(dir);
    const Stopwatch clock;
    pool = std::make_unique<speckle::support::ThreadPool>(kThreads);
    std::filesystem::create_directories(dir);
    run_pass(ctx, warmup, *pool, dir);
    setups.push_back(clock.cpu());
  }
  for (const Family& f : families) {
    std::cout << "input " << f.name << ": "
              << speckle::graph::canonical_spec_key(f.spec) << "\n";
  }

  std::vector<PassResult> passes;
  const PassTimes times = run_passes(ctx, [&] {
    passes.push_back(run_pass(ctx, families, *pool, dir));
    return passes.back().cpu_s;
  });
  std::filesystem::remove_all(dir);
  check_repeats(ctx, passes);
  if (!ctx.trace) {
    emit_end_to_end(ctx, setups, times, passes, families.size());
    return;
  }

  LayerValues layers = passes.front().layers;
  const double traced = static_cast<double>(times.traced.size());
  layers["graph.gen_shards_s"] =
      tracer.total_seconds("graph.generate_shards") / traced;
  layers["graph.build_csr_s"] =
      tracer.total_seconds("graph.build_csr_parallel") / traced;
  layers["graph.cache_store_s"] =
      tracer.total_seconds("graph.store_cached_graph") / traced;
  layers["graph.cache_load_s"] =
      tracer.total_seconds("graph.load_cached_graph") / traced;
  finish_simt_ratios(layers, 0.0);
  emit_layers(ctx, layers, times);
}

}  // namespace perfbench
